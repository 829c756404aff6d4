"""Command-line front door.

Subcommands wire directly to the library modules.  Each returns its text
and exit code; main times the run and _emit writes the text to --out, with
a JSON manifest (<out>.manifest.json) carrying the subcommand, the full
flag set, the seed, the library, numpy and Python versions, the platform,
the stream-layout version, the wall time and the output paths, so any
artifact can be reproduced from its manifest alone.  A subcommand without
--out writes its text to stdout.  tables runs on every CPU the process may
use unless --threads says otherwise; its output does not depend on the
thread count, and the manifest records the count it ran with.

Exit codes: 0 success, 2 usage error (argparse), 1 runtime failure; all
diagnostics go to stderr, all data to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .characterization import verify_propositions
from .designs import STREAM_LAYOUT, list_designs
from .power import (
    _csv,
    default_a_grid,
    default_mu_grid,
    render_table,
    reproduce_table,
    toy_power_curve,
    toy_three_obs_powers,
)
from .regression import (
    check_resample_sizes,
    load_xy_csv,
    make_fixture,
    ols_fit,
    resample_power_study,
    residual_median_analysis,
    residuals,
)

__all__ = ["main"]


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _alpha_value(text):
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("alpha must lie strictly between 0 and 1")
    return value


def _available_cpus():
    """The CPUs this process may run on: the default --threads of tables,
    whose output does not depend on the thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _nb_list(text):
    if not text.startswith("nb="):
        raise argparse.ArgumentTypeError("expected nb=<int>,<int>,...")
    try:
        return tuple(int(part) for part in text[3:].split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected nb=<int>,<int>,...") from None


def _emit(args, text, wall_time_s):
    """Write text to args.out and its manifest, or to stdout without --out."""
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)

    import platform  # only manifests need it

    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "flags": flags,
        "root_seed": flags.get("seed"),
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "stream_layout": STREAM_LAYOUT,
        "wall_time_s": round(wall_time_s, 6),
        "output_paths": [out],
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_designs(args):
    rows = ([design.table, design.label, description] for design, description in list_designs())
    return _csv(["table", "design", "description"], rows), 0


def _cmd_tables(args):
    report = reproduce_table(
        args.table,
        reps=args.reps,
        seed=args.seed,
        moment_variant=args.moment_variant,
        alpha=args.alpha,
        bootstrap_b=args.bootstrap_b,
        threads=args.threads,
    )
    return render_table(report, args.format), 0


def _cmd_toy(args):
    if args.figure == "1a":
        curve = toy_power_curve(default_a_grid(), alpha=args.alpha)
        header = ["a", "power_gain", "covariance"]
    else:
        curve = toy_three_obs_powers(default_mu_grid(), alpha=args.alpha)
        header = ["mu", "p_plain_mean", "p_decorrelated", "p_precision_weighted"]
    return _csv(header, ([f"{v:.10g}" for v in row] for row in curve)), 0


def _cmd_verify(args):
    claims = verify_propositions(seed=args.seed, n_models=args.models, n_pairs=args.pairs)
    rows = (
        [c["name"], "pass" if c["passed"] else "FAIL", f"{c['max_violation']:.3e}", c["cases"]]
        for c in claims
    )
    text = _csv(["claim", "status", "max_violation", "cases"], rows)
    return text, 0 if all(c["passed"] for c in claims) else 1


def _analysis_lines(fit, analysis, study, args):
    lines = []
    if fit is not None:
        lines.append(
            "least squares fit: "
            f"intercept={fit.intercept:.4f} (se {fit.se_intercept:.4f}, "
            f"t {fit.t_values[0]:.2f}), "
            f"slope={fit.slope:.4f} (se {fit.se_slope:.4f}, t {fit.t_values[1]:.2f}), "
            f"residual_se={fit.residual_se:.4f}, r_squared={fit.r_squared:.4f}, "
            f"df={fit.df}"
        )
    lines.append(
        f"residual sample: n={analysis.n}, mean={analysis.mean:.6f}, "
        f"variance={analysis.variance:.6f}"
    )
    p = analysis.p_values
    lines.append(
        f"two-sided p-values at alpha={analysis.alpha:g}: "
        f"W={p['W']:.4f} To2={p['To2']:.4f} TN2={p['TN2']:.4f}"
    )
    lines.append("histogram (20 equal-width bins):")
    edges = analysis.histogram_edges
    for i, count in enumerate(analysis.histogram_counts):
        lines.append(f"  [{edges[i]:+.4f}, {edges[i + 1]:+.4f}) {count}")
    if study:
        lines.append(f"resample power study (reps={args.reps}, seed={args.seed}):")
        for n_b, freqs in study:
            lines.append(
                f"  n_b={n_b}: W={freqs['W']:.3f} To2={freqs['To2']:.3f} "
                f"TN2={freqs['TN2']:.3f}"
            )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args):
    fit = None
    if args.zcol is not None:
        y, z = load_xy_csv(args.csv, args.ycol, args.zcol, log_transform=args.log)
        fit = ols_fit(y, z)
        eps = residuals(fit, y, z)
    else:
        # Single-column mode: the named column already holds residuals.
        y, _ = load_xy_csv(args.csv, args.ycol, args.ycol, log_transform=args.log)
        eps = y
    analysis = residual_median_analysis(eps, alpha=args.alpha)
    study = []
    if args.study:
        check_resample_sizes(args.study, eps.size)  # every size before the first study
        for n_b in args.study:
            freqs = resample_power_study(
                eps, n_b, reps=args.reps, alpha=args.alpha, seed=args.seed
            )
            study.append((n_b, freqs))
    return _analysis_lines(fit, analysis, study, args), 0


def _cmd_fixture(args):
    sample = make_fixture(args.n, args.seed)
    return _csv(["residual"], ([f"{v:.12g}"] for v in np.asarray(sample))), 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ancitest",
        description="Power studies, finite-model test certification, and the "
        "residual median analysis pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("designs", help="list registered sampling designs")
    p.set_defaults(func=_cmd_designs)

    p = sub.add_parser("tables", help="reproduce a power table")
    p.add_argument("--table", required=True, choices=["1", "2", "3"])
    p.add_argument("--reps", type=_positive_int, default=55000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--alpha", type=_alpha_value, default=0.05)
    p.add_argument("--moment-variant", choices=["quartic", "quadratic"], default="quartic")
    p.add_argument("--bootstrap-b", type=_positive_int, default=1000)
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--threads", type=_positive_int, default=_available_cpus())
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("toy", help="closed-form toy power curves")
    p.add_argument("--figure", required=True, choices=["1a", "1b"])
    p.add_argument("--alpha", type=_alpha_value, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("verify", help="certify the finite-model test propositions")
    p.add_argument("--seed", type=_non_negative_int, default=20260815)
    p.add_argument("--models", type=_positive_int, default=100)
    p.add_argument("--pairs", type=_positive_int, default=1000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="regression residual median analysis")
    p.add_argument("--csv", required=True)
    p.add_argument("--ycol", required=True)
    p.add_argument("--zcol", default=None,
                   help="regressor column; omit when --ycol already holds residuals")
    p.add_argument("--log", action="store_true")
    p.add_argument("--alpha", type=_alpha_value, default=0.05)
    p.add_argument("--study", type=_nb_list, default=None, metavar="nb=70,80,90")
    p.add_argument("--reps", type=_positive_int, default=10000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fixture", help="write the synthetic residual fixture")
    p.add_argument("--n", type=_positive_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        text, code = args.func(args)
        _emit(args, text, time.perf_counter() - started)
        return code
    except Exception as exc:  # argparse handles usage errors with exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
