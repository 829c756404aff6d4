"""Benchmark entry point: one workload (or all four) of the ancitest library.

    python3 perfbench/run.py --workload table3-paper --seed 1 --seconds 20 --trace 0

For each workload it times set-up (a fresh interpreter importing
``ancitest.cli``) several times, then starts ``worker.py`` in a fresh
process that runs the workload.  It prints each metric by name and unit,
writes a self-describing result file (machine, versions, commit, seed) to
``--out``, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json under ``--trace 0`` and its per-layer metrics
under ``--trace 1``.

Only the standard library is used here, so the harness measures the
library without depending on anything the library does not already need.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Every run must end within this many seconds; subprocesses get what is left.
RUN_DEADLINE_S = 170.0
# Import probes per run: fresh imports timed after the worker has run (its
# own import fills the file cache and writes bytecode), and as many
# -X importtime breakdowns in a traced run.
PROBES = {"paper": 3, "tiny": 1}
# The probe reports the imported package's path as soon as the import is done.
IMPORT_PROBE = (
    "import sys, ancitest.cli; sys.stdout.write(ancitest.__file__ + '\\n'); sys.stdout.flush()"
)


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One thread everywhere: the workloads pass threads=1, and numerical
    # libraries must not start thread pools of their own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run deadline exceeded")
    return left


def communicate(proc, deadline):
    """Wait for ``proc`` to end within the deadline.

    On a timeout, or anything else that stops the wait, the process is
    killed and reaped before the error goes on.
    """
    try:
        return proc.communicate(timeout=remaining(deadline))
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, (subprocess.TimeoutExpired, BenchError)):
            raise BenchError(f"{proc.args[:3]} did not finish in time") from None
        raise


def time_import(env, deadline, extra=()):
    """Seconds from starting an interpreter to ``import ancitest.cli`` done.

    Returns (seconds, stderr text).  The probe must import the library
    from this checkout's ``src/``.
    """
    # stderr goes to a file: -X importtime writes more than a pipe holds
    # before the probe reports on stdout.
    with tempfile.TemporaryFile() as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *extra, "-c", IMPORT_PROBE],
            stdout=subprocess.PIPE, stderr=err_file, env=env, cwd=ROOT,
        )
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        communicate(proc, deadline)
        err_file.seek(0)
        err = err_file.read().decode("utf-8", "replace")
    if proc.returncode != 0 or not first.strip():
        raise BenchError(f"import probe failed:\n{err}")
    library = Path(first.decode().strip()).resolve()
    if ROOT / "src" not in library.parents:
        raise BenchError(f"import probe loaded ancitest from {library}, not this checkout")
    return elapsed, err


def importtime_seconds(stderr, module):
    """Cumulative import time of ``module`` from ``-X importtime`` output, 0 if absent."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_info():
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [read_text(index / name) for name in ("level", "type", "size")]
        if None not in fields:
            caches.append("L{} {} {}".format(*(f.strip() for f in fields)))
    loadavg = read_text("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "loadavg_at_start": loadavg.split()[:3] if loadavg else None,
        "platform": platform.platform(),
    }


def versions():
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def source_identity():
    """Git commit and dirty flag when the checkout is a repository, plus a
    digest of ``src/`` that identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    ident = {"git_commit": None, "git_dirty": None, "src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return ident
        if head.returncode == 0 and status.returncode == 0:
            ident["git_commit"] = head.stdout.strip()
            ident["git_dirty"] = bool(status.stdout.strip())
    return ident


def run_worker(workload, args, env, workdir, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out, _ = communicate(proc, deadline)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"worker for {workload} printed no result") from None


def run_workload(workload, args, spec):
    """Measure one workload; returns the result record."""
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    machine = machine_info()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()

    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        worker = run_worker(workload, args, env, workdir, deadline)
    setup = [time_import(env, deadline)[0] for _ in range(PROBES[args.size])]
    setup_s = statistics.median(setup)

    if args.trace:
        # Each -X importtime probe splits its own set-up time: numpy,
        # scipy.stats, and the rest (interpreter start and ancitest itself).
        parts = []
        for _ in range(PROBES[args.size]):
            elapsed, err = time_import(env, deadline, ("-X", "importtime"))
            numpy_s = importtime_seconds(err, "numpy")
            scipy_s = importtime_seconds(err, "scipy.stats")
            parts.append((numpy_s, scipy_s, elapsed - numpy_s - scipy_s))
        values = dict(worker["layers"])
        for i, name in enumerate(("import.numpy_s", "import.scipy_stats_s", "import.ancitest_s")):
            values[name] = statistics.median(p[i] for p in parts)
        names = spec["per_layer"]
    else:
        iterations = worker["iterations"]
        values = {
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
            "setup_s": setup_s,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "started_at": started_at,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "fail_ratio": worker["failed"] / worker["attempted"],
        "metrics": metrics,
        "setup_samples_s": setup,
        "output_sha256": worker["output_sha256"],
        "machine": machine,
        "versions": versions(),
        "source": source_identity(),
    }
    if args.trace:
        record["self_times"] = spans.self_times(worker["spans"])
        record["spans"] = worker["spans"]
    else:
        record["iterations"] = worker["iterations"]
    name = f"{workload}_seed{args.seed}_trace{args.trace}_{started_at[:19].replace(':', '')}"
    with open(args.out / f"{name}_{os.getpid()}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def print_record(record):
    runs = len(record.get("iterations", [])) or 2
    print(f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"repetitions={runs}  attempted={record['attempted']}  failed={record['failed']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<38} {record['fail_ratio']:>14.6g} ratio")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="Run the ancitest benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(PROBES), default="paper",
                        help="'tiny' shrinks every workload for the benchmark's own tests")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result files (default: perfbench/out)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if not (ROOT / "src" / "ancitest" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'ancitest'}", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    records = []
    try:
        for workload in workloads:
            records.append(run_workload(workload, args, spec))
            print_record(records[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
