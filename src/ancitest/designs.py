"""Data-generating designs for the simulation studies, plus reproducible streams.

Every design used by the power studies is registered here together with its
exact population quantities (mean, variance, third/fourth central moments,
median, density at the median, mean absolute deviation about the median).
Samplers are deterministic given a RandomStream and use inverse-CDF or exact
transforms wherever the platform's normal generator is not involved.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import check_integers

__all__ = [
    "DesignId",
    "DesignParams",
    "RandomStream",
    "STREAM_LAYOUT",
    "UnknownDesignError",
    "design_params",
    "list_designs",
    "null_shift",
    "sample_design",
    "sample_design_matrix",
]

# Version of the stream layout: which draws every stream path feeds.  It is
# bumped by any change to the draws; the README lists what each version
# changed.  Version 3 decides a table-1 alternative's bootstrap test on its
# null's chunk path, from the null's resamples; version 4 lets the rows of
# each bootstrap row block share one index sequence; version 5 makes a row
# block 512 rows at every n.
STREAM_LAYOUT = 5

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)
_E = math.e
# Elements per block of laplace's second exponential (128 KB of doubles).
_SUBTRAHEND_ELEMS = 1 << 14


class UnknownDesignError(ValueError):
    """Raised when a (table, hypothesis, index) triple names no registered design."""


def _spawn_words(path):
    """Map a checked int/str path to a flat tuple of uint32 spawn-key words.

    Strings are hashed with sha256 so the mapping is stable across runs and
    platforms; built-in hash() is salted per process and must not be used here.
    """
    words = []
    for item in path:
        if isinstance(item, str):
            digest = hashlib.sha256(item.encode("utf-8")).digest()
            words.extend(
                (2, int.from_bytes(digest[:4], "big"), int.from_bytes(digest[4:8], "big"))
            )
        else:
            words.extend((1, item & 0xFFFFFFFF, (item >> 32) & 0xFFFFFFFF))
    return tuple(words)


@dataclass(frozen=True)
class RandomStream:
    """Value-like handle for a deterministic, independent random stream.

    Two streams with the same (root_seed, path) produce identical output;
    distinct paths give statistically independent output.  A path holds
    strings and non-negative integers, checked when the stream is made and
    stored as int.  Streams are cheap to create and safe to send across threads.
    """

    root_seed: int
    path: tuple = ()

    def __post_init__(self):
        ints = {f"path[{i}]": v for i, v in enumerate(self.path) if not isinstance(v, str)}
        check_integers(at_least=0, root_seed=self.root_seed, **ints)
        object.__setattr__(self, "root_seed", int(self.root_seed))
        object.__setattr__(self, "path", tuple(v if isinstance(v, str) else int(v)
                                               for v in self.path))

    def child(self, *more) -> "RandomStream":
        return RandomStream(self.root_seed, self.path + more)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.root_seed, spawn_key=_spawn_words(self.path))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class DesignParams:
    """Exact population quantities of a scalar design."""

    mean: float
    sigma: float
    mu3: float
    mu4: float
    median: float
    density_at_median: float
    mean_abs_dev_about_median: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.density_at_median > 0:
            raise ValueError("density at median must be positive")
        if not self.mean_abs_dev_about_median > 0:
            raise ValueError("mean absolute deviation must be positive")
        # Jensen: E(X-mu)^4 >= (E(X-mu)^2)^2.
        if self.mu4 < self.sigma**4 - 1e-12:
            raise ValueError("mu4 violates the fourth-moment lower bound")
        for v in (self.mean, self.mu3, self.mu4, self.median):
            if not math.isfinite(v):
                raise ValueError("all population quantities must be finite")
        # Mean absolute deviation cannot exceed the root mean square deviation.
        rms = math.sqrt(self.sigma**2 + (self.mean - self.median) ** 2)
        if self.mean_abs_dev_about_median > rms + 1e-12:
            raise ValueError("mean absolute deviation exceeds its RMS bound")


# ---------------------------------------------------------------------------
# Primitive samplers.  Each takes a target shape and a Generator and consumes
# the stream in a documented, fixed order; tests pin this order via snapshots.
# The samplers with an expression in their comment apply its ufuncs in place
# (out=), in the same order, so the result equals that expression bit for
# bit; the tests hold each sampler to its expression.


def _exp1(shape, gen):
    # -log1p(-u): inverse CDF with u in [0, 1), so the result is finite, >= 0.
    x = gen.random(shape)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    return np.negative(x, out=x)


def _std_normal(shape, gen):
    return gen.standard_normal(shape)


def _normal_sd2(shape, gen):
    # 2 z
    x = _std_normal(shape, gen)
    x *= 2.0
    return x


def _laplace(shape, gen):
    # exp1 - exp1: the difference of two independent unit exponentials.  The
    # second exp1 is drawn in blocks of _SUBTRAHEND_ELEMS along the first
    # axis; gen.random takes one 64-bit output per double, in order, so the
    # blocks hold the doubles one draw of the whole shape would.
    x = _exp1(shape, gen)
    step = max(1, _SUBTRAHEND_ELEMS // math.prod(shape[1:]))
    for lo in range(0, shape[0], step):
        block = x[lo:lo + step]
        block -= _exp1(block.shape, gen)
    return x


def _one_minus_exp(shape, gen):
    # 1 - exp1
    x = _exp1(shape, gen)
    return np.subtract(1.0, x, out=x)


def _exp_minus_one(shape, gen):
    # exp1 - 1
    x = _exp1(shape, gen)
    x -= 1.0
    return x


def _exphalf_minus_lognormal(shape, gen):
    # e^0.5 - exp(z)
    x = _std_normal(shape, gen)
    np.exp(x, out=x)
    return np.subtract(math.exp(0.5), x, out=x)


def _uniform_m1_1(shape, gen):
    # 2 u - 1
    x = gen.random(shape)
    x *= 2.0
    x -= 1.0
    return x


def _arcsine_centered(shape, gen):
    # sin(pi u / 2)^2 - 1/2: the inverse CDF of the arcsine law on [0, 1] is
    # F^{-1}(u) = sin^2(pi u / 2).
    x = gen.random(shape)
    x *= 0.5 * np.pi
    np.sin(x, out=x)
    np.square(x, out=x)
    x -= 0.5
    return x


# ---------------------------------------------------------------------------
# Population quantities.

# Each family's quantities at shift 0; _register adds an entry's shift to
# the mean and the median.

_NORMAL = DesignParams(
    mean=0.0,
    sigma=1.0,
    mu3=0.0,
    mu4=3.0,
    median=0.0,
    density_at_median=1.0 / _SQRT_2PI,
    mean_abs_dev_about_median=math.sqrt(2.0 / math.pi),
)

# X = 1 - E with E unit exponential: left tail long, median above mean.
_ONE_MINUS_EXP = DesignParams(
    mean=0.0,
    sigma=1.0,
    mu3=-2.0,
    mu4=9.0,
    median=1.0 - _LN2,
    density_at_median=0.5,
    mean_abs_dev_about_median=_LN2,
)

_EXP_MINUS_ONE = DesignParams(
    mean=0.0,
    sigma=1.0,
    mu3=2.0,
    mu4=9.0,
    median=_LN2 - 1.0,
    density_at_median=0.5,
    mean_abs_dev_about_median=_LN2,
)

_LAPLACE = DesignParams(
    mean=0.0,
    sigma=math.sqrt(2.0),
    mu3=0.0,
    mu4=24.0,
    median=0.0,
    density_at_median=0.5,
    mean_abs_dev_about_median=1.0,
)

_NORMAL_SD2 = DesignParams(
    mean=0.0,
    sigma=2.0,
    mu3=0.0,
    mu4=48.0,
    median=0.0,
    density_at_median=1.0 / (2.0 * _SQRT_2PI),
    mean_abs_dev_about_median=2.0 * math.sqrt(2.0 / math.pi),
)

# X = e^{1/2} - L with L lognormal(0, 1): E L^k = e^{k^2/2}.
_EXPHALF_MINUS_LOGNORMAL = DesignParams(
    mean=0.0,
    sigma=math.sqrt((_E - 1.0) * _E),
    mu3=-(math.exp(4.5) - 3.0 * math.exp(2.5) + 2.0 * math.exp(1.5)),
    mu4=math.exp(8.0) - 4.0 * math.exp(5.0) + 6.0 * math.exp(3.0) - 3.0 * math.exp(2.0),
    median=math.exp(0.5) - 1.0,
    # Density of e^{1/2} - L at its median equals the lognormal density at 1.
    density_at_median=1.0 / _SQRT_2PI,
    # E|L - 1| = e^{1/2} (2 Phi(1) - 1) = e^{1/2} erf(1/sqrt(2)).
    mean_abs_dev_about_median=math.exp(0.5) * math.erf(1.0 / math.sqrt(2.0)),
)

_UNIFORM = DesignParams(
    mean=0.0,
    sigma=math.sqrt(1.0 / 3.0),
    mu3=0.0,
    mu4=0.2,
    median=0.0,
    density_at_median=0.5,
    mean_abs_dev_about_median=0.5,
)

_ARCSINE = DesignParams(
    mean=0.0,
    sigma=math.sqrt(0.125),
    mu3=0.0,
    mu4=3.0 / 128.0,
    median=0.0,
    density_at_median=2.0 / math.pi,
    mean_abs_dev_about_median=1.0 / math.pi,
)


# ---------------------------------------------------------------------------
# Registry.  Keys are (table, hypothesis, index); entries carry the base
# sampler of the index-m family, an additive location shift, the description,
# and the population quantities.  For a given table and index the two
# hypotheses share the base sampler whenever the alternative is a pure shift,
# which makes the shift structure exact under a common stream.


@dataclass(frozen=True)
class _Entry:
    base: object  # callable(shape, gen) -> ndarray
    shift: float
    description: str
    params: DesignParams | None
    vector_dim: int = 0  # nonzero only for the fixed-dimension toy designs


def _toy_obs(mu, sds):
    scale = np.array(sds)

    def sample(shape, gen):
        return mu + gen.standard_normal(shape) * scale

    return sample


_REGISTRY: dict = {}


def _register(table, hyp, index, base, shift, description, params, vector_dim=0):
    if shift:
        params = replace(params, mean=params.mean + shift, median=params.median + shift)
    _REGISTRY[(table, hyp, index)] = _Entry(base, shift, description, params, vector_dim)


def _build_registry():
    # Location-shift tables: the alternative adds the stated shift to the
    # same base draw, so hypothesis pairs share base samplers.
    for k in (0, 1):
        s = 0.1 * k
        _register("1", k, 1, _std_normal, s, f"normal, mean {s:g}, sd 1", _NORMAL)
        _register(
            "1", k, 2, _one_minus_exp, s,
            f"1 - standard exponential{' + 0.1' if k else ''} (left skewed)",
            _ONE_MINUS_EXP,
        )
        _register(
            "1", k, 3, _exp_minus_one, s,
            f"standard exponential - 1{' + 0.1' if k else ''} (right skewed)",
            _EXP_MINUS_ONE,
        )
        # (weibull(1, 2) - 2)/2 is (2e - 2)/2 = e - 1 for a unit exponential
        # e, bit for bit: scaling by 2 is exact and commutes with rounding.
        s4 = 0.2 * k
        _register(
            "1", k, 4, _exp_minus_one, s4,
            f"(weibull(shape 1, scale 2) - 2)/2{' + 0.2' if k else ''}",
            _EXP_MINUS_ONE,
        )

    # Median-test table: the alternatives are not shifts of their nulls.
    _register("2", 0, 1, _laplace, 0.0,
              "difference of two unit exponentials (laplace)", _LAPLACE)
    _register("2", 1, 1, _one_minus_exp, 0.0,
              "1 - standard exponential (zero mean, positive median)",
              _ONE_MINUS_EXP)
    _register("2", 0, 2, _normal_sd2, 0.0,
              "normal, mean 0, sd 2", _NORMAL_SD2)
    _register("2", 1, 2, _exphalf_minus_lognormal, 0.0,
              "exp(1/2) - lognormal(0, 1) (zero mean, positive median)",
              _EXPHALF_MINUS_LOGNORMAL)

    # Symmetric-location table.
    for k in (0, 1):
        s = 0.1 * k
        _register("3", k, 1, _std_normal, s, f"normal, mean {s:g}, sd 1", _NORMAL)
        _register("3", k, 2, _laplace, s,
                  f"laplace{' + 0.1' if k else ''}", _LAPLACE)
        _register("3", k, 3, _uniform_m1_1, s,
                  f"uniform on (-1, 1){' + 0.1' if k else ''}", _UNIFORM)
        _register("3", k, 4, _arcsine_centered, s,
                  f"arcsine on (0, 1) centered{' + 0.1' if k else ''}", _ARCSINE)

    # Toy heteroscedastic designs: fixed-dimension observation vectors used by
    # the closed-form power curves; draws return one vector per replication.
    for k, mu in ((0, 0.0), (1, 5.0)):
        _register("toy", k, 1, _toy_obs(mu, (1.0, 4.0)), 0.0,
                  f"two independent normals, common mean {mu:g}, sds (1, 4)",
                  None, vector_dim=2)
        _register("toy", k, 2, _toy_obs(mu, (1.0, 4.0, 3.0)), 0.0,
                  f"three independent normals, common mean {mu:g}, sds (1, 4, 3)",
                  None, vector_dim=3)


_build_registry()


@dataclass(frozen=True)
class DesignId:
    """Name of a registered design: (table, hypothesis, index)."""

    table: str
    hypothesis: int
    index: int

    def __post_init__(self):
        # A bool or a non-integer would pass the registry lookup (True == 1)
        # and fail later as a stream path element.
        for field in ("hypothesis", "index"):
            value = getattr(self, field)
            check_integers(**{f"DesignId {field}": value})
            object.__setattr__(self, field, int(value))
        key = (str(self.table), self.hypothesis, self.index)
        if key not in _REGISTRY:
            raise UnknownDesignError(f"no such design: {key}")
        object.__setattr__(self, "table", str(self.table))

    @property
    def label(self) -> str:
        return f"D_{self.hypothesis}{self.index}"

    def __str__(self):
        prefix = "toy" if self.table == "toy" else f"table {self.table}"
        return f"{prefix} {self.label}"


def _entry(design: DesignId) -> _Entry:
    return _REGISTRY[(design.table, design.hypothesis, design.index)]


def list_designs():
    """All registered designs with descriptions, in stable table/row order.

    Returns a list of (DesignId, description) pairs.  Within a table the
    order is index-major with the null listed before the alternative, which
    matches the row order of the reported tables.
    """
    out = []
    for table in ("1", "2", "3", "toy"):
        indices = sorted({key[2] for key in _REGISTRY if key[0] == table})
        for index in indices:
            for hyp in (0, 1):
                did = DesignId(table, hyp, index)
                out.append((did, _entry(did).description))
    return out


def design_params(design: DesignId) -> DesignParams:
    """Exact population quantities for a scalar design.

    The toy designs are observation vectors with per-coordinate scales; they
    have no single scalar parameter set and raise ValueError here.
    """
    entry = _entry(design)
    if entry.params is None:
        raise ValueError(
            f"{design} is a fixed-dimension observation vector; "
            "its power curves are closed form and use no scalar parameters"
        )
    return entry.params


def null_shift(design: DesignId) -> float:
    """The shift s with sample_design_matrix(design, ...) equal to
    sample_design_matrix(null, ...) + s bit for bit on any stream, where null
    is the design's hypothesis-0 pair member (0.0 for the null itself).

    Raises ValueError when the design is not such a shift of its null.
    """
    entry, null = _entry(design), _entry(DesignId(design.table, 0, design.index))
    if entry.base is not null.base or null.shift:
        raise ValueError(f"{design} is not a location shift of its null design")
    return entry.shift


def sample_design_matrix(design: DesignId, rows: int, n: int, stream: RandomStream):
    """Draw a (rows, n) matrix of independent samples, one replication per row.

    The whole matrix is produced by vectorized primitive draws in a fixed
    order, so the result depends only on (design, rows, n, stream).
    """
    check_integers(at_least=1, rows=rows)
    entry = _entry(design)
    if entry.vector_dim:
        raise ValueError(f"{design} draws observation vectors; use sample_design")
    check_integers(at_least=2, n=n)
    gen = stream.generator()
    x = entry.base((rows, n), gen)
    if entry.shift:
        x += entry.shift
    return x


def sample_design(design: DesignId, n: int, stream: RandomStream):
    """Draw n independent observations from the named design.

    For scalar designs the result is a length-n vector.  For the toy designs
    each draw is an observation vector, and the result has shape (n, dim).
    """
    entry = _entry(design)
    if not entry.vector_dim:
        return sample_design_matrix(design, 1, n, stream)[0]
    check_integers(at_least=1, n=n)
    return entry.base((n, entry.vector_dim), stream.generator())
