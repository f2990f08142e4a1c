"""Gradient compressors: sparsifiers, stochastic quantizers, and compositions.

A compressor is a (possibly randomized) map on R^d applied to a vector before
it is communicated. Contraction compressors guarantee
``E||x - Q(x)||^2 <= (1 - delta) ||x||^2`` for some ``delta`` in (0, 1];
unbiased compressors guarantee ``E[Q(x)] = x`` with second moment at most
``(omega + 1) ||x||^2``. Scaling an unbiased compressor by ``1/(omega + 1)``
turns it into a contraction compressor, and an unbiased compressor can be
chained after top-k (restricted to the kept coordinates) to compress both the
support and the values. Every spec ``parse_spec`` returns is a contraction.

Bit costs are analytic accounting numbers for the simulator, not actual wire
encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

IDENTITY = "identity"
TOP_K = "top_k"
RAND_K = "rand_k"
DITHERING = "dithering"
NATURAL = "natural"
SCALED = "scaled"
COMPOSE = "compose"

_UNBIASED_KINDS = frozenset({DITHERING, NATURAL})
_K_KINDS = frozenset({TOP_K, RAND_K})


@dataclass(frozen=True)
class CompressorSpec:
    """Declarative description of a compressor.

    ``k`` is the coordinate budget of top-k / rand-k kinds. ``inner`` holds
    the unbiased compressor of a scaled spec; ``unbiased``/``contraction``
    hold the two operands of a composition, where the top-k contraction runs
    first.
    """

    kind: str
    k: Optional[int] = None
    inner: Optional["CompressorSpec"] = None
    unbiased: Optional["CompressorSpec"] = None
    contraction: Optional["CompressorSpec"] = None

    def __post_init__(self) -> None:
        if self.kind in _K_KINDS:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind} needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"{self.kind} takes no k")
        if self.kind == SCALED:
            if self.inner is None or not is_unbiased_kind(self.inner):
                raise ValueError("scaled spec needs an unbiased inner compressor")
        elif self.inner is not None:
            raise ValueError(f"{self.kind} takes no inner compressor")
        if self.kind == COMPOSE:
            if self.unbiased is None or not is_unbiased_kind(self.unbiased):
                raise ValueError("compose needs an unbiased operand")
            kind = getattr(self.contraction, "kind", None)
            if kind != TOP_K:
                raise ValueError(f"compose needs a top_k contraction, got {kind}")
        elif self.unbiased is not None or self.contraction is not None:
            raise ValueError(f"{self.kind} takes no composition operands")


def identity() -> CompressorSpec:
    return CompressorSpec(IDENTITY)


def top_k(k: int) -> CompressorSpec:
    return CompressorSpec(TOP_K, k=k)


def rand_k(k: int) -> CompressorSpec:
    return CompressorSpec(RAND_K, k=k)


def dithering() -> CompressorSpec:
    """Stochastic rounding to sqrt(dim) levels against the l2 norm."""
    return CompressorSpec(DITHERING)


def natural() -> CompressorSpec:
    """Stochastic rounding of each magnitude to a neighboring power of two."""
    return CompressorSpec(NATURAL)


def scaled(inner: CompressorSpec) -> CompressorSpec:
    """Unbiased compressor scaled by 1/(omega + 1), yielding a contraction."""
    return CompressorSpec(SCALED, inner=inner)


def compose(unbiased: CompressorSpec, contraction: CompressorSpec) -> CompressorSpec:
    """Top-k first, then the scaled unbiased compressor on its support."""
    return CompressorSpec(COMPOSE, unbiased=unbiased, contraction=contraction)


def ntop_k(k: int) -> CompressorSpec:
    return compose(natural(), top_k(k))


def rtop_k(k: int) -> CompressorSpec:
    return compose(dithering(), top_k(k))


def is_unbiased_kind(spec: CompressorSpec) -> bool:
    return spec.kind in _UNBIASED_KINDS


def is_deterministic(spec: CompressorSpec) -> bool:
    return spec.kind in (IDENTITY, TOP_K)


def parse_spec(text: str) -> CompressorSpec:
    """Parse a config string such as ``top_k:1``, ``dither`` or ``ntop_k:5``."""
    name, _, arg = text.strip().partition(":")
    name = name.lower()
    if name in ("identity", "none"):
        return identity()
    if name in ("dither", "dithering"):
        return scaled(dithering())
    if name == "natural":
        return scaled(natural())
    if name in ("top_k", "rand_k", "ntop_k", "rtop_k"):
        if not arg.isdecimal():
            raise ValueError(f"compressor {name!r} needs a coordinate count, e.g. {name}:1; got {text!r}")
        k = int(arg)
        maker = {"top_k": top_k, "rand_k": rand_k, "ntop_k": ntop_k, "rtop_k": rtop_k}[name]
        return maker(k)
    raise ValueError(f"unknown compressor spec {text!r}")


def format_spec(spec: CompressorSpec) -> str:
    """Inverse of parse_spec; the raw unbiased kinds get a ``_raw`` name."""
    if spec.kind == IDENTITY:
        return "identity"
    if spec.kind in _K_KINDS:
        return f"{spec.kind}:{spec.k}"
    if spec.kind == DITHERING:
        return "dither_raw"
    if spec.kind == NATURAL:
        return "natural_raw"
    if spec.kind == SCALED:
        return "dither" if spec.inner.kind == DITHERING else "natural"
    if spec.kind == COMPOSE:
        name = "rtop_k" if spec.unbiased.kind == DITHERING else "ntop_k"
        return f"{name}:{spec.contraction.k}"
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def validate_for_dimension(spec: CompressorSpec, d: int) -> None:
    """Raise if the spec cannot be applied to vectors of length d."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if spec.kind in _K_KINDS and spec.k > d:
        raise ValueError(f"{spec.kind} keeps k={spec.k} coordinates but d={d}")
    if spec.kind == SCALED:
        validate_for_dimension(spec.inner, d)
    if spec.kind == COMPOSE:
        validate_for_dimension(spec.contraction, d)


def transmitted_coords(spec: CompressorSpec, d: int) -> int:
    """Number of coordinate slots the compressor transmits per vector."""
    if spec.kind in _K_KINDS:
        return spec.k
    if spec.kind == COMPOSE:
        return spec.contraction.k
    return d


def omega_of(spec: CompressorSpec, dim: int) -> float:
    """Variance parameter of an unbiased compressor applied to ``dim`` coords.

    Dithering at ``sqrt(dim)`` levels has omega = 1.
    """
    if spec.kind == DITHERING:
        return 1.0
    if spec.kind == NATURAL:
        return 0.125
    raise ValueError(f"{spec.kind} is not an unbiased compressor")


def delta_of(spec: CompressorSpec, d: int) -> float:
    """Contraction parameter of the spec on R^d."""
    validate_for_dimension(spec, d)
    if spec.kind == IDENTITY:
        return 1.0
    if spec.kind in (TOP_K, RAND_K):
        return spec.k / d
    if spec.kind == SCALED:
        return 1.0 / (omega_of(spec.inner, d) + 1.0)
    if spec.kind == COMPOSE:
        k = spec.contraction.k
        return delta_of(spec.contraction, d) / (omega_of(spec.unbiased, k) + 1.0)
    raise ValueError(f"{spec.kind} is not a contraction compressor")


def bit_cost(spec: CompressorSpec, d: int) -> float:
    """Accounted bits for transmitting one compressed vector from R^d."""
    validate_for_dimension(spec, d)
    index_bits = math.ceil(math.log2(d)) if d > 1 else 0
    if spec.kind == IDENTITY:
        return 64.0 * d
    if spec.kind in _K_KINDS:
        return (64.0 + index_bits) * spec.k
    if spec.kind == DITHERING:
        return 2.8 * d + 64.0
    if spec.kind == NATURAL:
        return 12.0 * d
    if spec.kind == SCALED:
        return bit_cost(spec.inner, d)
    if spec.kind == COMPOSE:
        kept = spec.contraction.k
        cost = bit_cost(spec.unbiased, kept)
        if kept < d:
            cost += kept * index_bits
        return cost
    raise ValueError(f"unknown spec kind {spec.kind!r}")


Rngs = Union[np.random.Generator, Sequence[np.random.Generator]]


def _apply(spec: CompressorSpec, x: np.ndarray, rngs: Rngs) -> np.ndarray:
    """Compress each row of a (rows, d) batch; row r draws from ``rngs[r]``.

    ``rngs`` is one generator per row, or a single generator shared by all
    rows, which gives the same numbers as passing it once per row. Top-k
    keeps the lowest-index coordinate among equal magnitudes, so it is
    deterministic and reproducible.
    """
    if x.ndim != 2:
        raise ValueError(f"expected a (rows, d) batch, got shape {x.shape}")
    rows, d = x.shape
    if spec.kind == IDENTITY:
        return x.copy()
    if spec.kind in _K_KINDS:
        return np.where(_kept(spec, x, rngs), x, 0.0)
    if spec.kind == DITHERING:
        return _dither_rows(x, rngs)
    if spec.kind == NATURAL:
        return _natural_rows(x, rngs)
    if spec.kind == SCALED:
        return _apply(spec.inner, x, rngs) / (omega_of(spec.inner, d) + 1.0)
    if spec.kind == COMPOSE:
        # Boolean indexing walks the mask row by row in index order, so the
        # unbiased stage sees each row's kept coordinates in ascending order.
        keep = _kept(spec.contraction, x, rngs)
        k = spec.contraction.k
        fine = _apply(spec.unbiased, x[keep].reshape(rows, k), rngs)
        fine /= omega_of(spec.unbiased, k) + 1.0
        out = np.zeros_like(x)
        out[keep] = fine.ravel()
        return out
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def _kept(spec: CompressorSpec, x: np.ndarray, rngs: Rngs) -> np.ndarray:
    """The (rows, d) boolean mask of the coordinates a sparsifier keeps.

    Each row keeps the k coordinates of largest score: the magnitude for
    top-k, minus a uniform draw for rand-k. A tie at the threshold goes to
    the lowest index. Rows must be finite. The transmitted support includes
    kept-but-zero coordinates, so it cannot be recovered from the output
    alone.
    """
    rows, d = x.shape
    score = np.abs(x) if spec.kind == TOP_K else -_uniform(rngs, rows, d)
    k = spec.k
    kth = np.partition(score, d - k, axis=1)[:, d - k, None]
    keep = score >= kth
    crowded = keep.sum(axis=1) > k  # more ties at the threshold than free slots
    if crowded.any():
        s, t = score[crowded], kth[crowded]
        above = s > t
        tie = s == t
        free = k - above.sum(axis=1, keepdims=True)
        keep[crowded] = above | (tie & (np.cumsum(tie, axis=1) <= free))
    return keep


def _uniform(rngs: Rngs, rows: int, d: int) -> np.ndarray:
    """A (rows, d) block of uniforms, row r drawn from its own generator."""
    if isinstance(rngs, np.random.Generator):
        return rngs.random((rows, d))
    if len(rngs) != rows:
        raise ValueError(f"need one generator per row: {rows} rows, {len(rngs)} generators")
    u = np.empty((rows, d))
    for row, g in zip(u, rngs):
        g.random(out=row)
    return u


def _dither_rows(x: np.ndarray, rngs: Rngs) -> np.ndarray:
    rows, d = x.shape
    levels = math.sqrt(d)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    scaled_mag = np.abs(x) / safe * levels
    low = np.floor(scaled_mag)
    level = low + (_uniform(rngs, rows, d) < scaled_mag - low)
    out = np.sign(x) * safe * level / levels
    return np.where(norms > 0, out, 0.0)


def _natural_rows(x: np.ndarray, rngs: Rngs) -> np.ndarray:
    mag = np.abs(x)
    mant, exp = np.frexp(mag)  # mag = mant * 2**exp with mant in [0.5, 1)
    round_up = _uniform(rngs, *x.shape) < 2.0 * mant - 1.0
    chosen = np.ldexp(np.where(round_up, 1.0, 0.5), exp)
    return np.where(mag > 0, np.sign(x) * chosen, 0.0)


_CHUNK_ROWS = 20_000


@dataclass
class ContractionReport:
    """Monte-Carlo estimate of E||x - Q(x)||^2 / ||x||^2 on Gaussian inputs."""

    spec: str
    d: int
    trials: int
    mean_ratio: float
    std_error: float
    max_ratio: float
    allowed: float  # 1 - delta
    deterministic: bool
    passed: bool


def verify_contraction(
    spec: CompressorSpec, d: int, trials: int, rng: np.random.Generator
) -> ContractionReport:
    """Check the contraction inequality empirically on standard-normal vectors."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    validate_for_dimension(spec, d)
    count = 0
    total = 0.0
    total_sq = 0.0
    max_ratio = 0.0
    while count < trials:
        rows = min(_CHUNK_ROWS, trials - count)
        x = rng.standard_normal((rows, d))
        y = _apply(spec, x, rng)
        ratios = np.sum((x - y) ** 2, axis=1) / np.sum(x**2, axis=1)
        total += ratios.sum()
        total_sq += (ratios**2).sum()
        max_ratio = max(max_ratio, float(ratios.max()))
        count += rows
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    se = math.sqrt(var / trials)
    allowed = 1.0 - delta_of(spec, d)
    deterministic = is_deterministic(spec)
    if deterministic:
        passed = max_ratio <= allowed + 1e-12
    else:
        passed = mean <= allowed + 3.0 * se + 1e-12
    return ContractionReport(
        spec=format_spec(spec),
        d=d,
        trials=trials,
        mean_ratio=mean,
        std_error=se,
        max_ratio=max_ratio,
        allowed=allowed,
        deterministic=deterministic,
        passed=passed,
    )


@dataclass
class MeanScalingReport:
    """Deviation of the empirical mean of Q(x) from its expected scaling of x."""

    spec: str
    d: int
    trials: int
    factor: float  # E[Q(x)] should equal factor * x
    max_abs_deviation: float
    deviation: np.ndarray = field(repr=False)
    std_error: np.ndarray = field(repr=False)
    passed: bool = False


def mean_scaling_factor(spec: CompressorSpec, d: int) -> float:
    """The factor c with E[Q(x)] = c x, for compressors that have one."""
    validate_for_dimension(spec, d)
    if spec.kind == IDENTITY:
        return 1.0
    if spec.kind == RAND_K:
        return spec.k / d
    if spec.kind == SCALED:
        return 1.0 / (omega_of(spec.inner, d) + 1.0)
    raise ValueError(f"{format_spec(spec)} does not scale the mean of its input")


def verify_mean_scaling(
    spec: CompressorSpec,
    d: int,
    trials: int,
    rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> MeanScalingReport:
    """Check E[Q(x)] = factor * x by Monte Carlo on one fixed vector."""
    factor = mean_scaling_factor(spec, d)
    if x is None:
        x = rng.standard_normal(d)
    x = np.asarray(x, dtype=np.float64)
    mean, se = _moment_stats(spec, x, trials, rng)
    deviation = mean - factor * x
    passed = bool(np.all(np.abs(deviation) <= 3.0 * se + 1e-12))
    return MeanScalingReport(
        spec=format_spec(spec),
        d=d,
        trials=trials,
        factor=factor,
        max_abs_deviation=float(np.max(np.abs(deviation))),
        deviation=deviation,
        std_error=se,
        passed=passed,
    )


@dataclass
class UnbiasednessReport:
    """Mean and second-moment checks for an unbiased compressor."""

    spec: str
    d: int
    trials: int
    omega: float
    max_mean_deviation: float
    mean_passed: bool
    second_moment: float
    second_moment_se: float
    second_moment_bound: float  # (omega + 1) ||x||^2
    second_moment_passed: bool
    passed: bool


def verify_unbiasedness(
    spec: CompressorSpec,
    d: int,
    trials: int,
    rng: np.random.Generator,
    x: Optional[np.ndarray] = None,
) -> UnbiasednessReport:
    if not is_unbiased_kind(spec):
        raise ValueError(f"{format_spec(spec)} is not an unbiased compressor")
    if x is None:
        x = rng.standard_normal(d)
    x = np.asarray(x, dtype=np.float64)
    omega = omega_of(spec, d)
    mean, se = _moment_stats(spec, x, trials, rng)
    deviation = mean - x
    mean_passed = bool(np.all(np.abs(deviation) <= 3.0 * se + 1e-12))

    count = 0
    total = 0.0
    total_sq = 0.0
    while count < trials:
        rows = min(_CHUNK_ROWS, trials - count)
        y = _apply(spec, np.broadcast_to(x, (rows, d)).copy(), rng)
        sq = np.sum(y**2, axis=1)
        total += sq.sum()
        total_sq += (sq**2).sum()
        count += rows
    second = total / trials
    var = max(total_sq / trials - second**2, 0.0)
    second_se = math.sqrt(var / trials)
    bound = (omega + 1.0) * float(np.dot(x, x))
    second_passed = second <= bound + 3.0 * second_se + 1e-12
    return UnbiasednessReport(
        spec=format_spec(spec),
        d=d,
        trials=trials,
        omega=omega,
        max_mean_deviation=float(np.max(np.abs(deviation))),
        mean_passed=mean_passed,
        second_moment=second,
        second_moment_se=second_se,
        second_moment_bound=bound,
        second_moment_passed=second_passed,
        passed=mean_passed and second_passed,
    )


def _moment_stats(
    spec: CompressorSpec, x: np.ndarray, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and standard error of Q(x) over repeated draws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = x.shape[0]
    count = 0
    total = np.zeros(d)
    total_sq = np.zeros(d)
    while count < trials:
        rows = min(_CHUNK_ROWS, trials - count)
        y = _apply(spec, np.broadcast_to(x, (rows, d)).copy(), rng)
        total += y.sum(axis=0)
        total_sq += (y**2).sum(axis=0)
        count += rows
    mean = total / trials
    var = np.maximum(total_sq / trials - mean**2, 0.0)
    se = np.sqrt(var / trials)
    return mean, se
