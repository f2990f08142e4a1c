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
from typing import Optional, Union

import numpy as np

from .rng import NodeDraws

IDENTITY = "identity"
TOP_K = "top_k"
RAND_K = "rand_k"
DITHERING = "dithering"
NATURAL = "natural"
SCALED = "scaled"
COMPOSE = "compose"

_KINDS = frozenset({IDENTITY, TOP_K, RAND_K, DITHERING, NATURAL, SCALED, COMPOSE})
_UNBIASED_KINDS = frozenset({DITHERING, NATURAL})
_K_KINDS = frozenset({TOP_K, RAND_K, COMPOSE})  # the kinds that keep k coordinates


@dataclass(frozen=True)
class CompressorSpec:
    """Declarative description of a compressor.

    ``k`` is the coordinate budget of the sparsifying kinds: top-k, rand-k
    and a composition, whose first stage is top-k. ``inner`` holds the
    unbiased compressor that a scaled spec scales, and that a composition
    applies, scaled, to the coordinates its top-k stage keeps.
    """

    kind: str
    k: Optional[int] = None
    inner: Optional["CompressorSpec"] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown compressor kind {self.kind!r}")
        if self.kind in _K_KINDS:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind} needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"{self.kind} takes no k")
        if self.kind in (SCALED, COMPOSE):
            if self.inner is None or not is_unbiased_kind(self.inner):
                raise ValueError(f"{self.kind} spec needs an unbiased inner compressor")
        elif self.inner is not None:
            raise ValueError(f"{self.kind} takes no inner compressor")


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


def compose(inner: CompressorSpec, k: int) -> CompressorSpec:
    """Top-k first, then the unbiased ``inner``, scaled, on the k kept coordinates."""
    return CompressorSpec(COMPOSE, k=k, inner=inner)


def ntop_k(k: int) -> CompressorSpec:
    return compose(natural(), k)


def rtop_k(k: int) -> CompressorSpec:
    return compose(dithering(), k)


def is_unbiased_kind(spec: CompressorSpec) -> bool:
    return spec.kind in _UNBIASED_KINDS


def is_deterministic(spec: CompressorSpec) -> bool:
    return spec.kind in (IDENTITY, TOP_K)


def copies_kept(spec: CompressorSpec) -> bool:
    """Whether the spec outputs its kept coordinates verbatim, unquantized."""
    return spec.kind in (IDENTITY, TOP_K, RAND_K)


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
    if spec.kind in (TOP_K, RAND_K):
        return f"{spec.kind}:{spec.k}"
    if spec.kind == DITHERING:
        return "dither_raw"
    if spec.kind == NATURAL:
        return "natural_raw"
    if spec.kind == SCALED:
        return "dither" if spec.inner.kind == DITHERING else "natural"
    name = "rtop_k" if spec.inner.kind == DITHERING else "ntop_k"  # COMPOSE
    return f"{name}:{spec.k}"


def validate_for_dimension(spec: CompressorSpec, d: int) -> None:
    """Raise if the spec cannot be applied to vectors of length d."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if spec.kind in _K_KINDS and spec.k > d:
        stage = TOP_K if spec.kind == COMPOSE else spec.kind
        raise ValueError(f"{stage} keeps k={spec.k} coordinates but d={d}")


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
        return spec.k / d / (omega_of(spec.inner, spec.k) + 1.0)
    raise ValueError(f"{spec.kind} is not a contraction compressor")


def bit_cost(spec: CompressorSpec, d: int) -> float:
    """Accounted bits for transmitting one compressed vector from R^d."""
    validate_for_dimension(spec, d)
    index_bits = math.ceil(math.log2(d)) if d > 1 else 0
    if spec.kind == IDENTITY:
        return 64.0 * d
    if spec.kind in (TOP_K, RAND_K):
        return (64.0 + index_bits) * spec.k
    if spec.kind == DITHERING:
        return 2.8 * d + 64.0
    if spec.kind == NATURAL:
        return 12.0 * d
    if spec.kind == SCALED:
        return bit_cost(spec.inner, d)
    cost = bit_cost(spec.inner, spec.k)  # COMPOSE
    if spec.k < d:
        cost += spec.k * index_bits
    return cost


Rngs = Union[np.random.Generator, NodeDraws]


def _apply(spec: CompressorSpec, x: np.ndarray, rngs: Rngs) -> np.ndarray:
    """The dense (rows, d) output of ``_compress``; see there."""
    return _dense(*_compress(spec, x, rngs), x.shape)


def _dense(kept: Optional[np.ndarray], values: np.ndarray, shape: tuple) -> np.ndarray:
    """The dense output of a ``_compress`` result: ``values`` at ``kept``, +0 elsewhere."""
    if kept is None:
        return values
    out = np.zeros(shape, dtype=values.dtype)
    np.put(out, kept, values)
    return out


def _compress(
    spec: CompressorSpec,
    x: np.ndarray,
    rngs: Rngs,
    magnitude: Optional[np.ndarray] = None,
    pool: Optional["TopKPool"] = None,
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Compress each row of a (rows, d) batch; return ``(kept, values)``.

    A sparsifier (top-k, rand-k and their compositions) gives in ``kept`` the
    flat positions of the coordinates it keeps, row by row in index order, k
    to a row, and in ``values`` its output there; its output is +0 at every
    other coordinate. Any other kind gives ``kept = None`` and its dense
    (rows, d) output in ``values``. ``rngs`` is a ``NodeDraws`` of uniforms,
    whose stream r serves row r, or a single generator that draws the whole
    batch's uniforms at once. ``magnitude``, if given, is ``np.abs(x)``,
    which top-k then scores by. Top-k keeps the lowest-index coordinate among
    equal magnitudes, so it is deterministic and reproducible. ``pool``, if
    given, makes the selection of a top-k or composed spec (see ``TopKPool``).
    """
    if x.ndim != 2:
        raise ValueError(f"expected a (rows, d) batch, got shape {x.shape}")
    rows, d = x.shape
    if spec.kind == IDENTITY:
        return None, x.copy()
    if spec.kind == DITHERING:
        return None, _dither_rows(x, rngs)
    if spec.kind == NATURAL:
        return None, _natural_rows(x, rngs)
    if spec.kind == SCALED:
        out = _apply(spec.inner, x, rngs)
        out /= omega_of(spec.inner, d) + 1.0
        return None, out
    if pool is not None:
        kept = pool.kept(x)
    else:
        kept = np.flatnonzero(_kept(spec, x, rngs, magnitude))
    values = x.take(kept)
    if spec.kind == COMPOSE:
        # The unbiased stage sees each row's kept coordinates in ascending order.
        values = _apply(spec.inner, values.reshape(rows, spec.k), rngs).ravel()
        values /= omega_of(spec.inner, spec.k) + 1.0
    return kept, values


def _kept(
    spec: CompressorSpec, x: np.ndarray, rngs: Rngs, magnitude: Optional[np.ndarray] = None
) -> np.ndarray:
    """The (rows, d) boolean mask of the coordinates a sparsifier keeps.

    Each row keeps the k coordinates of largest score: minus a uniform draw
    for rand-k, else the magnitude (``magnitude`` if given, else
    ``np.abs(x)``), as top-k and a composition's top-k stage rank. A tie at
    the threshold goes to the lowest index. Rows must be finite. The
    transmitted support includes kept-but-zero coordinates, so it cannot be
    recovered from the output alone.
    """
    rows, d = x.shape
    if spec.kind == RAND_K:
        score = -_uniform(rngs, rows, d)
    else:
        score = np.abs(x) if magnitude is None else magnitude
    return _top(score, spec.k)[0]


def _top(score: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of each row's k largest scores, lowest index first among ties,
    and each row's k-th largest score as a (rows, 1) column.
    """
    rows, d = score.shape
    part = np.partition(score, d - k, axis=1)
    kth = part[:, d - k, None]
    keep = score >= kth
    # Every row keeps at least k entries at or above its k-th largest, so a
    # surplus anywhere means some row has more ties than free slots.
    if np.count_nonzero(keep) > rows * k:
        # Entries above the k-th largest lie past it in the partition, so
        # each row keeps its first ``free`` ties; every row has that many.
        free = k - np.count_nonzero(part[:, d - k + 1 :] > kth, axis=1)
        tie = np.flatnonzero(score == kth)  # row by row, in index order
        last = tie[np.searchsorted(tie, np.arange(0, rows * d, d)) + free - 1]
        keep &= (score > kth) | (np.arange(d) <= (last % d)[:, None])
    return keep, kth


# A TopKPool holds the top POOL_FACTOR * k of each row. Against the full
# selection on the EC-LSVRG shift compressor's inputs, 4 and 8 saved about a
# fifth of its time, 2 and 32 less.
POOL_FACTOR = 8


class TopKPool:
    """Top-k of a batch that changes, between calls, only where the last call kept.

    A build runs the full selection for the top ``K = min(POOL_FACTOR k, d)``
    positions of each row, the pool, and records each row's floor: the score
    and position of its lowest-ranked pool entry. A call then ranks only the
    pool's current magnitudes, largest first and lowest index first among
    ties. Outside the pool nothing changed since the build, so every entry
    there still ranks below the floor, and the pool's picks are the row's
    top-k whenever its k-th pick outranks the floor: a larger score, or the
    floor's score with no pick at that score past the floor's position.
    Otherwise the pool has run out and the call rebuilds it. ``reset`` must be
    called whenever the batch changes anywhere else.
    """

    def __init__(self, k: int, d: int):
        self.k = k
        self.size = min(POOL_FACTOR * k, d)
        self.builds = 0
        self._pool: Optional[np.ndarray] = None  # (rows, K) flat positions, ascending in a row
        self._floor_score = self._floor_pos = None  # (rows, 1) columns

    def reset(self) -> None:
        self._pool = None

    def kept(self, x: np.ndarray) -> np.ndarray:
        """The flat positions of each row's top-k magnitudes, row by row in index order."""
        if self._pool is not None:
            picks = self._picks(x)
            if picks is not None:
                return picks
        self._build(x)
        return self._picks(x)

    def _build(self, x: np.ndarray) -> None:
        magnitude = np.abs(x)
        keep, self._floor_score = _top(magnitude, self.size)
        self._pool = np.flatnonzero(keep).reshape(x.shape[0], self.size)
        at_floor = magnitude.take(self._pool) == self._floor_score
        self._floor_pos = np.where(at_floor, self._pool, -1).max(axis=1, keepdims=True)
        self.builds += 1

    def _picks(self, x: np.ndarray) -> Optional[np.ndarray]:
        """The pool's top-k, or None if some row's k-th pick does not outrank its floor."""
        pool, floor = self._pool, self._floor_score
        score = np.abs(x.take(pool))
        keep, kth = _top(score, self.k)
        if not np.all(kth >= floor):
            return None
        if np.any(kth == floor):
            late = keep & (score == floor) & (pool > self._floor_pos)
            if late.any():
                return None
        return pool[keep]


def pool_for(spec: CompressorSpec, d: int) -> Optional[TopKPool]:
    """A ``TopKPool`` for the top-k stage of ``spec`` on R^d.

    None if the spec has no top-k stage, or if the pool would hold whole
    rows and so save nothing.
    """
    if spec.kind not in (TOP_K, COMPOSE) or POOL_FACTOR * spec.k >= d:
        return None
    return TopKPool(spec.k, d)


def _uniform(rngs: Rngs, rows: int, d: int) -> np.ndarray:
    """A (rows, d) block of uniforms: one step of a NodeDraws, or a shared draw."""
    if isinstance(rngs, np.random.Generator):
        return rngs.random((rows, d))
    return rngs.draw(rows, d)


def _dither_rows(x: np.ndarray, rngs: Rngs) -> np.ndarray:
    # sign(x) * safe * level / levels, with level = floor(s) + (u < s - floor(s))
    # and s = |x| / safe * levels: the operations of that one expression in its
    # order, so its bits, in three buffers.
    rows, d = x.shape
    levels = math.sqrt(d)
    # np.linalg.norm's arithmetic for real rows, without its conj copy.
    norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
    live = norms > 0
    safe = np.where(live, norms, 1.0)
    frac = np.abs(x)
    frac /= safe
    frac *= levels
    level = np.floor(frac)
    frac -= level
    np.less(_uniform(rngs, rows, d), frac, out=frac)
    level += frac
    out = np.sign(x)
    out *= safe
    out *= level
    out /= levels
    # A row whose squares underflow has norm 0 and would give -0.0 for its
    # negative entries.
    out[~live[:, 0]] = 0.0
    return out


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


def _monte_carlo(draw, trials: int) -> tuple:
    """Mean, standard error and largest value of a per-draw statistic.

    ``draw(rows)`` returns the statistic of ``rows`` fresh draws, one per
    row: a (rows,) vector or a (rows, d) block, which gives each coordinate
    its own estimate. Draws come in chunks of at most ``_CHUNK_ROWS``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    count = 0
    total = total_sq = 0.0
    peak = -math.inf
    while count < trials:
        rows = min(_CHUNK_ROWS, trials - count)
        values = draw(rows)
        total = total + values.sum(axis=0)
        total_sq = total_sq + (values**2).sum(axis=0)
        peak = np.maximum(peak, values.max(axis=0))
        count += rows
    mean = total / trials
    se = np.sqrt(np.maximum(total_sq / trials - mean**2, 0.0) / trials)
    return mean, se, peak


def _draws(spec: CompressorSpec, x: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` independent draws of Q(x), one per row."""
    return _apply(spec, np.broadcast_to(x, (rows, x.shape[0])).copy(), rng)


def verify_contraction(
    spec: CompressorSpec, d: int, trials: int, rng: np.random.Generator
) -> ContractionReport:
    """Check the contraction inequality empirically on standard-normal vectors."""
    validate_for_dimension(spec, d)

    def ratios(rows: int) -> np.ndarray:
        x = rng.standard_normal((rows, d))
        y = _apply(spec, x, rng)
        return np.sum((x - y) ** 2, axis=1) / np.sum(x**2, axis=1)

    mean, se, max_ratio = (float(v) for v in _monte_carlo(ratios, trials))
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
    if spec.kind == IDENTITY or is_unbiased_kind(spec):
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
    mean, se, _ = _monte_carlo(lambda rows: _draws(spec, x, rows, rng), trials)
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
    """Check E[Q(x)] = x (``verify_mean_scaling``), then E||Q(x)||^2 <= (omega + 1) ||x||^2."""
    if not is_unbiased_kind(spec):
        raise ValueError(f"{format_spec(spec)} is not an unbiased compressor")
    if x is None:
        x = rng.standard_normal(d)
    x = np.asarray(x, dtype=np.float64)
    omega = omega_of(spec, d)
    mean = verify_mean_scaling(spec, d, trials, rng, x)

    def squared_norms(rows: int) -> np.ndarray:
        return np.sum(_draws(spec, x, rows, rng) ** 2, axis=1)

    second, second_se, _ = (float(v) for v in _monte_carlo(squared_norms, trials))
    bound = (omega + 1.0) * float(np.dot(x, x))
    second_passed = second <= bound + 3.0 * second_se + 1e-12
    return UnbiasednessReport(
        spec=format_spec(spec),
        d=d,
        trials=trials,
        omega=omega,
        max_mean_deviation=mean.max_abs_deviation,
        mean_passed=mean.passed,
        second_moment=second,
        second_moment_se=second_se,
        second_moment_bound=bound,
        second_moment_passed=second_passed,
        passed=mean.passed and second_passed,
    )
