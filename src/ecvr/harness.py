"""Experiment driver: reference solutions, sampling checks, and trace output."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np
import scipy
from scipy import sparse
from scipy.special import expit

from . import __version__
from . import algorithms as alg
from . import compressors as comp
from .algorithms import NumericalError
from .dataset import (
    Dataset,
    column_squares,
    normalize_examples,
    parse_libsvm,
    partition,
    scale_columns,
    shuffle_examples,
)
from .problem import (
    COMPOSITE,
    SMOOTH,
    ConvergenceError,
    DualProblem,
    PrimalProblem,
    ProblemConstants,
    compute_constants,
    gram_top_eigenvalue,
    soft_threshold,
)
from .rng import split_rng


class ConfigError(ValueError):
    """A ``RunConfig`` value that does not fit the problem; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@contextmanager
def _blame(field: str):
    """Re-raise a ValueError, OSError, MemoryError or ConvergenceError as a ConfigError on ``field``."""
    try:
        yield
    except (ValueError, OSError, MemoryError, ConvergenceError) as err:
        raise ConfigError(field, str(err) or type(err).__name__) from err


@dataclass(frozen=True)
class Reference:
    """The reference optimum and how closely the solver reached it."""

    x: np.ndarray
    value: float  # the objective at x
    residual: float  # prox-gradient mapping norm at x
    iterations: int
    tol: float  # the residual the solver had to reach


def solve_reference(
    problem: PrimalProblem,
    constants: ProblemConstants,
    tol: float,
    max_iter: int = 200_000,
) -> Reference:
    """High-accuracy minimizer via accelerated proximal gradient.

    The step is 1 / L with L from ``constants.l_f``. The l2 term is folded
    into the smooth part so the l1 prox is all that remains, and the strong
    convexity it brings (lam2 > 0) selects the constant-momentum accelerated
    scheme. Starts at 0 and stops when the prox-gradient mapping norm drops
    to ``tol``; deterministic. A non-finite mapping norm raises
    ``ConvergenceError`` at once.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    composite = problem.mode == COMPOSITE
    lam1 = problem.lam1 if composite else 0.0
    extra_l2 = problem.lam2 if composite else 0.0  # smooth mode already counts it
    lip = constants.l_f + extra_l2
    if lip <= 0:
        lip = 1.0
    eta = 1.0 / lip
    mu = problem.lam2
    # beta = 0 degrades to plain proximal gradient when there is no strong
    # convexity to set the momentum.
    q = math.sqrt(mu * eta)
    beta = (1.0 - q) / (1.0 + q) if q > 0 else 0.0

    def grad(v):
        g = problem.grad_f(v)
        return g + extra_l2 * v if extra_l2 else g

    def step_from(v, g):
        moved = v - eta * g
        if lam1:
            moved = soft_threshold(moved, eta * lam1)
        return moved

    x = np.zeros(problem.d)
    y = x.copy()
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        x_new = step_from(y, grad(y))
        residual = float(np.linalg.norm(x_new - step_from(x_new, grad(x_new))) / eta)
        if residual <= tol:
            return Reference(x_new, problem.primal_value(x_new), residual, iteration, tol)
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"reference solver's gradient-mapping norm is {residual} at iteration"
                f" {iteration} of {max_iter}",
                residual,
                iteration,
            )
        y = x_new + beta * (x_new - x)
        x = x_new
    raise ConvergenceError(
        f"reference solver exhausted {max_iter} iterations at gradient-mapping"
        f" norm {residual:.3e}",
        residual,
        max_iter,
    )


@dataclass
class EsoReport:
    """Monte-Carlo check of the one-index-per-node sampling inequality."""

    lhs_mean: float
    lhs_se: float  # comp._monte_carlo's SE: population std / sqrt(trials); 0 when deterministic
    rhs: float
    ratio: float
    ratio_se: float
    trials: int
    deterministic: bool
    passed: bool


def eso_check(
    features,
    n: int,
    trials: int,
    rng: np.random.Generator,
    h: Optional[np.ndarray] = None,
) -> EsoReport:
    """Estimate E||A h_[S]||^2 against (1/m)(R_m^2 + n R^2) ||h||^2.

    ``features`` is a d x N matrix (columns are examples), dense or sparse;
    the first n*m columns with m = N // n are used, and ``h``, if given,
    holds one entry per used column. S samples one column per node,
    uniformly and independently. ``R_m^2`` and ``R^2`` are computed as
    ``compute_constants`` computes them, on a CSC copy of the columns. The
    trials run through ``comp._monte_carlo`` in chunks, one product per chunk.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    A = sparse.csc_matrix(features, dtype=np.float64)
    total = A.shape[1]
    m = total // n
    if m < 1:
        raise ValueError(f"{n} nodes need at least {n} columns, got {total}")
    N = n * m
    A = A[:, :N]
    if h is None:
        h = rng.standard_normal(N)
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (N,):
        raise ValueError(f"h must have shape ({N},), one entry per used column, got {h.shape}")

    r_m_sq = float(column_squares(A).max())
    r_sq = gram_top_eigenvalue(A).value / N
    rhs = (r_m_sq + n * r_sq) / m * float(h @ h)

    offsets = np.arange(n) * m

    def squared_sums(rows: int) -> np.ndarray:
        cols = (rng.integers(0, m, size=(rows, n)) + offsets).ravel()
        # Column t of ``sampled`` holds h at trial t's picks, so column t of A @ sampled is A h_[S_t].
        sampled = sparse.csc_matrix((h[cols], cols, np.arange(0, cols.size + 1, n)), shape=(N, rows))
        return np.sum((A @ sampled).toarray() ** 2, axis=0)

    # With m = 1 every trial picks every column, and the draw takes nothing from the stream.
    deterministic = m == 1
    if deterministic:
        trials = 1
    lhs_mean, lhs_se, _ = (float(v) for v in comp._monte_carlo(squared_sums, trials))
    ratio = lhs_mean / rhs
    ratio_se = lhs_se / rhs
    if deterministic:
        passed = lhs_mean <= rhs * (1.0 + 1e-12)
    else:
        passed = ratio <= 1.0 + 3.0 * ratio_se + 1e-12
    return EsoReport(
        lhs_mean=lhs_mean,
        lhs_se=lhs_se,
        rhs=rhs,
        ratio=ratio,
        ratio_se=ratio_se,
        trials=trials,
        deterministic=deterministic,
        passed=passed,
    )


def synth_dataset(
    N: int,
    d: int,
    sparsity: float,
    seed: int,
    *,
    scale: float = 1.0,
) -> Dataset:
    """Sparse Gaussian features with labels from a planted logistic model.

    Each example keeps ``round(sparsity * d)`` random coordinates (at least
    one). Columns are normalized to norm ``scale`` so the derived constants
    are controlled. Byte-for-byte reproducible under ``seed``.
    """
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must be in (0, 1]")
    rng = split_rng(seed, "data")
    nnz = max(1, round(sparsity * d))
    rows = np.empty(N * nnz, dtype=np.int64)
    vals = rng.standard_normal(N * nnz)
    for j in range(N):
        rows[j * nnz : (j + 1) * nnz] = rng.choice(d, size=nnz, replace=False)
    cols = np.repeat(np.arange(N), nnz)
    features = sparse.coo_matrix((vals, (rows, cols)), shape=(d, N)).tocsc()
    features = scale_columns(features, scale)

    x_true = rng.standard_normal(d)
    x_true *= 3.0 / (scale * math.sqrt(d))
    margins = features.T @ x_true
    labels = np.where(rng.random(N) < expit(margins), 1.0, -1.0)
    return Dataset(features=features, labels=labels)


# -- run configuration and records --------------------------------------------

PRIMAL_ALGOS = ("ec_lsvrg", "lsvrg", "ec_gd")
DUAL_ALGOS = ("ec_quartz", "ec_sdca", "quartz", "sdca")
ALGOS = PRIMAL_ALGOS + DUAL_ALGOS


@dataclass
class TrialRecord:
    k: int
    epoch: float
    bits: float
    primal_gap: float
    dual_gap: Optional[float]
    err_norm: float
    wall_ms: float


TRACE_COLUMNS = tuple(f.name for f in fields(TrialRecord))


@dataclass
class RunConfig:
    """Everything needed to reproduce one trial."""

    algo: str = "ec_lsvrg"
    data: Optional[str] = None  # LIBSVM path; mutually exclusive with synth
    synth: Optional[tuple[int, int, float]] = (200, 50, 0.3)  # (N, d, sparsity)
    synth_scale: float = 1.0
    n: int = 4
    compressor: str = "identity"
    compressor_q1: Optional[str] = None  # defaults to the main compressor
    eta: float | str = "theory"
    theta: Optional[float] = None  # None = theoretical value
    p: Optional[float] = None  # None = delta of the compressor
    lambda1: float = 1e-3
    lambda2: float = 1e-3
    mode: str = COMPOSITE
    epochs: float = 10.0
    seed: int = 0
    cadence: Optional[int] = None  # steps between records; None = once per epoch
    normalize: bool = False
    shuffle_seed: Optional[int] = None
    reference_tol: float = 1e-12
    gap_target: Optional[float] = None  # stop early once primal gap reaches this
    out_csv: Optional[str] = None
    out_json: Optional[str] = None


@dataclass(frozen=True)
class Resolved:
    """The step and compressor parameters a run resolved from its config.

    ``eta`` and ``eta_theory`` are set for primal algorithms, ``theta`` and
    ``theta_theory`` for dual ones; the theory value is the one the
    analysis admits, whether or not the run used it. ``p`` and ``delta1``
    enter only the primal step, and ``omega`` exists only for a scaled
    unbiased compressor.
    """

    delta: float
    delta1: Optional[float]
    omega: Optional[float]
    p: Optional[float]
    eta: Optional[float] = None
    eta_theory: Optional[float] = None
    theta: Optional[float] = None
    theta_theory: Optional[float] = None


@dataclass(frozen=True)
class Setup:
    """The problem a ``RunConfig`` describes, built once and shared by its runs.

    It depends only on the data, ``n``, the weights, the mode and
    ``reference_tol``, so primal and dual algorithms on one problem share it.
    """

    primal: PrimalProblem
    constants: ProblemConstants
    reference: Reference
    setup_ms: dict[str, float]  # wall time of each layer: load, design, constants, reference


@dataclass
class RunResult:
    config: RunConfig
    setup: Setup = field(repr=False)  # the problem, its constants, reference and timings
    records: list[TrialRecord]
    bits_to_target: Optional[float]
    steps: int
    resolved: Resolved
    bits_per_step: float
    x: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def best_gap(self) -> float:
        """The least primal gap recorded; inf with no record."""
        return min([math.inf] + [rec.primal_gap for rec in self.records])

    @property
    def final_gap(self) -> float:
        """The primal gap of the last record; inf with no record."""
        return self.records[-1].primal_gap if self.records else math.inf

    @property
    def design(self) -> str:
        """"dense" or "sparse": the ``_Design`` path the run took."""
        return "dense" if self.setup.primal._design.A_dense is not None else "sparse"


def _data_source(config: RunConfig) -> str:
    """The field that holds the run's data: ``data`` or ``synth``."""
    return "data" if config.data is not None else "synth"


def load_dataset(config: RunConfig) -> Dataset:
    if (config.data is None) == (config.synth is None):
        raise ConfigError("data", "exactly one of data path or synth spec must be set")
    # A size numpy cannot index raises ValueError; one the host cannot hold, MemoryError.
    with _blame(_data_source(config)):
        if config.data is not None:
            ds = parse_libsvm(config.data)
        else:
            N, d, sparsity = config.synth
            scale = config.synth_scale
            ds = synth_dataset(int(N), int(d), float(sparsity), config.seed, scale=scale)
    if config.shuffle_seed is not None:
        ds = shuffle_examples(ds, config.shuffle_seed)
    if config.normalize:
        ds = normalize_examples(ds)
    return ds


def build_setup(config: RunConfig) -> Setup:
    """Load the data; build the problem, its constants and its reference optimum.

    The algorithm plays no part. The mode only decides how the primal
    methods split the objective; the dual methods solve the same objective
    in either mode, and smooth mode requires ``lambda1 = 0``. A value that
    does not fit the data raises ``ConfigError`` naming its field.
    """
    marks = [time.perf_counter()]
    ds = load_dataset(config)
    marks.append(time.perf_counter())
    with _blame("n"):
        part = partition(ds, config.n)
    # PrimalProblem rejects a negative weight, an unknown mode, and lam1 != 0 in smooth mode.
    bad_mode = config.mode not in (COMPOSITE, SMOOTH) and min(config.lambda1, config.lambda2) >= 0
    with _blame("lambda2" if config.lambda2 < 0 else "mode" if bad_mode else "lambda1"):
        primal = PrimalProblem(ds, part, lam1=config.lambda1, lam2=config.lambda2, mode=config.mode)
    marks.append(time.perf_counter())
    # Lanczos may overflow or stall on the data's Gram operator.
    with _blame(_data_source(config)):
        constants = compute_constants(primal)
    marks.append(time.perf_counter())
    with _blame("reference_tol"):
        reference = solve_reference(primal, constants, tol=config.reference_tol)
    marks.append(time.perf_counter())
    layers = ("load", "design", "constants", "reference")
    setup_ms = {name: (b - a) * 1e3 for name, a, b in zip(layers, marks, marks[1:])}
    return Setup(primal, constants, reference, setup_ms)


def build_optimizer(config: RunConfig, setup: Setup):
    """Construct the configured optimizer; return it and its ``Resolved`` parameters."""
    primal, constants = setup.primal, setup.constants
    d = primal.d
    with _blame("compressor"):
        spec = comp.parse_spec(config.compressor)
        delta = comp.delta_of(spec, d)
    omega = comp.omega_of(spec.inner, d) if spec.kind == comp.SCALED else None
    with _blame("compressor_q1"):
        q1 = comp.parse_spec(config.compressor_q1 or config.compressor)
        delta1 = comp.delta_of(q1, d)
    algo = config.algo
    if algo in PRIMAL_ALGOS:
        p = config.p if config.p is not None else delta
        with _blame("p"):
            eta_theory = alg.theoretical_eta(constants, primal.n, delta, delta1, p, primal.mode)
        if config.eta == "theory" and math.isinf(eta_theory):
            message = "L and L_f are 0 on this data, so the theory bounds no step; set eta"
            raise ConfigError(_data_source(config), message)
        eta = eta_theory if config.eta == "theory" else float(config.eta)
        with _blame("eta"):  # the primal optimizers reject a negative step
            if algo == "ec_lsvrg":
                opt = alg.EcLsvrg(primal, spec, q1, eta=eta, p=p, seed=config.seed)
            elif algo == "lsvrg":
                opt = alg.Lsvrg(primal, eta=eta, p=p, seed=config.seed)
            else:
                opt = alg.EcGd(primal, spec, eta=eta, seed=config.seed)
        return opt, Resolved(delta, delta1, omega, p, eta=eta, eta_theory=eta_theory)
    if algo in DUAL_ALGOS:
        with _blame("lambda2"):
            dual = DualProblem(primal)  # O(1): it shares the primal design
        variant = alg.QUARTZ if "quartz" in algo else alg.SDCA
        theta_theory = alg.theoretical_theta(
            constants, primal.m, primal.n, dual.lam, dual.gamma, delta
        )
        theta = config.theta if config.theta is not None else theta_theory
        with _blame("theta"):
            if algo in ("quartz", "sdca"):
                opt = alg.VanillaDual(dual, theta=theta, seed=config.seed, variant=variant)
            else:
                opt = alg.EcDual(dual, spec, theta=theta, seed=config.seed, variant=variant)
        return opt, Resolved(delta, None, omega, None, theta=theta, theta_theory=theta_theory)
    raise ConfigError("algo", f"unknown algorithm {algo!r}; expected one of {ALGOS}")


def run_experiment(config: RunConfig) -> RunResult:
    """Build the configured problem and run one trial on it.

    Output paths that cannot hold the trace, and a dual algorithm without
    ``lambda2 > 0`` (it scales the dual map), are rejected before any work.
    """
    for name in ("out_csv", "out_json"):
        path = getattr(config, name) or ""
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ConfigError(name, f"directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise ConfigError(name, f"{path!r} is a directory")
    if config.out_csv and config.out_json:
        if os.path.realpath(config.out_csv) == os.path.realpath(config.out_json):
            raise ConfigError(
                "out_csv", f"the JSON manifest would overwrite the CSV trace at {config.out_csv!r}"
            )
    if config.algo in DUAL_ALGOS and not config.lambda2 > 0:
        raise ConfigError("lambda2", f"{config.algo} needs lambda2 > 0, got {config.lambda2}")
    return _run(config, build_setup(config))


def _run(config: RunConfig, setup: Setup) -> RunResult:
    """Run one trial on ``setup``, recording the trace at the configured cadence.

    ``setup`` must be ``build_setup`` of a config that differs from ``config``
    at most in the algorithm, its compressors and steps, the budget and the outputs.
    """
    if config.epochs < 0:
        raise ConfigError("epochs", f"epochs must be >= 0, got {config.epochs}")
    primal, p_star = setup.primal, setup.reference.value
    opt, resolved = build_optimizer(config, setup)
    dual = opt.problem if config.algo in DUAL_ALGOS else None
    eta, theta = resolved.eta, resolved.theta
    N = primal.part.retained
    epoch_per_step = opt.examples_per_step / N
    default_cadence = N // opt.examples_per_step
    cadence = config.cadence if config.cadence is not None else default_cadence
    if cadence < 1:
        raise ConfigError("cadence", "cadence must be >= 1")
    steps = config.epochs / epoch_per_step - 1e-12
    if not math.isfinite(steps):
        raise ConfigError("epochs", f"{config.epochs} epochs are more steps than a float can count")
    total_steps = int(math.ceil(steps))

    records: list[TrialRecord] = []
    bits_to_target = None
    started = time.perf_counter()

    def record_now() -> TrialRecord:
        # One margins pass and one dual aggregate serve the whole record. The
        # full self-check runs first; a dual optimizer's returns the aggregate.
        aggregate = opt.certify()
        loss = primal.loss_value(opt.x)
        gap = primal.primal_value(opt.x, loss) - p_star
        dual_gap = None
        if dual is not None:
            dual_gap = dual.duality_gap(opt.x, opt.alpha, loss=loss, aggregate=aggregate)
            if dual_gap < -1e-10:
                raise alg.InvariantError(
                    f"duality gap {dual_gap} fell below -1e-10 at step {opt.k}"
                )
        return TrialRecord(
            k=opt.k,
            epoch=opt.k * epoch_per_step,
            bits=opt.bits,
            primal_gap=gap,
            dual_gap=dual_gap,
            err_norm=opt.error_norm(),
            wall_ms=(time.perf_counter() - started) * 1e3,
        )

    try:
        for step in range(1, total_steps + 1):
            opt.step()
            if step % cadence == 0 or step == total_steps:
                rec = record_now()
                records.append(rec)
                watched = rec.primal_gap if dual is None else rec.dual_gap
                if bits_to_target is None and config.gap_target is not None:
                    if watched <= config.gap_target:
                        bits_to_target = rec.bits
                        break
    except NumericalError as err:
        raise NumericalError(f"{err} (algo={config.algo}, eta={eta}, theta={theta})") from err

    result = RunResult(
        config=config,
        setup=setup,
        records=records,
        bits_to_target=bits_to_target,
        steps=opt.k,
        resolved=resolved,
        bits_per_step=opt.bits_per_step,
        x=opt.x.copy(),
    )
    if config.out_csv:
        with _blame("out_csv"):
            emit_csv(records, config.out_csv)
    if config.out_json:
        with _blame("out_json"):
            emit_json(result, config.out_json)
    return result


# -- trace serialization -------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-tripping decimal
    return str(value)


def _rows(records: list[TrialRecord], columns) -> list[list[str]]:
    """The trace's text cells: a header of ``columns``, then one row per record."""
    return [list(columns)] + [[_fmt(getattr(rec, col)) for col in columns] for rec in records]


def emit_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(_rows(records, TRACE_COLUMNS))


def trace_digest(records: list[TrialRecord]) -> str:
    """SHA-256 of the trace's CSV text without ``wall_ms``, the one column the seed does not fix.

    The text joins the rows by newlines with no trailing one; no cell needs
    CSV quoting, so it is the CSV's lines with that column left out.
    """
    columns = [col for col in TRACE_COLUMNS if col != "wall_ms"]
    text = "\n".join(",".join(row) for row in _rows(records, columns))
    return hashlib.sha256(text.encode()).hexdigest()


def _json_safe(value):
    """``value`` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def emit_json(result: RunResult, path: str) -> None:
    """Write the run manifest; a non-finite float, such as a gap with no record, is null."""
    setup = result.setup
    ref = setup.reference
    constants = asdict(setup.constants)
    spectral_solves = constants.pop("spectral_solves")
    payload = {
        "config": asdict(result.config),
        **asdict(result.resolved),
        "constants": constants,
        "spectral_solves": spectral_solves,
        "bits_per_step": result.bits_per_step,
        "design": result.design,
        "partition": asdict(setup.primal.part),
        "reference": {
            "value": ref.value,
            "residual": ref.residual,
            "iterations": ref.iterations,
            "tol": ref.tol,
        },
        "setup_ms": setup.setup_ms,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ecvr": __version__,
        },
        "best_gap": result.best_gap,
        "final_gap": result.final_gap,
        "bits_to_target": result.bits_to_target,
        "trace_sha256": trace_digest(result.records),
        "records": [vars(rec) for rec in result.records],
    }
    text = json.dumps(_json_safe(payload), indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- step-size grid search -------------------------------------------------------


def eta_grid() -> list[float]:
    """The sweep {10^t, 3*10^t} for t in -4..1."""
    return [m * 10.0**t for t in range(-4, 2) for m in (1.0, 3.0)]


def grid_search_eta(
    base: RunConfig,
    epochs: Optional[float] = None,
    gap_target: Optional[float] = None,
    candidates: Optional[list[float]] = None,
) -> tuple[float, dict[float, Optional[RunResult]]]:
    """Run every candidate step size and return the one with the best final gap.

    The candidates share one ``build_setup(base)``. Diverging candidates
    (NaN/Inf aborts) are recorded as None.
    """
    setup = build_setup(base)
    results: dict[float, Optional[RunResult]] = {}
    best_eta, best = None, math.inf
    for eta in candidates if candidates is not None else eta_grid():
        cfg = replace(
            base,
            eta=eta,
            epochs=epochs if epochs is not None else base.epochs,
            gap_target=gap_target,
            out_csv=None,
            out_json=None,
        )
        try:
            res = _run(cfg, setup)
        except NumericalError:
            results[eta] = None
            continue
        results[eta] = res
        score = res.final_gap
        if math.isfinite(score) and score < best:
            best_eta, best = eta, score
    if best_eta is None:
        raise RuntimeError("every step-size candidate diverged")
    return best_eta, results
