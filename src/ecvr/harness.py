"""Experiment driver: reference solutions, sampling checks, and trace output."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.special import expit

from . import algorithms as alg
from . import compressors as comp
from .dataset import Dataset, Partition, normalize_examples, parse_libsvm, partition, shuffle_examples
from .problem import (
    COMPOSITE,
    SMOOTH,
    DualProblem,
    PrimalProblem,
    ProblemConstants,
    compute_constants,
)
from .rng import split_rng


class ConfigError(ValueError):
    """A ``RunConfig`` value that does not fit the problem; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@contextmanager
def _blame(field: str):
    """Re-raise a ValueError or OSError from the block as a ConfigError on ``field``."""
    try:
        yield
    except (ValueError, OSError) as err:
        raise ConfigError(field, str(err)) from err


class ConvergenceError(RuntimeError):
    def __init__(self, residual: float, budget: int):
        super().__init__(
            f"reference solver exhausted {budget} iterations at gradient-mapping"
            f" norm {residual:.3e}"
        )
        self.residual = residual


def solve_reference(
    problem: PrimalProblem,
    constants: ProblemConstants,
    tol: float = 1e-10,
    x0: Optional[np.ndarray] = None,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, float]:
    """High-accuracy minimizer via accelerated proximal gradient.

    The step is 1 / L with L from ``constants.l_f``. The l2 term is folded
    into the smooth part so the l1 prox is all that remains, and the strong
    convexity it brings (lam2 > 0) selects the constant-momentum accelerated
    scheme. Stops when the prox-gradient mapping norm drops to ``tol``.
    Deterministic given ``x0``, and the optimum is unique under strong
    convexity, so reruns agree to solver accuracy.
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
            moved = np.sign(moved) * np.maximum(np.abs(moved) - eta * lam1, 0.0)
        return moved

    x = np.zeros(problem.d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    y = x.copy()
    residual = math.inf
    for _ in range(max_iter):
        x_new = step_from(y, grad(y))
        residual = float(np.linalg.norm(x_new - step_from(x_new, grad(x_new))) / eta)
        if residual <= tol:
            return x_new, problem.primal_value(x_new)
        y = x_new + beta * (x_new - x)
        x = x_new
    raise ConvergenceError(residual, max_iter)


@dataclass
class EsoReport:
    """Monte-Carlo check of the one-index-per-node sampling inequality."""

    lhs_mean: float
    lhs_se: float
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

    ``features`` is a Dataset or a d x N matrix (columns are examples); the
    first n*m columns with m = N // n are used. S samples one column per
    node, uniformly and independently.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(features, Dataset):
        features = features.features
    A = features.toarray() if sparse.issparse(features) else np.asarray(features, dtype=np.float64)
    d, total = A.shape
    m = total // n
    if m < 1:
        raise ValueError(f"{n} nodes need at least {n} columns, got {total}")
    N = n * m
    A = A[:, :N]
    if h is None:
        h = rng.standard_normal(N)
    h = np.asarray(h, dtype=np.float64)

    col_sq = np.sum(A**2, axis=0)
    r_m_sq = float(col_sq.max())
    r_sq = float(np.linalg.eigvalsh(A @ A.T).max()) / N
    rhs = (r_m_sq + n * r_sq) / m * float(h @ h)

    weighted = A * h  # column j scaled by h_j
    deterministic = m == 1
    if deterministic:
        picks = np.zeros((1, n), dtype=np.int64)
        trials = 1
    else:
        picks = rng.integers(0, m, size=(trials, n))
    cols = picks + np.arange(n) * m
    sums = weighted[:, cols.ravel()].reshape(d, trials, n).sum(axis=2)
    lhs = np.sum(sums**2, axis=0)
    lhs_mean = float(lhs.mean())
    lhs_se = 0.0 if deterministic else float(lhs.std(ddof=1) / math.sqrt(trials))
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
    unit_columns: bool = True,
) -> Dataset:
    """Sparse Gaussian features with labels from a planted logistic model.

    Each example keeps ``round(sparsity * d)`` random coordinates (at least
    one). Columns are normalized to norm ``scale`` by default so the derived
    constants are controlled. Byte-for-byte reproducible under ``seed``.
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
    if unit_columns:
        sq = np.asarray(features.multiply(features).sum(axis=0)).ravel()
        inv = scale / np.sqrt(np.where(sq > 0, sq, 1.0))
        features = (features @ sparse.diags(inv)).tocsc()

    x_true = rng.standard_normal(d)
    x_true *= 3.0 / (scale * math.sqrt(d) if unit_columns else math.sqrt(d))
    margins = features.T @ x_true
    labels = np.where(rng.random(N) < expit(margins), 1.0, -1.0)
    return Dataset(features=features, labels=labels)


# -- run configuration and records --------------------------------------------

TRACE_COLUMNS = ("k", "epoch", "bits", "primal_gap", "dual_gap", "err_norm", "wall_ms")

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

    def to_metadata(self) -> dict:
        meta = asdict(self)
        if meta["synth"] is not None:
            meta["synth"] = list(meta["synth"])
        return meta


@dataclass
class RunResult:
    config: RunConfig
    records: list[TrialRecord]
    best_gap: float
    final_gap: float
    bits_to_target: Optional[float]
    steps: int
    design: str  # "dense" or "sparse": the _Design path the run took
    partition: Partition
    eta: Optional[float] = None
    theta: Optional[float] = None
    x: Optional[np.ndarray] = field(default=None, repr=False)


def load_dataset(config: RunConfig) -> Dataset:
    if (config.data is None) == (config.synth is None):
        raise ConfigError("data", "exactly one of data path or synth spec must be set")
    if config.data is not None:
        with _blame("data"):
            ds = parse_libsvm(config.data)
    else:
        N, d, sparsity = config.synth
        ds = synth_dataset(int(N), int(d), float(sparsity), config.seed, scale=config.synth_scale)
    if config.shuffle_seed is not None:
        ds = shuffle_examples(ds, config.shuffle_seed)
    if config.normalize:
        ds = normalize_examples(ds)
    return ds


@dataclass(frozen=True)
class Setup:
    """The problem a ``RunConfig`` describes, built once and shared by its runs."""

    primal: PrimalProblem
    dual: Optional[DualProblem]  # set only for dual algorithms
    constants: ProblemConstants
    x_star: np.ndarray
    p_star: float


def build_setup(config: RunConfig) -> Setup:
    """Load the data; build the problem, its constants and its reference optimum.

    Dual algorithms always solve the composite problem. A value that does
    not fit the data raises ``ConfigError`` naming its field.
    """
    ds = load_dataset(config)
    with _blame("n"):
        part = partition(ds, config.n)
    dual_run = config.algo in DUAL_ALGOS
    mode = COMPOSITE if dual_run else config.mode
    # PrimalProblem rejects a negative weight, and lam1 != 0 in smooth mode.
    with _blame("lambda2" if config.lambda2 < 0 else "lambda1"):
        primal = PrimalProblem(ds, part, lam1=config.lambda1, lam2=config.lambda2, mode=mode)
    with _blame("lambda2"):
        dual = DualProblem(primal) if dual_run else None
    constants = compute_constants(primal)
    with _blame("reference_tol"):
        x_star, p_star = solve_reference(primal, constants, tol=config.reference_tol)
    return Setup(primal, dual, constants, x_star, p_star)


def build_optimizer(config: RunConfig, setup: Setup):
    """Construct the configured optimizer with resolved eta/theta/p."""
    primal, constants = setup.primal, setup.constants
    d = primal.d
    with _blame("compressor"):
        spec = comp.parse_spec(config.compressor)
        delta = comp.delta_of(spec, d)
    with _blame("compressor_q1"):
        q1 = comp.parse_spec(config.compressor_q1 or config.compressor)
        delta1 = comp.delta_of(q1, d)
    p = config.p if config.p is not None else delta
    algo = config.algo
    if algo in PRIMAL_ALGOS:
        if config.eta == "theory":
            regime = SMOOTH if primal.mode == SMOOTH else COMPOSITE
            eta = alg.theoretical_eta(constants, primal.n, delta, delta1, p, regime)
        else:
            eta = float(config.eta)
    if algo == "ec_lsvrg":
        return alg.EcLsvrg(primal, spec, q1, eta=eta, p=p, seed=config.seed), eta, None
    if algo == "lsvrg":
        return alg.Lsvrg(primal, eta=eta, p=p, seed=config.seed), eta, None
    if algo == "ec_gd":
        return alg.EcGd(primal, spec, eta=eta, seed=config.seed), eta, None
    if algo in DUAL_ALGOS:
        dual = setup.dual
        variant = alg.QUARTZ if "quartz" in algo else alg.SDCA
        if config.theta is not None:
            theta = config.theta
        else:
            theta = alg.theoretical_theta(
                constants, primal.m, primal.n, dual.lam, dual.gamma, delta
            )
        with _blame("theta"):
            if algo in ("quartz", "sdca"):
                opt = alg.VanillaDual(dual, theta=theta, seed=config.seed, variant=variant)
            else:
                opt = alg.EcDual(dual, spec, theta=theta, seed=config.seed, variant=variant)
        return opt, None, theta
    raise ConfigError("algo", f"unknown algorithm {algo!r}; expected one of {ALGOS}")


def run_experiment(config: RunConfig) -> RunResult:
    """Build the configured problem and run one trial on it.

    An output path into a missing directory is rejected before any work.
    """
    for name in ("out_csv", "out_json"):
        folder = os.path.dirname(getattr(config, name) or "")
        if folder and not os.path.isdir(folder):
            raise ConfigError(name, f"directory {folder!r} does not exist")
    return _run(config, build_setup(config))


def _run(config: RunConfig, setup: Setup) -> RunResult:
    """Run one trial on ``setup``, recording the trace at the configured cadence.

    ``setup`` must be ``build_setup`` of a config that differs from
    ``config`` at most in the step size, the budget and the output paths.
    """
    if config.epochs < 0:
        raise ConfigError("epochs", f"epochs must be >= 0, got {config.epochs}")
    primal, dual, p_star = setup.primal, setup.dual, setup.p_star
    part = primal.part
    opt, eta, theta = build_optimizer(config, setup)
    N = part.retained
    if opt.passes_per_step_factor == "full_pass":
        epoch_per_step = 1.0
        default_cadence = 1
    else:
        epoch_per_step = part.n / N
        default_cadence = part.m
    cadence = config.cadence if config.cadence is not None else default_cadence
    if cadence < 1:
        raise ConfigError("cadence", "cadence must be >= 1")
    total_steps = int(math.ceil(config.epochs / epoch_per_step - 1e-12))

    records: list[TrialRecord] = []
    best_gap = math.inf
    bits_to_target = None
    started = time.perf_counter()

    def record_now() -> TrialRecord:
        gap = primal.primal_value(opt.x) - p_star
        dual_gap = None
        if dual is not None:
            dual_gap = dual.duality_gap(opt.x, opt.alpha)
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
                best_gap = min(best_gap, rec.primal_gap)
                watched = rec.primal_gap if dual is None else rec.dual_gap
                if bits_to_target is None and config.gap_target is not None:
                    if watched <= config.gap_target:
                        bits_to_target = rec.bits
                        break
    except alg.NumericalError as err:
        raise alg.NumericalError(f"{err} (algo={config.algo}, eta={eta}, theta={theta})") from err

    final_gap = records[-1].primal_gap if records else math.inf
    result = RunResult(
        config=config,
        records=records,
        best_gap=best_gap if records else math.inf,
        final_gap=final_gap,
        bits_to_target=bits_to_target,
        steps=opt.k,
        design="dense" if primal._design.A_dense is not None else "sparse",
        partition=part,
        eta=eta,
        theta=theta,
        x=opt.x.copy(),
    )
    if config.out_csv:
        emit_csv(records, config.out_csv)
    if config.out_json:
        emit_json(result, config.out_json)
    return result


# -- trace serialization -------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-tripping decimal
    return str(value)


def emit_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, col)) for col in TRACE_COLUMNS])


def emit_json(result: RunResult, path: str) -> None:
    payload = {
        "config": result.config.to_metadata(),
        "eta": result.eta,
        "theta": result.theta,
        "design": result.design,
        "partition": asdict(result.partition),
        "best_gap": result.best_gap,
        "final_gap": result.final_gap,
        "bits_to_target": result.bits_to_target,
        "records": [asdict(rec) for rec in result.records],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


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
        except alg.NumericalError:
            results[eta] = None
            continue
        results[eta] = res
        score = res.final_gap
        if math.isfinite(score) and score < best:
            best_eta, best = eta, score
    if best_eta is None:
        raise RuntimeError("every step-size candidate diverged")
    return best_eta, results
