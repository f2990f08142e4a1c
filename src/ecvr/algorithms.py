"""Optimizers with compressed, error-compensated node communication.

All nodes live in one process and are stepped sequentially in node order;
each compressor then runs once per step on the (n, d) batch of node
messages, node tau drawing from its own stream. Aggregation sums in fixed
node order so runs are reproducible bit for bit.
Each optimizer validates its defining algebraic identities every step (error
conservation, maintained averages, dual feasibility) and raises on NaN/Inf,
so a completed run certifies its own internal consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import compressors as comp
from .dataset import Partition
from .problem import COMPOSITE, SMOOTH, DualProblem, PrimalProblem, ProblemConstants
from .rng import node_streams, split_rng


class NumericalError(RuntimeError):
    """A state vector left the floating-point range (NaN or infinity)."""


class InvariantError(RuntimeError):
    """A runtime identity that should hold exactly (or near-exactly) failed."""


def _require_finite(name: str, arr: np.ndarray, k: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{name} became non-finite at step {k}")


def _copies_support(spec: comp.CompressorSpec) -> bool:
    # These kinds copy kept coordinates verbatim, which makes the error
    # conservation identity hold in exact floating point.
    return spec.kind in (comp.IDENTITY, comp.TOP_K, comp.RAND_K)


def _compress_with_feedback(
    spec: comp.CompressorSpec, t: np.ndarray, rngs: list[np.random.Generator], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compress the (n, d) node messages t in one call; return (output, residual).

    Node tau draws from ``rngs[tau]``. Conservation is verified per node:
    kinds that copy kept coordinates verbatim must satisfy ``residual +
    output == t`` bit for bit; quantizing kinds get a 1-ulp allowance per
    coordinate, relative to that node's largest entry.
    """
    nonfinite = ~np.isfinite(t).all(axis=1)
    if nonfinite.any():
        tau = int(np.argmax(nonfinite))
        raise NumericalError(f"compressor input became non-finite at step {k}, node {tau}")
    y = comp._apply(spec, t, rngs)
    e_new = t - y
    if _copies_support(spec):
        broken = (e_new + y != t).any(axis=1)
    else:
        tol = 1e-12 * (1.0 + np.max(np.abs(t), axis=1, initial=0.0))
        broken = np.max(np.abs(e_new + y - t), axis=1, initial=0.0) > tol
    if broken.any():
        tau = int(np.argmax(broken))
        raise InvariantError(f"error conservation broken at step {k}, node {tau}")
    return y, e_new


def _coef(z: float, b: float) -> float:
    """-b * sigmoid(-b z), the derivative of log(1 + exp(-b z))."""
    bz = b * z
    if bz >= 0:
        return -b * math.exp(-bz) / (1.0 + math.exp(-bz))
    return -b / (1.0 + math.exp(bz))


def _draw_examples(streams: list[np.random.Generator], part: Partition) -> np.ndarray:
    """One step's n global example indices: node tau draws its local index from streams[tau]."""
    return np.array([part.example_index(tau, int(rng.integers(part.m))) for tau, rng in enumerate(streams)])


@dataclass
class LsvrgStepInfo:
    sampled: np.ndarray  # global example index drawn by each node
    g_nodes: np.ndarray  # per-node search directions before compression
    t_nodes: np.ndarray  # compressor inputs eta*g + e
    y_nodes: np.ndarray
    x_half: np.ndarray
    h_avg_prev: np.ndarray


class EcLsvrg:
    """Loopless SVRG with error feedback and learned per-node shifts.

    Each node compresses its step ``eta * g + e`` with Q, feeding the residual
    back into ``e``, and separately compresses the shift correction with Q1 so
    that ``h_tau`` learns the node gradient at the reference point; the shifts
    start at the node gradients of the starting point 0. Bits are
    accounted per node per step as cost(Q) + cost(Q1) + 1 (the refresh flag).
    """

    passes_per_step_factor = "per_example"  # epoch accounting: k * n / N

    def __init__(
        self,
        problem: PrimalProblem,
        compressor: comp.CompressorSpec,
        compressor_shift: Optional[comp.CompressorSpec] = None,
        *,
        eta: float,
        p: float,
        seed: int,
    ):
        if eta < 0:
            raise ValueError("step size must be nonnegative")
        if not 0 < p <= 1:
            raise ValueError(f"refresh probability must be in (0, 1], got {p}")
        d, n = problem.d, problem.n
        comp.validate_for_dimension(compressor, d)
        self.q = compressor
        self.q1 = compressor_shift if compressor_shift is not None else compressor
        comp.validate_for_dimension(self.q1, d)
        self.problem = problem
        self.eta = eta
        self.p = p
        self.x = np.zeros(d)
        self.w = self.x.copy()
        self.e = np.zeros((n, d))
        self.grad_w = problem.grad_f_nodes(self.w)
        self.h = self.grad_w.copy()
        self.h_avg = self.h.mean(axis=0)
        self.k = 0
        self.bits = 0.0
        self.bits_per_step = problem.n * (
            comp.bit_cost(self.q, d) + comp.bit_cost(self.q1, d) + 1.0
        )
        self._sample = node_streams(seed, "sample", n)
        self._q_rng = node_streams(seed, "compress", n)
        self._q1_rng = node_streams(seed, "compress_shift", n)
        self._coin = split_rng(seed, "coin")

    def step(self) -> LsvrgStepInfo:
        pr = self.problem
        eta = self.eta
        design = pr._design
        smooth = pr.mode == SMOOTH
        x, w = self.x, self.w
        l2_drift = pr.lam2 * (x - w) if smooth else None

        sampled = _draw_examples(self._sample, pr.part)
        dc = np.array(
            [_coef(design.col_dot(j, x), design.b[j]) - _coef(design.col_dot(j, w), design.b[j])
             for j in sampled]
        )
        g_nodes = dc[:, None] * design.columns(sampled) + self.grad_w - self.h
        if smooth:
            g_nodes = g_nodes + l2_drift
        t_nodes = eta * g_nodes + self.e
        y_nodes, self.e = _compress_with_feedback(self.q, t_nodes, self._q_rng, self.k)
        z_nodes = comp._apply(self.q1, self.grad_w - self.h, self._q1_rng)
        coin = bool(self._coin.random() < self.p)

        y_avg = y_nodes.mean(axis=0)
        z_avg = z_nodes.mean(axis=0)
        h_avg_prev = self.h_avg
        x_half = x - (y_avg + eta * self.h_avg)
        x_new = x_half if smooth else pr.prox_psi(x_half, eta) if eta > 0 else x_half.copy()

        self.h += z_nodes
        self.h_avg = h_avg_prev + z_avg
        _require_finite("shift vectors", self.h, self.k)
        drift_tol = 1e-12 * max(1.0, float(np.max(np.abs(self.h))))
        if np.max(np.abs(self.h_avg - self.h.mean(axis=0)), initial=0.0) > drift_tol:
            raise InvariantError(f"shift average drifted at step {self.k}")
        if coin:
            self.w = x.copy()
            self.grad_w = pr.grad_f_nodes(self.w)
        self.x = x_new
        self.k += 1
        self.bits += self.bits_per_step
        _require_finite("iterate", self.x, self.k)
        return LsvrgStepInfo(
            sampled=sampled,
            g_nodes=g_nodes,
            t_nodes=t_nodes,
            y_nodes=y_nodes,
            x_half=x_half,
            h_avg_prev=h_avg_prev,
        )

    def error_norm(self) -> float:
        return float(np.sqrt(np.sum(self.e**2)))


class Lsvrg:
    """Uncompressed loopless SVRG, used as the identity-reduction oracle.

    Consumes the same sampling and coin streams as EcLsvrg under the same
    seed, so trajectories are directly comparable.
    """

    passes_per_step_factor = "per_example"

    def __init__(
        self,
        problem: PrimalProblem,
        *,
        eta: float,
        p: float,
        seed: int,
    ):
        if not 0 < p <= 1:
            raise ValueError(f"refresh probability must be in (0, 1], got {p}")
        d, n = problem.d, problem.n
        self.problem = problem
        self.eta = eta
        self.p = p
        self.x = np.zeros(d)
        self.w = self.x.copy()
        self.grad_w = problem.grad_f_nodes(self.w)
        self.k = 0
        self.bits = 0.0
        self.bits_per_step = problem.n * (comp.bit_cost(comp.identity(), d) * 2 + 1.0)
        self._sample = node_streams(seed, "sample", n)
        self._coin = split_rng(seed, "coin")

    def step(self) -> None:
        pr = self.problem
        n, eta = pr.n, self.eta
        design = pr._design
        smooth = pr.mode == SMOOTH
        x, w = self.x, self.w
        l2_drift = pr.lam2 * (x - w) if smooth else None

        J = _draw_examples(self._sample, pr.part)
        dc = np.array(
            [_coef(design.col_dot(j, x), design.b[j]) - _coef(design.col_dot(j, w), design.b[j])
             for j in J]
        )
        g = dc[:, None] * design.columns(J) + self.grad_w
        if smooth:
            g = g + l2_drift
        coin = bool(self._coin.random() < self.p)
        x_half = x - eta * (g.sum(axis=0) / n)
        x_new = x_half if smooth else pr.prox_psi(x_half, eta) if eta > 0 else x_half
        if coin:
            self.w = x.copy()
            self.grad_w = pr.grad_f_nodes(self.w)
        self.x = x_new
        self.k += 1
        self.bits += self.bits_per_step
        _require_finite("iterate", self.x, self.k)

    def error_norm(self) -> float:
        return 0.0


class EcGd:
    """Error-feedback full-gradient descent baseline (one full pass per step)."""

    passes_per_step_factor = "full_pass"

    def __init__(
        self,
        problem: PrimalProblem,
        compressor: comp.CompressorSpec,
        *,
        eta: float,
        seed: int,
    ):
        d, n = problem.d, problem.n
        comp.validate_for_dimension(compressor, d)
        self.problem = problem
        self.q = compressor
        self.eta = eta
        self.x = np.zeros(d)
        self.e = np.zeros((n, d))
        self.k = 0
        self.bits = 0.0
        self.bits_per_step = n * comp.bit_cost(compressor, d)
        self._q_rng = node_streams(seed, "compress", n)

    def step(self) -> None:
        pr = self.problem
        eta = self.eta
        smooth = pr.mode == SMOOTH
        t_nodes = eta * pr.grad_f_nodes(self.x) + self.e
        y_nodes, self.e = _compress_with_feedback(self.q, t_nodes, self._q_rng, self.k)
        x_half = self.x - y_nodes.mean(axis=0)
        self.x = x_half if smooth else pr.prox_psi(x_half, eta) if eta > 0 else x_half
        self.k += 1
        self.bits += self.bits_per_step
        _require_finite("iterate", self.x, self.k)

    def error_norm(self) -> float:
        return float(np.sqrt(np.sum(self.e**2)))


@dataclass
class DualStepInfo:
    sampled: np.ndarray  # global example index drawn by each node
    delta_alpha: np.ndarray
    t_nodes: np.ndarray
    x_new: np.ndarray


QUARTZ = "quartz"
SDCA = "sdca"


class EcDual:
    """Compressed primal-dual coordinate ascent (quartz and sdca variants).

    Each node updates one dual coordinate, compresses its contribution to the
    primal surrogate ``u`` with error feedback, and all nodes apply the same
    averaged update. The identity ``u + mean(e) = (1/(lam N)) sum_j a_j
    alpha_j`` is checked every step, as is dual feasibility.
    """

    passes_per_step_factor = "per_example"

    def __init__(
        self,
        problem: DualProblem,
        compressor: comp.CompressorSpec,
        *,
        theta: float,
        seed: int,
        variant: str = QUARTZ,
    ):
        if variant not in (QUARTZ, SDCA):
            raise ValueError(f"unknown variant {variant!r}")
        m = problem.part.m
        if not 0 < theta <= 1.0 / m:
            raise ValueError(f"theta must be in (0, 1/m]; got {theta} with m={m}")
        d, n = problem.d, problem.part.n
        comp.validate_for_dimension(compressor, d)
        self.problem = problem
        self.q = compressor
        self.theta = theta
        self.variant = variant
        self.alpha = np.zeros(problem.N)
        self.x = np.zeros(d)
        self.u = problem.dual_aggregate(self.alpha)
        self.e = np.zeros((n, d))
        self.k = 0
        self.bits = 0.0
        self.bits_per_step = n * comp.bit_cost(compressor, d)
        self._sample = node_streams(seed, "sample", n)
        self._q_rng = node_streams(seed, "compress", n)
        self._check_feasible()

    def _check_feasible(self) -> None:
        u = self.problem.labels * self.alpha
        if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
            bad = int(np.argmax((u < -1e-12) | (u > 1 + 1e-12)))
            raise InvariantError(
                f"dual feasibility violated at step {self.k}: block {bad} has b*alpha={u[bad]}"
            )

    def step(self) -> DualStepInfo:
        pr = self.problem
        m = pr.part.m
        theta, lam = self.theta, pr.lam

        if self.variant == QUARTZ:
            x_new = (1.0 - theta) * self.x + theta * pr.gstar_grad(self.u)
        else:
            x_new = pr.gstar_grad(self.u)

        sampled = _draw_examples(self._sample, pr.part)
        cols = pr._design.columns(sampled)
        dphi = np.array([_coef(float(col @ x_new), pr.labels[j]) for col, j in zip(cols, sampled)])
        delta_alpha = -theta * m * (self.alpha[sampled] + dphi)
        self.alpha[sampled] += delta_alpha
        t_nodes = (delta_alpha / (lam * m))[:, None] * cols + self.e
        y_nodes, self.e = _compress_with_feedback(self.q, t_nodes, self._q_rng, self.k)

        self.u = self.u + y_nodes.mean(axis=0)
        self.x = x_new
        self.k += 1
        self.bits += self.bits_per_step
        _require_finite("dual vector", self.alpha, self.k)
        _require_finite("primal surrogate", self.u, self.k)
        self._check_feasible()
        lag = self.u + self.e.mean(axis=0) - pr.dual_aggregate(self.alpha)
        if np.max(np.abs(lag), initial=0.0) > 1e-10 * (1.0 + float(np.max(np.abs(self.alpha)))):
            raise InvariantError(f"compressed surrogate drifted from A alpha at step {self.k}")
        return DualStepInfo(
            sampled=sampled,
            delta_alpha=delta_alpha,
            t_nodes=t_nodes,
            x_new=x_new,
        )

    def error_norm(self) -> float:
        return float(np.sqrt(np.sum(self.e**2)))


class VanillaDual:
    """Uncompressed quartz/sdca oracle sharing EcDual's sampling streams."""

    passes_per_step_factor = "per_example"

    def __init__(
        self,
        problem: DualProblem,
        *,
        theta: float,
        seed: int,
        variant: str = QUARTZ,
    ):
        if variant not in (QUARTZ, SDCA):
            raise ValueError(f"unknown variant {variant!r}")
        m = problem.part.m
        if not 0 < theta <= 1.0 / m:
            raise ValueError(f"theta must be in (0, 1/m]; got {theta} with m={m}")
        self.problem = problem
        self.theta = theta
        self.variant = variant
        self.alpha = np.zeros(problem.N)
        self.x = np.zeros(problem.d)
        self.u = problem.dual_aggregate(self.alpha)
        self.k = 0
        self.bits = 0.0
        self.bits_per_step = problem.part.n * comp.bit_cost(comp.identity(), problem.d)
        self._sample = node_streams(seed, "sample", problem.part.n)

    def step(self) -> None:
        pr = self.problem
        m = pr.part.m
        theta, lam = self.theta, pr.lam
        if self.variant == QUARTZ:
            x_new = (1.0 - theta) * self.x + theta * pr.gstar_grad(self.u)
        else:
            x_new = pr.gstar_grad(self.u)
        J = _draw_examples(self._sample, pr.part)
        cols = pr._design.columns(J)
        dphi = np.array([_coef(float(col @ x_new), pr.labels[j]) for col, j in zip(cols, J)])
        da = -theta * m * (self.alpha[J] + dphi)
        self.alpha[J] += da
        y_nodes = (da / (lam * m))[:, None] * cols
        self.u = self.u + y_nodes.mean(axis=0)
        self.x = x_new
        self.k += 1
        self.bits += self.bits_per_step
        _require_finite("dual vector", self.alpha, self.k)

    def error_norm(self) -> float:
        return 0.0


# -- step-size and rate formulas ---------------------------------------------

def _ratio(num: float, den: float) -> float:
    return math.inf if den == 0 else num / den


def theoretical_eta(
    c: ProblemConstants,
    n: int,
    delta: float,
    delta1: float,
    p: float,
    regime: str = COMPOSITE,
) -> float:
    """Worst-case admissible step size for the composite or smooth regime."""
    if not 0 < delta <= 1 or not 0 < delta1 <= 1:
        raise ValueError("contraction parameters must be in (0, 1]")
    if not 0 < p <= 1:
        raise ValueError("refresh probability must be in (0, 1]")
    lf, lbar, l = c.l_f, c.l_bar, c.l
    rem = 1.0 - delta
    boost = 1.0 + 2.0 * p / delta1
    if regime == COMPOSITE:
        t = (105.0 * rem / delta) * (
            4.0 * lbar / delta + l + (16.0 * lbar * p / (delta * delta1)) * boost
        )
        return 1.0 / (t + 4.0 * lf + 42.0 * l / n)
    if regime == SMOOTH:
        return min(
            1.0 / (4.0 * lf + 33.0 * l / n),
            _ratio(delta, 60.0 * math.sqrt(rem * lf * lbar)),
            _ratio(math.sqrt(delta), 64.0 * math.sqrt(rem * lf * l)),
            _ratio(
                delta * math.sqrt(delta1),
                120.0 * math.sqrt(rem * lf * lbar * p * boost),
            ),
        )
    raise ValueError(f"unknown regime {regime!r}; expected {COMPOSITE!r} or {SMOOTH!r}")


def theoretical_theta(
    c: ProblemConstants,
    m: int,
    n: int,
    lam: float,
    gamma: float,
    delta: float,
) -> float:
    """Dual step parameter from the convergence analysis.

    For delta = 1 (no compression) the analysis does not apply and the
    uncompressed coordinate-ascent rate N lam gamma p / (v + N lam gamma)
    is returned instead.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    N = m * n
    p = 1.0 / m
    v = c.r_m**2 + n * c.r_sq
    if delta == 1.0:
        return N * lam * gamma * p / (v + N * lam * gamma)
    a = (1.0 - delta) * (2.0 * c.r_bar_sq + delta * c.r_m**2)
    dlg = delta * lam * gamma
    first = 2.0 * dlg / (dlg * m + math.sqrt((dlg * m) ** 2 + 48.0 * lam * gamma * a))
    second = N * lam * gamma * p / (3.0 * v + N * lam * gamma)
    third = dlg / (dlg * m + 12.0 * c.r * math.sqrt(a))
    return min(first, second, third)


def contraction_rate(
    mu: float, eta: float, delta: float, delta1: float, p: float, smooth: bool = False
) -> float:
    """Per-step decrease factor exponent: the min defining the averaging weights."""
    lead = mu * eta / (2.0 if smooth else 3.0)
    return min(lead, delta / 4.0, delta1 / 4.0, p / 4.0)


def weighted_average(iterates, rho: float) -> np.ndarray:
    """Average with weights (1 - rho)^(-i), normalized against the last weight.

    The running form divides through by the current largest weight so the
    partial sums stay bounded even when (1 - rho)^(-i) overflows.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    it = iter(iterates)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("need at least one iterate") from None
    avg = np.asarray(first, dtype=np.float64).copy()
    weight_sum = 1.0  # sum of w_j / w_i for j <= i
    shrink = 1.0 - rho
    for x in it:
        weight_sum = weight_sum * shrink + 1.0
        avg += (np.asarray(x, dtype=np.float64) - avg) / weight_sum
    return avg
