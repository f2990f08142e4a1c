"""Optimizers with compressed, error-compensated node communication.

All nodes live in one process and each step treats them as one batch: the
n sampled examples' columns are gathered into one (n, d) array, the n
margins are one product with it, and the loss derivative is evaluated once
on the margin vector. Each compressor then runs once per step on the (n, d)
batch of node messages. Node tau draws its example and its compressor
uniforms from its own streams, and one ``rng.NodeDraws`` per purpose draws
every node's numbers ahead in blocks of at most 64 steps and 1 MiB. A
sparsifier's result is its kept flat positions and their values, and error
feedback rewrites the residual only there.
Aggregation sums in fixed node order so runs are reproducible bit for bit.
``EcLsvrg`` writes ``h`` only where Q1 kept, so between refreshes Q1's input
``grad_w - h`` changes only there, and Q1 with a top-k stage selects from a
``TopKPool`` of each row's largest entries, rebuilt only after a refresh or
when the pool runs out. What is left of the step's whole-array work is
forming ``r = grad_w - h``, ``e += eta * r``, Q's selection on its (n, d)
messages and the refreshes.
Each optimizer validates its defining algebraic identities every step (error
conservation, maintained averages, dual feasibility) where the step changed
its state, and raises on NaN/Inf. Every optimizer offers the harness the
record protocol, defined once in ``_Recorded``: ``bits`` is ``k`` steps of
``bits_per_step``, ``error_norm()`` the l2 norm of the residuals ``e`` (0.0
for the oracles, which keep none), and ``certify()``, called at every
record, checks in full what a step maintains incrementally. By default it
checks nothing and returns None, as ``Lsvrg`` and ``EcGd`` keep nothing
incrementally. ``EcLsvrg.certify`` checks ``h`` for NaN/Inf and ``h_avg``
against the node mean of ``h`` over all n d entries; ``EcDual.certify`` runs
the O(N d) surrogate and feasibility checks and ``VanillaDual.certify`` the
surrogate check, each returning the aggregate, which the record reuses for
the duality gap. A surrogate check's tolerance scales with the aggregate
(see ``_check_surrogate``). ``examples_per_step``, the examples a step reads
(n, or N for ``EcGd``'s full pass), sets the epoch. The last step is always
recorded, so a completed run certifies its own internal consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import compressors as comp
from .dataset import Partition
from .problem import COMPOSITE, SMOOTH, DualProblem, PrimalProblem, ProblemConstants, logistic_grad
from .rng import NodeDraws, node_streams, split_rng


class NumericalError(RuntimeError):
    """A state vector left the floating-point range (NaN or infinity)."""


class InvariantError(RuntimeError):
    """A runtime identity that should hold exactly (or near-exactly) failed."""


def _require_finite(name: str, arr: np.ndarray, k: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{name} became non-finite at step {k}")


def _finite_row_peaks(name: str, magnitude: np.ndarray, k: int) -> np.ndarray:
    """Each node's largest entry of ``magnitude``, the ``|.|`` of an (n, d) array.

    Raises ``NumericalError`` naming ``name``, step ``k`` and the first node
    whose row holds NaN or an infinity: such a row has a non-finite peak.
    """
    peak = np.max(magnitude, axis=1, initial=0.0)
    nonfinite = ~np.isfinite(peak)
    if nonfinite.any():
        raise NumericalError(f"{name} became non-finite at step {k}, node {int(np.argmax(nonfinite))}")
    return peak


def _compress_with_feedback(
    spec: comp.CompressorSpec, t: np.ndarray, uniforms: NodeDraws, k: int
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Compress the (n, d) node messages t in one call; return (kept, values, residual).

    ``kept`` and ``values`` are ``comp._compress``'s result. Node tau draws
    from stream tau of ``uniforms``. For a sparsifier the residual
    ``t - Q(t)`` is t itself, rewritten at the kept positions only: off them
    Q(t) is +0 and ``t - 0 == t``. Conservation is verified where Q wrote:
    ``|residual + output - t|`` may exceed no slack, which is 0 for kinds
    that copy kept coordinates verbatim and 1e-12 (1 + the node's largest
    entry) for quantizers. A NaN round trip is left to the callers'
    finiteness checks.
    """
    magnitude = np.abs(t)
    peak = _finite_row_peaks("compressor input", magnitude, k)
    kept, y = comp._compress(spec, t, uniforms, magnitude)
    sent = t if kept is None else t.take(kept)
    e_sent = sent - y
    round_trip = e_sent + y
    off = np.flatnonzero(round_trip != sent)
    if off.size:
        node = (off if kept is None else kept.take(off)) // t.shape[1]
        slack = 0.0 if comp.copies_kept(spec) else 1e-12 * (1.0 + peak[node])
        broken = np.abs(round_trip.take(off) - sent.take(off)) > slack
        if broken.any():
            tau = int(node[np.argmax(broken)])
            raise InvariantError(f"error conservation broken at step {k}, node {tau}")
    if kept is None:
        return None, y, e_sent
    np.put(t, kept, e_sent)
    return kept, y, t


class _Recorded:
    """The record protocol ``harness._run`` reads, shared by every optimizer.

    An optimizer sets ``k``, its step count, and ``bits_per_step``, and sets
    ``e`` to its (n, d) error-feedback residuals if it keeps any.
    """

    e: Optional[np.ndarray] = None

    def certify(self) -> Optional[np.ndarray]:
        """Nothing to check: the step keeps no state up to date incrementally."""

    def error_norm(self) -> float:
        """The l2 norm of the residuals ``e``; 0.0 without any."""
        return 0.0 if self.e is None else float(np.sqrt(np.sum(self.e**2)))

    @property
    def bits(self) -> float:
        """The bits communicated: one product, so exact whatever the cost per step."""
        return self.k * self.bits_per_step


def _node_mean(kept: Optional[np.ndarray], values: np.ndarray, shape: tuple) -> np.ndarray:
    """The mean over nodes of a ``comp._compress`` result on an (n, d) batch.

    Either way each coordinate sums its nodes in node order and divides by
    n, as ``mean(axis=0)`` of the dense output does.
    """
    if kept is None:
        return values.mean(axis=0)
    n, d = shape
    return np.bincount(kept % d, values, d) / n


def _example_sampler(seed: int, part: Partition) -> Callable[[], np.ndarray]:
    """A function giving each step's n global example indices: node tau's is one
    ``integers(m)`` draw of stream ("sample", tau), drawn ahead, plus ``tau m``."""
    def fill(stream: np.random.Generator, out: np.ndarray) -> None:
        out[...] = stream.integers(part.m, size=out.shape)

    draws = NodeDraws(node_streams(seed, "sample", part.n), fill, np.int64)
    offset = np.arange(part.n) * part.m
    return lambda: draws.draw(part.n, 1)[:, 0] + offset


def _check_primal_step(eta: Optional[float] = None, p: Optional[float] = None) -> None:
    """Raise unless a given step size ``eta`` is >= 0 and a given refresh probability ``p`` in (0, 1]."""
    if eta is not None and eta < 0:
        raise ValueError("step size must be nonnegative")
    if p is not None and not 0 < p <= 1:
        raise ValueError(f"refresh probability must be in (0, 1], got {p}")


def _check_shift_average(
    k: int, h: np.ndarray, h_avg: np.ndarray, peak: float, cols: Optional[np.ndarray] = None
) -> None:
    """Raise unless ``h_avg`` is the node mean of the shift vectors ``h`` to 1e-12 relative.

    ``peak`` is the largest ``|h|``, which scales the tolerance. ``cols``, if
    given, are the columns of the full arrays that ``h`` and ``h_avg`` hold.
    """
    drift = np.abs(h_avg - h.mean(axis=0))
    if np.max(drift, initial=0.0) > 1e-12 * max(1.0, peak):
        col = int(np.argmax(drift))
        col = col if cols is None else int(cols[col])
        raise InvariantError(f"shift average drifted at step {k}, column {col}")


@dataclass
class LsvrgStepInfo:
    sampled: np.ndarray  # global example index drawn by each node
    y_kept: Optional[np.ndarray]  # flat positions Q kept in the (n, d) messages; None for a dense Q
    y_values: np.ndarray  # Q's output at y_kept, or its dense (n, d) output
    x_half: np.ndarray
    h_avg_prev: np.ndarray


class EcLsvrg(_Recorded):
    """Loopless SVRG with error feedback and learned per-node shifts.

    Each node compresses its step ``eta * g + e`` with Q, feeding the residual
    back into ``e``, and separately compresses the shift correction with Q1 so
    that ``h_tau`` learns the node gradient at the reference point; the shifts
    start at the node gradients of the starting point 0. Bits are
    accounted per node per step as cost(Q) + cost(Q1) + 1 (the refresh flag).

    Each step forms the shift residual ``r = grad_w - h`` once; it is Q1's
    input. Off the sampled columns' stored entries ``g`` is ``r`` (plus the
    l2 drift in smooth mode), so ``t = eta * g + e`` is formed in place in
    ``e`` and re-formed at those entries; a sparsifying Q then rewrites ``e``
    only at the k coordinates it keeps. Between refreshes ``r`` changes only
    where Q1 kept, so a Q1 with a top-k stage takes its picks from a
    ``TopKPool``, which a refresh resets. The step checks the shift average
    on the columns Q1 kept, where alone ``h`` and ``h_avg`` changed;
    ``certify`` checks it in full.
    """

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
        _check_primal_step(eta, p)
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
        self._q1_pool = comp.pool_for(self.q1, d)
        self.k = 0
        self.examples_per_step = n
        self.bits_per_step = problem.n * (
            comp.bit_cost(self.q, d) + comp.bit_cost(self.q1, d) + 1.0
        )
        self._sample = _example_sampler(seed, problem.part)
        self._q_uniforms = NodeDraws(node_streams(seed, "compress", n))
        self._q1_uniforms = NodeDraws(node_streams(seed, "compress_shift", n))
        self._coin = split_rng(seed, "coin")

    def certify(self) -> None:
        """Check over all n d entries that h is finite and that ``h_avg`` is
        the node mean of h to 1e-12 relative to max |h|.

        A sparsifying Q1 writes h only where it kept coordinates, and the step
        checks h and the shift average only there; the harness calls this at
        every record, and so does the step when Q1 is dense and wrote all of h.
        A non-finite h names its first bad node.
        """
        peak = _finite_row_peaks("shift vectors", np.abs(self.h), self.k)
        _check_shift_average(self.k, self.h, self.h_avg, float(peak.max()))

    def step(self) -> LsvrgStepInfo:
        pr = self.problem
        eta = self.eta
        design = pr._design
        x, w, e = self.x, self.w, self.e
        shape = e.shape

        sampled = self._sample()
        node, at, a = design.column_entries(sampled)
        cols, b = design.block(len(sampled), at, a), design.b[sampled]
        dc = logistic_grad(cols @ x, b) - logistic_grad(cols @ w, b)
        # g = dc * col + grad_w - h, which off a column's stored entries is r
        # bit for bit (dc * 0 + grad_w == grad_w): form t = eta * g + e in e
        # from r, then re-form it at the entries in that order.
        r = self.grad_w - self.h
        g_at = dc[node] * a + self.grad_w.take(at) - self.h.take(at)
        t_at = e.take(at)
        if pr.mode == SMOOTH:
            l2_drift = pr.lam2 * (x - w)
            g_at += l2_drift[at % shape[1]]
            e += eta * (r + l2_drift)
        else:
            e += eta * r
        t_at += eta * g_at
        np.put(e, at, t_at)
        y_kept, y, self.e = _compress_with_feedback(self.q, e, self._q_uniforms, self.k)
        z_kept, z = comp._compress(self.q1, r, self._q1_uniforms, pool=self._q1_pool)
        coin = bool(self._coin.random() < self.p)

        y_avg = _node_mean(y_kept, y, shape)
        z_avg = _node_mean(z_kept, z, shape)
        h_avg_prev = self.h_avg
        x_half = x - (y_avg + eta * self.h_avg)
        x_new = pr.prox_psi(x_half, eta)

        self.h_avg = h_avg_prev + z_avg
        if z_kept is None:
            self.h += z
            self.certify()
        else:
            h_kept = self.h.take(z_kept) + z
            _require_finite("shift vectors", h_kept, self.k)
            np.put(self.h, z_kept, h_kept)
            # h and h_avg changed only in the columns Q1 kept; certify checks the rest.
            cols = z_kept % shape[1]
            h_cols = self.h[:, cols]
            _check_shift_average(
                self.k, h_cols, self.h_avg[cols], float(np.max(np.abs(h_cols))), cols
            )
        if coin:
            self.w = x.copy()
            self.grad_w = pr.grad_f_nodes(self.w)
            if self._q1_pool is not None:
                self._q1_pool.reset()
        self.x = x_new
        self.k += 1
        _require_finite("iterate", self.x, self.k)
        return LsvrgStepInfo(
            sampled=sampled,
            y_kept=y_kept,
            y_values=y,
            x_half=x_half,
            h_avg_prev=h_avg_prev,
        )


class Lsvrg(_Recorded):
    """Uncompressed loopless SVRG, used as the identity-reduction oracle.

    Consumes the same sampling and coin streams as EcLsvrg under the same
    seed, so trajectories are directly comparable.
    """

    def __init__(
        self,
        problem: PrimalProblem,
        *,
        eta: float,
        p: float,
        seed: int,
    ):
        _check_primal_step(eta, p)
        d, n = problem.d, problem.n
        self.problem = problem
        self.eta = eta
        self.p = p
        self.x = np.zeros(d)
        self.w = self.x.copy()
        self.grad_w = problem.grad_f_nodes(self.w)
        self.k = 0
        self.examples_per_step = n
        self.bits_per_step = problem.n * (comp.bit_cost(comp.identity(), d) * 2 + 1.0)
        self._sample = _example_sampler(seed, problem.part)
        self._coin = split_rng(seed, "coin")

    def step(self) -> None:
        pr = self.problem
        n, eta = pr.n, self.eta
        design = pr._design
        x, w = self.x, self.w

        J = self._sample()
        cols, b = design.columns(J), design.b[J]
        dc = logistic_grad(cols @ x, b) - logistic_grad(cols @ w, b)
        g = dc[:, None] * cols + self.grad_w
        if pr.mode == SMOOTH:
            g = g + pr.lam2 * (x - w)
        coin = bool(self._coin.random() < self.p)
        x_half = x - eta * (g.sum(axis=0) / n)
        x_new = pr.prox_psi(x_half, eta)
        if coin:
            self.w = x.copy()
            self.grad_w = pr.grad_f_nodes(self.w)
        self.x = x_new
        self.k += 1
        _require_finite("iterate", self.x, self.k)


class EcGd(_Recorded):
    """Error-feedback full-gradient descent baseline (one full pass per step)."""

    def __init__(
        self,
        problem: PrimalProblem,
        compressor: comp.CompressorSpec,
        *,
        eta: float,
        seed: int,
    ):
        _check_primal_step(eta)
        d, n = problem.d, problem.n
        comp.validate_for_dimension(compressor, d)
        self.problem = problem
        self.q = compressor
        self.eta = eta
        self.x = np.zeros(d)
        self.e = np.zeros((n, d))
        self.k = 0
        self.examples_per_step = problem.part.retained  # a full pass
        self.bits_per_step = n * comp.bit_cost(compressor, d)
        self._q_uniforms = NodeDraws(node_streams(seed, "compress", n))

    def step(self) -> None:
        pr = self.problem
        eta = self.eta
        t_nodes = eta * pr.grad_f_nodes(self.x) + self.e
        kept, y, self.e = _compress_with_feedback(self.q, t_nodes, self._q_uniforms, self.k)
        x_half = self.x - _node_mean(kept, y, t_nodes.shape)
        self.x = pr.prox_psi(x_half, eta)
        self.k += 1
        _require_finite("iterate", self.x, self.k)


def _check_surrogate(name: str, opt, u: np.ndarray, aggregate: np.ndarray) -> None:
    """Raise unless a dual optimizer's surrogate ``u`` is within
    1e-10 max(1 + max |alpha|, max |aggregate|) of its aggregate.

    The aggregate ``A alpha / (lam N)`` scales with 1/lam, and so does the rounding
    a running sum of it collects. The O(N) dual max is taken only past the O(d) bound.
    """
    lag = np.max(np.abs(u - aggregate), initial=0.0)
    if lag > 1e-10 * np.max(np.abs(aggregate)) and lag > 1e-10 * (1.0 + np.max(np.abs(opt.alpha))):
        raise InvariantError(f"{name} drifted from A alpha at step {opt.k}")


@dataclass
class DualStepInfo:
    sampled: np.ndarray  # global example index drawn by each node
    delta_alpha: np.ndarray
    y_kept: Optional[np.ndarray]  # flat positions Q kept in the (n, d) messages; None for a dense Q
    y_values: np.ndarray  # Q's output at y_kept, or its dense (n, d) output
    x_new: np.ndarray


QUARTZ = "quartz"
SDCA = "sdca"


def _check_dual_step(variant: str, theta: float, m: int) -> None:
    """Raise unless ``variant`` is quartz or sdca and ``0 < theta <= 1/m``."""
    if variant not in (QUARTZ, SDCA):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 < theta <= 1.0 / m:
        raise ValueError(f"theta must be in (0, 1/m]; got {theta} with m={m}")


class EcDual(_Recorded):
    """Compressed primal-dual coordinate ascent (quartz and sdca variants).

    Each node updates one dual coordinate, compresses its contribution to the
    primal surrogate ``u`` with error feedback, and all nodes apply the same
    averaged update. Every step checks the identity ``u + mean(e) = v``, where
    ``v = (1/(lam N)) sum_j a_j alpha_j`` is kept up to date from the step's
    own n columns, and the feasibility of the n blocks it changed; so a step
    costs O(n d). ``certify`` checks the identity against a full
    ``dual_aggregate(alpha)`` and the feasibility of all N blocks.
    """

    def __init__(
        self,
        problem: DualProblem,
        compressor: comp.CompressorSpec,
        *,
        theta: float,
        seed: int,
        variant: str = QUARTZ,
    ):
        _check_dual_step(variant, theta, problem.part.m)
        d, n = problem.d, problem.part.n
        comp.validate_for_dimension(compressor, d)
        self.problem = problem
        self.q = compressor
        self.theta = theta
        self.variant = variant
        self.alpha = np.zeros(problem.N)
        self.x = np.zeros(d)
        self.v = problem.dual_aggregate(self.alpha)  # A alpha / (lam N)
        self.u = self.v.copy()
        self.e = np.zeros((n, d))
        self.k = 0
        self.examples_per_step = n
        self.bits_per_step = n * comp.bit_cost(compressor, d)
        self._sample = _example_sampler(seed, problem.part)
        self._q_uniforms = NodeDraws(node_streams(seed, "compress", n))

    def _check_feasible(self, blocks: np.ndarray) -> None:
        """Raise unless ``0 <= b_j alpha_j <= 1`` for every global index j in ``blocks``."""
        u = self.problem.labels[blocks] * self.alpha[blocks]
        bad = (u < -1e-12) | (u > 1 + 1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantError(
                f"dual feasibility violated at step {self.k}: block {blocks[i]} has b*alpha={u[i]}"
            )

    def certify(self) -> np.ndarray:
        """Check all N blocks for feasibility and the identity against ``dual_aggregate(alpha)``.

        Returns the aggregate it checked, so a caller can reuse the O(N d) product.
        """
        self._check_feasible(np.arange(self.problem.N))
        aggregate = self.problem.dual_aggregate(self.alpha)
        _check_surrogate("compressed surrogate", self, self.u + self.e.mean(axis=0), aggregate)
        return aggregate

    def step(self) -> DualStepInfo:
        pr = self.problem
        m = pr.part.m
        theta, lam = self.theta, pr.lam

        if self.variant == QUARTZ:
            x_new = (1.0 - theta) * self.x + theta * pr.gstar_grad(self.u)
        else:
            x_new = pr.gstar_grad(self.u)

        sampled = self._sample()
        cols = pr._design.columns(sampled)
        dphi = logistic_grad(cols @ x_new, pr.labels[sampled])
        delta_alpha = -theta * m * (self.alpha[sampled] + dphi)
        self.alpha[sampled] += delta_alpha
        contrib = (delta_alpha / (lam * m))[:, None] * cols
        t_nodes = contrib + self.e
        kept, y, self.e = _compress_with_feedback(self.q, t_nodes, self._q_uniforms, self.k)

        self.u = self.u + _node_mean(kept, y, t_nodes.shape)
        self.v = self.v + contrib.mean(axis=0)
        self.x = x_new
        self.k += 1
        _require_finite("dual vector", self.alpha[sampled], self.k)
        _require_finite("primal surrogate", self.u, self.k)
        self._check_feasible(sampled)
        _check_surrogate("compressed surrogate", self, self.u + self.e.mean(axis=0), self.v)
        return DualStepInfo(
            sampled=sampled,
            delta_alpha=delta_alpha,
            y_kept=kept,
            y_values=y,
            x_new=x_new,
        )


class VanillaDual(_Recorded):
    """Uncompressed quartz/sdca oracle sharing EcDual's sampling streams."""

    def __init__(
        self,
        problem: DualProblem,
        *,
        theta: float,
        seed: int,
        variant: str = QUARTZ,
    ):
        _check_dual_step(variant, theta, problem.part.m)
        self.problem = problem
        self.theta = theta
        self.variant = variant
        self.alpha = np.zeros(problem.N)
        self.x = np.zeros(problem.d)
        self.u = problem.dual_aggregate(self.alpha)
        self.k = 0
        self.examples_per_step = problem.part.n
        self.bits_per_step = problem.part.n * comp.bit_cost(comp.identity(), problem.d)
        self._sample = _example_sampler(seed, problem.part)

    def certify(self) -> np.ndarray:
        """Check ``u`` against ``dual_aggregate(alpha)`` with EcDual's tolerance.

        Returns the aggregate it checked, so a caller can reuse the O(N d) product.
        """
        aggregate = self.problem.dual_aggregate(self.alpha)
        _check_surrogate("primal surrogate", self, self.u, aggregate)
        return aggregate

    def step(self) -> None:
        pr = self.problem
        m = pr.part.m
        theta, lam = self.theta, pr.lam
        if self.variant == QUARTZ:
            x_new = (1.0 - theta) * self.x + theta * pr.gstar_grad(self.u)
        else:
            x_new = pr.gstar_grad(self.u)
        J = self._sample()
        cols = pr._design.columns(J)
        dphi = logistic_grad(cols @ x_new, pr.labels[J])
        da = -theta * m * (self.alpha[J] + dphi)
        self.alpha[J] += da
        y_nodes = (da / (lam * m))[:, None] * cols
        self.u = self.u + y_nodes.mean(axis=0)
        self.x = x_new
        self.k += 1
        _require_finite("dual vector", self.alpha[J], self.k)


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
    """Worst-case admissible step size for the composite or smooth regime; inf on zero data."""
    if not 0 < delta <= 1 or not 0 < delta1 <= 1:
        raise ValueError("contraction parameters must be in (0, 1]")
    _check_primal_step(p=p)
    lf, lbar, l = c.l_f, c.l_bar, c.l
    rem = 1.0 - delta
    boost = 1.0 + 2.0 * p / delta1
    if regime == COMPOSITE:
        t = (105.0 * rem / delta) * (
            4.0 * lbar / delta + l + (16.0 * lbar * p / (delta * delta1)) * boost
        )
        return _ratio(1.0, t + 4.0 * lf + 42.0 * l / n)
    if regime == SMOOTH:
        return min(
            _ratio(1.0, 4.0 * lf + 33.0 * l / n),
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

