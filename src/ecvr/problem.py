"""Regularized logistic regression in primal and primal-dual form.

The objective is mean logistic loss plus ``lam1 ||x||_1 + lam2/2 ||x||^2``.
Two placements of the l2 term are supported so that the step-size theory's
assumptions hold literally in each regime:

* ``composite`` mode keeps the losses smooth-only and puts both regularizers
  in the prox term, which is then lam2-strongly convex;
* ``smooth`` mode (lam1 = 0) folds the l2 term into every loss, leaving no
  prox term and a lam2-strongly convex smooth objective.

The dual formulation works on the same objective, in either mode, written as
``(1/N) sum phi_j(a_j' x) + lam g(x)`` with ``g(x) = 1/2 ||x||^2 + c ||x||_1``,
``lam = lam2``, ``c = lam1/lam2`` and ``phi_j(t) = logistic_loss(t, b_j)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.special import expit, xlogy

from .dataset import Dataset, Partition, column_squares

COMPOSITE = "composite"
SMOOTH = "smooth"

# Feature matrices up to this many entries also keep a dense copy for the column gather.
_DENSE_LIMIT = 8_000_000


class ConvergenceError(RuntimeError):
    """An iterative solve spent its budget, or its residual stopped being finite.

    ``residual`` is the solve's last residual and ``iterations`` the
    iterations it took.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def logistic_loss(t, b):
    """log(1 + exp(-b t)), the loss of margin t under label b."""
    return np.logaddexp(0.0, -b * t)


def logistic_grad(t, b):
    """d/dt log(1 + exp(-b t)) = -b * sigmoid(-b t)."""
    return -b * expit(-b * t)


def prox_elastic_net(v: np.ndarray, eta: float, lam1: float, lam2: float) -> np.ndarray:
    """argmin_y 1/2 ||y - v||^2 + eta (lam1 ||y||_1 + lam2/2 ||y||^2)."""
    return soft_threshold(v, eta * lam1) / (1.0 + eta * lam2)


def _column_view(matrix: sparse.csc_matrix, cols: slice) -> sparse.csc_matrix:
    """``matrix[:, cols]`` as a CSC matrix whose data and indices are views of matrix's."""
    indptr = matrix.indptr[cols.start : cols.stop + 1]
    lo, hi = indptr[0], indptr[-1]
    data, indices = matrix.data[lo:hi], matrix.indices[lo:hi]
    shape = (matrix.shape[0], cols.stop - cols.start)
    block = sparse.csc_matrix((data, indices, indptr - lo), shape=shape)
    # The constructor copies a slice much smaller than its base; take the views back.
    block.data, block.indices = data, indices
    return block


class _Design:
    """Shared view of the retained examples.

    The CSC matrix ``A``, a view of the dataset's first N columns, serves
    every full pass at O(nnz) cost. ``Dataset`` keeps one stored entry per
    coordinate, and the EC-LSVRG step relies on it: it re-forms its message
    at each stored entry of a sampled column. A's CSR transpose ``A_t``,
    built once, gives the margins, and ``node_A[tau]``, node tau's columns
    as a CSC matrix, gives that node's combinations (node gradients and node
    Grams). All share the dataset's arrays. The dense copy
    ``A_dense``, kept when ``N * d`` is at most ``_DENSE_LIMIT``, serves only
    ``columns``, which is faster from it than from the sparse matrix.
    """

    def __init__(self, dataset: Dataset, part: Partition):
        N = part.retained
        self.N = N
        self.d = dataset.d
        self.n = part.n
        self.A = _column_view(dataset.features, slice(0, N))
        self.b = np.asarray(dataset.labels[:N], dtype=np.float64)
        self.A_dense = self.A.toarray() if self.d * N <= _DENSE_LIMIT else None
        self.A_t = self.A.T
        self._col_nnz = np.diff(self.A.indptr)
        self._node_cols = [part.node_slice(tau) for tau in range(self.n)]
        self.node_A = [_column_view(self.A, cols) for cols in self._node_cols]

    def margins(self, x: np.ndarray) -> np.ndarray:
        return self.A_t @ x

    def columns(self, J) -> np.ndarray:
        """The (len(J), d) block whose row r is the column of example J[r].

        Without the dense copy, it is ``block`` of ``column_entries(J)``.
        """
        if self.A_dense is not None:
            return self.A_dense[:, J].T
        _, flat, values = self.column_entries(J)
        return self.block(len(J), flat, values)

    def block(self, rows: int, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The C-ordered (rows, d) block holding ``values`` at the flat positions ``flat``.

        The values are accumulated into a zeroed block in the order given;
        from ``column_entries(J)`` this gives the bytes of ``A[:, J].T.toarray()``.
        """
        return np.bincount(flat, values, rows * self.d).reshape(rows, self.d)

    def column_entries(self, J) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of the J columns, column by column in storage order.

        Returns, per entry, the r with J[r] its column, its flat position
        ``r * d + row`` in the (len(J), d) block of ``columns(J)``, and its value.
        """
        counts = self._col_nnz[J]
        node = np.repeat(np.arange(len(counts)), counts)
        # Position of each gathered entry in A.data: its column's start plus its rank there.
        shift = self.A.indptr[J] - (np.cumsum(counts) - counts)
        pos = np.arange(node.size) + np.repeat(shift, counts)
        flat = node * self.d + self.A.indices[pos]
        return node, flat, self.A.data[pos]

    def combine(self, coef: np.ndarray) -> np.ndarray:
        """Return A @ coef as a dense vector."""
        return self.A @ coef

    def combine_nodes(self, coef: np.ndarray) -> np.ndarray:
        """The (n, d) block whose row tau is ``A[:, node_slice(tau)] @ coef[node_slice(tau)]``.

        One product per node, with ``node_A[tau]``.
        """
        out = np.empty((self.n, self.d))
        for tau, (block, cols) in enumerate(zip(self.node_A, self._node_cols)):
            out[tau] = block @ coef[cols]
        return out


@dataclass
class PrimalProblem:
    """Finite-sum view used by the gradient methods."""

    dataset: Dataset
    part: Partition
    lam1: float
    lam2: float
    mode: str = COMPOSITE

    def __post_init__(self) -> None:
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.mode not in (COMPOSITE, SMOOTH):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == SMOOTH and self.lam1 != 0:
            raise ValueError("smooth mode requires lam1 = 0")
        self._design = _Design(self.dataset, self.part)

    @property
    def d(self) -> int:
        return self._design.d

    @property
    def n(self) -> int:
        return self.part.n

    @property
    def m(self) -> int:
        return self.part.m

    # -- loss derivatives ---------------------------------------------------

    def grad_fi(self, x: np.ndarray, tau: int, i: int) -> np.ndarray:
        """Gradient of one example's loss (plus the l2 term in smooth mode)."""
        j = self.part.example_index(tau, i)
        col = self._design.columns([j])[0]
        g = logistic_grad(col @ x, self._design.b[j]) * col
        if self.mode == SMOOTH:
            g = g + self.lam2 * x
        return g

    def grad_f_nodes(self, x: np.ndarray) -> np.ndarray:
        """The (n, d) node gradients, row tau the mean over node tau's examples.

        One margins pass and one pass over the stored entries serve every node.
        """
        coef = logistic_grad(self._design.margins(x), self._design.b) / self.part.m
        g = self._design.combine_nodes(coef)
        if self.mode == SMOOTH:
            g = g + self.lam2 * x
        return g

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        coef = logistic_grad(self._design.margins(x), self._design.b) / self._design.N
        g = self._design.combine(coef)
        if self.mode == SMOOTH:
            g = g + self.lam2 * x
        return g

    # -- objective values ---------------------------------------------------

    def loss_value(self, x: np.ndarray) -> float:
        return float(np.mean(logistic_loss(self._design.margins(x), self._design.b)))

    def primal_value(self, x: np.ndarray, loss: float | None = None) -> float:
        """The objective at x; ``loss`` is ``loss_value(x)`` if the caller already has it."""
        # Same total in both modes; only the smooth/prox split differs.
        return (
            (self.loss_value(x) if loss is None else loss)
            + self.lam1 * float(np.abs(x).sum())
            + 0.5 * self.lam2 * float(x @ x)
        )

    def prox_psi(self, v: np.ndarray, eta: float) -> np.ndarray:
        """The prox of ``eta * psi`` at v: v itself in smooth mode (psi is zero) and at eta 0."""
        if eta < 0:
            raise ValueError(f"prox step must be nonnegative, got {eta}")
        if self.mode == SMOOTH or eta == 0:
            return v
        return prox_elastic_net(np.asarray(v, dtype=np.float64), eta, self.lam1, self.lam2)


@dataclass
class DualProblem:
    """Primal-dual view of a primal problem, one scalar dual variable per example.

    It shares the primal problem's design and writes its regularizer as
    ``lam g`` with ``lam = lam2`` and ``c = lam1 / lam2``.
    """

    primal: PrimalProblem
    gamma: ClassVar[float] = 4.0  # logistic losses are (1/gamma)-smooth for +-1 labels

    def __post_init__(self) -> None:
        if self.primal.lam2 <= 0:
            raise ValueError("lam2 must be positive (it scales the dual map)")
        self.lam = self.primal.lam2
        self.c = self.primal.lam1 / self.primal.lam2
        self.part = self.primal.part
        self._design = self.primal._design

    @property
    def d(self) -> int:
        return self._design.d

    @property
    def N(self) -> int:
        return self._design.N

    @property
    def labels(self) -> np.ndarray:
        return self._design.b

    # -- conjugates of the smooth losses -------------------------------------

    def phi_conj_neg(self, alpha: np.ndarray, b: np.ndarray) -> np.ndarray:
        """phi*(-alpha) for feasible blocks, with 0 log 0 = 0."""
        u = b * alpha
        if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
            bad = int(np.argmax((u < -1e-12) | (u > 1 + 1e-12)))
            raise ValueError(
                f"infeasible dual block {bad} (node {bad // self.part.m},"
                f" local {bad % self.part.m}): b*alpha = {u[bad]}"
            )
        u = np.clip(u, 0.0, 1.0)
        return xlogy(u, u) + xlogy(1.0 - u, 1.0 - u)

    # -- the strongly convex regularizer g and its conjugate ------------------

    def g_value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ x) + self.c * float(np.abs(x).sum())

    def gstar_grad(self, u: np.ndarray) -> np.ndarray:
        return soft_threshold(np.asarray(u, dtype=np.float64), self.c)

    def gstar_value(self, u: np.ndarray) -> float:
        # g* evaluated at its own maximizer soft(u, c); consistent with
        # gstar_grad through the Fenchel equality g(y*) + g*(u) = <u, y*>.
        y = self.gstar_grad(u)
        return float(u @ y) - self.g_value(y)

    # -- primal/dual objectives ----------------------------------------------

    def dual_aggregate(self, alpha: np.ndarray) -> np.ndarray:
        """(1/(lam N)) sum_j a_j alpha_j, the argument fed to grad g*."""
        return self._design.combine(np.asarray(alpha) / (self.lam * self.N))

    def dual_value(self, alpha: np.ndarray, aggregate: np.ndarray | None = None) -> float:
        """The dual objective; ``aggregate`` is ``dual_aggregate(alpha)`` if the caller already has it."""
        conj = self.phi_conj_neg(np.asarray(alpha, dtype=np.float64), self._design.b)
        if aggregate is None:
            aggregate = self.dual_aggregate(alpha)
        return -self.lam * self.gstar_value(aggregate) - float(np.mean(conj))

    def duality_gap(
        self,
        x: np.ndarray,
        alpha: np.ndarray,
        *,
        loss: float | None = None,
        aggregate: np.ndarray | None = None,
    ) -> float:
        """``primal.primal_value`` minus the dual value, so the duality gap and the
        primal gap read one P(x); a passed ``loss`` or ``aggregate`` saves its O(N d) product."""
        return self.primal.primal_value(x, loss) - self.dual_value(alpha, aggregate)


@dataclass(frozen=True)
class ProblemConstants:
    """Data-dependent smoothness and curvature constants."""

    r_m: float  # max example column norm
    r_bar_sq: float  # max over nodes of lambda_max(node Gram) / m
    r_sq: float  # lambda_max(full Gram) / N
    l: float  # per-example smoothness
    l_bar: float  # per-node smoothness
    l_f: float  # full-objective smoothness
    mu: float  # strong convexity
    # How the spectral radii were computed (see compute_constants); not a constant.
    spectral_solves: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def r(self) -> float:
        return self.r_sq**0.5


@dataclass(frozen=True)
class EigenSolve:
    """A largest-eigenvalue estimate and how the iteration reached it."""

    value: float
    steps: int  # operator products taken
    rel_change: float  # the estimate's last relative change; 0 at breakdown, where it is exact


def lanczos(
    matvec,
    dim: int,
    tol: float = 1e-12,
    max_iter: int = 1_000,
    seed: int = 0,
) -> EigenSolve:
    """Largest eigenvalue of a symmetric PSD operator given as a matvec.

    The Lanczos three-term recurrence, without reorthogonalization, from a
    start vector drawn from a fixed seed; it keeps two vectors of ``dim``.
    The estimate after k steps is the largest eigenvalue of the k x k
    tridiagonal, which is at least what k steps of power iteration from the
    same vector give. It stops when the estimate changes by at most ``tol``
    relative, or on breakdown (the Krylov space is invariant, so the
    estimate is exact). A non-finite estimate raises at once, and so does
    a budget of ``max_iter`` steps spent; each step solves its tridiagonal
    afresh, at O(k^3), which the budget bounds.
    """
    v = np.random.default_rng(seed).standard_normal(dim)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(dim)
    # The tridiagonal's lower triangle, which numpy's eigvalsh reads, grown
    # in place. scipy.linalg has a tridiagonal solver, but importing it
    # costs the process about 6 MB.
    tridiagonal = np.zeros((16, 16))
    beta = 0.0
    estimate = -math.inf
    rel_change = math.inf
    for step in range(1, max_iter + 1):
        w = matvec(v) - beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ConvergenceError(
                f"Lanczos estimate is {alpha} at iteration {step};"
                " the operator overflows or holds a non-finite entry",
                rel_change,
                step,
            )
        tridiagonal[step - 1, step - 1] += alpha  # onto the stored zero: -0.0 enters as +0.0
        last, estimate = estimate, float(np.linalg.eigvalsh(tridiagonal[:step, :step])[-1])
        rel_change = abs(estimate - last) / max(abs(estimate), 1e-300)
        if beta == 0.0:
            return EigenSolve(estimate, step, 0.0)
        if rel_change <= tol:
            return EigenSolve(estimate, step, rel_change)
        if step == len(tridiagonal):
            tridiagonal = np.pad(tridiagonal, (0, step))
        tridiagonal[step, step - 1] = beta
        v_prev, v = v, w / beta
    raise ConvergenceError(
        f"Lanczos stalled at relative change {rel_change:.3e} after {max_iter} iterations",
        rel_change,
        max_iter,
    )


def gram_top_eigenvalue(block: sparse.spmatrix) -> EigenSolve:
    """The largest eigenvalue of B's Gram operator, by ``lanczos`` on its smaller side.

    That is B'B when B has fewer columns than rows, and B B' otherwise;
    both have the same nonzero spectrum.
    """
    rows, cols = block.shape
    block_t = block.T  # built once: each ``.T`` is a new object
    if cols < rows:
        return lanczos(lambda v: block_t @ (block @ v), cols)
    return lanczos(lambda v: block @ (block_t @ v), rows)


def compute_constants(problem: PrimalProblem) -> ProblemConstants:
    """Column-norm and Gram-spectrum constants for step-size formulas.

    ``r_m`` comes from an exact column scan, and the spectral radii from
    ``gram_top_eigenvalue`` of the full design and of each node's columns.
    ``spectral_solves`` records the full Gram's solve and that of the node
    which took the most steps.
    """
    design = problem._design
    part = problem.part
    A, m = design.A, part.m

    col_sq = column_squares(A)
    r_m = float(np.sqrt(col_sq.max()))

    full = gram_top_eigenvalue(A)
    nodes = [gram_top_eigenvalue(block) for block in design.node_A]
    worst = max(range(part.n), key=lambda tau: nodes[tau].steps)
    r_sq = full.value / design.N
    r_bar_sq = max(node.value for node in nodes) / m

    smooth_shift = problem.lam2 if problem.mode == SMOOTH else 0.0

    return ProblemConstants(
        r_m=r_m,
        r_bar_sq=r_bar_sq,
        r_sq=r_sq,
        l=float(col_sq.max()) / 4.0 + smooth_shift,
        l_bar=r_bar_sq / 4.0 + smooth_shift,
        l_f=r_sq / 4.0 + smooth_shift,
        mu=problem.lam2,
        spectral_solves={
            "full": asdict(full),
            "worst_node": {"node": worst, **asdict(nodes[worst])},
        },
    )
