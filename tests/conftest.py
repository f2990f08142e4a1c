"""Session-wide fixtures: the shared synthetic benchmark problem and its constants."""

import pytest

from ecvr import compressors as comp
from ecvr.dataset import partition
from ecvr.harness import synth_dataset
from ecvr.problem import COMPOSITE, SMOOTH, DualProblem, PrimalProblem, compute_constants, logistic_grad

# One master seed drives the benchmark data and every optimizer stream.
BENCH_SEED = 20240613
BENCH_SHAPE = (200, 50, 0.3)  # examples, features, column density
BENCH_SCALE = 0.3  # column norms; keeps the dual step parameter usable


@pytest.fixture(scope="session")
def bench_dataset():
    n_examples, d, sparsity = BENCH_SHAPE
    return synth_dataset(n_examples, d, sparsity, seed=BENCH_SEED, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def bench_partition(bench_dataset):
    return partition(bench_dataset, 4)


@pytest.fixture(scope="session")
def bench_primal(bench_dataset, bench_partition):
    return PrimalProblem(bench_dataset, bench_partition, lam1=1e-3, lam2=1e-3, mode=COMPOSITE)


@pytest.fixture(scope="session")
def bench_dual(bench_primal):
    return DualProblem(bench_primal)


@pytest.fixture(scope="session")
def bench_constants(bench_primal):
    return compute_constants(bench_primal)


def lsvrg_step_messages(opt):
    """Take one ``EcLsvrg`` step; return its info and the dense (n, d) g, t and y.

    The step never forms g or t as arrays. Here they come from copies of the
    state before the step, by the dense formulas
    ``g = dc * col + grad_w - h`` (plus ``lam2 (x - w)`` in smooth mode) and
    ``t = eta g + e``; y is the step's kept positions and values scattered.
    """
    x, w, e, grad_w, h = (a.copy() for a in (opt.x, opt.w, opt.e, opt.grad_w, opt.h))
    info = opt.step()
    pr = opt.problem
    cols, b = pr._design.columns(info.sampled), pr._design.b[info.sampled]
    dc = logistic_grad(cols @ x, b) - logistic_grad(cols @ w, b)
    g = dc[:, None] * cols + grad_w - h
    if pr.mode == SMOOTH:
        g = g + pr.lam2 * (x - w)
    t = opt.eta * g + e
    return info, g, t, comp._dense(info.y_kept, info.y_values, e.shape)
