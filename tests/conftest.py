"""Session-wide fixtures: the shared synthetic benchmark problem and its constants."""

import pytest

from ecvr.dataset import partition
from ecvr.harness import synth_dataset
from ecvr.problem import COMPOSITE, DualProblem, PrimalProblem, compute_constants

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
