"""The benchmark's workloads and their seeded LIBSVM inputs.

The inputs come from this file's own planted logistic model, not from
``ecvr.harness.synth_dataset``, so a change to the program cannot silently
change what the benchmark feeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from ecvr.harness import PRIMAL_ALGOS, RunConfig


@dataclass(frozen=True)
class Workload:
    """One benchmark cell: a data shape, an optimizer and a gap to reach."""

    name: str
    why: str
    N: int  # examples
    d: int  # features
    density: float  # stored entries per example, as a share of d
    n: int  # simulated nodes
    algo: str
    compressor: str
    epochs: float
    cadence: int  # optimizer steps between trace records
    gap_rel: float  # time_to_gap_s ends at this share of the watched gap at x = 0
    sparse_design: bool  # whether the program must take its sparse _Design branch
    lam1: float = 1e-3
    lam2: float = 1e-3
    eta: float | str = "theory"
    p: float | None = None  # refresh probability; None = the compressor's delta

    @property
    def primal(self) -> bool:
        return self.algo in PRIMAL_ALGOS

    def run_config(self, data: str, seed: int, out_csv: str, out_json: str) -> RunConfig:
        return RunConfig(
            algo=self.algo,
            data=data,
            synth=None,
            n=self.n,
            compressor=self.compressor,
            eta=self.eta,
            p=self.p,
            lambda1=self.lam1,
            lambda2=self.lam2,
            epochs=self.epochs,
            seed=seed,
            cadence=self.cadence,
            out_csv=out_csv,
            out_json=out_json,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lsvrg-topk-dense",
            why="headline EC-LSVRG on the dense design: per-node Python step loop, "
            "top-k, and grad_f_node on every refresh",
            N=4000,
            d=500,
            density=0.05,
            n=20,
            algo="ec_lsvrg",
            compressor="top_k:5",
            eta=1.0,
            epochs=10.0,
            cadence=20,
            gap_rel=0.05,
            sparse_design=False,
        ),
        Workload(
            name="quartz-dither-dense",
            why="EC-Quartz on the same data: random quantizer, per-step O(N d) "
            "dual_aggregate self-check, gstar_grad instead of prox, two designs",
            N=4000,
            d=500,
            density=0.05,
            n=20,
            algo="ec_quartz",
            compressor="dither",
            epochs=10.0,
            cadence=20,
            gap_rel=0.025,
            sparse_design=False,
        ),
        Workload(
            name="lsvrg-rtopk-sparse",
            why="EC-LSVRG at N*d above the densify limit: sparse design, compose "
            "compressor on d=10000, sparse compute_constants as the largest setup cost",
            N=10000,
            d=10000,
            density=1e-3,
            n=8,
            algo="ec_lsvrg",
            compressor="rtop_k:20",
            eta=30.0,
            p=0.5,
            lam1=1e-5,
            lam2=1e-4,
            epochs=0.1,
            cadence=1,
            gap_rel=0.42,
            sparse_design=True,
        ),
    )
}


def generate(w: Workload, seed: int) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Planted logistic model: d x N features with unit-norm example columns.

    Each example stores ``round(density * d)`` distinct coordinates with
    absolute-Gaussian values. Features are nonnegative, as in most LIBSVM
    sets (counts, tf-idf, indicators), which gives the Gram matrix a dominant
    eigenvalue: power iteration in ``compute_constants`` then takes about the
    same time on every seed, where zero-mean features made it vary by 2x.
    Labels are drawn from the logistic model of a standard normal weight
    vector, centred so that its share along that dominant direction, which
    tilts every margin alike, does not change the problem from seed to seed.
    The stream depends only on the seed and the shape, so workloads with the
    same shape share their data.
    """
    rng = np.random.default_rng([seed, w.N, w.d, round(w.density * 1e9)])
    nnz = max(1, round(w.density * w.d))
    rows = np.concatenate([np.sort(rng.choice(w.d, size=nnz, replace=False)) for _ in range(w.N)])
    vals = np.abs(rng.standard_normal(w.N * nnz))
    vals /= np.repeat(np.sqrt(np.add.reduceat(vals**2, np.arange(0, w.N * nnz, nnz))), nnz)
    indptr = np.arange(0, w.N * nnz + 1, nnz)
    features = sparse.csc_matrix((vals, rows, indptr), shape=(w.d, w.N))
    x_true = rng.standard_normal(w.d)
    x_true -= x_true.mean()
    margins = features.T @ x_true
    labels = np.where(rng.random(w.N) < 1.0 / (1.0 + np.exp(-margins)), 1.0, -1.0)
    return features, labels


def write_libsvm(features: sparse.csc_matrix, labels: np.ndarray, path: Path) -> None:
    """``label idx:val ...`` with 1-based indices and round-tripping floats."""
    lines = []
    for j in range(features.shape[1]):
        start, stop = features.indptr[j], features.indptr[j + 1]
        pairs = " ".join(
            f"{i + 1}:{v!r}"
            for i, v in zip(features.indices[start:stop].tolist(), features.data[start:stop].tolist())
        )
        lines.append(f"{'+1' if labels[j] > 0 else '-1'} {pairs}\n")
    path.write_text("".join(lines), encoding="utf-8")


def primal_objective(w: Workload, features: sparse.csc_matrix, labels: np.ndarray, x) -> float:
    """Mean logistic loss plus the elastic net, over the examples the nodes keep."""
    kept = (w.N // w.n) * w.n
    x = np.asarray(x, dtype=np.float64)
    z = features[:, :kept].T @ x
    loss = float(np.mean(np.logaddexp(0.0, -labels[:kept] * z)))
    return loss + w.lam1 * float(np.abs(x).sum()) + 0.5 * w.lam2 * float(x @ x)


LOG2 = math.log(2.0)  # the objective at x = 0
