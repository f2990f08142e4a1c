"""LIBSVM-format data and equal-size partitioning of examples across nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Dataset:
    """Sparse design matrix with one column per example and labels in {-1, +1}.

    ``features`` is d x N in compressed-sparse-column layout so that a node's
    examples are a contiguous column slice.
    """

    features: sparse.csc_matrix
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = sparse.csc_matrix(self.features)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.shape[1] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[1]} feature columns but {self.labels.shape[0]} labels"
            )
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def d(self) -> int:
        return self.features.shape[0]

    @property
    def n_examples(self) -> int:
        return self.features.shape[1]

    def column_norms(self) -> np.ndarray:
        sq = np.asarray(self.features.multiply(self.features).sum(axis=0)).ravel()
        return np.sqrt(sq)


def parse_libsvm(path: str) -> Dataset:
    """Read ``label idx:val idx:val ...`` lines with 1-based feature indices.

    Any label <= 0 maps to -1, anything else to +1. The feature dimension is
    the largest index seen. Blank lines are skipped; anything else that does
    not parse raises ``LibsvmFormatError`` with its line number.
    """
    labels: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    d = 0
    col = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmFormatError(line_no, f"bad label {tokens[0]!r}") from None
            labels.append(-1.0 if label <= 0 else 1.0)
            seen: set[int] = set()
            for token in tokens[1:]:
                idx_str, _, val_str = token.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise LibsvmFormatError(line_no, f"bad feature token {token!r}") from None
                if idx < 1:
                    raise LibsvmFormatError(line_no, f"feature index {idx} is not 1-based")
                if idx in seen:
                    raise LibsvmFormatError(line_no, f"duplicate feature index {idx}")
                seen.add(idx)
                rows.append(idx - 1)
                cols.append(col)
                vals.append(val)
                d = max(d, idx)
            col += 1
    if col == 0:
        raise LibsvmFormatError(0, "empty file")
    features = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(d, col), dtype=np.float64
    ).tocsc()
    return Dataset(features=features, labels=np.array(labels))


@dataclass(frozen=True)
class Partition:
    """Assignment of the first n*m examples to n nodes, m per node, in order."""

    n: int
    m: int
    dropped: int

    @property
    def retained(self) -> int:
        return self.n * self.m

    def node_slice(self, tau: int) -> slice:
        if not 0 <= tau < self.n:
            raise IndexError(f"node {tau} out of range [0, {self.n})")
        return slice(tau * self.m, (tau + 1) * self.m)

    def example_index(self, tau: int, i: int) -> int:
        if not 0 <= i < self.m:
            raise IndexError(f"local example {i} out of range [0, {self.m})")
        return self.node_slice(tau).start + i


def partition(dataset: Dataset, n: int) -> Partition:
    """Split examples over n nodes in file order, dropping the remainder.

    Equal per-node counts keep the sampling constants exact; the number of
    dropped trailing examples is recorded on the result.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n > dataset.n_examples:
        raise ValueError(f"{n} nodes but only {dataset.n_examples} examples")
    m = dataset.n_examples // n
    return Partition(n=n, m=m, dropped=dataset.n_examples - n * m)


def shuffle_examples(dataset: Dataset, seed: int) -> Dataset:
    """Return a copy with example order permuted by a seeded shuffle."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_examples)
    return Dataset(features=dataset.features[:, order], labels=dataset.labels[order])


def normalize_examples(dataset: Dataset) -> Dataset:
    """Scale each example column to unit l2 norm (zero columns stay zero).

    This changes the data-dependent constants, so runs record whether it was
    applied.
    """
    norms = dataset.column_norms()
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    features = dataset.features @ sparse.diags(inv)
    return Dataset(features=features.tocsc(), labels=dataset.labels.copy())
