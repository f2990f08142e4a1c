"""LIBSVM-format data and equal-size partitioning of examples across nodes."""

from __future__ import annotations

import math
import sys
import warnings
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
    examples are a contiguous column slice, in canonical form: each column's
    indices sorted, one stored entry per coordinate. An input that is not
    canonical is put in that form in a copy, its duplicates summed, so the
    caller's matrix is never changed.
    """

    features: sparse.csc_matrix
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = sparse.csc_matrix(self.features)  # holds a CSC input's own arrays
        if not features.has_canonical_format:
            features = features.copy()
            features.sum_duplicates()
        self.features = features
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


def column_squares(matrix: sparse.spmatrix) -> np.ndarray:
    """The squared l2 norm of each column of a sparse matrix."""
    return np.asarray(matrix.multiply(matrix).sum(axis=0)).ravel()


CHUNK_BYTES = 256 * 1024  # characters of whole lines that one parsing step gathers

# Byte classes of the fast path's grammar; class 0 refuses the chunk.
_DIGIT, _MARK, _COLON, _BLANK, _NEWLINE = 1, 2, 3, 4, 5
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-.eE")] = _MARK
_BYTE_CLASS[ord(":")] = _COLON
_BYTE_CLASS[list(b" \t")] = _BLANK
_BYTE_CLASS[ord("\n")] = _NEWLINE
_CLASS_TABLE = _BYTE_CLASS.tobytes()  # for bytes.translate, faster than indexing with the bytes
_MAX_INDEX = 2**31 - 1  # a digits-only index below this parses exactly
_INDEX_DIGITS = 15  # an index this long, leading zeros included, sums exactly in float64
# Into x87 extended precision (a 64-bit mantissa in the first 8 of 16
# bytes, as on x86-64 Linux) np.fromstring reads numbers with the C
# library's strtold, in about half the time its float64 reader takes; both
# round correctly.
_X87 = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
_READ_AS = np.longdouble if _X87 else np.float64
_TINY = np.finfo(np.float64).tiny  # the smallest normal double


@dataclass
class _Chunk:
    """The examples parsed from one run of whole lines."""

    labels: np.ndarray  # +-1 per example
    counts: np.ndarray  # stored entries per example
    rows: np.ndarray  # 0-based feature index per entry, example by example
    vals: np.ndarray  # value per entry


def parse_libsvm(path: str) -> Dataset:
    """Read ``label idx:val idx:val ...`` lines with 1-based feature indices.

    Any label <= 0 maps to -1, anything else to +1. The feature dimension is
    the largest index seen. Blank lines are skipped; anything else that does
    not parse, a label or value that is not finite, and a file with no
    feature index at all raise ``LibsvmFormatError`` with a line number
    (0 for the whole file).

    The file is read in runs of whole lines, each line added until the run
    passes ``CHUNK_BYTES`` characters. ``_parse_fast`` parses a run with
    array operations, and accepts only runs that ``_parse_loop``, the
    per-token reference, reads the same way. A run it refuses, valid or
    not, goes to ``_parse_loop``, which parses it or raises the error with
    the absolute line number.
    """
    chunks: list[_Chunk] = []
    line_no = 1
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(CHUNK_BYTES):
            chunk = _parse_fast(lines)
            chunks.append(chunk if chunk is not None else _parse_loop(lines, line_no))
            line_no += len(lines)
    labels = np.concatenate([c.labels for c in chunks]) if chunks else np.empty(0)
    col = labels.size
    if col == 0:
        raise LibsvmFormatError(0, "empty file")
    counts = np.concatenate([c.counts for c in chunks])
    rows = np.concatenate([c.rows for c in chunks])
    vals = np.concatenate([c.vals for c in chunks])
    d = int(rows.max()) + 1 if rows.size else 0
    if d == 0:
        raise LibsvmFormatError(0, f"no feature index on any of the {col} examples")
    indptr = np.zeros(col + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    features = sparse.csc_matrix((vals, rows, indptr), shape=(d, col))
    # A line's indices may come in any order. Sorted here, in place, the
    # matrix is canonical and Dataset keeps it without a copy.
    features.sort_indices()
    return Dataset(features=features, labels=labels)


def _parse_loop(lines: list[str], first_line_no: int) -> _Chunk:
    """Parse ``lines`` token by token; the first of them is line ``first_line_no``."""
    labels: list[float] = []
    counts: list[int] = []
    rows: list[int] = []
    vals: list[float] = []
    for line_no, raw in enumerate(lines, start=first_line_no):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmFormatError(line_no, f"bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise LibsvmFormatError(line_no, f"label {tokens[0]!r} is not finite")
        labels.append(-1.0 if label <= 0 else 1.0)
        seen: set[int] = set()
        for token in tokens[1:]:
            idx_str, _, val_str = token.partition(":")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmFormatError(line_no, f"bad feature token {token!r}") from None
            if not math.isfinite(val):
                raise LibsvmFormatError(line_no, f"feature value in {token!r} is not finite")
            if idx < 1:
                raise LibsvmFormatError(line_no, f"feature index {idx} is not 1-based")
            if idx in seen:
                raise LibsvmFormatError(line_no, f"duplicate feature index {idx}")
            seen.add(idx)
            rows.append(idx - 1)
            vals.append(val)
        counts.append(len(seen))
    return _Chunk(
        labels=np.array(labels),
        counts=np.array(counts, dtype=np.int64),
        rows=np.array(rows, dtype=np.int64),
        vals=np.array(vals, dtype=np.float64),
    )


def _parse_fast(lines: list[str]) -> _Chunk | None:
    """Parse ``lines`` with array operations, or return None to refuse them.

    It accepts only ASCII lines of digits, ``+-.eE:``, spaces and tabs, in
    which a line's first token has no colon, every other token is
    ``digits:value`` with 1 to 15 digits and a nonempty value, every number
    parses, labels and values are finite, and indices are at least 1 and
    differ on each line. Indices are read from their digit bytes, labels
    and values by one ``np.fromstring`` call and ``_doubles``.
    ``_parse_loop`` reads every such line the same way; anything
    else, valid or not, is refused and left to it.
    """
    text = "".join(lines)
    if not text.isascii():
        return None
    data = text.encode("ascii")
    raw = np.frombuffer(data, dtype=np.uint8)
    cls = np.frombuffer(data.translate(_CLASS_TABLE), dtype=np.uint8)
    if not cls.all():
        return None
    # Token edges alternate start, end (exclusive), start, end, ...
    edges = np.flatnonzero(np.diff(cls >= _BLANK, prepend=True, append=True))
    starts, ends = edges[0::2], edges[1::2]
    T = starts.size
    if T == 0:  # blank lines only
        empty = np.empty(0, dtype=np.int64)
        return _Chunk(np.empty(0), empty, empty, np.empty(0))
    line_of = np.searchsorted(np.cumsum([len(line) for line in lines]), starts, side="right")
    first = np.empty(T, dtype=bool)  # the token opens its line: a label
    first[0] = True
    np.not_equal(line_of[1:], line_of[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    E = heads.size

    # One colon in each feature token and none in a label.
    colons = np.flatnonzero(cls == _COLON)
    colon_tok = np.searchsorted(starts, colons, side="right") - 1
    if colons.size != T - E or first[colon_tok].any() or (np.diff(colon_tok) <= 0).any():
        return None

    # Every feature token is digits:value with 1 to _INDEX_DIGITS digits.
    width = colons - starts[~first]
    if width.size and not (width.min() >= 1 and width.max() <= _INDEX_DIGITS):
        return None
    # Each index is the sum of its digits, the r-th back from the colon
    # weighing 10**r; a sign, point or exponent there refuses the chunk.
    # ``rest``, what np.fromstring reads, is the text with every index and
    # colon blanked out: each label, then its line's values.
    idx = np.zeros(width.size)
    rest = raw.copy()
    rest[colons] = ord(" ")
    for r in range(int(width.max(initial=0))):
        # A shorter index has no r-th digit: its ``at`` lies before the
        # token, or wraps (by at most r + 1 < len(raw)), and is dropped.
        at = colons - 1 - r
        digit = raw[at] - 48.0
        past = width <= r
        digit[past] = 0.0
        idx += digit * 10.0**r
        at = at[~past]
        if (cls[at] != _DIGIT).any():
            return None
        rest[at] = ord(" ")
    with warnings.catch_warnings():
        # Older numpy warns on text it cannot read, where numpy 2.4 raises.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            wide = np.fromstring(rest.tobytes(), dtype=_READ_AS, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    # numpy reads a nonempty run of these bytes as one number or raises,
    # and an empty one as none: the count proves that every value is
    # nonempty, so the numbers are the tokens' labels and values in order.
    if wide.size != T:
        return None
    numbers, unsure = _doubles(wide)
    if unsure.any():
        number_start = starts.copy()
        number_start[~first] = colons + 1
        for t in np.flatnonzero(unsure).tolist():
            numbers[t] = float(text[number_start[t] : ends[t]])
    labels = numbers[heads]
    vals = numbers[~first]
    if not (np.isfinite(labels).all() and np.isfinite(vals).all()):
        return None
    if idx.size and not (idx.min() >= 1 and idx.max() <= _MAX_INDEX):
        return None
    # No index twice on a line. Lines usually ascend, which proves it;
    # otherwise sort each line's indices (lexsort keeps the lines in order).
    feature_line = line_of[~first]
    same_line = feature_line[1:] == feature_line[:-1]
    if not (np.diff(idx) > 0)[same_line].all():
        if (np.diff(idx[np.lexsort((idx, feature_line))]) == 0)[same_line].any():
            return None
    return _Chunk(
        labels=np.where(labels <= 0, -1.0, 1.0),
        counts=np.diff(heads, append=T) - 1,
        rows=idx.astype(np.int64) - 1,
        vals=vals,
    )


def _doubles(wide: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``wide`` as float64, and where that may not be the double its text names.

    ``np.fromstring`` reads each text to the nearest ``_READ_AS`` value, and
    the cast to float64 rounds that to the nearest double. Where
    ``_READ_AS`` is float64 the cast is exact. From x87 extended precision
    the second rounding gives the double nearest the text itself, as
    ``float`` reads it, unless the first rounding landed exactly halfway
    between two doubles (the 11 mantissa bits below a double's 53 read
    0x400), or the value lies below the normal doubles, where their
    spacing is wider. Those are marked unsure.
    """
    with np.errstate(over="ignore"):  # a value beyond float64 becomes inf
        numbers = wide.astype(np.float64)
    if not _X87:
        return numbers, np.zeros(wide.size, dtype=bool)
    magnitude = np.abs(wide)
    halfway = (wide.view(np.uint64)[::2] & 0x7FF) == 0x400
    return numbers, halfway | ((magnitude < _TINY) & (magnitude > 0))


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


def scale_columns(matrix: sparse.spmatrix, norm: float = 1.0) -> sparse.csc_matrix:
    """``matrix`` in CSC form with each column scaled to l2 norm ``norm``; a column
    whose squares sum to 0 (all zero, or underflowing) becomes zero."""
    sq = column_squares(matrix)
    live = sq > 0
    factor = np.where(live, norm / np.sqrt(np.where(live, sq, 1.0)), 0.0)
    return (matrix @ sparse.diags(factor)).tocsc()


def normalize_examples(dataset: Dataset) -> Dataset:
    """Scale each example column to unit l2 norm (zero columns stay zero).

    This changes the data-dependent constants, so runs record whether it was
    applied.
    """
    return Dataset(features=scale_columns(dataset.features), labels=dataset.labels.copy())
