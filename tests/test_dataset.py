from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ecvr import dataset as dataset_module
from ecvr.dataset import (
    Dataset,
    LibsvmFormatError,
    column_squares,
    normalize_examples,
    parse_libsvm,
    partition,
    scale_columns,
    shuffle_examples,
)
from ecvr.harness import synth_dataset


def write(tmp_path, text):
    path = tmp_path / "data.txt"
    path.write_text(text)
    return str(path)


class TestParse:
    def test_single_entry(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "+1 3:0.5\n"))
        assert ds.labels[0] == 1.0
        assert ds.d >= 3
        assert ds.features[2, 0] == 0.5
        assert ds.features.getnnz() == 1

    def test_zero_label_maps_to_minus_one(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "0 1:1.0\n"))
        assert ds.labels[0] == -1.0

    def test_three_line_fixture_norms(self, tmp_path):
        # Column norms recomputed by hand: sqrt(1+4), sqrt(9), sqrt(0.25+0.25).
        text = "+1 1:1 3:2\n-1 2:3\n+1 1:0.5 4:-0.5\n"
        ds = parse_libsvm(write(tmp_path, text))
        assert ds.n_examples == 3 and ds.d == 4
        assert np.allclose(ds.column_norms(), [np.sqrt(5.0), 3.0, np.sqrt(0.5)])
        assert np.array_equal(ds.labels, [1.0, -1.0, 1.0])

    def test_blank_lines_skipped(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "\n+1 1:1\n\n-1 2:1\n"))
        assert ds.n_examples == 2

    def test_malformed_reports_line(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="line 2"):
            parse_libsvm(write(tmp_path, "+1 1:1\n+1 1:one\n"))
        with pytest.raises(LibsvmFormatError, match="line 1"):
            parse_libsvm(write(tmp_path, "abc 1:1\n"))
        with pytest.raises(LibsvmFormatError, match="duplicate"):
            parse_libsvm(write(tmp_path, "+1 1:1 1:2\n"))
        with pytest.raises(LibsvmFormatError, match="1-based"):
            parse_libsvm(write(tmp_path, "+1 0:1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm(write(tmp_path, ""))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_value_reports_line(self, tmp_path, value):
        with pytest.raises(LibsvmFormatError, match=f"line 3: feature value in '2:{value}' is not finite"):
            parse_libsvm(write(tmp_path, f"+1 1:1\n-1 2:0.5\n+1 1:2 2:{value}\n-1 1:1\n"))

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_reports_line(self, tmp_path, label):
        with pytest.raises(LibsvmFormatError, match=f"line 2: label '{label}' is not finite"):
            parse_libsvm(write(tmp_path, f"+1 1:1\n{label} 2:0.5\n"))

    def test_labels_without_any_feature_index(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="no feature index on any of the 3 examples"):
            parse_libsvm(write(tmp_path, "+1\n-1\n\n+1\n"))


def outcome(path):
    """What parse_libsvm makes of a file: its arrays bit for bit, or its error."""
    try:
        ds = parse_libsvm(path)
    except LibsvmFormatError as err:
        return ("error", str(err), err.line_no)
    f = ds.features
    arrays = (f.indptr, f.indices, f.data, ds.labels)
    return ("ok", f.shape, *((a.dtype.str, a.tobytes()) for a in arrays))


def loop_outcome(path):
    """The per-token loop's reading of the whole file: the fast path refuses every chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "_parse_fast", lambda lines: None)
        return outcome(path)


def chunked_outcome(path, chunk_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "CHUNK_BYTES", chunk_bytes)
        return outcome(path)


class TestChunkedParse:
    """Each case expects what the per-token loop gives, through the chunked fast path."""

    @pytest.mark.parametrize(
        "text, entries",
        [
            ("+1 +5:1\n", {(4, 0): 1.0}),  # a signed index
            ("+1 007:1\n", {(6, 0): 1.0}),  # leading zeros
            ("+1 2:1_0\n", {(1, 0): 10.0}),  # an underscore in a value
            ("+1 3:1 1:2\n-1 2:4\n", {(0, 0): 2.0, (2, 0): 1.0, (1, 1): 4.0}),  # unsorted
            ("+1 1:1\r\n-1 2:3\r\n", {(0, 0): 1.0, (1, 1): 3.0}),  # CRLF
            ("+1\t1:1\t 2:3\n", {(0, 0): 1.0, (1, 0): 3.0}),  # tabs
            ("+1\n-1 2:3\n+1\n", {(1, 1): 3.0}),  # label-only lines
            ("+1 1:1\n-1 2:3\n\n \n\t\n", {(0, 0): 1.0, (1, 1): 3.0}),  # trailing blank lines
            ("+1\u00a01:1\u00a02:3\n", {(0, 0): 1.0, (1, 0): 3.0}),  # a no-break space
        ],
    )
    def test_accepted(self, tmp_path, text, entries):
        path = tmp_path / "data.txt"
        path.write_text(text, encoding="utf-8", newline="")
        ds = parse_libsvm(str(path))
        got = ds.features.todok()
        assert dict(got.items()) == entries
        assert ds.features.has_sorted_indices
        assert outcome(str(path)) == loop_outcome(str(path))

    def test_underflowing_value_is_a_stored_zero(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "+1 2:1e-400 3:1\n"))
        assert ds.d == 3
        assert ds.features.indices.tolist() == [1, 2]
        assert ds.features.data.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("+1 1.0:1", "bad feature token '1.0:1'"),
            ("+1 1e1:1", "bad feature token '1e1:1'"),
            ("+1 :1", "bad feature token ':1'"),
            ("+1 1:", "bad feature token '1:'"),
            # As many numbers as a well-formed line, in the wrong tokens.
            ("+1 1:2:3 4", "bad feature token '1:2:3'"),
            ("1:2 3", "bad label '1:2'"),
        ],
    )
    def test_rejected(self, tmp_path, line, message):
        with pytest.raises(LibsvmFormatError, match=f"^line 2: {message}$"):
            parse_libsvm(write(tmp_path, f"-1 1:1\n{line}\n"))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("2:1 2:3", "duplicate feature index 2"),
            ("3:1 1:1 3:2", "duplicate feature index 3"),
            ("2:nan", "feature value in '2:nan' is not finite"),
        ],
    )
    def test_error_in_third_chunk_names_its_line(self, tmp_path, monkeypatch, bad, message):
        # At 8 bytes a chunk is "+1 1:1 2:1", then "\n" and "-1 1:1 2:1", then line 4.
        monkeypatch.setattr(dataset_module, "CHUNK_BYTES", 8)
        chunks = []
        real_fast = dataset_module._parse_fast

        def counting_fast(lines):
            chunks.append(lines)
            return real_fast(lines)

        monkeypatch.setattr(dataset_module, "_parse_fast", counting_fast)
        path = write(tmp_path, f"+1 1:1 2:1\n\n-1 1:1 2:1\n+1 {bad}\n-1 1:1\n")
        with pytest.raises(LibsvmFormatError, match=f"^line 4: {message}$") as err:
            parse_libsvm(path)
        assert err.value.line_no == 4
        assert len(chunks) == 3

    def test_well_formed_file_never_reaches_the_loop(self, tmp_path, monkeypatch):
        # The grammar the fast path takes: spaces and tabs, blank lines,
        # signed and exponent values, label-only lines, indices in any order.
        rng = np.random.default_rng(5)
        lines = []
        for _ in range(300):
            idx = rng.choice(60, size=rng.integers(0, 8), replace=False) + 1
            if rng.random() < 0.5:
                idx.sort()
            vals = (rng.standard_normal(idx.size) * 10.0 ** rng.integers(-9, 9, idx.size)).tolist()
            tokens = [str(rng.choice(["+1", "-1", "0", "1.0"]))]
            tokens += [f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals)]
            lines.append(rng.choice([" ", "\t", " \t "]).join(tokens) + rng.choice(["\n", " \n\n"]))
        path = write(tmp_path, "".join(lines))
        expected = loop_outcome(path)

        def no_loop(lines, first_line_no):
            raise AssertionError(f"fast path refused the chunk at line {first_line_no}")

        monkeypatch.setattr(dataset_module, "_parse_loop", no_loop)
        assert chunked_outcome(path, 256) == expected
        assert chunked_outcome(path, dataset_module.CHUNK_BYTES) == expected


def subnormal_trap():
    """Just above the tie between 2 and 3 times the smallest double, whose extended value is the tie."""
    with localcontext() as ctx:
        ctx.prec = 1200
        return str(Decimal(5) * Decimal(2) ** -1075 + Decimal(2) ** -1140)


# Numbers where reading to x87 extended precision and then rounding to a
# double can go wrong. The first two lie just above a tie between two
# doubles, read as the tie itself, and must round up, not to even: one
# below the normal doubles, where their spacing is wider, and one at
# 2**53 + 1. The rest are ties, known hard cases and the edges of the
# double range.
ROUNDING_TRAPS = [
    subnormal_trap(),
    "9007199254740993.0000000001",
    "9007199254740993",
    "9007199254740995",
    "0.1",
    "0.30000000000000004",
    "1e23",
    "8.98846567431158e307",
    "1.7976931348623157e308",
    "2.2250738585072011e-308",
    "2.2250738585072014e-308",
    "4.9406564584124654e-324",
    "2.4703282292062328e-324",
    "1e-320",
    "1e-400",
    "-0.0",
]


def decimal_midpoints(rng, count):
    """Texts of random doubles, and of the exact midpoints between neighbours and just off them."""
    texts = []
    for x in (rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count)).tolist():
        mid = (Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2
        texts += [repr(x), str(mid), str(mid * (1 + Decimal("1e-25"))), str(mid * (1 - Decimal("1e-25")))]
    return texts


class TestExactRead:
    """Through the fast path every number is the double ``float`` reads, bit for bit."""

    @pytest.fixture(params=["extended", "float64"])
    def reader(self, request, monkeypatch):
        if request.param == "float64":
            monkeypatch.setattr(dataset_module, "_X87", False)
            monkeypatch.setattr(dataset_module, "_READ_AS", np.float64)
        elif not dataset_module._X87:
            pytest.skip("numpy's longdouble here is not x87 extended precision")
        return request.param

    @staticmethod
    def fast_values(tmp_path, monkeypatch, texts):
        def no_loop(lines, first_line_no):
            raise AssertionError(f"fast path refused the chunk at line {first_line_no}")

        monkeypatch.setattr(dataset_module, "_parse_loop", no_loop)
        ds = parse_libsvm(write(tmp_path, "".join(f"-1 1:{t}\n" for t in texts)))
        return ds.features.data

    def test_rounding_traps(self, tmp_path, monkeypatch, reader):
        got = self.fast_values(tmp_path, monkeypatch, ROUNDING_TRAPS)
        assert got.tobytes() == np.array([float(t) for t in ROUNDING_TRAPS]).tobytes()
        if reader == "extended":  # the traps are real: one rounding after the other misses
            for trap in ROUNDING_TRAPS[:2]:
                assert float(np.longdouble(trap)) != float(trap)

    def test_random_numbers_and_midpoints(self, tmp_path, monkeypatch, reader):
        texts = decimal_midpoints(np.random.default_rng(11), 800)
        got = self.fast_values(tmp_path, monkeypatch, texts)
        assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()


PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

# Pieces a corruption inserts or substitutes: separators the fast path
# refuses, non-finite and out-of-grammar numbers, stray colons and digits.
DEBRIS = (
    ":", "::", " ", "\t", "\n", "\r", "\r\n", "\u00a0", "\x0b", "\x1f", "é", "_",
    "e", "E", "+", "-", ".", "0", "7", "x", "nan", "inf", "1e400", "1e-400", "0:1", "3:2",
)


@st.composite
def libsvm_texts(draw):
    """A LIBSVM text, most lines well formed, then up to three corruptions.

    A few lines repeat an index or use index 0; the corruptions splice in
    ``DEBRIS`` at random places.
    """
    label = st.sampled_from(["+1", "-1", "0", "1", "2.5", "-0", "1e0", "+.5"])
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["1", ".5", "5.", "1e-3", "-0", "1E+2", "007", "-2.50"]),
    )
    sep = st.sampled_from([" ", " ", "  ", "\t", " \t"])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        idx = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        if draw(st.integers(0, 14)) == 0:
            idx.append(draw(st.sampled_from(idx or [0])))  # a duplicate, or index 0
        if draw(st.integers(0, 4)) == 0:
            idx = draw(st.permutations(idx))
        tokens = [draw(label)] + [f"{i}:{draw(value)}" for i in idx]
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(sep) + token
        lines.append(line + draw(st.sampled_from(["", " ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no newline at the end
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(DEBRIS)) + text[at + cut :]
    return text


class TestChunkedParseProperties:
    @PROPERTY
    @given(text=libsvm_texts(), small=st.integers(1, 24))
    def test_chunked_parse_matches_the_loop(self, tmp_path_factory, text, small):
        path = tmp_path_factory.mktemp("libsvm") / "data.txt"
        path.write_text(text, encoding="utf-8", newline="")
        expected = loop_outcome(str(path))
        assert chunked_outcome(str(path), small) == expected
        assert chunked_outcome(str(path), 256 * 1024) == expected


class TestDatasetInvariants:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(features=sparse.eye(2, format="csc"), labels=np.array([1.0, 2.0]))

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            Dataset(features=sparse.eye(3, format="csc"), labels=np.array([1.0, -1.0]))


class TestPartition:
    def test_even_split(self):
        ds = synth_dataset(10, 4, 0.5, seed=1)
        part = partition(ds, 2)
        assert (part.n, part.m, part.dropped) == (2, 5, 0)
        assert part.node_slice(0) == slice(0, 5)
        assert part.node_slice(1) == slice(5, 10)

    def test_remainder_dropped(self):
        ds = synth_dataset(10, 4, 0.5, seed=1)
        part = partition(ds, 3)
        assert (part.m, part.dropped) == (3, 1)

    def test_mushrooms_sized_arithmetic(self):
        ds = synth_dataset(8124, 6, 0.5, seed=2)
        part = partition(ds, 4)
        assert (part.m, part.dropped) == (2031, 0)

    def test_every_retained_example_has_one_node(self):
        ds = synth_dataset(23, 4, 0.5, seed=3)
        part = partition(ds, 4)
        seen = []
        for tau in range(part.n):
            sl = part.node_slice(tau)
            assert sl.stop - sl.start == part.m
            seen.extend(range(sl.start, sl.stop))
        assert seen == list(range(part.n * part.m))
        assert part.retained + part.dropped == ds.n_examples

    def test_errors(self):
        ds = synth_dataset(3, 4, 0.5, seed=4)
        with pytest.raises(ValueError):
            partition(ds, 0)
        with pytest.raises(ValueError):
            partition(ds, 4)

    def test_index_bounds(self):
        ds = synth_dataset(6, 4, 0.5, seed=4)
        part = partition(ds, 2)
        with pytest.raises(IndexError):
            part.node_slice(2)
        with pytest.raises(IndexError):
            part.example_index(0, 3)


class TestTransforms:
    def test_shuffle_is_permutation(self):
        ds = synth_dataset(40, 8, 0.4, seed=6)
        shuffled = shuffle_examples(ds, seed=9)
        assert sorted(shuffled.labels.tolist()) == sorted(ds.labels.tolist())
        assert np.allclose(sorted(shuffled.column_norms()), sorted(ds.column_norms()))
        again = shuffle_examples(ds, seed=9)
        assert (again.features != shuffled.features).nnz == 0

    def test_normalize_unit_columns(self):
        ds = synth_dataset(15, 6, 0.5, seed=7, unit_columns=False)
        normed = normalize_examples(ds)
        assert np.allclose(normed.column_norms(), 1.0)

    @pytest.mark.parametrize("norm", [1.0, 0.3])
    def test_scale_columns_gives_the_bytes_of_both_former_formulas(self, norm):
        # Columns: two entries, two stored zeros, two stored -0.0, none,
        # entries across scales, and one entry.
        data = np.array([0.5, -2.0, 0.0, 0.0, -0.0, -0.0, 3.0, 1e-3, -7e4, 4.0])
        indices = np.array([0, 3, 1, 4, 0, 2, 1, 2, 4, 0])
        indptr = np.array([0, 2, 4, 6, 6, 9, 10])
        matrix = sparse.csc_matrix((data, indices, indptr), shape=(5, 6))
        sq = column_squares(matrix)
        # synth_dataset's unit columns, and normalize_examples at norm 1.
        synth = matrix @ sparse.diags(norm / np.sqrt(np.where(sq > 0, sq, 1.0)))
        norms = np.sqrt(sq)
        normalized = matrix @ sparse.diags(np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0))
        got = scale_columns(matrix, norm)
        for former in (synth, normalized) if norm == 1.0 else (synth,):
            former = former.tocsc()
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).tobytes() == getattr(former, name).tobytes()
        assert got.format == "csc"
        assert np.allclose(np.sqrt(column_squares(got)), [norm, 0, 0, 0, norm, norm])
        assert matrix.data.tobytes() == data.tobytes()  # the input is left alone
        # A column whose squares underflow becomes zero, as normalize_examples made it.
        assert scale_columns(sparse.csc_matrix(np.array([[1e-170], [-1e-180]])), norm).nnz == 0
