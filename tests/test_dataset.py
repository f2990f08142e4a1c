import numpy as np
import pytest
from scipy import sparse

from ecvr.dataset import (
    Dataset,
    LibsvmFormatError,
    normalize_examples,
    parse_libsvm,
    partition,
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
