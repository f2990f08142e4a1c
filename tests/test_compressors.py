import math
import zlib

import numpy as np
import pytest

from ecvr import compressors as comp
from ecvr.rng import split_rng


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


ZOO = [
    comp.top_k(1),
    comp.top_k(5),
    comp.rand_k(1),
    comp.rand_k(5),
    comp.scaled(comp.dithering()),
    comp.scaled(comp.natural()),
    comp.ntop_k(5),
    comp.rtop_k(5),
    comp.identity(),
]


class TestSpecValidation:
    def test_k_required(self):
        with pytest.raises(ValueError):
            comp.CompressorSpec(comp.TOP_K)
        with pytest.raises(ValueError):
            comp.top_k(0)

    def test_scaled_needs_unbiased_inner(self):
        with pytest.raises(ValueError):
            comp.scaled(comp.top_k(1))
        comp.scaled(comp.natural())  # ok

    def test_compose_operand_kinds(self):
        with pytest.raises(ValueError):
            comp.compose(comp.top_k(1), comp.top_k(2))
        with pytest.raises(ValueError):
            comp.compose(comp.natural(), comp.natural())

    def test_k_vs_dimension(self):
        with pytest.raises(ValueError):
            comp.validate_for_dimension(comp.top_k(4), 3)

    def test_dimension_mismatch_shape(self):
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="batch"):
                comp._apply(comp.identity(), bad, rng_for("shape"))
        with pytest.raises(ValueError, match="one generator per row"):
            comp._apply(comp.rand_k(1), np.zeros((2, 3)), [rng_for("shape")])

    def test_compose_needs_a_sparsifier_contraction(self):
        # ntop_k and rtop_k are the only compositions: top-k runs first.
        bad = (comp.identity(), comp.rand_k(2), comp.scaled(comp.natural()), comp.rtop_k(2))
        for contraction in bad:
            with pytest.raises(ValueError, match=f"got {contraction.kind}"):
                comp.compose(comp.natural(), contraction)
        comp.compose(comp.natural(), comp.top_k(2))  # ok

    def test_parse_roundtrip(self):
        for text in ["top_k:1", "rand_k:5", "dither", "natural", "ntop_k:5", "rtop_k:5", "identity"]:
            assert comp.format_spec(comp.parse_spec(text)) == text
        with pytest.raises(ValueError):
            comp.parse_spec("top_k")
        with pytest.raises(ValueError):
            comp.parse_spec("bogus:3")


def compress_one(spec, x, rng):
    """Compress a single vector as a one-row batch."""
    return comp._apply(spec, np.asarray(x, dtype=np.float64)[None, :], rng)[0]


class TestCompress:
    def test_top1_unique_largest(self):
        out = compress_one(comp.top_k(1), [3.0, -1.0, 2.0], rng_for("t1"))
        assert np.array_equal(out, [3.0, 0.0, 0.0])
        assert np.array_equal(np.flatnonzero(out), [0])

    def test_topk_full_is_identity(self):
        x = rng_for("tfull").standard_normal(7)
        out = compress_one(comp.top_k(7), x, rng_for("t2"))
        assert np.array_equal(out, x)

    def test_topk_tie_keeps_lowest_index(self):
        out = compress_one(comp.top_k(1), [2.0, -2.0, 2.0], rng_for("tie"))
        assert np.array_equal(np.flatnonzero(out), [0])
        out = compress_one(comp.top_k(2), [1.0, -2.0, 2.0, -2.0], rng_for("tie2"))
        assert np.array_equal(np.flatnonzero(out), [1, 2])

    def test_rand1_frequencies(self):
        # Two equally likely outcomes; oracle is the exact Bernoulli(1/2) SE.
        trials = 100_000
        out = comp._apply(comp.rand_k(1), np.ones((trials, 2)), rng_for("rand1"))
        assert np.all(np.count_nonzero(out, axis=1) == 1)
        first = np.count_nonzero(out[:, 0])
        se = math.sqrt(0.25 / trials)
        assert abs(first / trials - 0.5) <= 3 * se

    def test_compress_zero_is_zero(self):
        for spec in ZOO:
            out = comp._apply(spec, np.zeros((3, 10)), rng_for("zero"))
            assert np.array_equal(out, np.zeros((3, 10)))

    def test_top_k_of_an_all_zero_batch_keeps_the_first_k(self):
        # Q1's input before the first shift refresh: every magnitude ties.
        n, d, k = 4, 10, 3
        zeros = np.zeros((n, d))
        keep = comp._kept(comp.top_k(k), zeros, rng_for("unused"))
        assert np.array_equal(keep, np.broadcast_to(np.arange(d) < k, (n, d)))
        out = comp._apply(comp.top_k(k), zeros, rng_for("unused"))
        assert out.tobytes() == zeros.tobytes()

    def test_support_size_and_zero_outside_support(self):
        rng = rng_for("supp")
        x = rng.standard_normal((4, 12))
        for spec in ZOO:
            out = comp._apply(spec, x, rng)
            k = comp.transmitted_coords(spec, 12)
            assert np.all(np.count_nonzero(out, axis=1) <= k)

    def test_topk_equivariance(self):
        # Permuting and flipping signs commutes with top-k away from ties.
        rng = rng_for("equiv")
        for _ in range(20):
            x = rng.standard_normal(15)
            perm = rng.permutation(15)
            signs = rng.choice([-1.0, 1.0], size=15)
            base = compress_one(comp.top_k(4), x, rng)
            moved = compress_one(comp.top_k(4), (signs * x)[perm], rng)
            assert np.array_equal(moved, (signs * base)[perm])

    def test_topk_per_vector_bound(self):
        x = rng_for("pervec").standard_normal((50, 30))
        for k in (1, 5, 30):
            y = comp._apply(comp.top_k(k), x, rng_for("unused"))
            lhs = np.sum((x - y) ** 2, axis=1)
            assert np.all(lhs <= (1 - k / 30) * np.sum(x**2, axis=1) + 1e-12)

    def test_scaled_output_is_inner_over_omega_plus_one(self):
        x = rng_for("sc").standard_normal(16)
        seed_rng = lambda: np.random.default_rng(7)
        raw = compress_one(comp.dithering(), x, seed_rng())
        scl = compress_one(comp.scaled(comp.dithering()), x, seed_rng())
        assert np.allclose(scl, raw / 2.0)

    def test_compose_restricts_to_topk_support(self):
        x = rng_for("comp").standard_normal(20)
        kept = np.flatnonzero(compress_one(comp.top_k(5), x, rng_for("a")))
        out = compress_one(comp.ntop_k(5), x, rng_for("b"))
        assert set(np.flatnonzero(out)).issubset(set(kept))

    def test_batch_rows_match_rows_alone(self):
        # Row r of a batch draws only from rngs[r], so it equals that row
        # compressed alone; one shared generator is the same as [rng] * rows.
        x = rng_for("bm").standard_normal((6, 9))
        for spec in ZOO:
            batch = comp._apply(spec, x, [rng_for(f"u{r}") for r in range(6)])
            for r in range(6):
                alone = comp._apply(spec, x[r : r + 1], [rng_for(f"u{r}")])
                assert np.array_equal(batch[r], alone[0])
            shared = comp._apply(spec, x, rng_for("shared"))
            one = rng_for("shared")
            assert np.array_equal(shared, comp._apply(spec, x, [one] * 6))


class TestParameters:
    def test_delta_values(self):
        assert comp.delta_of(comp.top_k(1), 112) == pytest.approx(1 / 112)
        assert comp.delta_of(comp.rand_k(5), 100) == pytest.approx(0.05)
        assert comp.delta_of(comp.identity(), 10) == 1.0
        # scaled dithering: 1/(omega+1) with omega = 1
        assert comp.delta_of(comp.scaled(comp.dithering()), 64) == pytest.approx(0.5)
        # compositions: 8K/(9d) and K/(2d)
        assert comp.delta_of(comp.ntop_k(5), 112) == pytest.approx(8 * 5 / (9 * 112))
        assert comp.delta_of(comp.rtop_k(5), 112) == pytest.approx(5 / (2 * 112))

    def test_delta_in_unit_interval(self):
        for spec in ZOO:
            for d in (10, 100, 1000):
                delta = comp.delta_of(spec, d)
                assert 0 < delta <= 1

    def test_delta_rejects_raw_unbiased(self):
        with pytest.raises(ValueError):
            comp.delta_of(comp.dithering(), 10)

    def test_omega_values(self):
        assert comp.omega_of(comp.dithering(), 49) == 1.0
        assert comp.omega_of(comp.natural(), 10) == pytest.approx(1 / 8)

    def test_omega_rejects_contraction_kinds(self):
        for spec in (comp.top_k(1), comp.scaled(comp.dithering()), comp.identity()):
            with pytest.raises(ValueError):
                comp.omega_of(spec, 10)

    def test_bit_costs(self):
        assert comp.bit_cost(comp.top_k(1), 112) == 71.0  # 64 + ceil(log2 112)
        assert comp.bit_cost(comp.rand_k(3), 112) == 3 * 71.0
        assert comp.bit_cost(comp.dithering(), 100) == pytest.approx(344.0)  # 2.8*100 + 64
        assert comp.bit_cost(comp.scaled(comp.dithering()), 100) == pytest.approx(344.0)
        assert comp.bit_cost(comp.natural(), 100) == 1200.0
        assert comp.bit_cost(comp.ntop_k(5), 128) == 95.0  # 12*5 + 5*7
        assert comp.bit_cost(comp.rtop_k(5), 128) == pytest.approx(2.8 * 5 + 64 + 5 * 7)
        assert comp.bit_cost(comp.identity(), 100) == 6400.0


class TestStatistics:
    def test_identity_ratio_zero(self):
        rep = comp.verify_contraction(comp.identity(), 20, 100, rng_for("id"))
        assert rep.max_ratio == 0.0 and rep.passed

    def test_topk_full_ratio_zero(self):
        rep = comp.verify_contraction(comp.top_k(20), 20, 100, rng_for("tk"))
        assert rep.max_ratio == 0.0 and rep.passed

    def test_randk_mean_ratio_matches_expectation(self):
        # E||x - RandK(x)||^2 = (1 - K/d)||x||^2 holds with equality.
        rep = comp.verify_contraction(comp.rand_k(3), 10, 40_000, rng_for("rk"))
        assert abs(rep.mean_ratio - 0.7) <= 3 * rep.std_error

    @pytest.mark.parametrize("spec", ZOO, ids=comp.format_spec)
    def test_zoo_contraction(self, spec):
        rep = comp.verify_contraction(spec, 60, 20_000, rng_for("zoo" + rep_id(spec)))
        assert rep.passed, rep

    def test_mean_scaling_identity_case_exact(self):
        rep = comp.verify_mean_scaling(
            comp.rand_k(4), 4, 2048, rng_for("ms"), x=np.array([1.0, -2.0, 3.0, 0.5])
        )
        assert rep.max_abs_deviation == 0.0 and rep.passed

    def test_mean_scaling_rand1(self):
        rep = comp.verify_mean_scaling(
            comp.rand_k(1), 2, 100_000, rng_for("ms1"), x=np.array([2.0, 0.0])
        )
        assert rep.factor == 0.5
        assert rep.passed

    def test_mean_scaling_scaled_dithering(self):
        rep = comp.verify_mean_scaling(
            comp.scaled(comp.dithering()), 16, 100_000, rng_for("msd")
        )
        assert rep.factor == 0.5
        assert rep.passed

    def test_mean_scaling_rejects_biased(self):
        with pytest.raises(ValueError):
            comp.verify_mean_scaling(comp.top_k(1), 4, 10, rng_for("msr"))

    @pytest.mark.parametrize("spec", [comp.dithering(), comp.natural()], ids=["dither", "natural"])
    def test_unbiased_mean_and_second_moment(self, spec):
        # 3 SE per coordinate is a ~0.3% false-alarm rate each; the seed is
        # fixed, so the whole check is deterministic.
        rep = comp.verify_unbiasedness(spec, 25, 50_000, np.random.default_rng(1))
        assert rep.mean_passed and rep.second_moment_passed

    def test_unbiasedness_rejects_contraction(self):
        with pytest.raises(ValueError):
            comp.verify_unbiasedness(comp.top_k(1), 4, 10, rng_for("ubr"))


def rep_id(spec):
    return comp.format_spec(spec)


class TestSplitRng:
    def test_streams_are_independent_and_stable(self):
        a = split_rng(123, "sample", 0).random(4)
        b = split_rng(123, "sample", 0).random(4)
        c = split_rng(123, "sample", 1).random(4)
        d = split_rng(123, "compress", 0).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_unknown_purpose(self):
        with pytest.raises(ValueError):
            split_rng(1, "nope")
