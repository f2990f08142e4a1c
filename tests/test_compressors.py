import math
import zlib

import numpy as np
import pytest

from ecvr import compressors as comp
from ecvr.rng import NodeDraws, split_rng


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

    def test_unknown_kind_is_rejected_by_name(self):
        # Every spec a function downstream receives has one of the seven kinds.
        with pytest.raises(ValueError, match=r"^unknown compressor kind 'top_j'$"):
            comp.CompressorSpec("top_j", k=1)

    def test_scaled_needs_unbiased_inner(self):
        with pytest.raises(ValueError):
            comp.scaled(comp.top_k(1))
        comp.scaled(comp.natural())  # ok

    def test_compose_operand_kinds(self):
        with pytest.raises(ValueError, match="needs an unbiased inner"):
            comp.compose(comp.top_k(1), 2)
        with pytest.raises(ValueError, match="needs k >= 1"):
            comp.compose(comp.natural(), 0)
        comp.compose(comp.natural(), 2)  # ok

    def test_k_vs_dimension(self):
        with pytest.raises(ValueError):
            comp.validate_for_dimension(comp.top_k(4), 3)

    def test_dimension_mismatch_shape(self):
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="batch"):
                comp._apply(comp.identity(), bad, rng_for("shape"))
        with pytest.raises(ValueError, match="one generator per row"):
            comp._apply(comp.rand_k(1), np.zeros((2, 3)), NodeDraws([rng_for("shape")]))

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
        # A kept -0.0 stays -0.0, as the keep-mask would leave it.
        signed = np.where(np.arange(n * d).reshape(n, d) % 3 == 0, -0.0, 0.0)
        out = comp._apply(comp.top_k(k), signed, rng_for("unused"))
        assert out.tobytes() == np.where(keep, signed, 0.0).tobytes()

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
        # Row r of a batch draws only from stream r, so it equals that row
        # compressed alone.
        x = rng_for("bm").standard_normal((6, 9))
        for spec in ZOO:
            batch = comp._apply(spec, x, NodeDraws([rng_for(f"u{r}") for r in range(6)]))
            for r in range(6):
                alone = comp._apply(spec, x[r : r + 1], NodeDraws([rng_for(f"u{r}")]))
                assert np.array_equal(batch[r], alone[0])


class TestNodeUniforms:
    @pytest.mark.parametrize(
        "n, width",
        [(3, 7), (20, 500), (2, 2**16 + 1)],
        ids=["B=64", "B=13", "B=1"],
    )
    def test_each_step_is_one_random_call_per_fresh_stream(self, n, width):
        uniforms = NodeDraws([rng_for(f"nu{tau}") for tau in range(n)])
        fresh = [rng_for(f"nu{tau}") for tau in range(n)]
        block = min(max(2**17 // (n * width), 1), 64)
        for _ in range(3 * block + 1):  # across three refills
            got = uniforms.draw(n, width)
            expected = np.stack([g.random(width) for g in fresh])
            assert got.tobytes() == expected.tobytes()

    def test_a_stream_serves_one_width(self):
        uniforms = NodeDraws([rng_for("w0"), rng_for("w1")])
        uniforms.draw(2, 5)
        with pytest.raises(ValueError, match="serves one width"):
            uniforms.draw(2, 6)

    def test_one_stream_per_row(self):
        uniforms = NodeDraws([rng_for("r0"), rng_for("r1")])
        with pytest.raises(ValueError, match="one generator per row"):
            uniforms.draw(3, 5)


def _dither_formula(x, gens):
    """Scaled dithering as one expression: np.linalg.norm, np.where and a draw per row."""
    rows, d = x.shape
    levels = math.sqrt(d)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    scaled_mag = np.abs(x) / safe * levels
    low = np.floor(scaled_mag)
    level = low + (np.stack([g.random(d) for g in gens]) < scaled_mag - low)
    out = np.sign(x) * safe * level / levels
    return np.where(norms > 0, out, 0.0) / 2.0


def _natural_formula(x, gens):
    mag = np.abs(x)
    mant, exp = np.frexp(mag)
    round_up = np.stack([g.random(x.shape[1]) for g in gens]) < 2.0 * mant - 1.0
    chosen = np.ldexp(np.where(round_up, 1.0, 0.5), exp)
    return np.where(mag > 0, np.sign(x) * chosen, 0.0) / 1.125


def _rtop_k_formula(x, gens, k):
    keep = comp._kept(comp.top_k(k), x, None)
    out = np.zeros_like(x)
    out[keep] = _dither_formula(x[keep].reshape(len(x), k), gens).ravel()
    return out


@pytest.mark.parametrize(
    "text, formula",
    [
        ("dither", _dither_formula),
        ("natural", _natural_formula),
        ("rtop_k:4", lambda x, gens: _rtop_k_formula(x, gens, 4)),
    ],
    ids=["dither", "natural", "rtop_k"],
)
def test_quantizers_through_node_uniforms_match_their_formula_bit_for_bit(text, formula):
    # Steps across several buffer refills; rows that are zero, hold -0.0
    # entries, are so small that their norm underflows to 0, or mix scales.
    n, d, steps = 6, 9, 40
    spec = comp.parse_spec(text)
    uniforms = NodeDraws([rng_for(f"q{tau}") for tau in range(n)])
    fresh = [rng_for(f"q{tau}") for tau in range(n)]
    data = rng_for("qx")
    for step in range(steps):
        x = data.standard_normal((n, d)) * 10.0 ** data.integers(-3, 4, size=(n, 1))
        x[step % n] = 0.0
        x[(step + 1) % n, ::3] = -0.0
        x[(step + 2) % n] = np.where(np.arange(d) % 2 == 0, -0.0, 0.0)
        x[(step + 3) % n] = data.standard_normal(d) * 1e-170
        got = comp._apply(spec, x, uniforms)
        assert got.tobytes() == formula(x, fresh).tobytes()


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

    @pytest.mark.parametrize("spec", [comp.dithering(), comp.natural()], ids=["dither", "natural"])
    def test_raw_unbiased_kinds_keep_the_mean(self, spec):
        assert comp.mean_scaling_factor(spec, 10) == 1.0

    @pytest.mark.parametrize("spec", [comp.dithering(), comp.natural()], ids=["dither", "natural"])
    def test_unbiasedness_mean_check_is_mean_scaling(self, spec):
        # The mean check draws x and then Q(x) first, so on the same stream
        # it is verify_mean_scaling at factor 1.
        unbiased = comp.verify_unbiasedness(spec, 12, 3000, rng_for("ubm"))
        scaling = comp.verify_mean_scaling(spec, 12, 3000, rng_for("ubm"))
        assert scaling.factor == 1.0
        assert unbiased.max_mean_deviation == scaling.max_abs_deviation
        assert unbiased.mean_passed == scaling.passed

    def test_chunked_estimates_keep_their_draw_order(self, monkeypatch):
        # 2000 trials in chunks of 700 draw three chunks. The values were
        # recorded with the verifiers' separate chunk loops; a change in the
        # draw order or in the accumulation across chunks moves them.
        monkeypatch.setattr(comp, "_CHUNK_ROWS", 700)
        got = []
        for spec in (comp.rand_k(5), comp.scaled(comp.dithering())):
            rep = comp.verify_contraction(spec, 20, 2000, split_rng(3, "verify", 9))
            got.append(f"{rep.mean_ratio:.6e} {rep.std_error:.6e} {rep.max_ratio:.6e}")
        for spec in (comp.natural(), comp.dithering()):
            rep = comp.verify_unbiasedness(spec, 20, 2000, split_rng(3, "verify", 9))
            got.append(
                f"{rep.max_mean_deviation:.6e} {rep.second_moment:.6e} {rep.second_moment_se:.6e}"
            )
        assert got == [
            "7.465082e-01 2.850706e-03 9.923777e-01",
            "2.896832e-01 1.026547e-03 4.452207e-01",
            "1.826816e-02 2.029907e+01 7.720306e-02",
            "3.143667e-02 2.199836e+01 8.081824e-02",
        ]


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


def _cumsum_top(score, k):
    """Top-k mask with ties resolved by a cumulative count over the whole row."""
    d = score.shape[1]
    kth = np.partition(score, d - k, axis=1)[:, d - k, None]
    above, tie = score > kth, score == kth
    free = k - above.sum(axis=1, keepdims=True)
    return above | (tie & (np.cumsum(tie, axis=1) <= free)), kth


def _tie_heavy_batches():
    rng = rng_for("ties")
    yield np.zeros((4, 9))
    yield rng.integers(0, 3, size=(20, 30)).astype(float)  # a few levels, many ties
    batch = rng.integers(0, 2, size=(6, 25)).astype(float)
    batch[1] = 0.0  # an all-zero row among others
    batch[2, :3] = 5.0  # fewer nonzeros than k
    yield batch
    yield np.repeat(rng.standard_normal((1, 40)), 3, axis=0).round(1)
    yield np.where(rng.random((5, 12)) < 0.8, 0.0, rng.standard_normal((5, 12)))


class TestTopSelection:
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_tie_path_matches_the_cumulative_count(self, k):
        for score in _tie_heavy_batches():
            k_row = min(k, score.shape[1])
            keep, kth = comp._top(np.abs(score), k_row)
            want, want_kth = _cumsum_top(np.abs(score), k_row)
            assert np.array_equal(keep, want)
            assert np.array_equal(kth, want_kth)
            assert np.all(keep.sum(axis=1) == k_row)


def _full_top_k(x, k):
    return np.flatnonzero(comp._kept(comp.top_k(k), x, None))


class TestTopKPool:
    """A pool's picks equal the full selection while the batch changes only where it kept."""

    def run(self, x, k, steps, update, rng):
        pool = comp.TopKPool(k, x.shape[1])
        for _ in range(steps):
            kept = pool.kept(x)
            assert kept.tobytes() == _full_top_k(x, k).tobytes()
            x = x.copy()
            np.put(x, kept, update(x.take(kept), rng))
        return pool

    @pytest.mark.parametrize("factor", [1, 2, 8])
    def test_kept_only_updates(self, monkeypatch, factor):
        monkeypatch.setattr(comp, "POOL_FACTOR", factor)
        rng = rng_for("pool-updates")
        x = rng.standard_normal((6, 40))
        # Kept values shrink, vanish or grow: the pool serves some steps and runs out in others.
        pool = self.run(x, 3, 60, lambda v, g: v * g.choice([0.0, 0.3, 1.5], size=v.size), rng)
        assert 1 < pool.builds < 60

    def test_kept_values_zeroed_as_top_k_shifts_do(self, monkeypatch):
        monkeypatch.setattr(comp, "POOL_FACTOR", 4)
        rng = rng_for("pool-zeroed")
        pool = self.run(rng.standard_normal((3, 50)), 2, 40, lambda v, g: v - v, rng)
        # A pool of 8 serves 4 steps. The rows are zero after 25 steps, and
        # the pool built at step 24 serves every step from there on.
        assert pool.builds == 7

    @pytest.mark.parametrize("factor", [2, 4])
    def test_ties_at_the_floor(self, monkeypatch, factor):
        # Integer levels make kept values land on the floor's score, before
        # and after its position, in and out of the pool.
        monkeypatch.setattr(comp, "POOL_FACTOR", factor)
        rng = rng_for("pool-ties")
        x = rng.integers(-3, 4, size=(8, 30)).astype(float)
        pool = self.run(x, 2, 80, lambda v, g: g.integers(-3, 4, size=v.size).astype(float), rng)
        assert pool.builds < 80

    def test_a_pick_at_the_floor_past_its_position_rebuilds(self, monkeypatch):
        monkeypatch.setattr(comp, "POOL_FACTOR", 1)
        # The pool is {0, 3} and its floor is the 2 at 0; the 2 at 2 is outside.
        x = np.array([[2.0, 0.0, 2.0, 5.0]])
        pool = comp.TopKPool(2, 4)
        assert pool.kept(x).tolist() == [0, 3]
        x[0, 3] = -2.0  # a kept value drops to the floor's score, past the 2 at 2
        assert pool.kept(x).tolist() == [0, 2]
        assert pool.builds == 2

    def test_all_zero_rows(self, monkeypatch):
        monkeypatch.setattr(comp, "POOL_FACTOR", 3)
        rng = rng_for("pool-zero-rows")
        x = rng.standard_normal((5, 20))
        x[[1, 3]] = 0.0
        x[3, ::2] = -0.0
        pool = self.run(x, 2, 30, lambda v, g: v * 0.5, rng)
        assert pool.builds < 30
        zeros = np.zeros((4, 20))
        pool = self.run(zeros, 2, 10, lambda v, g: v, rng)
        assert pool.builds == 1

    def test_reset_after_a_change_everywhere(self, monkeypatch):
        monkeypatch.setattr(comp, "POOL_FACTOR", 4)
        rng = rng_for("pool-reset")
        x = rng.standard_normal((4, 30))
        pool = comp.TopKPool(2, 30)
        for step in range(30):
            if step % 7 == 6:
                x = rng.standard_normal((4, 30))  # a refresh: every entry changes
                pool.reset()
            kept = pool.kept(x)
            assert kept.tobytes() == _full_top_k(x, 2).tobytes()
            np.put(x, kept, 0.0)
        assert pool.builds >= 5

    def test_rtop_k_through_the_pool_matches_the_full_selection(self, monkeypatch):
        monkeypatch.setattr(comp, "POOL_FACTOR", 4)
        n, d, k = 5, 60, 3
        spec = comp.rtop_k(k)
        rng = rng_for("pool-rtopk")
        x = rng.standard_normal((n, d))
        x[2] = 0.0
        pool = comp.TopKPool(k, d)
        with_pool = NodeDraws([rng_for(f"u{tau}") for tau in range(n)])
        without = NodeDraws([rng_for(f"u{tau}") for tau in range(n)])
        for _ in range(50):
            kept, values = comp._compress(spec, x, with_pool, pool=pool)
            want_kept, want_values = comp._compress(spec, x, without)
            assert kept.tobytes() == want_kept.tobytes()
            assert values.tobytes() == want_values.tobytes()
            np.put(x, kept, x.take(kept) - values)  # the shift update: r -= Q1(r)
        assert pool.builds < 50

    def test_pool_size_is_capped_at_the_row(self, monkeypatch):
        monkeypatch.setattr(comp, "POOL_FACTOR", 8)
        assert comp.TopKPool(3, 10).size == 10
        x = rng_for("pool-cap").standard_normal((2, 10))
        assert comp.TopKPool(3, 10).kept(x).tobytes() == _full_top_k(x, 3).tobytes()

    def test_pool_for_top_k_stages_shorter_than_the_row(self):
        for text, pooled in (
            ("top_k:2", True),
            ("rtop_k:3", True),
            ("ntop_k:3", True),
            ("top_k:7", False),  # a pool of 56 would hold the whole row
            ("rand_k:2", False),
            ("dither", False),
        ):
            pool = comp.pool_for(comp.parse_spec(text), 50)
            assert (pool is not None) == pooled, text
