"""Property tests of the one compressor code path, drawn over spec x d x batch.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecvr import compressors as comp
from ecvr.rng import NodeDraws

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

K_NAMES = ("top_k", "rand_k", "ntop_k", "rtop_k")
PLAIN_NAMES = ("identity", "dither", "natural")


@st.composite
def spec_texts(draw, names=K_NAMES + PLAIN_NAMES, max_d=40):
    """A parse_spec string and a dimension it can be applied to."""
    d = draw(st.integers(1, max_d))
    name = draw(st.sampled_from(names))
    if name in K_NAMES:
        name = f"{name}:{draw(st.integers(1, d))}"
    return name, d


@st.composite
def batches(draw, names=K_NAMES + PLAIN_NAMES):
    """(spec, x, uniforms): a (rows, d) batch with one stream per row."""
    text, d = draw(spec_texts(names))
    rows = draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (rows, d), elements=st.floats(-1e3, 1e3)))
    seed = draw(st.integers(0, 2**32 - 1))
    streams = [np.random.default_rng([seed, r]) for r in range(rows)]
    return comp.parse_spec(text), x, NodeDraws(streams)


@PROPERTY
@given(spec_texts())
def test_parse_format_round_trip(case):
    text, _ = case
    spec = comp.parse_spec(text)
    assert comp.format_spec(spec) == text
    assert comp.parse_spec(comp.format_spec(spec)) == spec


@PROPERTY
@given(spec_texts())
def test_every_parsed_spec_is_a_contraction(case):
    # The optimizers take any Q and Q1 that parse_spec returns as contractions;
    # test_parse_format_round_trip checks the same draws round-trip.
    text, d = case
    assert 0 < comp.delta_of(comp.parse_spec(text), d) <= 1


@PROPERTY
@given(batches(names=("identity", "top_k", "rand_k")))
def test_sparsifiers_conserve_exactly(case):
    spec, t, rngs = case
    y = comp._apply(spec, t, rngs)
    e = t - y
    assert np.array_equal(e + y, t)


@PROPERTY
@given(batches())
def test_row_nonzeros_within_k_or_d(case):
    spec, x, rngs = case
    y = comp._apply(spec, x, rngs)
    assert np.all(np.count_nonzero(y, axis=1) <= (spec.k or x.shape[1]))


@PROPERTY
@given(batches(names=("top_k",)))
def test_top_k_contracts_every_row(case):
    spec, x, rngs = case
    d = x.shape[1]
    y = comp._apply(spec, x, rngs)
    lhs = np.sum((x - y) ** 2, axis=1)
    total = np.sum(x**2, axis=1)
    assert np.all(lhs <= (1 - spec.k / d) * total + 1e-12 * total)


@PROPERTY
@given(spec_texts())
def test_bit_cost_follows_k_or_d(case):
    text, d = case
    spec = comp.parse_spec(text)
    kept = spec.k or d
    index_bits = math.ceil(math.log2(d))
    cost = comp.bit_cost(spec, d)
    if spec.kind in (comp.TOP_K, comp.RAND_K):
        assert cost == kept * (64 + index_bits)
    elif spec.kind == comp.COMPOSE:
        indices = kept * index_bits if kept < d else 0
        assert cost == comp.bit_cost(spec.inner, kept) + indices
    else:
        assert text in PLAIN_NAMES and kept == d


def _argsort_apply(spec, x, seeds):
    """Reference sparsifier: keep the first k of a stable argsort of each row.

    Top-k sorts by decreasing magnitude and rand-k by increasing uniform, so a
    tie goes to the lowest index; each row's support is applied in sorted
    order. Row r draws from ``default_rng(seeds[r])``.
    """
    rows, d = x.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
    k = spec.k
    if spec.kind != comp.RAND_K:
        order = np.argsort(-np.abs(x), axis=1, kind="stable")
    else:
        order = np.stack([g.random(d) for g in rngs]).argsort(axis=1, kind="stable")
    kept = np.sort(order[:, :k], axis=1)
    values = np.take_along_axis(x, kept, axis=1)
    if spec.kind == comp.COMPOSE:
        values = comp._apply(spec.inner, values, NodeDraws(rngs))
        values /= comp.omega_of(spec.inner, k) + 1
    out = np.zeros_like(x)
    np.put_along_axis(out, kept, values, axis=1)
    return out


TIE_ROWS = {
    "integer": st.integers(-3, 3).map(float),
    "one decimal": st.floats(-2, 2).map(lambda v: round(v, 1)),
    "all zero": st.just(0.0),
    "signed zero": st.sampled_from([0.0, -0.0]),
}


@st.composite
def tie_heavy_batches(draw):
    """(spec, x, seeds): a sparsifier or composition over rows full of ties."""
    d = draw(st.integers(1, 30))
    name = draw(st.sampled_from(K_NAMES))
    spec = comp.parse_spec(f"{name}:{draw(st.integers(1, d))}")
    rows = draw(st.integers(1, 6))
    elements = TIE_ROWS[draw(st.sampled_from(sorted(TIE_ROWS)))]
    x = draw(arrays(np.float64, (rows, d), elements=elements))
    seed = draw(st.integers(0, 2**32 - 1))
    return spec, x, [[seed, r] for r in range(rows)]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tie_heavy_batches())
def test_selection_matches_stable_argsort_under_ties(case):
    spec, x, seeds = case
    y = comp._apply(spec, x, NodeDraws([np.random.default_rng(seed) for seed in seeds]))
    expected = _argsort_apply(spec, x, seeds)
    assert y.tobytes() == expected.tobytes()
