import copy
import math
import re
import types
import zlib

import numpy as np
import pytest
from scipy import sparse

from ecvr import algorithms as alg
from ecvr import compressors as comp
from ecvr import harness
from ecvr import problem as problem_module
from ecvr.dataset import Dataset, partition
from ecvr.harness import synth_dataset
from ecvr.problem import (
    COMPOSITE,
    SMOOTH,
    DualProblem,
    PrimalProblem,
    ProblemConstants,
    compute_constants,
    logistic_grad,
    prox_elastic_net,
)
from ecvr import rng as rng_module
from ecvr.rng import NodeDraws, node_streams, split_rng

from conftest import lsvrg_step_messages


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


@pytest.fixture(scope="module")
def fixture():
    ds = synth_dataset(200, 50, 0.3, seed=20240613, scale=0.3)
    part = partition(ds, 4)
    return ds, part


@pytest.fixture(scope="module")
def composite(fixture):
    ds, part = fixture
    return PrimalProblem(ds, part, lam1=1e-3, lam2=1e-3, mode=COMPOSITE)


@pytest.fixture(scope="module")
def smooth(fixture):
    ds, part = fixture
    return PrimalProblem(ds, part, lam1=0.0, lam2=1e-3, mode=SMOOTH)


@pytest.fixture(scope="module")
def dual(composite):
    return DualProblem(composite)


@pytest.fixture(scope="module")
def constants(composite):
    return compute_constants(composite)


def tiny_problem():
    features = sparse.csc_matrix(np.array([[1.0, -0.2], [0.5, 1.0]]))
    ds = Dataset(features=features, labels=np.array([1.0, -1.0]))
    part = partition(ds, 1)
    return PrimalProblem(ds, part, lam1=0.1, lam2=0.1, mode=COMPOSITE)


class TestEcLsvrgStep:
    def test_identity_reduction_matches_vanilla(self, composite):
        ec = alg.EcLsvrg(
            composite, comp.identity(), comp.identity(), eta=0.5, p=0.1, seed=77
        )
        plain = alg.Lsvrg(composite, eta=0.5, p=0.1, seed=77)
        worst = 0.0
        for _ in range(100):
            ec.step()
            plain.step()
            worst = max(worst, float(np.max(np.abs(ec.x - plain.x))))
        assert worst <= 1e-12
        assert np.max(np.abs(ec.e)) == 0.0

    def test_smooth_identity_reduction(self, smooth):
        ec = alg.EcLsvrg(smooth, comp.identity(), comp.identity(), eta=0.5, p=0.1, seed=3)
        plain = alg.Lsvrg(smooth, eta=0.5, p=0.1, seed=3)
        for _ in range(100):
            ec.step()
            plain.step()
        assert np.max(np.abs(ec.x - plain.x)) <= 1e-12

    def test_zero_step_size_keeps_iterate(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(1), comp.top_k(1), eta=0.0, p=0.5, seed=5)
        start = opt.h.copy()
        for _ in range(10):
            opt.step()
            assert np.array_equal(opt.x, np.zeros(composite.d))
        # The shifts start at the node gradients of the frozen iterate, so
        # every shift correction Q1(grad_w - h) is zero and they stay there.
        assert np.array_equal(opt.h, start) and np.array_equal(opt.h, opt.grad_w)

    def test_two_hand_executed_steps(self):
        # Straight-line re-execution of the update rule on a 2x2 problem. The
        # shifts start at the node gradients, so Q1 first sends a nonzero
        # correction on the step after the first refresh: at seed 123 the
        # coin first lands on step 4, hence five steps.
        problem = tiny_problem()
        eta, p, seed = 0.3, 0.5, 123
        opt = alg.EcLsvrg(problem, comp.top_k(1), comp.top_k(1), eta=eta, p=p, seed=seed)

        sample = split_rng(seed, "sample", 0)
        coin = split_rng(seed, "coin")
        a = problem._design.A.toarray()
        b = problem._design.b

        def grad_i(x, j):
            margin = float(a[:, j] @ x)
            return -b[j] / (1.0 + math.exp(b[j] * margin)) * a[:, j]

        def top1(v):
            keep = int(np.argmax(np.abs(v)))
            out = np.zeros_like(v)
            out[keep] = v[keep]
            return out

        x = np.zeros(2)
        w = np.zeros(2)
        e = np.zeros(2)
        grad_w = 0.5 * (grad_i(w, 0) + grad_i(w, 1))
        h = grad_w.copy()
        h_avg = grad_w.copy()
        refreshed = learned_after_refresh = False
        for _ in range(5):
            i = int(sample.integers(2))
            g = grad_i(x, i) - grad_i(w, i) + grad_w - h
            t = eta * g + e
            y = top1(t)
            e = t - y
            z = top1(grad_w - h)
            flip = bool(coin.random() < p)
            x_half = x - (y + eta * h_avg)
            x_new = prox_elastic_net(x_half, eta, 0.1, 0.1)
            h = h + z
            h_avg = h_avg + z
            learned_after_refresh |= refreshed and bool(np.any(z != 0))
            if flip:
                w = x.copy()
                grad_w = 0.5 * (grad_i(w, 0) + grad_i(w, 1))
                refreshed = True
            x = x_new

            opt.step()
            assert np.allclose(opt.x, x, atol=1e-15)
            assert np.allclose(opt.e[0], e, atol=1e-15)
            assert np.allclose(opt.h[0], h, atol=1e-15)
            assert np.array_equal(opt.w, w)
        assert learned_after_refresh

    @pytest.mark.parametrize("q", ["top_k:2", "rand_k:3", "dither"], ids=str)
    def test_error_conservation_recomputed(self, composite, q):
        spec = comp.parse_spec(q)
        opt = alg.EcLsvrg(composite, spec, spec, eta=0.2, p=0.05, seed=11)
        for _ in range(30):
            _, _, t, y = lsvrg_step_messages(opt)
            resid = opt.e + y - t
            scale = 1.0 + np.max(np.abs(t))
            assert np.max(np.abs(resid)) <= 1e-12 * scale

    def test_error_conservation_exact_for_sparsifiers(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(1), comp.top_k(1), eta=0.3, p=0.05, seed=13)
        for _ in range(30):
            _, _, t, y = lsvrg_step_messages(opt)
            # e_new + y == eta g + e_prev, recomputed in the same order.
            assert np.array_equal(opt.e + y, t)

    def test_shift_average_identity(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(2), comp.top_k(2), eta=0.2, p=0.05, seed=17)
        for _ in range(50):
            opt.step()
            assert np.max(np.abs(opt.h_avg - opt.h.mean(axis=0))) <= 1e-12

    @pytest.mark.parametrize("q", ["top_k:1", "dither"], ids=str)
    def test_compensated_iterate_recursion(self, composite, q):
        # x - mean(e) moves by exactly -eta (g + h + prox subgradient).
        eta = 0.25
        spec = comp.parse_spec(q)
        opt = alg.EcLsvrg(composite, spec, spec, eta=eta, p=0.05, seed=19)
        for _ in range(60):
            tilde_prev = opt.x - opt.e.mean(axis=0)
            info, g, _, _ = lsvrg_step_messages(opt)
            tilde = opt.x - opt.e.mean(axis=0)
            xi = (info.x_half - opt.x) / eta
            predicted = tilde_prev - eta * (g.mean(axis=0) + info.h_avg_prev + xi)
            scale = 1.0 + float(np.max(np.abs(tilde)))
            assert np.max(np.abs(tilde - predicted)) <= 1e-10 * scale

    def test_bits_accounting(self, composite):
        d = composite.d
        opt = alg.EcLsvrg(composite, comp.top_k(1), comp.rand_k(2), eta=0.1, p=0.05, seed=23)
        per_step = composite.n * (comp.bit_cost(comp.top_k(1), d) + comp.bit_cost(comp.rand_k(2), d) + 1)
        for k in range(1, 20):
            opt.step()
            assert opt.bits == per_step * k

    def test_reference_refresh_probability_honored(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(1), comp.top_k(1), eta=0.1, p=1.0, seed=29)
        prev_x = opt.x.copy()
        opt.step()
        assert np.array_equal(opt.w, prev_x)  # p = 1 refreshes every step

    def test_rejects_bad_parameters(self, composite):
        with pytest.raises(ValueError):
            alg.EcLsvrg(composite, comp.top_k(1), eta=0.1, p=0.0, seed=1)
        with pytest.raises(ValueError):
            alg.EcLsvrg(composite, comp.top_k(1), eta=-0.1, p=0.5, seed=1)
        with pytest.raises(ValueError):
            alg.EcLsvrg(composite, comp.top_k(10_000), eta=0.1, p=0.5, seed=1)

    @pytest.mark.parametrize("p", [0.0, 1.5])
    def test_lsvrg_and_ec_lsvrg_reject_a_refresh_probability_alike(self, composite, p):
        message = "^" + re.escape(f"refresh probability must be in (0, 1], got {p}") + "$"
        with pytest.raises(ValueError, match=message):
            alg.Lsvrg(composite, eta=0.1, p=p, seed=1)
        with pytest.raises(ValueError, match=message):
            alg.EcLsvrg(composite, comp.top_k(1), eta=0.1, p=p, seed=1)

    def test_primal_optimizers_and_the_theory_step_share_one_step_rule(self, composite, constants):
        negative = "^step size must be nonnegative$"
        with pytest.raises(ValueError, match=negative):
            alg.Lsvrg(composite, eta=-0.1, p=0.5, seed=1)
        with pytest.raises(ValueError, match=negative):
            alg.EcGd(composite, comp.top_k(1), eta=-0.1, seed=1)
        with pytest.raises(ValueError, match=re.escape("refresh probability must be in (0, 1], got 1.5")):
            alg.theoretical_eta(constants, 4, 0.5, 0.5, 1.5, COMPOSITE)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numerical_error(self, smooth):
        # No prox to tame the step in smooth mode, so a huge eta blows up.
        opt = alg.EcLsvrg(smooth, comp.top_k(1), comp.top_k(1), eta=1e9, p=0.05, seed=31)
        with pytest.raises(alg.NumericalError):
            for _ in range(2000):
                opt.step()


class DenseEcLsvrg:
    """EC-LSVRG written node by node on dense vectors, as the update rule reads.

    Node tau draws its example from stream ("sample", tau) and its compressor
    uniforms from its own streams; every message is a dense vector. The n
    margins are one product, as in the step, since a per-node dot product
    sums in another order.
    """

    def __init__(self, problem, q, q1, *, eta, p, seed):
        n, d = problem.n, problem.d
        self.problem, self.q, self.q1, self.eta, self.p = problem, q, q1, eta, p
        self.x = np.zeros(d)
        self.w = self.x.copy()
        self.e = np.zeros((n, d))
        self.grad_w = problem.grad_f_nodes(self.w)
        self.h = self.grad_w.copy()
        self.h_avg = self.h.mean(axis=0)
        self.k = 0
        self.per_step = n * (comp.bit_cost(q, d) + comp.bit_cost(q1, d) + 1.0)
        self.sample = node_streams(seed, "sample", n)
        self.q_rngs = [NodeDraws([g]) for g in node_streams(seed, "compress", n)]
        self.q1_rngs = [NodeDraws([g]) for g in node_streams(seed, "compress_shift", n)]
        self.coin = split_rng(seed, "coin")
        self.refreshes = self.zero_shift_steps = 0

    def step(self):
        pr, eta = self.problem, self.eta
        design, part = pr._design, pr.part
        x, w = self.x, self.w
        J = [part.example_index(tau, int(g.integers(part.m))) for tau, g in enumerate(self.sample)]
        cols = np.stack([design.A[:, [j]].toarray().ravel() for j in J])
        b = design.b[J]
        dc = logistic_grad(cols @ x, b) - logistic_grad(cols @ w, b)
        ys, zs, es = [], [], []
        for tau in range(pr.n):
            g = dc[tau] * cols[tau] + self.grad_w[tau] - self.h[tau]
            if pr.mode == SMOOTH:
                g = g + pr.lam2 * (x - w)
            t = eta * g + self.e[tau]
            y = comp._apply(self.q, t[None], self.q_rngs[tau])[0]
            ys.append(y)
            es.append(t - y)
            zs.append(comp._apply(self.q1, (self.grad_w[tau] - self.h[tau])[None], self.q1_rngs[tau])[0])
        self.zero_shift_steps += not np.any(self.grad_w - self.h)
        coin = bool(self.coin.random() < self.p)
        x_half = x - (np.stack(ys).mean(axis=0) + eta * self.h_avg)
        self.e = np.stack(es)
        self.h = self.h + np.stack(zs)
        self.h_avg = self.h_avg + np.stack(zs).mean(axis=0)
        if coin:
            self.refreshes += 1
            self.w = x.copy()
            self.grad_w = pr.grad_f_nodes(self.w)
        self.x = x_half if pr.mode == SMOOTH else pr.prox_psi(x_half, eta)
        self.k += 1

    @property
    def bits(self):
        return self.k * self.per_step


class TestKeptPositionStep:
    @pytest.mark.parametrize(
        "q, q1",
        [
            ("top_k:2", "top_k:2"),
            ("top_k:2", "rand_k:3"),
            ("rtop_k:3", "rtop_k:3"),
            ("ntop_k:3", "top_k:2"),
            ("dither", "top_k:2"),
        ],
        ids="/".join,
    )
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("mode", [COMPOSITE, SMOOTH])
    def test_matches_the_dense_node_by_node_step(self, fixture, monkeypatch, q, q1, dense, mode):
        if not dense:
            monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        ds, part = fixture
        lam1 = 1e-3 if mode == COMPOSITE else 0.0
        primal = PrimalProblem(ds, part, lam1=lam1, lam2=1e-3, mode=mode)
        assert (primal._design.A_dense is not None) == dense
        specs = comp.parse_spec(q), comp.parse_spec(q1)
        opt = alg.EcLsvrg(primal, *specs, eta=0.5, p=0.2, seed=5)
        ref = DenseEcLsvrg(primal, *specs, eta=0.5, p=0.2, seed=5)
        for _ in range(40):
            opt.step()
            ref.step()
            for name in ("x", "w", "e", "h", "h_avg", "grad_w", "bits"):
                assert np.array_equal(getattr(opt, name), getattr(ref, name)), name
            opt.certify()
        # Q1 sees an all-zero batch until the first refresh, and then learns.
        assert ref.zero_shift_steps >= 1 and ref.refreshes >= 3
        # A pooled Q1 served some steps without a full selection.
        assert opt._q1_pool is None or opt._q1_pool.builds < 40

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_step_gathers_the_sampled_entries_once(self, fixture, monkeypatch, dense):
        if not dense:
            monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        ds, part = fixture
        primal = PrimalProblem(ds, part, lam1=1e-3, lam2=1e-3)
        design = primal._design
        assert (design.A_dense is not None) == dense
        opt = alg.EcLsvrg(primal, comp.top_k(2), comp.top_k(2), eta=0.5, p=0.2, seed=5)
        calls = {"columns": 0, "column_entries": 0}

        def counted(name):
            method = getattr(design, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(design, name, counted(name))
        for _ in range(30):
            opt.step()
        assert calls == {"columns": 0, "column_entries": 30}

    def test_shift_average_checks_touched_columns_and_certify_the_rest(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(2), comp.top_k(2), eta=0.5, p=0.3, seed=7)
        for _ in range(10):
            opt.step()
        k, d = opt.k, composite.d
        # Q1 is top-k, so the columns the next step touches are known ahead.
        touched = set((np.flatnonzero(comp._kept(opt.q1, opt.grad_w - opt.h, None)) % d).tolist())
        j_touched = min(touched)
        broken = copy.deepcopy(opt)
        broken.h[2, j_touched] += 1e-3
        message = rf"^shift average drifted at step {k}, column {j_touched}$"
        with pytest.raises(alg.InvariantError, match=message):
            broken.step()
        # Off the touched columns the step passes, and the record's certify
        # names the step and the column where the average broke.
        untouched = [j for j in range(d) if j not in touched]
        j = untouched[int(np.argmin(np.abs((opt.grad_w - opt.h)[2, untouched])))]
        broken = copy.deepcopy(opt)
        broken.h[2, j] += 1e-9
        broken.step()
        with pytest.raises(alg.InvariantError, match=rf"^shift average drifted at step {k + 1}, column {j}$"):
            broken.certify()

    def test_certify_names_the_node(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(2), comp.top_k(2), eta=0.5, p=0.3, seed=7)
        for _ in range(10):
            opt.step()
        opt.certify()
        broken = copy.deepcopy(opt)
        broken.h[2, 7] += np.inf
        with pytest.raises(alg.NumericalError, match=r"^shift vectors became non-finite at step 10, node 2$"):
            broken.certify()

    def test_dense_shift_step_names_the_node(self, monkeypatch, composite):
        # On step 4 the identity Q1 outputs NaN on node 2, so h turns non-finite
        # there; the step that wrote all of h names the node, as certify does.
        q1 = comp.identity()
        opt = alg.EcLsvrg(composite, comp.top_k(2), q1, eta=0.5, p=0.3, seed=7)
        real = comp._compress

        def poisoned(spec, x, rngs, magnitude=None, pool=None):
            kept, y = real(spec, x, rngs, magnitude, pool)
            if spec == q1 and opt.k == 4:
                y[2, 0] = np.nan
            return kept, y

        monkeypatch.setattr(comp, "_compress", poisoned)
        for _ in range(4):
            opt.step()
        with pytest.raises(alg.NumericalError, match=r"^shift vectors became non-finite at step 4, node 2$"):
            opt.step()


class TestCompressWithFeedback:
    def streams(self, n):
        return NodeDraws([rng_for(f"fb{tau}") for tau in range(n)])

    def test_nonfinite_input_names_the_node(self):
        # The first bad node is named, whether the kind copies or quantizes.
        for q in ("top_k:2", "dither"):
            for value in (np.nan, np.inf, -np.inf):
                t = rng_for("fb").standard_normal((4, 6))
                t[2, 3] = value
                t[3, 0] = value
                with pytest.raises(alg.NumericalError, match="step 5, node 2"):
                    alg._compress_with_feedback(comp.parse_spec(q), t, self.streams(4), 5)

    @pytest.mark.parametrize("q", ["top_k:2", "dither"], ids=str)
    def test_lost_message_names_the_node(self, monkeypatch, q):
        # Node 1's output absorbs its input into 1e20, so residual + output
        # rounds to 0 instead of t, past either tolerance.
        real = comp._compress

        def lossy(spec, x, rngs, magnitude=None):
            kept, y = real(spec, x, rngs, magnitude)
            if kept is None:
                y[1] = x[1] + 1e20
            else:
                node1 = kept // x.shape[1] == 1
                y[node1] = x.take(kept[node1]) + 1e20
            return kept, y

        monkeypatch.setattr(comp, "_compress", lossy)
        t = rng_for("fb").standard_normal((4, 6))
        with pytest.raises(alg.InvariantError, match="step 7, node 1"):
            alg._compress_with_feedback(comp.parse_spec(q), t, self.streams(4), 7)

    @pytest.mark.parametrize("q", ["top_k:1", "dither"], ids=str)
    def test_optimizer_step_names_the_broken_step_and_node(self, monkeypatch, composite, dual, q):
        # On step 3, Q's output at node 2 absorbs that node's largest entry
        # into 1e20, so residual + output rounds to 0 there. Top-k runs on
        # EcLsvrg, whose Q1 is rand-k and left alone, and dithering on EcDual.
        spec = comp.parse_spec(q)
        if q == "top_k:1":
            opt = alg.EcLsvrg(composite, spec, comp.rand_k(2), eta=0.2, p=0.05, seed=5)
        else:
            opt = alg.EcDual(dual, spec, theta=1e-3, seed=5)
        real = comp._compress

        def lossy(spec_, x, rngs, magnitude=None, pool=None):
            kept, y = real(spec_, x, rngs, magnitude, pool)
            if spec_ == spec and opt.k == 3:
                if kept is None:
                    j = int(np.argmax(np.abs(x[2])))
                    y[2, j] = x[2, j] + 1e20
                else:
                    node2 = kept // x.shape[1] == 2
                    y[node2] = x.take(kept[node2]) + 1e20
            return kept, y

        monkeypatch.setattr(comp, "_compress", lossy)
        for _ in range(3):
            opt.step()
        with pytest.raises(alg.InvariantError, match="^error conservation broken at step 3, node 2$"):
            opt.step()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dither_whose_squares_overflow_is_a_numerical_error(self, composite):
        # Messages of order 1e198 overflow the row norms, so the dither's
        # output and the residual are NaN: not a conservation fault.
        opt = alg.EcGd(composite, comp.dithering(), eta=1e200, seed=3)
        with pytest.raises(alg.NumericalError, match="^iterate became non-finite at step 1$"):
            opt.step()

    def test_one_compressor_call_per_compressor_per_step(self, monkeypatch, composite, dual):
        calls = []
        real = comp._compress

        def counted(spec, x, rngs, magnitude=None, pool=None):
            calls.append(x.shape[0])
            return real(spec, x, rngs, magnitude, pool)

        monkeypatch.setattr(comp, "_compress", counted)
        n = composite.n
        alg.EcLsvrg(composite, comp.top_k(2), comp.rand_k(2), eta=0.1, p=0.5, seed=3).step()
        assert calls == [n, n]
        calls.clear()
        alg.EcGd(composite, comp.top_k(2), eta=0.1, seed=3).step()
        assert calls == [n]
        calls.clear()
        alg.EcDual(dual, comp.top_k(2), theta=1e-3, seed=3).step()
        assert calls == [n]


class TestEcGd:
    def test_identity_is_exact_prox_gradient(self, composite):
        opt = alg.EcGd(composite, comp.identity(), eta=0.7, seed=1)
        x = np.zeros(composite.d)
        for _ in range(5):
            expected = composite.prox_psi(x - 0.7 * composite.grad_f(x), 0.7)
            opt.step()
            assert np.allclose(opt.x, expected, atol=1e-14)
            x = expected

    def test_stationary_point_is_fixed(self):
        # Two mirrored examples on one node make x = 0 a zero-gradient point.
        features = sparse.csc_matrix(np.array([[1.0, 1.0], [0.5, 0.5]]))
        ds = Dataset(features=features, labels=np.array([1.0, -1.0]))
        problem = PrimalProblem(ds, partition(ds, 1), lam1=0.0, lam2=0.1, mode=COMPOSITE)
        opt = alg.EcGd(problem, comp.top_k(1), eta=0.5, seed=2)
        for _ in range(5):
            opt.step()
        assert np.array_equal(opt.x, np.zeros(2))
        assert np.max(np.abs(opt.e)) == 0.0

    def test_error_feedback_keeps_residual(self, composite):
        opt = alg.EcGd(composite, comp.top_k(1), eta=0.5, seed=3)
        opt.step()
        assert opt.error_norm() > 0.0
        assert opt.bits == composite.n * comp.bit_cost(comp.top_k(1), composite.d)


class TestCheckSurrogate:
    # With these duals the bound 1e-10 (1 + max |alpha|) is 4e-10; the
    # aggregate's, 1e-10 max |aggregate|, is 1e-7 at scale 1e3 and 1e-13 at 1e-3.
    @pytest.mark.parametrize(
        "scale, lag, raises",
        [(1e3, 1e-6, True), (1e3, 1e-8, False), (1e-3, 1e-11, False)],
        ids=["past-both", "past-the-dual-bound-only", "past-the-aggregate-bound-only"],
    )
    def test_raises_only_past_both_bounds(self, scale, lag, raises):
        opt = types.SimpleNamespace(alpha=np.array([3.0, -1.0]), k=9)
        aggregate = scale * np.array([1.0, -0.5, 0.25])
        u = aggregate + np.array([0.0, lag, 0.0])
        if raises:
            with pytest.raises(alg.InvariantError, match=r"^stub surrogate drifted from A alpha at step 9$"):
                alg._check_surrogate("stub surrogate", opt, u, aggregate)
        else:
            alg._check_surrogate("stub surrogate", opt, u, aggregate)


class TestEcDual:
    def theta_for(self, constants, dual, delta):
        return alg.theoretical_theta(constants, dual.part.m, dual.part.n, dual.lam, dual.gamma, delta)

    def stepped(self, dual, constants, seed):
        opt = alg.EcDual(dual, comp.top_k(1), theta=self.theta_for(constants, dual, 0.02), seed=seed)
        for _ in range(20):
            opt.step()
        return opt

    @pytest.mark.parametrize("variant", [alg.QUARTZ, alg.SDCA])
    def test_identity_reduction(self, dual, constants, variant):
        theta = self.theta_for(constants, dual, 1.0)
        ec = alg.EcDual(dual, comp.identity(), theta=theta, seed=41, variant=variant)
        plain = alg.VanillaDual(dual, theta=theta, seed=41, variant=variant)
        for _ in range(100):
            ec.step()
            plain.step()
        assert np.max(np.abs(ec.x - plain.x)) <= 1e-12
        assert np.max(np.abs(ec.alpha - plain.alpha)) <= 1e-12
        assert np.max(np.abs(ec.e)) == 0.0

    def test_initial_surrogate_identity(self, dual, constants):
        theta = self.theta_for(constants, dual, 0.02)
        opt = alg.EcDual(dual, comp.top_k(1), theta=theta, seed=43)
        # alpha starts at 0 and u0 = aggregate(0) = 0: both sides vanish.
        assert np.array_equal(opt.u, np.zeros(dual.d))
        assert np.array_equal(dual.dual_aggregate(opt.alpha), np.zeros(dual.d))

    def test_surrogate_identity_along_run(self, dual, constants):
        theta = self.theta_for(constants, dual, 0.02)
        opt = alg.EcDual(dual, comp.top_k(1), theta=theta, seed=47)
        for _ in range(200):
            opt.step()
            lag = opt.u + opt.e.mean(axis=0) - dual.dual_aggregate(opt.alpha)
            assert np.max(np.abs(lag)) <= 1e-10 * (1.0 + np.max(np.abs(opt.alpha)))

    def test_step_check_catches_a_drifted_surrogate(self, dual, constants):
        opt = self.stepped(dual, constants, seed=71)
        opt.u = opt.u + 1e-6
        with pytest.raises(alg.InvariantError, match=rf"compressed surrogate drifted .* step {opt.k + 1}$"):
            opt.step()

    def test_certify_catches_what_the_step_check_cannot(self, dual, constants):
        # Moving u and the tracked v together keeps the step's identity; only
        # the full product sees that neither matches A alpha.
        opt = self.stepped(dual, constants, seed=73)
        opt.u = opt.u + 1e-6
        opt.v = opt.v + 1e-6
        opt.step()
        with pytest.raises(alg.InvariantError, match=rf"compressed surrogate drifted .* step {opt.k}$"):
            opt.certify()

    def test_certify_names_an_infeasible_unsampled_block(self, dual, constants):
        opt = self.stepped(dual, constants, seed=79)
        upcoming = copy.deepcopy(opt).step().sampled
        j = next(i for i in range(dual.N) if i not in upcoming)
        opt.alpha[j] = 2.0 * dual.labels[j]
        opt.step()  # the step checks only the blocks it changed
        with pytest.raises(alg.InvariantError, match=rf"at step {opt.k}: block {j} has b\*alpha=2\.0$"):
            opt.certify()

    def test_steps_make_no_full_product(self, monkeypatch, dual, constants):
        opt = self.stepped(dual, constants, seed=83)
        calls = []
        full = DualProblem.dual_aggregate
        monkeypatch.setattr(DualProblem, "dual_aggregate", lambda pr, a: calls.append(1) or full(pr, a))
        for _ in range(100):
            opt.step()
        assert calls == []
        opt.certify()
        assert len(calls) == 1

    @pytest.mark.parametrize("algo", ["ec_quartz", "quartz"])
    def test_run_certifies_every_record(self, monkeypatch, algo):
        # One product when the optimizer starts, then one per record: certify
        # checks it and the duality gap reuses it.
        config = harness.RunConfig(algo=algo, compressor="top_k:2", epochs=3.0, cadence=7)
        setup = harness.build_setup(config)
        calls = []
        full = DualProblem.dual_aggregate
        monkeypatch.setattr(DualProblem, "dual_aggregate", lambda pr, a: calls.append(1) or full(pr, a))
        result = harness._run(config, setup)
        assert result.records[-1].k == result.steps
        assert len(calls) == 1 + len(result.records)

    def test_run_computes_one_margins_pass_per_record(self, monkeypatch):
        # The primal gap and the duality gap share the record's loss.
        config = harness.RunConfig(algo="ec_quartz", compressor="top_k:2", epochs=3.0, cadence=7)
        setup = harness.build_setup(config)
        calls = []
        full = problem_module._Design.margins
        monkeypatch.setattr(problem_module._Design, "margins", lambda ds, x: calls.append(1) or full(ds, x))
        result = harness._run(config, setup)
        assert len(calls) == len(result.records)

    def test_vanilla_certify_names_the_step_of_a_drifted_surrogate(self, dual, constants):
        plain = alg.VanillaDual(dual, theta=self.theta_for(constants, dual, 1.0), seed=89)
        for _ in range(20):
            plain.step()
        assert np.array_equal(plain.certify(), dual.dual_aggregate(plain.alpha))
        plain.u = plain.u + 1e-6
        with pytest.raises(alg.InvariantError, match=r"^primal surrogate drifted from A alpha at step 20$"):
            plain.certify()

    def test_vanilla_step_names_the_step_that_wrote_a_nonfinite_dual(self, monkeypatch, dual, constants):
        # The step checks only the n duals it wrote; a NaN derivative at step 6 lands there.
        plain = alg.VanillaDual(dual, theta=self.theta_for(constants, dual, 1.0), seed=89)
        for _ in range(5):
            plain.step()
        monkeypatch.setattr(alg, "logistic_grad", lambda margins, b: np.full(len(b), np.nan))
        with pytest.raises(alg.NumericalError, match=r"^dual vector became non-finite at step 6$"):
            plain.step()

    @pytest.mark.parametrize("algo", ["ec_quartz", "ec_sdca", "quartz"])
    def test_weak_l2_run_passes_its_surrogate_checks(self, algo):
        # At lambda2 = 1e-8 the aggregate A alpha / (lam N) grows to about
        # 1e6, and the surrogate's rounding lag with it.
        config = harness.RunConfig(algo=algo, lambda1=0.0, lambda2=1e-8, theta=0.02, epochs=20)
        result = harness.run_experiment(config)
        assert result.steps == 1000 and len(result.records) == 20

    @pytest.mark.parametrize("plain", [False, True], ids=["ec_dual", "vanilla_dual"])
    def test_weak_l2_relative_drift_is_still_caught(self, plain):
        ds = synth_dataset(200, 50, 0.3, seed=0)
        dual = DualProblem(PrimalProblem(ds, partition(ds, 4), lam1=0.0, lam2=1e-8))
        if plain:
            opt = alg.VanillaDual(dual, theta=0.02, seed=0)
        else:
            opt = alg.EcDual(dual, comp.identity(), theta=0.02, seed=0)
        for _ in range(49):
            opt.step()
        opt.certify()
        peak = float(np.max(np.abs(opt.u)))
        assert peak > 1e5
        opt.u[int(np.argmax(np.abs(opt.u)))] += 1e-8 * peak
        with pytest.raises(alg.InvariantError, match=r"surrogate drifted from A alpha at step 49$"):
            opt.certify()

    def test_feasibility_throughout(self, dual, constants):
        theta = self.theta_for(constants, dual, 0.02)
        opt = alg.EcDual(dual, comp.rand_k(2), theta=theta, seed=53)
        for _ in range(200):
            opt.step()
            feas = dual.labels * opt.alpha
            assert feas.min() >= -1e-12 and feas.max() <= 1 + 1e-12

    @pytest.mark.parametrize("variant", [alg.QUARTZ, alg.SDCA])
    def test_full_theta_single_example(self, variant):
        # With theta = 1/m, n = m = 1, the dual block lands exactly on
        # -phi'(a'x1) after one step.
        features = sparse.csc_matrix(np.array([[0.8], [-0.6]]))
        ds = Dataset(features=features, labels=np.array([1.0]))
        part = partition(ds, 1)
        dual = DualProblem(PrimalProblem(ds, part, lam1=0.1, lam2=0.5))
        opt = alg.EcDual(dual, comp.identity(), theta=1.0, seed=59, variant=variant)
        info = opt.step()
        expected = -logistic_grad(float(features.toarray()[:, 0] @ info.x_new), 1.0)
        assert opt.alpha[0] == pytest.approx(expected, abs=1e-15)

    def test_bits_accounting(self, dual, constants):
        theta = self.theta_for(constants, dual, 0.02)
        opt = alg.EcDual(dual, comp.top_k(1), theta=theta, seed=61)
        per = dual.part.n * comp.bit_cost(comp.top_k(1), dual.d)
        for k in range(1, 10):
            opt.step()
            assert opt.bits == per * k

    def test_rejects_bad_theta(self, dual):
        with pytest.raises(ValueError):
            alg.EcDual(dual, comp.top_k(1), theta=0.0, seed=1)
        with pytest.raises(ValueError):
            alg.EcDual(dual, comp.top_k(1), theta=2.0 / dual.part.m, seed=1)

    @pytest.mark.parametrize("plain", [False, True], ids=["ec_dual", "vanilla_dual"])
    def test_both_duals_reject_a_bad_variant_or_theta_alike(self, dual, plain):
        def build(**kw):
            if plain:
                return alg.VanillaDual(dual, seed=1, **kw)
            return alg.EcDual(dual, comp.top_k(1), seed=1, **kw)

        m = dual.part.m
        with pytest.raises(ValueError, match=r"^unknown variant 'dca'$"):
            build(theta=1.0 / m, variant="dca")
        for theta in (0.0, -1.0 / m, 2.0 / m):
            message = re.escape(f"theta must be in (0, 1/m]; got {theta} with m={m}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(theta=theta)
        assert build(theta=1.0 / m, variant=alg.SDCA).theta == 1.0 / m  # the bound is admitted


class TestStepSizeFormulas:
    def test_composite_delta_one(self, constants):
        eta = alg.theoretical_eta(constants, 4, 1.0, 1.0, 0.5, COMPOSITE)
        assert eta == pytest.approx(1.0 / (4 * constants.l_f + 42 * constants.l / 4))

    def test_smooth_delta_one(self, constants):
        eta = alg.theoretical_eta(constants, 4, 1.0, 1.0, 0.5, SMOOTH)
        assert eta == pytest.approx(1.0 / (4 * constants.l_f + 33 * constants.l / 4))

    @pytest.mark.parametrize("regime", [COMPOSITE, SMOOTH])
    def test_monotone_in_delta(self, constants, regime):
        etas = [
            alg.theoretical_eta(constants, 4, delta, delta, delta, regime)
            for delta in (0.25, 0.5, 1.0)
        ]
        assert etas[0] <= etas[1] <= etas[2]

    @pytest.mark.parametrize("regime", [COMPOSITE, SMOOTH])
    def test_positive_and_rejects_zero_delta(self, constants, regime):
        assert alg.theoretical_eta(constants, 4, 0.05, 0.05, 0.05, regime) > 0
        with pytest.raises(ValueError):
            alg.theoretical_eta(constants, 4, 0.0, 0.5, 0.5, regime)

    @pytest.mark.parametrize("regime", [COMPOSITE, SMOOTH])
    def test_zero_constants_bound_no_step(self, regime):
        # All-zero data without an l2 term in f: every smoothness constant is 0.
        zero = ProblemConstants(r_m=0.0, r_bar_sq=0.0, r_sq=0.0, l=0.0, l_bar=0.0, l_f=0.0, mu=0.0)
        for delta in (1.0, 0.05):
            assert alg.theoretical_eta(zero, 4, delta, delta, delta, regime) == math.inf

    def test_theta_formula_transcription(self):
        # Orthonormal columns: every constant is known in closed form.
        c = ProblemConstants(r_m=1.0, r_bar_sq=0.5, r_sq=0.25, l=0.25, l_bar=0.125, l_f=0.0625, mu=1e-3)
        m, n, lam, gamma, delta = 5, 2, 1e-2, 4.0, 0.2
        a1 = (1 - delta) * (2 * 0.5 + delta * 1.0)
        dlg = delta * lam * gamma
        first = 2 * dlg / (dlg * m + math.sqrt(dlg**2 * m**2 + 48 * lam * gamma * a1))
        second = (m * n) * lam * gamma * (1 / m) / (3 * (1.0 + n * 0.25) + (m * n) * lam * gamma)
        third = dlg / (dlg * m + 12 * 0.5 * math.sqrt(a1))
        expected = min(first, second, third)
        got = alg.theoretical_theta(c, m, n, lam, gamma, delta)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_theta_delta_one_fallback(self, constants, dual):
        m, n = dual.part.m, dual.part.n
        v = constants.r_m**2 + n * constants.r_sq
        expected = (m * n) * dual.lam * dual.gamma * (1 / m) / (v + (m * n) * dual.lam * dual.gamma)
        assert alg.theoretical_theta(constants, m, n, dual.lam, dual.gamma, 1.0) == pytest.approx(expected)

    def test_theta_near_one_limit_approaches_inverse_m(self):
        c = ProblemConstants(r_m=1.0, r_bar_sq=1.0, r_sq=1.0, l=0.25, l_bar=0.25, l_f=0.25, mu=1e-3)
        m, n = 10, 3
        # Large lam*gamma makes the sampling branch slack; a1 -> 0 drives the
        # other two branches to 1/m.
        theta = alg.theoretical_theta(c, m, n, lam=1e6, gamma=4.0, delta=1 - 1e-12)
        assert theta == pytest.approx(1.0 / m, rel=1e-5)

    def test_theta_times_m_at_most_one(self, constants, dual):
        for delta in np.linspace(0.01, 0.99, 25):
            theta = alg.theoretical_theta(
                constants, dual.part.m, dual.part.n, dual.lam, dual.gamma, float(delta)
            )
            assert 0 < theta * dual.part.m <= 1.0 + 1e-12


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda c: alg.theoretical_eta(c, 4, 0.5, 0.5, 0.5, "bogus"),
                "unknown regime 'bogus'; expected 'composite' or 'smooth'",
            ),
            (lambda c: alg.theoretical_theta(c, 10, 4, 1e-3, 4.0, 0.0), "delta must be in (0, 1]"),
        ],
        ids=["eta-regime", "theta-delta"],
    )
    def test_rejects_an_input_outside_its_domain(self, constants, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(constants)


class TestSampling:
    def test_steps_record_the_replayed_global_draws(self, composite, dual, constants):
        # Node tau draws its local example from stream ("sample", tau); the
        # step info records the global index that draw maps to.
        theta = alg.theoretical_theta(constants, dual.part.m, dual.part.n, dual.lam, dual.gamma, 0.2)
        part = composite.part
        for opt in (
            alg.EcLsvrg(composite, comp.top_k(2), eta=0.2, p=0.1, seed=67),
            alg.EcDual(dual, comp.top_k(2), theta=theta, seed=67),
        ):
            streams = node_streams(67, "sample", part.n)
            for _ in range(50):
                expected = [
                    part.example_index(tau, int(streams[tau].integers(part.m)))
                    for tau in range(part.n)
                ]
                assert opt.step().sampled.tolist() == expected

    # (N, n): m = 1, an odd m, and m above the block size.
    @pytest.mark.parametrize("N, n", [(6, 6), (21, 3), (2 * rng_module._BLOCK_STEPS + 6, 2)])
    @pytest.mark.parametrize("kind", ["ec_lsvrg", "ec_dual"])
    def test_block_draws_replay_scalar_draws_across_blocks(self, N, n, kind):
        ds = synth_dataset(N, 6, 0.5, seed=N, scale=0.5)
        part = partition(ds, n)
        assert part.dropped == 0
        primal = PrimalProblem(ds, part, lam1=1e-3, lam2=1e-2)
        if kind == "ec_lsvrg":
            opt = alg.EcLsvrg(primal, comp.top_k(1), eta=0.1, p=0.2, seed=89)
        else:
            opt = alg.EcDual(DualProblem(primal), comp.top_k(1), theta=0.5 / part.m, seed=89)
        streams = node_streams(89, "sample", n)
        for _ in range(2 * rng_module._BLOCK_STEPS + 7):  # into a third block
            expected = [
                part.example_index(tau, int(streams[tau].integers(part.m))) for tau in range(n)
            ]
            assert opt.step().sampled.tolist() == expected

    @pytest.mark.parametrize("block_steps", [1, 3])
    @pytest.mark.parametrize("kind", ["ec_lsvrg", "ec_dual"])
    def test_short_blocks_replay_scalar_draws(self, monkeypatch, composite, dual, kind, block_steps):
        # Examples and compressor uniforms, drawn ahead in blocks of 1 and 3
        # steps, equal one integers(m) or random(d) call per node per step.
        monkeypatch.setattr(rng_module, "_BLOCK_STEPS", block_steps)
        part, d = composite.part, composite.d
        dither = comp.parse_spec("dither")
        if kind == "ec_lsvrg":
            opt = alg.EcLsvrg(composite, comp.rand_k(2), dither, eta=0.2, p=0.1, seed=97)
            purposes = {"_q_uniforms": "compress", "_q1_uniforms": "compress_shift"}
        else:
            opt = alg.EcDual(dual, dither, theta=0.5 / part.m, seed=97)
            purposes = {"_q_uniforms": "compress"}
        drawn = {name: [] for name in purposes}
        for name, log in drawn.items():
            uniforms = getattr(opt, name)

            def draw(rows, width, real=uniforms.draw, log=log):
                out = real(rows, width)
                log.append(out.copy())  # the view is valid only until the next draw
                return out

            monkeypatch.setattr(uniforms, "draw", draw)
        samples = node_streams(97, "sample", part.n)
        steps = 3 * block_steps + 2  # across several refills
        for _ in range(steps):
            expected = [part.example_index(tau, int(g.integers(part.m))) for tau, g in enumerate(samples)]
            assert opt.step().sampled.tolist() == expected
        for name, purpose in purposes.items():
            assert getattr(opt, name)._block.shape[1] == block_steps
            streams = node_streams(97, purpose, part.n)
            assert len(drawn[name]) == steps
            for got in drawn[name]:
                assert got.tobytes() == np.stack([g.random(d) for g in streams]).tobytes()

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("mode", [COMPOSITE, SMOOTH])
    def test_steps_match_per_node_loops(self, fixture, monkeypatch, dense, mode):
        # Reference: per-node loops, each fetching its own column. The
        # margins are the batched product and one logistic_grad call, as in
        # the steps; every per-node vector built from them must agree bit for
        # bit.
        if not dense:
            monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        ds, part = fixture
        primal = PrimalProblem(ds, part, lam1=1e-3 if mode == COMPOSITE else 0.0, lam2=1e-3, mode=mode)
        design = primal._design
        assert (design.A_dense is not None) == dense

        def column(j):
            if dense:
                return design.A_dense[:, j]
            return design.A[:, [j]].toarray().ravel()

        def margins(J, v):
            cols = np.stack([column(j) for j in J])
            return cols @ v

        def sent(opt, info):
            # t = e_new + Q(t) bit for bit: top-k copies what it keeps.
            return opt.e + comp._dense(info.y_kept, info.y_values, opt.e.shape)

        opt = alg.EcLsvrg(primal, comp.top_k(2), eta=0.5, p=0.3, seed=71)
        for _ in range(20):
            x, w, grad_w, h, e = opt.x, opt.w, opt.grad_w, opt.h.copy(), opt.e.copy()
            info = opt.step()
            t = sent(opt, info)
            b = design.b[info.sampled]
            dcs = logistic_grad(margins(info.sampled, x), b) - logistic_grad(margins(info.sampled, w), b)
            for tau, j in enumerate(info.sampled):
                g = dcs[tau] * column(j) + grad_w[tau] - h[tau]
                if mode == SMOOTH:
                    g = g + primal.lam2 * (x - w)
                assert np.array_equal(opt.eta * g + e[tau], t[tau])
        if mode == SMOOTH:
            return
        dual = DualProblem(primal)
        opt = alg.EcDual(dual, comp.top_k(2), theta=0.5 / part.m, seed=71)
        m, lam = part.m, dual.lam
        for _ in range(200):
            alpha, e = opt.alpha.copy(), opt.e.copy()
            info = opt.step()
            t = sent(opt, info)
            dphi = logistic_grad(margins(info.sampled, info.x_new), design.b[info.sampled])
            for tau, j in enumerate(info.sampled):
                col = column(j)
                da = -opt.theta * m * (alpha[j] + dphi[tau])
                assert da == info.delta_alpha[tau]
                assert np.array_equal((da / (lam * m)) * col + e[tau], t[tau])


class TestDeterminism:
    def test_same_seed_identical_trajectories(self, composite):
        def run():
            opt = alg.EcLsvrg(composite, comp.rand_k(2), comp.rand_k(2), eta=0.2, p=0.05, seed=99)
            out = []
            for _ in range(40):
                opt.step()
                out.append(opt.x.copy())
            return out

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self, composite):
        a = alg.EcLsvrg(composite, comp.rand_k(2), comp.rand_k(2), eta=0.2, p=0.05, seed=1)
        b = alg.EcLsvrg(composite, comp.rand_k(2), comp.rand_k(2), eta=0.2, p=0.05, seed=2)
        for _ in range(10):
            a.step()
            b.step()
        assert not np.array_equal(a.x, b.x)
