import math
import zlib

import numpy as np
import pytest
from scipy import sparse

from ecvr import algorithms as alg
from ecvr import compressors as comp
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
from ecvr.rng import node_streams, split_rng


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
            e_prev = opt.e.copy()
            info = opt.step()
            resid = opt.e + info.y_nodes - (e_prev + opt.eta * info.g_nodes)
            scale = 1.0 + np.max(np.abs(info.t_nodes))
            assert np.max(np.abs(resid)) <= 1e-12 * scale

    def test_error_conservation_exact_for_sparsifiers(self, composite):
        opt = alg.EcLsvrg(composite, comp.top_k(1), comp.top_k(1), eta=0.3, p=0.05, seed=13)
        for _ in range(30):
            e_prev = opt.e.copy()
            info = opt.step()
            # e_new + y == e_prev + eta g, recomputed in the same order.
            assert np.array_equal(opt.e + info.y_nodes, opt.eta * info.g_nodes + e_prev)

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
            info = opt.step()
            tilde = opt.x - opt.e.mean(axis=0)
            xi = (info.x_half - opt.x) / eta
            predicted = tilde_prev - eta * (info.g_nodes.mean(axis=0) + info.h_avg_prev + xi)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numerical_error(self, smooth):
        # No prox to tame the step in smooth mode, so a huge eta blows up.
        opt = alg.EcLsvrg(smooth, comp.top_k(1), comp.top_k(1), eta=1e9, p=0.05, seed=31)
        with pytest.raises(alg.NumericalError):
            for _ in range(2000):
                opt.step()


class TestCompressWithFeedback:
    def streams(self, n):
        return [rng_for(f"fb{tau}") for tau in range(n)]

    def test_nonfinite_input_names_the_node(self):
        t = rng_for("fb").standard_normal((4, 6))
        t[2, 3] = np.inf
        with pytest.raises(alg.NumericalError, match="step 5, node 2"):
            alg._compress_with_feedback(comp.top_k(2), t, self.streams(4), 5)

    @pytest.mark.parametrize("q", ["top_k:2", "dither"], ids=str)
    def test_lost_message_names_the_node(self, monkeypatch, q):
        # Node 1's output absorbs its input into 1e20, so residual + output
        # rounds to 0 instead of t, past either tolerance.
        real = comp._apply

        def lossy(spec, x, rngs):
            y = real(spec, x, rngs)
            y[1] = x[1] + 1e20
            return y

        monkeypatch.setattr(comp, "_apply", lossy)
        t = rng_for("fb").standard_normal((4, 6))
        with pytest.raises(alg.InvariantError, match="step 7, node 1"):
            alg._compress_with_feedback(comp.parse_spec(q), t, self.streams(4), 7)

    def test_one_compressor_call_per_compressor_per_step(self, monkeypatch, composite, dual):
        calls = []
        real = comp._apply

        def counted(spec, x, rngs):
            calls.append(x.shape[0])
            return real(spec, x, rngs)

        monkeypatch.setattr(comp, "_apply", counted)
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


class TestEcDual:
    def theta_for(self, constants, dual, delta):
        return alg.theoretical_theta(constants, dual.part.m, dual.part.n, dual.lam, dual.gamma, delta)

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


class TestWeightedAverage:
    def test_single_iterate(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(alg.weighted_average([x], 0.3), x)

    def test_zero_rate_is_plain_average(self):
        xs = [np.array([float(i)]) for i in range(10)]
        assert alg.weighted_average(xs, 0.0)[0] == pytest.approx(4.5)

    def test_two_iterates_half_rate(self):
        x0, x1 = np.array([1.0]), np.array([4.0])
        # weights 1 and 2: (x0 + 2 x1) / 3
        assert alg.weighted_average([x0, x1], 0.5)[0] == pytest.approx(3.0)

    def test_matches_direct_formula(self):
        rng = rng_for("wavg")
        xs = [rng.standard_normal(3) for _ in range(40)]
        rho = 0.1
        weights = np.array([(1 - rho) ** (-i) for i in range(40)])
        direct = np.sum(weights[:, None] * np.array(xs), axis=0) / weights.sum()
        assert np.allclose(alg.weighted_average(xs, rho), direct, atol=1e-12)

    def test_survives_huge_histories(self):
        # (1 - rho)^(-i) overflows for long runs; the running form must not.
        xs = (np.array([1.0]) for _ in range(5000))
        assert alg.weighted_average(xs, 0.5)[0] == pytest.approx(1.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            alg.weighted_average([], 0.1)

    def test_contraction_rate(self):
        assert alg.contraction_rate(1.0, 0.04, 0.9, 0.9, 0.9) == pytest.approx(0.04 / 3)
        assert alg.contraction_rate(1.0, 0.04, 0.9, 0.9, 0.9, smooth=True) == pytest.approx(0.02)
        assert alg.contraction_rate(1.0, 10.0, 0.2, 0.4, 0.8) == pytest.approx(0.05)


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

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("mode", [COMPOSITE, SMOOTH])
    def test_steps_match_per_node_loops(self, fixture, monkeypatch, dense, mode):
        # Reference: the per-node loops, each fetching its own column, that
        # the batched steps replaced. The arithmetic is unchanged, so every
        # per-node vector must agree bit for bit.
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

        opt = alg.EcLsvrg(primal, comp.top_k(2), eta=0.5, p=0.3, seed=71)
        for _ in range(20):
            x, w, grad_w, h = opt.x, opt.w, opt.grad_w, opt.h.copy()
            info = opt.step()
            for tau, j in enumerate(info.sampled):
                b = design.b[j]
                dc = alg._coef(design.col_dot(j, x), b) - alg._coef(design.col_dot(j, w), b)
                g = dc * column(j) + grad_w[tau] - h[tau]
                if mode == SMOOTH:
                    g = g + primal.lam2 * (x - w)
                assert np.array_equal(g, info.g_nodes[tau])
        if mode == SMOOTH:
            return
        dual = DualProblem(primal)
        opt = alg.EcDual(dual, comp.top_k(2), theta=0.5 / part.m, seed=71)
        m, lam = part.m, dual.lam
        for _ in range(200):
            alpha, e = opt.alpha.copy(), opt.e
            info = opt.step()
            for tau, j in enumerate(info.sampled):
                col = column(j)
                da = -opt.theta * m * (alpha[j] + alg._coef(float(col @ info.x_new), design.b[j]))
                assert da == info.delta_alpha[tau]
                assert np.array_equal((da / (lam * m)) * col + e[tau], info.t_nodes[tau])


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
