import math
import warnings
import zlib

import numpy as np
import pytest
from scipy import sparse

from ecvr import problem as problem_module
from ecvr.dataset import Dataset, column_squares, partition
from ecvr.harness import synth_dataset
from ecvr.problem import (
    COMPOSITE,
    SMOOTH,
    ConvergenceError,
    DualProblem,
    EigenSolve,
    PrimalProblem,
    compute_constants,
    lanczos,
    logistic_grad,
    logistic_loss,
    prox_elastic_net,
    soft_threshold,
)


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


@pytest.fixture(scope="module")
def small():
    ds = synth_dataset(40, 12, 0.5, seed=11, scale=1.0)
    part = partition(ds, 4)
    return ds, part


@pytest.fixture(scope="module")
def composite(small):
    ds, part = small
    return PrimalProblem(ds, part, lam1=1e-2, lam2=1e-2, mode=COMPOSITE)


@pytest.fixture(scope="module")
def smooth(small):
    ds, part = small
    return PrimalProblem(ds, part, lam1=0.0, lam2=1e-2, mode=SMOOTH)


@pytest.fixture(scope="module")
def dual(composite):
    return DualProblem(composite)


def loss_fi(problem, x, tau, i):
    j = problem.part.example_index(tau, i)
    a = problem._design.columns([j])[0]
    b = problem._design.b[j]
    val = math.log1p(math.exp(-b * float(a @ x)))
    if problem.mode == SMOOTH:
        val += 0.5 * problem.lam2 * float(x @ x)
    return val


class TestDesign:
    @pytest.mark.parametrize("dense", [True, False])
    def test_columns_gather_examples_in_order(self, small, monkeypatch, dense):
        ds, part = small
        if not dense:
            monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        design = PrimalProblem(ds, part, lam1=0.0, lam2=1e-2)._design
        assert (design.A_dense is not None) == dense
        full = design.A.toarray()
        for J in ([7, 0, 33, 12], [5, 5, 2, 5], [39]):
            got = design.columns(np.array(J))
            assert got.shape == (len(J), design.d)
            assert np.array_equal(got, full[:, J].T)

    @pytest.mark.parametrize("n", [1, 4, 43])
    @pytest.mark.parametrize("mode", [COMPOSITE, SMOOTH])
    @pytest.mark.parametrize("dense", [True, False])
    def test_node_gradients_equal_the_per_node_csc_loop(self, monkeypatch, dense, mode, n):
        # 43 examples on 1 node, on 4 nodes (dropping 3) and on 43 nodes of
        # one example each; the random pattern leaves some columns and rows
        # empty and gives the columns unequal entry counts.
        if not dense:
            monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        canonical = sparse.random(12, 43, density=0.2, random_state=5, format="csc")
        # Column 4 arrives with its indices reversed and its first row stored
        # twice, in halves; Dataset sums a copy back to the canonical matrix.
        lo, hi = canonical.indptr[4:6]
        order = np.concatenate(
            [np.arange(lo), np.arange(hi - 1, lo - 1, -1), [lo], np.arange(hi, canonical.nnz)]
        )
        data = canonical.data[order]
        data[hi - 1 : hi + 1] *= 0.5
        indptr = canonical.indptr + (np.arange(canonical.shape[1] + 1) > 4)
        features = sparse.csc_matrix((data, canonical.indices[order], indptr), shape=canonical.shape)
        given = [a.copy() for a in (features.data, features.indices, features.indptr)]
        labels = np.where(rng_for("node-labels").random(43) < 0.5, -1.0, 1.0)
        ds = Dataset(features=features, labels=labels)
        part = partition(ds, n)
        problem = PrimalProblem(ds, part, lam1=0.0, lam2=1e-2, mode=mode)
        design = problem._design
        assert (design.A_dense is not None) == dense
        for held, before in zip((features.data, features.indices, features.indptr), given):
            assert np.array_equal(held, before)
        want = canonical[:, : part.retained]
        for got, expected in zip(
            (design.A.data, design.A.indices, design.A.indptr), (want.data, want.indices, want.indptr)
        ):
            assert np.array_equal(got, expected)
        assert np.any(np.diff(design.A.indptr) == 0)
        # A, the transpose and the node-stacked matrix are views of the
        # dataset's arrays, apart from the stacked matrix's own row indices.
        assert np.shares_memory(design.A_t.data, design.A.data)
        assert np.shares_memory(design.A_t.indices, design.A.indices)
        assert np.shares_memory(design.A_nodes.data, design.A.data)
        assert np.shares_memory(design.A_nodes.indptr, design.A.indptr)
        assert np.shares_memory(design.A.data, ds.features.data)
        assert np.shares_memory(design.A.indices, ds.features.indices)
        rng = rng_for("node-loop")
        for _ in range(5):
            x = rng.standard_normal(problem.d)
            margins = design.margins(x)
            assert margins.tobytes() == (design.A.T @ x).tobytes()
            coef = logistic_grad(margins, design.b) / part.m
            want = np.stack(
                [design.A[:, sl] @ coef[sl] for sl in map(part.node_slice, range(part.n))]
            )
            assert design.combine_nodes(coef).tobytes() == want.tobytes()
            if mode == SMOOTH:
                want = want + problem.lam2 * x
            assert np.array_equal(problem.grad_f_nodes(x), want)


class TestGradients:
    @pytest.mark.parametrize("mode", ["composite", "smooth"])
    def test_grad_fi_finite_difference(self, composite, smooth, mode):
        problem = composite if mode == "composite" else smooth
        rng = rng_for("fd" + mode)
        eps = 1e-5
        for _ in range(25):
            tau = int(rng.integers(problem.n))
            i = int(rng.integers(problem.m))
            x = rng.standard_normal(problem.d)
            u = rng.standard_normal(problem.d)
            u /= np.linalg.norm(u)
            grad = problem.grad_fi(x, tau, i)
            fd = (loss_fi(problem, x + eps * u, tau, i) - loss_fi(problem, x - eps * u, tau, i)) / (
                2 * eps
            )
            assert grad @ u == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_grad_fi_at_zero(self, composite):
        # sigma(0) = 1/2, so the gradient is -b a / 2.
        x = np.zeros(composite.d)
        for tau, i in [(0, 0), (2, 3)]:
            j = composite.part.example_index(tau, i)
            a = composite._design.columns([j])[0]
            b = composite._design.b[j]
            assert np.allclose(composite.grad_fi(x, tau, i), -b * a / 2.0)

    def test_grad_fi_saturated(self):
        features = sparse.csc_matrix(np.array([[1.0], [0.0]]))
        ds = Dataset(features=features, labels=np.array([1.0]))
        part = partition(ds, 1)
        problem = PrimalProblem(ds, part, lam1=0.0, lam2=1e-3, mode=COMPOSITE)
        g = problem.grad_fi(np.array([50.0, 0.0]), 0, 0)
        assert np.max(np.abs(g)) < 1e-15

    @pytest.mark.parametrize("mode", ["composite", "smooth"])
    def test_node_and_full_gradients_match_averages(self, composite, smooth, mode):
        problem = composite if mode == "composite" else smooth
        rng = rng_for("avg" + mode)
        x = rng.standard_normal(problem.d)
        nodes = problem.grad_f_nodes(x)
        assert nodes.shape == (problem.n, problem.d)
        for tau in range(problem.n):
            avg = np.mean(
                [problem.grad_fi(x, tau, i) for i in range(problem.m)], axis=0
            )
            assert np.allclose(nodes[tau], avg, atol=1e-12)
        assert np.allclose(problem.grad_f(x), nodes.mean(axis=0), atol=1e-12)

    def test_grad_f_finite_difference(self, composite):
        rng = rng_for("fdf")
        eps = 1e-5
        for _ in range(10):
            x = rng.standard_normal(composite.d)
            u = rng.standard_normal(composite.d)
            u /= np.linalg.norm(u)
            fd = (composite.loss_value(x + eps * u) - composite.loss_value(x - eps * u)) / (2 * eps)
            assert composite.grad_f(x) @ u == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_index_out_of_range(self, composite):
        with pytest.raises(IndexError):
            composite.grad_fi(np.zeros(composite.d), 0, composite.m)


class TestValues:
    def test_value_at_zero_is_log_two(self, composite):
        assert composite.primal_value(np.zeros(composite.d)) == pytest.approx(math.log(2.0))

    def test_single_example_hand_value(self):
        # One example with b a'x = log 3 gives loss log(1 + 1/3) = log(4/3).
        features = sparse.csc_matrix(np.array([[1.0]]))
        ds = Dataset(features=features, labels=np.array([1.0]))
        problem = PrimalProblem(ds, partition(ds, 1), lam1=0.0, lam2=0.0, mode=COMPOSITE)
        x = np.array([math.log(3.0)])
        assert problem.primal_value(x) == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_modes_share_total_objective(self, composite, smooth):
        x = rng_for("tot").standard_normal(composite.d)
        smooth_alias = PrimalProblem(
            composite.dataset, composite.part, lam1=0.0, lam2=1e-2, mode=SMOOTH
        )
        composite_alias = PrimalProblem(
            composite.dataset, composite.part, lam1=0.0, lam2=1e-2, mode=COMPOSITE
        )
        assert smooth_alias.primal_value(x) == pytest.approx(composite_alias.primal_value(x))

    def test_smooth_mode_requires_zero_l1(self, small):
        ds, part = small
        with pytest.raises(ValueError):
            PrimalProblem(ds, part, lam1=1e-3, lam2=1e-3, mode=SMOOTH)


class TestProx:
    def test_zero_fixed_point(self, composite):
        assert np.array_equal(composite.prox_psi(np.zeros(composite.d), 0.5), np.zeros(composite.d))

    def test_pure_l2_shrink(self):
        v = rng_for("shrink").standard_normal(8)
        assert np.allclose(prox_elastic_net(v, 2.0, 0.0, 0.25), v / 1.5)

    def test_soft_threshold_case(self):
        out = prox_elastic_net(np.array([2.0, -0.5]), 1.0, 1.0, 0.0)
        assert np.array_equal(out, [1.0, 0.0])

    def test_nonexpansive(self, composite):
        rng = rng_for("nonexp")
        for _ in range(50):
            v, w = rng.standard_normal((2, composite.d))
            dv = composite.prox_psi(v, 0.7) - composite.prox_psi(w, 0.7)
            assert np.linalg.norm(dv) <= np.linalg.norm(v - w) + 1e-12

    def test_smooth_mode_flags_and_returns_input(self, smooth):
        v = rng_for("flag").standard_normal(smooth.d)
        out = smooth.prox_psi(v, 0.5)
        assert np.array_equal(out, v)

    def test_zero_step_returns_input_and_negative_step_raises(self, composite, smooth):
        v = rng_for("zero-step").standard_normal(composite.d)
        for problem in (composite, smooth):
            assert problem.prox_psi(v, 0.0) is v
            with pytest.raises(ValueError, match="prox step must be nonnegative, got -0.5"):
                problem.prox_psi(v, -0.5)

    def test_matches_scalar_minimization(self):
        # Oracle: dense scan of 1/2 (y-v)^2 + eta(lam1 |y| + lam2/2 y^2).
        grid = np.linspace(-4, 4, 160_001)
        for v, eta, lam1, lam2 in [(1.7, 0.9, 0.3, 0.5), (-2.4, 1.5, 1.0, 0.1)]:
            obj = 0.5 * (grid - v) ** 2 + eta * (lam1 * np.abs(grid) + 0.5 * lam2 * grid**2)
            best = grid[np.argmin(obj)]
            got = prox_elastic_net(np.array([v]), eta, lam1, lam2)[0]
            assert got == pytest.approx(best, abs=1e-4)


class TestDual:
    def test_phi_grad_values(self):
        assert logistic_grad(0.0, 1.0) == pytest.approx(-0.5)
        assert logistic_grad(80.0, 1.0) == pytest.approx(0.0, abs=1e-30)
        assert logistic_grad(0.0, -1.0) == pytest.approx(0.5)

    def test_phi_grad_finite_difference(self):
        rng = rng_for("phifd")
        for _ in range(40):
            t = float(rng.uniform(-4, 4))
            b = float(rng.choice([-1.0, 1.0]))
            fd = (logistic_loss(t + 1e-6, b) - logistic_loss(t - 1e-6, b)) / 2e-6
            assert logistic_grad(t, b) == pytest.approx(fd, abs=1e-8)

    def test_phi_grad_finite_and_silent_at_extreme_margins(self):
        # The optimizers evaluate it on raw margins; no size of b*t may warn.
        t = np.concatenate([np.linspace(-1e4, 1e4, 4001), [-1e4, -745.0, 710.0, 1e4]])
        for b in (1.0, -1.0):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                g = logistic_grad(t, b)
            assert np.all(np.isfinite(g))
            assert np.all((-b * g >= 0.0) & (-b * g <= 1.0))

    def test_phi_grad_matches_the_two_branch_exp_formula(self):
        # The scalar form the per-node steps used: -b sigmoid(-b t) through
        # math.exp, branching on the sign of b t so exp never overflows.
        def two_branch(t, b):
            bt = b * t
            if bt >= 0:
                return -b * math.exp(-bt) / (1.0 + math.exp(-bt))
            return -b / (1.0 + math.exp(bt))

        t = np.concatenate([np.linspace(-700.0, 700.0, 20001), rng_for("branch").uniform(-700, 700, 5000)])
        for b in (1.0, -1.0):
            expected = np.array([two_branch(float(v), b) for v in t])
            rel = np.abs(logistic_grad(t, b) - expected) / np.abs(expected)
            assert rel.max() <= 1e-15

    def test_values_reuse_the_callers_loss_and_aggregate(self, dual, composite):
        # A record passes in the loss and aggregate it already has; the values
        # must be the bytes a fresh evaluation gives.
        rng = rng_for("reuse")
        for _ in range(5):
            x = rng.standard_normal(dual.d)
            alpha = dual.labels * rng.uniform(0.0, 1.0, size=dual.N)
            loss, aggregate = composite.loss_value(x), dual.dual_aggregate(alpha)
            assert composite.primal_value(x, loss) == composite.primal_value(x)
            assert dual.primal.primal_value(x, loss) == dual.primal.primal_value(x)
            assert dual.dual_value(alpha, aggregate) == dual.dual_value(alpha)
            assert dual.duality_gap(x, alpha, loss=loss, aggregate=aggregate) == dual.duality_gap(x, alpha)

    def test_phi_conjugate_against_grid_oracle(self, dual):
        # phi*(v) = sup_a (v a - phi(a)), scanned densely.
        grid = np.linspace(-60.0, 60.0, 120_001)
        rng = rng_for("conj")
        for _ in range(12):
            b = float(rng.choice([-1.0, 1.0]))
            alpha = b * float(rng.uniform(0.02, 0.98))
            oracle = np.max(-alpha * grid - np.logaddexp(0.0, -b * grid))
            closed = dual.phi_conj_neg(np.array([alpha]), np.array([b]))[0]
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_fenchel_young_equality_for_phi(self, dual):
        rng = rng_for("fy")
        for _ in range(40):
            t = float(rng.uniform(-6, 6))
            b = float(rng.choice([-1.0, 1.0]))
            v = logistic_grad(t, b)
            conj = dual.phi_conj_neg(np.array([-v]), np.array([b]))[0]
            assert logistic_loss(t, b) + conj - v * t == pytest.approx(0.0, abs=1e-10)

    def test_gstar_grad_values(self, dual, small):
        ds, part = small
        u = rng_for("gg").standard_normal(dual.d)
        no_l1 = DualProblem(PrimalProblem(ds, part, lam1=0.0, lam2=1e-2))
        assert np.array_equal(no_l1.gstar_grad(u), u)
        assert np.array_equal(dual.gstar_grad(np.array([0.5] * dual.d))[:1], [0.0]) or dual.c < 0.5
        strong = DualProblem(PrimalProblem(ds, part, lam1=1e-2, lam2=1e-2))
        assert np.array_equal(strong.gstar_grad(np.full(dual.d, 0.5)), np.zeros(dual.d))

    def test_gstar_fenchel_equality_and_closed_form(self, dual):
        rng = rng_for("gstar")
        for _ in range(30):
            u = rng.standard_normal(dual.d) * 2.0
            y = dual.gstar_grad(u)
            val = dual.gstar_value(u)
            assert val + dual.g_value(y) - float(u @ y) == pytest.approx(0.0, abs=1e-10)
            assert val == pytest.approx(0.5 * float(np.sum(soft_threshold(u, dual.c) ** 2)), abs=1e-12)
            for _ in range(10):
                z = rng.standard_normal(dual.d) * 2.0
                assert float(u @ z) - dual.g_value(z) <= val + 1e-10

    def test_dual_value_at_zero(self, dual):
        assert dual.dual_value(np.zeros(dual.N)) == 0.0

    def test_weak_duality(self, dual, composite):
        rng = rng_for("weak")
        for _ in range(100):
            x = rng.standard_normal(dual.d)
            alpha = dual.labels * rng.uniform(0.0, 1.0, size=dual.N)
            gap = dual.primal.primal_value(x) - dual.dual_value(alpha)
            assert gap >= -1e-10

    def test_primal_values_agree_between_views(self, dual, composite):
        # The duality gap reads the one P(x) that the primal gap reads, bit for bit.
        rng = rng_for("agree")
        for _ in range(50):
            x = rng.standard_normal(dual.d)
            alpha = dual.labels * rng.uniform(0.0, 1.0, size=dual.N)
            assert dual.duality_gap(x, alpha) == composite.primal_value(x) - dual.dual_value(alpha)

    def test_infeasible_alpha_reports_block(self, dual):
        alpha = np.zeros(dual.N)
        alpha[7] = -2.0 * dual.labels[7]
        with pytest.raises(ValueError, match="block 7"):
            dual.dual_value(alpha)

    def test_lam_must_be_positive(self, small):
        ds, part = small
        with pytest.raises(ValueError, match="lam2 must be positive"):
            DualProblem(PrimalProblem(ds, part, lam1=0.0, lam2=0.0))


class TestConstants:
    def test_single_unit_example(self):
        a = np.array([0.6, 0.8])
        ds = Dataset(features=sparse.csc_matrix(a[:, None]), labels=np.array([1.0]))
        c = compute_constants(PrimalProblem(ds, partition(ds, 1), lam1=0.0, lam2=0.1))
        assert c.r_m == pytest.approx(1.0)
        assert c.r_bar_sq == pytest.approx(1.0, rel=1e-12)
        assert c.r_sq == pytest.approx(1.0, rel=1e-12)
        assert c.mu == 0.1

    def test_identity_features(self):
        ds = Dataset(features=sparse.eye(2, format="csc"), labels=np.array([1.0, -1.0]))
        c = compute_constants(PrimalProblem(ds, partition(ds, 1), lam1=0.0, lam2=0.1))
        assert c.r_sq == pytest.approx(0.5, rel=1e-12)  # eigenvalues of I/2
        assert c.r_bar_sq == pytest.approx(0.5, rel=1e-12)
        assert c.r_m == 1.0

    def test_spectra_match_dense_eigensolver(self, composite):
        # The fixture has more examples than features; the second problem has
        # fewer, so each Gram runs on the other side.
        wide = synth_dataset(20, 30, 0.5, seed=11, scale=1.0)
        for problem in (composite, PrimalProblem(wide, partition(wide, 2), lam1=1e-2, lam2=1e-2)):
            c = compute_constants(problem)
            a = problem._design.A.toarray()
            part = problem.part
            r_sq = np.linalg.eigvalsh(a @ a.T).max() / part.retained
            per_node = max(
                np.linalg.eigvalsh(
                    a[:, part.node_slice(t)] @ a[:, part.node_slice(t)].T
                ).max()
                for t in range(part.n)
            ) / part.m
            assert c.r_sq == pytest.approx(r_sq, rel=1e-12)
            assert c.r_bar_sq == pytest.approx(per_node, rel=1e-12)
            norms = np.sqrt(column_squares(problem.dataset.features))
            assert c.r_m == pytest.approx(norms[: part.retained].max())

    def test_spectral_solves_record_the_full_gram_and_the_slowest_node(self, composite):
        c = compute_constants(composite)
        part = composite.part
        a = composite._design.A.toarray()
        steps = []
        for t in range(part.n):
            block = a[:, part.node_slice(t)]  # 12 x 10: the node runs on block' block
            steps.append(lanczos(lambda v: block.T @ (block @ v), part.m).steps)
        full, worst = c.spectral_solves["full"], c.spectral_solves["worst_node"]
        assert full["value"] / part.retained == c.r_sq
        assert 1 <= full["steps"] and 0 <= full["rel_change"] <= 1e-12
        assert worst["node"] == int(np.argmax(steps)) and worst["steps"] == max(steps)
        assert 0 <= worst["rel_change"] <= 1e-12
        assert worst["value"] / part.m <= c.r_bar_sq

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ordering_invariants(self, seed):
        rng = np.random.default_rng(seed)  # Gaussian entries: unequal column norms
        features = sparse.random(9, 36, density=0.5, random_state=rng, data_rvs=rng.standard_normal)
        ds = Dataset(features=features, labels=rng.choice([-1.0, 1.0], size=36))
        part = partition(ds, 3)
        for mode, lam1 in ((COMPOSITE, 1e-3), (SMOOTH, 0.0)):
            c = compute_constants(PrimalProblem(ds, part, lam1=lam1, lam2=1e-3, mode=mode))
            tol = 1e-7 * c.r_m**2
            assert c.r_sq <= c.r_bar_sq + tol <= c.r_m**2 + 2 * tol
            assert c.r_bar_sq <= part.n * c.r_sq + tol
            assert c.r_m**2 <= part.m * c.r_bar_sq + tol
            assert c.l_f <= c.l_bar + tol <= c.l + 2 * tol

    def test_smooth_mode_shifts_smoothness(self, small):
        ds, part = small
        base = compute_constants(PrimalProblem(ds, part, lam1=0.0, lam2=0.5, mode=COMPOSITE))
        shifted = compute_constants(PrimalProblem(ds, part, lam1=0.0, lam2=0.5, mode=SMOOTH))
        assert shifted.l_f == pytest.approx(base.l_f + 0.5)
        assert shifted.l == pytest.approx(base.l + 0.5)

    def test_lanczos_against_eigh(self):
        rng = rng_for("pi")
        for _ in range(10):
            mat = rng.standard_normal((15, 15))
            gram = mat @ mat.T

            top = lanczos(lambda v: gram @ v, 15).value
            assert top == pytest.approx(np.linalg.eigvalsh(gram).max(), rel=1e-12)

    def test_lanczos_resolves_a_clustered_top_spectrum(self):
        # Top eigenvalues 1 and 1 - 1e-4: power iteration from the same start
        # stops at a change of 1e-8 while still 1e-5 away; Lanczos does not.
        rng = rng_for("cluster")
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        gram = (q * np.concatenate([[1.0, 1.0 - 1e-4], rng.uniform(0.0, 0.9, 58)])) @ q.T
        top = np.linalg.eigvalsh(gram).max()

        v = np.random.default_rng(0).standard_normal(60)
        v /= np.linalg.norm(v)
        estimate, last = 0.0, -1.0
        while abs(estimate - last) > 1e-8 * estimate:
            w = gram @ v
            last, estimate = estimate, float(v @ w)
            v = w / np.linalg.norm(w)
        assert abs(estimate - top) > 1e-8 * top

        solve = lanczos(lambda v: gram @ v, 60)
        assert solve.value == pytest.approx(top, rel=1e-12)
        assert solve.steps < 60 and solve.rel_change <= 1e-12

    @pytest.mark.parametrize("operator", ["random_psd", "rank1", "bench_node_gram"])
    def test_lanczos_matches_the_tridiagonal_rebuilt_each_step(self, bench_primal, operator):
        # lanczos grows one tridiagonal in place; this reference builds it
        # afresh from np.diag at every step. Both must give the same bits.
        def rebuilt(matvec, dim, tol=1e-12, max_iter=1_000, seed=0):
            v = np.random.default_rng(seed).standard_normal(dim)
            v /= np.linalg.norm(v)
            v_prev = np.zeros(dim)
            alphas, betas, beta, estimate = [], [], 0.0, -math.inf
            for step in range(1, max_iter + 1):
                w = matvec(v) - beta * v_prev
                alpha = float(v @ w)
                w -= alpha * v
                beta = float(np.linalg.norm(w))
                alphas.append(alpha)
                tridiagonal = np.diag(alphas) + np.diag(betas, -1)
                last, estimate = estimate, float(np.linalg.eigvalsh(tridiagonal)[-1])
                rel_change = abs(estimate - last) / max(abs(estimate), 1e-300)
                if beta == 0.0:
                    return EigenSolve(estimate, step, 0.0)
                if rel_change <= tol:
                    return EigenSolve(estimate, step, rel_change)
                betas.append(beta)
                v_prev, v = v, w / beta
            raise AssertionError("no convergence")

        rng = rng_for("tridiagonal")
        if operator == "random_psd":
            mat = rng.standard_normal((40, 40))
            gram = mat @ mat.T
            matvec, dim = (lambda v: gram @ v), 40
        elif operator == "rank1":
            u = rng.standard_normal(30)
            matvec, dim = (lambda v: u * (u @ v)), 30
        else:
            design, cols = bench_primal._design, bench_primal.part.node_slice(0)
            block = problem_module._column_view(design.A, cols)
            block_t = block.T
            matvec, dim = (lambda v: block_t @ (block @ v)), block.shape[1]
        got, want = lanczos(matvec, dim), rebuilt(matvec, dim)
        assert (got.value.hex(), got.steps, got.rel_change.hex()) == (
            want.value.hex(),
            want.steps,
            want.rel_change.hex(),
        )
        if operator == "random_psd":
            assert got.steps > 16  # past the first growth of the tridiagonal

    def test_lanczos_zero_matrix(self):
        assert lanczos(lambda v: np.zeros_like(v), 6) == EigenSolve(0.0, 1, 0.0)

    def test_lanczos_breaks_down_exactly_on_low_rank_and_dim_one(self):
        assert lanczos(lambda v: 3.0 * v, 1) == EigenSolve(3.0, 1, 0.0)
        u = rng_for("rank1").standard_normal(20)
        solve = lanczos(lambda v: u * (u @ v), 20)
        assert solve.value == pytest.approx(u @ u, rel=1e-12)
        assert solve.steps <= 3

    def test_lanczos_reports_nonconvergence(self):
        # Tiny eigengap with a tiny budget: the estimate is still moving.
        gram = np.diag([1.0, 1.0 - 1e-4, 0.5])

        with pytest.raises(ConvergenceError) as err:
            lanczos(lambda v: gram @ v, 3, tol=1e-14, max_iter=2)
        assert 0 < err.value.residual < math.inf

    def test_lanczos_budget_below_dim_raises_with_its_residual(self):
        mat = rng_for("budget").standard_normal((15, 15))
        gram = mat @ mat.T
        with pytest.raises(ConvergenceError, match="stalled at relative change") as err:
            lanczos(lambda v: gram @ v, 15, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.residual > 1e-12
        assert f"{err.value.residual:.3e}" in str(err.value)

    def test_lanczos_stops_at_a_non_finite_estimate(self):
        # Entries of 1e308 overflow the Gram operator in its first product.
        features = sparse.csc_matrix(
            np.array([[1e308, 1e308, 0.0, -1e308], [1e308, 0.0, 1e308, 1e308]])
        )
        ds = Dataset(features=features, labels=np.array([1.0, -1.0, 1.0, -1.0]))
        problem = PrimalProblem(ds, partition(ds, 2), lam1=0.0, lam2=1e-3)
        with pytest.raises(ConvergenceError, match="estimate is nan at iteration 1;") as err:
            compute_constants(problem)
        assert err.value.iterations == 1
        with pytest.raises(ConvergenceError, match="estimate is nan at iteration 1;"):
            lanczos(lambda v: np.full_like(v, np.nan), 3)
