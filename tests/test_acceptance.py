"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ecvr import algorithms as alg
from ecvr import compressors as comp
from ecvr import harness
from ecvr.problem import logistic_grad, logistic_loss
from ecvr.rng import split_rng

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_SHAPE, lsvrg_step_messages

MC_SEED = 1  # fixed stream for the statistical criteria


def _report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {verdict}{tail}")
    return ok


def bench_config(**kw) -> harness.RunConfig:
    base = dict(
        synth=BENCH_SHAPE,
        synth_scale=BENCH_SCALE,
        n=4,
        lambda1=1e-3,
        lambda2=1e-3,
        seed=BENCH_SEED,
        reference_tol=1e-12,
    )
    base.update(kw)
    return harness.RunConfig(**base)


@pytest.fixture(scope="module")
def lsvrg_best_run():
    """Criterion 5's grid-searched run, shared with criterion 6."""
    base = bench_config(algo="ec_lsvrg", compressor="top_k:1", epochs=500)
    started = time.perf_counter()
    best_eta, _ = harness.grid_search_eta(base, epochs=60, gap_target=1e-8)
    final = harness.run_experiment(replace(base, eta=best_eta, gap_target=1e-8))
    elapsed = time.perf_counter() - started
    return best_eta, final, elapsed


def test_c01_compressor_contraction():
    specs = [
        comp.top_k(1),
        comp.top_k(5),
        comp.rand_k(1),
        comp.rand_k(5),
        comp.scaled(comp.dithering()),
        comp.scaled(comp.natural()),
        comp.ntop_k(5),
        comp.rtop_k(5),
    ]
    started = time.perf_counter()
    ok = True
    worst = ""
    for i, spec in enumerate(specs):
        rep = comp.verify_contraction(spec, 100, 10_000, split_rng(MC_SEED, "verify", 200 + i))
        this = rep.mean_ratio <= rep.allowed + 3 * rep.std_error + 1e-12
        if spec.kind == comp.TOP_K:
            this &= rep.max_ratio <= rep.allowed + 1e-12
        if not this:
            worst = f"{rep.spec}: mean {rep.mean_ratio:.4f} vs {rep.allowed:.4f}"
        ok &= this
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    assert _report(1, "compressor contraction", ok, worst or f"{elapsed:.1f}s, 8 specs at d=100")


def test_c02_unbiasedness():
    d, trials = 10, 100_000
    ok = True
    details = []
    for si, (spec, omega) in enumerate([(comp.dithering(), 1.0), (comp.natural(), 0.125)]):
        vec_rng = split_rng(MC_SEED, "verify", 100 + si)
        for v in range(10):
            x = vec_rng.standard_normal(d)
            rep = comp.verify_unbiasedness(
                spec, d, trials, split_rng(MC_SEED, "verify", 10 * si + v), x=x
            )
            assert rep.omega == omega
            ok &= rep.mean_passed and rep.second_moment_passed
        details.append(f"{comp.format_spec(spec)} omega={omega}")
    assert _report(2, "unbiased mean and second moment", ok, "; ".join(details))


def test_c03_mean_scaling():
    rep = comp.verify_mean_scaling(comp.rand_k(2), 10, 100_000, split_rng(MC_SEED, "verify", 50))
    ok = rep.factor == pytest.approx(0.2) and rep.passed
    assert _report(3, "rand-k mean scaling", ok, f"max dev {rep.max_abs_deviation:.2e}")


def test_c04_identity_reduction(bench_primal, bench_dual, bench_constants):
    ec = alg.EcLsvrg(bench_primal, comp.identity(), comp.identity(), eta=0.5, p=0.05, seed=BENCH_SEED)
    plain = alg.Lsvrg(bench_primal, eta=0.5, p=0.05, seed=BENCH_SEED)
    worst_primal = 0.0
    for _ in range(200):
        ec.step()
        plain.step()
        worst_primal = max(worst_primal, float(np.max(np.abs(ec.x - plain.x))))

    theta = alg.theoretical_theta(bench_constants, 50, 4, bench_dual.lam, bench_dual.gamma, 1.0)
    ec_d = alg.EcDual(bench_dual, comp.identity(), theta=theta, seed=BENCH_SEED, variant=alg.SDCA)
    plain_d = alg.VanillaDual(bench_dual, theta=theta, seed=BENCH_SEED, variant=alg.SDCA)
    worst_dual = 0.0
    for _ in range(200):
        ec_d.step()
        plain_d.step()
        worst_dual = max(
            worst_dual,
            float(np.max(np.abs(ec_d.x - plain_d.x))),
            float(np.max(np.abs(ec_d.alpha - plain_d.alpha))),
        )
    ok = worst_primal <= 1e-12 and worst_dual <= 1e-12
    assert _report(
        4, "identity-compressor reduction", ok,
        f"lsvrg dist {worst_primal:.1e}, sdca dist {worst_dual:.1e} over 200 steps",
    )


def test_c05_linear_convergence_composite(lsvrg_best_run):
    best_eta, run, elapsed = lsvrg_best_run
    records = run.records
    reached = records[-1].primal_gap <= 1e-8 and records[-1].epoch <= 500
    half = records[-1].epoch / 2.0
    window = [(r.epoch, r.primal_gap) for r in records if r.epoch >= half and r.primal_gap > 0]
    slope = float(np.polyfit([e for e, _ in window], [math.log(g) for _, g in window], 1)[0])
    ok = reached and slope < -0.01 and elapsed < 60.0
    assert _report(
        5, "ec-lsvrg linear convergence (composite, top-1)", ok,
        f"eta={best_eta:g}, gap {records[-1].primal_gap:.1e} at epoch {records[-1].epoch:.0f},"
        f" slope {slope:.3f}, {elapsed:.1f}s",
    )


def test_c06_ecgd_bias_floor(lsvrg_best_run):
    base = bench_config(algo="ec_gd", compressor="top_k:1", epochs=500)
    best_eta, results = harness.grid_search_eta(base)
    run = results[best_eta]
    final_epoch = run.records[-1].epoch
    tail = [r.primal_gap for r in run.records if r.epoch > final_epoch - 100]
    floor = min(tail)
    _, lsvrg_run, _ = lsvrg_best_run
    ok = floor >= 1e-4 and lsvrg_run.records[-1].primal_gap <= 1e-8
    assert _report(
        6, "ec-gd stalls above 1e-4", ok,
        f"best eta={best_eta:g}, floor {floor:.2e} over final 100 epochs",
    )


def test_c07_dual_methods_converge():
    ok = True
    details = []
    for algo in ("ec_sdca", "ec_quartz"):
        cfg = bench_config(algo=algo, compressor="top_k:1", epochs=2000, gap_target=1e-6)
        run = harness.run_experiment(cfg)
        gaps = [r.dual_gap for r in run.records]
        ok &= run.records[-1].dual_gap <= 1e-6
        ok &= min(gaps) >= -1e-10
        details.append(
            f"{algo}: theta={run.resolved.theta:.2e}, gap {run.records[-1].dual_gap:.1e}"
            f" at epoch {run.records[-1].epoch:.0f}"
        )
    assert _report(7, "dual methods reach 1e-6 duality gap", ok, "; ".join(details))


def test_c08_runtime_invariants(bench_primal, bench_dual, bench_constants):
    # Steppers already self-check every step (and raise on violation); this
    # re-derives each identity from recorded step internals.
    ok = True
    opt = alg.EcLsvrg(bench_primal, comp.top_k(1), comp.top_k(1), eta=1.0, p=0.02, seed=BENCH_SEED)
    per_step = opt.bits_per_step
    for _ in range(300):
        _, _, t, y = lsvrg_step_messages(opt)
        ok &= bool(np.array_equal(opt.e + y, t))
        ok &= float(np.max(np.abs(opt.h_avg - opt.h.mean(axis=0)))) <= 1e-10
        ok &= opt.bits == per_step * opt.k

    theta = alg.theoretical_theta(bench_constants, 50, 4, bench_dual.lam, bench_dual.gamma, 0.02)
    dopt = alg.EcDual(bench_dual, comp.top_k(1), theta=theta, seed=BENCH_SEED)
    per_step_dual = dopt.bits_per_step
    for _ in range(300):
        dopt.step()
        lag = dopt.u + dopt.e.mean(axis=0) - bench_dual.dual_aggregate(dopt.alpha)
        ok &= float(np.max(np.abs(lag))) <= 1e-10 * (1.0 + float(np.max(np.abs(dopt.alpha))))
        feas = bench_dual.labels * dopt.alpha
        ok &= feas.min() >= -1e-12 and feas.max() <= 1 + 1e-12
        ok &= dopt.bits == per_step_dual * dopt.k
    assert _report(8, "runtime identities and exact bit accounting", ok, "300 steps each")


def test_c09_eso_verifier():
    rng = split_rng(MC_SEED, "verify", 300)
    ok = True
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((10, 20))  # n=4 nodes, m=5 examples each
        rep = harness.eso_check(a, n=4, trials=10_000, rng=rng)
        worst = max(worst, rep.ratio - 3 * rep.ratio_se)
        ok &= rep.passed
    single = harness.eso_check(np.array([[0.8], [0.6]]), n=1, trials=1, rng=rng)
    ok &= single.deterministic and single.passed
    assert _report(9, "sampling overapproximation bound", ok, f"worst adjusted ratio {worst:.3f}")


def test_c10_gradient_correctness(bench_primal, bench_dual):
    rng = split_rng(MC_SEED, "verify", 400)
    eps = 1e-5
    ok = True
    for _ in range(100):
        x = rng.standard_normal(bench_primal.d)
        u = rng.standard_normal(bench_primal.d)
        u /= np.linalg.norm(u)
        tau = int(rng.integers(bench_primal.n))
        i = int(rng.integers(bench_primal.m))

        def along(f, center):
            return (f(center + eps * u) - f(center - eps * u)) / (2 * eps)

        j = bench_primal.part.example_index(tau, i)
        a = bench_primal._design.columns([j])[0]
        b = bench_primal._design.b[j]
        fd = along(lambda v: float(np.logaddexp(0.0, -b * (a @ v))), x)
        ok &= math.isclose(float(bench_primal.grad_fi(x, tau, i) @ u), fd, rel_tol=1e-6, abs_tol=1e-9)
        fd_node = along(
            lambda v: float(np.mean(np.logaddexp(0.0, -bench_primal._design.b[bench_primal.part.node_slice(tau)]
                                                 * (bench_primal._design.margins(v)[bench_primal.part.node_slice(tau)])))),
            x,
        )
        ok &= math.isclose(float(bench_primal.grad_f_nodes(x)[tau] @ u), fd_node, rel_tol=1e-6, abs_tol=1e-9)
        fd_full = along(bench_primal.loss_value, x)
        ok &= math.isclose(float(bench_primal.grad_f(x) @ u), fd_full, rel_tol=1e-6, abs_tol=1e-9)

        t = float(rng.uniform(-5, 5))
        lbl = float(rng.choice([-1.0, 1.0]))
        fd_phi = (logistic_loss(t + 1e-6, lbl) - logistic_loss(t - 1e-6, lbl)) / 2e-6
        ok &= abs(logistic_grad(t, lbl) - fd_phi) <= 1e-8

        v = logistic_grad(t, lbl)
        conj = bench_dual.phi_conj_neg(np.array([-v]), np.array([lbl]))[0]
        ok &= abs(logistic_loss(t, lbl) + conj - v * t) <= 1e-10

        w = rng.standard_normal(bench_dual.d)
        y = bench_dual.gstar_grad(w)
        ok &= abs(bench_dual.gstar_value(w) + bench_dual.g_value(y) - float(w @ y)) <= 1e-10
    assert _report(10, "gradient and conjugate identities", ok, "100 random points")


def test_c11_determinism(tmp_path):
    def canonical(path):
        lines = path.read_text().strip().splitlines()
        return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

    ok = True
    for algo, compressor in (("ec_lsvrg", "top_k:1"), ("ec_sdca", "top_k:1")):
        outs = []
        for attempt in range(2):
            out = tmp_path / f"{algo}-{attempt}.csv"
            cfg = bench_config(
                algo=algo, compressor=compressor, eta=1.0, epochs=20, out_csv=str(out)
            )
            harness.run_experiment(cfg)
            outs.append(out)
        same = canonical(outs[0]) == canonical(outs[1])
        ok &= same and len(canonical(outs[0])) > 0
    assert _report(
        11, "trace determinism under a fixed master seed", ok,
        "CSV bytes identical after dropping the wall-clock column",
    )
