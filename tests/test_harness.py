import ast
import csv
import functools
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import sparse

import ecvr
from ecvr import algorithms as alg
from ecvr import cli
from ecvr import compressors as comp
from ecvr import harness
from ecvr import problem as problem_module
from ecvr.algorithms import NumericalError
from ecvr.dataset import Dataset, column_squares, normalize_examples, partition, shuffle_examples
from ecvr.problem import COMPOSITE, DualProblem, PrimalProblem, compute_constants

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_SHAPE


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


class TestSolveReference:
    def test_matches_scalar_newton(self):
        # d = 1, lam1 = 0: Newton on f(x) = log(1+exp(-b a x)) + lam2/2 x^2.
        a, b, lam2 = 1.7, 1.0, 0.05
        ds = Dataset(features=sparse.csc_matrix(np.array([[a]])), labels=np.array([b]))
        problem = PrimalProblem(ds, partition(ds, 1), lam1=0.0, lam2=lam2, mode=COMPOSITE)
        x = 0.0
        for _ in range(60):
            s = 1.0 / (1.0 + math.exp(b * a * x))
            grad = -b * a * s + lam2 * x
            hess = (a * a) * s * (1.0 - s) + lam2
            x -= grad / hess
        ref = harness.solve_reference(problem, compute_constants(problem), tol=1e-12)
        assert ref.x[0] == pytest.approx(x, abs=1e-8)
        assert ref.value == pytest.approx(problem.primal_value(np.array([x])), abs=1e-14)

    def test_local_optimality_probe(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=21, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        ref = harness.solve_reference(problem, compute_constants(problem), tol=1e-10)
        rng = rng_for("probe")
        for _ in range(1000):
            u = rng.standard_normal(problem.d)
            u *= 1e-4 / np.linalg.norm(u)
            assert problem.primal_value(ref.x + u) >= ref.value - 1e-15

    def test_reference_value_is_global_floor(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=24, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        p_star = harness.solve_reference(problem, compute_constants(problem), tol=1e-10).value
        rng = rng_for("floor")
        for _ in range(100):
            x = rng.standard_normal(problem.d) * rng.uniform(0.1, 10.0)
            assert problem.primal_value(x) >= p_star

    def test_returns_a_point_within_tol_and_its_value(self):
        # The prox-gradient mapping at step 1/L, L = l_f + lam2: the l2 term
        # is smooth and lam1 |x| is the prox part.
        ds = harness.synth_dataset(60, 10, 0.5, seed=22, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        c = compute_constants(problem)
        tol = 1e-11
        ref = harness.solve_reference(problem, c, tol=tol)
        eta = 1.0 / (c.l_f + problem.lam2)
        grad = problem.grad_f(ref.x) + problem.lam2 * ref.x
        moved = problem_module.soft_threshold(ref.x - eta * grad, eta * problem.lam1)
        assert ref.residual == np.linalg.norm(ref.x - moved) / eta <= tol
        assert ref.value == problem.primal_value(ref.x)
        assert ref.tol == tol and ref.iterations >= 1

    def test_budget_exhaustion_reports_residual(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=23)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        with pytest.raises(harness.ConvergenceError) as err:
            harness.solve_reference(problem, compute_constants(problem), tol=1e-14, max_iter=3)
        assert err.value.residual > 0
        assert err.value.iterations == 3

    def test_non_finite_residual_stops_at_its_iteration(self):
        # Constants far below the data's scale give a step that overflows at once.
        features = sparse.csc_matrix(np.array([[1e200, 2e200, 0.0, -1e200], [3e200, 0.0, 1e200, 1e200]]))
        ds = Dataset(features=features, labels=np.array([1.0, -1.0, 1.0, -1.0]))
        problem = PrimalProblem(ds, partition(ds, 2), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        constants = problem_module.ProblemConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-3)
        with pytest.raises(harness.ConvergenceError, match="norm is inf at iteration 1 of") as err:
            with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
                harness.solve_reference(problem, constants, tol=1e-10)
        assert err.value.iterations == 1


class TestEsoCheck:
    def test_single_node_single_example_exact(self):
        a = np.array([[0.6], [0.8]])
        rep = harness.eso_check(a, n=1, trials=500, rng=rng_for("eso1"))
        assert rep.deterministic
        # ||A h||^2 = h^2 against (R_m^2 + R^2) h^2 = 2 h^2.
        assert rep.ratio == pytest.approx(0.5, rel=1e-12)
        assert rep.passed

    def test_orthonormal_columns_enumerated(self):
        # All four samplings by hand: E = ||h||^2 / 2, bound = 0.75 ||h||^2.
        a = np.eye(4)
        h = rng_for("eso2").standard_normal(4)
        exact = 0.5 * float(h @ h)
        rep = harness.eso_check(a, n=2, trials=60_000, rng=rng_for("eso3"), h=h)
        assert rep.rhs == pytest.approx(0.75 * float(h @ h), rel=1e-12)
        assert abs(rep.lhs_mean - exact) <= 3 * rep.lhs_se
        assert rep.ratio < 1.0
        assert rep.passed

    def test_random_instances_pass(self):
        rng = rng_for("eso4")
        for _ in range(20):
            a = rng.standard_normal((10, 20))
            rep = harness.eso_check(a, n=4, trials=10_000, rng=rng)
            assert rep.passed, rep

    def test_sparse_and_dataset_inputs_accepted(self):
        a = sparse.random(8, 12, density=0.4, random_state=7, format="csc")
        rep = harness.eso_check(a, n=3, trials=2_000, rng=rng_for("eso5"))
        assert rep.rhs > 0
        ds = harness.synth_dataset(12, 8, 0.4, seed=8)
        rep = harness.eso_check(ds.features, n=3, trials=2_000, rng=rng_for("eso6"))
        assert rep.rhs > 0

    def test_rhs_uses_the_constants_of_the_theory(self):
        # R_m^2 and R^2 are the column squares and the Lanczos estimate that
        # compute_constants gives the step-size formulas, bit for bit.
        for N, d, n in ((60, 12, 3), (41, 30, 4), (90, 7, 5)):
            ds = harness.synth_dataset(N, d, 0.4, seed=N)
            part = partition(ds, n)
            constants = compute_constants(PrimalProblem(ds, part, lam1=1e-3, lam2=1e-3))
            retained = part.retained
            h = np.ones(retained)
            rep = harness.eso_check(ds.features, n=n, trials=50, rng=rng_for("eso7"), h=h)
            col_sq = column_squares(ds.features[:, :retained])
            assert rep.rhs == (col_sq.max() + n * constants.r_sq) / part.m * retained

    def test_chunks_match_the_one_shot_formula(self, monkeypatch):
        # 2000 trials in chunks of 700 draw three chunks. The same picks in one
        # draw give every trial's ||A h_[S]||^2, and their population moments
        # the mean and the standard error.
        a = rng_for("eso8").standard_normal((10, 20))
        h = rng_for("eso9").standard_normal(20)
        monkeypatch.setattr(comp, "_CHUNK_ROWS", 700)
        rep = harness.eso_check(a, n=4, trials=2000, rng=rng_for("eso10"), h=h)
        picks = rng_for("eso10").integers(0, 5, size=(2000, 4)) + np.arange(4) * 5
        lhs = np.array([np.sum((a[:, cols] @ h[cols]) ** 2) for cols in picks])
        assert rep.lhs_mean == pytest.approx(lhs.mean(), rel=1e-14)
        assert rep.lhs_se == pytest.approx(lhs.std() / math.sqrt(2000), rel=1e-12)

    def test_memory_is_bounded_by_one_chunk(self):
        # One product of all 2e5 trials peaked at 64 MB; a chunk of 20 000 holds a tenth.
        a = rng_for("eso11").standard_normal((10, 20))
        tracemalloc.start()
        try:
            harness.eso_check(a, n=4, trials=200_000, rng=rng_for("eso12"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSynthDataset:
    def test_reproducible_byte_exact(self):
        a = harness.synth_dataset(50, 20, 0.3, seed=9)
        b = harness.synth_dataset(50, 20, 0.3, seed=9)
        assert (a.features != b.features).nnz == 0
        assert np.array_equal(a.labels, b.labels)

    def test_labels_are_signs(self):
        ds = harness.synth_dataset(100, 20, 0.3, seed=10)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_column_scaling(self):
        ds = harness.synth_dataset(30, 15, 0.4, seed=11, scale=0.3)
        assert np.allclose(np.sqrt(column_squares(ds.features)), 0.3)

    @pytest.mark.parametrize("sparsity", [0.01, 0.4, 1.0])
    def test_every_example_keeps_its_share_of_coordinates(self, sparsity):
        ds = harness.synth_dataset(40, 15, sparsity, seed=13)
        assert np.array_equal(np.diff(ds.features.indptr), np.full(40, max(1, round(sparsity * 15))))

    def test_scale_moves_only_the_column_norms(self):
        # The planted model divides by the scale that the columns gain, so the
        # margins, and with them the labels, do not depend on it.
        unit = harness.synth_dataset(60, 15, 0.4, seed=14, scale=1.0)
        small = harness.synth_dataset(60, 15, 0.4, seed=14, scale=0.3)
        assert np.array_equal(unit.labels, small.labels)
        assert np.array_equal(unit.features.indices, small.features.indices)
        assert np.allclose(small.features.data, 0.3 * unit.features.data, rtol=1e-14, atol=0)

    def test_planted_model_is_learnable(self):
        ds = harness.synth_dataset(200, 20, 0.4, seed=12, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 4), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        p_star = harness.solve_reference(problem, compute_constants(problem), tol=1e-9).value
        assert p_star < problem.primal_value(np.zeros(problem.d))


def base_config(**kw) -> harness.RunConfig:
    defaults = dict(
        algo="ec_lsvrg",
        synth=(80, 16, 0.4),
        synth_scale=0.5,
        n=4,
        compressor="top_k:1",
        eta=0.3,
        lambda1=1e-3,
        lambda2=1e-3,
        epochs=5,
        seed=404,
        reference_tol=1e-11,
    )
    defaults.update(kw)
    return harness.RunConfig(**defaults)


def strict_json(path):
    """Parse a JSON file, rejecting the NaN and Infinity that Python's json writes by default."""

    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which JSON does not allow")

    return json.loads(path.read_text(), parse_constant=reject)


class TestRunExperiment:
    def test_zero_epoch_budget_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        res = harness.run_experiment(base_config(epochs=0, out_csv=str(out)))
        assert res.records == []
        assert out.read_text().strip() == ",".join(harness.TRACE_COLUMNS)

    def test_run_with_no_record_writes_its_infinite_gaps_as_null(self, tmp_path):
        out = tmp_path / "empty.json"
        res = harness.run_experiment(base_config(epochs=0, out_json=str(out)))
        assert res.best_gap == res.final_gap == math.inf
        meta = strict_json(out)
        assert (meta["best_gap"], meta["final_gap"], meta["records"]) == (None, None, [])

    def test_negative_epoch_budget_is_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            harness.run_experiment(base_config(epochs=-1))

    def test_trace_roundtrip_csv_and_json(self, tmp_path):
        out_csv = tmp_path / "t.csv"
        out_json = tmp_path / "t.json"
        res = harness.run_experiment(
            base_config(out_csv=str(out_csv), out_json=str(out_json), epochs=3)
        )
        with open(out_csv, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = [{col: float(v) if v else None for col, v in row.items()} for row in reader]
        assert tuple(reader.fieldnames) == harness.TRACE_COLUMNS
        assert rows == [asdict(rec) for rec in res.records]
        meta = strict_json(out_json)
        assert [harness.TrialRecord(**rec) for rec in meta["records"]] == res.records
        assert meta["config"]["algo"] == "ec_lsvrg"

    def test_json_reports_design_path_and_partition(self, tmp_path, monkeypatch):
        def manifest(name):
            out = tmp_path / name
            harness.run_experiment(base_config(synth=(82, 16, 0.4), epochs=1, out_json=str(out)))
            return strict_json(out)

        dense = manifest("dense.json")
        assert dense["design"] == "dense"
        assert dense["partition"] == {"n": 4, "m": 20, "dropped": 2}
        monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        assert manifest("sparse.json")["design"] == "sparse"

    def test_json_reports_the_reference_solve(self, tmp_path):
        out = tmp_path / "run.json"
        config = base_config(epochs=1, out_json=str(out), reference_tol=1e-11)
        harness.run_experiment(config)
        reported = strict_json(out)["reference"]
        ref = harness.build_setup(config).reference
        assert reported == {
            "value": ref.value,
            "residual": ref.residual,
            "iterations": ref.iterations,
            "tol": 1e-11,
        }
        assert 0 < reported["residual"] <= reported["tol"]
        assert reported["iterations"] >= 1

    def test_json_reports_setup_timings_and_versions(self, tmp_path):
        out = tmp_path / "run.json"
        started = time.perf_counter()
        harness.run_experiment(base_config(epochs=1, out_json=str(out)))
        wall_ms = (time.perf_counter() - started) * 1e3
        meta = strict_json(out)
        setup_ms = meta["setup_ms"]
        assert list(setup_ms) == ["load", "design", "constants", "reference"]
        assert all(ms >= 0 for ms in setup_ms.values())
        assert sum(setup_ms.values()) <= wall_ms
        assert meta["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ecvr": ecvr.__version__,
        }

    @pytest.mark.parametrize(
        "algo, compressor, q1, eta, p",
        [
            ("ec_lsvrg", "top_k:2", "top_k:1", 0.3, 0.2),
            ("ec_lsvrg", "dither", None, "theory", None),
            ("ec_quartz", "dither", None, 0.3, None),  # eta is the primal step: unused
            ("ec_sdca", "top_k:3", None, 0.3, None),
        ],
    )
    def test_json_reports_resolved_parameters(self, tmp_path, algo, compressor, q1, eta, p):
        out = tmp_path / "run.json"
        config = base_config(
            algo=algo, compressor=compressor, compressor_q1=q1, eta=eta, p=p, epochs=1,
            out_json=str(out),
        )
        res = harness.run_experiment(config)
        meta = strict_json(out)
        setup = harness.build_setup(config)
        primal = setup.primal
        constants = compute_constants(primal)
        spec = comp.parse_spec(compressor)
        delta = comp.delta_of(spec, primal.d)
        assert meta["delta"] == delta
        assert meta["omega"] == (1.0 if compressor == "dither" else None)
        expected = asdict(constants)
        assert meta["spectral_solves"] == expected.pop("spectral_solves")
        assert meta["constants"] == expected
        assert list(meta["spectral_solves"]) == ["full", "worst_node"]
        assert meta["bits_per_step"] == res.bits_per_step
        if algo == "ec_lsvrg":
            q1_spec = comp.parse_spec(q1 or compressor)
            delta1 = comp.delta_of(q1_spec, primal.d)
            p_used = p if p is not None else delta
            eta_theory = alg.theoretical_eta(constants, primal.n, delta, delta1, p_used, COMPOSITE)
            assert (meta["delta1"], meta["p"]) == (delta1, p_used)
            assert meta["eta_theory"] == eta_theory
            assert meta["eta"] == (eta_theory if eta == "theory" else eta)
            assert (meta["theta"], meta["theta_theory"]) == (None, None)
            assert meta["bits_per_step"] == primal.n * (
                comp.bit_cost(spec, primal.d) + comp.bit_cost(q1_spec, primal.d) + 1.0
            )
        else:
            dual = DualProblem(primal)
            theta_theory = alg.theoretical_theta(
                constants, primal.m, primal.n, dual.lam, dual.gamma, delta
            )
            assert meta["theta"] == meta["theta_theory"] == theta_theory
            assert (meta["eta"], meta["eta_theory"], meta["p"], meta["delta1"]) == (None,) * 4
            assert meta["bits_per_step"] == primal.n * comp.bit_cost(spec, primal.d)

    @pytest.mark.parametrize("algo", ["ec_lsvrg", "ec_quartz"])
    def test_one_problem_setup_per_run(self, monkeypatch, algo):
        calls = count_setup_calls(monkeypatch)
        setups = []
        real_build = harness.build_optimizer

        def capturing_build(config, setup):
            setups.append(setup)
            return real_build(config, setup)

        monkeypatch.setattr(harness, "build_optimizer", capturing_build)
        harness.run_experiment(base_config(algo=algo, epochs=1))
        assert len(calls["compute_constants"]) == len(calls["solve_reference"]) == 1
        assert len(setups) == 1

    def test_one_setup_serves_primal_and_dual_algorithms(self):
        # The setup does not depend on the algorithm: a primal and a dual run
        # on one build_setup each trace as their own run_experiment does.
        configs = [base_config(algo=algo, epochs=2) for algo in ("ec_lsvrg", "ec_quartz")]
        setup = harness.build_setup(configs[0])
        assert harness.build_setup(configs[1]).reference.value == setup.reference.value
        for config in configs:
            shared = harness._run(config, setup)
            own = harness.run_experiment(config)
            assert shared.setup is setup
            assert [replace(r, wall_ms=0.0) for r in shared.records] == [
                replace(r, wall_ms=0.0) for r in own.records
            ]
            assert (shared.records[-1].dual_gap is None) == (config.algo == "ec_lsvrg")

    @pytest.mark.parametrize("algo", harness.DUAL_ALGOS)
    def test_dual_algorithms_ignore_the_mode(self, algo):
        # The dual methods solve one objective; with lambda1 = 0 smooth mode
        # changes only how the primal methods would split it.
        composite, smoothed = (
            harness.run_experiment(
                base_config(algo=algo, compressor="top_k:2", lambda1=0.0, mode=mode, epochs=3)
            )
            for mode in (COMPOSITE, "smooth")
        )
        assert composite.setup.reference.value == smoothed.setup.reference.value
        assert np.array_equal(composite.setup.reference.x, smoothed.setup.reference.x)
        assert composite.resolved.theta == smoothed.resolved.theta
        assert len(composite.records) == 3
        assert [replace(r, wall_ms=0.0) for r in composite.records] == [
            replace(r, wall_ms=0.0) for r in smoothed.records
        ]

    def test_dual_run_without_lambda2_is_rejected_before_setup(self, monkeypatch):
        def no_constants(problem):
            raise AssertionError("compute_constants ran for a config rejected up front")

        monkeypatch.setattr(harness, "compute_constants", no_constants)
        for algo in harness.DUAL_ALGOS:
            with pytest.raises(harness.ConfigError, match="lambda2 > 0") as err:
                harness.run_experiment(base_config(algo=algo, lambda1=0.0, lambda2=0.0))
            assert err.value.field == "lambda2"

    def test_json_path_that_names_the_csv_file_is_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        config = base_config(out_csv="sub/../trace.json", out_json="trace.json")
        with pytest.raises(harness.ConfigError, match="would overwrite the CSV trace") as err:
            harness.run_experiment(config)
        assert err.value.field == "out_csv"
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"mode": "foo"}, "mode"),
            ({"lambda1": -1.0, "mode": "foo"}, "lambda1"),
            ({"lambda2": -1.0}, "lambda2"),
            ({"mode": "smooth"}, "lambda1"),
            ({"n": 500}, "n"),
        ],
    )
    def test_build_setup_names_the_field_that_does_not_fit(self, overrides, field):
        with pytest.raises(harness.ConfigError) as err:
            harness.build_setup(base_config(**overrides))
        assert err.value.field == field

    def test_negative_step_names_eta(self):
        for algo in harness.PRIMAL_ALGOS:
            with pytest.raises(harness.ConfigError, match="step size must be nonnegative") as err:
                harness.run_experiment(base_config(algo=algo, eta=-0.1))
            assert err.value.field == "eta"

    def test_bits_column_is_analytic_and_monotone(self):
        from ecvr import compressors as comp

        res = harness.run_experiment(base_config(epochs=4))
        d = 16
        per_step = 4 * (comp.bit_cost(comp.top_k(1), d) * 2 + 1)
        for rec in res.records:
            assert rec.bits == per_step * rec.k
        bits = [rec.bits for rec in res.records]
        assert bits == sorted(bits)

    # Each cost per step here is not an integer, so a running sum of it would
    # drift off the product; ec_lsvrg and rtop_k:3 run at RunConfig's defaults.
    @pytest.mark.parametrize(
        "overrides",
        [
            {"algo": "ec_gd", "compressor": "dither", "synth": (200, 37, 0.3)},
            {"algo": "ec_quartz", "compressor": "dither", "synth": (200, 37, 0.3)},
            {"algo": "ec_lsvrg", "compressor": "rtop_k:3"},
        ],
        ids=["ec_gd-dither", "ec_quartz-dither", "ec_lsvrg-rtop_k"],
    )
    def test_bits_are_exactly_the_steps_times_the_cost_per_step(self, monkeypatch, overrides):
        built, real = [], harness.build_optimizer
        monkeypatch.setattr(harness, "build_optimizer", lambda *a: built.append(real(*a)) or built[-1])
        res = harness.run_experiment(harness.RunConfig(epochs=20, **overrides))
        [(opt, _)] = built
        assert res.bits_per_step != int(res.bits_per_step) and len(res.records) == 20
        assert [rec.bits for rec in res.records] == [rec.k * res.bits_per_step for rec in res.records]
        assert opt.bits == opt.k * opt.bits_per_step

    def test_identity_ec_lsvrg_matches_lsvrg_gaps(self):
        ec = harness.run_experiment(base_config(compressor="identity", algo="ec_lsvrg"))
        plain = harness.run_experiment(base_config(compressor="identity", algo="lsvrg"))
        assert len(ec.records) == len(plain.records)
        for a, b in zip(ec.records, plain.records):
            assert abs(a.primal_gap - b.primal_gap) <= 1e-12 * (1.0 + abs(b.primal_gap))

    def test_dual_run_records_nonnegative_gap(self):
        res = harness.run_experiment(
            base_config(algo="ec_sdca", compressor="top_k:1", eta="theory", epochs=10)
        )
        for rec in res.records:
            assert rec.dual_gap is not None and rec.dual_gap >= -1e-10

    def test_negative_duality_gap_names_the_step(self, monkeypatch):
        # A dual value above every primal value breaks weak duality at the first record.
        monkeypatch.setattr(DualProblem, "dual_value", lambda self, alpha, aggregate=None: 1e3)
        with pytest.raises(alg.InvariantError, match=r"fell below -1e-10 at step 7$"):
            harness.run_experiment(base_config(algo="ec_quartz", cadence=7))

    def test_gap_target_stops_early_and_reports_bits(self):
        res = harness.run_experiment(
            base_config(epochs=400, eta=1.0, gap_target=1e-4, cadence=20)
        )
        assert res.bits_to_target is not None
        assert res.records[-1].primal_gap <= 1e-4

    # (best_gap, final_gap) pinned: a change in how either is derived shows up here.
    @pytest.mark.parametrize(
        "overrides, gaps",
        [
            # A step this long makes the gap oscillate, so the least gap is not the last.
            ({"epochs": 30, "eta": 100.0, "cadence": 1}, (0.025070169718496182, 0.12190488159557322)),
            ({"epochs": 0}, (math.inf, math.inf)),
            (
                {"epochs": 400, "eta": 1.0, "gap_target": 1e-4, "cadence": 20},
                (9.828811432832651e-05, 9.828811432832651e-05),
            ),
        ],
        ids=["records", "no_record", "gap_target"],
    )
    def test_gaps_are_read_from_the_records(self, overrides, gaps):
        res = harness.run_experiment(base_config(**overrides))
        assert (res.best_gap, res.final_gap) == pytest.approx(gaps, rel=1e-6)
        recorded = [rec.primal_gap for rec in res.records]
        assert res.best_gap == min(recorded, default=math.inf)
        assert res.final_gap == (recorded[-1] if recorded else math.inf)

    @pytest.mark.parametrize(
        "gaps, best", [([math.nan, 2.0, 1.0], 1.0), ([1.0, math.nan], 1.0), ([math.nan], math.inf)]
    )
    def test_best_gap_skips_nan_as_a_running_min_does(self, gaps, best):
        records = [harness.TrialRecord(k, k, k, gap, None, 0.0, 0.0) for k, gap in enumerate(gaps)]
        res = harness.RunResult(
            config=None, setup=None, records=records, bits_to_target=None,
            steps=len(gaps), resolved=None, bits_per_step=0.0,
        )
        assert res.best_gap == best
        assert math.isnan(res.final_gap) == math.isnan(gaps[-1])

    def test_ecgd_counts_full_passes(self):
        res = harness.run_experiment(base_config(algo="ec_gd", epochs=3, eta=0.5))
        assert res.records[-1].epoch == pytest.approx(3.0)
        assert res.records[-1].k == 3

    def test_theory_eta_resolves(self):
        res = harness.run_experiment(base_config(eta="theory", epochs=1))
        assert res.resolved.eta is not None and res.resolved.eta > 0

    def test_theory_eta_uses_smooth_regime_in_smooth_mode(self):
        composite = harness.run_experiment(base_config(eta="theory", epochs=1))
        smoothed = harness.run_experiment(
            base_config(eta="theory", epochs=1, mode="smooth", lambda1=0.0)
        )
        assert smoothed.resolved.eta != composite.resolved.eta and smoothed.resolved.eta > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_iteration(self):
        cfg = base_config(algo="ec_lsvrg", mode="smooth", lambda1=0.0, eta=1e9, epochs=200)
        with pytest.raises(NumericalError, match="step"):
            harness.run_experiment(cfg)

    def test_rejects_ambiguous_data_source(self):
        with pytest.raises(ValueError):
            harness.run_experiment(base_config(data="x.txt"))


class TestDesignPaths:
    @pytest.mark.parametrize("algo", harness.ALGOS)
    def test_dense_and_sparse_designs_agree(self, monkeypatch, algo):
        cfg = base_config(
            algo=algo, synth=(200, 50, 0.3), synth_scale=0.3, eta=1.0, epochs=10, seed=3
        )
        dense = harness.run_experiment(cfg)
        monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        sparse_run = harness.run_experiment(cfg)
        assert (dense.design, sparse_run.design) == ("dense", "sparse")
        assert len(dense.records) == len(sparse_run.records) == 10
        # Every full pass runs on the CSC matrix on both paths, and the dense
        # gather returns the same columns, so the runs agree bit for bit.
        for a, b in zip(dense.records, sparse_run.records):
            assert replace(a, wall_ms=0.0) == replace(b, wall_ms=0.0)
        assert np.array_equal(dense.x, sparse_run.x)


class TestLoadDataset:
    @pytest.mark.parametrize(
        "overrides, transform",
        [
            ({"shuffle_seed": 3}, lambda ds: shuffle_examples(ds, 3)),
            ({"normalize": True}, normalize_examples),
            ({"shuffle_seed": 3, "normalize": True}, lambda ds: normalize_examples(shuffle_examples(ds, 3))),
        ],
        ids=["shuffle", "normalize", "both"],
    )
    def test_run_equals_the_run_on_the_transformed_data(self, monkeypatch, overrides, transform):
        def trace(res):
            return [(r.k, r.bits, r.primal_gap, r.err_norm) for r in res.records]

        config = base_config(compressor="rand_k:2", epochs=3)
        plain = harness.run_experiment(config)
        flagged = harness.run_experiment(replace(config, **overrides))
        transformed = transform(harness.load_dataset(config))
        monkeypatch.setattr(harness, "load_dataset", lambda _: transformed)
        assert trace(flagged) == trace(harness.run_experiment(config)) != trace(plain)


def count_setup_calls(monkeypatch) -> dict[str, list]:
    """Record every call harness makes to its data, constants and reference steps."""
    calls = {}
    for name in ("load_dataset", "compute_constants", "solve_reference"):
        real, calls[name] = getattr(harness, name), []

        def counting(*args, _real=real, _seen=calls[name], **kw):
            _seen.append(args)
            return _real(*args, **kw)

        monkeypatch.setattr(harness, name, counting)
    return calls


class TestGridSearch:
    def test_grid_values(self):
        grid = harness.eta_grid()
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(30.0)
        assert len(grid) == 12

    def test_picks_converging_step(self):
        best, results = harness.grid_search_eta(
            base_config(epochs=6), candidates=[1e-4, 0.3, 1.0]
        )
        assert best in (0.3, 1.0)
        assert results[1e-4].final_gap >= results[best].final_gap

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_candidate_is_recorded_as_none(self):
        # No prox tames a huge step in smooth mode.
        base = base_config(mode="smooth", lambda1=0.0, epochs=5)
        best, results = harness.grid_search_eta(base, candidates=[0.3, 1e9])
        assert best == 0.3 and results[1e9] is None and results[0.3].final_gap < 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_candidate_diverging_raises(self):
        base = base_config(mode="smooth", lambda1=0.0, epochs=5)
        with pytest.raises(RuntimeError, match="^every step-size candidate diverged$"):
            harness.grid_search_eta(base, candidates=[1e9, 1e10])

    def test_candidates_share_one_setup(self, monkeypatch):
        calls = count_setup_calls(monkeypatch)
        _, results = harness.grid_search_eta(base_config(epochs=1), candidates=[0.1, 0.3, 1.0])
        assert len(results) == 3
        assert {name: len(seen) for name, seen in calls.items()} == {
            "load_dataset": 1,
            "compute_constants": 1,
            "solve_reference": 1,
        }


class TestDeterminism:
    def test_same_seed_same_trace_bytes_without_wall(self, tmp_path):
        paths = []
        for run in range(2):
            out = tmp_path / f"d{run}.csv"
            harness.run_experiment(base_config(out_csv=str(out), epochs=3))
            paths.append(out)
        a = strip_wall(paths[0].read_text())
        b = strip_wall(paths[1].read_text())
        assert a == b and len(a) > 0

    def test_different_seed_changes_trace(self, tmp_path):
        a = harness.run_experiment(base_config(seed=1, compressor="rand_k:2"))
        b = harness.run_experiment(base_config(seed=2, compressor="rand_k:2"))
        assert [r.primal_gap for r in a.records] != [r.primal_gap for r in b.records]

    def test_trace_digest_hashes_the_csv_lines_without_wall(self, tmp_path):
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        res = harness.run_experiment(base_config(out_csv=str(out_csv), out_json=str(out_json), epochs=3))
        digest = harness.trace_digest(res.records)
        assert digest == hashlib.sha256(strip_wall(out_csv.read_text()).encode()).hexdigest()
        assert strict_json(out_json)["trace_sha256"] == digest
        assert harness.trace_digest([replace(r, wall_ms=r.wall_ms + 1.0) for r in res.records]) == digest
        moved = replace(res.records[-1], primal_gap=np.nextafter(res.records[-1].primal_gap, 1.0))
        assert harness.trace_digest(res.records[:-1] + [moved]) != digest

    def test_trace_digest_of_no_records_hashes_the_header(self):
        header = ",".join(col for col in harness.TRACE_COLUMNS if col != "wall_ms")
        assert header == "k,epoch,bits,primal_gap,dual_gap,err_norm"
        assert harness.trace_digest([]) == hashlib.sha256(header.encode()).hexdigest()

    def test_trace_digest_is_the_same_in_a_fresh_interpreter(self):
        # Another process has another str hash seed and its own import order.
        config = base_config(compressor="rand_k:2", epochs=3)
        script = (
            "from ecvr import harness\n"
            f"config = harness.RunConfig(**{asdict(config)!r})\n"
            "print(harness.trace_digest(harness.run_experiment(config).records))\n"
        )
        src = str(Path(ecvr.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == harness.trace_digest(harness.run_experiment(config).records)

    def test_every_algorithm_keeps_its_pinned_trace(self):
        config = harness.RunConfig(
            synth=BENCH_SHAPE,
            synth_scale=BENCH_SCALE,
            n=4,
            seed=BENCH_SEED,
            compressor="top_k:1",
            eta=1.0,
            epochs=20,
        )
        setup = harness.build_setup(config)
        got = {
            algo: harness.trace_digest(harness._run(replace(config, algo=algo), setup).records)
            for algo in harness.ALGOS
        }
        changed = sorted(algo for algo in harness.ALGOS if got[algo] != TRACE_PINS[algo])
        assert changed == [], (
            f"trace digests changed for {changed} with numpy {np.__version__} on {cpu_name()}."
            " The pins hold for one host and one numpy: OpenBLAS picks its kernels per CPU, or"
            " as OPENBLAS_CORETYPE says (see the README on traces across hosts). A change that"
            " alters traces on purpose updates TRACE_PINS and lists the new pins in CHANGES.md"
            " with the reason."
        )


# trace_digest of each algorithm's 20-epoch top_k:1 run on the benchmark problem, at
# eta = 1.0 and the theory theta; recorded with numpy 2.4.6 and its OpenBLAS on an Intel
# Xeon, and unchanged under 1 and 2 BLAS threads.
TRACE_PINS = {
    "ec_lsvrg": "877a37a143e49d8834669d5848ce34920201c266a63cc8bc15becbda73df94a3",
    "lsvrg": "f7ec69c586ea4a10ceaffec1768995190f29aa51ae4036d3ac994a8775bd57cf",
    "ec_gd": "f99b8365b3831eeceb2bbafc2c34fb142dcf56e1de0c1f56d180c2e05842b072",
    "ec_quartz": "0d3d8b88f1197e5e34092c2783cc8ed72a1a805aee570e0b9f24d9fae9bff069",
    "ec_sdca": "ea97c6126a82be13d87d193cf47d0c2835786f21dee21e5bf2931e25554ba76b",
    "quartz": "7fb4412aa1de953f3df4975f7313187137756b0058bf9f42f4460a28c8e540f1",
    "sdca": "9657e46517ca405618fc22262afe58586edb3ccff0fa7ff1eeccc1504ba14fde",
}


def cpu_name() -> str:
    """The CPU model Linux reports, else what ``platform`` knows."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def strip_wall(text: str) -> str:
    lines = text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


# `ecvr verify compressors` at its defaults: seed 0, d=100, 10 000 trials.
VERIFY_COMPRESSORS_LINES = [
    "contraction    top_k:1 d=100: mean=0.9229 (se 2.0e-04) max=0.9632 allowed=0.9900 -> ok",
    "contraction    top_k:5 d=100: mean=0.7284 (se 3.7e-04) max=0.8265 allowed=0.9500 -> ok",
    "contraction   rand_k:1 d=100: mean=0.9899 (se 1.4e-04) max=1.0000 allowed=0.9900 -> ok",
    "contraction   rand_k:5 d=100: mean=0.9499 (se 3.1e-04) max=0.9989 allowed=0.9500 -> ok",
    "contraction     dither d=100: mean=0.2918 (se 2.1e-04) max=0.3690 allowed=0.5000 -> ok",
    "contraction    natural d=100: mean=0.0770 (se 1.4e-04) max=0.1343 allowed=0.1111 -> ok",
    "contraction   ntop_k:5 d=100: mean=0.7488 (se 3.4e-04) max=0.8466 allowed=0.9556 -> ok",
    "contraction   rtop_k:5 d=100: mean=0.8025 (se 3.3e-04) max=0.9099 allowed=0.9750 -> ok",
    "contraction   identity d=100: mean=0.0000 (se 0.0e+00) max=0.0000 allowed=0.0000 -> ok",
    "unbiased    dither_raw d=25: mean dev=1.30e-02 second=37.825 <= 63.722 -> ok",
    "unbiased   natural_raw d=25: mean dev=8.62e-03 second=34.737 <= 35.541 -> ok",
    "mean scale    rand_k:2 d=25: factor=0.0800 max dev=5.66e-03 -> ok",
    "mean scale      dither d=25: factor=0.5000 max dev=4.77e-03 -> ok",
    "all checks passed",
]

# `ecvr verify compressors --d 20 --trials 2000`.
VERIFY_COMPRESSORS_SMALL_LINES = [
    "contraction    top_k:1 d=20: mean=0.7540 (se 1.6e-03) max=0.8941 allowed=0.9500 -> ok",
    "contraction    top_k:5 d=20: mean=0.3005 (se 1.7e-03) max=0.5120 allowed=0.7500 -> ok",
    "contraction   rand_k:1 d=20: mean=0.9515 (se 1.4e-03) max=1.0000 allowed=0.9500 -> ok",
    "contraction   rand_k:5 d=20: mean=0.7516 (se 2.9e-03) max=0.9932 allowed=0.7500 -> ok",
    "contraction     dither d=20: mean=0.2933 (se 1.1e-03) max=0.4790 allowed=0.5000 -> ok",
    "contraction    natural d=20: mean=0.0766 (se 6.5e-04) max=0.1976 allowed=0.1111 -> ok",
    "contraction   ntop_k:5 d=20: mean=0.3561 (se 1.7e-03) max=0.6028 allowed=0.7778 -> ok",
    "contraction   rtop_k:5 d=20: mean=0.4977 (se 1.8e-03) max=0.7649 allowed=0.8750 -> ok",
    "contraction   identity d=20: mean=0.0000 (se 0.0e+00) max=0.0000 allowed=0.0000 -> ok",
    "unbiased    dither_raw d=20: mean dev=1.95e-02 second=26.365 <= 44.864 -> ok",
    "unbiased   natural_raw d=20: mean dev=2.33e-02 second=24.787 <= 25.267 -> ok",
    "mean scale    rand_k:2 d=20: factor=0.1000 max dev=1.35e-02 -> ok",
    "mean scale      dither d=20: factor=0.5000 max dev=1.03e-02 -> ok",
    "all checks passed",
]

# `ecvr verify eso --trials 500 --instances 3`.
VERIFY_ESO_LINES = [
    "eso instance 0: ratio=0.2907 (se 8.5e-03) -> ok",
    "eso instance 1: ratio=0.2740 (se 1.5e-02) -> ok",
    "eso instance 2: ratio=0.3059 (se 1.0e-02) -> ok",
    "all checks passed",
]


# `ecvr verify invariants` at its defaults.
VERIFY_INVARIANTS_LINES = [
    "ec_lsvrg: 200 steps, per-step identities and full check held",
    "ec_quartz: 200 steps at theta=3.387e-04, per-step identities and full check held",
    "all checks passed",
]


class TestCli:
    def test_run_writes_traces(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main(
            [
                "run",
                "--synth",
                "60,12,0.4",
                "--synth-scale",
                "0.5",
                "--algo",
                "ec_lsvrg",
                "--compressor",
                "top_k:1",
                "--eta",
                "0.3",
                "--epochs",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists() and (tmp_path / "run.json").exists()
        assert "final_gap" in capsys.readouterr().out

    def test_run_progress_goes_to_stderr(self, tmp_path, capsys):
        # Stdout holds only the summary and the trace paths, so it stays parseable.
        out = tmp_path / "run.csv"
        argv = ["run", "--synth", "60,12,0.4", "--eta", "0.3", "--epochs", "2", "--cadence", "5"]
        code = cli.main(argv + ["--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        stdout = captured.out.splitlines()
        assert len(stdout) == 2
        assert stdout[0].startswith("done algo=ec_lsvrg ")
        assert stdout[1] == f"trace written to {out} and {tmp_path / 'run.json'}"
        progress = captured.err.splitlines()
        records = out.read_text().splitlines()[1:]
        assert len(progress) == len(records) > 1
        for line, row in zip(progress, records):
            assert line.startswith(f"k={row.split(',')[0]} epoch=")

    def test_run_from_libsvm_file(self, tmp_path, capsys):
        data = tmp_path / "toy.libsvm"
        data.write_text(
            "+1 1:0.5 3:-1.2\n-1 2:0.8 4:0.3\n+1 1:-0.4 2:0.9 4:1.1\n-1 3:0.7\n"
            "+1 2:-0.6 3:0.2\n-1 1:1.3 4:-0.5\n+1 1:0.1 2:0.2 3:0.3 4:0.4\n0 4:-0.9\n"
        )
        code = cli.main(
            [
                "run", "--data", str(data), "--n", "2", "--algo", "ec_gd",
                "--compressor", "rand_k:2", "--eta", "0.5", "--epochs", "3",
            ]
        )
        assert code == 0
        assert "final_gap" in capsys.readouterr().out

    @pytest.mark.parametrize("out, csv_at", [("../t", "t"), ("../x.d/t", "x.d/t")])
    def test_json_trace_sits_beside_the_csv(self, tmp_path, monkeypatch, capsys, out, csv_at):
        # The JSON path swaps only the extension of the file name, however
        # many dots the directories hold.
        (tmp_path / "work").mkdir()
        (tmp_path / "x.d").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        code = cli.main(["run", "--synth", "60,12,0.4", "--eta", "0.3", "--epochs", "1", "--out", out])
        assert code == 0
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {csv_at, csv_at + ".json"}

    def test_verify_compressors_exit_code(self, capsys):
        # Every line is pinned: a change to any sparsifier's selection or to a
        # compressor's RNG stream shows up here, not only as a failed check.
        code = cli.main(["verify", "compressors"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == VERIFY_COMPRESSORS_LINES

    def test_verify_compressors_at_a_small_size(self, capsys):
        code = cli.main(["verify", "compressors", "--d", "20", "--trials", "2000"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == VERIFY_COMPRESSORS_SMALL_LINES

    def test_verify_eso(self, capsys):
        code = cli.main(["verify", "eso", "--trials", "2000", "--instances", "5"])
        assert code == 0

    def test_verify_eso_lines(self, capsys):
        # Pinned like the compressor lines: a change to the ESO check's draws shows up here.
        code = cli.main(["verify", "eso", "--trials", "500", "--instances", "3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == VERIFY_ESO_LINES

    def test_verify_invariants(self, capsys):
        code = cli.main(["verify", "invariants"])
        assert code == 0
        assert "ec_lsvrg: 200 steps, per-step identities and full check held" in capsys.readouterr().out

    def test_verify_invariants_lines(self, capsys):
        # Pinned: a change to either run's draws or to the theta it resolves shows up here.
        assert cli.main(["verify", "invariants"]) == 0
        assert capsys.readouterr().out.splitlines() == VERIFY_INVARIANTS_LINES

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_the_user_set_that_diverges_names_the_argument(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--mode", "smooth", "--lambda1", "0", "--eta", "1e5", "--epochs", "20"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert (
            "ecvr run: error: argument --eta: compressor input became non-finite at step 153,"
            " node 0 (algo=ec_lsvrg, eta=100000.0, theta=None)"
        ) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--eta", "0.5"], "--eta"),
            (["--algo", "ec_gd", "--eta", "0.5"], "--eta"),
            (["--algo", "ec_quartz", "--theta", "0.01"], "--theta"),
            ([], None),  # the theory step
            (["--eta", "theory"], None),
            (["--algo", "ec_quartz", "--eta", "0.5"], None),  # dual runs take theta, here theory's
            (["--algo", "lsvrg", "--theta", "0.01"], None),  # primal runs take eta
        ],
    )
    def test_diverging_step_is_blamed_on_the_flag_that_set_it(self, monkeypatch, capsys, argv, flag):
        def diverge(config):
            raise NumericalError("iterate became non-finite at step 3")

        monkeypatch.setattr(harness, "run_experiment", diverge)
        if flag is None:
            with pytest.raises(NumericalError, match="at step 3$"):
                cli.main(["run", *argv])
            return
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", *argv])
        assert exit_info.value.code == 2
        assert f"ecvr run: error: argument {flag}: iterate became non-finite at step 3\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eta", "abc"),
            ("--eta", "-1"),
            ("--eta", "nan"),
            ("--synth", "a,5,0.3"),
            ("--synth", "60,12"),
            ("--synth", "60,12,2"),
            ("--synth", "0,12,0.5"),
            ("--compressor", "top_k:x"),
            ("--compressor", "bogus"),
            ("--compressor-q1", "rand_k:0"),
            ("--n", "0"),
            ("--p", "0"),
            ("--p", "1.5"),
            ("--cadence", "0"),
            ("--epochs", "-1"),
            ("--epochs", "nan"),
            ("--synth-scale", "0"),
            ("--synth-scale", "inf"),
            ("--lambda1", "-1"),
            ("--lambda2", "nan"),
            ("--theta", "0"),
            ("--theta", "5"),
            ("--gap-target", "nan"),
            ("--tol", "0"),
            ("--tol", "inf"),
            ("--seed", "-1"),
            ("--shuffle-seed", "-1"),
        ],
    )
    def test_bad_value_names_the_argument(self, capsys, flag, value):
        if flag == "--tol":
            argv = ["reference", flag, value]
        else:
            argv = ["run", flag, value, "--epochs", "0"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: expects" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "what, flag, value",
        [
            ("compressors", "--trials", "0"),
            ("compressors", "--d", "0"),
            ("compressors", "--d", "4"),
            ("eso", "--instances", "-1"),
        ],
    )
    def test_verify_rejects_a_count_below_one(self, capsys, what, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", what, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: expects" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--compressor", "top_k:100"], "--compressor"),
            (["run", "--compressor-q1", "top_k:51"], "--compressor-q1"),
            (["run", "--n", "500"], "--n"),
            (["reference", "--n", "201"], "--n"),
            (["run", "--algo", "ec_quartz", "--theta", "0.5"], "--theta"),
            (["run", "--algo", "ec_sdca", "--lambda2", "0"], "--lambda2"),
            (["run", "--mode", "smooth"], "--lambda1"),
            (["run", "--algo", "ec_quartz", "--mode", "smooth"], "--lambda1"),
            (["run", "--data", "{missing}"], "--data"),
            (["run", "--data", "{missing}", "--synth", "10,5,0.5"], "--synth"),
            (["run", "--data", "{malformed}"], "--data"),
            (["reference", "--data", "{malformed}"], "--data"),
            (["run", "--out", "{missing_dir}/trace.csv"], "--out"),
            (["run", "--compressor-q1", "rand_k_unbiased:2", "--eta", "0.1"], "--compressor-q1"),
            (["run", "--data", "{nan_value}"], "--data"),
            (["run", "--data", "{inf_label}"], "--data"),
            (["reference", "--data", "{no_features}"], "--data"),
            (["run", "--data", "{overflow}"], "--data"),
            (["reference", "--data", "{overflow}"], "--data"),
        ],
    )
    def test_value_that_does_not_fit_the_data_names_the_argument(
        self, tmp_path, capsys, argv, flag
    ):
        # The default data is 200 examples of dimension 50 on 4 nodes.
        (tmp_path / "bad.libsvm").write_text("+1 1:0.5\nyes 2:1\n")
        (tmp_path / "nan.libsvm").write_text("+1 1:0.5\n-1 2:1\n+1 1:nan\n-1 2:2\n")
        (tmp_path / "inf.libsvm").write_text("+1 1:0.5\ninf 2:1\n")
        (tmp_path / "empty.libsvm").write_text("+1\n-1\n+1\n-1\n")
        # Finite values whose Gram operator overflows in the Lanczos recurrence.
        (tmp_path / "big.libsvm").write_text(
            "+1 1:1e308 2:1e308\n-1 1:-1e308 2:1e308\n+1 1:1e308 2:-1e308\n-1 1:-1e308 2:-1e308\n"
        )
        # The line each data file is rejected at; 0 names the whole file.
        data_lines = {"malformed": 2, "nan_value": 3, "inf_label": 2, "no_features": 0}
        paths = {
            "missing": tmp_path / "absent.libsvm",
            "malformed": tmp_path / "bad.libsvm",
            "nan_value": tmp_path / "nan.libsvm",
            "inf_label": tmp_path / "inf.libsvm",
            "no_features": tmp_path / "empty.libsvm",
            "overflow": tmp_path / "big.libsvm",
            "missing_dir": tmp_path / "absent",
        }
        argv = [arg.format(**paths) for arg in argv]
        data_line = next((line for key, line in data_lines.items() if str(paths[key]) in argv), None)
        if argv[0] == "run":
            argv += ["--epochs", "0"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in err
        assert "Traceback" not in err
        if data_line is not None:
            assert f"argument --data: line {data_line}: " in err
        if str(paths["overflow"]) in argv:
            assert "argument --data: Lanczos estimate is nan " in err

    @pytest.mark.parametrize("out", ["traces", "traces/", "trace.json", "run"])
    def test_out_that_loses_or_cannot_write_the_trace_is_rejected_before_any_work(
        self, tmp_path, monkeypatch, capsys, out
    ):
        # A directory cannot take the CSV or the JSON manifest (``run`` puts it
        # at run.json), and a CSV path ending in .json would be overwritten by
        # the JSON manifest written beside it.
        def no_setup(config):
            raise AssertionError("build_setup ran for an --out rejected up front")

        monkeypatch.setattr(harness, "build_setup", no_setup)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "traces").mkdir()
        (tmp_path / "run.json").mkdir()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--epochs", "1", "--out", out])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "error: argument --out: " in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["run.json", "traces"]

    @pytest.fixture
    def short_reference_budget(self, monkeypatch):
        monkeypatch.setattr(
            harness, "solve_reference", functools.partial(harness.solve_reference, max_iter=50)
        )

    def test_reference_that_cannot_reach_its_tol_names_the_argument(
        self, capsys, short_reference_budget
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["reference", "--synth", "60,12,0.4", "--tol", "1e-300"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "ecvr reference: error: argument --tol: reference solver exhausted 50 iterations " in err
        assert "Traceback" not in err

    def test_run_whose_reference_fails_names_no_flag_it_lacks(self, capsys, short_reference_budget):
        # `run` solves its reference at RunConfig's fixed tolerance; it has no --tol.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--synth", "60,12,0.4", "--epochs", "0"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "ecvr run: error: reference_tol: reference solver exhausted 50 iterations " in err
        assert "--tol" not in err

    def test_reference_prints_the_p_star_of_the_run_setup(self, monkeypatch, capsys):
        # `reference` and `run` measure against one reference: RunConfig's tolerance.
        build, tols = harness.build_setup, []
        expected = build(harness.RunConfig(synth=(60, 12, 0.4), seed=3)).reference

        def spy(config):
            tols.append(config.reference_tol)
            return build(config)

        monkeypatch.setattr(harness, "build_setup", spy)
        assert cli.main(["reference", "--synth", "60,12,0.4", "--seed", "3"]) == 0
        assert tols == [harness.RunConfig().reference_tol] == [expected.tol] == [1e-12]
        assert capsys.readouterr().out.startswith(f"P* = {expected.value!r}  (")

    @pytest.mark.parametrize("source", ["--synth", "--data"])
    def test_data_with_zero_constants_runs_a_given_step_only(self, tmp_path, capsys, source):
        zeros = tmp_path / "zeros.libsvm"
        zeros.write_text("+1 1:0 2:0\n-1 1:0\n+1 2:0\n-1 1:0 2:0\n")
        if source == "--data":
            argv = ["run", "--data", str(zeros), "--n", "2", "--epochs", "1"]
        else:
            argv = ["run", "--synth-scale", "1e-200", "--epochs", "1"]
        out = tmp_path / "run.csv"
        assert cli.main(argv + ["--eta", "1", "--out", str(out)]) == 0
        manifest = strict_json(tmp_path / "run.json")
        assert (manifest["eta"], manifest["eta_theory"]) == (1.0, None)
        assert manifest["final_gap"] == 0.0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"ecvr run: error: argument {source}: L and L_f are 0 on this data" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--epochs", "1e308"], "--epochs"),
            (["run", "--synth", f"{10**20},5,0.5", "--epochs", "0"], "--synth"),
            (["verify", "compressors", "--d", str(10**20)], "--d"),
            (["verify", "eso", "--trials", str(10**20)], "--trials"),
            (["verify", "compressors", "--trials", str(10**20)], "--trials"),
        ],
    )
    def test_size_too_large_to_count_or_allocate_names_the_argument(self, capsys, argv, flag):
        # 10**20 elements exceed numpy's largest array, so each fails before any allocation.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"ecvr {argv[0]}: error: argument {flag}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "module, name, error, argv, flag",
        [
            (harness, "synth_dataset", MemoryError, ["run", "--synth", "100,5,0.5"], "--synth"),
            (comp, "_monte_carlo", MemoryError, ["verify", "compressors"], "--d"),
            (harness, "eso_check", MemoryError, ["verify", "eso"], "--trials"),
            (harness, "emit_csv", PermissionError, ["run", "--out", "{tmp}/run.csv"], "--out"),
            (harness, "emit_json", PermissionError, ["run", "--out", "{tmp}/run.csv"], "--out"),
        ],
        ids=["synth", "verify-d", "eso-trials", "csv", "json"],
    )
    def test_host_that_cannot_hold_or_write_names_the_argument(
        self, tmp_path, monkeypatch, capsys, module, name, error, argv, flag
    ):
        # A size numpy can index but the host cannot hold raises MemoryError,
        # and a trace file that cannot be written after the run raises an
        # OSError. The call that would allocate or write raises in its place.
        def fail(*args, **kwargs):
            raise error()

        monkeypatch.setattr(module, name, fail)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if argv[0] == "run":
            argv += ["--epochs", "0"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"ecvr {argv[0]}: error: argument {flag}: {error.__name__}" in err
        assert "Traceback" not in err

    def test_reference_command(self, capsys):
        code = cli.main(["reference", "--synth", "60,12,0.4", "--tol", "1e-8"])
        assert code == 0
        assert "P* =" in capsys.readouterr().out

    def test_reference_on_all_zero_values_steps_at_one(self, tmp_path, capsys):
        # Every stored value is 0 and lambda2 is 0, so L_f + lambda2 is 0 and
        # the solver takes the unit step; x* = 0 and P* = log 2.
        data = tmp_path / "zeros.svm"
        data.write_text("1 1:0\n-1 2:0\n1 1:0\n-1 2:0\n", encoding="utf-8")
        assert cli.main(["reference", "--data", str(data), "--n", "2", "--lambda2", "0"]) == 0
        assert capsys.readouterr().out.startswith(f"P* = {math.log(2.0)!r}  (||x*|| = 0.000000, d = 2)")

    def test_verify_rejects_an_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "bogus"])
        assert exit_info.value.code == 2
        assert "argument what: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_setup() -> harness.Setup:
    return harness.build_setup(base_config())


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda setup: harness.solve_reference(setup.primal, setup.constants, tol=0.0),
            ValueError,
            "tol must be positive",
        ),
        (
            lambda setup: harness.eso_check(np.eye(4), n=2, trials=0, rng=rng_for("eso")),
            ValueError,
            "trials must be >= 1",
        ),
        (
            lambda setup: harness.eso_check(np.ones((3, 2)), n=4, trials=1, rng=rng_for("eso")),
            ValueError,
            "4 nodes need at least 4 columns, got 2",
        ),
        (
            lambda setup: harness.eso_check(np.eye(4), n=0, trials=1, rng=rng_for("eso")),
            ValueError,
            "n must be >= 1, got 0",
        ),
        (
            lambda setup: harness.eso_check(np.eye(4), n=-2, trials=1, rng=rng_for("eso")),
            ValueError,
            "n must be >= 1, got -2",
        ),
        (
            lambda setup: harness.eso_check(np.ones((3, 6)), n=3, trials=1, rng=rng_for("eso"), h=np.ones(5)),
            ValueError,
            "h must have shape (6,), one entry per used column, got (5,)",
        ),
        (
            # The seventh column is not used, so no trial could pick h's seventh entry.
            lambda setup: harness.eso_check(np.ones((3, 7)), n=3, trials=1, rng=rng_for("eso"), h=np.ones(7)),
            ValueError,
            "h must have shape (6,), one entry per used column, got (7,)",
        ),
        (lambda setup: harness.synth_dataset(10, 5, 0.0, seed=1), ValueError, "sparsity must be in (0, 1]"),
        (
            lambda setup: harness.build_optimizer(base_config(algo="bogus"), setup),
            harness.ConfigError,
            f"unknown algorithm 'bogus'; expected one of {harness.ALGOS}",
        ),
        (
            lambda setup: harness._run(base_config(cadence=0), setup),
            harness.ConfigError,
            "cadence must be >= 1",
        ),
    ],
    ids=[
        "tol", "eso-trials", "eso-columns", "eso-no-nodes", "eso-negative-nodes",
        "eso-short-h", "eso-long-h", "sparsity", "algo", "cadence",
    ],
)
def test_rejects_an_input_by_name(small_setup, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(small_setup)


def test_optimizers_that_keep_nothing_take_the_record_defaults(small_setup):
    # The uncompressed oracles keep no residuals; lsvrg and ec_gd keep nothing
    # that a step maintains incrementally, so certify has nothing to check.
    for algo in ("lsvrg", "quartz", "sdca"):
        opt, _ = harness.build_optimizer(base_config(algo=algo), small_setup)
        opt.step()
        assert opt.error_norm() == 0.0
    for algo in ("lsvrg", "ec_gd"):
        opt, _ = harness.build_optimizer(base_config(algo=algo), small_setup)
        opt.step()
        assert opt.certify() is None


class TestSource:
    def test_no_module_reads_or_sets_the_environment(self):
        # A run's inputs are its flags and RunConfig; an environment variable would be a hidden one.
        hidden = {"environ", "getenv", "putenv"}
        found = []
        for path in sorted(Path(ecvr.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in hidden:
                    if isinstance(node.value, ast.Name) and node.value.id == "os":
                        found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = [alias.name for alias in node.names if alias.name in hidden]
                    found += [f"{path.name}:{node.lineno}: from os import {n}" for n in names]
        assert found == []

    def test_no_algorithm_run_imports_scipy_linalg(self):
        # Importing scipy.linalg raised peak_rss_mb by 6.8 MB (ROADMAP, Settled).
        # A fresh interpreter sees every import that a run makes.
        script = (
            "import sys\n"
            "from ecvr import cli, harness\n"
            "for algo in harness.ALGOS:\n"
            "    cli.main(['run', '--synth', '60,12,0.4', '--algo', algo, '--epochs', '0.2'])\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy.linalg')))\n"
        )
        src = str(Path(ecvr.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert [line.split()[1] for line in out[:-1]] == [f"algo={a}" for a in harness.ALGOS]
        assert out[-1] == "[]"

    def test_every_module_function_has_a_caller_in_the_package(self):
        # Code that no CLI path, harness path or acceptance criterion runs is
        # deleted; tests alone are not a caller.
        allowed = {
            "grid_search_eta": "acceptance criterion 05 tunes the step with it",
        }
        uncalled = uncalled_functions(sorted(Path(ecvr.__file__).parent.glob("*.py")))
        unused = sorted(set(uncalled) - set(allowed))
        assert unused == [], f"module functions with no caller in the package: {unused}"
        assert set(allowed) <= set(uncalled)  # an entry that gains a caller leaves the list

    def test_caller_guard_counts_no_self_reference_and_no_method(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def called():\n    return 1\n\n"
            "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n"
            "def dead():\n    return called()\n\n"
            "class Box:\n    def method(self):\n        return 0\n",
            encoding="utf-8",
        )
        (tmp_path / "b.py").write_text("import a\n\nVALUE = a.called()\n", encoding="utf-8")
        assert uncalled_functions(sorted(tmp_path.glob("*.py"))) == ["dead", "recursive"]

    def test_every_method_has_a_caller_in_the_package(self):
        allowed = {
            "PrimalProblem.grad_fi": "acceptance criterion 10 checks the batched node gradients against it",
        }
        uncalled = uncalled_methods(sorted(Path(ecvr.__file__).parent.glob("*.py")))
        unused = sorted(set(uncalled) - set(allowed))
        assert unused == [], f"methods with no caller in the package: {unused}"
        assert set(allowed) <= set(uncalled)  # an entry that gains a caller leaves the list

    def test_method_guard_counts_no_self_reference_and_no_dunder(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "class Box:\n"
            "    def __init__(self):\n        self.value = 0\n\n"
            "    def called(self):\n        return self.value\n\n"
            "    def recursive(self, k):\n        return self.recursive(k - 1) if k else 0\n\n"
            "    def dead(self):\n        return self.called()\n\n"
            "def function():\n    return 1\n",
            encoding="utf-8",
        )
        (tmp_path / "b.py").write_text("import a\n\nVALUE = a.Box().called()\n", encoding="utf-8")
        assert uncalled_methods(sorted(tmp_path.glob("*.py"))) == ["Box.dead", "Box.recursive"]


def uncalled_functions(paths) -> list[str]:
    """Module-level functions of ``paths`` that no name or attribute outside their own body references."""
    defined, used = set(), set()
    for path in paths:
        for top in ast.parse(Path(path).read_text(encoding="utf-8")).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own:
                defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return sorted(defined - used)


def uncalled_methods(paths) -> list[str]:
    """Methods, as ``Class.method``, of the top-level classes of ``paths`` whose
    name no name or attribute outside their own body references; dunders are
    called by Python itself."""
    defined, used = set(), set()
    for path in paths:
        for top in ast.parse(Path(path).read_text(encoding="utf-8")).body:
            items = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in items:
                own = item.name if isinstance(item, ast.FunctionDef) and top is not item else None
                if own and not (own.startswith("__") and own.endswith("__")):
                    defined.add((top.name, own))
                for node in ast.walk(item):
                    if isinstance(node, ast.Name) and node.id != own:
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute) and node.attr != own:
                        used.add(node.attr)
    return sorted(f"{cls}.{name}" for cls, name in defined if name not in used)
