import csv
import json
import math
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from scipy import sparse

from ecvr import cli
from ecvr import harness
from ecvr import problem as problem_module
from ecvr.algorithms import NumericalError
from ecvr.dataset import Dataset, partition
from ecvr.problem import COMPOSITE, PrimalProblem, compute_constants


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
        x_star, p_star = harness.solve_reference(problem, compute_constants(problem), tol=1e-12)
        assert x_star[0] == pytest.approx(x, abs=1e-8)
        assert p_star == pytest.approx(problem.primal_value(np.array([x])), abs=1e-14)

    def test_local_optimality_probe(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=21, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        x_star, p_star = harness.solve_reference(problem, compute_constants(problem), tol=1e-10)
        rng = rng_for("probe")
        for _ in range(1000):
            u = rng.standard_normal(problem.d)
            u *= 1e-4 / np.linalg.norm(u)
            assert problem.primal_value(x_star + u) >= p_star - 1e-15

    def test_reference_value_is_global_floor(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=24, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        _, p_star = harness.solve_reference(problem, compute_constants(problem), tol=1e-10)
        rng = rng_for("floor")
        for _ in range(100):
            x = rng.standard_normal(problem.d) * rng.uniform(0.1, 10.0)
            assert problem.primal_value(x) >= p_star

    def test_optimum_independent_of_start(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=22, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        c = compute_constants(problem)
        rng = rng_for("start")
        _, p_a = harness.solve_reference(problem, c, tol=1e-11, x0=rng.standard_normal(10))
        _, p_b = harness.solve_reference(problem, c, tol=1e-11, x0=rng.standard_normal(10))
        assert p_a == pytest.approx(p_b, abs=1e-9)

    def test_budget_exhaustion_reports_residual(self):
        ds = harness.synth_dataset(60, 10, 0.5, seed=23)
        problem = PrimalProblem(ds, partition(ds, 3), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        with pytest.raises(harness.ConvergenceError) as err:
            harness.solve_reference(problem, compute_constants(problem), tol=1e-14, max_iter=3)
        assert err.value.residual > 0


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
        rep = harness.eso_check(ds, n=3, trials=2_000, rng=rng_for("eso6"))
        assert rep.rhs > 0


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
        assert np.allclose(ds.column_norms(), 0.3)

    def test_planted_model_is_learnable(self):
        ds = harness.synth_dataset(200, 20, 0.4, seed=12, scale=1.0)
        problem = PrimalProblem(ds, partition(ds, 4), lam1=1e-3, lam2=1e-3, mode=COMPOSITE)
        _, p_star = harness.solve_reference(problem, compute_constants(problem), tol=1e-9)
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


class TestRunExperiment:
    def test_zero_epoch_budget_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        res = harness.run_experiment(base_config(epochs=0, out_csv=str(out)))
        assert res.records == []
        assert out.read_text().strip() == ",".join(harness.TRACE_COLUMNS)

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
        meta = json.loads(out_json.read_text())
        assert [harness.TrialRecord(**rec) for rec in meta["records"]] == res.records
        assert meta["config"]["algo"] == "ec_lsvrg"

    def test_json_reports_design_path_and_partition(self, tmp_path, monkeypatch):
        def manifest(name):
            out = tmp_path / name
            harness.run_experiment(base_config(synth=(82, 16, 0.4), epochs=1, out_json=str(out)))
            return json.loads(out.read_text())

        dense = manifest("dense.json")
        assert dense["design"] == "dense"
        assert dense["partition"] == {"n": 4, "m": 20, "dropped": 2}
        monkeypatch.setattr(problem_module, "_DENSE_LIMIT", 0)
        assert manifest("sparse.json")["design"] == "sparse"

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
        [setup] = setups
        assert (setup.dual is None) == (algo == "ec_lsvrg")
        assert setup.dual is None or setup.dual._design is setup.primal._design

    def test_bits_column_is_analytic_and_monotone(self):
        from ecvr import compressors as comp

        res = harness.run_experiment(base_config(epochs=4))
        d = 16
        per_step = 4 * (comp.bit_cost(comp.top_k(1), d) * 2 + 1)
        for rec in res.records:
            assert rec.bits == per_step * rec.k
        bits = [rec.bits for rec in res.records]
        assert bits == sorted(bits)

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

    def test_gap_target_stops_early_and_reports_bits(self):
        res = harness.run_experiment(
            base_config(epochs=400, eta=1.0, gap_target=1e-4, cadence=20)
        )
        assert res.bits_to_target is not None
        assert res.records[-1].primal_gap <= 1e-4

    def test_ecgd_counts_full_passes(self):
        res = harness.run_experiment(base_config(algo="ec_gd", epochs=3, eta=0.5))
        assert res.records[-1].epoch == pytest.approx(3.0)
        assert res.records[-1].k == 3

    def test_theory_eta_resolves(self):
        res = harness.run_experiment(base_config(eta="theory", epochs=1))
        assert res.eta is not None and res.eta > 0

    def test_theory_eta_uses_smooth_regime_in_smooth_mode(self):
        composite = harness.run_experiment(base_config(eta="theory", epochs=1))
        smoothed = harness.run_experiment(
            base_config(eta="theory", epochs=1, mode="smooth", lambda1=0.0)
        )
        assert smoothed.eta != composite.eta and smoothed.eta > 0

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
        for a, b in zip(dense.records, sparse_run.records):
            assert (a.k, a.bits) == (b.k, b.bits)
            for column in ("primal_gap", "dual_gap", "err_norm"):
                x, y = getattr(a, column), getattr(b, column)
                assert (x is None and y is None) or x == pytest.approx(y, rel=1e-12, abs=0.0)


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

    def test_env_seed_overrides(self, tmp_path, monkeypatch, capsys):
        def trace_for(seed_env):
            if seed_env is None:
                monkeypatch.delenv("ECVR_SEED", raising=False)
            else:
                monkeypatch.setenv("ECVR_SEED", seed_env)
            out = tmp_path / f"s{seed_env}.csv"
            cli.main(
                [
                    "run", "--synth", "60,12,0.4", "--algo", "ec_lsvrg",
                    "--compressor", "rand_k:2", "--eta", "0.3",
                    "--epochs", "2", "--seed", "7", "--out", str(out),
                ]
            )
            capsys.readouterr()
            return strip_wall(out.read_text())

        assert trace_for("7") == trace_for(None)  # env seed equals cli seed
        assert trace_for("8") != trace_for(None)

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

    def test_verify_compressors_exit_code(self, monkeypatch, capsys):
        # Every line is pinned: a change to any sparsifier's selection or to a
        # compressor's RNG stream shows up here, not only as a failed check.
        monkeypatch.delenv("ECVR_SEED", raising=False)
        code = cli.main(["verify", "compressors"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == VERIFY_COMPRESSORS_LINES

    def test_verify_eso(self, capsys):
        code = cli.main(["verify", "eso", "--trials", "2000", "--instances", "5"])
        assert code == 0

    def test_verify_invariants(self, capsys):
        code = cli.main(["verify", "invariants"])
        assert code == 0

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
            ("ECVR_SEED", "abc"),
        ],
    )
    def test_bad_value_names_the_argument(self, capsys, monkeypatch, flag, value):
        monkeypatch.delenv("ECVR_SEED", raising=False)
        named = f"argument {flag}"
        if flag == "ECVR_SEED":
            monkeypatch.setenv(flag, value)
            argv, named = ["run", "--epochs", "0"], f"environment variable {flag}"
        elif flag == "--tol":
            argv = ["reference", flag, value]
        else:
            argv = ["run", flag, value, "--epochs", "0"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert f"{named}: expects" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "what, flag, value",
        [("compressors", "--trials", "0"), ("compressors", "--d", "0"), ("eso", "--instances", "-1")],
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
            (["run", "--data", "{missing}"], "--data"),
            (["run", "--data", "{malformed}"], "--data"),
            (["reference", "--data", "{malformed}"], "--data"),
            (["run", "--out", "{missing_dir}/trace.csv"], "--out"),
            (["run", "--compressor-q1", "rand_k_unbiased:2", "--eta", "0.1"], "--compressor-q1"),
        ],
    )
    def test_value_that_does_not_fit_the_data_names_the_argument(
        self, tmp_path, capsys, argv, flag
    ):
        # The default data is 200 examples of dimension 50 on 4 nodes.
        (tmp_path / "bad.libsvm").write_text("+1 1:0.5\nyes 2:1\n")
        paths = {
            "missing": tmp_path / "absent.libsvm",
            "malformed": tmp_path / "bad.libsvm",
            "missing_dir": tmp_path / "absent",
        }
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] == "run":
            argv += ["--epochs", "0"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in err
        assert "Traceback" not in err

    def test_reference_command(self, capsys):
        code = cli.main(["reference", "--synth", "60,12,0.4", "--tol", "1e-8"])
        assert code == 0
        assert "P* =" in capsys.readouterr().out
