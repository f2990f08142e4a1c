"""ecvr benchmark: seeded LIBSVM workloads, end-to-end metrics and a traced layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/ecvr``. The benchmark writes
the workload's LIBSVM file from ``--seed`` with its own generator, checks that
the program parses it back exactly and takes the intended design path, then
calls ``ecvr.harness.run_experiment`` once per repeat, each in a fresh
interpreter, one at a time: one warm-up run, then repeats until ``--seconds``
have passed. With ``--trace 0`` the repeats are untraced and it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repeats and reports the per-layer metrics. Every run is checked (see
``check_run``) and its deterministic trace columns must agree across all
repeats. Work files go to ``.perfbench/`` in the checkout. The last line of
stdout is one JSON object; the exit code is non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

# ecvr, and workloads that imports it, are imported inside functions: main()
# first checks that src/ exists, so that without it the benchmark fails
# without printing a result.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

MIN_UNTRACED = 3  # timed untraced repeats, however short --seconds is
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120
DEADLINE_S = 140  # start no repeat after this, so a run ends well within 180 s
DETERMINISTIC = ("k", "epoch", "bits", "primal_gap", "dual_gap", "err_norm")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GAP_FLOOR = -1e-9  # the reference is solved to 1e-12; a primal gap below this is wrong

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "time_to_gap_s": "s",
    "bits_to_gap": "bits",
    "peak_rss_mb": "MB",
}
# Per-layer metrics that come from comparing runs rather than from one run's spans.
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.hooks_missing": "count",
}


class BenchError(RuntimeError):
    """The program's output failed one of the benchmark's checks."""


def child_env() -> dict:
    """The child environment: ``src`` importable and BLAS on one thread.

    On a shared two-core x86 machine, two BLAS threads made repeats of one run
    spread from 4.0 s to 5.6 s, against 5.1 s to 5.5 s with one thread, and
    the program's hot loops are single-threaded Python either way.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def prepare_inputs(w, seed: int):
    """Write the workload's LIBSVM file and check how the program reads it."""
    from ecvr.dataset import parse_libsvm, partition
    from ecvr.problem import PrimalProblem
    from workloads import generate, write_libsvm

    features, labels = generate(w, seed)
    path = WORK / f"{w.name}-seed{seed}.svm"
    write_libsvm(features, labels, path)
    parsed = parse_libsvm(str(path))
    got = parsed.features.tocsc()
    got.sort_indices()
    same = (
        got.shape == features.shape
        and np.array_equal(got.indptr, features.indptr)
        and np.array_equal(got.indices, features.indices)
        and np.array_equal(got.data, features.data)
        and np.array_equal(parsed.labels, labels)
    )
    if not same:
        raise BenchError(f"{w.name}: parse_libsvm did not read {path.name} back exactly")
    problem = PrimalProblem(parsed, partition(parsed, w.n), lam1=w.lam1, lam2=w.lam2)
    if (problem._design.A_dense is None) != w.sparse_design:
        want = "sparse" if w.sparse_design else "dense"
        raise BenchError(f"{w.name}: the program did not take the {want} design path")
    return path, features, labels


def trace_digest(csv_path: Path) -> str:
    """SHA-256 of the trace CSV restricted to its deterministic columns."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = [rows[0].index(name) for name in DETERMINISTIC]
    text = "\n".join(",".join(row[c] for c in cols) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def run_child(w, seed: int, data: Path, trace: bool, env: dict, index: int) -> dict:
    out_dir = WORK / f"run-{index}"
    out_dir.mkdir()
    argv = [sys.executable, str(HERE / "child.py"), w.name, str(seed), str(data), str(out_dir)]
    argv.append("1" if trace else "0")
    try:
        proc = subprocess.run(
            argv,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{w.name}: run {index} exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{w.name}: run {index} raised: {tail[0]}")
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    result["digest"] = trace_digest(out_dir / "trace.csv")
    return result


def check_run(w, r: dict, features, labels) -> dict:
    """Check one run's trace and return its end-to-end metrics.

    The checks: the step count the configuration implies; bits and epochs
    that grow linearly in k; primal gaps no lower than the reference allows;
    a duality gap that bounds the primal gap (weak duality); an optimum away
    from x = 0; and a gap target first reached strictly between the first
    and the last record. The target is ``gap_rel`` times the watched gap at
    the start point x = 0 (and alpha = 0), which is P(0) - P* for primal
    methods and P(0) - D(0) = log 2 for dual ones.
    """
    from workloads import LOG2, primal_objective

    records = r["records"]
    if not records:
        raise BenchError(f"{w.name}: the run recorded no trace")
    kept = (w.N // w.n) * w.n
    expected_steps = math.ceil(w.epochs * kept / w.n - 1e-12)
    problems = []
    if r["steps"] != expected_steps or records[-1][0] != r["steps"]:
        problems.append(f"ran {r['steps']} steps, expected {expected_steps}")
    k0, bits0 = records[0][0], records[0][2]
    for k, epoch, bits, primal_gap, dual_gap, _ in records:
        if not math.isclose(bits, k * bits0 / k0, rel_tol=1e-12):
            problems.append(f"bits {bits} at step {k} are not linear in k")
        if not math.isclose(epoch, k * w.n / kept, rel_tol=1e-12):
            problems.append(f"epoch {epoch} at step {k} does not match k*n/N")
        if primal_gap < GAP_FLOOR:
            problems.append(f"primal gap {primal_gap} at step {k} is below the reference")
        if not w.primal and (dual_gap is None or dual_gap < primal_gap + GAP_FLOOR):
            problems.append(f"duality gap {dual_gap} at step {k} is below the primal gap")
    p_star = primal_objective(w, features, labels, r["x"]) - records[-1][3]
    if LOG2 - p_star <= 1e-9:
        problems.append(f"the optimum is x* = 0 (P* = {p_star})")
    target = w.gap_rel * (LOG2 - p_star if w.primal else LOG2)
    watched = [rec[3] if w.primal else rec[4] for rec in records]
    hit = next((i for i, gap in enumerate(watched) if gap <= target), None)
    if hit is None or not 0 < hit < len(records) - 1:
        problems.append(f"gap target {target:.3e} first reached at record {hit} of {len(records)}")
    if problems:
        raise BenchError(f"{w.name}: " + "; ".join(problems[:3]))

    loop_s = records[-1][5] / 1e3
    setup_s = r["wall_s"] - loop_s
    return {
        "wall_s": r["wall_s"],
        "setup_s": setup_s,
        "steps_per_s": r["steps"] / loop_s,
        "time_to_gap_s": setup_s + records[hit][5] / 1e3,
        "bits_to_gap": records[hit][2],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    metrics = {}
    for name, values in samples.items():
        median = statistics.median(values)
        metrics[name] = {"value": median, "unit": units[name]}
        print(
            f"  {name:34s} {median:14.6g} {units[name]:6s} "
            f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecvr" / "harness.py").is_file():
        print(f"perfbench: no ecvr sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    env = child_env()
    print(
        f"env: nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
        f"python={sys.version.split()[0]} "
        f"numpy={np.__version__} scipy={scipy.__version__}"
    )
    print(f"workload {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    attempted = 0
    failures: list[str] = []
    untraced: list[tuple[dict, dict]] = []  # (child result, end-to-end metrics)
    traced: list[dict] = []
    try:
        data, features, labels = prepare_inputs(w, args.seed)
    except BenchError as err:
        attempted, failures = 1, [str(err)]
    digest = None

    def attempt(trace: bool) -> None:
        nonlocal attempted, digest
        attempted += 1
        try:
            r = run_child(w, args.seed, data, trace, env, attempted)
            e2e = check_run(w, r, features, labels)
            if digest is None:
                digest = r["digest"]
            elif r["digest"] != digest:
                raise BenchError(
                    f"{w.name}: deterministic trace columns differ between repeats "
                    f"({r['digest'][:12]} against {digest[:12]})"
                )
        except BenchError as err:
            failures.append(str(err))
            return
        if trace:
            traced.append(r)
        else:
            untraced.append((r, e2e))

    if not failures:
        attempt(False)  # warm-up: checked, not timed
        untraced.clear()
        timed_from = time.perf_counter()
        while not failures and time.perf_counter() - began < DEADLINE_S:
            enough = len(traced) >= MIN_TRACED if args.trace else len(untraced) >= MIN_UNTRACED
            if enough and time.perf_counter() - timed_from >= args.seconds:
                break
            attempt(False)
            if args.trace and not failures:
                attempt(True)

    for message in failures:
        print(f"FAIL {message}")
    ok = not failures and bool(traced if args.trace else untraced)
    metrics = {}
    if ok:
        print(f"trace digest {w.name} seed={args.seed}: {digest}")
        known = recorded_digest(w.name, args.seed)
        if known is not None and known != digest:
            print(
                f"TRACE DIGEST MISMATCH {w.name} seed={args.seed}: recorded {known}; "
                "the deterministic columns changed (an RNG stream change must be declared)"
            )
        if args.trace:
            metrics = traced_metrics(traced, untraced)
        else:
            samples = {name: [e2e[name] for _, e2e in untraced] for name in END_TO_END_UNITS}
            metrics = summarize(samples, END_TO_END_UNITS)
    print(f"  runs_attempted={attempted} runs_failed={len(failures)}")
    print(
        json.dumps(
            {"correct": ok, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0 if ok else 1


def traced_metrics(traced: list[dict], untraced: list[tuple[dict, dict]]) -> dict:
    """Medians of the per-layer metrics over the traced repeats."""
    units = {name: unit for name, (_, unit) in traced[0]["layers"].items()}
    samples = {name: [r["layers"][name][0] for r in traced] for name in units}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r, _ in untraced)
    samples["trace.wall_s"] = [r["wall_s"] for r in traced]
    samples["trace.unattributed_ms"] = [
        r["wall_s"] * 1e3 - sum(v for k, (v, _) in r["layers"].items() if k.startswith("layer."))
        for r in traced
    ]
    samples["trace.overhead_frac"] = [traced_wall / untraced_wall - 1.0]
    samples["trace.hooks_missing"] = [float(len(traced[0]["missing"]))]
    units.update(TRACE_UNITS)
    for hook in traced[0]["missing"]:
        print(f"  hook missing: {hook}")
    return summarize(samples, units)


if __name__ == "__main__":
    sys.exit(main())
