"""Spans around the program's layer entry points, recorded from outside it.

``Tracer.install`` replaces each entry point named in ``HOOKS`` with a
wrapper that appends a span ``[name, start, end, parent, info]`` to an
in-memory list; ``uninstall`` puts the originals back. Nothing under
``src/`` knows about it. ``layer_metrics`` turns the spans of one traced
run into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (span name, module, attribute path). The span name's prefix before the
# first dot is the layer that owns the time.
HOOKS = (
    ("harness.run_experiment", "ecvr.harness", "run_experiment"),
    ("dataset.load", "ecvr.harness", "load_dataset"),
    # harness calls compute_constants through its own module global, so this
    # hook also catches the second call made inside solve_reference.
    ("problem.constants", "ecvr.harness", "compute_constants"),
    ("harness.reference", "ecvr.harness", "solve_reference"),
    ("harness.build_optimizer", "ecvr.harness", "build_optimizer"),
    ("harness.emit", "ecvr.harness", "emit_csv"),
    ("harness.emit", "ecvr.harness", "emit_json"),
    ("problem.design", "ecvr.problem", "PrimalProblem.__post_init__"),
    ("problem.design", "ecvr.problem", "DualProblem.__post_init__"),
    ("problem.grad_f_node", "ecvr.problem", "PrimalProblem.grad_f_node"),
    ("problem.margins", "ecvr.problem", "_Design.margins"),
    ("problem.prox", "ecvr.problem", "PrimalProblem.prox_psi"),
    ("problem.primal_value", "ecvr.problem", "PrimalProblem.primal_value"),
    ("problem.primal_value", "ecvr.problem", "DualProblem.primal_value"),
    ("problem.dual_aggregate", "ecvr.problem", "DualProblem.dual_aggregate"),
    ("problem.gstar_grad", "ecvr.problem", "DualProblem.gstar_grad"),
    ("problem.duality_gap", "ecvr.problem", "DualProblem.duality_gap"),
    ("algorithms.step", "ecvr.algorithms", "EcLsvrg.step"),
    ("algorithms.step", "ecvr.algorithms", "Lsvrg.step"),
    ("algorithms.step", "ecvr.algorithms", "EcGd.step"),
    ("algorithms.step", "ecvr.algorithms", "EcDual.step"),
    ("algorithms.step", "ecvr.algorithms", "VanillaDual.step"),
    ("compressors.apply", "ecvr.compressors", "_apply"),
)

LAYERS = ("dataset", "problem", "compressors", "algorithms", "harness")

NAME, START, END, PARENT, INFO = range(5)


def _design_info(args, out) -> dict:
    design = args[0]._design
    arrays = [design.A.data, design.A.indices, design.A.indptr, design.b]
    if design.A_dense is not None:
        arrays.append(design.A_dense)
    return {"dense": design.A_dense is not None, "bytes": sum(a.nbytes for a in arrays)}


# Facts a span keeps about its call, read from the arguments and the result.
_INFO = {
    "problem.design": _design_info,
    "problem.margins": lambda args, out: {"rows": len(out)},
    "harness.build_optimizer": lambda args, out: {"bits_per_step": out[0].bits_per_step},
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Owns the span list of one traced run and the hooks that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook target; return the ones that no longer exist."""
        missing = []
        for name, module, path in hooks:
            try:
                owner, leaf, original = _resolve(module, path)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path}")
                continue
            setattr(owner, leaf, self._wrap(name, original))
            self._undo.append((owner, leaf, original))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if info is not None:
                span[INFO] = info(args, out)
            return out

        return traced


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.array([s[END] - s[START] for s in spans])
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return own


def outermost(spans) -> np.ndarray:
    """True for spans with no ancestor of the same name."""
    flags = np.ones(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                flags[i] = False
                break
            p = spans[p][PARENT]
    return flags


def _tail(samples_us: np.ndarray) -> tuple[float, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(samples_us) * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples_us, pct))
    return 50.0, float(np.percentile(samples_us, 50.0))


def layer_metrics(spans, n: int, m: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as ``name -> (value, unit)``.

    ``n`` and ``m`` are the run's node count and examples per node.
    """
    names = np.array([s[NAME] for s in spans])
    dur_ms = np.array([(s[END] - s[START]) * 1e3 for s in spans])
    own_ms = self_times(spans) * 1e3
    parent_names = np.array([spans[s[PARENT]][NAME] if s[PARENT] >= 0 else "" for s in spans])

    def pick(name):
        return names == name

    def total(mask) -> float:
        return float(dur_ms[mask].sum())

    def count(mask) -> float:
        return float(mask.sum())

    out: dict[str, tuple[float, str]] = {}
    out["dataset.load_ms"] = (total(pick("dataset.load")), "ms")

    designs = [s[INFO] for s in spans if s[NAME] == "problem.design"]
    out["problem.design_ms"] = (total(pick("problem.design")), "ms")
    out["problem.design_builds"] = (float(len(designs)), "count")
    out["problem.dense_path"] = (float(bool(designs) and all(d["dense"] for d in designs)), "bool")
    out["problem.design_mb"] = (sum(d["bytes"] for d in designs) / 1e6, "MB")
    out["problem.constants_ms"] = (total(pick("problem.constants")), "ms")
    out["problem.constants_calls"] = (count(pick("problem.constants")), "count")

    reference = pick("harness.reference")
    nested_constants = pick("problem.constants") & (parent_names == "harness.reference")
    out["harness.reference_self_ms"] = (total(reference) - total(nested_constants), "ms")
    out["harness.build_optimizer_ms"] = (total(pick("harness.build_optimizer")), "ms")

    step = pick("algorithms.step")
    step_us = dur_ms[step] * 1e3
    out["algorithms.step_ms"] = (total(step), "ms")
    out["algorithms.step_self_ms"] = (float(own_ms[step].sum()), "ms")
    out["algorithms.step_count"] = (count(step), "count")
    if step_us.size:
        pct, tail = _tail(step_us)
        out["algorithms.step_p50_us"] = (float(np.median(step_us)), "us")
        out["algorithms.step_tail_us"] = (tail, "us")
        out["algorithms.step_tail_pct"] = (pct, "%")
    else:
        out["algorithms.step_p50_us"] = out["algorithms.step_tail_us"] = (0.0, "us")
        out["algorithms.step_tail_pct"] = (0.0, "%")

    node_grads = pick("problem.grad_f_node")
    calls = count(node_grads)
    out["algorithms.refreshes"] = ((calls - n) / n if calls else 0.0, "count")

    compress = pick("compressors.apply") & outermost(spans)
    calls_c = count(compress)
    out["compressors.calls"] = (calls_c, "count")
    out["compressors.ms"] = (total(compress), "ms")
    out["compressors.us_per_call"] = (total(compress) * 1e3 / calls_c if calls_c else 0.0, "us")
    bits = [s[INFO]["bits_per_step"] for s in spans if s[NAME] == "harness.build_optimizer"]
    out["compressors.bits_per_step"] = (float(bits[0]) if bits else 0.0, "bits")

    out["problem.grad_f_node_ms"] = (total(node_grads), "ms")
    out["problem.grad_f_node_calls"] = (calls, "count")
    rows = sum(
        s[INFO]["rows"]
        for s, parent in zip(spans, parent_names)
        if s[NAME] == "problem.margins" and parent == "problem.grad_f_node"
    )
    out["problem.margin_rows_useful_frac"] = (calls * m / rows if rows else 0.0, "ratio")

    out["problem.dual_aggregate_ms"] = (total(pick("problem.dual_aggregate")), "ms")
    out["problem.dual_aggregate_calls"] = (count(pick("problem.dual_aggregate")), "count")
    out["problem.prox_ms"] = (total(pick("problem.prox")), "ms")
    out["problem.gstar_grad_ms"] = (total(pick("problem.gstar_grad")), "ms")

    evaluations = (pick("problem.primal_value") | pick("problem.duality_gap")) & (
        parent_names == "harness.run_experiment"
    )
    out["harness.record_ms"] = (total(evaluations), "ms")
    out["harness.trace_write_ms"] = (total(pick("harness.emit")), "ms")
    out["harness.self_ms"] = (float(own_ms[pick("harness.run_experiment")].sum()), "ms")

    layer_of = np.array([name.split(".", 1)[0] for name in names])
    for layer in LAYERS:
        out[f"layer.{layer}_self_ms"] = (float(own_ms[layer_of == layer].sum()), "ms")
    return out
