"""Run one ecvr experiment in a fresh interpreter and write its outcome as JSON.

    python3 perfbench/child.py WORKLOAD SEED DATA OUT_DIR TRACE

``run.py`` starts this once per repeat with ``PYTHONPATH`` pointing at the
checkout's ``src``. It times ``run_experiment`` from the call to its return
and writes ``OUT_DIR/result.json``; with ``TRACE`` = 1 it also hooks every
layer entry point, writes the raw spans to ``OUT_DIR/spans.json`` and adds
the per-layer metrics. The program writes its trace to ``OUT_DIR/trace.csv``
and ``OUT_DIR/trace.json``. Any exception propagates, so a failed run exits
non-zero with its traceback on stderr.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from ecvr import harness
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def main(argv: list[str]) -> None:
    name, seed, data, out_dir, trace = argv
    w = WORKLOADS[name]
    out = Path(out_dir)
    config = w.run_config(data, int(seed), str(out / "trace.csv"), str(out / "trace.json"))
    tracer = Tracer() if trace == "1" else None
    missing = tracer.install() if tracer else []
    try:
        started = time.perf_counter()
        result = harness.run_experiment(config)
        wall_s = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()
    payload = {
        "wall_s": wall_s,
        "steps": result.steps,
        "x": result.x.tolist(),
        "records": [
            [r.k, r.epoch, r.bits, r.primal_gap, r.dual_gap, r.wall_ms] for r in result.records
        ],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        (out / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        m = w.N // w.n
        payload["layers"] = layer_metrics(tracer.spans, w.n, m)
        payload["missing"] = missing
    (out / "result.json").write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
