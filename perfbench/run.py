#!/usr/bin/env python3
"""Benchmark of cyclic_pairs on three user-facing workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload factor-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times ``setup_s`` (a fresh-interpreter import of
cyclic_pairs, median of several) and then runs timed passes over the
workload, each in a fresh interpreter so every pass pays cold caches as
a CLI call does, for as many passes as fit in ``--seconds`` (at least
one).  It reports the median pass ``wall_s``, per-item latency
percentiles over all passes and the median peak RSS.  Times are
normalized to the host speed sampled on the measuring thread (see
hostspeed.py); the raw times go to the record under ``.bench_out/``.

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of the traced one, the tracing overhead, and
writes the spans under ``.bench_out/``.

Every output is checked (invariants, plus per-item digests from
``digests.json``); the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the environment the numbers came from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.instrument import per_layer_spec  # noqa: E402

SETUP_REPEATS = 5
# a run must end within 180 s; passes that cannot finish by then are not started
DEADLINE_S = 170
# prints the raw import time and the import time at nominal host speed
SETUP_CODE = ("from perfbench import hostspeed as h; f0 = h.speed_factor(); t = h.clock(); "
              "import cyclic_pairs; raw = h.clock() - t; "
              "print(raw, raw * 2 / (f0 + h.speed_factor()))")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(args, stdin: str | None, deadline: float) -> str:
    proc = subprocess.run(args, input=stdin, capture_output=True, text=True, cwd=ROOT,
                          env=_child_env(), timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args[1:3]} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(raw, normalized) import times of fresh interpreters."""
    return [tuple(map(float, _run_child([sys.executable, "-c", SETUP_CODE], None,
                                        deadline).split()))
            for _ in range(SETUP_REPEATS)]


def run_pass(workload: str, items, trace: bool, deadline: float, spans_path=None) -> dict:
    req = json.dumps({"workload": workload, "items": items, "trace": trace,
                      "spans_path": str(spans_path) if spans_path else None})
    out = _run_child([sys.executable, "-m", "perfbench.worker"], req, deadline)
    return json.loads(out.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(workload: str, items, seconds: int, deadline: float):
    """Timed passes; the times reported are normalized to the host speed."""
    setup = measure_setup(deadline)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, items, False, deadline))
        typical = statistics.median(p["wall_s"] for p in passes)
        elapsed = time.monotonic() - start
        if elapsed + typical > seconds or time.monotonic() + 2 * typical > deadline:
            break
    latencies = [s for p in passes for s in p["item_norm_s"]]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "wall_s": _metric(statistics.median(p["wall_norm_s"] for p in passes), "s"),
        "item_p50_s": _metric(statistics.median(latencies), "s"),
        "item_p90_s": _metric(deciles[8], "s"),
        "setup_s": _metric(statistics.median(norm for _, norm in setup), "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return passes, metrics, setup


def traced_run(workload: str, items, seed: int, deadline: float):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    base = run_pass(workload, items, False, deadline)
    traced = run_pass(workload, items, True, deadline, spans_path)
    passes = [base, traced]
    layers = dict(traced["layers"])
    layers["error_frac"] = (sum(len(p["errors"]) for p in passes)
                            / sum(p["attempted"] for p in passes))
    # raw times: the traced pass runs without the speed sampler
    layers["trace_overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1
    spec = per_layer_spec()
    metrics = {name: _metric(layers[name], unit) for name, (unit, _) in spec.items()}
    return passes, metrics, []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cyclic_pairs" / "__init__.py").is_file():
        print(f"error: no cyclic_pairs sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    items = workloads.draw(args.workload, args.seed)
    if args.trace:
        passes, metrics, setup = traced_run(args.workload, items, args.seed, deadline)
    else:
        passes, metrics, setup = untraced_run(args.workload, items, args.seconds, deadline)

    attempted = sum(p["attempted"] for p in passes)
    errors = {k: v for p in passes for k, v in p["errors"].items()}
    failed = sum(len(p["errors"]) for p in passes)
    for key, why in sorted(errors.items())[:10]:
        print(f"FAILED {args.workload} item {key}: {why}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "result": result, "setup_s_raw_and_normalized": setup,
              "items": [workloads.item_key(i) for i in items],
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"environment": env, "workload": args.workload,
                      "passes": len(passes)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
