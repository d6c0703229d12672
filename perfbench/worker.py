"""One timed pass of a workload, in the fresh interpreter it runs in.

Reads a JSON request from stdin::

    {"workload": ..., "items": [[...], ...], "trace": bool, "spans_path": str | null}

runs the items one at a time (a closed loop with one client), checks
every output once the pass is over, and prints one JSON object: the
pass's wall time, each item's latency (raw and, untraced, normalized to
the host speed sampled meanwhile, see hostspeed.py), peak RSS, the
failed items and, when traced, the per-layer metrics.  Run it as ``python -m
perfbench.worker`` from the repository root with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from perfbench import workloads
from perfbench.hostspeed import SpeedSampler

DIGESTS = Path(__file__).with_name("digests.json")


def run_pass(workload: str, items, trace: bool = False, spans_path=None,
             expected: dict[str, str] | None = None) -> dict:
    import cyclic_pairs as cp

    inst = None
    if trace:
        from perfbench.instrument import Instrument
        from perfbench.tracer import Tracer
        inst = Instrument(Tracer())
        inst.install()
    outputs, errors, spans = [], {}, []
    clock = time.perf_counter
    # the sampler's slices would land in the spans, so traced passes go without
    sampler = contextlib.nullcontext() if trace else SpeedSampler()
    try:
        with sampler:
            start = clock()
            for i, item in enumerate(items):
                if inst is not None:
                    inst.tracer.request = i
                    inst.tracer.enter("bench.item")
                t0 = clock()
                try:
                    outputs.append(workloads.run_item(cp, workload, item))
                except Exception as exc:  # a failed request counts against error_frac
                    outputs.append(None)
                    errors[i] = f"{type(exc).__name__}: {exc}"
                spans.append((t0, clock()))
                if inst is not None:
                    inst.tracer.exit()
            wall_s = clock() - start
    finally:
        if inst is not None:
            inst.restore()

    expected = {} if expected is None else expected
    for i, (item, out) in enumerate(zip(items, outputs)):
        if i in errors:
            continue
        problems = workloads.check_item(cp, workload, item, out)
        want = expected.get(workloads.item_key(item))
        if want is not None and workloads.digest(workload, out) != want:
            problems.append("output digest differs from digests.json")
        if problems:
            errors[i] = "; ".join(problems)
    result = {
        "wall_s": wall_s,
        "item_s": [t1 - t0 for t0, t1 in spans],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": len(items),
        "errors": {workloads.item_key(items[i]): why for i, why in sorted(errors.items())},
    }
    if not trace:
        norm = [sampler.normalize(t0, t1) for t0, t1 in spans]
        result["item_norm_s"] = norm
        # the loop between items takes microseconds
        result["wall_norm_s"] = sum(norm)
        result["speed_samples"] = {"starts": [t - start for t in sampler.starts],
                                   "slices": sampler.slices,
                                   "items": [(t0 - start, t1 - start) for t0, t1 in spans]}
    if inst is not None:
        result["layers"] = inst.metrics()
        result["layers"]["trace.wall_s"] = wall_s
        if spans_path:
            inst.tracer.dump(spans_path)
    return result


def load_digests(workload: str) -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def main() -> int:
    req = json.load(sys.stdin)
    items = [tuple(item) for item in req["items"]]
    result = run_pass(req["workload"], items, req.get("trace", False),
                      req.get("spans_path"), load_digests(req["workload"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
