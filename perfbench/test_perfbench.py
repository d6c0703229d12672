"""Tests of the benchmark itself, on tiny inputs run in-process."""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

import cyclic_pairs as cp
from perfbench import hostspeed, run, worker, workloads
from perfbench.instrument import LAYERS, METHODS, per_layer_spec
from perfbench.tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "factor-sweep": [(7, 2), (6, 3), (5, 4)],
    "pair-search": [(7, 0), (7, 3)],
    "mds-sweep": [(7, 6, 2, 3, 1), (8, 7, 3, 3, 2)],
}


def test_self_time_on_synthetic_span_tree():
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    t = Tracer(clock=lambda: next(ticks))
    t.enter("A")          # 0
    t.enter("B")          # 1
    t.exit()              # 3: B under A, 2 s
    t.enter("C")          # 4
    t.enter("B")          # 5
    t.exit()              # 6: B under C, 1 s
    t.exit()              # 8: C, 4 s of which 1 s is B
    t.exit()              # 10: A, 10 s of which 6 s are B and C
    assert t.agg == {("B", "A"): [1, 2, 2], ("B", "C"): [1, 1, 1],
                     ("C", "A"): [1, 4, 3], ("A", None): [1, 10, 4]}
    assert t.calls("B") == 2
    assert t.self_s("B") == 3
    assert t.self_s_sum() == 10
    assert [s[0] for s in t.spans] == ["B", "C", "A"]  # depth < 2 kept one by one


def test_generator_spans_cover_each_resumption():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: next(ticks))

    def gen():
        yield 1
        yield 2

    assert list(t.wrap(gen, "g")()) == [1, 2]
    assert t.calls("g") == 3 and t.counters["g.yielded"] == 2


def test_normalize_removes_sampling_time_and_rescales():
    s = hostspeed.SpeedSampler()
    nominal = hostspeed.REF_SLICE_S
    # the host runs at half speed: every slice takes twice its nominal time
    s.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    s.slices = [2 * nominal] * 5
    # [0.5, 3.5] holds three samples; the slow host doubles the rest
    assert s.normalize(0.5, 3.5) == pytest.approx((3.0 - 6 * nominal) / 2)
    # an interval far from every sample uses the nearest one
    assert s.normalize(6.0, 7.0) == pytest.approx(0.5)


def test_sampler_restores_the_signal_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler() as s:
        sum(range(10 ** 6))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(s.slices) >= 2


def _patchable():
    """Every attribute the instrument may rebind, with its current value."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "cyclic_pairs" or name.startswith("cyclic_pairs."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for layer, cls_name, meth, _ in METHODS:
        cls = getattr(importlib.import_module(f"cyclic_pairs.{layer}"), cls_name)
        snap[(cls_name, meth)] = cls.__dict__[meth]
    return snap


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_restores_originals_and_reports_layers(workload, tmp_path):
    before = _patchable()
    res = worker.run_pass(workload, TINY[workload], trace=True,
                          spans_path=tmp_path / "spans.json")
    after = _patchable()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert res["errors"] == {}
    layers = res["layers"]
    assert layers["trace.self_s_sum"] <= layers["trace.wall_s"]
    assert set(per_layer_spec()) - set(layers) == {"error_frac", "trace_overhead_frac"}
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {s["name"] for s in spans["spans"]} >= {"bench.item"}
    wrapped = {a["name"].split(".")[0] for a in spans["aggregates"]}
    assert wrapped - {"bench"} <= set(LAYERS)


def _fake_pass(workload, items, trace, deadline, spans_path=None):
    return worker.run_pass(workload, TINY[workload], trace, spans_path,
                           worker.load_digests(workload))


def _run_main(monkeypatch, capsys, tmp_path, workload, trace):
    monkeypatch.setattr(run, "run_pass", _fake_pass)
    monkeypatch.setattr(run, "measure_setup", lambda deadline: [(0.3, 0.25)])
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert set(json.loads(lines[-2])["environment"]) == {
        "commit", "src_sha256", "src_lines", "python", "numpy", "nproc", "seed"}
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema_matches_benchmark_json(monkeypatch, capsys, tmp_path, trace):
    result = _run_main(monkeypatch, capsys, tmp_path, "mds-sweep", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_output_raises_error_frac(monkeypatch, capsys, tmp_path):
    real = workloads.run_item

    def corrupt(cp_, workload, item):
        out = real(cp_, workload, item)
        rep = dataclasses.replace(out.report, d2=out.report.d2 - 1)
        return dataclasses.replace(out, report=rep)

    monkeypatch.setattr(workloads, "run_item", corrupt)
    result = _run_main(monkeypatch, capsys, tmp_path, "mds-sweep", 1)
    assert result["correct"] is False
    assert result["failed"] == 2 * len(TINY["mds-sweep"])
    assert result["metrics"]["error_frac"]["value"] == 1.0


def test_digest_mismatch_counts_as_failure():
    item = TINY["factor-sweep"][0]
    res = worker.run_pass("factor-sweep", [item], expected={workloads.item_key(item): "0" * 16})
    assert list(res["errors"].values()) == ["output digest differs from digests.json"]


def test_invariant_checks_catch_bad_outputs():
    fac, witnesses = workloads.run_item(cp, "factor-sweep", (6, 3))
    short = dataclasses.replace(fac, factors=fac.factors[1:])
    assert workloads.check_item(cp, "factor-sweep", (6, 3), (short, witnesses))
    res = workloads.run_item(cp, "pair-search", (7, 0))
    res.reports.reverse()
    assert workloads.check_item(cp, "pair-search", (7, 0), res)


def test_digests_cover_every_item():
    digests = json.loads(worker.DIGESTS.read_text())
    for workload in workloads.WORKLOADS:
        keys = {workloads.item_key(i) for i in workloads.population(workload)}
        assert set(digests[workload]) == keys


def test_draw_is_a_seeded_permutation():
    a, b = workloads.draw("mds-sweep", 5), workloads.draw("mds-sweep", 5)
    assert a == b and sorted(a) == sorted(workloads.population("mds-sweep"))
    assert len(a) == 278 and len(workloads.population("factor-sweep")) == 384
