"""Tests of the benchmark harness itself (not of liestruct):

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import time

import pytest

import ladder
import run
import spans
import worker
from liestruct import GF, QQ, cli, is_nilpotent, is_solvable, load


@pytest.mark.parametrize("field", [QQ, GF(3)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_unit_families(field, n):
    gl = ladder.matrix_unit_algebra(field, n, "gl")
    borel = ladder.matrix_unit_algebra(field, n, "borel")
    strict = ladder.matrix_unit_algebra(field, n, "n")
    assert (gl.dim, borel.dim, strict.dim) == (n * n, n * (n + 1) // 2, n * (n - 1) // 2)
    assert not is_solvable(gl)
    assert is_solvable(borel) and not is_nilpotent(borel)
    assert is_nilpotent(strict)


def test_self_check_passes():
    ladder.self_check()


def test_every_rung_document_loads_with_its_dimension():
    dims = {"ab(3)": 3, "r2": 2, "heis": 3, "ex22": 4, "sl2": 3, "gl2": 4, "aff_sl2": 5,
            "sl2_plus_sl2": 6, "h3_plus_r2": 5, "borel3": 6, "n4": 6, "gl3": 9,
            "sl2+sl2+sl2": 9}
    for rungs in ladder.WORKLOADS.values():
        for rung in rungs:
            for seed, sample in ((0, 0), (3, 0), (3, 1)):
                L = load(ladder.document(rung, seed, sample))
                assert L.dim == dims[rung.name]


def test_seeded_documents_repeat_and_permute():
    rung = ladder.Rung("borel3", "q", "report")
    assert ladder.document(rung, 5, 2) == ladder.document(rung, 5, 2)
    assert ladder.document(rung, 5, 2) != ladder.document(rung, 0, 0)


def _runner(seed):
    return run.Runner("report-q", seed)


def test_tampered_report_fails_the_digest_check():
    r = _runner(0)
    rung = ladder.Rung("heis", "q", "report")
    out = worker.analyse({"task": "report", "doc": r.doc(rung, 0), "mode": "plain",
                          "rung": rung.key})
    assert r.check(rung, out) is None
    text = json.dumps(cli.build_report(load(r.doc(rung, 0)), None), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == out["digest"]
    tampered = text.replace('"nilpotent": true', '"nilpotent": false')
    assert tampered != text
    out["digest"] = hashlib.sha256(tampered.encode()).hexdigest()
    assert "digest" in r.check(rung, out)


def test_changed_summary_fails_under_a_permutation():
    r = _runner(7)
    rung = ladder.Rung("heis", "q", "report")
    out = worker.analyse({"task": "report", "doc": r.doc(rung, 1), "mode": "plain",
                          "rung": rung.key})
    assert r.check(rung, out) is None
    out["summary"] = dict(out["summary"], crown_ranks=[1])
    assert "crown_ranks" in r.check(rung, out)


def test_undecided_facts_do_not_contradict_the_reference():
    r = _runner(7)
    rung = ladder.Rung("sl2_plus_sl2", "q", "report")
    ref = r.reference[rung.key]["summary"]
    assert r.check(rung, {"summary": dict(ref, crown_ranks=None, primitive=None)}) is None
    assert "primitive" in r.check(rung, {"summary": dict(ref, primitive="type2")})


def test_unrecorded_rung_fails():
    r = _runner(0)
    rung = ladder.Rung("ab(4)", "q", "report")
    assert r.check(rung, {"digest": "0"}) == "no reference recorded"


def test_a_rung_under_its_limit_never_costs_more_than_one_over_it(monkeypatch):
    r = _runner(0)
    rung = ladder.Rung("heis", "q", "report", limit_s=2.0)
    real = worker.analyse({"task": "report", "doc": r.doc(rung, 0), "mode": "plain",
                           "rung": rung.key, "limit_s": rung.limit_s})
    outs = {
        "just under": dict(real, time_s=rung.limit_s * 0.999),
        "reached": dict(real, time_s=rung.limit_s, timed_out=True),
        "killed": None,
    }
    charges = {}
    for name, out in outs.items():
        monkeypatch.setattr(r, "call", lambda request, timeout, out=out: out)
        res = run.RungResult()
        r.analyse(rung, 0, "plain", res)
        assert not res.failures
        charges[name] = run.charge(rung, res)
    assert charges["just under"] < charges["reached"] == charges["killed"] == rung.limit_s


def test_the_worker_stops_an_analysis_at_its_limit():
    r = _runner(0)
    rung = ladder.Rung("sl2_plus_sl2", "q", "report", limit_s=0.2)
    res = run.RungResult()
    r.analyse(rung, 0, "plain", res)
    assert res.timed_out and not res.times and not res.failures
    assert run.charge(rung, res) == 0.2
    out = worker.analyse({"task": "report", "doc": r.doc(rung, 0), "mode": "plain",
                          "rung": rung.key, "limit_s": 0.2})
    assert out["timed_out"] and out["plain_s"] < 1.0


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


@pytest.mark.parametrize("probing", [True, False])
def test_the_clock_reads_finished_work_under_its_limit(probing):
    elapsed, plain, result, timed_out = worker.Clock(1.0, probing).run(lambda: _busy(0.2))
    assert (result, timed_out) == ("done", False) and elapsed < 1.0 and plain > 0.15
    elapsed, plain, result, timed_out = worker.Clock(0.1, probing).run(lambda: _busy(3.0))
    assert (result, timed_out) == (None, True) and plain < 1.0


def test_the_number_of_passes_does_not_depend_on_speed(monkeypatch):
    r = _runner(3)
    calls = []

    def fast(request, timeout):
        calls.append(request["rung"])
        return None if "sl2" in request["rung"] else {"time_s": 1e-3, "plain_s": 1e-3, "timed_out": False, "rss_kib": 1}

    monkeypatch.setattr(r, "call", fast)
    monkeypatch.setattr(r, "setup_once", lambda: 0.1)
    monkeypatch.setattr(r, "check", lambda rung, out: None)
    _, results = run.end_to_end(r, 3 * run.PASS_S["report-q"])
    for rung, res in results.items():
        assert len(res.times) == (0 if "sl2" in rung.name else 3), rung
    # an over-limit rung is not run again
    assert len(calls) == 3 * len(results) - 2 * sum("sl2" in rung.name for rung in results)


def _span(name, start, end, parent):
    return [name, start, end, parent, "rung"]


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 6.5, 0),
        _span("a", 7.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.5, 2.0, 1.0, 1.5, 2.0])
    agg = {name: (calls, incl, self_s) for name, calls, incl, self_s in spans.aggregate(tree)}
    assert agg["root"] == pytest.approx((1, 10.0, 3.5))
    assert agg["a"] == pytest.approx((2, 5.0, 4.0))


def test_recursive_calls_count_inclusive_time_once():
    tree = [
        _span("f", 0.0, 4.0, -1),
        _span("f", 1.0, 3.0, 0),
    ]
    assert spans.aggregate(tree) == [("f", 2, 4.0, 4.0)]


def test_layer_counts_repeat_across_traced_runs():
    r = _runner(0)
    rung = ladder.Rung("aff_sl2", "gf3", "report")
    outs = []
    for _ in range(2):
        res = run.RungResult()
        for mode in ("plain", "trace", "count"):
            r.analyse(rung, 0, mode, res)
        assert not res.failures and not res.timed_out
        outs.append({k: v for k, v in res.layers.items() if not k.endswith("_s")})
    assert outs[0] == outs[1]
    assert outs[0]["cli.build_report.calls"] == 1
    assert outs[0][spans.FIELD_OPS] > 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.metric_units())
    assert [w["name"] for w in spec["workloads"]] == list(ladder.WORKLOADS)
    assert set(run.PASS_S) == set(ladder.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == spans.metric_units()[m["name"]]
