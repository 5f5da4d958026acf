"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from passrun import run_op  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        (1, "root", 0.0, 10.0, None, "op0"),
        (2, "a", 1.0, 4.0, 1, "op0"),
        (3, "b", 3.0, 6.0, 1, "op0"),      # overlaps a: union is 1..6
        (4, "a.kid", 2.0, 3.0, 2, "op0"),
        (5, "late", 9.0, 12.0, 1, "op0"),  # clipped to the parent's end
    ]
    got = spans.self_times(tree)
    assert got == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_covered_merges_touching_and_nested_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 2), (2, 3), (5, 6), (5.5, 5.7)]) == 4.0


def _corpus_entries(names):
    import loghodge.cli
    return [{"path": str(ROOT / "corpus" / f"{n}.json"),
             "entry": loghodge.cli.corpus_entry(str(ROOT / "corpus" / f"{n}.json"))}
            for n in names]


def test_gate_passes_the_committed_corpus():
    names = sorted(p.name[:-len(".expected.json")]
                   for p in (ROOT / "corpus").glob("*.expected.json"))
    assert checks.corpus_gate(_corpus_entries(names), ROOT / "corpus") == []


def test_gate_trips_on_a_tampered_expected_report(tmp_path):
    names = ["rank1_trivial", "jordan2_weight1"]
    for n in names:
        shutil.copyfile(ROOT / "corpus" / f"{n}.expected.json",
                        tmp_path / f"{n}.expected.json")
    entries = _corpus_entries(names)
    assert checks.corpus_gate(entries, tmp_path) == []
    path = tmp_path / "jordan2_weight1.expected.json"
    path.write_text(path.read_text().replace('"pass"', '"fail"', 1))
    problems = checks.corpus_gate(entries, tmp_path)
    assert problems == ["jordan2_weight1: report differs from "
                        "jordan2_weight1.expected.json"]
    assert checks.corpus_gate(entries[:1], tmp_path) == [
        "jordan2_weight1: no report produced"]


def _raise(argv):
    raise AssertionError("pairing does not kill the subcomplex at degree 2")


def _two_documents(argv):
    print('{"verdict": "pass"}')
    print('{"verdict": "pass"}')
    return 0


def test_an_op_that_raises_is_counted_as_failed():
    res = run_op(_raise, ["link", "x.json"])
    assert res["exception"].startswith("AssertionError: pairing")
    assert not checks.completed(res)
    ok_ref = {"exit": 0, "exception": None, "docs": 1, "verdict": "pass",
              "stdout_sha256": "0" * 64}
    assert checks.check_op(res, ok_ref, "link")[0] is False
    crash_ref = dict(ok_ref, exit=None, exception="AssertionError: x", docs=0)
    assert checks.check_op(res, crash_ref, "link") == (False, None)

    key = "pure3-0"
    run = bench.Run(SimpleNamespace(workload=wl.KOSZUL), None)
    run.reference = {"draws": {key: {"ops": {"link": crash_ref,
                                             "decompose": ok_ref}}}}
    good = dict(ok_ref, seconds=1.0, start=10.0, end=11.0)
    result = {"ops": [dict(res, id="op0", start=0.0, end=res["seconds"]),
                      dict(good, id="op1")],
              "maxrss_kb": 1024}
    # the machine ran at the reference speed, then twice as fast
    ref = probe.PROBE_REF_S
    run.samples = ([(0.05 + t / 10, ref) for t in range(10)]
                   + [(10.05 + t / 10, ref / 2) for t in range(10)])
    info = [("op0", key, "link"), ("op1", key, "decompose")]
    attempted, failed, metrics, extras = run.end_to_end(result, info)
    assert (attempted, failed) == (2, 1)
    assert extras["error_rate"] == 0.5
    assert extras["outcomes"] == {"exit_0": 1, "failed": 1}
    # taken at twice the reference speed, less the ten probes inside it
    assert metrics["op_p50_s"] == pytest.approx(2.0 * (1 - 10 * ref / 2))
    assert extras["raw_wall_s"] == res["seconds"] + 1.0
    assert run.problems == []


def test_duplicate_json_or_bad_exit_is_a_failed_op():
    res = run_op(_two_documents, ["validate", "x.json"])
    assert res["docs"] == 2 and not checks.completed(res)
    res = run_op(lambda argv: 3, ["validate", "x.json"])
    assert not checks.completed(res)


def test_output_differing_from_the_reference_makes_the_run_incorrect():
    ref = {"exit": 0, "exception": None, "docs": 1, "verdict": None,
           "stdout_sha256": "0" * 64}
    res = run_op(lambda argv: print("{}") or 0, ["cohomology", "x.json"])
    ok, problem = checks.check_op(res, ref, "cohomology.omega")
    assert not ok and "differs" in problem
    res = run_op(lambda argv: print('{"verdict": "fail"}') or 1, ["imhs", "x"])
    ok, problem = checks.check_op(res, ref, "imhs")
    assert not ok and "verdict" in problem


def test_plans_are_seeded_and_never_repeat_a_pair_in_a_process():
    for workload in (wl.KOSZUL, wl.HODGE):
        a = wl.plan(workload, 7)
        assert a == wl.plan(workload, 7)
        assert a != wl.plan(workload, 8)
        assert sorted((k, v) for _, k, v in a) == sorted(
            (k, v) for _, k, v in wl.plan(workload, 8))
        for group in bench.processes(workload, a):
            pairs = [(key, verb) for _, key, verb in group]
            assert len(pairs) == len(set(pairs))


def test_each_corpus_pass_runs_in_a_process_of_its_own():
    ops = [{"id": op_id, "argv": ["corpus", "corpus", "--jobs", str(jobs)]}
           for op_id, jobs in wl.corpus_plan()]
    groups = bench.processes(wl.CORPUS, ops)
    # one corpus verb call per process: each instance runs once in it
    assert [len(g) for g in groups] == [1] * len(wl.CORPUS_PASSES)
    assert [g[0] for g in groups] == ops


def test_the_known_crash_stays_in_koszul():
    draws = REFERENCE["workloads"][wl.KOSZUL]["draws"]
    crashed = {(key, verb) for _, key, verb in wl.plan(wl.KOSZUL, 0)
               if draws[key]["ops"][verb]["exception"]}
    assert crashed == {("pure3-3", "link"), ("pure3-3", "intersect")}
    assert draws["pure3-3"]["dim"] == 8
    assert draws["pure3-3"]["ops"]["cohomology.omega"]["exit"] == 0


def test_speed_is_sampled_in_a_process_of_its_own():
    import os
    import time
    with probe.Sampler() as sampler:
        assert sampler.proc.pid != os.getpid()
        start = time.perf_counter()
        time.sleep(10 * probe.SAMPLE_PERIOD_S)
        end = time.perf_counter()
    assert sampler.proc.returncode == 0
    assert sum(1 for t, _ in sampler.samples if start <= t <= end) >= probe.MIN_SAMPLES
    assert all(0 < d < 1 for _, d in sampler.samples)


def test_scale_uses_the_samples_inside_a_stretch_or_the_nearest():
    ref = probe.PROBE_REF_S
    samples = [(t, ref if t < 10 else 2 * ref) for t in range(20)]
    assert probe.scale(samples, 0, 9) == 1.0
    assert probe.scale(samples, 12, 18) == 0.5
    # a short stretch: its five nearest samples, three of them at half speed
    assert probe.scale(samples, 9.6, 9.7) == 0.5


def test_probe_time_inside_a_stretch_is_taken_out():
    samples = [(1.0, 0.2), (2.05, 0.1), (5.0, 0.2)]
    # the first probe lies inside, the second half inside, the third outside
    assert abs(probe.stolen(samples, 0.5, 2.05) - 0.25) < 1e-12
    run = bench.Run(SimpleNamespace(workload=wl.KOSZUL), None)
    run.samples = [(t, probe.PROBE_REF_S) for t in (0.5, 1.0, 1.5, 2.5, 3.0)]
    op = {"seconds": 2.0, "start": 0.0, "end": 2.0}
    stolen = 3 * probe.PROBE_REF_S
    assert abs(run.scaled(op) - (2.0 - stolen)) < 1e-12


def test_tracer_rebinds_names_imported_elsewhere():
    import loghodge
    import loghodge.cli
    import loghodge.generate
    import loghodge.linalg
    import loghodge.model

    original = loghodge.linalg.rref
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, loghodge)
    try:
        for mod in (loghodge.linalg, loghodge.model, loghodge.generate):
            assert mod.rref.__wrapped__ is original
        assert loghodge.cli.imhs_check.__wrapped__ is not None
        model = loghodge.generate.random_pure_model(1, random.Random(0))
        loghodge.model.validate(model)
    finally:
        uninstall()
    assert loghodge.model.rref is original and loghodge.generate.rref is original
    names = {s[1] for s in tracer.spans}
    assert {"generate.model", "model.validate", "linalg.rref"} <= names
    layers = spans.layer_metrics(tracer)
    assert layers["linalg.rref.calls"] == sum(1 for s in tracer.spans
                                              if s[1] == "linalg.rref")


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
