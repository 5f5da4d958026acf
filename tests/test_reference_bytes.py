"""The benchmark's pinned outputs as a Tier-1 test.

Every draw in ``perfbench/workloads.DRAWS`` is regenerated, checked against
the instance sha256 in ``perfbench/reference.json``, and run through each of
its verbs with ``cli.main`` from the instance's directory, as the benchmark's
passes run them (reports echo the instance path).  Every op the reference
completed must give the recorded exit code and stdout sha256; the two ops on
the 2x2x2 Jordan tensor that the reference records as crashed must now
complete: exit 0 or 1 with one JSON document.
The test reads ``perfbench/`` and writes nothing there.
"""

import contextlib
import hashlib
import io
import json
import types
from pathlib import Path

import pytest

import loghodge
import loghodge.cli
import loghodge.generate
import loghodge.model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _load(name):
    """perfbench/<name>.py as a module, compiled in memory so that no
    bytecode cache is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


wl = _load("workloads")
checks = _load("checks")
RECORDED_CRASH = {("pure3-3", "link"), ("pure3-3", "intersect")}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = loghodge.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
def test_every_completed_reference_op_gives_the_same_bytes(workload, tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    draws = REFERENCE["workloads"][workload]["draws"]
    assert sorted(draws) == sorted(wl.draw_key(g, n, s)
                                   for g, n, s, _ in wl.DRAWS[workload])
    compared = 0
    for gen, n, seed, verbs in wl.DRAWS[workload]:
        key = wl.draw_key(gen, n, seed)
        ref = draws[key]
        text = wl.serialise(loghodge, wl.make_model(loghodge, gen, n, seed))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            ref["instance_sha256"], key
        (tmp_path / f"{key}.json").write_text(text, encoding="utf-8")
        for verb in verbs:
            code, out = _run(wl.op_argv(verb, f"{key}.json"))
            if (key, verb) in RECORDED_CRASH:
                assert not checks.completed(ref["ops"][verb]), (key, verb)
                assert code in (0, 1) and out.count("\n") == 1, (key, verb)
                assert json.loads(out)["verdict"] == ("pass", "fail")[code]
                continue
            rec = ref["ops"][verb]
            assert checks.completed(rec), (key, verb)
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert (code, digest) == (rec["exit"], rec["stdout_sha256"]), (key, verb)
            compared += 1
    assert compared == sum(len(d["ops"]) for d in draws.values()) - (
        len(RECORDED_CRASH) if workload == wl.KOSZUL else 0)
