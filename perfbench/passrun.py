"""One measured pass over a list of ops, in a fresh process.

    python3 perfbench/passrun.py PLAN.json

The plan names the program's ``src`` directory, the mode and the ops; the
result goes to the file the plan names.  Modes:

- ``plain``: ops with nothing wrapped but ``cli.corpus_entry`` (eight calls
  per corpus pass, timed from outside);
- ``traced``: every target in ``spans.TARGETS`` records spans;
- ``count``: Scalar add/sub/mul/div calls are counted, nothing is timed.

Each op is one ``loghodge.cli.main(argv)`` call with stdout captured.  A
pass is a process of its own so that nothing one pass leaves in memory can
serve another.

Each op and each corpus entry records its start and end on the clock of
``time.perf_counter``, by which the parent scales it to the reference speed
(``probe.py``).  With ``"cpus"`` in the plan the pass runs on those CPUs,
else on the one it inherited.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(main, argv):
    """Call main(argv) and describe what came out; never raises Exception."""
    out = io.StringIO()
    start = time.perf_counter()
    exit_code, exception = None, None
    try:
        with contextlib.redirect_stdout(out):
            exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaping exception is a failed op, recorded
        exception = f"{type(exc).__name__}: {exc}"
        tail = traceback.extract_tb(exc.__traceback__)[-1]
        exception += f" ({Path(tail.filename).name}:{tail.lineno})"
    end = time.perf_counter()
    text = out.getvalue()
    docs = count_json_documents(text)
    return {
        "exit": exit_code,
        "exception": exception,
        "docs": docs,
        "verdict": json.loads(text).get("verdict") if docs == 1 else None,
        "stdout_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "seconds": end - start,
        "start": start,
        "end": end,
    }


def count_json_documents(text: str) -> int:
    """How many JSON documents text holds back to back; -1 if it is not JSON."""
    decoder, pos, count = json.JSONDecoder(), 0, 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return count
        try:
            _doc, pos = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            return -1
        count += 1


class EntryRecorder:
    """Times each ``cli.corpus_entry`` call and keeps the report it returns."""

    def __init__(self, cli):
        self.entries = []
        self.current_op = None
        original = cli.corpus_entry

        def corpus_entry(path, *args, **kwargs):
            start = time.perf_counter()
            entry = original(path, *args, **kwargs)
            end = time.perf_counter()
            self.entries.append({"op": self.current_op, "path": path,
                                 "seconds": end - start, "start": start,
                                 "end": end, "entry": entry})
            return entry

        cli.corpus_entry = corpus_entry


def run_pass(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    import loghodge.cli as cli
    import loghodge.scalars

    from spans import ScalarCounter, Tracer, install, layer_metrics

    recorder = EntryRecorder(cli)
    tracer = counter = None
    if plan["mode"] == "traced":
        tracer = Tracer()
        install(tracer, sys.modules["loghodge"])
    elif plan["mode"] == "count":
        counter = ScalarCounter()
        counter.install(loghodge.scalars.Scalar)
    ops = []
    for op in plan["ops"]:
        gc.collect()  # each op starts on a heap as tidy as a fresh process's
        recorder.current_op = op["id"]
        if tracer is not None:
            tracer.current_op = op["id"]
            result = tracer.run("cli.main", run_op, cli.main, op["argv"])
        else:
            result = run_op(cli.main, op["argv"])
        result["id"] = op["id"]
        ops.append(result)
    out = {"ops": ops, "entries": recorder.entries,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        if plan.get("spans_file"):
            tracer.write(plan["spans_file"])
    if counter is not None:
        out["scalars"] = {"ops": counter.ops, "gaussian": counter.gaussian}
    return out


def main(argv):
    plan = json.loads(Path(argv[1]).read_text())
    if plan.get("cpus"):
        os.sched_setaffinity(0, plan["cpus"])
    result = run_pass(plan)
    Path(plan["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
