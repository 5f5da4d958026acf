"""Record the reference outcomes the benchmark checks generated ops against.

    python3 perfbench/record.py [--workload NAME ...] [--out FILE]

Every draw of every generated workload (``workloads.DRAWS``) runs each of
its verbs once through ``loghodge.cli.main`` from the instance's directory,
as the benchmark's passes do, since reports echo the instance path.  The
exit code, any escaping exception, the verdict and the sha256 of stdout are
stored with the sha256 of the serialised instance.

Re-record only when the program's output is meant to change; the file is
what "identical output" is checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import loghodge  # noqa: E402
import loghodge.cli  # noqa: E402
import loghodge.generate  # noqa: E402
import loghodge.model  # noqa: E402

import workloads as wl  # noqa: E402
from passrun import run_op  # noqa: E402


def record_workload(workload: str, tmp: Path) -> dict:
    draws = {}
    for gen, n, seed, verbs in wl.DRAWS[workload]:
        model = wl.make_model(loghodge, gen, n, seed)
        key = wl.draw_key(gen, n, seed)
        text = wl.serialise(loghodge, model)
        name = f"{key}.json"
        (tmp / name).write_text(text, encoding="utf-8")
        rec = draws[key] = {
            "gen": gen, "n": n, "seed": seed, "dim": model.total_dim,
            "instance_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "ops": {}}
        for verb in verbs:
            res = run_op(loghodge.cli.main, wl.op_argv(verb, name))
            rec["ops"][verb] = {k: res[k] for k in ("exit", "exception", "docs",
                                                    "verdict", "stdout_sha256")}
            print(key, verb, res["exit"], res["exception"],
                  round(res["seconds"], 3), flush=True)
    return {"draws": draws}


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the passes run with hash seed 0; record under the same one
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(wl.DRAWS),
                    default=None)
    ap.add_argument("--out", default=str(HERE / "reference.json"))
    args = ap.parse_args(argv)
    out = Path(args.out)
    ref = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    tmp = HERE.parent / ".perfbench" / f"record-{'-'.join(args.workload or ['all'])}"
    tmp.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for workload in args.workload or list(wl.DRAWS):
            ref["workloads"][workload] = record_workload(workload, tmp)
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp)
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
