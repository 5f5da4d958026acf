#!/usr/bin/env python3
"""The loghodge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src/`` and needs nothing installed.  Workloads (closed loop, one client):

- ``corpus``: the shipped instances through ``loghodge corpus`` at
  ``--jobs 1``, ``--jobs 2``, then ``--jobs 1`` twice more, each pass in a
  fresh process.  Small terms,
  so per-call overhead dominates; the only workload using the jobs pool.
- ``koszul-n3``: draws of ``random_pure_model(3, .)`` and
  ``random_imhs_model(3, .)`` through cohomology, purity, link, intersect and
  decompose: the widest all-rational eliminations.  It keeps the 2x2x2
  Jordan tensor, on which ``link`` and ``intersect`` raise an AssertionError.
- ``hodge-mixed``: mixed-weight draws of ``random_imhs_model(n, .)``,
  n = 1, 2, 3, through validate, imhs, relmono, star and filtration: many
  narrow eliminations and no complex at all.

Set-up (imports, timed in fresh processes, then instance generation and
serialisation) is repeated SETUP_REPS times and the median counts.  Every
measured pass runs in a fresh process (``passrun.py``) that receives the
instances only as files; each corpus pass has a process of its own.  The run
is pinned to one CPU, except the ``--jobs 2`` pass.  Times are reported at a
reference machine speed: each timed stretch is scaled by PROBE_REF_S over the
time a fixed exact elimination took while it ran, sampled throughout the run
by a process of its own on the same CPU (``probe.py``), because on a shared
machine the CPU's speed can drift by half from minute to minute.  The work
runs at a lower priority than the sampler, and the time the sampler's probes
take inside a stretch is taken out of it.  The raw wall time is printed too.

``--trace 0`` measures the plain passes and prints the end-to-end metrics.
``--trace 1`` runs a plain, a traced and a Scalar-counting pass over the same
ops (on corpus: the first two passes plain, the first traced and counted)
and prints the per-layer metrics.  Every op's output is checked
(``checks.py``); when a check fails the run prints ``"correct": false`` with
no numbers and exits 1.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS_DIR = ROOT / "corpus"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
import probe  # noqa: E402

SETUP_REPS = 7
NICE = 10
DEADLINE_S = 170

# What a CLI user's process imports before the first op.
IMPORTS = "import loghodge.cli, loghodge.generate, loghodge.model"

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_s", "s"), ("op_tail_s", "s"), ("peak_rss_mb", "MB"),
]

# Printed with the end-to-end metrics on the workloads that have them.
WORKLOAD_EXTRAS = {"raw_wall_s": "s", "corpus_wall_j2_s": "s",
                   "error_rate": "ratio",
                   "verb.cohomology_s": "s", "verb.purity_s": "s",
                   "verb.link_s": "s", "verb.decompose_s": "s",
                   "verb.imhs_s": "s"}

VERB_GROUPS = {
    "verb.cohomology_s": ("cohomology.omega", "cohomology.ic"),
    "verb.purity_s": ("purity.closed", "purity.support", "purity.open",
                      "purity.compact"),
    "verb.link_s": ("link",),
    "verb.decompose_s": ("decompose",),
    "verb.imhs_s": ("imhs",),
}


def _calls_self(*names):
    return [(f"{n}.{m}", u) for n in names for m, u in (("calls", "count"),
                                                         ("self_s", "s"))]


PER_LAYER = [
    ("scalars.ops", "count"), ("scalars.gaussian_share", "ratio"),
    *_calls_self("linalg.rref"),
    ("linalg.rref.cells", "cells"), ("linalg.rref.max_width", "cols"),
    ("linalg.rref.max_bits", "bits"),
    *_calls_self("linalg.matmul", "linalg.apply"),
    ("linalg.apply.nonzero_share", "ratio"),
    *_calls_self("linalg.intersect", "linalg.preimage", "linalg.kernel",
                 "linalg.induced_map", "filtrations.monodromy",
                 "filtrations.relmono", "filtrations.star"),
    ("model.load.self_s", "s"), ("model.validate.self_s", "s"),
    ("model.imhs.self_s", "s"),
    *_calls_self("complexes.build"),
    ("complexes.build.max_term_dim", "dim"),
    ("complexes.build.distinct_share", "ratio"),
    *_calls_self("complexes.validate", "complexes.cohomology"),
    *[(f"complexes.{n}.self_s", "s") for n in
      ("quotient", "dualize", "cone", "intersection_morphism", "link")],
    *_calls_self("decomposition.graded", "decomposition.purity",
                 "decomposition.intersection_image"),
    ("cli.emit.self_s", "s"), ("cli.corpus.parallel_eff", "ratio"),
    ("cli.error_rate", "ratio"),
    ("generate.model.self_s", "s"), ("trace.overhead", "ratio"),
]


class BenchError(Exception):
    """The benchmark itself could not run."""


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(values):
    """(percentile, value, samples beyond): the highest percentile with at
    least ten samples above it, by nearest rank."""
    xs = sorted(values)
    rank = max(1, len(xs) - 10)
    return 100.0 * rank / len(xs), xs[rank - 1], len(xs) - rank


def processes(workload, ops):
    """The ops grouped by the fresh process each group runs in: one per
    corpus pass, so that no corpus instance runs twice in a process; one for
    all ops of a generated workload, whose (instance, verb) pairs are
    distinct."""
    if workload == wl.CORPUS:
        return [[op] for op in ops]
    return [ops]


def merge(results):
    """One result for several pass processes."""
    return {"ops": [op for r in results for op in r["ops"]],
            "entries": [e for r in results for e in r["entries"]],
            "maxrss_kb": max(r["maxrss_kb"] for r in results),
            **{k: v for r in results for k, v in r.items()
               if k in ("layers", "scalars")}}


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.started = time.monotonic()
        self.problems = []
        self.all_cpus = None
        self.samples = []

    # -- passes ---------------------------------------------------------------

    def run_pass(self, name: str, mode: str, ops, spans_file=None) -> dict:
        """Run ops in fresh processes whose working directory holds the
        inputs; reports echo the instance path, so it is kept relative."""
        results = []
        for i, group in enumerate(processes(self.args.workload, ops)):
            plan_path = self.work / f"{name}{i}.plan.json"
            out_path = self.work / f"{name}{i}.out.json"
            plan_path.write_text(json.dumps({
                "src": str(SRC), "mode": mode, "ops": group,
                "out": str(out_path), "spans_file": spans_file,
                "cpus": self.all_cpus if any(op["jobs"] > 1 for op in group)
                else None}))
            env = dict(os.environ, PYTHONHASHSEED="0")
            remaining = DEADLINE_S - (time.monotonic() - self.started)
            if remaining <= 0:
                raise BenchError(f"no time left for the {name} pass")
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "passrun.py"), str(plan_path)],
                    cwd=self.inputs, env=env, capture_output=True, text=True,
                    timeout=remaining)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{name} pass exceeded the run deadline") from exc
            if proc.returncode != 0:
                raise BenchError(f"{name} pass exited {proc.returncode}:\n"
                                 f"{proc.stderr[-2000:]}")
            results.append(json.loads(out_path.read_text()))
        return merge(results)

    # -- set-up ---------------------------------------------------------------

    def setup(self, loghodge):
        """Make the inputs; return (make, ops for the passes, per-op info)."""
        a = self.args
        if a.workload == wl.CORPUS:
            self.inputs = self.work
            dest = self.work / "corpus"

            def make():
                dest.mkdir(exist_ok=True)
                for path in sorted(CORPUS_DIR.glob("*.json")):
                    shutil.copyfile(path, dest / path.name)
            info = wl.corpus_plan(wl.CORPUS_TRACE_PASSES if a.trace
                                  else wl.CORPUS_PASSES)
            ops = [{"id": op_id, "argv": ["corpus", dest.name, "--jobs", str(jobs)],
                    "jobs": jobs}
                   for op_id, jobs in info]
        else:
            draws = self.reference["draws"]
            info = wl.plan(a.workload, a.seed)
            keys = sorted({key for _, key, _ in info})
            dest = self.inputs = self.work / "instances"

            def make():
                dest.mkdir(exist_ok=True)
                for key in keys:
                    rec = draws[key]
                    text = wl.serialise(loghodge, wl.make_model(
                        loghodge, rec["gen"], rec["n"], rec["seed"]))
                    (dest / f"{key}.json").write_text(text, encoding="utf-8")
                    if hashlib.sha256(text.encode()).hexdigest() != rec["instance_sha256"]:
                        self.problems.append(f"{key}: generator output differs "
                                             "from the recorded instance")
            ops = [{"id": op_id, "argv": wl.op_argv(verb, f"{key}.json"), "jobs": 1}
                   for op_id, key, verb in info]
        return make, ops, info

    def import_seconds(self) -> float:
        """What the program's imports take in a fresh process."""
        code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
                f"t = time.perf_counter(); {IMPORTS}; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.work,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing the program failed:\n{proc.stderr[-2000:]}")
        return float(proc.stdout)

    def time_setup(self, make):
        """SETUP_REPS repetitions of imports plus making the inputs, as
        {"seconds", "start", "end"}."""
        reps = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            seconds = self.import_seconds()
            t = time.perf_counter()
            make()
            end = time.perf_counter()
            reps.append({"seconds": seconds + end - t, "start": start, "end": end})
        return reps

    # -- checks ---------------------------------------------------------------

    def check_generated(self, result, info):
        """Per-op ok flags for one pass; records problems."""
        oks = []
        draws = self.reference["draws"]
        for res, (op_id, key, verb) in zip(result["ops"], info):
            ok, problem = checks.check_op(res, draws[key]["ops"][verb], verb)
            if problem:
                self.problems.append(f"{op_id} {key} {problem}")
            oks.append(ok)
        return oks

    def check_corpus(self, result):
        """(attempted, failed) corpus entries of the passes; records problems.

        An entry fails when its report is missing or differs from the
        committed one."""
        n_instances = len(list(CORPUS_DIR.glob("*.expected.json")))
        attempted = failed = 0
        for res in result["ops"]:
            entries = [e for e in result["entries"] if e["op"] == res["id"]]
            problems = checks.corpus_gate(entries, CORPUS_DIR)
            attempted += n_instances
            failed += len(problems)
            if not checks.completed(res) or res["exit"] != 0 or res["verdict"] != "pass":
                problems.append(f"corpus verb did not pass "
                                f"({res['exception'] or res['exit']})")
            self.problems.extend(f"{res['id']} {p}" for p in problems)
        return attempted, failed

    def same_output(self, a, b, name):
        for x, y in zip(a["ops"], b["ops"]):
            if (x["exit"], x["stdout_sha256"], x["exception"] is None) != \
                    (y["exit"], y["stdout_sha256"], y["exception"] is None):
                self.problems.append(f"{y['id']}: output of the {name} pass "
                                     "differs from the plain pass")

    # -- metrics --------------------------------------------------------------

    def scaled(self, timed):
        """The seconds of an op, entry or set-up at the reference speed, less
        the share of its stretch that the sampler's probes took."""
        start, end = timed["start"], timed["end"]
        busy = 1 - probe.stolen(self.samples, start, end) / (end - start) if end > start else 1
        return timed["seconds"] * busy * probe.scale(self.samples, start, end)

    @staticmethod
    def j1_entries(result, info):
        """Corpus entries of the --jobs 1 passes among info."""
        j1_ops = {op for op, jobs in info if jobs == 1}
        return [e for e in result["entries"] if e["op"] in j1_ops]

    def end_to_end(self, result, info):
        """(attempted, failed, metrics, extras) of the plain pass."""
        extras = {}
        if self.args.workload == wl.CORPUS:
            attempted, failed = self.check_corpus(result)
            j1 = self.j1_entries(result, info)
            times = [self.scaled(e) for e in j1]
            # the --jobs 1 pass with each instance at its best of the passes,
            # each pass a fresh process: a slow stretch of the machine during
            # one pass does not count
            best, raw = {}, {}
            for e, t in zip(j1, times):
                best[e["path"]] = min(t, best.get(e["path"], t))
                raw[e["path"]] = min(e["seconds"], raw.get(e["path"], e["seconds"]))
            wall = sum(best.values())
            extras["raw_wall_s"] = sum(raw.values())
            rate = len(best) / wall
            extras["corpus_wall_j2_s"] = statistics.median(
                self.scaled(r) for r, (_op, jobs) in zip(result["ops"], info)
                if jobs > 1)
        else:
            oks = self.check_generated(result, info)
            attempted, failed = len(oks), oks.count(False)
            normed = [self.scaled(r) for r in result["ops"]]
            extras["raw_wall_s"] = sum(r["seconds"] for r in result["ops"])
            times = [t for t, ok in zip(normed, oks) if ok]
            wall = sum(normed)
            rate = len(times) / wall
            for metric, verbs in VERB_GROUPS.items():
                vt = [t for t, ok, (_o, _k, v) in zip(normed, oks, info)
                      if ok and v in verbs]
                if vt:
                    extras[metric] = statistics.median(vt)
            codes = {}
            for r, ok in zip(result["ops"], oks):
                key = f"exit_{r['exit']}" if ok else "failed"
                codes[key] = codes.get(key, 0) + 1
            extras["outcomes"] = codes
        extras["error_rate"] = failed / attempted
        if not times:
            raise BenchError("no op completed")
        q, tail, beyond = tail_percentile(times)
        extras["op_tail"] = {"percentile": round(q, 2), "samples": len(times),
                             "beyond": beyond}
        metrics = {
            "wall_s": wall, "ops_per_s": rate,
            "op_p50_s": statistics.median(times), "op_tail_s": tail,
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        return attempted, failed, metrics, extras

    def per_layer(self, plain, traced, counted, info, setup_layers, error_rate):
        layers = dict(traced["layers"])
        layers["generate.model.self_s"] = setup_layers.get("generate.model.self_s", 0.0)
        sc = counted["scalars"]
        layers["scalars.ops"] = sc["ops"]
        layers["scalars.gaussian_share"] = sc["gaussian"] / sc["ops"] if sc["ops"] else 0.0
        layers["cli.error_rate"] = error_rate
        if self.args.workload == wl.CORPUS:
            first = info[:1]  # the first --jobs 1 pass is traced
            layers["trace.overhead"] = (
                sum(self.scaled(e) for e in self.j1_entries(traced, first))
                / sum(self.scaled(e) for e in self.j1_entries(plain, first)))
            effs = []
            for res, (op_id, jobs) in zip(plain["ops"], info):
                if jobs > 1:
                    busy = sum(e["seconds"] for e in plain["entries"] if e["op"] == op_id)
                    effs.append(busy / (jobs * res["seconds"]))
            layers["cli.corpus.parallel_eff"] = statistics.median(effs)
        else:
            layers["trace.overhead"] = (
                sum(self.scaled(r) for r in traced["ops"])
                / sum(self.scaled(r) for r in plain["ops"]))
            layers["cli.corpus.parallel_eff"] = 0.0
        return {name: layers[name] for name, _unit in PER_LAYER}

    # -- the run --------------------------------------------------------------

    def pin(self):
        """Run on one CPU from here on; the passes inherit it."""
        if hasattr(os, "sched_setaffinity"):
            self.all_cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, self.all_cpus[:1])

    def execute(self):
        a = self.args
        self.pin()
        sys.path.insert(0, str(SRC))
        import loghodge
        import loghodge.cli  # noqa: F401
        import loghodge.generate  # noqa: F401
        import loghodge.model  # noqa: F401
        if Path(loghodge.__file__).resolve().parent != (SRC / "loghodge").resolve():
            raise BenchError(f"loghodge imported from {loghodge.__file__}, not {SRC}")
        if a.workload != wl.CORPUS:
            ref = json.loads((HERE / "reference.json").read_text())
            self.reference = ref["workloads"][a.workload]
        make, ops, info = self.setup(loghodge)

        setup_layers = {}
        with probe.Sampler() as sampler:
            # the work, unlike the sampler started before, runs at a lower
            # priority: a probe gets the CPU at once instead of sharing it
            # with an op, which would make the probe read slow
            os.nice(NICE)
            if a.trace:
                tracer = spans.Tracer()
                uninstall = spans.install(tracer, loghodge)
                try:
                    make()
                finally:
                    uninstall()
                setup_layers = spans.layer_metrics(tracer)
            else:
                setup_reps = self.time_setup(make)
            plain = self.run_pass("plain", "plain", ops)
            if a.trace:
                OUT_DIR.mkdir(exist_ok=True)
                spans_file = OUT_DIR / f"spans-{a.workload}-seed{a.seed}.jsonl"
                # corpus: the first --jobs 1 pass is traced and counted
                n = 1 if a.workload == wl.CORPUS else len(ops)
                traced = self.run_pass("traced", "traced", ops[:n], str(spans_file))
                counted = self.run_pass("count", "count", ops[:n])
        self.samples = sampler.samples
        if not self.samples:
            raise BenchError("the speed sampler recorded nothing")

        attempted, failed, metrics, extras = self.end_to_end(plain, info)
        if a.trace:
            self.same_output(plain, traced, "traced")
            self.same_output(plain, counted, "count")
            out = self.per_layer(plain, traced, counted, info, setup_layers,
                                 extras["error_rate"])
            units = dict(PER_LAYER)
        else:
            out = {"setup_s": statistics.median(map(self.scaled, setup_reps)),
                   **metrics}
            units = dict(END_TO_END)
        return attempted, failed, out, units, extras


def parse_args(argv):
    ap = argparse.ArgumentParser(description="loghodge benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal run length, recorded with the result; a run "
                         "holds a fixed amount of work, 15-30 s on a shared "
                         "2-core machine, so that every run compares")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loghodge" / "__init__.py").is_file() or not CORPUS_DIR.is_dir():
        print(f"perfbench: {ROOT} is not a loghodge source checkout "
              "(src/loghodge or corpus/ is missing)", file=sys.stderr)
        return 2
    work = OUT_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args, work)
    try:
        attempted, failed, metrics, units, extras = run.execute()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} commit={git_commit(ROOT)}")
    if run.problems:
        for p in dict.fromkeys(run.problems):
            print(f"  CHECK FAILED: {p}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    if not args.trace:
        for name, unit in WORKLOAD_EXTRAS.items():
            if name in extras:
                print(f"  {name:<36} {extras[name]:.6g} {unit}")
        print(f"  times but raw_wall_s are at the reference speed: a probe "
              f"took {statistics.median(d for _t, d in run.samples) * 1e3:.4g} ms "
              f"in this run against {probe.PROBE_REF_S * 1e3:g} ms")
        print(f"  op_tail_s is p{extras['op_tail']['percentile']:g} of "
              f"{extras['op_tail']['samples']} ops, "
              f"{extras['op_tail']['beyond']} beyond it")
        if "outcomes" in extras:
            print(f"  outcomes {json.dumps(extras['outcomes'], sort_keys=True)}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
