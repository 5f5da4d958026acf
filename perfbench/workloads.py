"""Workload definitions: the fixed draws of each workload and seeded plans.

A draw ``<gen><n>-<s>`` is ``random_<gen>_model(n, random.Random(s))`` at
the generator defaults.  Each generated workload runs a fixed list of draws,
each through a fixed list of verbs, so every run holds the same work; the
run seed only shuffles the order of the ops.  No (instance, verb) pair occurs
twice in a run.  ``reference.json`` holds, for every draw, the sha256 of its
serialised instance and the exit code and stdout digest of each of its
verbs, recorded with ``perfbench/record.py``.
"""

from __future__ import annotations

import random

CORPUS = "corpus"
KOSZUL = "koszul-n3"
HODGE = "hodge-mixed"
WORKLOADS = (CORPUS, KOSZUL, HODGE)

# verb name -> argv after the instance path
KOSZUL_VERBS = {
    "cohomology.omega": ["cohomology", "--complex", "omega"],
    "cohomology.ic": ["cohomology", "--complex", "ic"],
    "purity.closed": ["purity", "--mode", "closed"],
    "purity.support": ["purity", "--mode", "support"],
    "purity.open": ["purity", "--mode", "open"],
    "purity.compact": ["purity", "--mode", "compact"],
    "link": ["link"],
    "intersect": ["intersect", "--z", "1"],
    "decompose": ["decompose"],
}
HODGE_VERBS = {
    "validate": ["validate"],
    "imhs": ["imhs"],
    "relmono": ["relmono"],
    "star": ["star", "--branch", "1"],
    "filtration": ["filtration"],
}
VERB_ARGV = {**KOSZUL_VERBS, **HODGE_VERBS}

# workload -> [(generator, branches, generator seed, verbs)].  Each list
# holds about run_seconds of work on a shared 2-core machine.
DRAWS = {
    KOSZUL: [
        # the 2x2x2 Jordan tensor (dim 8): link and intersect raise the known
        # AssertionError; omega cohomology completes on the widest matrices
        ("pure", 3, 3, ("link", "intersect", "cohomology.omega")),
        # a mid-size pure tensor (dim 4) through every verb
        ("pure", 3, 72, tuple(KOSZUL_VERBS)),
        # mixed weights and elliptic blocks (dim 2) bring Gaussian Hodge data
        *[("imhs", 3, s, tuple(KOSZUL_VERBS)) for s in (2, 32, 55, 89)],
    ],
    # mixed weights, n = 3, 2, 1, dims 1-6; the dim-8 draws are left out, as
    # one imhs call on them takes about 10 s, half a run
    HODGE: [
        ("imhs", n, s, tuple(HODGE_VERBS)) for n, seeds in (
            (3, (0, 16, 100, 107, 14, 21, 22, 31)),
            (2, (1, 14, 20, 21, 24, 9, 2, 22)),
            (1, (0, 11, 12, 17, 23, 25, 13, 22)))
        for s in seeds
    ],
}

# Corpus passes, in order, each in a fresh process.  Three --jobs 1 passes
# give 24 entry times, enough for a percentile above the median with ten
# samples beyond; --jobs 1 brackets the --jobs 2 pass so that a slow stretch
# of the machine hits both alike.  A traced run needs only the first two.
CORPUS_PASSES = (1, 2, 1, 1)
CORPUS_TRACE_PASSES = CORPUS_PASSES[:2]


def op_argv(verb: str, instance: str) -> list[str]:
    return [VERB_ARGV[verb][0], instance, *VERB_ARGV[verb][1:]]


def draw_key(gen: str, n: int, seed: int) -> str:
    return f"{gen}{n}-{seed}"


def make_model(loghodge, gen: str, n: int, seed: int):
    """One draw, straight from the program's generators."""
    make = {"pure": loghodge.generate.random_pure_model,
            "imhs": loghodge.generate.random_imhs_model}[gen]
    return make(n, random.Random(seed))


def serialise(loghodge, model) -> str:
    return loghodge.model.canonical_json(loghodge.model.model_to_json(model))


def plan(workload: str, seed: int):
    """The run's ops as (op id, draw key, verb), in an order the seed picks."""
    ops = [(draw_key(gen, n, s), verb)
           for gen, n, s, verbs in DRAWS[workload] for verb in verbs]
    random.Random(f"{workload}/{seed}").shuffle(ops)
    return [(f"op{i}", key, verb) for i, (key, verb) in enumerate(ops)]


def corpus_plan(passes=CORPUS_PASSES):
    """The corpus passes as (op id, jobs) in execution order."""
    return [(f"pass{i}-j{j}", j) for i, j in enumerate(passes)]
