#!/usr/bin/env python3
"""Regenerate the bundled corpus instances and their expected reports.

Instances mix hand-pinned anchors (rank-1 disc, Jordan-2 at two weights, the
4-dimensional two-branch tensor model) with seeded generator output.  Every
instance is unipotent so the boundary equalities of the acceptance suite hold
as literal complex identities; mixed-weight instances carry no pairing since
the one-weight purity bounds presume a pure coefficient system.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loghodge.cli import corpus_entry
from loghodge.generate import random_imhs_model, random_pure_model
from loghodge.model import canonical_json, model_from_json, model_to_json

ROOT = Path(__file__).resolve().parent.parent / "corpus"


def hand_instances():
    # stored weights carry the perverse shift; the Hodge data is calibrated
    # to the stored labels, so a one-dimensional piece needs an even weight
    yield "rank1_trivial", {
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
        "W": [{"weight": 0, "basis": [["1"]]}],
        "F": [{"p": 1, "basis": []}],
        "S": {"matrix": [["1"]], "parity": 0},
    }
    yield "jordan2_weight1", {
        "branches": 1, "base_weight": 1, "perverse_shift": 1,
        "components": [{"alpha": ["0"], "dim": 2,
                        "N": [[["0", "1"], ["0", "0"]]]}],
        "W": [{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
        "F": [{"p": 1, "basis": [["1*i", "1"]]}, {"p": 2, "basis": []}],
        "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
    }
    # a Jordan pair at even stored weight admits no Hodge filtration (its
    # graded monodromy pieces would be odd-weight lines), so F is omitted
    yield "jordan2_weight0", {
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": ["0"], "dim": 2,
                        "N": [[["0", "1"], ["0", "0"]]]}],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
        "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
    }
    n1 = [["0", "0", "0", "0"], ["0", "0", "0", "0"],
          ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    n2 = [["0", "0", "0", "0"], ["1", "0", "0", "0"],
          ["0", "0", "0", "0"], ["0", "0", "1", "0"]]

    def s1(s, t):
        return -1 if (s, t) == (0, 1) else (1 if (s, t) == (1, 0) else 0)

    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    s_rows = [[str(s1(s, s2) * s1(t, t2)) for (s2, t2) in pairs]
              for (s, t) in pairs]
    yield "j2xj2_weight2", {
        "branches": 2, "base_weight": 2, "perverse_shift": 2,
        "components": [{"alpha": ["0", "0"], "dim": 4, "N": [n1, n2]}],
        "W": [{"weight": 2, "basis": [["1", "0", "0", "0"],
                                      ["0", "1", "0", "0"],
                                      ["0", "0", "1", "0"],
                                      ["0", "0", "0", "1"]]}],
        "F": [{"p": 1, "basis": [["1", "1*i", "0", "0"],
                                 ["0", "0", "1", "1*i"],
                                 ["1", "0", "1*i", "0"]]},
              {"p": 2, "basis": [["1", "1*i", "1*i", "-1"]]},
              {"p": 3, "basis": []}],
        "S": {"matrix": s_rows, "parity": 0},
    }


def generated_instances():
    rng = random.Random(2024)
    yield "gen_mixed_n1", model_to_json(
        random_imhs_model(1, rng, with_pairing=False, max_dim=5, max_blocks=2))
    yield "gen_mixed_n2", model_to_json(
        random_imhs_model(2, rng, with_pairing=False, max_dim=5, max_blocks=2))
    yield "gen_pure_n2", model_to_json(random_pure_model(2, rng, max_dim=6))
    yield "gen_pure_n3", model_to_json(random_pure_model(3, rng, max_dim=4))


def instances():
    """Every corpus instance as (name, document), in the order written."""
    return list(hand_instances()) + list(generated_instances())


def instance_json(doc) -> str:
    """The committed bytes of an instance document: its canonical
    re-serialisation, which also validates the schema."""
    return canonical_json(model_to_json(model_from_json(doc)))


def main():
    ROOT.mkdir(exist_ok=True)
    names = []
    for name, doc in instances():
        (ROOT / f"{name}.json").write_text(instance_json(doc))
        names.append(name)
    for name in names:
        entry = corpus_entry(str(ROOT / f"{name}.json"))
        (ROOT / f"{name}.expected.json").write_text(canonical_json(entry))
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
