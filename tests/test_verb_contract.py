"""Every verb, run in-process on small generated draws, ends in one JSON
document and a documented exit code: 0 pass, 1 fail, 2 error, never 3."""

import json
import random

import pytest

from loghodge.cli import main
from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
)
from loghodge.model import canonical_json, model_to_json

MAX_DIM = 4
VARIANTS = [
    ["validate"], ["imhs"], ["cohomology", "--complex", "iclog", "--z", "1"],
    ["filtration"], ["star"], ["relmono"], ["decompose"],
    ["intersect", "--z", "1"], ["link"], ["duality"],
] + [["purity", "--mode", mode]
     for mode in ("closed", "support", "open", "compact", "link")]
VERDICT = {0: "pass", 1: "fail", 2: "error"}


def _draws():
    """Seed 0 of the pure and imhs generators per branch count, and the first
    seed of random_spectral_model, which takes no dimension cap, whose draw
    has at most MAX_DIM coordinates."""
    out = []
    for n in (1, 2, 3):
        out.append((f"pure{n}", random_pure_model(n, random.Random(0),
                                                  max_dim=MAX_DIM)))
        out.append((f"imhs{n}", random_imhs_model(n, random.Random(0),
                                                  max_dim=MAX_DIM)))
        seed = 0
        while (model := random_spectral_model(n, random.Random(seed))
               ).total_dim > MAX_DIM:
            seed += 1
        out.append((f"spectral{n}", model))
    return out


@pytest.fixture(scope="module")
def draw_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("draws")
    paths = []
    for name, model in _draws():
        path = root / f"{name}.json"
        path.write_text(canonical_json(model_to_json(model)))
        paths.append(path)
    return paths


@pytest.mark.parametrize("variant", VARIANTS, ids=" ".join)
def test_every_run_prints_one_document_and_a_documented_code(
        variant, draw_paths, capsys):
    for path in draw_paths:
        code = main([variant[0], str(path)] + variant[1:])
        out = capsys.readouterr().out
        assert code in VERDICT, f"{path.name}: exit {code}: {out}"
        assert out.endswith("\n") and out.count("\n") == 1, path.name
        doc = json.loads(out)
        assert doc["verb"] == variant[0] and doc["verdict"] == VERDICT[code], \
            f"{path.name}: exit {code} with verdict {doc['verdict']}"
