"""Metamorphic relations over generated draws: a rational change of basis
leaves every basis-free verb's document unchanged, and the cohomology
profiles of a direct sum are the sums of its summands' profiles."""

import json
import random
from collections import Counter

import pytest

from loghodge import complexes as cx
from loghodge.cli import main
from loghodge.generate import (
    conjugate_model,
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
    random_unimodular,
)
from loghodge.linalg import evaluation
from loghodge.model import canonical_json, direct_sum, model_to_json

MAX_DIM = 4
# the verbs whose document reads no coordinates of the instance
BASIS_FREE = [
    ["validate"], ["imhs"], ["cohomology", "--complex", "omega"],
    ["cohomology", "--complex", "ic"],
    ["cohomology", "--complex", "iclog", "--z", "1"], ["decompose"],
    ["intersect", "--z", "1"], ["link"], ["duality"],
] + [["purity", "--mode", mode]
     for mode in ("closed", "support", "open", "compact", "link")]


def _run(path, variant, capsys):
    """The exit code and the document of one verb, less the instance path."""
    code = main([variant[0], str(path)] + variant[1:])
    doc = json.loads(capsys.readouterr().out)
    del doc["instance"]
    return code, doc


@pytest.mark.parametrize("make", [random_pure_model, random_imhs_model],
                         ids=["pure", "imhs"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_change_of_basis_leaves_every_basis_free_document_unchanged(
        make, n, tmp_path, capsys):
    model_path, moved_path = tmp_path / "model.json", tmp_path / "moved.json"
    for seed in range(5):
        rng = random.Random(seed)
        model = make(n, rng, max_dim=MAX_DIM)
        moved = conjugate_model(model, random_unimodular(model.total_dim, rng))
        for m, path in ((model, model_path), (moved, moved_path)):
            path.write_text(canonical_json(model_to_json(m)))
        for variant in BASIS_FREE:
            assert _run(moved_path, variant, capsys) == \
                _run(model_path, variant, capsys), \
                (make.__name__, n, seed, variant)


def _profiles(model):
    with evaluation():
        return [cx.cohomology(cx.build_complex(model, kind)).profile()
                for kind in ("omega", "ic")]


def _added(p, q):
    return {k: dict(Counter(p.get(k, {})) + Counter(q.get(k, {})))
            for k in p.keys() | q.keys()}


def _summable_pairs(n, count):
    """count pairs, drawn with seed n, of distinct small pure, imhs and
    spectral draws on n branches with equal weight conventions."""
    draws = {}
    for seed in range(12):
        for model in (random_pure_model(n, random.Random(seed), max_dim=3),
                      random_imhs_model(n, random.Random(seed), max_dim=3),
                      random_spectral_model(n, random.Random(seed))):
            if model.total_dim <= 3:
                draws.setdefault(canonical_json(model_to_json(model)), model)
    draws = list(draws.values())
    pairs = [(a, b) for i, a in enumerate(draws) for b in draws[i:]
             if (a.base_weight, a.perverse_shift)
             == (b.base_weight, b.perverse_shift)]
    return random.Random(n).sample(pairs, count)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cohomology_profiles_add_under_direct_sum(n):
    for a, b in _summable_pairs(n, 12):
        want = [_added(p, q) for p, q in zip(_profiles(a), _profiles(b))]
        assert _profiles(direct_sum(a, b)) == want
