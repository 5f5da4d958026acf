"""Metamorphic relations over generated draws: a rational change of basis
leaves every basis-free verb's document unchanged, a permutation of the
branches permutes the branch labels of every document and leaves the others
unchanged, the cohomology profiles of a direct sum are the sums of its
summands' profiles, and a summand with exponents 1/2 leaves every verdict
of a polarized draw unchanged."""

import json
import random
import re
from collections import Counter
from fractions import Fraction

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
from loghodge.model import canonical_json, direct_sum, model_to_json, replace

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


# the verbs whose document names branches: imhs's J={...} rows and
# decompose's J={...} and j=... rows
NAMES_BRANCHES = {"imhs", "decompose"}


def _permuted(model, perm):
    """The model with branch j renamed perm[j]."""
    back = [perm.index(k) for k in range(len(perm))]
    return replace(model, components=tuple(
        replace(c, alpha=tuple(c.alpha[j] for j in back),
                nilpotents=tuple(c.nilpotents[j] for j in back))
        for c in model.components))


def _renamed(doc, rename):
    """doc with each 1-based branch label b in a J={...} or j=... label
    replaced by rename(b), and every list of objects sorted, since a
    renaming reorders the rows it labels."""
    if isinstance(doc, dict):
        return {k: _renamed(v, rename) for k, v in doc.items()}
    if isinstance(doc, list):
        items = [_renamed(v, rename) for v in doc]
        if all(isinstance(v, dict) for v in items):
            items.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return items
    if isinstance(doc, str):
        doc = re.sub(r"J=\{([\d,]*)\}", lambda m: "J={%s}" % ",".join(
            map(str, sorted(rename(int(b)) for b in m[1].split(",") if b))),
            doc)
        return re.sub(r"(?<=[,\[])j=(\d+)",
                      lambda m: f"j={rename(int(m[1]))}", doc)
    return doc


@pytest.mark.parametrize("make", [random_pure_model, random_imhs_model],
                         ids=["pure", "imhs"])
@pytest.mark.parametrize("n, perms", [(2, [(1, 0)]),
                                      (3, [(2, 1, 0), (1, 2, 0)])],
                         ids=["n2", "n3"])
def test_a_permutation_of_the_branches_permutes_every_document(
        make, n, perms, tmp_path, capsys):
    """perm renames branch j (0-based) perm[j]: --z follows it, the labels
    of the permuted model's document map back under its inverse, and a
    document that names no branch is unchanged."""
    model_path, moved_path = tmp_path / "model.json", tmp_path / "moved.json"
    for seed in range(4):
        model = make(n, random.Random(seed), max_dim=MAX_DIM)
        model_path.write_text(canonical_json(model_to_json(model)))
        wants = [_run(model_path, variant, capsys) for variant in BASIS_FREE]
        for perm in perms:
            moved_path.write_text(canonical_json(model_to_json(
                _permuted(model, perm))))
            for variant, (code, doc) in zip(BASIS_FREE, wants):
                moved = [str(perm[int(a) - 1] + 1) if prev == "--z" else a
                         for prev, a in zip([None] + variant, variant)]
                got = _run(moved_path, moved, capsys)
                if variant[0] in NAMES_BRANCHES:
                    doc = _renamed(doc, lambda b: b)
                    got = got[0], _renamed(got[1],
                                           lambda b: perm.index(b - 1) + 1)
                assert got == (code, doc), (make.__name__, n, seed, perm,
                                            variant)


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


def twisted(model, alpha):
    """The single-component draw model with the exponents alpha."""
    (comp,) = model.components
    return replace(model, components=(replace(comp, alpha=alpha),))


# the verdict verbs whose documents read only complexes to which, at the
# origin, a component with some alpha_j != 0 adds nothing: in direction j
# every builder keeps the invertible residue alpha_j - N_j
TWIST_BLIND = [
    ["cohomology", "--complex", "ic"], ["cohomology", "--complex", "omega"],
    ["link"],
] + [["purity", "--mode", mode]
     for mode in ("open", "support", "closed", "compact")]


@pytest.mark.parametrize("make", [random_pure_model, random_imhs_model],
                         ids=["pure", "imhs"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_half_twisted_summand_leaves_every_verdict_unchanged(
        make, n, tmp_path, capsys):
    """The sum of a polarized draw and another draw with exponents 1/2 on
    the first branch or on every branch passes validate and imhs, and every
    TWIST_BLIND verb, and decompose's verdict, read it as the draw alone."""
    base_path, sum_path = tmp_path / "base.json", tmp_path / "sum.json"
    half, zero = Fraction(1, 2), Fraction(0)
    for seed in range(4):
        base = make(n, random.Random(seed), max_dim=MAX_DIM)
        other = make(n, random.Random(seed + 50), max_dim=MAX_DIM)
        if (base.base_weight, base.pairing_parity) != \
                (other.base_weight, other.pairing_parity):
            continue
        base_path.write_text(canonical_json(model_to_json(base)))
        for alpha in {(half,) + (zero,) * (n - 1), (half,) * n}:
            total = direct_sum(base, twisted(other, alpha))
            assert total.pairing is not None
            sum_path.write_text(canonical_json(model_to_json(total)))
            case = (make.__name__, n, seed, alpha)
            for verb in ("validate", "imhs"):
                assert _run(sum_path, [verb], capsys)[0] == 0, (case, verb)
            for variant in TWIST_BLIND:
                assert _run(sum_path, variant, capsys) == \
                    _run(base_path, variant, capsys), (case, variant)
            assert _run(sum_path, ["decompose"], capsys)[1]["verdict"] == \
                _run(base_path, ["decompose"], capsys)[1]["verdict"], case
