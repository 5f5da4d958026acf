import functools
import itertools
import random

import pytest

from loghodge.complexes import build_complex, build_ic_log, cohomology, dualize
from loghodge.decomposition import (
    _primitive_component,
    check_graded_decomposition,
    intersection_image,
    purity_check,
)
from loghodge.errors import ShapeError
from loghodge.filtrations import star
from loghodge.generate import random_imhs_model
from loghodge.linalg import evaluation
from loghodge.model import imhs_check, model_from_json

J2 = model_from_json({
    "branches": 1, "base_weight": 0, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]}],
    "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
})

RANK1 = model_from_json({
    "branches": 1, "base_weight": 0, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
    "W": [{"weight": 0, "basis": [["1"]]}],
    "S": {"matrix": [["1"]], "parity": 0},
})


def test_primitive_part_examples():
    # J2 and RANK1 have one component, so its part is the whole P^J_k
    # empty branch set: the whole graded piece
    assert _primitive_component(J2, 0, (), 0, None).dim == 2
    assert _primitive_component(J2, 0, (), 1, None).dim == 0
    # Jordan pair: only the coinvariant line survives at the shifted weight
    assert _primitive_component(J2, 0, (0,), 1, None).dim == 1
    assert _primitive_component(J2, 0, (0,), -1, None).dim == 0
    assert _primitive_component(J2, 0, (0,), 0, None).dim == 0
    # the translated-primitive totality forces the trivial line to appear at
    # the raised weight for the trivial system
    assert [_primitive_component(RANK1, 0, (0,), k, None).dim
            for k in (-1, 0, 1)] == [0, 1, 0]


def test_decomposition_jordan2_all_weights():
    for k in (-2, -1, 0, 1, 2):
        for which in ("omega", "ic"):
            rep = check_graded_decomposition(J2, k, which)
            assert rep.passed, (k, which,
                                [c.detail for c in rep.checks
                                 if c.status == "fail"])


def test_decomposition_rejects_unknown_kind():
    with pytest.raises(ShapeError):
        check_graded_decomposition(J2, 0, "nope")


def test_decomposition_on_fuzz_models():
    rng = random.Random(21)
    for _ in range(4):
        n = rng.randint(1, 2)
        model = random_imhs_model(n, rng, max_dim=5, with_pairing=False)
        with evaluation():
            labels = sorted({w for w in model.weight.jumps()} |
                            {w + 2 * n for w in model.weight.jumps()})
            for k in range(min(labels) - 1, max(labels) + 1):
                for which in ("omega", "ic"):
                    rep = check_graded_decomposition(model, k, which)
                    assert rep.passed, (k, which,
                                        [c.detail for c in rep.checks
                                         if c.status == "fail"])


def test_intersection_image_rank1_zero():
    assert intersection_image(RANK1, [0]) == []


def test_intersection_image_purity_on_fuzz():
    rng = random.Random(33)
    for _ in range(3):
        model = random_imhs_model(2, rng, max_dim=5)
        assert intersection_image(model, range(model.branches)) == []


def test_purity_check_modes():
    a, shift = J2.base_weight, J2.perverse_shift
    assert purity_check(cohomology(build_complex(J2, "star", [0])), a, shift,
                        "closed").passed
    assert purity_check(cohomology(build_complex(J2, "shriek", [0])), a, shift,
                        "support").passed
    assert purity_check(cohomology(build_ic_log(J2, [0])), a, shift,
                        "open").passed
    dual = dualize(build_ic_log(J2, [0]), a=a, top=1)
    assert purity_check(cohomology(dual), a, shift, "compact").passed


def test_purity_check_flags_violation():
    # hand-edit: evaluate the closed bound against a report whose weights sit
    # too high by pretending the center is lower
    rep = cohomology(build_complex(J2, "shriek", [0]))
    verdict = purity_check(rep, J2.base_weight - 5, J2.perverse_shift, "closed")
    assert not verdict.passed
    offending = [r for r in verdict.rows if not r.ok]
    assert offending and offending[0].degree == 2


def test_purity_rows_record_convention():
    verdict = purity_check(cohomology(build_complex(J2, "star", [0])), 0, 1, "closed")
    doc = verdict.to_json()
    assert doc["convention"] == "weight = label + (degree - shift)"
    assert doc["rows"]


def test_descent_strictness():
    # the filtration W^K of the ambient space induces, on the K-fold image,
    # the filtration obtained by starring and restricting one branch at a time
    import itertools

    from loghodge.filtrations import IncreasingFiltration, star
    from loghodge.linalg import Subquotient, Subspace, induced_map

    rng = random.Random(55)
    models = [J2] + [random_imhs_model(2, rng, max_dim=5, with_pairing=False)
                     for _ in range(3)]
    for model in models:
        n = model.branches
        for ci, comp in enumerate(model.components):
            for r in range(1, n + 1):
                for K in itertools.combinations(range(n), r):
                    sub = Subspace.full(comp.dim)
                    filt = model.on_component(model.weight, ci)
                    for j in K:
                        op = induced_map(comp.nilpotents[j], Subquotient.of(sub),
                                         Subquotient.of(sub))
                        starred = star(op, filt)
                        img = op.image()
                        inner = starred.project_to(Subquotient.of(img))
                        new_sub = Subspace.span(
                            [sub.from_coords(v) for v in img.basis], comp.dim)
                        filt = IncreasingFiltration(
                            new_sub.dim,
                            [(w, Subspace.span(
                                [Subquotient.of(new_sub).coords(sub.from_coords(
                                    img.from_coords(u)))
                                 for u in s.basis], new_sub.dim))
                             for w, s in inner.steps])
                        sub = new_sub
                    if sub.dim == 0:
                        continue
                    induced = model.wj(ci, frozenset(K)).project_to(
                        Subquotient.of(sub))
                    assert induced == filt, (ci, K)


def test_imhs_passing_models_never_lack_relative_filtrations():
    rng = random.Random(77)
    for _ in range(3):
        n = rng.randint(1, 3)
        model = random_imhs_model(n, rng, max_dim=5)
        assert imhs_check(model).passed
        for r in range(1, n + 1):
            for j_set in itertools.combinations(range(n), r):
                for ci, comp in enumerate(model.components):
                    wj = model.wj(ci, frozenset(j_set))
                    for perm in itertools.permutations(j_set):
                        assert functools.reduce(
                            lambda f, j: star(comp.nilpotents[j], f), perm,
                            model.on_component(model.weight, ci)
                        ) == wj, (ci, perm)


def test_intersection_image_zero_model():
    zero = model_from_json({
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0"], "dim": 0, "N": [[]]}],
        "W": [],
        "S": {"matrix": [], "parity": 0},
    })
    assert intersection_image(zero, [0]) == []
