import collections
import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import loghodge.model
from loghodge import filtrations, linalg
from loghodge.cli import main
from loghodge.errors import LogHodgeError, MissingHodgeFiltration, ParseError
from loghodge.complexes import alpha_ops
from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
    random_unimodular,
)
from loghodge.filtrations import DecreasingFiltration, IncreasingFiltration
from loghodge.linalg import Matrix, Subspace, hermitian_positive
from loghodge.model import (
    AlphaComponent,
    NCModel,
    _hodge_pieces,
    canonical_json,
    direct_sum,
    imhs_check,
    model_from_json,
    model_to_json,
    validate,
)
from loghodge.scalars import I, Scalar

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from side_ops import hodge_decomposes, unipotent_part

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

J2_WEIGHT1 = {
    "branches": 1, "base_weight": 1, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]}],
    "W": [{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
    "F": [{"p": 1, "basis": [["1*i", "1"]]}, {"p": 2, "basis": []}],
    "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
}

TRIVIAL = {
    "branches": 1, "base_weight": 0, "perverse_shift": 0,
    "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
    "W": [{"weight": 0, "basis": [["1"]]}],
    "F": [{"p": 1, "basis": []}],
    "S": {"matrix": [["1"]], "parity": 0},
}


def test_validate_passes_on_anchor():
    rep = validate(model_from_json(J2_WEIGHT1))
    assert rep.passed


def test_validate_flags_noncommuting():
    doc = {
        "branches": 2, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0", "0"], "dim": 2,
                        "N": [[["0", "1"], ["0", "0"]],
                              [["0", "0"], ["1", "0"]]]}],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    }
    rep = validate(model_from_json(doc))
    assert not rep.passed
    assert any(c.name == "NonCommutingOperators" and c.status == "fail"
               for c in rep.checks)


def test_validate_flags_unpreserved_filtration():
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]}],
        "W": [{"weight": 0, "basis": [["0", "1"]]},
              {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
    }
    rep = validate(model_from_json(doc))
    assert any(c.name == "FiltrationNotPreserved" and c.status == "fail"
               for c in rep.checks)


@pytest.mark.parametrize("w0, f1, weight_ok, hodge_ok", [
    (["1", "0"], ["0", "1"], True, True),
    (["1", "1"], ["0", "1"], False, True),
    (["1", "0"], ["1", "-1"], True, False),
])
def test_validate_flags_a_filtration_that_does_not_split(w0, f1, weight_ok,
                                                         hodge_ok):
    """Two lines of exponents 0 and 1/2: W_0 and F^1 split exactly when
    each is spanned by its intersections with the two lines."""
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": [a], "dim": 1, "N": [[["0"]]]}
                       for a in ("0", "1/2")],
        "W": [{"weight": 0, "basis": [w0]},
              {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
        "F": [{"p": 1, "basis": [f1]}, {"p": 2, "basis": []}],
    }
    rows = {c.name: c.status for c in validate(model_from_json(doc)).checks}
    assert rows["WeightRestrictsToComponents"] == \
        ("pass" if weight_ok else "fail")
    assert rows["HodgeRestrictsToComponents"] == \
        ("pass" if hodge_ok else "fail")


@pytest.mark.parametrize("s, restricts", [
    ([["0", "1"], ["1", "0"]], False),
    ([["1", "0"], ["0", "1"]], True),
    ([["1", "1"], ["1", "-1"]], False),   # pairs them off a nonzero diagonal
])
def test_validate_flags_a_pairing_of_distinct_components(s, restricts):
    """Two lines of exponents 0 and 1/2 with a symmetric nondegenerate S:
    the report, recorded when the row read S entry by entry, fails exactly
    PairingRestrictsToComponents when S pairs the two lines."""
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": [a], "dim": 1, "N": [[["0"]]]}
                       for a in ("0", "1/2")],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
        "S": {"matrix": s, "parity": 0},
    }
    rows = [(c.name, c.status, c.detail)
            for c in validate(model_from_json(doc)).checks]
    component = [("AlphaRange", "pass", ""), ("NilpotentOperators", "pass", ""),
                 ("NonCommutingOperators", "pass", "")]
    assert rows == 2 * component + [
        ("WeightRestrictsToComponents", "pass", ""),
        ("FiltrationNotPreserved", "pass", ""),
        ("HodgeChecks", "skip", "no Hodge filtration"),
        ("PairingShape", "pass", ""), ("PairingNondegenerate", "pass", ""),
        ("PairingParity", "pass", ""), ("InfinitesimalIsometry", "pass", ""),
        ("PairingRestrictsToComponents", *(
            ("pass", "") if restricts else
            ("fail", "S pairs distinct components")))]


def test_a_gaussian_pairing_of_the_two_lines_is_refused_at_load():
    """S = [[1, i], [i, 1]] would pair the two lines through imaginary
    entries only; S is defined over Q, and only F may be Gaussian."""
    doc = {"branches": 1, "base_weight": 0, "perverse_shift": 1,
           "components": [{"alpha": [a], "dim": 1, "N": [[["0"]]]}
                          for a in ("0", "1/2")],
           "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
           "S": {"matrix": [["1", "1*i"], ["1*i", "1"]], "parity": 0}}
    with pytest.raises(ParseError, match="^S must be rational$"):
        model_from_json(doc)


def test_a_rational_w_step_in_a_gaussian_basis_loads():
    """Rationality is read from the step's canonical basis."""
    doc = {**J2_WEIGHT1, "W": [{"weight": 1, "basis": [["1*i", "0"], ["1", "1*i"]]}]}
    assert model_to_json(model_from_json(doc)) == \
        model_to_json(model_from_json(J2_WEIGHT1))


def _splits(model, filt):
    """The reference: filt is the filtration_sum of its restrictions to the
    components (trivially so on fewer than two)."""
    comps = range(len(model.components))
    return len(comps) < 2 or filt == filtrations.filtration_sum(
        [(model.component_positions(ci), model.on_component(filt, ci))
         for ci in comps], model.total_dim)


def _restriction_variants(model, rng):
    """model, then copies with W and F moved across the whole space by a
    matrix over Z[i], and with F^1 spanned by one Gaussian vector inside
    each component (it splits) or by their sum (it does not, on two
    components or more)."""
    total = model.total_dim
    twist = Matrix([[int(r == c) + (I if (r, c) == (0, total - 1) else 0)
                     for c in range(total)] for r in range(total)])
    g = random_unimodular(total, rng) * twist
    yield model
    yield dataclasses.replace(model, **{
        name: type(f)(total, [(i, g.image(s)) for i, s in f.steps])
        for name, f in (("weight", model.weight), ("hodge", model.hodge))
        if f is not None})
    vecs = [[rng.randint(1, 3) + rng.randint(-2, 2) * I if i in pos else 0
             for i in range(total)]
            for pos in map(model.component_positions,
                           range(len(model.components)))]
    for span in (vecs, [[sum(col) for col in zip(*vecs)]]):
        yield dataclasses.replace(model, hodge=filtrations.DecreasingFiltration(
            total, [(1, linalg.Subspace.span(span, total)),
                    (2, linalg.Subspace.zero(total))]))


def test_restriction_rows_agree_with_summing_the_component_restrictions():
    """validate's two RestrictsToComponents rows, which read the stored
    rows, agree with the reference on spectral draws and on variants of
    them whose W or F have imaginary rows."""
    seen = collections.Counter()
    for n in range(4):
        for seed in range(10):
            rng = random.Random(seed)
            model = random_spectral_model(n, rng)
            for moved in _restriction_variants(model, rng):
                rows = {c.name: c.status for c in validate(moved).checks}
                for name, f in (("Weight", moved.weight),
                                ("Hodge", moved.hodge)):
                    if f is None:
                        continue
                    ok = _splits(moved, f)
                    row = f"{name}RestrictsToComponents"
                    assert rows[row] == ("pass" if ok else "fail"), \
                        (n, seed, row)
                    imaginary = any(r.im for _, s in f.steps for r in s.basis)
                    seen[ok, imaginary, len(moved.components) > 1] += 1
    # both verdicts, on several components, with and without imaginary rows
    assert all(seen[ok, im, True] for ok in (True, False)
               for im in (True, False)), seen


def test_validate_passes_a_model_with_no_component():
    doc = {"branches": 1, "base_weight": 0, "perverse_shift": 1,
           "components": [], "W": [], "F": []}
    assert validate(model_from_json(doc)).passed


def test_unipotent_part_examples():
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [
            {"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]},
            {"alpha": ["1/2"], "dim": 1, "N": [[["0"]]]},
        ],
        "W": [{"weight": 0, "basis": [["1", "0", "0"], ["0", "1", "0"],
                                      ["0", "0", "1"]]}],
    }
    m = model_from_json(doc)
    u = unipotent_part(m)
    assert u.total_dim == 2 and len(u.components) == 1
    assert unipotent_part(u).total_dim == 2
    no_unip = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [{"alpha": ["1/2"], "dim": 1, "N": [[["0"]]]}],
        "W": [{"weight": 0, "basis": [["1"]]}],
    }
    assert unipotent_part(model_from_json(no_unip)).total_dim == 0


def test_imhs_anchor_passes():
    assert imhs_check(model_from_json(J2_WEIGHT1)).passed


def test_imhs_rejects_f_line_in_kernel():
    doc = dict(J2_WEIGHT1)
    doc["F"] = [{"p": 1, "basis": [["1", "0"]]}, {"p": 2, "basis": []}]
    rep = imhs_check(model_from_json(doc))
    assert not rep.passed


# weight one, N = 0: H^{1,0} = span(e1 + i e2), on which x S conj(x)^T is
# -2i, so the form vanishes without the conjugation
ELLIPTIC = {
    "branches": 1, "base_weight": 1, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 2,
                    "N": [[["0", "0"], ["0", "0"]]]}],
    "W": [{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
    "F": [{"p": 1, "basis": [["1", "1*i"]]}, {"p": 2, "basis": []}],
    "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
}


@pytest.mark.parametrize("name", ["rank1_trivial", "jordan2_weight1",
                                  "j2xj2_weight2", "gen_pure_n2",
                                  "gen_pure_n3", "elliptic"])
def test_a_negated_pairing_fails_only_the_polarization_rows(name):
    """S polarizes each instance and -S, which passes every validate row
    too, does not: the form i^{p-q} S(N^k x, conj x) is negative definite
    on each primitive piece.  Every other imhs row passes both ways.  This
    pins the sign (jordan2_weight1 has k = 1) and the conjugation (the
    H^{1,0} of elliptic is not real) of the form."""
    good = model_from_json(ELLIPTIC) if name == "elliptic" else \
        loghodge.model.load_model(str(CORPUS / f"{name}.json"))
    bad = dataclasses.replace(good, pairing=good.pairing.scale(-1))
    assert imhs_check(good).passed and validate(bad).passed
    rows = imhs_check(bad).checks
    assert any(c.name.startswith("Polarization[w=") for c in rows)
    for c in rows:
        want = "fail" if c.name.startswith("Polarization[w=") else "pass"
        assert c.status == want, (c.name, c.status)


@st.composite
def _decreasing_flags(draw):
    """A weight w in -3..3 and F^p spanned by the drawn vectors of index
    >= p: at most four vectors over Z[i] with indices in -2..2, on a space
    of dimension <= 4, and in about half the draws also each conjugate at
    index w - p, which makes many of them Hodge of weight w."""
    d, w = draw(st.integers(0, 4)), draw(st.integers(-3, 3))
    mirror = draw(st.booleans())
    entry = st.builds(Scalar, st.integers(-1, 1), st.integers(-1, 1))
    vectors = draw(st.lists(st.tuples(
        st.integers(-2, 2), st.lists(entry, min_size=d, max_size=d)),
        min_size=d // 2 if mirror else 0, max_size=(d + 1) // 2 if mirror else d))
    if mirror:
        vectors += [(w - p, [x.conj() for x in v]) for p, v in vectors]
    labels = [p for p, _ in vectors] or [0]
    return DecreasingFiltration(d, [
        (p, Subspace.span([v for q, v in vectors if q >= p], d))
        for p in range(min(labels), max(labels) + 2)]), w


@settings(max_examples=400, deadline=None)
@given(flag=_decreasing_flags())
def test_hodge_pieces_decide_a_hodge_structure_as_its_definition(flag):
    """The verdict of _hodge_pieces is the definition's, F^p (+) conj
    F^{w-p+1} = V for every p, and its pieces run over lowest(F) - 1 <= p
    <= highest(F) + 1."""
    f, w = flag
    pieces, hodge = _hodge_pieces(f, w)
    event(f"hodge: {hodge}")
    assert hodge == hodge_decomposes(f, w)
    assert list(pieces) == list(range(f.lowest() - 1, f.highest() + 2))


@pytest.mark.parametrize("w", range(-3, 4))
def test_a_line_with_f0_whole_and_f1_zero_is_hodge_only_at_weight_zero(w):
    """Its pieces over lowest(F) - 1 <= p <= highest(F) + 1 are H^{0,w} = V
    and zeros at every w <= 0; only the bound F^{w+1} = 0 rules out w < 0."""
    line = DecreasingFiltration(1, [(1, Subspace.zero(1))])
    assert _hodge_pieces(line, w)[1] == hodge_decomposes(line, w) == (w == 0)


def _non_hodge_twin(model, rng):
    """model with F moved by a seeded elementary unipotent g (a Gaussian
    entry off the diagonal), the first of eight draws under which the model
    still passes validate, then shifted by s in -1..2.  Generator draws are
    Hodge by construction; the twin often is not."""
    n, f = model.total_dim, model.hodge
    for _ in range(8):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = Scalar(rng.randint(-2, 2), rng.choice((-1, 1)))
        g = Matrix([[int(i == j) + (c if (i, j) == (a, b) != (j, i) else 0)
                     for j in range(n)] for i in range(n)])
        twin = dataclasses.replace(model, hodge=type(f)(
            n, [(p, g.image(sub)) for p, sub in f.steps]))
        if validate(twin).passed:
            break
    else:
        twin = model
    shift = rng.choice((0, 0, 1, 2, -1))
    return dataclasses.replace(twin, hodge=twin.hodge.shift(shift))


# sha256 of the reports of test_imhs_on_non_hodge_twins_keeps_its_digest,
# recorded when the Polarization rows began to check the first Hodge-Riemann
# relation, which failed 59 twin rows that had passed
_NON_HODGE_DIGEST = "429ed75ed1fdff8024014c7660142e1eea2ab136f71c734df6074580e575a8a3"


def test_imhs_on_non_hodge_twins_keeps_its_digest():
    """The pure and imhs draws at n = 0, seeds 0-59, and n = 1..3, seeds
    0-24, each with its non-Hodge twin: 540 reports, whose failing rows
    reach every Hodge row, pinned byte for byte.  No Polarization[w=i]
    passes where OrbitHodgeStructure[w=i] fails."""
    rng, digest = random.Random(35), hashlib.sha256()
    failing = collections.Counter()
    for n, seeds in ((0, range(60)), (1, range(25)), (2, range(25)), (3, range(25))):
        for gen, make in (("pure", random_pure_model), ("imhs", random_imhs_model)):
            for seed in seeds:
                draw = make(n, random.Random(seed))
                twin = _non_hodge_twin(draw, rng)
                assert validate(twin).passed
                for kind, instance in (("draw", draw), ("twin", twin)):
                    with linalg.evaluation():
                        report = imhs_check(instance)
                    out = json.dumps(report.to_json(), sort_keys=True)
                    digest.update(f"{gen}{n}-{seed} {kind} {out}\n".encode())
                    failing.update(c.name.split("[")[0] for c in report.checks
                                   if c.status == "fail")
                    status = {c.name: c.status for c in report.checks}
                    assert not any(
                        st == "pass" and status.get("OrbitHodgeStructure" + name
                                                    .removeprefix("Polarization")) == "fail"
                        for name, st in status.items() if name.startswith("Polarization["))
    for row in ("OrbitHodgeStructure", "TotalGradedMHS",
                "WeightCompatibleWithMHS", "Polarization"):
        assert failing[row], row
    assert digest.hexdigest() == _NON_HODGE_DIGEST


def test_imhs_needs_hodge():
    doc = {k: v for k, v in J2_WEIGHT1.items() if k != "F"}
    with pytest.raises(MissingHodgeFiltration):
        imhs_check(model_from_json(doc))


def test_imhs_trivial_passes():
    assert imhs_check(model_from_json(TRIVIAL)).passed


def test_imhs_monotone_under_direct_sum():
    good = model_from_json(J2_WEIGHT1)
    assert imhs_check(direct_sum(good, good)).passed
    bad_doc = dict(J2_WEIGHT1)
    bad_doc["F"] = [{"p": 1, "basis": [["1", "0"]]}, {"p": 2, "basis": []}]
    bad = model_from_json(bad_doc)
    assert not imhs_check(direct_sum(good, bad)).passed


def test_unipotent_part_commutes_with_direct_sum():
    doc = {
        "branches": 1, "base_weight": 0, "perverse_shift": 0,
        "components": [
            {"alpha": ["0"], "dim": 1, "N": [[["0"]]]},
            {"alpha": ["1/3"], "dim": 1, "N": [[["0"]]]},
        ],
        "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    }
    m = model_from_json(doc)
    s = direct_sum(m, m)
    lhs = unipotent_part(s)
    rhs = direct_sum(unipotent_part(m), unipotent_part(m))
    assert canonical_json(model_to_json(lhs)) == canonical_json(model_to_json(rhs))


def test_json_roundtrip_byte_stable():
    m = model_from_json(J2_WEIGHT1)
    once = canonical_json(model_to_json(m))
    twice = canonical_json(model_to_json(model_from_json(json.loads(once))))
    assert once == twice


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d.pop("W"),
    lambda d: d["components"][0].update(alpha=["3/2"]),
    lambda d: d["components"][0].update(N=[[["0", "1"]]]),
    lambda d: d.update(branches=-1),
    lambda d: d["components"].append(dict(d["components"][0])),
])
def test_parse_rejections(mutate):
    doc = json.loads(json.dumps(J2_WEIGHT1))
    mutate(doc)
    with pytest.raises(ParseError):
        model_from_json(doc)


# every mutation keeps the document loadable if a boolean counted as 1
@pytest.mark.parametrize("mutate", [
    lambda d: d.update(branches=True),
    lambda d: d.update(base_weight=True),
    lambda d: d.update(perverse_shift=True),
    lambda d: d["components"][0].update(dim=True),
    lambda d: d["W"][0].update(weight=True),
    lambda d: d["F"][0].update(p=True),
    lambda d: d["S"].update(parity=True),
], ids=["branches", "base_weight", "perverse_shift", "dim", "W.weight", "F.p",
        "S.parity"])
def test_json_booleans_are_not_integers(mutate, tmp_path, capsys):
    doc = copy.deepcopy(TRIVIAL)
    mutate(doc)
    with pytest.raises(ParseError):
        model_from_json(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "error"


@pytest.mark.parametrize("name", ["monodromy_filtration",
                                  "relative_monodromy_filtration"])
def test_imhs_lets_internal_errors_propagate(monkeypatch, name):
    def broken(*args, **kwargs):
        raise RuntimeError("internal bug")

    # without S no polarization check runs, so only the guarded calls remain
    doc = {k: v for k, v in J2_WEIGHT1.items() if k != "S"}
    monkeypatch.setattr(loghodge.model, name, broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        imhs_check(model_from_json(doc))


small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def hermitian_matrices(draw):
    """Hermitian n x n (n <= 4) with denominators up to 3, sometimes made
    non-Hermitian by one entry."""
    n = draw(st.integers(0, 4))
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Scalar(draw(st.builds(Fraction, st.integers(-2, 6),
                                           st.integers(1, 3))))
        for j in range(i + 1, n):
            rows[i][j] = Scalar(draw(small), draw(small))
            rows[j][i] = rows[i][j].conj()
    if n and draw(st.booleans()) and draw(st.booleans()):
        rows[0][n - 1] = rows[0][n - 1] + Scalar(0, 1)
    return Matrix(rows, cols=n)


def leibniz_det(rows):
    total = Scalar(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = Scalar(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@settings(max_examples=300)
@given(hermitian_matrices())
@example(Matrix([], cols=0))                            # 0 x 0: positive
@example(Matrix([[0]]))                                 # a zero pivot
@example(Matrix([[0, 0], [0, 1]]))                      # a zero first pivot
@example(Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))     # a zero later pivot
@example(Matrix([[1, 2], [2, 1]]))                      # D_1 > 0, D_2 < 0
@example(Matrix([[2, 1, 0], [1, 2, 1], [0, 1, -1]]))    # D_1, D_2 > 0, D_3 < 0
@example(Matrix([[1, 1], [0, 1]]))                      # h^* != h, pivots > 0
@example(Matrix([[2, "1*i"], ["1*i", 2]]))              # symmetric, h^* != h
@example(Matrix([["1/2", "1/3*i"], ["-1/3*i", "1/3"]]))  # positive over den 6
def test_hermitian_positive_is_sylvesters_criterion(h):
    # every leading principal minor real and > 0, by the permutation formula
    minors = [leibniz_det([r[:k] for r in h.entries[:k]])
              for k in range(1, h.rows + 1)]
    expected = (h.transpose().conj() == h
                and all(not d.im and d.re > 0 for d in minors))
    assert hermitian_positive(h) == expected


def riemann_model(z):
    """Weight 1 on Q(i)^{2g}, N = 0, S the standard symplectic form
    (S(e_a, f_b) = delta_ab) and F^1 spanned by the rows e_a + sum_b Z_ab f_b."""
    g = len(z)
    n = 2 * g
    unit = [[int(a == b) for b in range(g)] for a in range(g)]
    zero = [[0] * g for _ in range(g)]
    s = Matrix([u + v for u, v in zip(zero, unit)]
               + [[-x for x in u] + v for u, v in zip(unit, zero)])
    f1 = Subspace.span([u + list(r) for u, r in zip(unit, z)], n)
    return NCModel(1, (AlphaComponent((Fraction(0),), n, (Matrix.zero(n, n),)),),
                   1, 1, IncreasingFiltration.pure(n, 1),
                   DecreasingFiltration(n, [(1, f1), (2, Subspace.zero(n))]), s, 1)


@st.composite
def period_matrices(draw):
    """Z over Z[i], g <= 3, half of them symmetric, Im Z often positive."""
    g = draw(st.integers(1, 3))
    symmetric = draw(st.booleans())
    z = [[None] * g for _ in range(g)]
    for a in range(g):
        for b in range(g):
            if symmetric and b < a:
                z[a][b] = z[b][a]
            else:
                im = draw(st.integers(-1, 4) if a == b else st.integers(-1, 1))
                z[a][b] = Scalar(draw(st.integers(-2, 2)), im)
    return z


@settings(max_examples=150, deadline=None)
@given(period_matrices())
@example([[Scalar(0, 1)]])
@example([[Scalar(0, -1)]])
@example([[Scalar(0, 1), Scalar(1)], [Scalar(0), Scalar(0, 1)]])
def test_imhs_on_a_weight_one_period_matrix_is_riemanns_conditions(z):
    """F^1 = span(e_a + sum_b Z_ab f_b) is polarized by the symplectic S
    exactly when Z is symmetric and Im Z is positive definite."""
    g = len(z)
    im = [[Scalar(z[a][b].im) for b in range(g)] for a in range(g)]
    polarized = all(z[a][b] == z[b][a] for a in range(g) for b in range(g)) \
        and all(leibniz_det([r[:k] for r in im[:k]]).re > 0
                for k in range(1, g + 1))
    model = riemann_model(z)
    assert validate(model).passed
    with linalg.evaluation():
        assert imhs_check(model).passed == polarized


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(NCModel)])
def test_model_fields_cannot_be_assigned(name):
    model = model_from_json(J2_WEIGHT1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(model, name, getattr(model, name))
    # nor can an attribute be added after construction
    with pytest.raises(dataclasses.FrozenInstanceError):
        model._wj_cache = {}


def test_wj_outside_an_evaluation_is_the_star_fold():
    """With no memo open, W^J is W on the component with star applied for
    each branch of J in increasing order."""
    model = random_pure_model(3, random.Random(72))
    assert linalg._MEMO.get() is None
    for ci, comp in enumerate(model.components):
        for r in range(model.branches + 1):
            for J in itertools.combinations(range(model.branches), r):
                expected = model.on_component(model.weight, ci)
                for j in sorted(J):
                    expected = filtrations.star(comp.nilpotents[j], expected)
                assert model.wj(ci, frozenset(J)) == expected


def _gaussian(model):
    """The model with every N_j times 1 + i: Gaussian operator entries."""
    return dataclasses.replace(model, components=tuple(
        dataclasses.replace(c, nilpotents=tuple(
            n.scale(Scalar(1, 1)) for n in c.nilpotents))
        for c in model.components))


def _draws():
    rng = random.Random(14)
    for n in (1, 2, 3):
        for make in (random_imhs_model, random_pure_model, random_spectral_model):
            model = make(n, rng)
            yield model
            yield _gaussian(model)


def _n_of_t(model, branches, t):
    """sum_k t[k] N_{branches[k]} on the total space."""
    n = model.total_dim
    return linalg.combination(t, [model.nilpotent(j) for j in branches], n, n)


def test_nilpotent_sum_is_the_scale_and_add_fold():
    """nilpotent_sum, and _n_of_t at Fraction t, on the total space equal the
    entrywise sum of the component blocks, for every branch list (the empty
    one included), on rational and Gaussian operators."""
    rng = random.Random(5)
    for model in _draws():
        n = model.total_dim
        block = [None] * n      # coordinate -> (component, index inside it)
        for ci in range(len(model.components)):
            for i, p in enumerate(model.component_positions(ci)):
                block[p] = (ci, i)
        for r in range(model.branches + 1):
            for branches in itertools.combinations(range(model.branches), r):
                t = [Fraction(rng.randint(1, 7), rng.randint(1, 5))
                     for _ in branches]
                for coeffs in (None, t):
                    ts = [1] * r if coeffs is None else coeffs
                    want = [[sum((Scalar(s) * model.components[block[p][0]]
                                  .nilpotents[j].entries[block[p][1]][block[q][1]]
                                  for s, j in zip(ts, branches)), Scalar(0))
                             if block[p][0] == block[q][0] else Scalar(0)
                             for q in range(n)] for p in range(n)]
                    got = model.nilpotent_sum(branches) if coeffs is None \
                        else _n_of_t(model, branches, coeffs)
                    assert got == Matrix(want, cols=n)
        for j in range(model.branches):
            assert model.nilpotent(j) == model.nilpotent_sum([j])


@pytest.mark.parametrize("name", ["nilpotent", "powers", "alpha_ops"])
def test_operators_are_remembered_inside_an_evaluation(name):
    """N_j, the power tower of N_j and the alpha Id - N_j of a component are
    built once per evaluation; outside one each call builds them again."""
    model = random_spectral_model(2, random.Random(3))
    build = {
        "nilpotent": lambda: model.nilpotent(1),
        "powers": lambda: model.nilpotent(0).powers(),
        "alpha_ops": lambda: alpha_ops(model.components[0]),
    }[name]
    with linalg.evaluation():
        first = build()
        assert build() is first
    again = build()
    assert again == first and again is not first and build() is not again


# -- the sampled t: decided on graded blocks, against building at every t ----

def _opposite_branches(weight_doc):
    """Two branches with N_2 = -N_1 = -J2 on a plane, so N(t) = (t_1 - t_2) J2
    is zero at t = (1, 1) and not at every sampled t."""
    return model_from_json({
        "branches": 2, "base_weight": 1, "perverse_shift": 1,
        "components": [{"alpha": ["0", "0"], "dim": 2,
                        "N": [[["0", "1"], ["0", "0"]], [["0", "-1"], ["0", "0"]]]}],
        "W": weight_doc, "F": J2_WEIGHT1["F"]})


SAMPLED_ROWS = ("OrbitTIndependence", "RelativeMonodromy")
DEPENDS = "relative filtration depends on the scaling vector"


def _built_at_every_t(model):
    """The sampled rows of imhs_check, each filtration built at t = (1, ...,
    1) and at every t of _later_t_vectors, with no test of a held one; and
    the names of the rows whose build raises at a later t only."""
    samples = [(1,) * model.branches,
               *loghodge.model._later_t_vectors(model.branches)]
    rows, raised = [], set()
    for i in model.weight.jumps():
        gr = model.weight.graded_piece(i)
        fs = [filtrations.monodromy_filtration(linalg.induced_map(
            _n_of_t(model, range(model.branches), t), gr, gr), i)
            for t in samples]
        same = all(f == fs[0] for f in fs)
        rows.append((f"OrbitTIndependence[w={i}]", "pass" if same else "fail",
                     "" if same else
                     "monodromy filtration depends on the scaling vector"))
    for r in range(1, model.branches + 1):
        for subset in itertools.combinations(range(model.branches), r):
            names = ",".join(str(j + 1) for j in subset)
            name = f"RelativeMonodromy[J={{{names}}}]"
            ok, detail, fs = True, "", []
            try:
                for t in samples:
                    fs.append(filtrations.relative_monodromy_filtration(
                        _n_of_t(model, subset, [t[j] for j in subset]),
                        model.weight))
            except LogHodgeError as exc:
                ok, detail = False, str(exc)
                if fs:
                    raised.add(name)
            if ok and any(f != fs[0] for f in fs):
                ok, detail = False, DEPENDS
            for j in subset if ok else ():
                if fs[0].first_violation(model.nilpotent(j), fs[0], -2) is not None:
                    detail = f"N_{j + 1} does not shift M(J) by -2"
            rows.append((name, "fail" if detail else "pass", detail))
    return rows, raised


def _sampled_rows(report):
    return [(c.name, c.status, c.detail) for c in report.checks
            if c.name.startswith(SAMPLED_ROWS)]


def _assert_agrees_with_building(report, model):
    """The sampled rows have the statuses of building at every t, and the
    details too, except where a build raises at a later t: imhs builds at
    t = (1, ..., 1) only and reports such a row as t-dependent."""
    got, (want, raised) = _sampled_rows(report), _built_at_every_t(model)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert [row for row in got if row[0] not in raised] == \
        [row for row in want if row[0] not in raised]


@pytest.mark.parametrize("weight_doc, built", [
    # W pure: W(N(t)) is pure at t = (1, 1) and the J2 filtration elsewhere
    ([{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}], DEPENDS),
    # W_0 = ker J2: M(0, W) = W exists, M(c J2, W) does not for c != 0
    ([{"weight": 0, "basis": [["1", "0"]]},
      {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
     "no admissible lift for a chain of length 1 over weight 1"),
])
def test_a_t_dependent_orbit_reports_what_building_at_every_t_gives(
        weight_doc, built):
    model = _opposite_branches(weight_doc)
    assert ("RelativeMonodromy[J={1,2}]", "fail", built) in \
        _built_at_every_t(model)[0]
    for memo in (linalg.evaluation(), contextlib.nullcontext()):
        with memo:
            report = imhs_check(model)
        _assert_agrees_with_building(report, model)
        assert ("RelativeMonodromy[J={1,2}]", "fail", DEPENDS) in \
            _sampled_rows(report)


def test_a_later_t_failing_the_block_test_reports_what_building_gives():
    """N_1 e1 = N_2 e1 = e3, N_1 e2 = 15 e4 and N_2 e2 = -4 e4: the blocks
    apply, and N(t) kills e2 at the second later t = (1/3, 5/4) only, where
    the block test fails."""
    zero = ["0"] * 4
    n1, n2 = ([zero, zero, ["1", "0", "0", "0"], ["0", c, "0", "0"]]
              for c in ("15", "-4"))
    model = model_from_json({
        "branches": 2, "base_weight": 0, "perverse_shift": 2,
        "components": [{"alpha": ["0", "0"], "dim": 4, "N": [n1, n2]}],
        "W": [{"weight": 0, "basis": [[str(int(i == j)) for j in range(4)]
                                      for i in range(4)]}],
        "F": [{"p": 1, "basis": []}]})
    assert loghodge.model._later_t_vectors(2)[1] == (Fraction(1, 3),
                                                     Fraction(5, 4))
    want, raised = _built_at_every_t(model)
    assert not raised
    assert ("OrbitTIndependence[w=0]", "fail",
            "monodromy filtration depends on the scaling vector") in want
    assert ("RelativeMonodromy[J={1,2}]", "fail", DEPENDS) in want
    with linalg.evaluation():
        assert _sampled_rows(imhs_check(model)) == want


# N_j = c_j N on the one branch of an imhs draw: where the c_j t_j sum to
# zero at a sampled t, N(t) vanishes there and the t-clauses fail
PULLBACKS = ((1, 1), (1, 2), (1, -1), (2, -1), (1, 1, 1), (2, 1, 3), (1, -2, 1))


def _pullback(model, c):
    """model, of one branch, on len(c) branches with N_j = c_j N."""
    return dataclasses.replace(model, branches=len(c), components=tuple(
        AlphaComponent(comp.alpha * len(c), comp.dim,
                       tuple(comp.nilpotents[0].scale(x) for x in c))
        for comp in model.components))


def _sampled_draw(draw):
    """imhs and pure draws at n = 1, 2, 3, three generator seeds each; then
    the pullbacks of the n = 1 imhs draws of seeds 0, 1, 2."""
    if draw < 18:
        return (random_imhs_model, random_pure_model)[draw % 2](
            1 + draw // 2 % 3, random.Random(draw))
    seed, c = divmod(draw - 18, len(PULLBACKS))
    return _pullback(random_imhs_model(1, random.Random(seed)), PULLBACKS[c])


@pytest.mark.parametrize("draw", range(18 + 3 * len(PULLBACKS)))
def test_sampled_rows_equal_building_at_every_t_on_generated_draws(draw):
    model = _sampled_draw(draw)
    with linalg.evaluation():
        report = imhs_check(model)
    _assert_agrees_with_building(report, model)


def test_a_passing_orbit_builds_each_relative_filtration_once(monkeypatch):
    """N(t) is summed and each filtration built once per branch subset, at
    the first t.  The three later t of a subset of two or more branches are
    decided on graded blocks, one block test per subset and one on the
    Gr^W of gen_pure_n3; a one-branch subset builds no block test, as
    t_j N_j has the filtrations of N_j.  W(N) is built once on each Gr^W,
    as M(N, W) over that pure piece: one relative build more per Gr^W.  No
    memo is open, so every build is counted; W(N), which has no memo of its
    own, is counted where imhs_check reads it."""
    calls = collections.Counter()

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(loghodge.model, "monodromy_filtration", counting(
        "monodromy_filtration", loghodge.model.monodromy_filtration))
    build = filtrations.relative_monodromy_filtration
    monkeypatch.setattr(build, "__wrapped__", counting(
        "relative_monodromy_filtration", build.__wrapped__))
    monkeypatch.setattr(loghodge.model, "axioms_in_t",
                        counting("axioms_in_t", filtrations.axioms_in_t))
    monkeypatch.setattr(NCModel, "nilpotent_sum",
                        counting("nilpotent_sum", NCModel.nilpotent_sum))
    for name, counts in (
            ("gen_pure_n3", {"nilpotent_sum": 7, "axioms_in_t": 5,
                             "monodromy_filtration": 1,
                             "relative_monodromy_filtration": 7 + 1}),
            ("jordan2_weight1", {"nilpotent_sum": 1,
                                 "monodromy_filtration": 1,
                                 "relative_monodromy_filtration": 1 + 1})):
        calls.clear()
        instance = loghodge.model.load_model(str(CORPUS / f"{name}.json"))
        assert imhs_check(instance).passed
        assert calls == counts, name


# -- no verb gives a verdict on an instance that fails validate ---------------

def _non_commuting_plane(with_pairing, branches):
    """N_1 = E12 and N_2 = E21 on a plane, and for three branches N_3 = -E21,
    so N(1, 1, 1) = E12 is nilpotent while the N_j do not commute."""
    ops = [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]],
           [["0", "0"], ["-1", "0"]]][:branches]
    doc = {"branches": branches, "base_weight": 1, "perverse_shift": branches,
           "components": [{"alpha": ["0"] * branches, "dim": 2, "N": ops}],
           "W": [{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
           "F": [{"p": 1, "basis": [["1", "0"]]}, {"p": 2, "basis": []}]}
    if with_pairing:
        doc["S"] = {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1}
    return doc


@pytest.mark.parametrize("with_pairing", [True, False])
@pytest.mark.parametrize("branches", [2, 3])
def test_imhs_and_cohomology_name_the_failed_validate_row_of_a_non_commuting_plane(
        with_pairing, branches, tmp_path, capsys):
    """imhs refuses the plane at the gate; cohomology reports on any
    instance, and its error on this one names the row validate fails."""
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(_non_commuting_plane(with_pairing, branches)))
    for argv in (["imhs"], ["cohomology", "--complex", "ic"]):
        assert main(argv + [str(path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert "results" not in doc and doc["error"] == (
            "loghodge.errors.InvalidModel: instance fails validate: "
            "NonCommutingOperators")


@pytest.mark.parametrize("with_pairing", [True, False])
@pytest.mark.parametrize("verb, branches", [("star", 2), ("relmono", 3)])
def test_star_and_relmono_pass_on_a_non_commuting_plane(
        verb, branches, with_pairing, tmp_path, capsys):
    """The plane fails validate, and star and relmono report on it: their
    "pass" says only that the filtration was built for the operators they
    read, N_1 and W for star, and N(1, 1, 1) = E12 and W for relmono,
    which gives M(E12, W)."""
    doc = _non_commuting_plane(with_pairing, branches)
    assert not validate(model_from_json(doc)).passed
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    assert main([verb, str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    filt = [{"basis": [["1", "0"]], "weight": 0},
            {"basis": [["1", "0"], ["0", "1"]], "weight": 2}]
    want = {"star": filt} if verb == "star" else \
        {"branches": [1, 2, 3], "relative_monodromy": filt}
    assert out["verdict"] == "pass"
    assert canonical_json(out["results"]) == canonical_json(want)


def test_a_report_verb_error_on_a_valid_instance_is_kept(tmp_path, capsys):
    """W_0 = ker J2 passes validate and M(J2, W) does not exist: relmono
    reports that error, not a validate row."""
    model = _opposite_branches([{"weight": 0, "basis": [["1", "0"]]},
                                {"weight": 1, "basis": [["1", "0"], ["0", "1"]]}])
    assert validate(model).passed
    path = tmp_path / "kernel_w.json"
    path.write_text(canonical_json(model_to_json(model)))
    assert main(["relmono", "--z", "1", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "loghodge.errors.RelativeMonodromyNonexistent: no admissible lift "
        "for a chain of length 1 over weight 1")


# -- loading: canonical step bases are taken as they are ----------------------

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.json")
                      if not p.name.endswith(".expected.json"))
COEFFS = [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 3)), Scalar(1, 1),
          Scalar(0, -2)]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CORPUS_NAMES), seed=st.integers(0, 10 ** 6))
def test_any_basis_of_the_same_steps_loads_to_the_same_model(name, seed):
    """Each step basis of W and F shuffled, each row scaled by a nonzero
    Gaussian rational and another row added to it: the same subspaces, so
    the same canonical document."""
    rng = random.Random(seed)
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    want = canonical_json(model_to_json(model_from_json(doc)))
    for step in doc["W"] + doc.get("F", []):
        rows = [linalg.parse_row(r) for r in step["basis"]]
        rng.shuffle(rows)
        for k in range(len(rows)):
            c = rng.choice(COEFFS)
            mixed = [c * e for e in rows[k]]
            if len(rows) > 1:
                other = rows[rng.choice([j for j in range(len(rows)) if j != k])]
                d = rng.choice(COEFFS)
                mixed = [x + d * y for x, y in zip(mixed, other)]
            rows[k] = linalg.as_vector(mixed)
        step["basis"] = [[str(e) for e in r] for r in rows]
    assert canonical_json(model_to_json(model_from_json(doc))) == want


def test_a_non_canonical_basis_is_eliminated_and_a_canonical_one_is_not(
        monkeypatch):
    calls = []
    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows, width: calls.append(1) or real_rref(rows, width))
    full = [["1", "0"], ["0", "1"]]
    for basis, eliminations in ((full, 0), ([["2", "0"], ["1", "1"]], 1),
                                ([["0", "1"], ["1", "0"]], 1),
                                ([["1", "1"], ["0", "1"]], 1)):
        del calls[:]
        w = filtrations.IncreasingFiltration.from_json(
            [{"weight": 0, "basis": basis}], 2)
        assert w.to_json() == [{"weight": 0, "basis": full}]
        assert len(calls) == eliminations


def test_an_imaginary_pivot_is_found_and_eliminated():
    """(i, 1, 0) has its pivot in column 0: its RREF is (1, -i, 0)."""
    row = linalg.parse_row(["1*i", "1", "0"])
    assert not linalg.is_rref([row], 3)
    f = filtrations.DecreasingFiltration.from_json(
        [{"p": 1, "basis": [["1*i", "1", "0"]]}, {"p": 2, "basis": []}], 3)
    assert f.to_json() == [{"p": 1, "basis": [["1", "-1*i", "0"]]},
                           {"p": 2, "basis": []}]
    assert linalg.is_rref([linalg.parse_row(["1", "-1*i", "0"])], 3)


@pytest.mark.parametrize("bad, message", [
    ("2/4", "scalar '2/4' is not in lowest terms"),
    ("04", "malformed scalar '04'"),
    ("-0", "malformed scalar '-0'"),
    (1, "scalar must be a string, got int"),
    (None, "scalar must be a string, got NoneType"),
])
@pytest.mark.parametrize("where", ["N", "W", "F", "S"])
def test_a_bad_scalar_raises_the_parse_error_of_parse_scalar(bad, message,
                                                             where):
    doc = copy.deepcopy(J2_WEIGHT1)
    row = {"N": doc["components"][0]["N"][0][1], "W": doc["W"][0]["basis"][1],
           "F": doc["F"][0]["basis"][0], "S": doc["S"]["matrix"][1]}[where]
    row[1] = bad
    with pytest.raises(ParseError) as info:
        model_from_json(doc)
    assert str(info.value) == message
