import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loghodge import complexes

from loghodge.complexes import (
    ComplexMap,
    FilteredComplex,
    build_complex,
    build_ic,
    build_ic_log,
    build_omega,
    cohomology,
    cone,
    dual_cohomology,
    dualize,
    intersection_morphism,
    kind_cohomology,
    link_cohomology,
    link_complex,
    quotient_complex,
)
from loghodge.errors import FiltrationNotPreserved, ShapeError
from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
)
from loghodge.filtrations import DecreasingFiltration, IncreasingFiltration
from loghodge.linalg import Matrix, Subspace, as_vector, evaluation
from loghodge.model import (
    canonical_json,
    load_model,
    model_from_json,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inclusion import ic_into_iclog
from side_ops import same_complex, unipotent_part
from test_verb_contract import _sweep_draws

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

RANK1 = model_from_json({
    "branches": 1, "base_weight": 0, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
    "W": [{"weight": 0, "basis": [["1"]]}],
    "F": [{"p": 1, "basis": []}],
    "S": {"matrix": [["1"]], "parity": 0},
})

J2 = model_from_json({
    "branches": 1, "base_weight": 1, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]}],
    "W": [{"weight": 1, "basis": [["1", "0"], ["0", "1"]]}],
    "F": [{"p": 1, "basis": [["1*i", "1"]]}, {"p": 2, "basis": []}],
    "S": {"matrix": [["0", "1"], ["-1", "0"]], "parity": 1},
})

HALF = model_from_json({
    "branches": 1, "base_weight": 0, "perverse_shift": 1,
    "components": [{"alpha": ["1/2"], "dim": 1, "N": [[["0"]]]}],
    "W": [{"weight": 0, "basis": [["1"]]}],
})

TWO_BRANCH = model_from_json({
    "branches": 2, "base_weight": 0, "perverse_shift": 2,
    "components": [{"alpha": ["0", "0"], "dim": 2,
                    "N": [[["0", "1"], ["0", "0"]],
                          [["0", "0"], ["0", "0"]]]}],
    "W": [{"weight": 0, "basis": [["1", "0"], ["0", "1"]]}],
    "S": {"matrix": [["0", "1"], ["1", "0"]], "parity": 0},
})


def dims_of(c):
    h = cohomology(c)
    return {k: h.dim(k) for k in sorted(h.degrees) if h.dim(k)}


def test_omega_rank1():
    h = cohomology(build_omega(RANK1))
    assert dims_of(build_omega(RANK1)) == {0: 1, 1: 1}
    assert h.profile() == {0: {0: 1}, 1: {1: 1}}


def test_omega_alpha_half_acyclic():
    assert dims_of(build_omega(HALF)) == {}


def test_omega_jordan2():
    assert dims_of(build_omega(J2)) == {0: 1, 1: 1}


def test_ic_examples():
    assert dims_of(build_ic(J2)) == {0: 1}
    assert dims_of(build_ic(RANK1)) == {0: 1}
    assert dims_of(build_ic(TWO_BRANCH)) == {0: 1}


def test_iclog_boundaries():
    for model in (RANK1, J2, TWO_BRANCH):
        assert same_complex(build_ic_log(model, []), build_ic(model))
        allz = range(model.branches)
        assert same_complex(build_ic_log(model, allz),
                            build_omega(unipotent_part(model)))


def test_iclog_displayed_diagram():
    # two branches, full spaces along logged directions, nilpotent differentials
    log = build_ic_log(TWO_BRANCH, [0, 1])
    assert [log.term_dim(k) for k in range(3)] == [2, 4, 2]


def test_iclog_bad_branch():
    with pytest.raises(ShapeError):
        build_ic_log(J2, [5])


def test_cone_of_identity_acyclic():
    c = build_ic(J2)
    ident = ComplexMap(c, c, {k: Matrix.identity(c.term_dim(k))
                              for k in c.degrees()})
    assert dims_of(cone(ident)) == {}


def test_cone_of_zero_splits():
    a, b = build_ic(J2), build_omega(J2)
    zero = ComplexMap(a, b, {})
    h = cohomology(cone(zero))
    ha, hb = cohomology(a), cohomology(b)
    for k in h.degrees:
        assert h.dim(k) == ha.dim(k + 1) + hb.dim(k)


def test_shriek_examples():
    assert dims_of(build_complex(J2, "shriek", [0])) == {2: 1}
    assert cohomology(build_complex(J2, "shriek", [0])).profile() == {2: {2: 1}}
    assert dims_of(build_complex(RANK1, "shriek", [0])) == {2: 1}
    assert cohomology(build_complex(RANK1, "shriek", [0])).profile() == {2: {0: 1}}


def test_shriek_matches_cone_route():
    # the quotient realization agrees with the mixed cone over the embedding
    for model in (J2, TWO_BRANCH):
        ic = build_ic(model)
        log = build_ic_log(model, range(model.branches))
        emb = ic_into_iclog(ic, log)
        via_cone = cone(emb).shift(-1)
        quot = build_complex(model, "shriek", range(model.branches))
        hc, hq = cohomology(via_cone), cohomology(quot)
        assert {k: hc.dim(k) for k in hc.degrees} == \
            {k: hq.dim(k) for k in hq.degrees if hq.dim(k)} | \
            {k: 0 for k in hc.degrees if not hc.dim(k)}
        assert hc.profile() == hq.profile()


def test_star_examples():
    assert cohomology(build_complex(J2, "star", [0])).profile() == {0: {0: 1}}
    assert cohomology(build_complex(RANK1, "star", [0])).profile() == {0: {0: 1}}
    # i^* never reads S: RANK1 without S (and F) has the same i^*
    unpolarized = model_from_json({
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
        "W": [{"weight": 0, "basis": [["1"]]}],
    })
    assert unpolarized.pairing is None
    assert cohomology(build_complex(unpolarized, "star", [0])).profile() == {0: {0: 1}}


def test_star_stalk_sanity_z_all():
    # for Z = all branches, H^0 of the dual realization matches the invariants
    # chain computed by the intersection complex (full agreement in one branch)
    for model in (RANK1, J2, TWO_BRANCH):
        hic = cohomology(build_ic(model))
        hst = cohomology(build_complex(model, "star", range(model.branches)))
        assert hst.dim(0) == hic.dim(0)
        if model.branches == 1:
            assert {k: hic.dim(k) for k in hic.degrees if hic.dim(k)} == \
                {k: hst.dim(k) for k in hst.degrees if hst.dim(k)}


def test_dualize_involution_profiles():
    for model in (J2, TWO_BRANCH):
        for c in (build_ic(model), build_omega(model)):
            twice = dualize(dualize(c, a=model.base_weight),
                            a=model.base_weight)
            assert cohomology(twice).profile() == cohomology(c).profile()


def test_dualize_reflects_weights():
    c = build_ic(J2)
    d = dualize(c, a=1)
    prof, dprof = cohomology(c).profile(), cohomology(d).profile()
    # IC of the Jordan pair is pure of weight 1 in degree 0; n=1 reflection
    assert prof == {0: {1: 1}} and dprof == {1: {1: 1}}


def test_dual_of_acyclic_is_acyclic():
    c = build_omega(HALF)
    assert dims_of(dualize(c, a=0)) == {}


def test_link_rank1_circle():
    h = cohomology(link_complex(RANK1, [0]))
    assert {k: h.dim(k) for k in h.degrees if h.dim(k)} == {0: 1, 1: 1}
    assert h.profile() == {0: {0: 1}, 1: {1: 1}}


def test_link_jordan2():
    h = cohomology(link_complex(J2, [0]))
    assert h.profile() == {0: {0: 1}, 1: {3: 1}}


def test_intersection_morphism_zero_on_disjoint_support():
    for model in (RANK1, J2, TWO_BRANCH):
        z = range(model.branches)
        f = intersection_morphism(model, z)
        assert same_complex(f.source, build_complex(model, "shriek", z))
        assert same_complex(f.target, build_complex(model, "star", z))
        for k in range(min(f.source.min_deg, f.target.min_deg),
                       max(f.source.max_deg, f.target.max_deg) + 1):
            assert f.at(k).is_zero()


def _link_cases():
    """(name, model, z): every corpus instance with S at every nonempty z,
    and the 2x2x2 Jordan tensor (pure n = 3, seed 3, dim 8) at z = all."""
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".expected.json"):
            continue
        model = load_model(str(path))
        if model.pairing is None:
            continue
        for r in range(1, model.branches + 1):
            for z in itertools.combinations(range(model.branches), r):
                yield path.stem, model, z
    yield "pure3-3", random_pure_model(3, random.Random(3)), (0, 1, 2)


def _link_draws():
    """(name, model, z): pure and imhs draws at n = 1..3, seeds 0-2, z = all."""
    for n, seed in itertools.product((1, 2, 3), range(3)):
        for gen in (random_pure_model, random_imhs_model):
            yield f"{gen.__name__}-{n}-{seed}", gen(n, random.Random(seed)), \
                tuple(range(n))


def _hodge_profile(report):
    return {k: report.degrees[k].hodge.graded_dims()
            for k in report.nonzero_degrees() if report.degrees[k].hodge}


def test_link_is_the_star_plus_the_raised_shriek():
    """H^k(link) = H^k(i^*) (+) H^{k+1}(i^!), the i^! weight labels raised by
    one: the link is the mixed cone of the zero map i^! -> i^*.
    link_cohomology reads it off the two summands, and the cohomology of the
    cone is its reference: same dimensions, weight and Hodge profiles and
    JSON bytes."""
    cases = 0
    for name, model, z in itertools.chain(_link_cases(), _link_draws()):
        with evaluation():
            link = cohomology(link_complex(model, z))
            h_star = cohomology(build_complex(model, "star", z))
            h_shriek = cohomology(build_complex(model, "shriek", z))
        summed = link_cohomology(h_shriek, h_star)
        assert canonical_json(summed.to_json()) == \
            canonical_json(link.to_json()), (name, z)
        assert {k: summed.dim(k) for k in summed.nonzero_degrees()} == \
            {k: link.dim(k) for k in link.nonzero_degrees()}, (name, z)
        assert summed.profile() == link.profile(), (name, z)
        assert _hodge_profile(summed) == _hodge_profile(link), (name, z)
        degrees = set(h_star.nonzero_degrees()) | \
            {k - 1 for k in h_shriek.nonzero_degrees()}
        assert link.nonzero_degrees() == sorted(degrees), (name, z)
        for k in degrees:
            want = dict(h_star.degrees[k].weight_profile()) \
                if k in h_star.degrees else {}
            if k + 1 in h_shriek.degrees:
                for w, d in h_shriek.degrees[k + 1].weight_profile().items():
                    want[w + 1] = want.get(w + 1, 0) + d
            assert link.dim(k) == h_star.dim(k) + h_shriek.dim(k + 1), (name, z, k)
            assert link.degrees[k].weight_profile() == want, (name, z, k)
        cases += 1
    assert cases == 17 + 18


def _no_branch_cases():
    """Models at every n = 0..3: the hand models, a pure n = 0 draw, and
    pure and imhs draws at n = 1..3."""
    yield from (RANK1, J2, HALF, TWO_BRANCH)
    yield random_pure_model(0, random.Random(0))
    for n in (1, 2, 3):
        yield random_pure_model(n, random.Random(n))
        yield random_imhs_model(n, random.Random(n))


def test_iclog_of_no_branch_is_ic():
    """IC_log(z) keeps the full space along the branches of z only, so
    along none it is IC."""
    for model in _no_branch_cases():
        assert same_complex(build_complex(model, "iclog", ()),
                            build_complex(model, "ic"))


def test_point_stratum_kinds_of_no_branch_are_zero():
    """i^! = (IC_log(z)/IC)[-1] is zero on the empty z, where IC_log(z) = IC,
    and so are its dual i^* and the link built from the two."""
    for model in _no_branch_cases():
        shriek, star = (build_complex(model, kind, ()) for kind in ("shriek", "star"))
        assert shriek.dims == star.dims == ()
        assert link_cohomology(cohomology(shriek), cohomology(star)).to_json() == []
        assert cohomology(link_complex(model, ())).to_json() == []


@pytest.mark.parametrize("kind", ["iclog", "shriek", "star", "compact"])
def test_kinds_along_z_refuse_a_branch_out_of_range(kind):
    with pytest.raises(ShapeError, match="branch index 2 out of range"):
        build_complex(J2, kind, {2})


@pytest.mark.parametrize("kind", ["iclog"])
def test_kinds_along_z_are_memoized_inside_an_evaluation(kind):
    """A repeated call, however z is spelled, returns the object built first.
    shriek, the shift of the remembered quotient IC_log(z)/IC, and star, its
    dual, have no memo of their own: the verbs take their cohomology through
    the remembered kind_cohomology, which builds i^! once per evaluation."""
    with evaluation():
        first = build_complex(TWO_BRANCH, kind, [0, 1])
        assert build_complex(TWO_BRANCH, kind, (1, 0)) is first
        assert build_complex(TWO_BRANCH, kind, frozenset({0, 1})) is first


@pytest.mark.parametrize("kind", ["omega", "ic", "iclog", "shriek", "star",
                                  "compact"])
def test_kind_cohomology_is_memoized_inside_an_evaluation(kind):
    """However z is spelled, and for omega and ic whatever it is, a repeated
    call returns the report taken first."""
    with evaluation():
        first = kind_cohomology(TWO_BRANCH, kind, [0, 1])
        assert kind_cohomology(TWO_BRANCH, kind, (1, 0)) is first
        assert kind_cohomology(TWO_BRANCH, kind, frozenset({0, 1})) is first
        if kind in ("omega", "ic"):
            assert kind_cohomology(TWO_BRANCH, kind) is first


def _filtration(draw, cls, dim, pushed):
    """A filtration of direction cls on a dim-space: step i, for i = 0..4,
    spans pushed(i) and the drawn vectors labelled at most i (increasing) or
    at least i (decreasing); an increasing one ends at the whole space."""
    labelled = draw(st.lists(st.tuples(
        st.integers(0, 3),
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)),
        max_size=dim + 1))
    up = cls is IncreasingFiltration
    steps = [(i, Subspace.span([as_vector(v) for j, v in labelled
                                if (j <= i if up else j >= i)], dim).sum(pushed(i)))
             for i in range(5)]
    return cls(dim, steps + [(5, Subspace.full(dim))] if up else steps)


@st.composite
def filtered_complexes(draw):
    """A complex of up to three terms of dimension at most 3 with a W and an
    F on each term.  Each differential is drawn, the second through the
    annihilator of the first one's image, so that d o d = 0; each step of a
    filtration spans the image of the step before it under d and drawn
    vectors, so d keeps it without being strict in general."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    start = draw(st.integers(-1, 1))
    d, filts = {}, ({}, {})
    for i, dim in enumerate(dims):
        k = start + i
        if i:
            cols = dims[i - 1]
            ker = (Subspace.full(cols) if i == 1 else
                   d[k - 2].image().annihilator())   # rows vanishing on Im d
            m = Matrix([draw(st.lists(st.integers(-2, 2), min_size=ker.dim,
                                      max_size=ker.dim)) for _ in range(dim)],
                       cols=ker.dim)
            d[k - 1] = m * Matrix(ker.basis, cols=cols)
        for filt, cls in zip(filts, (IncreasingFiltration, DecreasingFiltration)):
            prev = filt.get(k - 1)
            filt[k] = _filtration(draw, cls, dim, lambda j: (
                Subspace.zero(dim) if prev is None else d[k - 1].image(prev.at(j))))
    c = FilteredComplex(start, tuple(dims), d, *filts)
    c.validate()
    return c


def _per_degree(report):
    return {k: (h.dim, *(None if f is None else f.graded_dims()
                         for f in (h.weights, h.hodge)))
            for k, h in report.degrees.items()}


@settings(max_examples=150, deadline=None)
@given(c=filtered_complexes(), a=st.integers(-1, 3), top=st.integers(-2, 3))
def test_dual_cohomology_is_the_cohomology_of_the_dual_complex(c, a, top):
    """dual_cohomology reads H(dualize(c, a, top)) off H(c): per degree the
    dimension and the weight and Hodge profiles, strict d or not."""
    assert _per_degree(dual_cohomology(cohomology(c), a, top)) == \
        _per_degree(cohomology(dualize(c, a, top)))


def test_kind_cohomology_reads_the_built_complexes():
    """On the corpus and the slow sweep's draws (pure, imhs and spectral,
    n <= 3, dim <= 8, seeds 0-29), H(star) and H(compact) read by duality
    equal the cohomology of the complexes build_complex dualizes, along
    every nonempty z; and IC_log along every branch is omega's complex,
    whose report kind_cohomology hands out, on components with alpha != 0
    too."""
    corpus = [(p.stem, load_model(str(p))) for p in sorted(CORPUS.glob("*.json"))
              if not p.name.endswith(".expected.json")]
    ramified = 0
    for name, model in itertools.chain(corpus, _sweep_draws()):
        n = model.branches
        every = frozenset(range(n))
        ramified += any(any(c.alpha) for c in model.components)
        with evaluation():
            assert same_complex(build_ic_log(model, every), build_omega(model)), name
            assert kind_cohomology(model, "iclog", every) is \
                kind_cohomology(model, "omega"), name
            for z in itertools.chain.from_iterable(
                    itertools.combinations(range(n), r) for r in range(1, n + 1)):
                for kind in ("star", "compact"):
                    assert kind_cohomology(model, kind, z).to_json() == cohomology(
                        build_complex(model, kind, z)).to_json(), (name, kind, z)
    assert ramified


def test_iclog_along_every_branch_is_eliminated_where_a_residue_is_singular():
    """N = 1/2 is not nilpotent, so alpha - N = 0 at alpha = 1/2 (the
    instance fails validate): IC_log along the branch is not omega's
    complex, and kind_cohomology takes its cohomology from its own."""
    model = model_from_json({
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": ["1/2"], "dim": 1, "N": [[["1/2"]]]}],
        "W": [{"weight": 0, "basis": [["1"]]}],
    })
    with evaluation():
        got = kind_cohomology(model, "iclog", [0])
        assert got.to_json() == cohomology(build_ic_log(model, [0])).to_json()
        assert got.profile() != kind_cohomology(model, "omega").profile()


def test_build_complex_dispatches_to_the_named_builders():
    a = J2.base_weight
    shriek = quotient_complex(J2, {0}).shift(-1)
    assert same_complex(build_complex(J2, "omega"), build_omega(J2))
    assert same_complex(build_complex(J2, "ic"), build_ic(J2))
    assert same_complex(build_complex(J2, "iclog", [0]), build_ic_log(J2, [0]))
    assert same_complex(build_complex(J2, "shriek", [0]), shriek)
    assert same_complex(build_complex(J2, "star", [0]),
                        dualize(shriek, a=a, top=2))
    assert same_complex(build_complex(J2, "compact", [0]),
                        dualize(build_ic_log(J2, [0]), a=a, top=1))
    with pytest.raises(ShapeError, match="unknown complex kind 'nope'"):
        build_complex(J2, "nope")


def test_quotient_complex_profile():
    quot = quotient_complex(J2, {0})
    assert cohomology(quot).profile() == {1: {3: 1}}


def test_quotient_complex_is_built_slot_by_slot():
    # i^! comes from the Koszul builder: each slot of IC_log(z)/IC is the
    # iclog slot modulo the ic slot, and the layout records it
    for model in (J2, TWO_BRANCH):
        z = range(model.branches)
        ic, log = build_ic(model), build_ic_log(model, z)
        quot = quotient_complex(model, z)
        assert set(quot.layout) == set(log.layout)
        for k, slots in quot.layout.items():
            assert set(slots) == set(log.layout[k])
            for key, (pos, sq) in slots.items():
                assert (sq.sub, sq.quot_by) == \
                    (log.layout[k][key][1].sub, ic.layout[k][key][1].sub)
                assert len(pos) == sq.dim
            assert sum(sq.dim for _, sq in slots.values()) == \
                log.term_dim(k) - ic.term_dim(k) == quot.term_dim(k)
    with pytest.raises(ShapeError, match="branch index 2 out of range"):
        quotient_complex(J2, {2})


def test_builders_on_random_models():
    rng = random.Random(5)
    for _ in range(6):
        n = rng.randint(1, 2)
        model = random_imhs_model(n, rng, max_dim=5)
        om, ic = build_omega(model), build_ic(model)
        om.validate()
        ic.validate()
        emb = ic_into_iclog(ic, build_ic_log(model, range(n)))
        emb.validate()
        # Euler characteristics agree with cohomology (asserted inside)
        cohomology(om), cohomology(ic)


def test_rescaling_invariance():
    # cohomology dims of the logarithmic complex ignore rescaling of operators
    rng = random.Random(9)
    for _ in range(4):
        model = random_spectral_model(2, rng)
        base = dims_of(build_omega(model))
        scaled_comps = []
        from loghodge.model import AlphaComponent, NCModel

        for comp in model.components:
            scaled_comps.append(AlphaComponent(
                comp.alpha, comp.dim,
                tuple(nj.scale(3) for nj in comp.nilpotents)))
        scaled = NCModel(model.branches, tuple(scaled_comps), model.base_weight,
                         model.perverse_shift, model.weight)
        assert dims_of(build_omega(scaled)) == base


def test_hodge_break_where_only_the_target_jumps():
    # d = id on a line; F^1 is the line in degree 0 but zero in degree 1, so
    # d(F^1) is not inside F^1 although F jumps only at 2 in degree 0
    f_src = DecreasingFiltration(1, [(2, Subspace.zero(1))])
    f_tgt = DecreasingFiltration(1, [(1, Subspace.zero(1))])
    ident = Matrix.identity(1)
    c = FilteredComplex(0, (1, 1), {0: ident}, hodge={0: f_src, 1: f_tgt})
    with pytest.raises(FiltrationNotPreserved, match=r"F\^1 at degree 0"):
        c.validate()
    a = FilteredComplex(0, (1,), hodge={0: f_src})
    b = FilteredComplex(0, (1,), hodge={0: f_tgt})
    with pytest.raises(FiltrationNotPreserved, match=r"F\^1 at degree 0"):
        ComplexMap(a, b, {0: ident}).validate()


@pytest.mark.parametrize("kind, z", [("omega", ()), ("ic", ()),
                                     ("iclog", (0, 2)), ("shriek", (1,))])
def test_zero_residue_operators_place_no_block(kind, z, monkeypatch):
    """Every residue operator of imhs3-2 is zero: the Koszul differential
    is zero with no induced map taken, and the complex still validates, so
    its cohomology is its terms."""
    model = random_imhs_model(3, random.Random(2))
    assert all(op.is_zero() for c in model.components
               for op in complexes.alpha_ops(c).values())
    monkeypatch.setattr(complexes, "induced_map", None)
    with evaluation():
        c = build_complex(model, kind, z)
    assert all(dk.is_zero() for dk in c.d.values())
    h = cohomology(c)
    assert {k: h.dim(k) for k in c.degrees()} == \
        {k: c.term_dim(k) for k in c.degrees()}
