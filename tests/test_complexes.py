import itertools
import random
from pathlib import Path

import pytest

from loghodge.complexes import (
    ComplexMap,
    FilteredComplex,
    build_complex,
    build_ic,
    build_ic_log,
    build_omega,
    cohomology,
    cone,
    dualize,
    i_shriek,
    i_star,
    ic_into_iclog,
    intersection_morphism,
    link_complex,
    quotient_complex,
)
from loghodge.errors import FiltrationNotPreserved, PairingDegenerate, ShapeError
from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
)
from loghodge.filtrations import DecreasingFiltration
from loghodge.linalg import Matrix, Subspace, evaluation
from loghodge.model import load_model, model_from_json, unipotent_part

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
        assert build_ic_log(model, []) == build_ic(model)
        allz = range(model.branches)
        assert build_ic_log(model, allz) == build_omega(unipotent_part(model))


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
    assert dims_of(i_shriek(J2, [0])) == {2: 1}
    assert cohomology(i_shriek(J2, [0])).profile() == {2: {2: 1}}
    assert dims_of(i_shriek(RANK1, [0])) == {2: 1}
    assert cohomology(i_shriek(RANK1, [0])).profile() == {2: {0: 1}}
    with pytest.raises(ShapeError):
        i_shriek(J2, [])


def test_shriek_matches_cone_route():
    # the quotient realization agrees with the mixed cone over the embedding
    for model in (J2, TWO_BRANCH):
        ic = build_ic(model)
        log = build_ic_log(model, range(model.branches))
        emb = ic_into_iclog(ic, log)
        via_cone = cone(emb).shift(-1)
        quot = i_shriek(model, range(model.branches))
        hc, hq = cohomology(via_cone), cohomology(quot)
        assert {k: hc.dim(k) for k in hc.degrees} == \
            {k: hq.dim(k) for k in hq.degrees if hq.dim(k)} | \
            {k: 0 for k in hc.degrees if not hc.dim(k)}
        assert hc.profile() == hq.profile()


def test_star_examples():
    assert cohomology(i_star(J2, [0])).profile() == {0: {0: 1}}
    assert cohomology(i_star(RANK1, [0])).profile() == {0: {0: 1}}
    degenerate = model_from_json({
        "branches": 1, "base_weight": 0, "perverse_shift": 1,
        "components": [{"alpha": ["0"], "dim": 1, "N": [[["0"]]]}],
        "W": [{"weight": 0, "basis": [["1"]]}],
    })
    with pytest.raises(PairingDegenerate):
        i_star(degenerate, [0])


def test_star_stalk_sanity_z_all():
    # for Z = all branches, H^0 of the dual realization matches the invariants
    # chain computed by the intersection complex (full agreement in one branch)
    for model in (RANK1, J2, TWO_BRANCH):
        hic = cohomology(build_ic(model))
        hst = cohomology(i_star(model, range(model.branches)))
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
        assert f.source == i_shriek(model, z) and f.target == i_star(model, z)
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


def test_link_is_the_star_plus_the_raised_shriek():
    """H^k(link) = H^k(i^*) (+) H^{k+1}(i^!), the i^! weight labels raised by
    one: the link is the mixed cone of the zero map i^! -> i^*."""
    cases = 0
    for name, model, z in _link_cases():
        with evaluation():
            link = cohomology(link_complex(model, z))
            h_star = cohomology(i_star(model, z))
            h_shriek = cohomology(i_shriek(model, z))
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
    assert cases == 17


def test_build_complex_dispatches_to_the_named_builders():
    assert build_complex(J2, "omega") == build_omega(J2)
    assert build_complex(J2, "ic") == build_ic(J2)
    assert build_complex(J2, "iclog", [0]) == build_ic_log(J2, [0])
    with pytest.raises(ShapeError, match="unknown complex kind 'nope'"):
        build_complex(J2, "nope")


def test_quotient_complex_profile():
    ic = build_ic(J2)
    log = build_ic_log(J2, [0])
    emb = ic_into_iclog(ic, log)
    quot = quotient_complex(emb)
    assert cohomology(quot).profile() == {1: {3: 1}}


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
