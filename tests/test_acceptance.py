"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single [PASS] line when its criterion holds; any failure
is an ordinary assertion failure naming the offending instance.
"""

import functools
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inclusion import ic_into_iclog
from link_oracle import oracle_link
from side_ops import same_complex, shriek, unipotent_part

from loghodge.complexes import (
    ComplexMap,
    build_complex,
    build_ic,
    build_ic_log,
    build_omega,
    cohomology,
    cone,
    dualize,
)
from loghodge.decomposition import (
    check_distinguished_pair,
    check_graded_decomposition,
    purity_check,
)
from loghodge.filtrations import (
    IncreasingFiltration,
    axioms_in_t,
    monodromy_filtration,
    relative_monodromy_filtration,
    star,
)
from loghodge.generate import (
    random_imhs_model,
    random_nilpotent,
    random_pure_model,
    random_spectral_model,
)
from loghodge.linalg import Subspace, evaluation
from loghodge.model import (
    NCModel,
    imhs_check,
    load_model,
    validate,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_PATHS = sorted(p for p in CORPUS.glob("*.json")
                      if not p.name.endswith(".expected.json"))


def corpus_models():
    return [(p.stem, load_model(str(p))) for p in CORPUS_PATHS]


def test_criterion_01_acyclicity():
    """alpha != 0 components of the logarithmic complex are acyclic."""
    rng = random.Random(101)
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 3)
        model = random_spectral_model(n, rng)
        assert validate(model).passed, f"trial {trial} generated invalid model"
        for ci, comp in enumerate(model.components):
            if comp.is_unipotent() or comp.dim == 0:
                continue
            sub = NCModel(model.branches, (comp,), model.base_weight,
                          model.perverse_shift,
                          model.on_component(model.weight, ci))
            h = cohomology(build_omega(sub))
            for k in range(n + 2):
                assert h.term_dim(k) == 0, \
                    f"trial {trial} component {ci} not acyclic in degree {k}"
            checked += 1
    assert checked > 100
    print(f"\n[PASS] criterion 1: acyclicity on 200 models "
          f"({checked} spectral components)")


def _perturbations(m):
    """Single-step modifications of a filtration, kept strictly monotone.

    For each stored step two variants are tried: enlarge the step by one
    vector of the next one, and tilt one of its basis vectors into the next
    step.  Every result is a valid filtration differing from m in one step.
    """
    out = []
    jumps = m.jumps()
    for idx, (k, sub) in enumerate(m.steps):
        if idx + 1 >= len(jumps):
            continue
        below = m.at(k - 1)
        above = m.at(jumps[idx + 1])
        new_vec = next((v for v in above.basis
                        if not sub.contains_vector(v)), None)
        if new_vec is None:
            continue
        bigger = sub.sum(Subspace.span([new_vec], m.ambient_dim))
        if bigger != above:
            steps = [(w, s) if w != k else (w, bigger) for w, s in m.steps]
            out.append(IncreasingFiltration(m.ambient_dim, steps))
        own = next((v for v in sub.basis if not below.contains_vector(v)),
                   None)
        if own is not None:
            tilted_vec = tuple(a + b for a, b in zip(own, new_vec))
            keep = [v for v in sub.basis if v != own]
            tilted = below.sum(Subspace.span(keep + [tilted_vec],
                                             m.ambient_dim))
            if tilted != sub and tilted.dim == sub.dim and \
                    above.contains(tilted):
                steps = [(w, s) if w != k else (w, tilted) for w, s in m.steps]
                out.append(IncreasingFiltration(m.ambient_dim, steps))
    return out


def test_criterion_02_monodromy_axioms_and_uniqueness():
    rng = random.Random(202)
    witnesses = 0
    for trial in range(30):
        dim = rng.randint(1, 8)
        n = random_nilpotent(dim, rng)
        center = rng.randint(-2, 2)
        m = monodromy_filtration(n, center)
        w = IncreasingFiltration.pure(dim, center)
        assert axioms_in_t(m, [n], w, [(1,)]), f"trial {trial} axioms fail"
        for perturbed in _perturbations(m):
            if perturbed == m:
                continue
            assert not axioms_in_t(perturbed, [n], w, [(1,)]), \
                f"trial {trial}: a perturbed filtration passed the axioms"
            witnesses += 1
    assert witnesses >= 20
    print(f"\n[PASS] criterion 2: monodromy axioms on 30 nilpotents, "
          f"{witnesses} uniqueness witnesses")


def test_criterion_03_star_identities():
    rng = random.Random(303)
    for trial in range(100):
        n = trial % 3 + 1
        model = random_imhs_model(n, rng, with_pairing=False, max_dim=6,
                                  max_blocks=2)
        w = model.weight
        for j in range(n):
            nj = model.nilpotent(j)
            m_before = relative_monodromy_filtration(nj, w)
            s = star(nj, w)   # both displayed expressions asserted internally
            # (i) re-check the two defining expressions explicitly
            for k in range(s.lowest() - 1, s.highest() + 1):
                img = Subspace.span([nj.apply(v) for v in w.at(k + 1).basis],
                                    model.total_dim)
                lhs = img.sum(m_before.at(k).intersect(w.at(k)))
                rhs = img.sum(m_before.at(k).intersect(w.at(k + 1)))
                assert lhs == rhs, f"trial {trial} expressions differ at {k}"
            # (ii) the relative filtration is unchanged by the star operation
            assert relative_monodromy_filtration(nj, s) == m_before, \
                f"trial {trial}: M(N, N*W) != M(N, W)"
            # (iv) duality against the transposed operator
            assert s.dual(-1) == shriek(nj.transpose(), w.dual(-1)), \
                f"trial {trial}: star/shriek duality fails"
        if n > 1:
            total = model.nilpotent_sum(range(n))
            s1 = star(model.nilpotent(0), w)
            assert relative_monodromy_filtration(total, s1) == \
                relative_monodromy_filtration(total, w), \
                f"trial {trial}: multi-operator relative filtration moved"
        # (iii) the distinguished-pair splitting, exactly
        for ci, comp in enumerate(model.components):
            for j in range(n):
                ok, detail = check_distinguished_pair(model, ci, j)
                assert ok, f"trial {trial}: {detail}"
    print("\n[PASS] criterion 3: star identities on 100 generated instances")


def test_criterion_04_order_independence():
    rng = random.Random(404)
    for trial in range(12):
        n = 2 if trial % 2 else 3
        model = random_imhs_model(n, rng, with_pairing=False, max_dim=6,
                                  max_blocks=2)
        for r in range(2, min(n, 3) + 1):
            for j_set in itertools.combinations(range(n), r):
                for ci, comp in enumerate(model.components):
                    # W^J as the complexes build it, against star folded
                    # over W in every order of J
                    wj = model.wj(ci, frozenset(j_set))
                    for perm in itertools.permutations(j_set):
                        folded = functools.reduce(
                            lambda f, j: star(comp.nilpotents[j], f), perm,
                            model.on_component(model.weight, ci))
                        assert folded == wj, \
                            f"trial {trial}: ordering {perm} disagrees"
    print("\n[PASS] criterion 4: order independence for |J| <= 3 on 12 "
          "multi-branch instances")


def test_criterion_05_boundary_equalities():
    for name, model in corpus_models():
        with evaluation():
            assert same_complex(build_ic_log(model, []), build_ic(model)), \
                f"{name}: empty log set differs from the intersection complex"
            assert same_complex(build_ic_log(model, range(model.branches)),
                                build_omega(unipotent_part(model))), \
                f"{name}: full log set differs from the unipotent Koszul complex"
    print(f"\n[PASS] criterion 5: boundary equalities on "
          f"{len(CORPUS_PATHS)} corpus instances")


def test_criterion_06_pure_weight_anchor():
    rng = random.Random(606)
    models = [(name, m) for name, m in corpus_models()
              if len(m.weight.steps) == 1]
    models += [(f"fuzz{i}", random_pure_model(rng.randint(1, 2), rng,
                                              max_dim=6))
               for i in range(5)]
    assert models
    for name, model in models:
        with evaluation():
            a = model.weight.jumps()[0]
            om = build_omega(model)
            ic = build_ic(model)
            emb = ic_into_iclog(ic, build_ic_log(model, range(model.branches)))
            for k in om.degrees():
                if not om.term_dim(k):
                    continue
                w_a = om.weight_at(k).at(a)
                w_below = om.weight_at(k).at(a - 1)
                assert w_below.dim == 0, f"{name}: W_(a-1) nonzero in degree {k}"
                assert w_a == emb.at(k).image(), \
                    f"{name}: W_a does not equal the intersection subcomplex at {k}"
    print(f"\n[PASS] criterion 6: pure-weight anchor on {len(models)} instances")


def test_criterion_07_decomposition_suite():
    rng = random.Random(707)
    instances = corpus_models()
    instances += [(f"fuzz{i}",
                   random_imhs_model(rng.randint(1, 2), rng,
                                     with_pairing=False, max_dim=5,
                                     max_blocks=2))
                  for i in range(50)]
    total_checks = 0
    for name, model in instances:
        with evaluation():
            om = build_omega(model)
            labels = set()
            for k in om.degrees():
                if om.term_dim(k):
                    labels.update(om.weight_at(k).jumps())
            for k in sorted(labels):
                for which in ("omega", "ic"):
                    rep = check_graded_decomposition(model, k, which)
                    assert rep.passed, \
                        (name, k, which,
                         [c.get("detail", "") for c in rep.checks
                          if c["status"] == "fail"])
                    total_checks += 1
    print(f"\n[PASS] criterion 7: graded decomposition, {total_checks} "
          f"(instance, weight, kind) checks")


def test_criterion_08_weight_bounds():
    run = 0
    for name, model in corpus_models():
        with evaluation():
            if model.hodge is None or not imhs_check(model).passed:
                continue
            a, shift = model.base_weight, model.perverse_shift
            subsets = [frozenset(c)
                       for r in range(1, model.branches + 1)
                       for c in itertools.combinations(range(model.branches), r)]
            for z in subsets:
                open_v = purity_check(cohomology(build_ic_log(model, z)), a,
                                      shift, "open")
                assert open_v.passed, (name, sorted(z), "open")
                run += 1
                if model.pairing is None:
                    continue
                shr = purity_check(cohomology(build_complex(model, "shriek", z)),
                                   a, shift, "support")
                assert shr.passed, (name, sorted(z), "support")
                st = purity_check(cohomology(build_complex(model, "star", z)),
                                  a, shift, "closed")
                assert st.passed, (name, sorted(z), "closed")
                comp = purity_check(
                    cohomology(dualize(build_ic_log(model, z), a=a,
                                       top=model.branches)),
                    a, shift, "compact")
                assert comp.passed, (name, sorted(z), "compact")
                run += 3
    assert run >= 12
    print(f"\n[PASS] criterion 8: weight bounds, {run} mode checks")


def shipped_link(model):
    """H(link) at z = all as the link verbs read it: the cone of the zero
    map H(i^!) -> H(i^*)."""
    z = range(model.branches)
    return cone(ComplexMap(*(cohomology(build_complex(model, kind, z))
                             for kind in ("shriek", "star")), {}))


def test_criterion_09_local_purity_with_oracle():
    for name in ("rank1_trivial", "jordan2_weight1"):
        path = CORPUS / f"{name}.json"
        doc = json.loads(path.read_text())
        expected = oracle_link(doc)
        model = load_model(str(path))
        rep = shipped_link(model)
        assert rep.profile() == expected["link"], \
            f"{name}: main path disagrees with the brute-force oracle"
        verdict = purity_check(rep, model.base_weight, model.perverse_shift,
                               "link")
        assert verdict.passed, f"{name}: local purity inequalities fail"
    print("\n[PASS] criterion 9: local purity with independent oracle "
          "cross-check on both anchor models")


def test_criterion_10_duality_involution():
    for name, model in corpus_models():
        with evaluation():
            a = model.base_weight
            for builder in (build_omega, build_ic):
                c = builder(model)
                twice = dualize(dualize(c, a=a), a=a)
                assert cohomology(twice).profile() == cohomology(c).profile(), \
                    f"{name}: double dual changed the weight profile"
            if model.pairing is None or model.branches != 1:
                # the reflection presumes a compact stratum; the local germ of a
                # multi-branch crossing is not one, so only point strata qualify
                continue
            rep = shipped_link(model)
            m = model.perverse_shift
            for k in rep.nonzero_degrees():
                k2 = 2 * m - 1 - k
                prof = rep.profile()[k]
                other = rep.profile().get(k2, {})
                reflected = {2 * a + 1 - w: d for w, d in other.items()}
                assert prof == reflected, \
                    f"{name}: link self-duality fails between degrees {k}, {k2}"
    print("\n[PASS] criterion 10: duality involution and link self-duality "
          f"on {len(CORPUS_PATHS)} corpus instances")


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "loghodge.cli", "corpus", str(CORPUS)]
    runs = []
    for jobs in ("1", "1", "4"):
        out = subprocess.run(cmd + ["--jobs", jobs], capture_output=True,
                             text=True, check=True)
        runs.append(out.stdout)
    assert runs[0] == runs[1] == runs[2]
    single = [sys.executable, "-m", "loghodge.cli", "purity", "--mode",
              "closed", "--z", "1", str(CORPUS / "jordan2_weight1.json")]
    a = subprocess.run(single, capture_output=True, text=True, check=True)
    b = subprocess.run(single, capture_output=True, text=True, check=True)
    assert a.stdout == b.stdout
    print("\n[PASS] criterion 11: byte-identical output across runs and "
          "thread counts")
