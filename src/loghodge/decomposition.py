"""Primitive parts, graded decomposition into intersection complexes, the
intersection-morphism image, and the weight-inequality checkers.

Weight labels on complexes are pre-decalage: the checker converts a label w
at degree k into the honest weight w + (k - shift) before comparing against
the declared bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import (
    CohomologyReport,
    FilteredComplex,
    alpha_ops,
    build_ic,
    build_ic_log,
    build_omega,
    cohomology,
    ic_cut,
    intersection_morphism,
    koszul_complex,
    slot_image,
)
from .errors import ShapeError
from .linalg import (
    LinearMap,
    Subquotient,
    Subspace,
    induced_map,
)
from .model import CheckResult, NCModel


# -- primitive parts ----------------------------------------------------------

@dataclass
class PrimitiveComponentPart:
    component: int
    branch_set: tuple[int, ...]
    weight: int
    gr: Subquotient                 # Gr^{W^J}_k of the component space
    space: Subspace                 # the primitive part, in gr coordinates
    residual: dict[int, LinearMap]  # induced N_j on the part, j outside J

    @property
    def dim(self):
        return self.space.dim


@dataclass
class PrimitivePart:
    branch_set: tuple[int, ...]
    weight: int
    parts: list[PrimitiveComponentPart]

    @property
    def dim(self):
        return sum(p.dim for p in self.parts)


def _gr_wj(model: NCModel, ci: int, J: tuple, k: int) -> Subquotient:
    wj = model.wj(ci, frozenset(J))
    return Subquotient(wj.at(k), wj.at(k - 1))


def _primitive_component(model: NCModel, ci: int, J: tuple, k: int,
                         inside: Subspace | None = None) -> PrimitiveComponentPart:
    """P^J_k of one unipotent component, optionally cut to a subspace of L."""
    comp = model.components[ci]
    gr = _gr_wj(model, ci, J, k)
    space = Subspace.full(gr.dim)
    for i in J:
        K = tuple(j for j in J if j != i)
        gr_k = _gr_wj(model, ci, K, k + 1)
        if gr_k.dim == 0:
            continue
        ident = LinearMap.identity(comp.dim)
        g = induced_map(ident, gr, gr_k)
        space = space.intersect(g.kernel())
    if inside is not None:
        space = space.intersect(gr.project_subspace(inside))
    residual = {}
    for j in range(model.branches):
        if j in J:
            continue
        nj = induced_map(comp.nilpotents[j], gr, gr)
        for v in space.basis:
            if not space.contains_vector(nj(v)):
                raise ShapeError(
                    "residual operator does not preserve the primitive part")
        residual[j] = nj.restrict(space, space)
    # purity with respect to the relative monodromy of the J-sum
    if J and space.dim:
        from .filtrations import relative_monodromy_filtration

        nsum = comp.nilpotents[J[0]]
        for j in J[1:]:
            nsum = nsum + comp.nilpotents[j]
        m = relative_monodromy_filtration(nsum, model.weight_on_component(ci))
        proj = m.project_to(gr)
        if not proj.at(k).contains(space) or \
                space.intersect(proj.at(k - 1)).dim != 0:
            raise ShapeError("primitive part is not pure at its weight")
    return PrimitiveComponentPart(ci, tuple(J), k, gr, space, residual)


def primitive_part(model: NCModel, J, k: int) -> PrimitivePart:
    """P^J_k over all unipotent components, with residual branch actions."""
    J = tuple(sorted(set(J)))
    parts = [
        _primitive_component(model, ci, J, k)
        for ci, comp in enumerate(model.components)
        if comp.is_unipotent()
    ]
    return PrimitivePart(J, k, parts)


# -- graded decomposition ------------------------------------------------------

@dataclass
class DecompositionReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.checks.append(
            CheckResult(name, "pass" if ok else "fail", "" if ok else detail))

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        return {"checks": [c.to_json() for c in self.checks],
                "verdict": "pass" if self.passed else "fail"}


def _slot_cut(model, ci, which, z, K) -> Subspace | None:
    """The subspace of the component whose Gr the primitive part is cut to."""
    if which == "omega":
        return None
    comp = model.components[ci]
    cut = ic_cut(model, z if which == "iclog" else frozenset())
    return slot_image(alpha_ops(comp), cut(K, ci), comp.dim)


def _ic_of_part(part: PrimitiveComponentPart, branches: list[int],
                shift_by: int) -> FilteredComplex:
    """IC complex of a primitive part under its residual operators, shifted."""
    ic = koszul_complex(branches, [(part.dim, part.residual)], lambda T, b: T)
    return ic.shift(-shift_by)


def graded_piece_complex(c: FilteredComplex, k: int) -> FilteredComplex:
    """Gr^W_k of a filtered complex, materialized."""
    pres, dims = {}, []
    for deg in c.degrees():
        wk = c.weight_at(deg)
        pres[deg] = Subquotient(wk.at(k), wk.at(k - 1))
        dims.append(pres[deg].dim)
    d = {}
    for deg in c.degrees():
        if pres[deg].dim and deg + 1 in pres and pres[deg + 1].dim:
            d[deg] = induced_map(c.differential(deg), pres[deg], pres[deg + 1])
    out = FilteredComplex(c.min_deg, tuple(dims), d)
    out.validate()
    return out


def check_distinguished_pair(model: NCModel, ci: int, j: int):
    """Exact splitting Gr^{N_j*W} = Im(Gr N_j) (+) Ker(Gr I_j), all weights."""
    comp = model.components[ci]
    w = model.weight_on_component(ci)
    wj = model.wj(ci, frozenset([j]))
    nj = comp.nilpotents[j]
    lo = min(w.lowest(), wj.lowest()) - 1
    hi = max(w.highest(), wj.highest())
    for m in range(lo, hi + 1):
        gr_t = Subquotient(wj.at(m), wj.at(m - 1))
        if gr_t.dim == 0:
            continue
        gr_s = Subquotient(w.at(m + 1), w.at(m))
        n_bar = induced_map(nj, gr_s, gr_t)
        img = n_bar.image()
        ident = induced_map(LinearMap.identity(comp.dim), gr_t, gr_s)
        ker_i = ident.kernel()
        if img.intersect(ker_i).dim != 0 or img.sum(ker_i).dim != gr_t.dim:
            return False, f"no exact splitting at weight {m}"
        n_self = induced_map(nj, gr_s, gr_s)
        if n_self.image().dim != img.dim:
            return False, f"image dimension mismatch at weight {m}"
    return True, ""


def check_graded_decomposition(model: NCModel, k: int, which: str = "omega",
                               z=()) -> DecompositionReport:
    """Layered verification that Gr^W_k splits into intersection complexes."""
    if which not in ("omega", "ic", "iclog"):
        raise ShapeError(f"unknown complex kind {which!r}")
    z = frozenset(z)
    report = DecompositionReport()
    n = model.branches
    unipotent = [ci for ci, c in enumerate(model.components) if c.is_unipotent()]

    # (1a) distinguished-pair splitting per branch
    for ci in unipotent:
        for j in range(n):
            ok, detail = check_distinguished_pair(model, ci, j)
            report.add(f"DistinguishedPair[c={ci},j={j + 1}]", ok, detail)

    # (1b) term-level splitting of Gr^{W^J} into translated primitive parts
    prim_cache: dict = {}

    def prim(ci, K, kk):
        key = (ci, K, kk)
        if key not in prim_cache:
            prim_cache[key] = _primitive_component(model, ci, K, kk)
        return prim_cache[key]

    for ci in unipotent:
        comp = model.components[ci]
        for r in range(n + 1):
            for J in itertools.combinations(range(n), r):
                w_tgt = k - len(J)
                gr = _gr_wj(model, ci, J, w_tgt)
                if gr.dim == 0:
                    continue
                total = Subspace.zero(gr.dim)
                ok, detail = True, ""
                for s in range(len(J) + 1):
                    for K in itertools.combinations(J, s):
                        p = prim(ci, K, w_tgt + len(J) - len(K))
                        if p.dim == 0:
                            continue
                        op = LinearMap.identity(comp.dim)
                        for j in J:
                            if j not in K:
                                op = comp.nilpotents[j].compose(op)
                        g = induced_map(op, p.gr, gr)
                        img = Subspace.span(
                            [g(v) for v in p.space.basis], gr.dim)
                        if total.intersect(img).dim != 0:
                            ok = False
                            detail = "translated primitive parts overlap"
                        total = total.sum(img)
                if total.dim != gr.dim:
                    ok = False
                    detail = (f"translates span {total.dim} of {gr.dim} "
                              f"dimensions")
                report.add(
                    f"TermSplitting[c={ci},J={{{','.join(str(j + 1) for j in J)}}}"
                    f",w={w_tgt}]", ok, detail)

    # (2)+(3) cohomology dimensions of the graded piece match the sum of
    # intersection complexes of primitive parts
    if which == "omega":
        full = build_omega(model)
    elif which == "ic":
        full = build_ic(model)
    else:
        full = build_ic_log(model, z)
    graded = graded_piece_complex(full, k)
    lhs = {deg: h.dim for deg, h in cohomology(graded).degrees.items() if h.dim}
    rhs: dict[int, int] = {}
    for r in range(n + 1):
        for K in itertools.combinations(range(n), r):
            for ci in unipotent:
                cut = _slot_cut(model, ci, which, z, K)
                part = _primitive_component(model, ci, K, k - len(K),
                                            inside=cut)
                if part.dim == 0:
                    continue
                rest = [j for j in range(n) if j not in K]
                piece = _ic_of_part(part, rest, len(K))
                for deg, h in cohomology(piece).degrees.items():
                    if h.dim:
                        rhs[deg] = rhs.get(deg, 0) + h.dim
    report.add(
        f"GradedCohomology[k={k},{which}]",
        lhs == rhs,
        f"graded piece has {lhs}, primitive-part complexes give {rhs}")
    return report


# -- intersection image --------------------------------------------------------

@dataclass
class IntersectionImageReport:
    degree: int
    dim: int
    weights: dict[int, int]
    pure_at: int | None
    passed: bool

    def to_json(self):
        return {"degree": self.degree, "dim": self.dim,
                "weights": {str(w): d for w, d in sorted(self.weights.items())},
                "pure_at": self.pure_at,
                "verdict": "pass" if self.passed else "fail"}


def intersection_image(model: NCModel, z, i: int) -> IntersectionImageReport:
    """Image of H^i(i^!) -> H^i(i^*) with its induced weight profile.

    A nonzero image must be pure at label a (honest weight a + i - shift).
    """
    data = intersection_morphism(model, z)
    h_star = data.h_star.degrees.get(i)
    f = data.maps.get(i)
    if f is None or h_star is None or h_star.dim == 0:
        return IntersectionImageReport(i, 0, {}, None, True)
    img = f.image()
    weights = {}
    if h_star.weights is not None:
        prev = 0
        for w, sub in h_star.weights.steps:
            d = img.intersect(sub).dim
            if d > prev:
                weights[w] = d - prev
            prev = d
    a = model.base_weight
    pure = list(weights) in ([], [a])
    return IntersectionImageReport(i, img.dim, weights,
                                   a if img.dim else None, pure)


# -- purity verdicts -----------------------------------------------------------

@dataclass
class PurityRow:
    degree: int
    perverse_degree: int
    label: int
    weight: int
    dim: int
    bound: int
    relation: str
    ok: bool

    def to_json(self):
        return {"degree": self.degree, "perverse_degree": self.perverse_degree,
                "label": self.label, "weight": self.weight, "dim": self.dim,
                "bound": self.bound, "relation": self.relation,
                "ok": self.ok}


@dataclass
class PurityVerdict:
    mode: str
    center: int
    shift: int
    rows: list[PurityRow]

    @property
    def passed(self):
        return all(r.ok for r in self.rows)

    def to_json(self):
        return {"mode": self.mode, "center": self.center, "shift": self.shift,
                "convention": "weight = label + (degree - shift)",
                "rows": [r.to_json() for r in self.rows],
                "verdict": "pass" if self.passed else "fail"}


_MODE_RELATION = {
    "open": ">=",
    "support": ">=",
    "closed": "<=",
    "compact": "<=",
}


def purity_check(report: CohomologyReport, a: int, shift: int,
                 mode: str) -> PurityVerdict:
    """Evaluate the mode's weight inequality on every nonzero graded piece."""
    if mode not in ("open", "support", "closed", "compact", "link"):
        raise ShapeError(f"unknown purity mode {mode!r}")
    rows = []
    for k in report.nonzero_degrees():
        h = report.degrees[k]
        for label, dim in sorted(h.weight_profile().items()):
            ip = k - shift
            w = label + ip
            bound = a + ip
            if mode == "link":
                if ip <= -1:
                    ok, rel = w <= bound, "<="
                else:
                    ok, rel = w > bound, ">"
            else:
                rel = _MODE_RELATION[mode]
                ok = w >= bound if rel == ">=" else w <= bound
            rows.append(PurityRow(k, ip, label, w, dim, bound, rel, ok))
    return PurityVerdict(mode, a, shift, rows)
