"""Primitive parts, graded decomposition into intersection complexes, the
(empty) image of the zero intersection morphism, and the weight-inequality
checkers.

Weight labels on complexes are pre-decalage: the checker converts a label w
at degree k into the honest weight w + (k - shift) before comparing against
the declared bound.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .complexes import (
    CohomologyReport,
    build_complex,
    _check_branches,
    cohomology,
    koszul_complex,
    slot_image,
    subquotient_complex,
)
from .errors import ShapeError
from .filtrations import relative_monodromy_filtration
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    _remembered,
    combination,
    evaluation,
    induced_map,
)
from .model import CheckReport, NCModel, _subsets


# -- primitive parts ----------------------------------------------------------

@dataclass
class PrimitiveComponentPart:
    gr: Subquotient                 # Gr^{W^J}_k of the component space
    space: Subspace                 # the primitive part, in gr coordinates
    residual: dict[int, Matrix]  # induced N_j on the part, j outside J

    @property
    def dim(self):
        return self.space.dim


@_remembered
def _primitive_component(model: NCModel, ci: int, J: tuple, k: int,
                         inside: Subspace | None) -> PrimitiveComponentPart:
    """P^J_k of one unipotent component, cut to inside unless None; memoized."""
    comp = model.components[ci]
    gr = model.wj(ci, frozenset(J)).graded_piece(k)
    space = Subspace.full(gr.dim)
    for i in J:
        K = tuple(j for j in J if j != i)
        gr_k = model.wj(ci, frozenset(K)).graded_piece(k + 1)
        if gr_k.dim == 0:
            continue
        g = induced_map(Matrix.identity(comp.dim), gr, gr_k)
        space = space.intersect(g.kernel())
    if inside is not None:
        space = space.intersect(gr.project_subspace(inside))
    residual = {}
    part = Subquotient.of(space)
    for j in range(model.branches):
        if j in J:
            continue
        nj = induced_map(comp.nilpotents[j], gr, gr)
        if not nj.maps_into(space, space):
            raise ShapeError(
                "residual operator does not preserve the primitive part")
        residual[j] = induced_map(nj, part, part)
    # purity with respect to the relative monodromy of the J-sum
    if J and space.dim:
        nsum = combination([1] * len(J), [comp.nilpotents[j] for j in J],
                           comp.dim, comp.dim)
        m = relative_monodromy_filtration(nsum, model.on_component(model.weight, ci))
        proj = m.project_to(gr)
        if not proj.at(k).contains(space) or \
                space.intersect(proj.at(k - 1)).dim != 0:
            raise ShapeError("primitive part is not pure at its weight")
    return PrimitiveComponentPart(gr, space, residual)


# -- graded decomposition ------------------------------------------------------

def check_distinguished_pair(model: NCModel, ci: int, j: int):
    """Exact splitting Gr^{N_j*W} = Im(Gr N_j) (+) Ker(Gr I_j), all weights,
    decided by dimension count."""
    comp = model.components[ci]
    w = model.on_component(model.weight, ci)
    wj = model.wj(ci, frozenset([j]))
    nj = comp.nilpotents[j]
    for m in wj.jumps():    # the weights where Gr^{N_j*W}_m is nonzero
        gr_t = wj.graded_piece(m)
        gr_s = w.graded_piece(m + 1)
        n_bar = induced_map(nj, gr_s, gr_t)
        img = n_bar.image()
        ident = induced_map(Matrix.identity(comp.dim), gr_t, gr_s)
        ker_i = ident.kernel()
        if not img.dim + ker_i.dim == img.sum(ker_i).dim == gr_t.dim:
            return False, f"no exact splitting at weight {m}"
        n_self = induced_map(nj, gr_s, gr_s)
        if n_self.image().dim != img.dim:
            return False, f"image dimension mismatch at weight {m}"
    return True, ""


def check_graded_decomposition(model: NCModel, k: int, which: str = "omega",
                               z=()) -> CheckReport:
    """Layered verification that Gr^W_k splits into intersection complexes,
    in an evaluation (joining the caller's when one is open)."""
    with evaluation():
        return _graded_decomposition(model, k, which, z)


def _graded_decomposition(model: NCModel, k: int, which: str, z) -> CheckReport:
    report = CheckReport()
    n = model.branches
    unipotent = [ci for ci, c in enumerate(model.components) if c.is_unipotent()]

    # (1a) distinguished-pair splitting per branch
    for ci in unipotent:
        for j in range(n):
            ok, detail = check_distinguished_pair(model, ci, j)
            report.add(f"DistinguishedPair[c={ci},j={j + 1}]", ok, detail)

    # (1b) term-level splitting of Gr^{W^J} into the translates N_{J-K} P^K:
    # they are independent exactly when their dimensions add up to that of
    # their sum, and split Gr^{W^J} when that sum is all of it
    for ci in unipotent:
        comp = model.components[ci]
        for J in _subsets(range(n)):
            w_tgt = k - len(J)
            gr = model.wj(ci, frozenset(J)).graded_piece(w_tgt)
            if gr.dim == 0:
                continue
            translates = []
            for K in _subsets(J):
                p = _primitive_component(model, ci, K, k - len(K), None)
                if p.dim == 0:
                    continue
                op = functools.reduce(lambda op, j: comp.nilpotents[j] * op,
                                      [j for j in J if j not in K],
                                      Matrix.identity(comp.dim))
                translates.append(induced_map(op, p.gr, gr).image(p.space))
            total = functools.reduce(Subspace.sum, translates,
                                     Subspace.zero(gr.dim))
            report.add(
                f"TermSplitting[c={ci},J={{{','.join(str(j + 1) for j in J)}}}"
                f",w={w_tgt}]",
                total.dim == gr.dim == sum(t.dim for t in translates),
                f"translates span {total.dim} of {gr.dim} dimensions"
                if total.dim != gr.dim else "translated primitive parts overlap")

    # (2)+(3) cohomology dimensions of the graded piece Gr^W_k of the full
    # complex match the sum of intersection complexes of primitive parts,
    # each cut to its slot of the full complex (a full slot cuts nothing):
    # the Koszul complex of the part under its residual operators, read at
    # its degree offset len(K)
    full = build_complex(model, which, z)
    graded = subquotient_complex(
        full, {deg: full.weight_at(deg).graded_piece(k)
               for deg in full.degrees()})
    lhs = {deg: h.dim for deg, h in cohomology(graded).degrees.items() if h.dim}
    rhs: dict[int, int] = {}
    for K in _subsets(range(n)):
        rest = [j for j in range(n) if j not in K]
        for ci in unipotent:
            slot = full.layout[len(K)][(K, ci)][1].sub
            part = _primitive_component(
                model, ci, K, k - len(K), None if slot.is_full() else slot)
            if part.dim == 0:
                continue
            ic = koszul_complex(rest, [part.residual], lambda T, b: Subquotient.of(
                slot_image(part.residual, T, part.dim)))
            for deg, h in cohomology(ic).degrees.items():
                if h.dim:
                    rhs[deg + len(K)] = rhs.get(deg + len(K), 0) + h.dim
    report.add(
        f"GradedCohomology[k={k},{which}]",
        lhs == rhs,
        f"graded piece has {lhs}, primitive-part complexes give {rhs}")
    return report


# -- intersection image --------------------------------------------------------

def intersection_image(model: NCModel, z) -> list:
    """The nonzero rows of the image of H^i(i^!) -> H^i(i^*) on the branches
    z: none, as the intersection morphism is zero.  Only its input checks
    run; no complex is built."""
    _check_branches(model, z)
    return []


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
        return dict(vars(self))     # the field order is the key order


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


# purity mode -> (the build_complex kind it reads, the relation its weights
# keep); the link is read off the reports of the support and closed modes,
# and its relation turns at perverse degree 0.  _RELATIONS decides each one.
MODES = {
    "open": ("iclog", ">="),
    "support": ("shriek", ">="),
    "closed": ("star", "<="),
    "compact": ("compact", "<="),
    "link": (None, None),
}
_RELATIONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def purity_check(report: CohomologyReport, a: int, shift: int,
                 mode: str) -> PurityVerdict:
    """Evaluate the mode's weight inequality on every nonzero graded piece."""
    if mode not in MODES:
        raise ShapeError(f"unknown purity mode {mode!r}")
    rows = []
    for k in report.nonzero_degrees():
        ip = k - shift
        rel = MODES[mode][1] or ("<=" if ip <= -1 else ">")
        for label, dim in sorted(report.degrees[k].weight_profile().items()):
            w, bound = label + ip, a + ip
            rows.append(PurityRow(k, ip, label, w, dim, bound, rel,
                                  _RELATIONS[rel](w, bound)))
    return PurityVerdict(mode, a, shift, rows)
