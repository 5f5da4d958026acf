"""Bounded cochain complexes with filtrations and the log/intersection builders.

Complex terms are plain coordinate spaces; quotients and graded pieces are
materialized into fresh canonical coordinates so every construction stays
exact.  Weight labels follow the convention of the weight machinery on the
underlying instance; the purity checker converts a label at degree k into an
honest weight via label + (k - shift).

build_complex is the one dispatch from a kind to a complex: omega, ic, iclog
along a branch set z, shriek, star, and compact, the dual of iclog.  shriek,
i^! on z, is (IC_log(z)/IC)[-1]: the Koszul complex of the slot quotients
IC_log(z)/IC, shifted; star, i^*, is its twisted dual.  Both are zero on the
empty z, where IC_log(z) = IC.

A verb takes the cohomology of a kind with kind_cohomology, remembered per
evaluation, which eliminates only on omega, ic, iclog and shriek.  It reads
H(star) and H(compact) off H(shriek) and H(iclog) by Verdier duality
(dual_cohomology), and H(iclog) along every branch off H(omega), as that
complex is omega's.  build_complex's star and compact, built by dualize,
and build_ic_log remain the reference for both readings.  The
intersection morphism i^! -> i^* is the zero map, by the support and
cosupport conditions of IC, so the link is the mixed cone of zero:
H^k(link) = H^k(i^*) (+) H^{k+1}(i^!).  The verbs read H(link) off those two
summands with link_cohomology; the cone, link_complex, remains the
reference.
For n >= 2 these are objects on the union of the branches, not on the point
stratum, so the link of n >= 2 branches has the wrong cohomology.
A zero residue operator, alpha_j = 0 and N_j = 0, places no block in the
Koszul differential; along it W^J is W, as 0*W = W.
"""

from __future__ import annotations

import itertools

from .errors import FiltrationNotPreserved, ShapeError
from .filtrations import DecreasingFiltration, IncreasingFiltration, filtration_sum
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    _remembered,
    combination,
    induced_map,
    place,
)


class FilteredComplex:
    """Bounded cochain complex with optional weight/Hodge filtrations.

    dims[i] is the dimension of term min_deg + i, d[k] the differential out
    of degree k, weight[k] and hodge[k] the filtrations of term k.  The
    constructor trims zero-dimensional ends, for a canonical degree range,
    and drops what it holds at zero terms.  A complex built by
    ``koszul_complex`` records its slot layout: per degree, slot key ->
    (coordinates of the slot in the term, slot subquotient).
    """

    def __init__(self, min_deg: int, dims: tuple[int, ...],
                 d: dict[int, Matrix] | None = None,
                 weight: dict[int, IncreasingFiltration] | None = None,
                 hodge: dict[int, DecreasingFiltration] | None = None,
                 layout: dict[int, dict[tuple, tuple[range, Subquotient]]]
                 | None = None):
        dims = list(dims)
        while dims and dims[0] == 0:
            dims.pop(0)
            min_deg += 1
        while dims and dims[-1] == 0:
            dims.pop()
        self.min_deg = min_deg
        self.dims = tuple(dims)
        self.d = {k: v for k, v in (d or {}).items()
                  if self.term_dim(k) and self.term_dim(k + 1)}
        self.weight, self.hodge = (
            None if filt is None else
            {k: f for k, f in filt.items() if self.term_dim(k)}
            for filt in (weight, hodge))
        self.layout = layout or {}

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.dims) - 1

    def degrees(self):
        return range(self.min_deg, self.min_deg + len(self.dims))

    def term_dim(self, k: int) -> int:
        i = k - self.min_deg
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    def differential(self, k: int) -> Matrix:
        if k in self.d:
            return self.d[k]
        return Matrix.zero(self.term_dim(k + 1), self.term_dim(k))

    def weight_at(self, k: int) -> IncreasingFiltration:
        if self.weight is None:
            raise FiltrationNotPreserved("complex carries no weight filtration")
        return self.weight.get(k, IncreasingFiltration(0, []))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.term_dim(k) for k in self.degrees())

    def validate(self) -> None:
        for k in self.degrees():
            dk = self.differential(k)
            if (dk.cols, dk.rows) != (self.term_dim(k), self.term_dim(k + 1)):
                raise ShapeError(f"differential at degree {k} has wrong shape")
            comp = self.differential(k + 1) * dk
            if not comp.is_zero():
                raise ShapeError(f"d o d != 0 at degree {k}")
        for filt, name, step in ((self.weight, "weight", "W_"),
                                 (self.hodge, "Hodge", "F^")):
            if filt is None:
                continue
            for k in self.degrees():
                if self.term_dim(k) and k not in filt:
                    raise FiltrationNotPreserved(f"no {name} filtration at {k}")
            for k in self.degrees():
                if not self.term_dim(k) or not self.term_dim(k + 1):
                    continue
                r = filt[k].first_violation(self.differential(k), filt[k + 1])
                if r is not None:
                    raise FiltrationNotPreserved(
                        f"{step}{r} at degree {k} is not a subcomplex")

    def shift(self, m: int) -> "FilteredComplex":
        """C[m]: term k becomes old term k+m; weight labels move by +m."""
        sign = -1 if m % 2 else 1
        d = {k - m: dk.scale(sign) for k, dk in self.d.items()}
        weight, hodge = (
            None if filt is None else
            {k - m: f.shift(label_shift) for k, f in filt.items()}
            for filt, label_shift in ((self.weight, m), (self.hodge, 0)))
        return FilteredComplex(self.min_deg - m, self.dims, d, weight, hodge)


class ComplexMap:
    """Degree-zero chain map; filtration compatibility checked on demand."""

    def __init__(self, source: FilteredComplex, target: FilteredComplex,
                 maps: dict[int, Matrix]):
        self.source = source
        self.target = target
        self.maps = maps

    def at(self, k: int) -> Matrix:
        if k in self.maps:
            return self.maps[k]
        return Matrix.zero(self.target.term_dim(k), self.source.term_dim(k))

    def validate(self) -> None:
        for k in self.source.degrees():
            lhs = self.target.differential(k) * self.at(k)
            rhs = self.at(k + 1) * self.source.differential(k)
            if lhs != rhs:
                raise ShapeError(f"not a chain map at degree {k}")
        for src, tgt, step in ((self.source.weight, self.target.weight, "W_"),
                               (self.source.hodge, self.target.hodge, "F^")):
            if src is None or tgt is None:
                continue
            for k in self.source.degrees():
                if k not in src or k not in tgt:
                    continue
                r = src[k].first_violation(self.at(k), tgt[k])
                if r is not None:
                    raise FiltrationNotPreserved(
                        f"map violates {step}{r} at degree {k}")


def cone(f: ComplexMap) -> FilteredComplex:
    """Mixed cone: term k = A^{k+1} (+) B^k, W_r = W_{r-1}A[1] (+) W_r B."""
    f.validate()
    a, b = f.source, f.target
    lo = min(a.min_deg - 1, b.min_deg)
    hi = max(a.max_deg - 1, b.max_deg)
    dims, d = [], {}
    for k in range(lo, hi + 1):
        da, db = a.term_dim(k + 1), b.term_dim(k)
        da2, db2 = a.term_dim(k + 2), b.term_dim(k + 1)
        dims.append(da + db)
        top, bottom = range(da2), range(da2, da2 + db2)
        left, right = range(da), range(da, da + db)
        d[k] = place((da2 + db2, da + db), [
            (a.differential(k + 1).scale(-1), top, left),
            (f.at(k + 1), bottom, left),
            (b.differential(k), bottom, right)])
    filts = []
    for fa, fb, name, lift in ((a.weight, b.weight, "weight", 1),
                               (a.hodge, b.hodge, "Hodge", 0)):
        if fa is None or fb is None:
            filts.append(None)
            continue
        per_degree = {}
        for k in range(lo, hi + 1):
            da, db = a.term_dim(k + 1), b.term_dim(k)
            if (da and k + 1 not in fa) or (db and k not in fb):
                raise FiltrationNotPreserved(
                    f"cone input misses a {name} filtration near degree {k}")
            parts = [(range(da), fa[k + 1].shift(lift))] if da else []
            if db:
                parts.append((range(da, da + db), fb[k]))
            if parts:
                per_degree[k] = filtration_sum(parts, da + db)
        filts.append(per_degree)
    out = FilteredComplex(lo, tuple(dims), d, *filts)
    out.validate()
    if out.euler_characteristic() != b.euler_characteristic() - \
            a.euler_characteristic():
        raise AssertionError("cone Euler characteristic bookkeeping failed")
    return out


def dualize(c: FilteredComplex, a: int, top: int | None = None) -> FilteredComplex:
    """Dual complex: term k = (term(top-k))*, weights reflected about a.

    W_w(dual term) is the annihilator of W_{2a-w-1} and F^p(dual term) that
    of F^{a-p+1}.
    """
    if top is None:
        top = c.min_deg + c.max_deg
    lo, hi = top - c.max_deg, top - c.min_deg
    dims = tuple(c.term_dim(top - k) for k in range(lo, hi + 1))
    d = {}
    for k in range(lo, hi):
        src = c.differential(top - k - 1)  # term(top-k-1) -> term(top-k)
        sign = -1 if k % 2 == 0 else 1
        d[k] = src.transpose().scale(sign)
    weight, hodge = (
        None if filt is None else
        {k: filt[top - k].dual(center) for k in range(lo, hi + 1)
         if top - k in filt}
        for filt, center in ((c.weight, 2 * a - 1), (c.hodge, a + 1)))
    out = FilteredComplex(lo, dims, d, weight, hodge)
    out.validate()
    return out


# -- cohomology ---------------------------------------------------------------

class DegreeCohomology:
    def __init__(self, dim: int, weights: IncreasingFiltration | None,
                 hodge: DecreasingFiltration | None):
        self.dim = dim
        self.weights = weights
        self.hodge = hodge

    def weight_profile(self) -> dict[int, int]:
        return self.weights.graded_dims() if self.weights is not None else {}


class CohomologyReport:
    def __init__(self, degrees: dict[int, DegreeCohomology]):
        self.degrees = degrees

    def dim(self, k: int) -> int:
        return self.degrees[k].dim if k in self.degrees else 0

    def nonzero_degrees(self):
        return sorted(k for k, h in self.degrees.items() if h.dim)

    def profile(self) -> dict[int, dict[int, int]]:
        return {k: self.degrees[k].weight_profile()
                for k in self.nonzero_degrees()}

    def to_json(self):
        out = []
        for k in sorted(self.degrees):
            h = self.degrees[k]
            if not h.dim:
                continue
            entry = {"degree": k, "dim": h.dim}
            if h.weights is not None:
                entry["weights"] = {str(w): d
                                    for w, d in sorted(h.weight_profile().items())}
            if h.hodge is not None:
                entry["hodge"] = {str(p): d
                                  for p, d in sorted(h.hodge.graded_dims().items())}
            out.append(entry)
        return out


def cohomology(c: FilteredComplex) -> CohomologyReport:
    """Exact kernels/images with induced (image) weight and Hodge filtrations."""
    degrees = {}
    total = 0
    for k in c.degrees():
        z = c.differential(k).kernel()
        b = c.differential(k - 1).image()
        h = Subquotient(z, b)
        w_filtr, f_filtr = (
            filt[k].project_to(h) if filt is not None and k in filt else None
            for filt in (c.weight, c.hodge))
        degrees[k] = DegreeCohomology(h.dim, w_filtr, f_filtr)
        total += (-1) ** k * h.dim
    if total != c.euler_characteristic():
        raise AssertionError("Euler characteristic mismatch in cohomology")
    return CohomologyReport(degrees)


def dual_cohomology(report: CohomologyReport, a: int,
                    top: int) -> CohomologyReport:
    """H(dualize(c, a, top)) off report = H(c), with no elimination.

    H^k of the dual is H^{top-k}(c)* with its dimension, W dual about 2a - 1
    and F about a + 1, as dualize dualizes each term.  This is exact with no
    strictness: for the cocycles Z and coboundaries B of c in degree top - k,
    those of the dual in degree k are Ann(B) and Ann(Z) inside it.  W_j
    induces the step (Z & W_j + B)/B on Z/B, whose annihilator in
    (Z/B)* = Ann(B)/Ann(Z) is Ann(B) & Ann(Z & W_j) = Ann(B) & (Ann(Z) +
    Ann(W_j)), which is Ann(Z) + (Ann(B) & Ann(W_j)) by the modular law, as
    Ann(Z) lies in Ann(B): the step that Ann(W_j) induces on the dual's
    cohomology.  So the dual's induced filtrations are the duals of c's.
    """
    return CohomologyReport({
        top - k: DegreeCohomology(h.dim, *(
            None if f is None else f.dual(center)
            for f, center in ((h.weights, 2 * a - 1), (h.hodge, a + 1))))
        for k, h in reversed(report.degrees.items())})


# -- the Koszul slot complex ----------------------------------------------------

@_remembered
def alpha_ops(comp) -> dict[int, Matrix]:
    """alpha_j Id - N_j on one component, per branch j; remembered."""
    d = comp.dim
    return {j: combination((a, -1), (Matrix.identity(d), nj), d, d)
            for j, (a, nj) in enumerate(zip(comp.alpha, comp.nilpotents))}


def slot_image(ops: dict[int, Matrix], branches, dim: int) -> Subspace:
    """Image of the product of the operators of the listed branches."""
    out = Subspace.full(dim)
    for j in branches:
        out = ops[j].image(out)
    return out


# the kinds that are twisted duals: kind -> (the kind it dualizes, the top
# degree of the duality less the branch count)
_DUALS = {"star": ("shriek", 1), "compact": ("iclog", 0)}


def build_complex(model, kind: str, z=frozenset()) -> FilteredComplex:
    """The complex of one kind: omega or ic, which ignore z, or along the
    branches z, iclog, shriek (i^!), star (i^*, the twisted dual of i^!) or
    compact (the dual of iclog).  omega, ic and iclog are memoized per
    evaluation, and so is the quotient that shriek shifts."""
    if kind == "omega":
        return build_omega(model)
    if kind == "ic":
        return build_ic(model)
    if kind == "iclog":
        return build_ic_log(model, z)
    if kind == "shriek":
        return quotient_complex(model, z).shift(-1)
    if kind in _DUALS:
        of, extra = _DUALS[kind]
        return dualize(build_complex(model, of, z), a=model.base_weight,
                       top=model.branches + extra)
    raise ShapeError(f"unknown complex kind {kind!r}")


def kind_cohomology(model, kind: str, z=frozenset()) -> CohomologyReport:
    """H(build_complex(model, kind, z)), remembered per evaluation: the one
    way a verb takes the cohomology of a kind.  star and compact are read
    off H(shriek) and H(iclog) by dual_cohomology.  iclog along every branch
    is omega's complex when each alpha_j - N_j with alpha_j != 0 is
    invertible, as it is for a nilpotent N_j: its slots cut only those
    branches, so each is the whole space.  That is tested, not presumed, so
    an instance whose N_j is not nilpotent is still eliminated."""
    z = frozenset() if kind in ("omega", "ic") else _check_branches(model, z)
    return _kind_cohomology(model, kind, z)


@_remembered
def _kind_cohomology(model, kind: str, z: frozenset) -> CohomologyReport:
    if kind in _DUALS:
        of, extra = _DUALS[kind]
        return dual_cohomology(_kind_cohomology(model, of, z),
                               model.base_weight, model.branches + extra)
    if kind == "iclog" and len(z) == model.branches and all(
            slot_image(alpha_ops(c), [j for j in z if c.alpha[j]], c.dim).is_full()
            for c in model.components):
        return _kind_cohomology(model, "omega", frozenset())
    return cohomology(build_complex(model, kind, z))


def koszul_complex(branches, blocks, slot, weight=None,
                   hodge=None) -> FilteredComplex:
    """The Koszul complex of commuting operators on a sum of blocks.

    blocks[b] is a dict whose entry j is the operator of branch j on block b.
    Degree k has one slot (K, b) per k-subset K of branches and block b, in
    that order: the subquotient slot(K, b) of block b.  The differential sends
    slot (K, b) to slot (K + j, b) by the map ops[j] induces, with the Koszul
    sign; a zero operator places no block.  When given, weight(K, b) and
    hodge(K, b) are filtrations of block b; the slot carries the filtrations
    they induce.  The result records its slot layout.
    """
    branches = tuple(branches)
    layout, dims = {}, []
    for k in range(len(branches) + 1):
        slots, off = {}, 0
        for K in itertools.combinations(branches, k):
            for b in range(len(blocks)):
                sq = slot(K, b)
                slots[(K, b)] = (range(off, off + sq.dim), sq)
                off += sq.dim
        layout[k] = slots
        dims.append(off)
    d = {}
    for k in range(len(branches)):
        pieces = []
        for (K, b), (pos, sq) in layout[k].items():
            ops = blocks[b]
            for j in branches:
                if j in K or ops[j].is_zero():
                    continue
                t_pos, t_sq = layout[k + 1][(tuple(sorted(K + (j,))), b)]
                sign = -1 if sum(1 for i in K if i < j) % 2 else 1
                block = induced_map(ops[j], sq, t_sq)
                pieces.append((block.scale(sign), t_pos, pos))
        d[k] = place((dims[k + 1], dims[k]), pieces)
    filts = []
    for rule in (weight, hodge):
        filts.append(None if rule is None else {
            k: filtration_sum([(pos, rule(K, b).project_to(sq))
                               for (K, b), (pos, sq) in slots.items()], dims[k])
            for k, slots in layout.items() if dims[k]})
    out = FilteredComplex(0, tuple(dims), d, *filts, layout=layout)
    out.validate()
    return out


@_remembered
def _model_complex(model, kind: str, z: frozenset) -> FilteredComplex:
    """Koszul complex of the residue operators alpha_j - N_j per component.
    Slot (K, ci) of ic is the image of the operators of the branches of K;
    that of iclog skips those in z along which component ci is locally
    unipotent; omega's is the whole space, and shriek's is iclog's modulo
    ic's, which it contains because the operators commute."""
    comps = model.components
    blocks = [alpha_ops(c) for c in comps]

    def image(K, ci, along=frozenset()):
        cut = [j for j in K if j not in along or comps[ci].alpha[j]]
        return slot_image(blocks[ci], cut, comps[ci].dim)

    def slot(K, ci):
        if kind == "shriek":
            return Subquotient(image(K, ci, z), image(K, ci))
        return Subquotient.of(image(() if kind == "omega" else K, ci, z))

    def weight(K, ci):
        # Unipotent slot (K, ci) carries W^K shifted by |K|.  Components with
        # a nonzero exponent are acyclic and sit outside the weight machinery;
        # they carry the plain W restriction (which every residue operator
        # preserves) so the filtration stays a subcomplex.
        if comps[ci].is_unipotent():
            return model.wj(ci, frozenset(K)).shift(len(K))
        return model.on_component(model.weight, ci)

    hodge = None
    if model.hodge is not None:
        hodges = [model.on_component(model.hodge, ci) for ci in range(len(comps))]

        def hodge(K, ci):
            return hodges[ci].shift(len(K))

    return koszul_complex(range(model.branches), blocks, slot, weight, hodge)


def build_omega(model) -> FilteredComplex:
    """The logarithmic Koszul complex of the instance, with weight/Hodge data;
    like the other kinds, a _model_complex, memoized by (model, kind, z)."""
    return _model_complex(model, "omega", frozenset())


def build_ic(model) -> FilteredComplex:
    """The intersection subcomplex: slot K carries the K-fold residue image."""
    return _model_complex(model, "ic", frozenset())


def build_ic_log(model, z) -> FilteredComplex:
    """Logarithmic intersection complex: branches in z keep the full space in
    their locally unipotent directions."""
    return _model_complex(model, "iclog", _check_branches(model, z))


def _check_branches(model, z) -> frozenset:
    z = frozenset(z)
    for j in z:
        if not (isinstance(j, int) and 0 <= j < model.branches):
            raise ShapeError(f"branch index {j} out of range")
    return z


# -- quotient, shrieks, stars, link -------------------------------------------

def subquotient_complex(c: FilteredComplex,
                        pres: dict[int, Subquotient]) -> FilteredComplex:
    """The complex of subquotients pres[k] of the terms of c, k over c's
    degrees (each a subcomplex term modulo a smaller one), with the induced
    differentials and no filtrations."""
    dims = tuple(pres[k].dim for k in c.degrees())
    d = {k: induced_map(c.differential(k), pres[k], pres[k + 1])
         for k in c.degrees()
         if k < c.max_deg and pres[k].dim and pres[k + 1].dim}
    out = FilteredComplex(c.min_deg, dims, d)
    out.validate()
    return out


def quotient_complex(model, z) -> FilteredComplex:
    """IC_log(z)/IC, the Koszul complex of the slot quotients, with the
    induced filtrations; memoized per evaluation by (model, kind, z)."""
    return _model_complex(model, "shriek", _check_branches(model, z))


def intersection_morphism(model, z) -> ComplexMap:
    """The intersection morphism i^! -> i^* on the branches z: zero.

    H(i^!) and H(i^*) of IC sit in disjoint degree ranges (the support and
    cosupport conditions), so the map between them vanishes on every stratum;
    a nonzero intersection form lives only on direct images.
    """
    return ComplexMap(build_complex(model, "shriek", z),
                      build_complex(model, "star", z), {})


def link_complex(model, z) -> FilteredComplex:
    """Mixed cone over the intersection morphism: i^* plus i^![1], whose
    weight labels move up by one: the reference for link_cohomology."""
    return cone(intersection_morphism(model, z))


def link_cohomology(shriek: CohomologyReport,
                    star: CohomologyReport) -> CohomologyReport:
    """H(link) off H(i^!) and H(i^*): the cone of the zero map has a
    block-diagonal differential, so its kernels, images and induced
    filtrations split.  H^k(link) is H^{k+1}(i^!), W labels raised by one,
    placed before H^k(i^*), as in cohomology(link_complex), the reference."""
    degrees = {}
    for k in sorted(set(star.degrees) | {j - 1 for j in shriek.degrees}):
        halves, dim = [], 0
        for h, lift in ((shriek.degrees.get(k + 1), 1), (star.degrees.get(k), 0)):
            if h is not None and h.dim:
                halves.append((range(dim, dim + h.dim), h, lift))
                dim += h.dim
        if dim:
            weights, hodge = (
                None if any(getattr(h, name) is None for _, h, _ in halves)
                else filtration_sum([(pos, getattr(h, name).shift(lift * by))
                                     for pos, h, lift in halves], dim)
                for name, by in (("weights", 1), ("hodge", 0)))
            degrees[k] = DegreeCohomology(dim, weights, hodge)
    return CohomologyReport(degrees)
