"""Bounded filtered cochain complexes and the logarithmic/intersection builders.

Complex terms are plain coordinate spaces; quotients and graded pieces are
materialized into fresh canonical coordinates so every construction stays
exact.  Weight labels follow the convention of the weight machinery on the
underlying instance; the purity checker converts a label at degree k into an
honest weight via label + (k - shift).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    FiltrationNotPreserved,
    IllDefinedInducedMap,
    PairingDegenerate,
    ShapeError,
)
from .filtrations import (DecreasingFiltration, IncreasingFiltration, _memoized,
                          filtration_sum)
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    induced_map,
    place,
    rref,
    zero_vector,
)
from .scalars import ONE, ZERO, Scalar


@dataclass
class FilteredComplex:
    """Bounded cochain complex with optional weight/Hodge filtrations.

    A complex built by ``koszul_complex`` records its slot layout: per degree,
    slot key -> (coordinates of the slot in the term, slot space).
    """

    min_deg: int
    dims: tuple[int, ...]                      # dims[i] = dim of term min_deg+i
    d: dict[int, Matrix] = field(default_factory=dict)
    weight: dict[int, IncreasingFiltration] | None = None
    hodge: dict[int, DecreasingFiltration] | None = None
    layout: dict[int, dict[tuple, tuple[range, Subspace]]] = field(
        default_factory=dict, repr=False)

    def __post_init__(self):
        # trim zero-dimensional ends for a canonical degree range
        dims = list(self.dims)
        while dims and dims[0] == 0:
            dims.pop(0)
            self.min_deg += 1
        while dims and dims[-1] == 0:
            dims.pop()
        self.dims = tuple(dims)
        self.d = {k: v for k, v in self.d.items()
                  if self.term_dim(k) and self.term_dim(k + 1)}
        self.weight, self.hodge = (
            None if filt is None else
            {k: f for k, f in filt.items() if self.term_dim(k)}
            for filt in (self.weight, self.hodge))

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

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        if (self.min_deg, self.dims) != (other.min_deg, other.dims):
            return False
        for k in self.degrees():
            if self.differential(k) != other.differential(k):
                return False
        return (self.weight, self.hodge) == (other.weight, other.hodge)

    def shift(self, m: int) -> "FilteredComplex":
        """C[m]: term k becomes old term k+m; weight labels move by +m."""
        sign = -ONE if m % 2 else ONE
        d = {k - m: dk.scale(sign) for k, dk in self.d.items()}
        weight, hodge = (
            None if filt is None else
            {k - m: f.shift(label_shift) for k, f in filt.items()}
            for filt, label_shift in ((self.weight, m), (self.hodge, 0)))
        return FilteredComplex(self.min_deg - m, self.dims, d, weight, hodge)


@dataclass
class ComplexMap:
    """Degree-zero chain map; filtration compatibility checked on demand."""

    source: FilteredComplex
    target: FilteredComplex
    maps: dict[int, Matrix]

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
            (-a.differential(k + 1), top, left),
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


def dualize(c: FilteredComplex, a: int, top: int | None = None,
            pairing: Matrix | None = None) -> FilteredComplex:
    """Dual complex: term k = (term(top-k))*, weights reflected about a.

    W_w(dual term) is the annihilator of W_{2a-w-1} and F^p(dual term) that
    of F^{a-p+1}; the optional pairing is only checked for nondegeneracy (the
    dual itself is coordinate-abstract).
    """
    if pairing is not None:
        if len(rref(pairing.entries, pairing.cols)) != pairing.rows:
            raise PairingDegenerate("declared pairing is singular")
    if top is None:
        top = c.min_deg + c.max_deg
    lo, hi = top - c.max_deg, top - c.min_deg
    dims = tuple(c.term_dim(top - k) for k in range(lo, hi + 1))
    d = {}
    for k in range(lo, hi):
        src = c.differential(top - k - 1)  # term(top-k-1) -> term(top-k)
        sign = -ONE if (k % 2 == 0) else ONE
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

@dataclass
class DegreeCohomology:
    degree: int
    presentation: Subquotient
    weights: IncreasingFiltration | None
    hodge: DecreasingFiltration | None

    @property
    def dim(self):
        return self.presentation.dim

    def weight_profile(self) -> dict[int, int]:
        return self.weights.graded_dims() if self.weights is not None else {}


@dataclass
class CohomologyReport:
    complex: FilteredComplex
    degrees: dict[int, DegreeCohomology]

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
        degrees[k] = DegreeCohomology(k, h, w_filtr, f_filtr)
        total += (-1) ** k * h.dim
    if total != c.euler_characteristic():
        raise AssertionError("Euler characteristic mismatch in cohomology")
    return CohomologyReport(c, degrees)


# -- the Koszul slot complex ----------------------------------------------------

def alpha_ops(comp) -> dict[int, Matrix]:
    """alpha_j Id - N_j on one component, per branch j."""
    ident = Matrix.identity(comp.dim)
    return {j: ident.scale(Scalar(a)) - nj
            for j, (a, nj) in enumerate(zip(comp.alpha, comp.nilpotents))}


def slot_image(ops: dict[int, Matrix], branches, dim: int) -> Subspace:
    """Image of the product of the operators of the listed branches."""
    out = Subspace.full(dim)
    for j in branches:
        out = ops[j].image(out)
    return out


def build_complex(model, kind: str, z=frozenset()) -> FilteredComplex:
    """The complex of one kind: omega, ic, or iclog along the branches z."""
    if kind == "omega":
        return build_omega(model)
    if kind == "ic":
        return build_ic(model)
    if kind == "iclog":
        return build_ic_log(model, z)
    raise ShapeError(f"unknown complex kind {kind!r}")


def koszul_complex(branches, blocks, cut, weight=None,
                   hodge=None) -> FilteredComplex:
    """The filtered Koszul complex of commuting operators on a sum of blocks.

    blocks[b] is (dim, ops) with ops[j] the operator of branch j on block b.
    Degree k has one slot (K, b) per k-subset K of branches and block b, in
    that order: the image in block b of the operators of the branches
    cut(K, b), a subset of K.  The differential sends slot (K, b) to slot
    (K + j, b) by ops[j] with the Koszul sign.  When given, weight(K, b) and
    hodge(K, b) are filtrations of block b; the slot carries their
    restrictions.  The result records its slot layout.
    """
    branches = tuple(branches)
    layout, dims = {}, []
    for k in range(len(branches) + 1):
        slots, off = {}, 0
        for K in itertools.combinations(branches, k):
            for b, (dim, ops) in enumerate(blocks):
                space = slot_image(ops, cut(K, b), dim)
                slots[(K, b)] = (range(off, off + space.dim), space)
                off += space.dim
        layout[k] = slots
        dims.append(off)
    d = {}
    for k in range(len(branches)):
        pieces = []
        for (K, b), (pos, space) in layout[k].items():
            ops = blocks[b][1]
            for j in branches:
                if j in K:
                    continue
                t_pos, t_space = layout[k + 1][(tuple(sorted(K + (j,))), b)]
                sign = -ONE if sum(1 for i in K if i < j) % 2 else ONE
                try:
                    block = induced_map(ops[j], Subquotient.of(space),
                                        Subquotient.of(t_space))
                except IllDefinedInducedMap:
                    raise ShapeError(
                        "differential leaves the declared slot space") from None
                pieces.append((block.scale(sign), t_pos, pos))
        d[k] = place((dims[k + 1], dims[k]), pieces)
    filts = []
    for rule in (weight, hodge):
        filts.append(None if rule is None else {
            k: filtration_sum([(pos, rule(K, b).project_to(Subquotient.of(space)))
                               for (K, b), (pos, space) in slots.items()], dims[k])
            for k, slots in layout.items() if dims[k]})
    out = FilteredComplex(0, tuple(dims), d, *filts, layout=layout)
    out.validate()
    return out


def _model_complex(model, kind: str, z: frozenset) -> FilteredComplex:
    """Koszul complex of the residue operators alpha_j - N_j per component.
    Apart from omega, slot (K, ci) is cut by the branches of K, except those
    in z along which component ci is locally unipotent."""
    comps = model.components
    blocks = [(c.dim, alpha_ops(c)) for c in comps]

    def cut(K, ci):
        if kind == "omega":
            return ()
        zero_dirs = comps[ci].zero_alpha_branches()
        return [j for j in K if not (j in z and j in zero_dirs)]

    def weight(K, ci):
        # Unipotent slot (K, ci) carries W^K shifted by |K|.  Components with
        # a nonzero exponent are acyclic and sit outside the weight machinery;
        # they carry the plain W restriction (which every residue operator
        # preserves) so the filtration stays a subcomplex.
        if comps[ci].is_unipotent():
            return model.wj(ci, frozenset(K)).shift(len(K))
        return model.weight_on_component(ci)

    hodge = None
    if model.hodge is not None:
        hodges = [model.hodge_on_component(ci) for ci in range(len(comps))]

        def hodge(K, ci):
            return hodges[ci].shift(len(K))

    return koszul_complex(range(model.branches), blocks, cut, weight, hodge)


def build_omega(model) -> FilteredComplex:
    """The logarithmic Koszul complex of the instance, with weight/Hodge data;
    like the other two builders, memoized per evaluation by (model, kind, z)."""
    return _memoized(_model_complex, model, "omega", frozenset())


def build_ic(model) -> FilteredComplex:
    """The intersection subcomplex: slot K carries the K-fold residue image."""
    return _memoized(_model_complex, model, "ic", frozenset())


def build_ic_log(model, z) -> FilteredComplex:
    """Logarithmic intersection complex: branches in z keep the full space in
    their locally unipotent directions."""
    return _memoized(_model_complex, model, "iclog", _check_branches(model, z))


def _check_branches(model, z) -> frozenset:
    z = frozenset(z)
    for j in z:
        if not (isinstance(j, int) and 0 <= j < model.branches):
            raise ShapeError(f"branch index {j} out of range")
    return z


def ic_into_iclog(model, ic: FilteredComplex, log: FilteredComplex) -> ComplexMap:
    """Termwise inclusion of the intersection complex into the log variant."""
    maps = {}
    for k in ic.degrees():
        if not ic.term_dim(k):
            continue
        pieces = []
        for key, (pos, space) in ic.layout[k].items():
            t_pos, t_space = log.layout[k][key]
            block = Matrix([t_space.coords(v) for v in space.basis],
                           cols=t_space.dim).transpose()
            pieces.append((block, t_pos, pos))
        maps[k] = place((log.term_dim(k), ic.term_dim(k)), pieces)
    out = ComplexMap(ic, log, maps)
    out.validate()
    return out


# -- quotient, shrieks, stars, link -------------------------------------------

def subquotient_complex(c: FilteredComplex, pres: dict[int, Subquotient], *,
                        filtered: bool) -> FilteredComplex:
    """The complex of subquotients pres[k] of the terms of c, k over c's
    degrees, with the induced differentials.

    Each pres[k] is a subcomplex term modulo a smaller one.  When filtered,
    c's weight and Hodge filtrations are carried as image filtrations.
    """
    dims = tuple(pres[k].dim for k in c.degrees())
    d = {k: induced_map(c.differential(k), pres[k], pres[k + 1])
         for k in c.degrees()
         if k < c.max_deg and pres[k].dim and pres[k + 1].dim}
    weight, hodge = (
        None if not filtered or filt is None else
        {k: f.project_to(pres[k]) for k, f in filt.items() if pres[k].dim}
        for filt in (c.weight, c.hodge))
    out = FilteredComplex(c.min_deg, dims, d, weight, hodge)
    out.validate()
    return out


def quotient_complex(sub_map: ComplexMap) -> tuple[FilteredComplex, dict]:
    """Target/Image(sub) with induced differentials and image filtrations.

    Returns the quotient complex and the per-degree Subquotient presentations.
    """
    b = sub_map.target
    pres = {k: Subquotient(Subspace.full(b.term_dim(k)), sub_map.at(k).image())
            for k in b.degrees()}
    return subquotient_complex(b, pres, filtered=True), pres


@dataclass(frozen=True, eq=False)
class _SupportTower:
    """IC inside IC_log along z, the quotient Q = IC_log/IC with its
    presentations, and the sections supported on z, i^! = Q[-1].  The memo
    builds one tower per (model, z) and keys i^* and H(i^!), H(i^*) on it.
    """

    model: object
    ic: FilteredComplex
    log: FilteredComplex
    emb: ComplexMap
    pres: dict[int, Subquotient]
    shriek: FilteredComplex

    def star(self) -> FilteredComplex:
        """i^*, the twisted dual of i^!."""
        return _memoized(_tower_star, self)


def _tower_star(tower: _SupportTower) -> FilteredComplex:
    m = tower.model
    return dualize(tower.shriek, a=m.base_weight, top=m.branches + 1,
                   pairing=m.pairing)


def _tower_cohomology(tower: _SupportTower, star: bool) -> CohomologyReport:
    """H(i^*) when star, else H(i^!)."""
    return cohomology(tower.star() if star else tower.shriek)


def _support_tower(model, z: frozenset) -> _SupportTower:
    return _memoized(_build_support_tower, model, z)


def _build_support_tower(model, z: frozenset) -> _SupportTower:
    ic = build_ic(model)
    log = build_ic_log(model, z)
    emb = ic_into_iclog(model, ic, log)
    quot, pres = quotient_complex(emb)
    return _SupportTower(model, ic, log, emb, pres, quot.shift(-1))


def _checked_tower(model, z, star: bool) -> _SupportTower:
    """The support tower on z, for i^* when star, else for i^!."""
    name = "i_star" if star else "i_shriek"
    z = _check_branches(model, z)
    if not z:
        raise ShapeError(f"{name} needs a nonempty branch set")
    if star and model.pairing is None:
        raise PairingDegenerate("i_star needs the model pairing")
    return _support_tower(model, z)


def i_shriek(model, z) -> FilteredComplex:
    """Sections supported on the branches in z: (log/ic)[-1] with shifted W."""
    return _checked_tower(model, z, False).shriek


def i_star(model, z) -> FilteredComplex:
    """Restriction to the branches in z, realized as the twisted dual of i^!."""
    return _checked_tower(model, z, True).star()


def support_cohomology(model, z, star: bool) -> CohomologyReport:
    """cohomology(i_star(model, z)) when star, else of i_shriek(model, z);
    inside an evaluation each is computed once."""
    return _memoized(_tower_cohomology, _checked_tower(model, z, star), star)


@dataclass
class IntersectionData:
    """The intersection morphism on cohomology, with its ingredients."""

    shriek: FilteredComplex
    star: FilteredComplex
    h_shriek: CohomologyReport
    h_star: CohomologyReport
    maps: dict[int, Matrix]  # H^k(i^!) -> H^k(i^*)


def intersection_morphism(model, z) -> IntersectionData:
    """H-level intersection morphism through the intersection complex.

    The connecting map of 0 -> IC -> log -> Q -> 0 lands in H(IC); classes
    there pair against H(Q) by the complementary-slot polarization pairing,
    which identifies with H of the dual complex.
    """
    z = _check_branches(model, z)
    if model.pairing is None:
        raise PairingDegenerate("intersection morphism needs the pairing")
    n = model.branches
    tower = _support_tower(model, z)
    shr, st = tower.shriek, tower.star()
    h_shr, h_st = (_memoized(_tower_cohomology, tower, s) for s in (False, True))

    pair = _slot_pairing(model, tower.ic, tower.log)
    maps = {}
    for k in shr.degrees():
        hk = h_shr.degrees.get(k)
        if hk is None or hk.dim == 0:
            continue
        target = h_st.degrees.get(k)
        tdim = target.dim if target else 0
        dual_deg = n + 1 - k
        dual_h = h_shr.degrees.get(dual_deg)
        ddim = dual_h.dim if dual_h else 0
        if tdim != ddim:
            raise AssertionError("dual cohomology dimensions disagree")
        if tdim == 0:
            maps[k] = Matrix.zero(0, hk.dim)
            continue
        _check_pairing_ambiguities(tower, pair, k)
        duals = dual_h.presentation.lifts.basis            # Q-coords, deg n-k
        w_logs = [tower.pres[dual_deg - 1].lift(wq) for wq in duals]
        # evaluation pairing between H^{n+1-k}(shriek) and H^k(star)
        evaluation = Matrix(
            [[phi.dot(wv) for phi in target.presentation.lifts.basis]
             for wv in duals], cols=tdim)
        cols = []
        for u in hk.presentation.lifts.basis:               # Q-coords, deg k-1
            delta_u = _connecting_class(tower, k, u)
            sol = evaluation.solve(tuple(pair(k, delta_u, w) for w in w_logs))
            if sol is None:
                raise AssertionError("evaluation pairing is degenerate")
            cols.append(sol)
        maps[k] = Matrix(cols, cols=tdim).transpose()
    return IntersectionData(shr, st, h_shr, h_st, maps)


def _connecting_class(tower: _SupportTower, k, u_quot):
    """delta: H^{k-1}(Q) -> H^k(IC) as a cocycle in IC-term coordinates."""
    w = tower.pres[k - 1].lift(u_quot)      # representative in log term k-1
    dw = tower.log.differential(k - 1)(w)   # lands in the embedded IC term k
    x = tower.emb.at(k).solve(dw)
    if x is None:
        raise AssertionError("connecting image not in the subcomplex")
    return x


def _check_pairing_ambiguities(tower: _SupportTower, pair, k):
    """The slot pairing must be independent of every representative choice
    made at degree k: Q-class reps (mod the subcomplex and mod coboundaries)
    and connecting-cocycle reps (mod intersection-complex coboundaries)."""
    n = tower.model.branches
    ic, log, emb = tower.ic, tower.log, tower.emb
    z_ic = ic.differential(k).kernel()
    b_ic = ic.differential(k - 1).image()
    emb_img = emb.at(n - k).image()
    rep_space = log.differential(n - k).preimage(emb.at(n - k + 1).image())
    for u in z_ic.basis:
        for v in emb_img.basis:
            if pair(k, u, v):
                raise AssertionError(
                    f"pairing does not kill the subcomplex at degree {k}")
    for u in b_ic.basis:
        for v in rep_space.basis:
            if pair(k, u, v):
                raise AssertionError(
                    f"pairing does not kill coboundaries at degree {k}")
    source_coboundaries = log.differential(n - k - 1).transpose().entries
    for u in z_ic.basis:
        for y in source_coboundaries:
            if pair(k, u, y):
                raise AssertionError(
                    f"pairing does not kill source coboundaries at degree {k}")


def _slot_pairing(model, ic, log):
    """Pairing(k): IC-term-k x log-term-(n-k) -> Scalar via complementary slots."""
    n = model.branches
    form = model.pairing_form()
    all_branches = tuple(range(n))

    def eps(K):
        # sign of the shuffle (K, complement of K), K sorted: its inversions
        # are the pairs i in K, j outside K with j < i
        return -ONE if sum(j < i for i in K for j in all_branches
                           if j not in K) % 2 else ONE

    def pair(k, u_ic, w_log):
        ic_layout = ic.layout.get(k, {})
        log_layout = log.layout.get(n - k, {})
        total = ZERO
        for (K, ci), (pos, space) in ic_layout.items():
            comp_k = tuple(j for j in all_branches if j not in K)
            key = (comp_k, ci)
            if key not in log_layout:
                continue
            t_pos, t_space = log_layout[key]
            u_slot = u_ic[pos.start: pos.stop]
            w_slot = w_log[t_pos.start: t_pos.stop]
            if u_slot.is_zero() or w_slot.is_zero():
                continue
            # slot coordinates -> total-space vectors supported on component ci
            on_ci = model.component_positions(ci)
            uv = place(model.total_dim, [(space.from_coords(u_slot), on_ci)])
            wv = place(model.total_dim, [(t_space.from_coords(w_slot), on_ci)])
            total = total + eps(K) * form(uv, wv)
        return total

    return pair


def link_complex(model, z) -> FilteredComplex:
    """Mixed cone over the intersection morphism i^! -> i^*.

    The chain map is a weight-adapted lift of the exactly computed
    cohomology-level morphism.  It must preserve both W and F (F when the
    model carries one), or the build fails.
    """
    data = intersection_morphism(model, z)
    rho = _lift_h_map(data)
    return cone(rho)


def _lift_h_map(data: IntersectionData) -> ComplexMap:
    """Chain lift of the cohomology-level morphism, adapted to W.

    Each term of the source gets a basis refining the weight flag, split at
    every level into boundary / extra-cocycle / complement vectors.  The lift
    kills boundaries and complements and sends each extra cocycle to a
    representative of its image class found inside the same weight level, so
    chain and weight compatibility hold by construction.
    """
    a, b = data.shriek, data.star
    maps = {}
    for k in a.degrees():
        da, db = a.term_dim(k), b.term_dim(k)
        if not da:
            continue
        z = a.differential(k).kernel()
        bd = a.differential(k - 1).image()
        h_a = data.h_shriek.degrees[k]
        h_map = data.maps.get(k)
        h_b = data.h_star.degrees.get(k)
        wa = a.weight_at(k)
        lifts = h_map is not None and h_b is not None and h_b.dim > 0
        basis_rows, values, span = [], [], Subspace.zero(da)
        for r in wa.jumps():
            wr = wa.at(r)
            for part, cocycles in ((wr.intersect(bd), False),
                                   (wr.intersect(z), lifts), (wr, False)):
                for v in part.basis:
                    if not span.contains_vector(v):
                        basis_rows.append(v)
                        values.append(_class_representative(
                            h_b, b, k, h_map(h_a.presentation.coords(v)), r)
                            if cocycles else zero_vector(db))
                        span = span.sum(Subspace.span([v], da))
        change = Matrix(basis_rows, cols=da).transpose()
        vals = Matrix(values, cols=db).transpose() if db else Matrix.zero(0, da)
        maps[k] = vals * change.inverse()
    rho = ComplexMap(a, b, maps)
    try:
        rho.validate()
    except FiltrationNotPreserved:
        raise AssertionError("weight-adapted lift does not preserve W and F")
    return rho


def _class_representative(h: DegreeCohomology, b: FilteredComplex, k: int,
                          cls, weight_bound: int):
    """A cocycle representative of cls inside W_{weight_bound}, if possible."""
    if h.dim == 0 or cls.is_zero():
        return zero_vector(b.term_dim(k))
    v0 = h.presentation.lift(cls)
    zw = b.differential(k).kernel().intersect(b.weight_at(k).at(weight_bound))
    bd = b.differential(k - 1).image()
    gens = list(zw.basis) + list(bd.basis)
    coeffs = Matrix(gens, cols=b.term_dim(k)).transpose().solve(v0)
    if coeffs is None:
        raise FiltrationNotPreserved(
            "cohomology class has no representative at its weight level")
    return zw.from_coords(coeffs[: zw.dim])

