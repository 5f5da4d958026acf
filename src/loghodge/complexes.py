"""Bounded filtered cochain complexes and the logarithmic/intersection builders.

Complex terms are plain coordinate spaces; quotients and graded pieces are
materialized into fresh canonical coordinates so every construction stays
exact.  Weight labels follow the convention of the weight machinery on the
underlying instance; the purity checker converts a label at degree k into an
honest weight via label + (k - shift).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .errors import (
    FiltrationNotPreserved,
    PairingDegenerate,
    ShapeError,
)
from .filtrations import DecreasingFiltration, IncreasingFiltration
from .linalg import (
    LinearMap,
    Matrix,
    Subquotient,
    Subspace,
    induced_map,
    rref,
    solve_in_span,
    solve_linear,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from .scalars import ONE, ZERO, Scalar


@dataclass
class FilteredComplex:
    """Bounded cochain complex with optional weight/Hodge filtrations.

    A complex built by ``koszul_complex`` records its slot layout: per degree,
    slot key -> (offset of the slot in the term, slot space).
    """

    min_deg: int
    dims: tuple[int, ...]                      # dims[i] = dim of term min_deg+i
    d: dict[int, LinearMap] = field(default_factory=dict)
    weight: dict[int, IncreasingFiltration] | None = None
    hodge: dict[int, DecreasingFiltration] | None = None
    layout: dict[int, dict[tuple, tuple[int, Subspace]]] = field(
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

    def differential(self, k: int) -> LinearMap:
        if k in self.d:
            return self.d[k]
        return LinearMap.zero(self.term_dim(k), self.term_dim(k + 1))

    def weight_at(self, k: int) -> IncreasingFiltration:
        if self.weight is None:
            raise FiltrationNotPreserved("complex carries no weight filtration")
        return self.weight.get(k, IncreasingFiltration(0, []))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.term_dim(k) for k in self.degrees())

    def validate(self) -> None:
        for k in self.degrees():
            dk = self.differential(k)
            if (dk.source_dim, dk.target_dim) != (self.term_dim(k),
                                                  self.term_dim(k + 1)):
                raise ShapeError(f"differential at degree {k} has wrong shape")
            comp = self.differential(k + 1).compose(dk)
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
                dk, fk, fk1 = self.differential(k), filt[k], filt[k + 1]
                for r, sub in fk.steps:
                    tgt = fk1.at(r)
                    if not all(tgt.contains_vector(dk(v)) for v in sub.basis):
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
    maps: dict[int, LinearMap]

    def at(self, k: int) -> LinearMap:
        if k in self.maps:
            return self.maps[k]
        return LinearMap.zero(self.source.term_dim(k), self.target.term_dim(k))

    def validate(self, check_filtrations=True) -> None:
        for k in self.source.degrees():
            lhs = self.target.differential(k).compose(self.at(k))
            rhs = self.at(k + 1).compose(self.source.differential(k))
            if lhs != rhs:
                raise ShapeError(f"not a chain map at degree {k}")
        if not check_filtrations:
            return
        for src, tgt, step in ((self.source.weight, self.target.weight, "W_"),
                               (self.source.hodge, self.target.hodge, "F^")):
            if src is None or tgt is None:
                continue
            for k in self.source.degrees():
                if k not in src or k not in tgt:
                    continue
                f = self.at(k)
                for r, sub in src[k].steps:
                    t = tgt[k].at(r)
                    if not all(t.contains_vector(f(v)) for v in sub.basis):
                        raise FiltrationNotPreserved(
                            f"map violates {step}{r} at degree {k}")


def _direct_sum(parts, total: int):
    """Direct sum of filtrations placed on consecutive coordinate blocks.

    parts is a non-empty list of (offset, filtration) covering 0..total.
    """
    labels = sorted({i for _, f in parts for i in f.jumps()})
    steps = []
    for i in labels:
        rows = [zero_vector(off) + tuple(v)
                + zero_vector(total - off - f.ambient_dim)
                for off, f in parts for v in f.at(i).basis]
        steps.append((i, Subspace.span(rows, total)))
    return type(parts[0][1])(total, steps)


def cone(f: ComplexMap) -> FilteredComplex:
    """Mixed cone: term k = A^{k+1} (+) B^k, W_r = W_{r-1}A[1] (+) W_r B."""
    f.validate()
    a, b = f.source, f.target
    lo = min(a.min_deg - 1, b.min_deg)
    hi = max(a.max_deg - 1, b.max_deg)
    dims, d = [], {}
    for k in range(lo, hi + 1):
        da, db = a.term_dim(k + 1), b.term_dim(k)
        dims.append(da + db)
    for k in range(lo, hi + 1):
        da, db = a.term_dim(k + 1), b.term_dim(k)
        da2, db2 = a.term_dim(k + 2), b.term_dim(k + 1)
        rows = []
        d_a = a.differential(k + 1)
        d_b = b.differential(k)
        f_k1 = f.at(k + 1)
        for r in range(da2):
            rows.append([-d_a.matrix[r, c] for c in range(da)] + [ZERO] * db)
        for r in range(db2):
            rows.append([f_k1.matrix[r, c] for c in range(da)]
                        + [d_b.matrix[r, c] for c in range(db)])
        d[k] = LinearMap(Matrix(rows, cols=da + db))
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
            parts = [(0, fa[k + 1].shift(lift))] if da else []
            if db:
                parts.append((da, fb[k]))
            if parts:
                per_degree[k] = _direct_sum(parts, da + db)
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
        d[k] = LinearMap(src.matrix.transpose().scale(sign))
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

def alpha_ops(comp) -> dict[int, LinearMap]:
    """alpha_j Id - N_j on one component, per branch j."""
    ident = LinearMap.identity(comp.dim)
    return {j: ident.scale(Scalar(a)) - nj
            for j, (a, nj) in enumerate(zip(comp.alpha, comp.nilpotents))}


def slot_image(ops: dict[int, LinearMap], branches, dim: int) -> Subspace:
    """Image of the product of the operators of the listed branches."""
    out = Subspace.full(dim)
    for j in branches:
        out = Subspace.span([ops[j](v) for v in out.basis], dim)
    return out


def ic_cut(model, z: frozenset):
    """Slot choice of the intersection complexes: slot (K, ci) is cut by the
    branches of K, except those in z along which component ci is locally
    unipotent (z empty gives IC, z nonempty its logarithmic variant)."""
    def cut(K, ci):
        zero_dirs = model.components[ci].zero_alpha_branches()
        return [j for j in K if not (j in z and j in zero_dirs)]

    return cut


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
                slots[(K, b)] = (off, space)
                off += space.dim
        layout[k] = slots
        dims.append(off)
    d = {}
    for k in range(len(branches)):
        rows = [[ZERO] * dims[k] for _ in range(dims[k + 1])]
        for (K, b), (off, space) in layout[k].items():
            ops = blocks[b][1]
            for j in branches:
                if j in K:
                    continue
                t_off, t_space = layout[k + 1][(tuple(sorted(K + (j,))), b)]
                sign = -ONE if sum(1 for i in K if i < j) % 2 else ONE
                for c_idx, v in enumerate(space.basis):
                    w = ops[j](v)
                    if not t_space.contains_vector(w):
                        raise ShapeError(
                            "differential leaves the declared slot space")
                    for r_idx, x in enumerate(t_space.coords(w)):
                        if x:
                            rows[t_off + r_idx][off + c_idx] = sign * x
        d[k] = LinearMap(Matrix(rows, cols=dims[k]))
    filts = []
    for rule in (weight, hodge):
        filts.append(None if rule is None else {
            k: _direct_sum([(off, rule(K, b).restrict_to(space))
                            for (K, b), (off, space) in slots.items()], dims[k])
            for k, slots in layout.items() if dims[k]})
    out = FilteredComplex(0, tuple(dims), d, *filts, layout=layout)
    out.validate()
    return out


def _model_complex(model, cut, with_filtrations) -> FilteredComplex:
    """Koszul complex of the residue operators alpha_j - N_j per component."""
    comps = model.components
    blocks = [(c.dim, alpha_ops(c)) for c in comps]
    if not with_filtrations:
        return koszul_complex(range(model.branches), blocks, cut)

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


def build_omega(model, with_filtrations=True) -> FilteredComplex:
    """The logarithmic Koszul complex of the instance, with weight/Hodge data."""
    return _model_complex(model, lambda K, ci: (), with_filtrations)


def build_ic(model, with_filtrations=True) -> FilteredComplex:
    """The intersection subcomplex: slot K carries the K-fold residue image."""
    return _model_complex(model, ic_cut(model, frozenset()), with_filtrations)


def build_ic_log(model, z, with_filtrations=True) -> FilteredComplex:
    """Logarithmic intersection complex: branches in z keep the full space in
    their locally unipotent directions."""
    z = _check_branches(model, z)
    return _model_complex(model, ic_cut(model, z), with_filtrations)


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
        src_dim, tgt_dim = ic.term_dim(k), log.term_dim(k)
        if not src_dim:
            continue
        rows = [[ZERO] * src_dim for _ in range(tgt_dim)]
        for key, (off, space) in ic.layout[k].items():
            t_off, t_space = log.layout[k][key]
            for c_idx, v in enumerate(space.basis):
                for r_idx, x in enumerate(t_space.coords(v)):
                    if x:
                        rows[t_off + r_idx][off + c_idx] = x
        maps[k] = LinearMap(Matrix(rows, cols=src_dim))
    out = ComplexMap(ic, log, maps)
    out.validate()
    return out


# -- quotient, shrieks, stars, link -------------------------------------------

def quotient_complex(sub_map: ComplexMap) -> tuple[FilteredComplex, dict]:
    """Target/Image(sub) with induced differentials and image filtrations.

    Returns the quotient complex and the per-degree Subquotient presentations.
    """
    a, b = sub_map.source, sub_map.target
    pres = {}
    dims = []
    lo, hi = b.min_deg, b.max_deg
    for k in range(lo, hi + 1):
        img = sub_map.at(k).image() if a.term_dim(k) else \
            Subspace.zero(b.term_dim(k))
        pres[k] = Subquotient(Subspace.full(b.term_dim(k)), img)
        dims.append(pres[k].dim)
    d = {}
    for k in range(lo, hi):
        if dims[k - lo] and dims[k + 1 - lo]:
            d[k] = induced_map(b.differential(k), pres[k], pres[k + 1])
    weight, hodge = (
        None if filt is None else
        {k: f.project_to(pres[k]) for k, f in filt.items() if dims[k - lo]}
        for filt in (b.weight, b.hodge))
    out = FilteredComplex(lo, tuple(dims), d, weight, hodge)
    out.validate()
    return out, pres


def i_shriek(model, z) -> FilteredComplex:
    """Sections supported on the branches in z: (log/ic)[-1] with shifted W."""
    z = _check_branches(model, z)
    if not z:
        raise ShapeError("i_shriek needs a nonempty branch set")
    ic = build_ic(model)
    log = build_ic_log(model, z)
    emb = ic_into_iclog(model, ic, log)
    quot, _ = quotient_complex(emb)
    return quot.shift(-1)


def i_star(model, z) -> FilteredComplex:
    """Restriction to the branches in z, realized as the twisted dual of i^!."""
    z = _check_branches(model, z)
    if not z:
        raise ShapeError("i_star needs a nonempty branch set")
    if model.pairing is None:
        raise PairingDegenerate("i_star needs the model pairing")
    shr = i_shriek(model, z)
    return dualize(shr, a=model.base_weight, top=model.branches + 1,
                   pairing=model.pairing)


@dataclass
class IntersectionData:
    """The intersection morphism on cohomology, with its ingredients."""

    model: object
    z: frozenset
    shriek: FilteredComplex
    star: FilteredComplex
    h_shriek: CohomologyReport
    h_star: CohomologyReport
    maps: dict[int, LinearMap]  # H^k(i^!) -> H^k(i^*)


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
    ic = build_ic(model)
    log = build_ic_log(model, z)
    emb = ic_into_iclog(model, ic, log)
    quot, pres = quotient_complex(emb)
    shr = quot.shift(-1)
    st = dualize(shr, a=model.base_weight, top=n + 1, pairing=model.pairing)
    h_shr = cohomology(shr)
    h_st = cohomology(st)
    h_ic = cohomology(ic)

    pair = _slot_pairing(model, ic, log)
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
            maps[k] = LinearMap.zero(hk.dim, 0)
            continue
        _check_pairing_ambiguities(model, ic, log, emb, pair, k)
        # evaluation pairing between H^k(star) and H^{n+1-k}(shriek)
        eval_rows = []
        for r in range(tdim):
            phi = target.presentation.lift(_unit(tdim, r))
            row = []
            for s in range(ddim):
                wv = dual_h.presentation.lift(_unit(ddim, s))
                row.append(sum((pc * wc for pc, wc in zip(phi, wv)), ZERO))
            eval_rows.append(row)
        eval_m = Matrix(eval_rows, cols=ddim)
        cols = []
        for s_idx in range(hk.dim):
            u = hk.presentation.lift(_unit(hk.dim, s_idx))      # in Q-coords, deg k-1
            delta_u = _connecting_class(model, ic, log, emb, quot, pres,
                                        h_ic, k, u)
            vals = []
            for s in range(ddim):
                wq = dual_h.presentation.lift(_unit(ddim, s))   # Q-coords, deg n-k
                w_log = pres[dual_deg - 1].lift(wq)
                vals.append(pair(k, delta_u, w_log))
            sol = solve_linear(LinearMap(eval_m.transpose()), tuple(vals))
            if sol is None:
                raise AssertionError("evaluation pairing is degenerate")
            cols.append(sol)
        maps[k] = LinearMap(Matrix(cols, cols=tdim).transpose()) if hk.dim else \
            LinearMap.zero(0, tdim)
    return IntersectionData(model, z, shr, st, h_shr, h_st, maps)


def _unit(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def _connecting_class(model, ic, log, emb, quot, pres, h_ic, k, u_quot):
    """delta: H^{k-1}(Q) -> H^k(IC) as a cocycle in IC-term coordinates."""
    w = pres[k - 1].lift(u_quot)            # representative in log term k-1
    dw = log.differential(k - 1)(w)         # lands in the embedded IC term k
    x = solve_linear(emb.at(k), dw)
    if x is None:
        raise AssertionError("connecting image not in the subcomplex")
    return x


def _check_pairing_ambiguities(model, ic, log, emb, pair, k):
    """The slot pairing must be independent of every representative choice
    made at degree k: Q-class reps (mod the subcomplex and mod coboundaries)
    and connecting-cocycle reps (mod intersection-complex coboundaries)."""
    n = model.branches
    z_ic = ic.differential(k).kernel()
    b_ic = ic.differential(k - 1).image()
    emb_img = emb.at(n - k).image() if ic.term_dim(n - k) else \
        Subspace.zero(log.term_dim(n - k))
    rep_space = log.differential(n - k).preimage(
        emb.at(n - k + 1).image() if ic.term_dim(n - k + 1) else
        Subspace.zero(log.term_dim(n - k + 1)))
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
    for u in z_ic.basis:
        for y in _std_basis(log.term_dim(n - k - 1)):
            if pair(k, u, log.differential(n - k - 1)(y)):
                raise AssertionError(
                    f"pairing does not kill source coboundaries at degree {k}")


def _std_basis(n):
    return [_unit(n, i) for i in range(n)]


def _slot_pairing(model, ic, log):
    """Pairing(k): IC-term-k x log-term-(n-k) -> Scalar via complementary slots."""
    n = model.branches
    form = model.pairing_form()
    all_branches = tuple(range(n))

    def eps(K):
        perm = list(K) + [j for j in all_branches if j not in K]
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return ONE if sign == 1 else -ONE

    def pair(k, u_ic, w_log):
        ic_layout = ic.layout.get(k, {})
        log_layout = log.layout.get(n - k, {})
        total = ZERO
        for (K, ci), (off, space) in ic_layout.items():
            comp_k = tuple(j for j in all_branches if j not in K)
            key = (comp_k, ci)
            if key not in log_layout:
                continue
            t_off, t_space = log_layout[key]
            u_slot = u_ic[off: off + space.dim]
            w_slot = w_log[t_off: t_off + t_space.dim]
            if not any(u_slot) or not any(w_slot):
                continue
            uv = _into_component(model, ci, space, u_slot)
            wv = _into_component(model, ci, t_space, w_slot)
            total = total + eps(K) * form(uv, wv)
        return total

    return pair


def _into_component(model, ci, slot_space: Subspace, coords):
    """Slot coordinates -> total-space vector supported on component ci."""
    v = slot_space.from_coords(coords)
    off = model.component_offset(ci)
    total = model.total_dim
    return zero_vector(off) + tuple(v) + zero_vector(total - off -
                                                     slot_space.ambient_dim)


def link_complex(model, z) -> FilteredComplex:
    """Mixed cone over the intersection morphism i^! -> i^*.

    The chain map is a weight-adapted lift of the exactly computed
    cohomology-level morphism; the Hodge filtration is carried along only
    when the lift respects it.
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
        basis_rows, values, span = [], [], Subspace.zero(da)
        for r in wa.jumps():
            wr = wa.at(r)
            for v in wr.intersect(bd).basis:
                if not span.contains_vector(v):
                    basis_rows.append(v)
                    values.append(zero_vector(db))
                    span = span.sum(Subspace.span([v], da))
            for v in wr.intersect(z).basis:
                if not span.contains_vector(v):
                    cls = h_a.presentation.coords(v)
                    if h_map is not None and h_b is not None and h_b.dim:
                        rep = _class_representative(h_b, b, k, h_map(cls), r)
                    else:
                        rep = zero_vector(db)
                    basis_rows.append(v)
                    values.append(rep)
                    span = span.sum(Subspace.span([v], da))
            for v in wr.basis:
                if not span.contains_vector(v):
                    basis_rows.append(v)
                    values.append(zero_vector(db))
                    span = span.sum(Subspace.span([v], da))
        change = Matrix(basis_rows, cols=da).transpose()
        vals = Matrix(values, cols=db).transpose() if db else Matrix.zero(0, da)
        maps[k] = LinearMap(vals * change.inverse())
    rho = ComplexMap(a, b, maps)
    rho.validate(check_filtrations=False)
    try:
        rho.validate()
    except FiltrationNotPreserved:
        raise AssertionError("weight-adapted lift lost weight compatibility")
    if a.hodge is not None and b.hodge is not None and not _hodge_compatible(rho):
        return ComplexMap(replace(a, hodge=None), replace(b, hodge=None), maps)
    return rho


def _hodge_compatible(f: ComplexMap) -> bool:
    try:
        f.validate()
        return True
    except FiltrationNotPreserved:
        return False


def _class_representative(h: DegreeCohomology, b: FilteredComplex, k: int,
                          cls, weight_bound: int):
    """A cocycle representative of cls inside W_{weight_bound}, if possible."""
    if h.dim == 0 or vec_is_zero(cls):
        return zero_vector(b.term_dim(k))
    v0 = h.presentation.lift(cls)
    z = b.differential(k).kernel()
    bd = b.differential(k - 1).image()
    wk = b.weight_at(k).at(weight_bound)
    gens = list(z.intersect(wk).basis) + list(bd.basis)
    coeffs = solve_in_span(gens, v0, b.term_dim(k))
    if coeffs is None:
        raise FiltrationNotPreserved(
            "cohomology class has no representative at its weight level")
    nz = z.intersect(wk).basis
    out = zero_vector(b.term_dim(k))
    for c, g in zip(coeffs[: len(nz)], nz):
        out = vec_add(out, vec_scale(c, g))
    return out

