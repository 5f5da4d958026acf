"""The local instance format: a space with commuting nilpotent operators per
residue component, weight/Hodge filtrations and an optional pairing.

Instances are plain JSON documents; parsing is strict (unknown keys rejected,
scalars in the canonical grammar) and re-serialization is byte-stable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    LogHodgeError,
    MissingHodgeFiltration,
    ParseError,
    ShapeError,
)
from .filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    monodromy_filtration,
    relative_monodromy_filtration,
)
from .linalg import LinearMap, Matrix, Subquotient, Subspace, rref
from .scalars import ONE, ZERO, I, Scalar, format_scalar, is_integer, parse_scalar


@dataclass
class AlphaComponent:
    """One piece of the residue spectral decomposition."""

    alpha: tuple[Fraction, ...]
    dim: int
    nilpotents: tuple[LinearMap, ...]

    def is_unipotent(self) -> bool:
        return all(a == 0 for a in self.alpha)

    def zero_alpha_branches(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.alpha) if a == 0)


@dataclass
class NCModel:
    """Local model at a point on n crossing branches."""

    branches: int
    components: tuple[AlphaComponent, ...]
    base_weight: int
    perverse_shift: int
    weight: IncreasingFiltration
    hodge: DecreasingFiltration | None = None
    pairing: Matrix | None = None
    pairing_parity: int | None = None
    _wj_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- layout -------------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(c.dim for c in self.components)

    def component_offset(self, ci: int) -> int:
        return sum(c.dim for c in self.components[:ci])

    def component_subspace(self, ci: int) -> Subspace:
        off = self.component_offset(ci)
        d = self.components[ci].dim
        n = self.total_dim
        rows = []
        for i in range(d):
            row = [ZERO] * n
            row[off + i] = ONE
            rows.append(tuple(row))
        return Subspace(n, tuple(rows), _canonical=True)

    def nilpotent(self, j: int) -> LinearMap:
        """N_j on the total space (block diagonal over components)."""
        n = self.total_dim
        rows = [[ZERO] * n for _ in range(n)]
        for ci, comp in enumerate(self.components):
            off = self.component_offset(ci)
            m = comp.nilpotents[j].matrix
            for r in range(comp.dim):
                for c in range(comp.dim):
                    rows[off + r][off + c] = m[r, c]
        return LinearMap(Matrix(rows, cols=n))

    def nilpotent_sum(self, branches, t=None) -> LinearMap:
        n = self.total_dim
        out = LinearMap.zero(n, n)
        for idx, j in enumerate(branches):
            nj = self.nilpotent(j)
            if t is not None:
                nj = nj.scale(t[idx])
            out = out + nj
        return out

    def weight_on_component(self, ci: int) -> IncreasingFiltration:
        return self.weight.restrict_to(self.component_subspace(ci))

    def hodge_on_component(self, ci: int) -> DecreasingFiltration | None:
        if self.hodge is None:
            return None
        return self.hodge.restrict_to(self.component_subspace(ci))

    def wj(self, ci: int, branch_set: frozenset) -> IncreasingFiltration:
        """W^J on component ci, cached and built incrementally by max branch."""
        from .filtrations import star

        key = (ci, branch_set)
        if key in self._wj_cache:
            return self._wj_cache[key]
        if not branch_set:
            out = self.weight_on_component(ci)
        else:
            j = max(branch_set)
            prev = self.wj(ci, branch_set - {j})
            out = star(self.components[ci].nilpotents[j], prev)
        self._wj_cache[key] = out
        return out

    def pairing_form(self):
        """S(x, y) as a callable on total-space vectors."""
        if self.pairing is None:
            raise MissingHodgeFiltration("model carries no pairing")
        s = self.pairing

        def form(x, y):
            return sum(
                (xi * sum((s[i, j] * yj for j, yj in enumerate(y)), ZERO)
                 for i, xi in enumerate(x)),
                ZERO,
            )

        return form


# -- validation ---------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        return {"checks": [c.to_json() for c in self.checks],
                "verdict": "pass" if self.passed else "fail"}


def validate(model: NCModel) -> ValidationReport:
    """Run every structural invariant; failures are report rows, not raises."""
    checks: list[CheckResult] = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, "pass" if ok else "fail",
                                  "" if ok else detail))

    for ci, comp in enumerate(model.components):
        ok = all(0 <= a < 1 for a in comp.alpha)
        add("AlphaRange", ok, f"component {ci} has an exponent outside [0,1)")
        ok = all(n.nilpotency_index() is not None for n in comp.nilpotents)
        add("NilpotentOperators", ok, f"component {ci} has a non-nilpotent operator")
        commuting = True
        for a in range(model.branches):
            for b in range(a + 1, model.branches):
                na, nb = comp.nilpotents[a], comp.nilpotents[b]
                if na.compose(nb) != nb.compose(na):
                    commuting = False
        add("NonCommutingOperators", commuting,
            f"component {ci} operators do not commute")

    # the weight filtration must be the direct sum of its component restrictions
    split_ok = True
    for w, sub in model.weight.steps:
        total = Subspace.zero(model.total_dim)
        for ci in range(len(model.components)):
            total = total.sum(sub.intersect(model.component_subspace(ci)))
        if total != sub:
            split_ok = False
    add("WeightRestrictsToComponents", split_ok,
        "W is not a direct sum of component pieces")

    preserved = all(
        model.weight.is_preserved_by(model.nilpotent(j))
        for j in range(model.branches)
    )
    add("FiltrationNotPreserved", preserved, "some N_j does not preserve W")

    if model.hodge is not None:
        split_ok = True
        for _, sub in model.hodge.steps:
            total = Subspace.zero(model.total_dim)
            for ci in range(len(model.components)):
                total = total.sum(sub.intersect(model.component_subspace(ci)))
            if total != sub:
                split_ok = False
        add("HodgeRestrictsToComponents", split_ok,
            "F is not a direct sum of component pieces")
        shifted = all(
            model.hodge.is_preserved_by(model.nilpotent(j), shift=-1)
            for j in range(model.branches)
        )
        add("HodgeShiftedByOperators", shifted,
            "some N_j does not map F^p into F^{p-1}")
    else:
        checks.append(CheckResult("HodgeChecks", "skip", "no Hodge filtration"))

    if model.pairing is not None:
        s = model.pairing
        n = model.total_dim
        ok = s.rows == n and s.cols == n
        add("PairingShape", ok, "pairing matrix has wrong shape")
        if ok:
            rank = len(rref(s.entries, n))
            add("PairingNondegenerate", rank == n, "pairing matrix is singular")
            sign = -ONE if model.pairing_parity % 2 else ONE
            add("PairingParity", s.transpose() == s.scale(sign),
                "pairing parity does not match declared weight")
            iso = True
            for j in range(model.branches):
                nj = model.nilpotent(j).matrix
                if nj.transpose() * s + s * nj != Matrix.zero(n, n):
                    iso = False
            add("InfinitesimalIsometry", iso,
                "some N_j is not an infinitesimal isometry of S")
            blocks = True
            for ci in range(len(model.components)):
                for cj in range(len(model.components)):
                    if ci == cj:
                        continue
                    oi, di = model.component_offset(ci), model.components[ci].dim
                    oj, dj = model.component_offset(cj), model.components[cj].dim
                    if any(s[oi + r, oj + c] for r in range(di) for c in range(dj)):
                        blocks = False
            add("PairingRestrictsToComponents", blocks,
                "S pairs distinct components")
    else:
        checks.append(CheckResult("PairingChecks", "skip", "no pairing"))

    return ValidationReport(checks)


def unipotent_part(model: NCModel) -> NCModel:
    """Restriction to the components with all residue exponents zero."""
    keep = [ci for ci, c in enumerate(model.components) if c.is_unipotent()]
    comps = tuple(model.components[ci] for ci in keep)
    sub = Subspace.zero(model.total_dim)
    for ci in keep:
        sub = sub.sum(model.component_subspace(ci))
    weight = model.weight.restrict_to(sub)
    hodge = model.hodge.restrict_to(sub) if model.hodge is not None else None
    pairing = None
    if model.pairing is not None:
        rows = []
        for v in sub.basis:
            row = [model.pairing_form()(v, u) for u in sub.basis]
            rows.append(row)
        pairing = Matrix(rows, cols=sub.dim) if sub.dim else Matrix([], cols=0)
    return NCModel(
        branches=model.branches,
        components=comps,
        base_weight=model.base_weight,
        perverse_shift=model.perverse_shift,
        weight=weight,
        hodge=hodge,
        pairing=pairing,
        pairing_parity=model.pairing_parity if pairing is not None else None,
    )


def direct_sum(a: NCModel, b: NCModel) -> NCModel:
    """Direct sum of two models on the same branch set, merging equal alphas."""
    if a.branches != b.branches:
        raise ShapeError("direct sum needs equal branch counts")
    if (a.base_weight, a.perverse_shift) != (b.base_weight, b.perverse_shift):
        raise ShapeError("direct sum needs matching weight conventions")
    comps = list(a.components)
    placements = []  # (source model index, component index) in output order
    for ci in range(len(a.components)):
        placements.append((0, ci))
    merged_into = {}
    for cj, comp in enumerate(b.components):
        hit = next((k for k, c in enumerate(comps) if c.alpha == comp.alpha), None)
        if hit is None:
            comps.append(comp)
            placements.append((1, cj))
        else:
            old = comps[hit]
            nils = tuple(
                _block_diag(old.nilpotents[j], comp.nilpotents[j])
                for j in range(a.branches)
            )
            comps[hit] = AlphaComponent(old.alpha, old.dim + comp.dim, nils)
            merged_into[cj] = hit

    total = sum(c.dim for c in comps)

    def embed(model, model_idx):
        """Coordinate embedding of model's total space into the sum."""
        rows = []
        for ci, comp in enumerate(model.components):
            if model_idx == 0:
                out_ci, inner_off = ci, 0
            else:
                out_ci = merged_into.get(ci)
                if out_ci is None:
                    out_ci = next(
                        k for k, (src, idx) in enumerate(placements)
                        if (src, idx) == (1, ci)
                    )
                    inner_off = 0
                else:
                    inner_off = a.components[out_ci].dim
            base = sum(c.dim for c in comps[:out_ci]) + inner_off
            for i in range(comp.dim):
                row = [ZERO] * total
                row[base + i] = ONE
                rows.append(tuple(row))
        return rows

    emb_a, emb_b = embed(a, 0), embed(b, 1)

    lo = min(a.weight.lowest(), b.weight.lowest())
    hi = max(a.weight.highest(), b.weight.highest())
    wsteps = []
    for k in range(lo, hi + 1):
        sa = Subspace.span([_apply_embedding(v, emb_a, total)
                            for v in a.weight.at(k).basis], total)
        sb = Subspace.span([_apply_embedding(v, emb_b, total)
                            for v in b.weight.at(k).basis], total)
        wsteps.append((k, sa.sum(sb)))
    weight = IncreasingFiltration(total, wsteps)

    hodge = None
    if a.hodge is not None and b.hodge is not None:
        lo = min(a.hodge.lowest(), b.hodge.lowest()) - 1
        hi = max(a.hodge.highest(), b.hodge.highest())
        fsteps = []
        for p in range(lo, hi + 1):
            sa = Subspace.span([_apply_embedding(v, emb_a, total)
                                for v in a.hodge.at(p).basis], total)
            sb = Subspace.span([_apply_embedding(v, emb_b, total)
                                for v in b.hodge.at(p).basis], total)
            fsteps.append((p, sa.sum(sb)))
        hodge = DecreasingFiltration(total, fsteps)

    pairing = None
    parity = None
    if a.pairing is not None and b.pairing is not None \
            and a.pairing_parity == b.pairing_parity:
        rows = [[ZERO] * total for _ in range(total)]
        for (m, emb) in ((a, emb_a), (b, emb_b)):
            for r in range(m.total_dim):
                vr = emb[r]
                for c in range(m.total_dim):
                    vc = emb[c]
                    pr = next(i for i, x in enumerate(vr) if x)
                    pc = next(i for i, x in enumerate(vc) if x)
                    rows[pr][pc] = m.pairing[r, c]
        pairing = Matrix(rows, cols=total)
        parity = a.pairing_parity

    return NCModel(a.branches, tuple(comps), a.base_weight, a.perverse_shift,
                   weight, hodge, pairing, parity)


def _apply_embedding(v, emb_rows, total):
    out = [ZERO] * total
    for coord, row in zip(v, emb_rows):
        if coord:
            for i, x in enumerate(row):
                if x:
                    out[i] = out[i] + coord * x
    return tuple(out)


def _block_diag(f: LinearMap, g: LinearMap) -> LinearMap:
    n, m = f.source_dim, g.source_dim
    rows = []
    for r in range(n):
        rows.append(list(f.matrix.entries[r]) + [ZERO] * m)
    for r in range(m):
        rows.append([ZERO] * n + list(g.matrix.entries[r]))
    return LinearMap(Matrix(rows, cols=n + m))


# -- IMHS checker -------------------------------------------------------------

@dataclass
class IMHSReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        return {"checks": [c.to_json() for c in self.checks],
                "verdict": "pass" if self.passed else "fail"}


def _sample_t_vectors(n: int, seed: int):
    """All-ones plus three seeded pseudo-random positive rational vectors."""
    rng = random.Random(seed)
    out = [tuple(Fraction(1) for _ in range(n))]
    for _ in range(3):
        out.append(tuple(Fraction(rng.randint(1, 7), rng.randint(1, 5))
                         for _ in range(n)))
    return out


def _subsets(n):
    import itertools

    items = list(range(n))
    for r in range(1, n + 1):
        for c in itertools.combinations(items, r):
            yield c


def _hodge_decomposes(piece: Subquotient, f_piece: DecreasingFiltration,
                      weight: int) -> bool:
    """F^p (+) conj F^{weight-p+1} spans the piece exactly, for every p."""
    d = f_piece.ambient_dim
    if d == 0:
        return True
    lo = f_piece.lowest() - 1
    hi = f_piece.highest() + 1
    for p in range(min(lo, weight - hi), max(hi, weight - lo) + 1):
        fp = f_piece.at(p)
        fq = f_piece.at(weight - p + 1).conj()
        if fp.dim + fq.dim != d or fp.intersect(fq).dim != 0:
            return False
    return True


def _hermitian_positive(h: Matrix) -> bool:
    """Exact positive-definiteness via leading principal minors."""
    n = h.rows
    if h.transpose().conj() != h:
        return False
    for k in range(1, n + 1):
        sub = Matrix([r[:k] for r in h.entries[:k]], cols=k)
        det = _det(sub)
        if det.im != 0 or det.re <= 0:
            return False
    return True


def _det(m: Matrix) -> Scalar:
    n = m.rows
    work = [list(r) for r in m.entries]
    det = ONE
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = ONE / work[col][col]
        for i in range(col + 1, n):
            c = work[i][col] * inv
            if c:
                work[i] = [e - c * p for e, p in zip(work[i], work[col])]
    return det


def imhs_check(model: NCModel, seed: int = 0) -> IMHSReport:
    """The infinitesimal mixed Hodge structure axioms, reported one by one."""
    if model.hodge is None:
        raise MissingHodgeFiltration("IMHS checks need the Hodge filtration")
    checks: list[CheckResult] = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, "pass" if ok else "fail",
                                  "" if ok else detail))

    n_branches = model.branches
    samples = _sample_t_vectors(n_branches, seed)
    all_branches = tuple(range(n_branches))

    # (1) mixed nilpotent orbit on every weight-graded piece
    for i in model.weight.jumps():
        gr = model.weight.graded_piece(i)
        if gr.dim == 0:
            continue
        n_grs = [LinearMap.zero(gr.dim, gr.dim)]
        if n_branches:
            from .linalg import induced_map

            n_grs = [induced_map(model.nilpotent_sum(all_branches, t), gr, gr)
                     for t in samples]
        try:
            filts = [monodromy_filtration(ng, center=i) for ng in n_grs]
        except LogHodgeError as exc:
            add(f"NilpotentOrbit[w={i}]", False, f"monodromy failed: {exc}")
            continue
        t_independent = all(f == filts[0] for f in filts)
        add(f"OrbitTIndependence[w={i}]", t_independent,
            "monodromy filtration depends on the scaling vector")
        m = filts[0]
        f_gr = model.hodge.project_to(gr)
        hs_ok = True
        for k in m.jumps():
            piece = m.graded_piece(k)
            if piece.dim and not _hodge_decomposes(piece, f_gr.project_to(piece), k):
                hs_ok = False
        add(f"OrbitHodgeStructure[w={i}]", hs_ok,
            f"Gr^M of Gr^W_{i} is not a Hodge structure of the right weight")

    # (2) relative monodromy filtrations for every branch subset
    relmono = {}
    for subset in _subsets(n_branches):
        ok = True
        detail = ""
        filts = []
        for t in samples:
            nsum = model.nilpotent_sum(subset, [t[j] for j in subset])
            try:
                filts.append(relative_monodromy_filtration(nsum, model.weight))
            except LogHodgeError as exc:
                ok, detail = False, str(exc)
                break
        if ok and any(f != filts[0] for f in filts):
            ok, detail = False, "relative filtration depends on the scaling vector"
        if ok:
            mj = filts[0]
            relmono[subset] = mj
            for j in subset:
                nj = model.nilpotent(j)
                for w, sub in mj.steps:
                    tgt = mj.at(w - 2)
                    if not all(tgt.contains_vector(nj(v)) for v in sub.basis):
                        ok, detail = False, f"N_{j+1} does not shift M(J) by -2"
        add(f"RelativeMonodromy[J={{{','.join(str(j+1) for j in subset)}}}]",
            ok, detail)

    # (3) graded MHS for the full set, with W compatible
    if n_branches and all_branches in relmono:
        m_total = relmono[all_branches]
        mhs_ok = True
        for k in m_total.jumps():
            piece = m_total.graded_piece(k)
            if piece.dim == 0:
                continue
            if not _hodge_decomposes(piece, model.hodge.project_to(piece), k):
                mhs_ok = False
        add("TotalGradedMHS", mhs_ok,
            "(L, M(I), F) is not a graded mixed Hodge structure")
        compat = True
        for j in model.weight.jumps():
            wj_sub = model.weight.at(j)
            for k in m_total.jumps():
                piece = m_total.graded_piece(k)
                if piece.dim == 0:
                    continue
                v = piece.project_subspace(wj_sub)
                f_piece = model.hodge.project_to(piece)
                span = Subspace.zero(piece.dim)
                lo, hi = f_piece.lowest() - 1, f_piece.highest() + 1
                for p in range(lo, hi + 1):
                    hpq = f_piece.at(p).intersect(f_piece.at(k - p).conj())
                    span = span.sum(hpq.intersect(v))
                if span != v:
                    compat = False
        add("WeightCompatibleWithMHS", compat,
            "W is not a filtration by sub mixed Hodge structures")

    # (4) polarization of primitive parts
    if model.pairing is None:
        checks.append(CheckResult("Polarization", "skip", "no pairing supplied"))
    else:
        form = model.pairing_form()
        for i in model.weight.jumps():
            gr = model.weight.graded_piece(i)
            if gr.dim == 0:
                continue
            below = model.weight.at(i - 1)
            descends = all(
                not form(u, v) and not form(v, u)
                for u in below.basis for v in model.weight.at(i).basis
            )
            if not descends:
                checks.append(CheckResult(
                    f"Polarization[w={i}]", "skip",
                    "single pairing does not descend to this graded piece"))
                continue
            ok = _polarization_on_graded(model, gr, i, form)
            add(f"Polarization[w={i}]", ok,
                f"primitive parts of Gr^W_{i} are not positively polarized")

    return IMHSReport(checks)


def _polarization_on_graded(model: NCModel, gr: Subquotient, i: int, form) -> bool:
    from .linalg import induced_map

    d = gr.dim
    if model.branches:
        n_gr = induced_map(model.nilpotent_sum(tuple(range(model.branches))),
                           gr, gr)
    else:
        n_gr = LinearMap.zero(d, d)
    m = monodromy_filtration(n_gr, center=i)
    f_gr = model.hodge.project_to(gr)

    def s_bar(x, y):
        return form(gr.lift(x), gr.lift(y))

    e = n_gr.nilpotency_index()
    for k in range(0, e + 1):
        top = m.graded_piece(i + k)
        if top.dim == 0:
            continue
        bottom = m.graded_piece(i - k - 2)
        try:
            nk1 = induced_map(n_gr.power(k + 1), top, bottom)
            prim = nk1.kernel()
        except LogHodgeError:
            return False
        if prim.dim == 0:
            continue
        # S_k(x, y) = S(x, N^k y) must descend to Gr^M
        nk = n_gr.power(k)
        for u in m.at(i + k - 1).basis:
            for v in m.at(i + k).basis:
                if s_bar(u, nk(v)) or s_bar(v, nk(u)):
                    return False
        # positivity of i^{p-q} S(N^k x, conj x) on primitives; moving N^k to
        # the right side through the infinitesimal isometry costs (-1)^k.
        w = i + k
        global_sign = -ONE if k % 2 else ONE
        f_piece = f_gr.project_to(top)
        lo, hi = f_piece.lowest() - 1, f_piece.highest() + 1
        covered = 0
        for p in range(lo, hi + 1):
            q = w - p
            hpq = f_piece.at(p).intersect(f_piece.at(q).conj()).intersect(prim)
            if hpq.dim == 0:
                continue
            covered += hpq.dim
            ipq = _i_power(p - q)
            basis = [top.lift(v) for v in hpq.basis]
            rows = []
            for x in basis:
                row = []
                for y in basis:
                    ybar = tuple(c.conj() for c in y)
                    row.append(global_sign * ipq * s_bar(x, nk(ybar)))
                rows.append(row)
            if not _hermitian_positive(Matrix(rows, cols=len(basis))):
                return False
        if covered != prim.dim:
            return False
    return True


def _i_power(k: int) -> Scalar:
    k %= 4
    return (ONE, I, -ONE, -I)[k]


# -- JSON ---------------------------------------------------------------------

def _require_keys(obj: dict, required: set, optional: set, where: str):
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")


def model_from_json(doc) -> NCModel:
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    _require_keys(doc, {"branches", "base_weight", "perverse_shift",
                        "components", "W"}, {"F", "S"}, "instance")
    n = doc["branches"]
    if not is_integer(n) or n < 0:
        raise ParseError("branches must be a non-negative integer")
    for key in ("base_weight", "perverse_shift"):
        if not is_integer(doc[key]):
            raise ParseError(f"{key} must be an integer")
    comps = []
    seen_alphas = set()
    if not isinstance(doc["components"], list):
        raise ParseError("components must be a list")
    for k, cdoc in enumerate(doc["components"]):
        if not isinstance(cdoc, dict):
            raise ParseError(f"component {k} must be an object")
        _require_keys(cdoc, {"alpha", "dim", "N"}, set(), f"component {k}")
        alpha_raw = cdoc["alpha"]
        if not isinstance(alpha_raw, list) or len(alpha_raw) != n:
            raise ParseError(f"component {k}: alpha must list {n} exponents")
        alpha = []
        for s in alpha_raw:
            v = parse_scalar(s)
            if v.im != 0:
                raise ParseError(f"component {k}: residue exponents are rational")
            if not 0 <= v.re < 1:
                raise ParseError(f"component {k}: exponent {s} outside [0,1)")
            alpha.append(v.re)
        alpha = tuple(alpha)
        if alpha in seen_alphas:
            raise ParseError(f"component {k}: duplicate exponent vector")
        seen_alphas.add(alpha)
        d = cdoc["dim"]
        if not is_integer(d) or d < 0:
            raise ParseError(f"component {k}: dim must be a non-negative integer")
        nmats = cdoc["N"]
        if not isinstance(nmats, list) or len(nmats) != n:
            raise ParseError(f"component {k}: N must list {n} matrices")
        nil = []
        for j, mdoc in enumerate(nmats):
            m = _matrix_from_json(mdoc, d, f"component {k} N[{j}]")
            nil.append(LinearMap(m))
        comps.append(AlphaComponent(alpha, d, tuple(nil)))
    total = sum(c.dim for c in comps)
    weight = IncreasingFiltration.from_json(doc["W"], total)
    hodge = None
    if "F" in doc:
        hodge = DecreasingFiltration.from_json(doc["F"], total)
    pairing = None
    parity = None
    if "S" in doc:
        sdoc = doc["S"]
        if not isinstance(sdoc, dict):
            raise ParseError("S must be an object")
        _require_keys(sdoc, {"matrix", "parity"}, set(), "S")
        if not is_integer(sdoc["parity"]):
            raise ParseError("S parity must be an integer")
        pairing = _matrix_from_json(sdoc["matrix"], total, "S matrix")
        parity = sdoc["parity"]
    return NCModel(n, tuple(comps), doc["base_weight"], doc["perverse_shift"],
                   weight, hodge, pairing, parity)


def _matrix_from_json(mdoc, d: int, where: str) -> Matrix:
    if not isinstance(mdoc, list) or len(mdoc) != d:
        raise ParseError(f"{where}: expected {d} rows")
    rows = []
    for r in mdoc:
        if not isinstance(r, list) or len(r) != d:
            raise ParseError(f"{where}: expected square {d}x{d} matrix")
        rows.append([parse_scalar(e) for e in r])
    return Matrix(rows, cols=d) if d else Matrix([], cols=0)


def model_to_json(model: NCModel) -> dict:
    doc = {
        "branches": model.branches,
        "base_weight": model.base_weight,
        "perverse_shift": model.perverse_shift,
        "components": [
            {
                "alpha": [format_scalar(Scalar(a)) for a in c.alpha],
                "dim": c.dim,
                "N": [m.matrix.to_strings() for m in c.nilpotents],
            }
            for c in model.components
        ],
        "W": model.weight.to_json(),
    }
    if model.hodge is not None:
        doc["F"] = model.hodge.to_json()
    if model.pairing is not None:
        doc["S"] = {"matrix": model.pairing.to_strings(),
                    "parity": model.pairing_parity}
    return doc


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_model(path: str) -> NCModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance {path}: {exc}") from exc
    return model_from_json(doc)
