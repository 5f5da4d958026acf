"""The local instance format: a space with commuting nilpotent operators per
residue component, weight/Hodge filtrations and an optional pairing.

Instances are plain JSON documents; parsing is strict (unknown keys rejected,
scalars in the canonical grammar) and re-serialization is byte-stable.
"""

from __future__ import annotations

import itertools
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
    _memoized,
    filtration_sum,
    monodromy_filtration,
    relative_monodromy_filtration,
    star,
)
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    induced_map,
    place,
    rref,
)
from .scalars import ONE, I, Scalar, format_scalar, is_integer, parse_scalar


@dataclass(frozen=True)
class AlphaComponent:
    """One piece of the residue spectral decomposition."""

    alpha: tuple[Fraction, ...]
    dim: int
    nilpotents: tuple[Matrix, ...]

    def is_unipotent(self) -> bool:
        return all(a == 0 for a in self.alpha)

    def zero_alpha_branches(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.alpha) if a == 0)


@dataclass(frozen=True, eq=False)
class NCModel:
    """Local model at a point on n crossing branches, compared by identity."""

    branches: int
    components: tuple[AlphaComponent, ...]
    base_weight: int
    perverse_shift: int
    weight: IncreasingFiltration
    hodge: DecreasingFiltration | None = None
    pairing: Matrix | None = None
    pairing_parity: int | None = None

    # -- layout -------------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(c.dim for c in self.components)

    def component_positions(self, ci: int) -> range:
        """The coordinates of component ci in the total space."""
        off = sum(c.dim for c in self.components[:ci])
        return range(off, off + self.components[ci].dim)

    def component_subspace(self, ci: int) -> Subspace:
        n = self.total_dim
        unit = Matrix.identity(n).entries
        return Subspace(n, tuple(unit[i] for i in self.component_positions(ci)),
                        _canonical=True)

    def nilpotent(self, j: int) -> Matrix:
        """N_j on the total space (block diagonal over components)."""
        n = self.total_dim
        pieces = []
        for ci, comp in enumerate(self.components):
            pos = self.component_positions(ci)
            pieces.append((comp.nilpotents[j], pos, pos))
        return place((n, n), pieces)

    def nilpotent_sum(self, branches, t=None) -> Matrix:
        n = self.total_dim
        out = Matrix.zero(n, n)
        for idx, j in enumerate(branches):
            nj = self.nilpotent(j)
            if t is not None:
                nj = nj.scale(t[idx])
            out = out + nj
        return out

    def weight_on_component(self, ci: int) -> IncreasingFiltration:
        return self.weight.project_to(Subquotient.of(self.component_subspace(ci)))

    def hodge_on_component(self, ci: int) -> DecreasingFiltration | None:
        if self.hodge is None:
            return None
        return self.hodge.project_to(Subquotient.of(self.component_subspace(ci)))

    def wj(self, ci: int, branch_set: frozenset) -> IncreasingFiltration:
        """W^J on component ci, built by max branch; memoized per evaluation."""
        return _memoized(_wj, self, ci, frozenset(branch_set))

    def pairing_form(self):
        """S(x, y) as a callable on total-space vectors."""
        if self.pairing is None:
            raise MissingHodgeFiltration("model carries no pairing")
        s = self.pairing

        def form(x, y):
            return x.dot(s.apply(y))

        return form


def _wj(model: NCModel, ci: int, branch_set: frozenset) -> IncreasingFiltration:
    if not branch_set:
        return model.weight_on_component(ci)
    j = max(branch_set)
    return star(model.components[ci].nilpotents[j], model.wj(ci, branch_set - {j}))


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
class CheckReport:
    """Named checks in the order run; the report passes when none fails."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, ok, detail=""):
        """A passing check, or a failing one carrying detail."""
        self.checks.append(
            CheckResult(name, "pass" if ok else "fail", "" if ok else detail))

    def skip(self, name, detail):
        self.checks.append(CheckResult(name, "skip", detail))

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        return {"checks": [c.to_json() for c in self.checks],
                "verdict": "pass" if self.passed else "fail"}


def validate(model: NCModel) -> CheckReport:
    """Run every structural invariant; failures are report rows, not raises."""
    report = CheckReport()

    for ci, comp in enumerate(model.components):
        ok = all(0 <= a < 1 for a in comp.alpha)
        report.add("AlphaRange", ok,
                   f"component {ci} has an exponent outside [0,1)")
        ok = all(n.powers() is not None for n in comp.nilpotents)
        report.add("NilpotentOperators", ok,
                   f"component {ci} has a non-nilpotent operator")
        ok = all(na * nb == nb * na
                 for na, nb in itertools.combinations(comp.nilpotents, 2))
        report.add("NonCommutingOperators", ok,
                   f"component {ci} operators do not commute")

    # W and F must be direct sums of their component restrictions, and each
    # N_j must preserve W and lower F by one
    pieces = [model.component_subspace(ci) for ci in range(len(model.components))]
    for filt, name, letter, row, detail, shift in (
            (model.weight, "Weight", "W", "FiltrationNotPreserved",
             "some N_j does not preserve W", 0),
            (model.hodge, "Hodge", "F", "HodgeShiftedByOperators",
             "some N_j does not map F^p into F^{p-1}", -1)):
        if filt is None:
            report.skip("HodgeChecks", "no Hodge filtration")
            continue
        split_ok = True
        for _, sub in filt.steps:
            total = Subspace.zero(model.total_dim)
            for piece in pieces:
                total = total.sum(sub.intersect(piece))
            if total != sub:
                split_ok = False
        report.add(f"{name}RestrictsToComponents", split_ok,
                   f"{letter} is not a direct sum of component pieces")
        report.add(row, all(
            filt.first_violation(model.nilpotent(j), filt, shift) is None
            for j in range(model.branches)), detail)

    if model.pairing is not None:
        s = model.pairing
        n = model.total_dim
        ok = s.rows == n and s.cols == n
        report.add("PairingShape", ok, "pairing matrix has wrong shape")
        if ok:
            rank = len(rref(s.entries, n))
            report.add("PairingNondegenerate", rank == n,
                       "pairing matrix is singular")
            sign = -ONE if model.pairing_parity % 2 else ONE
            report.add("PairingParity", s.transpose() == s.scale(sign),
                       "pairing parity does not match declared weight")
            report.add("InfinitesimalIsometry", all(
                nj.transpose() * s + s * nj == Matrix.zero(n, n)
                for nj in map(model.nilpotent, range(model.branches))),
                "some N_j is not an infinitesimal isometry of S")
            pos = model.component_positions
            report.add("PairingRestrictsToComponents", not any(
                s[r, c] for ci, cj in itertools.permutations(
                    range(len(model.components)), 2)
                for r in pos(ci) for c in pos(cj)),
                "S pairs distinct components")
    else:
        report.skip("PairingChecks", "no pairing")

    return report


def unipotent_part(model: NCModel) -> NCModel:
    """Restriction to the components with all residue exponents zero."""
    keep = [ci for ci, c in enumerate(model.components) if c.is_unipotent()]
    comps = tuple(model.components[ci] for ci in keep)
    sub = Subspace.zero(model.total_dim)
    for ci in keep:
        sub = sub.sum(model.component_subspace(ci))
    weight, hodge = (None if filt is None else filt.project_to(Subquotient.of(sub))
                     for filt in (model.weight, model.hodge))
    pairing = None
    if model.pairing is not None:   # S(v, u) over the basis rows v, u of sub
        b = Matrix(sub.basis, cols=model.total_dim)
        pairing = b * model.pairing * b.transpose()
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
    # (output component, offset inside it) of each summand's components
    places = ([(ci, 0) for ci in range(len(a.components))], [])
    for comp in b.components:
        hit = next((k for k, c in enumerate(comps) if c.alpha == comp.alpha), None)
        if hit is None:
            places[1].append((len(comps), 0))
            comps.append(comp)
        else:
            old = comps[hit]
            d = old.dim + comp.dim
            halves = (range(old.dim), range(old.dim, d))
            nils = tuple(
                place((d, d), [(f, pos, pos) for f, pos in zip(ops, halves)])
                for ops in zip(old.nilpotents, comp.nilpotents))
            comps[hit] = AlphaComponent(old.alpha, d, nils)
            places[1].append((hit, old.dim))

    total = sum(c.dim for c in comps)
    starts = [sum(c.dim for c in comps[:ci]) for ci in range(len(comps))]
    # positions[s][i]: the coordinate of summand s's coordinate i in the sum
    positions = [
        [starts[ci] + inner + i
         for (ci, inner), comp in zip(pl, m.components)
         for i in range(comp.dim)]
        for pl, m in zip(places, (a, b))]
    filts = [None if fa is None or fb is None else
             filtration_sum(list(zip(positions, (fa, fb))), total)
             for fa, fb in ((a.weight, b.weight), (a.hodge, b.hodge))]

    pairing = None
    parity = None
    if a.pairing is not None and b.pairing is not None \
            and a.pairing_parity == b.pairing_parity:
        pairing = place((total, total), [(m.pairing, pos, pos)
                                         for m, pos in zip((a, b), positions)])
        parity = a.pairing_parity

    return NCModel(a.branches, tuple(comps), a.base_weight, a.perverse_shift,
                   *filts, pairing, parity)


# -- IMHS checker -------------------------------------------------------------

def _sample_t_vectors(n: int, seed: int):
    """All-ones plus three seeded pseudo-random positive rational vectors."""
    rng = random.Random(seed)
    out = [tuple(Fraction(1) for _ in range(n))]
    for _ in range(3):
        out.append(tuple(Fraction(rng.randint(1, 7), rng.randint(1, 5))
                         for _ in range(n)))
    return out


def _subsets(n):
    items = list(range(n))
    for r in range(1, n + 1):
        for c in itertools.combinations(items, r):
            yield c


def _hodge_decomposes(f_piece: DecreasingFiltration, weight: int) -> bool:
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
    """Exact positive-definiteness by Sylvester's criterion.

    Elimination without row exchanges meets the pivots d_k = D_k / D_{k-1},
    D_k the leading principal minors (real, as h is Hermitian).  So every
    D_k > 0 iff every pivot is real and > 0, and while that holds no
    exchange is ever needed.
    """
    n = h.rows
    if h.transpose().conj() != h:
        return False
    work = [list(r) for r in h.entries]
    for k in range(n):
        d = work[k][k]
        if d.im or d.re <= 0:
            return False
        for i in range(k + 1, n):
            c = work[i][k] / d
            if c:
                work[i] = [e - c * p for e, p in zip(work[i], work[k])]
    return True


def imhs_check(model: NCModel, seed: int = 0) -> CheckReport:
    """The infinitesimal mixed Hodge structure axioms, reported one by one."""
    if model.hodge is None:
        raise MissingHodgeFiltration("IMHS checks need the Hodge filtration")
    report = CheckReport()

    n_branches = model.branches
    samples = _sample_t_vectors(n_branches, seed)
    all_branches = tuple(range(n_branches))

    # (1) mixed nilpotent orbit on every weight-graded piece; graded[i] is
    # the nonzero Gr^W_i with the N it induces at t = (1, ..., 1)
    graded = {}
    for i in model.weight.jumps():
        gr = model.weight.graded_piece(i)
        if gr.dim == 0:
            continue
        n_grs = [Matrix.zero(gr.dim, gr.dim)]
        if n_branches:
            n_grs = [induced_map(model.nilpotent_sum(all_branches, t), gr, gr)
                     for t in samples]
        graded[i] = gr, n_grs[0]
        try:
            filts = [monodromy_filtration(ng, center=i) for ng in n_grs]
        except LogHodgeError as exc:
            report.add(f"NilpotentOrbit[w={i}]", False,
                       f"monodromy failed: {exc}")
            continue
        t_independent = all(f == filts[0] for f in filts)
        report.add(f"OrbitTIndependence[w={i}]", t_independent,
                   "monodromy filtration depends on the scaling vector")
        m = filts[0]
        f_gr = model.hodge.project_to(gr)
        hs_ok = True
        for k in m.jumps():
            piece = m.graded_piece(k)
            if piece.dim and not _hodge_decomposes(f_gr.project_to(piece), k):
                hs_ok = False
        report.add(
            f"OrbitHodgeStructure[w={i}]", hs_ok,
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
                if mj.first_violation(model.nilpotent(j), mj, -2) is not None:
                    ok, detail = False, f"N_{j+1} does not shift M(J) by -2"
        names = ','.join(str(j + 1) for j in subset)
        report.add(f"RelativeMonodromy[J={{{names}}}]", ok, detail)

    # (3) graded MHS for the full set, with W compatible: each nonzero
    # Gr^M_k with its F and its H^{p,q} = F^p cap conj F^{k-p}
    if n_branches and all_branches in relmono:
        m_total = relmono[all_branches]
        pieces = []
        for k in m_total.jumps():
            piece = m_total.graded_piece(k)
            if piece.dim:
                f_piece = model.hodge.project_to(piece)
                hpqs = [f_piece.at(p).intersect(f_piece.at(k - p).conj())
                        for p in range(f_piece.lowest() - 1, f_piece.highest() + 2)]
                pieces.append((k, piece, f_piece, hpqs))
        report.add("TotalGradedMHS",
                   all(_hodge_decomposes(f, k) for k, _, f, _ in pieces),
                   "(L, M(I), F) is not a graded mixed Hodge structure")
        compat = True
        for j in model.weight.jumps():
            for _, piece, _, hpqs in pieces:
                v = piece.project_subspace(model.weight.at(j))
                span = Subspace.zero(piece.dim)
                for hpq in hpqs:
                    span = span.sum(hpq.intersect(v))
                compat = compat and span == v
        report.add("WeightCompatibleWithMHS", compat,
                   "W is not a filtration by sub mixed Hodge structures")

    # (4) polarization of primitive parts
    if model.pairing is None:
        report.skip("Polarization", "no pairing supplied")
    else:
        form = model.pairing_form()
        for i, (gr, n_gr) in graded.items():
            below = model.weight.at(i - 1)
            descends = all(
                not form(u, v) and not form(v, u)
                for u in below.basis for v in model.weight.at(i).basis
            )
            if not descends:
                report.skip(
                    f"Polarization[w={i}]",
                    "single pairing does not descend to this graded piece")
                continue
            ok = _polarization_on_graded(model, gr, n_gr, i, form)
            report.add(
                f"Polarization[w={i}]", ok,
                f"primitive parts of Gr^W_{i} are not positively polarized")

    return report


def _polarization_on_graded(model: NCModel, gr: Subquotient, n_gr: Matrix,
                            i: int, form) -> bool:
    """Step (4) on Gr^W_i = gr, on which N induces n_gr."""
    m = monodromy_filtration(n_gr, center=i)
    f_gr = model.hodge.project_to(gr)

    def s_bar(x, y):
        return form(gr.lift(x), gr.lift(y))

    # N^e = 0 for e = len(powers) - 1, so powers[min(j, e)] is N^j
    powers = n_gr.powers()
    e = len(powers) - 1
    for k in range(0, e + 1):
        top = m.graded_piece(i + k)
        if top.dim == 0:
            continue
        bottom = m.graded_piece(i - k - 2)
        try:
            nk1 = induced_map(powers[min(k + 1, e)], top, bottom)
            prim = nk1.kernel()
        except LogHodgeError:
            return False
        if prim.dim == 0:
            continue
        # S_k(x, y) = S(x, N^k y) must descend to Gr^M
        nk = powers[k]
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
            rows = [[global_sign * ipq * s_bar(x, nk(y.conj())) for y in basis]
                    for x in basis]
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
        nil = tuple(_matrix_from_json(mdoc, d, f"component {k} N[{j}]")
                    for j, mdoc in enumerate(nmats))
        comps.append(AlphaComponent(alpha, d, nil))
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
    return Matrix(rows, cols=d)


def model_to_json(model: NCModel) -> dict:
    doc = {
        "branches": model.branches,
        "base_weight": model.base_weight,
        "perverse_shift": model.perverse_shift,
        "components": [
            {
                "alpha": [format_scalar(Scalar(a)) for a in c.alpha],
                "dim": c.dim,
                "N": [m.to_strings() for m in c.nilpotents],
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
