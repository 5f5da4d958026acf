"""The local instance format: a space with commuting nilpotent operators per
residue component, weight/Hodge filtrations and an optional pairing.

Instances are plain JSON documents; parsing is strict (unknown keys rejected,
scalars in the canonical grammar) and re-serialization is byte-stable.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
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
    axioms_in_t,
    filtration_sum,
    monodromy_filtration,
    relative_monodromy_filtration,
    star,
)
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    _remembered,
    combination,
    hermitian_positive,
    induced_map,
    parse_row,
    place,
    rref,
)
from .scalars import Scalar, format_scalar, is_integer, parse_scalar


class _Frozen:
    """A record whose __init__ fills __dict__ and which nothing changes later:
    every assignment or deletion raises, of a field or of a new attribute."""

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__


def replace(record, **changes):
    """A new record of record's class, from its fields with changes applied."""
    return type(record)(**{**vars(record), **changes})


class AlphaComponent(_Frozen):
    """One piece of the residue spectral decomposition, compared by
    identity."""

    def __init__(self, alpha: tuple[Fraction, ...], dim: int,
                 nilpotents: tuple[Matrix, ...]):
        vars(self).update(alpha=alpha, dim=dim, nilpotents=nilpotents)

    def is_unipotent(self) -> bool:
        return all(a == 0 for a in self.alpha)


class NCModel(_Frozen):
    """Local model at a point on n crossing branches, compared by identity."""

    def __init__(self, branches: int, components: tuple[AlphaComponent, ...],
                 base_weight: int, perverse_shift: int,
                 weight: IncreasingFiltration,
                 hodge: DecreasingFiltration | None = None,
                 pairing: Matrix | None = None,
                 pairing_parity: int | None = None):
        vars(self).update(
            branches=branches, components=components, base_weight=base_weight,
            perverse_shift=perverse_shift, weight=weight, hodge=hodge,
            pairing=pairing, pairing_parity=pairing_parity)

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

    @_remembered
    def nilpotent(self, j: int) -> Matrix:
        """N_j on the total space (block diagonal over components);
        remembered per evaluation."""
        n, comps = self.total_dim, self.components
        pos = map(self.component_positions, range(len(comps)))
        return place((n, n), [(c.nilpotents[j], p, p) for c, p in zip(comps, pos)])

    def nilpotent_sum(self, branches) -> Matrix:
        """sum_j N_j over the listed branches, in one pass."""
        n = self.total_dim
        return combination([1] * len(branches),
                           [self.nilpotent(j) for j in branches], n, n)

    def on_component(self, filt, ci: int):
        """A filtration of the total space (W or F) restricted to component ci."""
        return filt.project_to(Subquotient.of(self.component_subspace(ci)))

    @_remembered
    def wj(self, ci: int, branch_set: frozenset) -> IncreasingFiltration:
        """W^J on component ci, built by max branch; memoized per evaluation."""
        if not branch_set:
            return self.on_component(self.weight, ci)
        j = max(branch_set)
        return star(self.components[ci].nilpotents[j], self.wj(ci, branch_set - {j}))


# -- validation ---------------------------------------------------------------

class CheckReport:
    """Named checks in the order run, each the dict it prints: its name, its
    status ("pass", "fail" or "skip") and a detail when there is one.  The
    report passes when no check fails."""

    def __init__(self):
        self.checks: list[dict] = []

    def add(self, name, ok, detail=""):
        """A passing check, or a failing one carrying detail."""
        self.checks.append({"name": name, "status": "pass" if ok else "fail",
                            **({"detail": detail} if detail and not ok else {})})

    def skip(self, name, detail):
        self.checks.append({"name": name, "status": "skip",
                            **({"detail": detail} if detail else {})})

    @property
    def passed(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_json(self):
        return {"checks": self.checks,
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

    # W, F and S must be direct sums of their component restrictions, and
    # each N_j must preserve W and lower F by one.  The components are
    # contiguous and in order, so a step is the sum of its restrictions
    # exactly when each row of its RREF basis lies in one component, and S
    # when each of its rows lies in its own coordinate's component
    owner = [ci for ci, c in enumerate(model.components) for _ in range(c.dim)]

    def owners(r):      # the components where the Row r is nonzero
        return {owner[i] for part in (r.num, r.im or ())
                for i, x in enumerate(part) if x}

    for filt, name, letter, row, detail, shift in (
            (model.weight, "Weight", "W", "FiltrationNotPreserved",
             "some N_j does not preserve W", 0),
            (model.hodge, "Hodge", "F", "HodgeShiftedByOperators",
             "some N_j does not map F^p into F^{p-1}", -1)):
        if filt is None:
            report.skip("HodgeChecks", "no Hodge filtration")
            continue
        split_ok = all(len(owners(r)) == 1
                       for _, sub in filt.steps for r in sub.basis)
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
            sign = -1 if model.pairing_parity % 2 else 1
            report.add("PairingParity", s.transpose() == s.scale(sign),
                       "pairing parity does not match declared weight")
            report.add("InfinitesimalIsometry", all(
                nj.transpose() * s + s * nj == Matrix.zero(n, n)
                for nj in map(model.nilpotent, range(model.branches))),
                "some N_j is not an infinitesimal isometry of S")
            # T_j = exp(-2 pi i alpha_j) (unipotent) preserves S only if S
            # pairs the alpha part with the -alpha part: a component with
            # itself only when every 2 alpha_j is an integer
            restricts = all(owners(r) <= {owner[i]} for i, r in enumerate(s.entries))
            twisted = next((owner[i] for i, r in enumerate(s.entries)
                            if owner[i] in owners(r) and any(
                                (2 * a).denominator != 1
                                for a in model.components[owner[i]].alpha)), None)
            report.add("PairingRestrictsToComponents",
                       restricts and twisted is None,
                       "S pairs distinct components" if not restricts else
                       f"S pairs component {twisted} with itself, but 2*alpha_j "
                       "is not an integer for some branch j")
    else:
        report.skip("PairingChecks", "no pairing")

    return report


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

def _later_t_vectors(n: int):
    """The three positive rational scaling vectors past t = (1, ..., 1) at
    which imhs decides the t-clauses: a fixed sample, random.Random(0)'s."""
    rng = random.Random(0)
    return [tuple(Fraction(rng.randint(1, 7), rng.randint(1, 5))
                  for _ in range(n)) for _ in range(3)]


def _subsets(items):
    """Every subset of items: () first, then by size in combinations order."""
    return [c for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)]


def _hodge_pieces(f: DecreasingFiltration, w: int):
    """The pieces H^{p,w-p} = F^p cap conj F^{w-p} by p, lowest(F) - 1 <= p
    <= highest(F) + 1, and whether F is a Hodge structure of weight w: the
    pieces are independent, span the space and F^{w-lowest(F)+2} = 0.  Past
    that range F^p = 0 above, and below it F^p is the whole space, so each
    further piece is conj F^{w-p}, inside the bottom one; the bound says they
    all vanish, so the space is the direct sum of every H^{p,w-p}."""
    lo, d = f.lowest() - 1, f.ambient_dim
    pieces = {p: f.at(p).intersect(f.at(w - p).conj())
              for p in range(lo, f.highest() + 2)}
    return pieces, f.at(w - lo + 1).is_zero() \
        and sum(h.dim for h in pieces.values()) == d \
        and functools.reduce(Subspace.sum, pieces.values()).is_full()


def imhs_check(model: NCModel) -> CheckReport:
    """The infinitesimal mixed Hodge structure axioms, reported one by one, of
    a model that passes validate, so each N(t) has a W(N) on every Gr^W."""
    if model.hodge is None:
        raise MissingHodgeFiltration("IMHS checks need the Hodge filtration")
    report = CheckReport()

    n_branches = model.branches
    later = _later_t_vectors(n_branches)
    all_branches = tuple(range(n_branches))
    ops = [model.nilpotent(j) for j in all_branches]
    # Steps (1) and (2) build each filtration at t = (1, ..., 1) only.  It is
    # unique, so a later t keeps it exactly when it passes the axioms there,
    # which filtrations.axioms_in_t decides by counting.  Where some N_j
    # does not lower M by two, neither does N(t) for some t > 0, and the test
    # is False.  A single branch decides no later t: t_j N_j has the
    # filtrations of N_j.
    def t_independent(m, subset_ops, w, subset=all_branches):
        return len(subset) < 2 or axioms_in_t(
            m, subset_ops, w, [[t[j] for j in subset] for t in later])

    # (1) mixed nilpotent orbit on every weight-graded piece; graded[i] holds
    # Gr^W_i, the N it induces at t = (1, ..., 1), W(N) and, by k, the Hodge
    # pieces of each Gr^M_k with the verdict
    graded = {}
    for i in model.weight.jumps():
        gr = model.weight.graded_piece(i)
        ops_gr = [induced_map(op, gr, gr) for op in ops]
        n_gr = combination([1] * n_branches, ops_gr, gr.dim, gr.dim)
        m = monodromy_filtration(n_gr, i)
        f_gr = model.hodge.project_to(gr)
        hodge = {k: _hodge_pieces(f_gr.project_to(m.graded_piece(k)), k)
                 for k in m.jumps()}
        graded[i] = gr, n_gr, m, f_gr, hodge
        report.add(f"OrbitTIndependence[w={i}]",
                   t_independent(m, ops_gr, IncreasingFiltration.pure(gr.dim, i)),
                   "monodromy filtration depends on the scaling vector")
        report.add(
            f"OrbitHodgeStructure[w={i}]", all(ok for _, ok in hodge.values()),
            f"Gr^M of Gr^W_{i} is not a Hodge structure of the right weight")

    # (2) relative monodromy filtrations for every branch subset; step (3)
    # reads the one of the full set
    m_total = None
    for subset in _subsets(range(n_branches))[1:]:
        detail = "relative filtration depends on the scaling vector"
        try:
            mj = relative_monodromy_filtration(model.nilpotent_sum(subset),
                                               model.weight)
        except LogHodgeError as exc:
            ok, detail = False, str(exc)
        else:
            ok = t_independent(mj, [ops[j] for j in subset], model.weight, subset)
        if ok and subset == all_branches:
            m_total = mj
        names = ','.join(str(j + 1) for j in subset)
        report.add(f"RelativeMonodromy[J={{{names}}}]", ok, detail)

    # (3) graded MHS for the full set, with W compatible: each nonzero
    # Gr^M_k with its H^{p,q}
    if m_total is not None:
        pieces = []
        for k in m_total.jumps():
            piece = m_total.graded_piece(k)
            pieces.append((piece, *_hodge_pieces(model.hodge.project_to(piece), k)))
        report.add("TotalGradedMHS", all(ok for _, _, ok in pieces),
                   "(L, M(I), F) is not a graded mixed Hodge structure")
        compat = True
        for j in model.weight.jumps():
            for piece, hpqs, _ in pieces:
                v = piece.project_subspace(model.weight.at(j))
                compat = compat and v == functools.reduce(
                    Subspace.sum, [h.intersect(v) for h in hpqs.values()])
        report.add("WeightCompatibleWithMHS", compat,
                   "W is not a filtration by sub mixed Hodge structures")

    # (4) polarization of primitive parts, S as a Gram matrix on each Gr^W_i
    if model.pairing is None:
        report.skip("Polarization", "no pairing supplied")
    else:
        s = model.pairing
        for i, (gr, n_gr, m, f_gr, hodge) in graded.items():
            if not _descends(s, model.weight.at(i - 1), model.weight.at(i)):
                report.skip(f"Polarization[w={i}]",
                            "single pairing does not descend to this graded piece")
                continue
            lifts = _basis(gr.lifts)
            s_gr = lifts * s * lifts.transpose()
            if not _polarization_on_graded(gr, n_gr, m, hodge, i, s_gr):
                report.add(
                    f"Polarization[w={i}]", False,
                    f"primitive parts of Gr^W_{i} are not positively polarized")
            else:
                report.add(
                    f"Polarization[w={i}]", _isotropic(f_gr, s_gr, i),
                    f"S(F^p, F^{{{i + 1}-p}}) is not zero on Gr^W_{i}: the first "
                    "Hodge-Riemann relation fails")

    return report


def _basis(sub: Subspace) -> Matrix:
    """The matrix whose rows are the basis of sub."""
    return Matrix(sub.basis, cols=sub.ambient_dim)


def _descends(s: Matrix, below: Subspace, at: Subspace) -> bool:
    """The form of Gram matrix s pairs below with at to zero, both ways, so it
    descends to at / below: A S B^T = B S A^T = 0 for their bases A and B."""
    a, b = _basis(below), _basis(at)
    return (a * s * b.transpose()).is_zero() and \
        (b * s * a.transpose()).is_zero()


def _isotropic(f: DecreasingFiltration, s: Matrix, w: int) -> bool:
    """The first Hodge-Riemann relation at weight w for the form of Gram
    matrix s: S(F^p, F^{w+1-p}) = 0 for lowest(F) - 1 <= p <= highest(F) + 1.
    Above that range F^p = 0; below it F^p is the whole space, paired with a
    step inside F^{w+2-lowest(F)}, which p = lowest(F) - 1 pairs with it."""
    return all((_basis(f.at(p)) * s * _basis(f.at(w + 1 - p)).transpose()).is_zero()
               for p in range(f.lowest() - 1, f.highest() + 2))


def _polarization_on_graded(gr: Subquotient, n_gr: Matrix, m: IncreasingFiltration,
                            hodge: dict, i: int, s_gr: Matrix) -> bool:
    """Step (4) on Gr^W_i = gr: N induces n_gr, W(N) is m, hodge holds step
    (1)'s Hodge pieces of each Gr^M_k by k, S has Gram matrix s_gr."""
    # N^e = 0 for e = len(powers) - 1, so powers[min(j, e)] is N^j
    powers = n_gr.powers()
    e = len(powers) - 1
    for k in [t - i for t in m.jumps() if t >= i]:     # Gr^M_{i+k} != 0, k < e
        top = m.graded_piece(i + k)
        bottom = m.graded_piece(i - k - 2)
        prim = induced_map(powers[min(k + 1, e)], top, bottom).kernel()
        if prim.dim == 0:
            continue
        # S_k(x, y) = S(x, N^k y), of Gram matrix S_gr N^k, must descend to Gr^M
        s_k = s_gr * powers[k]
        if not _descends(s_k, m.at(i + k - 1), m.at(i + k)):
            return False
        # positivity of i^{p-q} S(N^k x, conj x) on primitives; moving N^k to
        # the right side through the infinitesimal isometry costs (-1)^k.
        covered = 0
        for p, h in hodge[i + k][0].items():
            q = i + k - p
            hpq = h.intersect(prim)
            if hpq.dim == 0:
                continue
            covered += hpq.dim
            x = Matrix([top.lift(v) for v in hpq.basis], cols=gr.dim)
            gram = (x * s_k * x.conj().transpose()).scale(   # i^(p-q) (-1)^k
                (1, Scalar(0, 1), -1, Scalar(0, -1))[(p - q + 2 * k) % 4])
            if not hermitian_positive(gram):
                return False
        if covered != prim.dim:
            return False
    return True


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
        _require_rational([r for m in nil for r in m.entries], f"component {k}: N")
        comps.append(AlphaComponent(alpha, d, nil))
    total = sum(c.dim for c in comps)
    weight = IncreasingFiltration.from_json(doc["W"], total)
    _require_rational([r for _, sub in weight.steps for r in sub.basis], "W")
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
        _require_rational(pairing.entries, "S")
        parity = sdoc["parity"]
    return NCModel(n, tuple(comps), doc["base_weight"], doc["perverse_shift"],
                   weight, hodge, pairing, parity)


def _require_rational(rows, name: str):
    """ParseError unless every Row is rational: W, N and S are defined over
    Q, so conjugating coordinates is the real structure; only F is complex.
    A W step is read from its canonical basis, so a rational step written
    in a Gaussian basis is rational."""
    if any(r.im for r in rows):
        raise ParseError(f"{name} must be rational")


def _matrix_from_json(mdoc, d: int, where: str) -> Matrix:
    if not isinstance(mdoc, list) or len(mdoc) != d:
        raise ParseError(f"{where}: expected {d} rows")
    rows = []
    for r in mdoc:
        if not isinstance(r, list) or len(r) != d:
            raise ParseError(f"{where}: expected square {d}x{d} matrix")
        rows.append(parse_row(r))
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


def read_json(path, what: str):
    """The JSON document in the file at path, or a ParseError naming what
    the file holds and the file: on a read error, on bytes that are not
    UTF-8 or not JSON (ValueError covers both) and on nesting too deep to
    decode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def load_model(path: str) -> NCModel:
    return model_from_json(read_json(path, "instance"))
