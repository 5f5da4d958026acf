"""Weight-style filtrations and the monodromy/star machinery.

Increasing filtrations are stored by their jump steps only, in canonical
form, so equality of filtrations is equality of representations.  The
relative monodromy filtration M(N, W) is built in one pass up the jumps of
W, in the ambient coordinates, from Jordan chains lifted out of each graded
piece; W(N) is M(N, W) over a pure W, and M(0, W) = W, as every chain of
N = 0 has length one (so 0*W = W).  Only a chain with no admissible lift
means M(N, W) does not exist.  The builder checks its result once, with the
one membership test of the axioms, ``axioms_in_t`` on the graded blocks of
the operators (``check_relative_axioms`` at one operator), which holds for
a filtration exactly when the builder returns it; lifted chains meet the
axioms by construction, so a failure is a bug for every W.

The relative monodromy builder, ``graded_piece`` and ``project_to`` are
``@_remembered`` in the evaluation memo of ``linalg``, so inside an
``evaluation()`` block an equal input is built once.  ``monodromy_filtration``
and ``check_relative_axioms`` are not: the builder they wrap or serve is, so
a memo of their own would never hit.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    FiltrationNotPreserved,
    NotNilpotent,
    ParseError,
    RelativeMonodromyNonexistent,
    ShapeError,
)
from .linalg import (
    Matrix,
    Row,
    Subquotient,
    Subspace,
    _remembered,
    combination,
    induced_map,
    is_rref,
    parse_row,
    place,
    rref,
)
from .scalars import is_integer


class Filtration:
    """Exhaustive filtration stored at its jumps, in canonical form.

    The step at index k is the stored step at the largest index <= k; below
    all stored indices it is the space the filtration starts from (zero for
    an increasing filtration, the full space for a decreasing one).  The last
    stored step is the space it ends at.  Subclasses fix the direction.
    """

    __slots__ = ("ambient_dim", "steps")

    KEY: str        # JSON key of a step's index
    _NAME: str      # the filtration in error messages
    _INDEX: str     # the index in error messages
    # offset from a jump to the index of its graded piece: the jump itself
    # (increasing) or the index just below it (decreasing)
    _SIDE: int

    def __init__(self, ambient_dim: int, steps: Sequence[tuple[int, Subspace]]):
        cleaned = []
        prev = self._start(ambient_dim)
        last = None
        for i, sub in sorted(steps, key=lambda t: t[0]):
            if sub.ambient_dim != ambient_dim:
                raise ShapeError("filtration step in wrong ambient space")
            if i == last:
                raise ShapeError(f"duplicate filtration {self._INDEX} {i}")
            last = i
            if sub == prev:
                continue
            self._check_order(prev, sub)
            cleaned.append((i, sub))
            prev = sub
        self._check_end(prev)
        self.ambient_dim = ambient_dim
        self.steps = tuple(cleaned)

    def at(self, k: int) -> Subspace:
        out = self._start(self.ambient_dim)
        for i, sub in self.steps:
            if i <= k:
                out = sub
            else:
                break
        return out

    def jumps(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.steps)

    def lowest(self) -> int:
        return self.steps[0][0] if self.steps else 0

    def highest(self) -> int:
        return self.steps[-1][0] if self.steps else 0

    def graded_dims(self) -> dict[int, int]:
        """Nonzero graded dimensions, W_i/W_{i-1} at i and F^p/F^{p+1} at p."""
        dims = [self._start(self.ambient_dim).dim] + [s.dim for _, s in self.steps]
        return {i + self._SIDE: abs(b - a)
                for (i, _), a, b in zip(self.steps, dims, dims[1:])}

    def first_violation(self, f: Matrix, target, shift: int = 0):
        """An index r at which f(self_r) is not inside target_{r+shift}, or
        None when there is none; target has self's direction.

        self is constant between its jumps, where an increasing target only
        grows and a decreasing one only shrinks.  So it suffices to test, in
        order, each jump of an increasing self and the index just below each
        jump of a decreasing one; r is the first that fails, for an
        increasing self the least failing index.
        """
        for i in self.jumps():
            r = i + self._SIDE
            if not f.maps_into(self.at(r), target.at(r + shift)):
                return r
        return None

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.ambient_dim == other.ambient_dim
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.steps))

    def __repr__(self):
        parts = ", ".join(f"{i}:{s.dim}" for i, s in self.steps)
        return f"{type(self).__name__}({parts})"

    def shift(self, m: int):
        """The same steps with every index moved by m, built unchecked: they
        passed this filtration's constructor, and moving every index keeps
        their order."""
        out = object.__new__(type(self))
        out.ambient_dim = self.ambient_dim
        out.steps = tuple((i + m, s) for i, s in self.steps)
        return out

    @_remembered
    def project_to(self, sq: Subquotient):
        """Induced filtration on a subquotient, in its canonical coordinates;
        on Subquotient.of(sub) the restriction to sub, and self itself when
        sub is the whole space."""
        if sq.sub.is_full() and sq.quot_by.is_zero():
            return self
        return type(self)(
            sq.dim, [(i, sq.project_subspace(s)) for i, s in self.steps]
        )

    def dual(self, center: int):
        """Step i is the annihilator of the step at center - i, on the dual
        coordinate space."""
        labels = range(center - self.highest() - 1, center - self.lowest() + 3)
        return type(self)(self.ambient_dim,
                          [(i, self.at(center - i).annihilator()) for i in labels])

    def to_json(self) -> list[dict]:
        return [
            {self.KEY: i, "basis": [[str(e) for e in row] for row in s.basis]}
            for i, s in self.steps
        ]

    @classmethod
    def from_json(cls, data, ambient_dim: int):
        if not isinstance(data, list):
            raise ParseError("filtration must be a list of steps")
        steps = []
        for entry in data:
            if not isinstance(entry, dict) or set(entry) != {cls.KEY, "basis"}:
                raise ParseError(
                    f"{cls._NAME} step must have exactly {cls.KEY} and basis")
            i = entry[cls.KEY]
            if not is_integer(i):
                raise ParseError(f"{cls._NAME} {cls._INDEX} must be an integer")
            basis = entry["basis"]
            if not isinstance(basis, list) or \
                    not all(isinstance(row, list) for row in basis):
                raise ParseError(f"{cls._NAME} basis must be a list of rows")
            rows = tuple(map(parse_row, basis))
            steps.append((i, Subspace(ambient_dim, rows,
                                      _canonical=is_rref(rows, ambient_dim))))
        return cls(ambient_dim, steps)


class IncreasingFiltration(Filtration):
    """Weight-style filtration: W_k grows with k from zero to the full space."""

    __slots__ = ()

    KEY, _NAME, _INDEX, _SIDE = "weight", "filtration", "weight", 0
    _start = staticmethod(Subspace.zero)

    @staticmethod
    def _check_order(prev: Subspace, sub: Subspace):
        if not sub.contains(prev):
            raise ShapeError("filtration steps are not increasing")

    @staticmethod
    def _check_end(top: Subspace):
        if not top.is_full():
            raise ShapeError("filtration is not exhaustive (top step != full space)")

    @staticmethod
    def pure(ambient_dim: int, weight: int) -> "IncreasingFiltration":
        return IncreasingFiltration(
            ambient_dim, [(weight, Subspace.full(ambient_dim))]
        )

    @_remembered
    def graded_piece(self, k: int) -> Subquotient:
        return Subquotient(self.at(k), self.at(k - 1))


class DecreasingFiltration(Filtration):
    """Hodge-style filtration: F^p shrinks with p from the full space to zero."""

    __slots__ = ()

    KEY, _NAME, _INDEX, _SIDE = "p", "Hodge filtration", "index", -1
    _start = staticmethod(Subspace.full)

    @staticmethod
    def _check_order(prev: Subspace, sub: Subspace):
        if not prev.contains(sub):
            raise ShapeError("filtration steps are not decreasing")

    @staticmethod
    def _check_end(bottom: Subspace):
        if not bottom.is_zero():
            raise ShapeError("decreasing filtration does not reach zero")


def filtration_sum(parts, total: int):
    """Direct sum of filtrations of one direction, each placed at its list of
    coordinate positions.

    parts is a non-empty list of (positions, filtration) whose position lists
    partition 0..total-1.  When every list increases, each placed basis row
    keeps its pivot first and meets the other rows' pivots at zero, so the
    rows sorted by pivot are already canonical and nothing is eliminated.
    """
    labels = sorted({i for _, f in parts for i in f.jumps()})
    increasing = all(list(pos) == sorted(pos) for pos, _ in parts)

    def step(i):
        rows = []       # (its pivot in the sum, placed row), sorted by pivot
        for pos, f in parts:
            sub = f.at(i)
            rows += [(pos[p], place(total, [(v, pos)]))
                     for v, p in zip(sub.basis, sub._pivots)]
        rows.sort()
        return Subspace(total, tuple(r for _, r in rows), _canonical=increasing)
    return type(parts[0][1])(total, [(i, step(i)) for i in labels])


# -- monodromy filtrations --------------------------------------------------

def monodromy_filtration(N: Matrix, center: int) -> IncreasingFiltration:
    """The unique filtration M with N M_i <= M_{i-2} and N^k: Gr_{c+k} ~ Gr_{c-k}:
    M(N, W) over W pure of weight c."""
    return relative_monodromy_filtration(
        N, IncreasingFiltration.pure(N.cols, center))


def check_relative_axioms(m: IncreasingFiltration, N: Matrix,
                          w: IncreasingFiltration) -> bool:
    """True exactly when m = M(N, W): the unique M (Steenbrink-Zucker 1985)
    with N preserving W, N M_k <= M_{k-2} (so N is nilpotent) and W(N)
    centred at l induced on each Gr^W_l; on W pure of weight c, the unique
    W(N) centred at c (Deligne, Weil II 1.6.1)."""
    return axioms_in_t(m, [N], w, [(1,)])


def axioms_in_t(m: IncreasingFiltration, ops: Sequence[Matrix],
                w: IncreasingFiltration, ts) -> bool:
    """True exactly when m = M(N(t), W) at every t of ts, N(t) = sum_j t[j]
    ops[j]; False unless each op preserves w and maps m_a into m_{a-2}, so
    that every N(t) does.  Then on Gr^W_l, N(t)^k: Gr^M_{l+k} -> Gr^M_{l-k}
    is a product of k sums of the ops' graded blocks Gr^M_a -> Gr^M_{a-2},
    built here once, and must be invertible."""
    if any(not op.rows == op.cols == w.ambient_dim == m.ambient_dim
           or w.first_violation(op, w) is not None
           or m.first_violation(op, m, -2) is not None for op in ops):
        return False
    pieces = []     # per Gr^W_l: l, dims of its Gr^M_a, reach, blocks by a
    for l in w.jumps():
        gr = w.graded_piece(l)
        m_gr, ops_gr = m.project_to(gr), [induced_map(op, gr, gr) for op in ops]
        dims = m_gr.graded_dims()
        reach = max(abs(a - l) for a in dims)
        pieces.append((l, dims, reach, {
            a: [induced_map(op, m_gr.graded_piece(a), m_gr.graded_piece(a - 2))
                for op in ops_gr] for a in range(l - reach + 2, l + reach + 1)}))

    def holds(t) -> bool:
        for l, dims, reach, blocks in pieces:
            sums = {a: combination(t, bs, dims.get(a - 2, 0), dims.get(a, 0))
                    for a, bs in blocks.items()}
            for k in range(1, reach + 1):
                p = Matrix.identity(dims.get(l + k, 0))
                for a in range(l + k, l - k, -2):
                    p = sums[a] * p
                if p.rows != p.cols or len(rref(p.entries, p.cols)) != p.cols:
                    return False
        return True
    return all(map(holds, ts))


def _jordan_chain_tops(N: Matrix) -> dict[int, tuple[Row, ...]]:
    """The chain tops of a nilpotent N by their length m, for each m that has
    one: a canonical complement basis of Ker N^m / (Ker N^{m-1} + N Ker N^{m+1}).
    The translates N^j v, j < m, of the tops v form a basis."""
    powers = N.powers()
    n, e = N.cols, len(powers) - 1
    kernels = ([Subspace.zero(n)] + [p.kernel() for p in powers[1:e]]
               + [Subspace.full(n)] * 2)        # Ker N^m at m = 0..e+1
    tops = {}
    for m in range(e, 0, -1):
        lower = kernels[m - 1].sum(N.image(kernels[m + 1]))
        if basis := Subquotient(kernels[m], lower).lifts.basis:
            tops[m] = basis
    return tops


@_remembered
def relative_monodromy_filtration(N: Matrix,
                                  w: IncreasingFiltration) -> IncreasingFiltration:
    """The filtration M(N, W), or RelativeMonodromyNonexistent; W(N) over a
    pure W, and W itself for N = 0, whose chains all have length one.
    Otherwise built in one pass up the jumps b of W, in the ambient
    coordinates: each chain top of length m of the N induced on Gr^W_b is
    lifted to x in W_b with N^m x in M_{b-m-1}, the span of the chains
    lifted below b at levels <= b - m - 1 (Steenbrink-Zucker 1985; a
    solvable linear condition at every b exactly when M exists), one system
    per (b, m).  The chain vector N^j x sits at level b + m - 1 - 2j, and
    M_k is the span of the chain vectors at levels <= k.  Chains that do
    not span, or fail the axioms, are a bug (AssertionError) for every W.
    Memoized per evaluation.
    """
    powers, n = N.powers(), w.ambient_dim
    if powers is None:
        raise NotNilpotent("operator is not nilpotent")
    if N.cols != n:
        raise ShapeError("operator and filtration live on different spaces")
    if w.first_violation(N, w) is not None:
        raise FiltrationNotPreserved("N does not preserve the weight filtration")
    m = w if N.is_zero() else _lifted_chains(N, powers, w)
    if m is None or not check_relative_axioms(m, N, w):
        raise AssertionError("M(N, W) fails its axioms")
    return m


def _lifted_chains(N: Matrix, powers, w: IncreasingFiltration):
    """The filtration the lifted chains of N span, or None when their last
    step is not the whole space."""
    n, chains = w.ambient_dim, []   # (level, vector) of every chain so far
    spans = {}      # the span of each set of chains, keyed by their positions
    def span_upto(level):      # the span of the chains at levels <= level
        held = tuple(i for i, (k, _) in enumerate(chains) if k <= level)
        if held not in spans:
            spans[held] = Subspace.span([chains[i][1] for i in held], n)
        return spans[held]
    for b in w.jumps():
        gr, below = w.graded_piece(b), w.at(b - 1)
        lifted = []     # joins chains after b: a target holds lower steps
        for length, tops in _jordan_chain_tops(induced_map(N, gr, gr)).items():
            target = span_upto(b - length - 1)
            gens = [*target.basis, *powers[length].apply_all(below.basis)]
            system = Matrix(gens, cols=n).transpose()
            for x in map(gr.lift, tops):
                coeffs = system.solve(powers[length](x))
                if coeffs is None:
                    raise RelativeMonodromyNonexistent(
                        f"no admissible lift for a chain of length {length} "
                        f"over weight {b}")
                if not (rest := coeffs[target.dim:]).is_zero():
                    x = x - below.from_coords(rest)
                lifted += [(b + length - 1 - 2 * j, powers[j](x))
                           for j in range(length)]
        chains += lifted
    steps = [(level, span_upto(level)) for level in sorted({k for k, _ in chains})]
    if (steps[-1][1] if steps else Subspace.zero(n)).is_full():
        return IncreasingFiltration(n, steps)
    return None


# -- star ------------------------------------------------------------------

def star(N: Matrix, w: IncreasingFiltration) -> IncreasingFiltration:
    """(N*W)_k = N W_{k+1} + M_k(N,W) cap W_k; the alternate form with
    W_{k+1} is computed too and asserted equal.  For N = 0 both forms are
    M_k cap W_k, so 0*W = W once M(0, W) = W."""
    m = relative_monodromy_filtration(N, w)
    if N.is_zero() and m == w:
        return w
    n = w.ambient_dim
    lo = min(w.lowest(), m.lowest()) - 2
    hi = max(w.highest(), m.highest()) + 1
    steps = []
    for k in range(lo, hi + 1):
        img = N.image(w.at(k + 1))
        primary = img.sum(m.at(k).intersect(w.at(k)))
        alternate = img.sum(m.at(k).intersect(w.at(k + 1)))
        if primary != alternate:
            raise AssertionError("the two defining expressions of N*W disagree")
        steps.append((k, primary))
    return IncreasingFiltration(n, steps)
