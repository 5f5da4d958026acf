"""Weight-style filtrations and the monodromy/star machinery.

Filtrations are stored by their jump steps only, in canonical form, so
equality of filtrations is equality of representations, and the dual, star
and the axioms read a step only at an index where an operand jumps.  The
relative monodromy filtration M(N, W) is built in one pass up the jumps of
W from Jordan chains lifted out of each graded piece, one reduction per
chain top; W(N) is M(N, W) over a pure W, and M(0, W) = W, as every chain
of N = 0 has length one (so 0*W = W).  Only a chain with no admissible
lift means M(N, W) does not exist.  The builder checks its result once,
with the one membership test of the axioms, ``axioms_in_t``, which counts
graded dimensions against the Jordan type of N on each Gr^W and holds
exactly when the builder returns it; lifted chains meet the axioms by
construction, so a failure is a bug for every W.

The relative monodromy builder, ``graded_piece`` and ``project_to`` are
``@_remembered`` in the evaluation memo of ``linalg``, so inside an
``evaluation()`` block an equal input is built once.  ``monodromy_filtration``
is not: the builder it wraps is, so a memo of its own would never hit.
"""

from __future__ import annotations

from collections.abc import Sequence

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
        coordinate space; it changes only as center - i passes below a jump j
        of self, so it is stored at i = center - j + 1 for each j."""
        return type(self)(self.ambient_dim, [
            (center - j + 1, self.at(j - 1).annihilator()) for j in self.jumps()])

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


def axioms_in_t(m: IncreasingFiltration, ops: Sequence[Matrix],
                w: IncreasingFiltration, ts) -> bool:
    """True exactly when m = M(N(t), W) at every t of ts, N(t) = sum_j t[j]
    ops[j]; False unless each op preserves w and maps m_a into m_{a-2}, so
    that every N(t) does.  M(N, W) is the unique M with N M_k <= M_{k-2}
    inducing the W(N) centred at l on each Gr^W_l (Steenbrink-Zucker 1985;
    over W pure of weight c, W(N) centred at c: Deligne, Weil II 1.6.1).  It
    is decided by counting: an M that a nilpotent N lowers by two is W(N)
    centred at c when it has W(N)'s graded dimensions.  Let e + 1 be the
    longest Jordan block.  N^e maps M_{c+e} into M_{c-e}, and M_{c+e-1} into
    M_{c-e-1} = 0, so equal dimensions force M_{c-e} = Im N^e and M_{c+e-1}
    = Ker N^e.  Induction on Ker N^e / Im N^e, where N's blocks are shorter,
    gives the rest."""
    if any(not op.rows == op.cols == w.ambient_dim == m.ambient_dim
           or w.first_violation(op, w) is not None
           or m.first_violation(op, m, -2) is not None for op in ops):
        return False
    for l in w.jumps():
        gr = w.graded_piece(l)
        dims = m.project_to(gr).graded_dims()
        ops_gr = [induced_map(op, gr, gr) for op in ops]
        if any(_monodromy_dims(combination(t, ops_gr, gr.dim, gr.dim), l)
               != dims for t in ts):
            return False
    return True


def _monodromy_dims(N: Matrix, center: int) -> dict[int, int]:
    """The nonzero graded dimensions of W(N) centred at center, N nilpotent:
    with r_k the rank of N^k, read off the images N^k V until they stop
    shrinking, r_{k-1} - 2 r_k + r_{k+1} Jordan blocks have length k, and
    each adds one dimension at every center + k - 1 - 2j, j < k."""
    image = N.image()
    ranks = [N.cols, image.dim]
    while ranks[-2] != ranks[-1]:
        image = N.image(image)
        ranks.append(image.dim)
    dims = {}
    for k in range(1, len(ranks) - 1):
        if blocks := ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]:
            for a in range(center + k - 1, center - k, -2):
                dims[a] = dims.get(a, 0) + blocks
    return dims


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
    solvable linear condition at every b exactly when M exists), by one
    reduction per chain top.  The chain vector N^j x sits at level
    b + m - 1 - 2j, and M_k is the span of the chain vectors at levels <= k.
    Chains that do not span, or fail the axioms, are a bug (AssertionError)
    for every W.  Memoized per evaluation.
    """
    powers, n = N.powers(), w.ambient_dim
    if powers is None:
        raise NotNilpotent("operator is not nilpotent")
    if N.cols != n:
        raise ShapeError("operator and filtration live on different spaces")
    if w.first_violation(N, w) is not None:
        raise FiltrationNotPreserved("N does not preserve the weight filtration")
    m = w if N.is_zero() else _lifted_chains(N, powers, w)
    if m is None or not axioms_in_t(m, [N], w, [(1,)]):
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
    left, right = range(n), range(n, 2 * n)     # the halves of 2n coordinates
    for b in w.jumps():
        gr, below = w.graded_piece(b), w.at(b - 1)
        lifted = []     # joins chains after b: a target holds lower steps
        for length, tops in _jordan_chain_tops(induced_map(N, gr, gr)).items():
            # (t, 0), t in the target, and (N^m y, -y), y in W_{b-1}: (N^m x, 0)
            # reduces to (0, y) exactly when N^m (x - y) lies in the target
            graph = Subspace(2 * n, [place(2 * n, [(t, left)])
                                     for t in span_upto(b - length - 1).basis] + [
                place(2 * n, [(v, left), (-y, right)]) for y, v in
                zip(below.basis, powers[length].apply_all(below.basis))])
            for x in map(gr.lift, tops):
                rest = graph.reduce(place(2 * n, [(powers[length].apply(x), left)]))
                if not rest[:n].is_zero():
                    raise RelativeMonodromyNonexistent(
                        f"no admissible lift for a chain of length {length} "
                        f"over weight {b}")
                if not (y := rest[n:]).is_zero():
                    x = x - y
                lifted += [(b + length - 1 - 2 * j, powers[j].apply(x))
                           for j in range(length)]
        chains += lifted
    steps = [(level, span_upto(level)) for level in sorted({k for k, _ in chains})]
    if (steps[-1][1] if steps else Subspace.zero(n)).is_full():
        return IncreasingFiltration(n, steps)
    return None


# -- star ------------------------------------------------------------------

def star(N: Matrix, w: IncreasingFiltration) -> IncreasingFiltration:
    """(N*W)_k = N W_{k+1} + M_k(N,W) cap W_k; the alternate form with
    W_{k+1} is computed too and asserted equal, at the jumps of W and M and
    one below each jump of W: neither form changes between them, and they can
    differ only where W_k != W_{k+1}.  For N = 0 both forms are M_k cap W_k,
    so 0*W = W, as M(0, W) = W."""
    m = relative_monodromy_filtration(N, w)
    if N.is_zero():
        return w
    n = w.ambient_dim
    steps = []
    for k in sorted({i for j in w.jumps() for i in (j - 1, j)} | set(m.jumps())):
        img = N.image(w.at(k + 1))
        primary = img.sum(m.at(k).intersect(w.at(k)))
        alternate = img.sum(m.at(k).intersect(w.at(k + 1)))
        if primary != alternate:
            raise AssertionError("the two defining expressions of N*W disagree")
        steps.append((k, primary))
    return IncreasingFiltration(n, steps)
