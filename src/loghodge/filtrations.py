"""Weight-style filtrations and the monodromy/star machinery.

Increasing filtrations are stored by their jump steps only, in canonical
form, so equality of filtrations is equality of representations.  The
relative monodromy filtration is constructed recursively over the top
weight step and re-verified against both defining axioms before returning.
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
    LinearMap,
    Subquotient,
    Subspace,
    Vector,
    induced_map,
    solve_in_span,
    vec_add,
    vec_scale,
    zero_vector,
)
from .scalars import ONE, ZERO, is_integer


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

    def __init__(self, ambient_dim: int, steps: Sequence[tuple[int, Subspace]]):
        cleaned = []
        prev = self._start(ambient_dim)
        last = None
        for i, sub in sorted(steps, key=lambda t: t[0]):
            if sub.ambient_dim != ambient_dim:
                raise ShapeError("filtration step in wrong ambient space")
            if last is not None and i == last:
                raise ShapeError(f"duplicate filtration {self._INDEX} {i}")
            if sub == prev:
                continue
            self._check_order(prev, sub)
            cleaned.append((i, sub))
            prev = sub
            last = i
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
        """The same steps with every index moved by m."""
        return type(self)(self.ambient_dim, [(i + m, s) for i, s in self.steps])

    def restrict_to(self, sub: Subspace):
        """Induced filtration on sub, in sub's canonical coordinates."""
        steps = []
        for i, s in self.steps:
            inter = s.intersect(sub)
            steps.append((i, Subspace.span([sub.coords(v) for v in inter.basis],
                                           sub.dim)))
        return type(self)(sub.dim, steps)

    def project_to(self, sq: Subquotient):
        """Induced filtration on a subquotient, in its canonical coordinates."""
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
            steps.append((i, Subspace.span(entry["basis"], ambient_dim)))
        return cls(ambient_dim, steps)


class IncreasingFiltration(Filtration):
    """Weight-style filtration: W_k grows with k from zero to the full space."""

    __slots__ = ()

    KEY, _NAME, _INDEX = "weight", "filtration", "weight"
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

    def graded_piece(self, k: int) -> Subquotient:
        return Subquotient(self.at(k), self.at(k - 1))

    def graded_dims(self) -> dict[int, int]:
        out = {}
        prev = 0
        for w, sub in self.steps:
            d = sub.dim - prev
            if d:
                out[w] = d
            prev = sub.dim
        return out

    def is_preserved_by(self, f: LinearMap) -> bool:
        return all(
            s.contains_vector(f(v)) for _, s in self.steps for v in s.basis
        )


class DecreasingFiltration(Filtration):
    """Hodge-style filtration: F^p shrinks with p from the full space to zero."""

    __slots__ = ()

    KEY, _NAME, _INDEX = "p", "Hodge filtration", "index"
    _start = staticmethod(Subspace.full)

    @staticmethod
    def _check_order(prev: Subspace, sub: Subspace):
        if not prev.contains(sub):
            raise ShapeError("filtration steps are not decreasing")

    @staticmethod
    def _check_end(bottom: Subspace):
        if not bottom.is_zero():
            raise ShapeError("decreasing filtration does not reach zero")

    def graded_dims(self) -> dict[int, int]:
        out = {}
        prev_dim = self.ambient_dim
        for p, sub in self.steps:
            d = prev_dim - sub.dim
            if d:
                out[p - 1] = d
            prev_dim = sub.dim
        return out

    def is_preserved_by(self, f: LinearMap, shift: int = 0) -> bool:
        """True when f(F^p) <= F^{p+shift} for all p."""
        lo = self.lowest() - 1
        hi = self.highest()
        for p in range(lo, hi + 1):
            tgt = self.at(p + shift)
            if not all(tgt.contains_vector(f(v)) for v in self.at(p).basis):
                return False
        return True


# -- monodromy filtrations --------------------------------------------------

def monodromy_filtration(N: LinearMap, center: int = 0) -> IncreasingFiltration:
    """The unique filtration M with N M_i <= M_{i-2} and N^k: Gr_{c+k} ~ Gr_{c-k}.

    Built from the closed formula M_{c+k} = sum_j Im(N^j) cap Ker(N^{j+k+1});
    both axioms are re-verified before returning.
    """
    e = N.nilpotency_index()
    if e is None:
        raise NotNilpotent("operator is not nilpotent")
    n = N.source_dim
    powers = [LinearMap.identity(n)]
    for _ in range(e):
        powers.append(N.compose(powers[-1]))
    images = [p.image() for p in powers]           # Im N^j
    kernels = [p.kernel() for p in powers]         # Ker N^j

    def ker(m: int) -> Subspace:
        if m <= 0:
            return Subspace.zero(n)
        if m >= e:
            return Subspace.full(n)
        return kernels[m]

    steps = []
    for k in range(-e, e + 1):
        acc = Subspace.zero(n)
        for j in range(e + 1):
            if j >= len(images):
                break
            acc = acc.sum(images[j].intersect(ker(j + k + 1)))
        steps.append((center + k, acc))
    m = IncreasingFiltration(n, steps)
    _check_monodromy_axioms(m, N, center)
    return m


def _check_monodromy_axioms(m: IncreasingFiltration, N: LinearMap, center: int):
    if not _shifts_by_two(m, N):
        raise RelativeMonodromyNonexistent("candidate violates N M_i <= M_{i-2}")
    lo = m.lowest() - 1
    hi = m.highest()
    for k in range(1, max(hi - center, center - lo) + 1):
        top = m.graded_piece(center + k)
        bot = m.graded_piece(center - k)
        if top.dim != bot.dim:
            raise RelativeMonodromyNonexistent(
                f"graded pieces at {center + k} and {center - k} differ in dimension"
            )
        if top.dim == 0:
            continue
        g = induced_map(N.power(k), top, bot)
        if LinearMap(g.matrix).kernel().dim != 0:
            raise RelativeMonodromyNonexistent(
                f"N^{k} is not an isomorphism Gr_{center + k} -> Gr_{center - k}"
            )


def _shifts_by_two(m: IncreasingFiltration, N: LinearMap) -> bool:
    for w, sub in m.steps:
        tgt = m.at(w - 2)
        if not all(tgt.contains_vector(N(v)) for v in sub.basis):
            return False
    return True


def check_relative_axioms(m: IncreasingFiltration, N: LinearMap,
                          w: IncreasingFiltration) -> bool:
    """Both relative monodromy axioms, as exact subspace statements."""
    if not _shifts_by_two(m, N):
        return False
    for j in w.jumps():
        gr = w.graded_piece(j)
        if gr.dim == 0:
            continue
        n_gr = induced_map(N, gr, gr)
        induced = m.project_to(gr)
        try:
            expected = monodromy_filtration(n_gr, center=j)
        except (NotNilpotent, RelativeMonodromyNonexistent):
            return False
        if induced != expected:
            return False
    return True


def _jordan_chain_tops(N: LinearMap) -> list[tuple[Vector, int]]:
    """Chain tops (v, m) with N^m v = 0: translates N^j v form a basis.

    Tops of length m are a canonical complement basis of
    Ker N^m / (Ker N^{m-1} + N Ker N^{m+1}).
    """
    e = N.nilpotency_index()
    if e is None:
        raise NotNilpotent("jordan chains of a non-nilpotent operator")
    n = N.source_dim
    powers = [LinearMap.identity(n)]
    for _ in range(e + 1):
        powers.append(N.compose(powers[-1]))

    def ker(i):
        if i <= 0:
            return Subspace.zero(n)
        if i >= e:
            return Subspace.full(n)
        return powers[i].kernel()

    tops = []
    for m in range(e, 0, -1):
        space = ker(m)
        lower = ker(m - 1).sum(Subspace.span([N(v) for v in ker(m + 1).basis], n))
        sq = Subquotient(space, lower.intersect(space))
        for i in range(sq.dim):
            coords = [ONE if i == j else ZERO for j in range(sq.dim)]
            tops.append((sq.lift(coords), m))
    # sanity: translates form a basis of the whole space
    translates = [powers[j](v) for v, m in tops for j in range(m)]
    if Subspace.span(translates, n).dim != n:
        raise AssertionError("jordan chain construction failed to span")
    return tops


def relative_monodromy_filtration(N: LinearMap,
                                  w: IncreasingFiltration) -> IncreasingFiltration:
    """The filtration M(N, W), or RelativeMonodromyNonexistent.

    Construction: recurse on the top weight step.  On the pure top quotient
    the monodromy filtration of the induced operator is spanned by Jordan
    chains; each chain top of length m is lifted to x with N^m x inside
    M'_{b-m-1} of the recursively built filtration on the step below (a
    solvable linear condition exactly when M exists), and the candidate is
    the span of the lifted chains over M'.  The result is re-verified
    against both axioms.
    """
    e = N.nilpotency_index()
    if e is None:
        raise NotNilpotent("operator is not nilpotent")
    if N.source_dim != w.ambient_dim:
        raise ShapeError("operator and filtration live on different spaces")
    if not w.is_preserved_by(N):
        raise FiltrationNotPreserved("N does not preserve the weight filtration")
    m = _relative_monodromy_rec(N, w)
    if not check_relative_axioms(m, N, w):
        raise RelativeMonodromyNonexistent(
            "constructed candidate fails the relative monodromy axioms"
        )
    return m


def _relative_monodromy_rec(N: LinearMap, w: IncreasingFiltration):
    n = w.ambient_dim
    jumps = w.jumps()
    if n == 0:
        return IncreasingFiltration(0, [])
    if len(jumps) == 1:
        return monodromy_filtration(N, center=jumps[0])

    b = jumps[-1]
    v_sub = w.at(jumps[-2])
    # restriction to the part below the top weight, in V-coordinates
    nv = N.restrict(v_sub, v_sub)
    wv = w.restrict_to(v_sub)
    m_below = _relative_monodromy_rec(nv, wv)

    def below(k: int) -> Subspace:
        s = m_below.at(k)
        return Subspace.span([v_sub.from_coords(row) for row in s.basis], n)

    top = Subquotient(Subspace.full(n), v_sub)
    n_top = induced_map(N, top, top)
    try:
        tops = _jordan_chain_tops(n_top)
    except NotNilpotent:
        raise RelativeMonodromyNonexistent("induced operator on top step not nilpotent")

    e = N.nilpotency_index()
    powers = [LinearMap.identity(n)]
    for _ in range(e + 1):
        powers.append(N.compose(powers[-1]))

    contributions = []  # (weight level, vector)
    for vbar, length in tops:
        x0 = top.lift(vbar)
        tail = powers[length](x0)
        target_m = below(b - length - 1)
        gens = list(target_m.basis) + [powers[length](u) for u in v_sub.basis]
        coeffs = solve_in_span(gens, tail, n)
        if coeffs is None:
            raise RelativeMonodromyNonexistent(
                f"no admissible lift for a chain of length {length} over weight {b}"
            )
        corr = zero_vector(n)
        for c, u in zip(coeffs[target_m.dim:], v_sub.basis):
            corr = vec_add(corr, vec_scale(c, u))
        x = tuple(a - bb for a, bb in zip(x0, corr))
        for j in range(length):
            contributions.append((b + length - 1 - 2 * j, powers[j](x)))

    lo = min([m_below.lowest()] + [lv for lv, _ in contributions]) - 1
    hi = max([m_below.highest()] + [lv for lv, _ in contributions]) + 1
    steps = []
    for k in range(lo, hi + 1):
        acc = below(k)
        vecs = [vec for lv, vec in contributions if lv <= k]
        if vecs:
            acc = acc.sum(Subspace.span(vecs, n))
        steps.append((k, acc))
    return IncreasingFiltration(n, steps)


# -- star, shriek, iterated star --------------------------------------------

def star(N: LinearMap, w: IncreasingFiltration) -> IncreasingFiltration:
    """(N*W)_k = N W_{k+1} + M_k(N,W) cap W_k; the alternate form with
    W_{k+1} is computed too and asserted equal."""
    m = relative_monodromy_filtration(N, w)
    n = w.ambient_dim
    lo = min(w.lowest(), m.lowest()) - 2
    hi = max(w.highest(), m.highest()) + 1
    steps = []
    for k in range(lo, hi + 1):
        img = Subspace.span([N(v) for v in w.at(k + 1).basis], n)
        primary = img.sum(m.at(k).intersect(w.at(k)))
        alternate = img.sum(m.at(k).intersect(w.at(k + 1)))
        if primary != alternate:
            raise AssertionError("the two defining expressions of N*W disagree")
        steps.append((k, primary))
    return IncreasingFiltration(n, steps)


def shriek(N: LinearMap, w: IncreasingFiltration) -> IncreasingFiltration:
    """(N!W)_k = W_{k-1} + M_k(N,W) cap N^{-1} W_{k-1}."""
    m = relative_monodromy_filtration(N, w)
    n = w.ambient_dim
    lo = min(w.lowest(), m.lowest()) - 1
    hi = max(w.highest(), m.highest()) + 2
    steps = []
    for k in range(lo, hi + 1):
        pre = N.preimage(w.at(k - 1))
        steps.append((k, w.at(k - 1).sum(m.at(k).intersect(pre))))
    return IncreasingFiltration(n, steps)


def iterated_star(operators: Sequence[LinearMap], w: IncreasingFiltration,
                  branches: Sequence[int],
                  check_order: bool | None = None) -> IncreasingFiltration:
    """W^J: star-compose the listed branch operators over W.

    Order independence is asserted for |J| <= 3 unless check_order=False.
    """
    branches = list(branches)
    out = w
    for j in branches:
        out = star(operators[j], out)
    if check_order is None:
        check_order = len(branches) <= 3
    if check_order and len(branches) > 1:
        import itertools

        for perm in itertools.permutations(branches):
            if list(perm) == branches:
                continue
            other = w
            for j in perm:
                other = star(operators[j], other)
            if other != out:
                raise AssertionError(
                    f"iterated star is order dependent for branches {branches}"
                )
    return out


def dual_filtration(w: IncreasingFiltration) -> IncreasingFiltration:
    """(W*)_k = annihilator of W_{-k-1}, on the dual coordinate space."""
    out = w.dual(-1)
    # graded dimensions must reflect: Gr_k(W*) ~ (Gr_{-k} W)*
    gd, gdd = w.graded_dims(), out.graded_dims()
    if {(-k, d) for k, d in gd.items()} != set(gdd.items()):
        raise AssertionError("dual filtration graded dimensions do not reflect")
    return out
