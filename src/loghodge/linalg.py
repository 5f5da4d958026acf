"""Exact linear algebra over Q(i): matrices, canonical subspaces, subquotients.

Subspaces of a fixed coordinate space are always stored in reduced row
echelon form, so two equal subspaces have equal representations and
equality of filtrations built from them is decidable by comparison.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import IllDefinedInducedMap, ShapeError
from .scalars import ONE, ZERO, Scalar, _canon, as_scalar

Vector = tuple  # tuple of Scalar


def as_vector(entries: Sequence) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def vec_is_zero(v: Vector) -> bool:
    return not any(v)

def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def place(shape, pieces):
    """A zero vector of length shape, or a zero Matrix of shape (rows, cols),
    with each piece written at its coordinate positions.

    A vector piece is (entries, positions): entry i lands at positions[i].  A
    matrix piece is (block, row positions, column positions): block[r, c]
    lands at (rows[r], cols[c]).
    """
    if isinstance(shape, int):
        out = [ZERO] * shape
        for entries, pos in pieces:
            for i, x in zip(pos, entries):
                out[i] = x
        return tuple(out)
    rows, cols = shape
    out = [[ZERO] * cols for _ in range(rows)]
    for block, row_pos, col_pos in pieces:
        for r, entries in zip(row_pos, block.entries):
            for c, x in zip(col_pos, entries):
                out[r][c] = x
    return _matrix(tuple(map(tuple, out)), cols)


def _matrix(rows: tuple[Vector, ...], cols: int) -> "Matrix":
    """A Matrix from a tuple of rows that are already tuples of Scalars, each
    of length cols, unchecked."""
    m = object.__new__(Matrix)
    m.entries = rows
    m.rows = len(rows)
    m.cols = cols
    return m


class Matrix:
    """Dense exact matrix, rows of Scalars, and the linear map of shape
    rows x cols it defines (columns act): m(v) is m.apply(v) and m * n is
    m after n."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        rows = [as_vector(r) for r in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged matrix input")
            if cols is not None and cols != width:
                raise ShapeError(f"declared {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.entries = tuple(rows)
        self.rows = len(rows)
        self.cols = cols

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                             for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _matrix((zero_vector(cols),) * rows, cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return _matrix(tuple(tuple(r[j] for r in self.entries)
                             for j in range(self.cols)), self.rows)

    def conj(self) -> "Matrix":
        return _matrix(tuple(tuple(e.conj() for e in r) for r in self.entries),
                       self.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        return _matrix(
            tuple(tuple(x + y for x, y in zip(a, b))
                  for a, b in zip(self.entries, other.entries)),
            self.cols)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-ONE)

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return _matrix(tuple(tuple(c * x for x in r) for r in self.entries),
                       self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row i of the product is the sum of a * (row k of other) over the
        # nonzero entries a = self[i, k]
        supports = [[(j, b) for j, b in enumerate(r) if b] for r in other.entries]
        out = []
        for r in self.entries:
            acc = [ZERO] * other.cols
            for a, support in zip(r, supports):
                if a:
                    for j, b in support:
                        acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return _matrix(tuple(out), other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector; v has length .cols."""
        if len(v) != self.cols:
            raise ShapeError("vector length does not match matrix columns")
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for r in self.entries:
            acc = ZERO
            for j, x in support:
                a = r[j]
                if a:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def __call__(self, v: Vector) -> Vector:
        return self.apply(v)

    def to_strings(self):
        return [[str(e) for e in r] for r in self.entries]

    def is_zero(self) -> bool:
        return all(not e for r in self.entries for e in r)

    def powers(self) -> list["Matrix"] | None:
        """self^0, ..., self^e with self^e the first zero power, or None when
        self is not nilpotent (no power up to the dimension vanishes)."""
        if self.rows != self.cols:
            raise ShapeError("powers of a non-endomorphism")
        out = [Matrix.identity(self.cols)]
        while not out[-1].is_zero():
            if len(out) > self.cols:
                return None
            out.append(self * out[-1])
        return out

    def image(self, sub: Subspace | None = None) -> Subspace:
        if sub is None:
            sub = Subspace.full(self.cols)
        return Subspace(self.rows, [self(v) for v in sub.basis])

    def maps_into(self, src: Subspace, tgt: Subspace) -> bool:
        """f(src) <= tgt."""
        return all(tgt.contains_vector(self(v)) for v in src.basis)

    def kernel(self) -> Subspace:
        return Subspace(self.cols, _kernel_basis(self))

    def preimage(self, target_sub: Subspace) -> Subspace:
        """{v : f(v) in target_sub}."""
        if target_sub.ambient_dim != self.rows:
            raise ShapeError("preimage ambient mismatch")
        if target_sub.is_full():
            return Subspace.full(self.cols)
        # residual-after-reduction is linear; kernel of (residual o f).
        cols = [target_sub.reduce(c) for c in self.transpose().entries]
        return _matrix(tuple(cols), self.rows).transpose().kernel()

    def solve(self, v: Vector):
        """One x with f(x) = v, or None."""
        if vec_is_zero(v):
            return zero_vector(self.cols)
        aug = Subspace(self.cols + 1, [r + (t,) for r, t in zip(self.entries, v)])
        if self.cols in aug._pivots:
            return None
        x = [ZERO] * self.cols
        for row, p in zip(aug.basis, aug._pivots):
            x[p] = row[-1]
        return tuple(x)

    def inverse(self) -> "Matrix":
        """Exact inverse; ShapeError on a non-square or singular matrix."""
        n = self.rows
        if n != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        aug = [list(self.entries[i]) + [ONE if j == i else ZERO for j in range(n)]
               for i in range(n)]
        red = rref(aug, 2 * n)
        # [A | I] always has rank n; A is invertible iff every pivot lies in A
        if n and not red[-1][n - 1]:
            raise ShapeError("matrix is singular")
        return _matrix(tuple(row[n:] for row in red), n)


# The old name of Matrix.  The span TARGETS in perfbench/spans.py name the
# preimage and kernel methods through it, and the tracer test
# test_tracer_rebinds_names_imported_elsewhere resolves them; no module or
# test of the package uses it.
LinearMap = Matrix


def rref(rows: Iterable[Vector], width: int) -> tuple[Vector, ...]:
    """Reduced row echelon form: pivots 1, pivot columns cleared, rows by pivot.

    Fraction-free Gauss-Jordan with the first nonzero row as pivot: a row
    with entry c in the pivot column becomes p*row - c*(pivot row), p the
    pivot, and is then stripped.  When no entry has an imaginary part, each
    row is first cleared of denominators, the loop runs on ints and strips a
    row of its content, and each row is divided by its pivot only when it is
    emitted.  Otherwise the loop runs on the Scalars and strips a row to a
    leading 1.  Either way the result is the unique canonical form.
    """
    work = [r for r in rows if not vec_is_zero(r)]
    for r in work:
        if len(r) != width:
            raise ShapeError("vector of wrong ambient dimension")
    cleared = [_cleared(r) for r in work]
    gaussian = None in cleared
    strip = _monic if gaussian else _primitive
    work = [strip(r) for r in (work if gaussian else cleared)]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        prow = work[pivot_row]
        work[pivot_row] = work[rank]
        work[rank] = prow
        p = prow[col]
        for i, r in enumerate(work):
            c = r[col]
            if c and i != rank:
                work[i] = strip([p * x - c * y for x, y in zip(r, prow)])
        pivots.append(col)
        if rank + 1 == len(work):
            break
    if gaussian:
        return tuple(map(tuple, work[:len(pivots)]))
    return tuple(tuple(_canon(x, 0, r[p]) if x else ZERO for x in r)
                 for r, p in zip(work, pivots))


def _cleared(row: Vector) -> list[int] | None:
    """The integer row m*row, m the lcm of the entries' denominators, or None
    when an entry has an imaginary part (which puts a 0 into the lcm)."""
    m = lcm(*(0 if e.b else e.d for e in row))
    return [e.a * (m // e.d) for e in row] if m else None


def _primitive(row: list[int]) -> list[int]:
    """row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _monic(row: list[Scalar]) -> list[Scalar]:
    """row divided by its first nonzero entry."""
    lead = next((x for x in row if x), ONE)
    return row if lead == ONE else [x / lead for x in row]


class Subspace:
    """A subspace of Q(i)^ambient_dim in canonical (RREF) form."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: tuple[Vector, ...], _canonical=False):
        if not _canonical:
            basis = rref(basis, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = basis
        # canonical rows have strictly increasing pivots: each search starts
        # one past the previous pivot
        pivots, p = [], 0
        for r in basis:
            while not r[p]:
                p += 1
            pivots.append(p)
            p += 1
        self._pivots = tuple(pivots)

    @staticmethod
    def span(vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [as_vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ShapeError("vector of wrong ambient dimension")
        return Subspace(ambient_dim, rref(vecs, ambient_dim), _canonical=True)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), _canonical=True)

    @staticmethod
    @cache
    def full(ambient_dim: int) -> "Subspace":
        """The whole space, built once per dimension: it is an immutable value."""
        return Subspace(
            ambient_dim, Matrix.identity(ambient_dim).entries, _canonical=True
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after eliminating this subspace's pivot columns.

        The residual is zero iff v lies in the subspace; v - reduce(v) is the
        projection along the pivot coordinates.  Linear in v.
        """
        if len(v) != self.ambient_dim:
            raise ShapeError("vector of wrong ambient dimension")
        out = list(v)
        for row, p in zip(self.basis, self._pivots):
            c = out[p]
            if c:
                # a canonical basis row is zero left of its pivot
                for j in range(p, self.ambient_dim):
                    b = row[j]
                    if b:
                        out[j] = out[j] - c * b
        return tuple(out)

    def contains_vector(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis)

    def coords(self, v: Vector) -> Vector:
        """Coordinates of v in the canonical basis; requires membership."""
        if not self.contains_vector(v):
            raise ShapeError("vector not in subspace")
        return tuple(v[p] for p in self._pivots)

    def from_coords(self, coords: Sequence) -> Vector:
        """The vector with these coordinates in the canonical basis."""
        if len(coords) != self.dim:
            raise ShapeError("coordinate length mismatch")
        out = [ZERO] * self.ambient_dim
        for c, row, p in zip(coords, self.basis, self._pivots):
            if c:
                for j in range(p, self.ambient_dim):
                    b = row[j]
                    if b:
                        out[j] = out[j] + c * b
        return tuple(out)

    # -- lattice ----------------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch in sum")
        if not self.basis or not other.basis:
            return other if not self.basis else self
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch in intersect")
        if self.is_full():
            return other
        if other.is_full():
            return self
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient_dim)
        # left kernel of the stacked basis matrix: z*(A;B) = 0 gives
        # intersection vectors sum_i z_i A_i.
        m = _matrix(self.basis + other.basis, self.ambient_dim).transpose()
        gens = [self.from_coords(z[: self.dim]) for z in _kernel_basis(m)]
        return Subspace(self.ambient_dim, gens)

    def annihilator(self) -> "Subspace":
        """Functionals (in dual coordinates) vanishing on this subspace."""
        if self.is_zero():
            return Subspace.full(self.ambient_dim)
        m = _matrix(self.basis, self.ambient_dim)
        return Subspace(self.ambient_dim, _kernel_basis(m))

    def conj(self) -> "Subspace":
        return Subspace(self.ambient_dim,
                        [tuple(e.conj() for e in r) for r in self.basis])


def _kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of {v : m v = 0}, from the RREF free-variable construction."""
    rows = Subspace(m.cols, m.entries)
    basis = []
    for f in range(m.cols):
        if f in rows._pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, p in zip(rows.basis, rows._pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


class Subquotient:
    """Presentation of sub/quot_by with a canonical complement basis.

    The lift basis is the RREF of (basis of sub reduced mod quot_by), so the
    presentation is deterministic and coordinates are canonical.
    """

    __slots__ = ("sub", "quot_by", "lifts")

    def __init__(self, sub: Subspace, quot_by: Subspace):
        if sub.ambient_dim != quot_by.ambient_dim:
            raise ShapeError("subquotient ambient mismatch")
        if not sub.contains(quot_by):
            raise ShapeError("quot_by is not contained in sub")
        self.sub = sub
        self.quot_by = quot_by
        if quot_by.is_zero():
            self.lifts = sub
        else:
            reduced = [quot_by.reduce(v) for v in sub.basis]
            self.lifts = Subspace(sub.ambient_dim, reduced)

    @staticmethod
    def of(sub: Subspace) -> "Subquotient":
        """sub modulo zero, in sub's own canonical coordinates."""
        return Subquotient(sub, Subspace.zero(sub.ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.sub.ambient_dim

    @property
    def dim(self) -> int:
        return self.lifts.dim

    def __repr__(self):
        return f"Subquotient(dim={self.dim})"

    def coords(self, v: Vector) -> Vector:
        """Coordinates of the class of v; requires v in sub.

        v lies in sub exactly when its residual mod quot_by lies in lifts.
        """
        r = self.quot_by.reduce(v)
        if not self.lifts.contains_vector(r):
            raise ShapeError("vector not in the ambient sub of the subquotient")
        return tuple(r[p] for p in self.lifts._pivots)

    def lift(self, coords: Sequence) -> Vector:
        return self.lifts.from_coords(coords)

    def project_subspace(self, s: Subspace) -> Subspace:
        """Image of (s intersect sub) in the quotient coordinates."""
        inter = s.intersect(self.sub)
        return Subspace(self.dim, [self.coords(v) for v in inter.basis])


def induced_map(f: Matrix, src: Subquotient, tgt: Subquotient) -> Matrix:
    """Map induced by f on subquotients; raises IllDefinedInducedMap.

    Functorial: induced(g o f) = induced(g) o induced(f) whenever both sides
    are defined.  Column j is the class of f(src.lifts.basis[j]).
    """
    # src.sub is spanned by the lifts together with src.quot_by
    lifted = [f(v) for v in src.lifts.basis]
    pushed = [f(v) for v in src.quot_by.basis]
    if not all(tgt.sub.contains_vector(w) for w in lifted + pushed):
        raise IllDefinedInducedMap("f(sub) not contained in target sub")
    if not all(tgt.quot_by.contains_vector(w) for w in pushed):
        raise IllDefinedInducedMap("f(quot_by) not contained in target quot_by")
    cols = [tgt.coords(w) for w in lifted]
    return _matrix(tuple(cols), tgt.dim).transpose()

