"""Exact linear algebra over Q(i): matrices, canonical subspaces, subquotients.

Subspaces of a fixed coordinate space are always stored in reduced row
echelon form, so two equal subspaces have equal representations and
equality of filtrations built from them is decidable by comparison.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import IllDefinedInducedMap, ShapeError
from .scalars import ONE, ZERO, Scalar, as_scalar

Vector = tuple  # tuple of Scalar


def as_vector(entries: Sequence) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c: Scalar, v: Vector) -> Vector:
    return tuple(c * a for a in v)

def vec_is_zero(v: Vector) -> bool:
    return not any(v)

def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


class Matrix:
    """Dense exact matrix; rows of Scalars."""

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
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([zero_vector(cols)] * rows, cols=cols)

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

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)], cols=self.rows)

    def conj(self) -> "Matrix":
        return Matrix([[e.conj() for e in r] for r in self.entries], cols=self.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        return Matrix(
            [vec_add(a, b) for a, b in zip(self.entries, other.entries)], cols=self.cols
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction shape mismatch")
        return Matrix(
            [vec_sub(a, b) for a, b in zip(self.entries, other.entries)], cols=self.cols
        )

    def __neg__(self):
        return Matrix([vec_scale(-ONE, r) for r in self.entries], cols=self.cols)

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix([vec_scale(c, r) for r in self.entries], cols=self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = other.transpose().entries
        out = []
        for r in self.entries:
            out.append(
                tuple(sum((a * b for a, b in zip(r, c)), ZERO) for c in bt)
            )
        return Matrix(out, cols=other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector; v has length .cols."""
        if len(v) != self.cols:
            raise ShapeError("vector length does not match matrix columns")
        return tuple(sum((a * b for a, b in zip(r, v)), ZERO) for r in self.entries)

    def to_strings(self):
        return [[str(e) for e in r] for r in self.entries]

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
        return Matrix([row[n:] for row in red], cols=n)


def rref(rows: Iterable[Vector], width: int) -> tuple[Vector, ...]:
    """Reduced row echelon form: pivots 1, pivot columns cleared, rows by pivot."""
    work = [list(r) for r in rows if not vec_is_zero(r)]
    for r in work:
        if len(r) != width:
            raise ShapeError("vector of wrong ambient dimension")
    pivots = []
    row_i = 0
    for col in range(width):
        pivot_row = None
        for i in range(row_i, len(work)):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[row_i], work[pivot_row] = work[pivot_row], work[row_i]
        inv = ONE / work[row_i][col]
        work[row_i] = [inv * e for e in work[row_i]]
        for i in range(len(work)):
            if i != row_i and work[i][col]:
                c = work[i][col]
                work[i] = [e - c * p for e, p in zip(work[i], work[row_i])]
        pivots.append(col)
        row_i += 1
        if row_i == len(work):
            break
    return tuple(tuple(r) for r in work[:row_i] if not vec_is_zero(tuple(r)))


class Subspace:
    """A subspace of Q(i)^ambient_dim in canonical (RREF) form."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: tuple[Vector, ...], _canonical=False):
        if not _canonical:
            basis = rref(basis, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = tuple(next(j for j, e in enumerate(r) if e) for r in basis)

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
    def full(ambient_dim: int) -> "Subspace":
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
                out = [e - c * b for e, b in zip(out, row)]
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
        coords = as_vector(coords)
        if len(coords) != self.dim:
            raise ShapeError("coordinate length mismatch")
        out = zero_vector(self.ambient_dim)
        for c, row in zip(coords, self.basis):
            out = vec_add(out, vec_scale(c, row))
        return out

    # -- lattice ----------------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch in sum")
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch in intersect")
        if self.is_full():
            return other
        if other.is_full():
            return self
        # left kernel of the stacked basis matrix: z*(A;B) = 0 gives
        # intersection vectors sum_i z_i A_i.
        stacked = self.basis + other.basis
        if not stacked:
            return Subspace.zero(self.ambient_dim)
        m = Matrix(stacked, cols=self.ambient_dim).transpose()
        gens = []
        for z in _kernel_basis(m):
            v = zero_vector(self.ambient_dim)
            for c, row in zip(z[: self.dim], self.basis):
                v = vec_add(v, vec_scale(c, row))
            gens.append(v)
        return Subspace.span(gens, self.ambient_dim)

    def annihilator(self) -> "Subspace":
        """Functionals (in dual coordinates) vanishing on this subspace."""
        if self.is_zero():
            return Subspace.full(self.ambient_dim)
        m = Matrix(self.basis, cols=self.ambient_dim)
        return Subspace.span(_kernel_basis(m), self.ambient_dim)

    def conj(self) -> "Subspace":
        return Subspace.span([tuple(e.conj() for e in r) for r in self.basis],
                             self.ambient_dim)


def _kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of {v : m v = 0}, from the RREF free-variable construction."""
    reduced = rref(m.entries, m.cols)
    pivots = [next(j for j, e in enumerate(r) if e) for r in reduced]
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


class LinearMap:
    """Linear map with matrix of shape target_dim x source_dim (columns act)."""

    __slots__ = ("source_dim", "target_dim", "matrix")

    def __init__(self, matrix: Matrix, source_dim: int | None = None,
                 target_dim: int | None = None):
        if not isinstance(matrix, Matrix):
            matrix = Matrix(matrix)
        if source_dim is None:
            source_dim = matrix.cols
        if target_dim is None:
            target_dim = matrix.rows
        if (matrix.rows, matrix.cols) != (target_dim, source_dim):
            raise ShapeError("matrix shape does not match declared dimensions")
        self.matrix = matrix
        self.source_dim = source_dim
        self.target_dim = target_dim

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(Matrix.identity(n))

    @staticmethod
    def zero(source_dim: int, target_dim: int) -> "LinearMap":
        return LinearMap(Matrix.zero(target_dim, source_dim))

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"LinearMap({self.source_dim}->{self.target_dim})"

    def __call__(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        if inner.target_dim != self.source_dim:
            raise ShapeError("composition dimension mismatch")
        return LinearMap(self.matrix * inner.matrix)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix - other.matrix)

    def __neg__(self):
        return LinearMap(-self.matrix)

    def scale(self, c) -> "LinearMap":
        return LinearMap(self.matrix.scale(c))

    def power(self, k: int) -> "LinearMap":
        if self.source_dim != self.target_dim:
            raise ShapeError("power of non-endomorphism")
        out = LinearMap.identity(self.source_dim)
        for _ in range(k):
            out = out.compose(self)
        return out

    def transpose(self) -> "LinearMap":
        return LinearMap(self.matrix.transpose())

    def is_zero(self) -> bool:
        return all(not e for r in self.matrix.entries for e in r)

    def nilpotency_index(self) -> int | None:
        """Least e with self^e == 0, or None if not nilpotent."""
        if self.source_dim != self.target_dim:
            raise ShapeError("nilpotency of non-endomorphism")
        p = LinearMap.identity(self.source_dim)
        for e in range(self.source_dim + 1):
            if p.is_zero():
                return e
            p = self.compose(p)
        return 0 if p.is_zero() else None

    def image(self, sub: Subspace | None = None) -> Subspace:
        if sub is None:
            sub = Subspace.full(self.source_dim)
        return Subspace.span([self(v) for v in sub.basis], self.target_dim)

    def kernel(self) -> Subspace:
        return Subspace.span(_kernel_basis(self.matrix), self.source_dim)

    def preimage(self, target_sub: Subspace) -> Subspace:
        """{v : f(v) in target_sub}."""
        if target_sub.ambient_dim != self.target_dim:
            raise ShapeError("preimage ambient mismatch")
        if target_sub.is_full():
            return Subspace.full(self.source_dim)
        # residual-after-reduction is linear; kernel of (residual o f).
        cols = []
        for j in range(self.target_dim):
            e = list(zero_vector(self.target_dim))
            e[j] = ONE
            cols.append(target_sub.reduce(tuple(e)))
        proj = Matrix(cols, cols=self.target_dim).transpose()
        return LinearMap(proj * self.matrix).kernel()

    def restrict(self, src: Subspace, tgt: Subspace) -> "LinearMap":
        """Matrix of the map src -> tgt in the canonical bases; requires f(src) <= tgt."""
        cols = []
        for v in src.basis:
            w = self(v)
            if not tgt.contains_vector(w):
                raise IllDefinedInducedMap("image leaves the declared target subspace")
            cols.append(tgt.coords(w))
        if not cols:
            return LinearMap.zero(0, tgt.dim)
        return LinearMap(Matrix(cols, cols=tgt.dim).transpose())


def canonicalize(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Row space of the input in canonical RREF form; idempotent."""
    vecs = [as_vector(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ShapeError("empty input needs an explicit ambient dimension")
        ambient_dim = len(vecs[0])
    return Subspace.span(vecs, ambient_dim)


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
        reduced = [quot_by.reduce(v) for v in sub.basis]
        self.lifts = Subspace.span(reduced, sub.ambient_dim)

    @property
    def ambient_dim(self) -> int:
        return self.sub.ambient_dim

    @property
    def dim(self) -> int:
        return self.lifts.dim

    def __repr__(self):
        return f"Subquotient(dim={self.dim})"

    def coords(self, v: Vector) -> Vector:
        """Coordinates of the class of v; requires v in sub."""
        if not self.sub.contains_vector(v):
            raise ShapeError("vector not in the ambient sub of the subquotient")
        return self.lifts.coords(self.quot_by.reduce(v))

    def lift(self, coords: Sequence) -> Vector:
        return self.lifts.from_coords(coords)

    def project_subspace(self, s: Subspace) -> Subspace:
        """Image of (s intersect sub) in the quotient coordinates."""
        inter = s.intersect(self.sub)
        return Subspace.span([self.coords(v) for v in inter.basis], self.dim)


def solve_in_span(gens: Sequence[Vector], target: Vector, width: int):
    """Coefficients c with sum c_i gens_i = target, or None if unsolvable."""
    if vec_is_zero(target):
        return [ZERO] * len(gens)
    if not gens:
        return None
    cols = Matrix(gens, cols=width).transpose()
    aug = [list(r) + [t] for r, t in zip(cols.entries, target)]
    reduced = rref(aug, len(gens) + 1)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    if len(gens) in pivots:
        return None
    coeffs = [ZERO] * len(gens)
    for row, p in zip(reduced, pivots):
        coeffs[p] = row[-1]
    return coeffs


def solve_linear(f: LinearMap, v: Vector):
    """One preimage x with f(x) = v, or None."""
    cols = [f.matrix.col(j) for j in range(f.source_dim)]
    coeffs = solve_in_span(cols, v, f.target_dim)
    return None if coeffs is None else tuple(coeffs)


def induced_map(f: LinearMap, src: Subquotient, tgt: Subquotient) -> LinearMap:
    """Map induced by f on subquotients; raises IllDefinedInducedMap.

    Functorial: induced(g o f) = induced(g) o induced(f) whenever both sides
    are defined.
    """
    for v in src.sub.basis:
        if not tgt.sub.contains_vector(f(v)):
            raise IllDefinedInducedMap("f(sub) not contained in target sub")
    for v in src.quot_by.basis:
        if not tgt.quot_by.contains_vector(f(v)):
            raise IllDefinedInducedMap("f(quot_by) not contained in target quot_by")
    cols = [tgt.coords(f(src.lift([ONE if i == j else ZERO for i in range(src.dim)])))
            for j in range(src.dim)]
    if not cols:
        return LinearMap.zero(0, tgt.dim)
    return LinearMap(Matrix(cols, cols=tgt.dim).transpose())


def induced_map_on(f: LinearMap, src_sub: Subspace, src_quot_by: Subspace,
                   tgt_sub: Subspace, tgt_quot_by: Subspace) -> LinearMap:
    return induced_map(f, Subquotient(src_sub, src_quot_by),
                       Subquotient(tgt_sub, tgt_quot_by))
