"""Exact linear algebra over Q(i): integer rows, matrices, canonical
subspaces, subquotients.

Every vector, matrix row and subspace basis row is a ``Row``: Python ints
over one positive denominator, in lowest terms, with the imaginary
numerators in a second tuple that is None for a rational row.  Every kernel
runs on those ints; a ``Scalar`` appears only at the edges, as the view of
one entry when a row is indexed or iterated.  ``hermitian_positive``,
Sylvester's test, eliminates beside ``rref`` and combines rows with the same
``_comb``.  Subspaces are stored in reduced row echelon form, so two equal
subspaces have equal rows, and equality of filtrations built from them is
decidable by comparison.

Because the form is canonical, a lattice call whose operands decide its
answer returns it without eliminating: ``intersect`` with the whole space,
with zero or of nested subspaces, ``maps_into`` into the whole space or from
zero, ``induced_map`` from the whole space to the whole space and ``image``
of the whole space.  A zero matrix decides them too, once its operands fit
its shape: its ``kernel`` is the whole space, its ``image`` zero, it maps
every subspace into every other, and ``induced_map`` of it is zero.
Otherwise ``intersect`` reduces the smaller basis by the larger and takes
the kernel of the residuals.

The arithmetic answers trivial operands the same way, after its shape
checks.  A product with a zero factor is ``Matrix.zero``, and one with the
cached ``Matrix.identity`` on the right is the left one.  ``combination``,
behind ``+`` and ``scale``, drops each term whose coefficient or matrix is
zero: with none left the sum is ``Matrix.zero``, and a lone term with
coefficient 1 is its matrix.  A zero matrix transposes to ``Matrix.zero``.
Whether a matrix is zero is decided once and kept, and ``Matrix.zero`` and
``Matrix.identity`` are built once per shape.

The evaluation memo lives here, under every other layer: inside an
``evaluation()`` block each function marked ``@_remembered``, a lattice
operation here or a builder above, is computed once per equal input.
"""

from __future__ import annotations

import contextvars
import re
from contextlib import contextmanager
from functools import cache, wraps
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import IllDefinedInducedMap, ShapeError
from .scalars import _INT_RE, _canon, as_scalar, parse_scalar

# a comma-joined row of integers, each as _INT_RE reads it
_INT_ROW_RE = re.compile(rf"(?:{_INT_RE.pattern})(?:,(?:{_INT_RE.pattern}))*")

# -- evaluation memo --------------------------------------------------------

_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "loghodge_evaluation_memo", default=None)


@contextmanager
def evaluation():
    """While the block is open, the functions marked ``@_remembered``
    remember each result by argument value (a model by identity).

    Each is pure and its arguments immutable, so a remembered result is what
    a recomputation would return.  A call that raises stores nothing.  A block
    opened inside another joins it, and only the outermost exit drops the
    memo.  The memo lives in a context variable, so a thread sees only a
    block opened in that thread.
    """
    token = _MEMO.set({}) if _MEMO.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _MEMO.reset(token)


def _remembered(fn):
    """fn with every call, positional only, looked up by (fn, *args) in the
    open evaluation's memo.  A miss runs the wrapper's ``__wrapped__`` as it
    is at call time, so a patch of that attribute sees every build."""
    @wraps(fn)
    def remembered(*args):
        memo, build = _MEMO.get(), remembered.__wrapped__
        if memo is None:
            return build(*args)
        key = (build, *args)
        out = memo.get(key, memo)   # a value never stored, so None can be a result
        if out is memo:
            out = memo[key] = build(*args)
        return out
    return remembered


class Row:
    """The vector (num + im*i)/den, num and im tuples of ints, immutable.

    Canonical: den > 0, gcd(*num, *im, den) = 1, and im is None when every
    imaginary part is zero.  So rows compare and hash by their ints, and a
    row never equals a plain tuple.  An index gives a Scalar, a slice a Row.
    """

    __slots__ = ("num", "im", "den")

    def __len__(self):
        return len(self.num)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return _row(self.num[j], self.im and self.im[j], self.den)
        return _canon(self.num[j], self.im[j] if self.im else 0, self.den)

    def __iter__(self):
        return map(_canon, self.num, self.im or repeat(0), repeat(self.den))

    def __eq__(self, other):
        return (type(other) is Row and self.num == other.num
                and self.den == other.den and self.im == other.im)

    def __hash__(self):
        return hash((self.num, self.im, self.den))

    def __repr__(self):
        return f"Row({[str(e) for e in self]})"

    def is_zero(self) -> bool:
        return self.im is None and not any(self.num)

    def __sub__(self, other: "Row") -> "Row":
        return _lincomb(_row((1, -1), None, 1), (self, other), len(self.num))

    def __neg__(self) -> "Row":
        return _row([-x for x in self.num], self.im and [-x for x in self.im],
                    self.den)

    def conj(self) -> "Row":
        return self if self.im is None else _row(
            self.num, [-x for x in self.im], self.den)


def _row(num, im, den: int) -> Row:
    """The Row (num + im*i)/den, den != 0, im None or a sequence of ints,
    brought to canonical form."""
    if im is not None and not any(im):
        im = None
    if den != 1:
        g = gcd(*num, *im, den) if im else gcd(*num, den)
        if den < 0:
            g = -g
        if g != 1:
            num = [x // g for x in num]
            im = im and [x // g for x in im]
            den //= g
    r = object.__new__(Row)
    r.num = tuple(num)
    r.im = im and tuple(im)
    r.den = den
    return r


def _comb(a, ai, x, xi, c, ci, y, yi):
    """(a + ai*i)*x - (c + ci*i)*y for int rows x + xi*i and y + yi*i of one
    length, xi and yi None when zero: the real and imaginary int lists, the
    second None when every input is real."""
    if not (ai or ci or xi or yi):
        return [a * u - c * v for u, v in zip(x, y)], None
    zero = (0,) * len(x)
    xi, yi = xi or zero, yi or zero
    return ([a * u - ai * ui - c * v + ci * vi
             for u, ui, v, vi in zip(x, xi, y, yi)],
            [a * ui + ai * u - c * vi - ci * v
             for u, ui, v, vi in zip(x, xi, y, yi)])


def _lincomb(c: Row, rows, n: int) -> Row:
    """sum_k c[k] * rows[k], rows of length n."""
    num, im, den = [0] * n, None, 1
    for x, y, row in zip(c.num, c.im or repeat(0), rows):
        if x or y:
            d = lcm(den, row.den)
            m = d // row.den
            num, im = _comb(d // den, 0, num, im, -x * m, -y * m, row.num, row.im)
            den = d
    return _row(num, im, den * c.den)


def as_vector(entries: Sequence) -> Row:
    """The Row of a sequence of Scalars, ints, Fractions or scalar strings;
    a Row is returned as it is, and ints are read without a Scalar."""
    if type(entries) is Row:
        return entries
    if all(type(e) is int for e in entries):
        return _row(list(entries), None, 1)
    xs = [as_scalar(e) for e in entries]
    den = lcm(*[x.d for x in xs])
    return _row([x.a * (den // x.d) for x in xs],
                [x.b * (den // x.d) for x in xs], den)


def parse_row(strings: Sequence) -> Row:
    """The Row of a list of scalar strings, read straight into ints when
    every entry is an integer; ParseError as parse_scalar gives otherwise."""
    try:
        joined = ",".join(strings)
    except TypeError:       # an entry that is not a string
        joined = ""
    # len - 1 commas: no entry holds one, so each matched an integer
    if joined.count(",") == len(strings) - 1 and _INT_ROW_RE.fullmatch(joined):
        return _row(list(map(int, joined.split(","))), None, 1)
    return as_vector([parse_scalar(s) for s in strings])


def zero_vector(n: int) -> Row:
    return _row((0,) * n, None, 1)


def _placed(n: int, parts) -> Row:
    """The Row of length n holding, for each (vector, positions) part, the
    vector's entry i at positions[i], and zero elsewhere."""
    parts = [(as_vector(v), pos) for v, pos in parts]
    den = lcm(*[v.den for v, _ in parts])
    num, im = [0] * n, [0] * n
    for v, pos in parts:
        m = den // v.den
        for i, x, y in zip(pos, v.num, v.im or repeat(0)):
            num[i], im[i] = x * m, y * m
    return _row(num, im, den)


def place(shape, pieces):
    """A zero vector of length shape, or a zero Matrix of shape (rows, cols),
    with each piece written at its coordinate positions.

    A vector piece is (entries, positions): entry i lands at positions[i].  A
    matrix piece is (block, row positions, column positions): block[r, c]
    lands at (rows[r], cols[c]).
    """
    if isinstance(shape, int):
        return _placed(shape, pieces)
    rows, cols = shape
    parts = [[] for _ in range(rows)]
    for block, row_pos, col_pos in pieces:
        for r, entries in zip(row_pos, block.entries):
            parts[r].append((entries, col_pos))
    return _matrix(tuple(_placed(cols, p) for p in parts), cols)


def _matrix(rows: tuple[Row, ...], cols: int) -> "Matrix":
    """A Matrix from a tuple of Rows, each of length cols, unchecked."""
    m = object.__new__(Matrix)
    m.entries = rows
    m.rows = len(rows)
    m.cols = cols
    m._hash = m._columns = m._zero = None
    return m


def combination(coeffs, mats, rows: int, cols: int) -> "Matrix":
    """sum_k coeffs[k] * mats[k], each a rows x cols Matrix: row i is one
    exact combination of the rows i, so no partial sum is built.  A term
    whose coefficient or matrix is zero is dropped first; with none left the
    sum is zero, and a single term with coefficient 1 is its matrix."""
    if any((m.rows, m.cols) != (rows, cols) for m in mats):
        raise ShapeError("matrix combination shape mismatch")
    c = as_vector(coeffs)
    keep = [k for k, (x, y, m) in enumerate(zip(c.num, c.im or repeat(0), mats))
            if (x or y) and not m.is_zero()]
    if not keep:
        return Matrix.zero(rows, cols)
    if len(keep) == 1 and c.num[keep[0]] == c.den and not (c.im and c.im[keep[0]]):
        return mats[keep[0]]
    if len(keep) < len(c.num):
        c = _row([c.num[k] for k in keep], c.im and [c.im[k] for k in keep], c.den)
        mats = [mats[k] for k in keep]
    return _matrix(tuple(_lincomb(c, [m.entries[i] for m in mats], cols)
                         for i in range(rows)), cols)


class Matrix:
    """Dense exact matrix, a tuple of Rows, and the linear map of shape
    rows x cols it defines (columns act): m(v) is m.apply(v) and m * n is
    m after n."""

    __slots__ = ("rows", "cols", "entries", "_hash", "_columns", "_zero")

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
        self._hash = self._columns = self._zero = None

    @staticmethod
    @cache
    def identity(n: int) -> "Matrix":
        """Built once per n: it is an immutable value."""
        return _matrix(tuple(_row([int(i == j) for j in range(n)], None, 1)
                             for i in range(n)), n)

    @staticmethod
    @cache
    def zero(rows: int, cols: int) -> "Matrix":
        """Built once per shape: it is an immutable value."""
        m = _matrix((zero_vector(cols),) * rows, cols)
        m._zero = True
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def _column_form(self):
        """(den, real columns, imaginary columns or None when every row is
        rational): the numerators of the columns over one denominator."""
        if self._columns is None:
            rows, n = self.entries, self.cols
            den = lcm(*{r.den for r in rows})
            nums = [r.num if r.den == den else [x * (den // r.den) for x in r.num]
                    for r in rows]
            ims = ([[x * (den // r.den) for x in r.im or (0,) * n] for r in rows]
                   if any([r.im for r in rows]) else None)
            self._columns = (den, tuple(zip(*nums)) if nums else ((),) * n,
                             ims and tuple(zip(*ims)))
        return self._columns

    def transpose(self) -> "Matrix":
        if self.is_zero():
            return Matrix.zero(self.cols, self.rows)
        den, cols, icols = self._column_form()
        return _matrix(tuple(map(_row, cols, icols or repeat(None), repeat(den))),
                       self.rows)

    def conj(self) -> "Matrix":
        return _matrix(tuple(r.conj() for r in self.entries), self.cols)

    def __add__(self, other):
        return combination((1, 1), (self, other), self.rows, self.cols)

    def scale(self, c) -> "Matrix":
        return combination((c,), (self,), self.rows, self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.is_zero() or other.is_zero():
            return Matrix.zero(self.rows, other.cols)
        if other is Matrix.identity(other.cols):
            return self
        # row i of the product is sum_k self[i, k] * (row k of other)
        return _matrix(tuple(_lincomb(r, other.entries, other.cols)
                             for r in self.entries), other.cols)

    def apply(self, v: Row) -> Row:
        """Matrix times column vector; v has length .cols."""
        return self.apply_all((v,))[0]

    def apply_all(self, vectors) -> list[Row]:
        """The images of the vectors, each of length .cols."""
        den, cols, icols = self._column_form()
        out = []
        for v in map(as_vector, vectors):
            if len(v.num) != self.cols:
                raise ShapeError("vector length does not match matrix columns")
            # the sum of v[j] times column j over the nonzero entries of v
            acc, acc_im = [0] * self.rows, None
            for j, (x, y) in enumerate(zip(v.num, v.im or repeat(0))):
                if x or y:
                    acc, acc_im = _comb(1, 0, acc, acc_im, -x, -y, cols[j],
                                        icols and icols[j])
            out.append(_row(acc, acc_im, den * v.den))
        return out

    def __call__(self, v: Row) -> Row:
        return self.apply(v)

    def to_strings(self):
        return [[str(e) for e in r] for r in self.entries]

    def is_zero(self) -> bool:
        if self._zero is None:
            self._zero = all(r.is_zero() for r in self.entries)
        return self._zero

    @_remembered
    def powers(self) -> list["Matrix"] | None:
        """self^0, ..., self^e with self^e the first zero power, or None when
        self is not nilpotent (no power up to the dimension vanishes).  The
        list may be a remembered one: read it, never change it."""
        if self.rows != self.cols:
            raise ShapeError("powers of a non-endomorphism")
        out = [Matrix.identity(self.cols)]
        while not out[-1].is_zero():
            if len(out) > self.cols:
                return None
            out.append(self * out[-1])
        return out

    @_remembered
    def image(self, sub: Subspace | None = None) -> Subspace:
        if sub is None or sub.ambient_dim == self.cols:
            if self.is_zero():
                return Subspace.zero(self.rows)
            if sub is None:     # spanned by the columns
                return Subspace(self.rows, self.transpose().entries)
            if sub.is_full():
                return self.image()
        return Subspace(self.rows, self.apply_all(sub.basis))

    @_remembered
    def maps_into(self, src: Subspace, tgt: Subspace) -> bool:
        """f(src) <= tgt."""
        if (src.ambient_dim, tgt.ambient_dim) == (self.cols, self.rows) \
                and (tgt.is_full() or src.is_zero() or self.is_zero()):
            return True
        return all(map(tgt.contains_vector, self.apply_all(src.basis)))

    @_remembered
    def kernel(self) -> Subspace:
        if self.is_zero():
            return Subspace.full(self.cols)
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

    def solve(self, v: Row):
        """One x with f(x) = v, or None."""
        v = as_vector(v)
        if v.is_zero():
            return zero_vector(self.cols)
        aug = Subspace(self.cols + 1, [     # the rows of [f | v]
            _placed(self.cols + 1, [(r, range(self.cols)), (v[i:i + 1], (self.cols,))])
            for i, r in enumerate(self.entries)])
        if self.cols in aug._pivots:
            return None
        return _placed(self.cols, [(row[-1:], (p,))
                                   for row, p in zip(aug.basis, aug._pivots)])

    def inverse(self) -> "Matrix":
        """Exact inverse; ShapeError on a non-square or singular matrix."""
        n = self.rows
        if n != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        one = _row((1,), None, 1)
        red = rref([_placed(2 * n, [(r, range(n)), (one, (n + i,))])
                    for i, r in enumerate(self.entries)], 2 * n)
        # [A | I] always has rank n; A is invertible iff every pivot lies in A
        if n and not red[-1].num[n - 1]:
            raise ShapeError("matrix is singular")
        return _matrix(tuple(row[n:] for row in red), n)


# The old name of Matrix.  The span TARGETS in perfbench/spans.py name the
# preimage and kernel methods through it, and the tracer test
# test_tracer_rebinds_names_imported_elsewhere resolves them; no module or
# test of the package uses it.
LinearMap = Matrix


def rref(rows: Iterable[Row], width: int) -> tuple[Row, ...]:
    """Reduced row echelon form: pivots 1, pivot columns cleared, rows by pivot.

    Fraction-free Gauss-Jordan on the numerators (a denominator only scales
    its row), with the first nonzero row as pivot: a row with entry c in the
    pivot column becomes p*row - c*(pivot row), p the pivot, and is then
    divided by the gcd of its ints.  When a row has an imaginary part the
    same loop runs on Gaussian integers.  Each row is divided by its pivot
    when it is emitted, which gives the unique canonical form.
    """
    work, imag = [], []
    for r in map(as_vector, rows):
        if len(r.num) != width:
            raise ShapeError("vector of wrong ambient dimension")
        if r.is_zero():
            continue
        work.append(r.num)
        imag.append(r.im)
    imag = [x or (0,) * width for x in imag] if any(imag) else None
    pivots, n = [], len(work)
    for col in range(width):
        rank = len(pivots)
        for k in range(rank, n):
            if work[k][col] or imag and imag[k][col]:
                break
        else:
            continue
        work[k], work[rank] = work[rank], work[k]
        prow = work[rank]
        p = prow[col]
        if imag is None:
            for k, r in enumerate(work):
                c = r[col]
                if c and k != rank:
                    r = [p * x - c * y for x, y in zip(r, prow)]
                    g = gcd(*r)
                    work[k] = [x // g for x in r] if g > 1 else r
        else:
            imag[k], imag[rank] = imag[rank], imag[k]
            pim = imag[rank]
            for k, (r, ri) in enumerate(zip(work, imag)):
                c, ci = r[col], ri[col]
                if (c or ci) and k != rank:
                    re, im = _comb(p, pim[col], r, ri, c, ci, prow, pim)
                    g = gcd(*re, *im)
                    work[k] = [x // g for x in re] if g > 1 else re
                    imag[k] = [x // g for x in im] if g > 1 else im
        pivots.append(col)
        if rank + 1 == n:
            break
    if not imag:
        return tuple(_row(r, None, r[p]) for r, p in zip(work, pivots))
    # divide by the pivot a + b*i: times a - b*i over a^2 + b^2
    return tuple(_row(*_comb(r[p], -ri[p], r, ri, 0, 0, r, None),
                      r[p] ** 2 + ri[p] ** 2)
                 for r, ri, p in zip(work, imag, pivots))


def hermitian_positive(h: Matrix) -> bool:
    """Whether h is Hermitian with every leading principal minor D_k > 0
    (Sylvester).  Elimination as in rref, without row exchange, on the ints
    of den*h, row k the conjugate of column k: while the earlier pivots are
    > 0, each row is a positive multiple of its rational elimination, so
    pivot k is a positive multiple of D_k / D_{k-1}, real as h is Hermitian
    (Bareiss 1968), and decides D_k > 0."""
    if h.conj().transpose() != h:
        return False
    _, cols, icols = h._column_form()
    work = [(list(x), y and [-v for v in y])
            for x, y in zip(cols, icols or repeat(None))]
    for k, (prow, pim) in enumerate(work):
        if prow[k] <= 0 or pim and pim[k]:
            return False
        for i, (r, ri) in enumerate(work[k + 1:], k + 1):
            if r[k] or ri and ri[k]:
                r, ri = _comb(prow[k], 0, r, ri, r[k], ri[k] if ri else 0, prow, pim)
                g = gcd(*r, *(ri or ())) or 1
                work[i] = [x // g for x in r], ri and [x // g for x in ri]
    return True


def is_rref(rows: Sequence[Row], width: int) -> bool:
    """Whether rref(rows, width) is rows itself, in one pass: each row has
    length width, its first nonzero entry, real or imaginary, is a 1 at a
    pivot past the previous row's, and it is 0 at the later rows' pivots."""
    pivots = []
    for r in rows:
        p = next((j for j, x in enumerate(r.num) if x), width)
        if len(r.num) != width or p == width or r.num[p] != r.den \
                or r.im and any(r.im[:p + 1]) or pivots and p <= pivots[-1]:
            return False
        pivots.append(p)
    return not any(r.num[q] or r.im and r.im[q]
                   for k, r in enumerate(rows) for q in pivots[k + 1:])


class Subspace:
    """A subspace of Q(i)^ambient_dim in canonical (RREF) form: each basis
    row is 1 at its pivot, where the other rows are 0."""

    __slots__ = ("ambient_dim", "basis", "_pivots", "_hash")

    def __init__(self, ambient_dim: int, basis: tuple[Row, ...], _canonical=False):
        if not _canonical:
            basis = rref(basis, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = basis
        # pivots strictly increase: each search starts one past the last
        pivots, p = [], 0
        for r in basis:
            while not r.num[p]:
                p += 1
            pivots.append(p)
            p += 1
        self._pivots = tuple(pivots)
        self._hash = None

    @staticmethod
    def span(vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, vectors)

    @staticmethod
    @cache
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
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def _residual(self, v: Row):
        """v - sum_k v[p_k] * basis[k], p_k the pivots, as raw (num, im, den)."""
        v = as_vector(v)
        if len(v.num) != self.ambient_dim:
            raise ShapeError("vector of wrong ambient dimension")
        num, im, den = v.num, v.im, v.den
        if len(self.basis) == len(num):
            return [0] * len(num), None, 1
        # a basis row is 0 at the other pivots: the coefficients of v do not
        # change as the rows are taken out
        for row, p in zip(self.basis, self._pivots):
            c, ci = num[p], im[p] if im else 0
            if c or ci:
                d = row.den
                num, im = _comb(d, 0, num, im, c, ci, row.num, row.im)
                den *= d
        return num, im, den

    def reduce(self, v: Row) -> Row:
        """Residual of v after eliminating this subspace's pivot columns.

        The residual is zero iff v lies in the subspace; v - reduce(v) is the
        projection along the pivot coordinates.  Linear in v.
        """
        return _row(*self._residual(v))

    def contains_vector(self, v: Row) -> bool:
        num, im, _ = self._residual(v)
        return not any(num) and not (im and any(im))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis)

    def from_coords(self, coords: Sequence) -> Row:
        """The vector with these coordinates in the canonical basis."""
        coords = as_vector(coords)
        if len(coords) != self.dim:
            raise ShapeError("coordinate length mismatch")
        return _lincomb(coords, self.basis, self.ambient_dim)

    # -- lattice ----------------------------------------------------------

    @_remembered
    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch in sum")
        if not self.basis or not other.basis:
            return other if not self.basis else self
        return Subspace(self.ambient_dim, self.basis + other.basis)

    @_remembered
    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch in intersect")
        if self.is_full():
            return other
        if other.is_full():
            return self
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient_dim)
        # reduce the smaller basis by the larger: reduce is linear and zero
        # exactly on a, so sum_k z_k b_k lies in a iff sum_k z_k r_k = 0
        a, b = (self, other) if self.dim >= other.dim else (other, self)
        residuals = tuple(map(a.reduce, b.basis))
        if all(r.is_zero() for r in residuals):
            return b
        m = _matrix(residuals, self.ambient_dim).transpose()
        return Subspace(self.ambient_dim,
                        [b.from_coords(z) for z in _kernel_basis(m)])

    @_remembered
    def annihilator(self) -> "Subspace":
        """Functionals (in dual coordinates) vanishing on this subspace."""
        if self.is_zero():
            return Subspace.full(self.ambient_dim)
        return _matrix(self.basis, self.ambient_dim).kernel()

    def conj(self) -> "Subspace":
        # an RREF basis conjugates to one: each pivot stays a real 1
        return Subspace(self.ambient_dim, tuple(r.conj() for r in self.basis),
                        _canonical=True)


def _kernel_basis(m: Matrix) -> list[Row]:
    """Basis of {v : m v = 0}, from the RREF free-variable construction:
    free column f gives e_f minus column f of the RREF at the pivots."""
    rows = Subspace(m.cols, m.entries)
    cols = _matrix(rows.basis, m.cols).transpose().entries
    one = _row((1,), None, 1)
    return [_placed(m.cols, [(-cols[f], rows._pivots), (one, (f,))])
            for f in range(m.cols) if f not in rows._pivots]


class Subquotient:
    """Presentation of sub/quot_by with a canonical complement basis.

    The lift basis is the RREF of (basis of sub reduced mod quot_by), so the
    presentation is deterministic and coordinates are canonical; it compares
    and hashes by (sub, quot_by).
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

    def __eq__(self, other):
        return type(other) is Subquotient and (
            (self.sub, self.quot_by) == (other.sub, other.quot_by))

    def __hash__(self):
        return hash((self.sub, self.quot_by))

    def coords(self, v: Row) -> Row:
        """Coordinates of the class of v; requires v in sub.

        v lies in sub exactly when its residual mod quot_by lies in lifts.
        """
        r = self.quot_by.reduce(v)
        if not self.lifts.contains_vector(r):
            raise ShapeError("vector not in the ambient sub of the subquotient")
        # the entries of r at the pivots of lifts
        return _row([r.num[p] for p in self.lifts._pivots],
                    r.im and [r.im[p] for p in self.lifts._pivots], r.den)

    def lift(self, coords: Sequence) -> Row:
        return self.lifts.from_coords(coords)

    @_remembered
    def project_subspace(self, s: Subspace) -> Subspace:
        """Image of (s intersect sub) in the quotient coordinates."""
        inter = s.intersect(self.sub)
        return Subspace(self.dim, [self.coords(v) for v in inter.basis])


@_remembered
def induced_map(f: Matrix, src: Subquotient, tgt: Subquotient) -> Matrix:
    """Map induced by f on subquotients; raises IllDefinedInducedMap.

    Functorial: induced(g o f) = induced(g) o induced(f) whenever both sides
    are defined.  Column j is the class of f(src.lifts.basis[j]).
    """
    if (src.ambient_dim, tgt.ambient_dim) == (f.cols, f.rows):
        if src.dim == f.cols and tgt.dim == f.rows:
            return f    # the whole space modulo zero on both sides
        if f.is_zero():
            return Matrix.zero(tgt.dim, src.dim)
    # src.sub is spanned by the lifts together with src.quot_by
    lifted = f.apply_all(src.lifts.basis)
    pushed = f.apply_all(src.quot_by.basis)
    if not all(tgt.sub.contains_vector(w) for w in lifted + pushed):
        raise IllDefinedInducedMap("f(sub) not contained in target sub")
    if not all(tgt.quot_by.contains_vector(w) for w in pushed):
        raise IllDefinedInducedMap("f(quot_by) not contained in target quot_by")
    cols = [tgt.coords(w) for w in lifted]
    return _matrix(tuple(cols), tgt.dim).transpose()
