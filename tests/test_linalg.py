import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loghodge import linalg
from loghodge.errors import IllDefinedInducedMap, ParseError, ShapeError
from loghodge.generate import random_unimodular
from loghodge.linalg import (
    Matrix,
    Row,
    Subquotient,
    Subspace,
    as_vector,
    induced_map,
    place,
    rref,
)
from loghodge.scalars import Scalar, parse_scalar

small_frac = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def subspace_strategy(dim):
    return st.lists(
        st.lists(small_frac, min_size=dim, max_size=dim), min_size=0, max_size=dim + 1
    ).map(lambda rows: Subspace.span(rows, dim))


def test_canonicalize_examples():
    assert Subspace.span([[2, 0], [0, 3]], 2) == Subspace.full(2)
    s = Subspace.span([[1, 1], [2, 2]], 2)
    assert s.dim == 1 and tuple(map(tuple, s.basis)) == ((Scalar(1), Scalar(1)),)
    assert Subspace.span([], 2) == Subspace.zero(2)


def test_canonicalize_rejects_ragged():
    with pytest.raises(ShapeError):
        Subspace.span([[1, 0], [1]], 2)


def test_lattice_examples():
    e1 = Subspace.span([[1, 0]], 2)
    e2 = Subspace.span([[0, 1]], 2)
    assert e1.sum(e2) == Subspace.full(2)
    assert Subspace.span([[1, 1]], 2).intersect(e1) == Subspace.zero(2)
    n = Matrix([[0, 1], [0, 0]])  # N e2 = e1
    assert n.preimage(Subspace.zero(2)) == n.kernel() == e1


@settings(max_examples=60)
@given(subspace_strategy(4), st.lists(st.lists(small_frac, min_size=4, max_size=4),
                                      min_size=4, max_size=4))
def test_canonical_form_uniqueness(s, change):
    # applying any invertible change of generators leaves the canonical form fixed
    g = Matrix(change)
    rows = g.entries[: s.dim]
    if Subspace.span(rows, 4).dim < min(s.dim, len(rows)):
        return
    mixed = [
        tuple(sum((r[i] * v[j] for i, v in enumerate(s.basis)), Scalar(0))
              for j in range(4))
        for r in rows
    ]
    regenerated = Subspace.span(list(mixed) + list(s.basis), 4)
    assert regenerated == s


@settings(max_examples=60)
@given(subspace_strategy(4), subspace_strategy(4))
def test_modular_law(a, b):
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


@settings(max_examples=60)
@given(
    st.lists(st.lists(small_frac, min_size=3, max_size=3), min_size=3, max_size=3),
    subspace_strategy(3),
)
def test_preimage_adjunction(rows, b):
    f = Matrix(rows)
    pre = f.preimage(b)
    assert pre.contains(f.kernel())
    for v in pre.basis:
        assert b.contains_vector(f(v))


def test_induced_map_examples():
    n = Matrix([[0, 1], [0, 0]])
    e1 = Subspace.span([[1, 0]], 2)
    full, zero = Subspace.full(2), Subspace.zero(2)
    # identity with sub == quot-by gives the zero-dimensional map
    m = induced_map(Matrix.identity(2), Subquotient(e1, e1), Subquotient(e1, e1))
    assert m.cols == 0 and m.rows == 0
    # Jordan-2 induces an isomorphism Gr_1 -> Gr_{-1}
    m = induced_map(n, Subquotient(full, e1), Subquotient(e1, zero))
    assert m.cols == 1 and m.rows == 1
    assert m.kernel().dim == 0
    # contract violation
    with pytest.raises(IllDefinedInducedMap):
        induced_map(n, Subquotient(full, zero), Subquotient(zero, zero))


def test_zero_quotient_transport_runs_no_rref(monkeypatch):
    sub = Subspace.span([[1, 0, 0], [0, 1, 1]], 3)
    f = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    calls = []
    real_rref = linalg.rref

    def counting_rref(rows, width):
        calls.append(width)
        return real_rref(rows, width)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    part = Subquotient.of(sub)
    assert part.lifts is sub
    assert induced_map(f, part, part) == Matrix([[0, 1], [0, 0]])
    assert calls == []


def test_lattice_with_a_zero_operand_runs_no_rref(monkeypatch):
    line = Subspace.span([[1, 1, 0]], 3)
    zero = Subspace.zero(3)
    calls = []
    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows, width:
                        calls.append(width) or real_rref(rows, width))
    assert line.sum(zero) is line and zero.sum(line) is line
    assert line.intersect(zero) == zero.intersect(line) == zero
    assert zero.sum(zero) == zero.intersect(zero) == zero
    assert calls == []


def test_a_nested_intersection_runs_no_rref_and_returns_the_smaller(monkeypatch):
    line = Subspace.span([[1, 1, 0]], 3)
    plane = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    calls = []
    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows, width:
                        calls.append(width) or real_rref(rows, width))
    assert line.intersect(plane) is line and plane.intersect(line) is line
    assert calls == []


def test_whole_space_lattice_calls_apply_no_vector(monkeypatch):
    """maps_into into the whole space or from zero, induced_map from the
    whole space to the whole space and the image of the whole space answer
    without applying f, and give what applying it gives."""
    f = Matrix([[1, 2, 0], [0, 0, 1], [3, 0, 0]])
    full, zero = Subspace.full(3), Subspace.zero(3)
    line = Subspace.span([[1, 1, 0]], 3)
    whole = Subquotient.of(full)
    applied = Subspace(3, f.apply_all(full.basis))
    monkeypatch.setattr(Matrix, "apply_all", None)
    assert f.maps_into(line, full) and f.maps_into(zero, line)
    assert induced_map(f, whole, whole) is f
    assert f.image(full) == applied == f.image()


# calls whose operands do not fit a 2x3 f, and the ShapeError each raises
_MISFITS = [
    (lambda f: f.maps_into(Subspace.full(2), Subspace.full(2)),
     "vector length does not match matrix columns"),
    (lambda f: f.maps_into(Subspace.full(3), Subspace.full(3)),
     "vector of wrong ambient dimension"),
    (lambda f: f.image(Subspace.full(2)),
     "vector length does not match matrix columns"),
    (lambda f: induced_map(f, Subquotient.of(Subspace.full(2)),
                           Subquotient.of(Subspace.full(2))),
     "vector length does not match matrix columns"),
    (lambda f: induced_map(f, Subquotient.of(Subspace.full(3)),
                           Subquotient.of(Subspace.full(3))),
     "vector of wrong ambient dimension"),
    (lambda f: Subspace.full(2).intersect(Subspace.full(3)),
     "ambient dimension mismatch in intersect"),
]


@pytest.mark.parametrize("call, message", _MISFITS)
def test_a_shape_mismatch_takes_no_whole_space_exit(call, message):
    """On a 2x3 f a call whose operands do not fit f raises the ShapeError
    the general path raises."""
    with pytest.raises(ShapeError) as caught:
        call(Matrix([[1, 0, 0], [0, 1, 0]]))
    assert type(caught.value) is ShapeError and str(caught.value) == message


_ZERO_SHAPES = [(0, n) for n in range(5)] + [(m, 0) for m in range(1, 5)] + \
    [(m, n) for m in range(1, 5) for n in range(1, 5)]


@pytest.mark.parametrize("rows, cols", _ZERO_SHAPES)
def test_a_zero_matrix_answers_from_its_shape(rows, cols, monkeypatch):
    """kernel, image, maps_into and induced_map of a zero matrix give what
    the general route gives, with no elimination, transpose or apply."""
    f = Matrix.zero(rows, cols)
    rng = random.Random(10 * rows + cols)
    src = Subspace.span([[rng.randint(-2, 2) for _ in range(cols)]
                         for _ in range(rng.randint(1, cols + 1))], cols)
    tgt = Subspace.span([[rng.randint(-2, 2) for _ in range(rows)]
                         for _ in range(rng.randint(0, rows))], rows)
    sq_src, sq_tgt = Subquotient.of(src), Subquotient(Subspace.full(rows), tgt)
    kernel = Subspace(cols, linalg._kernel_basis(f))
    image = Subspace(rows, f.transpose().entries)
    maps = all(map(tgt.contains_vector, f.apply_all(src.basis)))
    induced = linalg._matrix(tuple(sq_tgt.coords(w) for w in
                                   f.apply_all(sq_src.lifts.basis)),
                             sq_tgt.dim).transpose()
    for name in ("apply_all", "transpose"):
        monkeypatch.setattr(Matrix, name, None)
    monkeypatch.setattr(linalg, "_kernel_basis", None)
    monkeypatch.setattr(linalg, "rref", None)
    assert f.kernel() == kernel == Subspace.full(cols)
    assert f.image() == f.image(src) == image == Subspace.zero(rows)
    assert f.maps_into(src, tgt) is maps is True
    assert induced_map(f, sq_src, sq_tgt) == induced


@pytest.mark.parametrize("call, message", _MISFITS)
def test_a_zero_matrix_that_does_not_fit_raises_as_before(call, message):
    """On the zero 2x3 f the misfit calls raise what they raise on any f."""
    with pytest.raises(ShapeError) as caught:
        call(Matrix.zero(2, 3))
    assert type(caught.value) is ShapeError and str(caught.value) == message


def _parse_outcome(parse, strings):
    """parse(strings), or the class and text of the error it raises."""
    try:
        return parse(strings)
    except ParseError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.lists(st.integers(-10**30, 10**30).map(str), max_size=8) | st.lists(
    st.one_of(st.integers(-99, 99).map(str),
              st.text(alphabet="0123456789-+,/*i ", max_size=4),
              st.sampled_from(["-0", "04", "+1", " 1", "1\n", "١", 1, None, True])),
    max_size=6))
def test_parse_row_reads_as_the_per_entry_path(strings):
    """The one-match path for integer rows gives the Row, or the ParseError,
    that parsing each entry gives."""
    def per_entry(entries):
        return as_vector([parse_scalar(s) for s in entries])
    assert _parse_outcome(linalg.parse_row, strings) == \
        _parse_outcome(per_entry, strings)


@pytest.mark.parametrize("strings, message", [
    (["1,2"], "malformed scalar '1,2'"),
    (["1", "1,2"], "malformed scalar '1,2'"),
    ([""], "malformed scalar ''"),
    (["1", ""], "malformed scalar ''"),
    ([1], "scalar must be a string, got int"),
    (["1", None], "scalar must be a string, got NoneType"),
    ([True], "scalar must be a string, got bool"),
])
def test_parse_row_rejects_what_an_entry_cannot_read(strings, message):
    with pytest.raises(ParseError) as caught:
        linalg.parse_row(strings)
    assert str(caught.value) == message


def test_the_full_space_is_built_once_per_dimension():
    full = Subspace.full(3)
    assert Subspace.full(3) is full and full.is_full()
    assert full.basis == Matrix.identity(3).entries and full._pivots == (0, 1, 2)
    assert Subspace.full(0).dim == 0 and Subspace.full(2) != full


def test_span_coerces_only_at_the_public_entry(monkeypatch):
    """image, kernel, intersect, annihilator and project_subspace pass
    Scalar tuples on without coercing them; span still coerces and checks."""
    n = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    a = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    b = Subspace.span([[0, 1, 1], [1, 0, 0]], 3)
    e1, e3 = Subspace.span([[1, 0, 0]], 3), Subspace.span([[0, 0, 1]], 3)
    quotient = Subquotient(Subspace.full(3), e3)
    monkeypatch.setattr(Subspace, "span", None)
    assert n.image() == a and n.kernel() == e1 == n.image(a)
    assert a.intersect(b) == e1 and a.annihilator() == e3
    assert quotient.project_subspace(b) == Subspace.full(2)
    monkeypatch.undo()
    assert tuple(map(tuple, Subspace.span([[1, "1/2"]], 2).basis)) == (
        (Scalar(1), Scalar(Fraction(1, 2))),)
    with pytest.raises(ShapeError, match="wrong ambient dimension"):
        Subspace.span([[1, 0], [0]], 2)


def test_induced_map_functorial():
    n = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    full = Subspace.full(3)
    k1 = n.kernel()
    k2 = (n * n).kernel()
    src = Subquotient(full, k2)
    mid = Subquotient(k2, k1)
    tgt = Subquotient(k1, Subspace.zero(3))
    f = induced_map(n, src, mid)
    g = induced_map(n, mid, tgt)
    gf = induced_map(n * n, src, tgt)
    assert g * f == gf


def test_subquotient_coords_roundtrip():
    w = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    q = Subspace.span([[1, 0, 0]], 3)
    sq = Subquotient(w, q)
    assert sq.dim == 1
    v = (Scalar(5), Scalar(2), Scalar(0))
    c = sq.coords(v)
    assert sq.coords(sq.lift(c)) == c
    with pytest.raises(ShapeError, match="not in the ambient sub"):
        sq.coords((Scalar(5), Scalar(2), Scalar(1)))


@settings(max_examples=80)
@given(data=st.data())
def test_subquotient_coords_tests_membership_and_finds_the_class(data):
    sub = data.draw(subspace_strategy(3))
    gens = data.draw(st.lists(st.lists(small_frac, min_size=sub.dim,
                                       max_size=sub.dim), max_size=sub.dim))
    quot = Subspace.span([sub.from_coords(c) for c in gens], 3)
    sq = Subquotient(sub, quot)
    entries = data.draw(st.lists(small_frac, min_size=3, max_size=3))
    v = (sub.from_coords(entries[:sub.dim]) if data.draw(st.booleans())
         else tuple(Scalar(x) for x in entries))
    if sub.contains_vector(v):
        # the lift of the class differs from v by an element of quot_by
        diff = tuple(a - b for a, b in zip(sq.lift(sq.coords(v)), v))
        assert quot.contains_vector(diff)
    else:
        with pytest.raises(ShapeError, match="not in the ambient sub"):
            sq.coords(v)


def test_annihilator():
    e1 = Subspace.span([[1, 0]], 2)
    ann = e1.annihilator()
    assert ann == Subspace.span([[0, 1]], 2)
    assert Subspace.zero(3).annihilator() == Subspace.full(3)


def test_inverse_is_exact_and_rejects_singular_input():
    m = Matrix([[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    assert Matrix([], cols=0).inverse() == Matrix([], cols=0)
    with pytest.raises(ShapeError, match="singular"):
        Matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ShapeError, match="non-square"):
        Matrix([[1, 2]]).inverse()


# -- the zero-skipping kernels against dense textbook formulas ----------------

nonzero_frac = small_frac.filter(bool)


def sparse_entries(gaussian):
    """Mostly zeros, then rationals; with gaussian, now and then an a+bi, b != 0."""
    def entry(k):
        if k < 5:
            return st.just(Scalar(0))
        if gaussian and k == 9:
            return st.builds(Scalar, small_frac, nonzero_frac)
        return st.builds(Scalar, small_frac)
    return st.integers(0, 9).flatmap(entry)


@st.composite
def sparse_rows(draw, rows=None, cols=None):
    """A list of rows (possibly none, possibly of width 0), all-rational or not."""
    gaussian = draw(st.booleans())
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    row = st.lists(sparse_entries(gaussian), min_size=cols, max_size=cols)
    return [tuple(r) for r in draw(st.lists(row, min_size=rows, max_size=rows))]


def dense_rref(rows, width):
    work = [list(r) for r in rows if any(r)]
    top = 0
    for col in range(width):
        pivot = next((i for i in range(top, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        inv = Scalar(1) / work[top][col]
        work[top] = [inv * e for e in work[top]]
        for i in range(len(work)):
            if i != top:
                c = work[i][col]
                work[i] = [e - c * p for e, p in zip(work[i], work[top])]
        top += 1
    return tuple(tuple(r) for r in work[:top])


def dense_product(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Scalar(0))
             for j in range(cols)] for i in range(len(a))]


def all_scalars(rows):
    return all(type(e) is Scalar for r in rows for e in r)


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(lambda w: st.tuples(st.just(w),
                                                     sparse_rows(cols=w))))
def test_rref_matches_dense_reference(case):
    width, rows = case
    out = rref(rows, width)
    assert tuple(map(tuple, out)) == dense_rref(rows, width)
    assert all_scalars(out)


@settings(max_examples=200)
@given(st.integers(0, 5).flatmap(lambda w: st.tuples(st.just(w),
                                                     sparse_rows(cols=w))))
def test_is_rref_holds_exactly_for_rows_rref_leaves_as_they_are(case):
    """On raw rows, their RREF, and the RREF with its rows reversed, its
    first row scaled by i, given an i before its pivot or plus the second
    row: is_rref is whether rref returns the rows unchanged."""
    width, rows = case
    canonical = rref(rows, width)
    candidates = [tuple(map(as_vector, rows)), canonical, canonical[::-1]]
    if canonical:
        first, rest = list(canonical[0]), canonical[1:]
        i_first = [Scalar(0, 1) * e for e in first]
        i_before = [Scalar(0, 1) if j == 0 else e for j, e in enumerate(first)]
        candidates += [(as_vector(i_first), *rest), (as_vector(i_before), *rest)]
        if rest:
            plus = [x + y for x, y in zip(first, rest[0])]
            candidates.append((as_vector(plus), *rest))
    for cand in candidates:
        assert linalg.is_rref(cand, width) == (rref(cand, width) == cand)
    assert linalg.is_rref(canonical, width)


def test_conj_keeps_the_canonical_basis_without_eliminating():
    """On seeded Gaussian subspaces up to dimension 6, conj() equals the
    subspace eliminated from the conjugated rows, and its rows are RREF."""
    rng = random.Random(33)

    def entry():
        if rng.random() < 0.4:
            return Scalar(0)
        return Scalar(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(2)))

    for _ in range(600):
        n = rng.randint(0, 6)
        sub = Subspace(n, [[entry() for _ in range(n)]
                           for _ in range(rng.randint(0, n + 1))])
        conj = sub.conj()
        assert conj == Subspace(n, [r.conj() for r in sub.basis])
        assert linalg.is_rref(conj.basis, n)


def f_mul(x, y):
    """The product of two (re, im) pairs of Fractions."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def fraction_rref(rows, width):
    """Gauss-Jordan on (re, im) pairs of Fractions, sharing no code with
    Scalar: the dense reference for the fraction-free package rref."""
    def inverse(x):
        norm = x[0] * x[0] + x[1] * x[1]
        return (x[0] / norm, -x[1] / norm)

    work = [list(r) for r in rows if any(any(e) for e in r)]
    top = 0
    for col in range(width):
        pivot = next((i for i in range(top, len(work)) if any(work[i][col])), None)
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        inv = inverse(work[top][col])
        work[top] = [f_mul(inv, e) for e in work[top]]
        for i in range(len(work)):
            c = work[i][col]
            if i != top and any(c):
                work[i] = [(e[0] - q[0], e[1] - q[1])
                           for e, q in zip(work[i], (f_mul(c, p) for p in work[top]))]
        top += 1
    return [list(r) for r in work[:top]]


@st.composite
def fraction_rows(draw):
    """Rows of (re, im) Fraction pairs, |numerator| <= 50, denominator <= 20,
    often zero; all-real or Gaussian; plus sums of drawn rows, so that rank
    drops and rows need their content removed."""
    width = draw(st.integers(0, 6))
    zero = st.just(Fraction(0))
    part = st.one_of(zero, st.builds(Fraction, st.integers(-50, 50),
                                     st.integers(1, 20)))
    entry = st.tuples(part, part if draw(st.booleans()) else zero)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=5))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              max_size=2)):
        if i < len(rows) and j < len(rows):
            rows.append([(x[0] + y[0], x[1] + y[1]) for x, y in zip(rows[i], rows[j])])
    return width, rows


@settings(max_examples=300)
@given(fraction_rows())
def test_rref_matches_the_fraction_reference(case):
    width, rows = case
    out = rref([tuple(Scalar(*e) for e in r) for r in rows], width)
    assert [[(e.re, e.im) for e in r] for r in out] == fraction_rref(rows, width)
    assert all(e.d > 0 and gcd(e.a, e.b, e.d) == 1 for r in out for e in r)


@settings(max_examples=200)
@given(fraction_rows(), st.data())
def test_solve_and_kernel_match_the_fraction_reference(case, data):
    width, rows = case
    a = Matrix([[Scalar(*e) for e in r] for r in rows], cols=width)
    part = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    vectors = st.lists(st.tuples(part, part), min_size=len(rows), max_size=len(rows))
    rank = len(fraction_rref(rows, width))
    # solve(A x) finds some y with A y = A x
    x = data.draw(st.lists(part, min_size=width, max_size=width))
    ax = a(tuple(Scalar(e) for e in x))
    y = a.solve(ax)
    assert y is not None and a(y) == ax
    # solve(v) is None exactly when v raises the rank
    v = data.draw(vectors)
    sol = a.solve(tuple(Scalar(*e) for e in v))
    raises = len(fraction_rref([r + [e] for r, e in zip(rows, v)], width + 1)) > rank
    assert (sol is None) == raises
    if sol is not None:
        assert [(e.re, e.im) for e in a(sol)] == v
    # the kernel has dimension cols - rank and A kills its basis
    k = a.kernel()
    assert k.dim == width - rank
    assert all(not any(a(u)) for u in k.basis)


# -- the integer rows against the Fraction reference --------------------------
#
# Vectors and matrices below are lists of (re, im) Fraction pairs; the
# reference arithmetic shares no code with Row or Scalar.

def f_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def f_dot(u, v):
    out = (Fraction(0), Fraction(0))
    for x, y in zip(u, v):
        p = f_mul(x, y)
        out = (out[0] + p[0], out[1] + p[1])
    return out


def f_transpose(rows, width):
    return [[r[j] for r in rows] for j in range(width)]


def f_pivot(row):
    return next(j for j, e in enumerate(row) if any(e))


def f_reduce(basis, v):
    """v minus its projection along the pivots of a canonical basis."""
    out = list(v)
    for row in basis:
        c = out[f_pivot(row)]
        out = [f_sub(e, f_mul(c, b)) for e, b in zip(out, row)]
    return out


def f_kernel(rows, width):
    """Canonical basis of {v : rows . v = 0}."""
    red = fraction_rref(rows, width)
    pivots = [f_pivot(r) for r in red]
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    gens = []
    for f in range(width):
        if f not in pivots:
            v = [one if j == f else zero for j in range(width)]
            for r, p in zip(red, pivots):
                v[p] = f_sub(zero, r[f])
            gens.append(v)
    return fraction_rref(gens, width)


def pkg(v):
    return as_vector([Scalar(*e) for e in v])


def ref(row):
    return [(e.re, e.im) for e in row]


def assert_canonical(row):
    """A Row in lowest terms over a positive denominator, im None iff real."""
    assert type(row) is Row and row.den > 0
    assert gcd(*row.num, *(row.im or ()), row.den) == 1
    assert row.im is None or any(row.im)
    return row


@st.composite
def fraction_matrix(draw, rows, cols, gaussian=None):
    """rows x cols (re, im) Fraction pairs, numerators <= 9 and denominators
    <= 6 in size, often zero; Gaussian or all-real, as drawn."""
    gaussian = draw(st.booleans()) if gaussian is None else gaussian
    zero = st.just(Fraction(0))
    part = st.one_of(zero, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    entry = st.tuples(part, part if gaussian else zero)
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


dims = st.integers(0, 5)


@settings(max_examples=150)
@given(dims.flatmap(lambda n: st.tuples(
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)),
    fraction_matrix(1, n), st.data())))
def test_reduce_and_coordinates_match_the_fraction_reference(case):
    gens, (v,), data = case
    n = len(v)
    sub = Subspace.span([pkg(g) for g in gens], n)
    basis = fraction_rref(gens, n)
    assert [ref(assert_canonical(r)) for r in sub.basis] == basis
    assert ref(assert_canonical(sub.reduce(pkg(v)))) == f_reduce(basis, v)
    assert sub.contains_vector(pkg(v)) == (not any(map(any, f_reduce(basis, v))))
    (c,) = data.draw(fraction_matrix(1, sub.dim))
    w = assert_canonical(sub.from_coords(pkg(c)))
    assert ref(w) == [f_dot(c, col) for col in f_transpose(basis, n)]
    assert assert_canonical(Subquotient.of(sub).coords(w)) == pkg(c)


@settings(max_examples=150)
@given(st.tuples(dims, dims, dims).flatmap(lambda s: st.tuples(
    fraction_matrix(s[0], s[1]), fraction_matrix(s[1], s[2]),
    fraction_matrix(1, s[1]), st.just(s))))
def test_apply_and_product_match_the_fraction_reference(case):
    a, b, (v,), (rows, inner, cols) = case
    ma, mb = Matrix([pkg(r) for r in a], cols=inner), Matrix([pkg(r) for r in b], cols=cols)
    product = ma * mb
    assert [ref(assert_canonical(r)) for r in product.entries] == \
        [[f_dot(r, col) for col in f_transpose(b, cols)] for r in a]
    image = assert_canonical(ma.apply(pkg(v)))
    assert ref(image) == [f_dot(r, v) for r in a]
    assert [ref(assert_canonical(r)) for r in ma.transpose().entries] == \
        f_transpose(a, inner)


@settings(max_examples=150)
@given(dims.flatmap(lambda n: st.tuples(
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)),
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)), st.just(n))))
def test_sum_and_intersection_match_the_fraction_reference(case):
    a, b, n = case
    sa, sb = (Subspace.span([pkg(r) for r in m], n) for m in (a, b))
    assert [ref(r) for r in sa.sum(sb).basis] == fraction_rref(a + b, n)
    # x = sum_i z_i A_i with z (A; B) = 0: z in the kernel of (A; B)^T
    ba, bb = fraction_rref(a, n), fraction_rref(b, n)
    kernel = f_kernel(f_transpose(ba + bb, n), len(ba) + len(bb))
    meet = fraction_rref([[f_dot(z[:len(ba)], col) for col in f_transpose(ba, n)]
                          for z in kernel], n)
    got = sa.intersect(sb)
    assert [ref(assert_canonical(r)) for r in got.basis] == meet


@settings(max_examples=150)
@given(st.tuples(dims, dims).flatmap(lambda s: st.tuples(
    fraction_matrix(s[0], s[1]),
    st.integers(0, s[0] + 1).flatmap(lambda k: fraction_matrix(k, s[0])),
    fraction_matrix(1, s[1]), st.just(s))))
def test_kernel_preimage_and_solve_match_the_fraction_reference(case):
    a, t, (x,), (rows, cols) = case
    f = Matrix([pkg(r) for r in a], cols=cols)
    assert [ref(assert_canonical(r)) for r in f.kernel().basis] == f_kernel(a, cols)
    # the preimage of T is the kernel of v -> f(v) mod T
    target = Subspace.span([pkg(r) for r in t], rows)
    tb = fraction_rref(t, rows)
    mod_t = f_transpose([f_reduce(tb, col) for col in f_transpose(a, cols)], rows)
    assert [ref(r) for r in f.preimage(target).basis] == f_kernel(mod_t, cols)
    # solve finds a preimage of f(x)
    fx = [f_dot(r, x) for r in a]
    y = assert_canonical(f.solve(pkg(fx)))
    assert [f_dot(r, ref(y)) for r in a] == fx


@settings(max_examples=100)
@given(dims.flatmap(lambda n: st.tuples(
    fraction_matrix(n, n),
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)),
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)),
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)), st.just(n))))
def test_induced_map_matches_the_fraction_reference(case):
    """f on S/Q into the whole space modulo T = f(Q) + E."""
    a, s_gens, q_coeffs, extra, n = case
    f = Matrix([pkg(r) for r in a], cols=n)
    sb = fraction_rref(s_gens, n)
    q = [[f_dot(c[:len(sb)], col) for col in f_transpose(sb, n)]
         for c in q_coeffs if len(c) >= len(sb)]
    t = [[f_dot(r, v) for r in a] for v in q] + extra
    src = Subquotient(Subspace.span([pkg(r) for r in s_gens], n),
                      Subspace.span([pkg(r) for r in q], n))
    tgt = Subquotient(Subspace.full(n), Subspace.span([pkg(r) for r in t], n))
    got = induced_map(f, src, tgt)
    # reference: column j is the class of f(lift j) in the target
    qb, tb = fraction_rref(q, n), fraction_rref(t, n)
    lifts = fraction_rref([f_reduce(qb, r) for r in sb], n)
    one = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    t_lifts = fraction_rref([f_reduce(tb, r) for r in one], n)
    pivots = [f_pivot(r) for r in t_lifts]
    cols = [[f_reduce(tb, [f_dot(r, lift) for r in a])[p] for p in pivots]
            for lift in lifts]
    assert (got.rows, got.cols) == (len(t_lifts), len(lifts))
    assert [ref(assert_canonical(r)) for r in got.entries] == \
        f_transpose(cols, len(t_lifts))


@settings(max_examples=150)
@given(dims.flatmap(lambda n: st.tuples(
    st.integers(0, n + 1).flatmap(lambda k: fraction_matrix(k, n)),
    fraction_matrix(n + 2, n + 1), st.data(), st.just(n))))
def test_equal_subspaces_have_equal_rows_and_hashes(case):
    """Spanning sets of one subspace (recombined, with dependent rows added,
    shuffled, scaled by 2/3 or i) give equal rows that hash alike."""
    gens, mix, data, n = case
    basis = fraction_rref(gens, n)
    rows = gens + [[f_dot(c[:len(basis)], col) for col in f_transpose(basis, n)]
                   for c in mix]
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(st.sampled_from([(Fraction(2, 3), 0), (0, 1)]),
                                min_size=len(rows), max_size=len(rows)))
    scaled = [[f_mul(scales[i], e) for e in rows[i]] for i in order]
    s1 = Subspace.span([pkg(r) for r in gens], n)
    s2 = Subspace.span([pkg(r) for r in scaled], n)
    assert s1 == s2 and hash(s1) == hash(s2) and s1.basis == s2.basis
    assert [hash(r) for r in s1.basis] == [hash(r) for r in s2.basis]
    assert all(assert_canonical(r) for r in s2.basis)


def test_a_row_equals_only_rows():
    """Rows compare and hash by their ints; a row never equals a tuple, the
    tuple of its entries included."""
    half = as_vector(["1/2", 1, "1/3*i"])
    assert half == as_vector([Fraction(1, 2), Scalar(1), Scalar(0, Fraction(1, 3))])
    assert hash(half) == hash(as_vector(("1/2", "1", "1/3*i")))
    assert (half.num, half.im, half.den) == ((3, 6, 0), (0, 0, 2), 6)
    assert tuple(half) == (Scalar(Fraction(1, 2)), Scalar(1), Scalar(0, Fraction(1, 3)))
    assert half != tuple(half) and tuple(half) != half
    assert as_vector([1, 2]) != (1, 2) and as_vector([]) != ()
    assert as_vector([2, 4]).den == 1
    assert as_vector([Fraction(2, 4), 0]) == as_vector(["1/2", 0])


@settings(max_examples=150)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(st.just(s), sparse_rows(s[0], s[1]), sparse_rows(s[1], s[2]))))
def test_matmul_and_apply_match_dense_reference(case):
    (rows, inner, cols), a, b = case
    product = Matrix(a, cols=inner) * Matrix(b, cols=cols)
    assert (product.rows, product.cols) == (rows, cols)
    assert [list(r) for r in product.entries] == dense_product(a, b, inner, cols)
    assert all_scalars(product.entries)
    for j in range(cols):
        column = tuple(r[j] for r in b)
        image = Matrix(a, cols=inner).apply(column)
        assert list(image) == [row[j] for row in dense_product(a, b, inner, cols)]
        assert all_scalars([image])


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(
    lambda w: st.tuples(st.just(w), sparse_rows(cols=w), sparse_rows(1, w))))
def test_reduce_matches_dense_reference(case):
    width, gens, (v,) = case
    sub = Subspace.span(gens, width)
    expected = list(v)
    for row in sub.basis:
        p = next(j for j, e in enumerate(row) if e)
        c = expected[p]
        expected = [e - c * b for e, b in zip(expected, row)]
    out = sub.reduce(v)
    assert list(out) == expected
    assert all_scalars([out])
    assert sub.contains_vector(v) == (not any(expected))


@settings(max_examples=150)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(sparse_rows(*s), sparse_rows(*s),
                        st.builds(Scalar, small_frac, small_frac))))
def test_scalar_row_producers_match_the_public_constructor(case):
    """Sum, scale, transpose and conj build their rows unchecked; each
    equals, and hashes as, the public constructor's matrix of the textbook
    entries."""
    a, b, c = case
    rows, cols = len(a), len(a[0]) if a else 0
    ma, mb = Matrix(a, cols=cols), Matrix(b, cols=cols)
    expected = [
        (ma + mb, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)], cols),
        (ma.scale(c), [[c * x for x in r] for r in a], cols),
        (ma.transpose(), [[r[j] for r in a] for j in range(cols)], rows),
        (ma.conj(), [[x.conj() for x in r] for r in a], cols),
    ]
    for got, entries, width in expected:
        want = Matrix(entries, cols=width)
        assert got == want and hash(got) == hash(want)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert type(got.entries) is tuple
        assert all(type(r) is Row for r in got.entries)
        assert all_scalars(got.entries)


def test_public_constructor_still_coerces_and_checks_shape():
    m = Matrix([[1, "1/2"], [Fraction(2, 3), "1*i"]])
    assert all_scalars(m.entries) and m.entries[1][1] == Scalar(0, 1)
    with pytest.raises(ShapeError, match="ragged matrix input"):
        Matrix([[1, 0], [1]])
    with pytest.raises(ShapeError, match="declared 3 columns, rows have 2"):
        Matrix([[1, 0]], cols=3)
    assert all_scalars(Matrix.identity(3).entries)
    assert all_scalars(Matrix.zero(2, 3).entries)


@st.composite
def position_groups(draw):
    """A size and a split of 0..size-1 into up to four lists of positions in
    random order."""
    size = draw(st.integers(0, 6))
    order = draw(st.permutations(range(size)))
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=3)))
    return size, [order[a:b] for a, b in zip([0] + cuts, cuts + [size])]


def _embedding(pos, size):
    """size x len(pos) matrix sending the i-th unit vector to the pos[i]-th."""
    return Matrix([[1 if p == r else 0 for p in pos] for r in range(size)],
                  cols=len(pos))


@settings(max_examples=150)
@given(position_groups(), st.data())
def test_place_vector_matches_embedding_sum(case, data):
    size, groups = case
    pieces = [(data.draw(sparse_rows(1, len(g)))[0], g) for g in groups]
    out = place(size, pieces)
    expected = [Scalar(0)] * size
    for entries, pos in pieces:
        expected = [a + b for a, b in
                    zip(expected, _embedding(pos, size).apply(entries))]
    assert list(out) == expected
    assert all_scalars([out])


@settings(max_examples=150)
@given(position_groups(), position_groups(), st.data())
def test_place_matrix_matches_embedding_products(row_case, col_case, data):
    (rows, row_groups), (cols, col_groups) = row_case, col_case
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, len(row_groups) - 1),
                  st.integers(0, len(col_groups) - 1)), unique=True, max_size=4))
    pieces = []
    for i, j in cells:
        r_pos, c_pos = row_groups[i], col_groups[j]
        block = data.draw(sparse_rows(len(r_pos), len(c_pos)))
        pieces.append((Matrix(block, cols=len(c_pos)), r_pos, c_pos))
    out = place((rows, cols), pieces)
    # reference: the sum of E_rows * block * E_cols^T over the pieces
    expected = Matrix.zero(rows, cols)
    for block, r_pos, c_pos in pieces:
        expected = expected + (_embedding(r_pos, rows) * block
                               * _embedding(c_pos, cols).transpose())
    assert (out.rows, out.cols) == (rows, cols)
    assert out == expected
    assert all_scalars(out.entries)


def test_kernels_on_empty_and_zero_width_input():
    assert rref([], 3) == () and rref([(), ()], 0) == ()
    assert Matrix([], cols=3) * Matrix([[1], [2], [3]]) == Matrix([], cols=1)
    empty_inner = Matrix([(), ()], cols=0) * Matrix([], cols=2)
    assert empty_inner == Matrix.zero(2, 2) and all_scalars(empty_inner.entries)
    assert tuple(Matrix([(), ()], cols=0).apply(())) == (Scalar(0), Scalar(0))
    assert tuple(Subspace.zero(0).reduce(())) == ()


def test_powers_stop_at_the_first_zero_power():
    assert Matrix.identity(0).powers() == [Matrix.identity(0)]
    assert Matrix.zero(3, 3).powers() == [Matrix.identity(3), Matrix.zero(3, 3)]
    assert Matrix.identity(2).powers() is None
    with pytest.raises(ShapeError):
        Matrix.zero(3, 2).powers()
    # conjugated Jordan blocks: the powers stop at the largest block size
    rng = random.Random(3)
    for sizes in ([1], [2], [3, 1], [2, 2], [1, 1, 1], [4, 2, 1]):
        n = sum(sizes)
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        jordan = Matrix([[1 if c == r + 1 and c not in starts else 0
                          for c in range(n)] for r in range(n)])
        g = random_unimodular(n, rng)
        nil = g * jordan * g.inverse()
        powers = nil.powers()
        assert len(powers) - 1 == max(sizes)
        assert powers[0] == Matrix.identity(n) and powers[-1].is_zero()
        assert not powers[-2].is_zero()
        assert all(p * nil == q for p, q in zip(powers, powers[1:]))
        assert (nil + Matrix.identity(n)).powers() is None


@settings(max_examples=150)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda s: st.tuples(st.lists(sparse_rows(s[0], s[1]), min_size=s[2],
                                 max_size=s[2]),
                        st.lists(st.builds(Scalar, small_frac, small_frac),
                                 min_size=s[2], max_size=s[2]),
                        st.just(s[:2]))))
def test_combination_matches_the_entrywise_sum(case):
    """sum_k c_k M_k in one pass equals the entrywise Scalar sum, with
    Gaussian entries and coefficients and with no matrix at all."""
    mats, coeffs, (rows, cols) = case
    got = linalg.combination(coeffs, [Matrix(m, cols=cols) for m in mats],
                             rows, cols)
    want = [[sum((c * m[i][j] for c, m in zip(coeffs, mats)), Scalar(0))
             for j in range(cols)] for i in range(rows)]
    assert got == Matrix(want, cols=cols) and (got.rows, got.cols) == (rows, cols)
    assert all_scalars(got.entries)


@st.composite
def shaped_operands(draw, rows, cols):
    """A rows x cols Matrix with the Scalar entries it must have: sparse, the
    cached zero, a zero or an identity-patterned one (non-square when rows
    != cols) from the public constructor, or the cached identity."""
    kinds = ["sparse", "zero", "built zero", "built eye"]
    kind = draw(st.sampled_from(kinds + ["identity"] * (rows == cols)))
    if kind == "sparse":
        entries = draw(sparse_rows(rows, cols))
    else:
        eye = kind in ("built eye", "identity")
        entries = [[Scalar(int(eye and i == j)) for j in range(cols)]
                   for i in range(rows)]
    m = {"zero": lambda: Matrix.zero(rows, cols),
         "identity": lambda: Matrix.identity(rows)}.get(
             kind, lambda: Matrix(entries, cols=cols))()
    return m, entries


coefficients = st.sampled_from([Scalar(0), Scalar(1), Scalar(-1)]) | \
    st.builds(Scalar, small_frac, small_frac)


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(st.just(s), shaped_operands(s[0], s[1]),
                        shaped_operands(s[1], s[2]))))
def test_products_with_zero_and_identity_factors_match_the_dense_product(case):
    (rows, inner, cols), (a, ea), (b, eb) = case
    product = a * b
    assert (product.rows, product.cols) == (rows, cols)
    assert product == Matrix(dense_product(ea, eb, inner, cols), cols=cols)
    assert all_scalars(product.entries)


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda s: st.tuples(st.just(s[:2]),
                        st.lists(shaped_operands(s[0], s[1]), min_size=s[2],
                                 max_size=s[2]),
                        st.lists(coefficients, min_size=s[2], max_size=s[2]))))
def test_sums_and_transposes_with_trivial_terms_match_the_entrywise_sum(case):
    """combination, +, scale and transpose over zero and identity
    operands and coefficients 0 and 1 equal the entrywise Scalar formulas."""
    (rows, cols), operands, coeffs = case
    mats = [m for m, _ in operands]
    entries = [e for _, e in operands]

    def dense(cs, es):
        return Matrix([[sum((c * e[i][j] for c, e in zip(cs, es)), Scalar(0))
                        for j in range(cols)] for i in range(rows)], cols=cols)
    got = linalg.combination(coeffs, mats, rows, cols)
    assert got == dense(coeffs, entries) and (got.rows, got.cols) == (rows, cols)
    for m, e in operands:
        assert m.scale(coeffs[0]) == dense(coeffs[:1], [e])
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t == Matrix([[e[i][j] for i in range(rows)] for j in range(cols)],
                           cols=rows)
    if len(operands) >= 2:
        (a, ea), (b, eb) = operands[:2]
        assert a + b == dense([Scalar(1), Scalar(1)], [ea, eb])
        assert all_scalars((a + b).entries)


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix.zero(2, 3) * Matrix.zero(2, 3), "cannot multiply 2x3 by 2x3"),
    (lambda: Matrix.identity(2) * Matrix.zero(3, 2), "cannot multiply 2x2 by 3x2"),
    (lambda: Matrix.zero(2, 2) * Matrix.identity(3), "cannot multiply 2x2 by 3x3"),
    (lambda: Matrix.identity(3) * Matrix.identity(2), "cannot multiply 3x3 by 2x2"),
    (lambda: linalg.combination((0, 1), (Matrix.zero(2, 3), Matrix.identity(2)),
                                2, 2), "matrix combination shape mismatch"),
    (lambda: linalg.combination((1,), (Matrix.zero(3, 2),), 2, 3),
     "matrix combination shape mismatch"),
    (lambda: Matrix.identity(2) + Matrix.zero(2, 3),
     "matrix combination shape mismatch"),
])
def test_a_trivial_operand_of_another_shape_raises_as_before(call, message):
    with pytest.raises(ShapeError) as caught:
        call()
    assert type(caught.value) is ShapeError and str(caught.value) == message


def test_the_zero_matrix_is_built_once_per_shape():
    assert Matrix.zero(2, 3) is Matrix.zero(2, 3)
    assert Matrix.zero(2, 3) is not Matrix.zero(3, 2)
    assert Matrix.zero(2, 3) == Matrix([[0, 0, 0], [0, 0, 0]])


def test_combination_rejects_a_matrix_of_another_shape():
    with pytest.raises(ShapeError):
        linalg.combination((1, 1), (Matrix.zero(2, 2), Matrix.zero(2, 3)), 2, 2)
    with pytest.raises(ShapeError):
        Matrix.zero(2, 2) + Matrix.zero(3, 2)


def test_a_remembered_none_is_not_recomputed():
    calls = []

    def nothing(x):
        calls.append(x)

    remembered = linalg._remembered(nothing)
    with linalg.evaluation():
        assert remembered(1) is None
        assert remembered(1) is None
    assert calls == [1]


def _count_products(monkeypatch):
    calls = []
    real_mul = Matrix.__mul__

    def counting_mul(a, b):
        calls.append(a)
        return real_mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    return calls


@pytest.mark.parametrize("m", [Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                               Matrix([[1, 1], [0, 1]])])
def test_powers_are_remembered_nilpotent_or_not(monkeypatch, m):
    """Inside an evaluation the tower, or the None of a non-nilpotent
    operator, is built by the first call only; outside one, every call
    builds it."""
    calls = _count_products(monkeypatch)
    with linalg.evaluation():
        first = m.powers()
        assert calls
        del calls[:]
        assert Matrix(m.entries).powers() is first and calls == []
    again = m.powers()
    assert again == first and calls
    if first is not None:
        assert again is not first
