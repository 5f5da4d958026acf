from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loghodge.errors import IllDefinedInducedMap, ShapeError
from loghodge.linalg import (
    LinearMap,
    Matrix,
    Subquotient,
    Subspace,
    canonicalize,
    induced_map,
    induced_map_on,
)
from loghodge.scalars import Scalar

small_frac = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def subspace_strategy(dim):
    return st.lists(
        st.lists(small_frac, min_size=dim, max_size=dim), min_size=0, max_size=dim + 1
    ).map(lambda rows: canonicalize(rows, dim))


def test_canonicalize_examples():
    assert canonicalize([[2, 0], [0, 3]]) == Subspace.full(2)
    s = canonicalize([[1, 1], [2, 2]])
    assert s.dim == 1 and s.basis == ((Scalar(1), Scalar(1)),)
    assert canonicalize([], ambient_dim=2) == Subspace.zero(2)


def test_canonicalize_rejects_ragged():
    with pytest.raises(ShapeError):
        canonicalize([[1, 0], [1]])


def test_lattice_examples():
    e1 = canonicalize([[1, 0]])
    e2 = canonicalize([[0, 1]])
    assert e1.sum(e2) == Subspace.full(2)
    assert canonicalize([[1, 1]]).intersect(e1) == Subspace.zero(2)
    n = LinearMap([[0, 1], [0, 0]])  # N e2 = e1
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
    regenerated = canonicalize(list(mixed) + list(s.basis), 4)
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
    f = LinearMap(rows)
    pre = f.preimage(b)
    assert pre.contains(f.kernel())
    for v in pre.basis:
        assert b.contains_vector(f(v))


def test_induced_map_examples():
    n = LinearMap([[0, 1], [0, 0]])
    e1 = canonicalize([[1, 0]])
    full, zero = Subspace.full(2), Subspace.zero(2)
    # identity with sub == quot-by gives the zero-dimensional map
    m = induced_map_on(LinearMap.identity(2), e1, e1, e1, e1)
    assert m.source_dim == 0 and m.target_dim == 0
    # Jordan-2 induces an isomorphism Gr_1 -> Gr_{-1}
    m = induced_map_on(n, full, e1, e1, zero)
    assert m.source_dim == 1 and m.target_dim == 1
    assert m.kernel().dim == 0
    # contract violation
    with pytest.raises(IllDefinedInducedMap):
        induced_map_on(n, full, zero, zero, zero)


def test_induced_map_functorial():
    n = LinearMap([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    full = Subspace.full(3)
    k1 = n.kernel()
    k2 = n.power(2).kernel()
    src = Subquotient(full, k2)
    mid = Subquotient(k2, k1)
    tgt = Subquotient(k1, Subspace.zero(3))
    f = induced_map(n, src, mid)
    g = induced_map(n, mid, tgt)
    gf = induced_map(n.compose(n), src, tgt)
    assert g.compose(f) == gf


def test_subquotient_coords_roundtrip():
    w = canonicalize([[1, 0, 0], [0, 1, 0]])
    q = canonicalize([[1, 0, 0]])
    sq = Subquotient(w, q)
    assert sq.dim == 1
    v = (Scalar(5), Scalar(2), Scalar(0))
    c = sq.coords(v)
    assert sq.coords(sq.lift(c)) == c


def test_annihilator():
    e1 = canonicalize([[1, 0]])
    ann = e1.annihilator()
    assert ann == canonicalize([[0, 1]])
    assert Subspace.zero(3).annihilator() == Subspace.full(3)


def test_inverse_is_exact_and_rejects_singular_input():
    m = Matrix([[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    assert Matrix([], cols=0).inverse() == Matrix([], cols=0)
    with pytest.raises(ShapeError, match="singular"):
        Matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ShapeError, match="non-square"):
        Matrix([[1, 2]]).inverse()
