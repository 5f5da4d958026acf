import random
import re

import pytest

from loghodge.errors import (
    FiltrationNotPreserved,
    NotNilpotent,
    ParseError,
    RelativeMonodromyNonexistent,
    ShapeError,
)
from loghodge.filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    check_relative_axioms,
    dual_filtration,
    iterated_star,
    monodromy_filtration,
    relative_monodromy_filtration,
    shriek,
    star,
)
from loghodge.linalg import LinearMap, Matrix, Subquotient, Subspace, canonicalize

J2 = LinearMap([[0, 1], [0, 0]])
J3 = LinearMap([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def random_nilpotent(dim, rng):
    """Strictly upper triangular conjugated by a unimodular integer matrix."""
    upper = [[rng.randint(-2, 2) if j > i else 0 for j in range(dim)]
             for i in range(dim)]
    g = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(dim):
            g[i][k] += c * g[j][k]
    gm = Matrix(g)
    return LinearMap(gm * Matrix(upper) * gm.inverse())


def test_filtration_normalization():
    sub = canonicalize([[1, 0]])
    w = IncreasingFiltration(2, [(-5, Subspace.zero(2)), (0, sub), (1, sub),
                                 (3, Subspace.full(2))])
    assert w.jumps() == (0, 3)
    assert w.at(-1).dim == 0 and w.at(2) == sub and w.at(100).is_full()


def test_filtration_requires_exhaustive():
    with pytest.raises(ShapeError):
        IncreasingFiltration(2, [(0, canonicalize([[1, 0]]))])


def test_decreasing_filtration():
    line = canonicalize([[1, 0]])
    f = DecreasingFiltration(2, [(1, line), (2, Subspace.zero(2))])
    assert f.at(0).is_full() and f.at(1) == line and f.at(5).is_zero()


def test_monodromy_examples():
    assert monodromy_filtration(LinearMap.zero(3, 3), 0).graded_dims() == {0: 3}
    assert monodromy_filtration(J2, 0).graded_dims() == {-1: 1, 1: 1}
    assert monodromy_filtration(J3, 0).graded_dims() == {-2: 1, 0: 1, 2: 1}
    m = monodromy_filtration(J2, 5)
    assert m.graded_dims() == {4: 1, 6: 1}


def test_monodromy_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        monodromy_filtration(LinearMap.identity(2), 0)


def test_monodromy_axioms_on_random_nilpotents():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(1, 6)
        n = random_nilpotent(dim, rng)
        m = monodromy_filtration(n, center=rng.randint(-2, 2))
        w = IncreasingFiltration.pure(dim, 0)
        # centered at 0 it is also the relative filtration over the pure W
        if m == monodromy_filtration(n, 0):
            assert check_relative_axioms(m, n, w)


def test_relative_monodromy_examples():
    w_pure = IncreasingFiltration.pure(2, 0)
    assert relative_monodromy_filtration(J2, w_pure) == monodromy_filtration(J2, 0)
    mixed = IncreasingFiltration(2, [(0, canonicalize([[1, 0]])),
                                     (1, Subspace.full(2))])
    assert relative_monodromy_filtration(LinearMap.zero(2, 2), mixed) == mixed
    with pytest.raises(RelativeMonodromyNonexistent):
        relative_monodromy_filtration(J2, mixed)
    with pytest.raises(FiltrationNotPreserved):
        bad = IncreasingFiltration(2, [(0, canonicalize([[0, 1]])),
                                       (1, Subspace.full(2))])
        relative_monodromy_filtration(J2, bad)


def test_relative_monodromy_mixed_extension():
    # weight -1 line plus a Jordan block at weight 0; basis (e, f1, f2), N f2 = f1
    n = LinearMap([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    w = IncreasingFiltration(3, [(-1, canonicalize([[1, 0, 0]])),
                                 (0, Subspace.full(3))])
    m = relative_monodromy_filtration(n, w)
    assert m.graded_dims() == {-1: 2, 1: 1}
    assert m.at(-1) == canonicalize([[1, 0, 0], [0, 1, 0]])


def test_relative_monodromy_uniqueness_by_perturbation():
    n = LinearMap([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    w = IncreasingFiltration(3, [(-1, canonicalize([[1, 0, 0]])),
                                 (0, Subspace.full(3))])
    m = relative_monodromy_filtration(n, w)
    # replace the -1 step by any other 2-dim subspace between the neighbours
    for alt_rows in ([[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1]]):
        alt = canonicalize(alt_rows)
        perturbed = IncreasingFiltration(3, [(-1, alt), (1, Subspace.full(3))])
        assert perturbed != m
        assert not check_relative_axioms(perturbed, n, w)


def test_star_examples():
    w = IncreasingFiltration.pure(2, 0)
    s = star(J2, w)
    assert s.at(-2).dim == 0
    assert s.at(-1) == s.at(0) == canonicalize([[1, 0]])
    assert s.at(1).is_full()
    assert star(LinearMap.zero(2, 2), w) == w
    rank1 = IncreasingFiltration.pure(1, 5)
    assert star(LinearMap.zero(1, 1), rank1) == rank1


def test_shriek_examples():
    w = IncreasingFiltration.pure(2, 0)
    assert shriek(J2, w) == star(J2, w)  # self-dual instance
    mixed = IncreasingFiltration(2, [(0, canonicalize([[1, 0]])),
                                     (1, Subspace.full(2))])
    assert shriek(LinearMap.zero(2, 2), mixed) == mixed


def test_star_monodromy_identity():
    rng = random.Random(3)
    for _ in range(15):
        dim = rng.randint(1, 5)
        n = random_nilpotent(dim, rng)
        w = IncreasingFiltration.pure(dim, rng.randint(-2, 2))
        m = relative_monodromy_filtration(n, w)
        assert relative_monodromy_filtration(n, star(n, w)) == m
        assert relative_monodromy_filtration(n, shriek(n, w)) == m


def test_star_drop_and_raise_maps():
    w = IncreasingFiltration.pure(2, 0)
    s = star(J2, w)
    for k in range(-2, 3):
        for v in w.at(k).basis:
            assert s.at(k - 1).contains_vector(J2(v))
        assert w.at(k).contains(s.at(k - 1))


def test_iterated_star_order_independence():
    ops = [J2, LinearMap.zero(2, 2)]
    w = IncreasingFiltration.pure(2, 0)
    assert iterated_star(ops, w, [0, 1]) == iterated_star(ops, w, [1, 0])
    assert iterated_star(ops, w, [0]) == star(J2, w)
    assert iterated_star(ops, w, []) == w


def test_dual_filtration_examples():
    w = IncreasingFiltration.pure(2, 0)
    assert dual_filtration(w) == w
    mixed = IncreasingFiltration(2, [(0, canonicalize([[1, 0]])),
                                     (1, Subspace.full(2))])
    assert dual_filtration(mixed).graded_dims() == {-1: 1, 0: 1}
    assert dual_filtration(dual_filtration(mixed)).graded_dims() == \
        mixed.graded_dims()


def test_star_shriek_transpose_duality():
    rng = random.Random(11)
    for _ in range(12):
        dim = rng.randint(1, 5)
        n = random_nilpotent(dim, rng)
        w = IncreasingFiltration.pure(dim, rng.randint(-1, 1))
        assert dual_filtration(star(n, w)) == shriek(n.transpose(),
                                                     dual_filtration(w))


def test_filtration_json_roundtrip():
    mixed = IncreasingFiltration(2, [(0, canonicalize([[1, 0]])),
                                     (1, Subspace.full(2))])
    again = IncreasingFiltration.from_json(mixed.to_json(), 2)
    assert again == mixed


# -- both directions through the shared base ------------------------------------

BOTH = pytest.mark.parametrize("cls", [IncreasingFiltration,
                                       DecreasingFiltration])
LINE = canonicalize([[1, 0]])
DIAGONAL = canonicalize([[1, 1]])


def _end(cls, dim):
    """The space a filtration of this direction ends at."""
    return Subspace.full(dim) if cls is IncreasingFiltration else Subspace.zero(dim)


def _through(cls, dim, step0):
    """The filtration with step0 at index 0 and its end space from index 1."""
    return cls(dim, [(0, step0), (1, _end(cls, dim))])


@BOTH
def test_json_round_trip_both_directions(cls):
    f = _through(cls, 2, LINE)
    doc = f.to_json()
    assert [sorted(step) for step in doc] == [sorted([cls.KEY, "basis"])] * 2
    assert cls.from_json(doc, 2) == f


@BOTH
def test_restrict_to_both_directions(cls):
    f = _through(cls, 2, LINE)
    assert f.restrict_to(LINE) == _through(cls, 1, Subspace.full(1))
    assert f.restrict_to(DIAGONAL) == _through(cls, 1, Subspace.zero(1))
    assert f.restrict_to(Subspace.full(2)) == f


@BOTH
def test_project_to_both_directions(cls):
    f = _through(cls, 2, LINE)
    assert f.project_to(Subquotient(Subspace.full(2), LINE)) == \
        _through(cls, 1, Subspace.zero(1))
    assert f.project_to(Subquotient(LINE, Subspace.zero(2))) == \
        _through(cls, 1, Subspace.full(1))


@BOTH
def test_shift_both_directions(cls):
    f = _through(cls, 2, LINE)
    moved = f.shift(3)
    assert type(moved) is cls
    assert moved.jumps() == tuple(j + 3 for j in f.jumps())
    assert all(moved.at(k + 3) == f.at(k) for k in range(-2, 4))
    assert f.shift(0) == f and moved.shift(-3) == f


@pytest.mark.parametrize("cls, steps, message", [
    (IncreasingFiltration, [(0, Subspace.full(3))],
     "filtration step in wrong ambient space"),
    (DecreasingFiltration, [(0, Subspace.zero(3))],
     "filtration step in wrong ambient space"),
    (IncreasingFiltration, [(0, LINE), (0, DIAGONAL)],
     "duplicate filtration weight 0"),
    (DecreasingFiltration, [(0, LINE), (0, DIAGONAL)],
     "duplicate filtration index 0"),
    (IncreasingFiltration, [(0, LINE), (1, DIAGONAL), (2, Subspace.full(2))],
     "filtration steps are not increasing"),
    (DecreasingFiltration, [(0, LINE), (1, DIAGONAL), (2, Subspace.zero(2))],
     "filtration steps are not decreasing"),
    (IncreasingFiltration, [(0, LINE)],
     "filtration is not exhaustive (top step != full space)"),
    (DecreasingFiltration, [(0, LINE)],
     "decreasing filtration does not reach zero"),
])
def test_constructor_rejections_both_directions(cls, steps, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        cls(2, steps)


@pytest.mark.parametrize("cls, data, message", [
    (IncreasingFiltration, {"weight": 0}, "filtration must be a list of steps"),
    (DecreasingFiltration, {"p": 0}, "filtration must be a list of steps"),
    (IncreasingFiltration, [{"p": 0, "basis": []}],
     "filtration step must have exactly weight and basis"),
    (DecreasingFiltration, [{"weight": 0, "basis": []}],
     "Hodge filtration step must have exactly p and basis"),
    (IncreasingFiltration, [{"weight": "0", "basis": [["1", "0"]]}],
     "filtration weight must be an integer"),
    (DecreasingFiltration, [{"p": True, "basis": []}],
     "Hodge filtration index must be an integer"),
])
def test_from_json_rejections_both_directions(cls, data, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        cls.from_json(data, 2)
