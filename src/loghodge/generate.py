"""Seeded generation of instances for fuzz suites and the bundled corpus.

Every building block is an ``NCModel``: a tensor product of Jordan strings,
one per branch, or a rank-two "elliptic" block.  Blocks are Tate-twisted to
a target weight with ``Filtration.shift``, summed with ``direct_sum``, and
conjugated by a random rational change of basis.  Every produced model
satisfies the axioms by construction; the test suites re-verify rather than
trust this.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce

from .filtrations import DecreasingFiltration, IncreasingFiltration, filtration_sum
# rref is imported for perfbench's tracer, which rebinds the name in every
# module that binds it; its tests check this module too
from .linalg import Matrix, Subspace, combination, rref  # noqa: F401
from .model import AlphaComponent, NCModel, direct_sum
from .scalars import I


def random_unimodular(dim: int, rng: random.Random) -> Matrix:
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(dim):
            g[i][k] += c * g[j][k]
    return Matrix(g)


def random_nilpotent(dim: int, rng: random.Random) -> Matrix:
    upper = [[rng.randint(-2, 2) if j > i else 0 for j in range(dim)]
             for i in range(dim)]
    g = random_unimodular(dim, rng)
    return g * Matrix(upper) * g.inverse()


# -- building blocks ----------------------------------------------------------

def _block(n_branches: int, nilpotents, f_steps, pairing: Matrix,
           weight: int) -> NCModel:
    """A unipotent polarized block, pure of weight `weight`, F from its
    (p, basis rows) steps."""
    dim = pairing.rows
    comp = AlphaComponent((Fraction(0),) * n_branches, dim, tuple(nilpotents))
    hodge = DecreasingFiltration(
        dim, [(p, Subspace.span(rows, dim)) for p, rows in f_steps])
    return NCModel(n_branches, (comp,), weight, n_branches,
                   IncreasingFiltration.pure(dim, weight), hodge, pairing,
                   weight % 2)


def _tensor_blocks(n_branches: int, dims: list[int]) -> NCModel:
    """Tensor of one Jordan string per branch; monomial Hodge filtration."""
    total = math.prod(dims)
    index = list(itertools.product(*[range(m) for m in dims]))
    nilpotents = []
    for b in range(n_branches):
        # N_b raises t_b by one, which moves i by the stride of branch b
        stride = math.prod(dims[b + 1:])
        rows = [[0] * total for _ in range(total)]
        for i, t in enumerate(index):
            if t[b] + 1 < dims[b]:
                rows[i + stride][i] = 1
        nilpotents.append(Matrix(rows, cols=total))
    w0 = sum(m - 1 for m in dims)
    # t pairs only with its mirror (m_b - 1 - t_b)_b, at total - 1 - i in
    # product order, with sign prod_b (-1)^(m_b - 1 + t_b) = (-1)^(w0 + |t|)
    s_rows = [[0] * total for _ in range(total)]
    for i, t in enumerate(index):
        s_rows[i][total - 1 - i] = -1 if (w0 + sum(t)) % 2 else 1
    # F^p is spanned by the basis vectors of Hodge level w0 - |t| >= p
    unit = Matrix.identity(total).entries
    f_steps = [(p, [unit[i] for i, t in enumerate(index) if w0 - sum(t) >= p])
               for p in range(w0 + 2)]
    return _block(n_branches, nilpotents, f_steps, Matrix(s_rows, cols=total),
                  w0)


def _elliptic_block(n_branches: int) -> NCModel:
    """Weight-one rank-two piece with trivial operators: types (1,0)+(0,1)."""
    nil = [Matrix.zero(2, 2) for _ in range(n_branches)]
    s = Matrix([[0, 1], [-1, 0]], cols=2)
    f = [(0, [(1, 0), (0, 1)]),
         (1, [(1, I)]),
         (2, [])]
    return _block(n_branches, nil, f, s, 1)


def _twist_block(block: NCModel, r: int) -> NCModel:
    """Tate twist: weight drops by 2r, Hodge indices drop by r, S unchanged."""
    return replace(block, weight=block.weight.shift(-2 * r),
                   hodge=block.hodge.shift(-r),
                   base_weight=block.base_weight - 2 * r)


def conjugate_model(model: NCModel, g: Matrix) -> NCModel:
    """Change of rational basis x -> g x on the single-component total space."""
    if len(model.components) != 1:
        raise ValueError("conjugation helper expects a single component")
    comp = model.components[0]
    ginv = g.inverse()
    weight, hodge = (None if f is None else type(f)(
        comp.dim, [(i, g.image(s)) for i, s in f.steps])
        for f in (model.weight, model.hodge))
    pairing = None
    if model.pairing is not None:
        pairing = ginv.transpose() * model.pairing * ginv
    nil = tuple(g * nj * ginv for nj in comp.nilpotents)
    return replace(model, components=(replace(comp, nilpotents=nil),),
                   weight=weight, hodge=hodge, pairing=pairing)


def random_imhs_model(n_branches: int, rng: random.Random,
                      with_pairing: bool = True, max_dim: int = 8,
                      max_blocks: int = 3) -> NCModel:
    """Direct sum of twisted tensor blocks, then a rational change of basis."""
    blocks = []
    budget = max_dim
    n_blocks = rng.randint(1, max_blocks)
    base_parity = rng.randint(0, 1)
    for _ in range(n_blocks):
        if budget < 1:
            break
        if rng.random() < 0.2 and budget >= 2:
            block = _elliptic_block(n_branches)
        else:
            sizes = [rng.choice([1, 1, 2, 2, 3]) for _ in range(n_branches)]
            block = _tensor_blocks(n_branches, _fit(sizes, budget))
        if block.total_dim > budget:
            continue
        # twist to a target weight of the shared parity
        target = rng.randint(-1, 2) * 2 + base_parity
        if (block.base_weight - target) % 2:
            target += 1
        blocks.append(_twist_block(block, (block.base_weight - target) // 2))
        budget -= block.total_dim
    if not blocks:
        blocks = [_tensor_blocks(n_branches, [1] * n_branches)]
    # the declared center is the lower bound of the weights, so the one-sided
    # purity bounds stay meaningful on mixed instances
    base_weight = min(b.base_weight for b in blocks)
    no_s = {} if with_pairing else {"pairing": None, "pairing_parity": None}
    model = reduce(direct_sum, [replace(b, base_weight=base_weight, **no_s)
                                for b in blocks])
    return conjugate_model(model, random_unimodular(model.total_dim, rng))


def _fit(sizes: list[int], budget: int) -> list[int]:
    """Shrink the longest Jordan string until the tensor dimension fits the
    budget or every string has length 1."""
    while math.prod(sizes) > budget:
        big = max(range(len(sizes)), key=lambda i: sizes[i])
        if sizes[big] == 1:
            break
        sizes[big] -= 1
    return sizes


def random_pure_model(n_branches: int, rng: random.Random,
                      max_dim: int = 8) -> NCModel:
    """Single pure weight; handy for the pure-anchor and purity suites."""
    sizes = [rng.choice([1, 2, 2, 3]) for _ in range(n_branches)]
    block = _tensor_blocks(n_branches, _fit(sizes, max_dim))
    return conjugate_model(block, random_unimodular(block.total_dim, rng))


def random_spectral_model(n_branches: int, rng: random.Random) -> NCModel:
    """Model with nonzero residue exponents, for the acyclicity suite.

    Operators on each component are polynomials in one nilpotent, hence
    commute; the weight filtration is pure per component.
    """
    comps = []
    alphas = set()
    n_comp = rng.randint(1, 3)
    choices = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
               Fraction(1, 4)]
    for _ in range(n_comp):
        for _ in range(10):
            alpha = tuple(rng.choice(choices) for _ in range(n_branches))
            if alpha not in alphas:
                alphas.add(alpha)
                break
        else:
            continue
        d = rng.randint(1, 4)
        base = random_nilpotent(d, rng)
        nil = []
        for _ in range(n_branches):
            c1, c2 = rng.randint(-2, 2), rng.randint(-1, 1)
            nil.append(combination((c1, c2), (base, base * base), d, d))
        comps.append(AlphaComponent(alpha, d, tuple(nil)))
    # a pure weight per component, drawn in component order
    parts, total = [], 0
    for comp in comps:
        parts.append((range(total, total + comp.dim),
                      IncreasingFiltration.pure(comp.dim, rng.randint(-2, 2))))
        total += comp.dim
    return NCModel(n_branches, tuple(comps), 0, n_branches,
                   filtration_sum(parts, total))
