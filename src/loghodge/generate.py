"""Seeded generation of instances for fuzz suites and the bundled corpus.

Models are assembled from tensor products of Jordan blocks and rank-two
"elliptic" blocks, Tate-twisted to a target weight, summed, and conjugated
by a random rational change of basis.  Every produced model satisfies the
axioms by construction; the test suites re-verify rather than trust this.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .filtrations import DecreasingFiltration, IncreasingFiltration, filtration_sum
# rref is imported for perfbench's tracer, which rebinds the name in every
# module that binds it; its tests check this module too
from .linalg import Matrix, Subspace, rref  # noqa: F401
from .model import AlphaComponent, NCModel, direct_sum
from .scalars import ONE, ZERO, I


def random_unimodular(dim: int, rng: random.Random, ops: int | None = None) -> Matrix:
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(ops if ops is not None else 2 * dim):
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

class _Block:
    """A pure-weight polarized piece: space, operators, F, S, weight."""

    def __init__(self, dim, nilpotents, f_steps, s_matrix, weight, parity):
        self.dim = dim
        self.nilpotents = nilpotents          # list over branches
        self.f_steps = f_steps                # list of (p, basis rows)
        self.s_matrix = s_matrix
        self.weight = weight
        self.parity = parity


def _tensor_blocks(n_branches: int, sizes: list[int]) -> _Block:
    """Tensor of one Jordan string per branch; monomial Hodge filtration."""
    dims = sizes
    total = math.prod(dims)
    index = list(itertools.product(*[range(m) for m in dims]))
    pos = {t: i for i, t in enumerate(index)}
    nilpotents = []
    for b in range(n_branches):
        rows = [[ZERO] * total for _ in range(total)]
        for t in index:
            if t[b] + 1 < dims[b]:
                t2 = t[:b] + (t[b] + 1,) + t[b + 1:]
                rows[pos[t2]][pos[t]] = ONE
        nilpotents.append(Matrix(rows, cols=total))
    w0 = sum(m - 1 for m in dims)
    s_rows = [[ZERO] * total for _ in range(total)]
    for t in index:
        for u in index:
            val = ONE
            for b in range(n_branches):
                m = dims[b]
                c0 = ONE if (m - 1) % 2 == 0 else -ONE
                if t[b] + u[b] != m - 1:
                    val = ZERO
                    break
                val = val * c0 * (-ONE if t[b] % 2 else ONE)
            if val:
                s_rows[pos[t]][pos[u]] = val
    f_steps = []
    for p in range(w0 + 2):
        rows = [tuple(ONE if j == pos[t] else ZERO for j in range(total))
                for t in index if sum(mi - 1 - ti for mi, ti in zip(dims, t)) >= p]
        f_steps.append((p, rows))
    return _Block(total, nilpotents, f_steps, Matrix(s_rows, cols=total),
                  w0, w0 % 2)


def _elliptic_block(n_branches: int) -> _Block:
    """Weight-one rank-two piece with trivial operators: types (1,0)+(0,1)."""
    nil = [Matrix.zero(2, 2) for _ in range(n_branches)]
    s = Matrix([[ZERO, ONE], [-ONE, ZERO]], cols=2)
    f = [(0, [(ONE, ZERO), (ZERO, ONE)]),
         (1, [(ONE, I)]),
         (2, [])]
    return _Block(2, nil, f, s, 1, 1)


def _twist_block(block: _Block, r: int) -> _Block:
    """Tate twist: weight drops by 2r, Hodge indices drop by r, S unchanged."""
    f = [(p - r, rows) for p, rows in block.f_steps]
    return _Block(block.dim, block.nilpotents, f, block.s_matrix,
                  block.weight - 2 * r, block.parity)


def _block_model(n_branches: int, block: _Block, base_weight: int,
                 perverse_shift: int, with_pairing: bool,
                 with_hodge: bool) -> NCModel:
    comp = AlphaComponent(tuple(Fraction(0) for _ in range(n_branches)),
                          block.dim, tuple(block.nilpotents))
    weight = IncreasingFiltration.pure(block.dim, block.weight)
    hodge = None
    if with_hodge:
        hodge = DecreasingFiltration(
            block.dim,
            [(p, Subspace.span(rows, block.dim)) for p, rows in block.f_steps])
    return NCModel(n_branches, (comp,), base_weight, perverse_shift, weight,
                   hodge, block.s_matrix if with_pairing else None,
                   block.parity if with_pairing else None)


def conjugate_model(model: NCModel, g: Matrix) -> NCModel:
    """Change of rational basis x -> g x on the single-component total space."""
    if len(model.components) != 1:
        raise ValueError("conjugation helper expects a single component")
    comp = model.components[0]
    ginv = g.inverse()
    nil = tuple(g * nj * ginv for nj in comp.nilpotents)
    new_comp = AlphaComponent(comp.alpha, comp.dim, nil)

    push_subspace = g.image

    weight = IncreasingFiltration(
        comp.dim, [(w, push_subspace(s)) for w, s in model.weight.steps])
    hodge = None
    if model.hodge is not None:
        hodge = DecreasingFiltration(
            comp.dim, [(p, push_subspace(s)) for p, s in model.hodge.steps])
    pairing = None
    if model.pairing is not None:
        pairing = ginv.transpose() * model.pairing * ginv
    return NCModel(model.branches, (new_comp,), model.base_weight,
                   model.perverse_shift, weight, hodge, pairing,
                   model.pairing_parity)


def random_imhs_model(n_branches: int, rng: random.Random,
                      with_pairing: bool = True, with_hodge: bool = True,
                      max_dim: int = 8, max_blocks: int = 3,
                      conjugate: bool = True) -> NCModel:
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
            sizes = [rng.choice([1, 1, 2, 2, 3]) for _ in range(max(n_branches, 1))]
            block = _tensor_blocks(n_branches, _fit(sizes, budget))
        if block.dim > budget:
            continue
        # twist to a target weight of the shared parity
        target = rng.randint(-1, 2) * 2 + base_parity
        if (block.weight - target) % 2:
            target += 1
        block = _twist_block(block, (block.weight - target) // 2)
        blocks.append(block)
        budget -= block.dim
    if not blocks:
        blocks = [_tensor_blocks(n_branches, [1] * max(n_branches, 1))]
    # the declared center is the lower bound of the weights, so the one-sided
    # purity bounds stay meaningful on mixed instances
    base_weight = min(b.weight for b in blocks)
    shift = n_branches
    model = _block_model(n_branches, blocks[0], base_weight, shift,
                         with_pairing, with_hodge)
    for b in blocks[1:]:
        model = direct_sum(model, _block_model(n_branches, b, base_weight, shift,
                                               with_pairing, with_hodge))
    if conjugate:
        g = random_unimodular(model.total_dim, rng)
        model = conjugate_model(model, g)
    return model


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
                      with_pairing: bool = True,
                      max_dim: int = 8) -> NCModel:
    """Single pure weight; handy for the pure-anchor and purity suites."""
    sizes = [rng.choice([1, 2, 2, 3]) for _ in range(max(n_branches, 1))]
    block = _tensor_blocks(n_branches, _fit(sizes, max_dim))
    model = _block_model(n_branches, block, block.weight, n_branches,
                         with_pairing, True)
    return conjugate_model(model, random_unimodular(model.total_dim, rng))


def random_spectral_model(n_branches: int, rng: random.Random,
                          max_components: int = 3) -> NCModel:
    """Model with nonzero residue exponents, for the acyclicity suite.

    Operators on each component are polynomials in one nilpotent, hence
    commute; the weight filtration is pure per component.
    """
    comps = []
    alphas = set()
    n_comp = rng.randint(1, max_components)
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
            nil.append(base.scale(c1) + (base * base).scale(c2))
        comps.append(AlphaComponent(alpha, d, tuple(nil)))
    # a pure weight per component, drawn in component order
    parts, total = [], 0
    for comp in comps:
        parts.append((range(total, total + comp.dim),
                      IncreasingFiltration.pure(comp.dim, rng.randint(-2, 2))))
        total += comp.dim
    return NCModel(n_branches, tuple(comps), 0, n_branches,
                   filtration_sum(parts, total))
