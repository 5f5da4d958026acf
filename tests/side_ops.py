"""Constructions no verb runs, kept beside the tests that check them.

``shriek`` is N!W, the dual of the star operation N*W; ``unipotent_part`` is
the restriction of a model to its unipotent components; ``hodge_decomposes``
is the definition of a Hodge structure of weight w, complement by complement.
The tests compare them with the package's own builders: N!W with N*W through
duality and relative monodromy, the unipotent part with IC_log along every
branch, the definition with the Hodge pieces the IMHS checker reads.
``same_complex`` is the value comparison of two complexes, which no verb
makes.
"""

from loghodge.complexes import FilteredComplex
from loghodge.filtrations import (
    DecreasingFiltration,
    IncreasingFiltration,
    relative_monodromy_filtration,
)
from loghodge.linalg import Matrix, Subquotient, Subspace
from loghodge.model import NCModel


def shriek(N: Matrix, w: IncreasingFiltration) -> IncreasingFiltration:
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


def hodge_decomposes(f: DecreasingFiltration, weight: int) -> bool:
    """F^p (+) conj F^{weight-p+1} spans the space exactly, for every p: past
    the p tested here one summand is the whole space and the other zero."""
    d = f.ambient_dim
    if d == 0:
        return True
    lo = f.lowest() - 1
    hi = f.highest() + 1
    for p in range(min(lo, weight - hi), max(hi, weight - lo) + 1):
        fp = f.at(p)
        fq = f.at(weight - p + 1).conj()
        if fp.dim + fq.dim != d or fp.intersect(fq).dim != 0:
            return False
    return True


def same_complex(a: FilteredComplex, b: FilteredComplex) -> bool:
    """a and b are complexes of one class with equal degree range, terms,
    differentials, filtrations and slot layout."""
    return type(a) is type(b) and all(
        getattr(a, f) == getattr(b, f)
        for f in ("min_deg", "dims", "d", "weight", "hodge", "layout"))


def unipotent_part(model: NCModel) -> NCModel:
    """Restriction to the components with all residue exponents zero."""
    keep = [ci for ci, c in enumerate(model.components) if c.is_unipotent()]
    comps = tuple(model.components[ci] for ci in keep)
    sub = Subspace.zero(model.total_dim)
    for ci in keep:
        sub = sub.sum(model.component_subspace(ci))
    weight, hodge = (None if filt is None else filt.project_to(Subquotient.of(sub))
                     for filt in (model.weight, model.hodge))
    pairing = None
    if model.pairing is not None:   # S(v, u) over the basis rows v, u of sub
        b = Matrix(sub.basis, cols=sub.ambient_dim)
        pairing = b * model.pairing * b.transpose()
    return NCModel(
        branches=model.branches,
        components=comps,
        base_weight=model.base_weight,
        perverse_shift=model.perverse_shift,
        weight=weight,
        hodge=hodge,
        pairing=pairing,
        pairing_parity=model.pairing_parity if pairing is not None else None,
    )
