"""Central extensions: build them, diagnose them, and invert the construction."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, annihilator, next_names
from .cohomology import Cocycle, h2, radical, sym_dim, sym_pairs
from .errors import InvalidCocycleError, NotAnExtensionError
from .linalg import Matrix, Subspace


@dataclass(frozen=True)
class ExtensionSpec:
    base: Algebra
    cocycles: tuple  # Cocycles over base
    new_names: tuple

    @staticmethod
    def of(base: Algebra, cocycles, new_names=None) -> "ExtensionSpec":
        cocycles = tuple(cocycles)
        for c in cocycles:
            if c.algebra != base:
                raise InvalidCocycleError("cocycle defined over a different algebra")
        if new_names is None:
            new_names = next_names(base, len(cocycles))
        new_names = tuple(new_names)
        if len(new_names) != len(cocycles):
            raise NotAnExtensionError("need one new basis name per cocycle")
        return ExtensionSpec(base, cocycles, new_names)


@dataclass(frozen=True)
class ExtensionDiagnostics:
    joint_radical_meet: Subspace
    independent_mod_b2: bool
    has_central_component: bool


def central_extend(spec: ExtensionSpec) -> Algebra:
    """The algebra on base + k^m with products augmented by the cocycle values.

    Cocycles are eagerly checked for cocycle-space membership; the appended
    basis vectors annihilate everything.
    """
    base = spec.base
    if not spec.cocycles:
        return base
    n = base.dim
    upper = [c.upper() for c in spec.cocycles]
    if not h2(base).z2.contains_subspace(Subspace.span(base.field, sym_dim(n), upper)):
        raise InvalidCocycleError("matrix is not a cocycle for this algebra")
    products = {pair: dict(terms) for pair, terms in base.products().items()}
    for t, coords in enumerate(upper):
        for pair, v in zip(sym_pairs(n), coords):
            if v:
                products.setdefault(pair, {})[n + t] = v
    return Algebra(base.field, base.names + spec.new_names, products)


def diagnose(spec: ExtensionSpec) -> ExtensionDiagnostics:
    """Lemma-level diagnostics: joint radical meet with the center, independence."""
    base = spec.base
    ann = annihilator(base)
    if spec.cocycles:
        meet = radical(spec.cocycles).intersect(ann)
    else:
        meet = ann
    independent = len(h2(base).b2.extend(c.upper() for c in spec.cocycles)) == len(spec.cocycles)
    return ExtensionDiagnostics(
        joint_radical_meet=meet,
        independent_mod_b2=independent,
        has_central_component=not independent,
    )


def reconstruct(M: Algebra):
    """Quotient by the full annihilator and read the defining cocycles back off.

    Returns (base, cocycles) such that central_extend(base, cocycles) is
    isomorphic to M via the evident block map.  The section sends the
    non-pivot coordinates of the annihilator's echelon basis to themselves.
    """
    ann = annihilator(M)
    if ann.is_zero():
        raise NotAnExtensionError("annihilator is zero; not a central extension")
    if ann.dim == M.dim:
        raise NotAnExtensionError("zero algebra is a degenerate central extension")
    ech = ann.echelon()
    comp = [j for j in range(M.dim) if j not in ech.pivots]
    # vec = sum_t vec[pivot_t] ann_t + reduce(vec), the remainder supported on comp
    pairs = sym_pairs(len(comp))
    vecs = [M.basis_product(comp[i], comp[j]) for i, j in pairs]
    base_products = {}
    for pair, vec in zip(pairs, vecs):
        rest = ech.reduce(vec)
        terms = {bk: rest[k] for bk, k in enumerate(comp) if rest[k]}
        if terms:
            base_products[pair] = terms
    base = Algebra(M.field, tuple(M.names[i] for i in comp), base_products)
    return base, [Cocycle.from_upper(base, [vec[pc] for vec in vecs]) for pc in ech.pivots]


def section_morphism_matrix(M: Algebra, base: Algebra) -> Matrix:
    """Block map from central_extend(reconstruct(M)) back to M's coordinates."""
    ann = annihilator(M)
    pivots = ann.pivots
    comp = [j for j in range(M.dim) if j not in pivots]
    cols = [tuple(M.field.one if k == i else M.field.zero for k in range(M.dim)) for i in comp]
    cols += ann.vectors()
    return Matrix.from_rows(M.field, [[col[r] for col in cols] for r in range(M.dim)])
