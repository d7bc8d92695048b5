"""Central extensions: build them, diagnose them, and invert the construction."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, cached_annihilator, next_names
from .cohomology import Cocycle, h2, radical
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
    spaces = h2(base)
    for c in spec.cocycles:
        if not spaces.z2.contains(c.upper()):
            raise InvalidCocycleError("matrix is not a cocycle for this algebra")
    n = base.dim
    products = {pair: dict(terms) for pair, terms in base.products().items()}
    for t, c in enumerate(spec.cocycles):
        for i in range(n):
            for j in range(i, n):
                v = c.mat.at(i, j)
                if v:
                    products.setdefault((i, j), {})[n + t] = v
    return Algebra(base.field, base.names + spec.new_names, products)


def diagnose(spec: ExtensionSpec) -> ExtensionDiagnostics:
    """Lemma-level diagnostics: joint radical meet with the center, independence."""
    base = spec.base
    ann = cached_annihilator(base)
    if spec.cocycles:
        meet = radical(spec.cocycles).intersect(ann)
    else:
        meet = ann
    ech = h2(base).b2.echelon()
    independent = all(ech.add(c.upper()) for c in spec.cocycles)
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
    ann = cached_annihilator(M)
    if ann.is_zero():
        raise NotAnExtensionError("annihilator is zero; not a central extension")
    if ann.dim == M.dim:
        raise NotAnExtensionError("zero algebra is a degenerate central extension")
    F = M.field
    ech = ann.echelon()
    comp = [j for j in range(M.dim) if j not in ech.pivots]

    def split(vec):
        """vec = sum lam_t ann_t + rest with rest supported on comp."""
        return [vec[pc] for pc in ech.pivots], ech.reduce(vec)

    base_products = {}
    theta_vals = [dict() for _ in range(ann.dim)]
    for bi, i in enumerate(comp):
        for bj, j in enumerate(comp[bi:], start=bi):
            lams, rest = split(M.basis_product(i, comp[bj]))
            terms = {}
            for bk, k in enumerate(comp):
                if rest[k]:
                    terms[bk] = rest[k]
            if any(rest[k] for k in range(M.dim) if k not in comp):
                raise NotAnExtensionError("quotient products do not close on the complement")
            if terms:
                base_products[(bi, bj)] = terms
            for t, lam in enumerate(lams):
                if lam:
                    theta_vals[t][(bi, bj)] = lam
    base = Algebra(F, tuple(M.names[i] for i in comp), base_products)
    cocycles = []
    for t in range(ann.dim):
        c = Cocycle.zero(base)
        for (i, j), lam in theta_vals[t].items():
            c = c.add(Cocycle.delta(base, i, j, lam))
        cocycles.append(c)
    return base, cocycles


def section_morphism_matrix(M: Algebra, base: Algebra) -> Matrix:
    """Block map from central_extend(reconstruct(M)) back to M's coordinates."""
    ann = cached_annihilator(M)
    pivots = ann.echelon().pivots
    comp = [j for j in range(M.dim) if j not in pivots]
    cols = [tuple(M.field.one if k == i else M.field.zero for k in range(M.dim)) for i in comp]
    cols += [ann.basis.row(r) for r in range(ann.dim)]
    return Matrix.from_rows(M.field, [[col[r] for col in cols] for r in range(M.dim)])
