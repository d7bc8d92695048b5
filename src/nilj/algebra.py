"""Finite-dimensional commutative algebras given by symmetric structure constants.

Products are stored sparsely and only for basis index pairs i <= j, so
commutativity is structural.  All operations are pure; algebras are immutable
and hashable, which lets expensive per-algebra computations be cached.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import (
    DimensionMismatchError,
    DocumentError,
    FieldMismatchError,
    FieldReductionError,
    NotNilpotentError,
)
from .fields import Field, same_field
from .linalg import Matrix, Subspace


class Algebra:
    """Commutative algebra with basis ``names`` over an exact field.

    ``products`` maps (i, j) with i <= j to {k: coefficient}; omitted pairs
    multiply to zero.
    """

    __slots__ = ("field", "dim", "names", "_sc", "_key")

    def __init__(self, field: Field, names, products):
        names = tuple(names)
        if not names:
            raise DocumentError("algebra must have dim >= 1")
        if len(set(names)) != len(names):
            raise DocumentError("duplicate basis names")
        n = len(names)
        sc = {}
        for (i, j), terms in products.items():
            if not (0 <= i <= j < n):
                raise DocumentError(f"bad product pair ({i},{j}); need 0 <= i <= j < dim")
            if (i, j) in sc:
                raise DocumentError(f"duplicate product pair ({i},{j})")
            row = {}
            for k, c in terms.items():
                if not 0 <= k < n:
                    raise DocumentError(f"bad product target index {k}")
                val = field.of(c)
                if val:
                    row[k] = val
            if row:
                sc[(i, j)] = row
        self.field = field
        self.dim = n
        self.names = names
        self._sc = sc
        self._key = (field, names,
                     tuple(sorted((i, j, tuple(sorted(r.items()))) for (i, j), r in sc.items())))

    def __eq__(self, other):
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field}, names={self.names})"

    # -- products ---------------------------------------------------------------

    def products(self):
        """Normalized copy of the structure constants."""
        return {pair: dict(terms) for pair, terms in sorted(self._sc.items())}

    def sc(self, i: int, j: int):
        """Structure row for the (unordered) basis pair {i, j}."""
        return self._sc.get((i, j) if i <= j else (j, i), {})

    def basis_product(self, i: int, j: int) -> tuple:
        out = [self.field.zero] * self.dim
        for k, c in self.sc(i, j).items():
            out[k] = c
        return tuple(out)

    def vec_mul(self, x, y) -> tuple:
        """Bilinear product of two coordinate vectors."""
        F = self.field
        out = [F.zero] * self.dim
        for (i, j), terms in self._sc.items():
            coef = F.mul(x[i], y[j])
            if i != j:
                coef = F.add(coef, F.mul(x[j], y[i]))
            if coef:
                for k, c in terms.items():
                    out[k] = F.add(out[k], F.mul(coef, c))
        return tuple(out)

    def element(self, coords) -> "Element":
        coords = tuple(self.field.of(c) for c in coords)
        if len(coords) != self.dim:
            raise DimensionMismatchError("coordinate length mismatch")
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        return self.element(tuple(self.field.one if k == i else self.field.zero
                                  for k in range(self.dim)))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DocumentError(f"no basis vector named {name!r}") from None


@dataclass(frozen=True)
class Element:
    algebra: Algebra
    coords: tuple

    def __mul__(self, other: "Element") -> "Element":
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise FieldMismatchError("elements of different algebras")
        return Element(self.algebra, self.algebra.vec_mul(self.coords, other.coords))

    def __add__(self, other: "Element") -> "Element":
        F = self.algebra.field
        return Element(self.algebra, tuple(F.add(a, b) for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)


def multiply(x: Element, y: Element) -> Element:
    return x * y


@dataclass(frozen=True)
class InvariantVector:
    """Isomorphism-invariant fingerprint used to certify non-isomorphism."""

    dim: int
    power_dims: tuple  # dim J^2, dim J^3, ... down to the first 0
    nil_index: int
    ann_dim: int
    ann_meet_sq_dim: int
    der_dim: int
    assoc: bool


# -- identities ------------------------------------------------------------------


def is_associative(A: Algebra) -> bool:
    for i in range(A.dim):
        for j in range(A.dim):
            eij = A.vec_mul(_unit(A, i), _unit(A, j))
            for k in range(A.dim):
                lhs = A.vec_mul(eij, _unit(A, k))
                rhs = A.vec_mul(_unit(A, i), A.vec_mul(_unit(A, j), _unit(A, k)))
                if lhs != rhs:
                    return False
    return True


def jordan_identity_holds(A: Algebra) -> bool:
    """Full linearization on basis quadruples plus the defining identity.

    The defining identity x^2 o (x o y) = (x^2 o y) o x is additionally checked
    for x, y ranging over basis vectors and pairwise sums of basis vectors,
    which keeps the test meaningful even where linearization arguments need
    characteristic restrictions.
    """
    F = A.field
    n = A.dim
    units = [_unit(A, i) for i in range(n)]
    prods = {}
    for i in range(n):
        for j in range(i, n):
            prods[(i, j)] = A.basis_product(i, j)

    def pr(i, j):
        return prods[(i, j) if i <= j else (j, i)]

    # linearized identity, symmetric in (a, b, c); d free
    for a, b, c in combinations_with_replacement(range(n), 3):
        for d in range(n):
            lhs = [F.zero] * n
            for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
                t = A.vec_mul(units[d], pr(y, z))
                t = A.vec_mul(units[x], t)
                lhs = [F.add(u, v) for u, v in zip(lhs, t)]
            rhs = [F.zero] * n
            for (x, y), (z, w) in (((a, b), (c, d)), ((b, c), (a, d)), ((a, c), (b, d))):
                t = A.vec_mul(pr(x, y), pr(z, w))
                rhs = [F.add(u, v) for u, v in zip(rhs, t)]
            if lhs != rhs:
                return False

    # defining identity on basis vectors and pairwise sums
    samples = list(units)
    for i in range(n):
        for j in range(i + 1, n):
            samples.append(tuple(F.add(u, v) for u, v in zip(units[i], units[j])))
    for x in samples:
        xx = A.vec_mul(x, x)
        for y in samples:
            lhs = A.vec_mul(xx, A.vec_mul(x, y))
            rhs = A.vec_mul(A.vec_mul(xx, y), x)
            if lhs != rhs:
                return False
    return True


def _unit(A: Algebra, i: int) -> tuple:
    return tuple(A.field.one if k == i else A.field.zero for k in range(A.dim))


# -- filtration, annihilator, derivations ----------------------------------------


def power_filtration(A: Algebra):
    """[J^1, J^2, ...] with ideal powers J^k = sum_{i+j=k} J^i o J^j.

    Stops at (and includes) the first zero subspace.  Raises if the algebra is
    not nilpotent within dim+1 steps.
    """
    F = A.field
    powers = [Subspace.full(F, A.dim)]
    while not powers[-1].is_zero():
        k = len(powers) + 1
        vecs = []
        for i in range(1, k // 2 + 1):
            j = k - i
            for u in powers[i - 1].vectors():
                for v in powers[j - 1].vectors():
                    vecs.append(A.vec_mul(u, v))
        powers.append(Subspace.span(F, A.dim, vecs))
        if len(powers) > A.dim + 1:
            raise NotNilpotentError("algebra is not nilpotent")
    return powers


def nil_index(A: Algebra) -> int:
    return len(power_filtration(A))


def annihilator(A: Algebra) -> Subspace:
    """{x : x o e_j = 0 for all j} (the center, in the sense used throughout)."""
    F = A.field
    rows = []
    for j in range(A.dim):
        for k in range(A.dim):
            rows.append([A.sc(i, j).get(k, F.zero) for i in range(A.dim)])
    return Matrix.from_rows(F, rows).nullspace()


def derivation_algebra(A: Algebra) -> Subspace:
    """Solution space of D(x o y) = D(x) o y + x o D(y), inside n^2 coordinates.

    D is flattened row-major: unknown (r, c) = entry r*n + c of the ambient
    coordinates (columns of D are images of basis vectors).
    """
    F = A.field
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(i, n):
            cij = A.sc(i, j)
            for k in range(n):
                row = [F.zero] * (n * n)
                # D(e_i o e_j) coordinate k: sum_m c_ij^m D[k][m]
                for m, c in cij.items():
                    row[k * n + m] = F.add(row[k * n + m], c)
                # -(D(e_i) o e_j)_k = -sum_r D[r][i] c(r,j)^k
                for r in range(n):
                    c = A.sc(r, j).get(k)
                    if c:
                        row[r * n + i] = F.sub(row[r * n + i], c)
                    c = A.sc(r, i).get(k)
                    if c:
                        row[r * n + j] = F.sub(row[r * n + j], c)
                rows.append(row)
    return Matrix.from_rows(F, rows).nullspace()


def invariant_vector(A: Algebra) -> InvariantVector:
    powers = power_filtration(A)
    ann = annihilator(A)
    sq = powers[1] if len(powers) > 1 else Subspace.zero(A.field, A.dim)
    return InvariantVector(
        dim=A.dim,
        power_dims=tuple(s.dim for s in powers[1:]),
        nil_index=len(powers),
        ann_dim=ann.dim,
        ann_meet_sq_dim=ann.intersect(sq).dim,
        der_dim=derivation_algebra(A).dim,
        assoc=is_associative(A),
    )


# -- constructions ----------------------------------------------------------------


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    same_field(A.field, B.field)
    names = list(A.names)
    for nm in B.names:
        names.append(_fresh_name(nm, names))
    products = {pair: dict(terms) for pair, terms in A._sc.items()}
    off = A.dim
    for (i, j), terms in B._sc.items():
        products[(i + off, j + off)] = {k + off: c for k, c in terms.items()}
    return Algebra(A.field, names, products)


def zero_algebra(field: Field, dim: int, names=None) -> Algebra:
    if names is None:
        names = tuple(string.ascii_lowercase[:dim])
    return Algebra(field, names, {})


def change_basis(A: Algebra, P: Matrix) -> Algebra:
    """The same algebra written on the basis f_j = sum_i P[i][j] e_i."""
    if P.rows != A.dim or P.cols != A.dim:
        raise DimensionMismatchError("basis-change matrix shape mismatch")
    Pinv = P.inverse()
    products = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            w = A.vec_mul(P.col(i), P.col(j))
            coords = Pinv.apply(w)
            terms = {k: c for k, c in enumerate(coords) if c}
            if terms:
                products[(i, j)] = terms
    return Algebra(A.field, A.names, products)


def reduce_mod(A: Algebra, p: int) -> Algebra:
    """Reduce a rational algebra modulo p (denominators must be invertible)."""
    Fp = Field(p)
    if A.field.is_prime_field:
        if A.field.p != p:
            raise FieldReductionError(f"algebra already lives over F_{A.field.p}")
        return A
    products = {}
    for (i, j), terms in A._sc.items():
        row = {}
        for k, c in terms.items():
            try:
                row[k] = Fp.of(c)
            except FieldMismatchError as exc:
                raise FieldReductionError(str(exc)) from exc
        products[(i, j)] = row
    return Algebra(Fp, A.names, products)


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    for ch in string.ascii_lowercase:
        if ch not in taken:
            return ch
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def next_names(A: Algebra, count: int):
    """Default labels for appended central basis vectors: next free letters."""
    taken = list(A.names)
    out = []
    for _ in range(count):
        nm = next(ch for ch in string.ascii_lowercase if ch not in taken)
        taken.append(nm)
        out.append(nm)
    return tuple(out)


@lru_cache(maxsize=None)
def cached_annihilator(A: Algebra) -> Subspace:
    return annihilator(A)
