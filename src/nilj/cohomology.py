"""Jordan cocycles, coboundaries and second cohomology.

A scalar cocycle is a symmetric bilinear form, stored as its upper-triangle
coordinates in the fixed order (0,0), (0,1), ..., (0,n-1), (1,1), ...,
(n-1,n-1); its symmetric n x n matrix is built only when read.  Vector-valued
cocycles are plain lists of scalar ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .algebra import (
    Algebra,
    _compose,
    _mod,
    _upper_indices,
    annihilator,
    structure_tensor,
)
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NiljError,
)
from .linalg import Matrix, Subspace


def sym_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


@dataclass(frozen=True)
class Cocycle:
    """Symmetric bilinear map on an algebra, by its upper-triangle coordinates."""

    algebra: Algebra
    coords: tuple

    @staticmethod
    def from_upper(A: Algebra, coords) -> "Cocycle":
        coords = list(coords)
        if len(coords) != sym_dim(A.dim):
            raise DimensionMismatchError("upper-triangle coordinate length mismatch")
        return Cocycle(A, tuple(A.field.of(c) for c in coords))

    @staticmethod
    def zero(A: Algebra) -> "Cocycle":
        return Cocycle.from_upper(A, [A.field.zero] * sym_dim(A.dim))

    def upper(self) -> tuple:
        return self.coords

    @cached_property
    def mat(self) -> Matrix:
        """The symmetric n x n matrix of the form."""
        A = self.algebra
        n = A.dim
        data = [A.field.zero] * (n * n)  # row-major
        for (i, j), c in zip(sym_pairs(n), self.coords):
            data[i * n + j] = data[j * n + i] = c
        return Matrix(n, n, tuple(data), A.field)

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class CocycleSpaces:
    """All cocycle data of one algebra, in upper-triangle coordinates.

    ``h2`` computes z2 and b2 at once; ``h2_reps``, ``h2_assoc_reps`` and
    ``extractor`` are computed on first read and then kept.  Equality and
    hashing compare (algebra, z2, b2) alone, which determine the rest.
    """

    algebra: Algebra
    z2: Subspace
    b2: Subspace

    @cached_property
    def h2_reps(self) -> tuple:
        """Cocycles extending b2 to z2."""
        return self._extend_b2(self.z2)

    @cached_property
    def h2_assoc_reps(self) -> tuple:
        """Cocycles extending b2 through the associativity constraint space.

        The associativity-constrained cocycles are that whole space, which lies
        in Z^2: a symmetric theta with theta(x o y, z) = theta(x, y o z) has
        theta(e_x, e_d (e_y e_z)) = theta(e_x e_d, e_y e_z), so the three
        positive terms of each linearized-identity row equal its three negative
        ones, and the cocycle rows vanish on that space.
        """
        return self._extend_b2(associativity_constraint_space(self.algebra))

    def _extend_b2(self, space: Subspace) -> tuple:
        """b2's extension through space, greedily in the fixed upper-triangle pivot order."""
        return tuple(Cocycle.from_upper(self.algebra, v) for v in self.b2.extend(space.vectors()))

    @property
    def h2_dim(self) -> int:
        return self.z2.dim - self.b2.dim

    @property
    def h2_assoc_dim(self) -> int:
        return len(self.h2_assoc_reps)

    @cached_property
    def extractor(self) -> Matrix:
        """The h x sym_dim(n) matrix that reads class coordinates off a cocycle.

        It is the first h rows of the inverse of [h2_reps | b2 | complement],
        h = len(h2_reps), with the complement extending z2 + b2 (that is z2,
        as b2 lies in z2 when A is Jordan) to the whole space.  On z2 + b2 it
        returns the coordinates on h2_reps and drops the b2 part.
        """
        F, width, h = self.algebra.field, self.z2.ambient, len(self.h2_reps)
        cols = [c.upper() for c in self.h2_reps] + self.b2.vectors()
        cols += self.z2.add(self.b2).extend(Matrix.identity(F, width).row_list())
        inverse = Matrix.from_rows(F, cols).transpose().inverse()
        return Matrix(h, width, inverse.data[:h * width], F)

    def class_coords(self, theta: Cocycle):
        """Coordinates of theta's class on the h2_reps basis (None if not in z2)."""
        vec = theta.upper()
        return self.extractor.apply(vec) if self.z2.contains(vec) else None

    def cocycle_from_class(self, coords) -> Cocycle:
        return _combination(self.algebra, coords, [rep.upper() for rep in self.h2_reps])


def _combination(A: Algebra, coeffs, vectors) -> Cocycle:
    """The cocycle sum_t coeffs[t] * vectors[t], vectors in upper-triangle coordinates."""
    F = A.field
    coords = [F.zero] * sym_dim(A.dim)
    for c, vec in zip(coeffs, vectors):
        c = F.of(c)
        if c:
            coords = [F.add(x, F.mul(c, y)) for x, y in zip(coords, vec)]
    return Cocycle.from_upper(A, coords)


def cocycle_space(A: Algebra) -> Subspace:
    """Solutions of the linearized-identity constraint, instantiated on basis quadruples."""
    T, p = structure_tensor(A)
    n = A.dim
    E = _compose(T, p)  # E[y, z, d] = e_d (e_y e_z)
    a, b, c, d = _upper_indices(n, 3, True)
    r = np.arange(len(a))
    theta = np.zeros((len(a), n, n), dtype=T.dtype)  # row r, coefficient of theta(e_i, e_j)
    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
        theta[r, x] += E[y, z, d]
    for (x, y), (z, w) in (((a, b), (c, d)), ((b, c), (a, d)), ((a, c), (b, d))):
        theta -= _mod(T[x, y][:, :, None] * T[z, w][:, None, :], p)
    return _symmetric_solutions(A, theta)


def coboundary_space(A: Algebra) -> Subspace:
    """Span of df for the n coordinate functionals f, (df)(x,y) = f(x o y)."""
    T, _ = structure_tensor(A)
    i, j = _upper_indices(A.dim)
    return Subspace.span(A.field, len(i), T[i, j].T)


def associativity_constraint_space(A: Algebra) -> Subspace:
    """Symmetric maps with theta(x o y, z) = theta(x, y o z) on all basis triples."""
    T, _ = structure_tensor(A)
    n = A.dim
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    r = np.arange(len(i))
    theta = np.zeros((len(i), n, n), dtype=T.dtype)
    theta[r, :, k] = T[i, j]
    theta[r, i, :] -= T[j, k]
    return _symmetric_solutions(A, theta)


def _symmetric_solutions(A: Algebra, theta) -> Subspace:
    """Symmetric maps in upper-triangle coordinates annihilated by every row.

    theta[r, i, j] is row r's coefficient of theta(e_i, e_j); both orders of a
    pair are folded onto its upper-triangle coordinate (``Subspace.kernel``
    reduces the rows mod p and drops the zero ones).
    """
    iu, ju = _upper_indices(A.dim)
    off = iu != ju
    rows = theta[:, iu, ju]
    rows[:, off] += theta[:, ju[off], iu[off]]
    return Subspace.kernel(A.field, len(iu), rows)


@lru_cache(maxsize=None)
def h2(A: Algebra) -> CocycleSpaces:
    """Cocycles and coboundaries of A, with deterministic cohomology representatives.

    Z^2 and B^2 are computed at once.  ``h2_reps`` and ``h2_assoc_reps`` extend
    a basis of B^2 greedily in the fixed upper-triangle pivot order, so
    repeated runs produce identical output; each is computed on first read,
    the associativity constraint space only for ``h2_assoc_reps``.
    """
    return CocycleSpaces(A, cocycle_space(A), coboundary_space(A))


def radical(thetas) -> Subspace:
    """Joint radical of a (vector-valued) cocycle: the kernel of all its rows."""
    thetas = list(thetas)
    if not thetas:
        raise NiljError("radical of an empty cocycle list is undefined")
    A = thetas[0].algebra
    for t in thetas:
        if t.algebra != A:
            raise FieldMismatchError("cocycles on different algebras")
    return Subspace.kernel(A.field, A.dim, [t.mat.row(i) for t in thetas for i in range(A.dim)])


def has_nontrivial_1dim_extension(A: Algebra) -> bool:
    """Whether some cocycle has radical meeting the annihilator trivially.

    With theta_1..theta_k a basis of Z2 and a = dim Ann, each c in the lattice
    {c in N^k : c_1 + ... + c_k <= a} is tried in order of total degree, and
    the first sum_i c_i theta_i whose radical meets Ann only in 0 answers True.
    The scan is exact.  With N a basis of Ann, a witness exists iff some a x a
    minor of N theta(c) is a nonzero polynomial in c; it has degree at most a,
    and a polynomial of degree at most a that vanishes on the lattice is zero
    once 1, ..., a are invertible (induct on k: restrict to c_k = 0, then
    shift c_k by 1).  So a spent lattice answers False over Q and over F_p
    with p > a, and raises ``NiljError`` over F_p with p <= a.
    """
    ann = annihilator(A)
    a, vectors = ann.dim, h2(A).z2.vectors()
    k = len(vectors)
    for degree in range(a + 1):
        for support in combinations_with_replacement(range(k), degree):
            c = [support.count(i) for i in range(k)]
            if radical([_combination(A, c, vectors)]).intersect(ann).is_zero():
                return True
    if A.field.p is not None and A.field.p <= a:
        raise NiljError(f"witness search exhausted: the lattice is not exact over F_{A.field.p}, p <= dim Ann")
    return False


def parse_cocycle(A: Algebra, text: str) -> Cocycle:
    """Parse cocycle syntax like "d(b,d)+1*d(c,c)" or "2*d(1,3), -1/2*d(a,b)".

    Terms are separated by "+" or ","; each term is an optional scalar
    coefficient (with "*") applied to d(x,y) where x, y are basis names or
    1-based indices in ASCII digits.
    """
    F = A.field
    coords = [F.zero] * sym_dim(A.dim)
    body = text.replace("-", "+-").strip()
    # split on top-level + and , but keep commas inside d(...) intact
    terms, depth, cur = [], 0, ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+," and depth == 0:
            if cur.strip():
                terms.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        terms.append(cur.strip())
    for term in terms:
        if not term:
            continue
        coef = F.one
        rest = term
        neg = rest.startswith("-")
        if neg:
            rest = rest[1:].strip()
        if "*" in rest:
            cs, rest = rest.split("*", 1)
            coef = F.parse(cs)
        if not (rest.startswith("d(") or rest.startswith("delta(")) or not rest.endswith(")"):
            raise NiljError(f"bad cocycle term {term!r}")
        inner = rest[rest.index("(") + 1:-1]
        xs = [s.strip() for s in inner.split(",")]
        if len(xs) != 2:
            raise NiljError(f"bad cocycle term {term!r}")
        idx = []
        for s in xs:
            if s.isascii() and s.isdigit():  # isdigit alone accepts '²', which int() refuses
                k = int(s) - 1
                if not 0 <= k < A.dim:
                    raise NiljError(f"index out of range in {term!r}")
                idx.append(k)
            else:
                idx.append(A.index_of(s))
        if neg:
            coef = F.neg(coef)
        t = sym_pairs(A.dim).index(tuple(sorted(idx)))
        coords[t] = F.add(coords[t], coef)
    return Cocycle.from_upper(A, coords)
