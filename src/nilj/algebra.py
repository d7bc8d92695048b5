"""Finite-dimensional commutative algebras given by symmetric structure constants.

Products are stored sparsely and only for basis index pairs i <= j, so
commutativity is structural.  All operations are pure; algebras are immutable
and hashable, which lets expensive per-algebra computations be cached.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    DimensionMismatchError,
    DocumentError,
    FieldMismatchError,
    FieldReductionError,
    NiljError,
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


def is_multiplicative(A: Algebra, B: Algebra, phi: Matrix) -> bool:
    """phi(e_i e_j) = phi(e_i) phi(e_j) for every basis pair of A, exactly; the
    columns of phi are the images of A's basis in B.  Over Q the tensors are
    s_A T_A and s_B T_B and phi is P / d, so both sides are taken d^2 s_A s_B times.
    With R, b_A and b_B the largest |entries| of P, T_A and T_B, the sides stay
    within d s_B n_A b_A R and s_A n_B^2 R^2 b_B; at 2^63 or more for their sum
    the contraction runs in object dtype.  A map of the wrong shape or over
    another field is refused before any arithmetic."""
    same_field(same_field(A.field, B.field), phi.field)
    if (phi.rows, phi.cols) != (B.dim, A.dim):
        raise DimensionMismatchError("map matrix shape mismatch")
    (TA, p), (TB, _) = structure_tensor(A), structure_tensor(B)
    rows, left, right, dtype = phi.row_list(), 1, 1, np.result_type(TA, TB)
    if p is None:
        d = math.lcm(*(x.denominator for row in rows for x in row))
        rows = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
        left, right = d * _scale(B), _scale(A)
        R = max(abs(x) for row in rows for x in row)
        if left * A.dim * _magnitude(TA) * R + right * B.dim**2 * R * R * _magnitude(TB) >= 2**63:
            dtype = object
    P = np.array(rows, dtype=dtype).reshape(B.dim, A.dim)
    half = _mod(P.T @ TB.reshape(B.dim, B.dim * B.dim), p).reshape(A.dim, B.dim, B.dim)  # [i, c, t]
    return not _mod(left * _mod(TA @ P.T, p) - right * _mod(P.T @ half, p), p).any()


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


def _check_int64(p: int, width: int):
    """Refuse a modulus whose width-term sums of residue products overflow int64."""
    if not _fits_int64(p, width):
        raise NiljError(f"F_{p} is too large for exact int64 sums of {width} products")


def _fits_int64(p: int, width: int) -> bool:
    return width * (p - 1) ** 2 < 2**63


@lru_cache(maxsize=None)
def structure_tensor(A: Algebra):
    """(T, p): T[i, j, k] is the coefficient of e_k in e_i e_j, p the modulus.

    Built once per algebra and read-only.  Over F_p the entries are residues,
    int64 wherever ``_check_int64(p, n)`` would pass: every contraction over T
    sums at most n products of two reduced residues and is reduced mod p at once.
    Over Q (p is None) they are the constants scaled by the lcm of their
    denominators, int64 when their largest |entry| B has 32 n^2 B^3 < 2^63 and
    Python ints (object dtype) otherwise.  Sums of absolute values bound every
    partial sum of a contraction made from T alone: ``_compose`` n B^2,
    ``is_associative`` 2 n B^2, the linearized Jordan identity 6 n^2 B^3 (three
    terms of n^2 B^3 a side), the defining identity 32 n^2 B^3, the deepest (x
    has at most two unit coordinates, so x e_k is within 2 B, x x' 4 B, x^2 e_k
    4 n B^2, either side 16 n^2 B^3), the Z^2 rows 3 n B^2 + 6 B^2 (three
    compositions and three products of two constants, both orders of a pair
    folded), and the derivation, annihilator, coboundary and associativity-
    constraint rows 3 B.  ``is_multiplicative`` and ``power_filtration``, which
    multiply T by other integers, check their own bounds.  The rows read off T
    reach the fraction-free ``Subspace.kernel`` and ``span`` as Python ints.
    """
    n, p = A.dim, A.field.p
    if p is None:
        # Exact: every identity or system read off T is homogeneous in the
        # product (the Jordan identity of degree 3, associativity and the
        # cocycle rows of degree 2, the associativity-constraint, annihilator,
        # derivation and coboundary rows of degree 1), so the scale multiplies
        # both sides or a whole row by a power of itself and changes no
        # verdict and no solution space.
        scale = _scale(A)
    T = np.zeros((n, n, n), dtype=object)
    for (i, j), terms in A._sc.items():
        for k, c in terms.items():
            T[i, j, k] = T[j, i, k] = c if p is not None else c.numerator * (scale // c.denominator)
    if _fits_int64(p, n) if p is not None else 32 * n * n * _magnitude(T) ** 3 < 2**63:
        T = T.astype(np.int64)
    T.setflags(write=False)
    return T, p


def _scale(A: Algebra) -> int:
    """The lcm of the denominators of A's structure constants over Q."""
    return math.lcm(*(c.denominator for terms in A._sc.values() for c in terms.values()))


def _magnitude(T) -> int:
    """The largest |entry| of an integer tensor."""
    return int(np.abs(T).max())


def _mod(X, p):
    return X if p is None else X % p


def _compose(T, p):
    """E[x, y, z, m]: the coefficient of e_m in (e_x e_y) e_z."""
    n = len(T)
    return _mod(T.reshape(n * n, n) @ T.reshape(n, n * n), p).reshape(n, n, n, n)


@lru_cache(maxsize=None)
def _upper_indices(n: int, r: int = 2, last: bool = False) -> tuple:
    """The index arrays of ``combinations_with_replacement(range(n), r)`` (``np.triu_indices(n)``'s for r = 2);
    with ``last``, each tuple once per trailing index t = 0..n-1, t fastest.  Cached, so read-only."""
    tails = [(t,) for t in range(n)] if last else [()]
    rows = np.array([c + t for c in combinations_with_replacement(range(n), r) for t in tails], dtype=np.int64).T
    rows.flags.writeable = False
    return tuple(rows)


def is_associative(A: Algebra) -> bool:
    T, p = structure_tensor(A)
    E = _compose(T, p)
    # e_i (e_j e_k) = (e_j e_k) e_i by commutativity
    return not _mod(E - E.transpose(2, 0, 1, 3), p).any()


def jordan_identity_holds(A: Algebra) -> bool:
    """Full linearization on all basis quadruples plus the defining identity.

    The defining identity x^2 o (x o y) = (x^2 o y) o x is additionally checked
    for x, y ranging over basis vectors and pairwise sums of basis vectors,
    which keeps the test meaningful even where linearization arguments need
    characteristic restrictions.
    """
    T, p = structure_tensor(A)
    n = A.dim
    E = _compose(T, p)
    # X[x, y, z, d, m]: e_x (e_d (e_y e_z)); Q[x, y, z, w, m]: (e_x e_y)(e_z e_w)
    X = _mod(E.reshape(n**3, n) @ T.reshape(n, n * n), p).reshape((n,) * 5)
    X = X.transpose(3, 0, 1, 2, 4)
    Q = _mod(T.reshape(n * n, n) @ E.transpose(2, 0, 1, 3).reshape(n, n**3), p)
    Q = Q.reshape((n,) * 5)
    # linearized identity at (a, b, c, d), symmetric in (a, b, c)
    lhs = X + X.transpose(1, 0, 2, 3, 4) + X.transpose(1, 2, 0, 3, 4)
    rhs = Q + Q.transpose(2, 0, 1, 3, 4) + Q.transpose(0, 2, 1, 3, 4)
    if _mod(lhs - rhs, p).any():
        return False

    # defining identity on basis vectors and pairwise sums
    eye = np.eye(n, dtype=T.dtype)
    S = np.concatenate([eye] + [eye[i] + eye[i + 1:] for i in range(n)])
    U = _mod(S @ T.reshape(n, n * n), p).reshape(-1, n, n)  # U[s]: y -> x_s y
    XY = _mod(S @ U, p)  # XY[s, t] = x_s x_t
    diag = np.arange(len(S))
    W = _mod(XY[diag, diag] @ T.reshape(n, n * n), p).reshape(-1, n, n)  # W[s]: y -> x_s^2 y
    lhs = _mod(XY @ W, p)  # x^2 (x y)
    rhs = _mod(_mod(S @ W, p) @ U, p)  # (x^2 y) x
    return not _mod(lhs - rhs, p).any()


# -- filtration, annihilator, derivations ----------------------------------------


def power_filtration(A: Algebra):
    """[J^1, J^2, ...] with ideal powers J^k = sum_{i+j=k} J^i o J^j (``_power_filtration``)."""
    return list(_power_filtration(A))


@lru_cache(maxsize=None)
def _power_filtration(A: Algebra) -> tuple:
    """(J^1, J^2, ...) with ideal powers J^k = sum_{i+j=k} J^i o J^j, computed once per algebra.

    Each J^i o J^j is one contraction of the integer basis rows of J^i and
    J^j with the structure tensor.  Stops at (and includes) the first zero
    subspace.  Raises if the algebra is not nilpotent within dim+1 steps.
    Over Q an entry of J^i o J^j sums n^2 products of an entry of T and one of
    each row; the rows of J^i, entries within R_i, leave T's dtype for object
    dtype once n^2 R_i^2 B reaches 2^63, B the largest |entry| of T.
    """
    T, p = structure_tensor(A)
    n, B = A.dim, _magnitude(T)

    def basis_rows(S):
        big = p is None and n * n * max((abs(x) for row in S.rows for x in row), default=0) ** 2 * B >= 2**63
        return np.array(S.rows, dtype=object if big else T.dtype).reshape(-1, n)

    powers = [Subspace.full(A.field, n)]
    rows = [basis_rows(powers[0])]
    while not powers[-1].is_zero():
        k = len(powers) + 1
        prods = []
        for i in range(1, k // 2 + 1):
            left = _mod(rows[i - 1] @ T.reshape(n, n * n), p).reshape(-1, n, n)  # u o e_j
            prods.append(_mod(rows[k - i - 1] @ left, p).reshape(-1, n))
        powers.append(Subspace.span(A.field, n, np.concatenate(prods)))
        rows.append(basis_rows(powers[-1]))
        if len(powers) > A.dim + 1:
            raise NotNilpotentError("algebra is not nilpotent")
    return tuple(powers)


@lru_cache(maxsize=None)
def annihilator(A: Algebra) -> Subspace:
    """{x : x o e_j = 0 for all j} (the center, in the sense used throughout),
    computed once per algebra."""
    T, _ = structure_tensor(A)
    # row (j, k) reads the coefficient of e_k in x o e_j
    return Subspace.kernel(A.field, A.dim, T.transpose(1, 2, 0).reshape(-1, A.dim))


def derivation_algebra(A: Algebra) -> Subspace:
    """Solution space of D(x o y) = D(x) o y + x o D(y), inside n^2 coordinates.

    D is flattened row-major: unknown (r, c) = entry r*n + c of the ambient
    coordinates (columns of D are images of basis vectors).
    """
    return Subspace.kernel(A.field, A.dim * A.dim, _derivation_rows(A))


def _derivation_rows(A: Algebra):
    """The nonzero rows of the derivation constraints, over n^2 coordinates as in
    ``derivation_algebra``."""
    T, _ = structure_tensor(A)
    n = A.dim
    i, j, k = _upper_indices(n, 2, True)
    q = np.arange(len(k))
    # row (i <= j, k): coefficient k of D(e_i o e_j) - D(e_i) o e_j - e_i o D(e_j)
    rows = np.zeros((len(k), n, n), dtype=T.dtype)
    rows[q, k] = T[i, j]
    rows[q, :, i] -= T[j, :, k]
    rows[q, :, j] -= T[i, :, k]
    rows = rows.reshape(len(k), n * n)
    return rows[(rows != 0).any(axis=1)]


@lru_cache(maxsize=None)
def invariant_vector(A: Algebra) -> InvariantVector:
    """The fingerprint of A, computed once per algebra; the derivation dimension is
    n^2 - rank of the derivation rows, dim(Ann meet J^2) = dim Ann + dim J^2 - dim(Ann + J^2)."""
    n, powers = A.dim, _power_filtration(A)
    ann = annihilator(A)
    sq = powers[1] if len(powers) > 1 else Subspace.zero(A.field, n)
    return InvariantVector(
        dim=n,
        power_dims=tuple(s.dim for s in powers[1:]),
        nil_index=len(powers),
        ann_dim=ann.dim,
        ann_meet_sq_dim=ann.dim + sq.dim - ann.add(sq).dim,
        der_dim=n * n - Subspace.span(A.field, n * n, _derivation_rows(A)).dim,
        assoc=is_associative(A),
    )


# -- constructions ----------------------------------------------------------------


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


def next_names(A: Algebra, count: int):
    """Default labels for appended central basis vectors: next free letters."""
    taken = list(A.names)
    out = []
    for _ in range(count):
        nm = next(ch for ch in string.ascii_lowercase if ch not in taken)
        taken.append(nm)
        out.append(nm)
    return tuple(out)
