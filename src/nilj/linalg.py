"""Exact linear algebra: matrices, subspaces and one elimination kernel.

Matrices and subspaces are immutable and pure.  ``Echelon`` is the one scalar
elimination: every RREF, rank, kernel, solution, determinant, inverse, span,
membership test and intersection here runs on it.  Over Q it runs
fraction-free on Python ints, and a ``Subspace`` keeps the int rows its
``Echelon`` left.  ``Fraction`` values are built only where results are read:
``Subspace.vectors``, ``Echelon.rows``, ``residual``, ``reduce`` and
``solution``, and the matrices of ``rref``, ``solve`` and ``inverse``.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError
from .fields import Field, same_field


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    data: tuple  # row-major scalars
    field: Field

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatchError("ragged rows")
        data = tuple(field.of(x) for r in rows for x in r)
        return Matrix(len(rows), ncols, data, field)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(n, n, tuple(field.one if i == j else field.zero
                                  for i in range(n) for j in range(n)), field)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (field.zero,) * (rows * cols), field)

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
                      self.field)

    def mul(self, other: "Matrix") -> "Matrix":
        F = same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatchError("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = F.zero
                for k in range(self.cols):
                    acc = F.add(acc, F.mul(ri[k], other.at(k, j)))
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out), F)

    def apply(self, vec) -> tuple:
        """Matrix times a coordinate column vector."""
        if len(vec) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        F = self.field
        return tuple(
            _dot(F, self.row(i), vec) for i in range(self.rows)
        )

    def scale(self, c) -> "Matrix":
        F = self.field
        return Matrix(self.rows, self.cols, tuple(F.mul(c, x) for x in self.data), F)

    def rref(self) -> tuple["Matrix", int, tuple]:
        """Reduced row echelon form; returns (rref, rank, pivot columns)."""
        ech = Echelon(self.field, self.cols)
        for i in range(self.rows):
            ech.add(self.row(i))
        zeros = (self.field.zero,) * (self.cols * (self.rows - ech.rank))
        data = tuple(x for row in ech.rows for x in row) + zeros
        return Matrix(self.rows, self.cols, data, self.field), ech.rank, tuple(ech.pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> "Subspace":
        """Basis of {x : self @ x = 0} as a Subspace of dimension cols."""
        return Subspace.kernel(self.field, self.cols, [self.row(i) for i in range(self.rows)])

    def solve(self, rhs) -> tuple | None:
        """One solution x of self @ x = rhs, or None when inconsistent."""
        F = self.field
        if len(rhs) != self.rows:
            raise DimensionMismatchError("rhs length mismatch")
        ech = Echelon(F, self.cols + 1, key=self.cols)
        for i in range(self.rows):
            if not ech.add((*self.row(i), F.of(rhs[i]))) and ech.residual[-1]:
                return None
        return tuple(ech.solution())

    def det(self):
        if self.rows != self.cols:
            raise DimensionMismatchError("determinant of non-square matrix")
        F = self.field
        ech = Echelon(F, self.cols)
        det = F.one
        for i in range(self.rows):
            if not ech.add(self.row(i)):
                return F.zero
            # the residual's lead is divided out; each pivot already taken to
            # its right is one row swap of the triangular form
            pc, lead = next((t, x) for t, x in enumerate(ech.residual) if x)
            det = F.mul(det, lead)
            if sum(q > pc for q in ech.pivots) % 2:
                det = F.neg(det)
        return det

    def is_invertible(self) -> bool:
        return self.rows == self.cols and not self.field.is_zero(self.det())

    def inverse(self) -> "Matrix":
        F = self.field
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        n = self.rows
        ident = Matrix.identity(F, n)
        ech = Echelon(F, 2 * n, key=n)
        for i in range(n):
            if not ech.add(self.row(i) + ident.row(i)):
                raise SingularMatrixError("matrix is singular")
        return Matrix(n, n, tuple(x for row in ech.rows for x in row[n:]), F)


def _dot(F: Field, u, v):
    acc = F.zero
    for a, b in zip(u, v):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n: ``rows`` holds its reduced row echelon basis as tuples of
    ints, in the canonical form of ``Echelon.ints`` (residues over F_p, primitive
    rows with positive leads over Q), so equal subspaces compare and hash equal."""

    field: Field
    ambient: int
    rows: tuple

    @staticmethod
    def span(field: Field, ambient: int, vectors) -> "Subspace":
        """The span of vectors: ints or Fractions over Q, anything ``field.of`` takes
        over F_p, or the rows of an integer array."""
        return _subspace(_add_all(Echelon(field, ambient), vectors))

    @staticmethod
    def kernel(field: Field, ambient: int, rows) -> "Subspace":
        """{x : r . x = 0 for every row r}, rows given as for ``span``."""
        return _kernel(_add_all(Echelon(field, ambient), rows))

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, ())

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        """The pivot column of each row."""
        return tuple(next(t for t, x in enumerate(row) if x) for row in self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def vectors(self) -> list:
        """The reduced basis rows as tuples of scalars: Fractions over Q, residues over F_p."""
        if self.field.p is not None:
            return list(self.rows)
        zero = self.field.zero
        return [tuple(Fraction(x, row[pc]) if x else zero for x in row)
                for pc, row in zip(self.pivots, self.rows)]

    def echelon(self) -> "Echelon":
        """An Echelon seeded with this subspace's rows."""
        return Echelon(self.field, self.ambient, rref=self.rows)

    def extend(self, vectors) -> list:
        """The vectors, in order, independent of this subspace and of those kept before them."""
        F, ech, kept = self.field, self.echelon(), []
        for v in vectors:
            if len(v) != self.ambient:
                raise DimensionMismatchError("vector length mismatch")
            if ech.add(v if F.p is None else [F.of(x) for x in v]):
                kept.append(v)
        return kept

    def contains(self, vec) -> bool:
        return not self.extend([vec])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        ech = self.echelon()
        return not any(any(ech._reduce(row, True)[0]) for row in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return _subspace(_add_ints(self.echelon(), other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors orthogonal to the null vectors of both bases."""
        self._check(other)
        null = self.echelon().null_vectors() + other.echelon().null_vectors()
        return _kernel(_add_ints(Echelon(self.field, self.ambient), null))

    def _check(self, other: "Subspace"):
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimension mismatch")


def _add_all(ech: "Echelon", vectors) -> "Echelon":
    """ech with the vectors added, each checked for length and, over F_p, coerced entry by entry;
    an integer array is checked and reduced mod p in one step instead, its zero rows dropped, and
    over Q skips the scan for denominators."""
    field, width = ech.field, ech.key
    coerce, ints = field.p is not None, isinstance(vectors, np.ndarray)
    if ints:
        if len(vectors) and vectors.shape[1] != width:
            raise DimensionMismatchError("vector length mismatch")
        vectors = vectors if field.p is None else vectors % field.p
        vectors, coerce = vectors[vectors.any(axis=1)].tolist(), False
    for v in vectors:
        if len(v) != width:
            raise DimensionMismatchError("vector length mismatch")
        ech.add([field.of(x) for x in v] if coerce else v, ints)
    return ech


def _add_ints(ech: "Echelon", rows) -> "Echelon":
    """ech with rows of Python ints added as they are: residues over F_p, unchecked."""
    for row in rows:
        ech.add(row, True)
    return ech


def _subspace(ech: "Echelon") -> Subspace:
    """The row space of an Echelon with no ride-along columns."""
    return Subspace(ech.field, ech.key, tuple(map(tuple, ech.ints)))


def _kernel(ech: "Echelon") -> Subspace:
    """The kernel of an Echelon with no ride-along columns."""
    return _subspace(_add_ints(Echelon(ech.field, ech.key), ech.null_vectors()))


class Echelon:
    """An incremental reduced row echelon basis over one field.

    Rows stay fully reduced and sorted by pivot.  Pivots are taken only in the
    first ``key`` columns; later columns ride along with their row, so an
    augmented right-hand side or an image vector is reduced together with it.

    ``ints`` holds the rows as Python ints: over F_p the reduced rows (callers
    coerce to residues); over Q, fraction-free, the primitive integer multiples
    of the reduced rows with positive leads.  A vector's denominators are
    cleared once, and each step cross-multiplies by a lead and divides out the
    content; ``rows``, ``residual``, ``reduce`` and ``solution`` build their
    Fractions when read.  ``rref`` seeds rows already fully reduced, in the form
    of ``ints``.
    """

    __slots__ = ("field", "key", "ints", "pivots", "_sparse", "_res")

    def __init__(self, field: Field, width: int, key: int | None = None, rref=()):
        self.field = field
        self.key = width if key is None else key
        self.ints = [list(row) for row in rref]
        self.pivots = [next(t for t, x in enumerate(row) if x) for row in self.ints]
        self._sparse = [[(t, x) for t, x in enumerate(row) if x] for row in self.ints]  # nonzero (column, value)
        self._res = None  # (v, num, den): the last added vector reduced to v * den / num

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list:
        if self.field.p is not None:
            return list(self.ints)
        return [self._view(row, row[pc], 1) for pc, row in zip(self.pivots, self.ints)]

    @property
    def residual(self):
        """What the last added vector reduced to; None before the first add."""
        if self._res is None:
            return None
        return self._res[0] if self.field.p is not None else self._view(*self._res)

    def _clear(self, vec):
        """(ints, num): vec * num as ints; num is 1 over F_p."""
        if self.field.p is not None or all(type(x) is int for x in vec):
            return list(vec), 1
        num = lcm(*(x.denominator for x in vec))
        return [x.numerator * (num // x.denominator) for x in vec], num

    def _view(self, v, num, den):
        """The exact vector v * den / num over Q, as Fractions."""
        zero = self.field.zero
        return [Fraction(x * den, num) if x else zero for x in v]

    def _step(self, v, pc, row, sparse):
        """(w, s, c) over Q: w = (s v - f row) / c has no entry at row's pivot pc."""
        f = v[pc]
        g = gcd(row[pc], f)
        s, f = row[pc] // g, f // g
        if s != 1:
            v = [s * x for x in v]
        for t, x in sparse:
            v[t] -= f * x
        c = gcd(*v) or 1
        return (v if c == 1 else [x // c for x in v]), s, c

    def _reduce(self, vec, ints=False):
        """(v, num, den) with v * den / num what ``reduce`` returns; ``ints``: vec holds only ints."""
        p = self.field.p
        if p is not None:
            v = list(vec)
            for pc, sparse in zip(self.pivots, self._sparse):
                if f := v[pc]:
                    for t, x in sparse:
                        v[t] = (v[t] - f * x) % p
            return v, 1, 1
        v, num = (list(vec), 1) if ints else self._clear(vec)
        den = 1
        for pc, row, sparse in zip(self.pivots, self.ints, self._sparse):
            if v[pc]:
                v, s, c = self._step(v, pc, row, sparse)
                num, den = num * s, den * c
        return v, num, den

    def reduce(self, vec) -> list:
        """vec minus the combination of rows that agrees with it on every pivot."""
        v, num, den = self._reduce(vec)
        return v if self.field.p is not None else self._view(v, num, den)

    def add(self, vec, ints=False) -> bool:
        """Extend the basis by vec; False when it reduces to zero on the key columns.

        Either way ``residual`` keeps what vec reduced to.  ``ints`` as for ``_reduce``.
        """
        self._res = self._reduce(vec, ints)
        v = self._res[0]
        pc = next((t for t in range(self.key) if v[t]), None)
        if pc is None:
            return False
        p = self.field.p
        if p is None:
            c = gcd(*v) if v[pc] > 0 else -gcd(*v)
            dense = [x // c for x in v]
        else:
            s = pow(v[pc], -1, p)
            dense = [s * x % p for x in v]
        new = [(t, x) for t, x in enumerate(dense) if x]
        for i, row in enumerate(self.ints):
            if f := row[pc]:
                if p is None:
                    self.ints[i] = row = self._step(row, pc, dense, new)[0]
                else:
                    for t, x in new:
                        row[t] = (row[t] - f * x) % p
                self._sparse[i] = [(t, x) for t, x in enumerate(row) if x]
        pos = bisect(self.pivots, pc)
        self.pivots.insert(pos, pc)
        self.ints.insert(pos, dense)
        self._sparse.insert(pos, new)
        return True

    def null_vectors(self) -> list:
        """Per free key column, its unit vector minus its reduced row entries at
        the pivots, scaled to ints by the lcm of the leads it meets; residues over F_p."""
        p, out = self.field.p, []
        for fc in (t for t in range(self.key) if t not in self.pivots):
            hit = [(pc, row) for pc, row in zip(self.pivots, self.ints) if row[fc]]
            scale = lcm(*(row[pc] for pc, row in hit))
            vec = [0] * self.key
            vec[fc] = scale
            for pc, row in hit:
                vec[pc] = -row[fc] * (scale // row[pc]) if p is None else -row[fc] % p
            out.append(vec)
        return out

    def solution(self) -> list:
        """x with x[pivot] = the first ride-along entry of that pivot's row, 0 elsewhere."""
        x = [self.field.zero] * self.key
        for pc, row in zip(self.pivots, self.rows):
            x[pc] = row[self.key]
        return x

