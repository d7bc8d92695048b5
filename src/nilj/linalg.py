"""Exact linear algebra: matrices, subspaces and one elimination kernel.

Matrices and subspaces are immutable and pure.  Subspaces are always stored
with a reduced row echelon basis, so two equal subspaces compare equal
structurally.  ``Echelon`` is the one scalar elimination: every RREF, rank,
kernel, solution, determinant, inverse, span, membership test and
intersection here runs on it.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

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

    def add(self, other: "Matrix") -> "Matrix":
        F = same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix sum shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(F.add(a, b) for a, b in zip(self.data, other.data)), F)

    def is_zero(self) -> bool:
        return all(not x for x in self.data)

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
        red, rank, pivots = self.rref()
        rows = [red.row(r) for r in range(rank)]
        return Subspace.span(self.field, self.cols, _kernel(self.field, self.cols, pivots, rows))

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


def _kernel(F: Field, width: int, pivots, rows) -> list:
    """Null vectors of fully reduced rows, one per free column among the first width.

    Each is 1 at its free column and minus that column's row entries at the pivots.
    """
    out = []
    for fc in range(width):
        if fc in pivots:
            continue
        vec = [F.zero] * width
        vec[fc] = F.one
        for pc, row in zip(pivots, rows):
            vec[pc] = F.neg(row[fc])
        out.append(vec)
    return out


def _dot(F: Field, u, v):
    acc = F.zero
    for a, b in zip(u, v):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n, stored via an RREF basis with no zero rows."""

    ambient: int
    basis: Matrix

    @staticmethod
    def span(field: Field, ambient: int, vectors) -> "Subspace":
        ech = Echelon(field, ambient)
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatchError("spanning vector length mismatch")
            ech.add([field.of(x) for x in v])
        data = tuple(x for row in ech.rows for x in row)
        return Subspace(ambient, Matrix(ech.rank, ambient, data, field))

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix(0, ambient, (), field))

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(field, ambient))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def vectors(self):
        return [self.basis.row(i) for i in range(self.dim)]

    def echelon(self) -> "Echelon":
        """An Echelon seeded with this subspace's RREF basis."""
        ech = Echelon(self.field, self.ambient)
        for v in self.vectors():
            ech.add(v)
        return ech

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise DimensionMismatchError("vector length mismatch")
        F = self.field
        return not any(self.echelon().reduce([F.of(x) for x in vec]))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains(v) for v in other.vectors())

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(self.field, self.ambient, self.vectors() + other.vectors())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce rows (u|u) and (w|0); rows pivoting right span the meet."""
        self._check(other)
        F, n = self.field, self.ambient
        ech = Echelon(F, 2 * n)
        for u in self.vectors():
            ech.add(u + u)
        for w in other.vectors():
            ech.add(w + (F.zero,) * n)
        meet = [row[n:] for pc, row in zip(ech.pivots, ech.rows) if pc >= n]
        return Subspace(n, Matrix(len(meet), n, tuple(x for r in meet for x in r), F))

    def _check(self, other: "Subspace"):
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimension mismatch")


class Echelon:
    """An incremental reduced row echelon basis over one field.

    Rows hold raw scalars (Fractions over Q, residues 0..p-1 over F_p; callers
    coerce) and stay fully reduced and sorted by pivot.  Pivots are taken only
    in the first ``key`` columns; later columns ride along with their row, so
    an augmented right-hand side or an image vector is reduced together with it.
    """

    __slots__ = ("field", "key", "rows", "pivots", "residual", "_sparse")

    def __init__(self, field: Field, width: int, key: int | None = None):
        self.field = field
        self.key = width if key is None else key
        self.rows = []
        self.pivots = []
        self.residual = None
        self._sparse = []  # (column, value) pairs of each row's nonzero entries

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec) -> list:
        """vec minus the combination of rows that agrees with it on every pivot."""
        v = list(vec)
        p = self.field.p
        for pc, row in zip(self.pivots, self._sparse):
            f = v[pc]
            if f:
                if p is None:
                    for t, x in row:
                        v[t] -= f * x
                else:
                    for t, x in row:
                        v[t] = (v[t] - f * x) % p
        return v

    def add(self, vec) -> bool:
        """Extend the basis by vec; False when it reduces to zero on the key columns.

        Either way ``residual`` keeps what vec reduced to.
        """
        v = self.residual = self.reduce(vec)
        pc = next((t for t in range(self.key) if v[t]), None)
        if pc is None:
            return False
        F = self.field
        s = F.inv(v[pc])
        new = [(t, F.mul(s, x)) for t, x in enumerate(v) if x]
        dense = [F.zero] * len(v)
        for t, x in new:
            dense[t] = x
        for i, row in enumerate(self.rows):
            f = row[pc]
            if f:
                for t, x in new:
                    row[t] = F.sub(row[t], F.mul(f, x))
                self._sparse[i] = [(t, x) for t, x in enumerate(row) if x]
        pos = bisect(self.pivots, pc)
        self.pivots.insert(pos, pc)
        self.rows.insert(pos, dense)
        self._sparse.insert(pos, new)
        return True

    def solution(self) -> list:
        """x with x[pivot] = the first ride-along entry of that pivot's row, 0 elsewhere."""
        x = [self.field.zero] * self.key
        for pc, row in zip(self.pivots, self.rows):
            x[pc] = row[self.key]
        return x
