import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilj.errors import DimensionMismatchError, FieldMismatchError
from nilj.fields import QQ, Field
from nilj.linalg import Matrix, Subspace

F5 = Field(5)


def test_rref_proportional_rows():
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    red, rank, _ = m.rref()
    assert red.row_list() == [[1, 2], [0, 0]]
    assert rank == 1


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    red, rank, _ = m.rref()
    assert red == m and rank == 3


def test_rref_prime_field():
    red, rank, _ = Matrix.from_rows(F5, [[1, 1], [1, 2]]).rref()
    assert red == Matrix.identity(F5, 2)
    assert rank == 2


def test_rref_of_no_rows_keeps_the_column_count():
    red, rank, pivots = Matrix(0, 3, (), QQ).rref()
    assert (red.rows, red.cols, rank, pivots) == (0, 3, 0, ())


def _random_matrix(field, rows, cols, rng):
    return Matrix.from_rows(field, [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])


def test_rref_idempotent_and_rank_nullity():
    rng = random.Random(7)
    for field in (QQ, F5):
        for _ in range(25):
            m = _random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            red, rank, _ = m.rref()
            again, rank2, _ = red.rref()
            assert again == red and rank2 == rank
            assert rank + m.nullspace().dim == m.cols


def test_nullspace_examples():
    assert Matrix.identity(QQ, 2).nullspace().is_zero()
    assert Matrix.zeros(QQ, 2, 3).nullspace().dim == 3
    ns = Matrix.from_rows(QQ, [[1, 2, 3]]).nullspace()
    assert ns.dim == 2
    for v in ns.vectors():
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_intersect_examples():
    e1, e2 = [1, 0], [0, 1]
    a = Subspace.span(QQ, 2, [e1, e2])
    b = Subspace.span(QQ, 2, [[1, 1]])
    assert a.intersect(b) == b
    assert b.intersect(b) == b
    assert Subspace.span(QQ, 2, [e1]).intersect(Subspace.span(QQ, 2, [e2])).is_zero()


def test_intersect_commutative_associative():
    rng = random.Random(11)
    for _ in range(15):
        spaces = [
            Subspace.span(QQ, 4, [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(2)])
            for _ in range(3)
        ]
        a, b, c = spaces
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
        assert a.intersect(b).dim <= min(a.dim, b.dim)


def test_solve():
    assert Matrix.identity(QQ, 2).solve([1, 2]) == (1, 2)
    m = Matrix.from_rows(QQ, [[1, 1]])
    x = m.solve([3])
    assert x is not None and x[0] + x[1] == 3
    assert Matrix.from_rows(QQ, [[1], [1]]).solve([0, 1]) is None


def test_field_mismatch_raises():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(F5, 2)
    with pytest.raises(FieldMismatchError):
        a.mul(b)


def test_shape_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows(QQ, [[1, 2]]).solve([1, 2])


def test_inverse_and_det():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    assert m.det() == -1
    assert m.mul(m.inverse()) == Matrix.identity(QQ, 2)
    assert not Matrix.from_rows(QQ, [[1, 2], [2, 4]]).is_invertible()


def test_contains_rejects_wrong_lengths():
    plane = Subspace.span(QQ, 3, [[1, 0, 0]])
    for vec in ([0, 0], [1, 0, 0, 5]):
        with pytest.raises(DimensionMismatchError):
            plane.contains(vec)
    with pytest.raises(DimensionMismatchError):
        plane.contains_subspace(Subspace.full(QQ, 2))


# few distinct entries, so that drawn vectors are often dependent
_ENTRIES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extend_keeps_a_basis_of_the_sum(any_field, data):
    n = data.draw(st.integers(1, 5))
    vectors = st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), max_size=5)
    S = Subspace.span(any_field, n, data.draw(vectors))
    inputs = data.draw(vectors)
    kept = S.extend(inputs)
    rest = iter(inputs)
    assert all(any(v is w for w in rest) for v in kept)  # input vectors, in input order
    # independent of S and of each other, and spanning what all inputs span
    assert S.add(Subspace.span(any_field, n, kept)).dim == S.dim + len(kept)
    assert S.add(Subspace.span(any_field, n, kept)) == S.add(Subspace.span(any_field, n, inputs))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_array_rows_span_as_their_list(any_field, data):
    """An integer array's rows, reduced mod p in one step, give the subspace
    and the kernel that the same rows give as a list of Python ints."""
    n = data.draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 1, -1, 2, -7, 12]) | st.integers(-10**30, 10**30)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    fits = all(abs(x) < 2**62 for row in rows for x in row)
    array = np.array(rows, dtype=np.int64 if fits else object).reshape(-1, n)
    assert Subspace.span(any_field, n, array) == Subspace.span(any_field, n, rows)
    assert Subspace.kernel(any_field, n, array) == Subspace.kernel(any_field, n, rows)
    if rows:
        with pytest.raises(DimensionMismatchError):
            Subspace.span(any_field, n + 1, array)


def _reference_rref(F, vectors, width):
    """Plain Gauss-Jordan on the field's own scalars (Fractions over Q, residues
    over F_p): the nonzero reduced rows as tuples, each lead 1."""
    rows, out = [[F.of(x) for x in v] for v in vectors], []
    for c in range(width):
        lead = next((r for r in rows if r[c]), None)
        if lead is None:
            continue
        rows.remove(lead)
        inv = F.inv(lead[c])
        lead = [F.mul(inv, x) for x in lead]
        rows = [[F.sub(x, F.mul(r[c], y)) for x, y in zip(r, lead)] if r[c] else r for r in rows]
        out = [[F.sub(x, F.mul(r[c], y)) for x, y in zip(r, lead)] if r[c] else r for r in out]
        out.append(lead)
    return [tuple(r) for r in out]


def _reference_kernel(F, rref, width):
    """Per free column of reduced rows, its unit vector minus the rows' entries there."""
    pivots = [next(t for t, x in enumerate(r) if x) for r in rref]
    out = []
    for fc in (t for t in range(width) if t not in pivots):
        vec = [F.zero] * width
        vec[fc] = F.one
        for pc, r in zip(pivots, rref):
            vec[pc] = F.neg(r[fc])
        out.append(vec)
    return out


def _reference_intersect(F, u, w, width):
    """sum a_i u_i over the solutions (a, b) of sum a_i u_i = sum b_j w_j."""
    cols = list(u) + [[F.neg(x) for x in v] for v in w]
    system = [[c[r] for c in cols] for r in range(width)]
    solutions = _reference_kernel(F, _reference_rref(F, system, len(cols)), len(cols))
    meet = [[sum((F.mul(a, x) for a, x in zip(s, col)), F.zero) for col in zip(*u)] for s in solutions]
    return _reference_rref(F, meet, width)


def _reference_rank(F, vectors, width):
    return len(_reference_rref(F, vectors, width))


@st.composite
def _spanning_sets(draw):
    field = draw(st.sampled_from((QQ, F5)))
    n = draw(st.integers(1, 5))
    entries = _ENTRIES | st.integers(-10**20, 10**20)
    vectors = st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5)
    return field, n, draw(vectors), draw(vectors)


@settings(max_examples=150, deadline=None)
@given(_spanning_sets(), st.data())
def test_int_rows_agree_with_a_fraction_rref_reference(case, data):
    """A Subspace keeps integer rows, yet reads, compares and combines exactly as
    the plain Fraction (or residue) RREF of what spans it."""
    F, n, us, ws = case
    U, W = Subspace.span(F, n, us), Subspace.span(F, n, ws)
    ref_u, ref_w = _reference_rref(F, us, n), _reference_rref(F, ws, n)
    assert U.vectors() == ref_u and U.dim == len(ref_u)
    assert all(type(x) is int for row in U.rows for x in row)
    # another spanning set: rows scaled by nonzero scalars, plus a combination, shuffled
    scale = st.sampled_from([1, -1, 2, 3, Fraction(-2, 3), 7])  # nonzero over Q and F_5
    scales = data.draw(st.lists(scale, min_size=len(us), max_size=len(us)))
    other = [[F.mul(F.of(c), F.of(x)) for x in v] for c, v in zip(scales, us)]
    if us:
        other.append([F.add(F.of(x), F.of(y)) for x, y in zip(us[0], us[-1])])
    other = data.draw(st.permutations(other))
    assert Subspace.span(F, n, other) == U and hash(Subspace.span(F, n, other)) == hash(U)
    assert Subspace.span(F, n, ref_u) == U
    for v in ws:
        assert U.contains(v) == (_reference_rank(F, us + [v], n) == len(ref_u))
    assert U.contains_subspace(W) == (_reference_rank(F, us + ws, n) == len(ref_u))
    kept, basis = [], list(us)
    for v in ws:  # greedily, each vector that raises the rank
        if _reference_rank(F, basis + [v], n) > _reference_rank(F, basis, n):
            kept.append(v)
            basis.append(v)
    assert U.extend(ws) == kept
    assert U.add(W).vectors() == _reference_rref(F, us + ws, n)
    assert U.intersect(W).vectors() == _reference_intersect(F, ref_u, ref_w, n)
