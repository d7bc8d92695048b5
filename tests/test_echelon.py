"""The one exact elimination kernel, cross-checked against sympy.

sympy is an independent oracle here, not a dependency: the cross-checks skip
when it is not installed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilj.errors import SingularMatrixError
from nilj.fields import QQ, Field
from nilj.linalg import Echelon, Matrix, Subspace

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = (QQ, Field(5), Field(7))


def _random_matrix(field, rows, cols, rng):
    entries = [0, 0, 0, 1, -1, 2, -3, 5]
    return Matrix.from_rows(
        field, [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
    )


def _random_matrices(seed, count=60):
    rng = random.Random(seed)
    for field in FIELDS:
        for _ in range(count):
            yield _random_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)


def _from_sympy(field, x):
    if field.is_prime_field:
        return int(x) % field.p
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _oracle(m: Matrix):
    """The matrix on sympy's side: a Matrix over Q, a DomainMatrix over GF(p)."""
    if m.field.is_prime_field:
        K = sympy.GF(m.field.p)
        return DomainMatrix([[K(x) for x in row] for row in m.row_list()], (m.rows, m.cols), K)
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m.row_list()])


def _rows(field, oracle_matrix):
    rows = oracle_matrix.to_list() if hasattr(oracle_matrix, "to_list") else oracle_matrix.tolist()
    return [[_from_sympy(field, x) for x in row] for row in rows]


@pytest.mark.parametrize("seed", [1, 2])
def test_rref_and_rank_match_sympy(seed):
    for m in _random_matrices(seed):
        red, rank, pivots = m.rref()
        ref, ref_pivots = _oracle(m).rref()
        assert red.row_list() == _rows(m.field, ref)
        assert pivots == tuple(ref_pivots) and rank == len(ref_pivots) == m.rank()


def test_nullspace_matches_sympy():
    for m in _random_matrices(3):
        oracle = _oracle(m)
        if m.field.is_prime_field:
            vectors = _rows(m.field, oracle.nullspace())
        else:
            vectors = [[_from_sympy(QQ, x) for x in v] for v in oracle.nullspace()]
        assert m.nullspace() == Subspace.span(m.field, m.cols, vectors)


def test_solve_matches_sympy_consistency():
    rng = random.Random(4)
    for m in _random_matrices(4):
        rhs = [m.field.of(rng.randrange(-3, 4)) for _ in range(m.rows)]
        x = m.solve(rhs)
        augmented = Matrix.from_rows(m.field, [row + [b] for row, b in zip(m.row_list(), rhs)])
        consistent = _oracle(augmented).rank() == _oracle(m).rank()
        assert (x is not None) == consistent
        if x is not None:
            assert m.apply(x) == tuple(rhs)


def test_det_and_inverse_match_sympy():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(60):
            n = rng.randrange(1, 6)
            m = _random_matrix(field, n, n, rng)
            assert m.det() == _from_sympy(field, _oracle(m).det())
            if m.is_invertible():
                assert m.mul(m.inverse()) == Matrix.identity(field, n)


def test_det_is_multiplicative():
    rng = random.Random(6)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randrange(1, 5)
            a, b = (_random_matrix(field, n, n, rng) for _ in range(2))
            assert a.mul(b).det() == field.mul(a.det(), b.det())


def test_echelon_keeps_residuals_and_ride_along_columns():
    F = Field(7)
    ech = Echelon(F, 4, key=2)  # rows (vector | image)
    assert ech.add([1, 1, 3, 0]) and ech.add([0, 2, 0, 4])
    assert ech.rows == [[1, 0, 3, 5], [0, 1, 0, 2]] and ech.pivots == [0, 1]
    assert not ech.add([1, 2, 3, 4])  # (1, 2) = e0 + 2 e1, whose image is (3, 9) = (3, 2)
    assert ech.residual == [0, 0, 0, 2]
    assert ech.reduce([2, 0, 6, 3]) == [0, 0, 0, 0]


def _subspaces(field, n):
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(vector, max_size=n).map(lambda vs: Subspace.span(field, n, vs))


@st.composite
def _subspace_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    return draw(_subspaces(field, n)), draw(_subspaces(field, n))


@settings(max_examples=80, deadline=None)
@given(_subspace_pairs())
def test_intersect_is_commutative_and_lies_in_both(pair):
    a, b = pair
    meet = a.intersect(b)
    assert meet == b.intersect(a)
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    assert meet.dim == a.dim + b.dim - a.add(b).dim


BIG = 10**40
_Q_ENTRY = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG),
)


@st.composite
def _q_matrices(draw, square=False):
    """Integer and rational matrices with huge entries, zero rows, no rows and one column."""
    rows = draw(st.integers(1 if square else 0, 5))
    cols = rows if square else draw(st.integers(1, 5))
    row = st.one_of(st.just([0] * cols), st.lists(_Q_ENTRY, min_size=cols, max_size=cols))
    data = draw(st.lists(row, min_size=rows, max_size=rows))
    return Matrix(rows, cols, tuple(QQ.of(x) for r in data for x in r), QQ)


def _sympy_q(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.data])


def _q_list(oracle_matrix):
    return [_from_sympy(QQ, x) for x in oracle_matrix]


@settings(max_examples=150, deadline=None)
@given(_q_matrices(), st.data())
def test_q_elimination_matches_sympy(m, data):
    oracle = _sympy_q(m)
    red, rank, pivots = m.rref()
    ref, ref_pivots = oracle.rref()
    assert list(red.data) == _q_list(ref)
    assert pivots == tuple(ref_pivots) and rank == len(ref_pivots) == m.rank()
    assert m.nullspace() == Subspace.span(QQ, m.cols, [_q_list(v) for v in oracle.nullspace()])
    rhs = data.draw(st.lists(_Q_ENTRY, min_size=m.rows, max_size=m.rows))
    augmented, aug_pivots = oracle.row_join(sympy.Matrix(m.rows, 1, rhs)).rref()
    x = m.solve(rhs)
    if m.cols in aug_pivots:
        assert x is None
    else:
        # free unknowns 0, each pivot unknown the right-hand side of its RREF row
        expected = [Fraction(0)] * m.cols
        for r, pc in enumerate(aug_pivots):
            expected[pc] = _from_sympy(QQ, augmented[r, m.cols])
        assert list(x) == expected
        assert m.apply(x) == tuple(QQ.of(b) for b in rhs)


@settings(max_examples=100, deadline=None)
@given(_q_matrices(square=True))
def test_q_det_and_inverse_match_sympy(m):
    oracle = _sympy_q(m)
    det = oracle.det()
    assert m.det() == _from_sympy(QQ, det)
    if det:
        assert list(m.inverse().data) == _q_list(oracle.inv())
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()


@settings(max_examples=100, deadline=None)
@given(_q_matrices(), st.data())
def test_scaling_a_row_keeps_the_rref(m, data):
    if not m.rows:
        return
    i = data.draw(st.integers(0, m.rows - 1))
    c = data.draw(st.integers(-BIG, BIG).filter(bool))
    rows = m.row_list()
    rows[i] = [c * x for x in rows[i]]
    assert Matrix.from_rows(QQ, rows).rref()[0] == m.rref()[0]
