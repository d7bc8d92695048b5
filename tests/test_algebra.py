import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilj import algebra, catalog, isomorphism
from nilj.algebra import (
    Algebra,
    annihilator,
    change_basis,
    derivation_algebra,
    invariant_vector,
    is_associative,
    is_multiplicative,
    jordan_identity_holds,
    power_filtration,
    reduce_mod,
    structure_tensor,
    zero_algebra,
)
from nilj.cohomology import h2
from nilj.errors import DocumentError
from nilj.fields import QQ, Field
from nilj.linalg import Matrix, Subspace

F5 = Field(5)


def _unit(A, i):
    return tuple(A.field.one if k == i else A.field.zero for k in range(A.dim))


def reference_is_associative(A):
    """The basis-triple loop over ``vec_mul`` that the tensor check replaced."""
    for i in range(A.dim):
        for j in range(A.dim):
            eij = A.vec_mul(_unit(A, i), _unit(A, j))
            for k in range(A.dim):
                lhs = A.vec_mul(eij, _unit(A, k))
                rhs = A.vec_mul(_unit(A, i), A.vec_mul(_unit(A, j), _unit(A, k)))
                if lhs != rhs:
                    return False
    return True


def reference_annihilator(A):
    """The per-entry loop over ``sc`` that the tensor read replaced."""
    F = A.field
    rows = []
    for j in range(A.dim):
        for k in range(A.dim):
            rows.append([A.sc(i, j).get(k, F.zero) for i in range(A.dim)])
    return Matrix.from_rows(F, rows).nullspace()


def reference_derivation_algebra(A):
    """The per-entry loop over ``sc`` that the tensor read replaced."""
    F = A.field
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(i, n):
            cij = A.sc(i, j)
            for k in range(n):
                row = [F.zero] * (n * n)
                for m, c in cij.items():
                    row[k * n + m] = F.add(row[k * n + m], c)
                for r in range(n):
                    c = A.sc(r, j).get(k)
                    if c:
                        row[r * n + i] = F.sub(row[r * n + i], c)
                    c = A.sc(r, i).get(k)
                    if c:
                        row[r * n + j] = F.sub(row[r * n + j], c)
                rows.append(row)
    return Matrix.from_rows(F, rows).nullspace()


def reference_jordan_identity_holds(A):
    """The quadruple loop over ``vec_mul`` that the tensor check replaced."""
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


def test_multiply_examples():
    A = catalog.instantiate("J4,6")
    a, d = A.basis_element(0), A.basis_element(3)
    assert (a * a).coords == (0, 1, 0, 0)
    assert (a * d).is_zero()
    B = catalog.instantiate("J5,23")
    c, d = B.basis_element(2), B.basis_element(3)
    assert (c * d).coords == (0, 0, 0, 0, 1)


def test_jordan_identity_examples():
    assert jordan_identity_holds(catalog.instantiate("J4,6"))
    assert jordan_identity_holds(catalog.instantiate("J5,44", {"alpha": "2"}))
    # a^2 o (a o a) = b o b = c but (a^2 o a) o a = 0
    bad = Algebra(QQ, ("a", "b", "c"), {(0, 0): {1: 1}, (1, 1): {2: 1}})
    assert not jordan_identity_holds(bad)
    # with a unit adjoined implicitly the identity always holds: a acts as 1
    unital = Algebra(QQ, ("a", "b"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}})
    assert jordan_identity_holds(unital)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tensor_reads_match_the_reference_loops(any_field, nilpotent_algebras, data):
    A = data.draw(nilpotent_algebras(any_field))
    assert jordan_identity_holds(A) == reference_jordan_identity_holds(A)
    assert is_associative(A) == reference_is_associative(A)
    assert annihilator(A) == reference_annihilator(A)
    assert derivation_algebra(A) == reference_derivation_algebra(A)


def reference_is_multiplicative(A, B, phi):
    """The per-pair loop over ``vec_mul`` that the tensor contraction replaced."""
    return all(
        phi.apply(A.basis_product(i, j)) == B.vec_mul(phi.col(i), phi.col(j))
        for i in range(A.dim)
        for j in range(i, A.dim)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_multiplicative_matches_the_reference_loop(any_field, nilpotent_algebras, data, direct_sum):
    """Isomorphisms onto a random basis, an inclusion into a direct sum and the
    zero map, each also with one entry moved, against the per-pair loop."""
    A = data.draw(nilpotent_algebras(any_field))
    F, n = A.field, A.dim
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def scalar():
        return F.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if F.p is None else rng.randrange(F.p))

    while True:
        P = Matrix.from_rows(F, [[scalar() for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            break
    B = change_basis(A, P)  # P maps B's basis to its images in A
    S = direct_sum(A, B)
    inclusion = Matrix.from_rows(F, [[F.one if r == c else F.zero for c in range(n)] for r in range(2 * n)])
    maps = [(B, A, P), (A, S, inclusion), (A, B, Matrix.zeros(F, n, n))]
    assert all(reference_is_multiplicative(*m) for m in maps)
    for src, dst, phi in maps:
        rows = phi.row_list()
        r, c = rng.randrange(dst.dim), rng.randrange(n)
        rows[r][c] = F.add(rows[r][c], F.of(rng.randint(1, 4)) if F.p is None else F.one)
        moved = Matrix.from_rows(F, rows)
        for m in (phi, moved):
            assert is_multiplicative(src, dst, m) == reference_is_multiplicative(src, dst, m)


@pytest.mark.parametrize("field", (QQ, Field(7)), ids=repr)
def test_named_non_jordan_entries_match_the_reference(field):
    for name in ("J5,2", "J5,3"):
        A = reduce_mod(catalog.instantiate(name), 7) if field.p else catalog.instantiate(name)
        assert not jordan_identity_holds(A) and not reference_jordan_identity_holds(A)
        assert is_associative(A) == reference_is_associative(A)


def test_associativity_examples():
    assert not is_associative(catalog.instantiate("J4,6"))
    assert is_associative(catalog.instantiate("J3,4"))
    assert is_associative(zero_algebra(QQ, 3))


def test_power_filtration_examples():
    dims = [s.dim for s in power_filtration(catalog.instantiate("J2,2"))]
    assert dims == [2, 1, 0]
    assert [s.dim for s in power_filtration(catalog.instantiate("J4,1"))] == [4, 0]
    # ideal powers of J5,2 stabilize before vanishing: J^4 = J^5 = <e>
    assert [s.dim for s in power_filtration(catalog.instantiate("J5,2"))] == [5, 3, 2, 1, 1, 0]
    sq = power_filtration(catalog.instantiate("J5,2"))[1]
    for idx in (1, 3, 4):  # b, d, e
        assert sq.contains([1 if k == idx else 0 for k in range(5)])


def test_power_filtration_is_computed_once_per_algebra():
    """The fingerprint, the search model and ``power_filtration`` read one cached filtration
    per algebra; each ``power_filtration`` call returns a fresh list."""
    A = Algebra(Field(7), "abcd", {(0, 0): {1: 3}, (0, 1): {2: 5}, (1, 1): {3: 2}, (0, 2): {3: 4}})
    before = algebra._power_filtration.cache_info()
    first = power_filtration(A)
    invariant_vector(A)
    isomorphism._model(A)
    first.append(None)
    assert power_filtration(A) == list(algebra._power_filtration(A)) == first[:-1]
    assert [S.dim for S in first[:-1]] == [4, 3, 2, 1, 0]
    after = algebra._power_filtration.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 4)


def test_annihilator_examples():
    A = catalog.instantiate("J4,6")
    ann = annihilator(A)
    assert ann.dim == 1 and ann.contains([0, 0, 0, 1])
    ann12 = annihilator(catalog.instantiate("J4,12"))
    assert ann12.dim == 2
    assert ann12.contains([0, 0, 1, 0]) and ann12.contains([0, 0, 0, 1])
    assert annihilator(zero_algebra(QQ, 3)).dim == 3


def _derivation_dim_bruteforce(A):
    """Independent oracle: assemble the derivation system over all ordered pairs."""
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            prod = A.basis_product(i, j)
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for m, c in enumerate(prod):
                    if c:
                        row[k * n + m] += c
                for r in range(n):
                    c = A.sc(r, j).get(k)
                    if c:
                        row[r * n + i] -= c
                    c = A.sc(r, i).get(k)
                    if c:
                        row[r * n + j] -= c
                rows.append(row)
    return Matrix.from_rows(A.field, rows).nullspace().dim


@pytest.mark.parametrize(
    "name,expected",
    [("J2,2", 2), ("J4,6", 4), ("J5,9", 6), ("J5,13", 7)],
)
def test_derivation_dimensions(name, expected):
    A = catalog.instantiate(name)
    assert derivation_algebra(A).dim == expected
    assert _derivation_dim_bruteforce(A) == expected


def test_derivations_of_zero_algebra():
    assert derivation_algebra(zero_algebra(QQ, 3)).dim == 9


def test_invariant_vector_examples():
    iv = invariant_vector(catalog.instantiate("J4,1"))
    assert (iv.dim, iv.power_dims, iv.nil_index, iv.ann_dim, iv.ann_meet_sq_dim,
            iv.der_dim, iv.assoc) == (4, (0,), 2, 4, 0, 16, True)
    iv = invariant_vector(catalog.instantiate("J2,2"))
    assert (iv.dim, iv.power_dims, iv.nil_index, iv.ann_dim, iv.ann_meet_sq_dim,
            iv.der_dim, iv.assoc) == (2, (1, 0), 3, 1, 1, 2, True)
    assert invariant_vector(catalog.instantiate("J5,2")).power_dims == (3, 2, 1, 1, 0)
    assert invariant_vector(catalog.instantiate("J5,4")).power_dims == (2, 1, 0)


def test_direct_sum_examples(direct_sum):
    one = zero_algebra(QQ, 1, ("e",))
    assert direct_sum(catalog.instantiate("J4,8"), one) == catalog.instantiate("J5,4")
    assert direct_sum(catalog.instantiate("J4,6"), one) == catalog.instantiate("J5,1")
    assert direct_sum(zero_algebra(QQ, 2), zero_algebra(QQ, 3, ("x", "y", "z"))) == zero_algebra(
        QQ, 5, ("a", "b", "x", "y", "z")
    )


def test_multiply_is_symmetric_on_random_elements():
    rng = random.Random(2024)
    for name in ("J4,6", "J5,30"):
        binding = {"alpha": "1", "beta": "2"} if name == "J5,30" else {}
        A = catalog.instantiate(name, binding)
        for _ in range(20):
            x = A.element([rng.randrange(-3, 4) for _ in range(A.dim)])
            y = A.element([rng.randrange(-3, 4) for _ in range(A.dim)])
            assert (x * y).coords == (y * x).coords


def test_invariants_stable_under_base_change():
    rng = random.Random(99)
    A = reduce_mod(catalog.instantiate("J4,6"), 5)
    base = invariant_vector(A)
    found = 0
    while found < 5:
        P = Matrix.from_rows(F5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)])
        if not P.is_invertible():
            continue
        found += 1
        assert invariant_vector(change_basis(A, P)) == base


def test_associativity_survives_central_component(direct_sum):
    one = zero_algebra(QQ, 1, ("z",))
    for name in catalog.dim_le4_names():
        A = catalog.instantiate(name)
        assert is_associative(direct_sum(A, one)) == is_associative(A)


def test_catalog_annihilators_are_nonzero():
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            assert not annihilator(catalog.instantiate(name, binding)).is_zero()


def test_structure_constant_validation():
    with pytest.raises(DocumentError):
        Algebra(QQ, ("a", "b"), {(1, 0): {0: 1}})  # i > j
    with pytest.raises(DocumentError):
        Algebra(QQ, ("a", "b"), {(0, 0): {5: 1}})  # bad target
    with pytest.raises(DocumentError):
        Algebra(QQ, ("a", "a"), {})  # duplicate names


# -- int64 structure tensors over Q ------------------------------------------------


def _edge(n):
    """The largest B with 32 n^2 B^3 < 2^63: the last int64 magnitude at dimension n."""
    B = round((2**63 / (32 * n * n)) ** (1 / 3))
    while 32 * n * n * B**3 >= 2**63:
        B -= 1
    while 32 * n * n * (B + 1) ** 3 < 2**63:
        B += 1
    return B


def _scaled(A, c):
    """A with every structure constant times c; x -> x / c maps A onto it."""
    return Algebra(A.field, A.names,
                   {pair: {k: c * v for k, v in terms.items()} for pair, terms in A.products().items()})


def _flat(c):
    """e_i e_j = c (e_0 + e_1) for all i, j: associative, so Jordan."""
    return Algebra(QQ, ("a", "b"), {pair: {0: c, 1: c} for pair in ((0, 0), (0, 1), (1, 1))})


def test_catalog_tensors_over_q_are_int64():
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            T, p = structure_tensor(catalog.instantiate(name, binding))
            assert p is None and T.dtype == np.int64, (name, binding)


@pytest.mark.parametrize("name", ["J4,6", "J5,2", "flat"])
def test_q_tensor_is_int64_up_to_the_jordan_bound(name):
    """Constants at B = the edge keep int64, one more takes object dtype, and
    neither moves a verdict (the catalog constants are 1, so B = c)."""
    A = _flat(1) if name == "flat" else catalog.instantiate(name)
    edge = _edge(A.dim)
    for c, dtype in ((edge, np.int64), (edge + 1, object)):
        S = _flat(c) if name == "flat" else _scaled(A, c)
        assert structure_tensor(S)[0].dtype == dtype
        assert jordan_identity_holds(S) == reference_jordan_identity_holds(S) == jordan_identity_holds(A)
        assert is_associative(S) == reference_is_associative(S) == is_associative(A)


def test_jordan_contraction_that_would_wrap_runs_on_python_ints():
    """At n = 2 the edge is 416,128.  With B = 2^19 just above it, x = a + b has
    x^2 = 4B x and x^2 (x x) = 64 B^3 x = 2^63 x, the defining identity's
    left side at y = x, which an int64 contraction wraps to -2^63."""
    A = _flat(2**19)
    T, _ = structure_tensor(A)
    assert T.dtype == object

    def mul(T, u, v):
        return v @ (u @ T.reshape(2, 4)).reshape(2, 2)

    for tensor, want in ((T, 2**63), (T.astype(np.int64), -(2**63))):
        x = np.ones(2, dtype=tensor.dtype)
        sq = mul(tensor, x, x)
        assert mul(tensor, sq, sq).tolist() == [want, want]
    assert jordan_identity_holds(A) and reference_jordan_identity_holds(A)
    assert is_associative(A) and reference_is_associative(A)


def test_is_multiplicative_takes_object_dtype_for_large_maps():
    """J2,2 (a^2 = b) keeps an int64 tensor while the maps are large.

    a -> x a + y b, b -> x^2 b is an automorphism for every x != 0; at x ~ 10^6
    and y ~ 10^12 the right side reaches n^2 R^2 ~ 4 * 10^24.  a -> (2^32 + 1) a,
    b -> (2^33 + 1) b is not multiplicative, yet (2^32 + 1)^2 = 2^33 + 1 mod
    2^64, so in int64 its two sides would agree."""
    A = catalog.instantiate("J2,2")
    assert structure_tensor(A)[0].dtype == np.int64
    x, y = Fraction(10**6 + 3, 7), 10**12 + 7
    auto = Matrix.from_rows(QQ, [[x, 0], [y, x * x]])
    moved = Matrix.from_rows(QQ, [[x, 0], [y, x * x + 1]])
    wraps = Matrix.from_rows(QQ, [[2**32 + 1, 0], [0, 2**33 + 1]])
    assert (np.array([2**32 + 1]) ** 2).tolist() == [2**33 + 1]
    for phi, want in ((auto, True), (moved, False), (wraps, False)):
        assert is_multiplicative(A, A, phi) == reference_is_multiplicative(A, A, phi) == want


def reference_power_filtration(A):
    """J^k = sum_{i+j=k} J^i o J^j from ``vec_mul`` on the basis vectors."""
    powers = [Subspace.full(A.field, A.dim)]
    while not powers[-1].is_zero():
        k = len(powers) + 1
        powers.append(Subspace.span(A.field, A.dim, [
            A.vec_mul(u, v) for i in range(1, k // 2 + 1)
            for u in powers[i - 1].vectors() for v in powers[k - i - 1].vectors()
        ]))
    return powers


def test_power_filtration_takes_object_rows_above_their_bound():
    """B = 29,616 keeps T int64 at n = 6, but J^2's fraction-free echelon
    rows reach R = 250,541,488, so n^2 R^2 B is about 6.7 * 10^22.  Kept in
    int64, J^2 o J^2 wraps and J^4 comes out a different plane."""
    A = Algebra(QQ, "abcdef", {
        (0, 3): {5: 24018}, (1, 1): {2: -14283, 3: 29616}, (1, 2): {5: 11783},
        (1, 4): {5: 18507}, (2, 2): {3: 23481, 4: 25379}, (2, 4): {5: 9978},
    })
    T, _ = structure_tensor(A)
    powers = power_filtration(A)
    R = max(abs(x) for row in powers[1].echelon().ints for x in row)
    assert T.dtype == np.int64 and 36 * R * R * int(abs(T).max()) >= 2**63
    assert [S.dim for S in powers] == [6, 3, 2, 2, 1, 1, 0]
    assert powers == reference_power_filtration(A)


def _unimodular(rng, n, m):
    """L U with unit triangular L, U of entries in [-m, m]: an integer basis change of determinant 1."""
    L = [[rng.randint(-m, m) if c < r else int(c == r) for c in range(n)] for r in range(n)]
    U = [[rng.randint(-m, m) if c > r else int(c == r) for c in range(n)] for r in range(n)]
    return Matrix.from_rows(QQ, L).mul(Matrix.from_rows(QQ, U))


def test_catalog_invariants_survive_large_basis_changes():
    """Seeded integer basis changes with entries up to ~500 take about three
    quarters of the catalog's tensors to object dtype and leave the rest
    int64 with larger constants; no verdict, fingerprint or Z2/B2/H2
    dimension moves."""
    rng = random.Random(18)
    dtypes = set()
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            A = catalog.instantiate(name, binding)
            B = change_basis(A, _unimodular(rng, A.dim, 10))
            dtypes.add(structure_tensor(B)[0].dtype)
            assert jordan_identity_holds(B) == jordan_identity_holds(A), name
            assert is_associative(B) == is_associative(A), name
            assert invariant_vector(B) == invariant_vector(A), name
            sa, sb = h2(A), h2(B)
            assert (sb.z2.dim, sb.b2.dim, sb.h2_dim) == (sa.z2.dim, sa.b2.dim, sa.h2_dim), name
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("field", (QQ, F5), ids=repr)
def test_structure_tensor_is_cached_and_read_only(field):
    A = catalog.instantiate("J4,6", field=field)
    T, p = structure_tensor(A)
    assert structure_tensor(A)[0] is T and p == field.p
    with pytest.raises(ValueError, match="read-only"):
        T[0] = 0
