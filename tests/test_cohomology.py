import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilj import catalog, cohomology
from nilj.algebra import (
    annihilator,
    change_basis,
    derivation_algebra,
    invariant_vector,
    power_filtration,
    reduce_mod,
    zero_algebra,
)
from nilj.cohomology import (
    Cocycle,
    associativity_constraint_space,
    coboundary_space,
    cocycle_space,
    h2,
    has_nontrivial_1dim_extension,
    parse_cocycle,
    radical,
    sym_dim,
    sym_pairs,
)
from nilj.errors import NiljError, SingularMatrixError
from nilj.fields import QQ, Field
from nilj.isomorphism import _admissible_subspaces, enumerate_automorphisms
from nilj.linalg import Matrix, Subspace

F5 = Field(5)


def act(phi, theta):
    """Pullback (phi theta)(x, y) = theta(phi x, phi y) = phi^T M phi."""
    if not phi.is_invertible():
        raise SingularMatrixError("action requires an invertible matrix")
    M = phi.transpose().mul(theta.mat).mul(phi)
    return Cocycle.from_upper(theta.algebra, [M.at(i, j) for i, j in sym_pairs(theta.algebra.dim)])


def delta(A, i, j, coeff=1):
    """The elementary symmetric map taking value coeff at the pair {i, j}."""
    coords = [A.field.zero] * sym_dim(A.dim)
    coords[sym_pairs(A.dim).index((min(i, j), max(i, j)))] = A.field.of(coeff)
    return Cocycle.from_upper(A, coords)


def _unit(A, i):
    return tuple(A.field.one if k == i else A.field.zero for k in range(A.dim))


def reference_cocycle_space(A):
    """The quadruple loop over ``vec_mul`` that the tensor contraction replaced."""
    F = A.field
    n = A.dim
    pairs = sym_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    rows = []

    def add_pair(row, i, j, coef):
        row[index[(i, j) if i <= j else (j, i)]] = F.add(row[index[(i, j) if i <= j else (j, i)]], coef)

    def add_vec_pair(row, u, v, sign):
        # theta(u, v) for coordinate vectors u, v
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if b:
                    add_pair(row, i, j, F.mul(sign, F.mul(a, b)))

    one, mone = F.one, F.neg(F.one)
    for a, b, c in combinations_with_replacement(range(n), 3):
        for d in range(n):
            row = [F.zero] * len(pairs)
            for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
                w = A.vec_mul(_unit(A, d), A.basis_product(y, z))
                for m, cm in enumerate(w):
                    if cm:
                        add_pair(row, x, m, cm)
            for (x, y), (z, w) in (((a, b), (c, d)), ((b, c), (a, d)), ((a, c), (b, d))):
                add_vec_pair(row, A.basis_product(x, y), A.basis_product(z, w), mone)
            if any(x for x in row):
                rows.append(row)
    if not rows:
        return Subspace.full(F, len(pairs))
    return Matrix.from_rows(F, rows).nullspace()


def reference_coboundary_space(A):
    """The per-entry loop over ``sc`` that the tensor read replaced."""
    F = A.field
    n = A.dim
    vecs = []
    for k in range(n):
        vecs.append([A.sc(i, j).get(k, F.zero) for (i, j) in sym_pairs(n)])
    return Subspace.span(F, sym_dim(n), vecs)


def reference_associativity_constraint_space(A):
    """The basis-triple loop that the tensor contraction replaced."""
    F = A.field
    n = A.dim
    pairs = sym_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for i, j, k in product(range(n), repeat=3):
        row = [F.zero] * len(pairs)
        for m, cm in enumerate(A.basis_product(i, j)):
            if cm:
                p = (m, k) if m <= k else (k, m)
                row[index[p]] = F.add(row[index[p]], cm)
        for m, cm in enumerate(A.basis_product(j, k)):
            if cm:
                p = (i, m) if i <= m else (m, i)
                row[index[p]] = F.sub(row[index[p]], cm)
        if any(x for x in row):
            rows.append(row)
    if not rows:
        return Subspace.full(F, len(pairs))
    return Matrix.from_rows(F, rows).nullspace()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constraint_spaces_match_the_reference_loops(any_field, nilpotent_algebras, data):
    A = data.draw(nilpotent_algebras(any_field))
    assert cocycle_space(A) == reference_cocycle_space(A)
    assert associativity_constraint_space(A) == reference_associativity_constraint_space(A)
    assert coboundary_space(A) == reference_coboundary_space(A)


@pytest.mark.parametrize("field", (QQ, Field(7)), ids=repr)
def test_named_non_jordan_entries_match_the_reference(field):
    for name in ("J5,2", "J5,3"):
        A = reduce_mod(catalog.instantiate(name), 7) if field.p else catalog.instantiate(name)
        assert cocycle_space(A) == reference_cocycle_space(A)
        assert associativity_constraint_space(A) == reference_associativity_constraint_space(A)


def test_cocycle_space_examples():
    assert cocycle_space(zero_algebra(QQ, 3)).dim == 6
    assert cocycle_space(catalog.instantiate("J2,2")).dim == 2
    assert cocycle_space(catalog.instantiate("J3,1")).dim == 6


def test_coboundary_space_examples():
    assert coboundary_space(zero_algebra(QQ, 4)).is_zero()
    b2 = coboundary_space(catalog.instantiate("J2,2"))
    assert b2.dim == 1
    assert b2.contains(parse_cocycle(catalog.instantiate("J2,2"), "d(a,a)").upper())
    assert coboundary_space(catalog.instantiate("J3,4")).dim == 2


def test_h2_dimensions():
    sp = h2(catalog.instantiate("J3,2"))
    assert sp.h2_dim == 4 and sp.h2_assoc_dim == 3
    sp = h2(catalog.instantiate("J4,12"))
    assert sp.h2_dim == 5 and sp.h2_assoc_dim == 3


def test_h2_j46_corrected():
    """The bundled table prints d(b,d) as a generator, but it fails the
    cocycle identity (probe quadruple (a,a,c,b)); the true space is spanned
    by d(a,b), d(a,c), d(c,c) modulo coboundaries."""
    A = catalog.instantiate("J4,6")
    sp = h2(A)
    assert sp.h2_dim == 3
    assert not sp.z2.contains(parse_cocycle(A, "d(b,d)").upper())
    expected = Subspace.span(
        QQ, sp.z2.ambient,
        [list(parse_cocycle(A, s).upper()) for s in ("d(a,b)", "d(a,c)", "d(c,c)")]
        + [list(v) for v in sp.b2.vectors()],
    )
    computed = Subspace.span(
        QQ, sp.z2.ambient,
        [list(c.upper()) for c in sp.h2_reps] + [list(v) for v in sp.b2.vectors()],
    )
    assert expected == computed


def test_h2_j47_has_extra_class():
    """d(b,c) is a genuine cohomology class of J4,7 beyond the printed three."""
    A = catalog.instantiate("J4,7")
    sp = h2(A)
    assert sp.h2_dim == 4
    theta = parse_cocycle(A, "d(b,c)")
    assert sp.z2.contains(theta.upper())
    coords = sp.class_coords(theta)
    assert coords is not None and any(coords)


def test_coboundaries_are_cocycles_for_all_catalog_entries():
    # delta-f satisfies the cocycle identity precisely because the product
    # does; the two non-Jordan entries are the expected exceptions
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            sp = h2(catalog.instantiate(name, binding))
            if name in ("J5,2", "J5,3"):
                assert not sp.z2.contains_subspace(sp.b2)
            else:
                assert sp.z2.contains_subspace(sp.b2)


def test_associative_entries_have_coboundaries_in_constraint_space():
    for name in catalog.dim_le4_names():
        A = catalog.instantiate(name)
        if catalog.get(name).assoc:
            constraint = associativity_constraint_space(A)
            assert constraint.contains_subspace(coboundary_space(A))


def test_radical_examples():
    A = catalog.instantiate("J4,6")
    rad = radical([parse_cocycle(A, "d(b,d)")])
    assert rad.dim == 2
    assert rad.contains([1, 0, 0, 0]) and rad.contains([0, 0, 1, 0])
    assert radical([Cocycle.zero(A)]).dim == 4
    B = catalog.instantiate("J3,3")
    joint = radical([parse_cocycle(B, "d(a,c)"), parse_cocycle(B, "d(b,c)")])
    assert not joint.contains([0, 0, 1])


def test_act_examples():
    A = catalog.instantiate("J4,6")
    theta = parse_cocycle(A, "d(b,d)")
    ident = Matrix.identity(QQ, 4)
    assert act(ident, theta).mat == theta.mat
    doubled = act(ident.scale(2), theta)
    assert doubled.mat == theta.mat.scale(4)
    with pytest.raises(SingularMatrixError):
        act(Matrix.zeros(QQ, 4, 4), theta)


def test_act_is_group_action_and_preserves_spaces():
    A5 = reduce_mod(catalog.instantiate("J4,6"), 5)
    autos = enumerate_automorphisms(A5, F5)
    rng = random.Random(5)
    sp = h2(A5)
    reps = [Cocycle.from_upper(A5, v) for v in sp.z2.vectors()]
    for _ in range(10):
        phi, psi = rng.choice(autos), rng.choice(autos)
        theta = rng.choice(reps)
        lhs = act(phi.mul(psi), theta)
        rhs = act(psi, act(phi, theta))
        assert lhs.mat == rhs.mat
        assert sp.z2.contains(act(phi, theta).upper())
        assert radical([act(phi, theta)]).dim == radical([theta]).dim
    for v in sp.b2.vectors():
        theta = Cocycle.from_upper(A5, v)
        for phi in autos[:5]:
            assert sp.b2.contains(act(phi, theta).upper())


def test_is_automorphism_examples(is_automorphism):
    A = catalog.instantiate("J4,6")
    assert is_automorphism(A, Matrix.identity(QQ, 4))
    # the six-parameter family shape fails multiplicativity once a31 != 0:
    # phi(a) o phi(b) = a11^2 * a31 * d must vanish, but here it is 20d
    fam = Matrix.from_rows(QQ, [[2, 0, 0, 0], [3, 4, 0, 0], [5, 0, 7, 0], [11, 30, 13, 28]])
    assert not is_automorphism(A, fam)
    # corrected family: phi(a) = x1 a + x4 d, phi(c) = z3 c + z4 d
    good = Matrix.from_rows(QQ, [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 7, 0], [11, 0, 13, 28]])
    assert is_automorphism(A, good)
    B = catalog.instantiate("J2,2")
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert not is_automorphism(B, swap)


def test_has_nontrivial_1dim_extension():
    # no cocycle of these algebras avoids the center in its radical; for
    # J4,6 this corrects the bundled claim (no class pairs d at all)
    for name in ("J4,6", "J4,8", "J4,9", "J4,10"):
        assert not has_nontrivial_1dim_extension(catalog.instantiate(name))
    for name in ("J1,1", "J2,2", "J3,2", "J3,3", "J4,3", "J4,12", "J4,13"):
        assert has_nontrivial_1dim_extension(catalog.instantiate(name))


def census_extension_verdict(A):
    """The census's own test: Ann = 0, or some line of H2 is admissible."""
    ann = annihilator(A)
    return ann.is_zero() or len(_admissible_subspaces(h2(A), ann, 1)) > 0


# J4,1 is left out: dim H2 = 10, and the reference would enumerate 5^10 lines
@pytest.mark.parametrize("name", [n for n in catalog.dim_le4_names() if n != "J4,1"])
def test_extension_scan_matches_the_census_on_catalog_parents(name):
    A = reduce_mod(catalog.instantiate(name), 5)
    assert has_nontrivial_1dim_extension(A) == census_extension_verdict(A)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extension_scan_matches_the_census_on_random_algebras(nilpotent_algebras, data):
    A = data.draw(nilpotent_algebras(F5))
    assume(A.dim <= 4 and h2(A).h2_dim <= 6)
    assert has_nontrivial_1dim_extension(A) == census_extension_verdict(A)


def test_extension_scan_decides_the_zero_algebra_where_p_is_dim_ann():
    # a = p = 5: the witness (a nondegenerate form) lies inside the lattice
    assert has_nontrivial_1dim_extension(zero_algebra(F5, 5))


@pytest.mark.parametrize("field", (QQ, F5, Field(7)), ids=repr)
def test_extension_verdict_survives_a_random_change_of_basis(field):
    """Metamorphic: whether a nontrivial one-dimensional extension exists is a
    property of the algebra, so two seeded random bases give the same verdict."""
    rng = random.Random(f"extension-basis:{field!r}")
    for name in catalog.dim_le4_names():
        A = catalog.instantiate(name)
        A = reduce_mod(A, field.p) if field.p else A
        verdict = has_nontrivial_1dim_extension(A)
        for _ in range(2):
            while True:
                P = Matrix.from_rows(field, [[rng.randrange(-3, 4) for _ in range(A.dim)] for _ in range(A.dim)])
                if P.is_invertible():
                    break
            assert has_nontrivial_1dim_extension(change_basis(A, P)) == verdict, name


def test_parse_cocycle():
    A = catalog.instantiate("J4,6")
    theta = parse_cocycle(A, "d(b,d)+1*d(c,c)")
    assert theta.mat.at(1, 3) == 1 and theta.mat.at(2, 2) == 1
    theta = parse_cocycle(A, "2*d(1,3), -1/2*d(a,b)")
    assert theta.mat.at(0, 2) == 2 and theta.mat.at(0, 1) == QQ.parse("-1/2")
    # both orders of a pair, and repeats of one term, share one coordinate
    assert parse_cocycle(A, "d(a,b)+d(b,a)").upper() == delta(A, 0, 1, 2).upper()
    assert parse_cocycle(A, "d(c,c)-d(c,c)").is_zero()
    assert parse_cocycle(A, "d(a,a)+3*d(a,a)").upper() == delta(A, 0, 0, 4).upper()
    with pytest.raises(NiljError):
        parse_cocycle(A, "d(a)")
    with pytest.raises(NiljError):
        parse_cocycle(A, "d(a,z)")


# basis names, 1-based indices in and out of range, and digits int() refuses
_INDICES = st.sampled_from(["a", "d", "1", "4", "0", "5", "²", "¹", "٣", " b "]) | st.text(max_size=3)
# coefficients of any length, long exponents and digit strings past the
# parser's 100-digit bound among them: each is read or refused at once
_COEFFICIENTS = (
    st.text("0123456789/-+.e_ ", max_size=40)
    | st.builds("{}e{}".format, st.integers(-9, 9), st.integers(0, 10**8))
    | st.text("0123456789", min_size=90, max_size=5000)
)
_TERMS = (
    st.builds("{}*d({},{})".format, _COEFFICIENTS, _INDICES, _INDICES)
    | st.builds("d({},{})".format, _INDICES, _INDICES)
    | st.text(max_size=12)
)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(_TERMS, max_size=3).map("+".join), p=st.sampled_from([None, 5]))
def test_parse_cocycle_returns_a_cocycle_or_refuses(text, p):
    A = catalog.instantiate("J4,6")
    if p is not None:
        A = reduce_mod(A, p)
    try:
        theta = parse_cocycle(A, text)
    except NiljError:
        return
    assert isinstance(theta, Cocycle) and theta.algebra == A


def test_cocycle_value_and_delta():
    A = catalog.instantiate("J2,2")
    theta = delta(A, 0, 1)
    assert theta.mat.at(0, 1) == theta.mat.at(1, 0) == 1
    assert theta.mat.at(0, 0) == 0
    assert sym_dim(A.dim) == 3


@pytest.mark.parametrize("field", (QQ, F5, Field(7)), ids=repr)
def test_rank_shortcuts_and_the_associative_cocycles_match_the_subspaces(field):
    """The fingerprint's derivation and Ann-meet-J^2 dimensions, read off ranks,
    and h2's associativity-constrained cocycles, the associativity constraint
    space without an intersection with Z2, agree with the subspaces they stand
    for on every catalog instance and on one seeded change of basis of each."""
    rng = random.Random(f"shortcuts:{field!r}")
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            A = catalog.instantiate(name, binding)
            A = reduce_mod(A, field.p) if field.p else A
            while True:
                P = Matrix.from_rows(field, [[rng.randrange(-3, 4) for _ in range(A.dim)]
                                             for _ in range(A.dim)])
                if P.is_invertible():
                    break
            for B in (A, change_basis(A, P)):
                inv, powers = invariant_vector(B), power_filtration(B)
                sq = powers[1] if len(powers) > 1 else Subspace.zero(field, B.dim)
                assert inv.der_dim == derivation_algebra(B).dim, name
                assert inv.ann_meet_sq_dim == annihilator(B).intersect(sq).dim, name
                sp, z2, b2 = h2(B), cocycle_space(B), coboundary_space(B)
                assoc = associativity_constraint_space(B).intersect(z2)
                assert assoc == associativity_constraint_space(B), name
                assert sp.z2 == z2 and sp.b2 == b2, name
                reps = tuple(Cocycle.from_upper(B, v) for v in b2.extend(z2.vectors()))
                assoc_reps = tuple(Cocycle.from_upper(B, v) for v in b2.extend(assoc.vectors()))
                assert (sp.h2_reps, sp.h2_assoc_reps) == (reps, assoc_reps), name


@pytest.mark.parametrize("field", (QQ, F5, Field(7)), ids=repr)
def test_h2_builds_its_representatives_on_first_read(field, monkeypatch):
    """h2 computes Z2 and B2 only; each representative tuple is built on its
    first read, one Cocycle per representative and one associativity space,
    and kept.  Equality compares (algebra, z2, b2) alone."""
    calls = {"assoc": 0, "cocycles": 0}
    assoc_space, from_upper = associativity_constraint_space, Cocycle.from_upper

    def counting_assoc(A):
        calls["assoc"] += 1
        return assoc_space(A)

    def counting_from_upper(A, coords):
        calls["cocycles"] += 1
        return from_upper(A, coords)

    monkeypatch.setattr(cohomology, "associativity_constraint_space", counting_assoc)
    monkeypatch.setattr(Cocycle, "from_upper", staticmethod(counting_from_upper))
    for name, binding in (("J3,2", {}), ("J4,6", {}), ("J5,17", {"alpha": "2"})):
        A = catalog.instantiate(name, binding)
        A = reduce_mod(A, field.p) if field.p else A
        calls.update(assoc=0, cocycles=0)
        sp = h2.__wrapped__(A)  # a fresh object, not the cached one
        assert sp.h2_dim == sp.z2.dim - sp.b2.dim > 0
        assert calls == {"assoc": 0, "cocycles": 0}, name
        assert sp.h2_reps is sp.h2_reps
        assert calls == {"assoc": 0, "cocycles": sp.h2_dim}, name
        assert sp.h2_assoc_reps is sp.h2_assoc_reps and sp.h2_assoc_dim == len(sp.h2_assoc_reps)
        assert calls == {"assoc": 1, "cocycles": sp.h2_dim + sp.h2_assoc_dim}, name
        assert sp == h2(A) and hash(sp) == hash(h2(A)), name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_associative_forms_are_cocycles_of_any_commutative_algebra(any_field, nilpotent_algebras, data):
    """theta(x, d(yz)) = theta(xd, yz) pairs the three positive terms of each
    linearized-identity row with its three negative ones, so Z2 contains the
    associativity constraint space even where the Jordan identity fails."""
    A = data.draw(nilpotent_algebras(any_field))
    assert cocycle_space(A).contains_subspace(associativity_constraint_space(A))
