import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from nilj import catalog, isomorphism
from nilj.algebra import (
    Algebra,
    change_basis,
    invariant_vector,
    reduce_mod,
    structure_tensor,
    zero_algebra,
)
from nilj.cohomology import is_automorphism, parse_cocycle
from nilj.errors import (
    CaseNotCoveredError,
    DimensionMismatchError,
    FieldMismatchError,
    NiljError,
    NotNilpotentError,
    RootNotInFieldError,
    SearchBudgetExceededError,
)
from nilj.fields import QQ, Field
from nilj.isomorphism import (
    Morphism,
    _forced_maps,
    _graded,
    _graded_level1_solutions,
    _graded_signature,
    _level1_rows,
    _minors,
    _model,
    _search,
    enumerate_automorphisms,
    invariant_separation,
    is_homomorphism,
    lemma_a_matrix,
    orbit_census,
    search_isomorphism,
    verify_isomorphism,
)
from nilj.linalg import Matrix

F5, F7 = Field(5), Field(7)


def _random_basis(field, n, rng):
    while True:
        P = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


def test_all_recorded_maps_verify():
    for spec in catalog.KNOWN_MAPS + catalog.OVERLAP_MAPS:
        src, dst, mat = spec.resolve()
        assert verify_isomorphism(Morphism(src, dst, mat)), spec.key


def test_sigma_free_phi2_is_not_rational():
    """Without the sigma factor the map is not even a homomorphism over Q:
    the image of b'^2 = c' comes out with the wrong sign."""
    src, dst, mat = catalog.PHI2_VERBATIM_Q.resolve()
    assert not is_homomorphism(Morphism(src, dst, mat))
    assert not verify_isomorphism(Morphism(src, dst, mat))


def test_a_claimed_map_over_another_field_is_refused():
    """Over F_5, phi(a) = a/2, phi(b) = b/3 gives phi(a)^2 = 4b but phi(b) = 2b:
    the rational entries are not residues, so every check refuses the map
    instead of reading it in int64."""
    A = reduce_mod(catalog.instantiate("J2,2"), 5)
    M = Matrix.from_rows(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    for check in (lambda: verify_isomorphism(Morphism(A, A, M)),
                  lambda: is_homomorphism(Morphism(A, A, M)),
                  lambda: is_automorphism(A, M)):
        with pytest.raises(FieldMismatchError):
            check()
    assert not verify_isomorphism(Morphism(A, A, Matrix.from_rows(F5, [[3, 0], [0, 2]])))
    with pytest.raises(DimensionMismatchError):
        verify_isomorphism(Morphism(A, A, Matrix.identity(F5, 3)))


def test_identity_is_isomorphism():
    A = catalog.instantiate("J5,37")
    assert verify_isomorphism(Morphism(A, A, Matrix.identity(QQ, 5)))


def test_verified_maps_preserve_invariants():
    for spec in catalog.KNOWN_MAPS + catalog.OVERLAP_MAPS:
        src, dst, _ = spec.resolve()
        assert invariant_vector(src) == invariant_vector(dst), spec.key


def test_invariant_separation_examples():
    assert invariant_separation(
        catalog.instantiate("J5,2"), catalog.instantiate("J5,4")
    ) == "distinct"
    A = catalog.instantiate("J5,9")
    assert invariant_separation(A, A) == "inconclusive"
    # frozen regression: derivation dimensions 6 vs 7 separate these
    assert invariant_separation(A, catalog.instantiate("J5,13")) == "distinct"


def test_search_finds_self_isomorphism():
    A = catalog.instantiate("J4,6")
    m = search_isomorphism(A, A, F5)
    assert m is not None and verify_isomorphism(m)


def test_search_separates_catalog_neighbors():
    assert search_isomorphism(catalog.instantiate("J5,2"), catalog.instantiate("J5,3"), F5) is None
    assert search_isomorphism(catalog.instantiate("J5,9"), catalog.instantiate("J5,10"), F5) is None


def test_search_is_complete_for_known_maps():
    # maps known to exist must be rediscovered by the exhaustive search
    m = search_isomorphism(catalog.adhoc("R_J2"), catalog.instantiate("J4,10"), F5)
    assert m is not None and verify_isomorphism(m)
    m = search_isomorphism(
        catalog.instantiate("J5,30", {"alpha": "1", "beta": "2"}),
        catalog.instantiate("J5,30", {"alpha": "2", "beta": "1"}),
        F7,
    )
    assert m is not None
    m = search_isomorphism(
        catalog.instantiate("J5,41"), catalog.adhoc("V8_J33"), F7
    )
    assert m is not None


def test_enumerate_automorphisms_counts():
    assert len(enumerate_automorphisms(zero_algebra(QQ, 2), F5)) == 480
    auts = enumerate_automorphisms(catalog.instantiate("J2,2"), F5)
    assert len(auts) == 20
    A5 = reduce_mod(catalog.instantiate("J2,2"), 5)
    assert all(is_automorphism(A5, m) for m in auts)


def test_aut_j46_corrected_count():
    """The bundled six-parameter family shape is not multiplicative; the true
    group is phi(a) = x1 a + x4 d, phi(c) = z3 c + z4 d with x1 z3 != 0,
    so |Aut| = 4*5*4*5 = 400 over F_5."""
    A = catalog.instantiate("J4,6")
    auts = enumerate_automorphisms(A, F5)
    assert len(auts) == 400
    A5 = reduce_mod(A, 5)
    for mat in auts[:40]:
        assert is_automorphism(A5, mat)
        # a-column touches only a and d; c-column only c and d
        assert mat.at(1, 0) == 0 and mat.at(2, 0) == 0
        assert mat.at(0, 2) == 0 and mat.at(1, 2) == 0
    # closed under composition (sampled)
    keys = {m.data for m in auts}
    for x in auts[::97]:
        for y in auts[::83]:
            assert x.mul(y).data in keys


def test_enumeration_budget_guard():
    with pytest.raises(SearchBudgetExceededError):
        enumerate_automorphisms(catalog.instantiate("J4,1"), F5)


def test_orbit_census_small():
    rep = orbit_census(catalog.instantiate("J1,1"), F5, 1)
    assert rep.total_admissible == 1 and rep.orbit_count == 1
    rep = orbit_census(catalog.instantiate("J4,8"), F5, 1)
    assert rep.total_admissible == 0
    # corrected: no class of J4,6 pairs the center, so nothing is admissible
    rep = orbit_census(catalog.instantiate("J4,6"), F5, 1)
    assert rep.total_admissible == 0 and rep.aut_group_order == 400


def test_orbit_census_sizes_are_consistent():
    rep = orbit_census(catalog.instantiate("J3,2"), F5, 1)
    assert sum(rep.orbit_sizes) == rep.total_admissible
    assert all(rep.aut_group_order % size == 0 for size in rep.orbit_sizes)
    rep2 = orbit_census(catalog.instantiate("J3,2"), F5, 2)
    assert sum(rep2.orbit_sizes) == rep2.total_admissible


def test_aut_stable_locus_on_j46():
    """The coefficient of d(c,c) being zero is preserved by the action."""
    A5 = reduce_mod(catalog.instantiate("J4,6"), 5)
    theta0 = parse_cocycle(A5, "d(b,d)")
    theta1 = parse_cocycle(A5, "d(b,d)+d(c,c)")
    for phi in enumerate_automorphisms(A5, F5):
        # the pullback phi^T M phi
        assert phi.transpose().mul(theta0.mat).mul(phi).at(2, 2) == 0
        assert phi.transpose().mul(theta1.mat).mul(phi).at(2, 2) != 0


def test_lemma_a_rational_cases():
    cases = [
        ((2, 0, 0), (1, 0, 0)),   # first coordinate only
        ((0, 3, 0), (1, 0, 0)),   # second coordinate only
        ((1, 2, 0), (0, 0, 1)),   # both, rational radicands
        ((1, 0, 2), (0, 0, 1)),   # third nonzero, second zero
        ((0, 3, 1), (0, 0, 1)),   # third nonzero, first zero
        ((1, 4, 1), (0, 0, 1)),   # generic, discriminant a square
        ((1, -2, 2), (1, 0, 0)),  # vanishing discriminant
    ]
    for alpha, expected in cases:
        A = lemma_a_matrix([QQ.of(x) for x in alpha], QQ)
        image = tuple(
            sum(QQ.of(alpha[i]) * A.at(i, j) for i in range(3)) for j in range(3)
        )
        assert image == tuple(QQ.of(x) for x in expected)


def test_lemma_a_specific_values():
    A = lemma_a_matrix([2, 0, 0], QQ)
    assert A.row_list() == [[QQ.parse("1/2"), 0, 0], [0, 2, 0], [0, 0, 1]]
    A = lemma_a_matrix([0, 3, 0], QQ)
    assert A.at(0, 1) == 3 and A.at(1, 0) == QQ.parse("1/3") and A.at(2, 2) == 1


def test_lemma_a_uncovered_case():
    with pytest.raises(CaseNotCoveredError):
        lemma_a_matrix([0, 0, 5], QQ)
    with pytest.raises(NiljError):
        lemma_a_matrix([0, 0, 0], QQ)


def test_lemma_a_roots_in_prime_fields():
    with pytest.raises(RootNotInFieldError) as err:
        lemma_a_matrix([1, 1, 0], F5)  # needs sqrt(1/8) = sqrt(2), not a residue mod 5
    assert err.value.radicand == F5.parse("1/8")
    A = lemma_a_matrix([1, 1, 0], F7)  # 2 = 3^2 mod 7
    assert A.rows == 3


def test_census_cross_validation_against_catalog():
    """Two-dimensional censuses recover the catalog plus exactly the expected
    extras: associative classes (out of catalog scope) and one twisted form.

    The extension of J3,3 with products a*b=c, a*a=d, b*b=e, b*c=d+2e is a
    non-associative Jordan algebra that no catalog instance matches over F_5,
    yet it is isomorphic to J5,41 over F_11: a rational form of J5,41 that
    splits off as its own orbit over small fields.
    """
    from nilj.algebra import Algebra, is_associative, jordan_identity_holds, reduce_mod

    rep = orbit_census(catalog.instantiate("J3,2"), F5, 2)
    assert rep.orbit_count == 9 and rep.total_admissible == 805
    rep = orbit_census(catalog.instantiate("J3,3"), F5, 2)
    assert rep.orbit_count == 12 and rep.total_admissible == 805

    twist = Algebra(QQ, ("a", "b", "c", "d", "e"),
                    {(0, 1): {2: 1}, (0, 0): {3: 1}, (1, 1): {4: 1},
                     (1, 2): {3: 1, 4: 2}})
    assert jordan_identity_holds(twist) and not is_associative(twist)
    assert invariant_vector(twist) == invariant_vector(catalog.instantiate("J5,41"))
    assert search_isomorphism(twist, catalog.instantiate("J5,41"), F5) is None
    assert search_isomorphism(twist, catalog.instantiate("J5,41"), Field(11)) is not None


def test_search_rediscovers_every_bundled_map():
    """Completeness: wherever a verified map exists over the search field,
    the exhaustive search must find some isomorphism."""
    from nilj.algebra import reduce_mod

    for spec in catalog.KNOWN_MAPS + catalog.OVERLAP_MAPS:
        src, dst, mat = spec.resolve()
        assert verify_isomorphism(Morphism(src, dst, mat)), spec.key
        if spec.field.is_prime_field:
            assert search_isomorphism(src, dst, spec.field) is not None, spec.key
        else:
            for p in (5, 7):
                m = search_isomorphism(reduce_mod(src, p), reduce_mod(dst, p), Field(p))
                assert m is not None, (spec.key, p)


# same-parent pairs whose fingerprints differ over F_p: search_isomorphism
# prunes them, so the engine itself must find nothing there
PRUNED_PAIRS = [
    ("J5,2", "J5,3", 5), ("J5,7", "J5,8", 5), ("J5,9", "J5,10", 5), ("J5,9", "J5,12", 7),
    ("J5,10", "J5,11", 7), ("J5,11", "J5,16", 5), ("J5,13", "J5,14", 5), ("J5,14", "J5,16", 5),
    ("J5,18", "J5,19", 7), ("J5,19", "J5,20", 5), ("J5,21", "J5,22", 7), ("J5,31", "J5,32", 7),
]


@pytest.mark.parametrize("src, dst, p", PRUNED_PAIRS)
def test_pruned_pairs_have_no_isomorphism_over_the_field(src, dst, p):
    A, B = catalog.instantiate(src), catalog.instantiate(dst)
    assert catalog.get(src).parent == catalog.get(dst).parent
    Ap, Bp = reduce_mod(A, p), reduce_mod(B, p)
    assert invariant_vector(Ap) != invariant_vector(Bp)
    assert _search(Ap, Bp) is None
    assert search_isomorphism(A, B, Field(p)) is None


def _twisted_j541():
    return Algebra(QQ, ("a", "b", "c", "d", "e"),
                   {(0, 0): {3: 1}, (0, 1): {2: 1}, (1, 1): {4: 1}, (1, 2): {3: 1, 4: 2}})


PINNED_HITS = [
    (lambda: catalog.adhoc("R_J2"), lambda: catalog.instantiate("J4,10"), 5),
    (lambda: catalog.instantiate("J5,30", {"alpha": "1", "beta": "2"}),
     lambda: catalog.instantiate("J5,30", {"alpha": "2", "beta": "1"}), 7),
    (lambda: catalog.instantiate("J5,41"), lambda: catalog.adhoc("V8_J33"), 7),
    (_twisted_j541, lambda: catalog.instantiate("J5,41"), 11),
]


@pytest.mark.parametrize("case", range(len(PINNED_HITS)))
def test_search_hits_survive_a_random_change_of_basis(case):
    """Metamorphic: rewriting the target on a random basis keeps the hit, and
    the map found is a verified isomorphism onto the rewritten target."""
    make_src, make_dst, p = PINNED_HITS[case]
    F = Field(p)
    A, B = reduce_mod(make_src(), p), reduce_mod(make_dst(), p)
    rng = random.Random(f"search-basis:{case}")
    for _ in range(3):
        B2 = change_basis(B, _random_basis(F, B.dim, rng))
        m = search_isomorphism(A, B2, F)
        assert m is not None and m.dst == B2 and verify_isomorphism(m)


def test_non_nilpotent_input_raises_the_same_error():
    """The prune computes fingerprints first, and they start from the power
    filtration as the engine does, so the error class is unchanged."""
    idem = Algebra(F5, ("a",), {(0, 0): {0: 1}})
    nil = zero_algebra(F5, 1)
    for A, B in ((idem, idem), (nil, idem), (idem, nil)):
        with pytest.raises(NotNilpotentError):
            search_isomorphism(A, B, F5)


@pytest.mark.parametrize("name", ["J2,2", "J3,2", "J4,6", "J4,10"])
def test_compiled_closure_rebuilds_every_automorphism(name, every_isomorphism):
    """The closure program, fed the generator images of an automorphism,
    forces that automorphism back with zero defects; fed random images it
    keeps them as the generators' columns."""
    M = _model(reduce_mod(catalog.instantiate(name), 5))
    s = M.n1
    phis = np.concatenate(list(every_isomorphism(M.A, M.A)))
    forced, defects = _forced_maps(M, M, phis[:, :, :s].transpose(0, 2, 1).copy())
    assert np.array_equal(forced, phis) and not defects.any()
    gens = np.random.default_rng(5).integers(0, 5, (64, s, M.A.dim))
    forced, defects = _forced_maps(M, M, gens)
    assert np.array_equal(forced[:, :, :s].transpose(0, 2, 1), gens)
    ok = ~defects.any(axis=1) & (_minors(gens[:, :, :s], 5)[:, 0] != 0)
    full = change_basis(M.A, M.to_old)  # the algebra in filtration coordinates
    expected = [is_automorphism(full, Matrix.from_rows(F5, f.tolist())) for f in forced]
    assert np.array_equal(ok, expected)


@pytest.mark.parametrize("name", ["J4,6", "J4,11", "J5,2", "J5,3"])
def test_graded_closure_rebuilds_the_graded_part_of_every_automorphism(name, every_isomorphism):
    """In filtration coordinates the block-diagonal part of an automorphism is
    an automorphism of the associated graded algebra; the graded closure
    forces it back from its level-1 images with zero defects, and the graded
    leaf check accepts it.  On random level-1 images that check agrees with
    ``is_automorphism`` of the graded algebra.  A random basis makes the
    filtration coordinates' products reach below their level sums."""
    A = reduce_mod(catalog.instantiate(name), 5)
    M = _model(change_basis(A, _random_basis(F5, A.dim, random.Random(f"graded:{name}"))))
    assert (M.C != _graded(M).C).any()
    levels = np.array(M.levels)
    phis = np.concatenate(list(every_isomorphism(M.A, M.A)))
    graded = phis * (levels[:, None] == levels)
    gens = graded[:, :, :M.n1].transpose(0, 2, 1).copy()
    forced, defects = _forced_maps(_graded(M), _graded(M), gens)
    assert np.array_equal(forced, graded) and not defects.any()
    assert _minors(gens[:, :, :M.n1], 5).all()
    n, C = M.A.dim, _graded(M).C
    G = Algebra(F5, M.A.names, {(i, j): dict(enumerate(C[i, j].tolist())) for i in range(n) for j in range(i, n)})
    gens = np.zeros((64, M.n1, n), dtype=np.int64)
    gens[:, :, :M.n1] = np.random.default_rng(11).integers(0, 5, (64, M.n1, M.n1))
    forced, defects = _forced_maps(_graded(M), _graded(M), gens)
    ok = ~defects.any(axis=1) & (_minors(gens[:, :, :M.n1], 5)[:, 0] != 0)
    assert np.array_equal(ok, [is_automorphism(G, Matrix.from_rows(F5, f.tolist())) for f in forced])


@pytest.mark.parametrize("p", [5, 7, 9223372036854775837])
@pytest.mark.parametrize("name", ["J4,6", "J4,12", "J5,2", "J5,24", "J5,41"])
def test_filtration_tensor_is_the_algebra_in_filtration_coordinates(name, p):
    """C is the structure tensor of the algebra written on the filtration
    basis (object dtype above the int64 guard), and no product of two
    coordinates below a level has a component below their level sum."""
    M = _model(reduce_mod(catalog.instantiate(name), p))
    T, _ = structure_tensor(change_basis(M.A, M.to_old))
    assert M.C.dtype == T.dtype and np.array_equal(M.C, T)
    levels = np.array(M.levels)
    below = levels[None, None, :] < levels[:, None, None] + levels[None, :, None]
    assert not M.C[below].any()


def test_prime_above_int64_keeps_the_budget_error():
    """The filtration model is built in the structure tensor's dtype, object
    above the int64 guard, so the search reaches its budget check."""
    J46 = catalog.instantiate("J4,6")
    with pytest.raises(SearchBudgetExceededError):
        search_isomorphism(J46, J46, Field(9223372036854775837))  # the first prime above 2^63


def test_pruned_search_builds_no_filtration_model():
    A, B = catalog.instantiate("J5,7"), catalog.instantiate("J5,8")
    _model.cache_clear()
    assert search_isomorphism(A, B, F5) is None
    assert _model.cache_info().currsize == 0


# (algebra, p, basis change P, first map found) where graded leaves go on to
# the lift stages: over F_5 for nilpotency index >= 5, where the search runs a
# batched digit level before the linear stage; over F_7 for J5,13 (index 4),
# whose leaves go straight to the linear stage, and where many of them pass
# the graded check yet cannot lift
PINNED_DEEP_HITS = [
    ("J5,2", 5, (0, 2, 3, 4, 3, 3, 3, 4, 3, 1, 2, 0, 0, 1, 3, 1, 2, 3, 2, 3, 4, 3, 4, 2, 4),
     (0, 2, 0, 3, 4, 1, 1, 0, 0, 3, 4, 3, 0, 2, 2, 1, 1, 1, 0, 2, 3, 0, 2, 3, 0)),
    ("J5,24", 5, (0, 1, 3, 2, 4, 2, 1, 0, 2, 2, 2, 1, 3, 3, 3, 4, 3, 4, 4, 0, 4, 4, 2, 3, 1),
     (2, 3, 0, 0, 4, 1, 3, 0, 1, 1, 0, 1, 3, 1, 4, 0, 0, 2, 1, 0, 0, 1, 3, 1, 3)),
    ("J5,13", 7, (3, 2, 0, 6, 5, 6, 5, 4, 4, 2, 1, 5, 4, 0, 0, 6, 6, 5, 5, 5, 6, 3, 3, 1, 3),
     (4, 5, 4, 4, 3, 1, 3, 2, 3, 1, 5, 3, 6, 6, 5, 1, 0, 1, 1, 3, 5, 0, 4, 5, 4)),
]


@pytest.mark.parametrize("name, p, basis, first", PINNED_DEEP_HITS, ids=[c[0] for c in PINNED_DEEP_HITS])
def test_first_hit_through_a_digit_level_is_pinned(name, p, basis, first):
    F = Field(p)
    A = reduce_mod(catalog.instantiate(name), p)
    B = change_basis(A, Matrix(5, 5, basis, F))
    m = search_isomorphism(A, B, F)
    assert m.mat.data == first and verify_isomorphism(m)


def test_graded_signature_survives_a_random_change_of_basis():
    """Metamorphic: every dimension-5 instance at its sample bindings has the
    signature over F_7 of one seeded random rewriting of it, and the known map
    between the two types every level-1 vector: in both models' filtration
    coordinates, its level-1 block sends each level-1 code x of A to a code of
    the rewriting with A's ``_level1_rows`` row of x."""
    for name in catalog.dim5_names():
        for binding in catalog.sample_bindings(name):
            A = reduce_mod(catalog.instantiate(name, binding), 7)
            P = _random_basis(F7, A.dim, random.Random(f"signature:{name}:{sorted(binding.items())}"))
            B = change_basis(A, P)
            MA, MB = _model(A), _model(B)
            assert _graded_signature(MA) == _graded_signature(MB), (name, binding)
            # B is written on the columns of P, so P^-1 maps A onto B
            s = MA.n1
            phi = np.array(MB.to_new.mul(P.inverse()).mul(MA.to_old).row_list(), dtype=np.int64)
            digits = isomorphism._digits(np.arange(7**s), 7, s)
            images = (digits @ phi[:s, :s].T % 7) @ 7 ** np.arange(s)
            assert (_level1_rows(MB)[images] == _level1_rows(MA)).all(), (name, binding)


def test_isomorphic_pairs_have_equal_graded_signatures():
    """Soundness: every pinned hit and every bundled verified map joins two
    algebras with one signature over each field the map lives in."""
    cases = [(make_src(), make_dst(), p) for make_src, make_dst, p in PINNED_HITS]
    for spec in catalog.KNOWN_MAPS + catalog.OVERLAP_MAPS:
        src, dst, _ = spec.resolve()
        primes = [spec.field.p] if spec.field.is_prime_field else [5, 7]
        cases += [(src, dst, p) for p in primes]
    for src, dst, p in cases:
        MA, MB = (_model(reduce_mod(X, p) if not X.field.is_prime_field else X) for X in (src, dst))
        assert _graded_signature(MA) == _graded_signature(MB), (src.names, dst.names, p)


# fingerprint-equal pairs whose associated graded algebras differ over F_7:
# the level-(1,1) product form of J5,12 has rank 2, that of J5,19 rank 3
SIGNATURE_PRUNED = [("J5,12", "J5,19"), ("J5,15", "J5,18"), ("J5,12", "J5,21")]


@pytest.mark.parametrize("src, dst", SIGNATURE_PRUNED)
def test_signature_prune_skips_the_graded_stage(src, dst, monkeypatch):
    """The search returns None before it enumerates a level-1 image, and the
    typed graded stage, run anyway, yields no leaf."""
    A, B = (reduce_mod(catalog.instantiate(name), 7) for name in (src, dst))
    assert invariant_vector(A) == invariant_vector(B)
    MA, MB = _model(A), _model(B)
    assert _graded_signature(MA) != _graded_signature(MB)
    assert not list(_graded_level1_solutions(MA, MB))

    def refuse(*args):
        raise AssertionError("the graded stage ran")

    monkeypatch.setattr(isomorphism, "_graded_level1_solutions", refuse)
    assert search_isomorphism(A, B, F7) is None


def test_signature_prune_keeps_the_budget_errors():
    """Above the candidate budget and above the graded table limit the search
    raises as it did before the signature existed."""
    A, B = catalog.instantiate("J5,12"), catalog.instantiate("J5,19")
    with pytest.raises(SearchBudgetExceededError, match=r"^10007\^\(3\^2\) graded candidates exceed the search budget$"):
        search_isomorphism(A, B, Field(10007))
    F53 = Field(53)
    A = reduce_mod(catalog.instantiate("J4,6"), 53)
    B = change_basis(A, _random_basis(F53, A.dim, random.Random("signature:J4,6")))
    with pytest.raises(SearchBudgetExceededError, match=r"^graded table of size 53\^2 exceeds the supported budget$"):
        search_isomorphism(A, B, F53)


def _linear_cases():
    """(source, target, p) of searches whose candidates reach the linear stage:
    J5,13 -> J5,16 (no map) and onto the pinned J5,13 basis over F_7, two
    J5,17 bindings onto themselves over F_5 and F_7, and J4,6, J4,7 and J4,12
    onto themselves over F_5, in the catalog basis and in one seeded basis.
    J4,12 has nilpotency index 3, so its stage runs with no digit to solve."""
    J513 = reduce_mod(catalog.instantiate("J5,13"), 7)
    cases = {
        "J5,13-J5,16": (J513, reduce_mod(catalog.instantiate("J5,16"), 7), 7),
        "J5,13-pinned": (J513, change_basis(J513, Matrix(5, 5, PINNED_DEEP_HITS[2][2], F7)), 7),
    }
    for alpha in ("0", "1"):
        for p in (5, 7):
            A = reduce_mod(catalog.instantiate("J5,17", {"alpha": alpha}), p)
            cases[f"J5,17[{alpha}]-F{p}"] = (A, A, p)
    for name in ("J4,6", "J4,7", "J4,12"):
        A = reduce_mod(catalog.instantiate(name), 5)
        cases[name] = (A, A, 5)
        cases[f"{name}-basis"] = (A, change_basis(A, _random_basis(F5, A.dim, random.Random(f"linear:{name}"))), 5)
    return cases


LINEAR_CASES = _linear_cases()


def _linear_stage_calls(A, B, limit, monkeypatch, every_isomorphism):
    """The (MA, MB, gens, levels, d) of the linear-stage calls of ``every_isomorphism(A, B)``,
    in order, at most ``limit`` candidates for each quotient size d.  A call on a quotient
    (d < n) passes its solutions on to the next level, so the search goes on to the calls
    of its last group (d = n); it is cut after the first ``limit`` candidates of those."""
    calls = []
    stage = isomorphism._linear_stage

    class Enough(Exception):
        pass

    def record(MA, MB, gens, levels, d, find_all):
        left = limit - sum(len(call[2]) for call in calls if call[4] == d)
        if left > 0:
            calls.append((MA, MB, gens[:left].copy(), levels, d))
        if d < MA.A.dim:
            return stage(MA, MB, gens, levels, d, find_all)
        if len(gens) >= left:
            raise Enough
        return iter(())

    with monkeypatch.context() as patch:
        patch.setattr(isomorphism, "_linear_stage", record)
        try:
            list(every_isomorphism(A, B))
        except Enough:
            pass
    return calls


@pytest.mark.parametrize("block", [isomorphism.AUT_BLOCK, 3])
@pytest.mark.parametrize("case", list(LINEAR_CASES))
def test_linear_stage_matches_digit_enumeration(case, block, monkeypatch, every_isomorphism):
    """For the first candidates that reach each digit level, the linear stage's maps are, in
    order, those of running every setting of the level's digits through the forced closure of
    the level's quotient C[:d, :d, :d]: with find_all every isomorphism of the quotients in
    ``iproduct`` order of the digits, and otherwise, per candidate, the one solution whose
    free digits are zero (a digit is free when it is the last one moved by some difference of
    two solutions) when that solution has full rank.  The J5,17 searches solve level 2 modulo
    the levels >= 4 (d < n) before their last group, the others only a last group (d = n)."""
    A, B, p = LINEAR_CASES[case]
    monkeypatch.setattr(isomorphism, "AUT_BLOCK", block)
    calls = _linear_stage_calls(A, B, 128, monkeypatch, every_isomorphism)
    assert any(d == A.dim for *_, d in calls)
    assert any(d < A.dim for *_, d in calls) == case.startswith("J5,17")
    for MA, MB, gens, levels, d in calls:
        gs, cs = isomorphism._slots(MB, MA.n1, levels)
        digits = np.array(list(itertools.product(range(p), repeat=len(gs))), dtype=np.int64)
        every, first = [], []
        for g in gens:
            cand = np.repeat(g[None, :, :d], len(digits), axis=0)
            cand[:, gs, cs] = digits
            phis, defects = _forced_maps(MA, MB, cand)
            ok = ~defects.any(axis=1) & (_minors(cand[:, :, :MA.n1], p)[:, 0] != 0)
            every += list(phis[ok])
            solved = np.flatnonzero(~defects.reshape(len(cand), -1).any(axis=1))
            if len(solved):
                moved = (digits[solved] - digits[solved[0]]) % p
                free = sorted({np.flatnonzero(step)[-1] for step in moved if step.any()})
                (particular,) = solved[~digits[solved][:, free].any(axis=1)]
                first += [phis[particular]] if ok[particular] else []
        for find_all, want in ((True, every), (False, first)):
            got = [phi for maps in isomorphism._linear_stage(MA, MB, gens.copy(), levels, d, find_all) for phi in maps]
            assert len(got) == len(want) and all(map(np.array_equal, got, want)), (d, find_all, len(got), len(want))


def test_linear_stage_evaluates_one_defect_row_per_candidate(monkeypatch):
    """Every linear-stage call, on a level's quotient or on the whole algebra, takes each
    candidate's constant term and its slopes from one dual-number run of the closure
    (``_forced_maps``), so it runs the closure and computes the product defects of at most
    one map per candidate.  Checked at every digit level of two searches over F_7:
    J5,13 -> J5,16, whose 10,584 graded leaves all reach its one group of levels as
    candidates and none lifts, and J5,17 onto itself, whose level 2 is solved modulo the
    levels >= 4 first.  Rows are counted, so the block size does not matter."""
    seen, inside = {}, []
    kernels = {"_forced_maps": "maps", "_defects_at": "defect rows", "_product_defects": "defect rows"}
    stage = isomorphism._linear_stage

    def counting(kernel, key):
        def count(*args):
            if inside:
                seen[inside[0]][key] += len(args[2])  # gens or phis
            return kernel(*args)
        return count

    def count_stage(MA, MB, gens, levels, d, find_all):
        seen.setdefault(d, {"candidates": 0, "maps": 0, "defect rows": 0})["candidates"] += len(gens)
        inside.append(d)
        maps = list(stage(MA, MB, gens, levels, d, find_all))
        inside.pop()
        return iter(maps)

    for name, key in kernels.items():
        monkeypatch.setattr(isomorphism, name, counting(getattr(isomorphism, name), key))
    monkeypatch.setattr(isomorphism, "_linear_stage", count_stage)
    leaves, lift = [], isomorphism._lift_candidates

    def count_leaves(MA, MB, block, find_all):
        leaves.append(len(block))
        return lift(MA, MB, block, find_all)

    monkeypatch.setattr(isomorphism, "_lift_candidates", count_leaves)
    J513, J516 = (reduce_mod(catalog.instantiate(name), 7) for name in ("J5,13", "J5,16"))
    J517 = reduce_mod(catalog.instantiate("J5,17", {"alpha": "1"}), 7)
    for A, B, hit in ((J513, J516, False), (J517, J517, True)):
        seen.clear()
        leaves.clear()
        assert (search_isomorphism(A, B, F7) is not None) == hit
        M = _model(A)
        assert set(seen) == {M.block[K + 1][1] for K in range(2, M.m - 1) if 2 * K < M.m} | {A.dim}, seen
        for counts in seen.values():
            assert 0 < counts["maps"] <= counts["candidates"], seen
            assert 0 < counts["defect rows"] <= counts["candidates"], seen
        if A is J513:
            # the typed graded stage yields no leaf that the graded check drops
            assert sum(leaves) == seen[A.dim]["candidates"] == 10_584, (leaves, seen)


def test_index_three_skips_the_graded_leaf_check(monkeypatch):
    """With nilpotency index m <= 3, J^3 = 0 leaves C graded already, so the whole-algebra
    check of the zero-slot linear stage is the graded one: the automorphism cosets of J2,2
    and J4,12 over F_5 never build the graded model.  The leaf types (``_level1_rows``)
    read it, so they are cached before it is refused."""
    def refuse(*args):
        raise AssertionError("the graded leaf check ran")

    for name in ("J2,2", "J4,12"):
        A = reduce_mod(catalog.instantiate(name), 5)
        assert _model(A).m <= 3
        _level1_rows(_model(A))
        with monkeypatch.context() as patch:
            patch.setattr(isomorphism, "_graded", refuse)
            T, K = isomorphism._automorphism_cosets(A, F5)
        assert len(T) and len(K)


def _digit_groups(M):
    """The (levels, d) groups of digit levels that ``_lift_candidates`` solves, in order: each
    level K with 2K < m modulo the levels >= K + 2, then the levels with 2K >= m together."""
    relevant = [k for k in range(2, M.m - 1) if M.block[k][0] != M.block[k][1]]
    last = tuple(K for K in relevant if 2 * K >= M.m)
    return [((K,), M.block[K + 1][1]) for K in relevant if 2 * K < M.m] + ([(last, M.A.dim)] if last else [])


def test_every_digit_level_is_affine_on_its_quotient():
    """The exactness guard of the lift: ``_supports`` compiles without its "two digit
    changes multiply" error for every group of digit levels the lift solves, for every
    catalog instance at its sample bindings over F_5 and F_7, in the catalog basis and in one
    seeded random basis.  Two level-K corrections multiply into level 2K, which is >= K + 2
    for K >= 2, and >= m for the last group.  Quotient levels occur exactly for J4,11, J5,2,
    J5,3, J5,17 and J5,24."""
    quotients = set()
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            for F in (F5, F7):
                A = reduce_mod(catalog.instantiate(name, binding), F.p)
                rng = random.Random(f"linearise:{name}:{sorted(binding.items())}:{F.p}")
                for X in (A, change_basis(A, _random_basis(F, A.dim, rng))):
                    M = _model(X)
                    for levels, d in _digit_groups(M):
                        isomorphism._supports(M, M, d, M.n1, levels)
                        gs, _ = isomorphism._slots(M, M.n1, levels)
                        assert len(gs) == M.n1 * sum(M.block_dims()[K - 1] for K in levels)
                        if d < X.dim:
                            quotients.add(name)
    assert quotients == {"J4,11", "J5,2", "J5,3", "J5,17", "J5,24"}


def test_supports_bound_every_forced_map_slope_and_defect():
    """``_supports`` is sound: for every catalog instance at its sample bindings over F_5 and
    F_7, in the catalog basis and in one seeded random basis, at every group of digit levels
    the lift solves and with no digit on the whole algebra, the forced maps of 16 random
    generator images are nonzero only inside ``images``, their slopes only inside ``moved``,
    and their product defects only at ``entries`` or at their (c, j, i) mirrors.  Adding
    random digits (the forced map plus the slopes) changes the defects only at the entries
    ``reached``."""
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            for F in (F5, F7):
                A = reduce_mod(catalog.instantiate(name, binding), F.p)
                rng = random.Random(f"supports:{name}:{sorted(binding.items())}:{F.p}")
                for X in (A, change_basis(A, _random_basis(F, A.dim, rng))):
                    M = _model(X)
                    p, s = F.p, M.n1
                    draw = np.random.default_rng(rng.randrange(2**32))
                    for levels, d in _digit_groups(M) + [((), X.dim)]:
                        images, (c, i, j), moved, reached = isomorphism._supports(M, M, d, s, levels)
                        slots = isomorphism._slots(M, s, levels)
                        phis, slopes = _forced_maps(M, M, draw.integers(0, p, (16, s, d)), slots)
                        assert not phis[:, ~images.T].any() and not slopes[:, :, ~moved.T].any()
                        C = M.C[:d, :d, :d]
                        at = np.zeros((d, d, d), dtype=bool)
                        at[c, i, j] = at[c, j, i] = True
                        defects = isomorphism._product_defects(C, C, phis, p)
                        assert not defects[:, ~at].any(), (name, levels, d)
                        at[c[reached], i[reached], j[reached]] = at[c[reached], j[reached], i[reached]] = False
                        x = draw.integers(0, p, (16, len(slots[0])))
                        moved_phis = (phis + np.einsum("bt,btij->bij", x, slopes)) % p
                        changed = (isomorphism._product_defects(C, C, moved_phis, p) - defects) % p
                        assert not changed[:, at].any(), (name, levels, d)


def _generator_blocks(X, draw):
    """64 generator blocks (k, s, n) for the model X: 16 uniformly random; the generator images
    of up to 16 automorphisms of X, the first lifts of the identity leaf and of X's first 32
    typed graded leaves (repeated when there are fewer); those with the last generator's image
    replaced by a multiple of the first's, a singular level-1 block; and 16 that send every
    generator to a multiple of one random vector, the last of them the zero map."""
    p, s, n = X.p, X.n1, X.A.dim
    leaves = np.concatenate([np.eye(s, dtype=np.int64)[None], next(iter(_graded_level1_solutions(X, X)))[:32]])
    autos = np.concatenate(list(isomorphism._lift_candidates(X, X, leaves, False)))[:16]
    autos = np.resize(autos[:, :, :s].transpose(0, 2, 1), (16, s, n))
    singular = autos.copy()
    singular[:, -1] = singular[:, 0] * draw.integers(0, p, (16, 1)) % p
    lines = draw.integers(0, p, (16, s, 1)) * draw.integers(0, p, (16, 1, n)) % p
    lines[-1] = 0
    return np.concatenate([draw.integers(0, p, (16, s, n)), autos, singular, lines])


def test_forced_isomorphisms_read_full_rank_from_the_level1_determinant():
    """The lift's isomorphism test, zero product defects (``_forced_maps``) and a nonzero
    ``_minors`` determinant of the level-1 block, is "zero defects and full rank d", with the
    rank from ``_rref_mod_p``, for every catalog instance at its sample bindings over F_5 and F_7,
    in the catalog basis and one seeded random basis, on the model and on its associated
    graded model, each on 64 generator blocks (``_generator_blocks``).  Over all of them
    some multiplicative blocks are isomorphisms and some are singular."""
    seen = {"isomorphism": 0, "singular homomorphism": 0}
    for name in catalog.names():
        for binding in catalog.sample_bindings(name):
            for F in (F5, F7):
                A = reduce_mod(catalog.instantiate(name, binding), F.p)
                rng = random.Random(f"level1-det:{name}:{sorted(binding.items())}:{F.p}")
                for Y in (A, change_basis(A, _random_basis(F, A.dim, rng))):
                    draw = np.random.default_rng(rng.randrange(2**32))
                    for X in (_model(Y), _graded(_model(Y))):
                        gens = _generator_blocks(X, draw)
                        phis, defects = _forced_maps(X, X, gens)
                        homomorphism = ~defects.any(axis=1)
                        full = isomorphism._rref_mod_p(phis, F.p)[1] == Y.dim
                        ok = homomorphism & (_minors(gens[:, :, :X.n1], F.p)[:, 0] != 0)
                        assert np.array_equal(ok, homomorphism & full), (name, binding, F.p)
                        seen["isomorphism"] += (homomorphism & full).sum()
                        seen["singular homomorphism"] += (homomorphism & ~full).sum()
    assert all(seen.values()), seen


def test_every_stage_takes_an_empty_block():
    """A block of no candidates goes through every stage and yields nothing: the forced
    maps and their defects, the lift, each linear stage, the free digits, the automorphism
    check and the minors."""
    A = reduce_mod(catalog.instantiate("J5,13"), 7)
    M = _model(A)
    s, n, p = M.n1, A.dim, M.p
    gens = np.zeros((0, s, n), dtype=np.int64)
    for X in (M, _graded(M)):
        phis, defects = _forced_maps(X, X, gens)
        assert phis.shape == (0, n, n) and len(defects) == 0
    assert list(isomorphism._lift_candidates(M, M, np.zeros((0, s, s), dtype=np.int64), True)) == []
    # singular leaves only: dropped before the graded check
    assert list(isomorphism._lift_candidates(M, M, np.zeros((3, s, s), dtype=np.int64), True)) == []
    for levels, d in _digit_groups(M) + [((), n)]:
        for find_all in (True, False):
            assert list(isomorphism._linear_stage(M, M, gens, list(levels), d, find_all)) == []
    assert list(isomorphism._free_digit_expansion(M, M, np.zeros((0, n, n), dtype=np.int64))) == []
    isomorphism._verify_automorphism_block(structure_tensor(A)[0], np.zeros((0, n, n), dtype=np.int64), p)
    assert isomorphism._minors(np.zeros((0, n, n), dtype=np.int16), p).shape == (0, 1)


@pytest.mark.parametrize("block", [3, 7, 1024])
def test_every_stream_moves_in_full_blocks(block, monkeypatch):
    """``_leaf_stream`` yields the graded leaves of J5,18 over F_7 in order, in blocks of exactly
    AUT_BLOCK leaves but the last, where the graded stage's own blocks are not full;
    ``_lift_candidates`` yields (k, n, n) blocks with 0 < k <= AUT_BLOCK, at every digit level of
    the J5,17 lifts and for every lift of the identity leaf of J4,6."""
    monkeypatch.setattr(isomorphism, "AUT_BLOCK", block)
    M = _model(reduce_mod(catalog.instantiate("J5,18"), 7))
    leaves, raw = list(isomorphism._leaf_stream(M, M)), list(_graded_level1_solutions(M, M))
    assert not all(len(b) == block for b in raw[:-1])
    assert all(len(b) == block for b in leaves[:-1]) and 0 < len(leaves[-1]) <= block
    assert np.array_equal(np.concatenate(leaves), np.concatenate(raw))
    J517, J46 = (_model(reduce_mod(catalog.instantiate(*case), 5)) for case in (("J5,17", {"alpha": "1"}), ("J4,6",)))
    for M, leaves, find_all in ((J517, next(iter(isomorphism._leaf_stream(J517, J517))), False),
                                (J46, np.eye(J46.n1, dtype=np.int64)[None], True)):
        n = M.A.dim
        lifts = list(isomorphism._lift_candidates(M, M, leaves, find_all))
        assert lifts and all(maps.shape[1:] == (n, n) and 0 < len(maps) <= block for maps in lifts)


HIT_PAIRS = [("J5,17", {"alpha": "0"}, {"alpha": "0"}), ("J5,13", {}, {}), ("J5,16", {}, {}),
             ("J5,30", {"alpha": "1", "beta": "2"}, {"alpha": "2", "beta": "1"}),
             ("J5,44", {"alpha": "2"}, {"alpha": "1/2"})]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name, a, b", HIT_PAIRS, ids=[c[0] for c in HIT_PAIRS])
def test_block_size_moves_no_early_hit(name, a, b, p, monkeypatch):
    """A search that hits within its first leaves returns the same map at AUT_BLOCK 1, 3 and
    1024: leaves are lifted in enumeration order, whatever the blocks."""
    A, B = (reduce_mod(catalog.instantiate(name, binding), p) for binding in (a, b))
    found = []
    for block in (1, 3, 1024):
        monkeypatch.setattr(isomorphism, "AUT_BLOCK", block)
        found.append(search_isomorphism(A, B, Field(p)))
    assert found[0] is not None and found[0].mat == found[1].mat == found[2].mat
