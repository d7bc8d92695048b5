import random

import pytest

from nilj import catalog
from nilj.algebra import (
    annihilator,
    change_basis,
    is_associative,
    jordan_identity_holds,
    reduce_mod,
    zero_algebra,
)
from nilj.cohomology import Cocycle, h2, parse_cocycle
from nilj.errors import InvalidCocycleError, NotAnExtensionError
from nilj.extension import (
    ExtensionSpec,
    central_extend,
    diagnose,
    reconstruct,
    section_morphism_matrix,
)
from nilj.fields import QQ, Field
from nilj.algebra import Algebra
from nilj.isomorphism import Morphism, verify_isomorphism
from nilj.linalg import Matrix

F5 = Field(5)


def test_central_extend_rejects_non_cocycles():
    # d(b,d) fails the cocycle identity on J4,6, so the bundled extension
    # J5,2 cannot be built as a Jordan central extension
    A = catalog.instantiate("J4,6")
    with pytest.raises(InvalidCocycleError):
        central_extend(ExtensionSpec.of(A, [parse_cocycle(A, "d(b,d)")]))


def test_central_extend_examples():
    A = catalog.instantiate("J3,2")
    spec = ExtensionSpec.of(A, [parse_cocycle(A, "d(b,c)"), parse_cocycle(A, "d(a,b)")])
    assert central_extend(spec) == catalog.instantiate("J5,31")
    B = catalog.instantiate("J4,5")
    spec = ExtensionSpec.of(B, [parse_cocycle(B, "d(c,d)+d(a,a)")])
    assert central_extend(spec) == catalog.instantiate("J5,22")
    assert central_extend(ExtensionSpec.of(B, [])) == B


def test_extend_names_default_to_next_letters():
    A = catalog.instantiate("J3,2")
    E = central_extend(ExtensionSpec.of(A, [parse_cocycle(A, "d(b,c)")]))
    assert E.names == ("a", "b", "c", "d")


def test_diagnose_examples():
    A = catalog.instantiate("J4,6")
    # diagnostics are defined for any symmetric matrix, cocycle or not
    d = diagnose(ExtensionSpec.of(A, [parse_cocycle(A, "d(b,d)")]))
    assert d.joint_radical_meet.is_zero()
    assert d.independent_mod_b2 and not d.has_central_component
    d = diagnose(ExtensionSpec.of(A, [Cocycle.zero(A)]))
    assert not d.independent_mod_b2 and d.has_central_component
    B = catalog.instantiate("J3,2")
    theta = parse_cocycle(B, "d(b,c)")
    d = diagnose(ExtensionSpec.of(B, [theta, theta]))
    assert not d.independent_mod_b2 and d.has_central_component


def test_reconstruct_examples():
    base, cocycles = reconstruct(catalog.instantiate("J5,2"))
    assert base == catalog.instantiate("J4,6")
    assert cocycles[0].upper() == parse_cocycle(base, "d(b,d)").upper()
    base, cocycles = reconstruct(catalog.instantiate("J2,2"))
    assert base.dim == 1
    assert cocycles[0].upper() == (QQ.one,)
    with pytest.raises(NotAnExtensionError):
        reconstruct(zero_algebra(QQ, 3))
    not_nilpotent = Algebra(QQ, ("a",), {(0, 0): {0: 1}})
    with pytest.raises(NotAnExtensionError):
        reconstruct(not_nilpotent)


@pytest.mark.parametrize("name", ["J5,9", "J5,24", "J5,31", "J5,37", "J5,41", "J4,6"])
def test_reconstruct_round_trip_through_section(name):
    rng = random.Random(f"reconstruct:{name}")
    for field in (QQ, F5, Field(7)):
        A = catalog.instantiate(name, None, field)
        # metamorphic: the same algebra in a random basis round-trips too
        for M in (A, change_basis(A, _random_invertible(field, A.dim, rng))):
            base, cocycles = reconstruct(M)
            E = central_extend(ExtensionSpec.of(base, cocycles))
            S = section_morphism_matrix(M, base)
            assert verify_isomorphism(Morphism(E, M, S))


def _random_invertible(field, n, rng):
    while True:
        P = Matrix.from_rows(field, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


def test_extension_center_dimension_on_lineages():
    # with trivial radical meet and independent cocycles the new center is
    # exactly the appended space
    for name in ("J5,9", "J5,17", "J5,31", "J5,44"):
        binding = catalog.sample_bindings(name)[1] if catalog.get(name).params else {}
        parent, cocycles = catalog.lineage(name, binding)
        d = diagnose(ExtensionSpec.of(parent, cocycles))
        assert d.joint_radical_meet.is_zero() and d.independent_mod_b2
        E = central_extend(ExtensionSpec.of(parent, cocycles))
        assert annihilator(E).dim == len(cocycles)


def test_dependent_cocycles_add_central_component(direct_sum):
    A = catalog.instantiate("J3,2")
    theta = parse_cocycle(A, "d(b,c)")
    doubled = central_extend(ExtensionSpec.of(A, [theta, theta]))
    single = central_extend(ExtensionSpec.of(A, [theta]))
    expected = direct_sum(single, zero_algebra(QQ, 1, ("z",)))
    # the d-line of the single extension maps onto the diagonal d+e of the
    # doubled one, and the extra summand onto e
    cols = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]

    mat = Matrix.from_rows(QQ, [[cols[c][r] for c in range(5)] for r in range(5)])
    assert verify_isomorphism(Morphism(expected, doubled, mat))


def test_jordan_preserved_by_valid_extensions():
    rng = random.Random(31337)
    for name in ("J3,3", "J4,12"):
        A = reduce_mod(catalog.instantiate(name), 5)
        sp = h2(A)
        basis = sp.z2.vectors()
        for _ in range(10):
            coords = [rng.randrange(5) for _ in basis]
            vec = [0] * sp.z2.ambient
            for c, b in zip(coords, basis):
                vec = [(x + c * y) % 5 for x, y in zip(vec, b)]
            E = central_extend(ExtensionSpec.of(A, [Cocycle.from_upper(A, vec)]))
            assert jordan_identity_holds(E)


def test_associativity_criterion_both_directions():
    A = catalog.instantiate("J3,2")  # associative base
    assoc_ext = central_extend(ExtensionSpec.of(A, [parse_cocycle(A, "d(a,b)")]))
    assert is_associative(assoc_ext)
    nonassoc_ext = central_extend(ExtensionSpec.of(A, [parse_cocycle(A, "d(b,c)")]))
    assert not is_associative(nonassoc_ext)
    B = catalog.instantiate("J4,9")  # non-associative base: always non-associative
    ext = central_extend(ExtensionSpec.of(B, [Cocycle.zero(B)]))
    assert not is_associative(ext)
