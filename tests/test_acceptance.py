"""Acceptance suite: one test per golden criterion, one pass/fail line each.

Criteria 3, 4, 5, 8 and 9 assert golden values bundled with the catalog that
exact computation refutes (see the corrected-truth companions at the bottom
and the README's "Known discrepancies" section); those tests fail honestly with
the discrepancies enumerated in the assertion message rather than being
weakened to pass.
"""

import random
import time

import pytest

from nilj import catalog, reports
from nilj.algebra import jordan_identity_holds, reduce_mod
from nilj.cohomology import Cocycle, h2, has_nontrivial_1dim_extension, parse_cocycle
from nilj.errors import (
    CaseNotCoveredError,
    InvalidCocycleError,
    NiljError,
    RootNotInFieldError,
)
from nilj.extension import ExtensionSpec, central_extend
from nilj.fields import QQ, Field
from nilj.isomorphism import (
    Morphism,
    class_line,
    enumerate_automorphisms,
    is_homomorphism,
    lemma_a_matrix,
    orbit_census,
    verify_isomorphism,
)

F5, F7 = Field(5), Field(7)


def _report(n, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {n:>2}] {flag} ({elapsed:.2f}s / budget {budget}s): {detail}")


def test_criterion_01_centers():
    t0 = time.time()
    section = reports.center_table()
    bad = [r["algebra"] for r in section.rows if not r["ok"]]
    elapsed = time.time() - t0
    _report(1, not bad, f"{len(section.rows)} centers, mismatches: {bad}", elapsed, 1)
    assert not bad
    assert elapsed < 1


def test_criterion_02_associativity_flags():
    t0 = time.time()
    section = reports.assoc_table()
    bad = [r["algebra"] for r in section.rows if not r["ok"]]
    elapsed = time.time() - t0
    _report(2, not bad, f"{len(section.rows)} flags, mismatches: {bad}", elapsed, 1)
    assert not bad
    assert elapsed < 1


def test_criterion_03_h2_table():
    t0 = time.time()
    section = reports.h2_table()
    bad = {r["algebra"]: r.get("why", "") for r in section.rows if not r["ok"]}
    elapsed = time.time() - t0
    _report(3, not bad, f"{len(section.rows)} rows, mismatches: {sorted(bad)}", elapsed, 5)
    assert elapsed < 5
    assert not bad, (
        "bundled cohomology table rows refuted by exact computation: "
        + "; ".join(f"{k}: {v}" for k, v in sorted(bad.items()))
    )


def test_criterion_04_catalog_validity():
    t0 = time.time()
    section = reports.verify_catalog()
    bad = {r["instance"]: r.get("why", "") for r in section.rows if not r["ok"]}
    elapsed = time.time() - t0
    _report(4, not bad, f"{len(section.rows)} instances, failures: {sorted(bad)}", elapsed, 10)
    assert elapsed < 10
    assert not bad, (
        "catalog entries refuted by exact computation: "
        + "; ".join(f"{k}: {v}" for k, v in sorted(bad.items()))
    )


def test_criterion_05_lineage_round_trips():
    t0 = time.time()
    section = reports.lineage_report()
    bad = {r["instance"]: r.get("why", "") for r in section.rows if not r["ok"]}
    elapsed = time.time() - t0
    _report(5, not bad, f"{len(section.rows)} lineages, failures: {sorted(bad)}", elapsed, 10)
    assert elapsed < 10
    assert not bad, (
        "lineage claims refuted by exact computation: "
        + "; ".join(f"{k}: {v}" for k, v in sorted(bad.items()))
    )


def test_criterion_06_isomorphism_maps():
    t0 = time.time()
    failures = []
    for spec in catalog.KNOWN_MAPS:
        src, dst, mat = spec.resolve()
        if not verify_isomorphism(Morphism(src, dst, mat)):
            failures.append(spec.key)
    # the sigma-free rational form of phi2 is impossible, which is why the
    # verified map lives over F_5 with sigma = 2 (like phi1)
    src, dst, mat = catalog.PHI2_VERBATIM_Q.resolve()
    if is_homomorphism(Morphism(src, dst, mat)):
        failures.append("phi2_verbatim unexpectedly rational")
    elapsed = time.time() - t0
    detail = f"{len(catalog.KNOWN_MAPS)} maps verified (phi2 over F5 with sigma=2)"
    _report(6, not failures, detail + f", failures: {failures}", elapsed, 1)
    assert not failures
    assert elapsed < 1


def test_criterion_07_separation(report_5_7):
    # the budget holds for the whole report, which includes this section
    doc, elapsed, _ = report_5_7
    section = doc.section("separation")
    bad = [r for r in section.rows if not r["ok"]]
    counts = {}
    for r in section.rows:
        counts[r["grade"]] = counts.get(r["grade"], 0) + 1
    detail = f"{len(section.rows)} pairs graded {counts}; unexpected: {[r['pair'] for r in bad]}"
    _report(7, not bad, detail, elapsed, 600)
    assert elapsed < 600
    assert not bad, (
        "pairs found isomorphic beyond the stated family equivalences "
        "(catalog overlaps, all with explicitly verified witness maps): "
        + "; ".join(f"{r['pair']} over F{{{r['fields']}}}" for r in bad)
    )


def test_criterion_08_no_extension_claims():
    t0 = time.time()
    expected = {"J4,6": True, "J4,8": False, "J4,9": False, "J4,10": False}
    got = {name: has_nontrivial_1dim_extension(catalog.instantiate(name)) for name in expected}
    bad = {name: got[name] for name in expected if got[name] != expected[name]}
    elapsed = time.time() - t0
    _report(8, not bad, f"computed {got}", elapsed, 1)
    assert elapsed < 1
    assert not bad, (
        f"claims refuted: {bad} (no cocycle of J4,6 pairs the central basis "
        "vector d, so no admissible one-dimensional extension exists)"
    )


def test_criterion_09_orbit_census():
    t0 = time.time()
    failures = []
    A6 = reduce_mod(catalog.instantiate("J4,6"), 5)
    rep6 = orbit_census(A6, F5, 1)
    spaces = h2(A6)
    try:
        line1 = class_line(spaces, parse_cocycle(A6, "d(b,d)"), F5)
        line2 = class_line(spaces, parse_cocycle(A6, "d(b,d)+d(c,c)"), F5)
        if rep6.orbit_of(line1) == rep6.orbit_of(line2):
            failures.append("d(b,d) and d(b,d)+d(c,c) fell in one orbit")
    except NiljError as exc:
        failures.append(f"census of J4,6 cannot place the claimed lines: {exc}")
    rep8 = orbit_census(catalog.instantiate("J4,8"), F5, 1)
    if rep8.total_admissible != 0:
        failures.append(f"J4,8 admissible = {rep8.total_admissible} != 0")
    aut_count = len(enumerate_automorphisms(catalog.instantiate("J4,6"), F5))
    if aut_count != 10000:
        failures.append(f"|Aut(J4,6)(F5)| = {aut_count} != 10000")
    elapsed = time.time() - t0
    _report(9, not failures, f"census J4,6 admissible={rep6.total_admissible}, "
            f"J4,8 admissible={rep8.total_admissible}, |Aut(J4,6)|={aut_count}", elapsed, 120)
    assert elapsed < 120
    assert not failures, (
        "orbit-census claims refuted: " + "; ".join(failures)
        + " (d(b,d) is not a cocycle of J4,6; the bundled automorphism "
        "family shape is not multiplicative, the true group has order 400)"
    )


def test_criterion_10_lemma_a():
    t0 = time.time()
    rational_cases = [
        (2, 0, 0), (0, 3, 0), (1, 2, 0), (1, 0, 2), (0, 3, 1), (1, 4, 1), (1, -2, 2),
    ]
    for alpha in rational_cases:
        A = lemma_a_matrix([QQ.of(x) for x in alpha], QQ)  # postconditions re-checked inside
        assert A.rows == 3
    with pytest.raises(CaseNotCoveredError):
        lemma_a_matrix([0, 0, 5], QQ)
    with pytest.raises(RootNotInFieldError):
        lemma_a_matrix([1, 1, 0], F5)
    lemma_a_matrix([1, 1, 0], F7)
    elapsed = time.time() - t0
    _report(10, True, "7 rational cases, F7 root case, both error cases", elapsed, 1)
    assert elapsed < 1


def test_criterion_11_random_cocycle_extensions():
    t0 = time.time()
    rng = random.Random(0xA5EED)
    checked = rejected = 0
    for name in catalog.dim_le4_names():
        A = reduce_mod(catalog.instantiate(name), 5)
        spaces = h2(A)
        basis = spaces.z2.vectors()
        for _ in range(100):
            vec = [0] * spaces.z2.ambient
            for b in basis:
                c = rng.randrange(5)
                if c:
                    vec = [(x + c * y) % 5 for x, y in zip(vec, b)]
            ext = central_extend(ExtensionSpec.of(A, [Cocycle.from_upper(A, vec)]))
            assert jordan_identity_holds(ext), name
            checked += 1
        if spaces.z2.dim == spaces.z2.ambient:
            continue  # every symmetric matrix is a cocycle here
        tries = 0
        while tries < 100:
            vec = [rng.randrange(5) for _ in range(spaces.z2.ambient)]
            if spaces.z2.contains(vec):
                continue
            tries += 1
            with pytest.raises(InvalidCocycleError):
                central_extend(ExtensionSpec.of(A, [Cocycle.from_upper(A, vec)]))
            rejected += 1
    elapsed = time.time() - t0
    _report(11, True, f"{checked} random cocycle extensions Jordan, "
            f"{rejected} non-cocycles rejected", elapsed, 30)
    assert checked == 100 * len(catalog.dim_le4_names())
    assert elapsed < 30


# ---------------------------------------------------------------------------
# corrected-truth companions for the failing criteria
# ---------------------------------------------------------------------------


def test_truth_bundled_table_defects_are_pinned():
    """Exactly three cohomology-table rows are refuted, in known ways."""
    section = reports.h2_table()
    bad = sorted(r["algebra"] for r in section.rows if not r["ok"])
    assert bad == ["J4,11", "J4,6", "J4,7"]
    # J4,6: the printed generator d(b,d) is not a cocycle (dimension 3, not 4)
    A = catalog.instantiate("J4,6")
    assert not h2(A).z2.contains(parse_cocycle(A, "d(b,d)").upper())
    # J4,7: one genuine class beyond the printed three, spanned by d(b,c)
    B = catalog.instantiate("J4,7")
    assert h2(B).h2_dim == 4
    assert h2(B).class_coords(parse_cocycle(B, "d(b,c)")) is not None
    # J4,11: printed generator is not a cocycle; d(a,d)+d(b,c) is the class
    C = catalog.instantiate("J4,11")
    assert not h2(C).z2.contains(parse_cocycle(C, "d(a,d)+d(b,b)").upper())
    assert h2(C).z2.contains(parse_cocycle(C, "d(a,d)+d(b,c)").upper())


def test_truth_j52_j53_fail_the_defining_identity():
    """Witness: x = a+c, y = b gives x^2 o (x o y) = e but (x^2 o y) o x = 0."""
    for name in ("J5,2", "J5,3"):
        A = catalog.instantiate(name)
        x = A.element([1, 0, 1, 0, 0])
        y = A.basis_element(1)
        xx = x * x
        lhs = xx * (x * y)
        rhs = (xx * y) * x
        assert lhs.coords != rhs.coords
        assert lhs.coords == (0, 0, 0, 0, 1)
        assert rhs.is_zero()
        assert not jordan_identity_holds(A)
    # the other 42 families are Jordan at every sampled parameter
    for name in catalog.dim5_names():
        if name in ("J5,2", "J5,3"):
            continue
        for binding in catalog.sample_bindings(name):
            assert jordan_identity_holds(catalog.instantiate(name, binding)), name


def test_truth_j46_admits_no_admissible_extension():
    """Every cocycle of J4,6 kills the central vector d, so its radical
    always meets the center; the claimed extensions cannot exist."""
    A = catalog.instantiate("J4,6")
    spaces = h2(A)
    for v in spaces.z2.vectors():
        mat = Cocycle.from_upper(A, v).mat
        assert all(mat.at(3, j) == 0 for j in range(4))
    assert orbit_census(A, F5, 1).total_admissible == 0


def test_truth_aut_j46_is_the_corrected_family():
    """phi(a) = x1 a + x4 d, phi(b) = x1^2 b, phi(c) = z3 c + z4 d,
    phi(d) = x1^2 z3 d: 4 * 5 * 4 * 5 = 400 elements over F_5."""
    auts = enumerate_automorphisms(catalog.instantiate("J4,6"), F5)
    assert len(auts) == 400
    seen = set()
    for m in auts:
        x1, x4 = m.at(0, 0), m.at(3, 0)
        z3, z4 = m.at(2, 2), m.at(3, 2)
        assert m.at(1, 1) == x1 * x1 % 5
        assert m.at(3, 3) == x1 * x1 * z3 % 5
        seen.add((x1, x4, z3, z4))
    assert len(seen) == 400


def test_truth_catalog_overlaps_have_witness_maps():
    """Three entries coincide with J5,44 boundary members; the first overlap
    is rational, the other two exist exactly where -1 is a square."""
    for spec in catalog.OVERLAP_MAPS:
        src, dst, mat = spec.resolve()
        assert verify_isomorphism(Morphism(src, dst, mat)), spec.key
    assert catalog.OVERLAP_MAPS[0].field == QQ
    from nilj.isomorphism import search_isomorphism

    A = catalog.instantiate("J5,29", {"alpha": "0"})
    B = catalog.instantiate("J5,44", {"alpha": "1"})
    assert search_isomorphism(A, B, Field(13)) is not None  # 13 = 1 mod 4
    assert search_isomorphism(A, B, Field(11)) is None  # 11 = 3 mod 4
    # the defining cocycles of the overlapping instances violate the
    # joint-radical hypothesis: c - d stays in the radical and the center
    from nilj.algebra import annihilator
    from nilj.cohomology import radical

    for name, binding in (("J5,25", {}), ("J5,29", {"alpha": "0"}),
                          ("J5,30", {"alpha": "1", "beta": "1"})):
        parent, cocycles = catalog.lineage(name, binding)
        meets = radical(cocycles).intersect(annihilator(parent))
        assert not meets.is_zero(), name


def test_truth_j541_is_the_j530_member_at_alpha_beta_minus_one():
    """J5,41 is isomorphic over Q to J5,30 at alpha = beta = -1, a binding the
    report does not sample, so no report row sees this overlap.  The columns
    of the map are the images of a, b, c, d and e; the map the other way
    round is not multiplicative."""
    from nilj.linalg import Matrix

    A = catalog.instantiate("J5,41")
    B = catalog.instantiate("J5,30", {"alpha": "-1", "beta": "-1"})
    mat = Matrix.from_rows(QQ, [[-1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, -1, 0, 1],
                                [0, 0, 1, 0, 1], [0, 0, 0, -4, 0]])
    assert verify_isomorphism(Morphism(A, B, mat))
    assert not verify_isomorphism(Morphism(B, A, mat))
