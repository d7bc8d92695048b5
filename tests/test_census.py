"""The numpy orbit census against the pure-Python algorithm it replaced, its
invariance under changes of basis, and the exact F_p array kernels under it."""

import random
from functools import lru_cache
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilj import catalog, isomorphism
from nilj.algebra import (
    _check_int64,
    annihilator,
    change_basis,
    reduce_mod,
    structure_tensor,
)
from nilj.cohomology import Cocycle, h2, parse_cocycle, radical as joint_radical, sym_pairs
from nilj.errors import InternalCheckError, NiljError
from nilj.fields import Field
from nilj.isomorphism import (
    _admissible_subspaces,
    _automorphism_array,
    _automorphism_cosets,
    _induced_actions,
    _minors,
    _plucker_keys,
    _rref_mod_p,
    _subspace_blocks,
    _unique_rows,
    _verify_automorphism_block,
    class_line,
    enumerate_automorphisms,
    orbit_census,
)
from nilj.linalg import Matrix, Subspace

F5, F7 = Field(5), Field(7)


def _canonical_subspaces(field, h, r):
    """Canonical RREF bases of all r-dimensional subspaces of F_p^h, as tuples,
    in the order of the census's streamed ``_subspace_blocks``."""
    for block in _subspace_blocks(field.p, h, r):
        yield from (tuple(map(tuple, rows)) for rows in block.tolist())


def reference_class_coords(spaces, theta):
    """theta's coordinates on h2_reps by solving against [h2_reps | b2], None when
    theta is outside their span: the solve that ``CocycleSpaces.extractor`` replaced."""
    F = spaces.algebra.field
    vec = theta.upper()
    cols = [c.upper() for c in spaces.h2_reps] + list(spaces.b2.vectors())
    if not cols:
        return () if spaces.z2.contains(vec) else None
    m = Matrix.from_rows(F, [[col[r] for col in cols] for r in range(len(vec))])
    sol = m.solve(vec)
    return None if sol is None else tuple(sol[:len(spaces.h2_reps)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_cocycle_is_its_coordinates_and_the_extractor_reads_its_class(any_field, nilpotent_algebras, data):
    """A cocycle round-trips through its coordinates, its matrix is their symmetric
    fill, and ``class_coords`` agrees with the solve wherever that reads Z2 (b2
    need not lie in Z2 when A is not Jordan), None exactly off Z2."""
    A = data.draw(nilpotent_algebras(any_field))
    F, spaces = A.field, h2(A)
    pairs = sym_pairs(A.dim)
    small = st.integers(-3, 3).map(F.of)
    vec = [F.zero] * len(pairs)
    for v in spaces.z2.vectors():
        c = data.draw(small)
        vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, v)]
    if data.draw(st.booleans()):
        vec = [F.add(x, data.draw(small)) for x in vec]
    theta = Cocycle.from_upper(A, vec)
    assert Cocycle.from_upper(A, theta.upper()) == theta
    assert theta.mat == theta.mat.transpose()
    assert all(theta.mat.at(i, j) == c for (i, j), c in zip(pairs, theta.upper()))
    got, in_z2 = spaces.class_coords(theta), spaces.z2.contains(theta.upper())
    assert (got is None) == (not in_z2)
    if in_z2 or spaces.z2.contains_subspace(spaces.b2):
        assert got == reference_class_coords(spaces, theta)


def reference_census(A, field, r):
    """The census the slow way: every automorphism as a Matrix, the congruence
    phi^T R phi with Matrix products, class coordinates by solving against the
    H2 basis, and one ``Subspace.span`` per (orbit, action) pair."""
    Ap = reduce_mod(A, field.p)
    spaces = h2(Ap)
    hdim = len(spaces.h2_reps)
    ann = annihilator(Ap)
    autos = enumerate_automorphisms(Ap, field)
    admissible = []
    if hdim >= r:
        for rows in _canonical_subspaces(field, hdim, r):
            thetas = [spaces.cocycle_from_class(row) for row in rows]
            if joint_radical(thetas).intersect(ann).is_zero():
                admissible.append(Subspace.span(field, hdim, rows).rows)
    coords = {}
    actions = set()
    for phi in autos:
        cols = []
        for rep in spaces.h2_reps:
            M = phi.transpose().mul(rep.mat).mul(phi)
            acted = Cocycle.from_upper(Ap, [M.at(i, j) for i, j in sym_pairs(Ap.dim)])
            key = acted.upper()
            if key not in coords:
                coords[key] = reference_class_coords(spaces, acted)
            cols.append(coords[key])
        actions.add(tuple(tuple(col[t] for col in cols) for t in range(hdim)))
    unseen = set(admissible)
    orbits = []
    for rows in admissible:
        if rows not in unseen:
            continue
        orbit = set()
        for M in actions:
            moved = [
                tuple(sum(M[i][t] * v[t] for t in range(hdim)) % field.p for i in range(hdim))
                for v in rows
            ]
            orbit.add(Subspace.span(field, hdim, moved).rows)
        unseen -= orbit
        orbits.append((min(orbit), len(orbit), frozenset(orbit)))
    orbits.sort(key=lambda o: o[0])
    return (
        tuple(o[0] for o in orbits),
        tuple(o[1] for o in orbits),
        tuple(o[2] for o in orbits),
        len(autos),
    )


@pytest.mark.parametrize("name", ["J3,2", "J3,3", "J4,7"])
@pytest.mark.parametrize("r", [1, 2])
def test_census_matches_the_pure_python_reference(name, r):
    A = catalog.instantiate(name)
    rep = orbit_census(A, F5, r)
    got = (rep.orbit_representatives, rep.orbit_sizes, rep.orbit_members, rep.aut_group_order)
    assert got == reference_census(A, F5, r)


def _random_invertible(field, n, rng):
    while True:
        P = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


@pytest.mark.parametrize("name", ["J3,2", "J4,4", "J4,12"])
def test_census_is_invariant_under_change_of_basis(name):
    rng = random.Random(f"census-basis:{name}")
    A5 = reduce_mod(catalog.instantiate(name), 5)

    def summary(B):
        rep = orbit_census(B, F5, 1)
        assert all(rep.aut_group_order % size == 0 for size in rep.orbit_sizes)
        return rep.total_admissible, rep.orbit_count, sorted(rep.orbit_sizes), rep.aut_group_order

    base = summary(A5)
    for _ in range(2):
        assert summary(change_basis(A5, _random_invertible(F5, A5.dim, rng))) == base


def test_automorphism_array_is_sorted_and_verified(is_automorphism):
    A5 = reduce_mod(catalog.instantiate("J3,2"), 5)
    autos = enumerate_automorphisms(A5, F5)
    keys = [m.data for m in autos]
    assert keys == sorted(set(keys))
    assert all(is_automorphism(A5, m) for m in autos[::37])
    assert _automorphism_array(A5, F5).shape == (len(autos), 3, 3)


def test_class_line_tells_a_non_cocycle_from_a_trivial_class():
    """On J4,6 over F_5, d(b,d) is not a cocycle and d(a,a) is a coboundary, and
    ``class_line`` says which; d(c,c) gets its class coordinates scaled to a leading 1."""
    A = reduce_mod(catalog.instantiate("J4,6"), 5)
    spaces = h2(A)
    with pytest.raises(NiljError, match="^not a cocycle$"):
        class_line(spaces, parse_cocycle(A, "d(b,d)"), F5)
    with pytest.raises(NiljError, match="^cocycle has trivial class$"):
        class_line(spaces, parse_cocycle(A, "d(a,a)"), F5)
    theta = parse_cocycle(A, "d(c,c)")
    coords = spaces.class_coords(theta)
    lead = next(x for x in coords if x)
    assert class_line(spaces, theta, F5) == (tuple(x * pow(lead, -1, 5) % 5 for x in coords),)


def test_block_check_rejects_a_corrupted_automorphism(is_automorphism):
    A5 = reduce_mod(catalog.instantiate("J3,2"), 5)
    C, _ = structure_tensor(A5)
    block = _automorphism_array(A5, F5)[:16].astype(np.int64)
    _verify_automorphism_block(C, block, 5)
    bad = block.copy()
    bad[7, 1, 1] = (bad[7, 1, 1] + 1) % 5  # phi(b) no longer equals phi(a)^2
    assert not is_automorphism(A5, Matrix.from_rows(F5, bad[7].tolist()))
    with pytest.raises(NiljError, match="not multiplicative"):
        _verify_automorphism_block(C, bad, 5)
    singular = block.copy()
    singular[3] = 0  # the zero map is multiplicative but not invertible
    with pytest.raises(NiljError, match="singular"):
        _verify_automorphism_block(C, singular, 5)


def test_batched_rref_matches_matrix_rref():
    rng = np.random.default_rng(17)
    for rows, cols in ((1, 5), (2, 4), (3, 3), (4, 6)):
        mats = rng.integers(0, 7, (40, rows, cols))
        mats[::5, -1] = mats[::5, 0]  # some rank-deficient inputs
        reduced, rank = _rref_mod_p(mats, 7)
        for m, red, k in zip(mats.tolist(), reduced.tolist(), rank.tolist()):
            ref, ref_rank, _ = Matrix.from_rows(F7, m).rref()
            assert k == ref_rank
            assert red == ref.row_list()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_batched_rref_matches_matrix_rref_on_every_shape(p):
    """``_rref_mod_p`` touches only the columns from each pivot on, and still gives
    ``Matrix.rref``'s form and rank: wide, square and tall shapes, int16 input with
    negative entries, rank-deficient and zero members, and (k, r, 0) arrays of rank 0."""
    rng = np.random.default_rng([p, 32])
    for rows, cols in ((1, 5), (3, 3), (4, 6), (5, 3), (6, 2), (7, 1), (3, 0)):
        mats = rng.integers(-p, p, (40, rows, cols))
        if rows > 1 and cols:
            mats[::4, -1] = mats[::4, 0] * 2
            mats[::5, 1:] = 0
        for block in (mats, mats.astype(np.int16)):
            reduced, rank = _rref_mod_p(block, p)
            assert reduced.shape == mats.shape and reduced.dtype == np.int64
            for m, red, k in zip(mats.tolist(), reduced.tolist(), rank.tolist()):
                ref, ref_rank, _ = Matrix.from_rows(Field(p), m).rref()
                assert k == ref_rank and red == ref.row_list(), (rows, cols)
            assert cols or not rank.any()


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("r, h", [(1, 4), (2, 4), (2, 6), (3, 5), (3, 7)])
def test_plucker_keys_agree_with_the_batched_rref(p, r, h):
    """Keys are equal exactly when the canonical echelon forms are, and every
    rank-deficient matrix has the zero key; 13^35 (r = 3, h = 7) takes three
    words of 13^17 < 2^63, and 5^35 two of 5^27."""
    rng = np.random.default_rng([p, r, h])
    mats = rng.integers(0, p, (200, r, h))
    mats[::7, -1] = mats[::7, 0] * 2 % p  # rank-deficient for r >= 2
    mats[::11] = 0
    mixed = rng.integers(0, p, (200, r, r)) @ mats % p  # other bases of the same spaces, some singular
    mats = np.concatenate([mats, mixed, mats[:, ::-1]])
    keys = _plucker_keys(mats, p)
    digits = next(d for d in range(1, 64) if p ** (d + 1) >= 2**63)
    assert keys.shape == (len(mats), -(-comb(h, r) // digits))
    assert (p, r, h) != (13, 3, 7) or keys.shape[1] == 3
    reduced, rank = _rref_mod_p(mats, p)
    full = rank == r
    assert (keys[~full] == 0).all() and (keys[full] != 0).any(axis=1).all()
    assert (~full).any() and full.any()
    pairs = {(k, red) for k, red in zip(map(tuple, keys[full].tolist()), map(np.ndarray.tobytes, reduced[full]))}
    assert len(pairs) == len({k for k, _ in pairs}) == len({red for _, red in pairs}) < full.sum()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_minors_decide_full_rank_like_the_batched_rref(p):
    """A square residue matrix has a nonzero ``_minors`` determinant exactly when
    ``_rref_mod_p`` gives it full rank, at n = 1..6, int16 input included, with
    singular members forced in (a repeated row, a zero row, a combination)."""
    rng = np.random.default_rng([p, 25])
    for n in range(1, 7):
        mats = rng.integers(0, p, (300, n, n))
        mats[::5, -1] = mats[::5, 0] * 3 % p
        mats[::7, 0] = 0
        mats[::11, -1] = (mats[::11, :-1].sum(axis=1)) % p
        rank = _rref_mod_p(mats, p)[1]
        assert (rank < n).any() and (rank == n).any()
        for block in (mats, mats.astype(np.int16)):
            det = _minors(block, p)
            assert det.shape == (len(mats), 1)
            assert np.array_equal(det[:, 0] != 0, rank == n), n


@pytest.mark.parametrize("block", [isomorphism.AUT_BLOCK, 7])
@pytest.mark.parametrize("name", ["J2,2", "J4,12", "J5,13"])
def test_free_digits_stream_every_core_and_setting_in_order(name, block, monkeypatch):
    """``_free_digit_expansion`` of a block of cores is, block for block joined, the
    concatenation of the one-core expansions, and each of those is the core with every
    setting of its free digits added in ``iproduct`` order; no block exceeds AUT_BLOCK."""
    monkeypatch.setattr(isomorphism, "AUT_BLOCK", block)
    M = isomorphism._model(reduce_mod(catalog.instantiate(name), 5))
    n = M.A.dim
    cores = np.random.default_rng(3).integers(0, 5, (9, n, n))
    gs, cs = isomorphism._slots(M, M.n1, range(max(2, M.m - 1), M.m))
    blocks = list(isomorphism._free_digit_expansion(M, M, cores))
    assert all(0 < len(b) <= block for b in blocks)
    singles = [list(isomorphism._free_digit_expansion(M, M, core[None])) for core in cores]
    assert all(0 < len(b) <= block for one in singles for b in one)
    got = np.concatenate(blocks)
    assert np.array_equal(got, np.concatenate([b for one in singles for b in one]))
    want = []
    for core in cores:
        for digits in iproduct(range(5), repeat=len(gs)):
            out = core.copy()
            out[cs, gs] = (out[cs, gs] + digits) % 5
            want.append(out)
    assert np.array_equal(got, np.array(want))


def test_every_plane_of_f5_4_has_its_own_plucker_key():
    bases = np.concatenate(list(_subspace_blocks(5, 4, 2)))
    keys = _plucker_keys(bases, 5)
    assert len(bases) == len(_unique_rows(keys)) == 806
    assert (keys != 0).any(axis=1).all()


def test_orbit_census_refuses_an_image_outside_the_admissible_census(monkeypatch):
    """A K action that is no automorphism's (the zero matrix) sends a line
    to the zero key, which no admissible subspace has."""
    A = reduce_mod(catalog.instantiate("J4,4"), 5)
    induced = isomorphism._induced_actions

    def broken(spaces, *groups):
        XT, XK = induced(spaces, *groups)
        XK = XK.copy()
        XK[-1] = 0
        return XT, XK

    monkeypatch.setattr(isomorphism, "_induced_actions", broken)
    with pytest.raises(NiljError, match="orbit left the admissible census"):
        orbit_census(A, F5, 1)


def test_orbit_census_refuses_an_orbit_without_its_representative(monkeypatch):
    """With the identity dropped from both induced action arrays, the first
    J3,2 line is not among its own images: a self-check failure, not bad input."""
    A = reduce_mod(catalog.instantiate("J3,2"), 5)
    induced = isomorphism._induced_actions

    def without_identity(spaces, *groups):
        return tuple(X[~(X == np.eye(X.shape[1], dtype=X.dtype)).all(axis=(1, 2))]
                     for X in induced(spaces, *groups))

    monkeypatch.setattr(isomorphism, "_induced_actions", without_identity)
    with pytest.raises(InternalCheckError, match="orbit image lost its own representative"):
        orbit_census(A, F5, 1)


def test_orbit_members_are_built_on_first_read():
    """The members are no stored field: the first read builds the reference's
    frozensets from the sorted bases and their labels, and later reads keep them."""
    A = catalog.instantiate("J3,3")
    rep = orbit_census(A, F5, 2)
    assert "orbit_members" not in vars(rep)
    members = rep.orbit_members
    assert members == reference_census(A, F5, 2)[2]
    assert rep.orbit_members is members


def test_int64_guard_refuses_large_moduli():
    _check_int64(5, 15)
    with pytest.raises(NiljError):
        _check_int64(2**31 + 11, 5)


def _special_case_subspaces(p, h, r):
    """The r = 1 and r = 2 enumerations the generic loop replaced."""
    if r == 1:
        for lead in range(h):
            for tail in iproduct(range(p), repeat=h - lead - 1):
                yield ((0,) * lead + (1,) + tail,)
        return
    for p1 in range(h):
        for p2 in range(p1 + 1, h):
            free1 = [c for c in range(p1 + 1, h) if c != p2]
            free2 = list(range(p2 + 1, h))
            for vals1 in iproduct(range(p), repeat=len(free1)):
                for vals2 in iproduct(range(p), repeat=len(free2)):
                    row1, row2 = [0] * h, [0] * h
                    row1[p1] = row2[p2] = 1
                    for c, v in zip(free1, vals1):
                        row1[c] = v
                    for c, v in zip(free2, vals2):
                        row2[c] = v
                    yield (tuple(row1), tuple(row2))


def _gaussian_binomial(h, r, p):
    num = den = 1
    for i in range(r):
        num *= p ** (h - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("r", [1, 2])
def test_subspace_order_is_kept_for_lines_and_planes(r):
    for h in range(r, 6):
        assert list(_canonical_subspaces(F5, h, r)) == list(_special_case_subspaces(5, h, r))


@pytest.mark.parametrize("field, h", [(F5, 4), (F7, 3), (Field(11), 2)])
def test_subspaces_of_every_dimension_are_distinct_rref_bases(field, h):
    for r in range(1, h + 1):
        bases = list(_canonical_subspaces(field, h, r))
        assert len(bases) == len(set(bases)) == _gaussian_binomial(h, r, field.p)
        assert all(Subspace.span(field, h, rows).rows == rows for rows in bases)


def test_census_runs_above_planes_and_refuses_r_below_one():
    A = catalog.instantiate("J3,2")
    h = len(h2(reduce_mod(A, 5)).h2_reps)
    rep = orbit_census(A, F5, 3)
    assert rep.grassmann_r == 3 and rep.total_admissible <= _gaussian_binomial(h, 3, 5)
    assert sum(rep.orbit_sizes) == rep.total_admissible
    got = (rep.orbit_representatives, rep.orbit_sizes, rep.orbit_members, rep.aut_group_order)
    assert got == reference_census(A, F5, 3)
    with pytest.raises(NiljError, match="r >= 1"):
        orbit_census(A, F5, 0)


# the parents of the benchmark's census workload (its r=2 parents are among them)
BENCH_PARENTS = ("J1,1", "J2,1", "J2,2", "J3,2", "J3,3", "J3,4", "J4,4", "J4,6", "J4,7",
                 "J4,8", "J4,9", "J4,10", "J4,11", "J4,12")
REFERENCE_CANDIDATES = 3000  # larger Grassmannians are checked on a seeded sample this size


def reference_admissible(spaces, ann, candidates):
    """The per-candidate filter the batched rank test replaced (cocycles memoised per row)."""
    cocycle = lru_cache(maxsize=None)(spaces.cocycle_from_class)
    out = []
    for rows in candidates:
        thetas = [cocycle(row) for row in rows]
        if joint_radical(thetas).intersect(ann).is_zero():
            out.append(rows)
    return out


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_batched_admissibility_matches_the_per_candidate_filter(p, r):
    field = Field(p)
    rng = random.Random(f"admissible:{p}:{r}")
    for name in BENCH_PARENTS:
        A = reduce_mod(catalog.instantiate(name), p)
        B = change_basis(A, _random_invertible(field, A.dim, rng))
        spaces, ann = h2(B), annihilator(B)
        h = len(spaces.h2_reps)
        if h < r:
            continue
        got = [tuple(map(tuple, rows)) for rows in _admissible_subspaces(spaces, ann, r).tolist()]
        candidates = list(_canonical_subspaces(field, h, r))
        if len(candidates) <= REFERENCE_CANDIDATES:
            assert got == reference_admissible(spaces, ann, candidates), name
            continue
        # in enumeration order, then element for element on the sample
        position = {rows: k for k, rows in enumerate(candidates)}
        order = [position[rows] for rows in got]
        assert order == sorted(set(order)), name
        picked = [candidates[k] for k in sorted(rng.sample(range(len(candidates)), REFERENCE_CANDIDATES))]
        chosen = set(picked)
        assert [rows for rows in got if rows in chosen] == reference_admissible(spaces, ann, picked), name


def test_admissibility_filter_refuses_primes_above_the_int64_guard():
    p = 2**61 - 1
    A = reduce_mod(catalog.instantiate("J2,1"), p)
    with pytest.raises(NiljError, match="int64"):
        _admissible_subspaces(h2(A), annihilator(A), 1)
    with pytest.raises(NiljError):
        orbit_census(A, Field(p), 1)


def test_block_boundaries_move_nothing(monkeypatch):
    """Every stage streams its work AUT_BLOCK items at a time; the block size
    must change no automorphism array and no census."""
    J46, J412, J32 = (reduce_mod(catalog.instantiate(n), 5) for n in ("J4,6", "J4,12", "J3,2"))

    def results():
        censuses = orbit_census(J32, F5, 2), orbit_census(J412, F5, 1)
        return [_automorphism_array(A, F5) for A in (J46, J412)], censuses

    autos, census = results()
    for block in (3, 7):
        monkeypatch.setattr(isomorphism, "AUT_BLOCK", block)
        got_autos, got_census = results()
        assert all(np.array_equal(a, b) for a, b in zip(autos, got_autos))
        assert got_census == census
        assert [c.orbit_members for c in got_census] == [c.orbit_members for c in census]


def _coset_products(spaces, T, K, p):
    """The distinct products X_k X_t, the induced group the census never
    forms, in ``_induced_actions`` order, ~AUT_BLOCK at a time."""
    XT, XK = _induced_actions(spaces, T, K)
    h, step = XT.shape[1], max(1, isomorphism.AUT_BLOCK // len(XK))
    found = [_unique_rows((XK[:, None] @ XT[None, start:start + step] % p).reshape(-1, h * h))
             for start in range(0, len(XT), step)]
    return _unique_rows(np.concatenate(found)).reshape(-1, h, h)


def _check_cosets(A, field, every_isomorphism):
    """|T| |K| is |Aut|; the automorphism array is the whole-group search
    (every lift of every leaf) mapped back to the original basis, element for
    element; and the actions X_k X_t are that group's induced actions."""
    T, K = _automorphism_cosets(A, field)
    autos = _automorphism_array(A, field)
    p, n, M = field.p, A.dim, isomorphism._model(A)
    to_old, to_new = (np.array(X.row_list(), dtype=np.int64) for X in (M.to_old, M.to_new))
    every = np.concatenate([(to_old @ phis % p) @ to_new % p for phis in every_isomorphism(A, A)])
    reference = _unique_rows(every.reshape(-1, n * n)).reshape(-1, n, n)
    assert len(T) * len(K) == len(autos) == len(reference)
    assert np.array_equal(autos, reference)
    spaces = h2(A)
    if spaces.h2_reps:
        (want,) = _induced_actions(spaces, reference)
        got = _coset_products(spaces, T, K, p)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", BENCH_PARENTS)
def test_cosets_rebuild_the_automorphism_group_over_f5(name, every_isomorphism):
    A = reduce_mod(catalog.instantiate(name), 5)
    for B in (A, change_basis(A, _random_invertible(F5, A.dim, random.Random(f"cosets:{name}")))):
        _check_cosets(B, F5, every_isomorphism)


@pytest.mark.parametrize("name", ["J3,2", "J3,3", "J4,4", "J4,7", "J4,8"])
def test_cosets_rebuild_the_automorphism_group_over_f7(name, every_isomorphism):
    _check_cosets(reduce_mod(catalog.instantiate(name), 7), F7, every_isomorphism)


def test_automorphisms_keep_the_block_checks_small_dtype():
    """Over F_5, T, K and the automorphism array all hold int16 residues."""
    A5 = reduce_mod(catalog.instantiate("J4,4"), 5)
    T, K = _automorphism_cosets(A5, F5)
    assert T.dtype == K.dtype == _automorphism_array(A5, F5).dtype == np.int16


@pytest.mark.parametrize("find_all", [False, True], ids=["T", "K"])
def test_cosets_reject_a_corrupted_automorphism(monkeypatch, find_all):
    """A wrong map in T (the first lift of each leaf) or in K (every lift of
    the identity leaf) is refused by the block check, never trusted."""
    A5 = reduce_mod(catalog.instantiate("J4,4"), 5)
    lift = isomorphism._lift_candidates

    def corrupted(MA, MB, leaves, all_lifts):
        for k, maps in enumerate(lift(MA, MB, leaves, all_lifts)):
            if k == 0 and all_lifts == find_all:
                maps = maps.copy()
                maps[0, 0, 0] = (maps[0, 0, 0] + 1) % 5  # e_0 moves, its products do not
            yield maps

    monkeypatch.setattr(isomorphism, "_lift_candidates", corrupted)
    with pytest.raises(NiljError, match="enumerated automorphism"):
        _automorphism_cosets(A5, F5)
    with pytest.raises(NiljError, match="enumerated automorphism"):
        orbit_census(A5, F5, 1)


def _one_pass_images(actions, rows, p):
    """Canonical bases of the images of one subspace under every action at once."""
    reduced, _ = _rref_mod_p(np.array(rows, dtype=np.int64) @ actions.transpose(0, 2, 1) % p, p)
    return {tuple(tuple(row) for row in mat if any(row)) for mat in reduced.tolist()}


@pytest.mark.parametrize("name", BENCH_PARENTS)
def test_two_pass_orbits_are_the_whole_groups_images(name):
    """The census's T-then-K orbits are the partition that the induced
    actions of the whole automorphism array give, in two bases."""
    A = reduce_mod(catalog.instantiate(name), 5)
    for B in (A, change_basis(A, _random_invertible(F5, A.dim, random.Random(f"two-pass:{name}")))):
        spaces = h2(B)
        if not spaces.h2_reps:
            continue
        (group,) = _induced_actions(spaces, _automorphism_array(B, F5))
        for r in (1, 2):
            rep = orbit_census(B, F5, r)
            want = tuple(frozenset(_one_pass_images(group, rows, 5)) for rows in rep.orbit_representatives)
            assert rep.orbit_members == want, (name, r)
            assert sum(map(len, want)) == rep.total_admissible == len(frozenset().union(*want))


def test_orbit_stage_keyed_rows_stay_within_the_two_pass_bound(monkeypatch):
    """J4,4 at r=2: the orbit stage keys at most one representative per
    T action and one admissible subspace per K action, never the |T| |K|
    actions of the whole group."""
    A = reduce_mod(catalog.instantiate("J4,4"), 5)
    A = change_basis(A, _random_invertible(F5, A.dim, random.Random("orbit-rows:J4,4")))
    keys, images = isomorphism._plucker_keys, isomorphism._orbit_images
    counted, inside = [0], [False]

    def counting_keys(mats, p):
        if inside[0]:
            counted[0] += len(mats)
        return keys(mats, p)

    def tracked_images(*args):
        inside[0] = True
        try:
            return images(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(isomorphism, "_plucker_keys", counting_keys)
    monkeypatch.setattr(isomorphism, "_orbit_images", tracked_images)
    rep = orbit_census(A, F5, 2)
    XT, XK = _induced_actions(h2(A), *_automorphism_cosets(A, F5))
    assert 0 < counted[0] <= rep.orbit_count * len(XT) + rep.total_admissible * len(XK)
