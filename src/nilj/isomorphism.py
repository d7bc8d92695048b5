"""Isomorphism checking for nilpotent commutative algebras.

Three evidence grades live here:

* ``verify_isomorphism`` checks a claimed map exactly (never trusts it);
* ``invariant_separation`` certifies non-isomorphism via the invariant
  fingerprint;
* ``search_isomorphism`` / ``enumerate_automorphisms`` run an exhaustive,
  complete search over a small prime field.

The search enumerates images of a generating set (a basis complement of the
square ideal); images of all other basis vectors are forced by
multiplicativity.  For speed the enumeration is staged along the power
filtration: leading (graded) digits first, typed by their signature rows, then
the lower digits, solved linearly on quotients where two corrections cannot
multiply (a level K with 2K < m modulo the levels >= K + 2, as 2K >= K + 2;
the levels with 2K >= m together, none when m <= 3).  There the forced map and
its defect are affine in the digits: one walk of the closure on dual numbers
(``_run``; dx dy = 0) gives the constant term, the candidate's own forced map,
and the digits' slopes, and the same walk on dual supports (``_supports``)
finds the defect entries each digit can reach, so only those are solved.
Digits too deep to influence any product are factored out of the search and
re-attached combinatorially, so automorphism counts are exact.

``search_isomorphism`` first compares the invariant fingerprints of the two
algebras reduced mod p and returns None when they differ.  An isomorphism
over F_p preserves every fingerprint component, so this prune is a
certificate of non-isomorphism over F_p only; it says nothing over Q, and a
report row it decides keeps the grade of a search that found nothing.
``_search`` then returns None before the graded stage when two distinct
algebras have different ``_graded_signature``s.  An isomorphism induces one
of the associated graded algebras, so this prune too certifies only over F_p,
and a row it decides keeps its grade.

Each algebra is modelled by one F_p array (``_FilteredModel.C``): its
structure tensor in a basis adapted to the power filtration and sorted by
level, computed by one contraction of ``structure_tensor`` over the basis
change.  The quotient by the coordinates of level >= L is the prefix
C[:d, :d, :d], so the closure, the graded stage and every lift stage read
slices of C, and no stage rebuilds an algebra.

The forced closure is compiled once per source quotient and generator count
(``_closure``): a straight-line program of products that expresses every
basis vector over words in the generators.  It runs on blocks of candidate
generator images as int64 contractions over the target's tensor, and the
candidates are accepted or rejected in batch (multiplicativity on all basis
pairs) by ``_linear_stage``'s solve in the lift, which also drops the graded
leaves with a defect on the associated graded tensors (``_graded``): no digit
moves such an entry.  Full rank is decided once per graded leaf, by one
determinant: a multiplicative forced map is block lower triangular in
filtration coordinates with the leaf as its level-1 block, and onto when that
block is invertible, so ``_lift_candidates`` drops the singular leaves and no
stage computes a rank per map.  ``_rref_mod_p`` runs only where an echelon
form is needed: the linear stage's systems and null spaces, ``_level1_rows``
and admissibility.  The defects are evaluated only at the entries that some
forced map can make nonzero: ``_supports`` runs the program on the tensors'
nonzero patterns, and every other entry vanishes for all candidates.

Every stream moves in blocks of at most AUT_BLOCK rows.  Every enumeration is
one parent-major stream of (parent, child) pairs from ``_blocks``: the graded
stage extends partial level-1 codes by one of the next generator's typed
codes (those with its ``_level1_rows`` row) and keeps the extensions whose
level-(1,1) products are zero or nonzero as in the source; the free digits
extend a block of cores by every digit setting; candidate subspaces have one
parent.  A digit level enumerates nothing: it streams its candidates'
solutions as one run of flat indices, each candidate's in ``iproduct`` order
of its digits, cut into full blocks.  ``_regroup`` packs the graded leaves
and the automorphisms to be verified into full blocks, so the lift takes and
yields (k, n, n) blocks and a search that hits early has lifted one block of
leaves.  Candidates keep their enumeration order, so the first hit is the one
a candidate-by-candidate search finds.

The engine works in filtration coordinates.  ``search_isomorphism`` maps
``_search``'s first lift back to the original bases and re-verifies it with
``verify_isomorphism``.  Automorphisms have one path: ``_automorphism_cosets``
maps T (a lift per graded leaf) and K (the lifts of the identity leaf) back
and re-verifies them (multiplicativity on all basis pairs, det != 0 mod p);
``_automorphism_array`` is their products t k, re-verified block by block.

``orbit_census`` verifies and acts with the |T| + |K| maps of
``_automorphism_cosets``, not the |T| |K| of Aut, and forms each orbit as the
images under T's actions, then under K's: the admissibility rank test, the
induced actions on H2 class coordinates and the orbit images are batched int64
contractions, reduced mod p after each (no floating point; ``_check_int64``
refuses moduli whose sums could overflow).  No echelon form names an image:
its ``_plucker_keys`` row gives its position among the sorted admissible
bases, and each position gets an orbit label.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, groupby

import numpy as np

from .algebra import (
    Algebra,
    _check_int64,
    _power_filtration,
    _upper_indices,
    annihilator,
    invariant_vector,
    is_multiplicative,
    reduce_mod,
    structure_tensor,
)
from .cohomology import Cocycle, h2
from .errors import (
    CaseNotCoveredError,
    FieldMismatchError,
    InternalCheckError,
    NiljError,
    SearchBudgetExceededError,
)
from .fields import Field, same_field
from .linalg import Echelon, Matrix, Subspace, _dot

AUT_CANDIDATE_BUDGET = 10**8
GRADED_TABLE_LIMIT = 2500  # max p^(level-1 dim); the pairing table is quadratic in this
AUT_BLOCK = 1024  # pairs, candidates, automorphisms or subspaces per numpy block in every stage; bounds working memory


@dataclass(frozen=True)
class Morphism:
    """A claimed algebra map; columns of ``mat`` are images of src basis vectors."""

    src: Algebra
    dst: Algebra
    mat: Matrix


def verify_isomorphism(m: Morphism) -> bool:
    return is_homomorphism(m) and m.mat.is_invertible()


def is_homomorphism(m: Morphism) -> bool:
    """Multiplicativity alone (no invertibility requirement)."""
    return is_multiplicative(m.src, m.dst, m.mat)


def invariant_separation(A: Algebra, B: Algebra) -> str:
    """"distinct" certifies non-isomorphism; "inconclusive" decides nothing."""
    same_field(A.field, B.field)
    return "distinct" if invariant_vector(A) != invariant_vector(B) else "inconclusive"


# ---------------------------------------------------------------------------
# filtration model
# ---------------------------------------------------------------------------


class _FilteredModel:
    """Filtration-adapted coordinates of one nilpotent algebra over F_p.

    ``C`` is the structure tensor in these coordinates.  They are sorted by
    level, so the quotient by the levels >= L has the tensor C[:d, :d, :d],
    where d counts the coordinates of level < L.
    """

    def __init__(self, A: Algebra):
        if not A.field.is_prime_field:
            raise FieldMismatchError("search engine needs a prime field")
        self.A = A
        F = A.field
        n = A.dim
        powers = _power_filtration(A)
        self.m = len(powers)  # nilpotency index: J^m = 0
        levels = []
        rows = []
        for k in range(1, self.m):
            for v in powers[k].extend(powers[k - 1].vectors()):
                rows.append(list(v))
                levels.append(k)
        order = sorted(range(n), key=lambda i: levels[i])
        self.levels = tuple(levels[i] for i in order)
        # columns are the new basis vectors
        self.to_old = Matrix.from_rows(F, [rows[i] for i in order]).transpose()
        self.to_new = self.to_old.inverse()
        self.block = {}
        for k in range(1, self.m):
            idx = [i for i, l in enumerate(self.levels) if l == k]
            self.block[k] = (idx[0], idx[-1] + 1) if idx else (0, 0)
        self.n1 = self.block[1][1]
        # C[i, j] = to_new (f_i f_j) for the columns f of to_old, in the
        # tensor's dtype, so object dtype above the int64 guard
        T, self.p = structure_tensor(A)
        old = np.array(self.to_old.row_list(), dtype=T.dtype).T
        new = np.array(self.to_new.row_list(), dtype=T.dtype)
        self.C = _products(old[:, None], old[None], T, self.p) @ new.T % self.p

    def block_dims(self) -> tuple:
        return tuple(self.block[k][1] - self.block[k][0] for k in range(1, self.m))


@lru_cache(maxsize=None)
def _model(A: Algebra) -> _FilteredModel:
    return _FilteredModel(A)


@lru_cache(maxsize=None)
def _graded(M: _FilteredModel) -> _FilteredModel:
    """M's associated graded algebra: a view whose C keeps only the components
    of level(k) = level(i) + level(j).  Its level-1 coordinates generate it,
    and words in them are homogeneous, so its closure forces block maps."""
    G = copy(M)
    levels = np.array(M.levels)
    G.C = M.C * (levels[:, None, None] + levels[None, :, None] == levels)
    return G


# ---------------------------------------------------------------------------
# the forced closure, compiled
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Closure:
    """The forced closure of s generator images, compiled for one source algebra.

    The generators are the first s basis vectors.  Words are tried in a fixed
    order: the generators, then round by round every product of a known
    independent word with one found in the previous round, until the
    independent words span.  Which words are independent depends on the source
    alone, so the trial runs once; an evaluation only multiplies images.
    ``rounds[r]`` holds the factor indices (into the independent words, in the
    order found) of the words round r adds, and row i of ``basis`` expresses
    e_i over the independent words.

    Dependent words are not evaluated: once the map is multiplicative, a
    dependent word's image equals the map applied to its vector, so its defect
    vanishes by itself and checking multiplicativity on basis pairs suffices.
    """

    rounds: tuple  # ((left, right) index arrays) per round
    basis: np.ndarray  # (n, n) residues


@lru_cache(maxsize=None)
def _closure(M: _FilteredModel, d: int, s: int) -> _Closure:
    """The compiled closure of the first s coordinates of the quotient
    C[:d, :d, :d] of M, which they must generate."""
    C, p = M.C[:d, :d, :d], M.p
    ech = Echelon(M.A.field, 2 * d, key=d)  # rows (vector | unit tag of the independent word)
    vecs = []

    def add(vec) -> bool:
        tag = [int(t == len(vecs)) for t in range(d)]
        if ech.add(tuple(vec + tag)):
            vecs.append(vec)
            return True
        return False

    for g in range(s):
        add([int(t == g) for t in range(d)])
    rounds, frontier, pool = [], list(range(s)), s
    while frontier and len(vecs) < d:
        V = np.array(vecs, dtype=C.dtype)
        prods = _products(V[:pool, None], V[None, frontier], C, p).tolist()
        pairs, new = [], []
        for a in range(pool):
            for b, prod in zip(frontier, prods[a]):
                if add(prod):
                    pairs.append((a, b))
                    new.append(len(vecs) - 1)
        if pairs:
            rounds.append(tuple(np.array(side, dtype=np.int64) for side in zip(*pairs)))
        frontier, pool = new, len(vecs)
    if len(vecs) < d:
        raise NiljError("filtration generators do not generate the algebra")
    return _Closure(tuple(rounds), np.array([row[d:] for row in ech.rows], dtype=np.int64))


def _mult(X, C, p: int):
    """Multiplication matrices of the rows x of a (..., n) residue array: row c is x e_c."""
    n = C.shape[0]
    return (X.reshape(-1, n) @ C.reshape(n, n * n) % p).reshape(X.shape + (n,))


def _products(X, Y, C, p: int):
    """Row-wise products x * y of two (..., n) residue arrays through the tensor C."""
    return (Y[..., None, :] @ _mult(X, C, p))[..., 0, :] % p


def _run(prog: _Closure, words, times):
    """Walk the compiled closure: each round sets its words to ``times(words[left], words[right])``.

    ``words`` holds one value per independent word along its first axis, the generators' filled in.
    A value is a dual number: the value, then its first-order changes, along the second-to-last axis.
    """
    found = len(words) - sum(len(left) for left, _ in prog.rounds)
    for left, right in prog.rounds:
        words[found:found + len(left)] = times(words[left], words[right])
        found += len(left)


def _dual_products(X, Y, C, p: int):
    """[x, dx] [y, dy] = [x y, dx y + x dy] of dual (..., 1 + T, n) residue arrays, as dx dy = 0."""
    out = X @ _mult(Y[..., 0, :], C, p) % p
    if X.shape[-2] > 1:
        out[..., 1:, :] = (out[..., 1:, :] + Y[..., 1:, :] @ _mult(X[..., 0, :], C, p)) % p
    return out


def _forced_maps(MA: _FilteredModel, MB: _FilteredModel, gens, slots=None):
    """The maps forced by multiplicativity from generator images, and their
    defects (the reference the tests hold the lift to), or with ``slots``
    their first-order changes.

    ``gens`` is a (k, s, d) array: candidate images of the first s coordinates
    in the quotients C[:d, :d, :d] of both models.  Runs MA's compiled closure
    (``_run``) through MB's tensor on dual numbers; phis[b] has the forced
    images of the quotient's basis as columns.  The defects are
    ``_defects_at`` the entries that a forced map can make nonzero
    (``_supports``); every other entry of ``_product_defects`` vanishes for
    all candidates.  ``slots`` are the (generator, coordinate) index arrays
    of T digits (``_slots``); the slopes [b, t] are the (d, d) changes of
    phis[b] along a unit change of digit t, exact when no two changes
    multiply to a nonzero product (see ``_linear_stage``).
    """
    k, s, d = gens.shape
    prog = _closure(MA, d, s)
    p, CA, CB = MA.p, MA.C[:d, :d, :d], MB.C[:d, :d, :d]
    gs, cs = _slots(MB, s, ()) if slots is None else slots
    words = np.zeros((d, k, 1 + len(gs), d), dtype=np.int64)  # [word, b, value | changes, coordinate]
    words[:s, :, 0] = gens.transpose(1, 0, 2)
    words[gs, :, 1 + np.arange(len(gs)), cs] = 1
    _run(prog, words, lambda X, Y: _dual_products(X, Y, CB, p))
    duals = words.transpose(1, 2, 3, 0) @ prog.basis.T % p  # [b, value | changes, coordinate, e_i]
    phis = duals[:, 0]
    if slots is not None:
        return phis, duals[:, 1:]
    return phis, _defects_at(CA, CB, phis, _supports(MA, MB, d, s)[1], p)


def _times(CB, phis, c, i, p: int):
    """(phi(e_i) e_a)[c] = sum_y phi[y, i] CB[a, y, c] for every phis[b] at the index arrays c and i,
    as [b, a, entry]."""
    return (phis.transpose(2, 0, 1)[i] @ CB[:, :, c].transpose(2, 1, 0) % p).transpose(1, 2, 0)


def _defects_at(CA, CB, phis, entries, p: int):
    """phi(e_i e_j)[c] - (phi(e_i) phi(e_j))[c] mod p for every phis[b] at the (c, i, j) index arrays
    ``entries``, as [b, entry]."""
    c, i, j = entries
    return ((phis[:, c] * CA[i, j]).sum(axis=2) - (phis[:, :, j] * _times(CB, phis, c, i, p)).sum(axis=1)) % p


def _meets(X, Y, S, spec="...a,...c,acr->...r"):
    """Where products of vectors supported on X and on Y can be nonzero through a tensor supported on S."""
    return np.einsum(spec, X, Y, S) > 0


def _dual_meets(X, Y, S):
    """The supports of [x, dx] [y, dy] = [x y, dx y + x dy] for dual (..., 2, n) supports."""
    out = _meets(X, Y[..., :1, :], S)
    out[..., 1:, :] |= _meets(X[..., :1, :], Y[..., 1:, :], S)
    return out


def _reaches(MA: _FilteredModel, MB: _FilteredModel, d: int, X, images):
    """[c, i, j] where X(e_i e_j)[c], (X(e_i) phi(e_j))[c] or (phi(e_i) X(e_j))[c] may be nonzero for
    maps phi and X whose images of the basis of the quotient C[:d, :d, :d] are supported on images and X."""
    SA, SB = ((M.C[:d, :d, :d] != 0).astype(np.int64) for M in (MA, MB))
    hit = np.einsum("ijq,qc->cij", SA, X) + _meets(X, images, SB, "ia,jc,acr->rij") > 0
    return hit | hit.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _supports(MA: _FilteredModel, MB: _FilteredModel, d: int, s: int, levels: tuple = ()):
    """Where the forced maps of the quotients C[:d, :d, :d] and their changes along the digits of
    ``levels`` can be nonzero, whatever the s generator images: MA's closure ``_run`` on dual
    supports, a product being nonzero where MB's tensor can make it so.  Returns (images, entries,
    moved, reached): ``images`` and ``moved``, the [e_i, coordinate] masks of the maps and of their
    changes, the (c, i, j) index arrays of the defect entries with i <= j that can be nonzero, and
    the mask of those the digits can move.  Raises if two changes can multiply to a nonzero product,
    which otherwise makes the forced maps and their defects affine in the digits."""
    prog = _closure(MA, d, s)
    SB = (MB.C[:d, :d, :d] != 0).astype(np.int64)
    words = np.zeros((d, 2, d), dtype=bool)  # [word, value | changes, coordinate]
    words[:s, 0] = True
    gs, cs = _slots(MB, s, levels)
    words[gs, 1, cs] = True
    _run(prog, words, lambda X, Y: _dual_meets(X, Y, SB))
    span = words[:, 1].any(axis=0)
    if SB[span][:, span].any():
        raise NiljError("two digit changes multiply: the linear stage does not apply")
    images, moved = (prog.basis != 0).astype(np.int64) @ words.transpose(1, 0, 2) > 0  # [e_i, coordinate]
    entries = np.nonzero(np.triu(_reaches(MA, MB, d, images, images)))
    return images, entries, moved, _reaches(MA, MB, d, moved, images)[entries]


# ---------------------------------------------------------------------------
# graded stage
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _level1_rows(M: _FilteredModel):
    """The row of every level-1 vector x of ``_graded(M)``, indexed by x's code (its base-p
    digits, least significant first): the rank of y -> x y on each level block k, ranked on
    block k + 1's columns, where the graded product lands (none for the top block, rank 0),
    then which of the right powers x, x x, (x x) x, ... vanish.  An isomorphism induces a
    graded one, which maps level 1 onto level 1 and keeps every row.  Cached, so read-only."""
    p, s, n, C = M.p, M.n1, M.A.dim, _graded(M).C
    x = _digits(np.arange(p**s, dtype=np.int64), p, s) @ np.eye(s, n, dtype=np.int64)
    cols = [_rref_mod_p((x @ C[:, lo:hi, to:end].reshape(n, -1) % p).reshape(len(x), hi - lo, end - to), p)[1]
            for (lo, hi), (to, end) in ((M.block[k], M.block.get(k + 1, (0, 0))) for k in range(1, M.m))]
    power = x
    for _ in range(1, M.m):
        cols.append(~power.any(axis=1))
        power = _products(power, x, C, p)
    rows = np.stack(cols, axis=1)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _graded_signature(M: _FilteredModel) -> tuple:
    """The distinct ``_level1_rows`` of M with their counts: unequal signatures
    certify non-isomorphism over F_p."""
    rows, counts = np.unique(_level1_rows(M), axis=0, return_counts=True)
    return tuple(zip(map(tuple, rows.tolist()), counts.tolist()))


def _digits(codes, p: int, width: int):
    """Base-p digits of each code, least significant first: a (len, width) array."""
    digits = np.empty((len(codes), width), dtype=np.int64)
    tmp = codes.copy()
    for t in range(width):
        digits[:, t] = tmp % p
        tmp //= p
    return digits


def _blocks(k: int, c: int):
    """(parent, child) index arrays of all k * c extensions of k parents by c
    children each, parent-major, at most AUT_BLOCK pairs at a time."""
    for start in range(0, k * c, AUT_BLOCK):
        flat = np.arange(start, min(start + AUT_BLOCK, k * c), dtype=np.int64)
        yield flat // c, flat % c


def _regroup(arrays):
    """The rows of a stream of arrays in arrays of AUT_BLOCK rows; the last one may be shorter."""
    pending, count = [], 0
    for rows in arrays:
        pending.append(rows)
        count += len(rows)
        while count >= AUT_BLOCK:
            stack = np.concatenate(pending)
            yield stack[:AUT_BLOCK]
            pending, count = [stack[AUT_BLOCK:]], count - AUT_BLOCK
    if count:
        yield np.concatenate(pending)


def _graded_level1_solutions(MA: _FilteredModel, MB: _FilteredModel):
    """Yield blocks of candidate level-1 assignments as (k, s, s) arrays of image vectors.

    The candidates are typed: generator g's images are the level-1 codes of B whose
    ``_level1_rows`` row is A's row of e_g (code p^g), in code order.  A partial assignment
    gives codes to the generators along ``order`` (the generators that feed block 2 first,
    then by their number of nonzero products, then by index); each block of (partial, code)
    extensions from ``_blocks`` keeps those whose level-(1,1) products are zero or nonzero as
    in A, so the leaves come out lexicographically along ``order``.  Both filters are
    necessary conditions, and ``_lift_candidates`` checks the leaves in full (an invertible
    level-1 block, zero defects on the graded tensors), so the filters cannot cost completeness.
    """
    p, s = MA.p, MA.n1
    lo2, hi2 = MA.block.get(2, (0, 0))
    feed2 = ()
    if hi2 > lo2:
        # the generators in the products of two that block 2's coordinates are written over
        prog = _closure(MA, hi2, s)
        used = prog.basis[lo2:hi2, s:].any(axis=0)
        feed2 = set(np.concatenate([side[used] for side in prog.rounds[0]]).tolist())
    density = MA.C[:s].any(axis=2).sum(axis=1)  # nonzero products of each generator
    order = sorted(range(s), key=lambda i: (i not in feed2, -density[i], i))
    at = np.argsort(order)  # the position of each generator along order
    rows_a, rows_b = _level1_rows(MA), _level1_rows(MB)
    typed = [np.flatnonzero((rows_b == rows_a[p**g]).all(axis=1)) for g in range(s)]
    # level-(1,1) statuses: of A's generators, and of B's level-1 vectors x_u by code u
    # (by_gen[u, b] is x_u e_b at block 2, and pair_b[u, v] says whether x_u x_v is nonzero)
    pair_a = MA.C[:s, :s, lo2:hi2].any(axis=2)
    digits = _digits(np.arange(p**s, dtype=np.int64), p, s)
    by_gen = (digits @ MB.C[:s, :s, lo2:hi2].reshape(s, -1) % p).reshape(len(digits), s, hi2 - lo2)
    pair_b = (digits @ by_gen % p).any(axis=2)

    def extend(parts):
        depth = parts.shape[1]
        if depth == s:
            yield digits[parts[:, at]]
            return
        g = order[depth]
        for parent, child in _blocks(len(parts), len(typed[g])):
            cand = np.concatenate([parts[parent], typed[g][child, None]], axis=1)
            # g's level-(1,1) statuses with the generators before it and itself
            cand = cand[(pair_b[cand, cand[:, -1:]] == pair_a[order[:depth + 1], g]).all(axis=1)]
            if len(cand):
                yield from extend(cand)

    yield from extend(np.zeros((1, 0), dtype=np.int64))


# ---------------------------------------------------------------------------
# lifting stages
# ---------------------------------------------------------------------------


def _lift_candidates(MA: _FilteredModel, MB: _FilteredModel, leaves, find_all):
    """Complete level-1 images to verified maps in filtration coordinates.

    ``leaves`` is a (k, s, s) array of graded level-1 solutions.  Singular
    leaves are dropped first, once, by one s x s determinant each
    (``_minors``): a lift phi of a leaf with zero product defects is a
    homomorphism, and it is an isomorphism exactly when the leaf is
    invertible.  The generator images lie in level >= 1, so phi maps the words
    of length k, which span level >= k, into level >= k: in filtration
    coordinates phi is block lower triangular with the leaf as its level-1
    block.  If the leaf is singular, so is phi.  If it is invertible, phi's
    image S is a subalgebra with S + J_B^2 = J_B; then J_B = S + J_B^k for
    every k (J_B^2 = (S + J_B^2)^2 lies in S + J_B^3, and so on), and J_B is
    nilpotent, so S = J_B and phi is onto.  So no stage computes a rank.  No
    leaf is tested on the graded tensors (``_graded``) apart: a graded defect
    sits at an entry (c, i, j) with level(c) = level(i) + level(j), which no
    digit moves, so ``_linear_stage``'s ``live`` mask drops the leaf at the
    first stage whose quotient holds c (with m >= 5 an intermediate stage may
    expand it first, for nothing).

    Yields (k, n, n) blocks, 0 < k <= AUT_BLOCK, of matrices whose columns
    are the images of A's basis, leaf by leaf and within a leaf in
    ``iproduct`` order of its digits.  ``_linear_stage`` solves each level K
    with 2K < m modulo the levels >= K + 2, streaming every solution on as a
    candidate, then the levels with 2K >= m together, where ``find_all``
    decides; with nilpotency index m <= 3 that last group has no digit.
    """
    n, s, m = MA.A.dim, MA.n1, MA.m
    leaves = leaves[_minors(leaves, MA.p)[:, 0] != 0]
    relevant = [k for k in range(2, m - 1) if MB.block[k][0] != MB.block[k][1]]

    def stage(k_idx, gens):
        if k_idx >= len(relevant) or 2 * relevant[k_idx] >= m:
            yield from _linear_stage(MA, MB, gens, relevant[k_idx:], n, find_all)
            return
        K = relevant[k_idx]
        d = MB.block[K + 1][1]  # the quotient by the levels >= K + 2
        for maps in _linear_stage(MA, MB, gens, [K], d, True):
            cand = np.zeros((len(maps), s, n), dtype=np.int64)
            cand[:, :, :d] = maps[:, :, :s].transpose(0, 2, 1)  # the generators' columns
            yield from stage(k_idx + 1, cand)

    gens = np.zeros((len(leaves), s, n), dtype=np.int64)
    gens[:, :, :s] = leaves
    if len(gens):
        yield from stage(0, gens)


def _slots(MB: _FilteredModel, s: int, levels):
    """(generator, coordinate) index arrays of the digits of the given levels, generator-major."""
    coords = [c for k in levels for c in range(*MB.block[k])]
    return np.repeat(np.arange(s), len(coords)), np.tile(np.array(coords, dtype=np.int64), s)


def _combos(p: int, width: int):
    """All of F_p^width in ``iproduct`` order, AUT_BLOCK rows at a time."""
    for _, codes in _blocks(1, p**width):
        yield _digits(codes, p, width)[:, ::-1]


def _linear_stage(MA, MB, gens, levels, d, find_all):
    """Solve the digits of ``levels`` at once on the quotient C[:d, :d, :d].

    Valid exactly when no two corrections multiply to a nonzero product on
    the quotient (``_supports`` checks it): then the forced map and its
    multiplicativity defect are affine in the digits.  One dual-number run of
    the closure (``_forced_maps``) gives each candidate's forced map, the
    constant term, and the slopes of its digits.  The defect is evaluated at
    the entries that can be nonzero (``_supports``, compiled once per model
    pair, d and levels; pairs i <= j, as both tensors are symmetric): those no digit
    moves must vanish already, the ``live`` mask (the graded leaf test, see
    ``_lift_candidates``), and only the moved ones go into one batched RREF.
    Its rows span the full system's row space, so the solution set and the
    particular solution (free digits zero) are those of the full system.  The
    solutions come in ``iproduct`` order of the digits, the particular one alone
    unless ``find_all``: one stream of flat indices, candidate b owning
    p^nullity[b] consecutive ones, whose base-p digits within it, most
    significant first, weight the RREF rows of its null space (a total of 2^63
    or more is refused).  A solution's map is the constant plus the slopes,
    multiplicative by construction; blocks of at most AUT_BLOCK (d, d) maps are
    yielded.  The digits leave the
    candidates' level-1 block alone, and ``_lift_candidates`` hands on only
    invertible ones, so every map yielded has full rank d (the lemma in
    ``_lift_candidates``) and no rank is computed.  With no digit
    (``levels`` empty) the solutions are the candidates whose forced maps
    are homomorphisms.
    """
    p = MA.p
    CA, CB = MA.C[:d, :d, :d], MB.C[:d, :d, :d]
    slots = _slots(MB, MA.n1, levels)
    _, entries, moved, reached = _supports(MA, MB, d, MA.n1, tuple(levels))
    xs, ys = np.nonzero(moved.T)
    phis, slopes = _forced_maps(MA, MB, gens[:, :, :d], slots)  # slopes[b, t]: the (d, d) change along slot t
    defects = _defects_at(CA, CB, phis, entries, p)
    live = ~defects[:, ~reached].any(axis=1)  # the entries no digit moves vanish already
    defects, (c, i, j) = defects[:, reached], (index[reached] for index in entries)
    by_i, by_j = _times(CB, phis, c, i, p), _times(CB, phis, c, j, p)  # [b, a, entry]
    # the change S(e_i e_j)[c] - (S(e_i) phi(e_j))[c] - (phi(e_i) S(e_j))[c] is linear in S[xs, ys]
    weights = ((xs[:, None] == c) * CA[i, j][:, ys].T - (ys[:, None] == i) * by_j[:, xs]
               - (ys[:, None] == j) * by_i[:, xs])
    change = slopes[:, :, xs, ys] @ (weights % p)  # [b, t, entry]
    # rows (defect slopes | -constant); a pivot in the last column is inconsistent
    reduced, ranks = _rref_mod_p(np.concatenate([change.transpose(0, 2, 1), -defects[:, :, None]], axis=2), p)
    T = len(slots[0])
    lead = (reduced != 0).argmax(axis=2)
    pivot = np.arange(len(c)) < ranks[:, None]
    consistent = live & ~(pivot & (lead == T)).any(axis=1)
    reduced, lead, pivot, phis, slopes = (a[consistent] for a in (reduced, lead, pivot, phis, slopes))
    b, r = np.nonzero(pivot)
    x0 = np.zeros((len(reduced), T), dtype=np.int64)
    x0[b, lead[b, r]] = reduced[b, r, T]
    nullity = np.zeros(len(x0), dtype=np.int64)
    if find_all and T:
        # null vectors e_f - sum_r reduced[r, f] e_lead(r), zero where f is a pivot column; in RREF
        # their coordinates order the solutions lexicographically from the one that vanishes at
        # their leading columns
        null = np.tile(np.eye(T, dtype=np.int64), (len(reduced), 1, 1))
        null[b, :, lead[b, r]] -= reduced[b, r, :T]
        null, nullity = _rref_mod_p(null, p)
        x0 = (x0 - (np.take_along_axis(x0, (null != 0).argmax(axis=2), axis=1)[:, None] @ null)[:, 0]) % p
    total = sum(count * p**k for k, count in enumerate(np.bincount(nullity).tolist()))
    if total >= 2**63:
        raise SearchBudgetExceededError(f"{total} solutions of the linear stage exceed the search budget")
    sizes = p**nullity
    ends = np.cumsum(sizes)
    for start in range(0, total, AUT_BLOCK):
        flat = np.arange(start, min(start + AUT_BLOCK, total), dtype=np.int64)
        at = np.searchsorted(ends, flat, side="right")
        x = x0[at]
        if find_all and T:
            place = nullity[at, None] - 1 - np.arange(T)  # of each null row's digit, most significant first
            y = np.where(place >= 0, (flat - ends[at] + sizes[at])[:, None] // p ** np.maximum(place, 0) % p, 0)
            x = (x + (y[:, None] @ null[at])[:, 0]) % p
        yield (phis[at] + np.einsum("bt,btij->bij", x, slopes[at])) % p


def _free_digit_expansion(MA: _FilteredModel, MB: _FilteredModel, cores):
    """Re-attach digits that cannot influence any product (levels k with J^{k+1} = 0).

    ``cores`` is a (c, n, n) block of engine-coordinate matrices.  Yields (k, n, n)
    arrays, at most AUT_BLOCK at a time: every core with every setting of the free
    digits, one ``_blocks`` stream of (core, setting) pairs, core-major, the settings
    in ``iproduct`` order.
    """
    p = MA.p
    gs, cs = _slots(MB, MA.n1, range(max(2, MA.m - 1), MA.m))
    for core, code in _blocks(len(cores), p ** len(gs)):
        out = cores[core]
        out[:, cs, gs] = (out[:, cs, gs] + _digits(code, p, len(gs))[:, ::-1]) % p
        yield out


def _leaf_stream(MA: _FilteredModel, MB: _FilteredModel):
    """``_search``'s refusals, then its graded leaves in blocks of AUT_BLOCK, the last one
    possibly shorter (none when shapes or signatures differ)."""
    if MA.m != MB.m or MA.block_dims() != MB.block_dims():
        return ()
    p, s = MA.p, MA.n1
    if p ** (s * s) > AUT_CANDIDATE_BUDGET:
        raise SearchBudgetExceededError(f"{p}^({s}^2) graded candidates exceed the search budget")
    _check_int64(p, MA.A.dim**2)  # every contraction below sums at most n^2 products
    if p**s > GRADED_TABLE_LIMIT:
        raise SearchBudgetExceededError(f"graded table of size {p}^{s} exceeds the supported budget")
    if MA is not MB and _graded_signature(MA) != _graded_signature(MB):
        return ()
    return _regroup(_graded_level1_solutions(MA, MB))


def _search(A: Algebra, B: Algebra):
    """The first isomorphism A -> B in filtration coordinates, an (n, n) matrix, or None.

    ``_model(B).to_old @ M @ _model(A).to_new`` maps it back to the original
    bases.
    """
    MA, MB = _model(A), _model(B)
    lifts = (maps for leaves in _leaf_stream(MA, MB) for maps in _lift_candidates(MA, MB, leaves, False))
    return next((maps[0] for maps in lifts), None)


def _prepare_pair(A: Algebra, B: Algebra, field: Field):
    if not field.is_prime_field:
        raise FieldMismatchError("search field must be a prime field")
    Ap = reduce_mod(A, field.p) if not A.field.is_prime_field else A
    Bp = reduce_mod(B, field.p) if not B.field.is_prime_field else B
    same_field(Ap.field, field)
    same_field(Bp.field, field)
    return Ap, Bp


def search_isomorphism(A: Algebra, B: Algebra, field: Field) -> Morphism | None:
    """Exhaustive, complete isomorphism search over a prime field.

    Returns a verified Morphism between the (reduced) algebras, or None when
    no isomorphism exists over that field.
    """
    Ap, Bp = _prepare_pair(A, B, field)
    if Ap.dim != Bp.dim or invariant_vector(Ap) != invariant_vector(Bp):
        return None
    engine = _search(Ap, Bp)
    if engine is None:
        return None
    mat = _model(Bp).to_old.mul(Matrix.from_rows(field, engine.tolist())).mul(_model(Ap).to_new)
    m = Morphism(Ap, Bp, mat)
    if not verify_isomorphism(m):
        raise InternalCheckError("search produced an unverified candidate")
    return m


def enumerate_automorphisms(A: Algebra, field: Field) -> list:
    """All invertible multiplicative matrices of A over F_p, deterministically ordered."""
    autos = _automorphism_array(A, field)
    count, n, _ = autos.shape
    return [Matrix(n, n, tuple(flat), field) for flat in autos.reshape(count, -1).tolist()]


# ---------------------------------------------------------------------------
# exact F_p arrays
# ---------------------------------------------------------------------------


def _inv_mod(x, p: int):
    """Elementwise inverse of nonzero residues, by Fermat's little theorem."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _rref_mod_p(mats, p: int):
    """Reduced row echelon forms over F_p of a (B, r, c) residue array.

    Returns (reduced, rank).  Zero rows sink to the bottom, so the nonzero
    rows of reduced[b] are the canonical basis of the row space of mats[b].
    A step at column c keeps the columns left of c: the pivot row is zero there.
    """
    M = np.array(mats, dtype=np.int64) % p
    rank = np.zeros(len(M), dtype=np.int64)
    below = np.arange(M.shape[1])
    for c in range(M.shape[2]):
        cand = (M[:, :, c] != 0) & (below >= rank[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not len(b):
            continue
        src = cand[b].argmax(axis=1)
        dst = rank[b]
        pivot = M[b, src, c:]
        M[b, src, c:] = M[b, dst, c:]
        pivot = pivot * _inv_mod(pivot[:, 0], p)[:, None] % p
        M[b, dst, c:] = pivot
        f = M[b, :, c]
        f[np.arange(len(b)), dst] = 0
        M[b, :, c:] = (M[b, :, c:] - f[:, :, None] * pivot[:, None, :]) % p
        rank[b] += 1
    return M, rank


def _product_defects(CA, CB, phis, p: int):
    """phi(e_i e_j) - phi(e_i) phi(e_j) mod p for every phis[b] and basis pair, as [b, t, i, j].

    phis[b] maps the algebra of CA into that of CB; its columns are the images
    of the basis.
    """
    b, n, _ = phis.shape
    # phi(e_i e_j)[t] = sum_k phi[t, k] CA[i, j, k]
    lhs = (phis @ CA.reshape(n * n, n).T % p).reshape(b, n, n, n)
    # phi(e_i) phi(e_j)[t] = sum_{a,c} phi[a, i] phi[c, j] CB[a, c, t]
    half = (phis.transpose(0, 2, 1) @ CB.reshape(n, n * n) % p).reshape(b, n, n, n)  # [b, i, c, t]
    rhs = half.transpose(0, 1, 3, 2) @ phis[:, None] % p  # [b, i, t, j]
    return (lhs - rhs.transpose(0, 2, 1, 3)) % p


def _verify_automorphism_block(C, phis, p: int):
    """Raise unless every phis[b] (columns are basis images) is an automorphism.

    Multiplicativity phi(e_i e_j) = phi(e_i) phi(e_j) is compared for all
    basis pairs at once; invertibility is det phi != 0 mod p, from ``_minors``
    of the whole (n, n) map, so the check uses nothing the search derived.
    """
    if _product_defects(C, C, phis, p).any():
        raise InternalCheckError("enumerated automorphism is not multiplicative")
    if not _minors(phis, p).all():
        raise InternalCheckError("enumerated automorphism is singular")


def _unique_rows(rows):
    """Distinct rows of a 2-D array in lexicographic order, like np.unique(axis=0)."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[keep]


def _automorphism_cosets(A: Algebra, field: Field):
    """(T, K), Aut(A) over F_p as the cosets t K.  K is every automorphism that is the identity mod J^2
    (every lift of the identity leaf and free-digit setting, deduplicated); T is the first lift of each
    leaf (lifts come leaf by leaf), one per element of G1, Aut's image in GL(J/J^2).  Refuses
    p^(g n) above the budget, as ``_automorphism_array`` holds |T| |K| maps.  Blocks of AUT_BLOCK maps
    are mapped back to the original basis and re-verified, then kept in a small residue dtype."""
    Ap, _ = _prepare_pair(A, A, field)
    M, p, n = _model(Ap), field.p, Ap.dim
    g = M.n1  # n - dim J^2 generator images, each of n coordinates
    if p ** (g * n) > AUT_CANDIDATE_BUDGET:
        raise SearchBudgetExceededError(
            f"{p}^({g}*{n}) candidate images exceed the enumeration budget"
        )
    _check_int64(p, n)
    to_old = np.array(M.to_old.row_list(), dtype=np.int64)
    to_new = np.array(M.to_new.row_list(), dtype=np.int64)
    C, _ = structure_tensor(Ap)
    dtype = np.int16 if p <= 2**15 else np.int64

    def convert(engine):
        phis = (to_old @ engine % p) @ to_new % p
        _verify_automorphism_block(C, phis, p)
        return phis.astype(dtype)

    cores = (core for leaves in _leaf_stream(M, M) for maps in _lift_candidates(M, M, leaves, False) for core in maps)
    firsts = (next(lifts)[None] for _, lifts in groupby(cores, key=lambda core: core[:g, :g].tobytes()))
    identity = _lift_candidates(M, M, np.eye(g, dtype=np.int64)[None], True)
    kernel = (out for cores in identity for out in _free_digit_expansion(M, M, cores))
    T, K = (np.concatenate([np.zeros((0, n, n), dtype=dtype), *map(convert, _regroup(stream))])
            for stream in (firsts, kernel))
    K = _unique_rows(K.reshape(-1, n * n)).reshape(-1, n, n)
    if not (K == np.eye(n, dtype=K.dtype)).all(axis=(1, 2)).any():
        raise InternalCheckError("the automorphisms trivial mod J^2 miss the identity")
    return T, K


def _automorphism_array(A: Algebra, field: Field):
    """Every automorphism of A over F_p as a sorted, deduplicated (N, n, n) array.

    Rows are ordered as ``sorted(mat.data)`` orders the matrices.  They are
    the products t k of ``_automorphism_cosets`` (see ``orbit_census``),
    formed whole cosets at a time, at most max(AUT_BLOCK, |K|) maps, and each
    block is re-verified before it is kept in the cosets' dtype.
    """
    T, K = _automorphism_cosets(A, field)
    C, p = structure_tensor(_prepare_pair(A, A, field)[0])
    n, K64, step = K.shape[1], K.astype(np.int64), max(1, AUT_BLOCK // len(K))
    kept = []
    for start in range(0, len(T), step):
        phis = (T[start:start + step, None].astype(np.int64) @ K64 % p).reshape(-1, n, n)
        _verify_automorphism_block(C, phis, p)
        kept.append(phis.astype(K.dtype))
    return _unique_rows(np.concatenate(kept).reshape(-1, n * n)).reshape(-1, n, n)


# ---------------------------------------------------------------------------
# orbit census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitReport:
    field: Field
    grassmann_r: int
    total_admissible: int
    orbit_count: int
    orbit_representatives: tuple  # canonical RREF bases (tuples of coordinate tuples)
    orbit_sizes: tuple
    aut_group_order: int
    aut_kernel_order: int  # |K|, the automorphisms that are the identity mod J^2
    bases: np.ndarray = dataclass_field(compare=False, repr=False)  # (N, r, h), in lexicographic order
    labels: np.ndarray = dataclass_field(compare=False, repr=False)  # the orbit index of each of bases

    @cached_property
    def orbit_members(self) -> tuple:
        """Frozensets of canonical bases, aligned with the representatives, built on first read."""
        grouped = self.bases[np.argsort(self.labels, kind="stable")].tolist()
        return tuple(frozenset(tuple(map(tuple, rows)) for rows in grouped[end - size:end])
                     for size, end in zip(self.orbit_sizes, accumulate(self.orbit_sizes)))

    def orbit_of(self, canonical) -> int:
        for idx, members in enumerate(self.orbit_members):
            if canonical in members:
                return idx
        raise NiljError("subspace is not in the admissible census")


def _subspace_blocks(p: int, h: int, r: int):
    """Canonical RREF bases of all r-dimensional subspaces of F_p^h, as int64 (K, r, h) blocks.

    Pivot sets come in ``combinations`` order; within one, the free entries
    (row by row, left to right) take their values in ``iproduct`` order from
    ``_combos``, so the blocks are streamed: none holds more than AUT_BLOCK
    bases, however large the Grassmannian.
    """
    for pivots in combinations(range(h), r):
        free = [(row, c) for row, lead in enumerate(pivots) for c in range(lead + 1, h) if c not in pivots]
        fr, fc = np.array(free, dtype=np.int64).reshape(-1, 2).T
        for combos in _combos(p, len(free)):
            block = np.zeros((len(combos), r, h), dtype=np.int64)
            block[:, np.arange(r), pivots] = 1
            block[:, fr, fc] = combos
            yield block


def _admissible_subspaces(spaces, ann, r: int):
    """The admissible r-subspaces of H2 as one (N, r, h) int64 array of canonical bases, in enumeration order.

    The candidate with class-coordinate rows c^1..c^r has the cocycles
    theta_i = sum_h c^i_h R_h, and it is admissible when
    rank [N theta_1 | ... | N theta_r] = dim Ann (see ``orbit_census``).
    N R_h is contracted once; each block of candidates costs one matmul and
    one batched rank.
    """
    A = spaces.algebra
    p, n, h = A.field.p, A.dim, len(spaces.h2_reps)
    admissible = [np.zeros((0, r, h), dtype=np.int64)]
    if h < r:
        return admissible[0]
    _check_int64(p, max(n, h))
    N = np.array(ann.vectors(), dtype=np.int64).reshape(-1, n)
    a = len(N)
    NR = (N @ _forms(spaces) % p).reshape(h, a * n)  # NR[t] is N R_t, flattened
    for block in _subspace_blocks(p, h, r):
        k = len(block)
        # the transpose [N theta_i]^T, stacked over i: a columns to eliminate
        M = (block @ NR % p).reshape(k, r, a, n).transpose(0, 1, 3, 2).reshape(k, r * n, a)
        admissible.append(block[_rref_mod_p(M, p)[1] == a])
    return np.concatenate(admissible)


def _forms(spaces):
    """The H2 representatives as an (h, n, n) int64 array of symmetric forms."""
    n = spaces.algebra.dim
    i, j = _upper_indices(n)
    coords = np.array([c.upper() for c in spaces.h2_reps], dtype=np.int64).reshape(-1, len(i))
    forms = np.zeros((len(coords), n, n), dtype=np.int64)
    forms[:, i, j] = forms[:, j, i] = coords
    return forms


def orbit_census(A: Algebra, field: Field, r: int) -> OrbitReport:
    """Admissible r-subspaces of H2 partitioned into automorphism orbits.

    Admissibility is the joint condition: the common radical of the
    subspace's cocycles theta_1..theta_r meets the annihilator trivially.
    All candidates are tested by one exact rank criterion over F_p
    (``_admissible_subspaces``).  With N a basis of the annihilator, as rows,
    the subspace is admissible exactly when [N theta_1 | ... | N theta_r]
    has rank dim Ann: every theta_i is symmetric, so the annihilator vector
    N^T y lies in the common radical exactly when y is in the left kernel of
    that matrix, and N^T y = 0 only when y = 0.

    Aut is the disjoint union of the cosets t K (``_automorphism_cosets``):
    t k = t' k' makes t, t' agree mod J^2, so they lift one leaf and t = t';
    phi = t (t^-1 phi) with t agreeing with phi mod J^2.  So |Aut| = |T| |K|.
    Automorphisms keep B2 and t k acts on class coordinates as X_k X_t
    (``_induced_actions``), so the orbit of V is every X_k (X_t V): the images
    under T's actions, then the images of those under K's.  The induced group
    {X_k X_t} is never formed.  The admissible bases are sorted once and keyed
    by ``_plucker_keys``; an image with another key (the zero key of a singular
    image included) comes from a map that is no automorphism, and is refused.
    Walking the positions in order, an unlabelled one starts the next orbit and
    labels its images; in lexicographic order it is the orbit's least basis.
    """
    if r < 1:
        raise NiljError(f"census needs r >= 1, got {r}")
    Ap, _ = _prepare_pair(A, A, field)
    spaces = h2(Ap)
    T, K = _automorphism_cosets(Ap, field)
    bases = _admissible_subspaces(spaces, annihilator(Ap), r)
    labels, firsts, p = np.full(len(bases), -1), [], field.p
    if len(bases):
        XT, XK = _induced_actions(spaces, T, K)
        bases = _unique_rows(bases.reshape(len(bases), -1)).reshape(bases.shape)  # distinct, so only sorted
        position = dict(zip(map(tuple, _plucker_keys(bases, p).tolist()), range(len(bases))))
    for first in range(len(bases)):
        if labels[first] >= 0:
            continue
        orbit = _orbit_images(XK, bases[_orbit_images(XT, bases[first:first + 1], position, p)], position, p)
        if first not in orbit:
            raise InternalCheckError("orbit image lost its own representative")
        labels[orbit] = len(firsts)
        firsts.append(first)
    return OrbitReport(
        field=field, grassmann_r=r, total_admissible=len(bases), orbit_count=len(firsts),
        orbit_representatives=tuple(tuple(map(tuple, rows)) for rows in bases[firsts].tolist()),
        orbit_sizes=tuple(np.bincount(labels).tolist()), aut_group_order=len(T) * len(K), aut_kernel_order=len(K),
        bases=bases, labels=labels,
    )


def _induced_actions(spaces, *groups):
    """For each (N, n, n) automorphism array in ``groups``, the distinct
    matrices by which its maps act on H2 class coordinates, in the array's
    residue dtype.

    Row t, column h of an action X_phi holds class coordinate t of
    phi^T R_h phi, where R_h is the h-th H2 representative; phi moves the
    class with coordinates c to X_phi c, and (phi psi)^T R (phi psi) =
    psi^T (phi^T R phi) psi makes X_{phi psi} = X_psi X_phi.  Each class
    coordinate is read by ``CocycleSpaces.extractor``, built once per algebra.
    """
    E, p = spaces.extractor, spaces.algebra.field.p
    hdim = E.rows
    _check_int64(p, E.cols)
    extractor = np.array(E.data, dtype=np.int64).reshape(hdim, E.cols)
    reps = _forms(spaces)
    upper = _upper_indices(spaces.algebra.dim)  # row-major, the order of the extractor's columns
    actions = []
    for autos in groups:
        found = []
        for start in range(0, len(autos), AUT_BLOCK):
            phi = autos[start:start + AUT_BLOCK, None].astype(np.int64)
            # congruence phi^T R phi, reduced after each contraction
            acted = (phi.transpose(0, 1, 3, 2) @ reps % p) @ phi % p
            coords = acted[:, :, upper[0], upper[1]] @ extractor.T % p  # [b, h, t]
            action = coords.transpose(0, 2, 1).reshape(len(phi), -1)
            found.append(_unique_rows(action.astype(autos.dtype)))
        found = np.concatenate(found)  # the per-block list is freed before the sort copies the rows
        actions.append(_unique_rows(found).reshape(-1, hdim, hdim))
    return tuple(actions)


@lru_cache(maxsize=None)
def _laplace(h: int, k: int):
    """(cols, subs, signs): minor S of rows 0..k-1 of an h-column M, in ``combinations``
    order, is sum_j signs[j] M[k-1, cols[S, j]] (minor subs[S, j] of rows 0..k-2)."""
    index = {S: i for i, S in enumerate(combinations(range(h), k - 1))}
    combos = list(combinations(range(h), k))
    subs = [[index[S[:j] + S[j + 1:]] for j in range(k)] for S in combos]
    cols, subs = (np.array(t, dtype=np.int64).reshape(-1, k) for t in (combos, subs))
    return cols, subs, (-1) ** (k - 1 + np.arange(k))


def _minors(mats, p: int):
    """Every r x r minor mod p of each (r, h) residue matrix, in ``combinations`` order of
    its columns, as a (b, C(h, r)) int64 array; for square matrices the one column is the
    determinant.  Laplace expansion along the last row, one row at a time (``_laplace``);
    a minor sums k <= r products of two residues, so int64 holds it whenever p^2 h does.
    The input is promoted to int64, as the automorphism arrays are int16."""
    mats = np.asarray(mats, dtype=np.int64)
    b, r, h = mats.shape
    minors = np.ones((b, 1), dtype=np.int64)  # the one 0 x 0 minor
    for k in range(1, r + 1):
        cols, subs, signs = _laplace(h, k)
        minors = (mats[:, k - 1, cols] * minors[:, subs] * signs).sum(axis=2) % p
    return minors


def _plucker_keys(mats, p: int):
    """One int64 key row per (r, h) residue matrix: its ``_minors`` (the Plücker vector),
    scaled to a leading 1 and packed as base-p digits, d to a word, d the largest with
    p^d < 2^63 (so no word overflows).

    The Plücker embedding is injective over a field, so full-rank matrices have
    equal keys exactly when their row spaces are equal; a rank-deficient one has
    the zero key.  A minor sums k <= r <= h products of two residues, inside the
    bound that ``_check_int64(p, max(n, h))`` checks in ``_admissible_subspaces``.
    """
    minors = _minors(mats, p)
    lead = minors[np.arange(len(minors)), (minors != 0).argmax(axis=1)]
    minors = minors * _inv_mod(lead, p)[:, None] % p  # the inverse of 0 is 0
    d = next(d for d in range(1, 64) if p ** (d + 1) >= 2**63)
    place = np.arange(minors.shape[1])
    return np.add.reduceat(minors * p ** (place % d), place[::d], axis=1)


def _orbit_images(actions, bases, position: dict, p: int):
    """The positions of the distinct X V for every action X and every basis V of the
    (k, r, h) array ``bases``: ``position`` maps their ``_plucker_keys`` rows to them.
    At most AUT_BLOCK (base, action) pairs per batch; an image with no key there is refused."""
    keys = np.concatenate([_plucker_keys(bases[i] @ actions[k].transpose(0, 2, 1) % p, p)
                           for i, k in _blocks(len(bases), len(actions))])
    try:
        return np.array([position[key] for key in map(tuple, _unique_rows(keys).tolist())], dtype=np.int64)
    except KeyError:
        raise InternalCheckError("orbit left the admissible census") from None


def class_line(spaces, theta: Cocycle, field: Field):
    """Canonical line of theta's cohomology class over F_p, for census lookups."""
    coords = spaces.class_coords(theta)
    if coords is None:
        raise NiljError("not a cocycle")
    if not any(coords):
        raise NiljError("cocycle has trivial class")
    return Subspace.span(field, len(coords), [coords]).rows


# ---------------------------------------------------------------------------
# the 3x3 normalization lemma
# ---------------------------------------------------------------------------


def lemma_a_matrix(alpha, field: Field) -> Matrix:
    """Case-by-case 3x3 matrix normalizing a nonzero covector.

    Postconditions are re-verified before returning: det != 0, the
    permuted-transpose product has the antidiagonal-constant shape with a
    nonzero constant, and alpha @ A lands on (1,0,0) or (0,0,1).  The pure
    third-coordinate input matches no case and raises.
    """
    F = field
    a1, a2, a3 = (F.of(x) for x in alpha)
    if not any((a1, a2, a3)):
        raise NiljError("alpha must be nonzero")

    two, four, eight = F.of(2), F.of(4), F.of(8)
    if F.is_zero(a3):
        if not F.is_zero(a1) and F.is_zero(a2):
            rows = [[F.inv(a1), 0, 0], [0, a1, 0], [0, 0, 1]]
        elif F.is_zero(a1) and not F.is_zero(a2):
            rows = [[0, a2, 0], [F.inv(a2), 0, 0], [0, 0, 1]]
        else:
            r1 = F.sqrt_or_raise(F.div(a2, F.mul(eight, F.mul(a1, F.mul(a1, a1)))))
            r2 = F.sqrt_or_raise(F.inv(F.mul(eight, F.mul(a1, a2))))
            r3 = F.sqrt_or_raise(F.div(a1, F.mul(eight, F.mul(a2, F.mul(a2, a2)))))
            rows = [
                [F.neg(r1), r2, F.inv(F.mul(two, a1))],
                [r2, F.neg(r3), F.inv(F.mul(two, a2))],
                [F.inv(F.mul(two, a1)), F.inv(F.mul(two, a2)), 0],
            ]
    else:
        if F.is_zero(a1) and F.is_zero(a2):
            raise CaseNotCoveredError(
                "pure third-coordinate input matches no case of the normalization lemma"
            )
        a3sq = F.mul(a3, a3)
        a3cb = F.mul(a3sq, a3)
        if not F.is_zero(a1) and F.is_zero(a2):
            rows = [
                [0, F.neg(F.div(a3, a1)), 0],
                [F.neg(F.div(a1, a3cb)), F.div(a1, F.mul(two, a3)), F.div(a1, a3sq)],
                [0, 1, F.inv(a3)],
            ]
        elif F.is_zero(a1) and not F.is_zero(a2):
            rows = [
                [F.neg(F.div(a2, a3cb)), F.div(a2, F.mul(two, a3)), F.div(a2, a3sq)],
                [0, F.neg(F.div(a3, a2)), 0],
                [0, 1, F.inv(a3)],
            ]
        else:
            D = F.add(F.mul(two, F.mul(a1, a2)), a3sq)
            if not F.is_zero(D):
                s = F.sqrt_or_raise(F.mul(a1, a2))
                t = F.sqrt_or_raise(D)
                rows = [
                    [
                        F.div(F.mul(s, F.sub(F.neg(t), a3)), F.mul(two, F.mul(a1, D))),
                        F.div(F.mul(s, F.sub(t, a3)), F.mul(two, F.mul(a1, D))),
                        F.div(a2, D),
                    ],
                    [
                        F.div(F.mul(s, F.sub(t, a3)), F.mul(two, F.mul(a2, D))),
                        F.div(F.mul(s, F.sub(F.neg(t), a3)), F.mul(two, F.mul(a2, D))),
                        F.div(a1, D),
                    ],
                    [F.div(s, D), F.div(s, D), F.div(a3, D)],
                ]
            else:
                rows = [
                    [
                        F.inv(F.mul(four, a1)),
                        F.neg(F.div(a3sq, F.mul(two, a1))),
                        F.neg(F.div(a3, F.mul(two, a1))),
                    ],
                    [
                        F.inv(F.mul(four, a2)),
                        F.neg(F.div(a3sq, F.mul(two, a2))),
                        F.div(a3, F.mul(two, a2)),
                    ],
                    [F.inv(F.mul(two, a3)), a3, 0],
                ]
    A = Matrix.from_rows(F, rows)
    _verify_lemma_postconditions(F, (a1, a2, a3), A)
    return A


def _verify_lemma_postconditions(F: Field, alpha, A: Matrix):
    if F.is_zero(A.det()):
        raise InternalCheckError("lemma matrix is singular")
    P = Matrix.from_rows(
        F,
        [
            [A.at(1, 2), A.at(0, 2), A.at(2, 2)],
            [A.at(1, 1), A.at(0, 1), A.at(2, 1)],
            [A.at(1, 0), A.at(0, 0), A.at(2, 0)],
        ],
    )
    prod = P.mul(A)
    c = prod.at(0, 2)
    if F.is_zero(c):
        raise InternalCheckError("lemma product constant vanishes")
    shape = [[0, 0, c], [c, 0, 0], [0, c, 0]]
    for i in range(3):
        for j in range(3):
            if prod.at(i, j) != F.of(shape[i][j]):
                raise InternalCheckError("lemma product has the wrong shape")
    image = tuple(_dot(F, alpha, A.col(j)) for j in range(3))
    if image not in ((F.one, F.zero, F.zero), (F.zero, F.zero, F.one)):
        raise InternalCheckError("alpha does not normalize to a unit covector")

