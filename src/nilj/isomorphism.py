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
filtration: leading (graded) digits first with table-driven pruning, then the
lower digits, which are solved linearly whenever correction cross-terms
provably vanish (they land below the last nonzero power).  Digits too deep to
influence any product are factored out of the search and re-attached
combinatorially, so automorphism counts are exact.

The engine works in filtration coordinates and emits arrays of matrices.
``search_isomorphism`` maps its single hit back to the original bases and
re-verifies it with ``verify_isomorphism``.  ``_automorphism_array`` maps the
find-all output back in blocks of AUT_BLOCK and re-verifies every block
(multiplicativity on all basis pairs, full rank mod p) before keeping it.

``orbit_census`` works on that verified array directly: the induced action on
H2 class coordinates and the orbit images are batched numpy contractions over
int64 residues, reduced mod p after every contraction (no floating point),
and ``_check_int64`` refuses moduli whose sums could overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .algebra import (
    Algebra,
    _check_int64,
    cached_annihilator,
    invariant_vector,
    power_filtration,
    reduce_mod,
    structure_tensor,
)
from .cohomology import Cocycle, h2, radical as joint_radical
from .errors import (
    CaseNotCoveredError,
    DimensionMismatchError,
    FieldMismatchError,
    NiljError,
    SearchBudgetExceededError,
)
from .fields import Field, same_field
from .linalg import Echelon, Matrix, _dot, _kernel

AUT_CANDIDATE_BUDGET = 10**8
GRADED_TABLE_LIMIT = 2500  # max p^(level-1 dim); the pairing table is quadratic in this
AUT_BLOCK = 1024  # automorphisms per numpy block; bounds the census's working memory


@dataclass(frozen=True)
class Morphism:
    """A claimed algebra map; columns of ``mat`` are images of src basis vectors."""

    src: Algebra
    dst: Algebra
    mat: Matrix


def verify_isomorphism(m: Morphism) -> bool:
    A, B = m.src, m.dst
    same_field(A.field, B.field)
    if A.dim != B.dim:
        raise DimensionMismatchError("isomorphism requires equal dimensions")
    if m.mat.rows != B.dim or m.mat.cols != A.dim:
        raise DimensionMismatchError("morphism matrix shape mismatch")
    return m.mat.is_invertible() and is_homomorphism(m)


def is_homomorphism(m: Morphism) -> bool:
    """Multiplicativity alone (no invertibility requirement)."""
    A, B = m.src, m.dst
    for i in range(A.dim):
        for j in range(i, A.dim):
            if tuple(m.mat.apply(A.basis_product(i, j))) != tuple(
                B.vec_mul(m.mat.col(i), m.mat.col(j))
            ):
                return False
    return True


def invariant_separation(A: Algebra, B: Algebra) -> str:
    """"distinct" certifies non-isomorphism; "inconclusive" decides nothing."""
    same_field(A.field, B.field)
    return "distinct" if invariant_vector(A) != invariant_vector(B) else "inconclusive"


# ---------------------------------------------------------------------------
# filtration model
# ---------------------------------------------------------------------------


class _FilteredModel:
    """Filtration-adapted coordinates of one nilpotent algebra over F_p."""

    def __init__(self, A: Algebra):
        if not A.field.is_prime_field:
            raise FieldMismatchError("search engine needs a prime field")
        self.A = A
        self.p = A.field.p
        F = A.field
        n = A.dim
        powers = power_filtration(A)
        self.m = len(powers)  # nilpotency index: J^m = 0
        levels = []
        rows = []
        for k in range(1, self.m):
            ech = powers[k].echelon()
            for v in powers[k - 1].vectors():
                if ech.add(v):
                    rows.append(list(v))
                    levels.append(k)
        order = sorted(range(n), key=lambda i: levels[i])
        self.levels = tuple(levels[i] for i in order)
        self.basis_rows = Matrix.from_rows(F, [rows[i] for i in order])
        self.to_old = self.basis_rows.transpose()  # columns are the new basis vectors
        self.to_new = self.to_old.inverse()
        self.block = {}
        for k in range(1, self.m):
            idx = [i for i, l in enumerate(self.levels) if l == k]
            self.block[k] = (idx[0], idx[-1] + 1) if idx else (0, 0)
        self.n1 = self.block[1][1]
        # structure constants in filtration coordinates (residue tuples)
        self.sc = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                w = A.vec_mul(self.to_old.col(i), self.to_old.col(j))
                v = tuple(self.to_new.apply(w))
                self.sc[i][j] = v
                self.sc[j][i] = v
        self._quotients = {}
        self._exprs = self._defining_expressions()
        self.full = self.quotient(self.m)  # the same algebra in filtration coordinates

    def block_dims(self) -> tuple:
        return tuple(self.block[k][1] - self.block[k][0] for k in range(1, self.m))

    def slice_of(self, vec, k) -> tuple:
        lo, hi = self.block[k]
        return tuple(vec[lo:hi])

    def graded_component(self, i, j) -> tuple:
        """Level-(li+lj) block of the product of filtration basis i and j."""
        k = self.levels[i] + self.levels[j]
        if k >= self.m:
            return ()
        return self.slice_of(self.sc[i][j], k)

    def _defining_expressions(self):
        """Graded expression of each level>=2 coordinate via lower-level products."""
        F = self.A.field
        exprs = {}
        for k in range(2, self.m):
            lo, hi = self.block[k]
            if lo == hi:
                continue
            pairs = [
                (a, b)
                for a in range(self.A.dim)
                for b in range(a, self.A.dim)
                if self.levels[a] + self.levels[b] == k
            ]
            cols = [self.graded_component(a, b) for (a, b) in pairs]
            width = hi - lo
            mat = Matrix.from_rows(F, [[col[r] for col in cols] for r in range(width)])
            for t in range(width):
                rhs = [F.one if r == t else F.zero for r in range(width)]
                sol = mat.solve(rhs)
                if sol is None:
                    raise NiljError("filtration block is not generated by products")
                exprs[lo + t] = [(c, a, b) for c, (a, b) in zip(sol, pairs) if c]
        return exprs

    def quotient(self, L: int) -> Algebra:
        """The algebra on coordinates of level < L with truncated products."""
        L = min(L, self.m)
        if L in self._quotients:
            return self._quotients[L]
        keep = [i for i, l in enumerate(self.levels) if l < L]
        products = {}
        for ai, i in enumerate(keep):
            for aj in range(ai, len(keep)):
                j = keep[aj]
                terms = {bk: self.sc[i][j][k] for bk, k in enumerate(keep) if self.sc[i][j][k]}
                if terms:
                    products[(ai, aj)] = terms
        q = Algebra(self.A.field, tuple(f"u{i}" for i in keep), products)
        self._quotients[L] = q
        return q


@lru_cache(maxsize=None)
def _model(A: Algebra) -> _FilteredModel:
    return _FilteredModel(A)


# ---------------------------------------------------------------------------
# fast modular product engine and forced closure
# ---------------------------------------------------------------------------


class _FastAlgebra:
    """Raw residue arithmetic for one F_p algebra (hot search loops only)."""

    __slots__ = ("field", "p", "n", "items", "rows")

    def __init__(self, A: Algebra):
        self.field = A.field
        self.p = A.field.p
        self.n = A.dim
        items = []
        rows = {}
        for (i, j), terms in A.products().items():
            row = tuple(sorted(terms.items()))
            items.append((i, j, row))
            rows[(i, j)] = row
        self.items = tuple(items)
        self.rows = rows

    def mul(self, x, y):
        p = self.p
        out = [0] * self.n
        for i, j, terms in self.items:
            c = x[i] * y[j]
            if i != j:
                c += x[j] * y[i]
            c %= p
            if c:
                for k, v in terms:
                    out[k] = (out[k] + c * v) % p
        return out


@lru_cache(maxsize=None)
def _fast(A: Algebra) -> _FastAlgebra:
    return _FastAlgebra(A)


def _closure_fast(fa: _FastAlgebra, fb: _FastAlgebra, gen_images, collect_defects=False):
    """Forced multiplicative extension of generator images, in residues.

    Source vectors multiply in fa, images in fb.  Returns (columns, defects)
    where columns[i] is the forced image of unit coordinate i; columns is None
    when the generators fail to generate.  The vector-side trajectory depends
    only on fa, so with ``collect_defects`` the defect layout is identical
    across calls that differ only in the images.
    """
    n = fa.n
    # rows (vector | image); once the rank is n, row i is (e_i | image of e_i)
    ech = Echelon(fa.field, 2 * n, key=n)
    defects = []

    def defect():
        """Record the image part of a dependent pair's residual; True if it rules out."""
        w = ech.residual[n:]
        defects.extend(w)
        return any(w) and not collect_defects

    frontier = []
    for g, img in enumerate(gen_images):
        vec = tuple(1 if i == g else 0 for i in range(n))
        if not ech.add(vec + tuple(img)) and defect():
            return None, defects
        frontier.append((vec, tuple(img)))
    pool = list(frontier)
    while frontier and ech.rank < n:
        new = []
        for v1, w1 in pool:
            for v2, w2 in frontier:
                pv = tuple(fa.mul(v1, v2))
                pw = tuple(fb.mul(w1, w2))
                if ech.add(pv + pw):
                    new.append((pv, pw))
                elif defect():
                    return None, defects
        if not new:
            break
        pool.extend(new)
        frontier = new
    if ech.rank < n:
        return None, defects
    return [tuple(row[n:]) for row in ech.rows], defects


def _pair_defects_fast(fa: _FastAlgebra, fb: _FastAlgebra, cols):
    p = fa.p
    n = fa.n
    out = []
    for i in range(n):
        ci = cols[i]
        for j in range(i, n):
            rhs = fb.mul(ci, cols[j])
            terms = fa.rows.get((i, j))
            if terms:
                lhs = [0] * n
                for k, v in terms:
                    col = cols[k]
                    for t in range(n):
                        if col[t]:
                            lhs[t] = (lhs[t] + v * col[t]) % p
                out.extend((a - b) % p for a, b in zip(lhs, rhs))
            else:
                out.extend((-b) % p for b in rhs)
    return out


def _int_invertible(cols, field: Field) -> bool:
    ech = Echelon(field, len(cols))
    return all(ech.add(col) for col in cols)


def _forced_candidate_fast(fa: _FastAlgebra, fb: _FastAlgebra, gen_images):
    """Forced-extension columns when they form an isomorphism, else None."""
    cols, defects = _closure_fast(fa, fb, gen_images)
    if cols is None or any(defects):
        return None
    if not _int_invertible(cols, fa.field):
        return None
    if any(_pair_defects_fast(fa, fb, cols)):
        return None
    return cols


# ---------------------------------------------------------------------------
# graded stage
# ---------------------------------------------------------------------------


class _GradedTables:
    """numpy lookup tables for the target's graded pairings."""

    def __init__(self, M: _FilteredModel):
        p, s = M.p, M.n1
        if p**s > GRADED_TABLE_LIMIT:
            raise SearchBudgetExceededError(
                f"graded table of size {p}^{s} exceeds the supported budget"
            )
        self.p, self.s = p, s
        self.digits1 = _digit_table(p, s)
        lo2, hi2 = M.block.get(2, (0, 0))
        n2 = hi2 - lo2
        self.n2 = n2
        lo3, hi3 = M.block.get(3, (0, 0))
        n3 = hi3 - lo3
        self.n3 = n3
        if n2:
            G = np.zeros((s, s, n2), dtype=np.int64)
            for a in range(s):
                for b in range(s):
                    comp = M.graded_component(a, b)
                    for t in range(n2):
                        G[a, b, t] = comp[t]
            prod = np.einsum("ua,vb,abt->uvt", self.digits1, self.digits1, G) % p
            self.digits2 = _digit_table(p, n2)
            w2 = p ** np.arange(n2, dtype=np.int64)
            self.p2code = prod @ w2
        else:
            self.digits2 = None
            self.p2code = np.zeros((p**s, p**s), dtype=np.int64)
        if n2 and n3:
            B12 = np.zeros((s, n2, n3), dtype=np.int64)
            for a in range(s):
                for b in range(n2):
                    vec = M.sc[a][lo2 + b]
                    for t in range(n3):
                        B12[a, b, t] = vec[lo3 + t]
            prod = np.einsum("ua,vb,abt->uvt", self.digits1, self.digits2, B12) % p
            w3 = p ** np.arange(n3, dtype=np.int64)
            self.p12code = prod @ w3
        else:
            self.p12code = None


def _digit_table(p: int, width: int):
    return _digits(np.arange(p**width, dtype=np.int64), p, width)


def _digits(codes, p: int, width: int):
    """Base-p digits of each code, least significant first: a (len, width) array."""
    digits = np.empty((len(codes), width), dtype=np.int64)
    tmp = codes.copy()
    for t in range(width):
        digits[:, t] = tmp % p
        tmp //= p
    return digits


@lru_cache(maxsize=None)
def _tables(A: Algebra) -> _GradedTables:
    return _GradedTables(_model(A))


def _graded_level1_solutions(MA: _FilteredModel, MB: _FilteredModel):
    """Yield all graded-compatible level-1 assignments as lists of image vectors.

    Vectorized necessary-condition filters (zero/nonzero products at graded
    levels 2 and 3) prune candidate arrays; _finish_graded remains the full
    per-leaf check, so the filters cannot cost completeness.
    """
    p, s = MA.p, MA.n1
    TB = _tables(MB.A)
    lo2, hi2 = MA.block.get(2, (0, 0))
    n2 = hi2 - lo2
    feed2 = set()
    for coord in range(lo2, hi2):
        for _c, a, b in MA._exprs[coord]:
            feed2.add(a)
            feed2.add(b)
    density = [0] * s
    for i in range(s):
        for j in range(MA.A.dim):
            if any(MA.sc[i][j]):
                density[i] += 1
    order = sorted(range(s), key=lambda i: (i not in feed2, -density[i], i))
    pair_nonzero = {}
    for a in range(s):
        for b in range(s):
            pair_nonzero[(a, b)] = any(MA.graded_component(a, b))
    # level-(1,2) graded statuses: gen g against each block-2 coordinate
    status12 = None
    if n2 and TB.p12code is not None:
        status12 = [
            [any(MA.graded_component(g, lo2 + v)) for v in range(n2)] for g in range(s)
        ]
    all_codes = np.arange(p**s, dtype=np.int64)

    def compute_l2(assign):
        """Encoded images of A's block-2 coordinates, or None when singular."""
        cols = []
        for coord in range(lo2, hi2):
            acc = np.zeros(n2, dtype=np.int64)
            for c, a, b in MA._exprs[coord]:
                acc += c * TB.digits2[TB.p2code[assign[a], assign[b]]]
            cols.append([int(x) for x in acc % p])
        if not _int_invertible(cols, MA.A.field):
            return None
        weights = [p**t for t in range(n2)]
        return [sum(w * x for w, x in zip(weights, col)) for col in cols]

    def scalar12_ok(g, code, l2enc):
        for v in range(n2):
            val = int(TB.p12code[code, l2enc[v]])
            if status12[g][v]:
                if val == 0:
                    return False
            elif val != 0:
                return False
        return True

    def rec(depth, assign, l2enc):
        if depth == s:
            imgs = [tuple(int(x) for x in TB.digits1[assign[g]]) for g in range(s)]
            if _finish_graded(MA, MB, imgs) is not None:
                yield imgs
            return
        g = order[depth]
        cand = all_codes
        if n2:
            sq = TB.p2code[cand, cand]
            cand = cand[sq != 0] if pair_nonzero[(g, g)] else cand[sq == 0]
            for prev in order[:depth]:
                row = TB.p2code[assign[prev], cand]
                cand = cand[row != 0] if pair_nonzero[(prev, g)] else cand[row == 0]
        if l2enc is not None and status12 is not None:
            for v in range(n2):
                col = TB.p12code[cand, l2enc[v]]
                cand = cand[col != 0] if status12[g][v] else cand[col == 0]
        for code in cand.tolist():
            assign[g] = code
            l2e = l2enc
            ok = True
            if l2e is None and feed2 and feed2 <= set(assign):
                l2e = compute_l2(assign)
                if l2e is None:
                    ok = False
                elif status12 is not None:
                    for g2 in assign:
                        if not scalar12_ok(g2, assign[g2], l2e):
                            ok = False
                            break
            if ok:
                yield from rec(depth + 1, assign, l2e)
            del assign[g]

    yield from rec(0, {}, None)


def _finish_graded(MA: _FilteredModel, MB: _FilteredModel, imgs1):
    """Complete a level-1 assignment to graded block maps; None when inconsistent."""
    F = MA.A.field
    p = MA.p
    s = MA.n1
    L = {1: [list(v) for v in imgs1]}
    if not _int_invertible(imgs1, F):
        return None

    def img_of(coord):
        lev = MA.levels[coord]
        lo, _ = MA.block[lev]
        return L[lev][coord - lo]

    def graded_mul_B(u, lu, v, lv):
        k = lu + lv
        if k >= MB.m:
            return []
        blo, bhi = MB.block[k]
        out = [0] * (bhi - blo)
        if blo == bhi:
            return out
        ulo, _ = MB.block[lu]
        vlo, _ = MB.block[lv]
        for a, ca in enumerate(u):
            if not ca:
                continue
            for b, cb in enumerate(v):
                if not cb:
                    continue
                comp = MB.sc[ulo + a][vlo + b]
                for t in range(bhi - blo):
                    if comp[blo + t]:
                        out[t] = (out[t] + ca * cb * comp[blo + t]) % p
        return out

    for k in range(2, MA.m):
        lo, hi = MA.block[k]
        if lo == hi:
            L[k] = []
            continue
        cols = []
        for coord in range(lo, hi):
            acc = [0] * (MB.block[k][1] - MB.block[k][0])
            for c, a, b in MA._exprs[coord]:
                term = graded_mul_B(img_of(a), MA.levels[a], img_of(b), MA.levels[b])
                acc = [(x + c * y) % p for x, y in zip(acc, term)]
            cols.append(acc)
        L[k] = cols
        if not _int_invertible(cols, F):
            return None
    for i in range(MA.A.dim):
        li = MA.levels[i]
        for j in range(i, MA.A.dim):
            lj = MA.levels[j]
            k = li + lj
            if k >= MA.m:
                continue
            blo, bhi = MA.block[k]
            if blo == bhi:
                continue
            expected = MA.graded_component(i, j)
            target = [0] * (bhi - blo)
            for t, c in enumerate(expected):
                if c:
                    col = L[k][t]
                    target = [(x + c * y) % p for x, y in zip(target, col)]
            if graded_mul_B(img_of(i), li, img_of(j), lj) != target:
                return None

    # off-graded necessary conditions: the deeper component of each pair
    # product can only be adjusted by corrections, which span a computable
    # subspace; an actual isomorphism's deviation must lie inside it.
    n = MA.A.dim
    fbB = _fast(MB.full)

    def lift_of(coord):
        lev = MA.levels[coord]
        blo, bhi = MB.block[lev]
        vec = [0] * n
        img = img_of(coord)
        for t in range(bhi - blo):
            vec[blo + t] = img[t]
        return vec

    lifts = [lift_of(i) for i in range(n)]
    for i in range(n):
        li = MA.levels[i]
        for j in range(i, n):
            lj = MA.levels[j]
            if li + lj >= MA.m:
                continue
            prod = fbB.mul(lifts[i], lifts[j])
            for kp in range(li + lj + 1, MA.m):
                blo, bhi = MB.block[kp]
                if blo == bhi:
                    continue
                # a nonzero product coordinate strictly below the tested level
                # carries free deeper digits into this block: span is full
                if any(
                    MA.sc[i][j][t] and MA.levels[t] < kp
                    for t in range(n)
                ):
                    continue
                expected = tuple(MA.sc[i][j][blo:bhi])
                target = [0] * (bhi - blo)
                for t, c in enumerate(expected):
                    if c:
                        col = L[kp][t]
                        target = [(x + c * y) % p for x, y in zip(target, col)]
                delta = [(t - prod[blo + r]) % p for r, t in enumerate(target)]
                if not any(delta):
                    continue
                span = Echelon(F, bhi - blo)
                for t in range(n):
                    if MA.levels[t] >= li + 1:
                        w = fbB.mul([1 if r == t else 0 for r in range(n)], lifts[j])
                        span.add(w[blo:bhi])
                    if MA.levels[t] >= lj + 1:
                        w = fbB.mul(lifts[i], [1 if r == t else 0 for r in range(n)])
                        span.add(w[blo:bhi])
                for t in range(n):
                    if MA.levels[t] < li + 1:
                        continue
                    for u in range(n):
                        if MA.levels[u] >= lj + 1:
                            w = fbB.mul(
                                [1 if r == t else 0 for r in range(n)],
                                [1 if r == u else 0 for r in range(n)],
                            )
                            span.add(w[blo:bhi])
                if any(span.reduce(delta)):
                    return None
    return L


# ---------------------------------------------------------------------------
# lifting stages
# ---------------------------------------------------------------------------


def _lift_candidates(MA: _FilteredModel, MB: _FilteredModel, imgs1, find_all):
    """Complete level-1 images to full verified maps in filtration coordinates."""
    p = MA.p
    n = MA.A.dim
    s = MA.n1
    m = MA.m
    faA = _fast(MA.full)
    fbB = _fast(MB.full)
    base = [list(v) + [0] * (n - s) for v in imgs1]
    relevant = [k for k in range(2, m - 1) if MB.block[k][0] != MB.block[k][1]]

    def stage(k_idx, gens):
        if k_idx >= len(relevant):
            cols = _forced_candidate_fast(faA, fbB, [tuple(v) for v in gens])
            if cols is not None:
                yield cols
            return
        K = relevant[k_idx]
        if 2 * K >= m:
            yield from _linear_stage(MA, MB, gens, relevant[k_idx:], find_all)
            return
        lo, hi = MB.block[K]
        slots = [(g, c) for g in range(s) for c in range(lo, hi)]
        fqA = _fast(MA.quotient(K + 2))
        fqB = _fast(MB.quotient(K + 2))
        keep = [i for i, l in enumerate(MB.levels) if l < K + 2]
        for combo in iproduct(range(p), repeat=len(slots)):
            gens2 = [list(v) for v in gens]
            for (g, c), val in zip(slots, combo):
                gens2[g][c] = val
            trunc = [tuple(v[i] for i in keep) for v in gens2]
            if _forced_candidate_fast(fqA, fqB, trunc) is None:
                continue
            yield from stage(k_idx + 1, gens2)

    yield from stage(0, base)


def _linear_stage(MA, MB, gens, levels_left, find_all):
    """Solve all remaining relevant digits at once.

    Valid exactly when every cross-product of two corrections lands in a
    vanishing power (2K >= m), making the multiplicativity defect an affine
    function of the digits; the defect is interpolated from T+1 evaluations
    and the linear system is solved over F_p.
    """
    p = MA.p
    s = MA.n1
    faA = _fast(MA.full)
    fbB = _fast(MB.full)
    slots = []
    for g in range(s):
        for k in levels_left:
            lo, hi = MB.block[k]
            for c in range(lo, hi):
                slots.append((g, c))
    T = len(slots)

    def build(tvals):
        gens2 = [list(v) for v in gens]
        for (g, c), val in zip(slots, tvals):
            gens2[g][c] = (gens2[g][c] + val) % p
        return [tuple(v) for v in gens2]

    def full_defect(tvals):
        cols, defects = _closure_fast(faA, fbB, build(tvals), collect_defects=True)
        if cols is None:
            return None, None
        return defects + _pair_defects_fast(faA, fbB, cols), cols

    d0, cols0 = full_defect((0,) * T)
    if d0 is None:
        return
    if T == 0:
        cols = _forced_candidate_fast(faA, fbB, build(()))
        if cols is not None:
            yield cols
        return
    cols = []
    for t in range(T):
        unit = tuple(1 if i == t else 0 for i in range(T))
        dt, _ = full_defect(unit)
        if dt is None or len(dt) != len(d0):
            raise NiljError("defect layout changed across linear-stage evaluations")
        cols.append([(a - b) % p for a, b in zip(dt, d0)])
    system = Echelon(MA.A.field, T + 1, key=T)  # rows (defect slopes | -d0)
    for r in range(len(d0)):
        row = [cols[t][r] for t in range(T)] + [(-d0[r]) % p]
        if not system.add(row) and system.residual[T]:
            return  # inconsistent
    part, nullbasis = system.solution(), _kernel(MA.A.field, T, system.pivots, system.rows)
    solutions = [tuple(part)]
    if find_all and nullbasis:
        combos = set()
        for coeffs in iproduct(range(p), repeat=len(nullbasis)):
            vec = list(part)
            for c, bv in zip(coeffs, nullbasis):
                if c:
                    vec = [(a + c * b) % p for a, b in zip(vec, bv)]
            combos.add(tuple(vec))
        solutions = sorted(combos)
    for t in solutions:
        found = _forced_candidate_fast(faA, fbB, build(t))
        if found is not None:
            yield found


def _free_digit_expansion(MA: _FilteredModel, MB: _FilteredModel, cols, find_all):
    """Re-attach digits that cannot influence any product (levels k with J^{k+1} = 0).

    Yields (k, n, n) arrays of engine-coordinate matrices, at most AUT_BLOCK at
    a time: the core alone, or with ``find_all`` every setting of the free digits.
    """
    core = np.array(cols, dtype=np.int64).T  # columns are the images
    slots = []
    if find_all:
        for k in range(max(2, MA.m - 1), MA.m):
            lo, hi = MB.block[k]
            for g in range(MA.n1):
                for c in range(lo, hi):
                    slots.append((g, c))
    if not slots:
        yield core[None]
        return
    p = MA.p
    rows = [c for _g, c in slots]
    gens = [g for g, _c in slots]
    total = p ** len(slots)
    for start in range(0, total, AUT_BLOCK):
        codes = np.arange(start, min(start + AUT_BLOCK, total), dtype=np.int64)
        digits = _digits(codes, p, len(slots))
        out = np.repeat(core[None], len(digits), axis=0)
        out[:, rows, gens] = (out[:, rows, gens] + digits) % p
        yield out


def _search(A: Algebra, B: Algebra, find_all):
    """All (or the first) isomorphisms A -> B as engine-coordinate matrix arrays.

    Each yielded (k, n, n) array holds matrices in filtration coordinates;
    ``_model(B).to_old @ M @ _model(A).to_new`` maps one back to the original
    bases.
    """
    MA, MB = _model(A), _model(B)
    if MA.m != MB.m or MA.block_dims() != MB.block_dims():
        return
    if MA.p ** (MA.n1 * MA.n1) > AUT_CANDIDATE_BUDGET:
        raise SearchBudgetExceededError(
            f"{MA.p}^({MA.n1}^2) graded candidates exceed the search budget"
        )
    for imgs1 in _graded_level1_solutions(MA, MB):
        for cols in _lift_candidates(MA, MB, imgs1, find_all):
            yield from _free_digit_expansion(MA, MB, cols, find_all)
            if not find_all:
                return


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
    if Ap.dim != Bp.dim:
        return None
    for engine in _search(Ap, Bp, find_all=False):
        full = Matrix.from_rows(field, engine[0].tolist())
        mat = _model(Bp).to_old.mul(full).mul(_model(Ap).to_new)
        m = Morphism(Ap, Bp, mat)
        if not verify_isomorphism(m):
            raise NiljError("search produced an unverified candidate")
        return m
    return None


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
        pivot = M[b, src]
        M[b, src] = M[b, dst]
        pivot = pivot * _inv_mod(pivot[:, c], p)[:, None] % p
        M[b, dst] = pivot
        f = M[b, :, c]
        f[np.arange(len(b)), dst] = 0
        M[b] = (M[b] - f[:, :, None] * pivot[:, None, :]) % p
        rank[b] += 1
    return M, rank


def _verify_automorphism_block(C, phis, p: int):
    """Raise unless every phis[b] (columns are basis images) is an automorphism.

    Multiplicativity phi(e_i e_j) = phi(e_i) phi(e_j) is compared for all
    basis pairs at once; invertibility is a full rank mod p.
    """
    b, n, _ = phis.shape
    # phi(e_i e_j)[t] = sum_k phi[t, k] C[i, j, k], laid out [b, t, i, j]
    lhs = (phis @ C.reshape(n * n, n).T % p).reshape(b, n, n, n)
    # phi(e_i) phi(e_j)[t] = sum_{a,c} phi[a, i] phi[c, j] C[a, c, t]
    half = (phis.transpose(0, 2, 1) @ C.reshape(n, n * n) % p).reshape(b, n, n, n)  # [b, i, c, t]
    rhs = half.transpose(0, 1, 3, 2) @ phis[:, None] % p  # [b, i, t, j]
    if not np.array_equal(lhs, rhs.transpose(0, 2, 1, 3)):
        raise NiljError("enumerated automorphism is not multiplicative")
    _, rank = _rref_mod_p(phis, p)
    if (rank < n).any():
        raise NiljError("enumerated automorphism is singular")


def _unique_rows(rows):
    """Distinct rows of a 2-D array in lexicographic order, like np.unique(axis=0)."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[keep]


def _automorphism_array(A: Algebra, field: Field):
    """Every automorphism of A over F_p as a sorted, deduplicated (N, n, n) array.

    Rows are ordered as ``sorted(mat.data)`` orders the matrices.  The
    search's engine-coordinate output is mapped back to the original basis
    AUT_BLOCK matrices at a time, and each block is re-verified before it is
    kept in a small residue dtype.
    """
    Ap, _ = _prepare_pair(A, A, field)
    p, n = field.p, Ap.dim
    powers = power_filtration(Ap)
    sq_dim = powers[1].dim if len(powers) > 1 else 0
    g = n - sq_dim
    if p ** (g * n) > AUT_CANDIDATE_BUDGET:
        raise SearchBudgetExceededError(
            f"{p}^({g}*{n}) candidate images exceed the enumeration budget"
        )
    _check_int64(p, n)
    M = _model(Ap)
    to_old = np.array(M.to_old.row_list(), dtype=np.int64)
    to_new = np.array(M.to_new.row_list(), dtype=np.int64)
    C, _ = structure_tensor(Ap)
    dtype = np.int16 if p <= 2**15 else np.int64

    def convert(engine):
        phis = (to_old @ engine % p) @ to_new % p
        _verify_automorphism_block(C, phis, p)
        return phis.astype(dtype)

    kept, pending, count = [], [], 0
    for engine in _search(Ap, Ap, find_all=True):
        pending.append(engine)
        count += len(engine)
        while count >= AUT_BLOCK:
            stack = np.concatenate(pending)
            kept.append(convert(stack[:AUT_BLOCK]))
            pending, count = [stack[AUT_BLOCK:]], count - AUT_BLOCK
    if count:
        kept.append(convert(np.concatenate(pending)))
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
    orbit_members: tuple  # frozensets of canonical bases, aligned with representatives

    def orbit_of(self, canonical) -> int:
        for idx, members in enumerate(self.orbit_members):
            if canonical in members:
                return idx
        raise NiljError("subspace is not in the admissible census")


def _canonical_subspaces(field: Field, h: int, r: int):
    """Canonical RREF bases of all r-dimensional subspaces of F_p^h."""
    p = field.p
    if r == 1:
        for lead in range(h):
            for tail in iproduct(range(p), repeat=h - lead - 1):
                yield ((0,) * lead + (1,) + tail,)
        return
    if r == 2:
        for p1 in range(h):
            for p2 in range(p1 + 1, h):
                free1 = [c for c in range(p1 + 1, h) if c != p2]
                free2 = [c for c in range(p2 + 1, h)]
                for vals1 in iproduct(range(p), repeat=len(free1)):
                    for vals2 in iproduct(range(p), repeat=len(free2)):
                        row1 = [0] * h
                        row2 = [0] * h
                        row1[p1] = 1
                        row2[p2] = 1
                        for c, v in zip(free1, vals1):
                            row1[c] = v
                        for c, v in zip(free2, vals2):
                            row2[c] = v
                        yield (tuple(row1), tuple(row2))
        return
    raise NiljError("only r in {1, 2} is supported")


def _canonicalize(field: Field, rows):
    red, rank, _ = Matrix.from_rows(field, [list(r) for r in rows]).rref()
    return tuple(red.row(i) for i in range(rank))


def orbit_census(A: Algebra, field: Field, r: int) -> OrbitReport:
    """Admissible r-subspaces of H2 partitioned into automorphism orbits.

    Admissibility is the joint condition: the common radical of the
    subspace's cocycles meets the annihilator trivially.
    """
    if r not in (1, 2):
        raise NiljError("census supports r in {1, 2}")
    Ap, _ = _prepare_pair(A, A, field)
    spaces = h2(Ap)
    hdim = len(spaces.h2_reps)
    ann = cached_annihilator(Ap)
    autos = _automorphism_array(Ap, field)
    admissible = []
    if hdim >= r:
        for rows in _canonical_subspaces(field, hdim, r):
            thetas = [spaces.cocycle_from_class(row) for row in rows]
            if joint_radical(thetas).intersect(ann).is_zero():
                admissible.append(_canonicalize(field, rows))
    admissible_set = set(admissible)
    actions = _induced_actions(spaces, autos) if admissible else None
    unseen = set(admissible_set)
    orbits = []
    for rows in admissible:
        if rows not in unseen:
            continue
        # the deduplicated actions form the full induced group, so the orbit
        # is the one-pass image of the representative
        orbit = _orbit_images(actions, rows, field.p)
        for moved in orbit:
            if moved not in admissible_set:
                raise NiljError("orbit left the admissible census")
        if rows not in orbit:
            raise NiljError("orbit image lost its own representative")
        unseen -= orbit
        orbits.append((min(orbit), len(orbit), frozenset(orbit)))
    orbits.sort(key=lambda o: o[0])
    return OrbitReport(
        field=field,
        grassmann_r=r,
        total_admissible=len(admissible),
        orbit_count=len(orbits),
        orbit_representatives=tuple(o[0] for o in orbits),
        orbit_sizes=tuple(o[1] for o in orbits),
        aut_group_order=len(autos),
        orbit_members=tuple(o[2] for o in orbits),
    )


def _induced_actions(spaces, autos):
    """The distinct matrices by which automorphisms act on H2 class coordinates.

    Row t, column h of an action holds class coordinate t of phi^T R_h phi,
    where R_h is the h-th H2 representative.
    """
    A = spaces.algebra
    field, n = A.field, A.dim
    p = field.p
    hdim = len(spaces.h2_reps)
    # fixed extractor: invert [h2 reps | b2 basis | complement] once, so each
    # class-coordinate read is a plain matrix apply
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    _check_int64(p, len(pairs))
    cols = [list(c.upper()) for c in spaces.h2_reps] + [list(v) for v in spaces.b2.vectors()]
    ech = spaces.z2.echelon()  # reps and b2 span z2
    for t in range(len(pairs)):
        unit = [1 if k == t else 0 for k in range(len(pairs))]
        if ech.add(unit):
            cols.append(unit)
    T = Matrix.from_rows(field, [[cols[c][r] for c in range(len(cols))] for r in range(len(pairs))])
    extractor = np.array(T.inverse().row_list()[:hdim], dtype=np.int64)
    reps = np.array([c.mat.row_list() for c in spaces.h2_reps], dtype=np.int64)
    upper = np.triu_indices(n)  # row-major, the order of ``pairs``
    found = []
    for start in range(0, len(autos), AUT_BLOCK):
        phi = autos[start:start + AUT_BLOCK, None].astype(np.int64)
        # congruence phi^T R phi, reduced after each contraction
        acted = (phi.transpose(0, 1, 3, 2) @ reps % p) @ phi % p
        coords = acted[:, :, upper[0], upper[1]] @ extractor.T % p  # [b, h, t]
        action = coords.transpose(0, 2, 1).reshape(len(phi), -1)
        found.append(_unique_rows(action.astype(autos.dtype)))
    distinct = _unique_rows(np.concatenate(found))
    return distinct.reshape(-1, hdim, hdim).astype(np.int64)


def _orbit_images(actions, rows, p: int) -> set:
    """Canonical bases of the images of the subspace spanned by ``rows``."""
    R = np.array(rows, dtype=np.int64)
    r, h = R.shape
    images = []
    for start in range(0, len(actions), AUT_BLOCK):
        moved = R @ actions[start:start + AUT_BLOCK].transpose(0, 2, 1) % p
        reduced, _ = _rref_mod_p(moved, p)
        images.append(_unique_rows(reduced.reshape(len(moved), -1)))
    distinct = _unique_rows(np.concatenate(images)).reshape(-1, r, h)
    return {tuple(tuple(row) for row in mat if any(row)) for mat in distinct.tolist()}


def class_line(spaces, theta: Cocycle, field: Field):
    """Canonical line of theta's cohomology class, for census lookups."""
    coords = spaces.class_coords(theta)
    if coords is None or not any(coords):
        raise NiljError("cocycle has trivial class")
    return _canonicalize(field, [coords])


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
        raise NiljError("lemma matrix is singular")
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
        raise NiljError("lemma product constant vanishes")
    shape = [[0, 0, c], [c, 0, 0], [0, c, 0]]
    for i in range(3):
        for j in range(3):
            if prod.at(i, j) != F.of(shape[i][j]):
                raise NiljError("lemma product has the wrong shape")
    image = tuple(_dot(F, alpha, A.col(j)) for j in range(3))
    if image not in ((F.one, F.zero, F.zero), (F.zero, F.zero, F.one)):
        raise NiljError("alpha does not normalize to a unit covector")

