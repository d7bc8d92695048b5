"""The three benchmark workloads: seeded inputs, one runner per item, and the
record each item's result is checked against.

An *item* is the unit the latency metrics are computed over.  ``build(seed)``
makes every input from the seed alone; ``run(item)`` hands the program only
those inputs and returns a JSON-comparable record.  The nilj functions are
called through their modules (``algebra.invariant_vector``, not a name bound
here) so that the tracing wrappers see every call.

* ``catalog``: one item per catalog instance over Q, the 90 sampled ones plus
  seeded extra bindings of the six parametric families.  Loads Fraction
  elimination, ``cohomology`` and ``extension``; the search engine stays idle.
* ``separation``: one item per pair of dimension-5 instances, graded exactly as
  ``nilj.reports.separation_report`` grades it.  The pairs are a systematic
  seeded sample of the 2,415-pair matrix along the cost order in ``pair_costs.json``.
  Loads Q fingerprints (median pair) and exhaustive F_p search (tail).
* ``census``: one ``orbit_census`` over F_5 per parent and Grassmann rank, on a
  seeded random change of basis of the parent.  Loads find-all automorphism
  enumeration, the induced action, and many small F_p eliminations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from nilj import algebra, catalog, cohomology, extension, isomorphism, linalg
from nilj.errors import InvalidCocycleError
from nilj.fields import QQ, Field

F5 = Field(5)
SEARCH_FIELDS = (Field(5), Field(7))

# -- catalog -----------------------------------------------------------------------

EXTRA_BINDINGS_PER_FAMILY = 2
# candidate parameter values for the seeded extras; the reference file covers
# every binding they can form, so any seed is checkable
EXTRA_VALUES = ("3", "-2", "1/3", "-1/2", "3/2", "2/3", "-3", "1/4", "4", "-1/3", "5/2", "-3/2")
RANDOM_COCYCLES = 10  # per dimension <= 4 item: cocycles that must extend, non-cocycles refused


def extra_binding_pool(name):
    """Every admissible extra binding the seed may pick for a parametric family."""
    entry = catalog.get(name)
    sampled = catalog.sample_bindings(name)
    pool = []
    for combo in product(EXTRA_VALUES, repeat=len(entry.params)):
        b = dict(zip(entry.params, combo))
        if b in sampled or any(Fraction(b[p]) == Fraction(bad) for p, bad in entry.excluded):
            continue
        pool.append(b)
    return pool


@dataclass(frozen=True)
class CatalogItem:
    key: str  # instance label
    name: str
    binding: dict
    A: algebra.Algebra
    rng_seed: int  # draws the random F_5 cocycles of dimension <= 4 items


def catalog_instances(seed: int):
    """(name, binding) of every catalog item for this seed, in catalog order."""
    rng = random.Random(f"catalog:{seed}")
    out = []
    for name in catalog.names():
        out += [(name, b) for b in catalog.sample_bindings(name)]
        if catalog.get(name).params:
            out += [(name, b) for b in rng.sample(extra_binding_pool(name), EXTRA_BINDINGS_PER_FAMILY)]
    return out


def build_catalog(seed: int):
    rng = random.Random(f"catalog-cocycles:{seed}")
    return [
        CatalogItem(catalog.instance_label(n, b), n, b, catalog.instantiate(n, b), rng.getrandbits(64))
        for n, b in catalog_instances(seed)
    ]


def run_catalog(item: CatalogItem) -> dict:
    A = item.A
    powers = algebra.power_filtration(A)
    spaces = cohomology.h2(A)
    fp = algebra.invariant_vector(A)
    rec = {
        "jordan": algebra.jordan_identity_holds(A),
        "assoc": algebra.is_associative(A),
        "power_dims": [s.dim for s in powers],
        "ann_dim": algebra.annihilator(A).dim,
        "fingerprint": [fp.dim, list(fp.power_dims), fp.nil_index, fp.ann_dim,
                        fp.ann_meet_sq_dim, fp.der_dim, fp.assoc],
        "z2": spaces.z2.dim,
        "b2": spaces.b2.dim,
        "h2": spaces.h2_dim,
    }
    if A.dim == 5:
        rec["lineage"] = _lineage_round_trip(item)
    else:
        rec["random_cocycles"] = _random_cocycles(A, random.Random(item.rng_seed))
    return rec


def _lineage_round_trip(item: CatalogItem) -> str:
    """catalog.lineage -> central_extend must rebuild the instance; reconstruct
    -> central_extend must give it back through the section map."""
    parent, cocycles = catalog.lineage(item.name, item.binding)
    new_names = catalog.get(item.name).basis[parent.dim:]
    try:
        rebuilt = extension.central_extend(extension.ExtensionSpec.of(parent, cocycles, new_names))
        forward = "equal" if rebuilt == item.A else "differs"
    except InvalidCocycleError:
        forward = "not-a-cocycle"
    base, back_cocycles = extension.reconstruct(item.A)
    try:
        E = extension.central_extend(extension.ExtensionSpec.of(base, back_cocycles))
        S = extension.section_morphism_matrix(item.A, base)
        back = "isomorphic" if isomorphism.verify_isomorphism(isomorphism.Morphism(E, item.A, S)) \
            else "not-isomorphic"
    except InvalidCocycleError:
        back = "not-a-cocycle"
    return f"{forward}/{back} base_dim={base.dim}"


def _random_cocycles(A, rng) -> list:
    """Random elements of Z^2 over F_5 must extend to Jordan algebras; random
    non-cocycles must be refused.  Returns [extended Jordan, refused]."""
    A5 = algebra.reduce_mod(A, 5)
    spaces = cohomology.h2(A5)
    basis = spaces.z2.vectors()
    ambient = spaces.z2.ambient
    jordan = refused = 0
    for _ in range(RANDOM_COCYCLES):
        vec = [0] * ambient
        for b in basis:
            c = rng.randrange(5)
            if c:
                vec = [(x + c * y) % 5 for x, y in zip(vec, b)]
        theta = cohomology.Cocycle.from_upper(A5, vec)
        ext = extension.central_extend(extension.ExtensionSpec.of(A5, [theta]))
        jordan += algebra.jordan_identity_holds(ext)
    if spaces.z2.dim < ambient:
        tried = 0
        while tried < RANDOM_COCYCLES:
            vec = [rng.randrange(5) for _ in range(ambient)]
            if spaces.z2.contains(vec):
                continue
            tried += 1
            try:
                extension.central_extend(
                    extension.ExtensionSpec.of(A5, [cohomology.Cocycle.from_upper(A5, vec)])
                )
            except InvalidCocycleError:
                refused += 1
    return [jordan, refused]


# -- separation --------------------------------------------------------------------

# Systematic samples along the cost order of pair_costs.json, one per stratum of that
# order: (end rank, step).  The 15 heavy F_7 searches (J5,17 family, J5,7/8,
# J5,12-16) give exactly three pairs per seed; the next 85 dear pairs are taken
# densely, so the tail percentile falls on searches that are slow in their own
# right, not on 50 ms fingerprint pairs slowed by a busy neighbour; the rest
# give the median.  A 10 % sample stratified by parent group instead held 0 or
# 1 of the four heavy J4,3 pairs and moved items_per_s by ~12 % between seeds.
SEPARATION_STRATA = ((15, 5), (100, 1.25), (2415, 10))
PAIR_COSTS = Path(__file__).resolve().parent / "pair_costs.json"


@dataclass(frozen=True)
class SeparationItem:
    key: str  # "label1 -- label2"
    n1: str
    b1: dict
    l1: str
    A1: algebra.Algebra
    n2: str
    b2: dict
    l2: str
    A2: algebra.Algebra


def separation_instances():
    return [
        (n, b, catalog.instance_label(n, b))
        for n in catalog.dim5_names()
        for b in catalog.sample_bindings(n)
    ]


def pair_key(l1, l2):
    return f"{l1} -- {l2}"


def cost_order(instances):
    """All pairs (i, j), dearest first by ``pair_costs.json``, ties in report order."""
    costs = json.loads(PAIR_COSTS.read_text())
    pairs = list(combinations(range(len(instances)), 2))
    return sorted(pairs, key=lambda p: -costs[pair_key(instances[p[0]][2], instances[p[1]][2])])


def sample_pairs(seed: int, instances):
    """Every step-th pair of each cost stratum from one seeded offset, in report order."""
    order = cost_order(instances)
    u = random.Random(f"separation:{seed}").random()
    chosen, lo = [], 0
    for hi, step in SEPARATION_STRATA:
        chosen += [order[lo + int((i + u) * step)] for i in range(int((hi - lo) / step))]
        lo = hi
    return sorted(chosen)


def build_separation(seed: int):
    instances = separation_instances()
    algebras = [catalog.instantiate(n, b) for n, b, _ in instances]
    items = []
    for i, j in sample_pairs(seed, instances):
        (n1, b1, l1), (n2, b2, l2) = instances[i], instances[j]
        items.append(SeparationItem(pair_key(l1, l2), n1, b1, l1, algebras[i], n2, b2, l2, algebras[j]))
    return items


def run_separation(item: SeparationItem) -> dict:
    """One row of ``separation_report``, computed by its grading rule."""
    n1, b1, l1, A1 = item.n1, item.b1, item.l1, item.A1
    n2, b2, l2, A2 = item.n2, item.b2, item.l2, item.A2
    same_parent = catalog.get(n1).parent == catalog.get(n2).parent
    if n1 == n2 and catalog.equivalent_parameters(n1, b1, b2):
        mat = catalog.family_equivalence_map(n1, b1, b2, QQ)
        ok = mat is not None and isomorphism.verify_isomorphism(isomorphism.Morphism(A1, A2, mat))
        return {"pair": f"{l1} ~ {l2}", "grade": "verified-map-isomorphic", "ok": ok}
    separated = isomorphism.invariant_separation(A1, A2) == "distinct"
    if separated and not same_parent:
        return {"pair": f"{l1} | {l2}", "grade": "certified-distinct", "ok": True}
    hits = []
    for F in SEARCH_FIELDS:
        if isomorphism.search_isomorphism(A1, A2, F) is not None:
            if not (n1 == n2 and catalog.equivalent_parameters(n1, b1, b2, F)):
                hits.append(F.p)
    if hits:
        return {
            "pair": f"{l1} ~ {l2}",
            "grade": "finite-field-isomorphic-UNEXPECTED",
            "fields": ",".join(str(p) for p in hits),
            "known_overlap": frozenset((l1, l2)) in catalog.KNOWN_OVERLAP_PAIRS,
            "ok": False,
        }
    return {
        "pair": f"{l1} | {l2}",
        "grade": "certified-distinct" if separated else "finite-field-evidence-distinct",
        "searched": ",".join(str(F.p) for F in SEARCH_FIELDS),
        "ok": True,
    }


# -- census ------------------------------------------------------------------------

# J4,13 costs as much as J4,12 and adds little; J3,1 and J4,1/2/3/5 do not finish
# or are refused by AUT_CANDIDATE_BUDGET when this benchmark was defined
CENSUS_R1 = ("J1,1", "J2,1", "J2,2", "J3,2", "J3,3", "J3,4", "J4,4", "J4,6", "J4,7",
             "J4,8", "J4,9", "J4,10", "J4,11", "J4,12")
# J4,11 (trivial at r=2) makes the count even, so item_p50_ms is the mean of the
# two middle censuses, J4,6 and J4,9 at r=2, whose order noise swaps from run to run
CENSUS_R2 = ("J2,1", "J3,2", "J3,3", "J4,4", "J4,6", "J4,7", "J4,8", "J4,9", "J4,10", "J4,11")


REPEATS = 5  # most runs of one item, each census on its own random basis


@dataclass(frozen=True)
class CensusItem:
    key: str  # "parent r=1"
    name: str
    r: int
    bases: tuple  # the parent over F_5 in REPEATS seeded random bases


def census_keys():
    return [(n, 1) for n in CENSUS_R1] + [(n, 2) for n in CENSUS_R2]


def random_invertible(field: Field, n: int, rng) -> linalg.Matrix:
    while True:
        P = linalg.Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


def build_census(seed: int):
    rng = random.Random(f"census:{seed}")
    items = []
    for name, r in census_keys():
        A5 = algebra.reduce_mod(catalog.instantiate(name), 5)
        bases = tuple(algebra.change_basis(A5, random_invertible(F5, A5.dim, rng)) for _ in range(REPEATS))
        items.append(CensusItem(f"{name} r={r}", name, r, bases))
    return items


def run_census(item: CensusItem, rerun: int = 0) -> dict:
    """The census on the item's first basis, or on basis ``rerun`` when rerun;
    small censuses cost up to 2x more on some bases than on others."""
    rep = isomorphism.orbit_census(item.bases[rerun], F5, item.r)
    return {"admissible": rep.total_admissible, "orbits": rep.orbit_count, "aut": rep.aut_group_order}


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # seed -> list of items
    run: object  # item -> record
    # an item that ends sooner is rerun from cold caches, as run(item, k) for
    # k = 1, 2, ..., until this much item time is spent (at most REPEATS runs)
    # and its latency is the median run: the census has only 24 items, so its
    # median and tail are single items
    repeat_below_s: float = 0.0


WORKLOADS = {
    "catalog": Workload("catalog", build_catalog, run_catalog),
    "separation": Workload("separation", build_separation, run_separation),
    "census": Workload("census", build_census, run_census, repeat_below_s=0.6),
}
