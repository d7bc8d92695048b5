"""Verification and report pipelines over the bundled catalog.

Every pipeline returns structured rows with an ``ok`` flag; nothing is ever
silently repaired.  Rows that contradict the bundled golden data are reported
as failures with a reason, so reruns are byte-identical and the CLI exit code
can faithfully reflect the outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from . import catalog
from .algebra import (
    _power_filtration,
    annihilator,
    invariant_vector,
    is_associative,
    jordan_identity_holds,
)
from .cohomology import h2, parse_cocycle
from .errors import InadmissibleParameterError, InvalidCocycleError, NiljError
from .extension import ExtensionSpec, central_extend, diagnose
from .fields import QQ, Field
from .isomorphism import (
    Morphism,
    orbit_census,
    search_isomorphism,
    verify_isomorphism,
)
from .linalg import Subspace


@dataclass(frozen=True)
class ReportSection:
    key: str
    title: str
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.get("ok", True) for r in self.rows)


def format_row(row) -> str:
    """A report row as one text line: its ok flag, then its other keys as key=value."""
    flag = "ok  " if row.get("ok", True) else "FAIL"
    return f"[{flag}] " + "  ".join(f"{k}={v}" for k, v in row.items() if k != "ok")


@dataclass(frozen=True)
class ReportDocument:
    sections: tuple

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    def section(self, key: str) -> ReportSection:
        for s in self.sections:
            if s.key == key:
                return s
        raise NiljError(f"no report section {key!r}")

    def render_text(self) -> str:
        out = []
        for s in self.sections:
            out.append(f"== {s.title} ==")
            out.extend(f"  {format_row(r)}" for r in s.rows)
            out.append(f"  section: {'PASS' if s.ok else 'FAIL'}")
            out.append("")
        out.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        doc = {
            "sections": [
                {"key": s.key, "title": s.title, "ok": s.ok, "rows": list(s.rows)}
                for s in self.sections
            ],
            "ok": self.ok,
        }
        return json.dumps(doc, indent=1, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# golden tables for dimension <= 4
# ---------------------------------------------------------------------------


def _expected_center(A, entry) -> Subspace:
    """The span of the basis vectors named in the entry's center column."""
    return Subspace.span(
        QQ, A.dim, [[1 if k == A.index_of(nm) else 0 for k in range(A.dim)] for nm in entry.center]
    )


def center_table() -> ReportSection:
    rows = []
    for name in catalog.dim_le4_names():
        entry = catalog.get(name)
        A = catalog.instantiate(name)
        ann = annihilator(A)
        computed = ",".join(
            nm for k, nm in enumerate(A.names)
            if ann.contains([1 if t == k else 0 for t in range(A.dim)])
        )
        rows.append(
            {
                "algebra": name,
                "computed": computed or "-",
                "expected": ",".join(entry.center),
                "ok": ann == _expected_center(A, entry),
            }
        )
    return ReportSection("center", "annihilator (center) column, dimension <= 4", tuple(rows))


def assoc_table() -> ReportSection:
    rows = []
    for name in catalog.dim_le4_names():
        entry = catalog.get(name)
        got = is_associative(catalog.instantiate(name))
        rows.append(
            {"algebra": name, "computed": got, "expected": entry.assoc, "ok": got == entry.assoc}
        )
    return ReportSection("assoc", "associativity column, dimension <= 4", tuple(rows))


def _span_mod_b2(spaces, vecs) -> Subspace:
    """The span of the cocycle vectors and the coboundaries."""
    return Subspace.span(spaces.algebra.field, spaces.z2.ambient, vecs + [list(v) for v in spaces.b2.vectors()])


def h2_table() -> ReportSection:
    """Recompute cocycle data and diff against the bundled generator table.

    Generator sets are compared as subspaces modulo coboundaries; printed
    relations must themselves be coboundaries.  The Jordan block is always
    checked, the associative one where the table has it.
    """
    rows = []
    for name in catalog.dim_le4_names():
        A = catalog.instantiate(name)
        spaces = h2(A)
        exp_ass, exp_jor = catalog.H2_EXPECT[name]
        blocks = [("jor", exp_jor, spaces.h2_reps)]
        if exp_ass is not None:
            blocks.append(("ass", exp_ass, spaces.h2_assoc_reps))
        row, problems = {"algebra": name}, []
        for kind, (gens, rels), reps in blocks:
            expected_dim = len(gens) - len(rels)
            row[f"{kind}_dim"], row[f"{kind}_expected"] = len(reps), expected_dim
            if len(reps) != expected_dim:
                problems.append(f"{kind} dim {len(reps)} != {expected_dim}")
            expected = _span_mod_b2(spaces, [list(parse_cocycle(A, g).upper()) for g in gens])
            if expected != _span_mod_b2(spaces, [list(c.upper()) for c in reps]):
                problems.append(f"{kind} generators span a different subspace mod coboundaries")
            for rel in rels:
                if not spaces.b2.contains(parse_cocycle(A, rel).upper()):
                    problems.append(f"printed relation {rel} is not a coboundary")
        row["ok"] = not problems
        if problems:
            row["why"] = "; ".join(problems)
        rows.append(row)
    return ReportSection("h2", "second cohomology table, dimension <= 4", tuple(rows))


# ---------------------------------------------------------------------------
# catalog validity and lineage
# ---------------------------------------------------------------------------


def verify_catalog(extra_params=None) -> ReportSection:
    """Check every entry's stated properties at the sampled parameters.

    ``extra_params`` optionally adds one more binding (a name -> value dict)
    for every parametric family it fits, and is refused when it fits none.
    """
    if extra_params and all(set(catalog.get(name).params) != set(extra_params) for name in catalog.names()):
        raise InadmissibleParameterError(f"no catalog family takes exactly the parameters {sorted(extra_params)}")
    rows = []
    for name in catalog.names():
        entry = catalog.get(name)
        bindings = list(catalog.sample_bindings(name))
        if extra_params and set(entry.params) == set(extra_params):
            bindings.append(dict(extra_params))
        for binding in bindings:
            label = catalog.instance_label(name, binding)
            A = catalog.instantiate(name, binding)
            problems = []
            if A.dim != entry.dim:
                problems.append("dimension mismatch")
            if not jordan_identity_holds(A):
                problems.append("fails the Jordan identity")
            powers = _power_filtration(A)
            if len(powers) > 6 or not powers[-1].is_zero():
                problems.append("not nilpotent within six powers")
            if entry.dim <= 4:
                if annihilator(A) != _expected_center(A, entry):
                    problems.append("annihilator differs from the center column")
                if is_associative(A) != entry.assoc:
                    problems.append("associativity flag mismatch")
            else:
                if is_associative(A):
                    problems.append("five-dimensional entry is associative")
            row = {"instance": label, "ok": not problems}
            if problems:
                row["why"] = "; ".join(problems)
            rows.append(row)
    return ReportSection("catalog", "catalog validity (sampled parameters)", tuple(rows))


def lineage_report() -> ReportSection:
    """Round-trip every five-dimensional entry through its recorded lineage."""
    rows = []
    for name in catalog.dim5_names():
        entry = catalog.get(name)
        for binding in catalog.sample_bindings(name):
            label = catalog.instance_label(name, binding)
            expected = catalog.instantiate(name, binding)
            parent, cocycles = catalog.lineage(name, binding)
            problems = []
            try:
                spec = ExtensionSpec.of(parent, cocycles, entry.basis[parent.dim:])
                rebuilt = central_extend(spec)
                if rebuilt != expected:
                    problems.append("structure constants differ after re-extension")
                if not entry.trivial:
                    diag = diagnose(spec)
                    if not diag.joint_radical_meet.is_zero():
                        problems.append("joint radical meets the center")
                    if not diag.independent_mod_b2:
                        problems.append("cocycles dependent modulo coboundaries")
            except InvalidCocycleError:
                problems.append("defining cocycle fails cocycle-space membership")
            row = {"instance": label, "parent": entry.parent, "ok": not problems}
            if problems:
                row["why"] = "; ".join(problems)
            rows.append(row)
    return ReportSection("lineage", "extension lineage round-trips", tuple(rows))


def known_maps_report() -> ReportSection:
    rows = []
    for spec in catalog.KNOWN_MAPS + catalog.OVERLAP_MAPS:
        src, dst, mat = spec.resolve()
        ok = verify_isomorphism(Morphism(src, dst, mat))
        rows.append({"map": spec.key, "field": str(spec.field), "ok": ok})
    return ReportSection("maps", "explicitly verified isomorphism maps", tuple(rows))


# ---------------------------------------------------------------------------
# separation of the five-dimensional instances
# ---------------------------------------------------------------------------

GRADE_VERIFIED_MAP = "verified-map-isomorphic"
GRADE_INVARIANT = "certified-distinct"
GRADE_FIELD_EVIDENCE = "finite-field-evidence-distinct"
GRADE_UNEXPECTED = "finite-field-isomorphic-UNEXPECTED"


def _instances():
    out = []
    for name in catalog.dim5_names():
        for binding in catalog.sample_bindings(name):
            out.append((name, binding, catalog.instance_label(name, binding)))
    return out


def separation_report(primes=(5, 7)) -> ReportSection:
    """Pairwise separation of all sampled five-dimensional instances.

    Grades: stated family equivalences are verified with explicit maps;
    otherwise invariant distinction certifies non-isomorphism; remaining pairs
    (always including those with a shared parent) get exhaustive finite-field
    searches.  A search hit that is not the stated equivalence (read in the
    search field) is reported as a failing row.
    """
    fields = [Field(p) for p in primes]
    inst = _instances()
    algebras = {lab: catalog.instantiate(n, b) for n, b, lab in inst}
    parents = {n: catalog.get(n).parent for n in catalog.dim5_names()}
    rows = []
    for (n1, b1, l1), (n2, b2, l2) in combinations(inst, 2):
        A1, A2 = algebras[l1], algebras[l2]
        same_parent = parents[n1] == parents[n2]
        if n1 == n2 and catalog.equivalent_parameters(n1, b1, b2):
            mat = catalog.family_equivalence_map(n1, b1, b2, QQ)
            ok = mat is not None and verify_isomorphism(Morphism(A1, A2, mat))
            rows.append({"pair": f"{l1} ~ {l2}", "grade": GRADE_VERIFIED_MAP, "ok": ok})
            continue
        separated = invariant_vector(A1) != invariant_vector(A2)
        if separated and not same_parent:
            rows.append({"pair": f"{l1} | {l2}", "grade": GRADE_INVARIANT, "ok": True})
            continue
        hits = []
        for F in fields:
            found = search_isomorphism(A1, A2, F) is not None
            if found:
                # a hit is mandated when the stated equivalence holds in F_p
                mandated = n1 == n2 and catalog.equivalent_parameters(n1, b1, b2, F)
                if not mandated:
                    hits.append(F.p)
        if hits:
            rows.append(
                {
                    "pair": f"{l1} ~ {l2}",
                    "grade": GRADE_UNEXPECTED,
                    "fields": ",".join(str(p) for p in hits),
                    "known_overlap": frozenset((l1, l2)) in catalog.KNOWN_OVERLAP_PAIRS,
                    "ok": False,
                }
            )
            continue
        grade = GRADE_INVARIANT if separated else GRADE_FIELD_EVIDENCE
        rows.append(
            {
                "pair": f"{l1} | {l2}",
                "grade": grade,
                "searched": ",".join(str(F.p) for F in fields),
                "ok": True,
            }
        )
    return ReportSection("separation", "pairwise separation of dimension-5 instances", tuple(rows))


def census_report(field: Field = Field(5)) -> ReportSection:
    rows = []
    for name in ("J4,6", "J4,8", "J4,9", "J4,10"):
        A = catalog.instantiate(name)
        rep = orbit_census(A, field, 1)
        rows.append(
            {
                "algebra": name,
                "admissible_lines": rep.total_admissible,
                "orbits": rep.orbit_count,
                "aut_order": rep.aut_group_order,
                "ok": True,
            }
        )
    return ReportSection("census", f"one-dimensional extension censuses over F{field.p}", tuple(rows))


def build_report(primes=(5, 7)) -> ReportDocument:
    return ReportDocument(
        (
            center_table(),
            assoc_table(),
            h2_table(),
            verify_catalog(),
            lineage_report(),
            known_maps_report(),
            separation_report(primes),
            census_report(),
        )
    )
