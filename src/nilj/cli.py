"""Command-line surface.

Algebra references are catalog names with optional parameter bindings, e.g.
``J5,30[alpha=1,beta=2]``, or ``@path/to/file.json`` for algebra documents.
Exit code 0 means every verification run by the invoked command passed, 1
that one failed or a self-check of the engine did, and 2 that the input or a
budget was refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack

from . import catalog, reports
from .algebra import invariant_vector, reduce_mod
from .cohomology import h2, parse_cocycle, sym_pairs
from .errors import DocumentError, InternalCheckError, NiljError
from .extension import ExtensionSpec, central_extend, diagnose
from .fields import QQ, Field
from .isomorphism import (
    Morphism,
    lemma_a_matrix,
    orbit_census,
    search_isomorphism,
    verify_isomorphism,
)
from .linalg import Matrix


def _prime_field(text: str) -> Field:
    try:
        return Field(int(text))
    except ValueError:
        raise NiljError(f"bad prime {text!r}") from None


def _parse_field(text: str | None) -> Field:
    if text is None or text == "Q":
        return QQ
    if text.startswith("p:"):
        return _prime_field(text[2:])
    raise NiljError(f"bad field spec {text!r} (use Q or p:<prime>)")


def _parse_binding(text: str) -> dict:
    """``name=value,...`` as a dict of stripped strings."""
    binding = {}
    for item in text.split(","):
        k, sep, v = (part.strip() for part in item.partition("="))
        if not sep or not k:
            raise NiljError(f"bad parameter binding {item!r} (use name=value)")
        if k in binding:
            raise NiljError(f"parameter {k!r} is bound twice")
        binding[k] = v
    return binding


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _parse_ref(ref: str, field: Field = QQ):
    if ref.startswith("@"):
        text = _read(ref[1:])
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also Python's limit on integer digits
            raise DocumentError(f"{ref[1:]} is not valid JSON: {exc}") from None
        A = catalog.parse_algebra(doc)
        if field.is_prime_field and not A.field.is_prime_field:
            A = reduce_mod(A, field.p)
        return A
    name, binding = ref, {}
    if "[" in ref:
        if not ref.endswith("]"):
            raise NiljError(f"bad algebra reference {ref!r}")
        name, inner = ref[:-1].split("[", 1)
        binding = _parse_binding(inner)
    return catalog.resolve(name, binding, field)


def _print_algebra(A, name=""):
    print(json.dumps(catalog.serialize_algebra(A, name), indent=1))


def _cmd_verify_catalog(args) -> int:
    section = reports.verify_catalog(_parse_binding(args.params) if args.params else None)
    _emit_section(section)
    return 0 if section.ok else 1


def _cmd_tables(args) -> int:
    section = {
        "center": reports.center_table,
        "assoc": reports.assoc_table,
        "h2": reports.h2_table,
    }[args.which]()
    _emit_section(section)
    return 0 if section.ok else 1


def _cmd_cohomology(args) -> int:
    field = _parse_field(args.field)
    A = _parse_ref(args.algebra, field)
    spaces = h2(A)
    print(f"dim Z2 = {spaces.z2.dim}")
    print(f"dim B2 = {spaces.b2.dim}")
    print(f"dim H2 = {spaces.h2_dim}")
    for rep in spaces.h2_reps:
        print("  rep:", _cocycle_str(rep))
    if args.assoc:
        print(f"dim H2_assoc = {spaces.h2_assoc_dim}")
        for rep in spaces.h2_assoc_reps:
            print("  assoc rep:", _cocycle_str(rep))
    return 0


def _cocycle_str(c) -> str:
    A = c.algebra
    terms = []
    for (i, j), v in zip(sym_pairs(A.dim), c.upper()):
        if v:
            coef = "" if v == A.field.one else f"{A.field.fmt(v)}*"
            terms.append(f"{coef}d({A.names[i]},{A.names[j]})")
    return "+".join(terms) if terms else "0"


def _cmd_extend(args) -> int:
    field = _parse_field(args.field)
    A = _parse_ref(args.algebra, field)
    cocycles = [parse_cocycle(A, text) for text in args.cocycle]
    spec = ExtensionSpec.of(A, cocycles)
    E = central_extend(spec)
    _print_algebra(E, f"extend({args.algebra})")
    if args.diagnose:
        d = diagnose(spec)
        print(f"joint radical meet dim = {d.joint_radical_meet.dim}")
        print(f"independent mod coboundaries = {d.independent_mod_b2}")
        print(f"has central component = {d.has_central_component}")
    return 0


def _cmd_invariants(args) -> int:
    A = _parse_ref(args.algebra, _parse_field(args.field))
    iv = invariant_vector(A)
    print(json.dumps(iv.__dict__ | {"power_dims": list(iv.power_dims)}, indent=1))
    return 0


def _cmd_iso(args) -> int:
    field = _parse_field(args.field)
    A = _parse_ref(args.src, field)
    B = _parse_ref(args.dst, field)
    if args.search:
        if not field.is_prime_field:
            raise NiljError("--search needs --field p:<prime>")
        m = search_isomorphism(A, B, field)
        if m is None:
            print(f"no isomorphism over F{field.p}")
            return 1
        print(f"isomorphism found over F{field.p}; columns are basis images:")
        for i in range(m.mat.cols):
            print(" ", [field.fmt(x) for x in m.mat.col(i)])
        return 0
    if not args.map:
        raise NiljError("iso needs either --map <file> or --search")
    rows = [line.split() for line in _read(args.map).strip().splitlines()]
    mat = Matrix.from_rows(A.field, rows)
    ok = verify_isomorphism(Morphism(A, B, mat))
    print("isomorphism verified" if ok else "map is NOT an isomorphism")
    return 0 if ok else 1


def _cmd_orbits(args) -> int:
    field = _parse_field(args.field)
    A = _parse_ref(args.algebra, field)
    rep = orbit_census(A, field, args.grassmann)
    print(f"admissible {args.grassmann}-subspaces: {rep.total_admissible}")
    print(f"orbits: {rep.orbit_count}  sizes: {list(rep.orbit_sizes)}")
    print(f"|Aut| = {rep.aut_group_order}")
    print(f"|Aut| = |G1| * |K| = {rep.aut_group_order // rep.aut_kernel_order} * {rep.aut_kernel_order}")
    for r in rep.orbit_representatives:
        print("  representative:", [list(v) for v in r])
    return 0


def _cmd_lemma_a(args) -> int:
    field = _parse_field(args.field)
    alpha = [field.parse(x) for x in args.alpha.split(",")]
    if len(alpha) != 3:
        raise NiljError("--alpha needs three comma-separated scalars")
    A = lemma_a_matrix(alpha, field)
    print("matrix rows:")
    for i in range(3):
        print(" ", [field.fmt(x) for x in A.row(i)])
    return 0


def _cmd_report(args) -> int:
    primes = tuple(_prime_field(p).p for p in args.primes.split(","))
    if len(set(primes)) != len(primes):
        raise NiljError(f"duplicate prime in --primes {args.primes}")
    with ExitStack() as stack:
        if args.out:
            try:  # opened before the report is built, so a bad path fails at once
                fh = stack.enter_context(open(args.out, "w", encoding="utf-8"))
                fj = stack.enter_context(open(args.out + ".json", "w", encoding="utf-8"))
            except OSError as exc:
                raise NiljError(f"cannot write {exc.filename}: {exc.strerror}") from None
        doc = reports.build_report(primes)
        text = doc.render_text()
        if args.out:
            fh.write(text)
            fj.write(doc.to_json())
            print(f"wrote {args.out} and {args.out}.json")
        else:
            print(text, end="")
    return 0 if doc.ok else 1


def _emit_section(section) -> None:
    for row in section.rows:
        print(reports.format_row(row))
    print(f"section: {'PASS' if section.ok else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nilj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-catalog", help="check every catalog entry's stated properties")
    p.add_argument("--params", help="extra parameter binding, e.g. alpha=3,beta=1")
    p.set_defaults(fn=_cmd_verify_catalog)

    p = sub.add_parser("tables", help="recompute a golden table and diff it")
    p.add_argument("--which", choices=("center", "assoc", "h2"), required=True)
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("cohomology", help="cocycle and cohomology data of an algebra")
    p.add_argument("algebra")
    p.add_argument("--assoc", action="store_true")
    p.add_argument("--field")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("extend", help="build a central extension from cocycles")
    p.add_argument("algebra")
    p.add_argument("--cocycle", action="append", required=True)
    p.add_argument("--diagnose", action="store_true")
    p.add_argument("--field")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("invariants", help="isomorphism-invariant fingerprint")
    p.add_argument("algebra")
    p.add_argument("--field")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("iso", help="verify a claimed map or search exhaustively")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--map", help="file with one matrix row per line")
    p.add_argument("--search", action="store_true")
    p.add_argument("--field")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("orbits", help="automorphism orbits on admissible cocycle subspaces")
    p.add_argument("algebra")
    p.add_argument("--field", required=True)
    p.add_argument("--grassmann", type=int, default=1)
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("lemma-a", help="3x3 normalization matrix for a covector")
    p.add_argument("--alpha", required=True)
    p.add_argument("--field")
    p.set_defaults(fn=_cmd_lemma_a)

    p = sub.add_parser("report", help="full verification report")
    p.add_argument("--primes", default="5,7")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NiljError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InternalCheckError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
