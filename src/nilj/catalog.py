"""The bundled catalog of small nilpotent Jordan algebras.

Twenty algebras of dimension <= 4 and forty-four five-dimensional families
(six of them parametric), each five-dimensional entry carrying its extension
lineage: the parent algebra and the defining cocycles, stored exactly as the
representative cocycles used to build it.  Expected golden data (centers,
associativity flags, cohomology generator tables) lives here too, as do the
explicitly verified isomorphism maps between equivalent presentations.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .cohomology import Cocycle, parse_cocycle
from .errors import (
    DocumentError,
    InadmissibleParameterError,
    UnknownAlgebraError,
)
from .fields import QQ, Field, is_prime
from .linalg import Matrix


# ---------------------------------------------------------------------------
# product-table mini syntax
# ---------------------------------------------------------------------------


def _parse_product_table(names, text: str):
    """Parse "a*a=b, b*c=d, a*d=alpha*e, b*b=d+e" into {(i,j): {k: coeff-str}}."""
    products = {}
    if not text.strip():
        return products
    for chunk in text.split(","):
        lhs, rhs = chunk.split("=")
        x, y = (t.strip() for t in lhs.split("*"))
        i, j = names.index(x), names.index(y)
        if i > j:
            i, j = j, i
        if (i, j) in products:
            raise DocumentError(f"duplicate product {x}*{y}")
        terms = {}
        for term in rhs.replace("-", "+-").split("+"):
            term = term.strip()
            if not term:
                continue
            if "*" in term:
                coef, target = term.rsplit("*", 1)
            elif term.startswith("-"):
                coef, target = "-1", term[1:]
            else:
                coef, target = "1", term
            terms[names.index(target.strip())] = coef.strip()
        products[(i, j)] = terms
    return products


def _substitute_params(text: str, binding) -> str:
    out = text
    for param, value in binding.items():
        out = re.sub(rf"\b{param}\b", str(Fraction(value)), out)
    return out


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    basis: tuple
    products_src: str
    params: tuple = ()
    excluded: tuple = ()  # (param, value-string) pairs that are inadmissible
    parent: str | None = None
    lineage_src: tuple = ()  # cocycle templates over the parent's basis
    trivial: bool = False  # lineage is the zero cocycle (central component)
    center: tuple | None = None  # expected annihilator basis (dim <= 4 rows)
    assoc: bool | None = None  # expected associativity flag (dim <= 4 rows)


def _e(name, products, center, assoc):
    dim = {"1": 1, "2": 2, "3": 3, "4": 4}[name[1]]
    basis = tuple("abcd"[:dim])
    return CatalogEntry(
        name=name,
        dim=dim,
        basis=basis,
        products_src=products,
        center=tuple(center),
        assoc=assoc,
    )


def _e5(name, products, parent, lineage, params=(), excluded=(), trivial=False):
    return CatalogEntry(
        name=name,
        dim=5,
        basis=("a", "b", "c", "d", "e"),
        products_src=products,
        params=tuple(params),
        excluded=tuple(excluded),
        parent=parent,
        lineage_src=tuple(lineage),
        trivial=trivial,
    )


_ENTRIES = [
    _e("J1,1", "", "a", True),
    _e("J2,1", "", "ab", True),
    _e("J2,2", "a*a=b", "b", True),
    _e("J3,1", "", "abc", True),
    _e("J3,2", "a*a=b", "bc", True),
    _e("J3,3", "a*b=c", "c", True),
    _e("J3,4", "a*a=b, a*b=c", "c", True),
    _e("J4,1", "", "abcd", True),
    _e("J4,2", "a*a=b", "bcd", True),
    _e("J4,3", "a*b=c", "cd", True),
    _e("J4,4", "a*a=b, a*b=c", "cd", True),
    _e("J4,5", "a*b=d, c*c=d", "d", True),
    _e("J4,6", "a*a=b, b*c=d", "d", False),
    _e("J4,7", "a*a=b, a*b=d, c*c=d", "d", True),
    _e("J4,8", "a*b=c, a*c=d", "d", False),
    _e("J4,9", "a*b=c, a*c=d, b*b=d", "d", False),
    _e("J4,10", "a*b=c, a*c=d, b*c=d", "d", False),
    _e("J4,11", "a*a=b, a*b=c, a*c=d, b*b=d", "d", True),
    _e("J4,12", "a*a=c, a*b=d", "cd", True),
    _e("J4,13", "a*a=c, b*b=d", "cd", True),
    _e5("J5,1", "a*a=b, b*c=d", "J4,6", ("0",), trivial=True),
    _e5("J5,2", "a*a=b, b*c=d, b*d=e", "J4,6", ("d(b,d)",)),
    _e5("J5,3", "a*a=b, b*c=d, b*d=e, c*c=e", "J4,6", ("d(b,d)+d(c,c)",)),
    _e5("J5,4", "a*b=c, a*c=d", "J4,8", ("0",), trivial=True),
    _e5("J5,5", "a*b=c, a*c=d, b*b=d", "J4,9", ("0",), trivial=True),
    _e5("J5,6", "a*b=c, a*c=d, b*c=d", "J4,10", ("0",), trivial=True),
    _e5("J5,7", "a*a=b, d*d=e, b*c=e", "J4,2", ("d(d,d)+d(b,c)",)),
    _e5("J5,8", "a*a=b, a*d=e, b*c=e", "J4,2", ("d(a,d)+d(b,c)",)),
    _e5("J5,9", "a*b=c, c*d=e", "J4,3", ("d(c,d)",)),
    _e5("J5,10", "a*b=c, c*d=e, a*a=e", "J4,3", ("d(a,a)+d(c,d)",)),
    _e5("J5,11", "a*b=c, c*d=e, a*a=e, b*b=e", "J4,3", ("d(a,a)+d(b,b)+d(c,d)",)),
    _e5("J5,12", "a*b=c, a*c=e, d*d=e, b*c=e", "J4,3", ("d(d,d)+d(a,c)+d(b,c)",)),
    _e5("J5,13", "a*b=c, a*c=e, d*d=e", "J4,3", ("d(d,d)+d(a,c)",)),
    _e5("J5,14", "a*b=c, a*c=e, d*d=e, b*b=e", "J4,3", ("d(b,b)+d(d,d)+d(a,c)",)),
    _e5("J5,15", "a*b=c, a*c=e, a*d=e, b*c=e", "J4,3", ("d(a,c)+d(a,d)+d(b,c)",)),
    _e5("J5,16", "a*b=c, a*c=e, b*d=e", "J4,3", ("d(a,c)+d(b,d)",)),
    _e5(
        "J5,17",
        "a*a=b, a*b=c, a*c=e, b*b=e, b*d=e, d*d=alpha*e",
        "J4,4",
        ("d(a,c)+d(b,b)+d(b,d)+alpha*d(d,d)",),
        params=("alpha",),
    ),
    _e5("J5,18", "a*b=d, c*c=d, a*d=e", "J4,5", ("d(a,d)",)),
    _e5("J5,19", "a*b=d, c*c=d, a*d=e, b*c=e", "J4,5", ("d(a,d)+d(b,c)",)),
    _e5("J5,20", "a*b=d, c*c=d, a*d=e, b*b=e", "J4,5", ("d(a,d)+d(b,b)",)),
    _e5("J5,21", "a*b=d, c*c=d, c*d=e", "J4,5", ("d(c,d)",)),
    _e5("J5,22", "a*b=d, c*c=d, c*d=e, a*a=e", "J4,5", ("d(c,d)+d(a,a)",)),
    _e5("J5,23", "a*b=d, c*c=d, c*d=e, a*a=e, b*b=e", "J4,5", ("d(c,d)+d(a,a)+d(b,b)",)),
    _e5("J5,24", "a*a=b, a*b=d, c*c=d, b*b=e, a*d=e", "J4,7", ("d(b,b)+d(a,d)",)),
    _e5("J5,25", "a*a=c, a*b=d, b*c=e, b*d=e", "J4,12", ("d(b,c)+d(b,d)",)),
    _e5(
        "J5,26",
        "a*a=c, a*b=d, a*c=e, b*c=alpha*e, b*d=e",
        "J4,12",
        ("d(a,c)+alpha*d(b,c)+d(b,d)",),
        params=("alpha",),
    ),
    _e5(
        "J5,27",
        "a*a=c, a*b=d, b*c=e, a*d=alpha*e",
        "J4,12",
        ("d(b,c)+alpha*d(a,d)",),
        params=("alpha",),
        excluded=(("alpha", "0"), ("alpha", "1")),
    ),
    _e5(
        "J5,28",
        "a*a=c, a*b=d, a*c=e, b*c=-2*e, a*d=e",
        "J4,12",
        ("d(a,c)-2*d(b,c)+d(a,d)",),
    ),
    _e5(
        "J5,29",
        "a*a=c, b*b=d, a*c=e, a*d=e, b*d=alpha*e",
        "J4,13",
        ("d(a,c)+d(a,d)+alpha*d(b,d)",),
        params=("alpha",),
    ),
    _e5(
        "J5,30",
        "a*a=c, b*b=d, b*c=e, a*d=e, b*d=alpha*e, a*c=beta*e",
        "J4,13",
        ("d(b,c)+d(a,d)+alpha*d(b,d)+beta*d(a,c)",),
        params=("alpha", "beta"),
    ),
    _e5("J5,31", "a*a=b, b*c=d, a*b=e", "J3,2", ("d(b,c)", "d(a,b)")),
    _e5("J5,32", "a*a=b, b*c=d, a*b=e, a*c=e", "J3,2", ("d(b,c)", "d(a,b)+d(a,c)")),
    _e5("J5,33", "a*a=b, b*c=d, a*b=e, c*c=e", "J3,2", ("d(b,c)", "d(a,b)+d(c,c)")),
    _e5("J5,34", "a*a=b, b*c=d, c*c=e", "J3,2", ("d(b,c)", "d(c,c)")),
    _e5("J5,35", "a*a=b, b*c=d, a*c=e", "J3,2", ("d(b,c)", "d(a,c)")),
    _e5("J5,36", "a*a=b, b*c=d, a*c=e, c*c=e", "J3,2", ("d(b,c)", "d(a,c)+d(c,c)")),
    _e5("J5,37", "a*b=c, a*c=d, b*c=e", "J3,3", ("d(a,c)", "d(b,c)")),
    _e5("J5,38", "a*b=c, a*c=d, a*a=e, b*c=e", "J3,3", ("d(a,c)", "d(a,a)+d(b,c)")),
    _e5("J5,39", "a*b=c, a*c=d, a*a=e", "J3,3", ("d(a,c)", "d(a,a)")),
    _e5("J5,40", "a*b=c, a*c=d, b*b=e", "J3,3", ("d(a,c)", "d(b,b)")),
    _e5("J5,41", "a*b=c, a*c=d, a*a=e, b*b=e", "J3,3", ("d(a,c)", "d(a,a)+d(b,b)")),
    _e5(
        "J5,42",
        "a*b=c, b*b=d, a*c=d, a*a=e, b*c=e",
        "J3,3",
        ("d(b,b)+d(a,c)", "d(a,a)+d(b,c)"),
    ),
    _e5("J5,43", "a*b=c, b*b=d, a*c=d, a*a=e", "J3,3", ("d(b,b)+d(a,c)", "d(a,a)")),
    _e5(
        "J5,44",
        "a*b=c, a*c=d, b*c=d, a*a=e, b*b=alpha*e",
        "J3,3",
        ("d(a,c)+d(b,c)", "d(a,a)+alpha*d(b,b)"),
        params=("alpha",),
    ),
]

CATALOG = {e.name: e for e in _ENTRIES}

# auxiliary algebras: alternative presentations used by the verified maps
ADHOC = {
    "R_J1": ("abcd", "a*a=c, b*b=c"),
    "R_J2": ("abcd", "a*a=c, b*b=c, a*c=d"),
    "R_J3": ("abcd", "a*a=c, b*b=-1*c, a*c=d, b*c=d"),
    "R_J4": ("abcd", "a*a=c, b*b=-1*c, a*c=d, b*c=d, a*b=d"),
    "R_J5": ("abcd", "a*a=d, b*b=d, c*c=d"),
    "R_J6": ("abcd", "a*a=c, b*b=c, a*b=d"),
    "V7_J32": ("abcde", "a*a=b, b*c=d, a*b=e, a*c=e, c*c=e"),
    "V8_J33": ("abcde", "a*b=c, a*c=d, b*b=d+e, a*a=e"),
    "V10_1_J33": ("abcde", "a*b=c, a*c=d, b*c=d+e, a*a=e, b*b=e"),
}


def names(dim=None):
    out = [e.name for e in _ENTRIES if dim is None or e.dim == dim]
    return out


def dim5_names():
    return names(5)


def dim_le4_names():
    return [e.name for e in _ENTRIES if e.dim <= 4]


def get(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownAlgebraError(f"unknown catalog algebra {name!r}") from None


def _check_binding(entry: CatalogEntry, binding, field: Field):
    binding = {k: v for k, v in (binding or {}).items()}
    if set(binding) != set(entry.params):
        raise InadmissibleParameterError(
            f"{entry.name} needs parameters {entry.params}, got {tuple(binding)}"
        )
    for param, bad in entry.excluded:
        if field.of(binding[param]) == field.of(bad):
            raise InadmissibleParameterError(
                f"{entry.name}: {param} = {bad} is inadmissible"
            )
    return {k: QQ.of(v) for k, v in binding.items()}


def instantiate(name: str, binding=None, field: Field = QQ) -> Algebra:
    """A concrete Algebra for a catalog entry at an admissible parameter binding."""
    entry = get(name)
    binding = _check_binding(entry, binding, field)
    src = _substitute_params(entry.products_src, binding)
    products = _parse_product_table(list(entry.basis), src)
    return Algebra(field, entry.basis, products)


def adhoc(name: str, field: Field = QQ) -> Algebra:
    """An auxiliary presentation from ``ADHOC``; none has parameters."""
    basis, src = ADHOC[name]
    return Algebra(field, tuple(basis), _parse_product_table(list(basis), src))


def resolve(name: str, binding=None, field: Field = QQ) -> Algebra:
    """A catalog entry at a binding, or an ``ADHOC`` presentation, which takes none."""
    if name not in ADHOC:
        return instantiate(name, binding, field)
    if binding:
        raise InadmissibleParameterError(f"{name} takes no parameters, got {tuple(binding)}")
    return adhoc(name, field)


def lineage(name: str, binding=None, field: Field = QQ):
    """(parent algebra, defining cocycles) for a five-dimensional entry."""
    entry = get(name)
    if entry.parent is None:
        raise UnknownAlgebraError(f"{name} has no recorded lineage")
    binding = _check_binding(entry, binding, field)
    parent = instantiate(entry.parent, None, field)
    cocycles = []
    for src in entry.lineage_src:
        if src.strip() == "0":
            cocycles.append(Cocycle.zero(parent))
        else:
            cocycles.append(parse_cocycle(parent, _substitute_params(src, binding)))
    return parent, cocycles


ONE_PARAM_SAMPLES = ("0", "1", "-1", "2", "1/2")
TWO_PARAM_SAMPLES = (
    ("0", "0"),
    ("1", "0"),
    ("0", "1"),
    ("1", "1"),
    ("1", "2"),
    ("2", "1"),
    ("2", "2"),
    ("-1", "1/2"),
    ("1/2", "-1"),
)


def sample_bindings(name: str):
    """Deterministic admissible parameter samples for a catalog entry."""
    entry = get(name)
    if not entry.params:
        return [{}]
    out = []
    samples = [(v,) for v in ONE_PARAM_SAMPLES] if len(entry.params) == 1 else TWO_PARAM_SAMPLES
    for values in samples:
        b = dict(zip(entry.params, values))
        try:
            _check_binding(entry, b, QQ)
        except InadmissibleParameterError:
            continue
        out.append(b)
    return out


def instance_label(name: str, binding) -> str:
    if not binding:
        return name
    inner = ",".join(f"{k}={QQ.of(v)}" for k, v in sorted(binding.items()))
    return f"{name}[{inner}]"


# ---------------------------------------------------------------------------
# expected golden tables (dimension <= 4)
# ---------------------------------------------------------------------------

# name -> (ass (gens, rels) or None, jor (gens, rels)); generator strings use
# the cocycle syntax and are compared as subspaces modulo coboundaries.
H2_EXPECT = {
    "J1,1": ((("d(a,a)",), ()), (("d(a,a)",), ())),
    "J2,1": (
        (("d(a,a)", "d(a,b)", "d(b,b)"), ()),
        (("d(a,a)", "d(a,b)", "d(b,b)"), ()),
    ),
    "J2,2": ((("d(a,b)",), ()), (("d(a,b)",), ())),
    "J3,1": (
        (("d(a,a)", "d(b,b)", "d(c,c)", "d(a,b)", "d(a,c)", "d(b,c)"), ()),
        (("d(a,a)", "d(b,b)", "d(c,c)", "d(a,b)", "d(a,c)", "d(b,c)"), ()),
    ),
    "J3,2": (
        (("d(a,b)", "d(a,c)", "d(c,c)"), ()),
        (("d(a,b)", "d(a,c)", "d(c,c)", "d(b,c)"), ()),
    ),
    "J3,3": (
        (("d(a,a)", "d(b,b)"), ()),
        (("d(a,a)", "d(b,b)", "d(a,c)", "d(b,c)"), ()),
    ),
    "J3,4": ((("d(a,c)+d(b,b)",), ()), (("d(a,c)+d(b,b)",), ())),
    "J4,1": (
        (
            (
                "d(a,a)", "d(b,b)", "d(c,c)", "d(d,d)", "d(a,b)",
                "d(a,c)", "d(a,d)", "d(b,c)", "d(b,d)", "d(c,d)",
            ),
            (),
        ),
        (
            (
                "d(a,a)", "d(b,b)", "d(c,c)", "d(d,d)", "d(a,b)",
                "d(a,c)", "d(a,d)", "d(b,c)", "d(b,d)", "d(c,d)",
            ),
            (),
        ),
    ),
    "J4,2": (
        (("d(c,c)", "d(d,d)", "d(a,b)", "d(a,c)", "d(a,d)", "d(c,d)"), ()),
        (
            ("d(c,c)", "d(d,d)", "d(a,b)", "d(a,c)", "d(a,d)", "d(c,d)", "d(b,c)", "d(b,d)"),
            (),
        ),
    ),
    "J4,3": (
        (("d(a,a)", "d(b,b)", "d(d,d)", "d(a,d)", "d(b,d)"), ()),
        (
            ("d(a,a)", "d(b,b)", "d(d,d)", "d(a,d)", "d(b,d)", "d(a,c)", "d(b,c)", "d(c,d)"),
            (),
        ),
    ),
    "J4,4": (
        (("d(a,c)+d(b,b)", "d(a,d)", "d(d,d)"), ()),
        (("d(a,c)+d(b,b)", "d(a,d)", "d(d,d)", "d(b,d)"), ()),
    ),
    "J4,5": (
        (
            ("d(a,a)", "d(b,b)", "d(c,c)", "d(a,b)", "d(a,c)", "d(b,c)"),
            ("d(c,c)+d(a,b)",),
        ),
        (
            (
                "d(a,a)", "d(b,b)", "d(c,c)", "d(a,b)", "d(a,c)", "d(b,c)",
                "d(a,d)", "d(b,d)", "d(c,d)",
            ),
            ("d(c,c)+d(a,b)",),
        ),
    ),
    "J4,6": (None, (("d(a,b)", "d(a,c)", "d(c,c)", "d(b,d)"), ())),
    "J4,7": (
        (("d(a,c)", "d(a,b)", "d(c,c)"), ("d(a,b)+d(c,c)",)),
        (("d(a,c)", "d(a,b)", "d(c,c)", "d(b,b)+d(a,d)"), ("d(a,b)+d(c,c)",)),
    ),
    "J4,8": (None, (("d(a,a)", "d(b,b)", "d(b,c)"), ())),
    "J4,9": (
        None,
        (("d(a,a)", "d(b,b)", "d(a,c)", "d(b,c)"), ("d(b,b)+d(a,c)",)),
    ),
    "J4,10": (
        None,
        (("d(a,a)", "d(b,b)", "d(a,c)", "d(b,c)"), ("d(a,c)+d(b,c)",)),
    ),
    "J4,11": ((("d(a,d)+d(b,b)",), ()), (("d(a,d)+d(b,b)",), ())),
    "J4,12": (
        (("d(a,c)", "d(b,b)", "d(a,d)+d(b,c)"), ()),
        (("d(a,c)", "d(b,b)", "d(a,d)", "d(b,c)", "d(b,d)"), ()),
    ),
    "J4,13": (
        (("d(a,b)", "d(a,c)", "d(b,d)"), ()),
        (("d(a,b)", "d(a,c)", "d(b,d)", "d(b,c)", "d(a,d)"), ()),
    ),
}


# ---------------------------------------------------------------------------
# verified isomorphism maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoMapSpec:
    """A concrete isomorphism claim: src, dst, and basis-image columns."""

    key: str
    src: str
    src_binding: tuple
    dst: str
    dst_binding: tuple
    field: Field
    columns: tuple  # columns[i] = image coordinates of src basis vector i

    def resolve(self):
        src = resolve(self.src, dict(self.src_binding), self.field)
        dst = resolve(self.dst, dict(self.dst_binding), self.field)
        rows = [
            [self.columns[c][r] for c in range(len(self.columns))]
            for r in range(len(self.columns[0]))
        ]
        return src, dst, Matrix.from_rows(self.field, rows)


F5 = Field(5)


def _iso(key, src, dst, field, columns, src_binding=(), dst_binding=()):
    return IsoMapSpec(
        key=key,
        src=src,
        src_binding=tuple(src_binding),
        dst=dst,
        dst_binding=tuple(dst_binding),
        field=field,
        columns=tuple(tuple(c) for c in columns),
    )


# sigma = 2 plays the role of a square root of -1 over F_5
KNOWN_MAPS = (
    _iso("phi1", "R_J1", "J4,3", F5,
         [("1", "1/2", "0", "0"), ("2", "-1", "0", "0"),
          ("0", "0", "1", "0"), ("0", "0", "0", "1")]),
    _iso("phi1_J5", "R_J5", "J4,5", F5,
         [("1", "1/2", "0", "0"), ("2", "-1", "0", "0"),
          ("0", "0", "1", "0"), ("0", "0", "0", "1")]),
    _iso("phi2", "R_J2", "J4,10", F5,
         [("1/2", "1/2", "0", "0"), ("1", "-1", "0", "0"),
          ("0", "0", "1/2", "0"), ("0", "0", "0", "1/2")]),
    _iso("phi3", "R_J3", "J4,8", QQ,
         [("1", "1/2", "0", "0"), ("1", "-1/2", "0", "0"),
          ("0", "0", "1", "0"), ("0", "0", "0", "1")]),
    _iso("phi4", "R_J4", "J4,9", QQ,
         [("1", "-1", "-1/2", "0"), ("1", "1", "-1/2", "0"),
          ("0", "0", "-2", "0"), ("0", "0", "0", "-2")]),
    _iso("phi5", "R_J6", "J4,13", QQ,
         [("1", "1", "0", "0"), ("1", "-1", "0", "0"),
          ("0", "0", "1", "1"), ("0", "0", "1", "-1")]),
    _iso("v7_to_v3", "V7_J32", "J5,33", QQ,
         [("1", "4/9", "2/3", "0", "0"), ("0", "1", "0", "16/27", "4/3"),
          ("0", "1/3", "1", "0", "0"), ("0", "0", "0", "1", "0"),
          ("0", "0", "0", "2/3", "1")]),
    _iso("v5_to_v8", "J5,41", "V8_J33", QQ,
         [("1", "0", "1/2", "0", "0"), ("0", "1", "0", "0", "0"),
          ("0", "0", "1", "0", "0"), ("0", "0", "0", "1", "0"),
          ("0", "0", "0", "1", "1")]),
    _iso("v10_to_v6", "V10_1_J33", "J5,42", QQ,
         [("1", "0", "1/2", "0", "0"), ("0", "-1", "-1/2", "0", "0"),
          ("0", "0", "-1", "-1/2", "-1/2"), ("0", "0", "0", "-1", "0"),
          ("0", "0", "0", "1", "1")]),
    _iso("fam26", "J5,26", "J5,26", QQ,
         [("1", "0", "0", "0", "0"), ("0", "-1", "0", "0", "0"),
          ("0", "0", "1", "0", "0"), ("0", "0", "0", "-1", "0"),
          ("0", "0", "0", "0", "1")],
         src_binding=(("alpha", "2"),), dst_binding=(("alpha", "-2"),)),
    _iso("fam29", "J5,29", "J5,29", QQ,
         [("1", "0", "0", "0", "0"), ("0", "-1", "0", "0", "0"),
          ("0", "0", "1", "0", "0"), ("0", "0", "0", "1", "0"),
          ("0", "0", "0", "0", "1")],
         src_binding=(("alpha", "2"),), dst_binding=(("alpha", "-2"),)),
    _iso("fam30", "J5,30", "J5,30", QQ,
         [("0", "1", "0", "0", "0"), ("1", "0", "0", "0", "0"),
          ("0", "0", "0", "1", "0"), ("0", "0", "1", "0", "0"),
          ("0", "0", "0", "0", "1")],
         src_binding=(("alpha", "1"), ("beta", "2")),
         dst_binding=(("alpha", "2"), ("beta", "1"))),
    _iso("fam44", "J5,44", "J5,44", QQ,
         [("0", "2", "0", "0", "0"), ("2", "0", "0", "0", "0"),
          ("0", "0", "4", "0", "0"), ("0", "0", "0", "8", "0"),
          ("0", "0", "0", "0", "2")],
         src_binding=(("alpha", "2"),), dst_binding=(("alpha", "1/2"),)),
)

# the sigma-free rational form of phi2 is not a homomorphism
# over the rationals (the squares of the two presentations have inequivalent
# rational quadratic forms); kept as a negative control
PHI2_VERBATIM_Q = _iso(
    "phi2_verbatim", "R_J2", "J4,10", QQ,
    [("1/2", "1/2", "0", "0"), ("1/2", "-1/2", "0", "0"),
     ("0", "0", "1/2", "0"), ("0", "0", "0", "1/2")])

# Verified overlaps between distinct catalog entries.  The first holds over
# the rationals; the other two need a square root of -1, so they hold over
# any algebraically closed field (verified here over F_5 with sigma = 2) and
# over F_p exactly when p = 1 mod 4.
OVERLAP_MAPS = (
    _iso("overlap_25_44a0", "J5,25", "J5,44", QQ,
         [("-1/2", "1/2", "0", "0", "0"), ("0", "1", "0", "0", "0"),
          ("0", "0", "-1/2", "0", "1/4"), ("0", "0", "-1/2", "0", "0"),
          ("0", "0", "0", "-1/2", "0")],
         dst_binding=(("alpha", "0"),)),
    _iso("overlap_29a0_44a1", "J5,29", "J5,44", F5,
         [("1", "1", "0", "0", "0"), ("3", "2", "0", "0", "0"),
          ("0", "0", "2", "0", "2"), ("0", "0", "2", "0", "3"),
          ("0", "0", "0", "4", "0")],
         src_binding=(("alpha", "0"),), dst_binding=(("alpha", "1"),)),
    _iso("overlap_30a1b1_44am1", "J5,30", "J5,44", F5,
         [("2", "1", "0", "0", "0"), ("1", "2", "0", "0", "0"),
          ("0", "0", "4", "0", "3"), ("0", "0", "4", "0", "2"),
          ("0", "0", "0", "2", "0")],
         src_binding=(("alpha", "1"), ("beta", "1")),
         dst_binding=(("alpha", "-1"),)),
)

KNOWN_OVERLAP_PAIRS = frozenset(
    frozenset((instance_label(m.src, dict(m.src_binding)),
               instance_label(m.dst, dict(m.dst_binding))))
    for m in OVERLAP_MAPS
)


# the four parametric equivalences: name -> predicate on two bindings
def equivalent_parameters(name: str, b1, b2, field: Field = QQ) -> bool:
    """Whether two admissible bindings of a family are the same algebra.

    Evaluated in ``field``: distinct rational parameters can coincide after
    reduction modulo a prime, making the stated equivalence hold there.
    """
    f1 = {k: field.of(Fraction(v)) for k, v in b1.items()}
    f2 = {k: field.of(Fraction(v)) for k, v in b2.items()}
    if f1 == f2:
        return True
    if name in ("J5,26", "J5,29"):
        return f1["alpha"] == field.neg(f2["alpha"])
    if name == "J5,30":
        return (f1["alpha"], f1["beta"]) == (f2["beta"], f2["alpha"])
    if name == "J5,44":
        a, b = f1["alpha"], f2["alpha"]
        return bool(b) and a == field.inv(b)
    return False


def family_equivalence_map(name: str, b1, b2, field: Field = QQ):
    """Explicit basis-image columns realizing a stated family equivalence."""
    if not equivalent_parameters(name, b1, b2, field):
        return None
    f1 = {k: field.of(Fraction(v)) for k, v in b1.items()}
    f2 = {k: field.of(Fraction(v)) for k, v in b2.items()}
    if f1 == f2 or name not in ("J5,26", "J5,29", "J5,30", "J5,44"):
        cols = [[1 if r == c else 0 for r in range(5)] for c in range(5)]
    elif name == "J5,26":
        cols = _diag_cols((1, -1, 1, -1, 1))
    elif name == "J5,29":
        cols = _diag_cols((1, -1, 1, 1, 1))
    elif name == "J5,30":
        cols = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    else:  # J5,44: alpha <-> 1/alpha
        a = f1["alpha"]
        a2 = field.mul(a, a)
        a3 = field.mul(a2, a)
        cols = [[0, a, 0, 0, 0], [a, 0, 0, 0, 0], [0, 0, a2, 0, 0],
                [0, 0, 0, a3, 0], [0, 0, 0, 0, a]]
    return Matrix.from_rows(field, [[cols[c][r] for c in range(5)] for r in range(5)])


def _diag_cols(diag):
    return [[diag[c] if r == c else 0 for r in range(5)] for c in range(5)]


# ---------------------------------------------------------------------------
# algebra documents (JSON)
# ---------------------------------------------------------------------------


def serialize_algebra(A: Algebra, name: str = "") -> dict:
    products = []
    for (i, j), terms in sorted(A.products().items()):
        products.append(
            {
                "i": i,
                "j": j,
                "terms": [{"k": k, "c": A.field.fmt(c)} for k, c in sorted(terms.items())],
            }
        )
    field = "Q" if not A.field.is_prime_field else {"p": A.field.p}
    return {
        "name": name,
        "dim": A.dim,
        "field": field,
        "basis": list(A.names),
        "products": products,
    }


def parse_algebra(doc) -> Algebra:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # also Python's limit on integer digits
            raise DocumentError(f"algebra document is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("algebra document must be a JSON object")
    try:
        dim = doc["dim"]
        field_spec = doc["field"]
        basis = doc["basis"]
        products_doc = doc.get("products", [])
    except KeyError as exc:
        raise DocumentError(f"missing document key {exc}") from exc
    if field_spec == "Q":
        field = QQ
    elif isinstance(field_spec, dict) and set(field_spec) == {"p"}:
        p = field_spec["p"]
        if not isinstance(p, int) or not is_prime(p):
            raise DocumentError(f"field modulus {p!r} is not prime")
        if p < 5:
            raise DocumentError(f"prime field F_{p} not supported (need p >= 5)")
        field = Field(p)
    else:
        raise DocumentError(f"bad field spec {field_spec!r}")
    if not isinstance(basis, list) or len(basis) != dim:
        raise DocumentError("basis must list exactly dim names")
    if not all(isinstance(name, str) for name in basis):
        raise DocumentError("basis names must be strings")
    if not isinstance(products_doc, list):
        raise DocumentError("products must be a list")
    products = {}
    for item in products_doc:
        try:
            i, j, terms = item["i"], item["j"], item["terms"]
        except (TypeError, KeyError) as exc:
            raise DocumentError("malformed product item") from exc
        if not (isinstance(i, int) and isinstance(j, int)):
            raise DocumentError("product indices must be integers")
        if i > j:
            raise DocumentError(f"product pair ({i},{j}) must have i <= j")
        if not (0 <= i <= j < dim):
            raise DocumentError(f"product pair ({i},{j}) out of range")
        if (i, j) in products:
            raise DocumentError(f"duplicate product pair ({i},{j})")
        if not isinstance(terms, list):
            raise DocumentError(f"terms of product ({i},{j}) must be a list")
        row = {}
        for term in terms:
            try:
                k, c = term["k"], term["c"]
            except (TypeError, KeyError) as exc:
                raise DocumentError(f"malformed term in product ({i},{j})") from exc
            if not isinstance(k, int) or not 0 <= k < dim:
                raise DocumentError(f"product target index {k!r} out of range")
            if k in row:
                raise DocumentError(f"duplicate target {k} in product ({i},{j})")
            row[k] = field.parse(str(c))
        products[(i, j)] = row
    return Algebra(field, tuple(basis), products)
