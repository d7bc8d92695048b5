import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilj import catalog, isomorphism, reports
from nilj.algebra import change_basis
from nilj.cli import main
from nilj.fields import QQ
from nilj.linalg import Matrix


def test_tables_center(capsys):
    assert main(["tables", "--which", "center"]) == 0
    out = capsys.readouterr().out
    assert "section: PASS" in out


def test_tables_h2_reports_failures(capsys):
    assert main(["tables", "--which", "h2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "J4,6" in out


def test_cohomology_command(capsys):
    assert main(["cohomology", "J3,2", "--assoc"]) == 0
    out = capsys.readouterr().out
    assert "dim H2 = 4" in out and "dim H2_assoc = 3" in out


PINNED_COHOMOLOGY = [
    (["J3,2", "--assoc"], """\
dim Z2 = 5
dim B2 = 1
dim H2 = 4
  rep: d(a,b)
  rep: d(a,c)
  rep: d(b,c)
  rep: d(c,c)
dim H2_assoc = 3
  assoc rep: d(a,b)
  assoc rep: d(a,c)
  assoc rep: d(c,c)
"""),
    (["J4,6", "--field", "p:5", "--assoc"], """\
dim Z2 = 5
dim B2 = 2
dim H2 = 3
  rep: d(a,b)
  rep: d(a,c)
  rep: d(c,c)
dim H2_assoc = 3
  assoc rep: d(a,b)
  assoc rep: d(a,c)
  assoc rep: d(c,c)
"""),
    (["J5,17[alpha=2]", "--assoc"], """\
dim Z2 = 6
dim B2 = 3
dim H2 = 3
  rep: d(a,c)+d(b,b)
  rep: d(a,d)
  rep: d(b,d)
dim H2_assoc = 3
  assoc rep: d(a,c)+d(b,b)
  assoc rep: d(a,d)
  assoc rep: d(d,d)
"""),
]


@pytest.mark.parametrize("args, out", PINNED_COHOMOLOGY, ids=[args[0] for args, _ in PINNED_COHOMOLOGY])
def test_cohomology_command_output_is_pinned(capsys, args, out):
    """The whole output, representatives included, byte for byte."""
    assert main(["cohomology", *args]) == 0
    assert capsys.readouterr().out == out


def test_extend_command(capsys):
    code = main([
        "extend", "J3,2", "--cocycle", "d(b,c)", "--cocycle", "d(a,b)", "--diagnose",
    ])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out[: out.index("joint radical")])
    assert catalog.parse_algebra(doc) == catalog.instantiate("J5,31")
    assert "has central component = False" in out


def test_invariants_command(capsys):
    assert main(["invariants", "J2,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["der_dim"] == 2 and data["power_dims"] == [1, 0]


def test_iso_search_command(capsys):
    assert main(["iso", "--search", "--field", "p:5", "R_J2", "J4,10"]) == 0
    assert "isomorphism found over F5" in capsys.readouterr().out
    assert main(["iso", "--search", "--field", "p:5", "J5,2", "J5,3"]) == 1


def test_iso_map_command(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text("1 0\n0 1\n", encoding="utf-8")
    assert main(["iso", "--map", str(path), "J2,2", "J2,2"]) == 0
    path.write_text("0 1\n1 0\n", encoding="utf-8")
    assert main(["iso", "--map", str(path), "J2,2", "J2,2"]) == 1


def test_orbits_command(capsys):
    assert main(["orbits", "J1,1", "--field", "p:5", "--grassmann", "1"]) == 0
    out = capsys.readouterr().out
    assert "admissible 1-subspaces: 1" in out
    assert "|Aut| = 4\n|Aut| = |G1| * |K| = 4 * 1\n" in out


def _unimodular(n, rng):
    """An integer n x n matrix of determinant +-1: shears, then a row shuffle."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(3 * n):
        r, s = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[r] = [x + k * y for x, y in zip(rows[r], rows[s])]
    rng.shuffle(rows)
    return Matrix.from_rows(QQ, rows)


def _census_summary(argv, capsys):
    """The admissible count, the orbit sizes as a multiset and the |Aut| lines of ``nilj orbits``."""
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    sizes = sorted(json.loads(lines[1].split("sizes: ")[1]))
    return lines[0], sizes, [line for line in lines if line.startswith("|Aut|")]


@pytest.mark.parametrize("name, r", [("J4,4", 1), ("J4,7", 1), ("J3,2", 2)])
def test_census_of_a_document_in_another_basis_matches_the_catalog_name(tmp_path, capsys, name, r):
    """A document over Q in a seeded basis of determinant +-1, which stays a
    basis mod 5, gives the catalog name's census over F_5."""
    A = catalog.instantiate(name)
    P = _unimodular(A.dim, random.Random(f"census-doc:{name}"))
    assert P.det() in (1, -1)
    B = change_basis(A, P)
    assert B != A
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(catalog.serialize_algebra(B, name)), encoding="utf-8")
    flags = ["--field", "p:5", "--grassmann", str(r)]
    assert _census_summary(["orbits", f"@{doc}", *flags], capsys) == \
        _census_summary(["orbits", name, *flags], capsys)


def test_lemma_a_command(capsys):
    assert main(["lemma-a", "--alpha", "2,0,0"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out
    assert main(["lemma-a", "--alpha", "0,0,5"]) == 2


def test_algebra_documents_via_file(tmp_path, capsys):
    doc = catalog.serialize_algebra(catalog.instantiate("J2,2"), "J2,2")
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invariants", f"@{path}"]) == 0


def _assert_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("coef", ["1e5000", "1e10000000", "7" * 5000], ids=["1e5000", "1e10000000", "5000 digits"])
def test_long_scalar_literal_is_refused_at_once(capsys, coef):
    t0 = time.time()
    _assert_usage_error(["extend", "J4,6", "--cocycle", f"{coef}*d(a,b)"], capsys)
    assert time.time() - t0 < 1


def test_product_term_without_target_is_a_usage_error(tmp_path, capsys):
    doc = {"dim": 2, "field": "Q", "basis": ["a", "b"],
           "products": [{"i": 0, "j": 0, "terms": [{"c": 1}]}]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _assert_usage_error(["invariants", f"@{path}"], capsys)


def test_non_nilpotent_document_is_a_usage_error(tmp_path, capsys):
    doc = {"dim": 1, "field": "Q", "basis": ["a"],
           "products": [{"i": 0, "j": 0, "terms": [{"k": 0, "c": 1}]}]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _assert_usage_error(["invariants", f"@{path}"], capsys)


_DOC = {"dim": 2, "field": "Q", "basis": ["a", "b"]}
BAD_DOCUMENTS = {
    "products_not_a_list.json": dict(_DOC, products=5),
    "terms_not_a_list.json": dict(_DOC, products=[{"i": 0, "j": 0, "terms": 5}]),
    "list_names.json": dict(_DOC, basis=[["a"], ["b"]], products=[]),
    "int_names.json": dict(_DOC, basis=[1, 2], products=[]),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-catalog", "--params", "alpha"],
        ["invariants", "J5,30[alpha]"],
        ["invariants", "J5,30[alpha=1/0,beta=1]"],
        ["orbits", "J3,2", "--field", "p:abc"],
        ["report", "--primes", "5,x"],
        ["invariants", "@{tmp}/missing.json"],
        ["invariants", "@{tmp}/bad.json"],
        ["invariants", "@{tmp}/huge_int.json"],
        ["iso", "J2,1", "J2,1", "--map", "{tmp}/missing"],
        ["lemma-a", "--alpha", "1,2"],
        ["iso", "J2,1", "J2,1", "--search"],
        ["iso", "J2,1", "J2,1"],
        ["invariants", "@{tmp}/products_not_a_list.json"],
        ["invariants", "@{tmp}/terms_not_a_list.json"],
        ["invariants", "@{tmp}/list_names.json"],
        ["invariants", "@{tmp}/int_names.json"],
        ["orbits", "J3,2", "--field", "p:5", "--grassmann", "0"],
        # '²' passes str.isdigit but not int()
        ["extend", "J4,6", "--cocycle", "d(²,1)"],
        # the first prime above 2^63: refused by the search budget, not by an int64 overflow
        ["iso", "--search", "--field", "p:9223372036854775837", "J4,6", "J4,6"],
        # each field is searched once; a repeated prime would run its searches twice
        ["report", "--primes", "5,5"],
        # an unwritable --out is refused before the report is built
        ["report", "--primes", "5", "--out", "{tmp}/missing/r.txt"],
        # the auxiliary presentations take no parameters, whether a key names a basis vector or not
        ["invariants", "R_J1[a=2]"],
        ["invariants", "R_J1[zzz=2]"],
        # a repeated key would silently drop one of its values
        ["invariants", "J5,30[alpha=1,alpha=2,beta=1]"],
        # a binding that no family takes would be ignored
        ["verify-catalog", "--params", "zzz=1"],
        # a --primes list with an empty entry, a composite or a negative number
        ["report", "--primes", ""],
        ["report", "--primes", "4"],
        ["report", "--primes", "7,-1"],
        ["report", "--primes", "5,7,"],
    ],
)
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # bad input is refused before any report is built
    monkeypatch.setattr(reports, "build_report", lambda primes: pytest.fail("report was built"))
    (tmp_path / "bad.json").write_text('{"dim": 2,', encoding="utf-8")
    # more digits than Python converts to an int
    (tmp_path / "huge_int.json").write_text('{"dim": ' + "7" * 5000 + "}", encoding="utf-8")
    for name, doc in BAD_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    _assert_usage_error([arg.format(tmp=tmp_path) for arg in argv], capsys)


def _unverified_search(monkeypatch):
    monkeypatch.setattr(isomorphism, "verify_isomorphism", lambda m: False)
    return ["iso", "J2,1", "J2,1", "--search", "--field", "p:5"]


def _corrupted_lifts(monkeypatch):
    lift = isomorphism._lift_candidates

    def corrupted(MA, MB, leaves, all_lifts):
        for maps in lift(MA, MB, leaves, all_lifts):
            maps = maps.copy()
            maps[:, 0, 0] = (maps[:, 0, 0] + 1) % 5  # e_0 moves, its products do not
            yield maps

    monkeypatch.setattr(isomorphism, "_lift_candidates", corrupted)
    return ["orbits", "J4,4", "--field", "p:5"]


def _zero_kernel_action(monkeypatch):
    induced = isomorphism._induced_actions

    def broken(spaces, *groups):
        XT, XK = induced(spaces, *groups)
        return XT, np.concatenate([XK[:-1], 0 * XK[-1:]])

    monkeypatch.setattr(isomorphism, "_induced_actions", broken)
    return ["orbits", "J4,4", "--field", "p:5"]


@pytest.mark.parametrize("inject, message", [
    (_unverified_search, "search produced an unverified candidate"),
    (_corrupted_lifts, "enumerated automorphism"),
    (_zero_kernel_action, "orbit left the admissible census"),
], ids=["search", "cosets", "census"])
def test_a_failed_self_check_exits_1(monkeypatch, capsys, inject, message):
    """A self-check of the engine that fails is a failed verification (exit 1), not bad input."""
    assert main(inject(monkeypatch)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_python_m_nilj_exit_codes():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "nilj", *argv], env=env, capture_output=True, text=True)

    assert run("--help").returncode == 0
    bad = run("report", "--primes", "5,5")
    assert bad.returncode == 2 and "duplicate prime" in bad.stderr and "Traceback" not in bad.stderr


def test_verify_catalog_exit_code(capsys):
    # two bundled entries fail the Jordan identity, so verification fails
    assert main(["verify-catalog"]) == 1
    out = capsys.readouterr().out
    assert "J5,2" in out and "J5,3" in out


def test_report_document_is_deterministic():
    doc1 = reports.ReportDocument((reports.center_table(), reports.assoc_table()))
    doc2 = reports.ReportDocument((reports.center_table(), reports.assoc_table()))
    assert doc1.render_text() == doc2.render_text()
    assert doc1.to_json() == doc2.to_json()


# a rational form of J5,41 that splits off over F_5 but not over F_11
TWISTED_J541 = {
    "name": "twisted J5,41", "dim": 5, "field": "Q", "basis": ["a", "b", "c", "d", "e"],
    "products": [
        {"i": 0, "j": 0, "terms": [{"k": 3, "c": "1"}]},
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]},
        {"i": 1, "j": 1, "terms": [{"k": 4, "c": "1"}]},
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}, {"k": 4, "c": "2"}]},
    ],
}

PINNED_SEARCHES = [
    (["p:5", "R_J2", "J4,10"], 0, [
        "isomorphism found over F5; columns are basis images:",
        "  ['1', '1', '0', '0']",
        "  ['3', '2', '0', '0']",
        "  ['0', '0', '2', '0']",
        "  ['0', '0', '0', '4']",
    ]),
    (["p:7", "J5,30[alpha=1,beta=2]", "J5,30[alpha=2,beta=1]"], 0, [
        "isomorphism found over F7; columns are basis images:",
        "  ['0', '1', '0', '0', '0']",
        "  ['1', '0', '0', '0', '0']",
        "  ['0', '0', '0', '1', '0']",
        "  ['0', '0', '1', '0', '0']",
        "  ['0', '0', '0', '0', '1']",
    ]),
    (["p:7", "J5,41", "V8_J33"], 0, [
        "isomorphism found over F7; columns are basis images:",
        "  ['1', '0', '4', '0', '0']",
        "  ['0', '1', '0', '0', '0']",
        "  ['0', '0', '1', '0', '0']",
        "  ['0', '0', '0', '1', '0']",
        "  ['0', '0', '0', '1', '1']",
    ]),
    (["p:11", "@twisted", "J5,41"], 0, [
        "isomorphism found over F11; columns are basis images:",
        "  ['0', '3', '0', '0', '0']",
        "  ['1', '0', '9', '0', '0']",
        "  ['0', '0', '3', '0', '0']",
        "  ['0', '0', '0', '0', '9']",
        "  ['0', '0', '0', '7', '1']",
    ]),
    (["p:5", "@twisted", "J5,41"], 1, ["no isomorphism over F5"]),
    # the F_5 fingerprints differ, so the search is pruned before it starts
    (["p:5", "J5,2", "J5,3"], 1, ["no isomorphism over F5"]),
]


@pytest.mark.parametrize("args, code, lines", PINNED_SEARCHES,
                         ids=[" ".join(args) for args, _, _ in PINNED_SEARCHES])
def test_iso_search_output_is_pinned(tmp_path, capsys, args, code, lines):
    """The exact map the search prints is part of its contract: the engine
    must keep its candidate order, so the first hit does not move."""
    doc = tmp_path / "twisted.json"
    doc.write_text(json.dumps(TWISTED_J541), encoding="utf-8")
    field, src, dst = (f"@{doc}" if a == "@twisted" else a for a in args)
    assert main(["iso", "--search", "--field", field, src, dst]) == code
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("block", [3, 7])
def test_block_size_moves_no_pinned_search(tmp_path, capsys, monkeypatch, block):
    """Every search stage streams its candidates AUT_BLOCK at a time; the
    block boundaries must not move the first hit of the F_5 and F_7 searches."""
    doc = tmp_path / "twisted.json"
    doc.write_text(json.dumps(TWISTED_J541), encoding="utf-8")
    monkeypatch.setattr(isomorphism, "AUT_BLOCK", block)
    for args, code, lines in PINNED_SEARCHES:
        if args[0] in ("p:5", "p:7"):
            field, src, dst = (f"@{doc}" if a == "@twisted" else a for a in args)
            assert main(["iso", "--search", "--field", field, src, dst]) == code
            assert capsys.readouterr().out.splitlines() == lines


def test_unprovable_prime_is_a_usage_error(capsys):
    # 2^89 - 1 is prime, but above the range where the primality test is a proof
    assert main(["invariants", "J2,2", "--field", f"p:{2**89 - 1}"]) == 2
    assert "not proven" in capsys.readouterr().err


# -- fuzzing the argv contract ------------------------------------------------------

# valid choices are listed more than once, so that most runs get past parsing
_FIELDS = ["Q", "p:5", "p:7"] * 3 + ["p:2", "p:4", "p:abc", "Z", "p:", "p:9223372036854775837", f"p:{2**89 - 1}"]
_VALUES = ["0", "1", "-1", "2", "1/2", "-3/4"] * 2 + ["1/0", "x", "", "1e5000", "2**3", "²"]
# the census gets neither J3,1 nor documents, which may hold a zero algebra of dimension 3:
# with p = 5 it acts with all of GL_3(F_5), 1.5 GB and 20 s
_SMALL = [n for n in catalog.names() if catalog.get(n).dim <= 3 and n != "J3,1"]


def _binding():
    item = st.one_of(
        st.builds("{}={}".format, st.sampled_from(["alpha", "beta", " alpha "] * 2 + ["gamma", "", "a", "c"]),
                  st.sampled_from(_VALUES)),
        st.text(max_size=6),
    )
    return st.lists(item, min_size=1, max_size=3).map(",".join)


def _ref(names, docs=True):
    return st.one_of(
        st.sampled_from(names),
        st.sampled_from(names),
        st.builds("{}[{}]".format, st.sampled_from(names), _binding()),
        st.just("@doc" if docs else names[0]),
        st.text(max_size=8),
    )


_SCALAR = st.one_of(st.sampled_from(_VALUES), st.sampled_from(_VALUES), st.text(max_size=5))
_TERM = st.builds(
    "{}{}({},{})".format,
    st.sampled_from(["", "2*", "-1/2*", "-"] * 2 + ["0*", "1e5000*", "x*"]),
    st.sampled_from(["d"] * 4 + ["delta", "q"]),
    st.sampled_from(["a", "b", "c", "d", "1", "2"] * 2 + ["z", "9", "", "²"]),
    st.sampled_from(["a", "b", "c", "d", "1", "3"] * 2 + ["a,b", ""]),
)
_COCYCLE = st.one_of(st.lists(_TERM, min_size=1, max_size=3).map("+".join), st.text(max_size=10))
_DOC = st.fixed_dictionaries(
    {"dim": st.integers(1, 3), "field": st.sampled_from(["Q", "Q", {"p": 5}, {"p": 4}, "F"])},
    optional={
        "basis": st.lists(st.sampled_from(["a", "b", "c", "a1", 1]), max_size=3),
        "products": st.lists(st.fixed_dictionaries(
            {"i": st.integers(-1, 3), "j": st.integers(-1, 3),
             "terms": st.lists(st.fixed_dictionaries({"k": st.integers(-1, 3), "c": _SCALAR}), max_size=2)},
        ), max_size=4),
    },
).map(json.dumps) | st.text(max_size=20)


def _flag(name, values):
    return st.one_of(st.just([]), st.builds(lambda v: [name, v], values))


def _argv(tag, *parts):
    return st.tuples(*parts).map(lambda ps: [tag] + [a for p in ps for a in (p if isinstance(p, list) else [p])])


_FIELD = _flag("--field", st.sampled_from(_FIELDS))
_ARGVS = st.one_of(
    _argv("verify-catalog", _flag("--params", _binding())),
    _argv("tables", _flag("--which", st.sampled_from(["center", "assoc", "h2", "x"]))),
    _argv("cohomology", _ref(catalog.names()), st.sampled_from([[], ["--assoc"]]), _FIELD),
    _argv("extend", _ref(catalog.names()), st.lists(_COCYCLE, min_size=1, max_size=3).map(
        lambda cs: [a for c in cs for a in ("--cocycle", c)]), st.sampled_from([[], ["--diagnose"]]), _FIELD),
    _argv("invariants", _ref(catalog.names() + list(catalog.ADHOC)), _FIELD),
    _argv("iso", _ref(catalog.names()), _ref(catalog.names()),
          st.sampled_from([["--search"], ["--map", "@map"], [], ["--search", "--map", "@map"]]), _FIELD),
    _argv("orbits", _ref(_SMALL, docs=False),
          _flag("--field", st.sampled_from(["p:5", "p:7", "p:5", "p:7", "Q", "p:x"])),
          _flag("--grassmann", st.integers(-2, 4).map(str))),
    _argv("lemma-a", st.builds(lambda xs: ["--alpha", ",".join(xs)], st.one_of(
        st.lists(_SCALAR, min_size=3, max_size=3), st.lists(_SCALAR, max_size=4))), _FIELD),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(argv=_ARGVS, doc=_DOC, mapping=st.lists(st.lists(_SCALAR, max_size=3).map(" ".join), max_size=3))
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(fuzz_dir, argv, doc, mapping):
    """Every subcommand but ``report`` (see the tests above), on catalog
    references with and without bindings, garbage, and ``@file`` documents."""
    (fuzz_dir / "doc.json").write_text(doc, encoding="utf-8")
    (fuzz_dir / "map.txt").write_text("\n".join(mapping), encoding="utf-8")
    argv = [a.replace("@doc", f"@{fuzz_dir / 'doc.json'}").replace("@map", str(fuzz_dir / "map.txt")) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
