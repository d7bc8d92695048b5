import json

import pytest
from hypothesis import given, settings, strategies as st

from nilj import catalog
from nilj.algebra import Algebra, jordan_identity_holds
from nilj.cohomology import h2, parse_cocycle
from nilj.errors import DocumentError, InadmissibleParameterError, NiljError, UnknownAlgebraError
from nilj.fields import QQ, Field
from nilj.linalg import Subspace


def test_catalog_counts():
    # the bundled golden counts say nineteen, but the table itself lists
    # twenty algebras of dimension <= 4 (1 + 2 + 4 + 13)
    assert len(catalog.dim_le4_names()) == 20
    assert len(catalog.dim5_names()) == 44
    assert len(catalog.names()) == 64


def test_instantiate_examples():
    A = catalog.instantiate("J5,2")
    assert A.products() == {(0, 0): {1: QQ.one}, (1, 2): {3: QQ.one}, (1, 3): {4: QQ.one}}
    B = catalog.instantiate("J4,6")
    assert B.products() == {(0, 0): {1: QQ.one}, (1, 2): {3: QQ.one}}
    with pytest.raises(InadmissibleParameterError):
        catalog.instantiate("J5,27", {"alpha": "1"})
    with pytest.raises(InadmissibleParameterError):
        catalog.instantiate("J5,27", {"alpha": "0"})
    with pytest.raises(InadmissibleParameterError):
        catalog.instantiate("J5,17", {})  # missing parameter
    with pytest.raises(UnknownAlgebraError):
        catalog.instantiate("J9,1")


def test_parameter_substitution():
    A = catalog.instantiate("J5,30", {"alpha": "1/2", "beta": "-1"})
    prods = A.products()
    assert prods[(1, 3)] == {4: QQ.parse("1/2")}
    assert prods[(0, 2)] == {4: QQ.parse("-1")}
    B = catalog.instantiate("J5,17", {"alpha": "0"})
    assert (3, 3) not in B.products()


def test_sample_bindings_respect_admissibility():
    samples = catalog.sample_bindings("J5,27")
    assert {b["alpha"] for b in samples} == {"-1", "2", "1/2"}
    assert len(catalog.sample_bindings("J5,30")) == 9
    assert catalog.sample_bindings("J5,9") == [{}]


def test_instance_labels():
    assert catalog.instance_label("J5,9", {}) == "J5,9"
    assert catalog.instance_label("J5,30", {"alpha": "1", "beta": "1/2"}) == "J5,30[alpha=1,beta=1/2]"


def test_lineage_parents_follow_the_allowed_groups():
    nonassoc_parents = {"J4,6", "J4,8", "J4,9", "J4,10"}
    assoc_parents_1d = {"J4,2", "J4,3", "J4,4", "J4,5", "J4,7", "J4,12", "J4,13"}
    assoc_parents_2d = {"J3,2", "J3,3"}
    for name in catalog.dim5_names():
        entry = catalog.get(name)
        binding = catalog.sample_bindings(name)[-1]
        parent, cocycles = catalog.lineage(name, binding)
        parent_name = entry.parent
        spaces = h2(parent)
        if parent_name in nonassoc_parents:
            assert len(cocycles) == 1
            continue
        # associative parents need some defining cocycle outside the
        # associativity-constrained part (modulo coboundaries)
        assoc_span = Subspace.span(
            parent.field,
            spaces.z2.ambient,
            [list(c.upper()) for c in spaces.h2_assoc_reps]
            + [list(v) for v in spaces.b2.vectors()],
        )
        outside = [c for c in cocycles if not assoc_span.contains(c.upper())]
        if parent_name in assoc_parents_1d:
            assert len(cocycles) == 1 and outside
        else:
            assert parent_name in assoc_parents_2d
            assert len(cocycles) == 2 and outside


def test_lineage_cocycles_belong_to_z2_except_known_defects():
    bad = []
    for name in catalog.dim5_names():
        for binding in catalog.sample_bindings(name):
            parent, cocycles = catalog.lineage(name, binding)
            spaces = h2(parent)
            if not all(spaces.z2.contains(c.upper()) for c in cocycles):
                bad.append(name)
                break
    assert bad == ["J5,2", "J5,3"]


def test_adhoc_presentations_are_jordan():
    for name in catalog.ADHOC:
        A = catalog.adhoc(name, QQ)
        assert jordan_identity_holds(A), name


def test_equivalent_parameters():
    assert catalog.equivalent_parameters("J5,26", {"alpha": "1"}, {"alpha": "-1"})
    assert not catalog.equivalent_parameters("J5,26", {"alpha": "1"}, {"alpha": "2"})
    assert catalog.equivalent_parameters("J5,30", {"alpha": "1", "beta": "2"},
                                         {"alpha": "2", "beta": "1"})
    assert catalog.equivalent_parameters("J5,44", {"alpha": "2"}, {"alpha": "1/2"})
    assert not catalog.equivalent_parameters("J5,44", {"alpha": "0"}, {"alpha": "1"})
    # distinct rational values can merge after reduction: 1/2 = -2 mod 5
    F5 = Field(5)
    assert catalog.equivalent_parameters("J5,26", {"alpha": "2"}, {"alpha": "1/2"}, F5)
    assert not catalog.equivalent_parameters("J5,26", {"alpha": "2"}, {"alpha": "1/2"})


def test_serialize_matches_document_schema():
    doc = catalog.serialize_algebra(catalog.instantiate("J2,2"), "J2,2")
    assert doc == {
        "name": "J2,2",
        "dim": 2,
        "field": "Q",
        "basis": ["a", "b"],
        "products": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1"}]}],
    }


def test_parse_serialize_round_trip():
    A = catalog.instantiate("J5,44", {"alpha": "1/2"})
    doc = catalog.serialize_algebra(A, "x")
    assert catalog.parse_algebra(json.dumps(doc)) == A
    B = catalog.adhoc("V8_J33", Field(7))
    assert catalog.parse_algebra(catalog.serialize_algebra(B)) == B


def test_parse_algebra_validation():
    base = catalog.serialize_algebra(catalog.instantiate("J2,2"))
    bad = dict(base, products=[{"i": 1, "j": 0, "terms": [{"k": 1, "c": "1"}]}])
    with pytest.raises(DocumentError):
        catalog.parse_algebra(bad)
    bad = dict(base, products=base["products"] * 2)
    with pytest.raises(DocumentError):
        catalog.parse_algebra(bad)
    with pytest.raises(DocumentError):
        catalog.parse_algebra(dict(base, field={"p": 4}))
    with pytest.raises(DocumentError):
        catalog.parse_algebra(dict(base, field={"p": 3}))
    bad = dict(base, products=[{"i": 0, "j": 0, "terms": [{"k": 7, "c": "1"}]}])
    with pytest.raises(DocumentError):
        catalog.parse_algebra(bad)


def test_parse_algebra_rejects_incomplete_terms():
    base = catalog.serialize_algebra(catalog.instantiate("J2,2"))
    for term in ({"c": "1"}, {"k": 1}, 3):
        bad = dict(base, products=[{"i": 0, "j": 0, "terms": [term]}])
        with pytest.raises(DocumentError):
            catalog.parse_algebra(bad)


# JSON values that a document field may hold in place of the right one
_JUNK = st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4) | st.just([])
_SCALAR = (
    st.sampled_from(["1", "-2", "3/4", "0.25", "1/0", "1/5", "1/7", "1e5", "", "x", " 2 ", "--1"])
    | st.integers(-10**6, 10**6)
    | _JUNK
)


def _or_junk(strategy, junk=_JUNK):
    """Mostly values of the strategy, sometimes junk."""
    return st.integers(1, 4).flatmap(lambda c: junk if c == 4 else strategy)


_FIELD = _or_junk(
    st.sampled_from(["Q", {"p": 5}, {"p": 7}]),
    st.sampled_from(["F5", {"p": 5, "q": 1}, {}])
    | st.fixed_dictionaries({"p": st.integers(-3, 40) | st.integers(2**61, 2**64) | _JUNK})
    | _JUNK,
)


def _drop_a_key(dicts):
    """The dicts, each with at most one of its keys dropped."""
    return dicts.flatmap(lambda d: st.sets(st.sampled_from(sorted(d)), max_size=1).map(
        lambda dropped: {k: v for k, v in d.items() if k not in dropped}))


@st.composite
def _documents(draw):
    """Algebra documents near the schema: each field may be missing or junk,
    indices run one past either end, bools stand in for ints, and the basis
    names or product pairs may repeat."""
    n = draw(st.integers(1, 3))
    index = _or_junk(st.integers(-1, n) | st.booleans())
    terms = st.lists(_or_junk(_drop_a_key(st.fixed_dictionaries({"k": index, "c": _SCALAR}))), max_size=3)
    items = st.lists(
        _or_junk(_drop_a_key(st.fixed_dictionaries({"i": index, "j": index, "terms": _or_junk(terms)}))),
        max_size=4,
    )
    names = _or_junk(st.permutations("abcd").map(lambda order: list(order[:n])),
                     st.lists(st.sampled_from("abcd"), max_size=4) | _JUNK)
    return draw(_or_junk(_drop_a_key(st.fixed_dictionaries({
        "dim": _or_junk(st.just(n), st.booleans() | st.integers(0, 4) | _JUNK),
        "field": _FIELD,
        "basis": names,
        "products": _or_junk(items),
    }))))


@settings(max_examples=200, deadline=None)
@given(doc=_documents(), as_text=st.booleans())
def test_parse_algebra_returns_an_algebra_or_refuses(doc, as_text):
    """Wrong types, bools for ints, out-of-range or duplicate indices, bad
    field specs and bad scalars end in a NiljError, never in another error."""
    try:
        A = catalog.parse_algebra(json.dumps(doc) if as_text else doc)
    except NiljError:
        return
    assert isinstance(A, Algebra)
