"""Fixtures shared by the tests: the report built once, the property
tests that compare tensor code with loops, and the helpers that only tests
call (the whole-group search, the automorphism test, direct sums)."""

import string
import time
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from nilj import isomorphism, reports
from nilj.algebra import Algebra, is_multiplicative
from nilj.fields import QQ, Field, same_field

# above the int64 guard at every width, so the structure tensor holds Python ints
BIG_P = 3037000507


def _scalars(field):
    if field.p is None:
        # numerators up to 10^12 over denominators up to 10^6: triple products
        # of the scaled constants overflow int64
        big = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
        return st.sampled_from([Fraction(1), Fraction(-1)]) | big
    return st.integers(0, field.p - 1)


@st.composite
def _nilpotent_algebras(draw, field):
    """Strictly upper-triangular constants: e_i e_j lies in span(e_k : k > j >= i)."""
    n = draw(st.integers(1, 6))
    products = {}
    for i in range(n):
        for j in range(i, n - 1):
            products[(i, j)] = draw(
                st.dictionaries(st.integers(j + 1, n - 1), _scalars(field), max_size=2)
            )
    return Algebra(field, [f"e{k}" for k in range(n)], products)


@pytest.fixture(scope="session", params=(QQ, Field(5), Field(7), Field(BIG_P)), ids=repr)
def any_field(request):
    """Q, F_5, F_7 and a prime whose structure tensor is not int64."""
    return request.param


@pytest.fixture(scope="session")
def nilpotent_algebras():
    """Strategy factory: random nilpotent algebras of dimension 1-6 over a field."""
    return _nilpotent_algebras


def _every_isomorphism(A, B):
    """Every lift of every graded leaf of A -> B over F_p, with every setting
    of the free digits, as engine-coordinate (k, n, n) arrays: the whole-group
    search that the automorphism cosets replaced, kept as their reference."""
    MA, MB = isomorphism._model(A), isomorphism._model(B)
    for leaves in isomorphism._leaf_stream(MA, MB):
        for maps in isomorphism._lift_candidates(MA, MB, leaves, True):
            yield from isomorphism._free_digit_expansion(MA, MB, maps)


@pytest.fixture(scope="session")
def every_isomorphism():
    """``_every_isomorphism``: every isomorphism A -> B in filtration coordinates."""
    return _every_isomorphism


def _is_automorphism(A, phi):
    """True iff phi is invertible and multiplicative (columns are basis images)."""
    return is_multiplicative(A, A, phi) and phi.is_invertible()


@pytest.fixture(scope="session")
def is_automorphism():
    """``_is_automorphism``: whether a matrix is an automorphism of A."""
    return _is_automorphism


def _fresh_name(base, taken):
    if base not in taken:
        return base
    for ch in string.ascii_lowercase:
        if ch not in taken:
            return ch
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _direct_sum(A, B):
    """A + B on A's basis names then B's, a name A already uses renamed to a free one."""
    same_field(A.field, B.field)
    names = list(A.names)
    for nm in B.names:
        names.append(_fresh_name(nm, names))
    products = {pair: dict(terms) for pair, terms in A._sc.items()}
    off = A.dim
    for (i, j), terms in B._sc.items():
        products[(i + off, j + off)] = {k + off: c for k, c in terms.items()}
    return Algebra(A.field, names, products)


@pytest.fixture(scope="session")
def direct_sum():
    """``_direct_sum``: the direct sum of two algebras over one field."""
    return _direct_sum


@pytest.fixture(scope="session")
def report_5_7():
    """``reports.build_report((5, 7))``, built once per session, its build time in seconds, and
    the result of each of its ``search_isomorphism`` calls in order: the map's data or None."""
    searches, reports_search = [], reports.search_isomorphism

    def search(*args):
        m = reports_search(*args)
        searches.append(None if m is None else m.mat.data)
        return m

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "search_isomorphism", search)
        t0 = time.time()
        doc = reports.build_report((5, 7))
        elapsed = time.time() - t0
    return doc, elapsed, searches
