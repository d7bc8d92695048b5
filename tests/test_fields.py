import time
from fractions import Fraction

import pytest

from nilj.errors import FieldMismatchError, NiljError, RootNotInFieldError
from nilj.fields import MR_PROVEN_BELOW, QQ, Field, is_prime


def test_rational_parse_and_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.fmt(Fraction(3, 4)) == "3/4"
    assert QQ.fmt(Fraction(-2)) == "-2"


def test_scalar_literals_are_sign_digits_and_one_fraction_part():
    assert QQ.parse(" +3 ") == 3 and QQ.parse("0.25") == Fraction(1, 4)
    assert QQ.parse("9" * 100) == 10**100 - 1 and Field(5).parse("-1/" + "1" * 100) == 4
    for text in ("1e3", "1_000", "inf", "nan", ".5", "1/", "1/2/3", "x", "", "1" * 101, "1/0"):
        with pytest.raises(NiljError):
            QQ.parse(text)


def test_rational_arithmetic_is_exact():
    a = Fraction(355, 113)
    assert QQ.mul(a, QQ.inv(a)) == 1
    b = QQ.parse("1/3")
    assert QQ.add(b, QQ.add(b, b)) == 1


def test_prime_field_canonical_residues():
    F5 = Field(5)
    assert F5.parse("3") == 3
    assert F5.parse("-2") == 3
    assert F5.parse("1/2") == 3  # inverse of 2 mod 5
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3


def test_prime_field_requirements():
    with pytest.raises(NiljError):
        Field(4)
    with pytest.raises(NiljError):
        Field(3)
    with pytest.raises(FieldMismatchError):
        Field(5).of(Fraction(1, 5))


def test_square_roots():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None
    F5, F7 = Field(5), Field(7)
    assert F5.sqrt(4) in (2, 3)
    assert F5.sqrt(2) is None  # 2 is not a residue mod 5
    assert F7.sqrt(2) in (3, 4)  # 3^2 = 2 mod 7
    assert F5.sqrt(F5.of(-1)) == 2 or F5.sqrt(F5.of(-1)) == 3


def test_roots_of_huge_rationals_are_exact():
    # a float seed overflows long before these sizes
    assert QQ.sqrt(10**400) == 10**200
    assert QQ.sqrt(10**400 + 1) is None
    assert QQ.sqrt(Fraction(10**400, 9)) == Fraction(10**200, 3)


def test_sqrt_or_raise_names_the_radicand():
    with pytest.raises(RootNotInFieldError) as err:
        Field(5).sqrt_or_raise(2)
    assert err.value.radicand == 2


def test_prime_field_square_roots_match_the_exhaustive_search():
    # the least root, as the search over 0..p-1 found it before Tonelli-Shanks
    for p in range(5, 102):
        if not is_prime(p):
            continue
        F = Field(p)
        for a in range(p):
            expected = next((x for x in range(p) if x * x % p == a), None)
            assert F.sqrt(a) == expected, (p, a)


@pytest.mark.parametrize("p", [10007, 2**31 - 1])
def test_square_roots_modulo_large_primes(p):
    F = Field(p)
    for a in (2, 3, 5, 7, 10, p - 1, 123456 % p):
        root = F.sqrt(a)
        if root is None:
            assert pow(a, (p - 1) // 2, p) == p - 1  # Euler: a is a non-residue
        else:
            assert root * root % p == a and root <= p - root
    for x in (2, 1234, p - 5):
        assert F.sqrt(x * x % p) == min(x, p - x)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if _trial_division(n)]


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747,
                               3474749660383, 341550071728321, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each is a strong pseudoprime to every base of some prefix of 2, 3, 5, ..., 23
    assert not is_prime(n)


def test_is_prime_is_fast_on_large_moduli():
    start = time.perf_counter()
    F = Field(10**16 + 61)
    assert time.perf_counter() - start < 0.1
    assert F.mul(F.inv(3), 3) == 1
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (2**19 - 1))


def test_is_prime_refuses_beyond_its_proven_range():
    assert not is_prime(2 * MR_PROVEN_BELOW)  # a small factor needs no further proof
    with pytest.raises(NiljError):
        is_prime(MR_PROVEN_BELOW)  # the least strong pseudoprime to all 13 bases
    with pytest.raises(NiljError):
        is_prime(2**89 - 1)  # a Mersenne prime above the bound
    with pytest.raises(NiljError):
        Field(2**89 - 1)
