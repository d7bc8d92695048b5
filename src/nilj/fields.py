"""Exact scalar fields: the rationals and prime fields F_p with p >= 5.

Scalars are plain Python values: ``Fraction`` over the rationals, canonical
residues ``0..p-1`` (ints) over a prime field.  A ``Field`` instance carries
the arithmetic; it is immutable and shareable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import FieldMismatchError, NiljError, RootNotInFieldError

# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster 2015), so the test is a proof there.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality; refuses n at or above ``MR_PROVEN_BELOW``."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n >= MR_PROVEN_BELOW:
        raise NiljError(f"primality of {n} is not proven by the bundled test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field F_p with p >= 5.

    Arithmetic is exact; the only root taken is the square root (``sqrt``).
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not is_prime(self.p):
                raise NiljError(f"modulus {self.p} is not prime")
            if self.p < 5:
                raise NiljError(f"prime field F_{self.p} not supported (need p >= 5)")

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    # -- element constructors ------------------------------------------------

    @cached_property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @cached_property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def of(self, value):
        """Coerce an int, Fraction or scalar string into this field."""
        if isinstance(value, str):
            return self.parse(value)
        if self.p is None:
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, int):
            return value % self.p
        frac = Fraction(value)
        den = frac.denominator % self.p
        if den == 0:
            raise FieldMismatchError(f"denominator of {value} vanishes mod {self.p}")
        return frac.numerator * pow(den, -1, self.p) % self.p

    def parse(self, text: str):
        """Parse "3/4", "-2" or "0.25" (rationals also accepted over F_p, reduced).

        Only an optional sign, digits and an optional "/digits" or ".digits"
        part are read, at most 100 digits each, so no literal builds a number
        that is slow to make or too long to print.
        """
        literal = text.strip()
        if not re.fullmatch(r"[+-]?[0-9]{1,100}(?:[/.][0-9]{1,100})?", literal):
            raise NiljError(f"bad scalar literal {text[:40]!r}")
        try:
            frac = Fraction(literal)
        except ZeroDivisionError as exc:
            raise NiljError(f"bad scalar literal {text!r}") from exc
        return self.of(frac)

    def fmt(self, x) -> str:
        return str(x)

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverting zero field element")
        return pow(a, -1, self.p) if self.p is not None else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a

    # -- roots -----------------------------------------------------------------

    def sqrt(self, a):
        """An exact square root, or None; over F_p the least of the two roots
        (Tonelli-Shanks), over Q the root of the numerator over that of the
        denominator."""
        if self.p is not None:
            return _sqrt_mod(a % self.p, self.p)
        frac = Fraction(a)
        if frac < 0:
            return None
        num, den = math.isqrt(frac.numerator), math.isqrt(frac.denominator)
        if num * num != frac.numerator or den * den != frac.denominator:
            return None
        return Fraction(num, den)

    def sqrt_or_raise(self, a):
        root = self.sqrt(a)
        if root is None:
            raise RootNotInFieldError(a)
        return root


def _sqrt_mod(a: int, p: int) -> int | None:
    """min(r, p - r) for a root r of r^2 = a mod the odd prime p, or None (Tonelli-Shanks)."""
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then s > i
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


QQ = Field()


def same_field(a: Field, b: Field) -> Field:
    if a != b:
        raise FieldMismatchError(f"mixed fields {a} and {b}")
    return a
