"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python objects, not wrappers:

* over Q a scalar is an ``int`` or a ``fractions.Fraction`` (integral
  Fractions are collapsed to ``int`` by ``canon``, so the common case
  stays in fast native integers);
* over F_p a scalar is an ``int`` residue in ``[0, p)``.

The field object supplies division, inversion, parsing and formatting.
For both fields the native ``+``/``-``/``*`` operators are exact ring
operations on scalar values, so hot loops may accumulate natively and
call ``canon`` once on the result (for F_p this reduces mod p; the
reduction commutes with integer arithmetic, so the outcome is exact).
The one place a float appears is the Q dense kernel of
``crossed.AlgebraHandle.product_dense``, and only under a bound that
makes every value it computes an integer doubles hold exactly.

Scalar literals in files are strings: ``"3"``, ``"-5/7"`` over Q, or a
residue like ``"4"`` over F_p.
"""

from dataclasses import dataclass
from fractions import Fraction
import re

from .errors import ScalarFormatError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")

MAX_PRIME = 2**31


def is_probable_prime(n):
    """Deterministic Miller-Rabin for n < 3,215,031,751 (covers n < 2**31)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
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
class Rationals:
    """The field Q.  Scalars are int or Fraction in lowest terms."""

    zero = 0
    one = 1
    characteristic = 0

    def canon(self, v):
        if type(v) is Fraction and v.denominator == 1:
            return v.numerator
        return v

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return self.canon(Fraction(1, 1) / a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return self.canon(Fraction(a) / b)

    def parse(self, s):
        if not isinstance(s, str) or not _RATIONAL_RE.match(s.strip()):
            raise ScalarFormatError(f"bad rational literal {s!r}")
        text = s.strip()
        return self.canon(Fraction(text)) if "/" in text else int(text)

    def fmt(self, v):
        return str(self.canon(v))

    def random(self, rng, bound):
        return rng.randint(-bound, bound)

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p < 2**31.  Scalars are residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < MAX_PRIME:
            raise ValueError(f"prime field characteristic out of range: {self.p}")
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    zero = 0
    one = 1

    @property
    def characteristic(self):
        return self.p

    def canon(self, v):
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def parse(self, s):
        if not isinstance(s, str) or not _INTEGER_RE.match(s.strip()):
            raise ScalarFormatError(f"bad residue literal {s!r} for F_{self.p}")
        return int(s) % self.p

    def fmt(self, v):
        return str(v % self.p)

    def random(self, rng, bound):
        return rng.randrange(self.p)

    def __str__(self):
        return f"F{self.p}"


QQ = Rationals()
