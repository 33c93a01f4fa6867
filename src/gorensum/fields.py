"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational elements are `fractions.Fraction`; prime-field elements are plain
ints in the range 0..p-1.  All arithmetic goes through the `Field` object so
the rest of the library is agnostic to the representation.
"""

from fractions import Fraction


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """The field of rationals (p is None) or GF(p) for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            p = int(p)
            # arithmetic on Python ints is exact for any p; the cap keeps
            # the trial division below short
            if p > 1 and (p - 1) ** 2 + p >= 2**63:
                raise ValueError(f"{p} is too large: GF(p) needs (p-1)^2 + p < 2^63")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def is_prime_field(self):
        return self.p is not None

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def of(self, x):
        """Coerce an int, Fraction, or "a/b" string into a field element."""
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/")
                x = Fraction(int(num), int(den))
            else:
                x = int(x)
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return -a % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p is not None else Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elem_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p):
    return Field(p)


# Default field for randomized testing; large enough to dodge characteristic
# coincidences in small examples, small enough for word arithmetic.
DEFAULT_PRIME = 32003
