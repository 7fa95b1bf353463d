"""Exact Gaussian-rational scalars: a + b*i with a, b in Q.

Plain rationals are `fractions.Fraction`; this module adds the quadratic
extension by i together with parsing/formatting of the "p/q" wire form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


def as_fraction(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats (exactness) and bools."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def parse_ratio(s) -> tuple:
    """(p, q) in lowest terms, q > 0, for "p/q" or "p" (also plain ints, but not
    bools: JSON true is no number).  An ASCII integer makes no Fraction."""
    if type(s) is int:
        return s, 1
    if isinstance(s, str):
        t = s.strip()
        try:
            if t.isascii() and t[t[:1] == "-":].isdigit():
                return int(t), 1
            x = Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {s!r}") from exc
        return x.numerator, x.denominator
    raise InputError(f"bad rational value {s!r}")


def parse_rational(s) -> Fraction:
    """Parse "p/q" or "p" to a Fraction, as `parse_ratio` reads it."""
    return Fraction(*parse_ratio(s))


def format_rational(x: Fraction) -> str:
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, eq=False)
class GaussRational:
    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    @staticmethod
    def of(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(as_fraction(x), Fraction(0))

    def ratios(self) -> tuple:
        """The (p, q) pairs of the real and imaginary parts, in lowest terms with q > 0."""
        return self.re.as_integer_ratio(), self.im.as_integer_ratio()

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, exact."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussRational.of(other) - self

    def __mul__(self, other):
        o = GaussRational.of(other)
        return GaussRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRational.of(other)
        n = o.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return self * GaussRational(o.re / n, -o.im / n)

    def __rtruediv__(self, other):
        return GaussRational.of(other) / self

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Real values hash like their Fraction so mixed-type dict keys behave.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return format_rational(self.re)
        return f"({format_rational(self.re)}{'+' if self.im >= 0 else '-'}{format_rational(abs(self.im))}i)"

