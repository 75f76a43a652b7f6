"""Exact surrogate for real numbers of the form sum_i c_i * ln(q_i).

Log-volumes on the integer side are half-logs of exact rational squared
volumes.  All comparisons between such values reduce, after clearing the
rational coefficients, to comparing a product of rational powers against 1,
which is decided exactly in big-rational arithmetic.  Floating point enters
only through `to_float` and comparisons against real thresholds, which a
float evaluation decides outside a stated error margin and a guarded
Decimal precision ladder inside it.  Arithmetic on canonical values builds
its results directly; only the public constructor validates its terms.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import reduce

from .errors import DomainError

# The margin of `compare_to_real`'s float evaluation, relative to the sum of
# the magnitudes it adds up: 2^13 times the unit roundoff 2^-53.
_FLOAT_SLACK = 2.0 ** -40


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {x!r}")


class ExactLog:
    """Formal rational combination of logarithms of positive rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        combined = {}
        for base, coeff in dict(terms).items():
            base = _as_fraction(base)
            coeff = _as_fraction(coeff)
            if base <= 0:
                raise DomainError("logarithm of a non-positive rational")
            if base == 1 or coeff == 0:
                continue
            combined[base] = combined.get(base, Fraction(0)) + coeff
        object.__setattr__(self, "terms", {b: c for b, c in combined.items() if c})

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero():
        return ExactLog()

    @staticmethod
    def log(q, coeff=Fraction(1)):
        """coeff * ln(q) for a positive rational q."""
        return ExactLog({_as_fraction(q): _as_fraction(coeff)})

    @staticmethod
    def half_log(q):
        """ln(sqrt(q)) for a positive rational q (log-volume from vol^2)."""
        return ExactLog({_as_fraction(q): Fraction(1, 2)})

    @classmethod
    def _of(cls, terms):
        """Wrap terms that are already canonical, with no check.

        Canonical terms map Fraction bases other than 1 to nonzero Fraction
        coefficients, as the constructor leaves them; arithmetic on
        canonical operands keeps them so.
        """
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- arithmetic ------------------------------------------------------------
    # Results are built straight from the canonical operands: a base whose
    # coefficients cancel is dropped and new bases follow the existing ones,
    # the same terms in the same order as the constructor gives.
    def __add__(self, other):
        if not isinstance(other, ExactLog):
            return NotImplemented
        return self._combined(other.terms.items())

    def __sub__(self, other):
        if not isinstance(other, ExactLog):
            return NotImplemented
        return self._combined((b, -c) for b, c in other.terms.items())

    def _combined(self, pairs):
        out = dict(self.terms)
        for b, c in pairs:
            s = out.get(b)
            if s is None:
                out[b] = c
            elif s := s + c:
                out[b] = s
            else:
                del out[b]
        return ExactLog._of(out)

    def __neg__(self):
        return ExactLog._of({b: -c for b, c in self.terms.items()})

    def scale(self, factor):
        factor = _as_fraction(factor)
        if not factor:
            return ExactLog._of({})
        return ExactLog._of({b: c * factor for b, c in self.terms.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __truediv__(self, factor):
        return self.scale(Fraction(1) / _as_fraction(factor))

    # -- exact sign and comparisons ---------------------------------------------
    def sign(self):
        """-1, 0 or +1, decided exactly."""
        if not self.terms:
            return 0
        denom = reduce(math.lcm, (c.denominator for c in self.terms.values()), 1)
        prod = Fraction(1)
        for b, c in self.terms.items():
            prod *= b ** int(c * denom)
        if prod == 1:
            return 0
        return 1 if prod > 1 else -1

    def is_zero(self):
        return self.sign() == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and other == 0:
            return self.is_zero()
        if not isinstance(other, ExactLog):
            return NotImplemented
        return (self - other).sign() == 0

    __hash__ = None

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    # -- presentation -------------------------------------------------------------
    def as_log_root(self):
        """Canonical pair (q, m) with value = ln(q) / m, q rational, m >= 1."""
        if not self.terms:
            return Fraction(1), 1
        denom = reduce(math.lcm, (c.denominator for c in self.terms.values()), 1)
        nums = [int(c * denom) for c in self.terms.values()]
        prod = Fraction(1)
        for b, v in zip(self.terms.keys(), nums):
            prod *= b ** v
        return prod, denom

    def to_float(self):
        return float(sum(c * Decimal(b.numerator).ln() - c * Decimal(b.denominator).ln()
                         for b, c in self._decimal_terms()))

    def _decimal_terms(self):
        for b, c in self.terms.items():
            yield b, Decimal(c.numerator) / Decimal(c.denominator)

    def compare_to_real(self, x):
        """Sign of (self - x) for a real threshold x given as int/Fraction/float.

        A float evaluation decides first.  Its error is at most about 12
        units of 2^-53 of S, the sum of the magnitudes it adds up: each
        term's two logarithms, their difference, the rounded coefficient and
        the product, then the correctly rounded `math.fsum` and the final
        subtraction each add a few.  The margin `_FLOAT_SLACK` * S is over
        600 times that, so a difference beyond it has the exact sign.  Only a
        difference inside the margin, or a value out of float range, goes on
        to the Decimal ladder: ln of a rational never equals a nonzero
        rational, so for rational x a conclusive answer always exists there.
        """
        if isinstance(x, (int, Fraction)) and x == 0:
            return self.sign()
        try:
            xf = float(x)
            parts, size = [], abs(xf)
            for b, c in self.terms.items():
                la, lb, cf = math.log(b.numerator), math.log(b.denominator), float(c)
                parts.append(cf * (la - lb))
                size += abs(cf) * (la + lb)
            diff = math.fsum(parts) - xf
        except (OverflowError, ValueError):
            return self._compare_decimal(x)
        if abs(diff) > _FLOAT_SLACK * size:  # false for nan and inf
            return 1 if diff > 0 else -1
        return self._compare_decimal(x)

    def _compare_decimal(self, x):
        """`compare_to_real` by the Decimal precision ladder alone."""
        for prec in (50, 200):
            ctx_prec = getcontext().prec
            try:
                getcontext().prec = prec
                val = Decimal(0)
                for b, c in self._decimal_terms():
                    val += c * (Decimal(b.numerator).ln() - Decimal(b.denominator).ln())
                if isinstance(x, Fraction):
                    xd = Decimal(x.numerator) / Decimal(x.denominator)
                else:
                    xd = Decimal(x)
                diff = val - xd
                if abs(diff) > Decimal(10) ** (-(prec - 10)):
                    return 1 if diff > 0 else -1
            finally:
                getcontext().prec = ctx_prec
        raise DomainError("comparison against real threshold did not resolve")

    def __repr__(self):
        if not self.terms:
            return "ExactLog(0)"
        parts = " + ".join(f"{c}*ln({b})" for b, c in self.terms.items())
        return f"ExactLog({parts})"


def _coerce(x):
    if isinstance(x, ExactLog):
        return x
    if isinstance(x, (int, Fraction)) and x == 0:
        return ExactLog.zero()
    raise TypeError(f"cannot compare ExactLog with {x!r}")
