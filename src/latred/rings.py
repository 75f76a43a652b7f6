"""The two Euclidean ground rings: Z and F_q[t], and their fraction fields.

Ring elements are `int` and `FqPolynomial`, and the matrix algorithms do
their arithmetic with the operators: `+`, `-`, `*`, `divmod` and truth
value.  A ring object carries only what the operators cannot say: zero and
one, units and their normalization, the Euclidean norm (`norm_key`, a plain
callable: `abs`, or a degree getter), gcds, primality, exact division,
prime valuations and the embedding into the fraction field, whose elements
are `fractions.Fraction` on the integer side and `FqRationalFunction` on
the function-field side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from operator import attrgetter

from .errors import DomainError, InvalidPlaceError, ZeroArgumentError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_int(n):
    """Deterministic Miller-Rabin, valid far beyond any desk-scale input."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _EuclideanRing:
    """Exact division and prime valuations, the same on Z and on F_q[t]."""

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise DomainError("inexact ring division")
        return q

    def element_valuation(self, x, p):
        """Exponent of the prime p in the ring element x; +infinity at 0."""
        if not x:
            return inf
        v = 0
        while True:
            q, r = divmod(x, p)
            if r:
                return v
            x, v = q, v + 1


class IntegerRing(_EuclideanRing):
    """Z with absolute-value Euclidean norm; units are +-1, normalized > 0."""

    name = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_unit(self, x):
        return x in (1, -1)

    def unit_normalize(self, x):
        """Return (u, m) with x = u*m, m normalized (positive), u a unit."""
        if x == 0:
            return 1, 0
        return (1, x) if x > 0 else (-1, -x)

    norm_key = staticmethod(abs)
    gcd = staticmethod(gcd)

    def is_prime(self, p):
        return isinstance(p, int) and is_prime_int(p)

    # -- fraction field ------------------------------------------------------
    def to_field(self, x):
        return Fraction(x)

    def field_zero(self):
        return Fraction(0)

    def field_one(self):
        return Fraction(1)

    def __repr__(self):
        return "ZZ"


class PolynomialRing(_EuclideanRing):
    """F_q[t] with degree Euclidean norm; units F_q^*, normalized = monic.

    Building one, and its methods, import the F_q layer, so Z-side callers
    never load it.
    """

    def __init__(self, q):
        from .fq import gf, poly
        self.field = gf(q)
        self.q = q
        self.name = f"F{q}[t]"
        self._zero = poly(self.field, [])

    def zero(self):
        return self._zero

    def one(self):
        return self.field.poly_one

    def is_unit(self, x):
        return x.degree == 0

    def unit_normalize(self, x):
        if not x:
            return self.one(), x
        return self.one() * x.leading(), x.monic()

    norm_key = staticmethod(attrgetter("degree"))

    def gcd(self, a, b):
        return a.gcd(b)

    def is_prime(self, p):
        from .fq import FqPolynomial, is_irreducible_poly
        return isinstance(p, FqPolynomial) and is_irreducible_poly(p)

    # -- fraction field ------------------------------------------------------
    def to_field(self, x):
        from .fq import FqRationalFunction
        return FqRationalFunction.of(x)

    def field_zero(self):
        return self.to_field(self.zero())

    def field_one(self):
        return self.to_field(self.one())

    def __repr__(self):
        return f"PolyRing(F{self.q})"


ZZ = IntegerRing()


@lru_cache(maxsize=None)
def poly_ring(q):
    """Shared ring context for F_q[t], one per q."""
    return PolynomialRing(q)


DEGREE_PLACE = "degree"


def valuation(x, place):
    """Discrete valuation of a field element.

    * rationals at an integer prime p:  nu_p(a/b) = nu_p(a) - nu_p(b);
    * F_q(t) at a monic irreducible polynomial place, same formula;
    * F_q(t) at the degree place: deg(denominator) - deg(numerator).

    Returns +infinity exactly at x = 0.
    """
    if isinstance(x, (int, Fraction)):
        if not isinstance(place, int) or not is_prime_int(place):
            raise InvalidPlaceError(f"{place!r} is not a prime of Z")
        return (ZZ.element_valuation(x.numerator, place)
                - ZZ.element_valuation(x.denominator, place))
    from .fq import FqPolynomial, FqRationalFunction, is_irreducible_poly
    if isinstance(x, FqPolynomial):
        x = FqRationalFunction.of(x)
    if isinstance(x, FqRationalFunction):
        if place == DEGREE_PLACE:
            return x.nu()
        if not isinstance(place, FqPolynomial):
            raise InvalidPlaceError(f"{place!r} is not a place of F_q(t)")
        pl = place.monic()
        if not is_irreducible_poly(pl):
            raise InvalidPlaceError(f"{place} is not irreducible")
        ring = poly_ring(x.field.q)
        return ring.element_valuation(x.num, pl) - ring.element_valuation(x.den, pl)
    raise InvalidPlaceError(f"unsupported scalar {x!r}")


def prime_part(z, primes, ring=ZZ):
    """Product, with multiplicity, of the factors of z lying in the prime set.

    The result is normalized: positive over Z, monic over F_q[t].  Only the
    listed primes are ever divided out, so no general factorization is needed.
    """
    if not z:
        raise ZeroArgumentError("prime part of zero is undefined")
    out = ring.one()
    for p in primes:
        _, p = ring.unit_normalize(p)
        if not ring.is_prime(p):
            raise InvalidPlaceError(f"{p} is not prime")
        out = out * p ** ring.element_valuation(z, p)
    _, out = ring.unit_normalize(out)
    return out
