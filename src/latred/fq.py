"""Finite fields F_q, polynomials over them, and rational functions F_q(t).

Field elements are integers 0..q-1.  For prime q they are residues mod p;
for prime powers q = p^e (q <= 256) an element's base-p digits are the
coefficients of a polynomial over F_p, taken modulo the first monic
irreducible of degree e, and multiplication runs through exp/log tables
built once per field with the polynomial arithmetic below.

A polynomial over F_2 stores its coefficients as the bits of one int (bit
i is the coefficient of t^i), so its arithmetic is shift-and-XOR on ints
(von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4); over
every other field they are an ascending tuple with no trailing zeros.
Either way `coeffs` reads the ascending tuple, empty for the zero
polynomial, and equality, hashing and printing depend only on it and the
field.  Over F_{2^e}, field addition and negation are XOR and the identity.

Rational functions are kept reduced with a monic denominator; the reducing
gcd runs only when the denominator is not constant, since a constant one
is already coprime to every numerator.  The degree valuation

    nu(p/q) = deg(q) - deg(p),    nu(0) = +infinity

is the one discrete valuation of F_q(t) that does not come from a monic
irreducible polynomial.  Its expansions "at infinity" (Laurent series in
1/t) are read off polynomial floors by the callers that need them, with no
rational function formed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import inf

from .errors import DomainError, ScaleError, ZeroArgumentError


def _factor_small(n):
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


PRIME_POWER_LIMIT = 2 ** 40  # trial division up to 2^20 stays well under a second


def prime_power(q):
    """(p, e) with q = p^e, or DomainError when q is not a prime power."""
    if q > PRIME_POWER_LIMIT:
        raise ScaleError(f"{q} exceeds the prime-power test limit {PRIME_POWER_LIMIT}")
    fs = _factor_small(q)
    if q < 2 or len(fs) != 1:
        raise DomainError(f"{q} is not a prime power")
    (p, e), = fs.items()
    return p, e


class GF:
    """Arithmetic context for F_q, q = p^e with q <= 2^16 (e > 1 needs q <= 256)."""

    def __init__(self, q):
        p, e = prime_power(q)
        if p > 2 ** 16 or (e > 1 and q > 256):
            raise DomainError(f"field size {q} out of supported range")
        self.q = q
        self.p = p
        self.e = e
        self.poly_one = FqPolynomial(self, (1,))  # shared by fq.poly_one
        if e > 1:
            self._build_tables()

    def _build_tables(self):
        # F_q = F_p[x] / (modulus), the first monic irreducible of degree e;
        # an element's base-p digits are its coefficients in x
        p, e, q = self.p, self.e, self.q
        Fp = gf(p)
        modulus = next(f for f in monic_irreducibles(Fp, e) if f.degree == e)
        self._modulus = modulus.coeffs
        one = poly_one(Fp)
        # the first g >= 2 of multiplicative order q - 1 generates F_q^*,
        # and one exists because F_q^* is cyclic
        for g in range(2, q):
            x = poly(Fp, [g // p ** i % p for i in range(e)])
            powers, acc = [one], x
            while acc != one:
                powers.append(acc)
                acc = acc * x % modulus
            if len(powers) == q - 1:
                break
        self._exp = [sum(c * p ** i for i, c in enumerate(f.coeffs)) for f in powers]
        self._log = [0] * q
        for i, y in enumerate(self._exp):
            self._log[y] = i

    # -- element arithmetic ------------------------------------------------
    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return (a * b) % self.p
        n = (self._log[a] + self._log[b]) % (self.q - 1)
        return self._exp[n]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __reduce__(self):  # pickle and copy return the shared context
        return gf, (self.q,)

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def gf(q):
    """Shared field context for F_q."""
    return GF(q)


_new = object.__new__
_set = object.__setattr__


def _bits_divmod(a, b):
    """Quotient and remainder of F_2 polynomials given as bits, b nonzero."""
    db = b.bit_length()
    quot = 0
    while (s := a.bit_length() - db) >= 0:
        quot |= 1 << s
        a ^= b << s
    return quot, a


def _from_bits(F, bits):
    """The polynomial over F = F_2 whose coefficient of t^i is bit i of bits."""
    out = _new(FqPolynomial)
    _set(out, "field", F)
    _set(out, "_c", bits)
    return out


class FqPolynomial:
    """Polynomial over F_q in the variable t, immutable.

    Built from ascending coefficients (elements 0..q-1 of F_q).  Over F_2 it
    stores them as the bits of one int, bit i the coefficient of t^i, and
    its arithmetic is shift-and-XOR; over every other field they are an
    ascending tuple with no trailing zeros.  `coeffs` is that tuple in both
    cases.
    """

    __slots__ = ("field", "_c")

    def __init__(self, field, coeffs):
        if field.q == 2:
            c = sum(1 << i for i, x in enumerate(coeffs) if x)
        else:
            c = tuple(coeffs)
            while c and c[-1] == 0:
                c = c[:-1]
        _set(self, "field", field)
        _set(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return FqPolynomial, (self.field, self.coeffs)

    @property
    def coeffs(self):
        """Ascending coefficient tuple with no trailing zeros; () for zero."""
        c = self._c
        if c.__class__ is int:
            return tuple(map(int, reversed(bin(c)[2:]))) if c else ()
        return c

    def __eq__(self, other):
        if not isinstance(other, FqPolynomial):
            return NotImplemented
        return self._c == other._c and (self.field is other.field
                                        or self.field == other.field)

    def __hash__(self):
        return hash((self.field.q, self._c))

    # -- basics ------------------------------------------------------------
    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        c = self._c
        return c.bit_length() - 1 if c.__class__ is int else len(c) - 1

    def is_zero(self):
        return not self._c

    def leading(self):
        c = self._c
        if not c:
            raise ZeroArgumentError("zero polynomial has no leading coefficient")
        return 1 if c.__class__ is int else c[-1]

    def monic(self):
        c = self._c
        if not c or c.__class__ is int:
            return self
        lc = c[-1]
        if lc == 1:
            return self
        F = self.field
        inv = F.inv(lc)
        return FqPolynomial(F, tuple(F.mul(x, inv) for x in c))

    def __bool__(self):
        return bool(self._c)

    # -- ring operations ----------------------------------------------------
    def _check(self, other):
        if not isinstance(other, FqPolynomial) or (
                other.field is not self.field and other.field != self.field):
            raise TypeError("mixed polynomial fields")
        return other

    def __add__(self, other):
        if isinstance(other, FqRationalFunction):
            return NotImplemented
        other = self._check(other)
        F = self.field
        a, b = self._c, other._c
        if a.__class__ is int:
            return _from_bits(F, a ^ b)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return FqPolynomial(F, tuple(out))

    def __neg__(self):
        c = self._c
        if c.__class__ is int:
            return self
        F = self.field
        return FqPolynomial(F, tuple(F.neg(x) for x in c))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        a = self._c
        if isinstance(other, int):  # scalar from F_q
            if a.__class__ is int:
                return self if other & 1 else _from_bits(F, 0)
            return FqPolynomial(F, tuple(F.mul(c, other % F.q) for c in a))
        if isinstance(other, FqRationalFunction):
            return NotImplemented
        b = self._check(other)._c
        if a.__class__ is int:
            # XOR b shifted to each set bit of the sparser factor a
            if a.bit_count() > b.bit_count():
                a, b = b, a
            out = 0
            while a:
                low = a & -a
                out ^= b << (low.bit_length() - 1)
                a ^= low
            return _from_bits(F, out)
        if not a or not b:
            return FqPolynomial(F, ())
        out = [0] * (len(a) + len(b) - 1)
        bs = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in bs:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return FqPolynomial(F, tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._check(other)
        if not other._c:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        a, b = self._c, other._c
        if a.__class__ is int:
            quot, rem = _bits_divmod(a, b)
            return _from_bits(F, quot), _from_bits(F, rem)
        rem = list(a)
        db = len(b) - 1
        inv_lead = F.inv(b[-1])
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                factor = F.mul(c, inv_lead)
                quot[i - db] = factor
                for j, bcoef in enumerate(b):
                    rem[i - db + j] = F.sub(rem[i - db + j], F.mul(factor, bcoef))
        return FqPolynomial(F, tuple(quot)), FqPolynomial(F, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, FqRationalFunction):
            return FqRationalFunction.of(self) / other
        return FqRationalFunction(self, self._check(other))

    def gcd(self, other):
        """Monic gcd; the zero polynomial when both are zero."""
        a, b = self, self._check(other)
        if a._c.__class__ is int:
            a, b = a._c, b._c
            while b:
                a, b = b, _bits_divmod(a, b)[1]
            return _from_bits(self.field, a)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __pow__(self, n):
        if n < 0:
            raise DomainError(f"negative power {n} leaves F_q[t]")
        out = FqPolynomial(self.field, (1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        cs = self.coeffs
        if not cs:
            return "0"
        terms = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "+".join(terms)

    __repr__ = __str__


def poly(field_or_q, coeffs):
    """Build a polynomial from an ascending list of F_q elements."""
    F = field_or_q if isinstance(field_or_q, GF) else gf(field_or_q)
    return FqPolynomial(F, tuple(c % F.q for c in coeffs))


def poly_t(field_or_q):
    return poly(field_or_q, [0, 1])


def poly_one(field_or_q):
    """The constant 1, one shared instance per field."""
    return (field_or_q if isinstance(field_or_q, GF) else gf(field_or_q)).poly_one


def monic_irreducibles(field_or_q, max_degree):
    """All monic irreducible polynomials of degree 1..max_degree, by trial division."""
    F = field_or_q if isinstance(field_or_q, GF) else gf(field_or_q)
    found = []
    for d in range(1, max_degree + 1):
        for tail in itertools.product(range(F.q), repeat=d):
            cand = poly(F, list(tail) + [1])
            if all(not (cand % p).is_zero() for p in found if 2 * p.degree <= d):
                found.append(cand)
    return found


def is_irreducible_poly(f):
    """Irreducibility by trial division (desk scale)."""
    if f.is_zero() or f.degree < 1:
        return False
    for p in monic_irreducibles(f.field, f.degree // 2):
        if (f % p).is_zero():
            return False
    return True


class FqRationalFunction:
    """Reduced fraction of polynomials over F_q with a monic denominator,
    immutable; equality, hashing and printing read `num` and `den`."""

    def __init__(self, num, den):
        _set(self, "num", num)
        _set(self, "den", den)
        self.__post_init__()

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field is not den.field and num.field != den.field:
            raise TypeError("mixed fields in rational function")
        if num.is_zero():
            den = poly_one(num.field)
        else:
            if den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lc = den.leading()
            if lc != 1:
                inv = den.field.inv(lc)
                num = num * inv
                den = den * inv
        _set(self, "num", num)
        _set(self, "den", den)

    @staticmethod
    def _reduced(num, den):
        """Wrap a fraction already in lowest terms with a monic denominator."""
        out = _new(FqRationalFunction)
        _set(out, "num", num)
        _set(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not FqRationalFunction:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    @staticmethod
    def of(x):
        if isinstance(x, FqRationalFunction):
            return x
        if isinstance(x, FqPolynomial):
            return FqRationalFunction(x, poly_one(x.field))
        raise TypeError(f"cannot coerce {x!r} into F_q(t)")

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def nu(self):
        """Degree valuation deg(den) - deg(num); +infinity at zero."""
        if self.is_zero():
            return inf
        return self.den.degree - self.num.degree

    def is_integral(self):
        """Whether the value lies in F_q[t] (denominator is 1)."""
        return self.den.degree == 0

    def _coerce(self, other):
        if isinstance(other, FqRationalFunction):
            return other
        if isinstance(other, FqPolynomial):
            return FqRationalFunction.of(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return FqRationalFunction(a + c, b)
        if d.degree == 0:  # monic, so d is 1
            return FqRationalFunction(a + c * b, b)
        if b.degree == 0:
            return FqRationalFunction(a * d + c, d)
        return FqRationalFunction(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return FqRationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):  # a unit keeps lowest terms; zero is 0/1
            num = self.num * other
            return FqRationalFunction._reduced(num, self.den if num else poly_one(self.field))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqRationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return FqRationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return FqRationalFunction.of(other) / self

    def __str__(self):
        if self.is_integral():
            return str(self.num)
        den = str(self.den)
        if "+" in den or "-" in den:
            den = f"({den})"
        num = str(self.num)
        if "+" in num or "-" in num:
            num = f"({num})"
        return f"{num}/{den}"

    __repr__ = __str__


def t_power(q, k):
    """t^k in F_q(t), for any integer k."""
    t_k = poly(q, [0] * abs(k) + [1])
    if k >= 0:
        return FqRationalFunction.of(t_k)
    return FqRationalFunction(poly_one(q), t_k)
