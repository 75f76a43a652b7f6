"""F_q and F_q(t) arithmetic: field operations, polynomials against a schoolbook
reference, canonical form of every result, mixed operand types."""

import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latred.errors import DomainError
from latred.fq import (GF, FqPolynomial, FqRationalFunction, gf, monic_irreducibles, poly,
                       poly_one, poly_t, prime_power, t_power)

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _coeffs(q, max_len):
    return st.lists(st.integers(0, q - 1), max_size=max_len)


@st.composite
def _operand_pair(draw):
    """q and two raw (num, den) pairs in one of four denominator shapes."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    shape = draw(st.sampled_from(["constant", "equal", "zero", "general"]))
    nums = [poly(q, draw(_coeffs(q, 4))) for _ in range(2)]
    if shape == "constant":
        dens = [poly(q, [draw(st.integers(1, q - 1))]) for _ in range(2)]
    elif shape == "equal":
        # an irreducible denominator stays unreduced beside any numerator it
        # does not divide, so both operands keep it
        den = draw(st.sampled_from(monic_irreducibles(q, 2)))
        den = den * draw(st.integers(1, q - 1))
        nums = [n if (n % den) else n + poly_one(q) for n in nums]
        dens = [den, den]
    else:
        dens = []
        for _ in range(2):
            d = poly(q, draw(_coeffs(q, 3)))
            dens.append(d if d else poly_t(q))
        if shape == "zero":
            nums[draw(st.integers(0, 1))] = poly(q, [])
    return q, (nums[0], dens[0]), (nums[1], dens[1])


def _coprime(a, b):
    """Plain Euclid: gcd(a, b) is a nonzero constant."""
    while b:
        a, b = b, a % b
    return a.degree == 0


def _cross(op, a, b, c, d):
    """Unreduced (num, den) of a/b op c/d."""
    if op == "+":
        return a * d + c * b, b * d
    if op == "-":
        return a * d - c * b, b * d
    if op == "*":
        return a * c, b * d
    return a * d, b * c


@settings(max_examples=300, deadline=None)
@given(_operand_pair(), st.sampled_from(sorted(OPS)))
def test_results_are_canonical(pair, op):
    q, (a, b), (c, d) = pair
    x, y = FqRationalFunction(a, b), FqRationalFunction(c, d)
    if op == "/" and not c:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    r = OPS[op](x, y)
    assert r.den.leading() == 1
    if r.num:
        assert _coprime(r.num, r.den)
    else:
        assert r.den == poly_one(q)
    num, den = _cross(op, a, b, c, d)
    assert r.num * den == num * r.den


@settings(max_examples=100, deadline=None)
@given(_operand_pair())
def test_operands_are_canonical(pair):
    q, (a, b), _ = pair
    x = FqRationalFunction(a, b)
    assert x.den.leading() == 1
    assert _coprime(x.num, x.den) if x.num else x.den == poly_one(q)
    assert x.num * b == a * x.den


class TestMixedOperands:
    Q = 3
    P = poly(3, [1, 2, 1])
    R = FqRationalFunction(poly(3, [2, 1]), poly(3, [1, 1, 1]))

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_polynomial_then_rational_function(self, op):
        want = OPS[op](FqRationalFunction.of(self.P), self.R)
        assert OPS[op](self.P, self.R) == want
        assert OPS[op](self.R, self.P) == OPS[op](self.R, FqRationalFunction.of(self.P))

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_mixed_fields_still_raise(self, op):
        other = FqRationalFunction(poly(2, [1, 1]), poly(2, [0, 1]))
        with pytest.raises(TypeError):
            OPS[op](self.P, other)
        with pytest.raises(TypeError):
            OPS[op](other, self.P)


def test_poly_one_is_shared():
    assert poly_one(4) is poly_one(gf(4))
    assert poly_one(4) == poly(4, [1])


class TestGcdFreeOperations:
    """Negation and int scaling keep lowest terms, so they run no gcd."""

    R = FqRationalFunction(poly(3, [1, 2]), poly(3, [1, 0, 1]))  # (2t+1)/(t^2+1)
    S = FqRationalFunction(poly(3, [1]), poly(3, [1, 1]))  # 1/(t+1)

    def test_gcd_calls(self, monkeypatch):
        calls = []
        gcd = FqPolynomial.gcd
        monkeypatch.setattr(FqPolynomial, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
        R, S = self.R, self.S
        for op, want in ((lambda: -R, 0), (lambda: R - S, 1), (lambda: R * 2, 0)):
            calls.clear()
            op()
            assert len(calls) == want

    @pytest.mark.parametrize("q", [3, 4])
    def test_results_are_canonical(self, q):
        x = FqRationalFunction(poly(q, [1, 2]), poly(q, [1, 0, 1]))
        assert -x == FqRationalFunction(-x.num, x.den)
        assert x + (-x) == FqRationalFunction.of(poly(q, []))
        for c in range(-1, q + 2):
            y = x * c
            assert y == FqRationalFunction(x.num * c, x.den)
            assert y.den == (x.den if y.num else poly_one(q))


def _extension_fields():
    out = []
    for q in range(4, 257):
        try:
            _, e = prime_power(q)
        except DomainError:
            continue
        if e > 1:
            out.append(q)
    return out


EXTENSION_FIELDS = _extension_fields()
# F_{p^e} = F_p[x] / (modulus), ascending coefficients.  Pinned: another
# modulus re-encodes every F_{p^e} element, and so the CLI's output bytes
PINNED_MODULI = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
    256: (1, 0, 0, 0, 1, 1, 0, 1, 1),
}


class TestFieldTables:
    """The exp/log tables of F_{p^e} against polynomial arithmetic over F_p."""

    def test_extension_fields_up_to_256(self):
        assert len(EXTENSION_FIELDS) == 16

    @pytest.mark.parametrize("q", EXTENSION_FIELDS)
    def test_modulus_is_the_first_irreducible(self, q):
        p, e = prime_power(q)
        first = next(f for f in monic_irreducibles(gf(p), e) if f.degree == e)
        assert gf(q)._modulus == first.coeffs

    @pytest.mark.parametrize("q", sorted(PINNED_MODULI))
    def test_pinned_moduli(self, q):
        assert gf(q)._modulus == PINNED_MODULI[q]

    @pytest.mark.parametrize("q", EXTENSION_FIELDS)
    def test_mul_is_the_product_modulo_the_modulus(self, q):
        F = gf(q)
        assert sorted(F._exp) == list(range(1, q))  # the powers of a generator of F_q^*
        p, e = F.p, F.e
        modulus = poly(p, F._modulus)

        def as_poly(x):
            return poly(p, [x // p ** i % p for i in range(e)])

        if q <= 32:
            pairs = itertools.product(range(q), repeat=2)
        else:
            rng = random.Random(f"gf-mul/{q}")
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(500)]
        for a, b in pairs:
            prod = as_poly(a) * as_poly(b) % modulus
            assert F.mul(a, b) == sum(c * p ** i for i, c in enumerate(prod.coeffs))


# -- the polynomial arithmetic against a schoolbook reference ---------------
# Plain ascending tuples over gf(q) scalars, written here independently of the
# storage FqPolynomial picks (the bits of one int over F_2, tuples otherwise).

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _trim(F.add(x, y) for x, y in zip(a, b))


def _ref_neg(F, a):
    return tuple(F.neg(x) for x in a)


def _ref_mul(F, a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def _ref_divmod(F, a, b):
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = F.inv(b[-1])
    while len(_trim(rem)) >= len(b):
        rem = list(_trim(rem))
        k = len(rem) - len(b)
        c = F.mul(rem[-1], inv)
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = F.sub(rem[k + j], F.mul(c, y))
    return _trim(quot), _trim(rem)


def _ref_monic(F, a):
    if not a:
        return a
    inv = F.inv(a[-1])
    return tuple(F.mul(x, inv) for x in a)


def _ref_gcd(F, a, b):
    while b:
        a, b = b, _ref_divmod(F, a, b)[1]
    return _ref_monic(F, a)


def _ref_pow(F, a, n):
    out = (1,)
    for _ in range(n):
        out = _ref_mul(F, out, a)
    return out


def _ref_str(a):
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c:
            mono = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            terms.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms) or "0"


@st.composite
def _poly_pair(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    return q, draw(_coeffs(q, 9)), draw(_coeffs(q, 6))


class TestPolynomialArithmetic:
    """Every FqPolynomial operation equals the schoolbook tuple reference."""

    @settings(max_examples=400, deadline=None)
    @given(_poly_pair(), st.integers(-7, 7), st.integers(0, 5))
    def test_against_reference(self, pair, c, k):
        q, ca, cb = pair
        F = gf(q)
        a, b = _trim(ca), _trim(cb)
        x, y = poly(q, ca), poly(q, cb)
        assert x.coeffs == a and y.coeffs == b
        assert x.degree == len(a) - 1 and x.is_zero() == (not a) and bool(x) == bool(a)
        assert str(x) == _ref_str(a)
        if a:
            assert x.leading() == a[-1]
        assert (x + y).coeffs == _ref_add(F, a, b)
        assert (-x).coeffs == _ref_neg(F, a)
        assert (x - y).coeffs == _ref_add(F, a, _ref_neg(F, b))
        assert (x * y).coeffs == _ref_mul(F, a, b)
        assert (x * c).coeffs == (c * x).coeffs == _ref_mul(F, a, (c % q,))
        assert x.monic().coeffs == _ref_monic(F, a)
        assert (x ** k).coeffs == _ref_pow(F, a, k)
        assert x.gcd(y).coeffs == _ref_gcd(F, a, b)
        if b:
            qt, r = divmod(x, y)
            assert (qt.coeffs, r.coeffs) == _ref_divmod(F, a, b)
            assert (x // y, x % y) == (qt, r)
        else:
            with pytest.raises(ZeroDivisionError):
                divmod(x, y)

    @settings(max_examples=200, deadline=None)
    @given(_poly_pair())
    def test_equality_agrees_with_hash(self, pair):
        q, ca, cb = pair
        x, y = poly(q, ca), poly(q, cb)
        assert (x == y) == (_trim(ca) == _trim(cb))
        padded = FqPolynomial(gf(q), tuple(ca) + (0, 0))
        for z in (padded, x + poly(q, []), (x * y - x * y) + x):
            assert z == x and hash(z) == hash(x)
        other = FqPolynomial(GF(q), tuple(ca))  # a second context of the same field
        assert other == x and hash(other) == hash(x)

    def test_fields_differ(self):
        assert poly(2, [1, 1]) != poly(3, [1, 1])
        assert poly(2, [1, 1]) != poly(4, [1, 1])
        assert poly(3, [1, 1]) != poly(5, [1, 1])
        with pytest.raises(TypeError):
            poly(2, [1, 1]) + poly(4, [1, 1])

    @pytest.mark.parametrize("q", [2, 3])
    def test_immutable_and_picklable(self, q):
        x = poly(q, [1, 0, 1])
        with pytest.raises(AttributeError):
            x.field = gf(5)
        with pytest.raises(AttributeError):
            del x.field
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and y.coeffs == x.coeffs

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_negative_power_and_shift_raise(self, q):
        x = poly(q, [1, 1])
        with pytest.raises(DomainError):
            x ** -1


def test_powers_of_t_take_few_field_products(monkeypatch):
    """t^k is built as one monomial and a product skips the zero coefficients
    of both factors, so t^400 takes no GF.mul (923 by repeated squaring), and
    the canonical residue of y mod t^-400 pays for its floor division alone
    (3739 by squaring and a dense product)."""
    from latred.building import BuildingContext
    t400 = poly_t(3) ** 400
    y = FqRationalFunction(poly(3, [1, 2, 0, 1, 2]), poly(3, [2, 1]))
    residue = FqRationalFunction(y.num * t400 // y.den, t400)
    ctx = BuildingContext.function_field(3, 2)
    calls = []
    mul = GF.mul
    monkeypatch.setattr(GF, "mul", lambda F, a, b: calls.append(1) or mul(F, a, b))
    assert t_power(3, 400) == FqRationalFunction.of(t400)
    assert len(calls) == 0
    assert ctx._canres_integral(y, 401) == residue
    assert len(calls) == 2016


def _digits(F, x):
    return [x // F.p ** i % F.p for i in range(F.e)]


def _from_digits(F, ds):
    return sum(d * F.p ** i for i, d in enumerate(ds))


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_extension_add_sub_neg_against_digits(q):
    F = gf(q)
    p = F.p
    for a in range(q):
        da = _digits(F, a)
        assert F.neg(a) == _from_digits(F, [-x % p for x in da])
        for b in range(q):
            db = _digits(F, b)
            assert F.add(a, b) == _from_digits(F, [(x + y) % p for x, y in zip(da, db)])
            assert F.sub(a, b) == _from_digits(F, [(x - y) % p for x, y in zip(da, db)])


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_prime_field_sub(q):
    F = gf(q)
    for a in range(q):
        for b in range(q):
            assert F.sub(a, b) == (a - b) % q == F.add(a, F.neg(b))
