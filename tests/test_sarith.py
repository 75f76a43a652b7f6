"""Localized modules: intersections, volumes, scaling laws, factorizations."""

import itertools
import random
from fractions import Fraction

import pytest

from latred import latff, latz, matrices, sarith
from latred.errors import (DeterminantError, DimensionError, DomainError,
                           RankDeficiencyError, SingularityError)
from latred.fq import FqRationalFunction, poly, poly_one, poly_t
from latred.jsonio import value_to_json
from latred.latff import VolumeSpace, ff_logvol
from latred.latz import (InnerProduct, canonical_filtration_z, gram_logvol, gram_vol2,
                         instability_z)
from latred.logs import ExactLog
from latred.rings import poly_ring
from latred.sarith import (IntegralStructure, LocalizedContext, LocSummand,
                           factorize, factorize_conjugated, intersect_integral,
                           loc_c, loc_logvol, localized_basis, span_localized)

from conftest import (det_field, fractional_hnf, in_t_integral, integral, inverse_field, minors,
                      random_invertible_rational, random_poly, random_ratfunc, random_spd,
                      random_unimodular_poly, random_unimodular_z, random_volume_space,
                      random_z_summand, rank_field, right_multiplied, snf_t_lattice,
                      span_meet, uncached_intersect_integral)

CTX2 = LocalizedContext.integers([2])
CTX23 = LocalizedContext.integers([2, 3])


def _Q(*args):
    return Fraction(*args)


def _structure(ctx, rows):
    return IntegralStructure(ctx, len(rows), rows)


T3 = poly_t(3)
ONE3 = poly_one(3)
F3_CTX = LocalizedContext.function_field(3, [T3, T3 * T3 + ONE3])
F2_CTX = LocalizedContext.function_field(2, [poly_t(2)])


def _t_unit(rng, ctx):
    """A random unit of Z[T^-1]: a sign or scalar times a signed T-power."""
    ring = ctx.base_ring()
    u = ring.field_one()
    for p in ctx.T:
        e = rng.randint(-1, 1)
        u = u * ring.to_field(p ** e) if e >= 0 else u / ring.to_field(p)
    if ctx.kind == "Z":
        return u * rng.choice([1, -1])
    return u * ring.to_field(poly(3, [rng.randint(1, 2)]))


def _t_fraction(rng, ctx):
    """A random element of Z[T^-1] with a T-power denominator."""
    ring = ctx.base_ring()
    den = ring.one()
    for p in ctx.T:
        den = den * p ** rng.randint(0, 2)
    num = rng.randint(-12, 12) if ctx.kind == "Z" else random_poly(rng, ctx.q, 3)
    return ring.to_field(num) / ring.to_field(den)


def _t_rows(rng, ctx, n, k):
    ring = ctx.base_ring()
    while True:
        rows = matrices.freeze([[_t_fraction(rng, ctx) for _ in range(n)]
                                for _ in range(k)])
        if rank_field(rows, ring.field_zero(), ring.field_one()) == k:
            return rows


def _loc_unimodular(rng, ctx, k):
    """(integral unimodular) x (diagonal of T-units), as field entries."""
    ring = ctx.base_ring()
    G = random_unimodular_z(rng, k) if ctx.kind == "Z" else \
        random_unimodular_poly(rng, 3, k)
    D = [[_t_unit(rng, ctx) if i == j else ring.field_zero() for j in range(k)]
         for i in range(k)]
    Gf = matrices.freeze([[ring.to_field(x) for x in row] for row in G])
    return matrices.matmul(Gf, matrices.freeze(D), ring.field_zero())


def _pivots(w):
    return [next(j for j, x in enumerate(row) if x) for row in localized_basis(w)]


def _is_residue(ctx, x, d):
    """x lies in the canonical residue system mod the T-free pivot d."""
    if ctx.kind == "Z":
        return x.denominator == 1 and 0 <= x < d
    return x.den.degree == 0 and x.num.degree < d.num.degree


@pytest.mark.parametrize("ctx", [CTX23, F3_CTX], ids=["Z[1/6]", "F3[t][T^-1]"])
class TestCanonicalBasis:
    def test_unit_invariance(self, ctx, rng):
        ring = ctx.base_ring()
        for _ in range(12):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            R = _t_rows(rng, ctx, n, k)
            U = _loc_unimodular(rng, ctx, k)
            UR = matrices.matmul(U, R, ring.field_zero())
            assert span_localized(ctx, n, UR) == span_localized(ctx, n, R)

    def test_pivots_and_residues(self, ctx, rng):
        for _ in range(12):
            n = rng.randint(1, 4)
            w = span_localized(ctx, n, _t_rows(rng, ctx, n, rng.randint(1, n)))
            pivots = _pivots(w)
            assert pivots == sorted(set(pivots))
            basis = localized_basis(w)
            for i, (row, c) in enumerate(zip(basis, pivots)):
                d = row[c]
                assert ctx.t_split(_num_den(d)[0])[0] == ctx.base_ring().one()  # T-free
                if ctx.kind == "Z":
                    assert d.denominator == 1 and d > 0
                else:
                    assert d.den.degree == 0 and d.num == d.num.monic()
                assert all(_is_residue(ctx, above[c], d) for above in basis[:i])

    def test_lattice_laws(self, ctx, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            a = span_localized(ctx, n, _t_rows(rng, ctx, n, rng.randint(1, n - 1)))
            b = span_localized(ctx, n, _t_rows(rng, ctx, n, rng.randint(1, n - 1)))
            join = a.join(b)
            assert join == b.join(a)
            assert a.meet(join) == a
            assert a.join(a.meet(b)) == a
            assert join.contains(a) and join.contains(b)
            assert join.rank + a.meet(b).rank == a.rank + b.rank


@pytest.mark.parametrize("ctx", [CTX23, F2_CTX, F3_CTX],
                         ids=["Z[1/6]", "F2[t][1/t]", "F3[t][T^-1]"])
def test_storage_is_w_cap_base_ring(ctx):
    # a LocSummand stores the saturated Hermite basis of W cap Z^n, and its
    # Z[T^-1] Hermite basis spans W again
    ring = ctx.base_ring()
    rng = random.Random(f"sarith-storage/{ctx.kind}/{ctx.q}")
    family = []
    for _ in range(8):
        n = rng.randint(2, 4)
        a = span_localized(ctx, n, _t_rows(rng, ctx, n, rng.randint(1, n - 1)))
        b = span_localized(ctx, n, _t_rows(rng, ctx, n, rng.randint(1, n - 1)))
        family += [a, b, a.meet(b), a.join(b)]
    assert any(w.is_zero() for w in family) and any(w.rank == w.n for w in family)
    for w in family:
        assert matrices.saturate(ring, w.basis) == w.basis
        assert all(isinstance(x, type(ring.zero())) for row in w.basis for x in row)
        assert LocSummand.from_rows(ctx, w.n, localized_basis(w)) == w


class TestLocalizedErrors:
    @pytest.mark.parametrize("ctx,rows", [
        (CTX23, [[1, 2], [2, 4]]),
        (F2_CTX, [[poly_one(2), poly_t(2)], [poly_t(2), poly_t(2) ** 2]]),
    ], ids=["Z", "FF"])
    def test_dependent_rows(self, ctx, rows):
        with pytest.raises(RankDeficiencyError,
                           match="rows are dependent over the fraction field"):
            LocSummand.from_rows(ctx, 2, rows)

    @pytest.mark.parametrize("ctx,entry", [
        (CTX23, _Q(1, 5)),
        (F2_CTX, FqRationalFunction(poly_one(2), poly(2, [1, 1]))),
    ], ids=["Z", "FF"])
    def test_denominator_outside_t(self, ctx, entry):
        zero = ctx.base_ring().field_zero()
        with pytest.raises(DomainError, match=r"is not in Z\[T\^-1\]"):
            LocSummand.from_rows(ctx, 2, [[entry, zero]])

    def test_known_bases(self):
        # pinned byte for byte: these bases are the JSON contract
        def enc(w):
            return [[str(x) for x in row] for row in localized_basis(w)]
        assert enc(LocSummand.from_rows(CTX23, 3, [[3, _Q(5, 2), 7]])) == \
            [["1", "5/6", "7/3"]]
        assert enc(LocSummand.from_rows(
            CTX23, 3, [[9, _Q(1, 4), 0], [0, 10, _Q(7, 3)]])) == \
            [["1", "1", "49/216"], ["0", "5", "7/6"]]
        assert enc(LocSummand.from_rows(
            CTX23, 3, [[5, 7, 11], [0, 25, _Q(1, 2)]])) == \
            [["5", "7", "11"], ["0", "25", "1/2"]]
        zero = poly(3, [])
        rows = [[T3 * T3 + 2 * ONE3, T3, zero],
                [zero, T3 + ONE3, FqRationalFunction(T3 + 2 * ONE3, T3)]]
        assert enc(LocSummand.from_rows(F3_CTX, 3, rows)) == \
            [["t+1", "2", "1/t"], ["0", "t+1", "(t+2)/t"]]


PIN_CTXS = {"Z[1/6]": CTX23, "F2[t][1/t]": F2_CTX, "F3[t][T^-1]": F3_CTX}

# intersect_integral rows and loc_c values of _pin_cases, frozen before the
# lattice Z[T^-1]^n cap B was built once per loc_c
PINNED = {
    "F2[t][1/t]": [
        ([["0", "t^4+t^3", "t^3"]], "-7"),
        ([["0", "1/t^2", "(t^2+t+1)/t^3"]], "-3"),
        ([["t+1", "(t^2+1)/t", "1/t"]], "-5"),
        ([["1/t", "(t+1)/t", "0"]], "-4"),
        ([["1", "1"]], "-1"),
        ([["1/t", "0", "0"]], "-2"),
    ],
    "F3[t][T^-1]": [
        ([["0", "1", "0"]], "1"),
        ([["1", "(t+2)/t", "0"]], "-4"),
        ([["0", "1/t"]], "0"),
        ([["1/t^3", "1/t", "2/t^3"], ["0", "(t^3+2*t^2+2)/t^2", "1/t"]], "-6"),
        ([["t^2", "t^2", "2*t^4+2*t^3+t^2"]], "-7"),
        ([["(t^3+2*t^2+t+2)/t^2", "(t^2+1)/t^2"]], "-7"),
    ],
    "Z[1/6]": [
        ([["1/4", "-1/4", "3/4"]], {"c_sq_ratio": "3/3844"}),
        ([["0", "9/4"]], {"c_sq_ratio": "5/2916"}),
        ([["1", "3", "1"]], {"log_arg": "13/147456000", "log_index": 4}),
        ([["1/4", "1/12", "-1/12"], ["0", "5/24", "1/6"]], {"c_sq_ratio": "385/394272"}),
        ([["3/4", "1/4", "3/4"], ["0", "5/4", "-3/2"]], {"c_sq_ratio": "5/317583"}),
        ([["3", "0"]], {"c_sq_ratio": "4/3"}),
    ],
}


def _pin_cases(name):
    """Seeded (W, x, B) triples: proper W, B with T- and non-T denominators."""
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    zero, one = ring.field_zero(), ring.field_one()
    rng = random.Random(f"sarith-pins/{name}")
    for _ in range(len(PINNED[name])):
        n = rng.randint(2, 3)
        if ctx.kind == "Z":
            B = random_invertible_rational(rng, n, 4, 6)
            x = random_spd(rng, n, spread=1)
        else:
            while True:
                B = matrices.freeze([[random_ratfunc(rng, ctx.q, 1) for _ in range(n)]
                                     for _ in range(n)])
                if det_field(B, zero, one):
                    break
            x = random_volume_space(rng, ctx.q, n, maxdeg=1)
        k = rng.randint(1, n - 1)
        while True:
            rows = [[rng.randint(-3, 3) if ctx.kind == "Z" else random_poly(rng, ctx.q, 2)
                     for _ in range(n)] for _ in range(k)]
            lifted = matrices.freeze([[ring.to_field(v) for v in r] for r in rows])
            if rank_field(lifted, zero, one) == k:
                break
        scale = one / ring.to_field(ctx.T[0] ** rng.randint(0, 2))
        yield (LocSummand.from_rows(ctx, n, rows), x,
               IntegralStructure(ctx, n, B).scaled(scale))


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
class TestPinnedOutputs:
    def test_intersect_and_c(self, name):
        got = []
        for w, x, B in _pin_cases(name):
            c = value_to_json(loc_c(w, x, B))
            if isinstance(c, dict):
                del c["decimal"]
            got.append(([[str(v) for v in row] for row in intersect_integral(w, B)], c))
        assert got == PINNED[name]

    def test_loc_logvol_matches_the_divided_rows(self, name):
        # loc_logvol corrects the volume of the undivided ring rows by B.den;
        # the volume of the canonical rows of W cap B gives the same value,
        # down to the ExactLog's terms
        for w, x, B in _pin_cases(name):
            rows = intersect_integral(w, B)
            got = loc_logvol(w, x, B)
            if PIN_CTXS[name].kind == "Z":
                assert got.terms == gram_logvol(x, rows).terms
            else:
                assert got == ff_logvol(x, rows)

    def test_one_lattice_build_per_c(self, name, monkeypatch):
        # Z[T^-1]^n cap B is one Hermite form of B's cleared generators, built
        # when B is: to_frame, loc_c, loc_logvol and intersect_integral build
        # none.  Moving W onto it takes no Smith form, loc_c and loc_logvol
        # run none on B's cleared basis, and loc_logvol reads its value in the
        # frame, with no volume of the undivided rows.  `_smith` is counted,
        # since `snf` wraps it and `factorize` calls it directly
        ring = PIN_CTXS[name].base_ring()
        builds, smith = [], []
        t_lattice, _smith = sarith._t_lattice, matrices._smith

        def counting_t_lattice(ctx, basis):
            builds.append(basis)
            return t_lattice(ctx, basis)

        def counting_smith(r, M):
            smith.append(matrices.freeze(M))
            return _smith(r, M)

        def unexpected(*args):
            raise AssertionError("loc_logvol took a volume outside the frame")
        monkeypatch.setattr(sarith, "_t_lattice", counting_t_lattice)
        monkeypatch.setattr(matrices, "_smith", counting_smith)
        monkeypatch.setattr(latz, "gram_vol2", unexpected)
        monkeypatch.setattr(latff, "ff_logvol", unexpected)
        for w, x, B in list(_pin_cases(name)):
            zB = matrices.clear_denominators(ring, B.basis)[1]
            builds.clear()
            B = IntegralStructure(B.ctx, B.n, B.basis)
            assert builds == [B.basis]
            smith.clear()
            sarith.to_frame(sarith.frame_oracle(x, B), w, B)
            assert smith == []
            loc_c(w, x, B)
            intersect_integral(w, B)
            loc_logvol(w, x, B)
            assert zB not in smith
            assert builds == [B.basis]


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
def test_stored_lattice_matches_uncached_path(name):
    # W cap B and Z[T^-1]^n cap B through the n Hermite rows stored on B,
    # against the 2n raw generators rebuilt from B's basis on every call
    ctx = PIN_CTXS[name]
    cases = [(w, B) for w, _, B in _pin_cases(name)]
    cases += [(w, B) for B, w in _outside_t_cases(name)]
    for w, B in cases:
        full = LocSummand.full(ctx, B.n)
        assert intersect_integral(w, B) == uncached_intersect_integral(w, B)
        assert intersect_integral(full, B) == uncached_intersect_integral(full, B)


def _t_integral_unimodular(rng, ctx, n):
    """A seeded K in GL_n(Z_T): unimodular x (diagonal of T-free units) x unimodular."""
    ring = ctx.base_ring()
    if ctx.kind == "Z":
        units = [Fraction(a, b) for a in (1, -1, 5, 7) for b in (1, 5, 7)]
        U1, U2 = random_unimodular_z(rng, n), random_unimodular_z(rng, n)
    else:
        t, e = poly_t(ctx.q), poly_one(ctx.q)
        free = [p for p in (e, t + e, t * t + t + e) if p not in ctx.T]
        units = [ring.to_field(a) / ring.to_field(b) for a in free for b in free]
        U1, U2 = (random_unimodular_poly(rng, ctx.q, n) for _ in range(2))
    DU2 = [[rng.choice(units) * ring.to_field(x) for x in row] for row in U2]
    U1f = matrices.freeze([[ring.to_field(x) for x in row] for row in U1])
    return matrices.matmul(U1f, matrices.freeze(DU2), ring.field_zero())


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
def test_equal_exactly_as_z_t_modules(name):
    # B K for K in GL_n(Z_T), and B scaled by a T-free unit, span the same
    # Z_T-module as B: they equal B, hash alike and give the same W cap B
    # and loc_c.  B scaled by a prime of T is a different module
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    rng = random.Random(f"sarith-module-equality/{name}")
    unit = ring.to_field(5 if ctx.kind == "Z" else poly_t(ctx.q) + poly_one(ctx.q))
    for w, x, B in _pin_cases(name):
        for C in (right_multiplied(B, _t_integral_unimodular(rng, ctx, B.n)),
                  B.scaled(unit)):
            assert C.basis != B.basis
            assert C == B and hash(C) == hash(B)
            assert intersect_integral(w, C) == intersect_integral(w, B)
            assert loc_c(w, x, C) == loc_c(w, x, B)
        assert B.scaled(ctx.T[0]) != B


def test_criterion_10_poset_builds_lattice_once(monkeypatch):
    # 13 lines and 25 planes of a box over Z[1/6], each intersected with
    # one B, as the loc-poset workload does: B's lattice is built once
    ctx, n = CTX23, 3
    Bm = random_invertible_rational(random.Random("sarith-poset-cache"), n, 4, 4)
    lines = {span_localized(ctx, n, [list(v)])
             for v in itertools.product(range(-1, 2), repeat=n) if any(v)}
    planes = {a.join(b) for a, b in itertools.combinations(lines, 2)}
    assert (len(lines), len(planes)) == (13, 25)
    builds = []
    t_lattice = sarith._t_lattice

    def counting_t_lattice(c, basis):
        builds.append(basis)
        return t_lattice(c, basis)
    monkeypatch.setattr(sarith, "_t_lattice", counting_t_lattice)
    B = IntegralStructure(ctx, n, Bm)
    for w in list(lines) + list(planes):
        assert len(intersect_integral(w, B)) == w.rank
    assert builds == [B.basis]


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
def test_singular_structure_is_rejected(name):
    # the column reduction of B's cleared basis reveals its rank: a column
    # that is a multiple of another, or a sum of two, is rejected
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    a = ring.field_one() / ring.to_field(ctx.T[0])
    b = ring.to_field(ctx.T[-1]) + ring.field_one()
    zero, one = ring.field_zero(), ring.field_one()
    for rows in ([[a, a * b], [one, b]],
                 [[a, one, a + one], [zero, b, b], [one, zero, one]]):
        with pytest.raises(SingularityError, match="integral structure basis is singular"):
            IntegralStructure(ctx, len(rows), rows)


class TestIntersect:
    def test_standard(self):
        B = IntegralStructure.standard(CTX2, 2)
        W = LocSummand.full(CTX2, 2)
        assert intersect_integral(W, B) == ((_Q(1), _Q(0)), (_Q(0), _Q(1)))

    def test_tilted_structure(self):
        B = _structure(CTX2, [[_Q(1, 2), 0], [0, 1]])
        W = LocSummand.full(CTX2, 2)
        assert intersect_integral(W, B) == ((_Q(1, 2), _Q(0)), (_Q(0), _Q(1)))

    def test_line_intersection(self):
        B = _structure(CTX2, [[_Q(1, 2), 0], [0, 1]])
        W = LocSummand.from_rows(CTX2, 2, [[1, 0]])
        assert intersect_integral(W, B) == ((_Q(1, 2), _Q(0)),)

    def test_poset_isomorphism(self, rng):
        # W -> W cap B is bijective, rank-preserving and meet/join-preserving
        # against an exhaustive family of small summands
        for _ in range(3):
            n = 3
            B = _structure(CTX23, random_invertible_rational(rng, n, 4, 4))
            lines = set()
            for _ in range(6):
                rows = [[rng.randint(-2, 2) for _ in range(n)]]
                if any(rows[0]):
                    lines.add(LocSummand.from_rows(CTX23, n, rows))
            planes = set()
            lines = list(lines)
            for i in range(len(lines)):
                for j in range(i + 1, len(lines)):
                    join = lines[i].join(lines[j])
                    if join.rank == 2:
                        planes.add(join)
            family = lines + list(planes)
            images = {}
            for w in family:
                img = intersect_integral(w, B)
                assert len(img) == w.rank  # rank preserved
                back = span_localized(CTX23, n, img)
                assert back == w  # the localized span inverts the map
                images[w] = matrices.freeze(img)
            assert len(set(images.values())) == len(family)  # injective
            for a in lines:
                for b in lines:
                    if a == b:
                        continue
                    meet_img = matrices.freeze(
                        intersect_integral(a.meet(b), B)) if a.meet(b).rank else ()
                    join_img = intersect_integral(a.join(b), B)
                    ia, ib = intersect_integral(a, B), intersect_integral(b, B)
                    from latred.rings import ZZ
                    inter = fractional_hnf(ZZ, _rational_lattice_intersect(ia, ib))
                    assert matrices.freeze(inter) == meet_img
                    hull = fractional_hnf(ZZ, ia + ib)
                    # join image contains the sum with finite index: same span
                    assert rank_field(
                        matrices.freeze(list(hull) + list(join_img)),
                        Fraction(0), Fraction(1)) == len(join_img)


def _rational_lattice_intersect(A, B):
    """Intersection of two rational lattices given by rows (scaled kernel)."""
    from latred.rings import ZZ
    import math
    denom = 1
    for row in list(A) + list(B):
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    Ai = [[int(x * denom) for x in row] for row in A]
    Bi = [[int(x * denom) for x in row] for row in B]
    inter = matrices.lattice_intersect(ZZ, Ai, Bi)
    return [[Fraction(x, denom) for x in row] for row in inter]


def _t_free(ctx, x):
    """A nonzero base-ring element with every prime of T divided out."""
    for p in ctx.T:
        while not x % p:
            x = x // p
    return x


def _num_den(x):
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return x.num, x.den


def _normalized(ctx, x):
    """x up to a unit of the base ring: |x| over Z, monic numerator over F_q."""
    if ctx.kind == "Z":
        return abs(x)
    return FqRationalFunction(x.num.monic(), x.den)


def _oracle_t_part(ctx, x):
    ring = ctx.base_ring()
    num, den = _num_den(x)
    return _normalized(ctx, ring.to_field(num // _t_free(ctx, num))
                       / ring.to_field(den // _t_free(ctx, den)))


def _outside_t_cases(name):
    """Seeded (B, W) with B's denominators carrying primes outside T.

    Over Z[1/6] the denominators include 5 and 35, over F_2[t][1/t] t + 1
    and t^2 + t + 1, over F_3[t] with T = {t, t^2 + 1} t + 1 and t + 2.
    """
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    zero, one = ring.field_zero(), ring.field_one()
    rng = random.Random(f"sarith-outside-T/{name}")
    if ctx.kind == "Z":
        dens = [1, 2, 3, 4, 5, 35, 10, 105]
    else:
        t, e = poly_t(ctx.q), poly_one(ctx.q)
        dens = [e, t, t + e, t * (t + e), t * t + t + e, (t + e) ** 2]
    for _ in range(6):
        n = rng.randint(2, 3)
        while True:
            B = matrices.freeze([[ring.to_field(rng.randint(-6, 6) if ctx.kind == "Z"
                                                else random_poly(rng, ctx.q, 2))
                                  / ring.to_field(rng.choice(dens)) for _ in range(n)]
                                 for _ in range(n)])
            if det_field(B, zero, one):
                break
        k = rng.randint(1, n - 1)
        while True:
            rows = matrices.freeze([[ring.to_field(rng.randint(-3, 3) if ctx.kind == "Z"
                                                   else random_poly(rng, ctx.q, 1))
                                     for _ in range(n)] for _ in range(k)])
            if rank_field(rows, zero, one) == k:
                break
        yield IntegralStructure(ctx, n, B), LocSummand.from_rows(ctx, n, rows)


def _assert_lattice_in_t_inverted_and_b(ctx, B, rows):
    """Entries in Z[T^-1]; coordinates over B's basis columns in Z_T."""
    ring = ctx.base_ring()
    for row in rows:
        for x in row:
            assert ring.is_unit(_t_free(ctx, _num_den(x)[1]))
    Binv = inverse_field(B.basis, ring.field_zero(), ring.field_one())
    coords = matrices.matmul(Binv, matrices.transpose(rows), ring.field_zero())
    for row in coords:
        for x in row:
            assert all(_num_den(x)[1] % p for p in ctx.T)


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
class TestDenominatorsOutsideT:
    """Z[T^-1]^n cap B and W cap B when B has denominators outside T.

    Only the T-part of B's denominators may reach the lattice: a prime
    outside T is a unit of Z_T, so it changes B but not the intersection.
    """

    def test_full_intersection(self, name):
        ctx = PIN_CTXS[name]
        ring = ctx.base_ring()
        zero, one = ring.field_zero(), ring.field_one()
        for B, _ in _outside_t_cases(name):
            L = intersect_integral(LocSummand.full(ctx, B.n), B)
            assert len(L) == B.n
            _assert_lattice_in_t_inverted_and_b(ctx, B, L)
            # a sublattice of Z[T^-1]^n cap B with its covolume is all of it
            assert _normalized(ctx, det_field(L, zero, one)) == \
                _oracle_t_part(ctx, det_field(B.basis, zero, one))
            assert fractional_hnf(ring, L) == L

    def test_intersect_integral(self, name):
        ctx = PIN_CTXS[name]
        ring = ctx.base_ring()
        zero, one = ring.field_zero(), ring.field_one()
        for B, w in _outside_t_cases(name):
            rows = intersect_integral(w, B)
            assert len(rows) == w.rank
            _assert_lattice_in_t_inverted_and_b(ctx, B, rows)
            assert rank_field(localized_basis(w) + rows, zero, one) == w.rank
            # saturated in Z[T^-1]^n cap B: integral coordinates over its
            # basis whose maximal minors have a unit gcd
            L = intersect_integral(LocSummand.full(ctx, B.n), B)
            C = matrices.matmul(rows, inverse_field(L, zero, one), zero)
            g = ring.zero()
            for m in minors(C, w.rank, lambda sub: det_field(sub, zero, one)).values():
                g = ring.gcd(g, integral(ring, m))
            assert ring.is_unit(g)
            assert fractional_hnf(ring, rows) == rows

    def test_factorize(self, name):
        # against the invariant factors D_ii / den split one fraction at a time
        ctx = PIN_CTXS[name]
        ring = ctx.base_ring()
        zero = ring.field_zero()
        for B, _ in _outside_t_cases(name):
            den, cleared = matrices.clear_denominators(ring, B.basis)
            U, D, V = matrices.snf(ring, cleared)
            n = B.n
            den = ring.to_field(den)
            parts = [_oracle_t_part(ctx, ring.to_field(D[i][i]) / den) for i in range(n)]
            left = [[ring.to_field(U[r][i]) * parts[i] for i in range(n)] for r in range(n)]
            right = [[ring.to_field(x) * (ring.to_field(D[i][i]) / den / parts[i])
                      for x in V[i]] for i in range(n)]
            Bm, Cm = factorize(B.basis, ctx)
            assert (Bm, Cm) == (matrices.freeze(left), matrices.freeze(right))
            assert matrices.matmul(Bm, Cm, zero) == B.basis


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
def test_w_cap_b_matches_q_annihilator(name):
    # W cap B and W's coordinates in the lattice frame, against the Q-kernel
    # of W's span; B with T-denominators and with denominators outside T
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    rng = random.Random(f"sarith-annihilator/{name}")
    cases = list(_pin_cases(name))
    for B, w in _outside_t_cases(name):
        x = random_spd(rng, B.n, spread=1) if ctx.kind == "Z" else \
            random_volume_space(rng, ctx.q, B.n, maxdeg=1)
        cases.append((w, x, B))
    for w, x, B in cases:
        den, rows = sarith._t_lattice(ctx, B.basis)
        want = [[ring.to_field(v) / ring.to_field(den) for v in row]
                for row in span_meet(ring, w.basis, rows, rows)]
        assert intersect_integral(w, B) == matrices.freeze(want)
        ident = matrices.identity_rows(w.n, ring.one(), ring.zero())
        frame = sarith.frame_oracle(x, B)
        assert sarith.to_frame(frame, w, B).basis == span_meet(ring, w.basis, B.H, ident)


def _skewed_det_cases(name):
    """Seeded B = U1 diag(d) U2 / den with det B of high T-power and T-free factors.

    A random part of the factors (for Z[1/6]: 2^5 3^2 5 7) is spread over the
    diagonal; den runs over T-powers and primes outside T.
    """
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    rng = random.Random(f"sarith-skewed-det/{name}")
    if ctx.kind == "Z":
        factors, dens = [2] * 5 + [3] * 2 + [5, 7], [1, 2, 3, 4, 5, 35, 6, 84]
    else:
        t, e = poly_t(ctx.q), poly_one(ctx.q)
        t_free = [t + e, t * t + t + e] if ctx.q == 2 else [t + e, t + 2 * e]
        factors = [p for p in ctx.T for _ in range(5 // len(ctx.T))] + t_free
        dens = [e, t, t_free[0], t * t_free[1], ctx.T[-1], t ** 3]
    for i in range(8):
        n = rng.randint(2, 3)
        diag = [ring.one()] * n
        for f in factors:
            if i == 0 or rng.random() < 0.7:
                j = rng.randrange(n)
                diag[j] = diag[j] * f
        U1, U2 = ((random_unimodular_z(rng, n) if ctx.kind == "Z"
                   else random_unimodular_poly(rng, ctx.q, n)) for _ in range(2))
        DU2 = [[d * x for x in row] for d, row in zip(diag, U2)]
        den = ring.to_field(rng.choice(dens))
        yield IntegralStructure(ctx, n, [[ring.to_field(x) / den for x in row]
                                         for row in matrices.matmul(U1, DU2, ring.zero())])


@pytest.mark.parametrize("name", sorted(PIN_CTXS))
def test_t_lattice_matches_smith_form(name):
    # the Hermite form of zB Z^n + c Z^n against the Smith-form lattice
    ctx = PIN_CTXS[name]
    ring = ctx.base_ring()
    for B in itertools.chain(_skewed_det_cases(name), (b for b, _ in _outside_t_cases(name))):
        den, rows = sarith._t_lattice(ctx, B.basis)
        ref_den, ref_rows = snf_t_lattice(ctx, B)
        assert den == ref_den
        assert matrices.hnf(ring, rows) == matrices.hnf(ring, ref_rows)


def test_every_z_congruence_is_one_integer_product(monkeypatch):
    # a Z Gram congruence is one integer matmul pair over one denominator,
    # on the form cleared once: the filtration, its c-values, volumes and the
    # localized c-values and volumes multiply no Fraction matrices
    fraction_products = []
    matmul = matrices.matmul

    def counting_matmul(A, B, zero):
        if isinstance(zero, Fraction):
            fraction_products.append((A, B))
        return matmul(A, B, zero)
    monkeypatch.setattr(matrices, "matmul", counting_matmul)
    rng = random.Random("one-integer-congruence")
    for n in (2, 3, 4):
        for _ in range(3):
            s = random_spd(rng, n, spread=1).scaled(_Q(rng.randint(1, 9), rng.randint(1, 9)))
            for w in canonical_filtration_z(s).interior_chain():
                instability_z(s, w)
            w = random_z_summand(rng, n, rng.randint(1, n - 1))
            gram_vol2(s, w.basis)
            B = IntegralStructure(CTX23, n, random_invertible_rational(rng, n, 4, 6))
            lw = LocSummand.from_rows(CTX23, n, w.basis)
            loc_c(lw, s, B)
            loc_logvol(lw, s, B)
    assert fraction_products == []


class TestLocalizedVolume:
    def test_examples(self):
        s = InnerProduct.identity(2)
        B = _structure(CTX2, [[_Q(1, 2), 0], [0, 1]])
        full = LocSummand.full(CTX2, 2)
        lv = loc_logvol(full, s, B)
        assert (lv - ExactLog.half_log(Fraction(1, 4))).is_zero()
        e2 = LocSummand.from_rows(CTX2, 2, [[0, 1]])
        assert loc_logvol(e2, s, B).is_zero()
        B_std = IntegralStructure.standard(CTX2, 2)
        w = LocSummand.from_rows(CTX2, 2, [[1, 1]])
        assert (loc_logvol(w, s, B_std) - ExactLog.half_log(2)).is_zero()

    def test_localized_convention_axioms(self, rng):
        # strict monotonicity, additivity, subadditivity on random pairs
        from conftest import random_z_summand
        for _ in range(10):
            n = 3
            s = random_spd(rng, n, spread=1)
            B = _structure(CTX23, random_invertible_rational(rng, n, 3, 3))
            a = span_localized(CTX23, n, random_z_summand(rng, n, rng.randint(1, 2)).basis)
            b = span_localized(CTX23, n, random_z_summand(rng, n, rng.randint(1, 2)).basis)
            meet, join = a.meet(b), a.join(b)
            assert meet.rank + join.rank == a.rank + b.rank
            lhs = loc_logvol(meet, s, B) + loc_logvol(join, s, B)
            rhs = loc_logvol(a, s, B) + loc_logvol(b, s, B)
            assert lhs <= rhs
            if a.contains(b) and a != b:
                assert a.rank > b.rank


class TestMismatchedSettings:
    """A summand and an integral structure must share localization and rank."""

    def test_other_localization_rejected(self):
        # W over Z[1/2] against B over Z[1/6]: once answered ((3, 3),) and a
        # negative c-value
        w = LocSummand.from_rows(CTX2, 2, [[1, 1]])
        B = _structure(CTX23, [[3, 0], [0, 3]])
        s = InnerProduct.identity(2)
        for call in (lambda: intersect_integral(w, B), lambda: loc_logvol(w, s, B),
                     lambda: loc_c(w, s, B),
                     lambda: intersect_integral(LocSummand.zero(CTX2, 2), B)):
            with pytest.raises(DomainError, match="different localizations"):
                call()
        ff_w = LocSummand.from_rows(F2_CTX, 2, [[poly(2, []), poly_one(2)]])
        with pytest.raises(DomainError, match="different localizations"):
            intersect_integral(ff_w, IntegralStructure.standard(CTX2, 2))

    def test_other_rank_rejected(self):
        # a rank-3 W against a 2 x 2 B: once answered a log-volume
        w = LocSummand.from_rows(CTX2, 3, [[1, 2, 0]])
        B = IntegralStructure.standard(CTX2, 2)
        s = InnerProduct.identity(2)
        for call in (lambda: intersect_integral(w, B), lambda: loc_logvol(w, s, B),
                     lambda: loc_c(w, s, B)):
            with pytest.raises(DimensionError, match="ambient rank 3"):
                call()
        with pytest.raises(DimensionError, match="point of rank 3"):
            loc_c(LocSummand.from_rows(CTX2, 2, [[1, 2]]), InnerProduct.identity(3), B)

    def test_point_of_other_side_rejected(self):
        # a volume space against a Z structure, and an inner product against
        # an F_q[t] one: loc_c and the cover path once raised AttributeError
        from latred.covers import CoverSystem, cover_membership
        f0, f1 = poly(2, []), poly_one(2)
        cases = [(LocSummand.from_rows(CTX2, 2, [[1, 1]]), IntegralStructure.standard(CTX2, 2),
                  VolumeSpace.standard(2, 2), "integer-side .* needs an InnerProduct"),
                 (LocSummand.from_rows(F2_CTX, 2, [[f0, f1]]),
                  IntegralStructure.standard(F2_CTX, 2), InnerProduct.identity(2),
                  "function-field .* needs a VolumeSpace")]
        for w, B, x, msg in cases:
            for call in (lambda: loc_logvol(w, x, B), lambda: loc_c(w, x, B),
                         lambda: cover_membership((x, B), CoverSystem(2, Fraction(0)))):
                with pytest.raises(DomainError, match=msg):
                    call()

    def test_equal_contexts_need_not_be_one_object(self):
        w = LocSummand.from_rows(LocalizedContext.integers([3, 2]), 2, [[1, 1]])
        B = IntegralStructure.standard(CTX23, 2)
        assert w.ctx is not B.ctx and w.ctx == B.ctx
        assert intersect_integral(w, B) == ((1, 1),)


class TestLocalizedInstability:
    def test_boundary_rejected(self):
        from latred.errors import BoundaryModuleError
        s = InnerProduct.identity(2)
        B = IntegralStructure.standard(CTX2, 2)
        with pytest.raises(BoundaryModuleError):
            loc_c(LocSummand.zero(CTX2, 2), s, B)
        with pytest.raises(BoundaryModuleError):
            loc_c(LocSummand.full(CTX2, 2), s, B)

    def test_examples(self):
        s = InnerProduct.identity(2)
        B = _structure(CTX2, [[_Q(1, 2), 0], [0, 1]])
        e1 = LocSummand.from_rows(CTX2, 2, [[1, 0]])
        c = loc_c(e1, s, B)
        assert (c - ExactLog.half_log(4)).is_zero()  # ln 2
        assert loc_c(e1, s, IntegralStructure.standard(CTX2, 2)).is_zero()

    def test_ff_delegation(self):
        # standard structure reduces to the plain r-vector computation
        q = 2
        t = poly_t(q)
        ctx = LocalizedContext.function_field(q, [t])
        vs = VolumeSpace(q, 2, [[poly_one(q), poly(q, [])], [poly(q, []), t ** 2]])
        B = IntegralStructure.standard(ctx, 2)
        w = LocSummand.from_rows(ctx, 2, [[poly(q, []), poly_one(q)]])  # <e2>
        assert loc_c(w, vs, B) == 2  # r = (-2, 0) jump

    def test_scaling_invariance(self, rng):
        from conftest import random_z_summand
        for _ in range(6):
            n = 2
            s = random_spd(rng, n, spread=1)
            B = _structure(CTX2, random_invertible_rational(rng, n, 3, 3))
            w = span_localized(CTX2, n, random_z_summand(rng, n, 1, spread=2).basis)
            c0 = loc_c(w, s, B)
            lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            assert (loc_c(w, s.scaled(lam), B) - c0).is_zero()
            assert (loc_c(w, s, B.scaled(2)) - c0).is_zero()
            assert (loc_c(w, s.scaled(lam), B.scaled(2)) - c0).is_zero()

    def test_volume_scaling_laws(self, rng):
        from conftest import random_z_summand
        for _ in range(8):
            n = 2
            s = random_spd(rng, n, spread=1)
            B = _structure(CTX2, random_invertible_rational(rng, n, 3, 3))
            w = span_localized(CTX2, n, random_z_summand(rng, n, rng.randint(1, 2)).basis)
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            base = loc_logvol(w, s, B)
            scaled = loc_logvol(w, s.scaled(lam), B)
            assert (scaled - base - ExactLog.log(lam, Fraction(w.rank, 2))).is_zero()
            shifted = loc_logvol(w, s, B.scaled(2))
            assert (shifted - base - ExactLog.log(2, w.rank)).is_zero()

    def test_ff_volume_scaling_laws(self, rng):
        q = 2
        t = poly_t(q)
        ctx = LocalizedContext.function_field(q, [t])
        for _ in range(6):
            vs = random_volume_space(rng, q, 2, maxdeg=1)
            B = IntegralStructure.standard(ctx, 2)
            w = LocSummand.from_rows(ctx, 2, [[poly_one(q), poly(q, [rng.randrange(2)])]])
            lam = random_ratfunc(rng, q, 2)
            if lam.is_zero():
                continue
            base = loc_logvol(w, vs, B)
            assert loc_logvol(w, vs.scaled(lam), B) == w.rank * lam.nu() + base
            assert loc_logvol(w, vs, B.scaled(t)) == -w.rank * t_nu(t) + base


def t_nu(t):
    return FqRationalFunction.of(t).nu()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lattice_frame_on_nontrivial_ff_structure(q):
    # loc_c on F_q moves the volume space by L^-T = den H^-T, solved on the
    # triangular Hermite rows; the workloads only meet the standard B, so
    # here den != 1, some pivot of H is not a unit and H has entries above
    # its diagonal.  The space built on ring rows, for that B and for the
    # standard one, is the public constructor's on the F_q(t) reference
    t = poly_t(q)
    ctx = LocalizedContext.function_field(q, [t])
    ring = ctx.base_ring()
    zero, one = ring.field_zero(), ring.field_one()
    rng = random.Random(f"lattice-frame/{q}")
    checked = 0
    for _ in range(400):
        n = rng.choice([2, 3])
        rows = [[random_ratfunc(rng, q, 2) for _ in range(n)] for _ in range(n)]
        if not det_field(matrices.freeze(rows), zero, one):
            continue
        B = IntegralStructure(ctx, n, rows)
        H = B.H
        if B.den == ring.one() or all(ring.is_unit(H[i][i]) for i in range(n)) \
                or not any(H[i][j] for i in range(n) for j in range(i + 1, n)):
            continue
        x = random_volume_space(rng, q, n, maxdeg=1)
        for frame in (IntegralStructure.standard(ctx, n), B):
            den = ring.to_field(frame.den)
            L = matrices.freeze([[ring.to_field(h) / den for h in row] for row in frame.H])
            Linv = inverse_field(L, zero, one)
            expected = matrices.matmul(matrices.transpose(Linv), x.basis, zero)
            got, ref = sarith.frame_oracle(x, frame).vs, VolumeSpace(q, n, expected)
            assert got.basis == expected
            assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)
        w = LocSummand.from_rows(ctx, n, [[random_poly(rng, q, 2) for _ in range(n)]])
        if not w.is_zero():
            assert loc_c(w, x, B) == loc_c(w, x, B.scaled(t))
        checked += 1
        if checked == 6:
            break
    assert checked == 6


class TestNeighborBoundLocalized:
    def test_sandwiched_structures(self, rng):
        # zB subset B' subset B forces the volume window rk(W) * ln z
        from conftest import random_z_summand
        import math
        for _ in range(6):
            n = 2
            s = random_spd(rng, n, spread=1)
            B = _structure(CTX23, random_invertible_rational(rng, n, 3, 3))
            z = 6  # prod of T
            U1 = random_unimodular_z(rng, n)
            D = [[Fraction(rng.choice([1, 2, 3, 6])) if i == j else Fraction(0)
                  for j in range(n)] for i in range(n)]
            K = matrices.matmul(matrices.freeze([[Fraction(x) for x in row] for row in U1]),
                                matrices.freeze(D), Fraction(0))
            Bp = right_multiplied(B, K)
            w = span_localized(CTX23, n, random_z_summand(rng, n, rng.randint(1, 2)).basis)
            lo = loc_logvol(w, s, B)
            hi = loc_logvol(w, s, Bp)
            # zB subset B' subset B up to units: volumes within rk(W)*ln z
            diff = (hi - lo).to_float()
            assert -1e-9 <= diff <= w.rank * math.log(z) + 1e-9


class TestFactorize:
    def test_already_localized(self):
        A = [[_Q(1, 2), 0], [0, 2]]
        Bm, Cm = factorize(A, CTX2)
        assert matrices.matmul(Bm, Cm, Fraction(0)) == matrices.freeze(
            [[_Q(1, 2), _Q(0)], [_Q(0), _Q(2)]])

    def test_mixed_denominator(self):
        A = [[1, _Q(1, 6)], [0, 1]]
        Bm, Cm = factorize(A, CTX2)
        prod = matrices.matmul(Bm, Cm, Fraction(0))
        assert prod == matrices.freeze([[_Q(1), _Q(1, 6)], [_Q(0), _Q(1)]])
        assert all(CTX2.in_t_inverted(x) for row in Bm for x in row)
        assert all(in_t_integral(CTX2, x) for row in Cm for x in row)

    def test_outside_primes_stay_right(self):
        A = [[_Q(1, 3), 0], [0, 3]]
        Bm, Cm = factorize(A, CTX2)
        assert matrices.matmul(Bm, Cm, Fraction(0)) == matrices.freeze(
            [[_Q(1, 3), _Q(0)], [_Q(0), _Q(3)]])
        assert all(CTX2.in_t_inverted(x) and in_t_integral(CTX2, x)
                   for row in Bm for x in row)  # B is an integer matrix here

    def test_singular_rejected(self):
        # the mode is checked first, then singularity, then det = 1
        for mode in ("GL", "SL"):
            with pytest.raises(SingularityError, match="needs an invertible matrix"):
                factorize([[1, 1], [1, 1]], CTX2, mode)
        with pytest.raises(DomainError, match="unknown factorization mode 'XL'"):
            factorize([[2, 0], [0, 1]], CTX2, "XL")
        for A in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]):
            with pytest.raises(DimensionError):
                factorize(A, CTX2)

    def test_unknown_mode_takes_no_smith_form(self, monkeypatch):
        # an unknown mode is rejected before the matrix is read: a singular or
        # non-square A reports the mode, and no Smith form is taken
        def no_smith(*args):
            raise AssertionError("a Smith form was taken")
        monkeypatch.setattr(matrices, "_smith", no_smith)
        for A in ([[1, 1], [1, 1]], [[1, 2, 3], [4, 5, 6]], [[0]]):
            with pytest.raises(DomainError, match="unknown factorization mode 'XY'"):
                factorize(A, CTX2, mode="XY")

    def test_sl_mode_det_guard(self):
        with pytest.raises(DeterminantError):
            factorize([[2, 0], [0, 1]], CTX2, mode="SL")

    def test_random_gl(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            A = random_invertible_rational(rng, n)
            Bm, Cm = factorize(A, CTX23)
            assert matrices.matmul(Bm, Cm, Fraction(0)) == A
            assert all(CTX23.in_t_inverted(x) for row in Bm for x in row)
            assert all(in_t_integral(CTX23, x) for row in Cm for x in row)

    def test_random_sl(self, rng):
        for _ in range(15):
            n = rng.randint(2, 4)
            A = _random_sl(rng, n)
            Bm, Cm = factorize(A, CTX23, mode="SL")
            assert det_field(Bm, Fraction(0), Fraction(1)) == 1
            assert det_field(Cm, Fraction(0), Fraction(1)) == 1
            assert matrices.matmul(Bm, Cm, Fraction(0)) == A

    def test_poly_side(self, rng):
        q = 2
        t = poly_t(q)
        ctx = LocalizedContext.function_field(q, [t])
        ring = poly_ring(q)
        for _ in range(8):
            n = rng.randint(1, 3)
            while True:
                A = [[random_ratfunc(rng, q, 2) for _ in range(n)] for _ in range(n)]
                if det_field(matrices.freeze(A), ring.field_zero(), ring.field_one()):
                    break
            Bm, Cm = factorize(A, ctx)
            assert matrices.matmul(Bm, Cm, ring.field_zero()) == matrices.freeze(A)
            assert all(ctx.in_t_inverted(x) for row in Bm for x in row)
            assert all(in_t_integral(ctx, x) for row in Cm for x in row)

    @pytest.mark.parametrize("mode", ["GL", "SL"])
    @pytest.mark.parametrize("name", sorted(PIN_CTXS))
    def test_factors_lie_in_their_groups(self, name, mode):
        # factorize builds B in GL_n(Z[T^-1]) and C in GL_n(Z_T) without
        # checking them; this is where that is checked
        ctx = PIN_CTXS[name]
        ring = ctx.base_ring()
        zero, one = ring.field_zero(), ring.field_one()
        rng = random.Random(f"factorize-groups/{name}/{mode}")
        for n in (2, 3):
            for _ in range(6):
                A = _random_sl_over(rng, ctx, n) if mode == "SL" else \
                    _random_gl_over(rng, ctx, n)
                Bm, Cm = factorize(A, ctx, mode)
                assert matrices.matmul(Bm, Cm, zero) == A
                assert all(ctx.in_t_inverted(x) for row in Bm for x in row)
                assert all(in_t_integral(ctx, x) for row in Cm for x in row)
                dB, dC = (det_field(M, zero, one) for M in (Bm, Cm))
                assert ctx.in_t_inverted(dB) and ctx.in_t_inverted(one / dB)
                assert in_t_integral(ctx, dC) and in_t_integral(ctx, one / dC)
                if mode == "SL":
                    assert dB == dC == one

    @pytest.mark.parametrize("name", sorted(PIN_CTXS))
    def test_sl_mode_against_reference_determinant(self, name):
        # SL mode reads det A and det B off the Smith elimination; det_field
        # on A and on both factors is the reference
        ctx = PIN_CTXS[name]
        ring = ctx.base_ring()
        zero, one = ring.field_zero(), ring.field_one()
        rng = random.Random(f"factorize-sl/{name}")
        two = one + one
        cases = [((-one, zero), (zero, one)), ((zero, one), (one, zero))]
        if two:  # det 2: over Z, and the constant 2 over F_3
            cases.append(((two, zero), (zero, one)))
        if ctx.kind == "FF":
            cases.append(((ring.to_field(poly_t(ctx.q)), zero), (zero, one)))
        for n in (1, 2, 3):
            for _ in range(6):
                A = _random_gl_over(rng, ctx, n)
                d = det_field(A, zero, one)
                cases.append(A)
                for unit in (one, -one):  # row 0 divided by the determinant, up to sign
                    cases.append(matrices.freeze(
                        [[unit * x / d for x in row] if i == 0 else row
                         for i, row in enumerate(A)]))
                if n > 1:
                    cases.append(_random_sl_over(rng, ctx, n))
        outcomes = set()
        for A in cases:
            A = matrices.freeze(A)
            if det_field(A, zero, one) != one:
                outcomes.add("refused")
                with pytest.raises(DeterminantError):
                    factorize(A, ctx, "SL")
                continue
            outcomes.add("split")
            Bm, Cm = factorize(A, ctx, "SL")
            assert matrices.matmul(Bm, Cm, zero) == A
            assert det_field(Bm, zero, one) == one
            assert det_field(Cm, zero, one) == one
        assert outcomes == {"refused", "split"}
        assert factorize([], ctx, "SL") == ((), ())

    def test_conjugated(self, rng):
        for _ in range(5):
            n = 2
            A = _random_sl(rng, n)
            G = random_invertible_rational(rng, n, 5, 5)
            P, Q = factorize_conjugated(A, CTX23, G)
            assert matrices.matmul(P, Q, Fraction(0)) == A
            assert det_field(P, Fraction(0), Fraction(1)) == 1
            assert all(CTX23.in_t_inverted(x) for row in P for x in row)
            # Q lies in G' SL_n(Z_T) G'^-1 for the GL factor G' of G: verify
            # by conjugating back with the left factor of G
            B1, _ = factorize(G, CTX23)
            B1inv = inverse_field(B1, Fraction(0), Fraction(1))
            inner = matrices.matmul(matrices.matmul(B1inv, Q, Fraction(0)), B1,
                                    Fraction(0))
            assert all(in_t_integral(CTX23, x) for row in inner for x in row)
            assert det_field(inner, Fraction(0), Fraction(1)) == 1


def _random_sl(rng, n):
    """Product of elementary shears: exact determinant one."""
    out = matrices.identity_rows(n, Fraction(1), Fraction(0))
    out = [list(r) for r in out]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for k in range(n):
                out[i][k] += c * out[j][k]
    return matrices.freeze(out)


def _mixed_fraction(rng, ctx):
    """A T-fraction times a random fraction: denominators in and outside T."""
    other = Fraction(rng.randint(-5, 5), rng.randint(1, 7)) if ctx.kind == "Z" \
        else random_ratfunc(rng, ctx.q, 2)
    return _t_fraction(rng, ctx) * other


def _random_gl_over(rng, ctx, n):
    ring = ctx.base_ring()
    while True:
        A = matrices.freeze([[_mixed_fraction(rng, ctx) for _ in range(n)]
                             for _ in range(n)])
        if det_field(A, ring.field_zero(), ring.field_one()):
            return A


def _random_sl_over(rng, ctx, n):
    """Shears with mixed entries, then rows 0 and 1 scaled by u and 1/u."""
    ring = ctx.base_ring()
    out = [list(r) for r in matrices.identity_rows(n, ring.field_one(), ring.field_zero())]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = _mixed_fraction(rng, ctx)
        out[i] = [a + c * b for a, b in zip(out[i], out[j])]
    u = _mixed_fraction(rng, ctx)
    if u:
        out[0], out[1] = [u * x for x in out[0]], [x / u for x in out[1]]
    return matrices.freeze(out)
