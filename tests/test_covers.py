"""Cover systems, core tests, orbit representatives, thinned membership."""

import math
from fractions import Fraction

import pytest

from latred import matrices
from latred.building import BuildingContext, canonical_vertex, neighbors, standard_vertex
from latred.covers import (CoverSystem, SimplexPoint, core_orbit_reps,
                           core_test, cover_membership,
                           thinned_membership, vertex_r_vector,
                           vertex_volume_space)
from latred.errors import DomainError, ScaleError
from latred.fq import FqRationalFunction, poly, poly_one, poly_t
from latred.latff import instability_ff
from latred.latz import InnerProduct
from latred.logs import ExactLog
from latred.sarith import IntegralStructure, LocalizedContext

from conftest import (apply, core_test_via_reps, normalize_r_vector, random_invertible_rational,
                      random_spd, random_unimodular_poly, random_volume_space,
                      right_multiplied)

CTX_FF2 = BuildingContext.function_field(2, 2)
CTX_FF3 = BuildingContext.function_field(2, 3)


def _diag_vertex(ctx, exponents):
    q = ctx.q
    t = poly_t(q)
    one = poly_one(q)
    zero = poly(q, [])
    cols = []
    for i, e in enumerate(exponents):
        col = [FqRationalFunction.of(zero)] * ctx.n
        col[i] = FqRationalFunction.of(t ** e) if e >= 0 \
            else FqRationalFunction(one, t ** (-e))
        cols.append(col)
    return canonical_vertex(cols, ctx)


def _random_vertex(rng, ctx):
    vs = random_volume_space(rng, ctx.q, ctx.n, maxdeg=2)
    cols = [[vs.basis[i][j] for i in range(ctx.n)] for j in range(ctx.n)]
    return canonical_vertex(cols, ctx)


class TestMembership:
    def test_ff_vertex_above_threshold(self):
        v = _diag_vertex(CTX_FF2, (5, -5))  # r jumps by 10
        hits = cover_membership(v, CoverSystem(2, Fraction(8)), with_values=True)
        assert len(hits) == 1
        assert hits[0][1] == 10

    def test_standard_vertex_empty(self):
        assert cover_membership(standard_vertex(CTX_FF2),
                                CoverSystem(2, Fraction(8))) == []

    def test_integer_side_split_form(self):
        hits = cover_membership(InnerProduct.diagonal([1, 4]),
                                CoverSystem.semistability(2))
        assert len(hits) == 1 and hits[0].basis == ((1, 0),)

    def test_multiplicity_bound(self, rng):
        for _ in range(8):
            v = _random_vertex(rng, CTX_FF3)
            hits = cover_membership(v, CoverSystem.semistability(3))
            assert len(hits) <= 2  # n - 1
            ranks = [w.rank for w in hits]
            assert len(set(ranks)) == len(ranks)

    def test_same_rank_disjointness(self, rng):
        # no point carries two distinct same-rank summands above threshold
        for _ in range(6):
            s = random_spd(rng, 3, spread=1)
            hits = cover_membership(s, CoverSystem.semistability(3))
            ranks = [w.rank for w in hits]
            assert len(set(ranks)) == len(ranks)

    def test_ff_equivariance(self, rng):
        # membership of g(S) is the g-image of membership of S
        for _ in range(6):
            vs = random_volume_space(rng, 2, 2, maxdeg=2)
            g = random_unimodular_poly(rng, 2, 2)
            sys0 = CoverSystem.semistability(2)
            base = cover_membership(vs, sys0)
            moved = cover_membership(vs.transformed(g), sys0)
            gT = matrices.transpose(g)
            assert [w.basis for w in moved] == \
                [apply(w, gT).basis for w in base]

    def test_z_equivariance(self, rng):
        from conftest import random_unimodular_z
        for _ in range(5):
            s = random_spd(rng, 3, spread=1)
            g = random_unimodular_z(rng, 3)
            sys0 = CoverSystem.semistability(3)
            base = cover_membership(s, sys0)
            moved = cover_membership(s.pulled_back(g), sys0)
            assert [w.basis for w in base] == [apply(w, g).basis for w in moved]


class TestLocalizedMembership:
    def test_matches_direct_instability(self, rng):
        from latred.sarith import loc_c
        ctx = LocalizedContext.integers([2, 3])
        n = 2
        for _ in range(6):
            s = random_spd(rng, n, spread=2)
            B = IntegralStructure(ctx, n, random_invertible_rational(rng, n, 4, 4))
            hits = cover_membership((s, B), CoverSystem.semistability(n),
                                    with_values=True)
            for w, c in hits:
                assert (c - loc_c(w, s, B)).is_zero()

    def test_ff_matches_direct_instability(self, rng):
        from latred.sarith import loc_c
        from latred.rings import poly_ring
        q = 2
        t = poly_t(q)
        ring = poly_ring(q)
        ctx = LocalizedContext.function_field(q, [t])
        n = 2
        for _ in range(5):
            vs = random_volume_space(rng, q, n, maxdeg=2)
            B = IntegralStructure(ctx, n, [
                [ring.field_one(), ring.field_zero()],
                [ring.field_zero(), ring.to_field(t * t)]])
            hits = cover_membership((vs, B), CoverSystem.semistability(n),
                                    with_values=True)
            for w, c in hits:
                assert c == loc_c(w, vs, B)


class TestLinearExtension:
    def test_simplex_point_instability_is_affine(self, rng):
        v0 = standard_vertex(CTX_FF2)
        v1 = _diag_vertex(CTX_FF2, (0, 6))
        # make them adjacent-or-equal? (0,6) is not adjacent to standard; use
        # a genuine neighbor instead
        v1 = neighbors(v0)[0][0]
        pt = SimplexPoint((v0, v1), (Fraction(1, 3), Fraction(2, 3)))
        sys0 = CoverSystem.semistability(2)
        hits = cover_membership(pt, sys0, with_values=True)
        for w, c in hits:
            c0 = instability_ff(vertex_volume_space(v0), w)
            c1 = instability_ff(vertex_volume_space(v1), w)
            assert c == Fraction(1, 3) * c0 + Fraction(2, 3) * c1

    def test_rejects_non_adjacent(self):
        v0 = standard_vertex(CTX_FF2)
        far = _diag_vertex(CTX_FF2, (0, 6))
        with pytest.raises(DomainError):
            SimplexPoint((v0, far), (Fraction(1, 2), Fraction(1, 2)))


class TestCoreTest:
    def test_examples(self):
        sys1 = CoverSystem(2, Fraction(1))
        assert core_test(_diag_vertex(CTX_FF2, (0, 0)), sys1)
        assert not core_test(_diag_vertex(CTX_FF2, (3, -3)), sys1)
        assert core_test(InnerProduct.identity(2), CoverSystem.semistability(2))
        assert core_test(InnerProduct.identity(2), CoverSystem.building_preset(2))

    def test_agreement_with_reps(self, rng):
        sys3 = CoverSystem(2, Fraction(3))
        reps = core_orbit_reps(2, 3)
        for _ in range(20):
            v = _random_vertex(rng, CTX_FF2)
            assert core_test(v, sys3) == core_test_via_reps(v, reps)

    def test_normalization(self):
        assert normalize_r_vector((-2, 0)) == (-1, 1)
        assert normalize_r_vector((5, 5)) == (0, 0)
        assert normalize_r_vector((0, 1)) == (0, 1)


class TestNegativeThreshold:
    def test_rejected_exactly_below_zero(self):
        # theta < 0 exactly when c = 0 exceeds it, rational or exact-log
        with pytest.raises(DomainError, match="cover threshold -1 is negative"):
            CoverSystem(2, Fraction(-1))
        with pytest.raises(DomainError, match="is negative"):
            CoverSystem(2, Fraction(-1), ExactLog.log(2, 1))  # ln 2 - 1 < 0
        sys_ = CoverSystem(2, Fraction(-1), ExactLog.log(3, 1))  # ln 3 - 1 > 0
        assert sys_.exceeded_by(Fraction(1, 10)) and not sys_.exceeded_by(Fraction(1, 20))
        assert not CoverSystem(2).exceeded_by(0)


class TestLocalizedPreset:
    """theta = 4n(R + 1), R the log-size of the prime set, on each side of it."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_integer_primes(self, n):
        sys_ = CoverSystem.localized_preset(n, LocalizedContext.integers([3, 2]))
        assert sys_.threshold_const == 4 * n
        assert sys_.threshold_log == ExactLog.log(6, 4 * n)
        theta = 4 * n * (math.log(6) + 1)  # irrational: picks the test points only
        assert not sys_.exceeded_by(Fraction(math.floor(theta)))
        assert sys_.exceeded_by(Fraction(math.ceil(theta)))
        # 4n ln(6 * 27/10) < theta < 4n ln(6 * 28/10), since 2.7 < e < 2.8
        assert not sys_.exceeded_by(ExactLog.log(Fraction(6 * 27, 10), 4 * n))
        assert sys_.exceeded_by(ExactLog.log(Fraction(6 * 28, 10), 4 * n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_function_field_primes(self, n):
        t = poly_t(2)
        ctx = LocalizedContext.function_field(2, [t, t * t + t + poly_one(2)])
        sys_ = CoverSystem.localized_preset(n, ctx)
        # R = deg t + deg(t^2 + t + 1) = 3
        assert sys_.threshold_const == 4 * n * (3 + 1)
        assert not sys_.threshold_log.terms
        assert not sys_.exceeded_by(16 * n)
        assert sys_.exceeded_by(Fraction(160 * n + 1, 10))
        assert not sys_.exceeded_by(Fraction(160 * n - 1, 10))


class TestCoreOrbitReps:
    def test_examples(self):
        assert core_orbit_reps(2, 1) == [(0, 0), (0, 1)]
        assert core_orbit_reps(1, 7) == [(0,)]
        assert core_orbit_reps(2, 0) == [(0, 0)]

    def test_window_and_jumps(self):
        for r in core_orbit_reps(3, 2):
            assert 0 <= sum(r) <= 2
            assert all(0 <= b - a <= 2 for a, b in zip(r, r[1:]))

    def test_membership_scale_guard_names_rank_and_limit(self):
        with pytest.raises(ScaleError, match=r"rank 7 .* limit 6"):
            cover_membership(InnerProduct.identity(7), CoverSystem.semistability(7))

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            core_orbit_reps(7, 1)
        with pytest.raises(ScaleError):
            core_orbit_reps(2, 17)

    def test_every_rep_is_realized_and_in_core(self):
        sys2 = CoverSystem(2, Fraction(2))
        for r in core_orbit_reps(2, 2):
            v = _diag_vertex(CTX_FF2, tuple(-x for x in r))  # column t^{-r} has volume r
            assert normalize_r_vector(vertex_r_vector(v)) == r
            assert core_test(v, sys2)


class TestThinnedMembership:
    def test_examples(self):
        sys8 = CoverSystem(2, Fraction(8))
        deep = _diag_vertex(CTX_FF2, (9, -9))  # c = 18 > 8 + 8 * 1/2
        assert thinned_membership(deep, sys8, Fraction(1, 2), 8)
        assert not thinned_membership(standard_vertex(CTX_FF2), sys8,
                                      Fraction(1, 2), 8)
        shallow = _diag_vertex(CTX_FF2, (5, -5))  # c = 10 <= 12
        assert not thinned_membership(shallow, sys8, Fraction(1, 2), 8)


class TestAdjacentLipschitz:
    def test_vertex_neighbors_bounded_jump(self, rng):
        # |c_W(x) - c_W(x')| <= 4n over all neighbors and all chain candidates
        n = 3
        bound = 4 * n
        for _ in range(4):
            v = _random_vertex(rng, CTX_FF3)
            vs_v = vertex_volume_space(v)
            candidates = {w.basis: w for w in
                          cover_membership(v, CoverSystem.semistability(n))}
            for w2, _d in neighbors(v):
                vs_w = vertex_volume_space(w2)
                for cw in cover_membership(w2, CoverSystem.semistability(n)):
                    candidates.setdefault(cw.basis, cw)
                for cand in candidates.values():
                    gap = abs(instability_ff(vs_v, cand) - instability_ff(vs_w, cand))
                    assert gap <= bound

    def test_localized_ff_prime_tuple_bound(self, rng):
        # one building step at the prime t moves c by at most 4n * deg(t)
        from latred.sarith import loc_c, span_localized
        from latred.rings import poly_ring
        q = 2
        t = poly_t(q)
        one = poly_one(q)
        ring = poly_ring(q)
        ctx = LocalizedContext.function_field(q, [t])
        n = 2
        for _ in range(4):
            vs = random_volume_space(rng, q, n, maxdeg=1)
            B = IntegralStructure.standard(ctx, n)
            # B' = B * diag(1, t): tB subset B' subset B
            Bp = right_multiplied(B, [[FqRationalFunction.of(one), ring.field_zero()],
                                      [ring.field_zero(), FqRationalFunction.of(t)]])
            w = span_localized(ctx, n, [[one, poly(q, [rng.randrange(2)])]])
            gap = abs(loc_c(w, vs, B) - loc_c(w, vs, Bp))
            assert gap <= 4 * n * t.degree  # exact integers

    def test_localized_prime_tuple_bound(self, rng):
        # one building step per prime moves c by at most 4n ln(prod T)
        from latred.sarith import loc_c
        from conftest import random_unimodular_z, random_z_summand
        ctx = LocalizedContext.integers([2, 3])
        n = 2
        z = 6
        for _ in range(4):
            s = random_spd(rng, n, spread=1)
            B = IntegralStructure(ctx, n, random_invertible_rational(rng, n, 3, 3))
            U = random_unimodular_z(rng, n)
            D = [[Fraction(rng.choice([1, 2, 3, 6])) if i == j else Fraction(0)
                  for j in range(n)] for i in range(n)]
            K = matrices.matmul(
                matrices.freeze([[Fraction(x) for x in row] for row in U]),
                matrices.freeze(D), Fraction(0))
            Bp = right_multiplied(B, K)
            w = None
            while w is None:
                cand = random_z_summand(rng, n, 1, spread=2)
                from latred.sarith import span_localized
                w = span_localized(ctx, n, cand.basis)
            gap = abs(loc_c(w, s, B).to_float() - loc_c(w, s, Bp).to_float())
            assert gap <= 4 * n * math.log(z) + 1e-9
