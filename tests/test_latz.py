"""Integer-side volumes, enumeration, filtration, and the SPD metric."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from latred import matrices
from latred.errors import DefinitenessError, RankDeficiencyError, ScaleError
from latred.latz import (InnerProduct, ZOracle, ZSummand, _quotient_form,
                         _vol2_bound_from, canonical_filtration_z, enumerate_summands,
                         gram_logvol, gram_vol2, instability_z, spd_distance)
from latred.logs import ExactLog
from latred.rings import ZZ

from conftest import random_spd, random_unimodular_z, random_z_summand


class TestVolumes:
    def test_examples(self):
        I2 = InnerProduct.identity(2)
        assert gram_vol2(I2, [[1, 1]]) == 2
        assert gram_vol2(InnerProduct.diagonal([1, 4]), [[0, 1]]) == 4
        assert gram_vol2(I2, ZSummand.full(2).basis) == 1
        assert gram_vol2(I2, ()) == 1  # the zero summand

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            gram_vol2(InnerProduct.identity(2), [[1, 1], [2, 2]])

    def test_rejects_non_spd(self):
        for gram in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[-1, 0], [0, 1]],
                     [[1, 0, 1], [0, 1, 1], [1, 1, 1]]):  # the last: minors 1, 1, -1
            with pytest.raises(DefinitenessError,
                               match="^Gram matrix is not positive definite$"):
                InnerProduct(len(gram), gram)
        with pytest.raises(DefinitenessError, match="not symmetric"):
            InnerProduct(2, [[1, 2], [3, 4]])

    def test_quotient_form_is_the_schur_complement(self, rng):
        for n in (2, 3, 4):
            for r in range(1, n):
                s = random_spd(rng, n)
                w = random_z_summand(rng, n, r)
                U = matrices.freeze([[Fraction(x) for x in row]
                                     for row in matrices.completion_rows(ZZ, w.basis)])
                G = matrices.matmul(matrices.matmul(U, s.gram, Fraction(0)),
                                    matrices.transpose(U), Fraction(0))
                A = [row[:r] for row in G[:r]]
                B = [row[r:] for row in G[:r]]
                D = [row[r:] for row in G[r:]]
                Ainv_B = matrices.matmul(
                    matrices.inverse_field(matrices.freeze(A), Fraction(0), Fraction(1)),
                    matrices.freeze(B), Fraction(0))
                want = [[D[i][j] - sum(B[k][i] * Ainv_B[k][j] for k in range(r))
                         for j in range(n - r)] for i in range(n - r)]
                assert _quotient_form(s, w).gram == matrices.freeze(want)


class TestEnumeration:
    def test_identity_half_bound(self):
        # vectors of norm^2 <= e: +-e1, +-e2, +-(1,1), +-(1,-1)
        got = {(w.rank, w.basis) for w in enumerate_summands(InnerProduct.identity(2), 0.5)}
        assert got == {
            (0, ()),
            (1, ((0, 1),)), (1, ((1, -1),)), (1, ((1, 0),)), (1, ((1, 1),)),
            (2, ((1, 0), (0, 1))),
        }

    def test_negative_bound_keeps_only_zero(self):
        got = enumerate_summands(InnerProduct.identity(2), -0.1)
        assert [(w.rank, w.basis) for w in got] == [(0, ())]

    def test_split_form_zero_bound(self):
        got = enumerate_summands(InnerProduct.diagonal([1, 4]), 0)
        assert [(w.rank, w.basis) for w in got] == [(0, ()), (1, ((1, 0),))]

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            enumerate_summands(InnerProduct.identity(7), 1)

    def test_completeness_against_direct_subsets(self, rng):
        # independent route: numpy-boxed vector scan + all m-subsets of the
        # +-classes, no incremental dedup, exact final filtering
        for _ in range(3):
            s = random_spd(rng, 3, spread=1)
            bound = ExactLog.half_log(Fraction(9, 2))
            fast = {(w.rank, w.basis) for w in enumerate_summands(s, bound)}
            arr = np.array([[float(x) for x in row] for row in s.gram])
            mu = Fraction(0.9 * np.linalg.eigvalsh(arr)[0]).limit_denominator(10 ** 6)
            X = Fraction(9, 2)
            slow = {(0, ())}
            # the only rank-3 summand of Z^3 is the full lattice
            if ExactLog.half_log(gram_vol2(s, ZSummand.full(3).basis)) <= bound:
                slow.add((3, ZSummand.full(3).basis))
            for m in (1, 2):
                R2 = Fraction(4, 3) ** (m * (m - 1) // 2) * X / mu ** (m - 1)
                K = int(math.isqrt(int(R2 / mu)) + 1)
                vecs = []
                for v in itertools.product(range(-K, K + 1), repeat=3):
                    nz = next((x for x in v if x), None)
                    if nz is None or nz < 0:  # one vector per +-class
                        continue
                    if sum(Fraction(v[i]) * s.gram[i][j] * v[j]
                           for i in range(3) for j in range(3)) <= R2:
                        vecs.append(v)
                for subset in itertools.combinations(vecs, m):
                    lifted = matrices.freeze([[Fraction(x) for x in r] for r in subset])
                    if matrices.rank_field(lifted, Fraction(0), Fraction(1)) != m:
                        continue
                    sat = matrices.saturate(ZZ, subset, 3)
                    if ExactLog.half_log(gram_vol2(s, sat)) <= bound:
                        slow.add((m, sat))
            assert fast == slow


class TestFiltrationZ:
    def test_split_form(self):
        rep = canonical_filtration_z(InnerProduct.diagonal([1, 4]))
        assert [w.basis for w in rep.chain] == [(), ((1, 0),), ((1, 0), (0, 1))]
        c = rep.c_values[rep.chain[1]]
        assert (c - ExactLog.half_log(4)).is_zero()

    def test_semistable(self):
        rep = canonical_filtration_z(InnerProduct.identity(2))
        assert [w.rank for w in rep.chain] == [0, 2]

    def test_rank_two_vertex(self):
        rep = canonical_filtration_z(InnerProduct.diagonal([1, 1, 100]))
        assert [w.rank for w in rep.chain] == [0, 2, 3]

    def test_equivariance(self, rng):
        for _ in range(6):
            s = random_spd(rng, 3, spread=1)
            g = random_unimodular_z(rng, 3)
            pulled = s.pulled_back(g)  # gram of s in the g-image basis
            rep = canonical_filtration_z(s)
            rep_g = canonical_filtration_z(pulled)
            images = [w.apply(g) for w in rep_g.chain]
            assert [w.basis for w in images] == [w.basis for w in rep.chain]


# the n = 3 form of the CLI corpus request `canfilt-z-n3`
CORPUS_N3 = InnerProduct(3, [[2, 1, 0], [1, 3, 1], [0, 1, 5]])


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class TestCertifiedRankMinima:
    """Per-rank minima cost the same at every scale and in every basis."""

    @pytest.mark.parametrize("s", [InnerProduct.diagonal([1, 4]), CORPUS_N3,
                                   InnerProduct.identity(2)], ids=["diag14", "n3", "id2"])
    def test_scaled_forms_share_chain_and_c_values(self, s):
        base = canonical_filtration_z(s)
        for lam in (Fraction(1, 10 ** 12), 1, 10 ** 12):
            rep, seconds = _timed(canonical_filtration_z, s.scaled(lam))
            assert seconds < 1.0
            assert [w.basis for w in rep.chain] == [w.basis for w in base.chain]
            assert len(rep.c_values) == len(base.c_values)
            assert all(rep.c_values[w] == c for w, c in base.c_values.items())

    def test_badly_based_form_gives_the_image_chain(self):
        g = [[1, 3, 5], [11, 34, 62], [13, 43, 94]]  # unimodular, det 1
        lifted = matrices.freeze([[Fraction(x) for x in row] for row in g])
        assert matrices.det_field(lifted, Fraction(0), Fraction(1)) == 1
        s = InnerProduct.diagonal([1, 1, 100])
        rep, seconds = _timed(canonical_filtration_z, s.pulled_back(g))
        assert seconds < 2.0
        want = canonical_filtration_z(s)
        assert [w.apply(g).basis for w in rep.chain] == [w.basis for w in want.chain]

    def test_rank_four_forms(self):
        rng = random.Random(5)
        for s in [random_spd(rng, 4, spread=1) for _ in range(4)]:
            start = time.perf_counter()
            rep = canonical_filtration_z(s)
            for w in rep.interior_chain():
                c = rep.c_values[w]
                assert c.sign() > 0
                assert instability_z(s, w) == c
            assert time.perf_counter() - start < 5.0

    def test_vol2_bound_tracks_small_bounds(self):
        for k in range(31):
            v2 = Fraction(1, 10 ** k)
            assert v2 <= _vol2_bound_from(ExactLog.half_log(v2)) <= 4 * v2


class TestScalingAndSubadditivity:
    def test_volume_scaling_exact(self, rng):
        for _ in range(15):
            s = random_spd(rng, 3)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            w = random_z_summand(rng, 3, rng.randint(1, 3))
            assert gram_vol2(s.scaled(lam), w.basis) == lam ** w.rank * gram_vol2(s, w.basis)

    def test_instability_scaling_invariant(self, rng):
        for _ in range(5):
            s = random_spd(rng, 2, spread=1)
            lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            w = random_z_summand(rng, 2, 1, spread=2)
            c1 = instability_z(s, w)
            c2 = instability_z(s.scaled(lam), w)
            assert (c1 - c2).is_zero()

    def test_subadditivity(self, rng):
        for _ in range(40):
            n = rng.randint(2, 4)
            s = random_spd(rng, n, spread=1)
            a = random_z_summand(rng, n, rng.randint(1, n - 1))
            b = random_z_summand(rng, n, rng.randint(1, n - 1))
            meet, join = a.meet(b), a.join(b)
            lhs = gram_logvol(s, meet) + gram_logvol(s, join)
            rhs = gram_logvol(s, a) + gram_logvol(s, b)
            assert lhs <= rhs


class TestSPDDistance:
    def test_zero_distance(self):
        s = InnerProduct.diagonal([2, 3])
        assert spd_distance(s, s) == 0

    def test_conformal_ray(self):
        s = InnerProduct.identity(2)
        lam = Fraction(math.e ** 2).limit_denominator(10 ** 12)
        d = spd_distance(s, s.scaled(lam))
        assert abs(d - 2 * math.sqrt(2)) < 1e-9

    def test_commuting_diagonal(self):
        e = Fraction(math.e).limit_denominator(10 ** 12)
        d = spd_distance(InnerProduct.identity(2), InnerProduct.diagonal([e, 1]))
        assert abs(d - 1) < 1e-9

    def test_volume_lipschitz(self, rng):
        n = 3
        for _ in range(30):
            s1 = random_spd(rng, n)
            s2 = random_spd(rng, n)
            w = random_z_summand(rng, n, rng.randint(1, n))
            d = spd_distance(s1, s2)
            gap = abs(gram_logvol(s1, w).to_float() - gram_logvol(s2, w).to_float())
            assert gap <= n * d + 1e-6

    def test_instability_lipschitz(self, rng):
        n = 2
        for _ in range(6):
            s1 = random_spd(rng, n, spread=1)
            s2 = random_spd(rng, n, spread=1)
            w = random_z_summand(rng, n, 1, spread=2)
            d = spd_distance(s1, s2)
            gap = abs(instability_z(s1, w).to_float() - instability_z(s2, w).to_float())
            assert gap <= 4 * n * d + 1e-6
