"""Integer-side volumes, enumeration, filtration, and the SPD metric."""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from latred import latz, matrices
from latred.errors import DefinitenessError, RankDeficiencyError, ScaleError
from latred.latz import (InnerProduct, ZOracle, ZSummand, _ldl, _rank_bound,
                         _rank_minima, _vol2_bound_from, canonical_filtration_z,
                         enumerate_summands, gram_logvol, gram_vol2, instability_z,
                         short_vectors, spd_distance)
from latred.logs import ExactLog
from latred.rings import ZZ

from conftest import (det_field, inverse_field, kernel, pool_span_enumerate_summands,
                      pool_span_rank_minima, random_spd, random_unimodular_z, random_z_summand,
                      rank_field)


class TestVolumes:
    def test_examples(self):
        I2 = InnerProduct.identity(2)
        assert gram_vol2(I2, [[1, 1]]) == 2
        assert gram_vol2(InnerProduct.diagonal([1, 4]), [[0, 1]]) == 4
        assert gram_vol2(I2, ZSummand.full(2).basis) == 1
        assert gram_vol2(I2, ()) == 1  # the zero summand

    def test_stored_gram_determinant(self, rng):
        # the LDL^T check keeps det(gram); the top-rank minimum reads it
        for n in (1, 2, 3, 4):
            for _ in range(4):
                s = random_spd(rng, n)
                assert s.det == gram_vol2(s, ZSummand.full(n).basis)
                lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                assert s.scaled(lam).det == lam ** n * s.det
                assert s.pulled_back(random_unimodular_z(rng, n)).det == s.det
        s = InnerProduct.diagonal([1, 4])
        assert s.det == 4
        assert ZOracle(s).min_logvol_above(ZSummand.from_rows(2, [[1, 0]]), 2) == \
            ExactLog.half_log(4)
        assert instability_z(s, ZSummand.from_rows(2, [[1, 0]])) == ExactLog.half_log(4)

    def test_rank_deficiency(self):
        s3 = InnerProduct(3, [[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        for s, rows in ((InnerProduct.identity(2), [[1, 1], [2, 2]]),
                        (InnerProduct.identity(2), [[Fraction(1, 2), Fraction(1, 3)],
                                                    [Fraction(3, 2), 1]]),
                        (s3, [[1, 0, 1], [0, 1, -1], [1, 1, 0]])):
            with pytest.raises(RankDeficiencyError, match="^basis rows are dependent$"):
                gram_vol2(s, rows)

    def test_rejects_non_spd(self):
        for gram in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[-1, 0], [0, 1]],
                     [[1, 0, 1], [0, 1, 1], [1, 1, 1]]):  # the last: minors 1, 1, -1
            with pytest.raises(DefinitenessError,
                               match="^Gram matrix is not positive definite$"):
                InnerProduct(len(gram), gram)
        with pytest.raises(DefinitenessError, match="not symmetric"):
            InnerProduct(2, [[1, 2], [3, 4]])

    def test_split_forms_are_the_restriction_and_the_schur_complement(self, rng):
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
                    inverse_field(matrices.freeze(A), Fraction(0), Fraction(1)),
                    matrices.freeze(B), Fraction(0))
                want = [[D[i][j] - sum(B[k][i] * Ainv_B[k][j] for k in range(r))
                         for j in range(n - r)] for i in range(n - r)]
                res, quot = ZOracle(s)._split(w)
                assert quot.s.gram == matrices.freeze(want)
                assert res.s == s.pulled_back(w.basis)


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

    @pytest.mark.parametrize("gram, bound", [
        ([[3, 0, 1], [0, 1, 0], [1, 0, 3]], Fraction(21, 10)),
        ([[3, 2, 0], [2, 4, 1], [0, 1, 2]], Fraction(14, 5)),
    ], ids=["a", "b"])
    def test_moderate_bounds_at_rank_three(self, gram, bound):
        # vol^2 <= 128 here: a pool-span assembly of 1,619 rank-2 candidates
        # once ran past 20 s.  The rank-2 summands of Z^3 are the
        # annihilators of the dual's lines, vol^2(W) = det(s) s^-1(x, x).
        s = InnerProduct(3, gram)
        got, seconds = _timed(enumerate_summands, s, bound)
        assert seconds < 10.0
        dual = InnerProduct(3, inverse_field(s.gram, Fraction(0), Fraction(1)))
        planes = {ZSummand(3, kernel(ZZ, (x,)))
                  for x, q in short_vectors(dual, _vol2_bound_from(bound) / s.det).items()
                  if math.gcd(*x) == 1 and latz._lv_cmp(s.det * q, bound) <= 0}
        assert {w for w in got if w.rank == 2} == planes
        assert [w for w in got if w.rank < 2] == \
            pool_span_enumerate_summands(s, bound, ranks=[0, 1])

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
                    if rank_field(lifted, Fraction(0), Fraction(1)) != m:
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
        assert det_field(lifted, Fraction(0), Fraction(1)) == 1
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
            # the LLL reduction returns the LDL^T data of its reduced Gram matrix
            _, g, d, u = s._reduced
            assert (d, u) == _ldl(g)[:2]
        assert InnerProduct.diagonal([3])._reduced == ([[1]], [[3]], [3], [[0]])

    @pytest.mark.parametrize("n, k, budget", [(5, 0, 5.0), (5, 1, 5.0), (5, 2, 5.0),
                                              (5, 3, 5.0), (6, 0, 20.0), (6, 1, 20.0)],
                             ids=["n5-0", "n5-1", "n5-2", "n5-3", "n6-0", "n6-1"])
    def test_desk_rank_limit_forms(self, n, k, budget):
        # DESK_RANK_LIMIT = 6 is met within a stated budget per form
        rng = random.Random(5)
        s = [random_spd(rng, n, spread=1) for _ in range(k + 1)][k]
        start = time.perf_counter()
        rep = canonical_filtration_z(s)
        for w in rep.interior_chain():
            assert instability_z(s, w) == rep.c_values[w]
        assert time.perf_counter() - start < budget

    def test_vol2_bound_tracks_small_bounds(self):
        for k in range(31):
            v2 = Fraction(1, 10 ** k)
            assert v2 <= _vol2_bound_from(ExactLog.half_log(v2)) <= 4 * v2


class TestPoolSpanReference:
    """The rank-by-rank search against the pool-span assembly it replaced."""

    @staticmethod
    def _forms():
        rng = random.Random(22)
        for n in (2, 3, 4):
            s = random_spd(rng, n, spread=1)
            for lam in (Fraction(1, 100), 1, 100):
                yield s.scaled(lam)

    def test_rank_minima(self):
        for s in self._forms():
            for m in range(1, s.n):
                got, want = _rank_minima(s, m), pool_span_rank_minima(s, m)
                assert [w.basis for w in got[0]] == [w.basis for w in want[0]]
                assert got[1] == want[1]

    def test_enumerate_summands(self):
        # ranks 1 and 2: the reference's assembly at rank 3 of Z^4 takes
        # over 10 s even at the rank-3 minimum
        for s in self._forms():
            for m in range(1, min(s.n, 3)):
                bound = _rank_minima(s, m)[1] + ExactLog.half_log(3)
                assert enumerate_summands(s, bound, ranks=[m]) == \
                    pool_span_enumerate_summands(s, bound, ranks=[m])

    def test_lines_above_the_bound_extend_to_planes_below_it(self):
        # every line has vol^2 >= 1/100, every coordinate plane 1/10^4: a
        # search that kept only lines of vol^2 <= X would find no plane
        s = InnerProduct.identity(3).scaled(Fraction(1, 100))
        X = _rank_bound(s, 2)
        assert X == Fraction(1, 10 ** 4)
        assert not enumerate_summands(s, ExactLog.half_log(4 * X), ranks=[1])
        got = _rank_minima(s, 2)
        assert got[1] == ExactLog.half_log(X)
        assert [w.basis for w in got[0]] == [w.basis for w in pool_span_rank_minima(s, 2)[0]]
        assert len(got[0]) == 3
        planes = enumerate_summands(s, ExactLog.half_log(X), ranks=[2])
        assert planes == pool_span_enumerate_summands(s, ExactLog.half_log(X), ranks=[2])
        assert len(planes) == 3

    def test_short_vectors_do_not_depend_on_the_basis(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            s = random_spd(rng, n, spread=1)
            g = random_unimodular_z(rng, n, steps=24, spread=3)
            for X in (Fraction(1, 2), 3, 10):
                mapped = set()
                for y in short_vectors(s.pulled_back(g), X):
                    v = [sum(y[i] * g[i][j] for i in range(n)) for j in range(n)]
                    mapped.add(tuple(v) if next(x for x in v if x) > 0
                               else tuple(-x for x in v))
                assert mapped == set(short_vectors(s, X))


def test_oracle_splits_and_measures_each_summand_once(monkeypatch):
    counts = Counter()
    split = ZOracle._split
    logvol = latz.gram_logvol

    def counted_split(self, w):
        counts["split", w] += 1
        return split(self, w)

    def counted_logvol(s, w):
        counts["logvol", w] += 1
        return logvol(s, w)

    monkeypatch.setattr(ZOracle, "_split", counted_split)
    monkeypatch.setattr(latz, "gram_logvol", counted_logvol)
    rng = random.Random(5)
    for s in [random_spd(rng, 4, spread=1) for _ in range(4)]:
        for r in (1, 2, 3):
            w = random_z_summand(rng, 4, r)
            counts.clear()
            instability_z(s, w)
            assert counts == {("split", w): 1, ("logvol", w): 1}


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
