"""The abstract filtration engine: hulls, instability numbers, chains."""

from fractions import Fraction

import pytest

from latred import filtration, latz
from latred.errors import (BoundaryModuleError, IncompletePlotError,
                           ViolatedUniquenessError)
from latred.filtration import GradedPoint, c_value, canonical_filtration, canonical_plot
from latred.latz import InnerProduct, ZSummand, enumerate_summands
from latred.logs import ExactLog

from conftest import random_spd


def _points(values):
    return [GradedPoint(i, i, Fraction(v)) for i, v in enumerate(values)]


def _ranks(report):
    return tuple(p.rank for p in report.path)


class TestCanonicalPlot:
    def test_reference_plot(self):
        vals = [0, Fraction(-3, 2), -2, Fraction(-7, 2), Fraction(-37, 10), -3,
                Fraction(-3, 2), 0]
        rep = canonical_plot(_points(vals), 7)
        assert _ranks(rep) == (0, 1, 3, 4, 5, 7)

    def test_trivial_rank_one(self):
        rep = canonical_plot(_points([0, 0]), 1)
        assert _ranks(rep) == (0, 1)

    def test_ascending_slope_profile(self):
        # partial sums of the slope profile (-2,-2,-1,1,1,1,2)
        profile = (-2, -2, -1, 1, 1, 1, 2)
        acc = [0]
        for x in profile:
            acc.append(acc[-1] + x)
        rep = canonical_plot(_points(acc), 7)
        assert set(_ranks(rep)) - {0, 7} == {2, 3, 6}

    def test_points_on_segments_are_omitted(self):
        rep = canonical_plot(_points([0, -1, -2, 0]), 3)
        assert _ranks(rep) == (0, 2, 3)

    def test_incomplete_plots_rejected(self):
        with pytest.raises(IncompletePlotError):
            canonical_plot(_points([0, -1]), 5)
        with pytest.raises(IncompletePlotError):
            canonical_plot([GradedPoint(0, 1, Fraction(0)),
                            GradedPoint(1, 2, Fraction(0))], 2)
        with pytest.raises(IncompletePlotError):
            canonical_plot([GradedPoint(0, 0, Fraction(1)),
                            GradedPoint(1, 1, Fraction(0))], 1)

    def test_hull_slopes_strictly_increase(self, rng):
        for _ in range(40):
            n = rng.randint(2, 8)
            vals = [Fraction(0)] + [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                                    for _ in range(n)]
            rep = canonical_plot(_points(vals), n)
            slopes = [filtration.slope(b, a)
                      for a, b in zip(rep.path, rep.path[1:])]
            assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


class BruteZOracle:
    """Oracle using only complete enumeration; no reduction bound.

    Each minimum opens a volume window at logvol(0) = 0 and widens it by
    ln 4 until some candidate satisfies the predicate.
    """

    def __init__(self, s):
        self.s = s
        self.top_rank = s.n

    def zero(self):
        return ZSummand.zero(self.s.n)

    def one(self):
        return ZSummand.full(self.s.n)

    def rank(self, w):
        return w.rank

    def logvol(self, w):
        return latz.gram_logvol(self.s, w)

    def leq(self, a, b):
        return b.contains(a)

    def _constrained_min(self, m, predicate):
        bound = ExactLog.zero()
        while True:
            cands = [h for h in enumerate_summands(self.s, bound, ranks=[m])
                     if predicate(h)]
            if cands:
                best = min(self.logvol(h) for h in cands)
                return [h for h in cands if self.logvol(h) == best], best
            bound = bound + ExactLog.log(4)

    def rank_minima(self, m):
        return self._constrained_min(m, lambda h: True)

    def min_logvol_below(self, w, m):
        return self._constrained_min(m, lambda h: self.leq(h, w))[1]

    def min_logvol_above(self, w, m):
        return self._constrained_min(m, lambda h: self.leq(w, h))[1]


class TestInstability:
    def test_split_form(self):
        s = InnerProduct.diagonal([1, 4])
        w = ZSummand.from_rows(2, [[1, 0]])
        c = c_value(BruteZOracle(s), w)
        assert (c - ExactLog.half_log(4)).is_zero()  # ln 2

    def test_semistable_is_zero(self):
        s = InnerProduct.identity(2)
        w = ZSummand.from_rows(2, [[1, 0]])
        assert c_value(BruteZOracle(s), w).is_zero()

    def test_boundary_rejected(self):
        s = InnerProduct.identity(2)
        with pytest.raises(BoundaryModuleError):
            c_value(BruteZOracle(s), ZSummand.zero(2))
        with pytest.raises(BoundaryModuleError):
            c_value(BruteZOracle(s), ZSummand.full(2))


class TestCanonicalFiltration:
    def test_split_chain(self):
        rep = canonical_filtration(BruteZOracle(InnerProduct.diagonal([1, 4])))
        assert [w.basis for w in rep.chain] == [(), ((1, 0),), ((1, 0), (0, 1))]
        (c,) = rep.c_values.values()
        assert (c - ExactLog.half_log(4)).is_zero()

    def test_semistable_chain(self):
        rep = canonical_filtration(BruteZOracle(InnerProduct.identity(2)))
        assert [w.rank for w in rep.chain] == [0, 2]

    def test_rank_two_break(self):
        rep = canonical_filtration(BruteZOracle(InnerProduct.diagonal([1, 1, 100])))
        assert [w.rank for w in rep.chain] == [0, 2, 3]
        assert rep.chain[1].basis == ((1, 0, 0), (0, 1, 0))

    def test_violated_uniqueness_detected(self):
        class BrokenOracle:
            # two distinct rank-1 "summands" with identical minimal volume
            top_rank = 2

            def zero(self):
                return "0"

            def one(self):
                return "1"

            def rank(self, h):
                return {"0": 0, "1": 2, "a": 1, "b": 1}[h]

            def logvol(self, h):
                return {"0": Fraction(0), "1": Fraction(0),
                        "a": Fraction(-1), "b": Fraction(-1)}[h]

            def leq(self, x, y):
                return x == y or x == "0" or y == "1"

            def rank_minima(self, m):
                return ["a", "b"], Fraction(-1)

            def min_logvol_above(self, w, m):
                return {1: Fraction(-1), 2: Fraction(0)}[m]

        with pytest.raises(ViolatedUniquenessError):
            canonical_filtration(BrokenOracle())


class TestLatticeAxiomConsequences:
    def test_incomparability_exclusion(self, rng):
        # two incomparable summands never both have positive instability
        from conftest import random_z_summand
        checked = 0
        while checked < 20:
            s = random_spd(rng, 3, spread=1)
            a = random_z_summand(rng, 3, rng.randint(1, 2), spread=2)
            b = random_z_summand(rng, 3, rng.randint(1, 2), spread=2)
            if a.contains(b) or b.contains(a):
                continue
            checked += 1
            ca = latz.instability_z(s, a)
            cb = latz.instability_z(s, b)
            assert not (ca.sign() > 0 and cb.sign() > 0)

    def test_membership_iff_positive(self, rng):
        # chain membership coincides with positive instability, exhaustively
        for _ in range(5):
            s = random_spd(rng, 2, spread=1)
            oracle = BruteZOracle(s)
            rep = canonical_filtration(oracle)
            chain_bases = {w.basis for w in rep.interior_chain()}
            bound = oracle.logvol(oracle.one())
            if bound < ExactLog.zero():
                bound = ExactLog.zero()
            for w in enumerate_summands(s, bound, ranks=[1]):
                c = c_value(oracle, w)
                assert (c.sign() > 0) == (w.basis in chain_bases)

    def test_oracle_equivalence_small(self, rng):
        # per-rank-minima filtration == exhaustive positive-instability scan
        for _ in range(4):
            s = random_spd(rng, 3, spread=1)
            fast = latz.canonical_filtration_z(s)
            brute = canonical_filtration(BruteZOracle(s))
            assert [w.basis for w in fast.chain] == [w.basis for w in brute.chain]
            for (wa, ca), (wb, cb) in zip(fast.c_values.items(),
                                          brute.c_values.items()):
                assert wa.basis == wb.basis
                assert (ca - cb).is_zero()
