"""Function-field volume spaces: minors, subquotients, diagonal bases."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from latred import filtration, latff, matrices
from latred.errors import DomainError, ProjectivityError, RankDeficiencyError, ScaleError
from latred.fq import FqRationalFunction, poly, poly_one, poly_t
from latred.latff import (FFSummand, VolumeSpace, diagonal_basis,
                          ff_invariants_and_filtration, ff_logvol, instability_ff,
                          quotient_r_vector, restricted_r_vector,
                          short_vector_space_dim, shortest_vector, sub_quotient)
from latred.rings import poly_ring

from conftest import (ENUM_LINE_LIMIT, ENUM_SPACE_LIMIT, BruteFFOracle,
                      enumerate_ff_summands, minors, random_ff_summand, random_poly,
                      random_ratfunc, random_unimodular_poly, random_volume_space)

P2 = poly_ring(2)
T = poly_t(2)
ONE = poly_one(2)
ZERO = poly(2, [])


def _vs(cols):
    return VolumeSpace.from_columns(2, cols)


def _standard(n):
    return VolumeSpace.standard(2, n)


def _rf(p):
    return FqRationalFunction.of(p)


def _logvol_by_minors(vs, rows):
    """Reference log-volume: the largest -nu of a maximal minor of rows . S^-T
    (None when every maximal minor vanishes)."""
    ring = poly_ring(vs.q)
    zero, one = ring.field_zero(), ring.field_one()
    rows = [[_rf(x) for x in row] for row in rows]
    lam = matrices.matmul(rows, matrices.transpose(vs.inverse_basis), zero)
    table = minors(lam, len(rows), lambda S: matrices.det_field(S, zero, one))
    return max((-d.nu() for d in table.values() if not d.is_zero()), default=None)


class TestLogVolume:
    def test_examples(self):
        vs = _standard(2)
        assert ff_logvol(vs, [[ONE, T ** 3]]) == 3
        assert ff_logvol(vs, [[ONE, ZERO]]) == 0
        assert ff_logvol(vs, FFSummand.full(2, 2)) == 0
        assert ff_logvol(vs, FFSummand.zero(2, 2)) == 0

    def test_dependent_rows_rejected(self):
        with pytest.raises(RankDeficiencyError):
            ff_logvol(_standard(2), [[ONE, T], [T, T * T]])

    def test_more_rows_than_rank_rejected(self):
        with pytest.raises(RankDeficiencyError):
            ff_logvol(_standard(2), [[ONE, ZERO], [ZERO, ONE], [T, ONE]])

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_minor_oracle(self, q):
        rng = random.Random(f"logvol-minors/{q}")
        for n in range(2, 6):
            vs = random_volume_space(rng, q, n, maxdeg=1)
            for m in range(1, n + 1):
                saturated = random_ff_summand(rng, q, n, m).basis
                raw = [[random_poly(rng, q, 2) for _ in range(n)] for _ in range(m)]
                for rows in (saturated, raw):
                    expected = _logvol_by_minors(vs, rows)
                    if expected is None:
                        with pytest.raises(RankDeficiencyError):
                            ff_logvol(vs, rows)
                    else:
                        assert ff_logvol(vs, rows) == expected

    def test_basis_independence(self, rng):
        # unimodular change of the submodule basis and R-unimodular change
        # of the lattice basis both leave the volume fixed
        for _ in range(10):
            vs = random_volume_space(rng, 2, 3, maxdeg=2)
            w = random_ff_summand(rng, 2, 3, rng.randint(1, 2))
            base = ff_logvol(vs, w)
            g = random_unimodular_poly(rng, 2, w.rank)
            mixed = matrices.matmul(g, w.basis, P2.zero())
            assert ff_logvol(vs, mixed) == base
            # right-multiply the lattice basis by a GL(R) matrix (identity
            # plus strictly valuation-positive noise): same lattice
            K = [[P2.field_one() if i == j else P2.field_zero() for j in range(3)]
                 for i in range(3)]
            for i in range(3):
                for j in range(3):
                    if i != j and rng.random() < 0.5:
                        K[i][j] = FqRationalFunction(random_poly(rng, 2, 1), T ** 3)
            detK = matrices.det_field(matrices.freeze(K), P2.field_zero(),
                                      P2.field_one())
            assert detK.nu() == 0
            cols2 = matrices.matmul(vs.basis, matrices.freeze(K), P2.field_zero())
            vs2 = VolumeSpace(2, 3, cols2)
            assert ff_logvol(vs2, w) == base

    def test_finite_index_shift(self, rng):
        # W' of finite index in W shifts the volume by dim_F(W/W')
        for _ in range(10):
            vs = random_volume_space(rng, 2, 2, maxdeg=2)
            w = random_ff_summand(rng, 2, 2, 1)
            a = random_poly(rng, 2, 2)
            if a.is_zero():
                continue
            sub = matrices.matmul(((a,),), w.basis, P2.zero())
            shift = ff_logvol(vs, sub) - ff_logvol(vs, w)
            assert shift == a.degree  # = -nu(det) = dim_F(W/W')

    def test_homothety(self, rng):
        for _ in range(10):
            vs = random_volume_space(rng, 2, 2, maxdeg=2)
            w = random_ff_summand(rng, 2, 2, rng.randint(1, 2))
            lam = random_ratfunc(rng, 2, 2)
            if lam.is_zero():
                continue
            assert ff_logvol(vs.scaled(lam), w) == \
                w.rank * lam.nu() + ff_logvol(vs, w)

    def test_neighbor_bound(self, rng):
        # S subset S' subset tS pinches volumes within rk(W) of each other
        for _ in range(10):
            vs = random_volume_space(rng, 2, 2, maxdeg=1)
            # S' = S + (1/t) * (a random S-column): between S and tS
            cols = [list(vs.column(j)) for j in range(2)]
            j = rng.randrange(2)
            extra = [x / _rf(T) for x in cols[j]]
            mid_cols = [cols[0][:], cols[1][:]]
            mid_cols[j] = extra
            vs_up = VolumeSpace.from_columns(2, mid_cols)
            if not vs_up.contains_lattice(vs):
                continue
            w = random_ff_summand(rng, 2, 2, rng.randint(1, 2))
            lo = ff_logvol(vs, w)
            hi = ff_logvol(vs_up, w)
            assert lo <= hi <= w.rank + lo


class TestSubQuotient:
    def test_standard_split(self):
        vs = _standard(2)
        sq = sub_quotient(vs, FFSummand.from_rows(2, 2, [[ONE, ZERO]]))
        assert ff_logvol(sq.res, ((ONE,),)) == 0
        assert ff_logvol(sq.quot, ((ONE,),)) == 0

    def test_diagonal_lattice(self):
        vs = _vs([(_rf(ONE), _rf(ZERO)), (_rf(ZERO), _rf(T * T))])
        sq = sub_quotient(vs, FFSummand.from_rows(2, 2, [[ONE, ZERO]]))
        assert ff_logvol(sq.res, ((ONE,),)) == 0
        assert ff_logvol(sq.quot, ((ONE,),)) == -2

    def test_shear_lattice(self):
        vs = _vs([(_rf(ONE), _rf(ZERO)), (_rf(ONE), _rf(T))])
        sq = sub_quotient(vs, FFSummand.from_rows(2, 2, [[ZERO, ONE]]))
        assert ff_logvol(sq.res, ((ONE,),)) == -1
        assert ff_logvol(sq.quot, ((ONE,),)) == 0

    def test_rejects_non_saturated(self):
        vs = _standard(2)
        w = FFSummand(2, 2, ((T, ZERO),))  # imprimitive row, not saturated
        with pytest.raises(ProjectivityError):
            sub_quotient(vs, w)

    def test_volume_additivity(self, rng):
        ident = matrices.identity_rows(3, ONE, ZERO)
        for _ in range(12):
            vs = random_volume_space(rng, 2, 3, maxdeg=1)
            w = random_ff_summand(rng, 2, 3, rng.randint(1, 2))
            sq = sub_quotient(vs, w)
            total = ff_logvol(vs, ident)
            res_total = ff_logvol(
                sq.res, matrices.identity_rows(w.rank, ONE, ZERO))
            quot_total = ff_logvol(
                sq.quot, matrices.identity_rows(3 - w.rank, ONE, ZERO))
            assert total == res_total + quot_total
            assert res_total == ff_logvol(vs, w)


def _sub_quotient_pins():
    """Seeded (volume space, summand) pairs over F_2, F_3 and F_4."""
    rng = random.Random("latff-subquotient-pins")
    for q, n in ((2, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)):
        vs = random_volume_space(rng, q, n, maxdeg=1)
        yield vs, random_ff_summand(rng, q, n, rng.randint(1, n - 1), maxdeg=1)


def _strs(M):
    return [[str(x) for x in row] for row in M]


# restriction bases, quotient bases and quotient lifts of _sub_quotient_pins,
# frozen before the valuation-ring column reduction became one kernel
SUB_QUOTIENT_PINS = [
    [[["0", "1"], ["(t+1)/t", "t"]],
     [["1"]],
     [["1", "0", "0"]]],
    [[["(t+1)/t", "1/(t+1)"], ["(t+1)/t", "1/t"]],
     [["1"]],
     [["1", "1/(t+1)", "1"]]],
    [[["1/t"]],
     [["2*t/(t^2+2*t+2)", "2*t^2+t"], ["0", "t^2+2*t+2"]],
     [["2*t/(t^2+2*t+2)", "0", "2/(t^2+2*t+2)"], ["2", "0", "2*t+1"]]],
    [[["(3*t^2+3*t+3)/(t^2+1)"]],
     [["2*t+2", "t+3"], ["0", "2"]],
     [["3", "2*t+1", "3"], ["0", "t+3", "2"]]],
    [[["0", "1/(t^3+1)"], ["1/(t+1)", "(t+1)/(t^2+t+1)"]],
     [["(t^2+t+1)/(t^2+1)", "t^2"], ["0", "t^2+t"]],
     [["1", "1/(t+1)", "1/(t^2+1)", "1"], ["0", "0", "t", "0"]]],
    [[["(t^4+2*t^3+t+1)/(t^6+t^4+2*t^2+t+2)"]],
     [["(2*t^6+2*t^4+t^2+2*t+1)/(t^6+t^4+t^3+t^2+2*t)", "(2*t^2+t+1)/(t+1)",
      "(2*t+1)/(t+1)"], ["0", "(2*t^3+t+2)/(t^2+2)", "2"], ["0", "0", "(2*t+1)/t"]],
     [["0", "(2*t+2)/(t+2)", "(t^4+2*t^3+t+1)/(t^5+2*t^4+2*t^3+2*t^2+2*t)",
      "(t^4+2*t^3+t+1)/(t^6+t^4+t^3+t^2+2*t)"], ["0", "0", "2/(t+1)",
      "(t^2+2*t+2)/(t^2+2)"], ["(2*t+1)/t", "0", "0", "1/(t+1)"]]],
]


class TestPinnedSubQuotient:
    def test_outputs(self):
        got = [[_strs(sq.res.basis), _strs(sq.quot.basis), _strs(sq.quot_lift_cols)]
               for sq in (sub_quotient(vs, w) for vs, w in _sub_quotient_pins())]
        assert got == SUB_QUOTIENT_PINS


class TestDiagonalBasis:
    def test_standard(self):
        diag = diagonal_basis(_standard(3))
        diag.validate()
        assert diag.r == (0, 0, 0)

    def test_diagonal_lattice(self):
        vs = _vs([(_rf(ONE), _rf(ZERO)), (_rf(ZERO), _rf(T * T))])
        diag = diagonal_basis(vs)
        diag.validate()
        assert diag.r == (-2, 0)
        assert diag.w[0] == (ZERO, ONE)  # the short direction is e2

    def test_shear_lattice(self):
        vs = _vs([(_rf(ONE), _rf(ZERO)), (_rf(ONE), _rf(T))])
        diag = diagonal_basis(vs)
        diag.validate()
        assert diag.r == (-1, 0)
        assert diag.w[0] == (ZERO, ONE)

    def test_validation_rejects_a_non_unimodular_w(self):
        diag = diagonal_basis(_standard(2))
        # w_2 -> t w_2 with r_2 -> r_2 + 1 keeps w_i = t^{r_i} b_i; det w becomes t
        bad = dataclasses.replace(diag, w=(diag.w[0], tuple(T * x for x in diag.w[1])),
                                  r=(diag.r[0], diag.r[1] + 1))
        with pytest.raises(DomainError, match="not unimodular"):
            bad.validate()

    def test_random_validation(self, rng):
        for _ in range(15):
            n = rng.choice([2, 3])
            vs = random_volume_space(rng, 2, n, maxdeg=2)
            diagonal_basis(vs).validate()

    def test_orbit_invariance(self, rng):
        for _ in range(10):
            n = rng.choice([2, 3])
            vs = random_volume_space(rng, 2, n, maxdeg=1)
            g = random_unimodular_poly(rng, 2, n)
            assert diagonal_basis(vs.transformed(g)).r == diagonal_basis(vs).r

    def test_shortest_vector_matches_dimension_probe(self, rng):
        # the minimal volume from the splitting equals the first jump of the
        # solution-space dimension counts
        for _ in range(8):
            vs = random_volume_space(rng, 2, 2, maxdeg=2)
            _, r1 = shortest_vector(vs)
            assert short_vector_space_dim(vs, r1) > 0
            assert short_vector_space_dim(vs, r1 - 1) == 0


def _gap_space(k):
    """S with columns (t^k, 0) and (1, 1) over F_3: r = (-k, 0), a gap of k."""
    return VolumeSpace(3, 2, [[FqRationalFunction.of(poly_t(3) ** k), poly_one(3)],
                              [poly(3, []), poly_one(3)]])


def _seeded_spaces(label, per_shape=2):
    rng = random.Random(label)
    for q in (2, 3, 4):
        for n in range(1, 6):
            for _ in range(per_shape):
                yield random_volume_space(rng, q, n, maxdeg=1 if n > 3 else 2)


def test_diagonal_basis_invariants():
    # facts diagonal_basis relies on without checking them at run time: a
    # valid diagonal shape, r_1 the least feasible short-vector bound, w_1
    # primitive, and logvol<w_i> = r_i
    for vs in [*_seeded_spaces("latff-diagonal-invariants"), _gap_space(200)]:
        ring = poly_ring(vs.q)
        diag = diagonal_basis(vs)
        diag.validate()
        assert short_vector_space_dim(vs, diag.r[0]) > 0
        assert short_vector_space_dim(vs, diag.r[0] - 1) == 0
        content = ring.zero()
        for x in diag.w[0]:
            content = ring.gcd(content, x)
        assert ring.is_unit(content)
        assert [ff_logvol(vs, [w_i]) for w_i in diag.w] == list(diag.r)


def test_stored_logvol_laws():
    rng = random.Random("latff-stored-logvol")
    for vs in _seeded_spaces("latff-stored-logvol-spaces", per_shape=1):
        ring = poly_ring(vs.q)
        assert vs.logvol == ff_logvol(vs, matrices.identity_rows(
            vs.n, ring.one(), ring.zero()))
        lam = random_ratfunc(rng, vs.q, 2)
        if not lam.is_zero():
            assert vs.scaled(lam).logvol == vs.logvol + vs.n * lam.nu()
        g = random_unimodular_poly(rng, vs.q, vs.n)
        assert vs.transformed(g).logvol == vs.logvol


def test_shortest_vector_bisects_the_instability_gap(monkeypatch):
    # the bound is bisected between nu_min - 1 = -201 and the average
    # slope -100, so the solves grow with the log of the gap, not the gap
    calls = []
    solve = latff._logvol_solution_space

    def counted(vs, D, gens=None):
        calls.append(D)
        return solve(vs, D, gens)

    monkeypatch.setattr(latff, "_logvol_solution_space", counted)
    vs = _gap_space(200)
    v, r1 = shortest_vector(vs)
    assert r1 == -200 and ff_logvol(vs, [v]) == -200
    assert len(calls) <= math.ceil(math.log2(-100 - (-201))) + 1
    monkeypatch.undo()
    assert diagonal_basis(vs).r == (-200, 0)


class TestInvariantsAndFiltration:
    def test_slope_profile_example(self):
        # build a diagonal lattice with r = (-2,-2,-1,1,1,1,2) and read the
        # chain breaks at ranks 2, 3, 6 with c-values 1, 2, 1
        r_target = (-2, -2, -1, 1, 1, 1, 2)
        n = len(r_target)
        cols = []
        for i, ri in enumerate(r_target):
            col = [_rf(ZERO)] * n
            col[i] = _rf(T ** (-ri)) if ri <= 0 else FqRationalFunction(ONE, T ** ri)
            cols.append(col)
        vs = VolumeSpace.from_columns(2, cols)
        r, rep = ff_invariants_and_filtration(vs)
        assert r == r_target
        interior = [(w.rank, rep.c_values[w]) for w in rep.interior_chain()]
        assert interior == [(2, 1), (3, 2), (6, 1)]

    def test_trivial_chain(self):
        r, rep = ff_invariants_and_filtration(_standard(2))
        assert r == (0, 0)
        assert [w.rank for w in rep.chain] == [0, 2]

    def test_split_chain(self):
        vs = _vs([(_rf(ONE), _rf(ZERO)), (_rf(ONE), _rf(T))])
        r, rep = ff_invariants_and_filtration(vs)
        assert r == (-1, 0)
        assert [w.rank for w in rep.chain] == [0, 1, 2]
        assert rep.c_values[rep.chain[1]] == 1

    def test_chain_c_equals_r_jump(self, rng):
        for _ in range(8):
            vs = random_volume_space(rng, 2, rng.choice([2, 3]), maxdeg=2)
            r, rep = ff_invariants_and_filtration(vs)
            for w in rep.interior_chain():
                m = w.rank
                assert rep.c_values[w] == r[m] - r[m - 1]
                assert instability_ff(vs, w) == r[m] - r[m - 1]

    def test_agreement_with_brute_oracle(self, rng):
        # every per-rank minimum, not only the hull vertices, against the
        # enumeration; off the vertices the minimizers need not agree
        for _ in range(4):
            vs = random_volume_space(rng, 2, rng.choice([2, 3]), maxdeg=1)
            _, rep = ff_invariants_and_filtration(vs)
            brute = filtration.canonical_filtration(BruteFFOracle(vs))
            assert [p.logvol for p in rep.minima] == [p.logvol for p in brute.minima]
            assert [w.basis for w in rep.chain] == [w.basis for w in brute.chain]
            for wa, wb in zip(rep.interior_chain(), brute.interior_chain()):
                assert rep.c_values[wa] == brute.c_values[wb]

    def test_enumeration_matches_minima(self, rng):
        # every enumerated summand respects the bound; the per-rank minimum
        # from the enumeration equals the diagonal partial sum
        for _ in range(5):
            vs = random_volume_space(rng, 2, 2, maxdeg=1)
            r = diagonal_basis(vs).r
            got = enumerate_ff_summands(vs, 1, r[0] + 1)
            vols = sorted(ff_logvol(vs, w) for w in got)
            assert vols and vols[0] == r[0]
            assert all(v <= r[0] + 1 for v in vols)


class TestSubadditivityFF:
    def test_parallelogram(self, rng):
        for _ in range(30):
            n = rng.choice([2, 3])
            vs = random_volume_space(rng, 2, n, maxdeg=1)
            a = random_ff_summand(rng, 2, n, rng.randint(1, n - 1))
            b = random_ff_summand(rng, 2, n, rng.randint(1, n - 1))
            meet, join = a.meet(b), a.join(b)
            lhs = ff_logvol(vs, meet) + ff_logvol(vs, join)
            rhs = ff_logvol(vs, a) + ff_logvol(vs, b)
            assert lhs <= rhs

    def test_incomparability_exclusion(self, rng):
        checked = 0
        while checked < 15:
            vs = random_volume_space(rng, 2, 3, maxdeg=1)
            a = random_ff_summand(rng, 2, 3, rng.randint(1, 2))
            b = random_ff_summand(rng, 2, 3, rng.randint(1, 2))
            if a.contains(b) or b.contains(a):
                continue
            checked += 1
            assert not (instability_ff(vs, a) > 0 and instability_ff(vs, b) > 0)


class TestConstrainedMinima:
    def test_restricted_and_quotient_sums(self, rng):
        # diagonal r-vectors of res/quot spaces give constrained minima that
        # match brute-force enumeration on tiny instances
        for _ in range(4):
            vs = random_volume_space(rng, 2, 2, maxdeg=1)
            w = random_ff_summand(rng, 2, 2, 1)
            rho = restricted_r_vector(vs, w)
            sigma = quotient_r_vector(vs, w)
            assert sum(rho) == ff_logvol(vs, w)
            assert instability_ff(vs, w) == sigma[0] - rho[-1]


class TestEnumerationLimits:
    # on the standard lattice over F_2 at n = 2, vectors of logvol <= b span
    # an F_2-space of dimension 2(b + 1)
    def test_line_limit_names_count_and_limit(self):
        with pytest.raises(ScaleError, match=rf"1023 candidate lines .* {ENUM_LINE_LIMIT}"):
            enumerate_ff_summands(VolumeSpace.standard(2, 2), 1, 4)

    def test_space_limit_names_size_and_limit(self):
        with pytest.raises(ScaleError, match=rf"16384 vectors .* {ENUM_SPACE_LIMIT}"):
            enumerate_ff_summands(VolumeSpace.standard(2, 2), 1, 6)
