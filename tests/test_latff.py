"""Function-field volume spaces: minors, subquotients, diagonal bases."""

import dataclasses
import math
import random
from collections import Counter

import pytest

from latred import filtration, latff, matrices
from latred.errors import (DomainError, ProjectivityError, RankDeficiencyError, ScaleError,
                           SingularityError)
from latred.fq import FqRationalFunction, poly, poly_one, poly_t
from latred.latff import (FFOracle, FFSummand, VolumeSpace, diagonal_basis,
                          ff_invariants_and_filtration, ff_logvol, instability_ff,
                          short_vector_space_dim, shortest_vector, sub_quotient)
from latred.rings import poly_ring

from conftest import (BruteFFOracle, ENUM_LINE_LIMIT, ENUM_SPACE_LIMIT, det_field,
                      enumerate_ff_summands, inverse_field, minors, random_ff_summand,
                      random_poly, random_ratfunc, random_unimodular_poly, random_volume_space)

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
    table = minors(lam, len(rows), lambda S: det_field(S, zero, one))
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
            detK = det_field(matrices.freeze(K), P2.field_zero(), P2.field_one())
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


# restriction and quotient bases of _sub_quotient_pins, frozen before the
# valuation-ring column reduction became one kernel
SUB_QUOTIENT_PINS = [
    [[["0", "1"], ["(t+1)/t", "t"]],
     [["1"]]],
    [[["(t+1)/t", "1/(t+1)"], ["(t+1)/t", "1/t"]],
     [["1"]]],
    [[["1/t"]],
     [["2*t/(t^2+2*t+2)", "2*t^2+t"], ["0", "t^2+2*t+2"]]],
    [[["(3*t^2+3*t+3)/(t^2+1)"]],
     [["2*t+2", "t+3"], ["0", "2"]]],
    [[["0", "1/(t^3+1)"], ["1/(t+1)", "(t+1)/(t^2+t+1)"]],
     [["(t^2+t+1)/(t^2+1)", "t^2"], ["0", "t^2+t"]]],
    [[["(t^4+2*t^3+t+1)/(t^6+t^4+2*t^2+t+2)"]],
     [["(2*t^6+2*t^4+t^2+2*t+1)/(t^6+t^4+t^3+t^2+2*t)", "(2*t^2+t+1)/(t+1)",
      "(2*t+1)/(t+1)"], ["0", "(2*t^3+t+2)/(t^2+2)", "2"], ["0", "0", "(2*t+1)/t"]]],
]


class TestPinnedSubQuotient:
    def test_outputs(self):
        got = [[_strs(sq.res.basis), _strs(sq.quot.basis)]
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


def _diagonal_basis_pin_spaces():
    """Seeded volume spaces over F_2, F_3 and F_4 of ranks 2..5, then the t^200 gap."""
    rng = random.Random("latff-diagonal-pins")
    for q in (2, 3, 4):
        for n in range(2, 6):
            for _ in range(2):
                yield random_volume_space(rng, q, n, maxdeg=1 if n > 3 else 2)
    yield _gap_space(200)


# r, the coefficient lists of w and the strings of b for
# _diagonal_basis_pin_spaces, frozen while diagonal_basis still carried b
# through its recursion
DIAGONAL_BASIS_PINS = [[[0, 1], [[[1], []], [[0, 0, 0, 1], [1]]], [['1', '0'], ['t^2', '1/t']]],
                      [[-2, 0], [[[1], []], [[], [1]]], [['t^2', '0'], ['0', '1']]],
                      [[0, 0, 0], [[[], [1], []], [[], [1, 1], [1]], [[1], [], [1, 1]]],
                       [['0', '1', '0'], ['0', 't+1', '1'], ['1', '0', 't+1']]],
                      [[0, 0, 1],
                       [[[1, 1], [0, 1], []], [[1], [1, 1], [1]], [[0, 1], [1, 1], []]],
                       [['t+1', 't', '0'], ['1', 't+1', '1'], ['1', '(t+1)/t', '0']]],
                      [[0, 0, 0, 1],
                       [[[1], [], [], []], [[1], [], [1], []], [[], [], [1], [1]],
                        [[1, 0, 1], [1], [], []]],
                       [['1', '0', '0', '0'], ['1', '0', '1', '0'], ['0', '0', '1', '1'],
                        ['(t^2+1)/t', '1/t', '0', '0']]],
                      [[-1, 0, 0, 1],
                       [[[], [1], [], []], [[1], [1], [1], []], [[1], [0, 1], [1], [1]],
                        [[1], [0, 1], [], []]],
                       [['0', 't', '0', '0'], ['1', '1', '1', '0'], ['1', 't', '1', '1'],
                        ['1/t', '1', '0', '0']]],
                      [[-1, 0, 0, 0, 0],
                       [[[], [1], [], [], []], [[1], [], [], [], []], [[1], [0, 1], [1], [], []],
                        [[0, 1], [], [1], [1], []], [[1], [1], [], [], [1]]],
                       [['0', 't', '0', '0', '0'], ['1', '0', '0', '0', '0'],
                        ['1', 't', '1', '0', '0'], ['t', '0', '1', '1', '0'],
                        ['1', '1', '0', '0', '1']]],
                      [[-1, 0, 0, 0, 0],
                       [[[1], [], [], [], []], [[0, 1], [1], [], [], []], [[], [1], [1], [], []],
                        [[0, 1], [1], [1], [1], []], [[1], [1], [], [1], [1]]],
                       [['t', '0', '0', '0', '0'], ['t', '1', '0', '0', '0'],
                        ['0', '1', '1', '0', '0'], ['t', '1', '1', '1', '0'],
                        ['1', '1', '0', '1', '1']]],
                      [[0, 2], [[[1], []], [[2, 0, 1], [1]]],
                       [['1', '0'], ['(t^2+2)/t^2', '1/t^2']]],
                      [[0, 0], [[[], [1]], [[1], [2, 1]]], [['0', '1'], ['1', 't+2']]],
                      [[0, 0, 1], [[[1], [], []], [[2], [1], []], [[1, 2], [], [1]]],
                       [['1', '0', '0'], ['2', '1', '0'], ['(2*t+1)/t', '0', '1/t']]],
                      [[-1, -1, -1], [[[1], [], []], [[2, 1], [1], []], [[], [], [1]]],
                       [['t', '0', '0'], ['t^2+2*t', 't', '0'], ['0', '0', 't']]],
                      [[-1, -1, -1, 0],
                       [[[1], [], [], []], [[], [], [1], []], [[1], [], [], [1]],
                        [[], [1], [], []]],
                       [['t', '0', '0', '0'], ['0', '0', 't', '0'], ['t', '0', '0', 't'],
                        ['0', '1', '0', '0']]],
                      [[-1, 0, 0, 2],
                       [[[], [], [1], []], [[1], [], [], []], [[], [2, 1], [], [1]],
                        [[], [1], [2, 1], []]],
                       [['0', '0', 't', '0'], ['1', '0', '0', '0'], ['0', 't+2', '0', '1'],
                        ['0', '1/t^2', '(t+2)/t^2', '0']]],
                      [[-1, -1, 0, 0, 0],
                       [[[], [1], [], [], []], [[1], [], [2], [], [1]],
                        [[], [1, 1], [1], [], []], [[], [2], [], [1], []],
                        [[2], [], [], [], []]],
                       [['0', 't', '0', '0', '0'], ['t', '0', '2*t', '0', 't'],
                        ['0', 't+1', '1', '0', '0'], ['0', '2', '0', '1', '0'],
                        ['2', '0', '0', '0', '0']]],
                      [[-1, -1, 0, 0, 0],
                       [[[], [1], [], [], []], [[], [], [], [1], []], [[], [2], [1], [], []],
                        [[1], [], [], [], []], [[], [], [], [], [1]]],
                       [['0', 't', '0', '0', '0'], ['0', '0', '0', 't', '0'],
                        ['0', '2', '1', '0', '0'], ['1', '0', '0', '0', '0'],
                        ['0', '0', '0', '0', '1']]],
                      [[0, 0], [[[2, 3], [1]], [[1, 1, 2], [0, 3]]],
                       [['3*t+2', '1'], ['2*t^2+t+1', '3*t']]],
                      [[0, 1], [[[2, 0, 3], [1]], [[1], []]], [['3*t^2+2', '1'], ['1/t', '0']]],
                      [[-1, 0, 0], [[[1], [], []], [[], [], [1]], [[], [1], [2, 2, 3]]],
                       [['t', '0', '0'], ['0', '0', '1'], ['0', '1', '3*t^2+2*t+2']]],
                      [[-2, 0, 2],
                       [[[], [], [1]], [[1], [3], [0, 1]], [[], [3], [1, 2, 3, 0, 1]]],
                       [['0', '0', 't^2'], ['1', '3', 't'],
                        ['0', '3/t^2', '(t^4+3*t^2+2*t+1)/t^2']]],
                      [[-1, -1, 0, 0],
                       [[[], [1], [], []], [[], [3], [], [1]], [[], [3], [1], []],
                        [[1], [0, 2], [], []]],
                       [['0', 't', '0', '0'], ['0', '3*t', '0', 't'], ['0', '3', '1', '0'],
                        ['1', '2*t', '0', '0']]],
                      [[-1, 0, 0, 0],
                       [[[], [], [], [1]], [[], [], [1], []], [[], [1], [1, 2], [2]],
                        [[1], [1], [1], []]],
                       [['0', '0', '0', 't'], ['0', '0', '1', '0'], ['0', '1', '2*t+1', '2'],
                        ['1', '1', '1', '0']]],
                      [[-1, -1, 0, 0, 0],
                       [[[3], [1], [], [], []], [[1], [2], [], [1], []], [[2], [2], [], [], []],
                        [[1, 2], [2], [1], [], []], [[2], [], [0, 1], [2], [1]]],
                       [['3*t', 't', '0', '0', '0'], ['t', '2*t', '0', 't', '0'],
                        ['2', '2', '0', '0', '0'], ['2*t+1', '2', '1', '0', '0'],
                        ['2', '0', 't', '2', '1']]],
                      [[-1, -1, -1, 0, 0],
                       [[[1], [], [], [], []], [[], [], [], [1], []], [[], [], [], [], [1]],
                        [[2], [1], [], [], []], [[], [], [1], [], []]],
                       [['t', '0', '0', '0', '0'], ['0', '0', '0', 't', '0'],
                        ['0', '0', '0', '0', 't'], ['2', '1', '0', '0', '0'],
                        ['0', '0', '1', '0', '0']]],
                      [[-200, 0], [[[1], []], [[1], [1]]], [['t^200', '0'], ['1', '1']]]]


def test_pinned_diagonal_bases():
    got = [[list(d.r), [[list(x.coeffs) for x in row] for row in d.w], _strs(d.b)]
           for d in map(diagonal_basis, _diagonal_basis_pin_spaces())]
    assert got == DIAGONAL_BASIS_PINS


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inverse_basis_matches_field_reference(q):
    # inverse_basis inverts the cleared (den, P) on ring rows; the
    # Gauss-Jordan reference runs on the F_q(t) entries of the basis
    rng = random.Random(f"latff-inverse-basis/{q}")
    ring = poly_ring(q)
    zero, one = ring.field_zero(), ring.field_one()
    for n in range(1, 6):
        vs = random_volume_space(rng, q, n, maxdeg=2 if n < 4 else 1)
        lam = random_ratfunc(rng, q, 2)
        spaces = [VolumeSpace.standard(q, n),
                  VolumeSpace.from_columns(q, [vs.column(j) for j in range(n)]),
                  vs.scaled(lam if lam else one),
                  vs.transformed(random_unimodular_poly(rng, q, n))]
        for space in spaces:
            assert space.inverse_basis == inverse_field(space.basis, zero, one)


def test_inverse_basis_clears_nothing(monkeypatch):
    # the constructor clears S = P / den once and keeps it; inverse_basis
    # inverts the kept rows without clearing the basis again
    clear, calls = matrices.clear_denominators, []

    def counting_clear(ring, rows):
        calls.append(rows)
        return clear(ring, rows)
    monkeypatch.setattr(matrices, "clear_denominators", counting_clear)
    rng = random.Random("latff-inverse-basis-count")
    for q in (2, 3, 4):
        for n in range(1, 5):
            basis = random_volume_space(rng, q, n).basis
            calls.clear()
            vs = VolumeSpace(q, n, basis)
            assert len(calls) == 1
            vs.inverse_basis
            assert len(calls) == 1


def _field_logvol(basis, rows, q):
    """Reference log-volume, all over F_q(t) by the conftest eliminations:
    the largest -nu of a maximal minor of rows . S^-T with S^-1 from
    Gauss-Jordan (None when every maximal minor vanishes)."""
    ring = poly_ring(q)
    zero, one = ring.field_zero(), ring.field_one()
    lam = matrices.matmul([[FqRationalFunction.of(x) for x in row] for row in rows],
                          matrices.transpose(inverse_field(basis, zero, one)), zero)
    table = minors(lam, len(rows), lambda S: det_field(S, zero, one))
    return max((-d.nu() for d in table.values() if not d.is_zero()), default=None)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ring_row_solves_match_field_references(q):
    # logvol, inverse_basis and ff_logvol all reuse the constructor's U P = H;
    # the references eliminate over F_q(t) on the basis itself
    rng = random.Random(f"latff-ring-row-solves/{q}")
    ring = poly_ring(q)
    zero, one = ring.field_zero(), ring.field_one()
    for n in range(1, 6):
        vs = random_volume_space(rng, q, n, maxdeg=2 if n < 4 else 1)
        spaces = [vs] if n > 3 else [vs, vs.transformed(random_unimodular_poly(rng, q, n))]
        for space in spaces:
            assert space.logvol == det_field(space.basis, zero, one).nu()
            assert space.inverse_basis == inverse_field(space.basis, zero, one)
            for m in range(1, n + 1):
                w = random_ff_summand(rng, q, n, m, maxdeg=1)
                raw_poly = [[random_poly(rng, q, 2) for _ in range(n)] for _ in range(m)]
                raw_frac = [[random_ratfunc(rng, q, 1) for _ in range(n)] for _ in range(m)]
                for rows in (w.basis, raw_poly, raw_frac):
                    expected = _field_logvol(space.basis, rows, q)
                    if expected is None:
                        with pytest.raises(RankDeficiencyError):
                            ff_logvol(space, rows)
                    else:
                        assert ff_logvol(space, rows) == expected
                assert ff_logvol(space, w) == _field_logvol(space.basis, w.basis, q)
                # a row that depends on the others, or one row too many
                c = random_poly(rng, q, 1)
                dependent = list(w.basis) + [[c * a + b for a, b in zip(w.basis[0],
                                                                        w.basis[-1])]]
                with pytest.raises(RankDeficiencyError):
                    ff_logvol(space, dependent)


def test_one_elimination_per_space_and_no_inverse_in_logvol(monkeypatch):
    # the constructor triangularizes the cleared basis once; inverse_basis and
    # ff_logvol reuse it, and ff_logvol inverts no n x n matrix
    tri, calls = matrices.triangularize, []

    def counting_triangularize(ring, P):
        calls.append(P)
        return tri(ring, P)

    def no_inverse(*args):
        raise AssertionError("an n x n inverse was taken")
    monkeypatch.setattr(matrices, "triangularize", counting_triangularize)
    rng = random.Random("latff-one-elimination")
    for q in (2, 3, 4):
        for n in range(1, 5):
            basis = random_volume_space(rng, q, n).basis
            summands = [random_ff_summand(rng, q, n, m) for m in range(1, n + 1)]
            calls.clear()
            vs = VolumeSpace(q, n, basis)
            assert len(calls) == 1
            with monkeypatch.context() as inside:
                inside.setattr(matrices, "inverse_cleared", no_inverse)
                inside.setattr(matrices, "inverse", no_inverse)
                for w in summands:
                    ff_logvol(vs, w)
            assert "inverse_basis" not in vs.__dict__
            vs.inverse_basis
            assert len(calls) == 1


def test_cleared_basis_takes_no_part_in_equality_or_repr():
    t_inv, s = _rf(ONE) / _rf(T), _rf(T + ONE) / _rf(T * T)
    a = VolumeSpace(2, 2, [[t_inv, _rf(ONE)], [_rf(ZERO), s]])
    b = VolumeSpace.from_columns(2, [[t_inv, ZERO], [ONE, s]])
    assert a.cleared == matrices.clear_denominators(P2, a.basis)
    assert a.cleared[0] == _rf(T * T)  # P = t^2 S is not the basis
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"VolumeSpace(q=2, n=2, basis={a.basis!r})"


def test_logvol_matches_field_determinant():
    # logvol(V) = nu(det S); a basis with dependent columns is singular
    rng = random.Random("latff-logvol-det")
    singular = 0
    for q in (2, 3, 4):
        ring = poly_ring(q)
        zero, one = ring.field_zero(), ring.field_one()
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[random_ratfunc(rng, q, 2) if rng.random() < 0.85 else zero
                     for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                i, j = rng.sample(range(n), 2)
                lam = random_ratfunc(rng, q, 1)
                for row in rows:
                    row[j] = lam * row[i]
            d = det_field(matrices.freeze(rows), zero, one)
            if d.is_zero():
                singular += 1
                with pytest.raises(SingularityError, match="lattice basis is singular"):
                    VolumeSpace(q, n, rows)
            else:
                assert VolumeSpace(q, n, rows).logvol == d.nu()
    assert singular > 5


# (q, n, rank W, D_lo, the dims at D = D_lo, D_lo + 1, ...) of
# short_vector_space_dim(vs, D, gens=W.basis), the short vectors inside a
# summand W, frozen while the probe still took a generator argument
RESTRICTED_PROBE_PINS = [
    (2, 4, 3, -2, [0, 1, 3, 6, 9]),
    (2, 3, 2, -2, [0, 2, 4]),
    (2, 4, 2, -1, [0, 2, 4]),
    (2, 3, 2, -1, [0, 1, 3, 5]),
    (2, 4, 3, -2, [0, 2, 5, 8]),
    (3, 2, 1, -1, [0, 1, 2]),
    (3, 3, 1, -2, [0, 1, 2]),
    (3, 4, 1, 0, [0, 1, 2]),
    (3, 4, 2, -1, [0, 2, 4]),
    (3, 2, 1, -3, [0, 1, 2]),
    (4, 4, 2, -1, [0, 1, 3, 5]),
    (4, 2, 1, -1, [0, 1, 2]),
    (4, 4, 3, -1, [0, 3, 6]),
    (4, 4, 1, 1, [0, 1, 2]),
    (4, 2, 1, 0, [0, 1, 2])]


def test_restricted_probe_matches_pins():
    got = []
    for q in (2, 3, 4):
        rng = random.Random(f"latff-svs-restricted/{q}")
        for _ in range(5):
            n = rng.randint(2, 4)
            vs = random_volume_space(rng, q, n, maxdeg=2)
            w = random_ff_summand(rng, q, n, rng.randint(1, n - 1), maxdeg=1)
            lo = RESTRICTED_PROBE_PINS[len(got)][3]
            res = sub_quotient(vs, w).res
            dims = [short_vector_space_dim(res, D)
                    for D in range(lo, lo + len(RESTRICTED_PROBE_PINS[len(got)][4]))]
            got.append((q, n, w.rank, lo, dims))
    assert got == RESTRICTED_PROBE_PINS


def test_shortest_vector_bisects_the_instability_gap(monkeypatch):
    # the bound is bisected between nu_min - 1 = -201 and the average
    # slope -100, so the solves grow with the log of the gap, not the gap
    calls = []
    solve = latff._logvol_solution_space

    def counted(vs, D):
        calls.append(D)
        return solve(vs, D)

    monkeypatch.setattr(latff, "_logvol_solution_space", counted)
    vs = _gap_space(200)
    v, r1 = shortest_vector(vs)
    assert r1 == -200 and ff_logvol(vs, [v]) == -200
    assert len(calls) <= math.ceil(math.log2(-100 - (-201))) + 1
    monkeypatch.undo()
    assert diagonal_basis(vs).r == (-200, 0)



def test_oracle_splits_and_measures_each_summand_once(monkeypatch):
    counts = Counter()
    split = FFOracle._split
    logvol = latff.ff_logvol

    def counted_split(self, w):
        counts["split", w] += 1
        return split(self, w)

    def counted_logvol(vs, w):
        counts["logvol", w] += 1
        return logvol(vs, w)

    monkeypatch.setattr(FFOracle, "_split", counted_split)
    monkeypatch.setattr(latff, "ff_logvol", counted_logvol)
    rng = random.Random(5)
    for _ in range(2):
        vs = random_volume_space(rng, 2, 4)
        for r in (1, 2, 3):
            w = random_ff_summand(rng, 2, 4, r)
            counts.clear()
            instability_ff(vs, w)
            assert counts == {("split", w): 1, ("logvol", w): 1}


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
            res, quot = FFOracle(vs)._split(w)
            rho, sigma = res.diag.r, quot.diag.r
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
