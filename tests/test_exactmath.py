"""Scalars, valuations, normal forms and minors.

The normal forms are called in `matrices` with the ring given explicitly.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latred import matrices, sarith
from latred.errors import (DimensionError, InvalidPlaceError, ProjectivityError,
                           RankDeficiencyError, SingularityError, ZeroArgumentError)
from latred.filtration import canonical_filtration
from latred.fq import poly, poly_t
from latred.latff import FFSummand, VolumeSpace, ff_invariants_and_filtration
from latred.latz import ZSummand
from latred.rings import ZZ, is_prime_int, poly_ring, prime_part, valuation

from conftest import (BruteFFOracle, assemble_summands, det_field, field_inverse_unimodular,
                      integral, inverse_field, kernel, minors, primitive, random_ff_summand,
                      random_poly, random_ratfunc, random_unimodular_poly, random_unimodular_z,
                      random_z_summand, rank_field, rank_over_field, ratfunc,
                      reference_column_echelon, reference_hnf, reference_split_hnf,
                      smith_completion_rows, smith_saturate)

P2 = poly_ring(2)
T = poly_t(2)
ONE = poly(2, [1])


def snf_diagonal(ring, A):
    D = matrices.snf(ring, A)[1]
    return tuple(D[i][i] for i in range(min(matrices.shape(D))))


def int_det(M):
    lifted = matrices.freeze([[Fraction(x) for x in row] for row in M])
    return det_field(lifted, Fraction(0), Fraction(1))


def int_minors(M, m):
    return minors(M, m, int_det)


def leibniz_det(M, zero, one):
    """Determinant as the signed sum over permutations."""
    total = zero
    for perm in itertools.permutations(range(len(M))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = one
        for i, j in enumerate(perm):
            term = term * M[i][j]
        total = total - term if inversions % 2 else total + term
    return total


class TestValuation:
    def test_integer_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(Fraction(1, 9), 3) == -2
        assert valuation(0, 5) == math.inf

    def test_degree_place(self):
        f = ratfunc(2, [0, 0, 1], [1, 0, 0, 1])  # t^2 / (t^3 + 1)
        assert valuation(f, "degree") == 1
        assert valuation(ratfunc(2, []), "degree") == math.inf

    def test_polynomial_place(self):
        f = ratfunc(2, [0, 0, 1], [1, 1])  # t^2 / (t + 1)
        assert valuation(f, T) == 2
        assert valuation(f, poly(2, [1, 1])) == -1

    def test_invalid_places(self):
        with pytest.raises(InvalidPlaceError):
            valuation(12, 4)
        with pytest.raises(InvalidPlaceError):
            valuation(ratfunc(2, [1]), poly(2, [1, 0, 1]))  # t^2+1 = (t+1)^2

    @given(st.fractions(), st.fractions(), st.sampled_from([2, 3, 5, 7]))
    def test_valuation_is_a_valuation(self, x, y, p):
        vx, vy = valuation(x, p), valuation(y, p)
        assert valuation(x * y, p) == vx + vy
        if x + y != 0 or (x == 0 and y == 0):
            assert valuation(x + y, p) >= min(vx, vy)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 7))
    def test_poly_valuation_multiplicative(self, a, b, seed):
        rng = random.Random(seed)
        f = ratfunc(2, [rng.randrange(2) for _ in range(a + 1)] or [1])
        g = ratfunc(2, [rng.randrange(2) for _ in range(b + 1)] or [1])
        if f.is_zero() or g.is_zero():
            return
        assert valuation(f * g, "degree") == valuation(f, "degree") + valuation(g, "degree")


class TestPrimality:
    """Primes past the trial divisors reach the Miller-Rabin rounds."""

    @pytest.mark.parametrize("n", [41, 7919, 2 ** 61 - 1, 2 ** 89 - 1])
    def test_primes(self, n):
        assert is_prime_int(n)

    # Carmichael numbers, 41^2, a strong pseudoprime to the bases 2, 3, 5 and
    # 7, and one to every base up to 23
    @pytest.mark.parametrize("n", [561, 1105, 1681, 3215031751, 3825123056546413051])
    def test_composites(self, n):
        assert not is_prime_int(n)


class TestPrimePart:
    def test_integer_examples(self):
        assert prime_part(60, {2, 5}) == 20
        assert prime_part(7, {2}) == 1
        assert prime_part(-24, [2, 3]) == 24

    def test_poly_example(self):
        z = T * T * poly(2, [1, 1])
        assert prime_part(z, [T], ring=P2) == T * T

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgumentError):
            prime_part(0, {2})


class TestSmithNormalForm:
    def test_examples(self):
        assert snf_diagonal(ZZ, [[2, 0], [0, 4]]) == (2, 4)
        assert snf_diagonal(ZZ, [[2, 1], [1, 1]]) == (1, 1)
        assert snf_diagonal(P2, [[T, P2.zero()], [P2.zero(), T * T]]) == (T, T * T)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_random_decompositions(self, m, n, seed):
        rng = random.Random(seed)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        U, D, V = matrices.snf(ZZ, A)
        assert matrices.matmul(matrices.matmul(U, D, 0), V, 0) == matrices.freeze(A)
        assert abs(int_det(U)) == 1
        assert abs(int_det(V)) == 1
        diag = tuple(D[i][i] for i in range(min(m, n)))
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert all(d >= 0 for d in diag)

    def test_random_poly_decompositions(self, rng):
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = [[poly(2, [rng.randrange(2) for _ in range(rng.randint(1, 3))])
                  for _ in range(n)] for _ in range(m)]
            U, D, V = matrices.snf(P2, A)
            prod = matrices.matmul(matrices.matmul(U, D, P2.zero()), V, P2.zero())
            assert prod == matrices.freeze(A)
            for d in (D[i][i] for i in range(min(m, n))):
                assert d.is_zero() or d.leading() == 1


def _field(kind):
    """(zero, one, random nonzero-or-zero entry) for Q or F_q(t)."""
    if kind == "Q":
        return (Fraction(0), Fraction(1),
                lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    ring = poly_ring(kind)
    return ring.field_zero(), ring.field_one(), lambda rng: random_ratfunc(rng, kind, 1)


def random_field_matrices(kind, square, count=12):
    """Seeded m x n matrices with m, n <= 4, some of them rank-deficient products."""
    zero, _, entry = _field(kind)
    rng = random.Random(f"{kind}-{square}")

    def draw(rows, cols):
        return matrices.freeze([[zero if rng.random() < 0.3 else entry(rng)
                                 for _ in range(cols)] for _ in range(rows)])
    out = []
    for _ in range(count):
        m = rng.randint(1, 4)
        n = m if square else rng.randint(1, 4)
        if min(m, n) > 1 and rng.random() < 0.4:
            r = rng.randint(1, min(m, n) - 1)
            out.append(matrices.matmul(draw(m, r), draw(r, n), zero))
        else:
            out.append(draw(m, n))
    return out


@pytest.mark.parametrize("kind", ["Q", 2, 3])
class TestFieldElimination:
    def test_det_matches_leibniz(self, kind):
        zero, one, _ = _field(kind)
        for M in random_field_matrices(kind, square=True):
            assert det_field(M, zero, one) == leibniz_det(M, zero, one)
        with pytest.raises(DimensionError):
            det_field(((one, zero),), zero, one)

    def test_inverse_or_singular(self, kind):
        # matrices.inverse runs on cleared ring rows; the Gauss-Jordan
        # reference runs on the field entries
        zero, one, _ = _field(kind)
        ring = ZZ if kind == "Q" else poly_ring(kind)
        cases = random_field_matrices(kind, square=True)
        singular = 0
        for M in cases:
            if leibniz_det(M, zero, one) == zero:
                singular += 1
                with pytest.raises(SingularityError, match="^matrix is singular$"):
                    matrices.inverse(ring, M)
                continue
            inv = matrices.inverse(ring, M)
            ident = matrices.identity_rows(len(M), one, zero)
            assert matrices.matmul(inv, M, zero) == ident
            assert matrices.matmul(M, inv, zero) == ident
            assert inv == inverse_field(M, zero, one)
        assert 0 < singular < len(cases)
        with pytest.raises(DimensionError):
            matrices.inverse(ring, ((one, zero),))

    def test_rank_is_largest_nonzero_minor(self, kind):
        zero, one, _ = _field(kind)
        for M in random_field_matrices(kind, square=False):
            m, n = matrices.shape(M)
            want = max((k for k in range(1, min(m, n) + 1)
                        if any(x != zero for x in minors(
                            M, k, lambda S: leibniz_det(S, zero, one)).values())),
                       default=0)
            assert rank_field(M, zero, one) == want


def _clear_by_field_products(ring, rows):
    """Reference clearing: den = lcm of the denominators, each entry den * x."""
    den = ring.one()
    for row in rows:
        for x in row:
            d = x.denominator if isinstance(x, Fraction) else x.den
            den = ring.exact_div(den * d, ring.gcd(den, d))
    den = ring.unit_normalize(den)[1]
    return den, matrices.freeze([[integral(ring, ring.to_field(den) * x) for x in row]
                                 for row in rows])


def random_rows_to_clear(kind, count=40):
    """Seeded fraction-field rows: zeros, negatives, coprime and shared denominators."""
    rng = random.Random(f"clear-{kind}")
    if kind == "Z":
        ring = ZZ
        dens = [1, 2, 3, 4, 5, 6, 7, 12, 35]

        def entry(den):
            return Fraction(rng.randint(-9, 9), den if den else rng.choice(dens))
    else:
        ring = poly_ring(kind)
        dens = [random_poly(rng, kind, 2) for _ in range(4)]
        dens = [d for d in dens if not d.is_zero()] + [ring.one()]

        def entry(den):
            x = random_ratfunc(rng, kind, 2)
            return x if den is None else x / ring.to_field(den)
    out = [()]
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        shared = rng.choice(dens) if rng.random() < 0.3 else None
        out.append(matrices.freeze([[ring.field_zero() if rng.random() < 0.2 else entry(shared)
                                     for _ in range(n)] for _ in range(m)]))
    return ring, out


@pytest.mark.parametrize("kind", ["Z", 2, 3, 4])
class TestClearDenominators:
    def test_matches_field_products(self, kind):
        ring, cases = random_rows_to_clear(kind)
        for rows in cases:
            assert matrices.clear_denominators(ring, rows) == \
                _clear_by_field_products(ring, rows)

    def test_den_normalized_minimal_and_rows_integral(self, kind):
        ring, cases = random_rows_to_clear(kind)
        ring_type = int if kind == "Z" else type(ring.one())
        for rows in cases:
            d, cleared = matrices.clear_denominators(ring, rows)
            assert ring.unit_normalize(d)[1] == d
            # minimal: no prime of den divides every cleared entry
            g = d
            for row, crow in zip(rows, cleared):
                for x, c in zip(row, crow):
                    assert type(c) is ring_type
                    assert ring.to_field(c) == ring.to_field(d) * x
                    g = ring.gcd(g, c)
            assert ring.is_unit(g)


class TestMinors:
    def test_keyed_examples(self):
        assert int_minors([[1, 0, 2], [0, 1, 3]], 2) == {(1, 2): 1, (1, 3): 3, (2, 3): -2}
        assert int_minors([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == {(1, 2, 3): 1}
        assert int_minors([[2, 0], [0, 3]], 1) == {
            (1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 3}

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            int_minors([[1, 2]], 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_top_minor_is_determinant(self, n, seed):
        rng = random.Random(seed)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        top = int_minors(M, n)
        assert list(top) == [tuple(range(1, n + 1))]
        assert top[tuple(range(1, n + 1))] == leibniz_det(M, 0, 1)

    def test_laplace_consistency(self, rng):
        # expansion along the first row against the 1x1/2x2 minor tables
        for _ in range(20):
            M = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            subs = int_minors([row[:] for row in M[1:]], 2)
            expansion = sum((-1) ** j * M[0][j] * subs[tuple(sorted({1, 2, 3} - {j + 1}))]
                            for j in range(3))
            assert expansion == int_det(M)


class TestSaturate:
    def test_examples(self):
        assert matrices.saturate(ZZ, [[2, 0]]) == ((1, 0),)
        assert matrices.saturate(ZZ, [[2, 4]]) == ((1, 2),)
        assert matrices.saturate(P2, [[T, T * T]]) == ((ONE, T),)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            matrices.saturate(ZZ, [[1, 2], [2, 4]])

    def test_idempotent_and_span_preserving(self, rng):
        for _ in range(25):
            n = rng.randint(2, 4)
            m = rng.randint(1, n)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            lifted = matrices.freeze([[Fraction(x) for x in r] for r in rows])
            if rank_field(lifted, Fraction(0), Fraction(1)) != m:
                continue
            sat = matrices.saturate(ZZ, rows)
            assert matrices.saturate(ZZ, sat) == sat
            stacked = matrices.freeze([[Fraction(x) for x in r]
                                       for r in list(rows) + list(sat)])
            assert rank_field(stacked, Fraction(0), Fraction(1)) == m


def _ring_and_draw(q, rng):
    if q is None:
        return ZZ, lambda: rng.randint(-4, 4)
    return poly_ring(q), lambda: random_poly(rng, q, 2)


@pytest.mark.parametrize("q", [None, 2, 3], ids=["Z", "F2", "F3"])
class TestColumnEchelon:
    """Saturation, completion and join share one column reduction; the
    Smith-form versions they replaced are the references."""

    def test_saturate_matches_smith_form(self, q):
        rng = random.Random(f"column-echelon/saturate/{q}")
        ring, draw = _ring_and_draw(q, rng)
        nonunit = 2 if q is None else poly_t(q)
        outcomes = set()
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            rows = [[draw() for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.3:
                rows[0] = [nonunit * x for x in rows[0]]
            if rng.random() < 0.3:  # a combination of the other rows
                c = [draw() for _ in rows]
                dep = [sum((ci * r[j] for ci, r in zip(c, rows)), ring.zero())
                       for j in range(n)]
                rows.insert(rng.randrange(m + 1), dep)
            try:
                expected = smith_saturate(ring, rows)
            except RankDeficiencyError:
                outcomes.add("dependent")
                with pytest.raises(RankDeficiencyError):
                    matrices.saturate(ring, rows)
                continue
            outcomes.add("independent")
            assert matrices.saturate(ring, rows) == expected
        assert outcomes == {"dependent", "independent"}

    def test_completion_is_unimodular_or_refused(self, q):
        rng = random.Random(f"column-echelon/completion/{q}")
        ring, draw = _ring_and_draw(q, rng)
        nonunit = 2 if q is None else poly_t(q)
        outcomes = set()
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            rows = [[draw() for _ in range(n)] for _ in range(m)]
            if rank_over_field(ring, matrices.freeze(rows)) < m:
                continue
            sat = matrices.saturate(ring, rows)
            pick = rng.random()
            if pick < 0.4:
                rows = list(sat)
            elif pick < 0.7:  # one imprimitive row
                rows = list(sat)
                i = rng.randrange(m)
                rows[i] = [nonunit * x for x in rows[i]]
            rows = matrices.freeze(rows)
            if matrices.hnf(ring, rows) != sat:
                outcomes.add("refused")
                with pytest.raises(ProjectivityError):
                    matrices.completion_rows(ring, rows)
                with pytest.raises(ProjectivityError):
                    smith_completion_rows(ring, rows)
                continue
            outcomes.add("completed")
            full = matrices.completion_rows(ring, rows)
            assert matrices.shape(full) == (n, n) and full[:m] == rows
            lifted = matrices.freeze([[ring.to_field(x) for x in row] for row in full])
            det = det_field(lifted, ring.field_zero(), ring.field_one())
            assert ring.is_unit(integral(ring, det))
        assert outcomes == {"completed", "refused"}

    def test_join_matches_saturated_hermite_rows(self, q):
        rng = random.Random(f"column-echelon/join/{q}")
        ring, draw = _ring_and_draw(q, rng)
        summand = (lambda n, rows: ZSummand.from_rows(n, rows)) if q is None else \
            (lambda n, rows: FFSummand.from_rows(q, n, rows))
        for _ in range(30):
            n = rng.randint(2, 4)
            common = [[draw() for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            a_rows = common + [[draw() for _ in range(n)] for _ in range(rng.randint(0, 1))]
            b_rows = common + [[draw() for _ in range(n)] for _ in range(rng.randint(0, 1))]
            if any(rank_over_field(ring, matrices.freeze(r)) < len(r)
                   for r in (a_rows, b_rows)):
                continue
            a, b = summand(n, a_rows), summand(n, b_rows)
            assert a.join(summand(n, [])) == a
            for x, y in ((a, b), (b, a), (a, a)):
                rows = x.basis + y.basis
                assert rank_over_field(ring, rows) < len(rows)
                expected = smith_saturate(ring, matrices.hnf(ring, rows))
                assert x.join(y).basis == expected


def _hermite_inputs(q, tag):
    """The ring, and seeded matrices over it: wide, tall and square, some
    with a zero row, a zero column or an inserted combination of two rows."""
    rng = random.Random(f"lean-kernels/{tag}/{q}")
    ring, draw = _ring_and_draw(q, rng)
    zero = ring.zero()
    cases = [()]
    for m, n in [(1, 1), (1, 4), (2, 5), (3, 3), (4, 4), (3, 6), (5, 2), (6, 3)] * 8:
        rows = [[draw() for _ in range(n)] for _ in range(m)]
        pick = rng.random()
        if pick < 0.25:
            rows[rng.randrange(m)] = [zero] * n
        elif pick < 0.5:
            j = rng.randrange(n)
            for row in rows:
                row[j] = zero
        elif pick < 0.75 and m > 1:
            a, b = rng.sample(range(m), 2)
            c = draw()
            rows.insert(rng.randrange(m + 1), [x + c * y for x, y in zip(rows[a], rows[b])])
        cases.append(matrices.freeze(rows))
    return ring, cases


@pytest.mark.parametrize("q", [None, 2, 3, 4], ids=["Z", "F2", "F3", "F4"])
class TestLeanKernels:
    """The Hermite form and the column reduction against their earlier,
    full-row bodies, kept as references."""

    def test_hnf_matches_reference(self, q):
        ring, cases = _hermite_inputs(q, "hnf")
        for rows in cases:
            assert matrices.hnf(ring, rows) == reference_hnf(ring, rows)

    def test_column_echelon_matches_reference(self, q):
        ring, cases = _hermite_inputs(q, "column-echelon")
        ranks = set()
        for rows in cases:
            got = matrices._column_echelon(ring, rows)
            assert got == reference_column_echelon(ring, rows)
            ranks.add(got[0] < len(rows))
        assert ranks == {False, True}

    def test_split_hnf_matches_full_hermite_reference(self, q):
        # the forward-only split against the rows of the full hnf([A | R])
        # that vanish on A.  A has dependent, zero or no rows, zero columns
        # or no columns at all; R is one column wide, wider than A, or the
        # shape `lattice_intersect` passes, (X; Y) against (X; 0)
        ring, cases = _hermite_inputs(q, "split-hnf")
        rng = random.Random(f"lean-kernels/split-hnf/{q}")
        _, draw = _ring_and_draw(q, rng)
        zero = ring.zero()
        inputs = [((), ()), (((),) * 3, [[draw() for _ in range(4)] for _ in range(3)])]
        for A in cases[1:]:
            m, k = matrices.shape(A)
            for width in (1, k + 3):
                inputs.append((A, [[draw() for _ in range(width)] for _ in range(m)]))
            if m > 1:
                cut = rng.randrange(1, m)
                inputs.append((A, matrices.stack(A[:cut], ((zero,) * k,) * (m - cut))))
        sizes = set()
        for A, R in inputs:
            got = matrices.split_hnf(ring, A, R)
            assert got == reference_split_hnf(ring, A, R)
            sizes.add(min(len(got), 2))
        assert sizes == {0, 1, 2}

    def test_only_units_reach_unit_inverse(self, q, monkeypatch):
        # hnf normalizes each pivot, and snf each invariant factor, by the
        # inverse of a unit of the ring; that inverse takes nothing else
        ring, cases = _hermite_inputs(q, "unit-inverse")
        inverse, seen = matrices._unit_inverse, []

        def recording_inverse(u):
            seen.append(u)
            return inverse(u)
        monkeypatch.setattr(matrices, "_unit_inverse", recording_inverse)
        for rows in cases:
            for h in matrices.hnf(ring, rows):
                lead = next(x for x in h if x)
                assert ring.unit_normalize(lead)[1] == lead
            matrices.snf(ring, rows)
        assert bool(seen) == (q != 2)  # over F_2 every nonzero polynomial is monic
        for u in seen:
            assert type(u) is type(ring.one()) and ring.is_unit(u)
            assert u * inverse(u) == ring.one()

    def test_inverse_unimodular_matches_field_reference(self, q):
        rng = random.Random(f"inverse-unimodular/{q}")
        ring = ZZ if q is None else poly_ring(q)
        unit = -1 if q is None else poly(q, [q - 1])
        for _ in range(30):
            n = rng.randint(1, 4)
            U = [list(r) for r in (random_unimodular_z(rng, n, spread=3) if q is None
                                   else random_unimodular_poly(rng, q, n, maxdeg=2))]
            i, j = rng.randrange(n), rng.randrange(n)
            U[i], U[j] = U[j], [unit * x for x in U[i]]
            lifted = matrices.freeze([[ring.to_field(x) for x in row] for row in U])
            inv = matrices.inverse(ring, lifted)
            assert inv == matrices.freeze(
                [[ring.to_field(x) for x in row]
                 for row in field_inverse_unimodular(ring, matrices.freeze(U))])
            assert matrices.matmul(lifted, inv, ring.field_zero()) == \
                matrices.identity_rows(n, ring.field_one(), ring.field_zero())


class TestHermite:
    def test_canonical_under_row_ops(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            H = matrices.hnf(ZZ, A)
            B = [list(r) for r in A]
            for _ in range(6):
                i, j = rng.randrange(m), rng.randrange(m)
                if i != j:
                    c = rng.randint(-3, 3)
                    B[i] = [a + c * b for a, b in zip(B[i], B[j])]
            assert matrices.hnf(ZZ, B) == H

    def test_pivot_normalization(self):
        H = matrices.hnf(ZZ, [[0, -3], [2, 5]])
        assert H == ((2, 2), (0, 3))


_LOG_BASES = st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3),
                              Fraction(6), Fraction(1), 4])
_LOG_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                               Fraction(2, 3), 0, 3])


class TestExactLog:
    def test_basic_identities(self):
        from latred.logs import ExactLog
        ln2 = ExactLog.half_log(4)
        ln8 = ExactLog.half_log(64)
        assert (ln8 - 3 * ln2).is_zero()
        assert (ExactLog.log(Fraction(4, 3), Fraction(1, 3))
                - ExactLog.log(Fraction(16, 9), Fraction(1, 6))).is_zero()
        assert ln2.as_log_root() == (Fraction(4), 2)

    @given(st.fractions(min_value="1/30", max_value=50, max_denominator=30),
           st.fractions(min_value="1/30", max_value=50, max_denominator=30),
           st.fractions(min_value=-3, max_value=3, max_denominator=8),
           st.fractions(min_value=-3, max_value=3, max_denominator=8))
    def test_sign_matches_float_evaluation(self, q1, q2, c1, c2):
        from latred.logs import ExactLog
        v = ExactLog.log(q1, c1) + ExactLog.log(q2, c2)
        approx = float(c1) * math.log(float(q1)) + float(c2) * math.log(float(q2))
        if abs(approx) > 1e-9:
            assert v.sign() == (1 if approx > 0 else -1)

    @given(st.fractions(min_value="1/20", max_value=20, max_denominator=50),
           st.fractions(min_value="1/20", max_value=20, max_denominator=50))
    def test_log_of_product_is_sum(self, a, b):
        from latred.logs import ExactLog
        assert (ExactLog.log(a * b) - ExactLog.log(a) - ExactLog.log(b)).is_zero()


    @settings(max_examples=200)
    @given(st.lists(st.tuples(_LOG_BASES, _LOG_COEFFS), max_size=4),
           st.lists(st.tuples(_LOG_BASES, _LOG_COEFFS), max_size=4),
           st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 4), 5]))
    def test_arithmetic_matches_validating_constructor(self, a_terms, b_terms, k):
        # +, -, negation and scale skip the constructor; the result must be
        # the one the constructor gives, term order included, since to_float
        # and the printed decimal sum the terms in that order
        from latred.logs import ExactLog

        def merged(x, y, sign):
            out = dict(x.terms)
            for base, c in y.terms.items():
                out[base] = out.get(base, Fraction(0)) + sign * c
            return ExactLog(out)

        def same(got, want):
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(b) is Fraction and type(c) is Fraction and c
                       for b, c in got.terms.items())
            assert got.to_float() == want.to_float()
        a, b = ExactLog(dict(a_terms)), ExactLog(dict(b_terms))
        same(a + b, merged(a, b, 1))
        same(a - b, merged(a, b, -1))
        same(-a, ExactLog({base: -c for base, c in a.terms.items()}))
        same(a.scale(k), ExactLog({base: c * k for base, c in a.terms.items()}))
        same(k * a, a.scale(k))
        if k:
            same(a / k, ExactLog({base: c / k for base, c in a.terms.items()}))

    def test_compare_to_real_matches_the_decimal_ladder(self):
        # seeded values against random thresholds and near-ties: floats one
        # ulp around the value and rationals within 10^-30 of it, which the
        # float evaluation cannot separate and hands to the ladder
        from decimal import Decimal, localcontext

        from latred.logs import ExactLog
        rng = random.Random("exactlog-compare-to-real")
        for _ in range(150):
            v = ExactLog({Fraction(rng.randint(1, 60), rng.randint(1, 60)):
                          Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                          for _ in range(rng.randint(1, 3))})
            with localcontext() as ctx:
                ctx.prec = 60
                exact = sum((c.numerator * (Decimal(b.numerator).ln()
                                            - Decimal(b.denominator).ln()) / c.denominator
                             for b, c in v.terms.items()), Decimal(0))
            near = Fraction(exact)
            approx = v.to_float()
            xs = [Fraction(rng.randint(-90, 90), rng.randint(1, 30)), rng.uniform(-5, 5),
                  approx, math.nextafter(approx, math.inf), math.nextafter(approx, -math.inf),
                  near + Fraction(1, 10 ** 30), near - Fraction(1, 10 ** 30)]
            for x in xs:
                if v.terms:
                    assert v.compare_to_real(x) == v._compare_decimal(x), (v, x)

    def test_clear_comparison_takes_no_decimal_log(self, monkeypatch):
        from decimal import Decimal

        from latred import logs
        from latred.logs import ExactLog
        calls = []

        class CountingDecimal(Decimal):
            def ln(self, context=None):
                calls.append(self)
                return super().ln(context)
        monkeypatch.setattr(logs, "Decimal", CountingDecimal)
        v = ExactLog.half_log(Fraction(14, 5)) - ExactLog.log(3, Fraction(1, 7))  # ~0.358
        assert v.compare_to_real(Fraction(1, 3)) == 1
        assert v.compare_to_real(0.4) == -1
        assert v.compare_to_real(-2) == 1
        assert calls == []
        # a threshold within 10^-30 of the value needs the ladder
        near = Fraction(str(v.to_float())) + Fraction(1, 10 ** 30)
        assert v.compare_to_real(near) == v._compare_decimal(near)
        assert calls


class TestExtensionFields:
    def test_f4_arithmetic(self):
        from latred.fq import gf
        F4 = gf(4)
        for a in range(4):
            for b in range(4):
                assert F4.add(a, b) == F4.add(b, a)
                assert F4.mul(a, b) == F4.mul(b, a)
            if a:
                assert F4.mul(a, F4.inv(a)) == 1
        # characteristic 2: x + x = 0
        assert all(F4.add(a, a) == 0 for a in range(4))

    def test_f4_polynomial_normal_forms(self, rng):
        P4 = poly_ring(4)
        for _ in range(10):
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            A = [[poly(4, [rng.randrange(4) for _ in range(rng.randint(1, 3))])
                  for _ in range(n)] for _ in range(m)]
            U, D, V = matrices.snf(P4, A)
            prod = matrices.matmul(matrices.matmul(U, D, P4.zero()), V, P4.zero())
            assert prod == matrices.freeze(A)

    def test_f9_valuation(self):
        f = ratfunc(9, [0, 1], [2, 1])  # t / (t + 2) over F_9
        assert valuation(f, "degree") == 0
        assert valuation(f, poly(9, [0, 1])) == 1


class TestKernelAndIntersection:
    def test_kernel_annihilates(self, rng):
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(2, 4)
            A = matrices.freeze([[rng.randint(-5, 5) for _ in range(n)]
                                 for _ in range(m)])
            for v in kernel(ZZ, A):
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)

    @pytest.mark.parametrize("q", [None, 2, 3, 4], ids=["Z", "F2", "F3", "F4"])
    def test_kernel_is_a_saturated_hermite_basis(self, q):
        ring = ZZ if q is None else poly_ring(q)
        rng = random.Random(f"kernel/{q}")
        assert kernel(ring, ()) == ()  # m = 0 rows (and so no columns)
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            # one zero row and one zero column, unless the index falls outside
            zero_row, zero_col = rng.randrange(m + 1), rng.randrange(n + 1)
            M = matrices.freeze(
                [[ring.zero() if zero_row == i or zero_col == j
                  else rng.randint(-4, 4) if q is None else random_poly(rng, q, 2)
                  for j in range(n)] for i in range(m)])
            K = kernel(ring, M)
            assert matrices.hnf(ring, K) == K
            for v in K:
                assert all(not sum((a * x for a, x in zip(row, v)), ring.zero())
                           for row in M)
            assert rank_over_field(ring, M) + len(K) == n
            assert matrices.saturate(ring, K) == K

    def test_lattice_intersection_membership(self):
        got = matrices.lattice_intersect(ZZ, [[2, 0], [0, 1]], [[1, 1]])
        assert got == ((2, 2),)

    @pytest.mark.parametrize("side", ["Z", "F2", "F3", "F4", "Z[1/6]"])
    def test_meet_is_symmetric_and_matches_reference(self, side):
        # Summand.meet runs lattice_intersect, so the forward-only split
        # serves every side; the meet lies in both summands
        rng = random.Random(f"meet/{side}")
        ctx = sarith.LocalizedContext.integers([2, 3])
        ring = ZZ if side in ("Z", "Z[1/6]") else poly_ring(int(side[1]))

        def summand(n, rank):
            if side == "Z":
                return random_z_summand(rng, n, rank)
            if side == "Z[1/6]":
                return sarith.span_localized(ctx, n, random_z_summand(rng, n, rank).basis)
            return random_ff_summand(rng, ring.q, n, rank)
        ranks = set()
        for _ in range(12):
            n = rng.randint(2, 4)
            a, b = summand(n, rng.randint(1, n)), summand(n, rng.randint(1, n))
            meet = a.meet(b)
            assert meet == b.meet(a)
            zeros = ((ring.zero(),) * n,) * b.rank
            assert meet.basis == reference_split_hnf(
                ring, matrices.stack(a.basis, b.basis), matrices.stack(a.basis, zeros))
            assert a.contains(meet) and b.contains(meet)
            ranks.add(min(meet.rank, 2))
        assert ranks == {0, 1, 2}


def _val2(x):
    return valuation(x, 2)


class TestDvrColumnReduce:
    def test_pivot_valuations(self):
        # columns (4, 2) and (2, 12); det 44 has 2-adic valuation 2 = 1 + 1
        cols = [[Fraction(4), Fraction(2)], [Fraction(2), Fraction(12)]]
        assert matrices.dvr_column_reduce(cols, [1, 0], _val2) == [(1, 0, 1), (0, 1, 1)]
        assert cols == [[4, 2], [-22, 0]]

    def test_any_row_pivots_on_the_least_remaining_entry(self):
        cols = [[Fraction(4), Fraction(2)], [Fraction(2), Fraction(12)]]
        steps = matrices.dvr_column_reduce(cols, [0, 1], _val2, any_row=True)
        assert steps == [(0, 1, 1), (1, 0, 1)]
        assert cols == [[0, -22], [2, 12]]

    def test_least_valuation_then_first_column(self):
        cols = [[Fraction(2)], [Fraction(3)], [Fraction(5)]]
        assert matrices.dvr_column_reduce(cols, [0], _val2) == [(0, 1, 0)]
        assert cols == [[0], [3], [0]]
        cols = [[Fraction(3)], [Fraction(1)], [Fraction(4)]]
        assert matrices.dvr_column_reduce(cols, [0], _val2) == [(0, 0, 0)]
        assert cols == [[3], [0], [0]]

    def test_dependent_row_raises(self):
        cols = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(RankDeficiencyError, match="columns do not span a full lattice"):
            matrices.dvr_column_reduce(cols, [1, 0], _val2)
        with pytest.raises(RankDeficiencyError):
            matrices.dvr_column_reduce([[Fraction(1), Fraction(0)]], [1, 0], _val2)


    def test_scaled_columns_skip_the_last_update(self):
        # each column ends with its multiplier; row 1 pivots on column 1
        # (entry 3) and clears it fraction-free from column 0, to
        # 3 * (5, 6, 1) - 6 * (1, 3, 0) = (9, 0, 3) over its content 3, and
        # from column 2, to (2, 0, 3); row 0 then pivots on column 0, and
        # with every row cleared the last step updates no column
        cols = [[5, 6, 1], [1, 3, 1], [2, 4, 1]]
        steps = matrices.dvr_column_reduce(cols, [1, 0], _val2, scaled=ZZ)
        assert steps == [(1, 1, 0), (0, 0, 0)]
        assert cols == [[3, 0, 1], [1, 3, 1], [2, 0, 3]]

    def test_scaled_ring_columns_give_the_same_steps(self):
        # integer columns, each over its multiplier, reduced fraction-free,
        # pivot exactly where the rational columns do, at the same
        # valuations, and stand for the rational columns the reduction
        # leaves; once every row is cleared the unused columns, zero over
        # the field, are left as they are
        rng = random.Random("dvr-scaled")
        checked = 0
        for _ in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            cols = [[rng.choice([0, rng.randint(-40, 40)]) for _ in range(m)] + [1]
                    for _ in range(n)]
            order = rng.sample(range(m), rng.randint(1, m))
            any_row = rng.random() < 0.5
            field = [[Fraction(x) for x in c[:-1]] for c in cols]
            try:
                want = matrices.dvr_column_reduce(field, order, _val2, any_row=any_row)
            except RankDeficiencyError:
                with pytest.raises(RankDeficiencyError):
                    matrices.dvr_column_reduce(cols, order, _val2, any_row=any_row,
                                               scaled=ZZ)
                continue
            checked += 1
            assert matrices.dvr_column_reduce(cols, order, _val2, any_row=any_row,
                                              scaled=ZZ) == want
            kept = {p for _, p, _ in want} if len(order) == m else range(n)
            assert [[Fraction(x, cols[j][-1]) for x in cols[j][:-1]] for j in kept] == \
                [field[j] for j in kept]
        assert checked > 50


class TestAssembleSummands:
    """The reference span assembler against saturating every independent m-subset."""

    @staticmethod
    def _brute(ring, n, pool, m):
        out = set()
        for sub in itertools.combinations(pool, m):
            if rank_over_field(ring, matrices.freeze(sub)) == m:
                out.add(matrices.saturate(ring, sub))
        return out

    @pytest.mark.parametrize("q", [None, 2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_against_brute_force(self, q, n):
        rng = random.Random(100 * n + (q or 0))
        if q is None:
            ring = ZZ
            draw = lambda: rng.randint(-2, 2)  # noqa: E731
        else:
            ring = poly_ring(q)
            draw = lambda: poly(q, [rng.randrange(q) for _ in range(2)])  # noqa: E731
        pool = [tuple(draw() for _ in range(n)) for _ in range(8)]
        pool += [pool[0], tuple(ring.zero() for _ in range(n))]  # repeat and zero
        for m in range(1, n):
            got = assemble_summands(ring, n, pool, m)
            assert len(set(got)) == len(got)
            assert set(got) == self._brute(ring, n, pool, m)

    def test_primitive(self):
        assert primitive(ZZ, (0, -4, 6)) == (0, 2, -3)
        assert primitive(ZZ, (0, 0)) is None
        # over F_3[t]: content t, then monic at the first nonzero entry
        v = (poly(3, [0, 2]), poly(3, [0, 1, 1]))
        assert primitive(poly_ring(3), v) == (poly(3, [1]), poly(3, [2, 2]))

    def test_ff_oracle_matches_diagonal_filtration_at_rank_3(self):
        # r = (0, 1, 2): a full flag, so the brute oracle assembles rank-1 and rank-2 spans
        inv = ratfunc(2, [1], [1, 1])  # 1/(t+1)
        vs = VolumeSpace(2, 3, [[ratfunc(2, [1, 1]), ratfunc(2, [1, 1], [0, 1]), inv],
                                [inv, ratfunc(2, []), ratfunc(2, [1])],
                                [ratfunc(2, []), inv, ratfunc(2, [0, 1])]])
        r, report = ff_invariants_and_filtration(vs)
        assert r == (0, 1, 2)
        oracle = canonical_filtration(BruteFFOracle(vs))
        assert [w.basis for w in oracle.chain] == [w.basis for w in report.chain]
        assert oracle.c_values == report.c_values
