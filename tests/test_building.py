"""Lattice-class vertices, neighbors, labels, chambers, apartments."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latred import matrices
from latred.building import (BuildingContext, apartment_coords, canonical_vertex,
                             count_chambers_on_edge, edge_length,
                             edge_length_sq, label_difference, neighbors,
                             relative_exponents, standard_vertex,
                             triangulate_point, vertices_adjacent_or_equal)
from latred.errors import DimensionError, DomainError, ScaleError
from latred.fq import (PRIME_POWER_LIMIT, FqRationalFunction, poly, poly_one,
                       poly_t)
from latred.gflinalg import count_subspaces

from conftest import (det_field, inverse_field, minors, random_poly, rank_field)


CTX22 = BuildingContext.p_adic(2, 2)
CTX23 = BuildingContext.p_adic(3, 2)
CTX32 = BuildingContext.function_field(2, 3)


def _padic_vertex(ctx, cols):
    return canonical_vertex([[Fraction(x) for x in col] for col in cols], ctx)


class TestCanonicalVertex:
    def test_standard(self):
        v = standard_vertex(CTX22)
        assert v.matrix == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_homothety_collapse(self):
        assert _padic_vertex(CTX22, [[2, 0], [0, 2]]) == standard_vertex(CTX22)
        assert _padic_vertex(CTX22, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]) \
            == standard_vertex(CTX22)

    def test_valuation_shift(self):
        v = _padic_vertex(CTX22, [[1, 0], [0, Fraction(1, 2)]])
        assert v.diagonal_exponents() == (1, 0)

    def test_unimodular_invariance(self, rng):
        for _ in range(15):
            ctx = CTX22
            cols = [[Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 2))
                     for _ in range(2)] for _ in range(2)]
            try:
                v = canonical_vertex(cols, ctx)
            except Exception:
                continue
            # mix columns over the local ring and rescale the lattice
            mixed = [
                [cols[0][i] + 3 * cols[1][i] for i in range(2)],
                [Fraction(5) * cols[1][i] for i in range(2)],  # 5 is a unit at 2
            ]
            scaled = [[x * Fraction(4) for x in col] for col in mixed]
            assert canonical_vertex(scaled, ctx) == v


class TestNeighbors:
    def test_counts(self):
        assert len(neighbors(standard_vertex(CTX22))) == 3
        assert len(neighbors(standard_vertex(CTX23))) == 4
        nbs = neighbors(standard_vertex(CTX32))
        assert len(nbs) == 14
        assert sum(1 for _, d in nbs if d == 1) == 7
        assert sum(1 for _, d in nbs if d == 2) == 7

    def test_label_differences_all_one_in_rank_two(self):
        assert all(d == 1 for _, d in neighbors(standard_vertex(CTX22)))

    def test_symmetry_with_complementary_labels(self):
        v0 = standard_vertex(CTX32)
        for w, d in neighbors(v0):
            back = [dd for u, dd in neighbors(w) if u == v0]
            assert back and all(x == 3 - d for x in back)

    def test_distinct(self):
        nbs = [w for w, _ in neighbors(standard_vertex(CTX32))]
        assert len(set(nbs)) == len(nbs)

    def test_gaussian_binomial_counts(self):
        # neighbor count per dimension equals the subspace count of kappa^n
        for ctx in (CTX22, CTX23, CTX32):
            nbs = neighbors(standard_vertex(ctx))
            for d in range(1, ctx.n):
                assert sum(1 for _, dd in nbs if dd == d) == \
                    count_subspaces(ctx.residue_size, ctx.n, d)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            neighbors(standard_vertex(BuildingContext.p_adic(7, 2)))

    def test_scale_guard_names_sizes_and_limits(self):
        with pytest.raises(ScaleError, match=r"size 7, rank 2 .* limits 5, 4"):
            neighbors(standard_vertex(BuildingContext.p_adic(7, 2)))


def _lattice_cols(rng, ctx, extra=0):
    """Spanning columns of a random lattice: p-power denominators, or F_q[t]
    entries; `extra` columns beyond the rank."""
    n = ctx.n
    while True:
        if ctx.kind == "p-adic":
            cols = [[Fraction(rng.randint(-6, 6) * ctx.p ** rng.randint(0, 2),
                              ctx.p ** rng.randint(0, 2)) for _ in range(n)]
                    for _ in range(n + extra)]
        else:
            cols = [[FqRationalFunction.of(random_poly(rng, ctx.q, 2)) for _ in range(n)]
                    for _ in range(n + extra)]
        if rank_field(cols, ctx.zero(), ctx.one()) == n:
            return cols


VERTEX_PIN_CTXS = [BuildingContext.p_adic(2, 3), BuildingContext.p_adic(3, 2),
                   BuildingContext.p_adic(5, 4), CTX32]


def _vertex_pins():
    """Seeded column lists (some with a redundant column) and their contexts."""
    rng = random.Random("building-vertex-pins")
    for ctx in VERTEX_PIN_CTXS:
        for extra in (0, 0, 1, 1):
            yield _lattice_cols(rng, ctx, extra), ctx


# canonical_vertex matrices of _vertex_pins, frozen before the valuation-ring
# column reduction became one kernel
VERTEX_PINS = [
    [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]],
    [["16", "0", "4"], ["0", "4", "2"], ["0", "0", "1"]],
    [["1", "0", "0"], ["0", "4", "0"], ["0", "0", "2"]],
    [["1", "0", "0"], ["0", "4", "0"], ["0", "0", "2"]],
    [["1", "0"], ["0", "9"]],
    [["1", "2/3"], ["0", "1"]],
    [["1", "0"], ["0", "9"]],
    [["1", "0"], ["0", "3"]],
    [["625", "125", "375", "125"],
     ["0", "25", "0", "0"],
     ["0", "0", "1", "0"],
     ["0", "0", "0", "1"]],
    [["1", "0", "0", "0"],
     ["0", "25", "0", "0"],
     ["0", "0", "1", "0"],
     ["0", "0", "0", "1"]],
    [["5", "0", "0", "0"],
     ["0", "5", "0", "0"],
     ["0", "0", "25", "0"],
     ["0", "0", "0", "1"]],
    [["25", "5", "5", "0"],
     ["0", "1", "0", "0"],
     ["0", "0", "5", "0"],
     ["0", "0", "0", "1"]],
    [["1/t^3", "1/t^2", "0"], ["0", "1", "0"], ["0", "0", "1/t"]],
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    [["1/t", "0", "0"], ["0", "1", "0"], ["0", "0", "1/t"]],
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/t"]],
]


class TestPinnedVertices:
    def test_outputs(self):
        got = [[[str(x) for x in row] for row in canonical_vertex(cols, ctx).matrix]
               for cols, ctx in _vertex_pins()]
        assert got == VERTEX_PINS


class TestLabelDifference:
    def test_same_vertex(self):
        v = standard_vertex(CTX22)
        assert label_difference(v, v) == 0

    def test_index_two_edge(self):
        v1 = standard_vertex(CTX22)
        v2 = _padic_vertex(CTX22, [[1, 0], [0, Fraction(1, 2)]])
        assert label_difference(v1, v2) == 1

    def test_homothety_is_zero(self):
        ctx = BuildingContext.p_adic(2, 3)
        v1 = standard_vertex(ctx)
        v2 = canonical_vertex([[Fraction(1, 2) if i == j else Fraction(0)
                                for i in range(3)] for j in range(3)], ctx)
        assert v1 == v2
        assert label_difference(v1, v2) == 0

    @pytest.mark.parametrize("ctx", [BuildingContext.p_adic(p, n)
                                     for p in (2, 3, 5) for n in (1, 2, 3, 4)] + [CTX32],
                             ids=lambda ctx: f"{ctx.kind}-{ctx.residue_size}-{ctx.n}")
    def test_relative_exponents_are_determinantal_divisor_steps(self, ctx):
        # d_k = least valuation of a k x k minor of M1^-1 M2; the elementary
        # divisor exponents are d_k - d_{k-1}, already ascending
        rng = random.Random(f"relexp/{ctx}")
        zero, one = ctx.zero(), ctx.one()
        for _ in range(4):
            v1, v2 = (canonical_vertex(_lattice_cols(rng, ctx), ctx) for _ in range(2))
            A = matrices.matmul(inverse_field(v1.matrix, zero, one),
                                v2.matrix, zero)
            d = [0] + [min(ctx.val(x) for x in minors(
                A, k, lambda S: det_field(S, zero, one)).values())
                for k in range(1, ctx.n + 1)]
            assert relative_exponents(v1, v2) == tuple(
                d[k] - d[k - 1] for k in range(1, ctx.n + 1))

    def test_adjacency_predicate(self):
        v0 = standard_vertex(CTX32)
        for w, _ in neighbors(v0):
            assert vertices_adjacent_or_equal(v0, w)
            assert relative_exponents(v0, w)[-1] - relative_exponents(v0, w)[0] == 1


class TestChamberCounts:
    def test_examples(self):
        assert count_chambers_on_edge(2, 2, 1) == (1, True)
        assert count_chambers_on_edge(3, 2, 1) == (3, True)
        assert count_chambers_on_edge(4, 2, 2) == (9, True)

    def test_full_grid_verified(self):
        for n in range(2, 5):
            for r in (2, 3):
                for k in range(1, n):
                    count, verified = count_chambers_on_edge(n, r, k)
                    assert verified
                    assert count == count_chambers_on_edge(n, r, n - k)[0]

    def test_injective_on_folded_labels(self):
        # distinct folded label differences give distinct chamber counts
        for n in range(2, 5):
            for r in (2, 3):
                counts = [count_chambers_on_edge(n, r, k)[0]
                          for k in range(1, n // 2 + 1)]
                assert len(set(counts)) == len(counts)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            count_chambers_on_edge(3, 2, 0)
        with pytest.raises(DimensionError):
            count_chambers_on_edge(3, 2, 3)

    @pytest.mark.parametrize("r", [1, 6])
    def test_residue_size_not_a_prime_power(self, r):
        with pytest.raises(DomainError, match="is not a prime power"):
            count_chambers_on_edge(3, r, 1)

    def test_residue_size_beyond_limit(self):
        with pytest.raises(ScaleError, match=str(PRIME_POWER_LIMIT)):
            count_chambers_on_edge(3, 10 ** 30 + 57, 1)


class TestApartment:
    def test_examples(self):
        assert apartment_coords([0, 0]) == (0, 0)
        assert apartment_coords([1, 0]) == (Fraction(1, 2), Fraction(-1, 2))
        assert apartment_coords([2, 2]) == (0, 0)

    def test_empty_vector(self):
        with pytest.raises(DimensionError):
            apartment_coords([])

    def test_diagonal_invariance(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            m = [rng.randint(-5, 5) for _ in range(n)]
            lam = rng.randint(-4, 4)
            shifted = [x + lam for x in m]
            assert apartment_coords(shifted) == apartment_coords(m)

    def test_metric_coherence(self, rng):
        # apartment distance between diagonal-adjacent vertices matches the
        # edge length of their label difference, exactly on squares
        for _ in range(25):
            n = rng.randint(2, 5)
            m = [rng.randint(-3, 3) for _ in range(n)]
            step = [rng.randint(0, 1) for _ in range(n)]
            if all(s == 0 for s in step) or all(s == 1 for s in step):
                continue
            k = sum(step)
            m2 = [a + b for a, b in zip(m, step)]
            d2 = sum((a - b) ** 2 for a, b in zip(apartment_coords(m),
                                                  apartment_coords(m2)))
            assert d2 == edge_length_sq(k, n)


class TestTriangulation:
    def test_integer_point(self):
        dec = triangulate_point([3, -2])
        assert dec.points == ((3, -2),)
        assert dec.coeffs == (Fraction(1),)

    def test_two_level_point(self):
        dec = triangulate_point([Fraction(1, 2), Fraction(1, 4)])
        assert dec.points == ((0, 0), (1, 0), (1, 1))
        assert dec.coeffs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_equal_fractions_collapse(self):
        dec = triangulate_point([Fraction(1, 3), Fraction(1, 3)])
        assert dec.points == ((0, 0), (1, 1))
        assert dec.coeffs == (Fraction(2, 3), Fraction(1, 3))

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.fractions(min_value=-8, max_value=8), min_size=1, max_size=5))
    def test_reconstruction_and_invariants(self, xs):
        dec = triangulate_point(xs)
        dec.validate()
        assert dec.reconstruct() == tuple(Fraction(x) for x in xs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=2, max_size=4),
           st.integers(-3, 3))
    def test_integer_diagonal_shift(self, xs, lam):
        base = triangulate_point(xs)
        shifted = triangulate_point([Fraction(x) + lam for x in xs])
        assert shifted.coeffs == base.coeffs
        assert shifted.points == tuple(tuple(c + lam for c in p) for p in base.points)

    def test_uniqueness_rederivation(self, rng):
        # re-derive the chain from coordinate comparisons, as in the converse
        for _ in range(30):
            n = rng.randint(1, 5)
            x = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
            dec = triangulate_point(x)
            base = dec.points[0]
            frac = [xi - b for xi, b in zip(x, base)]
            levels = sorted(set(frac), reverse=True)
            expected = [tuple(int(f > lv) for f in frac) for lv in
                        ([levels[0]] + levels[1:])]
            if levels[-1] > 0:
                expected.append(tuple(1 for _ in frac))
            rebuilt = [tuple(b + e for b, e in zip(base, pt)) for pt in expected]
            assert list(dec.points) == [p for p, c in zip(rebuilt, dec.coeffs)]


class TestEdgeLength:
    def test_values(self):
        assert abs(edge_length(1, 2) - math.sqrt(0.5)) < 1e-12
        assert abs(edge_length(1, 3) - math.sqrt(2 / 3)) < 1e-12
        assert edge_length(2, 4) == 1.0

    def test_symmetry(self):
        for n in range(2, 7):
            for k in range(1, n):
                assert edge_length_sq(k, n) == edge_length_sq(n - k, n)

    def test_range_check(self):
        with pytest.raises(DimensionError):
            edge_length(0, 3)


class TestFunctionFieldVertices:
    def test_uniformizer_is_inverse_t(self):
        # scaling by t changes nothing (homothety); the residue field is F_q
        q = 2
        ctx = BuildingContext.function_field(q, 2)
        t = poly_t(q)
        one = poly_one(q)
        v0 = standard_vertex(ctx)
        scaled = canonical_vertex(
            [[FqRationalFunction.of(t), FqRationalFunction.of(poly(q, []))],
             [FqRationalFunction.of(poly(q, [])), FqRationalFunction.of(t)]], ctx)
        assert scaled == v0
        tilted = canonical_vertex(
            [[FqRationalFunction.of(one), FqRationalFunction.of(poly(q, []))],
             [FqRationalFunction.of(poly(q, [])), FqRationalFunction.of(t)]], ctx)
        assert label_difference(v0, tilted) == 1
