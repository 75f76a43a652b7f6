"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
All comparisons are exact unless a tolerance is stated in the criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from latred import matrices
from latred.building import (BuildingContext, canonical_vertex,
                             count_chambers_on_edge, neighbors,
                             triangulate_point)
from latred.covers import (CoverSystem, core_orbit_reps, core_test,
                           cover_membership, normalize_r_vector,
                           vertex_r_vector, vertex_volume_space)
from latred.filtration import GradedPoint, canonical_plot
from latred.latff import (diagonal_basis, ff_logvol, instability_ff,
                          short_vector_space_dim, sub_quotient)
from latred.latz import gram_logvol, gram_vol2, instability_z, spd_distance
from latred.rings import ZZ, poly_ring
from latred.sarith import (IntegralStructure, LocalizedContext, LocSummand,
                           factorize, loc_c, span_localized)

from conftest import (core_test_via_reps, det_field, fractional_hnf, random_ff_summand,
                      random_invertible_rational, random_spd, random_volume_space,
                      random_z_summand, rank_field)


def _report(number, name, detail, elapsed):
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_01_canonical_plot_reproduction():
    values = [Fraction(0), Fraction(-3, 2), Fraction(-2), Fraction(-7, 2),
              Fraction(-37, 10), Fraction(-3), Fraction(-3, 2), Fraction(0)]
    points = [GradedPoint(i, i, v) for i, v in enumerate(values)]
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        rep = canonical_plot(points, 7)
        best = min(best, time.perf_counter() - t0)
    assert rep.path_ranks() == (0, 1, 3, 4, 5, 7)
    assert best < 1e-3
    _report(1, "canonical plot reproduction",
            f"vertices {rep.path_ranks()}, best run {best * 1e6:.0f}us", best)


def _r_probe(vs):
    """Diagonal exponents read off solution-space dimension jumps."""
    n = vs.n
    ring = poly_ring(vs.q)
    total = ff_logvol(vs, matrices.identity_rows(n, ring.one(), ring.zero()))
    cache = {}

    def dim(D):
        if D not in cache:
            cache[D] = short_vector_space_dim(vs, D)
        return cache[D]

    D = total // n
    while dim(D) > 0:
        D -= 1
    out = []
    prev = 0
    while len(out) < n:
        D += 1
        count = dim(D) - dim(D - 1)
        out.extend([D] * (count - prev))
        prev = count
    return tuple(out)


def _independent_instability(vs, w):
    """Def-of-c minimum over per-rank minima found by dimension probes."""
    n = vs.n
    m = w.rank
    sq = sub_quotient(vs, w)
    rho = _r_probe(sq.res)
    lv_w = Fraction(sum(rho))
    sigma = _r_probe(sq.quot)
    incoming = max((lv_w - Fraction(sum(rho[:k]))) / (m - k) for k in range(m))
    outgoing = min(Fraction(sum(sigma[:k - m])) / (k - m)
                   for k in range(m + 1, n + 1))
    return outgoing - incoming


def test_criterion_02_orbit_invariant_identity():
    rng = random.Random(11)
    t0 = time.time()
    instances = 500
    checked_breaks = 0
    for _ in range(instances):
        n = rng.choice([2, 2, 3, 3, 4])
        vs = random_volume_space(rng, 2, n, maxdeg=4)
        diag = diagonal_basis(vs)
        diag.validate()  # w_i = t^{r_i} b_i, r ascending, sum = logvol(V)
        r = diag.r
        for m in range(1, n):
            if r[m] > r[m - 1]:
                w = diag.chain_summand(m)
                c_indep = _independent_instability(vs, w)
                assert c_indep == r[m] - r[m - 1]
                checked_breaks += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(2, "orbit-invariant identity",
            f"{instances} spaces, {checked_breaks} chain breaks", elapsed)


def test_criterion_03_subadditivity_suites():
    rng = random.Random(13)
    t0 = time.time()
    for _ in range(1000):
        n = rng.randint(2, 4)
        s = random_spd(rng, n, spread=1)
        a = random_z_summand(rng, n, rng.randint(1, n - 1), spread=2)
        b = random_z_summand(rng, n, rng.randint(1, n - 1), spread=2)
        meet, join = a.meet(b), a.join(b)
        lhs = gram_vol2(s, meet.basis) * gram_vol2(s, join.basis)
        rhs = gram_vol2(s, a.basis) * gram_vol2(s, b.basis)
        assert lhs <= rhs  # exact squared-volume comparison
    z_done = time.time()
    for _ in range(1000):
        n = rng.randint(2, 4)
        vs = random_volume_space(rng, 2, n, maxdeg=1)
        a = random_ff_summand(rng, 2, n, rng.randint(1, n - 1), maxdeg=1)
        b = random_ff_summand(rng, 2, n, rng.randint(1, n - 1), maxdeg=1)
        meet, join = a.meet(b), a.join(b)
        assert ff_logvol(vs, meet) + ff_logvol(vs, join) <= \
            ff_logvol(vs, a) + ff_logvol(vs, b)
    elapsed = time.time() - t0
    _report(3, "subadditivity suites",
            f"1000 integer pairs ({z_done - t0:.1f}s) + 1000 F2[t] pairs", elapsed)


def test_criterion_04_incomparability_exclusion():
    rng = random.Random(17)
    t0 = time.time()
    ff_checked = 0
    while ff_checked < 700:
        n = 3
        vs = random_volume_space(rng, 2, n, maxdeg=1)
        m = rng.randint(1, 2)
        a = random_ff_summand(rng, 2, n, m, maxdeg=1)
        b = random_ff_summand(rng, 2, n, m, maxdeg=1)
        if a == b:
            continue
        ff_checked += 1
        assert not (instability_ff(vs, a) > 0 and instability_ff(vs, b) > 0)
    z_checked = 0
    while z_checked < 300:
        n = 3
        s = random_spd(rng, n, spread=1)
        m = rng.randint(1, 2)
        a = random_z_summand(rng, n, m, spread=2)
        b = random_z_summand(rng, n, m, spread=2)
        if a == b:
            continue
        z_checked += 1
        ca, cb = instability_z(s, a), instability_z(s, b)
        assert not (ca.sign() > 0 and cb.sign() > 0)
    elapsed = time.time() - t0
    _report(4, "incomparability exclusion",
            f"{ff_checked} F2[t] + {z_checked} integer same-rank pairs", elapsed)


def test_criterion_05_chamber_count_formula():
    t0 = time.time()
    table = {}
    for n in range(2, 5):
        for r in (2, 3):
            for k in range(1, n):
                count, verified = count_chambers_on_edge(n, r, k)
                assert verified
                table[(n, r, k)] = count
    assert table[(3, 2, 1)] == 3
    assert table[(4, 2, 2)] == 9
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(5, "chamber-count formula", f"{len(table)} (n,r,k) cells verified",
            elapsed)


def test_criterion_06_factorization():
    rng = random.Random(19)
    ctx = LocalizedContext.integers([2, 3])
    t0 = time.time()
    for _ in range(100):
        n = rng.randint(1, 4)
        A = random_invertible_rational(rng, n, num_max=50, den_max=50)
        Bm, Cm = factorize(A, ctx)
        assert matrices.matmul(Bm, Cm, Fraction(0)) == A
        assert all(ctx.in_t_inverted(x) for row in Bm for x in row)
        assert all(ctx.in_t_integral(x) for row in Cm for x in row)
        dB = det_field(Bm, Fraction(0), Fraction(1))
        dC = det_field(Cm, Fraction(0), Fraction(1))
        assert ctx.in_t_inverted(dB) and ctx.in_t_inverted(1 / dB)
        assert ctx.in_t_integral(dC) and ctx.in_t_integral(1 / dC)
    sl_count = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        A = [list(r) for r in matrices.identity_rows(n, Fraction(1), Fraction(0))]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                for k in range(n):
                    A[i][k] += c * A[j][k]
        Bm, Cm = factorize(matrices.freeze(A), ctx, mode="SL")
        assert det_field(Bm, Fraction(0), Fraction(1)) == 1
        assert det_field(Cm, Fraction(0), Fraction(1)) == 1
        assert matrices.matmul(Bm, Cm, Fraction(0)) == matrices.freeze(A)
        sl_count += 1
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(6, "matrix factorization", f"100 GL + {sl_count} SL instances", elapsed)


def test_criterion_07_triangulation():
    rng = random.Random(23)
    t0 = time.time()
    for _ in range(1000):
        n = rng.randint(1, 5)
        x = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
        dec = triangulate_point(x)
        dec.validate()
        assert dec.reconstruct() == tuple(x)
        # uniqueness re-derivation from coordinate comparisons
        base = dec.points[0]
        frac = [xi - b for xi, b in zip(x, base)]
        levels = sorted(set(frac), reverse=True)
        expected = [tuple(int(f > lv) for f in frac) for lv in levels]
        if levels[-1] > 0:
            expected.append(tuple(1 for _ in frac))
        rebuilt = tuple(tuple(b + e for b, e in zip(base, pt)) for pt in expected)
        assert dec.points == rebuilt
        # diagonal-shift coherence
        lam = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        shifted = triangulate_point([xi + lam for xi in x])
        shifted.validate()
        mean = lambda p: sum(p) / len(p)  # noqa: E731
        pr = lambda p: tuple(c - mean(p) for c in p)  # noqa: E731
        assert pr(shifted.reconstruct()) == pr(tuple(x))
        if lam.denominator == 1:
            assert shifted.coeffs == dec.coeffs
            assert shifted.points == tuple(tuple(c + lam for c in p)
                                           for p in dec.points)
    elapsed = time.time() - t0
    _report(7, "triangulation", "1000 points, n <= 5, exact", elapsed)


def test_criterion_08_lipschitz_bounds():
    rng = random.Random(29)
    t0 = time.time()
    n, q = 3, 2
    ctx = BuildingContext.function_field(q, n)
    bound = 4 * n
    sem = CoverSystem.semistability(n)
    pairs = 0
    for _ in range(50):
        vs0 = random_volume_space(rng, q, n, maxdeg=2)
        cols = [[vs0.basis[i][j] for i in range(n)] for j in range(n)]
        v = canonical_vertex(cols, ctx)
        space_v = vertex_volume_space(v)
        candidates = {w.basis: w for w in cover_membership(space_v, sem)}
        c_at_v = {}
        for w2, _d in neighbors(v):
            space_w = vertex_volume_space(w2)
            for cw in cover_membership(space_w, sem):
                candidates.setdefault(cw.basis, cw)
            for cand in candidates.values():
                if cand.basis not in c_at_v:
                    c_at_v[cand.basis] = instability_ff(space_v, cand)
                gap = abs(c_at_v[cand.basis] - instability_ff(space_w, cand))
                assert gap <= bound  # exact integers
                pairs += 1
    ff_done = time.time()
    numeric = 0
    for _ in range(200):
        s1 = random_spd(rng, n, spread=2)
        s2 = random_spd(rng, n, spread=2)
        w = random_z_summand(rng, n, rng.randint(1, n))
        d = spd_distance(s1, s2)
        gap = abs(gram_logvol(s1, w).to_float() - gram_logvol(s2, w).to_float())
        assert gap <= n * d + 1e-6
        numeric += 1
    elapsed = time.time() - t0
    _report(8, "Lipschitz bounds",
            f"{pairs} adjacent-vertex checks ({ff_done - t0:.1f}s) + "
            f"{numeric} numeric volume pairs", elapsed)


def test_criterion_09_scaling_invariance():
    rng = random.Random(31)
    t0 = time.time()
    ctx_z = LocalizedContext.integers([2, 3])
    done = 0
    for _ in range(100):
        n = 2
        s = random_spd(rng, n, spread=1)
        B = IntegralStructure(ctx_z, n, random_invertible_rational(rng, n, 3, 3))
        w = span_localized(ctx_z, n, random_z_summand(rng, n, 1, spread=2).basis)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        p = rng.choice([2, 3])
        c0 = loc_c(w, s, B)
        c1 = loc_c(w, s.scaled(lam), B.scaled(p))
        assert (c0 - c1).is_zero()
        done += 1
    t_mid = time.time()
    q = 2
    tpoly = poly_ring(q).to_field(poly_ring(q).one())
    from latred.fq import poly_t
    t_prime = poly_t(q)
    ctx_ff = LocalizedContext.function_field(q, [t_prime])
    from conftest import random_ratfunc
    for _ in range(100):
        n = 2
        vs = random_volume_space(rng, q, n, maxdeg=1)
        B = IntegralStructure.standard(ctx_ff, n)
        w = None
        while w is None:
            try:
                cand = random_ff_summand(rng, q, n, 1, maxdeg=1)
                w = LocSummand.from_rows(ctx_ff, n, cand.basis)
            except Exception:
                w = None
        lam = random_ratfunc(rng, q, 2)
        if lam.is_zero():
            lam = tpoly
        c0 = loc_c(w, vs, B)
        c1 = loc_c(w, vs.scaled(lam), B.scaled(t_prime))
        assert c0 == c1
        done += 1
    elapsed = time.time() - t0
    _report(9, "scaling invariance",
            f"{done} localized instances ({t_mid - t0:.1f}s integer side)", elapsed)


def test_criterion_10_poset_isomorphism():
    rng = random.Random(37)
    t0 = time.time()
    from latred.sarith import intersect_integral
    ctx = LocalizedContext.integers([2, 3])
    instances = 0
    for _ in range(100):
        n = 3
        B = IntegralStructure(ctx, n, random_invertible_rational(rng, n, 4, 4))
        # an exhaustive small poset: distinct lines from a small box and all
        # rank-2 joins of pairs
        lines = []
        seen = set()
        for vec in itertools.product(range(-1, 2), repeat=n):
            if not any(vec):
                continue
            w = span_localized(ctx, n, [list(vec)])
            if w.basis not in seen:
                seen.add(w.basis)
                lines.append(w)
        planes = {}
        for a, b in itertools.combinations(lines, 2):
            j = a.join(b)
            if j.rank == 2:
                planes[j.basis] = j
        family = lines + list(planes.values())
        images = {}
        for w in family:
            img = matrices.freeze(intersect_integral(w, B))
            assert len(img) == w.rank
            assert span_localized(ctx, n, img) == w  # two-sided inverse
            images[w.basis] = img
        assert len(set(images.values())) == len(family)  # bijective onto image
        for a, b in itertools.combinations(lines, 2):
            meet = a.meet(b)
            join = a.join(b)
            ia, ib = images[a.basis], images[b.basis]
            inter = _rational_intersect(ia, ib)
            expect_meet = matrices.freeze(intersect_integral(meet, B)) \
                if meet.rank else ()
            assert matrices.freeze(inter) == expect_meet
            join_img = matrices.freeze(intersect_integral(join, B))
            hull_rows = list(ia) + list(ib)
            stacked = matrices.freeze([[Fraction(x) for x in row]
                                       for row in hull_rows + list(join_img)])
            assert rank_field(stacked, Fraction(0), Fraction(1)) == \
                len(join_img)
        instances += 1
    elapsed = time.time() - t0
    _report(10, "poset isomorphism", f"{instances} (W family, B) instances",
            elapsed)


def _rational_intersect(A, B):
    denom = 1
    for row in list(A) + list(B):
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    Ai = [[int(x * denom) for x in row] for row in A]
    Bi = [[int(x * denom) for x in row] for row in B]
    inter = matrices.lattice_intersect(ZZ, Ai, Bi)
    return fractional_hnf(ZZ, [[Fraction(x, denom) for x in row] for row in inter])


def test_criterion_11_core_classification():
    rng = random.Random(41)
    t0 = time.time()
    assert core_orbit_reps(2, 1) == [(0, 0), (0, 1)]
    ctx = BuildingContext.function_field(2, 2)
    sys1 = CoverSystem(2, Fraction(1))
    reps = core_orbit_reps(2, 1)
    agree = 0
    for _ in range(200):
        vs = random_volume_space(rng, 2, 2, maxdeg=2)
        cols = [[vs.basis[i][j] for i in range(2)] for j in range(2)]
        v = canonical_vertex(cols, ctx)
        assert core_test(v, sys1) == core_test_via_reps(v, reps)
        assert core_test(v, sys1) == \
            (normalize_r_vector(vertex_r_vector(v)) in set(reps))
        agree += 1
    elapsed = time.time() - t0
    _report(11, "core classification",
            f"reps {{(0,0),(0,1)}} exact + {agree} vertex agreements", elapsed)
