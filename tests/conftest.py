"""Shared random generators and reference helpers for the test suite."""

import itertools
import random
from fractions import Fraction

import pytest

from latred.errors import (DimensionError, LatredError, ProjectivityError,
                           RankDeficiencyError)
from latred.fq import FqRationalFunction, poly
from latred.latff import FFSummand, VolumeSpace
from latred.latz import InnerProduct, ZSummand
from latred import matrices
from latred.rings import ZZ, poly_ring


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_spd(rng, n, spread=2):
    """Exact SPD Gram matrix A^T A + I with small integer A."""
    while True:
        A = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        gram = [[Fraction(sum(A[k][i] * A[k][j] for k in range(n)) + (i == j))
                 for j in range(n)] for i in range(n)]
        try:
            return InnerProduct(n, gram)
        except LatredError:  # pragma: no cover - the +I shift keeps it SPD
            continue


def random_z_summand(rng, n, rank, spread=3):
    while True:
        rows = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(rank)]
        lifted = matrices.freeze([[Fraction(x) for x in r] for r in rows])
        if matrices.rank_field(lifted, Fraction(0), Fraction(1)) == rank:
            return ZSummand.from_rows(n, rows)


def random_unimodular_z(rng, n, steps=6, spread=2):
    g = [list(r) for r in matrices.identity_rows(n, 1, 0)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-spread, spread)
            for k in range(n):
                g[i][k] += c * g[j][k]
    return matrices.freeze(g)


def random_poly(rng, q, maxdeg):
    return poly(q, [rng.randrange(q) for _ in range(rng.randint(1, maxdeg + 1))])


def random_ratfunc(rng, q, maxdeg):
    num = random_poly(rng, q, maxdeg)
    while True:
        den = random_poly(rng, q, maxdeg)
        if not den.is_zero():
            return FqRationalFunction(num, den)


def random_volume_space(rng, q, n, maxdeg=2):
    """Random lattice basis with entry degrees bounded by maxdeg (num and den)."""
    ring = poly_ring(q)
    while True:
        rows = [[random_ratfunc(rng, q, maxdeg) if rng.random() < 0.85
                 else ring.field_zero() for _ in range(n)] for _ in range(n)]
        try:
            return VolumeSpace(q, n, rows)
        except LatredError:
            continue


def random_ff_summand(rng, q, n, rank, maxdeg=2):
    ring = poly_ring(q)
    while True:
        rows = [[random_poly(rng, q, maxdeg) if rng.random() < 0.8 else ring.zero()
                 for _ in range(n)] for _ in range(rank)]
        if matrices.rank_over_field(ring, matrices.freeze(rows)) == rank:
            return FFSummand.from_rows(q, n, rows)


def random_unimodular_poly(rng, q, n, steps=5, maxdeg=1):
    ring = poly_ring(q)
    g = [list(r) for r in matrices.identity_rows(n, ring.one(), ring.zero())]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = random_poly(rng, q, maxdeg)
            for k in range(n):
                g[i][k] = g[i][k] + c * g[j][k]
    return matrices.freeze(g)


def random_invertible_rational(rng, n, num_max=9, den_max=9):
    while True:
        A = [[Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
              for _ in range(n)] for _ in range(n)]
        if matrices.det_field(matrices.freeze(A), Fraction(0), Fraction(1)) != 0:
            return matrices.freeze(A)


def minors(M, m, det):
    """All m x m minors keyed by 1-based index tuples in lexicographic order.

    When the matrix has exactly m rows the keys are column subsets; otherwise
    each key is the concatenated (row subset, column subset) tuple.
    """
    nrows, ncols = matrices.shape(M)
    if m < 1 or m > min(nrows, ncols):
        raise DimensionError(f"minor order {m} out of range for {nrows}x{ncols}")
    out = {}
    row_sets = ([tuple(range(nrows))] if nrows == m
                else list(itertools.combinations(range(nrows), m)))
    col_sets = list(itertools.combinations(range(ncols), m))
    for rs in row_sets:
        for cs in col_sets:
            sub = matrices.freeze([[M[i][j] for j in cs] for i in rs])
            key = (tuple(c + 1 for c in cs) if nrows == m
                   else tuple(r + 1 for r in rs) + tuple(c + 1 for c in cs))
            out[key] = det(sub)
    return out


def fractional_hnf(ring, rows):
    """Canonical HNF of a lattice given by fraction-field rows.

    Scales by a common denominator, runs the integral HNF, and scales back;
    canonical because the HNF commutes with normalized scalar scaling.
    """
    if not rows:
        return ()
    den, scaled = matrices.clear_denominators(ring, matrices.freeze(rows))
    return matrices.freeze([[ring.to_field(x) / den for x in row]
                            for row in matrices.hnf(ring, scaled)])


def kernel(ring, M):
    """Canonical HNF basis rows of the right kernel {x : M x = 0} over the ring."""
    n = matrices.shape(M)[1]
    return matrices.split_hnf(ring, matrices.transpose(M),
                              matrices.identity_rows(n, ring.one(), ring.zero()))


def reference_hnf(ring, rows, ncols=None):
    """Reference Hermite form: full-row operations, a re-sorted Euclid pass."""
    work = [list(r) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    nrows = len(work)
    pivot_row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pivot_row, nrows) if work[i][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: ring.norm_key(work[i][col]))
            base = nz[0]
            for i in nz[1:]:
                q = work[i][col] // work[base][col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[base])]
                else:
                    work[i], work[base] = work[base], work[i]
                    base = i
        nz = [i for i in range(pivot_row, nrows) if work[i][col]]
        if not nz:
            continue
        i0 = nz[0]
        work[pivot_row], work[i0] = work[i0], work[pivot_row]
        unit, normalized = ring.unit_normalize(work[pivot_row][col])
        if normalized != work[pivot_row][col]:
            inv = matrices._unit_inverse(unit)
            work[pivot_row] = [inv * x for x in work[pivot_row]]
        piv = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // piv
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
        pivot_row += 1
    return matrices.freeze(work[:pivot_row])


def reference_column_echelon(ring, M):
    """Reference (rank, T, V) of `matrices._column_echelon`, updating zero entries too."""
    m, n = matrices.shape(M)
    D = [list(r) for r in M]
    V = [list(r) for r in matrices.identity_rows(n, ring.one(), ring.zero())]
    k = 0
    for i in range(m):
        row, below = D[i], D[i:]
        while True:
            nz = [j for j in range(k, n) if row[j]]
            if not nz:
                break
            p = min(nz, key=lambda j: ring.norm_key(row[j]))
            if p != k:
                for r in below:
                    r[k], r[p] = r[p], r[k]
                V[k], V[p] = V[p], V[k]
            if len(nz) == 1:
                k += 1
                break
            piv = row[k]
            for j in range(k + 1, n):
                if row[j]:
                    q = row[j] // piv
                    for r in below:
                        r[j] = r[j] - q * r[k]
                    V[k] = [a + q * b for a, b in zip(V[k], V[j])]
    return k, matrices.freeze(r[:k] for r in D), matrices.freeze(V)


def smith_saturate(ring, rows, ncols=None):
    """Reference saturation from a Smith form U D V: the HNF of V's first m rows."""
    rows = matrices.freeze(rows)
    if not rows:
        return ()
    m, n = matrices.shape(rows)
    if ncols is not None and ncols != n:
        raise DimensionError("ambient rank mismatch")
    _, D, V = matrices.snf(ring, rows)
    if sum(1 for i in range(min(m, n)) if D[i][i]) != m:
        raise RankDeficiencyError("rows are dependent over the fraction field")
    return matrices.hnf(ring, V[:m])


def smith_completion_rows(ring, rows):
    """Reference completion from a Smith form U D V: the rows, then V[m:]."""
    rows = matrices.freeze(rows)
    m = len(rows)
    _, D, V = matrices.snf(ring, rows)
    for i in range(m):
        if not ring.is_unit(D[i][i]):
            raise ProjectivityError("rows do not span a direct summand")
    return matrices.stack(rows, V[m:])


def snf_t_lattice(ctx, B):
    """Reference (den, rows) for Z[T^-1]^n cap B from a Smith form.

    Takes the Smith form U D V of B's cleared basis: row i is the T-part of
    D_ii times column i of U, and den is the T-part of the cleared
    denominator, as a ring element, so the lattice is the Z-span of
    rows / den.
    """
    ring = ctx.base_ring()
    denf, zB = matrices.clear_denominators(ring, B.basis)
    U, D, _ = matrices.snf(ring, zB)
    rows = [tuple(ctx.t_split(D[i][i])[0] * u for u in col)
            for i, col in enumerate(matrices.transpose(U))]
    den = denf.numerator if isinstance(denf, Fraction) else denf.num
    return ctx.t_split(den)[0], rows


def uncached_intersect_integral(w, B):
    """Reference W cap B, rebuilt from B's basis on every call.

    Meets W cap Z^n with the 2n raw generators of `sarith._t_lattice`
    (B's cleared columns mod c and c I), not with the n-row Hermite form
    B stores, and divides by the T-part denominator one field division per
    entry.
    """
    from latred import sarith
    if w.is_zero():
        return ()
    ring = w.ring
    det = matrices.det_field(B.basis, ring.field_zero(), ring.field_one())
    den, rows = sarith._t_lattice(w.ctx, B.basis, det)
    den = ring.to_field(den)
    return matrices.freeze([[ring.to_field(x) / den for x in row]
                            for row in matrices.lattice_intersect(ring, rows, w.basis)])


def field_kernel(M, zero, one):
    """Basis rows of the right kernel of M over a field, by Gauss-Jordan elimination."""
    n = matrices.shape(M)[1]
    a = [list(row) for row in M]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != zero), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = one / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != zero:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [zero] * n
        v[j] = one
        for r, col in enumerate(pivots):
            v[col] = -a[r][j]
        basis.append(tuple(v))
    return matrices.freeze(basis)


def span_meet(ring, W, P, R):
    """Reference Hermite basis of {x R : x P in the Q-span of the rows W}.

    x P lies in the span exactly when x P K^T = 0, for K the annihilator of
    the span over the fraction field, cleared of its denominators.
    """
    lifted = matrices.freeze([[ring.to_field(x) for x in row] for row in W])
    K = field_kernel(lifted, ring.field_zero(), ring.field_one())
    _, Kz = matrices.clear_denominators(ring, K)
    PK = matrices.matmul(P, matrices.transpose(Kz), ring.zero())
    return matrices.split_hnf(ring, PK, R)
