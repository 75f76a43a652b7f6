"""Shared random generators and reference helpers for the test suite."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from latred.errors import (DimensionError, LatredError, ProjectivityError,
                           RankDeficiencyError, ScaleError, SingularityError)
from latred.fq import FqRationalFunction, gf, poly
from latred.latff import FFOracle, FFSummand, VolumeSpace, ff_logvol, shortest_vector
from latred.latz import InnerProduct, ZSummand
from latred.logs import ExactLog
from latred import gflinalg, latz, matrices
from latred.matrices import freeze, identity_rows, shape
from latred.rings import ZZ, poly_ring


# ---------------------------------------------------------------------------
# fraction-field Gauss elimination: the reference for determinants, ranks
# and inverses that the library takes on ring rows or LDL^T pivots
# ---------------------------------------------------------------------------

def _echelon(M, zero, one):
    """Forward Gaussian elimination over a field.

    Returns (rows, pivot columns, swap parity): each column's pivot is its
    first nonzero entry at or below the next pivot row, and the entries
    below it are cleared, updating only the columns from the pivot onwards.
    Stops once every row holds a pivot.
    """
    m, n = shape(M)
    a = [list(row) for row in M]
    pivots = []
    odd = False
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col] != zero), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            odd = not odd
        inv = one / a[r][col]
        for i in range(r + 1, m):
            if a[i][col] != zero:
                f = a[i][col] * inv
                for j in range(col, n):
                    a[i][j] = a[i][j] - f * a[r][j]
        pivots.append(col)
    return a, pivots, odd


def det_field(M, zero, one):
    """Determinant over a field: the product of the echelon pivots."""
    n, m = shape(M)
    if n != m:
        raise DimensionError("determinant of a non-square matrix")
    a, pivots, odd = _echelon(M, zero, one)
    if len(pivots) < n:
        return zero
    det = math.prod((row[i] for i, row in enumerate(a)), start=one)
    return -det if odd else det


def rank_field(M, zero, one):
    return len(_echelon(M, zero, one)[1])


def inverse_field(M, zero, one):
    """Inverse by elimination on [M | I]; M is singular when a pivot lands in I."""
    n, m = shape(M)
    if n != m:
        raise DimensionError("inverse of a non-square matrix")
    ident = identity_rows(n, one, zero)
    a, pivots, _ = _echelon([row + e for row, e in zip(freeze(M), ident)], zero, one)
    if pivots != list(range(n)):
        raise SingularityError("matrix is singular")
    # back substitution: scale each pivot to 1, then clear the column above it
    for r in range(n - 1, -1, -1):
        inv = one / a[r][r]
        a[r][r:] = [x * inv for x in a[r][r:]]
        for i in range(r):
            f = a[i][r]
            if f != zero:
                a[i][r:] = [x - f * y for x, y in zip(a[i][r:], a[r][r:])]
    return freeze([row[n:] for row in a])


def rank_over_field(ring, M):
    """Rank of a ring matrix over its fraction field."""
    lifted = freeze([[ring.to_field(x) for x in row] for row in M])
    return rank_field(lifted, ring.field_zero(), ring.field_one())


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
        if rank_field(lifted, Fraction(0), Fraction(1)) == rank:
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
        if rank_over_field(ring, matrices.freeze(rows)) == rank:
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
        if det_field(matrices.freeze(A), Fraction(0), Fraction(1)) != 0:
            return matrices.freeze(A)


# ---------------------------------------------------------------------------
# constructions the tests state properties with, kept out of the library:
# rational functions by coefficients, summand images, Z_T membership, B K,
# Gaussian binomials and normalized r-vectors
# ---------------------------------------------------------------------------

def ratfunc(q, num_coeffs, den_coeffs=(1,)):
    """num / den in F_q(t), from ascending coefficient lists."""
    return FqRationalFunction(poly(q, num_coeffs), poly(q, den_coeffs))


def apply(w, phi_rows):
    """Image of a Z or F_q[t] summand under the automorphism with matrix rows
    phi: the summand spanned by basis * phi."""
    if not w.basis:
        return w
    return w._span(matrices.matmul(w.basis, freeze(phi_rows), w.ring.zero()))


def in_t_integral(ctx, x):
    """Membership in Z_T = Z[(P \\ T)^-1]: no prime of T divides the denominator."""
    ring = ctx.base_ring()
    den = matrices._num_den(ring.to_field(x))[1]
    return ring.is_unit(ctx.t_split(den)[0])


def right_multiplied(B, k_rows):
    """The integral structure B K, spanned by the columns of basis * K."""
    from latred.sarith import IntegralStructure
    ring = B.ctx.base_ring()
    K = matrices.freeze([[ring.to_field(x) for x in row] for row in k_rows])
    return IntegralStructure(B.ctx, B.n, matrices.matmul(B.basis, K, ring.field_zero()))


def count_subspaces(q, n, d):
    """Gaussian binomial coefficient [n choose d]_q."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def normalize_r_vector(r):
    """Shift by a constant so the sum lands in the window [0, n-1]."""
    n = len(r)
    k = -(sum(r) // n)
    return tuple(x + k for x in r)


def integral(ring, x):
    """The fraction-field element x as a ring element; x must be integral."""
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x.num, x.den)
    assert den == ring.one(), f"{x} is not integral"
    return num


def field_inverse_unimodular(ring, U):
    """Reference inverse of a unimodular ring matrix: Gauss-Jordan over the
    fraction field, each entry of the inverse checked to be integral."""
    lifted = matrices.freeze([[ring.to_field(x) for x in row] for row in U])
    inv = inverse_field(lifted, ring.field_zero(), ring.field_one())
    return matrices.freeze([[integral(ring, x) for x in row] for row in inv])


def solve_upper(H, R):
    """Reference X with H X = R, for H upper triangular with a nonzero diagonal:
    back substitution from the last row over the fraction field."""
    n = len(H)
    X = [None] * n
    for i in range(n - 1, -1, -1):
        row, h = list(R[i]), H[i]
        for j in range(i + 1, n):
            row = [a - h[j] * b for a, b in zip(row, X[j])]
        X[i] = tuple(a / h[i] for a in row)
    return tuple(X)


def laurent_coefficients(x, lo, hi):
    """Coefficients of t^lo .. t^hi of the expansion at infinity of a rational
    function x, ascending, by long division in descending powers of t
    (exponents may go negative)."""
    F = x.field
    if x.is_zero() or hi < lo:
        return [0] * max(hi - lo + 1, 0)
    num, den = x.num, x.den
    dd = den.degree
    out = {}
    rem = {i: c for i, c in enumerate(num.coeffs) if c}
    lead_inv = F.inv(den.leading())
    for k in range(num.degree - dd, lo - 1, -1):
        coef = F.mul(rem.get(k + dd, 0), lead_inv)
        out[k] = coef
        if coef:
            for j, dj in enumerate(den.coeffs):
                if dj:
                    rem[k + j] = F.sub(rem.get(k + j, 0), F.mul(coef, dj))
    return [out.get(k, 0) for k in range(lo, hi + 1)]


def reference_solution_space(vs, D):
    """Echelonized F_q-basis of {v in V : logvol<v> <= D}, as polynomial vectors.

    The unknowns are the coefficients of v's entries up to degree dmax, and
    S^-1 v must vanish in every Laurent degree above D; those conditions are
    read entry by entry off the F_q(t) inverse S^-1 (`matrices.inverse` on
    the basis) by long division.  Neither a diagonal basis nor the column
    reduction enters, so it is an independent probe of short vectors."""
    F = gf(vs.q)
    n = vs.n
    Hinv = matrices.inverse(poly_ring(vs.q), vs.basis)
    den, P = vs.cleared
    dmax = D + max(max(x.degree for row in P for x in row) - den.degree, 0)
    if dmax < 0:
        return []
    unknowns = [(j, d) for j in range(n) for d in range(dmax + 1)]
    base = D + 1 - dmax
    rows = []
    for h_row in Hinv:
        kmax = max(-x.nu() for x in h_row if x) + dmax
        if kmax <= D:
            continue
        coeffs = [laurent_coefficients(x, base, kmax) for x in h_row]
        for kk in range(D + 1, kmax + 1):
            row = [coeffs[j][kk - d - base] for j, d in unknowns]
            if any(row):
                rows.append(row)
    null = gflinalg.nullspace(F, rows, len(unknowns))
    width = dmax + 1
    return [tuple(poly(F, sol[j * width:(j + 1) * width]) for j in range(n))
            for sol in null]


def count_calls(monkeypatch, counts, owner, name, keyed=False):
    """Count the calls of owner.name in counts[name], or with `keyed` in
    counts[name, w] for each call's second argument w: a method's summand."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[(name, args[1]) if keyed else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def reduction_steps(monkeypatch, vs, w=None):
    """The steps of a fresh space's column reduction (`VolumeSpace._reduced`),
    or with a summand w those of `ff_logvol(vs, w)`'s: one leading-coefficient
    kernel is taken per step, and a last one finds the kernel empty."""
    calls = []
    nullspace = gflinalg.nullspace

    def counted(F, rows, ncols):
        calls.append(rows)
        return nullspace(F, rows, ncols)

    with monkeypatch.context() as inside:
        inside.setattr(gflinalg, "nullspace", counted)
        if w is None:
            vs._reduced
        else:
            ff_logvol(vs, w)
    return len(calls) - 1


def short_vector_space_dim(vs, D):
    """dim_Fq of {v in V : logvol<v> <= D}: the r-vector of a space is read
    off its jumps, and that of a summand W off the restricted space
    `sub_quotient(vs, W)[0]`."""
    return len(reference_solution_space(vs, D))


def sub_quotient(vs, w):
    """Reference restriction to a saturated summand W (or the summand its
    rows span) and quotient by it, all over F_q(t): (res, quot, cross).

    full^-T S comes by Gauss-Jordan, for `full` the unimodular completion
    of W's basis, and the unscaled valuation-ring column reduction of its
    bottom rows leaves the block basis [[A, X], [0, Q]]: `res` and `quot`
    are the volume spaces of A and Q, and `cross` is the block X.  Neither
    `matrices.column_reduce` nor a fraction-free reduction enters, so it is
    an independent probe of restricted and quotient r-vectors."""
    if not isinstance(w, FFSummand):
        w = FFSummand.from_rows(vs.q, vs.n, w)
    ring = poly_ring(vs.q)
    zero, one = ring.field_zero(), ring.field_one()
    n, m = vs.n, w.rank
    full_t = matrices.transpose(matrices.completion_rows(ring, w.basis))
    coords = matrices.matmul(
        inverse_field(freeze([[FqRationalFunction.of(x) for x in row] for row in full_t]),
                      zero, one),
        vs.basis, zero)
    cols = [list(c) for c in matrices.transpose(coords)]
    steps = matrices.dvr_column_reduce(cols, range(n - 1, m - 1, -1), FqRationalFunction.nu)
    pivots = [j for _, j, _ in reversed(steps)]
    res = [[c[i] for j, c in enumerate(cols) if j not in pivots] for i in range(m)]
    quot = [[cols[j][i] for j in pivots] for i in range(m, n)]
    return (VolumeSpace(vs.q, m, res), VolumeSpace(vs.q, n - m, quot),
            freeze([[cols[j][i] for j in pivots] for i in range(m)]))


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
    return matrices.freeze([[ring.to_field(x) / ring.to_field(den) for x in row]
                            for row in matrices.hnf(ring, scaled)])


def reference_split_hnf(ring, A, R):
    """Reference for `matrices.split_hnf`: the full Hermite form of [A | R].

    Its rows that are zero on the A block, read on the R block, are the
    canonical HNF basis of {x R : x A = 0}: the rows above them have
    independent A parts, so no combination involving them vanishes there.
    A with no columns leaves hnf(R).
    """
    k = matrices.shape(A)[1]
    H = matrices.hnf(ring, [tuple(a) + tuple(r) for a, r in zip(A, R)] if k else R)
    return matrices.freeze(h[k:] for h in H if not any(h[:k]))


def kernel(ring, M):
    """Canonical HNF basis rows of the right kernel {x : M x = 0} over the ring."""
    n = matrices.shape(M)[1]
    return matrices.split_hnf(ring, matrices.transpose(M),
                              matrices.identity_rows(n, ring.one(), ring.zero()))


def reference_hnf(ring, rows):
    """Reference Hermite form: full-row operations, a re-sorted Euclid pass."""
    work = [list(r) for r in rows]
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


def smith_saturate(ring, rows):
    """Reference saturation from a Smith form U D V: the HNF of V's first m rows."""
    rows = matrices.freeze(rows)
    if not rows:
        return ()
    m, n = matrices.shape(rows)
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
    den, zB = matrices.clear_denominators(ring, B.basis)
    U, D, _ = matrices.snf(ring, zB)
    rows = [tuple(ctx.t_split(D[i][i])[0] * u for u in col)
            for i, col in enumerate(matrices.transpose(U))]
    return ctx.t_split(den)[0], rows


def core_test_via_reps(v, reps):
    """Vertex core test by lookup of the normalized r-vector among `reps`.

    The cross-check of `covers.core_test` against `covers.core_orbit_reps`.
    """
    from latred.covers import vertex_r_vector
    return normalize_r_vector(vertex_r_vector(v)) in set(reps)


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
    den, rows = sarith._t_lattice(w.ctx, B.basis)
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
    return reference_split_hnf(ring, PK, R)


# -- pool-span summand assembly, the reference Z summand search ------------

def primitive(ring, v):
    """v divided by its content, normalized at its first nonzero entry.

    Positive there over Z, monic over F_q[t]; None for the zero vector.  Two
    vectors span the same saturated line exactly when these agree.
    """
    g = ring.zero()
    for x in v:
        g = ring.gcd(g, x)
    if not g:
        return None
    lead = next(x for x in v if x)
    g = g * ring.unit_normalize(lead)[0]
    return tuple(ring.exact_div(x, g) for x in v)


def assemble_summands(ring, n, pool, m):
    """Saturations of all rank-m spans of pool vectors in R^n, deduplicated.

    Extensions are keyed by the primitive quotient class of the new vector:
    for saturated W, saturate(W + v) only depends on the saturated line of
    v's image in R^n / W.
    """
    pool = matrices.freeze(pool)
    lines = (primitive(ring, v) for v in pool)
    level = list(dict.fromkeys((prim,) for prim in lines if prim is not None))
    for k in range(1, m):
        nxt = {}
        for rows in level:
            Uinv = field_inverse_unimodular(ring, matrices.completion_rows(ring, rows))
            coords = matrices.matmul(pool, tuple(row[k:] for row in Uinv), ring.zero())
            seen = set()
            for v, c in zip(pool, coords):
                key = primitive(ring, c)
                if key is None or key in seen:
                    continue
                seen.add(key)
                nxt[matrices.saturate(ring, list(rows) + [v])] = None
        level = list(nxt)
    return level


def shortest_norm2(s):
    """Exact minimal value of s(v,v) over nonzero integer vectors."""
    return min(latz.short_vectors(s, latz._rank_bound(s, 1)).values())


def pool_span_candidates(s, X, m, lam1):
    """Saturated rank-m spans (0 < m < n) that include every summand of vol^2 <= X.

    A rank-m summand of squared volume <= X contains m independent vectors
    of squared norm <= (4/3)^{m(m-1)/2} X / lam1^{m-1}, lam1 the squared
    length of a shortest vector; their saturated span recovers it.
    """
    R2 = Fraction(4, 3) ** (m * (m - 1) // 2) * X / (lam1 ** (m - 1) if m > 1 else 1)
    return assemble_summands(ZZ, s.n, latz.short_vectors(s, R2), m)


def pool_span_enumerate_summands(s, bound, ranks=None):
    """`latz.enumerate_summands` by saturating every rank-m span of one pool."""
    n = s.n
    X = latz._vol2_bound_from(bound)
    lam1 = None
    found = []
    for m in (range(n + 1) if ranks is None else sorted(set(ranks))):
        if m == 0:
            found.append(ZSummand.zero(n))
        elif m == n:
            if latz._lv_cmp(s.det, bound) <= 0:
                found.append(ZSummand.full(n))
        else:
            if m > 1 and lam1 is None:
                lam1 = shortest_norm2(s)
            for sat in pool_span_candidates(s, X, m, lam1):
                if latz._lv_cmp(latz.gram_vol2(s, sat), bound) <= 0:
                    found.append(ZSummand(n, sat))
    found.sort(key=lambda w: (w.rank, w.basis))
    return found


def pool_span_rank_minima(s, m):
    """`latz._rank_minima` by saturating every rank-m span of one pool."""
    n = s.n
    if m == 0:
        return [ZSummand.zero(n)], ExactLog.zero()
    if m == n:
        return [ZSummand.full(n)], ExactLog.half_log(s.det)
    lam1 = shortest_norm2(s) if m > 1 else None
    vols = {sat: latz.gram_vol2(s, sat)
            for sat in pool_span_candidates(s, latz._rank_bound(s, m), m, lam1)}
    best = min(vols.values())
    return ([ZSummand(n, sat) for sat in sorted(sat for sat, v in vols.items() if v == best)],
            ExactLog.half_log(best))


# -- brute-force F_q[t] summand enumeration --------------------------------

ENUM_SPACE_LIMIT = 1 << 13
ENUM_LINE_LIMIT = 700


def enumerate_ff_summands(vs, m, bound, r1=None):
    """All rank-m summands with logvol <= bound (complete, test scale).

    Every low-volume summand is spanned by its own diagonal vectors, whose
    log-volumes are at least the global minimum r_1; so a pool of vectors
    below `bound - (m-1) * min(r_1, ...)` generates all candidates.
    """
    n = vs.n
    bound = math.floor(bound)
    if m == 0:
        return [FFSummand.zero(vs.q, n)]
    ring = poly_ring(vs.q)
    if m == n:
        return [FFSummand.full(vs.q, n)] if vs.logvol <= bound else []
    if r1 is None:
        r1 = shortest_vector(vs)[1]
    if m * r1 > bound:  # every rank-m volume is at least m * r1
        return []
    pool_bound = bound - (m - 1) * min(r1, 0) if m > 1 else bound
    space = reference_solution_space(vs, pool_bound)
    vectors = _projective_points(vs.q, space, ring)
    if len(vectors) > ENUM_LINE_LIMIT:
        raise ScaleError(f"{len(vectors)} candidate lines exceed the limit {ENUM_LINE_LIMIT}")
    spans = assemble_summands(ring, n, vectors, m)
    out = [FFSummand(vs.q, n, sat) for sat in spans if ff_logvol(vs, sat) <= bound]
    out.sort(key=lambda w: tuple(tuple(str(x) for x in row) for row in w.basis))
    return out


def _projective_points(q, basis, ring):
    """Nonzero F_q-combinations of the basis, one per scalar class."""
    if not basis:
        return []
    F = gf(q)
    k = len(basis)
    if q ** k > ENUM_SPACE_LIMIT:
        raise ScaleError(f"short-vector space of {q ** k} vectors exceeds the limit "
                         f"{ENUM_SPACE_LIMIT}")
    n = len(basis[0])
    seen = []
    for coeffs in itertools.product(range(q), repeat=k):
        first = next((c for c in coeffs if c), None)
        if first != 1:  # one representative per projective class
            continue
        vec = [ring.zero()] * n
        for c, row in zip(coeffs, basis):
            if c:
                for j in range(n):
                    vec[j] = vec[j] + row[j] * poly(F, [c])
        seen.append(tuple(vec))
    return seen


class BruteFFOracle(FFOracle):
    """FFOracle whose rank minima come from one complete enumeration.

    The diagonal basis only bounds the search; the minimum and every one of
    its witnesses come from `enumerate_ff_summands`.
    """

    def rank_minima(self, m):
        r = self.diag.r
        cands = enumerate_ff_summands(self.vs, m, sum(r[:m]), r1=r[0])
        vals = [self.logvol(h) for h in cands]
        best = min(vals)
        return [h for h, v in zip(cands, vals) if v == best], best
