"""Exact matrix algebra over Z, F_q[t] and their fraction fields.

Matrices are immutable tuples of row tuples, and entries are added,
multiplied and divided with the operators.  Algorithms that need more ring
structure (Hermite/Smith forms, kernels, saturation) take one of the ring
objects from `rings` for its units, norm and gcd.  The fraction-field
routines (determinant, rank, inverse) work on Fraction /
FqRationalFunction entries directly and share one forward elimination.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import (DimensionError, DomainError, RankDeficiencyError,
                     SingularityError)


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def shape(M):
    return len(M), len(M[0]) if M else 0


def identity_rows(n, one, zero):
    return freeze([[one if i == j else zero for j in range(n)] for i in range(n)])


def transpose(M):
    return tuple(zip(*M)) if M else ()


def matmul(A, B, zero):
    if not A or not B:
        return ()
    n = len(B)
    if len(A[0]) != n:
        raise DimensionError("matmul shape mismatch")
    Bt = transpose(B)
    out = []
    for row in A:
        out_row = []
        for col in Bt:
            acc = zero
            for a, b in zip(row, col):
                acc = acc + a * b
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def stack(A, B):
    return tuple(A) + tuple(B)


# ---------------------------------------------------------------------------
# fraction-field linear algebra: one forward elimination
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


# ---------------------------------------------------------------------------
# Hermite normal form (row style, canonical)
# ---------------------------------------------------------------------------

def hnf(ring, rows, ncols=None):
    """Canonical row echelon form over a Euclidean domain.

    Pivots are the leading entries of their rows, normalized (positive /
    monic), with strictly increasing pivot columns and entries above each
    pivot reduced modulo it.  Zero rows are dropped, so the result is the
    canonical basis of the row module.
    """
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
        if not ring.is_unit(unit):
            raise DomainError("unit normalization failed")  # pragma: no cover
        if normalized != work[pivot_row][col]:
            inv = _unit_inverse(unit)
            work[pivot_row] = [inv * x for x in work[pivot_row]]
        piv = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // piv
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
        pivot_row += 1
    return freeze(work[:pivot_row])


def _unit_inverse(u):
    # units of Z are +-1; units of F_q[t] are the nonzero constants
    from .fq import FqPolynomial, poly
    if isinstance(u, int):
        return u
    if isinstance(u, FqPolynomial):
        return poly(u.field, [u.field.inv(u.leading())])
    raise DomainError(f"cannot invert unit {u!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Smith normal form with unimodular transforms
# ---------------------------------------------------------------------------

class _SNFState:
    def __init__(self, ring, M):
        m, n = shape(M)
        one, zero = ring.one(), ring.zero()
        self.D = [list(r) for r in M]
        self.U = [list(r) for r in identity_rows(m, one, zero)]
        self.V = [list(r) for r in identity_rows(n, one, zero)]
        self.m, self.n = m, n

    # maintain U*D*V = M
    def swap_rows(self, i, j):
        self.D[i], self.D[j] = self.D[j], self.D[i]
        for row in self.U:
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, i, j):
        for row in self.D:
            row[i], row[j] = row[j], row[i]
        self.V[i], self.V[j] = self.V[j], self.V[i]

    def row_sub(self, i, j, q):
        """row_i -= q * row_j on D."""
        self.D[i] = [a - q * b for a, b in zip(self.D[i], self.D[j])]
        for row in self.U:
            row[j] = row[j] + q * row[i]

    def col_sub(self, i, j, q):
        """col_i -= q * col_j on D."""
        for row in self.D:
            row[i] = row[i] - q * row[j]
        self.V[j] = [a + q * b for a, b in zip(self.V[j], self.V[i])]

    def scale_row(self, i, unit):
        """row_i *= unit on D (unit invertible)."""
        inv = _unit_inverse(unit)
        self.D[i] = [unit * x for x in self.D[i]]
        for row in self.U:
            row[i] = row[i] * inv


def snf(ring, M):
    """Smith normal form: returns (U, D, V) with U*D*V = M exactly.

    U and V are unimodular over the ring; D is diagonal with each diagonal
    entry normalized and dividing the next.
    """
    st = _SNFState(ring, M)
    m, n = st.m, st.n
    k = 0
    while k < min(m, n):
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if st.D[i][j]:
                    key = ring.norm_key(st.D[i][j])
                    if best is None or key < best:
                        best = key
                        piv = (i, j)
        if piv is None:
            break
        st.swap_rows(k, piv[0])
        st.swap_cols(k, piv[1])
        dirty = False
        for i in range(k + 1, m):
            if st.D[i][k]:
                q, r = divmod(st.D[i][k], st.D[k][k])
                st.row_sub(i, k, q)
                if r:
                    dirty = True
        for j in range(k + 1, n):
            if st.D[k][j]:
                q, r = divmod(st.D[k][j], st.D[k][k])
                st.col_sub(j, k, q)
                if r:
                    dirty = True
        if dirty:
            continue
        # divisibility: D[k][k] must divide every remaining entry
        fix = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if st.D[i][j] and st.D[i][j] % st.D[k][k]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            st.row_sub(k, fix, -ring.one())  # add row `fix` to row k
            continue
        k += 1
    for i in range(min(m, n)):
        if st.D[i][i]:
            unit, norm = ring.unit_normalize(st.D[i][i])
            if norm != st.D[i][i]:
                st.scale_row(i, _unit_inverse(unit))
    return freeze(st.U), freeze(st.D), freeze(st.V)


def split_hnf(ring, A, R):
    """Canonical HNF basis of the row module {x R : x A = 0}.

    A and R have one row per generator.  These are the rows of hnf([A | R])
    that are zero on the A block, read on the R block: the rows above them
    have independent A parts, so no combination involving them vanishes
    there.  A with no columns leaves hnf(R).
    """
    k = shape(A)[1]
    H = hnf(ring, [tuple(a) + tuple(r) for a, r in zip(A, R)] if k else R)
    return freeze(h[k:] for h in H if not any(h[:k]))


def kernel(ring, M):
    """Canonical HNF basis rows of the right kernel {x : M x = 0} over the ring."""
    n = shape(M)[1]
    return split_hnf(ring, transpose(M), identity_rows(n, ring.one(), ring.zero()))


def rank_over_field(ring, M):
    """Rank of a ring matrix over its fraction field."""
    lifted = freeze([[ring.to_field(x) for x in row] for row in M])
    return rank_field(lifted, ring.field_zero(), ring.field_one())


def inverse_unimodular(ring, U):
    """Inverse of a unimodular ring matrix, with integral entries."""
    lifted = freeze([[ring.to_field(x) for x in row] for row in U])
    inv = inverse_field(lifted, ring.field_zero(), ring.field_one())
    return freeze([[ring.from_field(x) for x in row] for row in inv])


def saturate(ring, rows, ncols=None):
    """Basis (in HNF) of the saturation of the row span inside the free module.

    The saturation is the smallest direct summand containing the row span;
    rows must be independent over the fraction field.
    """
    rows = freeze(rows)
    if not rows:
        return ()
    m, n = shape(rows)
    if ncols is not None and ncols != n:
        raise DimensionError("ambient rank mismatch")
    _, D, V = snf(ring, rows)
    rank = sum(1 for i in range(min(m, n)) if D[i][i])
    if rank != m:
        raise RankDeficiencyError("rows are dependent over the fraction field")
    return hnf(ring, V[:m])


def clear_denominators(ring, rows):
    """(den, den * rows) for fraction-field rows: the ring rows they scale to.

    `den` is the normalized lcm of the entries' denominators, as a
    fraction-field element.  An entry num/d becomes num * (den // d), so no
    fraction-field product is formed.
    """
    pairs = [[(x.numerator, x.denominator) if isinstance(x, Fraction) else (x.num, x.den)
              for x in row] for row in rows]
    den = ring.one()
    for row in pairs:
        for _, d in row:
            if den % d:
                den = den * (d // ring.gcd(den, d))
    den = ring.unit_normalize(den)[1]
    return ring.to_field(den), freeze([[num * (den // d) for num, d in row]
                                       for row in pairs])


def completion_rows(ring, rows):
    """Extend a saturated basis to a unimodular square matrix (rows first)."""
    rows = freeze(rows)
    m = len(rows)
    _, D, V = snf(ring, rows)
    for i in range(m):
        if not ring.is_unit(D[i][i]):
            raise RankDeficiencyError("rows do not span a direct summand")
    return stack(rows, V[m:])


def lattice_intersect(ring, A, B):
    """HNF basis of the intersection of two row modules over the ring.

    x A lies in the span of B exactly when x A + y B = 0 for some y, so the
    intersection is {(x, y) (A; 0) : (x, y) (A; B) = 0}.
    """
    A, B = freeze(A), freeze(B)
    if not A or not B:
        return ()
    zeros = ((ring.zero(),) * len(A[0]),) * len(B)
    return split_hnf(ring, stack(A, B), stack(A, zeros))


# ---------------------------------------------------------------------------
# saturated summands and spans of vector pools
# ---------------------------------------------------------------------------

class Summand:
    """Saturated summand of R^n, kept as its canonical basis rows.

    The base of the Z, F_q[t] and Z[T^-1] summands: frozen dataclasses with
    fields `n` and `basis` and an attribute `ring`, the Euclidean ring R (the
    base ring for Z[T^-1]).  `basis` is the Hermite form over R of the
    summand's intersection with R^n, so containment, meets, joins and images
    run here on ring rows.  The one hook, `_integral_rows`, turns spanning
    rows into ring rows with the same span; it is the identity over Z and
    F_q[t], and a localized summand clears T-denominators with it.
    """

    def __post_init__(self):
        rows = freeze(self.basis)
        if any(len(r) != self.n for r in rows):
            raise DimensionError("basis row length != ambient rank")
        object.__setattr__(self, "basis", rows)

    @property
    def rank(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return self.rank == self.n

    def _integral_rows(self, rows):
        """Rows over R with the same span as `rows`."""
        return rows

    def _saturated(self, rows):
        """The summand spanned by independent, nonempty rows over R."""
        return dataclasses.replace(self, basis=saturate(self.ring, rows, self.n))

    def _span(self, rows):
        """The summand spanned by independent rows (zero rows are dropped)."""
        rows = [r for r in self._integral_rows(rows) if any(r)]
        return self._saturated(rows) if rows else dataclasses.replace(self, basis=())

    def contains(self, other):
        if other.rank > self.rank:
            return False
        if not other.basis:
            return True
        return rank_over_field(self.ring, stack(self.basis, other.basis)) == self.rank

    def meet(self, other):
        # the intersection of two summands is a summand, and lattice_intersect
        # returns its canonical Hermite form
        return dataclasses.replace(
            self, basis=lattice_intersect(self.ring, self.basis, other.basis))

    def join(self, other):
        rows = self.basis + other.basis
        if not rows:
            return dataclasses.replace(self, basis=())
        return self._saturated(hnf(self.ring, rows))

    def apply(self, phi_rows):
        """Image under the automorphism with matrix rows phi (basis * phi)."""
        if self.is_zero():
            return self
        return self._span(matmul(self.basis, freeze(phi_rows), self.ring.zero()))


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
    pool = freeze(pool)
    lines = (primitive(ring, v) for v in pool)
    level = list(dict.fromkeys((prim,) for prim in lines if prim is not None))
    for k in range(1, m):
        nxt = {}
        for rows in level:
            Uinv = inverse_unimodular(ring, completion_rows(ring, rows))
            coords = matmul(pool, tuple(row[k:] for row in Uinv), ring.zero())
            seen = set()
            for v, c in zip(pool, coords):
                key = primitive(ring, c)
                if key is None or key in seen:
                    continue
                seen.add(key)
                nxt[saturate(ring, list(rows) + [v], n)] = None
        level = list(nxt)
    return level


# ---------------------------------------------------------------------------
# column reduction over a valuation ring
# ---------------------------------------------------------------------------

def dvr_column_reduce(cols, rows, val, any_row=False):
    """Column reduction over the valuation ring of `val` (val(0) = inf).

    `cols` are mutable column lists over the fraction field.  Each step
    clears one of `rows`, the next in order (with `any_row`, whichever
    remaining row holds the least entry): it pivots on the least-valuation
    entry among the unused columns, the first one on a tie, and subtracts
    multiples of the pivot column, each of valuation >= 0, from the other
    unused columns.  Returns the steps as (row, pivot column, valuation);
    a row without a pivot raises RankDeficiencyError.
    """
    avail = list(range(len(cols)))
    todo = list(rows)
    steps = []
    while todo:
        vals = {(i, j): val(cols[j][i])
                for i in (todo if any_row else todo[:1]) for j in avail}
        (i, p), v = min(vals.items(), key=lambda kv: kv[1],
                        default=((None, None), math.inf))
        if v == math.inf:
            raise RankDeficiencyError("columns do not span a full lattice")
        piv = cols[p]
        for j in avail:
            if j != p and vals[i, j] != math.inf:
                f = cols[j][i] / piv[i]
                cols[j] = [a - f * b for a, b in zip(cols[j], piv)]
        avail.remove(p)
        todo.remove(i)
        steps.append((i, p, v))
    return steps
