"""Exact matrix algebra over Z, F_q[t] and their fraction fields.

Matrices are immutable tuples of row tuples, and entries are added,
multiplied and divided with the operators.  Algorithms that need more ring
structure (Hermite and Smith forms, column reduction, saturation) take one
of the ring objects from `rings` for its units, norm and gcd.  Saturation,
basis completion and summand joins run on one rank-revealing column
reduction M = [T | 0] V with V unimodular (`_column_echelon`); the Smith
form is left to the callers that read its invariant factors,
`sarith.factorize` and `selfcheck`, and its elimination also yields the
units det U and det V, so `factorize` needs no determinant.  The Hermite
form and the column reduction skip zero entries in their row and column
operations, and the Hermite form touches only the columns from its
current pivot on.  The fraction-field routines (determinant, rank,
inverse) work on Fraction / FqRationalFunction entries directly and share
one forward elimination.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import (DimensionError, ProjectivityError, RankDeficiencyError,
                     SingularityError)
from .fq import poly


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

def hnf(ring, rows):
    """Canonical row echelon form over a Euclidean domain.

    Pivots are the leading entries of their rows, normalized (positive /
    monic), with strictly increasing pivot columns and entries above each
    pivot reduced modulo it.  Zero rows are dropped, so the result is the
    canonical basis of the row module.  Rows at or below the pivot row are
    zero left of the current column, so every row operation runs on the
    suffix from that column on and skips the zero entries it would subtract.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    nrows = len(work)
    norm = ring.norm_key
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        nz = [i for i in range(pivot_row, nrows) if work[i][col]]
        if not nz:
            continue
        # Euclid: reduce the column's other entries by its least one; each
        # remainder is smaller than that pivot, so the least norm falls
        while len(nz) > 1:
            base = min(nz, key=lambda i: norm(work[i][col]))
            b = work[base][col:]
            left = [base]
            for i in nz:
                if i != base:
                    r = work[i]
                    q = r[col] // b[0]
                    r[col:] = [x - q * y if y else x for x, y in zip(r[col:], b)]
                    if r[col]:
                        left.append(i)
            nz = left
        row = work[nz[0]]
        work[nz[0]], work[pivot_row] = work[pivot_row], row
        unit, normalized = ring.unit_normalize(row[col])
        if normalized != row[col]:
            inv = _unit_inverse(unit)
            row[col:] = [inv * x if x else x for x in row[col:]]
        b = row[col:]
        for i in range(pivot_row):
            r = work[i]
            q = r[col] // b[0]
            if q:
                r[col:] = [x - q * y if y else x for x, y in zip(r[col:], b)]
        pivot_row += 1
    return freeze(work[:pivot_row])


def _unit_inverse(u):
    # units of Z are +-1, their own inverses; units of F_q[t] are the
    # nonzero constants
    if isinstance(u, int):
        return u
    return poly(u.field, [u.field.inv(u.leading())])


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
        self.det_u = self.det_v = one  # swaps negate them, scale_row divides det U

    # maintain U*D*V = M
    def swap_rows(self, i, j):
        if i != j:
            self.D[i], self.D[j] = self.D[j], self.D[i]
            for row in self.U:
                row[i], row[j] = row[j], row[i]
            self.det_u = -self.det_u

    def swap_cols(self, i, j):
        if i != j:
            for row in self.D:
                row[i], row[j] = row[j], row[i]
            self.V[i], self.V[j] = self.V[j], self.V[i]
            self.det_v = -self.det_v

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
        self.det_u = self.det_u * inv


def snf(ring, M):
    """Smith normal form: returns (U, D, V) with U*D*V = M exactly.

    U and V are unimodular over the ring; D is diagonal with each diagonal
    entry normalized and dividing the next.
    """
    return _smith(ring, M)[:3]


def _smith(ring, M):
    """`snf`'s (U, D, V), then the units det U and det V its steps multiplied."""
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
    return freeze(st.U), freeze(st.D), freeze(st.V), st.det_u, st.det_v


def _column_echelon(ring, M):
    """Rank-revealing column reduction: (rank, T, V) with M = [T | 0] V exactly.

    V is unimodular over the ring and T has `rank` columns.  Row by row,
    the gcd steps of the Smith form's column pass clear the row right of
    its pivot column, so each row holds a pivot in the next column or is
    zero from it on: with independent rows, T is square lower triangular.
    V tracks the column operations as `_SNFState.col_sub` does, skipping
    the zero entries they would add; there are no row operations and no
    divisibility pass.
    """
    m, n = shape(M)
    D = [list(r) for r in M]
    V = [list(r) for r in identity_rows(n, ring.one(), ring.zero())]
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
                        if r[k]:
                            r[j] = r[j] - q * r[k]
                    V[k] = [a + q * b if b else a for a, b in zip(V[k], V[j])]
    return k, freeze(r[:k] for r in D), freeze(V)


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
    rows must be independent over the fraction field.  With rows = T V[:m]
    from `_column_echelon`, the first m rows of the unimodular V span it.
    """
    rows = freeze(rows)
    if not rows:
        return ()
    m, n = shape(rows)
    if ncols is not None and ncols != n:
        raise DimensionError("ambient rank mismatch")
    rank, _, V = _column_echelon(ring, rows)
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
    """Extend a saturated basis to a unimodular square matrix (rows first).

    rows = T V[:m] with T lower triangular, so the rows span a direct
    summand exactly when every pivot of T is a unit, and then (rows; V[m:])
    is T's block-diagonal extension times V.
    """
    rows = freeze(rows)
    m = len(rows)
    rank, T, V = _column_echelon(ring, rows)
    if rank < m or not all(ring.is_unit(T[i][i]) for i in range(m)):
        raise ProjectivityError("rows do not span a direct summand")
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
# saturated summands
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
        # the first `rank` rows of V span the saturation of the (dependent) rows
        rank, _, V = _column_echelon(self.ring, self.basis + other.basis)
        return dataclasses.replace(self, basis=hnf(self.ring, V[:rank]))

    def apply(self, phi_rows):
        """Image under the automorphism with matrix rows phi (basis * phi)."""
        if self.is_zero():
            return self
        return self._span(matmul(self.basis, freeze(phi_rows), self.ring.zero()))


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
