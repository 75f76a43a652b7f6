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
current pivot on; `split_hnf` takes only its forward Euclid steps on the
rows it discards.  Inverses run on ring rows too: a unimodular matrix is
the right block of hnf([U | I]), and a fraction-field matrix P / den is
den H^-1 U for U P = H upper triangular, from forward Euclid steps on
[P | I] alone (`triangularize`), by one fraction-free back substitution
over one denominator (`solve_cleared`).  `solve_upper`, a back
substitution over a fraction field, serves the building's triangular
vertices.  The one elimination over a fraction field is
`dvr_column_reduce`, which pivots on valuations and can also run
fraction-free on ring rows; ranks are Hermite-form lengths, and
determinants are products of echelon or LDL^T pivots.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import (DimensionError, DomainError, ProjectivityError,
                     RankDeficiencyError, SingularityError)
from .fq import FqRationalFunction, poly


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
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        if not _euclid_pivot(ring.norm_key, work, col, pivot_row):
            continue
        row = work[pivot_row]
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


def _euclid_pivot(norm, work, col, top):
    """Move a gcd of column `col`'s entries in rows top.. into row `top`.

    Rows from `top` on must be zero left of `col`; afterwards the rows below
    `top` are zero in `col` too.  Returns False, changing nothing, when the
    column is zero there.  Euclid: reduce the column's other entries by its
    least one; each remainder is smaller than that pivot, so the least norm
    falls.  Each row operation runs on the suffix from `col` on.
    """
    nz = [i for i in range(top, len(work)) if work[i][col]]
    if not nz:
        return False
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
    work[nz[0]], work[top] = work[top], work[nz[0]]
    return True


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

    A and R have one row per generator.  Forward elimination on the A block
    of [A | R], by `hnf`'s Euclid steps, leaves independent echelon rows
    above rows whose A part is zero, so no combination involving the rows
    above vanishes on A: the module is the span of the lower rows' R parts,
    and their Hermite form is its canonical basis.  The upper rows are
    discarded, so their pivots are neither normalized nor reduced above.
    A with no columns leaves hnf(R).
    """
    k = shape(A)[1]
    if not k:
        return hnf(ring, R)
    work = [list(a) + list(r) for a, r in zip(A, R)]
    top = 0
    for col in range(k):
        if top == len(work):
            break
        if _euclid_pivot(ring.norm_key, work, col, top):
            top += 1
    return hnf(ring, [r[k:] for r in work[top:]])


def solve_upper(H, R):
    """X with H X = R, for H upper triangular with a nonzero diagonal.

    Back substitution from the last row; R's rows are fraction-field
    elements.  Zero entries of H cost no row operation, and a pivot equal
    to 1 (the only nonzero idempotent) costs no division.
    """
    n = len(H)
    X = [None] * n
    for i in range(n - 1, -1, -1):
        row, h = list(R[i]), H[i]
        for j in range(i + 1, n):
            if h[j]:
                row = [a - h[j] * b if b else a for a, b in zip(row, X[j])]
        piv = h[i]
        if piv * piv != piv:
            row = [a / piv for a in row]
        X[i] = tuple(row)
    return tuple(X)


def triangularize(ring, P):
    """(H, U) with U P = H, for a square ring matrix P: H upper triangular.

    Forward Euclid steps (`_euclid_pivot`) on [P | I], with no pivot
    normalization and no reduction above pivots, so H is not canonical, but
    U is unimodular and det P is prod H_ii up to a unit.  P is singular
    exactly when a column has no pivot on or below the diagonal.
    """
    n = len(P)
    work = [list(p) + list(e) for p, e in zip(P, identity_rows(n, ring.one(), ring.zero()))]
    for col in range(n):
        if not _euclid_pivot(ring.norm_key, work, col, col):
            raise SingularityError("matrix is singular")
    return freeze(r[:n] for r in work), freeze(r[n:] for r in work)


def solve_cleared(ring, H, Y):
    """(e, N) with H N = e Y, for H upper triangular with a nonzero diagonal.

    Fraction-free back substitution on ring rows over one denominator e, so
    N / e = H^-1 Y with no fraction-field element formed (in the manner of
    Bareiss, Math. Comp. 22, 1968).  A unit pivot divides its row; any other
    pivot h joins e, and the rows solved before it are scaled by h.  Zero
    entries cost no ring operation.
    """
    n, one = len(H), ring.one()
    e = one
    N = [None] * n
    for i in range(n - 1, -1, -1):
        h = H[i]
        row = list(Y[i]) if e == one else [e * y if y else y for y in Y[i]]
        for j in range(i + 1, n):
            if h[j]:
                row = [a - h[j] * b if b else a for a, b in zip(row, N[j])]
        piv = h[i]
        if ring.is_unit(piv):
            if piv != one:
                inv = _unit_inverse(piv)
                row = [inv * a if a else a for a in row]
        else:
            for j in range(i + 1, n):
                N[j] = [piv * a if a else a for a in N[j]]
            e = e * piv
        N[i] = row
    return e, freeze(N)


def inverse(ring, M):
    """Inverse of a square fraction-field matrix, computed on ring rows.

    M = P / den is cleared once (`clear_denominators`), P is triangularized
    (`triangularize`) and the result inverted by `inverse_cleared`.
    """
    n, m = shape(M)
    if n != m:
        raise DimensionError("inverse of a non-square matrix")
    den, P = clear_denominators(ring, M)
    return inverse_cleared(ring, den, *triangularize(ring, P))


def inverse_cleared(ring, den, H, U):
    """The inverse den H^-1 U of P / den, for U P = H from `triangularize`.

    den is a ring element in the fraction field, as `clear_denominators`
    returns it.  One fraction-free back substitution gives H^-1 U = N / e
    (`solve_cleared`), and each entry d N_ij / e is one fraction-field
    constructor call.
    """
    e, N = solve_cleared(ring, H, U)
    d = _num_den(den)[0]
    return divided(e, [[d * x if x else x for x in row] for row in N])


def divided(den, rows):
    """The fraction-field rows rows / den, one constructor call per entry."""
    frac = Fraction if isinstance(den, int) else FqRationalFunction
    return freeze([[frac(x, den) for x in row] for row in rows])


def inverse_unimodular(ring, U):
    """Inverse of a unimodular ring matrix, read off hnf([U | I]) = [I | U^-1].

    The rows (x U, x) span exactly the graph of x -> x U, so the Hermite
    form's left block is the canonical basis of U's row module, I exactly
    when U is unimodular, and its right block is then U^-1.
    """
    n = len(U)
    H = hnf(ring, [tuple(u) + e for u, e in
                   zip(U, identity_rows(n, ring.one(), ring.zero()))])
    if any(H[i][i] != ring.one() for i in range(n)):
        raise DomainError("matrix is not unimodular over the ring")
    return freeze(h[n:] for h in H)


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
    pairs = [[_num_den(x) for x in row] for row in rows]
    den = ring.one()
    for row in pairs:
        for _, d in row:
            if den % d:
                den = den * (d // ring.gcd(den, d))
    den = ring.unit_normalize(den)[1]
    return ring.to_field(den), freeze([[num * (den // d) for num, d in row]
                                       for row in pairs])


def _num_den(x):
    """Reduced numerator and denominator of a fraction-field element."""
    if isinstance(x, FqRationalFunction):
        return x.num, x.den
    return x.numerator, x.denominator


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
        # hnf drops zero rows, so its length is the rank of the stacked rows
        return len(hnf(self.ring, stack(self.basis, other.basis))) == self.rank

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

def dvr_column_reduce(cols, rows, val, any_row=False, scaled=False):
    """Column reduction over the valuation ring of `val` (val(0) = inf).

    `cols` are mutable column lists over the fraction field.  Each step
    clears one of `rows`, the next in order (with `any_row`, whichever
    remaining row holds the least entry): it pivots on the least-valuation
    entry among the unused columns, the first one on a tie, and subtracts
    multiples of the pivot column, each of valuation >= 0, from the other
    unused columns.  Returns the steps as (row, pivot column, valuation);
    a row without a pivot raises RankDeficiencyError.

    With `scaled`, the columns are ring rows over one common denominator
    and `val` is the valuation on the ring.  A step stays fraction-free: it
    replaces column j by a N_j - b N_p, with a and b the entries of the
    pivot column N_p and of N_j in the step's row, so column j stands for
    its ring row over a denominator whose valuation is tracked as an integer.
    The steps report the valuations of the entries the columns stand for,
    up to the common denominator's, which the caller adds once per row.
    Scaled columns serve the steps alone, so the last row's pivot updates
    no column: no later step reads them.
    """
    avail = list(range(len(cols)))
    todo = list(rows)
    shift = [0] * len(cols)  # valuation of a scaled column's own denominator
    steps = []
    while todo:
        vals = {(i, j): val(cols[j][i]) - shift[j]
                for i in (todo if any_row else todo[:1]) for j in avail}
        (i, p), v = min(vals.items(), key=lambda kv: kv[1],
                        default=((None, None), math.inf))
        if v == math.inf:
            raise RankDeficiencyError("columns do not span a full lattice")
        avail.remove(p)
        todo.remove(i)
        steps.append((i, p, v))
        if scaled and not todo:
            break
        piv = cols[p]
        for j in avail:
            if vals[i, j] != math.inf:
                if scaled:
                    a, b = piv[i], cols[j][i]
                    cols[j] = [a * x - b * y for x, y in zip(cols[j], piv)]
                    shift[j] += val(a)
                else:
                    f = cols[j][i] / piv[i]
                    cols[j] = [a - f * b for a, b in zip(cols[j], piv)]
    return steps
