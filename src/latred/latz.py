"""Volumes and canonical filtrations of direct summands of Z^n.

An inner product enters as an exact rational Gram matrix; the squared
volume of a summand is the Gram determinant of any basis, kept as an exact
rational, and log-volumes are `ExactLog` half-logs of those rationals.
Floating point appears only in the Riemannian distance between inner
products, and numpy is imported only when that distance is computed.

Summand enumeration below a volume bound is complete: a Fincke-Pohst
descent over the exact LDL^T cone finds every short vector, and
Minkowski-type bounds on successive minima confine the generators of any
low-volume summand.  Per-rank minima take one such enumeration at a
certified upper bound, the least principal minor of an exact LLL-reduced
Gram matrix, so their cost does not depend on the scale or the basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import filtration, matrices
from .errors import (DefinitenessError, DimensionError, RankDeficiencyError,
                     ScaleError)
from .logs import ExactLog
from .rings import ZZ

DESK_RANK_LIMIT = 6


@dataclass(frozen=True)
class InnerProduct:
    """Symmetric positive-definite rational form on R^n, checked exactly.

    `det` is det(gram), the squared volume of Z^n: the product of the LDL^T
    pivots that the positive-definiteness check computes.
    """

    n: int
    gram: tuple
    det: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = matrices.freeze([[Fraction(x) for x in row] for row in self.gram])
        if len(g) != self.n or any(len(r) != self.n for r in g):
            raise DimensionError("Gram matrix shape mismatch")
        if g != matrices.transpose(g):
            raise DefinitenessError("Gram matrix is not symmetric")
        d = _ldl(g)[0]  # positive pivots, i.e. positive leading minors
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "det", math.prod(d, start=Fraction(1)))

    @staticmethod
    def identity(n):
        return InnerProduct(n, [[Fraction(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(diag):
        n = len(diag)
        return InnerProduct(n, [[Fraction(diag[i]) if i == j else Fraction(0)
                                 for j in range(n)] for i in range(n)])

    def scaled(self, factor):
        factor = Fraction(factor)
        return InnerProduct(self.n, [[x * factor for x in row] for row in self.gram])

    def pulled_back(self, phi_rows):
        """Gram of the pullback along the map with matrix rows phi (k x n)."""
        P = matrices.freeze([[Fraction(x) for x in row] for row in phi_rows])
        G = matrices.matmul(matrices.matmul(P, self.gram, Fraction(0)),
                            matrices.transpose(P), Fraction(0))
        return InnerProduct(len(P), G)

    @cached_property
    def _reduced_gram(self):
        return _lll_gram(self.gram)


@dataclass(frozen=True)
class ZSummand(matrices.Summand):
    """Saturated direct summand of Z^n, stored as its canonical HNF basis."""

    n: int
    basis: tuple

    ring = ZZ

    @staticmethod
    def from_rows(n, rows):
        return ZSummand.zero(n)._span(rows)

    @staticmethod
    def zero(n):
        return ZSummand(n, ())

    @staticmethod
    def full(n):
        return ZSummand(n, matrices.identity_rows(n, 1, 0))


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def gram_vol2(s, rows):
    """Exact squared volume of the span of (rational) rows."""
    rows = matrices.freeze([[Fraction(x) for x in row] for row in rows])
    if not rows:
        return Fraction(1)
    G = matrices.matmul(matrices.matmul(rows, s.gram, Fraction(0)),
                        matrices.transpose(rows), Fraction(0))
    d = matrices.det_field(G, Fraction(0), Fraction(1))
    if d == 0:
        raise RankDeficiencyError("basis rows are dependent")
    return d


def gram_logvol(s, summand):
    """Log-volume as an ExactLog (half the log of the exact squared volume)."""
    rows = summand.basis if isinstance(summand, ZSummand) else summand
    return ExactLog.half_log(gram_vol2(s, rows))


def _ldl(gram, pivots=None):
    """Exact LDL^T data: Q(x) = sum_i d_i (x_i + sum_{j>i} u[i][j] x_j)^2.

    Returns (d, u, rest).  With `pivots` = r < n, only the first r pivots
    are taken and `rest` is the trailing (n-r) x (n-r) block, the Schur
    complement D - B^T A^-1 B of the leading r x r block A.  A pivot <= 0
    means the form is not positive definite.
    """
    n = len(gram)
    r = n if pivots is None else pivots
    g = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(r):
        d[i] = g[i][i]
        if d[i] <= 0:
            raise DefinitenessError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = g[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                g[j][k] -= d[i] * u[i][j] * u[i][k]
                g[k][j] = g[j][k]
    return d, u, [row[r:] for row in g[r:]]


def _lll_gram(gram):
    """Gram matrix of an LLL-reduced basis of (Z^n, gram), delta = 3/4, exact.

    Gram-Schmidt data are recomputed from the current Gram matrix at every
    step; n is at most DESK_RANK_LIMIT.
    """
    g = [list(row) for row in gram]
    n = len(g)
    k = 1
    while k < n:
        d, u, _ = _ldl(g)  # mu[k][j] = u[j][k], |b*_i|^2 = d[i]
        for j in range(k - 1, -1, -1):
            q = round(u[j][k])
            if q:  # b_k -= q b_j
                for i in range(n):
                    g[k][i] -= q * g[j][i]
                for i in range(n):
                    g[i][k] -= q * g[i][j]
                for i in range(j):
                    u[i][k] -= q * u[i][j]
                u[j][k] -= q
        mu = u[k - 1][k]
        if d[k] < (Fraction(3, 4) - mu * mu) * d[k - 1]:  # Lovasz condition fails
            g[k - 1], g[k] = g[k], g[k - 1]
            for row in g:
                row[k - 1], row[k] = row[k], row[k - 1]
            k = max(k - 1, 1)
        else:
            k += 1
    return g


def _rank_bound(s, m):
    """Squared volume of the least-volume summand spanned by m reduced basis vectors.

    A certified upper bound on the rank-m minimum: any m vectors of a basis
    of Z^n span a direct summand.
    """
    g = s._reduced_gram
    return min(matrices.det_field(matrices.freeze([[g[i][j] for j in idx] for i in idx]),
                                  Fraction(0), Fraction(1))
               for idx in itertools.combinations(range(s.n), m))


def _int_range_abs_le(center, bound_sq):
    """Integers x with (x + center)^2 <= bound_sq, as an inclusive range.

    Exact: grows outward from the integer nearest to -center, so an empty
    range is detected immediately.
    """
    if bound_sq < 0:
        return 1, 0
    mid = math.floor(Fraction(1, 2) - center)  # nearest integer to -center
    if (mid + center) ** 2 > bound_sq:
        return 1, 0
    hi = mid
    while (hi + 1 + center) ** 2 <= bound_sq:
        hi += 1
    lo = mid
    while (lo - 1 + center) ** 2 <= bound_sq:
        lo -= 1
    return lo, hi


def short_vectors(s, norm2_bound):
    """All +-classes of nonzero integer vectors with s(v,v) <= norm2_bound.

    Representatives have a positive first nonzero coordinate.  Complete by
    construction: recursive enumeration over the exact LDL^T cone with
    per-coordinate budgets.
    """
    n = s.n
    if n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    X = Fraction(norm2_bound)
    if X <= 0:
        return []
    d, u, _ = _ldl(s.gram)
    out = []
    vec = [0] * n

    def descend(i, budget):
        if i < 0:
            if any(vec):
                v = tuple(vec)
                for x in v:
                    if x:
                        out.append(v if x > 0 else tuple(-y for y in v))
                        break
            return
        center = sum(u[i][j] * vec[j] for j in range(i + 1, n))
        lo, hi = _int_range_abs_le(center, budget / d[i])
        for x in range(lo, hi + 1):
            vec[i] = x
            descend(i - 1, budget - d[i] * (x + center) ** 2)
        vec[i] = 0

    descend(n - 1, X)
    seen = set()
    uniq = []
    for v in out:
        if v not in seen:
            seen.add(v)
            uniq.append(v)
    return uniq


def shortest_norm2(s):
    """Exact minimal value of s(v,v) over nonzero integer vectors."""
    budget = _rank_bound(s, 1)
    vecs = short_vectors(s, budget)
    best = None
    for v in vecs:
        q = sum(Fraction(v[i]) * s.gram[i][j] * v[j]
                for i in range(s.n) for j in range(s.n))
        if best is None or q < best:
            best = q
    return best  # nonempty: a reduced basis vector is a candidate


def _lv_cmp(vol2, bound):
    """Sign of ln sqrt(vol2) - bound, exact for an ExactLog or rational bound."""
    lv = ExactLog.half_log(vol2)
    if isinstance(bound, ExactLog):
        return (lv - bound).sign()
    return lv.compare_to_real(Fraction(bound))


def _vol2_bound_from(bound):
    """A power of two X >= exp(2 bound), within a factor 4 of it.

    {lv <= bound} is then contained in {vol^2 <= X}.
    """
    f = bound.to_float() if isinstance(bound, ExactLog) else float(bound)
    X = Fraction(2) ** math.floor(2 * f / math.log(2))
    while _lv_cmp(X, bound) < 0:
        X *= 2
    return X


def _candidates(s, X, m, lam1):
    """Saturated rank-m spans (0 < m < n) that include every summand of vol^2 <= X.

    A rank-m summand of squared volume <= X contains m independent vectors
    of squared norm <= (4/3)^{m(m-1)/2} X / lam1^{m-1}, lam1 the squared
    length of a shortest vector; their saturated span recovers it.
    """
    R2 = Fraction(4, 3) ** (m * (m - 1) // 2) * X / (lam1 ** (m - 1) if m > 1 else 1)
    return matrices.assemble_summands(ZZ, s.n, short_vectors(s, R2), m)


def enumerate_summands(s, bound, ranks=None):
    """All direct summands with ln vol <= bound, grouped as a flat sorted list.

    `bound` may be a float/Fraction (a bound on ln vol) or an ExactLog value;
    membership is always decided exactly.
    """
    n = s.n
    if n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    X = _vol2_bound_from(bound)
    lam1 = None
    want_ranks = range(0, n + 1) if ranks is None else sorted(set(ranks))
    found = []
    for m in want_ranks:
        if m == 0:
            # the zero summand is always part of the lattice, at log-volume 0
            found.append(ZSummand.zero(n))
            continue
        if m == n:
            if _lv_cmp(s.det, bound) <= 0:
                found.append(ZSummand.full(n))
            continue
        if m > 1 and lam1 is None:
            lam1 = shortest_norm2(s)
        for sat in _candidates(s, X, m, lam1):
            if _lv_cmp(gram_vol2(s, sat), bound) <= 0:
                found.append(ZSummand(n, sat))
    found.sort(key=lambda w: (w.rank, w.basis))
    return found


def _rank_minima(s, m):
    """All rank-m summands of least volume, sorted by basis, and that log-volume.

    One enumeration at the certified bound `_rank_bound(s, m)`.
    """
    n = s.n
    if m == 0:
        return [ZSummand.zero(n)], ExactLog.zero()
    if m == n:
        return [ZSummand.full(n)], ExactLog.half_log(s.det)
    lam1 = shortest_norm2(s) if m > 1 else None
    vols = {sat: gram_vol2(s, sat) for sat in _candidates(s, _rank_bound(s, m), m, lam1)}
    best = min(vols.values())
    return ([ZSummand(n, sat) for sat in sorted(sat for sat, v in vols.items() if v == best)],
            ExactLog.half_log(best))


# ---------------------------------------------------------------------------
# the filtration oracle
# ---------------------------------------------------------------------------

class ZOracle:
    """Lattice oracle for (direct summands of Z^n, rank, ln vol(s))."""

    def __init__(self, s):
        self.s = s
        self.top_rank = s.n

    def zero(self):
        return ZSummand.zero(self.s.n)

    def one(self):
        return ZSummand.full(self.s.n)

    def rank(self, w):
        return w.rank

    def logvol(self, w):
        return gram_logvol(self.s, w)

    def leq(self, a, b):
        return b.contains(a)

    def rank_minima(self, m):
        return _rank_minima(self.s, m)

    def min_logvol_below(self, w, m):
        """Min log-volume over rank-m summands contained in w."""
        if m == 0:
            return ExactLog.zero()
        return _rank_minima(_restricted_form(self.s, w), m)[1]

    def min_logvol_above(self, w, m):
        """Min log-volume over rank-m summands containing w."""
        if m == self.top_rank:
            return ExactLog.half_log(self.s.det)
        return self.logvol(w) + _rank_minima(_quotient_form(self.s, w), m - w.rank)[1]


def _restricted_form(s, w):
    """Inner product induced on w in its basis coordinates."""
    return s.pulled_back(w.basis)


def _quotient_form(s, w):
    """Inner product induced on Z^n / w: the Schur complement of w's block.

    In a basis of Z^n that starts with w's basis, the trailing block left
    after rank(w) LDL^T pivots is D - B^T A^-1 B.
    """
    U = matrices.completion_rows(ZZ, w.basis)
    return InnerProduct(w.n - w.rank, _ldl(s.pulled_back(U).gram, w.rank)[2])


def canonical_filtration_z(s):
    """Canonical filtration of (summands of Z^n, rank, ln vol(s))."""
    if s.n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {s.n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    return filtration.canonical_filtration(ZOracle(s))


def instability_z(s, w):
    """Exact instability number c of a proper nonzero summand of Z^n."""
    return filtration.c_value(ZOracle(s), w)


# ---------------------------------------------------------------------------
# the Riemannian metric on inner products
# ---------------------------------------------------------------------------

def spd_distance(s1, s2):
    """Geodesic distance for the trace metric g_s(u,v) = tr(s^-1 u s^-1 v).

    Equals the Frobenius norm of log(s1^{-1/2} s2 s1^{-1/2}); floating point
    with ~1e-9 accuracy at desk scale.
    """
    if not isinstance(s1, InnerProduct) or not isinstance(s2, InnerProduct):
        raise DefinitenessError("spd_distance needs InnerProduct arguments")
    if s1.n != s2.n:
        raise DimensionError("mismatched ranks")
    if s1.gram == s2.gram:
        return 0.0
    import numpy as np  # deferred: no other latred call needs numpy
    A = np.array([[float(x) for x in row] for row in s1.gram])
    B = np.array([[float(x) for x in row] for row in s2.gram])
    L = np.linalg.cholesky(A)
    M = np.linalg.solve(L, np.linalg.solve(L, B).T)
    M = (M + M.T) / 2
    eig = np.linalg.eigvalsh(M)
    if np.any(eig <= 0):  # pragma: no cover - inputs are exact SPD
        raise DefinitenessError("numerically non-positive spectrum")
    return float(np.sqrt(np.sum(np.log(eig) ** 2)))
