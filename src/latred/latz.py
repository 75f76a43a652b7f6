"""Volumes and canonical filtrations of direct summands of Z^n.

An inner product enters as an exact rational Gram matrix; the squared
volume of a summand is the Gram determinant of any basis, kept as an exact
rational, and log-volumes are `ExactLog` half-logs of those rationals.
Floating point appears only in the Riemannian distance between inner
products, and numpy is imported only when that distance is computed.

Summand enumeration below a volume bound is complete by a box search: a
certified rational lower bound mu on the smallest Gram eigenvalue confines
coordinates of short vectors, and Minkowski-type bounds on successive
minima confine the generators of any low-volume summand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import filtration, matrices
from .errors import (DefinitenessError, DimensionError, RankDeficiencyError,
                     ScaleError)
from .logs import ExactLog
from .rings import ZZ

DESK_RANK_LIMIT = 6


def _leading_minors_positive(gram):
    n = len(gram)
    for k in range(1, n + 1):
        sub = [row[:k] for row in gram[:k]]
        if matrices.det_field(matrices.freeze(sub), Fraction(0), Fraction(1)) <= 0:
            return False
    return True


@dataclass(frozen=True)
class InnerProduct:
    """Symmetric positive-definite rational form on R^n, checked exactly."""

    n: int
    gram: tuple

    def __post_init__(self):
        g = matrices.freeze([[Fraction(x) for x in row] for row in self.gram])
        if len(g) != self.n or any(len(r) != self.n for r in g):
            raise DimensionError("Gram matrix shape mismatch")
        if g != matrices.transpose(g):
            raise DefinitenessError("Gram matrix is not symmetric")
        if not _leading_minors_positive(g):
            raise DefinitenessError("Gram matrix is not positive definite")
        object.__setattr__(self, "gram", g)

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


@dataclass(frozen=True)
class ZSummand:
    """Saturated direct summand of Z^n, stored as its canonical HNF basis."""

    n: int
    basis: tuple

    def __post_init__(self):
        rows = matrices.freeze(self.basis)
        if any(len(r) != self.n for r in rows):
            raise DimensionError("basis row length != ambient rank")
        object.__setattr__(self, "basis", rows)

    @staticmethod
    def from_rows(n, rows):
        rows = [r for r in rows if any(x != 0 for x in r)]
        if not rows:
            return ZSummand(n, ())
        return ZSummand(n, matrices.saturate(ZZ, rows, n))

    @staticmethod
    def zero(n):
        return ZSummand(n, ())

    @staticmethod
    def full(n):
        return ZSummand(n, matrices.identity_rows(n, 1, 0))

    @property
    def rank(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return self.rank == self.n

    def contains(self, other):
        if other.rank > self.rank:
            return False
        if not other.basis:
            return True
        stacked = matrices.stack(self.basis, other.basis)
        lifted = matrices.freeze([[Fraction(x) for x in r] for r in stacked])
        return matrices.rank_field(lifted, Fraction(0), Fraction(1)) == self.rank

    def meet(self, other):
        rows = matrices.lattice_intersect(ZZ, self.basis, other.basis)
        return ZSummand(self.n, rows)

    def join(self, other):
        rows = [r for r in self.basis + other.basis]
        if not rows:
            return ZSummand.zero(self.n)
        hull = matrices.hnf(ZZ, rows)
        return ZSummand(self.n, matrices.saturate(ZZ, hull, self.n))

    def apply(self, phi_rows):
        """Image under the automorphism with matrix rows phi (basis * phi)."""
        if self.is_zero():
            return self
        img = matrices.matmul(self.basis, matrices.freeze(phi_rows), 0)
        return ZSummand.from_rows(self.n, img)


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


def min_eigenvalue_bound(s):
    """Certified rational 0 < mu <= lambda_min(gram), by bisection on PD tests."""
    n = s.n
    hi = min(s.gram[i][i] for i in range(n))
    lo = Fraction(0)
    ident = matrices.identity_rows(n, Fraction(1), Fraction(0))

    def pd_after_shift(t):
        shifted = matrices.freeze([[s.gram[i][j] - t * ident[i][j] for j in range(n)]
                                   for i in range(n)])
        return _leading_minors_positive(shifted)

    for _ in range(80):
        mid = (lo + hi) / 2
        if pd_after_shift(mid):
            lo = mid
        else:
            hi = mid
        if lo > 0 and hi - lo < lo:
            break
    if lo == 0:  # pragma: no cover - PD matrices always admit a positive shift
        raise DefinitenessError("failed to certify a positive eigenvalue bound")
    return lo


def _ldl(gram):
    """Exact LDL^T data: Q(x) = sum_i d_i (x_i + sum_{j>i} u[i][j] x_j)^2."""
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = g[i][i]
        if d[i] <= 0:  # pragma: no cover - inputs are SPD
            raise DefinitenessError("LDL pivot failed")
        for j in range(i + 1, n):
            u[i][j] = g[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                g[j][k] -= d[i] * u[i][j] * u[i][k]
                g[k][j] = g[j][k]
    return d, u


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


def short_vectors(s, norm2_bound, mu=None):
    """All +-classes of nonzero integer vectors with s(v,v) <= norm2_bound.

    Representatives have a positive first nonzero coordinate.  Complete by
    construction: recursive enumeration over the exact LDL^T cone with
    per-coordinate budgets (no eigenvalue box needed).
    """
    n = s.n
    if n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    X = Fraction(norm2_bound)
    if X <= 0:
        return []
    d, u = _ldl(s.gram)
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
    budget = min(s.gram[i][i] for i in range(s.n))
    vecs = short_vectors(s, budget)
    best = None
    for v in vecs:
        q = sum(Fraction(v[i]) * s.gram[i][j] * v[j]
                for i in range(s.n) for j in range(s.n))
        if best is None or q < best:
            best = q
    return best  # nonempty: the coordinate vectors are candidates


def _vol2_bound_from(s, bound):
    """Rational X with {lv <= bound} contained in {vol^2 <= X}."""
    if isinstance(bound, ExactLog):
        f = min(bound.to_float(), 700.0)
        X = Fraction(max(math.exp(2 * f) * 1.125, 1e-9)).limit_denominator(10 ** 12)
        if X <= 0:
            X = Fraction(1, 10 ** 9)
        while ExactLog.half_log(X) < bound:
            X *= 4
        return X
    # plain real bound C on ln vol: X >= exp(2C)
    f = min(float(bound), 700.0)
    X = Fraction(max(math.exp(2 * f) * 1.125, 1e-12)).limit_denominator(10 ** 12)
    while ExactLog.half_log(X).compare_to_real(bound) < 0:
        X *= 4
    return X


def _lv_le(vol2, bound):
    if isinstance(bound, ExactLog):
        return ExactLog.half_log(vol2) <= bound
    return ExactLog.half_log(vol2).compare_to_real(bound) <= 0


def enumerate_summands(s, bound, ranks=None):
    """All direct summands with ln vol <= bound, grouped as a flat sorted list.

    `bound` may be a float/Fraction (a bound on ln vol) or an ExactLog value;
    membership is always decided exactly.  Complete via Minkowski bounds: a
    rank-m summand of volume <= V contains m independent vectors of squared
    norm <= (4/3)^{m(m-1)/2} V^2 / mu^{m-1}, whose saturation recovers it.
    """
    n = s.n
    if n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    X = _vol2_bound_from(s, bound)
    lam1 = None
    want_ranks = range(0, n + 1) if ranks is None else sorted(set(ranks))
    found = []
    for m in want_ranks:
        if m == 0:
            # the zero summand is always part of the lattice, at log-volume 0
            found.append(ZSummand.zero(n))
            continue
        if m == n:
            if _lv_le(gram_vol2(s, ZSummand.full(n).basis), bound):
                found.append(ZSummand.full(n))
            continue
        if m > 1 and lam1 is None:
            lam1 = shortest_norm2(s)
        R2 = Fraction(4, 3) ** (m * (m - 1) // 2) * X / (lam1 ** (m - 1) if m > 1 else 1)
        pool = short_vectors(s, R2)
        level = _assemble_summands(n, pool, m)
        for sat in level:
            if _lv_le(gram_vol2(s, sat), bound):
                found.append(ZSummand(n, sat))
    found.sort(key=lambda w: (w.rank, w.basis))
    return found


def _primitive_signed(v):
    """v divided by its content, sign-fixed to a positive leading entry."""
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g == 0:
        return None
    w = tuple(x // g for x in v)
    for x in w:
        if x:
            return w if x > 0 else tuple(-y for y in w)
    return None


def _assemble_summands(n, pool, m):
    """Saturations of all rank-m spans of pool vectors, deduplicated.

    Extensions are keyed by the primitive quotient class of the new vector:
    for saturated W, saturate(W + v) only depends on the saturated line of
    v's image in Z^n / W.
    """
    level = [()]
    for step in range(m):
        nxt = {}
        if step == 0:
            for v in pool:
                prim = _primitive_signed(v)
                if prim is not None:
                    nxt[(prim,)] = matrices.hnf(ZZ, (prim,))
        else:
            for rows in level:
                U = matrices.completion_rows(ZZ, rows)
                Uinv = matrices.inverse_unimodular(ZZ, U)
                k = len(rows)
                seen = set()
                for v in pool:
                    coords = [sum(v[i] * Uinv[i][j] for i in range(n))
                              for j in range(k, n)]
                    key = _primitive_signed(coords)
                    if key is None or key in seen:
                        continue
                    seen.add(key)
                    sat = matrices.saturate(ZZ, list(rows) + [v], n)
                    nxt[sat] = sat
        level = list(nxt.values())
    return level


# ---------------------------------------------------------------------------
# the filtration oracle
# ---------------------------------------------------------------------------

class ZOracle:
    """Lattice oracle for (direct summands of Z^n, rank, ln vol(s))."""

    def __init__(self, s):
        self.s = s
        self.top_rank = s.n
        self._mu = None

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

    def meet(self, a, b):
        return a.meet(b)

    def join(self, a, b):
        return a.join(b)

    def summands_of_rank_below(self, m, bound):
        return enumerate_summands(self.s, bound, ranks=[m])

    # -- fast constrained minima ------------------------------------------
    def min_logvol_below(self, w, m):
        """Min log-volume over rank-m summands contained in w."""
        if m == 0:
            return ExactLog.zero()
        return _min_rank_value(_restricted_form(self.s, w), m)

    def min_logvol_above(self, w, m):
        """Min log-volume over rank-m summands containing w."""
        if m == self.top_rank:
            return self.logvol(self.one())
        quot = _quotient_form(self.s, w)
        return self.logvol(w) + _min_rank_value(quot, m - w.rank)


def _restricted_form(s, w):
    """Inner product induced on w in its basis coordinates."""
    return s.pulled_back(w.basis)


def _quotient_form(s, w):
    """Inner product induced on Z^n / w (Schur complement metric)."""
    U = matrices.completion_rows(ZZ, w.basis)
    GU = matrices.matmul(matrices.matmul(
        matrices.freeze([[Fraction(x) for x in row] for row in U]), s.gram, Fraction(0)),
        matrices.transpose(matrices.freeze([[Fraction(x) for x in row] for row in U])),
        Fraction(0))
    r = w.rank
    n = w.n
    A = matrices.freeze([row[:r] for row in GU[:r]])
    B = matrices.freeze([row[r:] for row in GU[:r]])
    D = matrices.freeze([row[r:] for row in GU[r:]])
    Ainv = matrices.inverse_field(A, Fraction(0), Fraction(1))
    Bt = matrices.transpose(B)
    corr = matrices.matmul(matrices.matmul(Bt, Ainv, Fraction(0)), B, Fraction(0))
    Q = matrices.mat_sub(D, corr)
    return InnerProduct(n - r, Q)


def _min_rank_value(s, m):
    """Min log-volume over rank-m summands of (Z^k, s), by bounded search."""
    if m == 0:
        return ExactLog.zero()
    if m == s.n:
        return gram_logvol(s, ZSummand.full(s.n))
    bound = gram_logvol(s, ZSummand.full(s.n))
    if bound < ExactLog.zero():
        bound = ExactLog.zero()
    while True:
        cands = enumerate_summands(s, bound, ranks=[m])
        if cands:
            vals = [gram_logvol(s, w) for w in cands]
            best = vals[0]
            for v in vals[1:]:
                if v < best:
                    best = v
            return best
        bound = bound + ExactLog.log(4)


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
