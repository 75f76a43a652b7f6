"""Volumes and canonical filtrations of direct summands of Z^n.

An inner product enters as an exact rational Gram matrix; the squared
volume of a summand is the Gram determinant of any basis, kept as an exact
rational, and log-volumes are `ExactLog` half-logs of those rationals.
Every Gram determinant is the product of the pivots of an exact LDL^T,
the decomposition that also checks positive definiteness.  Every Gram
congruence is one integer product over one denominator (`_congruence`).  Floating point
appears only in the Riemannian distance between inner products, and numpy
is imported only when that distance is computed.

Summand search below a volume bound is complete and runs rank by rank:
short vectors come from a Fincke-Pohst descent in an LLL-reduced basis,
and a rank-m summand is a Rankin-bounded rank-(m-1) summand W plus a
primitive short vector of the quotient form on Z^n / W (a Schur
complement), which multiplies W's squared volume.  Per-rank minima search
at the least principal minor of the reduced Gram matrix, so their cost
does not depend on the scale or the basis.
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

    def pulled_back(self, rows, den=1):
        """Gram of the pullback along the map with matrix rows / den (k x n)."""
        return InnerProduct(len(rows), _congruence(self, rows, den))

    @cached_property
    def _cleared(self):
        """(g, G): the least integer g > 0 with G = g gram integral, and G."""
        return matrices.clear_denominators(ZZ, self.gram)

    @cached_property
    def _reduced(self):
        """(U, g, d, u): an LLL-reduced basis U of Z^n, g = U gram U^T, g's LDL^T."""
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

def _congruence(s, rows, den=1):
    """P gram P^T for P = rows / den: rows G rows^T / (g den^2), (g, G) the cleared form."""
    g, G = s._cleared
    M = matrices.matmul(matrices.matmul(rows, G, 0), matrices.transpose(rows), 0)
    return matrices.divided(g * den ** 2, M)


def gram_vol2(s, rows):
    """Exact squared volume of the span of (rational) rows: det of the pullback."""
    # the pullback is positive semidefinite, so a pivot <= 0 is a zero pivot
    try:
        return s.pulled_back(rows).det
    except DefinitenessError:
        raise RankDeficiencyError("basis rows are dependent") from None


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
    """(U, g, d, u): an LLL-reduced basis U of (Z^n, gram), delta = 3/4, exact.

    U is unimodular with g = U gram U^T, and (d, u) is g's LDL^T data.
    Gram-Schmidt data are recomputed from the current Gram matrix at every
    step; n is at most DESK_RANK_LIMIT.  Size reduction keeps d and updates
    u, so the data of the last step are exact for the returned g.
    """
    g = [list(row) for row in gram]
    n = len(g)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        d, u, _ = _ldl(g)  # mu[k][j] = u[j][k], |b*_i|^2 = d[i]
        for j in range(k - 1, -1, -1):
            q = round(u[j][k])
            if q:  # b_k -= q b_j
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
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
            U[k - 1], U[k] = U[k], U[k - 1]
            for row in g:
                row[k - 1], row[k] = row[k], row[k - 1]
            k = max(k - 1, 1)
        else:
            k += 1
    if n < 2:  # the loop never ran
        d, u, _ = _ldl(g)
    return U, g, d, u


def _rank_bound(s, m):
    """Squared volume of the least-volume summand spanned by m reduced basis vectors.

    A certified upper bound on the rank-m minimum: any m vectors of a basis
    of Z^n span a direct summand.
    """
    g = s._reduced[1]
    return min(math.prod(_ldl([[g[i][j] for j in idx] for i in idx])[0], start=Fraction(1))
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

    A dict v -> s(v, v), each v with a positive first nonzero coordinate.
    Complete by construction: recursive enumeration of the coefficients y
    (one of y and -y) over the exact LDL^T cone of the LLL-reduced basis U,
    mapped back to v = y U.
    """
    n = s.n
    if n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    X = Fraction(norm2_bound)
    if X <= 0:
        return {}
    U, _, d, u = s._reduced
    out = {}
    vec = [0] * n

    def descend(i, budget, top):
        # top: every coefficient above i is zero
        if i < 0:
            if not top:
                v = [sum(y * row[j] for y, row in zip(vec, U) if y) for j in range(n)]
                if next(x for x in v if x) < 0:
                    v = [-x for x in v]
                out[tuple(v)] = X - budget
            return
        center = sum(u[i][j] * vec[j] for j in range(i + 1, n))
        lo, hi = _int_range_abs_le(center, budget / d[i])
        for x in range(max(lo, 0) if top else lo, hi + 1):
            vec[i] = x
            descend(i - 1, budget - d[i] * (x + center) ** 2, top and not x)
        vec[i] = 0

    descend(n - 1, X, True)
    return out


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


# gamma_m^m for Hermite's constant gamma_m, m = 2..5
_HERMITE_POWER = {2: Fraction(4, 3), 3: Fraction(2), 4: Fraction(4), 5: Fraction(8)}


def _root_ceil(a, m):
    """The least integer r >= 0 with r^m >= a, for an integer a >= 0."""
    x = 1 << -(-a.bit_length() // m)  # x^m >= a: Newton descends from above
    while True:
        y = ((m - 1) * x + a // x ** (m - 1)) // m
        if y >= x:
            break
        x = y
    return x if x ** m >= a else x + 1


def _rankin_bound(X, m):
    """A rational Y >= (gamma_m^m X^(m-1))^(1/m), within a factor 1 + 2^-20.

    A rank-m summand of vol^2 <= X contains a rank-(m-1) summand of
    vol^2 <= Y (Rankin, J. London Math. Soc. 28, 1953; gamma_{m,m-1} = gamma_m).
    """
    T = _HERMITE_POWER[m] * X ** (m - 1)
    den = T.denominator << 20
    return Fraction(_root_ceil(T.numerator * T.denominator ** (m - 1) << 20 * m, m), den)


def _summands(s, X, m):
    """{Hermite basis: vol^2} of every rank-m summand (0 < m < n) of vol^2 <= X.

    Each rank-(m-1) summand W under the Rankin bound (which exceeds X when
    quotient norms are below 1) extends by every primitive l with
    q_W(l) <= X / vol^2(W), lifted through W's completion rows.
    """
    if m == 1:
        return {(v,): q for v, q in short_vectors(s, X).items() if math.gcd(*v) == 1}
    out = {}
    for W, vol2 in _summands(s, _rankin_bound(X, m), m - 1).items():
        C, q = _split_forms(s, W)
        for l, q_l in short_vectors(q, X / vol2).items():
            if math.gcd(*l) == 1:
                lift = tuple(sum(x * row[j] for x, row in zip(l, C) if x) for j in range(s.n))
                out[matrices.hnf(ZZ, W + (lift,))] = vol2 * q_l
    return out


def enumerate_summands(s, bound, ranks=None):
    """All direct summands with ln vol <= bound, grouped as a flat sorted list.

    `bound` may be a float/Fraction (a bound on ln vol) or an ExactLog value;
    membership is always decided exactly.
    """
    n = s.n
    if n > DESK_RANK_LIMIT:
        raise ScaleError(f"rank {n} exceeds the desk-scale limit {DESK_RANK_LIMIT}")
    X = _vol2_bound_from(bound)
    found = []
    for m in (range(n + 1) if ranks is None else sorted(set(ranks))):
        if m == 0:
            # the zero summand is always part of the lattice, at log-volume 0
            found.append(ZSummand.zero(n))
        elif m == n:
            if _lv_cmp(s.det, bound) <= 0:
                found.append(ZSummand.full(n))
        else:
            found.extend(ZSummand(n, basis) for basis, vol2 in _summands(s, X, m).items()
                         if _lv_cmp(vol2, bound) <= 0)
    found.sort(key=lambda w: (w.rank, w.basis))
    return found


def _rank_minima(s, m):
    """All rank-m summands of least volume, sorted by basis, and that log-volume.

    One search at the certified bound `_rank_bound(s, m)`, for 0 < m < n.
    """
    n = s.n
    vols = _summands(s, _rank_bound(s, m), m)
    best = min(vols.values())
    return ([ZSummand(n, basis) for basis in sorted(b for b, v in vols.items() if v == best)],
            ExactLog.half_log(best))


# ---------------------------------------------------------------------------
# the filtration oracle
# ---------------------------------------------------------------------------

class ZOracle(filtration.LatticeOracle):
    """Lattice oracle for (direct summands of Z^n, rank, ln vol(s)).

    Supplies per-rank minima and the stored total ln sqrt(det).  A summand's
    restricted space is the form pulled back to its basis, and its quotient
    space the Schur complement from `_split_forms`.
    """

    zero_value = ExactLog.zero()

    def __init__(self, s):
        super().__init__(s.n, ExactLog.half_log(s.det))
        self.s = s

    def zero(self):
        return ZSummand.zero(self.s.n)

    def one(self):
        return ZSummand.full(self.s.n)

    def rank_minima(self, m):
        return _rank_minima(self.s, m)

    def _restricted(self, w):
        return ZOracle(self.s.pulled_back(w.basis))

    def _quotient(self, w):
        return ZOracle(_split_forms(self.s, w.basis)[1])


def _split_forms(s, basis):
    """(C, q): rows C completing a saturated basis of Z^n, and the quotient form.

    With U = (basis; C) unimodular and G = U gram U^T, q is the Schur
    complement D - B^T A^-1 B of G's leading r x r block A left after
    r = len(basis) LDL^T pivots: the form on Z^n / basis in C's coordinates.
    """
    U = matrices.completion_rows(ZZ, basis)
    r = len(basis)
    return U[r:], InnerProduct(s.n - r, _ldl(_congruence(s, U), r)[2])


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
