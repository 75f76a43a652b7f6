"""Canonical plots, canonical filtrations and instability numbers.

Works over any graded module lattice presented through an oracle: a poset
with rank and log-volume functions satisfying

    (1) rank strictly monotone,       (2) rank additive,
    (3) log-volume subadditive,       (4) finitely many elements below
                                          any volume bound,
    (5) rank(0) = 0, logvol(0) = 0.

Under these axioms the lower convex hull of the per-rank minimal
(rank, logvol) points is realized by a unique chain of summands, and an
element lies on that chain exactly when its instability number

    c(W) = inf_{W0 < W < W2} slope(W2, W) - slope(W, W0)

is positive.  Log-volume values are exact: `int` on ultrametric sides,
`ExactLog` on the archimedean side.  Slopes and c-values divide by rank
differences, so on ultrametric sides they are `Fraction`s.

Oracle protocol (duck-typed)::

    top_rank : int
    zero() / one()             -> handles of the extreme elements
    rank(h) -> int
    logvol(h) -> int | ExactLog
    leq(a, b) -> bool          poset order
    rank_minima(m)             -> (handles, value): least-logvol rank-m
                                  handles; every one when m is a hull
                                  vertex; and that least logvol
    min_logvol_below(w, m)     min logvol over rank-m elements <= w
    min_logvol_above(w, m)     min logvol over rank-m elements >= w

The oracle owns the search for minima, so the engine runs no volume-window
loop.  `LatticeOracle` answers `rank`, `leq`, `logvol` and both constrained
minima.  A side supplies `zero()`, `one()`, `rank_minima(m)`, `zero_value`,
the top rank and the stored total log-volume, and two hooks, `_restricted(w)`
and `_quotient(w)`: the oracles of w's restricted and quotient spaces.
`ZOracle` answers `rank_minima` with one complete rank-by-rank search at a
bound certified by an exact LLL basis; `FFOracle` reads its minima off
the splitting type of one column reduction rather than from an
enumeration (the rank-m minimum is r_1 + ... + r_m), and its splits off
the r-vectors of the restricted and quotient spaces.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (BoundaryModuleError, DomainError, IncompletePlotError,
                     ViolatedUniquenessError)
from .frozen import Frozen


class GradedPoint(Frozen):
    """A summand handle plotted at (rank, logvol)."""

    _fields = ("id", "rank", "logvol")

    def __init__(self, id, rank, logvol):
        vars(self).update(id=id, rank=rank, logvol=logvol)


class FiltrationReport(Frozen):
    """Per-rank minima, hull path, the canonical chain, and c-values."""

    _fields = ("minima", "path", "chain", "c_values")

    def __init__(self, minima, path, chain=(), c_values=None):
        vars(self).update(minima=minima, path=path, chain=chain,
                          c_values={} if c_values is None else c_values)

    def interior_chain(self):
        return self.chain[1:-1] if len(self.chain) >= 2 else ()


def _is_zero_value(v):
    if isinstance(v, (int, Fraction)):
        return v == 0
    return v.is_zero()


def slope(point_hi, point_lo):
    """(logvol difference) / (rank difference) of two nested points."""
    dr = point_hi.rank - point_lo.rank
    if dr == 0:
        raise DomainError("slope between points of equal rank")
    dv = point_hi.logvol - point_lo.logvol
    return dv * Fraction(1, dr)


def _strictly_below(a, b, c):
    """Whether b lies strictly below the segment from a to c (a.rank < b.rank < c.rank)."""
    lhs = (b.logvol - a.logvol) * (c.rank - a.rank)
    rhs = (c.logvol - a.logvol) * (b.rank - a.rank)
    return lhs < rhs


def canonical_plot(points, top_rank):
    """Lower convex hull of per-rank minima; points on segments are omitted.

    `points` are GradedPoint minima, at most one per rank, containing rank 0
    (with zero log-volume) and the top rank.
    """
    pts = sorted(points, key=lambda p: p.rank)
    ranks = [p.rank for p in pts]
    if len(set(ranks)) != len(ranks):
        raise IncompletePlotError("two minima share a rank")
    if not pts or pts[0].rank != 0 or pts[-1].rank != top_rank:
        raise IncompletePlotError("plot must contain its rank-0 and top-rank points")
    if not _is_zero_value(pts[0].logvol):
        raise IncompletePlotError("the rank-0 point must have log-volume 0")
    hull = []
    for p in pts:
        while len(hull) >= 2 and not _strictly_below(hull[-2], hull[-1], p):
            hull.pop()
        hull.append(p)
    return FiltrationReport(minima=tuple(pts), path=tuple(hull))


# ---------------------------------------------------------------------------
# instability numbers
# ---------------------------------------------------------------------------

def c_value(oracle, w):
    """Exact instability number of a proper nonzero summand.

    The infimum defining c is attained on per-rank minimal-volume elements
    inside and above w, so it is computed as a finite minimum over ranks.
    """
    m = oracle.rank(w)
    n = oracle.top_rank
    if m == 0 or m == n:
        raise BoundaryModuleError("c is undefined for the bottom and top element")
    lv_w = oracle.logvol(w)
    incoming = None
    for k in range(m):
        val = oracle.min_logvol_below(w, k)
        s = (lv_w - val) * Fraction(1, m - k)
        if incoming is None or s > incoming:
            incoming = s
    outgoing = None
    for k in range(m + 1, n + 1):
        val = oracle.min_logvol_above(w, k)
        s = (val - lv_w) * Fraction(1, k - m)
        if outgoing is None or s < outgoing:
            outgoing = s
    return outgoing - incoming


class LatticeOracle:
    """The oracle protocol on summands, from their restricted and quotient spaces.

    logvol(w) is the `total` of w's restricted space, and the rank-m minimum
    below w is that space's `rank_minimum(m)`; above w it is logvol(w) plus
    the rank-(m - rk w) minimum of the quotient space, since log-volumes add
    along w <= x.  Each space is built at most once, and only when a value
    needs it: rank 0 and the top rank read stored values.
    """

    def __init__(self, top_rank, total):
        self.top_rank = top_rank
        self.total = total
        self._cache = {}

    def _once(self, fn, w):
        key = (fn, w)
        if key not in self._cache:
            self._cache[key] = fn(w)
        return self._cache[key]

    def rank(self, w):
        return w.rank

    def leq(self, a, b):
        return b.contains(a)

    def logvol(self, w):
        if w.rank == 0:
            return self.zero_value
        return self._once(self._restricted, w).total

    def rank_minimum(self, m):
        """The least log-volume of a rank-m element."""
        return self.rank_minima(m)[1]

    def min_logvol_below(self, w, m):
        if m == 0:
            return self.zero_value
        return self._once(self._restricted, w).rank_minimum(m)

    def min_logvol_above(self, w, m):
        if m == self.top_rank:
            return self.total
        return self.logvol(w) + self._once(self._quotient, w).rank_minimum(m - w.rank)


# ---------------------------------------------------------------------------
# the canonical filtration
# ---------------------------------------------------------------------------

def canonical_filtration(oracle):
    """Compute the canonical filtration of the oracle's graded lattice.

    Returns a FiltrationReport whose chain runs from the zero element to the
    top element; every interior chain member has a positive c-value, recorded
    exactly from the hull slopes.
    """
    n = oracle.top_rank
    zero, one = oracle.zero(), oracle.one()
    minima_reps = {0: ([zero], oracle.logvol(zero)),
                   n: ([one], oracle.min_logvol_above(zero, n))}
    for m in range(1, n):
        minima_reps[m] = oracle.rank_minima(m)
    points = [GradedPoint(minima_reps[m][0][0], m, minima_reps[m][1])
              for m in range(n + 1)]
    report = canonical_plot(points, n)
    chain = []
    c_values = {}
    path = report.path
    for idx, vertex in enumerate(path):
        m = vertex.rank
        reps = minima_reps[m][0]
        if 0 < m < n:
            if len(reps) > 1:
                raise ViolatedUniquenessError(
                    f"two rank-{m} minima represent one path vertex")
            c_values[reps[0]] = slope(path[idx + 1], vertex) - slope(vertex, path[idx - 1])
        chain.append(reps[0])
    for a, b in zip(chain, chain[1:]):
        if not oracle.leq(a, b):
            raise DomainError("path representatives do not form a chain; "
                              "the oracle violates the lattice axioms")
    return FiltrationReport(minima=report.minima, path=path,
                            chain=tuple(chain), c_values=c_values)
