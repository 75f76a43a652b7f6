"""Volume spaces over F_q[t]: integral log-volumes, diagonal bases, orbits.

A volume space is the free module V = F_q[t]^n together with a rank-n
lattice S over the valuation ring R = {f/g : deg f <= deg g} of F_q(t),
given by a basis matrix over F_q(t) whose columns span S.  Log-volumes are
integers: the volume of a submodule W is the largest (-nu) of the maximal
minors of the matrix expressing a basis of W in a basis of S.  For W = V
that matrix is S^{-1}, so logvol(V) = nu(det S).

A volume space is stored in one form, on F_q[t] rows: S = P / den with den
monic and P sharing no factor with it, and the triangularization U P = H.
Only the public constructor clears F_q(t) entries; scaled, transformed,
quotient and frame spaces are built from a denominator and ring rows.
logvol(V), singularity, the lattice inverse S^{-1} = den H^{-1} U and the
coefficients S^{-1} R^T of rows R all come from (H, U), by one
fraction-free back substitution (`matrices.solve_cleared`); the quotient
by a line, which a diagonal basis recurses on, solves against the
transposed unimodular completion of the line and reduces its columns
fraction-free.  The F_q(t) basis is derived only on demand.

Every volume space admits a diagonal shape: bases (w_i) of V and (b_i) of S
with w_i = t^{r_i} b_i and ascending integers r_1 <= ... <= r_n.  The
r-vector classifies the GL_n(F_q[t])-orbit of S, carries the canonical
filtration (chain breaks where r jumps, with instability r_{m+1} - r_m),
and makes all constrained volume minima explicit:

    min { logvol(X) : X <= W, rk X = k }  =  rho_1 + ... + rho_k

for the r-vector rho of the restricted space, and similarly above W through
the quotient space.

Short vectors never enumerate F_q[t]-points and never search a bound: a
vector v has logvol<v> = deg(M v) - deg e for S^{-1} = M / e, and one column
reduction of M (Lenstra, J. Comput. Syst. Sci. 30, 1985) gives a basis W of
V with M W column reduced.  The column degrees of M W minus deg e are the
r-vector, and the vectors of least log-volume r_1 are the F_q-span of the
columns of degree r_1.  The same reduction of S^{-1} R^T, for a basis R of
a summand W, gives W's restricted r-vector, whose sum is logvol(W), and
that of W's annihilator in the dual space gives the quotient's, since
(V/W)^v = W^perp: one reduction each, and no volume space for either.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import filtration, gflinalg, matrices
from .errors import DimensionError, DomainError, SingularityError
from .fq import FqPolynomial, FqRationalFunction, gf, poly, poly_one, t_power
from .rings import poly_ring


def _entry(q, x):
    """x, checked to be a polynomial or a rational function over F_q: the
    check on every entry that enters a volume space or `ff_logvol`."""
    if not isinstance(x, (FqPolynomial, FqRationalFunction)):
        raise TypeError(f"cannot coerce {x!r} into F_q(t)")
    if x.field.q != q:
        raise DomainError(f"entry {x} lies over F_{x.field.q}, not over F_{q}")
    return x


def _ring_rows(q, rows):
    """(den, P) with rows = P / den over F_q[t]: polynomial rows pass through,
    rows with a rational function are cleared once."""
    rows = matrices.freeze([[_entry(q, x) for x in row] for row in rows])
    if all(isinstance(x, FqPolynomial) for row in rows for x in row):
        return poly_one(q), rows
    return matrices.clear_denominators(poly_ring(q), rows)


@dataclass(frozen=True, init=False, repr=False)
class VolumeSpace:
    """Lattice over the infinite-place valuation ring inside F_q(t)^n.

    `VolumeSpace(q, n, basis)` takes an n x n matrix over F_q(t) (or
    F_q[t]) whose columns are an R-basis of the lattice S, in the standard
    coordinates of V = F_q[t]^n.  It is stored as the canonical pair
    `cleared` = (den, P), S = P / den with den monic and no factor common
    to den and all of P, on which equality and hashing rest, and as
    `triangular` = (H, U), U P = H with H upper triangular, which every
    solve against S reuses.  `logvol` = nu(det S) = n deg den - sum deg H_ii,
    and a singular basis is rejected by the same elimination.  `basis`,
    the F_q(t) matrix P / den, is derived on demand.
    """

    q: int
    n: int
    cleared: tuple
    triangular: tuple = field(compare=False)
    logvol: int = field(compare=False)

    def __init__(self, q, n, basis):
        self._fill(q, n, *_ring_rows(q, basis))

    @staticmethod
    def _from_cleared(q, n, den, P):
        """The space P / den, for a nonzero den and ring rows P over F_q[t]."""
        vs = object.__new__(VolumeSpace)
        vs._fill(q, n, den, P)
        return vs

    def _fill(self, q, n, den, P):
        """Store P / den as its canonical pair, P and den divided by den's gcd
        with P's entries times den's leading coefficient, and triangularize."""
        ring = poly_ring(q)
        P = matrices.freeze(P)
        if len(P) != n or any(len(r) != n for r in P):
            raise DimensionError("basis matrix must be n x n")
        unit, g = ring.unit_normalize(den)
        g = matrices.content(ring, g, itertools.chain.from_iterable(P))
        if (c := g * unit) != ring.one():
            den, P = den // c, matrices.freeze([[x // c for x in row] for row in P])
        try:
            H, U = matrices.triangularize(ring, P)
        except SingularityError:
            raise SingularityError("lattice basis is singular") from None
        vars(self).update(q=q, n=n, cleared=(den, P), triangular=(H, U),
                          logvol=n * den.degree - sum(H[i][i].degree for i in range(n)))

    def __repr__(self):
        return f"VolumeSpace(q={self.q!r}, n={self.n!r}, basis={self.basis!r})"

    @cached_property
    def basis(self):
        return matrices.divided(*self.cleared)

    @staticmethod
    def standard(q, n):
        return VolumeSpace(q, n, matrices.identity_rows(n, poly_one(q), poly(q, [])))

    def scaled(self, lam):
        """The lattice lam * S for a nonzero scalar lam in F_q(t)."""
        a, d = matrices._num_den(_entry(self.q, lam))
        if not a:
            raise SingularityError("scaling by zero")
        den, P = self.cleared
        return VolumeSpace._from_cleared(self.q, self.n, d * den,
                                         [[a * x if x else x for x in row] for row in P])

    def transformed(self, g_rows):
        """The lattice g(S) for g acting on V by the matrix with the given rows."""
        d, G = _ring_rows(self.q, g_rows)
        den, P = self.cleared
        return VolumeSpace._from_cleared(self.q, self.n, d * den,
                                         matrices.matmul(G, P, poly_ring(self.q).zero()))

    @cached_property
    def _inverse(self):
        """(e, M) with S^-1 = M / e on ring rows: H N = e U and M = den N."""
        e, N = matrices.solve_cleared(poly_ring(self.q), *self.triangular)
        return e, matrices.freeze([[self.cleared[0] * x for x in row] for row in N])

    @cached_property
    def _reduced(self):
        """(w, r), sorted by ascending r (stable): rows w_i, a basis of V
        that makes M W column reduced (`matrices.column_reduce` from W = I)
        for S^-1 = M / e, and r_i = deg(M w_i) - deg e.  Then v = W c has
        deg(M v) = max_i (deg c_i + deg M w_i): r is the splitting type, and
        the vectors of logvol <= r_1 are the F_q-span of the w_i with r_i = r_1.
        """
        F, n = gf(self.q), self.n
        e, M = self._inverse
        w = [list(row) for row in matrices.identity_rows(n, poly_one(F), poly(F, []))]
        deg = matrices.column_reduce(F, [list(col) for col in matrices.transpose(M)], (w,))
        order = sorted(range(n), key=deg.__getitem__)
        return (tuple(tuple(w[j]) for j in order),
                tuple(deg[j] - e.degree for j in order))

    def _solve(self, rows):
        """(e, N) with S^-1 R^T = den N / e for ring rows R: H N = e U R^T."""
        ring, (H, U) = poly_ring(self.q), self.triangular
        return matrices.solve_cleared(
            ring, H, matrices.matmul(U, matrices.transpose(rows), ring.zero()))


@dataclass(frozen=True)
class FFSummand(matrices.Summand):
    """Saturated F_q[t]-submodule of F_q[t]^n in canonical HNF basis form."""

    q: int
    n: int
    basis: tuple

    @property
    def ring(self):
        return poly_ring(self.q)

    @staticmethod
    def from_rows(q, n, rows):
        return FFSummand.zero(q, n)._span(rows)

    @staticmethod
    def zero(q, n):
        return FFSummand(q, n, ())

    @staticmethod
    def full(q, n):
        ring = poly_ring(q)
        return FFSummand(q, n, matrices.identity_rows(n, ring.one(), ring.zero()))


# ---------------------------------------------------------------------------
# log-volumes, restrictions and quotients
# ---------------------------------------------------------------------------

def ff_logvol(vs, submodule):
    """Integer log-volume of a submodule (any independent basis rows): the
    sum of its restricted r-vector.  Dependent rows (or more rows than n)
    raise RankDeficiencyError."""
    r, rows = _ring_rows(vs.q, submodule.basis if isinstance(submodule, FFSummand)
                         else submodule)
    return sum(_restricted_r(vs, r, rows)) if rows else 0


def _restricted_r(vs, r, rows):
    """The unsorted r-vector of the space restricted to the span W of the
    rows R = rows / r, a basis of W: R^T x has logvol = deg(S^-1 R^T x), so
    with S^-1 R^T = den N / (e r), solved against the kept (H, U) for these
    rows alone, it is N's reduced column degrees + deg den - deg e - deg r.
    Their sum is the largest degree of a maximal minor, logvol(W)."""
    e, N = vs._solve(rows)
    shift = vs.cleared[0].degree - e.degree - r.degree
    return [d + shift for d in matrices.column_reduce(
        gf(vs.q), [list(col) for col in matrices.transpose(N)])]


def _quotient_r(vs, w):
    """The r-vector of the quotient by a saturated summand W.  (V/W)^v is
    W's annihilator, with basis K, in the dual space, whose lattice S^-T has
    inverse P^T / den: its r-vector is the reduced column degrees of P^T K^T
    minus deg den, and the quotient's is minus that one reversed."""
    ring = poly_ring(vs.q)
    K = matrices.split_hnf(ring, matrices.transpose(w.basis),
                           matrices.identity_rows(vs.n, ring.one(), ring.zero()))
    den, P = vs.cleared
    # the columns of P^T K^T are the rows of K P
    deg = matrices.column_reduce(gf(vs.q), [list(row) for row in
                                            matrices.matmul(K, P, ring.zero())])
    return tuple(sorted(den.degree - d for d in deg))


def _nu(x):
    """The degree valuation of a polynomial; +infinity at zero."""
    return -x.degree if x else math.inf


def _line_quotient(vs, v):
    """(full, quot, cross) for the saturated line L spanned by v: `full` is
    unimodular with L's basis row first, in whose coordinates the column
    reduction leaves S with the block basis [[A, X], [0, Q]]; `quot` is the
    space of Q, and `cross` the block X as (d, Xn), X = Xn / d."""
    ring, n = poly_ring(vs.q), vs.n
    full = matrices.completion_rows(ring, FFSummand.from_rows(vs.q, n, [v]).basis)
    # coordinates of S = P / den in the basis of V given by full's rows:
    # full^-T S = N / (e den), for U full^T = H and H N = e U P
    den, P = vs.cleared
    H, U = matrices.triangularize(ring, matrices.transpose(full))
    e, N = matrices.solve_cleared(ring, H, matrices.matmul(U, P, ring.zero()))
    # fraction-free valuation-ring column reduction of the bottom n - 1
    # rows: each column ends with its multiplier d_j and stands for
    # N_j / (e den d_j)
    cols = [[*col, ring.one()] for col in matrices.transpose(N)]
    steps = matrices.dvr_column_reduce(cols, range(n - 1, 0, -1), _nu, scaled=ring)
    pivots = [cols[j] for _, j, _ in reversed(steps)]
    lcm = ring.one()  # of the pivot columns' multipliers
    for *_, d in pivots:
        lcm = lcm * (d // ring.gcd(lcm, d))
    quot_den = e * den * lcm
    quot = matrices.transpose([[x * (lcm // col[-1]) for x in col[:-1]] for col in pivots])
    return (full, VolumeSpace._from_cleared(vs.q, n - 1, quot_den, quot[1:]),
            (quot_den, quot[:1]))


# ---------------------------------------------------------------------------
# shortest vectors
# ---------------------------------------------------------------------------

def shortest_vector(vs):
    """A primitive vector of minimal log-volume r_1, with that minimum.

    The vectors v with logvol<v> <= r_1 are the F_q-span of the reduced w_i
    with r_i = r_1.  Flattened entry by entry in ascending degree, the span
    has one echelon vector whose last nonzero coordinate comes first, scaled
    to 1 there; it depends on the span and the coordinate order alone, so it
    is deterministic.
    """
    F = gf(vs.q)
    w, r = vs._reduced
    short = [w_i for w_i, r_i in zip(w, r) if r_i == r[0]]
    width = 1 + max(x.degree for w_i in short for x in w_i)
    # reversed coordinates: the last echelon row pivots on the least last
    # nonzero coordinate
    rows, _ = gflinalg.rref(F, [tuple(c for x in reversed(w_i) for c in
                                      reversed(x.coeffs + (0,) * (width - 1 - x.degree)))
                                for w_i in short])
    v = rows[-1][::-1]
    return tuple(poly(F, v[j * width:(j + 1) * width]) for j in range(vs.n)), r[0]


# ---------------------------------------------------------------------------
# diagonal bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalBasisResult:
    """A basis w of V and ascending integers r with t^{-r_i} w_i a basis b of S."""

    space: VolumeSpace
    w: tuple  # rows over F_q[t]
    r: tuple  # ascending integers

    @cached_property
    def b(self):
        """The lattice basis b_i = t^{-r_i} w_i, rows over F_q(t)."""
        return tuple(tuple(t_power(self.space.q, -r_i) * FqRationalFunction.of(x)
                           for x in w_i) for w_i, r_i in zip(self.w, self.r))

    def chain_summand(self, m):
        """The canonical summand spanned by the m shortest diagonal vectors."""
        return FFSummand.from_rows(self.space.q, self.space.n, self.w[:m])

    def validate(self):
        vs = self.space
        if tuple(sorted(self.r)) != self.r:
            raise DomainError("r-vector is not ascending")
        # a square w is unimodular when det w is a unit: the volume space
        # with basis matrix w has log-volume -deg det w = 0
        try:
            unimodular = VolumeSpace(vs.q, vs.n, self.w).logvol == 0
        except (DimensionError, SingularityError):
            unimodular = False
        if not unimodular:
            raise DomainError("w is not unimodular over F_q[t]")
        # with S^-1 w^T = den N / e, entry (k, i) of S^-1 b^T, b_i = t^-r_i w_i,
        # has valuation deg e - deg den - deg N_ki + r_i
        e, N = vs._solve(self.w)
        top = e.degree - vs.cleared[0].degree
        if any(x and x.degree > top + r for row in N for x, r in zip(row, self.r)):
            raise DomainError("b is not contained in the lattice")
        # b inside S spans it exactly when nu(det S^-1 b^T) = sum r - logvol(V)
        # is zero
        if sum(self.r) != vs.logvol:
            raise DomainError("sum of r-values != total log-volume")


def diagonal_basis(vs):
    """Diagonal shape of a volume space, by shortest-vector splitting.

    Finds a shortest primitive vector v, of log-volume r_1, splits off the
    saturated line it spans and recurses on the quotient.  In the split's
    coordinates S has the basis [[A, X], [0, Q]], and a quotient diagonal
    vector wbar_i lifts to the coordinates (floor(x_i), wbar_i), with
    x_i = X Q^-1 wbar_i and floor the polynomial part.  t^{-r_i} (x_i, wbar_i)
    lies in S, and t^{-r_i} (x_i - floor(x_i)) has valuation > r_i >= r_1 =
    nu(A), so it is an R-multiple of A.  A rank-0 space has the empty
    diagonal basis.
    """
    ring = poly_ring(vs.q)
    n = vs.n
    if n == 0:
        return DiagonalBasisResult(vs, (), ())
    if n == 1:
        return DiagonalBasisResult(vs, ((ring.one(),),), (vs.logvol,))
    v, r1 = shortest_vector(vs)
    full, quot, (d, (xn,)) = _line_quotient(vs, v)
    inner = diagonal_basis(quot)
    # with X = Xn / d and Q^-1 wbar_i = den Y_i / e, x_i = den Xn Y_i / (d e)
    e, Y = quot._solve(inner.w)
    (xs,) = matrices.matmul((xn,), Y, ring.zero())
    den = quot.cleared[0]
    coords = [((den * x) // (d * e), *wbar) for x, wbar in zip(xs, inner.w)]
    # full[0] is v only up to a unit
    w_rows = (tuple(v), *matrices.matmul(coords, full, ring.zero()))
    return DiagonalBasisResult(vs, w_rows, (r1, *inner.r))


# ---------------------------------------------------------------------------
# invariants, filtration and the oracle
# ---------------------------------------------------------------------------

def ff_invariants_and_filtration(vs):
    """The orbit r-vector and the canonical filtration report."""
    oracle = FFOracle(vs)
    return oracle.diag.r, filtration.canonical_filtration(oracle)


class FFOracle(filtration.LatticeOracle):
    """Lattice oracle for (summands of F_q[t]^n, rank, logvol(S)).

    The rank-m minimum is r_1 + ... + r_m, read off the space's column
    reduction.  It is attained by the span of the first m vectors of one
    diagonal basis, `diag`, which is the only minimizer where r jumps and is
    built only where `rank_minima` asks for it.  A summand's restricted and
    quotient spaces are their r-vectors, each read off one column reduction,
    and no volume space is built for either.
    """

    zero_value = 0

    def __init__(self, vs):
        super().__init__(vs.n, vs.logvol)
        self.vs = vs

    @cached_property
    def diag(self):
        return diagonal_basis(self.vs)

    def zero(self):
        return FFSummand.zero(self.vs.q, self.vs.n)

    def one(self):
        return FFSummand.full(self.vs.q, self.vs.n)

    def rank_minimum(self, m):
        return sum(self.vs._reduced[1][:m])

    def rank_minima(self, m):
        """The span of the m shortest diagonal vectors and its log-volume."""
        return [self.diag.chain_summand(m)], self.rank_minimum(m)

    def _restricted(self, w):
        return _RVector(tuple(sorted(_restricted_r(self.vs, poly_one(self.vs.q), w.basis))))

    def _quotient(self, w):
        return _RVector(_quotient_r(self.vs, w))


@dataclass(frozen=True)
class _RVector:
    """The rank minima r_1 + ... + r_m of a space with ascending r-vector r."""

    r: tuple

    def rank_minimum(self, m):
        return sum(self.r[:m])

    @property
    def total(self):
        return self.rank_minimum(len(self.r))


def instability_ff(vs, w):
    """Exact instability number of a proper nonzero summand.

    Equals (first quotient r-value) - (last restricted r-value); both sides
    come from constrained per-rank minima.
    """
    return filtration.c_value(FFOracle(vs), w)
