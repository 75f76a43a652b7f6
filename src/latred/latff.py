"""Volume spaces over F_q[t]: integral log-volumes, diagonal bases, orbits.

A volume space is the free module V = F_q[t]^n together with a rank-n
lattice S over the valuation ring R = {f/g : deg f <= deg g} of F_q(t),
given by a basis matrix over F_q(t) whose columns span S.  Log-volumes are
integers: the volume of a submodule W is the largest (-nu) of the maximal
minors of the matrix expressing a basis of W in a basis of S.  For W = V
that matrix is S^{-1}, so logvol(V) = nu(det S).

Every elimination runs on F_q[t] rows, not over F_q(t): the constructor
triangularizes the cleared basis S = P / den once, U P = H, and logvol(V),
singularity, the lattice inverse S^{-1} = den H^{-1} U and the
coefficients S^{-1} R^T of a submodule's rows R all come from that (H, U).
The same triangularization and back substitution (`matrices.triangularize`,
`matrices.solve_cleared`) give the coordinates of a split, by solving
against the transposed unimodular completion of the summand, and decide
that a diagonal basis is unimodular.

Every volume space admits a diagonal shape: bases (w_i) of V and (b_i) of S
with w_i = t^{r_i} b_i and ascending integers r_1 <= ... <= r_n.  The
r-vector classifies the GL_n(F_q[t])-orbit of S, carries the canonical
filtration (chain breaks where r jumps, with instability r_{m+1} - r_m),
and makes all constrained volume minima explicit:

    min { logvol(X) : X <= W, rk X = k }  =  rho_1 + ... + rho_k

for the r-vector rho of the restricted space, and similarly above W through
the quotient space.

Short-vector searches never enumerate F_q[t]-points: the set of v in V with
logvol<v> <= D is an F_q-vector space cut out by linear conditions on the
Laurent tails of S^{-1} v, so a nullspace computation over F_q finds it.
Short vectors inside a summand W are those of the restricted space.
The least feasible D lies above nu_min - 1 (nu_min the least valuation of an
entry of S) and at most at the average slope logvol(V) / n, and is found by
bisection between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import filtration, gflinalg, matrices
from .errors import DimensionError, DomainError, SingularityError
from .fq import FqRationalFunction, gf, poly, poly_one, t_power
from .rings import poly_ring


def _as_ratfunc_rows(rows):
    return tuple(tuple(FqRationalFunction.of(x) for x in row) for row in rows)


@dataclass(frozen=True)
class VolumeSpace:
    """Lattice over the infinite-place valuation ring inside F_q(t)^n.

    `basis` is an n x n matrix over F_q(t); its columns are an R-basis of
    the lattice S inside Q otimes V, written in the standard coordinates of
    V = F_q[t]^n.  The constructor clears S = P / den once and keeps
    `cleared` = (den, P), and triangularizes P once, U P = H with H upper
    triangular over F_q[t] (`matrices.triangularize`), keeping
    `triangular` = (H, U): every solve against S, `inverse_basis` and
    `ff_logvol`, reuses it.  `logvol` is the total log-volume
    logvol(V) = nu(det S) = n deg den - sum deg H_ii, and a singular basis
    is rejected by the same elimination.  All three are derived from
    `basis`, so they take no part in equality, hashing or the repr.
    """

    q: int
    n: int
    basis: tuple
    logvol: int = field(init=False, repr=False, compare=False)
    cleared: tuple = field(init=False, repr=False, compare=False)
    triangular: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _as_ratfunc_rows(self.basis)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DimensionError("basis matrix must be n x n")
        ring = poly_ring(self.q)
        den, P = matrices.clear_denominators(ring, rows)
        try:
            H, U = matrices.triangularize(ring, P)
        except SingularityError:
            raise SingularityError("lattice basis is singular") from None
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "cleared", (den, P))
        object.__setattr__(self, "triangular", (H, U))
        object.__setattr__(self, "logvol", self.n * den.num.degree
                           - sum(H[i][i].degree for i in range(self.n)))

    @staticmethod
    def standard(q, n):
        one = poly_one(q)
        zero = poly(q, [])
        rows = [[FqRationalFunction.of(one if i == j else zero) for j in range(n)]
                for i in range(n)]
        return VolumeSpace(q, n, rows)

    @staticmethod
    def from_columns(q, cols):
        n = len(cols)
        rows = [[FqRationalFunction.of(cols[j][i]) for j in range(n)] for i in range(n)]
        return VolumeSpace(q, n, rows)

    def column(self, j):
        return tuple(self.basis[i][j] for i in range(self.n))

    def scaled(self, lam):
        """The lattice lam * S for a nonzero scalar lam in F_q(t)."""
        lam = FqRationalFunction.of(lam)
        if lam.is_zero():
            raise SingularityError("scaling by zero")
        return VolumeSpace(self.q, self.n,
                           [[lam * x for x in row] for row in self.basis])

    def transformed(self, g_rows):
        """The lattice g(S) for g acting on V by the matrix with the given rows."""
        G = _as_ratfunc_rows(g_rows)
        ring = poly_ring(self.q)
        new = matrices.matmul(G, self.basis, ring.field_zero())
        return VolumeSpace(self.q, self.n, new)

    @cached_property
    def inverse_basis(self):
        return matrices.inverse_cleared(poly_ring(self.q), self.cleared[0],
                                        *self.triangular)

    def contains_lattice(self, other):
        """Whether other's lattice is contained in this one (S' subset S)."""
        ring = poly_ring(self.q)
        coeffs = matrices.matmul(self.inverse_basis, other.basis, ring.field_zero())
        return all(x.nu() >= 0 for row in coeffs for x in row)


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
# log-volume by valuation-ring column reduction
# ---------------------------------------------------------------------------

def _nu(x):
    """The degree valuation of a polynomial; +infinity at zero."""
    return -x.degree if x else math.inf


def ff_logvol(vs, submodule):
    """Integer log-volume of a submodule (any independent basis rows).

    Expresses the rows in the lattice basis and maximizes -nu over the
    maximal minors of that coefficient matrix.  R-column operations keep
    the least nu of a maximal minor, and column reduction leaves one
    nonzero maximal minor, the product of the pivots: the log-volume is
    minus the sum of the pivot valuations.  Dependent rows (or more rows
    than n) leave a row without a pivot and raise RankDeficiencyError.

    Everything runs on F_q[t] rows.  With the rows R = Rp / r cleared and
    the space's U P = H, the coefficients are the columns of
    S^-1 R^T = den H^-1 U Rp^T / r, solved as N / e by one fraction-free
    back substitution for the m rows alone, and reduced fraction-free; each
    pivot's valuation is read off N by degrees, and the common scalar
    den / (e r) adds m (deg e + deg r - deg den).
    """
    ring = poly_ring(vs.q)
    if isinstance(submodule, FFSummand):
        deg_r, rows = 0, submodule.basis
    else:
        r, rows = matrices.clear_denominators(ring, _as_ratfunc_rows(submodule))
        deg_r = r.num.degree
    if not rows:
        return 0
    H, U = vs.triangular
    e, N = matrices.solve_cleared(
        ring, H, matrices.matmul(U, matrices.transpose(rows), ring.zero()))
    steps = matrices.dvr_column_reduce([list(c) for c in N], range(len(rows)), _nu,
                                       scaled=True)
    shift = e.degree + deg_r - vs.cleared[0].num.degree
    return -sum(v + shift for _, _, v in steps)


# ---------------------------------------------------------------------------
# restriction / quotient volume spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubQuotient:
    """Restriction to a saturated summand and the induced quotient space.

    `full_rows` is unimodular over F_q[t] with the summand's m basis rows
    first.  In those coordinates the column reduction leaves S with the
    block basis [[A, X], [0, Q]]: `res` is the volume space of A, `quot`
    that of Q, and `cross` is the m x (n - m) block X.
    """

    res: VolumeSpace
    quot: VolumeSpace
    full_rows: tuple
    cross: tuple


def sub_quotient(vs, w):
    """Split (V, S) along a saturated summand W into restriction and quotient.

    Log-volumes satisfy logvol(V) = logvol(res) + logvol(quot).
    """
    if not isinstance(w, FFSummand):
        w = FFSummand.from_rows(vs.q, vs.n, w)
    ring = poly_ring(vs.q)
    n, m = vs.n, w.rank
    if m == 0 or m == n:
        raise DimensionError("restriction needs a proper nonzero summand")
    full = matrices.completion_rows(ring, w.basis)
    # coordinates of S = P / den in the basis of V given by full's rows:
    # full^-T S = N / (e den), for U full^T = H and H N = e U P
    den, P = vs.cleared
    H, U = matrices.triangularize(ring, matrices.transpose(full))
    e, N = matrices.solve_cleared(ring, H, matrices.matmul(U, P, ring.zero()))
    cols = [list(col) for col in matrices.transpose(matrices.divided(e * den.num, N))]
    # valuation-ring column reduction: clear the bottom (n-m) rows
    steps = matrices.dvr_column_reduce(cols, range(n - 1, m - 1, -1),
                                       FqRationalFunction.nu)
    pivots = [j for _, j, _ in reversed(steps)]
    res_cols = [col for j, col in enumerate(cols) if j not in pivots]
    quot_cols = [cols[j] for j in pivots]
    return SubQuotient(
        res=VolumeSpace(vs.q, m, [[c[i] for c in res_cols] for i in range(m)]),
        quot=VolumeSpace(vs.q, n - m, [[c[i] for c in quot_cols] for i in range(m, n)]),
        full_rows=full,
        cross=tuple(tuple(c[i] for c in quot_cols) for i in range(m)))


# ---------------------------------------------------------------------------
# short vectors as an F_q-vector space
# ---------------------------------------------------------------------------

def _logvol_solution_space(vs, D):
    """Echelonized F_q-basis of {v in V : logvol<v> <= D}, as polynomial vectors.

    The unknowns are the coefficients of v's polynomial entries up to degree
    dmax, and S^{-1} v, a combination of the columns of S^{-1}, must vanish
    in every Laurent degree above D.
    """
    F = gf(vs.q)
    n = vs.n
    Hinv = vs.inverse_basis
    d_prime = max(max((-x.nu() if not x.is_zero() else -10 ** 9) for x in row)
                  for row in vs.basis)
    dmax = D + max(d_prime, 0)
    if dmax < 0:
        return []
    unknowns = [(j, d) for j in range(n) for d in range(dmax + 1)]
    base = D + 1 - dmax
    rows = []
    for h_row in Hinv:
        hi = max((-x.nu() for x in h_row if not x.is_zero()), default=None)
        if hi is None:
            continue
        kmax = hi + dmax
        if kmax <= D:
            continue
        coeff_cache = [None if x.is_zero() else x.laurent_coefficients(base, kmax)
                       for x in h_row]
        for kk in range(D + 1, kmax + 1):
            row = []
            for (j, d) in unknowns:
                cc = coeff_cache[j]
                if cc is None:
                    row.append(0)
                else:
                    idx = kk - d - base
                    row.append(cc[idx] if 0 <= idx < len(cc) else 0)
            if any(row):
                rows.append(row)
    null = gflinalg.nullspace(F, rows, ncols=len(unknowns))
    width = dmax + 1
    return [tuple(poly(F, sol[j * width:(j + 1) * width]) for j in range(n))
            for sol in null]


def short_vector_space_dim(vs, D):
    """dim_Fq of {v in V : logvol<v> <= D}.

    A volume probe independent of the diagonal-basis induction: the dimension
    jumps read off the multiset of diagonal exponents.  On a summand W the
    same probe runs on the restricted space `sub_quotient(vs, W).res`.
    """
    return len(_logvol_solution_space(vs, D))


def shortest_vector(vs):
    """A primitive vector of minimal log-volume, with that minimum.

    Deterministic: the first vector of the echelonized solution space at the
    minimal feasible bound.  That bound is bisected between nu_min - 1, which
    no vector meets (S^{-1} v has an entry of valuation <= -nu_min), and the
    average slope, which some vector always meets.
    """
    lo = min(x.nu() for row in vs.basis for x in row if not x.is_zero()) - 1
    hi = vs.logvol // vs.n
    basis = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = _logvol_solution_space(vs, mid)
        if found:
            hi, basis = mid, found
        else:
            lo = mid
    if basis is None:
        basis = _logvol_solution_space(vs, hi)
    return basis[0], hi


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
        ring = poly_ring(vs.q)
        if tuple(sorted(self.r)) != self.r:
            raise DomainError("r-vector is not ascending")
        # U w = H with U unimodular: a square w is unimodular when H's pivots
        # are units
        H = None
        if len(self.w) == vs.n and all(len(row) == vs.n for row in self.w):
            try:
                H, _ = matrices.triangularize(ring, self.w)
            except SingularityError:
                pass
        if H is None or not all(ring.is_unit(H[i][i]) for i in range(vs.n)):
            raise DomainError("w is not unimodular over F_q[t]")
        coeff = matrices.matmul(vs.inverse_basis, matrices.transpose(self.b),
                                ring.field_zero())
        if any(x.nu() < 0 for row in coeff for x in row):
            raise DomainError("b is not contained in the lattice")
        # b inside S spans it exactly when nu(det S^-1 b^T) = sum r - logvol(V)
        # is zero
        if sum(self.r) != ff_logvol(vs, matrices.identity_rows(
                vs.n, ring.one(), ring.zero())):
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
    sq = sub_quotient(vs, FFSummand.from_rows(vs.q, n, [v]))
    inner = diagonal_basis(sq.quot)
    (xq,) = matrices.matmul(sq.cross, sq.quot.inverse_basis, ring.field_zero())
    full_cols = matrices.transpose(sq.full_rows)
    w_rows = [tuple(v)]  # full_rows[0] is v only up to a unit
    for wbar in inner.w:
        x = sum((a * c for a, c in zip(xq, wbar) if c), ring.field_zero())
        coords = (x.num // x.den, *wbar)
        w_rows.append(tuple(sum((c * e for c, e in zip(coords, col) if c), ring.zero())
                            for col in full_cols))
    return DiagonalBasisResult(vs, tuple(w_rows), (r1, *inner.r))


# ---------------------------------------------------------------------------
# invariants, filtration and the oracle
# ---------------------------------------------------------------------------

def ff_invariants_and_filtration(vs):
    """The orbit r-vector and the canonical filtration report."""
    oracle = FFOracle(vs)
    return oracle.diag.r, filtration.canonical_filtration(oracle)


class FFOracle(filtration.LatticeOracle):
    """Lattice oracle for (summands of F_q[t]^n, rank, logvol(S)).

    Per-rank minima come from one diagonal basis, `diag`: the rank-m
    minimum is r_1 + ... + r_m, attained by the span of the first m diagonal
    vectors, which is the only minimizer where r jumps.  A summand splits
    once, by `sub_quotient`, into the oracles of its restricted and
    quotient spaces.
    """

    zero_value = Fraction(0)

    def __init__(self, vs):
        super().__init__(vs.n, Fraction(vs.logvol))
        self.vs = vs

    @cached_property
    def diag(self):
        return diagonal_basis(self.vs)

    def zero(self):
        return FFSummand.zero(self.vs.q, self.vs.n)

    def one(self):
        return FFSummand.full(self.vs.q, self.vs.n)

    def rank_minimum(self, m):
        return Fraction(sum(self.diag.r[:m]))

    def rank_minima(self, m):
        """The span of the m shortest diagonal vectors and its log-volume."""
        return [self.diag.chain_summand(m)], self.rank_minimum(m)

    def _logvol(self, w):
        return Fraction(ff_logvol(self.vs, w))

    def _split(self, w):
        sq = sub_quotient(self.vs, w)
        return FFOracle(sq.res), FFOracle(sq.quot)


def instability_ff(vs, w):
    """Exact instability number of a proper nonzero summand.

    Equals (first quotient r-value) - (last restricted r-value); both sides
    come from constrained per-rank minima.
    """
    return filtration.c_value(FFOracle(vs), w)
