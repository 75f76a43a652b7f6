"""Volume spaces over F_q[t]: integral log-volumes, diagonal bases, orbits.

A volume space is the free module V = F_q[t]^n together with a rank-n
lattice S over the valuation ring R = {f/g : deg f <= deg g} of F_q(t),
given by a basis matrix over F_q(t) whose columns span S.  Log-volumes are
integers: the volume of a submodule W is the largest (-nu) of the maximal
minors of the matrix expressing a basis of W in a basis of S.  For W = V
that matrix is S^{-1}, so logvol(V) = nu(det S).

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
The least feasible D lies above nu_min - 1 (nu_min the least valuation of an
entry of S) and at most at the average slope logvol(V) / n, and is found by
bisection between the two.
"""

from __future__ import annotations

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
    V = F_q[t]^n.  `logvol` is the total log-volume logvol(V) = nu(det S),
    kept from the singularity check.
    """

    q: int
    n: int
    basis: tuple
    logvol: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _as_ratfunc_rows(self.basis)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DimensionError("basis matrix must be n x n")
        ring = poly_ring(self.q)
        d = matrices.det_field(rows, ring.field_zero(), ring.field_one())
        if d.is_zero():
            raise SingularityError("lattice basis is singular")
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "logvol", d.nu())

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
        ring = poly_ring(self.q)
        return matrices.inverse_field(self.basis, ring.field_zero(), ring.field_one())

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

def ff_logvol(vs, submodule):
    """Integer log-volume of a submodule (any independent basis rows).

    Expresses the rows in the lattice basis and maximizes -nu over the
    maximal minors of that coefficient matrix.  R-column operations keep
    the least nu of a maximal minor, and column reduction leaves one
    nonzero maximal minor, the product of the pivots: the log-volume is
    minus the sum of the pivot valuations.  Dependent rows (or more rows
    than n) leave a row without a pivot and raise RankDeficiencyError.
    """
    if isinstance(submodule, FFSummand):
        rows = submodule.basis
    else:
        rows = matrices.freeze(submodule)
    if not rows:
        return 0
    ring = poly_ring(vs.q)
    rows = _as_ratfunc_rows(rows)
    lam = matrices.matmul(rows, matrices.transpose(vs.inverse_basis),
                          ring.field_zero())
    cols = [list(c) for c in matrices.transpose(lam)]
    steps = matrices.dvr_column_reduce(cols, range(len(rows)), FqRationalFunction.nu)
    return -sum(v for _, _, v in steps)


# ---------------------------------------------------------------------------
# restriction / quotient volume spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubQuotient:
    """Restriction to a saturated summand and the induced quotient space.

    `full_rows` is unimodular over F_q[t] with the summand's basis as its
    first rows; `res`/`quot` are volume spaces in those coordinates, and
    `quot_lift_cols` are ambient preimages in S of the quotient basis.
    """

    res: VolumeSpace
    quot: VolumeSpace
    full_rows: tuple
    quot_lift_cols: tuple


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
    full_rat = _as_ratfunc_rows(full)
    Minv = matrices.inverse_field(matrices.transpose(full_rat),
                                  ring.field_zero(), ring.field_one())
    coords = matrices.matmul(Minv, vs.basis, ring.field_zero())
    cols = [list(col) for col in matrices.transpose(coords)]
    # valuation-ring column reduction: clear the bottom (n-m) rows
    steps = matrices.dvr_column_reduce(cols, range(n - 1, m - 1, -1),
                                       FqRationalFunction.nu)
    pivots = [j for _, j, _ in reversed(steps)]
    available = [j for j in range(n) if j not in pivots]
    res_cols = [cols[j] for j in available]
    res_rows = [[res_cols[j][i] for j in range(m)] for i in range(m)]
    quot_rows = [[cols[pivots[j]][m + i] for j in range(n - m)] for i in range(n - m)]
    res = VolumeSpace(vs.q, m, res_rows)
    quot = VolumeSpace(vs.q, n - m, quot_rows)
    # ambient preimages of the quotient basis columns: Mfull^T . column
    fullT = matrices.transpose(full_rat)
    lifts = []
    for j in pivots:
        col = cols[j]
        amb = [sum((fullT[i][k] * col[k] for k in range(n)), ring.field_zero())
               for i in range(n)]
        lifts.append(tuple(amb))
    return SubQuotient(res=res, quot=quot, full_rows=full,
                       quot_lift_cols=tuple(lifts))


# ---------------------------------------------------------------------------
# short vectors as an F_q-vector space
# ---------------------------------------------------------------------------

def _logvol_solution_space(vs, D, gens=None):
    """Echelonized F_q-basis of {v : logvol<v> <= D}, v in the span of gens.

    gens defaults to the standard basis of V; rows are polynomial vectors.
    Returns a list of polynomial coordinate vectors (ambient coordinates).
    """
    ring = poly_ring(vs.q)
    F = gf(vs.q)
    n = vs.n
    if gens is None:
        gens = matrices.identity_rows(n, ring.one(), ring.zero())
        deg_slack = 0
    else:
        gens = matrices.freeze(gens)
        full = matrices.completion_rows(ring, gens)
        inv = matrices.inverse_unimodular(ring, full)
        deg_slack = max(max((x.degree for x in row), default=0) for row in inv)
        deg_slack = max(deg_slack, 0)
    k = len(gens)
    Hinv = vs.inverse_basis
    d_prime = max(max((-x.nu() if not x.is_zero() else -10 ** 9) for x in row)
                  for row in vs.basis)
    dmax = D + max(d_prime, 0) + deg_slack
    if dmax < 0:
        return []
    ring_zero = ring.field_zero()
    # images of the generators under S^{-1}
    HG = []
    for g_row in gens:
        gcol = [FqRationalFunction.of(x) for x in g_row]
        img = [sum((Hinv[i][j] * gcol[j] for j in range(n)), ring_zero)
               for i in range(n)]
        HG.append(img)
    unknowns = [(j, d) for j in range(k) for d in range(dmax + 1)]
    rows = []
    for i in range(n):
        hi = max((-HG[j][i].nu() for j in range(k) if not HG[j][i].is_zero()),
                 default=None)
        if hi is None:
            continue
        kmax = hi + dmax
        if kmax <= D:
            continue
        coeff_cache = {}
        for j in range(k):
            if HG[j][i].is_zero():
                coeff_cache[j] = None
            else:
                coeff_cache[j] = HG[j][i].laurent_coefficients(D + 1 - dmax, kmax)
        base = D + 1 - dmax
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
    vectors = []
    for sol in null:
        pcoeffs = [[0] * (dmax + 1) for _ in range(k)]
        for (j, d), c in zip(unknowns, sol):
            pcoeffs[j][d] = c
        ps = [poly(F, cs) for cs in pcoeffs]
        vec = [ring.zero()] * n
        for j in range(k):
            if ps[j]:
                for col in range(n):
                    vec[col] = vec[col] + ps[j] * gens[j][col]
        vectors.append(tuple(vec))
    return vectors


def short_vector_space_dim(vs, D, gens=None):
    """dim_Fq of {v : logvol<v> <= D, v in the span of gens} (default: all of V).

    A volume probe independent of the diagonal-basis induction: the dimension
    jumps read off the multiset of diagonal exponents.
    """
    return len(_logvol_solution_space(vs, D, gens=gens))


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
    """Bases w (of V) and b (of S) with w_i = t^{r_i} b_i, r ascending."""

    space: VolumeSpace
    w: tuple  # rows over F_q[t]
    b: tuple  # rows over F_q(t)
    r: tuple  # ascending integers

    def chain_summand(self, m):
        """The canonical summand spanned by the m shortest diagonal vectors."""
        return FFSummand.from_rows(self.space.q, self.space.n, self.w[:m])

    def validate(self):
        vs = self.space
        ring = poly_ring(vs.q)
        n = vs.n
        if tuple(sorted(self.r)) != self.r:
            raise DomainError("r-vector is not ascending")
        for w_i, b_i, r_i in zip(self.w, self.b, self.r):
            scale = t_power(vs.q, r_i)
            if any(FqRationalFunction.of(a) != scale * bb for a, bb in zip(w_i, b_i)):
                raise DomainError("w_i != t^{r_i} b_i")
        dw = matrices.det_field(_as_ratfunc_rows(self.w), ring.field_zero(),
                                ring.field_one())
        if not dw.is_integral() or dw.num.degree != 0:
            raise DomainError("w is not unimodular over F_q[t]")
        coeff = matrices.matmul(vs.inverse_basis,
                                matrices.transpose(_as_ratfunc_rows(self.b)),
                                ring.field_zero())
        if any(x.nu() < 0 for row in coeff for x in row):
            raise DomainError("b is not contained in the lattice")
        dk = matrices.det_field(coeff, ring.field_zero(), ring.field_one())
        if dk.nu() != 0:
            raise DomainError("b does not span the lattice over R")
        if sum(self.r) != ff_logvol(vs, matrices.identity_rows(
                n, ring.one(), ring.zero())):
            raise DomainError("sum of r-values != total log-volume")


def diagonal_basis(vs):
    """Diagonal shape of a volume space, by shortest-vector splitting.

    Finds a shortest primitive vector, splits off the saturated line it
    spans, recurses on the quotient, lifts, and clears the off-diagonal
    coefficients by Laurent-tail reduction.  A rank-0 space has the empty
    diagonal basis.
    """
    ring = poly_ring(vs.q)
    n = vs.n
    if n == 0:
        return DiagonalBasisResult(vs, (), (), ())
    if n == 1:
        r1 = vs.logvol
        return DiagonalBasisResult(vs, ((ring.one(),),), ((t_power(vs.q, -r1),),), (r1,))
    v, r1 = shortest_vector(vs)
    b1 = tuple(t_power(vs.q, -r1) * FqRationalFunction.of(x) for x in v)
    lead = next(j for j, x in enumerate(v) if x)
    line = FFSummand.from_rows(vs.q, n, [v])
    sq = sub_quotient(vs, line)
    inner = diagonal_basis(sq.quot)
    comp_rows = sq.full_rows[1:]
    quot_inv = sq.quot.inverse_basis
    w_rows = [tuple(v)]
    b_rows = [b1]
    r_list = [r1]
    for i in range(n - 1):
        # lift the quotient diagonal vectors through the chosen splitting
        wbar = inner.w[i]
        w_i = [ring.zero()] * n
        for kidx in range(n - 1):
            if wbar[kidx]:
                for col in range(n):
                    w_i[col] = w_i[col] + wbar[kidx] * comp_rows[kidx][col]
        bbar = inner.b[i]
        kappa = [sum((quot_inv[a][c] * bbar[c] for c in range(n - 1)),
                     ring.field_zero()) for a in range(n - 1)]
        b_i = [ring.field_zero()] * n
        for kidx in range(n - 1):
            if not kappa[kidx].is_zero():
                for col in range(n):
                    b_i[col] = b_i[col] + kappa[kidx] * sq.quot_lift_cols[kidx][col]
        r_i = inner.r[i]
        # w_i - t^{r_i} b_i = s_i b1 lies on the split-off line, so one
        # coordinate where b1 is nonzero gives s_i; clear its coefficient
        s_i = (FqRationalFunction.of(w_i[lead]) - t_power(vs.q, r_i) * b_i[lead]) / b1[lead]
        if not s_i.is_zero() and -s_i.nu() >= r1:
            head = s_i.truncate_at_infinity(r1)
            # subtract the integral multiple (head / t^{r1}) * w_1
            mult = (head / t_power(vs.q, r1)).as_polynomial()
            for col in range(n):
                w_i[col] = w_i[col] - mult * v[col]
            s_i = s_i - head
        if not s_i.is_zero():
            shift = s_i / t_power(vs.q, r_i)
            b_i = [bb + shift * b1c for bb, b1c in zip(b_i, b1)]
        w_rows.append(tuple(w_i))
        b_rows.append(tuple(b_i))
        r_list.append(r_i)
    order = sorted(range(n), key=lambda i: r_list[i])
    result = DiagonalBasisResult(
        vs,
        tuple(w_rows[i] for i in order),
        tuple(b_rows[i] for i in order),
        tuple(r_list[i] for i in order),
    )
    return result


# ---------------------------------------------------------------------------
# invariants, filtration and the oracle
# ---------------------------------------------------------------------------

def ff_invariants_and_filtration(vs):
    """The orbit r-vector and the canonical filtration report."""
    oracle = FFOracle(vs)
    return oracle.diag.r, filtration.canonical_filtration(oracle)


class FFOracle:
    """Lattice oracle for (summands of F_q[t]^n, rank, logvol(S)).

    Per-rank minima come from one diagonal basis, `diag`: the rank-m
    minimum is r_1 + ... + r_m, attained by the span of the first m diagonal
    vectors, which is the only minimizer where r jumps.
    """

    def __init__(self, vs):
        self.vs = vs
        self.top_rank = vs.n
        self._rho_cache = {}

    @cached_property
    def diag(self):
        return diagonal_basis(self.vs)

    def zero(self):
        return FFSummand.zero(self.vs.q, self.vs.n)

    def one(self):
        return FFSummand.full(self.vs.q, self.vs.n)

    def rank(self, w):
        return w.rank

    def logvol(self, w):
        return Fraction(ff_logvol(self.vs, w))

    def leq(self, a, b):
        return b.contains(a)

    def _r_vector(self, kind, w):
        key = (kind, w.basis)
        if key not in self._rho_cache:
            rv = restricted_r_vector if kind == "rho" else quotient_r_vector
            self._rho_cache[key] = rv(self.vs, w)
        return self._rho_cache[key]

    def rank_minima(self, m):
        """The span of the m shortest diagonal vectors and its log-volume."""
        return [self.diag.chain_summand(m)], Fraction(sum(self.diag.r[:m]))

    def min_logvol_below(self, w, m):
        if m == 0:
            return Fraction(0)
        return Fraction(sum(self._r_vector("rho", w)[:m]))

    def min_logvol_above(self, w, m):
        if m == self.top_rank:
            return Fraction(self.vs.logvol)
        return self.logvol(w) + Fraction(sum(self._r_vector("sigma", w)[:m - w.rank]))


def restricted_r_vector(vs, w):
    """r-vector of the restriction of the lattice to a summand."""
    if w.rank == 0:
        return ()
    if w.is_full():
        return diagonal_basis(vs).r
    return diagonal_basis(sub_quotient(vs, w).res).r


def quotient_r_vector(vs, w):
    """r-vector of the quotient volume space along a summand."""
    if w.rank == 0:
        return diagonal_basis(vs).r
    if w.is_full():
        return ()
    return diagonal_basis(sub_quotient(vs, w).quot).r


def instability_ff(vs, w):
    """Exact instability number of a proper nonzero summand.

    Equals (first quotient r-value) - (last restricted r-value); both sides
    come from constrained per-rank minima.
    """
    return filtration.c_value(FFOracle(vs), w)
