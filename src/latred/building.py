"""Local lattice-class combinatorics of affine buildings, and apartments.

Vertices are homothety classes of lattices over a discrete valuation ring:
Z localized at a prime p (inside Q), or the degree-valuation ring of
F_q(t) with uniformizer 1/t.  A class is stored as a unique canonical basis
matrix: column-reduced upper triangular with diagonal uniformizer powers,
canonical residues above the diagonal, and minimal diagonal exponent 0.

Neighbor enumeration runs over the proper nonzero residue subspaces of
pi^{-1}L / L; labels differences, chamber counts through an edge, apartment
coordinates and the simplicial decomposition of R^n follow the standard
diagonal-apartment picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gflinalg, matrices
from .errors import DimensionError, DomainError, InvalidPlaceError, ScaleError
from .fq import FqRationalFunction, gf, poly, poly_one, poly_t, prime_power, t_power
from .rings import ZZ, is_prime_int

NEIGHBOR_RESIDUE_LIMIT = 5
NEIGHBOR_RANK_LIMIT = 4


@dataclass(frozen=True)
class BuildingContext:
    """Local data: residue size, rank, and which valuation ring is meant."""

    kind: str  # "p-adic" | "FF"
    n: int
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        if self.kind == "p-adic":
            if not isinstance(self.p, int) or not is_prime_int(self.p):
                raise InvalidPlaceError(f"{self.p!r} is not a prime")
        elif self.kind == "FF":
            gf(self.q)  # validates the prime power
        else:
            raise DomainError(f"unknown building kind {self.kind!r}")
        if self.n < 1:
            raise DimensionError("rank must be positive")

    @staticmethod
    def p_adic(p, n):
        return BuildingContext("p-adic", n, p=p)

    @staticmethod
    def function_field(q, n):
        return BuildingContext("FF", n, q=q)

    @property
    def residue_size(self):
        return self.p if self.kind == "p-adic" else self.q

    def residue_field(self):
        return gf(self.residue_size)

    # -- local scalar helpers -------------------------------------------------
    def val(self, x):
        """Valuation with respect to the fixed uniformizer."""
        if self.kind == "p-adic":
            x = Fraction(x)
            return (ZZ.element_valuation(x.numerator, self.p)
                    - ZZ.element_valuation(x.denominator, self.p))
        x = FqRationalFunction.of(x)
        return x.nu()

    def unif_pow(self, k):
        """pi^k: p^k on the integer side, t^{-k} on the function-field side."""
        if self.kind == "p-adic":
            return Fraction(self.p) ** k
        return t_power(self.q, -k)

    def zero(self):
        return Fraction(0) if self.kind == "p-adic" else \
            FqRationalFunction.of(poly(self.q, []))

    def one(self):
        return Fraction(1) if self.kind == "p-adic" else \
            FqRationalFunction.of(poly_one(self.q))

    def residue_lift(self, c):
        """Lift a residue-field element (integer 0..r-1) into the local ring."""
        if self.kind == "p-adic":
            return Fraction(c)
        return FqRationalFunction.of(poly(self.q, [c]))

    def canonical_residue(self, x, a):
        """Canonical representative of x modulo pi^a * O, for any x in k."""
        v = self.val(x)
        if v == math.inf or v >= a:
            return self.zero()
        e = max(0, -v) if v != math.inf else 0
        y = x * self.unif_pow(e)
        rep = self._canres_integral(y, a + e)
        return rep * self.unif_pow(-e)

    def _canres_integral(self, y, a):
        if a <= 0:
            return self.zero()
        if self.kind == "p-adic":
            y = Fraction(y)
            mod = self.p ** a
            rep = (y.numerator * pow(y.denominator, -1, mod)) % mod
            return Fraction(rep)
        # the terms of y's expansion at infinity down to t^(1-a):
        # floor(y t^(a-1)) / t^(a-1), the floor being the polynomial part
        y, s = FqRationalFunction.of(y), poly_t(self.q) ** (a - 1)
        return FqRationalFunction(y.num * s // y.den, s)


# ---------------------------------------------------------------------------
# canonical vertex form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vertex:
    """Canonical representative of a lattice homothety class.

    `matrix[i][j]` is the i-th coordinate of the j-th basis vector; the
    matrix is upper triangular with diagonal pi^{a_j}, min a_j = 0, and
    canonical residues above the diagonal.
    """

    ctx: BuildingContext
    matrix: tuple

    def diagonal_exponents(self):
        return tuple(self.ctx.val(self.matrix[i][i]) for i in range(self.ctx.n))

    def columns(self):
        return matrices.transpose(self.matrix)


def _column_reduce(ctx, cols):
    """Upper-triangular O-basis (as columns) of the column span."""
    cols = [list(c) for c in cols]
    chosen = [None] * ctx.n
    for i, p, v in matrices.dvr_column_reduce(cols, range(ctx.n - 1, -1, -1), ctx.val):
        inv_unit = ctx.one() / (cols[p][i] * ctx.unif_pow(-v))
        chosen[i] = [x * inv_unit for x in cols[p]]
    return chosen


def _reduce_above(ctx, cols):
    n = ctx.n
    exps = [ctx.val(cols[j][j]) for j in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            x = cols[j][i]
            rep = ctx.canonical_residue(x, exps[i])
            if rep != x:
                f = (x - rep) / cols[i][i]
                cols[j] = [a - f * b for a, b in zip(cols[j], cols[i])]
    return cols


def canonical_vertex(lattice_cols, ctx):
    """Unique representative of the homothety class of the column span."""
    cols = [[x if not isinstance(x, (int,)) else
             (Fraction(x) if ctx.kind == "p-adic" else ctx.residue_lift(x))
             for x in col] for col in lattice_cols]
    tri = _column_reduce(ctx, cols)
    exps = [ctx.val(tri[j][j]) for j in range(ctx.n)]
    shift = min(exps)
    if shift != 0:
        scale = ctx.unif_pow(-shift)
        tri = [[x * scale for x in col] for col in tri]
    tri = _reduce_above(ctx, tri)
    mat = matrices.freeze([[tri[j][i] for j in range(ctx.n)] for i in range(ctx.n)])
    return Vertex(ctx, mat)


def standard_vertex(ctx):
    one, zero = ctx.one(), ctx.zero()
    cols = [[one if i == j else zero for i in range(ctx.n)] for j in range(ctx.n)]
    return canonical_vertex(cols, ctx)


# ---------------------------------------------------------------------------
# neighbors and labels
# ---------------------------------------------------------------------------

def neighbors(v):
    """All adjacent vertices with their directed label differences.

    One neighbor per proper nonzero residue subspace U of pi^{-1}L/L, via
    the intermediate lattice with L' / L = U; the reported label difference
    is dim U.
    """
    ctx = v.ctx
    n = ctx.n
    r = ctx.residue_size
    if r > NEIGHBOR_RESIDUE_LIMIT or n > NEIGHBOR_RANK_LIMIT:
        raise ScaleError(f"neighbor enumeration at residue field size {r}, rank {n} exceeds "
                         f"the limits {NEIGHBOR_RESIDUE_LIMIT}, {NEIGHBOR_RANK_LIMIT}")
    F = ctx.residue_field()
    cols = [list(c) for c in v.columns()]
    inv_pi = ctx.unif_pow(-1)
    out = []
    for d in range(1, n):
        for sub in gflinalg.enumerate_subspaces(F, n, d):
            gen = [c[:] for c in cols]
            for res_vec in sub:
                lift = [ctx.zero()] * n
                for j, c in enumerate(res_vec):
                    if c:
                        coeff = ctx.residue_lift(c) * inv_pi
                        for i in range(n):
                            lift[i] = lift[i] + coeff * cols[j][i]
                gen.append(lift)
            out.append((canonical_vertex(gen, ctx), d))
    return out


def label_difference(v1, v2):
    """Edge label difference in (Z/n)/{x ~ -x}, as an integer 0..n//2.

    The valuation of the determinant of the base change between any
    representatives, mod n.  Canonical vertices are triangular with
    diagonal pi^{a_j}, so that valuation is sum a(v1) - sum a(v2).
    """
    n = v1.ctx.n
    k = (sum(v1.diagonal_exponents()) - sum(v2.diagonal_exponents())) % n
    return min(k, n - k)


def relative_exponents(v1, v2):
    """Sorted elementary-divisor valuations of the base change v1 -> v2."""
    ctx = v1.ctx
    # canonical vertices are upper triangular, so M1^-1 M2 is one back substitution
    A = matrices.solve_upper(v1.matrix, v2.matrix)
    cols = [list(c) for c in matrices.transpose(A)]
    steps = matrices.dvr_column_reduce(cols, range(ctx.n), ctx.val, any_row=True)
    return tuple(sorted(v for _, _, v in steps))


def vertices_adjacent_or_equal(v1, v2):
    """Whether the classes coincide or span an edge of the complex."""
    exps = relative_exponents(v1, v2)
    return exps[-1] - exps[0] <= 1


# ---------------------------------------------------------------------------
# chamber counting
# ---------------------------------------------------------------------------

def count_chambers_on_edge(n, r, k):
    """Number of top-dimensional simplices containing an edge of label k.

    Closed form: prod_{i<=k} (r^i-1)/(r-1) * prod_{i<=n-k} (r^i-1)/(r-1).
    When feasible (n <= 4, r <= 3) the count is also checked against
    brute-force flag enumeration through a fixed k-subspace.
    Returns (count, verified_flag).
    """
    if not 1 <= k <= n - 1:
        raise DimensionError(f"label difference {k} out of range 1..{n - 1}")
    prime_power(r)  # a residue field of size r must exist
    value = 1
    for i in range(1, k + 1):
        value *= (r ** i - 1) // (r - 1)
    for i in range(1, n - k + 1):
        value *= (r ** i - 1) // (r - 1)
    verified = n <= 4 and r <= 3
    if verified:
        brute = _count_flags_through(n, r, k)
        if brute != value:  # pragma: no cover - the formula is exact
            raise DomainError(f"chamber formula mismatch: {value} vs {brute}")
    return value, verified


def _count_flags_through(n, r, k):
    """Complete flags of F_r^n containing the standard k-subspace."""
    F = gf(r)
    fixed = tuple(tuple(int(j == i) for j in range(n)) for i in range(k))

    def count_between(lower_rows, upper_rows, lo, hi):
        # full chains lower < ... < upper with one subspace per dimension
        if hi - lo <= 1:
            return 1
        total = 0
        for cand in gflinalg.enumerate_subspaces(F, n, lo + 1):
            if all(gflinalg.in_span(F, cand, row) for row in lower_rows) and \
               all(gflinalg.in_span(F, upper_rows, row) for row in cand):
                total += count_between(cand, upper_rows, lo + 1, hi)
        return total

    everything = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    below = count_between((), fixed, 0, k)
    above = count_between(fixed, everything, k, n)
    return below * above


# ---------------------------------------------------------------------------
# apartments and the simplicial structure of R^n
# ---------------------------------------------------------------------------

def apartment_coords(m):
    """Orthogonal projection of an integer vector onto the sum-zero hyperplane."""
    n = len(m)
    if n == 0:
        raise DimensionError("apartment coordinates need a nonempty vector")
    mean = Fraction(sum(m), n)
    return tuple(Fraction(x) - mean for x in m)


@dataclass(frozen=True)
class SimplexDecomposition:
    """x = sum mu_i p_i with p_0 < ... < p_m <= p_0 + (1,..,1), mu_i > 0."""

    points: tuple
    coeffs: tuple

    def reconstruct(self):
        n = len(self.points[0])
        acc = [Fraction(0)] * n
        for p, c in zip(self.points, self.coeffs):
            for i in range(n):
                acc[i] += c * p[i]
        return tuple(acc)

    def validate(self):
        if abs(sum(self.coeffs) - 1) != 0:
            raise DomainError("coefficients do not sum to 1")
        if any(c <= 0 or c > 1 for c in self.coeffs):
            raise DomainError("coefficients outside (0, 1]")
        for a, b in zip(self.points, self.points[1:]):
            diff = [y - x for x, y in zip(a, b)]
            if not all(d in (0, 1) for d in diff) or not any(diff):
                raise DomainError("points do not form a strict 0/1-chain")
        top = [y - x for x, y in zip(self.points[0], self.points[-1])]
        if not all(d in (0, 1) for d in top):
            raise DomainError("chain exceeds the unit diagonal cube")


def triangulate_point(x):
    """The unique simplicial decomposition of a rational point of R^n.

    Vertices come from the integer translates of the 0/1-chain simplices:
    sort the distinct fractional parts descending and cut with indicator
    vectors.
    """
    x = [Fraction(v) for v in x]
    if not x:
        raise DimensionError("simplicial decomposition needs a nonempty point")
    base = [Fraction(math.floor(v)) for v in x]
    frac = [v - b for v, b in zip(x, base)]
    levels = sorted(set(frac), reverse=True)
    # indicator of {frac > threshold}, thresholds sweeping down the levels
    thresholds = levels[1:] + ([Fraction(-1)] if levels[-1] > 0 else [])
    points = [tuple(int(f > levels[0]) for f in frac)]
    coeffs = [Fraction(1) - levels[0]]
    for idx, thr in enumerate(thresholds):
        pt = tuple(int(f > thr) for f in frac)
        weight = levels[idx] - (thr if thr >= 0 else Fraction(0))
        points.append(pt)
        coeffs.append(weight)
    keep_points = []
    keep_coeffs = []
    for p, c in zip(points, coeffs):
        if c > 0:
            keep_points.append(tuple(int(b) + pi for b, pi in zip(base, p)))
            keep_coeffs.append(c)
    return SimplexDecomposition(tuple(keep_points), tuple(keep_coeffs))


def edge_length_sq(k, n):
    """Exact squared Euclidean length of an apartment edge of label k."""
    if not 1 <= k <= n - 1:
        raise DimensionError(f"label difference {k} out of range 1..{n - 1}")
    return Fraction(k) - Fraction(k * k, n)


def edge_length(k, n):
    """Euclidean length of an apartment edge of label difference k."""
    return math.sqrt(edge_length_sq(k, n))
