"""S-arithmetic localizations: Z[T^-1]-modules, integral structures, volumes.

For a finite set T of normalized primes of Z (Z = the integers or F_q[t]),
two localizations appear:

    Z[T^-1]  - T inverted; the base ring of the localized modules,
    Z_T      - everything except T inverted; integral structures are rank-n
               Z_T-submodules B of Q^n.

A saturated Z[T^-1]-summand W is fixed by its Q-span, so W cap Z^n is a
saturated Z-summand that determines it.  `LocSummand` therefore stores
the Hermite form of W cap Z^n and shares the summand algebra of Z and
F_q[t] (`matrices.Summand`): spans, meets and joins run on plain Z (or
F_q[t]) Hermite forms and one column reduction, and spanning rows are
cleared on the way in, where their one common denominator must be a
T-power.  The canonical Hermite basis over Z[T^-1] (pivots T-free and
normalized, entries above a pivot d reduced to canonical residues mod d)
is derived only for output, by `localized_basis`.
Intersecting with an integral structure B is a rank-preserving lattice
isomorphism onto the summands of the plain Z-module V cap B, which
transports volumes and instability numbers to the localized setting.  That
lattice path runs on ring rows alone: Z[T^-1]^n cap B is the Hermite form
of B's cleared basis together with c I, c the T-part of its determinant,
read off the diagonal of one triangularization that also decides
singularity, and W cap B its intersection with W cap Z^n, read off one
Hermite form (`matrices.lattice_intersect`) with no kernel over Q.  It
stays on base-ring rows over one denominator, the T-part of B's cleared
denominator, which `intersect_integral` divides by once, at the end.  An
`IntegralStructure` is stored as that lattice: the denominator and the
n-row Hermite form of Z[T^-1]^n cap B, built once when B is, so every W
intersected with one B meets the same n rows.  Localized volumes,
instability numbers and cover chains are values of W cap B in the lattice
V cap B, so all run in one frame, V cap B in the coordinates of those rows:
`frame_oracle` moves the point there and is their only step that branches
on the side, `to_frame` maps W into it and `from_frame` maps a summand
back.  Every invertible
matrix over Q splits into a GL_n(Z[T^-1]) factor times a GL_n(Z_T)
factor, U diag(T-parts) and diag(T-free parts) V, from the Smith form
U D V of its cleared matrix (`matrices.clear_denominators`), whose
diagonal also decides singularity; this is the one Smith form of the
layer, taken only once the factorization mode is known.  SL mode takes
det A and the determinant of the first factor from that diagonal and the
units det U and det V of the same elimination, so the layer computes no
fraction-field determinant.  The split holds by construction and is
checked by the test suite, not on every call.

The Z and F_q[t] layers (`latz`, `latff`) are imported only on the side a
context uses.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from . import matrices
from .errors import (DeterminantError, DimensionError, DomainError,
                     InvalidPlaceError, SingularityError)
from .rings import ZZ, poly_ring


@dataclass(frozen=True)
class LocalizedContext:
    """Ground ring Z together with the finite normalized prime set T."""

    kind: str  # "Z" | "FF"
    T: tuple
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "FF"):
            raise DomainError(f"unknown localization kind {self.kind!r}")
        ring = self.base_ring()
        norm = []
        for p in self.T:
            _, pn = ring.unit_normalize(p)
            if not ring.is_prime(pn):
                raise InvalidPlaceError(f"{p} is not a prime of {ring.name}")
            norm.append(pn)
        if len(set(map(self._key, norm))) != len(norm):
            raise InvalidPlaceError("repeated primes in T")
        object.__setattr__(self, "T", tuple(sorted(norm, key=self._key)))

    @staticmethod
    def _key(p):
        if isinstance(p, int):
            return (0, p)
        return (p.degree, tuple(p.coeffs))

    @staticmethod
    def integers(T):
        return LocalizedContext("Z", tuple(T))

    @staticmethod
    def function_field(q, T):
        return LocalizedContext("FF", tuple(T), q=q)

    def base_ring(self):
        return ZZ if self.kind == "Z" else poly_ring(self.q)

    def t_split(self, z):
        """(T-part, T-free part) of a nonzero base-ring element.

        The places were proved prime once, in __post_init__, so their
        valuations are read off directly.
        """
        ring = self.base_ring()
        tp = ring.one()
        for p in self.T:
            tp = tp * p ** ring.element_valuation(z, p)
        return tp, ring.exact_div(z, tp)

    def in_t_inverted(self, x):
        """Membership in Z[T^-1] (denominator supported in T)."""
        den = matrices._num_den(self.base_ring().to_field(x))[1]
        return self.base_ring().is_unit(self.t_split(den)[1])


def _inverse_mod(ring, a, m):
    """The inverse of a modulo m, reduced mod m (a coprime to m)."""
    r0, r1, x0, x1 = m, a % m, ring.zero(), ring.one()
    while r1:
        q, r = divmod(r0, r1)
        r0, r1, x0, x1 = r1, r, x1, x0 - q * x1
    return ring.exact_div(x0, r0) % m  # r0 is a unit


# ---------------------------------------------------------------------------
# integral structures and localized summands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralStructure:
    """Rank-n Z_T-submodule B of Q^n, spanned by the columns of `basis`.

    B is stored as its lattice Z[T^-1]^n cap B, the Z-span of the rows
    H / den: den is the least T-power that clears B into Z_T^n, as a ring
    element, and H the Hermite form of `_t_lattice`'s generators.  Both are
    fixed by the module, not by its basis, so two integral structures are
    equal exactly when they span the same Z_T-module.
    """

    ctx: LocalizedContext
    n: int
    basis: tuple = field(compare=False)
    den: object = field(init=False, repr=False)
    H: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ring = self.ctx.base_ring()
        rows = matrices.freeze([[ring.to_field(x) for x in row] for row in self.basis])
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DimensionError("integral structure must be n x n")
        den, gens = _t_lattice(self.ctx, rows)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "H", matrices.hnf(ring, gens))

    @staticmethod
    def standard(ctx, n):
        ring = ctx.base_ring()
        one, zero = ring.field_one(), ring.field_zero()
        return IntegralStructure(ctx, n, [[one if i == j else zero for j in range(n)]
                                          for i in range(n)])

    def scaled(self, factor):
        f = self.ctx.base_ring().to_field(factor)
        return IntegralStructure(self.ctx, self.n,
                                 [[f * x for x in row] for row in self.basis])


@dataclass(frozen=True)
class LocSummand(matrices.Summand):
    """Saturated Z[T^-1]-summand W, stored as the Hermite form of W cap Z^n.

    `localized_basis` gives W's own canonical Hermite basis over Z[T^-1].
    """

    ctx: LocalizedContext
    n: int
    basis: tuple

    @property
    def ring(self):
        return self.ctx.base_ring()

    @staticmethod
    def from_rows(ctx, n, rows):
        # the lcm of the entries' reduced denominators is supported on T
        # exactly when every entry lies in Z[T^-1]
        ring = ctx.base_ring()
        den, cleared = matrices.clear_denominators(
            ring, [[ring.to_field(x) for x in row] for row in rows])
        if not ring.is_unit(ctx.t_split(den)[1]):
            bad = next(x for row in rows for x in row if not ctx.in_t_inverted(x))
            raise DomainError(f"entry {bad} is not in Z[T^-1]")
        w = LocSummand.zero(ctx, n)
        cleared = [r for r in cleared if any(r)]
        return w._saturated(cleared) if cleared else w

    @staticmethod
    def zero(ctx, n):
        return LocSummand(ctx, n, ())

    @staticmethod
    def full(ctx, n):
        ring = ctx.base_ring()
        return LocSummand(ctx, n, matrices.identity_rows(n, ring.one(), ring.zero()))


def localized_basis(w):
    """The canonical Hermite basis of W over Z[T^-1], as fraction-field rows.

    Top row to bottom of the Hermite form of W cap Z^n: divide each row by
    the T-part of its pivot, which leaves the pivot T-free and normalized,
    then move every entry above the pivot d to its canonical residue
    num * den^-1 mod d.
    """
    ctx, ring = w.ctx, w.ring
    rows = []
    for h in w.basis:
        c = next(j for j, x in enumerate(h) if x)
        tp, d = ctx.t_split(h[c])
        tpf = ring.to_field(tp)
        row = [ring.to_field(x) / tpf for x in h]
        for above in rows:
            num, den = matrices._num_den(above[c])
            r = num * _inverse_mod(ring, den, d) % d
            f = (above[c] - ring.to_field(r)) / row[c]
            if f:
                above[:] = [x - f * y for x, y in zip(above, row)]
        rows.append(row)
    return matrices.freeze(rows)


# ---------------------------------------------------------------------------
# intersection with integral structures
# ---------------------------------------------------------------------------

def _t_lattice(ctx, basis):
    """(den, rows): Z[T^-1]^n cap B is the Z-span of rows / den, rows over Z.

    B is spanned by the columns of `basis`.  Let zB = den B be B's cleared
    basis and c the T-part of det zB.  The triangularization U zB = H
    (`matrices.triangularize`) rejects a singular B, and det zB is
    prod H_ii up to the unit det U.  The lattice zB Z^n + c Z^n agrees with
    zB Z^n at every place in T, where c Z^n lies inside it, and with Z^n at
    every other place, where c is a unit.  Its generators are the columns
    of zB, reduced mod c, and c times the unit vectors; den is the T-part
    of the cleared denominator, as a ring element.
    """
    ring = ctx.base_ring()
    n = len(basis)
    den, zB = matrices.clear_denominators(ring, basis)
    try:
        H, _ = matrices.triangularize(ring, zB)
    except SingularityError:
        raise SingularityError("integral structure basis is singular") from None
    c = ctx.t_split(math.prod((H[i][i] for i in range(n)), start=ring.one()))[0]
    rows = [tuple(x % c for x in col) for col in matrices.transpose(zB)]
    rows += matrices.identity_rows(n, c, ring.zero())
    return ctx.t_split(den)[0], rows


def _check_setting(w, B):
    """Reject a summand and an integral structure of different settings.

    The contexts are compared by identity first, so the usual shared
    context costs no dataclass comparison.
    """
    if w.ctx is not B.ctx and w.ctx != B.ctx:
        raise DomainError("summand and integral structure have different localizations")
    if w.n != B.n:
        raise DimensionError(f"summand of ambient rank {w.n} against an integral "
                             f"structure of rank {B.n}")


def intersect_integral(w, B):
    """Canonical Z-basis rows of W cap B for a localized summand W.

    Saturation makes W the intersection of its Q-span with Z[T^-1]^n, so
    W cap B = (Q-span of W) cap (Z[T^-1]^n cap B).  With that lattice on
    the n Hermite rows H over one denominator, its part in the Q-span of W
    is its intersection with W cap Z^n, and dividing by B.den once keeps
    the rows canonical, since hnf(c M) = c hnf(M) for a normalized scalar c.
    """
    _check_setting(w, B)
    if w.is_zero():
        return ()
    return matrices.divided(B.den, matrices.lattice_intersect(w.ring, B.H, w.basis))


def span_localized(ctx, n, z_rows):
    """The localized summand spanned over Z[T^-1] by Z-side basis rows."""
    return LocSummand.from_rows(ctx, n, z_rows)


# ---------------------------------------------------------------------------
# localized volumes and instability
# ---------------------------------------------------------------------------

def loc_logvol(w, x, B):
    """Log-volume of W cap B in V cap B, read in the frame as `loc_c` reads it:
    ExactLog on the Z side, integer on the FF side."""
    _check_setting(w, B)
    oracle = frame_oracle(x, B)
    return oracle.logvol(to_frame(oracle, w, B))


def frame_oracle(x, B):
    """The lattice oracle of V cap B, in the coordinates of B's Hermite rows.

    V cap B has the basis L = B.H / B.den, and the point moves with it: a
    Gram matrix becomes its pullback along L (`InnerProduct.pulled_back`,
    one integer congruence over one denominator); a volume space's cleared
    columns P / d become L^-T P / d = den H^-T P / d, solved for every B
    alike by one fraction-free back substitution (`matrices.solve_cleared`)
    against the lower-triangular H^T, with no F_q(t) element formed.
    Coordinates and spans in L can be taken on B's ring rows B.H, a scalar
    multiple of L.  This is the one place where the localized volume,
    instability and cover paths branch on the side, so a point of the other
    side or of another rank than B is rejected here, alike for all of them.
    """
    ctx = B.ctx
    if ctx.kind == "Z":
        from . import latz
        if not isinstance(x, latz.InnerProduct):
            raise DomainError("integer-side localized point needs an InnerProduct")
    else:
        from . import latff
        if not isinstance(x, latff.VolumeSpace):
            raise DomainError("function-field localized point needs a VolumeSpace")
    if x.n != B.n:
        raise DimensionError(f"point of rank {x.n} against an integral structure of "
                             f"rank {B.n}")
    if ctx.kind == "Z":
        return latz.ZOracle(x.pulled_back(B.H, B.den))
    # L^-T S = B.den H^-T P / den: H^T is lower triangular, so with the
    # order of rows and columns reversed one back substitution solves it
    den, P = x.cleared
    e, N = matrices.solve_cleared(
        ctx.base_ring(), tuple(row[::-1] for row in matrices.transpose(B.H)[::-1]), P[::-1])
    rows = [[B.den * a if a else a for a in row] for row in N[::-1]]
    return latff.FFOracle(latff.VolumeSpace._from_cleared(ctx.q, B.n, e * den, rows))


def to_frame(oracle, w, B):
    """W cap B as a summand of the frame: its coordinates over the rows B.H.

    These are the x with x B.H in W cap Z^n, that is x B.H + y W = 0 for
    some ring row y.  W cap Z^n is saturated, so they form a summand.
    """
    ring = B.ctx.base_ring()
    zero = ring.zero()
    R = matrices.identity_rows(w.n, ring.one(), zero) + ((zero,) * w.n,) * w.rank
    coords = matrices.split_hnf(ring, matrices.stack(B.H, w.basis), R)
    return dataclasses.replace(oracle.zero(), basis=coords)


def from_frame(w_coords, B):
    """The localized summand W whose intersection with B has these coordinates.

    The coordinates are over B's ring rows B.H, so the rows they give span
    W's Q-span, and their saturation is the stored W cap Z^n.
    """
    ring = B.ctx.base_ring()
    rows = matrices.matmul(w_coords.basis, B.H, ring.zero())
    return LocSummand(B.ctx, B.n, matrices.saturate(ring, rows))


def loc_c(w, x, B):
    """Instability number of a localized summand at (x, B), computed on V cap B."""
    from . import filtration
    _check_setting(w, B)
    oracle = frame_oracle(x, B)
    return filtration.c_value(oracle, to_frame(oracle, w, B))


# ---------------------------------------------------------------------------
# matrix factorizations
# ---------------------------------------------------------------------------

def factorize(A, ctx, mode="GL"):
    """Split an invertible matrix over Q into a Z[T^-1] and a Z_T factor.

    Returns (Bm, Cm) with A = Bm * Cm, Bm in GL_n(Z[T^-1]) and Cm in
    GL_n(Z_T); in SL mode both determinants are exactly 1.  Clears
    denominators, takes the Smith form, and splits each invariant factor,
    and the cleared denominator once, into a T-part and a T-free part over
    the base ring.  A is singular exactly when an invariant factor is 0.
    SL mode reads det A and det Bm off the same elimination: det U and det
    V are the units its swaps and scalings multiplied, so no determinant is
    computed.
    """
    if mode not in ("GL", "SL"):
        raise DomainError(f"unknown factorization mode {mode!r}")
    ring = ctx.base_ring()
    A = matrices.freeze([[ring.to_field(x) for x in row] for row in A])
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionError("factorization needs a square matrix")
    one = ring.field_one()
    den, mA = matrices.clear_denominators(ring, A)
    U, D, V, det_u, det_v = matrices._smith(ring, mA)
    diag = [D[i][i] for i in range(n)]
    if not all(diag):
        raise SingularityError("factorization needs an invertible matrix")
    # den^n det A = det(U D V) = det U prod(D_ii) det V
    if mode == "SL" and math.prod(diag, start=det_u * det_v) != den ** n:
        raise DeterminantError("SL-mode factorization needs determinant 1")
    # D_ii / den splits into its T-part u_i, a unit of Z[T^-1], and its
    # T-free part v_i, a unit of Z_T; B = U diag(u) and C = diag(v) V
    den_t, den_free = (ring.to_field(x) for x in ctx.t_split(den))
    parts = [ctx.t_split(d) for d in diag]
    u = [ring.to_field(d_t) / den_t for d_t, _ in parts]
    v = [ring.to_field(d_free) / den_free for _, d_free in parts]
    Bm = matrices.freeze([[ring.to_field(x) * u_i for x, u_i in zip(row, u)] for row in U])
    Cm = matrices.freeze([[v_i * ring.to_field(x) for x in row] for row, v_i in zip(V, v)])
    if mode == "SL" and (dB := math.prod(u, start=ring.to_field(det_u))) != one:
        # det(B) = det U prod(u_i) is a unit of both rings, i.e. a unit of Z;
        # push it into C
        fix = one / dB
        Bm = matrices.freeze([[x * fix if j == 0 else x
                               for j, x in enumerate(row)] for row in Bm])
        Cm = matrices.freeze([[x * dB if i == 0 else x for x in row]
                              for i, row in enumerate(Cm)])
    return Bm, Cm


def factorize_conjugated(A, ctx, conjugator):
    """Split A in SL_n(Q) as (SL_n(Z[T^-1]) factor) * (g SL_n(Z_T) g^-1 factor)."""
    ring = ctx.base_ring()
    zero = ring.field_zero()
    G = matrices.freeze([[ring.to_field(x) for x in row] for row in conjugator])
    B1, _ = factorize(G, ctx, mode="GL")
    B1inv = matrices.inverse(ring, B1)
    A = matrices.freeze([[ring.to_field(x) for x in row] for row in A])
    inner = matrices.matmul(matrices.matmul(B1inv, A, zero), B1, zero)
    P, Q = factorize(inner, ctx, mode="SL")
    Pc = matrices.matmul(matrices.matmul(B1, P, zero), B1inv, zero)
    Qc = matrices.matmul(matrices.matmul(B1, Q, zero), B1inv, zero)
    return Pc, Qc
