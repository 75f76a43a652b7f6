"""Public exact-arithmetic surface: scalars, valuations and normal forms.

Scalar domains
    * Q        - `fractions.Fraction`
    * F_q      - integers 0..q-1 (contexts from `fq.gf`)
    * F_q[t]   - `fq.FqPolynomial`
    * F_q(t)   - `fq.FqRationalFunction`

Matrix payloads cross module boundaries as `ExactMatrix`, a shape-checked
container with a ring tag; the heavy lifting lives in `matrices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import matrices
from .errors import DimensionError, UnsupportedRingError
from .fq import FqPolynomial, FqRationalFunction
from .rings import (DEGREE_PLACE, ZZ, IntegerRing, poly_ring, prime_part,
                    valuation)

__all__ = [
    "ExactMatrix", "SNFDecomposition", "valuation", "prime_part",
    "smith_normal_form", "minors", "saturate", "hermite_normal_form",
    "det", "DEGREE_PLACE", "ZZ", "poly_ring",
]

_RING_TAGS = ("Z", "Q", "Fq[t]", "Fq(t)", "Z[T^-1]", "Z_T")


@dataclass(frozen=True)
class ExactMatrix:
    """Row-major exact matrix with a ring tag.

    `q` carries the field size for the function-field tags and is None on
    the integer side.
    """

    ring: str
    rows: int
    cols: int
    entries: tuple
    q: int | None = None

    def __post_init__(self):
        if self.ring not in _RING_TAGS:
            raise UnsupportedRingError(f"unknown ring tag {self.ring!r}")
        ent = matrices.freeze(self.entries)
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise DimensionError("entry grid does not match declared shape")
        object.__setattr__(self, "entries", ent)

    @staticmethod
    def rational(rows_entries):
        ent = matrices.freeze([[Fraction(x) for x in row] for row in rows_entries])
        r = len(ent)
        c = len(ent[0]) if ent else 0
        return ExactMatrix("Q", r, c, ent)

    def base_ring(self):
        if self.ring == "Z":
            return ZZ
        if self.ring == "Fq[t]":
            return poly_ring(self.q)
        raise UnsupportedRingError(f"{self.ring} is not a supported Euclidean ring")


@dataclass(frozen=True)
class SNFDecomposition:
    """U * D * V = input, U and V unimodular, D diagonal with d_i | d_{i+1}."""

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix

    def diagonal(self):
        k = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(k))


def _detect_euclidean_ring(entries):
    for row in entries:
        for x in row:
            if isinstance(x, FqPolynomial):
                return poly_ring(x.field.q)
            if isinstance(x, int):
                return ZZ
            raise UnsupportedRingError(
                f"Smith/Hermite forms need Z or F_q[t] entries, got {type(x).__name__}")
    return ZZ


def _ring_of(M):
    if isinstance(M, ExactMatrix):
        return M.base_ring(), M.entries
    return _detect_euclidean_ring(M), matrices.freeze(M)


def smith_normal_form(M):
    """Smith normal form over Z or F_q[t], with exact transform witnesses."""
    ring, entries = _ring_of(M)
    U, D, V, _ = matrices.snf(ring, entries)
    tag = "Z" if isinstance(ring, IntegerRing) else "Fq[t]"
    q = None if tag == "Z" else ring.q

    def wrap(rowsM):
        r = len(rowsM)
        c = len(rowsM[0]) if rowsM else 0
        return ExactMatrix(tag, r, c, rowsM, q=q)

    return SNFDecomposition(wrap(U), wrap(D), wrap(V))


def det(M):
    """Exact determinant; dispatches on the entry domain."""
    entries = M.entries if isinstance(M, ExactMatrix) else matrices.freeze(M)
    if not entries:
        return 1
    sample = entries[0][0]
    if isinstance(sample, int):
        return matrices.det_ring(ZZ, entries)
    if isinstance(sample, FqPolynomial):
        return matrices.det_ring(poly_ring(sample.field.q), entries)
    if isinstance(sample, Fraction):
        return matrices.det_field(entries, Fraction(0), Fraction(1))
    if isinstance(sample, FqRationalFunction):
        ring = poly_ring(sample.field.q)
        return matrices.det_field(entries, ring.field_zero(), ring.field_one())
    raise UnsupportedRingError(f"no determinant for {type(sample).__name__} entries")


def minors(M, m):
    """All m x m minors, keyed as described in `matrices.minors`."""
    entries = M.entries if isinstance(M, ExactMatrix) else matrices.freeze(M)
    return matrices.minors(entries, m, det)


def hermite_normal_form(M):
    """Canonical row echelon basis of the row module (zero rows dropped)."""
    ring, entries = _ring_of(M)
    return matrices.hnf(ring, entries)


def saturate(M, ambient_rank=None):
    """Basis of the direct summand with the same span as the rows of M."""
    ring, entries = _ring_of(M)
    if ambient_rank is not None and entries and len(entries[0]) != ambient_rank:
        raise DimensionError("ambient rank does not match row length")
    return matrices.saturate(ring, entries)
