"""Cover systems {c_W > threshold} and the cocompact-core machinery.

A cover system fixes an instability threshold; its member sets are indexed
by proper nonzero summands W, and a point lies in the W-set when the
instability number of W at that point exceeds the threshold.  Points are:

    * inner products on R^n                          (integer side),
    * building vertices at the degree valuation, or
      formal convex combinations over one simplex    (function-field side),
    * (inner product | lattice, integral structure)  (localized side).

Positivity of an instability number forces membership in the canonical
chain, so membership queries reduce to the finitely many chain summands;
at most one summand per rank can ever exceed a nonnegative threshold.

Thresholds carry an exact-log part and a rational part so that the
localized integer-side preset 4n(ln(prod T) + 1) stays decidable.

The Z, F_q[t], localized and building layers are imported by the functions
that use them, so `core_orbit_reps` loads none of them, and a point's type
is told apart without loading the layers of the other sides.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from sys import modules

from .errors import DimensionError, DomainError, ScaleError
from .frozen import Frozen
from .logs import ExactLog

CORE_RANK_LIMIT = 6
CORE_THRESHOLD_LIMIT = 16


class CoverSystem(Frozen):
    """Instability threshold theta = (exact-log part) + (rational part)."""

    _fields = ("n", "threshold_const", "threshold_log")

    def __init__(self, n, threshold_const=Fraction(0), threshold_log=None):
        vars(self).update(n=n, threshold_const=threshold_const,
                          threshold_log=ExactLog.zero() if threshold_log is None
                          else threshold_log)
        self.__post_init__()

    def __post_init__(self):
        # the canonical chain holds every summand with c > theta only when
        # theta >= 0, since a summand off the chain can have any c <= 0
        if self.exceeded_by(0):
            log = f" + {self.threshold_log!r}" if self.threshold_log.terms else ""
            raise DomainError(f"cover threshold {self.threshold_const}{log} is negative")

    @staticmethod
    def semistability(n):
        """theta = 0: the sets of unstable directions."""
        return CoverSystem(n)

    @staticmethod
    def building_preset(n):
        """theta = 4n, matching the one-step instability jump bound."""
        return CoverSystem(n, Fraction(4 * n))

    @staticmethod
    def localized_preset(n, ctx):
        """theta = 4n(R+1) with R the log-size of the localized prime set."""
        R_log = ExactLog.zero()
        R_const = Fraction(0)
        if ctx.kind == "Z":
            z = 1
            for p in ctx.T:
                z *= p
            R_log = ExactLog.log(Fraction(z), Fraction(4 * n))
        else:
            R_const = Fraction(4 * n * sum(p.degree for p in ctx.T))
        return CoverSystem(n, R_const + Fraction(4 * n), R_log)

    def exceeded_by(self, c):
        """Exact test c > theta."""
        if isinstance(c, ExactLog):
            diff = c - self.threshold_log
            if self.threshold_const == 0:
                return diff.sign() > 0
            return diff.compare_to_real(self.threshold_const) > 0
        if self.threshold_log.terms:
            diff = ExactLog.zero() - self.threshold_log
            return diff.compare_to_real(self.threshold_const - Fraction(c)) > 0
        return Fraction(c) > self.threshold_const

    def shifted(self, extra):
        return CoverSystem(self.n, self.threshold_const + Fraction(extra),
                           self.threshold_log)


class SimplexPoint(Frozen):
    """Formal convex combination of pairwise adjacent building vertices."""

    _fields = ("vertices", "coeffs")

    def __init__(self, vertices, coeffs):
        vars(self).update(vertices=vertices, coeffs=coeffs)
        self.__post_init__()

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) != len(self.vertices) or not cs:
            raise DimensionError("one coefficient per vertex required")
        if any(c <= 0 for c in cs) or sum(cs) != 1:
            raise DomainError("coefficients must be positive and sum to 1")
        from . import building
        vs = self.vertices
        for a, b in itertools.combinations(vs, 2):
            if a == b or not building.vertices_adjacent_or_equal(a, b):
                raise DomainError("vertices must be distinct and pairwise adjacent")
        object.__setattr__(self, "coeffs", cs)


def vertex_volume_space(v):
    """The lattice class of a function-field building vertex, as a volume space."""
    from . import latff
    if v.ctx.kind != "FF":
        raise DomainError("only degree-valuation vertices carry volume spaces")
    return latff.VolumeSpace(v.ctx.q, v.ctx.n, v.matrix)


def vertex_r_vector(v):
    return vertex_volume_space(v)._reduced[1]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _is_a(x, layer, cls):
    """isinstance(x, layer.cls), importing no layer.

    A point of a layer that was never loaded cannot exist, so the type tests
    of a point load no layer that its side does not use.
    """
    mod = modules.get(f"{__package__}.{layer}")
    return mod is not None and isinstance(x, getattr(mod, cls))


def _chain_with_values(x):
    """Interior canonical-chain members of a point with their c-values."""
    if _is_a(x, "latz", "InnerProduct"):
        from . import latz
        rep = latz.canonical_filtration_z(x)
        return [(w, rep.c_values[w]) for w in rep.interior_chain()]
    if _is_a(x, "building", "Vertex"):
        x = vertex_volume_space(x)
    if _is_a(x, "latff", "VolumeSpace"):
        from . import latff
        _, rep = latff.ff_invariants_and_filtration(x)
        return [(w, rep.c_values[w]) for w in rep.interior_chain()]
    if isinstance(x, SimplexPoint):
        from . import latff
        spaces = [vertex_volume_space(v) for v in x.vertices]
        candidates = {}
        for vs in spaces:
            _, rep = latff.ff_invariants_and_filtration(vs)
            for w in rep.interior_chain():
                candidates[w.basis] = w
        out = []
        for w in candidates.values():
            val = Fraction(0)
            for lam, vs in zip(x.coeffs, spaces):
                val += lam * latff.instability_ff(vs, w)
            out.append((w, val))
        return out
    if isinstance(x, tuple) and len(x) == 2:
        from . import filtration, sarith
        rep = filtration.canonical_filtration(sarith.frame_oracle(*x))
        return [(sarith.from_frame(w, x[1]), rep.c_values[w]) for w in rep.interior_chain()]
    raise DomainError(f"unsupported cover point {type(x).__name__}")


def cover_membership(x, sys, with_values=False):
    """All summands whose instability at x exceeds the threshold.

    At most one summand per rank is possible; the result is sorted by rank.
    """
    if sys.n > CORE_RANK_LIMIT:
        raise ScaleError(f"cover system rank {sys.n} exceeds the desk-scale limit "
                         f"{CORE_RANK_LIMIT}")
    hits = [(w, c) for w, c in _chain_with_values(x) if sys.exceeded_by(c)]
    hits.sort(key=lambda wc: wc[0].rank)
    if with_values:
        return hits
    return [w for w, _ in hits]


def core_test(x, sys):
    """Whether x lies in the beta = 0 cocompact core (no set of the system)."""
    if _is_a(x, "building", "Vertex"):
        r = vertex_r_vector(x)
        return all(not sys.exceeded_by(Fraction(b - a))
                   for a, b in zip(r, r[1:]))
    return not cover_membership(x, sys)


def core_orbit_reps(n, threshold):
    """Ascending integer r-vectors with bounded jumps and sum in [0, n-1].

    These classify the lattice classes in the core up to automorphisms and
    rescaling.
    """
    if n > CORE_RANK_LIMIT or n < 1:
        raise ScaleError(f"rank {n} outside 1..{CORE_RANK_LIMIT}")
    if threshold > CORE_THRESHOLD_LIMIT or threshold < 0:
        raise ScaleError(f"threshold {threshold} outside 0..{CORE_THRESHOLD_LIMIT}")
    lo, hi = 0, n - 1
    step = math.floor(threshold)
    out = []
    for deltas in itertools.product(range(step + 1), repeat=n - 1):
        # r_i = r_1 + sum of the first (i-1) deltas
        tail = 0
        acc = 0
        for d in deltas:
            acc += d
            tail += acc
        # sum r = n*r_1 + tail; find all integer r_1 with lo <= sum <= hi
        r1_lo = math.ceil((lo - tail) / n)
        r1_hi = math.floor((hi - tail) / n)
        for r1 in range(r1_lo, r1_hi + 1):
            vec = [r1]
            for d in deltas:
                vec.append(vec[-1] + d)
            out.append(tuple(vec))
    out.sort()
    return out


def thinned_membership(x, sys, beta, lipschitz_constant):
    """Sufficient test for membership in the beta-thinned union of the system.

    True when some instability exceeds threshold + C*beta; one-sided by
    design (the Lipschitz bound only gives the inclusion one way).
    """
    shifted = sys.shifted(Fraction(lipschitz_constant) * Fraction(beta))
    return bool(cover_membership(x, shifted))
