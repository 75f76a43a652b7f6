"""The paper's group actions on lattices fix values and operation counts.

Pulling a form back along g in GL_n(Z) maps its canonical filtration along
g and keeps every c-value; the form's dual s^-1 has the annihilators of the
chain, in reverse order, as its chain, with equal c-values (Stuhler, Arch.
Math. 27, 1976; Grayson, Comment. Math. Helv. 59, 1984).  Over Z[T^-1], g
in GL_n(Z[T^-1]) moves W, the point and B together and keeps the localized
log-volume and c-value, and B K for K in GL_n(Z_T) is the same B.  Cost is
measured by deterministic counts, never by wall time: the Fincke-Pohst tree
nodes (`_int_range_abs_le` calls), the candidate summands put in Hermite
form (`matrices.hnf` calls) and the steps of the F_q[t] column reduction
(`conftest.reduction_steps`).
"""

import random
from fractions import Fraction

import pytest

from latred import latz, matrices
from latred.fq import poly_one, poly_t, t_power
from latred.latff import (FFSummand, VolumeSpace, diagonal_basis,
                          ff_invariants_and_filtration, instability_ff)
from latred.latz import InnerProduct, ZSummand, canonical_filtration_z, instability_z
from latred.rings import ZZ, poly_ring
from latred.sarith import (IntegralStructure, LocalizedContext, LocSummand, loc_c,
                           loc_logvol)

from conftest import (apply, field_inverse_unimodular, inverse_field, kernel, random_ff_summand,
                      random_invertible_rational, random_ratfunc, random_spd,
                      random_unimodular_poly, random_unimodular_z, random_volume_space,
                      random_z_summand, rank_field, reduction_steps, right_multiplied)

_SEED5 = random.Random(5)
FORMS = [random_spd(_SEED5, 4, spread=1) for _ in range(4)]  # the seed-5 n = 4 forms

# unimodular pullbacks with entries up to 885 and 552
PULLBACKS = {"r101": random_unimodular_z(random.Random(101), 4, steps=32, spread=3),
             "r205": random_unimodular_z(random.Random(205), 4, steps=32, spread=3)}


def _counted(monkeypatch, fn, *args, module=latz, name="_int_range_abs_le"):
    """fn(*args) and how often it called module.name."""
    calls = [0]
    original = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    out = fn(*args)
    monkeypatch.setattr(module, name, original)
    return out, calls[0]


def _dual(s):
    return InnerProduct(s.n, inverse_field(s.gram, Fraction(0), Fraction(1)))


def _annihilator(w):
    if w.is_zero():
        return ZSummand.full(w.n)
    if w.rank == w.n:
        return ZSummand.zero(w.n)
    return ZSummand(w.n, kernel(ZZ, w.basis))


@pytest.mark.parametrize("g", list(PULLBACKS.values()), ids=list(PULLBACKS))
@pytest.mark.parametrize("k", range(len(FORMS)))
class TestPullback:
    def test_chain_maps_and_c_values_agree(self, k, g):
        s = FORMS[k]
        rep = canonical_filtration_z(s)
        rep_g = canonical_filtration_z(s.pulled_back(g))
        images = [apply(w, g) for w in rep_g.chain]
        assert [w.basis for w in images] == [w.basis for w in rep.chain]
        assert {apply(w, g): c for w, c in rep_g.c_values.items()} == rep.c_values

    def test_search_tree_within_twice_the_unpulled(self, k, g, monkeypatch):
        # the canonical filtration, then the c-value of each chain and seeded
        # summand against that of its image under the pullback
        s = FORMS[k]
        s_g = s.pulled_back(g)
        _, nodes = _counted(monkeypatch, canonical_filtration_z, s)
        _, nodes_g = _counted(monkeypatch, canonical_filtration_z, s_g)
        assert nodes_g <= 2 * nodes, (nodes_g, nodes)
        g_inv = field_inverse_unimodular(ZZ, g)
        for w in _z_summands(k):
            _, nodes = _counted(monkeypatch, instability_z, s, w)
            _, nodes_g = _counted(monkeypatch, instability_z, s_g, apply(w, g_inv))
            assert nodes_g <= 2 * nodes, (w, nodes_g, nodes)


@pytest.mark.parametrize("k", range(len(FORMS)))
def test_duality_reverses_the_chain_with_equal_c_values(k):
    s = FORMS[k]
    rep = canonical_filtration_z(s)
    rep_dual = canonical_filtration_z(_dual(s))
    want = [_annihilator(w) for w in reversed(rep.chain)]
    assert [w.basis for w in rep_dual.chain] == [w.basis for w in want]
    assert rep_dual.c_values == {_annihilator(w): c for w, c in rep.c_values.items()}


@pytest.mark.parametrize("k", range(len(FORMS)))
def test_duality_builds_as_many_candidates_within_a_factor_three(k, monkeypatch):
    s = FORMS[k]
    _, spans = _counted(monkeypatch, canonical_filtration_z, s, module=matrices, name="hnf")
    _, spans_dual = _counted(monkeypatch, canonical_filtration_z, _dual(s),
                             module=matrices, name="hnf")
    assert spans_dual <= 3 * spans and spans <= 3 * spans_dual, (spans, spans_dual)


# ---------------------------------------------------------------------------
# c-values of single summands, on and off the canonical chain
# ---------------------------------------------------------------------------

def _z_summands(k):
    """The interior chain of FORMS[k] and three seeded off-chain summands of each proper rank."""
    s = FORMS[k]
    rng = random.Random(f"symmetries-z-{k}")
    chain = list(canonical_filtration_z(s).interior_chain())
    return chain + [random_z_summand(rng, 4, r) for r in (1, 2, 3) for _ in range(3)]


@pytest.mark.parametrize("g", list(PULLBACKS.values()), ids=list(PULLBACKS))
@pytest.mark.parametrize("k", range(len(FORMS)))
def test_instability_z_is_pullback_invariant(k, g):
    s = FORMS[k]
    s_g = s.pulled_back(g)
    g_inv = field_inverse_unimodular(ZZ, g)
    for w in _z_summands(k):
        # apply(w, g_inv) is carried to w by g
        assert instability_z(s_g, apply(w, g_inv)) == instability_z(s, w), w


@pytest.mark.parametrize("k", range(len(FORMS)))
def test_instability_z_of_the_annihilator_in_the_dual(k):
    s = FORMS[k]
    s_dual = _dual(s)
    for w in _z_summands(k):
        assert instability_z(s_dual, _annihilator(w)) == instability_z(s, w), w


def _ff_cases():
    """Seeded (volume space, summands) at n = 3 and 4: the interior chain and
    two off-chain summands of each proper rank."""
    rng = random.Random("symmetries-ff")
    for q, n in ((2, 3), (3, 3), (2, 4), (2, 4)):
        vs = random_volume_space(rng, q, n, maxdeg=1)
        chain = list(ff_invariants_and_filtration(vs)[1].interior_chain())
        yield vs, chain + [random_ff_summand(rng, q, n, r, maxdeg=1)
                           for r in range(1, n) for _ in range(2)]


def test_instability_ff_is_gl_n_invariant():
    rng = random.Random("symmetries-ff-g")
    for vs, summands in _ff_cases():
        g = random_unimodular_poly(rng, vs.q, vs.n, steps=8)
        gT = matrices.transpose(g)
        moved = vs.transformed(g)
        for w in summands:
            assert instability_ff(moved, apply(w, gT)) == instability_ff(vs, w), w


@pytest.mark.parametrize("k", [-2, 1, 3])
def test_instability_ff_is_invariant_under_t_power_scaling(k):
    for vs, summands in _ff_cases():
        scaled = vs.scaled(t_power(vs.q, k))
        for w in summands:
            assert instability_ff(scaled, w) == instability_ff(vs, w), w


def test_ff_reduction_steps_under_g_and_t_power_scaling(monkeypatch):
    # t^k S has S^-1 times one scalar: the same leading coefficients and the
    # same steps; g(S) for g a product of 8 elementary moves with entries of
    # degree <= 1 stays within twice the steps of S plus n.  The same bounds
    # hold for the reduction of ff_logvol(S, W), against ff_logvol(t^k S, W)
    # and ff_logvol(g S, g W)
    rng = random.Random("symmetries-ff-steps")
    summands = random.Random("symmetries-ff-steps-summands")
    for q in (2, 3, 4, 5):
        for n in range(2, 6):
            for _ in range(3):
                vs = random_volume_space(rng, q, n, maxdeg=1 if n > 3 else 2)
                g = random_unimodular_poly(rng, q, n, steps=8)
                summand = random_ff_summand(summands, q, n, summands.randint(1, n - 1), maxdeg=1)
                for w, gw in ((None, None), (summand, apply(summand, matrices.transpose(g)))):
                    steps = reduction_steps(monkeypatch, vs, w)
                    for k in (-3, 5, 40):
                        assert reduction_steps(monkeypatch, vs.scaled(t_power(q, k)), w) == steps
                    assert reduction_steps(monkeypatch, vs.transformed(g), gw) <= 2 * (steps + n)


def _ff_dual(vs):
    """The dual lattice {x : x . S in R^n}, spanned by the columns of S^-T."""
    inverse = matrices.inverse(poly_ring(vs.q), vs.basis)
    return VolumeSpace(vs.q, vs.n, matrices.transpose(inverse))


def test_ff_duality_negates_logvol_and_reverses_r():
    rng = random.Random("symmetries-ff-dual")
    for q in (2, 3, 4):
        for n in (2, 3, 4):
            for _ in range(3):
                vs = random_volume_space(rng, q, n, maxdeg=1)
                dual = _ff_dual(vs)
                assert dual.logvol == -vs.logvol
                r = diagonal_basis(vs).r
                assert diagonal_basis(dual).r == tuple(sorted(-x for x in r)), vs


def test_instability_ff_of_the_annihilator_in_the_dual():
    for vs, summands in _ff_cases():
        dual = _ff_dual(vs)
        for w in summands:
            perp = FFSummand.from_rows(vs.q, vs.n, kernel(poly_ring(vs.q), w.basis))
            assert instability_ff(dual, perp) == instability_ff(vs, w), w


# ---------------------------------------------------------------------------
# Z[T^-1]
# ---------------------------------------------------------------------------

LOC_CTXS = {"Z[1/6]": LocalizedContext.integers([2, 3]),
            "F2[t][1/t]": LocalizedContext.function_field(2, [poly_t(2)])}


def _loc_cases(name):
    """Seeded (W, x, B) at n = 2, 3: B with T- and non-T denominators, and
    W of every proper rank."""
    ctx = LOC_CTXS[name]
    ring = ctx.base_ring()
    rng = random.Random(f"symmetries-loc/{name}")
    for n in (2, 3, 3):
        if ctx.kind == "Z":
            B, x = random_invertible_rational(rng, n, 4, 6), random_spd(rng, n, spread=1)
        else:
            while True:
                B = matrices.freeze([[random_ratfunc(rng, ctx.q, 1) for _ in range(n)]
                                     for _ in range(n)])
                if rank_field(B, ring.field_zero(), ring.field_one()) == n:
                    break
            x = random_volume_space(rng, ctx.q, n, maxdeg=1)
        B = IntegralStructure(ctx, n, B)
        for r in range(1, n):
            w = random_z_summand(rng, n, r) if ctx.kind == "Z" else \
                random_ff_summand(rng, ctx.q, n, r, maxdeg=1)
            yield LocSummand.from_rows(ctx, n, w.basis), x, B


def _gl(rng, ctx, n, units):
    """U1 diag(d) U2 over the fraction field: U1, U2 unimodular over the base
    ring, each d drawn from `units`."""
    ring = ctx.base_ring()
    U1, U2 = ((random_unimodular_z(rng, n) if ctx.kind == "Z"
               else random_unimodular_poly(rng, ctx.q, n)) for _ in range(2))
    DU2 = [[d * ring.to_field(x) for x in row]
           for d, row in zip((rng.choice(units) for _ in range(n)), U2)]
    U1f = matrices.freeze([[ring.to_field(x) for x in row] for row in U1])
    return matrices.matmul(U1f, matrices.freeze(DU2), ring.field_zero())


def _t_units(ctx):
    """Units of Z[T^-1]: the T-powers p^k, |k| <= 2."""
    ring = ctx.base_ring()
    one = ring.field_one()
    return [x for p in ctx.T for k in range(3)
            for x in (ring.to_field(p ** k), one / ring.to_field(p ** k))]


def _t_free_units(ctx):
    """Units of Z_T: quotients of T-free elements."""
    ring = ctx.base_ring()
    if ctx.kind == "Z":
        free = [1, -1, 5, 7]
    else:
        t, e = poly_t(ctx.q), poly_one(ctx.q)
        free = [e, t + e, t * t + t + e]
    return [ring.to_field(a) / ring.to_field(b) for a in free for b in free]


def _pushed(w, x, B, g):
    """(W, x, B) pushed along g: W's rows and B's columns map by g, and the
    point moves with them (the form by g^-T gram g^-1, S by g)."""
    ctx, ring = B.ctx, B.ctx.base_ring()
    zero, one = ring.field_zero(), ring.field_one()
    rows = [[ring.to_field(v) for v in row] for row in w.basis]
    w_g = LocSummand.from_rows(ctx, w.n, matrices.matmul(rows, matrices.transpose(g), zero))
    B_g = IntegralStructure(ctx, B.n, matrices.matmul(g, B.basis, zero))
    if ctx.kind == "Z":
        g_inv = inverse_field(g, zero, one)
        gram = matrices.matmul(matrices.matmul(matrices.transpose(g_inv), x.gram, zero),
                               g_inv, zero)
        return w_g, InnerProduct(x.n, gram), B_g
    return w_g, x.transformed(g), B_g


@pytest.mark.parametrize("name", sorted(LOC_CTXS))
def test_loc_values_are_gl_n_z_t_inverted_invariant(name):
    ctx = LOC_CTXS[name]
    rng = random.Random(f"symmetries-loc-g/{name}")
    values = []
    for w, x, B in _loc_cases(name):
        c, lv = loc_c(w, x, B), loc_logvol(w, x, B)
        values.append(repr(c))
        for _ in range(2):
            w_g, x_g, B_g = _pushed(w, x, B, _gl(rng, ctx, B.n, _t_units(ctx)))
            assert loc_c(w_g, x_g, B_g) == c, w
            assert loc_logvol(w_g, x_g, B_g) == lv, w
    assert len(set(values)) >= 3  # the cases are not all alike


@pytest.mark.parametrize("name", sorted(LOC_CTXS))
def test_loc_c_is_invariant_under_b_times_gl_n_z_t(name):
    ctx = LOC_CTXS[name]
    rng = random.Random(f"symmetries-loc-k/{name}")
    for w, x, B in _loc_cases(name):
        BK = right_multiplied(B, _gl(rng, ctx, B.n, _t_free_units(ctx)))
        assert BK.basis != B.basis
        assert loc_c(w, x, BK) == loc_c(w, x, B), w
