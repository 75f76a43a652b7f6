"""Seeded op streams for the library workloads, with their answer checks.

A workload is an endless sequence of *groups*.  Group g draws its inputs
from `random.Random(f"{workload}/{seed}/{stream}/{g}")`, so every group is
regenerated on every run and the warm-up stream ("warm") is disjoint from
the timed stream ("timed").  A group is a generator: it
yields `Op`s, receives each op's result, and builds the next op's inputs
from fresh objects, because `VolumeSpace` and `FFOracle` memoise on the
input object and a reused object would time cache hits.

Each op is one call into the library.  Its `check` is an independent
test of the answer, run outside the timed region: a mathematical identity,
an exact recomputation in plain fractions, or a cross-check between two
code paths.  A check raises `WrongAnswer`.

The generators live here rather than in `tests/conftest.py`, so editing the
tests cannot change the workloads.
"""

import itertools
import random
from collections import namedtuple
from fractions import Fraction

from latred import building, covers, errors, fq, jsonio, latff, latz, rings, sarith


class WrongAnswer(Exception):
    pass


Op = namedtuple("Op", "name fn args encode check")


def expect(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


# ---------------------------------------------------------------------------
# exact helpers, independent of latred.matrices
# ---------------------------------------------------------------------------

def frac_rank(rows):
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(len(M)):
            if r != rank and M[r][col]:
                f = M[r][col] / M[rank][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def frac_det(rows):
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


def frac_matmul(A, B):
    return [[sum((Fraction(a) * Fraction(b) for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def only_primes(k, primes):
    """Whether the positive integer k has no prime factor outside `primes`."""
    for p in primes:
        while k % p == 0:
            k //= p
    return k == 1


def coprime_to(k, primes):
    return all(k % p for p in primes)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def random_spd(rng, n, spread=2):
    """Gram matrix A^T A + I with small integer A: always positive definite."""
    A = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    return [[Fraction(sum(A[k][i] * A[k][j] for k in range(n)) + (i == j))
             for j in range(n)] for i in range(n)]


def random_int_rows(rng, n, rank, spread):
    while True:
        rows = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(rank)]
        if frac_rank(rows) == rank:
            return rows


def random_invertible(rng, n, num_max, den_max):
    while True:
        A = [[Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
              for _ in range(n)] for _ in range(n)]
        if frac_det(A):
            return A


def random_unimodular(rng, n, steps=6, spread=2):
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-spread, spread)
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


def random_poly_coeffs(rng, q, maxdeg):
    return [rng.randrange(q) for _ in range(rng.randint(1, maxdeg + 1))]


def random_ratfunc_spec(rng, q, maxdeg):
    """(num, den) coefficient lists with a nonzero denominator, or None for 0."""
    num = random_poly_coeffs(rng, q, maxdeg)
    while True:
        den = random_poly_coeffs(rng, q, maxdeg)
        if any(den):
            return num, den


def random_space_spec(rng, q, n, maxdeg):
    """Entry specs of an n x n basis; nonsingularity is checked on build."""
    return [[random_ratfunc_spec(rng, q, maxdeg) if rng.random() < 0.85 else None
             for _ in range(n)] for _ in range(n)]


def build_space(q, n, spec):
    """A fresh VolumeSpace for an entry spec, or None if it is singular."""
    zero = fq.poly(q, [])
    rows = [[fq.FqRationalFunction(zero, fq.poly_one(q)) if e is None
             else fq.FqRationalFunction(fq.poly(q, e[0]), fq.poly(q, e[1]))
             for e in row] for row in spec]
    try:
        return latff.VolumeSpace(q, n, rows)
    except errors.SingularityError:  # the caller draws again
        return None


def random_ff_summand_rows(rng, q, n, rank, maxdeg):
    """A random rank-`rank` FFSummand; dependent draws are drawn again."""
    while True:
        rows = [[random_poly_coeffs(rng, q, maxdeg) if rng.random() < 0.8 else []
                 for _ in range(n)] for _ in range(rank)]
        try:
            w = latff.FFSummand.from_rows(q, n, [[fq.poly(q, c) for c in row]
                                                 for row in rows])
        except errors.RankDeficiencyError:
            continue
        if w.rank == rank:
            return w


# ---------------------------------------------------------------------------
# encoders (JSON payloads for the output digests)
# ---------------------------------------------------------------------------

def enc_report(rep):
    return jsonio.report_to_json(rep)


def enc_value(v):
    return jsonio.value_to_json(v)


def enc_summands(ws):
    return [jsonio.summand_to_json(w) for w in ws]


def enc_members(hits):
    return [{"summand": jsonio.summand_to_json(w), "c": jsonio.value_to_json(c)}
            for w, c in hits]


def enc_diag(d):
    return {"r": list(d.r),
            "w": [[jsonio.poly_to_coeffs(x) for x in row] for row in d.w],
            "b": [[jsonio.ratfunc_to_str(x) for x in row] for row in d.b]}


def enc_plain(x):
    return x


def enc_rationals(M):
    return [[jsonio.rational_to_str(x) for x in row] for row in M]


# ---------------------------------------------------------------------------
# z-filtration
# ---------------------------------------------------------------------------

def z_form_group(rng, n, lam, cover_core=(True, True)):
    """SPD form at scale lam: filtration, instability, volume, cover, core."""
    gram = [[lam * x for x in row] for row in random_spd(rng, n)]
    form = lambda: latz.InnerProduct(n, gram)  # noqa: E731 - fresh object per op

    def check_chain(rep):
        ranks = [w.rank for w in rep.chain]
        expect(ranks[0] == 0 and ranks[-1] == n and ranks == sorted(set(ranks)),
               f"chain ranks {ranks}")
        for w in rep.interior_chain():
            c = rep.c_values[w]
            expect(c.sign() > 0, "interior chain member with c <= 0")
            expect(latz.instability_z(form(), w) == c, "instability_z != hull c-value")

    rep = yield Op("z.canfilt", latz.canonical_filtration_z, (form(),),
                   enc_report, check_chain)
    on_chain = {w.basis: rep.c_values[w] for w in rep.interior_chain()}

    w = latz.ZSummand.from_rows(n, random_int_rows(rng, n, rng.randint(1, n - 1), 2))

    def check_c(c):
        # a proper summand is on the canonical chain exactly when c > 0
        expect((c.sign() > 0) == (w.basis in on_chain), "c > 0 off the chain")
        if w.basis in on_chain:
            expect(c == on_chain[w.basis], "c differs from the chain's c-value")

    yield Op("z.instability", latz.instability_z, (form(), w), enc_value, check_c)

    B = [list(r) for r in w.basis]

    def check_vol(v2):
        expect(v2 == frac_det(frac_matmul(frac_matmul(B, gram), list(zip(*B)))),
               "gram_vol2 != det(B G B^T)")

    yield Op("z.vol2", latz.gram_vol2, (form(), w.basis),
             lambda v: jsonio.ratio_to_str(v), check_vol)

    def check_members(hits):
        expect([(x.basis, c) for x, c in hits] == sorted(
            on_chain.items(), key=lambda kv: len(kv[0])), "cover members != chain")

    if not cover_core[0]:
        return
    yield Op("z.cover", covers.cover_membership,
             (form(), covers.CoverSystem.semistability(n), True),
             enc_members, check_members)

    def check_core(in_core):
        expect(in_core == (not on_chain), "core_test disagrees with the chain")

    if not cover_core[1]:
        return
    yield Op("z.core", covers.core_test, (form(), covers.CoverSystem.semistability(n)),
             enc_plain, check_core)


def z_ladder_group(rng, k):
    """The identity form at n = 2 scaled by 10^-k: semistable at every scale."""
    form = latz.InnerProduct(2, [[Fraction(1, 10 ** k), Fraction(0)],
                                 [Fraction(0), Fraction(1, 10 ** k)]])

    def check(rep):
        expect([w.rank for w in rep.chain] == [0, 2] and not rep.c_values,
               "scaled identity is not semistable")

    yield Op(f"z.ladder{k}", latz.canonical_filtration_z, (form,), enc_report, check)


# ---------------------------------------------------------------------------
# ff-orbit
# ---------------------------------------------------------------------------

def space_factory(rng, q, n, maxdeg=2):
    """Factory of fresh copies of one random volume space."""
    while True:
        spec = random_space_spec(rng, q, n, maxdeg)
        if build_space(q, n, spec) is not None:
            return lambda: build_space(q, n, spec)


def ff_space_group(rng, q, n):
    """Volume space over F_q, entry degree <= 2: orbit invariants and friends."""
    space = space_factory(rng, q, n)

    def check_diag(d):
        d.validate()  # w_i = t^{r_i} b_i, unimodular w, b spans, sum r = logvol

    diag = yield Op("ff.diagonal_basis", latff.diagonal_basis, (space(),),
                    enc_diag, check_diag)
    r = diag.r
    chain = {m: diag.chain_summand(m) for m in range(1, n) if r[m] > r[m - 1]}

    def check_inv(out):
        r2, rep = out
        expect(tuple(r2) == r, "r-vector differs from diagonal_basis")
        expect([w.basis for w in rep.interior_chain()]
               == [chain[m].basis for m in sorted(chain)], "chain != diagonal breaks")
        for w in rep.interior_chain():
            expect(rep.c_values[w] == r[w.rank] - r[w.rank - 1], "c != r jump")

    yield Op("ff.invariants", latff.ff_invariants_and_filtration, (space(),),
             lambda out: {"r": list(out[0]), "filtration": enc_report(out[1])},
             check_inv)

    for m, w in sorted(chain.items()):
        def check_break(c, m=m):
            # the orbit-invariant identity: c at a chain break is the r jump
            expect(c == r[m] - r[m - 1], "instability_ff != r jump at a break")
        yield Op("ff.instability_break", latff.instability_ff, (space(), w),
                 jsonio.rational_to_str, check_break)

    m = rng.randint(1, n - 1)
    w = random_ff_summand_rows(rng, q, n, m, 2)
    breaks = {x.basis: r[x.rank] - r[x.rank - 1] for x in chain.values()}

    def check_c(c):
        expect((c > 0) == (w.basis in breaks), "c > 0 off the chain")
        if w.basis in breaks:
            expect(c == breaks[w.basis], "c differs from the r jump")

    yield Op("ff.instability", latff.instability_ff, (space(), w),
             jsonio.rational_to_str, check_c)

    def check_logvol(v):
        # the rank-m minimum of the log-volume is the sum of the m smallest r
        expect(v >= sum(r[:m]), "logvol below the rank minimum")

    yield Op("ff.logvol", latff.ff_logvol, (space(), w), enc_plain, check_logvol)


def ff_vertex_group(rng):
    """Criterion-08 neighbourhood: a vertex of the q = 2, n = 3 building."""
    q, n = 2, 3
    ctx = building.BuildingContext.function_field(q, n)
    vs0 = space_factory(rng, q, n)()
    cols = [[vs0.basis[i][j] for i in range(n)] for j in range(n)]

    def check_vertex(v):
        expect(v.ctx == ctx and len(v.matrix) == n, "malformed vertex")

    v = yield Op("ff.canonical_vertex", building.canonical_vertex, (cols, ctx),
                 jsonio.vertex_to_json, check_vertex)

    def check_neighbors(nbs):
        # one neighbour per proper nonzero subspace of F_2^3: 7 lines, 7 planes
        expect(sorted(d for _, d in nbs) == [1] * 7 + [2] * 7, "label differences")
        expect(len({w.matrix for w, _ in nbs} | {v.matrix}) == 15, "repeated vertex")

    nbs = yield Op("ff.neighbors", building.neighbors, (v,),
                   lambda out: [[jsonio.vertex_to_json(w), d] for w, d in out],
                   check_neighbors)
    sem = covers.CoverSystem.semistability(n)
    at_v = {}
    v_space = lambda: covers.vertex_volume_space(v)  # noqa: E731
    for w2, _d in nbs:
        members = yield Op("ff.cover", covers.cover_membership,
                           (covers.vertex_volume_space(w2), sem), enc_summands,
                           lambda ws: expect(len({x.rank for x in ws}) == len(ws),
                                             "two members of one rank"))
        cands = [x for x in members if x.basis not in at_v]
        for x in cands:
            # checked against every neighbour by the Lipschitz bound below
            at_v[x.basis] = yield Op("ff.instability_v", latff.instability_ff,
                                     (v_space(), x), jsonio.rational_to_str,
                                     lambda c: None)
        for basis in list(at_v):
            x = latff.FFSummand(q, n, basis)

            def check_lipschitz(c, basis=basis):
                # adjacent vertices move every instability by at most 4n
                expect(abs(c - at_v[basis]) <= 4 * n, "Lipschitz bound broken")
            yield Op("ff.instability_w", latff.instability_ff,
                     (covers.vertex_volume_space(w2), x), jsonio.rational_to_str,
                     check_lipschitz)


# ---------------------------------------------------------------------------
# loc-poset
# ---------------------------------------------------------------------------

def loc_ctx():
    return sarith.LocalizedContext.integers([2, 3])


def loc_poset_group(rng):
    """Criterion-10 poset: 13 lines, 25 planes of a transformed box over Z[1/6]."""
    ctx, n = loc_ctx(), 3
    g = random_unimodular(rng, n)
    vecs = []
    for v in itertools.product(range(-1, 2), repeat=n):
        if any(v) and next(x for x in v if x) > 0:
            vecs.append([sum(g[i][j] * v[j] for j in range(n)) for i in range(n)])
    Bm = random_invertible(rng, n, 4, 4)

    def check_lines(lines):
        expect(len({w.basis for w in lines}) == 13 and all(w.rank == 1 for w in lines),
               "13 distinct lines expected")
        for w, v in zip(lines, vecs):
            expect(frac_rank([list(w.basis[0]), v]) == 1, "line misses its vector")

    lines = yield Op("loc.span_lines",
                     lambda vs: [sarith.span_localized(ctx, n, [v]) for v in vs],
                     (vecs,), lambda ws: [jsonio.loc_summand_to_json(w) for w in ws],
                     check_lines)
    pairs = list(itertools.combinations(range(13), 2))

    def check_planes(joins):
        expect(all(j.rank == 2 for j in joins), "join of two lines is not a plane")
        expect(len({j.basis for j in joins}) == 25, "25 distinct planes expected")
        for (a, b), j in zip(pairs, joins):
            expect(frac_rank(list(j.basis) + [vecs[a], vecs[b]]) == 2,
                   "plane misses a line")

    joins = yield Op("loc.join_planes",
                     lambda ls: [ls[a].join(ls[b]) for a, b in pairs], (lines,),
                     lambda ws: [jsonio.loc_summand_to_json(w) for w in ws],
                     check_planes)
    planes = list({j.basis: j for j in joins}.values())
    images = {}
    for w in lines + planes:
        B = sarith.IntegralStructure(ctx, n, Bm)

        def check_image(img, w=w):
            expect(len(img) == w.rank, "image rank")
            # two-sided inverse: W cap B spans W again over Z[1/6]
            expect(sarith.span_localized(ctx, n, img) == w, "round trip lost W")
            images[w.basis] = tuple(img)
        yield Op("loc.intersect", sarith.intersect_integral, (w, B), enc_rationals,
                 check_image)
    expect(len(set(images.values())) == len(images), "images are not distinct")
    for _ in range(6):
        a, b = rng.sample(range(13), 2)
        plane = {x.basis for x in planes}

        def check_meet_join(out):
            meet, join = out
            expect(meet.rank == 0, "two lines meet")
            expect(join.basis in plane, "join is not one of the planes")
        yield Op("loc.meet_join", lambda x, y: (x.meet(y), x.join(y)),
                 (lines[a], lines[b]),
                 lambda out: [jsonio.loc_summand_to_json(w) for w in out],
                 check_meet_join)


def loc_c_z_group(rng):
    ctx, n = loc_ctx(), 2
    gram = random_spd(rng, n, spread=1)
    Bm = random_invertible(rng, n, 3, 3)
    w = sarith.span_localized(ctx, n, random_int_rows(rng, n, 1, 2))
    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    p = rng.choice([2, 3])

    def check(c):
        # scaling invariance: c(W; lam*s, p*B) = c(W; s, B)
        other = sarith.loc_c(w, latz.InnerProduct(n, gram).scaled(lam),
                             sarith.IntegralStructure(ctx, n, Bm).scaled(p))
        expect((c - other).is_zero(), "loc_c not scaling invariant")

    yield Op("loc.c_z", sarith.loc_c,
             (w, latz.InnerProduct(n, gram), sarith.IntegralStructure(ctx, n, Bm)),
             enc_value, check)


def loc_c_ff_group(rng):
    q, n = 2, 2
    t = fq.poly_t(q)
    ctx = sarith.LocalizedContext.function_field(q, [t])
    space = space_factory(rng, q, n, maxdeg=1)
    w = sarith.LocSummand.from_rows(ctx, n, random_ff_summand_rows(rng, q, n, 1, 1).basis)
    num, den = random_ratfunc_spec(rng, q, 2)
    lam = fq.FqRationalFunction(fq.poly(q, num), fq.poly(q, den))
    if lam.is_zero():
        lam = fq.FqRationalFunction.of(t)

    def check(c):
        other = sarith.loc_c(w, space().scaled(lam),
                             sarith.IntegralStructure.standard(ctx, n).scaled(t))
        expect(c == other, "loc_c not scaling invariant")

    yield Op("loc.c_ff", sarith.loc_c,
             (w, space(), sarith.IntegralStructure.standard(ctx, n)),
             jsonio.rational_to_str, check)


def _check_factors(A, mode):
    def check(out):
        Bm, Cm = out
        expect(frac_matmul(Bm, Cm) == [list(r) for r in A], "B * C != A")
        # B in GL_n(Z[1/6]): denominators and det are 6-units
        expect(all(only_primes(x.denominator, (2, 3)) for row in Bm for x in row),
               "B has a denominator outside {2, 3}")
        dB = frac_det(Bm)
        expect(dB != 0 and only_primes(abs(dB.numerator), (2, 3))
               and only_primes(dB.denominator, (2, 3)), "det B is not a 6-unit")
        # C in GL_n(Z_(6)): no 2 or 3 downstairs, det a unit there
        expect(all(coprime_to(x.denominator, (2, 3)) for row in Cm for x in row),
               "C has 2 or 3 in a denominator")
        dC = frac_det(Cm)
        expect(dC != 0 and coprime_to(dC.numerator, (2, 3))
               and coprime_to(dC.denominator, (2, 3)), "det C is not a unit at 2, 3")
        if mode == "SL":
            expect(dB == 1 and dC == 1, "SL factors need determinant 1")
    return check


def loc_factorize_group(rng, mode):
    n = rng.choice([2, 3])
    A = random_invertible(rng, n, 9, 9)
    if mode == "SL":
        d = frac_det(A)
        A[0] = [x / d for x in A[0]]
    yield Op(f"loc.factorize_{mode}", sarith.factorize, (A, loc_ctx(), mode),
             lambda out: {"B": enc_rationals(out[0]), "C": enc_rationals(out[1])},
             _check_factors(A, mode))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

# A workload runs in rounds.  Group g runs entry g % len of its schedule:
# (group function, keyword arguments).
SCHEDULES = {
    "z-filtration": [
        *[(z_form_group, dict(n=3, lam=lam, cover_core=cc))
          for lam in (1, 10) for cc in ((True, False), (False, True), (False, False))],
        *[(z_form_group, dict(n=2, lam=lam)) for lam in (1, 10) for _ in range(3)],
        *[(z_ladder_group, dict(k=k)) for k in range(4)],
    ],
    "ff-orbit": [
        *[(ff_space_group, dict(q=q, n=n))
          for q, n in ((4, 5), (4, 4), (3, 4), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                       (4, 3), (2, 4))],
        (ff_vertex_group, {}),
    ],
    "loc-poset": [
        (loc_poset_group, {}),
        *[(loc_c_z_group, {})] * 4,
        # six loc_c_ff ops put 8 of a round's 64 ops above 3.5 ms, so the p90
        # falls inside that cluster, not in the gap below it
        *[(loc_c_ff_group, {})] * 6,
        *[(loc_factorize_group, dict(mode=m)) for m in ("GL", "SL")] * 4,
    ],
}


def round_length(workload):
    return len(SCHEDULES[workload])


def group(workload, seed, stream, g):
    """The generator of group g, drawn fresh from the seed."""
    schedule = SCHEDULES[workload]
    fn, kwargs = schedule[g % len(schedule)]
    return fn(random.Random(f"{workload}/{seed}/{stream}/{g}"), **kwargs)


def contexts(workload):
    """The field, ring and localized contexts a workload builds at set-up."""
    if workload == "z-filtration":
        return [covers.CoverSystem.semistability(n) for n in (2, 3)]
    if workload == "ff-orbit":
        return [fq.gf(q) for q in (2, 3, 4)] + \
            [rings.poly_ring(q) for q in (2, 3, 4)] + \
            [building.BuildingContext.function_field(2, 3)]
    if workload == "loc-poset":
        return [loc_ctx(), fq.gf(2), rings.poly_ring(2),
                sarith.LocalizedContext.function_field(2, [fq.poly_t(2)])]
    raise KeyError(workload)
