"""Batch JSON command line: one verb per operation, stdin to stdout.

Exit codes: 0 success, 2 malformed input, 3 domain error.  Output is
deterministic byte-for-byte for a fixed input document.

Each verb imports the layers it calls, so a request loads only those.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import click

from .errors import DomainError, LatredError, SingularityError, ValidationError


def _emit(payload):
    click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _read_stdin():
    data = sys.stdin.read()
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON on stdin: {exc}") from None


def _run(fn):
    try:
        _emit(fn())
    except ValidationError as exc:
        _emit({"error": str(exc), "kind": "validation"})
        sys.exit(2)
    except DomainError as exc:
        _emit({"error": str(exc), "kind": "domain"})
        sys.exit(3)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            ZeroDivisionError) as exc:
        # any shape mismatch while picking the request apart is bad input
        _emit({"error": f"bad request document: {exc!r}", "kind": "validation"})
        sys.exit(2)


@click.group()
def main():
    """Exact reduction theory: filtrations, volumes, buildings, covers."""


@main.command()
@click.option("--ring", type=click.Choice(["z", "ff"]), required=True)
def canfilt(ring):
    """Canonical filtration of an inner product (z) or volume space (ff)."""
    def go():
        from . import jsonio
        doc = _read_stdin()
        if ring == "z":
            from . import latz
            s = jsonio.inner_product_from_json(doc)
            report = latz.canonical_filtration_z(s)
        else:
            from . import latff
            vs = jsonio.volume_space_from_json(doc)
            _, report = latff.ff_invariants_and_filtration(vs)
        return jsonio.report_to_json(report)
    _run(go)


@main.command()
@click.option("--ring", type=click.Choice(["z", "ff"]), required=True)
def volume(ring):
    """Log-volume of a summand: {"x": ..., "summand": ...}."""
    def go():
        from . import jsonio
        doc = _read_stdin()
        if ring == "z":
            from . import latz
            from .logs import ExactLog
            s = jsonio.inner_product_from_json(doc["x"])
            w = jsonio.z_summand_from_json(doc["summand"], s.n)
            v2 = latz.gram_vol2(s, w.basis)
            return {"vol_sq": jsonio.ratio_to_str(v2),
                    "logvol": jsonio.value_to_json(ExactLog.half_log(v2),
                                                   tag="vol_sq")}
        from . import latff
        vs = jsonio.volume_space_from_json(doc["x"])
        w = jsonio.ff_summand_from_json(doc["summand"], vs.q, vs.n)
        return {"logvol": latff.ff_logvol(vs, w)}
    _run(go)


@main.command()
@click.option("--ring", type=click.Choice(["z", "ff"]), required=True)
def cvalue(ring):
    """Instability number of a proper nonzero summand."""
    def go():
        from . import jsonio
        doc = _read_stdin()
        if ring == "z":
            from . import latz
            s = jsonio.inner_product_from_json(doc["x"])
            w = jsonio.z_summand_from_json(doc["summand"], s.n)
            return {"c": jsonio.value_to_json(latz.instability_z(s, w))}
        from . import latff
        vs = jsonio.volume_space_from_json(doc["x"])
        w = jsonio.ff_summand_from_json(doc["summand"], vs.q, vs.n)
        return {"c": str(latff.instability_ff(vs, w))}
    _run(go)


@main.command(name="ff-invariants")
def ff_invariants():
    """Orbit r-vector and canonical filtration of a volume space."""
    def go():
        from . import jsonio, latff
        vs = jsonio.volume_space_from_json(_read_stdin())
        r, report = latff.ff_invariants_and_filtration(vs)
        return {"r": list(r), "filtration": jsonio.report_to_json(report)}
    _run(go)


@main.command(name="diagonal-basis")
def diagonal_basis_cmd():
    """Diagonal bases w_i = t^{r_i} b_i of a volume space."""
    def go():
        from . import jsonio, latff
        vs = jsonio.volume_space_from_json(_read_stdin())
        diag = latff.diagonal_basis(vs)
        return {
            "r": list(diag.r),
            "w": [[jsonio.poly_to_coeffs(x) for x in row] for row in diag.w],
            "b": [[jsonio.ratfunc_to_str(x) for x in row] for row in diag.b],
        }
    _run(go)


@main.command()
def intersect():
    """W cap B for a localized summand and an integral structure."""
    def go():
        from . import jsonio, sarith
        doc = _read_stdin()
        ctx = jsonio.localized_context_from_json(doc)
        B = jsonio.integral_structure_from_json(ctx, doc["B"])
        w = jsonio.loc_summand_from_json(ctx, B.n, doc["summand"])
        rows = sarith.intersect_integral(w, B)
        return {"basis": [[jsonio.field_to_json(x) for x in row] for row in rows]}
    _run(go)


@main.command(name="loc-volume")
def loc_volume():
    """Localized log-volume of (W, x, B)."""
    def go():
        from . import jsonio, sarith
        doc = _read_stdin()
        ctx = jsonio.localized_context_from_json(doc)
        B = jsonio.integral_structure_from_json(ctx, doc["B"])
        w = jsonio.loc_summand_from_json(ctx, B.n, doc["summand"])
        x = jsonio.loc_point_from_json(ctx, B.n, doc["x"])
        logvol = sarith.loc_logvol(w, x, B)
        if ctx.kind == "Z":
            return {"logvol": jsonio.value_to_json(logvol, tag="vol_sq")}
        return {"logvol": logvol}
    _run(go)


@main.command()
def factorize():
    """Split A in GL_n(Q) into GL_n(Z[T^-1]) * GL_n(Z_T) factors."""
    def go():
        from . import jsonio, sarith
        doc = _read_stdin()
        ctx = jsonio.localized_context_from_json(doc)
        A = jsonio.square_matrix_from_json(ctx.q, doc["A"], "A")
        Bm, Cm = sarith.factorize(A, ctx, mode=doc.get("mode", "GL"))
        return {"B": [[jsonio.field_to_json(x) for x in row] for row in Bm],
                "C": [[jsonio.field_to_json(x) for x in row] for row in Cm]}
    _run(go)


def _building_ctx(p, q, n):
    if (p is None) == (q is None):
        raise ValidationError("specify exactly one of --p (p-adic) or --q (F_q(t))")
    from . import building
    if p is not None:
        return building.BuildingContext.p_adic(p, n)
    return building.BuildingContext.function_field(q, n)


def _neighbors_payload(p, q, n):
    from . import building, jsonio
    ctx = _building_ctx(p, q, n)
    v = jsonio.vertex_from_json(ctx, _read_stdin())
    nbs = building.neighbors(v)
    return {
        "count": len(nbs),
        "neighbors": [{"vertex": jsonio.vertex_to_json(w), "label_difference": d}
                      for w, d in nbs],
    }


@main.command(name="building-neighbors")
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--n", type=int, required=True)
def building_neighbors(p, q, n):
    """Neighbors of a lattice-class vertex with directed label differences."""
    _run(lambda: _neighbors_payload(p, q, n))


@main.group(name="building")
def building_group():
    """Building verbs (alias spelling: `building neighbors`)."""


@building_group.command(name="neighbors")
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--n", type=int, required=True)
def building_neighbors_alias(p, q, n):
    _run(lambda: _neighbors_payload(p, q, n))


@main.command(name="label-diff")
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--n", type=int, required=True)
def label_diff(p, q, n):
    """Label difference of two vertices: {"v1": ..., "v2": ...}."""
    def go():
        from . import building, jsonio
        ctx = _building_ctx(p, q, n)
        doc = _read_stdin()
        v1 = jsonio.vertex_from_json(ctx, doc["v1"])
        v2 = jsonio.vertex_from_json(ctx, doc["v2"])
        return {"label_difference": building.label_difference(v1, v2)}
    _run(go)


@main.command(name="chamber-count")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
def chamber_count(n, r, k):
    """Chambers through an edge of label difference k (with verification)."""
    def go():
        from . import building
        count, verified = building.count_chambers_on_edge(n, r, k)
        return {"count": count, "verified": verified}
    _run(go)


@main.command()
def apartment():
    """Apartment coordinates of an integer exponent vector: {"m": [...]}."""
    def go():
        from . import building, jsonio
        doc = _read_stdin()
        coords = building.apartment_coords([jsonio.int_from_json(x, "m entry")
                                            for x in doc["m"]])
        return {"coords": [jsonio.rational_to_str(c) for c in coords]}
    _run(go)


@main.command()
def triangulate():
    """Simplicial decomposition of a rational point: {"x": [...]}."""
    def go():
        from . import building, jsonio
        doc = _read_stdin()
        dec = building.triangulate_point([jsonio.rational_from_str(v)
                                          for v in doc["x"]])
        return {"points": [list(p) for p in dec.points],
                "coeffs": [jsonio.rational_to_str(c) for c in dec.coeffs]}
    _run(go)


def _cover_point_and_system(doc):
    from . import building, covers, jsonio
    side = doc.get("side", "z")
    if side == "z":
        x = jsonio.inner_product_from_json(doc["x"])
        n = x.n
    elif side == "ff":
        ctx = building.BuildingContext.function_field(
            jsonio.int_from_json(doc["q"], "q"), jsonio.int_from_json(doc["n"], "n"))
        x = jsonio.vertex_from_json(ctx, doc["x"])
        n = ctx.n
    elif side in ("loc-z", "loc-ff"):
        # the side fixes the kind; "ring" may spell it but not contradict it
        lctx = jsonio.localized_context_from_json(dict(doc, ring=doc.get("ring", side[4:])))
        if lctx.kind != side[4:].upper():
            raise ValidationError(f"ring {doc['ring']!r} contradicts side {side!r}")
        B = jsonio.integral_structure_from_json(lctx, doc["B"])
        x = (jsonio.loc_point_from_json(lctx, B.n, doc["x"]), B)
        n = B.n
    else:
        raise ValidationError(f"unknown side {side!r}")
    theta = doc.get("threshold")
    if theta is None:
        sys_ = covers.CoverSystem.building_preset(n) if side != "z" \
            else covers.CoverSystem.semistability(n)
    else:
        sys_ = covers.CoverSystem(n, Fraction(str(theta)))
    return x, sys_


@main.command(name="cover-membership")
def cover_membership_cmd():
    """Summands whose instability at the point exceeds the threshold."""
    def go():
        from . import covers, jsonio
        doc = _read_stdin()
        x, sys_ = _cover_point_and_system(doc)
        hits = covers.cover_membership(x, sys_, with_values=True)
        return {"members": [{"summand": jsonio.summand_to_json(w),
                             "c": jsonio.value_to_json(c)} for w, c in hits]}
    _run(go)


@main.command(name="core-test")
def core_test_cmd():
    """Whether the point lies in the cocompact core (no set exceeds theta)."""
    def go():
        from . import covers
        doc = _read_stdin()
        x, sys_ = _cover_point_and_system(doc)
        return {"in_core": covers.core_test(x, sys_)}
    _run(go)


@main.command(name="core-reps")
@click.option("--n", type=int, required=True)
@click.option("--theta", type=int, required=True)
def core_reps(n, theta):
    """Normalized r-vectors classifying core lattice classes."""
    from . import covers
    _run(lambda: {"reps": [list(r) for r in covers.core_orbit_reps(n, theta)]})


@main.command()
@click.option("--seed", type=int, default=0)
@click.option("--scale", type=int, default=6, help="instances per check")
def selfcheck(seed, scale):
    """Randomized cross-checks of the closed forms against independent computations."""
    def go():
        if scale < 1:
            raise ValidationError(f"--scale must be at least 1, got {scale}")
        rng = random.Random(seed)
        checks = []
        checks.append(_check_snf(rng, scale))
        checks.append(_check_hull_vs_instability(rng, max(2, scale // 2)))
        checks.append(_check_ff_agreement(rng, max(2, scale // 2)))
        checks.append(_check_factorization(rng, scale))
        checks.append(_check_chambers())
        ok = all(c["ok"] for c in checks)
        return {"ok": ok, "checks": checks}
    _run(go)


def _check_snf(rng, scale):
    from . import matrices
    from .rings import ZZ
    good = 0
    for _ in range(scale):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = matrices.freeze([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        U, D, V = matrices.snf(ZZ, A)
        if matrices.matmul(matrices.matmul(U, D, 0), V, 0) == A:
            good += 1
    return {"name": "smith-normal-form", "instances": scale, "ok": good == scale}


def _check_hull_vs_instability(rng, scale):
    from . import latz
    good = 0
    for _ in range(scale):
        n = 2 if rng.random() < 0.7 else 3
        while True:
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                s = latz.InnerProduct(n, [[Fraction(sum(A[i][k] * A[j][k]
                                                        for k in range(n)) + (i == j))
                                           for j in range(n)] for i in range(n)])
                break
            except LatredError:
                continue
        rep = latz.canonical_filtration_z(s)
        ok = all(latz.instability_z(s, w) == c for w, c in rep.c_values.items())
        good += ok
    return {"name": "hull-vs-instability", "instances": scale, "ok": good == scale}


def _check_ff_agreement(rng, scale):
    from . import latff
    from .fq import FqRationalFunction, poly
    good = 0
    for _ in range(scale):
        n = 2
        while True:
            try:
                rows = [[FqRationalFunction(
                    poly(2, [rng.randrange(2) for _ in range(rng.randint(1, 2))]),
                    poly(2, [rng.randrange(2) for _ in range(rng.randint(1, 2))]))
                    for _ in range(n)] for _ in range(n)]
                vs = latff.VolumeSpace(2, n, rows)
                break
            except (LatredError, ZeroDivisionError):
                continue
        # hull c-values against c from the restricted and quotient spaces
        _, rep = latff.ff_invariants_and_filtration(vs)
        good += all(latff.instability_ff(vs, w) == c for w, c in rep.c_values.items())
    return {"name": "ff-filtration-agreement", "instances": scale, "ok": good == scale}


def _check_factorization(rng, scale):
    from . import matrices, sarith
    ctx = sarith.LocalizedContext.integers([2, 3])
    good = 0
    for _ in range(scale):
        n = rng.randint(2, 3)
        while True:
            A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(n)] for _ in range(n)]
            try:
                Bm, Cm = sarith.factorize(A, ctx)
            except SingularityError:
                continue
            break
        good += matrices.matmul(Bm, Cm, Fraction(0)) == matrices.freeze(A)
    return {"name": "matrix-factorization", "instances": scale, "ok": good == scale}


def _check_chambers():
    from . import building
    ok = True
    for n in range(2, 5):
        for r in (2, 3):
            for k in range(1, n):
                _, verified = building.count_chambers_on_edge(n, r, k)
                ok = ok and verified
    return {"name": "chamber-counts", "instances": "n<=4, r<=3", "ok": ok}


if __name__ == "__main__":
    main()
