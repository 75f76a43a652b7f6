"""JSON encoding of the exact value types used at the CLI boundary.

Conventions:
    * rationals as strings "p/q" or "p" or as JSON integers, never floats,
    * F_q elements as integers 0..q-1,
    * polynomials over F_q as ascending coefficient arrays,
    * rational functions as strings like "t^2/(t^3+1)",
    * integer fields (sizes, primes, exponents) as JSON integers only.

The F_q scalars (`fq`), `matrices`, `logs` and the Z, F_q[t] and localized
layers are imported by the functions that build or read their objects, so
a verb that never touches a layer does not load it: a Z-side request loads
no `fq`, an F_q-side filtration request no `logs`, and a request rejected
at `json.loads` none of them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError


def rational_to_str(x):
    x = Fraction(x)
    return str(x)


def rational_from_str(s):
    if isinstance(s, float):
        raise ValidationError(f"bad rational {s!r}: a JSON float; give a string "
                              "\"p/q\" or a JSON integer")
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {s!r}: {exc}") from None


def ratio_to_str(x):
    """Always 'num/den', even for integers (used for squared-volume tags)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")


def poly_from_str(q, text):
    from .fq import gf, poly
    F = gf(q)
    s = text.strip().replace(" ", "")
    if not s:
        raise ValidationError(f"empty polynomial {text!r}")
    if s == "0":
        return poly(F, [])
    coeffs = {}
    terms = s.replace("-", "+-").split("+")
    for term in terms[s.startswith("-"):]:  # a leading "-" leaves one empty term
        if not term:
            raise ValidationError(f"polynomial {text!r} has an empty term")
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValidationError(f"bad polynomial term {term!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            deg = 0
        else:
            deg = int(m.group(3)) if m.group(3) is not None else 1
        if coeff >= F.q:
            raise ValidationError(f"polynomial {text!r} has a coefficient outside the "
                                  f"F_{q} elements 0..{q - 1}")
        if neg:
            coeff = F.neg(coeff)
        coeffs[deg] = F.add(coeffs.get(deg, 0), coeff)
    top = max(coeffs) if coeffs else 0
    return poly(F, [coeffs.get(i, 0) for i in range(top + 1)])


def ratfunc_from_str(q, s):
    from .fq import FqRationalFunction
    s = str(s).strip().replace(" ", "")
    depth = 0
    split_at = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split_at = i
            break
    if split_at is None:
        return FqRationalFunction.of(poly_from_str(q, _strip_parens(s)))
    num = poly_from_str(q, _strip_parens(s[:split_at]))
    den = poly_from_str(q, _strip_parens(s[split_at + 1:]))
    if den.is_zero():
        raise ValidationError("zero denominator in rational function")
    return FqRationalFunction(num, den)


def _strip_parens(s):
    while s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return s


def poly_to_coeffs(p):
    return list(p.coeffs)


def poly_from_coeffs(q, coeffs):
    if not isinstance(coeffs, list) or not all(type(c) is int for c in coeffs):
        raise ValidationError(f"polynomial {coeffs!r} must be a list of integer "
                              "coefficients, lowest degree first ([0, 1] for t)")
    from .fq import gf, poly
    F = gf(q)
    if not all(0 <= c < q for c in coeffs):
        raise ValidationError(f"polynomial {coeffs!r} has a coefficient outside the "
                              f"F_{q} elements 0..{q - 1}")
    return poly(F, coeffs)


def ratfunc_to_str(x):
    from .fq import FqRationalFunction
    return str(FqRationalFunction.of(x))


def field_to_json(x):
    """A fraction-field scalar: rational or rational-function string."""
    if isinstance(x, (int, Fraction)):
        return rational_to_str(x)
    return ratfunc_to_str(x)


def field_from_json(q, s):
    """Parse a fraction-field scalar: rational when q is None, else over F_q(t)."""
    return rational_from_str(s) if q is None else ratfunc_from_str(q, s)


def int_from_json(x, field):
    """x, checked to be a JSON integer: not a bool, a float or a string."""
    if type(x) is not int:
        raise ValidationError(f"{field} must be a JSON integer, got {x!r}")
    return x


def _rows(rows, n, field, square=False):
    """rows, checked to be a list of length-n lists (n of them when square)."""
    if (not isinstance(rows, list) or (square and len(rows) != n)
            or not all(isinstance(r, list) and len(r) == n for r in rows)):
        count = f"{n} rows" if square else "rows"
        raise ValidationError(f"{field} must be a list of {count} of length {n}")
    return rows


# ---------------------------------------------------------------------------
# module-level payloads
# ---------------------------------------------------------------------------

def inner_product_from_json(doc):
    from .latz import InnerProduct
    try:
        n = int_from_json(doc["n"], "n")
        gram = [[rational_from_str(x) for x in row]
                for row in _rows(doc["gram"], n, "gram", square=True)]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad inner product: {exc}") from None
    return InnerProduct(n, gram)


def volume_space_from_json(doc):
    from .latff import VolumeSpace
    try:
        q = int_from_json(doc["q"], "q")
        n = int_from_json(doc["n"], "n")
        rows = [[ratfunc_from_str(q, x) for x in row]
                for row in _rows(doc["S_basis"], n, "S_basis", square=True)]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad volume space: {exc}") from None
    return VolumeSpace(q, n, rows)


def z_summand_from_json(doc, n):
    from .latz import ZSummand
    try:
        basis = [[int_from_json(x, "summand basis entry") for x in row]
                 for row in _rows(doc["basis"], n, "summand basis")]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad summand: {exc}") from None
    return ZSummand.from_rows(n, basis)


def ff_summand_from_json(doc, q, n):
    from .latff import FFSummand
    try:
        basis = [[poly_from_coeffs(q, x) for x in row]
                 for row in _rows(doc["basis"], n, "summand basis")]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad summand: {exc}") from None
    return FFSummand.from_rows(q, n, basis)


def summand_to_json(w):
    # told apart by their fields, so no summand layer need be imported: a
    # localized summand carries its context, an F_q[t] one its field size
    from .matrices import Summand
    if not isinstance(w, Summand):
        raise ValidationError(f"unknown summand type {type(w).__name__}")
    if hasattr(w, "ctx"):
        return loc_summand_to_json(w)
    enc = poly_to_coeffs if hasattr(w, "q") else int
    return {"rank": w.rank, "basis": [[enc(x) for x in row] for row in w.basis]}


def localized_context_from_json(doc):
    from .sarith import LocalizedContext
    ring = doc.get("ring", "z")
    kind = ring.lower() if isinstance(ring, str) else ring
    T = doc["T"]
    if not isinstance(T, list):
        raise ValidationError(f"T must be a JSON list, got {T!r}")
    if kind in ("z", "int", "integers"):
        return LocalizedContext.integers([int_from_json(p, "T entry") for p in T])
    if kind != "ff":
        raise ValidationError(f"ring must be one of z, int, integers, ff, got {ring!r}")
    q = int_from_json(doc["q"], "q")
    primes = [poly_from_coeffs(q, c) for c in T]
    return LocalizedContext.function_field(q, primes)


def integral_structure_from_json(ctx, doc):
    from .sarith import IntegralStructure
    try:
        n = int_from_json(doc["n"], "n")
        rows = _rows(doc["basis"], n, "integral structure basis", square=True)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad integral structure: {exc}") from None
    return IntegralStructure(ctx, n, [[field_from_json(ctx.q, x) for x in row]
                                      for row in rows])


def loc_summand_from_json(ctx, n, doc):
    from .sarith import LocSummand
    try:
        basis = [[field_from_json(ctx.q, x) for x in row]
                 for row in _rows(doc["basis"], n, "summand basis")]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad summand: {exc}") from None
    return LocSummand.from_rows(ctx, n, basis)


def square_matrix_from_json(q, rows, field):
    """A square matrix over the fraction field; its size is its row count."""
    if not isinstance(rows, list):
        raise ValidationError(f"{field} must be a square list of lists")
    return [[field_from_json(q, x) for x in row]
            for row in _rows(rows, len(rows), field, square=True)]


def loc_point_from_json(ctx, n, doc):
    """The point x of a localized request: an inner product on the Z side, a
    volume space on the F_q[t] side, checked to have B's n and the context's q.
    """
    if ctx.kind == "Z":
        x = inner_product_from_json(doc)
    else:
        x = volume_space_from_json(doc)
        if x.q != ctx.q:
            raise ValidationError(f"x has q = {x.q} but the context has q = {ctx.q}")
    if x.n != n:
        raise ValidationError(f"x has n = {x.n} but B has n = {n}")
    return x


def loc_summand_to_json(w):
    from .sarith import localized_basis
    return {"rank": w.rank,
            "basis": [[field_to_json(x) for x in row] for row in localized_basis(w)]}


def vertex_from_json(ctx, doc):
    try:
        field = "matrix" if "matrix" in doc else "basis"
        rows = _rows(doc[field], ctx.n, field, square=True)
    except TypeError as exc:
        raise ValidationError(f"bad vertex: {exc}") from None
    cols = [[field_from_json(ctx.q, rows[i][j]) for i in range(ctx.n)]
            for j in range(ctx.n)]
    from .building import canonical_vertex
    return canonical_vertex(cols, ctx)


def vertex_to_json(v):
    return {"matrix": [[field_to_json(x) for x in row] for row in v.matrix]}


# ---------------------------------------------------------------------------
# exact values and filtration reports
# ---------------------------------------------------------------------------

def value_to_json(v, tag="c_sq_ratio"):
    """Exact scalar payload; natural logs only as decimal annotations.

    An ExactLog value ln(arg)/m is emitted as {tag: arg'} with
    value = (1/2) ln(arg') whenever m divides 2, else with an explicit
    log-root pair; a rational is its string.
    """
    if isinstance(v, (int, Fraction)):
        return rational_to_str(v)
    arg, index = v.as_log_root()
    out = {}
    if index == 2:
        out[tag] = ratio_to_str(arg)
    elif index == 1:
        out[tag] = ratio_to_str(arg * arg)
    else:
        out["log_arg"] = ratio_to_str(arg)
        out["log_index"] = index
    out["decimal"] = f"{v.to_float():.12g}"
    return out


def point_to_json(p):
    return {"rank": p.rank, "logvol": value_to_json(p.logvol, tag="vol_sq"),
            "summand": summand_to_json(p.id)}


def report_to_json(report):
    c_values = {}
    for w, c in report.c_values.items():
        c_values[str(w.rank)] = value_to_json(c)
    return {
        "minima": [point_to_json(p) for p in report.minima],
        "path": [point_to_json(p) for p in report.path],
        "chain": [summand_to_json(w) for w in report.chain],
        "c_values": c_values,
    }
