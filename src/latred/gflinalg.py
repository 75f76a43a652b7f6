"""Dense linear algebra over F_q on plain integer entries.

Entries are field elements encoded as integers 0..q-1 under a `GF` context.
Used for the leading-coefficient kernels and the shortest-vector echelon
form of the F_q[t] column reduction, and for residue-space combinatorics of
local lattices.
"""

from __future__ import annotations

import itertools


def _rref2_packed(rows, ncols):
    """Bit-packed reduced echelon form over F_2: rows as ints, bit j = col j."""
    packed = []
    for r in rows:
        acc = 0
        for j, x in enumerate(r):
            if x:
                acc |= 1 << j
        packed.append(acc)
    pivots = []
    rank = 0
    for col in range(ncols):
        mask = 1 << col
        piv = None
        for i in range(rank, len(packed)):
            if packed[i] & mask:
                piv = i
                break
        if piv is None:
            continue
        packed[rank], packed[piv] = packed[piv], packed[rank]
        row = packed[rank]
        for i in range(len(packed)):
            if i != rank and packed[i] & mask:
                packed[i] ^= row
        pivots.append(col)
        rank += 1
    return packed[:rank], pivots


def rref(F, rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if F.q == 2:
        packed, pivots = _rref2_packed(rows, n)
        out = [tuple((p >> j) & 1 for j in range(n)) for p in packed]
        return out, pivots
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = F.inv(a[r][col])
        a[r] = [F.mul(inv, x) for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in a[:r]], pivots


def rank(F, rows):
    return len(rref(F, rows)[0])


def nullspace(F, rows, ncols):
    """Echelonized basis of {x : rows . x = 0} in F^ncols, deterministic order."""
    if F.q == 2:
        packed, pivots = _rref2_packed(rows, ncols)
        pivset = set(pivots)
        basis = []
        for j in range(ncols):
            if j in pivset:
                continue
            v = [0] * ncols
            v[j] = 1
            jmask = 1 << j
            for r, pc in enumerate(pivots):
                if packed[r] & jmask:
                    v[pc] = 1
            basis.append(tuple(v))
        return basis
    red, pivots = rref(F, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(red[r][j])
        basis.append(tuple(v))
    return basis


def in_span(F, rows, vec):
    if not any(vec):
        return True
    return rank(F, list(rows) + [list(vec)]) == rank(F, rows)


def enumerate_subspaces(F, n, d):
    """All d-dimensional subspaces of F_q^n as canonical RREF bases."""
    if d == 0:
        return [()]
    q = F.q
    out = []
    for pivots in itertools.combinations(range(n), d):
        free_positions = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(d)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            out.append(tuple(tuple(r) for r in rows))
    return out
