"""Exact lattice-point enumeration for rational polyhedra.

A constraint is (coeffs, rhs) over the integers, meaning coeffs . x >= rhs.
Fourier--Motzkin elimination, run once per system, yields the exact
projection onto every coordinate prefix; every row, input or combination,
is an integer row divided by the gcd of its entries.  Integer points are
then scanned coordinate by coordinate inside those projections, so no dead
branches occur and unboundedness is detected before scanning.
"""

from __future__ import annotations

from math import gcd

_FM_ROW_LIMIT = 50_000  # most rows one elimination step may leave


class UnboundedRegion(ValueError):
    def __init__(self, direction):
        self.direction = direction
        super().__init__(f"region is unbounded along {direction}")


class PolyhedronError(ValueError):
    pass


def _reduce(coeffs, rhs):
    """The primitive form of an integer row: divided by the gcd of its entries."""
    g = gcd(*coeffs, rhs)
    if g > 1:
        return tuple(c // g for c in coeffs), rhs // g
    return tuple(coeffs), rhs


def _dedupe(cons):
    seen = {}
    for coeffs, rhs in cons:
        if all(c == 0 for c in coeffs):
            if rhs > 0:
                return None  # infeasible
            continue
        key = coeffs
        if key not in seen or rhs > seen[key]:
            seen[key] = rhs
    return [(k, v) for k, v in seen.items()]


def fm_prefix_projections(constraints, k: int):
    """Projections of the solution set onto each coordinate prefix.

    Returns proj[d] (d = 1..k): primitive integer constraints involving
    only x_1..x_d, with proj[k] the full system.  None if the system is
    infeasible over the rationals.
    """
    cons = _dedupe([_reduce(co, r) for co, r in constraints])
    if cons is None:
        return None
    proj: list = [None] * (k + 1)
    proj[k] = cons
    current = cons
    for d in range(k, 0, -1):
        pos = [(co, r) for co, r in current if co[d - 1] > 0]
        neg = [(co, r) for co, r in current if co[d - 1] < 0]
        rest = [(co, r) for co, r in current if co[d - 1] == 0]
        new = list(rest)
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[d - 1], -cn[d - 1]
                combo = [b * cp[j] + a * cn[j] for j in range(k)]
                new.append(_reduce(combo, b * rp + a * rn))
        deduped = _dedupe(new)
        if deduped is None:
            return None
        if len(deduped) > _FM_ROW_LIMIT:
            raise PolyhedronError("Fourier-Motzkin projection exceeded size limit")
        current = deduped
        proj[d - 1] = current
    return proj


def check_bounded(proj, k: int):
    """Raise UnboundedRegion if some coordinate is unbounded.

    Coordinates are examined in scan order; x_d must be bounded in the
    projection onto x_1..x_d once x_1..x_{d-1} are bounded, which makes
    the whole region bounded by induction.
    """
    for d in range(1, k + 1):
        cons = proj[d]
        has_lo = any(co[d - 1] > 0 for co, _ in cons)
        has_hi = any(co[d - 1] < 0 for co, _ in cons)
        if not (has_lo and has_hi):
            direction = tuple(
                (0 if j != d - 1 else (1 if not has_hi else -1)) for j in range(k)
            )
            raise UnboundedRegion(direction)


def integer_points(constraints, k: int):
    """All integer points of {x : coeffs . x >= rhs} in lexicographic order."""
    proj = fm_prefix_projections(constraints, k)
    if proj is None:
        return []
    check_bounded(proj, k)
    # per-depth constraint lists; constraints with zero coefficient on x_d
    # are dropped: they survive Fourier-Motzkin into the shorter prefix
    # projection and are therefore already satisfied by any scanned prefix
    levels: list[list[tuple[int, tuple[int, ...], int]]] = [[]]
    for d in range(1, k + 1):
        lvl = []
        for co, r in proj[d]:
            c = co[d - 1]
            if c:
                lvl.append((c, co[: d - 1], r))
        levels.append(lvl)
    out: list[tuple[int, ...]] = []

    def scan(d: int, prefix: tuple[int, ...]):
        if d > k:
            out.append(prefix)
            return
        # check_bounded found a lower and an upper constraint at every depth
        lo = None
        hi = None
        for c, co, r in levels[d]:
            rem = r - sum(a * b for a, b in zip(co, prefix))
            if c > 0:
                b = -((-rem) // c)  # ceil(rem / c)
                if lo is None or b > lo:
                    lo = b
            else:
                b = rem // c  # floor(rem / c) for negative c
                if hi is None or b < hi:
                    hi = b
        for v in range(lo, hi + 1):
            scan(d + 1, prefix + (v,))

    scan(1, ())
    return out
