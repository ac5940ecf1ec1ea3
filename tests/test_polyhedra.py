"""Integer Fourier--Motzkin against a rational reference."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from dfv import polyhedra
from dfv.polyhedra import UnboundedRegion, fm_prefix_projections, integer_points
from dfv.weights import CapExceeded


# -- the rational reference: every row goes through Fraction and back ---------

def _normalize_fraction(coeffs, rhs):
    scale = 1
    for d in [c.denominator for c in coeffs] + [rhs.denominator]:
        scale = scale * d // gcd(scale, d)
    ints = [int(c * scale) for c in coeffs]
    r = int(rhs * scale)
    g = 0
    for v in ints + [r]:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
        r = r // g
    return tuple(ints), r


def fraction_fm_prefix_projections(constraints, k):
    cons = polyhedra._dedupe(
        [_normalize_fraction([Fraction(c) for c in co], Fraction(r)) for co, r in constraints]
    )
    if cons is None:
        return None
    proj = [None] * (k + 1)
    proj[k] = cons
    current = cons
    for d in range(k, 0, -1):
        pos = [(co, r) for co, r in current if co[d - 1] > 0]
        neg = [(co, r) for co, r in current if co[d - 1] < 0]
        new = [(co, r) for co, r in current if co[d - 1] == 0]
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[d - 1], -cn[d - 1]
                combo = [Fraction(b * cp[j] + a * cn[j]) for j in range(k)]
                new.append(_normalize_fraction(combo, Fraction(b * rp + a * rn)))
        deduped = polyhedra._dedupe(new)
        if deduped is None:
            return None
        current = deduped
        proj[d - 1] = current
    return proj


def _random_system(rng):
    """k <= 4 variables, a few random rows and, most of the time, a box."""
    k = rng.randint(1, 4)
    rows = [
        (tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(-6, 6))
        for _ in range(rng.randint(1, 7))
    ]
    if rng.random() < 0.6:
        for i in range(k):
            e = tuple(int(j == i) for j in range(k))
            rows.append((e, -rng.randint(0, 4)))
            rows.append((tuple(-c for c in e), -rng.randint(0, 4)))
    return rows, k


def _points_or_direction(rows, k):
    try:
        return integer_points(rows, k)
    except UnboundedRegion as exc:
        return ("unbounded", exc.direction)


def test_integer_fm_equals_fraction_fm(monkeypatch):
    rng = random.Random(20261018)
    kinds = {"points": 0, "empty": 0, "unbounded": 0}
    for _ in range(1000):
        rows, k = _random_system(rng)
        ref = fraction_fm_prefix_projections(rows, k)
        assert fm_prefix_projections(rows, k) == ref, rows
        got = _points_or_direction(rows, k)
        with monkeypatch.context() as mp:
            mp.setattr(polyhedra, "fm_prefix_projections", lambda cons, k: ref)
            assert _points_or_direction(rows, k) == got, rows
        kinds["unbounded" if isinstance(got, tuple) else "points" if got else "empty"] += 1
    # the seeded mix covers all three outcomes
    assert min(kinds.values()) >= 200, kinds


def test_rows_are_reduced_by_their_gcd():
    assert polyhedra._reduce((4, -6), 8) == ((2, -3), 4)
    assert polyhedra._reduce((4, -6), 7) == ((4, -6), 7)
    assert polyhedra._reduce([0, 0], -3) == ((0, 0), -1)
    proj = fm_prefix_projections([((2, 2), 4), ((-3, 0), -9), ((0, -6), -12)], 2)
    assert proj[2] == [((1, 1), 2), ((-1, 0), -3), ((0, -1), -2)]
    assert proj[1] == [((-1, 0), -3), ((1, 0), 0)]


def test_fm_row_limit_raises(monkeypatch):
    # the cube 0 <= x_i <= 2: eliminating x_3 leaves the 4 rows of the square
    cube = [(tuple(s * (i == j) for j in range(3)), min(0, 2 * s)) for i in range(3) for s in (1, -1)]
    monkeypatch.setattr(polyhedra, "_FM_ROW_LIMIT", 4)
    assert len(integer_points(cube, 3)) == 27
    monkeypatch.setattr(polyhedra, "_FM_ROW_LIMIT", 3)
    with pytest.raises(CapExceeded) as exc:
        integer_points(cube, 3)
    assert str(exc.value) == "Fourier-Motzkin projection exceeded size limit"
