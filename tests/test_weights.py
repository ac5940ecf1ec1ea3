"""Weight lattices against references: Fraction root coordinates, the full-diagram
dominant set, and the orders of the Weyl groups."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from dfv.cli import EXIT_CAP, main
from dfv.rootsys import cartan_matrix, system_id
from dfv.weights import CapExceeded, WeightLattice, weight_lattice

TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(2, 7)]
    + [("D", r) for r in range(4, 7)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


def _in_positive_root_cone(lat, w) -> bool:
    """Whether w is a nonnegative combination of simple roots: every row of
    the scaled inverse Cartan matrix ``lat.adj`` gives a nonnegative value."""
    return all(sum(a * x for a, x in zip(row, w)) >= 0 for row in lat.adj)


def _root_basis(cartan, w) -> list[Fraction]:
    """Solve C x = w over the rationals: the root-basis coordinates of w."""
    n = len(cartan)
    rows = [[Fraction(x) for x in cartan[i]] + [Fraction(w[i])] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _random_weights(rng, cartan, count):
    """Half arbitrary weights, half integer root combinations (mostly in the cone)."""
    n = len(cartan)
    out = []
    for k in range(count):
        if k % 2:
            out.append(tuple(rng.randint(-3, 3) for _ in range(n)))
        else:
            a = [rng.randint(0, 3) for _ in range(n)]
            if k % 8 == 0:
                a[rng.randrange(n)] = -1
            out.append(tuple(sum(cartan[i][j] * a[j] for j in range(n)) for i in range(n)))
    return out


@pytest.mark.parametrize("family,rank", TYPES, ids=[f"{f}{r}" for f, r in TYPES])
def test_scaled_inverse_cartan(family, rank):
    rsid = system_id(family, rank)
    lat = weight_lattice(rsid)
    c = cartan_matrix(rsid)
    assert lat.det_c >= 1
    for i in range(rank):
        for j in range(rank):
            assert sum(lat.adj[i][k] * c[k][j] for k in range(rank)) == lat.det_c * (i == j)
    # the scale is the least one: a multiple of (det_c, adj) passes the check above
    columns = [_root_basis(c, [int(i == j) for i in range(rank)]) for j in range(rank)]
    inverse = [[columns[j][i] for j in range(rank)] for i in range(rank)]
    assert lat.det_c == lcm(*(x.denominator for row in inverse for x in row))
    assert [list(row) for row in lat.adj] == [[lat.det_c * x for x in row] for row in inverse]


@pytest.mark.parametrize("family,rank", TYPES, ids=[f"{f}{r}" for f, r in TYPES])
def test_cone_and_height_match_fraction_reference(family, rank):
    rsid = system_id(family, rank)
    lat = weight_lattice(rsid)
    c = cartan_matrix(rsid)
    weights = _random_weights(random.Random(f"{family}{rank}"), c, 200)
    ref = {w: _root_basis(c, w) for w in weights}
    in_cone = [_in_positive_root_cone(lat, w) for w in weights]
    assert in_cone == [all(x >= 0 for x in ref[w]) for w in weights]
    assert any(in_cone) and not all(in_cone)
    for w in weights:
        assert list(lat.root_coords(w)) == [lat.det_c * x for x in ref[w]]
    by_int = sorted(weights, key=lambda w: (lat.height(w), w))
    by_ref = sorted(weights, key=lambda w: (sum(ref[w]), w))
    assert by_int == by_ref


def test_point_budget_raises(monkeypatch, capsys):
    lat = weight_lattice(system_id("A", 2))
    # the adjoint representation of SL_3 has 7 distinct weights
    monkeypatch.setattr("dfv.weights._POINT_BUDGET", 7)
    assert len(lat.character((1, 1))) == 7
    monkeypatch.setattr("dfv.weights._POINT_BUDGET", 6)
    with pytest.raises(CapExceeded) as exc:
        lat.character((1, 1))
    assert str(exc.value) == "weight diagram of (1, 1) exceeds 6 points"
    code = main(["oracle", "--family", "SL", "--n", "3", "--lam", "1,1", "--mu", "1,1",
                 "--method", "reflection"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP and captured.out == ""
    assert captured.err == "error: cap exceeded: weight diagram of (1, 1) exceeds 6 points\n"


def _seeded_dominant(lat, seed: str, count: int):
    """rho, the fundamental weights w_j and w_1 + w_j, and a few sparse seeded
    dominant weights."""
    rng = random.Random(seed)
    n = lat.rank
    ws = [lat.rho] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
    ws += [tuple(int(i == 0) + int(i == j) for i in range(n)) for j in range(n)]
    ws += [tuple(0 if rng.random() < 0.6 else rng.randint(1, 2) for _ in range(n))
           for _ in range(count)]
    return list(dict.fromkeys(ws))


def _reference_dominant_weights(lat, w):
    """Dominant weights of V_w from a BFS over the whole weight diagram."""
    seen = {w}
    frontier = [w]
    dominants = [w]
    while frontier:
        new = []
        for u in frontier:
            for a in lat.simple_fw:
                v = tuple(x - y for x, y in zip(u, a))
                if v in seen:
                    continue
                dom, _ = lat.to_dominant(v)
                if not _in_positive_root_cone(lat, tuple(x - y for x, y in zip(w, dom))):
                    continue
                seen.add(v)
                new.append(v)
                if v == dom:
                    dominants.append(v)
        frontier = new
    return dominants


@pytest.mark.parametrize("family,rank", TYPES, ids=[f"{f}{r}" for f, r in TYPES])
def test_dominant_weights_match_full_diagram_reference(family, rank, monkeypatch):
    lat = weight_lattice(system_id(family, rank))
    checked = 0
    for w in _seeded_dominant(lat, f"dominant-{family}{rank}", 6):
        # the diagram has at most dim V_w points: keep the reference BFS small
        if lat.weyl_dim(w) > 1_500:
            continue
        ref = _reference_dominant_weights(lat, w)
        got = lat._dominant_weights_below(w)
        assert sorted(got) == sorted(ref)
        dom_char = lat.dominant_character(w)
        with monkeypatch.context() as m:
            m.setattr(WeightLattice, "_dominant_weights_below", lambda self, u: ref)
            assert lat.dominant_character(w) == dom_char
        assert sum(k * lat.orbit_size(mu) for mu, k in dom_char.items()) == lat.weyl_dim(w)
        checked += 1
    assert checked


def _weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {"E6": 51_840, "E7": 2_903_040, "E8": 696_729_600, "F4": 1_152, "G2": 12}[family]


@pytest.mark.parametrize("family,rank", TYPES, ids=[f"{f}{r}" for f, r in TYPES])
def test_orbit_size_matches_orbit_and_weyl_order(family, rank):
    lat = weight_lattice(system_id(family, rank))
    # rho is regular: its stabiliser is trivial, so its orbit is all of W
    assert lat.orbit_size(lat.rho) == _weyl_order(family, rank)
    rng = random.Random(f"orbit-{family}{rank}")
    weights = [tuple(rng.randint(-2, 2) if rng.random() < 0.4 else 0 for _ in range(rank))
               for _ in range(40)]
    sizes = {w: lat.orbit_size(w) for w in weights}
    small = [w for w in weights if sizes[w] <= 5_000]
    assert len(small) >= 5
    for w in small:
        assert sizes[w] == len(lat.orbit(w))


def test_point_budget_trips_before_any_orbit(monkeypatch):
    lat = weight_lattice(system_id("A", 2))

    def no_orbit(self, *args, **kwargs):
        raise AssertionError("an orbit was built before the point budget check")

    monkeypatch.setattr("dfv.weights._POINT_BUDGET", 6)
    monkeypatch.setattr(WeightLattice, "orbit", no_orbit)
    with pytest.raises(CapExceeded) as exc:
        lat.character((1, 1))
    assert str(exc.value) == "weight diagram of (1, 1) exceeds 6 points"
