"""Integer root coordinates of the weight lattices against a Fraction reference."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dfv.cli import EXIT_CAP, main
from dfv.rootsys import cartan_matrix, system_id
from dfv.weights import CapExceeded, weight_lattice

TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(2, 7)]
    + [("D", r) for r in range(4, 7)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


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


@pytest.mark.parametrize("family,rank", TYPES, ids=[f"{f}{r}" for f, r in TYPES])
def test_cone_and_height_match_fraction_reference(family, rank):
    rsid = system_id(family, rank)
    lat = weight_lattice(rsid)
    c = cartan_matrix(rsid)
    weights = _random_weights(random.Random(f"{family}{rank}"), c, 200)
    ref = {w: _root_basis(c, w) for w in weights}
    in_cone = [lat.in_positive_root_cone(w) for w in weights]
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
