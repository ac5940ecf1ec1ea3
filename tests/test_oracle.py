"""Characters, Weyl dimensions, and the three tensor-product methods."""

from __future__ import annotations

import random

import pytest

from dfv.oracle import (
    DecompositionTerm,
    dimension_check,
    lr_coefficient,
    lr_tensor,
    tensor_oracle,
    tensor_product,
    tensor_product_reflection,
    weight_to_partition,
)
from dfv.rootsys import system_id
from dfv.weights import CapExceeded, OracleError, WeightLattice, weight_lattice

A1 = system_id("A", 1)
A3 = system_id("A", 3)
C2 = system_id("C", 2)


def test_a1_character():
    lat = weight_lattice(A1)
    assert lat.character((2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    assert lat.character((0,)) == {(0,): 1}


def test_c2_dimensions():
    lat = weight_lattice(C2)
    assert lat.weyl_dim((0, 1)) == 5
    assert lat.weyl_dim((1, 0)) == 4
    assert lat.weyl_dim((1, 1)) == 16
    assert lat.weyl_dim((0, 0)) == 1


def test_character_mass_equals_dimension():
    for group, lam in [(C2, (1, 1)), (A3, (1, 0, 1)), (system_id("B", 3), (0, 1, 0))]:
        lat = weight_lattice(group)
        char = lat.character(lam)
        assert sum(char.values()) == lat.weyl_dim(lam)


def test_character_weyl_invariance():
    lat = weight_lattice(C2)
    char = lat.character((2, 1))
    for w, m in char.items():
        for i in range(2):
            assert char[lat.reflect_simple(w, i)] == m


def test_clebsch_gordan():
    assert tensor_product(A1, (1,), (1,)) == {(2,): 1, (0,): 1}
    assert tensor_product(A1, (3,), (2,)) == {(5,): 1, (3,): 1, (1,): 1}


def test_tensor_with_trivial():
    assert tensor_product(C2, (2, 1), (0, 0)) == {(2, 1): 1}


def test_c2_vector_times_five_dim():
    dec = tensor_product(C2, (1, 0), (0, 1))
    assert dec == {(1, 1): 1, (1, 0): 1}
    lat = weight_lattice(C2)
    assert 4 * 5 == sum(lat.weyl_dim(w) * m for w, m in dec.items())


def test_methods_agree_and_commute():
    rng = random.Random(3)
    groups = [A1, A3, C2, system_id("B", 2), system_id("D", 4), system_id("G2", 2)]
    for _ in range(25):
        g = rng.choice(groups)
        lam = tuple(rng.randint(0, 2) for _ in range(g.rank))
        mu = tuple(rng.randint(0, 2) for _ in range(g.rank))
        try:
            a = tensor_product(g, lam, mu)
        except CapExceeded:
            continue
        assert a == tensor_product(g, mu, lam)
        assert a == tensor_product_reflection(g, lam, mu)
        if g.family == "A":
            assert a == lr_tensor(g.rank + 1, lam, mu)
        terms = [DecompositionTerm(w, m) for w, m in a.items()]
        assert dimension_check(g, lam, mu, terms)


def test_lr_pieri():
    # single box: Pieri rule, one term per addable corner
    lam = weight_to_partition(4, (1, 1, 0))
    assert lam == (2, 1, 0, 0)
    dec = lr_tensor(4, (1, 1, 0), (1, 0, 0))
    assert sum(dec.values()) == 3  # (3,1), (2,2), (2,1,1)


def test_lr_coefficient_known_value():
    # c^{(4,2)}_{(2,1),(2,1)} = 1 and c^{(3,2,1)}_{(2,1),(2,1)} = 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_tensor_oracle_terms_sorted_and_positive():
    terms = tensor_oracle(C2, (1, 0), (0, 1))
    assert all(t.multiplicity >= 1 for t in terms)
    with pytest.raises(OracleError):
        DecompositionTerm((1, 0), 0)


def test_caps_enforced():
    A8 = system_id("A", 8)
    with pytest.raises(CapExceeded):
        tensor_product(A8, (2, 0, 0, 2, 0, 0, 2, 0), (2, 0, 0, 2, 0, 0, 2, 0), dim_cap=20_000)
    with pytest.raises(CapExceeded):
        tensor_product(system_id("E8", 8), (1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8, rank_cap=7)


def test_dim_cap_trips_on_lam_plus_mu_before_any_character(monkeypatch):
    A8 = system_id("A", 8)
    lam, mu = (0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1, 0, 0)
    lat = weight_lattice(A8)
    assert lat.weyl_dim(lam) <= 20_000 and lat.weyl_dim(mu) <= 20_000

    def no_character(self, *args, **kwargs):
        raise AssertionError("a character was built before the cap check")

    monkeypatch.setattr(WeightLattice, "character", no_character)
    monkeypatch.setattr(WeightLattice, "dominant_character", no_character)
    with pytest.raises(CapExceeded) as exc:
        tensor_product(A8, lam, mu)
    assert str(exc.value) == "dim 148500 of weight (0, 0, 2, 0, 0, 1, 0, 0) above cap 20000"


def test_peel_builds_only_the_smaller_full_character(monkeypatch):
    built = []
    character = WeightLattice.character

    def logged(self, w):
        built.append(w)
        return character(self, w)

    monkeypatch.setattr(WeightLattice, "character", logged)
    # V_(1,0) of C2 has 4 weights, V_(0,1) has 5
    assert tensor_product(C2, (0, 1), (1, 0)) == {(1, 1): 1, (1, 0): 1}
    assert built == [(1, 0)]


def test_peel_counts_each_diagram_against_the_point_budget(monkeypatch):
    A2 = system_id("A", 2)
    monkeypatch.setattr("dfv.weights._POINT_BUDGET", 6)
    # (1, 1) has 7 weights: refused as a factor and as a summand
    for lam, mu in (((0, 0), (1, 1)), ((1, 0), (0, 1))):
        with pytest.raises(CapExceeded) as exc:
            tensor_product(A2, lam, mu, dim_cap=None)
        assert str(exc.value) == "weight diagram of (1, 1) exceeds 6 points"


def test_no_dim_cap_leaves_result_unchanged():
    assert tensor_product(C2, (1, 0), (0, 1), dim_cap=None) == {(1, 1): 1, (1, 0): 1}
    assert tensor_product(A3, (1, 0, 1), (1, 0, 1), dim_cap=None) == tensor_product(
        A3, (1, 0, 1), (1, 0, 1)
    )


def test_lr_requires_type_a():
    with pytest.raises(OracleError):
        tensor_oracle(C2, (1, 0), (1, 0), method="lr")
