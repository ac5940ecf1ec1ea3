"""The stripping engine: worked examples, properties, exact rank."""

from __future__ import annotations

import random

import pytest

from dfv.complexity import (
    WeightSetPair,
    complexity,
    dimension_lower_bound,
    integer_rank,
    intersection_weight_sets,
    strip,
)
from dfv.parabolic import BlockComposition, SimpleRootSubset, classical_system_id
from dfv.rootsys import build_root_system, system_id

E6 = system_id("E6")
E7 = system_id("E7")
E8 = system_id("E8")


def subset(rsid, removed):
    return SimpleRootSubset(rsid, frozenset(range(1, rsid.rank + 1)) - set(removed))


def test_intersection_weight_sets_extremes():
    rs = build_root_system(system_id("A", 3))
    full = range(1, 4)
    pair = intersection_weight_sets(rs, full, full)
    assert pair.F == frozenset() and pair.E == rs.all_roots
    pair = intersection_weight_sets(rs, (), ())
    assert pair.E == frozenset() and pair.F == frozenset(rs.positive_roots)


def test_e6_worked_example():
    rs = build_root_system(E6)
    pair = intersection_weight_sets(rs, frozenset(range(2, 7)), frozenset({1, 2, 3, 4, 6}))
    # one difference root, six quadruple roots, and twice-epsilon
    assert len(pair.F) == 8
    assert len(pair.E) == 24
    res = strip(pair)
    # eps_1 - eps_6 and 2 eps, as test_rootsys.py::test_e6_epsilon_forms pins
    assert list(res.mus) == [(1, 1, 1, 1, 1, 0), (1, 2, 3, 2, 1, 2)]
    assert res.n_weights == 2 and res.rank == 2 and res.complexity == 0


def test_strip_trivial_cases():
    rs = build_root_system(system_id("A", 2))
    empty = strip(WeightSetPair(rs.id, frozenset(), frozenset()))
    assert empty.mus == () and empty.complexity == 0
    # with E empty every positive root is extracted in minimal order
    allpos = strip(WeightSetPair(rs.id, frozenset(), frozenset(rs.positive_roots)))
    # height first, then mass on earlier simple roots: alpha_1 before alpha_2
    assert allpos.mus == ((1, 0), (0, 1), (1, 1))
    assert allpos.n_weights == 3 and allpos.rank == 2 and allpos.complexity == 1


def test_exceptional_values():
    assert complexity(E6, subset(E6, {1}), subset(E6, {5})) == 0
    assert complexity(E7, subset(E7, {1}), subset(E7, {2})) == 1
    assert complexity(E8, subset(E8, {1}), subset(E8, {1})) == 2


def test_sl_two_block_pairs_are_spherical():
    for n in range(2, 9):
        rsid = classical_system_id("SL", n)
        for p1 in range(1, n):
            for q1 in range(1, n):
                c = complexity(
                    rsid,
                    BlockComposition("SL", n, (p1, n - p1)),
                    BlockComposition("SL", n, (q1, n - q1)),
                )
                assert c == 0, (n, p1, q1)


def test_integer_rank_basics():
    assert integer_rank([]) == 0
    assert integer_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert integer_rank([(2, 4), (1, 2)]) == 1
    assert integer_rank([(0, 0, 0)]) == 0
    with pytest.raises(ValueError):
        integer_rank([(1, 0), (1,)])


def test_dimension_lower_bound_examples():
    A3 = classical_system_id("SL", 4)
    borel = BlockComposition("SL", 4, (1, 1, 1, 1))
    assert dimension_lower_bound(A3, borel, borel) == 3
    everything = BlockComposition("SL", 4, (4,))
    assert dimension_lower_bound(A3, everything, everything) < 0
    # E8 adjoint pair: bound is at most the exact complexity 2
    b = dimension_lower_bound(E8, subset(E8, {1}), subset(E8, {1}))
    assert b <= 2
    assert type(b) is int and b == -14


def test_swap_symmetry_random():
    rng = random.Random(20240809)
    pool = [
        system_id("A", 4),
        system_id("B", 3),
        system_id("C", 3),
        system_id("D", 4),
        E6,
    ]
    for _ in range(120):
        rsid = rng.choice(pool)
        full = range(1, rsid.rank + 1)
        I = frozenset(i for i in full if rng.random() < 0.5)
        J = frozenset(i for i in full if rng.random() < 0.5)
        a = complexity(rsid, SimpleRootSubset(rsid, I), SimpleRootSubset(rsid, J))
        b = complexity(rsid, SimpleRootSubset(rsid, J), SimpleRootSubset(rsid, I))
        assert a == b


def test_refinement_monotonicity_random():
    rng = random.Random(7)
    pool = [system_id("A", 5), system_id("B", 3), system_id("C", 4), system_id("D", 4), E6]
    for _ in range(120):
        rsid = rng.choice(pool)
        full = list(range(1, rsid.rank + 1))
        big_i = frozenset(i for i in full if rng.random() < 0.7)
        big_j = frozenset(i for i in full if rng.random() < 0.7)
        small_i = frozenset(i for i in big_i if rng.random() < 0.6)
        small_j = frozenset(i for i in big_j if rng.random() < 0.6)
        c_small = complexity(rsid, SimpleRootSubset(rsid, small_i), SimpleRootSubset(rsid, small_j))
        c_big = complexity(rsid, SimpleRootSubset(rsid, big_i), SimpleRootSubset(rsid, big_j))
        assert c_small >= c_big


def test_lower_bound_below_complexity_random():
    rng = random.Random(99)
    pool = [system_id("A", 5), system_id("C", 3), system_id("D", 4), E6]
    for _ in range(100):
        rsid = rng.choice(pool)
        full = range(1, rsid.rank + 1)
        I = frozenset(i for i in full if rng.random() < 0.5)
        J = frozenset(i for i in full if rng.random() < 0.5)
        p, q = SimpleRootSubset(rsid, I), SimpleRootSubset(rsid, J)
        assert dimension_lower_bound(rsid, p, q) <= complexity(rsid, p, q)


def test_group_mismatch_rejected():
    from dfv.rootsys import RootSystemError

    with pytest.raises(RootSystemError):
        complexity(E6, subset(E7, {1}), subset(E7, {1}))


def test_weight_set_pair_invariants_enforced():
    from dfv.complexity import ComplexityError

    rs = build_root_system(system_id("A", 2))
    with pytest.raises(ComplexityError):
        WeightSetPair(rs.id, frozenset({(1, 0)}), frozenset({(1, 0)}))
    with pytest.raises(ComplexityError):
        WeightSetPair(rs.id, frozenset(), frozenset({(-1, 0)}))
    with pytest.raises(ComplexityError):
        WeightSetPair(rs.id, frozenset({(1, 0)}), frozenset({(0, 1)}))


def test_tie_break_independence_on_survey(monkeypatch):
    # breaking height ties the other way (mass on later simple roots
    # first) changes many mu sequences but never a complexity, on the
    # full exceptional survey and on every F4 pair
    from dfv.classifier import enumerate_pairs, survey_rows

    cases = [(fam, survey_rows(fam)) for fam in ("E6", "E7", "E8")]
    cases.append(("F4", [(pair, None) for pair in enumerate_pairs("F4")]))
    changed = 0
    for fam, rows in cases:
        rs = build_root_system(system_id(fam))
        ix = rs.indexed()
        order = sorted(range(len(ix.roots)), key=lambda i: (sum(ix.roots[i]), ix.roots[i]))
        revlex = [0] * len(order)
        for pos, i in enumerate(order):
            revlex[i] = pos
        weight_sets = [
            intersection_weight_sets(rs, pair.p.levi, pair.q.levi) for pair, _ in rows
        ]
        lex = [strip(ws) for ws in weight_sets]
        monkeypatch.setattr(ix, "rank", revlex)
        rev = [strip(ws) for ws in weight_sets]
        assert [r.complexity for r in rev] == [r.complexity for r in lex]
        assert all(c in (None, r.complexity) for (_, c), r in zip(rows, lex))
        changed += sum(a.mus != b.mus for a, b in zip(lex, rev))
    assert changed > 0


def test_complexity_constant_on_symmetry_orbit():
    from dfv.parabolic import ParabolicPair, pair_orbit
    from dfv.parabolic import BlockComposition as BC

    samples = [
        ParabolicPair(BC("SL", 7, (1, 2, 4)), BC("SL", 7, (3, 4))),
        ParabolicPair(BC("SO", 10, (5, 5), True), BC("SO", 10, (2, 2, 2, 2, 2))),
        ParabolicPair(BC("SO", 8, (4, 4)), BC("SO", 8, (2, 2, 2, 2), True)),
        ParabolicPair(BC("Sp", 8, (1, 6, 1)), BC("Sp", 8, (2, 4, 2))),
    ]
    from dfv.complexity import pair_complexity

    for pair in samples:
        values = {pair_complexity(x) for x in pair_orbit(pair)}
        assert len(values) == 1
