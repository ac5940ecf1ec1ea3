"""Block grids, pattern bounds, matrix oracle, chain recursions."""

from __future__ import annotations

import random
from itertools import product

import pytest

import dfv.blockmodel
from dfv.blockmodel import (
    _ENTRY_BOUND,
    BlockGrid,
    _action_rows,
    _basis_elements,
    borel_levi_basis,
    build_block_grid,
    chain_complexity,
    chain_realizer,
    generic_orbit_complexity,
    nilradical_intersection_basis,
    pattern_lower_bound,
    reduce_stroke_pair,
)
from dfv.classifier import enumerate_pairs
from dfv.complexity import complexity, integer_rank, pair_complexity
from dfv.parabolic import BlockComposition, ParabolicError, classical_system_id
from dfv.weights import CapExceeded


def _sparse_to_matrix(entries, n):
    """Dense reference: the n×n matrix of sparse (a, b, c) entries."""
    m = [[0] * n for _ in range(n)]
    for a, b, c in entries:
        m[a - 1][b - 1] += c
    return m


def _bracket(x, y):
    """Dense reference: the commutator xy - yx."""
    n = len(x)
    return [
        [sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_grid_spec_examples():
    g = build_block_grid("SL", BlockComposition("SL", 4, (2, 2)), BlockComposition("SL", 4, (1, 2, 1)))
    assert g.refined == (1, 1, 1, 1)
    assert g.active == frozenset({(1, 3), (1, 4), (2, 4)})
    g = build_block_grid("SL", BlockComposition("SL", 6, (6,)), BlockComposition("SL", 6, (2, 2, 2)))
    assert g.active == frozenset()
    g = build_block_grid("Sp", BlockComposition("Sp", 6, (1, 4, 1)), BlockComposition("Sp", 6, (3, 3)))
    assert g.refined == (1, 2, 2, 1)
    assert g.full_active() == frozenset({(1, 3), (1, 4), (2, 4)})
    assert (1, 4) in g.antidiag
    assert g.mirror((1, 3)) == (2, 4)


def test_grid_rejects_mismatch_and_stroke():
    with pytest.raises(ParabolicError):
        build_block_grid("SL", BlockComposition("SL", 4, (2, 2)), BlockComposition("SL", 5, (2, 3)))
    with pytest.raises(ParabolicError):
        build_block_grid(
            "SO", BlockComposition("SO", 8, (4, 4), True), BlockComposition("SO", 8, (4, 4))
        )


def test_pattern_bounds():
    sq = BlockGrid("SL", (1,) * 5, frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}), frozenset())
    assert pattern_lower_bound(sq) >= 1
    tr = BlockGrid("SL", (1, 1, 1), frozenset({(1, 2), (1, 3), (2, 3)}), frozenset())
    assert pattern_lower_bound(tr) >= 1
    empty = BlockGrid("SL", (2, 2), frozenset(), frozenset())
    assert pattern_lower_bound(empty) == 0
    # row of three wide blocks of height 2
    row = BlockGrid("SL", (2, 1, 1, 1), frozenset({(1, 2), (1, 3), (1, 4)}), frozenset())
    assert pattern_lower_bound(row) >= 1
    row4 = BlockGrid("SL", (2, 1, 1, 1, 1), frozenset({(1, j) for j in range(2, 6)}), frozenset())
    assert pattern_lower_bound(row4) >= 2


def test_pattern_bound_below_complexity_small_sweep():
    for family, n in [("SL", 6), ("Sp", 6), ("SO", 7), ("SO", 8)]:
        rsid = classical_system_id(family, n)
        for pair in enumerate_pairs(family, n):
            c = complexity(rsid, pair.p, pair.q)
            p, q = reduce_stroke_pair(pair.p, pair.q)
            bound = pattern_lower_bound(build_block_grid(family, p, q))
            assert bound <= c, (pair.p, pair.q, bound, c)


def test_matrix_model_bracket_closure():
    # [Y, X] for Y in b cap l cap m and X in the module is the combination
    # of module basis elements with the sparse coordinates of _action_rows
    cases = [
        ("SL", BlockComposition("SL", 5, (2, 3)), BlockComposition("SL", 5, (1, 2, 2))),
        ("Sp", BlockComposition("Sp", 6, (1, 4, 1)), BlockComposition("Sp", 6, (3, 3))),
        ("SO", BlockComposition("SO", 8, (4, 4)), BlockComposition("SO", 8, (2, 2, 2, 2), True)),
        ("SO", BlockComposition("SO", 7, (2, 3, 2)), BlockComposition("SO", 7, (1, 1, 3, 1, 1))),
    ]
    rng = random.Random(11)
    for family, p, q in cases:
        n = p.n
        module = nilradical_intersection_basis(p, q)
        acting = borel_levi_basis(p, q)
        assert module, (family, p, q)
        table = [[0] * (n + 1) for _ in range(n + 1)]
        for entries in module:
            c = rng.randint(-9, 9)
            for a, b, k in entries:
                table[a][b] += c * k
        x = [row[1:] for row in table[1:]]
        dense_module = [_sparse_to_matrix(e, n) for e in module]
        rows = _action_rows(acting, module, table)
        assert len(rows) == len(acting)
        for y, row in zip(acting, rows):
            combo = [
                [sum(r * m[i][j] for r, m in zip(row, dense_module)) for j in range(n)]
                for i in range(n)
            ]
            assert combo == _bracket(_sparse_to_matrix(y, n), x), (family, p, q, y)
        # borel part is genuinely upper triangular
        for y in acting:
            assert all(a <= b for a, b, _ in y)


def test_oracle_spec_examples():
    assert generic_orbit_complexity(BlockComposition("SL", 4, (2, 2)), BlockComposition("SL", 4, (2, 2))) == 0
    assert generic_orbit_complexity(BlockComposition("Sp", 6, (1, 4, 1)), BlockComposition("Sp", 6, (3, 3))) == 0
    assert generic_orbit_complexity(BlockComposition("SL", 9, (3, 6)), BlockComposition("SL", 9, (3, 3, 3))) == 1


def test_oracle_cap():
    with pytest.raises(CapExceeded) as exc:
        generic_orbit_complexity(
            BlockComposition("SL", 21, (10, 11)), BlockComposition("SL", 21, (10, 11))
        )
    assert str(exc.value) == "matrix size 21 above oracle cap 20"


def test_oracle_matches_engine_small():
    for family, n in [("SL", 5), ("Sp", 6), ("SO", 6), ("SO", 7)]:
        rsid = classical_system_id(family, n)
        for pair in enumerate_pairs(family, n):
            ce = complexity(rsid, pair.p, pair.q)
            co = generic_orbit_complexity(pair.p, pair.q, seed=5, samples=3)
            assert ce == co, (family, n, pair.p, pair.q, ce, co)


def test_oracle_rank_stable_over_extra_samples():
    # more samples may never drop the computed complexity below the
    # 3-sample value (rank can only be underestimated at special points)
    pairs = [
        (BlockComposition("SL", 7, (3, 4)), BlockComposition("SL", 7, (2, 3, 2))),
        (BlockComposition("Sp", 8, (2, 4, 2)), BlockComposition("Sp", 8, (4, 4))),
        (BlockComposition("SO", 8, (4, 4), True), BlockComposition("SO", 8, (1, 2, 2, 2, 1))),
    ]
    for p, q in pairs:
        c3 = generic_orbit_complexity(p, q, seed=0, samples=3)
        c8 = generic_orbit_complexity(p, q, seed=0, samples=8)
        assert c8 == c3


def _oracle_ranking_every_sample(p, q, seed, samples):
    """Reference oracle: the same draws as generic_orbit_complexity, but
    every sample is ranked, with no stop at full rank."""
    n = p.n
    module = nilradical_intersection_basis(p, q)
    acting = borel_levi_basis(p, q)
    if not module:
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        x = [[0] * (n + 1) for _ in range(n + 1)]
        for entries in module:
            c = rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND)
            for a, b, k in entries:
                x[a][b] += c * k
        best = max(best, integer_rank(_action_rows(acting, module, x)))
    return len(module) - best


def test_oracle_stop_at_full_rank_matches_every_sample():
    groups = [("SL", n) for n in range(2, 7)] + [("Sp", n) for n in (4, 6, 8)]
    groups += [("SO", n) for n in range(5, 9)]
    for family, n in groups:
        for pair in enumerate_pairs(family, n):
            for seed in range(3):
                ref = _oracle_ranking_every_sample(pair.p, pair.q, seed, 3)
                got = generic_orbit_complexity(pair.p, pair.q, seed=seed, samples=3)
                assert got == ref, (family, n, pair.p, pair.q, seed)


@pytest.mark.parametrize(
    "p,q,dim,rows,c,calls",
    [
        # one sample reaches min(dim, rows): the other two are never ranked
        (BlockComposition("SL", 5, (2, 3)), BlockComposition("SL", 5, (1, 4)), 3, 7, 0, 1),
        (BlockComposition("SL", 9, (3, 6)), BlockComposition("SL", 9, (3, 3, 3)), 18, 17, 1, 1),
        # the generic rank 6 is below min(7, 7): every sample is ranked
        (BlockComposition("SL", 5, (1, 1, 3)), BlockComposition("SL", 5, (1, 1, 3)), 7, 7, 1, 3),
    ],
)
def test_oracle_rank_calls_stop_at_full_rank(monkeypatch, p, q, dim, rows, c, calls):
    assert len(nilradical_intersection_basis(p, q)) == dim
    assert len(borel_levi_basis(p, q)) == rows
    ranked = []

    def counting_rank(matrix):
        ranked.append(len(matrix))
        return integer_rank(matrix)

    monkeypatch.setattr(dfv.blockmodel, "integer_rank", counting_rank)
    assert generic_orbit_complexity(p, q, seed=0, samples=3) == c
    assert len(ranked) == calls


def test_basis_is_built_once_per_group_and_immutable():
    assert _basis_elements("Sp", 6) is _basis_elements("Sp", 6)
    elems, torus = _basis_elements("Sp", 6)
    assert [pos for pos, _ in elems] == sorted(pos for pos, _ in elems)
    for entries in [e for _, e in elems] + list(torus):
        assert isinstance(entries, tuple) and all(isinstance(t, tuple) for t in entries)


def test_module_dimension_matches_weight_count():
    from dfv.complexity import intersection_weight_sets
    from dfv.parabolic import composition_to_subset
    from dfv.rootsys import build_root_system

    for family, n in [("SL", 6), ("Sp", 6), ("SO", 7), ("SO", 8)]:
        rsid = classical_system_id(family, n)
        rs = build_root_system(rsid)
        for pair in enumerate_pairs(family, n):
            si = composition_to_subset(pair.p)
            sj = composition_to_subset(pair.q)
            wp = intersection_weight_sets(rs, si.levi, sj.levi)
            assert len(nilradical_intersection_basis(pair.p, pair.q)) == len(wp.F), (pair.p, pair.q)


def test_chain_recursion_against_engine():
    for family, base in (("SO", 3), ("Sp", 2)):
        for variant in "ab":
            for m in range(base, 8):
                p, q = chain_realizer(family, m, variant)
                rsid = classical_system_id(family, p.n)
                engine = complexity(rsid, p, q)
                assert engine == chain_complexity(m, variant, family), (family, m, variant)


def test_chain_growth_thresholds():
    # complexity at least 2 from m = 7 on for SO and m = 6 for Sp
    for m in range(7, 13):
        assert chain_complexity(m, "a", "SO") >= 2
        assert chain_complexity(m, "b", "SO") >= 2
    assert chain_complexity(6, "b", "SO") == 1  # threshold is sharp
    for m in range(6, 13):
        assert chain_complexity(m, "a", "Sp") >= 2
        assert chain_complexity(m, "b", "Sp") >= 2
    assert chain_complexity(5, "b", "Sp") == 1


def test_chain_below_base_rejected():
    from dfv.blockmodel import BlockModelError

    with pytest.raises(BlockModelError):
        chain_complexity(2, "a", "SO")
    with pytest.raises(BlockModelError):
        chain_complexity(1, "b", "Sp")
