"""Enumeration, expected tables, and diffing."""

from __future__ import annotations

import pytest

from dfv.classifier import (
    ClassificationRow,
    classify,
    diff_report,
    enumerate_pairs,
    enumerate_parabolics,
    expected_table,
    survey_rows,
    verify_tables,
)
from dfv.complexity import complexity, pair_complexity
from dfv.parabolic import (
    BlockComposition,
    ParabolicPair,
    canonical_pair,
    classical_system_id,
)


def test_sl3_orbit_count():
    # compositions of 3: (3), (1,2), (2,1), (1,1,1); the symmetry group
    # {swap} x {simultaneous reversal} leaves 7 orbits of the 16 pairs
    pairs = enumerate_pairs("SL", 3)
    assert len(pairs) == 7


def test_g2_pair_count():
    # 4 parabolics (subsets of 2 nodes), 10 pairs up to swap
    pairs = enumerate_pairs("G2")
    assert len(pairs) == 10


def test_so8_strokes_exactly_on_central_free_compositions():
    paras = enumerate_parabolics("SO", 8)
    stroked = {p.sizes for p in paras if p.stroke}
    unstroked = {p.sizes for p in paras if not p.stroke}
    assert stroked == {s for s in unstroked if len(s) % 2 == 0}
    for s in stroked:
        assert len(s) % 2 == 0


def test_classify_excludes_full_group_pairs():
    rows = classify("SL", 4, cmax=1)
    assert all(len(r.pair.p.sizes) > 1 and len(r.pair.q.sizes) > 1 for r in rows)


def _proper(spec) -> bool:
    if isinstance(spec, BlockComposition):
        return len(spec.sizes) > 1
    return bool(spec.removed)


@pytest.mark.parametrize("cmax", [0, 1, 2])
@pytest.mark.parametrize(
    "family,n",
    [("SL", 5), ("SL", 7), ("Sp", 8), ("SO", 8), ("SO", 9), ("SO", 10),
     ("E6", None), ("F4", None), ("G2", None)],
)
def test_classify_matches_brute_force(family, n, cmax):
    # the walk relies on monotonicity; the reference evaluates every
    # canonical pair of proper parabolics, in enumeration order
    brute = []
    for pair in enumerate_pairs(family, n):
        if _proper(pair.p) and _proper(pair.q):
            c = pair_complexity(pair)
            if c <= cmax:
                brute.append(ClassificationRow(pair, c))
    assert classify(family, n, cmax=cmax) == brute


def test_expected_table_spot_rows():
    expected, labels = expected_table("SL", 5)
    pair = canonical_pair(
        ParabolicPair(BlockComposition("SL", 5, (1, 4)), BlockComposition("SL", 5, (1, 1, 1, 1, 1)))
    )
    assert expected[pair] == 0
    assert any("2,s" in lab for lab in labels[pair])

    expected, _ = expected_table("Sp", 8)
    c0 = canonical_pair(ParabolicPair(BlockComposition("Sp", 8, (4, 4)), BlockComposition("Sp", 8, (1, 6, 1))))
    c1 = canonical_pair(ParabolicPair(BlockComposition("Sp", 8, (4, 4)), BlockComposition("Sp", 8, (2, 4, 2))))
    assert expected[c0] == 0 and expected[c1] == 1

    expected, _ = expected_table("SO", 12)
    row = canonical_pair(
        ParabolicPair(BlockComposition("SO", 12, (6, 6)), BlockComposition("SO", 12, (1, 1, 8, 1, 1)))
    )
    assert expected[row] == 0


def test_parameter_threshold_flips():
    # the three-block family (q1, q2, q1) paired with (p, p) is spherical
    # exactly up to q1 = 3; at SO_12 the boundary (3,6,3) -> (4,4,4) flips
    # from complexity 0 to 1, while the central-2 family (q,2,q) stays 0
    rsid = classical_system_id("SO", 12)
    P = BlockComposition("SO", 12, (6, 6))
    assert complexity(rsid, P, BlockComposition("SO", 12, (3, 6, 3))) == 0
    assert complexity(rsid, P, BlockComposition("SO", 12, (4, 4, 4))) == 1
    assert complexity(rsid, P, BlockComposition("SO", 12, (5, 2, 5))) == 0
    expected, _ = expected_table("SO", 12)
    flipped = canonical_pair(ParabolicPair(P, BlockComposition("SO", 12, (4, 4, 4))))
    assert expected[flipped] == 1


def test_diff_report_identical_and_injected():
    rows = classify("Sp", 6)
    rep = diff_report(rows, expected_table("Sp", 6), "Sp", 6)
    assert rep.empty
    # drop one row: it must be reported as missing with its label
    rep = diff_report(rows[:-1], expected_table("Sp", 6), "Sp", 6)
    assert not rep.empty and len(rep.missing) == 1
    pair, c, labels = rep.missing[0]
    assert labels
    # add a bogus row: reported as unexpected
    bogus = ClassificationRow(rows[-1].pair, rows[-1].complexity)
    rep = diff_report(rows + [ClassificationRow(canonical_pair(ParabolicPair(
        BlockComposition("Sp", 6, (1, 1, 2, 1, 1)), BlockComposition("Sp", 6, (1, 1, 2, 1, 1)))), 1)],
        expected_table("Sp", 6), "Sp", 6)
    assert rep.unexpected or rep.mismatched


@pytest.mark.parametrize("family,n", [("SL", 6), ("Sp", 8), ("SO", 7), ("SO", 8)])
def test_verify_tables_small(family, n):
    rep = verify_tables(family, n)
    assert rep.empty, "\n".join(rep.lines())


def test_exceptional_expected_lists():
    e6, _ = expected_table("E6")
    assert sum(1 for c in e6.values() if c == 0) == 11
    assert sum(1 for c in e6.values() if c == 1) == 8
    e7, _ = expected_table("E7")
    assert sorted(e7.values()) == [0, 0, 0, 1]
    for fam in ("E8", "F4", "G2"):
        table, _ = expected_table(fam)
        assert table == {}


def test_survey_rows_match_engine():
    for fam in ("E6", "E7", "E8"):
        for pair, expected_c in survey_rows(fam):
            assert pair_complexity(pair) == expected_c, (fam, pair)
