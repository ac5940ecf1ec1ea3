"""Block compositions, simple-root subsets, and pair canonicalization."""

from __future__ import annotations

import pytest

from dfv.parabolic import (
    BlockComposition,
    ParabolicError,
    ParabolicPair,
    SimpleRootSubset,
    canonical_pair,
    classical_system_id,
    composition_to_subset,
    pair_orbit,
    parse_composition,
    parse_removed_roots,
    subset_to_composition,
)
from dfv.rootsys import system_id


def levi(b):
    return sorted(composition_to_subset(b).levi)


def test_spec_conversions():
    assert levi(BlockComposition("SL", 4, (2, 2))) == [1, 3]
    assert levi(BlockComposition("Sp", 6, (1, 4, 1))) == [2, 3]
    a = composition_to_subset(BlockComposition("SO", 8, (4, 4)))
    b = composition_to_subset(BlockComposition("SO", 8, (4, 4), stroke=True))
    assert a.removed == {4} and b.removed == {3}


def test_sl_subset_roundtrips():
    A3 = system_id("A", 3)
    assert subset_to_composition(SimpleRootSubset(A3, frozenset({1, 3}))).sizes == (2, 2)
    assert subset_to_composition(SimpleRootSubset(A3, frozenset())).sizes == (1, 1, 1, 1)
    assert subset_to_composition(SimpleRootSubset(A3, frozenset({1, 2, 3}))).sizes == (4,)


@pytest.mark.parametrize("family,n", [("SL", 6), ("Sp", 8), ("SO", 9), ("SO", 10)])
def test_roundtrip_all_parabolics(family, n, block_parabolics):
    for comp in block_parabolics(family, n):
        back = subset_to_composition(composition_to_subset(comp))
        assert back == comp, (comp, back)


def test_exceptional_has_no_composition():
    s = SimpleRootSubset(system_id("E6"), frozenset({2, 3}))
    with pytest.raises(ParabolicError):
        subset_to_composition(s)


def test_so_middle_pair_merges():
    c = BlockComposition("SO", 8, (3, 1, 1, 3))
    assert c.sizes == (3, 2, 3)
    # for Sp the two middle 1-blocks are a genuine parabolic of their own
    c2 = BlockComposition("Sp", 8, (3, 1, 1, 3))
    assert c2.sizes == (3, 1, 1, 3)


def test_stroke_validation():
    with pytest.raises(ParabolicError):
        BlockComposition("SO", 9, (4, 1, 4), stroke=True)  # odd n
    with pytest.raises(ParabolicError):
        BlockComposition("SO", 10, (4, 2, 4), stroke=True)  # central block
    with pytest.raises(ParabolicError):
        BlockComposition("Sp", 8, (4, 4), stroke=True)
    BlockComposition("SO", 10, (5, 5), stroke=True)  # fine


def test_invalid_compositions():
    with pytest.raises(ParabolicError):
        BlockComposition("SL", 4, (2, 3))
    with pytest.raises(ParabolicError):
        BlockComposition("Sp", 6, (1, 2, 3))  # not symmetric
    with pytest.raises(ParabolicError):
        BlockComposition("SO", 4, (2, 2))  # not simple
    with pytest.raises(ParabolicError):
        BlockComposition("Sp", 5, (1, 3, 1))  # odd n
    with pytest.raises(ParabolicError):
        BlockComposition("SL", 4, (0, 4))


def test_canonical_pair_swap_and_reversal():
    P = BlockComposition("SL", 4, (1, 3))
    Q = BlockComposition("SL", 4, (2, 2))
    a = canonical_pair(ParabolicPair(P, Q))
    b = canonical_pair(ParabolicPair(Q, P))
    c = canonical_pair(ParabolicPair(P.reversed(), Q.reversed()))
    assert a == b == c
    # but independently reversing only one factor is a different orbit
    d = canonical_pair(ParabolicPair(P.reversed(), Q))
    assert d == a  # (3,1),(2,2) ~ (1,3),(2,2) via simultaneous reversal of (2,2)
    P2 = BlockComposition("SL", 5, (1, 4))
    Q2 = BlockComposition("SL", 5, (2, 3))
    assert canonical_pair(ParabolicPair(P2.reversed(), Q2)) != canonical_pair(
        ParabolicPair(P2, Q2)
    )


def test_canonical_pair_so_automorphism():
    P = BlockComposition("SO", 8, (4, 4))
    Q = BlockComposition("SO", 8, (2, 2, 2, 2), stroke=True)
    img = ParabolicPair(P.automorphism_image(), Q.automorphism_image())
    assert canonical_pair(ParabolicPair(P, Q)) == canonical_pair(img)
    # a central block is fixed by the automorphism
    R = BlockComposition("SO", 8, (1, 6, 1))
    assert R.automorphism_image() == R


def test_canonical_pair_idempotent():
    for pair in [
        ParabolicPair(BlockComposition("SL", 6, (1, 2, 3)), BlockComposition("SL", 6, (4, 2))),
        ParabolicPair(BlockComposition("SO", 10, (5, 5), True), BlockComposition("SO", 10, (1, 8, 1))),
        ParabolicPair(
            SimpleRootSubset(system_id("E7"), frozenset({1, 2})),
            SimpleRootSubset(system_id("E7"), frozenset({3})),
        ),
    ]:
        c = canonical_pair(pair)
        assert canonical_pair(c) == c
        assert all(canonical_pair(x) == c for x in pair_orbit(pair))


def test_pair_must_share_group():
    with pytest.raises(ParabolicError):
        ParabolicPair(BlockComposition("SL", 4, (2, 2)), BlockComposition("SL", 5, (2, 3)))


def test_parsing():
    c = parse_composition("SO", 8, "2,2,2,2'")
    assert c.sizes == (2, 2, 2, 2) and c.stroke
    s = parse_removed_roots(system_id("E6"), "a1,a5")
    assert s.removed == {1, 5}
    assert parse_removed_roots(system_id("E6"), "1,5") == s
    with pytest.raises(ParabolicError):
        parse_removed_roots(system_id("E6"), "a9")
    with pytest.raises(ParabolicError):
        parse_composition("SL", 4, "2,x")
