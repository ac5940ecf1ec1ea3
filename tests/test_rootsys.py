"""Root system construction, closure properties, and the epsilon notation."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from dfv.rootsys import RootSystemError, build_root_system, height, negate, system_id

ALL_IDS = [
    ("A", 1, 2),
    ("A", 3, 12),
    ("A", 9, 90),
    ("B", 2, 8),
    ("B", 6, 72),
    ("C", 2, 8),
    ("C", 6, 72),
    ("D", 3, 12),
    ("D", 6, 60),
    ("E6", 6, 72),
    ("E7", 7, 126),
    ("E8", 8, 240),
    ("F4", 4, 48),
    ("G2", 2, 12),
]


@pytest.mark.parametrize("family,rank,count", ALL_IDS)
def test_root_counts(family, rank, count):
    rs = build_root_system(system_id(family, rank))
    assert len(rs.all_roots) == count
    assert len(rs.positive_roots) == count // 2


def test_a1_is_plus_minus_alpha():
    rs = build_root_system(system_id("A", 1))
    assert rs.all_roots == {(1,), (-1,)}


def test_c2_has_four_positive_roots():
    rs = build_root_system(system_id("C", 2))
    assert len(rs.all_roots) == 8
    assert len(rs.positive_roots) == 4


def test_e6_dimension_crosscheck():
    rs = build_root_system(system_id("E6"))
    assert len(rs.all_roots) + rs.rank == 78
    assert len(rs.positive_roots) == 36


@pytest.mark.parametrize("family,rank,_", ALL_IDS)
def test_negation_and_reflection_closure(family, rank, _):
    rs = build_root_system(system_id(family, rank))
    for a in rs.all_roots:
        assert negate(a) in rs.all_roots
        signs = {c >= 0 for c in a if c} | {c <= 0 for c in a if c}
        assert all(c >= 0 for c in a) or all(c <= 0 for c in a), a
        for i, row in enumerate(rs.cartan):
            # s_i(a) = a - <a, alpha_i^vee> alpha_i
            b = list(a)
            b[i] -= sum(x * c for x, c in zip(a, row))
            assert tuple(b) in rs.all_roots


def test_height_additive_on_root_sums():
    rs = build_root_system(system_id("D", 4))
    roots = sorted(rs.all_roots)
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.all_roots:
                assert height(s) == height(a) + height(b)


@pytest.mark.parametrize("family,rank,_", ALL_IDS)
def test_integer_span_of_everything_and_nothing(family, rank, _):
    rs = build_root_system(system_id(family, rank))
    full = rs.mask_of(range(1, rs.rank + 1))
    assert full == rs.full_mask and rs.mask_of(()) == 0
    for a in rs.all_roots:
        # a lies in the span of the simple roots in I iff its support mask is inside I's
        assert rs.support_mask(a) & ~full == 0
        assert rs.support_mask(a) & ~rs.mask_of(()) != 0


def test_integer_span_examples():
    rs = build_root_system(system_id("A", 3))

    def in_span(a, levi):
        return rs.support_mask(a) & ~rs.mask_of(levi) == 0

    a1 = (1, 0, 0)
    a12 = (1, 1, 0)
    assert rs.mask_of({1, 3}) == 0b101
    assert in_span(a1, {1})
    assert not in_span(a12, {1})
    assert in_span(a12, {1, 2})
    assert in_span((-1, -1, 0), {1, 2})
    for bad in ({0}, {4}, {1, 5}):
        with pytest.raises(RootSystemError):
            rs.mask_of(bad)


def test_invalid_ids_rejected():
    for family, rank in [("B", 1), ("C", 1), ("D", 2), ("D", 1), ("A", 0), ("E6", 5)]:
        with pytest.raises(RootSystemError):
            system_id(family, rank)
    with pytest.raises(RootSystemError):
        system_id("X", 3)


def test_exceptional_highest_roots():
    assert build_root_system(system_id("E6")).positive_roots[-1] == (1, 2, 3, 2, 1, 2)
    assert build_root_system(system_id("E7")).positive_roots[-1] == (1, 2, 3, 4, 3, 2, 2)
    assert build_root_system(system_id("E8")).positive_roots[-1] == (2, 3, 4, 5, 6, 4, 2, 3)


# -- ambient (epsilon) realization, kept here as reference data ------------

def ambient_columns(family, rank):
    """Ambient coordinates of each simple root (one column per simple root).

    For E6 the coordinates are (eps_1..eps_6, eps) with sum(eps_i) = 0 and
    the extra coordinate of square length 1/2.
    """
    r = rank
    half, third = Fraction(1, 2), Fraction(1, 3)

    def e(i, dim, val=1):
        v = [Fraction(0)] * dim
        v[i] = Fraction(val)
        return v

    def diff(i, dim):
        v = e(i, dim)
        v[i + 1] -= 1
        return tuple(v)

    if family == "A":
        return [diff(i, r + 1) for i in range(r)]
    if family == "B":
        return [diff(i, r) for i in range(r - 1)] + [tuple(e(r - 1, r))]
    if family == "C":
        return [diff(i, r) for i in range(r - 1)] + [tuple(e(r - 1, r, 2))]
    if family == "D":
        last = e(r - 2, r)
        last[r - 1] += 1
        return [diff(i, r) for i in range(r - 1)] + [tuple(last)]
    if family == "E6":
        return [diff(i, 7) for i in range(5)] + [(-half, -half, -half, half, half, half, Fraction(1))]
    if family == "E7":
        return [diff(i, 8) for i in range(6)] + [(-half,) * 4 + (half,) * 4]
    if family == "E8":
        return [diff(i, 9) for i in range(7)] + [(-third,) * 5 + (2 * third,) * 3 + (-third,)]
    if family == "F4":
        return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (half, -half, -half, -half)]
    assert family == "G2"
    return [(-2, 1, 1), (1, -1, 0)]


def to_ambient(cols, a):
    return tuple(sum(c * col[k] for c, col in zip(a, cols)) for k in range(len(cols[0])))


def e6_epsilon_form(a):
    """Classify an E6 root in the (eps_1..eps_6, eps) notation.

    Returns one of
        ("diff", i, j)        for eps_i - eps_j,
        ("triple", (i, j, k), s) for s * (eps_i + eps_j + eps_k + eps),
        ("2eps", s)           for s * 2 eps.
    """
    amb = to_ambient(ambient_columns("E6", 6), a)
    eps_part, e_coef = amb[:6], amb[6]
    if e_coef == 0:
        plus = [i + 1 for i, c in enumerate(eps_part) if c == 1]
        minus = [i + 1 for i, c in enumerate(eps_part) if c == -1]
        assert len(plus) == 1 and len(minus) == 1, a
        return ("diff", plus[0], minus[0])
    if e_coef in (2, -2):
        assert all(c == 0 for c in eps_part), a
        return ("2eps", 1 if e_coef == 2 else -1)
    sign = 1 if e_coef == 1 else -1
    shifted = [sign * c + Fraction(1, 2) for c in eps_part]
    idx = tuple(i + 1 for i, c in enumerate(shifted) if c == 1)
    assert len(idx) == 3 and all(c in (0, 1) for c in shifted), a
    return ("triple", idx, sign)


def test_ambient_matches_cartan_pairings():
    # B(alpha_i, alpha_j) from the ambient columns must symmetrize the
    # Cartan matrix: 2 B(ai, aj) / B(ai, ai) == C[i][j]; this is the
    # check that tells B_l from C_l, which have equally many roots
    for family, rank, _ in ALL_IDS:
        rs = build_root_system(system_id(family, rank))
        cols = ambient_columns(family, rank)
        weight = [1] * len(cols[0])
        if family == "E6":
            weight[-1] = Fraction(1, 2)  # the extra eps coordinate

        def form(u, v):
            return sum(w * a * b for w, a, b in zip(weight, u, v))

        d = rs.symmetrizer
        assert gcd(*d) == 1, family
        for i in range(rank):
            for j in range(rank):
                lhs = 2 * form(cols[i], cols[j])
                assert lhs == rs.cartan[i][j] * form(cols[i], cols[i]), (family, i, j)
                # d is proportional to the squared root lengths
                assert d[i] * form(cols[j], cols[j]) == d[j] * form(cols[i], cols[i])


def test_e6_epsilon_forms():
    rs = build_root_system(system_id("E6"))
    assert e6_epsilon_form((1, 1, 1, 1, 1, 0)) == ("diff", 1, 6)
    assert e6_epsilon_form((1, 2, 3, 2, 1, 2)) == ("2eps", 1)
    assert e6_epsilon_form((1, 0, 0, 0, 0, 0)) == ("diff", 1, 2)
    assert e6_epsilon_form((0, 0, 0, 0, 0, 1)) == ("triple", (4, 5, 6), 1)
    # the classification covers all 72 roots
    kinds = [e6_epsilon_form(a)[0] for a in rs.all_roots]
    assert kinds.count("diff") == 30
    assert kinds.count("triple") == 40
    assert kinds.count("2eps") == 2


def test_root_systems_are_cached_and_immutable_enough():
    a = build_root_system(system_id("F4"))
    b = build_root_system(system_id("F4"))
    assert a is b


def test_random_sums_of_roots_stay_consistent_with_index_table():
    rng = random.Random(11)
    rs = build_root_system(system_id("C", 4))
    ix = rs.indexed()
    roots = ix.roots
    for _ in range(300):
        a = rng.randrange(len(roots))
        b = rng.randrange(len(roots))
        s = tuple(x + y for x, y in zip(roots[a], roots[b]))
        t = ix.add_table[a][b]
        if s in rs.all_roots:
            assert roots[t] == s
        else:
            assert t == -1
