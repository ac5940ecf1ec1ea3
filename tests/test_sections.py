"""Section-space decomposition engines and the bundled divisor datasets."""

from __future__ import annotations

import random
from itertools import product

import pytest

from dfv.oracle import (
    DecompositionTerm,
    dimension_check,
    lr_tensor,
    tensor_product,
    tensor_product_reflection,
)
from dfv.parabolic import classical_system_id
from dfv.polyhedra import UnboundedRegion, integer_points
from dfv.sections import (
    GENERIC,
    INFINITY,
    ONE,
    ZERO,
    DivisorDatum,
    LatticeModel,
    SectionsError,
    decompose_complexity_one,
    decompose_example1,
    decompose_example2,
    decompose_example2_engine,
    eps_to_fundamental,
    example1_closed_form,
    example1_divisor_data,
    example2_divisor_data,
    section_multiplicity,
    symbolic_system,
)


def multiset(terms):
    return sorted((t.highest_weight, t.multiplicity) for t in terms)


def to_fund(group, terms):
    return sorted((eps_to_fundamental(group, w), m) for w, m in multiset(terms))


# -- lattice points ---------------------------------------------------------

def _polytope_points(divisors, lat):
    """Lattice points of { <v_i, x> >= -m_i }, every datum with h = 0."""
    assert all(d.h == 0 for d in divisors)
    return integer_points([(d.v, -d.m) for d in divisors], lat.dim)


def test_polytope_points_example1_small():
    divisors, lat = example1_divisor_data(2, 1, 1)
    pts = _polytope_points(divisors, lat)
    # (a, b) = (-a1-a2, a1-a2) must be exactly (0,0) and (1,1)
    ab = sorted((-a1 - a2, a1 - a2) for a1, a2 in pts)
    assert ab == [(0, 0), (1, 1)]


def test_polytope_origin_only():
    divisors, lat = example1_divisor_data(3, 0, 0)
    assert _polytope_points(divisors, lat) == [(0, 0)]


def test_unbounded_region_rejected():
    divisors, lat = example1_divisor_data(2, 1, 1)
    with pytest.raises(UnboundedRegion) as exc:
        _polytope_points(divisors[:-1], lat)  # drop one wall
    assert any(exc.value.direction)


def test_integer_points_lex_order_and_infeasible():
    pts = integer_points([((1,), 0), ((-1,), -3)], 1)
    assert pts == [(0,), (1,), (2,), (3,)]
    assert integer_points([((1,), 1), ((-1,), 0)], 1) == []


# -- divisor data validation -------------------------------------------------

def test_divisor_datum_invariants():
    with pytest.raises(SectionsError):
        DivisorDatum(v=(1, 0), h=0, z=ZERO)
    with pytest.raises(SectionsError):
        DivisorDatum(v=(1, 0), h=1)
    with pytest.raises(SectionsError):
        DivisorDatum(v=(1, 0), h=1, z=GENERIC)
    DivisorDatum(v=(0, 0), h=1, z=GENERIC)


def test_example2_data_shape():
    divisors, lat = example2_divisor_data(3, 3, 3, 1, 1, 1)
    assert len(divisors) == 14  # thirteen named + the generic family
    named = divisors[:13]
    # m coefficients only on the first three
    assert [d.m for d in named[:3]] == [1, 1, 1]
    assert all(d.m == 0 for d in named[3:])
    by_center = {}
    for i, d in enumerate(named, start=1):
        if d.h:
            by_center.setdefault(d.z, set()).add(i)
    assert by_center == {ZERO: {4, 8, 11}, INFINITY: {5, 7, 12}, ONE: {10, 13}}
    # specific vectors: unit vector in the a5 coordinate, zero for the family
    assert named[5].v == (0, 0, 0, 0, 1, 0, 0, 0)
    assert divisors[13].v == (0,) * 8 and divisors[13].h == 1
    assert named[12].v == (0,) * 8  # the last named divisor pairs to nothing
    with pytest.raises(SectionsError):
        example2_divisor_data(2, 3, 3, 0, 0, 0)


def test_symbolic_system_matches_printed_forms():
    divisors, lat = example2_divisor_data(4, 3, 5, 2, 1, 3)
    ineqs, centers = symbolic_system(divisors, lat)
    e = lambda i: tuple(1 if j == i else 0 for j in range(8))
    neg = lambda v: tuple(-x for x in v)
    assert ineqs == {
        (e(1), 2),            # a2 >= -m1
        (neg(e(2)), 1),       # a3 <= m2
        (neg(e(5)), 3),       # a6 <= m3
        (e(4), 0),            # a5 >= 0
        (e(7), 0),            # a8 >= 0
    }
    assert centers[INFINITY] == {
        ((-1, -1, 0, 0, -1, -1, 0, 0), 0, 1),
        ((0, -1, 0, 0, 0, 0, 0, 0), 0, 1),
        ((0, 0, 1, 0, 0, 0, 1, 0), 0, 1),
    }
    assert centers[ZERO] == {
        ((1, 0, 0, 0, 0, 0, 0, 0), 0, 1),
        ((0, 0, -1, 0, 0, 0, 0, -1), 0, 1),
        ((1, 1, 0, 1, 0, 1, 0, 0), 0, 1),
    }
    assert centers[ONE] == {
        ((-1, 0, 0, -1, 0, 0, -1, 0), 0, 1),
        ((0, 0, 0, 0, 0, 0, 0, 0), 0, 1),
    }


def test_section_multiplicity_corner_cases():
    divisors, lat = example2_divisor_data(3, 3, 3, 0, 0, 0)
    assert section_multiplicity(divisors, lat, (0,) * 8) == 1
    # a point outside the polytope is rejected
    with pytest.raises(SectionsError):
        section_multiplicity(divisors, lat, (0, -1, 0, 0, 0, 0, 0, 0))
    # clamp at zero
    divisors, lat = example2_divisor_data(3, 3, 3, 1, 0, 0)
    assert section_multiplicity(divisors, lat, (0, -1, 0, 0, 0, 0, 0, 0)) == 0


# -- complexity one with valuation orders above 1 -----------------------------

# SL_3 with the simple roots as lattice basis; the shift 9 w_1 + 9 w_2 keeps
# every weight of the box |x_i| <= 3 dominant
_SL3 = LatticeModel(classical_system_id("SL", 3), ((1, -1, 0), (0, 1, -1)), (18, 9, 0))
_BOX = tuple(DivisorDatum(v=v, m=3) for v in ((1, 0), (-1, 0), (0, 1), (0, -1)))


def _random_valued_data(rng):
    """Box walls at +-3 and one or two divisors with h in 1..3 per center."""
    divisors = list(_BOX)
    for z in rng.sample((ZERO, ONE, INFINITY), rng.randint(1, 3)):
        for _ in range(rng.randint(1, 2)):
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            divisors.append(DivisorDatum(v=v, m=rng.randint(-2, 3), h=rng.randint(1, 3), z=z))
    return tuple(divisors)


def test_complexity_one_with_valuation_orders_matches_brute_force():
    rng = random.Random(11)
    with_h_above_1 = 0
    top_mult = 0
    for _ in range(500):
        divisors = _random_valued_data(rng)
        brute = []
        for pt in product(range(-3, 4), repeat=2):
            mult = section_multiplicity(divisors, _SL3, pt)
            if mult > 0:
                brute.append((_SL3.weight_of(pt), mult))
                top_mult = max(top_mult, mult)
        assert multiset(decompose_complexity_one(divisors, _SL3)) == sorted(brute), divisors
        if brute and any(d.h > 1 for d in divisors):
            with_h_above_1 += 1
    assert with_h_above_1 >= 200 and top_mult >= 2, (with_h_above_1, top_mult)


# -- dataset 1 ---------------------------------------------------------------

def test_example1_basic_decompositions():
    assert multiset(decompose_example1(2, 1, 1)) == [((1, 0), 1), ((2, 1), 1)]
    assert multiset(decompose_example1(3, 0, 2)) == [((2, 2, 2), 1)]


def test_example1_engine_equals_closed_form_and_oracle():
    for l in (2, 3):
        group = classical_system_id("Sp", 2 * l)
        for p in range(0, 3):
            for q in range(0, 3):
                engine = decompose_example1(l, p, q)
                closed = example1_closed_form(l, p, q)
                assert multiset(engine) == multiset(closed)
                assert all(t.multiplicity == 1 for t in engine)
                fund = to_fund(group, engine)
                lam = tuple([p] + [0] * (l - 1))
                mu = tuple([0] * (l - 1) + [q])
                assert fund == sorted(tensor_product(group, lam, mu, dim_cap=None).items())
                terms = [DecompositionTerm(w, m) for w, m in fund]
                assert dimension_check(group, lam, mu, terms)


def test_example1_against_reflection_oracle_for_l_5_and_6():
    for l in (5, 6):
        group = classical_system_id("Sp", 2 * l)
        for p, q in product(range(4), repeat=2):
            lam = tuple([p] + [0] * (l - 1))
            mu = tuple([0] * (l - 1) + [q])
            reflection = tensor_product_reflection(group, lam, mu)
            assert to_fund(group, decompose_example1(l, p, q)) == sorted(reflection.items())


def test_example1_parity_through_lattice():
    # odd a+b pairs never appear: they are not in the eigenweight lattice
    for t in decompose_example1(2, 3, 3):
        a = 3 + 3 - t.highest_weight[0]
        b = 3 - t.highest_weight[-1]
        assert (a - b) % 2 == 0


# -- dataset 2 ---------------------------------------------------------------

def test_example2_trivial():
    assert multiset(decompose_example2(3, 3, 3, 0, 0, 0)) == [((0,) * 9, 1)]


def test_example2_engine_equals_closed_form_and_lr():
    group = classical_system_id("SL", 9)
    for m1, m2, m3 in [(1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1)]:
        engine = decompose_example2_engine(3, 3, 3, m1, m2, m3)
        closed = decompose_example2(3, 3, 3, m1, m2, m3)
        assert multiset(engine) == multiset(closed)
        lam = (0, 0, m1, 0, 0, 0, 0, 0)
        mu = tuple(
            m2 if i == 2 else m3 if i == 5 else 0 for i in range(8)
        )
        assert to_fund(group, engine) == sorted(lr_tensor(9, lam, mu).items())


def test_example2_off_symmetric_sizes():
    group = classical_system_id("SL", 10)
    engine = decompose_example2_engine(4, 3, 3, 1, 1, 0)
    closed = decompose_example2(4, 3, 3, 1, 1, 0)
    assert multiset(engine) == multiset(closed)
    lam = tuple(1 if i == 2 else 0 for i in range(9))
    mu = tuple(1 if i == 3 else 0 for i in range(9))
    assert to_fund(group, engine) == sorted(lr_tensor(10, lam, mu).items())


@pytest.mark.parametrize("q", [(3, 3, 4), (3, 4, 3), (4, 3, 3), (4, 4, 4), (3, 5, 4)])
def test_example2_engine_closed_form_and_lr_agree(q):
    n = sum(q)
    group = classical_system_id("SL", n)
    for m1, m2, m3 in product(range(3), repeat=3):
        engine = decompose_example2_engine(*q, m1, m2, m3)
        assert multiset(engine) == multiset(decompose_example2(*q, m1, m2, m3))
        lam = tuple(m1 if i == 2 else 0 for i in range(n - 1))  # m1 w_3
        # m2 w_{q1} + m3 w_{q1+q2}
        mu = tuple(m2 if i == q[0] - 1 else m3 if i == q[0] + q[1] - 1 else 0 for i in range(n - 1))
        assert to_fund(group, engine) == sorted(lr_tensor(n, lam, mu).items()), (m1, m2, m3)


def test_example2_center_assignment_is_load_bearing():
    # moving one divisor to a different center must break oracle agreement,
    # either through the dominance hard-failure or through wrong terms
    divisors, lat = example2_divisor_data(3, 3, 3, 1, 1, 1)
    tampered = list(divisors)
    d10 = tampered[9]
    assert d10.z == ONE
    tampered[9] = DivisorDatum(v=d10.v, m=d10.m, h=d10.h, z=ZERO)
    group = classical_system_id("SL", 9)
    lam = (0, 0, 1, 0, 0, 0, 0, 0)
    mu = (0, 0, 1, 0, 0, 1, 0, 0)
    try:
        got = decompose_complexity_one(tuple(tampered), lat)
    except SectionsError:
        return
    assert to_fund(group, got) != sorted(lr_tensor(9, lam, mu).items())

