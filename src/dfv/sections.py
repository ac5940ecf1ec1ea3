"""Decomposition of section spaces on double flag varieties of complexity 0/1.

A B-stable prime divisor D on such a variety is encoded by a triple:
a vector v in the dual of the lattice of B-eigenweights, a valuation
order h on the invariant-function field, and (when h > 0) a center z on
the quotient projective line.  For a divisor delta = sum m_i D_i the
space of sections decomposes as a sum of irreducibles V_{lambda + pi}
over lattice points lambda of the polytope { <v_i, lambda> >= -m_i }
(restricted to h_i = 0 in the complexity-1 case), where pi is the shift
weight of the canonical section; in the complexity-1 case the summand
multiplicity is

    max(1 + sum_z min_{z_i = z, h_i > 0} ceil((<v_i, lambda> + m_i) / h_i), 0).

Two concrete datasets are bundled, with their printed closed forms:

* ``example1_*`` -- Sp_n, n = 2l: the pair (1, 2l-2, 1), (l, l); the
  decomposition of V_{p w_1} (x) V_{q w_l} (complexity 0).
* ``example2_*`` -- SL_n: the pair (3, n-3), (q1, q2, q3), q_i >= 3,
  decomposing V_{m1 w_3} (x) V_{m2 w_{q1} + m3 w_{q1+q2}} (complexity 1).

Weights of decomposition terms are reported in the epsilon
coordinates of the classical group and can be converted to fundamental
coordinates for the character oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .complexity import integer_rank
from .oracle import DecompositionTerm
from .parabolic import classical_system_id
from .polyhedra import integer_points
from .rootsys import RootSystemId

ZERO = "zero"
ONE = "one"
INFINITY = "infinity"
GENERIC = "generic"
_CENTERS = (ZERO, ONE, INFINITY, GENERIC)


class SectionsError(ValueError):
    pass


@dataclass(frozen=True)
class DivisorDatum:
    """One B-stable divisor: lattice functional, coefficient, valuation."""

    v: tuple[int, ...]
    m: int = 0
    h: int = 0
    z: str | None = None

    def __post_init__(self) -> None:
        if self.h < 0:
            raise SectionsError("valuation order must be nonnegative")
        if self.h == 0 and self.z is not None:
            raise SectionsError("divisors with h = 0 carry no center")
        if self.h > 0 and self.z not in _CENTERS:
            raise SectionsError(f"center must be one of {_CENTERS}")
        if self.z == GENERIC and (self.h != 1 or any(self.v) or self.m != 0):
            raise SectionsError("the generic family has v = 0, h = 1, m = 0")


@dataclass(frozen=True)
class LatticeModel:
    """Basis of the eigenweight lattice and the shift weight, in epsilon coords."""

    group: RootSystemId
    basis_weights: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.basis_weights)
        if integer_rank(self.basis_weights) != k:
            raise SectionsError("lattice basis weights must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis_weights)

    def weight_of(self, coords) -> tuple[int, ...]:
        """Ambient weight shift + sum coords_i * basis_i."""
        out = list(self.shift)
        for c, b in zip(coords, self.basis_weights):
            if c:
                for i, x in enumerate(b):
                    out[i] += c * x
        return tuple(out)


def eps_to_fundamental(group: RootSystemId, eps) -> tuple[int, ...]:
    """Fundamental coordinates of an epsilon-coordinate weight."""
    fam, r = group.family, group.rank
    eps = list(eps)
    if fam == "A":
        if len(eps) != r + 1:
            raise SectionsError("type A epsilon weight needs n coordinates")
        return tuple(eps[i] - eps[i + 1] for i in range(r))
    if len(eps) != r:
        raise SectionsError("epsilon weight length must equal the rank")
    if fam == "C":
        return tuple(eps[i] - eps[i + 1] for i in range(r - 1)) + (eps[-1],)
    if fam == "B":
        return tuple(eps[i] - eps[i + 1] for i in range(r - 1)) + (2 * eps[-1],)
    if fam == "D":
        return tuple(eps[i] - eps[i + 1] for i in range(r - 1)) + (eps[-2] + eps[-1],)
    raise SectionsError(f"no epsilon coordinates for {group}")


def is_dominant_eps(group: RootSystemId, eps) -> bool:
    return all(c >= 0 for c in eps_to_fundamental(group, eps))


# -- generic engines -------------------------------------------------------

def _center_forms(divisors):
    """Per-center linear forms (v, m, h) with h > 0, named centers only."""
    forms: dict[str, list[DivisorDatum]] = {}
    for d in divisors:
        if d.h > 0 and d.z != GENERIC:
            forms.setdefault(d.z, []).append(d)
    return forms


def section_multiplicity(divisors, lat: LatticeModel, coords) -> int:
    """Multiplicity of the summand at a lattice point (complexity 1)."""
    for d in divisors:
        if d.h == 0:
            if sum(v * c for v, c in zip(d.v, coords)) < -d.m:
                raise SectionsError(f"lattice point {coords} outside the polytope")
    total = 0
    for z, ds in _center_forms(divisors).items():
        total += min(
            -((-(sum(v * c for v, c in zip(d.v, coords)) + d.m)) // d.h) for d in ds
        )
    return max(1 + total, 0)


def decompose_complexity_one(divisors, lat: LatticeModel) -> list[DecompositionTerm]:
    """Sections decomposition for complexity 0 and 1, with exact multiplicities.

    Lattice points with positive multiplicity all lie in the polytope cut
    out by the h = 0 inequalities together with, for every choice of one
    h > 0 divisor per center, the inequality

        sum_z (<v_s(z), x> + m_s(z)) / h_s(z) >= -(number of centers);

    when every valuation order is 1 the right-hand side tightens to 0 and
    the cuts describe the positive-multiplicity region exactly.  The cut
    region must be bounded; otherwise UnboundedRegion is raised.  With
    h = 0 data only (complexity 0) there is no center, the one empty
    selection adds the trivial cut 0 >= 0, and every lattice point of the
    polytope carries multiplicity 1.
    """
    ineqs = [(d.v, -d.m) for d in divisors if d.h == 0]
    forms = _center_forms(divisors)
    all_unit = all(d.h == 1 for ds in forms.values() for d in ds)
    slack = 0 if all_unit else len(forms)
    for selection in product(*forms.values()):
        # the cut times L = lcm of the selected h, so that it has integer entries
        L = lcm(*(d.h for d in selection))
        coeffs = [0] * lat.dim
        rhs = -slack * L
        for d in selection:
            scale = L // d.h
            for i, v in enumerate(d.v):
                coeffs[i] += scale * v
            rhs -= scale * d.m
        ineqs.append((tuple(coeffs), rhs))
    terms = []
    for pt in integer_points(ineqs, lat.dim):
        mult = section_multiplicity(divisors, lat, pt)
        if mult <= 0:
            continue
        w = lat.weight_of(pt)
        if not is_dominant_eps(lat.group, w):
            raise SectionsError(
                f"non-dominant weight {w} at {pt} with multiplicity {mult}"
            )
        terms.append(DecompositionTerm(w, mult))
    return terms


def symbolic_system(divisors, lat: LatticeModel):
    """The assembled inequalities and per-center multiplicity forms.

    Returns (inequalities, center_forms) where inequalities is a set of
    (coeff vector, rhs-offset vector ...) pairs in the lattice
    coordinates and center_forms maps each center to the set of affine
    forms <v, x> + m entering its minimum, as (coeffs, constant) pairs.
    Used to compare the engine input data against published formulas.
    """
    ineqs = {(tuple(d.v), d.m) for d in divisors if d.h == 0}
    centers = {
        z: {(tuple(d.v), d.m, d.h) for d in ds}
        for z, ds in _center_forms(divisors).items()
    }
    return ineqs, centers


# -- bundled dataset 1: Sp_{2l}, pair (1, 2l-2, 1) x (l, l) ----------------

def example1_lattice(l: int, p: int, q: int) -> LatticeModel:
    if l < 2:
        raise SectionsError("need l >= 2")
    if p < 0 or q < 0:
        raise SectionsError("need p, q >= 0")
    e1_minus = tuple([1] + [0] * (l - 2) + [-1])
    e1_plus = tuple([1] + [0] * (l - 2) + [1])
    shift = tuple([p + q] + [q] * (l - 1))  # p w_1 + q w_l
    return LatticeModel(classical_system_id("Sp", 2 * l), (e1_minus, e1_plus), shift)


def example1_divisor_data(l: int, p: int, q: int):
    """Divisor data of the Sp pair: four B-stable divisors, all with h = 0."""
    lat = example1_lattice(l, p, q)
    divisors = (
        DivisorDatum(v=(1, 1), m=p),
        DivisorDatum(v=(0, 1), m=q),
        DivisorDatum(v=(1, -1)),
        DivisorDatum(v=(-1, 0)),
    )
    return divisors, lat


def decompose_example1(l: int, p: int, q: int) -> list[DecompositionTerm]:
    """Engine route for the Sp dataset."""
    divisors, lat = example1_divisor_data(l, p, q)
    return decompose_complexity_one(divisors, lat)


def example1_closed_form(l: int, p: int, q: int) -> list[DecompositionTerm]:
    """Printed closed form: weights (p+q-a, q, .., q, q-b) over the
    region 0 <= b <= a <= p, a + b <= 2q, a = b mod 2."""
    example1_lattice(l, p, q)  # validates arguments
    terms = []
    for a in range(0, p + 1):
        for b in range(0, a + 1):
            if a + b > 2 * q or (a - b) % 2:
                continue
            w = tuple([p + q - a] + [q] * (l - 2) + [q - b])
            terms.append(DecompositionTerm(w, 1))
    return terms


# -- bundled dataset 2: SL_n, pair (3, n-3) x (q1, q2, q3) ------------------

def _eps_diff(n: int, i: int, j: int) -> tuple[int, ...]:
    v = [0] * n
    v[i - 1] += 1
    v[j - 1] -= 1
    return tuple(v)


def example2_lattice(q1: int, q2: int, q3: int, m1: int, m2: int, m3: int) -> LatticeModel:
    if min(q1, q2, q3) < 3:
        raise SectionsError("the bundled SL data assumes q1, q2, q3 >= 3")
    if min(m1, m2, m3) < 0:
        raise SectionsError("coefficients m_i must be nonnegative")
    n = q1 + q2 + q3
    anchors = (2, 3, q1 + 1, q1 + 2, q1 + 3, q1 + q2 + 1, q1 + q2 + 2, q1 + q2 + 3)
    basis = tuple(_eps_diff(n, a, 1) for a in anchors)
    shift = [0] * n
    for cnt, m in ((3, m1), (q1, m2), (q1 + q2, m3)):  # m1 w_3 + m2 w_q1 + m3 w_{q1+q2}
        for i in range(cnt):
            shift[i] += m
    return LatticeModel(classical_system_id("SL", n), basis, tuple(shift))


# v-vectors of the thirteen divisors in the dual lattice basis; rows are
# the exponents of each divisor's equation in the eight basis functions.
_EX2_VECS = {
    1: (0, 1, 0, 0, 0, 0, 0, 0),
    2: (0, 0, -1, 0, 0, 0, 0, 0),
    3: (0, 0, 0, 0, 0, -1, 0, 0),
    4: (1, 0, 0, 0, 0, 0, 0, 0),
    5: (-1, -1, 0, 0, -1, -1, 0, 0),
    6: (0, 0, 0, 0, 1, 0, 0, 0),
    7: (0, -1, 0, 0, 0, 0, 0, 0),
    8: (0, 0, -1, 0, 0, 0, 0, -1),
    9: (0, 0, 0, 0, 0, 0, 0, 1),
    10: (-1, 0, 0, -1, 0, 0, -1, 0),
    11: (1, 1, 0, 1, 0, 1, 0, 0),
    12: (0, 0, 1, 0, 0, 0, 1, 0),
    13: (0, 0, 0, 0, 0, 0, 0, 0),
}
_EX2_CENTERS = {ZERO: (4, 8, 11), INFINITY: (5, 7, 12), ONE: (10, 13)}


def example2_divisor_data(q1: int, q2: int, q3: int, m1: int, m2: int, m3: int):
    """Divisor data of the SL dataset: thirteen divisors plus the generic family.

    The divisor coefficients m_i are attached to the first three divisors
    only; valuation orders are h = 1 with centers 0 (divisors 4, 8, 11),
    infinity (5, 7, 12) and 1 (10, 13), and h = 0 otherwise.
    """
    lat = example2_lattice(q1, q2, q3, m1, m2, m3)
    coeff = {1: m1, 2: m2, 3: m3}
    center = {}
    for z, ids in _EX2_CENTERS.items():
        for i in ids:
            center[i] = z
    divisors = tuple(
        DivisorDatum(
            v=_EX2_VECS[i],
            m=coeff.get(i, 0),
            h=1 if i in center else 0,
            z=center.get(i),
        )
        for i in range(1, 14)
    ) + (DivisorDatum(v=(0,) * 8, m=0, h=1, z=GENERIC),)
    return divisors, lat


def decompose_example2_engine(
    q1: int, q2: int, q3: int, m1: int, m2: int, m3: int
) -> list[DecompositionTerm]:
    """Generic engine route for the SL dataset."""
    divisors, lat = example2_divisor_data(q1, q2, q3, m1, m2, m3)
    return decompose_complexity_one(divisors, lat)


def decompose_example2(
    q1: int, q2: int, q3: int, m1: int, m2: int, m3: int
) -> list[DecompositionTerm]:
    """Printed closed form for the SL dataset.

    Inequalities a2 >= -m1, a3 <= m2, a6 <= m3, a5 >= 0, a8 >= 0 with
    multiplicity

        max(0, 1 + min(-a1-a2-a5-a6, -a2, a3+a7)
               + min(a1, -a3-a8, a1+a2+a4+a6)
               + min(-a1-a4-a7, 0))

    and weight shift + a1 e_2 + a2 e_3 + a3 e_{q1+1} + a4 e_{q1+2}
    + a5 e_{q1+3} + a6 e_{q1+q2+1} + a7 e_{q1+q2+2} + a8 e_{q1+q2+3}
    - (a1+..+a8) e_1.
    """
    lat = example2_lattice(q1, q2, q3, m1, m2, m3)

    def mins(a):
        return (
            min(-a[0] - a[1] - a[4] - a[5], -a[1], a[2] + a[6]),
            min(a[0], -a[2] - a[7], a[0] + a[1] + a[3] + a[5]),
            min(-a[0] - a[3] - a[6], 0),
        )

    box = [
        ((0, 1, 0, 0, 0, 0, 0, 0), -m1),
        ((0, 0, -1, 0, 0, 0, 0, 0), -m2),
        ((0, 0, 0, 0, 0, -1, 0, 0), -m3),
        ((0, 0, 0, 0, 1, 0, 0, 0), 0),
        ((0, 0, 0, 0, 0, 0, 0, 1), 0),
    ]
    groups = (
        [(-1, -1, 0, 0, -1, -1, 0, 0), (0, -1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 1, 0)],
        [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0, 0, -1), (1, 1, 0, 1, 0, 1, 0, 0)],
        [(-1, 0, 0, -1, 0, 0, -1, 0), (0, 0, 0, 0, 0, 0, 0, 0)],
    )
    # all valuation orders are 1, so "sum of minima >= 0" is exactly the
    # conjunction of the per-selection sums being >= 0
    ineqs = box + [(tuple(map(sum, zip(*sel))), 0) for sel in product(*groups)]
    terms = []
    for a in integer_points(ineqs, 8):
        s_inf, s_zero, s_one = mins(a)
        mult = max(0, 1 + s_inf + s_zero + s_one)
        if mult > 0:
            terms.append(DecompositionTerm(lat.weight_of(a), mult))
    return terms
