"""Weight-lattice utilities: dominance, Weyl dimension, characters.

Weights are integer tuples of coordinates with respect to the
fundamental weights, so the pairing with the i-th simple coroot is just
the i-th coordinate.  Everything after set-up is integer arithmetic:

* root-basis coordinates are kept scaled by ``det_c``, the least common
  denominator of the inverse Cartan matrix, so ``root_coords(w)`` is the
  integer vector ``det_c * C^-1 w``; the positive-root-cone test and the
  height order only look at its signs and its sum;
* the Weyl-invariant form is scaled to integers as well (``d[j]`` is a
  positive integer multiple of ``|alpha_j|^2 / 2``), and every formula
  that uses it is a ratio of two such forms, so the scale cancels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import add, mul

from .rootsys import RootSystem, RootSystemId, build_root_system

Weight = tuple[int, ...]

_POINT_BUDGET = 400_000  # most weights one diagram or character may hold


class CapExceeded(RuntimeError):
    """A character/tensor computation went over its configured budget."""


class OracleError(RuntimeError):
    """Internal inconsistency in a character computation."""


class WeightLattice:
    """Pairing data for the weight lattice of one simple type."""

    def __init__(self, rsid: RootSystemId):
        self.id = rsid
        self.rank = rsid.rank
        rs: RootSystem = build_root_system(rsid)
        self.rs = rs
        self.cartan = rs.cartan
        # d[j]: |alpha_j|^2 up to one common factor (primitive integers)
        self.d: tuple[int, ...] = rs.symmetrizer
        # fundamental coordinates of alpha_j are the j-th Cartan column
        self.simple_fw: tuple[Weight, ...] = tuple(
            tuple(self.cartan[i][j] for i in range(self.rank)) for j in range(self.rank)
        )
        self.pos_roots_rb = rs.positive_roots
        self.pos_roots_fw: tuple[Weight, ...] = tuple(
            self._rb_to_fw(a) for a in self.pos_roots_rb
        )
        self.rho: Weight = (1,) * self.rank
        # adj = det_c * C^-1 is an integer matrix: root_coords(w) = adj . w
        inv = _invert_fraction_matrix([[Fraction(x) for x in row] for row in self.cartan])
        self.det_c, flat = _scale_to_integers([x for row in inv for x in row])
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            flat[j * self.rank:(j + 1) * self.rank] for j in range(self.rank)
        )
        # height(w) = sum of root_coords(w) = height_vec . w
        self.height_vec: tuple[int, ...] = tuple(map(sum, zip(*self.adj)))
        # per positive root a: its two coordinate forms, the pairs
        # (j, det_c * a_j) over its support, and the scaled B(a, a)
        self._freudenthal_roots = tuple(
            (
                a_rb,
                a_fw,
                tuple((j, self.det_c * c) for j, c in enumerate(a_rb) if c),
                self._form_root(a_fw, a_rb),
            )
            for a_rb, a_fw in zip(self.pos_roots_rb, self.pos_roots_fw)
        )
        self._weyl_den = prod(self._form_root(self.rho, a) for a in self.pos_roots_rb)

    # -- coordinate plumbing -------------------------------------------

    def _rb_to_fw(self, a) -> Weight:
        return tuple(
            sum(self.cartan[i][j] * a[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def root_coords(self, w: Weight) -> tuple[int, ...]:
        """Root-basis coordinates of a weight, times ``det_c``."""
        return tuple(sum(map(mul, row, w)) for row in self.adj)

    def in_positive_root_cone(self, w: Weight) -> bool:
        return all(sum(map(mul, row, w)) >= 0 for row in self.adj)

    def height(self, w: Weight) -> int:
        """Height of a weight (sum of its root-basis coordinates), times ``det_c``."""
        return sum(map(mul, self.height_vec, w))

    def _form_root(self, w: Weight, root_rb) -> int:
        """Scaled B(w, alpha) for w in fundamental coordinates, alpha in root basis."""
        return sum(d * c * x for d, c, x in zip(self.d, root_rb, w) if c)

    # -- Weyl group -------------------------------------------------------

    def is_dominant(self, w: Weight) -> bool:
        return all(c >= 0 for c in w)

    def reflect_simple(self, w: Weight, i: int) -> Weight:
        """s_i(w), 0-based simple index."""
        c = w[i]
        if not c:
            return w
        return tuple([x - c * y for x, y in zip(w, self.simple_fw[i])])

    def to_dominant(self, w: Weight) -> tuple[Weight, int]:
        """Dominant representative and the sign (-1)^length of the move."""
        sign = 1
        w = tuple(w)
        while True:
            for i, c in enumerate(w):
                if c < 0:
                    break
            else:
                return w, sign
            w = self.reflect_simple(w, i)
            sign = -sign

    def orbit(self, w: Weight) -> set[Weight]:
        seen = {tuple(w)}
        frontier = [tuple(w)]
        while frontier:
            new = []
            for u in frontier:
                for i in range(self.rank):
                    v = self.reflect_simple(u, i)
                    if v not in seen:
                        seen.add(v)
                        new.append(v)
            frontier = new
        return seen

    # -- dimensions and characters ----------------------------------------

    def weyl_dim(self, w: Weight) -> int:
        if not self.is_dominant(w):
            raise OracleError(f"weyl_dim of non-dominant weight {w}")
        wr = tuple(x + 1 for x in w)
        num = prod(self._form_root(wr, a) for a in self.pos_roots_rb)
        dim, rem = divmod(num, self._weyl_den)
        if rem:
            raise OracleError("Weyl dimension came out non-integral")
        return dim

    def dominant_character(self, w: Weight) -> dict[Weight, int]:
        """Multiplicities of the dominant weights of the irreducible of h.w. w.

        Freudenthal recursion over the dominant weights mu <= w, processed
        by increasing height of w - mu.  For each positive root a the
        string mu + k*a (k >= 1) is followed while w - mu - k*a stays in
        the positive root cone, which bounds k by the scaled root
        coordinates of w - mu.
        """
        if not self.is_dominant(w):
            raise OracleError(f"character of non-dominant weight {w}")
        dominants = self._dominant_weights_below(w)
        order = sorted(dominants, key=lambda m: self.height(_sub(w, m)))
        mult: dict[Weight, int] = {}
        for mu in order:
            if mu == w:
                mult[mu] = 1
                continue
            r = self.root_coords(_sub(w, mu))
            acc = 0
            for a_rb, a_fw, a_support, a_norm in self._freudenthal_roots:
                kmax = min(r[j] // c for j, c in a_support)
                if kmax <= 0:
                    continue
                # scaled B(mu + k*a, a), updated along the string
                form = self._form_root(mu, a_rb)
                nu = mu
                for _ in range(kmax):
                    nu = tuple(map(add, nu, a_fw))
                    form += a_norm
                    m = mult.get(self.to_dominant(nu)[0], 0)
                    if m:
                        acc += m * form
            # scaled B(w + mu + 2 rho, w - mu), times det_c
            denom = sum(
                d * c * (x + y + 2) for d, c, x, y in zip(self.d, r, w, mu) if c
            )
            val, rem = divmod(2 * acc * self.det_c, denom)
            if rem or val < 0:
                raise OracleError("Freudenthal recursion produced a bad multiplicity")
            if val:
                mult[mu] = val
        return mult

    def _dominant_weights_below(self, w: Weight) -> list[Weight]:
        seen = {tuple(w)}
        frontier = [tuple(w)]
        dominants = [tuple(w)]
        while frontier:
            new = []
            for u in frontier:
                for a_fw in self.simple_fw:
                    v = _sub(u, a_fw)
                    if v in seen:
                        continue
                    dom, _ = self.to_dominant(v)
                    if not self.in_positive_root_cone(_sub(w, dom)):
                        continue
                    seen.add(v)
                    if len(seen) > _POINT_BUDGET:
                        raise CapExceeded(
                            f"weight diagram of {w} exceeds {_POINT_BUDGET} points"
                        )
                    new.append(v)
                    if v == dom:
                        dominants.append(v)
            frontier = new
        return dominants

    def character(self, w: Weight) -> dict[Weight, int]:
        """Full weight multiplicity map of the irreducible with h.w. w."""
        dom_char = self.dominant_character(w)
        out: dict[Weight, int] = {}
        npoints = 0
        for mu, m in dom_char.items():
            for nu in self.orbit(mu):
                out[nu] = m
                npoints += 1
                if npoints > _POINT_BUDGET:
                    raise CapExceeded("character support exceeds point budget")
        return out


def _sub(u: Weight, v: Weight) -> Weight:
    return tuple([a - b for a, b in zip(u, v)])


def _scale_to_integers(values) -> tuple[int, tuple[int, ...]]:
    """(s, s * values) with s the least common denominator of the Fractions."""
    s = lcm(*(x.denominator for x in values))
    return s, tuple(int(x * s) for x in values)


def _invert_fraction_matrix(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def weight_lattice(rsid: RootSystemId) -> WeightLattice:
    return WeightLattice(rsid)
