"""Weight-lattice utilities: dominance, Weyl dimension, characters.

Weights are integer tuples of coordinates with respect to the
fundamental weights, so the pairing with the i-th simple coroot is just
the i-th coordinate.  Everything, set-up included, is integer arithmetic:

* root-basis coordinates are kept scaled by ``det_c``, the least common
  denominator of the inverse Cartan matrix, so ``root_coords(w)`` is the
  integer vector ``det_c * C^-1 w``; the positive-root-cone test and the
  height order only look at its signs and its sum;
* the Weyl-invariant form is scaled to integers as well (``d[j]`` is a
  positive integer multiple of ``|alpha_j|^2 / 2``), and every formula
  that uses it is a ratio of two such forms, so the scale cancels.

Characters are computed on dominant weights only: a search that
subtracts positive roots and stays dominant finds the dominant weights
below the highest weight, and Freudenthal's recursion runs on them.
Only ``character`` expands Weyl orbits into the full weight diagram,
and it first counts the diagram from orbit sizes |W|/|W_mu| against the
point budget.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, prod
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
        self.rank = rsid.rank
        rs: RootSystem = build_root_system(rsid)
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
        self.det_c, self.adj = _scaled_inverse(self.cartan)
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
        self._parabolic_orders: dict[tuple[bool, ...], int] = {}

    # -- coordinate plumbing -------------------------------------------

    def _rb_to_fw(self, a) -> Weight:
        return tuple(
            sum(self.cartan[i][j] * a[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def root_coords(self, w: Weight) -> tuple[int, ...]:
        """Root-basis coordinates of a weight, times ``det_c``."""
        return tuple(sum(map(mul, row, w)) for row in self.adj)

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

    def orbit_size(self, w: Weight) -> int:
        """|W w| = |W| / |W_J|, J the simple roots that the dominant dom(w) pairs to 0.

        The stabiliser of a dominant weight is the parabolic subgroup W_J
        (Chevalley), and orders come from root heights without a table.
        """
        dom, _ = self.to_dominant(w)
        return self._parabolic_order((True,) * self.rank) // self._parabolic_order(
            tuple(not c for c in dom)
        )

    def _parabolic_order(self, on: tuple[bool, ...]) -> int:
        """|W_J| for the simple roots J marked in ``on``.

        |W_J| is the product of the degrees of W_J, and the degrees are one
        more than the exponents, whose dual partition is the count of
        positive roots of W_J by height (Kostant): if n_k roots supported
        on J have height k, then |W_J| = prod (k+1)^(n_k - n_{k+1}).
        """
        order = self._parabolic_orders.get(on)
        if order is None:
            n = Counter(
                sum(a) for a in self.pos_roots_rb
                if all(on[j] for j, c in enumerate(a) if c)
            )
            order = prod((k + 1) ** (n[k] - n[k + 1]) for k in n)
            self._parabolic_orders[on] = order
        return order

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
        """The dominant weights mu <= w (the dominant weights of V_w).

        They are connected by steps that subtract a positive root and stay
        dominant (Stembridge, "The partial order of dominant weights"), so
        a search over dominant weights alone, stepping by every positive
        root, reaches all of them.  The rest of the diagram is never built.
        """
        w = tuple(w)
        seen = {w}
        frontier = [w]
        while frontier:
            new = []
            for u in frontier:
                for a_fw in self.pos_roots_fw:
                    v = _sub(u, a_fw)
                    if v in seen or not self.is_dominant(v):
                        continue
                    seen.add(v)
                    # the diagram holds every dominant weight, so it is larger still
                    if len(seen) > _POINT_BUDGET:
                        raise CapExceeded(
                            f"weight diagram of {w} exceeds {_POINT_BUDGET} points"
                        )
                    new.append(v)
            frontier = new
        return list(seen)

    def diagram_size(self, w: Weight, dom_char: dict[Weight, int]) -> int:
        """Number of weights of V_w, counted from orbit sizes of its dominant weights.

        ``dom_char`` is ``dominant_character(w)``.  Raises ``CapExceeded``
        when the count is over the point budget, so a diagram that would be
        too large is refused before any orbit of it is built.
        """
        npoints = sum(map(self.orbit_size, dom_char))
        if npoints > _POINT_BUDGET:
            raise CapExceeded(f"weight diagram of {w} exceeds {_POINT_BUDGET} points")
        return npoints

    def character(self, w: Weight) -> dict[Weight, int]:
        """Full weight multiplicity map of the irreducible with h.w. w."""
        dom_char = self.dominant_character(w)
        self.diagram_size(w, dom_char)
        return {nu: m for mu, m in dom_char.items() for nu in self.orbit(mu)}


def _sub(u: Weight, v: Weight) -> Weight:
    return tuple([a - b for a, b in zip(u, v)])


def _scaled_inverse(c) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(s, s * C^-1) with s the least positive integer making s * C^-1 integral.

    Fraction-free Gauss-Jordan on [C | I] (Bareiss): every division by the
    previous pivot is exact, and the pass leaves det C * I on the left and
    det C * C^-1 on the right.  The k-th pivot is the leading k x k minor
    of C, which is positive for a Cartan matrix of finite type, so no row
    needs swapping.
    """
    n = len(c)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(c)]
    prev = 1
    for k in range(n):
        pr = aug[k]
        pc = pr[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(pc * x - f * y) // prev for x, y in zip(aug[i], pr)]
        prev = pc
    g = gcd(prev, *(x for row in aug for x in row[n:]))
    return prev // g, tuple(tuple(x // g for x in row[n:]) for row in aug)


@lru_cache(maxsize=None)
def weight_lattice(rsid: RootSystemId) -> WeightLattice:
    return WeightLattice(rsid)
