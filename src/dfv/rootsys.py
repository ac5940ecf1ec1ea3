"""Root systems of the simple complex Lie algebras, with exact arithmetic.

Roots are stored as integer coordinate tuples in the simple-root basis.
The numbering of simple roots follows the Onishchik--Vinberg reference
tables rather than Bourbaki.  For the classical families this is the
usual ordering (A_r: chain; B_l/C_l: short/long root last; D_l: fork at
the last two nodes).  For the exceptional types the layout is:

    E6:  1 - 2 - 3 - 4 - 5        E7:  1 - 2 - 3 - 4 - 5 - 6
                 |                                  |
                 6                                  7

    E8:  1 - 2 - 3 - 4 - 5 - 6 - 7
                         |
                         8

    F4:  1 - 2 => 3 - 4   (1, 2 long; 3, 4 short)
    G2:  1 => 2           (1 long triple edge to 2; alpha_2 short)

so in E6 the nodes 1 and 5 are the ends of the A5 chain and node 6 is
the branch node; in E7 node 1 is the end of the long leg; in E8 node 1
is the end of the longest leg.  All simple-root indices in this package
are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

Coords = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")
_EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


class RootSystemError(ValueError):
    """Invalid root-system data (family/rank combination, bad root, ...)."""


@dataclass(frozen=True)
class RootSystemId:
    """A simple type: one of A, B, C, D (with a rank) or E6/E7/E8/F4/G2."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise RootSystemError(f"unknown family {self.family!r}")
        if self.family in _EXCEPTIONAL_RANK:
            if self.rank != _EXCEPTIONAL_RANK[self.family]:
                raise RootSystemError(
                    f"{self.family} has fixed rank {_EXCEPTIONAL_RANK[self.family]}, "
                    f"got {self.rank}"
                )
        else:
            if self.rank < _MIN_RANK[self.family]:
                raise RootSystemError(
                    f"{self.family}_{self.rank} rejected: rank must be >= "
                    f"{_MIN_RANK[self.family]} (smaller ranks are duplicates of "
                    f"other families or not simple)"
                )

    def __str__(self) -> str:
        if self.family in _EXCEPTIONAL_RANK:
            return self.family
        return f"{self.family}{self.rank}"


def system_id(family: str, rank: int | None = None) -> RootSystemId:
    """Build a RootSystemId, inferring the rank for exceptional families."""
    if family in _EXCEPTIONAL_RANK:
        r = _EXCEPTIONAL_RANK[family]
        if rank is not None and rank != r:
            raise RootSystemError(f"{family} has rank {r}")
        return RootSystemId(family, r)
    if rank is None:
        raise RootSystemError(f"family {family} needs an explicit rank")
    return RootSystemId(family, rank)


def cartan_matrix(rsid: RootSystemId) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C with C[i][j] = <alpha_j, alpha_i^vee> (0-based here)."""
    r = rsid.rank
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    fam = rsid.family
    if fam == "A":
        for i in range(1, r):
            bond(i, i + 1)
    elif fam == "B":
        for i in range(1, r - 1):
            bond(i, i + 1)
        # alpha_r short: <alpha_{r-1}, alpha_r^vee> = -2
        bond(r - 1, r, cij=-1, cji=-2)
    elif fam == "C":
        for i in range(1, r - 1):
            bond(i, i + 1)
        # alpha_r long: <alpha_r, alpha_{r-1}^vee> = -2
        bond(r - 1, r, cij=-2, cji=-1)
    elif fam == "D":
        for i in range(1, r - 1):
            bond(i, i + 1)
        bond(r - 2, r)
    elif fam in ("E6", "E7", "E8"):
        for i in range(1, r - 1):
            bond(i, i + 1)
        bond({"E6": 3, "E7": 4, "E8": 5}[fam], r)
    elif fam == "F4":
        bond(1, 2)
        # double edge, alpha_2 long, alpha_3 short
        bond(2, 3, cij=-1, cji=-2)
        bond(3, 4)
    elif fam == "G2":
        # alpha_1 long, alpha_2 short, triple edge
        bond(1, 2, cij=-1, cji=-3)
    return tuple(tuple(row) for row in c)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Primitive integer d with d[i] * C[i][j] == d[j] * C[j][i] (d[i] ~ |alpha_i|^2)."""
    r = len(cartan)
    d = [0] * r
    d[0] = 6  # divisible by every ratio C[i][j] / C[j][i] of a simple type
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if cartan[i][j] and not d[j]:
                d[j] = d[i] * cartan[i][j] // cartan[j][i]
                frontier.append(j)
    g = gcd(*d)
    return tuple(x // g for x in d)


_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E6": lambda r: 72,
    "E7": lambda r: 126,
    "E8": lambda r: 240,
    "F4": lambda r: 48,
    "G2": lambda r: 12,
}


class RootSystem:
    """All positive and negative roots of one simple type, with support masks.

    Also carries the Cartan matrix, its primitive integer symmetrizer and
    the integer-indexed tables of the stripping engine.  Immutable after
    construction; instances are cached and may be shared freely between
    threads.
    """

    def __init__(self, rsid: RootSystemId):
        self.id = rsid
        self.rank = rsid.rank
        self.cartan = cartan_matrix(rsid)
        self.simple_roots: tuple[Coords, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        pos = self._close_positive()
        self.positive_roots: tuple[Coords, ...] = tuple(
            sorted(pos, key=lambda a: (height(a), a))
        )
        self.all_roots: frozenset[Coords] = frozenset(pos) | frozenset(
            negate(a) for a in pos
        )
        expected = _ROOT_COUNTS[rsid.family](self.rank)
        if len(self.all_roots) != expected:
            raise AssertionError(
                f"{rsid}: built {len(self.all_roots)} roots, expected {expected}"
            )
        self.symmetrizer = _symmetrizer(self.cartan)
        self._support: dict[Coords, int] = {
            a: _support_mask(a) for a in self.all_roots
        }
        self.full_mask = (1 << self.rank) - 1

    # -- construction -------------------------------------------------

    def _close_positive(self) -> set[Coords]:
        roots: set[Coords] = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            new: list[Coords] = []
            for beta in frontier:
                for i in range(self.rank):
                    pairing = sum(beta[j] * self.cartan[i][j] for j in range(self.rank))
                    # length of the descending alpha_i-string through beta
                    p = 0
                    gamma = _sub_simple(beta, i)
                    while gamma in roots:
                        p += 1
                        gamma = _sub_simple(gamma, i)
                    if p - pairing > 0:
                        up = _add_simple(beta, i)
                        if up not in roots:
                            roots.add(up)
                            new.append(up)
            frontier = new
        return roots

    # -- queries ------------------------------------------------------

    def support_mask(self, a: Coords) -> int:
        return self._support[a]

    def mask_of(self, indices) -> int:
        m = 0
        for i in indices:
            if not 1 <= i <= self.rank:
                raise RootSystemError(f"simple-root index {i} out of range for {self.id}")
            m |= 1 << (i - 1)
        return m

    # -- indexed fast path (lazily built) -------------------------------

    def indexed(self) -> "_IndexedRoots":
        """Integer-indexed root tables for hot loops (built on first use)."""
        cached = getattr(self, "_indexed", None)
        if cached is None:
            cached = _IndexedRoots(self)
            object.__setattr__(self, "_indexed", cached)
        return cached

    def __repr__(self) -> str:
        return f"RootSystem({self.id})"


class _IndexedRoots:
    """Root addition table and the minimality rank over integer indices.

    rank[i] is the position of roots[i] in the order by height, ties
    broken towards mass on earlier simple roots (so alpha_1 before
    alpha_2); the stripping engine extracts the root of least rank.
    """

    def __init__(self, rs: RootSystem):
        self.roots: tuple[Coords, ...] = tuple(sorted(rs.all_roots))
        self.index: dict[Coords, int] = {a: i for i, a in enumerate(self.roots)}
        n = len(self.roots)
        idx = self.index
        table = []
        for a in self.roots:
            row = [-1] * n
            for j, b in enumerate(self.roots):
                s = add(a, b)
                k = idx.get(s)
                if k is not None:
                    row[j] = k
            table.append(row)
        self.add_table = table
        order = sorted(range(n), key=lambda i: (height(self.roots[i]), negate(self.roots[i])))
        self.rank = [0] * n
        for pos, i in enumerate(order):
            self.rank[i] = pos


def _support_mask(a: Coords) -> int:
    m = 0
    for i, c in enumerate(a):
        if c != 0:
            m |= 1 << i
    return m


def _add_simple(a: Coords, i: int) -> Coords:
    b = list(a)
    b[i] += 1
    return tuple(b)


def _sub_simple(a: Coords, i: int) -> Coords:
    b = list(a)
    b[i] -= 1
    return tuple(b)


def negate(a: Coords) -> Coords:
    return tuple(-c for c in a)


def height(a: Coords) -> int:
    return sum(a)


def add(a: Coords, b: Coords) -> Coords:
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def build_root_system(rsid: RootSystemId) -> RootSystem:
    """Construct (and cache) the full root system for a valid id."""
    return RootSystem(rsid)
