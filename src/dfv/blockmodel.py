"""Matrix picture of classical parabolic pairs and a generic-orbit oracle.

Conventions: the Borel consists of upper-triangular matrices; SO_n
preserves the symmetric form with the antidiagonal unit matrix; Sp_n
preserves the skew form whose matrix has 1 on the upper half of the
antidiagonal and -1 on the lower half.  With these forms so_n consists
of matrices antisymmetric about the secondary diagonal (zero on it),
and sp_n has symmetric off-diagonal quadrants and a free secondary
diagonal.

A pair of block parabolics determines a grid of nonzero blocks X_{ij}
of p_u ∩ q_u over the common refinement of the two compositions, on
which B ∩ L ∩ M acts by X_{ij} -> A_i X_{ij} A_j^{-1}.  The complexity
equals the codimension of a generic orbit; the oracle here evaluates
the rank of the infinitesimal action at random integer points with
exact arithmetic.  Matrices are lists of sparse (row, column,
coefficient) entries, and the action is read off in the coordinates of
the module basis only.  Stroke parabolics are realized by conjugating block
membership with the transposition of the two middle basis vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexity import integer_rank
from .parabolic import BlockComposition, ParabolicError
from .weights import CapExceeded

_ENTRY_BOUND = 10**6  # entries of the oracle's random points lie in [-bound, bound]
_MATRIX_CAP = 20  # largest matrix size n the oracle accepts
_PATTERN_CAP = 256  # invariant patterns collected per grid
_PACKING_LIMIT = 3  # disjoint patterns counted at most


def check_matrix_cap(n: int) -> None:
    """Raise CapExceeded if the oracle refuses matrices of size n."""
    if n > _MATRIX_CAP:
        raise CapExceeded(f"matrix size {n} above oracle cap {_MATRIX_CAP}")


class BlockModelError(RuntimeError):
    pass


# -- block grids ----------------------------------------------------------

@dataclass(frozen=True)
class BlockGrid:
    """Locations of the nonzero blocks of p_u ∩ q_u.

    ``active`` stores, for SO/Sp, only cells on or below the secondary
    diagonal of the grid (i + j >= r + 1); their mirror images are
    implied by the form symmetry.  For SL it stores all cells.
    """

    family: str
    refined: tuple[int, ...]
    active: frozenset[tuple[int, int]]
    antidiag: frozenset[tuple[int, int]]

    @property
    def r(self) -> int:
        return len(self.refined)

    def mirror(self, cell: tuple[int, int]) -> tuple[int, int]:
        i, j = cell
        return (self.r + 1 - j, self.r + 1 - i)

    def full_active(self) -> frozenset[tuple[int, int]]:
        if self.family == "SL":
            return self.active
        return self.active | frozenset(self.mirror(c) for c in self.active)


def build_block_grid(family: str, p: BlockComposition, q: BlockComposition) -> BlockGrid:
    """Grid of nonzero blocks over the common refinement of two compositions."""
    if p.family != family or q.family != family:
        raise ParabolicError("grid compositions must share the family")
    if p.n != q.n:
        raise ParabolicError(f"mismatched matrix sizes {p.n} != {q.n}")
    if p.stroke or q.stroke:
        raise ParabolicError(
            "block grids are defined for unstroked compositions; reduce stroke "
            "pairs first (see reduce_stroke_pair)"
        )
    ends = sorted(set(p.boundaries()) | set(q.boundaries())) + [p.n]
    refined = [b - a for a, b in zip([0] + ends, ends)]
    r = len(refined)
    pb, qb = _blocks(p), _blocks(q)
    cells = set()
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            a, b = ends[i - 1], ends[j - 1]
            if pb[a] != pb[b] and qb[a] != qb[b]:
                cells.add((i, j))
    anti = frozenset(c for c in cells if c[0] + c[1] == r + 1)
    if family != "SL":
        cells = {c for c in cells if c[0] + c[1] >= r + 1}
    return BlockGrid(family, tuple(refined), frozenset(cells), anti)


def reduce_stroke_pair(
    p: BlockComposition, q: BlockComposition
) -> tuple[BlockComposition, BlockComposition]:
    """Replace a stroked pair by an unstroked one without raising complexity.

    If both are stroked the simultaneous diagram automorphism removes
    both strokes exactly.  A single stroked parabolic is enlarged by
    merging its two middle blocks (the merged parabolic contains it, so
    the complexity can only drop); the result is suitable for lower
    bounds.
    """
    if p.stroke and q.stroke:
        return p.automorphism_image(), q.automorphism_image()
    out = []
    for c in (p, q):
        if c.stroke:
            sizes = c.sizes
            h = len(sizes) // 2
            merged = sizes[: h - 1] + (2 * sizes[h - 1],) + sizes[h + 1 :]
            c = BlockComposition(c.family, c.n, merged)
        out.append(c)
    return out[0], out[1]


# -- pattern lower bounds -------------------------------------------------

def pattern_lower_bound(grid: BlockGrid) -> int:
    """Best complexity lower bound from invariant patterns in the grid.

    Counts pairwise independent "square" (four cells at the corners of a
    rectangle) and "triangle" (cells ij, ik, jk) patterns, and rows of
    at least 3 / 4 blocks of height >= 2.  For SO, cells on the secondary
    diagonal carry no invariant and are excluded.  Patterns related by
    the secondary-diagonal mirror share their invariant, so independence
    is judged on mirror-closed cell sets.
    """
    cells = grid.full_active()
    if grid.family == "SO":
        cells = cells - grid.antidiag
    patterns = _invariant_patterns(grid, cells)
    packing = _max_disjoint(patterns)
    row_bound = 0
    for i in range(1, grid.r + 1):
        if grid.refined[i - 1] < 2:
            continue
        count = sum(1 for c in cells if c[0] == i)
        if count >= 4:
            row_bound = max(row_bound, 2)
        elif count >= 3:
            row_bound = max(row_bound, 1)
    return max(packing, row_bound)


def _invariant_patterns(grid: BlockGrid, cells):
    """Mirror-closed cell sets of square and triangle patterns.

    For SO/Sp a pattern may not contain two cells that are mirror images
    of each other: such blocks are tied by the form symmetry and are not
    independent coordinates, so the invariant construction fails.
    """
    def closure(cs):
        if grid.family == "SL":
            return frozenset(cs)
        for c in cs:
            m = grid.mirror(c)
            if m != c and m in cs:
                return None
        return frozenset(cs) | frozenset(grid.mirror(c) for c in cs)

    patterns = []
    by_row: dict[int, set[int]] = {}
    for (i, j) in cells:
        by_row.setdefault(i, set()).add(j)
    rows = sorted(by_row)
    # squares
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            common = sorted(by_row[rows[a]] & by_row[rows[b]])
            for x in range(len(common)):
                for y in range(x + 1, len(common)):
                    pat = closure(
                        {
                            (rows[a], common[x]),
                            (rows[a], common[y]),
                            (rows[b], common[x]),
                            (rows[b], common[y]),
                        }
                    )
                    if pat is not None:
                        patterns.append(pat)
                    if len(patterns) >= _PATTERN_CAP:
                        return patterns
    # triangles
    for (i, j) in cells:
        for k in by_row.get(i, ()):
            if k > j and (j, k) in cells:
                pat = closure({(i, j), (i, k), (j, k)})
                if pat is not None:
                    patterns.append(pat)
                if len(patterns) >= _PATTERN_CAP:
                    return patterns
    return patterns


def _max_disjoint(patterns) -> int:
    if not patterns:
        return 0
    best = 1
    # exhaustive search for a disjoint pair, greedy beyond that
    for a in range(len(patterns)):
        if best >= 2:
            break
        for b in range(a + 1, len(patterns)):
            if not patterns[a] & patterns[b]:
                best = 2
                break
    if best >= 2:
        for a in range(len(patterns)):
            chosen = [patterns[a]]
            used = set(patterns[a])
            for p in patterns:
                if len(chosen) >= _PACKING_LIMIT:
                    break
                if not (p & used):
                    chosen.append(p)
                    used |= p
            best = max(best, len(chosen))
    return min(best, _PACKING_LIMIT)


# -- explicit matrix models ----------------------------------------------

def _blocks(comp: BlockComposition) -> list[int]:
    """Block index of each position 1..n (entry 0 is unused).

    A stroke swaps the entries of the two middle positions.
    """
    out = [-1]
    for i, k in enumerate(comp.sizes):
        out += [i] * k
    if comp.stroke:
        l = comp.n // 2
        out[l], out[l + 1] = out[l + 1], out[l]
    return out


def _basis_elements(family: str, n: int):
    """(positions, coefficients) of a spanning set of the Lie algebra.

    Off-diagonal elements are listed once per symmetry class, keyed by a
    representative position (a, b); diagonal torus elements separately.
    """
    elems: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    if family == "SL":
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    elems[(a, b)] = [(a, b, 1)]
        torus = [[(i, i, 1), (i + 1, i + 1, -1)] for i in range(1, n)]
        return elems, torus
    if family == "SO":
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a + b < n + 1:
                    elems[(a, b)] = [(a, b, 1), (n + 1 - b, n + 1 - a, -1)]
        torus = [[(a, a, 1), (n + 1 - a, n + 1 - a, -1)] for a in range(1, n // 2 + 1)]
        return elems, torus
    if family == "Sp":
        l = n // 2

        def tau(u: int) -> int:
            return -1 if u <= l else 1

        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a + b < n + 1 and a != b:
                    elems[(a, b)] = [(a, b, 1), (n + 1 - b, n + 1 - a, -tau(b) * tau(a))]
                elif a + b == n + 1:
                    elems[(a, b)] = [(a, b, 1)]
        torus = [[(a, a, 1), (n + 1 - a, n + 1 - a, -1)] for a in range(1, l + 1)]
        return elems, torus
    raise BlockModelError(f"unknown family {family!r}")


def nilradical_intersection_basis(p: BlockComposition, q: BlockComposition):
    """Basis of p_u ∩ q_u as sparse matrices (strictly upper, off-block)."""
    elems, _ = _basis_elements(p.family, p.n)
    pb, qb = _blocks(p), _blocks(q)
    return [
        entries
        for (a, b), entries in sorted(elems.items())
        if a < b and pb[a] != pb[b] and qb[a] != qb[b]
    ]


def borel_levi_basis(p: BlockComposition, q: BlockComposition):
    """Basis of b ∩ l ∩ m: upper-triangular matrices inside both Levis."""
    elems, torus = _basis_elements(p.family, p.n)
    pb, qb = _blocks(p), _blocks(q)
    return list(torus) + [
        entries
        for (a, b), entries in sorted(elems.items())
        if a < b and pb[a] == pb[b] and qb[a] == qb[b]
    ]


def _action_rows(acting, module, x) -> list[list[int]]:
    """Coordinates of [Y, x] on the module basis, one row per acting Y.

    ``x`` is an (n+1)×(n+1) table indexed from 1.  Module basis elements
    have disjoint supports and coefficient 1 at their first position,
    and [b ∩ l ∩ m, p_u ∩ q_u] ⊆ p_u ∩ q_u, so the entries of [Y, x] at
    those positions are its coordinates.  An entry (a, b, c) of Y adds
    c·x[b][j] at module positions (a, j) and -c·x[i][a] at module
    positions (i, b).
    """
    in_row: dict[int, list[tuple[int, int]]] = {}
    in_col: dict[int, list[tuple[int, int]]] = {}
    for k, entries in enumerate(module):
        a, b, _ = entries[0]
        in_row.setdefault(a, []).append((k, b))
        in_col.setdefault(b, []).append((k, a))
    rows = []
    for y in acting:
        row = [0] * len(module)
        for a, b, c in y:
            xb = x[b]
            for k, j in in_row.get(a, ()):
                row[k] += c * xb[j]
            for k, i in in_col.get(b, ()):
                row[k] -= c * x[i][a]
        rows.append(row)
    return rows


def generic_orbit_complexity(
    p: BlockComposition,
    q: BlockComposition,
    seed: int = 0,
    samples: int = 3,
) -> int:
    """Codimension of a generic B ∩ L ∩ M orbit on p_u ∩ q_u.

    Exact integer evaluation of the infinitesimal action at random
    points; the rank at any point can only underestimate the generic
    rank, so the maximum over several samples is taken.
    """
    if p.family != q.family or p.n != q.n:
        raise ParabolicError("oracle needs two parabolics of the same group")
    check_matrix_cap(p.n)
    n = p.n
    module = nilradical_intersection_basis(p, q)
    acting = borel_levi_basis(p, q)
    dim = len(module)
    if dim == 0:
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(max(1, samples)):
        x = [[0] * (n + 1) for _ in range(n + 1)]
        for entries in module:
            c = rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND)
            for a, b, k in entries:
                x[a][b] += c * k
        best = max(best, integer_rank(_action_rows(acting, module, x)))
    return dim - best


# -- chain configurations -------------------------------------------------

# Complexity of the configuration whose blocks fill the first row and the
# last column with height 1, by the two-step recursion
#   c_{m,a} = c_{m-1,b} + 1,   c_{m,b} = c_{m-1,a}
# valid for m >= 4 (SO) and m >= 3 (Sp).  Base values are frozen from
# direct engine evaluation of the realizing compositions.
_CHAIN_BASE = {
    ("SO", "a"): (3, 0),
    ("SO", "b"): (3, 0),
    ("Sp", "a"): (2, 0),
    ("Sp", "b"): (2, 0),
}
_CHAIN_MIN_RECURSION = {"SO": 4, "Sp": 3}


def chain_complexity(m: int, variant: str, family: str) -> int:
    if variant not in ("a", "b"):
        raise BlockModelError("variant must be 'a' or 'b'")
    if family not in ("SO", "Sp"):
        raise BlockModelError("chain configurations exist for SO and Sp")
    base_m, base_val = _CHAIN_BASE[(family, variant)]
    if m < base_m:
        raise BlockModelError(f"{family} chain value undefined below m={base_m}")
    if m == base_m:
        return base_val
    if m < _CHAIN_MIN_RECURSION[family]:
        raise BlockModelError(f"recursion needs m >= {_CHAIN_MIN_RECURSION[family]}")
    if variant == "a":
        return chain_complexity(m - 1, "b", family) + 1
    return chain_complexity(m - 1, "a", family)


def chain_realizer(family: str, m: int, variant: str) -> tuple[BlockComposition, BlockComposition]:
    """A concrete pair realizing the chain configuration (m, variant).

    P = (1, n-2, 1) confines the blocks to the first row and last
    column with height 1; Q controls the number of diagonal blocks.
    The realized grid shape is asserted.
    """
    if family not in ("SO", "Sp"):
        raise BlockModelError("chain configurations exist for SO and Sp")
    if m < 2:
        raise BlockModelError("need m >= 2")
    if variant == "a":
        if m % 2 == 0:
            t = m // 2
            q_sizes = (1,) * t + (2,) + (1,) * t
        else:
            t = (m + 1) // 2
            q_sizes = (1,) * (t - 1) + (2, 2) + (1,) * (t - 1)
    elif variant == "b":
        if m == 2:
            q_sizes = (2, 2)
        elif m % 2 == 1:
            j = (m - 3) // 2
            q_sizes = (2,) + (1,) * j + (2,) + (1,) * j + (2,)
        else:
            j = (m - 2) // 2
            q_sizes = (2,) + (1,) * (j - 1) + (2, 2) + (1,) * (j - 1) + (2,)
    else:
        raise BlockModelError("variant must be 'a' or 'b'")
    n = sum(q_sizes)
    p = BlockComposition(family, n, (1, n - 2, 1))
    q = BlockComposition(family, n, q_sizes)
    grid = build_block_grid(family, p, q)
    r = grid.r
    expected_r = m + (1 if variant == "a" else 2)
    if r != expected_r or grid.refined[0] != 1:
        raise BlockModelError(f"realizer produced r={r}, expected {expected_r}")
    first_row = {c for c in grid.full_active() if c[0] == 1}
    last_col = {c for c in grid.full_active() if c[1] == r}
    if len(first_row) != m or grid.full_active() != first_row | last_col:
        raise BlockModelError("realizer grid is not a first-row/last-column shape")
    return p, q
