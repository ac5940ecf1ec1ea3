"""Complexity of double flag varieties via weight stripping.

For parabolics P_I, Q_J of a simple group the complexity of
G/P x G/Q equals the complexity of the action of L ∩ M on the
intersection of the nilradicals.  That action is encoded by two root
sets:

    E = { roots with support inside I ∩ J }          (roots of l ∩ m)
    F = { positive roots with support in neither I nor J }
                                                      (weights of p_u ∩ q_u)

and reduced by repeatedly extracting a minimal weight mu from F,
discarding the E-directions that translate into F together with their
images.  The resulting complexity is N - rank<mu_1..mu_N> over the
rationals, computed with exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .parabolic import ParabolicSpec, as_subset
from .rootsys import (
    Coords,
    RootSystem,
    RootSystemId,
    RootSystemError,
    build_root_system,
)


class ComplexityError(RuntimeError):
    """Internal invariant violation inside the complexity engine."""


@dataclass(frozen=True)
class WeightSetPair:
    """Nonzero weights of l ∩ m (E) and of p_u ∩ q_u (F).

    E is closed under negation (both root signs of the Levi
    intersection), F consists of positive roots, and the two are
    disjoint.
    """

    system: RootSystemId
    E: frozenset[Coords]
    F: frozenset[Coords]

    def __post_init__(self) -> None:
        if self.E & self.F:
            raise ComplexityError("E and F must be disjoint")
        for a in self.F:
            if any(c < 0 for c in a):
                raise ComplexityError(f"F must consist of positive roots, got {a}")
        for a in self.E:
            if tuple(-c for c in a) not in self.E:
                raise ComplexityError("E must be closed under negation")


@dataclass(frozen=True)
class StrippingResult:
    mus: tuple[Coords, ...]
    n_weights: int
    rank: int
    complexity: int


def intersection_weight_sets(rs: RootSystem, levi_i, levi_j) -> WeightSetPair:
    """Root sets of l ∩ m and p_u ∩ q_u for the Levi subsets I, J."""
    mi = rs.mask_of(levi_i)
    mj = rs.mask_of(levi_j)
    both = mi & mj
    E = frozenset(a for a in rs.all_roots if rs.support_mask(a) & ~both == 0)
    F = frozenset(
        a
        for a in rs.positive_roots
        if rs.support_mask(a) & ~mi and rs.support_mask(a) & ~mj
    )
    return WeightSetPair(rs.id, E, F)


def strip(pair: WeightSetPair) -> StrippingResult:
    """Run the weight-stripping reduction on (E, F).

    Each round removes a minimal weight mu of F, every alpha in E with
    alpha + mu still in F, and the translated weights alpha + mu.  F
    strictly shrinks, so termination is guaranteed; this is asserted.
    Minimal means least in the height-then-lex order of the index table.
    """
    ix = build_root_system(pair.system).indexed()
    rank_of = ix.rank.__getitem__
    table = ix.add_table
    E = {ix.index[a] for a in pair.E}
    F = {ix.index[a] for a in pair.F}
    mus: list[int] = []
    while F:
        before = len(F)
        mu = min(F, key=rank_of)
        mus.append(mu)
        moved = [(a, table[a][mu]) for a in E if table[a][mu] in F]
        for a, t in moved:
            E.remove(a)
            F.remove(t)
        F.remove(mu)
        if len(F) >= before:
            raise ComplexityError("stripping failed to shrink F")
    mu_coords = tuple(ix.roots[i] for i in mus)
    rank = integer_rank(mu_coords)
    c = len(mus) - rank
    if c < 0 or rank > min(len(mus), pair.system.rank):
        raise ComplexityError("stripping rank out of range")
    if len(set(mus)) != len(mus) or not set(mu_coords) <= pair.F:
        raise ComplexityError("extracted weights must be distinct members of F")
    return StrippingResult(mu_coords, len(mus), rank, c)


def integer_rank(vectors) -> int:
    """Rank over the rationals of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("rank of ragged matrix")
    if len(rows) > ncols:
        rows = [[r[j] for r in rows] for j in range(ncols)]
        ncols = len(rows[0])
    limit = min(len(rows), ncols)
    rank = 0
    prev = 1
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        pc = pr[col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            f = ri[col]
            if f:
                for j in range(col, ncols):
                    ri[j] = (pc * ri[j] - f * pr[j]) // prev
            elif pc != prev:
                # same Bareiss update with f = 0 (pure rescale, exact)
                for j in range(col, ncols):
                    ri[j] = (pc * ri[j]) // prev
        prev = pc
        rank += 1
        col += 1
        if rank == limit:
            break
    return rank


def complexity(group: RootSystemId, p: ParabolicSpec, q: ParabolicSpec) -> int:
    """Complexity of G/P x G/Q for a simple group of the given type."""
    si = as_subset(p)
    sj = as_subset(q)
    if si.system != group or sj.system != group:
        raise RootSystemError(
            f"parabolic data for {si.system}/{sj.system} does not match group {group}"
        )
    return strip(intersection_weight_sets(build_root_system(group), si.levi, sj.levi)).complexity


def dimension_lower_bound(group: RootSystemId, p: ParabolicSpec, q: ParabolicSpec) -> Fraction:
    """Lower bound (dim G - dim L - dim M - dim T) / 2 for the complexity.

    Computed from root counts: dim G = rank + #roots, dim of a Levi is
    rank + #{roots supported on its subset}, dim T = rank.  May be
    negative (vacuous).
    """
    rs = build_root_system(group)
    si, sj = as_subset(p), as_subset(q)
    if si.system != group or sj.system != group:
        raise RootSystemError("parabolic data does not match group")
    out_i, out_j = ~rs.mask_of(si.levi), ~rs.mask_of(sj.levi)
    supports = [rs.support_mask(a) for a in rs.all_roots]
    levi_roots = sum((s & out_i == 0) + (s & out_j == 0) for s in supports)
    return Fraction(len(rs.all_roots) - levi_roots - 2 * rs.rank, 2)


def pair_complexity(pair) -> int:
    """Complexity of a ParabolicPair."""
    return complexity(pair.p.system, pair.p, pair.q)
