"""Parabolic subgroups of the simple classical and exceptional groups.

Two interchangeable descriptions are supported:

* ``BlockComposition`` -- the classical matrix picture: a parabolic
  containing the upper-triangular Borel is determined by the sizes of
  its diagonal blocks.  For SO_n and Sp_n (antidiagonal bilinear forms)
  the sizes are symmetric, ``k_i == k_{r+1-i}``.  For SO_n with even n
  there is a second class of parabolics obtained by conjugating with the
  transposition of the two middle basis vectors; these carry a
  ``stroke`` flag.

* ``SimpleRootSubset`` -- the subset I of simple roots generating the
  standard Levi subgroup (so the "removed" roots are Pi \\ I).

Pairs of parabolics are classified up to the symmetries that leave the
complexity unchanged: swapping the two parabolics (all families),
simultaneous reversal of both compositions (SL_n), and the simultaneous
diagram automorphism, i.e. stroke toggle, for SO_n with even n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import RootSystemId, RootSystemError, system_id


class ParabolicError(ValueError):
    """Invalid parabolic data."""


_CLASSICAL = ("SL", "SO", "Sp")


def classical_system_id(family: str, n: int) -> RootSystemId:
    """Root-system id of a simple classical matrix group."""
    if family == "SL":
        if n < 2:
            raise ParabolicError("SL_n needs n >= 2")
        return system_id("A", n - 1)
    if family == "Sp":
        if n < 4 or n % 2:
            raise ParabolicError("Sp_n needs even n >= 4 (Sp_2 = SL_2)")
        return system_id("C", n // 2)
    if family == "SO":
        if n % 2 == 0:
            if n < 6:
                raise ParabolicError("SO_n with even n needs n >= 6 (SO_4 is not simple)")
            return system_id("D", n // 2)
        if n < 5:
            raise ParabolicError("SO_n with odd n needs n >= 5 (use SL_2 for SO_3)")
        return system_id("B", (n - 1) // 2)
    raise ParabolicError(f"unknown classical family {family!r}")


@dataclass(frozen=True)
class BlockComposition:
    """Diagonal block sizes of a classical parabolic subgroup.

    SO with even n stores a middle pair (1, 1) canonically as one middle
    block of size 2 (the two subgroups coincide).  The stroke flag marks
    the special parabolics of SO_{2l} and requires a composition without
    a central block.
    """

    family: str
    n: int
    sizes: tuple[int, ...]
    stroke: bool = False

    def __post_init__(self) -> None:
        if self.family not in _CLASSICAL:
            raise ParabolicError(f"unknown classical family {self.family!r}")
        classical_system_id(self.family, self.n)  # validates n
        sizes = tuple(int(k) for k in self.sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise ParabolicError("block sizes must be positive integers")
        if sum(sizes) != self.n:
            raise ParabolicError(f"block sizes {sizes} do not sum to n={self.n}")
        if self.family in ("SO", "Sp"):
            if any(sizes[i] != sizes[-1 - i] for i in range(len(sizes))):
                raise ParabolicError(
                    f"{self.family} compositions must be symmetric, got {sizes}"
                )
        if self.family == "SO" and self.n % 2 == 0 and len(sizes) % 2 == 0:
            r = len(sizes)
            if sizes[r // 2 - 1] == sizes[r // 2] == 1:
                # middle pair (1, 1) is the same subgroup as a middle 2-block
                sizes = sizes[: r // 2 - 1] + (2,) + sizes[r // 2 + 1 :]
        object.__setattr__(self, "sizes", sizes)
        if self.stroke:
            if self.family != "SO" or self.n % 2:
                raise ParabolicError("stroke parabolics exist only for SO_n with even n")
            if len(self.sizes) % 2:
                raise ParabolicError(
                    "stroke parabolics require a composition without a central block"
                )

    @property
    def r(self) -> int:
        return len(self.sizes)

    def boundaries(self) -> tuple[int, ...]:
        """Positions where consecutive blocks meet (proper partial sums)."""
        out = []
        s = 0
        for k in self.sizes[:-1]:
            s += k
            out.append(s)
        return tuple(out)

    def has_central_block(self) -> bool:
        return len(self.sizes) % 2 == 1

    def reversed(self) -> "BlockComposition":
        return BlockComposition(self.family, self.n, self.sizes[::-1], self.stroke)

    def automorphism_image(self) -> "BlockComposition":
        """Image under the SO_{2l} diagram automorphism (stroke toggle).

        Compositions with a central block are fixed; the others toggle
        the stroke flag.  Identity for other families.
        """
        if self.family != "SO" or self.n % 2 or self.has_central_block():
            return self
        return BlockComposition(self.family, self.n, self.sizes, not self.stroke)

    @property
    def system(self) -> RootSystemId:
        return classical_system_id(self.family, self.n)

    def sort_key(self):
        return (len(self.sizes), self.sizes, self.stroke)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.sizes) + ("'" if self.stroke else "")


@dataclass(frozen=True)
class SimpleRootSubset:
    """A standard parabolic P_I given by the simple roots I of its Levi."""

    system: RootSystemId
    levi: frozenset[int]

    def __post_init__(self) -> None:
        levi = frozenset(int(i) for i in self.levi)
        for i in levi:
            if not 1 <= i <= self.system.rank:
                raise ParabolicError(f"simple-root index {i} out of range for {self.system}")
        object.__setattr__(self, "levi", levi)

    @property
    def removed(self) -> frozenset[int]:
        return frozenset(range(1, self.system.rank + 1)) - self.levi

    def sort_key(self):
        return tuple(sorted(self.removed))

    def __str__(self) -> str:
        if not self.removed:
            return "G"
        return ",".join(f"a{i}" for i in sorted(self.removed))


ParabolicSpec = BlockComposition | SimpleRootSubset


@dataclass(frozen=True)
class ParabolicPair:
    p: ParabolicSpec
    q: ParabolicSpec

    def __post_init__(self) -> None:
        sp, sq = self.p.system, self.q.system
        if sp != sq:
            raise ParabolicError(f"pair mixes groups {sp} and {sq}")
        if isinstance(self.p, BlockComposition) != isinstance(self.q, BlockComposition):
            raise ParabolicError("pair mixes block and simple-root descriptions")

    def swapped(self) -> "ParabolicPair":
        return ParabolicPair(self.q, self.p)

    def sort_key(self):
        return (self.p.sort_key(), self.q.sort_key())


def composition_to_subset(b: BlockComposition) -> SimpleRootSubset:
    """Simple roots of the standard Levi of a block parabolic.

    For SL_n a boundary at position s removes alpha_s.  For SO_n/Sp_n the
    boundaries are folded to the first half; for SO_{2l} a boundary at
    l-1 (central 2-block) removes both fork nodes, a boundary at l (no
    central block) removes alpha_l, or alpha_{l-1} for stroke parabolics.
    """
    rsid = b.system
    rank = rsid.rank
    removed: set[int] = set()
    if b.family == "SL":
        removed = set(b.boundaries())
    else:
        folded = {min(s, b.n - s) for s in b.boundaries()}
        if rsid.family == "B" or b.family == "Sp":
            removed = set(folded)
        else:  # D_l
            l = rank
            for s in folded:
                if s <= l - 2:
                    removed.add(s)
                elif s == l - 1:
                    removed.update((l - 1, l))
                else:  # s == l, no central block
                    removed.add(l - 1 if b.stroke else l)
    levi = frozenset(range(1, rank + 1)) - removed
    return SimpleRootSubset(rsid, levi)


def subset_to_composition(s: SimpleRootSubset) -> BlockComposition:
    """Inverse of composition_to_subset (classical systems only)."""
    fam = s.system.family
    rank = s.system.rank
    removed = sorted(s.removed)
    if fam == "A":
        n = rank + 1
        sizes = []
        prev = 0
        for b in removed + [n]:
            sizes.append(b - prev)
            prev = b
        return BlockComposition("SL", n, tuple(sizes))
    if fam == "C":
        n = 2 * rank
        return _folded_composition("Sp", n, removed, stroke=False)
    if fam == "B":
        n = 2 * rank + 1
        return _folded_composition("SO", n, removed, stroke=False)
    if fam == "D":
        l = rank
        n = 2 * l
        stroke = False
        fork = {i for i in removed if i >= l - 1}
        plain = [i for i in removed if i <= l - 2]
        if fork == {l - 1, l}:
            half_bounds = plain + [l - 1]
        elif fork == {l}:
            half_bounds = plain + [l]
        elif fork == {l - 1}:
            half_bounds = plain + [l]
            stroke = True
        else:
            half_bounds = plain
        return _folded_composition("SO", n, half_bounds, stroke)
    raise ParabolicError(f"{s.system} is not classical; no block composition exists")


def _folded_composition(family: str, n: int, half_bounds, stroke: bool) -> BlockComposition:
    bounds = sorted(set(half_bounds))
    full = bounds + [n - s for s in reversed(bounds) if n - s not in bounds]
    full = sorted(set(full))
    sizes = []
    prev = 0
    for b in full + [n]:
        if b > prev:
            sizes.append(b - prev)
            prev = b
    return BlockComposition(family, n, tuple(sizes), stroke)


def as_subset(spec: ParabolicSpec) -> SimpleRootSubset:
    if isinstance(spec, BlockComposition):
        return composition_to_subset(spec)
    return spec


def pair_orbit(pair: ParabolicPair) -> set[ParabolicPair]:
    """Orbit of a pair under the complexity-preserving symmetries."""
    orbit = {pair, pair.swapped()}
    p, q = pair.p, pair.q
    if isinstance(p, BlockComposition):
        if p.family == "SL":
            rev = ParabolicPair(p.reversed(), q.reversed())
            orbit |= {rev, rev.swapped()}
        elif p.family == "SO" and p.n % 2 == 0:
            aut = ParabolicPair(p.automorphism_image(), q.automorphism_image())
            orbit |= {aut, aut.swapped()}
    return orbit


def canonical_pair(pair: ParabolicPair) -> ParabolicPair:
    """Lexicographically minimal representative of the symmetry orbit."""
    return min(pair_orbit(pair), key=ParabolicPair.sort_key)


# -- textual syntax -------------------------------------------------------

def parse_composition(family: str, n: int, text: str) -> BlockComposition:
    """Parse comma-separated sizes with an optional trailing apostrophe."""
    text = text.strip()
    stroke = text.endswith("'")
    if stroke:
        text = text[:-1]
    try:
        sizes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ParabolicError(f"bad composition syntax {text!r}") from None
    return BlockComposition(family, n, sizes, stroke)


def parse_removed_roots(rsid: RootSystemId, text: str) -> SimpleRootSubset:
    """Parse a removed-root list like ``a1,a5`` (or ``1,5``) into P_I.

    The named roots are the complement Pi \\ I, matching the convention
    used by the bundled exceptional classification.
    """
    removed: set[int] = set()
    for tok in text.split(","):
        tok = tok.strip().lstrip("aA")
        if not tok:
            continue
        try:
            removed.add(int(tok))
        except ValueError:
            raise ParabolicError(f"bad simple-root token {tok!r}") from None
    levi = frozenset(range(1, rsid.rank + 1)) - removed
    for i in removed:
        if not 1 <= i <= rsid.rank:
            raise ParabolicError(f"simple-root index {i} out of range for {rsid}")
    return SimpleRootSubset(rsid, levi)
