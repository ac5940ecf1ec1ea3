"""Independent tensor-product decomposition oracles.

Three exact methods, used to cross-validate the section-space
decompositions:

* ``tensor_product`` -- multiply full characters and greedily peel the
  highest remaining dominant weight.  Conceptually simplest; guarded by
  rank/dimension caps because full characters get large.
* ``tensor_product_reflection`` -- the standard rho-shifted reflection
  method: only needs the full character of the smaller factor, so it
  scales to much larger highest weights.
* ``lr_tensor`` -- type A only: count Littlewood--Richardson skew
  tableaux directly on partitions.

All three return a map {highest weight: multiplicity} in fundamental
coordinates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .rootsys import RootSystemId
from .weights import CapExceeded, OracleError, Weight, WeightLattice, weight_lattice


@dataclass(frozen=True)
class DecompositionTerm:
    """One irreducible summand: a dominant highest weight with multiplicity."""

    highest_weight: tuple
    multiplicity: int

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise OracleError("decomposition terms need positive multiplicity")


DEFAULT_RANK_CAP = 8
DEFAULT_DIM_CAP = 20_000


def _check_caps(lat: WeightLattice, weights, rank_cap: int, dim_cap: int | None) -> None:
    if lat.rank > rank_cap:
        raise CapExceeded(f"rank {lat.rank} above oracle cap {rank_cap}")
    if dim_cap is not None:
        for w in weights:
            d = lat.weyl_dim(w)
            if d > dim_cap:
                raise CapExceeded(f"dim {d} of weight {w} above cap {dim_cap}")


def tensor_product(
    group: RootSystemId,
    lam: Weight,
    mu: Weight,
    rank_cap: int = DEFAULT_RANK_CAP,
    dim_cap: int | None = DEFAULT_DIM_CAP,
) -> dict[Weight, int]:
    """Decompose V_lam (x) V_mu by character product and greedy peeling.

    Peeling order is highest weight by height, ties lexicographic.  A
    negative multiplicity or a non-dominant leading term signals an
    internal inconsistency and raises.  Caps also apply to every peeled
    summand (their characters are needed too); the first one, lam + mu,
    is checked before any character is built.
    """
    lat = weight_lattice(group)
    highest = tuple(x + y for x, y in zip(lam, mu))
    _check_caps(lat, (lam, mu, highest), rank_cap, dim_cap)
    ca = lat.character(lam)
    cb = lat.character(mu)
    if len(ca) > len(cb):
        ca, cb = cb, ca
    prod: dict[Weight, int] = {}
    for wa, ma in ca.items():
        for wb, mb in cb.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            prod[w] = prod.get(w, 0) + ma * mb
    # max-heap on (height, weight) with lazy deletion: an entry whose
    # weight has dropped out of prod is skipped when it surfaces, and a
    # weight is pushed again whenever it re-enters prod
    heap = [_peel_key(lat, w) for w in prod]
    heapq.heapify(heap)
    out: dict[Weight, int] = {}
    while heap:
        top = heapq.heappop(heap)[2]
        m = prod.get(top)
        if not m:
            continue
        if m < 0 or not lat.is_dominant(top):
            raise OracleError(f"peeling failed at {top} with multiplicity {m}")
        _check_caps(lat, (top,), rank_cap, dim_cap)
        for w, mw in lat.character(top).items():
            had = prod.get(w, 0)
            left = had - m * mw
            if left:
                prod[w] = left
                if not had:
                    heapq.heappush(heap, _peel_key(lat, w))
            else:
                prod.pop(w, None)
        out[top] = m
    return out


def _peel_key(lat: WeightLattice, w: Weight) -> tuple:
    """Heap entry that pops the highest (height, weight) first."""
    return (-lat.height(w), tuple(-x for x in w), w)


def tensor_product_reflection(
    group: RootSystemId,
    lam: Weight,
    mu: Weight,
) -> dict[Weight, int]:
    """Decompose V_lam (x) V_mu by rho-shifted dominant reflection.

    Iterates over the full character of the factor with the smaller
    weight diagram; each shifted weight lam + rho + nu is reflected to
    the dominant chamber with a sign, weights on walls dropping out.
    """
    lat = weight_lattice(group)
    if lat.rank > DEFAULT_RANK_CAP:
        raise CapExceeded(f"rank {lat.rank} above oracle cap {DEFAULT_RANK_CAP}")
    if lat.weyl_dim(mu) > lat.weyl_dim(lam):
        lam, mu = mu, lam
    base = tuple(x + 1 for x in lam)  # lam + rho
    acc: dict[Weight, int] = {}
    for nu, m in lat.character(mu).items():
        xi = tuple(b + x for b, x in zip(base, nu))
        dom, sign = lat.to_dominant(xi)
        if any(c == 0 for c in dom):
            continue
        w = tuple(c - 1 for c in dom)
        acc[w] = acc.get(w, 0) + sign * m
    out = {w: m for w, m in acc.items() if m}
    if any(m < 0 for m in out.values()):
        raise OracleError("reflection method produced a negative multiplicity")
    return out


# -- Littlewood-Richardson counting (type A) -------------------------------

def weight_to_partition(n: int, w: Weight) -> tuple[int, ...]:
    """Partition (length n, last part 0) for a dominant SL_n weight."""
    if len(w) != n - 1:
        raise OracleError(f"SL_{n} weight needs {n - 1} coordinates")
    parts = []
    tail = 0
    for c in reversed(w):
        tail += c
        parts.append(tail)
    parts.reverse()
    return tuple(parts) + (0,)


def partition_to_weight(n: int, parts) -> Weight:
    parts = tuple(parts) + (0,) * (n - len(parts))
    return tuple(parts[i] - parts[i + 1] for i in range(n - 1))


def lr_coefficient(lam, mu, nu) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu."""
    lam = list(lam) + [0] * (len(nu) - len(lam))
    if any(n < l for n, l in zip(nu, lam)):
        return 0
    # cells in reading order (right to left within a row, top to bottom),
    # which is also the order in which the lattice condition is checked
    cells = []
    for i, (lo, hi) in enumerate(zip(lam, nu)):
        for j in range(hi - 1, lo - 1, -1):
            cells.append((i, j))
    if len(cells) != sum(mu):
        return 0
    fill: dict[tuple[int, int], int] = {}
    remaining = list(mu)
    count = 0

    def rec(k: int, counts) -> None:
        nonlocal count
        if k == len(cells):
            count += 1
            return
        i, j = cells[k]
        right = fill.get((i, j + 1))
        above = fill.get((i - 1, j))
        for v in range(len(mu)):
            if remaining[v] == 0:
                continue
            if right is not None and v > right:
                break  # rows weakly increase left to right
            if above is not None and v <= above:
                continue  # columns strictly increase downward
            if v and counts[v - 1] <= counts[v]:
                continue  # lattice word condition
            fill[(i, j)] = v
            remaining[v] -= 1
            counts[v] += 1
            rec(k + 1, counts)
            counts[v] -= 1
            remaining[v] += 1
            del fill[(i, j)]

    rec(0, [0] * len(mu))
    return count


def lr_tensor(n: int, lam_w: Weight, mu_w: Weight) -> dict[Weight, int]:
    """Decompose an SL_n tensor product by LR tableau counting."""
    lam = weight_to_partition(n, lam_w)
    mu0 = weight_to_partition(n, mu_w)
    mu = tuple(p for p in mu0 if p)
    boxes = sum(mu)
    out: dict[Weight, int] = {}
    for nu in _partitions_over(lam, boxes, n, mu):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[partition_to_weight(n, nu)] = c
    return out


def _partitions_over(lam, boxes: int, max_rows: int, mu):
    """Partitions nu >= lam with |nu| = |lam| + boxes and at most max_rows rows."""
    lam = list(lam) + [0] * (max_rows - len(lam))
    width = mu[0] if mu else 0
    results: list[tuple[int, ...]] = []

    def rec(i: int, prev: int, left: int, acc: list[int]) -> None:
        if i == max_rows:
            if left == 0:
                results.append(tuple(acc))
            return
        for v in range(lam[i], min(prev, lam[i] + left) + 1):
            acc.append(v)
            rec(i + 1, v, left - (v - lam[i]), acc)
            acc.pop()

    # first row is bounded by lam_1 + mu_1 (dominance); later rows by
    # monotonicity and the remaining box count
    rec(0, lam[0] + width, boxes, [])
    return results


def tensor_oracle(
    group: RootSystemId,
    lam: Weight,
    mu: Weight,
    method: str = "peel",
) -> list[DecompositionTerm]:
    """Uniform entry point returning sorted DecompositionTerms."""
    if method == "peel":
        dec = tensor_product(group, lam, mu)
    elif method == "reflection":
        dec = tensor_product_reflection(group, lam, mu)
    elif method == "lr":
        if group.family != "A":
            raise OracleError("LR counting applies to type A only")
        dec = lr_tensor(group.rank + 1, lam, mu)
    else:
        raise OracleError(f"unknown tensor method {method!r}")
    return [
        DecompositionTerm(w, m) for w, m in sorted(dec.items(), reverse=True)
    ]


def dimension_check(group: RootSystemId, lam: Weight, mu: Weight, terms) -> bool:
    """Sum of mult * dim over terms equals dim V_lam * dim V_mu."""
    lat = weight_lattice(group)
    total = sum(t.multiplicity * lat.weyl_dim(t.highest_weight) for t in terms)
    return total == lat.weyl_dim(lam) * lat.weyl_dim(mu)
