"""Enumeration of parabolic pairs and regression against the bundled tables.

The reference classification (complexity 0 and 1 for every simple type)
is shipped as data: one generator per table row for the classical
families, and explicit pair lists for the exceptional types, each
annotated with a row label so a diff names the offending row.  Pairs of
full parabolics P = G are trivially of complexity 0 and are excluded
from classification output (the reference tables never list them);
Borel subgroups are included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import combinations

# dimension_lower_bound is unused here but stays importable from this
# module: perfbench/spans.py wraps it under this name.
from .complexity import complexity, dimension_lower_bound  # noqa: F401
from .parabolic import (
    BlockComposition,
    ParabolicError,
    ParabolicPair,
    ParabolicSpec,
    SimpleRootSubset,
    canonical_pair,
    classical_system_id,
    subset_to_composition,
)
from .rootsys import RootSystemId, system_id

EXCEPTIONAL_FAMILIES = ("E6", "E7", "E8", "F4", "G2")
DEFAULT_RANGES = {"SL": (2, 10), "SO": (5, 13), "Sp": (4, 12)}


@dataclass(frozen=True)
class ClassificationRow:
    pair: ParabolicPair
    complexity: int

    def __post_init__(self) -> None:
        if self.complexity < 0:
            raise ValueError("complexity must be nonnegative")


def _load_json(name: str):
    with resources.files("dfv.data").joinpath(name).open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _tables():
    return _load_json("expected_tables.json")


@lru_cache(maxsize=None)
def _exceptional_data():
    return _load_json("exceptional.json")


# -- enumeration ----------------------------------------------------------

def _group(family: str, n: int | None) -> RootSystemId:
    if family in EXCEPTIONAL_FAMILIES:
        return system_id(family)
    if n is None:
        raise ParabolicError(f"classical family {family} needs n")
    return classical_system_id(family, n)


def _spec(rsid: RootSystemId, removed) -> ParabolicSpec:
    """The parabolic without the given simple roots, in the family's notation.

    Block compositions for the classical families, simple-root subsets
    for the exceptional ones.
    """
    spec = SimpleRootSubset(rsid, frozenset(range(1, rsid.rank + 1)).difference(removed))
    return spec if rsid.family in EXCEPTIONAL_FAMILIES else subset_to_composition(spec)


def _all_specs(rsid: RootSystemId) -> list[ParabolicSpec]:
    """The parabolic of every removed-root set, G first."""
    r = rsid.rank
    return [_spec(rsid, c) for k in range(r + 1) for c in combinations(range(1, r + 1), k)]


def enumerate_pairs(family: str, n: int | None = None) -> list[ParabolicPair]:
    """Canonical representatives of every symmetry orbit of pairs.

    Every parabolic is named by its removed simple roots, so the 2^r
    removed sets give each parabolic once.  Includes the endpoints
    P = G and P = B.
    """
    specs = _all_specs(_group(family, n))
    pairs = {
        canonical_pair(ParabolicPair(p, q)) for i, p in enumerate(specs) for q in specs[i:]
    }
    return sorted(pairs, key=ParabolicPair.sort_key)


def classify(family: str, n: int | None = None, cmax: int = 1) -> list[ClassificationRow]:
    """All symmetry orbits with complexity <= cmax, with exact values.

    Complexity never decreases when a parabolic shrinks, so every pair
    of proper parabolics with complexity <= cmax is reached from a pair
    of maximal parabolics by removing one simple root at a time, through
    pairs that are all <= cmax.  The walk evaluates only those pairs and
    their one-root refinements, keyed by removed-root sets up to swap;
    the kept pairs are canonicalised at the end.
    """
    rsid = _group(family, n)
    r = rsid.rank
    full = frozenset(range(1, r + 1))

    def levi(removed):
        return SimpleRootSubset(rsid, full.difference(removed))

    todo = [((i,), (j,)) for i in range(1, r + 1) for j in range(i, r + 1)]
    seen = set(todo)
    kept = {}
    while todo:
        rp, rq = todo.pop()
        c = complexity(rsid, levi(rp), levi(rq))
        if c > cmax:
            continue
        kept[(rp, rq)] = c
        steps = [(tuple(sorted(rp + (x,))), rq) for x in full.difference(rp)]
        steps += [(rp, tuple(sorted(rq + (x,)))) for x in full.difference(rq)]
        for a, b in steps:
            key = min((a, b), (b, a))
            if key not in seen:
                seen.add(key)
                todo.append(key)
    rows = {}
    for (rp, rq), c in kept.items():
        pair = canonical_pair(ParabolicPair(_spec(rsid, rp), _spec(rsid, rq)))
        rows[pair] = ClassificationRow(pair, c)
    return sorted(rows.values(), key=lambda row: row.pair.sort_key())


# -- expected tables -------------------------------------------------------

def _instantiate_pattern(pattern, bounds, n: int):
    """All integer fillings of a composition pattern summing to n."""
    fixed = sum(x for x in pattern if isinstance(x, int))
    counts: dict[str, int] = {}
    for x in pattern:
        if isinstance(x, str):
            counts[x] = counts.get(x, 0) + 1
    names = sorted(counts)
    results = []

    def rec(i: int, left: int, acc: dict):
        if i == len(names):
            if left == 0:
                results.append(dict(acc))
            return
        name = names[i]
        cnt = counts[name]
        lo, hi = 1, None
        if bounds and name in bounds:
            blo, bhi = bounds[name]
            if blo is not None:
                lo = max(lo, blo)
            hi = bhi
        v = lo
        while cnt * v <= left - sum(counts[m] for m in names[i + 1 :]):
            if hi is not None and v > hi:
                break
            acc[name] = v
            rec(i + 1, left - cnt * v, acc)
            v += 1

    rec(0, n - fixed, {})
    out = []
    for assign in results:
        out.append(tuple(x if isinstance(x, int) else assign[x] for x in pattern))
    return out


def _row_specs(family: str, n: int, row, side: str) -> list[BlockComposition]:
    """The parabolics of one side of a table row that exist at size n."""
    out = []
    for sizes in _instantiate_pattern(row[side], row.get("bounds"), n):
        try:
            out.append(BlockComposition(family, n, sizes, row.get(f"{side}_stroke", False)))
        except ParabolicError:
            continue  # pattern instance invalid at this size (parity, stroke)
    return out


def _row_pairs(family: str, n: int, row) -> list[ParabolicPair]:
    """Canonical pairs produced by one reference-table row at size n."""
    if row["q"] == "any":
        q_list = _all_specs(_group(family, n))[1:]  # every proper parabolic
    else:
        q_list = _row_specs(family, n, row, "q")
    return [
        canonical_pair(ParabolicPair(p, q))
        for p in _row_specs(family, n, row, "p")
        for q in q_list
    ]


def expected_table(family: str, n: int | None = None):
    """Expected {canonical pair: complexity} with contributing row labels.

    Returns (mapping, labels) where labels maps pairs to the table rows
    that produce them.  Inconsistent tables (same pair, two values) raise.
    """
    if family not in EXCEPTIONAL_FAMILIES and n is not None:
        lo, hi = DEFAULT_RANGES[family]
        if not lo <= n <= hi:
            raise ParabolicError(
                f"{family}_{n} outside the supported table range {lo}..{hi}"
            )
    rsid = _group(family, n)
    expected: dict[ParabolicPair, int] = {}
    labels: dict[ParabolicPair, list[str]] = {}
    if family in EXCEPTIONAL_FAMILIES:
        for entry in _exceptional_data()["classification"][family]:
            pair = _removed_pair(rsid, entry["p"], entry["q"])
            _record_expected(expected, labels, pair, entry["complexity"], str(entry))
    else:
        for row in _tables()[family]:
            for pair in _row_pairs(family, n, row):
                _record_expected(expected, labels, pair, row["complexity"], row["label"])
    return expected, labels


def _record_expected(expected, labels, pair, c, label) -> None:
    if pair in expected and expected[pair] != c:
        raise ValueError(
            f"reference table rows disagree on {pair}: "
            f"{expected[pair]} ({labels[pair]}) vs {c} ({label})"
        )
    expected[pair] = c
    labels.setdefault(pair, [])
    if label not in labels[pair]:
        labels[pair].append(label)


def _removed_pair(rsid: RootSystemId, removed_p, removed_q) -> ParabolicPair:
    return canonical_pair(ParabolicPair(_spec(rsid, removed_p), _spec(rsid, removed_q)))


def survey_rows(family: str):
    """Regression rows for the exceptional survey (includes complexity 2)."""
    rsid = system_id(family)
    data = _exceptional_data()["survey"].get(family, [])
    return [
        (_removed_pair(rsid, e["p"], e["q"]), e["complexity"]) for e in data
    ]


# -- diffing ---------------------------------------------------------------

@dataclass
class DiffReport:
    family: str
    n: int | None
    missing: list = field(default_factory=list)      # (pair, expected c, labels)
    unexpected: list = field(default_factory=list)   # (pair, actual c)
    mismatched: list = field(default_factory=list)   # (pair, actual, expected, labels)

    @property
    def empty(self) -> bool:
        return not (self.missing or self.unexpected or self.mismatched)

    def lines(self) -> list[str]:
        where = self.family if self.n is None else f"{self.family}_{self.n}"
        out = []
        for pair, c, labels in self.missing:
            out.append(f"{where}: missing ({pair.p} | {pair.q}) c={c} from row(s) {labels}")
        for pair, c in self.unexpected:
            out.append(f"{where}: unexpected ({pair.p} | {pair.q}) c={c} not in any table row")
        for pair, actual, exp, labels in self.mismatched:
            out.append(
                f"{where}: ({pair.p} | {pair.q}) engine c={actual} but row(s) {labels} say {exp}"
            )
        if not out:
            out.append(f"{where}: tables reproduced exactly")
        return out

    def records(self) -> list[dict]:
        """One record per diff entry, or a single ``kind: ok`` record.

        Every record has the keys ``family, n, kind, p, q, actual,
        expected, rows``; ``p`` and ``q`` use the command-line notation,
        and fields that do not apply to a kind are null (``rows`` empty).
        """

        def rec(kind, pair=None, actual=None, expected=None, rows=()):
            return {
                "family": self.family,
                "n": self.n,
                "kind": kind,
                "p": None if pair is None else str(pair.p),
                "q": None if pair is None else str(pair.q),
                "actual": actual,
                "expected": expected,
                "rows": list(rows),
            }

        out = [rec("missing", pair, None, c, labels) for pair, c, labels in self.missing]
        out += [rec("unexpected", pair, c) for pair, c in self.unexpected]
        out += [
            rec("mismatched", pair, actual, exp, labels)
            for pair, actual, exp, labels in self.mismatched
        ]
        return out or [rec("ok")]


def diff_report(rows, expected_and_labels, family: str, n: int | None = None) -> DiffReport:
    """Symmetric difference between classification rows and an expected table."""
    expected, labels = expected_and_labels
    actual = {r.pair: r.complexity for r in rows}
    report = DiffReport(family, n)
    for pair, c in sorted(expected.items(), key=lambda kv: kv[0].sort_key()):
        if pair not in actual:
            report.missing.append((pair, c, labels[pair]))
        elif actual[pair] != c:
            report.mismatched.append((pair, actual[pair], c, labels[pair]))
    for pair, c in sorted(actual.items(), key=lambda kv: kv[0].sort_key()):
        if pair not in expected:
            report.unexpected.append((pair, c))
    return report


def verify_tables(family: str, n: int | None = None) -> DiffReport:
    """Classify and diff against the bundled reference table.

    The table is read first, so a size outside its range fails before
    any classification work.
    """
    expected = expected_table(family, n)
    return diff_report(classify(family, n, cmax=1), expected, family, n)


# -- record formatting ------------------------------------------------------

def row_record(family: str, n: int | None, row: ClassificationRow) -> dict:
    """Stable machine-readable record for one classification row."""
    pair = row.pair
    if isinstance(pair.p, BlockComposition):
        return {
            "family": family,
            "n": n,
            "p": list(pair.p.sizes),
            "q": list(pair.q.sizes),
            "p_stroke": pair.p.stroke,
            "q_stroke": pair.q.stroke,
            "complexity": row.complexity,
        }
    return {
        "family": family,
        "p_removed": sorted(pair.p.removed),
        "q_removed": sorted(pair.q.removed),
        "complexity": row.complexity,
    }
