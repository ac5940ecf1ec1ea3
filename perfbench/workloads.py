"""Inputs, items and output checks of the four benchmark workloads.

Every call into dfv goes through the module or class attribute that a
caller looks up at call time (``classifier.verify_tables(...)``), so the
tracer in ``spans.py`` can wrap it.  An item is one check: it calls the
library, compares the output with an independent reference and returns
``(output, problem)``, where ``problem`` is None when the check passed.
``corrupt`` replaces each reference by a deliberately wrong one, which
the smoke test uses to show that the checks catch errors.
"""

from __future__ import annotations

import random
from importlib import import_module
from itertools import product

# dfv/__init__.py re-exports functions named like their modules
# (dfv.complexity is the function), so modules come from import_module.
blockmodel = import_module("dfv.blockmodel")
classifier = import_module("dfv.classifier")
complexity = import_module("dfv.complexity")
oracle = import_module("dfv.oracle")
parabolic = import_module("dfv.parabolic")
rootsys = import_module("dfv.rootsys")
sections = import_module("dfv.sections")
weights = import_module("dfv.weights")

EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")


def group_id(family: str, n: int | None):
    if n is None:
        return rootsys.system_id(family)
    return parabolic.classical_system_id(family, n)


def _mismatch(got, want, what: str):
    if got == want:
        return None
    return f"{what}: got {_short(got)}, reference {_short(want)}"


def _short(obj, limit: int = 160) -> str:
    text = repr(obj)
    return text if len(text) <= limit else text[:limit] + "..."


def _terms(dec) -> list:
    return sorted((t.highest_weight, t.multiplicity) for t in dec)


def _wrong(ref: list) -> list:
    """A reference that differs from ``ref`` in one multiplicity."""
    if not ref:
        return [((-1,), 1)]
    (w, m), *rest = ref
    return [(w, m + 1)] + rest


def _dimension_problem(group, lam, mu, dec: dict):
    terms = [oracle.DecompositionTerm(w, m) for w, m in dec.items()]
    if oracle.dimension_check(group, lam, mu, terms):
        return None
    return "dimension_check failed"


class Workload:
    """The inputs of one workload at one size ("full" or "tiny").

    Only orbit_oracle draws inputs from the seed (and the pass index).  The other workloads
    are the fixed datasets, always in the same order: with a memo cache
    that grows through the pass, the order moves peak memory and the
    garbage collector's share, which would make runs differ by seed
    rather than by code.
    """

    name = ""
    uses_weights = False

    def __init__(self, size: str, corrupt: bool = False) -> None:
        self.size = size
        self.corrupt = corrupt

    def groups(self) -> list:
        """(family, n) of every group the workload touches."""
        raise NotImplementedError

    def set_up(self) -> None:
        """What a fresh process needs before the workload can run."""
        for family, n in self.groups():
            rsid = group_id(family, n)
            rootsys.build_root_system(rsid).indexed()
            if self.uses_weights:
                weights.weight_lattice(rsid)
        self.prepare()

    def prepare(self) -> None:
        """Workload-specific set-up beyond root systems and weight lattices."""

    def inputs(self, seed: int, pass_index: int) -> None:
        """Generate the inputs of one pass, outside every timed region."""
        raise NotImplementedError

    def items(self) -> list:
        """(label, check) pairs; runs inside the timed pass."""
        raise NotImplementedError

    def item_count(self) -> int:
        """Denominator of items_per_s, counted from the inputs."""
        return len(self.order)


# -- tables -------------------------------------------------------------------

class Tables(Workload):
    name = "tables"

    def _table_groups(self):
        if self.size == "tiny":
            return [("SL", 4), ("SL", 5), ("SL", 6), ("Sp", 4), ("SO", 7),
                    ("F4", None), ("G2", None)]
        return (
            [("SL", n) for n in range(4, 11)]
            + [("Sp", n) for n in range(4, 13, 2)]
            + [("SO", n) for n in range(7, 14)]
            + [(f, None) for f in EXCEPTIONAL]
        )

    def _survey_families(self):
        return ("E6",) if self.size == "tiny" else ("E6", "E7", "E8")

    def groups(self):
        return self._table_groups() + [(f, None) for f in self._survey_families()]

    def prepare(self):
        # loads both bundled JSON files: the exceptional one through the
        # survey rows, the classical one through the smallest table
        self.survey = {f: classifier.survey_rows(f) for f in self._survey_families()}
        classifier.expected_table(*next(g for g in self._table_groups() if g[1]))

    def inputs(self, seed, pass_index):
        self.order = [("table", g) for g in self._table_groups()]
        self.order += [("survey", (f, None)) for f in self._survey_families()]
        if self.corrupt:
            self._corrupt_tables()

    def _corrupt_tables(self):
        real = classifier.expected_table

        def wrong_table(family, n=None):
            expected, labels = real(family, n)
            for pair in list(expected)[:1]:
                expected[pair] = 1 - expected[pair]
            return expected, labels

        classifier.expected_table = wrong_table

    def item_count(self):
        return sum(len(classifier.enumerate_pairs(f, n)) for f, n in self._table_groups())

    def items(self):
        out = []
        for kind, (family, n) in self.order:
            label = family if n is None else f"{family}_{n}"
            if kind == "table":
                out.append((f"verify_tables {label}", self._table_check(family, n)))
            else:
                out.append((f"survey {label}", self._survey_check(family)))
        return out

    def _table_check(self, family, n):
        def check():
            rep = classifier.verify_tables(family, n)
            lines = rep.lines()
            return lines, None if rep.empty else "; ".join(lines[:3])
        return check

    def _survey_check(self, family):
        rows = self.survey[family]

        def check():
            got = [complexity.pair_complexity(pair) for pair, _ in rows]
            want = [c + self.corrupt for _, c in rows]
            return got, _mismatch(got, want, "survey complexities")
        return check


# -- orbit_oracle ------------------------------------------------------------

def _classical_groups_up_to(n_max: int):
    out = [("SL", n) for n in range(2, n_max + 1)]
    out += [("Sp", n) for n in range(4, n_max + 1, 2)]
    out += [("SO", n) for n in range(5, n_max + 1) if n >= 6 or n % 2]
    return out


class OrbitOracle(Workload):
    name = "orbit_oracle"
    SAMPLES = 3

    def _sizes(self):
        # (largest n swept exhaustively, n of the random draws, draws per family)
        return (5, 6, 5) if self.size == "tiny" else (8, 12, 100)

    def groups(self):
        n_all, n_draw, _ = self._sizes()
        return _classical_groups_up_to(n_all) + [(f, n_draw) for f in ("SL", "Sp", "SO")]

    def inputs(self, seed, pass_index):
        n_all, n_draw, draws = self._sizes()
        # each pass of a run draws anew, so a run's tail covers more draws
        rng = random.Random(seed * 1000 + pass_index)
        self.sweep = [(f, n, rng.randrange(2**31)) for f, n in _classical_groups_up_to(n_all)]
        self.draws = [
            (f, n_draw, _random_composition(rng, f, n_draw),
             _random_composition(rng, f, n_draw), rng.randrange(2**31))
            for f in ("SL", "Sp", "SO")
            for _ in range(draws)
        ]

    def items(self):
        out = []
        for family, n, seed in self.sweep:
            rsid = group_id(family, n)
            rng = random.Random(seed)
            for pair in classifier.enumerate_pairs(family, n):
                out.append((f"{family}_{n} ({pair.p} | {pair.q})",
                            self._check(rsid, pair.p, pair.q, rng.randrange(2**31))))
        for family, n, p, q, seed in self.draws:
            out.append((f"{family}_{n} draw ({p} | {q})", self._check(group_id(family, n), p, q, seed)))
        self.n_items = len(out)
        return out

    def item_count(self):
        return self.n_items

    def _check(self, rsid, p, q, seed):
        def check():
            engine = complexity.complexity(rsid, p, q)
            orbit = blockmodel.generic_orbit_complexity(p, q, seed=seed, samples=self.SAMPLES)
            return (engine, orbit), _mismatch(orbit, engine + self.corrupt, f"oracle (seed {seed}) vs engine")
        return check


def _random_composition(rng: random.Random, family: str, n: int):
    """A block parabolic of the group drawn uniformly over boundary sets.

    SO_n/Sp_n compositions are symmetric; for SO with even n a
    composition without a central block is stroked with probability 1/2.
    """
    if family == "SL":
        cuts = {s for s in range(1, n) if rng.random() < 0.5}
    else:
        half = {s for s in range(1, (n + 1) // 2) if rng.random() < 0.5}
        cuts = half | {n - s for s in half}
        if n % 2 == 0 and rng.random() < 0.5:
            cuts.add(n // 2)
    sizes, prev = [], 0
    for b in sorted(cuts) + [n]:
        sizes.append(b - prev)
        prev = b
    comp = parabolic.BlockComposition(family, n, tuple(sizes))
    if family == "SO" and n % 2 == 0 and not comp.has_central_block() and rng.random() < 0.5:
        comp = comp.automorphism_image()
    return comp


# -- sections and characters: the two bundled datasets -------------------------

SL_Q = (3, 3, 3)


def _sl_weights(m):
    """Fundamental weights of V_{m1 w3} and V_{m2 w3 + m3 w6} for SL_9."""
    lam = tuple(m[0] if i == 2 else 0 for i in range(8))
    mu = tuple(m[1] if i == 2 else m[2] if i == 5 else 0 for i in range(8))
    return lam, mu


def _sp_weights(l, p, q):
    return tuple([p] + [0] * (l - 1)), tuple([0] * (l - 1) + [q])


class Sections(Workload):
    name = "sections"

    def _sizes(self):
        # (largest m_i, largest m_i checked against LR, l values, largest p, q)
        return (1, 1, (2,), 1) if self.size == "tiny" else (4, 3, (2, 3, 4), 3)

    def groups(self):
        _, _, ls, _ = self._sizes()
        return [("SL", sum(SL_Q))] + [("Sp", 2 * l) for l in ls]

    def inputs(self, seed, pass_index):
        m_max, _, ls, pq = self._sizes()
        self.order = [("SL", m) for m in product(range(m_max + 1), repeat=3)]
        self.order += [("Sp", (l, p, q)) for l in ls for p in range(pq + 1) for q in range(pq + 1)]

    def items(self):
        return [
            (f"{kind} {args}", self._sl_check(args) if kind == "SL" else self._sp_check(*args))
            for kind, args in self.order
        ]

    def _sl_check(self, m):
        lr_max = self._sizes()[1]
        group = group_id("SL", sum(SL_Q))

        def check():
            got = _terms(sections.decompose_example2_engine(*SL_Q, *m))
            ref = _terms(sections.decompose_example2(*SL_Q, *m))
            problem = _mismatch(got, _wrong(ref) if self.corrupt else ref, "engine vs closed form")
            if problem is None and max(m) <= lr_max:
                fund = sorted((sections.eps_to_fundamental(group, w), k) for w, k in got)
                lr = sorted(oracle.lr_tensor(sum(SL_Q), *_sl_weights(m)).items())
                problem = _mismatch(fund, lr, "engine vs LR")
            return got, problem
        return check

    def _sp_check(self, l, p, q):
        def check():
            got = _terms(sections.decompose_example1(l, p, q))
            ref = _terms(sections.example1_closed_form(l, p, q))
            return got, _mismatch(got, _wrong(ref) if self.corrupt else ref, "engine vs closed form")
        return check


class Characters(Workload):
    name = "characters"
    uses_weights = True

    def _sizes(self):
        # (l values and largest p, q for the Sp peel; SL reflection inputs;
        # SL peel inputs; cap probes)
        small = [m for m in product(range(2), repeat=3) if sum(m) <= 1]
        if self.size == "tiny":
            return (2,), 1, small, [(0, 0, 0)], [(0, 1, 2)]
        return (2, 3, 4), 3, list(product(range(3), repeat=3)), small, [(1, 1, 1), (0, 1, 2), (0, 2, 1)]

    def groups(self):
        ls = self._sizes()[0]
        return [("SL", sum(SL_Q))] + [("Sp", 2 * l) for l in ls]

    def inputs(self, seed, pass_index):
        ls, pq, refl_ms, peel_ms, probes = self._sizes()
        self.order = [("peel_sp", (l, p, q)) for l in ls for p in range(pq + 1) for q in range(pq + 1)]
        self.order += [("reflection_sl", m) for m in refl_ms]
        self.order += [("peel_sl", m) for m in peel_ms]
        self.order += [("cap_probe", m) for m in probes]

    def items(self):
        return [(f"{kind} {args}", getattr(self, "_" + kind)(args)) for kind, args in self.order]

    def _peel_sp(self, args):
        l, p, q = args
        group = group_id("Sp", 2 * l)
        lam, mu = _sp_weights(l, p, q)

        def check():
            dec = oracle.tensor_product(group, lam, mu, dim_cap=None)
            got = sorted(dec.items())
            ref = sorted(
                (sections.eps_to_fundamental(group, t.highest_weight), t.multiplicity)
                for t in sections.example1_closed_form(l, p, q)
            )
            problem = _mismatch(got, _wrong(ref) if self.corrupt else ref, "peel vs closed form")
            return got, problem or _dimension_problem(group, lam, mu, dec)
        return check

    def _sl_check(self, m, method: str):
        group = group_id("SL", sum(SL_Q))
        lam, mu = _sl_weights(m)

        def check():
            dec = getattr(oracle, method)(group, lam, mu)
            got = sorted(dec.items())
            ref = sorted(oracle.lr_tensor(sum(SL_Q), lam, mu).items())
            problem = _mismatch(got, _wrong(ref) if self.corrupt else ref, f"{method} vs LR")
            return got, problem or _dimension_problem(group, lam, mu, dec)
        return check

    def _reflection_sl(self, m):
        return self._sl_check(m, "tensor_product_reflection")

    def _peel_sl(self, m):
        return self._sl_check(m, "tensor_product")

    def _cap_probe(self, m):
        group = group_id("SL", sum(SL_Q))
        lam, mu = _sl_weights(m)

        def check():
            try:
                dec = oracle.tensor_product(group, lam, mu)
            except weights.CapExceeded as exc:
                return f"CapExceeded: {exc}", "reference expects a result" if self.corrupt else None
            return sorted(dec.items()), None if self.corrupt else "expected CapExceeded"
        return check


WORKLOADS = {w.name: w for w in (Tables, OrbitOracle, Sections, Characters)}
