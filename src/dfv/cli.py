"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification diff,
3 internal invariant violation or computation failure, 4 a tensor or
character computation went over its rank, dimension or point cap, or
the matrix oracle over its matrix-size cap.

Parabolics are written as block compositions for the classical
families (``--p 2,2`` or ``--p 2,2,2,2'`` with a stroke) and as the
removed simple roots for the exceptional ones (``--p a1,a5``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .blockmodel import check_matrix_cap, generic_orbit_complexity
from .classifier import (
    DEFAULT_RANGES,
    EXCEPTIONAL_FAMILIES,
    classify,
    enumerate_pairs,
    row_record,
    verify_tables,
)
from .complexity import complexity, pair_complexity
from .oracle import dimension_check, tensor_oracle
from .parabolic import (
    ParabolicError,
    classical_system_id,
    parse_composition,
    parse_removed_roots,
)
from .rootsys import RootSystemError, system_id
from .sections import (
    SectionsError,
    decompose_example1,
    decompose_example2,
    decompose_example2_engine,
    eps_to_fundamental,
    example1_closed_form,
    example1_lattice,
    example2_lattice,
)
from .weights import CapExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIFF = 2
EXIT_INTERNAL = 3
EXIT_CAP = 4

ALL_FAMILIES = ("SL", "SO", "Sp") + EXCEPTIONAL_FAMILIES


class UsageError(ValueError):
    pass


@dataclass
class Emitter:
    fmt: str

    def records(self, records: list[dict]) -> None:
        if self.fmt == "json":
            for rec in records:
                print(json.dumps(rec, sort_keys=True))
        elif self.fmt == "tsv":
            if not records:
                return
            keys = list(records[0].keys())
            print("\t".join(keys))
            for rec in records:
                print("\t".join(_tsv_cell(rec.get(k)) for k in keys))
        else:
            for rec in records:
                print("  ".join(f"{k}={_tsv_cell(v)}" for k, v in rec.items()))


def _tsv_cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def _parse_spec(family: str, n: int | None, text: str):
    """A parabolic of the group that ``_group(family, n)`` accepted."""
    if family in EXCEPTIONAL_FAMILIES:
        return parse_removed_roots(system_id(family), text)
    return parse_composition(family, n, text)


def _group(family: str, n: int | None):
    if family in EXCEPTIONAL_FAMILIES:
        if n is not None:
            raise UsageError(f"--n does not apply to the exceptional family {family}")
        return system_id(family)
    if n is None:
        raise UsageError(f"--n is required for family {family}")
    return classical_system_id(family, n)


def _size_range(text: str) -> list[int]:
    """argparse type: a size such as 8 or an inclusive range such as 4..10."""
    lo, sep, hi = text.partition("..")
    try:
        sizes = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a size or a range lo..hi, got {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return sizes


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers such as 1,0,2."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def cmd_complexity(args) -> int:
    group = _group(args.family, args.n)
    p = _parse_spec(args.family, args.n, args.p)
    q = _parse_spec(args.family, args.n, args.q)
    print(complexity(group, p, q))
    return EXIT_OK


def cmd_classify(args) -> int:
    _group(args.family, args.n)  # usage error if a classical family has no --n
    rows = classify(args.family, args.n, cmax=args.cmax)
    rows.sort(key=lambda r: (r.complexity, r.pair.sort_key()))
    Emitter(args.format).records([row_record(args.family, args.n, r) for r in rows])
    return EXIT_OK


def cmd_verify_tables(args) -> int:
    if args.n is not None and args.family in (None,) + EXCEPTIONAL_FAMILIES:
        raise UsageError("--n sizes a classical family; give it with --family SL, SO or Sp")
    families = [args.family] if args.family else list(ALL_FAMILIES)
    tasks = []
    for family in families:
        if family in EXCEPTIONAL_FAMILIES:
            tasks.append((family, None))
        elif args.n:
            tasks.extend((family, n) for n in args.n)
        else:
            lo, hi = DEFAULT_RANGES[family]
            tasks.extend(
                (family, n)
                for n in range(lo, hi + 1)
                if family == "SL" or _valid_size(family, n)
            )
    reports = _starmap(verify_tables, tasks, args.jobs)
    if args.format == "pretty":
        for rep in reports:
            for line in rep.lines():
                print(line)
    else:
        Emitter(args.format).records([rec for rep in reports for rec in rep.records()])
    return EXIT_OK if all(rep.empty for rep in reports) else EXIT_DIFF


def _starmap(fn, tasks, jobs: int) -> list:
    """``fn(*task)`` for every task, over min(jobs, #tasks, #CPUs) worker processes."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(processes=workers) as pool:
            return pool.starmap(fn, tasks)
    return [fn(*task) for task in tasks]


def _valid_size(family: str, n: int) -> bool:
    try:
        classical_system_id(family, n)
        return True
    except ParabolicError:
        return False


def cmd_decompose(args) -> int:
    if args.dataset == "example1":
        params = (args.l, args.p, args.q)
        lattice, engine, closed_form = example1_lattice, decompose_example1, example1_closed_form
    else:
        if len(args.m) != 3:
            raise UsageError("--m needs three values m1,m2,m3")
        params = (args.q1, args.q2, args.q3, *args.m)
        lattice, engine, closed_form = example2_lattice, decompose_example2_engine, decompose_example2
    # the lattice checks the parameter ranges; a SectionsError after it is a fault
    try:
        group = lattice(*params).group
    except SectionsError as exc:
        raise UsageError(str(exc)) from None
    terms = engine(*params)
    closed = closed_form(*params)
    ek = sorted((t.highest_weight, t.multiplicity) for t in terms)
    ck = sorted((t.highest_weight, t.multiplicity) for t in closed)
    if ek != ck:
        print("internal error: engine and closed form disagree", file=sys.stderr)
        return EXIT_INTERNAL
    records = [
        {"weight": list(eps_to_fundamental(group, w)), "multiplicity": m}
        for w, m in ek
    ]
    Emitter(args.format).records(records)
    return EXIT_OK


def cmd_oracle(args) -> int:
    group = _group(args.family, args.n)
    lam, mu = args.lam, args.mu
    for flag, w in (("--lam", lam), ("--mu", mu)):
        if len(w) != group.rank:
            raise UsageError(f"{flag} needs {group.rank} coordinates for {group}, got {len(w)}")
        if min(w) < 0:
            raise UsageError(f"{flag} must be dominant (no negative coordinate)")
    if args.method == "lr" and group.family != "A":
        raise UsageError("--method lr applies to the SL family only")
    terms = tensor_oracle(group, lam, mu, method=args.method)
    if not dimension_check(group, lam, mu, terms):
        print("internal error: dimension conservation failed", file=sys.stderr)
        return EXIT_INTERNAL
    Emitter(args.format).records(
        [{"weight": list(t.highest_weight), "multiplicity": t.multiplicity} for t in terms]
    )
    return EXIT_OK


def _oracle_check_one(pair, seed0: int, seeds: int) -> tuple[int, list[str]]:
    ce = pair_complexity(pair)
    bad = []
    for seed in range(seed0, seed0 + seeds):
        co = generic_orbit_complexity(pair.p, pair.q, seed=seed, samples=3)
        if co != ce:
            bad.append(f"({pair.p} | {pair.q}) engine={ce} oracle={co} seed={seed}")
    return len(bad), bad


def cmd_oracle_check(args) -> int:
    family, n = args.family, args.n
    if family in EXCEPTIONAL_FAMILIES:
        raise UsageError("oracle-check applies to the classical families")
    _group(family, n)
    check_matrix_cap(n)  # before enumerating the pairs, whose count grows like 4^n
    pairs = enumerate_pairs(family, n)
    tasks = [(pair, args.seed, args.seeds) for pair in pairs]
    results = _starmap(_oracle_check_one, tasks, args.jobs)
    mismatches = 0
    for count, lines in results:
        mismatches += count
        for line in lines:
            print(f"disagreement: {family}_{n} {line}", file=sys.stderr)
    print(f"{family}_{n}: {len(pairs)} orbits x {args.seeds} seeds, {mismatches} disagreements")
    return EXIT_INTERNAL if mismatches else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dfv",
        description="Complexity of double flag varieties and tensor decompositions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {
        "--format": dict(default="pretty", choices=("json", "tsv", "pretty")),
        "--seed": dict(type=int, default=0),
        "--jobs": dict(type=_positive_int, default=1, help="worker processes for sweeps"),
    }

    def add_flags(p, *names):
        """The group flags plus the named shared flags the subcommand reads."""
        p.add_argument("--family", required=True, choices=ALL_FAMILIES)
        p.add_argument("--n", type=int, default=None, help="matrix size (classical families)")
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("complexity", help="complexity of one pair of parabolics")
    add_flags(p)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("classify", help="all pairs of complexity <= cmax")
    add_flags(p, "--format")
    p.add_argument("--cmax", type=_non_negative_int, default=1)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-tables", help="diff the classification against the bundled tables")
    p.add_argument("--family", default=None, choices=ALL_FAMILIES)
    p.add_argument("--n", type=_size_range, default=None, help="size or range, e.g. 8 or 4..10")
    p.add_argument("--format", **flags["--format"])
    p.add_argument("--jobs", **flags["--jobs"])
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("decompose", help="tensor decompositions from bundled divisor data")
    dsub = p.add_subparsers(dest="dataset", required=True)
    p1 = dsub.add_parser("example1", help="Sp pair (1, 2l-2, 1) x (l, l)")
    p1.add_argument("--l", type=int, required=True)
    p1.add_argument("--p", type=int, required=True)
    p1.add_argument("--q", type=int, required=True)
    p1.add_argument("--format", **flags["--format"])
    p1.set_defaults(func=cmd_decompose, dataset="example1")
    p2 = dsub.add_parser("example2", help="SL pair (3, n-3) x (q1, q2, q3)")
    p2.add_argument("--q1", type=int, required=True)
    p2.add_argument("--q2", type=int, required=True)
    p2.add_argument("--q3", type=int, required=True)
    p2.add_argument("--m", type=_int_list, required=True, help="m1,m2,m3")
    p2.add_argument("--format", **flags["--format"])
    p2.set_defaults(func=cmd_decompose, dataset="example2")

    p = sub.add_parser("oracle", help="tensor product of two irreducibles")
    add_flags(p, "--format")
    p.add_argument("--lam", type=_int_list, required=True, help="fundamental coordinates, e.g. 1,0")
    p.add_argument("--mu", type=_int_list, required=True)
    p.add_argument("--method", default="peel", choices=("peel", "reflection", "lr"))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("oracle-check", help="stripping engine vs matrix oracle agreement")
    add_flags(p, "--seed", "--jobs")
    p.add_argument("--seeds", type=_positive_int, default=3)
    p.set_defaults(func=cmd_oracle_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ParabolicError, RootSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # computation failure: distinct exit code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
