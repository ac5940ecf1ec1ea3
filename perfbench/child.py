"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per timed pass and once per extra set-up
sample, so every pass starts with empty dfv memo caches, as a fresh
``dfv`` process does.  The last line of stdout is one JSON object.

    python3 perfbench/child.py --workload sections --seed 1 --mode pass

Modes: ``setup`` only sets up; ``pass`` also runs the workload untraced;
``trace`` runs it with spans around every layer's public functions and
writes them to ``--spans``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before dfv is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from importlib import import_module  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Memo caches that must be empty when the timed pass starts.
MEMOS = (
    ("dfv.complexity", "_complexity_from_subsets"),
    ("dfv.complexity", "_levi_root_count"),
    ("dfv.classifier", "_maximal_table"),
)
MAX_PROBLEMS = 5


def load_dfv() -> None:
    """Import dfv from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import dfv

    if Path(dfv.__file__).resolve().parent != SRC / "dfv":
        raise SystemExit(f"dfv was imported from {dfv.__file__}, not from {SRC}")


def assert_cold() -> None:
    for module, name in MEMOS:
        memo = getattr(import_module(module), name, None)
        if memo is not None and memo.cache_info().currsize:
            raise SystemExit(f"{module}.{name} is not empty when timing starts")


def run_items(items, tracer) -> dict:
    latencies, digests, problems = [], [], []
    clock = time.perf_counter
    for i, (label, check) in enumerate(items):
        if tracer is not None:
            tracer.item_id = i
        t = clock()
        try:
            out, problem = check()
        except Exception as exc:  # an unexpected exception fails the item
            out, problem = f"raised {type(exc).__name__}", f"unexpected {type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        digests.append(hashlib.sha1(repr(out).encode()).hexdigest()[:16])
        if problem is not None:
            problems.append(f"{label}: {problem}")
    return {"latencies": latencies, "digests": digests, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--mode", default="pass", choices=("setup", "pass", "trace"))
    ap.add_argument("--pass-index", type=int, default=0, help="which of the run's passes this is")
    ap.add_argument("--count", action="store_true", help="also count items_per_s's denominator")
    ap.add_argument("--corrupt-reference", action="store_true")
    ap.add_argument("--spans", default=None, help="gzip TSV file for the spans (trace mode)")
    args = ap.parse_args(argv)

    load_dfv()
    import spans
    from workloads import WORKLOADS, complexity

    wl = WORKLOADS[args.workload](args.size, args.corrupt_reference)
    tracer = spans.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install(spans.SETUP_HOOKS)
    wl.set_up()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    setup_end = 0
    if tracer is not None:
        tracer.uninstall()
        setup_end = tracer.span_count()
    wl.inputs(args.seed, args.pass_index)
    assert_cold()
    if tracer is not None:
        tracer.install(spans.PASS_HOOKS)
    t0 = time.perf_counter()
    outcome = run_items(wl.items(), tracer)
    wall = time.perf_counter() - t0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    result["wall_s"] = wall
    result.update(outcome)
    result["failed"] = len(outcome["problems"])
    result["problems"] = outcome["problems"][:MAX_PROBLEMS]
    memo = getattr(complexity, "_complexity_from_subsets", None)
    if memo is not None:
        info = memo.cache_info()
        result["cache"] = {"hits": info.hits, "misses": info.misses}
    if args.count:
        result["item_count"] = wl.item_count()
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, setup_end, wall)
        result["span_count"] = tracer.span_count()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
