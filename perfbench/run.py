"""dfv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Each timed pass runs in a fresh interpreter (child.py), one at a time:
a closed loop with one process and one thread.  With ``--trace 0`` the
run takes set-up samples, then makes as many untraced passes as fit in
``--seconds`` at the seed commit's speed, and reports the medians of the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced pass, checks that both give identical per-item results, and
reports the per-layer metrics.  Every item's output is checked against
an independent reference (see README.md).  The last stdout line is one
JSON object; the full record, with the seed, nproc, Python version and
git commit, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tables", "orbit_oracle", "sections", "characters")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
SETUP_SAMPLES = 9
# Seconds one pass takes at the seed commit (2 CPUs, Python 3.11).  A run
# makes seconds // PASS_SECONDS passes (at least one), a number fixed by
# the arguments alone, so a run's inputs never depend on timing.
PASS_SECONDS = {"tables": 12.0, "orbit_oracle": 6.0, "sections": 4.5, "characters": 19.0}
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile (0.1 steps) with at least 10 samples beyond it.

    Returns (percentile, nearest-rank value); with 10 samples or fewer
    it is the maximum, reported as percentile 100.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return 100.0, ordered[-1]
    q10 = 1000 * (n - 10) // n  # percentile in tenths
    rank = -(-q10 * n // 1000)  # ceil(q10 / 1000 * n), at most n - 10
    return q10 / 10, ordered[max(rank, 1) - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.started = time.perf_counter()

    def child(self, mode: str, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size, "--mode", mode, *extra]
        if a.corrupt_reference:
            cmd.append("--corrupt-reference")
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass failed:\n{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced passes; returns (end-to-end metrics, details)."""
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    count = max(1, int(seconds // PASS_SECONDS[runner.args.workload]))
    passes = [
        runner.child("pass", "--pass-index", str(k), *(("--count",) if k == 0 else ()))
        for k in range(count)
    ]
    setups += [p["setup_s"] for p in passes]
    wall = statistics.median(p["wall_s"] for p in passes)
    tails = [tail(p["latencies"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": passes[0]["item_count"] / wall,
        "item_p50_ms": 1e3 * statistics.median(statistics.median(p["latencies"]) for p in passes),
        "item_tail_ms": 1e3 * statistics.median(v for _, v in tails),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setups,
        "items": passes[0]["item_count"],
        "item_samples_per_pass": len(passes[0]["latencies"]),
        "item_tail_percentile": tails[0][0],
        "cache": passes[0].get("cache"),
    }
    return metrics, {"details": details, "passes": passes}


def measure_traced(runner: Runner, spans_path: Path) -> tuple[dict, dict]:
    """One untraced and one traced pass, reconciled item by item."""
    plain = runner.child("pass")
    traced = runner.child("trace", "--spans", str(spans_path))
    differ = [i for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])) if a != b]
    if len(plain["digests"]) != len(traced["digests"]):
        differ.append(min(len(plain["digests"]), len(traced["digests"])))
    metrics = dict(traced["layers"])
    cache = traced.get("cache", {"hits": 0, "misses": 0})
    metrics["complexity.cache_hits"] = cache["hits"]
    metrics["complexity.cache_misses"] = cache["misses"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    details = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "span_count": traced["span_count"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "reconcile_mismatches": differ[:5],
    }
    extra_problems = [f"item {i}: traced and untraced outputs differ" for i in differ]
    return metrics, {"details": details, "passes": [plain, traced], "extra": extra_problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny inputs are for the smoke test only")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="check against deliberately wrong references (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dfv" / "__init__.py").is_file():
        print(f"error: no dfv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "" if args.size == "full" else f"-{args.size}")
    runner = Runner(args)
    try:
        runner.child("setup")  # untimed: compiles the bytecode of a fresh checkout
        if args.trace:
            metrics, info = measure_traced(runner, OUT / f"{tag}-spans.tsv.gz")
        else:
            metrics, info = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for run in info["passes"] for p in run["problems"]] + info.get("extra", [])
    attempted = sum(len(run["digests"]) for run in info["passes"])
    failed = sum(run["failed"] for run in info["passes"]) + len(info.get("extra", []))
    units = {k: per_layer_unit(k) if args.trace else END_TO_END[k] for k in metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "first_failures": problems[:5],
        **info["details"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({failed}/{attempted})")
    for p in problems[:5]:
        print(f"FAILED {p}")
    print("meta " + json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "size", "nproc", "python", "commit")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
