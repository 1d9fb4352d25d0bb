"""Before-and-after record of the weight-prefix layer, written as BENCH_2.json.

Usage (from the repository root):
    PYTHONPATH=src python3 tools/bench_prefix.py --out BENCH_2.json \
        [--e2e-parent DIR --e2e-change DIR]

The grid times, on the same class counts, the XOR-state DP that computed
C_0..C_j before the MacWilliams engine replaced it (kept in
tests/test_coset_codes.py as the differential oracle) and the engine
`prefix_counts_from_distribution`. Work counts are DP coefficient updates
before and distinct dual weights x j_max (Krawtchouk recurrence steps)
after, next to the q log2 q additions of the Walsh-Hadamard transform.
Engine-only rows cover fields the DP cannot reach. With the two directories
of `bench/run.py --trace 0` records (parent and changed commit), the
medians, quartiles and per-seed wins of its end-to-end metrics are added
per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_coset_codes import _binomial_prefix, dp_prefix  # noqa: E402

from cosetmoments.coset_codes import _walsh_hadamard, prefix_counts_from_distribution  # noqa: E402
from cosetmoments.finite_field import make_field  # noqa: E402
from cosetmoments.ominus_groups import DoubleCosetSpec, trace_distribution  # noqa: E402

SHAPES = ((1, "+", 2), (1, "-", 1), (3, "-", 3), (3, "+", 2), (2, "+", 2))
GRID_R = (4, 6, 8)
ENGINE_ONLY_R = (10, 12, 14, 16)
J_MAXES = (8, 16, 32)
# family-2 trace classes need K(1/beta) for every beta, an O(q^2) spectrum
FAMILY2_R_LIMIT = 10
METRICS = ("wall_s", "job_p50_s", "cpu_s", "peak_rss_mib", "success_rate", "setup_s")


def dp_updates(ctx, class_counts: dict[int, int], j_max: int) -> int:
    """Coefficient updates `target[j + nu] += ...` the DP makes."""
    states = {0: [1] + [0] * j_max}
    updates = 0
    for beta in range(ctx.q):
        binoms = _binomial_prefix(class_counts.get(beta, 0), j_max)
        new: dict[int, list[int]] = {}
        for psum, arr in states.items():
            live = [j for j, v in enumerate(arr) if v]
            for nu in range(j_max + 1):
                ways = binoms[nu]
                if not ways:
                    break
                key = psum ^ beta if nu & 1 else psum
                target = new.setdefault(key, [0] * (j_max + 1))
                for j in live:
                    if j > j_max - nu:
                        break
                    target[j + nu] += arr[j] * ways
                    updates += 1
        states = new
    return updates


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def distinct_weights(ctx, class_counts: dict[int, int]) -> int:
    return len(Counter(_walsh_hadamard([class_counts.get(b, 0) for b in range(ctx.q)])))


def timed(fn, repeats: int) -> tuple[float, object]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def shape_name(family: int, sign: str, n: int) -> str:
    return f"{family}{sign}/n{n}"


def prefix_rows(rs, with_dp: bool) -> list[dict]:
    rows = []
    for r in rs:
        ctx = make_field(r)
        for family, sign, n in SHAPES:
            row_base = {"r": str(r), "spec": shape_name(family, sign, n)}
            if family == 2 and r > FAMILY2_R_LIMIT:
                rows.append({**row_base, "skipped": "trace classes need the O(q^2) Kloosterman spectrum"})
                continue
            counts = trace_distribution(DoubleCosetSpec(family, sign, n, ctx), "closed_form")
            weights = distinct_weights(ctx, counts)
            for j_max in J_MAXES:
                after_s, after = timed(lambda: prefix_counts_from_distribution(ctx, counts, j_max), 5)
                row = {
                    **row_base,
                    "j_max": str(j_max),
                    "after_s": after_s,
                    "after_work": str(weights * j_max),
                    "distinct_weights": str(weights),
                    "walsh_hadamard_adds": str(ctx.q * r),
                }
                if with_dp:
                    before_s, before = timed(lambda: dp_prefix(ctx, counts, j_max), 1)
                    if before != after:
                        raise AssertionError(f"engine and DP disagree at {row_base}, j = {j_max}")
                    row["before_s"] = before_s
                    row["before_work"] = str(dp_updates(ctx, counts, j_max))
                rows.append(row)
                print(json.dumps(row, sort_keys=True), file=sys.stderr, flush=True)
    return rows


def e2e_summary(parent_dir: Path, change_dir: Path) -> dict:
    runs: dict[str, dict[str, list[dict]]] = {}
    for side, folder in (("parent", parent_dir), ("change", change_dir)):
        for path in sorted(folder.glob("*-trace0-*.json")):
            record = json.loads(path.read_text())
            runs.setdefault(record["workload"], {}).setdefault(side, []).append(record)
    out = {}
    for workload, sides in sorted(runs.items()):
        entry = {}
        for side, records in sides.items():
            stats = {"runs": str(len(records)), "seeds": [str(rec["seed"]) for rec in records]}
            for metric in METRICS:
                values = sorted(rec["metrics"][metric] for rec in records)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                stats[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3}
            entry[side] = stats
        parent = {rec["seed"]: rec["metrics"] for rec in sides.get("parent", [])}
        change = {rec["seed"]: rec["metrics"] for rec in sides.get("change", [])}
        seeds = sorted(parent.keys() & change.keys())
        wins = {}
        for metric in METRICS:
            sign = -1 if metric == "success_rate" else 1  # the one metric where higher is better
            better = sum(sign * (parent[s][metric] - change[s][metric]) > 0 for s in seeds)
            wins[metric] = f"{better}/{len(seeds)}"
        entry["change_better_pairs"] = wins
        out[workload] = entry
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--e2e-parent", type=Path)
    parser.add_argument("--e2e-change", type=Path)
    args = parser.parse_args()
    doc = {
        "host": {
            "cpu": cpu_model(),
            "cores": str(os.cpu_count()),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "prefix_layer": {
            "engine_repeats": "5",
            "dp_repeats": "1",
            "grid": prefix_rows(GRID_R, with_dp=True),
            "engine_only": prefix_rows(ENGINE_ONLY_R, with_dp=False),
            "work_units": {
                "before": "XOR-state DP coefficient updates",
                "after": "distinct dual weights x j_max (Krawtchouk recurrence steps)",
            },
        },
    }
    if args.e2e_parent and args.e2e_change:
        doc["end_to_end"] = e2e_summary(args.e2e_parent, args.e2e_change)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
