"""Before-and-after record of the field arithmetic layer, written as BENCH_4.json.

Usage (from the repository root):
    PYTHONPATH=src python3 tools/bench_field.py --out BENCH_4.json --parent-src DIR \
        [--e2e-parent DIR --e2e-change DIR]

DIR is the src/ directory of a checkout of the commit before the log/antilog
tables. Every figure comes from a fresh interpreter that imports one side's
package, so first-use costs (table builds) are paid inside the measurement.
At r in FIELD_R, with the default modulus: the set-up time of `make_field`
plus the first `mul` and `inv`, and the `_raw_mul` calls it makes (trace
mask and tables); ns per `mul` and per `inv` on a seeded operand stream
after set-up (median of the repeats); `_raw_mul` calls per operation. The
Kloosterman rows time `make_field` plus the all-a K_2 sweep at r = 8, and
`make_field` plus one K_1 point at r = 16. The `bench/run.py --trace 0`
directories add the end-to-end medians through `bench_prefix.e2e_summary`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELD_R = (2, 8, 10, 12, 16)
MUL_OPS = 20_000
INV_OPS = 2_000
REPEATS = 5  # timed loops per process
PROCESSES = 3  # fresh interpreters per figure; the record keeps their median
K1_POINT = (16, 0x3)


def _median_ns(loop, n: int) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        loop()
        samples.append((time.perf_counter_ns() - start) / n)
    return statistics.median(samples)


def _count_raw_mul(ff):
    """Route every `_raw_mul` call through a counter; returns the counter."""
    calls = [0]
    raw = ff._raw_mul

    def counted(*args):
        calls[0] += 1
        return raw(*args)

    ff._raw_mul = counted
    return calls


def _operands(r: int) -> tuple[list[tuple[int, int]], list[int]]:
    rng = random.Random(f"field:{r}")
    pairs = [(rng.randrange(1, 1 << r), rng.randrange(1, 1 << r)) for _ in range(MUL_OPS)]
    return pairs, [rng.randrange(1, 1 << r) for _ in range(INV_OPS)]


def child_field(r: int) -> dict:
    from cosetmoments import finite_field as ff

    mul, inv = ff.mul, ff.inv
    pairs, units = _operands(r)
    start = time.perf_counter()
    ctx = ff.make_field(r)
    mul(ctx, *pairs[0])
    inv(ctx, units[0])
    setup_s = time.perf_counter() - start

    def mul_loop():
        for x, y in pairs:
            mul(ctx, x, y)

    def inv_loop():
        for x in units:
            inv(ctx, x)

    out = {
        "modulus": hex(ctx.modulus),
        "setup_s": setup_s,
        "mul_ns": _median_ns(mul_loop, len(pairs)),
        "inv_ns": _median_ns(inv_loop, len(units)),
    }
    calls = _count_raw_mul(ff)
    mul_loop()
    out["raw_mul_per_mul"] = calls[0] / len(pairs)
    calls[0] = 0
    inv_loop()
    out["raw_mul_per_inv"] = calls[0] / len(units)
    return out


def child_build(r: int) -> dict:
    from cosetmoments import finite_field as ff

    calls = _count_raw_mul(ff)
    ctx = ff.make_field(r)
    ff.mul(ctx, 1, 1)
    ff.inv(ctx, 1)
    return {"setup_raw_mul_calls": calls[0]}


def child_k2(r: int) -> dict:
    from cosetmoments.finite_field import make_field
    from cosetmoments.kloosterman import kloosterman_sum

    start = time.perf_counter()
    ctx = make_field(r)
    total = sum(kloosterman_sum(ctx, 2, a) for a in range(1, ctx.q))
    return {"s": time.perf_counter() - start, "value": total, "terms": (ctx.q - 1) ** 3}


def child_k1(r: int) -> dict:
    from cosetmoments.finite_field import make_field
    from cosetmoments.kloosterman import kloosterman_sum

    start = time.perf_counter()
    ctx = make_field(r)
    value = kloosterman_sum(ctx, 1, K1_POINT[1])
    return {"s": time.perf_counter() - start, "value": value, "terms": ctx.q - 1}


CHILDREN = {"field": child_field, "build": child_build, "k2": child_k2, "k1": child_k1}


def run_child(src: Path, mode: str, r: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, __file__, "--child", mode, "--r", str(r)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def median_of_processes(src: Path, mode: str, r: int) -> dict:
    runs = [run_child(src, mode, r) for _ in range(PROCESSES)]
    merged = {}
    for key, value in runs[0].items():
        if isinstance(value, float):
            merged[key] = statistics.median(run[key] for run in runs)
        else:
            if any(run[key] != value for run in runs):
                raise AssertionError(f"{mode} at r = {r}: {key} differs between runs")
            merged[key] = str(value) if isinstance(value, int) else value
    return merged


def side_record(src: Path) -> dict:
    field = {}
    for r in FIELD_R:
        row = median_of_processes(src, "field", r)
        row.update({k: str(v) for k, v in run_child(src, "build", r).items()})
        field[str(r)] = row
        print(json.dumps({"src": str(src), "r": r, **row}), file=sys.stderr, flush=True)
    return {
        "field": field,
        "k2_all_a_r8": median_of_processes(src, "k2", 8),
        "k1_point_r16": median_of_processes(src, "k1", K1_POINT[0]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--parent-src", type=Path)
    parser.add_argument("--e2e-parent", type=Path)
    parser.add_argument("--e2e-change", type=Path)
    parser.add_argument("--child", choices=sorted(CHILDREN))
    parser.add_argument("--r", type=int)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(CHILDREN[args.child](args.r)))
        return
    if not (args.out and args.parent_src):
        parser.error("--out and --parent-src are required")
    # imported here so that a child process loads only its own side's package
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_prefix import cpu_model, e2e_summary

    before = side_record(args.parent_src.resolve())
    after = side_record(ROOT / "src")
    for key in ("k2_all_a_r8", "k1_point_r16"):
        if before[key]["value"] != after[key]["value"]:
            raise AssertionError(f"{key}: the two sides disagree")
    doc = {
        "host": {
            "cpu": cpu_model(),
            "cores": str(os.cpu_count()),
            "python": sys.version.split()[0],
        },
        "field_layer": {
            "ops": {"mul": str(MUL_OPS), "inv": str(INV_OPS)},
            "repeats_per_process": str(REPEATS),
            "processes": str(PROCESSES),
            "before": before["field"],
            "after": after["field"],
            "work_units": "_raw_mul calls (bit-serial carry-less products)",
        },
        "kloosterman_layer": {
            "k2_all_a_r8": {"before": before["k2_all_a_r8"], "after": after["k2_all_a_r8"]},
            "k1_point_r16": {
                "a": hex(K1_POINT[1]),
                "before": before["k1_point_r16"],
                "after": after["k1_point_r16"],
            },
        },
    }
    if args.e2e_parent and args.e2e_change:
        doc["end_to_end"] = e2e_summary(args.e2e_parent, args.e2e_change)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
