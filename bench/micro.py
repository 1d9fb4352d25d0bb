"""finite_field micro-measurement, run in a fresh process.

Usage: python3 bench/micro.py SEED

Prints one JSON object: ns per `mul` and per `inv` on a seeded operand
stream at r = 8 (product-table path) and r = 11 (bit-serial path), the time
of the first product-table build at r = 8, and the operation counts behind
each figure (per repeat; each time is the median of the repeats), so that
numbers compare across machines.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import workloads
from cosetmoments import finite_field as ff

MUL_OPS = 20_000
INV_OPS = 2_000
REPEATS = 5


# one loop per operation, so the timed loop does no argument packing
def _mul_ns(ctx, pairs) -> float:
    mul = ff.mul
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for x, y in pairs:
            mul(ctx, x, y)
        samples.append((time.perf_counter_ns() - start) / len(pairs))
    return statistics.median(samples)


def _inv_ns(ctx, units) -> float:
    inv = ff.inv
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for x in units:
            inv(ctx, x)
        samples.append((time.perf_counter_ns() - start) / len(units))
    return statistics.median(samples)


def measure(seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    out: dict[str, float] = {}
    ctx8 = ff.make_field(8, workloads.random_irreducible(rng, 8))
    start = time.perf_counter()
    ff.mul_table(ctx8)
    out["finite_field.table_build_s"] = time.perf_counter() - start
    for r, path in ((8, "table"), (11, "raw")):
        ctx = ctx8 if r == 8 else ff.make_field(r, workloads.random_irreducible(rng, r))
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(MUL_OPS)]
        units = [rng.randrange(1, ctx.q) for _ in range(INV_OPS)]
        out[f"finite_field.mul_ns_{path}"] = _mul_ns(ctx, pairs)
        out[f"finite_field.inv_ns_{path}"] = _inv_ns(ctx, units)
    out["finite_field.mul_ops"] = MUL_OPS
    out["finite_field.inv_ops"] = INV_OPS
    out["finite_field.repeats"] = REPEATS
    return out


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))
