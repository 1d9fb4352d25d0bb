"""Before-and-after record of the Bruhat-cell layer, written as BENCH_5.json.

Usage (from the repository root):
    PYTHONPATH=src python3 tools/bench_cells.py --out BENCH_5.json --parent-src DIR \
        [--e2e-parent DIR --e2e-change DIR]

DIR is the src/ directory of a checkout of the commit before the right-coset
walk (all |Q^-|^2 two-sided products, deduplicated in a set). Every figure
comes from a fresh interpreter that imports one side's package. For each
untwisted cell Q^- sigma_r Q^-, r >= 1, at (q, n) in CELLS: the seconds of
`bruhat_cell` with Q^- already enumerated (median of the repeats, its cache
cleared before each), and its work count, the matrix products it makes
(`_packed_mul` calls at q = 2, `mat_mul` calls otherwise), next to the cell
size, |Q^-| and a digest of the sorted cell that must agree between the
sides. The check rows time every check of the `verify-all --max-r 2` plan
in plan order in one process, as `--workers 1` runs them, and keep the
TOP_CHECKS slowest before the change plus the sum over all checks. The
`bench/run.py --trace 0` directories add the end-to-end medians through
`bench_prefix.e2e_summary`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CELLS = ((1, 2), (1, 3), (2, 2))  # (field degree, n): q = 2^degree
VERIFY_MAX_R = 2
TOP_CHECKS = 6
REPEATS = 3  # timed calls per process
PROCESSES = 3  # fresh interpreters per figure; the record keeps their median


def child_cells(field_r: int, n: int) -> dict:
    from cosetmoments import ominus_groups as og
    from cosetmoments.finite_field import make_field

    ctx = make_field(field_r)
    qm = og.enumerate_q_minus(ctx, n)
    out = {}
    for r in range(1, n):
        samples = []
        for _ in range(REPEATS):
            og.bruhat_cell.cache_clear()
            start = time.perf_counter()
            cell = og.bruhat_cell(ctx, n, r)
            samples.append(time.perf_counter() - start)
        calls = [0]
        name = "_packed_mul" if ctx.q == 2 else "mat_mul"
        plain = getattr(og, name)

        def counted(*args, plain=plain):
            calls[0] += 1
            return plain(*args)

        setattr(og, name, counted)
        og.bruhat_cell.cache_clear()
        og.bruhat_cell(ctx, n, r)
        setattr(og, name, plain)
        out[f"q{ctx.q}-n{n}-r{r}"] = {
            "s": statistics.median(samples),
            "products": calls[0],
            "cell_size": len(cell),
            "q_minus_order": len(qm),
            "digest": hashlib.sha256(repr(cell).encode()).hexdigest()[:16],
        }
    return out


def child_checks() -> dict:
    from cosetmoments.cli import _build_checks

    out = {}
    for name, fn, args, skip in _build_checks(VERIFY_MAX_R, {}):
        if skip:
            continue
        start = time.perf_counter()
        fn(*args)
        out[name] = time.perf_counter() - start
    return out


def run_child(src: Path, argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, __file__, "--child", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def median_rows(runs: list[dict]) -> dict:
    """Per key: float fields become the median over the runs; every other
    field must repeat exactly and is kept as a decimal string."""
    merged = {}
    for key, row in runs[0].items():
        if not isinstance(row, dict):
            merged[key] = statistics.median(run[key] for run in runs)
            continue
        merged[key] = {}
        for field, value in row.items():
            if isinstance(value, float):
                merged[key][field] = statistics.median(run[key][field] for run in runs)
            elif any(run[key][field] != value for run in runs):
                raise AssertionError(f"{key}: {field} differs between runs")
            else:
                merged[key][field] = str(value) if isinstance(value, int) else value
    return merged


def side_record(src: Path) -> dict:
    cells = {}
    for field_r, n in CELLS:
        argv = ["cells", "--field-r", str(field_r), "--n", str(n)]
        cells.update(median_rows([run_child(src, argv) for _ in range(PROCESSES)]))
        progress = {"src": str(src), "field_r": field_r, "n": n}
        print(json.dumps(progress), file=sys.stderr, flush=True)
    checks = median_rows([run_child(src, ["checks"]) for _ in range(PROCESSES)])
    return {"cells": cells, "checks": checks}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--parent-src", type=Path)
    parser.add_argument("--e2e-parent", type=Path)
    parser.add_argument("--e2e-change", type=Path)
    parser.add_argument("--child", choices=("cells", "checks"))
    parser.add_argument("--field-r", type=int)
    parser.add_argument("--n", type=int)
    args = parser.parse_args()
    if args.child:
        doc = child_cells(args.field_r, args.n) if args.child == "cells" else child_checks()
        print(json.dumps(doc))
        return
    if not (args.out and args.parent_src):
        parser.error("--out and --parent-src are required")
    # imported here so that a child process loads only its own side's package
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_prefix import cpu_model, e2e_summary

    before = side_record(args.parent_src.resolve())
    after = side_record(ROOT / "src")
    for key, row in before["cells"].items():
        other = after["cells"][key]
        if (row["digest"], row["cell_size"]) != (other["digest"], other["cell_size"]):
            raise AssertionError(f"{key}: the two sides build different cells")
    if before["checks"].keys() != after["checks"].keys():
        raise AssertionError("the two sides plan different checks")
    top = sorted(before["checks"], key=before["checks"].get, reverse=True)[:TOP_CHECKS]
    doc = {
        "host": {
            "cpu": cpu_model(),
            "cores": str(os.cpu_count()),
            "python": sys.version.split()[0],
        },
        "cell_layer": {
            "repeats_per_process": str(REPEATS),
            "processes": str(PROCESSES),
            "before": before["cells"],
            "after": after["cells"],
            "work_units": "matrix products (_packed_mul at q = 2, mat_mul otherwise)",
        },
        "verify_all_checks": {
            "max_r": str(VERIFY_MAX_R),
            "processes": str(PROCESSES),
            "before": {name: before["checks"][name] for name in top},
            "after": {name: after["checks"][name] for name in top},
            "sum_all_checks_s": {
                "before": sum(before["checks"].values()),
                "after": sum(after["checks"].values()),
            },
            "checks": str(len(before["checks"])),
        },
    }
    if args.e2e_parent and args.e2e_change:
        doc["end_to_end"] = e2e_summary(args.e2e_parent, args.e2e_change)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
