"""Record bench/reference.json from the program as it stands.

Usage: PYTHONPATH=src python3 bench/record_reference.py

Runs the untraced jobs of every workload for the benchmark's default seed
and stores the values the reference checker compares against. Run it only
at a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parents[1]


def record() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ref: dict = {
        "moments": {},
        "kloos_moments": {},
        "kloos_values": {},
        "verify_all": {},
    }
    for workload in workloads.WORKLOADS:
        for argv in workloads.jobs(workload, workloads.DEFAULT_SEED):
            proc = subprocess.run(
                [sys.executable, "-m", "cosetmoments.cli", *argv],
                env=env, cwd=ROOT, capture_output=True, check=True,
            )
            doc = json.loads(proc.stdout)
            result = doc["result"]
            opts = reference.options(argv)
            if argv[0] == "moments":
                ref["moments"][reference.moments_key(opts)] = {
                    rep["series"]: [row["recursion"] for row in rep["h"]]
                    for rep in result["reports"]
                }
            elif argv[0] == "kloos" and "hmax" in opts:
                ref["kloos_moments"][reference.kloos_moments_key(opts)] = result["moments"]
            elif argv[0] == "kloos":
                ref["kloos_values"][reference.kloos_value_key(doc["params"])] = result["value"]
            else:
                ref["verify_all"][reference.verify_key(opts)] = {
                    c["name"]: c["status"] for c in result["checks"]
                }
            problems = reference.check_job(argv, proc.returncode, proc.stdout, ref)
            if problems:
                raise SystemExit(f"refusing to record {argv}: {problems}")
    return ref


if __name__ == "__main__":
    ref = record()
    reference.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
