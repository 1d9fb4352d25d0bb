"""The golden-output corpus: CLI commands with the digest of what each one prints.

Usage (from the repository root):
    python3 tools/golden_outputs.py --record

Each entry of tests/golden_outputs.json is an argv list with the sha256 of the
stdout of `python3 -m cosetmoments.cli ARGV` run in a fresh interpreter on
this checkout's src/, its exit code and the first line of its stderr.
`--record` runs every command of COMMANDS and rewrites the file;
tests/test_golden_outputs.py replays the entries and asserts each outcome.
The corpus leaves out `--help`, whose text varies across Python versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden_outputs.json"
BENCH_SEED = 1287

COMMANDS = [
    ["verify-all", "--max-r", "8", "--workers", "1"],
    ["verify-all", "--max-r", "8", "--workers", "2"],
    ["field", "--r", "5"],
    ["field", "--r", "3", "--modulus", "0xD", "--a-param", "0x2"],
    ["kloos", "--r", "7", "--m", "2", "--a", "0x35"],
    ["enumerate", "--r", "2", "--family", "2", "--sign", "plus", "--n", "2"],
    ["enumerate", "--r", "1", "--family", "1", "--sign", "minus", "--n", "71"],
    ["weights", "--r", "3", "--family", "1", "--sign", "minus", "--n", "1", "--jmax", "6"],
    ["kloos", "--r", "16", "--m", "2", "--a", "0x3"],
    ["moments", "--r", "16", "--family", "2", "--sign", "plus", "--n", "2", "--hmax", "8"],
    ["weights", "--r", "16", "--family", "1", "--sign", "minus", "--n", "1", "--jmax", "32"],
    ["weights", "--r", "3", "--family", "1", "--sign", "plus", "--n", "2", "--jmax", "1001"],
    ["kloos", "--r", "3", "--m", "100000001", "--a", "0x1"],
    ["weights", "--r", "1", "--family", "1", "--sign", "minus", "--n", "3001"],
    ["field", "--r", "2", "--modulus", "0x5"],
    ["verify-all", "--max-r", "2", "--modulus-override", "2:0x5"],
    ["field", "--r", "3", "--modulus", ""],
    ["field", "--r", "3", "--a-param", ""],
    ["field", "--r", "2", "--out", ""],
]


def commands() -> list[list[str]]:
    """Every benchmark job at BENCH_SEED, then COMMANDS."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return [argv for w in workloads.WORKLOADS for argv in workloads.jobs(w, BENCH_SEED)] + COMMANDS


def outcome(argv: list[str]) -> dict:
    """One entry: argv with the stdout sha256, exit code and first stderr line of its run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # the refusals read CPython's default digit cap
    proc = subprocess.run(
        [sys.executable, "-m", "cosetmoments.cli", *argv],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    return {
        "argv": argv,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "exit": proc.returncode,
        "stderr_first_line": proc.stderr.decode().partition("\n")[0],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="run every command and rewrite the corpus")
    parser.parse_args()
    entries = [outcome(argv) for argv in commands()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"recorded {len(entries)} entries in {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
