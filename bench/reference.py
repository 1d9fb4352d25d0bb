"""Correctness checks on one job's exit code and JSON document.

Two kinds of check:

- identities that hold for any seed: M_0 = q - 1, M_1 = 1 and
  M_2 = q^2 - q - 1 for every power-moment series of K, every point value
  K(a) in the predicted range {t : t^2 < 4q, t = 3 mod 4}, every `agree`
  flag true, recursion equal to oracle, and no failed verify-all check;
- values recorded from the program in `reference.json`. Power moments and
  the verify-all check list do not depend on the modulus or form parameter,
  so they are checked for any seed; point values K(a) depend on the field
  representation and are checked when the recorded run drew the same
  (r, modulus, a).
"""

from __future__ import annotations

import json
from math import isqrt
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="ascii"))


def options(argv: list[str]) -> dict[str, str | list[str]]:
    """The --key value pairs of a CLI argv; repeated keys collect into a list."""
    out: dict[str, str | list[str]] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value = argv[i + 1]
            i += 2
        else:
            value = "true"
            i += 1
        if key in out:
            prev = out[key]
            out[key] = (prev if isinstance(prev, list) else [prev]) + [value]
        else:
            out[key] = value
    return out


def moments_key(opts: dict) -> str:
    sign = "+" if opts["sign"] == "plus" else "-"
    return f"r{opts['r']} {opts['family']}{sign}n{opts['n']} h{opts['hmax']}"


def kloos_moments_key(opts: dict) -> str:
    return f"r{opts['r']} h{opts['hmax']}"


def kloos_value_key(params: dict) -> str:
    """Keyed by the document's echo, which carries the resolved modulus."""
    return f"r{params['r']} {params['modulus']} {params['a']}"


def verify_key(opts: dict) -> str:
    return f"max_r{opts['max-r']}"


def predicted_spectrum(q: int) -> frozenset[int]:
    bound = isqrt(4 * q - 1)
    return frozenset(t for t in range(-bound, bound + 1) if t % 4 == 3)


def _low_moments(values: list[int], q: int) -> list[str]:
    expected = [q - 1, 1, q * q - q - 1]
    return [
        f"M_{h} = {v}, expected {e}" for h, (v, e) in enumerate(zip(values, expected)) if v != e
    ]


def _check_echo(opts: dict, params: dict) -> list[str]:
    problems = []
    for key in ("r", "modulus", "a_param", "a", "h_max"):
        arg = opts.get({"a_param": "a-param", "h_max": "hmax"}.get(key, key))
        if arg is not None and str(params.get(key, "")).upper() != arg.upper():
            problems.append(f"params.{key} = {params.get(key)!r}, argv has {arg!r}")
    return problems


def check_job(argv: list[str], returncode: int, stdout: bytes, reference: dict) -> list[str]:
    """Every problem found with one job; an empty list means the job passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    command, opts = argv[0], options(argv)
    if doc.get("command") != command:
        return [f"document is for {doc.get('command')!r}, not {command!r}"]
    result = doc["result"]
    problems = _check_echo(opts, doc["params"])
    if command == "moments":
        q = 1 << int(opts["r"])
        recorded = reference["moments"].get(moments_key(opts))
        if recorded is None:
            problems.append(f"no recorded moments for {moments_key(opts)}")
        for report in result["reports"]:
            rows = report["h"]
            if not all(row["agree"] is True for row in rows):
                problems.append(f"series {report['series']}: an agree flag is not true")
            values = [int(row["recursion"]) for row in rows]
            if values != [int(row["oracle"]) for row in rows]:
                problems.append(f"series {report['series']}: recursion differs from oracle")
            if report["series"] == "mk":
                problems += _low_moments(values, q)
            if recorded is not None and [row["recursion"] for row in rows] != recorded.get(
                report["series"]
            ):
                problems.append(f"series {report['series']}: moments differ from the record")
        if recorded is not None and sorted(r["series"] for r in result["reports"]) != sorted(recorded):
            problems.append("the set of series differs from the record")
    elif command == "kloos":
        q = 1 << int(opts["r"])
        if "hmax" in opts:
            values = result["moments"]
            problems += _low_moments([int(v) for v in values], q)
            if values != reference["kloos_moments"].get(kloos_moments_key(opts)):
                problems.append(f"moments differ from the record for {kloos_moments_key(opts)}")
        if "a" in opts:
            value = int(result["value"])
            if value not in predicted_spectrum(q):
                problems.append(f"K(a) = {value} lies outside the predicted range")
            recorded = reference["kloos_values"].get(kloos_value_key(doc["params"]))
            if recorded is not None and result["value"] != recorded:
                problems.append(f"K(a) = {value}, recorded {recorded}")
    elif command == "verify-all":
        if result["counts"]["fail"] != "0":
            failed = [c["name"] for c in result["checks"] if c["status"] == "fail"]
            problems.append(f"failed checks: {', '.join(failed)}")
        statuses = {c["name"]: c["status"] for c in result["checks"]}
        if statuses != reference["verify_all"].get(verify_key(opts)):
            problems.append(f"check statuses differ from the record for {verify_key(opts)}")
    else:
        problems.append(f"no check for command {command!r}")
    return problems
