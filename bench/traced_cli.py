"""Run one cosetmoments CLI invocation with spans installed.

Usage: python3 bench/traced_cli.py TRACE_FILE CLI_ARG...

The CLI document goes to stdout and the exit code is the CLI's own, exactly
as with `python3 -m cosetmoments.cli CLI_ARG...`. The spans and the per-layer
summary are written to TRACE_FILE as JSON when the job ends.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    root = tracer.install()
    code = root(cli_args)
    sys.stdout.flush()
    with open(trace_file, "w", encoding="ascii") as sink:
        json.dump({"summary": tracer.summary(), "spans": tracer.spans}, sink)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
