"""JSON-emitting command-line surface.

Every command prints one JSON document with the full parameter echo
(resolved modulus and a_param included) so runs are reproducible; all
numeric values are decimal strings, field elements and moduli are hex.
Exit status: 0 success, 1 verification mismatch, 2 usage or domain error,
3 an internal consistency assertion that failed, 120 a closed stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import marshal
import os
import sys

from . import __version__
from .finite_field import FieldCtx, check_unit, make_field, parse_hex, theta_subgroup, to_hex, trace
from .kloosterman import kloosterman_spectrum, kloosterman_sum, power_moment_oracle

# `spec_commands`, the closed forms, group, code and recursion layers and the verify-all checks
# are imported inside the functions that use them, so `--help`, `field` and `kloos` load none of
# them and `moments` loads no enumeration and no check. Run by -m, this module is `__main__`;
# under its own name too, `spec_commands` imports it without running it a second time.
sys.modules.setdefault(__spec__.name, sys.modules[__name__])

MAX_VERIFY_R = 8
SIGNS = {"plus": "+", "minus": "-"}
COMMANDS = {  # every subcommand and its help; an argv that can run starts with one of them
    "field": "construct GF(2^r) and report its parameters",
    "kloos": "Kloosterman sums and their power moments",
    "enumerate": "enumerate a double coset and verify its closed forms",
    "weights": "codeword weights and weight-distribution prefix",
    "moments": "solve the power-moment recursions",
    "verify-all": "run every verification suite",
}


def _dec(x: int) -> str:
    return str(int(x))


def _field_from_args(args: argparse.Namespace) -> FieldCtx:
    modulus = parse_hex(args.modulus) if args.modulus is not None else None
    a_param = parse_hex(args.a_param) if args.a_param is not None else None
    return make_field(args.r, modulus, a_param)


def _field_echo(ctx: FieldCtx) -> dict:
    return {
        "r": _dec(ctx.r),
        "q": _dec(ctx.q),
        "modulus": to_hex(ctx.modulus),
        "a_param": to_hex(ctx.a_param),
    }


def _doc(command: str, params: dict, result: dict) -> dict:
    return {"command": command, "version": __version__, "params": params, "result": result}


# ---------------------------------------------------------------------------
# command handlers


def _cmd_field(args: argparse.Namespace) -> tuple[dict, int]:
    ctx = _field_from_args(args)
    result = {
        "trace_mask": to_hex(ctx.trace_mask),
        "theta_subgroup_size": _dec(len(theta_subgroup(ctx))),
        "trace_one_count": _dec(sum(trace(ctx, x) for x in range(ctx.q))),
    }
    return _doc("field", _field_echo(ctx), result), 0


def _cmd_kloos(args: argparse.Namespace) -> tuple[dict, int]:
    ctx = _field_from_args(args)
    params = _field_echo(ctx)
    params["m"] = _dec(args.m)
    result: dict = {}
    if args.a is None and args.hmax is None:
        raise ValueError("kloos needs --a and/or --hmax")
    if args.a is not None:
        a = parse_hex(args.a)
        params["a"] = to_hex(a)
        if args.m == 2:  # K_2 reads the spectrum
            check_unit(ctx, a)
            result["value"] = _dec(kloosterman_spectrum(ctx, 2)[a])
        else:
            result["value"] = _dec(kloosterman_sum(ctx, args.m, a))
    if args.hmax is not None:
        params["h_max"] = _dec(args.hmax)
        series = power_moment_oracle(ctx, args.m, args.hmax)
        result["moments"] = [_dec(v) for v in series.values]
    return _doc("kloos", params, result), 0


def _cmd_spec(args: argparse.Namespace) -> tuple[dict, int]:
    """enumerate, weights and moments: their module is compiled only when one of them runs."""
    from . import spec_commands
    return getattr(spec_commands, f"_cmd_{args.command}")(args)


# ---------------------------------------------------------------------------
# verify-all: the plan comes from `checks`, whose import loads every layer the checks
# read; forked workers inherit both


def _run_check(entry: CheckEntry) -> tuple[str, str, str]:
    name, func, fargs, skip_reason = entry
    if func is None:
        return name, "skip", skip_reason
    try:
        func(*fargs)
    except Exception as exc:  # noqa: BLE001 - check failures are data, not crashes
        return name, "fail", f"{type(exc).__name__}: {exc}"
    return name, "pass", ""


def _serve_tasks(plan: list[CheckEntry], tasks: list[list[int]], queue: int, out: int) -> None:
    """A forked worker: runs the tasks numbered in `queue` until EOF, writes {plan index:
    result} to `out` in one marshal blob, and leaves by os._exit alone (no flush, no atexit)."""
    try:
        done = {}
        while record := os.read(queue, 4):  # one pipe read never splits a 4-byte record
            for index in tasks[int.from_bytes(record, "little")]:
                done[index] = _run_check(plan[index])  # a wrapper set on the module sees each
        with open(out, "wb") as pipe:
            pipe.write(marshal.dumps(done))
        os._exit(0)
    finally:
        os._exit(1)  # reached only when the work above raised


def verify_all(
    max_r: int, workers: int = 1, modulus_overrides: dict[int, int] | None = None
) -> list[tuple[str, str, str]]:
    if not 1 <= max_r <= MAX_VERIFY_R:
        raise ValueError(f"max_r must lie in 1..{MAX_VERIFY_R}")
    outside = sorted(r for r in modulus_overrides or {} if not 1 <= r <= max_r)
    if outside:
        raise ValueError(f"modulus override for r = {outside[0]} lies outside 1..{max_r}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    from .checks import _build_checks
    plan = _build_checks(max_r, modulus_overrides or {})
    if workers == 1 or not hasattr(os, "fork"):  # serial where the platform cannot fork
        return [_run_check(entry) for entry in plan]
    by_args: dict[tuple, list[int]] = {}  # plan indices by argument tuple, in plan order
    for index, entry in enumerate(plan):
        by_args.setdefault(entry[2], []).append(index)
    tasks = list(by_args.values())
    # forked siblings left on the parent's shared cores tend to run on one of them for a short
    # plan, so each worker pins itself to one allowed core, round-robin; the parent stays as is
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    pids, pipes, queue = [], [], None
    try:  # forked workers run every check; the parent reads their pipes and reaps them
        try:
            queue, feed = os.pipe()
            with open(feed, "wb") as pipe:  # every task number before the first fork; they fit the buffer
                pipe.write(b"".join(task.to_bytes(4, "little") for task in range(len(tasks))))
            for worker in range(min(workers, len(tasks))):
                read_end, write_end = os.pipe()
                pipes.append(open(read_end, "rb"))
                try:
                    if (pid := os.fork()) == 0:
                        if cores:  # before the first task; a refused pin keeps the inherited cores
                            with contextlib.suppress(OSError):
                                os.sched_setaffinity(0, {cores[worker % len(cores)]})
                        _serve_tasks(plan, tasks, queue, write_end)
                finally:
                    os.close(write_end)  # so the pipe ends when its worker does
                pids.append(pid)
        except OSError as exc:  # a pipe or a fork the system refused: stop the workers started
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise RuntimeError(f"a verify-all worker could not be started: {exc}") from None
        blobs = [pipe.read() for pipe in pipes]
    finally:
        if queue is not None:
            os.close(queue)
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"a verify-all worker exited with status {next(filter(None, codes))}")
    results = {index: result for blob in blobs for index, result in marshal.loads(blob).items()}
    if len(results) != len(plan):
        raise RuntimeError("the verify-all workers left a check unreported")
    return [results[index] for index in range(len(plan))]


def _cmd_verify_all(args: argparse.Namespace) -> tuple[dict, int]:
    overrides: dict[int, int] = {}
    for item in args.modulus_override or []:
        r_text, _, hex_text = item.partition(":")
        try:
            r, modulus = int(r_text), parse_hex(hex_text)
        except ValueError:
            raise ValueError("--modulus-override takes R:HEX, e.g. 3:0xF") from None
        if r in overrides:
            raise ValueError(f"--modulus-override names r = {r} more than once")
        overrides[r] = modulus
    results = verify_all(args.max_r, args.workers, overrides)
    checks = [{"name": n, "status": s, "detail": d} for n, s, d in results]
    counts = {
        status: _dec(sum(1 for _, s, _ in results if s == status))
        for status in ("pass", "fail", "skip")
    }
    params = {
        "max_r": _dec(args.max_r),
        "modulus_overrides": {_dec(r): to_hex(m) for r, m in sorted(overrides.items())},
    }
    code = 1 if any(s == "fail" for _, s, _ in results) else 0
    return _doc("verify-all", params, {"checks": checks, "counts": counts}), code


# ---------------------------------------------------------------------------
# parser plumbing


def _add_command_args(p: argparse.ArgumentParser, command: str) -> None:
    if command != "verify-all":
        p.add_argument("--r", type=int, required=True, help="extension degree of GF(2^r)")
        p.add_argument("--modulus", help="irreducible modulus bitmask, hex")
        p.add_argument("--a-param", dest="a_param", help="trace-one form parameter, hex")
    if command in ("enumerate", "weights", "moments"):  # the commands that read a coset spec
        p.add_argument("--family", type=int, required=True, choices=(1, 2, 3, 4))
        p.add_argument("--sign", required=True, choices=tuple(SIGNS))
        p.add_argument("--n", type=int, required=True)
    if command == "kloos":
        p.add_argument("--m", type=int, default=1, help="dimension of the sum")
        p.add_argument("--a", help="argument, hex")
        p.add_argument("--hmax", type=int, help="compute power moments up to this h")
    elif command == "weights":
        p.add_argument("--jmax", type=int, help="weight-distribution prefix cutoff")
    elif command == "moments":
        p.add_argument("--hmax", type=int, required=True)
        p.add_argument("--series", choices=("mk2", "mk-even"))
        p.add_argument("--verify", action="store_true", help="compare against the brute-force oracle")
    elif command == "verify-all":
        p.add_argument("--max-r", dest="max_r", type=int, default=2)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--modulus-override", action="append",
                       help="R:HEX modulus replacement, mainly for negative testing")
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    handlers = {"field": _cmd_field, "kloos": _cmd_kloos, "verify-all": _cmd_verify_all}
    p.set_defaults(handler=handlers.get(command, _cmd_spec))  # a handler patched here is the one run


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every subcommand by name and help, with the options of the one argv[0] names alone, or of
    each where argv[0] names none (--help, a bare call, an unknown command): the top level has no
    option but -h, so a run's own subcommand is always argv[0]."""
    parser = argparse.ArgumentParser(
        prog="cosetmoments",
        description="Exact Kloosterman power moments from orthogonal-group double cosets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in COMMANDS else None
    for command, text in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if named in (None, command):
            _add_command_args(p, command)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    made = args.out is not None and not os.path.exists(args.out)
    try:  # an unwritable --out is refused before any work; "a" leaves an existing file whole
        if args.out is not None:
            open(args.out, "a", encoding="ascii").close()
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        try:
            doc, code = args.handler(args)
        except (ValueError, RuntimeError) as exc:  # bad input, or a verify-all worker that died
            print(str(exc), file=sys.stderr)
            return 2
        except AssertionError as exc:  # a closed form that contradicts another: a bug, not bad input
            print(f"internal consistency check failed: {exc}", file=sys.stderr)
            return 3
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.out is None:
            sys.stdout.write(payload)
            return code
        try:
            with open(args.out, "w", encoding="ascii") as sink:
                sink.write(payload)
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        made = False  # the document is written: the file stays
        return code
    finally:
        if made:  # the run ends without a document: remove the file it created
            os.remove(args.out)


def cli() -> int:
    """The entry point of `python -m cosetmoments.cli` and of the `cosetmoments` script: runs main,
    flushes stdout then stderr and leaves by os._exit, so no teardown and no atexit handler runs. A
    tracer or profiler, or a flush that raises other than BrokenPipeError, returns the status to the
    ordinary exit; an exception other than SystemExit propagates. A closed pipe exits 120, stderr empty."""
    try:
        status = main()
    except SystemExit as exc:  # --help and argparse's usage errors
        status = exc.code or 0
    except BrokenPipeError:  # the document's write met a closed stdout: the status of a failed flush
        return 120
    if sys.gettrace() is None and sys.getprofile() is None:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except BrokenPipeError:  # as a failed write: no final flush is left to report it again
            os._exit(120)
        except (OSError, ValueError):  # a closed file: the ordinary exit reports it as before
            return status
        os._exit(status)
    return status


if __name__ == "__main__":
    raise SystemExit(cli())
