"""Per-layer before-and-after records (the BENCH_<pr>.json files) from one registry.

Usage (from the repository root):
    PYTHONPATH=src python3 tools/bench_layers.py --out BENCH_7.json \
        --layers spectrum,commands,checks [--parent-src DIR] \
        [--e2e-parent DIR --e2e-change DIR]

DIR is the src/ directory of a checkout of the parent commit; the change
side is this checkout's src/. Every figure comes from a fresh interpreter
that imports one side's package, so first-use costs (tables, caches) are
paid inside the measurement. Each case of a layer runs PROCESSES times per
side, the two sides alternating process by process (and the side that
starts alternating case by case), so a drift in host load reaches both:
float fields keep their median, every other field must repeat exactly and
is kept as a string, and the change's row counts, per float field, the
processes in which it was faster than the parent process it alternated
with. Fields a layer names in `agree` (values,
digests) must also be equal between the two sides. A case that exceeds
its time limit is recorded as such and not repeated. Without DIR, each
layer records this checkout alone.

As in `bench/run.py`, every child runs pinned: to the first core the tool
may use, or, where its argv holds `--workers N`, to the first min(N,
available) cores, so a pool's workers can run side by side. Every float
field a child returns is a time, divided by the mean speed of those cores
while the child ran (`bench/hostspeed.SpeedProbe`): the times are seconds
on a core of the probe's reference speed. Each row keeps the raw times under
"raw" and the median speed factor under "speed".

With the two directories of `bench/run.py --trace 0` records (parent and
change), the medians and quartiles of the end-to-end metrics and the pairs
the change wins are added per workload, and per seed under "by_seed". The
k-th run of a seed on one side pairs with the k-th run of that seed on the
other, in the order of the record names (which hold their start time).
Where the directories also hold `--trace 1` records, each workload's
per-layer metrics are added under "per_layer_trace", both sides side by
side, with the work counters compared.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import hostspeed  # noqa: E402 - the benchmark's probe, read from its own directory

PROCESSES = 3  # fresh interpreters per case and side; the record keeps their median
REPEATS = 3  # timed calls per process where a child repeats a call
CHILD_TIMEOUT_S = 60.0
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
METRICS = ("wall_s", "job_p50_s", "cpu_s", "peak_rss_mib", "success_rate", "setup_s")


# ---------------------------------------------------------------------------
# children: each runs in a fresh interpreter and returns one row of fields


def _median_s(call, repeats: int = REPEATS, reset=None) -> float:
    samples = []
    for _ in range(repeats):
        if reset:
            reset()
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


PREFIX_SHAPES = {"1+/n2": (1, "+", 2), "1-/n1": (1, "-", 1), "3-/n3": (3, "-", 3),
                 "3+/n2": (3, "+", 2), "2+/n2": (2, "+", 2)}
PREFIX_J_MAXES = (8, 16, 32)


def child_prefix(r: str, shape: str) -> dict:
    """The weight-distribution prefix of one spec per j_max, its input (the
    closed dual weights) already cached."""
    from cosetmoments import coset_codes as cc
    from cosetmoments import double_cosets as dc
    from cosetmoments.finite_field import make_field

    ctx = make_field(int(r))
    spec = dc.DoubleCosetSpec(*PREFIX_SHAPES[shape], ctx)
    weights = cc.closed_weights(spec)
    length = dc.dc_cardinality(spec)[2]
    prefix = lambda j_max: cc.prefix_counts_from_distribution(length, weights, j_max)
    row = {"weights_read": ctx.q, "distinct_weights": len(set(weights))}
    for j_max in PREFIX_J_MAXES:
        row[f"j{j_max}_s"] = _median_s(lambda: prefix(j_max))
        row[f"j{j_max}_krawtchouk_steps"] = row["distinct_weights"] * j_max
        row[f"j{j_max}_digest"] = _digest(prefix(j_max))
    return row


def _count_calls(module, name: str, weight=lambda *args: 1) -> list[int]:
    """Route every call of module.name through a counter that adds weight(*args)
    (1 by default); returns the counter."""
    calls = [0]
    plain = getattr(module, name)

    def counted(*args):
        calls[0] += weight(*args)
        return plain(*args)

    setattr(module, name, counted)
    return calls


FIELD_MUL_OPS = 20_000
FIELD_INV_OPS = 2_000


def child_field(r: str) -> dict:
    """Set-up of a context plus its first mul and inv, then ns per mul and inv
    on a seeded operand stream."""
    from cosetmoments import finite_field as ff

    r_int = int(r)
    rng = random.Random(f"field:{r_int}")
    pairs = [(rng.randrange(1, 1 << r_int), rng.randrange(1, 1 << r_int)) for _ in range(FIELD_MUL_OPS)]
    units = [rng.randrange(1, 1 << r_int) for _ in range(FIELD_INV_OPS)]
    mul, inv = ff.mul, ff.inv
    start = time.perf_counter()
    ctx = ff.make_field(r_int)
    mul(ctx, *pairs[0])
    inv(ctx, units[0])
    row = {"modulus": hex(ctx.modulus), "setup_s": time.perf_counter() - start}

    def mul_loop():
        for x, y in pairs:
            mul(ctx, x, y)

    def inv_loop():
        for x in units:
            inv(ctx, x)

    row["mul_ns"] = _median_s(mul_loop, 5) * 1e9 / len(pairs)
    row["inv_ns"] = _median_s(inv_loop, 5) * 1e9 / len(units)
    return row


Q_MINUS_INPUTS = ("enumerate_q_minus", "enumerate_gl", "enumerate_so2", "_powers")  # kept by child_cell


def _clear_caches(module, kept: tuple[str, ...] = ()) -> None:
    """Clear every lru_cache the module defines but those named in kept, whatever a side caches."""
    for name, obj in vars(module).items():
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__ and name not in kept:
            obj.cache_clear()


def child_cell(field_r: str, n: str, r: str) -> dict:
    """One untwisted Bruhat cell with Q^- already enumerated, in matrices and in code form, and
    every other ominus_groups cache cleared before each timed call, so each call builds its own
    tables; `cosets_s` times the cached form of the cell alone (its packed lanes where the side
    keeps them, else its tuple of codes: the coset-order walk either way), and `twisted_s` the
    rho-twisted cell in that form, under the same resets (so it includes the untwisted walk it
    reads: the twist itself costs twisted_s - cosets_s).  `trace_counts_s` times, with the cell
    built, the enumerated character sums of the spec whose cell it is (its traces counted by
    value, then one transform), their caches cleared before each call.  The work the walk does:
    the right-action tables built (q^(2n) row codes each: the r scaled-basis tables and
    sigma's), the basis columns of |Q^-| lanes (2n r) and the cosets expanded (|cell| / |Q^-|).
    A side whose product budget refuses the case has it lifted, so both sides build the same
    cell and their digests are compared."""
    from cosetmoments import double_cosets as dc
    from cosetmoments import ominus_groups as og
    from cosetmoments.finite_field import make_field

    ctx = make_field(int(field_r))
    n_int, r_int = int(n), int(r)
    if not dc.products_fit(ctx.q, n_int):
        dc.PRODUCT_BUDGET = math.inf
    qm = og.enumerate_q_minus(ctx, n_int)
    cell_form = getattr(og, "bruhat_cell_lanes", None) or og.bruhat_cell_cosets
    spec = next(s for s in dc.valid_specs(ctx, n_int) if s.sigma_index == r_int and not s.rho_twisted)

    def reset():
        _clear_caches(og, Q_MINUS_INPUTS)
        cell_form(ctx, n_int, 0, False)  # Q^- in code form, outside the timing

    def reset_sums():
        dc.exp_sums_dc.cache_clear()
        og.double_coset_traces.cache_clear()

    seconds = _median_s(lambda: og.bruhat_cell(ctx, n_int, r_int), reset=reset)
    cosets_s = _median_s(lambda: cell_form(ctx, n_int, r_int, False), reset=reset)
    twisted_s = _median_s(lambda: cell_form(ctx, n_int, r_int, True), reset=reset)
    trace_counts_s = _median_s(lambda: dc.exp_sums_dc(spec, "enumerated"), reset=reset_sums)
    reset()
    calls = _count_calls(og, "_right_action")
    cell = og.bruhat_cell(ctx, n_int, r_int)
    work = {"right_action_tables": calls[0], "table_codes": calls[0] * ctx.q ** (2 * n_int),
            "cosets_expanded": len(cell) // len(qm), "basis_columns": 2 * n_int * ctx.r}
    return {"s": seconds, "cosets_s": cosets_s, "twisted_s": twisted_s, "trace_counts_s": trace_counts_s,
            **work, "cell_size": len(cell), "q_minus_order": len(qm), "digest": _digest(cell),
            "sums_digest": _digest(dc.exp_sums_dc(spec, "enumerated"))}


def child_q_minus(field_r: str, n: str) -> dict:
    """A cold `enumerate_q_minus`: every ominus_groups cache cleared before each timed call (Q^-
    itself, in matrices and in code form, GL, SO(2,q) and the power table among them); and its
    work: the unipotent right-action tables built (each q^(2n) row codes)."""
    from cosetmoments import ominus_groups as og
    from cosetmoments.finite_field import make_field

    ctx = make_field(int(field_r))
    n_int = int(n)
    seconds = _median_s(lambda: og.enumerate_q_minus(ctx, n_int), reset=lambda: _clear_caches(og))
    _clear_caches(og)
    calls = _count_calls(og, "_right_action")
    group = og.enumerate_q_minus(ctx, n_int)
    return {"s": seconds, "unipotent_tables": calls[0], "table_codes": calls[0] * ctx.q ** (2 * n_int),
            "q_minus_order": len(group), "digest": _digest(group)}


CHECK_REPEATS = 5  # runs of each check from one state; child_checks keeps the fastest


def _forked_seconds(fn, args) -> float:
    """Seconds of fn(*args) in a forked copy of this process (its caches as
    they are now), which exits after the call."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            start = time.perf_counter()
            fn(*args)
            os.write(write, repr(time.perf_counter() - start).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        elapsed = pipe.read()
    os.waitpid(pid, 0)
    return float(elapsed)


def child_checks(max_r: str) -> dict:
    """Seconds of every check of `verify-all --max-r MAX_R` that the plan does
    not skip, run in plan order in one process as `--workers 1` runs them, and
    their sum; per task, the sum of its checks (`<first check>.task_s`, the checks
    that share an argument tuple, grouped as the pool groups them into one task),
    and the longest task (`longest_task_s`), which bounds the pool's wall time.
    Each check runs CHECK_REPEATS times from the state the checks
    before it leave, after a full garbage collection: once in this process and
    the other times in forked copies (this process runs no threads), and the
    fastest run is kept.  So neither a collection owed to earlier checks nor a
    slow moment of the host lands on a check, while the caches it fills for
    itself stay cold.  Also the right-action tables each check built
    (`<check>.tables`), and the terms of the symmetric-matrix sums each check
    ran: one per (B, u, v) in the direct sum (`<check>.direct_terms`,
    #nonsingular B x q^(2 dim)) and one nonsingularity test per symmetric B in
    the reduced one (`<check>.reduced_terms`, q^(dim (dim + 1)/2)); counts of 0
    are left out."""
    from cosetmoments import ominus_groups as og
    from cosetmoments.checks import _build_checks
    from spans import nonsingular_symmetric_count

    counters = {  # counted in the defining module, whose attributes the checks read when they run
        "tables": _count_calls(og, "_right_action"),
        "direct_terms": _count_calls(og, "b_r_sum", lambda ctx, dim, *_: (
            nonsingular_symmetric_count(ctx.q, dim) * ctx.q ** (2 * dim))),
        "reduced_terms": _count_calls(og, "b_r_sum_reduced",
                                      lambda ctx, dim, *_: ctx.q ** (dim * (dim + 1) // 2)),
    }
    row, work, tasks = {}, {}, {}
    for name, fn, args, skip in _build_checks(int(max_r), {}):
        if skip:
            continue
        tasks.setdefault(args, []).append(name)  # the pool's task key: the argument tuple
        gc.collect()
        runs = [_forked_seconds(fn, args) for _ in range(CHECK_REPEATS - 1)]
        for counter in counters.values():
            counter[0] = 0
        start = time.perf_counter()
        fn(*args)
        row[name] = min(runs + [time.perf_counter() - start])
        work.update({f"{name}.{kind}": counter[0] for kind, counter in counters.items() if counter[0]})
    row["sum_s"] = sum(row.values())
    task_s = {f"{names[0]}.task_s": sum(row[name] for name in names) for names in tasks.values()}
    return {**row, **task_s, "longest_task_s": max(task_s.values()), **work}


SPECTRUM_DIRECT_SAMPLE = 64  # arguments a whose direct sum is timed at every r
SPECTRUM_DIRECT_FULL_R = 10  # the direct sum over every a is timed up to here
SPECTRUM_K2_DIRECT_R = 8  # one direct K_2 double sum is timed up to here


def child_spectrum(r: str) -> dict:
    """The all-a Kloosterman values: the spectrum (m = 1, then m = 2 from the
    cached m = 1) and its work, against the direct sums: K_1 at every a (q - 1
    terms each) and K_2 at a = 1 ((q - 1)^2 + (q - 1) terms)."""
    from cosetmoments import kloosterman as kl
    from cosetmoments.finite_field import make_field

    r_int = int(r)
    ctx = make_field(r_int)
    q, n = ctx.q, ctx.q - 1
    start = time.perf_counter()
    k1 = kl.kloosterman_spectrum(ctx, 1)
    m1_s = time.perf_counter() - start
    start = time.perf_counter()
    k2 = kl.kloosterman_spectrum(ctx, 2)
    m2_s = time.perf_counter() - start
    row = {
        "m1_s": m1_s,
        "m2_s": m2_s,
        "butterfly_adds_per_m": q * r_int,
        "direct_m1_terms": n * n,
        "direct_m2_terms": n * n + n,
        "m1_digest": _digest(k1),
        "m2_digest": _digest(k2),
    }
    sample = random.Random(f"spectrum:{r_int}").sample(range(1, q), min(SPECTRUM_DIRECT_SAMPLE, n))
    start = time.perf_counter()
    for a in sample:
        if kl.kloosterman_sum.__wrapped__(ctx, 1, a) != k1[a]:
            raise AssertionError(f"spectrum and direct sum disagree at r = {r}, a = {a}")
    per_a = (time.perf_counter() - start) / len(sample)
    row["direct_m1_s_per_a"] = per_a
    row["direct_m1_s_estimated"] = per_a * n
    if r_int <= SPECTRUM_DIRECT_FULL_R:
        start = time.perf_counter()
        for a in range(1, q):
            kl.kloosterman_sum.__wrapped__(ctx, 1, a)
        row["direct_m1_s"] = time.perf_counter() - start
    if r_int <= SPECTRUM_K2_DIRECT_R:
        start = time.perf_counter()
        if kl.kloosterman_sum.__wrapped__(ctx, 2, 1) != k2[1]:
            raise AssertionError(f"K_2 spectrum and double sum disagree at r = {r}")
        row["direct_m2_s_per_a"] = time.perf_counter() - start
    return row


DIRECT_CASES = ((12, 1), (16, 1), (8, 2), (8, 3), (6, 4))  # (r, m)


def child_direct(r: str, m: str) -> dict:
    """One uncached direct K_m sum at a = 1 (`kloosterman_sum.__wrapped__`), the
    character table already built, and its terms: (m - 1)(q - 1)^2 + (q - 1)."""
    from cosetmoments import kloosterman as kl
    from cosetmoments.finite_field import lambda_table, make_field

    ctx = make_field(int(r))
    m_int, n = int(m), ctx.q - 1
    lambda_table(ctx)
    values = []
    seconds = _median_s(lambda: values.append(kl.kloosterman_sum.__wrapped__(ctx, m_int, 1)))
    return {"s": seconds, "terms": (m_int - 1) * n * n + n, "value": str(values[0])}


def child_command(*argv: str) -> dict:
    """One CLI document, timed from the package import to the written output;
    the digest covers the document and the exit code."""
    start = time.perf_counter()
    from cosetmoments.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(list(argv))
    return {"s": time.perf_counter() - start, "exit": code, "digest": _digest((code, sink.getvalue()))}


IMPORT_PROBE = """\
import sys
before = set(sys.modules)
from cosetmoments.cli import main
imported = sorted(set(sys.modules) - before)
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(sys.argv[1:])
pool = ("concurrent.futures.process", "multiprocessing")
layers = sorted(m for m in sys.modules if m.startswith("cosetmoments."))
lines = 0
for m in ["cosetmoments", *layers]:
    with open(sys.modules[m].__file__, encoding="utf-8") as source:
        lines += sum(1 for _ in source)
print(json.dumps({"modules_imported": len(imported), "modules": " ".join(imported),
                  "layers_after_main": " ".join(layers), "source_lines": lines,
                  "pool_loaded": any(m in sys.modules for m in pool)}))
"""


def child_startup(*argv: str) -> dict:
    """`python -m cosetmoments.cli ARGV` in a fresh interpreter, timed from
    outside it; then, in another fresh interpreter, the modules that
    `import cosetmoments.cli` loads (their count and names), the package
    modules loaded once `main(ARGV)` has run and their source lines (each
    compiled once per run where no bytecode cache is read), and whether the
    run loaded the process pool."""
    samples, outputs = [], set()
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cosetmoments.cli", *argv],
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        outputs.add((proc.returncode, proc.stdout))
    if len(outputs) != 1:
        raise AssertionError(f"{' '.join(argv)}: the document differs between runs")
    ((code, document),) = outputs
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True,
                           text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return {"s": statistics.median(samples), "exit": code, "digest": _digest((code, document)),
            **json.loads(probe.stdout)}


CHILDREN = {f.__name__: f for f in (
    child_field, child_spectrum, child_direct, child_prefix, child_q_minus, child_cell, child_checks,
    child_command, child_startup)}


# ---------------------------------------------------------------------------
# the registry of layers


@dataclass(frozen=True)
class Layer:
    doc: str
    cases: tuple[tuple[str, str, tuple[str, ...]], ...]  # (row key, child name, child args)
    work_units: str
    agree: tuple[str, ...] = ()


LAYERS = {
    "field": Layer(
        "GF(2^r) arithmetic: context set-up with its first mul and inv, then ns per mul and inv",
        tuple((f"r{r}", "child_field", (str(r),)) for r in (2, 8, 10, 12, 16)),
        f"operations per figure: {FIELD_MUL_OPS} mul, {FIELD_INV_OPS} inv, on seeded operand "
        "streams; the modulus must agree",
        agree=("modulus",),
    ),
    "spectrum": Layer(
        "all-a Kloosterman values: one spectrum per m vs direct sums",
        tuple((f"r{r}", "child_spectrum", (str(r),)) for r in (8, 10, 12, 14, 16)),
        "butterfly_adds_per_m: q log2 q additions of the one character-sum transform per m; "
        "direct_m1_terms: (q-1)^2, the direct K_1 sums at every a (direct_m1_s up to r = "
        f"{SPECTRUM_DIRECT_FULL_R}, estimated from {SPECTRUM_DIRECT_SAMPLE} sampled a at every r); "
        "direct_m2_terms: (q-1)^2 + (q-1), the one direct K_2 sum at a = 1 (direct_m2_s_per_a, "
        f"up to r = {SPECTRUM_K2_DIRECT_R}); the digests must agree",
        agree=("m1_digest", "m2_digest"),
    ),
    "direct": Layer(
        "one direct K_m point sum, uncached, at a = 1",
        tuple((f"r{r}-m{m}", "child_direct", (str(r), str(m))) for r, m in DIRECT_CASES),
        "terms summed: (m - 1)(q - 1)^2 + (q - 1) (m - 1 levels of the recursion over the "
        "exponents at every exponent, then the top level at log a); the values must agree",
        agree=("value",),
    ),
    "prefix": Layer(
        "weight-distribution prefix from its cached input, the closed dual weights",
        tuple((f"r{r}-{shape}", "child_prefix", (str(r), shape))
              for r in (4, 6, 8, 10, 12, 14, 16) for shape in PREFIX_SHAPES),
        "q weights read; distinct dual weights x j_max (Krawtchouk steps); the distinct "
        "weights and the digests must agree",
        agree=("distinct_weights", *(f"j{j}_digest" for j in PREFIX_J_MAXES)),
    ),
    "q-minus": Layer(
        "a cold enumeration of Q^-(2n,q), every ominus_groups cache cleared before each timed call",
        tuple((f"q{1 << f}-n{n}", "child_q_minus", (str(f), str(n)))
              for f, n in ((1, 2), (1, 3), (2, 2), (3, 2))),
        "unipotent right-action tables built (table_codes: q^(2n) row codes each, one XOR per "
        "code); the digest and the group order must agree",
        agree=("digest", "q_minus_order"),
    ),
    "cells": Layer(
        "Bruhat cells Q^- sigma_r Q^- with Q^- enumerated (BENCH_5); a side whose product "
        "budget refuses a case has it lifted",
        tuple((f"q{1 << f}-n{n}-r{r}", "child_cell", (str(f), str(n), str(r)))
              for f, n in ((1, 2), (1, 3), (2, 2), (3, 2)) for r in range(1, n)),
        "right-action tables built (table_codes: q^(2n) row codes each, one XOR per code): the "
        "r scaled-basis tables and sigma's; basis_columns: columns of |Q^-| 64-bit lanes, one "
        "per basis row (2n r); cosets expanded (|cell| / |Q^-|); every ominus_groups cache but "
        "Q^- and its inputs is cleared before each timed call; cosets_s times the cell's cached "
        "form alone (the unsorted coset-order walk), twisted_s the rho-twisted cell with the walk "
        "it reads, trace_counts_s the enumerated character sums of the cell's spec from the built "
        "cell; the digests and the cell size must agree",
        agree=("digest", "cell_size", "sums_digest"),
    ),
    "checks": Layer(
        "every verify-all check the plan runs at --max-r 8 and at the benchmark's --max-r 2, "
        "serially, in plan order: the trace distributions, recursions and symmetric-matrix sum "
        "among them",
        (("verify-all-r8", "child_checks", ("8",)), ("verify-all-r2", "child_checks", ("2",))),
        f"seconds per check, the fastest of {CHECK_REPEATS} runs, and their sum (sum_s); "
        "<first check>.task_s: the checks of one pool task (one argument tuple) summed, and "
        "longest_task_s the largest of them; "
        "<check>.tables: right-action tables the check built, in plan order after the checks "
        "before it: Q^-'s unipotent tables, the sigma tables, the scan tables and the r "
        "scaled-basis tables per cell (q^(2n) row codes each), and per B of a direct "
        "symmetric-matrix sum one of B and one per column B u (q^dim codes each); "
        "<check>.direct_terms: one per (B, u, v) of the direct sum, #nonsingular B x q^(2 dim) "
        "per call; <check>.reduced_terms: one nonsingularity test per symmetric B of the "
        "reduced sum, q^(dim (dim + 1)/2) per call; a check calls the reduced sum once per "
        "dimension and the direct one once per dimension and twist, the twist a_param only "
        "where a_param != 1",
    ),
    "commands": Layer(
        "end-to-end CLI documents in a fresh interpreter, package import included",
        tuple((" ".join(argv), "child_command", argv) for argv in (
            ("kloos", "--r", "10", "--hmax", "4"),
            ("kloos", "--r", "12", "--a", "0x3"),
            ("kloos", "--r", "12", "--hmax", "8"),
            ("kloos", "--r", "16", "--hmax", "8"),
            ("kloos", "--r", "16", "--m", "2", "--hmax", "8"),
            ("kloos", "--r", "16", "--m", "2", "--hmax", "32"),
            ("moments", "--r", "8", "--family", "2", "--sign", "plus", "--n", "2", "--hmax", "7", "--verify"),
            ("moments", "--r", "16", "--family", "2", "--sign", "plus", "--n", "2", "--hmax", "8"),
            ("moments", "--r", "16", "--family", "4", "--sign", "minus", "--n", "3", "--hmax", "32",
             "--verify"),
            ("weights", "--r", "10", "--family", "1", "--sign", "minus", "--n", "1", "--jmax", "4"),
            ("weights", "--r", "12", "--family", "1", "--sign", "minus", "--n", "1", "--jmax", "4"),
            ("weights", "--r", "16", "--family", "1", "--sign", "minus", "--n", "1", "--jmax", "32"),
            ("weights", "--r", "16", "--family", "4", "--sign", "plus", "--n", "4"),
            ("verify-all", "--max-r", "8"),
        )),
        "one CLI document; the digest and the exit code must agree between the sides",
        agree=("digest", "exit"),
    ),
    "startup": Layer(
        "cold start: python -m cosetmoments.cli ARGV in a fresh interpreter, timed from "
        f"outside, {REPEATS} runs per process; a pool of N workers runs on min(N, available) cores",
        tuple((" ".join(argv), "child_startup", argv) for argv in (
            ("--help",),
            ("field", "--r", "12"),
            ("kloos", "--r", "10", "--hmax", "4"),
            ("kloos", "--r", "12", "--a", "0x3"),
            ("moments", "--r", "8", "--family", "2", "--sign", "plus", "--n", "2", "--hmax", "7", "--verify"),
            ("moments", "--r", "3", "--family", "1", "--sign", "minus", "--n", "1", "--hmax", "4", "--verify"),
            ("verify-all", "--max-r", "1", "--workers", "2"),
            ("verify-all", "--max-r", "2", "--workers", "2"),
        )),
        "modules_imported: modules `import cosetmoments.cli` adds to a fresh interpreter, "
        "named in modules; layers_after_main: the cosetmoments modules loaded once main(ARGV) "
        "has run; source_lines: their lines, the package's included, all compiled on a run "
        "that reads no bytecode cache; pool_loaded: whether the run loaded concurrent.futures.process "
        "or multiprocessing; the digest must agree between the sides",
        agree=("digest", "exit"),
    ),
}


# ---------------------------------------------------------------------------
# running and recording


def child_cpus(args: tuple[str, ...]) -> list[int]:
    """The cores a child runs on: the first min(N, available) for an argv holding
    `--workers N`, else the first one."""
    workers = int(args[args.index("--workers") + 1]) if "--workers" in args else 1
    return ALLOWED_CPUS[:workers]


def run_child(src: Path, child: str, args: tuple[str, ...]) -> dict | None:
    """One child in a fresh interpreter on src, pinned to child_cpus(args), with its
    times divided by the mean speed of those cores; None when it exceeds its limit."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cpus = child_cpus(args)
    os.sched_setaffinity(0, cpus)  # this thread's cores, which the child inherits
    with hostspeed.SpeedProbe(cpus) as probe:
        start = time.perf_counter()
        try:
            out = subprocess.run(
                [sys.executable, __file__, "--child", child, *args],
                env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
        speed = probe.factor(cpus, start, time.perf_counter())
    row = json.loads(out.stdout)
    raw = {key: value for key, value in row.items() if isinstance(value, float)}
    return {**row, **{key: value / speed for key, value in raw.items()}, "raw": raw, "speed": speed}


def median_row(runs: list[dict]) -> dict:
    merged = {}
    for key, value in runs[0].items():
        if isinstance(value, dict):
            merged[key] = median_row([run[key] for run in runs])
        elif isinstance(value, float):
            merged[key] = statistics.median(run[key] for run in runs)
        elif any(run[key] != value for run in runs):
            raise AssertionError(f"{key} differs between runs")
        else:
            merged[key] = str(value)
    return merged


def layer_record(layer: Layer, parent_src: Path | None) -> dict:
    """Every case on both sides, the sides alternating: the side that runs
    first swaps from one process to the next and from one case to the next,
    so a shift in host load lands on both."""
    record = {"doc": layer.doc, "work_units": layer.work_units, "processes": str(PROCESSES)}
    sides = {"after": ROOT / "src"}
    if parent_src is not None:
        sides["before"] = parent_src
    rows: dict[str, dict] = {side: {} for side in sides}
    for index, (key, child, args) in enumerate(layer.cases):
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        timed_out: set[str] = set()
        for process in range(PROCESSES):
            order = list(sides) if (index + process) % 2 == 0 else list(reversed(sides))
            for side in order:
                if side in timed_out:
                    continue
                row = run_child(sides[side], child, args)
                if row is None:
                    timed_out.add(side)
                else:
                    runs[side].append(row)
        for side in sides:
            rows[side][key] = (median_row(runs[side]) if runs[side]
                               else {"timed_out_after_s": str(CHILD_TIMEOUT_S)})
        if len(sides) == 2:  # the k-th process of one side pairs with the k-th of the other
            pairs = list(zip(runs["before"], runs["after"]))
            rows["after"][key]["change_faster_pairs"] = {
                field: f"{sum(after[field] < before[field] for before, after in pairs)}/{len(pairs)}"
                for field, value in (runs["after"] or [{}])[0].items()
                if isinstance(value, float) and field != "speed"}
        for side, src in sides.items():
            print(json.dumps({"src": str(src), "case": key, **rows[side][key]}),
                  file=sys.stderr, flush=True)
    if "before" not in rows:
        record["rows"] = rows["after"]
        return record
    for key, row in rows["before"].items():
        for field in layer.agree:
            if field in row and field in rows["after"][key] and row[field] != rows["after"][key][field]:
                raise AssertionError(f"{key}: the two sides disagree on {field}")
    record["before"], record["after"] = rows["before"], rows["after"]
    return record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def pair_summary(by_seed: dict[str, dict[str, list[dict]]]) -> dict:
    """Medians and quartiles per side, and the pairs the change wins, of one
    workload's records by seed and side (each side's in the order they ran)."""
    entry = {}
    for side in ("parent", "change"):
        records = [rec for sides in by_seed.values() for rec in sides.get(side, [])]
        if not records:
            continue
        stats = {"runs": str(len(records)), "seeds": [str(rec["seed"]) for rec in records]}
        for metric in METRICS:
            values = sorted(rec["metrics"][metric] for rec in records)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            stats[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        entry[side] = stats
    pairs = [pair for sides in by_seed.values()
             for pair in zip(sides.get("parent", []), sides.get("change", []))]
    wins = {}
    for metric in METRICS:
        sign = -1 if metric == "success_rate" else 1  # the one metric where higher is better
        better = sum(sign * (parent["metrics"][metric] - change["metrics"][metric]) > 0
                     for parent, change in pairs)
        wins[metric] = f"{better}/{len(pairs)}"
    entry["change_better_pairs"] = wins
    return entry


def e2e_summary(parent_dir: Path, change_dir: Path) -> dict:
    runs: dict[str, dict[str, dict[str, list[dict]]]] = {}  # workload -> seed -> side -> records
    for side, folder in (("parent", parent_dir), ("change", change_dir)):
        for path in sorted(folder.glob("*-trace0-*.json")):
            record = json.loads(path.read_text())
            runs.setdefault(record["workload"], {}).setdefault(str(record["seed"]), {}).setdefault(
                side, []).append(record)
    return {
        workload: {**pair_summary(by_seed),
                   "by_seed": {seed: pair_summary({seed: by_seed[seed]}) for seed in sorted(by_seed)}}
        for workload, by_seed in sorted(runs.items())
    }


SPAN_METRICS = ("trace.spans", "trace.overhead_s")  # with every *.calls and *.self_s


def trace_summary(parent_dir: Path, change_dir: Path) -> dict:
    """The --trace 1 per-layer metrics of each workload on both sides (the last record of
    each), split into the work counters, which must be equal, and the span figures (self
    times, span calls and counts) and remaining timings, which may move between layers."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    records: dict[str, dict[str, dict]] = {}  # workload -> side -> metrics
    for side, folder in (("parent", parent_dir), ("change", change_dir)):
        for path in sorted(folder.glob("*-trace1-*.json")):
            record = json.loads(path.read_text())
            records.setdefault(record["workload"], {})[side] = record["metrics"]
    spans = [n for n in units if n in SPAN_METRICS or n.endswith((".calls", ".self_s"))]
    counters = [n for n in units if n not in spans and units[n] in ("count", "bytes", "ratio")]
    out = {}
    for workload, sides in sorted(records.items()):
        if len(sides) < 2:
            continue  # traced on one side only: nothing to compare
        parent, change = sides["parent"], sides["change"]
        out[workload] = {
            "parent": parent, "change": change,
            "counters_equal": all(parent[n] == change[n] for n in counters),
            "counters_differing": {n: [parent[n], change[n]] for n in counters if parent[n] != change[n]},
            "span_figures": {n: [parent[n], change[n]] for n in spans},
        }
    return out


def main() -> None:
    if sys.argv[1:2] == ["--child"]:  # the child's own arguments may look like options
        print(json.dumps(CHILDREN[sys.argv[2]](*sys.argv[3:])))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--layers", help=f"comma-separated, from {', '.join(LAYERS)}")
    parser.add_argument("--parent-src", type=Path)
    parser.add_argument("--e2e-parent", type=Path)
    parser.add_argument("--e2e-change", type=Path)
    args = parser.parse_args()
    if not (args.out and args.layers):
        parser.error("--out and --layers are required")
    names = args.layers.split(",")
    unknown = [name for name in names if name not in LAYERS]
    if unknown:
        parser.error(f"unknown layers: {', '.join(unknown)}")
    parent_src = args.parent_src.resolve() if args.parent_src else None
    doc = {
        "host": {
            "cpu": cpu_model(),
            "cores": str(os.cpu_count()),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "layers": {name: layer_record(LAYERS[name], parent_src) for name in names},
    }
    if args.e2e_parent and args.e2e_change:
        doc["end_to_end"] = e2e_summary(args.e2e_parent, args.e2e_change)
        doc["per_layer_trace"] = trace_summary(args.e2e_parent, args.e2e_change)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
