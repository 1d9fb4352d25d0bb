"""Seeded job lists for the three benchmark workloads.

Every job is the argv of one `cosetmoments` CLI invocation. The seed picks
the moduli, the trace-one form parameters and the point-query arguments;
the same seed always yields the same argv list. Just enough GF(2)[z]
arithmetic is re-implemented here to draw valid moduli and trace-one
elements without importing the program under test.

Why each workload exists:

- moments: the Pless-recursion path. The XOR-state DP in
  coset_codes.prefix_counts_from_distribution dominates; kloosterman only
  contributes one r = 8 oracle per job and ominus_groups only closed forms.
- spectrum: the direct character-sum path on the bit-serial multiply
  (q > 256). The whole spectrum is O(q^2); a point query is O(q) and
  dominated by building the inverse table. No coset_codes, moment_recursion
  or ominus_groups code runs.
- verify: the group enumerations and the symmetric-matrix sum in
  ominus_groups, the table-path field arithmetic (q <= 256) and the
  verify-all process pool, whose wall time is set by its longest check.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1287
WORKLOADS = ("moments", "spectrum", "verify")

MOMENTS_R = 8
# (family, sign, n, hmax); family 2 emits both of its series (mk2 and mk-even).
# Each hmax puts its job near 1.1 s, so every spec weighs about the same in
# the pass time and the median job time is not the time of one outlying spec.
MOMENT_SPECS = (
    (1, "plus", 2, 10),
    (1, "minus", 1, 30),
    (3, "minus", 3, 8),
    (3, "plus", 2, 16),
    (2, "plus", 2, 7),
)
SPECTRUM_R = 10
SPECTRUM_HMAX = 4
POINT_R = 12
POINT_QUERIES = 3
# max-r 2 keeps a job near 5 s, so a run holds several; from max-r 3 on the
# GF(8) symmetric-matrix sum alone takes about 15 s
VERIFY_MAX_R = 2
VERIFY_WORKERS = 2  # the traced run uses 1 so every span lives in one process


def _poly_rem(a: int, b: int) -> int:
    width = b.bit_length()
    while a.bit_length() >= width:
        a ^= b << (a.bit_length() - width)
    return a


def is_irreducible(poly: int, r: int) -> bool:
    """True when poly has degree r and no factor of degree 1..r//2."""
    if poly.bit_length() != r + 1:
        return False
    return all(
        _poly_rem(poly, cand) for d in range(1, r // 2 + 1) for cand in range(1 << d, 1 << (d + 1))
    )


def gf_mul(x: int, y: int, modulus: int, r: int) -> int:
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if (x >> r) & 1:
            x ^= modulus
    return acc


def gf_trace(x: int, modulus: int, r: int) -> int:
    acc = t = x
    for _ in range(r - 1):
        t = gf_mul(t, t, modulus, r)
        acc ^= t
    return acc


def random_irreducible(rng: random.Random, r: int) -> int:
    while True:
        cand = rng.randrange(1 << r, 1 << (r + 1))
        if is_irreducible(cand, r):
            return cand


def random_trace_one(rng: random.Random, modulus: int, r: int) -> int:
    while True:
        x = rng.randrange(1 << r)
        if gf_trace(x, modulus, r) == 1:
            return x


def _hex(x: int) -> str:
    return "0x%X" % x


def jobs(workload: str, seed: int, traced: bool = False) -> list[list[str]]:
    """The argv list of one pass over the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "moments":
        out = []
        for family, sign, n, hmax in MOMENT_SPECS:
            modulus = random_irreducible(rng, MOMENTS_R)
            a_param = random_trace_one(rng, modulus, MOMENTS_R)
            out.append([
                "moments", "--r", str(MOMENTS_R), "--modulus", _hex(modulus),
                "--a-param", _hex(a_param), "--family", str(family), "--sign", sign,
                "--n", str(n), "--hmax", str(hmax), "--verify",
            ])
        return out
    if workload == "spectrum":
        modulus = random_irreducible(rng, SPECTRUM_R)
        out = [[
            "kloos", "--r", str(SPECTRUM_R), "--modulus", _hex(modulus),
            "--hmax", str(SPECTRUM_HMAX),
        ]]
        for _ in range(POINT_QUERIES):
            modulus = random_irreducible(rng, POINT_R)
            a = rng.randrange(1, 1 << POINT_R)
            out.append(["kloos", "--r", str(POINT_R), "--modulus", _hex(modulus), "--a", _hex(a)])
        return out
    if workload == "verify":
        argv = [
            "verify-all", "--max-r", str(VERIFY_MAX_R),
            "--workers", "1" if traced else str(VERIFY_WORKERS),
        ]
        for r in range(1, VERIFY_MAX_R + 1):
            argv += ["--modulus-override", f"{r}:{_hex(random_irreducible(rng, r))}"]
        return [argv]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
