"""The commands that read a double-coset spec: `enumerate`, `weights` and `moments`.

`cli` imports this module for these three commands alone, so `--help`, `field`, `kloos` and
`verify-all` never compile it; it reads the document helpers from `cli`."""

from __future__ import annotations

import argparse
import sys
from math import comb

from .cli import SIGNS, _dec, _doc, _field_echo, _field_from_args
from .finite_field import FieldCtx, to_hex
from .kloosterman import BudgetError


def _spec_from_args(args: argparse.Namespace, ctx: FieldCtx) -> DoubleCosetSpec:
    from .double_cosets import DoubleCosetSpec
    return DoubleCosetSpec(args.family, SIGNS[args.sign], args.n, ctx)


def _spec_echo(spec: DoubleCosetSpec) -> dict:
    return {"family": _dec(spec.family), "sign": spec.sign, "n": _dec(spec.n)}


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    from .double_cosets import dc_cardinality, q_minus_order, trace_distribution
    ctx = _field_from_args(args)
    spec = _spec_from_args(args, ctx)
    params = _field_echo(ctx) | _spec_echo(spec)
    _refuse_unprintable(spec)
    a_cnt, b_cnt, total = dc_cardinality(spec)
    closed_dist = trace_distribution(spec, "closed_form")
    result: dict = {
        "a": _dec(a_cnt),
        "b": _dec(b_cnt),
        "size": _dec(total),
        "q_minus_order": _dec(q_minus_order(ctx.q, spec.n)),
        "trace_distribution": {to_hex(k): _dec(v) for k, v in closed_dist.items()},
    }
    code = 0
    try:
        enum_dist = trace_distribution(spec, "enumerated")
        size = sum(enum_dist.values())
        result["enumerated"] = {
            "size": _dec(size),
            "trace_distribution": {to_hex(k): _dec(v) for k, v in enum_dist.items()},
        }
        ok = size == total and enum_dist == closed_dist
        result["verified"] = ok
        if not ok:
            code = 1
    except BudgetError:
        result["enumerated"] = None
        result["verified"] = None
    return _doc("enumerate", params, result), code


def _refuse_unprintable(spec: DoubleCosetSpec, j_max: int | None = None) -> None:
    """Refuse, before the closed forms, a j_max outside the prefix range, and a weight prefix
    or coset size N with more decimal digits than int-to-string conversion allows.  Every N past
    the limit counts as 10^digits: the prefix bound C_j <= binom(N, j) is at least N for
    1 <= j <= N/2.  N >= q^(n^2 - n) and binom(N, j) >= (N/j)^j > 2^low, with low read from bit
    lengths, decide a large n or j at once; N and binom(N, j) are computed only where they do
    not, so they are small."""
    from .coset_codes import PREFIX_J_LIMIT
    from .double_cosets import bruhat_cell_order
    if j_max is not None and not 0 <= j_max <= PREFIX_J_LIMIT:
        raise ValueError(f"j_max must lie in 0..{PREFIX_J_LIMIT}")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if not digits:
        return
    cap = 10 ** digits
    big = 3 * spec.ctx.r * (spec.n ** 2 - spec.n) >= 10 * digits  # 2^10 > 10^3
    length = cap if big else min(bruhat_cell_order(spec.ctx.q, spec.n, spec.sigma_index), cap)
    j = min(j_max or 0, length // 2)
    low = j * (length.bit_length() - 1 - j.bit_length())
    if j and (3 * low >= 10 * digits or comb(length, j) >= cap):
        raise BudgetError(f"the weight prefix to j_max = {j_max} may hold counts of more than "
                          f"{digits} decimal digits, which cannot be printed; lower --jmax")
    if length == cap:
        raise BudgetError(f"the coset size at --n {spec.n} has more than {digits} decimal digits, "
                          "which cannot be printed; lower --n")


def _cmd_weights(args: argparse.Namespace) -> tuple[dict, int]:
    from .coset_codes import closed_weights, weight_distribution_prefix
    from .double_cosets import dc_cardinality, exp_sums_dc
    ctx = _field_from_args(args)
    spec = _spec_from_args(args, ctx)
    params = _field_echo(ctx) | _spec_echo(spec)
    _refuse_unprintable(spec, args.jmax)
    total = dc_cardinality(spec)[2]
    closed = closed_weights(spec)
    weights = {to_hex(a): _dec(closed[a]) for a in range(1, ctx.q)}
    result: dict = {"length": _dec(total), "weights": weights}
    code = 0
    try:
        sums = exp_sums_dc(spec, "enumerated")
        ok = all(2 * closed[a] == total - sums[a] for a in range(1, ctx.q))
        result["popcount_verified"] = ok
        if not ok:
            code = 1
    except BudgetError:
        result["popcount_verified"] = None
    if args.jmax is not None:
        params["j_max"] = _dec(args.jmax)
        prefix = weight_distribution_prefix(spec, args.jmax)
        result["weight_prefix"] = [_dec(c) for c in prefix.counts]
    return _doc("weights", params, result), code


def _report_doc(report) -> dict:
    spec = report.spec
    rec = report.recursion_values.values
    orc = report.oracle_values.values if report.oracle_values is not None else None
    rows = []
    for h in range(report.h_max + 1):
        rows.append(
            {
                "h": _dec(h),
                "recursion": _dec(rec[h]),
                "oracle": None if orc is None else _dec(orc[h]),
                "agree": None if report.agree is None else report.agree[h],
            }
        )
    return {
        "family": _dec(spec.family),
        "sign": spec.sign,
        "n": _dec(spec.n),
        "r": _dec(spec.ctx.r),
        "q": _dec(spec.ctx.q),
        "series": report.series,
        "h": rows,
    }


def _cmd_moments(args: argparse.Namespace) -> tuple[dict, int]:
    from .moment_recursion import recursion_series, recursive_moments
    ctx = _field_from_args(args)
    spec = _spec_from_args(args, ctx)
    params = _field_echo(ctx) | _spec_echo(spec)
    params["h_max"] = _dec(args.hmax)
    params["verify"] = bool(args.verify)
    if args.series is not None:
        series_list = (args.series.replace("-", "_"),)
        params["series"] = args.series
    else:
        series_list = recursion_series(spec)
    reports = [
        recursive_moments(spec, args.hmax, series, with_oracle=args.verify)
        for series in series_list
    ]
    code = 0
    if args.verify and not all(all(rep.agree) for rep in reports):
        code = 1
    return _doc("moments", params, {"reports": [_report_doc(rep) for rep in reports]}), code
