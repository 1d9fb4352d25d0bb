"""JSON-emitting command-line surface.

Every command prints one JSON document with the full parameter echo
(resolved modulus and a_param included) so runs are reproducible; all
numeric values are decimal strings, field elements and moduli are hex.
Exit status: 0 success, 1 verification mismatch, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import random
import sys
from math import comb

from . import __version__
from .finite_field import (
    FieldCtx,
    _raw_mul,
    default_modulus,
    inv,
    make_field,
    mul,
    parse_hex,
    theta_subgroup,
    to_hex,
    trace,
)
from .kloosterman import (
    BudgetError,
    artin_schreier_sums,
    carlitz_k2,
    direct_sum_fits,
    kgl_closed,
    kgl_recursive,
    kloosterman_spectrum,
    kloosterman_sum,
    power_moment_oracle,
    predicted_spectrum,
    range_spectrum,
    twisted_sum_check,
)

# The group, code and recursion layers are imported inside the functions that
# use them, so `--help`, `field` and `kloos` never load them.

MAX_VERIFY_R = 8
SYM_SUM_DIMS = {2: ((1, 2, 3), (1, 2)), 4: ((1, 2), (1,)), 8: ((1, 2), ())}  # by q; see _check_symmetric_sum
SIGNS = {"plus": "+", "minus": "-"}


def _dec(x: int) -> str:
    return str(int(x))


def _field_from_args(args: argparse.Namespace) -> FieldCtx:
    modulus = parse_hex(args.modulus) if args.modulus else None
    a_param = parse_hex(args.a_param) if args.a_param else None
    return make_field(args.r, modulus, a_param)


def _field_echo(ctx: FieldCtx) -> dict:
    return {
        "r": _dec(ctx.r),
        "q": _dec(ctx.q),
        "modulus": to_hex(ctx.modulus),
        "a_param": to_hex(ctx.a_param),
    }


def _spec_from_args(args: argparse.Namespace, ctx: FieldCtx) -> DoubleCosetSpec:
    from .ominus_groups import DoubleCosetSpec
    return DoubleCosetSpec(args.family, SIGNS[args.sign], args.n, ctx)


def _spec_echo(spec: DoubleCosetSpec) -> dict:
    return {"family": _dec(spec.family), "sign": spec.sign, "n": _dec(spec.n)}


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
        # K_2 reads the spectrum; kloosterman_sum rejects an a outside the units
        if args.m == 2 and 0 < a < ctx.q:
            result["value"] = _dec(kloosterman_spectrum(ctx, 2)[a])
        else:
            result["value"] = _dec(kloosterman_sum(ctx, args.m, a))
    if args.hmax is not None:
        params["h_max"] = _dec(args.hmax)
        series = power_moment_oracle(ctx, args.m, args.hmax)
        result["moments"] = [_dec(v) for v in series.values]
    return _doc("kloos", params, result), 0


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    from .ominus_groups import dc_cardinality, q_minus_order, trace_distribution
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
    from .ominus_groups import bruhat_cell_order
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
    from .ominus_groups import dc_cardinality, exp_sums_dc
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


# ---------------------------------------------------------------------------
# the verify-all registry; the plan builds each degree's field once and passes
# it to every check of that degree, and forked workers inherit the whole plan


def _check_stirling() -> None:
    from .moment_recursion import stirling2, stirling2_alternating
    for h in range(21):
        for t in range(h + 1):
            if stirling2(h, t) != stirling2_alternating(h, t):
                raise AssertionError(f"triangle and alternating forms differ at ({h},{t})")


def _check_field_construction(r: int, modulus: int) -> None:
    ctx = make_field(r, modulus)
    q = ctx.q
    if sum(trace(ctx, x) for x in range(q)) != q // 2:
        raise AssertionError("trace must split the field in half")
    if trace(ctx, ctx.a_param) != 1:
        raise AssertionError("a_param must have absolute trace one")
    if set(theta_subgroup(ctx)) != {x for x in range(q) if trace(ctx, x) == 0}:
        raise AssertionError("the x^2 + x image must equal the trace kernel")


def _check_field_axioms(ctx: FieldCtx) -> None:
    # x * x^-1 = 1 holds by construction of the log tables; compare with the carry-less product
    q, r, modulus = ctx.q, ctx.r, ctx.modulus
    rng = random.Random(0xC0DE + r)
    for _ in range(300):
        x, y, z = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        if mul(ctx, x, mul(ctx, y, z)) != _raw_mul(x, _raw_mul(y, z, modulus, r), modulus, r):
            raise AssertionError(f"product fails at {to_hex(x)},{to_hex(y)},{to_hex(z)}")
        if mul(ctx, x, y ^ z) != mul(ctx, x, y) ^ mul(ctx, x, z):
            raise AssertionError(f"distributivity fails at {to_hex(x)},{to_hex(y)},{to_hex(z)}")
    for x in range(1, q):
        if mul(ctx, x, x) != _raw_mul(x, x, modulus, r):
            raise AssertionError(f"square fails at {to_hex(x)}")
        if _raw_mul(x, inv(ctx, x), modulus, r) != 1:
            raise AssertionError(f"inverse fails at {to_hex(x)}")


def _check_moment_oracle(ctx: FieldCtx) -> None:
    series = power_moment_oracle(ctx, 1, 2)
    if series.values[1] != 1:
        raise AssertionError("the first power moment must be 1")
    if series.values[2] != ctx.q * ctx.q - ctx.q - 1:
        raise AssertionError("the second power moment must be q^2 - q - 1")
    spectrum = kloosterman_spectrum(ctx, 1)
    for a in range(1, ctx.q):
        if spectrum[a] != kloosterman_sum(ctx, 1, a):
            raise AssertionError(f"spectrum differs from the direct sum at a = {to_hex(a)}")


def _check_carlitz(ctx: FieldCtx) -> None:
    spectrum = kloosterman_spectrum(ctx, 2)
    for a in range(1, ctx.q):
        if spectrum[a] != carlitz_k2(ctx, a):
            raise AssertionError(f"two-dimensional spectrum mismatch at a = {to_hex(a)}")
    if direct_sum_fits(ctx.q, 2):  # the direct double sum at two points
        for a in {1, ctx.a_param}:
            if kloosterman_sum(ctx, 2, a) != spectrum[a]:
                raise AssertionError(f"two-dimensional sum mismatch at a = {to_hex(a)}")


def _check_weil_bound(ctx: FieldCtx) -> None:
    for a in range(1, ctx.q):
        k = kloosterman_sum(ctx, 1, a)
        if k * k > 4 * ctx.q:
            raise AssertionError(f"square-root bound violated at a = {to_hex(a)}")


def _check_frobenius(ctx: FieldCtx) -> None:
    for a in range(1, ctx.q):
        if kloosterman_sum(ctx, 1, mul(ctx, a, a)) != kloosterman_sum(ctx, 1, a):
            raise AssertionError(f"conjugate arguments disagree at a = {to_hex(a)}")


def _check_twisted_sums(ctx: FieldCtx) -> None:
    for m in (1, 2):
        for beta in range(ctx.q):
            lhs, rhs = twisted_sum_check(ctx, m, beta)
            if lhs != rhs:
                raise AssertionError(f"twisted identity fails at m={m}, beta={to_hex(beta)}")


def _check_artin_schreier(ctx: FieldCtx) -> None:
    for beta in range(1, ctx.q):
        s0, s1 = artin_schreier_sums(ctx, beta)
        k = kloosterman_sum(ctx, 1, beta)
        if s0 != k - 1 or s1 != -k - 1:
            raise AssertionError(f"quadratic-fiber sums fail at beta = {to_hex(beta)}")


def _check_kgl(ctx: FieldCtx) -> None:
    for t in range(1, 7):
        for a in {1, ctx.a_param}:
            if a and kgl_recursive(ctx, t, a) != kgl_closed(ctx, t, a):
                raise AssertionError(f"matrix-average forms differ at t={t}, a={to_hex(a)}")


def _check_range_spectrum(ctx: FieldCtx) -> None:
    if range_spectrum(ctx) != predicted_spectrum(ctx.q):
        raise AssertionError("attained values must fill the predicted residue range")


def _check_symmetric_sum(ctx: FieldCtx, dims: tuple[int, ...], direct: tuple[int, ...]) -> None:
    from .ominus_groups import b_r_sum, b_r_sum_closed, b_r_sum_reduced
    for dim in dims:
        reduced = b_r_sum_reduced(ctx, dim)  # no reduced term depends on the twist
        if reduced != b_r_sum_closed(ctx, dim):
            raise AssertionError(f"symmetric-matrix sum mismatch at dim = {dim}")
        for twist in sorted({1, ctx.a_param}) if dim in direct else ():
            if b_r_sum(ctx, dim, twist) != reduced:
                raise AssertionError(f"direct and reduced sums differ at dim = {dim}, twist {to_hex(twist)}")


def _check_so2(ctx: FieldCtx) -> None:
    from .ominus_groups import (
        O2_COSET_REP, enumerate_so2, is_isometry_exhaustive, isometry_relations, scan_fits,
    )
    group = enumerate_so2(ctx)
    for m in group:
        if not isometry_relations(ctx, 1, m):
            raise AssertionError("a norm-one element fails the isometry relations")
    if scan_fits(ctx.q, 1):
        for m in group[:8]:
            if not is_isometry_exhaustive(ctx, 1, m):
                raise AssertionError("a norm-one element fails the exhaustive scan")
    if not isometry_relations(ctx, 1, O2_COSET_REP):
        raise AssertionError("the outer coset representative must be an isometry")
    if O2_COSET_REP in group:
        raise AssertionError("the outer coset representative must lie outside")


def _check_parabolic_cells(ctx: FieldCtx, n: int) -> None:
    from .ominus_groups import (
        bruhat_cell_cosets, bruhat_cell_order, dc_cardinality, enumerate_q_minus,
        is_isometry_exhaustive, isometry_relations, o_minus_order, p_minus_order,
        parabolic_indices, scan_fits, valid_specs,
    )
    q = ctx.q
    qm = enumerate_q_minus(ctx, n)  # its size is the r = 0 cell's, checked below
    step = max(1, len(qm) // 64)
    for m in qm[::step]:
        if not isometry_relations(ctx, n, m):
            raise AssertionError("a parabolic element fails the isometry relations")
    if scan_fits(q, n):
        for m in qm[:4]:
            if not is_isometry_exhaustive(ctx, n, m):
                raise AssertionError("a parabolic element fails the exhaustive scan")
    union: set = set()
    total = 0
    for rr in range(n):
        a_ord, index = parabolic_indices(ctx, n, rr)
        if a_ord * index != p_minus_order(q, n):
            raise AssertionError(f"stabilizer order times index must be |P^-| at r = {rr}")
        for twisted in (False, True):
            cell = bruhat_cell_cosets(ctx, n, rr, twisted)
            if not len(cell) == bruhat_cell_order(q, n, rr) == len(qm) * index:
                raise AssertionError(f"cell size mismatch at r = {rr}, twisted = {twisted}")
            union.update(cell)
            total += len(cell)
    if total != o_minus_order(q, n) or len(union) != total:
        raise AssertionError("cells must partition the whole isometry group")
    for spec in valid_specs(ctx, n):
        dc_cardinality(spec)  # internal consistency assertion runs here


def _check_exp_sums(ctx: FieldCtx, n: int) -> None:
    from .ominus_groups import exp_sums_dc, valid_specs
    for spec in valid_specs(ctx, n):
        enumerated, closed = exp_sums_dc(spec, "enumerated"), exp_sums_dc(spec)
        for a in range(1, ctx.q):
            if enumerated[a] != closed[a]:
                raise AssertionError(
                    f"character sum mismatch at family {spec.family}, a = {to_hex(a)}"
                )


def _check_trace_distributions(ctx: FieldCtx, n: int) -> None:
    from .ominus_groups import trace_distribution, valid_specs
    for spec in valid_specs(ctx, n):
        if trace_distribution(spec, "enumerated") != trace_distribution(spec, "closed_form"):
            raise AssertionError(f"trace distribution mismatch at family {spec.family}")


def _code_specs(ctx: FieldCtx) -> list[DoubleCosetSpec]:
    from .ominus_groups import valid_specs
    return valid_specs(ctx, 1) + (valid_specs(ctx, 2) if ctx.q == 2 else [])


def _check_codes(ctx: FieldCtx) -> None:
    from .coset_codes import (
        DUALITY_N_LIMIT, MACWILLIAMS_N_LIMIT, closed_weights, delsarte_check, dual_codeword,
        full_weight_distribution_small, weight_distribution_prefix,
    )
    from .ominus_groups import dc_cardinality
    for spec in _code_specs(ctx):
        weights = closed_weights(spec)
        for a in range(1, ctx.q):
            if weights[a] != sum(dual_codeword(spec, a)):
                raise AssertionError(
                    f"closed weight differs from popcount at family {spec.family}, a = {to_hex(a)}"
                )
        length = dc_cardinality(spec)[2]
        if length <= DUALITY_N_LIMIT and not delsarte_check(spec):
            raise AssertionError(f"duality check fails at family {spec.family}")
        if length <= MACWILLIAMS_N_LIMIT:
            full = full_weight_distribution_small(spec)
            prefix = weight_distribution_prefix(spec, min(6, length)).counts
            if tuple(full[: len(prefix)]) != prefix:
                raise AssertionError(f"distribution prefix mismatch at family {spec.family}")
            if any(full[j] != full[length - j] for j in range(length + 1)):
                raise AssertionError(f"distribution symmetry fails at family {spec.family}")


def _check_pless(ctx: FieldCtx) -> None:
    from .coset_codes import degenerate_kernel
    from .moment_recursion import pless_check
    for spec in _code_specs(ctx):
        if degenerate_kernel(spec):
            try:
                pless_check(spec, 1)
            except ValueError:
                continue
            raise AssertionError("a degenerate kernel must be rejected")
        for h in range(1, 6):
            lhs, rhs = pless_check(spec, h)
            if lhs != rhs:
                raise AssertionError(f"power moment identity fails at family {spec.family}, h={h}")


def _check_recursions(ctx: FieldCtx) -> None:
    from .moment_recursion import recursion_series, recursive_moments, smallest_case_recursions
    from .ominus_groups import first_specs
    for spec in first_specs(ctx):
        try:
            series_list = recursion_series(spec)
        except ValueError:
            continue  # outside the recursion domain at this q
        for series in series_list:
            report = recursive_moments(spec, 4, series)
            if not all(report.agree):
                raise AssertionError(
                    f"recursion disagrees with the oracle at family {spec.family}{spec.sign}, "
                    f"series {report.series}"
                )
    for variant in ("a", "b"):
        rep = smallest_case_recursions(ctx, variant, 4)
        if not all(rep.agree):
            raise AssertionError(f"smallest-case variant {variant} disagrees with the oracle")
        general = recursive_moments(rep.spec, 4, with_oracle=False)
        if rep.recursion_values.values != general.recursion_values.values:
            raise AssertionError(f"smallest-case variant {variant} differs from the general form")


CheckEntry = tuple[str, object, tuple, str]


def _build_checks(max_r: int, overrides: dict[int, int]) -> list[CheckEntry]:
    from .ominus_groups import products_fit, q_minus_fits
    plan: list[CheckEntry] = [("stirling-triangle-vs-alternating", _check_stirling, (), "")]
    for r in range(1, max_r + 1):
        modulus = overrides.get(r, default_modulus(r))
        q = 1 << r
        # (name, check, the arguments after the field context)
        entries: list[tuple[str, object, tuple]] = [
            (f"field-axioms-r{r}", _check_field_axioms, ()),
            (f"moment-oracle-r{r}", _check_moment_oracle, ()),
            (f"carlitz-two-dimensional-r{r}", _check_carlitz, ()),
            (f"weil-bound-r{r}", _check_weil_bound, ()),
            (f"frobenius-invariance-r{r}", _check_frobenius, ()),
            (f"twisted-sums-r{r}", _check_twisted_sums, ()),
            (f"artin-schreier-fibers-r{r}", _check_artin_schreier, ()),
            (f"matrix-average-recursion-r{r}", _check_kgl, ()),
        ]
        if r >= 2:
            entries.append((f"range-spectrum-r{r}", _check_range_spectrum, ()))
        entries.append((f"symmetric-matrix-sum-r{r}", _check_symmetric_sum, SYM_SUM_DIMS.get(q, ((1,), ()))))
        entries.append((f"so2-isometries-r{r}", _check_so2, ()))
        for n in (1, 2, 3):
            if q_minus_fits(q, n) and products_fit(q, n):
                entries += [
                    (f"parabolic-cells-n{n}-r{r}", _check_parabolic_cells, (n,)),
                    (f"character-sums-n{n}-r{r}", _check_exp_sums, (n,)),
                    (f"trace-distributions-n{n}-r{r}", _check_trace_distributions, (n,)),
                ]
        if q_minus_fits(q, 1):
            entries.append((f"code-weights-and-duality-r{r}", _check_codes, ()))
        entries += [
            (f"power-moment-identity-r{r}", _check_pless, ()),
            (f"recursions-vs-oracle-r{r}", _check_recursions, ()),
        ]
        plan.append((f"field-construction-r{r}", _check_field_construction, (r, modulus), ""))
        try:
            ctx = make_field(r, modulus)
        except ValueError as exc:
            reason = f"field construction failed: {exc}"
            plan += [(name, None, (), reason) for name, _, _ in entries]
        else:
            plan += [(name, func, (ctx, *fargs), "") for name, func, fargs in entries]
        if r < 2:
            plan.append((f"range-spectrum-r{r}", None, (), "needs r >= 2"))
    return plan


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
    plan = _build_checks(max_r, modulus_overrides or {})
    if workers == 1 or not hasattr(os, "fork"):  # serial where the platform cannot fork
        return [_run_check(entry) for entry in plan]
    # every layer the checks read is compiled here, once, rather than in each forked worker
    from . import coset_codes, moment_recursion, ominus_groups  # noqa: F401
    by_args: dict[tuple, list[int]] = {}  # plan indices by argument tuple, in plan order
    for index, entry in enumerate(plan):
        by_args.setdefault(entry[2], []).append(index)
    tasks = list(by_args.values())
    queue, feed = os.pipe()
    with open(feed, "wb") as pipe:  # every task number before the first fork; they fit the buffer
        pipe.write(b"".join(task.to_bytes(4, "little") for task in range(len(tasks))))
    pids, pipes = [], []
    try:  # forked workers run every check; the parent reads their pipes and reaps them
        for _ in range(min(workers, len(tasks))):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _serve_tasks(plan, tasks, queue, write_end)
            finally:
                os.close(write_end)  # so the pipe ends when its worker does
            pids.append(pid)
        blobs = [pipe.read() for pipe in pipes]
    finally:
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


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True, help="extension degree of GF(2^r)")
    p.add_argument("--modulus", help="irreducible modulus bitmask, hex")
    p.add_argument("--a-param", dest="a_param", help="trace-one form parameter, hex")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--sign", required=True, choices=tuple(SIGNS))
    p.add_argument("--n", type=int, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetmoments",
        description="Exact Kloosterman power moments from orthogonal-group double cosets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="construct GF(2^r) and report its parameters")
    _add_field_args(p)
    p.set_defaults(handler=_cmd_field)

    p = sub.add_parser("kloos", help="Kloosterman sums and their power moments")
    _add_field_args(p)
    p.add_argument("--m", type=int, default=1, help="dimension of the sum")
    p.add_argument("--a", help="argument, hex")
    p.add_argument("--hmax", type=int, help="compute power moments up to this h")
    p.set_defaults(handler=_cmd_kloos)

    p = sub.add_parser("enumerate", help="enumerate a double coset and verify its closed forms")
    _add_field_args(p)
    _add_spec_args(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("weights", help="codeword weights and weight-distribution prefix")
    _add_field_args(p)
    _add_spec_args(p)
    p.add_argument("--jmax", type=int, help="weight-distribution prefix cutoff")
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("moments", help="solve the power-moment recursions")
    _add_field_args(p)
    _add_spec_args(p)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--series", choices=("mk2", "mk-even"))
    p.add_argument("--verify", action="store_true", help="compare against the brute-force oracle")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.add_argument("--max-r", dest="max_r", type=int, default=2)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--modulus-override",
        action="append",
        help="R:HEX modulus replacement, mainly for negative testing",
    )
    p.set_defaults(handler=_cmd_verify_all)

    for command in sub.choices.values():
        command.add_argument("--out", help="write the JSON document here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.handler(args)
    except (ValueError, RuntimeError) as exc:  # bad input, or a verify-all worker that died
        print(str(exc), file=sys.stderr)
        return 2
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as sink:
                sink.write(payload)
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
