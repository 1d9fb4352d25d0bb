"""The verify-all checks, each a closed form or fast path against its oracle.

Only `verify-all` loads this module, and importing it loads every layer the
checks read, so forked workers compile none of their own.  `_build_checks`
plans the checks for every degree up to max_r, building each degree's field
once for all its checks; `cli` runs the plan, and forked workers inherit it.
The checks call the closed-form, group, code and recursion layers through
their modules, so a name patched in its defining module is the one a check
reads.
"""

from __future__ import annotations

import random

from . import coset_codes, double_cosets, moment_recursion, ominus_groups
from .finite_field import (
    FieldCtx, _raw_mul, default_modulus, inv, make_field, mul, theta_subgroup, to_hex, trace,
)
from .kloosterman import (
    artin_schreier_sums, carlitz_k2, direct_sum_fits, kgl_closed, kgl_recursive, kloosterman_spectrum,
    kloosterman_sum, power_moment_oracle, predicted_spectrum, range_spectrum, twisted_sum_check,
)

SYM_SUM_DIMS = {2: ((1, 2, 3), (1, 2)), 4: ((1, 2), (1,)), 8: ((1, 2), ())}  # by q; see _check_symmetric_sum


def _check_stirling() -> None:
    for h in range(21):
        for t in range(h + 1):
            if moment_recursion.stirling2(h, t) != moment_recursion.stirling2_alternating(h, t):
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
    for dim in dims:
        reduced = ominus_groups.b_r_sum_reduced(ctx, dim)  # no reduced term depends on the twist
        if reduced != double_cosets.b_r_sum_closed(ctx, dim):
            raise AssertionError(f"symmetric-matrix sum mismatch at dim = {dim}")
        for twist in sorted({1, ctx.a_param}) if dim in direct else ():
            if ominus_groups.b_r_sum(ctx, dim, twist) != reduced:
                raise AssertionError(f"direct and reduced sums differ at dim = {dim}, twist {to_hex(twist)}")


def _check_isometries(ctx: FieldCtx, n: int, group, step: int, scans: int, what: str) -> None:
    """Every step-th element of group must satisfy the isometry relations, and its first
    `scans` elements the exhaustive scan where that fits its budget."""
    for m in group[::step]:
        if not ominus_groups.isometry_relations(ctx, n, m):
            raise AssertionError(f"a {what} element fails the isometry relations")
    if ominus_groups.scan_fits(ctx.q, n):
        for m in group[:scans]:
            if not ominus_groups.is_isometry_exhaustive(ctx, n, m):
                raise AssertionError(f"a {what} element fails the exhaustive scan")


def _check_so2(ctx: FieldCtx) -> None:
    group = ominus_groups.enumerate_so2(ctx)
    _check_isometries(ctx, 1, group, 1, 8, "norm-one")
    if not ominus_groups.isometry_relations(ctx, 1, ominus_groups.O2_COSET_REP):
        raise AssertionError("the outer coset representative must be an isometry")
    if ominus_groups.O2_COSET_REP in group:
        raise AssertionError("the outer coset representative must lie outside")


def _check_parabolic_cells(ctx: FieldCtx, n: int) -> None:
    q = ctx.q
    qm = ominus_groups.enumerate_q_minus(ctx, n)  # its size is the r = 0 cell's, checked below
    _check_isometries(ctx, n, qm, max(1, len(qm) // 64), 4, "parabolic")
    cells = []
    for rr in range(n):
        a_ord, index = double_cosets.parabolic_indices(ctx, n, rr)
        if a_ord * index != double_cosets.p_minus_order(q, n):
            raise AssertionError(f"stabilizer order times index must be |P^-| at r = {rr}")
        for twisted in (False, True):
            cell = ominus_groups.bruhat_cell_lanes(ctx, n, rr, twisted)  # (lanes, count)
            if not cell[1] == double_cosets.bruhat_cell_order(q, n, rr) == len(qm) * index:
                raise AssertionError(f"cell size mismatch at r = {rr}, twisted = {twisted}")
            cells.append(cell)
    # each cell is a double coset of Q^- (the walk checked its right cosets), and two double cosets
    # meet only if equal: a cell that holds no lowest lane of a later cell is disjoint from them all
    lowest = [lanes & (1 << 64) - 1 for lanes, _ in cells]
    if sum(count for _, count in cells) != double_cosets.o_minus_order(q, n) or any(
            ominus_groups.cell_holds_any(cell, lowest[i + 1:]) for i, cell in enumerate(cells)):
        raise AssertionError("cells must partition the whole isometry group")
    for spec in double_cosets.valid_specs(ctx, n):
        double_cosets.dc_cardinality(spec)  # internal consistency assertion runs here


def _check_exp_sums(ctx: FieldCtx, n: int) -> None:
    for spec in double_cosets.valid_specs(ctx, n):
        enumerated, closed = double_cosets.exp_sums_dc(spec, "enumerated"), double_cosets.exp_sums_dc(spec)
        for a in range(1, ctx.q):
            if enumerated[a] != closed[a]:
                raise AssertionError(f"character sum mismatch at family {spec.family}, a = {to_hex(a)}")


def _check_trace_distributions(ctx: FieldCtx, n: int) -> None:
    for spec in double_cosets.valid_specs(ctx, n):
        enumerated = double_cosets.trace_distribution(spec, "enumerated")
        if enumerated != double_cosets.trace_distribution(spec, "closed_form"):
            raise AssertionError(f"trace distribution mismatch at family {spec.family}")


def _code_specs(ctx: FieldCtx) -> list[double_cosets.DoubleCosetSpec]:
    return double_cosets.valid_specs(ctx, 1) + (double_cosets.valid_specs(ctx, 2) if ctx.q == 2 else [])


def _check_codes(ctx: FieldCtx) -> None:
    for spec in _code_specs(ctx):
        weights = coset_codes.closed_weights(spec)
        for a in range(1, ctx.q):
            if weights[a] != sum(coset_codes.dual_codeword(spec, a)):
                raise AssertionError(
                    f"closed weight differs from popcount at family {spec.family}, a = {to_hex(a)}"
                )
        length = double_cosets.dc_cardinality(spec)[2]
        if length <= coset_codes.DUALITY_N_LIMIT and not coset_codes.delsarte_check(spec):
            raise AssertionError(f"duality check fails at family {spec.family}")
        if length <= coset_codes.MACWILLIAMS_N_LIMIT:
            full = coset_codes.full_weight_distribution_small(spec)
            prefix = coset_codes.weight_distribution_prefix(spec, min(6, length)).counts
            if tuple(full[: len(prefix)]) != prefix:
                raise AssertionError(f"distribution prefix mismatch at family {spec.family}")
            if any(full[j] != full[length - j] for j in range(length + 1)):
                raise AssertionError(f"distribution symmetry fails at family {spec.family}")


def _check_pless(ctx: FieldCtx) -> None:
    for spec in _code_specs(ctx):
        if coset_codes.degenerate_kernel(spec):
            try:
                moment_recursion.pless_check(spec, 1)
            except ValueError:
                continue
            raise AssertionError("a degenerate kernel must be rejected")
        for h in range(1, 6):
            lhs, rhs = moment_recursion.pless_check(spec, h)
            if lhs != rhs:
                raise AssertionError(f"power moment identity fails at family {spec.family}, h={h}")


def _check_recursions(ctx: FieldCtx) -> None:
    for spec in double_cosets.first_specs(ctx):
        try:
            series_list = moment_recursion.recursion_series(spec)
        except ValueError:
            continue  # outside the recursion domain at this q
        for series in series_list:
            report = moment_recursion.recursive_moments(spec, 4, series)
            if not all(report.agree):
                raise AssertionError(
                    f"recursion disagrees with the oracle at family {spec.family}{spec.sign}, "
                    f"series {report.series}"
                )
    for variant in ("a", "b"):
        rep = moment_recursion.smallest_case_recursions(ctx, variant, 4)
        if not all(rep.agree):
            raise AssertionError(f"smallest-case variant {variant} disagrees with the oracle")
        general = moment_recursion.recursive_moments(rep.spec, 4, with_oracle=False)
        if rep.recursion_values.values != general.recursion_values.values:
            raise AssertionError(f"smallest-case variant {variant} differs from the general form")


CheckEntry = tuple[str, object, tuple, str]


def _build_checks(max_r: int, overrides: dict[int, int]) -> list[CheckEntry]:
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
            if double_cosets.q_minus_fits(q, n) and double_cosets.products_fit(q, n):
                entries += [
                    (f"parabolic-cells-n{n}-r{r}", _check_parabolic_cells, (n,)),
                    (f"character-sums-n{n}-r{r}", _check_exp_sums, (n,)),
                    (f"trace-distributions-n{n}-r{r}", _check_trace_distributions, (n,)),
                ]
        if double_cosets.q_minus_fits(q, 1):
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
