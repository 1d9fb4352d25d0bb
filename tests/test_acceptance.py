"""Desk-scale acceptance checks: every identity exact, every budget enforced.

Each test covers one numbered criterion; the time limits are part of the
contract and are asserted literally.
"""

import time

import pytest

from cosetmoments.coset_codes import (
    codeword_weight_closed,
    delsarte_check,
    dual_code_kernel,
    dual_code_rank,
    dual_codeword,
    full_weight_distribution_small,
    weight_distribution_prefix,
)
from cosetmoments.finite_field import inv, make_field, trace, units
from cosetmoments.kloosterman import (
    artin_schreier_sums,
    carlitz_k2,
    kgl_closed,
    kgl_recursive,
    kloosterman_sum,
    power_moment_oracle,
    predicted_spectrum,
    range_spectrum,
    twisted_sum_check,
)
from cosetmoments.double_cosets import (
    DoubleCosetSpec,
    b_r_sum_closed,
    bruhat_cell_order,
    dc_cardinality,
    exp_sum_dc,
    o_minus_order,
    q_minus_order,
    trace_distribution,
    valid_specs,
)
from cosetmoments.moment_recursion import pless_check, recursive_moments
from cosetmoments.ominus_groups import (
    b_r_sum,
    bruhat_cell,
    double_coset_elements,
    enumerate_q_minus,
    enumerate_so2,
)

ENUMERATION_POINTS = ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))  # (n, r) pairs


def _code_specs():
    specs = [DoubleCosetSpec(1, "-", 1, make_field(r)) for r in (1, 2, 3)]
    ctx2 = make_field(1)
    specs += [DoubleCosetSpec(fam, "+", 2, ctx2) for fam in (1, 2, 3)]
    return specs


def test_criterion_01_first_and_second_moments():
    start = time.perf_counter()
    for r in range(1, 7):
        ctx = make_field(r)
        series = power_moment_oracle(ctx, 1, 2)
        assert series.values[1] == 1
        assert series.values[2] == ctx.q * ctx.q - ctx.q - 1
    assert time.perf_counter() - start < 5.0


def test_criterion_02_carlitz_identity_by_double_summation():
    start = time.perf_counter()
    for r in range(1, 7):
        ctx = make_field(r)
        for a in units(ctx):
            assert kloosterman_sum(ctx, 2, a) == carlitz_k2(ctx, a)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_recursions_reproduce_the_oracle_end_to_end():
    start = time.perf_counter()
    for r in range(1, 6):
        ctx = make_field(r)
        shapes = [(1, "+", 2), (1, "-", 1), (1, "-", 3), (3, "-", 3)]
        if ctx.q >= 8:
            shapes.append((3, "+", 2))
        for shape in shapes:
            report = recursive_moments(DoubleCosetSpec(*shape, ctx), h_max=8)
            assert all(report.agree), (shape, ctx.q)
    for r in (2, 3, 4):
        ctx = make_field(r)
        for shape in ((2, "+", 2), (4, "+", 4), (2, "-", 3), (4, "-", 3)):
            for series in ("mk2", "mk_even"):
                report = recursive_moments(
                    DoubleCosetSpec(*shape, ctx), h_max=5, series=series
                )
                assert all(report.agree), (shape, ctx.q, series)
    assert time.perf_counter() - start < 120.0


def test_criterion_04_enumerated_group_orders_and_coset_sizes():
    start = time.perf_counter()
    for n, r in ENUMERATION_POINTS:
        ctx = make_field(r)
        assert len(enumerate_so2(ctx)) == ctx.q + 1
        assert len(enumerate_q_minus(ctx, n)) == q_minus_order(ctx.q, n)
        for spec in valid_specs(ctx, n):
            a_cnt, b_cnt, total = dc_cardinality(spec)
            assert a_cnt * b_cnt == total
            assert total == bruhat_cell_order(ctx.q, n, spec.sigma_index)
            assert len(double_coset_elements(spec)) == total
    # the four cell pairs fill O^-(4,2) without overlap
    ctx2 = make_field(1)
    union: set = set()
    total = 0
    for rr in range(2):
        for twisted in (False, True):
            cell = bruhat_cell(ctx2, 2, rr, twisted)
            union.update(cell)
            total += len(cell)
    assert total == len(union) == o_minus_order(2, 2) == 120
    assert time.perf_counter() - start < 60.0


def test_criterion_05_character_sums_match_their_closed_forms():
    for n, r in ENUMERATION_POINTS:
        ctx = make_field(r)
        for spec in valid_specs(ctx, n):
            for a in units(ctx):
                assert exp_sum_dc(spec, a, "enumerated") == exp_sum_dc(
                    spec, a, "closed_form"
                )


def test_criterion_06_trace_distributions_classwise():
    for n, r in ENUMERATION_POINTS:
        ctx = make_field(r)
        for spec in valid_specs(ctx, n):
            assert trace_distribution(spec, "enumerated") == trace_distribution(
                spec, "closed_form"
            )
    # the printed degenerate distributions
    ctx2 = make_field(1)
    assert trace_distribution(DoubleCosetSpec(3, "+", 2, ctx2)) == {0: 12, 1: 0}
    assert trace_distribution(DoubleCosetSpec(4, "-", 3, ctx2)) == {0: 576, 1: 0}
    # the length-(q+1) family: 1 at beta = 0, 2 on the trace-one fiber
    for r in (1, 2, 3):
        ctx = make_field(r)
        dist = trace_distribution(DoubleCosetSpec(1, "-", 1, ctx))
        assert dist[0] == 1
        for beta in units(ctx):
            assert dist[beta] == 2 * trace(ctx, inv(ctx, beta))


def test_criterion_07_code_weight_distributions():
    for spec in _code_specs():
        n = dc_cardinality(spec)[2]
        for a in units(spec.ctx):
            assert codeword_weight_closed(spec, a) == sum(dual_codeword(spec, a))
        expected_kernel = (0, 1) if (spec.family, spec.ctx.q) == (3, 2) else (0,)
        assert dual_code_kernel(spec) == expected_kernel
        if n <= 24:
            assert delsarte_check(spec)
        full = full_weight_distribution_small(spec)
        prefix = weight_distribution_prefix(spec, min(8, n)).counts
        assert full[: len(prefix)] == prefix
        assert all(full[j] == full[n - j] for j in range(n + 1))
        assert sum(full) == 2 ** (n - dual_code_rank(spec))


def test_criterion_08_pless_power_moments():
    for spec in _code_specs():
        if (spec.family, spec.ctx.q) == (3, 2):
            with pytest.raises(ValueError):
                pless_check(spec, 1)
            continue
        for h in range(1, 11):
            lhs, rhs = pless_check(spec, h)
            assert lhs == rhs, (spec.family, spec.sign, spec.ctx.q, h)


def test_criterion_09_auxiliary_identities():
    start = time.perf_counter()
    for r in (1, 2, 3, 4):
        ctx = make_field(r)
        for a in units(ctx):
            for t in range(1, 7):
                assert kgl_recursive(ctx, t, a) == kgl_closed(ctx, t, a)
    for r in range(1, 7):
        ctx = make_field(r)
        for m in (1, 2):
            for beta in range(ctx.q):
                lhs, rhs = twisted_sum_check(ctx, m, beta)
                assert lhs == rhs
        for beta in units(ctx):
            k = kloosterman_sum(ctx, 1, beta)
            assert artin_schreier_sums(ctx, beta) == (k - 1, -k - 1)
    for r in (1, 2):
        ctx = make_field(r)
        for dim in (1, 2):
            assert b_r_sum(ctx, dim) == b_r_sum_closed(ctx, dim)
    for r in range(2, 9):
        ctx = make_field(r)
        assert range_spectrum(ctx) == predicted_spectrum(ctx.q)
    assert time.perf_counter() - start < 120.0


def test_criterion_10_representation_invariance():
    alternates = {3: (0xB, 0xD), 4: (0x13, 0x19)}
    for r, moduli in alternates.items():
        contexts = []
        for modulus in moduli:
            base = make_field(r, modulus)
            ones = [x for x in range(base.q) if trace(base, x) == 1]
            contexts.append(base)
            contexts.append(make_field(r, modulus, a_param=ones[1]))
        shapes = [
            ((1, "+", 2), 8, (None,)),
            ((3, "+", 2), 8, (None,)),
            ((1, "-", 1), 8, (None,)),
            ((1, "-", 3), 8, (None,)),
            ((3, "-", 3), 8, (None,)),
            ((2, "+", 2), 5, ("mk2", "mk_even")),
            ((4, "+", 4), 5, ("mk2", "mk_even")),
            ((2, "-", 3), 5, ("mk2", "mk_even")),
            ((4, "-", 3), 5, ("mk2", "mk_even")),
        ]
        for shape, h_max, series_list in shapes:
            for series in series_list:
                outputs = {
                    recursive_moments(
                        DoubleCosetSpec(*shape, ctx), h_max, series
                    ).recursion_values.values
                    for ctx in contexts
                }
                assert len(outputs) == 1, (shape, r, series)
