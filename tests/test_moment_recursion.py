"""The power-moment recursions, their oracles, and the Pless identity."""

from math import comb

import pytest

from cosetmoments.coset_codes import codeword_weight_closed, weight_distribution_prefix
from cosetmoments.finite_field import make_field, units
from cosetmoments.kloosterman import power_moment_oracle
from cosetmoments.moment_recursion import (
    H_MAX_LIMIT,
    _oracle_moments,
    _series_params,
    pless_check,
    recursive_moments,
    smallest_case_recursions,
    stirling2,
    stirling2_alternating,
)
from cosetmoments.ominus_groups import DoubleCosetSpec, dc_cardinality

CTX2 = make_field(1)
CTX4 = make_field(2)
CTX8 = make_field(3)


# --- Stirling numbers -----------------------------------------------------


def test_stirling_frozen_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(6, 3) == 90
    assert stirling2(10, 5) == 42525
    assert stirling2(7, 0) == 0
    assert stirling2(3, 5) == 0


def test_stirling_triangle_matches_alternating_sum():
    for h in range(16):
        for t in range(h + 2):
            assert stirling2(h, t) == stirling2_alternating(h, t)


def test_stirling_row_sums_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for h, b in enumerate(bell):
        assert sum(stirling2(h, t) for t in range(h + 1)) == b


# --- recursions against the oracle ----------------------------------------


def _sid(spec):
    tag = "p" if spec.sign == "+" else "m"
    return f"f{spec.family}{tag}n{spec.n}q{spec.ctx.q}"


ODD_SERIES_SPECS = [
    DoubleCosetSpec(1, "+", 2, CTX2),
    DoubleCosetSpec(1, "+", 2, CTX4),
    DoubleCosetSpec(1, "+", 2, CTX8),
    DoubleCosetSpec(3, "+", 2, CTX8),
    DoubleCosetSpec(1, "-", 1, CTX2),
    DoubleCosetSpec(1, "-", 1, CTX8),
    DoubleCosetSpec(1, "-", 3, CTX2),
    DoubleCosetSpec(1, "-", 3, CTX4),
    DoubleCosetSpec(3, "-", 3, CTX2),
    DoubleCosetSpec(3, "-", 3, CTX4),
]

TWO_SERIES_SPECS = [
    DoubleCosetSpec(2, "+", 2, CTX4),
    DoubleCosetSpec(2, "+", 2, CTX8),
    DoubleCosetSpec(4, "+", 4, CTX4),
    DoubleCosetSpec(2, "-", 3, CTX4),
    DoubleCosetSpec(4, "-", 3, CTX4),
    DoubleCosetSpec(4, "-", 3, CTX8),
]


@pytest.mark.parametrize("spec", ODD_SERIES_SPECS, ids=_sid)
def test_recursion_reproduces_oracle(spec):
    report = recursive_moments(spec, h_max=6)
    assert report.series == "mk"
    assert report.recursion_values.values == report.oracle_values.values
    assert all(report.agree)
    assert report.recursion_values.values[0] == spec.ctx.q - 1
    assert report.recursion_values.values[1] == 1


@pytest.mark.parametrize("spec", TWO_SERIES_SPECS, ids=_sid)
@pytest.mark.parametrize("series", ("mk2", "mk_even"))
def test_two_dimensional_recursions(spec, series):
    report = recursive_moments(spec, h_max=5, series=series)
    assert report.series == series
    assert all(report.agree)


def test_even_series_values_are_even_moments():
    spec = DoubleCosetSpec(2, "+", 2, CTX4)
    report = recursive_moments(spec, h_max=4, series="mk_even")
    even = power_moment_oracle(CTX4, 1, 8).values
    assert report.recursion_values.values == even[::2]


def test_default_series_per_family():
    assert recursive_moments(DoubleCosetSpec(1, "-", 1, CTX4), 2).series == "mk"
    assert recursive_moments(DoubleCosetSpec(2, "-", 3, CTX4), 2).series == "mk2"


def test_without_oracle():
    report = recursive_moments(DoubleCosetSpec(1, "-", 1, CTX4), 3, with_oracle=False)
    assert report.oracle_values is None
    assert report.agree is None
    assert len(report.recursion_values.values) == 4


def test_h_max_bounds():
    spec = DoubleCosetSpec(1, "-", 1, CTX4)
    with pytest.raises(ValueError):
        recursive_moments(spec, 0)
    with pytest.raises(ValueError):
        recursive_moments(spec, H_MAX_LIMIT + 1)


def test_series_validation():
    with pytest.raises(ValueError, match="only the 'mk' series"):
        recursive_moments(DoubleCosetSpec(1, "+", 2, CTX4), 2, series="mk2")
    with pytest.raises(ValueError, match="series must be"):
        recursive_moments(DoubleCosetSpec(2, "+", 2, CTX4), 2, series="even")


def test_domain_gates():
    with pytest.raises(ValueError, match="q >= 8"):
        recursive_moments(DoubleCosetSpec(3, "+", 2, CTX4), 2)
    with pytest.raises(ValueError, match="q >= 4"):
        recursive_moments(DoubleCosetSpec(2, "+", 2, CTX2), 2)
    with pytest.raises(ValueError, match="q >= 4"):
        recursive_moments(DoubleCosetSpec(4, "-", 3, CTX2), 2)


# --- the written-out smallest cases ---------------------------------------


@pytest.mark.parametrize("ctx", (CTX2, CTX4, CTX8), ids=("q2", "q4", "q8"))
def test_smallest_cases_match_general_solver(ctx):
    for variant, fam_sign_n in (("a", (1, "+", 2)), ("b", (1, "-", 1))):
        special = smallest_case_recursions(ctx, variant, h_max=6)
        general = recursive_moments(DoubleCosetSpec(*fam_sign_n, ctx), h_max=6)
        assert special.recursion_values.values == general.recursion_values.values
        assert all(special.agree)


def test_smallest_case_variant_validation():
    with pytest.raises(ValueError):
        smallest_case_recursions(CTX4, "c", 2)
    with pytest.raises(ValueError):
        smallest_case_recursions(CTX4, "a", 0)


# --- Pless identity --------------------------------------------------------

PLESS_SPECS = [
    DoubleCosetSpec(1, "-", 1, CTX2),
    DoubleCosetSpec(1, "-", 1, CTX4),
    DoubleCosetSpec(1, "-", 1, CTX8),
    DoubleCosetSpec(1, "+", 2, CTX2),
    DoubleCosetSpec(2, "+", 2, CTX2),
]


@pytest.mark.parametrize("spec", PLESS_SPECS, ids=_sid)
def test_pless_identity(spec):
    for h in range(1, 11):
        lhs, rhs = pless_check(spec, h)
        assert lhs == rhs


def test_pless_frozen_values():
    assert pless_check(DoubleCosetSpec(1, "-", 1, CTX2), 1) == (2, 2)
    assert pless_check(DoubleCosetSpec(1, "-", 1, CTX4), 2) == (24, 24)


def test_pless_rejects_degenerate_kernel():
    with pytest.raises(ValueError, match="kernel"):
        pless_check(DoubleCosetSpec(3, "+", 2, CTX2), 1)


def test_pless_rejects_h_zero():
    with pytest.raises(ValueError):
        pless_check(DoubleCosetSpec(1, "-", 1, CTX4), 0)


# --- the binomial-expansion bridge ----------------------------------------


def moment_lhs_expansion(spec, h, series=None):
    """sum_a w(c(a))^h via the binomial expansion in oracle moments: the left
    side of the identity that `_solve_recursion` inverts, evaluated forwards."""
    params = _series_params(spec, series)
    moments = _oracle_moments(spec.ctx, params, h)
    a_cnt = dc_cardinality(spec)[0]
    total = sum(
        comb(h, l) * params.base ** (h - l) * params.c ** l * moments[l]
        for l in range(h + 1)
    )
    value, rem = divmod(a_cnt ** h * total, 1 << h)
    assert not rem, "the weight-moment expansion must be divisible by 2^h"
    return value


@pytest.mark.parametrize(
    "spec",
    [s for s in PLESS_SPECS if s.family == 1] + [DoubleCosetSpec(2, "+", 2, CTX4)],
    ids=_sid,
)
def test_moment_expansion_equals_weight_power_sum(spec):
    for h in (1, 2, 3):
        direct = sum(
            codeword_weight_closed(spec, a) ** h for a in units(spec.ctx)
        )
        assert moment_lhs_expansion(spec, h) == direct


def test_moment_expansion_inherits_the_domain_gates():
    # the expansion runs through the series parameters, unlike pless_check
    with pytest.raises(ValueError, match="q >= 4"):
        moment_lhs_expansion(DoubleCosetSpec(2, "+", 2, CTX2), 1)


def test_moment_expansion_series_independence():
    # both series describe the same weights, so both give the same sums
    spec = DoubleCosetSpec(2, "+", 2, CTX4)
    for h in (1, 2, 3, 4):
        direct = sum(codeword_weight_closed(spec, a) ** h for a in units(CTX4))
        assert moment_lhs_expansion(spec, h, "mk2") == direct
        assert moment_lhs_expansion(spec, h, "mk_even") == direct


# --- result records --------------------------------------------------------


def test_results_keep_their_attribute_names():
    series = power_moment_oracle(CTX8, 1, 3)
    assert (series.m, series.h_max, series.values) == (1, 3, (7, 1, 55, -47))
    spec = DoubleCosetSpec(1, "-", 1, CTX8)
    prefix = weight_distribution_prefix(spec, 2)
    assert (prefix.spec, prefix.j_max, len(prefix.counts), prefix.counts[0]) == (spec, 2, 3, 1)
    report = recursive_moments(spec, 3)
    assert (report.spec, report.series, report.h_max) == (spec, "mk", 3)
    assert report.recursion_values.values == report.oracle_values.values == series.values
    assert report.recursion_values.m == report.oracle_values.m == 1
    assert report.agree == (True,) * 4
    bare = recursive_moments(spec, 3, with_oracle=False)
    assert bare.oracle_values is None and bare.agree is None
