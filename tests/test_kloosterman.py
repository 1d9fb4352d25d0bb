"""Kloosterman sums, their power moments, and the classical identities."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetmoments.finite_field import is_irreducible, make_field, units
from cosetmoments.kloosterman import (
    ORACLE_H_LIMIT,
    BudgetError,
    _cyclic_convolution,
    _kloosterman_generic,
    artin_schreier_sums,
    carlitz_k2,
    kgl_closed,
    kgl_recursive,
    kloosterman_spectrum,
    kloosterman_sum,
    power_moment_oracle,
    predicted_spectrum,
    range_spectrum,
    twisted_sum_check,
)
from cosetmoments.moment_recursion import H_MAX_LIMIT

# direct-sum values, stable across sessions
K_TABLE_Q4 = {1: 3, 2: -1, 3: -1}
K_TABLE_Q8 = {1: -5, 2: -1, 3: 3, 4: -1, 5: 3, 6: -1, 7: 3}


def test_frozen_values_q4():
    ctx = make_field(2)
    assert {a: kloosterman_sum(ctx, 1, a) for a in units(ctx)} == K_TABLE_Q4


def test_frozen_values_q8():
    ctx = make_field(3)
    assert {a: kloosterman_sum(ctx, 1, a) for a in units(ctx)} == K_TABLE_Q8


def test_argument_validation():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        kloosterman_sum(ctx, 0, 1)
    with pytest.raises(ValueError):
        kloosterman_sum(ctx, 1, 0)
    with pytest.raises(ValueError):
        kloosterman_sum(ctx, 1, ctx.q)


def test_budget_error_before_work():
    # 63^5 ~ 10^9 terms would be needed; must refuse instantly
    ctx = make_field(6)
    with pytest.raises(BudgetError):
        kloosterman_sum(ctx, 5, 1)


def test_budget_error_never_prints_the_term_count(default_digit_limit):
    # 255^2000 has more decimal digits than int-to-string conversion allows
    assert 255 ** 2000 >= 10 ** 4300
    with pytest.raises(BudgetError, match="over the budget"):
        kloosterman_sum(make_field(8), 2000, 1)


@pytest.mark.parametrize("r", range(1, 5))
def test_two_dimensional_sum_satisfies_carlitz(r):
    """The genuine double sum agrees with K^2 - q for every argument."""
    ctx = make_field(r)
    for a in units(ctx):
        assert kloosterman_sum(ctx, 2, a) == carlitz_k2(ctx, a)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("r,modulus", [(r, None) for r in range(1, 6)] + [(4, 0x1F)])
def test_exponent_form_matches_generic_sum(r, modulus, m):
    """The log-table sums agree with the product-by-product oracle, also when z
    does not generate the unit group (0x1F)."""
    from cosetmoments.kloosterman import _kloosterman_generic

    ctx = make_field(r, modulus)
    for a in units(ctx):
        assert _kloosterman_generic(ctx, m, a) == kloosterman_sum(ctx, m, a)


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n)] * 2)
    )
)
@example(([0], [256]))  # an all-zero list must not shrink the digit width below the other's
@settings(deadline=None, max_examples=100)
def test_cyclic_convolution_matches_schoolbook(pair):
    a, b = pair
    n = len(a)
    expected = [sum(a[i] * b[(k - i) % n] for i in range(n)) for k in range(n)]
    assert _cyclic_convolution(a, b) == expected
    assert _cyclic_convolution(a, a) == _cyclic_convolution(a, list(a))


@pytest.mark.parametrize("r,modulus", [(r, None) for r in range(1, 11)] + [(4, 0x1F), (8, 0x11B)])
def test_spectrum_matches_direct_sums(r, modulus):
    """The convolution spectrum equals the exponent-form sum at every a, also
    when z does not generate the unit group (0x1F, 0x11B)."""
    ctx = make_field(r, modulus)
    spectrum = kloosterman_spectrum(ctx, 1)
    assert len(spectrum) == ctx.q
    assert all(spectrum[a] == kloosterman_sum(ctx, 1, a) for a in units(ctx))


@lru_cache(maxsize=None)
def _irreducibles(r):
    return [m for m in range(1 << r, 1 << (r + 1)) if is_irreducible(m, r)]


@given(data=st.data())
@settings(deadline=None, max_examples=30)
def test_spectrum_matches_direct_sums_for_random_moduli(data):
    r = data.draw(st.integers(min_value=1, max_value=8))
    ctx = make_field(r, data.draw(st.sampled_from(_irreducibles(r))))
    spectrum = kloosterman_spectrum(ctx, 1)
    assert all(spectrum[a] == kloosterman_sum(ctx, 1, a) for a in units(ctx))


@pytest.mark.parametrize("r", range(1, 5))
def test_two_dimensional_spectrum_matches_double_sum(r):
    ctx = make_field(r)
    spectrum = kloosterman_spectrum(ctx, 2)
    for a in units(ctx):
        assert spectrum[a] == _kloosterman_generic(ctx, 2, a) == kloosterman_sum(ctx, 2, a)


@pytest.mark.parametrize("r", range(1, 13))
def test_two_dimensional_spectrum_satisfies_carlitz(r):
    ctx = make_field(r)
    k1, k2 = kloosterman_spectrum(ctx, 1), kloosterman_spectrum(ctx, 2)
    assert all(k2[a] == k1[a] ** 2 - ctx.q for a in units(ctx))


@pytest.mark.parametrize("r", (12, 14, 16))
def test_first_moments_at_large_r(r):
    ctx = make_field(r)
    q = ctx.q
    assert power_moment_oracle(ctx, 1, 2).values == (q - 1, 1, q * q - q - 1)


def test_spectrum_of_the_two_element_field():
    # q = 2: one unit and one digit, lambda(1) + 1 = 0
    ctx = make_field(1)
    assert kloosterman_spectrum(ctx, 1) == (0, 1)
    assert kloosterman_spectrum(ctx, 2) == (0, -1)
    with pytest.raises(ValueError):
        kloosterman_spectrum(ctx, 3)


def _per_a_moments(ctx, m, h_max):
    """The moment oracle before the value histogram: one product per a and h."""
    ks = [kloosterman_sum(ctx, 1, a) if m == 1 else carlitz_k2(ctx, a) for a in units(ctx)]
    values, powers = [], [1] * len(ks)
    for _ in range(h_max + 1):
        values.append(sum(powers))
        powers = [p * k for p, k in zip(powers, ks)]
    return tuple(values)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("r", (1, 2, 3, 5, 8))
def test_histogram_moments_match_per_a_products(r, m):
    ctx = make_field(r)
    assert power_moment_oracle(ctx, m, 12).values == _per_a_moments(ctx, m, 12)


@pytest.mark.parametrize("r", range(1, 7))
def test_first_moments(r):
    """MK^0 = q - 1, MK^1 = 1, MK^2 = q^2 - q - 1."""
    ctx = make_field(r)
    series = power_moment_oracle(ctx, 1, 2)
    assert series.values == (ctx.q - 1, 1, ctx.q * ctx.q - ctx.q - 1)


def test_moment_oracle_q4():
    ctx = make_field(2)
    assert power_moment_oracle(ctx, 1, 4).values == (3, 1, 11, 25, 83)


def test_moment_oracle_validation():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        power_moment_oracle(ctx, 3, 2)
    with pytest.raises(ValueError):
        power_moment_oracle(ctx, 1, -1)


def test_moment_oracle_h_limit_covers_the_even_recursion():
    # the mk_even series asks the oracle for the moments up to 2 H_MAX_LIMIT
    assert ORACLE_H_LIMIT >= 2 * H_MAX_LIMIT
    ctx = make_field(2)
    assert len(power_moment_oracle(ctx, 2, ORACLE_H_LIMIT).values) == ORACLE_H_LIMIT + 1
    with pytest.raises(BudgetError, match="moment-oracle limit"):
        power_moment_oracle(ctx, 1, ORACLE_H_LIMIT + 1)


def test_second_order_moments_from_carlitz():
    # moments of K_2 relate to even moments of K by binomial expansion
    for r in (1, 2, 3):
        ctx = make_field(r)
        m2 = power_moment_oracle(ctx, 2, 1).values
        assert m2[0] == ctx.q - 1
        even = power_moment_oracle(ctx, 1, 2).values
        assert m2[1] == even[2] - ctx.q * even[0]


@pytest.mark.parametrize("r", range(2, 7))
def test_weil_bound(r):
    ctx = make_field(r)
    for a in units(ctx):
        assert kloosterman_sum(ctx, 1, a) ** 2 < 4 * ctx.q


@pytest.mark.parametrize("r", range(1, 7))
def test_frobenius_invariance(r):
    from cosetmoments.finite_field import mul

    ctx = make_field(r)
    for a in units(ctx):
        assert kloosterman_sum(ctx, 1, mul(ctx, a, a)) == kloosterman_sum(ctx, 1, a)


def test_matrix_sum_frozen_anchors():
    ctx2, ctx4 = make_field(1), make_field(2)
    assert [kgl_closed(ctx2, t, 1) for t in (1, 2, 3)] == [1, 6, 72]
    assert [kgl_closed(ctx4, t, 1) for t in (1, 2, 3)] == [3, 84, 15552]


@pytest.mark.parametrize("r", (1, 2, 3))
def test_matrix_sum_recursion_matches_closed_form(r):
    ctx = make_field(r)
    for a in units(ctx):
        for t in range(1, 7):
            assert kgl_recursive(ctx, t, a) == kgl_closed(ctx, t, a)


def test_matrix_sum_edge_cases():
    ctx = make_field(2)
    assert kgl_recursive(ctx, 0, 1) == 1
    assert kgl_recursive(ctx, 1, 1) == kloosterman_sum(ctx, 1, 1)
    with pytest.raises(ValueError):
        kgl_closed(ctx, 0, 1)
    with pytest.raises(ValueError):
        kgl_recursive(ctx, -1, 1)


@pytest.mark.parametrize("r", range(1, 5))
@pytest.mark.parametrize("m", (1, 2))
def test_twisted_sums(r, m):
    ctx = make_field(r)
    for beta in range(ctx.q):
        lhs, rhs = twisted_sum_check(ctx, m, beta)
        assert lhs == rhs


def test_twisted_sum_rejects_large_m():
    with pytest.raises(ValueError):
        twisted_sum_check(make_field(2), 3, 1)


@pytest.mark.parametrize("r", range(1, 5))
def test_artin_schreier_fibers(r):
    ctx = make_field(r)
    for beta in units(ctx):
        k = kloosterman_sum(ctx, 1, beta)
        assert artin_schreier_sums(ctx, beta) == (k - 1, -k - 1)


def test_artin_schreier_frozen():
    assert artin_schreier_sums(make_field(2), 1) == (2, -4)


@pytest.mark.parametrize("r", range(2, 9))
def test_value_range_matches_prediction(r):
    ctx = make_field(r)
    assert range_spectrum(ctx) == predicted_spectrum(ctx.q)


def test_value_range_needs_r_at_least_two():
    with pytest.raises(ValueError):
        range_spectrum(make_field(1))


def test_predicted_spectrum_small():
    assert predicted_spectrum(4) == frozenset({-1, 3})
    assert predicted_spectrum(8) == frozenset({-5, -1, 3})


@given(r=st.integers(min_value=2, max_value=6), a=st.integers(min_value=1))
@settings(deadline=None, max_examples=60)
def test_values_are_three_mod_four(r, a):
    """Every value is congruent to -1 mod 4 once q >= 4."""
    ctx = make_field(r)
    assert kloosterman_sum(ctx, 1, 1 + a % (ctx.q - 1)) % 4 == 3
