"""Kloosterman sums, their power moments, and the classical identities."""

import random
import re
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetmoments.finite_field import inv, is_irreducible, lambda_table, make_field, mul, trace, units
from cosetmoments.kloosterman import (
    ENUM_BUDGET,
    ORACLE_H_LIMIT,
    BudgetError,
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
from test_finite_field import random_fields

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
    # 2 * 8191^2 ~ 1.3 * 10^8 terms would be needed; must refuse instantly
    ctx = make_field(13)
    with pytest.raises(BudgetError):
        kloosterman_sum(ctx, 3, 1)


def test_budget_error_never_prints_the_term_count():
    """The refusal names the count it compared by formula: no number in the
    message is longer than the budget itself."""
    ctx, m = make_field(8), 2000
    terms = (m - 1) * (ctx.q - 1) ** 2 + (ctx.q - 1)
    assert terms > ENUM_BUDGET
    with pytest.raises(BudgetError, match=r"\(m - 1\)\(q - 1\)\^2 \+ \(q - 1\) terms, over the budget") as info:
        kloosterman_sum(ctx, m, 1)
    assert max(map(len, re.findall(r"\d+", str(info.value)))) <= len(str(ENUM_BUDGET))


@pytest.mark.parametrize("r", range(1, 5))
def test_two_dimensional_sum_satisfies_carlitz(r):
    """The genuine double sum agrees with K^2 - q for every argument."""
    ctx = make_field(r)
    for a in units(ctx):
        assert kloosterman_sum(ctx, 2, a) == carlitz_k2(ctx, a)


def _kloosterman_generic(ctx, m, a):
    """Oracle: K_m(lambda;a) product by product over (F_q^*)^m, (q - 1)^m terms."""
    lam = lambda_table(ctx)
    total = 0
    for alphas in product(range(1, ctx.q), repeat=m):
        s, p = 0, 1
        for al in alphas:
            s, p = s ^ al, mul(ctx, p, al)
        total += lam[s ^ mul(ctx, a, inv(ctx, p))]
    return total


# every unit at m = 1..4 for r <= 4 (and at 0x1F, where z does not generate the
# unit group), m <= 3 at r = 5, and m = 3 at r = 6 at a few units
GENERIC_CASES = ([(r, None, m) for r in range(1, 5) for m in range(1, 5)]
                 + [(4, 0x1F, m) for m in range(1, 5)] + [(5, None, m) for m in (1, 2, 3)]
                 + [(6, None, 3)])


@pytest.mark.parametrize("r,modulus,m", GENERIC_CASES)
def test_exponent_form_matches_generic_sum(r, modulus, m):
    """The sum over exponents agrees with the product-by-product oracle."""
    ctx = make_field(r, modulus)
    points = units(ctx) if r < 6 else sorted({1, 2, ctx.a_param, ctx.q - 1})
    for a in points:
        assert _kloosterman_generic(ctx, m, a) == kloosterman_sum(ctx, m, a)


def _cyclic_convolution(a: list[int], b: list[int]) -> list[int]:
    """c_k = sum over i + j = k (mod n) of a_i b_j, for nonnegative digit lists of
    one length n, by Kronecker substitution: pack each list into one integer of
    w-byte digits, multiply once, add the top n digits of the product onto the
    bottom n, and read the digits back from one to_bytes.  w bytes hold every
    input digit and every c_k <= n max(a) max(b), so no carry crosses a digit."""
    n = len(a)
    width = max(n * max(a) * max(b), max(a), max(b)).bit_length() // 8 + 1

    def pack(digits: list[int]) -> int:
        return int.from_bytes(b"".join(d.to_bytes(width, "little") for d in digits), "little")

    x = pack(a)
    prod = x * (x if b is a else pack(b))
    shift = 8 * width * n
    buf = ((prod & ((1 << shift) - 1)) + (prod >> shift)).to_bytes(width * n, "little")
    return [int.from_bytes(buf[i : i + width], "little") for i in range(0, width * n, width)]


@lru_cache(maxsize=None)
def _convolution_spectrum(ctx, m):
    """The spectrum as cyclic convolutions over the exponents of g: with n = q - 1
    and s_i = lambda(g^i), K_1(g^k) = sum over i + j = k (mod n) of s_i s_j and
    K_2(g^k) = sum_i s_i K_1(g^(k-i)), taken on nonnegative digits and shifted back."""
    lam, exp, n = lambda_table(ctx), ctx.exp, ctx.q - 1
    s = [lam[x] for x in exp[:n]]
    digits = [v + 1 for v in s]  # in {0, 2}
    if m == 1:
        # sum (s_i + 1)(s_j + 1) = K_1 + 2 sum(s) + n; product digits at most n * 2 * 2
        other, excess = digits, 2 * sum(s) + n
    else:
        ks = [_convolution_spectrum(ctx, 1)[x] for x in exp[:n]]
        off = isqrt(4 * ctx.q) + 1  # K_1^2 <= 4q, so 0 < K_1 + off < 2 off
        # sum (s_i + 1)(K_j + off) = K_2 + off sum(s) + sum(K_1) + n off;
        # product digits at most n * 2 * 2off
        other, excess = [k + off for k in ks], off * sum(s) + sum(ks) + n * off
    out = [0] * ctx.q
    for x, v in zip(exp, _cyclic_convolution(digits, other)):
        out[x] = v - excess
    return tuple(out)


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


def _seeded_field(r, seed):
    """A field with a random irreducible modulus and a random trace-1 a_param."""
    rng = random.Random(seed)
    modulus = next(m for m in iter(lambda: rng.randrange(1 << r, 1 << (r + 1)), None)
                   if is_irreducible(m, r))
    ctx = make_field(r, modulus)
    a_param = next(x for x in iter(lambda: rng.randrange(ctx.q), None) if trace(ctx, x))
    return make_field(r, modulus, a_param)


@pytest.mark.parametrize("r,seed", [(r, None) for r in range(1, 13)] + [(16, 1), (16, 2)])
def test_transform_spectrum_matches_convolutions(r, seed):
    """Both transform spectra equal the convolution form, entry 0 included."""
    ctx = make_field(r) if seed is None else _seeded_field(r, seed)
    for m in (1, 2):
        assert kloosterman_spectrum(ctx, m) == _convolution_spectrum(ctx, m), m


@pytest.mark.parametrize("r,modulus", [(r, None) for r in range(1, 11)] + [(4, 0x1F), (8, 0x11B)])
def test_spectrum_matches_direct_sums(r, modulus):
    """The transform spectrum equals the exponent-form sum at every a, also
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
    # q = 2: the one unit is its own inverse, and lambda(1) = -1
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


@given(ctx=random_fields(r_max=6), t=st.integers(1, 8), pick=st.integers(min_value=0))
@settings(deadline=None, max_examples=60)
def test_matrix_sum_recursion_matches_closed_form_over_random_moduli(ctx, t, pick):
    a = 1 + pick % (ctx.q - 1)
    assert kgl_closed(ctx, t, a) == kgl_recursive(ctx, t, a)


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
