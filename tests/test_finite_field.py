"""Field construction, arithmetic axioms, and the trace/character layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoments.finite_field import (
    MAX_R,
    default_modulus,
    fpow,
    inv,
    inv_table,
    is_irreducible,
    lambda_char,
    make_field,
    mul,
    mul_table,
    parse_hex,
    poly_degree,
    smallest_factor,
    theta_subgroup,
    to_hex,
    trace,
    units,
)

# smallest irreducible bitmasks, checked by hand: z^2+z+1, z^3+z+1, z^4+z+1
SMALL_DEFAULTS = {1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13}


@pytest.mark.parametrize("r,mask", sorted(SMALL_DEFAULTS.items()))
def test_default_modulus_small_degrees(r, mask):
    assert default_modulus(r) == mask
    assert make_field(r).modulus == mask


@pytest.mark.parametrize("r", range(1, 11))
def test_default_modulus_is_smallest_irreducible(r):
    m = default_modulus(r)
    assert poly_degree(m) == r
    assert is_irreducible(m, r)
    assert all(not is_irreducible(c, r) for c in range(1 << r, m))


def test_r_bounds():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(MAX_R + 1)
    assert make_field(MAX_R).q == 1 << MAX_R


def test_reducible_modulus_rejected_naming_factor():
    # 0x5 = z^2 + 1 = (z + 1)^2
    with pytest.raises(ValueError, match="divisible by 0x3"):
        make_field(2, modulus=0x5)
    with pytest.raises(ValueError, match="degree 2, need exactly 3"):
        make_field(3, modulus=0x7)


def test_smallest_factor_finds_low_degree_divisors():
    assert smallest_factor(0x5, 2) == 0x3
    assert smallest_factor(0x7, 2) is None
    # the fifth cyclotomic polynomial: irreducible since 2 has order 4 mod 5
    assert smallest_factor(0x1F, 4) is None


@pytest.mark.parametrize("r", range(1, 7))
def test_a_param_is_smallest_trace_one(r):
    ctx = make_field(r)
    assert trace(ctx, ctx.a_param) == 1
    assert all(trace(ctx, x) == 0 for x in range(ctx.a_param))


def test_a_param_override():
    ctx0 = make_field(3)
    ones = [x for x in range(8) if trace(ctx0, x) == 1]
    assert ctx0.a_param == ones[0]
    ctx1 = make_field(3, a_param=ones[1])
    assert ctx1.a_param == ones[1]
    with pytest.raises(ValueError, match="trace 0"):
        make_field(3, a_param=next(x for x in range(1, 8) if x not in ones))
    with pytest.raises(ValueError, match="not an element"):
        make_field(3, a_param=8)


@given(
    r=st.integers(min_value=1, max_value=6),
    xs=st.tuples(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0)),
)
@settings(deadline=None, max_examples=200)
def test_ring_axioms(r, xs):
    ctx = make_field(r)
    x, y, z = (v % ctx.q for v in xs)
    assert mul(ctx, x, y) == mul(ctx, y, x)
    assert mul(ctx, mul(ctx, x, y), z) == mul(ctx, x, mul(ctx, y, z))
    assert mul(ctx, x, y ^ z) == mul(ctx, x, y) ^ mul(ctx, x, z)
    assert mul(ctx, 1, x) == x
    assert mul(ctx, 0, x) == 0


@pytest.mark.parametrize("r", range(1, 5))
def test_every_unit_has_an_inverse(r):
    ctx = make_field(r)
    table = inv_table(ctx)
    for x in units(ctx):
        assert mul(ctx, x, inv(ctx, x)) == 1
        assert table[x] == inv(ctx, x)
        assert fpow(ctx, x, ctx.q - 1) == 1
    with pytest.raises(ZeroDivisionError):
        inv(ctx, 0)


def test_fpow_negative_exponent():
    ctx = make_field(3)
    for x in units(ctx):
        assert mul(ctx, fpow(ctx, x, -2), fpow(ctx, x, 2)) == 1


@pytest.mark.parametrize("r", range(1, 6))
def test_trace_is_additive_and_frobenius_invariant(r):
    ctx = make_field(r)
    for x in range(ctx.q):
        assert trace(ctx, mul(ctx, x, x)) == trace(ctx, x)
        for y in range(ctx.q):
            assert trace(ctx, x ^ y) == trace(ctx, x) ^ trace(ctx, y)
    assert sum(trace(ctx, x) for x in range(ctx.q)) == ctx.q // 2


@pytest.mark.parametrize("r", range(1, 6))
def test_lambda_is_a_character(r):
    ctx = make_field(r)
    assert lambda_char(ctx, 0) == 1
    assert all(lambda_char(ctx, x) in (1, -1) for x in range(ctx.q))
    assert sum(lambda_char(ctx, x) for x in range(ctx.q)) == 0
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert lambda_char(ctx, x ^ y) == lambda_char(ctx, x) * lambda_char(ctx, y)


@pytest.mark.parametrize("r", range(1, 6))
def test_theta_subgroup_is_the_trace_kernel(r):
    ctx = make_field(r)
    theta = theta_subgroup(ctx)
    assert theta == frozenset(x for x in range(ctx.q) if trace(ctx, x) == 0)
    assert len(theta) == ctx.q // 2
    assert ctx.a_param not in theta


def test_mul_table_limit():
    small = make_field(8)
    assert len(mul_table(small)) == 256
    big = make_field(9)
    with pytest.raises(ValueError):
        mul_table(big)
    # products still work above the table limit
    for x in (1, 2, 257, 511):
        assert mul(big, x, inv(big, x)) == 1


def test_hex_encoding():
    assert to_hex(0) == "0x0"
    assert to_hex(255) == "0xFF"
    assert parse_hex("0xff") == 255
    assert parse_hex("1B") == 27
    with pytest.raises(ValueError):
        parse_hex("-0x1")
    with pytest.raises(ValueError):
        parse_hex("zz")


def test_representation_independent_trace_counts():
    """Different irreducible moduli give isomorphic fields: same trace-one count."""
    for mod in (0xB, 0xD):
        ctx = make_field(3, modulus=mod)
        assert sum(trace(ctx, x) for x in range(8)) == 4
    for mod in (0x13, 0x19):
        ctx = make_field(4, modulus=mod)
        assert sum(trace(ctx, x) for x in range(16)) == 8
