"""Field construction, arithmetic axioms, and the trace/character layer."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoments import finite_field
from cosetmoments.cli import _check_field_axioms
from cosetmoments.finite_field import (
    MAX_R,
    FieldCtx,
    _exp_log_tables,
    _raw_mul,
    _walsh_hadamard,
    character_sums,
    default_modulus,
    inv,
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
    for x in units(ctx):
        assert mul(ctx, x, inv(ctx, x)) == 1
    with pytest.raises(ZeroDivisionError):
        inv(ctx, 0)


# every default modulus, plus a non-primitive override (z has order 5 mod 0x1F)
TABLE_FIELDS = [(r, default_modulus(r)) for r in range(1, MAX_R + 1)] + [(4, 0x1F)]


def _order(x, modulus, r):
    k, y = 1, x
    while y != 1:
        y = _raw_mul(y, x, modulus, r)
        k += 1
    return k


def _assert_matches_carry_less_product(ctx, pairs):
    m, r = ctx.modulus, ctx.r
    for x, y in pairs:
        assert mul(ctx, x, y) == _raw_mul(x, y, m, r)
        if x:
            assert _raw_mul(x, inv(ctx, x), m, r) == 1


@pytest.mark.parametrize("r,modulus", TABLE_FIELDS)
def test_exp_log_tables_are_powers_of_the_smallest_generator(r, modulus):
    exp, log = _exp_log_tables(modulus, r)
    ctx = make_field(r, modulus)
    assert ctx.exp is exp and ctx.log is log
    n = (1 << r) - 1
    g = exp[1]
    assert len(exp) == 2 * n and len(log) == n + 1
    assert exp[0] == 1
    assert all(exp[i + 1] == _raw_mul(exp[i], g, modulus, r) for i in range(2 * n - 1))
    assert exp[n:] == exp[:n]
    assert sorted(exp[:n]) == list(range(1, n + 1))
    assert all(log[exp[i]] == i for i in range(n))
    assert all(_order(h, modulus, r) < n for h in range(2, g))


def _power_walk_tables(modulus, r):
    """The generator search _exp_log_tables ran before it tested candidates by
    their (q-1)/p powers: walk every power of g = 1, 2, ... until one meets
    every unit; kept as its oracle."""
    n = (1 << r) - 1
    for g in range(1, n + 1):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = _raw_mul(x, g, modulus, r)
        if len(exp) == n:
            break
    log = [0] * (n + 1)
    for i, x in enumerate(exp):
        log[x] = i
    return tuple(exp + exp), tuple(log)


@pytest.mark.parametrize("r", range(1, MAX_R + 1))
def test_exp_log_tables_match_the_power_walk(r):
    # the default modulus, 0x1F and 0x11B (not primitive), and the irreducible ones among
    # 64 seeded random draws
    rng = random.Random(f"moduli:{r}")
    draws = [rng.randrange(1 << r, 1 << (r + 1)) for _ in range(64)]
    moduli = {default_modulus(r), *(m for m in (0x1F, 0x11B) if m.bit_length() == r + 1),
              *(m for m in draws if is_irreducible(m, r))}
    for modulus in sorted(moduli):
        assert _exp_log_tables.__wrapped__(modulus, r) == _power_walk_tables(modulus, r)


@pytest.mark.parametrize("r,modulus", TABLE_FIELDS)
def test_arithmetic_matches_the_carry_less_product(r, modulus):
    ctx = make_field(r, modulus)
    if r <= 5:
        pairs = [(x, y) for x in range(ctx.q) for y in range(ctx.q)]
    else:
        rng = random.Random(f"pairs:{r}:{modulus}")
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(300)]
    _assert_matches_carry_less_product(ctx, pairs)


@given(
    r=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0),
    xs=st.lists(st.integers(min_value=0), min_size=2, max_size=2),
)
@settings(deadline=None, max_examples=60)
def test_arithmetic_matches_for_random_moduli(r, seed, xs):
    rng = random.Random(seed)
    while True:
        modulus = rng.randrange(1 << r, 1 << (r + 1))
        if is_irreducible(modulus, r):
            break
    ctx = make_field(r, modulus)
    assert sorted(ctx.exp[: ctx.q - 1]) == list(units(ctx))
    x, y = (v % ctx.q for v in xs)
    _assert_matches_carry_less_product(ctx, [(x, y), (y, x)])


def test_trivial_unit_group_at_r1():
    ctx = make_field(1)
    assert (ctx.exp, ctx.log) == ((1, 1), (0, 0))
    assert mul(ctx, 1, 1) == 1 and mul(ctx, 0, 1) == 0 and mul(ctx, 1, 0) == 0
    assert inv(ctx, 1) == 1


@pytest.mark.parametrize("r", (1, 3, 9))
def test_zero_powers(r):
    ctx = make_field(r)
    with pytest.raises(ZeroDivisionError):
        inv(ctx, 0)


def test_field_axioms_check_catches_self_consistent_wrong_tables(monkeypatch):
    """Tables with two units swapped keep x * x^-1 = 1 but give wrong products."""
    exp, _ = _exp_log_tables(0x11B, 8)
    bad = list(exp[:255])
    bad[5], bad[9] = bad[9], bad[5]
    bad_log = [0] * 256
    for i, x in enumerate(bad):
        bad_log[x] = i
    monkeypatch.setattr(finite_field, "_exp_log_tables", lambda modulus, r: (tuple(bad * 2), tuple(bad_log)))
    ctx = make_field(8)
    assert all(mul(ctx, x, inv(ctx, x)) == 1 for x in units(ctx))
    with pytest.raises(AssertionError):
        _check_field_axioms(ctx)


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


# --- the additive-character transform -------------------------------------


def test_walsh_hadamard_matches_its_definition():
    rng = random.Random(0)
    for r in range(6):
        vec = [rng.randrange(-50, 50) for _ in range(1 << r)]
        direct = [
            sum(v * (-1) ** (u & x).bit_count() for x, v in enumerate(vec)) for u in range(1 << r)
        ]
        assert _walsh_hadamard(vec) == direct


def _mixed_values(q, seed):
    """Small signed entries beside entries of several hundred bits, as the
    closed trace classes of the larger double cosets are."""
    rng = random.Random(seed)
    return [rng.choice((rng.randrange(-9, 10), rng.randrange(-(1 << 600), 1 << 600)))
            for _ in range(q)]


def _direct_character_sums(ctx, values):
    return [sum(v * lambda_char(ctx, mul(ctx, b, x)) for x, v in enumerate(values))
            for b in range(ctx.q)]


@pytest.mark.parametrize("r,modulus", [(r, default_modulus(r)) for r in range(1, 11)] + [(4, 0x1F)])
def test_character_sums_match_their_definition(r, modulus):
    ctx = make_field(r, modulus)
    values = _mixed_values(ctx.q, f"character-sums:{r}:{modulus}")
    assert character_sums(ctx, values) == _direct_character_sums(ctx, values)
    # a dict's values view is read in key order, as the trace distributions pass it
    assert character_sums(ctx, dict(enumerate(values)).values()) == character_sums(ctx, values)


@st.composite
def random_fields(draw, r_max=8):
    """A field of random degree, irreducible modulus and trace-one a_param."""
    r = draw(st.integers(min_value=1, max_value=r_max))
    modulus = draw(st.sampled_from([m for m in range(1 << r, 1 << (r + 1)) if is_irreducible(m, r)]))
    mask = make_field(r, modulus).trace_mask
    a_param = draw(st.sampled_from([x for x in range(1 << r) if (x & mask).bit_count() & 1]))
    return make_field(r, modulus, a_param)


@given(ctx=random_fields(), seed=st.integers(min_value=0))
@settings(deadline=None, max_examples=30)
def test_character_sums_match_for_random_fields(ctx, seed):
    values = _mixed_values(ctx.q, seed)
    assert character_sums(ctx, values) == _direct_character_sums(ctx, values)


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
    with pytest.raises(ValueError, match="'zz' is not a hex value"):
        parse_hex("zz")


def test_representation_independent_trace_counts():
    """Different irreducible moduli give isomorphic fields: same trace-one count."""
    for mod in (0xB, 0xD):
        ctx = make_field(3, modulus=mod)
        assert sum(trace(ctx, x) for x in range(8)) == 4
    for mod in (0x13, 0x19):
        ctx = make_field(4, modulus=mod)
        assert sum(trace(ctx, x) for x in range(16)) == 8


# --- the context record ---------------------------------------------------


def test_context_equality_and_hash_read_the_five_fields():
    ctx = make_field(3)
    twin = FieldCtx(ctx.r, ctx.q, ctx.modulus, ctx.a_param, ctx.trace_mask,
                    tuple(list(ctx.exp)), tuple(list(ctx.log)))
    assert twin.exp is not ctx.exp and twin.log is not ctx.log
    assert twin == ctx and hash(twin) == hash(ctx)
    assert make_field(3, a_param=3) != ctx
    assert make_field(3, modulus=0xD) != ctx
    assert ctx.__eq__((3, 8, 0xB, 1, 1)) is NotImplemented
    assert ctx != (3, 8, 0xB, 1, 1)


def test_context_repr_leaves_out_the_tables():
    assert repr(make_field(3)) == "FieldCtx(r=3, q=8, modulus=11, a_param=1, trace_mask=1)"
    assert repr(make_field(8, modulus=0x11B)) == (
        "FieldCtx(r=8, q=256, modulus=283, a_param=32, trace_mask=160)"
    )


def test_context_fields_cannot_be_assigned_or_deleted():
    ctx = make_field(3)
    for name, value in (("q", 16), ("exp", ()), ("log", ()), ("r", 4), ("spare", 0)):
        with pytest.raises(AttributeError):
            setattr(ctx, name, value)
    with pytest.raises(AttributeError):
        del ctx.q
    assert (ctx.r, ctx.q) == (3, 8)
    assert mul(ctx, 3, inv(ctx, 3)) == 1


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy])
def test_context_survives_pickle_and_deepcopy(clone):
    ctx = make_field(8, modulus=0x11B)
    other = clone(ctx)
    assert other == ctx and hash(other) == hash(ctx) and repr(other) == repr(ctx)
    rng = random.Random(8)
    for _ in range(200):
        x, y = rng.randrange(256), rng.randrange(1, 256)
        assert mul(other, x, y) == mul(ctx, x, y) == _raw_mul(x, y, 0x11B, 8)
        assert inv(other, y) == inv(ctx, y)
