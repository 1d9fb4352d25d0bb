"""Dual codewords, weight distributions, and the duality checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetmoments import coset_codes
from cosetmoments.coset_codes import (
    DUALITY_N_LIMIT,
    MACWILLIAMS_N_LIMIT,
    PREFIX_J_LIMIT,
    class_dual_weights,
    closed_weights,
    codeword_weight_closed,
    degenerate_kernel,
    delsarte_check,
    dual_code_kernel,
    dual_code_rank,
    dual_codeword,
    full_weight_distribution_small,
    prefix_counts_from_distribution,
    weight_distribution_prefix,
)
from cosetmoments.finite_field import make_field, mul, trace, units
from cosetmoments.kloosterman import BudgetError
from cosetmoments.ominus_groups import (
    DoubleCosetSpec,
    dc_cardinality,
    trace_distribution,
    valid_specs,
)
from test_finite_field import random_fields

CTX2 = make_field(1)
CTX4 = make_field(2)
CTX8 = make_field(3)

# (family, sign, n, q) whose a -> c(a) kernel is the two-element subfield
DEGENERATE_KERNEL_SPECS = frozenset({(3, "+", 2, 2), (3, "+", 2, 4), (4, "-", 3, 2)})


def _sid(spec):
    tag = "p" if spec.sign == "+" else "m"
    return f"f{spec.family}{tag}n{spec.n}q{spec.ctx.q}"


def small_specs():
    out = [DoubleCosetSpec(1, "-", 1, ctx) for ctx in (CTX2, CTX4, CTX8)]
    out += [DoubleCosetSpec(fam, "+", 2, CTX2) for fam in (1, 2, 3)]
    return out


@pytest.mark.parametrize("spec", small_specs(), ids=_sid)
def test_closed_weight_equals_popcount(spec):
    for a in units(spec.ctx):
        assert codeword_weight_closed(spec, a) == sum(dual_codeword(spec, a))



@pytest.mark.parametrize("spec", small_specs(), ids=_sid)
def test_closed_weights_cover_every_word_from_one_vector(spec):
    """Entry a is the popcount of c(a), entry 0 the zero word's; the per-a
    reader indexes the cached vector."""
    weights = closed_weights(spec)
    assert weights == tuple(sum(dual_codeword(spec, a)) for a in range(spec.ctx.q))
    before = closed_weights.cache_info().misses
    assert [codeword_weight_closed(spec, a) for a in units(spec.ctx)] == list(weights[1:])
    assert closed_weights.cache_info().misses == before

def test_zero_argument_gives_zero_word():
    spec = DoubleCosetSpec(1, "-", 1, CTX4)
    assert dual_codeword(spec, 0) == (0,) * 5
    with pytest.raises(ValueError):
        codeword_weight_closed(spec, 0)
    with pytest.raises(ValueError):
        dual_codeword(spec, CTX4.q)


def test_frozen_weights():
    assert codeword_weight_closed(DoubleCosetSpec(1, "+", 2, CTX2), 1) == 20
    assert codeword_weight_closed(DoubleCosetSpec(1, "-", 1, CTX2), 1) == 2
    spec = DoubleCosetSpec(1, "-", 1, CTX4)
    assert [codeword_weight_closed(spec, a) for a in (1, 2, 3)] == [4, 2, 2]


def test_smallest_dual_codeword():
    # the middle coordinate is the identity matrix, the only trace-zero one
    spec = DoubleCosetSpec(1, "-", 1, CTX2)
    assert dual_codeword(spec, 1) == (1, 0, 1)


# full distributions, small enough to freeze outright
def test_frozen_distributions():
    assert full_weight_distribution_small(DoubleCosetSpec(1, "-", 1, CTX2)) == (
        1, 1, 1, 1,
    )
    assert full_weight_distribution_small(DoubleCosetSpec(1, "-", 1, CTX4)) == (
        1, 1, 2, 2, 1, 1,
    )
    dist = full_weight_distribution_small(DoubleCosetSpec(1, "+", 2, CTX2))
    assert dist[:4] == (1, 28, 568, 8596)
    assert sum(dist) == 2 ** 47


@pytest.mark.parametrize("spec", small_specs(), ids=_sid)
def test_distribution_properties(spec):
    n = dc_cardinality(spec)[2]
    dist = full_weight_distribution_small(spec)
    assert len(dist) == n + 1
    assert dist[0] == 1
    assert sum(dist) == 2 ** (n - dual_code_rank(spec))
    # the all-ones word is in the primal code since every dual word has
    # even weight, hence the distribution is symmetric
    assert all(dist[j] == dist[n - j] for j in range(n + 1))


@pytest.mark.parametrize("spec", small_specs(), ids=_sid)
def test_prefix_recursion_matches_full_transform(spec):
    n = dc_cardinality(spec)[2]
    j_max = min(6, n)
    prefix = weight_distribution_prefix(spec, j_max)
    assert prefix.counts == full_weight_distribution_small(spec)[: j_max + 1]


def test_prefix_validation():
    spec = DoubleCosetSpec(1, "-", 1, CTX4)
    with pytest.raises(ValueError):
        weight_distribution_prefix(spec, -1)
    with pytest.raises(ValueError):
        weight_distribution_prefix(spec, PREFIX_J_LIMIT + 1)


def test_ranks():
    assert dual_code_rank(DoubleCosetSpec(1, "-", 1, CTX4)) == 2
    assert dual_code_rank(DoubleCosetSpec(1, "+", 2, CTX2)) == 1
    assert dual_code_rank(DoubleCosetSpec(3, "+", 2, CTX2)) == 0


def test_kernels():
    assert dual_code_kernel(DoubleCosetSpec(1, "-", 1, CTX4)) == (0,)
    assert dual_code_kernel(DoubleCosetSpec(1, "-", 1, CTX8)) == (0,)
    assert dual_code_kernel(DoubleCosetSpec(3, "+", 2, CTX2)) == (0, 1)
    assert dual_code_kernel(DoubleCosetSpec(3, "+", 2, CTX4)) == (0, 1)
    assert dual_code_kernel(DoubleCosetSpec(4, "-", 3, CTX2)) == (0, 1)


def test_degenerate_kernel_registry_is_accurate():
    for fam, sign, n, q in sorted(DEGENERATE_KERNEL_SPECS):
        ctx = make_field(q.bit_length() - 1)
        spec = DoubleCosetSpec(fam, sign, n, ctx)
        assert dual_code_kernel(spec) == (0, 1)
        assert degenerate_kernel(spec)


def test_the_degenerate_kernels_are_exactly_the_known_specs():
    found = {(spec.family, spec.sign, spec.n, spec.ctx.q)
             for r in range(1, 13) for n in range(1, 12) for spec in valid_specs(make_field(r), n)
             if degenerate_kernel(spec)}
    assert found == DEGENERATE_KERNEL_SPECS


def support_kernel(spec):
    """Oracle: the a with tr(a beta) = 0 on every nonempty closed trace class,
    one trace per (a, class)."""
    ctx = spec.ctx
    support = [beta for beta, cnt in trace_distribution(spec, "closed_form").items() if cnt]
    return tuple(
        a
        for a in range(ctx.q)
        if all(trace(ctx, mul(ctx, a, beta)) == 0 for beta in support)
    )


def kernel_specs():
    """Every valid spec at (n <= 3, r = 1), (n <= 2, r = 2) and (n <= 2, r = 2,
    a_param 0x3), and at n = 1 for r <= 8."""
    fields = [(make_field(1), 3), (make_field(2), 2), (make_field(2, a_param=0x3), 2)]
    fields += [(make_field(r), 1) for r in range(3, 9)]
    return [spec for ctx, n_max in fields for n in range(1, n_max + 1) for spec in valid_specs(ctx, n)]


def _kid(spec):
    return _sid(spec) + f"a{spec.ctx.a_param}"


@pytest.mark.parametrize("spec", kernel_specs(), ids=_kid)
def test_kernel_matches_the_support_loop(spec):
    kernel = dual_code_kernel(spec)
    assert kernel == support_kernel(spec)
    assert kernel == ((0, 1) if (spec.family, spec.sign, spec.n, spec.ctx.q) in DEGENERATE_KERNEL_SPECS else (0,))

@pytest.mark.parametrize("spec", small_specs(), ids=_sid)
def test_delsarte_duality(spec):
    if dc_cardinality(spec)[2] > 24:
        with pytest.raises(ValueError):
            delsarte_check(spec)
    else:
        assert delsarte_check(spec)


def test_delsarte_degenerate_case():
    # kernel {0, 1}: the dual collapses to q/2 words, still self-consistent
    spec = DoubleCosetSpec(3, "+", 2, CTX2)
    assert delsarte_check(spec)
    assert dual_code_rank(spec) == 0


@pytest.mark.parametrize("key", ((1, "-", 3, 1), (1, "-", 1, 12), (1, "+", 2, 2)))
def test_delsarte_refuses_before_building_the_cell(monkeypatch, key):
    fam, sign, n, field_r = key
    spec = DoubleCosetSpec(fam, sign, n, make_field(field_r))
    assert dc_cardinality(spec)[2] > DUALITY_N_LIMIT

    def refuse(spec):
        raise AssertionError("a refused spec must not read its trace vector")

    monkeypatch.setattr(coset_codes, "double_coset_traces", refuse)
    with pytest.raises(BudgetError, match=f"length <= {DUALITY_N_LIMIT}"):
        delsarte_check(spec)


def test_macwilliams_gates():
    too_long = DoubleCosetSpec(1, "+", 2, CTX4)
    assert dc_cardinality(too_long)[2] > MACWILLIAMS_N_LIMIT
    with pytest.raises(ValueError):
        full_weight_distribution_small(too_long)


# --- the MacWilliams engine against the XOR-state DP ----------------------


def _binomial_prefix(m, j_max):
    out = [1]
    for nu in range(1, j_max + 1):
        out.append(out[-1] * (m - nu + 1) // nu)
    return out


def dp_prefix(ctx, class_counts, j_max):
    """Oracle: C_j as the number of ways to pick nu_beta coordinates from each
    trace class with picked betas summing to zero, by dynamic programming over
    beta; in characteristic two the partial sum depends only on the parities
    of the nu_beta.  Costs O(q * states * j_max^2)."""
    states = {0: [1] + [0] * j_max}
    for beta in range(ctx.q):
        binoms = _binomial_prefix(class_counts.get(beta, 0), j_max)
        new = {}
        for psum, arr in states.items():
            for nu in range(j_max + 1):
                ways = binoms[nu]
                if not ways:
                    break
                key = psum ^ beta if nu & 1 else psum
                target = new.setdefault(key, [0] * (j_max + 1))
                for j in range(j_max + 1 - nu):
                    if arr[j]:
                        target[j + nu] += arr[j] * ways
        states = new
    return tuple(states.get(0, [0] * (j_max + 1)))


def _every_spec(ctx, n_max=5):
    return [spec for n in range(1, n_max + 1) for spec in valid_specs(ctx, n)]


# the DP costs O(q^2 j^2), so the cutoff shrinks as q grows
DP_J_CAP = {1: 16, 2: 16, 3: 16, 4: 16, 5: 12, 6: 10}


@pytest.mark.parametrize("r", sorted(DP_J_CAP))
def test_engine_matches_dp_at_every_small_field(r):
    ctx = make_field(r)
    specs = _every_spec(ctx)
    assert {(s.family, s.sign) for s in specs} == {(f, g) for f in (1, 2, 3, 4) for g in "+-"}
    for spec in specs:
        counts = trace_distribution(spec, "closed_form")
        j_max = min(dc_cardinality(spec)[2], DP_J_CAP[r])
        expected = dp_prefix(ctx, counts, j_max)
        prefix = prefix_counts_from_distribution(
            sum(counts.values()), class_dual_weights(ctx, counts), j_max)
        assert prefix == expected, _sid(spec)


def _weight_paths_agree(spec, j_max):
    """The closed weights and the weights of the closed trace classes give one prefix."""
    length = dc_cardinality(spec)[2]
    classes = class_dual_weights(spec.ctx, trace_distribution(spec, "closed_form"))
    by_weights = prefix_counts_from_distribution(length, closed_weights(spec), j_max)
    assert by_weights == prefix_counts_from_distribution(length, classes, j_max), _sid(spec)


@pytest.mark.parametrize("r", range(1, 9))
def test_class_weights_of_the_closed_classes_are_the_closed_weights(r):
    for spec in _every_spec(make_field(r)):
        assert class_dual_weights(spec.ctx, trace_distribution(spec)) == closed_weights(spec), _sid(spec)


@given(ctx=random_fields(), n=st.integers(1, 4), pick=st.integers(min_value=0))
@settings(deadline=None, max_examples=40)
def test_class_weights_are_the_closed_weights_over_random_moduli(ctx, n, pick):
    specs = valid_specs(ctx, n)
    spec = specs[pick % len(specs)]
    assert class_dual_weights(ctx, trace_distribution(spec)) == closed_weights(spec), _sid(spec)


def test_class_weights_refuse_a_negative_weight():
    # N = S(0) = 1 and S(1) = 2 + 1 = 3 at q = 2: weight (1 - 3) / 2 = -1
    with pytest.raises(AssertionError, match="weight must be a nonnegative integer"):
        class_dual_weights(CTX2, {0: 2, 1: -1})


@pytest.mark.parametrize("r", range(1, 9))
def test_closed_weights_match_the_class_path(r):
    for spec in _every_spec(make_field(r)):
        _weight_paths_agree(spec, 32)


@pytest.mark.parametrize("r,seed", [(12, 1), (12, 2), (16, 1), (16, 2)])
def test_closed_weights_match_the_class_path_at_large_r(r, seed):
    specs = _every_spec(make_field(r), 4)
    _weight_paths_agree(random.Random(f"{r}:{seed}").choice(specs), 32)


@given(ctx=random_fields(r_max=5), pick=st.integers(min_value=0), j_max=st.integers(0, 10))
@settings(deadline=None, max_examples=40)
def test_engine_matches_dp_over_random_moduli(ctx, pick, j_max):
    specs = _every_spec(ctx, 4)
    spec = specs[pick % len(specs)]
    counts = trace_distribution(spec, "closed_form")
    prefix = prefix_counts_from_distribution(
        sum(counts.values()), class_dual_weights(ctx, counts), j_max)
    assert prefix == dp_prefix(ctx, counts, j_max)
    # the code does not depend on the representation of the field
    default = DoubleCosetSpec(spec.family, spec.sign, spec.n, make_field(ctx.r))
    assert weight_distribution_prefix(default, j_max).counts == prefix


def test_full_prefix_beyond_the_dp_at_r8():
    # length q + 1 = 257 with the whole distribution from the prefix engine
    spec = DoubleCosetSpec(1, "-", 1, make_field(8))
    n = dc_cardinality(spec)[2]
    assert n == 257
    dist = weight_distribution_prefix(spec, n).counts
    assert sum(dist) == 2 ** (n - 8)
    assert all(dist[j] == dist[n - j] for j in range(n + 1))
