"""Power moments of Kloosterman sums from code weight distributions.

The Pless power moment identity ties the h-th weight moments of the big
coset code to its dual's weight distribution.  Since the dual weights are
affine in K(lambda;a) (or in the two-dimensional sum), isolating the top
binomial term turns the identity into a recursion for the power moments
MK^h.  Four series shapes cover the eight coset families; every solved
series is compared against the brute-force moment oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial

from .coset_codes import (
    class_dual_weights,
    closed_weights,
    degenerate_kernel,
    prefix_counts_from_distribution,
    weight_distribution_prefix,
)
from .double_cosets import DoubleCosetSpec, dc_cardinality
from .finite_field import FieldCtx, inv, trace
from .kloosterman import MomentSeries, power_moment_oracle

H_MAX_LIMIT = 32


@lru_cache(maxsize=None)
def stirling2(h: int, t: int) -> int:
    """Stirling numbers of the second kind; 0 outside 0 <= t <= h."""
    if t < 0 or t > h:
        return 0
    if h == 0:
        return 1
    if t == 0:
        return 0
    return t * stirling2(h - 1, t) + stirling2(h - 1, t - 1)


def stirling2_alternating(h: int, t: int) -> int:
    """The alternating-sum form (1/t!) sum_j (-1)^(t-j) binom(t,j) j^h."""
    if t < 0 or t > h:
        return 0
    acc = 0
    for j in range(t + 1):
        term = comb(t, j) * j ** h
        acc += -term if (t - j) & 1 else term
    val, rem = divmod(acc, factorial(t))
    if rem:
        raise AssertionError("the alternating sum must be divisible by t!")
    return val


SeriesParams = namedtuple("SeriesParams", "label base c oracle_m oracle_stride")
SeriesParams.__doc__ = """One affine weight shape w(a) = (A/2)(base + c * X_a).

X_a is K(lambda;a) for label "mk", the two-dimensional sum for "mk2",
and K(lambda;a)^2 for "mk_even" (whose moments are the even MK^(2h))."""


def recursion_series(spec: DoubleCosetSpec) -> tuple[str, ...]:
    """The series the spec's recursion solves, the default first: "mk" where the
    closed character sum is linear in K, "mk2" and "mk_even" where it is
    quadratic.  Raises ValueError for a spec outside the recursion domain."""
    q = spec.ctx.q
    if spec.k2_shift is not None and q < 4:
        raise ValueError(f"family-{spec.family} recursions need q >= 4")
    if degenerate_kernel(spec):
        # past the q >= 4 gate, only family 3+ at n = 2 and q in {2, 4} is left
        raise ValueError(
            "the family-3 plus recursion at n = 2 needs q >= 8: at q in {2,4} "
            "the map a -> c(a) has the two-element subfield as kernel"
        )
    return ("mk",) if spec.k2_shift is None else ("mk2", "mk_even")


def _series_params(spec: DoubleCosetSpec, series: str | None) -> SeriesParams:
    labels = recursion_series(spec)
    series = labels[0] if series is None else series
    if series not in labels:
        if labels == ("mk",):
            raise ValueError(f"family {spec.family} admits only the 'mk' series")
        raise ValueError(f"series must be 'mk2' or 'mk_even', got {series!r}")
    s, c = spec.sign_value, spec.k2_shift
    b_cnt = dc_cardinality(spec)[1]
    if series == "mk":
        return SeriesParams("mk", b_cnt, -s, 1, 1)
    if series == "mk2":
        return SeriesParams("mk2", b_cnt + s * c, s, 2, 1)
    return SeriesParams("mk_even", b_cnt + s * (c - spec.ctx.q), s, 1, 2)


def _oracle_moments(ctx: FieldCtx, params: SeriesParams, h_max: int) -> tuple[int, ...]:
    series = power_moment_oracle(ctx, params.oracle_m, params.oracle_stride * h_max)
    return series.values[:: params.oracle_stride]


def _pless_sum(prefix: tuple[int, ...], n: int, h: int) -> int:
    """P(h) = sum_j (-1)^j C_j sum_t t! S(h,t) 2^(h-t) binom(n-j, n-t) over
    j <= t <= min(h, n): the weight-prefix side of the power moment identity
    2^h sum_a w(a)^h = q P(h), read off the first min(n, h) + 1 counts."""
    top = min(n, h)
    total = 0
    for j in range(top + 1):
        if not prefix[j]:
            continue
        inner = 0
        for t in range(j, top + 1):
            inner += factorial(t) * stirling2(h, t) * (1 << (h - t)) * comb(n - j, n - t)
        total += -prefix[j] * inner if j & 1 else prefix[j] * inner
    return total


def _solve_recursion(
    length: int,
    dual_weights: tuple[int, ...],
    a_cnt: int,
    base: int,
    c: int,
    h_max: int,
) -> tuple[int, ...]:
    """Solve M_h from the weight-moment identity, seeding M_0 = q - 1.

    2^h sum_a w(a)^h equals q * P(h) with P built from the weight prefix;
    expanding w(a)^h binomially and isolating l = h gives the recursion.
    The q dual weights give the prefix; all divisions are exact and asserted."""
    q = len(dual_weights)
    prefix = prefix_counts_from_distribution(length, dual_weights, min(length, h_max))
    values = [q - 1]
    for h in range(1, h_max + 1):
        lead, rem = divmod(q * _pless_sum(prefix, length, h), a_cnt ** h)
        if rem:
            raise AssertionError("the moment identity must divide exactly by A^h")
        acc = lead
        for l in range(h):
            acc -= comb(h, l) * base ** (h - l) * c ** l * values[l]
        values.append(c ** h * acc)
    return tuple(values)


RecursionReport = namedtuple("RecursionReport", "spec series h_max recursion_values oracle_values agree")
RecursionReport.__doc__ = """Solved series next to its oracle (oracle_values and agree are None
without it).  For the 'mk_even' series the values at index h are the 2h-th
power moments."""


def _package_report(
    spec: DoubleCosetSpec,
    params: SeriesParams,
    h_max: int,
    values: tuple[int, ...],
    with_oracle: bool,
) -> RecursionReport:
    rec = MomentSeries(m=params.oracle_m, h_max=h_max, values=values)
    if not with_oracle:
        return RecursionReport(spec, params.label, h_max, rec, None, None)
    oracle_vals = _oracle_moments(spec.ctx, params, h_max)
    orc = MomentSeries(m=params.oracle_m, h_max=h_max, values=oracle_vals)
    agree = tuple(x == y for x, y in zip(values, oracle_vals))
    return RecursionReport(spec, params.label, h_max, rec, orc, agree)


def recursive_moments(
    spec: DoubleCosetSpec,
    h_max: int,
    series: str | None = None,
    with_oracle: bool = True,
) -> RecursionReport:
    if not 1 <= h_max <= H_MAX_LIMIT:
        raise ValueError(f"h_max must lie in 1..{H_MAX_LIMIT}")
    params = _series_params(spec, series)
    a_cnt, _, length = dc_cardinality(spec)
    values = _solve_recursion(length, closed_weights(spec), a_cnt, params.base, params.c, h_max)
    return _package_report(spec, params, h_max, values, with_oracle)


def smallest_case_recursions(ctx: FieldCtx, variant: str, h_max: int) -> RecursionReport:
    """The two fully written-out smallest-case specializations.

    Variant "a" is the smallest plus-sign family-1 case with its three
    explicit trace classes of length q^4(q^2-1); variant "b" is the
    smallest minus-sign case of length q+1 with classes (1, 2, 2, ...).
    Both must reproduce recursive_moments at the same parameters."""
    if not 1 <= h_max <= H_MAX_LIMIT:
        raise ValueError(f"h_max must lie in 1..{H_MAX_LIMIT}")
    q = ctx.q
    if variant == "a":
        counts = {0: q * q * (q - 1) * (q * q + q + 1)}
        for beta in range(1, q):
            if trace(ctx, inv(ctx, beta)) == 0:
                counts[beta] = q * q * (q * q - 1) * (q + 1)
            else:
                counts[beta] = q * q * (q - 1) * (q * q + 1)
        a_cnt = q ** 3 * (q - 1)
        base = q * q + q
        c = -1
        spec = DoubleCosetSpec(1, "+", 2, ctx)
    elif variant == "b":
        counts = {0: 1} | {beta: 2 * trace(ctx, inv(ctx, beta)) for beta in range(1, q)}
        a_cnt = 1
        base = q + 1
        c = 1
        spec = DoubleCosetSpec(1, "-", 1, ctx)
    else:
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    length = dc_cardinality(spec)[2]
    if sum(counts.values()) != length:
        raise AssertionError("printed class sizes must sum to the coset size")
    values = _solve_recursion(length, class_dual_weights(ctx, counts), a_cnt, base, c, h_max)
    params = SeriesParams("mk", base, c, 1, 1)
    return _package_report(spec, params, h_max, values, True)


def pless_check(spec: DoubleCosetSpec, h: int) -> tuple[int, int]:
    """(lhs, rhs) of the power moment identity at exponent h >= 1.

    lhs sums w(c(a))^h over nonzero a from the closed weights; rhs runs
    over the weight prefix of the big code with dual dimension r."""
    if h < 1:
        raise ValueError("h must be at least 1")
    if degenerate_kernel(spec):
        raise ValueError(
            "the map a -> c(a) has the two-element subfield as kernel: the dual has "
            "fewer than q words and the q-term moment sum is unavailable"
        )
    lhs = sum(w ** h for w in closed_weights(spec)[1:])
    n = dc_cardinality(spec)[2]
    prefix = weight_distribution_prefix(spec, min(n, h)).counts
    rhs, rem = divmod(spec.ctx.q * _pless_sum(prefix, n, h), 1 << h)
    if rem:
        raise AssertionError("the power-moment sum must be an integer")
    return lhs, rhs
