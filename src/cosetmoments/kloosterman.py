"""Kloosterman-type character sums: brute-force oracles and closed identities.

Everything here is an exact integer computation.  Point values come from
direct sums over the exponents of a generator g; the values at every a at
once, which the moment oracle, the value range and the coset closed forms
read, come from `kloosterman_spectrum`, one character-sum transform per
dimension.  The direct sums stay the independent oracles against which the
spectrum and every closed form are checked.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement
from math import isqrt

from .finite_field import FieldCtx, character_sums, inv, lambda_char, lambda_table, mul, units

ENUM_BUDGET = 10 ** 8  # direct-summation term cap
ORACLE_H_LIMIT = 512  # largest h_max of the moment oracle


class BudgetError(ValueError):
    """An enumeration would exceed its declared budget."""


# values[h] = sum over a != 0 of K_m(lambda;a)^h, for h = 0..h_max
MomentSeries = namedtuple("MomentSeries", "m h_max values")


def _check_unit(ctx: FieldCtx, a: int, name: str = "a") -> None:
    if not 0 < a < ctx.q:
        raise ValueError(f"{name} must be a nonzero element of GF({ctx.q}), got {a}")


def direct_sum_fits(q: int, m: int) -> bool:
    """Whether the direct K_m sum's (m - 1)(q - 1)^2 + (q - 1) terms fit ENUM_BUDGET."""
    return (m - 1) * (q - 1) ** 2 + (q - 1) <= ENUM_BUDGET


@lru_cache(maxsize=None)
def kloosterman_sum(ctx: FieldCtx, m: int, a: int) -> int:
    """K_m(lambda;a) by direct summation over the exponents of g.

    With x = g^i, K_j(a) = sum over x != 0 of lambda(x) K_(j-1)(a/x), where
    K_0 = lambda: each of the m - 1 lower levels is that sum at every exponent,
    (q - 1)^2 terms, and the top level is one sum of q - 1 terms at log a."""
    if m < 1:
        raise ValueError(f"dimension m must be positive, got {m}")
    _check_unit(ctx, a)
    if not direct_sum_fits(ctx.q, m):
        raise BudgetError(
            f"direct K_{m} sum needs (m - 1)(q - 1)^2 + (q - 1) terms, over the budget {ENUM_BUDGET}"
        )
    lam, n = lambda_table(ctx), ctx.q - 1
    chi = level = [lam[x] for x in ctx.exp[:n]]  # chi(i) = lambda(g^i), also K_0(g^i)
    for j in range(1, m + 1):
        twice = level + level  # twice[e + n - i] = K_(j-1)(g^(e - i)) for 0 <= i < n
        points = range(n) if j < m else (ctx.log[a],)
        level = [sum(map(operator.mul, chi, reversed(twice[e + 1 : e + n + 1]))) for e in points]
    return level[0]


def carlitz_k2(ctx: FieldCtx, a: int) -> int:
    """The 2-dimensional sum through the identity K_2 = K^2 - q."""
    _check_unit(ctx, a)
    k = kloosterman_sum(ctx, 1, a)
    return k * k - ctx.q


@lru_cache(maxsize=None)
def kloosterman_spectrum(ctx: FieldCtx, m: int) -> tuple[int, ...]:
    """K_m(lambda;a) for every a at once: entry a of a q-entry tuple (entry 0 is 0).

    With u = 1/x, K_1(a) = sum over u != 0 of lambda(a u) lambda(1/u); with w = x y
    the x-sum of K_2 is K_1(w), so K_2(a) = sum over u != 0 of lambda(a u) K_1(1/u).
    Each is one `character_sums` of the vector inner(1/u) (0 at u = 0), with inner
    lambda for m = 1 and the m = 1 spectrum for m = 2."""
    if m not in (1, 2):
        raise ValueError(f"the spectrum covers m in {{1, 2}}, got {m}")
    inner = lambda_table(ctx) if m == 1 else kloosterman_spectrum(ctx, 1)
    sums = character_sums(ctx, [0] + [inner[inv(ctx, u)] for u in units(ctx)])
    sums[0] = 0
    return tuple(sums)


def power_moment_oracle(ctx: FieldCtx, m: int, h_max: int) -> MomentSeries:
    """Exact moments MK_m^h = sum over a != 0 of K_m^h, for h = 0..h_max, as
    sum over values v of mult(v) v^h from the spectrum's value histogram."""
    if m not in (1, 2):
        raise ValueError(f"moment oracle covers m in {{1, 2}}, got {m}")
    if h_max < 0:
        raise ValueError("h_max must be nonnegative")
    if h_max > ORACLE_H_LIMIT:
        raise BudgetError(f"h_max = {h_max} exceeds the moment-oracle limit {ORACLE_H_LIMIT}")
    hist = Counter(kloosterman_spectrum(ctx, m)[1:])
    values = tuple(sum(mult * v ** h for v, mult in hist.items()) for h in range(h_max + 1))
    return MomentSeries(m=m, h_max=h_max, values=values)


def kgl_recursive(ctx: FieldCtx, t: int, a: int) -> int:
    """Kloosterman sum over GL(t,q) via its two-step recursion."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    _check_unit(ctx, a)
    if t == 0:
        return 1
    q = ctx.q
    k = kloosterman_sum(ctx, 1, a)
    prev, cur = 1, k
    for s in range(2, t + 1):
        prev, cur = cur, q ** (s - 1) * cur * k + q ** (2 * s - 2) * (q ** (s - 1) - 1) * prev
    return cur


def kgl_closed(ctx: FieldCtx, t: int, a: int) -> int:
    """Closed form of the GL(t,q) Kloosterman sum.

    Sums q^l K^(t+2-2l) times a product over descending exponent chains
    2l-1 <= j_(l-1) <= ... <= j_1 <= t+1; the global prefactor
    q^((t-2)(t+1)/2) is negative-exponent only at t = 1, where it is an
    exact division by q.
    """
    if t < 1:
        raise ValueError(f"closed form needs t >= 1, got {t}")
    _check_unit(ctx, a)
    q = ctx.q
    k = kloosterman_sum(ctx, 1, a)
    total = 0
    for l in range(1, (t + 2) // 2 + 1):
        inner = 0  # at l = 1 the one empty chain contributes the empty product 1
        for chain in combinations_with_replacement(range(2 * l - 1, t + 2), l - 1):
            term = 1
            for nu, j in enumerate(reversed(chain), start=1):
                term *= q ** (j - 2 * nu) - 1
            inner += term
        total += q ** l * k ** (t + 2 - 2 * l) * inner
    if t >= 2:
        return q ** ((t - 2) * (t + 1) // 2) * total
    out, rem = divmod(total, q)
    if rem:
        raise AssertionError("closed GL(t,q) sum must be an integer")
    return out


def twisted_sum_check(ctx: FieldCtx, m: int, beta: int) -> tuple[int, int]:
    """Both sides of the twist identity for sum over a of lambda(a*beta) K_m(lambda;a).

    In characteristic two -a*beta = a*beta.  The right side lowers the
    dimension: q K_(m-1)(lambda;beta^-1) + (-1)^(m+1) for beta != 0, where
    K_0(lambda;x) means lambda(x); it degenerates to (-1)^(m+1) at beta = 0.
    The left side reads the spectrum, the right side the direct sums.
    """
    if m not in (1, 2):
        raise ValueError(f"the twist check covers m in {{1, 2}}, got {m}")
    if not 0 <= beta < ctx.q:
        raise ValueError(f"beta must be a field element, got {beta}")
    spectrum = kloosterman_spectrum(ctx, m)
    lhs = sum(lambda_char(ctx, mul(ctx, a, beta)) * spectrum[a] for a in units(ctx))
    parity = 1 if m % 2 == 1 else -1  # (-1)^(m+1)
    if beta == 0:
        return lhs, parity
    bi = inv(ctx, beta)
    lower = lambda_char(ctx, bi) if m == 1 else kloosterman_sum(ctx, m - 1, bi)
    return lhs, ctx.q * lower + parity


def artin_schreier_sums(ctx: FieldCtx, beta: int) -> tuple[int, int]:
    """Character sums along the fibers of x -> x^2 + x.

    Returns (S0, S1) with S0 = sum over alpha outside {0,1} of
    lambda(beta/(alpha^2+alpha)) and S1 = sum over all alpha of
    lambda(beta/(alpha^2+alpha+a_param)); the denominators never vanish in
    S1 because a_param has trace 1.  The expected values are K(lambda;beta)-1
    and -K(lambda;beta)-1.
    """
    _check_unit(ctx, beta, "beta")
    s0 = 0
    s1 = 0
    for al in range(ctx.q):
        sq = mul(ctx, al, al) ^ al
        if sq:
            s0 += lambda_char(ctx, mul(ctx, beta, inv(ctx, sq)))
        s1 += lambda_char(ctx, mul(ctx, beta, inv(ctx, sq ^ ctx.a_param)))
    return s0, s1


def range_spectrum(ctx: FieldCtx) -> frozenset[int]:
    """The set of Kloosterman values {K(lambda;a) : a != 0}."""
    if ctx.r < 2:
        raise ValueError("the value-range description requires r >= 2")
    return frozenset(kloosterman_spectrum(ctx, 1)[1:])


def predicted_spectrum(q: int) -> frozenset[int]:
    """{tau : tau^2 < 4q, tau = -1 mod 4}, the predicted Kloosterman range."""
    bound = isqrt(4 * q - 1)
    return frozenset(t for t in range(-bound, bound + 1) if t % 4 == 3)
