"""Exact arithmetic in GF(2^r), the trace map, and the canonical character.

Field elements are integers below q = 2^r encoding polynomial-basis
coefficients little-endian (bit k = coefficient of z^k).  The modulus is an
irreducible degree-r polynomial over GF(2) encoded the same way with bit r
set; the default is the irreducible polynomial with the smallest bitmask.
Every context carries a distinguished element a_param of trace 1, so that
z^2 + z + a_param has no root; it parametrizes the minus-type quadratic
form used by the group modules.

Products and inverses are one lookup each in the tables exp[i] = g^i
and log of the smallest generator g of GF(q)^*, built once per (modulus, r)
by the carry-less product `_raw_mul` and held by every context.  g is searched
for: the modulus need not be primitive (z has order 51 under 0x11B, r = 8).

All functions are pure and FieldCtx is immutable (its slots are set once, in
__init__; assigning or deleting one raises AttributeError), so contexts can be
shared freely across worker processes.  Equality, hash and repr read r, q,
modulus, a_param and trace_mask; the exp and log tables follow from those.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

MAX_R = 16


class FieldCtx:
    __slots__ = ("r", "q", "modulus", "a_param", "trace_mask", "exp", "log")

    def __init__(self, r: int, q: int, modulus: int, a_param: int, trace_mask: int,
                 exp: tuple[int, ...], log: tuple[int, ...]) -> None:
        # trace_mask: bit k set iff tr(z^k) = 1; exp and log: _exp_log_tables(modulus, r),
        # shared by every context with this modulus
        for name, value in zip(self.__slots__, (r, q, modulus, a_param, trace_mask, exp, log)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple[int, int, int, int, int]:
        return (self.r, self.q, self.modulus, self.a_param, self.trace_mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:  # the tuple inline: every cache keyed by a context hashes it
        return hash((self.r, self.q, self.modulus, self.a_param, self.trace_mask))

    def __repr__(self) -> str:
        return (f"FieldCtx(r={self.r!r}, q={self.q!r}, modulus={self.modulus!r}, "
                f"a_param={self.a_param!r}, trace_mask={self.trace_mask!r})")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return FieldCtx, (*self._key(), self.exp, self.log)


def poly_degree(mask: int) -> int:
    return mask.bit_length() - 1


def _poly_rem(a: int, b: int) -> int:
    """Remainder of carry-less polynomial division of a by b over GF(2)."""
    width = b.bit_length()
    while a.bit_length() >= width:
        a ^= b << (a.bit_length() - width)
    return a


def _raw_mul(x: int, y: int, modulus: int, r: int) -> int:
    """Product of two reduced elements, reducing on the fly."""
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if (x >> r) & 1:
            x ^= modulus
    return acc


def smallest_factor(modulus: int, r: int) -> int | None:
    """Smallest nontrivial divisor of a degree-r polynomial, or None."""
    for d in range(1, r // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_rem(modulus, cand) == 0:
                return cand
    return None


def is_irreducible(modulus: int, r: int) -> bool:
    if r < 1 or modulus.bit_length() != r + 1:
        return False
    return smallest_factor(modulus, r) is None


@lru_cache(maxsize=None)
def default_modulus(r: int) -> int:
    for cand in range(1 << r, 1 << (r + 1)):
        if is_irreducible(cand, r):
            return cand
    raise AssertionError("irreducible polynomials exist in every degree")


def _trace_of(x: int, modulus: int, r: int) -> int:
    """x + x^2 + ... + x^(2^(r-1)) computed by repeated squaring."""
    acc = x
    t = x
    for _ in range(r - 1):
        t = _raw_mul(t, t, modulus, r)
        acc ^= t
    return acc


def make_field(r: int, modulus: int | None = None, a_param: int | None = None) -> FieldCtx:
    """Build a GF(2^r) context.

    Defaults: the smallest irreducible degree-r modulus and the smallest
    element of trace 1 as a_param.  Overrides are validated: the modulus
    must be irreducible of degree exactly r and a_param must have trace 1
    (otherwise z^2 + z + a_param would split and the quadratic form would
    degenerate).
    """
    if not 1 <= r <= MAX_R:
        raise ValueError(f"r must be between 1 and {MAX_R}, got {r}")
    q = 1 << r
    if modulus is None:
        modulus = default_modulus(r)
    else:
        if poly_degree(modulus) != r:
            raise ValueError(
                f"modulus 0x{modulus:X} has degree {poly_degree(modulus)}, need exactly {r}"
            )
        factor = smallest_factor(modulus, r)
        if factor is not None:
            raise ValueError(
                f"modulus 0x{modulus:X} is reducible over GF(2): divisible by 0x{factor:X}"
            )
    mask = 0
    for k in range(r):
        bit = _trace_of(1 << k, modulus, r)
        if bit not in (0, 1):
            raise AssertionError("trace escaped GF(2); irreducibility check is broken")
        mask |= bit << k
    if a_param is None:
        a_param = next(x for x in range(q) if (x & mask).bit_count() & 1)
    else:
        if not 0 <= a_param < q:
            raise ValueError(f"a_param 0x{a_param:X} is not an element of GF({q})")
        if (a_param & mask).bit_count() & 1 != 1:
            raise ValueError(f"a_param 0x{a_param:X} has trace 0; the quadratic form needs trace 1")
    exp, log = _exp_log_tables(modulus, r)
    return FieldCtx(r=r, q=q, modulus=modulus, a_param=a_param, trace_mask=mask, exp=exp, log=log)


@lru_cache(maxsize=None)
def _exp_log_tables(modulus: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """exp[i] = g^i for i < 2(q - 1) (two periods, so log sums need no reduction) and log[g^i] = i,
    where g = 1, 2, ... is the first with g^((q-1)/p) != 1 for every prime p dividing q - 1."""
    def power(x: int, e: int) -> int:
        acc = 1
        for bit in bin(e)[2:]:  # square and multiply, from the top bit
            acc = _raw_mul(_raw_mul(acc, acc, modulus, r), x if bit == "1" else 1, modulus, r)
        return acc

    n = (1 << r) - 1
    low = [d for d in range(2, isqrt(n) + 1) if n % d == 0]  # each prime factor or its cofactor
    primes = [p for p in {*low, *(n // d for d in low), n} if p > 1 and all(p % d for d in range(2, p))]
    g = next(g for g in range(1, n + 1) if all(power(g, n // p) != 1 for p in primes))
    exp, x = [1], 1
    for _ in range(n - 1):
        exp.append(x := _raw_mul(x, g, modulus, r))
    log = [0] * (n + 1)
    for i, x in enumerate(exp):
        log[x] = i
    return tuple(exp + exp), tuple(log)


def mul_table(ctx: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """Full q x q product table; only materialized for q <= 256."""
    if ctx.q > 256:
        raise ValueError("no product table above q = 256")
    return tuple(tuple(mul(ctx, x, y) for y in range(ctx.q)) for x in range(ctx.q))


def mul(ctx: FieldCtx, x: int, y: int) -> int:
    if x and y:
        log = ctx.log
        return ctx.exp[log[x] + log[y]]
    return 0


def inv(ctx: FieldCtx, x: int) -> int:
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse in GF({ctx.q})")
    return ctx.exp[ctx.q - 1 - ctx.log[x]]


def trace(ctx: FieldCtx, x: int) -> int:
    return (x & ctx.trace_mask).bit_count() & 1


def lambda_char(ctx: FieldCtx, x: int) -> int:
    """The canonical additive character (-1)^tr(x), valued in {+1, -1}."""
    return 1 - 2 * ((x & ctx.trace_mask).bit_count() & 1)


@lru_cache(maxsize=None)
def lambda_table(ctx: FieldCtx) -> tuple[int, ...]:
    return tuple(lambda_char(ctx, x) for x in range(ctx.q))


def _walsh_hadamard(vec: list[int]) -> list[int]:
    """W[u] = sum_x vec[x] (-1)^popcount(u & x) for a power-of-two length.
    Each pass butterflies the top index bit and moves it to the bottom, so
    after log2(len) passes every bit is transformed and back in place."""
    half = len(vec) // 2
    for _ in range(len(vec).bit_length() - 1):
        lo, hi = vec[:half], vec[half:]
        vec = [0] * (2 * half)
        vec[0::2] = [x + y for x, y in zip(lo, hi)]
        vec[1::2] = [x - y for x, y in zip(lo, hi)]
    return vec


def character_sums(ctx: FieldCtx, values) -> list[int]:
    """S[b] = sum_x values[x] lambda(b x) for every b as W[M(b)]: bit k of M(b) is tr(b z^k),
    so tr(b x) = parity(M(b) & x); M is linear, one XOR per b from the r basis images."""
    images = [0]
    for i in range(ctx.r):
        row = sum(trace(ctx, mul(ctx, 1 << i, 1 << k)) << k for k in range(ctx.r))
        images += [m ^ row for m in images]
    walsh = _walsh_hadamard(list(values))
    return [walsh[m] for m in images]


def theta_subgroup(ctx: FieldCtx) -> frozenset[int]:
    """The image of x -> x^2 + x, an index-2 subgroup of the additive group."""
    return frozenset(mul(ctx, x, x) ^ x for x in range(ctx.q))


def units(ctx: FieldCtx) -> range:
    return range(1, ctx.q)


def to_hex(x: int) -> str:
    return "0x%X" % x


def parse_hex(text: str) -> int:
    try:
        value = int(text, 16)
    except ValueError:
        raise ValueError(f"{text!r} is not a hex value") from None
    if value < 0:
        raise ValueError(f"negative encodings are not field elements: {text}")
    return value
