"""The closed forms of the eight double-coset families of O^-(2n,q) over GF(2^r).

The recursions read only these: the group and cell orders, the family of
each (sign, family, n) spec, its size N = A * B, its character sums
S(a) = s A K(a) or -s A (K_2(a) + c) over the coset, and the trace classes
they transform to.  Enumeration (`ominus_groups`) is their oracle; only the
"enumerated" mode of the sums loads it, inside the function.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import prod

from .finite_field import FieldCtx, character_sums
from .kloosterman import kloosterman_spectrum

Q_ENUM_BUDGET = 10 ** 4       # largest |Q^-| that may be enumerated
PRODUCT_BUDGET = 10 ** 6      # largest |O^-(2n,q)|, the products the cells of one n build


# ---------------------------------------------------------------------------
# orders and indices


def gl_order(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2) * prod(q ** j - 1 for j in range(1, n + 1))


def gauss_binomial(n: int, r: int, q: int) -> int:
    """Gaussian binomial coefficient; 0 outside 0 <= r <= n."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for j in range(r):
        num *= q ** (n - j) - 1
        den *= q ** (r - j) - 1
    val, rem = divmod(num, den)
    if rem:
        raise AssertionError("Gaussian binomial must be an integer")
    return val


def q_minus_order(q: int, n: int) -> int:
    return (q + 1) * gl_order(n - 1, q) * q ** ((n - 1) * (n + 2) // 2)


def q_minus_fits(q: int, n: int) -> bool:
    """Whether enumerating Q^-(2n,q) fits Q_ENUM_BUDGET."""
    return q_minus_order(q, n) <= Q_ENUM_BUDGET


def p_minus_order(q: int, n: int) -> int:
    return 2 * q_minus_order(q, n)


def o_minus_order(q: int, n: int) -> int:
    return 2 * q ** (n * n - n) * (q ** n + 1) * _evenprod(q, n - 1)


def products_fit(q: int, n: int) -> bool:
    """Whether |O^-(2n,q)|, the products w y that the cells at n build, fits PRODUCT_BUDGET."""
    return o_minus_order(q, n) <= PRODUCT_BUDGET


def bruhat_cell_order(q: int, n: int, r: int) -> int:
    """|Q^- sigma_r Q^-| (equal to its rho-twisted twin) in closed form."""
    out = (q + 1) * q ** (n * n - n)
    for j in range(1, n):
        out *= q ** j - 1
    return out * gauss_binomial(n - 1, r, q) * q ** (r * (r - 1) // 2 + 2 * r)


def parabolic_indices(ctx: FieldCtx, n: int, r: int) -> tuple[int, int]:
    """(order of the sigma_r stabilizer pair subgroup in P^-, index of its
    Q^- analogue), tied by |Q^- sigma_r Q^-| = |Q^-| * index."""
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..{n - 1}, got {r}")
    q = ctx.q
    exp2 = (n - 1) * (n + 2) + r * (2 * n - 3 * r - 5)
    if exp2 % 2:
        raise AssertionError("stabilizer exponent must be even")
    a_ord = 2 * (q + 1) * gl_order(r, q) * gl_order(n - 1 - r, q) * q ** (exp2 // 2)
    index = gauss_binomial(n - 1, r, q) * q ** (r * (r + 3) // 2)
    return a_ord, index


# ---------------------------------------------------------------------------
# the families and their cardinalities


# family -> (n - r of its Weyl element sigma_r, rho twist, exponent e of the
# shift c = q^e in its closed character sum -s A (K_2 + c); None where that
# sum is linear, s A K)
_FAMILIES = {1: (1, False, None), 2: (2, False, 1), 3: (2, True, None), 4: (3, True, 2)}
_MIN_N = {
    ("+", 1): 2, ("+", 2): 2, ("+", 3): 2, ("+", 4): 4,
    ("-", 1): 1, ("-", 2): 3, ("-", 3): 3, ("-", 4): 3,
}


class DoubleCosetSpec(namedtuple("DoubleCosetSpec", "family sign n ctx")):
    __slots__ = ()

    def __new__(cls, family: int, sign: str, n: int, ctx: FieldCtx) -> DoubleCosetSpec:
        if family not in _FAMILIES:
            raise ValueError(f"family must be 1..4, got {family}")
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        parity = 0 if sign == "+" else 1
        if n % 2 != parity:
            kind = "even" if parity == 0 else "odd"
            raise ValueError(f"sign {sign} families need n {kind}, got n = {n}")
        least = _MIN_N[(sign, family)]
        if n < least:
            raise ValueError(f"family {family} with sign {sign} needs n >= {least}, got {n}")
        return super().__new__(cls, family, sign, n, ctx)

    @property
    def sigma_index(self) -> int:
        return self.n - _FAMILIES[self.family][0]

    @property
    def rho_twisted(self) -> bool:
        return _FAMILIES[self.family][1]

    @property
    def k2_shift(self) -> int | None:
        """c of the closed character sum -s A (K_2 + c), or None for the
        families whose sum is linear, s A K."""
        e = _FAMILIES[self.family][2]
        return None if e is None else self.ctx.q ** e

    @property
    def sign_value(self) -> int:
        return 1 if self.sign == "+" else -1


def valid_specs(ctx: FieldCtx, n: int) -> list[DoubleCosetSpec]:
    """Every family that exists at n, in family order; n fixes the sign."""
    sign = "+" if n % 2 == 0 else "-"
    return [DoubleCosetSpec(fam, sign, n, ctx) for fam in _FAMILIES if n >= _MIN_N[(sign, fam)]]


def first_specs(ctx: FieldCtx) -> list[DoubleCosetSpec]:
    """The eight families, each at its least n: plus signs first, in family order."""
    return [DoubleCosetSpec(fam, sign, n, ctx) for (sign, fam), n in _MIN_N.items()]


def _oddprod(q: int, half: int) -> int:
    return prod(q ** (2 * j - 1) - 1 for j in range(1, half + 1))


def _evenprod(q: int, half: int) -> int:
    return prod(q ** (2 * j) - 1 for j in range(1, half + 1))


def _q_pow_quarter(q: int, numerator: int) -> int:
    e, rem = divmod(numerator, 4)
    if rem:
        raise AssertionError("exponent numerator must be divisible by 4")
    return q ** e


def dc_cardinality(spec: DoubleCosetSpec) -> tuple[int, int, int]:
    """Closed-form (A, B, N) with N = A * B the double-coset size."""
    q, n, fam = spec.ctx.q, spec.n, spec.family
    if spec.sign == "+":
        half = (n - 2) // 2
        pa = _oddprod(q, half)
        pb = _evenprod(q, half)
        if fam == 1:
            a_cnt = _q_pow_quarter(q, 5 * n * n - 2 * n - 4) * (q ** (n - 1) - 1) * pa
            b_cnt = (q + 1) * _q_pow_quarter(q, n * n) * pb
        elif fam == 2:
            a_cnt = _q_pow_quarter(q, 5 * n * n - 2 * n - 8) * gauss_binomial(n - 1, 1, q) * pa
            b_cnt = (q + 1) * _q_pow_quarter(q, (n - 2) ** 2) * (q ** (n - 1) - 1) * pb
        elif fam == 3:
            a_cnt = (q + 1) * _q_pow_quarter(q, 5 * n * n - 2 * n - 8) * gauss_binomial(n - 1, 1, q) * pa
            b_cnt = _q_pow_quarter(q, (n - 2) ** 2) * (q ** (n - 1) - 1) * pb
        else:
            a_cnt = (q + 1) * _q_pow_quarter(q, 5 * n * n - 6 * n - 4) * gauss_binomial(n - 1, 2, q) * pa
            b_cnt = _q_pow_quarter(q, (n - 2) ** 2) * (q ** (n - 1) - 1) * pb
    else:
        half = (n - 1) // 2
        pa = _oddprod(q, half)
        pb = _evenprod(q, half)
        if fam == 1:
            a_cnt = _q_pow_quarter(q, 5 * (n * n - 1)) * pa
            b_cnt = (q + 1) * _q_pow_quarter(q, (n - 1) ** 2) * pb
        elif fam == 2:
            a_cnt = _q_pow_quarter(q, 5 * n * n - 4 * n - 5) * gauss_binomial(n - 1, 1, q) * pa
            b_cnt = (q + 1) * _q_pow_quarter(q, (n - 1) ** 2) * pb
        elif fam == 3:
            a_cnt = (q + 1) * _q_pow_quarter(q, 5 * n * n - 4 * n - 5) * gauss_binomial(n - 1, 1, q) * pa
            b_cnt = _q_pow_quarter(q, (n - 1) ** 2) * pb
        else:
            a_cnt = (
                (q + 1)
                * _q_pow_quarter(q, 5 * n * n - 4 * n - 9)
                * gauss_binomial(n - 1, 2, q)
                * _oddprod(q, (n - 3) // 2)
            )
            b_cnt = (
                _q_pow_quarter(q, (n - 3) ** 2)
                * (q ** (n - 2) - 1)
                * (q ** (n - 1) - 1)
                * _evenprod(q, (n - 3) // 2)
            )
    total = a_cnt * b_cnt
    if total != bruhat_cell_order(q, n, spec.sigma_index):
        raise AssertionError("family cardinality disagrees with the Bruhat cell order")
    return a_cnt, b_cnt, total


# ---------------------------------------------------------------------------
# exponential sums and trace distributions


@lru_cache(maxsize=None)
def _trace_counts(spec: DoubleCosetSpec, mode: str) -> tuple[int, ...]:
    """Elements per trace class beta.  The closed classes are the transform of
    the closed sums divided by q: the transform applied twice multiplies by q."""
    q = spec.ctx.q
    if mode == "enumerated":
        from .ominus_groups import double_coset_traces  # the enumeration oracle, loaded here alone
        counted = Counter(double_coset_traces(spec))
        return tuple(counted.get(beta, 0) for beta in range(q))
    if mode != "closed_form":
        raise ValueError(f"mode must be 'enumerated' or 'closed_form', got {mode!r}")
    out = []
    for twice in character_sums(spec.ctx, exp_sums_dc(spec)):
        count, rem = divmod(twice, q)
        if rem or count < 0:
            raise AssertionError("trace-class count must be a nonnegative integer")
        out.append(count)
    return tuple(out)


def trace_distribution(spec: DoubleCosetSpec, mode: str = "closed_form") -> dict[int, int]:
    """Counts of double-coset elements by matrix trace, keyed by field element."""
    return dict(enumerate(_trace_counts(spec, mode)))


@lru_cache(maxsize=None)
def exp_sums_dc(spec: DoubleCosetSpec, mode: str = "closed_form") -> tuple[int, ...]:
    """S(a), the character sum of lambda(a * trace) over the double coset, at
    every a; entry 0 is the coset size N.  The closed sums are the one K-form
    statement; the enumerated sums are the transform of the counted classes."""
    if mode != "closed_form":
        return tuple(character_sums(spec.ctx, _trace_counts(spec, mode)))
    a_cnt, _, total = dc_cardinality(spec)
    s, c, q = spec.sign_value, spec.k2_shift, spec.ctx.q
    k1 = kloosterman_spectrum(spec.ctx, 1)[1:]
    if c is None:
        return (total, *(s * a_cnt * k for k in k1))
    return (total, *(-s * a_cnt * (k * k - q + c) for k in k1))  # K_2 = K^2 - q


def exp_sum_dc(spec: DoubleCosetSpec, a: int, mode: str = "closed_form") -> int:
    """The character sum of lambda(a * trace) over the double coset."""
    if not 0 < a < spec.ctx.q:
        raise ValueError(f"a must be a nonzero element of GF({spec.ctx.q})")
    return (exp_sums_dc(spec) if mode == "closed_form" else exp_sums_dc(spec, mode))[a]


# ---------------------------------------------------------------------------
# the symmetric-matrix character sum, in closed form


def b_r_sum_closed(ctx: FieldCtx, r: int) -> int:
    """Closed form of the symmetric-matrix sum; independent of the character:
    (-q)^r times MacWilliams' count of nonsingular symmetric r x r matrices,
    q^(k(k+1)) prod_{j <= ceil(r/2)} (q^(2j-1) - 1) with k = floor(r/2)."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    q, k = ctx.q, r // 2
    return (-q) ** r * q ** (k * (k + 1)) * _oddprod(q, r - k)
