"""Binary linear codes built on the double-coset families.

A coset with elements g_1, ..., g_N (in the coset order of its Bruhat cell)
induces the length-N words c(a) = (tr(a Tr g_1), ..., tr(a Tr g_N)) for a in
GF(q).  Any other order permutes the coordinates, which leaves every weight,
kernel, rank and distribution here unchanged.
These words form the dual of the code of interest; everything here works
with that q-element dual: closed-form Hamming weights, the exact weight
distribution of the big primal code, and the duality and kernel checks.
Both the weight prefix and the full distribution at tiny lengths come from
one MacWilliams engine: the dual weights (the closed weights (N - S(a))/2,
or popcounts), then Krawtchouk values per distinct weight.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from .double_cosets import DoubleCosetSpec, dc_cardinality, exp_sums_dc
from .finite_field import FieldCtx, character_sums, check_unit, mul, trace
from .kloosterman import BudgetError

PREFIX_J_LIMIT = 10 ** 3      # largest weight-prefix cutoff
MACWILLIAMS_N_LIMIT = 64      # largest length for a full distribution
DUALITY_N_LIMIT = 24          # largest length for the exhaustive duality check


def dual_codeword(spec: DoubleCosetSpec, a: int) -> tuple[int, ...]:
    """c(a): the bit sequence tr(a Tr g_j) over the coset order."""
    from .ominus_groups import double_coset_traces  # the enumeration: the closed weights never load it
    ctx = spec.ctx
    if not 0 <= a < ctx.q:
        raise ValueError(f"a must be a field element below {ctx.q}")
    return tuple(trace(ctx, mul(ctx, a, t)) for t in double_coset_traces(spec))


def _dual_weights(sums: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Weight (N - S(a)) / 2 of every c(a) from its character sum S(a), N = S(0): the one
    check that each dual weight is an integer in 0..N, which the MacWilliams engine reads."""
    if any((sums[0] - s) % 2 or not -sums[0] <= s <= sums[0] for s in sums):
        raise AssertionError("weight must be a nonnegative integer, at most N")
    return tuple((sums[0] - s) // 2 for s in sums)


@lru_cache(maxsize=None)
def closed_weights(spec: DoubleCosetSpec) -> tuple[int, ...]:
    """The dual weights from the closed character sums."""
    return _dual_weights(exp_sums_dc(spec))


def codeword_weight_closed(spec: DoubleCosetSpec, a: int) -> int:
    """Hamming weight of c(a) from the closed exponential-sum forms."""
    check_unit(spec.ctx, a)
    return closed_weights(spec)[a]


# counts[j] = C_j, the words of weight j in the primal code, for j = 0..j_max
WeightPrefix = namedtuple("WeightPrefix", "spec j_max counts")


def _macwilliams(length: int, dual_weights: dict[int, int], j_max: int) -> tuple[int, ...]:
    """C_j for j <= j_max of a binary code from its dual (MacWilliams):
    dual_weights maps each weight w to mult(w), the dual words of weight w
    (every word counted equally often), and dual_size = sum mult(w).  Then
    C_j = (1/dual_size) sum_w mult(w) K_j(w) with the Krawtchouk value
    K_j(w) = [y^j] (1+y)^(length-w) (1-y)^w from the three-term recurrence
    (j+1) K_(j+1) = (length - 2w) K_j - (length - j + 1) K_(j-1)."""
    dual_size = sum(dual_weights.values())
    raw = [0] * (j_max + 1)
    for w, mult in dual_weights.items():
        prev, cur = 0, 1
        raw[0] += mult
        for j in range(j_max):
            nxt, rem = divmod((length - 2 * w) * cur - (length - j + 1) * prev, j + 1)
            if rem:
                raise AssertionError("the Krawtchouk recurrence must divide exactly")
            prev, cur = cur, nxt
            raw[j + 1] += mult * cur
    counts = []
    for val in raw:
        c_j, rem = divmod(val, dual_size)
        if rem:
            raise AssertionError("the MacWilliams transform must divide exactly")
        counts.append(c_j)
    if counts[0] != 1:
        raise AssertionError("the zero codeword must be counted exactly once")
    if any(c < 0 for c in counts):
        raise AssertionError("weight counts must be nonnegative")
    return tuple(counts)


def prefix_counts_from_distribution(
    length: int, dual_weights: tuple[int, ...], j_max: int
) -> tuple[int, ...]:
    """C_j for j <= j_max of the length-N code whose dual has the words of the
    given weights, one entry per word c(a) as `_dual_weights` gives and checks them:
    the MacWilliams transform of their multiset, with dual size q = len(dual_weights)."""
    if not 0 <= j_max <= PREFIX_J_LIMIT:
        raise ValueError(f"j_max must lie in 0..{PREFIX_J_LIMIT}")
    return _macwilliams(length, Counter(dual_weights), j_max)


def class_dual_weights(ctx: FieldCtx, class_counts: dict[int, int]) -> tuple[int, ...]:
    """The q dual weights of a coset given by its trace classes nu_beta, indexed
    by a as `closed_weights` is, with S(a) = sum over beta in GF(q) of
    nu_beta lambda(a beta) from one `character_sums`."""
    return _dual_weights(character_sums(ctx, [class_counts.get(beta, 0) for beta in range(ctx.q)]))


def weight_distribution_prefix(spec: DoubleCosetSpec, j_max: int) -> WeightPrefix:
    length = dc_cardinality(spec)[2]
    counts = prefix_counts_from_distribution(length, closed_weights(spec), j_max)
    return WeightPrefix(spec, j_max, counts)


@lru_cache(maxsize=None)
def _packed_dual_words(spec: DoubleCosetSpec) -> tuple[int, ...]:
    """Distinct words c(a) packed as integers, bit j = coordinate of g_(j+1)."""
    words = {sum(b << j for j, b in enumerate(dual_codeword(spec, a))) for a in range(spec.ctx.q)}
    return tuple(sorted(words))


def dual_code_rank(spec: DoubleCosetSpec) -> int:
    size = len(_packed_dual_words(spec))
    rank = size.bit_length() - 1
    if 1 << rank != size:
        raise AssertionError("the dual word count must be a power of two")
    return rank


def full_weight_distribution_small(spec: DoubleCosetSpec) -> tuple[int, ...]:
    """Exact distribution of the big code as dual-of-dual: popcount the
    q-element dual, then apply the MacWilliams transform."""
    length = dc_cardinality(spec)[2]
    if length > MACWILLIAMS_N_LIMIT:
        raise BudgetError(f"full distribution needs length <= {MACWILLIAMS_N_LIMIT}")
    words = _packed_dual_words(spec)
    rank = dual_code_rank(spec)
    dual_counts = Counter(w.bit_count() for w in words)
    out = _macwilliams(length, dual_counts, length)
    if sum(out) != 1 << (length - rank):
        raise AssertionError("distribution total must be 2^(length - rank)")
    return out


def dual_code_kernel(spec: DoubleCosetSpec) -> tuple[int, ...]:
    """Kernel of a -> c(a): the a whose closed character sum is its value at 0, the length."""
    sums = exp_sums_dc(spec)
    return tuple(a for a, s in enumerate(sums) if s == sums[0])


def degenerate_kernel(spec: DoubleCosetSpec) -> bool:
    """Whether a -> c(a) has a kernel beyond 0, read from the closed sums."""
    return dual_code_kernel(spec) != (0,)


def delsarte_check(spec: DoubleCosetSpec) -> bool:
    """The binary dual of the code cut out by the field-valued parity
    condition is exactly {c(a)}: rowspace comparison plus kernel audit, the
    literal kernel against the closed one, which is 0 or the subfield {0, 1}."""
    from .ominus_groups import double_coset_traces
    ctx = spec.ctx
    if dc_cardinality(spec)[2] > DUALITY_N_LIMIT:  # refused before the cell is built
        raise BudgetError(f"duality check needs length <= {DUALITY_N_LIMIT}")
    vec = double_coset_traces(spec)
    span = {0}  # the XOR closure of the r bit-plane rows is their span
    for k in range(ctx.r):
        row = sum(((t >> k) & 1) << j for j, t in enumerate(vec))
        span |= {x ^ row for x in span}
    words = set(_packed_dual_words(spec))
    kernel = tuple(a for a in range(ctx.q) if not any(dual_codeword(spec, a)))
    return span == words and kernel in ((0,), (0, 1)) and kernel == dual_code_kernel(spec)
