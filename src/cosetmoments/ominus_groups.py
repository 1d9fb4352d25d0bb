"""The minus-type orthogonal groups O^-(2n,q) over GF(2^r).

Implements the defining quadratic form, the isometry test from its values
on a basis and its polar form, the parabolic subgroup Q^-, the Weyl-type
elements sigma_r and rho, the eight double-coset families with their
closed-form cardinalities, exponential sums, and trace distributions.
Exhaustive enumeration (budget-gated; each Bruhat cell a disjoint union of
right cosets of Q^-) is the oracle for every closed form.

Matrices are tuples of row tuples of field elements; field addition is
XOR throughout.  Enumerations return canonically sorted tuples (row-major
lexicographic on entry encodings) so all derived orderings are
reproducible.  Cells and scans work on row codes, a row of GF(q)^(2n) as one
integer with entry 0 in the top r bits, so codes order as rows do; the
right-action table of m lists code(v m) at code(v) for every row vector v; it
is the one matrix product here, and Q^- itself is D U read from U's table.  A
cell element is one integer, its 2n row codes concatenated (row 0 highest, so
codes order as matrices do); each cell is kept once, in coset order, built from
the images of Q^-'s basis rows, and sorted only where matrices are read.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain, product, repeat
from math import prod

from .finite_field import FieldCtx, character_sums, inv, lambda_char, mul
from .kloosterman import BudgetError, kloosterman_spectrum

Matrix = tuple[tuple[int, ...], ...]

Q_ENUM_BUDGET = 10 ** 4       # largest |Q^-| that may be enumerated
PRODUCT_BUDGET = 10 ** 6      # largest |O^-(2n,q)|, the products the cells of one n build
SCAN_BUDGET = 10 ** 6         # largest q^(2n) for the exhaustive form check
GL_ENUM_BUDGET = 10 ** 6      # largest q^(k^2) candidate pool for GL(k,q)
SYM_SUM_BUDGET = 10 ** 7      # largest term count for the symmetric-matrix sum
SYM_REDUCED_BUDGET = 10 ** 6  # largest count of matrices B, one inverse each, for the reduced sum


# ---------------------------------------------------------------------------
# matrix plumbing


def identity_matrix(size: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def _row_code(ctx: FieldCtx, row) -> int:
    code = 0
    for entry in row:
        code = code << ctx.r | entry
    return code


def _shifts(width: int, count: int) -> range:
    """The shifts of count fields of width bits each, the first field highest."""
    return range(width * (count - 1), -1, -width)


def _decode(ctx: FieldCtx, n: int, codes) -> tuple[Matrix, ...]:
    """Element codes back to matrices, in the given order; each distinct row is split once."""
    width, count = 2 * n * ctx.r, len(codes)
    packed, mask = _pack(codes), _pack(repeat((1 << width) - 1, count))
    columns = [_unpack(packed >> s & mask, count) for s in _shifts(width, 2 * n)]  # row i of each
    rows = {c: tuple(c >> s & ctx.q - 1 for s in _shifts(ctx.r, 2 * n)) for c in set(chain(*columns))}
    return tuple(tuple(map(rows.__getitem__, w)) for w in zip(*columns))


def _pack(values) -> int:
    """Values below 2^64 as the 64-bit lanes of one integer, one shift, XOR or mask for all."""
    from array import array  # imported here: commands that read no cell skip loading it
    return int.from_bytes(array("Q", values).tobytes(), sys.byteorder)


def _unpack(packed: int, count: int) -> tuple[int, ...]:
    from array import array
    return tuple(array("Q", packed.to_bytes(8 * count, sys.byteorder)))


@lru_cache(maxsize=None)
def _powers(ctx: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """powers[k][e] = z^k e for every bit k and element e."""
    return tuple(tuple(mul(ctx, 1 << k, e) for e in range(ctx.q)) for k in range(ctx.r))


def _right_action(ctx: FieldCtx, m: Matrix) -> list[int]:
    """table[code(v)] = code(v m) for every row vector v, the one matrix product
    here.  v -> v m is additive, so the table doubles once per bit of v: bit k
    of entry i stands for the row z^k e_i, whose image is z^k times row i of m."""
    powers = _powers(ctx)
    table = [0]
    for row in reversed(m):  # the last entry holds the lowest bits
        for times in powers:
            image = _row_code(ctx, map(times.__getitem__, row))
            table += [code ^ image for code in table]
    return table


def mat_inv(ctx: FieldCtx, m: Matrix) -> Matrix:
    """Inverse by Gaussian elimination; raises ValueError on singular input."""
    k = len(m)
    aug = [list(m[i]) + [1 if j == i else 0 for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = inv(ctx, aug[col][col])
        aug[col] = [mul(ctx, scale, x) for x in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                fac = aug[i][col]
                aug[i] = [x ^ mul(ctx, fac, y) for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


def _is_nonsingular(ctx: FieldCtx, m: Matrix) -> bool:
    try:
        mat_inv(ctx, m)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# the quadratic form and isometry checks


def theta_minus(ctx: FieldCtx, n: int, v: tuple[int, ...]) -> int:
    """The minus-type form: pairing of the two (n-1)-blocks plus an
    anisotropic z1^2 + z1 z2 + a z2^2 tail on the last two coordinates."""
    if len(v) != 2 * n:
        raise ValueError(f"vector must have length {2 * n}, got {len(v)}")
    acc = 0
    for j in range(n - 1):
        acc ^= mul(ctx, v[j], v[n - 1 + j])
    z1, z2 = v[2 * n - 2], v[2 * n - 1]
    acc ^= mul(ctx, z1, z1) ^ mul(ctx, z1, z2) ^ mul(ctx, ctx.a_param, mul(ctx, z2, z2))
    return acc


@lru_cache(maxsize=None)
def _theta_table(ctx: FieldCtx, n: int) -> tuple[int, ...]:
    """theta_minus on every vector of GF(q)^(2n), indexed by row code."""
    return tuple(theta_minus(ctx, n, v) for v in product(range(ctx.q), repeat=2 * n))


def scan_fits(q: int, n: int) -> bool:
    """Whether the exhaustive form check over GF(q)^(2n) fits SCAN_BUDGET."""
    return q ** (2 * n) <= SCAN_BUDGET


def is_isometry_exhaustive(ctx: FieldCtx, n: int, m: Matrix) -> bool:
    """theta(Mv) = theta(v) for every vector; budget-gated full scan, with
    every Mv read from the right-action table of M^T."""
    if not scan_fits(ctx.q, n):
        raise BudgetError(f"exhaustive form check needs q^(2n) <= {SCAN_BUDGET}")
    theta = _theta_table(ctx, n)
    return tuple(map(theta.__getitem__, _right_action(ctx, transpose(m)))) == theta


def isometry_relations(ctx: FieldCtx, n: int, m: Matrix) -> bool:
    """M preserves the form exactly when it does so on a basis and on the
    polar form B(x, y) = theta(x + y) + theta(x) + theta(y): theta(Me_i) =
    theta(e_i) for every i and B(Me_i, Me_j) = B(e_i, e_j) for every i < j."""
    size = 2 * n
    if len(m) != size or any(len(row) != size for row in m):
        raise ValueError(f"matrix must be {size} x {size}")
    cols, basis = transpose(m), identity_matrix(size)
    th_cols = [theta_minus(ctx, n, c) for c in cols]
    th_basis = [theta_minus(ctx, n, e) for e in basis]

    def polar(vecs: Matrix, th: list[int], i: int, j: int) -> int:
        both = tuple(x ^ y for x, y in zip(vecs[i], vecs[j]))
        return theta_minus(ctx, n, both) ^ th[i] ^ th[j]

    return th_cols == th_basis and all(
        polar(cols, th_cols, i, j) == polar(basis, th_basis, i, j)
        for i in range(size)
        for j in range(i + 1, size)
    )


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
    out = 2 * q ** (n * n - n) * (q ** n + 1)
    for j in range(1, n):
        out *= q ** (2 * j) - 1
    return out


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
# constructive enumeration


O2_COSET_REP: Matrix = ((1, 1), (0, 1))  # generates O^-(2,q) over SO^-(2,q)


@lru_cache(maxsize=None)
def enumerate_so2(ctx: FieldCtx) -> tuple[Matrix, ...]:
    """All norm-one elements [[d1, a d2], [d2, d1 + d2]]; exactly q + 1.

    d1^2 + d1 d2 + a d2^2 = 1 has d1 = 1 at d2 = 0, and otherwise d1 = d2 t
    for each root t of t^2 + t = a + 1/d2^2, read from one map x -> x^2 + x."""
    a, q = ctx.a_param, ctx.q
    roots: dict[int, list[int]] = {}
    for t in range(q):
        roots.setdefault(mul(ctx, t, t) ^ t, []).append(t)
    pairs = [(1, 0)]
    for d2 in range(1, q):
        pairs += [(mul(ctx, d2, t), d2) for t in roots.get(a ^ inv(ctx, mul(ctx, d2, d2)), ())]
    if any(theta_minus(ctx, 1, pair) != 1 for pair in pairs):
        raise AssertionError("a solved pair must have norm one")
    if len(pairs) != q + 1:
        raise AssertionError("norm-one solution count must be q + 1")
    out = [((d1, mul(ctx, a, d2)), (d2, d1 ^ d2)) for d1, d2 in pairs]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_gl(ctx: FieldCtx, k: int) -> tuple[Matrix, ...]:
    if k < 1:
        raise ValueError("enumerate_gl needs k >= 1")
    if ctx.q ** (k * k) > GL_ENUM_BUDGET:
        raise BudgetError(f"GL({k},{ctx.q}) candidate pool exceeds {GL_ENUM_BUDGET}")
    out = []
    for entries in product(range(ctx.q), repeat=k * k):
        m = tuple(entries[i * k : (i + 1) * k] for i in range(k))
        if _is_nonsingular(ctx, m):
            out.append(m)
    if len(out) != gl_order(k, ctx.q):
        raise AssertionError("GL enumeration count disagrees with its order")
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_q_minus(ctx: FieldCtx, n: int) -> tuple[Matrix, ...]:
    """Constructive enumeration of Q^-(2n,q) from its parametrization: D U with
    D = diag(A, tA^-1, i) and U = [[1, B, th eta], [0, 1, 0], [0, h, 1]] over
    (A, i, h, B) with tB + th delta h alternating.  Row j of D U is U's
    right-action table read at the row code of row j of D; one table is built
    per U.  For n = 1 it degenerates to SO^-(2,q)."""
    if not q_minus_fits(ctx.q, n):
        raise BudgetError(f"|Q^-| exceeds the enumeration budget {Q_ENUM_BUDGET}")
    if n == 1:
        return enumerate_so2(ctx)
    q, a = ctx.q, ctx.a_param
    k = n - 1
    pad = (0,) * k
    diagonals = []  # the row codes of every D
    for blk_a in enumerate_gl(ctx, k):
        ta_inv = transpose(mat_inv(ctx, blk_a))
        rows = [row + pad + (0, 0) for row in blk_a] + [pad + row + (0, 0) for row in ta_inv]
        for so2 in enumerate_so2(ctx):
            diagonals.append([_row_code(ctx, row) for row in rows + [pad + pad + row for row in so2]])
    eye, shifts = identity_matrix(k), _shifts(2 * n * ctx.r, 2 * n)
    upper_slots = [(u, v) for u in range(k) for v in range(u + 1, k)]
    out = set()
    for hvals in product(range(q), repeat=2 * k):
        x, y = hvals[:k], hvals[k:]  # the rows of h
        # th delta h, delta = [[1, 1], [0, a]]
        sym = [[mul(ctx, x[u], x[v] ^ y[v]) ^ mul(ctx, a, mul(ctx, y[u], y[v])) for v in range(k)]
               for u in range(k)]
        for upper in product(range(q), repeat=len(upper_slots)):
            b = [[0] * k for _ in range(k)]
            for idx in range(k):
                b[idx][idx] = sym[idx][idx]
            for (u, v), val in zip(upper_slots, upper):
                b[u][v] = val
                b[v][u] = val ^ sym[u][v] ^ sym[v][u]
            unipotent = [eye[u] + tuple(b[u]) + (y[u], x[u]) for u in range(k)]  # row u of th eta: (y_u, x_u)
            unipotent += [pad + eye[u] + (0, 0) for u in range(k)] + [pad + x + (1, 0), pad + y + (0, 1)]
            table = _right_action(ctx, unipotent)
            out.update(sum(table[c] << s for c, s in zip(d, shifts)) for d in diagonals)
    if len(out) != q_minus_order(q, n):
        raise AssertionError("parametrization of Q^- must be bijective")
    return _decode(ctx, n, sorted(out))


def weyl_elements(ctx: FieldCtx, n: int) -> tuple[tuple[Matrix, ...], Matrix]:
    """(sigma_0..sigma_(n-1), rho): sigma_r swaps the first r coordinates of
    the two pairing blocks; rho acts as [[1,1],[0,1]] on the tail plane."""
    k = n - 1
    sigmas = []
    for r in range(n):
        perm = list(range(2 * n))
        for j in range(r):
            perm[j], perm[k + j] = perm[k + j], perm[j]
        sigmas.append(tuple(tuple(int(c == perm[rw]) for c in range(2 * n)) for rw in range(2 * n)))
    rows = identity_matrix(2 * n)  # rho: the last row adds into the next-to-last
    return tuple(sigmas), (*rows[:-2], rows[-2][:-1] + (1,), rows[-1])


# ---------------------------------------------------------------------------
# double cosets


@lru_cache(maxsize=None)
def bruhat_cell_cosets(ctx: FieldCtx, n: int, r: int, twisted: bool = False) -> tuple[int, ...]:
    """The double coset Q^- sigma_r Q^- as element codes in coset order, unsorted:
    the disjoint union of its right cosets w Q^-, leaders w = x sigma_r for x in
    Q^-'s order, each listed as w y for y in Q^-'s order.  A coset is built only
    if w is in none built yet and must add |Q^-| new elements, so a Q^- that is
    not a group fails loudly.  Right action is linear in the row: w Q^- is the
    XOR, over the set bits of w, of their basis rows' images, each one column
    over Q^- in 64-bit lanes, moved up to its row of w.  The rho-twisted cell is
    rho times each element, in order: the last row code added to the one before."""
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..{n - 1}, got {r}")
    if r and not products_fit(ctx.q, n):  # refuse before enumerating Q^-
        raise BudgetError(f"|O^-(2n,q)| exceeds the product budget {PRODUCT_BUDGET}")
    width = 2 * n * ctx.r  # bits of a row code
    mask, shifts = (1 << width) - 1, _shifts(width, 2 * n)
    if twisted:
        return tuple(w ^ (w & mask) << width for w in bruhat_cell_cosets(ctx, n, r, False))
    if not r:  # sigma_0 is the identity and Q^- is a group
        qm = enumerate_q_minus(ctx, n)
        if 2 * n * width > 64:  # the budgets admit no such n and q
            raise AssertionError("a cell element must fit one 64-bit lane")
        return tuple(_row_code(ctx, chain.from_iterable(y)) for y in qm)
    group = bruhat_cell_cosets(ctx, n, 0, False)  # Q^- in code form, the identity's coset
    eye = identity_matrix(2 * n)  # z^k eye acts on a row code as z^k on each entry
    scaled = [_right_action(ctx, tuple(tuple(e << k for e in row) for row in eye)) for k in range(ctx.r)]
    # basis row b of row j: z^k e_j, bit k of entry j; its image under y is z^k (row j of y)
    images = [_pack([times[y >> s & mask] for y in group]) for s in reversed(shifts) for times in scaled]
    columns = [image << s for s in reversed(shifts) for image in images]  # by bit of w
    sigma = _right_action(ctx, weyl_elements(ctx, n)[0][r])
    cell, seen = [], set()  # seen is only the membership test
    for x in group:
        left = sum(sigma[x >> s & mask] << s for s in shifts)
        if left in seen:
            continue
        packed = 0
        for bit, column in enumerate(columns):
            if left >> bit & 1:
                packed ^= column
        coset = _unpack(packed, len(group))
        seen.update(coset)
        cell += coset
        if len(seen) != len(cell):
            raise AssertionError("right cosets of Q^- must be disjoint")
    return tuple(cell)


@lru_cache(maxsize=None)
def bruhat_cell(ctx: FieldCtx, n: int, r: int, twisted: bool = False) -> tuple[Matrix, ...]:
    """`bruhat_cell_cosets` as sorted matrices; codes sort as matrices do, so this is canonical."""
    return _decode(ctx, n, sorted(bruhat_cell_cosets(ctx, n, r, twisted)))


def cell_traces(ctx: FieldCtx, n: int, codes: tuple[int, ...]) -> tuple[int, ...]:
    """The matrix trace of every element code, in order: entry (i, i) sits
    (2n - 1 - i)(2n + 1) r bits up, and the trace XORs those entries.  The codes
    are packed once, so 2n shifts, XORs and one mask serve the whole cell."""
    packed, acc = _pack(codes), 0
    for s in _shifts((2 * n + 1) * ctx.r, 2 * n):
        acc ^= packed >> s
    return _unpack(acc & _pack(repeat(ctx.q - 1, len(codes))), len(codes))


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


def double_coset_elements(spec: DoubleCosetSpec) -> tuple[Matrix, ...]:
    return bruhat_cell(spec.ctx, spec.n, spec.sigma_index, spec.rho_twisted)


@lru_cache(maxsize=None)
def double_coset_traces(spec: DoubleCosetSpec) -> tuple[int, ...]:
    """The matrix trace of every element of the double coset, in the coset
    order of `bruhat_cell_cosets`."""
    cell = bruhat_cell_cosets(spec.ctx, spec.n, spec.sigma_index, spec.rho_twisted)
    return cell_traces(spec.ctx, spec.n, cell)


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
# the symmetric-matrix character sum


def _symmetric_matrices(ctx: FieldCtx, r: int):
    slots = [(u, v) for u in range(r) for v in range(u, r)]
    for vals in product(range(ctx.q), repeat=len(slots)):
        m = [[0] * r for _ in range(r)]
        for (u, v), val in zip(slots, vals):
            m[u][v] = val
            m[v][u] = val
        yield tuple(tuple(row) for row in m)


def sym_sum_fits(q: int, r: int) -> bool:
    """Whether the direct symmetric-matrix sum at dimension r, one term per
    (B, h), fits SYM_SUM_BUDGET."""
    return q ** (r * (r + 1) // 2 + 2 * r) <= SYM_SUM_BUDGET


def sym_sum_reduced_fits(q: int, dim: int) -> bool:
    """Whether the reduced symmetric-matrix sum, one term per B, fits SYM_REDUCED_BUDGET."""
    return q ** (dim * (dim + 1) // 2) <= SYM_REDUCED_BUDGET


def b_r_sum_reduced(ctx: FieldCtx, dim: int) -> int:
    """b_r_sum at every twist, its v-sum in closed form: q^dim sum_B lambda(a sum_s B_ss (B^-1)_ss)."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not sym_sum_reduced_fits(ctx.q, dim):
        raise BudgetError("reduced symmetric-matrix sum exceeds its term budget")
    total = 0
    for b in _symmetric_matrices(ctx, dim):
        try:
            b_inv = mat_inv(ctx, b)
        except ValueError:
            continue
        total += prod(lambda_char(ctx, mul(ctx, ctx.a_param, mul(ctx, b[s][s], b_inv[s][s])))
                      for s in range(dim))  # lambda(a sum_s x_s) = prod_s lambda(a x_s)
    return ctx.q ** dim * total


def b_r_sum(ctx: FieldCtx, r: int, twist: int = 1) -> int:
    """Direct double sum of lambda(twist * Tr(delta th B h)) over nonsingular
    symmetric B and all r x 2 matrices h = (u | v), one term per (B, u, v):
    Tr(delta th B h) = u^T B u + v^T B u + a v^T B v.  B's table lists B u (B is
    symmetric); the table of the column B u lists v^T B u over every v, and
    u^T B u and v^T B v are entries of those tables."""
    if r not in (1, 2, 3):
        raise ValueError(f"r must be 1, 2, or 3, got {r}")
    if not 0 < twist < ctx.q:
        raise ValueError("twist must be a nonzero field element")
    q = ctx.q
    if not sym_sum_fits(q, r):
        raise BudgetError("symmetric-matrix sum exceeds its term budget")
    sign = [lambda_char(ctx, mul(ctx, twist, x)) for x in range(q)]
    vecs = tuple(product(range(q), repeat=r))  # vecs[code] is the vector of that code
    total = 0
    for sym in _symmetric_matrices(ctx, r):
        if not _is_nonsingular(ctx, sym):
            continue
        pairings = [_right_action(ctx, transpose((vecs[bu],))) for bu in _right_action(ctx, sym)]
        tails = [mul(ctx, ctx.a_param, row[v]) for v, row in enumerate(pairings)]  # a v^T B v
        for u, row in enumerate(pairings):  # row[v] = v^T B u
            fu = row[u]
            total += sum(sign[fu ^ x ^ t] for x, t in zip(row, tails))
    return total


def b_r_sum_closed(ctx: FieldCtx, r: int) -> int:
    """Closed form of the symmetric-matrix sum; independent of the character."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    q = ctx.q
    if r % 2 == 0:
        e, rem = divmod(r * (r + 6), 4)
        if rem:
            raise AssertionError("even-r exponent must be integral")
        return q ** e * _oddprod(q, r // 2)
    e, rem = divmod(r * r + 4 * r - 1, 4)
    if rem:
        raise AssertionError("odd-r exponent must be integral")
    return -(q ** e) * _oddprod(q, (r + 1) // 2)
