"""The minus-type orthogonal groups O^-(2n,q) over GF(2^r).

Implements the defining quadratic form, the isometry test from its values
on a basis and its polar form, the parabolic subgroup Q^-, the Weyl-type
elements sigma_r and rho, and the Bruhat cells that hold the eight
double-coset families.  Exhaustive enumeration (budget-gated; each Bruhat
cell a disjoint union of right cosets of Q^-) is the oracle for every closed
form in `double_cosets`.

Matrices are tuples of row tuples of field elements; field addition is
XOR throughout.  Enumerations return canonically sorted tuples (row-major
lexicographic on entry encodings) so all derived orderings are
reproducible.  Cells and scans work on row codes, a row of GF(q)^(2n) as one
integer with entry 0 in the top r bits, so codes order as rows do; the
right-action table of m lists code(v m) at code(v) for every row vector v; it
is the one matrix product here, and Q^- itself is D U read from U's table.  A
cell element is one integer, its 2n row codes concatenated (row 0 highest, so
codes order as matrices do); each cell is kept once, its codes in coset order
packed in 64-bit lanes, from Q^- (the r = 0 cell) to its trace counts, and
unpacked only where a public function returns a tuple.
"""

from __future__ import annotations

import sys
from array import array  # loaded with the module, so a forked verify-all worker inherits it
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, product
from operator import eq

from .double_cosets import (
    PRODUCT_BUDGET, Q_ENUM_BUDGET, DoubleCosetSpec, gl_order, products_fit, q_minus_fits, q_minus_order,
)
from .finite_field import FieldCtx, check_unit, inv, lambda_char, mul
from .kloosterman import BudgetError

Matrix = tuple[tuple[int, ...], ...]

SCAN_BUDGET = 10 ** 6         # largest q^(2n) for the exhaustive form check
GL_ENUM_BUDGET = 10 ** 6      # largest q^(k^2) candidate pool for GL(k,q)
SYM_SUM_BUDGET = 10 ** 7      # largest term count for the symmetric-matrix sum
SYM_REDUCED_BUDGET = 10 ** 6  # largest count of matrices B, one nonsingularity test each, for the reduced sum


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


def _decode(ctx: FieldCtx, n: int, packed: int, count: int) -> tuple[Matrix, ...]:
    """Packed element codes back to matrices, in lane order; each distinct row is split once."""
    width = 2 * n * ctx.r
    mask = _lanes((1 << width) - 1, count)
    columns = [_unpack(packed >> s & mask, count) for s in _shifts(width, 2 * n)]  # row i of each
    rows = {c: tuple(c >> s & ctx.q - 1 for s in _shifts(ctx.r, 2 * n)) for c in set(chain(*columns))}
    return tuple(tuple(map(rows.__getitem__, w)) for w in zip(*columns))


def _pack(values) -> int:
    """Values below 2^64 as the 64-bit lanes of one integer, one shift, XOR or mask for all."""
    return int.from_bytes(array("Q", values).tobytes(), sys.byteorder)


def _unpack(packed: int, count: int) -> tuple[int, ...]:
    return tuple(array("Q", packed.to_bytes(8 * count, sys.byteorder)))


def _lanes(value: int, count: int) -> int:  # value in each of count 64-bit lanes
    return int.from_bytes(value.to_bytes(8, "little") * count, "little")


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


def _row_reduce(ctx: FieldCtx, rows: list[list[int]]) -> bool:
    """Gauss-Jordan in place on the first len(rows) columns: False at the first column with no pivot."""
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = inv(ctx, rows[col][col])
        rows[col] = pivot = [mul(ctx, scale, x) for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and (fac := row[col]):
                rows[i] = [x ^ mul(ctx, fac, y) for x, y in zip(row, pivot)]
    return True


def mat_inv(ctx: FieldCtx, m: Matrix) -> Matrix:
    """Inverse by Gaussian elimination; raises ValueError on singular input."""
    aug = [list(row) + [1 if j == i else 0 for j in range(len(m))] for i, row in enumerate(m)]
    if not _row_reduce(ctx, aug):
        raise ValueError("singular matrix")
    return tuple(tuple(row[len(m):]) for row in aug)


def _is_nonsingular(ctx: FieldCtx, m: Matrix) -> bool:
    return _row_reduce(ctx, [list(row) for row in m])


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


def _form_values(ctx: FieldCtx, n: int, codes: list[int]):
    """theta(v_i) for every i, then B(v_i, v_j) = theta(v_i + v_j) + theta(v_i) + theta(v_j), i < j,
    the v_i given by row codes (v_i + v_j is an XOR); theta read off `_theta_table` where it fits."""
    theta = (_theta_table(ctx, n).__getitem__ if scan_fits(ctx.q, n) else
             lambda c: theta_minus(ctx, n, tuple(c >> s & ctx.q - 1 for s in _shifts(ctx.r, 2 * n))))
    th = list(map(theta, codes))
    yield from th
    for (i, x), (j, y) in combinations(enumerate(codes), 2):
        yield theta(x ^ y) ^ th[i] ^ th[j]


@lru_cache(maxsize=None)
def _basis_form(ctx: FieldCtx, n: int) -> tuple[int, ...]:
    """`_form_values` on the standard basis: the side of `isometry_relations` fixed by (ctx, n)."""
    return tuple(_form_values(ctx, n, [1 << s for s in _shifts(ctx.r, 2 * n)]))


def isometry_relations(ctx: FieldCtx, n: int, m: Matrix) -> bool:
    """M preserves the form exactly when it does so on a basis and on the
    polar form B(x, y) = theta(x + y) + theta(x) + theta(y): theta(Me_i) =
    theta(e_i) for every i and B(Me_i, Me_j) = B(e_i, e_j) for every i < j."""
    if len(m) != 2 * n or any(len(row) != 2 * n for row in m):
        raise ValueError(f"matrix must be {2 * n} x {2 * n}")
    columns = [_row_code(ctx, column) for column in transpose(m)]
    return all(map(eq, _form_values(ctx, n, columns), _basis_form(ctx, n)))


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
    pool = (tuple(e[i * k : (i + 1) * k] for i in range(k)) for e in product(range(ctx.q), repeat=k * k))
    out = [m for m in pool if _is_nonsingular(ctx, m)]
    if len(out) != gl_order(k, ctx.q):
        raise AssertionError("GL enumeration count disagrees with its order")
    return tuple(sorted(out))


def _q_minus_codes(ctx: FieldCtx, n: int) -> list[int]:
    """Constructive enumeration of Q^-(2n,q) as sorted codes, from its parametrization: D U with
    D = diag(A, tA^-1, i) and U = [[1, B, th eta], [0, 1, 0], [0, h, 1]] over (A, i, h, B) with
    tB + th delta h alternating.  Row j of D U is U's right-action table read at the row code of
    row j of D; one table is built per U.  For n = 1 it degenerates to SO^-(2,q)."""
    if not q_minus_fits(ctx.q, n):
        raise BudgetError(f"|Q^-| exceeds the enumeration budget {Q_ENUM_BUDGET}")
    if n == 1:
        return [_row_code(ctx, chain.from_iterable(m)) for m in enumerate_so2(ctx)]
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
    return sorted(out)


@lru_cache(maxsize=None)
def enumerate_q_minus(ctx: FieldCtx, n: int) -> tuple[Matrix, ...]:
    """Q^-(2n,q) as sorted matrices: the r = 0 cell, Q^-'s sorted codes, decoded."""
    return _decode(ctx, n, *bruhat_cell_lanes(ctx, n, 0, False))


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
def _basis_columns(ctx: FieldCtx, n: int, group: int, size: int) -> tuple[int, ...]:
    """Per bit of a leader w, the images under every y of Q^- (`group`, its `size` codes packed)
    of that bit's basis row, packed in 64-bit lanes and moved up to its row of w: w Q^- is the XOR
    of the columns at the set bits of w.  They depend on Q^- alone, so the cells of every r at one
    (ctx, n) share them; keyed on the codes, a Q^- built again reads no stale entry."""
    width = 2 * n * ctx.r
    mask, shifts, codes = (1 << width) - 1, _shifts(width, 2 * n), _unpack(group, size)
    eye = identity_matrix(2 * n)  # z^k eye acts on a row code as z^k on each entry
    scaled = [_right_action(ctx, tuple(tuple(e << k for e in row) for row in eye)) for k in range(ctx.r)]
    # basis row b of row j: z^k e_j, bit k of entry j; its image under y is z^k (row j of y)
    images = [_pack([times[y >> s & mask] for y in codes]) for s in reversed(shifts) for times in scaled]
    return tuple(image << s for s in reversed(shifts) for image in images)


@lru_cache(maxsize=None)
def bruhat_cell_lanes(ctx: FieldCtx, n: int, r: int, twisted: bool) -> tuple[int, int]:
    """The double coset Q^- sigma_r Q^- as (lanes, count): its element codes in coset order,
    unsorted, in the 64-bit lanes of one integer; the r = 0 cell is Q^-'s codes as enumerated.
    It is the disjoint union of its right cosets w Q^-, leaders w = x sigma_r for x in Q^-'s
    order, each listed as w y for y in Q^-'s order.  A coset is built only if w is in none built
    yet and must add |Q^-| new elements, so a Q^- that is not a group fails loudly.  Right action
    is linear in the row, so the steps are lane operations: w Q^- XORs, over the set bits of w,
    their basis rows' images moved up to w's rows; the leaders XOR, over every bit of x, that
    bit's lane times sigma_r's image of its basis row; the rho twist adds the last row code to
    the one before, one shift and XOR."""
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..{n - 1}, got {r}")
    if r and not products_fit(ctx.q, n):  # refuse before enumerating Q^-
        raise BudgetError(f"|O^-(2n,q)| exceeds the product budget {PRODUCT_BUDGET}")
    width = 2 * n * ctx.r  # bits of a row code
    if twisted:
        lanes, count = bruhat_cell_lanes(ctx, n, r, False)
        return lanes ^ (lanes & _lanes((1 << width) - 1, count)) << width, count
    if not r:  # sigma_0 is the identity and Q^- is a group
        codes = _q_minus_codes(ctx, n)
        if 2 * n * width > 63:  # the budgets admit no such n and q
            raise AssertionError("a cell element must fit one 64-bit lane below its top bit")
        return _pack(codes), len(codes)
    group, size = bruhat_cell_lanes(ctx, n, 0, False)  # Q^- in code form, the identity's coset
    columns = _basis_columns(ctx, n, group, size)
    sigma = _right_action(ctx, weyl_elements(ctx, n)[0][r])
    ones, leaders = _lanes(1, size), 0
    for bit in range(2 * n * width):
        leaders ^= (group >> bit & ones) * (sigma[1 << bit % width] << bit - bit % width)
    cosets, seen = [], set()  # each coset's lanes as bytes; seen is only the membership test
    for left in _unpack(leaders, size):
        if left in seen:
            continue
        packed = 0
        for bit, column in enumerate(columns):
            if left >> bit & 1:
                packed ^= column
        cosets.append(packed.to_bytes(8 * size, sys.byteorder))
        seen.update(array("Q", cosets[-1]))
        if len(seen) != size * len(cosets):
            raise AssertionError("right cosets of Q^- must be disjoint")
    return int.from_bytes(b"".join(cosets), sys.byteorder), size * len(cosets)


@lru_cache(maxsize=None)
def bruhat_cell(ctx: FieldCtx, n: int, r: int, twisted: bool = False) -> tuple[Matrix, ...]:
    """The cell as sorted matrices; codes sort as matrices do, so this is canonical."""
    codes = sorted(_unpack(*bruhat_cell_lanes(ctx, n, r, twisted)))
    return _decode(ctx, n, _pack(codes), len(codes))


def cell_holds_any(cell: tuple[int, int], values) -> bool:
    """Whether a lane of the packed cell holds one of values: every lane is below 2^63, so adding
    2^63 - 1 to each lane of the cell XOR a value carries into its top bit where the two differ."""
    ones = _lanes(1, cell[1])
    top = ones << 63
    return any(((cell[0] ^ value * ones) + top - ones) & top != top for value in values)


def cell_traces(ctx: FieldCtx, n: int, cell: tuple[int, int]) -> tuple[int, int]:
    """The matrix trace of every element of a packed cell, in its lane: entry (i, i) sits
    (2n - 1 - i)(2n + 1) r bits up, so 2n shifts, XORs and one mask serve the whole cell."""
    lanes, count = cell
    acc = 0
    for s in _shifts((2 * n + 1) * ctx.r, 2 * n):
        acc ^= lanes >> s
    return acc & _lanes(ctx.q - 1, count), count


def cell_trace_counts(ctx: FieldCtx, n: int, cell: tuple[int, int]) -> list[int]:
    """How many elements of a packed cell have each trace, at every field element.  Up to
    q = 256 a trace is its lane's low byte, and one bytes.count per value counts them all; a
    larger q, reached by the n = 1 cells alone (q + 1 elements), counts them one by one."""
    traces, count = cell_traces(ctx, n, cell)
    if ctx.q <= 256:
        return list(map(traces.to_bytes(8 * count, "little")[::8].count, range(ctx.q)))
    counted = Counter(_unpack(traces, count))
    return [counted[beta] for beta in range(ctx.q)]


def double_coset_elements(spec: DoubleCosetSpec) -> tuple[Matrix, ...]:
    return bruhat_cell(spec.ctx, spec.n, spec.sigma_index, spec.rho_twisted)


@lru_cache(maxsize=None)
def double_coset_traces(spec: DoubleCosetSpec) -> tuple[int, ...]:
    """The matrix trace of every element of the double coset, in coset order."""
    cell = bruhat_cell_lanes(spec.ctx, spec.n, spec.sigma_index, spec.rho_twisted)
    return _unpack(*cell_traces(spec.ctx, spec.n, cell))


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
    """b_r_sum at every twist, its v-sum in closed form: q^dim sum_B lambda(a sum_s B_ss (B^-1)_ss).
    B is diag(B) plus an alternating matrix, and B^-1 is symmetric, so sum_s B_ss (B^-1)_ss =
    Tr(B B^-1) = dim in characteristic 2: every term is lambda(a dim) = (-1)^dim, and the sum
    is (-q)^dim times the number of nonsingular symmetric B."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not sym_sum_reduced_fits(ctx.q, dim):
        raise BudgetError("reduced symmetric-matrix sum exceeds its term budget")
    return (-ctx.q) ** dim * sum(_is_nonsingular(ctx, b) for b in _symmetric_matrices(ctx, dim))


def b_r_sum(ctx: FieldCtx, r: int, twist: int = 1) -> int:
    """Direct double sum of lambda(twist * Tr(delta th B h)) over nonsingular
    symmetric B and all r x 2 matrices h = (u | v), one term per (B, u, v):
    Tr(delta th B h) = u^T B u + v^T B u + a v^T B v.  B's table lists B u (B is
    symmetric); the table of the column B u lists v^T B u over every v, and
    u^T B u and v^T B v are entries of those tables."""
    if r not in (1, 2, 3):
        raise ValueError(f"r must be 1, 2, or 3, got {r}")
    check_unit(ctx, twist, "twist")
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
