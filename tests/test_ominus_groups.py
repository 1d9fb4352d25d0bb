"""Minus-type orthogonal groups: enumeration, cells, cardinalities, sums."""

import copy
import pickle
import random
from collections import Counter
from functools import lru_cache
from itertools import chain, product
from math import prod

import pytest

from cosetmoments import checks, coset_codes, ominus_groups
from cosetmoments.double_cosets import (
    DoubleCosetSpec,
    b_r_sum_closed,
    bruhat_cell_order,
    dc_cardinality,
    exp_sum_dc,
    exp_sums_dc,
    first_specs,
    gauss_binomial,
    gl_order,
    o_minus_order,
    p_minus_order,
    parabolic_indices,
    q_minus_fits,
    q_minus_order,
    trace_distribution,
    valid_specs,
)
from cosetmoments.finite_field import character_sums, inv, lambda_char, make_field, mul, trace, units
from cosetmoments.kloosterman import BudgetError, kloosterman_spectrum, kloosterman_sum
from cosetmoments.ominus_groups import (
    _powers,
    _right_action,
    _row_code,
    b_r_sum,
    b_r_sum_reduced,
    bruhat_cell,
    bruhat_cell_cosets,
    cell_traces,
    double_coset_elements,
    double_coset_traces,
    enumerate_gl,
    enumerate_q_minus,
    enumerate_so2,
    identity_matrix,
    is_isometry_exhaustive,
    isometry_relations,
    mat_inv,
    theta_minus,
    transpose,
    weyl_elements,
)

CTX2 = make_field(1)
CTX4 = make_field(2)


# --- matrix helpers -------------------------------------------------------


def mat_trace(m) -> int:
    """The matrix trace; the library reads traces from row codes, and this
    literal sum of diagonal entries is their oracle."""
    acc = 0
    for i, row in enumerate(m):
        acc ^= row[i]
    return acc


def mat_mul(ctx, x, y):
    """The entrywise matrix product; the library multiplies through right-action
    tables, and this loop is their oracle."""
    yt = tuple(zip(*y))
    out = []
    for row in x:
        orow = []
        for col in yt:
            acc = 0
            for a, b in zip(row, col):
                acc ^= mul(ctx, a, b)
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(ctx, m, v):
    """The entrywise product of a matrix and a column vector, as `mat_mul`."""
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            acc ^= mul(ctx, a, b)
        out.append(acc)
    return tuple(out)


def test_matrix_basics():
    # the trace accumulates diagonal entries with field addition (xor)
    assert mat_trace(identity_matrix(3)) == 1
    assert mat_trace(identity_matrix(2)) == 0
    assert mat_trace(((2, 0), (0, 3))) == 1
    assert transpose(((1, 0), (1, 1))) == ((1, 1), (0, 1))


def test_inverse_round_trip():
    for ctx in (CTX2, CTX4):
        for m in enumerate_gl(ctx, 2):
            assert mat_mul(ctx, m, mat_inv(ctx, m)) == identity_matrix(2)


def _inverts(ctx, m) -> bool:
    try:
        mat_inv(ctx, m)
    except ValueError:
        return False
    return True


def _square_matrices(ctx, k):
    for entries in product(range(ctx.q), repeat=k * k):
        yield tuple(entries[i * k:(i + 1) * k] for i in range(k))


def test_nonsingularity_test_agrees_with_the_inverse():
    # _is_nonsingular reduces the matrix alone; mat_inv reduces it beside the identity
    for k in (1, 2, 3):
        verdicts = [ominus_groups._is_nonsingular(CTX2, m) for m in _square_matrices(CTX2, k)]
        assert verdicts == [_inverts(CTX2, m) for m in _square_matrices(CTX2, k)]
        assert sum(verdicts) == gl_order(k, 2)
    for field_r in (2, 3):
        ctx = make_field(field_r)
        rng = random.Random(f"nonsingular:{field_r}")
        for k in (1, 2, 3):
            sample = [tuple(tuple(rng.randrange(ctx.q) for _ in range(k)) for _ in range(k))
                      for _ in range(500)]
            sample += [identity_matrix(k), ((0,) * k,) * k]
            for m in sample:
                assert ominus_groups._is_nonsingular(ctx, m) == _inverts(ctx, m)


# --- the quadratic form ---------------------------------------------------


@pytest.mark.parametrize("ctx", (CTX2, CTX4), ids=("q2", "q4"))
def test_form_is_anisotropic_in_dimension_two(ctx):
    zeros = [
        (z1, z2)
        for z1 in range(ctx.q)
        for z2 in range(ctx.q)
        if theta_minus(ctx, 1, (z1, z2)) == 0
    ]
    assert zeros == [(0, 0)]


@pytest.mark.parametrize("n,q", ((1, 2), (1, 4), (2, 2), (2, 4)))
def test_singular_vector_count(n, q):
    """Minus type: q^(2n-1) - q^n + q^(n-1) singular vectors, zero included."""
    ctx = make_field(q.bit_length() - 1)
    from itertools import product

    count = sum(
        theta_minus(ctx, n, v) == 0 for v in product(range(ctx.q), repeat=2 * n)
    )
    assert count == q ** (2 * n - 1) - q ** n + q ** (n - 1)


def test_isometry_checks_agree_on_all_two_by_two():
    for ctx in (CTX2, CTX4, make_field(2, a_param=0x3)):
        mats = [
            ((a, b), (c, d))
            for a in range(ctx.q)
            for b in range(ctx.q)
            for c in range(ctx.q)
            for d in range(ctx.q)
        ]
        for m in mats:
            assert isometry_relations(ctx, 1, m) == is_isometry_exhaustive(ctx, 1, m)


def test_isometry_checks_agree_on_random_four_by_four():
    rng = random.Random(1729)
    for _ in range(200):
        m = tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(4))
        assert isometry_relations(CTX2, 2, m) == is_isometry_exhaustive(CTX2, 2, m)


# (field r, n, a_param): the relations read the form only on a basis and its
# pairs, so compare them with the full scan on group elements, on the same
# elements with one entry changed, and on random matrices
ISOMETRY_FIELDS = {
    "q2-n2": (1, 2, None),
    "q2-n3": (1, 3, None),
    "q4-n2": (2, 2, None),
    "q4-n2-a3": (2, 2, 0x3),
    "q8-n1": (3, 1, None),
}


@pytest.mark.parametrize("key", sorted(ISOMETRY_FIELDS))
def test_isometry_checks_agree_near_the_group(key):
    field_r, n, a_param = ISOMETRY_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    rng = random.Random(field_r * 10 + n)
    size = 2 * n
    group = [*enumerate_q_minus(ctx, n)]
    for r in range(n):
        for twisted in (False, True):
            group += bruhat_cell(ctx, n, r, twisted)
    sigmas, rho = weyl_elements(ctx, n)
    sample = [*sigmas, rho, *rng.sample(group, min(len(group), 40))]
    near = []
    for m in sample:
        for _ in range(3):
            i, j = rng.randrange(size), rng.randrange(size)
            rows = [list(row) for row in m]
            rows[i][j] ^= rng.randrange(1, ctx.q)
            near.append(tuple(tuple(row) for row in rows))
    noise = [
        tuple(tuple(rng.randrange(ctx.q) for _ in range(size)) for _ in range(size))
        for _ in range(40)
    ]
    for m in sample:
        assert isometry_relations(ctx, n, m) and is_isometry_exhaustive(ctx, n, m)
    for m in near + noise:
        assert isometry_relations(ctx, n, m) == is_isometry_exhaustive(ctx, n, m)


def _uncached_isometry_relations(ctx, n, m):
    """isometry_relations as it was before the basis side was cached: the form
    and its polar form evaluated on the basis at every call; kept as its oracle."""
    size = 2 * n
    if len(m) != size or any(len(row) != size for row in m):
        raise ValueError(f"matrix must be {size} x {size}")
    cols, basis = transpose(m), identity_matrix(size)
    th_cols = [theta_minus(ctx, n, c) for c in cols]
    th_basis = [theta_minus(ctx, n, e) for e in basis]

    def polar(vecs, th, i, j):
        both = tuple(x ^ y for x, y in zip(vecs[i], vecs[j]))
        return theta_minus(ctx, n, both) ^ th[i] ^ th[j]

    return th_cols == th_basis and all(
        polar(cols, th_cols, i, j) == polar(basis, th_basis, i, j)
        for i in range(size)
        for j in range(i + 1, size)
    )


@pytest.mark.parametrize("field_r,n", ((1, 2), (1, 3), (2, 2)))
def test_cached_isometry_relations_match_the_uncached_oracle_on_q_minus(field_r, n):
    ctx = make_field(field_r)
    # the cached basis side: theta(e_i) = 0 on the pairing blocks, 1 and a on the tail;
    # B(e_i, e_j) = 1 exactly on the pairs (i, i + n - 1) and on the tail pair
    partners = {(i, i + n - 1) for i in range(n - 1)} | {(2 * n - 2, 2 * n - 1)}
    pairs = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]
    assert ominus_groups._basis_form(ctx, n) == (
        (0,) * (2 * n - 2) + (1, ctx.a_param) + tuple(int(p in partners) for p in pairs))
    caught = Counter()
    for m in enumerate_q_minus(ctx, n):
        assert isometry_relations(ctx, n, m) and _uncached_isometry_relations(ctx, n, m)
        # adding e_i (theta(e_i) = 0) to column j changes theta of that column by
        # m[p][j], p the partner of i, and otherwise B(column j, column k) by m[p][k]
        # for some k, as row p of m is not zero: never an isometry
        for i in range(2 * n - 2):
            j = sum(m[i]) % (2 * n)
            rows = [list(row) for row in m]
            rows[i][j] ^= 1
            bent = tuple(tuple(row) for row in rows)
            assert not isometry_relations(ctx, n, bent)
            assert not _uncached_isometry_relations(ctx, n, bent)
            partner = i + n - 1 if i < n - 1 else i - (n - 1)
            caught["theta" if m[partner][j] else "polar"] += 1
    assert caught["theta"] and caught["polar"]  # both halves of the relations reject some


def test_isometry_relations_reject_wrong_shapes():
    with pytest.raises(ValueError):
        isometry_relations(CTX2, 2, identity_matrix(3))
    with pytest.raises(ValueError):
        isometry_relations(CTX2, 1, ((1, 0), (0, 1, 0)))


# --- orders ---------------------------------------------------------------


def test_gl_orders():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 4) == 180


def test_gauss_binomials():
    assert gauss_binomial(4, 2, 2) == 35
    assert gauss_binomial(3, 1, 4) == 21
    assert gauss_binomial(2, 2, 8) == 1
    assert gauss_binomial(2, 3, 2) == 0
    assert gauss_binomial(3, -1, 2) == 0


def test_group_orders_frozen():
    assert o_minus_order(2, 1) == 6
    assert o_minus_order(2, 2) == 120
    assert o_minus_order(2, 3) == 51840
    assert q_minus_order(2, 2) == 12
    assert q_minus_order(2, 3) == 576
    assert p_minus_order(2, 2) == 2 * q_minus_order(2, 2)


@pytest.mark.parametrize("n,q", ((1, 2), (2, 2), (2, 4), (3, 2), (3, 8), (4, 4)))
def test_cells_account_for_the_whole_group(n, q):
    # 2n cells (n untwisted, n twisted) of equal paired sizes fill O^-(2n,q)
    total = 2 * sum(bruhat_cell_order(q, n, r) for r in range(n))
    assert total == o_minus_order(q, n)


# --- enumerations ---------------------------------------------------------


def test_so2_enumeration():
    for ctx in (CTX2, CTX4, make_field(3)):
        group = enumerate_so2(ctx)
        assert len(group) == ctx.q + 1
        assert identity_matrix(2) in group
        for m in group:
            assert is_isometry_exhaustive(ctx, 1, m)
        # closure
        products = {mat_mul(ctx, x, y) for x in group for y in group}
        assert products == set(group)


def test_so2_preserves_the_polar_gram_matrix():
    # enumerate_q_minus relies on so2^T eta so2 = eta for every so2
    eta = ((0, 1), (1, 0))
    ctxs = [make_field(r) for r in range(1, 7)]
    for r in (1, 2, 3):
        field = make_field(r)
        ctxs += [make_field(r, a_param=a) for a in range(field.q) if trace(field, a) == 1]
    for ctx in ctxs:
        for so2 in enumerate_so2(ctx):
            assert mat_mul(ctx, transpose(so2), mat_mul(ctx, eta, so2)) == eta


def _so2_by_scan(ctx):
    """The q^2 scan over (d1, d2) that enumerate_so2 ran before it solved
    the norm equation per d2; kept as its oracle."""
    out = []
    for d1 in range(ctx.q):
        for d2 in range(ctx.q):
            if theta_minus(ctx, 1, (d1, d2)) == 1:
                out.append(((d1, mul(ctx, ctx.a_param, d2)), (d2, d1 ^ d2)))
    return tuple(sorted(out))


@pytest.mark.parametrize("r", range(1, 9))
def test_so2_matches_the_scan(r):
    ctx = make_field(r)
    assert enumerate_so2(ctx) == _so2_by_scan(ctx)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_so2_matches_the_scan_for_every_a_param(r):
    field = make_field(r)
    for a in range(field.q):
        if trace(field, a) == 1:
            ctx = make_field(r, a_param=a)
            assert enumerate_so2(ctx) == _so2_by_scan(ctx)


def test_so2_frozen_q2():
    assert enumerate_so2(CTX2) == (
        ((0, 1), (1, 1)),
        ((1, 0), (0, 1)),
        ((1, 1), (1, 0)),
    )


def test_q_minus_enumeration_n1_is_so2():
    assert enumerate_q_minus(CTX2, 1) == enumerate_so2(CTX2)


@pytest.mark.parametrize("n,r", ((2, 1), (2, 2), (3, 1)))
def test_q_minus_enumeration(n, r):
    ctx = make_field(r)
    group = enumerate_q_minus(ctx, n)
    assert len(group) == q_minus_order(ctx.q, n)
    assert identity_matrix(2 * n) in group
    for m in group[:: max(1, len(group) // 32)]:
        assert isometry_relations(ctx, n, m)
    members = set(group)
    sample = group[:: max(1, len(group) // 16)]
    for x in sample:
        for y in sample:
            assert mat_mul(ctx, x, y) in members


_ETA = ((0, 1), (1, 0))


def _q_minus_by_parametrization(ctx, n):
    """The loop that enumerate_q_minus ran before it read U's right-action
    table: every block of D U multiplied entrywise; kept as its oracle."""
    q = ctx.q
    k = n - 1
    delta = ((1, 1), (0, ctx.a_param))
    upper_slots = [(u, v) for u in range(k) for v in range(u + 1, k)]
    out = set()
    for blk_a in enumerate_gl(ctx, k):
        ta_inv = transpose(mat_inv(ctx, blk_a))
        for so2 in enumerate_so2(ctx):
            for hvals in product(range(q), repeat=2 * k):
                h = (hvals[:k], hvals[k:])
                th = transpose(h)
                sym = mat_mul(ctx, th, mat_mul(ctx, delta, h))
                # so2 preserves the polar form, whose Gram matrix is eta: so2^T eta so2 = eta
                blk_e = mat_mul(ctx, blk_a, mat_mul(ctx, th, _ETA))
                ih = mat_mul(ctx, so2, h)
                for upper in product(range(q), repeat=len(upper_slots)):
                    b = [[0] * k for _ in range(k)]
                    for idx in range(k):
                        b[idx][idx] = sym[idx][idx]
                    for (u, v), val in zip(upper_slots, upper):
                        b[u][v] = val
                        b[v][u] = val ^ sym[u][v] ^ sym[v][u]
                    ab = mat_mul(ctx, blk_a, tuple(tuple(row) for row in b))
                    rows = []
                    for idx in range(k):
                        rows.append(blk_a[idx] + ab[idx] + blk_e[idx])
                    for idx in range(k):
                        rows.append((0,) * k + ta_inv[idx] + (0, 0))
                    for idx in range(2):
                        rows.append((0,) * k + ih[idx] + so2[idx])
                    out.add(tuple(rows))
    if len(out) != q_minus_order(q, n):
        raise AssertionError("parametrization of Q^- must be bijective")
    return tuple(sorted(out))


@pytest.mark.parametrize("field_r,n,a_param", ((1, 2, None), (1, 3, None), (2, 2, None),
                                               (2, 2, 0x3), (3, 2, None)))
def test_q_minus_matches_the_entrywise_parametrization(field_r, n, a_param):
    ctx = make_field(field_r, a_param=a_param)
    assert enumerate_q_minus(ctx, n) == _q_minus_by_parametrization(ctx, n)


def test_q_minus_builds_one_unipotent_table_per_h_and_b(monkeypatch):
    # D U over (h, B): q^(2k) h and q^(k(k-1)/2) free entries of B, one table each
    ctx = make_field(1)
    enumerate_q_minus.cache_clear()
    built = []
    monkeypatch.setattr(ominus_groups, "_right_action",
                        lambda c, m: built.append(len(m)) or _right_action(c, m))
    try:
        assert len(enumerate_q_minus(ctx, 3)) == q_minus_order(2, 3)
    finally:
        enumerate_q_minus.cache_clear()
    assert built == [6] * (2 ** 4 * 2)


def test_right_action_reads_one_cached_power_table(monkeypatch):
    ctx = make_field(5)
    assert _powers(ctx) == tuple(tuple(mul(ctx, 1 << k, e) for e in range(ctx.q)) for k in range(5))
    m = ((3, 7), (0, 30))
    expected = [_row_code(ctx, mat_mul(ctx, (v,), m)[0]) for v in product(range(ctx.q), repeat=2)]

    def refuse(ctx, x, y):
        raise AssertionError("a table must read the cached powers, not multiply")

    monkeypatch.setattr(ominus_groups, "mul", refuse)
    assert _right_action(ctx, m) == expected


def test_q_minus_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_q_minus(CTX4, 3)


def test_cell_refusals_never_print_their_unbounded_orders(default_digit_limit):
    # at n = 85, |O^-(2n,q)| has more decimal digits than int-to-string conversion allows
    assert o_minus_order(2, 85) >= 10 ** 4300
    with pytest.raises(BudgetError, match="product budget"):
        bruhat_cell_cosets(CTX2, 85, 84)
    with pytest.raises(BudgetError, match="enumeration budget"):
        enumerate_q_minus(CTX2, 71)


def test_weyl_elements_are_isometric_involutions():
    for n, ctx in ((2, CTX2), (2, CTX4), (3, CTX2)):
        sigmas, rho = weyl_elements(ctx, n)
        assert len(sigmas) == n
        assert sigmas[0] == identity_matrix(2 * n)
        assert rho == _rho_left_mul(identity_matrix(2 * n))
        for w in (*sigmas, rho):
            assert isometry_relations(ctx, n, w)
            assert mat_mul(ctx, w, w) == identity_matrix(2 * n)


def test_bruhat_cells_partition_small_group():
    seen: set = set()
    total = 0
    for r in range(2):
        for twisted in (False, True):
            cell = bruhat_cell(CTX2, 2, r, twisted)
            assert len(cell) == bruhat_cell_order(2, 2, r)
            for m in cell[:: max(1, len(cell) // 16)]:
                assert is_isometry_exhaustive(CTX2, 2, m)
            seen.update(cell)
            total += len(cell)
    assert total == 120
    assert len(seen) == 120


# The construction bruhat_cell used before the right-coset walk: all |Q^-|^2
# two-sided products, deduplicated in a set.  Kept as the oracle.


def _rho_left_mul(m):
    # only the next-to-last row changes: it absorbs the last row
    rows = list(m)
    rows[-2] = tuple(a ^ b for a, b in zip(rows[-2], rows[-1]))
    return tuple(rows)


def _pack_rows(m):
    return tuple(sum(bit << j for j, bit in enumerate(row)) for row in m)


def _packed_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for bits in x:
        acc = 0
        while bits:
            low = bits & -bits
            acc ^= y[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return tuple(out)


def _unpack_rows(packed: tuple[int, ...], size: int):
    return tuple(tuple((row >> j) & 1 for j in range(size)) for row in packed)


ORACLE_PRODUCTS = 10 ** 7  # largest |Q^-|^2 the oracle multiplies out


@lru_cache(maxsize=None)
def all_products_cell(ctx, n: int, r: int, twisted: bool = False):
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..{n - 1}, got {r}")
    if twisted:
        base = all_products_cell(ctx, n, r, False)
        return tuple(sorted(_rho_left_mul(w) for w in base))
    qm = enumerate_q_minus(ctx, n)
    if r == 0:
        return qm  # sigma_0 is the identity and Q^- is a group
    if len(qm) ** 2 > ORACLE_PRODUCTS:
        raise BudgetError(f"|Q^-|^2 = {len(qm) ** 2} exceeds the oracle's {ORACLE_PRODUCTS}")
    sigma = weyl_elements(ctx, n)[0][r]
    seen: set = set()
    if ctx.q == 2:
        packed = [_pack_rows(w) for w in qm]
        sig = _pack_rows(sigma)
        lefts = [_packed_mul(x, sig) for x in packed]
        for left in lefts:
            for y in packed:
                seen.add(_packed_mul(left, y))
        return tuple(sorted(_unpack_rows(w, 2 * n) for w in seen))
    lefts = [mat_mul(ctx, x, sigma) for x in qm]
    for left in lefts:
        for y in qm:
            seen.add(mat_mul(ctx, left, y))
    return tuple(sorted(seen))


CELL_FIELDS = {
    "q2-n2": (1, 2, None),
    "q2-n3": (1, 3, None),
    "q4-n2": (2, 2, None),
    "q4-n2-a3": (2, 2, 0x3),  # the other trace-one a_param of GF(4)
}


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_bruhat_cell_matches_all_products_oracle(key):
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    assert trace(ctx, ctx.a_param) == 1
    for r in range(n):
        for twisted in (False, True):
            oracle = all_products_cell(ctx, n, r, twisted)
            assert bruhat_cell(ctx, n, r, twisted) == oracle
            encoded = tuple(_code(ctx, w) for w in oracle)
            assert tuple(sorted(bruhat_cell_cosets(ctx, n, r, twisted))) == encoded


def _code(ctx, m):
    """A matrix as one element code: its entries row-major, r bits each, first highest."""
    return _row_code(ctx, chain.from_iterable(m))


def _decoded(ctx, n, codes):
    """Element codes back to matrices: entry (i, j) sits r (4n^2 - 1 - 2n i - j) bits up."""
    size = 2 * n
    shifts = [[ctx.r * (size * size - 1 - size * i - j) for j in range(size)] for i in range(size)]
    return tuple(tuple(tuple(c >> s & ctx.q - 1 for s in row) for row in shifts) for c in codes)


def _rows(ctx, n, code):
    """An element code's 2n row codes, row 0 first."""
    width = 2 * n * ctx.r
    return tuple(code >> width * (2 * n - 1 - i) & (1 << width) - 1 for i in range(2 * n))


def _joined(ctx, n, rows):
    """2n row codes, row 0 first, as one element code."""
    width = 2 * n * ctx.r
    return sum(c << width * (2 * n - 1 - i) for i, c in enumerate(rows))


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_bruhat_cell_is_the_sorted_decode_of_the_coset_order_cell(key):
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    for r in range(n):
        for twisted in (False, True):
            cosets = bruhat_cell_cosets(ctx, n, r, twisted)
            assert bruhat_cell(ctx, n, r, twisted) == _decoded(ctx, n, sorted(cosets))


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_coset_order_cell_is_its_right_cosets_in_q_minus_order(key):
    # block k of |Q^-| elements is w_k Q^- in Q^-'s order, its leaders
    # w_k = (rho) x sigma_r in the order of x in Q^-
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    qm = enumerate_q_minus(ctx, n)
    identity = qm.index(identity_matrix(2 * n))
    tables = [_right_action(ctx, y) for y in qm]
    sigmas, rho = weyl_elements(ctx, n)
    for r in range(n):
        for twisted in (False, True):
            cell = bruhat_cell_cosets(ctx, n, r, twisted)
            leaders = []
            for x in qm:
                w = mat_mul(ctx, x, sigmas[r])
                w = mat_mul(ctx, rho, w) if twisted else w
                leaders.append(_code(ctx, w))
            picked = []
            for start in range(0, len(cell), len(qm)):
                block = cell[start:start + len(qm)]
                picked.append(leaders.index(block[identity]))
                rows = _rows(ctx, n, block[identity])
                assert block == tuple(_joined(ctx, n, (t[c] for c in rows)) for t in tables)
            assert picked == sorted(set(picked)) and len(picked) * len(qm) == len(cell)


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_code_form_traces_match_the_matrix_trace(key):
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    for r in range(n):
        for twisted in (False, True):
            cosets = bruhat_cell_cosets(ctx, n, r, twisted)
            literal = tuple(map(mat_trace, _decoded(ctx, n, cosets)))
            assert cell_traces(ctx, n, cosets) == literal
    for spec in valid_specs(ctx, n):
        counted = Counter(map(mat_trace, double_coset_elements(spec)))
        assert trace_distribution(spec, "enumerated") == {b: counted[b] for b in range(ctx.q)}


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_code_coordinates_follow_the_coset_order(key):
    # coordinate j of c(a) is tr(a Tr g_j), g_j the j-th element of the coset-order cell
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    for spec in valid_specs(ctx, n):
        cosets = bruhat_cell_cosets(ctx, n, spec.sigma_index, spec.rho_twisted)
        traces = tuple(map(mat_trace, _decoded(ctx, n, cosets)))
        assert double_coset_traces(spec) == traces
        for a in range(ctx.q):
            word = tuple(trace(ctx, mul(ctx, a, t)) for t in traces)
            assert coset_codes.dual_codeword(spec, a) == word


def test_code_form_traces_at_every_q_of_the_n1_cells():
    # n = 1 cells exist up to q = 8192; their row codes fill 2r bits of a lane
    for field_r in range(1, 14):
        ctx = make_field(field_r)
        for twisted in (False, True):
            cosets = bruhat_cell_cosets(ctx, 1, 0, twisted)
            literal = tuple(map(mat_trace, _decoded(ctx, 1, cosets)))
            assert cell_traces(ctx, 1, cosets) == literal


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_bruhat_cell_is_sorted_and_twisted_by_rho(key):
    # row codes order as rows do, so the code-form sort is the matrix sort
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    for r in range(n):
        cell = bruhat_cell(ctx, n, r)
        twisted = bruhat_cell(ctx, n, r, True)
        assert cell == tuple(sorted(cell)) and twisted == tuple(sorted(twisted))
        assert twisted == tuple(sorted(_rho_left_mul(w) for w in cell))


def _per_element_cell_cosets(ctx, n, r, twisted=False):
    """bruhat_cell_cosets as it was before its leaders, its twist and its r = 0
    cell were lane operations: each leader x sigma_r a sum over x's row codes,
    the twist a generator over the elements, Q^- encoded entry by entry; the
    walk itself is the same.  Kept as the oracle of those three steps."""
    width = 2 * n * ctx.r
    mask, shifts = (1 << width) - 1, ominus_groups._shifts(width, 2 * n)
    if twisted:
        return tuple(w ^ (w & mask) << width for w in _per_element_cell_cosets(ctx, n, r))
    if not r:
        return tuple(_row_code(ctx, chain.from_iterable(y)) for y in enumerate_q_minus(ctx, n))
    group = _per_element_cell_cosets(ctx, n, 0)
    eye = identity_matrix(2 * n)
    scaled = [_right_action(ctx, tuple(tuple(e << k for e in row) for row in eye)) for k in range(ctx.r)]
    images = [ominus_groups._pack([times[y >> s & mask] for y in group])
              for s in reversed(shifts) for times in scaled]
    columns = [image << s for s in reversed(shifts) for image in images]
    sigma = _right_action(ctx, weyl_elements(ctx, n)[0][r])
    cell, seen = [], set()
    for x in group:
        left = sum(sigma[x >> s & mask] << s for s in shifts)
        if left in seen:
            continue
        packed = 0
        for bit, column in enumerate(columns):
            if left >> bit & 1:
                packed ^= column
        coset = ominus_groups._unpack(packed, len(group))
        seen.update(coset)
        cell += coset
        assert len(seen) == len(cell)
    return tuple(cell)


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_lane_cells_match_the_per_element_oracle_in_order(key):
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    for r in range(n):
        for twisted in (False, True):
            assert bruhat_cell_cosets(ctx, n, r, twisted) == _per_element_cell_cosets(ctx, n, r, twisted)


def test_lane_cells_match_the_per_element_oracle_at_every_n1_field():
    # n = 1 has only the r = 0 cell and its twin; their elements fill up to 52 bits of a lane
    for field_r in range(1, 14):
        ctx = make_field(field_r)
        for twisted in (False, True):
            assert bruhat_cell_cosets(ctx, 1, 0, twisted) == _per_element_cell_cosets(ctx, 1, 0, twisted)


ACTION_FIELDS = ((1, 2, None), (1, 3, None), (2, 2, None), (2, 2, 0x3), (3, 1, None))


@pytest.mark.parametrize("field_r,n,a_param", ACTION_FIELDS)
def test_right_action_tables_match_mat_mul(field_r, n, a_param):
    ctx = make_field(field_r, a_param=a_param)
    vectors = list(product(range(ctx.q), repeat=2 * n))
    assert [_row_code(ctx, v) for v in vectors] == list(range(len(vectors)))
    group = enumerate_q_minus(ctx, n)
    rng = random.Random(f"action:{field_r}:{n}")
    for m in (*rng.sample(group, min(6, len(group))), *weyl_elements(ctx, n)[0]):
        table = _right_action(ctx, m)
        assert table == [_row_code(ctx, mat_mul(ctx, (v,), m)[0]) for v in vectors]
        column = _right_action(ctx, transpose(m))  # v m^T is (m v)^T
        assert column == [_row_code(ctx, mat_vec(ctx, m, v)) for v in vectors]


def _literal_scan(ctx, n, m):
    vectors = product(range(ctx.q), repeat=2 * n)
    return all(theta_minus(ctx, n, mat_vec(ctx, m, v)) == theta_minus(ctx, n, v) for v in vectors)


@pytest.mark.parametrize("field_r,n", [(f, 1) for f in range(1, 5)] + [(1, 2), (1, 3), (2, 2)])
def test_table_scan_matches_the_literal_scan(field_r, n):
    ctx = make_field(field_r)
    group = enumerate_q_minus(ctx, n)
    rng = random.Random(f"scan:{field_r}:{n}")
    verdicts = []
    for m in rng.sample(group, min(4, len(group))):
        assert is_isometry_exhaustive(ctx, n, m) and _literal_scan(ctx, n, m)
        for _ in range(4):  # one entry changed: mostly not an isometry
            i, j = rng.randrange(2 * n), rng.randrange(2 * n)
            rows = [list(row) for row in m]
            rows[i][j] ^= rng.randrange(1, ctx.q)
            bent = tuple(tuple(row) for row in rows)
            verdicts.append(is_isometry_exhaustive(ctx, n, bent))
            assert verdicts[-1] == _literal_scan(ctx, n, bent)
    assert not all(verdicts)


@pytest.mark.parametrize("field_r", (1, 2, 3, 4))
def test_parabolic_indices_tie_cells_to_the_parabolics(field_r):
    ctx = make_field(field_r)
    q = ctx.q
    for n in range(1, 8):
        for r in range(n):
            a_ord, index = parabolic_indices(ctx, n, r)
            assert a_ord * index == p_minus_order(q, n)
            assert bruhat_cell_order(q, n, r) == q_minus_order(q, n) * index
    with pytest.raises(ValueError):
        parabolic_indices(ctx, 3, 3)


def test_parabolic_indices_anchors():
    # a_ord / 2 is how often the all-products construction met each element
    assert parabolic_indices(CTX2, 3, 1) == (96, 12)
    assert parabolic_indices(CTX2, 3, 2) == (36, 32)
    assert parabolic_indices(CTX4, 2, 1) == (30, 16)


def _fake_q_minus(ctx, n: int):
    """Q^- with its last element swapped for sigma_1: the same size, not a group."""
    group = enumerate_q_minus(ctx, n)
    sigma = weyl_elements(ctx, n)[0][1]
    fake = tuple(sorted(group[:-1] + (sigma,)))
    assert sigma not in group and len(set(fake)) == len(group)
    return fake


@pytest.mark.parametrize("field_r,n", ((1, 2), (1, 3), (2, 2)))
def test_cell_check_rejects_a_q_minus_that_is_not_a_group(monkeypatch, field_r, n):
    ctx = make_field(field_r)
    fake = _fake_q_minus(ctx, n)
    bruhat_cell_cosets(ctx, n, 1)  # the true group's cells are cached
    monkeypatch.setattr(ominus_groups, "enumerate_q_minus", lambda c, k: fake)
    bruhat_cell_cosets.cache_clear()
    try:
        with pytest.raises(AssertionError, match="right cosets of Q\\^- must be disjoint"):
            checks._check_parabolic_cells(ctx, n)
    finally:
        bruhat_cell_cosets.cache_clear()


@pytest.mark.parametrize("field_r,n", ((1, 2), (1, 3), (2, 2)))
def test_cell_check_rejects_a_q_minus_of_the_wrong_size(monkeypatch, field_r, n):
    # no separate size assertion: the r = 0 cell is Q^-, so its size check catches it
    ctx = make_field(field_r)
    short = enumerate_q_minus(ctx, n)[:-1]
    monkeypatch.setattr(ominus_groups, "enumerate_q_minus", lambda c, k: short)
    bruhat_cell_cosets.cache_clear()
    try:
        with pytest.raises(AssertionError, match="cell size mismatch at r = 0"):
            checks._check_parabolic_cells(ctx, n)
    finally:
        bruhat_cell_cosets.cache_clear()


@pytest.mark.parametrize("key", sorted(CELL_FIELDS))
def test_cell_check_agrees_with_the_union_of_every_cell(key):
    # the check compares one element per cell; the full union is the oracle for its verdict
    field_r, n, a_param = CELL_FIELDS[key]
    ctx = make_field(field_r, a_param=a_param)
    cells = [bruhat_cell_cosets(ctx, n, r, twisted) for r in range(n) for twisted in (False, True)]
    assert sum(map(len, cells)) == len(set(chain.from_iterable(cells))) == o_minus_order(ctx.q, n)
    checks._check_parabolic_cells(ctx, n)


@pytest.mark.parametrize("field_r,n", ((1, 2), (1, 3), (2, 2)))
def test_cell_check_rejects_two_overlapping_cells(monkeypatch, field_r, n):
    # the twisted cell swapped for its untwisted twin: every size and the total still hold
    ctx = make_field(field_r)
    real = bruhat_cell_cosets
    monkeypatch.setattr(ominus_groups, "bruhat_cell_cosets",
                        lambda c, k, r, twisted=False: real(c, k, r, twisted and r != n - 1))
    with pytest.raises(AssertionError, match="cells must partition the whole isometry group"):
        checks._check_parabolic_cells(ctx, n)


def _projection(n: int):
    """The identity with its first diagonal entry zeroed: it sends e_1 to 0, so no isometry."""
    return tuple(tuple(int(i == j > 0) for j in range(2 * n)) for i in range(2 * n))


# key: (the enumeration a check samples, the check, field degree, the arguments of both
# after the field, the check's name for an element)
SAMPLED_GROUPS = {
    "so2-r1": ("enumerate_so2", checks._check_so2, 1, (), "norm-one"),
    "so2-r3": ("enumerate_so2", checks._check_so2, 3, (), "norm-one"),
    "cells-n2-r1": ("enumerate_q_minus", checks._check_parabolic_cells, 1, (2,), "parabolic"),
    "cells-n2-r2": ("enumerate_q_minus", checks._check_parabolic_cells, 2, (2,), "parabolic"),
}


def _run_with_a_non_isometry(monkeypatch, key: str) -> None:
    """The check of SAMPLED_GROUPS[key], its group's first element swapped for a projection."""
    name, check, field_r, args, _ = SAMPLED_GROUPS[key]
    ctx = make_field(field_r)
    group = getattr(ominus_groups, name)(ctx, *args)[1:]
    monkeypatch.setattr(ominus_groups, name, lambda *_: (_projection(len(group[0]) // 2),) + group)
    check(ctx, *args)


@pytest.mark.parametrize("key", sorted(SAMPLED_GROUPS))
def test_isometry_checks_reject_a_non_isometry_by_its_relations(monkeypatch, key):
    what = SAMPLED_GROUPS[key][-1]
    with pytest.raises(AssertionError, match=f"^a {what} element fails the isometry relations$"):
        _run_with_a_non_isometry(monkeypatch, key)


@pytest.mark.parametrize("key", sorted(SAMPLED_GROUPS))
def test_isometry_checks_reject_a_non_isometry_by_the_exhaustive_scan(monkeypatch, key):
    # with the relations fooled, the scan alone must see it
    monkeypatch.setattr(ominus_groups, "isometry_relations", lambda ctx, n, m: True)
    what = SAMPLED_GROUPS[key][-1]
    with pytest.raises(AssertionError, match=f"^a {what} element fails the exhaustive scan$"):
        _run_with_a_non_isometry(monkeypatch, key)


@pytest.mark.parametrize("field_r,n", ((1, 2), (1, 3), (2, 2), (3, 2)))
def test_cell_walk_builds_no_table_per_element_of_q_minus(monkeypatch, field_r, n):
    # with Q^- cached, a cell builds r scaled-basis tables and the sigma table, not |Q^-|
    ctx = make_field(field_r)
    bruhat_cell_cosets(ctx, n, 0)
    built = []
    monkeypatch.setattr(ominus_groups, "_right_action",
                        lambda c, m: built.append(m) or _right_action(c, m))
    bruhat_cell_cosets.cache_clear()
    ominus_groups._basis_columns.cache_clear()
    try:
        bruhat_cell_cosets(ctx, n, 0)
        assert built == []
        bruhat_cell_cosets(ctx, n, n - 1, True)
    finally:
        bruhat_cell_cosets.cache_clear()
    assert len(built) == field_r + 1 and built[-1] == weyl_elements(ctx, n)[0][n - 1]


def test_cells_at_one_q_minus_build_the_scaled_basis_tables_once(monkeypatch):
    # the basis columns depend on Q^- alone: after the first cell, each r builds only its sigma table;
    # n = 3 at q = 2 is the one (q, n) the budgets admit with two cells past Q^- itself
    ctx, n = make_field(1), 3
    bruhat_cell_cosets(ctx, n, 0)
    built = []
    monkeypatch.setattr(ominus_groups, "_right_action",
                        lambda c, m: built.append(m) or _right_action(c, m))
    bruhat_cell_cosets.cache_clear()
    ominus_groups._basis_columns.cache_clear()
    try:
        cells = [bruhat_cell_cosets(ctx, n, r, twisted) for r in (1, 2) for twisted in (False, True)]
    finally:
        bruhat_cell_cosets.cache_clear()
    assert len(built) == 1 + 2 and built[1:] == list(weyl_elements(ctx, n)[0][1:])
    assert [len(cell) for cell in cells] == [bruhat_cell_order(2, n, r) for r in (1, 1, 2, 2)]


def test_every_admitted_cell_element_fits_one_lane():
    # an element has 4 n^2 r bits; the widest the enumeration budget admits is n = 1, r = 13
    widths = [4 * n * n * r for r in range(1, 17) for n in range(1, 9) if q_minus_fits(1 << r, n)]
    assert max(widths) == 52


def test_cell_refuses_an_element_wider_than_one_lane(monkeypatch):
    # Q^-(6,4) is over the enumeration budget; were it admitted, its 144-bit elements could not be packed
    monkeypatch.setattr(ominus_groups, "enumerate_q_minus", lambda ctx, n: ())
    with pytest.raises(AssertionError, match="64-bit lane"):
        bruhat_cell_cosets(CTX4, 3, 0)


CTX8 = make_field(3)


def test_q8_n2_cells_partition_the_group():
    union: set = set()
    total = 0
    for r in range(2):
        for twisted in (False, True):
            cell = bruhat_cell_cosets(CTX8, 2, r, twisted)
            assert len(cell) == bruhat_cell_order(8, 2, r)
            union.update(cell)
            total += len(cell)
    assert total == o_minus_order(8, 2) == 524160
    assert len(union) == total


def test_q8_n2_coset_elements_are_products_of_their_leader():
    # block k of |Q^-| elements is w_k Q^- in Q^-'s order, w_k = (rho) x sigma_1 for x in Q^-
    qm = enumerate_q_minus(CTX8, 2)
    members, identity = set(qm), qm.index(identity_matrix(4))
    sigma = weyl_elements(CTX8, 2)[0][1]
    rng = random.Random("cells:8:2")
    for twisted in (False, True):
        cell = bruhat_cell_cosets(CTX8, 2, 1, twisted)
        for start in rng.sample(range(0, len(cell), len(qm)), 6):
            leader = _decoded(CTX8, 2, (cell[start + identity],))[0]
            untwisted = _rho_left_mul(leader) if twisted else leader
            assert mat_mul(CTX8, untwisted, sigma) in members
            for j in rng.sample(range(len(qm)), 8):
                assert cell[start + j] == _code(CTX8, mat_mul(CTX8, leader, qm[j]))


@pytest.mark.parametrize("a_param", (None, 0x7))
def test_q8_n2_enumerated_classes_equal_the_closed_ones(a_param):
    ctx = make_field(3, a_param=a_param)
    assert trace(ctx, ctx.a_param) == 1
    specs = valid_specs(ctx, 2)
    assert [(spec.family, spec.sign) for spec in specs] == [(1, "+"), (2, "+"), (3, "+")]
    for spec in specs:
        assert trace_distribution(spec, "enumerated") == trace_distribution(spec)


# --- double-coset specs ---------------------------------------------------


def test_bruhat_cell_refuses_before_enumerating(monkeypatch):
    def refuse(ctx, n):
        raise AssertionError("Q^- must not be enumerated past the product budget")

    monkeypatch.setattr(ominus_groups, "enumerate_q_minus", refuse)
    with pytest.raises(BudgetError):  # |O^-(4,16)| > PRODUCT_BUDGET
        bruhat_cell(make_field(4), 2, 1)


def test_spec_validation():
    with pytest.raises(ValueError, match="n even"):
        DoubleCosetSpec(1, "+", 3, CTX2)
    with pytest.raises(ValueError, match="n odd"):
        DoubleCosetSpec(1, "-", 2, CTX2)
    with pytest.raises(ValueError, match="n >= 4"):
        DoubleCosetSpec(4, "+", 2, CTX2)
    with pytest.raises(ValueError, match="n >= 3"):
        DoubleCosetSpec(2, "-", 1, CTX2)
    with pytest.raises(ValueError, match="family"):
        DoubleCosetSpec(5, "+", 2, CTX2)
    with pytest.raises(ValueError, match="sign"):
        DoubleCosetSpec(1, "plus", 2, CTX2)


def test_spec_record_repr_equality_and_immutability():
    spec = DoubleCosetSpec(1, "+", 2, make_field(3))
    assert repr(spec) == (
        "DoubleCosetSpec(family=1, sign='+', n=2, "
        "ctx=FieldCtx(r=3, q=8, modulus=11, a_param=1, trace_mask=1))"
    )
    twin = DoubleCosetSpec(family=1, sign="+", n=2, ctx=make_field(3))
    assert twin == spec and hash(twin) == hash(spec)
    assert DoubleCosetSpec(1, "+", 2, make_field(3, a_param=3)) != spec
    with pytest.raises(AttributeError):
        spec.n = 4
    assert (spec.family, spec.sign, spec.n, spec.sigma_index, spec.k2_shift) == (1, "+", 2, 1, None)


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
def test_spec_survives_pickle_and_deepcopy(clone):
    spec = DoubleCosetSpec(2, "+", 2, make_field(2))
    other = clone(spec)
    assert other == spec and hash(other) == hash(spec) and repr(other) == repr(spec)
    assert dc_cardinality(other) == dc_cardinality(spec)
    assert trace_distribution(other, "closed_form") == trace_distribution(spec, "closed_form")


def test_spec_properties():
    spec = DoubleCosetSpec(3, "+", 2, CTX2)
    assert spec.sigma_index == 0
    assert spec.rho_twisted
    assert spec.sign_value == 1
    spec = DoubleCosetSpec(1, "-", 3, CTX2)
    assert spec.sigma_index == 2
    assert not spec.rho_twisted
    assert spec.sign_value == -1


def _constructible(ctx, n):
    """The catalogue's oracle: every family whose spec constructs at n."""
    sign = "+" if n % 2 == 0 else "-"
    out = []
    for fam in (1, 2, 3, 4):
        try:
            out.append(DoubleCosetSpec(fam, sign, n, ctx))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_valid_specs_are_the_constructible_ones(n):
    assert valid_specs(CTX4, n) == _constructible(CTX4, n)


def test_first_specs_are_each_family_at_its_least_n():
    specs = first_specs(CTX2)
    assert sorted((s.family, s.sign) for s in specs) == sorted(product((1, 2, 3, 4), "+-"))
    for spec in specs:
        assert spec in valid_specs(CTX2, spec.n)
        with pytest.raises(ValueError, match=f"n >= {spec.n}"):
            DoubleCosetSpec(spec.family, spec.sign, spec.n - 2, CTX2)


# closed-form (A, B, N) anchors, cross-checked against full enumeration
CARDINALITY_ANCHORS = {
    (1, "+", 2, 2): (8, 6, 48),
    (2, "+", 2, 2): (4, 3, 12),
    (3, "+", 2, 2): (12, 1, 12),
    (1, "-", 1, 2): (1, 3, 3),
    (1, "-", 3, 2): (1024, 18, 18432),
    (2, "-", 3, 2): (384, 18, 6912),
    (3, "-", 3, 2): (1152, 6, 6912),
    (4, "-", 3, 2): (192, 3, 576),
}


@pytest.mark.parametrize("key", sorted(CARDINALITY_ANCHORS))
def test_cardinality_anchors(key):
    fam, sign, n, q = key
    ctx = make_field(q.bit_length() - 1)
    spec = DoubleCosetSpec(fam, sign, n, ctx)
    assert dc_cardinality(spec) == CARDINALITY_ANCHORS[key]


def test_double_coset_elements_match_cardinality():
    spec = DoubleCosetSpec(1, "+", 2, CTX2)
    cell = double_coset_elements(spec)
    assert len(cell) == dc_cardinality(spec)[2]
    assert cell == bruhat_cell(CTX2, 2, 1, False)


# --- trace distributions and character sums -------------------------------


def test_trace_distribution_closed_equals_enumerated():
    for fam in (1, 2, 3):
        spec = DoubleCosetSpec(fam, "+", 2, CTX4)
        assert trace_distribution(spec, "enumerated") == trace_distribution(spec)


def test_trace_distribution_frozen():
    assert trace_distribution(DoubleCosetSpec(3, "+", 2, CTX2)) == {0: 12, 1: 0}
    assert trace_distribution(DoubleCosetSpec(4, "-", 3, CTX2)) == {0: 576, 1: 0}
    assert trace_distribution(DoubleCosetSpec(3, "+", 2, CTX4)) == {
        0: 80,
        1: 160,
        2: 0,
        3: 0,
    }


def test_trace_distribution_sums_to_coset_size():
    for key in CARDINALITY_ANCHORS:
        fam, sign, n, q = key
        spec = DoubleCosetSpec(fam, sign, n, make_field(q.bit_length() - 1))
        dist = trace_distribution(spec)
        assert sum(dist.values()) == dc_cardinality(spec)[2]
        assert all(v >= 0 for v in dist.values())


def test_minus_n1_distribution_formula():
    """1 at beta = 0, else 2 exactly when tr(1/beta) = 1."""
    for r in (1, 2, 3):
        ctx = make_field(r)
        dist = trace_distribution(DoubleCosetSpec(1, "-", 1, ctx))
        assert dist[0] == 1
        for beta in units(ctx):
            assert dist[beta] == 2 * trace(ctx, inv(ctx, beta))


def test_exp_sum_closed_equals_enumerated():
    for fam in (1, 2, 3):
        spec = DoubleCosetSpec(fam, "+", 2, CTX4)
        for a in units(CTX4):
            assert exp_sum_dc(spec, a, "enumerated") == exp_sum_dc(spec, a)


def test_exp_sum_closed_forms():
    """Plus sign: AK for family 1, -AK^2 for family 2; minus sign flips,
    and family 4 carries the q^2 - q shift."""
    q = CTX4.q
    spec1 = DoubleCosetSpec(1, "+", 2, CTX4)
    spec2 = DoubleCosetSpec(2, "+", 2, CTX4)
    spec4 = DoubleCosetSpec(4, "-", 3, CTX4)
    for a in units(CTX4):
        k = kloosterman_sum(CTX4, 1, a)
        assert exp_sum_dc(spec1, a) == dc_cardinality(spec1)[0] * k
        assert exp_sum_dc(spec2, a) == -dc_cardinality(spec2)[0] * k * k
        assert exp_sum_dc(spec4, a) == dc_cardinality(spec4)[0] * (k * k + q * q - q)


def test_exp_sum_validation():
    spec = DoubleCosetSpec(1, "+", 2, CTX2)
    with pytest.raises(ValueError):
        exp_sum_dc(spec, 0)
    with pytest.raises(ValueError):
        exp_sum_dc(spec, 1, "fast")
    with pytest.raises(ValueError):
        trace_distribution(spec, "fast")



def _closed_classes_per_beta(spec):
    """The closed trace classes one beta at a time, each from the K-form's
    value at 1/beta: the oracle of the transform that `_trace_counts` takes."""
    ctx = spec.ctx
    q = ctx.q
    a_cnt, b_cnt, _ = dc_cardinality(spec)
    s, c = spec.sign_value, spec.k2_shift
    k1 = kloosterman_spectrum(ctx, 1) if c is not None else ()
    out = []
    for beta in range(q):
        if c is None:
            eps = 1 + q * lambda_char(ctx, inv(ctx, beta)) if beta else 1
        else:  # the beta = 0 class reads K as c
            eps = c + 1 - q * (k1[inv(ctx, beta)] if beta else c)
        count, rem = divmod(a_cnt * (b_cnt + s * eps), q)
        if rem or count < 0:
            raise AssertionError("trace-class count must be a nonnegative integer")
        out.append(count)
    return tuple(out)


def _closed_specs(r):
    ctx = make_field(r)
    return first_specs(ctx) + valid_specs(ctx, 4) + valid_specs(ctx, 5)


@pytest.mark.parametrize(
    "spec",
    [spec for r in (3, 8, 12) for spec in _closed_specs(r)]
    + [DoubleCosetSpec(1, "-", 1, make_field(16)), DoubleCosetSpec(2, "+", 2, make_field(16))],
    ids=lambda s: f"f{s.family}{s.sign}n{s.n}r{s.ctx.r}",
)
def test_closed_sums_are_the_transform_of_the_closed_trace_classes(spec):
    """The paper's two closed statements agree at every a: the K-form of S(a)
    and the character sums of the per-beta closed trace classes."""
    classes = _closed_classes_per_beta(spec)
    assert trace_distribution(spec, "closed_form") == dict(enumerate(classes))
    assert exp_sums_dc(spec) == tuple(character_sums(spec.ctx, classes))
    assert exp_sums_dc(spec)[0] == dc_cardinality(spec)[2]


def test_enumerated_sums_follow_their_definition():
    spec = DoubleCosetSpec(1, "+", 2, CTX4)
    counted = trace_distribution(spec, "enumerated")
    assert exp_sums_dc(spec, "enumerated") == tuple(
        sum(cnt * lambda_char(CTX4, mul(CTX4, a, beta)) for beta, cnt in counted.items())
        for a in range(CTX4.q)
    )


def test_per_a_sums_read_one_cached_vector():
    spec = DoubleCosetSpec(3, "-", 3, make_field(6))
    before = exp_sums_dc.cache_info().misses
    values = [exp_sum_dc(spec, a) for a in units(spec.ctx)]
    assert tuple(values) == exp_sums_dc(spec)[1:]
    assert exp_sums_dc.cache_info().misses - before <= 1

# --- the symmetric-matrix character sum -----------------------------------

B_R_ANCHORS = {
    (2, 1): -2,
    (2, 2): 16,
    (2, 3): -224,
    (4, 1): -12,
    (4, 2): 768,
}


@pytest.mark.parametrize("q,dim", sorted(B_R_ANCHORS))
def test_symmetric_sum_closed_anchors(q, dim):
    ctx = make_field(q.bit_length() - 1)
    assert b_r_sum_closed(ctx, dim) == B_R_ANCHORS[(q, dim)]


@pytest.mark.parametrize("q,dim", sorted(B_R_ANCHORS))
def test_symmetric_sum_enumeration_matches_closed(q, dim):
    ctx = make_field(q.bit_length() - 1)
    assert b_r_sum(ctx, dim) == b_r_sum_closed(ctx, dim)


def test_symmetric_sum_is_twist_independent():
    for ctx in (CTX2, CTX4):
        for dim in (1, 2):
            vals = {b_r_sum(ctx, dim, twist=t) for t in units(ctx)}
            assert vals == {b_r_sum_closed(ctx, dim)}


def test_symmetric_sum_budget():
    with pytest.raises(BudgetError):
        b_r_sum(CTX4, 3)


def _accumulator_sum(ctx, r, twist):
    """The (s, t) accumulator loop that b_r_sum ran before it read per-B
    tables: every product of Tr(delta th B h) recomputed per h; kept as its
    oracle."""
    q, a = ctx.q, ctx.a_param
    total = 0
    for sym in ominus_groups._symmetric_matrices(ctx, r):
        if not ominus_groups._is_nonsingular(ctx, sym):
            continue
        for hvals in product(range(q), repeat=2 * r):
            h = tuple((hvals[2 * t], hvals[2 * t + 1]) for t in range(r))
            x00 = x10 = x11 = 0
            for s_i in range(r):
                for t_i in range(r):
                    bst = sym[s_i][t_i]
                    if not bst:
                        continue
                    x00 ^= mul(ctx, h[s_i][0], mul(ctx, bst, h[t_i][0]))
                    x10 ^= mul(ctx, h[s_i][1], mul(ctx, bst, h[t_i][0]))
                    x11 ^= mul(ctx, h[s_i][1], mul(ctx, bst, h[t_i][1]))
            arg = x00 ^ x10 ^ mul(ctx, a, x11)
            total += lambda_char(ctx, mul(ctx, twist, arg))
    return total


@pytest.mark.parametrize("q,dim", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (8, 1)])
def test_symmetric_sum_matches_the_accumulator_loop_for_every_a_param_and_twist(q, dim):
    field = make_field(q.bit_length() - 1)
    for a in range(field.q):
        if trace(field, a) == 1:
            ctx = make_field(field.r, a_param=a)
            closed = b_r_sum_closed(ctx, dim)
            for twist in units(ctx):
                assert b_r_sum(ctx, dim, twist) == _accumulator_sum(ctx, dim, twist) == closed


def test_symmetric_sum_at_q8_dim2_with_a_twist_and_the_largest_a_param():
    # the accumulator loop would take about 10 s here; the closed form is the oracle
    field = make_field(3)
    a = max(x for x in range(field.q) if trace(field, x) == 1)
    assert a != field.a_param
    ctx = make_field(3, a_param=a)
    assert b_r_sum(ctx, 2, twist=5) == b_r_sum_closed(ctx, 2)


@pytest.mark.parametrize("q,dim", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (8, 1)])
def test_reduced_symmetric_sum_matches_the_direct_sum_for_every_a_param_and_twist(q, dim):
    field = make_field(q.bit_length() - 1)
    for a in range(field.q):
        if trace(field, a) == 1:
            ctx = make_field(field.r, a_param=a)
            reduced = b_r_sum_reduced(ctx, dim)  # one value: the direct sum does not depend on the twist
            assert all(b_r_sum(ctx, dim, twist) == reduced for twist in units(ctx))


@pytest.mark.parametrize("q,dim", [(16, 2), (256, 1)])
def test_reduced_symmetric_sum_matches_the_closed_form_beyond_the_direct_budget(q, dim):
    field = make_field(q.bit_length() - 1)
    assert not ominus_groups.sym_sum_fits(q, dim)
    a = max(x for x in range(q) if trace(field, x) == 1)
    for ctx in (field, make_field(field.r, a_param=a)):
        assert b_r_sum_reduced(ctx, dim) == b_r_sum_closed(ctx, dim)


def _trace_one_fields(q):
    field = make_field(q.bit_length() - 1)
    return [make_field(field.r, a_param=a) for a in range(q) if trace(field, a) == 1]


def _nonsingular_symmetric(ctx, dim):
    for b in ominus_groups._symmetric_matrices(ctx, dim):
        try:
            yield b, mat_inv(ctx, b)
        except ValueError:
            continue


def _per_b_reduced_sum(ctx, dim):
    """The reduced sum as first written, one inverse per nonsingular B:
    q^dim sum_B lambda(a sum_s B_ss (B^-1)_ss); kept as its oracle."""
    total = 0
    for b, b_inv in _nonsingular_symmetric(ctx, dim):
        total += prod(lambda_char(ctx, mul(ctx, ctx.a_param, mul(ctx, b[s][s], b_inv[s][s])))
                      for s in range(dim))
    return ctx.q ** dim * total


def _two_branch_closed(q, r):
    """The closed form as first written, one branch per parity of r; kept as its oracle."""
    odd = prod(q ** (2 * j - 1) - 1 for j in range(1, (r + 1) // 2 + 1))
    if r % 2 == 0:
        e, rem = divmod(r * (r + 6), 4)
        assert not rem
        return q ** e * odd
    e, rem = divmod(r * r + 4 * r - 1, 4)
    assert not rem
    return -(q ** e) * odd


@pytest.mark.parametrize("q,dim", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (16, 2)])
def test_reduced_symmetric_sum_matches_the_per_b_kernel_for_every_a_param(q, dim):
    for ctx in _trace_one_fields(q):
        assert b_r_sum_reduced(ctx, dim) == _per_b_reduced_sum(ctx, dim)


def test_closed_symmetric_sum_matches_the_two_branch_form():
    for r in range(1, 17):
        ctx = make_field(r)
        for dim in range(1, 41):
            assert b_r_sum_closed(ctx, dim) == _two_branch_closed(ctx.q, dim)


@pytest.mark.parametrize("q,dim", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (8, 1), (8, 2)])
def test_diagonal_pairing_of_a_nonsingular_symmetric_matrix_is_its_dimension(q, dim):
    # B = diag(B) + an alternating matrix and B^-1 is symmetric: sum_s B_ss (B^-1)_ss = Tr(B B^-1)
    ctx = make_field(q.bit_length() - 1)
    count = 0
    for b, b_inv in _nonsingular_symmetric(ctx, dim):
        pairing = 0
        for s in range(dim):
            pairing ^= mul(ctx, b[s][s], b_inv[s][s])
        assert pairing == dim % 2
        count += 1
    assert count > 0


def test_reduced_symmetric_sum_refuses_before_its_first_term(monkeypatch):
    def no_terms(ctx, dim):
        raise AssertionError("a term was visited")

    monkeypatch.setattr(ominus_groups, "_symmetric_matrices", no_terms)
    assert ominus_groups.sym_sum_reduced_fits(8, 3) and not ominus_groups.sym_sum_reduced_fits(16, 3)
    with pytest.raises(BudgetError):
        b_r_sum_reduced(make_field(4), 3)
    with pytest.raises(BudgetError):
        b_r_sum_reduced(make_field(1), 24)  # q^(dim (dim + 1)/2) = 2^300
