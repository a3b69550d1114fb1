"""Exact linear algebra kernel: normal forms, kernels, solving.

Oracles used here:
  * sympy's invariant_factors (independent SNF implementation) over Z;
  * brute-force coset/order-statistics enumeration of finite cokernels
    over Z/n (a complete isomorphism invariant for groups of exponent
    dividing n).
"""

import hashlib
import itertools
import json
import pickle
import random
from functools import lru_cache
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from homstab import exactlin, fpmod, resolve
from homstab.errors import DimensionMismatch
from homstab.exactlin import (
    IntMat, SNFResult, ZZ, Zmod, snf, kernel_basis, solve, solve_matrix,
    invariant_divisors,
)
from homstab.fpmod import (
    FPModule, cyclic, free_module, in_span, make_morphism, present_with_iso,
)
from test_resolve import _ext_tor_of_the_whole_power_complex

RINGS = [ZZ, Zmod(2), Zmod(4), Zmod(5), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]


def mats(max_dim=4, max_entry=9, min_dim=0):
    dims = st.integers(min_dim, max_dim)
    entry = st.integers(-max_entry, max_entry)
    return dims.flatmap(lambda m: dims.flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=m, max_size=m).map(IntMat.from_rows)))


def check_snf_contract(a, ring):
    res = snf(a, ring)
    lhs = (res.U @ a @ res.V).mod(ring)
    assert lhs == res.S.mod(ring)
    assert (res.U @ res.Uinv).mod(ring) == IntMat.identity(a.rows).mod(ring)
    assert (res.V @ res.Vinv).mod(ring) == IntMat.identity(a.cols).mod(ring)
    diag = res.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert res.S.entry(i, j) == 0
    for d, e in zip(diag, diag[1:]):
        if d == 0:
            assert e == 0
        else:
            assert e % d == 0
    if ring.modulus is None:
        assert all(d >= 0 for d in diag)
    else:
        assert all(0 <= d < ring.modulus and (d == 0 or ring.modulus % d == 0)
                   for d in diag)
    return res


def test_snf_spec_examples():
    a = IntMat.from_rows([[2, 4], [6, 8]])
    res = check_snf_contract(a, ZZ)
    assert res.diagonal() == [2, 4]

    res = check_snf_contract(IntMat.identity(3), ZZ)
    assert res.S == IntMat.identity(3)

    res = check_snf_contract(IntMat.zeros(2, 3), ZZ)
    assert res.S == IntMat.zeros(2, 3)


def test_snf_zero_dimensions():
    for m, n in [(0, 0), (0, 3), (3, 0)]:
        res = check_snf_contract(IntMat.zeros(m, n), ZZ)
        assert (res.S.rows, res.S.cols) == (m, n)


@settings(max_examples=120, deadline=None)
@given(mats(), st.sampled_from(RINGS))
def test_snf_contract_random(a, ring):
    check_snf_contract(a, ring)


@settings(max_examples=80, deadline=None)
@given(mats(max_dim=4, max_entry=12))
def test_snf_matches_sympy_over_Z(a):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors as sympy_invf
    res = snf(a, ZZ)
    mine = [d for d in res.diagonal() if d]
    if a.rows and a.cols:
        dm = DomainMatrix.from_list([list(r) for r in a.data], sympy.ZZ)
        theirs = [int(x) for x in sympy_invf(dm) if int(x)]
        assert mine == theirs


@settings(max_examples=120, deadline=None)
@given(mats(), st.sampled_from(RINGS))
def test_transpose_same_invariants(a, ring):
    d1 = sorted(d for d in snf(a, ring).diagonal() if d not in (0, 1))
    d2 = sorted(d for d in snf(a.transpose(), ring).diagonal() if d not in (0, 1))
    assert d1 == d2


def brute_force_order_counts(a, n):
    """#elements of order dividing k, for each k | n, in (Z/n)^g / col-span."""
    g = a.rows
    cols = [tuple(a.entry(i, j) % n for i in range(g)) for j in range(a.cols)]
    span = {tuple([0] * g)}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for c in cols:
            y = tuple((xi + ci) % n for xi, ci in zip(x, c))
            if y not in span:
                span.add(y)
                frontier.append(y)
    counts = {}
    for k in [d for d in range(1, n + 1) if n % d == 0]:
        hits = sum(1 for x in itertools.product(range(n), repeat=g)
                   if tuple(k * xi % n for xi in x) in span)
        counts[k] = hits // len(span)
    return counts


def predicted_order_counts(divisors, free, n):
    cyclic = list(divisors) + [n] * free
    return {k: _prod(gcd(k, d) for d in cyclic)
            for k in range(1, n + 1) if n % k == 0}


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


@settings(max_examples=60, deadline=None)
@given(mats(max_dim=2, max_entry=8, min_dim=0), st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
def test_mod_n_invariants_against_brute_force(a, n):
    ring = Zmod(n)
    divisors, free = invariant_divisors(a.mod(ring), ring)
    assert predicted_order_counts(divisors, free, n) == brute_force_order_counts(a, n)


def test_kernel_spec_examples():
    assert kernel_basis(IntMat.from_rows([[2, 4], [6, 8]]), ZZ).cols == 0
    assert kernel_basis(IntMat.zeros(1, 1), ZZ) == IntMat.identity(1)
    k = kernel_basis(IntMat.from_rows([[2]]), Zmod(4))
    assert k.cols == 1
    assert in_span(k, IntMat.column([2]), Zmod(4))
    assert in_span(IntMat.column([2]), k, Zmod(4))


def _kernel_basis_two_pass(a, ring):
    """Reference: reduce every free column of V, cut to A's coordinates, mod
    n, then keep the nonzero ones."""
    res = _reference_lift(a, ring)
    diag = res.diagonal()
    free = [j for j in range(res.V.cols) if j >= len(diag) or diag[j] == 0]
    v = res.V.take_rows(range(a.cols))
    n = ring.modulus
    if n is None:
        return v.take_cols(free)
    rows = [[r[j] % n for j in free] for r in v.data]
    keep = [t for t, col in enumerate(zip(*rows)) if any(col)]
    return IntMat(v.rows, len(keep), tuple(tuple(r[t] for t in keep) for r in rows))


@settings(max_examples=150, deadline=None)
@given(mats(min_dim=0, max_dim=5), st.sampled_from(RINGS), st.booleans())
def test_kernel_basis_matches_two_pass_reference(a, ring, reduce_first):
    # the unreduced lift exercises the Z/n path through [A | n*I] as well
    a = a.mod(ring) if reduce_first else a
    k = kernel_basis(a, ring)
    ref = _kernel_basis_two_pass(a, ring)
    assert (k.rows, k.cols, k.data) == (ref.rows, ref.cols, ref.data)


@settings(max_examples=120, deadline=None)
@given(mats(), st.sampled_from(RINGS))
def test_kernel_columns_annihilate(a, ring):
    k = kernel_basis(a.mod(ring), ring)
    assert (a @ k).mod(ring).is_zero()


@settings(max_examples=100, deadline=None)
@given(mats(max_dim=3, max_entry=6), st.sampled_from(RINGS),
       st.lists(st.integers(-6, 6), min_size=0, max_size=3))
def test_kernel_complete_on_random_vectors(a, ring, probe):
    probe = (probe + [0] * a.cols)[:a.cols]
    x = IntMat.column(probe)
    if (a @ x).mod(ring).is_zero():
        assert in_span(kernel_basis(a.mod(ring), ring), x.mod(ring), ring)


def test_solve_spec_examples():
    assert solve(IntMat.from_rows([[2]]), [4], ZZ) == IntMat.column([2])
    assert solve(IntMat.from_rows([[2]]), [3], ZZ) is None
    assert solve(IntMat.from_rows([[2]]), [3], Zmod(5)) == IntMat.column([4])


@settings(max_examples=120, deadline=None)
@given(mats(max_dim=3, max_entry=6), st.sampled_from(RINGS),
       st.lists(st.integers(-4, 4), min_size=0, max_size=3))
def test_solve_finds_planted_solutions(a, ring, xs):
    xs = (xs + [0] * a.cols)[:a.cols]
    x = IntMat.column(xs)
    b = (a @ x).mod(ring)
    got = solve_matrix(a.mod(ring), b, ring)
    assert got is not None
    assert (a @ got - b).mod(ring).is_zero()
    k = kernel_basis(a.mod(ring), ring)
    if k.cols:
        shifted = got + k.col(0)
        assert ((a @ shifted) - b).mod(ring).is_zero()


@st.composite
def span_systems(draw):
    """(A, B, ring) with A possibly 0 x k, k x 0 or taller than wide; B is
    A.X, A.X with one entry perturbed, or arbitrary, unreduced over Z/n, and
    the entries of A and B may sit near 10^30."""
    ring = draw(st.sampled_from(RINGS))
    m, k, t = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    small = st.integers(-9, 9)
    entry = st.one_of(small, st.just(0), small.map(lambda x: 10**30 + x))

    def matrix(rows, cols, elt):
        data = draw(st.lists(st.lists(elt, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return IntMat(rows, cols, tuple(map(tuple, data)))

    a = matrix(m, k, entry)
    kind = draw(st.sampled_from(["image", "perturbed", "any"]))
    if kind == "any":
        b = matrix(m, t, entry)
    else:
        b = a @ matrix(k, t, small)
        if kind == "perturbed" and m and t:
            rows = [list(r) for r in b.data]
            rows[draw(st.integers(0, m - 1))][draw(st.integers(0, t - 1))] += \
                draw(st.integers(1, 12))
            b = IntMat(m, t, tuple(map(tuple, rows)))
    if ring.modulus is not None:  # an unreduced lift of B
        b = b + matrix(m, t, st.integers(-3, 3)).scale(ring.modulus)
    return a, b, ring


TALL = IntMat.from_rows([[1], [2], [3]])


@settings(max_examples=400, deadline=None)
@given(span_systems())
# no rows; no columns, where only zero (mod n) is in the span; taller than
# wide, where (2, 4, 6) is twice the column and (2, 4, 7) is no multiple;
# a divisor 0 past a unit one
@example((IntMat.zeros(0, 3), IntMat.zeros(0, 2), ZZ))
@example((IntMat.zeros(2, 0), IntMat.from_rows([[0], [4]]), Zmod(4)))
@example((IntMat.zeros(2, 0), IntMat.from_rows([[0], [1]]), Zmod(12)))
@example((TALL, IntMat.column([2, 4, 6 + 9]), Zmod(9)))
@example((TALL, IntMat.column([2, 4, 7]), ZZ))
@example((IntMat.from_rows([[1], [1]]), IntMat.column([1, 0]), ZZ))
def test_in_span_agrees_with_solve_matrix(system):
    a, b, ring = system
    assert in_span(a, b, ring) == (solve_matrix(a, b, ring) is not None)


def test_invariant_divisors_spec_examples():
    assert invariant_divisors(IntMat.from_rows([[2, 0], [0, 3]]), ZZ) == ((6,), 0)
    assert invariant_divisors(IntMat.zeros(1, 1), ZZ) == ((), 1)
    assert invariant_divisors(IntMat.from_rows([[2]]), Zmod(4)) == ((2,), 0)



def naive_matmul(a, b):
    return [[sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]


def sparse_mats(rows, cols):
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**12, 10**12))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda d: IntMat(rows, cols, tuple(map(tuple, d))))


@st.composite
def matmul_pairs(draw):
    m, k, n = (draw(st.integers(0, 7)) for _ in range(3))
    return draw(sparse_mats(m, k)), draw(sparse_mats(k, n))


@settings(max_examples=200, deadline=None)
@given(matmul_pairs())
def test_matmul_matches_naive_row_column_sums(pair):
    a, b = pair
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert [list(r) for r in got.data] == naive_matmul(a, b)


def test_matmul_empty_and_zero_operands():
    for m, k, n in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]:
        got = IntMat.zeros(m, k) @ IntMat.zeros(k, n)
        assert got == IntMat.zeros(m, n)
    a = IntMat.from_rows([[1, -2, 3], [0, 4, 5]])
    assert IntMat.zeros(4, 2) @ a == IntMat.zeros(4, 3)
    assert a @ IntMat.zeros(3, 4) == IntMat.zeros(2, 4)
    with pytest.raises(DimensionMismatch):
        IntMat.zeros(2, 3) @ IntMat.zeros(2, 3)


@st.composite
def empty_shape_systems(draw):
    """(A, B, ring): A is m x k and B is k x n with at least one of m, k, n
    zero, so A @ B, A or B has no entries."""
    ring = draw(st.sampled_from(RINGS))
    dims = [draw(st.integers(0, 4)) for _ in range(3)]
    for i in draw(st.sets(st.integers(0, 2), min_size=1)):
        dims[i] = 0
    m, k, n = dims
    return draw(sparse_mats(m, k)), draw(sparse_mats(k, n)), ring


def _shape(x):
    return x.rows, x.cols, x.data


def _naive_kron(a, b):
    """A (x) B entry by entry, as a (rows, cols, data) triple."""
    rows = [[a.data[i][j] * b.data[k][l] for j in range(a.cols) for l in range(b.cols)]
            for i in range(a.rows) for k in range(b.rows)]
    return a.rows * b.rows, a.cols * b.cols, tuple(map(tuple, rows))


def _entrywise(x, f):
    return x.rows, x.cols, tuple(tuple(map(f, r)) for r in x.data)


@settings(max_examples=300, deadline=None)
@given(empty_shape_systems(), st.integers(-3, 3))
@example((IntMat.zeros(0, 3), IntMat.zeros(3, 2), ZZ), 2)
@example((IntMat.zeros(2, 0), IntMat.zeros(0, 3), Zmod(4)), -1)
@example((IntMat.zeros(3, 2), IntMat.zeros(2, 0), Zmod(12)), 0)
@example((IntMat.zeros(0, 0), IntMat.zeros(0, 0), Zmod(9)), 3)
def test_empty_shape_base_cases_match_general_references(system, c):
    a, b, ring = system
    n = ring.modulus
    prod = a @ b
    ref_prod = (a.rows, b.cols, tuple(map(tuple, naive_matmul(a, b))))
    assert _shape(prod) == ref_prod
    wide = IntMat(*ref_prod)
    assert _shape(a.hstack(wide)) == (a.rows, a.cols + b.cols, tuple(
        ra + rw for ra, rw in zip(a.data, wide.data)))
    assert _shape(wide.hstack(a)) == (a.rows, a.cols + b.cols, tuple(
        rw + ra for ra, rw in zip(a.data, wide.data)))
    for x, y in ((a, b), (b, a), (a, prod), (prod, b)):
        assert _shape(x.kron(y)) == _naive_kron(x, y)
    assert _shape(IntMat.identity(0)) == (0, 0, ())
    for x in (a, b, prod):
        assert _shape(x.scale(c)) == _entrywise(x, lambda v: c * v)
        assert _shape(x.mod(ring)) == (_shape(x) if n is None
                                       else _entrywise(x, lambda v: v % n))
        assert _shape(kernel_basis(x, ring)) == _shape(_reference_kernel(x, ring))
    # A.X = A @ B is solvable; X = B is one solution
    solved = solve_matrix(a, prod, ring)
    assert solved is not None
    assert _shape(solved) == _shape(_reference_solve(a, prod, ring))
    assert in_span(a, prod, ring)
    empty = IntMat(a.rows, 0, ((),) * a.rows)
    assert in_span(a, empty, ring) and in_span(b, IntMat(b.rows, 0, ((),) * b.rows), ring)
    assert _shape(solve_matrix(a, empty, ring)) == _shape(_reference_solve(a, empty, ring))
    # an empty operand with the wrong row count is still refused
    wrong = IntMat(a.rows + 1, 0, ((),) * (a.rows + 1))
    with pytest.raises(DimensionMismatch):
        in_span(a, wrong, ring)
    with pytest.raises(DimensionMismatch):
        solve_matrix(a, wrong, ring)
    with pytest.raises(DimensionMismatch):
        make_morphism(free_module(ring, 0), free_module(ring, a.rows), wrong)


@settings(max_examples=150, deadline=None)
@given(mats(max_dim=6, max_entry=12), st.sampled_from(RINGS))
def test_invariant_divisors_match_snf_diagonal(a, ring):
    a = a.mod(ring)
    diag = snf(a, ring).diagonal()
    expected = (tuple(d for d in diag if d not in (0, 1)),
                a.rows - sum(1 for d in diag if d != 0))
    assert invariant_divisors(a, ring) == expected


# ---------------------------------------------------------------------------
# pin: SNF transforms, kernels and solutions, byte for byte


def _pin_rand(rng, m, n, density, bound):
    data = tuple(tuple(rng.randint(-bound, bound) if rng.random() < density else 0
                       for _ in range(n)) for _ in range(m))
    return IntMat(m, n, data)


def _pin_cases():
    """Seeded sparse (~3-10% nonzero, like the Kronecker-built matrices of
    Hom and tensor) and dense matrices, with a random and a planted
    right-hand side each."""
    rng = random.Random(20261018)
    shapes = [(40, 150, 0.03), (30, 64, 0.05), (24, 24, 0.1), (12, 30, 1.0),
              (9, 9, 1.0), (5, 1, 1.0), (1, 7, 0.5), (0, 4, 1.0), (4, 0, 1.0)]
    for ring in (ZZ, Zmod(8), Zmod(12)):
        for m, n, density in shapes:
            a = _pin_rand(rng, m, n, density, 9).mod(ring)
            b = _pin_rand(rng, m, 3, 1.0, 3).mod(ring)
            planted = (a @ _pin_rand(rng, n, 3, 0.5, 3)).mod(ring)
            yield ring, a, b, planted


def _pin_payload():
    def mat(x):
        return None if x is None else [x.rows, x.cols, [list(r) for r in x.data]]

    out = []
    for ring, a, b, planted in _pin_cases():
        res = snf(a, ring)
        out.append([str(ring), [mat(x) for x in (res.U, res.Uinv, res.S, res.V, res.Vinv)],
                    mat(kernel_basis(a, ring)), mat(solve_matrix(a, b, ring)),
                    mat(solve_matrix(a, planted, ring))])
    return json.dumps(out)


SNF_PIN_SHA256 = "4d2ec57810e50b3229c73c2ac8e9e0a5a8dcb6237abc2a7917fe84f81d960f00"


def test_snf_transforms_pinned():
    digest = hashlib.sha256(_pin_payload().encode()).hexdigest()
    assert digest == SNF_PIN_SHA256


# ---------------------------------------------------------------------------
# the cached-scan elimination against the rescanning one it replaced


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _axpy(x, c, y):
    """x += c * y in place over dense lists, touching only the nonzero
    entries of y."""
    for k in itertools.compress(range(len(y)), y):
        x[k] += c * y[k]


def _rescanning_snf_integer(a):
    """The elimination before per-row caching, kept as the oracle: every
    pivot step rescans every row from column t, and every divisibility test
    takes the gcd of each later row's tail.  It works on dense lists.  Same
    return as _snf_integer, densified."""
    m, n = a.rows, a.cols
    S = [list(r) for r in a.data]
    U, UiT = _identity_rows(m), _identity_rows(m)
    VT, Vi = _identity_rows(n), _identity_rows(n)
    axpy = _axpy

    def row_add(i, j, c):
        axpy(S[i], c, S[j])
        axpy(U[i], c, U[j])
        axpy(UiT[j], -c, UiT[i])

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        UiT[i], UiT[j] = UiT[j], UiT[i]

    def row_neg(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        UiT[i] = [-x for x in UiT[i]]

    def col_add(j, i, c, rows):
        for r in rows:
            S[r][j] += c * S[r][i]
        axpy(VT[j], c, VT[i])
        axpy(Vi[i], -c, Vi[j])

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        VT[i], VT[j] = VT[j], VT[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    t = 0
    while t < min(m, n):
        best, pi = 0, None
        for i in range(t, m):
            v = min(map(abs, filter(None, S[i][t:])), default=0)
            if v and (not best or v < best):
                best, pi = v, i
                if v == 1:
                    break
        if pi is None:
            break
        pj = t + list(map(abs, S[pi][t:])).index(best)
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        d = S[t][t]
        dirty = False
        for i in [i for i in range(t + 1, m) if S[i][t]]:
            row_add(i, t, -(S[i][t] // d))
            if S[i][t]:
                dirty = True
        rows = [r for r in range(m) if S[r][t]]
        for j in list(itertools.compress(range(t + 1, n), S[t][t + 1:])):
            col_add(j, t, -(S[t][j] // d), rows)
            if S[t][j]:
                dirty = True
        if dirty:
            continue
        if d < 0:
            row_neg(t)
            d = -d
        if d != 1:
            stuck = next((i for i in range(t + 1, m) if gcd(*S[i][t + 1:]) % d), None)
            if stuck is not None:
                row_add(t, stuck, 1)
                continue
        t += 1
    return U, UiT, S, VT, Vi


def _densify(rows, width):
    """{column: nonzero} rows as dense lists of ``width`` entries."""
    out = [[0] * width for _ in rows]
    for dense, row in zip(out, rows):
        for k, x in row.items():
            dense[k] = x
    return out


def _assert_same_elimination(a):
    """Every transform byte-identical to the rescanning oracle's, and the
    partial modes agree on what they track.  _snf_integer keeps its rows
    sparse: they store nonzero entries only and are densified here."""
    widths = (a.rows, a.rows, a.cols, a.cols, a.cols)
    sparse = exactlin._snf_integer(a)
    assert all(x for rows in sparse for row in rows for x in row.values())
    U, UiT, S, VT, Vi = (_densify(rows, w) for rows, w in zip(sparse, widths))
    assert (U, UiT, S, VT, Vi) == _rescanning_snf_integer(a)
    partial = exactlin._snf_integer(a, v=False)[:3]
    assert tuple(_densify(rows, w) for rows, w in zip(partial, widths)) == (U, UiT, S)
    assert _densify(exactlin._snf_integer(a, u=False, v=False)[2], a.cols) == S


def _kronecker_systems():
    """Every matrix _snf_integer reduces while Hom, Ext^1 and Tor_1 are
    computed, cold, for two sums of eight cyclic modules (two of them free)
    over Z, Z/8 and Z/12: the largest systems of perfbench's large-modules,
    and Ext^1 and Tor_1 again as the homology of complexes of powers of all
    of the second module, whose systems are the largest these reach."""
    seen = {}
    real = exactlin._snf_integer

    def recording(a, *args, **kwargs):
        seen.setdefault(a, None)
        return real(a, *args, **kwargs)

    profiles = [(None, [0, 0, 2, 4, 6, 8, 8, 8], [0, 0, 4, 4, 6, 6, 10, 12]),
                (8, [8, 8, 2, 2, 4, 4, 4, 4], [8, 8, 2, 2, 4, 4, 4, 4]),
                (12, [12, 12, 2, 4, 4, 4, 4, 4], [12, 12, 2, 2, 2, 4, 4, 6])]
    caches = [f for mod in (exactlin, fpmod, resolve) for f in vars(mod).values()
              if hasattr(f, "cache_clear")]
    with mock.patch.object(exactlin, "_snf_integer", recording):
        for n, da, db in profiles:
            for cache in caches:
                cache.cache_clear()
            ring = ZZ if n is None else Zmod(n)
            ma, mb = (fpmod.make_module(ring, IntMat.diag(d)) for d in (da, db))
            fpmod.hom_module(ma, mb)
            resolve.ext(ma, mb, 1)
            resolve.tor(ma, mb, 1)
            _ext_tor_of_the_whole_power_complex(ma, mb, 1)
    return list(seen)


def test_cached_scans_match_rescanning_on_kronecker_systems():
    systems = _kronecker_systems()
    shapes = {(a.rows, a.cols) for a in systems}
    # past the pinned 40 x 150: up to 96 x 180 and 64 x 212 here
    assert max(r * c for r, c in shapes) >= 96 * 180
    for a in systems:
        _assert_same_elimination(a)


@st.composite
def sparse_systems(draw):
    """Mostly-zero matrices up to 14 x 24, some with wide entries."""
    m, n = draw(st.integers(0, 14)), draw(st.integers(0, 24))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-12, 12),
                      st.integers(-10**6, 10**6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return IntMat(m, n, tuple(map(tuple, rows)))


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_cached_scans_match_rescanning_on_sparse_matrices(a):
    _assert_same_elimination(a)


FIELDS = ("U", "Uinv", "S", "V", "Vinv")


@settings(max_examples=150, deadline=None)
@given(st.one_of(mats(), sparse_systems()), st.sampled_from(RINGS),
       st.permutations(range(5)))
@example(IntMat.zeros(0, 3), Zmod(4), [0, 1, 2, 3, 4])
@example(IntMat.zeros(3, 0), ZZ, [4, 3, 2, 1, 0])
@example(IntMat.zeros(0, 0), Zmod(12), [2, 0, 4, 1, 3])
def test_snf_result_built_on_read_equals_its_materialized_fields(a, ring, order):
    # snf builds each matrix when it is first read, in any order; the result
    # is the eager record of the same five matrices in value, hash and repr
    res = snf(a, ring)
    first = [getattr(res, FIELDS[i]) for i in order]
    assert all(getattr(res, FIELDS[i]) is m for i, m in zip(order, first))
    eager = SNFResult(*(getattr(res, f) for f in FIELDS))
    for got in (res, snf(a, ring)):
        assert got == eager and eager == got
        assert hash(got) == hash(eager) and repr(got) == repr(eager)
    assert res.diagonal() == eager.diagonal()
    again = pickle.loads(pickle.dumps(snf(a, ring)))
    assert type(again) is SNFResult
    assert again == eager and hash(again) == hash(eager) and repr(again) == repr(eager)


@settings(max_examples=120, deadline=None)
@given(st.one_of(mats(max_dim=5), sparse_systems()), st.sampled_from(RINGS))
def test_present_with_iso_reduces_like_full_snf(a, ring):
    module, fwd, bwd = present_with_iso(ring, a.rows, a)
    # what present_with_iso read of the full SNF before it skipped V
    res = snf(a, ring)
    diag = res.diagonal()
    keep = [i for i in range(a.rows) if i >= len(diag) or diag[i] != 1]
    torsion = [(pos, diag[i]) for pos, i in enumerate(keep)
               if i < len(diag) and diag[i] not in (0, 1)]
    rel = [[0] * len(torsion) for _ in keep]
    for c, (pos, d) in enumerate(torsion):
        rel[pos][c] = d
    assert module == FPModule(ring, len(keep),
                              IntMat(len(keep), len(torsion), tuple(map(tuple, rel))))
    assert fwd == res.U.take_rows(keep)
    assert bwd == res.Uinv.take_cols(keep)


# ---------------------------------------------------------------------------
# the SNF cache: one entry per (A, ring), holding what kernel and solve read


def _reference_lift(a, ring):
    """The SNF of [A mod n | n*I] over Z/n (A itself over Z), computed in
    full: the oracle for what the cache keeps."""
    n = ring.modulus
    lifted = a if n is None else a.mod(ring).hstack(
        IntMat.diag([n] * a.rows, rows=a.rows, cols=a.rows))
    return snf(lifted, ZZ)


def _reference_kernel(a, ring):
    res = _reference_lift(a, ring)
    diag = res.diagonal()
    k = res.V.take_cols([j for j in range(res.V.cols) if j >= len(diag) or diag[j] == 0])
    if ring.modulus is None:
        return k
    proj = IntMat(a.cols, k.cols, k.data[:a.cols]).mod(ring)
    return proj.take_cols([j for j, col in enumerate(zip(*proj.data)) if any(col)])


def _reference_solve(a, b, ring):
    res = _reference_lift(a, ring)
    c = res.U @ b.mod(ring)
    diag = res.diagonal()
    y = [(0,) * b.cols] * res.V.cols
    for i, row in enumerate(c.data):
        d = diag[i] if i < len(diag) else 0
        if any(x % d if d else x for x in row):
            return None
        if d:
            y[i] = tuple(x // d for x in row)
    x = res.V @ IntMat(res.V.cols, b.cols, tuple(y))
    return IntMat(a.cols, b.cols, x.data[:a.cols]).mod(ring)


def _counted_snf():
    calls = []
    real = exactlin.snf

    def counting(a, ring):
        calls.append(a)
        return real(a, ring)
    return calls, mock.patch.object(exactlin, "snf", counting)


@st.composite
def systems(draw):
    """(A reduced over the ring, B, ring), A possibly 0 x k or k x 0."""
    ring = draw(st.sampled_from(RINGS))
    a = draw(st.one_of(mats(), st.integers(0, 3).map(lambda k: IntMat.zeros(0, k)),
                       st.integers(0, 3).map(lambda k: IntMat.zeros(k, 0))))
    t = draw(st.integers(0, 2))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=t, max_size=t),
                         min_size=a.rows, max_size=a.rows))
    return a.mod(ring), IntMat(a.rows, t, tuple(map(tuple, rows))), ring


@settings(max_examples=150, deadline=None)
@given(systems())
def test_one_cache_entry_per_matrix_and_ring(system):
    a, b, ring = system
    exactlin._snf_cached.cache_clear()
    calls, patch = _counted_snf()
    with patch:
        cold = kernel_basis(a, ring), solve_matrix(a, b, ring)
        info = exactlin._snf_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        warm = kernel_basis(a, ring), solve_matrix(a, b, ring)
    assert len(calls) <= 1
    assert cold == warm == (_reference_kernel(a, ring), _reference_solve(a, b, ring))


def _cold_cells(fn):
    """IntMat cells allocated by fn() with every cache of exactlin, fpmod
    and resolve cleared first."""
    for mod in (exactlin, fpmod, resolve):
        for f in vars(mod).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    cells = [0]
    real = IntMat.__init__

    def counting(self, rows, cols, *args, **kwargs):
        real(self, rows, cols, *args, **kwargs)
        cells[0] += rows * cols
    with mock.patch.object(IntMat, "__init__", counting):
        fn()
    return cells[0]


def test_large_systems_build_only_the_transforms_they_read():
    # two sums of eight cyclic modules over Z/8: Hom, Ext^1 and Tor_1 reduce
    # Kronecker systems that are almost all zeros.  Building every SNF
    # transform, and every row of V, allocated 398,360, 868,864 and 528,476
    # cells; reading only what is used allocates about half.  Ext^1 and
    # Tor_1 taken one cyclic summand of the second module at a time allocate
    # 18,251 and 19,413 cells, against 174,225 and 201,513 for complexes of
    # powers of the whole module
    ring = Zmod(8)
    ma = fpmod.make_module(ring, IntMat.diag([8, 8, 2, 4, 4, 2, 4, 2]))
    mb = fpmod.make_module(ring, IntMat.diag([8, 8, 4, 2, 2, 4, 2, 4]))
    assert _cold_cells(lambda: fpmod.hom_module(ma, mb)) < 300_000
    assert _cold_cells(lambda: resolve.ext(ma, mb, 1)) < 40_000
    assert _cold_cells(lambda: resolve.tor(ma, mb, 1)) < 40_000
    # a cold kernel_basis reads U, the diagonal and V's rows over A's
    # columns, which it builds from V^T's rows: no other SNF matrix is built
    results = []
    real = exactlin.snf

    def keeping(a, r):
        results.append(real(a, r))
        return results[-1]
    a = ma.rel.kron(IntMat.identity(8)).hstack(IntMat.identity(8).kron(mb.rel))
    exactlin._snf_cached.cache_clear()
    with mock.patch.object(exactlin, "snf", keeping):
        k = kernel_basis(a, ring)
    assert len(results) == 1 and k == _reference_kernel(a, ring)
    built = [mat is not None for mat in results[0]._mats]
    assert built == [True, False, False, False, False]  # U only


@settings(max_examples=60, deadline=None)
@given(mats(min_dim=1), st.sampled_from([r for r in RINGS if r.modulus]))
def test_unreduced_matrix_shares_the_reduced_entry(a, ring):
    lifted = IntMat(a.rows, a.cols, tuple(tuple(x + ring.modulus for x in r)
                                          for r in a.data))
    exactlin._snf_cached.cache_clear()
    kernel_basis(a.mod(ring), ring)
    calls, patch = _counted_snf()
    with patch:
        assert kernel_basis(lifted, ring) == kernel_basis(a.mod(ring), ring)
    assert calls == []


# ---------------------------------------------------------------------------
# IntMat: value semantics, one construction path, shapes at the public edge


def test_intmat_value_semantics():
    a = IntMat.from_rows([[1, -2, 0], [3, 4, 5]])
    twins = [IntMat(2, 3, ((1, -2, 0), (3, 4, 5))), a.transpose().transpose(),
             a @ IntMat.identity(3), a.take_cols(range(3))]
    assert all(t == a and hash(t) == hash(a) and t is not a for t in twins)
    assert IntMat.zeros(0, 2) != IntMat.zeros(0, 3)
    assert IntMat.zeros(2, 0) != IntMat.zeros(0, 2)
    assert a != a.data and a != IntMat.from_rows([[1, -2, 0], [3, 4, 6]])
    table = {a: "a"}
    assert [table[t] for t in twins] == ["a"] * 4

    @lru_cache(maxsize=None)
    def cached(m):
        return object()

    first = cached(a)
    assert all(cached(t) is first for t in twins)
    assert cached.cache_info().misses == 1
    assert repr(a) == "IntMat(rows=2, cols=3, data=((1, -2, 0), (3, 4, 5)))"
    again = pickle.loads(pickle.dumps(a))
    assert again == a and hash(again) == hash(a)


def test_every_intmat_is_built_by_init(monkeypatch):
    seen = set()
    real = IntMat.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        seen.add(id(self))

    monkeypatch.setattr(IntMat, "__init__", recording)
    exactlin._snf_cached.cache_clear()
    a = IntMat.from_rows([[1, 2], [3, 4], [5, 6]])
    b = IntMat.from_rows([[7, 8, 9], [1, 0, 2]])
    res = snf(a, Zmod(12))
    results = [
        IntMat.zeros(2, 3), IntMat.identity(3), IntMat.diag([2, 3]),
        IntMat.diag([2], rows=3, cols=2), IntMat.column([1, 2]), a @ b,
        a.transpose(), a.hstack(a), a.vstack(b.transpose()), a.take_rows([2, 0]),
        a.take_cols([1]), a.mod(Zmod(4)), a.kron(b), IntMat.block_diag([a, b]),
        a + a, a - a, a.scale(3), a.col(1), pickle.loads(pickle.dumps(a)),
        a.negate(Zmod(4)), a.negate(ZZ), res.U, res.Uinv, res.S, res.V, res.Vinv,
        kernel_basis(b, ZZ), kernel_basis(b, Zmod(4)),
        solve_matrix(a, a @ IntMat.column([1, -1]), ZZ),
        solve_matrix(a, IntMat.column([2, 0, 2]), Zmod(4)),
    ]
    assert all(id(r) in seen for r in results)


def test_public_edge_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        IntMat.from_rows([[1, 2], [3]])
    z2, z4 = cyclic(ZZ, 2), cyclic(ZZ, 4)
    with pytest.raises(DimensionMismatch):
        make_morphism(z2, z4, IntMat.zeros(2, 1))
    with pytest.raises(DimensionMismatch):
        make_morphism(z2, free_module(ZZ, 2), [[2, 0]])
    for op, (m, n) in ((IntMat.__add__, (3, 2)), (IntMat.__matmul__, (2, 3)),
                       (IntMat.hstack, (3, 2)), (IntMat.vstack, (3, 2))):
        with pytest.raises(DimensionMismatch):
            op(IntMat.zeros(2, 3), IntMat.zeros(m, n))
    with pytest.raises(DimensionMismatch):
        in_span(IntMat.zeros(2, 1), IntMat.zeros(3, 1), ZZ)


# ---------------------------------------------------------------------------
# tracking only the transforms a caller reads


TRACKED = ("u", "uinv", "v", "vinv")


class _PivotLog(list):
    """The pivots of one elimination; more than ``limit`` of them fail the
    test instead of hanging it, as an elimination that stops progressing
    would."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def append(self, pivot):
        assert len(self) < self.limit, "the elimination does not terminate"
        super().append(pivot)


@settings(max_examples=100, deadline=None)
@given(st.one_of(mats(), sparse_systems()))
def test_every_tracked_subset_eliminates_like_the_rescanning_oracle(a):
    # the flags change what is recorded, never the elimination: for each of
    # the 16 subsets, S and every tracked row list equal the oracle's, an
    # untracked one is None, and the pivots are those of the run that
    # tracks all four (whose rows equal the oracle's too)
    widths = (a.rows, a.rows, a.cols, a.cols, a.cols)
    oracle = _rescanning_snf_integer(a)
    limit = 50 * (a.rows + a.cols + 1)
    full = _PivotLog(limit)
    exactlin._snf_integer(a, pivots=full)
    for flags in itertools.product((False, True), repeat=4):
        track = dict(zip(TRACKED, flags))
        pivots = _PivotLog(limit)
        U, UiT, S, VT, Vi = exactlin._snf_integer(a, pivots=pivots, **track)
        assert pivots == full
        assert _densify(S, a.cols) == oracle[2]
        for pos, rows, on in zip((0, 1, 3, 4), (U, UiT, VT, Vi), flags):
            assert (rows is None) == (not on)
            if on:
                assert _densify(rows, widths[pos]) == oracle[pos]


@settings(max_examples=120, deadline=None)
@given(st.one_of(mats(), sparse_systems()), st.sampled_from(RINGS), st.booleans())
def test_lazy_inverses_equal_the_eager_ones(a, ring, vinv_first):
    # snf tracks U and V only; the first read of Uinv or Vinv eliminates
    # once more with both tracked, and gives the matrices of one elimination
    # that tracks all four
    res = snf(a, ring)
    rows = res._src[2]
    assert rows[1] is None and rows[4] is None
    calls, real = [], exactlin._snf_integer

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)
    with mock.patch.object(exactlin, "_snf_integer", counting):
        for name in ("Vinv", "Uinv") if vinv_first else ("Uinv", "Vinv"):
            getattr(res, name)
    assert len(calls) == 1
    U, UiT, S, VT, Vi, _ = exactlin._snf_rows(a, ring)
    m, k, n = a.rows, a.cols, ring.modulus
    assert res.Uinv == exactlin._from_dicts_t(UiT, m, m, n)
    assert res.Vinv == exactlin._from_dicts(Vi, k, k, n)
    assert (res.U, res.V) == (exactlin._from_dicts(U, m, m, n),
                              exactlin._from_dicts_t(VT, k, k, n))
    assert (res.U @ res.Uinv).mod(ring) == IntMat.identity(m).mod(ring)
    assert (res.V @ res.Vinv).mod(ring) == IntMat.identity(k).mod(ring)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_warm_kernel_basis_builds_no_matrix(system):
    a, _, ring = system
    exactlin._snf_cached.cache_clear()
    cold = kernel_basis(a, ring)
    built = []
    real = IntMat.__init__

    def counting(self, rows, cols, *args, **kwargs):
        built.append((rows, cols))
        real(self, rows, cols, *args, **kwargs)
    with mock.patch.object(IntMat, "__init__", counting):
        warm = kernel_basis(a, ring)
    assert built == [] and warm is cold
    assert cold == _reference_kernel(a, ring)
