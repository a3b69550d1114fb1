"""IntMat stored as its nonzero rows, against the dense implementation.

The reference below is the dense, row-major IntMat that the nonzero-row one
replaced, kept op for op over (rows, cols, data) triples.  Every op must give
the reference's entries and leave its result in canonical form: each row's
(column, value) pairs in ascending column order, with no zero stored.  Value
semantics rest on that form, so a matrix whose entries cancel must equal and
hash like the zero matrix of its shape.  The pins fix ``repr`` and the pickle
bytes, which a dense matrix wrote and which reports and caches rely on.
"""

import pickle
from unittest import mock

from hypothesis import given, settings, strategies as st

from homstab import exactlin
from homstab.exactlin import IntMat, ZZ, Zmod, invariant_divisors

RINGS = [ZZ, Zmod(2), Zmod(4), Zmod(12), Zmod(10**30 + 7)]
BIG = 10**30


# ---------------------------------------------------------------------------
# the dense reference, over (rows, cols, data) triples


def d_zeros(m, n):
    return m, n, ((0,) * n,) * m


def d_identity(n):
    return n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def d_diag(entries, rows=None, cols=None):
    entries = list(entries)
    m = rows if rows is not None else len(entries)
    n = cols if cols is not None else len(entries)
    out = [[0] * n for _ in range(m)]
    for i in range(min(m, n, len(entries))):
        out[i][i] = entries[i]
    return m, n, tuple(map(tuple, out))


def d_column(entries):
    return len(entries), 1, tuple((x,) for x in entries)


def d_add(a, b):
    return a[0], a[1], tuple(tuple(x + y for x, y in zip(ra, rb))
                             for ra, rb in zip(a[2], b[2]))


def d_scale(a, c):
    return a[0], a[1], tuple(tuple(c * x for x in r) for r in a[2])


def d_mod(a, ring):
    n = ring.modulus
    if n is None:
        return a
    return a[0], a[1], tuple(tuple(x % n for x in r) for r in a[2])


def d_negate(a, ring):
    return d_mod(d_scale(a, -1), ring)


def d_matmul(a, b):
    return a[0], b[1], tuple(tuple(sum(a[2][i][k] * b[2][k][j] for k in range(a[1]))
                                   for j in range(b[1])) for i in range(a[0]))


def d_transpose(a):
    return a[1], a[0], tuple(tuple(a[2][i][j] for i in range(a[0])) for j in range(a[1]))


def d_hstack(a, b):
    return a[0], a[1] + b[1], tuple(ra + rb for ra, rb in zip(a[2], b[2]))


def d_vstack(a, b):
    return a[0] + b[0], a[1], a[2] + b[2]


def d_block_diag(blocks):
    m, n = sum(b[0] for b in blocks), sum(b[1] for b in blocks)
    out = [[0] * n for _ in range(m)]
    i0 = j0 = 0
    for b in blocks:
        for i in range(b[0]):
            out[i0 + i][j0:j0 + b[1]] = list(b[2][i])
        i0 += b[0]
        j0 += b[1]
    return m, n, tuple(map(tuple, out))


def d_kron(a, b):
    return a[0] * b[0], a[1] * b[1], tuple(
        tuple(a[2][i][j] * b[2][k][l] for j in range(a[1]) for l in range(b[1]))
        for i in range(a[0]) for k in range(b[0]))


def d_take_rows(a, idx):
    return len(idx), a[1], tuple(a[2][i] for i in idx)


def d_take_cols(a, idx):
    return a[0], len(idx), tuple(tuple(r[j] for j in idx) for r in a[2])


# ---------------------------------------------------------------------------
# strategies and checks


ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                  st.integers(-9, 9).map(lambda x: BIG + x),
                  st.integers(-9, 9).map(lambda x: -BIG + x))


def dense(m, n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m).map(
        lambda d: (m, n, tuple(map(tuple, d))))


DIM = st.integers(0, 4)


def matrix(m=DIM, n=DIM):
    """(IntMat, its dense triple); shapes include 0 x k and k x 0."""
    return st.tuples(m, n).flatmap(lambda s: dense(*s)).map(lambda t: (IntMat(*t), t))


def check(x, ref):
    """x has the reference's shape and entries, and is in canonical form."""
    assert isinstance(x, IntMat)
    assert (x.rows, x.cols, x.data) == ref
    assert len(x.nz) == x.rows
    for row in x.nz:
        assert isinstance(row, tuple)
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < x.cols for j in cols)
        assert all(v != 0 for _, v in row)
    # canonical: equal to, and hashed like, the matrix built from dense data
    twin = IntMat(*ref)
    assert x == twin and hash(x) == hash(twin)


@settings(max_examples=200, deadline=None)
@given(matrix(), st.sampled_from(RINGS), st.integers(-3, 3), st.data())
def test_unary_ops_match_the_dense_reference(a, ring, c, data):
    a, ra = a
    m, n = a.rows, a.cols
    check(a, ra)
    check(a.transpose(), d_transpose(ra))
    check(a.mod(ring), d_mod(ra, ring))
    check(a.negate(ring), d_negate(ra, ring))
    check(a.scale(c), d_scale(ra, c))
    check(a + a, d_add(ra, ra))
    check(a - a, d_zeros(m, n))
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=5)) if m else []
    cols = data.draw(st.lists(st.integers(0, n - 1), max_size=5)) if n else []
    check(a.take_rows(rows), d_take_rows(ra, rows))
    check(a.take_cols(cols), d_take_cols(ra, cols))
    for j in cols:
        check(a.col(j), d_take_cols(ra, [j]))
        assert a.col_list(j) == [r[j] for r in ra[2]]
        assert [a.entry(i, j) for i in range(m)] == [r[j] for r in ra[2]]
    assert a.is_zero() == (not any(map(any, ra[2])))
    assert str(a) == "[" + "; ".join(" ".join(map(str, r)) for r in ra[2]) + "]"


@st.composite
def pairs(draw):
    """Two matrices whose shapes fit each binary op, with one dimension of
    each free and possibly zero."""
    m, k, n = draw(DIM), draw(DIM), draw(DIM)
    return draw(matrix(st.just(m), st.just(k))), draw(matrix(st.just(k), st.just(n)))


@settings(max_examples=200, deadline=None)
@given(pairs(), matrix(), st.sampled_from(RINGS))
def test_binary_ops_match_the_dense_reference(pair, c, ring):
    (a, ra), (b, rb) = pair
    c, rc = c
    check(a @ b, d_matmul(ra, rb))
    check((a @ b).mod(ring), d_mod(d_matmul(ra, rb), ring))
    check(a.kron(b), d_kron(ra, rb))
    check(a.kron(c), d_kron(ra, rc))
    check(IntMat.block_diag([a, b, c]), d_block_diag([ra, rb, rc]))
    check(IntMat.block_diag([]), d_zeros(0, 0))
    ab = a @ b
    check(a.hstack(ab), d_hstack(ra, d_matmul(ra, rb)))
    check(ab.hstack(a), d_hstack(d_matmul(ra, rb), ra))
    check(a.vstack(b.transpose()), d_vstack(ra, d_transpose(rb)))
    check(ab + ab.negate(ring), d_add(d_matmul(ra, rb), d_negate(d_matmul(ra, rb), ring)))
    check((ab + ab.negate(ring)).mod(ring), d_zeros(ab.rows, ab.cols))


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTRY, max_size=5), DIM, DIM, st.integers(0, 5))
def test_constructors_match_the_dense_reference(entries, m, n, k):
    check(IntMat.zeros(m, n), d_zeros(m, n))
    check(IntMat.identity(k), d_identity(k))
    check(IntMat.diag(entries), d_diag(entries))
    check(IntMat.diag(entries, rows=m, cols=n), d_diag(entries, m, n))
    check(IntMat.column(entries), d_column(entries))
    check(IntMat.from_rows([entries] * m),
          (m, len(entries) if m else 0, (tuple(entries),) * m))


@settings(max_examples=100, deadline=None)
@given(matrix(), st.sampled_from([r for r in RINGS if r.modulus]))
def test_cancelled_entries_are_not_stored(a, ring):
    # every op drops what cancels, so value semantics hold: a - a, a + (-a),
    # n * a mod n and dense data with explicit zeros are all the zero matrix
    a, _ = a
    zero = IntMat.zeros(a.rows, a.cols)
    n = ring.modulus
    for z in (a - a, a + a.scale(-1), a.scale(n).mod(ring), (a + a.negate(ring)).mod(ring),
              IntMat(a.rows, a.cols, ((0,) * a.cols,) * a.rows)):
        assert z == zero and hash(z) == hash(zero) and z.is_zero()
        assert z.nz == ((),) * a.rows
    assert {zero: 1}[a - a] == 1


# ---------------------------------------------------------------------------
# pins: repr and pickle bytes as the dense matrix wrote them


PINNED = [
    (IntMat.zeros(2, 3),
     "IntMat(rows=2, cols=3, data=((0, 0, 0), (0, 0, 0)))",
     "80049533000000000000008c10686f6d737461622e65786163746c696e948c06496e744d6174"
     "9493944b024b034b004b004b00879468038694879452942e"),
    (IntMat.identity(0),
     "IntMat(rows=0, cols=0, data=())",
     "80049528000000000000008c10686f6d737461622e65786163746c696e948c06496e744d6174"
     "9493944b004b0029879452942e"),
    (IntMat.zeros(3, 0),
     "IntMat(rows=3, cols=0, data=((), (), ()))",
     "8004952c000000000000008c10686f6d737461622e65786163746c696e948c06496e744d6174"
     "9493944b034b002929298794879452942e"),
    (IntMat.from_rows([[-3, 0, 10**30], [0, 0, 0], [7, -10**30, 1]]),
     "IntMat(rows=3, cols=3, data=((-3, 0, 1000000000000000000000000000000), "
     "(0, 0, 0), (7, -1000000000000000000000000000000, 1)))",
     "8004955e000000000000008c10686f6d737461622e65786163746c696e948c06496e744d6174"
     "9493944b034b034afdffffff4b008a0d00000040eaed7446d09c2c9f0c87944b004b004b0087"
     "944b078a0d000000c015128bb92f63d360f34b0187948794879452942e"),
    (IntMat.identity(2),
     "IntMat(rows=2, cols=2, data=((1, 0), (0, 1)))",
     "80049535000000000000008c10686f6d737461622e65786163746c696e948c06496e744d6174"
     "9493944b024b024b014b0086944b004b0186948694879452942e"),
    (IntMat.diag([2, 0, 5], rows=4, cols=3),
     "IntMat(rows=4, cols=3, data=((2, 0, 0), (0, 0, 0), (0, 0, 5), (0, 0, 0)))",
     "80049544000000000000008c10686f6d737461622e65786163746c696e948c06496e744d6174"
     "9493944b044b03284b024b004b0087944b004b004b0087944b004b004b05879468047494879452942e"),
]


def test_repr_and_pickle_bytes_pinned():
    for mat, text, pickled in PINNED:
        assert repr(mat) == text
        assert pickle.dumps(mat, protocol=4).hex() == pickled
        again = pickle.loads(bytes.fromhex(pickled))
        assert again == mat and hash(again) == hash(mat) and again.nz == mat.nz


# ---------------------------------------------------------------------------
# invariant_divisors reads no unit


def test_invariant_divisors_runs_no_unit_search():
    # no transform is tracked, so the associate unit of each divisor is never
    # read: the diagonal is gcd(d, n) mod n directly
    a = IntMat.from_rows([[4, 6, 0], [10, 0, 9], [0, 8, 3]])
    with mock.patch.object(exactlin, "_associate_unit",
                           side_effect=AssertionError("unit search")):
        got = [invariant_divisors(a, Zmod(n)) for n in (4, 8, 12, 36)]
    assert got == [invariant_divisors(a.mod(Zmod(n)), Zmod(n)) for n in (4, 8, 12, 36)]
    diags = [exactlin.snf(a, Zmod(n)).diagonal() for n in (4, 8, 12, 36)]
    assert got == [(tuple(d for d in diag if d not in (0, 1)),
                    3 - sum(1 for d in diag if d)) for diag in diags]
