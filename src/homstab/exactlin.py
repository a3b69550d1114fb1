"""Exact matrix algebra over Z and Z/n.

Everything downstream (presentations, morphisms, resolutions, functor
evaluation, verdicts) reduces to five primitives implemented here:

* ``snf``             -- Smith normal form with invertible transforms,
* ``kernel_basis``    -- generators of { x : A.x = 0 } over the base ring,
* ``solve_matrix``    -- particular solutions of A.X = B,
* ``in_span``         -- image membership: is A.X = B solvable?  Decided
                         without building X,
* ``invariant_divisors`` -- classification data of a cokernel.

Arithmetic is exact throughout: entries are Python integers, never floats.
Z/n is handled by lifting to Z.  For kernels and solving, the lift appends
n*I relation columns so multiples of n are available; for the normal form
itself, the integer SNF of the lifted matrix is normalized entrywise to
gcd(d, n) by a unit row scaling (every element of Z/n is an associate of
gcd(d, n), and the chain d_1 | d_2 | ... survives the gcd).  Membership
needs no n*I columns: with S = U.(A mod n).V over Z, A.X = B is solvable
mod n iff each row i of U.B is divisible by gcd(S[i][i], n).

Matrices are immutable by convention; rows and columns may be zero (a
0 x k or k x 0 matrix is a legal zero map).  Shapes are validated at the
public edge only: ``IntMat.from_rows``, JSON parsing, ``FPModule`` and
``make_morphism`` reject bad shapes, and the ops that combine two matrices
check that they fit; the constructor itself trusts its arguments, and a
matrix hashes its entries once.

A matrix with no rows or no columns has no entries, so what the primitives
return for it is fixed by its shape, and they return that directly after
their shape checks: a product with an empty operand is the rows x n zero
matrix; ``mod`` and ``scale`` return an empty matrix unchanged, and
``hstack`` with a side of no columns returns the other side; an empty B
lies in every span, and its particular solution is the a.cols x b.cols
zero matrix; and the kernel of a 0-row A is the identity the SNF cache
keeps for it.  Each value is the one the general path computes, and no
check is skipped: the shape checks still run, ``solve_matrix`` and
``kernel_basis`` still go through the SNF cache, and ``make_morphism``
still tests every morphism with ``in_span``.  The paper's sequences are
mostly zero modules, so most matrices built downstream have this shape.

Kernels and solutions over a matrix A are read from one cache keyed by
(A, ring).  An entry keeps only what they read of the SNF of A's lift:
U, the diagonal, the width of the lift and the rows of V over A's columns.
A warm ``kernel_basis`` or ``solve_matrix`` is one lookup plus its products.
Membership has a smaller cache of its own, also keyed by (A, ring): the
rows of U whose divisor is not 1, with their divisors, from an SNF of A
(of A mod n, not its lift) that builds no V, Vinv or Uinv.  A warm
``in_span`` multiplies B by those rows only; rows with divisor 1 impose
nothing and are dropped.

The matrices built downstream (Kronecker products for Hom and tensor) are
mostly zeros, so the kernels pay for nonzero entries only: a product adds
a[i][k] * row_k(B) over the nonzero a[i][k] and the nonzero entries of
row_k(B), and the SNF row and column operations touch the nonzero entries
of their source row.  The SNF keeps a zero pattern: at the top of pivot
step t, rows t and below are zero left of column t, and the rows above are
zero from column t on.  So a row's pivot candidate and its divisibility
gcd are functions of the whole row, cached per row and recomputed only for
the rows an operation wrote to, and column swaps and column eliminations
visit rows t and below only; the pivot sequence, and so every transform,
is that of rescanning every row at every step.  ``invariant_divisors``
runs the elimination without transforms and reads the diagonal only; it
neither builds nor caches U, V and their inverses.  ``fpmod``'s
``present_with_iso`` reads U, Uinv and the diagonal, and ``_snf_u`` gives
it those without building V and Vinv.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd

from .errors import DimensionMismatch


# ---------------------------------------------------------------------------
# rings


class RingDesc:
    """Base ring: Z when ``modulus`` is None, Z/modulus otherwise.

    Immutable by convention; compared and hashed by ``modulus``.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int | None = None):
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((self.modulus,))

    def __repr__(self):
        return f"RingDesc(modulus={self.modulus!r})"

    @property
    def kind(self) -> str:
        return "Z" if self.modulus is None else "ZmodN"

    @property
    def hereditary(self) -> bool:
        return self.modulus is None

    @property
    def quasi_frobenius(self) -> bool:
        return self.modulus is not None

    def __str__(self):
        return "Z" if self.modulus is None else f"Z/{self.modulus}"


ZZ = RingDesc(None)


def Zmod(n: int) -> RingDesc:
    return RingDesc(n)


# ---------------------------------------------------------------------------
# immutable exact matrices


class IntMat:
    """Dense integer matrix, row-major, hashable.

    ``IntMat(rows, cols, data)`` trusts its arguments: ``data`` is a tuple
    of ``rows`` tuples of ``cols`` ints.  Shapes are checked at the public
    edge instead (``from_rows``, ``serialize.parse_matrix``, ``FPModule``,
    ``make_morphism``) and by the shape-changing ops.  Matrices are
    immutable by convention: nothing writes to a built matrix, so equality
    is by value and the hash is computed once, on first use, and stored.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[int, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.data = data
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, IntMat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rows, self.cols, self.data))
        return h

    def __repr__(self):
        return f"IntMat(rows={self.rows!r}, cols={self.cols!r}, data={self.data!r})"

    def __reduce__(self):
        return IntMat, (self.rows, self.cols, self.data)

    @staticmethod
    def from_rows(rows) -> "IntMat":
        data = tuple(tuple(map(int, row)) for row in rows)
        m = len(data)
        n = len(data[0]) if m else 0
        if any(len(r) != n for r in data):
            raise DimensionMismatch("ragged rows")
        return IntMat(m, n, data)

    @staticmethod
    def zeros(m: int, n: int) -> "IntMat":
        return IntMat(m, n, ((0,) * n,) * m)

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat(n, n, tuple(map(tuple, _identity_rows(n))))

    @staticmethod
    def diag(entries, rows: int | None = None, cols: int | None = None) -> "IntMat":
        entries = list(entries)
        m = rows if rows is not None else len(entries)
        n = cols if cols is not None else len(entries)
        out = [[0] * n for _ in range(m)]
        for i in range(min(m, n, len(entries))):
            out[i][i] = entries[i]
        return IntMat(m, n, tuple(map(tuple, out)))

    @staticmethod
    def column(entries) -> "IntMat":
        entries = tuple(int(x) for x in entries)
        return IntMat(len(entries), 1, tuple((x,) for x in entries))

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def col(self, j: int) -> "IntMat":
        return IntMat(self.rows, 1, tuple((r[j],) for r in self.data))

    def col_list(self, j: int) -> list[int]:
        return [r[j] for r in self.data]

    def __add__(self, other: "IntMat") -> "IntMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        return IntMat(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "IntMat") -> "IntMat":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMat":
        if not (self.rows and self.cols):
            return self
        return IntMat(self.rows, self.cols, tuple(tuple(c * x for x in r) for r in self.data))

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n = other.cols
        if not (self.rows and self.cols and n):
            return IntMat.zeros(self.rows, n)
        # row_i(A @ B) = sum_k a[i][k] * row_k(B), over nonzero a[i][k] and
        # the nonzero entries of row_k(B) only
        cols = range(n)
        sparse = []
        for r in other.data:
            ks = list(compress(cols, r))
            sparse.append((ks, [r[k] for k in ks]))
        out = []
        for row in self.data:
            acc = [0] * n
            for k in compress(range(len(row)), row):
                a = row[k]
                ks, vs = sparse[k]
                for j, v in zip(ks, vs):
                    acc[j] += a * v
            out.append(tuple(acc))
        return IntMat(self.rows, n, tuple(out))

    def transpose(self) -> "IntMat":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return IntMat(self.cols, self.rows, data)

    def hstack(self, other: "IntMat") -> "IntMat":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack: row mismatch")
        if not other.cols:
            return self
        if not self.cols:
            return other
        return IntMat(self.rows, self.cols + other.cols, tuple(
            ra + rb for ra, rb in zip(self.data, other.data)))

    def vstack(self, other: "IntMat") -> "IntMat":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack: col mismatch")
        return IntMat(self.rows + other.rows, self.cols, self.data + other.data)

    @staticmethod
    def block_diag(blocks) -> "IntMat":
        blocks = list(blocks)
        m = sum(b.rows for b in blocks)
        n = sum(b.cols for b in blocks)
        out = [[0] * n for _ in range(m)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                out[i0 + i][j0:j0 + b.cols] = list(b.data[i])
            i0 += b.rows
            j0 += b.cols
        return IntMat(m, n, tuple(map(tuple, out)))

    def kron(self, other: "IntMat") -> "IntMat":
        m, n = self.rows * other.rows, self.cols * other.cols
        out = [[0] * n for _ in range(m)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        out[i * other.rows + k][j * other.cols + l] = a * other.data[k][l]
        return IntMat(m, n, tuple(tuple(r) for r in out))

    def take_rows(self, idx) -> "IntMat":
        idx = tuple(idx)
        return IntMat(len(idx), self.cols, tuple(self.data[i] for i in idx))

    def take_cols(self, idx) -> "IntMat":
        idx = tuple(idx)
        return IntMat(self.rows, len(idx), tuple(
            tuple(map(r.__getitem__, idx)) for r in self.data))

    def mod(self, ring: RingDesc) -> "IntMat":
        if ring.modulus is None or not (self.rows and self.cols):
            return self
        n = ring.modulus
        return IntMat(self.rows, self.cols, tuple(tuple(map(n.__rmod__, r)) for r in self.data))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def is_zero_mod(self, ring: RingDesc) -> bool:
        n = ring.modulus
        if n is None:
            return self.is_zero()
        return not any(x % n for r in self.data for x in r)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.data) + "]"


# ---------------------------------------------------------------------------
# Smith normal form


class SNFResult:
    """U @ A @ V == S exactly (mod n over Z/n); U, V invertible over the ring.

    Immutable by convention; compared and hashed by its five matrices.
    """

    __slots__ = ("U", "Uinv", "S", "V", "Vinv")

    def __init__(self, U: IntMat, Uinv: IntMat, S: IntMat, V: IntMat, Vinv: IntMat):
        self.U = U
        self.Uinv = Uinv
        self.S = S
        self.V = V
        self.Vinv = Vinv

    def _fields(self) -> tuple:
        return (self.U, self.Uinv, self.S, self.V, self.Vinv)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "SNFResult(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields())) + ")"

    def diagonal(self) -> list[int]:
        k = min(self.S.rows, self.S.cols)
        return [self.S.data[i][i] for i in range(k)]


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _axpy(x: list[int], c: int, y: list[int]) -> None:
    """x += c * y in place, touching only the nonzero entries of y."""
    for k in compress(range(len(y)), y):
        x[k] += c * y[k]


def _snf_integer(a: IntMat, u: bool = True, v: bool = True, uinv: bool = True):
    """Integer SNF core; returns mutable U, Uinv^T, S, V^T, Vinv row lists.

    Uinv and V only ever see column operations, so they are kept transposed
    and every operation on a transform is a whole-row one.  With ``u`` (or
    ``v``) False, U and Uinv (or V and Vinv) are empty rows, every operation
    on them is O(1), and they are not meaningful; with ``uinv`` False only
    Uinv is.

    The elimination keeps a zero pattern: at the top of step t every row
    i >= t is zero in the columns before t, and every row before t is zero
    in the columns from t on.  So a row's pivot candidate, the least
    nonzero |S[i][j]| over j >= t, is the least over the whole row; the
    divisibility test gcd(S[i][t+1:]) of a row i > t is the gcd of the
    whole row; and a column swap, or an elimination along row t, changes
    rows t and below only.  Each row's candidate and gcd are cached (None
    marks a stale entry) and recomputed only after an operation wrote to
    that row.  The pivot sequence, and so every transform, is that of
    rescanning every row at every step.
    """
    m, n = a.rows, a.cols
    S = [list(r) for r in a.data]
    U = _identity_rows(m) if u else [[]] * m
    UiT = _identity_rows(m) if u and uinv else [[]] * m
    VT, Vi = (_identity_rows(n), _identity_rows(n)) if v else ([[]] * n, [[]] * n)
    rmin = [None] * m  # least nonzero |entry| of each row, 0 if none
    rgcd = [None] * m  # gcd of each row's entries

    def row_add(i, j, c):  # row_i += c * row_j
        _axpy(S[i], c, S[j])
        _axpy(U[i], c, U[j])
        _axpy(UiT[j], -c, UiT[i])
        rmin[i] = rgcd[i] = None

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        UiT[i], UiT[j] = UiT[j], UiT[i]
        rmin[i], rmin[j] = rmin[j], rmin[i]
        rgcd[i], rgcd[j] = rgcd[j], rgcd[i]

    def row_neg(i):  # keeps |entries| and the gcd
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        UiT[i] = [-x for x in UiT[i]]

    def col_add(j, i, c, rows):  # col_j += c * col_i; rows: where col_i != 0
        for r in rows:
            S[r][j] += c * S[r][i]
            rmin[r] = rgcd[r] = None
        _axpy(VT[j], c, VT[i])
        _axpy(Vi[i], -c, Vi[j])

    def row_gcd(i):
        if rgcd[i] is None:
            rgcd[i] = gcd(*S[i])
        return rgcd[i]

    def col_swap(i, j):  # i = t: the rows above t are zero in both columns
        for r in range(i, m):
            row = S[r]
            row[i], row[j] = row[j], row[i]
        VT[i], VT[j] = VT[j], VT[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    t = 0
    while t < min(m, n):
        for i in range(t, m):
            if rmin[i] is None:
                rmin[i] = min(map(abs, filter(None, S[i])), default=0)
        # minimal-absolute-value pivot bounds entry growth in practice; the
        # first minimum in row-major order
        best = min(filter(None, rmin[t:]), default=0)
        if not best:
            break
        pi = rmin.index(best, t)
        pj = t + list(map(abs, S[pi][t:])).index(best)
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        d = S[t][t]
        dirty = False
        # row_add(i, t) changes row i only and col_add(j, t) column j only,
        # so the nonzero positions can be listed up front
        for i in [i for i in range(t + 1, m) if S[i][t]]:
            row_add(i, t, -(S[i][t] // d))
            if S[i][t]:
                dirty = True
        rows = [r for r in range(t, m) if S[r][t]]
        for j in list(compress(range(t + 1, n), S[t][t + 1:])):
            col_add(j, t, -(S[t][j] // d), rows)
            if S[t][j]:
                dirty = True
        if dirty:
            continue
        if d < 0:
            row_neg(t)
            d = -d
        if d != 1:
            stuck = next((i for i in range(t + 1, m) if row_gcd(i) % d), None)
            if stuck is not None:
                row_add(t, stuck, 1)
                continue
        t += 1
    return U, UiT, S, VT, Vi


def _associate_unit(d: int, n: int) -> tuple[int, int]:
    """Return (g, u) with g = gcd(d, n), u a unit mod n, and d = u*g mod n."""
    d %= n
    g = gcd(d, n)  # gcd(0, n) == n
    base, step = d // g, n // g
    u = next((base + k * step) % n for k in range(g + 1)
             if gcd((base + k * step) % n, n) == 1)
    assert (u * g - d) % n == 0
    return g, u


def _snf_rows(a: IntMat, ring: RingDesc, v: bool = True):
    """``_snf_integer`` of A's canonical lift, normalized as ``snf`` states;
    returns a function wrapping a row list as a matrix over the ring, and
    the row lists U, Uinv^T, S, V^T, Vinv."""
    if ring.modulus is None:
        U, UiT, S, VT, Vi = _snf_integer(a, v=v)
        wrap = lambda rows, nr, nc: IntMat(nr, nc, tuple(map(tuple, rows)))
    else:
        n = ring.modulus
        U, UiT, S, VT, Vi = _snf_integer(a.mod(ring), v=v)
        for t in range(min(a.rows, a.cols)):
            g, u = _associate_unit(S[t][t], n)
            uinv = pow(u, -1, n)
            U[t] = [x * uinv % n for x in U[t]]
            UiT[t] = [x * u % n for x in UiT[t]]
            S[t][t] = g % n
        wrap = lambda rows, nr, nc: IntMat(nr, nc, tuple(
            tuple(map(n.__rmod__, r)) for r in rows))
    return wrap, U, UiT, S, VT, Vi


def snf(a: IntMat, ring: RingDesc) -> SNFResult:
    """Smith normal form over the base ring.

    Over Z/n the integer normal form of the canonical lift is normalized
    entrywise to gcd(d, n); the divisibility chain is preserved and zeros
    (entries gcd-equal to n) mark free Z/n summands.
    """
    m, k = a.rows, a.cols
    wrap, U, UiT, S, VT, Vi = _snf_rows(a, ring)
    Ui, V = list(zip(*UiT)), list(zip(*VT))
    return SNFResult(wrap(U, m, m), wrap(Ui, m, m), wrap(S, m, k), wrap(V, k, k),
                     wrap(Vi, k, k))


def _snf_u(a: IntMat, ring: RingDesc) -> tuple[IntMat, IntMat, list[int]]:
    """(U, Uinv, diagonal) of ``snf(a, ring)``, without building V and Vinv."""
    m = a.rows
    wrap, U, UiT, S, _, _ = _snf_rows(a, ring, v=False)
    diag = [S[t][t] for t in range(min(m, a.cols))]
    return wrap(U, m, m), wrap(list(zip(*UiT)), m, m), diag


@lru_cache(maxsize=4096)
def _snf_cached(a: IntMat, ring: RingDesc):
    """What kernel_basis and solve_matrix read of the SNF of A's lift.

    The lift is A over Z and [A mod n | n*I] over Z/n, whose integer kernel
    and solutions carry those of A over Z/n in their first ``a.cols``
    coordinates.  Returns (U, diagonal, width of the lift, the rows of V
    over A's columns); Uinv, S, Vinv and the rows of V over the n*I
    columns are never read.
    """
    n, m, k = ring.modulus, a.rows, a.cols
    # an empty lift, or n*I, is in normal form already
    if not m:
        return IntMat(0, 0, ()), (), k, IntMat.identity(k)
    if not k:
        diag = () if n is None else (n,) * m
        return IntMat.identity(m), diag, len(diag), IntMat(0, len(diag), ())
    if n is None:
        res = snf(a, ZZ)
        return res.U, tuple(res.diagonal()), k, res.V
    reduced = a.mod(ring)
    if reduced != a:  # one SNF per matrix over Z/n, whatever its lift
        return _snf_cached(reduced, ring)
    res = snf(a.hstack(IntMat.diag([n] * m, rows=m, cols=m)), ZZ)
    return res.U, tuple(res.diagonal()), k + m, IntMat(k, k + m, res.V.data[:k])


# ---------------------------------------------------------------------------
# kernels, solving, invariants


def kernel_basis(a: IntMat, ring: RingDesc) -> IntMat:
    """Columns generating { x : A.x = 0 } over the ring.

    Over Z the columns are a lattice basis; over Z/n they generate the kernel
    submodule (the integer kernel of [A | n*I] cut to A's coordinates, mod n,
    zero columns dropped).
    """
    _, diag, width, v = _snf_cached(a, ring)
    if not a.rows:  # every vector is in the kernel
        return v
    free = [j for j in range(width) if j >= len(diag) or diag[j] == 0]
    n = ring.modulus
    if n is None:
        return v.take_cols(free)
    data = v.data
    keep = [j for j in free if any(r[j] % n for r in data)]
    return IntMat(v.rows, len(keep), tuple(tuple([r[j] % n for j in keep]) for r in data))


def solve_matrix(a: IntMat, b: IntMat, ring: RingDesc) -> IntMat | None:
    """A particular X with A.X = B over the ring, or None if unsolvable.

    B's columns lie in the column span of A over the ring iff the system is
    solvable; ``in_span`` decides that alone, without building X.  B is
    reduced mod n here; callers need not reduce it.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"solve: {a.rows} rows vs rhs {b.rows}")
    u, diag, width, v = _snf_cached(a, ring)
    if not (b.rows and b.cols):
        return IntMat.zeros(a.cols, b.cols)
    c = u @ b.mod(ring)
    y = [(0,) * b.cols] * width
    for i, row in enumerate(c.data):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            y[i] = row
            continue
        if not d:
            if any(row):
                return None
            continue
        qr = [divmod(x, d) for x in row]
        if any(r for _, r in qr):
            return None
        y[i] = tuple(q for q, _ in qr)
    return (v @ IntMat(width, b.cols, tuple(y))).mod(ring)


def solve(a: IntMat, b, ring: RingDesc) -> IntMat | None:
    """Single-column convenience wrapper around :func:`solve_matrix`."""
    col = b if isinstance(b, IntMat) else IntMat.column(b)
    return solve_matrix(a, col, ring)


# a quarter of _snf_cached's size: a membership test rarely meets a matrix
# again outside the construction that built it, and the keys hold every
# tested matrix alive (over 5580 suite-mix ops, 1024 entries held 0.7 MB
# and missed 19% less often than 512)
@lru_cache(maxsize=1024)
def _span_rows(a: IntMat, ring: RingDesc) -> tuple:
    """What ``in_span`` reads of A: the rows of U whose divisor is not 1.

    U is the left transform of the integer SNF S = U.A.V of A (of A mod n
    over Z/n), run without V, Vinv and Uinv.  Row i's divisor is S[i][i]
    over Z and gcd(S[i][i], n) over Z/n, with S[i][i] = 0 for the rows past
    the diagonal; so over Z/n a divisor is never 0, and n means "zero mod
    n".  Each entry is (columns, coefficients, divisor) over the row's
    nonzero entries, reduced mod n over Z/n.
    """
    n = ring.modulus
    if n is not None:
        reduced = a.mod(ring)
        if reduced != a:  # one entry per matrix over Z/n, whatever its lift
            return _span_rows(reduced, ring)
    U, _, S, _, _ = _snf_integer(a, v=False, uinv=False)
    diag = [S[i][i] if i < a.cols else 0 for i in range(a.rows)]
    out = []
    for i, d in enumerate(diag):
        if n is not None:
            d = gcd(d, n)
        if d == 1:
            continue
        row = U[i] if n is None else [x % n for x in U[i]]
        ks = tuple(compress(range(len(row)), row))
        out.append((ks, tuple(map(row.__getitem__, ks)), d))
    return tuple(out)


def in_span(a: IntMat, b: IntMat, ring: RingDesc) -> bool:
    """Whether B's columns lie in the column span of A over the ring.

    Decides what ``solve_matrix(a, b, ring) is not None`` decides, without
    building a solution.  A.X = B is solvable iff S.Y = U.B is (U and V are
    invertible), that is iff row i of U.B is divisible by row i's divisor,
    where divisibility by 0 means equal to 0.  Rows with divisor 1 always
    pass and are never multiplied.  Over Z/n every divisor divides n, so B
    need not be reduced.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"in_span: {a.rows} rows vs rhs {b.rows}")
    if not (b.rows and b.cols):  # the zero matrix is in every span
        return True
    data = b.data
    for ks, vs, d in _span_rows(a, ring):
        acc = [0] * b.cols
        for k, v in zip(ks, vs):
            _axpy(acc, v, data[k])
        if any(x % d for x in acc) if d else any(acc):
            return False
    return True


def invariant_divisors(a: IntMat, ring: RingDesc) -> tuple[tuple[int, ...], int]:
    """Nonunit, nonzero invariant factors of coker(A), plus its free rank.

    Over Z/n "free" counts Z/n-summands (diagonal entries gcd-equal to n).
    """
    S = _snf_integer(a.mod(ring), u=False, v=False)[2]
    diag = [S[t][t] for t in range(min(a.rows, a.cols))]
    if ring.modulus is not None:  # the entrywise normalization of snf
        diag = [gcd(d, ring.modulus) % ring.modulus for d in diag]
    divisors = tuple(d for d in diag if d not in (0, 1))
    free = a.rows - sum(1 for d in diag if d != 0)
    return divisors, free
