"""Exact matrix algebra over Z and Z/n.

Everything downstream (presentations, morphisms, resolutions, functor
evaluation, verdicts) reduces to four primitives implemented here:

* ``snf``             -- Smith normal form with invertible transforms,
* ``kernel_basis``    -- generators of { x : A.x = 0 } over the base ring,
* ``solve_matrix``    -- particular solutions of A.X = B,
* ``invariant_divisors`` -- classification data of a cokernel.

Image membership (is A.X = B solvable?) is ``fpmod.in_span``: B is in the
span of A iff B is zero in coker(A), which it reads from the trimmed
presentation of coker(A).

Arithmetic is exact throughout: entries are Python integers, never floats.
Z/n is handled by lifting to Z.  For kernels and solving, the lift appends
n*I relation columns so multiples of n are available; for the normal form
itself, the integer SNF of the lifted matrix is normalized entrywise to
gcd(d, n) by a unit row scaling (every element of Z/n is an associate of
gcd(d, n), and the chain d_1 | d_2 | ... survives the gcd).

Matrices are immutable by convention; rows and columns may be zero (a
0 x k or k x 0 matrix is a legal zero map).  Shapes are validated at the
public edge only: ``IntMat.from_rows``, JSON parsing, ``FPModule`` and
``make_morphism`` reject bad shapes, and the ops that combine two matrices
check that they fit; the constructor itself trusts its arguments, and a
matrix hashes its entries once.

A matrix is stored as its nonzero rows, ``IntMat.nz``: per row, the
(column, value) pairs in ascending column order, with no zero stored.
The matrices built downstream (Kronecker products for Hom and tensor, and
their lifts) are mostly zeros, so every op, from the products and
Kronecker products that build a system to the SNF that reduces it and the
transforms it returns, costs the nonzero entries it touches, not rows x
columns.  Every op drops the entries that cancel, so the stored form is
canonical and equality and hashing read it.  ``IntMat.data``, the dense
tuple of rows, is a view built on each read and not stored; only
``repr``, ``str``, pickling, ``serialize`` and tests read it, so those
write what a dense matrix wrote.

A matrix with no rows or no columns has no entries, so what the primitives
return for it is fixed by its shape, and they return that directly after
their shape checks: a product, or a Kronecker product, with an empty
operand is the zero matrix of its shape, and ``identity(0)`` is one shared
0 x 0 matrix; ``mod`` and ``scale`` return an empty matrix unchanged, and
``hstack`` with a side of no columns returns the other side; an empty B
lies in every span (``fpmod.in_span``), and its particular solution is the
a.cols x b.cols zero matrix; and the kernel of a 0-row A is the identity the SNF cache
keeps for it.  Each value is the one the general path computes, and no
check is skipped: the shape checks still run, ``solve_matrix`` and
``kernel_basis`` still go through the SNF cache, and ``make_morphism``
still tests every morphism with ``in_span``.  The paper's sequences are
mostly zero modules, so most matrices built downstream have this shape.

Kernels and solutions over a matrix A are read from one cache keyed by
(A, ring).  An entry keeps what they read of the SNF of A's lift, and the
finished kernel: U, the diagonal, V cut to the rows over A's columns and
the columns at the nonzero diagonal (all that a solve reads), and the
kernel basis, built on the miss from V^T's rows (the free columns of V,
cut to A's coordinates, reduced mod n, zero columns dropped).  A warm
``kernel_basis`` is one lookup, and a warm ``solve_matrix`` one lookup
plus its products.  The cache files an unreduced A under its reduction
mod n, and tests whether A is reduced by scanning its nonzeros, without
copying it; ``IntMat.negate`` negates and reduces in one pass, so a
block -P of a kernel system stays reduced.

A product adds a[i][k] * row_k(B) over the nonzero a[i][k].  The SNF
elimination takes A's rows as {column: nonzero} dicts and keeps S, U,
Uinv^T, V^T and Vinv as lists of them, with an index of the rows of S
that are nonzero in each column; its results are built straight from
those rows.  So a row or column operation, a column swap and the list of
rows below the pivot that are nonzero in its column all cost the nonzero
entries they touch.  The SNF keeps a zero pattern: at the top of pivot
step t, rows t and below are zero left of column t, and the rows above
are zero from column t on.  So a row's pivot candidate and its
divisibility gcd are functions of the whole row, cached per row.  Every
operation that writes a row queues it, and a step recomputes the
candidates of the queued rows only; a gcd is recomputed when the
divisibility fix-up reads it after a write.  The pivot rule and the
order of operations are fixed: the pivot is the least |entry| over rows
t and below, in the first such row and then its first such column; the
rows below are cleared in ascending order, then the columns of row t in
ascending order; the divisibility fix-up adds the first stuck row.  So
the pivot sequence, and every transform, is that of a dense elimination
that rescans every row at every step, which the tests keep as the
reference.

The elimination tracks each of U, Uinv, V and Vinv only when its caller
reads it, and an untracked one costs nothing: the kernel cache reads U
and V^T, ``fpmod``'s ``present_with_iso`` (through ``_snf_u``) U and
Uinv, and ``invariant_divisors`` no transform: it reads the diagonal
that the same ``_snf_rows`` normalizes for ``snf``, so the two never
disagree over Z/n, and with no transform to rescale it searches for no
associate unit.  ``snf`` tracks U and V and returns an ``SNFResult``
over the rows, whose matrices are built, reduced mod n
over Z/n, the first time they are read.  The first read of Uinv or Vinv
runs the same elimination again with both tracked: the pivot order is
fixed and inverses are unique, so they are the matrices an eager
elimination gives.  Nothing in the library reads them.  The kernel cache
still calls ``snf`` once per cold matrix, so a wrapper of ``snf`` sees
every SNF the cache computes; it builds U, and its cut of V straight from
V^T.
``_snf_u`` builds only the rows of U and the columns of Uinv whose
divisor is not 1.
"""

from __future__ import annotations

from functools import lru_cache
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
    """Integer matrix stored as its nonzero rows, hashable.

    ``nz`` holds one tuple per row: the row's (column, value) pairs in
    ascending column order, with no zero stored.  That form is canonical,
    so equality and the hash read ``nz``; every op builds its result in it,
    dropping the entries that cancel.  ``IntMat(rows, cols, data)`` takes
    dense ``data``, a tuple of ``rows`` tuples of ``cols`` ints, and keeps
    its nonzeros; the ops pass their rows as ``IntMat(rows, cols, None,
    nz)`` instead, so every matrix is still built by ``__init__``, which
    trusts its arguments.  Shapes are checked at the public edge
    (``from_rows``, ``serialize.parse_matrix``, ``FPModule``,
    ``make_morphism``) and by the shape-changing ops.

    ``data`` is the dense view: built on each read and not stored.  Only
    ``repr``, ``str``, pickling, ``serialize`` and tests read it, so those
    stay as they were for a dense matrix.  Matrices are immutable by
    convention: nothing writes to a built matrix, and the hash is computed
    once, on first use, and stored.
    """

    __slots__ = ("rows", "cols", "nz", "_hash")

    def __init__(self, rows: int, cols: int, data: tuple | None = None,
                 nz: tuple | None = None):
        self.rows = rows
        self.cols = cols
        if nz is None:
            nz = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in data)
        self.nz = nz
        self._hash = None

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        zero = (0,) * self.cols  # shared by the zero rows, as in zeros
        out = []
        for r in self.nz:
            if r:
                row = [0] * self.cols
                for j, x in r:
                    row[j] = x
                out.append(tuple(row))
            else:
                out.append(zero)
        return tuple(out)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, IntMat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.nz == other.nz

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rows, self.cols, self.nz))
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
        return IntMat(m, n, None, ((),) * m)

    @staticmethod
    def identity(n: int) -> "IntMat":
        if not n:
            return _EMPTY
        return IntMat(n, n, None, tuple(((i, 1),) for i in range(n)))

    @staticmethod
    def diag(entries, rows: int | None = None, cols: int | None = None) -> "IntMat":
        entries = list(entries)
        m = rows if rows is not None else len(entries)
        n = cols if cols is not None else len(entries)
        k = min(m, n, len(entries))
        return IntMat(m, n, None, tuple(
            ((i, entries[i]),) if i < k and entries[i] else () for i in range(m)))

    @staticmethod
    def column(entries) -> "IntMat":
        entries = tuple(int(x) for x in entries)
        return IntMat(len(entries), 1, None, tuple(((0, x),) if x else () for x in entries))

    def entry(self, i: int, j: int) -> int:
        return dict(self.nz[i]).get(j, 0)

    def col(self, j: int) -> "IntMat":
        return IntMat(self.rows, 1, None, tuple(
            ((0, x),) if x else () for x in self.col_list(j)))

    def col_list(self, j: int) -> list[int]:
        return [dict(r).get(j, 0) for r in self.nz]

    def __add__(self, other: "IntMat") -> "IntMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        out = []
        for ra, rb in zip(self.nz, other.nz):
            if not (ra and rb):
                out.append(ra or rb)
                continue
            acc = dict(ra)
            for j, x in rb:
                acc[j] = acc.get(j, 0) + x
            out.append(tuple([p for p in sorted(acc.items()) if p[1]]))
        return IntMat(self.rows, self.cols, None, tuple(out))

    def __sub__(self, other: "IntMat") -> "IntMat":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMat":
        if not (self.rows and self.cols):
            return self
        if not c:
            return IntMat.zeros(self.rows, self.cols)
        return IntMat(self.rows, self.cols, None, tuple(
            tuple([(j, c * x) for j, x in r]) for r in self.nz))

    def negate(self, ring: RingDesc) -> "IntMat":
        """-A, reduced mod n in the same pass over Z/n."""
        n = ring.modulus
        if n is None:
            return self.scale(-1)
        if not (self.rows and self.cols):
            return self
        return IntMat(self.rows, self.cols, None, tuple(
            tuple([(j, y) for j, x in r if (y := -x % n)]) for r in self.nz))

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"mul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n = other.cols
        if not (self.rows and self.cols and n):
            return IntMat.zeros(self.rows, n)
        # row_i(A @ B) = sum_k a[i][k] * row_k(B) over the nonzero a[i][k];
        # a row of A with one nonzero scales one row of B, already in order
        b = other.nz
        out = []
        for row in self.nz:
            if len(row) == 1:
                (k, a), = row
                r = b[k]
                out.append(r if a == 1 else tuple([(j, a * v) for j, v in r]))
                continue
            if not row:
                out.append(row)
                continue
            acc = {}
            get = acc.get
            for k, a in row:
                for j, v in b[k]:
                    acc[j] = get(j, 0) + a * v
            out.append(tuple([p for p in sorted(acc.items()) if p[1]]))
        return IntMat(self.rows, n, None, tuple(out))

    def transpose(self) -> "IntMat":
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r:
                out[j].append((i, x))
        return IntMat(self.cols, self.rows, None, tuple(map(tuple, out)))

    def hstack(self, other: "IntMat") -> "IntMat":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack: row mismatch")
        if not other.cols:
            return self
        if not self.cols:
            return other
        k = self.cols
        return IntMat(self.rows, k + other.cols, None, tuple(
            ra + tuple([(j + k, x) for j, x in rb]) if rb else ra
            for ra, rb in zip(self.nz, other.nz)))

    def vstack(self, other: "IntMat") -> "IntMat":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack: col mismatch")
        return IntMat(self.rows + other.rows, self.cols, None, self.nz + other.nz)

    @staticmethod
    def block_diag(blocks) -> "IntMat":
        blocks = list(blocks)
        out = []
        j0 = 0
        for b in blocks:
            out.extend(tuple([(j + j0, x) for j, x in r]) for r in b.nz)
            j0 += b.cols
        return IntMat(len(out), j0, None, tuple(out))

    def kron(self, other: "IntMat") -> "IntMat":
        m, n = self.rows * other.rows, self.cols * other.cols
        if not (m and n):
            return IntMat.zeros(m, n)
        w = other.cols
        return IntMat(m, n, None, tuple(
            tuple([(j * w + l, a * b) for j, a in ra for l, b in rb])
            for ra in self.nz for rb in other.nz))

    def take_rows(self, idx) -> "IntMat":
        idx = tuple(idx)
        return IntMat(len(idx), self.cols, None, tuple(self.nz[i] for i in idx))

    def take_cols(self, idx) -> "IntMat":
        idx = tuple(idx)
        out = []
        for r in self.nz:
            d = dict(r)
            out.append(tuple([(t, d[j]) for t, j in enumerate(idx) if j in d]))
        return IntMat(self.rows, len(idx), None, tuple(out))

    def mod(self, ring: RingDesc) -> "IntMat":
        if ring.modulus is None or not (self.rows and self.cols):
            return self
        n = ring.modulus
        return IntMat(self.rows, self.cols, None, tuple(
            tuple([(j, y) for j, x in r if (y := x % n)]) for r in self.nz))

    def is_zero(self) -> bool:
        return not any(self.nz)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.data) + "]"


_EMPTY = IntMat(0, 0, ())  # the 0 x 0 matrix; IntMat.identity(0) returns it


# ---------------------------------------------------------------------------
# Smith normal form


def _from_dicts(rows, nr: int, nc: int, n: int | None) -> IntMat:
    """The nr x nc matrix whose row i is the {column: nonzero} row rows[i],
    reduced mod n unless n is None."""
    if n is None:
        nz = tuple(tuple(sorted(row.items())) for row in rows)
    else:
        nz = tuple(tuple([(k, y) for k, x in sorted(row.items()) if (y := x % n)])
                   for row in rows)
    return IntMat(nr, nc, None, nz)


def _from_dicts_t(rows, nr: int, nc: int, n: int | None) -> IntMat:
    """The nr x nc matrix whose column i is the {row: nonzero} row rows[i],
    cut to its first nr entries and reduced mod n unless n is None."""
    out = [[] for _ in range(nr)]
    for i, row in enumerate(rows):
        for k, x in row.items():
            if k < nr and (n is None or (x := x % n)):
                out[k].append((i, x))
    return IntMat(nr, nc, None, tuple(map(tuple, out)))


class SNFResult:
    """U @ A @ V == S exactly (mod n over Z/n); U, V invertible over the ring.

    Immutable by convention; compared and hashed by its five matrices.  A
    result of ``snf`` keeps the elimination's {column: nonzero} rows of U,
    S and V^T and builds each matrix the first time it is read, then stores
    it.  The first read of Uinv or Vinv eliminates again with both tracked.
    """

    __slots__ = ("_mats", "_src", "_diag")
    _FIELDS = ("U", "Uinv", "S", "V", "Vinv")

    def __init__(self, U: IntMat, Uinv: IntMat, S: IntMat, V: IntMat, Vinv: IntMat):
        self._mats = [U, Uinv, S, V, Vinv]
        self._src = None
        self._diag = None

    @classmethod
    def _from_rows(cls, a: IntMat, ring: RingDesc, rows, diag) -> "SNFResult":
        """A result over the rows U, Uinv^T, S, V^T, Vinv of ``_snf_rows(a,
        ring)``, each reduced mod n when it is built; Uinv^T and Vinv may be
        None (untracked)."""
        res = cls.__new__(cls)
        res._mats = [None] * 5
        res._src = (a, ring, rows)
        res._diag = diag
        return res

    def _build(self, i: int) -> IntMat:
        a, ring, rows = self._src
        if rows[i] is None:  # the inverses: the same elimination, tracking them
            _, rows[1], _, _, rows[4], _ = _snf_rows(a, ring, u=False, v=False)
        m, k = a.rows, a.cols
        shape = ((m, m), (m, m), (m, k), (k, k), (k, k))[i]
        # Uinv and V are kept transposed
        mat = self._mats[i] = (_from_dicts_t if i in (1, 3) else _from_dicts)(
            rows[i], *shape, ring.modulus)
        return mat

    def _field(i):
        def get(self):
            mat = self._mats[i]
            return self._build(i) if mat is None else mat
        return property(get)

    U, Uinv, S, V, Vinv = map(_field, range(5))
    del _field

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
            f"{k}={v!r}" for k, v in zip(self._FIELDS, self._fields())) + ")"

    def __reduce__(self):
        return SNFResult, self._fields()

    def diagonal(self) -> list[int]:
        if self._diag is not None:
            return list(self._diag)
        k = min(self.S.rows, self.S.cols)
        return [self.S.entry(i, i) for i in range(k)]


def _add_row(x: dict, c: int, y: dict) -> None:
    """x += c * y in place over {column: nonzero} rows, for c != 0: an entry
    that cancels is deleted, so every stored entry stays nonzero."""
    for k, v in y.items():
        s = x.get(k)
        if s is None:
            x[k] = c * v
        else:
            s += c * v
            if s:
                x[k] = s
            else:
                del x[k]


_INF = float("inf")  # the pivot candidate of a zero row


def _snf_integer(a: IntMat, u: bool = True, uinv: bool = True, v: bool = True,
                 vinv: bool = True, pivots: list | None = None):
    """Integer SNF core; returns U, Uinv^T, S, V^T, Vinv as lists of
    {column: nonzero} rows, which the caller owns.

    Each transform is tracked only when its flag is set; an untracked one is
    returned as None, and no operation touches it.  Uinv and V only ever see
    column operations, so they are kept transposed and every operation on a
    transform is a whole-row one.  ``pivots``, if given, receives the
    (row, column) of each pivot in the order they are taken.

    Every row of S and of the transforms stores its nonzero entries only,
    and ``cols[j]`` is the set of rows of S with a nonzero in column j; so
    each operation, and the list of rows below t that are nonzero in column
    t, costs the nonzero entries it reads.  The elimination keeps a zero
    pattern: at the top of step t every row i >= t is zero in the columns
    before t, and every row before t is zero in the columns from t on.  So
    a row's pivot candidate, the least nonzero |S[i][j]| over j >= t, is
    the least over the whole row; the divisibility test gcd(S[i][t+1:]) of
    a row i > t is the gcd of the whole row; and a column swap, or an
    elimination along row t, changes rows t and below only.  Each row's
    candidate is cached in ``rmin`` (``_INF`` for a zero row, so the pivot
    value is a plain minimum), and every operation that writes a row adds
    it to ``stale``, whose rows alone are recomputed at the top of a step.
    Each row's gcd is cached in ``rgcd`` (None when a write made it stale)
    and computed when the divisibility fix-up reads it.  The pivot
    sequence, and so every transform, is that of rescanning every row at
    every step.
    """
    m, n = a.rows, a.cols
    span = range(n)
    S = [dict(r) for r in a.nz]
    cols = [set() for _ in span]  # rows of S with a nonzero in each column
    for i, row in enumerate(S):
        for j in row:
            cols[j].add(i)
    U = [{i: 1} for i in range(m)] if u else None
    UiT = [{i: 1} for i in range(m)] if uinv else None
    VT = [{j: 1} for j in span] if v else None
    Vi = [{j: 1} for j in span] if vinv else None
    rmin = [_INF] * m  # least nonzero |entry| of each row, _INF if none
    rgcd = [None] * m  # gcd of each row's entries
    stale = set(range(m))  # rows written since their rmin was computed

    def row_add(i, j, c):  # row_i += c * row_j, c != 0
        si = S[i]
        for k, y in S[j].items():
            x = si.get(k)
            if x is None:
                si[k] = c * y
                cols[k].add(i)
            else:
                x += c * y
                if x:
                    si[k] = x
                else:
                    del si[k]
                    cols[k].discard(i)
        if u:
            _add_row(U[i], c, U[j])
        if uinv:
            _add_row(UiT[j], -c, UiT[i])
        rgcd[i] = None
        stale.add(i)

    t = 0
    while t < min(m, n):
        for i in stale:
            row = S[i]
            rmin[i] = min(map(abs, row.values())) if row else _INF
        stale.clear()
        # minimal-absolute-value pivot bounds entry growth in practice; the
        # first minimum in row-major order
        best = min(rmin[t:])
        if best is _INF:
            break
        pi = rmin.index(best, t)
        pj = min(j for j, x in S[pi].items() if x == best or x == -best)
        if pivots is not None:
            pivots.append((pi, pj))
        if pi != t:  # swap rows t and pi with their caches
            st, sp = S[t], S[pi]
            for k in st.keys() - sp.keys():
                c = cols[k]
                c.discard(t)
                c.add(pi)
            for k in sp.keys() - st.keys():
                c = cols[k]
                c.discard(pi)
                c.add(t)
            S[t], S[pi] = sp, st
            if u:
                U[t], U[pi] = U[pi], U[t]
            if uinv:
                UiT[t], UiT[pi] = UiT[pi], UiT[t]
            rmin[t], rmin[pi] = rmin[pi], rmin[t]
            rgcd[t], rgcd[pi] = rgcd[pi], rgcd[t]
        if pj != t:  # swap columns t and pj; the rows above t are zero in both
            ct, cp = cols[t], cols[pj]
            for r in ct:
                row = S[r]
                x, y = row.pop(t), row.pop(pj, 0)
                if y:
                    row[t] = y
                row[pj] = x
            for r in cp - ct:
                row = S[r]
                row[t] = row.pop(pj)
            cols[t], cols[pj] = cp, ct
            if v:
                VT[t], VT[pj] = VT[pj], VT[t]
            if vinv:
                Vi[t], Vi[pj] = Vi[pj], Vi[t]
        row = S[t]
        d = row[t]
        dirty = False
        # clearing row i changes row i only, and clearing column j column j
        # only, so the nonzero positions can be listed up front; every row
        # in column t is t or below it
        ct = cols[t]
        if len(ct) > 1:
            for i in sorted(ct)[1:]:
                row_add(i, t, -(S[i][t] // d))
                if t in S[i]:
                    dirty = True
        rows = list(ct)
        clear = sorted(row)[1:] if len(row) > 1 else ()
        for j in clear:  # col_j += c * col_t over the rows in column t
            c = -(row[j] // d)
            cj = cols[j]
            for r in rows:
                sr = S[r]
                x = sr.get(j)
                if x is None:
                    sr[j] = c * sr[t]
                    cj.add(r)
                else:
                    x += c * sr[t]
                    if x:
                        sr[j] = x
                    else:
                        del sr[j]
                        cj.discard(r)
            if v:
                _add_row(VT[j], c, VT[t])
            if vinv:
                _add_row(Vi[t], -c, Vi[j])
            if j in row:
                dirty = True
        if clear:  # the column additions wrote to every row in column t
            stale.update(rows)
            for r in rows:
                rgcd[r] = None
        if dirty:
            continue
        if d < 0:  # negation keeps |entries| and the gcd
            S[t] = {k: -x for k, x in row.items()}
            if u:
                U[t] = {k: -x for k, x in U[t].items()}
            if uinv:
                UiT[t] = {k: -x for k, x in UiT[t].items()}
            d = -d
        if d != 1:
            for i in range(t + 1, m):
                g = rgcd[i]
                if g is None:
                    g = rgcd[i] = gcd(*S[i].values())
                if g % d:  # d does not divide row i: add it to row t
                    row_add(t, i, 1)
                    break
            else:  # d divides every row below, so it is the t-th divisor
                t += 1
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


def _reduced(a: IntMat, ring: RingDesc) -> IntMat:
    """A mod n; A itself, with no copy, when its entries already lie in
    [0, n), and over Z."""
    n = ring.modulus
    if n is None:
        return a
    entries = [x for r in a.nz for _, x in r]  # all nonzero
    if not entries or (min(entries) > 0 and max(entries) < n):
        return a
    return a.mod(ring)


def _snf_rows(a: IntMat, ring: RingDesc, **track):
    """``_snf_integer`` of A's canonical lift, tracking the transforms that
    ``track`` does not turn off, normalized as ``snf`` states up to the
    reduction mod n its matrices get when built: the row lists U, Uinv^T,
    S, V^T, Vinv (None where untracked), and the diagonal."""
    n = ring.modulus
    U, UiT, S, VT, Vi = _snf_integer(_reduced(a, ring), **track)
    top = range(min(a.rows, a.cols))
    if n is None:
        return U, UiT, S, VT, Vi, [S[t].get(t, 0) for t in top]
    diag = []
    for t in top:
        d = S[t].get(t, 0)
        if d == 1:  # a unit pivot is its own normal form
            diag.append(1)
            continue
        if U is None and UiT is None:  # no transform reads the unit
            g = gcd(d, n)
        else:
            g, u = _associate_unit(d, n)
            if u != 1:
                if U is not None:
                    uinv = pow(u, -1, n)
                    U[t] = {k: x * uinv for k, x in U[t].items()}
                if UiT is not None:
                    UiT[t] = {k: x * u for k, x in UiT[t].items()}
        g %= n
        S[t] = {t: g} if g else {}  # S is diagonal
        diag.append(g)
    return U, UiT, S, VT, Vi, diag


def snf(a: IntMat, ring: RingDesc) -> SNFResult:
    """Smith normal form over the base ring.

    Over Z/n the integer normal form of the canonical lift is normalized
    entrywise to gcd(d, n); the divisibility chain is preserved and zeros
    (entries gcd-equal to n) mark free Z/n summands.  Each of the five
    matrices is built, reduced mod n, the first time it is read; the
    elimination tracks U and V, and the first read of Uinv or Vinv repeats
    it with those two tracked.
    """
    *rows, diag = _snf_rows(a, ring, uinv=False, vinv=False)
    return SNFResult._from_rows(a, ring, rows, diag)


def _snf_u(a: IntMat, ring: RingDesc) -> tuple[IntMat, IntMat, list[int]]:
    """The rows of U and the columns of Uinv of ``snf(a, ring)`` whose
    divisor is not 1, and those divisors (0 for the rows past the diagonal),
    without tracking V and Vinv or building the other rows and columns."""
    m, n = a.rows, ring.modulus
    U, UiT, _, _, _, diag = _snf_rows(a, ring, v=False, vinv=False)
    keep = [i for i in range(m) if i >= len(diag) or diag[i] != 1]
    divisors = [diag[i] if i < len(diag) else 0 for i in keep]
    return (_from_dicts([U[i] for i in keep], len(keep), m, n),
            _from_dicts_t([UiT[i] for i in keep], m, len(keep), n), divisors)


@lru_cache(maxsize=4096)
def _snf_cached(a: IntMat, ring: RingDesc):
    """What kernel_basis and solve_matrix read of the SNF of A's lift.

    The lift is A over Z and [A mod n | n*I] over Z/n, whose integer kernel
    and solutions carry those of A over Z/n in their first ``a.cols``
    coordinates.  Returns (U, diagonal, V, the kernel basis), where V is
    cut to what a solve reads: the rows over A's columns and the columns at
    the nonzero diagonal, which lead it.  The kernel is built here, once,
    from V^T's rows: the columns of V past the nonzero diagonal, cut to A's
    coordinates and, over Z/n, reduced mod n with the zero columns dropped.
    Nothing else of the SNF is read, so Uinv, S, Vinv and the rest of V are
    never built.
    """
    n, m, k = ring.modulus, a.rows, a.cols
    # an empty lift, or n*I, is in normal form already
    if not m:  # every vector is in the kernel
        return _EMPTY, (), IntMat.zeros(k, 0), IntMat.identity(k)
    if not k:
        diag = () if n is None else (n,) * m
        return IntMat.identity(m), diag, IntMat.zeros(0, len(diag)), _EMPTY
    lift = a
    if n is not None:
        reduced = _reduced(a, ring)
        if reduced is not a:  # one SNF per matrix over Z/n, whatever its lift
            return _snf_cached(reduced, ring)
        # [A | n*I] in one pass, with no n*I matrix of its own
        lift = IntMat(m, k + m, None, tuple(r + ((k + i, n),) for i, r in enumerate(a.nz)))
    res = snf(lift, ZZ)
    diag = tuple(res.diagonal())
    rank = len(diag) - diag.count(0)  # the zeros close the diagonal
    vt = res._src[2][3]  # the rows of V^T
    kernel = []  # the columns of V past the nonzero diagonal
    for col in vt[rank:]:
        if n is not None:
            col = {r: y for r, x in col.items() if r < k and (y := x % n)}
            if not col:
                continue
        kernel.append(col)
    return (res.U, diag, _from_dicts_t(vt[:rank], k, rank, None),
            _from_dicts_t(kernel, k, len(kernel), None))


# ---------------------------------------------------------------------------
# kernels, solving, invariants


def kernel_basis(a: IntMat, ring: RingDesc) -> IntMat:
    """Columns generating { x : A.x = 0 } over the ring.

    Over Z the columns are a lattice basis; over Z/n they generate the kernel
    submodule (the integer kernel of [A | n*I] cut to A's coordinates, mod n,
    zero columns dropped).  The basis is built once per (A, ring), when the
    SNF cache misses.
    """
    return _snf_cached(a, ring)[3]


def solve_matrix(a: IntMat, b: IntMat, ring: RingDesc) -> IntMat | None:
    """A particular X with A.X = B over the ring, or None if unsolvable.

    B's columns lie in the column span of A over the ring iff the system is
    solvable; ``fpmod.in_span`` decides that alone, without building X.  B is
    reduced mod n here; callers need not reduce it.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"solve: {a.rows} rows vs rhs {b.rows}")
    u, diag, v, _ = _snf_cached(a, ring)
    if not (b.rows and b.cols):
        return IntMat.zeros(a.cols, b.cols)
    c = u @ b.mod(ring)
    rank = v.cols  # U @ A @ V is zero past the nonzero diagonal
    y = [()] * rank
    for i, row in enumerate(c.nz):
        if not row:
            continue
        if i >= rank:
            return None
        d = diag[i]
        if d == 1:
            y[i] = row
            continue
        q = []
        for j, x in row:
            x, r = divmod(x, d)
            if r:
                return None
            q.append((j, x))
        y[i] = tuple(q)
    return (v @ IntMat(rank, b.cols, None, tuple(y))).mod(ring)


def solve(a: IntMat, b, ring: RingDesc) -> IntMat | None:
    """Single-column convenience wrapper around :func:`solve_matrix`."""
    col = b if isinstance(b, IntMat) else IntMat.column(b)
    return solve_matrix(a, col, ring)


def invariant_divisors(a: IntMat, ring: RingDesc) -> tuple[tuple[int, ...], int]:
    """Nonunit, nonzero invariant factors of coker(A), plus its free rank.

    Over Z/n "free" counts Z/n-summands (diagonal entries gcd-equal to n):
    the diagonal is ``snf``'s, normalized by ``_snf_rows``.
    """
    diag = _snf_rows(a, ring, u=False, uinv=False, v=False, vinv=False)[5]
    divisors = tuple(d for d in diag if d not in (0, 1))
    free = a.rows - sum(1 for d in diag if d != 0)
    return divisors, free
