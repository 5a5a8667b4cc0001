"""Exact dense linear algebra: matrices, reduced row echelon form, subspaces.

Subspaces are the universal currency of the library.  They are stored as
canonical RREF bases, so two subspaces are equal exactly when their basis
tuples are identical; that structural equality is the only equality notion
used downstream.

The scalar inner loops (elimination, row reduction, matrix products and
linear combinations) make no ``Field`` method call per scalar.  Each
dispatches once on ``field.kind`` to a kernel for its field, and scalars
stay canonical at every boundary: ``int`` residues over GF(p), and over Q an
``int`` for an integral value and a ``Fraction`` otherwise
(``fields.canon_q``), so integral work runs on native integers:

* GF(p): rows of plain ``int`` residues in [0, p).  ``_rref`` takes them
  canonical and copies them without reducing; it clears a pivot column in
  place, updating only the columns where the normalised pivot row is
  nonzero, with one ``% p`` per updated entry.  The other kernels reduce
  once at the end of an accumulation (``Subspace.reduce``,
  ``Matrix.apply``, ``Matrix.matmul``, ``lin_comb``).
* Q: ``_rref`` is fraction-free (after Bareiss, Math. Comp. 22, 1968).
  An all-``int`` row is copied as it is, any other is scaled by the lcm of
  its denominators to an integer row.  Each pivot column is cleared in
  place over the nonzeros of the pivot row: a row whose entry there is a
  multiple of the pivot loses that multiple of the pivot row and nothing
  else; any other row is cross-multiplied by gcd-reduced factors and
  divided by its content.  The final rows are emitted as ``x // pivot``
  where the pivot divides and ``Fraction(x, pivot)`` where it does not.
  ``_reduce`` eliminates integral rows fraction-free too.  The other Q
  kernels use Python's operators directly, touch only nonzero entries and
  normalize a result once, mapping ``canon_q`` only when it holds a
  ``Fraction`` (``_canon_q_all``).

The per-scalar kernels build a tuple from a list comprehension,
``tuple([...])``, not from a generator: CPython resumes a generator's frame
for every element, while a comprehension runs in one frame.

``QuotientMap`` owns the coordinates on a section W/U: every quotient,
factor module and semidirect model reads its lift basis ``lifts`` and takes
the matrix a map induces on W/U from ``induced``, or from one
``project_all`` of the images of the lifts (``algebra.section_action``);
each witness that is the graph of a map between two sections is ``graph``.

Spaces of matrices have two owners.  ``nullspace`` is the one solution
space of a homogeneous system: common kernels of maps, annihilators of dual
subspaces and joint kernels of an action all take it, and ``rref_solve`` is
left for particular solutions.  ``mat_comb`` is the one linear combination
of matrices, sum c * M, row by row with ``lin_comb``.

Membership in a ``Subspace`` is read off its RREF basis once, as its
membership forms: per column t off the pivots, the (pivot c, row entry at
t) pairs, and v lies inside exactly when v[t] is their combination of v at
the pivots.  ``contains``, ``contains_space`` and ``QuotientMap.project_all``
test vectors against them, copying and reducing nothing.

The reduced row echelon form of a row space is unique: whatever pivot rows
and row scalings lead to it, the normalised rows are the same.  So the
kernels return exactly the values of the textbook Gauss-Jordan loop, and
``Subspace`` bases, ``rref_solve`` and ``invert_matrix`` (hence every report)
do not depend on how a kernel gets there.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .fields import Field, Scalar, canon_q


class DimensionMismatch(ValueError):
    pass


Vector = tuple


def _modulus(field: Field) -> int:
    """p for GF(p), 0 for Q: the one dispatch a kernel makes."""
    return field.p if field.kind == "GF" else 0


def vec(field: Field, entries: Iterable) -> Vector:
    if field.kind == "GF":
        p = field.p
        return tuple([x % p if type(x) is int else field.coerce(x) for x in entries])
    return tuple([x if type(x) is int else field.coerce(x) for x in entries])


def zero_vec(field: Field, n: int) -> Vector:
    z = field.zero()
    return (z,) * n


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    p = _modulus(field)
    if p:
        return tuple([(a + b) % p for a, b in zip(u, v)])
    return tuple([canon_q(a + b) for a, b in zip(u, v)])


def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    p = _modulus(field)
    if p:
        return tuple([(a - b) % p for a, b in zip(u, v)])
    return tuple([canon_q(a - b) for a, b in zip(u, v)])


def vec_scale(field: Field, c: Scalar, u: Vector) -> Vector:
    p = _modulus(field)
    if p:
        return tuple([c * a % p for a in u])
    return tuple([canon_q(c * a) for a in u])


def vec_is_zero(field: Field, u: Vector) -> bool:
    p = _modulus(field)
    if p:
        return not any(a % p for a in u)
    return not any(u)


def unit_vec(field: Field, n: int, i: int) -> Vector:
    zero, one = field.zero(), field.one()
    return tuple([one if j == i else zero for j in range(n)])


def _canon_q_all(xs: list) -> list:
    """The list of rationals ``xs`` in canonical form: ``xs`` itself when
    it holds no ``Fraction`` (sums and products of ``int``s are ``int``s),
    else a new list of the ``canon_q`` of each entry.  The one normalisation
    step of the Q kernels."""
    return list(map(canon_q, xs)) if Fraction in set(map(type, xs)) else xs


def lin_comb(field: Field, coeffs: Iterable, vecs: Sequence[Vector]) -> Vector:
    """The vector sum of c * v over the pairs of ``coeffs`` and ``vecs``,
    touching only nonzero coefficients and entries.  ``vecs`` must not be
    empty: its first vector gives the length."""
    p = _modulus(field)
    out = [field.zero()] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
    if p:
        return tuple([x % p for x in out])
    return tuple(_canon_q_all(out))


def mat_comb(field: Field, coeffs: Iterable, mats: Sequence["Matrix"]) -> "Matrix":
    """The matrix sum of c * M over the pairs of ``coeffs`` and ``mats``,
    row by row with ``lin_comb``.  ``mats`` must not be empty: its first
    matrix gives the shape."""
    coeffs = tuple(coeffs)
    rows = [lin_comb(field, coeffs, r) for r in zip(*(M.entries for M in mats))]
    return Matrix._of(field, rows, mats[0].cols)


def _nonzeros(row) -> tuple:
    """The (index, value) pairs of a row's nonzero entries."""
    return tuple([(j, x) for j, x in enumerate(row) if x])


def _reduce(p: int, w: list, rows: Sequence, pivots: Sequence) -> list:
    """Subtract from the list ``w`` its components along semi-echelon rows.

    Each row is given by its nonzero (index, value) pairs, the first at its
    pivot, where it is 1 or, over Q, the entry b of an integral row (then w
    is integral too, and is scaled by b / gcd(a, b) where b does not divide
    its entry a); a row has zeros at the pivots of the rows before it.  ``w``
    is changed in place but for such scalings; the result is reduced mod p
    over GF(p) (``p > 0``), or normalized by ``_canon_q_all``, once, at the
    end.  This is the one row-reduction loop of the library:
    ``Subspace.reduce`` and ``modules._spin_rows``."""
    if p:
        for nz, c in zip(rows, pivots):
            a = w[c] % p
            if a:
                for j, y in nz:
                    w[j] -= a * y
        return [x % p for x in w]
    for nz, c in zip(rows, pivots):
        a = w[c]
        if a:
            b = nz[0][1]
            if b != 1:
                g = gcd(a, b)
                w = [b // g * x for x in w] if g != b else w
                a //= g
            for j, y in nz:
                w[j] -= a * y
    return _canon_q_all(w)


def _cleared(row: Iterable) -> list:
    """The row as a new list, times the lcm of its denominators when it
    holds a ``Fraction``."""
    row = list(row)
    if Fraction not in set(map(type, row)):
        return row
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _in_rref_span(p: int, w: Sequence, rows: Sequence, pivots: Sequence) -> bool:
    """Whether w lies in the span of the dense rows of a reduced row echelon
    basis with those pivots.  The rows vanish at each other's pivots, so w
    is inside exactly when eliminating it at the pivots, by w[c] times the
    row of pivot c, leaves 0.  Checked column by column, stopping at the
    first column that is not cleared; mod p over GF(p) (``p > 0``), exactly
    over Q.  The per-candidate membership test of the oracle's closure and
    ideal scans, where a candidate is seen once and ``_reduce``'s nonzero
    (index, value) pairs would not pay for themselves."""
    terms = [(w[c], row) for c, row in zip(pivots, rows) if w[c]]
    for j, x in enumerate(w):
        for a, row in terms:
            x -= a * row[j]
        if x % p if p else x:
            return False
    return True


def _satisfies(p: int, forms: Sequence, v: Sequence) -> bool:
    """Whether v meets every (t, pairs) membership form of a subspace
    (``Subspace._membership_forms``): v[t] equals the sum of a * v[c] over
    the pairs, mod p over GF(p) (``p > 0``), exactly over Q.  Stops at the
    first form that fails; builds nothing."""
    for t, terms in forms:
        x = v[t]
        for c, a in terms:
            x -= a * v[c]
        if x % p if p else x:
            return False
    return True


class Matrix:
    """Immutable rectangular matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries", "_nz", "_off")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = tuple(vec(field, row) for row in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionMismatch("ragged rows")
        else:
            w = 0
        self.field = field
        self.rows = len(rows)
        self.cols = w if rows else 0
        self.entries = rows
        self._nz = None
        self._off = None

    @classmethod
    def _of(cls, field: Field, rows: Sequence, cols: int) -> "Matrix":
        """A matrix on rows of field scalars already in canonical form
        (``fields.canon_q`` over Q, residues in [0, p) over GF(p)), with no
        coercion."""
        M = object.__new__(cls)
        M.field = field
        M.entries = tuple(map(tuple, rows))
        M.rows = len(M.entries)
        M.cols = cols if M.entries else 0
        M._nz = None
        M._off = None
        return M

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of(field, [unit_vec(field, n, i) for i in range(n)], n)

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._of(field, [zero_vec(field, cols)] * rows, cols)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            return cls(field, [])
        return cls(field, list(zip(*columns)))

    def _nonzero_rows(self) -> tuple:
        """Per row, the (column, value) pairs of its nonzero entries; built
        on first use and kept on the instance."""
        if self._nz is None:
            self._nz = tuple([_nonzeros(r) for r in self.entries])
        return self._nz

    def _offsets(self) -> tuple:
        """Per column j, the (i - j, value) pairs of its nonzero entries;
        built on first use and kept on the instance."""
        if self._off is None:
            cols = enumerate(zip(*self.entries))
            self._off = tuple([tuple([(i - j, a) for i, a in _nonzeros(c)]) for j, c in cols])
        return self._off

    def col(self, j: int) -> Vector:
        return tuple([r[j] for r in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, list(zip(*self.entries)), self.rows)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product (columns act on coordinates)."""
        F = self.field
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        p = _modulus(F)
        zero = F.zero()
        out = []
        for nz in self._nonzero_rows():
            s = zero
            for j, a in nz:
                b = v[j]
                if b:
                    s += a * b
            out.append(s)
        if p:
            return tuple([x % p for x in out])
        return tuple(_canon_q_all(out))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions disagree")
        F = self.field
        p = _modulus(F)
        zero = F.zero()
        n = other.cols
        other_nz = other._nonzero_rows()
        out = []
        for nz in self._nonzero_rows():
            acc = [zero] * n
            for k, a in nz:
                for j, b in other_nz[k]:
                    acc[j] += a * b
            out.append([x % p for x in acc] if p else _canon_q_all(acc))
        return Matrix._of(F, out, n)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        F = self.field
        return Matrix._of(
            F, [vec_add(F, a, b) for a, b in zip(self.entries, other.entries)], self.cols
        )

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        F = self.field
        return Matrix._of(
            F, [vec_sub(F, a, b) for a, b in zip(self.entries, other.entries)], self.cols
        )

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.coerce(c)
        return Matrix._of(F, [vec_scale(F, c, r) for r in self.entries], self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def trace(self):
        F = self.field
        s = F.zero()
        for i in range(min(self.rows, self.cols)):
            s += self.entries[i][i]
        p = _modulus(F)
        return s % p if p else canon_q(s)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.entries]!r})"


def _rref(field: Field, rows: list) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination: ``(rows, pivots)``, the nonzero rows of the
    reduced row echelon form (new lists of field scalars, in pivot order)
    and their pivot columns.  The input rows are equal-length sequences of
    canonical scalars, as ``Matrix._of`` and ``Subspace._of`` take them:
    residues in [0, p) over GF(p), ``fields.canon_q`` values over Q.  They
    are never mutated.  Dispatches once to the kernel of the field: sparse
    in-place Gauss-Jordan over GF(p), and over Q the fraction-free loop,
    which divides a row by its content only after a cross-multiplication."""
    p = _modulus(field)
    if p:
        return _rref_gf(p, rows)
    return _rref_q(rows)


def _rref_gf(p: int, rows) -> tuple[list, list[int]]:
    """The GF(p) kernel of ``_rref`` on rows of residues in [0, p), which
    are copied and never mutated; the returned rows are residues in [0, p).

    Sparse and in place: the pivot row is normalised once and its nonzero
    (column, value) pairs right of the pivot collected; every other row
    with a nonzero in the pivot column is cleared by updating only those
    columns, one ``% p`` per updated entry."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for pr in range(r, m):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        rows[pr] = rows[r]
        rows[r] = prow
        # rows r.. are zero left of column c, so the pivot row's nonzeros
        # after its pivot are all a row operation touches
        inv = pow(prow[c], -1, p)
        prow[c] = 1
        tail = []
        for j in range(c + 1, n):
            x = prow[j]
            if x:
                x = x * inv % p
                prow[j] = x
                tail.append((j, x))
        for row in rows:
            f = row[c]
            if f and row is not prow:
                row[c] = 0
                for j, y in tail:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _rref_q(rows) -> tuple[list, list[int]]:
    """The Q kernel of ``_rref`` on rows of ``fields.canon_q`` values, which
    are copied and never mutated; the returned rows are canonical.

    Fraction-free and in place: an all-``int`` row is copied as it is, any
    other is scaled by the lcm of its denominators.  The pivot is the first
    entry +-1 of its column, else the smallest in absolute value, and its
    row's nonzero (column, value) pairs right of the pivot are collected
    once.  A row whose entry b in the pivot column is a multiple of the
    pivot a loses (b / a) times the pivot row over those pairs; any other
    row is scaled by a / gcd(a, b), loses b / gcd(a, b) times the pivot row
    and is divided by its content.  Rows are divided by their pivots only
    when emitted: ``x // a`` where a divides, ``Fraction(x, a)`` where not.
    """
    ints = [_cleared(row) if Fraction in set(map(type, row)) else list(row) for row in rows]
    m = len(ints)
    n = len(ints[0]) if ints else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        # any nonzero pivot gives the same RREF; a unit or the smallest
        # keeps the multipliers small
        pr, best = None, 0
        for i in range(r, m):
            x = ints[i][c]
            if x:
                if x == 1 or x == -1:
                    pr = i
                    break
                if pr is None or abs(x) < best:
                    pr, best = i, abs(x)
        if pr is None:
            continue
        prow = ints[pr]
        ints[pr] = ints[r]
        ints[r] = prow
        # rows r.. are zero left of column c, so the pivot row's nonzeros
        # after its pivot are all a row operation touches
        a = prow[c]
        tail = [(j, x) for j, x in enumerate(prow[c + 1 :], c + 1) if x]
        for row in ints:
            b = row[c]
            if b and row is not prow:
                if b % a:
                    g = gcd(a, b)
                    ag, bg = a // g, b // g
                    row[:] = [ag * x for x in row]
                    row[c] = 0
                    for j, y in tail:
                        row[j] -= bg * y
                    g = gcd(*row)
                    if g > 1:
                        row[:] = [x // g for x in row]
                else:
                    f = b // a
                    row[c] = 0
                    for j, y in tail:
                        row[j] -= f * y
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(ints, pivots):
        a = row[c]
        out.append(row if a == 1 else [x // a if not x % a else Fraction(x, a) for x in row])
    return out, pivots


def rref_solve(A: Matrix, b: Vector | None = None):
    """Reduce A; optionally solve A x = b.

    Returns ``(rref, rank, particular, nullspace)``; ``particular`` is a
    solution vector when ``b`` lies in the column space, else ``None``.
    """
    F = A.field
    if A.rows == 0:
        raise DimensionMismatch("empty matrix")
    if b is not None and len(b) != A.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    n = A.cols
    if b is None:
        work = A.entries
    else:
        work = [r + (bv,) for r, bv in zip(A.entries, vec(F, b))]
    red, pivots = _rref(F, work)
    if b is not None:
        aug_col = n
        pivots_a = [c for c in pivots if c < aug_col]
        consistent = len(pivots_a) == len(pivots)
        rank = len(pivots_a)
        rref_rows = [tuple(row[:n]) for row in red[:rank]]
        particular = None
        if consistent:
            x = [F.zero()] * n
            for i, c in enumerate(pivots_a):
                x[c] = red[i][aug_col]
            particular = tuple(x)
    else:
        pivots_a = pivots
        rank = len(pivots)
        rref_rows = [tuple(row) for row in red]
        particular = None
    rref_mat = Matrix._of(F, rref_rows, n) if rref_rows else Matrix.zero(F, 0, n)

    return rref_mat, rank, particular, Subspace._of(F, n, _null_rows(F, n, rref_rows, pivots_a))


def nullspace(F: Field, n: int, rows: Sequence) -> "Subspace":
    """The x in F^n with r . x = 0 for every row r, F^n when there are no
    rows: the span of the ``_null_rows`` of one ``_rref``.  The rows have
    length n and canonical scalars, as ``Subspace._of`` takes them."""
    if not rows:
        return Subspace.full(F, n)
    return Subspace._of(F, n, _null_rows(F, n, *_rref(F, rows)))


def _null_rows(F: Field, n: int, rref_rows: Sequence, pivots: Sequence[int]) -> list:
    """A kernel basis of a matrix with n columns, from the nonzero rows of
    its reduced row echelon form and their pivots: one list per free column,
    unit at the free column, of canonical scalars, not in RREF."""
    p = _modulus(F)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    null_rows = []
    for fc in free:
        v = [F.zero()] * n
        v[fc] = F.one()
        for i, pc in enumerate(pivots):
            x = rref_rows[i][fc]
            v[pc] = -x % p if p else -x
        null_rows.append(v)
    return null_rows


class Subspace:
    """A subspace of F^n held as a canonical RREF basis without zero rows."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_nz", "_forms", "_hash")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._nz = None
        self._forms = None
        self._hash = None

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable) -> "Subspace":
        vs = [vec(field, v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        return cls._of(field, ambient_dim, vs)

    @classmethod
    def _of(cls, field: Field, ambient_dim: int, rows: Sequence) -> "Subspace":
        """The span of rows of length ``ambient_dim`` whose scalars are
        already canonical (as ``Matrix._of`` takes them), with no coercion
        and no length check."""
        if not rows:
            return cls(field, ambient_dim, (), ())
        red, pivots = _rref(field, rows)
        return cls(field, ambient_dim, tuple(map(tuple, red)), tuple(pivots))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        rows = tuple(unit_vec(field, ambient_dim, i) for i in range(ambient_dim))
        return cls(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _nonzero_rows(self) -> tuple:
        """The basis rows as the (column, value) pairs of their nonzero
        entries, for ``_reduce``; built on first use."""
        if self._nz is None:
            self._nz = tuple([_nonzeros(r) for r in self.basis])
        return self._nz

    def _membership_forms(self) -> tuple:
        """Per column t off the pivots, t and the (pivot c, row entry at t)
        pairs of the basis rows that are nonzero at t; built on first use.
        A vector v lies in the subspace exactly when each v[t] is the sum of
        a * v[c] over its pairs (``_satisfies``): the RREF basis spans the
        vectors that equal sum_c v[c] * row_c, and at the pivots that sum
        is v itself."""
        if self._forms is None:
            pivot_set = set(self.pivots)
            self._forms = tuple([
                (t, tuple([(c, row[t]) for c, row in zip(self.pivots, self.basis) if row[t]]))
                for t in range(self.ambient_dim)
                if t not in pivot_set
            ])
        return self._forms

    def reduce(self, v: Vector) -> Vector:
        """Residue of v after elimination by the basis (zero iff v is inside)."""
        return tuple(_reduce(_modulus(self.field), list(v), self._nonzero_rows(), self.pivots))

    def coords(self, v: Vector) -> Vector:
        """Coefficients of v on the RREF basis; raises if v is outside."""
        cs = tuple(v[p] for p in self.pivots)
        if not (self.is_full() or self.contains(v)):
            raise ValueError("vector not contained in the subspace")
        return cs

    def contains(self, v: Vector) -> bool:
        """Whether v lies inside, by the membership forms; the entries of v
        need not be reduced."""
        return _satisfies(_modulus(self.field), self._membership_forms(), v)

    def contains_space(self, other: "Subspace") -> bool:
        """Whether other lies inside this subspace.  The pivots of an RREF
        basis are the leading positions of the nonzero vectors it spans, so
        containment forces other's pivots to be pivots here; they are
        compared before any row is tested against the membership forms."""
        self._check_ambient(other)
        if not set(self.pivots).issuperset(other.pivots):
            return False
        p, forms = _modulus(self.field), self._membership_forms()
        for v in other.basis:
            if not _satisfies(p, forms, v):
                return False
        return True

    def _check_ambient(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace._of(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap V by one Zassenhaus elimination of the rows [u | u] over
        [v | 0] in F^2n.  The row space holds (x, y) with y in U and x - y
        in V, and its elements with x = 0 are (0, y) for y in U cap V.  So
        the rows of the reduced echelon form whose pivot lies in the right
        half are zero on the left, and their right halves are the
        canonical RREF basis of U cap V."""
        self._check_ambient(other)
        F = self.field
        n = self.ambient_dim
        if self.is_zero() or other.is_zero():
            return Subspace.zero(F, n)
        if self.is_full():
            return other
        if other.is_full():
            return self
        zero = (F.zero(),) * n
        red, pivots = _rref(F, [u + u for u in self.basis] + [v + zero for v in other.basis])
        k = bisect(pivots, n - 1)
        return Subspace(
            F, n, tuple(tuple(row[n:]) for row in red[k:]), tuple(c - n for c in pivots[k:])
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class QuotientMap:
    """Coordinates on W/U for subspaces U <= W of a common ambient space.

    ``project`` maps ambient vectors of W onto W/U coordinates (kernel is
    exactly U), and ``project_all`` a batch of them; ``lift`` is a right
    inverse built from the canonical RREF complement, so lifted
    representatives are deterministic.  ``lifts`` is the lift basis, the
    lifts of the unit coordinate vectors, ``induced`` the matrix on W/U
    of a map leaving W and U invariant, and ``graph`` the lifted graph of a
    map from W/U to another section.

    Projection is one linear map on ambient vectors, built on first use:
    each W/U coordinate is a fixed combination of the entries of v at W's
    pivots, and v lies in W exactly when each entry off W's pivots is the
    combination of those entries that W's RREF basis prescribes: W's own
    membership forms (``Subspace._membership_forms``), against which every
    projected vector is checked.

    The coordinates of a section do not depend on the space it is read in:
    for U <= X <= W, the RREF basis of ``QuotientMap(W, U).project_space(X)``
    lifts to exactly ``QuotientMap(X, U).lifts``, since the pivots of U are
    pivots of X and the rows of X's RREF basis off U's pivots vanish there.
    So X/U is read in its own coordinates, never through a larger section.
    """

    __slots__ = ("field", "W", "U", "dim", "_ucoords", "lifts", "_free", "_projector")

    def __init__(self, W: Subspace, U: Subspace):
        W._check_ambient(U)
        if not W.contains_space(U):
            raise ValueError("denominator is not contained in the numerator")
        F = W.field
        self.field = F
        self.W = W
        self.U = U
        # U written in W-coordinates; its pivots mark directions that die in
        # the quotient, the complementary W-coordinates survive.  U's pivots
        # are pivots of W, so U's RREF rows read at W's pivots are already in
        # RREF, with pivots at the places of U's pivots among W's.
        place = {c: j for j, c in enumerate(W.pivots)}
        self._ucoords = Subspace(
            F,
            W.dim,
            tuple([tuple([u[c] for c in W.pivots]) for u in U.basis]),
            tuple([place[c] for c in U.pivots]),
        )
        self._free = tuple([j for j in range(W.dim) if j not in self._ucoords.pivots])
        self.dim = len(self._free)
        self.lifts = tuple([W.basis[j] for j in self._free])
        self._projector = None

    def _projection(self) -> tuple:
        """``(lead, extra)``, the linear forms of the W/U coordinates.  The
        coordinate f is the entry of ``_ucoords.reduce`` at the free
        W-coordinate j = ``_free[f]``, written on the ambient entries at W's
        pivots: v[lead[f]], for lead[f] the pivot of W's row j, plus the
        pairs that ``extra`` holds for f, if any.  Membership in W is W's
        own test, its membership forms."""
        if self._projector is None:
            wp, ucoords = self.W.pivots, self._ucoords
            p = _modulus(self.field)
            lead = tuple(wp[j] for j in self._free)
            extra = []
            for f, j in enumerate(self._free):
                terms = tuple(
                    (wp[c], -row[j] % p if p else -row[j])
                    for c, row in zip(ucoords.pivots, ucoords.basis)
                    if row[j]
                )
                if terms:
                    extra.append((f, terms))
            self._projector = lead, tuple(extra)
        return self._projector

    def project(self, v: Vector) -> Vector:
        return self.project_all((v,))[0]

    def project_all(self, vectors: Iterable[Vector]) -> list:
        """The W/U coordinates of each vector, in canonical scalars; raises
        ``ValueError`` at the first vector outside W.  The entries of a
        vector need not be reduced: over GF(p) any ints, over Q any
        rationals."""
        lead, extra = self._projection()
        p = _modulus(self.field)
        forms = self.W._membership_forms()
        out = []
        for v in vectors:
            if not _satisfies(p, forms, v):
                raise ValueError("vector not contained in the subspace")
            coords = [v[c] for c in lead]
            for f, terms in extra:
                x = coords[f]
                for c, a in terms:
                    x += a * v[c]
                coords[f] = x
            out.append(tuple([x % p for x in coords]) if p else tuple(_canon_q_all(coords)))
        return out

    def lift(self, coords: Vector) -> Vector:
        if len(coords) != self.dim:
            raise DimensionMismatch("coordinate length mismatch")
        if not self.dim:
            return zero_vec(self.field, self.W.ambient_dim)
        return lin_comb(self.field, coords, self.lifts)

    def induced(self, op: Callable[[Vector], Vector]) -> Matrix:
        """The matrix on W/U of the map ``op`` on ambient vectors, which
        must leave W and U invariant."""
        cols = self.project_all([op(v) for v in self.lifts])
        return Matrix._of(self.field, list(zip(*cols)), self.dim)

    def graph(self, target: "QuotientMap", T: Matrix) -> Subspace:
        """The graph of the matrix ``T`` from W/U coordinates to ``target``'s,
        lifted to the ambient space: the span of each lift x_i plus
        ``target.lift(T e_i)``, together with ``target.U``."""
        F, one = self.field, self.field.one()
        vecs = [lin_comb(F, (one, *T.col(i)), (x, *target.lifts)) for i, x in enumerate(self.lifts)]
        return Subspace._of(F, self.W.ambient_dim, vecs + list(target.U.basis))

    def project_space(self, X: Subspace) -> Subspace:
        """Image of a subspace of W in quotient coordinates."""
        return Subspace._of(self.field, self.dim, self.project_all(X.basis))

    def lift_space(self, Xq: Subspace) -> Subspace:
        """Preimage of a quotient subspace, always containing U."""
        vecs = [self.lift(v) for v in Xq.basis] + list(self.U.basis)
        return Subspace._of(self.field, self.W.ambient_dim, vecs)


def invert_matrix(M: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    F = M.field
    n = M.rows
    if n != M.cols:
        raise DimensionMismatch("inverse needs a square matrix")
    if n == 0:
        return Matrix(F, [])
    aug = [r + unit_vec(F, n, i) for i, r in enumerate(M.entries)]
    red, pivots = _rref(F, aug)
    if pivots != list(range(n)):
        return None
    return Matrix._of(F, [row[n:] for row in red], n)


def intersect_many(spaces: Sequence[Subspace]) -> Subspace:
    if not spaces:
        raise ValueError("empty intersection")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = acc.intersect(s)
    return acc
