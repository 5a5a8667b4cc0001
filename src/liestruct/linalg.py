"""Exact dense linear algebra: matrices, reduced row echelon form, subspaces.

Subspaces are the universal currency of the library.  They are stored as
canonical RREF bases, so two subspaces are equal exactly when their basis
tuples are identical; that structural equality is the only equality notion
used downstream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .fields import Field, Scalar


class DimensionMismatch(ValueError):
    pass


Vector = tuple


def vec(field: Field, entries: Iterable) -> Vector:
    return tuple(field.coerce(x) for x in entries)


def zero_vec(field: Field, n: int) -> Vector:
    z = field.zero()
    return (z,) * n


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))

def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))

def vec_scale(field: Field, c: Scalar, u: Vector) -> Vector:
    return tuple(field.mul(c, a) for a in u)

def vec_is_zero(field: Field, u: Vector) -> bool:
    return all(field.is_zero(a) for a in u)


def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))


class Matrix:
    """Immutable rectangular matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in entries)
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

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [unit_vec(field, n, i) for i in range(n)])

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [zero_vec(field, cols)] * rows)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            return cls(field, [])
        n = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(n)])

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.col(j) for j in range(self.cols)])

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product (columns act on coordinates)."""
        F = self.field
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = []
        for r in self.entries:
            s = F.zero()
            for a, b in zip(r, v):
                if not F.is_zero(a) and not F.is_zero(b):
                    s = F.add(s, F.mul(a, b))
            out.append(s)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions disagree")
        F = self.field
        ocols = [other.col(j) for j in range(other.cols)]
        out = []
        for r in self.entries:
            row = []
            for c in ocols:
                s = F.zero()
                for a, b in zip(r, c):
                    if not F.is_zero(a) and not F.is_zero(b):
                        s = F.add(s, F.mul(a, b))
                row.append(s)
            out.append(row)
        return Matrix(F, out)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        F = self.field
        return Matrix(F, [vec_add(F, a, b) for a, b in zip(self.entries, other.entries)])

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        F = self.field
        return Matrix(F, [vec_sub(F, a, b) for a, b in zip(self.entries, other.entries)])

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.coerce(c)
        return Matrix(F, [vec_scale(F, c, r) for r in self.entries])

    def is_zero(self) -> bool:
        F = self.field
        return all(vec_is_zero(F, r) for r in self.entries)

    def trace(self):
        F = self.field
        s = F.zero()
        for i in range(min(self.rows, self.cols)):
            s = F.add(s, self.entries[i][i])
        return s

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
    """In-place Gauss-Jordan; returns (rref rows, pivot column list)."""
    F = field
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref_solve(A: Matrix, b: Optional[Vector] = None):
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
        work = [list(r) for r in A.entries]
    else:
        work = [list(r) + [bv] for r, bv in zip(A.entries, b)]
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
        rref_rows = [tuple(row) for row in red[:rank]]
        particular = None
    rref_mat = Matrix(F, rref_rows) if rref_rows else Matrix.zero(F, 0, n)

    # Kernel basis: one vector per free column, unit at the free column.
    free = [c for c in range(n) if c not in pivots_a]
    null_rows = []
    for fc in free:
        v = [F.zero()] * n
        v[fc] = F.one()
        for i, pc in enumerate(pivots_a):
            v[pc] = F.neg(rref_rows[i][fc] if i < len(rref_rows) else F.zero())
        null_rows.append(tuple(v))
    nullspace = Subspace.from_vectors(F, n, null_rows)
    return rref_mat, rank, particular, nullspace


class Subspace:
    """A subspace of F^n held as a canonical RREF basis without zero rows."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable) -> "Subspace":
        vs = [vec(field, v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        if not vs:
            return cls(field, ambient_dim, (), ())
        red, pivots = _rref(field, vs)
        basis = tuple(tuple(r) for r in red[: len(pivots)])
        return cls(field, ambient_dim, basis, tuple(pivots))

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

    def reduce(self, v: Vector) -> Vector:
        """Residue of v after elimination by the basis (zero iff v is inside)."""
        F = self.field
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if not F.is_zero(c):
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def coords(self, v: Vector) -> Vector:
        """Coefficients of v on the RREF basis; raises if v is outside."""
        F = self.field
        cs = tuple(v[p] for p in self.pivots)
        if not vec_is_zero(F, self.reduce(v)):
            raise ValueError("vector not contained in the subspace")
        return cs

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(v) for v in other.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(
            self.field, self.ambient_dim, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel construction: solve a u = b v across the two bases."""
        self._check_ambient(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Subspace.zero(F, self.ambient_dim)
        if self.is_full():
            return other
        if other.is_full():
            return self
        cols = [list(v) for v in self.basis] + [
            [F.neg(x) for x in v] for v in other.basis
        ]
        M = Matrix.from_columns(F, [tuple(c) for c in cols])
        _, _, _, null = rref_solve(M)
        vecs = []
        for coeffs in null.basis:
            w = zero_vec(F, self.ambient_dim)
            for c, bvec in zip(coeffs[: self.dim], self.basis):
                w = vec_add(F, w, vec_scale(F, c, bvec))
            vecs.append(w)
        return Subspace.from_vectors(F, self.ambient_dim, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    return U.sum(V)


def subspace_intersect(U: Subspace, V: Subspace) -> Subspace:
    return U.intersect(V)


class QuotientMap:
    """Coordinates on W/U for subspaces U <= W of a common ambient space.

    ``project`` maps ambient vectors of W onto W/U coordinates (kernel is
    exactly U); ``lift`` is a right inverse built from the canonical RREF
    complement, so lifted representatives are deterministic.
    """

    __slots__ = ("field", "W", "U", "dim", "_ucoords", "_lift_vecs", "_free")

    def __init__(self, W: Subspace, U: Subspace):
        W._check_ambient(U)
        if not W.contains_space(U):
            raise ValueError("denominator is not contained in the numerator")
        F = W.field
        self.field = F
        self.W = W
        self.U = U
        # U written in W-coordinates, re-reduced; its pivots mark directions
        # that die in the quotient, the complementary W-coordinates survive.
        ucoord_rows = [W.coords(u) for u in U.basis]
        self._ucoords = Subspace.from_vectors(F, W.dim, ucoord_rows)
        self._free = tuple(j for j in range(W.dim) if j not in self._ucoords.pivots)
        self.dim = len(self._free)
        self._lift_vecs = tuple(W.basis[j] for j in self._free)

    def project(self, v: Vector) -> Vector:
        c = self.W.coords(v)
        red = self._ucoords.reduce(c)
        return tuple(red[j] for j in self._free)

    def lift(self, coords: Vector) -> Vector:
        F = self.field
        if len(coords) != self.dim:
            raise DimensionMismatch("coordinate length mismatch")
        w = zero_vec(F, self.W.ambient_dim)
        for c, bvec in zip(coords, self._lift_vecs):
            w = vec_add(F, w, vec_scale(F, c, bvec))
        return w

    def project_space(self, X: Subspace) -> Subspace:
        """Image of a subspace of W in quotient coordinates."""
        return Subspace.from_vectors(
            self.field, self.dim, [self.project(v) for v in X.basis]
        )

    def lift_space(self, Xq: Subspace) -> Subspace:
        """Preimage of a quotient subspace, always containing U."""
        vecs = [self.lift(v) for v in Xq.basis] + list(self.U.basis)
        return Subspace.from_vectors(self.field, self.W.ambient_dim, vecs)


def quotient_coords(W: Subspace, U: Subspace) -> QuotientMap:
    return QuotientMap(W, U)


def invert_matrix(M: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None when singular."""
    F = M.field
    n = M.rows
    if n != M.cols:
        raise DimensionMismatch("inverse needs a square matrix")
    if n == 0:
        return Matrix(F, [])
    aug = [list(r) + list(unit_vec(F, n, i)) for i, r in enumerate(M.entries)]
    red, pivots = _rref(F, aug)
    if pivots != list(range(n)):
        return None
    return Matrix(F, [row[n:] for row in red[:n]])


def solve_linear(field: Field, rows: list, rhs: list):
    """Solve the stacked system rows . x = rhs; (particular, nullspace)."""
    if not rows:
        raise DimensionMismatch("no equations")
    M = Matrix(field, rows)
    _, _, particular, null = rref_solve(M, vec(field, rhs))
    return particular, null


def intersect_many(spaces: Sequence[Subspace]) -> Subspace:
    if not spaces:
        raise ValueError("empty intersection")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = acc.intersect(s)
    return acc


def sum_many(field: Field, ambient: int, spaces: Sequence[Subspace]) -> Subspace:
    acc = Subspace.zero(field, ambient)
    for s in spaces:
        acc = acc.sum(s)
    return acc
