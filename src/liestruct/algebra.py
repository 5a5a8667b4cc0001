"""The Lie algebra kernel: structure constants, brackets of subspaces,
centralizers, cores, characteristic series, quotients, semidirect sums and
unipotent automorphisms.

A ``LieAlgebra`` stores the bracket table densely over index pairs i < j;
antisymmetry is reconstructed, and the Jacobi identity is validated on every
basis triple at construction time.  Brackets are computed from a sparse copy
of the table built once per algebra (see ``LieAlgebra``).  All values are
immutable and every operation is a pure function; ``memoized`` keeps the
results of the costly structural ones on the algebra they were computed for.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Sequence

from .fields import Field
from .linalg import (
    DimensionMismatch,
    Matrix,
    QuotientMap,
    Subspace,
    Vector,
    _modulus,
    _nonzeros,
    lin_comb,
    rref_solve,
    unit_vec,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vec,
)


class AlgebraError(ValueError):
    pass


class AntisymmetryViolation(AlgebraError):
    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"bracket table is not antisymmetric at pair ({i}, {j})")


class JacobiViolation(AlgebraError):
    def __init__(self, i: int, j: int, k: int):
        self.indices = (i, j, k)
        super().__init__(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")


class LieAlgebra:
    """A finite-dimensional Lie algebra given by structure constants.

    ``table[(i, j)]`` for i < j holds the coordinate vector of [e_i, e_j];
    missing pairs are zero.  Brackets use a sparse copy built once in the
    constructor: ``_sparse[i][j]`` holds the (k, c) pairs of the nonzero
    coordinates of [e_i, e_j] for both orders, the sign already applied, so
    ``bracket(u, v)`` sums u_i v_j [e_i, e_j] over supp(u) x supp(v) only.
    Every ``ad``, ``centralizer`` and Jacobi check brackets with a unit
    vector and so costs one column's nonzeros.
    """

    __slots__ = (
        "field", "dim", "basis_names", "table", "_nonzero_pairs", "_sparse", "_memo"
    )

    def __init__(self, field: Field, dim: int, table: dict, basis_names=None, validate=True):
        self.field = field
        self.dim = dim
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(dim)
        )
        if len(self.basis_names) != dim:
            raise AlgebraError("basis name count differs from dimension")
        tab = {}
        for (i, j), v in table.items():
            if not (0 <= i < j < dim):
                raise AlgebraError(f"table key ({i}, {j}) is not an ordered pair")
            w = vec(field, v)
            if len(w) != dim:
                raise DimensionMismatch("structure constant vector has wrong length")
            if not vec_is_zero(field, w):
                tab[(i, j)] = w
        self.table = tab
        self._nonzero_pairs = tuple(sorted(tab.keys()))
        p = _modulus(field)
        sparse = [[()] * dim for _ in range(dim)]
        for (i, j), w in tab.items():
            nz = _nonzeros(w)
            sparse[i][j] = nz
            sparse[j][i] = tuple((k, -c % p if p else -c) for k, c in nz)
        self._sparse = tuple(map(tuple, sparse))
        self._memo = {}
        if validate:
            self._validate_jacobi()

    def _validate_jacobi(self):
        F = self.field
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = self.bracket(self.basis_bracket(i, j), unit_vec(F, n, k))
                    s = vec_add(F, s, self.bracket(self.basis_bracket(j, k), unit_vec(F, n, i)))
                    s = vec_add(F, s, self.bracket(self.basis_bracket(k, i), unit_vec(F, n, j)))
                    if not vec_is_zero(F, s):
                        raise JacobiViolation(i, j, k)

    def basis_bracket(self, i: int, j: int) -> Vector:
        out = [self.field.zero()] * self.dim
        for k, c in self._sparse[i][j]:
            out[k] = c
        return tuple(out)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        F = self.field
        p = _modulus(F)
        out = [F.zero()] * self.dim
        supp_v = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a:
                row = self._sparse[i]
                for j, b in supp_v:
                    nz = row[j]
                    if nz:
                        ab = a * b
                        for k, c in nz:
                            out[k] += ab * c
        if p:
            return tuple(x % p for x in out)
        return tuple(out)

    def ad(self, a: Vector) -> Matrix:
        """Matrix of x -> [a, x] (columns are brackets with basis vectors)."""
        cols = [self.bracket(a, unit_vec(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def span(self, vectors) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim, vectors)

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.field, self.dim, self._nonzero_pairs))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, field={self.field!r})"


_MISSING = object()


def memoized(fn):
    """Compute ``fn`` once per algebra and argument values.

    The first argument is a ``LieAlgebra`` or carries one as ``.algebra``
    (a chief factor or a module).  Results live in that algebra's ``_memo``
    dict, keyed by ``fn`` and the arguments other than the algebra compared
    by value, so a cache lives and dies with its ``LieAlgebra`` instance; an
    exception is not cached.  Applied to ``quotient_algebra``, ``core``,
    ``killing_radical`` and ``is_solvable`` here, to ``socle_space``,
    ``certify_irreducible``, ``socle_and_minimal_ideals``, ``factor_module`` and
    ``split_abelian_extension`` in ``modules``, ``connected``,
    ``module_isomorphic`` and ``_classify_section`` (the status-free part of
    ``classify_factor``) in ``chief``, ``denominator_intersection``,
    ``crown_of_factor`` and ``all_crowns`` in ``crowns``, ``classify_primitive``
    (through a positional inner function keyed on ``use_oracle``) in
    ``primitive`` and ``_maximal_cores`` (the per-maximal data of
    ``four_core_intersections``) in ``oracle``.  A cached function must be
    pure and return an immutable value, because every caller shares it;
    module budget constants such as ``modules.VECTOR_ENUM_BUDGET`` are read
    at the first computation only.  An argument passed by keyword is keyed
    as if passed by position, with the defaults after it filled in.
    """

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def cached(first, *args, **kwargs):
        if kwargs:  # key a keyword call as its positional form
            bound = sig.bind(first, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        if isinstance(first, LieAlgebra):
            memo, key = first._memo, (fn, *args)
        else:
            memo, key = first.algebra._memo, (fn, first, *args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(first, *args)
        return value

    return cached


def validate_algebra(field: Field, dim: int, sc_table) -> LieAlgebra:
    """Build a LieAlgebra from a full dim x dim x dim table, reporting the
    first violated identity with its indices."""
    F = field
    full = [[vec(F, sc_table[i][j]) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        if not vec_is_zero(F, full[i][i]):
            raise AntisymmetryViolation(i, i)
        for j in range(i + 1, dim):
            if not vec_is_zero(F, vec_add(F, full[i][j], full[j][i])):
                raise AntisymmetryViolation(i, j)
    table = {
        (i, j): full[i][j]
        for i in range(dim)
        for j in range(i + 1, dim)
        if not vec_is_zero(F, full[i][j])
    }
    return LieAlgebra(F, dim, table)  # Jacobi checked in the constructor


def bracket_spaces(L: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """Span of all [u, v] over bases of U and V."""
    _check_ambient(L, U)
    _check_ambient(L, V)
    vecs = [L.bracket(u, v) for u in U.basis for v in V.basis]
    return Subspace.from_vectors(L.field, L.dim, vecs)


def _check_ambient(L: LieAlgebra, U: Subspace):
    if U.field != L.field or U.ambient_dim != L.dim:
        raise DimensionMismatch("subspace does not live in the algebra")


def brackets_inside(L: LieAlgebra, U: Subspace, V: Subspace, W: Subspace) -> bool:
    """Whether [u, v] lies in W for all u in U and v in V.

    Each bracket of basis vectors is reduced against W's RREF basis, and the
    test stops at the first one outside W; when U == V only the pairs a < b
    are bracketed ([u, u] = 0 and [v, u] = -[u, v]).  No span is built: use
    ``bracket_spaces`` when the span itself is needed."""
    _check_ambient(L, U)
    _check_ambient(L, V)
    _check_ambient(L, W)
    same = U == V
    for a, u in enumerate(U.basis):
        for v in V.basis[a + 1 :] if same else V.basis:
            if not W.contains(L.bracket(u, v)):
                return False
    return True


def is_subalgebra(L: LieAlgebra, U: Subspace) -> bool:
    return brackets_inside(L, U, U, U)


def is_ideal(L: LieAlgebra, U: Subspace) -> bool:
    return brackets_inside(L, L.full_space(), U, U)


@dataclass(frozen=True)
class IdealFlag:
    subspace: Subspace
    is_subalgebra: bool
    is_ideal: bool


def ideal_flags(L: LieAlgebra, U: Subspace) -> IdealFlag:
    sub = is_subalgebra(L, U)
    return IdealFlag(U, sub, sub and is_ideal(L, U))


def centralizer(L: LieAlgebra, U: Subspace) -> Subspace:
    """Exact solution set of [x, u] = 0 for all basis u of U."""
    _check_ambient(L, U)
    F = L.field
    if U.is_zero():
        return L.full_space()
    rows = []
    for u in U.basis:
        # linear map x -> [x, u]; row block = its matrix
        cols = [L.bracket(unit_vec(F, L.dim, i), u) for i in range(L.dim)]
        M = Matrix.from_columns(F, cols)
        rows.extend(M.entries)
    _, _, _, null = rref_solve(Matrix(F, rows))
    return null


def factor_centralizer(L: LieAlgebra, A: Subspace, B: Subspace) -> Subspace:
    """All x with [x, A] contained in B (the centralizer of the section A/B)."""
    _check_ambient(L, A)
    _check_ambient(L, B)
    F = L.field
    if A.is_zero():
        return L.full_space()
    amb = L.full_space()
    qm = QuotientMap(amb, B)
    rows = []
    for a in A.basis:
        cols = [qm.project(L.bracket(unit_vec(F, L.dim, i), a)) for i in range(L.dim)]
        if qm.dim == 0:
            continue
        M = Matrix.from_columns(F, cols)
        rows.extend(M.entries)
    if not rows:
        return L.full_space()
    _, _, _, null = rref_solve(Matrix(F, rows))
    return null


@memoized
def core(L: LieAlgebra, U: Subspace) -> Subspace:
    """Largest ideal of L inside the subalgebra U, by descending stabilization:
    U_{k+1} = {u in U_k : [L, u] <= U_k}."""
    _check_ambient(L, U)
    if not is_subalgebra(L, U):
        raise AlgebraError("core is only defined for subalgebras")
    F = L.field
    current = U
    while True:
        if current.is_zero():
            return current
        # u in current (coords c): [e_i, u] must reduce to zero mod current
        qm = QuotientMap(L.full_space(), current)
        if qm.dim == 0:
            return current
        rows = []
        for i in range(L.dim):
            cols = []
            for b in current.basis:
                cols.append(qm.project(L.bracket(unit_vec(F, L.dim, i), b)))
            M = Matrix.from_columns(F, cols)
            rows.extend(M.entries)
        _, _, _, null = rref_solve(Matrix(F, rows))
        vecs = [lin_comb(F, coeffs, current.basis) for coeffs in null.basis]
        nxt = Subspace.from_vectors(F, L.dim, vecs)
        if nxt == current:
            return current
        current = nxt


@memoized
def killing_radical(L: LieAlgebra) -> tuple[Subspace, Subspace]:
    """``(R, K)`` in characteristic 0: the solvable radical R, the orthogonal
    of [L, L] under the Killing form tr(ad x ad y), and K = R cap [L, L],
    which acts nilpotently on every finite-dimensional module (Bourbaki,
    *Lie Groups and Lie Algebras*, ch. I, §5.3 and §5.5)."""
    n = L.dim
    D = L.span(L.table.values())
    if D.is_zero():
        return L.full_space(), D
    # kappa(e_i, y) sums (ad e_i)_kj (ad y)_jk; (ad e_i)_kj is [e_i, e_j]_k
    rows = [
        [sum(c * ad_y[j][k] for j in range(n) for k, c in L._sparse[i][j]) for i in range(n)]
        for ad_y in (L.ad(y).entries for y in D.basis)
    ]
    R = rref_solve(Matrix(L.field, rows))[3]
    return R, R.intersect(D)


def derived_series(L: LieAlgebra) -> list[Subspace]:
    out = [L.full_space()]
    while True:
        nxt = bracket_spaces(L, out[-1], out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
        if nxt.is_zero():
            break
    return out


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    out = [L.full_space()]
    while True:
        nxt = bracket_spaces(L, L.full_space(), out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
        if nxt.is_zero():
            break
    return out


def center(L: LieAlgebra) -> Subspace:
    return centralizer(L, L.full_space())


def characteristic_series(L: LieAlgebra):
    return derived_series(L), lower_central_series(L), center(L)


@memoized
def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L)[-1].is_zero()


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L)[-1].is_zero()


def subspace_is_solvable(L: LieAlgebra, U: Subspace) -> bool:
    """Solvability of a subalgebra U via its internal derived series."""
    current = U
    while True:
        nxt = bracket_spaces(L, current, current)
        if nxt == current:
            return current.is_zero()
        current = nxt
        if current.is_zero():
            return True


@dataclass(frozen=True)
class QuotientAlgebra:
    algebra: LieAlgebra
    qmap: QuotientMap

    def project(self, v: Vector) -> Vector:
        return self.qmap.project(v)

    def lift(self, v: Vector) -> Vector:
        return self.qmap.lift(v)

    def project_space(self, X: Subspace) -> Subspace:
        return self.qmap.project_space(X)

    def lift_space(self, Xq: Subspace) -> Subspace:
        return self.qmap.lift_space(Xq)


@memoized
def quotient_algebra(L: LieAlgebra, I: Subspace) -> QuotientAlgebra:
    """The quotient L/I with its projection/section; Jacobi is re-validated
    on every new quotient table.  L/I reached twice is one instance, and L/0
    is L itself, so value-equal quotients share one memo."""
    _check_ambient(L, I)
    if not is_ideal(L, I):
        raise AlgebraError("quotient requires an ideal")
    F = L.field
    qm = QuotientMap(L.full_space(), I)
    if I.is_zero():
        return QuotientAlgebra(L, qm)
    q = qm.dim
    lifts = [qm.lift(unit_vec(F, q, i)) for i in range(q)]
    table = {}
    for i in range(q):
        for j in range(i + 1, q):
            w = qm.project(L.bracket(lifts[i], lifts[j]))
            table[(i, j)] = w
    names = []
    for v in lifts:
        nz = [k for k, x in enumerate(v) if x]
        names.append(L.basis_names[nz[0]] + "~" if len(nz) == 1 else f"q{len(names)}")
    Q = LieAlgebra(F, q, table, basis_names=names)
    return QuotientAlgebra(Q, qm)


def semidirect_sum(B: LieAlgebra, Q: LieAlgebra, action: Sequence[Matrix]) -> LieAlgebra:
    """Algebra on B + Q where Q acts on the ideal B by derivations.

    ``action[i]`` is the matrix of the i-th Q-basis element acting on B.  The
    derivation law and the homomorphism law are checked exhaustively on basis
    pairs before the sum is assembled.
    """
    F = B.field
    if Q.field != F:
        raise AlgebraError("summands live over different fields")
    if len(action) != Q.dim:
        raise AlgebraError("need one action matrix per basis element of the acting algebra")
    for i, M in enumerate(action):
        if M.rows != B.dim or M.cols != B.dim:
            raise DimensionMismatch("action matrix has wrong shape")
        # derivation law on all basis pairs of B
        for a in range(B.dim):
            for b in range(a + 1, B.dim):
                lhs = M.apply(B.basis_bracket(a, b))
                rhs = vec_add(
                    F,
                    B.bracket(M.apply(unit_vec(F, B.dim, a)), unit_vec(F, B.dim, b)),
                    B.bracket(unit_vec(F, B.dim, a), M.apply(unit_vec(F, B.dim, b))),
                )
                if lhs != rhs:
                    raise AlgebraError(f"action of basis element {i} is not a derivation")
    for i in range(Q.dim):
        for j in range(i + 1, Q.dim):
            w = Q.basis_bracket(i, j)
            lhs = Matrix.zero(F, B.dim, B.dim)
            for k, c in enumerate(w):
                if c:
                    lhs = lhs.add(action[k].scale(c))
            rhs = action[i].matmul(action[j]).sub(action[j].matmul(action[i]))
            if lhs != rhs:
                raise AlgebraError(
                    f"action is not a homomorphism on acting pair ({i}, {j})"
                )
    n = B.dim + Q.dim
    table = {}

    def emb_b(v):
        return tuple(v) + zero_vec(F, Q.dim)

    def emb_q(v):
        return zero_vec(F, B.dim) + tuple(v)

    for i in range(B.dim):
        for j in range(i + 1, B.dim):
            table[(i, j)] = emb_b(B.basis_bracket(i, j))
    for i in range(Q.dim):
        for b in range(B.dim):
            w = action[i].apply(unit_vec(F, B.dim, b))
            # pair (b, B.dim + i) with b < B.dim + i: [e_b, q_i] = -q_i . e_b
            table[(b, B.dim + i)] = emb_b(vec_scale(F, -1, w))
    for i in range(Q.dim):
        for j in range(i + 1, Q.dim):
            table[(B.dim + i, B.dim + j)] = emb_q(Q.basis_bracket(i, j))
    names = tuple(f"b.{nm}" for nm in B.basis_names) + tuple(
        f"q.{nm}" for nm in Q.basis_names
    )
    return LieAlgebra(F, n, table, basis_names=names)


@dataclass(frozen=True)
class NilpotentAutomorphism:
    generator: Vector
    matrix: Matrix

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def apply_space(self, U: Subspace) -> Subspace:
        return Subspace.from_vectors(
            self.matrix.field, self.matrix.cols, [self.apply(v) for v in U.basis]
        )


def nilpotent_automorphism(L: LieAlgebra, a: Vector) -> NilpotentAutomorphism:
    """exp(ad a) for ad-nilpotent a; in characteristic p the nilpotency index
    must be < p, otherwise the exponential is undefined and we refuse."""
    F = L.field
    a = vec(F, a)
    ada = L.ad(a)
    n = L.dim
    powers = [Matrix.identity(F, n)]
    index = None
    for k in range(1, n + 2):
        powers.append(powers[-1].matmul(ada))
        if powers[-1].is_zero():
            index = k
            break
    if index is None:
        raise AlgebraError("ad a is not nilpotent")
    char = F.characteristic()
    if char != 0 and index >= char:
        raise AlgebraError(
            f"nilpotency index {index} is not below the characteristic {char}; "
            "exp(ad a) is undefined"
        )
    mat = Matrix.zero(F, n, n)
    fact = 1
    for k in range(index):
        if k > 0:
            fact *= k
        inv = F.inv(F.coerce(fact))
        mat = mat.add(powers[k].scale(inv))
    # hard postcondition: bracket preservation on all basis pairs
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat.apply(L.basis_bracket(i, j))
            rhs = L.bracket(mat.apply(unit_vec(F, n, i)), mat.apply(unit_vec(F, n, j)))
            if lhs != rhs:
                raise AlgebraError("exp(ad a) failed bracket preservation")
    return NilpotentAutomorphism(a, mat)


def direct_sum(A: LieAlgebra, B: LieAlgebra) -> LieAlgebra:
    zero_action = [Matrix.zero(A.field, A.dim, A.dim) for _ in range(B.dim)]
    return semidirect_sum(A, B, zero_action)


def sub_algebra(L: LieAlgebra, W: Subspace) -> LieAlgebra:
    """The subalgebra W as an abstract algebra in its RREF coordinates."""
    if not is_subalgebra(L, W):
        raise AlgebraError("restriction requires a subalgebra")
    F = L.field
    table = {}
    for i in range(W.dim):
        for j in range(i + 1, W.dim):
            table[(i, j)] = W.coords(L.bracket(W.basis[i], W.basis[j]))
    return LieAlgebra(F, W.dim, table, validate=False)
