"""The Lie algebra kernel: structure constants, brackets of subspaces,
centralizers, cores, characteristic series, quotients, semidirect sums and
unipotent automorphisms.

A ``LieAlgebra`` stores the bracket table densely over index pairs i < j,
as ``_antisymmetric_table`` reads it from brackets given on ordered pairs
for ``validate_algebra`` and ``corpus.load``; the Jacobi identity is
validated at construction time on every basis triple through a nonzero pair
of the table.  Brackets are computed from a sparse copy of the table built
once per algebra by one kernel, ``LieAlgebra._bracket_sum``, which sums a b
[e_i, e_j] over the nonzero entries of two vectors and leaves the sum
unreduced.  ``LieAlgebra.bracket``, ``LieAlgebra.ad``, the Jacobi check,
``section_action`` and the subspace builders ``brackets_inside``,
``bracket_colon`` (through ``_colon_rows``) and ``bracket_spaces`` all call
it; the builders read their bases as each ``Subspace``'s cached nonzero
rows.  ``brackets_inside`` tests each sum against W's membership forms and
``_colon_rows`` reads its coordinates on L/W by ``QuotientMap.project_all``.
All values are immutable and every operation is a pure function;
``memoized`` keeps the results of the costly structural ones on the algebra
they were computed for.

Each linear system built from brackets has one builder here:
``bracket_colon`` solves {x in X : [x, Y] <= W}, which is the centralizer,
the centralizer of a section and each step of ``core``;
``section_action`` gives the matrices of ad x on a section W/U, the
factor modules and semidirect models, summing each [x, lift] with the
kernel and projecting all of them with one
``QuotientMap.project_all``; ``unipotent_conjugator`` solves
(1 + ad a)K1 = K2 for a square-zero ad a, for crown complements and
core-free maximals alike; ``bracket_law_failure`` and
``preserves_brackets`` check a representation and a homomorphism.  A
quotient L/I is a ``QuotientAlgebra``: the ``QuotientMap`` of L onto L/I
carrying the quotient ``algebra``, whose basis vectors lift to the map's
``lifts``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Sequence
from math import factorial

from .fields import Field
from .linalg import (
    DimensionMismatch,
    Matrix,
    QuotientMap,
    Subspace,
    Vector,
    _canon_q_all,
    _modulus,
    _nonzeros,
    _satisfies,
    lin_comb,
    mat_comb,
    nullspace,
    rref_solve,
    unit_vec,
    vec,
    vec_is_zero,
    zero_vec,
)
from .status import CertificationFailure


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
    coordinates of [e_i, e_j] for both orders, the sign already applied.
    ``_bracket_sum`` is the one bracket kernel: it sums u_i v_j [e_i, e_j]
    over supp(u) x supp(v) only, given as (index, value) pairs, and leaves
    the sum unreduced.  ``bracket`` reduces it once; ``ad`` reads column j
    from the support of a against the unit pair (j, 1); the Jacobi check
    adds [[e_i, e_j], e_k] over the nonzeros of [e_i, e_j]; and
    ``section_action``, ``brackets_inside``, ``_colon_rows`` and
    ``bracket_spaces`` call it on the cached nonzero rows of their bases,
    and read the sums modulo a subspace by its membership forms or by
    ``QuotientMap.project_all``.
    The hash is computed once, in the constructor, since every memo key on
    a chief factor or a module hashes the algebra.
    """

    __slots__ = (
        "field", "dim", "basis_names", "table", "_nonzero_pairs", "_sparse", "_memo", "_full",
        "_hash",
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
        self._hash = hash((field, dim, self._nonzero_pairs))
        p = _modulus(field)
        sparse = [[()] * dim for _ in range(dim)]
        for (i, j), w in tab.items():
            nz = _nonzeros(w)
            sparse[i][j] = nz
            sparse[j][i] = tuple((k, -c % p if p else -c) for k, c in nz)
        self._sparse = tuple(map(tuple, sparse))
        self._memo = {}
        self._full = None
        if validate:
            self._validate_jacobi()

    def _validate_jacobi(self):
        """Raise ``JacobiViolation`` at the first basis triple i < j < k, in
        lexicographic order, on which [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
        + [[e_k, e_i], e_j] is not zero.  A triple whose three pairs all
        bracket to zero satisfies the identity, so only the triples through
        a nonzero pair of the table are summed."""
        p = _modulus(self.field)
        sparse = self._sparse
        triples = set()
        for i, j in self._nonzero_pairs:
            for k in range(self.dim):
                if k != i and k != j:
                    triples.add(tuple(sorted((i, j, k))))
        for i, j, k in sorted(triples):
            s = [0] * self.dim
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                self._bracket_sum(sparse[a][b], ((c, 1),), s)
            if any(x % p for x in s) if p else any(s):
                raise JacobiViolation(i, j, k)

    def basis_bracket(self, i: int, j: int) -> Vector:
        out = [self.field.zero()] * self.dim
        for k, c in self._sparse[i][j]:
            out[k] = c
        return tuple(out)

    def _bracket_sum(self, u: Sequence, v: Sequence, out: list | None = None) -> list:
        """[u, v] as the sum of a b [e_i, e_j] over the nonzero (i, a) pairs
        ``u`` and (j, b) pairs ``v`` of two vectors, read from ``_sparse``
        and added into ``out`` (a new zero list when None; the Jacobi check
        sums three brackets into one).  The entries are left unreduced: a
        caller reduces them once, or hands them to ``linalg._satisfies`` or
        ``QuotientMap.project_all``, which take unreduced entries."""
        if out is None:
            out = [0] * self.dim
        sparse = self._sparse
        for i, a in u:
            row = sparse[i]
            for j, b in v:
                nz = row[j]
                if nz:
                    ab = a * b
                    for k, c in nz:
                        out[k] += ab * c
        return out

    def bracket(self, u: Vector, v: Vector) -> Vector:
        out = self._bracket_sum(_nonzeros(u), _nonzeros(v))
        p = _modulus(self.field)
        if p:
            return tuple([x % p for x in out])
        return tuple(_canon_q_all(out))

    def ad(self, a: Vector) -> Matrix:
        """Matrix of x -> [a, x]: column j is ``_bracket_sum`` of the
        nonzeros of a against the unit pair (j, 1), reduced once."""
        n = self.dim
        terms = _nonzeros(a)
        rows = zip(*[self._bracket_sum(terms, ((j, 1),)) for j in range(n)])
        p = _modulus(self.field)
        if p:
            return Matrix._of(self.field, [[x % p for x in r] for r in rows], n)
        return Matrix._of(self.field, [_canon_q_all(r) for r in rows], n)

    def full_space(self) -> Subspace:
        """The whole algebra as a subspace, built on first use and kept."""
        if self._full is None:
            self._full = Subspace.full(self.field, self.dim)
        return self._full

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def span(self, vectors) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim, vectors)

    def __eq__(self, other):
        # an algebra is mostly compared with itself (memo keys, hom spaces)
        return other is self or (
            isinstance(other, LieAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, field={self.field!r})"


_MISSING = object()


def memoized(fn):
    """Compute ``fn`` once per algebra and argument values.

    The first argument is a ``LieAlgebra`` or carries one as ``.algebra``
    (a chief factor or a module).  Results live in that algebra's ``_memo``
    dict, keyed by ``fn`` and the arguments other than the algebra compared
    by value, so a cache lives and dies with its ``LieAlgebra`` instance; an
    exception is not cached.  Applied to:

    * in ``algebra``: ``is_ideal``, ``centralizer``, ``factor_centralizer``,
      ``core``, ``killing_radical``, ``is_solvable``, ``nilpotent_residual``
      and ``quotient_algebra``;
    * in ``modules``: ``factor_module``, ``restrict_module``,
      ``quotient_module``, ``certify_irreducible``,
      ``_composition_factors`` (a tuple of factors), ``socle_space``,
      ``socle_and_minimal_ideals``, ``_hom_basis`` (the maps behind
      ``hom_space``, which returns a new list of them on every call) and
      ``split_abelian_extension`` (whose certificate a chief factor's
      complement flags read);
    * in ``chief``: ``chief_series`` (keyed on ``choices``, so a report,
      its crowns and radical and the oracle share one series),
      ``classify_factor``, ``module_isomorphic`` and ``connected``;
    * in ``crowns``: ``denominator_intersection``, ``_classes`` (the
      connectedness classes), ``crown_of_factor`` and ``all_crowns``;
    * in ``primitive``: ``classify_primitive`` (keyed on the section N, a
      zero N sharing the entry of L/0);
    * in ``oracle``: ``_maximal_cores`` (each maximal core with the minimal
      ideals above it, which ``oracle_check`` reads too) and
      ``_maximal_supplements`` (the per-maximal data of
      ``four_core_intersections``).

    A cached function must be pure and return an immutable value, because
    every caller shares it; module budget constants such as
    ``modules.VECTOR_ENUM_BUDGET`` are read at the first computation only.
    Every call is keyed by its full positional form: an argument passed by
    keyword as if passed by position, and an omitted trailing argument by
    its default, so ``all_crowns(L)`` and ``all_crowns(L, None)`` share one
    value; a missing required argument, or an unexpected or repeated one,
    raises ``TypeError``.  The parameter names and defaults are read from
    ``fn.__code__`` and ``fn.__defaults__``, so that importing the package
    does not import ``inspect``.
    """

    code = fn.__code__
    names = code.co_varnames[1 : code.co_argcount]  # the parameters after the first
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))

    @functools.wraps(fn)
    def cached(first, *args, **kwargs):
        if kwargs or len(args) < len(names):  # key a call as its full positional form
            rest = names[len(args) :]
            extra = kwargs.keys() - rest
            missing = [n for n in rest if n not in kwargs and n not in defaults]
            if extra or missing:
                raise TypeError(f"{fn.__name__}() got unexpected or repeated {sorted(extra)}, lacks {missing}")
            args = (*args, *(kwargs[n] if n in kwargs else defaults[n] for n in rest))
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
    pairs = {(i, j): vec(field, sc_table[i][j]) for i in range(dim) for j in range(dim)}
    if any(len(v) != dim for v in pairs.values()):
        raise DimensionMismatch("structure constant vector has wrong length")
    return LieAlgebra(field, dim, _antisymmetric_table(field, pairs))


def _antisymmetric_table(F: Field, pairs: dict) -> dict:
    """The nonzero pairs i < j of the canonical vectors ``pairs[i, j]``: a
    pair not given is zero, one given only as (j, i) is negated.  Raises
    ``AntisymmetryViolation`` at the first bad pair i <= j, in the order
    (0, 0), (0, 1), ..., (1, 1), ...: [e_i, e_i] nonzero, or both orders
    given and not opposite.  ``LieAlgebra`` checks Jacobi."""
    table = {}
    for i, j in sorted({(min(k), max(k)) for k in pairs}):
        u, w = pairs.get((i, j)), pairs.get((j, i))
        if i == j and not vec_is_zero(F, u):
            raise AntisymmetryViolation(i, i)
        if i < j and None not in (u, w) and not vec_is_zero(F, lin_comb(F, (1, 1), (u, w))):
            raise AntisymmetryViolation(i, j)
        v = lin_comb(F, (-1,), (w,)) if u is None else u
        if i < j and not vec_is_zero(F, v):
            table[i, j] = v
    return table


def bracket_spaces(L: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """Span of all [u, v] over bases of U and V, summed from the nonzero
    rows of the bases; when U == V only the pairs a < b are bracketed."""
    _check_ambient(L, U)
    _check_ambient(L, V)
    us, vs = U._nonzero_rows(), V._nonzero_rows()
    same = U == V
    vecs = [L._bracket_sum(u, v) for a, u in enumerate(us) for v in (vs[a + 1 :] if same else vs)]
    return Subspace.from_vectors(L.field, L.dim, vecs)


def _check_ambient(L: LieAlgebra, U: Subspace):
    if U.field != L.field or U.ambient_dim != L.dim:
        raise DimensionMismatch("subspace does not live in the algebra")


def brackets_inside(L: LieAlgebra, U: Subspace, V: Subspace, W: Subspace) -> bool:
    """Whether [u, v] lies in W for all u in U and v in V.

    Each bracket of basis vectors is summed from the nonzero rows of the
    bases of U and V and tested against W's membership forms, and the test
    stops at the first one outside W; when U == V only the pairs
    a < b are bracketed ([u, u] = 0 and [v, u] = -[u, v]).  No span is
    built: use ``bracket_spaces`` when the span itself is needed."""
    _check_ambient(L, U)
    _check_ambient(L, V)
    _check_ambient(L, W)
    p, forms = _modulus(L.field), W._membership_forms()
    us, vs = U._nonzero_rows(), V._nonzero_rows()
    same = U == V
    for a, u in enumerate(us):
        for v in vs[a + 1 :] if same else vs:
            if not _satisfies(p, forms, L._bracket_sum(u, v)):
                return False
    return True


def is_subalgebra(L: LieAlgebra, U: Subspace) -> bool:
    return brackets_inside(L, U, U, U)


@memoized
def is_ideal(L: LieAlgebra, U: Subspace) -> bool:
    return brackets_inside(L, L.full_space(), U, U)


class IdealFlag(namedtuple("IdealFlag", "subspace is_subalgebra is_ideal")):
    __slots__ = ()
    subspace: Subspace
    is_subalgebra: bool
    is_ideal: bool


def ideal_flags(L: LieAlgebra, U: Subspace) -> IdealFlag:
    sub = is_subalgebra(L, U)
    return IdealFlag(U, sub, sub and is_ideal(L, U))


def _colon_rows(L: LieAlgebra, X: Subspace, Y: Subspace, quo: QuotientMap) -> list:
    """The matrix of x -> ([x, y] mod W, y over the basis of Y) in the
    coordinates of X, for ``quo`` the map of L onto L/W: for each y, one row
    of width dim X per coordinate of L/W, read by one ``quo.project_all``
    of all the brackets [x_i, y], each summed from the nonzero rows of the
    bases."""
    xs, ys, k = X._nonzero_rows(), Y._nonzero_rows(), X.dim
    cols = quo.project_all([L._bracket_sum(x, y) for y in ys for x in xs])
    return [
        tuple([col[f] for col in cols[i * k : (i + 1) * k]])
        for i in range(len(ys))
        for f in range(quo.dim)
    ]


def bracket_colon(L: LieAlgebra, X: Subspace, Y: Subspace, W: Subspace) -> Subspace:
    """{x in X : [x, Y] <= W}, one nullspace of ``_colon_rows`` in the
    coordinates of X.  Centralizers, centralizers of sections and the steps
    of ``core`` are its instances."""
    for U in (X, Y, W):
        _check_ambient(L, U)
    rows = _colon_rows(L, X, Y, QuotientMap(L.full_space(), W))
    if not rows or X.is_zero():
        return X
    null = nullspace(L.field, X.dim, rows)
    if X.is_full():
        return null
    return QuotientMap(X, L.zero_space()).lift_space(null)


@memoized
def centralizer(L: LieAlgebra, U: Subspace) -> Subspace:
    """All x with [x, U] = 0."""
    return bracket_colon(L, L.full_space(), U, L.zero_space())


@memoized
def factor_centralizer(L: LieAlgebra, A: Subspace, B: Subspace) -> Subspace:
    """All x with [x, A] contained in B (the centralizer of the section A/B)."""
    return bracket_colon(L, L.full_space(), A, B)


def _descending(X: Subspace, step) -> list[Subspace]:
    """The chain X, step(X), step(step(X)), ... up to its first term that is
    0 or that ``step`` fixes, which is the last one.  Every ``step`` here
    maps a term into itself, so the dimensions fall until the chain ends."""
    chain = [X]
    while not chain[-1].is_zero():
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain


@memoized
def core(L: LieAlgebra, U: Subspace) -> Subspace:
    """Largest ideal of L inside the subalgebra U, by descending stabilization:
    U_{k+1} = {u in U_k : [L, u] <= U_k}."""
    _check_ambient(L, U)
    if not is_subalgebra(L, U):
        raise AlgebraError("core is only defined for subalgebras")
    return _descending(U, lambda X: bracket_colon(L, X, L.full_space(), X))[-1]


def unipotent_conjugator(L: LieAlgebra, C: Subspace, K1: Subspace, K2: Subspace) -> Vector:
    """An a in C with (1 + ad a)(K1) = K2 and (ad a)^2 = 0, so that 1 + ad a
    is an automorphism.  [a, k] + k in K2 for the basis k of K1 is the
    system ``_colon_rows`` of C and K1 modulo K2 against the L/K2
    coordinates of -k, both read from one map of L onto L/K2; its
    particular solution is tried first, then the particular solution plus
    1, -1, 2 or -2 times each nullspace basis vector, and the first
    candidate that is square-zero and maps K1 onto K2 is returned."""
    F = L.field
    if K1 == K2:
        return zero_vec(F, L.dim)
    quo = QuotientMap(L.full_space(), K2)
    rows = _colon_rows(L, C, K1, quo)
    rhs = [-x for coords in quo.project_all(K1.basis) for x in coords]
    _, _, particular, null = rref_solve(Matrix._of(F, rows, C.dim), rhs)
    if particular is None:
        raise CertificationFailure("no conjugating element; solvable hypothesis violated?")
    candidates = [particular]
    for nv in null.basis:
        for scale in (1, -1, 2, -2):
            candidates.append(lin_comb(F, (1, scale), (particular, nv)))
    for coeffs in candidates:
        a = lin_comb(F, coeffs, C.basis)
        ada = L.ad(a)
        if not ada.matmul(ada).is_zero():
            continue
        images = [lin_comb(F, (1, 1), (k, ada.apply(k))) for k in K1.basis]
        if Subspace.from_vectors(F, L.dim, images) == K2:
            return a
    raise CertificationFailure("no square-nilpotent conjugator found in the solution family")


def section_action(L: LieAlgebra, xs: Sequence[Vector], qm: QuotientMap) -> list[Matrix]:
    """For each x in ``xs``, the matrix of v -> [x, v] on the section
    qm.W/qm.U in the coordinates of ``qm``; each ad x must leave W and U
    invariant.  Every [x, lift] is summed straight from the structure
    constants over the nonzeros of x and of the lift, and all of them go
    through one ``qm.project_all``, which checks that each lies in W."""
    F = L.field
    lifts = [_nonzeros(v) for v in qm.lifts]
    images = []
    for x in xs:
        terms = _nonzeros(x)
        images.extend([L._bracket_sum(terms, lift) for lift in lifts])
    cols = qm.project_all(images)
    m = qm.dim
    return [
        Matrix._of(F, list(zip(*cols[t * m : (t + 1) * m])), m) for t in range(len(xs))
    ]


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
    R = nullspace(L.field, n, [_canon_q_all(r) for r in rows])
    return R, R.intersect(D)


def derived_series(L: LieAlgebra) -> list[Subspace]:
    return _descending(L.full_space(), lambda X: bracket_spaces(L, X, X))


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    return _descending(L.full_space(), lambda X: bracket_spaces(L, L.full_space(), X))


def center(L: LieAlgebra) -> Subspace:
    return centralizer(L, L.full_space())


def characteristic_series(L: LieAlgebra):
    return derived_series(L), lower_central_series(L), center(L)


@memoized
def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L)[-1].is_zero()


@memoized
def nilpotent_residual(L: LieAlgebra) -> Subspace:
    """The last term of the lower central series: the least ideal of L with
    a nilpotent quotient."""
    return lower_central_series(L)[-1]


def is_nilpotent(L: LieAlgebra) -> bool:
    return nilpotent_residual(L).is_zero()


def subspace_is_solvable(L: LieAlgebra, U: Subspace) -> bool:
    """Solvability of a subalgebra U via its internal derived series."""
    return _descending(U, lambda X: bracket_spaces(L, X, X))[-1].is_zero()


class QuotientAlgebra(QuotientMap):
    """The coordinates of L onto L/I, and the quotient ``algebra``."""

    __slots__ = ("algebra",)


@memoized
def quotient_algebra(L: LieAlgebra, I: Subspace) -> QuotientAlgebra:
    """The quotient L/I with its projection/section; Jacobi is re-validated
    on every new quotient table.  L/I reached twice is one instance, and L/0
    is L itself, so value-equal quotients share one memo."""
    _check_ambient(L, I)
    if not is_ideal(L, I):
        raise AlgebraError("quotient requires an ideal")
    qa = QuotientAlgebra(L.full_space(), I)
    if I.is_zero():
        qa.algebra = L
        return qa
    names = []
    for v in qa.lifts:
        nz = [k for k, x in enumerate(v) if x]
        names.append(L.basis_names[nz[0]] + "~" if len(nz) == 1 else f"q{len(names)}")
    qa.algebra = LieAlgebra(L.field, qa.dim, section_table(L, qa), basis_names=names)
    return qa


def section_table(L: LieAlgebra, qm: QuotientMap) -> dict:
    """The bracket table of the section qm.W/qm.U of L (W a subalgebra, U
    an ideal of W) in the coordinates of ``qm``: the projections of the
    brackets of the lifts, in one ``project_all``.  M/N has the same table
    inside L/N as on its own (``QuotientMap``)."""
    lifts = [_nonzeros(v) for v in qm.lifts]
    pairs = [(i, j) for i in range(qm.dim) for j in range(i + 1, qm.dim)]
    images = qm.project_all([L._bracket_sum(lifts[i], lifts[j]) for i, j in pairs])
    return dict(zip(pairs, images))


def section_algebra(L: LieAlgebra, qm: QuotientMap) -> LieAlgebra:
    """The section qm.W/qm.U as an unvalidated algebra with the table of
    ``section_table``: its brackets are those of L, so Jacobi holds."""
    return LieAlgebra(L.field, qm.dim, section_table(L, qm), validate=False)


def bracket_law_failure(L: LieAlgebra, mats: Sequence[Matrix]) -> tuple[int, int] | None:
    """The first basis pair (i, j), i < j, on which ``mats`` (one square
    matrix per basis element of L) break the bracket law
    sum_k c_k mats[k] = mats[i] mats[j] - mats[j] mats[i], where
    [e_i, e_j] = sum_k c_k e_k; None when they represent L."""
    F = L.field
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = mat_comb(F, L.basis_bracket(i, j), mats)
            commutator = (mats[i].matmul(mats[j]), mats[j].matmul(mats[i]))
            if lhs != mat_comb(F, (1, -1), commutator):
                return i, j
    return None


def preserves_brackets(A: LieAlgebra, B: LieAlgebra, T: Matrix) -> bool:
    """Whether T[e_i, e_j] = [T e_i, T e_j] on every basis pair of A, that
    is, whether the linear map T: A -> B is a homomorphism."""
    F = A.field
    images = [T.apply(unit_vec(F, A.dim, i)) for i in range(A.dim)]
    return all(
        T.apply(A.basis_bracket(i, j)) == B.bracket(images[i], images[j])
        for i in range(A.dim)
        for j in range(i + 1, A.dim)
    )


def semidirect_sum(B: LieAlgebra, Q: LieAlgebra, action: Sequence[Matrix]) -> LieAlgebra:
    """Algebra on B + Q where Q acts on the ideal B by derivations.

    ``action[i]`` is the matrix of the i-th Q-basis element acting on B.
    The laws are checked once, by the Jacobi check of the returned algebra:
    on the basis triples (b, b', q) it is the derivation law and on
    (b, q, q') the homomorphism law, so a bad action raises
    ``JacobiViolation``.
    """
    F = B.field
    if Q.field != F:
        raise AlgebraError("summands live over different fields")
    if len(action) != Q.dim:
        raise AlgebraError("need one action matrix per basis element of the acting algebra")
    if any(M.rows != B.dim or M.cols != B.dim for M in action):
        raise DimensionMismatch("action matrix has wrong shape")
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
            table[(b, B.dim + i)] = emb_b(lin_comb(F, (-1,), (w,)))
    for i in range(Q.dim):
        for j in range(i + 1, Q.dim):
            table[(B.dim + i, B.dim + j)] = emb_q(Q.basis_bracket(i, j))
    names = tuple(f"b.{nm}" for nm in B.basis_names) + tuple(
        f"q.{nm}" for nm in Q.basis_names
    )
    return LieAlgebra(F, n, table, basis_names=names)


class NilpotentAutomorphism(namedtuple("NilpotentAutomorphism", "generator matrix")):
    __slots__ = ()
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
    mat = mat_comb(F, [F.inv(F.coerce(factorial(k))) for k in range(index)], powers)
    if not preserves_brackets(L, L, mat):  # hard postcondition
        raise AlgebraError("exp(ad a) failed bracket preservation")
    return NilpotentAutomorphism(a, mat)


def direct_sum(A: LieAlgebra, B: LieAlgebra) -> LieAlgebra:
    zero_action = [Matrix.zero(A.field, A.dim, A.dim) for _ in range(B.dim)]
    return semidirect_sum(A, B, zero_action)


def sub_algebra(L: LieAlgebra, W: Subspace) -> LieAlgebra:
    """The subalgebra W as an abstract algebra in its RREF coordinates: the
    section W/0."""
    if not is_subalgebra(L, W):
        raise AlgebraError("restriction requires a subalgebra")
    return section_algebra(L, QuotientMap(W, L.zero_space()))
