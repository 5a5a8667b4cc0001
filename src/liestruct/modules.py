"""Module machinery for chief factors: factor modules, spinning, socles and
minimal ideals, hom spaces, module isomorphism, and the abelian-extension
splitting test.

Minimality of submodules is *certified*, never assumed:

* over GF(p), by a proper spin of a unit vector when there is one, and
  otherwise by Norton's criterion on the element theta = rho - lambda of
  least positive nullity k over the action matrices rho and the roots
  lambda in GF(p) of their characteristic polynomials: M is irreducible
  iff every nonzero vector of ker theta spins to M and one nonzero vector
  of ker theta^T spins to the dual module.  (A proper submodule U meeting
  ker theta only in 0 has theta(U) = U, so ker theta^T lies in the
  annihilator of U.)  That is (p^k - 1)/(p - 1) spins plus one, within
  budget.  Where that does not apply (no rho - lambda is singular, or p^k
  is over budget), an action matrix with an irreducible characteristic
  polynomial certifies, and otherwise every projective point of M is spun
  while p^dim is within budget;
* over the rationals, by a proper socle, which is a witness of
  reducibility; on a semisimple module by its endomorphism ring, where
  dim End(M) = 1 certifies irreducibility and a rational eigenvalue of an
  endomorphism gives a proper kernel as the witness; and otherwise by an
  action matrix with an irreducible characteristic polynomial.

When no certificate applies, the verdict stays open with a heuristic status.

Socles are exact: over GF(p) as the sum of the images of all module maps
from the composition factors (chopped off with ``certify_irreducible``):
for L/I from those of the adjoint module of L, chopped once per algebra,
which by Jordan-Hoelder hold every composition factor of L/I, and a
spun summand inside the isotypic component of a factor S, of dimension
dim S, needs no certificate of its own (``_isotypic``, ``_decompose``); in
characteristic zero, on any L-module, from the Killing radical of the
acting algebra: its solvable radical R and K = R cap [L, L]
(``algebra.killing_radical``) give the common kernel of the nilpotent action
of K, cut down by the squarefree part of the characteristic polynomial of
each basis element of R (``_socle_char0``).  L/I is read as the L-module
``factor_module(L, L, I)``, so the socle layer builds no quotient algebra;
when L/I is nilpotent (I contains ``algebra.nilpotent_residual(L)``), ad
acts on it by nilpotent maps, so by Engel's theorem every simple L-module
inside it is a trivial line, and its socle is its centre, read with no
module at all (``socle_and_minimal_ideals``).
The projective-point enumeration of a socle is kept in the oracle as
ground truth (``oracle.socle_bf``).

Section matrices are built once per section: ``factor_module`` takes the
matrices of ad e_i on A/B from ``algebra.section_action``, which sums every
bracket with a lift straight from the structure constants and projects all
of them with one ``QuotientMap.project_all``, and the memoized
``restrict_module`` and ``quotient_module`` take a module's submodules and
quotients from ``QuotientMap.induced`` of its action matrices.  One loop,
``_spin_rows``, spins submodules, hom spaces (t unknowns per generator of
M1, ``_hom_basis``, once per pair of modules), generated subalgebras
(``_generated``) and the graphs of the type-3 search (``_graph_hom``) into
a ``Subspace`` finished by ``_rref``; its action tables, seeds and
relations stay in this module.  Maps from a 1-dimensional module are a
joint eigenspace, one ``nullspace`` with no spin.
``complement_in_semisimple`` reads its projection from the hom basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .algebra import (
    AlgebraError,
    LieAlgebra,
    bracket_law_failure,
    brackets_inside,
    factor_centralizer,
    is_ideal,
    is_subalgebra,
    killing_radical,
    memoized,
    nilpotent_residual,
    section_action,
)
from .fields import Field, PrimeField
from .linalg import (
    Matrix,
    QuotientMap,
    Subspace,
    Vector,
    _canon_q_all,
    _cleared,
    _modulus,
    _nonzeros,
    _null_rows,
    _reduce,
    _rref,
    _rref_gf,
    lin_comb,
    mat_comb,
    nullspace,
    rref_solve,
    unit_vec,
    vec,
)
from .polys import charpoly, gf_roots, is_irreducible, rational_roots, squarefree_part
from .status import CERTIFIED, Status, heuristic, worst

VECTOR_ENUM_BUDGET = 1_000_000


class LModule:
    """A finite-dimensional module over a Lie algebra, one action matrix per
    algebra basis element; the commutator law is validated at construction.
    Two modules are equal when their algebras and action matrices are."""

    __slots__ = ("algebra", "dim", "mats", "_hash", "_nonzero", "_full", "_dual")

    def __init__(self, algebra: LieAlgebra, mats: Sequence[Matrix], validate=True):
        if len(mats) != algebra.dim:
            raise AlgebraError("need one action matrix per algebra basis element")
        d = mats[0].rows if mats else 0
        for M in mats:
            if M.rows != M.cols or M.rows != d:
                raise AlgebraError("action matrices must be square of equal size")
        self.algebra = algebra
        self.dim = d
        self.mats = tuple(mats)
        self._hash = None
        self._nonzero = None
        self._full = None
        self._dual = None
        if validate:
            self._validate()

    def __eq__(self, other):
        return (
            isinstance(other, LModule)
            and self.algebra == other.algebra
            and self.mats == other.mats
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.algebra, self.mats))
        return self._hash

    def nonzero_entries(self) -> tuple:
        """The action for ``spin``: ``_action`` of each nonzero action
        matrix; built on first use and kept on the instance."""
        if self._nonzero is None:
            cols = [_action(self.field, rho)[0] for rho in self.mats]
            self._nonzero = tuple([c for c in cols if any(c)])
        return self._nonzero

    def _validate(self):
        pair = bracket_law_failure(self.algebra, self.mats)
        if pair is not None:
            raise AlgebraError(f"action violates the bracket law on pair {pair}")

    @property
    def field(self) -> Field:
        return self.algebra.field

    def full_space(self) -> Subspace:
        if self._full is None:
            self._full = Subspace.full(self.field, self.dim)
        return self._full

    def dual(self) -> "LModule":
        """The module on the transposed action matrices, which has the
        invariant subspaces of the dual module (whose action is -rho^T);
        built on first use and kept on the instance."""
        if self._dual is None:
            trans = [rho.transpose() for rho in self.mats]
            self._dual = LModule(self.algebra, trans, validate=False)
        return self._dual

    def kernel_of_action(self) -> Subspace:
        """Elements of the algebra acting as zero."""
        rows = list(zip(*(sum(M.entries, ()) for M in self.mats)))  # entry (r, c) of each rho
        return nullspace(self.field, self.algebra.dim, rows)


@dataclass(frozen=True)
class ModuleMap:
    """An equivariant linear map between modules of one algebra."""

    source: LModule
    target: LModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra and (
            self.source.algebra != self.target.algebra
        ):
            raise AlgebraError("module map requires a common base algebra")
        M = self.matrix
        if M.rows != self.target.dim or M.cols != self.source.dim:
            raise AlgebraError("module map matrix has wrong shape")
        for rs, rt in zip(self.source.mats, self.target.mats):
            if rt.matmul(M) != M.matmul(rs):
                raise AlgebraError("matrix is not equivariant")

    @classmethod
    def _solved(cls, source: LModule, target: LModule, matrix: Matrix) -> "ModuleMap":
        """A map solved from the equivariance equations: not checked again."""
        h = object.__new__(cls)
        h.__dict__.update(source=source, target=target, matrix=matrix)
        return h

    def is_isomorphism(self) -> bool:
        if self.source.dim != self.target.dim or self.source.dim == 0:
            return self.source.dim == self.target.dim
        return len(_rref(self.matrix.field, self.matrix.entries)[1]) == self.source.dim


@dataclass(frozen=True)
class FactorModule:
    """The section A/B of ideals as a module, with its coordinate maps."""

    module: LModule
    coords: QuotientMap


def adjoint_module(L: LieAlgebra) -> LModule:  # the section L/0
    return factor_module(L, L.full_space(), L.zero_space()).module


@memoized
def factor_module(L: LieAlgebra, A: Subspace, B: Subspace) -> FactorModule:
    """The section A/B of ideals as an L-module; L's section modules are all
    built here, ``adjoint_module`` included."""
    if not is_ideal(L, A) or not is_ideal(L, B):
        raise AlgebraError("factor module requires a pair of ideals")
    if not A.contains_space(B):
        raise AlgebraError("denominator must sit inside the numerator")
    qm = QuotientMap(A, B)
    mats = section_action(L, L.full_space().basis, qm)
    # A and B are ideals, so the action on A/B is induced by the adjoint
    # action and obeys the bracket law by the Jacobi identity
    return FactorModule(LModule(L, mats, validate=False), qm)


def _section_module(M: LModule, qm: QuotientMap) -> LModule:
    """The module structure on the invariant section qm.W/qm.U, in the
    coordinates of ``qm``."""
    return LModule(M.algebra, [qm.induced(rho.apply) for rho in M.mats], validate=False)


@memoized
def restrict_module(M: LModule, W: Subspace) -> LModule:
    """The module structure on an invariant subspace, in W-coordinates."""
    return _section_module(M, QuotientMap(W, Subspace.zero(M.field, M.dim)))


@memoized
def quotient_module(M: LModule, W: Subspace) -> LModule:
    """The module structure on M/W for an invariant subspace W, in the
    coordinates of ``QuotientMap(M.full_space(), W)``."""
    return _section_module(M, QuotientMap(M.full_space(), W))


def _action(F: Field, *matrices) -> list:
    """The ``Matrix._offsets`` tables of the matrices, scaled over Q by one
    lcm of their denominators."""
    tables = [rho._offsets() for rho in matrices]
    den = 1 if _modulus(F) else lcm(*(a.denominator for t in tables for c in t for _, a in c))
    if den == 1:
        return tables
    return [[tuple([(i, (a * den).numerator) for i, a in c]) for c in t] for t in tables]


def _spin_rows(F: Field, action, s: int, seeds, halt: bool = False) -> tuple:
    """``(span, relations)`` of the spin under ``action`` (tables of
    ``_action``), with pivots among the first s coordinates.  A seed of
    ``seeds(pivots)``, which yields one or more, is drawn once all earlier
    images are in and sees the pivots so far; a longer seed pads the vectors
    before it with zeros.  An insert, reduced by ``_reduce`` (fraction-free
    over Q), is a new queued semi-echelon row when nonzero on the first s
    coordinates, else a relation when nonzero.  The span is ``Subspace.full``
    once the rows fill the space (s = d), else their ``Subspace._of``.  With
    ``halt`` the spin stops at its first relation and returns ``(None,
    [relation])``."""
    p = _modulus(F)
    zero = F.zero()
    nzs: list = []  # the rows, as their nonzero (index, value) pairs
    pivots: list = []
    queue: list = []  # the rows whose images are still to come
    relations: list = []

    def insert(w):
        w = _reduce(p, w, nzs, pivots)
        if not any(w[:s]):
            if any(w):
                relations.append(w)
                return halt
            return
        nz = _nonzeros(w)
        c, b = nz[0]
        if b != 1:  # 1 at the pivot over GF(p), content 1 over Q
            a = pow(b, -1, p) if p else gcd(*w) * (1 if b > 0 else -1)
            nz = tuple([(j, x * a % p) for j, x in nz] if p else [(j, x // a) for j, x in nz])
        nzs.append(nz)
        pivots.append(c)
        queue.append(nz)

    for seed in seeds(pivots):
        d = len(seed)
        if insert(_cleared(seed)):
            return None, relations
        while queue:
            nz = queue.pop()
            for cols in action:
                image = [zero] * d
                for j, x in nz:
                    for o, a in cols[j]:
                        image[j + o] += a * x
                if insert(image):
                    return None, relations
                if len(nzs) == d:
                    return Subspace.full(F, d), relations
    rows = [[zero] * d for _ in nzs]
    for row, nz in zip(rows, nzs):
        for j, x in nz:
            row[j] = x
    return Subspace._of(F, d, rows), [w + [zero] * (d - len(w)) for w in relations]


def spin(M: LModule, v: Vector) -> Subspace:
    """Smallest action-invariant subspace containing v: the span of
    ``_spin_rows`` with s = d, which stops once it is full."""
    return _spin_rows(M.field, M.nonzero_entries(), M.dim, lambda _: [vec(M.field, v)])[0]


def _generated(A: LieAlgebra, gens: list) -> Subspace:
    """The subalgebra of A generated by ``gens`` (one or more): their spin
    under their own ads, which spans their left-normed brackets."""
    return _spin_rows(A.field, _action(A.field, *map(A.ad, gens)), A.dim, lambda _: gens)[0]


def _graph_hom(F: Field, gens: list, images, ads: list) -> Optional[Matrix]:
    """The homomorphism T: A -> B with T g_k = y_k, for generators g_k of A,
    read from the spin of the pairs (g_k, y_k) in A + B under ``ads``, the
    pairs (ad g_k, ad y_k), with pivots in A; None when the spin meets a
    relation, where it stops.  The spin maps onto the subalgebra that the
    g_k generate, A, so without a relation it is the graph of a linear T,
    its rows (e_i, T e_i), with T ad g_k = ad y_k T; the x with
    T ad x = ad(Tx) T form a subalgebra, so T is a homomorphism.
    Conversely the graph of a homomorphism holds the spin."""
    n = len(gens[0])
    action = [a + b for a, b in (_action(F, *pair) for pair in ads)]
    seeds = [g + y for g, y in zip(gens, images)]
    span, relations = _spin_rows(F, action, n, lambda _: seeds, halt=True)
    return None if relations else Matrix.from_columns(F, [r[n:] for r in span.basis])


def _nonzero_vectors(field: PrimeField, dim: int):
    """One representative per projective point (first nonzero entry is 1),
    in lexicographic order: leading position from last to first, then every
    tail after the leading 1."""
    p = field.p
    for lead in range(dim - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - 1 - lead):
            yield head + tail


def _least_singular(M: LModule):
    """``(k, theta rows)``, else ``(d, None)``, for the theta = rho - lambda
    of least positive nullity k < d over the action matrices rho and the
    roots lambda of their characteristic polynomials (increasing lambda,
    each with the rho in order, stopping at nullity 1)."""
    p, d = M.field.p, M.dim
    actions = {rho.entries: rho for rho in M.mats if not rho.is_zero()}
    # rho - lambda is singular exactly at the roots of charpoly(rho)
    roots = {rows: gf_roots(p, charpoly(rho)) for rows, rho in actions.items()}
    candidates = (
        [[(x - lam) % p if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        for lam in sorted(set().union(*roots.values()))
        for rows in actions
        if lam in roots[rows]
    )
    k, theta = d, None
    for rows in candidates:
        nullity = d - len(_rref_gf(p, rows)[1])
        if 0 < nullity < k:
            k, theta = nullity, rows
            if k == 1:
                break
    return k, theta


def _norton_kernel(M: LModule):
    """Norton's criterion on ``_least_singular``'s theta, None without one or
    over budget: ``('irr' | 'red', submodule)``.  A proper spin of a point of
    ker theta is the witness, else the annihilator of a proper dual spin of
    one vector of ker theta^T."""
    F = M.field
    p, d = F.p, M.dim
    k, theta = _least_singular(M)
    if theta is None or (p**k - 1) // (p - 1) > VECTOR_ENUM_BUDGET:  # the points of ker theta
        return None
    W = _first_proper_spin(M, nullspace(F, d, theta))
    if W is not None:
        return "red", W
    Wd = spin(M.dual(), nullspace(F, d, list(zip(*theta))).basis[0])
    if Wd.dim < d:
        return "red", nullspace(F, d, Wd.basis)  # the annihilator of Wd
    return "irr", None


def _irreducible_charpoly(M: LModule) -> bool:
    """Whether some action matrix has an irreducible characteristic
    polynomial: a proper submodule would give it a factor of lower degree."""
    return any(is_irreducible(M.field, charpoly(rho)) for rho in M.mats if not rho.is_zero())


def _first_proper_spin(M: LModule, W: Optional[Subspace] = None) -> Optional[Subspace]:
    """The first proper spin of a projective point of W (default: all of M),
    in ``_nonzero_vectors`` order on W's basis; None when every point spins to M."""
    F, basis = M.field, (M.full_space() if W is None else W).basis
    for c in _nonzero_vectors(F, len(basis)):
        U = spin(M, lin_comb(F, c, basis))
        if U.dim < M.dim:
            return U
    return None


@memoized
def certify_irreducible(M: LModule):
    """Decide irreducibility of a module exactly where possible.

    Returns ``(verdict, counterexample, status)``: verdict True/False with a
    certified status, or None with a heuristic status when every implemented
    certificate is out of reach.  A False verdict always carries a proper
    nonzero submodule.

    Over GF(p) the unit vectors are spun first, since any proper spin is a
    witness.  Then comes Norton's criterion (``_norton_kernel``): for the
    singular theta = rho - lambda of least nullity k, M is
    irreducible iff every projective point of ker theta spins to M and one
    vector of ker theta^T spins to the dual, since a proper submodule U
    with U cap ker theta = 0 has theta(U) = U and so ker theta^T inside its
    annihilator.  It needs the (p^k - 1)/(p - 1) projective points of
    ker theta within ``VECTOR_ENUM_BUDGET``.  Then an
    action matrix with an irreducible characteristic polynomial certifies
    irreducibility, and otherwise the projective points of M itself are
    spun while p^dim is within budget.

    Over the rationals a proper socle is a witness; a full one makes M
    semisimple, where dim End(M) = 1 certifies irreducibility and a rational
    eigenvalue of an endomorphism gives a proper kernel as the witness.
    Then comes the irreducible characteristic polynomial, as over GF(p).
    """
    F = M.field
    d = M.dim
    if d == 0:
        return False, None, CERTIFIED
    if d == 1:
        return True, None, CERTIFIED
    if isinstance(F, PrimeField):
        # the d unit vectors split most reducible modules met here for less
        # than the search for a singular element costs
        for i in range(d - 1, -1, -1):
            W = spin(M, unit_vec(F, d, i))
            if W.dim < d:
                return False, W, CERTIFIED
        found = _norton_kernel(M)
        if found is not None:
            verdict, W = found
            return verdict == "irr", W, CERTIFIED
        if _irreducible_charpoly(M):
            return True, None, CERTIFIED
        if F.p**d <= VECTOR_ENUM_BUDGET:
            W = _first_proper_spin(M)
            return W is None, W, CERTIFIED
        return None, None, heuristic("irreducibility certificates exhausted")
    # over Q the socle is exact: a proper one is a witness, and a full one
    # makes the module semisimple, where the endomorphism ring decides
    soc, _ = socle_space(M)
    if soc.dim < d:
        return False, soc, CERTIFIED
    endos = hom_space(M, M)
    if len(endos) == 1:
        return True, None, CERTIFIED  # semisimple with scalar endomorphisms only
    ident = Matrix.identity(F, d)
    for h in endos:
        hm = h.matrix
        # skip scalars: they never split anything
        if hm == mat_comb(F, (hm.entries[0][0],), (ident,)):
            continue
        for lam in rational_roots(charpoly(hm)):
            ker = nullspace(F, d, mat_comb(F, (1, -lam), (hm, ident)).entries)
            if 0 < ker.dim < d:
                return False, ker, CERTIFIED
    if _irreducible_charpoly(M):
        return True, None, CERTIFIED
    return None, None, heuristic("irreducibility certificates exhausted")


def enveloping_basis(M: LModule) -> list[Matrix]:
    """Basis of the unital associative algebra generated by the action: the
    spin of the identity, flattened by rows, under A -> rho A."""
    F, d = M.field, M.dim
    action = [
        [col for col in (tuple((i * d, a) for i, a in c) for c in cols) for _ in range(d)]
        for cols in M.nonzero_entries()
    ]
    ident = [F.one() if i == j else F.zero() for i in range(d) for j in range(d)]
    span = _spin_rows(F, action, d * d, lambda _: [ident])[0]
    return [Matrix._of(F, [r[i * d : (i + 1) * d] for i in range(d)], d) for r in span.basis]


@memoized
def _composition_factors(M: LModule):
    """``(factors, status)``: the composition factors of M as a tuple,
    chopped along the proper submodules that ``certify_irreducible``
    exhibits, and the worst status met; ``factors`` is None when some piece
    is undecided."""
    verdict, W, status = certify_irreducible(M)
    if verdict is None:
        return None, status
    if verdict:
        return (M,), status
    factors = ()
    for piece in (restrict_module(M, W), quotient_module(M, W)):
        sub, st = _composition_factors(piece)
        if sub is None:
            return None, st
        factors += sub
        status = worst(status, st)
    return factors, status


@memoized
def socle_space(M: LModule):
    """The sum of all minimal submodules, with a certification status."""
    F = M.field
    d = M.dim
    if d == 0:
        return Subspace.zero(F, 0), CERTIFIED
    if isinstance(F, PrimeField):
        factors, status = _composition_factors(M)
        if factors is None:
            return M.full_space(), status
        return _isotypic(M, factors)[0], status
    return _socle_char0(M), CERTIFIED


def _isotypic(M: LModule, simples: tuple) -> tuple:
    """``(socle, components)`` of M over simple modules ``simples`` among
    which every composition factor of M occurs (M's own, or those of a
    module that has M as a section, by Jordan-Hoelder).  Every minimal
    submodule is the image of a map from an isomorphic S, and every nonzero
    such image is simple; so for each distinct S, in ``dict.fromkeys``
    order, the span X_S of the images of ``hom_space(S, M)`` is the
    isotypic component of S, and the socle is their sum.  ``components``
    holds the pairs (dim S, X_S) with X_S nonzero."""
    F, d = M.field, M.dim
    components = []
    for S in dict.fromkeys(simples):
        images = [phi.matrix.col(j) for phi in hom_space(S, M) for j in range(S.dim)]
        if images:
            components.append((S.dim, Subspace._of(F, d, images)))
    return Subspace._of(F, d, [v for _, X in components for v in X.basis]), components


def _socle_char0(M: LModule) -> Subspace:
    """The socle over Q from the radical R of the acting algebra L and
    K = R cap [L, L] (``killing_radical``).  K acts nilpotently, so by
    Engel's theorem every minimal submodule lies in M^K, the common kernel
    of rho(K), a submodule as K is an ideal.  As [L, R] lies in K, each
    rho(r), r in R, commutes with the action on M^K; let s_r be the
    squarefree part f / gcd(f, f') of its characteristic polynomial f there.
    On N, the joint kernel of the s_r(rho(r)) over a basis of R, R acts by
    commuting semisimple operators and the Levi part semisimply (Weyl), so
    N is semisimple and lies in the socle.  Conversely rho(r) acts on a
    simple S in the division ring End(S), with an irreducible minimal
    polynomial dividing s_r.  None of this depends on the basis of R, so R
    is walked as K, which acts as 0 on M^K, and the lifts of R/K.  A scalar
    rho(r) or a squarefree f gives s_r(rho(r)) = 0 and is skipped; each
    rho(r) acts on the submodule found so far, whose coordinates are built
    once per cut."""
    F, d = M.field, M.dim
    R, K = killing_radical(M.algebra)
    rows = [row for k in K.basis for row in mat_comb(F, k, M.mats).entries]
    soc = nullspace(F, d, rows)
    zero = Subspace.zero(F, d)
    qm, ident = QuotientMap(soc, zero), Matrix.identity(F, soc.dim)
    for r in QuotientMap(R, K).lifts:  # K acts as 0 on M^K
        A = qm.induced(mat_comb(F, r, M.mats).apply)
        if A == mat_comb(F, (A.entries[0][0],), (ident,)):
            continue
        f = charpoly(A)
        s = squarefree_part(f)
        if len(s) == len(f):
            continue
        S = ident  # s is monic; Horner's rule gives s(A)
        for c in reversed(s[:-1]):
            S = mat_comb(F, (1, c), (S.matmul(A), ident))
        soc = qm.lift_space(nullspace(F, soc.dim, S.entries))
        qm, ident = QuotientMap(soc, zero), Matrix.identity(F, soc.dim)
    return soc


def complement_in_semisimple(M: LModule, V: Subspace, U: Subspace) -> Subspace:
    """A submodule complement of U inside the semisimple submodule V: the
    kernel of X = sum c_k H_k over a basis H_k of ``hom_space`` from V to
    U, where the c_k solve X(u_b) = e_b on the basis u_b of U in V's
    coordinates (|U|^2 equations in h = dim Hom unknowns).

    X is the projection that the combined system [equivariance; P] on all
    entries of X solves for.  Flattened by rows and reduced from the right,
    the H_k are the nullspace basis that elimination of the equivariance
    equations alone writes (it depends on Hom only): H_k is 1 at the k-th
    free column, 0 at the other free columns and otherwise supported on
    pivot columns left of it.  So column k of the combined system is a
    pivot exactly when P H_k lies outside the span of the earlier P H_j:
    the pivot rule of the h-column system.  Both particular solutions are
    0 at their non-pivot columns, and such a solution is unique."""
    F = M.field
    u, v = U.dim, V.dim
    if u == 0:
        return V
    qm = QuotientMap(V, Subspace.zero(F, M.dim))  # coordinates on V
    maps = hom_space(restrict_module(M, V), restrict_module(M, U))
    flat = [r[::-1] for r in _rref(F, [sum(H.matrix.entries, ())[::-1] for H in maps])[0]]
    Hs = [Matrix._of(F, [r[i * v : (i + 1) * v] for i in range(u)], v) for r in reversed(flat)]
    images = [[H.apply(qm.project(ub)) for H in Hs] for ub in U.basis]
    rows = [[w[i] for w in ws] for ws in images for i in range(u)]
    rhs = [F.one() if i == b else F.zero() for b in range(u) for i in range(u)]
    c = rref_solve(Matrix._of(F, rows, len(Hs)), rhs)[2]
    if c is None:
        raise AlgebraError("no equivariant projection: subspace is not a direct summand")
    return qm.lift_space(nullspace(F, v, mat_comb(F, c, Hs).entries))


def _minimal_inside(M: LModule, V: Subspace, avoid: Subspace):
    """A certified minimal submodule of V not contained in ``avoid``.

    V must be semisimple (a submodule of the socle); every reducibility
    counterexample splits off, so the descent terminates.
    """
    F = M.field
    R = restrict_module(M, V)
    verdict, counterexample, status = certify_irreducible(R)
    if verdict is not False:
        return V, status
    if isinstance(F, PrimeField) and F.p**R.dim <= VECTOR_ENUM_BUDGET:
        # the witness decides which minimal submodules are chosen, so it is
        # the first proper spin whatever route certified the verdict
        counterexample = _first_proper_spin(R)
    if counterexample is None or counterexample.is_zero():
        raise AlgebraError("reducible verdict without a witness")
    # the witness in module coordinates
    U = QuotientMap(V, Subspace.zero(F, M.dim)).lift_space(counterexample)
    if not avoid.contains_space(U):
        return _minimal_inside(M, U, avoid)
    return _minimal_inside(M, complement_in_semisimple(M, V, U), avoid)


def socle_decomposition(M: LModule):
    """(summands, socle, status): a direct-sum decomposition of the socle
    into certified minimal submodules, deterministic in the basis order.
    Over GF(p) the socle is read from the isotypic components of M's own
    composition factors (``_isotypic``)."""
    if isinstance(M.field, PrimeField) and M.dim:
        factors, status = _composition_factors(M)
        if factors is not None:
            return _decompose(M, *_isotypic(M, factors), status)
    soc, status = socle_space(M)
    return _decompose(M, soc, (), status)


def _decompose(M: LModule, soc: Subspace, components, status):
    """``socle_decomposition`` of the socle ``soc``: the spin W of the first
    socle basis vector outside the summands so far is a summand when it lies
    in an isotypic component X_S of ``components`` with dim W = dim S (every
    submodule of S^m is some S^k), and otherwise descends through
    ``_minimal_inside``, which returns W itself when W is simple."""
    summands: list[Subspace] = []
    acc = Subspace.zero(M.field, M.dim)
    while acc.dim < soc.dim:
        seed = next(v for v in soc.basis if not acc.contains(v))
        W = spin(M, seed)
        if not any(k == W.dim and X.contains_space(W) for k, X in components):
            W, st = _minimal_inside(M, W, acc)
            status = worst(status, st)
        summands.append(W)
        acc = acc.sum(W)
    return summands, soc, status


@dataclass(frozen=True)
class SocleInfo:
    """Minimal ideals of L/I lifted to L, and their sum."""

    minimals: tuple
    soc: Subspace
    status: Status


@memoized
def socle_and_minimal_ideals(L: LieAlgebra, I: Subspace) -> SocleInfo:
    """The minimal ideals of L/I and their sum, lifted to L.

    When I contains ``nilpotent_residual(L)``, L/I is nilpotent and, by
    Engel's theorem, its minimal ideals are the lines of its centre: the
    socle is ``factor_centralizer(L, L, I)``, and the minimal ideals are
    I + <x> for the lifts x of its RREF basis in L/I coordinates, which are
    the summands that the module route spins, in its order.  That status is
    ``CERTIFIED`` by the theorem, and no module is built.

    Otherwise they are read from the L-module ``factor_module(L, L, I)``.
    Over GF(p) its socle is the sum of the images of the maps into it from
    the composition factors of ``adjoint_module(L)`` (``_isotypic``): L/I
    is a quotient of the adjoint module, so by Jordan-Hoelder each of its
    composition factors, and so each of its minimal submodules, is
    isomorphic to one of those, and the one composition series of the
    adjoint module, memoized, serves every I.  The summands are spun as in
    ``socle_decomposition`` (``_decompose``), with the status of that
    series.  When the adjoint module's series is undecided,
    ``socle_decomposition`` chops L/I itself.

    The action matrices of L/I span ad(L/I), one per basis vector of L, so
    a GF(p) search that stops at the first matrix found may meet another
    one than on the adjoint module of the quotient algebra; the values were
    compared on samples only."""
    if I.contains_space(nilpotent_residual(L)):
        if not is_ideal(L, I):
            raise AlgebraError("factor module requires a pair of ideals")
        Z = factor_centralizer(L, L.full_space(), I)
        minimals = tuple(Subspace._of(L.field, L.dim, [*I.basis, x]) for x in QuotientMap(Z, I).lifts)
        return SocleInfo(minimals, Z, CERTIFIED)
    fm = factor_module(L, L.full_space(), I)
    factors = None
    if isinstance(L.field, PrimeField):
        factors, status = _composition_factors(adjoint_module(L))
    if factors is None:
        summands, soc, status = socle_decomposition(fm.module)
    else:
        summands, soc, status = _decompose(fm.module, *_isotypic(fm.module, factors), status)
    minimals = tuple(fm.coords.lift_space(W) for W in summands)
    return SocleInfo(minimals, fm.coords.lift_space(soc), status)


@memoized
def _hom_basis(M1: LModule, M2: LModule) -> tuple:
    """The basis maps of ``hom_space``, solved once per pair of modules.

    X is fixed by its images of generators of M1: each e_c, last first, whose
    c is no pivot yet, brings t unknowns.  ``_spin_rows`` spins (e_c, the
    identity on its block) on M1 + M2^n, where (v, W) says X(v) = W u (W is
    t x n, column k at s + k t) and the action is (rho1 v, rho2 W).  Its
    relations W u = 0 are the only equations; the row with pivot c carries
    X e_c.  The maps (the one RREF of the flattened solutions, taken from
    the raw ``_null_rows`` of the equations) are not checked.

    A 1-dimensional M1 needs no spin: with rho1(e_i) = (lambda_i), X is a
    vector x with rho2(e_i) x = lambda_i x for every i, so the maps are
    the RREF basis of the ``nullspace`` of the stacked rho2(e_i) - lambda_i,
    as t x 1 matrices: the same basis as the spin system gives."""
    F = M1.field
    s, t = M1.dim, M2.dim
    if s == 0 or t == 0:
        return ()
    if s == 1:
        ident, rows = Matrix.identity(F, t), []
        for r1, r2 in zip(M1.mats, M2.mats):
            lam = r1.entries[0][0]
            rows += (mat_comb(F, (1, -lam), (r2, ident)) if lam else r2).entries
        maps = nullspace(F, t, rows).basis
        return tuple(ModuleMap._solved(M1, M2, Matrix._of(F, [[x] for x in v], 1)) for v in maps)
    zero, one = F.zero(), F.one()
    pairs = [_action(F, r1, r2) for r1, r2 in zip(M1.mats, M2.mats)]
    pairs = [(c1, c2) for c1, c2 in pairs if any(c1) or any(c2)]
    action = [list(c1) for c1, _ in pairs]  # each grown by t blocks per generator
    gens = []

    def seeds(pivots):
        for c in range(s - 1, -1, -1):
            if c not in pivots:
                o = s + len(gens) * t * t
                for table, (_, c2) in zip(action, pairs):
                    table += c2 * t
                seed = [zero] * (o + t * t)
                seed[c], seed[o :: t + 1] = one, [one] * t
                gens.append(c)
                yield seed

    span, relations = _spin_rows(F, action, s, seeds)
    rows, n = span.basis, t * len(gens)
    equations = [rel[s + r :: t] for rel in relations for r in range(t)]
    null = _null_rows(F, n, *_rref(F, equations))
    # X at u = e_k, flattened by rows: column c is block k of the row with pivot c
    units = [[w[s + k * t + r] for r in range(t) for w in rows] for k in range(n)] if null else []
    flats = [lin_comb(F, u, units) for u in null]
    return tuple(
        ModuleMap._solved(M1, M2, Matrix._of(F, [f[i * s : (i + 1) * s] for i in range(t)], s))
        for f in Subspace._of(F, s * t, flats).basis
    )


def hom_space(M1: LModule, M2: LModule) -> list[ModuleMap]:
    """Basis of the space of equivariant maps M1 -> M2, as a new list on
    every call (the maps themselves are shared: see ``_hom_basis``)."""
    if M1.algebra != M2.algebra:
        raise AlgebraError("hom space requires a common base algebra")
    return list(_hom_basis(M1, M2))


def module_isomorphism(M1: LModule, M2: LModule):
    """An isomorphism between two irreducible modules, by Schur's lemma.

    Precondition: both modules are irreducible (every caller passes the
    modules of chief factors, and a chief factor A/B is a minimal ideal of
    L/B).  Then every nonzero module map between modules of equal dimension
    is invertible, so the first basis map of the hom space is the witness;
    its ``is_isomorphism`` is checked as the postcondition.

    Returns ``(map_or_None, status)``: a map with certified status is an
    isomorphism, and None with certified status means none exists.  None
    with a heuristic status means the precondition is broken: a nonzero
    module map is not invertible, so a module is reducible.
    """
    if M1.algebra != M2.algebra:
        raise AlgebraError("isomorphism test requires a common base algebra")
    if M1.dim != M2.dim:
        return None, CERTIFIED
    if M1.dim == 0:
        return ModuleMap(M1, M2, Matrix(M1.field, [])), CERTIFIED
    homs = hom_space(M1, M2)
    if not homs:
        return None, CERTIFIED
    if homs[0].is_isomorphism():
        return homs[0], CERTIFIED
    return None, heuristic("a nonzero module map is not invertible: a module is reducible")


@dataclass(frozen=True)
class SplittingCertificate:
    complement: Subspace
    cochain: Matrix


@memoized
def split_abelian_extension(
    L: LieAlgebra, A: Subspace, B: Subspace
) -> Optional[SplittingCertificate]:
    """Find a subalgebra K with K + A = L and K cap A = B, for abelian A/B.

    Works on the section A/B in the coordinates of ``factor_module(L, A, B)``
    and on the lifts of ``QuotientMap(L.full_space(), A)``, a linear section
    of L/A: the complement is the graph (``QuotientMap.graph``) of a cochain
    solving the coboundary equation against the section's 2-cocycle in A/B.
    The system is linear, so an unsolvable system certifies non-splitting.
    """
    fm = factor_module(L, A, B)
    if not brackets_inside(L, A, A, B):
        raise AlgebraError("the section is not abelian")
    F = L.field
    p = _modulus(F)
    a = fm.coords.dim
    if a == 0:
        return SplittingCertificate(L.full_space(), Matrix(F, []))
    top = QuotientMap(L.full_space(), A)  # coordinates of L/A
    q = top.dim
    if q == 0:
        # complement of the full section is the denominator itself
        return SplittingCertificate(B, Matrix(F, []))
    section = top.lifts
    # each lift is a unit vector e_j, acting on A/B by the module matrix of e_j
    action = [fm.module.mats[s.index(F.one())] for s in section]
    nvar = a * q  # cochain phi: q-coords -> A/B-coords
    rows, rhs = [], []
    for i in range(q):
        for j in range(i + 1, q):
            br = L.bracket(section[i], section[j])
            br_q = top.project(br)
            g = fm.coords.project(lin_comb(F, (1, -1), (br, top.lift(br_q))))  # 2-cocycle value
            # closure of {s + phi} forces
            #   x_i . phi(x_j) - x_j . phi(x_i) - phi([x_i, x_j]) = -g(i, j)
            ei, ej = action[i].entries, action[j].entries
            for t in range(a):
                coeff = [F.zero()] * nvar
                for k in range(a):
                    coeff[k * q + j] += ei[t][k]
                    coeff[k * q + i] -= ej[t][k]
                for k in range(q):
                    coeff[t * q + k] -= br_q[k]
                rows.append([x % p for x in coeff] if p else _canon_q_all(coeff))
                rhs.append(-g[t])
    if rows:
        _, _, particular, _ = rref_solve(Matrix._of(F, rows, nvar), tuple(rhs))
        if particular is None:
            return None
        phi = Matrix._of(F, [particular[t * q : (t + 1) * q] for t in range(a)], q)
    else:
        phi = Matrix.zero(F, a, q)
    K = top.graph(fm.coords, phi)
    # hard postcondition
    if not is_subalgebra(L, K):
        raise AlgebraError("splitting produced a non-subalgebra")
    if K.intersect(A) != B or K.sum(A) != L.full_space():
        raise AlgebraError("splitting produced a wrong complement")
    return SplittingCertificate(K, phi)
