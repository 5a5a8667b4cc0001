"""Primitivity: classification into the three types, maximal-subalgebra
typing, conjugacy of core-free maximals in the solvable case, the
semidirect-sum equivalences between the types, and the primitive algebra
attached to a supplemented chief factor.  A quotient L/N is classified
inside L, as the section ``classify_primitive(L, N=N)``; a quotient table
is built only where an algebra is the output, and for the oracle.

An algebra is primitive when it has a core-free maximal subalgebra.  The
three mutually exclusive shapes are: a unique abelian minimal ideal that is
complemented (type 1), a unique nonabelian minimal ideal (type 2), and
exactly two minimal ideals, necessarily nonabelian and centralizing each
other, with a common complement (type 3).

Type 2 is decided by a theorem over every field: the Frattini ideal is
nilpotent.  Type 3 is decided when the two minimal ideals are
complementary: they are then simple, and the algebra is primitive exactly
when they are isomorphic, which ``isomorphism_search`` decides over GF(p)
within ``modules.VECTOR_ENUM_BUDGET``: a tuple of images of generators is
kept when the graph of the map it fixes meets no relation, as the module
layer's ``_graph_hom`` spins it.  A found isomorphism and its graph
(``QuotientMap.graph``), the common complement, are verified.  The
exhaustive oracle is asked only about two nonabelian minimal ideals with a
proper sum, in characteristic p; where a socle or a search is over budget,
so is the oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .algebra import (
    AlgebraError,
    LieAlgebra,
    brackets_inside,
    centralizer,
    core,
    factor_centralizer,
    is_solvable,
    is_subalgebra,
    memoized,
    preserves_brackets,
    quotient_algebra,
    section_action,
    section_algebra,
    semidirect_sum,
    sub_algebra,
    unipotent_conjugator,
)
from .fields import PrimeField
from .linalg import (
    Matrix,
    QuotientMap,
    Subspace,
    _rref,
    invert_matrix,
    lin_comb,
    unit_vec,
    vec_sub,
)
from . import modules
from .modules import (
    LModule,
    _generated,
    _graph_hom,
    certify_irreducible,
    factor_module,
    socle_and_minimal_ideals,
    split_abelian_extension,
)
from .status import CERTIFIED, CertificationFailure, Status, heuristic, undecided

if TYPE_CHECKING:  # pragma: no cover
    from .chief import ChiefFactor

NOT_PRIMITIVE = "not_primitive"
TYPE1 = "type1"
TYPE2 = "type2"
TYPE3 = "type3"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class PrimitiveWitness:
    verdict: str
    minimal_ideals: tuple = ()
    monolith: Optional[Subspace] = None
    core_free_maximal: Optional[Subspace] = None
    common_complement: Optional[Subspace] = None
    reason: str = ""
    status: Status = CERTIFIED

    @property
    def primitive(self) -> Optional[bool]:
        if self.verdict == UNDECIDED:
            return None
        return self.verdict != NOT_PRIMITIVE


def isomorphism_search(A: LieAlgebra, B: LieAlgebra) -> tuple[Optional[Matrix], bool]:
    """Search for an algebra isomorphism A -> B over the images of a
    generating set of A; returns ``(T, complete)``.

    The identity, or one global scaling where the tables differ by a factor
    (a map c.id intertwines tables differing by the factor 1/c), is tried
    first.  Then each generator g of A (a pair of basis vectors when one
    generates, else a greedy set) is sent to every nonzero y of B whose rank
    profile rank((ad y)^k), k = 1, 2, ..., equals that of ad g, as any
    isomorphism must; y ranges over all of B over GF(p) and over the
    coefficient vectors in {-1, 0, 1} over Q.  A tuple of images is kept
    when ``_graph_hom`` finds the homomorphism that it fixes and that map is
    invertible and a homomorphism on every basis pair.
    ``complete`` is True when no isomorphism exists beyond doubt: a
    dimension mismatch, or an exhaustive GF(p) search that found none.  The
    vectors scanned and the tuples of images tried are each held to
    ``modules.VECTOR_ENUM_BUDGET`` before the search starts; over budget,
    or over Q, a miss returns ``(None, False)``.
    """
    if A.field != B.field or A.dim != B.dim:
        return None, True
    F = A.field
    n = A.dim
    # identical tables (lam = 1 or all zero) or tables scaled by lam
    lam = _table_ratio(A, B)
    T = Matrix.identity(F, n)
    if lam is not None:
        T = T.scale(F.inv(lam))
    if _check_algebra_iso(A, B, T):
        return T, True
    exhaustive = isinstance(F, PrimeField)
    scalars = F.elements() if exhaustive else [F.coerce(c) for c in (-1, 0, 1)]
    if len(scalars) ** n > modules.VECTOR_ENUM_BUDGET:
        return None, False
    by_profile: dict = {}
    for y in itertools.product(scalars, repeat=n):
        if any(y):
            by_profile.setdefault(_rank_profile(B, y), []).append(y)
    gens = _generators(A)
    candidates = [by_profile.get(_rank_profile(A, g), []) for g in gens]
    tuples = 1
    for c in candidates:
        tuples *= len(c)
    if tuples > modules.VECTOR_ENUM_BUDGET:
        return None, False
    ads, ad_B = [A.ad(g) for g in gens], functools.cache(B.ad)
    for images in itertools.product(*candidates):
        T = _graph_hom(F, gens, images, [(x, ad_B(y)) for x, y in zip(ads, images)])
        if T is not None and _check_algebra_iso(A, B, T):
            return T, True
    return None, exhaustive


def _table_ratio(A: LieAlgebra, B: LieAlgebra):
    """The scalar lam with table_B = lam * table_A, or None when there is
    none or both tables are zero."""
    F = A.field
    lam = None
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            for x, y in zip(A.basis_bracket(i, j), B.basis_bracket(i, j)):
                if F.is_zero(x) != F.is_zero(y):
                    return None
                if not F.is_zero(x):
                    r = F.div(y, x)
                    if lam not in (None, r):
                        return None
                    lam = r
    return lam


def _rank_profile(L: LieAlgebra, y) -> tuple:
    """rank((ad y)^k) for k = 1, 2, ... up to the first repeat or zero."""
    ad = L.ad(y)
    power, ranks = ad, []
    while True:
        r = len(_rref(L.field, power.entries)[1])
        if ranks and ranks[-1] == r:
            return tuple(ranks)
        ranks.append(r)
        if r == 0:
            return tuple(ranks)
        power = power.matmul(ad)


def _generators(A: LieAlgebra) -> list:
    """A pair of basis vectors that generates A when there is one, else
    basis vectors taken greedily, each outside the subalgebra that the
    earlier ones generate."""
    basis = A.full_space().basis
    for pair in itertools.combinations(basis, 2):
        if _generated(A, list(pair)).is_full():
            return list(pair)
    gens = list(basis[:1])
    for e in basis[1:]:
        if not _generated(A, gens).contains(e):
            gens.append(e)
    return gens


@memoized
def classify_primitive(L: LieAlgebra, N: Optional[Subspace] = None) -> PrimitiveWitness:
    """Decide the primitivity and type of L/N, for an ideal N of L (0 by
    default), with certified witnesses: subspaces of L that contain N.

    L/N is read inside L, as the socle layer reads it: its minimal ideals
    are ``socle_and_minimal_ideals(L, N)``, W/N is abelian when
    ``brackets_inside(L, W, W, N)``, two minimal sections centralize each
    other when each is the other's ``factor_centralizer`` over N, an
    abelian monolith is split by ``split_abelian_extension(L, W, N)``, and
    the type-3 isomorphism search runs on the tables of M1/N and M2/N.
    Computed once per algebra and N; a zero N is the entry of
    ``classify_primitive(L)``.

    A nonabelian monolith W/N makes L/N type 2 over every field.  The
    Frattini ideal of L/N is nilpotent (D. A. Towers, 1973): for x in it,
    the Fitting null component of ad x is a subalgebra that supplements
    it, hence is L/N, so ad x is nilpotent and Engel's theorem applies.
    W/N is perfect (its derived algebra is a nonzero ideal of L/N), so
    some maximal subalgebra misses it, and every ideal above N but N
    contains W; ``_find_core_free_maximal`` looks for such a maximal and
    may miss.

    In characteristic 0 two nonabelian minimal ideals that centralize each
    other span L/N, as L/N = S (+) C(S) for each (every derivation of a
    semisimple S is inner).  A proper sum, so in characteristic p, goes to
    the exhaustive oracle on the quotient table L/N, its witness lifted to
    L.  An uncertified socle and a type-3 search over budget are
    ``undecided``, as the oracle would refuse them: an uncertified piece of
    dimension d needs p^d > 10^6 (p > 1000 when d = 3), a refused search
    p^n > 10^6 vectors or p^(n*g) > 10^6 tuples for g <= n generators with
    dim L/N = 2n, so GF(p)^dim(L/N) has over 500,000 subspaces, while
    ``modules.VECTOR_ENUM_BUDGET`` >= ``EnumBudget().max_subspaces``.
    """
    if N is None:
        N = L.zero_space()
    elif N.is_zero():
        return classify_primitive(L)
    if N.dim == L.dim:
        return PrimitiveWitness(NOT_PRIMITIVE, reason="the zero algebra has no maximal subalgebra")
    si = socle_and_minimal_ideals(L, N)
    if not si.status.certified:
        return PrimitiveWitness(UNDECIDED, reason=si.status.reason, status=undecided(si.status.reason))
    mins = tuple(si.minimals)
    if len(mins) >= 3:
        return PrimitiveWitness(
            NOT_PRIMITIVE,
            minimal_ideals=mins,
            reason="more than two minimal ideals",
        )
    if len(mins) == 2:
        M1, M2 = mins
        if brackets_inside(L, M1, M1, N) or brackets_inside(L, M2, M2, N):
            return PrimitiveWitness(
                NOT_PRIMITIVE,
                minimal_ideals=mins,
                reason="two distinct minimal ideals with an abelian member",
            )
        cross = factor_centralizer(L, M1, N) == M2 and factor_centralizer(L, M2, N) == M1
        if not cross:
            return PrimitiveWitness(
                NOT_PRIMITIVE,
                minimal_ideals=mins,
                reason="the two minimal ideals do not centralize each other exactly",
            )
        if not M1.sum(M2).is_full():
            return _oracle_or_undecided(L, N, "two nonabelian minimal ideals with a proper sum")
        # L/N = M1/N (+) M2/N with simple summands is primitive exactly when
        # they are isomorphic: the graph of an isomorphism is a core-free
        # maximal subalgebra, and a common complement is such a graph
        qm1, qm2 = QuotientMap(M1, N), QuotientMap(M2, N)
        A1, A2 = section_algebra(L, qm1), section_algebra(L, qm2)
        iso, complete = isomorphism_search(A1, A2)
        if iso is not None:
            U = qm1.graph(qm2, iso)
            _verify_common_complement(L, U, M1, M2, N)
            return PrimitiveWitness(
                TYPE3,
                minimal_ideals=mins,
                core_free_maximal=U,
                common_complement=U,
            )
        if complete:
            return PrimitiveWitness(
                NOT_PRIMITIVE,
                minimal_ideals=mins,
                reason="the two simple minimal ideals are not isomorphic",
            )
        return PrimitiveWitness(
            UNDECIDED,
            minimal_ideals=mins,
            reason="isomorphism search between the minimal ideals was inconclusive",
            status=undecided("bounded isomorphism search failed"),
        )
    # monolithic
    W = mins[0]
    if brackets_inside(L, W, W, N):
        cert = split_abelian_extension(L, W, N)
        if cert is None:
            return PrimitiveWitness(
                NOT_PRIMITIVE,
                minimal_ideals=mins,
                monolith=W,
                reason="the abelian monolith is a Frattini ideal (no complement)",
            )
        return PrimitiveWitness(TYPE1, minimal_ideals=mins, monolith=W, core_free_maximal=cert.complement)
    U = _find_core_free_maximal(L, N, W)
    return PrimitiveWitness(TYPE2, minimal_ideals=mins, monolith=W, core_free_maximal=U)


def _verify_common_complement(L: LieAlgebra, U: Subspace, M1: Subspace, M2: Subspace, N: Subspace):
    if not is_subalgebra(L, U):
        raise CertificationFailure("diagonal complement is not a subalgebra")
    for M in (M1, M2):
        if U.intersect(M) != N or not U.sum(M).is_full():
            raise CertificationFailure("diagonal does not complement a minimal ideal")


def _find_core_free_maximal(L: LieAlgebra, N: Subspace, W: Subspace) -> Optional[Subspace]:
    """Bounded search for a maximal subalgebra of L/N that misses its
    monolith W/N: spans of subsets of the lifts of L/N, plus N, that do not
    contain W, certified maximal via irreducibility of L/U over U.  Such a
    U has core N, because every ideal above N other than N contains W.
    The 2^n - 2 proper nonzero subsets, for n = dim L/N, are checked
    against ``modules.VECTOR_ENUM_BUDGET`` before the walk; over budget,
    None."""
    lifts = QuotientMap(L.full_space(), N).lifts
    n = len(lifts)
    if 2**n - 2 > modules.VECTOR_ENUM_BUDGET:
        return None
    for size in range(n - 1, 0, -1):
        for subset in itertools.combinations(lifts, size):
            U = L.span(list(subset) + list(N.basis))
            if U.dim != size + N.dim or U.contains_space(W) or not is_subalgebra(L, U):
                continue
            if maximality_certificate(L, U).certified:
                return U
    return None


def maximality_certificate(L: LieAlgebra, M: Subspace) -> Status:
    """Sufficient exact conditions for maximality of a proper subalgebra:
    codimension one, or irreducibility of L/M as an M-module."""
    if M.dim >= L.dim or not is_subalgebra(L, M):
        return undecided("not a proper subalgebra")
    if L.dim - M.dim == 1:
        return CERTIFIED
    qm = QuotientMap(L.full_space(), M)
    mod = LModule(sub_algebra(L, M), section_action(L, M.basis, qm), validate=False)
    verdict, _, st = certify_irreducible(mod)
    if verdict is True:
        return CERTIFIED
    return heuristic("no maximality certificate found")


def _oracle_or_undecided(L: LieAlgebra, N: Subspace, reason: str) -> PrimitiveWitness:
    """The oracle's verdict on the quotient table L/N, with its witness
    lifted back to L, or ``undecided`` over Q or over the oracle's budget."""
    if isinstance(L.field, PrimeField):
        from .oracle import EnumBudget, BudgetExceeded, primitive_bf

        qa = quotient_algebra(L, N)
        try:
            w = primitive_bf(qa.algebra, EnumBudget(max_field_order=L.field.p))
        except BudgetExceeded as exc:
            reason = f"{reason}; oracle budget exceeded ({exc})"
        else:

            def lift(U):
                return None if U is None else qa.lift_space(U)

            return replace(
                w,
                minimal_ideals=tuple(map(lift, w.minimal_ideals)),
                **{k: lift(getattr(w, k)) for k in ("monolith", "core_free_maximal", "common_complement")},
            )
    return PrimitiveWitness(UNDECIDED, reason=reason, status=undecided(reason))


@dataclass(frozen=True)
class MaximalTypeReport:
    core: Subspace
    quotient_witness: PrimitiveWitness
    maximality: Status


def maximal_type(L: LieAlgebra, M: Subspace, assume_maximal: bool = False) -> MaximalTypeReport:
    """Core of a maximal subalgebra and the primitive type of L/core, read
    as the section ``classify_primitive(L, N=core)``: the witness's
    subspaces lie in L and contain the core."""
    if not is_subalgebra(L, M):
        raise AlgebraError("maximal-type analysis requires a subalgebra")
    mstat = maximality_certificate(L, M)
    if not mstat.certified:
        if isinstance(L.field, PrimeField):
            from .oracle import BudgetExceeded, EnumBudget, maximal_subalgebras_of

            try:
                maxes = maximal_subalgebras_of(L, EnumBudget(max_field_order=L.field.p))
            except BudgetExceeded:
                maxes = None
            if maxes is not None:
                if M not in maxes:
                    raise AlgebraError("subalgebra is not maximal")
                mstat = CERTIFIED
        if not mstat.certified and not assume_maximal:
            raise AlgebraError(
                "maximality not certified; pass assume_maximal=True to proceed"
            )
    ML = core(L, M)
    return MaximalTypeReport(ML, classify_primitive(L, N=ML), mstat)


def core_free_conjugator(L: LieAlgebra, U1: Subspace, U2: Subspace):
    """An element a of the monolith with (1 + ad a)(U1) = U2, for core-free
    maximal subalgebras of a solvable primitive algebra."""
    if not is_solvable(L):
        raise AlgebraError("conjugacy of core-free maximals assumes a solvable algebra")
    w = classify_primitive(L)
    if w.verdict != TYPE1:
        raise AlgebraError("the algebra is not solvable primitive")
    A = w.monolith
    for U in (U1, U2):
        if not is_subalgebra(L, U):
            raise AlgebraError("conjugator inputs must be subalgebras")
        if not core(L, U).is_zero():
            raise AlgebraError("conjugator inputs must be core-free")
        if not U.sum(A).is_full() or not U.intersect(A).is_zero():
            raise AlgebraError("inputs do not complement the monolith")
    return unipotent_conjugator(L, A, U1, U2)


@dataclass(frozen=True)
class TypeEquivalenceReport:
    verdict: str
    B: Subspace
    complement: Optional[Subspace]
    model: LieAlgebra
    model_witness: PrimitiveWitness
    iso_matrix: Matrix
    status: Status


def _check_algebra_iso(A: LieAlgebra, B: LieAlgebra, T: Matrix) -> bool:
    return invert_matrix(T) is not None and preserves_brackets(A, B, T)


def type_equivalence_witnesses(L: LieAlgebra) -> TypeEquivalenceReport:
    """The semidirect-sum equivalences.

    For type 1 or 3: rebuild L as B acted on by L/C_L(B) and verify the
    explicit isomorphism sending b + u to (b, u + C_L(B)).  For type 2:
    inflate by the monolith acting adjointly, certify the result is type 3,
    and verify that factoring the new ideal out returns the original algebra.
    """
    w = classify_primitive(L)
    F = L.field
    if w.verdict in (TYPE1, TYPE3):
        B = w.monolith if w.verdict == TYPE1 else w.minimal_ideals[0]
        C = centralizer(L, B)
        U = w.core_free_maximal
        # U must complement both B and C
        for X in (B, C):
            if not U.sum(X).is_full() or not U.intersect(X).is_zero():
                raise CertificationFailure("witness does not complement as required")
        qa = quotient_algebra(L, C)
        action = section_action(L, qa.lifts, QuotientMap(B, L.zero_space()))
        X = semidirect_sum(sub_algebra(L, B), qa.algebra, action)
        # theta: L -> X, theta(b + u) = b + (u + C); column i of the inverse
        # holds the B- and then the U-coordinates of e_i
        inv = invert_matrix(Matrix.from_columns(F, B.basis + U.basis))
        if inv is None:
            raise CertificationFailure("L does not decompose along the complement")
        cols = []
        for i in range(L.dim):
            bc = inv.col(i)[: B.dim]
            u = vec_sub(F, unit_vec(F, L.dim, i), lin_comb(F, bc, B.basis))
            cols.append(bc + qa.project(u))
        theta = Matrix.from_columns(F, cols)
        if not _check_algebra_iso(L, X, theta):
            raise CertificationFailure("semidirect model is not isomorphic via theta")
        xw = classify_primitive(X)
        if xw.verdict != w.verdict:
            raise CertificationFailure("semidirect model has a different primitive type")
        return TypeEquivalenceReport(w.verdict, B, U, X, xw, theta, w.status)
    if w.verdict == TYPE2:
        D = w.monolith
        units = [unit_vec(F, L.dim, i) for i in range(L.dim)]
        action = section_action(L, units, QuotientMap(D, L.zero_space()))
        X = semidirect_sum(sub_algebra(L, D), L, action)
        xw = classify_primitive(X)
        if xw.verdict != TYPE3:
            raise CertificationFailure("inflation failed to produce a type-3 algebra")
        Bnew = Subspace.from_vectors(
            F, X.dim, [unit_vec(F, X.dim, i) for i in range(D.dim)]
        )
        qa = quotient_algebra(X, Bnew)
        # the quotient by the new ideal must return L
        T = Matrix.from_columns(F, [v[D.dim :] for v in qa.lifts])
        if not _check_algebra_iso(qa.algebra, L, T):
            raise CertificationFailure("inflation quotient does not return the original")
        return TypeEquivalenceReport(TYPE2, Bnew, None, X, xw, T, w.status)
    raise AlgebraError(f"type equivalences need a primitive algebra (got {w.verdict})")


@dataclass(frozen=True)
class AssociatedPrimitive:
    algebra: LieAlgebra
    witness: PrimitiveWitness
    status: Status


def associated_primitive_algebra(F: "ChiefFactor") -> AssociatedPrimitive:
    """The primitive algebra attached to a supplemented factor: the section
    extended by L/C for abelian factors, the plain quotient L/C otherwise."""
    if not F.supplemented:
        raise AlgebraError("only supplemented factors have an associated primitive algebra")
    L = F.algebra
    C = F.centralizer
    if F.abelian:
        qm = factor_module(L, F.A, F.B).coords
        qa = quotient_algebra(L, C)
        action = section_action(L, qa.lifts, qm)
        X = semidirect_sum(LieAlgebra(L.field, qm.dim, {}), qa.algebra, action)
        w = classify_primitive(X)
        if w.verdict not in (TYPE1, UNDECIDED):
            raise CertificationFailure("associated algebra of an abelian factor is not of type 1")
        return AssociatedPrimitive(X, w, w.status)
    qa = quotient_algebra(L, C)
    w = classify_primitive(qa.algebra)
    if w.verdict not in (TYPE2, UNDECIDED):
        raise CertificationFailure("associated algebra of a nonabelian factor is not of type 2")
    return AssociatedPrimitive(qa.algebra, w, w.status)
