"""Crowns: the ideal sections that package a whole connectedness class of
supplemented chief factors, their complements and conjugacy in the solvable
case, prefrattini subalgebras, and the cover/avoid dichotomy.

The classes are computed once per series, by ``_classes``, with the
routine that also splits factors into module-isomorphism classes,
``chief._partition``.  For a supplemented factor A/B with centralizer C the
crown numerator is A + C; the denominator is the intersection, over its
class, of each factor's family of ideal complement denominators.  Over the
rationals an infinite denominator family is represented exactly by its base
member together with the kernel of the full hom space into the factor (a
finite certificate of the infinite intersection).  An undecided
connectedness test makes crowns undecided; only a certified contradiction
raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .algebra import (
    AlgebraError, LieAlgebra, brackets_inside, is_ideal, is_solvable, is_subalgebra, memoized,
    unipotent_conjugator,
)
from .chief import ChiefFactor, ChiefSeries, _partition, chief_series, classify_factor, connected
from .fields import PrimeField
from .linalg import Subspace, intersect_many, mat_comb, nullspace
from . import modules
from .modules import factor_module, hom_space, socle_and_minimal_ideals, split_abelian_extension
from .status import CERTIFIED, CertificationFailure, Status, undecided, worst

COVERS = "covers"
AVOIDS = "avoids"


@dataclass(frozen=True)
class Precrown:
    numerator: Subspace
    denominator: Subspace
    factor: ChiefFactor


@dataclass(frozen=True)
class PrecrownFamily:
    precrowns: tuple
    denominator_intersection: Subspace
    exhaustive: bool  # the listed precrowns are all of them (finite fields)


@dataclass(frozen=True)
class Crown:
    C: Subspace
    R: Subspace
    rank: int
    class_rep: ChiefFactor
    status: Status

    @property
    def key(self):
        return (self.C.basis, self.R.basis)


def _abelian_denominator_data(F: ChiefFactor):
    """Base denominator N0 and hom data for the complement family of an
    abelian supplemented factor inside its centralizer: the section N0/B as
    ``factor_module(L, N0, B)`` and Hom_L(N0/B, A/B) in the coordinates of
    the two factor modules."""
    L = F.algebra
    C = F.centralizer
    K = F.complement_witness
    if K is None:
        raise AlgebraError("abelian supplemented factor lacks a complement witness")
    N0 = C.intersect(K)
    if not is_ideal(L, N0):
        raise CertificationFailure("base denominator is not an ideal")
    if N0.intersect(F.A) != F.B or N0.sum(F.A) != C:
        raise CertificationFailure("base denominator does not complement the factor")
    fm = factor_module(L, N0, F.B)
    return N0, fm, hom_space(fm.module, F.module())


@memoized
def denominator_intersection(F: ChiefFactor) -> Subspace:
    """Exact intersection of all ideal denominators attached to a
    supplemented factor (the whole family at once, even when infinite)."""
    if not F.supplemented:
        raise AlgebraError("denominators exist only for supplemented factors")
    L = F.algebra
    if not F.abelian:
        return F.centralizer
    _, fm, homs = _abelian_denominator_data(F)
    rows = [row for h in homs for row in h.matrix.entries]  # the common kernel of the homs
    return fm.coords.lift_space(nullspace(L.field, fm.coords.dim, rows))


def precrowns_of_factor(F: ChiefFactor) -> PrecrownFamily:
    """The precrowns attached to a supplemented factor.

    Nonabelian: the unique precrown (A + C)/C.  Abelian over a small finite
    field: the full finite family, the graph over N0/B plus B of each map h
    of Hom_L(N0/B, A/B), by ``QuotientMap.graph`` (each meets A in B, so
    distinct maps give distinct denominators), each double-checked to be a
    genuine maximal-subalgebra core by the splitting test.  Abelian over
    the rationals: the base precrown only, with the exact intersection.
    """
    if not F.supplemented:
        raise AlgebraError("precrowns exist only for supplemented factors")
    L = F.algebra
    C = F.centralizer
    if not F.abelian:
        return PrecrownFamily(
            (Precrown(F.A.sum(C), C, F),), C, True
        )
    N0, fm, homs = _abelian_denominator_data(F)
    FLD = L.field
    inter = denominator_intersection(F)
    if isinstance(FLD, PrimeField) and FLD.p ** max(len(homs), 1) <= modules.VECTOR_ENUM_BUDGET:
        # the graph over N0/B, lifted from A/B, of each combination of the homs
        # (N0 itself, the graph of the zero map, when there are no homs)
        target = factor_module(L, F.A, F.B).coords
        mats = [h.matrix for h in homs]
        denominators = []
        for coeffs in itertools.product(range(FLD.p), repeat=len(homs)):
            N = fm.coords.graph(target, mat_comb(FLD, coeffs, mats)) if mats else N0
            # admit only genuine cores: C/N must be complemented in L/N
            if split_abelian_extension(L, C, N) is not None:
                denominators.append(N)
        pcs = tuple(Precrown(C, N, F) for N in denominators)
        return PrecrownFamily(pcs, inter, True)
    return PrecrownFamily((Precrown(C, N0, F),), inter, False)


@memoized
def _classes(L: LieAlgebra, series: ChiefSeries) -> tuple:
    """The connectedness classes of the supplemented factors of ``series``
    as ``(members, status)`` pairs, in series order, by ``_partition``."""
    factors = [f for f in series.factors if f.supplemented]
    return tuple((tuple(factors[k] for k in idx), st) for idx, st in _partition(factors, connected))


def _class_of(F: ChiefFactor, series: ChiefSeries):
    """``(members, status)`` of the class of F in ``_classes``; for an F
    outside the series, the factors connected to it and the worst test."""
    for members, status in _classes(F.algebra, series):
        if F in members:
            return members, status
    tests = [(f, connected(f, F)) for f in series.factors if f.supplemented]
    return tuple(f for f, t in tests if t[0]), worst(CERTIFIED, *(t[2] for _, t in tests))


@memoized
def crown_of_factor(F: ChiefFactor, series: Optional[ChiefSeries] = None) -> Crown:
    """The crown of the class of a supplemented factor F, with class_rep F,
    rank the class size, and the worst status of the class, the series and
    the certificate; computed once per factor and series."""
    if not F.supplemented:
        raise AlgebraError("crowns exist only for supplemented factors")
    if series is None:
        series = chief_series(F.algebra)
    members, status = _class_of(F, series)
    others = [denominator_intersection(f) for f in members if f != F]
    R = intersect_many([denominator_intersection(F), *others])
    crown = Crown(F.A.sum(F.centralizer), R, len(members), F, worst(series.status, status))
    return replace(crown, status=_certify_crown(crown, members))


def _certify_crown(crown: Crown, members) -> Status:
    """The crown's status after its certificate: each member's A + C is C
    (connected factors share it: the crown is a class invariant), L/R has
    socle C/R of dimension rank * dim, whose minimal ideals are connected to
    class_rep.  A failed test raises if it and the crown are certified."""
    L, C, R = crown.class_rep.algebra, crown.C, crown.R
    info = socle_and_minimal_ideals(L, R)
    tests = [
        (all(f.A.sum(f.centralizer) == C for f in members), CERTIFIED, "class members differ in A + C"),
        (info.soc == C, info.status, "socle of L/R differs from the crown numerator"),
        (C.dim - R.dim == crown.rank * crown.class_rep.dim, CERTIFIED, "wrong crown section dimension"),
    ]
    for W in info.minimals:
        ok, _, st = connected(classify_factor(L, W, R), crown.class_rep)
        tests.append((ok, st, "a minimal ideal of the crown quotient leaves the class"))
    failed = [(st, message) for ok, st, message in tests if not ok]
    for st, message in failed:
        if worst(crown.status, st).certified:
            raise CertificationFailure(message)
    return undecided(failed[0][1]) if failed else worst(crown.status, *(st for _, st, _ in tests))


@memoized
def all_crowns(L: LieAlgebra, series: Optional[ChiefSeries] = None) -> tuple[Crown, ...]:
    """One crown per connectedness class, that of its first member, where a
    class certified distinct from the others may share its crown with none;
    a tuple, computed once per algebra and series."""
    if series is None:
        series = chief_series(L)
    classes = _classes(L, series)
    crowns = tuple(crown_of_factor(members[0], series) for members, _ in classes)
    keys = [c.key for c in crowns]
    if any(st.certified and keys.count(c.key) > 1 for c, (_, st) in zip(crowns, classes)):
        raise CertificationFailure("distinct classes share a crown")
    return crowns


def crown_complement(L: LieAlgebra, crown: Crown) -> Subspace:
    """A subalgebra K with K + C = L and K cap C = R (solvable algebras)."""
    if not is_solvable(L):
        raise AlgebraError("crown complements are computed for solvable algebras only")
    if not brackets_inside(L, crown.C, crown.C, crown.R):
        raise CertificationFailure("crown section of a solvable algebra must be abelian")
    cert = split_abelian_extension(L, crown.C, crown.R)
    if cert is None:
        raise CertificationFailure("a solvable crown failed to split")
    K = cert.complement
    if K.sum(crown.C) != L.full_space() or K.intersect(crown.C) != crown.R:
        raise CertificationFailure("crown complement postcondition failed")
    return K


def complement_conjugator(L: LieAlgebra, crown: Crown, K1: Subspace, K2: Subspace):
    """An element a of the crown numerator with (1 + ad a)(K1) = K2 and
    (ad a)^2 = 0, verified by image equality."""
    for K in (K1, K2):
        if not is_subalgebra(L, K):
            raise AlgebraError("complements must be subalgebras")
        if K.sum(crown.C) != L.full_space() or K.intersect(crown.C) != crown.R:
            raise AlgebraError("input is not a complement of the crown")
    return unipotent_conjugator(L, crown.C, K1, K2)


def prefrattini(
    L: LieAlgebra,
    choice: Optional[Callable[[Crown], Subspace]] = None,
    series: Optional[ChiefSeries] = None,
) -> Subspace:
    """Intersection over all crowns of one complement each; the default
    choice is the canonical complement from the splitting test."""
    if not is_solvable(L):
        raise AlgebraError("prefrattini subalgebras are computed for solvable algebras only")
    crowns = all_crowns(L, series)
    acc = L.full_space()
    for crown in crowns:
        K = choice(crown) if choice is not None else crown_complement(L, crown)
        acc = acc.intersect(K)
    return acc


def cover_avoid_profile(L: LieAlgebra, K: Subspace, crown: Crown, series: ChiefSeries) -> list[str]:
    """Tag every series factor as covered or avoided by a crown complement,
    asserting the dichotomy: class members are avoided, the rest covered.
    A deviation raises only for a certified class; otherwise the crown's
    status, which carries its class's, is already not certified."""
    members, status = _class_of(crown.class_rep, series)
    tags = []
    for f in series.factors:
        covers = f.B.sum(K).contains_space(f.A)
        avoids = K.intersect(f.A) == K.intersect(f.B)
        if covers == avoids:
            raise CertificationFailure("cover/avoid dichotomy failed on a factor")
        got = COVERS if covers else AVOIDS
        if got != (AVOIDS if f in members else COVERS) and status.certified:
            raise CertificationFailure("cover/avoid profile deviates from the class prediction")
        tags.append(got)
    return tags
