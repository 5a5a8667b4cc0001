"""Crowns: the ideal sections that package a whole connectedness class of
supplemented chief factors, their complements and conjugacy in the solvable
case, prefrattini subalgebras, and the cover/avoid dichotomy.

For a supplemented factor A/B with centralizer C the crown numerator is
A + C; the denominator is the intersection, over the supplemented factors
of a chief series connected to A/B, of each factor's family of ideal
complement denominators.  Over the rationals an infinite denominator family
is represented exactly by its base member together with the kernel of the
full hom space into the factor (a finite certificate of the infinite
intersection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import (
    AlgebraError,
    LieAlgebra,
    brackets_inside,
    is_ideal,
    is_solvable,
    is_subalgebra,
    memoized,
    unipotent_conjugator,
)
from .chief import ChiefFactor, ChiefSeries, chief_series, classify_factor, connected
from .fields import PrimeField
from .linalg import Matrix, Subspace, lin_comb, rref_solve
from . import modules
from .modules import (
    factor_module,
    hom_space,
    socle_and_minimal_ideals,
    split_abelian_extension,
)
from .status import CertificationFailure, Status, worst

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
    FLD = L.field
    if homs:  # the common kernel of the hom maps, as one nullspace
        rows = [row for h in homs for row in h.matrix.entries]
        common = rref_solve(Matrix._of(FLD, rows, fm.coords.dim))[3]
    else:
        common = Subspace.full(FLD, fm.coords.dim)
    return fm.coords.lift_space(common)


def precrowns_of_factor(F: ChiefFactor) -> PrecrownFamily:
    """The precrowns attached to a supplemented factor.

    Nonabelian: the unique precrown (A + C)/C.  Abelian over a small finite
    field: the full finite family, one graph over N0/B plus B per map h of
    Hom_L(N0/B, A/B) (each meets A in B, so distinct maps give distinct
    denominators), each double-checked to be a genuine maximal-subalgebra
    core by the splitting test.  Abelian over the rationals: the base
    precrown only, with the exact intersection.
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
        import itertools

        # per lift b_i of N0/B: b_i and its images under the homs, lifted from A/B
        lift_a = factor_module(L, F.A, F.B).coords.lift
        graphs = [
            [b] + [lift_a(h.matrix.col(i)) for h in homs] for i, b in enumerate(fm.coords.lifts)
        ]
        denominators = []
        for coeffs in itertools.product(range(FLD.p), repeat=len(homs)):
            vecs = [lin_comb(FLD, (1,) + coeffs, g) for g in graphs]
            N = Subspace.from_vectors(FLD, L.dim, vecs + list(F.B.basis))
            # admit only genuine cores: C/N must be complemented in L/N
            if split_abelian_extension(L, C, N) is not None:
                denominators.append(N)
        pcs = tuple(Precrown(C, N, F) for N in denominators)
        return PrecrownFamily(pcs, inter, True)
    return PrecrownFamily((Precrown(C, N0, F),), inter, False)


@memoized
def crown_of_factor(F: ChiefFactor, series: Optional[ChiefSeries] = None) -> Crown:
    """The crown of the connectedness class of a supplemented factor, with
    full certification: the socle of L/R is exactly C/R, each of its minimal
    ideals is connected to the class, and the section length matches the
    class multiplicity in the series.  Computed once per factor and series."""
    if not F.supplemented:
        raise AlgebraError("crowns exist only for supplemented factors")
    L = F.algebra
    if series is None:
        series = chief_series(L)
    status = series.status
    members = []
    for f in series.factors:
        if not f.supplemented:
            continue
        ok, _, st = connected(f, F)
        status = worst(status, st)
        if ok:
            members.append(f)
    if not members:
        raise CertificationFailure("a supplemented factor has no class member in the series")
    C = F.A.sum(F.centralizer)
    R = denominator_intersection(F)
    for f in members:
        if f != F:
            R = R.intersect(denominator_intersection(f))
    rank = len(members)
    crown = Crown(C, R, rank, F, status)
    _certify_crown(crown, series)
    return crown


def _certify_crown(crown: Crown, series: ChiefSeries):
    L = crown.class_rep.algebra
    C, R = crown.C, crown.R
    info = socle_and_minimal_ideals(L, R)
    if info.soc != C:
        raise CertificationFailure("socle of the crown quotient differs from the numerator")
    if C.dim - R.dim != crown.rank * crown.class_rep.dim:
        raise CertificationFailure("crown section has the wrong dimension")
    for W in info.minimals:
        f = classify_factor(L, W, R)
        ok, _, _ = connected(f, crown.class_rep)
        if not ok:
            raise CertificationFailure("a minimal ideal of the crown quotient leaves the class")


@memoized
def all_crowns(L: LieAlgebra, series: Optional[ChiefSeries] = None) -> tuple[Crown, ...]:
    """One crown per connectedness class of supplemented factors, asserting
    that classes and crowns determine one another; a tuple, computed once
    per algebra and series."""
    if series is None:
        series = chief_series(L)
    crowns: list[Crown] = []
    reps: list[ChiefFactor] = []
    for f in series.factors:
        if not f.supplemented:
            continue
        matched = None
        for idx, rep in enumerate(reps):
            ok, _, _ = connected(f, rep)
            if ok:
                matched = idx
                break
        if matched is None:
            reps.append(f)
            crowns.append(crown_of_factor(f, series))
        else:
            # the crown map must be constant on classes
            again = crown_of_factor(f, series)
            if again.key != crowns[matched].key:
                raise CertificationFailure("connected factors produced different crowns")
    # and injective across classes
    keys = [c.key for c in crowns]
    if len(set(keys)) != len(keys):
        raise CertificationFailure("distinct classes share a crown")
    return tuple(crowns)


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


def cover_avoid_profile(
    L: LieAlgebra, K: Subspace, crown: Crown, series: ChiefSeries
) -> list[str]:
    """Tag every series factor as covered or avoided by a crown complement,
    asserting the dichotomy: class members are avoided, the rest covered."""
    tags = []
    for f in series.factors:
        covers = f.B.sum(K).contains_space(f.A)
        avoids = K.intersect(f.A) == K.intersect(f.B)
        if covers == avoids:
            raise CertificationFailure("cover/avoid dichotomy failed on a factor")
        in_class, _, _ = connected(f, crown.class_rep) if f.supplemented else (False, None, None)
        expected = AVOIDS if in_class else COVERS
        got = COVERS if covers else AVOIDS
        if got != expected:
            raise CertificationFailure("cover/avoid profile deviates from the class prediction")
        tags.append(got)
    return tags
