"""Chief series and chief factors: classification flags, module isomorphism
and connectedness of factors, the strengthened Jordan-Hoelder matching, and
the solvable radical read off the chief series.

Terminology.  A chief factor A/B is *supplemented* when some proper
subalgebra M satisfies L = A + M with B inside M, *complemented* when
additionally A cap M = B, and *Frattini* when it lies inside the Frattini
ideal of L/B; a factor is Frattini exactly when it has no proper supplement.
These three flags are facts about the section A/B: a ``ChiefFactor`` holds
the section, its abelian flag and its centralizer, and reads the flags from
the section's splitting certificate when they are asked for; the
certification status belongs to the ``ChiefSeries``.  Two factors are
*connected* when they are isomorphic as modules, or when, for N the
intersection of their centralizers, they arise (up to module isomorphism)
as the two minimal ideals of L/N and L/N is primitive of type 3; that is
read from the socle and the primitive type of the section L/N alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    AlgebraError,
    LieAlgebra,
    brackets_inside,
    factor_centralizer,
    is_ideal,
    is_solvable,
    memoized,
    subspace_is_solvable,
)
from .linalg import Matrix, QuotientMap, Subspace, intersect_many, invert_matrix
from .modules import (
    LModule,
    ModuleMap,
    factor_module,
    module_isomorphism,
    socle_and_minimal_ideals,
    split_abelian_extension,
)
from .primitive import TYPE3, PrimitiveWitness, classify_primitive
from .status import CERTIFIED, CertificationFailure, Status, worst


class MatchFailure(RuntimeError):
    """The Jordan-Hoelder pairing could not be built; this is a bug signal,
    never an expected outcome."""


@dataclass(frozen=True)
class ChiefFactor:
    """A chief factor A/B: its abelian flag and its centralizer, with the
    supplement/complement/Frattini flags read from the section.

    Abelian factors read the three flags, and the complement witness, from
    the memoized cocycle splitting test ``split_abelian_extension(L, A, B)``,
    which runs only when a flag is first read (for them supplemented,
    complemented and non-Frattini coincide).  Nonabelian factors are always
    supplemented and never Frattini: a Frattini factor would sit inside the
    Frattini ideal of L/B, whose chief factors are abelian.  Their complement
    witness is the top of the algebra, or the centralizer when it
    complements; ``complemented`` is None when neither applies (possible
    only over the rationals, where no analytic route decides the flag; the
    finite-field oracle settles those in tests).  Two factors of one algebra
    are equal exactly when their sections are.
    """

    algebra: LieAlgebra
    A: Subspace
    B: Subspace
    abelian: bool
    centralizer: Subspace

    @property
    def dim(self) -> int:
        return self.A.dim - self.B.dim

    def module(self) -> LModule:
        return factor_module(self.algebra, self.A, self.B).module

    @property
    def complement_witness(self) -> Optional[Subspace]:
        A, B, cent = self.A, self.B, self.centralizer
        if self.abelian:
            cert = split_abelian_extension(self.algebra, A, B)
            return cert.complement if cert else None
        if A.is_full() and A.dim > B.dim:
            return B
        if cent.sum(A).is_full() and cent.intersect(A) == B:
            return cent
        return None

    @property
    def supplemented(self) -> bool:
        return not self.frattini

    @property
    def complemented(self) -> Optional[bool]:
        if self.abelian:
            return not self.frattini
        return True if self.complement_witness is not None else None

    @property
    def frattini(self) -> bool:
        return self.abelian and split_abelian_extension(self.algebra, self.A, self.B) is None

    def __repr__(self):
        return f"ChiefFactor(dim={self.dim}, abelian={self.abelian}, frattini={self.frattini})"


@dataclass(frozen=True)
class ChiefSeries:
    algebra: LieAlgebra
    chain: tuple
    factors: tuple
    status: Status

    def __len__(self):
        return len(self.factors)


@memoized
def classify_factor(L: LieAlgebra, A: Subspace, B: Subspace) -> ChiefFactor:
    """The chief factor A/B, computed once per section: its abelian flag
    and its centralizer.  The complement flags are read from the section
    when asked for, so a classification made only to test connectedness
    (a crown certificate, an oracle core) runs no splitting test."""
    return ChiefFactor(L, A, B, brackets_inside(L, A, A, B), factor_centralizer(L, A, B))


@memoized
def chief_series(L: LieAlgebra, choices: tuple = ()) -> ChiefSeries:
    """A chief series built bottom-up from certified minimal ideals, once
    per algebra and ``choices``.

    ``choices[k]`` selects among the minimal ideals of the k-th quotient
    (default first in the deterministic order), which is how alternative
    series are generated for the Jordan-Hoelder tests.
    """
    chain = [L.zero_space()]
    status = CERTIFIED
    step = 0
    while chain[-1].dim < L.dim:
        info = socle_and_minimal_ideals(L, chain[-1])
        status = worst(status, info.status)
        if not info.minimals:
            raise CertificationFailure("no minimal ideal found above a proper ideal")
        pick = choices[step] if step < len(choices) else 0
        chain.append(info.minimals[pick % len(info.minimals)])
        step += 1
    factors = tuple(classify_factor(L, A, B) for B, A in zip(chain, chain[1:]))
    return ChiefSeries(L, tuple(chain), factors, status)


def chief_series_variants(L: LieAlgebra, limit: int = 6) -> list[ChiefSeries]:
    """Distinct chief series obtained by permuting minimal-ideal choices."""
    seen = {}
    queue = [()]
    while queue and len(seen) < limit:
        choices = queue.pop(0)
        series = chief_series(L, choices)
        if series.chain not in seen:
            seen[series.chain] = series
            # branch on each level's alternatives
            for depth in range(len(series.factors)):
                info = socle_and_minimal_ideals(L, series.chain[depth])
                prefix = (tuple(choices) + (0,) * depth)[:depth]
                for alt in range(1, len(info.minimals)):
                    queue.append(prefix + (alt,))
    return list(seen.values())


@memoized
def module_isomorphic(F1: ChiefFactor, F2: ChiefFactor):
    """Module isomorphism of chief factors: (verdict, witness, status).

    Nonabelian pairs are decided by centralizer equality (with an explicit
    witness built through the common quotient); abelian pairs go through
    Schur: the first hom-space map.  Mixed pairs are never isomorphic, by
    the library's rule, though as L-modules they can be (for sl2 acting on
    its adjoint module V, both V and L/V are the adjoint module): the crowns
    need it, as connected factors share one crown, whose numerator A + C is
    V for V/0 but L for L/V.
    """
    L = F1.algebra
    if L != F2.algebra:
        raise AlgebraError("factors of different algebras")
    if F1.abelian != F2.abelian or F1.dim != F2.dim:
        return False, None, CERTIFIED
    if not F1.abelian:
        if F1.centralizer != F2.centralizer:
            return False, None, CERTIFIED
        return True, _nonabelian_iso_witness(F1, F2), CERTIFIED
    iso, status = module_isomorphism(F1.module(), F2.module())
    return iso is not None, iso, status


def _nonabelian_iso_witness(F1: ChiefFactor, F2: ChiefFactor) -> ModuleMap:
    """Witness for equal-centralizer nonabelian factors through (A_i + C)/C."""
    L = F1.algebra
    C = F1.centralizer
    top = F1.A.sum(C)
    if F2.A.sum(C) != top:
        raise CertificationFailure("equal centralizers but distinct common images")
    fm1, fm2 = factor_module(L, F1.A, F1.B), factor_module(L, F2.A, F2.B)
    qmC = QuotientMap(top, C)
    m1, m2 = (Matrix.from_columns(L.field, qmC.project_all(fm.coords.lifts)) for fm in (fm1, fm2))
    m2_inv = invert_matrix(m2)
    if m2_inv is None:
        raise CertificationFailure("factor does not embed isomorphically beside its centralizer")
    return ModuleMap(fm1.module, fm2.module, m2_inv.matmul(m1))


@dataclass(frozen=True)
class ConnectionWitness:
    kind: str  # "isomorphic" | "type3"
    iso: Optional[ModuleMap] = None
    kernel: Optional[Subspace] = None
    quotient_witness: Optional[PrimitiveWitness] = None


@memoized
def connected(F1: ChiefFactor, F2: ChiefFactor):
    """The connectedness test: (verdict, witness, status).

    Non-isomorphic factors can only be connected when both are nonabelian,
    through the section L/N for N = C1 cap C2: C1/N and C2/N must be its
    minimal ideals, read from ``socle_and_minimal_ideals(L, N)``, and the
    verdict and status are those of its type,
    ``classify_primitive(L, N=N)``, type 3 only when they centralize each
    other.  No quotient table is built: the witness's subspaces lie in L
    and contain N.  A False verdict whose status is not certified means
    "not shown connected", as when a bounded type-3 search misses."""
    L = F1.algebra
    iso, witness, st = module_isomorphic(F1, F2)
    if iso:
        return True, ConnectionWitness("isomorphic", iso=witness), st
    if F1.abelian or F2.abelian:
        return False, None, st
    C1, C2 = F1.centralizer, F2.centralizer
    N = C1.intersect(C2)
    for C in (C1, C2):
        if not is_ideal(L, C):
            raise CertificationFailure("a factor centralizer failed the ideal check")
    info = socle_and_minimal_ideals(L, N)
    if set(info.minimals) != {C1, C2}:
        return False, None, worst(st, info.status)
    qw = classify_primitive(L, N=N)
    st = worst(st, qw.status)
    if qw.verdict == TYPE3:
        return True, ConnectionWitness("type3", kernel=N, quotient_witness=qw), st
    return False, None, st


@dataclass(frozen=True)
class IsoClass:
    representative: ChiefFactor
    member_indices: tuple


def _iso_labels(factors) -> tuple[list, list, Status]:
    """``(reps, labels, status)``: each factor is labelled by the first
    earlier representative it is module-isomorphic to, else becomes a new
    representative; ``status`` is the worst status of the tests made."""
    reps: list[ChiefFactor] = []
    labels: list[int] = []
    status = CERTIFIED
    for f in factors:
        for ridx, rep in enumerate(reps):
            ok, _, st = module_isomorphic(rep, f)
            status = worst(status, st)
            if ok:
                labels.append(ridx)
                break
        else:
            reps.append(f)
            labels.append(len(reps) - 1)
    return reps, labels, status


def iso_classes(series: ChiefSeries) -> list[IsoClass]:
    """Partition the series factors by module isomorphism."""
    reps, labels, _ = _iso_labels(series.factors)
    return [
        IsoClass(rep, tuple(i for i, l in enumerate(labels) if l == ridx))
        for ridx, rep in enumerate(reps)
    ]


@dataclass(frozen=True)
class ChiefMatch:
    pairs: tuple  # (index in S1, index in S2, witness)
    status: Status


def jordan_holder_match(S1: ChiefSeries, S2: ChiefSeries) -> ChiefMatch:
    """A bijection between the factors of two chief series pairing
    module-isomorphic factors with equal Frattini flags."""
    if S1.algebra != S2.algebra:
        raise AlgebraError("series of different algebras")
    if len(S1) != len(S2):
        raise MatchFailure("series lengths differ")
    reps, labels, status = _iso_labels(S1.factors + S2.factors)
    status = worst(S1.status, S2.status, status)
    labels1, labels2 = labels[: len(S1)], labels[len(S1) :]
    pairs = []
    for ridx in range(len(reps)):
        side1 = [i for i, l in enumerate(labels1) if l == ridx]
        side2 = [j for j, l in enumerate(labels2) if l == ridx]
        if len(side1) != len(side2):
            raise MatchFailure(f"class {ridx} has unequal multiplicity across the series")
        f1_frat = [i for i in side1 if S1.factors[i].frattini]
        f1_rest = [i for i in side1 if not S1.factors[i].frattini]
        f2_frat = [j for j in side2 if S2.factors[j].frattini]
        f2_rest = [j for j in side2 if not S2.factors[j].frattini]
        if len(f1_frat) != len(f2_frat):
            raise MatchFailure(f"class {ridx} has unequal Frattini multiplicity")
        for i, j in list(zip(f1_frat, f2_frat)) + list(zip(f1_rest, f2_rest)):
            ok, wit, st = module_isomorphic(S1.factors[i], S2.factors[j])
            status = worst(status, st)
            if not ok:
                raise MatchFailure("paired factors failed the isomorphism re-check")
            pairs.append((i, j, wit))
    pairs.sort()
    return ChiefMatch(tuple(pairs), status)


def solvable_radical(L: LieAlgebra):
    """(R, status): the largest solvable ideal R, all of L (certified) when
    L is solvable, else the intersection C of the centralizers of the
    nonabelian chief factors, with the series' status.  Over every field,
    for every chief series: for a nonabelian factor A/B, ((R + B) cap A)/B
    is a solvable ideal of L/B inside the perfect minimal ideal A/B, so it
    is 0 and [R, A] lies in B; so R lies in C.  C is an ideal meeting every
    factor in an abelian section ([C, A] lies in B when A/B is nonabelian),
    so C is solvable and lies in R."""
    if is_solvable(L):
        return L.full_space(), CERTIFIED
    series = chief_series(L)
    R = radical_centralizer_formula(L, series)
    if not (is_ideal(L, R) and subspace_is_solvable(L, R)):
        raise CertificationFailure("radical candidate is not a solvable ideal")
    return R, series.status


def radical_centralizer_formula(L: LieAlgebra, series: ChiefSeries) -> Optional[Subspace]:
    """Intersection of the centralizers of the nonabelian factors of a
    series; None when the series has no nonabelian factor."""
    cents = [f.centralizer for f in series.factors if not f.abelian]
    if not cents:
        return None
    return intersect_many(cents)
