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
certification status belongs to the ``ChiefSeries``.  Module isomorphism
is decided by Schur's hom space, different centralizers parting two
nonabelian factors first.  Two factors are *connected* when they are
isomorphic as modules, or when, for N the intersection of their
centralizers, they arise (up to module isomorphism) as the two minimal
ideals of L/N and L/N is primitive of type 3; that is read from the socle
and the primitive type of the section L/N alone.  ``_partition`` splits
factors into classes under either relation.
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
from .linalg import Subspace, intersect_many
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

    Different abelian flags or dimensions, and for nonabelian factors
    different centralizers, are certified rejections; every other pair goes
    through Schur: the first hom-space map.  Nonabelian factors with one
    centralizer C are both the minimal ideal (A + C)/C of L/C, so a Schur
    "no" there raises.  Mixed pairs are never isomorphic, by the library's
    rule, though as L-modules they can be (for sl2 acting on its adjoint
    module V, both V and L/V are the adjoint module): the crowns need it, as
    connected factors share one crown, whose numerator A + C is V for V/0
    but L for L/V.
    """
    if F1.algebra != F2.algebra:
        raise AlgebraError("factors of different algebras")
    if F1.abelian != F2.abelian or F1.dim != F2.dim:
        return False, None, CERTIFIED
    if not F1.abelian and F1.centralizer != F2.centralizer:
        return False, None, CERTIFIED
    iso, status = module_isomorphism(F1.module(), F2.module())
    if iso is None and status.certified and not F1.abelian:
        raise CertificationFailure("nonabelian factors with one centralizer are not isomorphic")
    return iso is not None, iso, status


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


def _partition(factors, related) -> tuple:
    """The classes of ``factors`` under the equivalence ``related``, in
    order of first member, as ``(indices, status)`` pairs.  Each unordered
    pair is tested once, as ``related(later, earlier)``, a related pair
    joins two classes (the relation is transitive), and a pair certified
    unrelated in one class raises.  A class is certified when its joins are
    and a certified unrelated pair parts it from every other class, else it
    takes the tests between."""
    label = list(range(len(factors)))  # the index of the first member of each factor's class
    tests = {}
    for j, g in enumerate(factors):
        for i in range(j):
            tests[i, j] = related(g, factors[i])
            if tests[i, j][0] and label[i] != label[j]:
                a, b = sorted((label[i], label[j]))
                label = [a if x == b else x for x in label]
    parted = {frozenset((label[i], label[j])) for (i, j), t in tests.items() if not t[0] and t[2].certified}
    if any(len(pair) == 1 for pair in parted):
        raise CertificationFailure("factors certified unrelated fall in one class")
    status = dict.fromkeys(label, CERTIFIED)
    for (i, j), (ok, _, st) in tests.items():
        pair = frozenset((label[i], label[j]))
        if ok or len(pair) == 2 and pair not in parted:  # a join, or a test between classes not parted
            for c in pair:
                status[c] = worst(status[c], st)
    return tuple((tuple(k for k, x in enumerate(label) if x == c), st) for c, st in status.items())


def iso_classes(series: ChiefSeries) -> list[IsoClass]:
    """Partition the series factors by module isomorphism."""
    classes = _partition(series.factors, module_isomorphic)
    return [IsoClass(series.factors[members[0]], members) for members, _ in classes]


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
    classes = _partition(S1.factors + S2.factors, module_isomorphic)
    status = worst(S1.status, S2.status, *(st for _, st in classes))
    n = len(S1)
    pairs = []
    for ridx, (members, _) in enumerate(classes):
        side1 = [i for i in members if i < n]
        side2 = [k - n for k in members if k >= n]
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
