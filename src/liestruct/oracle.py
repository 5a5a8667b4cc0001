"""Ground truth by exhaustive enumeration over small prime fields: all
subspaces by echelon pattern, hence all subalgebras, ideals and maximal
subalgebras, Frattini objects, definition-based primitivity and prefrattini
subalgebras, module socles from the spins of all projective points, and the
agreement checks against the analytic paths, among them the solvable
radical against the intersection of the maximal cores of type 2 or 3.

Each algebra is enumerated once.  A quotient L/I is read through the
correspondence theorem: its maximal subalgebras and ideals are M/I for the
maximal subalgebras and ideals M of L that contain I, so Frattini factors,
crown quotients and the primitive quotients L/core(M) are decided on L's
own enumeration, and no quotient algebra is built.

The enumeration cost is predicted exactly by Gaussian binomials before any
work starts, and every enumeration checks the field order first
(``_finite_field``); exceeding the budget is a hard error, never a
truncation.  So is a product of choice sets (prefrattini choice functions,
crown complements) larger than the budget.

Subspaces are enumerated by pivot pattern (``_pivot_patterns``), the
candidates of a pattern as the product of its row choices.  The candidates
that share every row but the last are consecutive, and the brackets of
those prefix rows settle the last row for the whole block at once: each
such bracket lies in the span for every last row or for none, or pins the
one last row that can hold it (``_last_rows``).  Only the candidates that
survive are built, and tested on the brackets of their last row and then
for ideal membership on their echelon rows (``linalg._in_rref_span``),
stopping at the first bracket outside; brackets of recurring rows are
cached.  Maximal subalgebras are found by walking the proper subalgebras
in decreasing dimension and testing each one only against the maximal ones
already found; minimal ideals and the minimal spins of a socle by the dual
walk in increasing dimension.  Containment is refused on pivot sets before
any row is tested against the membership forms
(``Subspace.contains_space``).  Complements and supplements of a factor
A/B are filtered by dimension and by containing B before any sum is
formed.  The intersections over all choice functions walk the product
tree, so each prefix of a choice is intersected once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .algebra import LieAlgebra, bracket_spaces, brackets_inside, core, is_solvable, memoized
from .fields import PrimeField
from .linalg import Subspace, _in_rref_span, _nonzeros, intersect_many, unit_vec
if TYPE_CHECKING:  # pragma: no cover
    from .chief import ChiefSeries
    from .modules import LModule


class BudgetExceeded(RuntimeError):
    def __init__(self, needed: int, allowed: int, what: str = "subspaces", message: str = ""):
        self.needed = needed
        self.allowed = allowed
        super().__init__(message or f"enumeration needs {needed} {what}, budget allows {allowed}")


@dataclass(frozen=True)
class EnumBudget:
    max_subspaces: int = 500_000
    max_field_order: int = 4

    def __post_init__(self):
        if self.max_subspaces <= 0 or self.max_field_order <= 0:
            raise ValueError("budgets must be positive")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _finite_field(F, budget: EnumBudget) -> PrimeField:
    """F itself, once it is a prime field of order within the budget: the
    field check of every enumeration of the oracle."""
    if not isinstance(F, PrimeField):
        raise BudgetExceeded(0, 0, message=f"enumeration needs a finite field GF(p), not {F}")
    if F.p > budget.max_field_order:
        raise BudgetExceeded(F.p, budget.max_field_order, "field order")
    return F


def _check_budget(L: LieAlgebra, budget: EnumBudget) -> PrimeField:
    F = _finite_field(L.field, budget)
    total = subspace_count(L.dim, F.p)
    if total > budget.max_subspaces:
        raise BudgetExceeded(total, budget.max_subspaces)
    return F


def _pivot_patterns(p: int, n: int):
    """(pivots, row choices) for each pivot pattern of a nonzero subspace of
    GF(p)^n, by dimension and then lexicographically.  The choices of the
    row with pivot c are the tuples that are 1 at c and 0 before c and at
    the other pivots, their free entries running through all residues, the
    last fastest; each is built once per pattern."""
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            row_choices = []
            for c in pivots:
                free = [j for j in range(c + 1, n) if j not in pivots]
                choices = []
                for values in itertools.product(range(p), repeat=len(free)):
                    row = [0] * n
                    row[c] = 1
                    for j, x in zip(free, values):
                        row[j] = x
                    choices.append(tuple(row))
                row_choices.append(choices)
            yield pivots, row_choices


def iter_subspaces(F: PrimeField, n: int):
    """All subspaces of F^n as canonical RREF bases: the zero space, then
    each pivot pattern's ``itertools.product`` of row choices, the last row
    fastest."""
    yield Subspace.zero(F, n)
    for pivots, row_choices in _pivot_patterns(F.p, n):
        for basis in itertools.product(*row_choices):
            yield Subspace(F, n, basis, pivots)


def socle_bf(M: "LModule", budget: EnumBudget = EnumBudget()) -> Subspace:
    """The socle of a module over GF(p) from the definition: the sum of the
    minimal ones among the spins of all projective points."""
    from .modules import _nonzero_vectors, spin

    F = _finite_field(M.field, budget)
    points = (F.p**M.dim - 1) // (F.p - 1)
    if points > budget.max_subspaces:
        raise BudgetExceeded(points, budget.max_subspaces, "vectors")
    spins = {spin(M, v) for v in _nonzero_vectors(F, M.dim)}
    soc = Subspace.zero(F, M.dim)
    for W in _extremal(spins, largest=False):
        soc = soc.sum(W)
    return soc


def _extremal(spaces, largest: bool) -> tuple:
    """The maximal members of ``spaces`` under inclusion in order of
    decreasing dimension (``largest``), or the minimal ones in order of
    increasing dimension, each dimension in the given order.  Each space is
    tested only against the extremal ones already found: a space that is not
    maximal lies in a larger member, hence in a maximal one, which the walk
    has met already; dually for minimal ones.  ``contains_space`` compares
    pivot sets first, so a pair whose pivots do not nest costs no
    reduction."""
    found = []
    for U in sorted(spaces, key=lambda U: -U.dim if largest else U.dim):
        if largest:
            covered = any(V.dim > U.dim and V.contains_space(U) for V in found)
        else:
            covered = any(V.dim < U.dim and U.contains_space(V) for V in found)
        if not covered:
            found.append(U)
    return tuple(found)


@dataclass(frozen=True)
class EnumeratedStructures:
    subalgebras: tuple
    ideals: tuple
    maximal_subalgebras: tuple


def enum_structures(L: LieAlgebra, budget: EnumBudget = EnumBudget()) -> EnumeratedStructures:
    return _enum_structures_cached(L, budget)


@lru_cache(maxsize=64)
def _enum_structures_cached(L: LieAlgebra, budget: EnumBudget) -> EnumeratedStructures:
    """The subspaces of ``iter_subspaces`` that are closed, and the ideals
    among them, in that order.  Within a pivot pattern the candidates that
    share their rows before the last one (a prefix) are consecutive, and
    the brackets of the prefix settle the last row for all of them at once
    (``_last_rows``).  Each surviving candidate is tested on the brackets of
    its last row and, once closed, on those of the ideal test, stopping at
    the first bracket outside (``linalg._in_rref_span``).  Prefix rows
    recur over many prefixes, so a small cache of brackets saves many of
    them, and the nonzero entries of each row are read once."""
    F = _check_budget(L, budget)
    p, n = F.p, L.dim
    nonzeros = lru_cache(maxsize=None)(_nonzeros)

    @lru_cache(maxsize=256)
    def bracket(u, v):
        return tuple(x % p for x in L._bracket_sum(nonzeros(u), nonzeros(v)))

    units = [unit_vec(F, n, i) for i in range(n)]
    zero = Subspace.zero(F, n)
    subalgebras = [zero]
    ideals = [zero]
    for pivots, row_choices in _pivot_patterns(p, n):
        *head, last_rows = row_choices
        for prefix in itertools.product(*head):
            for last in _last_rows(p, bracket, prefix, pivots, last_rows):
                rows = prefix + (last,)
                if not all(_in_rref_span(p, bracket(r, last), rows, pivots) for r in prefix):
                    continue
                U = Subspace(F, n, rows, pivots)
                subalgebras.append(U)
                if all(
                    _in_rref_span(p, bracket(e, b), rows, pivots) for b in rows for e in units
                ):
                    ideals.append(U)
    maximals = _extremal((U for U in subalgebras if U.dim < L.dim), largest=True)
    return EnumeratedStructures(tuple(subalgebras), tuple(ideals), maximals)


def _last_rows(p: int, bracket, prefix: tuple, pivots: tuple, last_rows: list):
    """The choices r for the last row that keep every bracket of two prefix
    rows inside the span U of ``prefix + (r,)``, in their given order.

    The rows vanish at each other's pivots, so w lies in U exactly when
    w = sum_a w[c_a] * r_a.  For a bracket w of two prefix rows the residual
    res = w - sum of w[c_a] * r_a over the prefix depends on the prefix
    alone, and w lies in U exactly when res = w[c] * r for the last pivot c.
    If w[c] = 0 that reads res = 0, for every r at once; otherwise the only
    r is res / w[c], which must be one of the choices (0 before c) and the
    same for every such bracket."""
    c = pivots[-1]
    pinned = None
    for i, u in enumerate(prefix):
        for v in prefix[i + 1:]:
            w = bracket(u, v)
            res = list(w)
            for a, row in zip(pivots, prefix):
                x = w[a]
                if x:
                    for j, y in enumerate(row):
                        if y:
                            res[j] -= x * y
            s = w[c]
            if not s:
                if any(x % p for x in res):
                    return ()
                continue
            inv = pow(s, -1, p)
            r = tuple(x * inv % p for x in res)
            if any(r[:c]) or (pinned is not None and r != pinned):
                return ()
            pinned = r
    if pinned is None:
        return last_rows
    # the last row's free entries are the columns after c, the last one
    # fastest (``_pivot_patterns``): its index is their base-p value
    index = 0
    for x in pinned[c + 1:]:
        index = index * p + x
    return (last_rows[index],)


def maximal_subalgebras_of(L: LieAlgebra, budget: EnumBudget = EnumBudget()) -> tuple:
    return enum_structures(L, budget).maximal_subalgebras


def minimal_ideals_bf(L: LieAlgebra, budget: EnumBudget = EnumBudget()) -> tuple:
    return _minimal_above(L, L.zero_space(), budget)


def _minimal_above(L: LieAlgebra, I: Subspace, budget: EnumBudget = EnumBudget()) -> tuple:
    """The minimal ideals of L/I lifted to L: the ideals of L minimal among
    those that properly contain the ideal I."""
    ideals = enum_structures(L, budget).ideals
    return _extremal((J for J in ideals if J.dim > I.dim and J.contains_space(I)), largest=False)


def frattini_objects(L: LieAlgebra, budget: EnumBudget = EnumBudget()):
    """(intersection of the maximal subalgebras, its core)."""
    maxes = enum_structures(L, budget).maximal_subalgebras
    if not maxes:
        return L.full_space(), L.full_space()
    phi_sub = intersect_many(list(maxes))
    return phi_sub, core(L, phi_sub)


def frattini_ideal_bf(L: LieAlgebra, budget: EnumBudget = EnumBudget()) -> Subspace:
    return frattini_objects(L, budget)[1]


def factor_is_frattini_bf(
    L: LieAlgebra, A: Subspace, B: Subspace, budget: EnumBudget = EnumBudget()
) -> bool:
    """Definition-based Frattini flag: the ideal A/B lies in the Frattini
    ideal of L/B, that is in every maximal subalgebra of L/B, that is A lies
    in every maximal subalgebra of L that contains B."""
    maxes = enum_structures(L, budget).maximal_subalgebras
    return all(M.contains_space(A) for M in maxes if M.contains_space(B))


def complements_bf(
    L: LieAlgebra, A: Subspace, B: Subspace, budget: EnumBudget = EnumBudget()
) -> tuple:
    """All subalgebras K with K + A = L and K cap A = B, for B inside A.

    A subalgebra K of dimension dim L - dim A + dim B that contains B and
    has K + A = L meets A in a space of dimension dim B containing B, that
    is in B itself; so the dimension and containment tests go first and
    only the survivors pay for a sum."""
    if not A.contains_space(B):
        raise ValueError("complements are defined for B inside A")
    subs = enum_structures(L, budget).subalgebras
    dim = L.dim - A.dim + B.dim
    return tuple(
        K
        for K in subs
        if K.dim == dim and K.contains_space(B) and K.sum(A).is_full()
    )


def supplements_bf(
    L: LieAlgebra, A: Subspace, B: Subspace, budget: EnumBudget = EnumBudget()
) -> tuple:
    """All proper subalgebras M with L = A + M and B inside M; only an M
    with dim M + dim A >= dim L can have M + A = L, so the sum is formed
    for those alone."""
    subs = enum_structures(L, budget).subalgebras
    return tuple(
        M
        for M in subs
        if L.dim - A.dim <= M.dim < L.dim
        and M.contains_space(B)
        and M.sum(A).is_full()
    )


def primitive_bf(L: LieAlgebra, budget: EnumBudget = EnumBudget()):
    """Definitive primitivity verdict by scanning maximal subalgebras for a
    trivial core; the type is read off the minimal-ideal structure."""
    from .primitive import NOT_PRIMITIVE, TYPE1, TYPE2, TYPE3, PrimitiveWitness

    if L.dim == 0:
        return PrimitiveWitness(NOT_PRIMITIVE, reason="the zero algebra has no maximal subalgebra")
    structures = enum_structures(L, budget)
    core_free = [M for M in structures.maximal_subalgebras if core(L, M).is_zero()]
    mins = minimal_ideals_bf(L, budget)
    if not core_free:
        return PrimitiveWitness(
            NOT_PRIMITIVE, minimal_ideals=mins, reason="every maximal subalgebra has a nonzero core"
        )
    U = core_free[0]
    if len(mins) == 1:
        W = mins[0]
        abelian = bracket_spaces(L, W, W).is_zero()
        return PrimitiveWitness(
            TYPE1 if abelian else TYPE2,
            minimal_ideals=mins,
            monolith=W,
            core_free_maximal=U,
        )
    if len(mins) == 2:
        common = next(
            (
                M
                for M in core_free
                if all(
                    M.intersect(W).is_zero() and M.sum(W).is_full() for W in mins
                )
            ),
            None,
        )
        return PrimitiveWitness(
            TYPE3,
            minimal_ideals=mins,
            core_free_maximal=U,
            common_complement=common,
        )
    raise RuntimeError("primitive algebra with more than two minimal ideals: impossible")


def prefrattini_bf(
    L: LieAlgebra, series: "ChiefSeries", budget: EnumBudget = EnumBudget()
):
    """The full finite set of prefrattini subalgebras from the definition:
    one maximal subalgebra from each avoidance set of the non-Frattini
    indices of the series, intersected, over all choice functions."""
    if not is_solvable(L):
        raise ValueError("prefrattini subalgebras are defined for solvable algebras here")
    structures = enum_structures(L, budget)
    chain = series.chain
    choice_sets = []
    for i in range(1, len(chain)):
        A, B = chain[i], chain[i - 1]
        if factor_is_frattini_bf(L, A, B, budget):
            continue
        Mi = [
            M
            for M in structures.maximal_subalgebras
            if M.contains_space(B) and not M.contains_space(A)
        ]
        choice_sets.append(Mi)
    _check_choices(choice_sets, budget)
    results = set(_choice_intersections(L.full_space(), choice_sets))
    return tuple(sorted(results, key=lambda S: (S.dim, S.basis))), tuple(choice_sets)


def _check_choices(choice_sets, budget: EnumBudget) -> None:
    total = 1
    for s in choice_sets:
        total *= max(len(s), 1)
    if total > budget.max_subspaces:
        raise BudgetExceeded(total, budget.max_subspaces, "choice functions")


def _choice_intersections(acc: Subspace, choice_sets):
    """acc cap S_1 cap ... cap S_k over every choice of one S_i from each
    of the k sets, in ``itertools.product`` order: the product tree is
    walked depth first, so each prefix is intersected once and shared by
    all the choices that extend it.  With no sets, acc itself."""
    if not choice_sets:
        yield acc
        return
    rest = choice_sets[1:]
    for S in choice_sets[0]:
        yield from _choice_intersections(acc.intersect(S), rest)


@memoized
def _maximal_cores(L: LieAlgebra, budget: EnumBudget) -> tuple:
    """(M, core of M, minimal ideals of L/core(M) lifted to L, socle factor
    or None) for each maximal subalgebra M: the socle factor is the chief
    factor W/core(M) of the one lifted minimal ideal W when L/core(M) is
    monolithic, else None."""
    from .chief import classify_factor

    out = []
    for M in enum_structures(L, budget).maximal_subalgebras:
        ML = core(L, M)
        mins = _minimal_above(L, ML, budget)
        socle_factor = classify_factor(L, mins[0], ML) if len(mins) == 1 else None
        out.append((M, ML, mins, socle_factor))
    return tuple(out)


@memoized
def _maximal_supplements(L: LieAlgebra, series: "ChiefSeries", budget: EnumBudget) -> tuple:
    """Per maximal M of ``_maximal_cores``: (core, socle factor, the factors
    A/B of the series supplemented by M), shared by every crown."""
    supplemented = [f for f in series.factors if f.supplemented]
    return tuple(
        (ML, socle_factor, tuple(
            f for f in supplemented
            if M.dim + f.A.dim >= L.dim and M.contains_space(f.B) and M.sum(f.A).is_full()
        ))
        for M, ML, _, socle_factor in _maximal_cores(L, budget)
    )


def four_core_intersections(
    L: LieAlgebra, ref, series: "ChiefSeries", budget: EnumBudget = EnumBudget()
):
    """The four equal core-intersections attached to a supplemented factor,
    computed literally from enumerated maximal subalgebras.

    Sets: monolithic-primitive cores whose socle factor is connected to the
    reference; cores of monolithic maximal supplements of class members (the
    precrown denominators); cores of all maximal supplements of class
    members; cores of all maximal supplements of module-isomorphic factors.
    """
    from .chief import connected, module_isomorphic

    full = L.full_space()
    j0, j1, j2, j3 = [], [], [], []
    for ML, socle_factor, supplemented in _maximal_supplements(L, series, budget):
        monolithic = socle_factor is not None
        conn = [f for f in supplemented if connected(f, ref)[0]]
        isom = [f for f in supplemented if module_isomorphic(f, ref)[0]]
        if monolithic and connected(socle_factor, ref)[0]:
            j0.append(ML)
        if monolithic and conn:
            j1.append(ML)
        if conn:
            j2.append(ML)
        if isom:
            j3.append(ML)
    out = []
    for js in (j0, j1, j2, j3):
        out.append(intersect_many(js) if js else full)
    return tuple(out)


def oracle_check(L: LieAlgebra, budget: EnumBudget = EnumBudget()) -> list[str]:
    """Diff the analytic pipeline against the enumeration oracle; returns a
    list of discrepancy descriptions (empty means full agreement)."""
    from .chief import chief_series, solvable_radical
    from .crowns import all_crowns
    from .modules import socle_and_minimal_ideals
    from .primitive import classify_primitive

    problems: list[str] = []
    structures = enum_structures(L, budget)

    # primitivity
    analytic = classify_primitive(L)
    bf = primitive_bf(L, budget)
    if analytic.verdict != "undecided" and analytic.verdict != bf.verdict:
        problems.append(
            f"primitivity: analytic {analytic.verdict} vs oracle {bf.verdict}"
        )

    # socle and minimal ideals
    info = socle_and_minimal_ideals(L, L.zero_space())
    mins_bf = minimal_ideals_bf(L, budget)
    if info.soc != L.span([x for W in mins_bf for x in W.basis]):
        problems.append("socle: analytic sum differs from the oracle")
    for W in info.minimals:
        if W not in mins_bf:
            problems.append("a reported minimal ideal is not minimal per the oracle")

    # cores of maximal subalgebras, primitivity of the quotients, and the
    # radical as the intersection of the cores of type 2 or 3 (or L); the
    # type of L/core(M) is read off its minimal ideals: one abelian (type 1),
    # one nonabelian (type 2) or two (type 3)
    radical_bf = L.full_space()
    for M, ML, mins, _ in _maximal_cores(L, budget):
        biggest = max((I for I in structures.ideals if M.contains_space(I)), key=lambda I: I.dim)
        if ML != biggest:
            problems.append("core: chain computation differs from the ideal enumeration")
        if len(mins) not in (1, 2):
            problems.append("a maximal core quotient is not primitive")
        elif len(mins) == 2 or not brackets_inside(L, mins[0], mins[0], ML):
            radical_bf = radical_bf.intersect(ML)
    if solvable_radical(L)[0] != radical_bf:
        problems.append("radical: analytic radical differs from the type-2/3 core intersection")

    # chief factor flags
    series = chief_series(L)
    for idx, f in enumerate(series.factors):
        frat_bf = factor_is_frattini_bf(L, f.A, f.B, budget)
        if f.frattini != frat_bf:
            problems.append(f"frattini flag mismatch on factor {idx}")
        comps = complements_bf(L, f.A, f.B, budget)
        if f.complemented is not None and f.complemented != bool(comps):
            problems.append(f"complemented flag mismatch on factor {idx}")
        supp_bf = bool(supplements_bf(L, f.A, f.B, budget))
        if f.supplemented != supp_bf:
            problems.append(f"supplemented flag mismatch on factor {idx}")

    # crowns: L/R is phi-free when no minimal ideal W/R is Frattini, and
    # its socle C/R is the sum of those W/R
    crowns = all_crowns(L, series)
    for crown in crowns:
        mins_above = _minimal_above(L, crown.R, budget)
        if any(factor_is_frattini_bf(L, W, crown.R, budget) for W in mins_above):
            problems.append("a crown quotient is not phi-free")
        if L.span([x for W in mins_above for x in W.basis]) != crown.C:
            problems.append("crown numerator differs from the oracle socle")

    # prefrattini sets and the four core-intersection families (solvable only)
    if is_solvable(L):
        bf_set, _ = prefrattini_bf(L, series, budget)
        crown_comps = [complements_bf(L, c.C, c.R, budget) for c in crowns]
        _check_choices(crown_comps, budget)
        via_crowns = set(_choice_intersections(L.full_space(), crown_comps))
        if via_crowns != set(bf_set):
            problems.append("prefrattini sets differ between crowns and the definition")
        for crown in crowns:
            inters = four_core_intersections(L, crown.class_rep, series, budget)
            if len(set((i.basis for i in inters))) != 1:
                problems.append("the four core-intersections disagree")
            elif inters[0] != crown.R:
                problems.append("crown denominator differs from the core intersections")
    return problems
