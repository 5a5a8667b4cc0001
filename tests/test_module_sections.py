"""Section modules, hom spaces and the Jacobi check against the code they
replaced, and the memo of the module layer.

``section_action`` sums every [x, lift] straight from the structure
constants and projects all of them with one ``QuotientMap.project_all``;
it replaced ``qm.induced(functools.partial(L.bracket, x))`` per x, which
projected each bracket through its coordinates on W and their residue
modulo ``_ucoords`` (the test-local ``coords`` and ``residue``).
``hom_space`` spins the generators of the source with unknowns for their
images; it replaced the nullspace of the equations X rho1 = rho2 X on all
entries of X, whose literal dense builder is the reference here, basis for
basis, with every solved map checked for equivariance.
``LieAlgebra._validate_jacobi`` sums only the basis triples through a
nonzero pair of the table, where it summed every triple.  The former bodies
are kept here as references (``old_*``) and must give identical values:
every ideal pair of every chief series variant of the corpora over Q,
GF(2), GF(3) and GF(5), Hypothesis semidirect sums (also in a random basis)
and natural modules, and random and corrupted bracket tables.
"""

import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestruct import builtin, modules
from liestruct.algebra import (
    JacobiViolation,
    LieAlgebra,
    bracket_spaces,
    centralizer,
    factor_centralizer,
    section_action,
)
from liestruct.chief import chief_series, chief_series_variants
from liestruct.fields import GF, QQ
from liestruct.linalg import (
    Matrix,
    QuotientMap,
    Subspace,
    _null_rows,
    invert_matrix,
    lin_comb,
    nullspace,
    unit_vec,
    vec,
    vec_add,
    vec_is_zero,
)
from liestruct.modules import (
    LModule,
    ModuleMap,
    adjoint_module,
    factor_module,
    hom_space,
    quotient_module,
    restrict_module,
    socle_decomposition,
    spin,
)

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q, coords, residue
from test_bracket_constructions import (
    semidirect_sums,
    semidirect_sums_in_a_random_basis,
    series_sections,
)
from test_isomorphism import transport
from test_socle import natural_module

CORPUS_GF5 = tuple(n for n in CORPUS_Q if n != "ex22")  # ex22 needs p = 3 mod 4
CORPORA = (
    [pytest.param(n, QQ, id=f"{n}-q") for n in CORPUS_Q]
    + [pytest.param(n, GF(2), id=f"{n}-gf2") for n in CORPUS_GF2]
    + [pytest.param(n, GF(3), id=f"{n}-gf3") for n in CORPUS_GF3]
    + [pytest.param(n, GF(5), id=f"{n}-gf5") for n in CORPUS_GF5]
)


def old_project(qm: QuotientMap, v):
    c = coords(qm.W, v)
    red = residue(qm._ucoords, c)
    return tuple(red[j] for j in qm._free)


def old_induced(qm: QuotientMap, op) -> Matrix:
    cols = [old_project(qm, op(v)) for v in qm.lifts]  # canonical scalars
    return Matrix._of(qm.field, list(zip(*cols)), qm.dim)


def old_section_action(L: LieAlgebra, xs, qm: QuotientMap) -> list:
    return [old_induced(qm, functools.partial(L.bracket, x)) for x in xs]


def assert_actions_match(L: LieAlgebra, pairs):
    """Section matrices, scalar types included, for the basis of L and two
    vectors that are not basis vectors, on each ideal pair (A, B)."""
    F = L.field
    xs = list(L.full_space().basis)
    xs.append(tuple([F.one()] * L.dim))
    xs.append(tuple(F.coerce(i - 1) for i in range(L.dim)))
    for A, B in pairs:
        qm = QuotientMap(A, B)
        new, old = section_action(L, xs, qm), old_section_action(L, xs, qm)
        assert new == old
        assert [(M.rows, M.cols) for M in new] == [(M.rows, M.cols) for M in old]
        assert [type(a) for M in new for row in M.entries for a in row] == [
            type(a) for M in old for row in M.entries for a in row
        ]
        images = [L.bracket(x, v) for x in xs for v in qm.lifts]
        assert qm.project_all(images) == [old_project(qm, v) for v in images]


def chain_pairs(L: LieAlgebra) -> list:
    """Every pair B < A of ideals on some chief series variant of L."""
    pairs = {}
    for series in chief_series_variants(L):
        for i, B in enumerate(series.chain):
            for A in series.chain[i + 1 :]:
                pairs[(A, B)] = None
    return list(pairs)


@pytest.mark.parametrize("name,field", CORPORA)
def test_section_action_matches_the_old_route(name, field):
    L = builtin(name, field)
    assert_actions_match(L, chain_pairs(L))


@given(semidirect_sums())
@settings(max_examples=30, deadline=None)
def test_section_action_matches_the_old_route_on_semidirect_sums(sum_and_n):
    L, n = sum_and_n
    N = L.span([unit_vec(L.field, L.dim, i) for i in range(n)])  # the ideal F^n
    assert_actions_match(L, series_sections(L) + [(N, L.zero_space()), (L.full_space(), N)])


def test_section_images_outside_the_numerator_are_refused():
    """Every image is tested for membership in W: ad x does not leave the
    line of e in sl2 invariant, and a vector off W has no W/U coordinates."""
    for field in (QQ, GF(3)):
        L = builtin("sl2", field)
        W = L.span([unit_vec(field, 3, 0)])
        qm = QuotientMap(W, L.zero_space())
        with pytest.raises(ValueError):
            section_action(L, L.full_space().basis, qm)
        with pytest.raises(ValueError):
            qm.project(unit_vec(field, 3, 1))
        with pytest.raises(ValueError):
            qm.project_all([W.basis[0], unit_vec(field, 3, 2)])


def old_equivariance_rows(M1, M2) -> list:
    """The equations X rho1 = rho2 X on the unknown map X: M1 -> M2,
    flattened by rows (entry (i, k) of X is unknown i * M1.dim + k), one
    per action pair and matrix entry, zero and repeated ones included."""
    F = M1.field
    s, t = M1.dim, M2.dim
    rows = []
    for r1, r2 in zip(M1.mats, M2.mats):
        for i in range(t):
            for j in range(s):
                coeff = [F.zero()] * (t * s)
                for k in range(s):
                    coeff[i * s + k] += r1.entries[k][j]
                for k in range(t):
                    coeff[k * s + j] -= r2.entries[i][k]
                rows.append(vec(F, coeff))
    return rows


def old_hom_space(M1, M2) -> list:
    """The basis of the nullspace of ``old_equivariance_rows``, as maps."""
    F = M1.field
    s, t = M1.dim, M2.dim
    if s == 0 or t == 0:
        return []
    null = nullspace(F, s * t, old_equivariance_rows(M1, M2))
    return [
        ModuleMap(M1, M2, Matrix._of(F, [flatv[i * s : (i + 1) * s] for i in range(t)], s))
        for flatv in null.basis
    ]


def assert_homs_match(mods):
    """hom_space equals the reference basis for basis on every ordered pair,
    and each of its maps, built without the check, is equivariant."""
    for M1 in mods:
        for M2 in mods:
            new = [h.matrix for h in hom_space(M1, M2)]
            assert new == [h.matrix for h in old_hom_space(M1, M2)]
            for X in new:
                assert all(r2.matmul(X) == X.matmul(r1) for r1, r2 in zip(M1.mats, M2.mats))


@pytest.mark.parametrize("name,field", CORPORA)
def test_hom_space_matches_the_unfiltered_system(name, field):
    """Every ordered pair of the adjoint module, the chief-factor modules and
    the socle summands of the adjoint module."""
    L = builtin(name, field)
    M = adjoint_module(L)
    summands, _, _ = socle_decomposition(M)
    mods = [M] + [f.module() for f in chief_series(L).factors]
    mods += [restrict_module(M, W) for W in summands]
    assert_homs_match(mods)


@st.composite
def natural_modules(draw):
    """The natural module of the commutator closure of up to two integer
    n x n matrices (n <= 3) over Q, GF(2), GF(3) or GF(5)."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    n = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)
    M = natural_module(p, n, draw(st.lists(entries, min_size=1, max_size=2)))
    assume(M.algebra.dim > 0)
    return M


@given(natural_modules())
@settings(max_examples=40, deadline=None)
def test_hom_space_matches_the_unfiltered_system_on_natural_modules(M):
    W = spin(M, unit_vec(M.field, M.dim, M.dim - 1))
    assert_homs_match([M, M.dual(), restrict_module(M, W), quotient_module(M, W)])


@given(semidirect_sums())
@settings(max_examples=20, deadline=None)
def test_hom_space_matches_the_unfiltered_system_on_semidirect_sums(sum_and_n):
    L, n = sum_and_n
    N = L.span([unit_vec(L.field, L.dim, i) for i in range(n)])
    sections = series_sections(L) + [(N, L.zero_space()), (L.full_space(), N)]
    assert_homs_match(list(dict.fromkeys(factor_module(L, A, B).module for A, B in sections)))


@given(semidirect_sums_in_a_random_basis(primes=(0, 2, 3, 5)))
@settings(max_examples=25, deadline=None)
def test_hom_space_matches_the_unfiltered_system_in_a_random_basis(sum_and_ideal):
    """Sections of semidirect sums F^n + L over Q, GF(2), GF(3) and GF(5) in
    a basis where the action matrices are dense."""
    L, N = sum_and_ideal
    sections = series_sections(L) + [(N, L.zero_space()), (L.full_space(), N)]
    assert_homs_match(list(dict.fromkeys(factor_module(L, A, B).module for A, B in sections)))


@st.composite
def lines_and_targets(draw):
    """A natural module M (``natural_modules``) and a 1-dimensional module S
    of its algebra L, given by a character: a combination, with
    coefficients in {-1, 0, 1}, of a basis of the functionals vanishing on
    [L, L] (the zero character, the trivial module, included)."""
    M = draw(natural_modules())
    L, F = M.algebra, M.field
    full = L.full_space()
    characters = nullspace(F, L.dim, bracket_spaces(L, full, full).basis).basis
    coeffs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(characters), max_size=len(characters)))
    lam = lin_comb(F, coeffs, characters) if characters else (F.zero(),) * L.dim
    return LModule(L, [Matrix(F, [[x]]) for x in lam]), M


@given(lines_and_targets())
@settings(max_examples=60, deadline=None)
def test_hom_from_a_line_matches_the_unfiltered_system(case):
    """Maps from a 1-dimensional module are a joint eigenspace, solved with
    no spin: from the character S and from the 1-dimensional sections of M,
    into M, its dual, a submodule and its quotient, the zero module and
    those lines."""
    S, M = case
    W = spin(M, unit_vec(M.field, M.dim, M.dim - 1))
    sections = [restrict_module(M, W), quotient_module(M, W)]
    lines = [S] + [N for N in sections if N.dim == 1]
    zero = restrict_module(M, Subspace.zero(M.field, M.dim))
    for S1 in lines:
        for T in [M, M.dual(), zero, *sections, *lines]:
            new = [h.matrix for h in hom_space(S1, T)]
            assert new == [h.matrix for h in old_hom_space(S1, T)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=["q", "gf2", "gf3", "gf5"])
def test_hom_from_a_character_of_r2(field):
    """r2, [x, y] = y, and the characters lambda(x) = a, lambda(y) = 0 for
    every a in {0, 1, 2, -1} (residues mod p): only y is an eigenvector of
    the adjoint action, with eigenvalue 1, and L/[L, L] is the trivial line."""
    L = builtin("r2", field)
    M = adjoint_module(L)
    full = L.full_space()
    top = factor_module(L, full, bracket_spaces(L, full, full)).module
    for a in (0, 1, 2, -1):
        S = LModule(L, [Matrix(field, [[a]]), Matrix(field, [[0]])])
        into = [hom_space(S, T) for T in (M, top, S)]
        assert [[h.matrix for h in homs] for homs in into] == [
            [h.matrix for h in old_hom_space(S, T)] for T in (M, top, S)
        ]
        a_is = field.coerce(a)
        assert [len(homs) for homs in into] == [a_is == 1, a_is == 0, 1]
        if a_is == 1:
            assert into[0][0].matrix == Matrix(field, [[0], [1]])


def hom_unknowns(monkeypatch) -> list:
    """The number of unknowns (columns) of every system ``_hom_basis``
    solves from here on."""
    counts = []

    def counted(F, n, rows, pivots):
        counts.append(n)
        return _null_rows(F, n, rows, pivots)

    monkeypatch.setattr(modules, "_null_rows", counted)
    return counts


def spin_sources(monkeypatch) -> list:
    """The pivot count s of every ``_spin_rows`` call from here on: in a
    hom space system, the dimension of the source."""
    sources = []
    orig = modules._spin_rows

    def counted(F, action, s, seeds, halt=False):
        sources.append(s)
        return orig(F, action, s, seeds, halt)

    monkeypatch.setattr(modules, "_spin_rows", counted)
    return sources


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=["q", "gf2", "gf3", "gf5"])
def test_hom_space_on_zero_modules_generators_and_idle_elements(field, monkeypatch):
    """A zero source or target (s = 0 or t = 0), sources that need several
    generators, each with t unknowns, elements acting as 0 on the source
    but not on the target, and 1-dimensional sources, whose maps are a joint
    eigenspace solved with no spin system."""
    counts, sources = hom_unknowns(monkeypatch), spin_sources(monkeypatch)
    perfect = ["sl2_plus_sl2"] if field.characteristic() != 2 else []
    for name in ["ab(3)", "r2"] + perfect:
        L = builtin(name, field)
        M = adjoint_module(L)
        zero = restrict_module(M, L.zero_space())
        top = factor_module(L, L.full_space(), bracket_spaces(L, L.full_space(), L.full_space()))
        assert hom_space(zero, M) == hom_space(M, zero) == hom_space(zero, zero) == []
        assert_homs_match([M, top.module])
    # ab(3), where L/[L, L] is M: every element acts as 0, so each of the 3
    # unit vectors is a generator and every map is equivariant
    assert counts[:1] == [3 * 3]
    # r2, [x, y] = y: y spans a submodule, so M needs e_1 and e_0; every
    # element acts as 0 on L/[L, L] but not on M, which has no invariants;
    # the maps from the line L/[L, L] are solved without a spin
    assert counts[1:3] == [2 * 2, 2 * 1]
    # sl2 + sl2 (not over GF(2)) is perfect, and e_5 spins only its second
    # summand, so End(M) has two generators
    assert counts[3:] == [2 * 6] * len(perfect)
    assert sources == [3, 2, 2] + [6] * len(perfect)


def test_the_end_system_of_a_rebased_factor_has_t_unknowns_per_generator(monkeypatch):
    """The End system of the 15-dimensional chief factor [L, L] of gl(4)
    over GF(5), in a basis drawn with entries in {-1, 0, 1}: the module is
    irreducible, so e_14 generates it and the system has 1 * 15 unknowns,
    not the 15 * 15 of a system on every entry of X."""
    F = GF(5)
    units = [tuple(int(k == m) for k in range(16)) for m in range(16)]
    L = natural_module(5, 4, units).algebra
    rng = random.Random("probe:1:16")
    g = None
    while g is None or invert_matrix(g) is None:
        g = Matrix(F, [[rng.choice((-1, 0, 1)) for _ in range(16)] for _ in range(16)])
    L = transport(L, g)
    full = L.full_space()
    M = factor_module(L, bracket_spaces(L, full, full), L.zero_space()).module
    counts = hom_unknowns(monkeypatch)
    assert M.dim == 15
    assert [h.matrix for h in hom_space(M, M)] == [Matrix.identity(F, 15)]
    assert counts == [15]


def test_hom_space_is_a_new_list_of_shared_maps():
    L = builtin("gl2", QQ)
    M = adjoint_module(L)
    first = hom_space(M, M)
    expected = [h.matrix for h in first]
    first.clear()
    first.append("not a map")
    again = hom_space(M, M)
    assert again is not first
    assert [h.matrix for h in again] == expected
    assert all(a is b for a, b in zip(again, hom_space(M, M)))


def test_sections_and_centralizers_are_computed_once_per_algebra():
    L = builtin("h3_plus_r2", GF(3))
    M = adjoint_module(L)
    W = spin(M, unit_vec(L.field, L.dim, 0))
    same_W = Subspace.from_vectors(L.field, L.dim, list(W.basis))
    assert W.dim < M.dim
    assert restrict_module(M, W) is restrict_module(M, W)
    assert restrict_module(M, W) is restrict_module(M, same_W)
    assert quotient_module(M, W) is quotient_module(M, same_W)
    A = L.span(L.table.values())
    assert centralizer(L, A) is centralizer(L, A)
    assert factor_centralizer(L, A, L.zero_space()) is factor_centralizer(
        L, A, L.zero_space()
    )
    # a value-equal algebra has its own memo, with value-equal results
    L2 = builtin("h3_plus_r2", GF(3))
    assert centralizer(L2, A) == centralizer(L, A)
    assert centralizer(L2, A) is not centralizer(L, A)


def old_jacobi_failure(L: LieAlgebra):
    F = L.field
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = L.bracket(L.basis_bracket(i, j), unit_vec(F, n, k))
                s = vec_add(F, s, L.bracket(L.basis_bracket(j, k), unit_vec(F, n, i)))
                s = vec_add(F, s, L.bracket(L.basis_bracket(k, i), unit_vec(F, n, j)))
                if not vec_is_zero(F, s):
                    return i, j, k
    return None


def jacobi_failure(field, dim: int, table: dict):
    try:
        LieAlgebra(field, dim, table)
    except JacobiViolation as exc:
        return exc.indices
    return None


def assert_jacobi_matches(field, dim: int, table: dict):
    old = old_jacobi_failure(LieAlgebra(field, dim, table, validate=False))
    assert jacobi_failure(field, dim, table) == old


FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(5)])


@st.composite
def random_tables(draw):
    """A sparse bracket table of dimension 3-6 with small entries: most
    break the Jacobi identity somewhere, some do not."""
    field = draw(FIELDS)
    dim = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    keys = draw(st.lists(st.sampled_from(pairs), max_size=5, unique=True))
    vectors = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    return field, dim, {key: tuple(draw(vectors)) for key in keys}


@given(random_tables())
@settings(max_examples=200, deadline=None)
def test_jacobi_violations_match_the_all_triples_loop(drawn):
    assert_jacobi_matches(*drawn)


@st.composite
def corrupted_corpus_tables(draw):
    """A corpus algebra's table with one structure constant changed."""
    field = draw(FIELDS)
    names = {2: CORPUS_GF2, 5: CORPUS_GF5}.get(getattr(field, "p", 0), CORPUS_Q)
    L = builtin(draw(st.sampled_from(names)), field)
    pairs = [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)]
    if not pairs:  # ab(1)
        return field, L.dim, dict(L.table)
    i, j = draw(st.sampled_from(pairs))
    k = draw(st.integers(0, L.dim - 1))
    table = dict(L.table)
    v = list(table.get((i, j), (0,) * L.dim))
    v[k] += draw(st.integers(1, 2))
    table[(i, j)] = tuple(v)
    return field, L.dim, table


@given(corrupted_corpus_tables())
@settings(max_examples=150, deadline=None)
def test_corrupted_corpus_tables_fail_where_the_all_triples_loop_does(drawn):
    assert_jacobi_matches(*drawn)


def test_a_large_table_is_checked_through_its_nonzero_pairs():
    """ab(64) has no nonzero pair and no triple to sum; in dimension 64 a
    table whose only pairs are [e0, e1] = e2 and [e2, e3] = e0 fails first
    on (0, 1, 3), as the all-triples loop finds."""
    assert builtin("ab(64)", GF(2)).dim == 64
    zero = [0] * 64
    table = {(0, 1): tuple(zero[:2] + [1] + zero[3:]), (2, 3): tuple([1] + zero[1:])}
    assert jacobi_failure(GF(2), 64, table) == (0, 1, 3)
    assert_jacobi_matches(GF(2), 64, table)
    assert_jacobi_matches(QQ, 64, table)
