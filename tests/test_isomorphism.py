"""The type-3 decision: the generator-image isomorphism search between two
simple minimal ideals, checked under basis permutations, random changes of
basis, against a brute force over GL_d(GF(p)) and against the search as it
was written with bracket words."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestruct import builtin, modules, oracle
from liestruct.algebra import (
    LieAlgebra,
    center,
    core,
    direct_sum,
    is_subalgebra,
    preserves_brackets,
    quotient_algebra,
    section_algebra,
)
from liestruct.fields import GF, QQ, FieldError, PrimeField
from liestruct.linalg import Matrix, QuotientMap, Subspace, invert_matrix, unit_vec
from liestruct.modules import VECTOR_ENUM_BUDGET, _graph_hom, socle_and_minimal_ideals
from liestruct.primitive import (
    NOT_PRIMITIVE,
    TYPE3,
    _check_algebra_iso,
    _generators,
    _rank_profile,
    _table_ratio,
    classify_primitive,
    isomorphism_search,
)

from conftest import ref_mat_scale, ref_scale
from test_socle import natural_module


def permute_basis(L: LieAlgebra, perm: list) -> LieAlgebra:
    """L on the reordered basis e'_a = e_perm[a]."""
    n = L.dim
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = L.basis_bracket(perm[a], perm[b])
            table[(a, b)] = tuple(w[perm[k]] for k in range(n))
    return LieAlgebra(L.field, n, table)


def transport(A: LieAlgebra, g: Matrix) -> LieAlgebra:
    """The algebra g.A, with [x, y] = g[g^-1 x, g^-1 y]_A, so that g is an
    isomorphism A -> g.A."""
    F, n = A.field, A.dim
    ginv = invert_matrix(g)
    table = {
        (i, j): g.apply(A.bracket(ginv.apply(unit_vec(F, n, i)), ginv.apply(unit_vec(F, n, j))))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra(F, n, table)


def is_isomorphism(A: LieAlgebra, B: LieAlgebra, T: Matrix) -> bool:
    F, n = A.field, A.dim
    if invert_matrix(T) is None:
        return False
    return all(
        T.apply(A.bracket(unit_vec(F, n, i), unit_vec(F, n, j)))
        == B.bracket(T.apply(unit_vec(F, n, i)), T.apply(unit_vec(F, n, j)))
        for i in range(n)
        for j in range(n)
    )


def assert_certified_type3(L: LieAlgebra):
    w = classify_primitive(L)
    assert w.verdict == TYPE3 and w.status.certified
    U = w.common_complement
    assert is_subalgebra(L, U) and core(L, U).is_zero()
    for M in w.minimal_ideals:
        assert U.intersect(M).is_zero() and U.sum(M).is_full()


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "gf3"])
def test_sl2_plus_sl2_is_type3_under_basis_permutations(field):
    for seed in range(24):
        perm = list(range(6))
        random.Random(f"type3:{seed}").shuffle(perm)
        assert_certified_type3(permute_basis(builtin("sl2_plus_sl2", field), perm))


def test_type3_over_gf3_does_not_reach_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was asked")

    monkeypatch.setattr(oracle, "primitive_bf", refuse)
    for seed in range(8):
        perm = list(range(6))
        random.Random(f"oracle:{seed}").shuffle(perm)
        assert_certified_type3(permute_basis(builtin("sl2_plus_sl2", GF(3)), perm))


def sl3_mod_center() -> LieAlgebra:
    """psl(3) over GF(3): sl(3) has the scalars in characteristic 3, and the
    quotient by them is simple of dimension 7."""
    units = []
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
        m = [0] * 9
        m[3 * i + j] = 1
        units.append(m)
    sl3 = natural_module(3, 3, units).algebra
    assert sl3.dim == 8
    return quotient_algebra(sl3, center(sl3)).algebra


def test_two_non_isomorphic_simple_ideals_are_not_primitive():
    L = direct_sum(builtin("sl2", GF(3)), sl3_mod_center())
    w = classify_primitive(L)
    assert w.verdict == NOT_PRIMITIVE and w.status.certified
    assert w.reason == "the two simple minimal ideals are not isomorphic"
    assert sorted(M.dim for M in w.minimal_ideals) == [3, 7]


def _invertible(p: int, d: int):
    """Every invertible d x d matrix over GF(p) is P L U with P a
    permutation, L unit lower triangular and U upper triangular with a
    nonzero diagonal."""
    perm = st.permutations(list(range(d)))
    entry = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    return st.tuples(
        perm,
        st.lists(entry, min_size=d * d, max_size=d * d),
        st.lists(entry, min_size=d * d, max_size=d * d),
        st.lists(unit, min_size=d, max_size=d),
    ).map(lambda t: _plu(GF(p), d, *t))


def _plu(F, d, perm, lower, upper, diag):
    P = Matrix(F, [unit_vec(F, d, perm[i]) for i in range(d)])
    Lo = Matrix(F, [[lower[i * d + j] if j < i else int(i == j) for j in range(d)] for i in range(d)])
    Up = Matrix(F, [[upper[i * d + j] if j > i else (diag[i] if i == j else 0) for j in range(d)] for i in range(d)])
    return P.matmul(Lo).matmul(Up)


SMALL = ("ab(1)", "ab(2)", "ab(3)", "r2", "heis", "sl2")


@st.composite
def small_algebras(draw):
    """Corpus algebras of dimension at most 3, and commutator closures of
    traceless 2 x 2 or strictly upper triangular 3 x 3 matrices (inside
    sl(2) and n(3), so of dimension at most 3)."""
    p = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        names = [n for n in SMALL if p == 3 or n != "sl2"]
        return builtin(draw(st.sampled_from(names)), GF(p))
    x = st.integers(0, p - 1)
    if draw(st.booleans()):
        shape = st.tuples(x, x, x).map(lambda t: (t[0], t[1], t[2], -t[0] % p))
        n = 2
    else:
        shape = st.tuples(x, x, x).map(lambda t: (0, t[0], t[1], 0, 0, t[2], 0, 0, 0))
        n = 3
    return natural_module(p, n, draw(st.lists(shape, min_size=1, max_size=3))).algebra


@st.composite
def algebra_and_basis_change(draw):
    A = draw(small_algebras())
    g = draw(_invertible(A.field.p, A.dim)) if A.dim else Matrix(A.field, [])
    return A, g


@given(algebra_and_basis_change())
@settings(max_examples=150, deadline=None)
def test_search_finds_an_isomorphism_after_a_change_of_basis(case):
    A, g = case
    B = transport(A, g)
    T = isomorphism_search(A, B)[0]
    assert T is not None and is_isomorphism(A, B, T)


@pytest.mark.parametrize("F", [QQ, GF(5)])
def test_a_table_times_lam_is_matched_first_by_the_identity_over_lam(F):
    """B has A's table times lam; [x/lam, y/lam] in B is [x, y]/lam, so the
    first map tried, the identity scaled by 1/lam, is the isomorphism
    returned."""
    A, lam = builtin("sl2", F), F.coerce(2)
    B = LieAlgebra(F, A.dim, {k: ref_scale(F, lam, v) for k, v in A.table.items()})
    T = ref_mat_scale(F.inv(lam), Matrix.identity(F, A.dim))
    assert isomorphism_search(A, B) == (T, True)


def brute_force_isomorphic(A: LieAlgebra, B: LieAlgebra) -> bool:
    """Try every d x d matrix over GF(p), in plain integer arithmetic."""
    p, d = A.field.p, A.dim
    if d != B.dim:
        return False
    bra = {(i, j): A.basis_bracket(i, j) for i in range(d) for j in range(d)}
    brb = {(i, j): B.basis_bracket(i, j) for i in range(d) for j in range(d)}

    def bracket_b(u, v):
        out = [0] * d
        for (i, j), w in brb.items():
            c = u[i] * v[j] % p
            if c:
                for k in range(d):
                    out[k] = (out[k] + c * w[k]) % p
        return out

    for entries in itertools.product(range(p), repeat=d * d):
        cols = [entries[k * d : (k + 1) * d] for k in range(d)]  # image of e_k

        def image(w):
            return [sum(w[k] * cols[k][r] for k in range(d)) % p for r in range(d)]

        if all(image(bra[i, j]) == bracket_b(cols[i], cols[j]) for i in range(d) for j in range(i + 1, d)):
            if invert_matrix(Matrix.from_columns(GF(p), cols)) is not None:
                return True
    return False


def r2_plus_ab1(F):
    return direct_sum(builtin("r2", F), builtin("ab(1)", F))


@pytest.mark.parametrize(
    "a,b",
    [("sl2", "heis"), ("heis", "ab(3)"), ("r2+ab(1)", "heis"), ("r2", "ab(2)")],
)
def test_search_reports_an_exhaustive_miss_on_non_isomorphic_pairs(a, b):
    F = GF(3)

    def make(name):
        return r2_plus_ab1(F) if name == "r2+ab(1)" else builtin(name, F)

    A, B = make(a), make(b)
    assert not brute_force_isomorphic(A, B)
    assert isomorphism_search(A, B) == (None, True)
    assert isomorphism_search(B, A) == (None, True)


@pytest.mark.parametrize("p", [2, 3])
def test_search_agrees_with_brute_force_on_small_algebras(p):
    F = GF(p)
    algebras = [builtin(n, F) for n in SMALL if p == 3 or n != "sl2"] + [r2_plus_ab1(F)]
    for A, B in itertools.combinations_with_replacement(algebras, 2):
        if A.dim != B.dim:
            continue
        T, complete = isomorphism_search(A, B)
        assert complete
        assert (T is not None) == brute_force_isomorphic(A, B)
        assert T is None or is_isomorphism(A, B, T)


# --- the search as it was written with bracket words -------------------------


def spanning_words_ref(A: LieAlgebra, gens: list):
    """Bracket words whose values form a basis of the subalgebra generated by
    ``gens``: a word is a generator index k or a pair (a, b) of earlier word
    indices standing for [w_a, w_b].  Returns ``(words, values)``."""
    F, n = A.field, A.dim
    words, values = [], []
    span = A.zero_space()

    def add(word, v):
        nonlocal span
        grown = span.sum(Subspace.from_vectors(F, n, [v]))
        if grown.dim > span.dim:
            span = grown
            words.append(word)
            values.append(v)

    for k, g in enumerate(gens):
        add(k, g)
    i = 0
    while i < len(values):
        for j in range(i):
            add((j, i), A.bracket(values[j], values[i]))
        i += 1
    return words, values


def generating_words_ref(A: LieAlgebra):
    """``(generators, words, values)``: a pair of basis vectors that generates
    A when there is one, else basis vectors taken greedily, with the words of
    ``spanning_words_ref`` over them."""
    F, n = A.field, A.dim
    basis = [unit_vec(F, n, i) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        words, values = spanning_words_ref(A, [basis[i], basis[j]])
        if len(values) == n:
            return [basis[i], basis[j]], words, values
    gens, words, values = [], [], []
    for e in basis:
        if not A.span(values).contains(e):
            gens.append(e)
            words, values = spanning_words_ref(A, gens)
    return gens, words, values


def word_map_ref(B: LieAlgebra, words, basis_inv: Matrix, images) -> Matrix:
    """The linear map that sends each word's value in A to its value in B
    when generator k takes ``images[k]``, for ``basis_inv`` the inverse of
    the matrix whose columns are the values in A."""
    out = []
    for w in words:
        out.append(images[w] if isinstance(w, int) else B.bracket(out[w[0]], out[w[1]]))
    return Matrix.from_columns(B.field, out).matmul(basis_inv)


def isomorphism_search_ref(A: LieAlgebra, B: LieAlgebra):
    """``isomorphism_search`` with each tuple of images fixing T through the
    bracket words that span A, kept when T is an isomorphism."""
    if A.field != B.field or A.dim != B.dim:
        return None, True
    F, n = A.field, A.dim
    lam = _table_ratio(A, B)
    T = Matrix.identity(F, n)
    if lam is not None:
        T = ref_mat_scale(F.inv(lam), T)
    if _check_algebra_iso(A, B, T):
        return T, True
    exhaustive = isinstance(F, PrimeField)
    scalars = F.elements() if exhaustive else [F.coerce(c) for c in (-1, 0, 1)]
    if len(scalars) ** n > VECTOR_ENUM_BUDGET:
        return None, False
    by_profile: dict = {}
    for y in itertools.product(scalars, repeat=n):
        if any(y):
            by_profile.setdefault(_rank_profile(B, y), []).append(y)
    gens, words, values = generating_words_ref(A)
    candidates = [by_profile.get(_rank_profile(A, g), []) for g in gens]
    tuples = 1
    for c in candidates:
        tuples *= len(c)
    if tuples > VECTOR_ENUM_BUDGET:
        return None, False
    basis_inv = invert_matrix(Matrix.from_columns(F, values))
    for images in itertools.product(*candidates):
        T = word_map_ref(B, words, basis_inv, images)
        if _check_algebra_iso(A, B, T):
            return T, True
    return None, exhaustive


def rebased(L: LieAlgebra, seed: int) -> LieAlgebra:
    """L in a basis with entries in {-1, 0, 1}, drawn from
    ``random.Random(f"probe:{seed}:{dim}")`` until invertible."""
    F, n = L.field, L.dim
    rng = random.Random(f"probe:{seed}:{n}")
    while True:
        g = Matrix(F, [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])
        if invert_matrix(g) is not None:
            return transport(L, g)


REFERENCE_NAMES = ("sl2", "gl2", "aff_sl2", "sl2_plus_sl2", "heis", "r2", "h3_plus_r2", "ab(3)", "ex22")


def field_id(F) -> str:
    return f"gf{F.p}" if isinstance(F, PrimeField) else "q"


def reference_algebras():
    """``(field, name)`` for each reference algebra over GF(3), GF(5)
    (dimension <= 5) and Q, where the field allows it."""
    for F in (GF(3), GF(5), QQ):
        for name in REFERENCE_NAMES:
            try:
                L = builtin(name, F)
            except FieldError:
                continue
            if F != GF(5) or L.dim <= 5:
                yield pytest.param(F, name, id=f"{name}-{field_id(F)}")


def four_bases(F, name):
    L = builtin(name, F)
    return [L] + [rebased(L, seed) for seed in (1, 2, 3)]


# The searches from basis k to basis k + 1 that take from 1 s to over 90 s
# in the graph or the word version (2-core x86-64 VM, Python 3.11), left
# out of the suite for time: each tries thousands of tuples of images or
# more before it ends.
SLOW_SEARCHES = {
    ("sl2_plus_sl2", "gf3"): {2},
    ("h3_plus_r2", "gf3"): {0},
    ("ex22", "gf3"): {0},
    ("gl2", "q"): {1},
    ("aff_sl2", "q"): {1, 2, 3},
    ("sl2_plus_sl2", "q"): {1, 2, 3},
    ("ex22", "q"): {0},
}


@pytest.mark.parametrize("F,name", list(reference_algebras()))
def test_generators_and_searches_match_the_word_reference(F, name):
    """In each of four bases: the same generators, and from each basis to
    the next the same ``(T, complete)``."""
    bases = four_bases(F, name)
    for A in bases:
        assert _generators(A) == generating_words_ref(A)[0]
    slow = SLOW_SEARCHES.get((name, field_id(F)), set())
    for k, (A, B) in enumerate(zip(bases, bases[1:] + bases[:1])):
        if k not in slow:
            assert isomorphism_search(A, B) == isomorphism_search_ref(A, B)


def rebased_minimal_sections(p: int):
    """The section algebras M1/0 and M2/0 of the two minimal ideals of
    ``sl2_plus_sl2`` over GF(p) in a generated basis."""
    L = rebased(builtin("sl2_plus_sl2", GF(p)), 1)
    mins = socle_and_minimal_ideals(L, L.zero_space()).minimals
    assert len(mins) == 2
    return [section_algebra(L, QuotientMap(M, L.zero_space())) for M in mins]


@pytest.mark.parametrize("p", [7, 11])
def test_the_rebased_type3_sections_match_the_word_reference(p):
    A1, A2 = rebased_minimal_sections(p)
    for A in (A1, A2):
        assert _generators(A) == generating_words_ref(A)[0]
    found = [isomorphism_search(A, B) for A, B in ((A1, A2), (A2, A1))]
    assert found == [isomorphism_search_ref(A1, A2), isomorphism_search_ref(A2, A1)]
    T, complete = found[0]  # the direction classify_primitive searches
    assert complete and is_isomorphism(A1, A2, T)


@st.composite
def graph_cases(draw):
    """A small nonabelian algebra A in a generated basis, an algebra B
    isomorphic to A and one image in B per generator of A: the image under
    the isomorphism, a multiple of it, or any vector."""
    A, g = draw(algebra_and_basis_change())
    assume(not center(A).is_full())
    A = transport(A, draw(_invertible(A.field.p, A.dim)))
    B = transport(A, g)
    F, n = A.field, A.dim
    entry = st.integers(0, F.p - 1)
    images = []
    for x in _generators(A):
        kind = draw(st.sampled_from(["image", "multiple", "any", "any"]))
        if kind == "any":
            images.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
        else:
            c = 1 if kind == "image" else draw(entry)
            images.append(tuple(c * y % F.p for y in g.apply(x)))
    return A, B, images


@given(graph_cases())
@settings(max_examples=300, deadline=None)
def test_the_graph_spin_meets_no_relation_iff_the_word_map_is_a_homomorphism(case):
    """The spin of the pairs (g_k, y_k) under the (ad g_k, ad y_k) meets no
    relation exactly when the map that the bracket words fix preserves
    brackets and sends each generator to its image, and is then that map."""
    A, B, images = case
    gens, words, values = generating_words_ref(A)
    assert _generators(A) == gens
    W = word_map_ref(B, words, invert_matrix(Matrix.from_columns(A.field, values)), images)
    hom = preserves_brackets(A, B, W) and all(W.apply(x) == y for x, y in zip(gens, images))
    T = _graph_hom(A.field, gens, images, [(A.ad(x), B.ad(y)) for x, y in zip(gens, images)])
    assert (T is not None) == hom
    assert T is None or T == W


# --- the graph spin stops at its first relation --------------------------------


def spun_to_the_end(monkeypatch):
    """Run every graph spin to its end from here on, as ``_graph_hom`` did
    before it stopped at the first relation."""
    real = modules._spin_rows
    monkeypatch.setattr(modules, "_spin_rows", lambda F, action, s, seeds, halt=False: real(F, action, s, seeds))


@pytest.mark.parametrize("F,name", list(reference_algebras()))
def test_a_search_finds_the_same_map_when_its_spins_halt(F, name, monkeypatch):
    """``isomorphism_search`` returns the same ``(T, complete)`` whether its
    graph spins stop at their first relation or run to their end: from each
    of four bases of the algebra to the next, and from the algebra to every
    other reference algebra of its dimension over the field."""
    bases = four_bases(F, name)
    slow = SLOW_SEARCHES.get((name, field_id(F)), set())
    pairs = [(A, B) for k, (A, B) in enumerate(zip(bases, bases[1:] + bases[:1])) if k not in slow]
    for other in REFERENCE_NAMES:
        try:
            B = builtin(other, F)
        except FieldError:
            continue
        if other != name and B.dim == bases[0].dim:
            pairs.append((bases[0], B))
    halted = [isomorphism_search(A, B) for A, B in pairs]
    spun_to_the_end(monkeypatch)
    assert halted == [isomorphism_search(A, B) for A, B in pairs]


def reduced_inserts(monkeypatch) -> list:
    """Every vector that ``_reduce`` returns to ``modules`` from here on:
    the spin's inserts, as reduced."""
    real, seen = modules._reduce, []

    def noted(p, w, rows, pivots):
        seen.append(real(p, w, rows, pivots))
        return seen[-1]

    monkeypatch.setattr(modules, "_reduce", noted)
    return seen


def test_a_rejected_tuple_stops_at_its_first_relation(monkeypatch):
    """The generators of h3_plus_r2/GF(3) in a generated basis, sent to
    themselves in reverse order, fix no homomorphism: the graph spin ends at
    its third insert, the first to reduce to a relation (zero on A, nonzero
    on B).  Spun to its end, the same spin makes those inserts first and 21
    more, among them further relations."""
    A = rebased(builtin("h3_plus_r2", GF(3)), 1)
    F, n = A.field, A.dim
    gens = _generators(A)
    images = gens[::-1]
    ads = [(A.ad(x), A.ad(y)) for x, y in zip(gens, images)]

    def relations(inserts):
        return [k for k, w in enumerate(inserts) if not any(w[:n]) and any(w)]

    seen = reduced_inserts(monkeypatch)
    assert _graph_hom(F, gens, images, ads) is None
    halted = list(seen)
    assert relations(halted) == [len(halted) - 1] == [2]
    seen.clear()
    spun_to_the_end(monkeypatch)
    assert _graph_hom(F, gens, images, ads) is None
    assert seen[: len(halted)] == halted and len(seen) == 24 and len(relations(seen)) > 1
