"""``brackets_inside``, the reduction test behind ``is_subalgebra``,
``is_ideal`` and the abelian-section checks, against the span-based
definitions it replaced: the span of every bracket is eliminated and then
tested for containment."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.algebra import bracket_spaces, brackets_inside, is_ideal, is_subalgebra
from liestruct.chief import chief_series
from liestruct.fields import GF, QQ
from liestruct.linalg import DimensionMismatch, Subspace

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q

CASES = (
    [(name, QQ) for name in CORPUS_Q]
    + [(name, GF(2)) for name in CORPUS_GF2]
    + [(name, GF(3)) for name in CORPUS_GF3]
)
IDS = [f"{name}-{'q' if F == QQ else f'gf{F.p}'}" for name, F in CASES]


def old_is_subalgebra(L, U):
    return U.contains_space(bracket_spaces(L, U, U))


def old_is_ideal(L, U):
    return U.contains_space(bracket_spaces(L, L.full_space(), U))


def old_abelian_section(L, A, B):
    return B.contains_space(bracket_spaces(L, A, A))


def agree(L, U):
    assert is_subalgebra(L, U) == old_is_subalgebra(L, U)
    assert is_ideal(L, U) == old_is_ideal(L, U)
    return is_subalgebra(L, U), is_ideal(L, U)


def small_spaces(L):
    """Spans of up to two basis vectors and of the sums e_i + e_j: many of
    them are neither subalgebras nor ideals."""
    F, n = L.field, L.dim
    units = [tuple(F.coerce(int(k == i)) for k in range(n)) for i in range(n)]
    sums = [tuple(F.add(a, b) for a, b in zip(units[i], units[j]))
            for i, j in itertools.combinations(range(n), 2)]
    for size in (1, 2):
        for vecs in itertools.combinations(units, size):
            yield L.span(vecs)
    for v in sums:
        yield L.span([v])


@pytest.mark.parametrize("name,F", CASES, ids=IDS)
def test_chief_series_members_and_sections(name, F):
    L = builtin(name, F)
    chain = chief_series(L).chain
    for U in chain:
        assert agree(L, U) == (True, True)
    for B, A in itertools.combinations(chain, 2):  # B inside A
        assert brackets_inside(L, A, A, B) == old_abelian_section(L, A, B)
    for U in small_spaces(L):
        agree(L, U)
        for B in chain:
            assert brackets_inside(L, U, U, B) == old_abelian_section(L, U, B)


def test_both_outcomes_are_covered():
    seen = set()
    for name, F in CASES:
        L = builtin(name, F)
        seen.update(agree(L, U) for U in small_spaces(L))
    assert seen == {(False, False), (True, False), (True, True)}


def scalars(F):
    return st.integers(-2, 2) if F == QQ else st.integers(0, F.p - 1)


@st.composite
def algebra_and_spaces(draw):
    """An algebra of the three corpora and three subspaces of it, each the
    span of a few random vectors, sometimes closed under brackets with
    itself or with the whole algebra."""
    name, F = draw(st.sampled_from(CASES))
    L = builtin(name, F)
    spaces = []
    for _ in range(3):
        vecs = draw(st.lists(
            st.lists(scalars(F), min_size=L.dim, max_size=L.dim), min_size=0, max_size=3
        ))
        U = L.span([tuple(F.coerce(x) for x in v) for v in vecs])
        closure = draw(st.sampled_from(["none", "subalgebra", "ideal"]))
        while closure != "none":
            V = L.full_space() if closure == "ideal" else U
            bigger = U.sum(bracket_spaces(L, V, U))
            if bigger == U:
                break
            U = bigger
        spaces.append(U)
    return L, spaces


@given(algebra_and_spaces())
@settings(max_examples=300, deadline=None)
def test_random_subspaces(drawn):
    L, (U, V, W) = drawn
    agree(L, U)
    assert brackets_inside(L, U, V, W) == W.contains_space(bracket_spaces(L, U, V))
    assert brackets_inside(L, U, U, W) == old_abelian_section(L, U, W)


def test_wrong_ambient_space_raises():
    L = builtin("heis", QQ)
    for U in (Subspace.full(QQ, 4), Subspace.zero(QQ, 2), Subspace.full(GF(3), 3)):
        for test in (is_ideal, is_subalgebra):
            with pytest.raises(DimensionMismatch):
                test(L, U)
        for args in ((U, L.full_space(), L.full_space()), (L.full_space(), U, L.full_space()),
                     (L.full_space(), L.full_space(), U)):
            with pytest.raises(DimensionMismatch):
                brackets_inside(L, *args)
