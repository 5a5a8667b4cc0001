"""The one bracket-table builder, ``algebra._antisymmetric_table``, behind
both ``corpus.load`` and ``validate_algebra``.

The references are the loader's old mirror loop and the old full-table
check, copied here: a document's pairs were spread into a dim x dim x dim
table, each pair given in one order only was mirrored with its sign, and
the full table was checked for antisymmetry in the order (0, 0), (0, 1),
..., (1, 1), ....  Both routes must build equal algebras or raise the same
violation at the same indices."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.algebra import (
    AntisymmetryViolation,
    JacobiViolation,
    LieAlgebra,
    validate_algebra,
)
from liestruct.corpus import load, save
from liestruct.fields import GF, QQ, field_to_doc
from liestruct.linalg import unit_vec, vec, vec_add, vec_is_zero, zero_vec


def old_antisymmetric_table(F, dim, sc_table) -> dict:
    full = [[vec(F, sc_table[i][j]) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        if not vec_is_zero(F, full[i][i]):
            raise AntisymmetryViolation(i, i)
        for j in range(i + 1, dim):
            if not vec_is_zero(F, vec_add(F, full[i][j], full[j][i])):
                raise AntisymmetryViolation(i, j)
    return {
        (i, j): full[i][j]
        for i in range(dim)
        for j in range(i + 1, dim)
        if not vec_is_zero(F, full[i][j])
    }


def old_mirrored_table(F, dim, pairs) -> list:
    """The full table the loader built from the pairs of a document."""
    full = [[list(zero_vec(F, dim)) for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in pairs.items():
        full[i][j] = list(v)
    for i in range(dim):
        for j in range(i + 1, dim):
            if (j, i) in pairs and (i, j) not in pairs:
                full[i][j] = [F.neg(x) for x in full[j][i]]
            elif (i, j) in pairs and (j, i) not in pairs:
                full[j][i] = [F.neg(x) for x in full[i][j]]
    return full


def outcome(build):
    """The table of the algebra built, or the violation and its indices."""
    try:
        L = build()
    except (AntisymmetryViolation, JacobiViolation) as exc:
        return type(exc).__name__, exc.indices
    return L.dim, L.table


def document(F, dim, pairs) -> str:
    brackets = [
        {"i": i, "j": j, "coeffs": {str(k): F.scalar_to_str(c) for k, c in enumerate(v) if c}}
        for (i, j), v in pairs.items()
    ]
    return json.dumps({"field": field_to_doc(F), "dim": dim, "brackets": brackets})


@st.composite
def given_pairs(draw):
    """A field, a dimension <= 4 and brackets on ordered pairs: those of a
    corpus algebra or random ones, each pair given in one order, in both
    (opposite or not), or on the diagonal."""
    F = draw(st.sampled_from([QQ, GF(3)]))
    source = draw(st.sampled_from(["random", "r2", "heis", "sl2", "gl2", "ex22", "ab(3)"]))
    if source == "random":
        dim = draw(st.integers(1, 4))
        brackets = {}
    else:
        L = builtin(source, F)
        dim, brackets = L.dim, L.table
    entries = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(lambda v: vec(F, v))
    pairs = {}
    for i in range(dim):
        for j in range(i, dim):
            v = brackets.get((i, j), zero_vec(F, dim))
            how = draw(st.sampled_from(["omit", "forward", "reverse", "both", "clash", "random"]))
            if i == j:
                if how in ("clash", "random"):
                    pairs[i, i] = draw(entries)
                elif how != "omit":
                    pairs[i, i] = zero_vec(F, dim)
                continue
            if how == "omit" and any(v):
                how = "forward"
            if how in ("forward", "both"):
                pairs[i, j] = v
            if how in ("reverse", "both"):
                pairs[j, i] = tuple(F.neg(x) for x in v)
            if how == "clash":
                pairs[i, j], pairs[j, i] = v, draw(entries)
            if how == "random":
                pairs[(i, j) if draw(st.booleans()) else (j, i)] = draw(entries)
    return F, dim, pairs


@settings(max_examples=300, deadline=None)
@given(given_pairs())
def test_load_and_validate_match_the_full_table_reference(case):
    F, dim, pairs = case
    text = document(F, dim, pairs)
    expected = outcome(
        lambda: LieAlgebra(F, dim, old_antisymmetric_table(F, dim, old_mirrored_table(F, dim, pairs)))
    )
    assert outcome(lambda: load(text)) == expected
    # validate_algebra reads a full table as given: an absent pair is zero
    full = [[pairs.get((i, j), zero_vec(F, dim)) for j in range(dim)] for i in range(dim)]
    assert outcome(lambda: validate_algebra(F, dim, full)) == outcome(
        lambda: LieAlgebra(F, dim, old_antisymmetric_table(F, dim, full))
    )


def test_the_first_violation_is_reported_in_pair_order():
    """(1, 1) precedes (1, 2) and follows (0, 2), whichever order the
    document lists them in."""
    F = QQ
    e = [unit_vec(F, 3, k) for k in range(3)]
    bad = {(2, 1): e[0], (1, 2): e[0], (1, 1): e[2], (2, 0): e[1], (0, 2): e[1]}
    with pytest.raises(AntisymmetryViolation) as exc:
        load(document(F, 3, bad))
    assert exc.value.indices == (0, 2)
    del bad[2, 0]
    with pytest.raises(AntisymmetryViolation) as exc:
        load(document(F, 3, bad))
    assert exc.value.indices == (1, 1)


def test_a_large_sparse_document_loads_small_and_saves_back():
    """Loading keeps only the pairs given: a 64-dimensional document with
    one bracket peaks well under 1 MiB (about 4.4 MiB with a full table)."""
    text = save(LieAlgebra(QQ, 64, {(0, 1): unit_vec(QQ, 64, 2)}))
    tracemalloc.start()
    try:
        L = load(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert save(L) == text
