"""The socle layer reads L/I as the L-module ``factor_module(L, L, I)``.

``socle_and_minimal_ideals`` once built the quotient algebra L/I, its
adjoint module and a separate memo for every ideal I.  That body is kept
here literally (``old_*``) and must give the same minimal ideals, socle
and status on every ideal of a chief series and of the abelian-socle loop
that once computed the radical: on the corpus over Q, GF(2), GF(3), GF(5)
and GF(7), on gl(3)
and sl2 + sl2 + sl2 over GF(5) (whose modules are too large to enumerate),
and on Hypothesis algebras in random bases.  Reading each section as a
module of L builds no ``LieAlgebra`` during a report, and a chief factor's
module is certified once, on L's memo, by the socle that found it.

When L/I is nilpotent, the minimal ideals are read from the centre of L/I
(Engel's theorem) with no module; the module route stays here as the
reference on every such ideal of the chief series variants, over Q, GF(2),
GF(3) and GF(5), on the corpus and on matrix-unit algebras in two bases,
and on Hypothesis closures of upper-triangular matrices.
"""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liestruct
from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    brackets_inside,
    direct_sum,
    nilpotent_residual,
    quotient_algebra,
    sub_algebra,
)
from liestruct.chief import chief_series, chief_series_variants
from liestruct.cli import build_report
from liestruct.fields import GF, QQ, FieldError
from liestruct.linalg import Subspace, unit_vec, vec
from liestruct.modules import (
    LModule,
    _generated,
    adjoint_module,
    certify_irreducible,
    factor_module,
    socle_and_minimal_ideals,
    socle_decomposition,
)

from conftest import CORPUS_GF2, CORPUS_Q
from test_bracket_constructions import semidirect_sums_in_a_random_basis
from test_isomorphism import rebased
from test_larger_primes import matrix_units
from test_socle import natural_module
from test_socle_char0 import rebased_corpus_algebras


def old_adjoint_module(L: LieAlgebra) -> LModule:
    mats = [L.ad(unit_vec(L.field, L.dim, i)) for i in range(L.dim)]
    return LModule(L, mats, validate=False)  # the Jacobi identity is the law here


def old_socle_and_minimal_ideals(L: LieAlgebra, I: Subspace):
    qa = quotient_algebra(L, I)
    Q = qa.algebra
    M = old_adjoint_module(Q)
    summands, soc_q, status = socle_decomposition(M)
    minimals = []
    asoc_q = Subspace.zero(Q.field, Q.dim)
    for W in summands:
        if brackets_inside(Q, W, W, Q.zero_space()):
            asoc_q = asoc_q.sum(W)
        minimals.append(qa.lift_space(W))
    soc = qa.lift_space(soc_q)
    asoc = qa.lift_space(asoc_q)  # the lift of the zero space is I itself
    return tuple(minimals), soc, asoc, status


def assert_socles_match(L: LieAlgebra):
    """Every ideal of the chief series and of the abelian-socle loop, the
    new body on L against the old body on a value-equal copy of L, so that
    no memo is shared; the loop climbs the old body's abelian socles."""
    old = LieAlgebra(L.field, L.dim, L.table, validate=False)
    ideals = list(chief_series(L).chain[:-1])
    R = L.zero_space()
    while True:
        ideals.append(R)
        asoc = old_socle_and_minimal_ideals(old, R)[2]
        if asoc == R:
            break
        R = asoc
    for I in ideals:
        info = socle_and_minimal_ideals(L, I)
        minimals, soc, _, status = old_socle_and_minimal_ideals(old, I)
        assert (info.minimals, info.soc, info.status) == (minimals, soc, status)


FIELD_CORPUS = (
    [(name, QQ) for name in CORPUS_Q]
    + [(name, GF(2)) for name in CORPUS_GF2]
    + [(name, GF(p)) for p in (3, 5, 7) for name in CORPUS_Q if (name, p) != ("ex22", 5)]
)


@pytest.mark.parametrize(
    "name,field", FIELD_CORPUS, ids=[f"{n}-{F!r}" for n, F in FIELD_CORPUS]
)
def test_socles_match_the_quotient_algebra_on_the_corpus(name, field):
    assert_socles_match(builtin(name, field))


def sl2_cubed(field):
    sl2 = builtin("sl2", field)
    return direct_sum(direct_sum(sl2, sl2), sl2)


@pytest.mark.parametrize(
    "build", [lambda: matrix_units(5, 3, False), lambda: sl2_cubed(GF(5))], ids=["gl3", "sl2^3"]
)
def test_socles_match_over_budget(build):
    """Over GF(5) the 9-dimensional modules have more than 10^6 vectors, so
    a witness comes from a Norton kernel rather than the first proper spin
    of an enumeration, and the L-module has more action matrices to search
    than ad(L/I)."""
    L = build()
    assert 5**L.dim > 10**6
    assert_socles_match(L)


@given(rebased_corpus_algebras())
@settings(max_examples=10, deadline=None)
def test_socles_match_in_a_random_basis(L):
    assert_socles_match(L)


@given(semidirect_sums_in_a_random_basis())
@settings(max_examples=20, deadline=None)
def test_socles_match_on_semidirect_sums_in_a_random_basis(sum_and_ideal):
    """Draws of every dimension, over Q too: F^3 + gl(3) (dimension 12)
    reaches ``polys.rational_roots`` on characteristic polynomials with
    15-digit coefficients, whose roots are lifted from roots mod a prime."""
    assert_socles_match(sum_and_ideal[0])


def test_the_adjoint_module_is_the_section_over_zero():
    for field in (QQ, GF(3)):
        L = builtin("h3_plus_r2", field)
        M = adjoint_module(L)
        assert M == factor_module(L, L.full_space(), L.zero_space()).module
        assert M == old_adjoint_module(L)


def borel3(p):
    """The upper-triangular 3 x 3 matrices over GF(p), or Q when p is 0."""
    units = [tuple(int(k == 3 * i + j) for k in range(9)) for i in range(3) for j in range(i, 3)]
    return natural_module(p, 3, units).algebra


REPORTS = [
    ("borel3", lambda: borel3(0)),
    ("ex22", lambda: builtin("ex22", QQ)),
    ("h3_plus_r2", lambda: builtin("h3_plus_r2", GF(3))),
    ("sl2^3", lambda: sl2_cubed(GF(3))),
]


@pytest.mark.parametrize(
    "name,build", REPORTS, ids=["borel3-q", "ex22-q", "h3_plus_r2-gf3", "sl2^3-gf3"]
)
def test_a_report_builds_no_algebra(monkeypatch, name, build):
    """Every quotient these reports ask for is read as a section of L: the
    socle layer, the splitting test, the crowns and the type-3 test of
    ``connected`` build no quotient table.  The one table a report builds
    is that of a minimal section M/N which the type-3 isomorphism search
    compares with another: sl2 + sl2 + sl2 has three pairs of connected
    factors, each with two 3-dimensional sections over N = C1 cap C2, and
    no 6-dimensional quotient L/N."""
    L = build()
    built = []
    orig_init = LieAlgebra.__init__

    def init(self, *args, **kwargs):
        built.append(args[1])
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(LieAlgebra, "__init__", init)
    build_report(L, name)
    assert built == ([3] * 6 if name == "sl2^3" else [])


@pytest.mark.parametrize("name,build", REPORTS[:2], ids=["borel3-q", "ex22-q"])
def test_a_chief_factor_is_certified_by_its_socle(name, build):
    """The module socle that finds a chief factor A/B certifies the
    restriction of the L-module L/B to A/B, which is the factor's own
    module: asking for its certificate again adds nothing to L's memo.  A
    factor whose B contains the nilpotent residual of L is a line of the
    centre of the nilpotent L/B, found with no module; it is certified on
    request."""
    L = build()
    series = chief_series(L)
    body = certify_irreducible.__wrapped__
    for f in series.factors:
        before = sum(key[0] is body for key in L._memo)
        verdict, _, status = certify_irreducible(f.module())
        assert verdict is True and status.certified
        if f.B.contains_space(nilpotent_residual(L)):
            assert f.dim == 1
        else:
            assert sum(key[0] is body for key in L._memo) == before


SRC = Path(liestruct.__file__).resolve().parent


@pytest.mark.parametrize("module", ["modules", "crowns", "chief"])
def test_the_section_layers_never_name_quotient_algebra(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "quotient_algebra" not in names
    assert "quotient_algebra" not in vars(sys.modules[f"liestruct.{module}"])


def module_route(L: LieAlgebra, I: Subspace):
    """The minimal ideals, socle and status of L/I read from the L-module
    L/I, lifted to L: the route of every ideal before the Engel route."""
    fm = factor_module(L, L.full_space(), I)
    summands, soc, status = socle_decomposition(fm.module)
    return tuple(fm.coords.lift_space(W) for W in summands), fm.coords.lift_space(soc), status


def assert_engel_route_matches(L: LieAlgebra):
    """Every ideal I of the chief series variants of L whose quotient is
    nilpotent, L itself among them, the Engel route on L against the module
    route on a value-equal copy of L, so that no memo is shared."""
    old = LieAlgebra(L.field, L.dim, L.table, validate=False)
    R = nilpotent_residual(L)
    chains = [S.chain for S in chief_series_variants(L, 4)]
    ideals = [I for I in dict.fromkeys(I for chain in chains for I in chain) if I.contains_space(R)]
    for I in ideals:
        info = socle_and_minimal_ideals(L, I)
        assert (info.minimals, info.soc, info.status) == module_route(old, I)


ENGEL_ALGEBRAS = {
    **{name: lambda F, name=name: builtin(name, F) for name in
       ("ab(3)", "r2", "heis", "ex22", "gl2", "h3_plus_r2")},
    "borel3": lambda F: borel3(F.characteristic()),
    "n4": lambda F: matrix_units(F.characteristic(), 4, True),
    "n5": lambda F: matrix_units(F.characteristic(), 5, True),
    "gl3": lambda F: matrix_units(F.characteristic(), 3, False),
}


def engel_cases():
    """``(name, field)`` for each algebra of ``ENGEL_ALGEBRAS`` over Q,
    GF(2), GF(3) and GF(5), where the field allows it."""
    for F, fid in ((QQ, "q"), (GF(2), "gf2"), (GF(3), "gf3"), (GF(5), "gf5")):
        for name, build in ENGEL_ALGEBRAS.items():
            try:
                build(F)
            except FieldError:
                continue
            yield pytest.param(name, F, id=f"{name}-{fid}")


@pytest.mark.parametrize("name,field", list(engel_cases()))
def test_the_engel_route_matches_the_module_route(name, field):
    """On the algebra in its own basis and in ``rebased(L, 1)``."""
    L = ENGEL_ALGEBRAS[name](field)
    for K in (L, rebased(L, 1)):
        assert_engel_route_matches(K)


def test_the_engel_route_refuses_a_subspace_that_is_not_an_ideal():
    """heis is nilpotent, so every subspace contains its nilpotent residual
    0; the line of x is no ideal, as [x, y] = z."""
    L = builtin("heis", QQ)
    assert nilpotent_residual(L).is_zero()
    with pytest.raises(AlgebraError):
        socle_and_minimal_ideals(L, L.span([(1, 0, 0)]))


@st.composite
def upper_triangular_closures(draw):
    """The Lie closure inside gl(n), n <= 4, over GF(2), GF(3) or Q, of one
    to three upper-triangular n x n matrices with entries in {-1, 0, 1}:
    ``modules._generated`` on the matrix units, read with ``sub_algebra``."""
    p = draw(st.sampled_from([2, 3, 0]))
    n = draw(st.integers(1, 4))
    gl = matrix_units(p, n, False)
    upper = [n * i + j for i in range(n) for j in range(i, n)]
    entries = st.lists(st.sampled_from([-1, 0, 1]), min_size=len(upper), max_size=len(upper))
    gens = []
    for values in draw(st.lists(entries, min_size=1, max_size=3)):
        g = [0] * (n * n)
        for k, c in zip(upper, values):
            g[k] = c
        gens.append(vec(gl.field, g))
    return sub_algebra(gl, _generated(gl, gens))


@given(upper_triangular_closures())
@settings(max_examples=100, deadline=None)
def test_the_engel_route_matches_on_upper_triangular_closures(L):
    assert_engel_route_matches(L)
