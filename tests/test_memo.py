"""The per-algebra memo: each structural object is computed once per
algebra instance, and cached values are shared and immutable."""

import json
import sys
import typing

import pytest

from liestruct import algebra, builtin, chief, crowns, linalg, modules, oracle
from liestruct.algebra import AlgebraError, LieAlgebra, nilpotent_residual, quotient_algebra
from liestruct.chief import chief_series
from liestruct.cli import build_report
from liestruct.corpus import FixtureFact
from liestruct.crowns import Crown, all_crowns, prefrattini
from liestruct.fields import GF, QQ, Rationals
from liestruct.linalg import Matrix, Subspace
from liestruct.modules import (
    adjoint_module,
    factor_module,
    socle_and_minimal_ideals,
)
from liestruct.status import CERTIFIED, Status


class TestCachedValues:
    def test_second_call_returns_the_same_object(self):
        L = builtin("h3_plus_r2", QQ)
        info = socle_and_minimal_ideals(L, L.zero_space())
        assert socle_and_minimal_ideals(L, L.zero_space()) is info
        assert isinstance(info.minimals, tuple)

    def test_arguments_are_compared_by_value(self):
        H = builtin("heis", QQ)
        fm = factor_module(H, H.span([(0, 0, 1)]), H.zero_space())
        assert factor_module(H, H.span([(0, 0, 1)]), H.zero_space()) is fm
        assert isinstance(fm.coords._free, tuple)
        assert isinstance(fm.coords.lifts, tuple)

    def test_each_instance_has_its_own_cache(self):
        L1, L2 = builtin("sl2", QQ), builtin("sl2", QQ)
        info1 = socle_and_minimal_ideals(L1, L1.zero_space())
        info2 = socle_and_minimal_ideals(L2, L2.zero_space())
        assert info1 is not info2 and info1 == info2

    def test_a_quotient_reached_twice_is_one_instance(self):
        H = builtin("heis", QQ)
        Z = H.span([(0, 0, 1)])
        assert quotient_algebra(H, Z) is quotient_algebra(H, H.span([(0, 0, 1)]))
        assert quotient_algebra(H, H.zero_space()).algebra is H

    def test_a_keyword_argument_is_keyed_as_a_positional_one(self):
        L = builtin("r2", QQ)
        S = chief_series(L)
        found = all_crowns(L, S)
        assert all_crowns(L, series=S) is found
        f = S.factors[0]
        assert crowns.crown_of_factor(f, series=S) is crowns.crown_of_factor(f, S)

    def test_an_omitted_default_is_keyed_as_passed(self):
        L = builtin("r2", QQ)
        found = all_crowns(L)
        assert all_crowns(L, None) is found
        assert all_crowns(L, series=None) is found
        with pytest.raises(TypeError):  # a missing required argument
            factor_module(L, L.zero_space())
        with pytest.raises(TypeError):  # an unexpected keyword
            all_crowns(L, crowns=None)
        with pytest.raises(TypeError):  # an argument given by position and by keyword
            all_crowns(L, None, series=None)

    def test_exceptions_are_not_cached(self):
        H = builtin("heis", QQ)
        for _ in range(2):
            with pytest.raises(AlgebraError):
                factor_module(H, H.span([(1, 0, 0)]), H.zero_space())
        assert not any(key[0] is factor_module.__wrapped__ for key in H._memo)

    def test_algebras_from_equal_tables_are_equal_and_hash_equal(self):
        """The hash is computed once, in the constructor; a factor of one
        algebra finds the memo entry made for the equal factor of another."""
        L1, L2 = builtin("gl2", QQ), builtin("gl2", QQ)
        assert L1 is not L2 and L1 == L2
        assert hash(L1) == hash(L2) == hash((QQ, L1.dim, L1._nonzero_pairs))
        assert {L1: "first"}[L2] == "first"
        F1, F2 = chief_series(L1).factors, chief_series(L2).factors
        found = chief.module_isomorphic(F1[0], F1[1])
        assert F1[1] == F2[1] and F1[1].algebra is not F2[1].algebra
        assert chief.module_isomorphic(F1[0], F2[1]) is found
        assert chief.module_isomorphic.__wrapped__(F1[0], F2[1]) == found

    def test_distinct_equal_instances_compare_by_value(self):
        """``__eq__`` answers an identity first; distinct instances are still
        compared by value."""
        K1, K2 = GF(3), GF(3)
        assert K1 is not K2 and K1 == K2 and hash(K1) == hash(K2)
        assert K1 != GF(5) and K1 != QQ and QQ == Rationals() and QQ is not Rationals()
        assert hash(QQ) == hash(Rationals())
        L1, L2 = builtin("gl2", K1), builtin("gl2", K2)
        assert L1 is not L2 and L1.field is not L2.field
        assert L1 == L2 and hash(L1) == hash(L2)
        assert L1 == L1 and L1 != builtin("sl2", K1) and L1 != builtin("gl2", GF(5))
        M = LieAlgebra(K2, L1.dim, dict(L1.table))
        assert M == L1 and hash(M) == hash(L1) and {L1: 1}[M] == 1

    def test_chief_series_is_built_once_per_choice(self):
        L = builtin("r2", GF(3))
        S = chief_series(L)
        assert chief_series(L, ()) is S and chief_series(L, choices=()) is S
        assert chief_series(L, (1,)) is not S

    def test_an_exception_is_not_cached(self):
        H = LieAlgebra(QQ, 3, {(0, 1): (0, 0, 1)})
        U = H.span([(1, 0, 0), (0, 1, 0)])  # [x, y] = z: not a subalgebra
        for _ in range(2):
            with pytest.raises(AlgebraError):
                algebra.core(H, U)
        assert not H._memo


# (annotated object, annotated name, the members of its resolved hint)
HINTS = [
    (Crown, "status", {Status}),
    (algebra.IdealFlag, "subspace", {Subspace}),
    (algebra.NilpotentAutomorphism, "matrix", {Matrix}),
    (linalg.rref_solve, "b", {tuple, type(None)}),
    (linalg.invert_matrix, "return", {Matrix, type(None)}),
    (algebra.bracket_law_failure, "return", {tuple[int, int], type(None)}),
]


@pytest.mark.parametrize("target, name, members", HINTS, ids=[f"{t.__name__}.{n}" for t, n, _ in HINTS])
def test_crown_type_hints_resolve(target, name, members):
    """String annotations (``X | None``, ``collections.abc`` generics)
    resolve at run time; a union is compared by its members."""
    hint = typing.get_type_hints(target)[name]
    assert (set(typing.get_args(hint)) or {hint}) == members


def records():
    """``(make, a field, hashable)`` for each record on the load path, where
    ``make`` builds one instance from the same values on every call."""
    L = builtin("heis", QQ)
    yield (lambda: Status("heuristic", "a reason")), "level", True
    yield (lambda: algebra.ideal_flags(L, L.span([(0, 0, 1)]))), "is_ideal", True
    yield (lambda: algebra.nilpotent_automorphism(L, (1, 0, 0))), "matrix", True
    yield (lambda: FixtureFact("heis", "crown_count", {"count": 1}, "hand derivation")), "payload", False


@pytest.mark.parametrize(
    "make, field, hashable", records(), ids=["Status", "IdealFlag", "NilpotentAutomorphism", "FixtureFact"]
)
def test_records_are_frozen_values(make, field, hashable):
    """A field cannot be assigned (``AttributeError``, of which
    ``dataclasses.FrozenInstanceError`` is a subclass), nor a new attribute
    added; equal values give equal records, with equal hashes where every
    field is hashable (a ``FixtureFact`` payload is a dict)."""
    a, b = make(), make()
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_a_status_prints_its_level_and_reason():
    assert repr(CERTIFIED) == "Status(level='certified', reason='')"
    assert str(CERTIFIED) == "certified" and CERTIFIED.certified
    assert Status("heuristic") == Status("heuristic", "")
    assert str(Status("heuristic", "why")) == "heuristic (why)"


def _rebind(monkeypatch, orig, replacement):
    """Replace ``orig`` in every liestruct namespace that binds it by name."""
    for key, mod in list(sys.modules.items()):
        if key == "liestruct" or key.startswith("liestruct."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.mark.parametrize("name", ["sl2_plus_sl2", "h3_plus_r2"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "gf3"])
def test_report_computes_each_socle_once(monkeypatch, name, field):
    """Over Q, socle_space runs once per distinct (algebra instance, ideal
    I) passed to socle_and_minimal_ideals whose quotient L/I is not
    nilpotent, and never for the others, whose socle is the centre of L/I;
    calls that certify_irreducible makes on its own modules are not socles
    of ideals and are not counted.  Over GF(3) the socle layer chops one
    module, the adjoint module of L, into composition factors, never a
    quotient L/I, and sums the images of maps from those factors
    (``_isotypic``) once per such ideal, with no call of socle_space."""
    asked = {}  # (id of the algebra, ideal) -> algebra, which stays alive
    socles, chopped, summed = [], [], []
    inside_certify, inside_chop = [0], [0]
    orig_socles = modules.socle_and_minimal_ideals
    orig_space = modules.socle_space
    orig_certify = modules.certify_irreducible
    orig_chop = modules._composition_factors
    orig_isotypic = modules._isotypic

    def noted(L, I):
        asked[(id(L), I)] = L
        return orig_socles(L, I)

    def counted(M):
        if not inside_certify[0]:
            socles.append(M)
        return orig_space(M)

    def certify(M):
        inside_certify[0] += 1
        try:
            return orig_certify(M)
        finally:
            inside_certify[0] -= 1

    def chop(M):  # the pieces of a chop are chopped inside it, uncounted
        if not inside_chop[0]:
            chopped.append(M)
        inside_chop[0] += 1
        try:
            return orig_chop(M)
        finally:
            inside_chop[0] -= 1

    def isotypic(M, simples):
        summed.append(M)
        return orig_isotypic(M, simples)

    _rebind(monkeypatch, orig_socles, noted)
    monkeypatch.setattr(modules, "socle_space", counted)
    _rebind(monkeypatch, orig_certify, certify)
    monkeypatch.setattr(modules, "_composition_factors", chop)
    monkeypatch.setattr(modules, "_isotypic", isotypic)

    def report_json(L):  # as ``liestruct report --json`` prints it
        return json.dumps(build_report(L, name), sort_keys=True, indent=2)

    def nilpotent_quotients():
        return sum(I.contains_space(nilpotent_residual(K)) for (_, I), K in asked.items())

    def socle_bodies():  # the socles of ideals computed so far
        return socles if field == QQ else summed

    L = builtin(name, field)
    first = report_json(L)
    engel = nilpotent_quotients()
    assert engel == {"sl2_plus_sl2": 0, "h3_plus_r2": 2}[name]  # still asked
    assert len(socle_bodies()) == len(asked) - engel > 0
    if field != QQ:
        assert socles == [] and set(chopped) == {adjoint_module(L)}
    assert report_json(L) == first
    assert len(socle_bodies()) == len(asked) - nilpotent_quotients()
    assert report_json(builtin(name, field)) == first


def test_report_runs_each_module_socle_once(monkeypatch):
    """socle_space is cached per module value: over Q its body calls
    _socle_char0 once, and no module reaches that body twice although
    certify_irreducible asks again for socles just computed."""
    bodies = []
    calls = [0]
    orig_body = modules._socle_char0
    orig_space = modules.socle_space

    def body(M):
        bodies.append(M)
        return orig_body(M)

    def space(M):
        calls[0] += 1
        return orig_space(M)

    monkeypatch.setattr(modules, "_socle_char0", body)
    monkeypatch.setattr(modules, "socle_space", space)
    build_report(builtin("sl2_plus_sl2", QQ), "sl2_plus_sl2")
    assert len(bodies) == len(set(bodies)) > 0
    assert calls[0] > len(bodies)


@pytest.mark.parametrize("name", ["heis", "n4"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "gf3"])
def test_a_nilpotent_report_builds_no_socle(monkeypatch, name, field):
    """Every quotient of a nilpotent algebra is nilpotent, so by Engel's
    theorem the socle of each is its centre: a report on heis or on n(4)
    (the strictly upper-triangular 4 x 4 matrix units) builds no module
    socle, composition series or socle decomposition, and its one lower
    central series, read by ``nilpotent_residual``, serves the socles and
    the nilpotent flag alike."""
    from test_larger_primes import matrix_units

    counts = [
        _counted(monkeypatch, fn)
        for fn in (modules.socle_space, modules._composition_factors, modules.socle_decomposition)
    ]
    series = _counted(monkeypatch, algebra.lower_central_series)
    bodies = _calls_from_body(
        monkeypatch, algebra, "lower_central_series", algebra.nilpotent_residual
    )
    L = builtin(name, field) if name == "heis" else matrix_units(field.characteristic(), 4, True)
    report = build_report(L, name)
    assert report["nilpotent"] and len(report["chief_series"]["factors"]) == L.dim
    assert [c[0] for c in counts] == [0, 0, 0]
    assert series[0] == 1 and bodies == [(L,)]


def gl3_on_matrix_units(p):
    """gl(3) over GF(p), or Q when p is 0, on the matrix units, as the
    commutator closure of all nine of them."""
    from test_socle import natural_module

    units = [tuple(int(k == m) for k in range(9)) for m in range(9)]
    return natural_module(p, 3, units).algebra


def borel3_over_gf3():
    """The upper-triangular 3 x 3 matrices over GF(3), as the commutator
    closure of the six matrix units E_ij with i <= j."""
    from test_socle import natural_module

    units = [tuple(int(k == 3 * i + j) for k in range(9)) for i in range(3) for j in range(i, 3)]
    return natural_module(3, 3, units).algebra


def test_report_certifies_each_module_once(monkeypatch):
    """certify_irreducible is cached per module value: during the gl3/GF(3)
    report its body, which spins vectors of every module of dimension at
    least 2, runs once per distinct module.  There every module is asked
    for once, since the socles of the quotients are read from the adjoint
    module's composition factors; on gl3/Q, where the socle of a semisimple
    module is certified through its endomorphisms, the memo serves the
    repeats of a module asked for more often.  A run of the body is told by
    its frame, kept alive here so that no two runs share an id."""
    asked = []
    bodies = {}  # id of a body frame -> (frame, module)
    orig_certify = modules.certify_irreducible
    orig_spin = modules.spin
    body = orig_certify.__wrapped__.__code__

    def certify(M):
        asked.append(M)
        return orig_certify(M)

    def spin(M, v):
        frame = sys._getframe(1)
        if frame.f_code is body:
            bodies.setdefault(id(frame), (frame, M))
        return orig_spin(M, v)

    _rebind(monkeypatch, orig_certify, certify)
    monkeypatch.setattr(modules, "spin", spin)
    L = gl3_on_matrix_units(3)
    assert L.dim == 9
    build_report(L, "gl3")
    certified = [M for _, M in bodies.values()]
    distinct = {M for M in asked if M.dim >= 2}
    assert len(certified) == len(set(certified)) == len(distinct) > 0
    assert len(asked) == len(set(asked))
    asked.clear()
    build_report(gl3_on_matrix_units(0), "gl3")
    assert len(asked) > len(set(asked))


def test_report_computes_a_complement_only_to_descend_into_it(monkeypatch):
    """``_minimal_inside`` computes the complement of a reducibility witness
    only when the witness lies in what it must avoid: on gl3/Q the first
    socle summand descends into the witness, the second into the complement
    of the same witness, so the report computes that complement once."""
    calls = _counted(monkeypatch, modules.complement_in_semisimple)
    L = gl3_on_matrix_units(0)
    assert L.dim == 9
    build_report(L, "gl3")
    assert calls[0] == 1


def test_classify_primitive_is_keyed_on_the_section():
    from liestruct.primitive import classify_primitive

    L = builtin("sl2_plus_sl2", GF(3))
    w = classify_primitive(L)
    assert classify_primitive(L) is w
    assert classify_primitive(L, None) is w
    assert classify_primitive(L, N=None) is w
    assert classify_primitive(L, L.zero_space()) is w
    M = L.span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    assert classify_primitive(L, M) is classify_primitive(L, N=M) is not w


def _calls_from_body(monkeypatch, module, name, cached):
    """Record the arguments of every call of ``module.name`` made directly
    from the body of the memoized function ``cached``."""
    body = cached.__wrapped__.__code__
    orig = getattr(module, name)
    seen = []

    def noted(*args):
        if sys._getframe(1).f_code is body:
            seen.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, noted)
    return seen


def _counted(monkeypatch, fn):
    """Count the calls of ``fn`` from every liestruct namespace."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    _rebind(monkeypatch, fn, counting)
    return calls


def test_oracle_computes_each_core_once(monkeypatch):
    """During ``oracle_check`` the body of ``core``, which starts by testing
    ``is_subalgebra``, runs once per distinct (algebra instance, subspace),
    although ``core`` is called more often."""
    bodies = _calls_from_body(monkeypatch, algebra, "is_subalgebra", algebra.core)
    calls = _counted(monkeypatch, algebra.core)
    assert oracle.oracle_check(builtin("h3_plus_r2", GF(3))) == []
    distinct = {(id(L), U) for L, U in bodies}  # each L stays alive in bodies
    assert len(bodies) == len(distinct) > 0
    assert calls[0] > len(bodies)


def test_report_chops_each_module_into_composition_factors_once(monkeypatch):
    """During the gl3/GF(3) report the body of ``_composition_factors``,
    which starts by asking ``certify_irreducible``, runs once per distinct
    (algebra instance, module), although the socle layer and the body's
    own recursion ask for the factors of a module more often."""
    bodies = _calls_from_body(
        monkeypatch, modules, "certify_irreducible", modules._composition_factors
    )
    calls = _counted(monkeypatch, modules._composition_factors)
    build_report(gl3_on_matrix_units(3), "gl3")
    distinct = {(id(M.algebra), M) for (M,) in bodies}  # each M stays alive in bodies
    assert len(bodies) == len(distinct) > 0
    assert calls[0] > len(bodies)


def test_oracle_builds_the_maximal_cores_once_per_algebra(monkeypatch):
    """``four_core_intersections`` runs once per crown, and the per-maximal
    cores, minimal ideals above them and socle factors behind it are built
    once per algebra, on the enumeration of L itself."""
    bodies = _calls_from_body(monkeypatch, oracle, "enum_structures", oracle._maximal_cores)
    calls = _counted(monkeypatch, oracle.four_core_intersections)
    L = builtin("h3_plus_r2", GF(3))
    assert oracle.oracle_check(L) == []
    assert calls[0] == 2  # the two crowns of h3_plus_r2
    assert [args[0] for args in bodies] == [L]


def test_oracle_decides_each_factor_pair_once(monkeypatch):
    """During ``oracle_check`` the body of ``module_isomorphic`` runs once
    per distinct (algebra instance, factor pair), although the function is
    called more often.  Every chief factor of h3_plus_r2 is abelian and
    one-dimensional, so every run of the body asks ``module_isomorphism``."""
    body = chief.module_isomorphic.__wrapped__.__code__
    orig_isomorphism = chief.module_isomorphism
    orig_isomorphic = chief.module_isomorphic
    asked, bodies = [], []

    def isomorphism(M1, M2):
        frame = sys._getframe(1)
        if frame.f_code is body:
            F1, F2 = frame.f_locals["F1"], frame.f_locals["F2"]
            bodies.append((id(F1.algebra), F1, F2))
        return orig_isomorphism(M1, M2)

    def isomorphic(F1, F2):
        asked.append((F1, F2))
        return orig_isomorphic(F1, F2)

    monkeypatch.setattr(chief, "module_isomorphism", isomorphism)
    _rebind(monkeypatch, orig_isomorphic, isomorphic)
    assert oracle.oracle_check(builtin("h3_plus_r2", GF(3))) == []
    assert all(F.abelian and F.dim == 1 for pair in asked for F in pair)
    distinct = {(id(F1.algebra), F1, F2) for F1, F2 in asked}  # asked keeps each alive
    assert len(bodies) == len(set(bodies)) == len(distinct) > 0
    assert len(asked) > len(distinct)


@pytest.mark.parametrize(
    "name,build",
    [("h3_plus_r2", lambda: builtin("h3_plus_r2", QQ)), ("borel3", borel3_over_gf3)],
    ids=["h3_plus_r2-q", "borel3-gf3"],
)
def test_report_classifies_each_section_once(monkeypatch, name, build):
    """During ``build_report`` the body of ``classify_factor``, which
    computes the factor centralizer, runs once per distinct (algebra
    instance, A, B), although ``chief_series`` and the crown certificates
    call ``classify_factor`` more often."""
    bodies = _calls_from_body(monkeypatch, chief, "factor_centralizer", chief.classify_factor)
    calls = _counted(monkeypatch, chief.classify_factor)
    L = build()
    build_report(L, name)
    distinct = {(id(M), A, B) for M, A, B in bodies}  # each M stays alive in bodies
    assert len(bodies) == len(distinct) > 0
    assert calls[0] > len(bodies)


def test_a_factor_runs_its_splitting_test_when_a_flag_is_read(monkeypatch):
    """The centre of the Heisenberg algebra is a Frattini, so non-split,
    abelian factor: classifying it runs no splitting-test body, and reading
    the flags and the complement witness runs exactly one."""
    bodies = _calls_from_body(
        monkeypatch, modules, "factor_module", modules.split_abelian_extension
    )
    H = builtin("heis", QQ)
    f = chief.classify_factor(H, H.span([(0, 0, 1)]), H.zero_space())
    assert f.abelian and bodies == []
    assert f.frattini and not f.supplemented and f.complemented is False
    assert f.complement_witness is None
    assert len(bodies) == 1


def _splitting_calls_beneath(monkeypatch, *callers):
    """Record every call of ``split_abelian_extension`` made while one of
    the functions with the code objects ``callers`` is on the stack."""
    orig = modules.split_abelian_extension
    beneath = []

    def split(L, A, B):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in callers:
                beneath.append((A, B))
                break
            frame = frame.f_back
        return orig(L, A, B)

    _rebind(monkeypatch, orig, split)
    return beneath


@pytest.mark.parametrize(
    "name,build",
    [("h3_plus_r2", lambda: builtin("h3_plus_r2", QQ)), ("borel3", borel3_over_gf3)],
    ids=["h3_plus_r2-q", "borel3-gf3"],
)
def test_crown_certificates_run_no_splitting_test(monkeypatch, name, build):
    """``_certify_crown`` classifies the minimal ideals of L/R only to ask
    ``connected``, which reads no complement flag."""
    beneath = _splitting_calls_beneath(monkeypatch, crowns._certify_crown.__code__)
    calls = _counted(monkeypatch, crowns._certify_crown)
    build_report(build(), name)
    assert calls[0] > 0 and beneath == []


def test_oracle_socle_factors_run_no_splitting_test(monkeypatch):
    """``oracle._maximal_cores`` classifies the socle factor of each
    monolithic core quotient only for ``connected``."""
    beneath = _splitting_calls_beneath(monkeypatch, oracle._maximal_cores.__wrapped__.__code__)
    bodies = _calls_from_body(monkeypatch, oracle, "enum_structures", oracle._maximal_cores)
    assert oracle.oracle_check(builtin("h3_plus_r2", GF(3))) == []
    assert bodies and beneath == []


@pytest.mark.parametrize("name", ["r2", "ex22", "h3_plus_r2"])
def test_prefrattini_reuses_the_certified_crowns(monkeypatch, name):
    """``all_crowns`` runs the body of ``crown_of_factor``, and so its
    certificate, once for every connectedness class of the series;
    ``prefrattini`` on the same series then runs it no more."""
    bodies = _calls_from_body(monkeypatch, crowns, "_certify_crown", crowns.crown_of_factor)
    L = builtin(name, QQ)
    series = chief_series(L)
    found = all_crowns(L, series)
    assert isinstance(found, tuple) and found
    assert len(bodies) == len(found) == len(crowns._classes(L, series))
    ran = len(bodies)
    prefrattini(L, series=series)
    assert len(bodies) == ran
    assert all_crowns(L, series) is found


def test_the_dual_module_is_built_once():
    """Norton's dual spin works on the module's transposed action, which is
    built on first use and kept, together with its nonzero entries."""
    M = adjoint_module(builtin("sl2", GF(3)))
    D = M.dual()
    assert D.mats == tuple(rho.transpose() for rho in M.mats)
    assert M.dual() is D and D.nonzero_entries() is D.nonzero_entries()


@pytest.mark.parametrize("name, field", [("gl2", GF(3)), ("h3_plus_r2", GF(3)), ("sl2", QQ)])
def test_report_and_oracle_share_one_chief_series(monkeypatch, name, field):
    """``build_report`` (with its crowns and radical) and ``oracle_check``
    read one ``ChiefSeries``: the body of ``chief_series``, which asks for
    the minimal ideals once per step up the series, runs once."""
    bodies = _calls_from_body(monkeypatch, chief, "socle_and_minimal_ideals", chief.chief_series)
    L = builtin(name, field)
    build_report(L, name)
    if field != QQ:
        assert oracle.oracle_check(L) == []
    assert len(bodies) == len(chief_series(L).factors)
