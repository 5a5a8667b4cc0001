"""``modules._spin_rows`` against the spin as it was written with its own
back-substitution (``spin_rows_ref``): every call that the library makes,
recorded with the seeds it drew and the action tables as they stood at each
draw, is replayed through the reference.  The rows and pivots of the span
and the relations must be equal, over Q, GF(2), GF(3) and GF(5), on module
spins (full spans among them), hom-space spins that meet relations, the
graph spins of the type-3 search and generated subalgebras."""

import contextlib
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.fields import GF, QQ, FieldError, div_q
from liestruct.linalg import Subspace, _cleared, _modulus, _nonzeros, _reduce
from liestruct import modules
from liestruct.modules import (
    _generated,
    _graph_hom,
    adjoint_module,
    enveloping_basis,
    hom_space,
    quotient_module,
    restrict_module,
    socle_and_minimal_ideals,
    spin,
)
from liestruct.primitive import _generators

from test_chains_and_complements import random_basis
from test_isomorphism import transport
from test_kernels import canonical


def spin_rows_ref(F, action, s: int, seeds) -> tuple:
    """``(rows, pivots, relations)`` of the spin under ``action`` (tables of
    ``_action``), with pivots among the first s coordinates.  A seed of
    ``seeds(pivots)`` is drawn once all earlier images are in, and sees the
    pivots so far; a longer seed pads the vectors before it with zeros.  An
    insert, reduced by ``_reduce`` (fraction-free over Q), is a new queued
    row when nonzero on the first s coordinates, else a relation when
    nonzero.  When the rows fill the space (s = d), rows is None; else they
    are in reduced row echelon form."""
    p = _modulus(F)
    zero = F.zero()
    nzs: list = []  # the rows, as their nonzero (index, value) pairs
    pivots: list = []
    queue: list = []  # the rows whose images are still to come
    relations: list = []

    def insert(w):
        w = _reduce(p, w, nzs, pivots)
        if not any(w[:s]):
            if any(w):
                relations.append(w)
            return
        nz = _nonzeros(w)
        c, b = nz[0]
        if b != 1:  # 1 at the pivot over GF(p), content 1 over Q
            a = pow(b, -1, p) if p else gcd(*w) * (1 if b > 0 else -1)
            nz = tuple([(j, x * a % p) for j, x in nz] if p else [(j, x // a) for j, x in nz])
        nzs.append(nz)
        pivots.append(c)
        queue.append(nz)

    for seed in seeds(pivots):
        d = len(seed)
        insert(_cleared(seed))
        while queue:
            nz = queue.pop()
            for cols in action:
                image = [zero] * d
                for j, x in nz:
                    for o, a in cols[j]:
                        image[j + o] += a * x
                insert(image)
                if len(nzs) == d:
                    return None, pivots, relations
    rows = []
    for nz in nzs:
        rows.append([zero] * d)
        for j, x in nz:
            rows[-1][j] = x
    relations = [w + [zero] * (d - len(w)) for w in relations]
    for k in range(len(rows) - 2, -1, -1):
        rows[k] = _reduce(p, rows[k], nzs[k + 1 :], pivots[k + 1 :])
        nzs[k] = _nonzeros(rows[k])
    if not p:
        rows = [[div_q(x, w[c]) for x in w] if w[c] != 1 else w for w, c in zip(rows, pivots)]
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[k] for k in order], [pivots[k] for k in order], relations


@contextlib.contextmanager
def recorded_spins():
    """Every ``modules._spin_rows`` call made inside the block, as
    ``(F, s, drawn, halt, result)``: ``drawn`` lists each seed with the
    action tables as they stood when it was drawn (``_hom_basis`` grows
    them)."""
    calls = []
    real = modules._spin_rows

    def recording(F, action, s, seeds, halt=False):
        drawn = []

        def logged(pivots):
            for seed in seeds(pivots):
                drawn.append((list(seed), [list(table) for table in action]))
                yield seed

        result = real(F, action, s, logged, halt)
        calls.append((F, s, drawn, halt, result))
        return result

    modules._spin_rows = recording
    try:
        yield calls
    finally:
        modules._spin_rows = real


def replayed(F, s: int, drawn: list) -> tuple:
    """The reference on a recorded call: the same seeds, each drawn with the
    action tables set to what they were at that draw."""
    action = [list(table) for table in drawn[0][1]]

    def seeds(_):
        for seed, tables in drawn:
            for table, state in zip(action, tables):
                table[:] = state
            yield seed

    return spin_rows_ref(F, action, s, seeds)


def assert_calls_match(calls: list) -> list:
    """Each recorded call against the reference; returns, per call, whether
    the span was full and whether it met a relation.  A call that halts
    (the graph spin) returns no span and the reference's first relation."""
    kinds = []
    for F, s, drawn, halt, (span, relations) in calls:
        rows, pivots, ref_relations = replayed(F, s, drawn)
        if halt and ref_relations:
            assert span is None and [list(w) for w in relations] == ref_relations[:1]
            kinds.append((False, True))
            continue
        assert isinstance(span, Subspace) and span.ambient_dim == len(drawn[-1][0])
        if rows is None:
            assert span == Subspace.full(F, span.ambient_dim)
        else:
            assert [list(r) for r in span.basis] == rows
            assert list(span.pivots) == pivots
        assert all(canonical(F, r) for r in span.basis)
        assert [list(w) for w in relations] == ref_relations
        kinds.append((rows is None, bool(relations)))
    return kinds


FIELDS = (QQ, GF(2), GF(3), GF(5))
NAMES = ("ab(2)", "r2", "heis", "ex22", "sl2", "gl2", "aff_sl2", "sl2_plus_sl2", "h3_plus_r2")


def algebras():
    out = []
    for F in FIELDS:
        for name in NAMES:
            try:
                L = builtin(name, F)
            except FieldError:
                continue
            if F != GF(5) or L.dim <= 5:
                out.append((F, name))
    return out


def spin_workloads(L, vectors: list, g, images: list) -> dict:
    """The recorded calls of each kind of spin on L: module spins (of
    ``vectors[0]`` and, on the dual, ``vectors[1]``, and the enveloping
    algebra), hom spaces (with the socle over GF(p)), the subalgebra that
    ``vectors[2:]`` generate, and the graph spin from L to its basis change
    by g, each generator sent to its image under g where ``images`` holds
    None and to the vector given otherwise."""
    F, n = L.field, L.dim
    M = adjoint_module(L)
    out = {}
    with recorded_spins() as out["module"]:
        W = spin(M, vectors[0])
        spin(M.dual(), vectors[1])
        enveloping_basis(M)
    with recorded_spins() as out["hom"]:
        hom_space(M, M)
        if 0 < W.dim < n:
            hom_space(restrict_module(M, W), M)
            hom_space(M, quotient_module(M, W))
        if F != QQ:
            socle_and_minimal_ideals(L, L.zero_space())
    with recorded_spins() as out["generated"]:
        _generated(L, vectors[2:])
        gens = _generators(L)
    B = transport(L, g)
    ys = [g.apply(x) if y is None else y for x, y in zip(gens, images)]
    with recorded_spins() as out["graph"]:
        _graph_hom(F, gens, ys, [(L.ad(x), B.ad(y)) for x, y in zip(gens, ys)])
    return out


@st.composite
def spin_cases(draw):
    """An algebra of the corpus in a generated basis, four vectors with
    entries in {-1, 0, 1, 2}, a basis change and, per generator, None or a
    vector: the arguments of ``spin_workloads``."""
    F, name = draw(st.sampled_from(algebras()))
    L = builtin(name, F)
    L = transport(L, random_basis(F, L.dim, draw(st.integers(0, 10**6))))
    vector = st.lists(st.sampled_from([F.coerce(c) for c in (-1, 0, 1, 2)]), min_size=L.dim, max_size=L.dim)
    vectors = [tuple(draw(vector)) for _ in range(4)]
    g = random_basis(F, L.dim, draw(st.integers(0, 10**6)))
    images = [draw(st.one_of(st.none(), vector.map(tuple))) for _ in range(len(_generators(L)))]
    return L, vectors, g, images


@given(spin_cases())
@settings(max_examples=120, deadline=None)
def test_every_spin_matches_the_reference(case):
    for calls in spin_workloads(*case).values():
        assert_calls_match(calls)


def test_the_reference_cases_are_all_met():
    """On fixed cases, each kind of call: full module spins and generated
    subalgebras, proper ones, hom spins with relations, and graph spins with
    and without a relation."""
    met = {}
    for F, name in algebras():
        L = builtin(name, F)
        L = transport(L, random_basis(F, L.dim, 1))
        one = F.one()
        vectors = [tuple([one] * L.dim), tuple([F.zero()] * (L.dim - 1) + [one])] * 2
        g = random_basis(F, L.dim, 2)
        for images in ([None] * len(_generators(L)), [vectors[0]] * len(_generators(L))):
            for kind, calls in spin_workloads(L, vectors, g, images).items():
                for full, related in assert_calls_match(calls):
                    met.setdefault(kind, set()).add((full, related))
    assert {(True, False), (False, False)} <= met["module"]
    assert (False, True) in met["hom"]
    assert {(True, False), (False, False)} <= met["generated"]
    assert {(False, True), (False, False)} <= met["graph"]
