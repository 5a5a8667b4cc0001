"""A fuzzer for the document loader.

Hypothesis takes the documents of the corpus over Q, GF(2), GF(3) and
GF(5) and mutates them: wrong types, out-of-range and boolean indices,
duplicate pairs, halves that are not antisymmetric, diagonal pairs, huge or
malformed coefficients and moduli, dropped keys and cut-off text.  Every
document ends, within the per-example deadline, in a ``LieAlgebra``, a
``ParseError`` or an ``AlgebraError``, and ``liestruct validate --input``
exits 0 on the first and 2 on the others."""

import contextlib
import copy
import io
import json
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from liestruct import builtin, cli
from liestruct.algebra import AlgebraError, LieAlgebra
from liestruct.cli import EXIT_OK, EXIT_PARSE
from liestruct.corpus import MAX_DIM, ParseError, load, to_doc
from liestruct.fields import GF, QQ, FieldError

from conftest import CORPUS_Q


def valid_documents() -> list:
    docs = []
    for F in (QQ, GF(2), GF(3), GF(5)):
        for name in CORPUS_Q + ("h3_plus_r2", "sl2_plus_sl2"):
            try:
                docs.append(to_doc(builtin(name, F)))
            except FieldError:
                continue
    return docs


VALID = valid_documents()

# An integer token with more digits than Python converts, which
# ``json.dumps`` cannot write: the string HUGE is swapped for it in the text.
HUGE = "@huge@"
HUGE_TOKEN = "7" * 5000

huge_ints = st.sampled_from([2**61 - 1, 2**127 - 1, 10**39 + 1, 3**80, 10**4000])
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.just(HUGE),
)
small_ints = st.integers(-3, MAX_DIM + 3)
indices = st.one_of(
    small_ints, small_ints.map(str), huge_ints, huge_ints.map(str), st.just(HUGE_TOKEN), junk
)
coefficients = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(str),
    huge_ints,
    huge_ints.map(str),
    st.sampled_from([
        "1/0", "1/3", "-2/9", "5/10", "2.5e3", "1e99999", "1E-99999", "1e4300", "-1e-4300",
        "9" * 5000, "1/" + "7" * 5000, "1." + "0" * 5000, "0x10", "nan", "inf", " 2 ", "",
        "--1", "1_0", "٣",
    ]),
    junk,
)
moduli = st.one_of(
    st.sampled_from([2, 3, 5, 7, 65521, 65536, 65537, 0, 1, -3, 4, 9]), huge_ints, junk
)

# the mutations of the bracket entries, which most documents are made of,
# drawn three times as often as those of the header
MUTATIONS = 3 * ("coefficient", "index", "key", "duplicate", "reverse", "diagonal", "entry") + (
    "modulus", "dim", "basis", "drop", "field", "document"
)


def mutate(draw, doc: dict):
    """One mutation of ``doc`` in place; a whole new value when the document
    itself is replaced, or was already."""
    if not isinstance(doc, dict):
        return doc
    entries = doc.get("brackets") if isinstance(doc.get("brackets"), list) else []
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "field":
        doc["field"] = draw(st.one_of(junk, st.fixed_dictionaries(
            {"kind": st.one_of(st.sampled_from(["Q", "GF", "R", "gf"]), junk)}, optional={"p": moduli}
        )))
    elif kind == "modulus":
        doc["field"] = {"kind": "GF", "p": draw(moduli)}
    elif kind == "dim":
        doc["dim"] = draw(st.one_of(small_ints, huge_ints, junk))
    elif kind == "basis":
        doc["basis"] = draw(st.one_of(junk, st.lists(st.one_of(st.text(max_size=2), junk), max_size=8)))
    elif kind == "drop" and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "document":
        return draw(junk)
    elif kind in ("duplicate", "reverse") and entries:
        e = copy.deepcopy(draw(st.sampled_from(entries)))
        if kind == "reverse" and isinstance(e, dict):  # the same half: not antisymmetric
            e["i"], e["j"] = e.get("j"), e.get("i")
        entries.append(e)
    elif kind == "diagonal" and "brackets" in doc:
        k = draw(st.integers(0, 6))
        entries.append({"i": k, "j": k, "coeffs": {str(k): draw(coefficients)}})
        doc["brackets"] = entries
    elif entries:
        k = draw(st.integers(0, len(entries) - 1))
        e = entries[k]
        if kind == "entry" or not isinstance(e, dict):
            entries[k] = draw(junk)
        elif kind == "index":
            e[draw(st.sampled_from(["i", "j"]))] = draw(indices)
        elif kind == "key" or not isinstance(e.get("coeffs"), dict):
            e["coeffs"] = {draw(st.one_of(indices.map(str), st.text(max_size=3))): draw(coefficients)}
        else:
            e["coeffs"][draw(st.sampled_from(sorted(e["coeffs"]) or ["0"]))] = draw(coefficients)
    return doc


@st.composite
def mutated_texts(draw) -> str:
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        doc = mutate(draw, doc)
    text = json.dumps(doc).replace(json.dumps(HUGE), HUGE_TOKEN)
    if draw(st.integers(0, 19)) == 7:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(mutated_texts())
@example('{"field": {"kind": "GF", "p": 2305843009213693951}, "dim": 1}')
@example('{"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": "%s", "j": 1}]}' % HUGE_TOKEN)
@example('{"field": {"kind": "GF", "p": %s}, "dim": 1}' % HUGE_TOKEN)
@settings(max_examples=400, deadline=timedelta(seconds=2))
def test_every_mutated_document_loads_or_is_refused(tmp_path_factory, text):
    """``load`` gives an algebra or raises ``ParseError`` or
    ``AlgebraError``; ``validate --input`` exits 0 or 2 to match."""
    try:
        loaded = load(text)
    except (ParseError, AlgebraError):
        loaded = None
    assert loaded is None or isinstance(loaded, LieAlgebra)
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate", "--input", str(path)])
    assert code == (EXIT_PARSE if loaded is None else EXIT_OK)
