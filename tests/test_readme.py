"""The README's "Library example" runs, and each of its comments holds."""

import re
from pathlib import Path

from liestruct.cli import space_str

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README heading "Library example"."""
    text = README.read_text()
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs_as_its_comments_say():
    ns: dict = {}
    exec(library_example(), ns)
    L, series, crowns = ns["L"], ns["series"], ns["crowns"]
    # 0 < z < (z, x) < L
    assert [space_str(L, S) for S in series.chain] == ["0", "span{z}", "span{x, z}", "L"]
    # one crown: C = L, R = span(z), rank 2
    assert len(crowns) == 1
    (crown,) = crowns
    assert crown.C == L.full_space()
    assert space_str(L, crown.R) == "span{z}" and crown.rank == 2
    # span(z), the Frattini ideal here
    assert space_str(L, ns["P"]) == "span{z}"
    # not primitive: the monolith is Frattini
    w = ns["w"]
    assert w.verdict == "not_primitive" and "Frattini" in w.reason
    assert space_str(L, w.monolith) == "span{z}"
