import pytest
from hypothesis import settings

from liestruct import builtin
from liestruct.fields import GF, QQ

CORPUS_Q = ("ab(1)", "ab(2)", "ab(3)", "r2", "heis", "ex22", "sl2", "gl2",
            "aff_sl2", "sl2_plus_sl2", "h3_plus_r2")
# fixtures with sl2 blocks need odd characteristic; ex22 needs t^2+1 irreducible
CORPUS_GF2 = ("ab(1)", "ab(2)", "ab(3)", "r2", "heis", "h3_plus_r2")
CORPUS_GF3 = CORPUS_Q

SOLVABLE_Q = ("ab(1)", "ab(2)", "ab(3)", "r2", "heis", "ex22", "h3_plus_r2")

# Every run draws the same examples (seeded from each test function), so an
# input that is slow or wrong for the library shows on every run or on none.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def corpus_q():
    return {name: builtin(name, QQ) for name in CORPUS_Q}


@pytest.fixture(scope="session")
def corpus_gf3():
    return {name: builtin(name, GF(3)) for name in CORPUS_GF3}


@pytest.fixture(scope="session")
def corpus_gf2():
    return {name: builtin(name, GF(2)) for name in CORPUS_GF2}


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
