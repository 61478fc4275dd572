from __future__ import annotations

import pytest

from hfpq.core import BinaryWord
from hfpq.typeq import TypeQCode

GOLDEN_N = 6
GOLDEN_A = "111111011010101001000000"
GOLDEN_B = "010101110000111100010101"
GOLDEN_IOTA = 11
GOLDEN_KAPPA = "010101010101101010101010"


@pytest.fixture(scope="session")
def golden() -> TypeQCode:
    return TypeQCode(
        GOLDEN_N,
        BinaryWord.from_string(GOLDEN_A),
        BinaryWord.from_string(GOLDEN_B),
        GOLDEN_IOTA,
    )


@pytest.fixture(scope="session")
def general_hits():
    from hfpq.search import search_general

    return {n: search_general(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def general_hits_5():
    from hfpq.search import search_general

    return search_general(5)


@pytest.fixture(scope="session")
def general_hits_6():
    from hfpq.search import search_general

    return search_general(6)


@pytest.fixture(scope="session")
def k2_hits():
    from hfpq.search import search_k2

    return {n: search_k2(n) for n in (1, 2, 3, 4, 5, 6)}


@pytest.fixture(scope="session")
def k2_hits_8():
    from hfpq.search import search_k2

    return search_k2(8)


@pytest.fixture(scope="session")
def golden_chain(golden):
    """The golden code doubled up to length 768: (doubled, transposed) per step."""
    from hfpq.transforms import double_code, transpose_code

    steps = []
    code = golden
    for _ in range(5):
        code = double_code(code)
        steps.append((code, transpose_code(code)))
    return steps
