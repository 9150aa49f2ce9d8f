"""Shared helpers: fixture paths, program loading and the optimal pair's form."""

from fractions import Fraction
from pathlib import Path

import pytest

from extlp.cli import parse_program_text
from extlp.elp import ExtendedLP

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def load_program(name: str) -> ExtendedLP:
    a, b, c = parse_program_text(fixture_path(name).read_text())
    assert c is not None, f"{name} has no cost section"
    return ExtendedLP(a, b, c)


def fractions(pair) -> tuple:
    """``solve_program``'s optimal pair, each side integer numerators over
    one denominator, as two tuples of Fractions."""
    return tuple(tuple(Fraction(v, den) for v in nums) for nums, den in pair)


@pytest.fixture
def lunch() -> ExtendedLP:
    return load_program("lunch.lp")
