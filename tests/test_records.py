"""The result and input records, each a named tuple: a record equals only a
record of its own class, never a plain tuple, hashes and prints its fields,
refuses assignment and keeps its constructor's checks."""

from fractions import Fraction

import pytest

from extlp.elp import ExtendedLP, Optimum, ValidELP, ValidityReport, validate
from extlp.errors import DimensionError, InvalidProgramError, ScaleLimitError
from extlp.extfield import BOT
from extlp.farkas import FarkasOutcome
from extlp.oracle import OPTIMAL, UNBOUNDED, GenConfig, OracleResult

NO_INDEX = dict.fromkeys(
    ("mixed_col", "top_col_bot_cost", "top_row_top_rhs", "bot_col_top_cost"), ()
)

# (record, an equal record built afresh, a record that differs, its repr)
RECORDS = [
    (
        ExtendedLP([[1, "bot"]], ["top"], [Fraction(1, 2), 0]),
        ExtendedLP(A=[[1, "bot"]], b=["top"], c=["1/2", "0"]),
        ExtendedLP([[1, "bot"]], ["top"], [Fraction(1, 2), 1]),
        "ExtendedLP(A=ExtMatrix(1x2: 1 bot), b=ExtVector([top]), c=ExtVector([1/2, 0]))",
    ),
    (
        ValidELP([[1, 2]], [3], [Fraction(1, 2), 0]),
        ValidELP(A=[[1, 2]], b=[3], c=["1/2", 0]),
        ValidELP([[1, 2]], [4], [Fraction(1, 2), 0]),
        "ValidELP(A=ExtMatrix(1x2: 1 2), b=ExtVector([3]), c=ExtVector([1/2, 0]))",
    ),
    (
        validate(ExtendedLP([["bot", "top"]], ["bot"], [1, 2])),
        ValidityReport(mixed_row=(0,), bot_row_bot_rhs=(0,), **NO_INDEX),
        ValidityReport(mixed_row=(), bot_row_bot_rhs=(0,), **NO_INDEX),
        "ValidityReport(mixed_row=(0,), mixed_col=(), bot_row_bot_rhs=(0,), top_col_bot_cost=(), "
        "top_row_top_rhs=(), bot_col_top_cost=())",
    ),
    (
        Optimum(Fraction(-3, 4)),
        Optimum(value=Optimum("-3/4").value),
        Optimum("3/4"),
        "Optimum(value=ExtValue('-3/4'))",
    ),
    (
        FarkasOutcome.primal([Fraction(10, 9), Fraction(0)]),
        FarkasOutcome(x=(Fraction(10, 9), Fraction(0)), y=None),
        FarkasOutcome.dual([Fraction(10, 9), Fraction(0)]),
        "FarkasOutcome(x=(Fraction(10, 9), Fraction(0, 1)), y=None)",
    ),
    (
        OracleResult(UNBOUNDED, ray=(Fraction(1), Fraction(0))),
        OracleResult(status=UNBOUNDED, value=None, point=None, ray=(Fraction(1), Fraction(0))),
        OracleResult(UNBOUNDED),
        "OracleResult(status='unbounded', value=None, point=None, ray=(Fraction(1, 1), Fraction(0, 1)))",
    ),
    (
        GenConfig(rows=3, cols=2, seed=42),
        GenConfig(3, 2, 3, 0.25, 42, 10000),
        GenConfig(rows=3, cols=2, seed=43),
        "GenConfig(rows=3, cols=2, magnitude=3, infinity_prob=0.25, seed=42, max_attempts=10000)",
    ),
]
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("record,same,other,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_one(record, same, other, text):
    assert repr(record) == text
    assert repr(same) == text


@pytest.mark.parametrize("record,same,other,text", RECORDS, ids=IDS)
def test_equal_fields_compare_and_hash_equal(record, same, other, text):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert len({record, same, other}) == 2
    assert record != other and not record == other
    assert record != text and record is not None
    # a record is a tuple, yet never equals the plain tuple of its fields
    plain = tuple(getattr(record, name) for name in type(record).__match_args__)
    assert record != plain and plain != record and not record == plain


@pytest.mark.parametrize("record,same,other,text", RECORDS, ids=IDS)
def test_fields_refuse_assignment(record, same, other, text):
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_equality_holds_only_within_one_class():
    plain = ExtendedLP([[1, 2]], [3], [0, 1])
    valid = ValidELP([[1, 2]], [3], [0, 1])
    assert plain != valid and valid != plain
    assert not plain == valid
    assert plain == ExtendedLP(valid.A, valid.b, valid.c)
    assert Optimum(1) != OracleResult(OPTIMAL, value=Fraction(1))


def test_defaults_and_properties():
    assert OracleResult(OPTIMAL).value is None and OracleResult(OPTIMAL).ray is None
    cfg = GenConfig(rows=3, cols=2)
    assert (cfg.magnitude, cfg.infinity_prob, cfg.seed, cfg.max_attempts) == (3, 0.25, 0, 10000)
    assert ExtendedLP([[1, 2]], [3], [0, 1]).A.shape == (1, 2)
    assert str(Optimum(BOT)) == "bot"
    out = FarkasOutcome.dual([Fraction(1)])
    assert out.is_dual and not out.is_primal
    report = RECORDS[2][0]
    assert not report.is_valid
    assert report.failed() == {"mixed_row": (0,), "bot_row_bot_rhs": (0,)}


def test_constructor_checks_still_raise():
    with pytest.raises(DimensionError):
        ExtendedLP([[1, 2]], [3, 4], [0, 1])
    with pytest.raises(DimensionError):
        ExtendedLP([[1, 2]], [3], [0])
    with pytest.raises(InvalidProgramError) as err:
        ValidELP([["bot", "top"]], [1], [0, 0])
    assert err.value.report.mixed_row == (0,)
    with pytest.raises(ValueError, match="exactly one witness"):
        FarkasOutcome(None, None)
    with pytest.raises(ValueError, match="exactly one witness"):
        FarkasOutcome((Fraction(1),), (Fraction(1),))
    for bad in (dict(rows=0, cols=2), dict(rows=2, cols=2, magnitude=-1), dict(rows=2, cols=2, infinity_prob=1.5)):
        with pytest.raises(ScaleLimitError):
            GenConfig(**bad)
    # a wrong type raised TypeError or ValueError inside the generator, and True stood for 1: each is refused by name
    for field, value in (("rows", 1.5), ("rows", True), ("cols", False), ("magnitude", 1.5), ("max_attempts", 2.0),
                         ("max_attempts", True), ("infinity_prob", "0.3"), ("infinity_prob", True)):
        with pytest.raises(ScaleLimitError, match=f"^{field} must be"):
            GenConfig(**{"rows": 1, "cols": 1, field: value})
