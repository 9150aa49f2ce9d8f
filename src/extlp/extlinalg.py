"""Dense vectors and matrices over the extended carrier, plus exact rational helpers.

Extended entries live in :class:`ExtVector` / :class:`ExtMatrix` (immutable,
hashable, rectangular).  Plain rational vectors and matrices are ordinary
tuples of :class:`Fraction`; the ``rat_*`` helpers cover the little linear
algebra the solvers need.

The weighted operations let nonnegative rational weights act on extended
entries: ``dot_weig(v, w) = sum_i smul_nn(w[i], v[i])``, summed left to
right (the sum is order-independent, which the tests check).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError
from .extfield import ZERO, ExtValue, as_ext, as_rational, smul_nn

__all__ = [
    "ExtVector",
    "ExtMatrix",
    "dot_weig",
    "mul_weig",
    "le_vec",
    "neg_transpose",
    "rat_vector",
    "nonneg_vector",
    "rat_dot",
    "rat_mat_vec",
    "rat_transpose",
    "rat_identity",
    "scatter",
]


class ExtVector:
    """Immutable vector of extended values; entries coerce via ``as_ext``."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable):
        self._entries = tuple(as_ext(e) for e in entries)

    @property
    def entries(self) -> tuple[ExtValue, ...]:
        return self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, i: int) -> ExtValue:
        return self._entries[i]

    def __eq__(self, other):
        if not isinstance(other, ExtVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"ExtVector([{', '.join(str(e) for e in self._entries)}])"


class ExtMatrix:
    """Immutable rectangular matrix of extended values.

    ``M[i]`` is the full i-th row (an :class:`ExtVector`), so entries read
    ``M[i][j]``.  An explicit ``ncols`` is required when there are no rows.
    ``bots`` and ``tops`` index the endpoints once, at construction: the
    ``(i, j)`` positions of the bot and of the top entries, in row-major
    order, ``()`` for an all-finite matrix.
    """

    __slots__ = ("_rows", "_ncols", "_bots", "_tops")

    def __init__(self, rows: Iterable, ncols: int | None = None):
        self._rows = tuple(r if isinstance(r, ExtVector) else ExtVector(r) for r in rows)
        if self._rows:
            widths = {len(r) for r in self._rows}
            if len(widths) != 1:
                raise DimensionError(f"ragged rows: widths {sorted(widths)}")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise DimensionError(f"ncols {ncols} does not match row width {width}")
            self._ncols = width
        else:
            if ncols is None:
                raise DimensionError("a matrix with no rows needs an explicit ncols")
            self._ncols = ncols
        self._bots = tuple((i, j) for i, r in enumerate(self._rows) for j, e in enumerate(r) if e.is_bot)
        self._tops = tuple((i, j) for i, r in enumerate(self._rows) for j, e in enumerate(r) if e.is_top)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._rows), self._ncols)

    @property
    def rows(self) -> tuple[ExtVector, ...]:
        return self._rows

    @property
    def bots(self) -> tuple[tuple[int, int], ...]:
        return self._bots

    @property
    def tops(self) -> tuple[tuple[int, int], ...]:
        return self._tops

    def col(self, j: int) -> ExtVector:
        if not 0 <= j < self._ncols:
            raise IndexError(j)
        return ExtVector(r[j] for r in self._rows)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, i: int) -> ExtVector:
        return self._rows[i]

    def __eq__(self, other):
        if not isinstance(other, ExtMatrix):
            return NotImplemented
        return self._rows == other._rows and self._ncols == other._ncols

    def __hash__(self):
        return hash((self._rows, self._ncols))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self._rows)
        return f"ExtMatrix({self.nrows}x{self.ncols}: {body})"


def dot_weig(v: ExtVector | Iterable, weights: Sequence) -> ExtValue:
    """Weighted sum ``sum_i smul_nn(weights[i], v[i])``.

    Weights must be nonnegative rationals (enforced by the scalar action).
    The empty sum is 0.
    """
    entries = v.entries if isinstance(v, ExtVector) else tuple(as_ext(e) for e in v)
    if len(entries) != len(weights):
        raise DimensionError(f"dot_weig: {len(entries)} entries vs {len(weights)} weights")
    acc = ZERO
    for w, e in zip(weights, entries):
        acc = acc + smul_nn(w, e)
    return acc


def mul_weig(m: ExtMatrix, weights: Sequence) -> ExtVector:
    """Row-wise weighted sums: entry i is ``dot_weig(m[i], weights)``."""
    if len(weights) != m.ncols:
        raise DimensionError(f"mul_weig: matrix has {m.ncols} columns, got {len(weights)} weights")
    return ExtVector(dot_weig(row, weights) for row in m)


def le_vec(u: ExtVector, v: ExtVector) -> bool:
    """Pointwise ``<=`` on equal-length vectors."""
    if len(u) != len(v):
        raise DimensionError(f"le_vec: {len(u)} vs {len(v)}")
    return all(a <= b for a, b in zip(u, v))


def neg_transpose(m: ExtMatrix) -> ExtMatrix:
    """Entrywise-negated transpose: result[j][i] = -m[i][j].  An involution."""
    return ExtMatrix(
        (ExtVector(-m[i][j] for i in range(m.nrows)) for j in range(m.ncols)),
        ncols=m.nrows,
    )


def rat_vector(xs: Iterable) -> tuple[Fraction, ...]:
    """Coerce a sequence of rational literals to a tuple of Fractions."""
    return tuple(as_rational(x) for x in xs)


def nonneg_vector(xs: Iterable) -> tuple[Fraction, ...]:
    """Like :func:`rat_vector` but rejects negative entries."""
    v = rat_vector(xs)
    for i, x in enumerate(v):
        if x < 0:
            raise DomainError(f"entry {i} is negative: {x}")
    return v


def rat_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"rat_dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def rat_mat_vec(a: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(rat_dot(row, x) for row in a)


def rat_transpose(a: Sequence[Sequence[Fraction]], ncols: int | None = None) -> tuple[tuple[Fraction, ...], ...]:
    if not a:
        if ncols is None:
            raise DimensionError("transposing an empty matrix needs ncols")
        return tuple(() for _ in range(ncols))
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def rat_identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def scatter(values: Sequence[Fraction], positions: Sequence[int], size: int) -> tuple[Fraction, ...]:
    """Place ``values`` at ``positions`` in a zero vector of length ``size``."""
    if len(values) != len(positions):
        raise DimensionError(f"scatter: {len(values)} values vs {len(positions)} positions")
    out = [Fraction(0)] * size
    for pos, val in zip(positions, values):
        out[pos] = val
    return tuple(out)
