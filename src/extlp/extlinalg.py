"""Dense vectors and matrices over the extended carrier, plus exact rational helpers.

Extended entries live in :class:`ExtVector` / :class:`ExtMatrix` (immutable,
hashable, rectangular).  Plain rational vectors and matrices are ordinary
tuples of :class:`Fraction`; :func:`rat_vector` reads one.  The checks' and
solvers' rational helpers ``rat_dot`` and ``scatter`` are left out of
``__all__``, so ``extlp`` does not republish them; import them from this module.

The weighted operations let nonnegative rational weights act on extended
entries: ``dot_weig(v, w) = sum_i smul_nn(w[i], v[i])``, summed left to
right (the sum is order-independent, which the tests check).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError
from .extfield import ZERO, ExtValue, as_ext, as_rational, smul_nn

__all__ = [
    "ExtVector",
    "ExtMatrix",
    "dot_weig",
    "mul_weig",
    "le_vec",
    "neg_transpose",
    "rat_vector",
]


class ExtVector:
    """Immutable vector of extended values; entries coerce via ``as_ext``; a string is refused.

    ``bots`` and ``tops`` index the endpoints once, at construction: the
    positions of the bot and of the top entries, ascending, ``()`` for an
    all-finite vector.
    """

    __slots__ = ("_entries", "_bots", "_tops")

    def __init__(self, entries: Iterable):
        if isinstance(entries, str):
            raise DimensionError(f"a string is not a vector: {entries!r}")
        self._entries = es = tuple([as_ext(e) for e in entries])
        bots, tops = [], []
        for j, e in enumerate(es):
            if e._tag:
                (bots if e._tag < 0 else tops).append(j)
        self._bots, self._tops = tuple(bots), tuple(tops)

    @property
    def entries(self) -> tuple[ExtValue, ...]:
        return self._entries

    @property
    def bots(self) -> tuple[int, ...]:
        return self._bots

    @property
    def tops(self) -> tuple[int, ...]:
        return self._tops

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


def _vector(entries: tuple, bots: tuple, tops: tuple) -> ExtVector:
    """An :class:`ExtVector` on a tuple of extended values and its endpoint
    index: nothing is coerced or scanned."""
    v = object.__new__(ExtVector)
    v._entries, v._bots, v._tops = entries, bots, tops
    return v


class ExtMatrix:
    """Immutable rectangular matrix of extended values.

    ``M[i]`` is the full i-th row (an :class:`ExtVector`), so entries read
    ``M[i][j]``.  An explicit ``ncols`` is required when there are no rows.
    ``bots`` and ``tops`` index the endpoints: the ``(i, j)`` positions of
    the bot and of the top entries, in row-major order, ``()`` for an
    all-finite matrix, read once off the rows' own indexes.
    """

    __slots__ = ("_rows", "_ncols", "_bots", "_tops")

    def __init__(self, rows: Iterable, ncols: int | None = None):
        self._rows = tuple(r if isinstance(r, ExtVector) else ExtVector(r) for r in rows)
        self._ncols = row_width(self._rows, ncols)
        if self._ncols is None:
            raise DimensionError("a matrix with no rows needs an explicit ncols")
        self._bots, self._tops = _cells(self._rows)

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
    def bots(self) -> tuple[tuple[int, int], ...]:
        return self._bots

    @property
    def tops(self) -> tuple[tuple[int, int], ...]:
        return self._tops

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


def _cells(rows: tuple) -> tuple[tuple, tuple]:
    """The ``(i, j)`` positions of the bots and of the tops of ``rows``, off their indexes."""
    return tuple((i, j) for i, r in enumerate(rows) for j in r._bots), tuple((i, j) for i, r in enumerate(rows) for j in r._tops)


def _matrix(rows: tuple, ncols: int) -> ExtMatrix:
    """An :class:`ExtMatrix` on :class:`ExtVector` rows of width ``ncols``:
    nothing is coerced or checked, and the index is read off the rows'."""
    m = object.__new__(ExtMatrix)
    m._rows, m._ncols = rows, ncols
    m._bots, m._tops = _cells(rows)
    return m


def dot_weig(v: ExtVector | Iterable, weights: Sequence) -> ExtValue:
    """Weighted sum ``sum_i smul_nn(weights[i], v[i])``.

    Weights must be nonnegative rationals (enforced by the scalar action).
    The empty sum is 0.
    """
    entries = (v if isinstance(v, ExtVector) else ExtVector(v)).entries
    if len(entries) != len(weights):
        raise DimensionError(f"dot_weig: {len(entries)} entries vs {len(weights)} weights")
    acc = ZERO
    for w, e in zip(weights, entries):
        acc = acc + smul_nn(w, e)
    return acc


def mul_weig(m: ExtMatrix | Sequence, weights: Sequence) -> ExtVector:
    """Row-wise weighted sums: entry i is ``dot_weig(m[i], weights)``."""
    m = m if isinstance(m, ExtMatrix) else ExtMatrix(m)
    if len(weights) != m.ncols:
        raise DimensionError(f"mul_weig: matrix has {m.ncols} columns, got {len(weights)} weights")
    return ExtVector(dot_weig(row, weights) for row in m)


def le_vec(u: ExtVector | Iterable, v: ExtVector | Iterable) -> bool:
    """Pointwise ``<=`` on equal-length vectors."""
    u, v = (w if isinstance(w, ExtVector) else ExtVector(w) for w in (u, v))
    if len(u) != len(v):
        raise DimensionError(f"le_vec: {len(u)} vs {len(v)}")
    return all(a <= b for a, b in zip(u, v))


def neg_transpose(m: ExtMatrix) -> ExtMatrix:
    """Entrywise-negated transpose: result[j][i] = -m[i][j].  An involution.

    Built from ``m``'s entries and index, which need no second check: the
    result has ``m.nrows`` columns, and row ``j`` has its bots where column
    ``j`` of ``m`` has its tops and its tops where that has its bots, each
    read off ``m``'s row-major index in ascending ``i``.  ``m`` stays typed:
    :func:`~extlp.elp.dualize` passes the matrix its program coerced once.
    """
    n = m._ncols
    cols = zip(*(r._entries for r in m._rows)) if m._rows else [()] * n
    bots, tops = [()] * n, [()] * n
    for i, j in m._tops:
        bots[j] += (i,)
    for i, j in m._bots:
        tops[j] += (i,)
    rows = tuple(_vector(tuple([-e for e in col]), rb, rt) for col, rb, rt in zip(cols, bots, tops))
    return _matrix(rows, len(m._rows))


def row_width(rows: Sequence[Sequence], ncols: int | None) -> int | None:
    """The common width of ``rows``, which must equal ``ncols`` when that is
    given; ``ncols`` itself when there are no rows.  ``ncols`` is None or an
    int ``>= 0``, else DimensionError."""
    if ncols is not None and (not isinstance(ncols, int) or isinstance(ncols, bool) or ncols < 0):
        raise DimensionError(f"ncols must be None or a nonnegative int, not {ncols!r}")
    if not rows:
        return ncols
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionError(f"ragged rows: widths {sorted(widths)}")
    width = widths.pop()
    if ncols is not None and ncols != width:
        raise DimensionError(f"ncols {ncols} does not match row width {width}")
    return width


def rat_vector(xs: Iterable) -> tuple[Fraction, ...]:
    """Coerce a sequence of rational literals, not a string, to a tuple of Fractions."""
    if isinstance(xs, str):
        raise DimensionError(f"a string is not a vector: {xs!r}")
    return tuple(as_rational(x) for x in xs)


def _rational_system(a: Sequence[Sequence], b: Sequence, ncols: int | None) -> tuple[list, tuple, int]:
    """``(A, b)`` as Fractions with their shape checked, and the width of
    ``A``: ``ncols``, or 0 when that is None, if ``A`` has no rows."""
    mat = [rat_vector(row) for row in a]
    rhs = rat_vector(b)
    if len(mat) != len(rhs):
        raise DimensionError(f"{len(mat)} rows vs {len(rhs)} rhs entries")
    return mat, rhs, row_width(mat, ncols) or 0


def _ext_system(a: ExtMatrix | Sequence, b: ExtVector | Sequence) -> tuple[ExtMatrix, ExtVector]:
    """``(A, b)`` as an :class:`ExtMatrix` and an :class:`ExtVector` with an
    entry per row of ``A``, else DimensionError."""
    a = a if isinstance(a, ExtMatrix) else ExtMatrix(a)
    b = b if isinstance(b, ExtVector) else ExtVector(b)
    if a.nrows != len(b):
        raise DimensionError(f"{a.nrows} rows vs {len(b)} rhs entries")
    return a, b


def rat_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"rat_dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def scatter(values: Sequence[Fraction], positions: Sequence[int], size: int) -> tuple[Fraction, ...]:
    """Place ``values`` at ``positions`` in a zero vector of length ``size``."""
    if len(values) != len(positions):
        raise DimensionError(f"scatter: {len(values)} values vs {len(positions)} positions")
    out = [Fraction(0)] * size
    for pos, val in zip(positions, values):
        out[pos] = val
    return tuple(out)
