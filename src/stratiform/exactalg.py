"""Exact linear algebra over the rationals and the integers.

`Matrix` is a dense immutable matrix of reduced `Fraction`s with no
arithmetic: it is the block format of `CompactificationDatum` and what
the public `BigradedModel` and `CdgaMorphism` constructors take for d
and for a morphism's blocks, which they convert once to the sparse
integer columns they keep, so it keeps construction, shape and equality
only.  The computations are integer-only.
Hermite bases are row-style with positive pivots and the entries above
each pivot reduced into [0, pivot); a unimodular completion runs Euclid
on the entry of smallest absolute value, ties broken by lowest column.
These fixed rules make every result deterministic.  All comparisons are
exact; no tolerance parameter exists anywhere in this package.

The toric layers need no Smith form: a layer's span is saturated, so
`_completion` brings its Hermite basis to [I | 0] by column steps alone,
with no rational elimination.  It returns the unimodular transform R
only: no caller reads R^-1, so no step is mirrored to build it.
The affine intersection poset is integer-only as well, and `morganmodel`
eliminates sparse integer columns of its own, so no production path
eliminates or multiplies a dense matrix.  The dense rational elimination
and the Smith form that the tests use as oracles live in
`tests/reference.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("matrix entries must be int or Fraction, got %r" % type(x).__name__)


def _primitive(row: Sequence[int | Fraction]) -> list[int]:
    """The rational `row`, of ints or `Fraction`s, times the positive
    rational that makes it a primitive integer row (a zero row stays
    zero)."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


class Matrix:
    """Dense rational matrix; rows stored as tuples of reduced Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
        else:
            ncols = 0 if ncols is None else ncols
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def _of_fractions(cls, rows: Sequence[tuple[Fraction, ...]], ncols: int) -> "Matrix":
        """A matrix over rows its caller has just built, each a tuple of
        `ncols` Fractions, held without the conversions of `__init__`."""
        mat = cls.__new__(cls)
        mat.rows, mat.nrows, mat.ncols = tuple(rows), len(rows), ncols
        return mat

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return "Matrix(%s)" % (list(list(map(str, r)) for r in self.rows),)


# -- unimodular completion ---------------------------------------------


def _completion(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """A unimodular R with rows @ R = [I | 0], for the `rows` of a basis
    of a saturated lattice in Z^ncols, as the columns of R.

    Column steps alone: for each row in turn, a Euclid run on its entries
    from its own column on leaves one nonzero entry, which must be +-1
    (the saturation check); it is moved to the row's column and made 1,
    and the row's earlier entries are cleared against it, which leaves
    the earlier rows, zero in that column, as they were.  The Euclid run
    divides by the entry of smallest absolute value, lowest column first.
    """
    a = [list(col) for col in zip(*rows)] or [[] for _ in range(ncols)]  # the columns of rows @ R
    right = [[int(i == j) for i in range(ncols)] for j in range(ncols)]  # the columns of R

    def col_sub(j, k, q):  # col_j -= q * col_k on a and R
        a[j] = [x - q * y for x, y in zip(a[j], a[k])]
        right[j] = [x - q * y for x, y in zip(right[j], right[k])]

    for i in range(len(rows)):
        while True:
            live = [j for j in range(i, ncols) if a[j][i]]
            if len(live) < 2:
                break
            p = min(live, key=lambda j: abs(a[j][i]))
            for j in live:
                if j != p:
                    col_sub(j, p, a[j][i] // a[p][i])
        assert len(live) == 1 and abs(a[live[0]][i]) == 1, "the rows do not span a saturated lattice"
        p = live[0]
        if p != i:
            a[i], a[p] = a[p], a[i]
            right[i], right[p] = right[p], right[i]
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            right[i] = [-x for x in right[i]]
        for j in range(i):
            if a[j][i]:
                col_sub(j, i, a[j][i])
    return right


# -- Hermite bases and lattices -----------------------------------------


def _int_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    out = []
    width = None
    for row in rows:
        r = list(row)
        if not all(type(x) is int for x in r):  # rows of plain ints need no validation
            fr = [_frac(x) for x in r]
            if any(f.denominator != 1 for f in fr):
                raise ValueError("lattice rows must be integral")
            r = [int(f) for f in fr]
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged lattice rows")
        out.append(r)
    return out


def hermite_basis(rows: Iterable[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite basis of the lattice generated by `rows`.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    zero rows are dropped.  Idempotent, and equal for any two generating
    sets of the same lattice.
    """
    b = _int_rows(rows)
    if not b:
        return ()
    n = len(b[0])
    r = 0
    for c in range(n):
        if r == len(b):
            break
        while True:
            nz = [i for i in range(r, len(b)) if b[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(b[i][c]), i))
            b[r], b[i0] = b[i0], b[r]
            if b[r][c] < 0:
                b[r] = [-x for x in b[r]]
            finished = True
            for i in range(r + 1, len(b)):
                if b[i][c]:
                    q = b[i][c] // b[r][c]
                    b[i] = [x - q * y for x, y in zip(b[i], b[r])]
                    if b[i][c]:
                        finished = False
            if finished:
                break
        if r < len(b) and b[r][c]:
            for i in range(r):
                q = b[i][c] // b[r][c]
                if q:
                    b[i] = [x - q * y for x, y in zip(b[i], b[r])]
            r += 1
    return tuple(tuple(row) for row in b[:r])
