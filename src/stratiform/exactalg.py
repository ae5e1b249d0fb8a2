"""Exact linear algebra over the rationals and the integers.

`Matrix` is a dense immutable matrix of reduced `Fraction`s with no
arithmetic: it is the block format of `CompactificationDatum` and what
the public `BigradedModel` and `CdgaMorphism` constructors take for d
and for a morphism's blocks, which they convert once to the sparse
integer columns they keep, so it keeps construction, shape and equality
only.  The computations are integer-only.
Smith normal form pivots on the entry of smallest absolute value, ties
broken by lowest (row, column); Hermite bases are row-style with positive
pivots and the entries above each pivot reduced into [0, pivot).  These
fixed rules make every result deterministic.  All comparisons are exact;
no tolerance parameter exists anywhere in this package.

One Smith core, `_smith_core`, works on lists of ints and carries the
inverse of its right transform along with it (each column operation is
mirrored by the inverse row operation), so the toric layers need no
rational elimination.  The affine intersection poset is integer-only as
well, and `morganmodel` eliminates sparse integer columns of its own, so
no production path eliminates or multiplies a dense matrix.  The dense
rational elimination the tests use as an oracle lives in
`tests/reference.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


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
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

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


# -- Smith normal form -------------------------------------------------


class _IntSmith(NamedTuple):
    """Integer Smith data: left @ a @ right = diag, right_inverse = right^-1."""

    left: list[list[int]]
    diag: tuple[int, ...]
    right: list[list[int]]
    right_inverse: list[list[int]]


def _smith_core(rows: Sequence[Sequence[int]], ncols: int) -> _IntSmith:
    """Smith normal form of an integer matrix given as lists of ints.

    Pivot rule: entry of smallest absolute value in the unfinished
    submatrix, ties broken by lowest (row, column).  Every column
    operation on `right` is mirrored as the inverse row operation on
    `right_inverse`, so the inverse comes out integral with no
    elimination.
    """
    a = [list(row) for row in rows]
    nr, nc = len(a), ncols
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]
    right_inv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):  # row_i -= q * row_j on a and left
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    def col_sub(j, k, q):  # col_j -= q * col_k on a and right; row_k += q * row_j on right_inv
        for row in a:
            row[j] -= q * row[k]
        for row in right:
            row[j] -= q * row[k]
        right_inv[k] = [x + q * y for x, y in zip(right_inv[k], right_inv[j])]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in right:
            row[j], row[k] = row[k], row[j]
        right_inv[j], right_inv[k] = right_inv[k], right_inv[j]

    def stage(t: int) -> bool:
        while True:
            best = None
            pivot = None
            for i in range(t, nr):
                for j in range(t, nc):
                    v = abs(a[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                return False
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if a[t][t] < 0:
                row_neg(t)
            d = a[t][t]
            clear = True
            for i in range(t + 1, nr):
                q = a[i][t] // d
                if q:
                    row_sub(i, t, q)
                if a[i][t]:
                    clear = False
            if not clear:
                continue
            for j in range(t + 1, nc):
                q = a[t][j] // d
                if q:
                    col_sub(j, t, q)
                if a[t][j]:
                    clear = False
            if not clear:
                continue
            offender = None
            for i in range(t + 1, nr):
                if any(a[i][j] % d for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                return True
            row_sub(t, offender, -1)  # merge the offending row, then redo

    for t in range(min(nr, nc)):
        if not stage(t):
            break
    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return _IntSmith(left, diag, right, right_inv)


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
