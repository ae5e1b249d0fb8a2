"""Exact linear algebra over the rationals and the integers.

Dense immutable matrices with ``Fraction`` entries.  Gauss-Jordan
elimination (`Matrix.rref`) pivots on the first nonzero entry in row order
and runs in integers; Smith normal form pivots on the entry of smallest
absolute value, ties broken by lowest (row, column); Hermite bases are
row-style with positive pivots and the entries above each pivot reduced
into [0, pivot).  These fixed rules make every result deterministic.  All
comparisons are exact; no tolerance parameter exists anywhere in this
package.

The lattice code is integer-only.  One Smith core, `_smith_core`, works
on lists of ints and carries the inverse of its right transform along
with it (each column operation is mirrored by the inverse row
operation), so the toric layers need no rational elimination.  The
affine intersection poset is integer-only as well, and `morganmodel`
eliminates sparse integer columns of its own, so no production path
calls `Matrix.rref`: it stays as the public elimination and as the
tests' oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("matrix entries must be int or Fraction, got %r" % type(x).__name__)


def vector(entries: Iterable) -> Vector:
    return tuple(_frac(x) for x in entries)


def _primitive(row: Sequence[int | Fraction]) -> list[int]:
    """The rational `row`, of ints or `Fraction`s, times the positive
    rational that makes it a primitive integer row (a zero row stays
    zero)."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum((_frac(a) * _frac(b) for a, b in zip(u, v)), Fraction(0))


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

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)], ncols=n)

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

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        cols = [vector(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls([[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], ncols=self.nrows)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.rows for x in r)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return tuple(tuple(int(x) for x in r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ot = other.transpose().rows
        return Matrix([[dot(r, c) for c in ot] for r in self.rows], ncols=other.ncols)

    def apply(self, v: Sequence) -> Vector:
        """self @ v for a column vector v."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(dot(r, v) for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix sum")
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix([[c * x for x in r] for r in self.rows], ncols=self.ncols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("hstack needs equal row counts")
        return Matrix([r + s for r, s in zip(self.rows, other.rows)],
                      ncols=self.ncols + other.ncols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack needs equal column counts")
        return Matrix(self.rows + other.rows, ncols=self.ncols)

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return "Matrix(%s)" % (list(list(map(str, r)) for r in self.rows),)

    # -- elimination -----------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        The pivot of each step is the first row (in row order) with a
        nonzero entry in the leftmost unfinished column.  The elimination
        is fraction-free: each row is scaled to primitive integers, each
        row combination is integral and divided by the gcd of its entries,
        and the pivot rows are divided by their pivots once, at the end.
        Every working row is a nonzero multiple of the row the rational
        elimination would hold, so the pivots are the same, and the RREF
        is unique.
        """
        rows = [_primitive(r) for r in self.rows]
        nrows = self.nrows
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            if r == nrows:
                break
            p = next((i for i in range(r, nrows) if rows[i][c]), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            prow = rows[r]
            pv = prow[c]
            for i in range(nrows):
                f = rows[i][c]
                if f and i != r:
                    g = math.gcd(pv, f)
                    a, b = pv // g, f // g
                    row = [a * x - b * y for x, y in zip(rows[i], prow)]
                    g = math.gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
            r += 1
        zero = Fraction(0)
        reduced = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(rows, pivots)]
        reduced += [[zero] * self.ncols for _ in range(nrows - r)]
        return Matrix(reduced, ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def right_kernel(self) -> tuple[Vector, ...]:
        """Basis of {v : self @ v = 0}, one vector per free column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -red.rows[i][f]
            basis.append(tuple(v))
        return tuple(basis)

    def solve(self, b: Sequence) -> Vector | None:
        """A solution x of self @ x = b with free variables set to 0, or None."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        aug = self.hstack(Matrix([[x] for x in vector(b)], ncols=1) if self.nrows else Matrix([], ncols=1))
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [Fraction(0)] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = red.rows[i][self.ncols]
        return tuple(x)


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
