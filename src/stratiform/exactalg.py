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
operation), so saturation and the toric layers need no rational
elimination; `smith_normal_form` wraps it for `Matrix` callers.  The
affine intersection poset is integer-only as well, so on the production
paths rational elimination (`Matrix.rref` and what calls it) remains
only in `morganmodel`; `LinearMatroid`, the flat-lattice oracle, still
takes ranks with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _primitive(row: Sequence[Fraction]) -> list[int]:
    """The rational `row` times the positive rational that makes it a
    primitive integer row (a zero row stays zero)."""
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

    __slots__ = ("rows", "nrows", "ncols", "_rref")

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
        self._rref = None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

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
        if self._rref is not None:
            return self._rref
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
        self._rref = (Matrix(reduced, ncols=self.ncols), tuple(pivots))
        return self._rref

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


def det(m: Matrix) -> Fraction:
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in m.rows]
    n = m.nrows
    sign = 1
    result = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        pv = rows[c][c]
        result *= pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return sign * result


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    aug = m.hstack(Matrix.identity(m.nrows))
    red, pivots = aug.rref()
    if len(pivots) != m.nrows or any(p >= m.nrows for p in pivots):
        raise ValueError("matrix is singular")
    return Matrix([r[m.nrows:] for r in red.rows], ncols=m.nrows)


# -- Smith normal form -------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ original @ right is diagonal with a divisibility chain.

    `left` and `right` are unimodular; `diag` lists the nonnegative
    invariants d_1 | d_2 | ... with trailing zeros kept.
    """

    left: Matrix
    diag: tuple[int, ...]
    right: Matrix

    def diagonal_matrix(self, nrows: int, ncols: int) -> Matrix:
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for i, d in enumerate(self.diag):
            rows[i][i] = Fraction(d)
        return Matrix(rows, ncols=ncols)

    def verify(self, original: Matrix) -> bool:
        d = self.left @ original @ self.right
        if d != self.diagonal_matrix(original.nrows, original.ncols):
            return False
        if any(x < 0 for x in self.diag):
            return False
        for a, b in zip(self.diag, self.diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return abs(det(self.left)) == 1 and abs(det(self.right)) == 1


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


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix (pivot rule of `_smith_core`)."""
    if not m.is_integral():
        raise ValueError("smith_normal_form requires integer entries")
    core = _smith_core([[int(x) for x in row] for row in m.rows], m.ncols)
    return SmithDecomposition(
        Matrix(core.left, ncols=m.nrows), core.diag, Matrix(core.right, ncols=m.ncols)
    )


def torsion_invariants(m: Matrix) -> tuple[int, ...]:
    """Smith invariants exceeding 1: the torsion of coker(m) between free lattices."""
    return tuple(d for d in smith_normal_form(m).diag if d > 1)


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


def lattice_coordinates(basis: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coordinates of v over a row-echelon integer basis, or None.

    The basis must be in echelon form (as produced by hermite_basis).
    """
    work = [int(x) for x in v]
    coeffs = []
    for row in basis:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        q, rem = divmod(work[p], row[p])
        if rem:
            return None
        if q:
            work = [x - q * y for x, y in zip(work, row)]
        coeffs.append(q)
    if any(work):
        return None
    return tuple(coeffs)


def lattice_contains(basis: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    return lattice_coordinates(basis, v) is not None


def saturate(rows: Iterable[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of {v : d*v in the lattice of `rows` for some d >= 1}.

    Requires independent rows; the index of the input lattice in its
    saturation is the product of the nonzero Smith invariants.  With
    left @ B @ right = diag, the first rank rows of right^-1 span the
    saturation.
    """
    b = _int_rows(rows)
    if not b:
        return ()
    core = _smith_core(b, len(b[0]))
    if sum(1 for d in core.diag if d) != len(b):
        raise ValueError("saturate expects independent rows")
    return hermite_basis(core.right_inverse[:len(b)])


def lattice_index_in_saturation(rows: Iterable[Sequence]) -> int:
    """Index of the lattice spanned by independent `rows` in its saturation."""
    b = _int_rows(rows)
    if not b:
        return 1
    idx = 1
    for d in _smith_core(b, len(b[0])).diag:
        if d:
            idx *= d
    return idx
