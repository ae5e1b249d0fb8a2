"""Reference implementations the tests compare the package against.

Nothing here is on a path the `stratiform` command line runs.  Each
function is an independent oracle for a production computation:

- `exactalg`: the dense rational elimination of a `Matrix` (`rref`,
  with `rank`, `right_kernel` and `solve` built on it), its products
  (`matmul`, `apply`, `dot`), a `Matrix` Smith form with its
  decomposition, torsion invariants, saturation, membership and
  coordinates in an echelon lattice, determinant and inverse;
- `matroidos`: linear matroids, their no-broken-circuit bases, the
  lattice of flats with its Moebius function, characteristic polynomial
  and Whitney numbers, and the same numbers read off an affine
  intersection poset;
- `toriclayers`: `Layer`, a layer with `Fraction` phases, and
  `layers_from_equations`, the components of a whole system at once by
  its Smith form (`_smith_core`, on lists of ints); the phase of a
  layer on a character, containment of layers, the local subarrangement
  at a layer, and a brute-force count of the components of a toric
  system on a grid of torsion points;
- the Moebius function of any finite poset from its covers, by down-sets
  (`mobius_by_down_sets`), against which the Weisner step of the two
  searches is checked;
- the intersection posets as objects, for the tests that read flats and
  layers: `affine_poset` and `layer_poset` turn the integer keys of
  `flat_order` and `layer_order` into rational echelon rows and
  `Layer`s, with the covers and the mu that the searches return, and
  `affine_poset` finds the hyperplanes through each flat by rank;
- `morganmodel`: a datum's restriction-functoriality check on dense
  composite matrices, the model assembled one basis pair at a time
  from dense composite restrictions, and the dense blocks of the
  witnesses' kernel inclusion and cokernel projection; and the
  accessors the dense and pairwise oracles read, which the package
  does not keep: a model's d and a morphism's blocks rendered as dense
  matrices from their integer columns (`differential`, `differentials`,
  `block`, `blocks`), applied to one vector (`diff_vec`, `image`), a
  model's products one basis pair or vector pair at a time
  (`mult_basis`, `mult_vec`), and a datum's Gysin blocks and cup
  constants (`gysin`, `cup_entries`), read from the datum's dicts by a
  reader of their own (`datum_block`) with the package's fault texts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, NamedTuple, Sequence

from stratiform.exactalg import Matrix, _frac, _int_rows, _primitive, hermite_basis
from stratiform.matroidos import _flat_name, flat_order, flat_search
from stratiform.morganmodel import BigradedModel, CompactificationDatum, DatumError, shuffle_sign
from stratiform.toriclayers import ToricHypersurface, _layer_name, layer_order, layer_search, mod1

# -- exact linear algebra ------------------------------------------------


def vector(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(_frac(x) for x in entries)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum((_frac(a) * _frac(b) for a, b in zip(u, v)), Fraction(0))


def identity(n: int) -> Matrix:
    return Matrix([[Fraction(i == j) for j in range(n)] for i in range(n)], ncols=n)


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return Matrix([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)


def from_columns(cols: Sequence[Sequence], nrows: int | None = None) -> Matrix:
    """The matrix with columns `cols`; `nrows` gives the height of no columns."""
    cols = [vector(c) for c in cols]
    return Matrix(list(zip(*cols)) if cols else [()] * (nrows or 0), ncols=len(cols))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matrix product")
    cols = [[r[j] for r in b.rows] for j in range(b.ncols)]
    return Matrix([[dot(r, c) for c in cols] for r in a.rows], ncols=b.ncols)


def apply(m: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    """m @ v for a column vector v."""
    if len(v) != m.ncols:
        raise ValueError("vector length mismatch")
    return tuple(dot(r, v) for r in m.rows)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
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
    rows = [_primitive(r) for r in m.rows]
    nrows = m.nrows
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
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
    reduced += [[zero] * m.ncols for _ in range(nrows - r)]
    return Matrix(reduced, ncols=m.ncols), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def right_kernel(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of {v : m @ v = 0}, one vector per free column."""
    red, pivots = rref(m)
    basis = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """A solution x of m @ x = b with free variables set to 0, or None."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side length mismatch")
    red, pivots = rref(Matrix([r + (x,) for r, x in zip(m.rows, vector(b))], ncols=m.ncols + 1))
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = red.rows[i][m.ncols]
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
    n = m.nrows
    red, pivots = rref(Matrix([r + e for r, e in zip(m.rows, identity(n).rows)], ncols=2 * n))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return Matrix([r[n:] for r in red.rows], ncols=n)


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
        d = matmul(matmul(self.left, original), self.right)
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


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix (pivot rule of `_smith_core`)."""
    if any(x.denominator != 1 for r in m.rows for x in r):
        raise ValueError("smith_normal_form requires integer entries")
    core = _smith_core([[int(x) for x in row] for row in m.rows], m.ncols)
    return SmithDecomposition(
        Matrix(core.left, ncols=m.nrows), core.diag, Matrix(core.right, ncols=m.ncols)
    )


def torsion_invariants(m: Matrix) -> tuple[int, ...]:
    """Smith invariants exceeding 1: the torsion of coker(m) between free lattices."""
    return tuple(d for d in smith_normal_form(m).diag if d > 1)


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


# -- linear matroids and lattices of flats --------------------------------


class LinearMatroid:
    """Matroid of a multiset of rational vectors.

    Parallel and repeated vectors are kept as distinct elements; the rank
    of a subset is the matrix rank of the corresponding vectors.
    """

    def __init__(self, vectors: Iterable[Sequence]):
        vecs = tuple(vector(v) for v in vectors)
        if vecs:
            width = len(vecs[0])
            if any(len(v) != width for v in vecs):
                raise ValueError("vectors of unequal length")
            self.ambient_dim = width
        else:
            self.ambient_dim = 0
        self.vectors = vecs
        self._rank_cache: dict[frozenset[int], int] = {}
        self._circuits: tuple[frozenset[int], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def ground(self) -> range:
        return range(self.size)

    def rank_of(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        cached = self._rank_cache.get(key)
        if cached is None:
            rows = [list(self.vectors[i]) for i in sorted(key)]
            cached = rank(Matrix(rows, ncols=self.ambient_dim)) if rows else 0
            self._rank_cache[key] = cached
        return cached

    @property
    def full_rank(self) -> int:
        return self.rank_of(self.ground)

    def is_independent(self, subset: Iterable[int]) -> bool:
        subset = frozenset(subset)
        return self.rank_of(subset) == len(subset)

    def closure(self, subset: Iterable[int]) -> frozenset[int]:
        subset = frozenset(subset)
        r = self.rank_of(subset)
        return frozenset(
            e for e in self.ground
            if e in subset or self.rank_of(subset | {e}) == r
        )

    def circuits(self) -> tuple[frozenset[int], ...]:
        """Minimal dependent subsets; circuit size is at most rank + 1."""
        if self._circuits is None:
            found: list[frozenset[int]] = []
            for size in range(1, self.full_rank + 2):
                for combo in combinations(self.ground, size):
                    s = frozenset(combo)
                    if any(c <= s for c in found):
                        continue
                    if not self.is_independent(s):
                        found.append(s)
            self._circuits = tuple(found)
        return self._circuits


def nbc_basis(
    matroid: LinearMatroid, order: Sequence[int] | None = None
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """No-broken-circuit subsets graded by size.

    They count the Moebius values of the lattice of flats without building
    it: there are |w_k| of size k, and |mu(bottom, X)| whose support
    closes to the flat X.  `order` is a precedence list of element ids
    (default: input order); a broken circuit is a circuit minus its first
    element in that order.  Monomials are returned as id tuples sorted
    ascending by id.
    """
    order = tuple(order) if order is not None else tuple(matroid.ground)
    if sorted(order) != list(matroid.ground):
        raise ValueError("order must be a permutation of the ground set")
    position = {e: i for i, e in enumerate(order)}
    broken = [
        frozenset(c) - {min(c, key=position.__getitem__)}
        for c in matroid.circuits()
    ]
    out: dict[int, list[tuple[int, ...]]] = {0: [()]}

    def extend(current: tuple[int, ...], current_set: frozenset[int]):
        start = current[-1] + 1 if current else 0
        for e in range(start, matroid.size):
            cand = current_set | {e}
            if not matroid.is_independent(cand):
                continue
            if any(b <= cand for b in broken):
                continue
            mono = current + (e,)
            out.setdefault(len(mono), []).append(mono)
            extend(mono, cand)

    extend((), frozenset())
    return {k: tuple(sorted(v)) for k, v in out.items()}



class FlatLattice:
    """All flats of a matroid with ranks, covers and Moebius values."""

    def __init__(self, matroid: LinearMatroid):
        self.matroid = matroid
        bottom = matroid.closure(())
        flats = {bottom}
        frontier = [bottom]
        while frontier:
            new = []
            for f in frontier:
                for e in matroid.ground:
                    if e in f:
                        continue
                    g = matroid.closure(f | {e})
                    if g not in flats:
                        flats.add(g)
                        new.append(g)
            frontier = new
        self.flats = tuple(sorted(flats, key=lambda f: (matroid.rank_of(f), sorted(f))))
        self.rank_of = {f: matroid.rank_of(f) for f in self.flats}
        self.bottom = bottom
        self.top = self.flats[-1] if self.flats else bottom
        self.mobius = self._mobius()
        self.covers = tuple(
            (f, g)
            for f in self.flats
            for g in self.flats
            if f < g and self.rank_of[g] == self.rank_of[f] + 1
        )

    @property
    def rank(self) -> int:
        return self.rank_of[self.top]

    def _mobius(self) -> dict[frozenset[int], int]:
        mob: dict[frozenset[int], int] = {}
        for f in self.flats:  # sorted by rank, so all g < f come first
            if f == self.bottom:
                mob[f] = 1
            else:
                mob[f] = -sum(mob[g] for g in self.flats if g < f)
        return mob


def local_component_dims(lattice: FlatLattice) -> dict[frozenset[int], int]:
    """Dimension of the local component at each flat: |mu(bottom, flat)|."""
    return {f: abs(m) for f, m in lattice.mobius.items()}


def characteristic_polynomial(lattice: FlatLattice) -> tuple[int, ...]:
    """Coefficients, ascending in t, of sum_X mu(X) t^(rank - rank X)."""
    r = lattice.rank
    coeffs = [0] * (r + 1)
    for f in lattice.flats:
        coeffs[r - lattice.rank_of[f]] += lattice.mobius[f]
    return tuple(coeffs)


def whitney_numbers(lattice: FlatLattice) -> tuple[int, ...]:
    """|w_k| for k = 0..rank: unsigned sums of mu over flats of rank k."""
    r = lattice.rank
    out = [0] * (r + 1)
    for f in lattice.flats:
        out[lattice.rank_of[f]] += abs(lattice.mobius[f])
    return tuple(out)


# -- intersection posets as objects ------------------------------------------


def mobius_by_down_sets(size: int, covers: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """mu(bottom, x) for the elements 0..size-1 of a poset with a bottom.

    `covers` holds the pairs (i, j) with j covering i, and the elements
    are numbered along a linear extension (i < j whenever i is below j),
    as a sort by rank gives.  The strict down-set of x is the union of
    its lower covers and their down-sets, held as an int with bit y set
    for each y in it, and mu(bottom, x) is minus the sum of mu over that
    down-set: the sum over the values v of mu so far of v times the
    number of elements with that value in the down-set.  It holds for
    any poset, with no lattice structure assumed.
    """
    lower: list[list[int]] = [[] for _ in range(size)]
    for i, j in covers:
        lower[j].append(i)
    below: list[int] = []
    mobius: list[int] = []
    having: dict[int, int] = {}  # v -> the elements y with mu(bottom, y) = v, as bits
    for x in range(size):
        down = 0
        for y in lower[x]:
            down |= below[y] | (1 << y)
        below.append(down)
        mu = -sum(v * (down & ys).bit_count() for v, ys in having.items()) if down else 1
        mobius.append(mu)
        having[mu] = having.get(mu, 0) | (1 << x)
    return tuple(mobius)


class Flat(NamedTuple):
    """A flat: its rational echelon rows [A | b], its codimension and
    dimension, the hyperplanes through it, and its name."""

    key: tuple[tuple[Fraction, ...], ...]
    codim: int
    dim: int
    hyperplanes: frozenset[int]
    name: str


class AffinePoset(NamedTuple):
    """Flats in order, the covers as index pairs (i, j) with flats[j] a
    maximal proper subspace of flats[i], and mu(ambient, flats[i])."""

    flats: tuple[Flat, ...]
    covers: tuple[tuple[int, int], ...]
    mobius: tuple[int, ...]


def affine_poset(ambient_dim: int, hyperplanes: Sequence, max_flats: int | None = None) -> AffinePoset:
    """The flats of `flat_search` in the order of `flat_order`, each integer
    row divided by its pivot and each flat named as `poset` names it, with
    the hyperplanes through it, found by rank: [a | c] adds nothing to the
    rank of the flat's rows exactly when {a.x = c} contains the flat.  The
    covers and mu are `flat_order`'s."""

    def divided(row):
        pivot = next(filter(None, row))
        return tuple(Fraction(x, pivot) for x in row)

    equations = [[*normal, c] for normal, c in hyperplanes]
    keys, covers, mobius = flat_order(flat_search(ambient_dim, hyperplanes, max_flats))
    text: dict = {}
    flats = []
    for key in keys:
        rows = list(map(divided, key))
        through = frozenset(j for j, eq in enumerate(equations) if rank(Matrix([*rows, eq])) == len(rows))
        flats.append(Flat(tuple(rows), len(key), ambient_dim - len(key), through, _flat_name(key, text)))
    return AffinePoset(tuple(flats), tuple(covers), tuple(mobius))


def poset_characteristic_polynomial(poset: AffinePoset) -> tuple[int, ...]:
    """Coefficients, ascending in t, of sum_X mu(X) t^(dim X)."""
    coeffs = [0] * (poset.flats[0].dim + 1)  # flats[0] is the ambient space
    for f, mu in zip(poset.flats, poset.mobius):
        coeffs[f.dim] += mu
    return tuple(coeffs)


def poset_whitney_numbers(poset: AffinePoset) -> tuple[int, ...]:
    """|w_q| by codimension q: unsigned Moebius sums over codim-q flats."""
    out = [0] * (poset.flats[-1].codim + 1)  # the flats go up in codimension
    for f, mu in zip(poset.flats, poset.mobius):
        out[f.codim] += abs(mu)
    return tuple(out)


# -- toric layers by whole-system solve -----------------------------------


@dataclass(frozen=True)
class Layer:
    """A translated subtorus component, in canonical form.

    `span` is the saturated character lattice in Hermite basis; `phases`
    gives the value of the phase homomorphism on each basis row.  Two
    layers are equal iff these canonical fields are identical.
    """

    ambient_dim: int
    span: tuple[tuple[int, ...], ...]
    phases: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.span) != len(self.phases):
            raise ValueError("one phase per span row required")

    @property
    def codim(self) -> int:
        return len(self.span)

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.codim

    @cached_property
    def key(self) -> str:
        return _layer_name(self.span, [(t.numerator, t.denominator) for t in self.phases])

    @property
    def sort_key(self):
        return (self.codim, self.span, self.phases)

    def equations(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return list(zip(self.span, self.phases))


def layers_from_equations(
    n: int,
    equations: Iterable[tuple[Sequence[int], Fraction]],
    max_layers: int | None = None,
) -> list[Layer]:
    """All connected components of the solution set of z^chi = e^{2 pi i t}.

    Components correspond to the extensions of the phase map from the
    lattice generated by the chi's to its saturation; their number is the
    index, the product of the Smith invariants.  Inconsistent phases give
    the empty list; no equations, or only zero exponent rows with phase
    0, give the ambient layer.  More than `max_layers` components raise
    ValueError before any of them is built.

    The work is integer-only.  With L C R = diag(d_1, ..., d_r, 0, ...)
    the Smith form of the exponent matrix C, the rows w_1..w_r of R^-1
    span the saturation, and R^-1 R = I makes (h R)[:r] the w-coordinates
    c of a Hermite row h (and (h R)[r:] zero).  Phases share one
    denominator: with D the lcm of the phase denominators and a = D t,
    the system is consistent iff (L a)_i = 0 mod D for every i >= r, and
    the component k in prod_i [0, d_i) gives h the phase
    sum_i c_i ((L a)_i + k_i D) (d_r / d_i) mod D d_r, over D d_r.
    """
    eqs = [(tuple(int(e) for e in chi), mod1(t)) for chi, t in equations]
    for chi, _ in eqs:
        if len(chi) != n:
            raise ValueError("exponent vector of wrong length")
    if not eqs:
        return [Layer(n, (), ())]
    snf = _smith_core([chi for chi, _ in eqs], n)
    diag = [d for d in snf.diag if d]
    r = len(diag)
    denom = math.lcm(*(t.denominator for _, t in eqs))
    a = [t.numerator * (denom // t.denominator) for _, t in eqs]
    la = [sum(x * y for x, y in zip(row, a)) for row in snf.left]
    # rows of `left` beyond the rank span all integer relations among the chi's
    if any(la[i] % denom for i in range(r, len(eqs))):
        return []
    if max_layers is not None and math.prod(diag) > max_layers:
        raise ValueError(
            "an intersection has %d components, more than the limit of %d" % (math.prod(diag), max_layers)
        )
    if r == 0:  # only zero exponent rows, all with phase 0
        return [Layer(n, (), ())]
    span = hermite_basis(snf.right_inverse[:r])
    cols = list(zip(*snf.right))
    coords = []
    for h in span:
        hr = [sum(x * y for x, y in zip(h, col)) for col in cols]
        assert not any(hr[r:]), "Hermite row outside the saturation"
        coords.append(hr[:r])
    # the phase numerator of span row j at component k is base_j + step_j . k
    modulus = denom * diag[-1]
    scale = [diag[-1] // d for d in diag]
    base = [sum(c * x * s for c, x, s in zip(crow, la, scale)) for crow in coords]
    step = [[c * denom * s for c, s in zip(crow, scale)] for crow in coords]
    numerators = sorted(
        tuple((b + sum(s * ki for s, ki in zip(srow, k))) % modulus for b, srow in zip(base, step))
        for k in product(*(range(d) for d in diag))
    )
    return [Layer(n, span, tuple(Fraction(x, modulus) for x in num)) for num in numerators]


class LayerPoset(NamedTuple):
    """Layers in order, the covers as index pairs (i, j) with layers[j] a
    maximal proper sublayer of layers[i], and mu(ambient, layers[i])."""

    layers: tuple[Layer, ...]
    covers: tuple[tuple[int, int], ...]
    mobius: tuple[int, ...]


def layer_poset(n: int, arrangement: Sequence[ToricHypersurface], max_layers: int | None = None) -> LayerPoset:
    """The layers of `layer_search` as `Layer`s with `Fraction` phases, with
    their covers and the search's mu."""
    keys, covers, mobius = layer_order(layer_search(n, arrangement, max_layers))
    layers = tuple(Layer(n, span, tuple(Fraction(p, q) for p, q in phases)) for span, phases in keys)
    return LayerPoset(layers, tuple(covers), tuple(mobius))


# -- toric layers ----------------------------------------------------------


def phase_of(layer: Layer, chi: Sequence[int]) -> Fraction | None:
    """Value of the layer's phase homomorphism on chi, or None when chi is
    outside the span lattice."""
    coords = lattice_coordinates(layer.span, chi)
    if coords is None:
        return None
    total = Fraction(0)
    for c, t in zip(coords, layer.phases):
        total += c * t
    return mod1(total)


def layer_contains(outer: Layer, inner: Layer) -> bool:
    """True when inner is a subvariety of outer.

    Requires span(outer) inside span(inner) as lattices with matching
    phase values on span(outer).
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("layers in different ambient tori")
    for row, t in zip(outer.span, outer.phases):
        got = phase_of(inner, row)
        if got is None or got != t:
            return False
    return True


def local_subarrangement(
    arrangement: Sequence[ToricHypersurface], layer: Layer
) -> list[ToricHypersurface]:
    """Hypersurfaces with a connected component containing the layer.

    Selected by chi in the span lattice with matching phase; parallel and
    repeated characters are kept, with original labels.
    """
    out = []
    for h in arrangement:
        got = phase_of(layer, h.exponents)
        if got is not None and got == h.phase:
            out.append(h)
    return out


def _reduce_mod_lattice(basis, v):
    work = [int(x) for x in v]
    for row in basis:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        q = work[p] // row[p]
        if q:
            work = [x - q * y for x, y in zip(work, row)]
    return tuple(work)


def brute_force_components(n, equations, grid):
    """Count connected components by enumerating torsion points.

    Solutions on the (1/grid)-grid are grouped by the class of C.w - t in
    the lattice generated by the columns of the exponent matrix C; two
    grid solutions lie in the same component exactly when those classes
    agree.
    """
    chis = [tuple(chi) for chi, _ in equations]
    ts = [mod1(t) for _, t in equations]
    col_lattice = hermite_basis([[chis[i][j] for i in range(len(chis))] for j in range(n)])
    signatures = set()
    for point in product(range(grid), repeat=n):
        w = [Fraction(a, grid) for a in point]
        residues = []
        for chi, t in zip(chis, ts):
            val = sum(Fraction(c) * x for c, x in zip(chi, w)) - t
            if val.denominator != 1:
                residues = None
                break
            residues.append(int(val))
        if residues is None:
            continue
        signatures.add(_reduce_mod_lattice(col_lattice, residues))
    return len(signatures)


# -- the model of a compactification datum -------------------------------------


def datum_block(cd: CompactificationDatum, gysin: bool, i_key, x: int, p: int) -> Matrix:
    """Block p of the Gysin map (I, x) into H^{p+2}(D_{I-x}) if `gysin`,
    else of the restriction step (I, x) into H^p(D_{I+x}), as the datum
    holds it; the zero matrix where either space has no classes.  A
    missing block raises DatumError("missing restriction for I=.., j=..,
    degree ..") ("Gysin map for I=.., i=.., degree .." for a Gysin block),
    and one of another shape DatumError("<its name> has shape S, expected
    T"), T the (target, source) dimensions."""
    i_key = tuple(sorted(i_key))
    tgt_key = tuple(y for y in i_key if y != x) if gysin else tuple(sorted(i_key + (x,)))
    src = cd.cohomology.get(i_key, {}).get(p, 0)
    tgt = cd.cohomology.get(tgt_key, {}).get(p + 2 if gysin else p, 0)
    if src == 0 or tgt == 0:
        return zero_matrix(tgt, src)
    name = ("Gysin map for I=%r, i=%d, degree %d" if gysin else "restriction for I=%r, j=%d, degree %d") % (i_key, x, p)
    block = (cd.gysins if gysin else cd.restrictions).get((i_key, x), {}).get(p)
    if block is None:
        raise DatumError("missing " + name)
    if block.shape != (tgt, src):
        raise DatumError("%s has shape %r, expected %r" % (name, block.shape, (tgt, src)))
    return block


def degrees(cd: CompactificationDatum, i_set) -> tuple[int, ...]:
    """The degrees, ascending, in which D_I has classes."""
    return tuple(sorted(cd.cohomology.get(tuple(sorted(i_set)), {})))


def compose_steps(cd: CompactificationDatum, i_key, js, p) -> Matrix:
    """The one-step restrictions from D_I along `js`, composed in that order
    as dense matrices; the identity when `js` is empty."""
    if not js:
        return identity(cd.cohomology.get(tuple(i_key), {}).get(p, 0))
    cur, mat = tuple(i_key), None
    for j in js:
        nxt = tuple(sorted(cur + (j,)))
        step = datum_block(cd, False, cur, j, p)
        mat = step if mat is None else matmul(step, mat)
        cur = nxt
    return mat


def restriction(cd: CompactificationDatum, i_set, j_set, p) -> Matrix:
    """Composite restriction H^p(D_I) -> H^p(D_J) along sorted steps."""
    i_key, j_key = tuple(sorted(i_set)), tuple(sorted(j_set))
    return compose_steps(cd, i_key, sorted(set(j_key) - set(i_key)), p)


def gysin(cd: CompactificationDatum, i_set, i, p) -> Matrix:
    """The Gysin block H^p(D_I) -> H^{p+2}(D_{I-i}) for i in I."""
    return datum_block(cd, True, i_set, i, p)


def cup_entries(cd: CompactificationDatum, i_set, p, p2) -> dict:
    """The cup constants {(a, b): {c: value}} of H^p x H^p2 on D_I."""
    return cd.cups.get(tuple(sorted(i_set)), {}).get((p, p2), {})


def validate(cd: CompactificationDatum) -> list[str]:
    """Per stratum I: each missing or misshapen step from I, by (j, p);
    then functoriality, both orders of every (I, j1, j2, p) composed
    densely, skipping a pair that needs a faulty step; then the cup axioms
    of D_I."""
    issues = []
    cohomology = cd.cohomology
    for i_key in cd.subsets():
        remaining = [j for j in range(1, cd.components + 1) if j not in i_key]
        for j in remaining:
            for p in sorted(cohomology[i_key]):
                try:
                    datum_block(cd, False, i_key, j, p)
                except DatumError as err:
                    issues.append(str(err))
        for a_pos in range(len(remaining)):
            for b_pos in range(a_pos + 1, len(remaining)):
                j1, j2 = remaining[a_pos], remaining[b_pos]
                for p in sorted(cohomology[i_key]):
                    try:
                        via1 = compose_steps(cd, i_key, (j1, j2), p)
                        via2 = compose_steps(cd, i_key, (j2, j1), p)
                    except DatumError:
                        continue
                    if via1 != via2:
                        issues.append(
                            "restrictions from I=%r through %d and %d do not commute at degree %d"
                            % (i_key, j1, j2, p)
                        )
        issues.extend(cd._check_cup(i_key))
    return issues


def build_model(cd: CompactificationDatum) -> BigradedModel:
    """The model of the complement, assembled one basis pair at a time: each
    Gysin entry is added into a dense column, and each disjoint pair of basis
    vectors restricts both factors densely to the union and cups there."""
    issues = validate(cd)
    if issues:
        raise DatumError("; ".join(issues))
    spaces: dict = {}
    for i_key in cd.subsets():
        for p in degrees(cd, i_key):
            labels = spaces.setdefault((p + len(i_key), p + 2 * len(i_key)), [])
            for j in range(cd.dim(i_key, p)):
                labels.append((i_key, p, j))
    index = {kq: {lab: i for i, lab in enumerate(labels)} for kq, labels in spaces.items()}

    diff = {}
    for kq, labels in spaces.items():
        k, q = kq
        target = spaces.get((k + 1, q))
        if not target:
            continue
        columns = []
        for (i_key, p, j) in labels:
            col = [Fraction(0)] * len(target)
            for i in i_key:
                rest = tuple(x for x in i_key if x != i)
                gys = gysin(cd, i_key, i, p)
                if gys.nrows == 0:
                    continue
                sign = (-1) ** q * shuffle_sign((i,), rest)
                for t in range(gys.nrows):
                    v = gys.rows[t][j]
                    if v:
                        col[index[(k + 1, q)][(rest, p + 2, t)]] += sign * v
            columns.append(col)
        diff[kq] = from_columns(columns, nrows=len(target))

    products: dict = {}
    for kq1, labels1 in spaces.items():
        for kq2, labels2 in spaces.items():
            k3, q3 = kq1[0] + kq2[0], kq1[1] + kq2[1]
            if not spaces.get((k3, q3)):
                continue
            table: dict = {}
            for a, (i1, p1, j1) in enumerate(labels1):
                for b, (i2, p2, j2) in enumerate(labels2):
                    if set(i1) & set(i2):
                        continue
                    union = tuple(sorted(i1 + i2))
                    sign = (-1) ** (len(i1) * kq2[1]) * shuffle_sign(i1, i2)
                    res1 = restriction(cd, i1, union, p1)
                    res2 = restriction(cd, i2, union, p2)
                    vec: dict = {}
                    for a2 in range(res1.nrows):
                        ca = res1.rows[a2][j1]
                        if ca == 0:
                            continue
                        for b2 in range(res2.nrows):
                            cb = res2.rows[b2][j2]
                            if cb == 0:
                                continue
                            for c, v in cup_entries(cd, union, p1, p2).get((a2, b2), {}).items():
                                pos = index[(k3, q3)][(union, p1 + p2, c)]
                                vec[pos] = vec.get(pos, Fraction(0)) + sign * ca * cb * v
                    vec = {c: v for c, v in vec.items() if v}
                    if vec:
                        table[(a, b)] = vec
            if table:
                products[(kq1, kq2)] = table
    return BigradedModel(spaces, diff, products)


def _rendered(cols, scale: int, nrows: int, ncols: int) -> Matrix:
    """The `nrows` x `ncols` matrix whose sparse integer columns over `scale`
    are `cols`, or the zero matrix if `cols` is None."""
    if cols is None:
        return zero_matrix(nrows, ncols)
    return Matrix([[Fraction(col.get(i, 0), scale) for col in cols] for i in range(nrows)], ncols=ncols)


def differential(model: BigradedModel, kq) -> Matrix:
    """d on M^k_q as a dense matrix, zero where the model stores none."""
    return _rendered(model.d.get(kq), model.scale, model.dim((kq[0] + 1, kq[1])), model.dim(kq))


def differentials(model: BigradedModel) -> dict:
    """Each d the model stores, as a dense matrix, in the model's order."""
    return {kq: differential(model, kq) for kq in model.d}


def block(f, kq) -> Matrix:
    """The block of the morphism `f` at `kq` as a dense matrix, zero where
    `f` stores none."""
    return _rendered(f.cols.get(kq), f.scale, f.target.dim(kq), f.source.dim(kq))


def blocks(f) -> dict:
    """Each block the morphism `f` stores, as a dense matrix, in its order."""
    return {kq: block(f, kq) for kq in f.cols}


def _applied(mat: Matrix, vec) -> dict:
    """The dense `mat` times the sparse rational `vec`, as a sparse vector
    without zeros; a nonzero entry of `vec` outside the columns raises."""
    if any(v and not 0 <= j < mat.ncols for j, v in vec.items()):
        raise IndexError("vector entry outside the space")
    return {i: v for i, v in enumerate(apply(mat, [vec.get(j, 0) for j in range(mat.ncols)])) if v}


def diff_vec(model: BigradedModel, kq, vec) -> dict:
    """d applied to the sparse vector `vec` of M^k_q, densely."""
    return _applied(differential(model, kq), vec)


def image(f, kq, vec) -> dict:
    """The morphism `f` applied to the sparse vector `vec` at `kq`, densely."""
    return _applied(block(f, kq), vec)


def mult_basis(model: BigradedModel, kq1, a, kq2, b) -> dict:
    """The stored product of basis vector a of kq1 and b of kq2, each entry
    the stored integer over the model's scale; read from `tables`, as
    `products` renders every table on each read."""
    vec = model.tables.get((kq1, kq2), {}).get((a, b), {})
    return {c: Fraction(v, model.scale) for c, v in vec.items()}


def mult_vec(model: BigradedModel, kq1, v1, kq2, v2) -> dict:
    """The product of the sparse vectors v1 of kq1 and v2 of kq2, one basis
    pair at a time, zeros dropped."""
    out: dict = {}
    for a, ca in v1.items():
        for b, cb in v2.items():
            if ca and cb:
                for c, v in mult_basis(model, kq1, a, kq2, b).items():
                    out[c] = out.get(c, Fraction(0)) + ca * cb * v
    return {c: v for c, v in out.items() if v}


def kernel_inclusion_blocks(model: BigradedModel) -> dict:
    """The blocks of the kernel witness's inclusion K^k -> M^k_{2k}: the
    basis of ker d at each (k, 2k) where it is not zero, one column per free
    column of the rref of d, as `right_kernel` gives it."""
    blocks = {}
    for k in range(model.max_degree() + 1):
        kq = (k, 2 * k)
        basis = right_kernel(differential(model, kq)) if model.dim(kq) else ()
        if basis:
            blocks[kq] = from_columns(basis)
    return blocks


def cokernel_projection_blocks(model: BigradedModel) -> dict:
    """The blocks of the cokernel witness's projection M^k_k -> C^k: the
    columns of d into (k, k), then the basis of ker d there, each kept when
    independent of those kept before; column j holds the coordinates of
    basis vector j on the kept columns, solved densely, without those on
    the kept boundaries.  Only the (k, k) with classes have a block."""
    blocks = {}
    for k in range(model.max_degree() + 1):
        kq = (k, k)
        n = model.dim(kq)
        if not n:
            continue
        boundaries = [list(c) for c in zip(*differential(model, (k - 1, k)).rows)]
        chosen, kept = [], 0
        for i, v in enumerate(boundaries + [list(c) for c in right_kernel(differential(model, kq))]):
            if rank(from_columns(chosen + [v], nrows=n)) == len(chosen) + 1:
                chosen.append(v)
                kept += i < len(boundaries)
        if len(chosen) > kept:
            solver = from_columns(chosen, nrows=n)
            cols = [solve(solver, [Fraction(i == j) for i in range(n)])[kept:] for j in range(n)]
            blocks[kq] = from_columns(cols, nrows=len(chosen) - kept)
    return blocks
