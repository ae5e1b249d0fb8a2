"""Linear matroids, no-broken-circuit bases, affine intersection posets.

A linear matroid is a list of rational vectors; the rank of a subset is
the rank of its vectors, and closures and circuits follow from ranks.
No-broken-circuit sets count the Moebius values of the lattice of flats
without building the lattice: there are |w_k| of size k, and
|mu(bottom, X)| whose support closes to the flat X.

Affine intersection posets of hyperplane arrangements live here too.
Their search (`flat_search`) is integer-only.  Each flat is keyed by its
reduced echelon rows scaled to primitive integer rows, and identified by
the bitmask of the hyperplanes through it, as a flat is their
intersection.  A flat X carries the restriction of the arrangement to X
(Orlik-Terao 1992, 1.3): the rows of the hyperplanes not through X
reduced against X's rows, one row per cover of X, so the covers are read
off it.  A new flat costs one fraction-free step on X's key and one on
each of X's rows that is nonzero in its pivot column.
`mobius_from_covers`, shared with the toric layer poset, turns the
covers into mu(ambient, X).  Only `affine_intersection_poset`, for
`poset` and the tests, makes the keys `AffineFlat`s with `Fraction` rows
and names; the E2 route reads the keys.  The interval below X is the
lattice of flats of the central arrangement of normals through X, so
|mu(ambient, X)| is the local dimension at X without building that
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from stratiform.exactalg import Matrix, _primitive, vector


class LinearMatroid:
    """Matroid of a multiset of rational vectors.

    Parallel and repeated vectors are kept as distinct elements; the rank
    of a subset is the matrix rank of the corresponding vectors.
    """

    def __init__(self, vectors: Iterable[Sequence], labels: Sequence[int] | None = None):
        vecs = tuple(vector(v) for v in vectors)
        if vecs:
            width = len(vecs[0])
            if any(len(v) != width for v in vecs):
                raise ValueError("vectors of unequal length")
            self.ambient_dim = width
        else:
            self.ambient_dim = 0
        self.vectors = vecs
        self.labels = tuple(labels) if labels is not None else tuple(range(len(vecs)))
        if len(self.labels) != len(vecs):
            raise ValueError("one label per vector required")
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
            cached = Matrix(rows, ncols=self.ambient_dim).rank() if rows else 0
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


# -- no-broken-circuit bases ---------------------------------------------


def nbc_basis(
    matroid: LinearMatroid, order: Sequence[int] | None = None
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """No-broken-circuit subsets graded by size.

    `order` is a precedence list of element ids (default: input order);
    a broken circuit is a circuit minus its first element in that order.
    Monomials are returned as id tuples sorted ascending by id.
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


# -- affine intersection posets ------------------------------------------


@dataclass(frozen=True)
class AffineFlat:
    """A nonempty intersection of hyperplanes, canonically keyed.

    `key` is the reduced row echelon form of the augmented system [A | b]
    cutting the flat out; `hyperplanes` lists the input hyperplanes that
    contain it.  `affine_intersection_poset` searches and orders on
    integer keys (each echelon row scaled to a primitive integer row with
    a positive pivot) and divides each distinct row by its pivot once,
    when it builds the flats.
    """

    key: tuple[tuple[Fraction, ...], ...]
    codim: int
    dim: int
    hyperplanes: frozenset[int]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        """The name joins the texts of the key's rows with ";", and is
        "ambient" for the empty key.  A poset passes it in, built from the
        text of each distinct row, formatted once."""
        if not self.name:
            object.__setattr__(self, "name", ";".join(_row_text(row) for row in self.key) or "ambient")


def _row_text(row: Sequence[Fraction]) -> str:
    """An echelon row [a | c] of the augmented system as "(a1,...,an|c)"."""
    return "(%s|%s)" % (",".join(str(x) for x in row[:-1]), row[-1])


class AffinePoset:
    """Intersection poset of an affine hyperplane arrangement.

    Ordered by reverse inclusion with the ambient space at the bottom.
    Flats are sorted by (codimension, key); `covers` holds index pairs
    (i, j) with flats[j] a maximal proper subspace of flats[i], and
    `mobius[i]` is mu(ambient, flats[i]).  Every stratum is an affine
    space: cohomology is one dimension in degree 0, weight 0.
    """

    def __init__(self, ambient_dim: int, flats: Sequence[AffineFlat],
                 covers: Sequence[tuple[int, int]]):
        """`flats` in their final order; `covers` as sorted index pairs."""
        self.ambient_dim = ambient_dim
        self.flats = tuple(flats)
        self.covers = tuple(covers)

    @cached_property
    def mobius(self) -> tuple[int, ...]:
        """Computed on first read: the `poset` command never reads it."""
        return mobius_from_covers(len(self.flats), self.covers)

    def leq(self, i: int, j: int) -> bool:
        """flats[i] <= flats[j]: the stratum of j is inside the stratum of i."""
        return self.flats[i].hyperplanes <= self.flats[j].hyperplanes

    @property
    def max_codim(self) -> int:
        return max((f.codim for f in self.flats), default=0)


def mobius_from_covers(size: int, covers: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """mu(bottom, x) for the elements 0..size-1 of a poset with a bottom.

    `covers` holds the pairs (i, j) with j covering i, and the elements
    are numbered along a linear extension (i < j whenever i is below j),
    as a sort by rank gives.  The strict down-set of x is the union of
    its lower covers and their down-sets, held as an int with bit y set
    for each y in it, and mu(bottom, x) is minus the sum of mu over that
    down-set: the sum over the values v of mu so far of v times the
    number of elements with that value in the down-set.
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


def _clear(target: Sequence[int], row: Sequence[int], p: int) -> tuple[int, ...]:
    """row[p] * target - target[p] * row, made primitive with its first
    nonzero entry positive: fraction-free elimination of column p from
    `target`, for row[p] > 0 and `target` not a multiple of `row`.
    """
    a, f = row[p], target[p]
    out = [a * x - f * y for x, y in zip(target, row)]
    content = gcd(*out)
    if next(filter(None, out)) < 0:
        content = -content
    return tuple(x // content for x in out) if content != 1 else tuple(out)


def _meet(key, pivots, rest: tuple[int, ...], q: int):
    """Integer echelon key and pivots of X cut by one more equation.

    `rest` is the equation reduced against X's rows `key`, a primitive
    row with its first nonzero entry, positive, in column q < n.  Its
    pivot is cleared from X's rows, and it goes in by pivot.
    """
    rows = [(p, _clear(r, rest, q) if r[q] else r) for p, r in zip(pivots, key)]
    rows.append((q, rest))
    rows.sort()
    return tuple(r for _, r in rows), tuple(p for p, _ in rows)


def flat_search(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_flats: int | None = None
) -> tuple[list[tuple], list[int], list[tuple[int, int]]]:
    """Nonempty intersections of affine hyperplanes {a.x = c} as integer keys.

    Hyperplanes are (normal, constant) pairs with rational entries and a
    nonzero normal.  A flat's key is its reduced echelon rows, each a
    primitive integer row with a positive pivot, which is in bijection
    with the rational echelon form of the system cutting it out.
    Returns the keys in the order of (codimension, rational echelon
    form), in the same order the hyperplanes through each flat as an int
    with bit j set for hyperplane j, and the covers as sorted index pairs
    (i, j), flat j a maximal proper subspace of flat i.  Finding more
    than `max_flats` flats raises ValueError.

    The covers of X are the nonempty X cut by H, H not through X.  Each
    flat of the BFS frontier carries the rows of the hyperplanes not
    through it, reduced against its key (zero in its pivot columns,
    primitive, first nonzero entry positive), one row for all the
    hyperplanes that share it.  Two hyperplanes cut X in the same cover
    exactly when their rows on X are equal, so each row gives one cover,
    through X's hyperplanes and the row's.  A row whose only nonzero
    entry is the constant misses X and every flat inside it, and is
    dropped.  A new cover Y = X cut by H gets its key from one `_meet`,
    and its rows from X's by one `_clear` against H's row where they are
    nonzero in its pivot column.
    """
    n = ambient_dim
    empty = (0,) * n + (1,)  # the row of a hyperplane parallel to the flat
    rows: dict[tuple, int] = {}
    for j, (normal, c) in enumerate(hyperplanes):
        row = [Fraction(x) for x in normal]
        if len(row) != n:
            raise ValueError("normal of wrong length")
        if all(x == 0 for x in row):
            raise ValueError("hyperplane needs a nonzero normal")
        row = _primitive(row + [Fraction(c)])
        if next(filter(None, row)) < 0:
            row = [-x for x in row]
        row = tuple(row)
        rows[row] = rows.get(row, 0) | 1 << j

    keys: list[tuple] = [()]
    masks = [0]
    index = {0: 0}  # mask -> position in keys
    covers: list[tuple[int, int]] = []
    frontier = [((), (), 0, rows)]
    while frontier:
        new = []
        for key, pivots, mask, rows in frontier:
            i = index[mask]
            for row, bits in rows.items():
                cover_mask = mask | bits
                k = index.get(cover_mask)
                if k is None:
                    if max_flats is not None and len(keys) >= max_flats:
                        raise ValueError("the arrangement has more than %d flats" % max_flats)
                    q = next(c for c, x in enumerate(row) if x)
                    cover, cover_pivots = _meet(key, pivots, row, q)
                    cover_rows: dict[tuple, int] = {}
                    for other, other_bits in rows.items():
                        if other is row:
                            continue
                        if other[q]:
                            other = _clear(other, row, q)
                            if other == empty:
                                continue
                        cover_rows[other] = cover_rows.get(other, 0) | other_bits
                    k = index[cover_mask] = len(keys)
                    keys.append(cover)
                    masks.append(cover_mask)
                    new.append((cover, cover_pivots, cover_mask, cover_rows))
                covers.append((i, k))
        frontier = new

    # The rational echelon form divides each row r by its pivot, its first
    # nonzero entry.  Scaled by the common multiple L of all pivots, r / pivot
    # becomes the integer row r * (L // pivot) in the same lexicographic
    # order, so the flats sort on integers.
    pivot = {r: next(filter(None, r)) for key in keys for r in key}
    scale = lcm(1, *pivot.values())
    scaled = {r: tuple(x * (scale // d) for x in r) for r, d in pivot.items()}
    order = sorted(range(len(keys)), key=lambda i: (len(keys[i]), [scaled[r] for r in keys[i]]))
    position = {i: p for p, i in enumerate(order)}
    return ([keys[i] for i in order], [masks[i] for i in order],
            sorted((position[x], position[y]) for x, y in covers))


def _flat_name(key: Sequence[Sequence[int]]) -> str:
    """`AffineFlat.name` of the flat with integer echelon rows `key`."""
    return ";".join(_row_text([Fraction(x, next(filter(None, r))) for x in r]) for r in key) or "ambient"


def affine_intersection_poset(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_flats: int | None = None
) -> AffinePoset:
    """Poset of nonempty intersections of affine hyperplanes {a.x = c}: the
    keys of `flat_search` made `AffineFlat`s, each distinct row divided
    and formatted once, in its order, with its covers."""
    keys, masks, covers = flat_search(ambient_dim, hyperplanes, max_flats)
    quotients: dict[tuple[int, int], Fraction] = {}
    fraction_row = {}
    for r in {r for key in keys for r in key}:
        d = next(filter(None, r))
        row = []
        for x in r:
            f = quotients.get((x, d))
            if f is None:
                f = quotients[x, d] = Fraction(x, d)
            row.append(f)
        fraction_row[r] = tuple(row)

    text = {r: _row_text(row) for r, row in fraction_row.items()}
    n = ambient_dim
    through = range(len(hyperplanes))
    flats = [AffineFlat(tuple(fraction_row[r] for r in key), len(key), n - len(key),
                        frozenset(j for j in through if mask >> j & 1),
                        ";".join(text[r] for r in key) or "ambient")
             for key, mask in zip(keys, masks)]
    return AffinePoset(n, flats, covers)
