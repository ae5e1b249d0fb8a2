"""Linear matroids, no-broken-circuit bases, affine intersection posets.

A linear matroid is a list of rational vectors; the rank of a subset is
the rank of its vectors, and closures and circuits follow from ranks.
No-broken-circuit sets count the Moebius values of the lattice of flats
without building the lattice: there are |w_k| of size k, and
|mu(bottom, X)| whose support closes to the flat X.

Affine intersection posets of hyperplane arrangements live here too.
Their search is integer-only: each equation is cleared to a primitive
integer row, each flat is keyed by its reduced echelon rows scaled to
primitive integer rows, and intersecting a flat with a hyperplane is one
fraction-free reduction of the hyperplane's row.  The covers of a flat X
partition the hyperplanes not containing X, so once a cover is found
the hyperplanes through it are not intersected with X again.  Covers
are recorded while the flats are enumerated, and `mobius_from_covers`,
shared with the toric layer poset, turns them into mu(ambient, X).  The
flats are ordered and the covers indexed on the integer keys too
(`flat_search`); only `affine_intersection_poset`, for `poset` and the
tests, makes them `AffineFlat`s with `Fraction` rows and names, and the
E2 route reads the keys.  The interval below X is the lattice of flats
of the central arrangement of normals through X, so |mu(ambient, X)| is
the local dimension at X without building that lattice.
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


def _clear(target: Sequence[int], row: Sequence[int], p: int) -> list[int]:
    """row[p] * target - target[p] * row, divided by its content.

    Fraction-free elimination of column p from `target`; with row[p] > 0
    the signs of target's other entries are kept.
    """
    a, f = row[p], target[p]
    out = [a * x - f * y for x, y in zip(target, row)]
    content = gcd(*out)
    return [x // content for x in out] if content > 1 else out


def _reduce(row: Sequence[int], key: Sequence[Sequence[int]],
            pivots: Sequence[int]) -> list[int]:
    """`row` with the pivot columns of the echelon rows `key` cleared.

    The rows of `key` vanish in each other's pivot columns, so one pass
    in any order clears them all.
    """
    rest = list(row)
    for p, r in zip(pivots, key):
        if rest[p]:
            rest = _clear(rest, r, p)
    return rest


def _meet(key, pivots, rest: list[int], q: int):
    """Integer echelon key and pivots of X cut by one more equation.

    `rest` is the equation reduced against X's rows `key`, with its first
    nonzero entry in column q < n.  It is made primitive with a positive
    pivot, its pivot is cleared from X's rows, and it goes in by pivot.
    """
    if rest[q] < 0:
        rest = [-x for x in rest]
    rows = [(p, tuple(_clear(r, rest, q)) if r[q] else r) for p, r in zip(pivots, key)]
    rows.append((q, tuple(rest)))
    rows.sort()
    return tuple(r for _, r in rows), tuple(p for p, _ in rows)


def flat_search(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_flats: int | None = None
) -> tuple[list[tuple], dict[tuple, tuple[tuple[int, ...], frozenset[int]]], list[tuple[int, int]]]:
    """Nonempty intersections of affine hyperplanes {a.x = c} as integer keys.

    Hyperplanes are (normal, constant) pairs with rational entries and a
    nonzero normal.  A flat's key is its reduced echelon rows, each a
    primitive integer row with a positive pivot, which is in bijection
    with the rational echelon form of the system cutting it out.
    Returns the keys in the order of (codimension, rational echelon
    form), the pivot columns and the hyperplanes through each flat by
    key, and the covers as sorted index pairs (i, j), flat j a maximal
    proper subspace of flat i.  Finding more than `max_flats` flats
    raises ValueError.

    The flats of codimension q+1 are the nonempty intersections of a
    codimension-q flat X with a hyperplane not containing X.  Each of
    these covers X, and every cover arises this way, so the BFS records
    the covers.  X cut by H costs one fraction-free reduction of H's row
    against X's rows; a remainder whose only nonzero entry is the
    constant means an empty intersection.  Every H through a cover Y but
    not through X gives the same Y, so once Y is found those hyperplanes
    are skipped for X, and the hyperplanes of a new Y are X's and those
    not yet seen for X whose rows reduce to zero against Y.
    """
    n = ambient_dim
    eqs = []
    for normal, c in hyperplanes:
        row = [Fraction(x) for x in normal]
        if len(row) != n:
            raise ValueError("normal of wrong length")
        if all(x == 0 for x in row):
            raise ValueError("hyperplane needs a nonzero normal")
        eqs.append(_primitive(row + [Fraction(c)]))

    # integer key -> (pivot columns, hyperplanes through the flat)
    found: dict[tuple, tuple[tuple[int, ...], frozenset[int]]] = {(): ((), frozenset())}
    covers: list[tuple[tuple, tuple]] = []
    frontier = [()]
    while frontier:
        new = []
        for key in frontier:
            pivots, inside = found[key]
            seen = set(inside)
            for j, eq in enumerate(eqs):
                if j in seen:
                    continue
                seen.add(j)
                rest = _reduce(eq, key, pivots)
                q = next((c for c in range(n) if rest[c]), None)
                if q is None:
                    continue  # only the constant is left: empty intersection
                cover, cover_pivots = _meet(key, pivots, rest, q)
                if cover in found:
                    cover_inside = found[cover][1]
                else:
                    if max_flats is not None and len(found) >= max_flats:
                        raise ValueError("the arrangement has more than %d flats" % max_flats)
                    cover_inside = inside.union([j], (
                        k for k in range(j + 1, len(eqs))
                        if k not in seen and not any(_reduce(eqs[k], cover, cover_pivots))
                    ))
                    found[cover] = (cover_pivots, cover_inside)
                    new.append(cover)
                covers.append((key, cover))
                seen |= cover_inside
        frontier = new

    # The rational echelon form divides each row r by its pivot, its first
    # nonzero entry.  Scaled by the common multiple L of all pivots, r / pivot
    # becomes the integer row r * (L // pivot) in the same lexicographic
    # order, so the flats sort on integers.
    pivot = {r: next(filter(None, r)) for key in found for r in key}
    scale = lcm(1, *pivot.values())
    scaled = {r: tuple(x * (scale // d) for x in r) for r, d in pivot.items()}
    order = sorted(found, key=lambda key: (len(key), [scaled[r] for r in key]))
    index = {key: i for i, key in enumerate(order)}
    return order, found, sorted((index[x], index[y]) for x, y in covers)


def _flat_name(key: Sequence[Sequence[int]]) -> str:
    """`AffineFlat.name` of the flat with integer echelon rows `key`."""
    return ";".join(_row_text([Fraction(x, next(filter(None, r))) for x in r]) for r in key) or "ambient"


def affine_intersection_poset(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_flats: int | None = None
) -> AffinePoset:
    """Poset of nonempty intersections of affine hyperplanes {a.x = c}: the
    keys of `flat_search` made `AffineFlat`s, each distinct row divided
    and formatted once, in its order, with its covers."""
    keys, found, covers = flat_search(ambient_dim, hyperplanes, max_flats)
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
    flats = [AffineFlat(tuple(fraction_row[r] for r in key), len(key), n - len(key), found[key][1],
                        ";".join(text[r] for r in key) or "ambient")
             for key in keys]
    return AffinePoset(n, flats, covers)
