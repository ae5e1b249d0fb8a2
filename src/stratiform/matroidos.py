"""Linear matroids, lattices of flats, no-broken-circuit bases.

The matroid of a list of rational vectors drives everything: flats are
enumerated by closure and the Moebius function is computed by the
defining recursion.  No-broken-circuit sets count the same numbers
without the lattice: there are |w_k| of size k, and |mu(bottom, X)|
whose support closes to the flat X, which makes them an independent
check of `FlatLattice`.

Affine intersection posets of hyperplane arrangements live here too.
Their covers are recorded while the flats are enumerated, and
`mobius_from_covers`, shared with the toric layer poset, turns them into
mu(ambient, X).  The interval below X is the lattice of flats of the
central arrangement of normals through X, so |mu(ambient, X)| is the
local dimension at X without building that lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from stratiform.exactalg import Matrix, vector


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


# -- lattice of flats ---------------------------------------------------


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

    def flats_of_rank(self, k: int) -> tuple[frozenset[int], ...]:
        return tuple(f for f in self.flats if self.rank_of[f] == k)

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
    contain it.
    """

    key: tuple[tuple[Fraction, ...], ...]
    codim: int
    dim: int
    hyperplanes: frozenset[int]

    @property
    def name(self) -> str:
        if not self.key:
            return "ambient"
        return ";".join(
            "(%s|%s)" % (",".join(str(x) for x in row[:-1]), row[-1]) for row in self.key
        )


class AffinePoset:
    """Intersection poset of an affine hyperplane arrangement.

    Ordered by reverse inclusion with the ambient space at the bottom.
    Flats are sorted by (codimension, key); `covers` holds index pairs
    (i, j) with flats[j] a maximal proper subspace of flats[i], and
    `mobius[i]` is mu(ambient, flats[i]).  Every stratum is an affine
    space: cohomology is one dimension in degree 0, weight 0.
    """

    def __init__(self, ambient_dim: int, flats: Sequence[AffineFlat],
                 covers: Iterable[tuple[tuple, tuple]]):
        """`covers` holds (key of X, key of Y) pairs with Y covering X."""
        self.ambient_dim = ambient_dim
        self.flats = tuple(sorted(flats, key=lambda f: (f.codim, f.key)))
        index = {f.key: i for i, f in enumerate(self.flats)}
        self.covers = tuple(sorted({(index[x], index[y]) for x, y in covers}))
        self.mobius = mobius_from_covers(len(self.flats), self.covers)

    def leq(self, i: int, j: int) -> bool:
        """flats[i] <= flats[j]: the stratum of j is inside the stratum of i."""
        return self.flats[i].hyperplanes <= self.flats[j].hyperplanes

    def flats_of_codim(self, q: int) -> tuple[AffineFlat, ...]:
        return tuple(f for f in self.flats if f.codim == q)

    @property
    def max_codim(self) -> int:
        return max((f.codim for f in self.flats), default=0)


def mobius_from_covers(size: int, covers: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """mu(bottom, x) for the elements 0..size-1 of a poset with a bottom.

    `covers` holds the pairs (i, j) with j covering i, and the elements
    are numbered along a linear extension (i < j whenever i is below j),
    as a sort by rank gives.  The strict down-set of x is the union of
    its lower covers and their down-sets, and mu(bottom, x) is minus the
    sum of mu over that down-set.
    """
    lower: list[list[int]] = [[] for _ in range(size)]
    for i, j in covers:
        lower[j].append(i)
    below: list[set[int]] = []
    mobius: list[int] = []
    for x in range(size):
        down: set[int] = set()
        for y in lower[x]:
            down.add(y)
            down |= below[y]
        below.append(down)
        mobius.append(-sum(mobius[y] for y in down) if down else 1)
    return tuple(mobius)


def affine_intersection_poset(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_flats: int | None = None
) -> AffinePoset:
    """Poset of nonempty intersections of affine hyperplanes {a.x = c}.

    Hyperplanes are (normal, constant) pairs with rational entries and a
    nonzero normal.  Deduplication is by the canonical echelon form of
    the defining system; empty intersections are dropped.  The flats of
    codimension q+1 are the nonempty intersections of a codimension-q
    flat X with a hyperplane not containing X.  Each of these covers X,
    and every cover arises this way, so the BFS records the covers.
    Finding more than `max_flats` flats raises ValueError.
    """
    n = ambient_dim
    eqs = []
    for normal, c in hyperplanes:
        row = [Fraction(x) for x in normal]
        if len(row) != n:
            raise ValueError("normal of wrong length")
        if all(x == 0 for x in row):
            raise ValueError("hyperplane needs a nonzero normal")
        eqs.append(row + [Fraction(c)])

    def containing(key) -> frozenset[int]:
        """Hyperplanes whose equation reduces to zero against the echelon rows."""
        pivots = [next(c for c, x in enumerate(row) if x) for row in key]
        out = set()
        for j, eq in enumerate(eqs):
            rest = eq
            for p, row in zip(pivots, key):
                f = rest[p]
                if f:
                    rest = [a - f * b for a, b in zip(rest, row)]
            if not any(rest):
                out.add(j)
        return frozenset(out)

    ambient_key: tuple = ()
    flats: dict[tuple, AffineFlat] = {
        ambient_key: AffineFlat(ambient_key, 0, n, containing(ambient_key))
    }
    covers: set[tuple[tuple, tuple]] = set()
    frontier = [ambient_key]
    while frontier:
        new = []
        for key in frontier:
            flat = flats[key]
            for j, eq in enumerate(eqs):
                if j in flat.hyperplanes:
                    continue
                red, pivots = Matrix(list(key) + [eq], ncols=n + 1).rref()
                if n in pivots:
                    continue  # a pivot in the constant column: empty intersection
                new_key = red.rows[:len(pivots)]
                if new_key not in flats:
                    if max_flats is not None and len(flats) >= max_flats:
                        raise ValueError("the arrangement has more than %d flats" % max_flats)
                    codim = len(pivots)
                    flats[new_key] = AffineFlat(new_key, codim, n - codim, containing(new_key))
                    new.append(new_key)
                covers.add((key, new_key))
        frontier = new
    return AffinePoset(n, tuple(flats.values()), covers)


def poset_characteristic_polynomial(poset: AffinePoset) -> tuple[int, ...]:
    """Coefficients, ascending in t, of sum_X mu(X) t^(dim X)."""
    coeffs = [0] * (poset.ambient_dim + 1)
    for i, f in enumerate(poset.flats):
        coeffs[f.dim] += poset.mobius[i]
    return tuple(coeffs)


def poset_whitney_numbers(poset: AffinePoset) -> tuple[int, ...]:
    """|w_q| by codimension q: unsigned Moebius sums over codim-q flats."""
    out = [0] * (poset.max_codim + 1)
    for i, f in enumerate(poset.flats):
        out[f.codim] += abs(poset.mobius[i])
    return tuple(out)
