"""Affine intersection posets of hyperplane arrangements, on integer keys.

The search (`flat_search`) is integer-only.  Each flat is keyed by its
reduced echelon rows scaled to primitive integer rows, and identified by
the bitmask of the hyperplanes through it, as a flat is their
intersection.  A flat X carries the restriction of the arrangement to X
(Orlik-Terao 1992, 1.3): the rows of the hyperplanes not through X
reduced against X's rows, one row per cover of X, so the covers are read
off it.  A new flat costs one fraction-free step on X's key and one on
each of X's rows that is nonzero in its pivot column.
`mobius_from_covers`, shared with the toric layers, turns the covers
into mu(ambient, X).  The interval below X is the lattice of flats of
the central arrangement of normals through X, so |mu(ambient, X)| is the
local dimension at X without building that lattice.  Every command reads
the keys; `_flat_name` prints a flat's name from its key.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

from stratiform.exactalg import _primitive


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

    Hyperplanes are (normal, constant) pairs with a nonzero normal, their
    entries ints or `Fraction`s.  A flat's key is its reduced echelon
    rows, each a primitive integer row with a positive pivot, which is in
    bijection with the rational echelon form of the system cutting it out.
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
        row = [*normal, c]
        if len(row) != n + 1:
            raise ValueError("normal of wrong length")
        if not any(row[:n]):
            raise ValueError("hyperplane needs a nonzero normal")
        row = _primitive(row)
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


def _row_text(row: Sequence[int]) -> str:
    """An echelon row [a | c] of the augmented system, given as primitive
    integers with a positive pivot, divided by its pivot and printed as
    "(a1,...,an|c)", each entry an integer or a reduced fraction p/q."""
    d = next(filter(None, row))
    parts = []
    for x in row:
        g = gcd(x, d)
        parts.append(str(x // g) if g == d else "%d/%d" % (x // g, d // g))
    return "(%s|%s)" % (",".join(parts[:-1]), parts[-1])


def _flat_name(key: Sequence[tuple[int, ...]], text: dict | None = None) -> str:
    """The name of the flat with integer echelon rows `key`: the texts of
    its rows joined by ";", or "ambient" for the ambient space.  A caller
    that names many flats passes `text`, the texts of the rows formatted so
    far, so that each distinct row is formatted once."""
    if text is None:
        text = {}
    for r in key:
        if r not in text:
            text[r] = _row_text(r)
    return ";".join(text[r] for r in key) or "ambient"
