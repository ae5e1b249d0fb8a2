"""Affine intersection posets of hyperplane arrangements, on integer rows.

The search (`flat_search`) is integer-only and unordered.  It identifies
each flat by the bitmask of the hyperplanes through it, as a flat is
their intersection, numbers the flats codimension by codimension as the
BFS finds them, and records the step that found each.  A flat X carries
the restriction of the arrangement to X (Orlik-Terao 1992, 1.3): the
rows of the hyperplanes not through X reduced against X's equations,
one row per cover of X, so the covers are read off it, and a new flat
costs one fraction-free step on each of X's rows that is nonzero in its
pivot column.  The interval below X is the lattice of flats of the
central arrangement of normals through X, a geometric lattice, so
|mu(ambient, X)| is the local dimension at X, and Weisner's theorem
gives it from the covers alone: mu(ambient, X) = -sum mu(ambient, Y)
over the flats Y that X covers and that do not lie on the atom of X,
one fixed hyperplane through X.  A flat's mask is the set of
hyperplanes through it, its atom the lowest bit of that mask, and the
search returns mu, computed at its end by `weisner_mobius`, the one
Moebius function of the package, which the toric layer search shares:
one walk over the covers, in the order the search finds them.  The E2
commands read codimension and |mu| off the search alone.  A flat's
key, its reduced echelon rows scaled to primitive integer rows, is made
only where a flat is named or printed in order: `_flat_key` makes it
along the recorded steps, one `_meet` per flat, `flat_order` sorts the
flats, with their covers and mu, for `poset` and `strata`, and
`_flat_name` prints a flat's name from its key.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

from stratiform.exactalg import _primitive


def weisner_mobius(masks: Sequence[int], atoms: Sequence[int], covers: Iterable[tuple[int, int]]) -> list[int]:
    """mu(bottom, k) for each stratum k, stratum 0 the bottom, from the
    covers (i, k) by Weisner's theorem, in one walk over the covers.

    The poset is one of strata, each lower interval of which is a
    geometric lattice, the lattice of flats of a central arrangement.
    There, with a an atom below x, Weisner's theorem (Weisner 1935) reads
    mu(bottom, x) = -sum mu(bottom, y) over the lower covers y of x that
    are not above a.  Here the atoms are hypersurfaces: `atoms[k]` is the
    bit of one hypersurface through stratum k, and `masks[i]` has the bit
    of a hypersurface through a stratum below i exactly when it contains
    stratum i (for a flat, the hyperplanes through it; for a layer, the
    hypersurfaces whose characters lie in its span).  Each cover (i, k)
    takes mu(bottom, i) off mu(bottom, k), which starts at 0, unless the
    atom of k contains stratum i too.  `covers` holds each cover once,
    and the covers of i before any cover (i, k): mu(bottom, i) is
    complete when it is read.
    """
    mobius = [0] * len(masks)
    mobius[0] = 1
    for i, k in covers:
        if not atoms[k] & masks[i]:
            mobius[k] -= mobius[i]
    return mobius


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
) -> tuple[list[int], list[int], list, list[tuple[int, int]], list[int]]:
    """Nonempty intersections of affine hyperplanes {a.x = c}, unkeyed.

    Hyperplanes are (normal, constant) pairs with a nonzero normal, their
    entries ints or `Fraction`s.  The flats are numbered from the ambient
    space 0, codimension by codimension in the order the BFS finds them,
    which is a linear extension.  Returns, by flat, the hyperplanes
    through it as an int with bit j set for hyperplane j, its
    codimension and the step that found it, then the covers as index
    pairs (i, j), flat j a maximal proper subspace of flat i, and, by
    flat, mu(ambient, flat).  The step of a flat other than the ambient
    (whose step is None) is (i, row, q): flat i cut by the hyperplanes
    whose row on flat i is `row`, with pivot column q.  `_flat_key` makes
    a flat's key from the steps, and `flat_order` orders the flats.
    Finding more than `max_flats` flats raises ValueError.

    The covers of X are the nonempty X cut by H, H not through X.  Each
    flat of the BFS frontier carries the rows of the hyperplanes not
    through it, reduced against its equations (zero in their pivot
    columns, primitive, first nonzero entry positive), one row for all the
    hyperplanes that share it.  Two hyperplanes cut X in the same cover
    exactly when their rows on X are equal, so each row gives one cover,
    through X's hyperplanes and the row's.  A row whose only nonzero
    entry is the constant misses X and every flat inside it, and is
    dropped.  A new cover Y = X cut by H gets its rows from X's by one
    `_clear` against H's row where they are nonzero in its pivot column,
    unless Y is a point: a point misses every hyperplane not through it.
    Once the covers are all found, `weisner_mobius` gives mu from them,
    with the lowest bit of a flat's mask as its atom.
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

    masks, codims, steps = [0], [0], [None]
    index = {0: 0}  # mask -> flat
    covers: list[tuple[int, int]] = []
    frontier = [(0, rows)]
    codim = 0
    while frontier:
        codim += 1
        new = []
        for i, rows in frontier:
            mask = masks[i]
            for row, bits in rows.items():
                cover_mask = mask | bits
                k = index.get(cover_mask)
                if k is None:
                    if max_flats is not None and len(masks) >= max_flats:
                        raise ValueError("the arrangement has more than %d flats" % max_flats)
                    q = next(c for c, x in enumerate(row) if x)
                    k = index[cover_mask] = len(masks)
                    masks.append(cover_mask)
                    codims.append(codim)
                    steps.append((i, row, q))
                    if codim < n:  # a point carries no rows
                        cover_rows: dict[tuple, int] = {}
                        for other, other_bits in rows.items():
                            if other is row:
                                continue
                            if other[q]:
                                other = _clear(other, row, q)
                                if other == empty:
                                    continue
                            cover_rows[other] = cover_rows.get(other, 0) | other_bits
                        new.append((k, cover_rows))
                covers.append((i, k))
        frontier = new
    return masks, codims, steps, covers, weisner_mobius(masks, [m & -m for m in masks], covers)


def _flat_key(steps, memo: dict, k: int):
    """The integer echelon key and pivots of flat k of a `flat_search`, by
    one `_meet` on the key of the flat its step cuts.  A flat's key is its
    reduced echelon rows, each a primitive integer row with a positive
    pivot, which is in bijection with the rational echelon form of the
    system cutting it out.  `memo` holds the keys made so far for these
    steps, so each flat costs one `_meet` however often it is read."""
    if not k:
        return (), ()  # the ambient space
    if k not in memo:
        i, row, q = steps[k]
        memo[k] = _meet(*_flat_key(steps, memo, i), row, q)
    return memo[k]


def flat_order(search) -> tuple[list[tuple], list[tuple[int, int]], list[int]]:
    """The flats of `search`, a `flat_search` result, in the order they are
    printed: their keys in the order of (codimension, rational echelon
    form), the covers as sorted index pairs into that order and mu in
    it, the shape of `layer_order`."""
    _, _, steps, covers, mobius = search
    memo: dict = {}
    keys = [_flat_key(steps, memo, k)[0] for k in range(len(steps))]
    # The rational echelon form divides each row r by its pivot, its first
    # nonzero entry.  Scaled by the common multiple L of all pivots, r / pivot
    # becomes the integer row r * (L // pivot) in the same lexicographic
    # order, so the flats sort on integers.
    pivot = {r: next(filter(None, r)) for key in keys for r in key}
    scale = lcm(1, *pivot.values())
    scaled = {r: tuple(x * (scale // d) for x in r) for r, d in pivot.items()}
    order = sorted(range(len(keys)), key=lambda i: (len(keys[i]), [scaled[r] for r in keys[i]]))
    position = {i: p for p, i in enumerate(order)}
    return ([keys[i] for i in order], sorted((position[x], position[y]) for x, y in covers),
            [mobius[i] for i in order])


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


def _search_name(steps, memo: dict, k: int) -> str:
    """The name of flat k of a `flat_search` with these steps, its key made
    through `memo` (see `_flat_key`)."""
    return _flat_name(_flat_key(steps, memo, k)[0])
