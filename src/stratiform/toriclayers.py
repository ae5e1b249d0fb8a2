"""Connected strata of toric arrangements and their containment poset.

A toric arrangement lives in the torus (C*)^n and consists of
hypersurfaces {z^chi = exp(2 pi i t)} with chi an integer exponent vector
and t a rational phase.  A layer is a connected component of an
intersection of hypersurfaces: a translate of a subtorus, encoded by a
saturated character lattice in canonical Hermite form together with one
phase per basis row.  Phases live in Q/Z, represented in [0, 1).

The layers are searched breadth first (`layer_search`), one
hypersurface at a time, in quotient coordinates of the layer being cut
(De Concini-Procesi 2005: a layer is a translate of a subtorus with a
saturated character lattice).  The lattice half of a cut depends on the
layer's span only, so it is done once per distinct span, per BFS level,
with no Smith form: the span is saturated, so column steps alone
complete its Hermite basis to a unimodular basis (`_completion`), which
splits every character into its coordinates over the Hermite rows and
an image in the quotient lattice.  A span is a flat, the saturation of
the characters it contains, so there is one Hermite basis per flat,
keyed by its hypersurface bitmask, which in paired runs made B5's
search about 13% faster than one Hermite basis per new direction of
each span.  Its extra row comes from the cutting character itself,
with no inverse of the completion: (chi - a S) / m, an exact division.
The ambient needs no completion, as a line's span is its primitive
direction, and Z^n, the span of the points, no Hermite basis, as the
rows of the completion are its rows' coordinates.  The phase half runs
per layer, on the layer's own phase numerators: the components' phases
are integer numerators over one modulus, the layer's part of each new
Hermite row's phase is computed once per direction, and a hypersurface
that repeats the (direction, count, phase) class of one already cut at
the layer is skipped.

The search also gives mu(ambient, layer), whose absolute value is the
local dimension of the E2 table.  The interval below a layer is the
lattice of flats of the central arrangement the hypersurfaces through
it make near one of its points (De Concini-Procesi 2005), a geometric
lattice, so Weisner's theorem gives mu from the covers alone: minus the
sum of mu over the layers a layer covers that do not lie on its atom.
A layer's mask is its flat's bitmask, and its atom the bit of the
hypersurface whose cut found it, which contains a layer above it
exactly when the character lies in that layer's span.  The search
returns mu, computed at its end by one walk of `weisner_mobius` over
its covers, which come level by level: the one Moebius function of the
package, which the affine flat search shares.

The search runs on integer keys, spans with (num, den) phase pairs,
and returns the layers in the order it finds them, which is all the E2
commands read; `layer_order` sorts them, with their covers and mu,
for `poset` and `strata`, and `_layer_name` prints a layer's name from
its key.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from stratiform.exactalg import _completion, hermite_basis
from stratiform.matroidos import weisner_mobius


def mod1(x) -> Fraction:
    """Reduce a rational number into [0, 1)."""
    f = x if type(x) is Fraction else Fraction(x)
    q = f.numerator // f.denominator
    return f - q if q else f


def _phase_str(num: int, den: int) -> str:
    return "%d/%d" % (num, den)


def _layer_name(span: tuple[tuple[int, ...], ...], phases: Sequence[tuple[int, int]]) -> str:
    """The name of the layer with this span and these (num, den) phases:
    "(chi)@num/den" for each span row, joined by ";", or "ambient"."""
    parts = ("(%s)@%s" % (",".join(map(str, row)), _phase_str(*t)) for row, t in zip(span, phases))
    return ";".join(parts) or "ambient"


@dataclass(frozen=True)
class ToricHypersurface:
    """{z_1^{e_1} ... z_n^{e_n} = exp(2 pi i t)} with t the rational phase."""

    exponents: tuple[int, ...]
    phase: Fraction
    label: int = 0

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if not exps or all(e == 0 for e in exps):
            raise ValueError("hypersurface needs a nonzero exponent vector")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "phase", mod1(self.phase))

    @property
    def dim(self) -> int:
        return len(self.exponents)


def _cut_plan(
    span: tuple[tuple[int, ...], ...],
    mask: int,
    n: int,
    hypersurfaces: Sequence[tuple[tuple[int, ...], int, int]],
    flats: dict[int, tuple[tuple[int, ...], ...]],
) -> tuple:
    """The phase-free half of cutting a layer with this span, which the
    layers with the same span share: for each hypersurface H that cuts
    such a layer, in arrangement order, (bit, a, m, g, num, dnm) with bit
    the bit of H and num/dnm its phase, and for each direction g, (flat,
    new_span, rows).

    The span S (c Hermite rows) is saturated, so column steps alone find
    a unimodular R with S R = [I | 0] (`_completion`), which gives
    quotient coordinates: chi R = (a, v), where a are the coordinates of
    chi's part in the span over the rows of S, and v is chi's image in
    Z^n / span(S).  With v = 0 the character lies in the span, and H
    contains the layer or misses it, so it is left out; those H are the
    bits of `mask`.  Otherwise v = m g with g primitive, its first nonzero
    entry positive.  The first c rows of R^-1 are S, so chi = a S + m
    gamma with gamma = g R^-1[c:], and the saturation of span(S) + Z chi
    is span(S) + Z gamma: gamma = (chi - a S) / m, read off the first H
    of direction g, with no R^-1, and only where the flat is new.  The
    flat, the H whose characters the new span contains, is `mask` and the
    H of direction g.  A span is the saturation of its flat's characters,
    so its Hermite basis is computed once per flat, in `flats`; the
    coordinates h R = (alpha, beta g) of its rows, as `rows`, once per
    direction g.

    The first and the last level need neither R^-1 nor a dot product per
    Hermite row.  At the root (c = 0) R = I and v = chi, so the span of a
    rank-1 flat is (g,), already a Hermite basis, with the coordinates
    ((), 1).  At the last level (c + 1 = n) the new span is Z^n, the
    identity rows, and their coordinates are the rows (R[i][:c], R[i][c])
    of R.
    """
    c = len(span)
    if c:
        cols = _completion(span, n)
        inside, quotient = cols[:c], cols[c:]  # chi -> a, chi -> v
    else:
        inside = ()
    inside_bits = 0
    bits: dict[tuple[int, ...], int] = {}
    cuts = []
    for i, (chi, num, dnm) in enumerate(hypersurfaces):
        v = [sum(map(mul, chi, col)) for col in quotient] if c else chi
        if not any(v):
            inside_bits |= 1 << i
            continue
        m = gcd(*v)
        for x in v:  # the first nonzero entry of v gives g its sign
            if x:
                break
        if x < 0:
            m = -m
        g = tuple([x // m for x in v])
        bits[g] = bits.get(g, 0) | 1 << i
        cuts.append((1 << i, [sum(map(mul, chi, col)) for col in inside], m, g, num, dnm))
    assert inside_bits == mask, "the span holds other characters than its flat's"
    directions = {}
    for g, g_bits in bits.items():
        flat = mask | g_bits
        if not c:  # a line: its span is (g,)
            new_span = flats[flat] = (g,)
            rows = [((), 1)]
        elif c + 1 == n:  # a point: its span is Z^n, whose rows have the rows of R as coordinates
            new_span = flats.get(flat)
            if new_span is None:
                new_span = flats[flat] = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            rows = [([col[i] for col in inside], quotient[0][i]) for i in range(n)]
        else:
            new_span = flats.get(flat)
            if new_span is None:
                low = g_bits & -g_bits  # the bit of the first H of direction g
                _, a, m, _, _, _ = next(cut for cut in cuts if cut[0] == low)
                chi = hypersurfaces[low.bit_length() - 1][0]
                gamma = [x - sum(map(mul, a, s)) for x, s in zip(chi, zip(*span))]  # m gamma
                assert all(x % m == 0 for x in gamma), "the span is not saturated"
                new_span = flats[flat] = hermite_basis([*span, [x // m for x in gamma]])
            p = next(i for i, x in enumerate(g) if x)
            rows = []
            for h in new_span:
                hr = [sum(map(mul, h, col)) for col in cols]
                beta = hr[c + p] // g[p]
                assert hr[c:] == [beta * x for x in g], "Hermite row outside the new span"
                rows.append((hr[:c], beta))
        directions[g] = (flat, new_span, rows)
    return cuts, directions


def _sublayers(
    phases: Sequence[tuple[int, int]], plan: tuple, max_layers: int | None
) -> Iterator[tuple[int, int, tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]]:
    """The components of layer ∩ H, for each hypersurface H that cuts the
    layer, in the order of the hypersurfaces.  The layer's phases are
    given as (num, den) pairs, and each component as the bit of H, its
    flat's bitmask and its key: the Hermite basis of its span and (num,
    den) pairs.

    This is the phase pass over `plan`, the `_cut_plan` of the layer's
    span, which is built once per distinct span, per BFS level.  With phi
    the layer's phases over their common denominator, chi's part in the
    span has phase a.phi, and the phase of gamma on the |m| components
    runs through the solutions of m phi(gamma) = t - a.phi; a Hermite row
    h of the new span has phase alpha.phi + beta phi(gamma), and alpha.phi
    is computed once per direction, for every cut of that direction.
    Phases are integer numerators over one modulus d |m|, with d the lcm
    of the phase denominators.  The components depend only on the class
    (g, |m|, target phase mod 1), so a hypersurface whose class was
    already cut at this layer gives nothing new and is skipped, after its
    component count is checked.
    """
    cuts, directions = plan
    den = lcm(*(q for _, q in phases))
    phi = [p * (den // q) for p, q in phases]
    lifts: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # g -> (alpha.phi, beta) per new row
    seen = set()
    for bit, a, m, g, num, dnm in cuts:
        count = abs(m)
        if max_layers is not None and count > max_layers:
            raise ValueError(
                "an intersection has %d components, more than the limit of %d" % (count, max_layers)
            )
        # m phi(gamma) = base / d mod 1: phi(gamma) = (sign(m) base + k d) / (d |m|), 0 <= k < |m|
        d = lcm(den, dnm)
        s = d // den
        base = num * (d // dnm) - s * sum(map(mul, a, phi))
        if m < 0:
            base = -base
        target = base % d
        q = gcd(target, d)
        cut = (g, count, target // q, d // q)
        if cut in seen:
            continue
        seen.add(cut)
        flat, new_span, rows = directions[g]
        lift = lifts.get(g)
        if lift is None:
            lift = lifts[g] = [(sum(map(mul, alpha, phi)), beta) for alpha, beta in rows]
        modulus = d * count
        scale = s * count
        # the phases of each new row over all |m| components, then one key per component
        columns = []
        for ap, beta in lift:
            b, step = scale * ap + beta * base, beta * d
            column = []
            for k in range(count):
                x = (b + step * k) % modulus
                q = gcd(x, modulus)
                column.append((x // q, modulus // q))
            columns.append(column)
        for cut_phases in zip(*columns):
            yield bit, flat, new_span, cut_phases


def layer_search(
    n: int, arrangement: Sequence[ToricHypersurface], max_layers: int | None = None
) -> tuple[list[tuple], list[tuple[int, int]], list[int]]:
    """All layers as integer keys, in the order the search finds them,
    the covers as index pairs (i, j), layer j a maximal proper sublayer of
    layer i, and mu(ambient, layer) in the order of the keys.  A key is a
    layer's span and its phases as reduced (num, den) pairs.  The layers
    come by codimension, the ambient first; `layer_order` sorts them.

    Layers of codimension q+1 arise by intersecting codimension-q layers
    with single hypersurfaces; the keys deduplicate, so no subset
    enumeration happens.  A hypersurface whose character lies in the
    span of a layer either contains the layer or misses it, so it is
    skipped.  Any other one cuts the layer in components of one
    codimension more; each of them covers the layer, and every cover
    arises this way.  Each layer is cut in its quotient coordinates, not
    by solving the whole system again: one unimodular completion per
    distinct span other than the ambient's, per BFS level, and one
    Hermite basis per flat of rank 2 to n - 1, keyed by its hypersurface
    bitmask (`_cut_plan`), then one integer phase pass per layer
    (`_sublayers`).  A layer carries its flat's bitmask,
    which keys its plan and, with its phases, the dedup index.  All
    layers of one level share a codimension, and so do the layers they
    cut, so the dedup index lives for one level, a plan until the last
    layer of the level with its span is cut, and the Hermite bases until
    the search ends.  An intersection with more than `max_layers`
    components, or finding more than `max_layers` layers, raises
    ValueError.

    The interval below a layer Z is the lattice of flats of the central
    arrangement that the hypersurfaces through Z make near a point of Z
    (De Concini-Procesi 2005), a geometric lattice, so mu comes from
    the covers by `weisner_mobius`, once the covers are all found: they
    come level by level, so the covers below a layer come before the
    covers above it.  A layer's mask is its flat's bitmask, and the atom
    of a layer is the bit of the hypersurface H whose cut found it.  H
    contains a layer Y above that layer exactly when H's character lies
    in Y's span, that is, when H's bit is in Y's mask.
    """
    for h in arrangement:
        if h.dim != n:
            raise ValueError("hypersurface of wrong ambient dimension")
    hypersurfaces = [(h.exponents, h.phase.numerator, h.phase.denominator) for h in arrangement]
    keys: list[tuple] = [((), ())]
    masks = [0]  # the bits of the hypersurfaces whose characters lie in each key's span
    atoms = [0]  # the bit of the hypersurface whose cut found each key; the ambient has none
    flats: dict[int, tuple[tuple[int, ...], ...]] = {}  # a flat's mask -> its Hermite basis
    index: dict[tuple, int] = {}  # (mask, phases) -> a layer's index, for one level
    covers: list[tuple[int, int]] = []
    frontier = [0]
    for _ in range(n):  # codimensions 0..n-1: a point lies on or off each hypersurface
        users = Counter(masks[y] for y in frontier)
        plans: dict[int, tuple] = {}
        index.clear()
        found: set[tuple[int, int]] = set()  # the covers (y, j), y of this level
        next_frontier = []
        for y in frontier:
            span, phases = keys[y]
            mask = masks[y]
            users[mask] -= 1
            plan = plans.pop(mask, None) or _cut_plan(span, mask, n, hypersurfaces, flats)
            if users[mask]:  # another layer of this level has the span
                plans[mask] = plan
            for bit, cut_mask, cut_span, cut_phases in _sublayers(phases, plan, max_layers):
                j = index.get((cut_mask, cut_phases))
                if j is None:
                    if max_layers is not None and len(keys) >= max_layers:
                        raise ValueError("the arrangement has more than %d layers" % max_layers)
                    j = index[cut_mask, cut_phases] = len(keys)
                    keys.append((cut_span, cut_phases))
                    masks.append(cut_mask)
                    atoms.append(bit)
                    next_frontier.append(j)
                found.add((y, j))
        covers += found
        frontier = next_frontier
    return keys, covers, weisner_mobius(masks, atoms, covers)


def layer_order(search) -> tuple[list[tuple], list[tuple[int, int]], list[int]]:
    """The layers of `search`, a `layer_search` result, sorted by
    codimension, then span, then phases, with the covers as sorted index
    pairs into that order and mu in it: the order of the `poset` and
    `strata` commands.

    The phases are compared without making Fractions: the phases p/q, all
    in [0, 1), are the digits p * (M // q) of one integer in base M, their
    common modulus, and layers of one codimension have as many."""
    keys, covers, mobius = search
    modulus = lcm(*{q for _, phases in keys for _, q in phases})

    def sort_key(i):
        span, phases = keys[i]
        value = 0
        for p, q in phases:
            value = value * modulus + p * (modulus // q)
        return len(span), span, value

    order = sorted(range(len(keys)), key=sort_key)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return ([keys[i] for i in order], sorted((rank[a], rank[b]) for a, b in covers),
            [mobius[i] for i in order])


def torus_cohomology(d: int) -> tuple[tuple[int, int, int], ...]:
    """Graded cohomology of a d-torus: dim H^p = C(d, p), pure weight 2p.

    Returned as (degree, dimension, weight) triples.
    """
    return tuple((p, comb(d, p), 2 * p) for p in range(d + 1))
