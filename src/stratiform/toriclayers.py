"""Connected strata of toric arrangements and their containment poset.

A toric arrangement lives in the torus (C*)^n and consists of
hypersurfaces {z^chi = exp(2 pi i t)} with chi an integer exponent vector
and t a rational phase.  A layer is a connected component of an
intersection of hypersurfaces: a translate of a subtorus, encoded by a
saturated character lattice in canonical Hermite form together with one
phase per basis row.  Phases live in Q/Z, represented in [0, 1).

`layers_from_equations` solves a whole system at once.  The layer poset
is built breadth first instead, one hypersurface at a time, in quotient
coordinates of the layer being cut: one Smith form of the layer's span
splits every character into a part in the span and an image in the
quotient lattice, one Hermite basis per new direction gives the span of
the components, and their phases are integer numerators over one
modulus (De Concini-Procesi 2005: a layer is a translate of a subtorus
with a saturated character lattice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from stratiform.exactalg import (
    _smith_core,
    hermite_basis,
    lattice_coordinates,
)
from stratiform.matroidos import mobius_from_covers


def mod1(x) -> Fraction:
    """Reduce a rational number into [0, 1)."""
    f = x if type(x) is Fraction else Fraction(x)
    q = f.numerator // f.denominator
    return f - q if q else f


def _phase_str(t: Fraction) -> str:
    return "%d/%d" % (t.numerator, t.denominator)


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
        if not self.span:
            return "ambient"
        parts = []
        for row, t in zip(self.span, self.phases):
            parts.append("(%s)@%s" % (",".join(map(str, row)), _phase_str(t)))
        return ";".join(parts)

    @property
    def sort_key(self):
        return (self.codim, self.span, self.phases)

    def phase_of(self, chi: Sequence[int]) -> Fraction | None:
        """Value of the phase homomorphism on chi, or None when chi is
        outside the span lattice."""
        coords = lattice_coordinates(self.span, chi)
        if coords is None:
            return None
        total = Fraction(0)
        for c, t in zip(coords, self.phases):
            total += c * t
        return mod1(total)

    def equations(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return list(zip(self.span, self.phases))


def layer_contains(outer: Layer, inner: Layer) -> bool:
    """True when inner is a subvariety of outer.

    Requires span(outer) inside span(inner) as lattices with matching
    phase values on span(outer).
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("layers in different ambient tori")
    for row, t in zip(outer.span, outer.phases):
        got = inner.phase_of(row)
        if got is None or got != t:
            return False
    return True


def _check_component_count(count: int, max_layers: int | None) -> None:
    if max_layers is not None and count > max_layers:
        raise ValueError(
            "an intersection has %d components, more than the limit of %d" % (count, max_layers)
        )


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
    denom = lcm(*(t.denominator for _, t in eqs))
    a = [t.numerator * (denom // t.denominator) for _, t in eqs]
    la = [sum(x * y for x, y in zip(row, a)) for row in snf.left]
    # rows of `left` beyond the rank span all integer relations among the chi's
    if any(la[i] % denom for i in range(r, len(eqs))):
        return []
    _check_component_count(prod(diag), max_layers)
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


def intersect_hypersurfaces(
    n: int, arrangement: Sequence[ToricHypersurface], subset: Iterable[int]
) -> list[Layer]:
    """Connected components of the intersection of the chosen hypersurfaces.

    The empty subset yields the ambient layer; inconsistent phases yield
    the empty list.
    """
    eqs = []
    for i in subset:
        h = arrangement[i]
        if h.dim != n:
            raise ValueError("hypersurface of wrong ambient dimension")
        eqs.append((h.exponents, h.phase))
    return layers_from_equations(n, eqs)


@dataclass(frozen=True)
class LayerPoset:
    """All layers of an arrangement with their covering relations.

    Layers are sorted by (codimension, canonical key); `covers` holds
    index pairs (i, j) with layers[i] covering layers[j], i.e. layers[j]
    is a maximal proper sublayer of layers[i].
    """

    ambient_dim: int
    layers: tuple[Layer, ...]
    covers: tuple[tuple[int, int], ...] = field(default=())

    def by_codim(self, q: int) -> tuple[Layer, ...]:
        return tuple(l for l in self.layers if l.codim == q)

    @property
    def max_codim(self) -> int:
        return max((l.codim for l in self.layers), default=0)

    @cached_property
    def mobius(self) -> tuple[int, ...]:
        """mu(ambient, layers[i]) for each i, from the covers.

        The interval below a layer is the lattice of flats of its local
        central arrangement, so |mu| is the layer's local dimension.
        """
        return mobius_from_covers(len(self.layers), self.covers)


def _sublayers(
    layer: Layer, hypersurfaces: Sequence[tuple[tuple[int, ...], int, int]], max_layers: int | None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]]:
    """The components of layer ∩ H, for each hypersurface H that cuts the
    layer, in the order of the hypersurfaces and, within one H, in the
    order of their phase tuples.  Each is given as its dedup key: the
    Hermite basis of its span and its phases as reduced (num, den) pairs.

    The layer's span S (c rows) is saturated, so one Smith form
    L S R = [I | 0] gives quotient coordinates: chi R = (a, v), where a
    are the coordinates of chi's part in the span over the rows of L S,
    whose phases are psi = L phi, and v is chi's image in Z^n / span(S).
    With v = 0 the character lies in the span, and H contains the layer
    or misses it.  Otherwise v = m g with g primitive, its first nonzero
    entry positive; the saturation of span(S) + Z chi is
    span(S) + Z gamma with gamma = g R^-1[c:], and the phase of gamma on
    the |m| components runs through the solutions of
    m phi(gamma) = t - a.psi.  The new Hermite basis, and the coordinates
    of its rows over (L S, gamma), are computed once per direction g.
    Phases are integer numerators over one modulus d |m|, with d the lcm
    of the phase denominators.
    """
    n = layer.ambient_dim
    span = layer.span
    c = len(span)
    if c == n:  # a point: every character lies in its span
        return
    smith = _smith_core(span, n)
    assert all(d == 1 for d in smith.diag), "layer span is not saturated"
    quotient = list(zip(*smith.right))[c:]  # columns c.. of R: chi -> v
    gamma_cols = list(zip(*smith.right_inverse[c:]))
    den = lcm(*(t.denominator for t in layer.phases))
    phi = [t.numerator * (den // t.denominator) for t in layer.phases]
    psi = [sum(x * y for x, y in zip(row, phi)) for row in smith.left]
    # chi . lift = a . psi: the phase, over den, of chi's part in the span
    lift = [sum(x * y for x, y in zip(row[:c], psi)) for row in smith.right]
    directions: dict[tuple[int, ...], tuple] = {}
    for chi, num, dnm in hypersurfaces:
        v = [sum(x * y for x, y in zip(chi, col)) for col in quotient]
        if not any(v):
            continue
        m = gcd(*v)
        if next(x for x in v if x) < 0:
            m = -m
        count = abs(m)
        _check_component_count(count, max_layers)
        g = tuple(x // m for x in v)
        known = directions.get(g)
        if known is None:
            gamma = [sum(x * y for x, y in zip(g, col)) for col in gamma_cols]
            new_span = hermite_basis([*span, gamma])
            p = next(i for i, x in enumerate(g) if x)
            rows = []  # (alpha . psi, beta) for each Hermite row h, with h R = (alpha, beta g)
            for h in new_span:
                hv = [sum(x * y for x, y in zip(h, col)) for col in quotient]
                beta = hv[p] // g[p]
                assert hv == [beta * x for x in g], "Hermite row outside the new span"
                rows.append((sum(x * y for x, y in zip(h, lift)), beta))
            known = directions[g] = (new_span, rows)
        new_span, rows = known
        # m phi(gamma) = base / d mod 1: phi(gamma) = (sign(m) base + k d) / (d |m|), 0 <= k < |m|
        d = lcm(den, dnm)
        s = d // den
        base = num * (d // dnm) - s * sum(x * y for x, y in zip(chi, lift))
        if m < 0:
            base = -base
        modulus = d * count
        terms = [(s * count * ap + beta * base, beta * d) for ap, beta in rows]
        # in the order `layers_from_equations` gives them, so that the BFS
        # finds layers, and hits a limit, in the same order as a whole-system solve
        for numerators in sorted(
            tuple((b + step * k) % modulus for b, step in terms) for k in range(count)
        ):
            phases = []
            for x in numerators:
                q = gcd(x, modulus)
                phases.append((x // q, modulus // q))
            yield new_span, tuple(phases)


def build_layer_poset(
    n: int, arrangement: Sequence[ToricHypersurface], max_layers: int | None = None
) -> LayerPoset:
    """Poset of all layers, with covers recorded during the BFS.

    Layers of codimension q+1 arise by intersecting codimension-q layers
    with single hypersurfaces; canonical spans and phases deduplicate,
    so no subset enumeration happens.  A hypersurface whose character
    lies in the span of a layer either contains the layer or misses it,
    so it is skipped.  Any other one cuts the layer in components of one
    codimension more; each of them covers the layer, and every cover
    arises this way.  Each layer is cut in its quotient coordinates, from
    one Smith form of its span and one Hermite basis per new direction
    (see `_sublayers`), not by solving the whole system again.  An
    intersection with more than `max_layers` components, or finding more
    than `max_layers` layers, raises ValueError.
    """
    for h in arrangement:
        if h.dim != n:
            raise ValueError("hypersurface of wrong ambient dimension")
    hypersurfaces = [(h.exponents, h.phase.numerator, h.phase.denominator) for h in arrangement]
    layers = [Layer(n, (), ())]
    index = {((), ()): 0}
    covers: set[tuple[int, int]] = set()
    frontier = [0]
    while frontier:
        next_frontier = []
        for y in frontier:
            for key in _sublayers(layers[y], hypersurfaces, max_layers):
                j = index.get(key)
                if j is None:
                    if max_layers is not None and len(layers) >= max_layers:
                        raise ValueError("the arrangement has more than %d layers" % max_layers)
                    j = index[key] = len(layers)
                    span, phases = key
                    layers.append(Layer(n, span, tuple(Fraction(p, q) for p, q in phases)))
                    next_frontier.append(j)
                covers.add((y, j))
        frontier = next_frontier
    order = sorted(range(len(layers)), key=lambda i: layers[i].sort_key)
    rank = {i: r for r, i in enumerate(order)}
    return LayerPoset(
        n,
        tuple(layers[i] for i in order),
        tuple(sorted((rank[a], rank[b]) for a, b in covers)),
    )


def layer_cohomology(layer: Layer) -> tuple[tuple[int, int, int], ...]:
    """Graded cohomology of a d-torus: dim H^p = C(d, p), pure weight 2p.

    Returned as (degree, dimension, weight) triples.
    """
    d = layer.dim
    return tuple((p, comb(d, p), 2 * p) for p in range(d + 1))


def local_subarrangement(
    arrangement: Sequence[ToricHypersurface], layer: Layer
) -> list[ToricHypersurface]:
    """Hypersurfaces with a connected component containing the layer.

    Selected by chi in the span lattice with matching phase; parallel and
    repeated characters are kept, with original labels.
    """
    out = []
    for h in arrangement:
        got = layer.phase_of(h.exponents)
        if got is not None and got == h.phase:
            out.append(h)
    return out
