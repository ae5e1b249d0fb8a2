"""Connected strata of toric arrangements and their containment poset.

A toric arrangement lives in the torus (C*)^n and consists of
hypersurfaces {z^chi = exp(2 pi i t)} with chi an integer exponent vector
and t a rational phase.  A layer is a connected component of an
intersection of hypersurfaces: a translate of a subtorus, encoded by a
saturated character lattice in canonical Hermite form together with one
phase per basis row.  Phases live in Q/Z, represented in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

from stratiform.exactalg import (
    Matrix,
    hermite_basis,
    inverse,
    lattice_coordinates,
    smith_normal_form,
)
from stratiform.matroidos import mobius_from_covers


def mod1(x) -> Fraction:
    """Reduce a rational number into [0, 1)."""
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


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

    @property
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


def layers_from_equations(
    n: int, equations: Iterable[tuple[Sequence[int], Fraction]]
) -> list[Layer]:
    """All connected components of the solution set of z^chi = e^{2 pi i t}.

    Components correspond to the extensions of the phase map from the
    lattice generated by the chi's to its saturation; their number is the
    index, the product of the Smith invariants.  Inconsistent phases give
    the empty list; no equations give the ambient layer.
    """
    eqs = [(tuple(int(e) for e in chi), mod1(t)) for chi, t in equations]
    for chi, _ in eqs:
        if len(chi) != n:
            raise ValueError("exponent vector of wrong length")
    if not eqs:
        return [Layer(n, (), ())]
    c = Matrix([list(chi) for chi, _ in eqs])
    t = [t for _, t in eqs]
    snf = smith_normal_form(c)
    r = sum(1 for d in snf.diag if d)
    ut = snf.left.apply(t)
    # rows of `left` beyond the rank span all integer relations among the chi's
    for i in range(r, len(eqs)):
        if mod1(ut[i]) != 0:
            return []
    winv = inverse(snf.right)
    w = [tuple(int(x) for x in winv.rows[i]) for i in range(r)]
    span = hermite_basis(w)
    # express each Hermite row in the w-basis (integral, both span the saturation)
    wmat = Matrix([list(row) for row in w]).transpose()
    coords = []
    for row in span:
        sol = wmat.solve(list(row))
        assert sol is not None and all(x.denominator == 1 for x in sol)
        coords.append([int(x) for x in sol])
    layers = []
    counters = [0] * r
    while True:
        ext = [mod1((ut[i] + counters[i]) / snf.diag[i]) for i in range(r)]
        phases = tuple(
            mod1(sum((Fraction(ci) * si for ci, si in zip(crow, ext)), Fraction(0)))
            for crow in coords
        )
        layers.append(Layer(n, span, phases))
        for i in range(r - 1, -1, -1):
            counters[i] += 1
            if counters[i] < snf.diag[i]:
                break
            counters[i] = 0
        else:
            break
    layers.sort(key=lambda l: l.sort_key)
    return layers


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


def build_layer_poset(n: int, arrangement: Sequence[ToricHypersurface]) -> LayerPoset:
    """Poset of all layers, with covers recorded during the BFS.

    Layers of codimension q+1 arise by intersecting codimension-q layers
    with single hypersurfaces; canonical keys deduplicate, so no subset
    enumeration happens.  A hypersurface whose character lies in the
    span of a layer either contains the layer or misses it, so it is
    skipped.  Any other one cuts the layer in components of one
    codimension more; each of them covers the layer, and every cover
    arises this way.
    """
    for h in arrangement:
        if h.dim != n:
            raise ValueError("hypersurface of wrong ambient dimension")
    ambient = Layer(n, (), ())
    found: dict[str, Layer] = {ambient.key: ambient}
    covers: set[tuple[str, str]] = set()
    frontier = [ambient]
    while frontier:
        next_frontier = []
        for layer in frontier:
            for h in arrangement:
                if layer.phase_of(h.exponents) is not None:
                    continue
                for comp in layers_from_equations(
                    n, layer.equations() + [(h.exponents, h.phase)]
                ):
                    if comp.key not in found:
                        found[comp.key] = comp
                        next_frontier.append(comp)
                    covers.add((layer.key, comp.key))
        frontier = next_frontier
    layers = tuple(sorted(found.values(), key=lambda l: l.sort_key))
    index = {l.key: i for i, l in enumerate(layers)}
    return LayerPoset(n, layers, tuple(sorted((index[a], index[b]) for a, b in covers)))


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
