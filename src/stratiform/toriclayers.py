"""Connected strata of toric arrangements and their containment poset.

A toric arrangement lives in the torus (C*)^n and consists of
hypersurfaces {z^chi = exp(2 pi i t)} with chi an integer exponent vector
and t a rational phase.  A layer is a connected component of an
intersection of hypersurfaces: a translate of a subtorus, encoded by a
saturated character lattice in canonical Hermite form together with one
phase per basis row.  Phases live in Q/Z, represented in [0, 1).

`layers_from_equations` solves a whole system at once.  The layers are
searched breadth first instead (`layer_search`), one hypersurface at a
time, in quotient coordinates of the layer being cut (De Concini-Procesi
2005: a layer is a translate of a subtorus with a saturated character
lattice).  The lattice half of a cut depends on the layer's span only,
so it is done once per distinct span, per BFS level: one Smith form of
the span splits every character into a part in the span and an image in
the quotient lattice, and one Hermite basis per new direction gives the
span of the components.  The phase half runs per layer: the components'
phases are integer numerators over one modulus, and a hypersurface that
repeats the (direction, count, phase) class of one already cut at the
layer is skipped.  B5 (1,539 layers, 647 distinct spans) takes about 0.5 s for
`betti` on a two-core host under Python 3.11, against about 1.0 s with
one Smith form per layer.

The search runs and sorts on integer keys, spans with (num, den) phase
pairs, which every command reads; `_layer_name` prints a layer's name
from its key.  Only `layers_from_equations`, the whole-system solve,
returns `Layer`s, with `Fraction` phases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from stratiform.exactalg import _smith_core, hermite_basis


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


def _cut_plan(
    span: tuple[tuple[int, ...], ...],
    n: int,
    hypersurfaces: Sequence[tuple[tuple[int, ...], int, int]],
) -> tuple:
    """The phase-free half of cutting a layer with this span, which the
    layers with the same span share: the left Smith transform L, and for
    each hypersurface H that cuts such a layer, in arrangement order,
    (a, m, g, new_span, rows, num, dnm) with num/dnm the phase of H.

    The span S (c rows) is saturated, so one Smith form L S R = [I | 0]
    gives quotient coordinates: chi R = (a, v), where a are the
    coordinates of chi's part in the span over the rows of L S, and v is
    chi's image in Z^n / span(S).  With v = 0 the character lies in the
    span, and H contains the layer or misses it, so it is left out.
    Otherwise v = m g with g primitive, its first nonzero entry positive;
    the saturation of span(S) + Z chi is span(S) + Z gamma with
    gamma = g R^-1[c:].  The new Hermite basis, and the coordinates
    h R = (alpha, beta g) of each of its rows h as `rows`, are computed
    once per direction g.
    """
    c = len(span)
    smith = _smith_core(span, n)
    assert all(d == 1 for d in smith.diag), "layer span is not saturated"
    cols = list(zip(*smith.right))
    inside, quotient = cols[:c], cols[c:]  # chi -> a, chi -> v
    gamma_cols = list(zip(*smith.right_inverse[c:]))
    directions: dict[tuple[int, ...], tuple] = {}
    cuts = []
    for chi, num, dnm in hypersurfaces:
        v = [sum(map(mul, chi, col)) for col in quotient]
        if not any(v):
            continue
        m = gcd(*v)
        if next(x for x in v if x) < 0:
            m = -m
        g = tuple(x // m for x in v)
        known = directions.get(g)
        if known is None:
            gamma = [sum(map(mul, g, col)) for col in gamma_cols]
            new_span = hermite_basis([*span, gamma])
            p = next(i for i, x in enumerate(g) if x)
            rows = []
            for h in new_span:
                hv = [sum(map(mul, h, col)) for col in quotient]
                beta = hv[p] // g[p]
                assert hv == [beta * x for x in g], "Hermite row outside the new span"
                rows.append(([sum(map(mul, h, col)) for col in inside], beta))
            known = directions[g] = (new_span, rows)
        a = [sum(map(mul, chi, col)) for col in inside]
        cuts.append((a, m, g, *known, num, dnm))
    return smith.left, cuts


def _sublayers(
    phases: Sequence[tuple[int, int]], plan: tuple, max_layers: int | None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]]:
    """The components of layer ∩ H, for each hypersurface H that cuts the
    layer, in the order of the hypersurfaces and, within one H, in the
    order of their phase tuples.  The layer's phases, and each component,
    are given as keys: the Hermite basis of a span and (num, den) pairs.

    This is the phase pass over `plan`, the `_cut_plan` of the layer's
    span, which is built once per distinct span, per BFS level.  With phi
    the layer's phases over their common denominator, the
    rows of L S have phases psi = L phi, so chi's part in the span has
    phase a.psi, and the phase of gamma on the |m| components runs
    through the solutions of m phi(gamma) = t - a.psi; a Hermite row h
    has phase alpha.psi + beta phi(gamma).  Phases are integer numerators
    over one modulus d |m|, with d the lcm of the phase denominators.
    The components depend only on the class (g, |m|, target phase mod 1),
    so a hypersurface whose class was already cut at this layer gives
    nothing new and is skipped, after its component count is checked.
    """
    left, cuts = plan
    den = lcm(*(q for _, q in phases))
    phi = [p * (den // q) for p, q in phases]
    psi = [sum(map(mul, row, phi)) for row in left]
    seen = set()
    for a, m, g, new_span, rows, num, dnm in cuts:
        count = abs(m)
        _check_component_count(count, max_layers)
        # m phi(gamma) = base / d mod 1: phi(gamma) = (sign(m) base + k d) / (d |m|), 0 <= k < |m|
        d = lcm(den, dnm)
        s = d // den
        base = num * (d // dnm) - s * sum(map(mul, a, psi))
        if m < 0:
            base = -base
        target = base % d
        q = gcd(target, d)
        cut = (g, count, target // q, d // q)
        if cut in seen:
            continue
        seen.add(cut)
        modulus = d * count
        terms = [
            (s * count * sum(map(mul, alpha, psi)) + beta * base, beta * d) for alpha, beta in rows
        ]
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


def layer_search(
    n: int, arrangement: Sequence[ToricHypersurface], max_layers: int | None = None
) -> tuple[list[tuple], list[tuple[int, int]]]:
    """All layers as integer keys, in the order of `Layer.sort_key`, and
    the covers as sorted index pairs (i, j), layer j a maximal proper
    sublayer of layer i.  A key is a layer's span and its phases as
    reduced (num, den) pairs.

    Layers of codimension q+1 arise by intersecting codimension-q layers
    with single hypersurfaces; the keys deduplicate, so no subset
    enumeration happens.  A hypersurface whose character lies in the
    span of a layer either contains the layer or misses it, so it is
    skipped.  Any other one cuts the layer in components of one
    codimension more; each of them covers the layer, and every cover
    arises this way.  Each layer is cut in its quotient coordinates, not
    by solving the whole system again: one Smith form per distinct span,
    per BFS level, and one Hermite basis per new direction of it
    (`_cut_plan`), then one integer phase pass per layer (`_sublayers`).
    All layers of one level share a codimension, and so do the layers
    they cut, so the dedup index lives for one level, and a plan until
    the last layer of the level with its span is cut.  An intersection
    with more than `max_layers` components, or finding more than
    `max_layers` layers, raises ValueError.
    """
    for h in arrangement:
        if h.dim != n:
            raise ValueError("hypersurface of wrong ambient dimension")
    hypersurfaces = [(h.exponents, h.phase.numerator, h.phase.denominator) for h in arrangement]
    keys: list[tuple] = [((), ())]
    covers: set[tuple[int, int]] = set()
    frontier = [0]
    for _ in range(n):  # codimensions 0..n-1: a point lies on or off each hypersurface
        users = Counter(keys[y][0] for y in frontier)
        plans: dict[tuple[tuple[int, ...], ...], tuple] = {}
        index: dict[tuple, int] = {}
        next_frontier = []
        for y in frontier:
            span, phases = keys[y]
            users[span] -= 1
            plan = plans.pop(span, None) or _cut_plan(span, n, hypersurfaces)
            if users[span]:  # another layer of this level has the span
                plans[span] = plan
            for key in _sublayers(phases, plan, max_layers):
                j = index.get(key)
                if j is None:
                    if max_layers is not None and len(keys) >= max_layers:
                        raise ValueError("the arrangement has more than %d layers" % max_layers)
                    j = index[key] = len(keys)
                    keys.append(key)
                    next_frontier.append(j)
                covers.add((y, j))
        frontier = next_frontier
    # the order of `Layer.sort_key` without comparing Fractions: the phases
    # p/q, all in [0, 1), are the digits p * (M // q) of one integer in base
    # M, their common modulus, and layers of one codimension have as many
    modulus = lcm(*{q for _, phases in keys for _, q in phases})

    def sort_key(i):
        span, phases = keys[i]
        value = 0
        for p, q in phases:
            value = value * modulus + p * (modulus // q)
        return len(span), span, value

    order = sorted(range(len(keys)), key=sort_key)
    rank = {i: r for r, i in enumerate(order)}
    return [keys[i] for i in order], sorted((rank[a], rank[b]) for a, b in covers)


def torus_cohomology(d: int) -> tuple[tuple[int, int, int], ...]:
    """Graded cohomology of a d-torus: dim H^p = C(d, p), pure weight 2p.

    Returned as (degree, dimension, weight) triples.
    """
    return tuple((p, comb(d, p), 2 * p) for p in range(d + 1))
