"""Intersection posets against independent oracles.

The posets record their covers during the search and take mu from the
covers by Weisner's theorem.  Here the order is recomputed from scratch
(rank tests for flats, `layer_contains` for layers) and transitively
reduced, and each |mu(ambient, X)| is compared with the Moebius value of
the flat lattice of the local normals or characters at X, and each mu
with the down-set Moebius function of the covers, which assumes no
lattice.  Toric layers and their mu are also checked against
finite-field point counts, which use no Smith form.
"""

import pickle
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path
from time import perf_counter
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stratiform import leraymodel, matroidos, toriclayers
from stratiform.cli import parse_arrangement_file
from stratiform.exactalg import Matrix
from stratiform.leraymodel import (
    assemble_e2,
    betti_and_poincare,
    strata_data_from_hyperplanes,
    strata_data_from_toric,
)
from stratiform.matroidos import flat_order, flat_search, weisner_mobius
from stratiform.toriclayers import ToricHypersurface, _layer_name, layer_order, layer_search

import reference
from reference import (
    AffinePoset,
    Flat,
    FlatLattice,
    Layer,
    LayerPoset,
    LinearMatroid,
    affine_poset,
    lattice_contains,
    layer_contains,
    layer_poset,
    layers_from_equations,
    local_subarrangement,
    mobius_by_down_sets,
    rank,
    rref,
    saturate,
)

F = Fraction


def transitive_reduction(size, below):
    """Covers of the strict order `below(i, j)` on 0..size-1."""
    rel = {(i, j) for i in range(size) for j in range(size) if i != j and below(i, j)}
    return {
        (i, j) for (i, j) in rel
        if not any((i, k) in rel and (k, j) in rel for k in range(size))
    }


def local_mobius(vectors):
    """|mu(bottom, top)| of the lattice of flats of the given vectors."""
    lattice = FlatLattice(LinearMatroid(vectors))
    return abs(lattice.mobius[lattice.top])


def rank_below(poset, i, j):
    """flats[j] is inside flats[i], by the rank of the stacked systems."""
    fi, fj = poset.flats[i], poset.flats[j]
    if fi.codim > fj.codim:
        return False
    if not fi.key:
        return True
    return rank(Matrix([list(r) for r in fj.key + fi.key])) == fj.codim


def check_affine(n, hyperplanes):
    poset = affine_poset(n, hyperplanes)
    flats = poset.flats
    size = len(flats)
    assert set(poset.covers) == transitive_reduction(size, lambda i, j: rank_below(poset, i, j))
    for i in range(size):
        for j in range(size):
            # a flat lies inside another exactly when it is on all of its hyperplanes
            assert (flats[i].hyperplanes <= flats[j].hyperplanes) == rank_below(poset, i, j)
    for f, mu in zip(poset.flats, poset.mobius):
        assert abs(mu) == local_mobius([hyperplanes[j][0] for j in sorted(f.hyperplanes)])


def check_toric(n, arrangement):
    poset = layer_poset(n, arrangement)
    layers = poset.layers
    assert set(poset.covers) == transitive_reduction(
        len(layers), lambda i, j: layer_contains(layers[i], layers[j])
    )
    for layer, mu in zip(layers, poset.mobius):
        local = local_subarrangement(arrangement, layer)
        assert abs(mu) == local_mobius([h.exponents for h in local])


# -- the Fraction BFS, kept as the reference for the integer search --------


def _affine_poset_reference(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_flats: int | None = None
) -> AffinePoset:
    """Poset of nonempty intersections of affine hyperplanes {a.x = c}.

    Hyperplanes are (normal, constant) pairs with rational entries and a
    nonzero normal.  Deduplication is by the canonical echelon form of
    the defining system; empty intersections are dropped.  The flats of
    codimension q+1 are the nonempty intersections of a codimension-q
    flat X with a hyperplane not containing X.  Each of these covers X,
    and every cover arises this way, so the BFS records the covers.
    Finding more than `max_flats` flats raises ValueError.  The flats are
    sorted by (codimension, Fraction key) here, and the covers indexed by
    Fraction keys, independently of the integer order of the search.  A
    flat is named by its rows "(a1,...,an|c)", joined by ";".
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

    def make_flat(key) -> Flat:
        name = ";".join("(%s|%s)" % (",".join(map(str, row[:-1])), row[-1]) for row in key)
        return Flat(key, len(key), n - len(key), containing(key), name or "ambient")

    ambient_key: tuple = ()
    flats: dict[tuple, Flat] = {ambient_key: make_flat(ambient_key)}
    covers: set[tuple[tuple, tuple]] = set()
    frontier = [ambient_key]
    while frontier:
        new = []
        for key in frontier:
            flat = flats[key]
            for j, eq in enumerate(eqs):
                if j in flat.hyperplanes:
                    continue
                red, pivots = rref(Matrix(list(key) + [eq], ncols=n + 1))
                if n in pivots:
                    continue  # a pivot in the constant column: empty intersection
                new_key = red.rows[:len(pivots)]
                if new_key not in flats:
                    if max_flats is not None and len(flats) >= max_flats:
                        raise ValueError("the arrangement has more than %d flats" % max_flats)
                    flats[new_key] = make_flat(new_key)
                    new.append(new_key)
                covers.add((key, new_key))
        frontier = new
    order = tuple(sorted(flats.values(), key=lambda f: (f.codim, f.key)))
    index = {f.key: i for i, f in enumerate(order)}
    covers = tuple(sorted((index[x], index[y]) for x, y in covers))
    return AffinePoset(order, covers, mobius_by_down_sets(len(order), covers))


def assert_same_poset(n, hyperplanes):
    """The integer search and the Fraction reference agree exactly."""
    got = affine_poset(n, hyperplanes)
    want = _affine_poset_reference(n, hyperplanes)
    assert [(f.key, f.codim, f.dim, f.hyperplanes) for f in got.flats] == [
        (f.key, f.codim, f.dim, f.hyperplanes) for f in want.flats
    ]
    assert got.covers == want.covers
    assert got.mobius == want.mobius


def braid(n):
    out = []
    for i, j in combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, -1
        out.append((tuple(v), F(0)))
    return out


def b_type_characters(n):
    """x_i, x_i^2 and x_i x_j^(+-1): the characters of the toric arrangement B_n."""
    out = []
    for i in range(n):
        for e in (1, 2):
            out.append(tuple(e * int(k == i) for k in range(n)))
    for i, j in combinations(range(n), 2):
        for s in (1, -1):
            v = [0] * n
            v[i], v[j] = 1, s
            out.append(tuple(v))
    return out


def b_type_hyperplanes(n):
    """x_i = 0 and x_i = +-x_j: the central arrangement of type B_n."""
    return [(v, F(0)) for v in b_type_characters(n) if max(map(abs, v)) == 1]


REFERENCE_CASES = {
    "braid-4": (4, braid(4)),
    "braid-5": (5, braid(5)),
    "braid-6": (6, braid(6)),
    "B3": (3, b_type_hyperplanes(3)),
    "B4": (4, b_type_hyperplanes(4)),
    "exact and scaled duplicates": (3, [((1, 1, 0), F(1)), ((1, 1, 0), F(1)), ((-2, -2, 0), F(-2)),
                                        ((0, 1, 1), F(0)), ((0, 3, 3), F(0)), ((1, 0, 0), F(2))]),
    "parallel families": (3, [((1, 0, 0), F(k)) for k in range(3)]
                          + [((0, 1, 0), F(k)) for k in range(2)]
                          + [((1, 1, 0), F(1)), ((2, 2, 0), F(3)), ((0, 0, 1), F(-1))]),
    "rational normals and constants": (3, [((F(1, 3), 1, 0), F(-2, 5)), ((1, F(-2, 5), 0), F(1, 3)),
                                           ((0, F(1, 3), F(-2, 5)), F(0)), ((F(1, 6), 0, F(5, 4)), F(7, 6)),
                                           ((F(2, 3), 2, 0), F(-4, 5)), ((1, 1, 1), F(-1, 2))]),
    # primitive rows (2, 1 | 0) > (1, 1 | 0), but (1, 1/2 | 0) < (1, 1 | 0)
    "pivots scaled to a common multiple": (2, [((2, 1), F(0)), ((1, 1), F(0))]),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_affine_poset_matches_fraction_reference(name):
    assert_same_poset(*REFERENCE_CASES[name])


_FRACTIONS = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.tuples(st.tuples(*[_FRACTIONS] * n).filter(any), _FRACTIONS),
            min_size=1,
            max_size=6,
        ).map(lambda hyperplanes: (n, hyperplanes))
    )
)
def test_random_affine_posets_match_fraction_reference(arrangement):
    assert_same_poset(*arrangement)


_INTEGERS = st.integers(-9, 9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.tuples(st.tuples(*[_INTEGERS] * n).filter(any), _INTEGERS),
            min_size=1,
            max_size=6,
        ).map(lambda hyperplanes: (n, hyperplanes))
    )
)
def test_random_integer_affine_posets_match_fraction_reference(arrangement):
    """Integer entries in [-9, 9], so that the pivots and their lcm vary widely."""
    assert_same_poset(*arrangement)


def affine_poset_or_error(build, n, hyperplanes, max_flats=None):
    try:
        poset = build(n, hyperplanes, max_flats)
    except ValueError as exc:
        return str(exc)
    return [(f.key, f.codim, f.dim, f.hyperplanes, f.name) for f in poset.flats], poset.covers, poset.mobius


@st.composite
def drawn_arrangements(draw, lowest_dim=1):
    """n = lowest_dim..4, entries in [-3, 3]; a row may repeat an earlier
    one scaled by +-1, +-2 or 3, with its constant scaled alike (an exact
    or scaled duplicate) or then shifted (a parallel hyperplane)."""
    n = draw(st.integers(lowest_dim, 4))
    normals = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    hyperplanes = []
    for _ in range(draw(st.integers(1, 6))):
        if hyperplanes and draw(st.booleans()):
            normal, c = draw(st.sampled_from(hyperplanes))
            scale = draw(st.sampled_from((1, -1, 2, -2, 3)))
            hyperplanes.append((tuple(scale * x for x in normal), scale * c + draw(st.integers(-2, 2))))
        else:
            hyperplanes.append((draw(normals), draw(st.integers(-3, 3))))
    return n, hyperplanes


@settings(max_examples=150, deadline=None)
@given(drawn_arrangements(), st.none() | st.integers(1, 40))
def test_drawn_affine_posets_match_fraction_reference_at_a_limit(arrangement, max_flats):
    """The same flats, names, covers and mu, or the same refusal."""
    got = affine_poset_or_error(affine_poset, *arrangement, max_flats)
    assert got == affine_poset_or_error(_affine_poset_reference, *arrangement, max_flats)


@settings(max_examples=150, deadline=None)
@given(drawn_arrangements(lowest_dim=2))
def test_drawn_strata_in_search_order_match_the_poset(arrangement):
    """The E2 commands' strata come in the order the search finds the
    flats.  Matched one to one by mask, each has the name, read after a
    pickle round trip, the codimension and the |mu| of the reference
    poset's flat with the same hyperplanes."""
    n, hyperplanes = arrangement
    masks = flat_search(n, hyperplanes)[0]
    strata = pickle.loads(pickle.dumps(strata_data_from_hyperplanes(n, hyperplanes))).strata
    poset = affine_poset(n, hyperplanes)
    by_mask = {sum(1 << j for j in f.hyperplanes): (f, mu) for f, mu in zip(poset.flats, poset.mobius)}
    assert len(strata) == len(masks) == len(set(masks)) == len(by_mask) == len(poset.flats)
    for stratum, mask in zip(strata, masks):
        flat, mu = by_mask[mask]
        assert (stratum.key, stratum.codim, stratum.local_dim) == (flat.name, flat.codim, abs(mu))


AFFINE_CASES = {
    "braid-3": (3, braid(3)),
    "braid-4": (4, braid(4)),
    "B3": (3, b_type_hyperplanes(3)),
    "generic lines": (2, [((1, 0), F(0)), ((0, 1), F(0)), ((1, 1), F(1)), ((1, -1), F(3))]),
    "parallel pair": (2, [((1, 0), F(0)), ((1, 0), F(1))]),
    "pencil and a line": (2, [((1, 0), F(0)), ((0, 1), F(0)), ((1, 1), F(0)), ((1, 1), F(2))]),
    "affine planes": (3, [((1, 0, 0), F(0)), ((0, 1, 0), F(1)), ((1, 1, 0), F(1)),
                          ((0, 0, 1), F(0)), ((1, 1, 1), F(2, 3))]),
}


def _toric(n, equations):
    return n, [ToricHypersurface(chi, t, k) for k, (chi, t) in enumerate(equations)]


TORIC_CASES = {
    "B2": _toric(2, [(chi, F(0)) for chi in b_type_characters(2)]),
    "B3": _toric(3, [(chi, F(0)) for chi in b_type_characters(3)]),
    "twisted 2-torus": _toric(2, [((2, 0), F(1, 2)), ((0, 1), F(1, 3)), ((1, 1), F(1, 4)),
                                  ((1, -2), F(0)), ((2, 2), F(1, 2))]),
    "circle": _toric(1, [((6,), F(1, 7)), ((4,), F(0)), ((3,), F(1, 2))]),
    "repeated characters": _toric(2, [((1, 1), F(0)), ((1, 1), F(1, 2)), ((2, 2), F(0)),
                                      ((1, 0), F(0))]),
}


@pytest.mark.parametrize("name", sorted(AFFINE_CASES))
def test_affine_poset_against_rank_order(name):
    check_affine(*AFFINE_CASES[name])


@pytest.mark.parametrize("name", sorted(TORIC_CASES))
def test_layer_poset_against_containment_order(name):
    check_toric(*TORIC_CASES[name])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=6 if n == 2 else 5,
        )
    )
)
def test_random_affine_posets(hyperplanes):
    check_affine(len(hyperplanes[0][0]), [(a, F(c)) for a, c in hyperplanes])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
            st.integers(1, 4).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q))),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_random_two_tori(equations):
    check_toric(*_toric(2, equations))


def complement_point_count(n, arrangement, q):
    """Points x of (Z/q)^n off every hypersurface: chi.x != t q (mod q).

    x stands for the torsion point exp(2 pi i x / q) of the torus.
    """
    targets = []
    for h in arrangement:
        tq = h.phase * q
        assert tq.denominator == 1
        targets.append((h.exponents, int(tq)))
    return sum(
        all((sum(c * x for c, x in zip(chi, point)) - tq) % q for chi, tq in targets)
        for point in product(range(q), repeat=n)
    )


def check_point_count(n, arrangement):
    """The characteristic quasi-polynomial sum_L mu(L) q^dim L counts the
    complement's q-torsion points when every layer phase has denominator
    dividing q (Kamiya-Takemura-Terao 2008)."""
    poset = layer_poset(n, arrangement)
    period = lcm(*(t.denominator for layer in poset.layers for t in layer.phases))
    for q in (period, 2 * period):
        expected = sum(mu * q ** layer.dim for layer, mu in zip(poset.layers, poset.mobius))
        assert complement_point_count(n, arrangement, q) == expected


def b3_translate():
    """B3 moved by the torsion point (1/2, 1/3, 0): phases <chi, w>."""
    w = (F(1, 2), F(1, 3), F(0))
    return _toric(3, [(chi, sum(c * x for c, x in zip(chi, w))) for chi in b_type_characters(3)])


POINT_COUNT_CASES = {
    "B2": TORIC_CASES["B2"],
    "B3 translate": b3_translate(),
    "eq 12 : 1/4": _toric(1, [((12,), F(1, 4))]),
    "twisted 2-torus": TORIC_CASES["twisted 2-torus"],
    "circle": TORIC_CASES["circle"],
}


@pytest.mark.parametrize("name", sorted(POINT_COUNT_CASES))
def test_layer_mobius_against_point_counts(name):
    check_point_count(*POINT_COUNT_CASES[name])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
            st.integers(1, 4).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q))),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_random_two_tori_against_point_counts(equations):
    check_point_count(*_toric(2, equations))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(-1, 1)] * 3).filter(any),
            st.integers(1, 2).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q))),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_random_three_tori_against_point_counts(equations):
    check_point_count(*_toric(3, equations))


# -- the whole-system BFS, kept as the reference for the quotient-coordinate search


def _layer_poset_reference(
    n: int, arrangement: Sequence[ToricHypersurface], max_layers: int | None = None
) -> LayerPoset:
    """Poset of all layers, with covers recorded during the BFS.

    Layers of codimension q+1 arise by intersecting codimension-q layers
    with single hypersurfaces; canonical keys deduplicate, so no subset
    enumeration happens.  A hypersurface whose character lies in the
    span of a layer either contains the layer or misses it, so it is
    skipped.  Any other one cuts the layer in components of one
    codimension more; each of them covers the layer, and every cover
    arises this way.  Finding more than `max_layers` layers raises
    ValueError.
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
            eqs = layer.equations()
            for h in arrangement:
                if lattice_contains(layer.span, h.exponents):
                    continue
                for comp in layers_from_equations(n, eqs + [(h.exponents, h.phase)], max_layers):
                    if comp.key not in found:
                        if max_layers is not None and len(found) >= max_layers:
                            raise ValueError("the arrangement has more than %d layers" % max_layers)
                        found[comp.key] = comp
                        next_frontier.append(comp)
                    covers.add((layer.key, comp.key))
        frontier = next_frontier
    layers = tuple(sorted(found.values(), key=lambda l: l.sort_key))
    index = {l.key: i for i, l in enumerate(layers)}
    covers = tuple(sorted((index[a], index[b]) for a, b in covers))
    return LayerPoset(layers, covers, mobius_by_down_sets(len(layers), covers))


def layer_poset_or_error(build, n, arrangement, max_layers=None):
    try:
        poset = build(n, arrangement, max_layers)
    except ValueError as exc:
        return str(exc)
    return poset.layers, poset.covers, poset.mobius


def assert_same_layer_poset(n, arrangement, max_layers=None):
    """The quotient-coordinate search and the whole-system reference agree
    exactly: layers, covers and mu, or the error message at a limit."""
    got = layer_poset_or_error(layer_poset, n, arrangement, max_layers)
    want = layer_poset_or_error(_layer_poset_reference, n, arrangement, max_layers)
    assert got == want


GOLDEN_FILES = {
    path.stem: parse_arrangement_file(path.read_text())
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.arr"))
}
GOLDEN_TORIC = {
    stem: (af.dim, [ToricHypersurface(e.coeffs, e.constant, e.label) for e in af.equations])
    for stem, af in GOLDEN_FILES.items()
    if af.kind == "toric"
}

LAYER_REFERENCE_CASES = {
    "B2": TORIC_CASES["B2"],
    "B3": TORIC_CASES["B3"],
    "B4": _toric(4, [(chi, F(0)) for chi in b_type_characters(4)]),
    "B3 translate": b3_translate(),
    "B2 over a limit of 10 layers": (*TORIC_CASES["B2"], 10),  # it has 11
    "B3 translate over a limit of 48 layers": (*b3_translate(), 48),  # it has 49
    # chi and -chi with opposite phases are one hypersurface: the second
    # of each pair repeats the first one's class on every layer it cuts
    "opposite characters": _toric(2, [((2, 2), F(1, 3)), ((-2, -2), F(2, 3)), ((1, 0), F(0)),
                                      ((-1, 0), F(0)), ((0, 1), F(1, 2)), ((1, -1), F(1, 4))]),
    # on the circle x = 1 the class of y = e^(2 pi i/3) repeats, and then
    # x y^12 = 1 cuts it in 12 points
    "a repeated class before too many components": _toric(
        2, [((1, 0), F(0)), ((0, 1), F(1, 3)), ((0, -1), F(2, 3)), ((1, 12), F(0))]
    ) + (10,),
    **{"golden " + stem: torus for stem, torus in GOLDEN_TORIC.items()},
}


def test_golden_toric_files_are_found():
    assert set(GOLDEN_TORIC) == {"b2", "b3", "circle150", "twisted_torus"}


@pytest.mark.parametrize("name", sorted(LAYER_REFERENCE_CASES))
def test_layer_poset_matches_whole_system_reference(name):
    assert_same_layer_poset(*LAYER_REFERENCE_CASES[name])


@pytest.mark.parametrize(
    "name, message",
    [
        ("B2 over a limit of 10 layers", "the arrangement has more than 10 layers"),
        ("B3 translate over a limit of 48 layers", "the arrangement has more than 48 layers"),
        (
            "a repeated class before too many components",
            "an intersection has 12 components, more than the limit of 10",
        ),
    ],
)
def test_reference_cases_at_a_limit(name, message):
    assert layer_poset_or_error(layer_poset, *LAYER_REFERENCE_CASES[name]) == message


@st.composite
def drawn_tori(draw):
    """n = 1..4, exponents in [-3, 3], phase denominators <= 6; a character
    may repeat an earlier one or be a multiple of it."""
    n = draw(st.integers(1, 4))
    characters = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    phases = st.integers(1, 6).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))
    equations = []
    for _ in range(draw(st.integers(1, 5 if n < 4 else 4))):
        if equations and draw(st.booleans()):
            chi, _ = draw(st.sampled_from(equations))
            scale = draw(st.sampled_from((1, 1, -1, 2, -2, 3)))
            chi = tuple(scale * x for x in chi)
        else:
            chi = draw(characters)
        equations.append((chi, draw(phases)))
    return _toric(n, equations)


@settings(max_examples=150, deadline=None)
@given(drawn_tori(), st.none() | st.integers(1, 40))
def test_drawn_layer_posets_match_whole_system_reference(torus, max_layers):
    assert_same_layer_poset(*torus, max_layers)


@settings(max_examples=150, deadline=None)
@given(drawn_tori())
def test_drawn_toric_strata_in_search_order_match_the_poset(torus):
    """The E2 commands' toric strata come in the order the search finds the
    layers: by codimension, the ambient first.  Matched one to one by
    name, each has the name, read after a pickle round trip, the
    codimension and the |mu| of the reference poset's layer."""
    n, arrangement = torus
    keys = layer_search(n, arrangement)[0]
    strata = pickle.loads(pickle.dumps(strata_data_from_toric(n, arrangement))).strata
    poset = layer_poset(n, arrangement)
    by_name = {layer.key: (layer, mu) for layer, mu in zip(poset.layers, poset.mobius)}
    assert len(strata) == len(keys) == len(by_name) == len(poset.layers)
    assert [s.codim for s in strata] == sorted(s.codim for s in strata)
    for stratum, (span, phases) in zip(strata, keys):
        layer, mu = by_name[_layer_name(span, phases)]
        assert (stratum.key, stratum.codim, stratum.local_dim) == (layer.key, layer.codim, abs(mu))


# -- path independence of the flat bitmask that names a span in the search


def independent_rows(rows):
    """A maximal independent subset of `rows`, taken greedily in order."""
    chosen = []
    for row in rows:
        if rank(Matrix([*chosen, row])) > len(chosen):
            chosen.append(row)
    return chosen


def flats_of_search(n, arrangement):
    """The keys and covers of `layer_search`, and the Hermite bases it kept
    by flat bitmask, read from the last argument of its `_cut_plan` calls."""
    with mock.patch.object(toriclayers, "_cut_plan", wraps=toriclayers._cut_plan) as cut_plan:
        keys, covers, _ = layer_search(n, arrangement)
    flats = cut_plan.call_args.args[-1] if cut_plan.called else {}
    return keys, covers, flats


def assert_spans_are_flats(n, arrangement):
    """Every span the search meets is the saturation of the characters of
    the hypersurfaces in its flat, so one bitmask names one span whichever
    layer and direction reach it: for each key's span, and for each
    bitmask the search kept a Hermite basis under, with the flat's bits
    recomputed from scratch by lattice membership."""
    keys, _, flats = flats_of_search(n, arrangement)
    characters = [h.exponents for h in arrangement]

    def flat(span):
        return sum(1 << i for i, chi in enumerate(characters) if lattice_contains(span, chi))

    def saturation(bits):
        return saturate(independent_rows([chi for i, chi in enumerate(characters) if bits >> i & 1]))

    spans = {span for span, _ in keys}
    for span in spans:
        assert saturation(flat(span)) == span
    for bits, span in flats.items():
        assert flat(span) == bits and saturation(bits) == span
    assert set(flats.values()) == spans - {()}


# two parents of different spans reach the plane of x and y, by y from
# x = 1, by x from y = -1, and by y from xy = i
TWO_PARENTS = _toric(3, [((1, 0, 0), F(0)), ((0, 1, 0), F(1, 2)), ((1, 1, 0), F(1, 4)),
                         ((0, 0, 1), F(0))])
# x, x^2 and x^-3 share one direction, so their flat holds all three bits
PARALLEL = _toric(2, [((1, 0), F(0)), ((0, 1), F(1, 3)), ((2, 0), F(1, 2)), ((-3, 0), F(1, 3))])


@pytest.mark.parametrize(
    "name, torus",
    [("B3 translate", b3_translate()), ("B4", LAYER_REFERENCE_CASES["B4"]),
     ("two parents", TWO_PARENTS), ("parallel characters", PARALLEL)],
)
def test_spans_are_flats(name, torus):
    assert_spans_are_flats(*torus)


def test_two_parents_reach_one_flat(count_calls):
    """The plane of x and y covers layers of three spans, and its Hermite
    basis is computed once: one per span strictly between the ambient
    and the full lattice."""
    calls = count_calls(toriclayers, "hermite_basis")
    keys, covers, flats = flats_of_search(*TWO_PARENTS)
    plane = ((1, 0, 0), (0, 1, 0))
    parents = {keys[i][0] for i, j in covers if keys[j][0] == plane}
    assert parents == {((1, 0, 0),), ((0, 1, 0),), ((1, 1, 0),)}
    assert flats[0b0111] == plane
    assert calls["hermite_basis"] == len({span for span, _ in keys if 0 < len(span) < 3})


def test_parallel_characters_share_a_flat(count_calls):
    """From the ambient, x, x^2 and x^-3 have one direction: one flat,
    bits 0, 2 and 3, and one Hermite basis, as for y alone."""
    calls = count_calls(toriclayers, "hermite_basis")
    keys, _, flats = flats_of_search(*PARALLEL)
    assert flats == {0b1101: ((1, 0),), 0b0010: ((0, 1),), 0b1111: ((1, 0), (0, 1))}
    assert calls["hermite_basis"] == 2  # Z^2 is the identity rows
    assert sum(1 for span, _ in keys if span == ((1, 0),)) == 6  # x = 1, x^2 = -1, x^-3 = w


@settings(max_examples=80, deadline=None)
@given(drawn_tori())
def test_drawn_spans_are_flats(torus):
    assert_spans_are_flats(*torus)


def test_b5_betti_within_two_seconds():
    """Gate: the toric arrangement B5 (1,539 layers, 9,062 covers)."""
    start = perf_counter()
    hypersurfaces = _toric(5, [(chi, F(0)) for chi in b_type_characters(5)])
    result = betti_and_poincare(assemble_e2(strata_data_from_toric(*hypersurfaces)))
    elapsed = perf_counter() - start
    assert result.betti == (1, 35, 470, 3010, 9129, 10395)
    assert elapsed < 2.0, "B5 betti took %.2f s" % elapsed


def test_b5_lattice_work(count_calls):
    """Work gate beside the wall-clock one, which moves with the host: one
    unimodular completion per distinct span of a layer that is not a point
    (647 spans for 1,507 such layers; one Smith form each before) and one
    Hermite basis per distinct span strictly between the ambient and the
    full lattice (646, against 3,396 pairs of such a span and the span of
    a cover)."""
    calls = count_calls(toriclayers, "_completion", "hermite_basis")
    keys, covers, _ = layer_search(*_toric(5, [(chi, F(0)) for chi in b_type_characters(5)]))
    assert (len(keys), len(covers)) == (1539, 9062)
    assert (calls["_completion"], calls["hermite_basis"]) == (647, 646)


def test_b6_betti_and_lattice_work(count_calls, monkeypatch):
    """B6 (10,299 layers, 79,030 covers) through the E2 route, with its
    work counted in the same run: one unimodular completion per distinct
    span of a layer that is not a point (4,087; one Smith form each
    before) and one Hermite basis per distinct span strictly between the
    ambient and the full lattice (4,086, against 28,384 pairs of such a
    span and the span of a cover).  The layers and covers are read from
    the unordered search the E2 route runs.  No wall-clock bound: the
    counters show a regression that the host's speed would hide."""
    calls = count_calls(toriclayers, "_completion", "hermite_basis")
    searches = []

    def search(*args):
        searches.append(layer_search(*args))
        return searches[-1]

    monkeypatch.setattr(leraymodel, "layer_search", search)
    data = strata_data_from_toric(*_toric(6, [(chi, F(0)) for chi in b_type_characters(6)]))
    result = betti_and_poincare(assemble_e2(data))
    assert result.betti == (1, 48, 925, 9120, 48259, 129072, 135135)
    ((keys, covers, mobius),) = searches
    assert (len(data.strata), len(keys), len(mobius), len(covers)) == (10299, 10299, 10299, 79030)
    assert (calls["_completion"], calls["hermite_basis"]) == (4087, 4086)


def test_layer_poset_lattice_work_on_b4(count_calls):
    """Work gate: the whole-system solve and the Smith form are off the
    BFS path (they live with the oracles); there is one unimodular
    completion per distinct span of a layer that is not a point (115
    spans for 241 such layers; one Smith form each before), and one
    Hermite basis per distinct span strictly between the ambient and the
    full lattice (114, against 432 pairs of such a span and the span of a
    cover, 716 pairs of a layer and a cover span, and 1,100 covers)."""
    calls = count_calls(toriclayers, "_completion", "hermite_basis")
    oracles = count_calls(reference, "_smith_core", "layers_from_equations")
    keys, covers, _ = layer_search(*LAYER_REFERENCE_CASES["B4"])
    assert (len(keys), len(covers)) == (257, 1100)
    assert oracles == {}
    spans = {span for span, _ in keys if len(span) < 4}
    assert calls["_completion"] == len(spans) == 115
    assert calls["hermite_basis"] == len(spans - {()}) == 114


def test_layer_poset_lattice_work_on_b3_translate(count_calls):
    """Work gate: one unimodular completion per distinct span of a layer
    that is not a point (23; one Smith form each before), and one Hermite
    basis per distinct span strictly between the ambient and the full
    lattice (22), for B3 moved off the identity."""
    calls = count_calls(toriclayers, "_completion", "hermite_basis")
    keys, covers, _ = layer_search(*b3_translate())
    assert (len(keys), len(covers)) == (49, 140)
    spans = {span for span, _ in keys if len(span) < 3}
    assert calls["_completion"] == len(spans) == 23
    assert calls["hermite_basis"] == len(spans - {()}) == 22


def count_matrix_work(count_calls):
    """A Counter of `Matrix` constructions from now on; the package holds no
    rational elimination to count."""
    calls = count_calls(Matrix, "__init__")
    Matrix([[1]])
    assert set(calls) == {"__init__"}  # the counter counts
    calls.clear()
    return calls


def test_layer_poset_makes_no_rational_elimination(count_calls):
    """Work gate: the toric BFS is integer-only, so it builds no `Matrix`."""
    calls = count_matrix_work(count_calls)
    keys, _, _ = layer_search(*b3_translate())
    assert len(keys) == 49
    assert calls == {}


def test_layer_poset_compares_no_fractions(count_calls):
    """Work gate: the search and `layer_order`, which sorts the layers on
    integer phase numerators over one modulus, in the order of
    `Layer.sort_key`, compare no Fractions."""
    calls = count_calls(F, "__eq__", "__lt__")
    layer_order(layer_search(*b3_translate()))
    assert calls == {}
    layers = layer_poset(*b3_translate()).layers
    assert [layer.sort_key for layer in layers] == sorted(layer.sort_key for layer in layers)


def test_affine_poset_makes_no_rational_elimination(count_calls):
    """Work gate: the affine BFS, and the keys and order made from it, are
    integer-only too."""
    calls = count_matrix_work(count_calls)
    assert len(flat_order(flat_search(5, braid(5)))[0]) == 52
    rational = REFERENCE_CASES["rational normals and constants"]
    assert len(flat_order(flat_search(*rational))[0]) > 1
    assert calls == {}


def test_flat_mobius_matches_flat_lattice():
    """mu of the central arrangement of these normals, as `flat_search`
    returns it and as `flat_order` orders it, against the lattice of flats
    of the same vectors, its mu summed over whole intervals, matched by
    mask (the bits of a flat's elements; in `flat_order`'s order, the
    hyperplanes that `affine_poset` finds through each flat by rank); and
    `weisner_mobius` on the lattice's own covers, the lowest element of a
    flat its atom."""
    for vectors in ([(1, 0), (0, 1), (1, 1)], [v for v, _ in b_type_hyperplanes(3)],
                    [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)]):
        lattice = FlatLattice(LinearMatroid(vectors))
        index = {f: i for i, f in enumerate(lattice.flats)}
        covers = [(index[f], index[g]) for f, g in lattice.covers]
        masks = [sum(1 << e for e in f) for f in lattice.flats]
        mobius = [lattice.mobius[f] for f in lattice.flats]
        assert weisner_mobius(masks, [m & -m for m in masks], covers) == mobius
        assert tuple(mobius) == mobius_by_down_sets(len(lattice.flats), covers)
        by_mask = dict(zip(masks, mobius))
        hyperplanes = [(v, 0) for v in vectors]
        search_masks, _, _, _, search_mobius = flat_search(len(vectors[0]), hyperplanes)
        assert sorted(search_masks) == sorted(by_mask)
        assert search_mobius == [by_mask[m] for m in search_masks]
        poset = affine_poset(len(vectors[0]), hyperplanes)
        assert list(poset.mobius) == [by_mask[sum(1 << j for j in f.hyperplanes)] for f in poset.flats]


def test_mobius_by_down_sets_small_posets():
    assert mobius_by_down_sets(1, []) == (1,)
    assert mobius_by_down_sets(3, [(0, 1), (1, 2)]) == (1, -1, 0)  # a chain
    assert mobius_by_down_sets(4, [(0, 1), (0, 2), (1, 3), (2, 3)]) == (1, -1, -1, 1)
    # not a lattice: two minimal upper bounds of 1 and 2
    assert mobius_by_down_sets(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)]) == (1, -1, -1, 1, 1)


# -- the Weisner step against the down-set Moebius function -----------------


def assert_flat_mobius_matches_down_sets(n, hyperplanes):
    """mu as `flat_search` returns it, with its covers in the order it finds
    them (the E2 commands), and as `flat_order` returns it, with its
    sorted covers (`poset` and `strata`), is the down-set mu of the same
    covers."""
    search = flat_search(n, hyperplanes)
    masks, _, _, covers, mobius = search
    assert tuple(mobius) == mobius_by_down_sets(len(masks), covers)
    keys, covers, mobius = flat_order(search)
    assert tuple(mobius) == mobius_by_down_sets(len(keys), covers)


def assert_layer_mobius_matches_down_sets(n, arrangement):
    keys, covers, mobius = layer_search(n, arrangement)
    assert tuple(mobius) == mobius_by_down_sets(len(keys), covers)


@st.composite
def drawn_rational_arrangements(draw):
    """n = 1..4, entries p/q with |p| <= 4 and q <= 3; a hyperplane may
    repeat an earlier one scaled by a nonzero p/q, with its constant
    scaled alike (a repeat) or shifted (a parallel hyperplane)."""
    n = draw(st.integers(1, 4))
    entries = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    hyperplanes = []
    for _ in range(draw(st.integers(1, 6))):
        if hyperplanes and draw(st.booleans()):
            normal, c = draw(st.sampled_from(hyperplanes))
            scale = draw(entries.filter(bool))
            shift = draw(st.sampled_from((0, 0, 1, F(-1, 2), F(2, 3))))
            hyperplanes.append((tuple(scale * x for x in normal), scale * c + shift))
        else:
            hyperplanes.append((draw(st.tuples(*[entries] * n).filter(any)), draw(entries)))
    return n, hyperplanes


class TestWeisnerAgainstDownSets:
    """Production mu, by `weisner_mobius`, equals the down-set mu of the
    same covers, which assumes no lattice.  The toric search joins each
    level's covers from a set, so this must hold whatever order the set
    iterates in; CI runs the class under two fixed hash seeds."""

    @pytest.mark.parametrize("stem", sorted(stem for stem, af in GOLDEN_FILES.items() if af.kind != "strata"))
    def test_golden_files(self, stem):
        af = GOLDEN_FILES[stem]
        if af.kind == "toric":
            assert_layer_mobius_matches_down_sets(*GOLDEN_TORIC[stem])
        else:
            assert_flat_mobius_matches_down_sets(af.dim, [(e.coeffs, e.constant) for e in af.equations])

    def test_braid6_and_hyperplane_b4(self):
        assert_flat_mobius_matches_down_sets(6, braid(6))
        assert_flat_mobius_matches_down_sets(4, b_type_hyperplanes(4))

    def test_toric_b4(self):
        assert_layer_mobius_matches_down_sets(*LAYER_REFERENCE_CASES["B4"])

    @settings(max_examples=300, deadline=None)
    @given(drawn_rational_arrangements())
    def test_drawn_affine_arrangements(self, arrangement):
        assert_flat_mobius_matches_down_sets(*arrangement)

    @settings(max_examples=400, deadline=None)
    @given(drawn_tori())
    def test_drawn_tori(self, torus):
        assert_layer_mobius_matches_down_sets(*torus)


def test_weisner_mobius_reads_each_cover_once(count_calls):
    """Work gate: each search computes mu by one `weisner_mobius` call,
    which reads each distinct cover once, 140 on the B3 translate and 160
    on braid-5.  The order functions carry the search's mu over, and the
    E2 route reads it off the search, so neither computes it again."""
    for module, search, order, strata, args, count in (
        (toriclayers, layer_search, layer_order, strata_data_from_toric, b3_translate(), 140),
        (matroidos, flat_search, flat_order, strata_data_from_hyperplanes, (5, braid(5)), 160),
    ):
        calls = count_calls(module, "weisner_mobius")
        found = search(*args)
        ((*_, read),) = calls.args["weisner_mobius"]
        assert sorted(read) == sorted(set(read)) == sorted(found[-2]) and len(read) == count
        calls.clear()
        order(found)
        assert calls == {}
        strata(*args)
        assert calls["weisner_mobius"] == 1


def test_braid6_betti_is_the_product_formula():
    poly = [1]
    for k in range(1, 6):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    result = betti_and_poincare(assemble_e2(strata_data_from_hyperplanes(6, braid(6))))
    assert result.betti == tuple(poly) == (1, 15, 85, 225, 274, 120)


def test_braid7_betti_within_one_second(count_calls):
    """The wall-clock bound moves with the host, so a work gate stands
    beside it, counted outside the timed run.  The search makes no `_meet`
    and 2,380 `_clear` steps, each on a row a new flat inherits from the
    flat it covers, only where that row is nonzero in the new pivot
    column.  Ordering the flats makes one `_meet` per flat other than the
    ambient, with 517 `_clear` steps on the rows of the keys."""
    start = perf_counter()
    result = betti_and_poincare(assemble_e2(strata_data_from_hyperplanes(7, braid(7))))
    elapsed = perf_counter() - start
    assert result.betti == (1, 21, 175, 735, 1624, 1764, 720)
    assert elapsed < 1.0, "braid-7 betti took %.2f s" % elapsed
    calls = count_calls(matroidos, "_meet", "_clear")
    search = flat_search(7, braid(7))
    assert (len(search[0]), len(search[3])) == (877, 4802)
    assert (calls["_meet"], calls["_clear"]) == (0, 2380)
    calls.clear()
    flat_order(search)
    assert (calls["_meet"], calls["_clear"]) == (876, 517)


def test_affine_poset_hashes_and_orders_no_fractions(count_calls):
    """Work gate: the flats are ordered and the covers indexed on integer
    keys, and named from them, so braid-6's poset neither hashes a
    `Fraction` nor compares two by order."""
    calls = count_calls(Fraction, "__hash__", "__lt__")
    assert hash(F(1, 2)) and F(1, 2) < F(1)
    assert set(calls) == {"__hash__", "__lt__"}  # the counters count
    calls.clear()
    keys, _, _ = flat_order(flat_search(6, braid(6)))
    text = {}
    assert len({matroidos._flat_name(key, text) for key in keys}) == 203
    assert calls == {}


def test_braid8_betti_is_the_product_formula():
    data = strata_data_from_hyperplanes(8, braid(8))
    assert len(data.strata) == 4140
    result = betti_and_poincare(assemble_e2(data))
    assert result.betti == (1, 28, 322, 1960, 6769, 13132, 13068, 5040)
