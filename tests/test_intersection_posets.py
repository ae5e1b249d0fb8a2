"""Intersection posets against independent oracles.

The posets record their covers during the search and take mu from the
covers.  Here the order is recomputed from scratch (rank tests for
flats, `layer_contains` for layers) and transitively reduced, and each
|mu(ambient, X)| is compared with the Moebius value of the flat lattice
of the local normals or characters at X.  Toric layers and their mu are
also checked against finite-field point counts, which use no Smith form.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from stratiform.exactalg import Matrix
from stratiform.leraymodel import assemble_e2, betti_and_poincare, strata_data_from_hyperplanes
from stratiform.matroidos import (
    FlatLattice,
    LinearMatroid,
    affine_intersection_poset,
    mobius_from_covers,
)
from stratiform.toriclayers import (
    ToricHypersurface,
    build_layer_poset,
    layer_contains,
    local_subarrangement,
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
    return Matrix([list(r) for r in fj.key + fi.key]).rank() == fj.codim


def check_affine(n, hyperplanes):
    poset = affine_intersection_poset(n, hyperplanes)
    size = len(poset.flats)
    assert set(poset.covers) == transitive_reduction(size, lambda i, j: rank_below(poset, i, j))
    for i in range(size):
        for j in range(size):
            assert poset.leq(i, j) == rank_below(poset, i, j)
    for f, mu in zip(poset.flats, poset.mobius):
        assert abs(mu) == local_mobius([hyperplanes[j][0] for j in sorted(f.hyperplanes)])


def check_toric(n, arrangement):
    poset = build_layer_poset(n, arrangement)
    layers = poset.layers
    assert set(poset.covers) == transitive_reduction(
        len(layers), lambda i, j: layer_contains(layers[i], layers[j])
    )
    for layer, mu in zip(layers, poset.mobius):
        local = local_subarrangement(arrangement, layer)
        assert abs(mu) == local_mobius([h.exponents for h in local])


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
    poset = build_layer_poset(n, arrangement)
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


def test_layer_poset_makes_no_rational_elimination(monkeypatch):
    """Work gate: the toric BFS is integer-only, so it builds no `Matrix`
    and runs no rref or solve."""
    calls = Counter()
    for name in ("__init__", "rref", "solve"):
        def counting(self, *args, _name=name, _original=getattr(Matrix, name), **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(Matrix, name, counting)
    Matrix([[1]]).solve([1])
    assert set(calls) == {"__init__", "rref", "solve"}  # the counters count
    calls.clear()
    poset = build_layer_poset(*b3_translate())
    assert len(poset.layers) == 49
    assert calls == {}


def test_mobius_from_covers_matches_flat_lattice():
    for vectors in ([(1, 0), (0, 1), (1, 1)], [v for v, _ in b_type_hyperplanes(3)]):
        lattice = FlatLattice(LinearMatroid(vectors))
        index = {f: i for i, f in enumerate(lattice.flats)}
        covers = [(index[f], index[g]) for f, g in lattice.covers]
        mobius = mobius_from_covers(len(lattice.flats), covers)
        assert mobius == tuple(lattice.mobius[f] for f in lattice.flats)


def test_mobius_from_covers_small_posets():
    assert mobius_from_covers(1, []) == (1,)
    assert mobius_from_covers(3, [(0, 1), (1, 2)]) == (1, -1, 0)  # a chain
    assert mobius_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]) == (1, -1, -1, 1)


def test_braid6_betti_is_the_product_formula():
    poly = [1]
    for k in range(1, 6):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    result = betti_and_poincare(assemble_e2(strata_data_from_hyperplanes(6, braid(6))))
    assert result.betti == tuple(poly) == (1, 15, 85, 225, 274, 120)
