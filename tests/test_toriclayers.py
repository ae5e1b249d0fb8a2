import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from stratiform.exactalg import (
    Matrix,
    hermite_basis,
    inverse,
    smith_normal_form,
    torsion_invariants,
)
from stratiform.toriclayers import (
    Layer,
    ToricHypersurface,
    build_layer_poset,
    layer_cohomology,
    layer_contains,
    layers_from_equations,
    local_subarrangement,
    mod1,
)

H = ToricHypersurface
F = Fraction


def _reduce_mod_lattice(basis, v):
    work = [int(x) for x in v]
    for row in basis:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        q = work[p] // row[p]
        if q:
            work = [x - q * y for x, y in zip(work, row)]
    return tuple(work)


def brute_force_components(n, equations, grid_denominator):
    """Count connected components by enumerating torsion points.

    Solutions on the (1/D)-grid are grouped by the class of C.w - t in
    the lattice generated by the columns of the exponent matrix C; two
    grid solutions lie in the same component exactly when those classes
    agree.
    """
    d = grid_denominator
    chis = [tuple(chi) for chi, _ in equations]
    ts = [mod1(t) for _, t in equations]
    columns_as_rows = [[chis[i][j] for i in range(len(chis))] for j in range(n)]
    col_lattice = hermite_basis(columns_as_rows)
    signatures = set()
    for point in product(range(d), repeat=n):
        w = [F(a, d) for a in point]
        residues = []
        solved = True
        for chi, t in zip(chis, ts):
            val = sum(F(c) * x for c, x in zip(chi, w)) - t
            if val.denominator != 1:
                solved = False
                break
            residues.append(int(val))
        if not solved:
            continue
        signatures.add(_reduce_mod_lattice(col_lattice, residues))
    return len(signatures)


class TestIntersect:
    def test_square_roots_of_unity(self):
        layers = layers_from_equations(1, [((2,), F(0))])
        assert len(layers) == 2
        assert all(l.span == ((1,),) for l in layers)
        assert sorted(l.phases[0] for l in layers) == [F(0), F(1, 2)]

    def test_disjoint_translates(self):
        assert layers_from_equations(1, [((1,), F(0)), ((1,), F(1, 2))]) == []

    def test_primitive_character_connected(self):
        layers = layers_from_equations(2, [((1, 1), F(0))])
        assert len(layers) == 1
        (l,) = layers
        assert l.dim == 1 and l.span == ((1, 1),) and l.phases == (F(0),)

    def test_empty_subset_gives_ambient(self):
        layers = layers_from_equations(2, [])
        assert len(layers) == 1 and layers[0].key == "ambient"

    def test_component_count_is_torsion_product(self):
        eqs = [((2, 4), F(1, 2))]
        layers = layers_from_equations(2, eqs)
        inv = torsion_invariants(Matrix([[2, 4]]))
        expected = 1
        for d in inv:
            expected *= d
        assert len(layers) == expected == 2

    @pytest.mark.parametrize(
        "n,equations,grid",
        [
            (1, [((2,), F(0))], 2),
            (1, [((2,), F(1, 3))], 6),
            (1, [((4,), F(1, 2))], 8),
            (1, [((6,), F(1, 6))], 36),
            (2, [((1, 1), F(0))], 4),
            (2, [((2, 0), F(0)), ((0, 3), F(1, 2))], 6),
            (2, [((1, 1), F(0)), ((1, -1), F(0))], 4),
            (2, [((2, 4), F(1, 2))], 4),
            (2, [((3, 0), F(1, 6))], 18),
            (2, [((2, 2), F(0)), ((0, 2), F(1, 2))], 4),
            (3, [((1, 1, 0), F(0)), ((0, 1, 1), F(1, 2)), ((2, 0, 0), F(0))], 4),
            (3, [((2, 0, 0), F(0)), ((0, 2, 0), F(0)), ((0, 0, 2), F(1, 2))], 4),
        ],
    )
    def test_against_brute_force_enumeration(self, n, equations, grid):
        layers = layers_from_equations(n, [(chi, t) for chi, t in equations])
        assert len(layers) == brute_force_components(n, equations, grid)

    def test_inconsistent_against_brute_force(self):
        eqs = [((2, 0), F(0)), ((1, 0), F(1, 3))]
        assert layers_from_equations(2, eqs) == []
        assert brute_force_components(2, eqs, 12) == 0


def _layers_reference(n, equations):
    """Rational reference for `layers_from_equations`.

    Smith form as a `Matrix`, the saturation basis from `inverse` of the
    right transform, one `Matrix.solve` per Hermite row for its
    coordinates, and Fraction phases, one sum per component.
    """
    eqs = [(tuple(int(e) for e in chi), mod1(t)) for chi, t in equations]
    if not eqs:
        return [Layer(n, (), ())]
    snf = smith_normal_form(Matrix([list(chi) for chi, _ in eqs]))
    r = sum(1 for d in snf.diag if d)
    ut = snf.left.apply([t for _, t in eqs])
    for i in range(r, len(eqs)):
        if mod1(ut[i]) != 0:
            return []
    winv = inverse(snf.right)
    w = [tuple(int(x) for x in winv.rows[i]) for i in range(r)]
    span = hermite_basis(w)
    wmat = Matrix([list(row) for row in w]).transpose()
    coords = []
    for row in span:
        sol = wmat.solve(list(row))
        assert sol is not None and all(x.denominator == 1 for x in sol)
        coords.append([int(x) for x in sol])
    layers = []
    for counters in product(*(range(snf.diag[i]) for i in range(r))):
        ext = [mod1((ut[i] + counters[i]) / snf.diag[i]) for i in range(r)]
        phases = tuple(
            mod1(sum((F(ci) * si for ci, si in zip(crow, ext)), F(0))) for crow in coords
        )
        layers.append(Layer(n, span, phases))
    layers.sort(key=lambda l: l.sort_key)
    return layers


phases_up_to_12 = st.integers(1, 12).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))


class TestAgainstRationalReference:
    @pytest.mark.parametrize(
        "n,equations",
        [
            (1, [((6,), F(1, 4))]),  # torsion: six components
            (2, [((2, 0), F(1, 3)), ((0, 4), F(1, 2))]),  # invariants 2 and 4
            (2, [((2, 4), F(1, 2)), ((0, 6), F(1, 3))]),
            (3, [((2, 2, 0), F(0)), ((0, 2, 2), F(1, 2)), ((2, 0, 2), F(1, 4))]),
            (2, [((1, 1), F(0)), ((2, 2), F(0)), ((1, -1), F(1, 2))]),  # dependent rows
            (2, [((1, 1), F(1, 3)), ((2, 2), F(2, 3)), ((3, 3), F(0))]),
            (2, [((2, 0), F(0)), ((1, 0), F(1, 3))]),  # inconsistent phases
            (2, [((1, 1), F(0)), ((2, 2), F(1, 2))]),
            (2, [((0, 0), F(0))]),  # zero exponent rows: r = 0
            (2, [((0, 0), F(1, 2))]),
            (2, [((0, 0), F(0)), ((0, 0), F(0))]),
            (2, [((0, 0), F(0)), ((2, 0), F(1, 2))]),
            (2, [((0, 0), F(1, 3)), ((2, 0), F(1, 2))]),
            (3, []),
        ],
    )
    def test_fixed_cases(self, n, equations):
        assert layers_from_equations(n, equations) == _layers_reference(n, equations)

    def test_zero_rows_give_the_ambient_layer_or_nothing(self):
        assert layers_from_equations(2, [((0, 0), F(0))]) == [Layer(2, (), ())]
        assert layers_from_equations(2, [((0, 0), F(1, 2))]) == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(st.tuples(*[st.integers(-4, 4)] * n), phases_up_to_12),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_drawn_systems(self, equations):
        n = len(equations[0][0])
        assert layers_from_equations(n, equations) == _layers_reference(n, equations)


class TestLimits:
    def test_components_refused_before_enumeration(self):
        with pytest.raises(ValueError, match="10000000000 components, more than the limit of 100"):
            layers_from_equations(1, [((10 ** 10,), F(0))], max_layers=100)
        assert len(layers_from_equations(2, [((4, 0), F(0))], max_layers=4)) == 4
        with pytest.raises(ValueError):
            layers_from_equations(2, [((4, 0), F(0))], max_layers=3)

    def test_layer_poset_refuses_components_before_enumeration(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="10000000000 components, more than the limit of 100"):
            build_layer_poset(1, [H((10 ** 10,), 0)], max_layers=100)
        assert time.perf_counter() - start < 1.0

    def test_layer_poset_refused_above_the_limit(self):
        arr = [H((2, 0), F(0)), H((0, 3), F(0))]  # ambient, 2 + 3 lines, 6 points
        assert len(build_layer_poset(2, arr, max_layers=12).layers) == 12
        with pytest.raises(ValueError, match="more than 11 layers"):
            build_layer_poset(2, arr, max_layers=11)


class TestLayer:
    def test_phase_of_membership(self):
        (l,) = [x for x in layers_from_equations(1, [((2,), F(0))]) if x.phases == (F(1, 2),)]
        assert l.phase_of((2,)) == F(0)
        assert l.phase_of((1,)) == F(1, 2)

    def test_containment(self):
        ambient = Layer(2, (), ())
        (line,) = layers_from_equations(2, [((1, 1), F(0))])
        (point,) = layers_from_equations(2, [((1, 1), F(0)), ((1, 0), F(0))])
        assert layer_contains(ambient, line)
        assert layer_contains(line, point)
        assert layer_contains(ambient, point)
        assert not layer_contains(line, ambient)
        assert not layer_contains(point, line)

    def test_cohomology(self):
        ambient1 = Layer(1, (), ())
        assert layer_cohomology(ambient1) == ((0, 1, 0), (1, 1, 2))
        pt = Layer(1, ((1,),), (F(0),))
        assert layer_cohomology(pt) == ((0, 1, 0),)
        ambient2 = Layer(2, (), ())
        assert layer_cohomology(ambient2) == ((0, 1, 0), (1, 2, 2), (2, 1, 4))


class TestPoset:
    def test_coordinate_pair_diamond(self):
        arr = [H((1, 0), F(0), 0), H((0, 1), F(0), 1)]
        poset = build_layer_poset(2, arr)
        assert [l.codim for l in poset.layers] == [0, 1, 1, 2]
        assert len(poset.covers) == 4
        # ambient covers both lines, both lines cover the point
        assert set(poset.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_empty_arrangement(self):
        poset = build_layer_poset(2, [])
        assert len(poset.layers) == 1
        assert poset.layers[0].key == "ambient"

    def test_square_roots(self):
        poset = build_layer_poset(1, [H((2,), F(0))])
        assert [l.codim for l in poset.layers] == [0, 1, 1]

    def test_deduplication_and_permutation_invariance(self):
        arr = [H((3,), F(0), 0), H((1,), F(0), 1)]
        p1 = build_layer_poset(1, arr)
        p2 = build_layer_poset(1, list(reversed(arr)))
        p3 = build_layer_poset(1, arr)
        keys = [l.key for l in p1.layers]
        assert keys == [l.key for l in p2.layers] == [l.key for l in p3.layers]
        # z = 1 appears in both hypersurfaces but only once in the poset
        assert [l.codim for l in p1.layers] == [0, 1, 1, 1]

    def test_codim_equals_span_rank(self):
        arr = [H((2, 0), F(0)), H((1, 1), F(1, 2))]
        poset = build_layer_poset(2, arr)
        for l in poset.layers:
            assert l.codim == Matrix([list(r) for r in l.span]).rank() if l.span else l.codim == 0

    def test_spans_saturated_and_canonical(self):
        from stratiform.exactalg import hermite_basis, saturate

        arr = [H((2, 4), F(1, 2)), H((0, 3), F(1, 3)), H((1, 1), F(0))]
        poset = build_layer_poset(2, arr)
        for l in poset.layers:
            if not l.span:
                continue
            assert hermite_basis(l.span) == l.span
            assert saturate(l.span) == l.span

    def test_closed_under_pairwise_intersection(self):
        arr = [H((2, 0), F(0)), H((1, 1), F(0))]
        poset = build_layer_poset(2, arr)
        keys = {l.key for l in poset.layers}
        for a in poset.layers:
            for b in poset.layers:
                for comp in layers_from_equations(2, a.equations() + b.equations()):
                    assert comp.key in keys

    def test_order_is_a_partial_order(self):
        arr = [H((2, 0), F(0)), H((1, 1), F(0))]
        poset = build_layer_poset(2, arr)
        n = len(poset.layers)
        rel = [[layer_contains(poset.layers[i], poset.layers[j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                if i != j and rel[i][j]:
                    assert not rel[j][i]  # antisymmetry
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]  # transitivity


class TestLocalSubarrangement:
    def test_point_of_coordinate_pair(self):
        arr = [H((1, 0), F(0), 0), H((0, 1), F(0), 1)]
        (point,) = layers_from_equations(2, [((1, 0), F(0)), ((0, 1), F(0))])
        local = local_subarrangement(arr, point)
        assert [h.exponents for h in local] == [(1, 0), (0, 1)]
        assert [h.label for h in local] == [0, 1]

    def test_ambient_empty(self):
        arr = [H((1, 0), F(0))]
        assert local_subarrangement(arr, Layer(2, (), ())) == []

    def test_phase_sensitive(self):
        arr = [H((2,), F(0))]
        minus_one = Layer(1, ((1,),), (F(1, 2),))
        plus_one = Layer(1, ((1,),), (F(0),))
        other = Layer(1, ((1,),), (F(1, 3),))
        assert local_subarrangement(arr, minus_one) == arr
        assert local_subarrangement(arr, plus_one) == arr
        assert local_subarrangement(arr, other) == []


class TestHypersurfaceValidation:
    def test_zero_exponents_rejected(self):
        with pytest.raises(ValueError):
            H((0, 0), F(0))

    def test_phase_normalized(self):
        h = H((1,), F(3, 2))
        assert h.phase == F(1, 2)
        assert H((1,), F(-1, 4)).phase == F(3, 4)

    def test_mod1(self):
        assert mod1(F(7, 3)) == F(1, 3)
        assert mod1(F(-1, 3)) == F(2, 3)
        assert mod1(2) == 0
