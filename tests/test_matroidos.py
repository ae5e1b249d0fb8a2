from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stratiform.cli import parse_arrangement_file
from stratiform.leraymodel import assemble_e2, betti_and_poincare, strata_data_from_hyperplanes
from stratiform.matroidos import flat_search

from reference import (
    FlatLattice,
    LinearMatroid,
    affine_poset,
    characteristic_polynomial,
    local_component_dims,
    nbc_basis,
    poset_characteristic_polynomial,
    poset_whitney_numbers,
    whitney_numbers,
)


def concurrent3():
    return LinearMatroid([(1, 0), (0, 1), (1, 1)])


def boolean(n):
    return LinearMatroid([tuple(int(i == j) for j in range(n)) for i in range(n)])


def braid3():
    return LinearMatroid([(1, -1, 0), (1, 0, -1), (0, 1, -1)])


def parallel_pair():
    return LinearMatroid([(1, 0), (1, 0)])


TEST_MATROIDS = [
    concurrent3,
    lambda: boolean(2),
    lambda: boolean(3),
    braid3,
    parallel_pair,
    lambda: LinearMatroid([(1, 0), (0, 1), (1, 1), (1, 2)]),
    lambda: LinearMatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    lambda: LinearMatroid([(1, 0), (2, 0), (0, 1)]),
]


class TestMatroid:
    def test_independent_pair(self):
        m = LinearMatroid([(1, 0), (0, 1)])
        assert m.full_rank == 2
        assert m.circuits() == ()

    def test_parallel_pair(self):
        m = parallel_pair()
        assert m.full_rank == 1
        assert m.circuits() == (frozenset({0, 1}),)

    def test_three_concurrent(self):
        m = concurrent3()
        assert m.full_rank == 2
        assert all(m.rank_of(c) == 2 for c in combinations(range(3), 2))
        assert m.circuits() == (frozenset({0, 1, 2}),)

    def test_closure(self):
        m = LinearMatroid([(1, 0), (2, 0), (0, 1)])
        assert m.closure({0}) == {0, 1}
        assert m.closure({2}) == {2}
        assert m.closure({0, 2}) == {0, 1, 2}


class TestFlatLattice:
    def test_uniform_rank2_on_3(self):
        lat = FlatLattice(concurrent3())
        assert len(lat.flats) == 5
        assert lat.mobius[lat.top] == 2

    def test_single_element(self):
        lat = FlatLattice(LinearMatroid([(1,)]))
        assert len(lat.flats) == 2
        assert lat.mobius[lat.top] == -1

    def test_boolean_rank2(self):
        lat = FlatLattice(boolean(2))
        assert lat.mobius[lat.top] == 1

    @pytest.mark.parametrize("make", TEST_MATROIDS)
    def test_mobius_recursion_sums_to_zero(self, make):
        lat = FlatLattice(make())
        for f in lat.flats:
            if f == lat.bottom:
                continue
            assert sum(lat.mobius[g] for g in lat.flats if g <= f) == 0

    def test_covers_are_rank_steps(self):
        lat = FlatLattice(braid3())
        for f, g in lat.covers:
            assert f < g and lat.rank_of[g] == lat.rank_of[f] + 1


class TestCharacteristicPolynomial:
    def test_boolean_rank2(self):
        # (t - 1)^2 = t^2 - 2t + 1
        assert characteristic_polynomial(FlatLattice(boolean(2))) == (1, -2, 1)

    def test_three_concurrent(self):
        assert characteristic_polynomial(FlatLattice(concurrent3())) == (2, -3, 1)

    def test_braid3(self):
        assert characteristic_polynomial(FlatLattice(braid3())) == (2, -3, 1)

    def test_empty_matroid(self):
        assert characteristic_polynomial(FlatLattice(LinearMatroid([]))) == (1,)

    @pytest.mark.parametrize("make", TEST_MATROIDS)
    def test_whitney_matches_charpoly(self, make):
        lat = FlatLattice(make())
        coeffs = characteristic_polynomial(lat)
        wn = whitney_numbers(lat)
        r = lat.rank
        assert wn == tuple(abs(coeffs[r - k]) for k in range(r + 1))


class TestNBC:
    def test_independent(self):
        nbc = nbc_basis(LinearMatroid([(1, 0), (0, 1)]))
        assert nbc[2] == ((0, 1),)

    def test_three_concurrent(self):
        nbc = nbc_basis(concurrent3())
        assert nbc[2] == ((0, 1), (0, 2))

    def test_parallel_pair(self):
        nbc = nbc_basis(parallel_pair())
        # circuit {0,1}, broken circuit {1}: only e_0 in degree 1, nothing in 2
        assert nbc[1] == ((0,),)
        assert 2 not in nbc

    @pytest.mark.parametrize("make", TEST_MATROIDS)
    def test_dims_order_independent(self, make):
        m = make()
        base = {k: len(v) for k, v in nbc_basis(m).items()}
        for order in list(permutations(range(m.size)))[:8]:
            other = {k: len(v) for k, v in nbc_basis(m, order).items()}
            assert other == base

    @pytest.mark.parametrize("make", TEST_MATROIDS)
    def test_local_dims_match_mobius(self, make):
        # the NBC sets whose support closes to the flat X number |mu(bottom, X)|
        m = make()
        lat = FlatLattice(m)
        counts = {f: 0 for f in lat.flats}
        for monos in nbc_basis(m).values():
            for mono in monos:
                counts[m.closure(mono)] += 1
        assert counts == local_component_dims(lat)

    @pytest.mark.parametrize("make", TEST_MATROIDS)
    def test_total_dims_match_whitney(self, make):
        # the NBC sets of size k number |w_k|
        m = make()
        nbc = nbc_basis(m)
        wn = whitney_numbers(FlatLattice(m))
        assert max(nbc) < len(wn)
        assert tuple(len(nbc.get(k, ())) for k in range(len(wn))) == wn


def _central_golden_files():
    """(stem, dim, normals) of each golden hyperplane file whose
    hyperplanes all pass through the origin."""
    out = []
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.arr")):
        af = parse_arrangement_file(path.read_text())
        if af.kind == "hyperplane" and not any(e.constant for e in af.equations):
            out.append((path.stem, af.dim, [e.coeffs for e in af.equations]))
    return out


CENTRAL_GOLDEN = _central_golden_files()


def test_central_golden_files_are_found():
    assert [stem for stem, _, _ in CENTRAL_GOLDEN] == ["braid4", "braid5"]


def _with_golden_examples(test):
    for _, n, normals in CENTRAL_GOLDEN:
        test = example((n, normals))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-2, 2)] * n).filter(any), min_size=1, max_size=6
        ).map(lambda normals: (n, normals))
    )
)
@_with_golden_examples
def test_nbc_counts_match_e2_betti(arrangement):
    """|NBC_k| of the normals of a central arrangement is b_k of its
    complement, which the E2 route reads off the intersection poset: braid4
    gives (1, 6, 11, 6) and braid5 (1, 10, 35, 50, 24) both ways."""
    n, normals = arrangement
    nbc = nbc_basis(LinearMatroid(normals))
    counts = tuple(len(nbc[k]) for k in range(max(nbc) + 1))
    data = strata_data_from_hyperplanes(n, [(v, 0) for v in normals])
    assert counts == betti_and_poincare(assemble_e2(data)).betti


class TestAffinePoset:
    def test_two_parallel_lines(self):
        poset = affine_poset(2, [((1, 0), 0), ((1, 0), 1)])
        assert [f.codim for f in poset.flats] == [0, 1, 1]
        assert poset_whitney_numbers(poset) == (1, 2)

    def test_three_generic_lines(self):
        lines = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
        poset = affine_poset(2, lines)
        assert [f.codim for f in poset.flats] == [0, 1, 1, 1, 2, 2, 2]
        assert poset_whitney_numbers(poset) == (1, 3, 3)
        assert poset_characteristic_polynomial(poset) == (3, -3, 1)

    def test_braid_dimension3_is_partition_lattice(self):
        hyps = [((1, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0)]
        poset = affine_poset(3, hyps)
        # Pi_3: ambient, three planes, one line x=y=z
        assert [f.codim for f in poset.flats] == [0, 1, 1, 1, 2]
        line = poset.flats[-1]
        assert line.hyperplanes == {0, 1, 2}
        assert poset.mobius[len(poset.flats) - 1] == 2
        assert poset_whitney_numbers(poset) == (1, 3, 2)

    def test_containing_hyperplanes(self):
        poset = affine_poset(2, [((1, 0), 0), ((0, 1), 0)])
        point = [f for f in poset.flats if f.codim == 2]
        assert len(point) == 1 and point[0].hyperplanes == {0, 1}

    def test_covers_transitively_reduced(self):
        lines = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
        poset = affine_poset(2, lines)
        rel = {
            (i, j)
            for i, f in enumerate(poset.flats)
            for j, g in enumerate(poset.flats)
            if i != j and f.hyperplanes <= g.hyperplanes
        }
        for (i, j) in poset.covers:
            assert (i, j) in rel
            assert not any((i, k) in rel and (k, j) in rel for k in range(len(poset.flats)))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            flat_search(2, [((0, 0), 1)])

    def test_central_poset_matches_matroid_lattice(self):
        # central arrangement: poset Whitney numbers equal matroid Whitney numbers
        normals = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
        poset = affine_poset(3, [(v, 0) for v in normals])
        lat = FlatLattice(LinearMatroid(normals))
        assert poset_whitney_numbers(poset) == whitney_numbers(lat)
