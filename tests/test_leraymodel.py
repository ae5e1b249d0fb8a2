import math
import pickle
from fractions import Fraction

import pytest

from stratiform.leraymodel import (
    DegenerationUnknown,
    FormalityCertificate,
    PurityReport,
    StrataData,
    Stratum,
    assemble_e2,
    betti_and_poincare,
    degeneration_by_weights,
    formality_certificate,
    poincare_string,
    purity_hypothesis_check,
    strata_data_from_hyperplanes,
    strata_data_from_toric,
)
from stratiform.matroidos import flat_search
from stratiform.toriclayers import ToricHypersurface, _layer_name, layer_search, torus_cohomology

from reference import FlatLattice, LinearMatroid, affine_poset, layer_poset, whitney_numbers

F = Fraction
H = ToricHypersurface
INF = math.inf


def braid3_hyperplanes():
    return [((1, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0)]


class TestStrataFromToric:
    def test_single_point(self):
        sd = strata_data_from_toric(1, [H((1,), F(0))])
        assert len(sd.strata) == 2
        ambient, point = sd.strata
        assert ambient.codim == 0 and ambient.cohomology == ((0, 1, 0), (1, 1, 2))
        assert point.codim == 1 and point.local_dim == 1

    def test_square_roots(self):
        sd = strata_data_from_toric(1, [H((2,), F(0))])
        assert [s.codim for s in sd.strata] == [0, 1, 1]
        assert all(s.local_dim == 1 for s in sd.strata)

    def test_three_concurrent_characters(self):
        arr = [H((1, 0), F(0)), H((0, 1), F(0)), H((1, 1), F(0))]
        sd = strata_data_from_toric(2, arr)
        points = [s for s in sd.strata if s.codim == 2]
        assert len(points) == 1 and points[0].local_dim == 2

    def test_empty_arrangement(self):
        sd = strata_data_from_toric(2, [])
        assert len(sd.strata) == 1
        assert sd.strata[0].cohomology == ((0, 1, 0), (1, 2, 2), (2, 1, 4))


class TestStrataFromHyperplanes:
    def test_single_hyperplane(self):
        sd = strata_data_from_hyperplanes(2, [((1, 0), 0)])
        assert [s.codim for s in sd.strata] == [0, 1]

    def test_three_generic_lines(self):
        lines = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
        sd = strata_data_from_hyperplanes(2, lines)
        points = [s for s in sd.strata if s.codim == 2]
        assert len(points) == 3 and all(s.local_dim == 1 for s in points)

    def test_three_concurrent_lines(self):
        lines = [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)]
        sd = strata_data_from_hyperplanes(2, lines)
        points = [s for s in sd.strata if s.codim == 2]
        assert len(points) == 1 and points[0].local_dim == 2

    def test_weights_all_zero_degree_zero(self):
        sd = strata_data_from_hyperplanes(2, [((1, 0), 0), ((0, 1), 0)])
        for s in sd.strata:
            assert s.cohomology == ((0, 1, 0),)


@pytest.mark.parametrize("kind", ["toric", "hyperplane"])
def test_strata_named_on_first_read_match_the_poset(kind):
    """Strata read off the searches are named on the first read of their
    key; before and after it they pickle, compare, hash and print as
    strata built from the names of the reference posets' layers and
    flats.  Both come in the order their search finds them, each matched
    to the poset's layer with the same name or flat with the same
    hyperplanes."""
    if kind == "toric":
        arr = [H((1, 1), F(0)), H((1, -1), F(1, 2)), H((2, 0), F(0))]
        sd, poset = strata_data_from_toric(2, arr), layer_poset(2, arr)
        by_name = {l.key: (l, mu) for l, mu in zip(poset.layers, poset.mobius)}
        names = [_layer_name(*key) for key in layer_search(2, arr)[0]]
        assert sorted(names) == sorted(by_name) and len(names) == len(poset.layers) == 11
        want = tuple(Stratum(l.key, l.codim, torus_cohomology(l.dim), abs(mu))
                     for l, mu in map(by_name.get, names))
        assert names != [l.key for l in poset.layers]  # the two orders differ here
    else:
        lines = [((1, 0), F(1, 2)), ((1, 1), 0), ((0, 2), F(-1, 3))]
        sd, poset = strata_data_from_hyperplanes(2, lines), affine_poset(2, lines)
        by_mask = {sum(1 << j for j in f.hyperplanes): (f, mu) for f, mu in zip(poset.flats, poset.mobius)}
        masks = flat_search(2, lines)[0]
        assert sorted(masks) == sorted(by_mask) and len(masks) == len(poset.flats) == 7
        want = tuple(Stratum(f.name, f.codim, ((0, 1, 0),), abs(mu))
                     for f, mu in map(by_mask.get, masks))
        assert [s.key for s in want] != [f.name for f in poset.flats]  # the two orders differ here
    unread = pickle.loads(pickle.dumps(sd))
    assert unread.strata == want and sd.strata == want
    assert [hash(s) for s in sd.strata] == [hash(s) for s in want]
    assert repr(sd) == repr(StrataData(want))
    with pytest.raises(AttributeError, match="no attribute 'name'"):
        sd.strata[0].name


class TestAssembleE2:
    def test_torus_minus_one_point(self):
        sd = strata_data_from_toric(1, [H((1,), F(0))])
        table = assemble_e2(sd)
        assert table.entries[(0, 0)] == {0: 1} and table.entries[(1, 0)] == {2: 1} and table.entries[(0, 1)] == {2: 1}
        assert table.total_degree_dims() == (1, 2)

    def test_empty_arrangement_dim2(self):
        table = assemble_e2(strata_data_from_toric(2, []))
        assert table.entries[(0, 0)] == {0: 1} and table.entries[(1, 0)] == {2: 2} and table.entries[(2, 0)] == {4: 1}
        assert all(q == 0 for (_, q) in table.entries)

    def test_square_roots_betti(self):
        table = assemble_e2(strata_data_from_toric(1, [H((2,), F(0))]))
        assert table.entries[(0, 1)] == {2: 2}
        assert table.total_degree_dims() == (1, 3)

    def test_weights_are_pure(self):
        table = assemble_e2(strata_data_from_toric(2, [H((1, 0), F(0)), H((0, 1), F(0))]))
        for (p, q), by_w in table.entries.items():
            assert list(by_w) == [2 * (p + q)]

    def test_coordinate_arrangement_full_table(self):
        arr = [H((1, 0), F(0)), H((0, 1), F(0))]
        table = assemble_e2(strata_data_from_toric(2, arr))
        expected = {
            (0, 0): {0: 1},
            (1, 0): {2: 2},
            (2, 0): {4: 1},
            (0, 1): {2: 2},
            (1, 1): {4: 2},
            (0, 2): {4: 1},
        }
        assert table.entries == expected

    def test_additive_over_stratum_splits(self):
        sd = strata_data_from_toric(2, [H((1, 0), F(0)), H((0, 1), F(0))])
        whole = assemble_e2(sd).entries
        part1 = assemble_e2(StrataData(sd.strata[:2])).entries
        part2 = assemble_e2(StrataData(sd.strata[2:])).entries
        merged: dict = {}
        for part in (part1, part2):
            for pq, by_w in part.items():
                cell = merged.setdefault(pq, {})
                for w, d in by_w.items():
                    cell[w] = cell.get(w, 0) + d
        assert merged == whole


class TestPurity:
    def test_toric_always_passes(self):
        sd = strata_data_from_toric(2, [H((2, 0), F(0)), H((1, 1), F(1, 2))])
        assert purity_hypothesis_check(sd, INF).passed

    def test_hyperplanes_always_pass(self):
        sd = strata_data_from_hyperplanes(2, [((1, 0), 0), ((0, 1), 0)])
        assert purity_hypothesis_check(sd, INF).passed

    def test_declared_violation(self):
        sd = StrataData(
            (Stratum("ambient", 0, ((0, 1, 0), (1, 1, 1)), 1),)
        )
        report = purity_hypothesis_check(sd, 1)
        assert not report.passed
        assert report.witnesses == (("ambient", 1, 1),)

    def test_vacuous_at_low_r(self):
        sd = StrataData(
            (Stratum("ambient", 0, ((0, 1, 0), (1, 1, 1)), 1),)
        )
        assert purity_hypothesis_check(sd, 0).passed


class TestDegeneration:
    def test_pure_table_degenerates(self):
        table = assemble_e2(strata_data_from_toric(1, [H((1,), F(0))]))
        report = degeneration_by_weights(table)
        assert report.degenerate and report.impure_entries == ()

    def test_candidates_reported(self):
        arr = [H((1, 0), F(0)), H((0, 1), F(0))]
        table = assemble_e2(strata_data_from_toric(2, arr))
        report = degeneration_by_weights(table)
        assert report.degenerate
        # d_2: (0,1) -> (2,0) is a real candidate, forced to zero by weight
        assert (2, 0, 1, 2, 4) in report.forced_zero

    def test_impure_table_unknown(self):
        sd = StrataData((Stratum("ambient", 0, ((0, 1, 0), (1, 1, 1)), 1),))
        report = degeneration_by_weights(assemble_e2(sd))
        assert report.verdict == "unknown"
        assert report.impure_entries == ((1, 0, 1),)

    def test_single_row_vacuous(self):
        table = assemble_e2(strata_data_from_toric(2, []))
        report = degeneration_by_weights(table)
        assert report.degenerate and report.forced_zero == ()


class TestBetti:
    def test_braid3(self):
        sd = strata_data_from_hyperplanes(3, braid3_hyperplanes())
        result = betti_and_poincare(assemble_e2(sd))
        assert result.betti == (1, 3, 2)
        assert result.poincare == "1 + 3t + 2t^2"

    def test_coordinate_hyperplanes(self):
        sd = strata_data_from_hyperplanes(2, [((1, 0), 0), ((0, 1), 0)])
        result = betti_and_poincare(assemble_e2(sd))
        assert result.betti == (1, 2, 1)

    def test_two_toric_points(self):
        arr = [H((1,), F(0)), H((1,), F(1, 2))]
        result = betti_and_poincare(assemble_e2(strata_data_from_toric(1, arr)))
        assert result.betti == (1, 3)
        assert result.poincare == "1 + 3t"

    def test_refuses_unknown_degeneration(self):
        sd = StrataData((Stratum("ambient", 0, ((0, 1, 0), (1, 1, 1)), 1),))
        with pytest.raises(DegenerationUnknown):
            betti_and_poincare(assemble_e2(sd))

    def test_weights_and_type_note(self):
        sd = strata_data_from_toric(1, [H((1,), F(0))])
        result = betti_and_poincare(assemble_e2(sd))
        assert result.weights == (0, 2)
        assert "(k, k)" in result.hodge_type_note

    def test_hyperplane_betti_match_whitney_oracle(self):
        normals = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
        sd = strata_data_from_hyperplanes(3, [(v, 0) for v in normals])
        betti = betti_and_poincare(assemble_e2(sd)).betti
        lat = FlatLattice(LinearMatroid(normals))
        wn = whitney_numbers(lat)
        assert betti == wn

    def test_kunneth_product_toric(self):
        # {z1=1} x {z2=1}: (C - 2 points)^2, Poincare (1+2t)^2
        arr = [H((1, 0), F(0)), H((0, 1), F(0))]
        betti = betti_and_poincare(assemble_e2(strata_data_from_toric(2, arr))).betti
        assert betti == (1, 4, 4)

    def test_product_formula_for_crossed_arrangements(self):
        # {z1^2=1} x {z2=1}: factors 1+3t and 1+2t, product (1, 5, 6)
        arr = [H((2, 0), F(0)), H((0, 1), F(0))]
        betti = betti_and_poincare(assemble_e2(strata_data_from_toric(2, arr))).betti
        b1 = betti_and_poincare(assemble_e2(strata_data_from_toric(1, [H((2,), F(0))]))).betti
        b2 = betti_and_poincare(assemble_e2(strata_data_from_toric(1, [H((1,), F(0))]))).betti
        expected = [0] * (len(b1) + len(b2) - 1)
        for i, x in enumerate(b1):
            for j, y in enumerate(b2):
                expected[i + j] += x * y
        assert betti == tuple(expected) == (1, 5, 6)


class TestCertificate:
    def test_toric_certificate(self):
        sd = strata_data_from_toric(1, [H((2,), F(0))])
        cert = formality_certificate(sd, INF)
        assert isinstance(cert, FormalityCertificate)
        assert cert.formal and cert.betti.betti == (1, 3)
        assert cert.degeneration.degenerate
        assert len(cert.reasoning) == 5

    def test_hyperplane_certificate(self):
        sd = strata_data_from_hyperplanes(3, braid3_hyperplanes())
        cert = formality_certificate(sd, INF)
        assert isinstance(cert, FormalityCertificate)

    def test_refusal_returns_report(self):
        sd = StrataData(
            (
                Stratum("ambient", 0, ((0, 1, 0),), 1),
                Stratum("bad", 1, ((2, 1, 3),), 1),
            )
        )
        out = formality_certificate(sd, 3)
        assert isinstance(out, PurityReport)
        assert not out.passed and out.witnesses == (("bad", 2, 3),)


class TestPoincareString:
    def test_formats(self):
        assert poincare_string((1, 1)) == "1 + t"
        assert poincare_string((1, 3, 2)) == "1 + 3t + 2t^2"
        assert poincare_string((1, 0, 1)) == "1 + t^2"
        assert poincare_string(()) == "0"


def test_strata_validation():
    with pytest.raises(ValueError):
        StrataData((Stratum("a", 1, ((0, 1, 0),), 1),)).validate()
    with pytest.raises(ValueError):
        StrataData(
            (
                Stratum("ambient", 0, ((0, 1, 0),), 1),
                Stratum("b", 0, ((0, 1, 0),), 1),
            )
        ).validate()
