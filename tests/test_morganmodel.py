import collections
import functools
import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference

from stratiform import morganmodel
from stratiform.exactalg import Matrix
from stratiform.morganmodel import (
    AxiomReport,
    BigradedModel,
    ClosureError,
    CompactificationDatum,
    CdgaMorphism,
    ConstantError,
    DatumError,
    ModelPurityError,
    MorphismError,
    build_model,
    builder_point,
    builder_projective_line_marked,
    check_r_quasi_iso,
    cohomology_of_model,
    extract_cokernel_model,
    extract_kernel_model,
    kunneth_product,
    localization_betti,
    negate_gysin_block,
    shuffle_sign,
    verify_cdga_axioms,
    _ColumnCohomology,
)

F = Fraction
INF = math.inf


def model_dims(model):
    return {kq: len(v) for kq, v in model.spaces.items()}


def torus_like_compact_datum():
    """A compact datum with one-dimensional H^0, H^2 and two-dimensional H^1."""
    cups = {
        (0, 0): {(0, 0): {0: F(1)}},
        (0, 1): {(0, a): {a: F(1)} for a in range(2)},
        (1, 0): {(a, 0): {a: F(1)} for a in range(2)},
        (0, 2): {(0, 0): {0: F(1)}},
        (2, 0): {(0, 0): {0: F(1)}},
        (1, 1): {(0, 1): {0: F(1)}, (1, 0): {0: F(-1)}},
    }
    return CompactificationDatum(0, {(): {0: 1, 1: 2, 2: 1}}, {}, {}, {(): cups})


class TestShuffleSign:
    def test_examples(self):
        assert shuffle_sign({1}, {2}) == 1
        assert shuffle_sign({2}, {1}) == -1
        assert shuffle_sign({1, 3}, {2}) == -1

    def test_product_rule_exhaustive(self):
        universe = range(1, 7)
        for total in range(0, 7):
            for size1 in range(total + 1):
                for combo in combinations(universe, total):
                    for left in combinations(combo, size1):
                        right = tuple(x for x in combo if x not in left)
                        assert (
                            shuffle_sign(left, right) * shuffle_sign(right, left)
                            == (-1) ** (len(left) * len(right))
                        )


class TestBuilders:
    def test_marked_line_spaces(self):
        m = build_model(builder_projective_line_marked(2))
        assert model_dims(m) == {(0, 0): 1, (1, 2): 2, (2, 2): 1}
        assert reference.rank(reference.differential(m, (1, 2))) == 1

    def test_no_divisor(self):
        m = build_model(builder_projective_line_marked(0))
        assert model_dims(m) == {(0, 0): 1, (2, 2): 1}
        assert all(not col for cols in m.d.values() for col in cols)

    def test_one_point_is_affine_line(self):
        m = build_model(builder_projective_line_marked(1))
        assert cohomology_of_model(m) == {(0, 0): 1}

    def test_negative_marks_rejected(self):
        with pytest.raises(ValueError):
            builder_projective_line_marked(-1)

    def test_missing_gysin_named(self):
        cd = builder_projective_line_marked(1)
        broken = CompactificationDatum(1, cd.cohomology, cd.restrictions, {}, cd.cups)
        with pytest.raises(DatumError, match=r"Gysin.*I=\(1,\), i=1"):
            build_model(broken)


class TestModelTables:
    def test_constructor_copies_its_input(self):
        # the builders and the witnesses hand over the tables they have just
        # built; a caller's dicts stay the caller's
        spaces = {(0, 0): ["1"], (1, 2): ["x"]}
        diff = {}
        vec = {0: F(1)}
        products = {((0, 0), (1, 2)): {(0, 0): vec}}
        model = BigradedModel(spaces, diff, products)
        spaces[(1, 2)].append("y")
        spaces[(2, 4)] = ["z"]
        diff[(0, 0)] = Matrix([[1]])
        vec[0] = F(2)
        products[((0, 0), (1, 2))][(0, 1)] = {1: F(1)}
        products[((1, 2), (0, 0))] = {(0, 0): {0: F(1)}}
        assert model.spaces == {(0, 0): ("1",), (1, 2): ("x",)}
        assert model.d == {}
        assert model.products == {((0, 0), (1, 2)): {(0, 0): {0: F(1)}}}


class TestAxioms:
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 5])
    def test_marked_lines_pass(self, s):
        report = verify_cdga_axioms(build_model(builder_projective_line_marked(s)))
        assert report.passed

    def test_kunneth_square_passes(self):
        cd = builder_projective_line_marked(2)
        report = verify_cdga_axioms(build_model(kunneth_product(cd, cd)))
        assert report.passed

    def test_single_gysin_flip_breaks_d_squared(self):
        cd = builder_projective_line_marked(2)
        sq = kunneth_product(cd, cd)
        bad = negate_gysin_block(sq, (1, 3), 1, 0)
        report = verify_cdga_axioms(build_model(bad))
        assert not report.passed
        assert "d_squared" in report.axioms_failing()

    def test_block_flip_breaks_leibniz_only(self):
        # flipping only the degree-0 block of one Gysin map in (C*) x P^1
        # keeps d o d = 0 but violates Leibniz; the report names the pair
        mixed = kunneth_product(
            builder_projective_line_marked(2), builder_projective_line_marked(0)
        )
        bad = negate_gysin_block(mixed, (1,), 1, 0)
        report = verify_cdga_axioms(build_model(bad))
        assert report.axioms_failing() == ("leibniz",)
        assert any("basis pair" in desc for name, desc in report.violations)

    def test_vacuous_for_no_divisor(self):
        report = verify_cdga_axioms(build_model(builder_projective_line_marked(0)))
        assert report.passed


class TestCohomology:
    def test_two_marked_points_is_torus(self):
        m = build_model(builder_projective_line_marked(2))
        assert cohomology_of_model(m) == {(0, 0): 1, (1, 2): 1}

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_marked_line_counts(self, s):
        m = build_model(builder_projective_line_marked(s))
        expected = {(0, 0): 1}
        if s >= 2:
            expected[(1, 2)] = s - 1
        assert cohomology_of_model(m) == expected

    def test_degree2_weight2_entry(self):
        assert cohomology_of_model(build_model(builder_projective_line_marked(0))) == {
            (0, 0): 1,
            (2, 2): 1,
        }

    def test_kunneth_square(self):
        cd = builder_projective_line_marked(2)
        m = build_model(kunneth_product(cd, cd))
        assert cohomology_of_model(m) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_d_squared_nonzero_refused(self):
        # d(w) = u and d(u) = t: the rank formula would read 1 - 1 - 1 = -1
        # at (1, 0); both witnesses refuse the model with the same error
        spaces = {(0, 0): ("w",), (1, 0): ("u",), (2, 0): ("t",)}
        model = BigradedModel(spaces, {(0, 0): Matrix([[1]]), (1, 0): Matrix([[1]])}, {})
        assert verify_cdga_axioms(model).axioms_failing() == ("d_squared",)
        for refused in [cohomology_of_model, functools.partial(extract_kernel_model, r=INF),
                        functools.partial(extract_cokernel_model, r=INF)]:
            with pytest.raises(ValueError, match=r"^d o d nonzero on M\^0_0$"):
                refused(model)

    def test_misfit_differential_refused(self):
        # a 2 x 2 d at the spaceless (1, 2) of the compact line has rank 2,
        # which would make dim H^2_2 negative; the model refuses it by name,
        # so neither `cohomology_of_model` nor a witness meets it
        m = build_model(builder_projective_line_marked(0))
        message = r"^differential at \(1, 2\) has shape \(2, 2\), expected \(1, 0\)$"
        with pytest.raises(ValueError, match=message):
            BigradedModel(m.spaces, {**reference.differentials(m), (1, 2): Matrix([[1, 0], [0, 1]])}, m.products)


class TestKernelModel:
    def test_two_marked_line(self):
        m = build_model(builder_projective_line_marked(2))
        w = extract_kernel_model(m, INF)
        assert model_dims(w.model) == {(0, 0): 1, (1, 2): 1}
        assert w.quasi_iso.ok and w.kind == "kernel"

    def test_kunneth_square_closed_under_product(self):
        cd = builder_projective_line_marked(2)
        m = build_model(kunneth_product(cd, cd))
        w = extract_kernel_model(m, INF)
        assert model_dims(w.model) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        # the square of the degree-1 kernel generators spans K^2
        table = w.model.products.get(((1, 2), (1, 2)))
        assert table
        assert w.quasi_iso.ok

    def test_refusal_on_weight_k_model(self):
        m = build_model(torus_like_compact_datum())
        with pytest.raises(ModelPurityError) as err:
            extract_kernel_model(m, 1)
        assert (1, 1) in err.value.witnesses

    def test_inclusion_is_cdga_morphism(self):
        m = build_model(builder_projective_line_marked(3))
        w = extract_kernel_model(m, INF)
        assert w.morphism.violations() == []

    def test_product_coordinates_ascending(self):
        # xx = y1 + 2 y0 lists y1 first; its coordinates on K^2 = M^2_4 come
        # in ascending order, so a table's repr does not follow the terms' order
        spaces = {(0, 0): ("1",), (1, 2): ("x",), (2, 4): ("y0", "y1")}
        model = model_with_products(spaces, {((1, 2), (1, 2)): {(0, 0): {1: F(1), 0: F(2)}}})
        w = extract_kernel_model(model, INF)
        assert list(w.model.products[((1, 2), (1, 2))][(0, 0)].items()) == [(0, F(2)), (1, F(1))]


class TestCokernelModel:
    def test_compact_line(self):
        m = build_model(builder_projective_line_marked(0))
        w = extract_cokernel_model(m, INF)
        assert model_dims(w.model) == {(0, 0): 1, (2, 2): 1}
        assert w.quasi_iso.ok and w.kind == "cokernel"

    def test_compact_square(self):
        c0 = builder_projective_line_marked(0)
        m = build_model(kunneth_product(c0, c0))
        w = extract_cokernel_model(m, INF)
        assert model_dims(w.model) == {(0, 0): 1, (2, 2): 2, (4, 4): 1}
        assert w.quasi_iso.ok

    def test_torus_like_compact_datum(self):
        m = build_model(torus_like_compact_datum())
        w = extract_cokernel_model(m, INF)
        assert model_dims(w.model) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
        assert w.quasi_iso.ok

    def test_refusal_on_weight_2k_model(self):
        m = build_model(builder_projective_line_marked(2))
        with pytest.raises(ModelPurityError) as err:
            extract_cokernel_model(m, INF)
        assert (1, 2) in err.value.witnesses

    def test_one_column_cohomology_per_bidegree(self, count_calls):
        # the extraction and the check of its projection share the model's
        # column data; the affine square has boundaries in M^2_2 and M^4_4
        inits = count_calls(_ColumnCohomology, "__init__").args["__init__"]
        line = builder_projective_line_marked(1)
        m = build_model(kunneth_product(line, line))
        w = extract_cokernel_model(m, INF)
        built = [(id(model), kq) for _, model, kq in inits]
        assert w.quasi_iso.ok and model_dims(w.model) == {(0, 0): 1}
        assert len(built) == len(set(built))
        diagonal = [kq for key, kq in built if key == id(m) and kq[0] == kq[1] and m.dim(kq)]
        assert sorted(diagonal) == [(0, 0), (2, 2), (4, 4)]

    def test_misfit_differentials_named(self):
        # the compact line has spaces at (0, 0) and (2, 2) only: a 2 x 2 d
        # at the spaceless (1, 2), and a 1 x 2 d on the one-dimensional M^2_2
        m = build_model(builder_projective_line_marked(0))
        for kq, rows, message in [
            ((1, 2), [[1, 0], [0, 1]], r"^differential at \(1, 2\) has shape \(2, 2\), expected \(1, 0\)$"),
            ((2, 2), [[1, 1]], r"^differential at \(2, 2\) has shape \(1, 2\), expected \(0, 1\)$"),
        ]:
            with pytest.raises(ValueError, match=message):
                BigradedModel(m.spaces, {**reference.differentials(m), kq: Matrix(rows)}, m.products)


class TestQuasiIso:
    def test_identity(self):
        m = build_model(builder_projective_line_marked(2))
        blocks = {kq: reference.identity(m.dim(kq)) for kq in m.bidegrees()}
        verdict = check_r_quasi_iso(CdgaMorphism(m, m, blocks), INF)
        assert verdict.ok

    def test_zero_morphism_fails_at_zero(self):
        m = build_model(builder_projective_line_marked(2))
        verdict = check_r_quasi_iso(CdgaMorphism(m, m, {}), 0)
        assert not verdict.ok
        assert "H^0" in verdict.failures[0]

    def test_invalid_morphism_rejected(self):
        m = build_model(builder_projective_line_marked(2))
        # a map violating product compatibility: swap sign on H^0 only
        blocks = {kq: reference.identity(m.dim(kq)) for kq in m.bidegrees()}
        blocks[(0, 0)] = Matrix([[-1]])
        with pytest.raises(MorphismError):
            check_r_quasi_iso(CdgaMorphism(m, m, blocks), INF)

    def test_per_degree_ranks(self):
        m = build_model(builder_projective_line_marked(3))
        w = extract_kernel_model(m, INF)
        ranks = {k: (hs, ht, rk) for k, hs, ht, rk in w.quasi_iso.per_degree}
        assert ranks[0] == (1, 1, 1)
        assert ranks[1] == (2, 2, 2)


class TestKunneth:
    def test_unit(self):
        cd = builder_projective_line_marked(2)
        prod = kunneth_product(cd, builder_point())
        m1, m2 = build_model(cd), build_model(prod)
        assert model_dims(m1) == model_dims(m2)
        assert cohomology_of_model(m1) == cohomology_of_model(m2)

    def test_dimension_convolution(self):
        cd2, cd3 = builder_projective_line_marked(2), builder_projective_line_marked(3)
        prod = kunneth_product(cd2, cd3)
        assert prod.dim((), 0) == 1
        assert prod.dim((), 2) == 2
        assert prod.dim((), 4) == 1
        assert prod.components == 5

    def test_triple_product_dimensions_associative(self):
        a = builder_projective_line_marked(1)
        b = builder_projective_line_marked(2)
        c = builder_projective_line_marked(0)
        left = build_model(kunneth_product(kunneth_product(a, b), c))
        right = build_model(kunneth_product(a, kunneth_product(b, c)))
        assert model_dims(left) == model_dims(right)
        assert cohomology_of_model(left) == cohomology_of_model(right)

    def test_square_cohomology_is_tensor(self):
        cd = builder_projective_line_marked(3)
        m = build_model(kunneth_product(cd, cd))
        # (1 + 2t)^2 with weights 2k
        assert cohomology_of_model(m) == {(0, 0): 1, (1, 2): 4, (2, 4): 4}


class TestLocalization:
    def test_projective_line(self):
        out = localization_betti((1, 0, 1), 1)
        assert out.dims == (1, 0, 0)
        assert out.weights == (0, 1, 2)

    def test_product_of_lines(self):
        out = localization_betti((1, 0, 2, 0, 1), 2)
        assert out.dims == (1, 0, 2, 0, 0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            localization_betti((1,), 0)
        with pytest.raises(ValueError):
            localization_betti((1, 0, 2), 2)
        with pytest.raises(ValueError):
            localization_betti((2, 0, 1), 1)
        with pytest.raises(ValueError):
            localization_betti((1, 0, 0), 1)


class TestDatumValidation:
    def test_builders_validate(self):
        assert builder_projective_line_marked(3)._issues({}) == []
        cd = builder_projective_line_marked(2)
        assert kunneth_product(cd, cd)._issues({}) == []

    def test_non_commutative_cup_detected(self):
        cups = {
            (0, 0): {(0, 0): {0: F(1)}},
            (0, 1): {(0, a): {a: F(1)} for a in range(2)},
            (1, 0): {(a, 0): {a: F(1)} for a in range(2)},
            (0, 2): {(0, 0): {0: F(1)}},
            (2, 0): {(0, 0): {0: F(1)}},
            # both orders map to +g: odd-degree classes must anticommute
            (1, 1): {(0, 1): {0: F(1)}, (1, 0): {0: F(1)}},
        }
        cd = CompactificationDatum(0, {(): {0: 1, 1: 2, 2: 1}}, {}, {}, {(): cups})
        issues = cd._issues({})
        assert any("graded-commutative" in msg for msg in issues)

    @pytest.mark.parametrize("one", [1.0, "1"])
    def test_cup_constant_read_as_a_rational(self, one):
        # the datum reads a float or string constant as a rational where it
        # is made, so validation and assembly both meet a Fraction
        cd = CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {(0, 0): {(0, 0): {0: one}}}})
        assert cd._issues({}) == []
        model, point = build_model(cd), build_model(builder_point())
        assert (model.spaces, model.scale, model.d, model.tables) == (point.spaces, point.scale, point.d, point.tables)

    @pytest.mark.parametrize("cohomology, text", [
        ({(): {0: 1}, (0,): {0: 1}}, "stratum (0,) has a component index outside 1..2"),
        ({(): {0: 1}, (-1,): {0: 1}}, "stratum (-1,) has a component index outside 1..2"),
        ({(): {0: 1}, (1, 3): {0: 1}, (0,): {0: 1}}, "stratum (1, 3) has a component index outside 1..2"),
        # the first such key in the order given, not in `subsets` order
        ({(3,): {0: 1}, (): {0: 1}, (0,): {0: 1}}, "stratum (3,) has a component index outside 1..2"),
        ({(2, 1, 2): {0: 1}}, "repeated component index in (1, 2, 2)"),
    ])
    def test_stratum_outside_the_components_refused(self, cohomology, text):
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(2, cohomology)

    @pytest.mark.parametrize("cohomology, text", [
        # this made a model with a (-2, -2) space, whose cokernel witness
        # gave a failing verdict instead of refusing
        ({(): {0: 1, -2: 1}}, "stratum () has a negative degree or dimension in {0: 1, -2: 1}"),
        # this made a model holding an empty space (2, 2): ()
        ({(): {0: 1, 2: -1}}, "stratum () has a negative degree or dimension in {0: 1, 2: -1}"),
        # a point stratum of dimension -1 was refused only as a restriction
        # "expected (-1, 1)"
        ({(): {0: 1, 2: 1}, (1,): {0: -1}}, "stratum (1,) has a negative degree or dimension in {0: -1}"),
    ])
    def test_negative_degree_or_dimension_refused(self, cohomology, text):
        line = builder_projective_line_marked(1)
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, cohomology, line.restrictions, line.gysins, line.cups)

    @pytest.mark.parametrize("components, cohomology, text", [
        # these were truncated by int(): the first was held as {(): {0: 1}}
        # and built the model of a point, the last held 2 components
        (0, {(): {0.5: 1.7}}, "stratum () has a non-integral degree or dimension in {0.5: 1.7}"),
        (0, {(): {0: 1, 2: F(3, 2)}}, "stratum () has a non-integral degree or dimension in {0: 1, 2: Fraction(3, 2)}"),
        (2.9, {(): {0: 1}}, "the number of components 2.9 is not an integer"),
    ])
    def test_non_integral_count_degree_or_dimension_refused(self, components, cohomology, text):
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(components, cohomology, {}, {}, builder_point().cups)

    @pytest.mark.parametrize("name, maps, text", [
        ("restrictions", {((), 1): {0.5: Matrix([[1]])}}, "restriction ((), 1) has a non-integral degree 0.5"),
        ("gysins", {((1,), 1): {F(1, 2): Matrix([[1]])}}, "Gysin map ((1,), 1) has a non-integral degree Fraction(1, 2)"),
    ])
    def test_non_integral_degree_of_a_map_refused(self, name, maps, text):
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, {(): {0: 1}, (1,): {0: 1}}, **{name: maps})

    @pytest.mark.parametrize("maps, text", [
        # each index was truncated by int(): 1.5 to 1, 1.7 to 1
        ({}, "component index in (1.5,) is not an integer"),
        ({"restrictions": {((), 1.7): {0: Matrix([[1]])}}}, "restriction ((), 1.7) has a non-integral component index"),
        ({"gysins": {((1,), F(1, 2)): {0: Matrix([[1]])}}},
         "Gysin map ((1,), Fraction(1, 2)) has a non-integral component index"),
        ({"restrictions": {((F(1, 2),), 1): {0: Matrix([[1]])}}}, "component index in (Fraction(1, 2),) is not an integer"),
        ({"cups": {(0.5,): {}}}, "component index in (0.5,) is not an integer"),
    ])
    def test_non_integral_component_index_refused(self, maps, text):
        cohomology = {(): {0: 1}, (1.5,) if not maps else (1,): {0: 1}}
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, cohomology, **maps)

    def test_integral_non_int_input_read_as_ints(self):
        # 2.0, Fraction(1) and "0" are integers: read, not refused
        cd = CompactificationDatum(1.0, {(): {0.0: F(1)}, (1,): {"0": 1}}, {((), 1): {0.0: Matrix([[1]])}})
        assert cd.components == 1 and cd.cohomology == {(): {0: 1}, (1,): {0: 1}}
        assert list(cd.restrictions[(), 1]) == [0]
        held = [cd.components, *cd.cohomology[()], *cd.cohomology[()].values(), *cd.restrictions[(), 1]]
        assert all(type(x) is int for x in held)

    @pytest.mark.parametrize("c", ["1/0", float("inf"), None, "one"])
    def test_unreadable_constant_refused(self, c):
        # "1/0", inf and None escaped as ZeroDivisionError, OverflowError
        # and TypeError, from the datum and from the model alike
        text = "^structure constant %s is not a rational number$" % re.escape(repr(c))
        with pytest.raises(ConstantError, match=text):
            CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {(0, 0): {(0, 0): {0: c}}}})
        with pytest.raises(ConstantError, match=text):
            BigradedModel({(0, 0): ("1",)}, {}, {((0, 0), (0, 0)): {(0, 0): {0: c}}})
        assert issubclass(ConstantError, ValueError)

    @pytest.mark.parametrize("pp", [(0, 0.5), (0, 0, 0), 0, "00", (None, 0)])
    def test_cup_degree_pair_not_two_integers_refused(self, pp):
        text = "cup table of stratum () has a degree pair %r that is not two integers" % (pp,)
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {(0, 0): {(0, 0): {0: 1}}, pp: {}}})

    @pytest.mark.parametrize("ab", [5, (0, F(1, 2)), (0,), ("a", 0)])
    def test_cup_basis_pair_not_two_integers_refused(self, ab):
        # the basis pair 5 escaped as a TypeError from the cup checks
        text = "cup table of stratum (1,) at degrees (0, 0) has a basis pair %r that is not two integers" % (ab,)
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, {(): {0: 1}, (1,): {0: 1}}, {}, {}, {(1,): {(0, 0): {ab: {0: 1}}}})

    @pytest.mark.parametrize("c", ["x", 0.5, F(3, 2), None])
    def test_cup_target_index_not_an_integer_refused(self, c):
        # the target index "x" escaped as a TypeError from the cup checks
        text = ("cup table of stratum () at degrees (0, 0), basis pair (0, 0), has a target index %r that is not"
                " an integer" % (c,))
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {(0, 0): {(0, 0): {0: 1, c: 1}}}})

    def test_integral_cup_keys_read_as_ints(self):
        # 0.0, Fraction(0) and "0" are integers in every key of a cup table
        cd = CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {("0", 0.0): {(F(0), "0"): {"0": 1}}}})
        assert cd.cups == {(): {(0, 0): {(0, 0): {0: 1}}}}
        (pp, entries), = cd.cups[()].items()
        (ab, vec), = entries.items()
        assert all(type(x) is int for x in (*pp, *ab, *vec))
        assert build_model(cd).tables == build_model(builder_point()).tables

    def test_negative_degree_without_classes_is_absent(self):
        # a zero dimension means no classes, in any degree
        cd = CompactificationDatum(0, {(): {0: 1, -2: 0}}, {}, {}, builder_point().cups)
        assert cd.cohomology == {(): {0: 1}}

    # two keys that read as the same int were merged, the later one kept:
    # {(): {0: 1, "0": 2}} was held as {(): {0: 2}}

    @pytest.mark.parametrize("cohomology, text", [
        ({(): {0: 1}, (1, 2): {0: 1}, (2, 1): {0: 2}}, "stratum (1, 2) is given twice"),
        ({(): {0: 1}, (1,): {0: 1}, ("1",): {0: 1}}, "stratum (1,) is given twice"),
        # a stratum given as empty and then with classes is no exception
        ({(): {0: 1}, (1,): {}, ("1",): {0: 1}}, "stratum (1,) is given twice"),
    ])
    def test_stratum_key_given_twice_refused(self, cohomology, text):
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(2, cohomology)

    @pytest.mark.parametrize("dims, text", [
        ({0: 1, "0": 2}, "stratum () has degree 0 twice"),
        ({0: 1, 2: 1, "2": 1}, "stratum () has degree 2 twice"),
        # a degree given once with classes and once without
        ({0: 1, "0": 0}, "stratum () has degree 0 twice"),
    ])
    def test_cohomology_degree_given_twice_refused(self, dims, text):
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(0, {(): dims})

    @pytest.mark.parametrize("name, maps, text", [
        ("restrictions", {((), 1): {0: Matrix([[1]]), "0": Matrix([[2]])}}, "restriction ((), 1) has degree 0 twice"),
        ("gysins", {((1,), 1): {0: Matrix([[1]]), "0": Matrix([[1]])}}, "Gysin map ((1,), 1) has degree 0 twice"),
        ("restrictions", {((), 1): {0: Matrix([[1]])}, ((), "1"): {0: Matrix([[1]])}},
         "restriction ((), 1) is given twice"),
        ("gysins", {((1,), 1): {0: Matrix([[1]])}, (("1",), 1): {}}, "Gysin map ((1,), 1) is given twice"),
    ])
    def test_map_key_or_block_degree_given_twice_refused(self, name, maps, text):
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, {(): {0: 1}, (1,): {0: 1}}, **{name: maps})

    @pytest.mark.parametrize("cups, text", [
        ({(1,): {}, ("1",): {}}, "cup table of stratum (1,) is given twice"),
        ({(): {(0, 0): {(0, 0): {0: 1}}, ("0", 0): {}}}, "cup table of stratum () has degree pair (0, 0) twice"),
        ({(): {(0, 0): {(0, 0): {0: 1}, ("0", "0"): {0: 1}}}},
         "cup table of stratum () at degrees (0, 0) has basis pair (0, 0) twice"),
        ({(): {(0, 0): {(0, 0): {0: 1, "0": 5}}}},
         "cup table of stratum () at degrees (0, 0), basis pair (0, 0), has target index 0 twice"),
    ])
    def test_cup_key_given_twice_refused(self, cups, text):
        # a cup vector {0: 1, "0": 5} was held as {0: 5}
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, {(): {0: 1}, (1,): {0: 1}}, {}, {}, cups)

    @pytest.mark.parametrize("name, maps, text", [
        # this escaped from `build_model` as "AttributeError: 'list' object
        # has no attribute 'shape'"
        ("restrictions", {((), 1): {0: [[1]]}}, "restriction ((), 1) has a block at degree 0 that is not a Matrix"),
        ("gysins", {((1,), 1): {"0": ((1,),)}}, "Gysin map ((1,), 1) has a block at degree 0 that is not a Matrix"),
    ])
    def test_block_that_is_no_matrix_refused(self, name, maps, text):
        line = builder_projective_line_marked(1)
        given = {"restrictions": line.restrictions, "gysins": line.gysins, name: maps}
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            CompactificationDatum(1, line.cohomology, cups=line.cups, **given)


def square_of_points(restrictions):
    """Two components meeting in a point, every stratum a point: the two
    ways from D_() to D_(1, 2) are the given one-step restrictions."""
    cohomology = {(): {0: 1}, (1,): {0: 1}, (2,): {0: 1}, (1, 2): {0: 1}}
    blocks = {key: {0: Matrix([[v]])} for key, v in restrictions.items()}
    return CompactificationDatum(2, cohomology, blocks)


class TestRestrictionFunctoriality:
    def test_commuting_square_passes(self):
        cd = square_of_points({((), 1): 2, ((), 2): 3, ((1,), 2): 3, ((2,), 1): 2})
        assert cd._issues({}) == []
        # composites are (D, integer rows over D), D least
        assert cd._composite({}, (), (1, 2), 0) == cd._composite({}, (), (2, 1), 0) == (1, {0: {0: 6}})
        assert cd._composite({}, (), (), 0) == (1, {0: {0: 1}})

    def test_restriction_arguments_checked(self):
        # a restriction keyed by a stratum that names a component twice is
        # refused where the datum is made
        with pytest.raises(DatumError, match=r"^repeated component index in \(1, 1\)$"):
            square_of_points({((), 1): 2, ((), 2): 3, ((1,), 2): 3, ((2,), 1): 2, ((1, 1), 2): 1})

    def test_non_commuting_square_named(self):
        cd = square_of_points({((), 1): 1, ((), 2): 1, ((1,), 2): 1, ((2,), 1): 2})
        assert cd._issues({}) == [
            "restrictions from I=() through 1 and 2 do not commute at degree 0"
        ]
        # the two orders of the steps compose to 1 and 2
        assert cd._composite({}, (), (1, 2), 0) == (1, {0: {0: 1}})
        assert cd._composite({}, (), (2, 1), 0) == (1, {0: {0: 2}})
        with pytest.raises(DatumError, match=r"do not commute"):
            build_model(cd)

    def test_missing_step_named_by_validate(self):
        cd = square_of_points({((), 1): 1, ((), 2): 1, ((1,), 2): 1})
        assert cd._issues({}) == ["missing restriction for I=(2,), j=1, degree 0"]

    def test_missing_step_named_by_build_model(self):
        # one component: validation has no pair of steps to compare, but it
        # reads each step into a space with classes, and build_model
        # refuses the datum with that fault
        line = builder_projective_line_marked(1)
        cd = CompactificationDatum(1, line.cohomology, {}, line.gysins, line.cups)
        assert cd._issues({}) == ["missing restriction for I=(), j=1, degree 0"]
        with pytest.raises(DatumError, match=r"^missing restriction for I=\(\), j=1, degree 0$"):
            build_model(cd)

    def test_faults_listed_in_loop_order(self):
        # a non-commuting square, a missing step and a misshapen step: each
        # faulty step is listed once, under the stratum it leaves, and the
        # pairs (1, 3) and (2, 3) from () that need one are skipped
        cohomology = {key: {0: 1} for key in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]}
        cohomology[()] = {0: 1, 2: 1}
        steps = {
            ((), 1): {0: [[1]]}, ((), 2): {0: [[1]]}, ((), 3): {0: [[1]]},
            ((1,), 2): {0: [[1]]}, ((2,), 1): {0: [[-1]]},
            ((1,), 3): {0: [[1]]},
            ((2,), 3): {0: [[1, 0]]}, ((3,), 2): {0: [[1]]},
        }
        restrictions = {key: {p: Matrix(rows) for p, rows in blocks.items()} for key, blocks in steps.items()}
        cd = CompactificationDatum(3, cohomology, restrictions)
        assert cd._issues({}) == [
            "restrictions from I=() through 1 and 2 do not commute at degree 0",
            "restriction for I=(2,), j=3, degree 0 has shape (1, 2), expected (1, 1)",
            "missing restriction for I=(3,), j=1, degree 0",
        ]
        assert cd._issues({}) == reference.validate(cd)


# -- dense reference oracles -------------------------------------------------
#
# The production checks visit only the basis tuples that can meet a
# structure constant.  These loops visit every tuple; both must report
# the same violations in the same order.


def dense_closure(spaces, products):
    """Each nonzero entry of a given product of basis vectors outside its
    target space, in loop order: what `BigradedModel` refuses."""
    faults = []
    dim = {kq: len(labels) for kq, labels in spaces.items()}
    bidegs = sorted(kq for kq, n in dim.items() if n)
    for kq1 in bidegs:
        for kq2 in bidegs:
            k3, q3 = kq1[0] + kq2[0], kq1[1] + kq2[1]
            for a in range(dim[kq1]):
                for b in range(dim[kq2]):
                    for c, v in sorted(products.get((kq1, kq2), {}).get((a, b), {}).items()):
                        if v and not 0 <= c < dim.get((k3, q3), 0):
                            faults.append("product (%r, %d) x (%r, %d) has entry %d outside M^%d_%d"
                                          % (kq1, a, kq2, b, c, k3, q3))
    return faults


def built_or_refused(spaces, diff, products):
    """The model of the given data, or None where `dense_closure` lists a
    fault, after checking that construction refuses the first one."""
    faults = dense_closure(spaces, products)
    if not faults:
        return BigradedModel(spaces, diff, products)
    with pytest.raises(ValueError, match="^%s$" % re.escape(faults[0])):
        BigradedModel(spaces, diff, products)
    return None


def dense_cdga_axioms(model):
    violations = []
    for kq in model.bidegrees():
        k, q = kq
        second = reference.matmul(reference.differential(model, (k + 1, q)), reference.differential(model, kq))
        if any(x for row in second.rows for x in row):
            violations.append(("d_squared", "d o d nonzero on M^%d_%d" % (k, q)))
    bidegs = model.bidegrees()
    for kq1 in bidegs:
        for kq2 in bidegs:
            for a in range(model.dim(kq1)):
                for b in range(model.dim(kq2)):
                    prod = reference.mult_basis(model, kq1, a, kq2, b)
                    lhs = reference.diff_vec(model, (kq1[0] + kq2[0], kq1[1] + kq2[1]), prod)
                    da = reference.diff_vec(model, kq1, {a: F(1)})
                    rhs = reference.mult_vec(model, (kq1[0] + 1, kq1[1]), da, kq2, {b: F(1)})
                    db = reference.diff_vec(model, kq2, {b: F(1)})
                    sign = (-1) ** kq1[0]
                    for c, v in reference.mult_vec(model, kq1, {a: F(1)}, (kq2[0] + 1, kq2[1]), db).items():
                        rhs[c] = rhs.get(c, F(0)) + sign * v
                    rhs = {c: v for c, v in rhs.items() if v}
                    if lhs != rhs:
                        violations.append((
                            "leibniz",
                            "Leibniz fails for basis pair (%r, %d) x (%r, %d)" % (kq1, a, kq2, b),
                        ))
    for kq1 in bidegs:
        for kq2 in bidegs:
            for a in range(model.dim(kq1)):
                for b in range(model.dim(kq2)):
                    ab = reference.mult_basis(model, kq1, a, kq2, b)
                    ba = reference.mult_basis(model, kq2, b, kq1, a)
                    sign = (-1) ** (kq1[0] * kq2[0])
                    if ab != {c: sign * v for c, v in ba.items()}:
                        violations.append((
                            "graded_commutativity",
                            "commutativity fails for (%r, %d) x (%r, %d)" % (kq1, a, kq2, b),
                        ))
    for kq1 in bidegs:
        for kq2 in bidegs:
            kq12 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
            for kq3 in bidegs:
                kq23 = (kq2[0] + kq3[0], kq2[1] + kq3[1])
                for a in range(model.dim(kq1)):
                    for b in range(model.dim(kq2)):
                        ab = reference.mult_basis(model, kq1, a, kq2, b)
                        for c in range(model.dim(kq3)):
                            left = reference.mult_vec(model, kq12, ab, kq3, {c: F(1)})
                            bc = reference.mult_basis(model, kq2, b, kq3, c)
                            right = reference.mult_vec(model, kq1, {a: F(1)}, kq23, bc)
                            if left != right:
                                violations.append((
                                    "associativity",
                                    "associativity fails for (%r,%d),(%r,%d),(%r,%d)"
                                    % (kq1, a, kq2, b, kq3, c),
                                ))
    return AxiomReport(tuple(violations))


def dense_product_compatibility(f):
    """f(ab) = f(a)f(b) on every pair of basis vectors."""
    out = []
    for kq1 in f.source.bidegrees():
        for kq2 in f.source.bidegrees():
            kq3 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
            for a in range(f.source.dim(kq1)):
                fa = reference.image(f, kq1, {a: F(1)})
                for b in range(f.source.dim(kq2)):
                    lhs = reference.image(f, kq3, reference.mult_basis(f.source, kq1, a, kq2, b))
                    fb = reference.image(f, kq2, {b: F(1)})
                    if lhs != reference.mult_vec(f.target, kq1, fa, kq2, fb):
                        out.append(
                            "product compatibility fails for (%r, %d) x (%r, %d)" % (kq1, a, kq2, b)
                        )
    return out


def product_issues(f):
    """The product faults that `violations` reports."""
    return [v for v in f.violations() if v.startswith("product compatibility")]


def dense_differential_compatibility(f):
    """d o f = f o d at every bidegree as two dense matrix products: what
    `violations` reports before its product check."""
    out = []
    for kq in sorted(set(f.source.bidegrees()) | set(f.target.bidegrees())):
        k, q = kq
        left = reference.matmul(reference.block(f, (k + 1, q)), reference.differential(f.source, kq))
        right = reference.matmul(reference.differential(f.target, kq), reference.block(f, kq))
        if left != right:
            out.append("differential compatibility fails at %r" % (kq,))
    return out


def bench_square_witness_maps():
    """Kernel inclusions of the (5, 5), (s, 7 - s) and s = 2 cube data and
    cokernel projections of the compact square and cube."""
    lines = {s: builder_projective_line_marked(s) for s in range(6)}
    maps = []
    for sizes in [(5, 5), (2, 5), (3, 4), (4, 3), (5, 2), (2, 2, 2)]:
        cd = functools.reduce(kunneth_product, [lines[s] for s in sizes])
        maps.append(extract_kernel_model(build_model(cd), INF).morphism)
    for sizes in [(0, 0), (0, 0, 0)]:
        cd = functools.reduce(kunneth_product, [lines[s] for s in sizes])
        maps.append(extract_cokernel_model(build_model(cd), INF).morphism)
    return maps


def criterion_5_builders():
    lines = {s: builder_projective_line_marked(s) for s in range(6)}
    builders = {"line-%d" % s: cd for s, cd in lines.items()}
    for s in range(2, 6):
        builders["square-%d" % s] = kunneth_product(lines[s], lines[s])
    builders["mixed"] = kunneth_product(lines[2], lines[0])
    return builders


def single_block_flips():
    builders = criterion_5_builders()
    for name in ("square-2", "mixed"):
        cd = builders[name]
        for (i_set, i), blocks in sorted(cd.gysins.items()):
            for p in sorted(blocks):
                yield pytest.param(cd, i_set, i, p, id="%s-%r-%d-%d" % (name, i_set, i, p))


def unit_products(spaces):
    """Tables making the single basis vector of (0, 0) a two-sided unit."""
    products = {}
    for kq, labels in spaces.items():
        products[((0, 0), kq)] = {(0, a): {a: F(1)} for a in range(len(labels))}
        products[(kq, (0, 0))] = {(a, 0): {a: F(1)} for a in range(len(labels))}
    return products


def model_with_products(spaces, extra, diff=None):
    products = unit_products(spaces)
    for key, table in extra.items():
        products.setdefault(key, {}).update(table)
    return BigradedModel(spaces, diff or {}, products)


def planted_commutativity_fault():
    # two odd classes whose products in both orders are +z: they must anticommute
    spaces = {(0, 0): ("1",), (1, 2): ("x", "y"), (2, 4): ("z",)}
    return model_with_products(spaces, {((1, 2), (1, 2)): {(0, 1): {0: F(1)}, (1, 0): {0: F(1)}}})


def planted_one_sided_product():
    # xy = z but yx = 0: only the key (x, y) exists
    spaces = {(0, 0): ("1",), (1, 2): ("x", "y"), (2, 4): ("z",)}
    return model_with_products(spaces, {((1, 2), (1, 2)): {(0, 1): {0: F(1)}}})


def planted_leibniz_fault():
    # wy = 0 although d(w) = x and xy = z: Leibniz fails on (w, y) only
    # through (dw)y, and on (y, w) only through y(dw)
    spaces = {(0, 0): ("1",), (0, 2): ("w",), (1, 2): ("x",), (1, 1): ("y",), (2, 3): ("z",)}
    return model_with_products(
        spaces,
        {((1, 2), (1, 1)): {(0, 0): {0: F(1)}}, ((1, 1), (1, 2)): {(0, 0): {0: F(-1)}}},
        {(0, 2): Matrix([[1]])},
    )


def planted_associativity_fault():
    # commutative, but (aa)b = cb = w while a(ab) = 0
    spaces = {(0, 0): ("1",), (2, 4): ("a", "b"), (4, 8): ("c",), (6, 12): ("w",)}
    return model_with_products(spaces, {
        ((2, 4), (2, 4)): {(0, 0): {0: F(1)}},
        ((4, 8), (2, 4)): {(0, 1): {0: F(1)}},
        ((2, 4), (4, 8)): {(1, 0): {0: F(1)}},
    })


def stray_product_keys():
    # a passing model plus keys outside the basis and a table on bidegrees
    # that carry no space; a check visiting them would report a fault
    cd = builder_projective_line_marked(2)
    model = build_model(kunneth_product(cd, cd))
    products = {key: dict(table) for key, table in model.products.items()}
    products[((1, 2), (1, 2))][(model.dim((1, 2)), 0)] = {0: F(1)}
    products[((1, 2), (1, 2))][(-1, 0)] = {0: F(1)}
    products[((0, 0), (1, 2))][(0, model.dim((1, 2)) + 3)] = {0: F(5)}
    products[((7, 9), (0, 0))] = {(0, 0): {0: F(1)}}
    return BigradedModel(model.spaces, reference.differentials(model), products)


class TestSparseAxiomsAgainstDenseOracle:
    @pytest.mark.parametrize("name", sorted(criterion_5_builders()))
    def test_criterion_5_builders(self, name):
        model = build_model(criterion_5_builders()[name])
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.passed

    @pytest.mark.parametrize("cd, i_set, i, p", list(single_block_flips()))
    def test_single_block_flips(self, cd, i_set, i, p):
        model = build_model(negate_gysin_block(cd, i_set, i, p))
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert not report.passed

    def test_planted_commutativity_fault(self):
        model = planted_commutativity_fault()
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.violations == (
            ("graded_commutativity", "commutativity fails for ((1, 2), 0) x ((1, 2), 1)"),
            ("graded_commutativity", "commutativity fails for ((1, 2), 1) x ((1, 2), 0)"),
        )

    def test_planted_one_sided_product(self):
        model = planted_one_sided_product()
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.violations == (
            ("graded_commutativity", "commutativity fails for ((1, 2), 0) x ((1, 2), 1)"),
            ("graded_commutativity", "commutativity fails for ((1, 2), 1) x ((1, 2), 0)"),
        )

    def test_planted_leibniz_fault(self):
        model = planted_leibniz_fault()
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.violations == (
            ("leibniz", "Leibniz fails for basis pair ((0, 2), 0) x ((1, 1), 0)"),
            ("leibniz", "Leibniz fails for basis pair ((1, 1), 0) x ((0, 2), 0)"),
        )

    def test_planted_associativity_fault(self):
        model = planted_associativity_fault()
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.violations == (
            ("associativity", "associativity fails for ((2, 4),0),((2, 4),0),((2, 4),1)"),
            ("associativity", "associativity fails for ((2, 4),1),((2, 4),0),((2, 4),0)"),
        )

    def test_tall_differential_keeps_the_unit_pairs(self):
        # a tall d(w), with a row past the one-dimensional M^1_2, would make
        # d(ew) differ from e(dw) in that row although e is a unit; the model
        # refuses it, the first misfit d in sorted order, so the Leibniz
        # sweep may leave out the unit's pairs
        spaces = {(0, 0): ("1",), (0, 2): ("w",), (1, 2): ("x",)}
        with pytest.raises(ValueError, match=r"^differential at \(0, 2\) has shape \(2, 1\), expected \(1, 1\)$"):
            model_with_products(spaces, {}, {(0, 2): Matrix([[1], [1]]), (1, 2): Matrix([], ncols=2)})

    def test_stray_product_keys_ignored(self):
        model = stray_product_keys()
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.passed

    def test_product_outside_its_space(self):
        # xx names index 3 of the one-dimensional M^2_4: not a product of
        # the model, which construction refuses
        spaces = {(0, 0): ("1",), (1, 2): ("x",), (2, 4): ("z",)}
        products = {**unit_products(spaces), ((1, 2), (1, 2)): {(0, 0): {3: F(1)}}}
        fault = "product ((1, 2), 0) x ((1, 2), 0) has entry 3 outside M^2_4"
        assert dense_closure(spaces, products) == [fault]
        assert built_or_refused(spaces, {}, products) is None

    def test_product_outside_a_space_with_differential(self):
        # e times basis vector 0 of M^1_2 (dim 3, d there 1 x 3) also names
        # index 3: applying d's columns to it, or f's, or the witnesses'
        # column data, raised IndexError; a second entry outside, at -1 of
        # the one-dimensional M^0_0, comes first in (kq1, kq2, a, b, c) order
        m = build_model(builder_projective_line_marked(3))
        products = {key: {ab: dict(vec) for ab, vec in table.items()} for key, table in m.products.items()}
        products[((0, 0), (1, 2))][(0, 0)][3] = F(1)
        fault = "product ((0, 0), 0) x ((1, 2), 0) has entry 3 outside M^1_2"
        assert dense_closure(m.spaces, products) == [fault]
        assert built_or_refused(m.spaces, reference.differentials(m), products) is None
        products[((0, 0), (0, 0))][(0, 0)][-1] = F(2)
        assert dense_closure(m.spaces, products) == [
            "product ((0, 0), 0) x ((0, 0), 0) has entry -1 outside M^0_0", fault]
        assert built_or_refused(m.spaces, reference.differentials(m), products) is None
        # the compact square's top class likewise
        m = build_model(kunneth_product(builder_projective_line_marked(0), builder_projective_line_marked(0)))
        products = {key: {ab: dict(vec) for ab, vec in table.items()} for key, table in m.products.items()}
        products[((0, 0), (2, 2))][(0, 0)][5] = F(1)
        assert dense_closure(m.spaces, products) == ["product ((0, 0), 0) x ((2, 2), 0) has entry 5 outside M^2_2"]
        assert built_or_refused(m.spaces, reference.differentials(m), products) is None

    def test_misfit_differential_refused_before_a_product_outside_its_space(self):
        # both faults at once: the shape of d is refused first
        m = build_model(builder_projective_line_marked(2))
        products = {key: {ab: dict(vec) for ab, vec in table.items()} for key, table in m.products.items()}
        products[((0, 0), (1, 2))][(0, 0)][2] = F(1)
        diff = {**reference.differentials(m), (1, 2): Matrix([[1, 1, 0]])}
        with pytest.raises(ValueError, match=r"^differential at \(1, 2\) has shape \(1, 3\), expected \(1, 2\)$"):
            BigradedModel(m.spaces, diff, products)
        assert built_or_refused(m.spaces, reference.differentials(m), products) is None

    def test_zero_constant_outside_its_space(self):
        # an explicit zero at index 5 of the two-dimensional M^1_2, where d
        # has columns: a zero term is no term, so no column is looked up
        # for it, but 1.x and x.1 no longer have the same entries
        m = build_model(builder_projective_line_marked(2))
        products = {key: dict(table) for key, table in m.products.items()}
        products[((0, 0), (1, 2))][(0, 0)] = {**products[((0, 0), (1, 2))][(0, 0)], 5: F(0)}
        model = BigradedModel(m.spaces, reference.differentials(m), products)
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.axioms_failing() == ("graded_commutativity",)

    def test_cup_checks_match_dense(self):
        data = list(criterion_5_builders().values()) + [torus_like_compact_datum()]
        for cd in data:
            for i_key in cd.subsets():
                assert cd._check_cup(i_key) == reference.dense_cup_issues(cd, i_key)

    def test_cup_faults_match_dense(self):
        cups = dict(torus_like_compact_datum().cups[()])
        # both orders +g, and only one order present
        for table in ({(0, 1): {0: F(1)}, (1, 0): {0: F(1)}}, {(0, 1): {0: F(1)}}):
            cups[(1, 1)] = table
            cd = CompactificationDatum(0, {(): {0: 1, 1: 2, 2: 1}}, {}, {}, {(): cups})
            issues = cd._check_cup(())
            assert issues == reference.dense_cup_issues(cd, ())
            assert issues[:2] == [
                "cup product on D_() not graded-commutative at (1,0)x(1,1)",
                "cup product on D_() not graded-commutative at (1,1)x(1,0)",
            ]

        # even classes a, b, c, w with aa = c, cb = bc = w and ab = 0:
        # commutative, but (aa)b = w while a(ab) = 0
        dims = {0: 1, 2: 2, 4: 1, 6: 1}
        cups = {}
        for p, d in dims.items():
            cups[(0, p)] = {(0, a): {a: F(1)} for a in range(d)}
            cups[(p, 0)] = {(a, 0): {a: F(1)} for a in range(d)}
        cups[(2, 2)] = {(0, 0): {0: F(1)}}
        cups[(4, 2)] = {(0, 1): {0: F(1)}}
        cups[(2, 4)] = {(1, 0): {0: F(1)}}
        cd = CompactificationDatum(0, {(): dims}, {}, {}, {(): cups})
        issues = cd._check_cup(())
        assert issues == reference.dense_cup_issues(cd, ())
        assert issues == [
            "cup product on D_() not associative at (2,0),(2,0),(2,1)",
            "cup product on D_() not associative at (2,1),(2,0),(2,0)",
        ]

    def test_cup_faults_across_degrees_match_dense(self):
        # a one-sided unit and a one-sided product put faults in the degree
        # pairs (0, 2), (2, 0) and (2, 2), listed in the order of the labels
        # (p, a); an explicit zero constant is no term
        dims = {0: 1, 2: 2, 4: 1}
        units = {}
        for p, d in dims.items():
            units[(0, p)] = {(0, a): {a: F(1)} for a in range(d)}
            units[(p, 0)] = {(a, 0): {a: F(1)} for a in range(d)}
        del units[(2, 0)][(1, 0)]
        expected = {
            F(1): ["(0,0)x(2,1)", "(2,0)x(2,1)", "(2,1)x(0,0)", "(2,1)x(2,0)"],
            F(0): ["(0,0)x(2,1)", "(2,1)x(0,0)"],
        }
        for v, pairs in expected.items():
            cd = CompactificationDatum(0, {(): dims}, {}, {}, {(): {**units, (2, 2): {(0, 1): {0: v}}}})
            issues = cd._check_cup(())
            assert issues == reference.dense_cup_issues(cd, ())
            assert [i for i in issues if "commutative" in i] == [
                "cup product on D_() not graded-commutative at " + pair for pair in pairs
            ]

    def test_point_stratum_with_a_stray_key_is_checked(self):
        # beside (0, 0), the key (5, 0) makes (ee)e = 2e + e_5 differ from
        # e(ee) = e + e_5 on a point stratum
        cd = builder_projective_line_marked(1)
        cups = {**cd.cups, (1,): {(0, 0): {(0, 0): {0: F(1), 5: F(1)}, (5, 0): {0: F(1)}}}}
        bad = CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, cd.gysins, cups)
        issues = bad._check_cup((1,))
        assert issues == reference.dense_cup_issues(bad, (1,))
        assert issues == ["cup product on D_(1,) at (0,0)x(0,0) has entry 5 outside H^0",
                          "cup product on D_(1,) not associative at (0,0),(0,0),(0,0)"]

    @pytest.mark.parametrize("i_key", [(), (1,)])
    def test_cup_entry_outside_its_space_is_a_datum_fault(self, i_key):
        # a constant naming index 3 of the one-dimensional H^0 passed
        # validation, and build_model then raised a bare KeyError; on the
        # point stratum (1,) the ring checks take their shortcut, so only
        # the closure fault names it
        line = builder_projective_line_marked(2)
        cups = line.cups
        cups[i_key][(0, 0)][(0, 0)] = {0: F(1), 3: F(2)}
        cd = CompactificationDatum(line.components, line.cohomology, line.restrictions, line.gysins, cups)
        fault = "cup product on D_%r at (0,0)x(0,0) has entry 3 outside H^0" % (i_key,)
        assert cd._issues({}) == [fault]
        assert cd._check_cup(i_key) == reference.dense_cup_issues(cd, i_key)
        with pytest.raises(DatumError, match="^" + re.escape(fault) + "$"):
            build_model(cd)

    def test_point_stratum_refuses_an_unusable_constant(self):
        # a constant that is no number is refused where the datum is made,
        # also in a table of a degree the stratum has no classes in
        cd = builder_projective_line_marked(1)
        for table in ({(0, 0): {(0, 0): {0: "one"}}}, {(0, 0): {(0, 0): {0: F(1)}}, (0, 2): {(0, 0): {0: "one"}}}):
            with pytest.raises(ValueError, match="one"):
                CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, cd.gysins,
                                      {**cd.cups, (1,): table})

    def test_morphism_checks_match_dense(self):
        cd2 = builder_projective_line_marked(2)
        maps = []
        for cd in (cd2, kunneth_product(cd2, cd2), builder_projective_line_marked(4)):
            maps.append(extract_kernel_model(build_model(cd), INF).morphism)
        c0 = builder_projective_line_marked(0)
        maps.append(extract_cokernel_model(build_model(kunneth_product(c0, c0)), INF).morphism)
        m = build_model(cd2)
        blocks = {kq: reference.identity(m.dim(kq)) for kq in m.bidegrees()}
        maps.append(CdgaMorphism(m, m, blocks))
        blocks[(0, 0)] = Matrix([[-1]])
        maps.append(CdgaMorphism(m, m, blocks))
        failing = 0
        for f in maps:
            issues = product_issues(f)
            assert issues == dense_product_compatibility(f)
            failing += bool(issues)
        assert failing == 1

    def test_product_only_in_target_detected(self):
        # ab = 0 in the source, f(a) f(b) != 0 in the target
        spaces = {(0, 0): ("1",), (1, 2): ("x", "y"), (2, 4): ("z",)}
        source = model_with_products(spaces, {})
        target = planted_commutativity_fault()
        f = CdgaMorphism(source, target, {kq: reference.identity(len(v)) for kq, v in spaces.items()})
        assert f.violations() == dense_product_compatibility(f) == [
            "product compatibility fails for ((1, 2), 0) x ((1, 2), 1)",
            "product compatibility fails for ((1, 2), 1) x ((1, 2), 0)",
        ]

    def test_differential_checks_match_dense(self):
        maps = bench_square_witness_maps()
        for f in maps:
            assert f.violations() == dense_differential_compatibility(f) == []

        inclusion = maps[1]  # the kernel inclusion of the (2, 5) square
        model, kq = inclusion.target, (2, 4)
        blocks = reference.blocks(inclusion)
        block = blocks[kq]
        # a basis vector of M^2_4 outside the kernel: added to K's first
        # column at one entry, and swapped in for that column
        outside = next(i for i in range(model.dim(kq)) if reference.diff_vec(model, kq, {i: F(1)}))
        perturbed = [list(r) for r in block.rows]
        perturbed[outside][0] += 1
        swapped = [list(r) for r in block.rows]
        for i, row in enumerate(swapped):
            row[0] = F(i == outside)
        for rows in (perturbed, swapped):
            f = CdgaMorphism(inclusion.source, model, {**blocks, kq: Matrix(rows)})
            issues = [v for v in f.violations() if not v.startswith("product compatibility")]
            assert issues == dense_differential_compatibility(f) == [
                "differential compatibility fails at (2, 4)"
            ]

        message = "block at (2, 4) has shape (1, %d), expected %r" % (block.ncols, block.shape)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            CdgaMorphism(inclusion.source, model, {**blocks, kq: reference.zero_matrix(1, block.ncols)})

    def test_misfit_differentials_match_dense(self):
        # d on M^1_2 of the twice marked line is 1 x 2; a d of another width
        # or height, in the source or the target of the identity, would not
        # compose with f or would mismatch: the model refuses it first
        m = build_model(builder_projective_line_marked(2))
        assert reference.differential(m, (1, 2)).shape == (1, 2)
        for rows, shape in [([[1, 1, 0]], (1, 3)), ([[1, 1], [0, 0]], (2, 2)), ([[1, -1], [1, 1]], (2, 2))]:
            message = r"^differential at \(1, 2\) has shape %s, expected \(1, 2\)$" % re.escape(repr(shape))
            with pytest.raises(ValueError, match=message):
                BigradedModel(m.spaces, {**reference.differentials(m), (1, 2): Matrix(rows)}, m.products)

    def test_misfit_differentials_refused_by_axioms(self):
        # d on M^1_2 of the twice marked line with two rows cannot be
        # composed with the 0 x 1 d on M^2_2: the model refuses it, so the
        # axioms never meet it
        m = build_model(builder_projective_line_marked(2))
        with pytest.raises(ValueError, match=r"^differential at \(1, 2\) has shape \(2, 2\), expected \(1, 2\)$"):
            BigradedModel(m.spaces, {**reference.differentials(m), (1, 2): Matrix([[1, 1], [0, 0]])}, m.products)


# -- drawn rational models against the dense oracles ---------------------------
#
# A model in a rescaled basis s_i e_i is the same cdga with rational
# structure constants.  Planted faults change or add constants, add
# explicit zeros, keys outside the basis and tables on bidegrees without a
# space, and change differential or morphism entries.

RESCALINGS = [F(1), F(-1), F(2), F(-1, 2), F(3), F(1, 3), F(-2, 3), F(3, 2)]
PLANTED_VALUES = st.builds(F, st.integers(-5, 5), st.integers(1, 30))
DRAWN_BASES = [(2,), (3,), (0, 0), (2, 0), (1, 2), (2, 2)]


def draw_base(data):
    sizes = data.draw(st.sampled_from(DRAWN_BASES))
    return sizes, build_model(functools.reduce(kunneth_product, [builder_projective_line_marked(s) for s in sizes]))


def draw_scales(data, model):
    return {(kq, i): data.draw(st.sampled_from(RESCALINGS))
            for kq in model.bidegrees() for i in range(model.dim(kq))}


def in_rescaled_basis(model, scales):
    """`model` in the basis scales[(kq, i)] e_i: constants v s_a s_b / s_c
    and differential entries d_ij s_j / s_i."""
    products = {}
    for (kq1, kq2), table in model.products.items():
        kq3 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
        products[(kq1, kq2)] = {
            (a, b): {c: v * scales[kq1, a] * scales[kq2, b] / scales[kq3, c] for c, v in vec.items()}
            for (a, b), vec in table.items()
        }
    diff = {}
    for (k, q), d in reference.differentials(model).items():
        diff[(k, q)] = Matrix([[v * scales[(k, q), j] / scales[(k + 1, q), i] for j, v in enumerate(row)]
                               for i, row in enumerate(d.rows)], ncols=d.ncols)
    return BigradedModel(model.spaces, diff, products)


def perturbed(data, mat):
    """`mat` with one drawn entry moved by a drawn nonzero rational."""
    if not mat.nrows or not mat.ncols:
        return mat
    rows = [list(r) for r in mat.rows]
    i, j = data.draw(st.integers(0, mat.nrows - 1)), data.draw(st.integers(0, mat.ncols - 1))
    rows[i][j] += data.draw(PLANTED_VALUES.filter(bool))
    return Matrix(rows, ncols=mat.ncols)


def planted(data, model, kinds=("constant", "zero", "stray", "differential")):
    """A copy of `model` with up to four drawn faults of the given kinds,
    or None where an "escape" puts a product outside its space, after
    checking that construction refuses it (`built_or_refused`)."""
    products = {key: {ab: dict(vec) for ab, vec in table.items()} for key, table in model.products.items()}
    diff = reference.differentials(model)
    bidegs = model.bidegrees()
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(kinds))
        kq1, kq2 = data.draw(st.sampled_from(bidegs)), data.draw(st.sampled_from(bidegs))
        n1, n2, n3 = model.dim(kq1), model.dim(kq2), model.dim((kq1[0] + kq2[0], kq1[1] + kq2[1]))
        table = products.setdefault((kq1, kq2), {})
        if kind == "stray":
            a = data.draw(st.sampled_from([-1, n1, n1 + 2]))
            table[(a, data.draw(st.integers(0, n2 - 1)))] = {0: data.draw(PLANTED_VALUES)}
            products[((7, 9), kq1)] = {(0, 0): {0: F(1)}}
        elif kind == "differential" and diff:
            kq = data.draw(st.sampled_from(sorted(diff)))
            diff[kq] = perturbed(data, diff[kq])
        elif kind == "constant" and n3:
            a, b = data.draw(st.integers(0, n1 - 1)), data.draw(st.integers(0, n2 - 1))
            table.setdefault((a, b), {})[data.draw(st.integers(0, n3 - 1))] = data.draw(PLANTED_VALUES)
        elif kind == "zero":
            # a zero term is no term, even at an index outside the space
            a, b = data.draw(st.integers(0, n1 - 1)), data.draw(st.integers(0, n2 - 1))
            table.setdefault((a, b), {})[data.draw(st.integers(0, n3 + 1))] = F(0)
        elif kind == "escape":
            # a nonzero entry before or past the target space
            a, b = data.draw(st.integers(0, n1 - 1)), data.draw(st.integers(0, n2 - 1))
            c = data.draw(st.sampled_from([-1, n3, n3 + 1]))
            table.setdefault((a, b), {})[c] = data.draw(PLANTED_VALUES.filter(bool))
    return built_or_refused(model.spaces, diff, products)


def draw_morphism(data, kinds=("constant", "zero", "stray")):
    """A cdga map into a rescaled model, with drawn faults of the `planted`
    kinds `kinds` and in one block: the rescaling from another rescaling of
    the same model, or, for a model of weight 2k, the inclusion of its
    kernel witness; None where `planted` refuses either model."""
    sizes, base = draw_base(data)
    scales = draw_scales(data, base)
    target = in_rescaled_basis(base, scales)
    if 0 not in sizes and data.draw(st.booleans()):
        inclusion = extract_kernel_model(base, INF).morphism
        source = inclusion.source
        blocks = {kq: Matrix([[v / scales[kq, i] for v in row] for i, row in enumerate(mat.rows)], ncols=mat.ncols)
                  for kq, mat in reference.blocks(inclusion).items()}
    else:
        other = draw_scales(data, base)
        source = in_rescaled_basis(base, other)
        blocks = {kq: Matrix([[other[kq, i] / scales[kq, i] if i == j else 0 for j in range(base.dim(kq))]
                              for i in range(base.dim(kq))]) for kq in base.bidegrees()}
    source, target = planted(data, source, kinds), planted(data, target, kinds)
    if source is None or target is None:
        return None
    if blocks and data.draw(st.booleans()):
        kq = data.draw(st.sampled_from(sorted(blocks)))
        blocks[kq] = perturbed(data, blocks[kq])
    return CdgaMorphism(source, target, blocks)


def draw_cup_datum(data):
    """A compact datum whose cup ring on D_() is drawn: the unit cup or the
    torus-like ring, rescaled, with planted constants, zeros and keys."""
    dims = {0: 1, 1: data.draw(st.integers(0, 2)), 2: data.draw(st.integers(0, 2))}
    cups = dict(torus_like_compact_datum().cups[()]) if dims == {0: 1, 1: 2, 2: 1} else {}
    for p, d in dims.items():
        cups[(0, p)] = {(0, a): {a: F(1)} for a in range(d)}
        cups[(p, 0)] = {(a, 0): {a: F(1)} for a in range(d)}
    scales = {(p, a): data.draw(st.sampled_from(RESCALINGS)) for p, d in dims.items() for a in range(d)}
    cups = {(p, p2): {(a, b): {c: v * scales[p, a] * scales[p2, b] / scales[p + p2, c] for c, v in vec.items()}
                      for (a, b), vec in table.items()}
            for (p, p2), table in cups.items()}
    for _ in range(data.draw(st.integers(0, 4))):
        p, p2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        a, b = data.draw(st.integers(-1, dims[p])), data.draw(st.integers(-1, dims[p2]))
        c = data.draw(st.integers(0, max(dims.get(p + p2, 0), 1)))
        value = data.draw(st.sampled_from([F(0), 0]) | PLANTED_VALUES)
        cups.setdefault((p, p2), {}).setdefault((a, b), {})[c] = value
    return CompactificationDatum(0, {(): dims}, {}, {}, {(): cups})


# The unit e of M^0_0, scaled by a drawn s, lets the axiom checks leave out
# every tuple holding e.  Each variant but "unit" breaks one condition of
# that shortcut, so that the checks must sweep those tuples as well.
UNIT_VARIANTS = ("unit", "stray", "zero", "escape", "d(e)", "two units")


def unit_variant(data, model, variant):
    """The spaces, differentials and products of a copy of the rescaled
    `model`, whose e x = x e = s x, changed by `variant`: "unit" plants
    constants and differential entries away from e, "stray" and "zero" add
    an entry, nonzero or an explicit zero, to e x, x e or both, inside or
    just past the space of x, "escape" puts a product outside its space,
    "d(e)" adds a space M^1_0 = <u> with d(e) = t u, and "two units" a
    second basis vector f of M^0_0 with drawn products."""
    e = (0, 0)
    spaces = {kq: list(labels) for kq, labels in model.spaces.items()}
    diff = reference.differentials(model)
    products = {key: {ab: dict(vec) for ab, vec in table.items()} for key, table in model.products.items()}
    s = products[(e, e)][(0, 0)][0]
    others = [kq for kq in model.bidegrees() if kq != e]
    kq1 = data.draw(st.sampled_from(others))
    a = data.draw(st.integers(0, model.dim(kq1) - 1))
    value = data.draw(PLANTED_VALUES.filter(bool))
    if variant == "unit":
        for _ in range(data.draw(st.integers(0, 3))):
            kq1, kq2 = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
            kq3 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
            if model.dim(kq3):
                a, b = data.draw(st.integers(0, model.dim(kq1) - 1)), data.draw(st.integers(0, model.dim(kq2) - 1))
                c = data.draw(st.integers(0, model.dim(kq3) - 1))
                products.setdefault((kq1, kq2), {}).setdefault((a, b), {})[c] = data.draw(PLANTED_VALUES)
        if diff and data.draw(st.booleans()):
            kq = data.draw(st.sampled_from(sorted(diff)))
            diff[kq] = perturbed(data, diff[kq])
    elif variant in ("stray", "zero"):
        # outside the space only where d has no rows to look up
        c = data.draw(st.integers(0, model.dim(kq1) - bool(model.dim((kq1[0] + 1, kq1[1])))))
        sides = data.draw(st.sampled_from([[(e, kq1)], [(kq1, e)], [(e, kq1), (kq1, e)]]))
        for key in sides:
            vec = products[key][(0, a) if key[0] == e else (a, 0)]
            vec[c] = F(0) if variant == "zero" and c != a else vec.get(c, 0) + value
    elif variant == "escape":
        # into a bidegree where d has no rows, so that no column of d is
        # looked up for the entry outside the space
        kq1, kq2 = data.draw(st.sampled_from([(x, y) for x in others for y in others
                                              if not model.dim((x[0] + y[0] + 1, x[1] + y[1]))]))
        a, b = data.draw(st.integers(0, model.dim(kq1) - 1)), data.draw(st.integers(0, model.dim(kq2) - 1))
        c = model.dim((kq1[0] + kq2[0], kq1[1] + kq2[1])) + data.draw(st.integers(0, 1))
        products.setdefault((kq1, kq2), {}).setdefault((a, b), {})[c] = value
    elif variant == "d(e)":
        spaces[(1, 0)] = ["u"]
        products[(e, (1, 0))], products[((1, 0), e)] = {(0, 0): {0: s}}, {(0, 0): {0: s}}
        diff[e] = Matrix([[value]])
    else:
        spaces[e].append("f")
        products[(e, e)][(0, 1)] = products[(e, e)][(1, 0)] = {1: s}
        products[(e, e)][(1, 1)] = {1: data.draw(PLANTED_VALUES)}
        for key, ab in [((e, kq1), (1, a)), ((kq1, e), (a, 1))][: data.draw(st.integers(1, 2))]:
            products.setdefault(key, {})[ab] = {a: value}
    return spaces, diff, products


def as_cup_datum(spaces, products):
    """The products on `spaces` as the cup ring of D_() of a compact
    datum, (k, q) in degree k + 10q: additive, one-to-one on the drawn
    bidegrees, and of the parity of k, so the ring axioms are a model's."""
    def degree(kq):
        return kq[0] + 10 * kq[1]

    cups = {(degree(kq1), degree(kq2)): table for (kq1, kq2), table in products.items()}
    return CompactificationDatum(0, {(): {degree(kq): len(labels) for kq, labels in spaces.items()}}, {}, {},
                                 {(): cups})


# The product check of a morphism leaves out the pairs holding the source's
# unit when f maps it to the target's unit times u with sigma = u tau.  Each
# variant but "unit" breaks one condition of that shortcut.
MORPHISM_UNIT_VARIANTS = ("unit", "scaled f(e)", "stray f(e)", "no target unit", "two source units")


def draw_unit_morphism(data, variant):
    """The identity of a drawn model as a map between two rescalings of it,
    changed by `variant`: "unit" plants constants and differential entries
    away from the units, "scaled f(e)" multiplies f(e) by t != 1, so that
    sigma != u tau, "stray f(e)" gives the target a second basis vector g
    of M^0_0 and f(e) an entry on g, "no target unit" adds an entry to e'y
    or ye', as `unit_variant` does, and "two source units" gives the source a
    second basis vector of M^0_0, mapped to a drawn multiple of e'."""
    _, base = draw_base(data)
    other, scales = draw_scales(data, base), draw_scales(data, base)
    source, target = in_rescaled_basis(base, other), in_rescaled_basis(base, scales)
    blocks = {kq: [[other[kq, i] / scales[kq, i] if i == j else F(0) for j in range(base.dim(kq))]
                   for i in range(base.dim(kq))] for kq in base.bidegrees()}
    e = (0, 0)
    value = data.draw(PLANTED_VALUES.filter(bool))
    if variant == "unit":
        source = BigradedModel(*unit_variant(data, source, "unit"))
        target = BigradedModel(*unit_variant(data, target, "unit"))
    elif variant == "scaled f(e)":
        blocks[e][0][0] *= data.draw(st.sampled_from([x for x in RESCALINGS if x != 1]))
    elif variant == "stray f(e)":
        target = BigradedModel(*unit_variant(data, target, "two units"))
        blocks[e].append([value])
    elif variant == "no target unit":
        # a "stray" entry past the space of x is refused with the model
        target = built_or_refused(*unit_variant(data, target, data.draw(st.sampled_from(["stray", "zero"]))))
        assume(target is not None)
    else:
        source = BigradedModel(*unit_variant(data, source, "two units"))
        blocks[e][0].append(value)
    return CdgaMorphism(source, target, {kq: Matrix(rows) for kq, rows in blocks.items()})


class TestDrawnRationalModels:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_axioms_match_dense(self, data):
        _, base = draw_base(data)
        model = planted(data, in_rescaled_basis(base, draw_scales(data, base)))
        assert verify_cdga_axioms(model) == dense_cdga_axioms(model)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cup_check_matches_dense(self, data):
        cd = draw_cup_datum(data)
        assert cd._check_cup(()) == reference.dense_cup_issues(cd, ())

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_unit_shortcut_matches_dense(self, data):
        _, base = draw_base(data)
        variant = data.draw(st.sampled_from(UNIT_VARIANTS))
        spaces, diff, products = unit_variant(data, in_rescaled_basis(base, draw_scales(data, base)), variant)
        # a datum's cup check lists a product outside its space and sweeps
        # the ring without the unit shortcut
        cd = as_cup_datum(spaces, products)
        assert cd._check_cup(()) == reference.dense_cup_issues(cd, ())
        model = built_or_refused(spaces, diff, products)
        if model is None:  # "escape", or a "stray" entry past the space of x
            assert variant in ("escape", "stray")
            return
        assert variant != "escape"
        span = {kq: range(model.dim(kq)) for kq in model.bidegrees()}
        assert morganmodel._has_unit(model.tables, span) == model._unit == (variant in ("unit", "d(e)"))
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        if variant == "d(e)":
            assert ("leibniz", "Leibniz fails for basis pair ((0, 0), 0) x ((0, 0), 0)") in report.violations

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_compatibility_matches_dense(self, data):
        f = draw_morphism(data)
        assert product_issues(f) == dense_product_compatibility(f)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_escaping_products_match_dense(self, data):
        # `planted` checks that construction refuses a model with a product
        # outside its space, at the first fault of the dense loop
        _, base = draw_base(data)
        model = planted(data, in_rescaled_basis(base, draw_scales(data, base)), ("escape", "constant", "differential"))
        if model is not None:
            assert verify_cdga_axioms(model) == dense_cdga_axioms(model)
        f = draw_morphism(data, ("escape", "constant", "zero", "stray"))
        if f is None:
            return
        assert product_issues(f) == dense_product_compatibility(f)
        problems = f.violations()
        if problems:
            with pytest.raises(MorphismError, match="^%s$" % re.escape(problems[0])):
                check_r_quasi_iso(f, INF)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_morphism_unit_shortcut_matches_dense(self, data):
        variant = data.draw(st.sampled_from(MORPHISM_UNIT_VARIANTS))
        f = draw_unit_morphism(data, variant)
        assert f._keeps_unit() == (variant == "unit")
        issues = product_issues(f)
        assert issues == dense_product_compatibility(f)
        if variant == "scaled f(e)":
            assert "product compatibility fails for ((0, 0), 0) x ((0, 0), 0)" in issues


class TestWitnessClosure:
    def test_kernel_product_leaves_kernel(self):
        # x in K^1; x.x = y1, but K^2 = span(y0) since d(y1) = z
        spaces = {(1, 2): ("x",), (2, 4): ("y0", "y1"), (3, 4): ("z",)}
        model = model_with_products(
            spaces, {((1, 2), (1, 2)): {(0, 0): {1: F(1)}}}, {(2, 4): Matrix([[0, 1]])}
        )
        with pytest.raises(ClosureError, match=r"K\^1 x K\^1 pair \(0, 0\)"):
            extract_kernel_model(model, INF)

    def test_kernel_product_into_trivial_kernel(self):
        # K^2 = 0 because d(y) = z, yet x.x = y
        spaces = {(1, 2): ("x",), (2, 4): ("y",), (3, 4): ("z",)}
        model = model_with_products(
            spaces, {((1, 2), (1, 2)): {(0, 0): {0: F(1)}}}, {(2, 4): Matrix([[1]])}
        )
        with pytest.raises(ClosureError, match=r"K\^1 x K\^1 pair \(0, 0\)"):
            extract_kernel_model(model, INF)

    def test_boundary_product_survives_in_cokernel(self):
        # u = d(w) is a boundary, but u.v = t is a nonzero class of C^2
        spaces = {(0, 0): ("1",), (0, 1): ("w",), (1, 1): ("u", "v"), (2, 2): ("t",)}
        model = model_with_products(
            spaces, {((1, 1), (1, 1)): {(0, 1): {0: F(1)}}}, {(0, 1): Matrix([[1], [0]])}
        )
        with pytest.raises(ClosureError, match=r"survives in C\^2 \(from C\^1 x C\^1\)"):
            extract_cokernel_model(model, INF)

    def test_cokernel_refuses_d_off_a_line_space_with_classes(self):
        # d(x) = -z and d(y) = z: a cdga whose C^1 = H^1_1 is spanned by
        # x + y, while x and y themselves are not cocycles and have no class
        spaces = {(0, 0): ("e",), (1, 1): ("x", "y"), (2, 1): ("z",), (2, 2): ("w",)}
        model = model_with_products(spaces, {}, {(1, 1): Matrix([[-1, 1]])})
        assert verify_cdga_axioms(model).passed
        assert cohomology_of_model(model) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        with pytest.raises(ClosureError, match=r"^cokernel model refused: d does not vanish on M\^1_1$"):
            extract_cokernel_model(model, INF)


def draw_small_model(rng):
    """(0, 0), of dimension 1, and one to four further bidegrees (k, q) with
    k, q <= 2, each of dimension 1 or 2; d from (k, q) to (k + 1, q)
    wherever both are drawn, entries in [-2, 2]; and, half the time, a
    two-sided unit spanning (0, 0).  Nothing keeps d o d at zero."""
    others = rng.sample([(k, q) for k in range(3) for q in range(3) if (k, q) != (0, 0)], rng.randint(1, 4))
    spaces = {(0, 0): ("e",)}
    for k, q in sorted(others):
        spaces[(k, q)] = tuple("m%d%d_%d" % (k, q, j) for j in range(rng.randint(1, 2)))
    diff = {(k, q): Matrix([[rng.randint(-2, 2) for _ in spaces[(k, q)]] for _ in spaces[(k + 1, q)]])
            for k, q in spaces if (k + 1, q) in spaces}
    return BigradedModel(spaces, diff, unit_products(spaces) if rng.random() < 0.5 else {})


class TestDrawnSmallModels:
    def test_cohomology_and_witnesses_answer_or_refuse(self):
        rng = random.Random(3)
        refusals = (ModelPurityError, ClosureError, MorphismError)
        for _ in range(3000):
            model = draw_small_model(rng)
            faults = [text for name, text in verify_cdga_axioms(model).violations if name == "d_squared"]
            try:
                cohomology = cohomology_of_model(model)
            except ValueError as err:
                assert faults and str(err) == faults[0]
            else:
                assert not faults and all(h > 0 for h in cohomology.values())
            r = rng.choice((0, 1, INF))
            for extract in (extract_kernel_model, extract_cokernel_model):
                try:
                    extract(model, r)
                except refusals:
                    continue
                except ValueError as err:
                    assert faults and str(err) == faults[0]
                    continue
                assert not faults


def cocycles(col):
    """The cocycle basis of column data as sparse rational vectors."""
    return [{i: F(x, col.cocycle_scale) for i, x in v.items()} for v in col.cocycle_cols]


def dense(cols, scale, n):
    return [[F(v.get(i, 0), scale) for i in range(n)] for v in cols]


def representatives(col, n):
    """The chosen cocycles of column data on a space of dimension n, as
    dense rational vectors."""
    return dense(col.representative_cols, col.cocycle_scale, n)


def boundary_basis(col, model, kq):
    """The chosen boundaries of column data at `kq` of `model`, as dense
    rational vectors."""
    return dense(col.boundary_cols, model.scale, model.dim(kq))


def coordinates(col, vec):
    """The coordinates of the cocycle `vec` on the representatives of column
    data, modulo boundaries, as a dense rational tuple.  A rational `vec` is
    scaled to integers first, as `class_coordinates` takes integer vectors."""
    scale = math.lcm(*(F(v).denominator for v in vec.values()))
    den, coords = col.class_coordinates({i: int(v * scale) for i, v in vec.items()})
    return tuple(F(coords.get(i, 0), den * scale) for i in range(col.dim))


class TestFastCoordinatesAgainstSolve:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=0, max_size=4),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )))
    def test_kernel_coordinates(self, drawn):
        rows, coeffs, outside = drawn
        n = len(coeffs)
        d = Matrix(rows, ncols=n)
        spaces = {(0, 0): tuple(range(n)), (1, 0): tuple(range(len(rows)))}
        col = _ColumnCohomology(BigradedModel(spaces, {(0, 0): d}, {}), (0, 0))
        if not col.cocycle_cols:
            return
        basis = reference.from_columns([[v.get(i, F(0)) for i in range(n)] for v in cocycles(col)], nrows=n)
        # a vector in the span, and one that may lie outside it
        inside = reference.apply(basis, [F(c) for c in coeffs[: len(col.cocycle_cols)]])
        for vec in (inside, tuple(F(x) for x in outside)):
            sol = reference.solve(basis, vec)
            got = col.cocycle_coordinates({i: v for i, v in enumerate(vec) if v})
            if sol is None:
                assert got is None
            else:
                assert got == {c: v for c, v in enumerate(sol) if v}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.integers(0, 4).flatmap(lambda m: st.lists(
            st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=n, max_size=n)),
        st.integers(0, 3).flatmap(lambda p: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=p, max_size=p)),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )))
    def test_column_cohomology_coordinates(self, drawn):
        d_in_rows, d_out_rows, coeffs, outside = drawn
        n = len(coeffs)
        m = len(d_in_rows[0])
        spaces = {(0, 0): tuple(range(m)), (1, 0): tuple(range(n)), (2, 0): tuple(range(len(d_out_rows)))}
        diff = {(0, 0): Matrix(d_in_rows, ncols=m), (1, 0): Matrix(d_out_rows, ncols=n)}
        model = BigradedModel(spaces, diff, {})
        col = _ColumnCohomology(model, (1, 0))

        # greedy selection by rank, boundaries first, then cocycles
        chosen = []
        for v in [list(c) for c in zip(*diff[(0, 0)].rows)] + [list(c) for c in reference.right_kernel(diff[(1, 0)])]:
            if reference.rank(reference.from_columns(chosen + [v], nrows=n)) == len(chosen) + 1:
                chosen.append(v)
        assert boundary_basis(col, model, (1, 0)) + representatives(col, n) == chosen

        solve_matrix = reference.from_columns(chosen, nrows=n)
        inside = reference.apply(solve_matrix, [F(c) for c in coeffs[: len(chosen)]])
        for vec in (inside, tuple(F(x) for x in outside)):
            sol = reference.solve(solve_matrix, vec)
            sparse = {i: v for i, v in enumerate(vec) if v}
            if sol is None:
                with pytest.raises(ValueError):
                    coordinates(col, sparse)
            else:
                assert coordinates(col, sparse) == tuple(sol[len(col.boundary_cols):])


class TestColumnCohomologyOnComplexes:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.integers(0, 5).flatmap(lambda p: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=p, max_size=p)),
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=0, max_size=5),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )))
    def test_coordinates_with_d_squared_zero(self, drawn):
        d_out_rows, weights, coeffs, outside = drawn
        n = len(coeffs)
        d_out = Matrix(d_out_rows, ncols=n)
        # each boundary is a combination of the cocycle basis: d_out d_in = 0
        kernel = reference.right_kernel(d_out)
        boundaries = [
            [sum((F(w) * v[i] for w, v in zip(ws, kernel)), F(0)) for i in range(n)] for ws in weights
        ]
        d_in = reference.from_columns(boundaries, nrows=n)
        assert all(x == 0 for row in reference.matmul(d_out, d_in).rows for x in row)
        spaces = {(0, 0): tuple(range(d_in.ncols)), (1, 0): tuple(range(n)), (2, 0): tuple(range(d_out.nrows))}
        model = BigradedModel(spaces, {(0, 0): d_in, (1, 0): d_out}, {})
        col = _ColumnCohomology(model, (1, 0))

        # greedy selection by rank, boundaries first, then cocycles
        chosen = []
        for v in [list(c) for c in zip(*d_in.rows)] + [list(c) for c in kernel]:
            if reference.rank(reference.from_columns(chosen + [v], nrows=n)) == len(chosen) + 1:
                chosen.append(v)
        assert boundary_basis(col, model, (1, 0)) + representatives(col, n) == chosen

        solve_matrix = reference.from_columns(chosen, nrows=n)
        inside = reference.apply(solve_matrix, [F(c) for c in coeffs[: len(chosen)]])
        for vec in (inside, tuple(F(x) for x in outside)):
            sol = reference.solve(solve_matrix, vec)
            sparse = {i: v for i, v in enumerate(vec) if v}
            if sol is None:
                with pytest.raises(ValueError):
                    coordinates(col, sparse)
            else:
                assert coordinates(col, sparse) == tuple(sol[len(col.boundary_cols):])


class TestSparseRank:
    """`_reduce`, the one elimination of the model route, against the dense
    elimination of `reference`: its pivot count against `rank`, and the
    relations of the dependent columns against `right_kernel`."""

    @staticmethod
    def draw_columns(data):
        n = data.draw(st.integers(0, 6))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3]) | st.integers(-10 ** 40, 10 ** 40)
        cols = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
        # repeated columns and multiples of drawn ones
        for _ in range(data.draw(st.integers(0, 3)) if cols else 0):
            factor = data.draw(st.sampled_from([1, -1, 7, -(10 ** 20)]))
            cols.insert(data.draw(st.integers(0, len(cols))), [factor * x for x in data.draw(st.sampled_from(cols))])
        # explicit zeros are no entries
        sparse = [{i: x for i, x in enumerate(col) if x or data.draw(st.booleans())} for col in cols]
        return Matrix(list(zip(*cols)) if cols else [[] for _ in range(n)], ncols=len(cols)), sparse

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_dense_rank(self, data):
        dense, sparse = self.draw_columns(data)
        assert morganmodel._sparse_rank(sparse) == reference.rank(dense)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relations_match_dense_kernel(self, data):
        dense, sparse = self.draw_columns(data)
        relations = morganmodel._relations(sparse)
        # one primitive relation per free column, h / h[f] its kernel vector
        assert all(h[f] and math.gcd(*h.values()) == 1 and max(h) == f for f, h in relations.items())
        kernel = tuple(tuple(F(h.get(i, 0), h[f]) for i in range(dense.ncols)) for f, h in relations.items())
        assert kernel == reference.right_kernel(dense)


class TestProductJoin:
    """`_accumulate`, the one join of a product table with vectors, against
    `reference.mult_vec`, which multiplies one pair of vectors at a time."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_pairwise_products(self, data):
        dims = [data.draw(st.integers(1, 4)) for _ in range(3)]
        value = st.sampled_from([0, 1, -1, 2, F(1, 3), F(-5, 2)])
        # keys one past a space, or at an index no vector uses, meet no row
        keys = st.tuples(st.integers(0, dims[0]), st.integers(0, dims[1]))
        table = data.draw(st.dictionaries(keys, st.dictionaries(st.integers(0, dims[2] - 1), value, max_size=3),
                                          max_size=8))
        identity = data.draw(st.sampled_from([None, 0, 1]))  # the side, if any, that is the basis itself
        vectors, rows = [], []
        for side, n in enumerate(dims[:2]):
            if side == identity:
                vectors.append([{a: 1} for a in range(n)])
                rows.append(morganmodel._identity_rows({side: range(n)})[side])
            else:
                vectors.append(data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), value, max_size=n),
                                                  max_size=3)))
                rows.append(morganmodel._sparse_rows(vectors[side]))
        coeff = data.draw(st.sampled_from([1, -1, 3, F(-2, 7)]))
        got = morganmodel._pair_products(morganmodel._accumulate({}, table, *rows, coeff))
        kq1, kq2 = (1, 1), (2, 2)
        spaces = {kq1: tuple(range(dims[0])), kq2: tuple(range(dims[1])), (3, 3): tuple(range(dims[2]))}
        model = BigradedModel(spaces, {}, {(kq1, kq2): table})
        want = {}
        for a, v1 in enumerate(vectors[0]):
            for b, v2 in enumerate(vectors[1]):
                prod = reference.mult_vec(model, kq1, v1, kq2, v2)
                if prod:
                    want[(a, b)] = {c: coeff * v for c, v in prod.items()}
        assert got == want and list(got) == list(want)


# -- witnesses against their pairwise reference ----------------------------------
#
# The quasi-isomorphism check and the witness products as they were first
# written: column data built at every bidegree of both models, and every
# pair of basis vectors multiplied with the dense `reference.mult_vec`.


def reference_quasi_iso(f, r):
    """`check_r_quasi_iso` with fresh column data at every bidegree."""
    problems = f.violations()
    if problems:
        raise MorphismError(problems[0])
    weights = sorted({q for (_, q) in set(f.source.bidegrees()) | set(f.target.bidegrees())})
    max_k = max([k for (k, _) in f.source.bidegrees()] + [k for (k, _) in f.target.bidegrees()], default=0)
    per_degree, failures = [], []
    for k in range(max_k + 2):
        h_src = h_tgt = rank_total = 0
        iso = injective = True
        for q in weights:
            src, tgt = _ColumnCohomology(f.source, (k, q)), _ColumnCohomology(f.target, (k, q))
            h_src += src.dim
            h_tgt += tgt.dim
            if src.dim == 0 and tgt.dim == 0:
                continue
            cols = [list(coordinates(tgt, reference.image(f, (k, q), dict(enumerate(rep)))))
                    for rep in representatives(src, f.source.dim((k, q)))]
            rk = reference.rank(reference.from_columns(cols, nrows=tgt.dim))
            rank_total += rk
            injective = injective and rk == src.dim
            iso = iso and rk == src.dim == tgt.dim
        per_degree.append((k, h_src, h_tgt, rank_total))
        if k <= r and not iso:
            failures.append("not an isomorphism on H^%d" % k)
        if r != INF and k == r + 1 and not injective:
            failures.append("not injective on H^%d" % k)
    return (r, not failures, tuple(per_degree), tuple(failures))


def reference_kernel_products(model):
    """The kernel witness's tables from pairwise products of cocycles."""
    cols = {k: _ColumnCohomology(model, (k, 2 * k)) for k in range(model.max_degree() + 1)}
    kernels = {k: col for k, col in cols.items() if col.cocycle_cols}
    products = {}
    for k1, col1 in kernels.items():
        for k2, col2 in kernels.items():
            table = {}
            for a, va in enumerate(cocycles(col1)):
                for b, vb in enumerate(cocycles(col2)):
                    prod = reference.mult_vec(model, (k1, 2 * k1), va, (k2, 2 * k2), vb)
                    vec = kernels[k1 + k2].cocycle_coordinates(prod) if k1 + k2 in kernels else None
                    if vec is None and prod:
                        raise ClosureError("kernel product escapes at K^%d x K^%d pair (%d, %d)" % (k1, k2, a, b))
                    if vec:
                        table[(a, b)] = vec
            if table:
                products[((k1, 2 * k1), (k2, 2 * k2))] = table
    return products


def reference_cokernel_products(model):
    """The cokernel witness's tables from pairwise products of
    representatives, after the boundary-times-basis check."""
    data = {k: _ColumnCohomology(model, (k, k)) for k in range(model.max_degree() + 1) if model.dim((k, k))}
    for k, col in data.items():
        for u in boundary_basis(col, model, (k, k)):
            for k2 in data:
                if k + k2 in data and data[k + k2].dim:
                    for j in range(model.dim((k2, k2))):
                        prod = reference.mult_vec(model, (k, k), dict(enumerate(u)), (k2, k2), {j: F(1)})
                        if any(coordinates(data[k + k2], prod)):
                            raise ClosureError("boundary times basis vector survives in C^%d (from C^%d x C^%d)"
                                               % (k + k2, k, k2))
    products = {}
    for k1, col1 in data.items():
        for k2, col2 in data.items():
            if not col1.dim or not col2.dim or k1 + k2 not in data or not data[k1 + k2].dim:
                continue
            table = {}
            for a, ra in enumerate(representatives(col1, model.dim((k1, k1)))):
                for b, rb in enumerate(representatives(col2, model.dim((k2, k2)))):
                    prod = reference.mult_vec(model, (k1, k1), dict(enumerate(ra)), (k2, k2), dict(enumerate(rb)))
                    vec = {c: v for c, v in enumerate(coordinates(data[k1 + k2], prod)) if v}
                    if vec:
                        table[(a, b)] = vec
            if table:
                products[((k1, k1), (k2, k2))] = table
    return products


def rescaled(cd, scales):
    """The datum in the basis where basis vector a of H^p(D_I) is multiplied
    by a nonzero scale; the scales are taken from `scales` in turn."""
    labels = [(key, p, a) for key in cd.subsets() for p in reference.degrees(cd, key) for a in range(cd.dim(key, p))]
    scale = {lab: F(scales[i % len(scales)]) for i, lab in enumerate(labels)}

    def conj(blk, src, p, tgt, q):
        return Matrix(
            [[blk.rows[b][a] * scale[(src, p, a)] / scale[(tgt, q, b)] for a in range(blk.ncols)]
             for b in range(blk.nrows)],
            ncols=blk.ncols,
        )

    restrictions = {
        (key, j): {p: conj(blk, key, p, tuple(sorted(key + (j,))), p) for p, blk in blocks.items()}
        for (key, j), blocks in cd.restrictions.items()
    }
    gysins = {
        (key, i): {p: conj(blk, key, p, tuple(x for x in key if x != i), p + 2) for p, blk in blocks.items()}
        for (key, i), blocks in cd.gysins.items()
    }
    cups = {
        key: {
            (p, p2): {
                (a, b): {c: F(v) * scale[(key, p, a)] * scale[(key, p2, b)] / scale[(key, p + p2, c)]
                         for c, v in vec.items()}
                for (a, b), vec in entries.items()
            }
            for (p, p2), entries in table.items()
        }
        for key, table in cd.cups.items()
    }
    return CompactificationDatum(cd.components, cd.cohomology, restrictions, gysins, cups)


def scale_draw(rng):
    """A nonzero scale a/b with a, b <= 30, of either sign."""
    return F(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))


def marked_lines(*sizes):
    return functools.reduce(kunneth_product, [builder_projective_line_marked(s) for s in sizes])


def builder_and_kunneth_models():
    lines = {s: builder_projective_line_marked(s) for s in range(6)}
    data = {"point": builder_point(), "torus-like": torus_like_compact_datum(),
            **{"line-%d" % s: cd for s, cd in lines.items()}}
    for s1 in range(6):
        for s2 in range(s1, 6):
            data["square-%d-%d" % (s1, s2)] = kunneth_product(lines[s1], lines[s2])
    for sizes in [(0, 0, 0), (1, 0, 2), (2, 2, 2), (3, 3, 3)]:
        data["cube-%d-%d-%d" % sizes] = functools.reduce(kunneth_product, [lines[s] for s in sizes])
    data["torus-like-x-line-2"] = kunneth_product(torus_like_compact_datum(), lines[2])
    for name, cd in data.items():
        yield pytest.param(cd, id=name)


def exterior_algebra(n, scale=None):
    """The exterior algebra on n generators of bidegree (1, 2), with d = 0:
    the basis of (k, 2k) is the k-subsets S in `combinations` order, and
    e_S e_T = sgn(S, T) e_{S+T} for disjoint S and T.  `scale`, if given,
    maps each S to the scale of e_S."""
    index, spaces = {}, {}
    for k in range(n + 1):
        subsets = list(combinations(range(n), k))
        spaces[(k, 2 * k)] = tuple("e%r" % (s,) for s in subsets)
        index.update((s, (k, i)) for i, s in enumerate(subsets))
    products = {}
    for s, (k1, a) in index.items():
        for t, (k2, b) in index.items():
            if not set(s) & set(t):
                u = tuple(sorted(s + t))
                v = F(shuffle_sign(s, t))
                if scale:
                    v *= scale[s] * scale[t] / scale[u]
                products.setdefault(((k1, 2 * k1), (k2, 2 * k2)), {})[(a, b)] = {index[u][1]: v}
    return BigradedModel(spaces, {}, products)


def rational_witness_data():
    """Data whose integer forms have D > 1: Kunneth squares, cubes and
    compact data rescaled by scales a/b with a, b <= 30, and d = 0 exterior
    algebras on 3 to 5 generators, as they are and rescaled."""
    data = {"x".join(map(str, sizes)): marked_lines(*sizes)
            for sizes in [(2, 3), (5, 1), (1, 1, 2), (2, 2, 2), (0, 0), (0, 0, 0)]}
    data["torus-like-x-0"] = kunneth_product(torus_like_compact_datum(), marked_lines(0))
    for seed, (name, cd) in enumerate(data.items()):
        rng = random.Random(seed)
        yield pytest.param(rescaled(cd, [scale_draw(rng) for _ in range(12)]), id="rescaled-" + name)
    for n in (3, 4, 5):
        rng = random.Random(n)
        yield pytest.param(exterior_algebra(n), id="exterior-%d" % n)
        scale = {s: scale_draw(rng) for k in range(n + 1) for s in combinations(range(n), k)}
        yield pytest.param(exterior_algebra(n, scale), id="exterior-%d-rescaled" % n)


def broken_square_model(q=0):
    """A sequence M^0 -> M^1 -> M^2 in weight q with d o d != 0 on M^0_q:
    d(w) = u and d(u) = t.  It has no cohomology: at (1, q) the rank
    formula gives 2 - 1 - 1 = 0, but the cocycle v is independent of the
    boundary u, so the column data there has one class."""
    spaces = {(0, q): ("w",), (1, q): ("u", "v"), (2, q): ("t",)}
    diff = {(0, q): Matrix([[1], [0]]), (1, q): Matrix([[1, 0]])}
    return BigradedModel(spaces, diff, {})


class TestWitnessesAgainstReference:
    @pytest.mark.parametrize("data", [*builder_and_kunneth_models(), *rational_witness_data()])
    @pytest.mark.parametrize("r", [0, 1, INF])
    def test_verdicts_and_tables(self, data, r):
        model = data if isinstance(data, BigradedModel) else build_model(data)
        diff = reference.differentials(model)
        for extract, products_of in [(extract_kernel_model, reference_kernel_products),
                                     (extract_cokernel_model, reference_cokernel_products)]:
            try:
                witness = extract(BigradedModel(model.spaces, diff, model.products), r)
            except ModelPurityError:
                continue
            verdict = witness.quasi_iso
            assert (verdict.r, verdict.ok, verdict.per_degree, verdict.failures) == reference_quasi_iso(
                witness.morphism, r)
            assert repr(witness.model.products) == repr(products_of(model))
            # D is the least scale of the witness's tables
            assert witness.model.scale == math.lcm(*(v.denominator for table in witness.model.products.values()
                                                     for vec in table.values() for v in vec.values()))

    @pytest.mark.parametrize("data", [*builder_and_kunneth_models(), *rational_witness_data()])
    def test_materialized_blocks(self, data):
        model = data if isinstance(data, BigradedModel) else build_model(data)
        for extract, blocks in [(extract_kernel_model, reference.kernel_inclusion_blocks),
                                (extract_cokernel_model, reference.cokernel_projection_blocks)]:
            try:
                morphism = extract(BigradedModel(model.spaces, reference.differentials(model), model.products),
                                   INF).morphism
            except ModelPurityError:
                continue
            assert list(reference.blocks(morphism).items()) == list(blocks(model).items())

    def test_rank_formula_fallback_where_d_squared_is_nonzero(self):
        # no quasi-isomorphism is verified between sequences that are not
        # complexes: each morphism below is a cdga morphism, and the check
        # refuses its source, else its target, with the error of
        # `cohomology_of_model`
        model, line = broken_square_model(), build_model(builder_projective_line_marked(1))
        identity = CdgaMorphism(model, model, {kq: reference.identity(model.dim(kq)) for kq in model.bidegrees()})
        for f, message in [(identity, r"^d o d nonzero on M\^0_0$"),
                           (CdgaMorphism(model, line, {}), r"^d o d nonzero on M\^0_0$"),
                           (CdgaMorphism(line, model, {}), r"^d o d nonzero on M\^0_0$"),
                           (CdgaMorphism(model, broken_square_model(1), {}), r"^d o d nonzero on M\^0_0$"),
                           (CdgaMorphism(broken_square_model(1), model, {}), r"^d o d nonzero on M\^0_1$")]:
            assert f.violations() == []
            for r in (0, 1, INF):
                with pytest.raises(ValueError, match=message):
                    check_r_quasi_iso(f, r)
        with pytest.raises(ValueError, match=r"^d o d nonzero on M\^0_0$"):
            cohomology_of_model(model)
        # a map that is not a cdga morphism is refused as such first
        blocks = {kq: reference.identity(model.dim(kq)) for kq in model.bidegrees()}
        blocks[(0, 0)] = Matrix([[2]])
        f = CdgaMorphism(model, model, blocks)
        assert f.violations() == ["differential compatibility fails at (0, 0)"]
        with pytest.raises(MorphismError, match=r"^differential compatibility fails at \(0, 0\)$"):
            check_r_quasi_iso(f, INF)

    def test_first_kernel_escape_in_pair_order(self):
        # x0, x1 span K^1 and y0 spans K^2, since d(y1) = z; x0 x0 = y0, and
        # every other pair gives y1, the table listing (0, 1) last
        spaces = {(1, 2): ("x0", "x1"), (2, 4): ("y0", "y1"), (3, 4): ("z",)}
        table = {(1, 1): {1: F(1)}, (1, 0): {1: F(-1)}, (0, 0): {0: F(1)}, (0, 1): {1: F(1)}}
        model = model_with_products(spaces, {((1, 2), (1, 2)): table}, {(2, 4): Matrix([[0, 1]])})
        with pytest.raises(ClosureError, match=r"K\^1 x K\^1 pair \(0, 1\)$"):
            reference_kernel_products(model)
        with pytest.raises(ClosureError, match=r"K\^1 x K\^1 pair \(0, 1\)$"):
            extract_kernel_model(model, INF)

    def test_first_boundary_escape_in_loop_order(self):
        # u0 = d(w0) and u1 = d(w1) are boundaries; u1 v = t survives in C^2,
        # but u0 t = s survives in C^3, and u0 comes first
        spaces = {(0, 0): ("1",), (0, 1): ("w0", "w1"), (1, 1): ("u0", "u1", "v"), (2, 2): ("t",),
                  (3, 3): ("s",)}
        model = model_with_products(
            spaces,
            {((1, 1), (1, 1)): {(1, 2): {0: F(1)}}, ((1, 1), (2, 2)): {(0, 0): {0: F(1)}}},
            {(0, 1): Matrix([[1, 0], [0, 1], [0, 0]])},
        )
        message = r"survives in C\^3 \(from C\^1 x C\^2\)$"
        with pytest.raises(ClosureError, match=message):
            reference_cokernel_products(model)
        with pytest.raises(ClosureError, match=message):
            extract_cokernel_model(model, INF)


class TestOneCohomologyReader:
    """`cohomology_of_model` is the one reader of a model's cohomology
    dimensions, cached on the model, and `check_r_quasi_iso` reads it for
    both of its models."""

    @pytest.mark.parametrize("sizes, extract, counts", [
        # one elimination of each of the square's 3 stored d, whose relations
        # give both its rank and its cocycles (45 columns), then 3 induced
        # maps, one per bidegree with cohomology (25); the compact cube
        # stores no d
        ((5, 5), extract_kernel_model, {"_sparse_rank": 3, "_relations": 3, "_reduce": 70}),
        ((0, 0, 0), extract_cokernel_model, {"_sparse_rank": 4, "_reduce": 8}),
    ])
    def test_witness_elimination_counts(self, count_calls, sizes, extract, counts):
        model = build_model(marked_lines(*sizes))
        calls = count_calls(morganmodel, "_sparse_rank", "_relations", "_reduce")
        assert extract(model, INF).quasi_iso.ok
        assert dict(calls) == counts

    def test_second_read_ranks_nothing(self, count_calls):
        model = build_model(marked_lines(5, 5))
        first = cohomology_of_model(model)
        ranks = count_calls(morganmodel, "_sparse_rank")
        assert cohomology_of_model(model) == first == {(0, 0): 1, (1, 2): 8, (2, 4): 16}
        assert ranks == {}

    def test_returned_dict_is_a_copy(self):
        # a caller that edits what it was given changes neither a later
        # read nor a later verdict, which would otherwise miss (1, 2) and
        # (2, 4) and visit (9, 9)
        model = build_model(marked_lines(5, 5))
        witness = extract_kernel_model(model, INF)
        for m in (model, witness.model):
            read = cohomology_of_model(m)
            read.clear()
            read.update({(0, 0): 2, (9, 9): 1})
        assert cohomology_of_model(model) == cohomology_of_model(witness.model) == {(0, 0): 1, (1, 2): 8, (2, 4): 16}
        verdict = check_r_quasi_iso(witness.morphism, INF)
        assert verdict == witness.quasi_iso and verdict.ok
        assert (verdict.r, verdict.ok, verdict.per_degree, verdict.failures) == reference_quasi_iso(
            witness.morphism, INF)


def rational_tables(data, spaces):
    """Product tables on `spaces` drawn with int and Fraction constants,
    explicit zeros and mixed denominators, and no empty vector, which the
    constructor drops; an entry at an index 0..3 outside the target space
    is an explicit zero, as construction refuses a nonzero one."""
    value = st.sampled_from([0, 1, -3, F(0), F(2), F(1, 3), F(-5, 6), F(7, 4), F(-9, 14)])
    zero = st.sampled_from([0, F(0)])
    tables = {}
    for kq1, kq2 in data.draw(st.lists(st.sampled_from([(x, y) for x in spaces for y in spaces]), unique=True)):
        n1, n2 = len(spaces[kq1]), len(spaces[kq2])
        n3 = len(spaces.get((kq1[0] + kq2[0], kq1[1] + kq2[1]), ()))
        keys = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
        entry = st.integers(0, 3).flatmap(lambda c: st.tuples(st.just(c), value if c < n3 else zero))
        vec = st.lists(entry, min_size=1, max_size=3, unique_by=lambda cv: cv[0]).map(dict)
        tables[(kq1, kq2)] = data.draw(st.dictionaries(keys, vec, max_size=5))
    return tables


def holds_fraction(obj, seen=None):
    """Whether `obj`, or anything it holds in a container or an attribute,
    is a Fraction."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, Fraction):
        return True
    if isinstance(obj, dict):
        return any(holds_fraction(x, seen) for item in obj.items() for x in item)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return any(holds_fraction(x, seen) for x in obj)
    return hasattr(obj, "__dict__") and holds_fraction(vars(obj), seen)


class TestProductsView:
    """`BigradedModel.products` renders the integer tables as Fractions on
    each read, and what a model keeps is its integer form alone."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_round_trip_through_the_constructor(self, data):
        spaces = {(0, 0): ("e",), (1, 1): ("x", "y"), (1, 2): ("u", "v", "w"), (2, 3): tuple("abcd")}
        products = rational_tables(data, spaces)
        model = BigradedModel(spaces, {}, products)
        got = model.products
        assert not holds_fraction(vars(model))
        # every entry back, in the order given, as a Fraction over D
        assert list(got) == list(products)
        for key, table in products.items():
            assert list(got[key]) == list(table)
            for ab, vec in table.items():
                assert list(got[key][ab].items()) == list(vec.items())
                assert all(type(v) is Fraction for v in got[key][ab].values())
        assert model.scale == math.lcm(*(F(v).denominator for table in products.values()
                                         for vec in table.values() for v in vec.values()))
        # made on each read, and not kept
        assert model.products == got and model.products is not model.products
        assert "products" not in vars(model)

    @pytest.mark.parametrize("sizes, extract, products_of", [
        ((2, 3), extract_kernel_model, reference_kernel_products),
        ((0, 0, 0), extract_cokernel_model, reference_cokernel_products),
    ], ids=["kernel-square", "cokernel-compact-cube"])
    def test_witness_digests_match_the_reference(self, sizes, extract, products_of):
        # the bench digests repr(sorted(products.items())) of each witness
        rng = random.Random("witness-digests:%r" % (sizes,))
        model = build_model(rescaled(marked_lines(*sizes), [scale_draw(rng) for _ in range(9)]))
        witness = extract(model, INF)
        assert witness.quasi_iso.ok and witness.model.scale > 1
        assert repr(sorted(witness.model.products.items())) == repr(sorted(products_of(model).items()))


# -- Kunneth reference ----------------------------------------------------------
#
# The product as it was first written: one tensor-with-identity loop per
# kind of map, each scanning the target basis for the matching label.
# `kunneth_product` must reproduce its data exactly, dict orders included.


def _tensor_basis(cd1, cd2, i1, i2, p) -> list[tuple[int, int, int, int]]:
    out = []
    for p1 in reference.degrees(cd1, i1):
        p2 = p - p1
        d1, d2 = cd1.dim(i1, p1), cd2.dim(i2, p2)
        for a1 in range(d1):
            for a2 in range(d2):
                out.append((p1, p2, a1, a2))
    return out


def _kunneth_reference(cd1: CompactificationDatum, cd2: CompactificationDatum) -> CompactificationDatum:
    """Product datum: divisor components of the first factor crossed with
    the second variety, then the first variety crossed with components of
    the second.  Cohomology, restrictions, Gysin maps and cups are graded
    tensors with Koszul signs.  A factor with a nonzero cup constant
    outside its space is refused, naming the factor and the first such
    entry by stratum, then (p, p2, a, b, c)."""
    s1, s2 = cd1.components, cd2.components
    for name, cd in (("first", cd1), ("second", cd2)):
        for i_key in cd.subsets():
            for p, p2 in sorted(cd.cups.get(i_key, {})):
                for a in range(cd.dim(i_key, p)):
                    for b in range(cd.dim(i_key, p2)):
                        for c, v in sorted(reference.cup_entries(cd, i_key, p, p2).get((a, b), {}).items()):
                            if v and c not in range(cd.dim(i_key, p + p2)):
                                raise DatumError("%s factor: cup product on D_%r at (%d,%d)x(%d,%d) has entry %r "
                                                 "outside H^%d" % (name, i_key, p, a, p2, b, c, p + p2))

    def split(i_key):
        left = tuple(i for i in i_key if i <= s1)
        right = tuple(i - s1 for i in i_key if i > s1)
        return left, right

    subsets = []
    for i1 in cd1.subsets():
        for i2 in cd2.subsets():
            key = tuple(sorted(i1 + tuple(j + s1 for j in i2)))
            subsets.append((key, i1, i2))

    cohomology: dict = {}
    basis_cache: dict = {}
    for key, i1, i2 in subsets:
        dims: dict[int, int] = {}
        degs1, degs2 = reference.degrees(cd1, i1), reference.degrees(cd2, i2)
        for p1 in degs1:
            for p2 in degs2:
                d = cd1.dim(i1, p1) * cd2.dim(i2, p2)
                if d:
                    dims[p1 + p2] = dims.get(p1 + p2, 0) + d
        if dims:
            cohomology[key] = dims
            for p in dims:
                basis_cache[(key, p)] = _tensor_basis(cd1, cd2, i1, i2, p)

    def basis(key, p):
        return basis_cache.get((key, p), [])

    restrictions: dict = {}
    gysins: dict = {}
    for key, i1, i2 in subsets:
        if key not in cohomology:
            continue
        for j in range(1, s1 + s2 + 1):
            if j in key:
                continue
            tgt_key = tuple(sorted(key + (j,)))
            if tgt_key not in cohomology:
                continue
            t1, t2 = split(tgt_key)
            blocks: dict[int, Matrix] = {}
            for p in cohomology[key]:
                src_basis = basis(key, p)
                tgt_basis = basis(tgt_key, p)
                if not src_basis or not tgt_basis:
                    continue
                rows = [[Fraction(0)] * len(src_basis) for _ in tgt_basis]
                if j <= s1:
                    step = {
                        p1: reference.restriction(cd1, i1, t1, p1)
                        for p1 in reference.degrees(cd1, i1)
                    }
                    for col, (p1, p2, a1, a2) in enumerate(src_basis):
                        mat = step[p1]
                        for row, (q1, q2, b1, b2) in enumerate(tgt_basis):
                            if q1 == p1 and q2 == p2 and b2 == a2 and mat.nrows > b1:
                                rows[row][col] = mat.rows[b1][a1]
                else:
                    step = {
                        p2: reference.restriction(cd2, i2, t2, p2)
                        for p2 in reference.degrees(cd2, i2)
                    }
                    for col, (p1, p2, a1, a2) in enumerate(src_basis):
                        mat = step[p2]
                        for row, (q1, q2, b1, b2) in enumerate(tgt_basis):
                            if q1 == p1 and q2 == p2 and b1 == a1 and mat.nrows > b2:
                                rows[row][col] = mat.rows[b2][a2]
                blocks[p] = Matrix(rows, ncols=len(src_basis))
            if blocks:
                restrictions[(key, j)] = blocks
        for i in key:
            tgt_key = tuple(x for x in key if x != i)
            if tgt_key not in cohomology:
                continue
            t1, t2 = split(tgt_key)
            blocks = {}
            for p in cohomology[key]:
                src_basis = basis(key, p)
                tgt_basis = basis(tgt_key, p + 2)
                if not src_basis or not tgt_basis:
                    continue
                rows = [[Fraction(0)] * len(src_basis) for _ in tgt_basis]
                if i <= s1:
                    for col, (p1, p2, a1, a2) in enumerate(src_basis):
                        mat = reference.gysin(cd1, i1, i, p1)
                        for row, (q1, q2, b1, b2) in enumerate(tgt_basis):
                            if q1 == p1 + 2 and q2 == p2 and b2 == a2 and mat.nrows > b1:
                                rows[row][col] = mat.rows[b1][a1]
                else:
                    for col, (p1, p2, a1, a2) in enumerate(src_basis):
                        mat = reference.gysin(cd2, i2, i - s1, p2)
                        for row, (q1, q2, b1, b2) in enumerate(tgt_basis):
                            if q1 == p1 and q2 == p2 + 2 and b1 == a1 and mat.nrows > b2:
                                rows[row][col] = mat.rows[b2][a2]
                blocks[p] = Matrix(rows, ncols=len(src_basis))
            if blocks:
                gysins[(key, i)] = blocks

    cups: dict = {}
    for key, i1, i2 in subsets:
        if key not in cohomology:
            continue
        table: dict = {}
        degrees = sorted(cohomology[key])
        for p in degrees:
            for p2 in degrees:
                entries: dict = {}
                for a, (pa1, pa2, a1, a2) in enumerate(basis(key, p)):
                    for b, (pb1, pb2, b1, b2) in enumerate(basis(key, p2)):
                        sign = (-1) ** (pa2 * pb1)
                        c1 = reference.cup_entries(cd1, i1, pa1, pb1).get((a1, b1), {})
                        c2 = reference.cup_entries(cd2, i2, pa2, pb2).get((a2, b2), {})
                        if not c1 or not c2:
                            continue
                        vec: Sparse = {}
                        target_basis = basis(key, p + p2)
                        lookup = {lab: idx for idx, lab in enumerate(target_basis)}
                        for t1_idx, v1 in c1.items():
                            for t2_idx, v2 in c2.items():
                                pos = lookup.get((pa1 + pb1, pa2 + pb2, t1_idx, t2_idx))
                                if pos is None:
                                    # a zero constant outside a factor's space:
                                    # a nonzero one is refused above
                                    continue
                                vec[pos] = vec.get(pos, Fraction(0)) + sign * v1 * v2
                        vec = {c: v for c, v in vec.items() if v}
                        if vec:
                            entries[(a, b)] = vec
                if entries:
                    table[(p, p2)] = entries
        if table:
            cups[key] = table
    return CompactificationDatum(s1 + s2, cohomology, restrictions, gysins, cups)


def datum_items(cd):
    """Everything a datum holds, as nested lists in dict order; reprs of
    two such lists are equal exactly when the data and orders agree."""
    def maps(table):
        return [(key, [(p, blk.shape, blk.rows) for p, blk in blocks.items()]) for key, blocks in table.items()]

    cups = [
        (key, [(pp, [(ab, list(vec.items())) for ab, vec in entries.items()]) for pp, entries in table.items()])
        for key, table in cd.cups.items()
    ]
    return [cd.components, list(cd.cohomology.items()), maps(cd.restrictions), maps(cd.gysins), cups]


KUNNETH_FACTORS = {"point": builder_point, "torus-like": torus_like_compact_datum, **{
    "line-%d" % s: (lambda s=s: builder_projective_line_marked(s)) for s in range(5)
}}


def assert_matches_reference(*factors):
    got = want = factors[0]
    for other in factors[1:]:
        got = kunneth_product(got, other)
        want = _kunneth_reference(want, other)
    assert repr(datum_items(got)) == repr(datum_items(want))
    return got


def copied_cups(cd):
    return {key: {pp: {ab: dict(vec) for ab, vec in entries.items()} for pp, entries in table.items()}
            for key, table in cd.cups.items()}


def line_with_zero_constants():
    """The line with two marked points, and the torus-like datum below, with
    explicit zero cup constants: beside nonzero ones, as a whole vector,
    and outside their spaces, where they are no fault."""
    cd = builder_projective_line_marked(2)
    cups = copied_cups(cd)
    cups[()][(0, 0)][(0, 0)].update({1: 0, 7: F(0)})
    cups[()][(0, 2)][(0, 0)] = {0: F(1), 3: F(0)}
    cups[()][(2, 2)] = {(0, 0): {0: F(0)}}
    cups[(1,)][(0, 0)][(0, 0)][-1] = 0
    return CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, cd.gysins, cups)


def torus_with_zero_constants():
    cd = torus_like_compact_datum()
    cups = copied_cups(cd)
    for a in range(2):
        cups[()][(0, 1)][(0, a)][1 - a] = F(0)
    cups[()][(1, 1)][(1, 1)] = {0: 0, 2: 0}
    return CompactificationDatum(0, cd.cohomology, {}, {}, cups)


def line_with_stray_keys():
    """The line with one marked point, with cup keys outside its basis, one
    of them with a constant outside the space too, and tables on degree
    pairs with no classes; a product reads none of them."""
    cd = builder_projective_line_marked(1)
    cups = copied_cups(cd)
    cups[()][(0, 0)][(1, 0)] = {0: F(5)}
    cups[()][(0, 2)][(0, 3)] = {9: F(2)}
    cups[()][(2, 0)][(-1, 0)] = {0: F(1)}
    cups[()][(1, 1)] = {(0, 0): {0: F(3)}}
    cups[()][(3, 0)] = {(0, 0): {4: F(1)}}
    cups[(1,)][(2, 0)] = {(0, 0): {0: F(1)}}
    return CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, cd.gysins, cups)


def point_with_unread_blocks():
    """A point on a curve with only H^0: its Gysin block lands in H^2 = 0
    and is misshapen, and a restriction into a degree without classes is
    given; neither is looked up, as either space has no classes."""
    return CompactificationDatum(
        1, {(): {0: 1}, (1,): {0: 1}},
        {((), 1): {0: Matrix([[1]]), 2: Matrix([[1, 2]])}},
        {((1,), 1): {0: Matrix([[7, 7]])}},
        {(): morganmodel._unit_cup({0: 1}), (1,): morganmodel._unit_cup({0: 1})},
    )


UNREAD_INPUT_FACTORS = {"zero constants": line_with_zero_constants, "torus zeros": torus_with_zero_constants,
                        "stray keys": line_with_stray_keys, "unread blocks": point_with_unread_blocks}


def stray_cup_constant():
    """A point whose unit squares to a vector with an entry outside H^0."""
    return CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {(0, 0): {(0, 0): {0: 1, 1: 5}}}})


class TestKunnethAgainstReference:
    @pytest.mark.parametrize("first", sorted(KUNNETH_FACTORS))
    @pytest.mark.parametrize("second", sorted(KUNNETH_FACTORS))
    def test_two_factors(self, first, second):
        assert_matches_reference(KUNNETH_FACTORS[first](), KUNNETH_FACTORS[second]())

    @pytest.mark.parametrize("names", [
        ("line-1", "line-2", "line-0"),
        ("point", "line-3", "line-1"),
        ("line-4", "line-0", "line-2"),
        ("line-2", "line-2", "line-2"),
        ("line-3", "line-3", "line-3"),
        ("line-0", "point", "line-4"),
    ])
    def test_three_factors(self, names):
        assert_matches_reference(*(KUNNETH_FACTORS[name]() for name in names))

    @pytest.mark.parametrize("first, second", [
        (("line-0", "line-0"), ("line-1", "line-2")),
        (("line-2", "line-0"), ("torus-like", "line-1")),
        (("line-1",), ("line-2", "line-0")),
        (("torus-like",), ("torus-like", "line-2")),
    ])
    def test_products_as_factors(self, first, second):
        # spaces of dimension two and more on both sides, and odd degrees
        a, b = (functools.reduce(_kunneth_reference, [KUNNETH_FACTORS[n]() for n in names])
                for names in (first, second))
        assert_matches_reference(a, b)
        assert_matches_reference(b, a)

    def test_negated_gysin_blocks(self):
        # a negated block on either factor, and on a product used as a factor
        line2, line3 = builder_projective_line_marked(2), builder_projective_line_marked(3)
        for (i_set, i), blocks in sorted(line2.gysins.items()):
            for p in sorted(blocks):
                bad = negate_gysin_block(line2, i_set, i, p)
                assert_matches_reference(bad, line3)
                assert_matches_reference(line3, bad)
        square = kunneth_product(line2, builder_projective_line_marked(0))
        for (i_set, i), blocks in sorted(square.gysins.items()):
            for p in sorted(blocks):
                assert_matches_reference(negate_gysin_block(square, i_set, i, p), line2)

    @pytest.mark.parametrize("constant, square", [
        (0.1, F(0.1) ** 2),  # not the float 0.1 * 0.1 = 0.010000000000000002
        ("1/10", F(1, 100)),  # not a TypeError from multiplying strings
        (F(1, 10), F(1, 100)),
        (3, F(9)),
    ])
    def test_cup_constants_multiply_exactly(self, constant, square):
        # the datum reads each cup constant as a rational where it is made,
        # so the square of a line multiplies rationals
        cups = {pp: {(0, 0): {0: constant}} for pp in ((0, 0), (0, 2), (2, 0))}
        line = CompactificationDatum(0, {(): {0: 1, 2: 1}}, {}, {}, {(): cups})
        sq = kunneth_product(line, line)
        constants = [v for table in sq.cups[()].values() for vec in table.values() for v in vec.values()]
        assert len(constants) == 9 and all(type(v) is F and v == square for v in constants)
        normalized = CompactificationDatum(sq.components, sq.cohomology, sq.restrictions, sq.gysins, sq.cups)
        assert repr(datum_items(sq)) == repr(datum_items(normalized))
        built = assembly_outcome(build_model, sq)
        assert built[0] == "model" and built == assembly_outcome(build_model, normalized)

    @pytest.mark.parametrize("name", sorted(UNREAD_INPUT_FACTORS))
    @pytest.mark.parametrize("other", sorted(KUNNETH_FACTORS))
    def test_inputs_a_product_does_not_read(self, name, other):
        # explicit zero constants, cup keys outside the basis, tables on
        # degree pairs without classes and blocks into a space without
        # classes: the product ignores them as the reference does, in
        # either order, and as a factor of a product of three
        factor, second = UNREAD_INPUT_FACTORS[name](), KUNNETH_FACTORS[other]()
        assert factor._issues({}) == []
        assert_matches_reference(factor, second)
        assert_matches_reference(second, factor)
        assert_matches_reference(factor, factor, second)

    def test_unread_inputs_do_not_change_the_product(self):
        # the product of each such factor is the product of its clean form
        clean = {"zero constants": builder_projective_line_marked(2), "torus zeros": torus_like_compact_datum(),
                 "stray keys": builder_projective_line_marked(1)}
        line = builder_projective_line_marked(3)
        for name, want in clean.items():
            got = UNREAD_INPUT_FACTORS[name]()
            assert repr(datum_items(kunneth_product(got, line))) == repr(datum_items(kunneth_product(want, line)))
            assert repr(datum_items(kunneth_product(line, got))) == repr(datum_items(kunneth_product(line, want)))

    @pytest.mark.parametrize("other", sorted(KUNNETH_FACTORS))
    def test_cup_constant_outside_a_factor_space_refused(self, other):
        # the factor's own validation refuses the entry; the product refused
        # nothing and dropped it, making a model of dimension 3 with a line
        bad = stray_cup_constant()
        text = "cup product on D_() at (0,0)x(0,0) has entry 1 outside H^0"
        with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
            build_model(bad)
        for first, second, name in ((bad, KUNNETH_FACTORS[other](), "first"),
                                    (KUNNETH_FACTORS[other](), bad, "second")):
            want = "%s factor: %s" % (name, text)
            for product in (kunneth_product, _kunneth_reference):
                with pytest.raises(DatumError, match="^" + re.escape(want) + "$"):
                    product(first, second)

    def test_first_stray_constant_of_a_factor_named(self):
        # several stray entries: the first in the order of the factor's
        # validation, stratum by stratum, then (p, p2, a, b, c), is named,
        # and the first factor's before the second's
        line = builder_projective_line_marked(2)
        cups = copied_cups(line)
        cups[(2,)][(0, 0)][(0, 0)][3] = F(1)
        cups[()][(0, 2)][(0, 0)][4] = F(2)
        cups[()][(0, 2)][(0, 0)][2] = F(-1)
        cups[()][(2, 2)] = {(0, 0): {0: F(1)}}
        bad = CompactificationDatum(2, line.cohomology, line.restrictions, line.gysins, cups)
        first = bad._issues({})[0]
        assert first == "cup product on D_() at (0,0)x(2,0) has entry 2 outside H^2"
        for product in (kunneth_product, _kunneth_reference):
            with pytest.raises(DatumError, match="^first factor: " + re.escape(first) + "$"):
                product(bad, stray_cup_constant())
            with pytest.raises(DatumError, match="^second factor: " + re.escape(first) + "$"):
                product(line, bad)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(sorted(KUNNETH_FACTORS)), min_size=2, max_size=3),
        st.lists(
            st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 9)).map(lambda t: F(*t)),
            min_size=1, max_size=12,
        ),
    )
    def test_rescaled_factors(self, names, scales):
        factors = [rescaled(KUNNETH_FACTORS[name](), scales[i:] + scales[:i]) for i, name in enumerate(names)]
        assert_matches_reference(*factors)


# -- model assembly reference ------------------------------------------------------
#
# `reference.build_model` assembles the model one basis pair at a time from
# dense composite restrictions, and `reference.validate` composes both orders
# of every (I, j1, j2, p) densely.  The production assembly must give the
# same spaces, differential rows and product tables, dict orders and entry
# types included, and on malformed data the same faults and the same first
# DatumError.


def model_items(model):
    """Everything a model holds, as nested lists in dict order, each d as
    the dense matrix of its integer columns; reprs of two such lists are
    equal exactly when the models, their orders and the types of their
    entries agree."""
    return [
        list(model.spaces.items()),
        model.scale,
        [(kq, d.shape, d.rows) for kq, d in reference.differentials(model).items()],
        [(key, [(ab, list(vec.items())) for ab, vec in table.items()]) for key, table in model.products.items()],
    ]


def assembly_outcome(build, cd):
    try:
        return "model", repr(model_items(build(cd)))
    except DatumError as err:
        return "DatumError", str(err)


def assert_assembly_matches_reference(cd):
    fresh = CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, cd.gysins, cd.cups)
    assert fresh._issues({}) == reference.validate(cd)
    got = assembly_outcome(build_model, fresh)
    assert got == assembly_outcome(reference.build_model, cd)
    return got


def without(maps, key, p):
    """`maps` with block p of `maps[key]` removed."""
    out = {k: dict(blocks) for k, blocks in maps.items()}
    del out[key][p]
    return out


def widened(maps, key, p):
    """`maps` with one zero column appended to block p of `maps[key]`."""
    out = {k: dict(blocks) for k, blocks in maps.items()}
    blk = out[key][p]
    out[key][p] = Matrix([list(row) + [F(0)] for row in blk.rows], ncols=blk.ncols + 1)
    return out


def malformed_variants(cd):
    """Every datum made from `cd` by dropping one restriction block, widening
    one restriction block, or dropping one Gysin block."""
    def datum(restrictions=cd.restrictions, gysins=cd.gysins):
        return CompactificationDatum(cd.components, cd.cohomology, restrictions, gysins, cd.cups)

    for key, blocks in cd.restrictions.items():
        for p in blocks:
            yield datum(restrictions=without(cd.restrictions, key, p))
            yield datum(restrictions=widened(cd.restrictions, key, p))
    for key, blocks in cd.gysins.items():
        for p in blocks:
            yield datum(gysins=without(cd.gysins, key, p))


class TestModelAssemblyAgainstReference:
    @pytest.mark.parametrize("name", sorted(KUNNETH_FACTORS))
    def test_builders(self, name):
        assert assert_assembly_matches_reference(KUNNETH_FACTORS[name]())[0] == "model"

    @pytest.mark.parametrize("s1", range(6))
    @pytest.mark.parametrize("s2", range(6))
    def test_squares(self, s1, s2):
        assert assert_assembly_matches_reference(marked_lines(s1, s2))[0] == "model"

    @pytest.mark.parametrize("sizes", list(combinations_with_replacement(range(4), 3)) + [(3, 0, 1), (2, 3, 1)])
    def test_cubes(self, sizes):
        assert assert_assembly_matches_reference(marked_lines(*sizes))[0] == "model"

    @pytest.mark.parametrize("seed", range(12))
    def test_rescaled(self, seed):
        rng = random.Random("model-assembly:%d" % seed)
        sizes = [rng.randint(0, 5) for _ in range(2)] if seed % 3 else [rng.randint(0, 3) for _ in range(3)]
        factors = [rescaled(builder_projective_line_marked(s), [scale_draw(rng) for _ in range(s + 2)])
                   for s in sizes]
        product = functools.reduce(kunneth_product, factors)
        assert assert_assembly_matches_reference(product)[0] == "model"
        # the product holds its dicts as it built them, already in the form
        # the constructor gives them
        normalized = CompactificationDatum(product.components, product.cohomology, product.restrictions,
                                           product.gysins, product.cups)
        assert repr(datum_items(product)) == repr(datum_items(normalized))
        # the product datum rescaled as a whole, not factor by factor
        whole = rescaled(marked_lines(*sizes), [scale_draw(rng) for _ in range(7)])
        assert assert_assembly_matches_reference(whole)[0] == "model"

    def test_validation_oracle_checks_the_cups_itself(self, monkeypatch):
        # `reference.validate` runs its own dense cup loops, so a production
        # cup check that finds nothing fails the comparison with it
        line = builder_projective_line_marked(2)
        cups = line.cups
        cups[()][(0, 0)][(0, 0)] = {0: F(1), 3: F(2)}
        cd = CompactificationDatum(line.components, line.cohomology, line.restrictions, line.gysins, cups)
        fault = "cup product on D_() at (0,0)x(0,0) has entry 3 outside H^0"
        assert cd._issues({}) == reference.validate(cd) == [fault]
        monkeypatch.setattr(CompactificationDatum, "_check_cup", lambda self, i_key: [])
        assert cd._issues({}) == [] and reference.validate(cd) == [fault]
        with pytest.raises(AssertionError):
            assert_assembly_matches_reference(cd)

    def test_negated_gysin_blocks(self):
        square = marked_lines(2, 2)
        for (i_set, i), blocks in sorted(square.gysins.items()):
            for p in sorted(blocks):
                assert assert_assembly_matches_reference(negate_gysin_block(square, i_set, i, p))[0] == "model"

    @pytest.mark.parametrize("sizes", [(1,), (3,), (1, 1), (2, 1), (1, 2), (1, 0, 1)])
    def test_malformed_data(self, sizes):
        # a missing or misshapen step or a missing Gysin block; validation
        # reads every step but no Gysin block, so that fault shows in the
        # assembly
        assembled = []
        for cd in malformed_variants(marked_lines(*sizes)):
            assert assert_assembly_matches_reference(cd)[0] == "DatumError"
            assembled.append(cd._issues({}) == [])
        assert any(assembled)

    @pytest.mark.parametrize("sizes, components, first, last", [
        ((2, 2), 2, (3,), (2, 4)),
        ((2, 2), 1, (3,), (2, 4)),
        ((1, 1, 1), 1, (3,), (1, 2, 3)),
        ((2, 1), 1, (3,), (2, 3)),
    ])
    def test_steps_along_indices_above_the_components(self, sizes, components, first, last):
        # a datum whose strata use a component index above `components` is
        # refused where it is made, at the first such key of `cohomology` in
        # the order given, whatever steps it is missing and with or without
        # the cup tables of the strata of two or more components; with the
        # components its strata use, validation lists each missing step, and
        # the first DatumError of the assembly is the reference's, text
        # included
        cd = marked_lines(*sizes)
        above = [(key, p) for key, blocks in cd.restrictions.items() if key[1] > components for p in blocks]
        outcomes = set()
        for drop in [()] + [(x,) for x in above] + list(combinations(above, 2)):
            restrictions = {key: dict(blocks) for key, blocks in cd.restrictions.items()}
            for key, p in drop:
                del restrictions[key][p]
            for cups in (cd.cups, {key: table for key, table in cd.cups.items() if len(key) < 2}):
                for cohomology, key in ((cd.cohomology, first), (dict(reversed(cd.cohomology.items())), last)):
                    text = "stratum %r has a component index outside 1..%d" % (key, components)
                    with pytest.raises(DatumError, match="^" + re.escape(text) + "$"):
                        CompactificationDatum(components, cohomology, restrictions, cd.gysins, cups)
                whole = CompactificationDatum(cd.components, cd.cohomology, restrictions, cd.gysins, cups)
                assert (whole._issues({}) == []) == (not drop)
                outcomes.add(assert_assembly_matches_reference(whole))
        assert {kind for kind, _ in outcomes} == {"model", "DatumError"}
        assert len([text for kind, text in outcomes if kind == "DatumError"]) > 1

    @pytest.mark.parametrize("sizes", [(1,), (1, 0), (0, 1), (1, 1), (2, 1), (1, 0, 1)])
    def test_missing_step_into_a_stratum_without_products(self, sizes):
        # the product of two blocks restricts to D_{I1+I2} even where its
        # cup table is empty, so a missing step there still shows, as it
        # did when each basis pair restricted
        cd = marked_lines(*sizes)
        for (i_key, j), blocks in cd.restrictions.items():
            target = tuple(sorted(i_key + (j,)))
            cups = {key: table for key, table in cd.cups.items() if key != target}
            for p in blocks:
                broken = CompactificationDatum(cd.components, cd.cohomology,
                                               without(cd.restrictions, (i_key, j), p), cd.gysins, cups)
                assert assert_assembly_matches_reference(broken)[0] == "DatumError"

    @pytest.mark.parametrize("sizes", [(2,), (1, 1), (2, 1), (1, 0, 1)])
    def test_restrictions(self, sizes):
        cd = marked_lines(*sizes)
        strata = cd.subsets()
        for i_key in strata:
            for j_key in strata:
                if set(i_key) <= set(j_key):
                    for p in range(5):
                        # the sparse composite along the sorted steps, as a dense matrix
                        den, rows = cd._composite({}, i_key, tuple(j for j in j_key if j not in i_key), p)
                        src, tgt = cd.dim(i_key, p), cd.dim(j_key, p)
                        got = Matrix([[F(rows.get(b, {}).get(a, 0), den) for a in range(src)] for b in range(tgt)],
                                     ncols=src)
                        want = reference.restriction(cd, i_key, j_key, p)
                        assert (got.shape, got.rows) == (want.shape, want.rows)


def constant_forms(v):
    """The ways a caller may write the rational v as a cup constant: a
    Fraction, its string, a float near it, and an int where v is one."""
    return [v, str(v), float(v)] + ([int(v)] if v.denominator == 1 else [])


# cup constants that are no finite rational
UNREADABLE = ["one", "1/0", float("inf"), None]


def index_forms(c):
    """The ways a caller may write the cup key entry c: as an int, float,
    Fraction or string, or as one that is no integer."""
    return [c, float(c), F(c), str(c), c + 0.5, F(2 * c + 1, 2), "c", None]


def pair_forms(pair):
    """The ways a caller may write the degree or basis pair (x, y) of a cup
    table: each entry as in `index_forms`, or as something that is not two
    integers."""
    x, y = pair
    return [(x, y), (float(x), str(y)), (F(x), y), (x, y + 0.5), (str(x), None), (x,), (x, y, 0), x]


def renamed(d, old, new):
    """Rename the key `old` of the dict `d` to `new`, in place and in its
    place in the order."""
    items = [(new if k == old else k, v) for k, v in d.items()]
    d.clear()
    d.update(items)


def perturbed_marked_lines(rng):
    """The constructor arguments of a drawn marked-line datum with up to three
    drawn perturbations: an index of a stratum moved (to 0, past the
    components, onto another index or off the integers), the number of components moved or
    made non-integral, a negative degree or dimension, a non-integral
    degree or dimension, a cup constant rescaled and written as an int,
    float, string or Fraction, or one that is no finite rational, a
    degree pair, basis pair or target index of a cup table written in
    another integral form or as one that is no integer, a restriction or
    Gysin block dropped or widened, and one moved to a non-integral
    degree; then, now and then, a key given twice (`repeat_a_key`)."""
    cd = marked_lines(*([rng.randint(0, 3) for _ in range(rng.randint(1, 2))] if rng.random() < 0.8
                        else [rng.randint(0, 1) for _ in range(3)]))
    components = cd.components
    cohomology = {key: dict(dims) for key, dims in cd.cohomology.items()}
    maps = {"restrictions": {key: dict(blocks) for key, blocks in cd.restrictions.items()},
            "gysins": {key: dict(blocks) for key, blocks in cd.gysins.items()}}
    cups = {key: {pp: {ab: dict(vec) for ab, vec in entries.items()} for pp, entries in table.items()}
            for key, table in cd.cups.items()}
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("index", "components", "degree", "dimension", "non-integral", "constant", "constant",
                           "cup key", "drop", "widen", "shift"))
        key = rng.choice(list(cohomology))
        if kind == "index" and key:
            pos = rng.randrange(len(key))
            cohomology[key[:pos] + (key[pos] + rng.choice((-2, -1, 1, 2, 0.5)),) + key[pos + 1:]] = cohomology.pop(key)
        elif kind == "components":
            components += rng.choice((-1, 1, 0.5))
        elif kind == "degree":
            cohomology[key][rng.choice((-2, -1))] = rng.randint(1, 2)
        elif kind == "dimension":
            p = rng.choice(list(cohomology[key]))
            cohomology[key][p] = -cohomology[key][p]
        elif kind == "non-integral":
            if rng.random() < 0.5:
                cohomology[key][rng.choice((0.5, F(3, 2)))] = 1
            else:
                p = rng.choice(list(cohomology[key]))
                cohomology[key][p] += rng.choice((0.5, F(1, 3)))
        elif kind == "constant":
            vec = rng.choice([vec for table in cups.values() for entries in table.values() for vec in entries.values()])
            c = rng.choice(list(vec))
            if vec[c] not in UNREADABLE:
                vec[c] = rng.choice(constant_forms(F(vec[c]) * scale_draw(rng)) + UNREADABLE)
        elif kind == "cup key":
            table = rng.choice([table for table in cups.values() if table])
            pp = rng.choice(list(table))
            where = rng.choice(("degrees", "basis", "target"))
            if where == "degrees":
                renamed(table, pp, rng.choice(pair_forms(pp)))
            elif table[pp]:
                ab = rng.choice(list(table[pp]))
                if where == "basis":
                    renamed(table[pp], ab, rng.choice(pair_forms(ab)))
                elif table[pp][ab]:
                    c = rng.choice(list(table[pp][ab]))
                    renamed(table[pp][ab], c, rng.choice(index_forms(c)))
        elif kind in ("drop", "widen", "shift"):
            places = [(name, key) for name, blocks in maps.items() for key in sorted(blocks) if blocks[key]]
            if places:
                name, key = rng.choice(places)
                p = rng.choice(sorted(maps[name][key], key=str))
                if kind == "shift":
                    maps[name] = {k: dict(blocks) for k, blocks in maps[name].items()}
                    maps[name][key][p + 0.5] = maps[name][key].pop(p)
                else:
                    maps[name] = (without if kind == "drop" else widened)(maps[name], key, p)
    if rng.random() < 0.2:  # last, as the other perturbations sort and shift integer keys
        repeat_a_key(rng, cohomology, maps, cups)
    return components, cohomology, maps["restrictions"], maps["gysins"], cups


def repeat_a_key(rng, cohomology, maps, cups):
    """Give one drawn key of a datum's arguments a second time, as a string
    that reads as the same int: a stratum, a degree, a map, a block degree,
    or a degree pair, basis pair or target index of a cup table."""
    where = rng.choice(("stratum", "degree", "map", "block degree", "degree pair", "basis pair", "target"))
    key = rng.choice(list(cohomology))
    if where == "stratum" and key:
        cohomology[tuple(map(str, key))] = dict(cohomology[key])
    elif where == "degree" and cohomology[key]:
        p = rng.choice(list(cohomology[key]))
        cohomology[key][str(p)] = cohomology[key][p]
    elif where in ("map", "block degree"):
        name = rng.choice(sorted(maps))
        if maps[name]:
            (i_key, x), blocks = rng.choice(list(maps[name].items()))
            if where == "map":
                maps[name][(i_key, str(x))] = dict(blocks)
            elif blocks:
                p = rng.choice(list(blocks))
                maps[name][(i_key, x)] = {**blocks, str(p): blocks[p]}
    elif where in ("degree pair", "basis pair", "target"):
        table = cups[rng.choice(list(cups))]
        if table:
            pp = rng.choice(list(table))
            if where == "degree pair":
                table[tuple(map(str, pp)) if isinstance(pp, tuple) else str(pp)] = table[pp]
            elif table[pp]:
                ab = rng.choice(list(table[pp]))
                if where == "basis pair":
                    table[pp][tuple(map(str, ab)) if isinstance(ab, tuple) else str(ab)] = table[pp][ab]
                elif table[pp][ab]:
                    c = rng.choice(list(table[pp][ab]))
                    table[pp][ab][str(c)] = table[pp][ab][c]


class TestDrawnDatumInput:
    def test_each_draw_is_refused_or_built_as_the_reference(self):
        # every drawn input is refused where the datum is made (a DatumError,
        # or a ConstantError for a constant that is no finite rational), or
        # refused by `build_model` with the reference's DatumError text, or
        # built equal to the reference's model; no other exception escapes
        rng = random.Random("drawn-datum-input")
        endings = collections.Counter()
        for _ in range(800):
            args = perturbed_marked_lines(rng)
            try:
                cd = CompactificationDatum(*args)
            except DatumError as err:
                endings["constructor DatumError"] += 1
                if "integ" in str(err):  # a non-integral number, degree, dimension or cup key
                    endings["constructor DatumError, not an integer"] += 1
                if str(err).startswith("cup table"):
                    endings["constructor DatumError, cup key"] += 1
                if str(err).endswith(" twice"):
                    endings["constructor DatumError, repeated key"] += 1
                continue
            except ConstantError as err:
                assert str(err) in {"structure constant %r is not a rational number" % (c,) for c in UNREADABLE}
                endings["constructor ConstantError"] += 1
                continue
            endings[assert_assembly_matches_reference(cd)[0]] += 1
        assert set(endings) == {"constructor DatumError", "constructor DatumError, not an integer",
                                "constructor DatumError, cup key", "constructor DatumError, repeated key",
                                "constructor ConstantError", "DatumError", "model"}


class TestAssemblyWork:
    """`build_model` assembles the products one target stratum U at a
    time: each composite to U is read and lifted once per U, each cup table
    of U read in the datum's integers, and each split of U with live rows
    joined once."""

    @pytest.mark.parametrize("sizes, counts", [
        # assembled one block pair at a time, the square made 462
        # `_composite` and 233 `_scaled` calls and the cube 808 and 468;
        # with the cup tables scaled to integers in validation and in
        # assembly, the square made 128 `_scaled` calls and the cube 250,
        # and with a memo of blocks, 580 and 532 `_block_rows` calls; the
        # datum now holds its cups in integers, a block is a lookup, and a
        # one-step composite looks its step up
        ((5, 5), {"_composite": 193, "_block_rows": 650, "_accumulate": 166}),
        ((2, 2, 2), {"_composite": 296, "_block_rows": 622, "_accumulate": 292}),
    ])
    def test_assembly_work_counts(self, count_calls, sizes, counts):
        assert not hasattr(morganmodel, "_scaled")
        cd = marked_lines(*sizes)
        calls = count_calls(morganmodel, "_accumulate")
        composites = count_calls(CompactificationDatum, "_composite", "_block_rows")
        build_model(cd)
        assert {**calls, **composites} == counts


# -- the datum's integer form ------------------------------------------------------
#
# A datum holds each restriction step and Gysin block as (shape, D, integer
# rows) and each stratum's cup tables as (D, integer tables), built where it
# is made; `restrictions`, `gysins` and `cups` render them on each read.  The
# digests below were taken when a datum held `Matrix` blocks and rational
# cup constants and the Kunneth product built those: every model, fault
# list and witness must come out as it did then, dict orders included.


def outcome_items(cd):
    """A datum's validation faults, then its model's spaces, scale, d,
    tables and axiom violations, or the DatumError of its assembly, then
    each witness's model, morphism and verdict, or its refusal; reprs of two
    such lists are equal exactly when the outcomes and their orders agree."""
    items = [cd._issues({})]
    try:
        model = build_model(cd)
    except DatumError as err:
        return items + [str(err)]
    items.append([model.spaces, model.scale, model.d, model.tables, verify_cdga_axioms(model).violations])
    for extract in (extract_kernel_model, extract_cokernel_model):
        try:
            w = extract(model, INF)
        except (ValueError, RuntimeError) as err:
            items.append(repr(err))
        else:
            items.append([w.model.spaces, w.model.scale, w.model.tables, w.morphism.scale, w.morphism.cols,
                          w.quasi_iso])
    return items


def digest_pairs():
    names = sorted(KUNNETH_FACTORS)
    return [kunneth_product(KUNNETH_FACTORS[a](), KUNNETH_FACTORS[b]()) for a, b in itertools.product(names, repeat=2)]


def digest_triples():
    names = sorted(KUNNETH_FACTORS)
    return [functools.reduce(kunneth_product, [KUNNETH_FACTORS[n]() for n in names3])
            for names3 in itertools.product(names, repeat=3)]


def digest_rescaled():
    """Products of two or three rescaled factors, and of rescaled products."""
    rng = random.Random("integer-datum-digests")
    names, data = sorted(KUNNETH_FACTORS), []
    for _ in range(24):
        factors = [rescaled(KUNNETH_FACTORS[rng.choice(names)](), [scale_draw(rng) for _ in range(rng.randint(1, 9))])
                   for _ in range(rng.randint(2, 3))]
        data.append(functools.reduce(kunneth_product, factors))
    for sizes in ((2, 2), (1, 3), (1, 0, 1)):
        whole = rescaled(marked_lines(*sizes), [scale_draw(rng) for _ in range(7)])
        data += [whole, kunneth_product(whole, rescaled(builder_projective_line_marked(1), [scale_draw(rng)]))]
    return data


def digest_faults():
    """Each Gysin block of a rescaled square negated, and every malformed
    variant of three products: faulty models, fault lists and DatumErrors."""
    rng = random.Random("integer-datum-faults")
    square = kunneth_product(*(rescaled(builder_projective_line_marked(s), [scale_draw(rng) for _ in range(4)])
                               for s in (2, 1)))
    data = [negate_gysin_block(square, i_set, i, p) for (i_set, i), blocks in square.gysins.items() for p in blocks]
    for sizes in ((1,), (2, 1), (1, 0, 1)):
        data += malformed_variants(marked_lines(*sizes))
    return data


DIGEST_DATA = {"pairs": digest_pairs, "triples": digest_triples, "rescaled": digest_rescaled, "faults": digest_faults}
DATUM_DIGESTS = {
    "faults": "1d0108b4f0cc1d94b7becd5ee0acb34dc524cf3e4ddbc452d5dcbc81fc134c2d",
    "pairs": "56cda925926faf9c438520fbbdd7d537fa9ab7cdc4fb2be5aea5d2f36fc80323",
    "rescaled": "7594349a5908e2bd892ed8bec2f2f4b58b01a9983a013fb1e15f66cd89826d74",
    "triples": "180f81261e1744cea8acfbc305494c7f326f74f529410717e7b8230e0b4fbab8",
}


def outcomes_digest(group):
    return hashlib.sha256(repr([outcome_items(cd) for cd in DIGEST_DATA[group]()]).encode()).hexdigest()


def integer_form(cd):
    """Everything a datum holds in its integer form, dict orders included
    in the repr."""
    return [cd.components, cd.cohomology, cd._restrictions, cd._gysins, cd._cups]


def through_the_views(cd):
    """A datum made by the constructor from the views of `cd`."""
    return CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, cd.gysins, cd.cups)


class TestIntegerDatum:
    @pytest.mark.parametrize("group", sorted(DATUM_DIGESTS))
    def test_outcomes_match_the_fraction_form(self, group):
        assert outcomes_digest(group) == DATUM_DIGESTS[group]

    def test_views_rebuild_the_same_integer_form(self):
        # the views render the integer form, and the constructor reads them
        # back into it, D least and orders kept: for the builders, the
        # products the Kunneth product adopts, their negated Gysin blocks,
        # and factors with zero constants, stray keys and unread blocks
        data = [builder_point(), *digest_pairs(), *digest_triples()[::7], *digest_rescaled(), *digest_faults()[:8],
                *(make() for make in UNREAD_INPUT_FACTORS.values())]
        for cd in data:
            assert repr(integer_form(through_the_views(cd))) == repr(integer_form(cd))

    def test_views_are_copies_made_on_each_read(self):
        # a cup constant given as an int reads back as a Fraction, and an
        # edit of a view reaches neither the datum nor its validation
        cd = CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): {(0, 0): {(0, 0): {0: 1}}}})
        cups = cd.cups
        assert cups == {(): {(0, 0): {(0, 0): {0: F(1)}}}} and type(cups[()][(0, 0)][(0, 0)][0]) is F
        cups[()][(0, 0)][(0, 0)][3] = F(2)
        assert cd.cups is not cups and cd.cups == {(): {(0, 0): {(0, 0): {0: F(1)}}}} and cd._issues({}) == []
        line = builder_projective_line_marked(2)
        blocks = line.gysins
        blocks[((1,), 1)][0] = Matrix([[-1]])
        assert line.gysins[((1,), 1)][0] == Matrix([[1]]) and line.gysins[((1,), 1)][0] is not blocks[((1,), 1)][0]

    def test_square_kunneth_and_assembly_make_no_fraction_or_matrix(self, count_calls, monkeypatch):
        # the (5, 5) square of rescaled factors, as the benchmark draws them:
        # the product reads its factors' integer rows and tables, and the
        # assembly its integer form, with no view; the Fraction path made
        # Fractions of each factor block and cup constant and a dense
        # `Matrix` per lifted block
        rng = random.Random("kunneth-counts")
        factors = [rescaled(builder_projective_line_marked(5), [rng.choice((1, -1)) * F(rng.randint(1, 9))
                                                               for _ in range(7)]) for _ in range(2)]
        made = count_calls(Fraction, "__new__")
        matrices = count_calls(Matrix, "__init__", "_of_fractions")
        square = kunneth_product(*factors)
        assert made == {} and matrices == {}
        for view in ("restrictions", "gysins", "cups"):
            monkeypatch.setattr(CompactificationDatum, view, property(lambda self, view=view: pytest.fail(view)))
        model = build_model(square)
        assert made == {} and matrices == {}
        assert model.total_dimension() == 49 and verify_cdga_axioms(model).passed


def logged_lookups(cd):
    """The list to which every lookup of a block of `cd`'s restriction and
    Gysin maps in its integer form is appended from now on, as (name of
    the maps, key, p)."""
    lookups = []

    class Logged(dict):
        def get(self, p, default=None):
            lookups.append((self.name, self.key, p))
            return super().get(p, default)

    for name in ("_restrictions", "_gysins"):
        maps = getattr(cd, name)
        for key, blocks in maps.items():
            maps[key] = Logged(blocks)
            maps[key].name, maps[key].key = name, key
    return lookups


def lookup_has_classes(cd):
    """Whether a logged lookup is of a block between two spaces with classes."""
    def has_classes(lookup):
        name, (i_key, x), p = lookup
        if name == "_gysins":
            return cd.dim(i_key, p) and cd.dim(tuple(y for y in i_key if y != x), p + 2)
        return cd.dim(i_key, p) and cd.dim(i_key + (x,), p)
    return has_classes


class TestBudgets:
    def test_kunneth_cube_axioms_and_kernel_witness(self, count_calls):
        cd = kunneth_product(kunneth_product(*[builder_projective_line_marked(3)] * 2), builder_projective_line_marked(3))
        holds = count_calls(BigradedModel, "_hold").args["_hold"]
        forms = count_calls(morganmodel, "_integer_form")
        columns = count_calls(CdgaMorphism, "_of_columns").args["_of_columns"]
        model = build_model(cd)
        assert model.total_dimension() == 125
        products = count_calls(Fraction, "__mul__", "__rmul__")
        start = time.perf_counter()
        report = verify_cdga_axioms(model)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 2.0, "cube axioms took %.2fs" % elapsed
        assert products == {}
        # one integer form per model, built where it is made: the model's
        # in `build_model`, which the axioms and the witness read, and the
        # witness model's, each held as the tables it was built in, with
        # no rational copy; the inclusion is made once, on the cocycle
        # columns of the model's column data over the lcm of their scales
        # (all 1 here), without a copy, and builds no form
        witness = extract_kernel_model(model, INF)
        assert witness.quasi_iso.ok
        assert [args[0] for args in holds] == [model, witness.model] and forms["_integer_form"] == 2
        assert holds[0][3] is model.tables and holds[1][3] is witness.model.tables
        assert all("products" not in vars(m) for m in (model, witness.model))
        assert len(columns) == 1
        kernels = {kq: model._column_cohomology(kq) for kq in witness.model.spaces}
        assert [col.cocycle_scale for col in kernels.values()] == [1] * 4
        assert columns[0][2] == witness.morphism.scale == 1 and list(columns[0][3]) == list(kernels)
        assert all(witness.morphism.cols[kq] is col.cocycle_cols for kq, col in kernels.items())

    # work counts, which do not move with the host's speed

    def test_square_builds_in_integers_and_models_keep_no_fraction(self, count_calls):
        # the model's products and d are assembled in integers (the rational
        # assembly made 458 Fraction multiplications here), and neither the
        # model nor a witness model keeps a Fraction anywhere
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        products = count_calls(Fraction, "__mul__", "__rmul__")
        made = count_calls(Fraction, "__new__", "__neg__")
        model = build_model(square)
        assert products == {}
        # d is written from the Gysin blocks' integer rows: negating their
        # Fraction entries made 25 Fractions here
        assert made == {}
        witnesses = [extract_kernel_model(model, INF), extract_cokernel_model(build_model(marked_lines(0, 0)), INF)]
        assert all(w.quasi_iso.ok for w in witnesses)
        assert not any(holds_fraction(vars(m)) for m in (model, *(w.model for w in witnesses)))

    def test_exterior_algebra_kernel_witness_multiplies_integers(self, count_calls):
        # d = 0 on 256 basis vectors with 6,561 nonzero products: the
        # cocycles are the standard basis, so the witness is the model
        # itself, and its products, coordinates and checks run on integers
        model = exterior_algebra(8)
        assert model.total_dimension() == 256 and sum(map(len, model.products.values())) == 6561
        products = count_calls(Fraction, "__mul__", "__rmul__")
        witness = extract_kernel_model(model, INF)
        assert sum(products.values()) < 1000
        assert witness.quasi_iso.ok
        assert model_dims(witness.model) == model_dims(model)
        assert witness.model.products == model.products

    def test_exterior_algebra_kernel_witness_builds_no_dense_matrix(self, count_calls, monkeypatch):
        # the inclusion is held as the cocycle columns and its induced maps
        # are ranked on sparse integer columns; the dense route built
        # 38,610 Matrix cells here
        model = exterior_algebra(8)
        cells = []
        init = Matrix.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            cells.append(self.nrows * self.ncols)

        monkeypatch.setattr(Matrix, "__init__", counting)
        wrapped = count_calls(Matrix, "_of_fractions")
        witness = extract_kernel_model(model, INF)
        assert witness.quasi_iso.ok
        assert sum(cells) == 0 and wrapped == {}

    def test_square_kunneth_reads_factor_maps_sparsely(self, count_calls):
        # restriction steps and Gysin blocks are both read through
        # `_block_rows` as sparse integer rows, once per factor map and
        # degree: 20 steps and 10 Gysin blocks; the datum has no dense
        # `restriction`/`gysin` accessor, and reading the factors makes no
        # matrix
        assert not hasattr(CompactificationDatum, "restriction") and not hasattr(CompactificationDatum, "gysin")
        line = builder_projective_line_marked(5)
        calls = count_calls(Matrix, "__init__")
        reads = count_calls(CompactificationDatum, "_block_rows").args["_block_rows"]
        square = kunneth_product(line, line)
        assert calls == {} and collections.Counter(gysin for _, gysin, *_ in reads) == {False: 20, True: 10}
        assert datum_items(square) == datum_items(_kunneth_reference(line, line))

    def test_square_morphism_check_sweeps_live_pairs(self, count_calls):
        # of the 9 bidegree pairs of the (5, 5) square's kernel witness, 5
        # hold the unit and 3 meet no table: one is swept, joining the
        # target's table with the rows of f once
        line = builder_projective_line_marked(5)
        f = extract_kernel_model(build_model(kunneth_product(line, line)), INF).morphism
        spaces = f.source.spaces
        live = {key for m in (f.source, f.target) for key, table in m.products.items()
                if table and key[0] in spaces and key[1] in spaces and (0, 0) not in key}
        calls = count_calls(morganmodel, "_accumulate")
        assert f.violations() == []
        assert calls["_accumulate"] == len(live) == 1

    def test_product_joins_per_run(self, count_calls):
        # every product table meets its vectors in `_accumulate`: the
        # (3, 3, 3) cube's axioms join two tables for each of their 16
        # Leibniz pairs and 8 associativity triples, and assembling the
        # (5, 5) square joins a cup table for 166 of its 206 disjoint block
        # pairs whose product bidegree has a space, those with a cup table,
        # nonzero composites and classes in the product's degree
        line5, line3 = builder_projective_line_marked(5), builder_projective_line_marked(3)
        square = kunneth_product(line5, line5)
        cube = build_model(kunneth_product(kunneth_product(line3, line3), line3))
        calls = count_calls(morganmodel, "_accumulate")
        assert verify_cdga_axioms(cube).passed
        assert calls["_accumulate"] == 2 * (16 + 8)
        calls.clear()
        assert build_model(square).total_dimension() == 49
        assert calls["_accumulate"] == 166

    def test_square_validate_sweeps_no_point_ring(self, count_calls):
        # 25 of the (5, 5) square's 36 strata are points whose only class
        # is H^0, with its only product at (0, 0): their rings cannot fail
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        calls = count_calls(morganmodel, "_ring_faults")
        assert square._issues({}) == []
        assert calls["_ring_faults"] == 11
        assert all(square._check_cup(i_key) == reference.dense_cup_issues(square, i_key) for i_key in square.subsets())

    def test_axioms_sweep_only_live_tuples_without_the_unit(self, count_calls):
        # the (5, 5) square's 361 associativity triples all hold the unit;
        # the (3, 3, 3) cube sweeps 8 of its 1,000 bidegree triples (384
        # basis triples of 2,197) and 16 of its 100 bidegree pairs
        line5, line3 = builder_projective_line_marked(5), builder_projective_line_marked(3)
        square = build_model(kunneth_product(line5, line5))
        cube = build_model(kunneth_product(kunneth_product(line3, line3), line3))
        calls = count_calls(morganmodel, "_nonzero_keys").args["_nonzero_keys"]
        for model, tuples, triples in [(square, 4, 0), (cube, 24, 384)]:
            calls.clear()
            assert verify_cdga_axioms(model).passed
            assert len(calls) == tuples
            assert sum(len(acc) for (acc,) in calls if any(len(key) == 3 for key in acc)) == triples

    def test_square_validate_sweeps_no_unit_triple(self, count_calls):
        # every cup ring of the (5, 5) square has a unit: its 56 associativity
        # triples all hold it
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        calls = count_calls(morganmodel, "_nonzero_keys")
        assert square._issues({}) == []
        assert calls == {}

    def test_square_validate_composes_only_where_classes_land(self, count_calls):
        # 25 of the 1,555 (I, j1, j2, p) cases of the (5, 5) square end in
        # a space with classes; only those compose their two orders
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        calls = count_calls(CompactificationDatum, "_composite").args["_composite"]
        assert square._issues({}) == []
        assert len(calls) == 2 * 25

    def test_square_validate_makes_no_zero_matrices(self, count_calls):
        # a step into a space without classes is not looked up at all, and
        # no matrix is made for it
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        lookups = logged_lookups(square)
        calls = count_calls(Matrix, "__init__", "_of_fractions")
        assert square._issues({}) == []
        assert calls == {}
        assert lookups and all(map(lookup_has_classes(square), lookups))

    def test_square_validate_sorts_no_index_tuple_per_lookup(self, count_calls):
        # I + j and I + j1 + j2 are sorted once each, not inside the 5,923
        # `dim` and 1,141 `degrees` calls that used to look them up
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        calls = count_calls(CompactificationDatum, "dim")
        assert square._issues({}) == []
        assert calls == {} and not hasattr(CompactificationDatum, "degrees")

    def test_square_build_model_looks_up_the_integer_form(self, count_calls):
        # validation and assembly share one memo of sparse composites, each
        # extended by one step at a time, and the memo is dropped on return;
        # a step or a Gysin block is a lookup in the datum's integer form,
        # with no memo of its own: the 70 steps are looked up 240 times, 170
        # of them by validation, and each of the 70 Gysin blocks once, with
        # no copy and no `Matrix`
        line = builder_projective_line_marked(5)
        square = kunneth_product(line, line)
        lookups = logged_lookups(square)
        held = dict(vars(square))
        sizes = {name: len(value) for name, value in held.items() if isinstance(value, dict)}
        made = count_calls(Matrix, "__init__", "_of_fractions")
        model = build_model(square)
        assert made == {}
        assert collections.Counter(name for name, _, _ in lookups) == {"_restrictions": 240, "_gysins": 70}
        assert len(set(lookups)) == 140 and all(map(lookup_has_classes(square), lookups))
        assert vars(square) == held
        assert {name: len(value) for name, value in held.items() if isinstance(value, dict)} == sizes
        assert model.total_dimension() == 49 and verify_cdga_axioms(model).passed

    def test_axioms_make_no_matrix_products(self):
        # d o d is applied to the sparse columns of d; `Matrix` defines no
        # product, so the check runs only when it makes none
        assert not hasattr(Matrix, "__matmul__")
        line5, line3 = builder_projective_line_marked(5), builder_projective_line_marked(3)
        square = build_model(kunneth_product(line5, line5))
        cube = build_model(kunneth_product(kunneth_product(line3, line3), line3))
        assert verify_cdga_axioms(square).passed and verify_cdga_axioms(cube).passed

    def test_square_kernel_witness_one_kernel_basis_per_bidegree(self, count_calls):
        # the witness reads the cocycles of the model's cached column data,
        # and each stored d is eliminated once, when the refusal ranks it:
        # a column with a stored d_out reads its relations, and elsewhere
        # the cocycles are the standard basis (the model's (0, 0) and the
        # witness's columns)
        line = builder_projective_line_marked(5)
        model = build_model(kunneth_product(line, line))
        kernels = count_calls(morganmodel, "_relations")
        inits = count_calls(_ColumnCohomology, "__init__").args["__init__"]
        assert extract_kernel_model(model, INF).quasi_iso.ok
        built = [(id(m), kq) for _, m, kq in inits if m.dim(kq)]
        assert len(built) == len(set(built)) == 6
        assert sum(kq in m.d for _, m, kq in inits if m.dim(kq)) == 2
        assert kernels["_relations"] == len(model.d) == 3

    @pytest.mark.parametrize("sizes, extract", [((5, 5), extract_kernel_model), ((0, 0), extract_cokernel_model)])
    def test_model_route_makes_no_dense_matrix(self, count_calls, sizes, extract):
        # d is written as sparse columns and held as integer columns, and
        # ranks, cocycles, representatives and class coordinates come from
        # one sparse elimination on them; on the dense elimination, these
        # calls on the (5, 5) square made 7 `rref` calls (3 of them fresh)
        # and 3 Matrix constructions, and a dense d took one `_of_fractions`
        # per stored d
        assert not hasattr(Matrix, "rref")
        square = kunneth_product(*map(builder_projective_line_marked, sizes))
        calls = count_calls(Matrix, "__init__", "_of_fractions")
        model = build_model(square)
        assert verify_cdga_axioms(model).passed
        witness = extract(model, INF)
        assert witness.quasi_iso.ok and check_r_quasi_iso(witness.morphism, 1).ok
        assert calls == {}

    def test_checks_build_no_zero_differentials(self, count_calls):
        # the checks, the witness and the morphism check read a missing d's
        # shape and its empty columns, and build no matrix for it
        line = builder_projective_line_marked(3)
        model = build_model(kunneth_product(kunneth_product(line, line), line))
        made = count_calls(Matrix, "__init__", "_of_fractions")
        witness = extract_kernel_model(model, INF)
        assert verify_cdga_axioms(model).passed and verify_cdga_axioms(witness.model).passed
        assert witness.quasi_iso.ok and witness.morphism.violations() == []
        assert cohomology_of_model(model) and cohomology_of_model(witness.model)
        assert made == {}
        assert [kq for kq in model.bidegrees() if kq not in model.d]

    def test_axioms_multiply_no_basis_vectors(self):
        # the identities are swept over the keys of the product tables; the
        # model has no product of one basis or vector pair to call
        assert not any(hasattr(BigradedModel, name) for name in ("mult_vec", "mult_basis"))
        line5, line3 = builder_projective_line_marked(5), builder_projective_line_marked(3)
        square = build_model(kunneth_product(line5, line5))
        cube = build_model(kunneth_product(kunneth_product(line3, line3), line3))
        assert verify_cdga_axioms(square).passed and verify_cdga_axioms(cube).passed

    def test_square_morphism_check_multiplies_no_basis_vectors(self):
        assert not any(hasattr(BigradedModel, name) for name in ("mult_vec", "mult_basis"))
        assert not any(hasattr(CdgaMorphism, name) for name in ("apply", "block", "blocks"))
        line = builder_projective_line_marked(5)
        witness = extract_kernel_model(build_model(kunneth_product(line, line)), INF)
        assert witness.morphism.violations() == []

    def test_square_quasi_iso_check_makes_no_matrix_products(self):
        # `Matrix` defines no product, so the check runs only when it makes none
        assert not hasattr(Matrix, "__matmul__")
        line = builder_projective_line_marked(5)
        model = build_model(kunneth_product(line, line))
        witness = extract_kernel_model(model, INF)
        # a fresh copy of the model, so that no column data is cached
        target = BigradedModel(model.spaces, reference.differentials(model), model.products)
        verdict = check_r_quasi_iso(CdgaMorphism(witness.model, target, reference.blocks(witness.morphism)), INF)
        assert verdict == witness.quasi_iso and verdict.ok

    def test_witnesses_multiply_no_basis_vectors(self):
        # cocycle, boundary and representative products are swept over the
        # keys of the product tables
        assert not any(hasattr(BigradedModel, name) for name in ("mult_vec", "mult_basis"))
        line5, line0 = builder_projective_line_marked(5), builder_projective_line_marked(0)
        square = build_model(kunneth_product(line5, line5))
        compact = build_model(kunneth_product(kunneth_product(line0, line0), line0))
        assert extract_kernel_model(square, INF).quasi_iso.ok
        assert extract_cokernel_model(compact, INF).quasi_iso.ok

    @pytest.mark.parametrize("sizes,built", [
        # the kernel bidegrees (k, 2k) for k up to the top degree, spaceless
        # ones included, then the witness's nonzero bidegrees; no other
        # bidegree of the model has cohomology
        ((5, 5), [(0, 0), (1, 2), (2, 4), (3, 6), (4, 8)] + [(0, 0), (1, 2), (2, 4)]),
        ((3, 3, 3), [(k, 2 * k) for k in range(7)] + [(0, 0), (1, 2), (2, 4), (3, 6)]),
    ])
    def test_column_cohomology_only_where_nonzero(self, count_calls, sizes, built):
        cd = functools.reduce(kunneth_product, [builder_projective_line_marked(s) for s in sizes])
        model = build_model(cd)
        inits = count_calls(_ColumnCohomology, "__init__").args["__init__"]
        witness = extract_kernel_model(model, INF)
        assert witness.quasi_iso.ok
        assert [kq for _, _, kq in inits] == built
        assert [id(m) for _, m, _ in inits] == [id(model)] * (len(built) - len(witness.model.spaces)) + [
            id(witness.model)] * len(witness.model.spaces)

    def test_cube_kernel_witness_refeeds_without_pair_products(self):
        # the witness has d = 0, the shape of an Orlik-Solomon model; its own
        # kernel witness is itself
        assert not any(hasattr(BigradedModel, name) for name in ("mult_vec", "mult_basis"))
        line = builder_projective_line_marked(3)
        witness = extract_kernel_model(build_model(kunneth_product(kunneth_product(line, line), line)), INF)
        assert witness.model.d == {}
        again = extract_kernel_model(witness.model, INF)
        assert again.quasi_iso.ok
        assert again.model.spaces == witness.model.spaces and again.model.products == witness.model.products
