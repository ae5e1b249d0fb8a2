import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stratiform.exactalg import Matrix
from stratiform.morganmodel import (
    AxiomReport,
    BigradedModel,
    ClosureError,
    CompactificationDatum,
    CdgaMorphism,
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
    _KernelBasis,
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
        assert m.differential((1, 2)).rank() == 1

    def test_no_divisor(self):
        m = build_model(builder_projective_line_marked(0))
        assert model_dims(m) == {(0, 0): 1, (2, 2): 1}
        assert all(mat.is_zero() for mat in m.diff.values())

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


class TestQuasiIso:
    def test_identity(self):
        m = build_model(builder_projective_line_marked(2))
        blocks = {kq: Matrix.identity(m.dim(kq)) for kq in m.bidegrees()}
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
        blocks = {kq: Matrix.identity(m.dim(kq)) for kq in m.bidegrees()}
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
        assert builder_projective_line_marked(3).validate() == []
        cd = builder_projective_line_marked(2)
        assert kunneth_product(cd, cd).validate() == []

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
        issues = cd.validate()
        assert any("graded-commutative" in msg for msg in issues)


# -- dense reference oracles -------------------------------------------------
#
# The production checks visit only the basis tuples that can meet a
# structure constant.  These loops visit every tuple; both must report
# the same violations in the same order.


def dense_cdga_axioms(model):
    violations = []
    for kq in model.bidegrees():
        k, q = kq
        second = model.differential((k + 1, q)) @ model.differential(kq)
        if not second.is_zero():
            violations.append(("d_squared", "d o d nonzero on M^%d_%d" % (k, q)))
    bidegs = model.bidegrees()
    for kq1 in bidegs:
        for kq2 in bidegs:
            for a in range(model.dim(kq1)):
                for b in range(model.dim(kq2)):
                    prod = model.mult_basis(kq1, a, kq2, b)
                    lhs = model.diff_vec((kq1[0] + kq2[0], kq1[1] + kq2[1]), prod)
                    da = model.diff_vec(kq1, {a: F(1)})
                    rhs = model.mult_vec((kq1[0] + 1, kq1[1]), da, kq2, {b: F(1)})
                    db = model.diff_vec(kq2, {b: F(1)})
                    sign = (-1) ** kq1[0]
                    for c, v in model.mult_vec(kq1, {a: F(1)}, (kq2[0] + 1, kq2[1]), db).items():
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
                    ab = model.mult_basis(kq1, a, kq2, b)
                    ba = model.mult_basis(kq2, b, kq1, a)
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
                        ab = model.mult_basis(kq1, a, kq2, b)
                        for c in range(model.dim(kq3)):
                            left = model.mult_vec(kq12, ab, kq3, {c: F(1)})
                            bc = model.mult_basis(kq2, b, kq3, c)
                            right = model.mult_vec(kq1, {a: F(1)}, kq23, bc)
                            if left != right:
                                violations.append((
                                    "associativity",
                                    "associativity fails for (%r,%d),(%r,%d),(%r,%d)"
                                    % (kq1, a, kq2, b, kq3, c),
                                ))
    return AxiomReport(tuple(violations))


def dense_cup_issues(cd, i_key):
    issues = []
    basis = [(p, a) for p in cd.degrees(i_key) for a in range(cd.dim(i_key, p))]
    for p, a in basis:
        for p2, b in basis:
            left = cd._cup_vec(i_key, p, a, p2, b)
            right = cd._cup_vec(i_key, p2, b, p, a)
            sign = (-1) ** (p * p2)
            if left != {c: sign * v for c, v in right.items()}:
                issues.append(
                    "cup product on D_%r not graded-commutative at (%d,%d)x(%d,%d)"
                    % (i_key, p, a, p2, b)
                )
    for p, a in basis:
        for p2, b in basis:
            ab = cd._cup_vec(i_key, p, a, p2, b)
            for p3, c in basis:
                left = {}
                for m, v in ab.items():
                    for t, w in cd._cup_vec(i_key, p + p2, m, p3, c).items():
                        left[t] = left.get(t, F(0)) + v * w
                bc = cd._cup_vec(i_key, p2, b, p3, c)
                right = {}
                for m, v in bc.items():
                    for t, w in cd._cup_vec(i_key, p, a, p2 + p3, m).items():
                        right[t] = right.get(t, F(0)) + v * w
                if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
                    issues.append(
                        "cup product on D_%r not associative at (%d,%d),(%d,%d),(%d,%d)"
                        % (i_key, p, a, p2, b, p3, c)
                    )
    return issues


def dense_product_compatibility(f):
    out = []
    for kq1 in f.source.bidegrees():
        for kq2 in f.source.bidegrees():
            kq3 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
            for a in range(f.source.dim(kq1)):
                fa = f.apply(kq1, {a: F(1)})
                for b in range(f.source.dim(kq2)):
                    lhs = f.apply(kq3, f.source.mult_basis(kq1, a, kq2, b))
                    fb = f.apply(kq2, {b: F(1)})
                    if lhs != f.target.mult_vec(kq1, fa, kq2, fb):
                        out.append(
                            "product compatibility fails for (%r, %d) x (%r, %d)" % (kq1, a, kq2, b)
                        )
    return out


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
    return BigradedModel(model.spaces, model.diff, products)


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

    def test_stray_product_keys_ignored(self):
        model = stray_product_keys()
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.passed

    def test_product_outside_its_space(self):
        # xx names index 3 of the one-dimensional M^2_4; d on M^2_4 has no
        # rows, so the entry meets no row of d and the report is a report
        spaces = {(0, 0): ("1",), (1, 2): ("x",), (2, 4): ("z",)}
        model = model_with_products(spaces, {((1, 2), (1, 2)): {(0, 0): {3: F(1)}}})
        report = verify_cdga_axioms(model)
        assert report == dense_cdga_axioms(model)
        assert report.axioms_failing() == ("associativity", "graded_commutativity")

    def test_cup_checks_match_dense(self):
        data = list(criterion_5_builders().values()) + [torus_like_compact_datum()]
        for cd in data:
            for i_key in cd.subsets():
                assert cd._check_cup(i_key) == dense_cup_issues(cd, i_key)

    def test_cup_faults_match_dense(self):
        cups = dict(torus_like_compact_datum().cups[()])
        # both orders +g, and only one order present
        for table in ({(0, 1): {0: F(1)}, (1, 0): {0: F(1)}}, {(0, 1): {0: F(1)}}):
            cups[(1, 1)] = table
            cd = CompactificationDatum(0, {(): {0: 1, 1: 2, 2: 1}}, {}, {}, {(): cups})
            issues = cd._check_cup(())
            assert issues == dense_cup_issues(cd, ())
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
        assert issues == dense_cup_issues(cd, ())
        assert issues == [
            "cup product on D_() not associative at (2,0),(2,0),(2,1)",
            "cup product on D_() not associative at (2,1),(2,0),(2,0)",
        ]

    def test_morphism_checks_match_dense(self):
        cd2 = builder_projective_line_marked(2)
        maps = []
        for cd in (cd2, kunneth_product(cd2, cd2), builder_projective_line_marked(4)):
            maps.append(extract_kernel_model(build_model(cd), INF).morphism)
        c0 = builder_projective_line_marked(0)
        maps.append(extract_cokernel_model(build_model(kunneth_product(c0, c0)), INF).morphism)
        m = build_model(cd2)
        blocks = {kq: Matrix.identity(m.dim(kq)) for kq in m.bidegrees()}
        maps.append(CdgaMorphism(m, m, blocks))
        blocks[(0, 0)] = Matrix([[-1]])
        maps.append(CdgaMorphism(m, m, blocks))
        failing = 0
        for f in maps:
            product_issues = [v for v in f.violations() if v.startswith("product compatibility")]
            assert product_issues == dense_product_compatibility(f)
            failing += bool(product_issues)
        assert failing == 1

    def test_product_only_in_target_detected(self):
        # ab = 0 in the source, f(a) f(b) != 0 in the target
        spaces = {(0, 0): ("1",), (1, 2): ("x", "y"), (2, 4): ("z",)}
        source = model_with_products(spaces, {})
        target = planted_commutativity_fault()
        f = CdgaMorphism(source, target, {kq: Matrix.identity(len(v)) for kq, v in spaces.items()})
        assert f.violations() == dense_product_compatibility(f) == [
            "product compatibility fails for ((1, 2), 0) x ((1, 2), 1)",
            "product compatibility fails for ((1, 2), 1) x ((1, 2), 0)",
        ]


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
        basis = _KernelBasis(d)
        if not basis.vectors:
            return
        # a vector in the span, and one that may lie outside it
        inside = basis.matrix.apply([F(c) for c in coeffs[: len(basis.vectors)]])
        for vec in (inside, tuple(F(x) for x in outside)):
            sol = basis.matrix.solve(vec)
            got = basis.coordinates({i: v for i, v in enumerate(vec) if v})
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
        col = _ColumnCohomology(BigradedModel(spaces, diff, {}), (1, 0))

        # greedy selection by rank, boundaries first, then cocycles
        chosen = []
        for v in [list(c) for c in diff[(0, 0)].columns()] + [list(c) for c in diff[(1, 0)].right_kernel()]:
            if Matrix.from_columns(chosen + [v], nrows=n).rank() == len(chosen) + 1:
                chosen.append(v)
        assert col.boundary_basis + col.representatives == chosen

        solve_matrix = Matrix.from_columns(chosen, nrows=n)
        inside = solve_matrix.apply([F(c) for c in coeffs[: len(chosen)]])
        for vec in (inside, tuple(F(x) for x in outside)):
            sol = solve_matrix.solve(vec)
            sparse = {i: v for i, v in enumerate(vec) if v}
            if sol is None:
                with pytest.raises(ValueError):
                    col.coordinates(sparse)
            else:
                assert col.coordinates(sparse) == tuple(sol[len(col.boundary_basis):])


class TestBudgets:
    def test_kunneth_cube_axioms_and_kernel_witness(self):
        cd = builder_projective_line_marked(3)
        model = build_model(kunneth_product(kunneth_product(cd, cd), cd))
        assert model.total_dimension() == 125
        start = time.perf_counter()
        report = verify_cdga_axioms(model)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 2.0, "cube axioms took %.2fs" % elapsed
        assert extract_kernel_model(model, INF).quasi_iso.ok
