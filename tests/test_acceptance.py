"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print.  All comparisons are exact (rational arithmetic, tolerance 0).
"""

import io
import math
import sys
import time
from fractions import Fraction

from stratiform.cli import main as cli_main, model_checks
from stratiform.leraymodel import (
    StrataData,
    Stratum,
    assemble_e2,
    betti_and_poincare,
    degeneration_by_weights,
    strata_data_from_hyperplanes,
    strata_data_from_toric,
)
from stratiform.morganmodel import (
    build_model,
    builder_projective_line_marked,
    cohomology_of_model,
    localization_betti,
)
from stratiform.toriclayers import ToricHypersurface

from reference import (
    FlatLattice,
    LinearMatroid,
    affine_poset,
    brute_force_components,
    characteristic_polynomial,
    poset_whitney_numbers,
)

F = Fraction
INF = math.inf


def _report(num, desc, budget_seconds, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print("ACCEPTANCE %d FAIL %s" % (num, desc))
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, "criterion %d exceeded %ss (%.2fs)" % (
        num,
        budget_seconds,
        elapsed,
    )
    print("ACCEPTANCE %d PASS %s (%.2fs)" % (num, desc, elapsed))


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_torus_cohomology():
    def body():
        model = build_model(builder_projective_line_marked(2))
        assert cohomology_of_model(model) == {(0, 0): 1, (1, 2): 1}

    _report(1, "H(C*) from the 2-marked projective line: dims (1,1), weights (0,2)", 1.0, body)


# -- criterion 2 -----------------------------------------------------------


def _braid_hyperplanes(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            out.append((tuple(v), 0))
    return out


def _generic_lines(count):
    # y = i x + i^2: pairwise non-parallel, no three concurrent
    return [((i, -1), -i * i) for i in range(1, count + 1)]


def test_criterion_2_hyperplane_whitney_oracle():
    def body():
        central = {
            "boolean-1": [((1,), 0)],
            "boolean-2": [((1, 0), 0), ((0, 1), 0)],
            "boolean-3": [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
            "boolean-4": [
                ((1, 0, 0, 0), 0),
                ((0, 1, 0, 0), 0),
                ((0, 0, 1, 0), 0),
                ((0, 0, 0, 1), 0),
            ],
            "braid-3": _braid_hyperplanes(3),
            "braid-4": _braid_hyperplanes(4),
            "braid-5": _braid_hyperplanes(5),
            "concurrent-3": [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)],
        }
        for name, hyps in central.items():
            n = len(hyps[0][0])
            betti = betti_and_poincare(assemble_e2(strata_data_from_hyperplanes(n, hyps))).betti
            lat = FlatLattice(LinearMatroid([v for v, _ in hyps]))
            coeffs = characteristic_polynomial(lat)
            r = lat.rank
            whitney = tuple(abs(coeffs[r - k]) for k in range(r + 1))
            assert betti == whitney, name
        for count in (3, 4, 5):
            lines = _generic_lines(count)
            betti = betti_and_poincare(assemble_e2(strata_data_from_hyperplanes(2, lines))).betti
            whitney = poset_whitney_numbers(affine_poset(2, lines))
            assert betti == whitney, "generic-%d" % count
        braid3 = betti_and_poincare(
            assemble_e2(strata_data_from_hyperplanes(3, _braid_hyperplanes(3)))
        )
        assert braid3.poincare == "1 + 3t + 2t^2"

    _report(2, "hyperplane Betti numbers equal unsigned Whitney coefficients", 5.0, body)


# -- criterion 3 -----------------------------------------------------------


def test_criterion_3_toric_small_cases():
    def body():
        b1 = betti_and_poincare(
            assemble_e2(strata_data_from_toric(1, [ToricHypersurface((1,), F(0))]))
        ).betti
        assert b1 == (1, 2)
        b2 = betti_and_poincare(
            assemble_e2(strata_data_from_toric(1, [ToricHypersurface((2,), F(0))]))
        ).betti
        assert b2 == (1, 3)
        coord = [ToricHypersurface((1, 0), F(0)), ToricHypersurface((0, 1), F(0))]
        table = assemble_e2(strata_data_from_toric(2, coord))
        assert table.entries == {
            (0, 0): {0: 1},
            (1, 0): {2: 2},
            (2, 0): {4: 1},
            (0, 1): {2: 2},
            (1, 1): {4: 2},
            (0, 2): {4: 1},
        }
        assert betti_and_poincare(table).poincare == "1 + 4t + 4t^2"

        instances = [
            (1, [((2,), F(0))], 2),
            (1, [((3,), F(1, 2))], 12),
            (1, [((4,), F(1, 3))], 24),
            (2, [((2, 4), F(1, 2))], 4),
            (2, [((2, 0), F(0)), ((0, 3), F(1, 2))], 6),
            (2, [((1, 1), F(0)), ((1, -1), F(0))], 4),
            (2, [((3, 0), F(1, 6))], 18),
            (3, [((1, 1, 0), F(0)), ((0, 1, 1), F(1, 2)), ((2, 0, 0), F(0))], 4),
            (3, [((2, 0, 0), F(1, 6)), ((0, 1, 1), F(0))], 12),
        ]
        from reference import layers_from_equations

        for n, eqs, grid in instances:
            engine = len(layers_from_equations(n, eqs))
            assert engine == brute_force_components(n, eqs, grid), (n, eqs)

    _report(3, "toric Betti tables and brute-force component counts", 10.0, body)


# -- criterion 4 -----------------------------------------------------------


def _run_model_checks(criterion, count):
    """The criterion's `count` checks from the list that `model-selftest`
    shares."""
    checks = [check for check in model_checks() if check.criterion == criterion]
    assert len(checks) == count
    for i, check in enumerate(checks):
        assert check.run(), (i, check.name)


def test_criterion_4_cross_engine():
    # the E2 route on arrangements of the 1-torus and their squares against
    # the Morgan models of marked lines and their squares
    _report(4, "cross-engine (degree, weight) dimensions agree", 10.0, lambda: _run_model_checks(4, 13))


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_cdga_axiom_suite():
    # marked lines s <= 5, their squares s = 2..5 and P^1 x C*, each of total
    # dimension at most 60; a full and a one-block Gysin sign flip
    _report(5, "cdga axioms pass on all builders; Gysin sign flips detected", 5.0, lambda: _run_model_checks(5, 13))


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_formality_witnesses():
    # kernel witnesses of marked lines s = 1..5 and the s = 2 square;
    # cokernel witnesses of the compact line, its square and the point
    _report(6, "kernel witnesses on weight-2k builders, cokernel on compact ones", 30.0,
            lambda: _run_model_checks(6, 9))


# -- criterion 7 -----------------------------------------------------------


def test_criterion_7_degeneration_soundness():
    def body():
        passing_tables = [
            assemble_e2(strata_data_from_toric(1, [ToricHypersurface((2,), F(0))])),
            assemble_e2(
                strata_data_from_toric(
                    2, [ToricHypersurface((1, 0), F(0)), ToricHypersurface((0, 1), F(0))]
                )
            ),
            assemble_e2(strata_data_from_hyperplanes(3, _braid_hyperplanes(3))),
            assemble_e2(strata_data_from_hyperplanes(2, _generic_lines(4))),
        ]
        for table in passing_tables:
            report = degeneration_by_weights(table)
            assert report.degenerate
            for (_, p, q, w_src, w_tgt) in report.forced_zero:
                assert w_src == 2 * (p + q) and w_tgt == w_src + 2
        synthetic = StrataData(
            (
                Stratum("ambient", 0, ((0, 1, 0),), 1),
                Stratum("impure", 1, ((1, 1, 3),), 1),
            )
        )
        report = degeneration_by_weights(assemble_e2(synthetic))
        assert report.verdict == "unknown"

    _report(7, "weight argument certifies degeneration; impure tables refused", 5.0, body)


# -- criterion 8 -----------------------------------------------------------


def test_criterion_8_localization():
    def body():
        assert localization_betti((1, 0, 2, 0, 1), 2).dims == (1, 0, 2, 0, 0)
        assert localization_betti((1, 0, 1), 1).dims == (1, 0, 0)

    _report(8, "point-removal Betti bookkeeping exact", 1.0, body)


# -- criterion 9 -----------------------------------------------------------


def _invoke(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli_main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    def body():
        toric_a = tmp_path / "ta.arr"
        toric_b = tmp_path / "tb.arr"
        toric_a.write_text("toric 2\neq 1 0 : 0/1\neq 0 1 : 0/1\neq 1 1 : 1/2\n")
        toric_b.write_text("toric 2\neq 1 1 : 1/2\neq 1 0 : 0/1\neq 0 1 : 0/1\n")
        hyp_a = tmp_path / "ha.arr"
        hyp_b = tmp_path / "hb.arr"
        hyp_a.write_text("hyperplane 2\neq 1 0 : 0/1\neq 0 1 : 0/1\neq 1 1 : 0/1\n")
        hyp_b.write_text("hyperplane 2\neq 1 1 : 0/1\neq 0 1 : 0/1\neq 1 0 : 0/1\n")
        commands = [["strata"], ["poset"], ["e2"], ["betti"], ["purity"], ["certificate"]]
        for fmt in ("text", "kv"):
            for cmd in commands:
                for pair in ((toric_a, toric_b), (hyp_a, hyp_b)):
                    first, second = pair
                    run1 = _invoke(cmd + [str(first), "--format", fmt])
                    run1_again = _invoke(cmd + [str(first), "--format", fmt])
                    run2 = _invoke(cmd + [str(second), "--format", fmt])
                    assert run1 == run1_again, (cmd, fmt, "rerun")
                    assert run1 == run2, (cmd, fmt, "permutation")
        selftest1 = _invoke(["model-selftest"])
        selftest2 = _invoke(["model-selftest"])
        assert selftest1 == selftest2 and selftest1[0] == 0

    _report(9, "CLI output byte-identical across runs and input permutations", 60.0, body)
