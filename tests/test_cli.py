import io
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stratiform import cli, leraymodel, matroidos, toriclayers
from stratiform.cli import (
    ArrangementFile,
    ParseError,
    RunReport,
    canonicalize,
    main,
    parse_arrangement_file,
    render_arrangement,
    render_poset_dot,
    render_structured,
    run_command,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_EXPECTED = GOLDEN / "expected"

Z2 = "toric 1\neq 2 : 0/1\n"
COORD2 = "toric 2\neq 1 0 : 0/1\neq 0 1 : 0/1\n"
BRAID3 = "hyperplane 3\neq 1 -1 0 : 0/1\neq 1 0 -1 : 0/1\neq 0 1 -1 : 0/1\n"
SYNTH_FAIL = "strata 2\nstratum 0 1 : 0:1:0\nstratum 1 1 : 2:1:3\n"


def invoke(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


class TestParse:
    def test_toric(self):
        af = parse_arrangement_file(Z2)
        assert af.kind == "toric" and af.dim == 1
        assert af.equations[0].coeffs == (2,)
        assert af.equations[0].constant == F(0)

    def test_hyperplane(self):
        af = parse_arrangement_file("hyperplane 2\neq 1 -1 : 0/1\neq 1 0 : 0/1\neq 0 1 : 0/1\n")
        assert af.kind == "hyperplane" and len(af.equations) == 3

    def test_comments_and_blanks(self):
        af = parse_arrangement_file("# a comment\n\ntoric 1\n# another\neq 1 : 1/2  # trailing\n")
        assert af.equations[0].constant == F(1, 2)

    def test_missing_constant(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_arrangement_file("toric 2\neq 1 1\n")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="expected 2 coefficients"):
            parse_arrangement_file("toric 2\neq 1 : 0/1\n")

    def test_zero_row(self):
        with pytest.raises(ParseError, match="zero coefficient"):
            parse_arrangement_file("toric 2\neq 0 0 : 0/1\n")

    def test_non_reduced_fraction(self):
        with pytest.raises(ParseError, match="not reduced"):
            parse_arrangement_file("toric 1\neq 1 : 2/4\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator 0"):
            parse_arrangement_file("toric 1\neq 1 : 1/0\n")

    def test_non_rational_constant(self):
        with pytest.raises(ParseError, match="expected a fraction"):
            parse_arrangement_file("toric 1\neq 1 : pi\n")

    def test_phase_reduced_mod_one(self):
        af = parse_arrangement_file("toric 1\neq 1 : 3/2\n")
        assert af.equations[0].constant == F(1, 2)

    def test_negative_hyperplane_constant_kept(self):
        af = parse_arrangement_file("hyperplane 1\neq 2 : -3/2\n")
        assert af.equations[0].constant == F(-3, 2)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_arrangement_file("# nothing\n")

    def test_strata_kind(self):
        af = parse_arrangement_file(SYNTH_FAIL)
        assert af.kind == "strata" and len(af.strata) == 2
        assert af.strata[1].cohomology == ((2, 1, 3),)

    def test_strata_bad_entry(self):
        with pytest.raises(ParseError, match="p:dim:weight"):
            parse_arrangement_file("strata 1\nstratum 0 1 : x\n")


# Malformed files and the exact error each raises, the first fault in
# reading order winning where a line has two.
MALFORMED = [
    ("toric", "line 1: expected header 'toric <n>', 'hyperplane <n>' or 'strata <n>'"),
    ("torus 2", "line 1: expected header 'toric <n>', 'hyperplane <n>' or 'strata <n>'"),
    ("toric 2 3", "line 1: expected header 'toric <n>', 'hyperplane <n>' or 'strata <n>'"),
    ("toric x", "line 1: ambient dimension must be an integer"),
    ("hyperplane 0", "line 1: ambient dimension must be at least 1"),
    ("# nothing\n\n", "line 1: empty file: missing header line"),
    ("toric 2\nstratum 0 1 : 0:1:0", "line 2: expected an 'eq' line"),
    ("toric 2\neq1 0 : 0/1", "line 2: expected an 'eq' line"),
    ("toric 2\neq 1 1", "line 2: missing constant after ':'"),
    ("toric 2\neq 1 0 :0/1", "line 2: missing constant after ':'"),
    ("toric 2\neq 1 0 # : 0/1", "line 2: missing constant after ':'"),
    # no ':' and a wrong count
    ("toric 2\neq 1", "line 2: missing constant after ':'"),
    ("hyperplane 2\neq 1 : 0/1", "line 2: expected 2 coefficients, got 1"),
    ("hyperplane 2\neq 1 0 1 : 0/1", "line 2: expected 2 coefficients, got 3"),
    # ':' among the coefficients
    ("hyperplane 2\neq 1 : 0 : 0/1", "line 2: expected 2 coefficients, got 1"),
    ("hyperplane 2\neq 1 0 : : 0/1", "line 2: expected exactly one constant after ':'"),
    ("hyperplane 2\neq 1 0 :", "line 2: expected exactly one constant after ':'"),
    # two constants
    ("toric 2\neq 1 0 : 0/1 1/2", "line 2: expected exactly one constant after ':'"),
    ("toric 2\neq 1 : 0/1 1/2", "line 2: expected 2 coefficients, got 1"),
    ("toric 2\neq x 0 : 0/1 0/1", "line 2: expected exactly one constant after ':'"),
    # a non-integer coefficient
    ("toric 2\neq 1 x : 0/1", "line 2: coefficients must be integers"),
    ("toric 2\neq 1/2 0 : 0/1", "line 2: coefficients must be integers"),
    ("hyperplane 2\neq 1.0 0 : 0/1", "line 2: coefficients must be integers"),
    ("hyperplane 2\neq 0 x : 1/0", "line 2: coefficients must be integers"),
    # a zero row
    ("toric 2\neq 0 0 : 0/1", "line 2: zero coefficient row"),
    ("hyperplane 2\neq 0 -0 : 2/4", "line 2: zero coefficient row"),
    # a bad, unreduced or zero-denominator fraction
    ("toric 1\neq 1 : pi", "line 2: expected a fraction p/q, got 'pi'"),
    ("toric 1\neq 1 : 1", "line 2: expected a fraction p/q, got '1'"),
    ("toric 1\neq 1 : 1/-2", "line 2: expected a fraction p/q, got '1/-2'"),
    ("hyperplane 1\neq 1 : 0.5", "line 2: expected a fraction p/q, got '0.5'"),
    ("toric 1\neq 1 : 2/4", "line 2: fraction 2/4 is not reduced"),
    ("hyperplane 1\neq 1 : -2/4", "line 2: fraction -2/4 is not reduced"),
    ("toric 1\neq 1 : 0/2", "line 2: fraction 0/2 is not reduced"),
    ("toric 1\neq 1 : 1/0", "line 2: fraction with denominator 0"),
    ("hyperplane 1\neq 1 : 0/0", "line 2: fraction with denominator 0"),
    ("# lead\ntoric 1\n\neq 1 : 0/1\neq 1 : 3/6 # late", "line 5: fraction 3/6 is not reduced"),
    # strata lines
    ("strata 1\neq 1 : 0/1", "line 2: expected a 'stratum' line"),
    ("strata 1\nstratum 0 1 0:1:0", "line 2: missing ':' before cohomology entries"),
    ("strata 1\nstratum 0 : 0:1:0", "line 2: expected 'stratum <codim> <localdim> : ...'"),
    ("strata 1\nstratum 0 x : 0:1:0", "line 2: codim and localdim must be integers"),
    ("strata 1\nstratum -1 1 : 0:1:0", "line 2: codim and localdim must be nonnegative"),
    ("strata 1\nstratum 2 1 : 0:1:0", "line 2: codim 2 exceeds the ambient dimension 1"),
    ("strata 1\nstratum 0 1 : x", "line 2: expected cohomology entry p:dim:weight, got 'x'"),
    ("strata 1\nstratum 1 1 : 1:1:2",
     "line 2: degree 1 exceeds 2 * (dim - codim) = 0, the real dimension of the stratum"),
    ("strata 1\nstratum 0 1 :", "line 2: stratum needs at least one cohomology entry"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_file_message(text, message):
    with pytest.raises(ParseError) as err:
        parse_arrangement_file(text)
    assert str(err.value) == message


class TestRoundTrip:
    @pytest.mark.parametrize("text", [Z2, COORD2, BRAID3, SYNTH_FAIL])
    def test_parse_render_parse(self, text):
        af = parse_arrangement_file(text)
        rendered = render_arrangement(af)
        again = parse_arrangement_file(rendered)
        assert canonicalize(af) == canonicalize(again)
        assert render_arrangement(again) == rendered

    def test_canonicalization_sorts(self):
        a = parse_arrangement_file("toric 1\neq 2 : 0/1\neq 1 : 1/2\n")
        b = parse_arrangement_file("toric 1\neq 1 : 1/2\neq 2 : 0/1\n")
        assert render_arrangement(a) == render_arrangement(b)


class TestCommands:
    def test_betti_z2(self, tmp_path):
        f = tmp_path / "z2.arr"
        f.write_text(Z2)
        code, out = invoke(["betti", str(f)])
        assert code == 0
        assert "betti: 1 3" in out
        assert "poincare: 1 + 3t" in out

    def test_braid_poincare(self, tmp_path):
        f = tmp_path / "braid.arr"
        f.write_text(BRAID3)
        code, out = invoke(["betti", str(f)])
        assert code == 0 and "poincare: 1 + 3t + 2t^2" in out

    def test_purity_pass(self, tmp_path):
        f = tmp_path / "braid.arr"
        f.write_text(BRAID3)
        code, out = invoke(["purity", "--r", "inf", str(f)])
        assert code == 0 and "purity: pass" in out

    def test_e2_rows(self, tmp_path):
        f = tmp_path / "z2.arr"
        f.write_text(Z2)
        code, out = invoke(["e2", str(f), "--format", "kv"])
        assert code == 0
        assert "e2.1.p = 0" in out and "e2.1.q = 1" in out and "e2.1.dim = 2" in out

    def test_certificate_refused_exit_2(self, tmp_path):
        f = tmp_path / "syn.arr"
        f.write_text(SYNTH_FAIL)
        code, out = invoke(["certificate", "--r", "3", str(f)])
        assert code == 2
        assert "formal: refused" in out
        assert "witness" in out

    def test_certificate_granted(self, tmp_path):
        f = tmp_path / "coord.arr"
        f.write_text(COORD2)
        code, out = invoke(["certificate", str(f)])
        assert code == 0 and "formal: true" in out
        assert "betti: 1 4 4" in out

    def test_parse_error_exit_1(self, tmp_path):
        f = tmp_path / "bad.arr"
        f.write_text("toric 2\neq 1 1\n")
        code, out = invoke(["betti", str(f)])
        assert code == 1 and "error: line 2" in out

    def test_missing_file_exit_1(self):
        code, out = invoke(["betti", "/nonexistent/path.arr"])
        assert code == 1 and out.startswith("error:")

    def test_non_utf8_file_exit_1(self, tmp_path):
        # the byte 0xff starts no UTF-8 sequence, so the file cannot be decoded
        f = tmp_path / "bad.arr"
        f.write_bytes(b"hyperplane 2\neq 1 0 : 0/1 \xff\n")
        code, out = invoke(["betti", str(f)])
        assert code == 1 and out.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_unknown_command_exit_1(self):
        code, out = invoke(["frobnicate", "x"])
        assert code == 1 and "usage" in out

    def test_poset_dot(self, tmp_path):
        f = tmp_path / "coord.arr"
        f.write_text(COORD2)
        dot = tmp_path / "poset.dot"
        code, out = invoke(["poset", str(f), "--dot", str(dot)])
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph poset {")
        assert text.count("->") == 4  # diamond
        assert 'label="0/2/ambient"' in text

    def test_poset_dot_unwritable_exit_1(self, tmp_path):
        f = tmp_path / "coord.arr"
        f.write_text(COORD2)
        code, out = invoke(["poset", str(f), "--dot", str(tmp_path / "missing" / "x.dot")])
        assert code == 1
        assert out.startswith("error:") and "x.dot" in out

    @pytest.mark.parametrize("command", ["strata", "e2", "betti", "purity", "certificate"])
    def test_strata_without_ambient_exit_1(self, tmp_path, command):
        f = tmp_path / "noambient.arr"
        f.write_text("strata 2\nstratum 1 1 : 0:1:0\n")
        code, out = invoke([command, str(f)])
        assert code == 1
        assert out == "error: need exactly one ambient stratum with local dimension 1\n"

    @pytest.mark.parametrize("command", ["strata", "poset", "e2", "betti", "purity", "certificate"])
    @pytest.mark.parametrize("text, message", [
        ("strata 1\nstratum 0 1 : 0:1:0\nstratum 5 1 : 0:1:0\n",
         "error: line 3: codim 5 exceeds the ambient dimension 1\n"),
        ("strata 1\nstratum 0 1 : 0:1:0\nstratum 1 1 : 0:1:0 3:1:6\n",
         "error: line 3: degree 3 exceeds 2 * (dim - codim) = 0, the real dimension of the stratum\n"),
    ])
    def test_impossible_strata_exit_1(self, tmp_path, command, text, message):
        f = tmp_path / "impossible.arr"
        f.write_text(text)
        assert invoke([command, str(f)]) == (1, message)

    def test_certificate_at_finite_r_covers_degree_r_plus_1(self, tmp_path):
        """Entries above total degree r+1 are outside the verdict; the
        reasoning names the range it covers."""
        f = tmp_path / "impure_above.arr"
        f.write_text("strata 2\nstratum 0 1 : 0:1:0\nstratum 1 1 : 0:1:0 1:1:1\n")
        code, out = invoke(["certificate", "--r", "0", str(f)])
        assert code == 0
        assert "degeneration: degenerate" in out and "formal: true" in out
        assert "reasoning.1: each E2 entry at (p, q) with p+q <= 1 is pure" in out
        assert "betti" not in out  # the whole table is not pure
        code, out = invoke(["certificate", "--r", "1", str(f)])
        assert code == 2
        assert "degeneration: unknown" in out and "formal: refused" in out
        assert "reasoning.1: E2 entries (p, q, weight) off weight 2(p+q) in range: (1, 1, 3)" in out
        assert "it vanishes" not in out

    def test_model_selftest(self):
        code, out = invoke(["model-selftest"])
        assert code == 0
        assert "selftest: pass" in out
        assert "ok=false" not in out

    @pytest.mark.parametrize("fmt", ["text", "kv"])
    def test_model_selftest_matches_golden(self, fmt):
        # every witness check of the selftest, byte for byte; rewritten
        # with the golden corpus by `python tests/test_golden.py`
        code, out = invoke(["model-selftest", "--format", fmt])
        assert code == 0
        assert out == (GOLDEN_EXPECTED / ("model-selftest." + fmt)).read_text(encoding="utf-8")

    def test_model_selftest_runs_its_checks_in_order(self):
        # the selftest's share of the checks of acceptance criteria 4 to 6
        code, out = invoke(["model-selftest", "--format", "kv"])
        assert code == 0
        assert re.findall(r"^check\.\d+\.name = (.*)$", out, re.M) == [
            "axioms marked-line s=0",
            "axioms marked-line s=1",
            "axioms marked-line s=2",
            "axioms marked-line s=3",
            "axioms kunneth square",
            "fault injection full flip detected",
            "fault injection block flip detected as leibniz",
            "kernel witness s=2",
            "kernel witness s=3",
            "kernel witness square",
            "cokernel witness compact line",
            "cokernel witness compact square",
            "cross-engine dim1 1-pts",
            "cross-engine dim1 2-pts",
            "cross-engine dim1 2-pts",
            "cross-engine square 1-pts",
            "cross-engine square 2-pts",
        ]

    def test_strata_command_on_hyperplanes(self, tmp_path):
        f = tmp_path / "braid.arr"
        f.write_text(BRAID3)
        code, out = invoke(["strata", str(f)])
        assert code == 0
        assert "codim=2 a=2" in out  # the triple point carries a 2-dim local component

    def test_poset_rejected_for_strata_kind(self, tmp_path):
        f = tmp_path / "syn.arr"
        f.write_text(SYNTH_FAIL)
        code, out = invoke(["poset", str(f)])
        assert code == 1 and "error" in out

    def test_empty_arrangement_betti(self, tmp_path):
        f = tmp_path / "empty.arr"
        f.write_text("toric 1\n")
        code, out = invoke(["betti", str(f)])
        assert code == 0 and "betti: 1 1" in out and "poincare: 1 + t" in out

    def test_betti_refused_on_impure_strata(self, tmp_path):
        f = tmp_path / "syn.arr"
        f.write_text(SYNTH_FAIL)
        code, out = invoke(["betti", str(f)])
        assert code == 2 and "refused" in out

    @pytest.mark.parametrize("command", ["strata", "poset", "e2", "betti", "purity", "certificate"])
    def test_too_many_components_refused_before_enumeration(self, tmp_path, command):
        f = tmp_path / "huge.arr"
        f.write_text("toric 1\neq 1000000 : 0/1\n")
        start = time.perf_counter()
        code, out = invoke([command, str(f)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == "error: an intersection has 1000000 components, more than the limit of 100000\n"

    def test_max_strata_counts_every_layer(self, tmp_path):
        f = tmp_path / "circle.arr"
        f.write_text("toric 1\neq 150 : 1/3\n")  # 150 points and the ambient torus
        code, out = invoke(["betti", str(f), "--max-strata", "151"])
        assert code == 0 and "betti: 1 151" in out
        code, out = invoke(["betti", str(f), "--max-strata", "150"])
        assert code == 1 and out == "error: the arrangement has more than 150 layers\n"
        code, out = invoke(["poset", str(f), "--max-strata", "149"])
        assert code == 1 and "150 components, more than the limit of 149" in out

    def test_max_strata_bounds_hyperplane_flats(self, tmp_path):
        f = tmp_path / "braid.arr"
        f.write_text(BRAID3)  # ambient, 3 planes, 1 line
        assert invoke(["betti", str(f), "--max-strata", "5"])[0] == 0
        code, out = invoke(["betti", str(f), "--max-strata", "4"])
        assert code == 1 and out == "error: the arrangement has more than 4 flats\n"

    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_max_strata_must_be_positive(self, tmp_path, value):
        f = tmp_path / "z2.arr"
        f.write_text(Z2)
        code, out = invoke(["betti", str(f), "--max-strata", value])
        assert code == 1 and "error: argument --max-strata" in out

    @pytest.mark.parametrize("value, reason", [
        ("-1", "r must be nonnegative"),
        ("many", "r must be a nonnegative integer or 'inf'"),
    ])
    def test_r_must_be_a_nonnegative_integer_or_inf(self, tmp_path, value, reason):
        f = tmp_path / "z2.arr"
        f.write_text(Z2)
        code, out = invoke(["purity", str(f), "--r", value])
        assert code == 1 and out.endswith("\nerror: argument --r: %s\n" % reason)

    def test_concurrent_lines_poset_shape(self, tmp_path):
        f = tmp_path / "conc.arr"
        f.write_text("hyperplane 2\neq 1 0 : 0/1\neq 0 1 : 0/1\neq 1 1 : 0/1\n")
        dot = tmp_path / "g.dot"
        code, _ = invoke(["poset", str(f), "--dot", str(dot)])
        assert code == 0
        text = dot.read_text()
        assert text.count("[label=") == 5  # ambient, 3 lines, 1 point
        assert text.count("->") == 6


class TestDeterminism:
    @pytest.mark.parametrize(
        "command", [["strata"], ["poset"], ["e2"], ["betti"], ["purity"], ["certificate"]]
    )
    def test_identical_across_runs(self, tmp_path, command):
        f = tmp_path / "coord.arr"
        f.write_text(COORD2)
        first = invoke(command + [str(f)])
        second = invoke(command + [str(f)])
        assert first == second

    @pytest.mark.parametrize(
        "command", [["strata"], ["poset"], ["e2"], ["betti"], ["purity"], ["certificate"]]
    )
    def test_identical_across_permutations(self, tmp_path, command):
        f1 = tmp_path / "a.arr"
        f2 = tmp_path / "b.arr"
        f1.write_text("toric 2\neq 1 0 : 0/1\neq 0 1 : 0/1\neq 1 1 : 1/2\n")
        f2.write_text("toric 2\neq 1 1 : 1/2\neq 0 1 : 0/1\neq 1 0 : 0/1\n")
        assert invoke(command + [str(f1)]) == invoke(command + [str(f2)])

    def test_kv_format_deterministic(self, tmp_path):
        f = tmp_path / "z2.arr"
        f.write_text(Z2)
        a = invoke(["e2", str(f), "--format", "kv"])
        b = invoke(["e2", str(f), "--format", "kv"])
        assert a == b


def test_render_poset_dot_single_node():
    text = render_poset_dot([(0, 2, "ambient")], [])
    assert text == 'digraph poset {\n  n0 [label="0/2/ambient"];\n}\n'


def test_run_command_rejects_unknown():
    af = parse_arrangement_file(Z2)
    with pytest.raises(ValueError):
        run_command("bogus", af)


# two toric files, one with points of the circle, and a hyperplane one
E2_GATE_FILES = ("b3.arr", "circle150.arr", "braid5.arr")


def _keys(command, name):
    """The `key` column of `command`'s kv output on the golden file `name`."""
    code, out = invoke([command, str(GOLDEN / name), "--format", "kv"])
    assert code == 0
    return [line.split(" = ", 1)[1] for line in out.splitlines()
            if re.match(r"(node|stratum)\.\d+\.key = ", line)]


def test_e2_commands_build_no_layer_flat_or_name(count_calls):
    """Work gate: every command reads codimension and |mu| off the
    searches' integer keys (the package holds no layer object with
    `Fraction` phases to build), and `betti`, `e2`, `purity` and
    `certificate` format no stratum name either.  `poset` names its
    nodes, which shows that the name counters count."""
    names = [count_calls(toriclayers, "_phase_str"), count_calls(matroidos, "_row_text")]
    for name in ("b3.arr", "braid5.arr"):
        _keys("poset", name)
    assert all(sum(c.values()) for c in names)
    for c in names:
        c.clear()
    for name in E2_GATE_FILES:
        for command in ("betti", "e2", "purity", "certificate"):
            code, _ = invoke([command, str(GOLDEN / name)])
            assert code == 0
    assert [dict(c) for c in names] == [{}, {}]


def test_only_poset_and_strata_sort_the_layers(count_calls):
    """Work gate: `betti`, `e2`, `purity` and `certificate` read the
    unordered layer search, as they read the unordered flat search, and
    `poset` and `strata` sort its layers once each."""
    calls = count_calls(cli, "layer_order")
    for name in ("b3.arr", "circle150.arr", "twisted_torus.arr"):
        for command in ("betti", "e2", "purity", "certificate"):
            code, _ = invoke([command, str(GOLDEN / name)])
            assert code == 0
        assert calls == {}
        for command in ("poset", "strata"):
            code, _ = invoke([command, str(GOLDEN / name)])
            assert code == 0 and calls["layer_order"] == 1
            calls.clear()


def test_only_poset_and_strata_sort_the_flats(count_calls):
    """Work gate, the affine half of the one above: `betti`, `e2`, `purity`
    and `certificate` read the unordered flat search, once, and `poset`
    and `strata` search the flats once and sort them once each."""
    calls = count_calls(cli, "flat_search", "flat_order")
    searches = count_calls(leraymodel, "flat_search")
    for name in ("braid4.arr", "braid5.arr", "generic_lines.arr", "parallel_pair.arr"):
        for command in ("betti", "e2", "purity", "certificate"):
            code, _ = invoke([command, str(GOLDEN / name)])
            assert code == 0 and calls == {} and searches == {"flat_search": 1}
            searches.clear()
        for command in ("poset", "strata"):
            code, _ = invoke([command, str(GOLDEN / name)])
            assert code == 0 and calls == {"flat_search": 1, "flat_order": 1} and searches == {}
            calls.clear()


def test_poset_formats_each_distinct_row_once(count_calls):
    """Work gate: `poset braid5.arr` formats each of the 10 distinct echelon
    rows of its flats once, not once for each of the 109 rows of its 52
    flats' keys."""
    af = parse_arrangement_file((GOLDEN / "braid5.arr").read_text())
    keys, _, _ = matroidos.flat_order(matroidos.flat_search(af.dim, [(e.coeffs, e.constant) for e in af.equations]))
    assert (len(keys), sum(map(len, keys))) == (52, 109)
    calls = count_calls(matroidos, "_row_text")
    assert len(_keys("poset", "braid5.arr")) == 52
    assert calls["_row_text"] == len({row for key in keys for row in key}) == 10


@pytest.mark.parametrize("name", E2_GATE_FILES)
def test_strata_and_poset_print_the_same_names(name):
    """`strata` names its rows lazily off the integer keys, and `poset` names
    its nodes off the same keys at once: the same names, in one order."""
    names = _keys("poset", name)
    assert len(names) > 1 and names == _keys("strata", name)


HYPERPLANE_FILES = tuple(sorted(
    path.name for path in GOLDEN.glob("*.arr") if parse_arrangement_file(path.read_text()).kind == "hyperplane"
))


def test_e2_commands_make_no_flat_key(count_calls):
    """Work gate: `betti`, `e2`, `purity` and `certificate` read codimension
    and |mu| off the unordered flat search, so they make no flat's key (no
    `_meet`; 51 on braid5 before).  `poset` and `strata` print the flats
    in order, and make one `_meet` per flat other than the ambient."""
    calls = count_calls(matroidos, "_meet")
    assert len(HYPERPLANE_FILES) == 4
    for name in HYPERPLANE_FILES:
        for command in ("betti", "e2", "purity", "certificate"):
            code, _ = invoke([command, str(GOLDEN / name)])
            assert code == 0
    assert calls == {}
    for command in ("poset", "strata"):
        assert len(_keys(command, "braid5.arr")) == 52
        assert calls["_meet"] == 51
        calls.clear()


def test_points_carry_no_rows(count_calls):
    """Work gate: a point misses every hyperplane not through it, so the
    search builds no rows at the six points of generic_lines.arr: 8
    `_clear` steps for `betti`, and 2 more on the keys that `poset` makes
    (22 on both paths before)."""
    af = parse_arrangement_file((GOLDEN / "generic_lines.arr").read_text())
    calls = count_calls(matroidos, "_clear")
    for command, clears in (("betti", 8), ("poset", 10)):
        run_command(command, af)
        assert calls["_clear"] == clears
        calls.clear()


@pytest.mark.parametrize("name", ["braid4.arr", "b3.arr", "impure_strata.arr"])
def test_one_canonical_sort_per_command(count_calls, name):
    """Work gate: `run_command` canonicalizes the file once and digests the
    canonical file it holds (twice before, once more for the digest)."""
    af = parse_arrangement_file((GOLDEN / name).read_text())
    calls = count_calls(cli, "canonicalize")
    for command in ("strata", "betti", "certificate"):
        run_command(command, af)
        assert calls["canonicalize"] == 1
        calls.clear()


def _generic_rendering(report, fmt):
    """The structured report with every value of every row formatted pair
    by pair through `_format_value`."""
    fv = cli._format_value
    kv = fmt == "kv"
    lines = ["command%s%s" % (" = " if kv else ": ", report.command),
             "digest%s%s" % (" = " if kv else ": ", report.digest)]
    for name, payload in report.sections:
        if isinstance(payload, list) and payload and isinstance(payload[0], dict):
            for i, row in enumerate(payload):
                if kv:
                    lines += ["%s.%d.%s = %s" % (name, i, k, fv(v)) for k, v in row.items()]
                else:
                    lines.append("%s %s" % (name, " ".join("%s=%s" % (k, fv(v)) for k, v in row.items())))
        else:
            lines.append("%s%s%s" % (name, " = " if kv else ": ", fv(payload)))
    for i, w in enumerate(report.warnings):
        lines.append("warning.%d = %s" % (i, w) if kv else "warning: %s" % w)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "kv"])
def test_render_structured_matches_the_generic_formatter(fmt):
    """Rows that share their keys share one template; values that are not
    an exact int or str still print as `_format_value` prints them, and
    rows whose keys differ, or come in another order, get their own."""
    rows = [
        {"a": 1, "b": "x", "c": True},
        {"a": F(-3, 4), "b": math.inf, "c": [1, F(1, 2), False]},
        {"a": -7, "b": "", "c": (2, 3)},
        {"b": 0, "a": 1, "c": False},
        {"a": 2, "d": math.inf},
        {},
        {"a": 3, "b": "y", "c": None},
    ]
    report = RunReport("poset", "sha256:00", (
        ("kind", "hyperplane"), ("row", rows), ("cover", [{"from": 0, "to": 1}, {"from": 0, "to": 2}]),
        ("r", math.inf), ("formal", True), ("betti", [1, 6, 9]), ("empty", []),
    ), ("a warning", "another"))
    assert render_structured(report, fmt) == _generic_rendering(report, fmt)
