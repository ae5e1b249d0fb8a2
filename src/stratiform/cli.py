"""File-driven command line: parse arrangements, run computations, render.

Input grammar (line oriented, `#` starts a comment, blank lines ignored):

    toric <n>        | hyperplane <n>      | strata <n>
    eq <i1> ... <in> : <p>/<q>             (toric, hyperplane)
    stratum <codim> <localdim> : <p>:<dim>:<weight> ...   (strata)

For toric files the fraction is the phase t of a = exp(2 pi i t); for
hyperplane files it is the constant term.  Fractions must be reduced with
positive denominator.  The `strata` kind feeds synthetic stratum data
straight into the purity and certificate machinery; a stratum's codim
lies in [0, n] and its degrees p in [0, 2(n - codim)], the real
dimension of a stratum of complex dimension n - codim.

Exit codes: 0 success, 1 malformed input, usage, or more layers or flats
than --max-strata allows, 2 mathematically refused certificate.  All
output goes to standard output and is byte-reproducible; equations are
canonicalized (sorted) before any computation, so permuting input lines
cannot change any result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from typing import Callable

from stratiform.leraymodel import (
    DegenerationUnknown,
    FormalityCertificate,
    StrataData,
    Stratum,
    assemble_e2,
    betti_and_poincare,
    formality_certificate,
    purity_hypothesis_check,
    strata_data_from_hyperplanes,
    strata_data_from_toric,
)
from stratiform.matroidos import _flat_name, flat_order, flat_search
from stratiform.morganmodel import (
    build_model,
    builder_point,
    builder_projective_line_marked,
    cohomology_of_model,
    extract_cokernel_model,
    extract_kernel_model,
    kunneth_product,
    negate_gysin_block,
    verify_cdga_axioms,
)
from stratiform.toriclayers import (
    ToricHypersurface,
    _layer_name,
    layer_order,
    layer_search,
    mod1,
    torus_cohomology,
)

INF = math.inf
DEFAULT_MAX_STRATA = 100_000

_FRACTION = re.compile(r"^(-?\d+)/(\d+)$")
_COH_ENTRY = re.compile(r"^(\d+):(\d+):(\d+)$")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, message))


@dataclass(frozen=True)
class Equation:
    coeffs: tuple[int, ...]
    constant: Fraction
    label: int


@dataclass(frozen=True)
class SyntheticStratum:
    codim: int
    local_dim: int
    cohomology: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ArrangementFile:
    kind: str
    dim: int
    equations: tuple[Equation, ...] = ()
    strata: tuple[SyntheticStratum, ...] = field(default=())


def _parse_fraction(token: str, line_no: int) -> Fraction:
    m = _FRACTION.match(token)
    if not m:
        raise ParseError(line_no, "expected a fraction p/q, got %r" % token)
    p, q = int(m.group(1)), int(m.group(2))
    if q == 0:
        raise ParseError(line_no, "fraction with denominator 0")
    if gcd(abs(p), q) != 1:
        raise ParseError(line_no, "fraction %s is not reduced" % token)
    return Fraction(p, q)


def parse_arrangement_file(text: str) -> ArrangementFile:
    kind = None
    dim = 0
    equations: list[Equation] = []
    strata: list[SyntheticStratum] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if kind is None:
            if tokens[0] not in ("toric", "hyperplane", "strata") or len(tokens) != 2:
                raise ParseError(line_no, "expected header 'toric <n>', 'hyperplane <n>' or 'strata <n>'")
            kind = tokens[0]
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, "ambient dimension must be an integer") from None
            if dim < 1:
                raise ParseError(line_no, "ambient dimension must be at least 1")
            continue
        if kind in ("toric", "hyperplane"):
            if tokens[0] != "eq":
                raise ParseError(line_no, "expected an 'eq' line")
            try:
                sep = tokens.index(":")
            except ValueError:
                raise ParseError(line_no, "missing constant after ':'") from None
            if sep != dim + 1:
                raise ParseError(line_no, "expected %d coefficients, got %d" % (dim, sep - 1))
            if len(tokens) != sep + 2:
                raise ParseError(line_no, "expected exactly one constant after ':'")
            try:
                coeffs = tuple(map(int, tokens[1:sep]))
            except ValueError:
                raise ParseError(line_no, "coefficients must be integers") from None
            if not any(coeffs):
                raise ParseError(line_no, "zero coefficient row")
            constant = _parse_fraction(tokens[-1], line_no)
            if kind == "toric":
                constant = mod1(constant)
            equations.append(Equation(coeffs, constant, len(equations)))
        else:
            if tokens[0] != "stratum":
                raise ParseError(line_no, "expected a 'stratum' line")
            if ":" not in tokens:
                raise ParseError(line_no, "missing ':' before cohomology entries")
            sep = tokens.index(":")
            head, tail = tokens[1:sep], tokens[sep + 1:]
            if len(head) != 2:
                raise ParseError(line_no, "expected 'stratum <codim> <localdim> : ...'")
            try:
                codim, local_dim = int(head[0]), int(head[1])
            except ValueError:
                raise ParseError(line_no, "codim and localdim must be integers") from None
            if codim < 0 or local_dim < 0:
                raise ParseError(line_no, "codim and localdim must be nonnegative")
            if codim > dim:
                raise ParseError(line_no, "codim %d exceeds the ambient dimension %d" % (codim, dim))
            entries = []
            for tok in tail:
                m = _COH_ENTRY.match(tok)
                if not m:
                    raise ParseError(line_no, "expected cohomology entry p:dim:weight, got %r" % tok)
                degree = int(m.group(1))
                if degree > 2 * (dim - codim):
                    raise ParseError(
                        line_no,
                        "degree %d exceeds 2 * (dim - codim) = %d, the real dimension of the stratum"
                        % (degree, 2 * (dim - codim)),
                    )
                entries.append((degree, int(m.group(2)), int(m.group(3))))
            if not entries:
                raise ParseError(line_no, "stratum needs at least one cohomology entry")
            strata.append(SyntheticStratum(codim, local_dim, tuple(sorted(entries))))
    if kind is None:
        raise ParseError(1, "empty file: missing header line")
    return ArrangementFile(kind, dim, tuple(equations), tuple(strata))


def canonicalize(af: ArrangementFile) -> ArrangementFile:
    """Sort equations (or strata) and relabel in canonical order."""
    if af.kind == "strata":
        return ArrangementFile(
            af.kind, af.dim, (), tuple(sorted(af.strata, key=lambda s: (s.codim, s.cohomology, s.local_dim)))
        )
    eqs = sorted(af.equations, key=lambda e: (e.coeffs, e.constant))
    return ArrangementFile(
        af.kind, af.dim, tuple(Equation(e.coeffs, e.constant, i) for i, e in enumerate(eqs)), ()
    )


def render_arrangement(af: ArrangementFile) -> str:
    """Canonical text form; parse(render(parse(t))) == parse(t)."""
    return _render_canonical(canonicalize(af))


def _render_canonical(af: ArrangementFile) -> str:
    """The text form of a file that is already canonical."""
    lines = ["%s %d" % (af.kind, af.dim)]
    for e in af.equations:
        lines.append(
            "eq %s : %d/%d"
            % (" ".join(map(str, e.coeffs)), e.constant.numerator, e.constant.denominator)
        )
    for s in af.strata:
        entries = " ".join("%d:%d:%d" % e for e in s.cohomology)
        lines.append("stratum %d %d : %s" % (s.codim, s.local_dim, entries))
    return "\n".join(lines) + "\n"


# -- computations -------------------------------------------------------------


def _toric_hypersurfaces(af: ArrangementFile) -> list[ToricHypersurface]:
    return [ToricHypersurface(e.coeffs, e.constant, e.label) for e in af.equations]


def _hyperplanes(af: ArrangementFile) -> list[tuple]:
    return [(e.coeffs, e.constant) for e in af.equations]


def _strata_data(af: ArrangementFile, max_strata: int) -> StrataData:
    if af.kind == "toric":
        return strata_data_from_toric(af.dim, _toric_hypersurfaces(af), max_strata)
    if af.kind == "hyperplane":
        return strata_data_from_hyperplanes(af.dim, _hyperplanes(af), max_strata)
    sd = StrataData(
        tuple(
            Stratum("s%d" % i, s.codim, s.cohomology, s.local_dim)
            for i, s in enumerate(af.strata)
        )
    )
    sd.validate()
    return sd


def _poset(af: ArrangementFile, max_strata: int):
    """(codim, dim, name) of each layer or flat, the covers and mu, in the
    order `poset` and `strata` print them, that of `layer_order` or
    `flat_order`, read off the searches' integer keys like the strata."""
    n = af.dim
    if af.kind == "toric":
        keys, covers, mobius = layer_order(layer_search(n, _toric_hypersurfaces(af), max_strata))
        named = [(span, _layer_name(span, phases)) for span, phases in keys]
    elif af.kind == "hyperplane":
        keys, covers, mobius = flat_order(flat_search(n, _hyperplanes(af), max_strata))
        text: dict = {}  # each distinct echelon row is formatted once
        named = [(key, _flat_name(key, text)) for key in keys]
    else:
        raise ValueError("poset requires a toric or hyperplane file")
    return [(len(rows), n - len(rows), name) for rows, name in named], covers, mobius


def render_poset_dot(nodes, covers) -> str:
    lines = ["digraph poset {"]
    for i, (codim, dim, key) in enumerate(nodes):
        lines.append('  n%d [label="%d/%d/%s"];' % (i, codim, dim, key))
    for i, j in covers:
        lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structured reports --------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    command: str
    digest: str
    sections: tuple  # ordered (name, payload) pairs
    warnings: tuple[str, ...]


def _format_value(v) -> str:
    if type(v) is int or type(v) is str:  # the exact type: a bool prints as true/false
        return str(v)
    if isinstance(v, Fraction):
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return " ".join(_format_value(x) for x in v)
    return str(v)


def _row_template(name: str, keys, kv: bool) -> str:
    """The %-template of a row with these keys; a kv template takes the
    row's index once per key first, and then the values."""
    if kv:
        return "\n".join("%s.%%d.%s = %%%%s" % (name, k) for k in keys)
    return "%s %s" % (name, " ".join("%s=%%s" % k for k in keys))


def _row_lines(name: str, rows: list, kv: bool) -> list[str]:
    """The lines of a section of dict rows, one template for the section
    when its rows share their keys.  Only a value that is not an exact
    int or str goes through `_format_value`."""
    values = [tuple(row.values()) for row in rows]
    if not _PLAIN.issuperset(map(type, chain.from_iterable(values))):
        values = [tuple(v if type(v) in _PLAIN else _format_value(v) for v in row) for row in values]
    keys = list(rows[0])
    if list(map(list, rows)).count(keys) == len(rows):
        templates = repeat(_row_template(name, keys, kv))
    else:
        templates = [_row_template(name, row, kv) for row in rows]
    if kv:  # a row without keys has no lines
        return [t % ((i,) * len(row)) % row for i, (t, row) in enumerate(zip(templates, values)) if row]
    return [t % row for t, row in zip(templates, values)]


_PLAIN = frozenset((int, str))  # the exact types that print as str(v)


def render_structured(report: RunReport, fmt: str) -> str:
    kv = fmt == "kv"
    sep = " = " if kv else ": "
    lines = ["command%s%s" % (sep, report.command), "digest%s%s" % (sep, report.digest)]
    for name, payload in report.sections:
        if isinstance(payload, list) and payload and isinstance(payload[0], dict):
            lines += _row_lines(name, payload, kv)
        else:
            lines.append("%s%s%s" % (name, sep, _format_value(payload)))
    if kv:
        lines += ["warning.%d = %s" % (i, w) for i, w in enumerate(report.warnings)]
    else:
        lines += ["warning: %s" % w for w in report.warnings]
    return "\n".join(lines) + "\n"


_CANONICAL_NOTE = "equations canonicalized: sorted, labels renumbered"


def _digest(af: ArrangementFile) -> str:
    """The digest of a canonical file."""
    return "sha256:" + hashlib.sha256(_render_canonical(af).encode()).hexdigest()


def _e2_rows(table) -> list[dict]:
    return [
        {"p": p, "q": q, "weight": w, "dim": d}
        for (p, q, w, d) in table.rows()
    ]


def _purity_rows(report) -> list[dict]:
    return [
        {"stratum": key, "degree": k, "weight": w}
        for (key, k, w) in report.witnesses
    ]


def run_command(command: str, af: ArrangementFile | None, r: float = INF,
                fmt: str = "text", dot_path: str | None = None,
                max_strata: int = DEFAULT_MAX_STRATA) -> tuple[int, str]:
    """Execute one command; returns (exit code, rendered output).

    An arrangement with more than `max_strata` layers or flats raises
    ValueError before its poset is complete.
    """
    if command == "model-selftest":
        return _model_selftest(fmt)
    assert af is not None
    af = canonicalize(af)
    digest = _digest(af)
    warnings = (_CANONICAL_NOTE,)
    sections: list = [("kind", af.kind), ("dim", af.dim)]
    code = 0

    if command == "strata":
        if af.kind == "strata":
            strata = [(s.codim, s.local_dim, s.cohomology, s.key) for s in _strata_data(af, max_strata).strata]
        else:  # the layers or flats in the order of the poset's nodes; a flat has a point's cohomology
            nodes, _, mobius = _poset(af, max_strata)
            strata = [(codim, abs(mu), torus_cohomology(dim if af.kind == "toric" else 0), key)
                      for (codim, dim, key), mu in zip(nodes, mobius)]
        rows = [
            {"codim": codim, "a": a, "h": ",".join("%d:%d:%d" % e for e in h), "key": key}
            for codim, a, h, key in strata
        ]
        sections.append(("stratum", rows))
    elif command == "poset":
        nodes, covers, _ = _poset(af, max_strata)
        sections.append(
            ("node", [{"index": i, "codim": c, "dim": d, "key": k} for i, (c, d, k) in enumerate(nodes)])
        )
        sections.append(("cover", [{"from": i, "to": j} for i, j in covers]))
        if dot_path:
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(render_poset_dot(nodes, covers))
            sections.append(("dot", dot_path))
    elif command == "e2":
        table = assemble_e2(_strata_data(af, max_strata))
        sections.append(("e2", _e2_rows(table)))
        sections.append(("note", table.note))
    elif command == "betti":
        try:
            result = betti_and_poincare(assemble_e2(_strata_data(af, max_strata)))
        except DegenerationUnknown as err:
            sections.append(("refused", str(err)))
            report = RunReport(command, digest, tuple(sections), warnings)
            return 2, render_structured(report, fmt)
        sections.append(("betti", list(result.betti)))
        sections.append(("poincare", result.poincare))
        sections.append(("weights", list(result.weights)))
    elif command == "purity":
        report_p = purity_hypothesis_check(_strata_data(af, max_strata), r)
        sections.append(("r", r))
        sections.append(("purity", "pass" if report_p.passed else "fail"))
        if not report_p.passed:
            sections.append(("witness", _purity_rows(report_p)))
    elif command == "certificate":
        out = formality_certificate(_strata_data(af, max_strata), r)
        sections.append(("r", r))
        if isinstance(out, FormalityCertificate):
            sections.append(("purity", "pass"))
            sections.append(
                ("degeneration", out.degeneration.verdict)
            )
            sections.append(("forced_zero_differentials", len(out.degeneration.forced_zero)))
            if out.betti is not None:
                sections.append(("betti", list(out.betti.betti)))
                sections.append(("poincare", out.betti.poincare))
            sections.append(("formal", True if out.formal else "refused"))
            for i, step in enumerate(out.reasoning):
                sections.append(("reasoning.%d" % i, step))
            if not out.formal:
                code = 2
        else:
            sections.append(("purity", "fail"))
            sections.append(("witness", _purity_rows(out)))
            sections.append(("formal", "refused"))
            code = 2
    else:
        raise ValueError("unknown command %r" % command)

    report = RunReport(command, digest, tuple(sections), warnings)
    return code, render_structured(report, fmt)


# -- self test ----------------------------------------------------------------


def _dim1_toric_point_count(equations) -> int:
    hyps = [ToricHypersurface(chi, t, i) for i, (chi, t) in enumerate(equations)]
    keys, _, _ = layer_search(1, hyps)
    return sum(1 for span, _ in keys if span)  # the layers of codimension 1


def _leray_graded_dims(ambient_dim, hyps) -> dict:
    sd = strata_data_from_toric(ambient_dim, hyps)
    betti = betti_and_poincare(assemble_e2(sd)).betti
    return {(k, 2 * k): b for k, b in enumerate(betti) if b}


# Equations (character, phase) of arrangements on the 1-torus for the
# cross-engine checks, whether `model-selftest` runs their checks, and
# whether they are also checked on the square of the torus.
_CROSS_ENGINE_ARRANGEMENTS = (
    ([((1,), Fraction(0))], True, True),
    ([((2,), Fraction(0))], True, True),
    ([((2,), Fraction(0)), ((1,), Fraction(1, 2))], True, False),
    ([((1,), Fraction(0)), ((1,), Fraction(1, 2))], False, True),
    ([((3,), Fraction(0)), ((1,), Fraction(0))], False, True),
    ([((2,), Fraction(0)), ((3,), Fraction(0))], False, False),
    ([((4,), Fraction(1, 2))], False, False),
    ([((2,), Fraction(0)), ((2,), Fraction(1, 2)), ((1,), Fraction(1, 4))], False, False),
    ([((1,), Fraction(k, 5)) for k in range(5)], False, False),
)


@dataclass(frozen=True)
class ModelCheck:
    """One exact check of the model route: the acceptance criterion it
    belongs to, its name, whether `model-selftest` runs it, and the check."""

    criterion: int
    name: str
    selftest: bool
    run: Callable[[], bool]


def _square(s: int):
    line = builder_projective_line_marked(s)
    return kunneth_product(line, line)


def _axioms_pass(cd) -> bool:
    model = build_model(cd)
    # the builders stay within the size that acceptance criterion 5 budgets for
    return model.total_dimension() <= 60 and verify_cdga_axioms(model).passed


def _full_flip_detected() -> bool:
    report = verify_cdga_axioms(build_model(negate_gysin_block(_square(2), (1, 3), 1, 0)))
    return not report.passed and "d_squared" in report.axioms_failing()


def _block_flip_detected() -> bool:
    mixed = kunneth_product(builder_projective_line_marked(2), builder_projective_line_marked(0))
    report = verify_cdga_axioms(build_model(negate_gysin_block(mixed, (1,), 1, 0)))
    return report.axioms_failing() == ("leibniz",) and any("basis pair" in d for _, d in report.violations)


def _witness_ok(extract, cd) -> bool:
    witness = extract(build_model(cd), INF)
    return witness.quasi_iso.ok and witness.morphism.violations() == []


def _cross_engine(equations, points: int, square: bool) -> bool:
    """The E2 route's graded dimensions of the arrangement's complement, or
    of its square, against the Morgan model of the line with points + 2
    marked points, or of its square."""
    hyps = [ToricHypersurface(chi, t, i) for i, (chi, t) in enumerate(equations)]
    factor = builder_projective_line_marked(points + 2)
    if not square:
        return _leray_graded_dims(1, hyps) == cohomology_of_model(build_model(factor))
    n = len(equations)
    crossed = [ToricHypersurface(chi + (0,), t, i) for i, (chi, t) in enumerate(equations)]
    crossed += [ToricHypersurface((0,) + chi, t, n + i) for i, (chi, t) in enumerate(equations)]
    return _leray_graded_dims(2, crossed) == cohomology_of_model(build_model(kunneth_product(factor, factor)))


def model_checks() -> list[ModelCheck]:
    """The checks of acceptance criteria 4 to 6; `model-selftest` runs those
    marked `selftest`, in this order."""
    line = builder_projective_line_marked
    kernel, cokernel = (functools.partial(_witness_ok, extract)
                        for extract in (extract_kernel_model, extract_cokernel_model))
    checks = []

    def add(criterion, name, selftest, run):
        checks.append(ModelCheck(criterion, name, selftest, run))

    for s in range(6):
        add(5, "axioms marked-line s=%d" % s, s <= 3, lambda s=s: _axioms_pass(line(s)))
    add(5, "axioms kunneth square", True, lambda: _axioms_pass(_square(2)))
    for s in range(3, 6):
        add(5, "axioms kunneth square s=%d" % s, False, lambda s=s: _axioms_pass(_square(s)))
    add(5, "axioms mixed", False, lambda: _axioms_pass(kunneth_product(line(2), line(0))))
    add(5, "fault injection full flip detected", True, _full_flip_detected)
    add(5, "fault injection block flip detected as leibniz", True, _block_flip_detected)

    for s in range(1, 6):
        add(6, "kernel witness s=%d" % s, s in (2, 3), lambda s=s: kernel(line(s)))
    add(6, "kernel witness square", True, lambda: kernel(_square(2)))
    add(6, "cokernel witness compact line", True, lambda: cokernel(line(0)))
    add(6, "cokernel witness compact square", True, lambda: cokernel(_square(0)))
    add(6, "cokernel witness point", False, lambda: cokernel(builder_point()))

    for square in (False, True):
        for equations, selftest, on_square in _CROSS_ENGINE_ARRANGEMENTS:
            if on_square or not square:
                points = _dim1_toric_point_count(equations)
                add(4, "cross-engine %s %d-pts" % ("square" if square else "dim1", points), selftest,
                    functools.partial(_cross_engine, equations, points, square))
    return checks


def _model_selftest(fmt: str) -> tuple[int, str]:
    checks = [(check.name, check.run()) for check in model_checks() if check.selftest]

    all_ok = all(ok for _, ok in checks)
    sections = [("check", [{"name": name, "ok": ok} for name, ok in checks])]
    sections.append(("selftest", "pass" if all_ok else "fail"))
    report = RunReport("model-selftest", "sha256:" + hashlib.sha256(b"").hexdigest(), tuple(sections), ())
    return (0 if all_ok else 2), render_structured(report, fmt)


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stdout)
        sys.stdout.write("error: %s\n" % message)
        raise SystemExit(1)


def _parse_r(text: str) -> float:
    if text == "inf":
        return INF
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("r must be a nonnegative integer or 'inf'") from None
    if value < 0:
        raise argparse.ArgumentTypeError("r must be nonnegative")
    return value


def _parse_max_strata(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("max-strata must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stratiform", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("strata", "poset", "e2", "betti", "purity", "certificate"):
        p = sub.add_parser(name)
        p.add_argument("file", help="arrangement file")
        p.add_argument("--format", choices=("text", "kv"), default="text")
        p.add_argument(
            "--max-strata", type=_parse_max_strata, default=DEFAULT_MAX_STRATA,
            help="refuse an arrangement with more layers or flats (default %(default)s)",
        )
        if name in ("purity", "certificate"):
            p.add_argument("--r", type=_parse_r, default=INF, help="formality level (integer or 'inf')")
        if name == "poset":
            p.add_argument("--dot", default=None, help="write a DOT rendering to this path")
    p = sub.add_parser("model-selftest")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "model-selftest":
        code, text = run_command("model-selftest", None, fmt=args.format)
        sys.stdout.write(text)
        return code
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            content = fh.read()
    except (OSError, UnicodeDecodeError) as err:  # missing, unreadable or not UTF-8
        sys.stdout.write("error: %s\n" % err)
        return 1
    try:
        af = parse_arrangement_file(content)
        code, text = run_command(
            args.command,
            af,
            r=getattr(args, "r", INF),
            fmt=args.format,
            dot_path=getattr(args, "dot", None),
            max_strata=args.max_strata,
        )
    except (ValueError, OSError) as err:  # bad input, too many strata, or an unwritable --dot file
        sys.stdout.write("error: %s\n" % err)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
