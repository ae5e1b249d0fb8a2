"""Golden byte contract: CLI stdout and exit codes on a fixed corpus.

Every `.arr` file in `tests/golden/` is run through `cli.main` for each
command in COMMANDS and each output format.  The expected stdout is in
`tests/golden/expected/<file>.<command>.<format>` and the exit codes in
`tests/golden/exit_codes.json`.  The same directory holds the stdout of
`model-selftest` in each format, which `tests/test_cli.py` asserts.  A
change that alters any byte of any output fails here; when the change is
intended, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from stratiform import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
EXIT_CODES = GOLDEN / "exit_codes.json"
COMMANDS = ("strata", "poset", "e2", "betti", "purity", "certificate")
FORMATS = ("text", "kv")

SELFTEST = tuple("model-selftest.%s" % fmt for fmt in FORMATS)

CASES = [
    (path.stem, command, fmt)
    for path in sorted(GOLDEN.glob("*.arr"))
    for command in COMMANDS
    for fmt in FORMATS
]


def _case_id(stem: str, command: str, fmt: str) -> str:
    return "%s.%s.%s" % (stem, command, fmt)


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _run(stem: str, command: str, fmt: str) -> tuple[int, str]:
    return _main([command, str(GOLDEN / (stem + ".arr")), "--format", fmt])


def test_corpus_is_complete():
    codes = json.loads(EXIT_CODES.read_text())
    ids = {_case_id(*case) for case in CASES}
    assert set(codes) == ids
    assert {p.name for p in EXPECTED.iterdir()} == ids | set(SELFTEST)


@pytest.mark.parametrize("stem,command,fmt", CASES, ids=[_case_id(*c) for c in CASES])
def test_golden_output(stem, command, fmt):
    case = _case_id(stem, command, fmt)
    code, text = _run(stem, command, fmt)
    assert text == (EXPECTED / case).read_text(encoding="utf-8")
    assert code == json.loads(EXIT_CODES.read_text())[case]


def regenerate() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.iterdir():
        stale.unlink()
    codes = {}
    for case in CASES:
        code, text = _run(*case)
        name = _case_id(*case)
        (EXPECTED / name).write_text(text, encoding="utf-8")
        codes[name] = code
    for name, fmt in zip(SELFTEST, FORMATS):
        (EXPECTED / name).write_text(_main(["model-selftest", "--format", fmt])[1], encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
