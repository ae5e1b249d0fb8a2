"""Tests of the benchmark itself.

    python3 -m pytest bench

They check that a seed gives byte-identical inputs, that no input
repeats within a process and none runs out in a long run, that tracing
changes no job output, that per-layer self times add up to the traced
pass time, and the oracles.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stratiform import cli, morganmodel  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = workloads.WORKLOADS
# The heaviest anchors, left out where a test only needs every layer once.
HEAVY = ("braid-5/", "B3/", "square-5x5", "cube-2")
# A run of the benchmark cannot reach this many passes: besides its jobs,
# each pass runs a host probe of about 10 ms after every job and starts a
# set-up process of about 0.1 s (times on the reference host), so even a
# package that took no time would get through fewer than 150 passes in
# 30 seconds.
LONG_RUN_PASSES = 500


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_gives_byte_identical_inputs(workload):
    first, second = workloads.Corpus(workload, 7), workloads.Corpus(workload, 7)
    for _ in range(3):
        a = [job.input_text() for job in first.next_pass()]
        b = [job.input_text() for job in second.next_pass()]
        assert a == b
    other = [job.input_text() for job in workloads.Corpus(workload, 8).next_pass()]
    assert other != [job.input_text() for job in workloads.Corpus(workload, 7).next_pass()]


def _canonical_input(job) -> str:
    """What a cache inside the package could key on: the canonical file, or
    the content of the Kunneth product datum."""
    if job.kind == "cli":
        return cli.render_arrangement(cli.parse_arrangement_file(job.text))
    return job.regime + workloads.datum_key(workloads.product_datum(job.factors))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_input_repeats_within_a_process(workload):
    corpus = workloads.Corpus(workload, 3)
    seen = [_canonical_input(job) for _ in range(15) for job in corpus.next_pass()]
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_last_for_a_long_run(workload):
    corpus = workloads.Corpus(workload, 4)
    for _ in range(LONG_RUN_PASSES):
        corpus.next_pass()
    assert corpus.passes == LONG_RUN_PASSES


def test_run_ends_cleanly_when_inputs_run_out():
    class Exhausted:
        passes = 3

        def next_pass(self):
            raise workloads.InputsExhausted("no new input")

    r = run.Run("toric", 1)
    r.corpus = Exhausted()
    with pytest.raises(workloads.InputsExhausted):
        r.one_pass()  # before any pass it is a broken generator, not the end of a run
    r.pass_s.append(1.0)
    assert r.one_pass() is False
    assert r.stopped == "no new input"


def test_model_key_is_the_product_datum():
    """Equal model keys exactly when the Kunneth products are equal, on
    scales drawn from a small set so that many products coincide."""
    rng = random.Random(0)
    keys = {}
    for sizes in ((0, 0), (2, 0), (1, 1), (0, 0, 0)):
        for _ in range(60):
            factors = tuple((s, tuple(rng.choice((1, -1, 2)) for _ in workloads.marked_line_basis(s)))
                            for s in sizes)
            keys[factors] = (workloads.model_key("kernel", factors),
                             workloads.datum_key(workloads.product_datum(factors)))
    pairs = list(keys.values())
    assert len({k for k, _ in pairs}) == len(set(pairs)) == len({d for _, d in pairs})
    assert len(set(pairs)) < len(pairs)


def _light_jobs(workload):
    return [job for job in workloads.Corpus(workload, 5).next_pass() if not job.name.startswith(HEAVY)]


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pass(request):
    """Outputs of one corpus run plain and traced, with the traced figures."""
    jobs = _light_jobs(request.param)
    data = [workloads.prepare(job) for job in jobs]
    plain = [workloads.render_result(j, workloads.run_job(j, d)) for j, d in zip(jobs, data)]
    tracer = Tracer()
    results, duration = [], 0.0
    tracer.install()
    try:
        tracer.begin_pass(keep_spans=True)
        for job, inp in zip(jobs, data):
            with tracer.span("bench.job") as span:
                results.append(workloads.run_job(job, inp))
            duration += span.duration
        figures = tracer.end_pass()
    finally:
        tracer.remove()
    traced = [workloads.render_result(j, r) for j, r in zip(jobs, results)]
    return plain, traced, figures, duration, tracer


def test_tracing_changes_no_output(traced_pass):
    plain, traced, _, _, _ = traced_pass
    assert plain == traced


def test_layer_self_times_sum_to_pass_time(traced_pass):
    _, _, figures, duration, tracer = traced_pass
    total = sum(figures["layer_self"].values())
    assert total == pytest.approx(duration, rel=1e-9, abs=1e-9)
    layers = set(figures["layer_self"]) - {"bench"}
    assert layers and layers <= set(LAYERS)
    roots = {tracer.names[s[0]] for s in tracer.spans if s[3] == -1}
    assert roots == {"bench.job"}


def test_remove_restores_the_package():
    tracer = Tracer()
    original = cli.run_command
    tracer.install()
    try:
        assert cli.run_command is not original
        assert morganmodel.build_model.__wrapped__ is not None
    finally:
        tracer.remove()
    assert cli.run_command is original
    assert not hasattr(morganmodel.build_model, "__wrapped__")


def test_whitney_oracle():
    braid4 = [h for h, _ in workloads.braid_hyperplanes(4, [0, 0, 0, 0])]
    assert oracles.central_whitney(braid4) == (1, 6, 11, 6)
    # Three generic lines in the plane: 1 + 3t + 3t^2, times (1 + t) on the cone.
    lines = [((1, -1), 1), ((2, -1), 4), ((3, -1), 9)]
    assert oracles.coned_whitney(2, lines) == oracles.poly_mul((1, 3, 3), (1, 1))


def test_poset_oracle_on_package_output():
    text = "".join("eq %s : 0/1\n" % " ".join(map(str, h))
                   for h, _ in workloads.braid_hyperplanes(4, [0, 0, 0, 0]))
    _, report = cli.run_command("poset", cli.parse_arrangement_file("hyperplane 4\n" + text))
    _, nodes, covers, _ = oracles.parse_report(report)
    assert oracles.poset_poincare(nodes, covers, toric=False) == workloads.braid_betti(4)
    _, report = cli.run_command("poset", cli.parse_arrangement_file("toric 1\neq 5 : 1/3\n"))
    _, nodes, covers, _ = oracles.parse_report(report)
    assert oracles.poset_poincare(nodes, covers, toric=True) == (1, 6)


def test_checks_catch_a_wrong_answer():
    job = next(j for j in workloads.Corpus("hyperplane", 2).next_pass() if j.name == "braid-4/betti")
    code, text = workloads.run_job(job, None)
    assert oracles.check(job, (code, text)) is None
    assert oracles.check(job, (code, text.replace("betti: 1 6", "betti: 1 7"))) is not None
    assert oracles.check(job, (1, text)) is not None


def test_golden_digests_cover_every_first_pass_job():
    pinned = json.loads(run.GOLDEN.read_text())
    for workload in WORKLOADS:
        jobs = workloads.Corpus(workload, run.DEFAULT_SEED).next_pass()
        assert sorted(pinned[workload]) == sorted("0.%d %s" % (i, j.name) for i, j in enumerate(jobs))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hyperplane", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
