"""The stratiform benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload hyperplane|toric|model --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  The
process runs passes over fresh seeded corpora for about S seconds, one
thread, and checks every job's result outside the timed region.

With `--trace 0` it reports the end-to-end metrics: pass time, median
job time, the anchor job's time, set-up time (median over fresh
processes, one before each pass and at least five, that import the
package and generate and parse a corpus) and the package's peak heap on
the anchor job (measured in a fresh process under tracemalloc, after
the timed passes).  With `--trace 1` the first half of the run is
traced (see tracer.py) and the second half is not, and it reports
per-layer self times and counters.  The names and units of both sets
of metrics are those listed in BENCHMARK.json.

The host's speed drifts: on a shared two-core machine the same
pure-Python loop has taken anywhere from 1x to 2x its fastest time,
within seconds and from one minute to the next, with CPU time equal to
wall time.  So a short fixed Fraction loop, the host probe, is timed
before and after every job, and every job time is rescaled to a host on
which the probe takes HOST_REFERENCE_S: its wall time is multiplied by
HOST_REFERENCE_S over the mean of the probes on either side of it.  A
slow stretch of the host then shows as a slow probe, not as a slow
program.  Set-up times are rescaled by the probes just before and after
the set-up process.  The run and its set-up processes keep to one CPU,
so that the probes measure the CPU the work runs on.  The raw wall
times and the probe times are printed beside the metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the details (quartiles, sample counts, per-job medians, failures, and
for a traced run the tracing overhead).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
SETUP_PROBES = 5
HOST_PROBE_ITERATIONS = 2000
HOST_REFERENCE_S = 0.01
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".bench_out"

def host_probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's speed now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, HOST_PROBE_ITERATIONS + 1):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        if acc.denominator > 10 ** 40:
            acc = Fraction(acc.numerator % 1000003, 997)
    return time.perf_counter() - start


def rescale(seconds: float, probes) -> float:
    """Wall seconds rescaled to the reference host, given the probes around them."""
    return seconds * HOST_REFERENCE_S / statistics.mean(probes)


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


# -- set-up -------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, spawned_at: float) -> None:
    """Body of a set-up process: import, generate and parse one corpus, then
    print the time since the process was spawned."""
    from stratiform import cli
    import workloads

    jobs = workloads.Corpus(workload, seed).next_pass()
    for job in jobs:
        if job.kind == "cli":
            cli.parse_arrangement_file(job.text)
        else:
            workloads.prepare(job)
    print(time.time() - spawned_at)


def memory_probe(workload: str, seed: int) -> None:
    """Body of a memory process: run the first anchor job of the seed's
    first pass under tracemalloc and print the peak heap growth in MB."""
    import workloads

    job = next(j for j in workloads.Corpus(workload, seed).next_pass() if j.anchor)
    prepared = workloads.prepare(job)
    gc.collect()
    tracemalloc.start()
    workloads.run_job(job, prepared)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(peak / 2 ** 20)


def _child(workload: str, seed: int, *flags: str) -> str:
    """Standard output of this script run in a fresh process with `flags`."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.strip()


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from the start of a fresh process to its first job: (raw, rescaled).

    The process inherits this one's CPU, so the probes around it see the
    speed it ran at.
    """
    before = host_probe()
    raw = float(_child(workload, seed, "--setup-probe", repr(time.time())))
    return raw, rescale(raw, (before, host_probe()))


# -- passes ---------------------------------------------------------------------------


class Run:
    """Outcome of the passes of one process.  Times are rescaled to the
    reference host; the `raw_` lists hold the wall times."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.workloads = workloads
        self.corpus = workloads.Corpus(workload, seed)
        self.golden = {}
        if seed == DEFAULT_SEED and GOLDEN.exists():
            self.golden = json.loads(GOLDEN.read_text()).get(workload, {})
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.job_s: list[float] = []
        self.anchor_s: list[float] = []
        self.raw_anchor_s: list[float] = []
        self.per_job: dict[str, list[float]] = {}
        self.raw_per_job: dict[str, list[float]] = {}
        self.host_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.traced: list[tuple[dict, float]] = []
        self.first_pass_names: list[str] = []
        self.stopped = None

    def one_pass(self, tracer=None) -> bool:
        """Generate, run and check one pass.

        A pass's time is the sum of its jobs' times; the host probes
        between jobs are not part of it.  With a tracer, each job is a
        root span, and the pass's per-layer figures are appended to
        `traced` with the pass's rescaling factor; the checks after the
        jobs are not traced.  Returns False, running nothing, when the
        corpus has no new inputs left: the run then ends early.
        """
        from oracles import check

        w = self.workloads
        index = self.corpus.passes
        try:
            jobs = self.corpus.next_pass()
        except w.InputsExhausted as err:
            if not self.pass_s:
                raise
            self.stopped = str(err)
            return False
        if index == 0:
            self.first_pass_names = [job.name for job in jobs]
        prepared = [w.prepare(job) for job in jobs]
        gc.collect()
        probes = [host_probe()]
        raw, results = [], []
        if tracer is not None:
            tracer.begin_pass(keep_spans=index == 0)
        for i, (job, inp) in enumerate(zip(jobs, prepared)):
            if tracer is None:
                start = time.perf_counter()
                results.append(_attempt(w.run_job, job, inp))
                raw.append(time.perf_counter() - start)
            else:
                tracer.job = "%d.%d" % (index, i)
                with tracer.span("bench.job") as span:
                    results.append(_attempt(w.run_job, job, inp))
                raw.append(span.duration)
            probes.append(host_probe())
        if tracer is not None:
            tracer.job = None
            self.traced.append((tracer.end_pass(), HOST_REFERENCE_S / statistics.median(probes)))
        scaled = [rescale(t, probes[i:i + 2]) for i, t in enumerate(raw)]
        self.host_s.extend(probes)
        self.pass_s.append(sum(scaled))
        self.raw_pass_s.append(sum(raw))
        for i, (job, result) in enumerate(zip(jobs, results)):
            self.attempted += 1
            self.job_s.append(scaled[i])
            self.per_job.setdefault(job.name, []).append(scaled[i])
            self.raw_per_job.setdefault(job.name, []).append(raw[i])
            if job.anchor:
                self.anchor_s.append(scaled[i])
                self.raw_anchor_s.append(raw[i])
            label = "%d.%d %s" % (index, i, job.name)
            if isinstance(result, Exception):
                self.failures.append("%s raised %r" % (label, result))
                continue
            text = w.render_result(job, result)
            reason = _attempt(check, job, result)
            if isinstance(reason, Exception):
                reason = "check raised %r" % reason
            golden = self.golden.get(label)
            if reason is None and golden is not None and golden != w.digest(text):
                reason = "output digest differs from the pinned one"
            if reason is not None:
                self.failures.append("%s: %s" % (label, reason))
        return True

    def details(self) -> dict:
        def medians(per_job):
            return {k: statistics.median(v) for k, v in sorted(per_job.items())}

        return {
            "passes": quartiles(self.pass_s),
            "raw_passes": quartiles(self.raw_pass_s),
            "jobs": quartiles(self.job_s),
            "anchor": quartiles(self.anchor_s),
            "raw_anchor": quartiles(self.raw_anchor_s),
            "host_probe_s": quartiles(self.host_s),
            "fail_frac": len(self.failures) / self.attempted,
            "failures": self.failures[:10],
            "per_job_median_s": medians(self.per_job),
            "raw_per_job_median_s": medians(self.raw_per_job),
            "stopped_early": self.stopped,
        }


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a failed job, not a failed run."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - every job failure is counted
        return err


def run_plain(workload: str, seed: int, seconds: float) -> tuple[dict, "Run", dict]:
    # Set-up is sampled between passes, like the passes, so that a slow
    # stretch of the host at the start of the run does not decide it.
    run = Run(workload, seed)
    setup = []
    start = time.perf_counter()
    while True:
        setup.append(measure_setup(workload, seed))
        if not run.one_pass() or time.perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload, seed))
    metrics = {
        "pass_s": statistics.median(run.pass_s),
        "job_p50_s": statistics.median(run.job_s),
        "largest_job_s": statistics.median(run.anchor_s),
        "setup_s": statistics.median(s for _, s in setup),
        "peak_heap_mb": float(_child(workload, seed, "--memory-probe")),
    }
    extra = {"setup_s": quartiles([s for _, s in setup]),
             "raw_setup_s": quartiles([r for r, _ in setup])}
    return metrics, run, extra


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, "Run", dict]:
    from tracer import Tracer

    run = Run(workload, seed)
    tracer = Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        while run.one_pass(tracer) and time.perf_counter() - start < seconds / 2:
            pass
    finally:
        tracer.remove()
    traced = len(run.traced)
    while not run.stopped and run.one_pass() and time.perf_counter() - start < seconds:
        pass
    _write_spans(tracer, workload, seed)
    metrics = layer_metrics(run.traced, run.pass_s[:traced])
    extra = {
        "traced_passes": traced,
        "plain_passes": len(run.pass_s) - traced,
        "bench_self_s": statistics.median(p["layer_self"].get("bench", 0.0) * factor
                                          for p, factor in run.traced),
        "trace_overhead": _overhead(run.pass_s[:traced], run.pass_s[traced:]),
        "first_pass_inclusive_s": _inclusive_by_job(tracer, run.first_pass_names),
    }
    return metrics, run, extra


def _overhead(traced_pass_s, plain_pass_s) -> dict | None:
    """Median traced pass time against the median untraced one."""
    if not plain_pass_s:
        return None
    traced, plain = statistics.median(traced_pass_s), statistics.median(plain_pass_s)
    return {"traced_minus_plain_s": traced - plain, "traced_over_plain": traced / plain}


def _inclusive_by_job(tracer, job_names) -> dict:
    """Per job of the first traced pass, the time spent in each reported function."""
    from tracer import ALWAYS

    out: dict[str, dict[str, float]] = {}
    for name_id, start, end, _, job in tracer.spans:
        name = tracer.names[name_id]
        if job is None or name not in ALWAYS:
            continue
        label = "%s %s" % (job, job_names[int(job.split(".")[1])])
        phases = out.setdefault(label, {})
        phases[name] = phases.get(name, 0.0) + end - start
    return out


def _write_spans(tracer, workload: str, seed: int) -> None:
    """The first traced pass's spans: (name, start, end, parent, job)."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / ("spans-%s-seed%d.json" % (workload, seed))
    spans = [[tracer.names[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                "spans": spans}))


def layer_metrics(traced, traced_pass_s) -> dict:
    """Per-layer metrics: times are medians over traced passes, each rescaled
    by its pass's factor; counts come from the first traced pass, whose
    corpus depends on the seed only."""
    counts = traced[0][0]["counts"]

    def median_of(fn):
        return statistics.median(fn(p) * factor for p, factor in traced)

    def layer(name):
        return median_of(lambda p: p["layer_self"].get(name, 0.0))

    def total(*names):
        return median_of(lambda p: sum(p["total"].get(n, 0.0) for n in names))

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    def count(name):
        return counts.get(name, 0)

    return {
        "exactalg.self_s": layer("exactalg"),
        "exactalg.rref.calls": count("exactalg.rref.calls"),
        "exactalg.rref.fresh_cells": count("exactalg.rref.fresh_cells"),
        "exactalg.rref.cache_hit_ratio": ratio("exactalg.rref.cache_hits", "exactalg.rref.calls"),
        "exactalg.rref.max_cells": count("exactalg.rref.max_cells"),
        "exactalg.solve.calls": count("exactalg.solve.calls"),
        "exactalg.matrix.created": count("exactalg.matrix.created"),
        "exactalg.smith.calls": count("exactalg.smith.calls"),
        "exactalg.smith.self_s": median_of(lambda p: p["self"].get("exactalg.smith_normal_form", 0.0)),
        "exactalg.smith.max_bits": count("exactalg.smith.max_bits"),
        "exactalg.hermite.calls": count("exactalg.hermite.calls"),
        "toriclayers.self_s": layer("toriclayers"),
        "toriclayers.build_layer_poset_s": total("toriclayers.build_layer_poset"),
        "toriclayers.layers_from_equations.calls": count("toriclayers.layers_from_equations.calls"),
        "toriclayers.bfs_useful_ratio": ratio("toriclayers.bfs.new", "toriclayers.bfs.tried"),
        "toriclayers.layer_contains.calls": count("toriclayers.layer_contains.calls"),
        "toriclayers.layers": count("toriclayers.layers"),
        "toriclayers.covers": count("toriclayers.covers"),
        "matroidos.self_s": layer("matroidos"),
        "matroidos.affine_poset_s": total("matroidos.affine_intersection_poset"),
        "matroidos.leq.calls": count("matroidos.leq.calls"),
        "matroidos.flat_lattice.calls": count("matroidos.flat_lattice.calls"),
        "matroidos.flat_lattice_s": total("matroidos.FlatLattice.__init__"),
        "matroidos.rank_of.calls": count("matroidos.rank_of.calls"),
        "matroidos.rank_of.hit_ratio": ratio("matroidos.rank_of.hits", "matroidos.rank_of.calls"),
        "matroidos.flats": count("matroidos.flats"),
        "leraymodel.self_s": layer("leraymodel"),
        "leraymodel.strata_data_s": total("leraymodel.strata_data_from_hyperplanes",
                                          "leraymodel.strata_data_from_toric"),
        "leraymodel.e2_s": total("leraymodel.assemble_e2"),
        "leraymodel.strata": count("leraymodel.strata"),
        "morganmodel.self_s": layer("morganmodel"),
        "morganmodel.kunneth_s": total("morganmodel.kunneth_product"),
        "morganmodel.build_model_s": total("morganmodel.build_model"),
        "morganmodel.validate_s": total("morganmodel.CompactificationDatum.validate"),
        "morganmodel.axioms_s": total("morganmodel.verify_cdga_axioms"),
        "morganmodel.axioms.triples": count("morganmodel.axioms.triples"),
        "morganmodel.axioms.nonzero_pair_ratio": ratio("morganmodel.axioms.nonzero_pairs",
                                                       "morganmodel.axioms.pairs"),
        "morganmodel.witness_s": total("morganmodel.extract_kernel_model",
                                       "morganmodel.extract_cokernel_model"),
        "morganmodel.quasi_iso_s": total("morganmodel.check_r_quasi_iso"),
        "morganmodel.morphism_check_s": total("morganmodel.CdgaMorphism.violations"),
        "morganmodel.model_dim_max": count("morganmodel.model_dim_max"),
        "cli.self_s": layer("cli"),
        "cli.parse_s": total("cli.parse_arrangement_file"),
        "bench.traced_pass_s": statistics.median(traced_pass_s),
    }


# -- entry point -------------------------------------------------------------------------


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--memory-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stratiform
    except ImportError as err:
        print("error: cannot import stratiform from %s: %s" % (src, err), file=sys.stderr)
        return 1
    if src not in Path(stratiform.__file__).resolve().parents:
        print("error: stratiform was imported from %s, not from %s"
              % (stratiform.__file__, src), file=sys.stderr)
        return 1
    # One CPU for the run and its set-up processes: the host probes then
    # measure the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.memory_probe:
        memory_probe(args.workload, args.seed)
        return 0
    listed = spec["per_layer" if args.trace else "end_to_end"]
    runner = run_traced if args.trace else run_plain
    values, run, extra = runner(args.workload, args.seed, args.seconds)
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError("measured %s, but BENCHMARK.json lists %s"
                           % (sorted(values), sorted(m["name"] for m in listed)))
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    details.update(run.details())
    details.update(extra)
    print(json.dumps({"details": details}))
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
