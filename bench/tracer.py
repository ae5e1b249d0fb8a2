"""Span tracing of the package's layers from outside the package.

`Tracer.install()` wraps the public functions and methods of each layer
module and rebinds every name, in every `stratiform` module, that refers
to a wrapped function; `remove()` puts the originals back.  A wrapper
records a span (name, start, end, parent, job) when it crosses into its
layer from another one, or always for the functions whose inclusive time
is a metric.  A call from inside the same layer is not a boundary and
runs unrecorded, its time staying in the caller's span; per-layer self
time is the same either way.

Self time is a span's duration minus the durations of its child spans,
so the self times of all spans under a pass add up to the pass span.
Counters are updated on every call, recorded or not.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

LAYERS = ("exactalg", "toriclayers", "matroidos", "leraymodel", "morganmodel", "cli")

# Per-element helpers, called in the innermost loops of their own layer.
# A wrapper would cost more than they do; their time counts to the caller.
HOT_HELPERS = {
    "exactalg.dot",
    "exactalg.vector",
    "exactalg.Matrix.row",
    "exactalg.Matrix.column",
    "toriclayers.mod1",
    "toriclayers.Layer.phase_of",
    "toriclayers.Layer.equations",
    "morganmodel.shuffle_sign",
    "morganmodel.CompactificationDatum.dim",
    "morganmodel.CompactificationDatum.degrees",
    "morganmodel.CompactificationDatum.cup_entries",
    "morganmodel.BigradedModel.dim",
    "morganmodel.BigradedModel.differential",
    "morganmodel.BigradedModel.diff_vec",
    "morganmodel.BigradedModel.mult_basis",
    "morganmodel.BigradedModel.mult_vec",
    "morganmodel.CdgaMorphism.block",
    "morganmodel.CdgaMorphism.apply",
}

# Functions whose inclusive time is reported: always recorded as spans.
ALWAYS = {
    "exactalg.smith_normal_form",
    "toriclayers.build_layer_poset",
    "matroidos.affine_intersection_poset",
    "matroidos.FlatLattice.__init__",
    "leraymodel.strata_data_from_hyperplanes",
    "leraymodel.strata_data_from_toric",
    "leraymodel.assemble_e2",
    "morganmodel.kunneth_product",
    "morganmodel.build_model",
    "morganmodel.CompactificationDatum.validate",
    "morganmodel.verify_cdga_axioms",
    "morganmodel.extract_kernel_model",
    "morganmodel.extract_cokernel_model",
    "morganmodel.check_r_quasi_iso",
    "morganmodel.CdgaMorphism.violations",
    "cli.parse_arrangement_file",
    "cli.run_command",
}

# Methods wrapped besides the public ones.
_DUNDERS = ("__init__", "__matmul__")


def _bits(rows):
    return max((abs(int(x)).bit_length() for r in rows for x in r), default=0)


# -- counter hooks: pre(tracer, args) and post(tracer, args, result) ----------


def _pre_rref(tr, args):
    m = args[0]
    c = tr.counts
    c["exactalg.rref.calls"] += 1
    if getattr(m, "_rref", None) is not None:
        c["exactalg.rref.cache_hits"] += 1
        return
    cells = m.nrows * m.ncols
    c["exactalg.rref.fresh_cells"] += cells
    c["exactalg.rref.max_cells"] = max(c["exactalg.rref.max_cells"], cells)


def _pre_rank_of(tr, args):
    matroid, subset = args[0], args[1]
    c = tr.counts
    c["matroidos.rank_of.calls"] += 1
    if isinstance(subset, (frozenset, set, range, tuple, list)):
        if frozenset(subset) in getattr(matroid, "_rank_cache", ()):
            c["matroidos.rank_of.hits"] += 1


def _pre_layers_from_equations(tr, args):
    tr.counts["toriclayers.layers_from_equations.calls"] += 1
    if tr.stack and tr.stack[-1][0] == tr.name_id("toriclayers.build_layer_poset"):
        tr.counts["toriclayers.bfs.tried"] += 1


def _pre_axioms(tr, args):
    model = args[0]
    n = model.total_dimension()
    c = tr.counts
    c["morganmodel.axioms.triples"] += n ** 3
    c["morganmodel.axioms.pairs"] += n * n
    c["morganmodel.axioms.nonzero_pairs"] += sum(len(t) for t in model.products.values())


def _post_smith(tr, args, result):
    bits = max(_bits(args[0].rows), _bits(result.left.rows), _bits(result.right.rows),
               _bits([result.diag]))
    tr.counts["exactalg.smith.max_bits"] = max(tr.counts["exactalg.smith.max_bits"], bits)


def _post_layer_poset(tr, args, result):
    c = tr.counts
    c["toriclayers.layers"] += len(result.layers)
    c["toriclayers.covers"] += len(result.covers)
    c["toriclayers.bfs.new"] += len(result.layers) - 1


def _post_flat_lattice(tr, args, result):
    tr.counts["matroidos.flats"] += len(args[0].flats)


def _post_strata(tr, args, result):
    tr.counts["leraymodel.strata"] += len(result.strata)


def _post_build_model(tr, args, result):
    c = tr.counts
    c["morganmodel.model_dim_max"] = max(c["morganmodel.model_dim_max"], result.total_dimension())


def _counter(name):
    def pre(tr, args):
        tr.counts[name] += 1
    return pre


PRE = {
    "exactalg.Matrix.rref": _pre_rref,
    "exactalg.Matrix.solve": _counter("exactalg.solve.calls"),
    "exactalg.Matrix.__init__": _counter("exactalg.matrix.created"),
    "exactalg.smith_normal_form": _counter("exactalg.smith.calls"),
    "exactalg.hermite_basis": _counter("exactalg.hermite.calls"),
    "toriclayers.layers_from_equations": _pre_layers_from_equations,
    "toriclayers.layer_contains": _counter("toriclayers.layer_contains.calls"),
    "matroidos.AffinePoset.leq": _counter("matroidos.leq.calls"),
    "matroidos.FlatLattice.__init__": _counter("matroidos.flat_lattice.calls"),
    "matroidos.LinearMatroid.rank_of": _pre_rank_of,
    "morganmodel.verify_cdga_axioms": _pre_axioms,
}

POST = {
    "exactalg.smith_normal_form": _post_smith,
    "toriclayers.build_layer_poset": _post_layer_poset,
    "matroidos.FlatLattice.__init__": _post_flat_lattice,
    "leraymodel.strata_data_from_hyperplanes": _post_strata,
    "leraymodel.strata_data_from_toric": _post_strata,
    "morganmodel.build_model": _post_build_model,
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Spans and counters for the layers of one process.

    Between `begin_pass()` and `end_pass()` the tracer is active; outside
    them the wrappers call straight through, so checks made between
    passes leave no trace.  Only the spans of the first traced pass are
    kept, to bound memory; self times and counters of every pass are
    accumulated as spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.active = False
        self.keep_spans = False
        self.job = None
        self.counts = _Counts()
        self.self_time: dict[int, float] = {}
        self.total_time: dict[int, float] = {}
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- spans --------------------------------------------------------------

    def open(self, name_id: int, layer: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append(None)
        # frame: name id, layer, child time, span index, parent span index
        frame = [name_id, layer, 0.0, index, parent]
        self.stack.append(frame)
        return frame

    def close(self, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        name_id = frame[0]
        self.self_time[name_id] = self.self_time.get(name_id, 0.0) + duration - frame[2]
        self.total_time[name_id] = self.total_time.get(name_id, 0.0) + duration
        if self.stack:
            self.stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]] = (name_id, start, end, frame[4], self.job)

    def span(self, name: str):
        """Context manager for a span of the benchmark itself (layer `bench`)."""
        return _Span(self, self.name_id(name))

    # -- passes -------------------------------------------------------------

    def begin_pass(self, keep_spans: bool) -> None:
        self.counts = _Counts()
        self.self_time = {}
        self.total_time = {}
        self.keep_spans = keep_spans
        self.active = True

    def end_pass(self) -> dict:
        """Per-layer self times, per-name self and total times, and counters."""
        self.active = False
        self.keep_spans = False
        layers: dict[str, float] = {}
        for name_id, t in self.self_time.items():
            layer = self.names[name_id].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return {
            "layer_self": layers,
            "self": {self.names[i]: t for i, t in self.self_time.items()},
            "total": {self.names[i]: t for i, t in self.total_time.items()},
            "counts": dict(self.counts),
        }

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        name_id = self.name_id(name)
        always = name in ALWAYS
        pre = PRE.get(name)
        post = POST.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            stack = tracer.stack
            if not always and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = tracer.open(name_id, layer)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(frame, start, clock())
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _targets(self, layer, module):
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (layer, attr), None, attr, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in vars(obj).items():
                    if not inspect.isfunction(fn):
                        continue
                    if meth.startswith("_") and meth not in _DUNDERS:
                        continue
                    if meth == "__init__" and dataclasses.is_dataclass(obj):
                        continue
                    yield "%s.%s.%s" % (layer, attr, meth), obj, meth, fn

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "stratiform" or n.startswith("stratiform."))]
        for layer in LAYERS:
            module = sys.modules["stratiform." + layer]
            for name, cls, attr, fn in list(self._targets(layer, module)):
                if name in HOT_HELPERS:
                    continue
                wrapper = self._wrap(fn, name, layer)
                if cls is not None:
                    setattr(cls, attr, wrapper)
                    self._restore.append((cls, attr, fn))
                    continue
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, fn))

    def remove(self) -> None:
        """Put every original function back."""
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.frame = self.tracer.open(self.name_id, "bench")
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.close(self.frame, self.start, self.end)
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start
