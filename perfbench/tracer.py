"""Per-layer tracing of spraylab from outside the library.

The tracer replaces public functions at the module attribute where their
caller looks them up (``approx.track_eta`` is the name ``approximate``
calls), and wraps the callables the benchmark passes in: the spray's
``eval_many``, the matrix maps and the maps handed to the degree oracles.
Nothing under ``src/`` changes.

Two kinds of wrapper:

- a *span* records name, start, end, parent span and job for every call;
  it is meant for calls made a few times per job;
- a *leaf* only sums calls, rows and seconds per name, for per-point hot
  loops (Cayley transforms, tangent frames) where a span per call would
  cost more than the work it times.

Both add their duration to the enclosing span, so a span's self time is its
duration minus the time of the wrapped calls made directly inside it.
Everything is held in memory; :meth:`Tracer.dump` hands it out at the end.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from time import perf_counter

from workloads import Hooks

# (module, attribute) -> span name.  Call sites the benchmark itself uses are
# included, because the benchmark calls through the module attribute too.
SPANS = {
    ("approx", "approximate"): "approx.approximate",
    ("approx", "track_eta"): "approx.track",
    ("approx", "fit_polynomial"): "approx.fit",
    ("approx", "approximation_error"): "approx.error",
    ("approx", "solve_fiber_many"): "sprays.solve",
    ("degree", "sphere_degree"): "degree.sphere_degree",
    ("degree", "unitary_degree"): "degree.unitary_degree",
    ("degree", "compress_to_k_block"): "degree.compress",
    ("degree", "preimage_count_degree"): "degree.preimage",
    ("degree", "winding_number"): "degree.winding",
    ("degree", "verify_ak_identities"): "degree.ak_identities",
    ("sprays", "verify_spray_axioms"): "sprays.verify_axioms",
    ("sprays", "verify_dominating"): "sprays.verify_dominating",
    ("sprays", "probe_injectivity_radius"): "sprays.probe",
    ("serialize", "dumps_canonical"): "serialize.dumps",
}

# (module, attribute) -> leaf name.
LEAVES = {
    ("sprays", "cayley_many"): "geometry.cayley",
    ("sampling", "cayley_many"): "geometry.cayley",
    ("sprays", "variety_tangent_frame"): "geometry.frame",
    ("sprays", "shrink_map"): "geometry.shrink",
    ("approx", "sphere_quasi_uniform"): "sampling",
    ("degree", "sphere_quasi_uniform"): "sampling",
    ("degree", "sphere_quasi_uniform_complex"): "sampling",
    ("sprays", "sample_variety"): "sampling",
    ("sprays", "sample_fiber"): "sampling",
}

# Per-layer metrics: name -> unit.  BENCHMARK.json lists the same names.
# Times are seconds summed over one traced pass of the job list and counts
# are totals over that pass; approx.fit.degree is the mean fitted degree and
# approx.c0_over_target the worst job's c0 over its target.
METRICS = {
    "approx.fit_s": "s",
    "approx.error_s": "s",
    "approx.fit.degree": "degree",
    "approx.fit.degrees_tried": "count",
    "approx.fit.columns": "count",
    "approx.track_s": "s",
    "approx.track.solve_calls": "count",
    "approx.track.intervals": "count",
    "approx.track.yield": "ratio",
    "approx.self_s": "s",
    "approx.c0_over_target": "ratio",
    "sprays.solve_s": "s",
    "sprays.eval_calls": "count",
    "sprays.eval_rows": "count",
    "sprays.rows_per_call": "rows/call",
    "sprays.eval_rows_per_point": "rows/point",
    "sprays.verify_axioms_s": "s",
    "sprays.verify_dominating_s": "s",
    "sprays.probe_s": "s",
    "geometry.cayley_s": "s",
    "geometry.cayley_calls": "count",
    "geometry.cayley_rows_per_call": "rows/call",
    "geometry.frame_s": "s",
    "geometry.frame_calls": "count",
    "geometry.shrink_s": "s",
    "geometry.shrink_calls": "count",
    "degree.compress_s": "s",
    "degree.preimage_s": "s",
    "degree.winding_s": "s",
    "degree.map_calls": "count",
    "degree.map_rows": "count",
    "degree.map_rows_per_start": "rows/start",
    "degree.converged_ratio": "ratio",
    "degree.preimages": "count",
    "degree.redraws": "count",
    "degree.ak_identities_s": "s",
    "sampling.s": "s",
    "serialize.dumps_s": "s",
    "serialize.report_bytes": "bytes",
    "setup.import_s": "s",
    "setup.calibration_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics each workload must drive above zero.  A refactor that
# renames or bypasses a wrapped function would otherwise silently zero a layer.
REQUIRED = {
    "pipeline-exact": ("approx.fit.columns", "approx.track.solve_calls", "sprays.eval_calls",
                       "degree.map_calls", "degree.winding_s", "degree.preimage_s", "sampling.s",
                       "serialize.report_bytes"),
    "pipeline-newton": ("approx.fit.columns", "approx.track.solve_calls", "sprays.eval_calls",
                        "geometry.cayley_calls", "degree.map_calls", "degree.preimage_s",
                        "serialize.report_bytes"),
    "degree-unitary": ("degree.compress_s", "degree.map_calls", "degree.preimage_s", "sampling.s",
                       "serialize.report_bytes"),
    "verify-sprays": ("sprays.verify_axioms_s", "sprays.verify_dominating_s", "sprays.probe_s",
                      "geometry.frame_calls", "geometry.shrink_calls", "geometry.cayley_calls",
                      "degree.ak_identities_s", "serialize.report_bytes"),
}


def check_required(workload: str, metrics: dict) -> None:
    """Fail loudly when a layer the workload must load reads zero."""
    zero = [name for name in REQUIRED[workload] if not metrics[name]["value"]]
    if zero:
        raise RuntimeError(f"{workload}: traced metrics stayed at zero: {', '.join(zero)}")


def _batch_rows(a) -> int:
    # Rows of a batched (N, ...) argument; a single point counts as one row.
    shape = getattr(a, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def _matrix_rows(a) -> int:
    # Matrices in a stacked (..., m, m) argument.
    return int(math.prod(getattr(a, "shape", ())[:-2]))


def _monomials(n_vars: int, degree: int) -> int:
    # Number of monomials of total degree <= degree in n_vars variables.
    return math.comb(n_vars + degree, degree)


class Tracer(Hooks):
    """In-memory spans, leaf aggregates and counters for one traced pass."""

    def __init__(self):
        self.spans = []  # dicts: name, job, parent, start, end, child_s
        self.stack = []
        self.leaves = defaultdict(lambda: {"calls": 0, "rows": 0, "s": 0.0})
        self.counters = defaultdict(float)
        self.job = None
        self._leaf_depth = 0
        self._saved = []

    # -- wrappers --------------------------------------------------------

    def _close(self, t0: float) -> float:
        dt = perf_counter() - t0
        if self.stack:
            self.spans[self.stack[-1]]["child_s"] += dt
        return dt

    def span(self, name: str, fn, observe=None):
        def wrapped(*args, **kwargs):
            rec = {"name": name, "job": self.job, "parent": self.stack[-1] if self.stack else None,
                   "start": 0.0, "end": 0.0, "child_s": 0.0}
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            result, error = None, None
            rec["start"] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                rec["end"] = perf_counter()
                self.stack.pop()
                self._close(t0)
                if observe is not None:
                    observe(self, args, kwargs, result, error)

        return wrapped

    def leaf(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf_depth -= 1
                # A leaf inside a leaf (sampling calls Cayley) is already in the outer one.
                dt = self._close(t0) if not self._leaf_depth else perf_counter() - t0
                agg = self.leaves[name]
                agg["calls"] += 1
                agg["s"] += dt
                if name == "geometry.cayley":
                    agg["rows"] += _matrix_rows(args[0])

        return wrapped

    def counting(self, prefix: str, fn):
        """Count calls and rows of a callable the benchmark passes in (untimed)."""

        def wrapped(*args, **kwargs):
            self.counters[prefix + "_calls"] += 1
            self.counters[prefix + "_rows"] += _batch_rows(args[0])
            return fn(*args, **kwargs)

        return wrapped

    # -- hooks the jobs call ---------------------------------------------

    def spray(self, spray):
        return dataclasses.replace(spray, eval_many=self.counting("sprays.eval", spray.eval_many))

    def matrix_map(self, f):
        return dataclasses.replace(f, eval_many=self.counting("degree.map", f.eval_many))

    def map(self, fn):
        return self.counting("degree.map", fn)

    # -- installation ----------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every listed name; a name that has disappeared fails loudly."""
        table = [(key, name, "span") for key, name in SPANS.items()]
        table += [(key, name, "leaf") for key, name in LEAVES.items()]
        for (module, attr), name, kind in table:
            mod = getattr(lib, module)
            original = getattr(mod, attr, None)
            if not callable(original):
                self.uninstall()
                raise RuntimeError(f"traced name spraylab.{module}.{attr} no longer exists")
            if kind == "span":
                wrapped = self.span(name, original, _OBSERVERS.get(name))
            else:
                wrapped = self.leaf(name, original)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        """Inclusive seconds, self seconds and call counts per span name."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            agg = out[rec["name"]]
            agg["s"] += dur
            agg["self_s"] += dur - rec["child_s"]
            agg["calls"] += 1
        return out

    def metrics(self, setup: dict, overhead_s: float) -> dict:
        # totals() and the leaf and counter tables are defaultdicts: an absent
        # layer reads as zero.
        spans, leaves, c = self.totals(), self.leaves, self.counters
        solves = spans["sprays.solve"]["calls"]

        def s(name):
            return spans[name]["s"]

        def ratio(num, den):
            return num / den if den else 0.0

        fits = c["approx.fit.fits"]
        starts = c["degree.starts_run"]
        values = {
            "approx.fit_s": s("approx.fit"),
            "approx.error_s": s("approx.error"),
            "approx.fit.degree": ratio(c["approx.fit.degree_sum"], fits),
            "approx.fit.degrees_tried": c["approx.fit.degrees_tried"],
            "approx.fit.columns": c["approx.fit.columns"],
            "approx.track_s": s("approx.track"),
            "approx.track.solve_calls": solves,
            "approx.track.intervals": c["approx.track.intervals"],
            "approx.track.yield": ratio(c["approx.track.intervals"], solves),
            "approx.self_s": spans["approx.approximate"]["self_s"],
            "approx.c0_over_target": c["approx.c0_over_target_max"],
            "sprays.solve_s": s("sprays.solve"),
            "sprays.eval_calls": c["sprays.eval_calls"],
            "sprays.eval_rows": c["sprays.eval_rows"],
            "sprays.rows_per_call": ratio(c["sprays.eval_rows"], c["sprays.eval_calls"]),
            "sprays.eval_rows_per_point": ratio(c["sprays.eval_rows"], c["approx.grid_points"]),
            "sprays.verify_axioms_s": s("sprays.verify_axioms"),
            "sprays.verify_dominating_s": s("sprays.verify_dominating"),
            "sprays.probe_s": s("sprays.probe"),
            "geometry.cayley_s": leaves["geometry.cayley"]["s"],
            "geometry.cayley_calls": leaves["geometry.cayley"]["calls"],
            "geometry.cayley_rows_per_call": ratio(leaves["geometry.cayley"]["rows"],
                                                   leaves["geometry.cayley"]["calls"]),
            "geometry.frame_s": leaves["geometry.frame"]["s"],
            "geometry.frame_calls": leaves["geometry.frame"]["calls"],
            "geometry.shrink_s": leaves["geometry.shrink"]["s"],
            "geometry.shrink_calls": leaves["geometry.shrink"]["calls"],
            "degree.compress_s": s("degree.compress"),
            "degree.preimage_s": s("degree.preimage"),
            "degree.winding_s": s("degree.winding"),
            "degree.map_calls": c["degree.map_calls"],
            "degree.map_rows": c["degree.map_rows"],
            "degree.map_rows_per_start": ratio(c["degree.map_rows"], starts),
            "degree.converged_ratio": ratio(c["degree.converged"], c["degree.starts"]),
            "degree.preimages": c["degree.preimages"],
            "degree.redraws": c["degree.redraws"],
            "degree.ak_identities_s": s("degree.ak_identities"),
            "sampling.s": leaves["sampling"]["s"],
            "serialize.dumps_s": s("serialize.dumps"),
            "serialize.report_bytes": c["serialize.report_bytes"],
            "setup.import_s": setup["import_s"],
            "setup.calibration_s": setup["calibration_s"],
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in METRICS.items()}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": dict(self.leaves),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# Observers: counters read from the arguments and results of spanned calls
# ---------------------------------------------------------------------------


def _observe_fit(tracer, args, kwargs, result, error):
    spec = result if error is None else getattr(error, "best", None)
    if spec is None:
        return
    c = tracer.counters
    tried = len(spec.fit_rms_curve)
    c["approx.fit.fits"] += 1
    c["approx.fit.degree_sum"] += spec.degree
    c["approx.fit.degrees_tried"] += tried
    c["approx.fit.columns"] += sum(_monomials(spec.input_dim, d) for d in range(1, tried + 1))


def _observe_track(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counters["approx.track.intervals"] += len(result.partition) - 1


def _observe_approximate(tracer, args, kwargs, result, error):
    if result is None:
        return
    c = tracer.counters
    c["approx.grid_points"] += result.config["grid_size"]
    ratio = result.c0 / result.config["target_c0"]
    c["approx.c0_over_target_max"] = max(c["approx.c0_over_target_max"], ratio)


def _observe_preimage(tracer, args, kwargs, result, error):
    if result is None:
        return
    c = tracer.counters
    c["degree.starts"] += result.n_starts
    # Two regular values are searched, plus one search per redraw.
    c["degree.starts_run"] += result.n_starts * (2 + result.redraws)
    c["degree.converged"] += sum(result.basin_counts)
    c["degree.preimages"] += len(result.preimages)
    c["degree.redraws"] += result.redraws


def _observe_dumps(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counters["serialize.report_bytes"] += len(result.encode())


_OBSERVERS = {
    "approx.fit": _observe_fit,
    "approx.track": _observe_track,
    "approx.approximate": _observe_approximate,
    "degree.preimage": _observe_preimage,
    "serialize.dumps": _observe_dumps,
}
