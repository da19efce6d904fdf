"""Spans around calls into polyelast's layer functions, recorded from outside
the program.

A traced round replaces, for its duration, every reference that a polyelast
module holds to one of the layer functions in `layer_targets` with a wrapper
that records a span (name, start, end, parent, rise of the peak RSS, counts);
`patch_references` does the replacing, and the workloads use it too to time
mesh builds and keep the results they check.
The program therefore makes exactly the calls it makes untraced; calls that
one layer function makes into another become child spans.  A layer's self
time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (ru_maxrss is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_modules() -> list:
    """The polyelast package and every submodule imported so far."""
    return [m for name, m in sys.modules.items()
            if name == "polyelast" or name.startswith("polyelast.")]


@contextmanager
def patch_references(hooks):
    """Until the block exits, route every reference that a polyelast module
    holds to the function `module.attr` through
    `hook(original, *args, **kwargs)`, for each (module, attr) -> hook."""
    modules = program_modules()
    replaced = []
    try:
        for (module, attr), hook in hooks.items():
            original = getattr(module, attr)
            wrapper = functools.partial(hook, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, value in reversed(replaced):
            setattr(mod, key, value)


class Tracer:
    """Spans kept in memory; `spans` is written out when the round ends.
    `overhead_s` sums the time the span hooks spend on their own bookkeeping
    (stack, span records, peak-RSS reads) outside the calls they wrap."""

    def __init__(self):
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def hook(self, name, around=None):
        def traced(fn, *args, **kwargs):
            entered = time.perf_counter()
            index = len(self.spans)
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "attrs": {}}
            self.spans.append(span)
            self._stack.append(index)
            rss_before = peak_rss_mb()
            span["start"] = time.perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, span["attrs"], *args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_rise_mb"] = peak_rss_mb() - rss_before
                self._stack.pop()
                self.overhead_s += (span["start"] - entered
                                    + time.perf_counter() - span["end"])

        return traced

    def patched(self, targets):
        """Record a span around every call to the `targets` of
        `layer_targets` until the block exits."""
        return patch_references({key: self.hook(name, around)
                                 for key, (name, around) in targets.items()})


# -- counts taken at the layer boundaries ------------------------------------


def _count_reduce(fn, attrs, *args, **kwargs):
    system = fn(*args, **kwargs)
    attrs["nnz"] = int(system.matrix.nnz)
    attrs["free_dofs"] = int(system.n_free)
    return system


def _count_solve(fn, attrs, *args, **kwargs):
    result = fn(*args, **kwargs)
    attrs["iterations"] = int(result.iterations)
    return result


def _count_interpolate(fn, attrs, mesh, dofmap, field, *args, **kwargs):
    # the field is evaluated once at the vertices and once at every face
    # quadrature point of the bubble moments
    evaluated = [0]

    def counted(points):
        evaluated[0] += len(points)
        return field(points)

    func = fn(mesh, dofmap, counted, *args, **kwargs)
    attrs["face_points"] = evaluated[0] - mesh.n_vertices
    return func


def _count_vtk(fn, attrs, path, *args, **kwargs):
    fn(path, *args, **kwargs)
    attrs["bytes"] = os.path.getsize(path)


def layer_targets(pe):
    """(module, function name) -> (span name, counting hook) for the
    polyelast package `pe`."""
    return {
        (pe.mesh, "generate_structured_mesh"): ("mesh.build", None),
        (pe.mesh, "parse_polymesh"): ("mesh.build", None),
        (pe.mesh, "validate_mesh"): ("mesh.validate", None),
        (pe.assembly, "assemble"): ("assembly.assemble", None),
        (pe.assembly, "assemble_matrix"): ("assembly.matrix", None),
        (pe.assembly, "assemble_load"): ("assembly.load", None),
        (pe.assembly, "dirichlet_lifting"): ("assembly.lifting", None),
        (pe.assembly, "reduce_system"): ("assembly.reduce", _count_reduce),
        (pe.solver, "solve_spd"): ("solver.cg", _count_solve),
        (pe.space, "interpolate"): ("space.interpolate", _count_interpolate),
        (pe.analysis, "relative_error"): ("analysis.error", None),
        (pe.analysis, "run_convergence_study"): ("analysis.study", None),
        (pe.cli, "run_check_suite"): ("cli.check_suite", None),
        (pe.vtk_io, "write_vtk"): ("vtk_io.write", _count_vtk),
    }


# per-layer metric -> (span name, what to sum over the round's spans, unit)
LAYER_METRICS = {
    "mesh.build_s": ("mesh.build", "self", "s"),
    "mesh.build_rss_mb": ("mesh.build", "rss", "MB"),
    "mesh.validate_s": ("mesh.validate", "self", "s"),
    "assembly.matrix_s": ("assembly.matrix", "self", "s"),
    "assembly.matrix_rss_mb": ("assembly.matrix", "rss", "MB"),
    "assembly.load_s": ("assembly.load", "self", "s"),
    "assembly.lifting_s": ("assembly.lifting", "self", "s"),
    "assembly.reduce_s": ("assembly.reduce", "self", "s"),
    "assembly.nnz": ("assembly.reduce", "nnz", "count"),
    "assembly.free_dofs": ("assembly.reduce", "free_dofs", "count"),
    "solver.cg_s": ("solver.cg", "self", "s"),
    "solver.iterations": ("solver.cg", "iterations", "count"),
    "space.interpolate_s": ("space.interpolate", "self", "s"),
    "space.interpolate_rss_mb": ("space.interpolate", "rss", "MB"),
    "quadrature.face_points": ("space.interpolate", "face_points", "count"),
    "analysis.error_s": ("analysis.error", "self", "s"),
    "cli.check_suite_s": ("cli.check_suite", "self", "s"),
    "vtk_io.write_s": ("vtk_io.write", "self", "s"),
    "vtk_io.bytes": ("vtk_io.write", "bytes", "bytes"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum self time, peak-RSS rise and counts per span name; a layer the
    round never called reads 0."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        name = span["name"]
        totals[(name, "self")] += span["end"] - span["start"] - child_time[index]
        totals[(name, "rss")] += span["rss_rise_mb"]
        for key, value in span["attrs"].items():
            totals[(name, key)] += value
    return {metric: int(totals[(name, field)]) if unit in ("count", "bytes")
            else totals[(name, field)]
            for metric, (name, field, unit) in LAYER_METRICS.items()}
