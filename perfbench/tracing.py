"""Outside-in tracing of the solver's layers.

The package imports its functions by name (``from .rotation import
evolve_step``), so a call is seen only where its caller looks the name up:
``sllgfem.scheme.evolve_step`` is the step loop's rotation step and
``sllgfem.reconstruct.evolve_step`` the weak residual's replay, while
wrapping ``sllgfem.rotation.evolve_step`` would see neither. Each target
below names the module a caller looks the function up in.

Spans stay in memory. A span's self time is its duration minus the
durations of its direct child spans. A target whose name no longer exists
is reported as absent and its spans read zero.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (module a caller looks the name up in, attribute, span name)
TARGETS = (
    ("sllgfem.studies", "run", "scheme.run"),
    ("sllgfem.scheme", "build_tangent_frame", "scheme.frame"),
    ("sllgfem.scheme", "assemble_step_system", "scheme.assembly"),
    ("sllgfem.scheme", "assemble_rotated_stiffness", "rotation.kz_assembly"),
    ("sllgfem.scheme", "solve_step", "scheme.solve"),
    ("sllgfem.scheme", "advance", "scheme.advance"),
    ("sllgfem.scheme", "evolve_step", "rotation.evolve"),
    ("sllgfem.scheme", "init_rotation_field", "rotation.init"),
    ("sllgfem.reconstruct", "init_rotation_field", "rotation.init"),
    ("sllgfem.reconstruct", "evolve_step", "rotation.replay"),
    ("sllgfem.studies", "weak_residual", "reconstruct.weak_residual"),
    ("sllgfem.studies", "interpolant_errors",
     "reconstruct.interpolant_errors"),
    ("sllgfem.studies", "energy_inequality_gaps", "scheme.energy_gaps"),
    ("sllgfem.studies", "write_vtk", "vtkio.write"),
    ("sllgfem.studies", "sample_path", "wiener.path"),
    ("sllgfem.studies", "coarsen", "wiener.path"),
    ("sllgfem.config", "build_structured_mesh", "mesh.build"),
    ("sllgfem.config", "P1Space", "fem.space"),
    ("sllgfem.fem", "assemble_stiffness", "fem.space"),
    ("sllgfem.fem", "assemble_lumped_mass", "fem.space"),
)


class Tracer:
    """In-memory spans and counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self._stack = []

    @contextmanager
    def span(self, name):
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.total[name] += duration
            self.calls[name] += 1
            if self._stack:
                self.child[self._stack[-1]] += duration

    def self_time(self, name):
        return self.total[name] - self.child[name]

    def _observe(self, name, args, result):
        if name == "scheme.solve":
            matrix = args[0].matrix
            self.counts["solve_iters"] += int(result.iterations)
            self.peaks["step_unknowns"] = max(self.peaks["step_unknowns"],
                                              matrix.shape[0])
            self.peaks["step_nnz"] = max(self.peaks["step_nnz"], matrix.nnz)
        elif name == "vtkio.write":
            self.counts["vtk_bytes"] += os.path.getsize(args[0])

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result
        return traced


@contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block; yields the list
    of absent targets as "module.attribute" strings."""
    saved, absent = [], []
    for module_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(fn, name))
    try:
        yield absent
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced study (times in s unless named)."""
    t, calls = tracer.total, tracer.calls
    steps = calls["scheme.solve"]
    evolve_calls = calls["rotation.evolve"] + calls["rotation.replay"]
    return {
        "scheme.solve_s": t["scheme.solve"],
        "scheme.solve_iters": tracer.counts["solve_iters"],
        "scheme.steps": steps,
        "scheme.step_unknowns": tracer.peaks["step_unknowns"],
        "scheme.step_nnz": tracer.peaks["step_nnz"],
        "scheme.step_ms": 1e3 * _ratio(t["scheme.run"], steps),
        "scheme.frame_s": t["scheme.frame"],
        "scheme.assembly_self_s": tracer.self_time("scheme.assembly"),
        "scheme.advance_s": t["scheme.advance"],
        "scheme.energy_gaps_s": t["scheme.energy_gaps"],
        "scheme.loop_self_s": tracer.self_time("scheme.run"),
        "rotation.kz_assembly_s": t["rotation.kz_assembly"],
        "rotation.evolve_s": t["rotation.evolve"],
        "rotation.replay_s": t["rotation.replay"],
        "rotation.init_s": t["rotation.init"],
        "rotation.evolve_calls": evolve_calls,
        "rotation.evolve_per_step": _ratio(evolve_calls, steps),
        "reconstruct.weak_residual_self_s":
            tracer.self_time("reconstruct.weak_residual"),
        "reconstruct.interpolant_errors_s":
            t["reconstruct.interpolant_errors"],
        "vtkio.write_s": t["vtkio.write"],
        "vtkio.files": calls["vtkio.write"],
        "vtkio.bytes": tracer.counts["vtk_bytes"],
        "mesh.build_s": t["mesh.build"],
        "mesh.build_calls": calls["mesh.build"],
        "fem.space_s": t["fem.space"],
        "wiener.path_s": t["wiener.path"],
        "config.load_s": t["config.load"],
        "studies.self_s": tracer.self_time("studies.study"),
    }
