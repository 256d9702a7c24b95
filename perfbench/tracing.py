"""Span tracing of biotfs from outside the package.

`install` replaces the public functions of the mesh, assembly, linalg,
spectral, solver and experiment layers with wrappers that record one span
per call: (name, start, end, parent index, note). A function is replaced
everywhere it is looked up, i.e. in every loaded `biotfs` module whose
namespace holds the same object (`from .spectral import schur_apply` makes a
second binding in `biotfs.solver`). `Factorization.solve` is replaced on the
class. Spans are kept in memory; `Tracer.dump` writes them once at exit.

`layer_metrics` turns a span list into the per-layer metrics of the
benchmark, including self times (a span's duration minus the part of it its
children cover).
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# (module, attribute, span name); the span name is "<layer>.<function>".
FUNCTIONS = (
    ("biotfs.cli", "main", "experiment.main"),
    ("biotfs.experiment", "estimate_report", "experiment.estimate_report"),
    ("biotfs.experiment", "solve_report", "experiment.solve_report"),
    ("biotfs.experiment", "sweep_report", "experiment.sweep_report"),
    ("biotfs.mesh", "build_structured_mesh", "mesh.build_structured_mesh"),
    ("biotfs.mesh", "build_taylor_hood_dofs", "mesh.build_taylor_hood_dofs"),
    ("biotfs.assembly", "build_system", "assembly.build_system"),
    ("biotfs.assembly", "assemble_elasticity", "assembly.assemble_elasticity"),
    ("biotfs.assembly", "assemble_coupling", "assembly.assemble_coupling"),
    ("biotfs.assembly", "assemble_pressure_mass", "assembly.assemble_pressure_mass"),
    ("biotfs.assembly", "assemble_divdiv", "assembly.assemble_divdiv"),
    ("biotfs.assembly", "apply_boundary_conditions", "assembly.apply_boundary_conditions"),
    ("biotfs.assembly", "assemble_momentum_load", "assembly.assemble_momentum_load"),
    ("biotfs.assembly", "assemble_source_moment", "assembly.assemble_source_moment"),
    ("biotfs.linalg", "factorize", "linalg.factorize"),
    ("biotfs.linalg", "m_norm", "linalg.m_norm"),
    ("biotfs.spectral", "estimate_spectrum", "spectral.estimate_spectrum"),
    ("biotfs.spectral", "schur_apply", "spectral.schur_apply"),
    ("biotfs.solver", "time_march", "solver.time_march"),
    ("biotfs.solver", "fixed_stress_solve", "solver.fixed_stress_solve"),
    ("biotfs.solver", "fixed_stress_step", "solver.fixed_stress_step"),
)
SOLVE_SPAN = "linalg.Factorization.solve"


def _note_system(args, kwargs, out):
    return {"n_u": out.n_u, "n_p": out.n_p}


def _note_estimate(args, kwargs, out):
    return {"power_steps": sum(out.iterations_used or (0, 0))}


def _note_splitting(args, kwargs, out):
    return {"iterations": out[2].iterations}


def _note_solve(args, kwargs, out):
    return {"size": args[0].shape[0], "columns": 1 if out.ndim == 1 else out.shape[1]}


NOTES = {
    "assembly.build_system": _note_system,
    "spectral.estimate_spectrum": _note_estimate,
    "solver.fixed_stress_solve": _note_splitting,
    SOLVE_SPAN: _note_solve,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, note or None]
        self.factors = []
        self._stack = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        keep_factor = name == "linalg.factorize"
        spans, stack, factors = self.spans, self._stack, self.factors

        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if note is not None:
                record[4] = note(args, kwargs, out)
            if keep_factor:
                factors.append(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def nnz_lu(self):
        """L+U nonzeros of the largest factor (the elasticity block A).

        Building `L` and `U` copies the factor, so call this only after
        the traced operation has ended.
        """
        if not self.factors:
            return None
        lu = max(self.factors, key=lambda f: f.shape[0])._lu
        return int(lu.L.nnz + lu.U.nnz)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "nnz_lu": self.nnz_lu()}, fh, separators=(",", ":"))


def _rebind(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "biotfs" or name.startswith("biotfs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in FUNCTIONS and `Factorization.solve`."""
    import importlib

    import biotfs.cli  # noqa: F401  (loads every layer)
    from biotfs.linalg import Factorization

    for module_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, tracer.wrap(span, original))
    Factorization.solve = tracer.wrap(SOLVE_SPAN, Factorization.solve)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Duration minus the union of the child intervals, per span."""
    covered = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), children in zip(spans, covered):
        busy, reach = 0.0, start
        for c_start, c_end in sorted(children):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                busy += c_end - c_start
                reach = c_end
        out.append((end - start) - busy)
    return out


def check_nesting(spans):
    """Raise ValueError unless every span lies inside its parent."""
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            if parent >= i:
                raise ValueError(f"span {i} ({name}) has a later parent")
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                raise ValueError(f"span {i} ({name}) leaves its parent")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, nnz_lu=None):
    """Per-layer metrics of one traced operation (times in s unless *_ms)."""
    self_s = self_times(spans)
    total, self_total, durations, calls, notes = {}, {}, {}, {}, {}
    for (name, start, end, _, note), own in zip(spans, self_s):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)
        calls[name] = calls.get(name, 0) + 1
        if note:
            notes.setdefault(name, []).append(note)

    def t(name):
        return total.get(name, 0.0)

    # Factor solves are keyed by size: the assembled system tells which
    # size belongs to A (displacements) and which to Mp (pressures).
    label = {}
    for note in notes.get("assembly.build_system", []):
        label[note["n_u"]] = "a_solve"
        label[note["n_p"]] = "m_solve"
    solves = {"a_solve": [], "m_solve": []}
    columns = {"a_solve": 0, "m_solve": 0}
    for name, start, end, _, note in spans:
        if name == SOLVE_SPAN and note and note["size"] in label:
            kind = label[note["size"]]
            solves[kind].append(end - start)
            columns[kind] += note["columns"]

    splitting = notes.get("solver.fixed_stress_solve", [])
    iterations = sum(n["iterations"] for n in splitting)
    metrics = {
        "mesh.build_s": t("mesh.build_structured_mesh") + t("mesh.build_taylor_hood_dofs"),
        "assembly.elasticity_s": t("assembly.assemble_elasticity"),
        "assembly.coupling_s": t("assembly.assemble_coupling"),
        "assembly.pressure_mass_s": t("assembly.assemble_pressure_mass"),
        "assembly.divdiv_s": t("assembly.assemble_divdiv"),
        "assembly.reduce_s": t("assembly.apply_boundary_conditions"),
        "assembly.step_loads_s": t("assembly.assemble_momentum_load")
        + t("assembly.assemble_source_moment"),
        "assembly.step_loads.calls": calls.get("assembly.assemble_momentum_load", 0),
        "linalg.factorize_s": t("linalg.factorize"),
        "linalg.factorize.calls": calls.get("linalg.factorize", 0),
        "linalg.nnz_lu": nnz_lu if nnz_lu is not None else 0,
        "linalg.m_norm.calls": calls.get("linalg.m_norm", 0),
        "linalg.m_norm_s": t("linalg.m_norm"),
        "spectral.estimate_s": t("spectral.estimate_spectrum"),
        "spectral.schur_apply.calls": calls.get("spectral.schur_apply", 0),
        "spectral.schur_apply_s": t("spectral.schur_apply"),
        "spectral.power_steps": sum(
            n["power_steps"] for n in notes.get("spectral.estimate_spectrum", [])
        ),
        "solver.march_s": t("solver.time_march"),
        "solver.march_max_s": max(durations.get("solver.time_march", [0.0])),
        "solver.iterations": iterations,
        "solver.iterations_per_step": iterations / len(splitting) if splitting else 0.0,
        "solver.self_s": self_total.get("solver.fixed_stress_solve", 0.0)
        + self_total.get("solver.fixed_stress_step", 0.0),
        "experiment.self_s": sum(
            own for name, own in self_total.items() if name.startswith("experiment.")
        ),
    }
    for kind in ("a_solve", "m_solve"):
        metrics[f"linalg.{kind}.calls"] = len(solves[kind])
        metrics[f"linalg.{kind}.columns"] = columns[kind]
        metrics[f"linalg.{kind}_s"] = sum(solves[kind])
        metrics[f"linalg.{kind}_ms"] = 1e3 * _median(solves[kind])
    return metrics
