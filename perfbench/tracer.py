"""Span tracer for the rodsim benchmark.

The tracer wraps rodsim's functions at the attribute their caller looks up
(``from .rod_model import energy`` in ``integrators`` means the call goes
through ``rodsim.integrators.energy``), so no file under ``src/rodsim``
changes. Each call becomes one span ``(id, parent, name, pid, start, end,
extra)`` held in memory. ``extra`` is a per-call figure a layer reports on
top of its time: bytes returned by a serializer, or 1 for a rod that went
unstable.

Carpet rods run in forked pool workers. A worker inherits the wrappers and
the parent's span stack, so its spans name the parent's ``run_carpet`` span
as their parent. After each rod job a worker writes the spans it recorded to
a spool file; the parent reads them back with ``collect_spool``.

A span's self time is its duration minus the part of it its children cover;
for ``run_carpet`` that leaves pool start-up, shipping frames back and the
merge, the time no worker is running a rod.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, layer). The module is the caller's, see the docstring.
FUNCTION_TARGETS = [
    ("rodsim.cli", "run_scenario", "scenarios.run_scenario"),
    ("rodsim.scenarios", "run_cilium", "scenarios.run_cilium"),
    ("rodsim.scenarios", "run_carpet", "scenarios.run_carpet"),
    ("rodsim.scenarios", "_rod_job", "scenarios._rod_job"),
    ("rodsim.scenarios", "simulate_rod", "scenarios.simulate_rod"),
    ("rodsim.scenarios", "step_semi_analytic", "integrators.step_semi_analytic"),
    ("rodsim.scenarios", "step_pure_numeric", "integrators.step_pure_numeric"),
    ("rodsim.scenarios", "lift", "integrators.lift"),
    ("rodsim.integrators", "lift", "integrators.lift"),
    ("rodsim.integrators", "project", "integrators.project"),
    ("rodsim.integrators", "solve_contact_force", "rod_model.solve_contact_force"),
    ("rodsim.rod_model", "solve_block_tridiag", "grid_fields.solve_block_tridiag"),
    ("rodsim.integrators", "energy", "rod_model.energy"),
    ("rodsim.rod_model", "energy", "rod_model.energy"),
    ("rodsim.scenarios", "reconstruct_centerline", "rod_model.reconstruct_centerline"),
    ("rodsim.cli", "build_report", "verify.build_report"),
    ("rodsim.verify", "family_residuals", "verify.family_residuals"),
    ("rodsim.verify", "reduction_chain_residuals", "verify.reduction_chain_residuals"),
    ("rodsim.verify", "sample_state", "solution_family.sample_state"),
    ("rodsim.solution_family", "evaluate_family", "solution_family.evaluate_family"),
    ("rodsim.solution_family", "find_root", "grid_fields.find_root"),
    ("rodsim.verify", "reconstruct_potentials", "reduction.reconstruct_potentials"),
    ("rodsim.verify", "potential_system_residuals", "reduction.potential_system_residuals"),
    ("rodsim.verify", "extract_speed_profile", "reduction.extract_speed_profile"),
    ("rodsim.verify", "developable_residuals", "reduction.developable_residuals"),
]

# (module, class, method, layer). Looked up through the class by every caller.
METHOD_TARGETS = [
    ("rodsim.scenarios", "Trajectory", "to_json", "scenarios.Trajectory.to_json"),
    ("rodsim.scenarios", "Trajectory", "to_csv", "scenarios.Trajectory.to_csv"),
    ("rodsim.scenarios", "ScenarioConfig", "from_json", "scenarios.ScenarioConfig.from_json"),
]

EXTRA = {
    "scenarios.Trajectory.to_json": len,
    "scenarios.Trajectory.to_csv": len,
    "scenarios.simulate_rod": lambda result: 0 if result[1] else 1,
}

# The function a pool worker runs per rod; its wrapper spools the worker's spans.
WORKER_ENTRY = "scenarios._rod_job"

_ID_SHIFT = 32


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spans = []
        self.missing = []
        self._stack = []
        self._count = 0
        self._owner = os.getpid()
        self._restore = []

    def _open(self):
        pid = os.getpid()
        self._count += 1
        sid = (pid << _ID_SHIFT) | self._count
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, pid

    def _close(self, opened, layer, start, extra):
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, pid = opened
        self.spans.append((sid, parent, layer, pid, start, end, extra))

    def _wrap(self, fn, layer):
        measure = EXTRA.get(layer)
        spool = layer == WORKER_ENTRY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = len(self.spans)
            extra = 0
            opened = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    extra = measure(result)
                return result
            finally:
                # Also on an exception: run_carpet raises for an unstable rod.
                self._close(opened, layer, start, extra)
                if spool and opened[2] != self._owner:
                    self._spool(opened, self.spans[mark:])
                    del self.spans[mark:]

        return wrapper

    def _spool(self, opened, spans):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"{opened[2]}-{self._count}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(spans))
        os.replace(tmp, path)

    def install(self):
        for module_name, attr, layer in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer))
            self._restore.append((module, attr, fn))
        for module_name, cls_name, attr, layer in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer))
            else:
                wrapped = self._wrap(raw, layer)
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, layer):
        """A span opened by the benchmark itself, around a call into rodsim."""
        opened = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(opened, layer, start, 0)

    def collect_spool(self):
        """Move the spans pool workers spooled into memory."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("*.json")):
            self.spans.extend(tuple(span) for span in json.loads(path.read_text()))
            path.unlink()

    def write(self, path: Path):
        """Write every span as one JSON line: id, parent, name, pid, start, end, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "pid", "start", "end", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_totals(spans):
    """Per layer: calls, total seconds, self seconds and summed extra.

    Self time is the span's duration minus the part of it that its children
    cover. Children in one process run one after another; children in pool
    workers may overlap, so the covered part is the union of their intervals.
    """
    children = defaultdict(list)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0})
    for sid, _, layer, _, start, end, extra in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals[layer]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - covered
        entry["extra"] += extra
    return totals
