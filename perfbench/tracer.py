"""Span tracer that interposes on the names anisoflow looks up at call time.

``anisoflow.solver`` and ``anisoflow.flow`` import their kernels by name,
so replacing those module attributes (and three ``_Problem`` methods)
puts a span around every call without touching the package.  A call
appends an open event (name id, time) and a close event (-1, time) to
one flat array, the cheapest record Python allows; spans (name, start,
end, parent) are rebuilt from it afterwards.  A layer's self time is its
span minus the time its direct child spans cover.
"""

from __future__ import annotations

import array
import time

import numpy as np

# Layer -> (owner, attribute) pairs.  The owner is a dotted path below
# ``anisoflow``.  A layer none of whose attributes exists is reported as
# absent, so renaming a kernel does not break the traced run.
LAYERS = {
    "grid.grad": [("solver", "_grad_impl"), ("solver", "gradient")],
    "grid.div": [("solver", "_div_impl"), ("solver", "interior_divergence")],
    "grid.boundary": [
        ("solver", "_restrict_impl"),
        ("solver", "_scatter_impl"),
        ("solver", "boundary_restriction"),
        ("solver", "boundary_scatter"),
        ("solver", "boundary_weights"),
    ],
    "prox.project": [("solver", "project_ball"), ("solver", "project_interval")],
    "prox.power": [("solver", "prox_power_conj_radial")],
    "prox.primal": [("solver", "prox_primal_linear"), ("solver", "prox_primal_quadratic")],
    "energy.eval": [("solver", "eval_J"), ("solver", "eval_F"), ("flow", "eval_F")],
    "certificates.check": [
        ("certificates", "check_weak_solution"),
        ("solver", "check_weak_solution"),
    ],
    "solver.check": [
        ("solver._Problem", "primal"),
        ("solver._Problem", "dual"),
        ("solver._Problem", "bracket_conjugate"),
    ],
    "solver.opnorm": [("solver", "estimate_opnorm")],
    "solver.solve": [("solver", "_solve")],
    "flow.step": [("flow", "solve_resolvent")],
}

# Span opened by the benchmark itself around each ``evolve`` call.
EVOLVE = "flow.evolve"

_CLOSE = -1.0


def _owner(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """In-memory event store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.events = array.array("d")  # (tag, time) pairs; tag -1 closes
        self._installed: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self):
        del self.events[:]

    def open(self, name: str):
        self.events.append(float(self._id(name)))
        self.events.append(time.perf_counter())

    def close(self):
        self.events.append(_CLOSE)
        self.events.append(time.perf_counter())

    def wrap(self, name: str, fn):
        tag = float(self._id(name))
        record = self.events.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record(tag)
            record(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                record(_CLOSE)
                record(clock())

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every attribute in LAYERS that exists on ``package``."""
        self.missing = set()
        for layer, targets in LAYERS.items():
            found = False
            for path, attr in targets:
                owner = _owner(package, path)
                if owner is None or not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))
                found = True
            if not found:
                self.missing.add(layer)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def spans(self):
        """(name id, start, end, parent index) arrays, in order of opening."""
        # A view, not a copy: a flow pass records millions of spans.  It is
        # released on return, before the array can grow again.
        ev = np.frombuffer(self.events).reshape(-1, 2)
        tags, times = ev[:, 0], ev[:, 1]
        opens = tags >= 0
        level = np.cumsum(np.where(opens, 1, -1).astype(np.int32), dtype=np.int32)
        level += ~opens  # a close event belongs to the level it leaves
        # Within one nesting level, events alternate open, close.
        order = np.argsort(level, kind="stable")
        o_idx, c_idx = order[0::2], order[1::2]
        by_open = np.argsort(o_idx)
        o_idx, c_idx = o_idx[by_open], c_idx[by_open]
        del order, by_open
        span_level = level[o_idx]
        parent = np.full(len(o_idx), -1, dtype=np.int64)
        for lv in range(2, int(span_level.max(initial=1)) + 1):
            kids = np.flatnonzero(span_level == lv)
            outer = np.flatnonzero(span_level == lv - 1)
            parent[kids] = outer[np.searchsorted(o_idx[outer], o_idx[kids]) - 1]
        return tags[o_idx].astype(np.int64), times[o_idx], times[c_idx], parent

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        if not self.events:
            return {}
        names, start, end, parent = self.spans()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            nm: {"calls": int(calls[j]), "s": float(incl[j]), "self_s": float(own[j])}
            for j, nm in enumerate(self.names)
            if calls[j]
        }

    def save(self, path):
        """Write the current spans as (name, start, end, parent) arrays."""
        names, start, end, parent = self.spans()
        np.savez_compressed(
            path, names=np.array(self.names), name=names, start=start, end=end, parent=parent
        )
