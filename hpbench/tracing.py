"""Spans and counters recorded from outside hplateau.

The traced run replaces public entry points of the package's layers (and
the scipy factorizations they call) with thin wrappers that open a span
and bump counters, then restores them.  Spans stay in memory as
``[name, start, end, parent]`` and are written once the run ends.  A
layer's self time is its span time minus the time of its child spans, so
self times add up to the enclosing round.

A wrapper whose target is missing (say, after a refactor renames it) is
skipped and the metrics that depend on it are reported as unmeasured.
The untraced run never calls ``install``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import time


class NullTracer:
    """Stand-in for untraced rounds: spans cost one no-op context."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.missing = set()     # wrap targets that were not found
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def self_times(self, root: int | None = None) -> dict:
        """Self time per span name, over every span or the subtree of one."""
        if root is None:
            in_tree = set(range(len(self.spans)))
        else:
            in_tree = {root}
            for i in range(root + 1, len(self.spans)):
                if self.spans[i][3] in in_tree:
                    in_tree.add(i)
        out = collections.defaultdict(float)
        for i in in_tree:
            name, start, end, parent = self.spans[i]
            out[name] += end - start
            if i != root and parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "missing": sorted(self.missing)}, fh)

    # -- wrappers ------------------------------------------------------------

    def patch(self, owner, attr: str, label: str, make) -> bool:
        orig = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if orig is None:
            self.missing.add(label)
            return False
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))
        return True

    def timed(self, name: str, count: str | None = None, rows: str | None = None):
        """Wrapper factory: one span per call, optional call/row counters."""
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if count:
                    self.counts[count] += 1
                if rows and args:
                    shape = getattr(args[0], "shape", (1,))
                    self.counts[rows] += shape[0] if len(shape) > 1 else 1
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return wrapped
        return make

    def newton(self, layer: str):
        """Wrapper factory for damped_newton(v0, residual_fn, guard_fn,
        jacobian_solver, params): one span per leg, and the three callables
        it receives are wrapped in turn."""
        def make(fn):
            sig = inspect.signature(fn)
            c = self.counts

            def wrapped(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                a = bound.arguments
                last = {"v": None}
                if {"residual_fn", "guard_fn", "jacobian_solver"} <= a.keys():
                    res, guard, jac = (a["residual_fn"], a["guard_fn"],
                                       a["jacobian_solver"])

                    def residual_fn(v):
                        c[f"{layer}.residual_calls"] += 1
                        with self.span(f"{layer}.residual"):
                            return res(v)

                    def guard_fn(v):
                        c[f"{layer}.guard_calls"] += 1
                        with self.span(f"{layer}.guard"):
                            ok = guard(v)
                        if not ok:
                            c[f"{layer}.guard_rejections"] += 1
                        return ok

                    def jacobian_solver(v, F):
                        c[f"{layer}.newton_steps"] += 1
                        last["v"] = v
                        with self.span(f"{layer}.jacobian"):
                            return jac(v, F)

                    a.update(residual_fn=residual_fn, guard_fn=guard_fn,
                             jacobian_solver=jacobian_solver)
                else:
                    self.missing.add(f"{layer}.damped_newton callables")
                c[f"{layer}.legs"] += 1
                steps0 = c[f"{layer}.newton_steps"]
                with self.span(f"{layer}.leg"):
                    try:
                        out = fn(*bound.args, **bound.kwargs)
                    except Exception as exc:
                        c[f"{layer}.failed_legs"] += 1
                        steps = c[f"{layer}.newton_steps"] - steps0
                        # a failed line search reports the iterate it
                        # stepped from; any other failure comes after an
                        # accepted step
                        stalled = last["v"] is not None \
                            and getattr(exc, "state", None) is last["v"]
                        c[f"{layer}.accepted_steps"] += steps - int(stalled)
                        raise
                c[f"{layer}.accepted_steps"] += c[f"{layer}.newton_steps"] - steps0
                return out
            return wrapped
        return make

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; see the README for the layer map."""
    import numpy.linalg
    import scipy.linalg
    import scipy.sparse.linalg

    from hplateau import audit, cli, cones, domains, gridsolver, io, solver

    t = tracer
    t.patch(gridsolver, "damped_newton", "gridsolver.damped_newton",
            t.newton("gridsolver"))
    t.patch(solver, "damped_newton", "solver.damped_newton", t.newton("solver"))
    t.patch(gridsolver, "solve_graph_path", "gridsolver.solve_graph_path",
            t.timed("gridsolver.path"))
    t.patch(cli, "solve_radial_path", "cli.solve_radial_path",
            t.timed("solver.path"))
    t.patch(scipy.sparse.linalg, "splu", "scipy.sparse.linalg.splu",
            t.timed("gridsolver.factorize", count="gridsolver.factorize_calls"))
    t.patch(scipy.linalg, "solve_banded", "scipy.linalg.solve_banded",
            t.timed("solver.banded"))

    screen = domains.DomainSpec.__dict__.get("boundary_mean_curvature_min")
    if isinstance(screen, functools.cached_property):
        # time the first access only, as a fresh domain pays it
        def screened(prop):
            new = functools.cached_property(
                t.timed("domains.boundary_screen")(prop.func))
            new.__set_name__(domains.DomainSpec, "boundary_mean_curvature_min")
            return new
        t.patch(domains.DomainSpec, "boundary_mean_curvature_min",
                "domains.DomainSpec.boundary_mean_curvature_min", screened)
    else:
        t.missing.add("domains.DomainSpec.boundary_mean_curvature_min")

    t.patch(cones, "ren_wang_min_k_batch", "cones.ren_wang_min_k_batch",
            t.timed("cones.rw", count="cones.rw_calls", rows="cones.rw_rows"))

    def eig_counter(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if t.inside("cones.rw"):
                t.counts["cones.rw_eig_batches"] += 1
            return fn(*args, **kwargs)
        return wrapped
    t.patch(numpy.linalg, "eigvalsh", "numpy.linalg.eigvalsh", eig_counter)

    t.patch(audit, "audit_bundle", "audit.audit_bundle", t.timed("audit.bundle"))
    t.patch(audit, "rw_on_solution", "audit.rw_on_solution",
            t.timed("audit.rw_on_solution", count="audit.rw_on_solution_calls"))
    t.patch(audit, "nu_identity_audit", "audit.nu_identity_audit",
            t.timed("audit.identity"))
    for name in ("write_sweep_csv", "write_field_csv", "write_json",
                 "write_sidecar_json"):
        t.patch(io, name, f"io.{name}", t.timed("io.write"))
    t.patch(cli, "main", "cli.main", t.timed("cli.main"))


def _self(span):
    return lambda selfs, counts: selfs.get(span, 0.0)


def _count(key):
    return lambda selfs, counts: counts.get(key, 0)


def _accept_ratio(layer):
    def read(selfs, counts):
        trials = counts.get(f"{layer}.guard_calls", 0) - counts.get(f"{layer}.legs", 0)
        return counts.get(f"{layer}.accepted_steps", 0) / trials if trials > 0 else 0.0
    return read


_GRID_NEWTON = ("gridsolver.damped_newton", "gridsolver.damped_newton callables")
_RAD_NEWTON = ("solver.damped_newton", "solver.damped_newton callables")

# name -> (unit, how to read it, wrap targets it needs)
LAYER_METRICS = {
    "gridsolver.legs": ("count", _count("gridsolver.legs"), _GRID_NEWTON),
    "gridsolver.failed_legs": ("count", _count("gridsolver.failed_legs"), _GRID_NEWTON),
    "gridsolver.newton_steps": ("count", _count("gridsolver.newton_steps"), _GRID_NEWTON),
    "gridsolver.jacobian_s": ("s", _self("gridsolver.jacobian"),
                              _GRID_NEWTON + ("scipy.sparse.linalg.splu",)),
    "gridsolver.factorize_s": ("s", _self("gridsolver.factorize"), ("scipy.sparse.linalg.splu",)),
    "gridsolver.factorize_calls": ("count", _count("gridsolver.factorize_calls"),
                                   ("scipy.sparse.linalg.splu",)),
    "gridsolver.residual_s": ("s", _self("gridsolver.residual"), _GRID_NEWTON),
    "gridsolver.residual_calls": ("count", _count("gridsolver.residual_calls"), _GRID_NEWTON),
    "gridsolver.guard_s": ("s", _self("gridsolver.guard"), _GRID_NEWTON),
    "gridsolver.guard_calls": ("count", _count("gridsolver.guard_calls"), _GRID_NEWTON),
    "gridsolver.guard_rejections": ("count", _count("gridsolver.guard_rejections"), _GRID_NEWTON),
    "gridsolver.step_accept_ratio": ("ratio", _accept_ratio("gridsolver"), _GRID_NEWTON),
    "gridsolver.newton_self_s": ("s", _self("gridsolver.leg"), _GRID_NEWTON),
    "gridsolver.path_self_s": ("s", _self("gridsolver.path"),
                               ("gridsolver.solve_graph_path",) + _GRID_NEWTON),
    "solver.legs": ("count", _count("solver.legs"), _RAD_NEWTON),
    "solver.failed_legs": ("count", _count("solver.failed_legs"), _RAD_NEWTON),
    "solver.newton_steps": ("count", _count("solver.newton_steps"), _RAD_NEWTON),
    "solver.jacobian_s": ("s", _self("solver.jacobian"),
                          _RAD_NEWTON + ("scipy.linalg.solve_banded",)),
    "solver.banded_s": ("s", _self("solver.banded"), ("scipy.linalg.solve_banded",)),
    "solver.residual_s": ("s", _self("solver.residual"), _RAD_NEWTON),
    "solver.guard_s": ("s", _self("solver.guard"), _RAD_NEWTON),
    "solver.newton_self_s": ("s", _self("solver.leg"), _RAD_NEWTON),
    "solver.path_self_s": ("s", _self("solver.path"), ("cli.solve_radial_path",) + _RAD_NEWTON),
    "domains.boundary_screen_s": ("s", _self("domains.boundary_screen"),
                                  ("domains.DomainSpec.boundary_mean_curvature_min",)),
    "cones.rw_calls": ("count", _count("cones.rw_calls"), ("cones.ren_wang_min_k_batch",)),
    "cones.rw_rows": ("count", _count("cones.rw_rows"), ("cones.ren_wang_min_k_batch",)),
    "cones.rw_s": ("s", _self("cones.rw"), ("cones.ren_wang_min_k_batch",)),
    "cones.rw_eig_batches": ("count", _count("cones.rw_eig_batches"),
                             ("cones.ren_wang_min_k_batch", "numpy.linalg.eigvalsh")),
    "audit.bundle_s": ("s", _self("audit.bundle"), ("audit.audit_bundle",)),
    "audit.rw_on_solution_s": ("s", _self("audit.rw_on_solution"), ("audit.rw_on_solution",)),
    "audit.rw_on_solution_calls": ("count", _count("audit.rw_on_solution_calls"),
                                   ("audit.rw_on_solution",)),
    "audit.identity_s": ("s", _self("audit.identity"), ("audit.nu_identity_audit",)),
    "io.write_s": ("s", _self("io.write"), ("io.write_sweep_csv", "io.write_field_csv",
                                            "io.write_json", "io.write_sidecar_json")),
    "cli.self_s": ("s", _self("cli.main"), ("cli.main",)),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values over the traced round; None where unmeasured."""
    selfs = tracer.self_times()
    out = {}
    for name, (unit, read, needs) in LAYER_METRICS.items():
        measured = not any(n in tracer.missing for n in needs)
        out[name] = (read(selfs, tracer.counts) if measured else None, unit)
    return out
