"""The three workloads: inputs, one measured round, and output checks.

A workload object is built once per process.  ``build_inputs`` makes
everything a round needs from the seed (timed as set-up), ``run_round``
does the measured work once and keeps what the checks need, and
``finish`` judges the outputs against ``checks`` and returns the
end-to-end numbers.  Domains are built afresh inside every round, so the
boundary mean-curvature screen is paid by the round, as a user pays it.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import math
import os
import statistics
import sys
import time

import numpy as np

import checks
from hplateau import audit, cli, cones, domains, gridsolver, solver

#: Fixed sample seeds of the level-set part (see the README: the known
#: Ren-Wang fault must fail on the same rows in every run).
LEVELSET_SEED = 20220601
LEVELSET_COUNT = 20000
#: Sweep rows: |value - exact| <= SWEEP_C * h^2 (worst seen: 5.5e3 h^2).
SWEEP_C = 1.0e4
#: Rounding allowance for the mirror symmetry of u.
MIRROR_TOL = 1.0e-12
#: Criterion-10 budget: grid vs exact cap within 10x the radial error.
CROSS_BUDGET = 10.0
RESIDUAL_TOL = 1.0e-10


def _rate(rounds, work: str, seconds: str) -> float:
    """Work over time, both summed over the run's rounds.

    The host's speed switches between a fast and a slow state every few
    seconds, so a rate over the whole run varies less from run to run
    than the median of per-round rates over short windows.
    """
    return sum(r[work] for r in rounds) / sum(r[seconds] for r in rounds)


class Workload:
    min_rounds = 1

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.problems = []      # failed output checks: correct = False
        self.rounds = []        # per-round dicts of timings and counts

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------

class _GridPath:
    """One grid continuation path and the references its checks need."""

    def __init__(self, label, n, sigma, mesh, make_domain, kind):
        self.label, self.n, self.sigma = label, n, sigma
        self.mesh, self.make_domain, self.kind = mesh, make_domain, kind
        self.config = solver.SolveConfig(n=n, sigma_target=sigma, mesh=mesh)
        self.first = None       # fields of the first round, for the checks


class GridWorkload(Workload):
    paths: list

    def build_inputs(self, seed: int) -> None:
        self.order = np.random.default_rng(seed).permutation(len(self.paths))

    def run_round(self, tracer, rng) -> None:
        t0 = time.perf_counter()
        attempted = failed = fields_ok = 0
        solved = []
        with tracer.span("bench.solve"):
            for i in self.order:
                p = self.paths[i]
                attempted += 1
                try:
                    fields = gridsolver.solve_graph_path(p.config, p.make_domain())
                    bundle = audit.audit_bundle(fields, audit.AuditConfig())
                except Exception as exc:   # a path that raises is a failed op
                    failed += 1
                    print(f"# {p.label}: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    continue
                solved.append((p, fields, bundle))
        solve_s = time.perf_counter() - t0

        # the K search on every field's interior spectra
        batches = [(p, f.spectra[~f.boundary]) for p, fields, _ in solved
                   for f in fields]
        t = time.perf_counter()
        with tracer.span("bench.rw"):
            found = [cones.ren_wang_min_k_batch(rows, checks.EPS_RW)
                     for _, rows in batches]
        rw_s = time.perf_counter() - t
        rw_ok = 0
        k_cap = getattr(cones, "RW_K_CAP", math.inf)
        for (p, rows), K in zip(batches, found):
            good = checks.rw_agrees(K, checks.rank_one_kstar(rows), k_cap)
            self.check(good.all(), f"{p.label}: {int((~good).sum())} "
                                   "solution rows off the exact K*")
            rw_ok += int(good.sum())
        for p, fields, bundle in solved:
            fields_ok += self.check_path(p, fields, bundle)
        self.rounds.append({"solve_s": solve_s, "attempted": attempted,
                            "failed": failed, "fields_ok": fields_ok,
                            "round_s": solve_s + rw_s, "rw_ok": rw_ok})

    def check_path(self, p: _GridPath, fields, bundle) -> int:
        ok = 0
        for f in fields:
            good = bool(f.cone_ok) and f.convergence.residual <= RESIDUAL_TOL
            self.check(good, f"{p.label} eps={f.convergence.eps_bdry}: "
                             f"cone_ok={f.cone_ok} residual={f.convergence.residual:.2e}")
            ok += good
        self.check(bool(bundle["ok"]), f"{p.label}: audit bundle not ok")
        if p.first is None:
            p.first = fields
        else:
            same = all(np.array_equal(a.u, b.u) for a, b in zip(p.first, fields))
            self.check(same, f"{p.label}: round differs from the first round")
        if p.kind == "ellipsoid":
            self._check_ellipsoid(p, fields, bundle)
        return ok

    def _check_ellipsoid(self, p, fields, bundle) -> None:
        J, M, L = p.mesh.radial, p.mesh.lat, p.mesh.lon
        maps = checks.mirror_maps(J, M, L)
        for f in fields:
            nodes = np.asarray(f.nodes)
            for axis, perm in maps.items():
                placed = np.abs(nodes[perm] - nodes * checks.MIRROR_SIGNS[axis]).max()
                self.check(placed <= 1e-12, f"{p.label}: mirror {axis} map "
                                            "does not match the node layout")
                asym = float(np.abs(f.u[perm] - f.u).max())
                self.check(asym <= MIRROR_TOL * max(1.0, float(f.u.max())),
                           f"{p.label}: u not {axis}-symmetric ({asym:.1e})")
        # curvature-bound witness, recomputed from the spectra
        for f, w in zip(fields, bundle["curvature_bound"].witnesses):
            near = np.asarray(f.meta["near_boundary"], dtype=bool)
            amax = np.abs(f.spectra).max(axis=1)
            mine = amax[~near].max() - audit.BOUND_C2 * amax[near].max()
            self.check(abs(mine - w) <= 1e-12 * max(1.0, abs(mine)),
                       f"{p.label}: witness {w} differs from {mine}")
            self.check(mine <= audit.BOUND_C1,
                       f"{p.label}: witness {mine:.3f} above BOUND_C1")

    def finish(self) -> None:
        """Checks that need a reference solve; run once, untraced."""
        for p in self.paths:
            if p.first is None:
                continue
            if p.kind == "ellipsoid":
                self._check_comparison(p)
            else:
                self._check_ball_cap(p)

    def _check_comparison(self, p: _GridPath) -> None:
        """Inscribed-ball cap <= u <= circumscribed-ball cap on the last field.

        The tolerance is the same mesh's measured error on the unit ball
        against its exact cap, at the same (smallest) eps; the ball is
        solved in one leg from its exact cap.
        """
        f = p.first[-1]
        eps = f.convergence.eps_bdry
        cfg = solver.SolveConfig(n=p.n, sigma_target=p.sigma, mesh=p.mesh,
                                 eps_schedule=(eps,))
        ball = gridsolver.solve_graph_path(cfg, domains.make_ball(p.n, 1.0))[-1]
        rb = np.linalg.norm(np.asarray(ball.nodes), axis=1)
        tol = float(np.abs(ball.u - checks.UmbilicCap(p.n, p.sigma, 1.0, eps)
                           .height(rb)).max())
        r = np.linalg.norm(np.asarray(f.nodes), axis=1)
        inner = r <= 1.0
        low = checks.UmbilicCap(p.n, p.sigma, 1.0, eps).height(r[inner])
        high = checks.UmbilicCap(p.n, p.sigma, 1.3, eps).height(r)
        below = float((low - f.u[inner]).max())
        above = float((f.u - high).max())
        self.check(below <= tol and above <= tol,
                   f"{p.label} eps={eps}: comparison principle off by "
                   f"{max(below, above):.2e} (mesh error {tol:.2e})")

    def _check_ball_cap(self, p: _GridPath) -> None:
        """Ball against its exact cap within the criterion-10 budget: 10x the
        radial solver's error at matched resolution (J radial nodes)."""
        radial = solver.solve_radial_path(
            solver.SolveConfig(n=p.n, sigma_target=p.sigma,
                               mesh=solver.RadialMesh(p.mesh.radial)),
            domains.make_ball(p.n, 1.0))
        for f, rf in zip(p.first, radial):
            cap = checks.UmbilicCap(p.n, p.sigma, 1.0, f.convergence.eps_bdry)
            disc = float(np.abs(rf.u - cap.height(rf.nodes)).max())
            err = float(np.abs(f.u - cap.height(
                np.linalg.norm(np.asarray(f.nodes), axis=1))).max())
            self.check(err <= CROSS_BUDGET * disc,
                       f"{p.label} eps={f.convergence.eps_bdry}: cap error "
                       f"{err:.2e} above {CROSS_BUDGET:g}x radial {disc:.2e}")

    def summary(self, rounds) -> dict:
        # no CLI runs here, and the K search is a small part of a round:
        # both rates are per second of the round, so they move with it
        return {
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "cli_fields_per_s": _rate(rounds, "fields_ok", "solve_s"),
            "rw_samples_per_s": _rate(rounds, "rw_ok", "round_s"),
        }


def _ellipsoid3():
    return domains.make_ellipsoid((1.3, 1.0, 1.0))


class EllipsoidPath(GridWorkload):
    """One n=3 (1.3, 1, 1) path at sigma 1.5 on the default 5 472-unknown
    mesh, full eps schedule, then audit_bundle."""

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.paths = [_GridPath("ellipsoid n=3 sigma=1.5", 3, 1.5,
                                solver.SphericalGridMesh(20, 12, 24),
                                _ellipsoid3, "ellipsoid")]


class SteepWalk(GridWorkload):
    """Two sigma = 0.05 paths where the automatic sigma walk fires."""

    min_rounds = 2   # ~16 s each; one round alone spreads too much

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.paths = [
            _GridPath("ellipsoid n=3 sigma=0.05", 3, 0.05,
                      solver.SphericalGridMesh(12, 8, 16), _ellipsoid3,
                      "ellipsoid"),
            _GridPath("ball n=2 sigma=0.05", 2, 0.05,
                      solver.PolarGridMesh(48, 64),
                      lambda: domains.make_ball(2, 1.0), "ball"),
        ]


# ---------------------------------------------------------------------------
# Radial CLI ladder and level-set K search
# ---------------------------------------------------------------------------

BALL_DIMS = (2, 3, 4, 5)
BALL_NODES = (401, 801, 1601)
LEVELSET_DIMS = (3, 4, 5)


def sigma_ladder(n: int) -> list:
    """Six targets across (0, n), both ends on purpose."""
    return [0.01, 0.05, 0.5, n / 2, n - 0.5, n - 0.01]


class BallCertify(Workload):
    """hplateau sweep/audit over a radial ball ladder, then the Ren-Wang K
    search on level-set samples; no grid code runs."""

    min_rounds = 2   # the sweep CSVs are compared between rounds

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.csv_first = {}     # sweep CSV bytes of the first round
        self.k_rounds = []      # level-set K per round, in sample order

    def build_inputs(self, seed: int) -> None:
        # seed-independent rows: see LEVELSET_SEED
        self.samples = {n: checks.level_set_samples(n, LEVELSET_COUNT,
                                                    LEVELSET_SEED + n)
                        for n in LEVELSET_DIMS}

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(_io.StringIO()):
            return cli.main([str(a) for a in argv])

    def run_round(self, tracer, rng) -> None:
        out = self.out_dir
        for name in os.listdir(out):    # no stale file can pass a check
            os.remove(os.path.join(out, name))
        jobs = [(n, nodes) for n in BALL_DIMS for nodes in BALL_NODES]
        jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        perms = {n: rng.permutation(LEVELSET_COUNT) for n in LEVELSET_DIMS}
        t0 = time.perf_counter()
        rcs = {}
        with tracer.span("bench.solve"):
            with tracer.span("bench.cli"):
                for n, nodes in jobs:
                    sig = [sigma_ladder(n)[i] for i in rng.permutation(6)]
                    rcs[n, nodes] = self._cli(
                        ["sweep", "--domains", "ball", "--n", n,
                         "--sigmas", ",".join(repr(s) for s in sig),
                         "--nodes", nodes,
                         "--out-csv", os.path.join(out, f"sweep-{n}-{nodes}.csv")])
                for n in BALL_DIMS:
                    rcs[n] = self._cli(
                        ["audit", "--domain", "ball", "--n", n, "--sigma", n / 2,
                         "--out-csv", os.path.join(out, f"audit-{n}.csv"),
                         "--out-json", os.path.join(out, f"audit-{n}.json")])
            t1 = time.perf_counter()
            ks, rw_s = {}, 0.0
            with tracer.span("bench.levelset"):
                for n in LEVELSET_DIMS:
                    rows = self.samples[n][perms[n]]
                    t = time.perf_counter()
                    K = cones.ren_wang_min_k_batch(rows, checks.EPS_RW)
                    rw_s += time.perf_counter() - t
                    back = np.empty_like(K)
                    back[perms[n]] = K
                    ks[n] = back
        t2 = time.perf_counter()
        self.k_rounds.append(ks)
        attempted, failed, fields_ok = self._check_cli(rcs)
        attempted += len(LEVELSET_DIMS) * LEVELSET_COUNT
        self.rounds.append({"solve_s": t2 - t0, "cli_s": t1 - t0, "rw_s": rw_s,
                            "attempted": attempted, "failed": failed,
                            "fields_ok": fields_ok})

    def _check_cli(self, rcs):
        attempted = failed = fields_ok = 0
        for n in BALL_DIMS:
            for nodes in BALL_NODES:
                path = os.path.join(self.out_dir, f"sweep-{n}-{nodes}.csv")
                with open(path, "rb") as fh:
                    raw = fh.read()
                first = self.csv_first.setdefault((n, nodes), raw)
                self.check(raw == first, f"sweep n={n} nodes={nodes}: CSV "
                                         "bytes differ between rounds")
                h = 1.0 / (nodes - 1)
                paths = {}
                for row in csv.DictReader(_io.StringIO(raw.decode())):
                    paths.setdefault(float(row["sigma"]), []).append(row)
                    if row["status"] == "ok":
                        fields_ok += 1
                        self._check_row(row, n, h)
                self.check(sorted(paths) == sorted(sigma_ladder(n)),
                           f"sweep n={n} nodes={nodes}: sigma rows missing")
                bad = sum(any(r["status"] != "ok" for r in rows)
                          for rows in paths.values())
                diverged = any(r["status"] == "newton_divergence"
                               for rows in paths.values() for r in rows)
                self.check(rcs[n, nodes] == (3 if diverged else 0),
                           f"sweep n={n} nodes={nodes}: exit code {rcs[n, nodes]}")
                attempted += len(sigma_ladder(n))
                failed += bad
        for n in BALL_DIMS:
            attempted += 1
            good = rcs[n] == 0 and self._check_audit(n)
            failed += not good
            fields_ok += good
        return attempted, failed, fields_ok

    def _check_row(self, row, n, h) -> None:
        sigma, eps = float(row["sigma"]), float(row["eps"])
        cap = checks.UmbilicCap(n, sigma, 1.0, eps)
        tol = SWEEP_C * h * h
        for key, exact in (("max_kappa_interior", cap.lam),
                           ("max_kappa_boundary", cap.lam),
                           ("nu_min", cap.nu_min)):
            dev = abs(float(row[key]) - exact)
            self.check(dev <= tol, f"sweep n={n} sigma={sigma} eps={eps}: "
                                   f"{key} off by {dev:.2e} > {tol:.2e}")
        self.check(float(row["residual"]) <= RESIDUAL_TOL,
                   f"sweep n={n} sigma={sigma} eps={eps}: residual")

    def _check_audit(self, n) -> bool:
        with open(os.path.join(self.out_dir, f"audit-{n}.json")) as fh:
            bundle = json.load(fh)
        data = np.genfromtxt(os.path.join(self.out_dir, f"audit-{n}.csv"),
                             delimiter=",", names=True)
        cap = checks.UmbilicCap(n, n / 2, 1.0, 1e-4)
        h = float(data["r"][1] - data["r"][0])
        dev = float(np.abs(data["u"] - cap.height(data["r"])).max())
        good = bool(bundle.get("ok")) and "identity" in bundle \
            and dev <= SWEEP_C * h * h
        self.check(good, f"audit n={n}: ok={bundle.get('ok')} cap error {dev:.2e}")
        return good

    def finish(self) -> None:
        """Level-set K against the exact K*; failing rows are failed ops."""
        cap = getattr(cones, "RW_K_CAP", math.inf)
        agree = {n: checks.rw_agrees(self.k_rounds[0][n],
                                     checks.rank_one_kstar(self.samples[n]), cap)
                 for n in LEVELSET_DIMS}
        rw_failed = sum(int((~a).sum()) for a in agree.values())
        for ks, rnd in zip(self.k_rounds, self.rounds):
            same = all(np.array_equal(ks[n], self.k_rounds[0][n])
                       for n in LEVELSET_DIMS)
            self.check(same, "level-set K differs between rounds")
            rnd["failed"] += rw_failed
            rnd["rw_ok"] = len(LEVELSET_DIMS) * LEVELSET_COUNT - rw_failed

    def summary(self, rounds) -> dict:
        return {
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "cli_fields_per_s": _rate(rounds, "fields_ok", "cli_s"),
            "rw_samples_per_s": _rate(rounds, "rw_ok", "rw_s"),
        }


WORKLOADS = {"ellipsoid-path": EllipsoidPath, "steep-walk": SteepWalk,
             "ball-certify": BallCertify}
