"""Batch command line front end.

Subcommands: solve-radial, solve-grid, oracle-cap, verify-cone, renwang,
audit, sweep.  Parameters come from flags, optionally layered over a
JSON config file ({n, sigma, domain:{kind,params}, eps_schedule,
mesh:{...}, newton:{max_iters, residual_tol}, audit:{...},
out:{csv,json}}); a flag always overrides the file.  The sampling
subcommands verify-cone and renwang also take a seed (--seed, or seed
in the file).

Exit codes: 0 success, 2 invalid configuration, 3 solver
non-convergence, 4 cone-guard failure, 5 a verification subcommand
found a violation.  Failures also emit one JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import audit as audit_mod
from . import cones, io
from .domains import domain_from_config, make_ball
from .errors import (ConeViolationError, HPlateauError,
                     NewtonDivergenceError)
from .geometry import exact_cap
from .gridsolver import solve_graph_path
from .solver import (DEFAULT_EPS_SCHEDULE, NewtonParams, PolarGridMesh,
                     RadialMesh, SolveConfig, SphericalGridMesh,
                     solve_radial_path)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CONE = 4
EXIT_VIOLATION = 5


def _float_list(text: str):
    vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    return tuple(vals)


def _emit_error(exc: BaseException) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    json.dump(record, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _pick(flag, cfg: dict, path: tuple, default=None):
    """flag value if given, else nested config value, else default."""
    if flag is not None:
        return flag
    node = cfg
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _resolve_out(args, cfg, stem: str):
    csv = _pick(args.out_csv, cfg, ("out", "csv"), f"{stem}.csv")
    js = _pick(args.out_json, cfg, ("out", "json"), f"{stem}.json")
    return csv, js


def _newton_params(args, cfg) -> NewtonParams:
    return NewtonParams(
        max_iters=int(_pick(getattr(args, "max_iters", None), cfg,
                            ("newton", "max_iters"), 40)),
        residual_tol=float(_pick(getattr(args, "residual_tol", None), cfg,
                                 ("newton", "residual_tol"), 1.0e-10)),
    )


def _eps_schedule(args, cfg):
    if getattr(args, "eps", None) is not None:
        return (float(args.eps),)
    if getattr(args, "eps_schedule", None) is not None:
        return tuple(args.eps_schedule)
    sched = _pick(None, cfg, ("eps_schedule",))
    if sched is not None:
        return tuple(float(x) for x in sched)
    return DEFAULT_EPS_SCHEDULE


def _audit_config(args, cfg) -> audit_mod.AuditConfig:
    return audit_mod.AuditConfig(
        N=float(_pick(getattr(args, "test_exponent", None), cfg,
                      ("audit", "N"), 50.0)),
        eps_rw=float(_pick(getattr(args, "eps_rw", None), cfg,
                           ("audit", "eps_rw"), 0.1)),
        rw_sample_cap=int(_pick(getattr(args, "rw_sample_cap", None), cfg,
                                ("audit", "rw_sample_cap"), 256)),
        fd_step=float(_pick(getattr(args, "fd_step", None), cfg,
                            ("audit", "fd_step"), 1.0e-3)),
    )


def _domain_from_args(args, cfg, n: int):
    kind = _pick(getattr(args, "domain", None), cfg, ("domain", "kind"),
                 "ball")
    if kind == "ball":
        radius = float(_pick(getattr(args, "radius", None), cfg,
                             ("domain", "params", "radius"), 1.0))
        return make_ball(n, radius)
    if kind == "ellipsoid":
        axes = _pick(getattr(args, "semi_axes", None), cfg,
                     ("domain", "params", "semi_axes"))
        if axes is None:
            raise ValueError("ellipsoid domains need --semi-axes")
        return domain_from_config({"kind": "ellipsoid",
                                   "params": {"semi_axes": list(axes)}})
    if kind in ("star", "star_shaped", "star2d"):
        samples = _pick(getattr(args, "star_samples", None), cfg,
                        ("domain", "params", "samples"))
        if samples is None:
            raise ValueError("star domains need --star-samples")
        return domain_from_config({"kind": "star",
                                   "params": {"n": n,
                                              "samples": list(samples)}})
    raise ValueError(f"unknown domain kind {kind!r}")


def _grid_mesh(args, cfg, n: int):
    if n == 3:
        return SphericalGridMesh(
            radial=int(_pick(getattr(args, "radial", None), cfg,
                             ("mesh", "radial"), 20)),
            lat=int(_pick(getattr(args, "lat", None), cfg,
                          ("mesh", "lat"), 12)),
            lon=int(_pick(getattr(args, "lon", None), cfg,
                          ("mesh", "lon"), 24)))
    return PolarGridMesh(
        radial=int(_pick(getattr(args, "radial", None), cfg,
                         ("mesh", "radial"), 48)),
        angular=int(_pick(getattr(args, "angular", None), cfg,
                          ("mesh", "angular"), 64)))


def _summarize(field, csv_path, json_path) -> None:
    conv = field.convergence
    print(f"converged eps={io.format_value(conv.eps_bdry)} "
          f"sigma={io.format_value(conv.sigma)} "
          f"iterations={conv.iterations} "
          f"residual={io.format_value(conv.residual)} "
          f"cone_ok={io.format_value(field.cone_ok)}")
    print(f"wrote {csv_path} and {json_path}")


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _run_solve_radial(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    sigma = _pick(args.sigma, cfg, ("sigma",))
    if sigma is None:
        raise ValueError("sigma is required (flag --sigma or config)")
    solve_cfg = SolveConfig(
        n=n, sigma_target=float(sigma),
        eps_schedule=_eps_schedule(args, cfg),
        mesh=RadialMesh(nodes=int(_pick(args.nodes, cfg,
                                        ("mesh", "nodes"), 401))),
        newton=_newton_params(args, cfg),
        sigma_path=tuple(args.sigma_path) if args.sigma_path else
        tuple(_pick(None, cfg, ("sigma_path",), ()) or ()))
    radius = float(_pick(args.radius, cfg, ("domain", "params", "radius"),
                         1.0))
    domain = make_ball(n, radius)
    field = solve_radial_path(solve_cfg, domain)[-1]
    csv_path, json_path = _resolve_out(args, cfg, "solve-radial")
    io.write_field_csv(field, csv_path)
    io.write_sidecar_json(field, json_path)
    _summarize(field, csv_path, json_path)
    return EXIT_OK


def _run_solve_grid(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    sigma = _pick(args.sigma, cfg, ("sigma",))
    if sigma is None:
        raise ValueError("sigma is required (flag --sigma or config)")
    solve_cfg = SolveConfig(
        n=n, sigma_target=float(sigma),
        eps_schedule=_eps_schedule(args, cfg),
        mesh=_grid_mesh(args, cfg, n),
        newton=_newton_params(args, cfg))
    domain = _domain_from_args(args, cfg, n)
    field = solve_graph_path(solve_cfg, domain)[-1]
    csv_path, json_path = _resolve_out(args, cfg, "solve-grid")
    io.write_field_csv(field, csv_path)
    io.write_sidecar_json(field, json_path)
    _summarize(field, csv_path, json_path)
    return EXIT_OK


def _run_oracle_cap(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    sigma = _pick(args.sigma, cfg, ("sigma",))
    if sigma is None:
        raise ValueError("sigma is required (flag --sigma or config)")
    radius = float(_pick(args.radius, cfg, ("domain", "params", "radius"),
                         1.0))
    eps = float(_pick(args.eps, cfg, ("eps_schedule",), [1.0e-2])[0]
                if args.eps is None else args.eps)
    nodes = int(_pick(args.nodes, cfg, ("mesh", "nodes"), 401))
    cap = exact_cap(n, float(sigma), radius, eps)
    radii = np.linspace(0.0, radius, nodes)
    header, rows = io.cap_csv_rows(cap, radii)
    csv_path, json_path = _resolve_out(args, cfg, "oracle-cap")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(io.format_value(v) for v in row) + "\n")
    io.write_json({
        "n": n, "sigma": float(sigma), "radius": radius, "eps": eps,
        "lam": cap.lam, "sphere_radius": cap.a, "center_offset": cap.d,
        "nu_min": cap.nu_min, "height_at_center": float(cap.height(0.0)),
    }, json_path)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _run_verify_cone(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    k = int(_pick(args.k, cfg, ("k",), n - 1))
    count = int(_pick(args.samples, cfg, ("samples",), 100000))
    seed = int(_pick(args.seed, cfg, ("seed",), 0))
    level = _pick(args.level, cfg, ("level",))
    rows = cones.sample_cone(n, k, count, seed,
                             level=None if level is None else float(level))
    member = cones.cone_mask_batch(rows, k)
    quad = cones.second_moment_slack_batch(rows, k)
    neg = cones.negative_part_slack_batch(rows, k)
    neg_finite = neg[np.isfinite(neg)]
    violations = int((~member).sum()) + int((quad < 0.0).sum()) \
        + int((neg_finite < 0.0).sum())
    report = {
        "n": n, "k": k, "samples": count, "seed": seed,
        "violations": violations,
        "min_second_moment_slack": float(quad.min()),
        "min_negative_part_slack": float(neg_finite.min())
        if neg_finite.size else "inf",
        "negative_top_count": int(np.isfinite(neg).sum()),
    }
    _, json_path = _resolve_out(args, cfg, "verify-cone")
    io.write_json(report, json_path)
    print(f"samples={count} violations={violations} -> {json_path}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _run_renwang(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    count = int(_pick(args.samples, cfg, ("samples",), 10000))
    seed = int(_pick(args.seed, cfg, ("seed",), 0))
    eps_rw = float(_pick(args.eps_rw, cfg, ("audit", "eps_rw"), 0.1))
    level = _pick(args.level, cfg, ("level",))
    rows = cones.sample_cone(n, n - 1, count, seed,
                             level=None if level is None else float(level))
    min_k = cones.ren_wang_min_k_batch(rows, eps_rw)
    finite = np.isfinite(min_k)
    report = {
        "n": n, "samples": count, "seed": seed, "eps_rw": eps_rw,
        "uncertified": int((~finite).sum()),
        "min_k_max": float(min_k[finite].max()) if finite.any() else "inf",
        "min_k_median": float(np.median(min_k[finite]))
        if finite.any() else "inf",
        "min_k_low": float(min_k[finite].min()) if finite.any() else "inf",
    }
    _, json_path = _resolve_out(args, cfg, "renwang")
    io.write_json(report, json_path)
    print(f"samples={count} uncertified={report['uncertified']} "
          f"-> {json_path}")
    return EXIT_OK if report["uncertified"] == 0 else EXIT_VIOLATION


def _solve_for_domain(solve_cfg: SolveConfig, domain):
    if domain.kind == "ball":
        return solve_radial_path(solve_cfg, domain)
    return solve_graph_path(solve_cfg, domain)


def _run_audit(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    sigma = _pick(args.sigma, cfg, ("sigma",))
    if sigma is None:
        raise ValueError("sigma is required (flag --sigma or config)")
    domain = _domain_from_args(args, cfg, n)
    if domain.kind == "ball":
        mesh = RadialMesh(nodes=int(_pick(args.nodes, cfg,
                                          ("mesh", "nodes"), 401)))
    else:
        mesh = _grid_mesh(args, cfg, n)
    solve_cfg = SolveConfig(
        n=n, sigma_target=float(sigma),
        eps_schedule=_eps_schedule(args, cfg),
        mesh=mesh, newton=_newton_params(args, cfg))
    fields = _solve_for_domain(solve_cfg, domain)
    audit_cfg = _audit_config(args, cfg)
    bundle = audit_mod.audit_bundle(fields, audit_cfg)

    final = fields[-1]
    q = audit_mod.test_function_field(final, audit_cfg)
    rw_idx = audit_mod._rw_sample_indices(final, audit_cfg.rw_sample_cap)
    rw_vals = cones.ren_wang_min_k_batch(final.spectra[rw_idx],
                                         audit_cfg.eps_rw)
    rw_col = np.full(len(final.u), np.nan)
    rw_col[rw_idx] = rw_vals
    rw_cells = [None if np.isnan(v) else float(v) for v in rw_col]
    csv_path, json_path = _resolve_out(args, cfg, "audit")
    io.write_field_csv(final, csv_path,
                       extra={"Q": q, "rw_minK": rw_cells})
    io.write_json(bundle, json_path)
    print(f"audit ok={bundle['ok']} -> {csv_path}, {json_path}")
    return EXIT_OK if bundle["ok"] else EXIT_VIOLATION


def _domain_label(domain) -> str:
    if domain.kind == "ball":
        return f"ball:{io.format_value(domain.radius)}"
    if domain.kind == "ellipsoid":
        axes = ";".join(io.format_value(a) for a in domain.semi_axes)
        return f"ellipsoid:{axes}"
    return f"star:{len(domain.star_samples)}pts"


def _sweep_domains(args, cfg, n: int):
    listed = _pick(None, cfg, ("domains",))
    if listed is not None:
        # entries without their own n take the sweep's
        return [domain_from_config(
                    {**d, "params": {"n": n, **d.get("params", {})}})
                for d in listed]
    out = []
    kinds = args.domains.split(",") if args.domains else []
    for kind in kinds:
        kind = kind.strip()
        if not kind:
            continue
        sub = argparse.Namespace(domain=kind, radius=args.radius,
                                 semi_axes=args.semi_axes,
                                 star_samples=args.star_samples)
        out.append(_domain_from_args(sub, cfg, n))
    return out


def _run_sweep(args) -> int:
    cfg = _load_config(args.config)
    n = int(_pick(args.n, cfg, ("n",), 3))
    sigmas = tuple(args.sigmas) if args.sigmas else \
        tuple(float(s) for s in (_pick(None, cfg, ("sigmas",)) or ()))
    schedule = _eps_schedule(args, cfg)
    domains = _sweep_domains(args, cfg, n)
    if not sigmas or not domains or not schedule:
        raise ValueError("sweep needs nonempty domains, sigmas and "
                         "eps_schedule")
    audit_cfg = _audit_config(args, cfg)
    newton = _newton_params(args, cfg)

    rows = []
    any_diverged = False
    any_cone = False
    for domain in domains:
        label = _domain_label(domain)
        for sigma in sigmas:
            if domain.kind == "ball":
                mesh = RadialMesh(nodes=int(_pick(args.nodes, cfg,
                                                  ("mesh", "nodes"), 401)))
            else:
                mesh = _grid_mesh(args, cfg, n)
            solve_cfg = SolveConfig(n=n, sigma_target=float(sigma),
                                    eps_schedule=schedule, mesh=mesh,
                                    newton=newton)
            try:
                fields = _solve_for_domain(solve_cfg, domain)
            except ConeViolationError:
                any_cone = True
                for eps in schedule:
                    rows.append({"domain": label, "n": n, "sigma": sigma,
                                 "eps": eps, "status": "cone_violation"})
                continue
            except NewtonDivergenceError:
                any_diverged = True
                for eps in schedule:
                    rows.append({"domain": label, "n": n, "sigma": sigma,
                                 "eps": eps, "status": "newton_divergence"})
                continue
            for fld in fields:
                kmax_int, kmax_bdry = audit_mod._kappa_maxima(fld)
                q = audit_mod.test_function_field(fld, audit_cfg)
                rw = audit_mod.rw_on_solution(fld, audit_cfg)
                rows.append({
                    "domain": label, "n": n, "sigma": sigma,
                    "eps": fld.convergence.eps_bdry,
                    "max_kappa_interior": kmax_int,
                    "max_kappa_boundary": kmax_bdry,
                    "witness": kmax_int - audit_mod.BOUND_C2 * kmax_bdry,
                    "nu_min": float(fld.nu_vertical.min()),
                    "Q_max": float(q.max()),
                    "rw_minK_max": rw.min_k_max,
                    "iterations": fld.convergence.iterations,
                    "residual": fld.convergence.residual,
                    "status": "ok",
                })
    rows.sort(key=lambda r: (r["domain"], r["n"], r["sigma"], -r["eps"]))
    csv_path = _pick(args.out_csv, cfg, ("out", "csv"), "sweep.csv")
    io.write_sweep_csv(rows, csv_path)
    print(f"{len(rows)} rows -> {csv_path}")
    if any_cone:
        return EXIT_CONE
    if any_diverged:
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")


def _add_solve_flags(p, radial: bool):
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--eps", type=float,
                   help="single boundary height (one-leg schedule)")
    p.add_argument("--eps-schedule", dest="eps_schedule", type=_float_list)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--residual-tol", dest="residual_tol", type=float)
    if radial:
        p.add_argument("--radius", type=float)
        p.add_argument("--nodes", type=int)
        p.add_argument("--sigma-path", dest="sigma_path", type=_float_list)
    else:
        p.add_argument("--domain",
                       choices=["ball", "ellipsoid", "star", "star_shaped",
                                "star2d"])
        p.add_argument("--radius", type=float)
        p.add_argument("--semi-axes", dest="semi_axes", type=_float_list)
        p.add_argument("--star-samples", dest="star_samples",
                       type=_float_list)
        p.add_argument("--radial", type=int, help="radial rings")
        p.add_argument("--lat", type=int)
        p.add_argument("--lon", type=int)
        p.add_argument("--angular", type=int)


def _add_audit_flags(p):
    p.add_argument("--test-exponent", dest="test_exponent", type=float,
                   help="exponent N in Q = ln kappa_1 - N ln nu")
    p.add_argument("--eps-rw", dest="eps_rw", type=float)
    p.add_argument("--rw-sample-cap", dest="rw_sample_cap", type=int)
    p.add_argument("--fd-step", dest="fd_step", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hplateau",
        description="asymptotic Plateau solves and curvature-estimate "
                    "audits for vertical graphs over the half-space model")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve-radial",
                       help="radially symmetric solve on a ball")
    _add_common(p)
    _add_solve_flags(p, radial=True)
    p.set_defaults(runner=_run_solve_radial)

    p = sub.add_parser("solve-grid", help="mapped-grid solve on a domain")
    _add_common(p)
    _add_solve_flags(p, radial=False)
    p.set_defaults(runner=_run_solve_grid)

    p = sub.add_parser("oracle-cap", help="emit the closed-form cap")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--nodes", type=int)
    p.set_defaults(runner=_run_oracle_cap)

    p = sub.add_parser("verify-cone",
                       help="sampled Garding-cone inequality checks")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--level", type=float)
    p.set_defaults(runner=_run_verify_cone)

    p = sub.add_parser("renwang",
                       help="quadratic-form certification over cone samples")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--eps-rw", dest="eps_rw", type=float)
    p.set_defaults(runner=_run_renwang)

    p = sub.add_parser("audit", help="solve, then audit the estimates")
    _add_common(p)
    _add_solve_flags(p, radial=False)
    p.add_argument("--nodes", type=int, help="radial nodes for ball domains")
    _add_audit_flags(p)
    p.set_defaults(runner=_run_audit)

    p = sub.add_parser("sweep", help="batch solve+audit over a grid")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--sigmas", type=_float_list)
    p.add_argument("--eps-schedule", dest="eps_schedule", type=_float_list)
    p.add_argument("--domains",
                   help="comma list of kinds, e.g. ball,ellipsoid")
    p.add_argument("--radius", type=float)
    p.add_argument("--semi-axes", dest="semi_axes", type=_float_list)
    p.add_argument("--star-samples", dest="star_samples", type=_float_list)
    p.add_argument("--nodes", type=int)
    p.add_argument("--radial", type=int)
    p.add_argument("--lat", type=int)
    p.add_argument("--lon", type=int)
    p.add_argument("--angular", type=int)
    _add_audit_flags(p)
    p.set_defaults(runner=_run_sweep)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.runner(args)
    except NewtonDivergenceError as exc:
        _emit_error(exc)
        return EXIT_DIVERGED
    except ConeViolationError as exc:
        _emit_error(exc)
        return EXIT_CONE
    except ValueError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except HPlateauError as exc:
        # audit preconditions, frame ambiguity: caller misconfiguration
        _emit_error(exc)
        return EXIT_CONFIG
    except OSError as exc:
        _emit_error(exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
