"""Batch command line front end.

Subcommands: solve-radial, solve-grid, oracle-cap, verify-cone, renwang,
audit, sweep.  Every value comes from its flag if given, else from the
JSON config file (--config), else from the library's own default (the
field default of NewtonParams, AuditConfig, RadialMesh,
SphericalGridMesh or PolarGridMesh).  File keys, by subcommand:

* every subcommand: n (default 3);
* solve-radial: sigma, eps_schedule, domain:{kind, params:{radius}}
  (the kind must be ball), mesh:{nodes}, newton:{max_iters,
  residual_tol}, out:{csv, json};
* solve-grid: sigma, eps_schedule, domain:{kind, params:{radius,
  semi_axes, samples}}, mesh:{radial, lat, lon} (n = 3) or
  mesh:{radial, angular} (n = 2), newton:{...}, out:{csv, json};
* oracle-cap: sigma, eps_schedule (its first entry is the boundary
  height), domain:{params:{radius}}, mesh:{nodes}, out:{csv, json};
* verify-cone: k, samples, seed, level, out:{json};
* renwang: samples, seed, level, audit:{eps_rw}, out:{json};
* audit: the solve-grid keys, plus mesh:{nodes} for balls and
  audit:{N, eps_rw, rw_sample_cap, fd_step};
* sweep: sigmas, eps_schedule, domains:[{kind, params}] (used when
  --domains is not given; entries without their own n take the sweep's),
  domain:{params:{...}}, mesh:{...}, newton:{...}, audit:{...},
  out:{csv}.

A subcommand takes --out-csv and --out-json only for the files it
writes.

Exit codes: 0 success, 2 invalid configuration, 3 solver
non-convergence, 4 cone-guard failure, 5 a verification subcommand
found a violation.  Failures also emit one JSON record on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _build(cls, args, cfg, section: str):
    """A cls dataclass from flags, then cfg[section], then its defaults.

    Each field takes the flag of the same name, else the file value;
    a field set by neither keeps the dataclass default, whose type the
    given value is converted to.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = _pick(getattr(args, f.name, None), cfg, (section, f.name))
        if value is not None:
            kwargs[f.name] = type(f.default)(value)
    return cls(**kwargs)


def _listed(args, cfg, key: str) -> tuple:
    """A comma-list flag if given, else the file's list, else ()."""
    return tuple(float(v) for v in (getattr(args, key, None)
                                    or _pick(None, cfg, (key,)) or ()))


def _sigma(args, cfg):
    sigma = _pick(args.sigma, cfg, ("sigma",))
    if sigma is None:
        raise ValueError("sigma is required (flag --sigma or config)")
    return sigma


def _out_path(flag, cfg, ext: str, stem: str) -> str:
    return _pick(flag, cfg, ("out", ext), f"{stem}.{ext}")


def _resolve_out(args, cfg, stem: str):
    return (_out_path(args.out_csv, cfg, "csv", stem),
            _out_path(args.out_json, cfg, "json", stem))


def _eps_schedule(args, cfg, default=DEFAULT_EPS_SCHEDULE):
    if getattr(args, "eps", None) is not None:
        return (float(args.eps),)
    if getattr(args, "eps_schedule", None) is not None:
        return tuple(args.eps_schedule)
    sched = _pick(None, cfg, ("eps_schedule",))
    if sched is not None:
        return tuple(float(x) for x in sched)
    return default


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


def _solve_config(args, cfg, n: int, sigma, radial: bool) -> SolveConfig:
    if radial:
        mesh_cls = RadialMesh
    else:
        mesh_cls = SphericalGridMesh if n == 3 else PolarGridMesh
    return SolveConfig(
        n=n, sigma_target=float(sigma),
        eps_schedule=_eps_schedule(args, cfg),
        mesh=_build(mesh_cls, args, cfg, "mesh"),
        newton=_build(NewtonParams, args, cfg, "newton"))


def _solve(config: SolveConfig, domain, radial: bool):
    return (solve_radial_path if radial else solve_graph_path)(config, domain)


# ---------------------------------------------------------------------------
# subcommand runners: each takes the parsed flags, the config file's
# contents and the dimension n
# ---------------------------------------------------------------------------

def _run_solve(args, cfg, n: int) -> int:
    radial = args.subcommand == "solve-radial"
    config = _solve_config(args, cfg, n, _sigma(args, cfg), radial)
    field = _solve(config, _domain_from_args(args, cfg, n), radial)[-1]
    csv_path, json_path = _resolve_out(args, cfg, args.subcommand)
    io.write_field_csv(field, csv_path)
    io.write_sidecar_json(field, json_path)
    conv = field.convergence
    print(f"converged eps={io.format_value(conv.eps_bdry)} "
          f"sigma={io.format_value(conv.sigma)} "
          f"iterations={conv.iterations} "
          f"residual={io.format_value(conv.residual)} "
          f"cone_ok={io.format_value(field.cone_ok)}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _run_oracle_cap(args, cfg, n: int) -> int:
    sigma = _sigma(args, cfg)
    radius = float(_pick(args.radius, cfg, ("domain", "params", "radius"),
                         1.0))
    schedule = _eps_schedule(args, cfg, default=(1.0e-2,))
    if not schedule:
        raise ValueError("eps_schedule must be nonempty")
    eps = float(schedule[0])
    nodes = int(_pick(args.nodes, cfg, ("mesh", "nodes"), RadialMesh.nodes))
    cap = exact_cap(n, float(sigma), radius, eps)
    csv_path, json_path = _resolve_out(args, cfg, "oracle-cap")
    io.write_csv(csv_path, *io.cap_csv_rows(cap,
                                            np.linspace(0.0, radius, nodes)))
    io.write_json({
        "n": n, "sigma": float(sigma), "radius": radius, "eps": eps,
        "lam": cap.lam, "sphere_radius": cap.a, "center_offset": cap.d,
        "nu_min": cap.nu_min, "height_at_center": float(cap.height(0.0)),
    }, json_path)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _run_verify_cone(args, cfg, n: int) -> int:
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
    json_path = _out_path(args.out_json, cfg, "json", "verify-cone")
    io.write_json(report, json_path)
    print(f"samples={count} violations={violations} -> {json_path}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _run_renwang(args, cfg, n: int) -> int:
    count = int(_pick(args.samples, cfg, ("samples",), 10000))
    seed = int(_pick(args.seed, cfg, ("seed",), 0))
    eps_rw = float(_pick(args.eps_rw, cfg, ("audit", "eps_rw"),
                         audit_mod.AuditConfig.eps_rw))
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
    json_path = _out_path(args.out_json, cfg, "json", "renwang")
    io.write_json(report, json_path)
    print(f"samples={count} uncertified={report['uncertified']} "
          f"-> {json_path}")
    return EXIT_OK if report["uncertified"] == 0 else EXIT_VIOLATION


def _run_audit(args, cfg, n: int) -> int:
    sigma = _sigma(args, cfg)
    domain = _domain_from_args(args, cfg, n)
    radial = domain.kind == "ball"
    fields = _solve(_solve_config(args, cfg, n, sigma, radial), domain,
                    radial)
    audit_cfg = _build(audit_mod.AuditConfig, args, cfg, "audit")
    bundle = audit_mod.audit_bundle(fields, audit_cfg)

    final = fields[-1]
    q = audit_mod.test_function_field(final, audit_cfg)
    rw = bundle["ren_wang"]
    rw_col = np.full(len(final.u), np.nan)
    rw_col[rw.indices] = rw.min_k
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
    if args.domains:
        kinds = [k.strip() for k in args.domains.split(",") if k.strip()]
        return [_domain_from_args(
                    argparse.Namespace(**{**vars(args), "domain": kind}),
                    cfg, n)
                for kind in kinds]
    entries = _pick(None, cfg, ("domains",)) or []
    if not isinstance(entries, list):
        raise ValueError(f"sweep config domains must be a list, got {entries!r}")
    for d in entries:
        if not (isinstance(d, dict) and isinstance(d.get("params", {}), dict)):
            raise ValueError("sweep config domains entries must be objects "
                             f"with an object params, got {d!r}")
    # entries without their own n take the sweep's
    return [domain_from_config({**d, "params": {"n": n,
                                                **d.get("params", {})}})
            for d in entries]


def _run_sweep(args, cfg, n: int) -> int:
    sigmas = _listed(args, cfg, "sigmas")
    schedule = _eps_schedule(args, cfg)
    domains = _sweep_domains(args, cfg, n)
    if not sigmas or not domains or not schedule:
        raise ValueError("sweep needs nonempty domains, sigmas and "
                         "eps_schedule")
    audit_cfg = _build(audit_mod.AuditConfig, args, cfg, "audit")

    rows = []
    failed = set()
    for domain in domains:
        label = _domain_label(domain)
        radial = domain.kind == "ball"
        for sigma in sigmas:
            config = _solve_config(args, cfg, n, sigma, radial)
            try:
                fields = _solve(config, domain, radial)
            except (ConeViolationError, NewtonDivergenceError) as exc:
                status = ("cone_violation"
                          if isinstance(exc, ConeViolationError)
                          else "newton_divergence")
                failed.add(status)
                rows += [{"domain": label, "n": n, "sigma": sigma,
                          "eps": eps, "status": status} for eps in schedule]
                continue
            for fld in fields:
                est = audit_mod.estimate_report(fld, audit_cfg,
                                                sweep_exponents=())
                rows.append({
                    "domain": label, "n": n, "sigma": sigma,
                    "eps": fld.convergence.eps_bdry,
                    "max_kappa_interior": est.max_kappa_interior,
                    "max_kappa_boundary": est.max_kappa_boundary,
                    "witness": est.bound_constant_witness,
                    "nu_min": est.nu_min,
                    "Q_max": est.q_max,
                    "rw_minK_max": est.rw_min_k_max,
                    "iterations": fld.convergence.iterations,
                    "residual": fld.convergence.residual,
                    "status": "ok",
                })
    rows.sort(key=lambda r: (r["domain"], r["n"], r["sigma"], -r["eps"]))
    csv_path = _out_path(args.out_csv, cfg, "csv", "sweep")
    io.write_sweep_csv(rows, csv_path)
    print(f"{len(rows)} rows -> {csv_path}")
    if "cone_violation" in failed:
        return EXIT_CONE
    if failed:
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser: one spec per flag, one flag list per subcommand
# ---------------------------------------------------------------------------

_FLAGS = {
    "--config": dict(help="JSON config file; flags override it"),
    "--out-csv": {},
    "--out-json": {},
    "--n": dict(type=int),
    "--sigma": dict(type=float),
    "--sigmas": dict(type=_float_list),
    "--eps": dict(type=float,
                  help="single boundary height (one-leg schedule)"),
    "--eps-schedule": dict(type=_float_list),
    "--max-iters": dict(type=int),
    "--residual-tol": dict(type=float),
    "--domain": dict(choices=["ball", "ellipsoid", "star", "star_shaped",
                              "star2d"]),
    "--domains": dict(help="comma list of kinds, e.g. ball,ellipsoid"),
    "--radius": dict(type=float),
    "--semi-axes": dict(type=_float_list),
    "--star-samples": dict(type=_float_list),
    "--nodes": dict(type=int, help="radial nodes (ball domains)"),
    "--radial": dict(type=int, help="radial rings (grid domains)"),
    "--lat": dict(type=int),
    "--lon": dict(type=int),
    "--angular": dict(type=int),
    "--test-exponent": dict(type=float, dest="N", metavar="TEST_EXPONENT",
                            help="exponent N in Q = ln kappa_1 - N ln nu"),
    "--eps-rw": dict(type=float),
    "--rw-sample-cap": dict(type=int),
    "--fd-step": dict(type=float),
    "--k": dict(type=int),
    "--samples": dict(type=int),
    "--seed": dict(type=int),
    "--level": dict(type=float),
}

_OUT = ("--out-csv", "--out-json")
_SOLVE = _OUT + ("--n", "--sigma", "--eps", "--eps-schedule", "--max-iters",
                 "--residual-tol")
_DOMAIN = ("--domain", "--radius", "--semi-axes", "--star-samples")
_GRID = ("--radial", "--lat", "--lon", "--angular")
_AUDIT = ("--test-exponent", "--eps-rw", "--rw-sample-cap", "--fd-step")

_SUBCOMMANDS = {
    "solve-radial": ("radially symmetric solve on a ball", _run_solve,
                     _SOLVE + ("--radius", "--nodes")),
    "solve-grid": ("mapped-grid solve on a domain", _run_solve,
                   _SOLVE + _DOMAIN + _GRID),
    "oracle-cap": ("emit the closed-form cap", _run_oracle_cap,
                   _OUT + ("--n", "--sigma", "--radius", "--eps",
                           "--nodes")),
    "verify-cone": ("sampled Garding-cone inequality checks",
                    _run_verify_cone,
                    ("--out-json", "--n", "--k", "--samples", "--seed",
                     "--level")),
    "renwang": ("quadratic-form certification over cone samples",
                _run_renwang,
                ("--out-json", "--n", "--samples", "--seed", "--level",
                 "--eps-rw")),
    "audit": ("solve, then audit the estimates", _run_audit,
              _SOLVE + _DOMAIN + _GRID + ("--nodes",) + _AUDIT),
    "sweep": ("batch solve+audit over a grid", _run_sweep,
              ("--out-csv", "--n", "--sigmas", "--eps-schedule", "--domains",
               "--radius", "--semi-axes", "--star-samples", "--nodes")
              + _GRID + _AUDIT),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hplateau",
        description="asymptotic Plateau solves and curvature-estimate "
                    "audits for vertical graphs over the half-space model")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, runner, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("--config",) + flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(runner=runner)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.runner(args, cfg, int(_pick(args.n, cfg, ("n",), 3)))
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
