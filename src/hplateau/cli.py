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
writes.  Any other top-level file key, or an out key for a file it does
not write, exits 2 before any work; nested keys are not checked (a sweep
file may carry radial and grid mesh keys).  A file value of the wrong
JSON type exits 2 as well, as does a fractional number or a boolean for
an integer key and a boolean or a string for a number key; a null one
counts as unset.  --eps with
--eps-schedule exits 2, as does a mesh flag that the run's mesh class
has no field for (--nodes on a grid domain, --lat on n = 2, ...),
except in sweep, whose domains may need either kind.

Exit codes: 0 success, 2 invalid configuration, 3 solver
non-convergence, 4 cone-guard failure, 5 a verification subcommand
found a violation.  Failures also emit one JSON record on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import audit as audit_mod
from . import cones, io
from .domains import config_value, domain_from_config, float_tuple
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

# a failed solve's exit code and sweep status, by error type
_SOLVE_FAILURES = {NewtonDivergenceError: (EXIT_DIVERGED, "newton_divergence"),
                   ConeViolationError: (EXIT_CONE, "cone_violation")}


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


def _check_keys(cfg, subcommand: str) -> None:
    """Refuse file keys that subcommand never reads (module docstring)."""
    out = cfg.get("out", {}) if isinstance(cfg, dict) else None
    if not isinstance(out, dict):
        raise ValueError("the config file and its out entry must be "
                         "JSON objects")
    _, _, flags, keys = _SUBCOMMANDS[subcommand]
    writes = {flag[6:] for flag in flags if flag.startswith("--out-")}
    unread = sorted(set(cfg) - {"n", "out", *keys}) \
        + [f"out.{key}" for key in sorted(set(out) - writes)]
    if unread:
        raise ValueError(f"{subcommand} never reads config keys "
                         f"{', '.join(unread)}")


def _pick(flag, cfg: dict, path: tuple, default=None, kind=None):
    """flag value if given, else nested config value, else default.

    A null config value counts as unset.  A config value goes through
    kind, if given; argparse has already typed the flags.
    """
    if flag is not None:
        return flag
    node = cfg
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    if node is None:
        return default
    return node if kind is None else config_value(kind, node, ".".join(path))


def _build(cls, args, cfg, section: str):
    """A cls dataclass from flags, then cfg[section], then its defaults.

    Each field takes the flag of the same name, else the file value;
    a field set by neither keeps the dataclass default, whose type a
    file value is converted to.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = _pick(getattr(args, f.name, None), cfg, (section, f.name),
                      kind=type(f.default))
        if value is not None:
            kwargs[f.name] = value
    return cls(**kwargs)


def _sigma(args, cfg):
    sigma = _pick(args.sigma, cfg, ("sigma",), kind=float)
    if sigma is None:
        raise ValueError("sigma is required (flag --sigma or config)")
    return sigma


def _out_path(flag, cfg, ext: str, stem: str) -> str:
    path = _pick(flag, cfg, ("out", ext), f"{stem}.{ext}")
    if not isinstance(path, str):
        raise ValueError(f"config key out.{ext} must be a path string, "
                         f"got {path!r}")
    return path


def _resolve_out(args, cfg, stem: str):
    return (_out_path(args.out_csv, cfg, "csv", stem),
            _out_path(args.out_json, cfg, "json", stem))


def _eps_schedule(args, cfg, default=DEFAULT_EPS_SCHEDULE):
    if getattr(args, "eps", None) is not None:
        if getattr(args, "eps_schedule", None) is not None:
            raise ValueError("give --eps or --eps-schedule, not both")
        return (float(args.eps),)
    return _pick(getattr(args, "eps_schedule", None), cfg, ("eps_schedule",),
                 default, float_tuple)


def _domain_from_args(args, cfg, n: int, kind=None):
    """domain_from_config of the file's domain, with kind (else --domain)
    and the domain flags merged over its params, at dimension n."""
    domain = cfg.get("domain", {})
    params = domain.get("params", {}) if isinstance(domain, dict) else None
    if not isinstance(params, dict):
        raise ValueError("config domain and its params must be JSON objects")
    flags = {"radius": getattr(args, "radius", None),
             "semi_axes": getattr(args, "semi_axes", None),
             "samples": getattr(args, "star_samples", None)}
    return domain_from_config({
        "kind": kind or getattr(args, "domain", None)
        or domain.get("kind", "ball"),
        "params": {**params, **{k: v for k, v in flags.items()
                                if v is not None}, "n": n}})


def _solve_config(args, cfg, n: int, sigma, radial: bool) -> SolveConfig:
    if radial:
        mesh_cls = RadialMesh
    else:
        mesh_cls = SphericalGridMesh if n == 3 else PolarGridMesh
    # sweep takes the mesh flags of both kinds, one per domain
    read = {f.name for f in dataclasses.fields(mesh_cls)}
    unread = [flag for flag in ("--nodes",) + _GRID if flag[2:] not in read
              and getattr(args, flag[2:], None) is not None]
    if unread and args.subcommand != "sweep":
        raise ValueError(f"{args.subcommand} never reads {', '.join(unread)} "
                         f"with a {mesh_cls.__name__}")
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
    csv_path, json_path = _resolve_out(args, cfg, args.subcommand)
    config = _solve_config(args, cfg, n, _sigma(args, cfg), radial)
    field = _solve(config, _domain_from_args(args, cfg, n), radial)[-1]
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
    radius = _domain_from_args(args, cfg, n, "ball").radius
    schedule = _eps_schedule(args, cfg, default=(1.0e-2,))
    if not schedule:
        raise ValueError("eps_schedule must be nonempty")
    eps = float(schedule[0])
    nodes = _pick(args.nodes, cfg, ("mesh", "nodes"), RadialMesh.nodes, int)
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


def _sample_cone(args, cfg, n: int, k: int, default_count: int):
    """(rows, count, seed): cone samples from the samples, seed and level
    flags or file keys."""
    count = _pick(args.samples, cfg, ("samples",), default_count, int)
    seed = _pick(args.seed, cfg, ("seed",), 0, int)
    level = _pick(args.level, cfg, ("level",), kind=float)
    rows = cones.sample_cone(n, k, count, seed, level=level)
    return rows, count, seed


def _run_verify_cone(args, cfg, n: int) -> int:
    k = _pick(args.k, cfg, ("k",), n - 1, int)
    rows, count, seed = _sample_cone(args, cfg, n, k, 100000)
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
    rows, count, seed = _sample_cone(args, cfg, n, n - 1, 10000)
    eps_rw = _pick(args.eps_rw, cfg, ("audit", "eps_rw"),
                   audit_mod.AuditConfig.eps_rw, float)
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
    csv_path, json_path = _resolve_out(args, cfg, "audit")
    sigma = _sigma(args, cfg)
    domain = _domain_from_args(args, cfg, n)
    radial = domain.kind == "ball"
    audit_cfg = _build(audit_mod.AuditConfig, args, cfg, "audit")
    fields = _solve(_solve_config(args, cfg, n, sigma, radial), domain,
                    radial)
    bundle = audit_mod.audit_bundle(fields, audit_cfg)

    final = fields[-1]
    rw = bundle["ren_wang"]
    rw_col = np.full(len(final.u), np.nan)
    rw_col[rw.indices] = rw.min_k
    rw_cells = [None if np.isnan(v) else float(v) for v in rw_col]
    io.write_field_csv(final, csv_path,
                       extra={"Q": bundle["estimate"].q, "rw_minK": rw_cells})
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
        return [_domain_from_args(args, cfg, n, kind) for kind in kinds]
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
    csv_path = _out_path(args.out_csv, cfg, "csv", "sweep")
    sigmas = args.sigmas or _pick(None, cfg, ("sigmas",), (), float_tuple)
    schedule = _eps_schedule(args, cfg)
    domains = _sweep_domains(args, cfg, n)
    if not sigmas or not domains or not schedule:
        raise ValueError("sweep needs nonempty domains, sigmas and "
                         "eps_schedule")
    audit_cfg = _build(audit_mod.AuditConfig, args, cfg, "audit")

    rows = []
    code = EXIT_OK
    for domain in domains:
        label = _domain_label(domain)
        radial = domain.kind == "ball"
        for sigma in sigmas:
            config = _solve_config(args, cfg, n, sigma, radial)
            try:
                fields = _solve(config, domain, radial)
            except tuple(_SOLVE_FAILURES) as exc:
                # the largest code wins: cone violation over divergence
                failure, status = _SOLVE_FAILURES[type(exc)]
                code = max(code, failure)
                rows += [{"domain": label, "n": n, "sigma": sigma,
                          "eps": eps, "status": status} for eps in schedule]
                continue
            # one K search over the path's stacked samples; no row reads
            # a verdict, so the eigvalsh check runs in audit alone
            found = audit_mod.rw_min_k_on_path(fields, audit_cfg)
            for fld, (_, _, k_max) in zip(fields, found, strict=True):
                est = audit_mod.estimate_report(fld, audit_cfg,
                                                sweep_exponents=(),
                                                rw_min_k_max=k_max)
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
    io.write_sweep_csv(rows, csv_path)
    print(f"{len(rows)} rows -> {csv_path}")
    return code


# ---------------------------------------------------------------------------
# parser: one spec per flag; flags and top-level file keys per subcommand
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
_SOLVE_KEYS = ("sigma", "eps_schedule", "domain", "mesh", "newton")

_SUBCOMMANDS = {
    "solve-radial": ("radially symmetric solve on a ball", _run_solve,
                     _SOLVE + ("--radius", "--nodes"), _SOLVE_KEYS),
    "solve-grid": ("mapped-grid solve on a domain", _run_solve,
                   _SOLVE + _DOMAIN + _GRID, _SOLVE_KEYS),
    "oracle-cap": ("emit the closed-form cap", _run_oracle_cap,
                   _OUT + ("--n", "--sigma", "--radius", "--eps",
                           "--nodes"),
                   ("sigma", "eps_schedule", "domain", "mesh")),
    "verify-cone": ("sampled Garding-cone inequality checks",
                    _run_verify_cone,
                    ("--out-json", "--n", "--k", "--samples", "--seed",
                     "--level"),
                    ("k", "samples", "seed", "level")),
    "renwang": ("quadratic-form certification over cone samples",
                _run_renwang,
                ("--out-json", "--n", "--samples", "--seed", "--level",
                 "--eps-rw"),
                ("samples", "seed", "level", "audit")),
    "audit": ("solve, then audit the estimates", _run_audit,
              _SOLVE + _DOMAIN + _GRID + ("--nodes",) + _AUDIT,
              _SOLVE_KEYS + ("audit",)),
    "sweep": ("batch solve+audit over a grid", _run_sweep,
              ("--out-csv", "--n", "--sigmas", "--eps-schedule", "--domains",
               "--radius", "--semi-axes", "--star-samples", "--nodes")
              + _GRID + _AUDIT,
              ("sigmas", "eps_schedule", "domains", "domain", "mesh",
               "newton", "audit")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hplateau parser, built once per process: main parses with it
    and changes nothing in it."""
    ap = argparse.ArgumentParser(
        prog="hplateau",
        description="asymptotic Plateau solves and curvature-estimate "
                    "audits for vertical graphs over the half-space model")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, runner, flags, _) in _SUBCOMMANDS.items():
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
        _check_keys(cfg, args.subcommand)
        return args.runner(args, cfg, _pick(args.n, cfg, ("n",), 3, int))
    except tuple(_SOLVE_FAILURES) as exc:
        _emit_error(exc)
        return _SOLVE_FAILURES[type(exc)][0]
    except (ValueError, HPlateauError, OSError) as exc:
        # HPlateauError here: audit preconditions
        _emit_error(exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
