"""Deterministic CSV and JSON emission.

Floats are written with repr(), Python's shortest round-trip decimal
form, so identical runs produce identical bytes.  Column orders are
fixed here and documented in the README; JSON objects are emitted with
sorted keys and no trailing whitespace.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .solver import SolutionField

__all__ = ["format_value", "write_csv", "field_csv_rows", "write_field_csv",
           "write_sidecar_json", "write_json", "sweep_header",
           "write_sweep_csv", "cap_csv_rows"]

RADIAL_COLUMNS = ("r", "u", "du", "d2u", "kappa_rad", "kappa_ang",
                  "nu_vertical", "residual")


def format_value(x) -> str:
    if type(x) is float:   # most cells: field_csv_rows passes Python floats
        return repr(x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    # repr spells the non-finite floats "nan", "inf" and "-inf"
    return repr(float(x))


def _grid_columns(n: int) -> tuple:
    coords = tuple(f"x{i + 1}" for i in range(n))
    kappas = tuple(f"kappa_{i + 1}" for i in range(n))
    return coords + ("u", "nu_vertical") + kappas + ("residual",)


def field_csv_rows(field: SolutionField, extra: dict | None = None):
    """(header, row iterator) for one solved field.

    extra maps column name -> per-node array or list (None entries become
    empty cells); extra columns are appended after the fixed ones.  A
    column of the wrong length raises ValueError as the rows are read.
    """
    extra = extra or {}
    kind = field.meta.get("kind")
    if kind == "radial":
        header = RADIAL_COLUMNS
        cols = [np.asarray(field.nodes, dtype=float).ravel(), field.u,
                field.meta["du"], field.meta["d2u"],
                field.meta["kappa_rad"], field.meta["kappa_ang"],
                field.nu_vertical, field.residual_field]
    else:
        n = field.domain.n
        header = _grid_columns(n)
        nodes = np.asarray(field.nodes, dtype=float)
        cols = [nodes[:, i] for i in range(n)]
        cols += [field.u, field.nu_vertical]
        cols += [field.spectra[:, i] for i in range(n)]
        cols += [field.residual_field]
    # Python floats format faster than numpy scalars, to the same repr
    cols = [c.tolist() if isinstance(c, np.ndarray) else c
            for c in (*cols, *extra.values())]
    return header + tuple(extra), zip(*cols, strict=True)


def write_csv(path, header, rows):
    """One header line, then one line of format_value cells per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")


def write_field_csv(field: SolutionField, path, extra: dict | None = None):
    write_csv(path, *field_csv_rows(field, extra))


def write_sidecar_json(field: SolutionField, path):
    payload = {
        "iterations": field.convergence.iterations,
        "residual": field.convergence.residual,
        "eps": field.convergence.eps_bdry,
        "sigma": field.convergence.sigma,
        "cone_ok": bool(field.cone_ok),
        "unknowns": field.meta["unknowns"],
    }
    write_json(payload, path)


def _jsonable(obj):
    """Plain JSON material; dataclass fields with metadata json=False are
    left out."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.metadata.get("json", True)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else format_value(v)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(payload, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def sweep_header() -> tuple:
    return ("domain", "n", "sigma", "eps", "max_kappa_interior",
            "max_kappa_boundary", "witness", "nu_min", "Q_max",
            "rw_minK_max", "iterations", "residual", "status")


def write_sweep_csv(rows, path):
    """rows: iterable of dicts keyed by sweep_header names."""
    header = sweep_header()
    write_csv(path, header, ([row.get(k) for k in header] for row in rows))


def cap_csv_rows(cap, radii) -> tuple:
    """Radial-format rows for the closed-form cap (residual identically 0)."""
    radii = np.asarray(radii, dtype=float)
    u = cap.height(radii)
    du = cap.height_d1(radii)
    d2u = cap.height_d2(radii)
    nu = cap.nu(radii)
    lam = np.full_like(radii, cap.lam)
    zero = np.zeros_like(radii)
    return RADIAL_COLUMNS, zip(radii, u, du, d2u, lam, lam, nu, zero,
                               strict=True)
