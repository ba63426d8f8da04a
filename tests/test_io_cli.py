"""CSV/JSON emission and the command line front end."""

import csv
import json
import math
import pathlib
import re

import numpy as np
import pytest

from hplateau import audit, cli, cones, domains, geometry, io, solver
from hplateau.errors import (AuditPreconditionError, ConePreconditionError,
                             ConeViolationError, GridDegeneracyError,
                             HPlateauError, InvalidHeightError)


@pytest.fixture(scope="module")
def small_field():
    cfg = solver.SolveConfig(n=3, sigma_target=1.5, eps_schedule=(1e-2,),
                             mesh=solver.RadialMesh(51))
    return solver.solve_radial(cfg, domains.make_ball(3, 1.0))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# io primitives
# ---------------------------------------------------------------------------

def test_format_value_round_trips():
    assert io.format_value(True) == "true"
    assert io.format_value(False) == "false"
    assert io.format_value(np.bool_(True)) == "true"
    assert io.format_value(7) == "7"
    assert io.format_value(np.int64(-3)) == "-3"
    assert io.format_value(None) == ""
    assert io.format_value("label") == "label"
    assert io.format_value(float("nan")) == "nan"
    assert io.format_value(float("inf")) == "inf"
    assert io.format_value(float("-inf")) == "-inf"
    for v in (0.1, 1.0 / 3.0, 2.5e-17, -1.2345678901234567):
        assert float(io.format_value(v)) == v


def test_radial_csv_rows(small_field):
    header, rows = io.field_csv_rows(small_field)
    assert header == io.RADIAL_COLUMNS
    rows = list(rows)
    assert len(rows) == 51
    for i in (0, 17, 50):
        cells = rows[i]
        assert float(cells[0]) == small_field.nodes[i]
        assert float(cells[1]) == small_field.u[i]
        assert float(cells[2]) == small_field.meta["du"][i]


def test_grid_csv_rows():
    cfg = solver.SolveConfig(n=2, sigma_target=1.2, eps_schedule=(1e-1,),
                             mesh=solver.PolarGridMesh(8, 16))
    from hplateau import gridsolver
    f = gridsolver.solve_graph(cfg, domains.make_ball(2, 1.0))
    header, rows = io.field_csv_rows(f)
    assert header == ("x1", "x2", "u", "nu_vertical",
                      "kappa_1", "kappa_2", "residual")
    rows = list(rows)
    assert len(rows) == len(f.u)
    assert float(rows[0][2]) == f.u[0]


def test_extra_columns_are_appended(small_field):
    extra = {"Q": np.arange(51.0)}
    header, rows = io.field_csv_rows(small_field, extra=extra)
    assert header == io.RADIAL_COLUMNS + ("Q",)
    assert float(list(rows)[3][-1]) == 3.0


def test_extra_column_of_the_wrong_length_is_an_error(small_field):
    for size in (50, 52):
        header, rows = io.field_csv_rows(small_field,
                                         extra={"Q": np.arange(float(size))})
        with pytest.raises(ValueError):
            list(rows)


def test_write_field_csv_and_sidecar(tmp_path, small_field):
    csv_path = tmp_path / "field.csv"
    io.write_field_csv(small_field, csv_path)
    header, rows = _read_csv(csv_path)
    assert tuple(header) == io.RADIAL_COLUMNS
    assert len(rows) == 51

    json_path = tmp_path / "field.json"
    io.write_sidecar_json(small_field, json_path)
    raw = json_path.read_text()
    assert raw.endswith("\n")
    side = json.loads(raw)
    assert side == {
        "iterations": small_field.convergence.iterations,
        "residual": small_field.convergence.residual,
        "eps": small_field.convergence.eps_bdry,
        "sigma": small_field.convergence.sigma,
        "cone_ok": True,
        "unknowns": 50,
    }


def test_write_json_normalises_payload(tmp_path):
    path = tmp_path / "report.json"
    io.write_json({"b": np.float64(2.0), "a": np.arange(3),
                   "weird": float("nan"), "far": float("inf")}, path)
    text = path.read_text()
    # keys are emitted sorted, so the file is diff-stable
    assert text.index('"a"') < text.index('"b"') < text.index('"far"')
    data = json.loads(text)
    assert data["a"] == [0, 1, 2]
    assert data["weird"] == "nan"
    assert data["far"] == "inf"


def test_sweep_header_shape():
    assert io.sweep_header() == (
        "domain", "n", "sigma", "eps", "max_kappa_interior",
        "max_kappa_boundary", "witness", "nu_min", "Q_max", "rw_minK_max",
        "iterations", "residual", "status")


def test_cap_csv_rows_match_oracle():
    cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
    radii = np.linspace(0.0, 1.0, 9)
    header, rows = io.cap_csv_rows(cap, radii)
    assert header == io.RADIAL_COLUMNS
    rows = list(rows)
    assert len(rows) == 9
    for cells, r in zip(rows, radii):
        assert float(cells[1]) == float(cap.height(r))
        assert float(cells[4]) == cap.lam
        assert float(cells[5]) == cap.lam
        assert float(cells[7]) == 0.0


# ---------------------------------------------------------------------------
# error taxonomy the CLI exit codes rely on
# ---------------------------------------------------------------------------

def test_config_errors_are_value_errors():
    for exc in (ConePreconditionError, InvalidHeightError,
                GridDegeneracyError):
        assert issubclass(exc, ValueError)
        assert issubclass(exc, HPlateauError)
    assert issubclass(AuditPreconditionError, HPlateauError)
    assert not issubclass(ConeViolationError, ValueError)


# ---------------------------------------------------------------------------
# CLI subcommands, in process
# ---------------------------------------------------------------------------

def test_oracle_cap_writes_exact_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["oracle-cap", "--n", "3", "--sigma", "1.5",
                     "--radius", "1.0", "--eps", "0.01",
                     "--nodes", "5"]) == 0
    header, rows = _read_csv(tmp_path / "oracle-cap.csv")
    assert tuple(header) == io.RADIAL_COLUMNS
    cap = geometry.exact_cap(3, 1.5, 1.0, 0.01)
    assert len(rows) == 5
    assert float(rows[-1][0]) == 1.0
    assert float(rows[0][1]) == float(cap.height(0.0))


def test_solve_radial_reproduces_library_call(tmp_path, monkeypatch,
                                              small_field):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve-radial", "--n", "3", "--sigma", "1.5",
                     "--nodes", "51", "--eps", "0.01"]) == 0
    header, rows = _read_csv(tmp_path / "solve-radial.csv")
    for i in (0, 25, 50):
        assert float(rows[i][1]) == small_field.u[i]
    side = json.loads((tmp_path / "solve-radial.json").read_text())
    assert side["cone_ok"] is True
    assert side["sigma"] == 1.5
    assert side["residual"] <= 1e-10


def test_solve_grid_runs_on_polar_mesh(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve-grid", "--domain", "ball", "--n", "2",
                     "--sigma", "1.2", "--radius", "1.0",
                     "--radial", "8", "--angular", "16",
                     "--eps", "0.1"]) == 0
    side = json.loads((tmp_path / "solve-grid.json").read_text())
    assert side["cone_ok"] is True
    # one unknown per orbit of the mirrors and rotations: each of the 7
    # interior rings of 16 nodes is one orbit
    assert side["unknowns"] == 7
    header, rows = _read_csv(tmp_path / "solve-grid.csv")
    assert tuple(header[:2]) == ("x1", "x2")
    assert len(rows) == 8 * 16


def test_verify_cone_reports_zero_violations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify-cone", "--n", "3", "--k", "2",
                     "--samples", "2000", "--seed", "7"]) == 0
    rep = json.loads((tmp_path / "verify-cone.json").read_text())
    assert rep["violations"] == 0
    assert rep["samples"] == 2000
    assert rep["min_second_moment_slack"] >= 0.0


def test_verify_cone_flags_violations(tmp_path, monkeypatch):
    # force rows outside the cone through the sampler to prove the
    # violation exit path (the honest sampler can never produce them)
    monkeypatch.chdir(tmp_path)
    bad = np.array([[1.0, -2.0, -3.0], [1.0, 0.5, 0.25]])
    monkeypatch.setattr(cli.cones, "sample_cone",
                        lambda n, k, count, seed, level=None: bad)
    assert cli.main(["verify-cone", "--n", "3", "--k", "2",
                     "--samples", "2"]) == 5
    rep = json.loads((tmp_path / "verify-cone.json").read_text())
    assert rep["violations"] >= 1


def test_renwang_certifies_sampled_spectra(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["renwang", "--n", "3", "--samples", "64",
                     "--level", "1.0", "--seed", "3"]) == 0
    rep = json.loads((tmp_path / "renwang.json").read_text())
    assert rep["uncertified"] == 0
    assert rep["min_k_low"] <= rep["min_k_median"] <= rep["min_k_max"]
    assert math.isfinite(rep["min_k_max"])


def test_audit_subcommand_bundles_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    searches = []
    real = cones.ren_wang_min_k_batch

    def counted(rows, eps_rw, **kwargs):
        searches.append(len(rows))
        return real(rows, eps_rw, **kwargs)

    monkeypatch.setattr(cones, "ren_wang_min_k_batch", counted)
    assert cli.main(["audit", "--domain", "ball", "--n", "3",
                     "--sigma", "1.5", "--nodes", "101",
                     "--eps-schedule", "0.1,0.01"]) == 0
    rep = json.loads((tmp_path / "audit.json").read_text())
    assert rep["ok"] is True
    assert rep["nu_lower_bound"]["ok"] is True
    assert rep["curvature_bound"]["ok"] is True
    assert rep["ren_wang"]["certified_at_max"] is True
    # the per-sample K stays out of the JSON record
    assert set(rep["ren_wang"]) == {"sampled", "min_k_low", "min_k_median",
                                    "min_k_max", "certified_at_max", "ok"}
    header, rows = _read_csv(tmp_path / "audit.csv")
    assert "Q" in header and "rw_minK" in header
    # the CSV column reuses the bundle's one K search
    assert searches == [rep["ren_wang"]["sampled"]]
    col = header.index("rw_minK")
    ks = [float(r[col]) for r in rows if r[col]]
    assert len(ks) == rep["ren_wang"]["sampled"]
    assert max(ks) == rep["ren_wang"]["min_k_max"]


def test_sweep_rows_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--domains", "ball", "--n", "3", "--sigmas", "1.0",
            "--eps-schedule", "0.1,0.01", "--nodes", "51"]
    assert cli.main(argv + ["--out-csv", "a.csv"]) == 0
    assert cli.main(argv + ["--out-csv", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header, rows = _read_csv(tmp_path / "a.csv")
    assert tuple(header) == io.sweep_header()
    assert len(rows) == 2  # one row per scheduled eps
    eps_col = header.index("eps")
    status_col = header.index("status")
    assert [r[eps_col] for r in rows] == ["0.1", "0.01"]
    assert all(r[status_col] == "ok" for r in rows)


SWEEP_BALL = ["sweep", "--domains", "ball", "--n", "3", "--sigmas",
              "1.0,1.5", "--eps-schedule", "0.1,0.01", "--nodes", "51"]


def test_sweep_runs_no_certification(tmp_path, monkeypatch):
    # no sweep row reads a verdict: with the eigvalsh check broken the
    # sweep exits 0 and writes the bytes of an unbroken run
    monkeypatch.chdir(tmp_path)
    assert cli.main(SWEEP_BALL + ["--out-csv", "a.csv"]) == 0

    def broken(M):
        raise AssertionError("sweep ran the eigvalsh check")

    monkeypatch.setattr(cones, "_certified_batch", broken)
    assert cli.main(SWEEP_BALL + ["--out-csv", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_audit_still_certifies(tmp_path, monkeypatch):
    # audit reads the verdict: a check that certifies nothing exits 5
    monkeypatch.chdir(tmp_path)

    def refuses(M):
        return np.zeros(len(M), dtype=bool), np.full(len(M), -1.0)

    monkeypatch.setattr(cones, "_certified_batch", refuses)
    assert cli.main(["audit", "--domain", "ball", "--n", "3",
                     "--sigma", "1.5", "--nodes", "51"]) == 5
    rep = json.loads((tmp_path / "audit.json").read_text())
    assert rep["ren_wang"]["certified_at_max"] is False
    assert rep["ren_wang"]["ok"] is False and rep["ok"] is False


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sweep_rw_column_is_rw_on_solution(tmp_path, monkeypatch, n):
    # each row's rw_minK_max is rw_on_solution's min_k_max on its field
    monkeypatch.chdir(tmp_path)
    paths = []
    real = cli._solve

    def recorded(*args):
        paths.append(real(*args))
        return paths[-1]

    monkeypatch.setattr(cli, "_solve", recorded)
    assert cli.main(["sweep", "--domains", "ball", "--n", str(n),
                     "--sigmas", str(0.5 * n), "--nodes", "101"]) == 0
    (fields,) = paths
    header, rows = _read_csv(tmp_path / "sweep.csv")
    got = {float(r[header.index("eps")]): float(r[header.index("rw_minK_max")])
           for r in rows}
    assert len(got) == len(fields) == 4
    cfg = audit.AuditConfig()
    for f in fields:
        assert got[f.convergence.eps_bdry] \
            == audit.rw_on_solution(f, cfg).min_k_max


def test_sweep_config_domains_take_the_sweep_dimension(tmp_path, monkeypatch):
    # a ball listed without its own n is built at the sweep's n, here 2
    monkeypatch.chdir(tmp_path)
    cfg = {"domains": [{"kind": "ball", "params": {"radius": 1.0}}],
           "sigmas": [1.0], "eps_schedule": [0.1], "mesh": {"nodes": 51}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--n", "2", "--config", "cfg.json"]) == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r[header.index("n")] for r in rows] == ["2"]
    assert rows[0][header.index("status")] == "ok"


def test_sweep_witness_column(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--domains", "ball", "--n", "3",
                     "--sigmas", "1.5", "--eps-schedule", "0.1",
                     "--nodes", "51"]) == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["witness"]) == (float(row["max_kappa_interior"])
                                     - audit.BOUND_C2
                                     * float(row["max_kappa_boundary"]))


def test_sweep_domains_flag_beats_config_list(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"domains": [{"kind": "ellipsoid",
                        "params": {"semi_axes": [1.3, 1.0]}}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--n", "2", "--domains", "ball",
                     "--nodes", "51", "--sigmas", "1.0",
                     "--eps-schedule", "0.1", "--config", "cfg.json"]) == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r[header.index("domain")] for r in rows] == ["ball:1.0"]


def test_sweep_newton_settings_come_from_the_file(tmp_path, monkeypatch):
    # sweep has no --max-iters; only the file reaches its Newton settings
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps({"newton": {"max_iters": 1}}))
    assert cli.main(["sweep", "--domains", "ball", "--n", "3",
                     "--sigmas", "1.5", "--nodes", "51",
                     "--eps-schedule", "0.1", "--config", "f.json"]) == 3
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r[header.index("status")] for r in rows] == ["newton_divergence"]


def test_audit_test_exponent_flag_beats_file(tmp_path, monkeypatch,
                                             small_field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps({"audit": {"N": 5}}))
    argv = ["audit", "--n", "3", "--sigma", "1.5", "--nodes", "51",
            "--eps", "0.01", "--config", "f.json"]
    for extra, exponent in (([], 5.0), (["--test-exponent", "50"], 50.0)):
        assert cli.main(argv + extra) == 0
        header, rows = _read_csv(tmp_path / "audit.csv")
        q = [float(r[header.index("Q")]) for r in rows]
        expected = audit.test_function_field(
            small_field, audit.AuditConfig(N=exponent))
        assert q == expected.tolist()


def test_config_file_layering(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "n": 3, "sigma": 1.0,
        "domain": {"kind": "ball", "params": {"n": 3, "radius": 1.0}},
        "eps_schedule": [0.1],
        "mesh": {"nodes": 51},
        "out": {"csv": "cfg_out.csv", "json": "cfg_out.json"},
    }
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert cli.main(["solve-radial", "--config", "run.json"]) == 0
    side = json.loads((tmp_path / "cfg_out.json").read_text())
    assert side["sigma"] == 1.0
    # a flag wins over the file
    assert cli.main(["solve-radial", "--config", "run.json",
                     "--sigma", "1.5"]) == 0
    side = json.loads((tmp_path / "cfg_out.json").read_text())
    assert side["sigma"] == 1.5


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def _stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_invalid_sigma_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve-radial", "--n", "3", "--sigma", "5.0",
                     "--nodes", "51"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert "sigma" in rec["message"]


@pytest.mark.parametrize("argv,key", [
    (["renwang", "--n", "3", "--samples", "100", "--eps-rw", "0"], "eps_rw"),
    (["renwang", "--n", "3", "--samples", "100", "--eps-rw", "-1"], "eps_rw"),
    (["solve-radial", "--n", "3", "--sigma", "1.5", "--nodes", "51",
      "--residual-tol", "-1"], "residual_tol"),
    (["solve-radial", "--n", "3", "--sigma", "1.5", "--nodes", "51",
      "--max-iters", "0"], "max_iters"),
], ids=["eps-rw-0", "eps-rw-neg", "residual-tol-neg", "max-iters-0"])
def test_nonpositive_numeric_settings_exit_2(tmp_path, monkeypatch, capsys,
                                             argv, key):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert key in rec["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve-radial", "--n", "3", "--sigma", "1.5", "--nodes", "51"],
    ["solve-grid", "--n", "2", "--sigma", "1.0", "--radial", "8",
     "--angular", "16"],
    ["audit", "--n", "3", "--sigma", "1.5", "--nodes", "51"],
], ids=["solve-radial", "solve-grid", "audit"])
def test_eps_with_eps_schedule_exits_2(tmp_path, monkeypatch, capsys, argv):
    # neither flag silently replaces the other
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--eps", "0.01",
                            "--eps-schedule", "0.1,0.05"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert "--eps or --eps-schedule" in rec["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flags", [
    (["solve-grid", "--n", "2", "--domain", "ball", "--sigma", "1.0",
      "--radial", "8", "--angular", "16", "--lat", "99", "--lon", "7"],
     ["--lat", "--lon"]),
    (["solve-grid", "--n", "3", "--domain", "ball", "--sigma", "1.5",
      "--radial", "8", "--lat", "8", "--lon", "16", "--angular", "3"],
     ["--angular"]),
    (["audit", "--n", "3", "--domain", "ball", "--sigma", "1.5",
      "--nodes", "51", "--radial", "8"], ["--radial"]),
    (["audit", "--n", "2", "--domain", "ellipsoid", "--semi-axes", "1.3,1.0",
      "--sigma", "1.0", "--radial", "8", "--angular", "16", "--nodes", "51"],
     ["--nodes"]),
], ids=["n2-lat-lon", "n3-angular", "audit-ball-radial", "audit-grid-nodes"])
def test_mesh_flag_the_run_never_reads_exits_2(tmp_path, monkeypatch, capsys,
                                               argv, flags):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert rec["message"].split(" never reads ")[1].split(" with ")[0] \
        == ", ".join(flags)
    assert not list(tmp_path.iterdir())


def test_sweep_takes_mesh_flags_of_both_kinds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--domains", "ball", "--n", "2",
                     "--sigmas", "1.0", "--eps-schedule", "0.1",
                     "--nodes", "51", "--radial", "8", "--angular", "16"]) == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert [r[header.index("status")] for r in rows] == ["ok"]


@pytest.mark.parametrize("domain", [5, {"kind": "ball", "params": 5}],
                         ids=["domain", "params"])
@pytest.mark.parametrize("argv", [
    ["solve-grid", "--n", "2", "--sigma", "1.0", "--radial", "8",
     "--angular", "16"],
    ["oracle-cap", "--n", "3", "--sigma", "1.5", "--nodes", "5"],
], ids=["solve-grid", "oracle-cap"])
def test_non_object_config_domain_exits_2(tmp_path, monkeypatch, capsys,
                                          domain, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.json").write_text(json.dumps({"domain": domain}))
    assert cli.main(argv + ["--config", "d.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert "JSON objects" in rec["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["d.json"]


def test_solve_radial_rejects_a_non_ball_config_domain(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    cfg = {"n": 2, "sigma": 1.0, "eps_schedule": [0.1], "mesh": {"nodes": 51},
           "domain": {"kind": "ellipsoid",
                      "params": {"semi_axes": [1.3, 1.0]}}}
    (tmp_path / "e.json").write_text(json.dumps(cfg))
    assert cli.main(["solve-radial", "--config", "e.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec == {"error": "ValueError",
                   "message": "solve_radial requires a ball domain"}
    assert not (tmp_path / "solve-radial.csv").exists()


def test_oracle_cap_empty_schedule_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.json").write_text(json.dumps({"eps_schedule": []}))
    assert cli.main(["oracle-cap", "--n", "3", "--sigma", "1.5",
                     "--config", "e.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert "eps_schedule" in rec["message"]


@pytest.mark.parametrize("kind,key", [("ellipsoid", "semi_axes"),
                                      ("star", "samples")])
def test_sweep_domain_entry_missing_key_exits_2(tmp_path, monkeypatch, capsys,
                                                kind, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.json").write_text(json.dumps({"domains": [{"kind": kind}]}))
    assert cli.main(["sweep", "--n", "2", "--sigmas", "1.0",
                     "--config", "e.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert key in rec["message"]


@pytest.mark.parametrize("domains", [["ball"], [{"kind": "ball", "params": 1}],
                                     {"kind": "ball"}],
                         ids=["entry", "params", "not-a-list"])
def test_sweep_non_object_domain_entry_exits_2(tmp_path, monkeypatch, capsys,
                                               domains):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.json").write_text(json.dumps({"domains": domains}))
    assert cli.main(["sweep", "--n", "2", "--sigmas", "1.0",
                     "--config", "e.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert "domains" in rec["message"]


def test_missing_config_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve-radial", "--config", "nope.json"]) == 2
    assert _stderr_record(capsys)["error"] == "FileNotFoundError"


def test_divergence_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve-radial", "--n", "3", "--sigma", "1.5",
                     "--nodes", "51", "--eps", "0.01",
                     "--max-iters", "1"]) == 3
    assert _stderr_record(capsys)["error"] == "NewtonDivergenceError"


def test_cone_violation_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def raiser(cfg, dom):
        raise ConeViolationError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "solve_radial_path", raiser)
    assert cli.main(["solve-radial", "--n", "3", "--sigma", "1.5",
                     "--nodes", "51"]) == 4
    assert _stderr_record(capsys)["error"] == "ConeViolationError"


def _column(path, name):
    header, rows = _read_csv(path)
    return [r[header.index(name)] for r in rows]


@pytest.mark.parametrize("argv,rows", [
    # the (3, 1) ellipse leaves the cone on this mesh at every eps
    (["--domains", "ellipsoid", "--sigmas", "0.01"],
     [("ellipsoid:3.0;1.0", "cone_violation")] * 2),
    # with it, the 1601-node ball stalls at sigma 0.01: the sweep exits
    # with the cone code
    (["--domains", "ball,ellipsoid", "--sigmas", "0.01", "--nodes", "1601"],
     [("ball:1.0", "newton_divergence")] * 2
     + [("ellipsoid:3.0;1.0", "cone_violation")] * 2),
], ids=["cone", "cone_outranks_divergence"])
def test_sweep_cone_violation_exits_4(tmp_path, monkeypatch, argv, rows):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--semi-axes", "3,1", "--n", "2", "--radial",
                     "8", "--angular", "16", "--eps-schedule", "0.1,0.01"]
                    + argv) == 4
    path = tmp_path / "sweep.csv"
    assert list(zip(_column(path, "domain"), _column(path, "status"))) == rows


def test_sweep_labels_a_star_domain(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--domains", "star", "--star-samples",
                     "1.0,1.08,1.0,0.94,1.0,1.08,1.0,0.94", "--n", "2",
                     "--sigmas", "1.2", "--radial", "8", "--angular", "16",
                     "--eps-schedule", "0.1"]) == 0
    path = tmp_path / "sweep.csv"
    assert _column(path, "domain") == ["star:8pts"]
    assert _column(path, "status") == ["ok"]


@pytest.mark.parametrize("argv,message,unwritten", [
    (["solve-radial", "--n", "3"], "sigma is required", "solve-radial.csv"),
    (["sweep", "--domains", "ball", "--n", "3", "--nodes", "51"], "sigmas",
     "sweep.csv"),
], ids=["solve-radial", "sweep"])
def test_missing_sigma_exits_2(tmp_path, monkeypatch, capsys, argv, message,
                               unwritten):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert message in rec["message"]
    assert not (tmp_path / unwritten).exists()


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--domains", "ball", "--n", "2", "--sigmas", "1.0",
     "--nodes", "51", "--out-json", "s.json"],
    ["verify-cone", "--n", "3", "--samples", "10", "--out-csv", "v.csv"],
    ["renwang", "--n", "3", "--samples", "10", "--out-csv", "r.csv"],
], ids=["sweep", "verify-cone", "renwang"])
def test_output_flag_a_subcommand_never_writes_exits_2(tmp_path, monkeypatch,
                                                        argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cfg", [
    {"sigma_path": [1.5, 1.0], "out": {"csv": "x.csv"}},
    {"sigma_path": [1.5, 1.0]},
    {"out": {"csv": "x.csv"}},
], ids=["both", "top-level", "out"])
def test_config_key_a_subcommand_never_reads_exits_2(tmp_path, monkeypatch,
                                                      capsys, cfg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.main(["verify-cone", "--n", "3", "--samples", "10",
                     "--config", "c.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    for key in ("sigma_path", "out.csv"):
        assert (key in rec["message"]) == (key.split(".")[-1] in str(cfg))
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("cfg", [["k"], {"out": "x.json"}],
                         ids=["file", "out"])
def test_non_object_config_exits_2(tmp_path, monkeypatch, capsys, cfg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.main(["verify-cone", "--n", "3", "--samples", "10",
                     "--config", "c.json"]) == 2
    assert "JSON objects" in _stderr_record(capsys)["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


_SWEEP = ["sweep", "--domains", "ball", "--n", "2", "--nodes", "51",
          "--eps-schedule", "0.1"]
_RADIAL = ["solve-radial", "--n", "3", "--sigma", "1.5", "--nodes", "51"]


@pytest.mark.parametrize("argv,cfg,key", [
    (_SWEEP, {"sigmas": 1.5}, "sigmas"),
    (_RADIAL, {"eps_schedule": 0.1}, "eps_schedule"),
    (["oracle-cap", "--sigma", "1.5"], {"n": [3]}, "n"),
    (["solve-radial", "--n", "3", "--sigma", "1.5"],
     {"mesh": {"nodes": [401]}}, "mesh.nodes"),
    (["verify-cone", "--n", "3", "--samples", "10"], {"seed": {}}, "seed"),
    (["audit", "--domain", "ball", "--n", "3", "--sigma", "1.5",
      "--nodes", "51"], {"audit": {"N": [1]}}, "audit.N"),
    (["sweep", "--n", "2", "--sigmas", "1.0", "--nodes", "51"],
     {"domains": [{"kind": "ball", "params": {"radius": [1.0]}}]},
     "params.radius"),
    (["oracle-cap", "--n", "3", "--sigma", "1.5", "--nodes", "5"],
     {"out": {"json": 1}}, "out.json"),
], ids=["sigmas", "eps_schedule", "n", "mesh-nodes", "seed", "audit-N",
        "domains-radius", "out-json"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, monkeypatch,
                                                capsys, argv, cfg, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.main(argv + ["--config", "c.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert f"config key {key}" in rec["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


_CAP = ["oracle-cap", "--sigma", "1.0"]


@pytest.mark.parametrize("argv,cfg,key", [
    (_CAP, {"mesh": {"nodes": 51.9}, "n": 2.7}, "n"),
    (_CAP + ["--n", "2"], {"mesh": {"nodes": 51.9}}, "mesh.nodes"),
    (_RADIAL, {"newton": {"max_iters": 2.5}}, "newton.max_iters"),
    (_RADIAL, {"newton": {"max_iters": True}}, "newton.max_iters"),
    (["verify-cone", "--n", "3", "--samples", "10"], {"seed": False}, "seed"),
    (["sweep", "--n", "2", "--sigmas", "1.0", "--nodes", "51"],
     {"domains": [{"kind": "ball", "params": {"n": 2.5}}]}, "params.n"),
], ids=["n", "mesh-nodes", "newton-fraction", "newton-bool", "seed-bool",
        "domains-n"])
def test_integer_config_key_refuses_fractions_and_booleans(
        tmp_path, monkeypatch, capsys, argv, cfg, key):
    # an integer key is converted exactly or refused, never truncated
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.main(argv + ["--config", "c.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert f"config key {key}: expected an integer" in rec["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("argv,cfg,key", [
    (["oracle-cap", "--n", "3"], {"sigma": True}, "sigma"),
    (["oracle-cap", "--n", "3", "--sigma", "1.5"], {"eps_schedule": ["0.01"]},
     "eps_schedule"),
    (["oracle-cap", "--n", "3", "--sigma", "1.5"],
     {"domain": {"params": {"radius": "1.0"}}}, "params.radius"),
    (_RADIAL, {"newton": {"residual_tol": "1e-10"}}, "newton.residual_tol"),
    (["renwang", "--n", "3", "--samples", "10"], {"audit": {"eps_rw": True}},
     "audit.eps_rw"),
    (["verify-cone", "--n", "3", "--samples", "10"], {"level": "1.0"},
     "level"),
    (["sweep", "--n", "2", "--nodes", "51"], {"sigmas": [1.0, False]},
     "sigmas"),
    (["solve-grid", "--n", "3", "--domain", "ellipsoid", "--sigma", "1.0"],
     {"domain": {"params": {"semi_axes": [1.3, True, 1.0]}}},
     "params.semi_axes"),
], ids=["sigma-bool", "eps-string", "radius-string", "residual-tol-string",
        "eps-rw-bool", "level-string", "sigmas-bool", "semi-axes-bool"])
def test_float_config_key_refuses_booleans_and_strings(
        tmp_path, monkeypatch, capsys, argv, cfg, key):
    # float() would read true as 1.0 and "0.01" as 0.01; a float key
    # takes a JSON number only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli.main(argv + ["--config", "c.json"]) == 2
    rec = _stderr_record(capsys)
    assert rec["error"] == "ValueError"
    assert f"config key {key}: expected a number" in rec["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_integral_float_config_key_is_that_integer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"mesh": {"nodes": 51.0},
                                                 "n": 2.0}))
    assert cli.main(_CAP + ["--config", "c.json"]) == 0
    assert json.loads((tmp_path / "oracle-cap.json").read_text())["n"] == 2
    assert len((tmp_path / "oracle-cap.csv").read_text().splitlines()) == 52


README =pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_key_table():
    """{subcommand: (top-level config keys, out keys)} from the README's
    key table; "the `solve-grid` keys" expands to that row."""
    table = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not re.fullmatch(r"`[a-z-]+`", cells[0]):
            continue
        keys = set()
        for row in re.findall(r"the `([a-z-]+)` keys", cells[1]):
            keys |= table[row][0]
        cell = re.sub(r"the `[a-z-]+` keys|\([^)]*\)", "", cells[1])
        keys |= {token.split(":")[0] for token in re.findall(r"`([^`]*)`",
                                                             cell)}
        table[cells[0].strip("`")] = (keys,
                                      set(re.findall(r"`(\w+)`", cells[2])))
    return table


def test_every_readme_config_key_is_accepted():
    table = _readme_key_table()
    assert set(table) == set(cli._SUBCOMMANDS)
    for name, (keys, outs) in table.items():
        cfg = dict.fromkeys(keys | {"n"})
        cfg["out"] = dict.fromkeys(outs, "f")
        cli._check_keys(cfg, name)
        assert keys == set(cli._SUBCOMMANDS[name][3]), name
