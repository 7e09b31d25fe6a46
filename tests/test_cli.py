import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from nonembed import bvp, cli, gridio


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "nonembed.cli", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_and_file(tmp_path):
    cfg = cli.load_config(None)
    cfg.validate()
    p = tmp_path / "run.cfg"
    p.write_text("quad.tol = 1e-9\nk.max = 6   # comment\nseed = 7\n")
    cfg = cli.load_config(str(p))
    assert cfg.quad_tol == 1e-9 and cfg.k_max == 6 and cfg.seed == 7


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("quad.tolerance = 1e-9\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(p))


def test_config_validation_bounds():
    cfg = cli.RunConfig(quad_tol=10.0)
    with pytest.raises(cli.ConfigError):
        cfg.validate()


def test_broken_tolerance_exits_2(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("quad.tol = 10\n")
    r = run_cli("verify", "all", "--config", str(p), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "quad.tol" in r.stderr


def test_encode_number_overflow():
    from nonembed.logscale import LogScaledReal
    assert cli.encode_number(3.5) == 3.5
    big = cli.encode_number(LogScaledReal(-1, 1000.0))
    assert big == {"sign": -1, "logmag": 1000.0}


def test_check_encodes_numpy_bool_as_json_boolean():
    rec = cli.check("x", "a", True, flag=np.bool_(True))
    assert rec["values"] == {"flag": True}
    assert json.loads(json.dumps(rec))["values"]["flag"] is True


# ---------------------------------------------------------------------------
# grid io / export
# ---------------------------------------------------------------------------

def _sample_field():
    g = bvp.disc_grid(1.0, 24)
    X, Y = g.nodes_xy()
    g.boundary_values = np.where(g.mask == bvp.BOUNDARY, X + 0.5 * Y, 0.0)
    return bvp.solve_laplace_dirichlet(g)


def test_grid_csv_round_trip(tmp_path):
    f = _sample_field()
    p = tmp_path / "field.csv"
    gridio.write_grid_csv(f, p)
    back = gridio.read_grid_csv(p)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.mask, f.grid.mask)
    assert back.grid.h == f.grid.h


def test_grid_csv_header_and_line_endings(tmp_path):
    f = _sample_field()
    p = tmp_path / "field.csv"
    gridio.write_grid_csv(f, p)
    raw = p.read_bytes()
    assert raw.startswith(b"x,y,value\n")
    assert b"\r" not in raw


def test_export_round_trip_byte_identical(tmp_path):
    f = _sample_field()
    src = tmp_path / "field.csv"
    gridio.write_grid_csv(f, src)
    j = tmp_path / "field_as.json"
    c2 = tmp_path / "back.csv"
    assert run_cli("export", str(src), "--format", "json",
                   "--dst", str(j)).returncode == 0
    assert run_cli("export", str(j), "--format", "csv",
                   "--dst", str(c2)).returncode == 0
    assert c2.read_bytes() == src.read_bytes()
    # mask preserved: exterior nodes absent in both
    back = gridio.read_grid_csv(c2)
    assert np.array_equal(back.grid.mask, f.grid.mask)


def test_artifacts_get_mode_from_umask(tmp_path):
    old = os.umask(0o022)
    try:
        cli.cmd_verify("moon", cli.RunConfig(out_dir=str(tmp_path / "o")))
        csv = gridio.write_grid_csv(_sample_field(), tmp_path / "f.csv")
    finally:
        os.umask(old)
    for p in (tmp_path / "o" / "report.json", csv, gridio.sidecar_path(csv)):
        assert stat.S_IMODE(p.stat().st_mode) == 0o644, p


def test_export_missing_sidecar_names_file(tmp_path):
    p = tmp_path / "orphan.csv"
    p.write_text("x,y,value\n0.0,0.0,1.0\n")
    r = run_cli("export", str(p), "--format", "json",
                "--dst", str(tmp_path / "o.json"))
    assert r.returncode == 2
    assert "orphan.json" in r.stderr


def test_export_malformed_input_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"not\": \"a grid\"}")
    r = run_cli("export", str(p), "--format", "csv",
                "--dst", str(tmp_path / "o.csv"))
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# verify / assemble commands
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_verify_g1_passes_and_reports(tmp_path):
    r = run_cli("verify", "g1", "--out", str(tmp_path / "o"))
    assert r.returncode == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["summary"]["overall_pass"]
    assert all("anchor" in c for c in rep["checks"])


@pytest.mark.slow
def test_verify_moon_exit_code_reflects_failures(tmp_path):
    # two checks encode claims the 50-digit oracle refutes; the process
    # exit must signal verification failure
    r = run_cli("verify", "moon", "--out", str(tmp_path / "o"))
    assert r.returncode == 1
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    failed = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert failed == {"legs-identity-residual", "tree-integral-sign"}
    assert rep["K"] == 4


def test_verify_ruled_golden_values(ctx):
    # report values of `verify ruled` at the default config, pinned to
    # the digit: the batched projection and the cached comparison stencil
    # must follow the same iterates as one point and one grid at a time
    vals = {rec["name"]: rec["values"] for rec in cli.verify_ruled(ctx)}
    assert vals["projection-lengths"]["worst_gap"] == 0.13643231542737766
    assert vals["comparison-margins"]["min_margin"] == -4.450502490843666e-09
    assert vals["concavity-epsilon-family"]["deviations"] == [
        0.34987158164598586, 0.18074519106281173, 0.09255104905757339]
    flat = vals["extension-flatness"]
    assert 0.0 < flat["worst_offdiag"] <= 1e-8
    assert 0.0 < flat["worst_det_ratio"] <= 1e-8


@pytest.mark.slow
def test_assemble_annulus_manifest(tmp_path):
    r = run_cli("assemble", "annulus", "--out", str(tmp_path / "a"))
    assert r.returncode == 0
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert len(man["mu"]) == 8 and len(man["eta"]) == 8
    assert (tmp_path / "a" / "annulus_cutoff_profile.json").exists()


@pytest.mark.slow
def test_assemble_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("assemble", "g1", "--out", str(a)).returncode == 0
    assert run_cli("assemble", "g1", "--out", str(b)).returncode == 0
    assert (a / "g1_factor.csv").read_bytes() == (b / "g1_factor.csv").read_bytes()
    assert (a / "g1_curvature.csv").read_bytes() == \
        (b / "g1_curvature.csv").read_bytes()
