import dataclasses
import hashlib
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nonembed import assembly, bvp, cli, conformal, gridio, mollify, ruled

from gridsolve import disc_grid, solve_laplace_dirichlet


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
    # each bound value passes and each value beyond it fails, naming the
    # key; zero chords would pass vacuously, and a resolution below 16 or
    # odd would run at another resolution than the report echoes
    cases = [
        ("quad.tol", "quad_tol", 1e-2, [math.nextafter(1e-2, 1.0), 10.0]),
        ("k.max", "k_max", 1, [0]),
        ("grid.h", "grid_h", 1e-4, [math.nextafter(1e-4, 0.0)]),
        ("grid.h", "grid_h", 2.2 / 64, [math.nextafter(2.2 / 64, 1.0)]),
        ("pentagon.resolution", "pentagon_resolution", 16, [-4, 14, 15, 193]),
        ("delta.steps", "delta_steps", 1, [0]),
        ("margin.frac", "margin_frac", 5e-324, [0.0]),
        ("seed", "seed", 0, [-1]),
        ("chords.count", "n_chords", 1, [0]),
        ("truncation.nmax", "n_max", 1, [0]),
        ("annulus.nmax", "annulus_n_max", 2, [1]),
        ("annulus.nmax", "annulus_n_max", 16, [17]),
        ("ruled.tau", "ruled_tau", math.nextafter(1.0, 0.0), [1.0]),
        ("ruled.eps", "ruled_eps", 5e-324, [0.0]),
    ]
    for key, field, edge, beyond in cases:
        cli.RunConfig(**{field: edge}).validate()
        for value in beyond:
            with pytest.raises(cli.ConfigError, match=re.escape(key)):
                cli.RunConfig(**{field: value}).validate()
    # the coarsest grid.h samples the tail at the old clamp's 64 cells
    assert cli.RunConfig(grid_h=2.2 / 64).tail_grid_n == 64


def test_broken_tolerance_exits_2(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("quad.tol = 10\n")
    r = run_cli("verify", "all", "--config", str(p), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "quad.tol" in r.stderr


@pytest.mark.parametrize("key, value", [
    ("seed", "-3"), ("margin.frac", "nan"), ("margin.frac", "inf"),
    ("ruled.eps", "nan"), ("ruled.eps", "0"), ("ruled.eps", "-0.05"),
    ("delta.steps", "0"), ("annulus.nmax", "40"), ("annulus.nmax", "24"),
    ("annulus.nmax", "1"), ("k.max", "3.5"), ("k.max", "2"),
    ("grid.h", "0.05"), ("quad.tol", "inf"),
    ("truncation.nmax", "4"), ("truncation.nmax", "12"), ("ruled.eps", "5"),
    ("ruled.eps", "1"), ("ruled.eps", "0.28"),
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, key, value):
    # k.max = 2 is a valid value with no K that satisfies the sign
    # conditions, truncation.nmax = 4 one whose smallest pocket the g1
    # grid cannot resolve, and ruled.eps = 0.28, 1 and 5 ones whose
    # generated rulings fold (at 0.28 those of the first secant pass
    # only, on which Newton for s(x1, x2) still converges), found in the
    # forked lane (which the autouse fixture checks is reaped): those
    # outcomes also name their key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "o"
    assert cli.main(["verify", "all", "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert re.match(rf"error: {re.escape(key)}\b", capsys.readouterr().err)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key, value, target", [
    ("quad.tol", "1e-2", "moon"), ("k.max", "1", "moon"),
    ("grid.h", repr(2.2 / 64), "tail"), ("pentagon.resolution", "16", "tail"),
    ("delta.steps", "1", "tail"), ("margin.frac", "5e-324", "tail"),
    ("seed", "0", "moon"), ("chords.count", "1", "moon"),
    ("truncation.nmax", "1", "g1"), ("annulus.nmax", "2", "annulus"),
    ("annulus.nmax", "16", "annulus"), ("ruled.tau", "1e-3", "ruled"),
    ("ruled.tau", repr(math.nextafter(1.0, 0.0)), "ruled"),
    ("ruled.eps", "5e-324", "ruled"),
])
def test_each_numeric_key_runs_at_its_cheap_ends(tmp_path, capsys, key, value,
                                                 target):
    """Each numeric key at each end of its domain that runs in about a
    second, through the cheapest target that reads it: exit 0 or 1, or 2
    with the key named before the message's first colon.  The ends not
    run here: grid.h = 1e-4, 22,001^2 tail nodes at about 54 B each, some
    26 GB by README's arithmetic; pentagon.resolution, k.max,
    margin.frac, delta.steps, seed and chords.count, which have no upper
    end (resolution 768 alone would take about 0.7 GB); and quad.tol near
    its open end 0, where at 1e-16 the K scan runs 4 s and exits 2 with
    a pipeline error that does not name quad.tol."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code = cli.main(["verify", target, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 1) or code == 2 and re.match(
        rf"error: [^:]*\b{re.escape(key)}\b", err), (code, err)


def test_truncation_nmax_bounds_only_the_g1_targets(ctx, tmp_path, capsys,
                                                   monkeypatch):
    out = tmp_path / "g1"
    assert cli.main(["assemble", "g1", "--nmax", "4", "--out", str(out)]) == 2
    assert re.match(r"error: truncation\.nmax\b", capsys.readouterr().err)
    assert not out.exists()
    assert cli.main(["verify", "g1", "--nmax", "3",
                     "--out", str(tmp_path / "v")]) == 0
    # gII reads truncation.nmax too, and has no such bound
    monkeypatch.setattr(cli, "PipelineContext", lambda cfg: ctx)
    assert cli.main(["assemble", "gII", "--nmax", "4",
                     "--out", str(tmp_path / "gII")]) == 0


def test_annulus_claims_run_at_the_largest_annulus_nmax(ctx):
    at16 = cli.PipelineContext(cli.RunConfig(annulus_n_max=16))
    at16.tail = ctx.tail
    recs = cli.verify_annulus(at16)
    assert [r["name"] for r in recs] == [
        "cutoff-weight-bound", "cutoff-partial-sums-cauchy",
        "annulus-curvature-negative", "origin-flatness"]
    assert all(r["pass"] for r in recs)
    assert recs[3]["values"]["derivative_magnitudes"] == [0.0] * 5
    assert len(recs[2]["values"]["worst_K_per_annulus"]) == 6


def test_annulus_targets_solve_no_pentagon(ctx, tail4, tmp_path,
                                           monkeypatch):
    """The annulus claims evaluate their plantings' rotation sums only off
    the supports, so `verify annulus` and `assemble annulus` build no
    tail, and the records equal those of a context whose tail is built."""
    def no_pentagon(*args, **kwargs):
        raise AssertionError("the pentagon was solved")

    monkeypatch.setattr(bvp, "select_N", no_pentagon)
    fresh = cli.PipelineContext(cli.RunConfig())
    assert cli.verify_annulus(fresh) == cli.verify_annulus(ctx)
    assert "tail" not in vars(fresh)
    assert cli.cmd_assemble("annulus", cli.RunConfig(out_dir=str(tmp_path))) == 0


def test_readme_names_exactly_the_declared_keys_and_flags(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head = "| Key | Flag | Must be | Memory |\n| --- | --- | --- | --- |\n"
    table = readme.split(head, 1)[1].split("\n\n", 1)[0]
    rows = [[c.strip().strip("`") for c in line.strip("|").split("|")]
            for line in table.splitlines()]
    declared = [f.metadata for f in dataclasses.fields(cli.RunConfig)]
    assert all(len(r) == 4 for r in rows)  # the memory column is free text
    assert [r[:3] for r in rows] == [
        [m["key"], m["flag"] or "", m["domain"] or ""] for m in declared]
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    usage = capsys.readouterr().out
    for m in declared:
        if m["flag"]:
            assert re.search(rf"{m['flag']} \S+\s+sets config key "
                             rf"{re.escape(m['key'])}\n", usage), m["flag"]


def test_encode_number_overflow():
    assert cli.encode_number(3.5) == 3.5
    assert cli.encode_number(-math.inf) == {"sign": -1, "logmag": math.inf}
    assert cli.encode_number(math.inf) == {"sign": 1, "logmag": math.inf}


def test_encode_number_writes_nan_as_null():
    # an inf - inf sum of overflowing legs is NaN, which is no sign
    assert cli.encode_number(math.nan) is None
    rec = cli.check("x", "a", False, value=np.float64("nan"))
    assert json.loads(json.dumps(rec))["values"] == {"value": None}


def test_check_encodes_numpy_bool_as_json_boolean():
    rec = cli.check("x", "a", True, flag=np.bool_(True))
    assert rec["values"] == {"flag": True}
    assert json.loads(json.dumps(rec))["values"]["flag"] is True


# ---------------------------------------------------------------------------
# grid io / export
# ---------------------------------------------------------------------------

def _sample_field():
    g = disc_grid(1.0, 24)
    X, Y = g.nodes_xy()
    return solve_laplace_dirichlet(
        g, np.where(g.mask == bvp.BOUNDARY, X + 0.5 * Y, 0.0))


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


def _scipy_loaded_after(code):
    """The scipy modules in sys.modules once `code` has run in a fresh
    interpreter."""
    probe = code + ("\nimport sys\nprint(sorted(m for m in sys.modules"
                    " if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _scipy_loaded_after("import nonembed.cli") == "[]"


def test_export_both_ways_loads_no_scipy(tmp_path):
    src = gridio.write_grid_csv(_sample_field(), tmp_path / "field.csv")
    j, c2 = tmp_path / "field_as.json", tmp_path / "back.csv"
    code = (f"from nonembed.cli import main\n"
            f"assert main(['export', {str(src)!r}, '--format', 'json',"
            f" '--dst', {str(j)!r}]) == 0\n"
            f"assert main(['export', {str(j)!r}, '--format', 'csv',"
            f" '--dst', {str(c2)!r}]) == 0")
    assert _scipy_loaded_after(code) == "[]"
    assert c2.read_bytes() == src.read_bytes()


def test_every_module_imports_without_scipy():
    """With scipy made unimportable, every nonembed module still imports
    (`test_commands_run_without_scipy` runs the commands so)."""
    code = ("import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import nonembed\n"
            "names = [m.name for m in pkgutil.iter_modules(nonembed.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('nonembed.' + name)\n"
            "print(' '.join(names))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert {"bvp", "cli", "gridio", "mollify"} <= set(r.stdout.split())


def test_commands_run_without_scipy(tmp_path):
    """With scipy made unimportable, `verify all`, `assemble g1` (on the
    golden test's 128-cell pocket box) and `export` both ways exit as they
    do with it, 1, 0, 0 and 0, and write the same bytes: report.json and
    tail_field.csv those of a run with scipy, the g1 files the golden
    digests, and the round trip its source."""
    bare = tmp_path / "bare"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from nonembed import assembly, cli\n"
            "out = sys.argv[1]\n"
            "codes = [cli.main(['verify', 'all', '--out', out + '/v'])]\n"
            "full = assembly.build_g1\n"
            "assembly.build_g1 = lambda n_max, grid_n: full(n_max, 128)\n"
            "codes += [cli.main(['assemble', 'g1', '--nmax', '1',\n"
            "                    '--out', out + '/g1']),\n"
            "          cli.main(['export', out + '/v/tail_field.csv',\n"
            "                    '--format', 'json', '--dst', out + '/t.json']),\n"
            "          cli.main(['export', out + '/t.json', '--format', 'csv',\n"
            "                    '--dst', out + '/back.csv'])]\n"
            "print(codes)\n")
    r = subprocess.run([sys.executable, "-c", code, str(bare)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[1, 0, 0, 0]", r.stderr
    normal = tmp_path / "normal"
    assert cli.main(["verify", "all", "--out", str(normal)]) == 1
    for name in ("report.json", "tail_field.csv"):
        assert (bare / "v" / name).read_bytes() == \
            (normal / name).read_bytes(), name
    assert _sha256s(bare / "g1", G1_GOLDEN_SHA256) == G1_GOLDEN_SHA256
    assert (bare / "back.csv").read_bytes() == \
        (bare / "v" / "tail_field.csv").read_bytes()


def test_artifacts_get_mode_from_umask(tmp_path):
    old = os.umask(0o022)
    try:
        cli.cmd_verify("moon", cli.RunConfig(out_dir=str(tmp_path / "o")))
        csv = gridio.write_grid_csv(_sample_field(), tmp_path / "f.csv")
    finally:
        os.umask(old)
    for p in (tmp_path / "o" / "report.json", csv, gridio.sidecar_path(csv)):
        assert stat.S_IMODE(p.stat().st_mode) == 0o644, p


def _reference_rows(f):
    # the per-node loop the writers replaced: x, y and value of each live
    # node, row-major, as shortest round-trip strings
    g = f.grid
    return [[repr(float(g.origin[0] + i * g.h)), repr(float(g.origin[1] + j * g.h)),
             repr(float(f.values[i, j]))]
            for i, j in np.argwhere(g.mask != bvp.EXTERIOR)]


def _reference_rle(mask):
    flat = mask.ravel()
    runs, start = [], 0
    for k in range(1, len(flat) + 1):
        if k == len(flat) or flat[k] != flat[start]:
            runs.append([int(flat[start]), k - start])
            start = k
    return runs


def _one_node_field():
    mask = np.zeros((3, 4), dtype=np.int8)
    mask[1, 2] = bvp.BOUNDARY
    return bvp.ScalarField(grid=bvp.MaskedGrid(origin=(-0.5, 0.25), h=0.1,
                                               mask=mask),
                           values=np.full((3, 4), -1.5e-300))


def _no_node_field():
    mask = np.zeros((2, 3), dtype=np.int8)
    return bvp.ScalarField(grid=bvp.MaskedGrid(origin=(0.0, 0.0), h=1.0,
                                               mask=mask),
                           values=np.zeros((2, 3)))


def _edge_value_field():
    # more live nodes than one writer block, with a run of repeats across
    # the block boundary and values whose strings a value-keyed memo or a
    # careless parse would change
    mask = np.full((300, 240), bvp.BOUNDARY, dtype=np.int8)
    mask[:3] = bvp.EXTERIOR
    values = np.random.default_rng(7).standard_normal(mask.shape)
    values[mask == bvp.EXTERIOR] = 0.0
    flat = values[mask != bvp.EXTERIOR]  # the live nodes, row-major
    assert flat.size > gridio._BLOCK
    flat[:4] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308]
    flat[gridio._BLOCK - 50:gridio._BLOCK + 50] = 0.1
    flat[gridio._BLOCK + 50::9] = -0.0
    values[mask != bvp.EXTERIOR] = flat
    return bvp.ScalarField(grid=bvp.MaskedGrid(origin=(-1.25, 3.0), h=0.01,
                                               mask=mask), values=values)


def test_grid_files_golden_sha256(tmp_path):
    # the bytes the per-node writers produced for the sample field
    f = _sample_field()
    csv = gridio.write_grid_csv(f, tmp_path / "field.csv")
    full = gridio.write_grid_json(f, tmp_path / "field_full.json")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (csv, gridio.sidecar_path(csv), full)}
    assert digests == {
        "field.csv":
            "76dddad72f8be13ba30d1d49cb90b728139323906c6a092224bc1d501f5076f1",
        "field.json":
            "6291279d9fa86c9abaf6e400dc3e229cdcbfe914e8ad1ecaca6159a8a968899c",
        "field_full.json":
            "282b34fd042fbd857a6af12d6ad86f17a975d1a8bcab5c27ecf15ccc18a688b2",
    }


# a warning fails the test: np.loadtxt warns on an input with no rows
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [_sample_field, _one_node_field,
                                  _no_node_field, _edge_value_field])
def test_grid_writers_equal_the_per_node_reference(tmp_path, make):
    f = make()
    rows = _reference_rows(f)
    header = gridio._header_dict(f)
    assert header["mask_rle"] == _reference_rle(f.grid.mask)
    doc = {"header": header, "nodes": rows}
    full = gridio.write_grid_json(f, tmp_path / "full.json")
    assert full.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    csv = gridio.write_grid_csv(f, tmp_path / "field.csv")
    assert csv.read_text() == "".join(
        ",".join(r) + "\n" for r in [["x", "y", "value"]] + rows)
    for back in (gridio.read_grid_json(full), gridio.read_grid_csv(csv)):
        assert np.array_equal(back.grid.mask, f.grid.mask)
        live = f.grid.mask != bvp.EXTERIOR
        assert np.array_equal(back.values[live].view(np.int64),
                              f.values[live].view(np.int64))


@pytest.mark.parametrize("block", [3, 10])
def test_grid_writers_take_blocks_of_grid_rows(tmp_path, monkeypatch, block):
    """The writers gather live nodes a block of whole grid rows at a time
    (one row per block when a row holds more than `_BLOCK` nodes, else
    two here), skipping blocks with no live node; the bytes stay those of
    the per-node reference."""
    monkeypatch.setattr(gridio, "_BLOCK", block)
    mask = np.full((11, 5), bvp.BOUNDARY, dtype=np.int8)
    mask[:4] = mask[6:8] = mask[9, 1:3] = bvp.EXTERIOR
    values = np.random.default_rng(11).standard_normal(mask.shape)
    values[4:] = np.where(values[4:] > 0, 0.5, -0.0)  # repeats across blocks
    values[mask == bvp.EXTERIOR] = 0.0
    f = bvp.ScalarField(grid=bvp.MaskedGrid(origin=(0.5, -2.0), h=0.25,
                                            mask=mask), values=values)
    rows = _reference_rows(f)
    doc = {"header": gridio._header_dict(f), "nodes": rows}
    full = gridio.write_grid_json(f, tmp_path / "full.json")
    assert full.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    csv = gridio.write_grid_csv(f, tmp_path / "field.csv")
    assert csv.read_text() == "".join(
        ",".join(r) + "\n" for r in [["x", "y", "value"]] + rows)


@pytest.mark.parametrize("write, low, high", [
    (gridio.write_grid_csv, 0.5, 1.5), (gridio.write_grid_json, 1.5, 3.0)])
def test_traced_peaks_of_the_grid_writers(ctx, tmp_path, write, low, high):
    """tracemalloc peaks in MiB of writing the default tail's 263,169
    nodes, measured 0.9 for the CSV and 2.3 for the JSON at blocks of
    `_BLOCK` = 8,192 nodes; they were 7.0 and 18.2 at 65,536."""
    f = ctx.tail.field
    tracemalloc.start()
    try:
        write(f, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert low < peak <= high


def test_json_number_cells_keep_their_bits(tmp_path):
    # 0 comes before -0.0, so a memo keyed by value would answer -0.0
    # with the 0.0 of the first cell
    mask = np.zeros((3, 4), dtype=np.int8)
    mask[1] = bvp.BOUNDARY
    f = bvp.ScalarField(grid=bvp.MaskedGrid(origin=(-0.5, 0.25), h=0.1,
                                            mask=mask),
                        values=np.zeros((3, 4)))
    cells = [0, -0.0, 1e308, -0.0]
    nodes = [[x, y, cell] for (x, y, _v), cell in zip(_reference_rows(f), cells)]
    p = tmp_path / "numbers.json"
    p.write_text(json.dumps({"header": gridio._header_dict(f), "nodes": nodes}))
    back = gridio.read_grid_json(p).values[1]
    assert np.array_equal(back.view(np.int64),
                          np.array(cells, dtype=float).view(np.int64))


@pytest.mark.parametrize("src_name, bad_file", [
    ("field.csv", "field.csv"), ("field.csv", "field.json"),
    ("full.json", "full.json")])
def test_undecodable_grid_file_exits_2_naming_it(tmp_path, capsys, src_name,
                                                  bad_file):
    _write_sample(tmp_path)
    gridio.write_grid_json(_sample_field(), tmp_path / "full.json")
    bad = tmp_path / bad_file
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes() if bad.suffix == ".json"
                    else b"x,y,value\n\xff\xfe,1,2\n")
    dst = tmp_path / "out" / ("o.csv" if src_name.endswith(".json") else "o.json")
    code = cli.main(["export", str(tmp_path / src_name), "--format",
                     dst.suffix[1:], "--dst", str(dst)])
    assert code == 2
    assert str(bad) in capsys.readouterr().err
    assert not dst.parent.exists()


def _write_sample(tmp_path):
    csv = gridio.write_grid_csv(_sample_field(), tmp_path / "field.csv")
    return csv, gridio.sidecar_path(csv)


def test_csv_reader_tolerates_blank_lines_and_whitespace(tmp_path):
    p, _ = _write_sample(tmp_path)
    lines = p.read_text().splitlines()
    p.write_bytes("\r\n".join(["  " + lines[0] + " ", ""]
                              + [f" {ln}\t" for ln in lines[1:5]] + ["", "   "]
                              + lines[5:] + ["", ""]).encode())
    assert np.array_equal(gridio.read_grid_csv(p).values, _sample_field().values)


def test_row_count_mismatch_is_rejected(tmp_path):
    p, _ = _write_sample(tmp_path)
    lines = p.read_text().splitlines(keepends=True)
    p.write_text("".join(lines[:-1]))
    with pytest.raises(gridio.GridIOError, match="436 rows for 437 live nodes"):
        gridio.read_grid_csv(p)


def test_shifted_coordinate_is_rejected_naming_the_row(tmp_path):
    p, _ = _write_sample(tmp_path)
    lines = p.read_text().splitlines(keepends=True)
    x, y, v = lines[10].rstrip("\n").split(",")
    shifted = repr(float(x) + 1e-6)
    lines[10] = f"{shifted},{y},{v}\n"
    p.write_text("".join(lines))
    with pytest.raises(gridio.GridIOError, match=re.escape(shifted)):
        gridio.read_grid_csv(p)


def test_nan_coordinate_is_rejected(tmp_path):
    p, _ = _write_sample(tmp_path)
    lines = p.read_text().splitlines(keepends=True)
    _x, y, v = lines[10].split(",")
    lines[10] = f"nan,{y},{v}"
    p.write_text("".join(lines))
    with pytest.raises(gridio.GridIOError, match="field.csv: row 10 coordinate"):
        gridio.read_grid_csv(p)


def test_missing_header_key_names_the_sidecar(tmp_path):
    csv, side = _write_sample(tmp_path)
    header = json.loads(side.read_text())
    del header["shape"]
    side.write_text(json.dumps(header))
    with pytest.raises(gridio.GridIOError, match="field.json.*shape"):
        gridio.read_grid_csv(csv)
    r = run_cli("export", str(csv), "--format", "json",
                "--dst", str(tmp_path / "o.json"))
    assert r.returncode == 2 and str(side) in r.stderr


def test_wrong_field_count_names_the_file(tmp_path):
    csv, _ = _write_sample(tmp_path)
    lines = csv.read_text().splitlines(keepends=True)
    lines[3] = lines[3].rstrip("\n") + ",0.5\n"
    csv.write_text("".join(lines))
    with pytest.raises(gridio.GridIOError, match="field.csv: row 3 has 4 fields"):
        gridio.read_grid_csv(csv)


def test_non_numeric_value_names_the_file(tmp_path):
    csv, _ = _write_sample(tmp_path)
    lines = csv.read_text().splitlines(keepends=True)
    x, y, _v = lines[7].split(",")
    lines[7] = f"{x},{y},abc\n"
    csv.write_text("".join(lines))
    with pytest.raises(gridio.GridIOError, match="field.csv: .*'abc'"):
        gridio.read_grid_csv(csv)


def test_csv_value_with_underscores_names_the_file(tmp_path):
    # float() takes "1_000"; np.loadtxt, which parses the CSV, does not
    csv, _ = _write_sample(tmp_path)
    lines = csv.read_text().splitlines(keepends=True)
    x, y, _v = lines[7].split(",")
    lines[7] = f"{x},{y},1_000\n"
    csv.write_text("".join(lines))
    with pytest.raises(gridio.GridIOError, match="field.csv: .*'1_000'"):
        gridio.read_grid_csv(csv)


@pytest.mark.parametrize("bad_row", [["0.0", "0.0"], "0.0,0.0,1.0",
                                     ["0.0", "0.0", None]])
def test_ragged_json_rows_name_the_file(tmp_path, bad_row):
    full = gridio.write_grid_json(_sample_field(), tmp_path / "full.json")
    doc = json.loads(full.read_text())
    doc["nodes"][5] = bad_row
    full.write_text(json.dumps(doc))
    with pytest.raises(gridio.GridIOError, match="full.json"):
        gridio.read_grid_json(full)


@pytest.mark.parametrize("runs", [
    [[1, 630], [0, -5]],        # sums to 25 * 25, with a negative count
    [[3, 625]],                 # code outside {0, 1, 2}
])
def test_mask_rle_rejects_bad_runs(tmp_path, runs):
    csv, side = _write_sample(tmp_path)
    header = json.loads(side.read_text())
    header["mask_rle"] = runs
    side.write_text(json.dumps(header))
    with pytest.raises(gridio.GridIOError, match="field.json: mask_rle"):
        gridio.read_grid_csv(csv)


@pytest.mark.parametrize("src_name, fmt, dst_name, named", [
    # onto the source's sidecar
    ("field.csv", "json", "field.json", "field.json"),
    # the new sidecar is the source
    ("full.json", "csv", "full.csv", "full.json"),
    # onto the source itself
    ("field.csv", "csv", "field.csv", "field.csv"),
    # the CSV and its own sidecar would be one file
    ("field.csv", "csv", "copy.json", "copy.json"),
])
def test_export_refuses_to_overwrite_its_source(tmp_path, src_name, fmt,
                                                 dst_name, named):
    _write_sample(tmp_path)
    gridio.write_grid_json(_sample_field(), tmp_path / "full.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    r = run_cli("export", str(tmp_path / src_name), "--format", fmt,
                "--dst", str(tmp_path / dst_name))
    assert r.returncode == 2
    assert f"refusing to write {tmp_path / named}" in r.stderr
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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
    # g1 solves no pentagon, so its runtime carries no pentagon block
    runtime = json.loads((tmp_path / "o" / "runtime.json").read_text())
    assert set(runtime) == {"seconds_total", "per_target",
                            "per_target_peak_rss_mb", "writes_s",
                            "peak_rss_mb"}
    assert set(runtime["per_target_peak_rss_mb"]) == {"g1"}
    assert runtime["per_target_peak_rss_mb"]["g1"] > 0.0


# starts the command and prints its os.wait4 peak in MB: a process keeps
# the RSS high-water mark of the one it was forked from across exec, so
# the command is started from this small one, not from the test process
_LAUNCHER = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
             "print(os.wait4(p.pid, 0)[2].ru_maxrss / 1024.0)")


@pytest.mark.slow
def test_runtime_records_the_commands_own_peak(tmp_path):
    """runtime.json's peak_rss_mb, the larger ru_maxrss of the CLI process
    and of its reaped children read before the file is written, is at
    least every target's figure and within 0.5 MB of the os.wait4 peak
    of the whole command; writes_s times the artifact writes after the
    lanes.  report.json gains neither."""
    out = tmp_path / "o"
    r = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-m",
                        "nonembed.cli", "verify", "all", "--out", str(out)],
                       capture_output=True, text=True)
    waited = float(r.stdout.splitlines()[-1])
    runtime = json.loads((out / "runtime.json").read_text())
    assert runtime["peak_rss_mb"] >= max(
        runtime["per_target_peak_rss_mb"].values())
    assert abs(runtime["peak_rss_mb"] - waited) <= 0.5
    assert 0.0 < runtime["writes_s"] < runtime["seconds_total"]
    rep = json.loads((out / "report.json").read_text())
    assert set(rep) == {"config", "targets", "checks", "K", "artifacts",
                        "summary"}


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


def test_tail_certificate_computed_once_per_context(ctx, monkeypatch):
    # the subharmonicity and curvature-sign claims share one certificate
    calls = []
    report = mollify.tail_subharmonic_report

    def counted(*args, **kwargs):
        calls.append(args)
        return report(*args, **kwargs)

    monkeypatch.setattr(mollify, "tail_subharmonic_report", counted)
    monkeypatch.setattr(conformal, "tail_subharmonic_report", counted,
                        raising=False)
    fresh = cli.PipelineContext(ctx.cfg)
    fresh.tail = ctx.tail
    sub = cli.claim_tail_subharmonicity(fresh)
    curv = cli.claim_curvature_sign(fresh)
    assert len(calls) == 1
    assert sub["pass"] and curv["pass"]


def test_verify_ruled_generates_each_surface_once(monkeypatch):
    # the report's surface at ruled.eps = 0.05 is also the eps = 0.05
    # member of the concavity family: three surfaces, not four
    calls = []
    generate = ruled.generate_surface

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(ruled, "generate_surface", counted)
    cli.verify_ruled(cli.PipelineContext(cli.RunConfig()))
    assert len(calls) == 3


def test_ruled_eps_without_a_graph_extension_exits_2(tmp_path, capsys):
    # at ruled.eps = 5 the generated rulings fold, and the Newton that
    # inverts x2(x1, s) does not converge
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ruled.eps = 5\n")
    out = tmp_path / "o"
    assert cli.main(["verify", "ruled", "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert re.match(r"error: ruled\.eps\b", capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture
def ran(tmp_path, monkeypatch):
    """Stubs every pipeline with one that touches a file named for its
    target in the returned directory, so that a target run in either
    process of `verify all` is seen."""
    ran = tmp_path / "ran"
    ran.mkdir()
    for t in cli._PIPELINES:
        monkeypatch.setitem(cli._PIPELINES, t,
                            lambda ctx, t=t: (ran / t).touch() or [])
    return ran


def test_verify_all_checks_ruled_eps_before_any_target(tmp_path, capsys,
                                                      ran):
    # the forked lane builds the surface at ruled.eps before its targets,
    # and this process waits for that verdict before its own: a value
    # whose surface fails runs no target in either process
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ruled.eps = 5\n")
    out = tmp_path / "o"
    assert cli.main(["verify", "all", "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert re.match(r"error: ruled\.eps\b", capsys.readouterr().err)
    assert not any(ran.iterdir()) and not out.exists()


def test_ruled_generation_error_keeps_the_pipeline_message(
        tmp_path, monkeypatch, capsys):
    # only building the surface at the config's eps names ruled.eps; a
    # later ruled stage that fails is a pipeline error
    def broken(f):
        raise ruled.RuledError("chart degenerates")

    monkeypatch.setattr(ruled, "legendre_coords", broken)
    out = tmp_path / "o"
    assert cli.main(["verify", "ruled", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "pipeline error: chart degenerates")
    assert not out.exists()


def test_the_forked_lane_reads_no_tail():
    # `verify all` runs these targets in a child on a context of its own: a
    # claim among them that read the tail would solve the pentagon twice
    other = [t for t in cli._PIPELINES if t not in cli._TAIL_LANE]
    assert other == ["moon", "g1", "ruled"]
    fresh = cli.PipelineContext(cli.RunConfig())
    for t in other:
        cli._PIPELINES[t](fresh)
    assert not {"selected", "tail"} & set(vars(fresh))


def test_verify_all_reports_each_pipeline_in_order(ctx, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["verify", "all", "--out", str(out)]) == 1
    expected = [rec | {"target": t}
                for t, run in cli._PIPELINES.items() for rec in run(ctx)]
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"] == expected
    assert rep["K"] == ctx.k_star
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        f"[{'PASS' if r['pass'] else 'FAIL'}] {r['target']}:{r['name']} "
        f"({r['anchor']})" for r in expected]
    runtime = json.loads((out / "runtime.json").read_text())
    assert set(runtime["per_target"]) == set(cli._PIPELINES)


class _Unpicklable(Exception):
    def __init__(self, what, where):  # pickle cannot rebuild it from args
        super().__init__(f"{what} in {where}")


@pytest.mark.parametrize("raising, message", [
    # g1 (child) comes before annulus (this process) in report order; its
    # exception does not pickle, so it crosses as its message
    ({"g1": _Unpicklable("broke", "g1"),
      "annulus": cli.ConfigError("annulus.nmax: late")},
     "pipeline error: broke in g1"),
    ({"corollary": cli.ConfigError("grid.h: early"),
      "ruled": cli.ConfigError("ruled.eps: late")}, "error: grid.h: early"),
])
def test_lanes_raise_the_earliest_failure_in_report_order(
        tmp_path, monkeypatch, capsys, raising, message):
    def fake(t):
        def run(ctx):
            if t in raising:
                raise raising[t]
            return [cli.check(t, t, True)]
        return run

    for t in cli._PIPELINES:
        monkeypatch.setitem(cli._PIPELINES, t, fake(t))
    out = tmp_path / "o"
    assert cli.main(["verify", "all", "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.err == message + "\n"
    first = min(list(cli._PIPELINES).index(t) for t in raising)
    assert cap.out.splitlines() == [f"[PASS] {t}:{t} ({t})"
                                    for t in list(cli._PIPELINES)[:first]]
    assert not out.exists()


def test_interrupted_verify_all_kills_the_forked_lane(tmp_path, monkeypatch):
    def slow(ctx):
        time.sleep(60)

    def interrupted(ctx):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._PIPELINES, "moon", slow)
    monkeypatch.setitem(cli._PIPELINES, "tail", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "all", "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_surface_at_ruled_eps_is_built_in_the_forked_lane(
        tmp_path, monkeypatch, ran):
    pids = tmp_path / "pids"
    generate = ruled.generate_surface

    def recorded(*args, **kwargs):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return generate(*args, **kwargs)

    monkeypatch.setattr(ruled, "generate_surface", recorded)
    assert cli.main(["verify", "all", "--out", str(tmp_path / "o")]) == 0
    built_in = pids.read_text().split()
    assert built_in and str(os.getpid()) not in built_in
    assert sorted(p.name for p in ran.iterdir()) == sorted(cli._PIPELINES)


def test_the_tail_lane_starts_without_numpy_random(tmp_path):
    """The surface at ruled.eps draws with numpy.random, whose libraries
    would stay mapped in the process that goes on to solve the pentagon."""
    bare = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    if bare.stdout.strip() == "True":
        pytest.skip("this NumPy loads numpy.random at import")
    code = ("import sys\n"
            "from nonembed import cli\n"
            "print('numpy.random' in sys.modules)\n"
            "seen = []\n"
            "for t in cli._PIPELINES:\n"
            "    cli._PIPELINES[t] = lambda ctx: []\n"
            "cli._PIPELINES['tail'] = lambda ctx: seen.append(\n"
            "    'numpy.random' in sys.modules) or []\n"
            "code = cli.main(['verify', 'all', '--out', sys.argv[1]])\n"
            "print(code, seen)\n")
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "0 [False]", r.stdout


_TEST_PID = os.getpid()


def _dies(*args, **kwargs):
    if os.getpid() == _TEST_PID:  # would end the test run
        raise AssertionError("the surface was built in the CLI process")
    os._exit(1)


def _unpicklable(*args, **kwargs):
    raise _Unpicklable("broke", "ruled")


@pytest.mark.parametrize("generate, message", [
    (_dies, "pipeline error: the moon/g1/ruled lane sent no results"),
    (_unpicklable, "pipeline error: broke in ruled"),
])
def test_a_failed_verdict_runs_no_target(tmp_path, monkeypatch, capsys, ran,
                                         generate, message):
    # a child that dies before its verdict, and a verdict exception that
    # does not pickle, which crosses as its message
    monkeypatch.setattr(ruled, "generate_surface", generate)
    out = tmp_path / "o"
    assert cli.main(["verify", "all", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not any(ran.iterdir()) and not out.exists()


def test_interrupt_while_waiting_for_the_verdict_kills_the_forked_lane(
        tmp_path, monkeypatch, ran):
    def slow(*args, **kwargs):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(ruled, "generate_surface", slow)
    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # not inherited by a fork
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify", "all", "--out", str(tmp_path / "o")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not any(ran.iterdir())


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_defaults_openblas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    r = subprocess.run(
        [sys.executable, "-c", "import nonembed.cli, os; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected + "\n"


def test_failed_assemble_leaves_no_output_directory(tmp_path, monkeypatch):
    def broken(n_max, grid_n):
        raise bvp.SolverError("no pocket solve")

    monkeypatch.setattr(assembly, "build_g1", broken)
    out = tmp_path / "o"
    assert cli.main(["assemble", "g1", "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_tail_builds_the_glued_field_once(tmp_path, monkeypatch):
    # the tail grid and the radius scan read one glued field
    built = []

    class Counted(bvp.GluedField):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(bvp, "GluedField", Counted)
    monkeypatch.setattr(mollify, "GluedField", Counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pentagon.resolution = 64\ngrid.h = 0.011\n")
    assert cli.main(["verify", "tail", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) in (0, 1)
    assert len(built) == 1


@pytest.mark.parametrize("target", ["tail", "corollary"])
def test_tail_grid_that_sees_no_laplacian_exits_2(tmp_path, capsys, target):
    # at grid.h = 0.0171875 every grid-visible tail node has a zero
    # Laplacian: the sign checks would pass on nothing, and the curvature
    # scale reduced an empty array
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pentagon.resolution = 64\ngrid.h = 0.0171875\n")
    out = tmp_path / "o"
    assert cli.main(["verify", target, "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert re.match(r"error: grid\.h\b", capsys.readouterr().err)
    assert not out.exists()


def test_tail_reports_raise_on_a_grid_that_sees_no_laplacian():
    cfg = cli.RunConfig(pentagon_resolution=64)
    sel = cli.PipelineContext(cfg).selected
    tail = mollify.build_tail_v(sel, math.exp(-2.0 * sel.geom.K) / 2.0,
                                grid_n=128)
    assert not mollify.tail_resolves(tail)
    with pytest.raises(mollify.MollifyError, match="Laplacian"):
        mollify.tail_subharmonic_report(tail, sel)
    with pytest.raises(mollify.MollifyError, match="Laplacian"):
        conformal.tail_curvature_report(tail)


def test_tail_grid_laplacian_computed_once(monkeypatch):
    # both sign certificates read the tail's one grid Laplacian
    fields = []

    def counted(f):
        fields.append(f)
        return laplacian_blocks(f)

    # every grid Laplacian, `laplacian_grid`'s too, goes through its blocks
    laplacian_blocks = bvp.laplacian_blocks
    for mod in (bvp, conformal):
        monkeypatch.setattr(mod, "laplacian_blocks", counted)
    fresh = cli.PipelineContext(cli.RunConfig(pentagon_resolution=64))
    cli.verify_tail(fresh)
    cli.verify_corollary(fresh)
    assert sum(f is fresh.tail.field for f in fields) == 1


def test_verify_ruled_golden_values(ctx):
    # report values of `verify ruled` at the default config, pinned to
    # the digit: the batched projection and the cached comparison stencil
    # must follow the same iterates as one point and one grid at a time
    vals = {rec["name"]: rec["values"] for rec in cli.verify_ruled(ctx)}
    assert vals["projection-lengths"]["worst_gap"] == 0.13643231542740342
    assert vals["comparison-margins"]["min_margin"] == -4.450502491711028e-09
    assert vals["concavity-epsilon-family"]["deviations"] == [
        0.3498715816650524, 0.18074519104750486, 0.09255104908128642]
    flat = vals["extension-flatness"]
    assert 0.0 < flat["worst_offdiag"] <= 1e-8
    assert 0.0 < flat["worst_det_ratio"] <= 1e-8


@pytest.mark.parametrize("seed", range(12))
def test_verify_ruled_passes_every_check_at_seeds_0_to_11(seed):
    # the ruled generator's reference: all five claims hold at each seed
    recs = cli.verify_ruled(cli.PipelineContext(cli.RunConfig(seed=seed)))
    assert len(recs) == 5
    assert [r["name"] for r in recs if not r["pass"]] == []


def test_the_certificate_reads_the_margins_of_the_N_selection(ctx):
    """The edge-margin claim is sampled once, in select_N: the
    subharmonicity certificate's worst margin is the smallest of the
    selection's per-edge worst margins, bit for bit."""
    worst = cli.claim_pentagon_margins(ctx)["values"]["worst_margins"]
    sub = cli.claim_tail_subharmonicity(ctx)["values"]
    assert min(worst.values()) == sub["min_edge_margin"]
    assert sub["min_edge_margin"] == 1.1088088725266164e-04


def test_tail_field_golden_sha256(ctx, tmp_path):
    # `verify all`'s tail_field.csv and its sidecar at the default config
    csv = gridio.write_grid_csv(ctx.tail.field, tmp_path / "tail_field.csv")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (csv, gridio.sidecar_path(csv))}
    assert digests == {
        "tail_field.csv":
            "9fb96e684bea437d070d395a521111d7b011bea0ceb465b18f751fe3799d899a",
        "tail_field.json":
            "89d1da1711688407a026ec019e38901174245bece2f240ebc0dc20e0cc61cfca",
    }


def test_assemble_gII_golden_sha256(ctx, tmp_path, monkeypatch):
    # `nonembed assemble gII` at the default config, its grid written from
    # the session's tail field
    monkeypatch.setattr(cli, "PipelineContext", lambda cfg: ctx)
    assert cli.cmd_assemble("gII", cli.RunConfig(out_dir=str(tmp_path))) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("gII_factor_ball1.csv", "gII_factor_ball1.json")}
    assert digests == {
        "gII_factor_ball1.csv":
            "0a9c7c0a172fca394bfb03b39f6549c38d9a3700105029e5d49c5d82c22abc4b",
        "gII_factor_ball1.json":
            "93ae3b533125bc24cd1e80f1ace5c00db4e3d1720625b48363f2e03790fbd5d9",
    }


def test_assemble_annulus_golden_sha256(ctx, tmp_path, monkeypatch):
    # `nonembed assemble annulus` at the default config, its cutoff profile
    # written from the session's mu schedule and annulus stack
    monkeypatch.setattr(cli, "PipelineContext", lambda cfg: ctx)
    assert cli.cmd_assemble("annulus", cli.RunConfig(out_dir=str(tmp_path))) == 0
    profile = (tmp_path / "annulus_cutoff_profile.json").read_bytes()
    assert hashlib.sha256(profile).hexdigest() == \
        "12332253ff8704192957c14567712f10639e3ee34bf8a40cca2f1feb80a6d025"
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["mu"] == [
        0.0007393239841187207, 0.0003696786232833528, 0.0001848393116416764,
        9.24196558208382e-05, 4.62098279104191e-05, 2.3104905850409363e-05,
        1.1552456977604775e-05, 5.776217498365212e-06]
    plantings = json.dumps(man["plantings"]).encode()
    assert hashlib.sha256(plantings).hexdigest() == \
        "6480374629e28f7b2c0441e11111be561f4150551aff2d1fa3411dac4131cb6f"


# `nonembed assemble g1 --nmax 1` with the pocket solve on a 128-cell box:
# both grids, their sidecars and the manifest
G1_GOLDEN_SHA256 = {
    "g1_factor.csv":
        "724c467203e86d9722ce1ce8d74ea655594f55ea3067686e326c412317cb94de",
    "g1_factor.json":
        "2b0f57fbe625ae842c0b8decba8f756690510eb9be9d84168330e3b4910b52c9",
    "g1_curvature.csv":
        "d2ad1e27d455030da8495e32267ee2c999a0d90a424c9bf1284a217dbee3537d",
    "g1_curvature.json":
        "6d3701e7f095f702d3fb313d723dd8cddf717a8dd4845c2fb97cb518943dcd90",
    "manifest.json":
        "e6ae3ca28f48d7bb3d3c7f2a4619ce1e0a650d413cb3bb33d787029287198a18",
}


def _sha256s(directory, names):
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest()
            for n in names}


def test_assemble_g1_golden_sha256(tmp_path, monkeypatch):
    full_size = assembly.build_g1
    monkeypatch.setattr(assembly, "build_g1",
                        lambda n_max, grid_n: full_size(n_max, grid_n=128))
    assert cli.main(["assemble", "g1", "--nmax", "1",
                     "--out", str(tmp_path)]) == 0
    assert _sha256s(tmp_path, G1_GOLDEN_SHA256) == G1_GOLDEN_SHA256


def test_assemble_manifest_does_not_depend_on_out_dir(ctx, tmp_path,
                                                     monkeypatch):
    # the output directory is not semantic: `assemble` leaves it out of
    # the manifest's config echo, as `verify` does of the report's
    monkeypatch.setattr(cli, "PipelineContext", lambda cfg: ctx)
    for name in ("a", "deeper/b"):
        cfg = cli.RunConfig(out_dir=str(tmp_path / name))
        assert cli.cmd_assemble("annulus", cfg) == 0
    man = [(tmp_path / name / "manifest.json").read_bytes()
           for name in ("a", "deeper/b")]
    assert man[0] == man[1]
    assert "out_dir" not in json.loads(man[0])["config"]


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
