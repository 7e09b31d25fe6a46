"""Self-tests of the output checks: each accepts the program's real output
and rejects a corrupted copy of it.

    python3 -m pytest perfbench -q        # from the repository root

The artifacts come from the program itself at reduced sizes (about 20 s in
all): `verify moon` for a report, the tail field on a coarse grid, and
`assemble g1` at one pocket on a 128-cell box.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from reference import oracle  # noqa: E402

SEED = 5
CONFIG_SEED = 20260809


def failing(pairs) -> set:
    return {o.name for o in checks.run_checks(pairs) if not o.ok}


def rewrite_value(csv: Path, node: int, new: float) -> None:
    """Replace the value column of data row `node` (0-based)."""
    lines = csv.read_text().split("\n")
    x, y, _ = lines[node + 1].split(",")
    lines[node + 1] = f"{x},{y},{new!r}"
    csv.write_text("\n".join(lines))


@pytest.fixture(scope="module")
def oracle_data():
    return oracle(ROOT)


@pytest.fixture(scope="module")
def moon_report(tmp_path_factory):
    from nonembed import cli
    out = tmp_path_factory.mktemp("moon")
    assert cli.main(["verify", "moon", "--out", str(out)]) in (0, 1)
    return out


@pytest.fixture(scope="module")
def tail_csv(tmp_path_factory):
    """The tail field as `verify tail` writes it, on a 128-cell grid with a
    coarse pentagon."""
    from nonembed import cli
    from nonembed.gridio import write_grid_csv
    cfg = cli.RunConfig(grid_h=2.2 / 128, pentagon_resolution=64)
    path = tmp_path_factory.mktemp("tail") / "tail_field.csv"
    write_grid_csv(cli.PipelineContext(cfg).tail.field, path)
    return path


@pytest.fixture(scope="module")
def g1_out(tmp_path_factory):
    """`assemble g1 --nmax 1` with the pocket solve on a 128-cell box."""
    from nonembed import assembly, cli
    out = tmp_path_factory.mktemp("g1")
    full_size = assembly.build_g1
    mp = pytest.MonkeyPatch()
    mp.setattr(assembly, "build_g1",
               lambda n_max, grid_n: full_size(n_max, grid_n=128))
    try:
        assert cli.main(["assemble", "g1", "--nmax", "1", "--out", str(out)]) == 0
    finally:
        mp.undo()
    return out


def copy_dir(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


# ---------------------------------------------------------------------------
# report.json
# ---------------------------------------------------------------------------

def moon_checks(out, oracle_data):
    names = ("k-star-oracle", "tree-value-oracle", "legs-residuals-oracle",
             "circle-trace", "axis-integral-k1", "laplacian-ratios")
    return [(n, fn) for n, fn in checks.verify_all_checks(
        out, 1, oracle_data, SEED, CONFIG_SEED) if n in names]


def test_report_checks_accept_the_program_output(moon_report, oracle_data):
    assert failing(moon_checks(moon_report, oracle_data)) == set()


def test_sign_flipped_tree_value_is_rejected(moon_report, oracle_data, tmp_path):
    bad = copy_dir(moon_report, tmp_path / "bad")
    report = json.loads((bad / "report.json").read_text())
    for c in report["checks"]:
        if c["name"] == "tree-integral-sign":
            c["values"]["value"] = -c["values"]["value"]
    (bad / "report.json").write_text(json.dumps(report))
    assert failing(moon_checks(bad, oracle_data)) == {"tree-value-oracle"}


# ---------------------------------------------------------------------------
# tail_field.csv
# ---------------------------------------------------------------------------

def tail_checks(csv: Path):
    g = checks.read_csv_grid(csv)
    return [("grid", lambda: checks.check_tail_grid(g, 4)),
            ("mpmath", lambda: checks.check_tail_mpmath(g, 4, SEED))]


def test_tail_checks_accept_the_program_output(tail_csv):
    assert failing(tail_checks(tail_csv)) == set()


def test_one_perturbed_slit_value_is_rejected(tail_csv, tmp_path):
    bad = copy_dir(tail_csv.parent, tmp_path / "bad") / tail_csv.name
    g = checks.read_csv_grid(bad)
    slit, _ = checks.tail_regions(g, 4)
    node = int(np.flatnonzero(slit)[0])
    rewrite_value(bad, node, float(g.v[node]) * (1 + 1e-9))
    assert "grid" in failing(tail_checks(bad))


def test_one_perturbed_exterior_value_is_rejected(tail_csv, tmp_path):
    bad = copy_dir(tail_csv.parent, tmp_path / "bad") / tail_csv.name
    g = checks.read_csv_grid(bad)
    _, exterior = checks.tail_regions(g, 4)
    rewrite_value(bad, int(np.flatnonzero(exterior)[0]), 1e-300)
    assert "grid" in failing(tail_checks(bad))


@pytest.mark.parametrize("cut", ["line", "mid-line"])
def test_truncated_csv_is_rejected(tail_csv, tmp_path, cut):
    bad = copy_dir(tail_csv.parent, tmp_path / "bad") / tail_csv.name
    text = bad.read_text()
    end = text.rstrip("\n").rfind("\n") + 1 if cut == "line" else len(text) // 2
    bad.write_text(text[:end])
    with pytest.raises((checks.CheckFailed, ValueError)):
        checks.read_csv_grid(bad)


# ---------------------------------------------------------------------------
# export round trip
# ---------------------------------------------------------------------------

@pytest.fixture
def roundtrip(tail_csv, tmp_path):
    from nonembed.gridio import convert_grid
    convert_grid(tail_csv, "json", tmp_path / "full.json")
    convert_grid(tmp_path / "full.json", "csv", tmp_path / "back" / "tail_field.csv")
    return tail_csv, tmp_path / "full.json", tmp_path / "back" / "tail_field.csv"


def test_roundtrip_checks_accept_the_program_output(roundtrip):
    assert failing(checks.roundtrip_checks(*roundtrip, 4, SEED)) == set()


def test_perturbed_roundtrip_outputs_are_rejected(roundtrip):
    src, full, back = roundtrip
    g = checks.read_csv_grid(back)
    slit, _ = checks.tail_regions(g, 4)
    node = int(np.flatnonzero(slit)[0])
    rewrite_value(back, node, float(g.v[node]) * (1 + 1e-9))
    doc = json.loads(full.read_text())
    doc["nodes"][node][2] = repr(float(doc["nodes"][node][2]) * (1 + 1e-9))
    full.write_text(json.dumps(doc))
    bad = failing(checks.roundtrip_checks(src, full, back, 4, SEED))
    assert {"roundtrip-csv-bytes", "json-doubles", "json-tail-grid"} <= bad
    assert "roundtrip-sidecar-bytes" not in bad


# ---------------------------------------------------------------------------
# assemble g1
# ---------------------------------------------------------------------------

def test_g1_checks_accept_the_program_output(g1_out):
    assert failing(checks.g1_checks(g1_out, CONFIG_SEED)) == set()


def test_perturbed_factor_value_is_rejected(g1_out, tmp_path):
    bad = copy_dir(g1_out, tmp_path / "bad")
    g = checks.read_csv_grid(bad / "g1_factor.csv")
    node = len(g.v) // 2          # an interior node
    rewrite_value(bad / "g1_factor.csv", node, float(g.v[node]) * (1 + 1e-9))
    assert failing(checks.g1_checks(bad, CONFIG_SEED)) == {
        "g1-laplacian-source", "g1-curvature"}


def test_nonzero_boundary_value_is_rejected(g1_out, tmp_path):
    bad = copy_dir(g1_out, tmp_path / "bad")
    rewrite_value(bad / "g1_factor.csv", 0, 1e-300)
    assert "g1-boundary-zero" in failing(checks.g1_checks(bad, CONFIG_SEED))


def test_truncated_curvature_csv_is_rejected(g1_out, tmp_path):
    bad = copy_dir(g1_out, tmp_path / "bad")
    text = (bad / "g1_curvature.csv").read_text()
    (bad / "g1_curvature.csv").write_text(text[:len(text) // 2])
    assert failing(checks.g1_checks(bad, CONFIG_SEED)) == {"g1-curvature"}


# ---------------------------------------------------------------------------
# the span recorder
# ---------------------------------------------------------------------------

def test_tracer_counts_the_export_and_restores_the_layers(tail_csv, tmp_path):
    from nonembed import cli, gridio
    from tracer import Tracer
    originals = (gridio.read_grid_csv, gridio.convert_grid, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["export", str(tail_csv), "--format", "json",
                         "--dst", str(tmp_path / "full.json")]) == 0
    finally:
        tracer.uninstall()
    assert (gridio.read_grid_csv, cli.convert_grid, cli.main) == originals
    m = tracer.metrics()
    nodes = len(checks.read_csv_grid(tail_csv).v)
    assert m["gridio.nodes_read"] == m["gridio.nodes_written"] == nodes
    assert m["gridio.bytes_written"] == (tmp_path / "full.json").stat().st_size
    assert 0 < m["gridio.read_s"] <= m["gridio.self_s"]
