"""Output checks.

Every value the program writes is tested against the oracle in `tools/`,
a fresh mpmath evaluation (`reference.py`), or a property the method must
have.  The checks read the program's files with their own parser and need
no import of `nonembed`.  Each check is one operation of the benchmark:
`run_checks` calls it and records a failure, with its message, when it
raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import slit_field_mp

VERIFY_TARGETS = ["moon", "tail", "corollary", "g1", "annulus", "ruled"]
N_REPORT_CHECKS = 26
TAIL_SAMPLE = 200          # slit-field nodes per mpmath check
TAIL_TOL = 1e-12           # error bound, relative to the envelope e^{log^2 r - theta^2}
INTERFACE_MARGIN = 1e-3    # slit-field nodes keep this far from the glue set (upstream units)


class CheckFailed(AssertionError):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    name: str
    ok: bool
    detail: str


def run_checks(checks) -> list:
    """Run (name, fn) pairs; fn returns a short detail string or raises."""
    out = []
    for name, fn in checks:
        try:
            out.append(Outcome(name, True, fn() or ""))
        except Exception as exc:  # any exception is a failed check
            out.append(Outcome(name, False, f"{type(exc).__name__}: {exc}"))
    return out


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# grid files (CSV + JSON sidecar, or the single-file JSON variant)
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    origin: tuple
    h: float
    mask: np.ndarray      # node roles, 0 = exterior
    x: np.ndarray         # live nodes, row-major
    y: np.ndarray
    v: np.ndarray
    header: dict

    def full(self) -> np.ndarray:
        """Values on the whole node array (NaN at exterior nodes)."""
        out = np.full(self.mask.shape, np.nan)
        out[self.mask != 0] = self.v
        return out


def _grid(header: dict, rows: np.ndarray) -> Grid:
    shape = tuple(header["shape"])
    codes, counts = zip(*header["mask_rle"])
    flat = np.repeat(np.array(codes, dtype=np.int8), counts)
    expect(flat.size == shape[0] * shape[1], "mask runs do not cover the shape")
    mask = flat.reshape(shape)
    ii, jj = np.nonzero(mask != 0)
    expect(rows.shape == (len(ii), 3),
           f"{rows.shape[0]} rows for {len(ii)} live nodes")
    origin = (float(header["origin"][0]), float(header["origin"][1]))
    h = float(header["h"])
    x, y, v = rows.T
    expect(np.array_equal(x, origin[0] + ii * h)
           and np.array_equal(y, origin[1] + jj * h),
           "row coordinates do not match the sidecar grid")
    expect(np.all(np.isfinite(v)), "non-finite values")
    return Grid(origin, h, mask, x, y, v, header)


def read_csv_grid(path: Path) -> Grid:
    with open(path) as fh:
        expect(fh.readline() == "x,y,value\n", f"{path.name}: bad CSV header")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return _grid(json.loads(path.with_suffix(".json").read_text()), rows)


def read_json_grid(path: Path) -> Grid:
    doc = json.loads(path.read_text())
    rows = np.array(doc["nodes"], dtype=float).reshape(-1, 3)
    return _grid(doc["header"], rows)


# ---------------------------------------------------------------------------
# the tail field: v(x) = u(10 (x + 0.8), 10 y) on slit-field nodes
# ---------------------------------------------------------------------------

def _segment_distance(X, Y, p, q):
    ex, ey = q[0] - p[0], q[1] - p[1]
    t = np.clip(((X - p[0]) * ex + (Y - p[1]) * ey) / (ex * ex + ey * ey), 0, 1)
    return np.hypot(X - (p[0] + t * ex), Y - (p[1] + t * ey))


def tail_regions(g: Grid, K: int):
    """(slit, exterior) node masks over the live nodes, each kept
    INTERFACE_MARGIN away from the unit circle and the pentagon.

    The pentagon has its vertex at (-e^{-2K}, 0), legs at +-60 degrees out
    to the unit circle, and runs right to x = 20 between the legs' end
    heights; mollification only changes values within delta < e^{-2K} of
    these interfaces."""
    X = 10.0 * (g.x + 0.8)
    Y = 10.0 * g.y
    a = math.exp(-2.0 * K)
    t1 = a / 2 + math.sqrt(1 - 3 * a * a / 4)
    vertex, top = (-a, 0.0), (-a + t1 / 2, t1 * math.sqrt(3) / 2)
    bottom = (top[0], -top[1])
    corners = [top, vertex, bottom, (20.0, bottom[1]), (20.0, top[1])]
    dist = np.abs(np.hypot(X, Y) - 1.0)
    for p, q in zip(corners, corners[1:] + corners[:1]):
        dist = np.minimum(dist, _segment_distance(X, Y, p, q))
    in_pentagon = ((X >= -a) & (np.abs(Y) <= math.sqrt(3) * (X + a))
                   & (np.abs(Y) <= top[1]) & (X <= 20.0))
    in_disc = np.hypot(X, Y) < 1.0
    clear = ~in_pentagon & (dist > INTERFACE_MARGIN)
    return clear & in_disc, clear & ~in_disc


def _slit_u(x, y):
    """u and its envelope at (10 (x + 0.8), 10 y) in doubles."""
    X = 10.0 * (x + 0.8)
    Y = 10.0 * y
    L = np.log(np.hypot(X, Y))
    theta = np.mod(np.arctan2(Y, X), 2 * np.pi)
    env = np.exp(L * L - theta * theta)
    return -env * np.sin(2 * theta * L), env


def check_tail_grid(g: Grid, K: int) -> str:
    """Every slit-field node against u in doubles, every exterior node
    exactly zero."""
    slit, exterior = tail_regions(g, K)
    expect(slit.sum() > 0 and exterior.sum() > 0, "empty slit or exterior set")
    u, env = _slit_u(g.x[slit], g.y[slit])
    err = float(np.max(np.abs(g.v[slit] - u) / env))
    expect(err <= TAIL_TOL, f"slit-field error {err:.2e} of the envelope")
    worst_ext = float(np.max(np.abs(g.v[exterior])))
    expect(worst_ext == 0.0, f"exterior value {worst_ext:.3e}")
    return f"{int(slit.sum())} slit nodes, max err {err:.1e}; {int(exterior.sum())} exterior zeros"


def check_tail_mpmath(g: Grid, K: int, seed: int) -> str:
    """A seeded sample of slit-field nodes against mpmath at 30 digits."""
    slit, _ = tail_regions(g, K)
    nodes = np.flatnonzero(slit)
    rng = np.random.default_rng(seed)
    pick = rng.choice(nodes, size=min(TAIL_SAMPLE, len(nodes)), replace=False)
    worst = 0.0
    for i in pick:
        u, env = slit_field_mp(float(g.x[i]), float(g.y[i]))
        worst = max(worst, float(abs(u - g.v[i]) / env))
    expect(worst <= TAIL_TOL, f"mpmath error {worst:.2e} of the envelope")
    return f"{len(pick)} nodes, max err {worst:.1e}"


# ---------------------------------------------------------------------------
# verify all: report.json and tail_field.csv
# ---------------------------------------------------------------------------

def _neg_inf(x) -> bool:
    """The report encodes -inf as {"sign": -1, "logmag": inf}."""
    return isinstance(x, dict) and x["sign"] == -1 and x["logmag"] == math.inf


def verify_all_checks(out: Path, exit_code: int, oracle: dict, seed: int,
                      config_seed: int) -> list:
    """(name, fn) pairs for the output of `nonembed verify all`."""
    report = {}
    tree = float(oracle["rows"][oracle["K_star"]]["tree"])

    def load():
        if not report:
            report.update(json.loads((out / "report.json").read_text()))
        return report

    def vals(name):
        recs = [c for c in load()["checks"] if c["name"] == name]
        expect(len(recs) == 1, f"report has {len(recs)} '{name}' checks")
        return recs[0]["values"]

    def structure():
        checks = load()["checks"]
        n_fail = sum(not c["pass"] for c in checks)
        expect(report["targets"] == VERIFY_TARGETS, f"targets {report['targets']}")
        expect(len(checks) == N_REPORT_CHECKS == report["summary"]["n_checks"],
               f"{len(checks)} checks")
        expect(report["summary"]["n_fail"] == n_fail
               and report["summary"]["overall_pass"] == (n_fail == 0),
               "summary disagrees with the checks")
        expect(exit_code == (0 if n_fail == 0 else 1),
               f"exit status {exit_code} with {n_fail} failed checks")
        expect(report["config"]["seed"] == config_seed, "config seed")
        expect(report["artifacts"] == ["tail_field.csv", "tail_field.json"],
               "artifacts")
        return f"{n_fail} of {len(checks)} report checks fail (exit {exit_code})"

    def k_star():
        K = vals("minimal-K-scan")["k_star"]
        expect(K == report["K"] == oracle["K_star"], f"K = {K}")
        return f"K = {K}"

    def tree_value():
        v = vals("tree-integral-sign")
        expect(v["K"] == oracle["K_star"], f"tree taken at K = {v['K']}")
        gap = rel(v["value"], tree)
        expect(gap <= 1e-8, f"tree {v['value']!r}, oracle {tree!r}, rel {gap:.1e}")
        return f"rel {gap:.1e}"

    def legs_residuals():
        res = vals("legs-identity-residual")["residuals"]
        expect(sorted(res) == ["2", "3", "4", "5", "6"], f"K values {sorted(res)}")
        gaps = [rel(res[k], float(oracle["rows"][int(k)]["identity_residual"]))
                for k in res]
        expect(max(gaps) <= 1e-9, f"residual gaps {gaps}")
        return f"max rel {max(gaps):.1e}"

    def tail_history():
        v = vals("tail-tree-integral")
        hist = [h["value"] for h in v["history"]]
        expect(len(hist) == 4 and v["selected_delta"] is None,
               f"{len(hist)} radii, selected {v['selected_delta']}")
        gaps = [rel(h, tree / 10) for h in hist]
        expect(all(h > 0 for h in hist) and max(gaps) <= 1e-6,
               f"history {hist}")
        return f"max rel {max(gaps):.1e}"

    def shortening():
        v = vals("shortening-threshold")
        first = v["history"][0]
        growth = first["length"] - first["flat"]
        expect(v["delta0"] == 0.0 and not first["shortens"], f"delta0 {v['delta0']}")
        expect(growth >= first["delta"] * tree / 10,
               f"L - L0 = {growth:.3e} below delta * tree / 10")
        return f"L - L0 = {growth:.2e}"

    def circle_trace():
        v = vals("field-vanishes-on-unit-circle")
        expect(v["n_samples"] == 50 and v["max_abs"] <= 1e-14, f"{v}")
        return f"{v['max_abs']:.1e}"

    def axis_k1():
        v = vals("axis-integral-cancels-at-K1")["value"]
        expect(abs(v) <= 1e-10, f"axis integral {v}")
        return f"{v:.1e}"

    def laplacian_ratios():
        v = vals("harmonicity-residual-ratio")
        expect(v["n_points"] == 100 and 3.5 <= v["min_ratio"] <= v["max_ratio"] <= 4.5,
               f"{v}")
        return f"[{v['min_ratio']:.4f}, {v['max_ratio']:.4f}]"

    def pentagon_margins():
        m = vals("pentagon-N-selection")["worst_margins"]
        expect(len(m) == 4 and min(m.values()) > 0, f"margins {m}")
        return f"min {min(m.values()):.2e}"

    def tail_support():
        v = vals("tail-support")
        expect(v["max_abs"] == 0.0 and v["n_nodes"] > 0, f"{v}")
        return f"{v['n_nodes']} nodes"

    def certificates():
        s = vals("tail-subharmonicity")
        expect(s["min_defect"] >= s["tolerance"], "grid sign check")
        expect(s["moon_equality_error"] < 1e-8
               and 3.0 <= s["moon_ratio_range"][0] <= s["moon_ratio_range"][1] <= 5.0,
               "slit-field spot certificate")
        expect(s["pentagon_residual"] < 1e-10, "pentagon residual")
        expect(s["min_edge_margin"] > 0.0, "edge margins")
        c = vals("bump-metric-curvature-sign")
        pos = c["max_positive_logK"]
        expect(_neg_inf(pos) or pos <= c["scale_logK"] + math.log(1e-8),
               f"positive curvature {pos}")
        return f"residual {s['pentagon_residual']:.1e}, edge margin {s['min_edge_margin']:.2e}"

    def g1_pockets():
        pockets = vals("pocket-curvature-negative")["pockets"]
        flat = vals("flat-outside-pockets")
        expect(len(pockets) == 3 and all(p["n_sampled"] > 0 and p["max_K"] < 0
                                         for p in pockets), f"{pockets}")
        expect(flat["max_abs_outside"] <= 1e-8 * flat["scale"], f"{flat}")
        return f"outside {flat['max_abs_outside']:.1e}"

    def annulus():
        b = vals("cutoff-weight-bound")["bounds"]
        expect(len(b) == 8 and all(x <= 2.0 ** -(i + 1) for i, x in enumerate(b)),
               f"bounds {b}")
        c = vals("cutoff-partial-sums-cauchy")
        expect(c["distance"] <= c["bound"], f"{c}")
        worst = vals("annulus-curvature-negative")["worst_K_per_annulus"]
        expect(len(worst) == 6 and max(worst.values()) < 0, f"{worst}")
        mags = vals("origin-flatness")["derivative_magnitudes"]
        expect(len(mags) == 5 and max(mags) <= 1e-8, f"{mags}")
        return f"max annulus K {max(worst.values()):.1e}"

    def cylinder():
        v = vals("cylinder-round-trip")
        expect(max(v["c_error"], v["d_error"]) <= 1e-10, f"{v}")
        return f"{v['c_error']:.1e}"

    def comparison():
        v = vals("comparison-margins")
        expect(v["n_instances"] == 20 and v["min_margin"] >= -1e-8, f"{v}")
        return f"{v['min_margin']:.2e}"

    def projection():
        v = vals("projection-lengths")
        expect(v["n_curves"] == 50 and v["worst_gap"] >= -1e-8, f"{v}")
        return f"{v['worst_gap']:.3e}"

    grid = []

    def tail_grid():
        grid.append(read_csv_grid(out / "tail_field.csv"))
        return check_tail_grid(grid[0], oracle["K_star"])

    def tail_mpmath():
        g = grid[0] if grid else read_csv_grid(out / "tail_field.csv")
        return check_tail_mpmath(g, oracle["K_star"], seed)

    return [("report-structure", structure), ("k-star-oracle", k_star),
            ("tree-value-oracle", tree_value),
            ("legs-residuals-oracle", legs_residuals),
            ("tail-history-oracle", tail_history),
            ("shortening-record", shortening),
            ("circle-trace", circle_trace), ("axis-integral-k1", axis_k1),
            ("laplacian-ratios", laplacian_ratios),
            ("pentagon-margins", pentagon_margins),
            ("tail-support", tail_support), ("certificates", certificates),
            ("g1-pockets", g1_pockets), ("annulus", annulus),
            ("cylinder", cylinder), ("comparison-margins", comparison),
            ("projection-gaps", projection),
            ("tail-field-grid", tail_grid), ("tail-field-mpmath", tail_mpmath)]


# ---------------------------------------------------------------------------
# assemble g1: the factor and curvature grids
# ---------------------------------------------------------------------------

def pocket_source(X, Y, n_max: int):
    """-sum_n exp(-1/(1 - d^2)) over the pockets B_{4^-n}((2^-n, 0)),
    d the distance to the centre in units of the radius."""
    src = np.zeros(np.shape(X))
    for n in range(1, n_max + 1):
        d2 = ((X - 2.0 ** -n) ** 2 + Y ** 2) / 16.0 ** -n
        inside = d2 < 1.0
        src[inside] -= np.exp(-1.0 / (1.0 - d2[inside]))
    return src


def _laplacian(v, h):
    return (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
            - 4.0 * v[1:-1, 1:-1]) / h ** 2


def g1_checks(out: Path, config_seed: int) -> list:
    """(name, fn) pairs for the output of `nonembed assemble g1`."""
    cache = {}

    def manifest():
        if "manifest" not in cache:
            cache["manifest"] = json.loads((out / "manifest.json").read_text())
        return cache["manifest"]

    def factor():
        if "factor" not in cache:
            cache["factor"] = read_csv_grid(out / "g1_factor.csv")
        return cache["factor"]

    def parts():
        """Factor on the full node array, 5-point Laplacian, source."""
        if "parts" not in cache:
            f = factor()
            phi = f.full()
            n_max = manifest()["config"]["n_max"]
            X, Y = np.meshgrid(f.origin[0] + f.h * np.arange(phi.shape[0]),
                               f.origin[1] + f.h * np.arange(phi.shape[1]),
                               indexing="ij")
            cache["parts"] = (phi, _laplacian(phi, f.h),
                              pocket_source(X, Y, n_max)[1:-1, 1:-1],
                              X[1:-1, 1:-1], Y[1:-1, 1:-1], n_max)
        return cache["parts"]

    def check_manifest():
        m = manifest()
        expect(m["target"] == "g1" and m["config"]["seed"] == config_seed,
               "target or config")
        expect(m["artifacts"] == ["g1_factor.csv", "g1_curvature.csv"], "artifacts")
        pockets = m["pockets"]
        expect(len(pockets) == m["config"]["n_max"]
               and all(p["n_sampled"] > 0 and p["max_K"] < 0 for p in pockets),
               f"pockets {pockets}")
        return f"{len(pockets)} pockets"

    def boundary_zero():
        f = factor()
        expect(np.all(f.mask != 0), "the factor grid is not a full box")
        phi = f.full()
        ring = np.concatenate([phi[0], phi[-1], phi[:, 0], phi[:, -1]])
        expect(np.all(ring == 0.0), f"boundary value {np.max(np.abs(ring)):.1e}")
        return f"{ring.size} ring nodes"

    def laplacian_cancels_source():
        _, lap, src, _, _, _ = parts()
        scale = float(np.max(np.abs(src)))
        worst = float(np.max(np.abs(lap + src)))
        expect(scale > 0 and worst <= 1e-9 * scale,
               f"|lap + source| {worst:.2e} against {scale:.2e}")
        return f"{worst / scale:.1e} of the source maximum"

    def curvature():
        phi, lap, src, X, Y, n_max = parts()
        k = read_csv_grid(out / "g1_curvature.csv")
        f = factor()
        expect(k.mask.shape == (phi.shape[0] - 2, phi.shape[1] - 2)
               and np.all(k.mask != 0) and k.h == f.h
               and k.origin == (f.origin[0] + f.h, f.origin[1] + f.h),
               "curvature grid is not the factor's inner grid")
        K = k.full()
        expected = -np.exp(-2.0 * phi[1:-1, 1:-1]) * lap
        scale = float(np.max(np.abs(expected)))
        gap = float(np.max(np.abs(K - expected)))
        expect(gap <= 1e-12 * scale, f"curvature off by {gap:.2e} of {scale:.2e}")
        floor = 1e-8 * float(np.max(np.abs(src)))
        for n in range(1, n_max + 1):
            inside = (np.hypot(X - 2.0 ** -n, Y) < 4.0 ** -n) & (np.abs(src) > floor)
            expect(inside.any() and np.all(K[inside] < 0),
                   f"pocket {n}: max K {float(np.max(K[inside])):.2e}")
        return f"formula gap {gap / scale:.1e}; pockets negative"

    return [("g1-manifest", check_manifest), ("g1-boundary-zero", boundary_zero),
            ("g1-laplacian-source", laplacian_cancels_source),
            ("g1-curvature", curvature)]


# ---------------------------------------------------------------------------
# export round trip
# ---------------------------------------------------------------------------

def roundtrip_checks(src_csv: Path, json_path: Path, back_csv: Path,
                     K: int, seed: int) -> list:
    """(name, fn) pairs for CSV -> JSON -> CSV."""
    cache = {}

    def json_grid():
        if "json" not in cache:
            cache["json"] = read_json_grid(json_path)
        return cache["json"]

    def same_bytes(a: Path, b: Path):
        def fn():
            expect(a.read_bytes() == b.read_bytes(), f"{b.name} differs from {a.name}")
            return f"{b.stat().st_size} bytes"
        return fn

    def json_doubles():
        g = json_grid()
        src = read_csv_grid(src_csv)
        expect(g.header == src.header, "JSON header differs from the sidecar")
        for a, b in ((g.x, src.x), (g.y, src.y), (g.v, src.v)):
            expect(np.array_equal(a.view(np.int64), b.view(np.int64)),
                   "JSON doubles differ from the CSV")
        return f"{len(g.v)} nodes"

    return [("roundtrip-csv-bytes", same_bytes(src_csv, back_csv)),
            ("roundtrip-sidecar-bytes", same_bytes(src_csv.with_suffix(".json"),
                                                   back_csv.with_suffix(".json"))),
            ("json-doubles", json_doubles),
            ("json-tail-grid", lambda: check_tail_grid(json_grid(), K)),
            ("json-tail-mpmath", lambda: check_tail_mpmath(json_grid(), K, seed))]

