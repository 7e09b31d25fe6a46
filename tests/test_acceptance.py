"""Acceptance suite: each criterion runs at its stated tolerance and
prints one pass/fail line.

A criterion that checks a claim of `nonembed verify` calls the same claim
function of `nonembed.cli` as the report does, with its own seeds,
tolerances and schedules, on the session's `PipelineContext` at the
default config.  Where it asserts what the report asserts, it reads the
record's pass flag.  Where the 50-digit oracles in ``tools/`` refute the
report's claim, or the criterion uses another tolerance, it applies its
own predicate to the record's values, and reads any oracle value from the
checked-in file:

* criterion 3: the three-leg tree integral of the slit-plane field is
  +0.10761 at K = 4 and positive for every K from 1 to 10
  (tools/oracle_tree_integrals.json); the Green identity that holds is
  the 1/rho-weighted one (tools/oracle_green_forms.py, Form A, the
  record's ``weighted_residuals``), not the plain-ds legs relation, whose
  residuals are 0.084..1.65;
* criterion 5: the tail's tree integral is one tenth of that value for
  every radius of the schedule, so the radius selection runs out of radii;
* criterion 6: the first variation of the tree length is that positive
  value, so no bump amplitude shortens the tree; the slope match runs at
  a step inside the linear regime of the exponential;
* criterion 7: the five-point curvature estimator is second order (error
  2.48e-3 at h = 1/256 over r < 0.95, tools/oracle_misc.py), so the 1e-3
  check applies one Richardson step from h and h/2;
* criterion 9: the second fundamental form of the extended surface has
  |det II| <= 1e-8 ||II|| (the record's ``worst_det_ratio``), where the
  report's verdict bounds its off-diagonal entries instead.
"""

import json
import math
from pathlib import Path

import numpy as np

from nonembed import bvp, cli, conformal, mollify, trees

from curvature_ref import curvature_error_vs_constant, hyperbolic_disc_factor

SEED = 20260809
ORACLE_TREE_INTEGRALS = (Path(__file__).resolve().parents[1] / "tools"
                         / "oracle_tree_integrals.json")


def oracle_tree_integral(K):
    """50-digit tree integral of the slit-plane field at vertex e^{-K}."""
    rows = json.loads(ORACLE_TREE_INTEGRALS.read_text())["rows"]
    return float(next(row["tree"] for row in rows if row["K"] == K))


def report(num, name, subchecks):
    failed = [k for k, ok in subchecks.items() if not ok]
    status = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    print(f"\n[criterion {num:02d}] {name}: {status}")
    assert not failed, f"criterion {num} failed subchecks: {failed}"


def test_criterion_01_harmonicity_ratio(ctx):
    v = cli.claim_harmonicity_ratio(ctx,
                                    np.random.default_rng(SEED))["values"]
    report(1, "five-point residual ratio in [3.5, 4.5]",
           {"n=100": v["n_points"] == 100,
            "ratios": 3.5 <= v["min_ratio"] and v["max_ratio"] <= 4.5})


def test_criterion_02_boundary_behavior(ctx):
    thetas = cli.boundary_angles(np.random.default_rng(SEED + 1))
    report(2, "boundary trace and radial slope",
           {"circle-trace-zero": cli.claim_circle_trace(ctx, thetas)["pass"],
            "slope-matches-fd":
                cli.claim_radial_slope(ctx, thetas)["pass"]})


def test_criterion_03_minimal_K_and_tree_sign(ctx):
    ti = cli.claim_tree_integral(ctx, tol=1e-10)["values"]
    # the oracle value is positive: the claimed negative sign is refuted
    oracle = oracle_tree_integral(ti["K"])
    weighted = cli.claim_identity_residuals(
        ctx, tol=1e-10)["values"]["weighted_residuals"]
    report(3, "minimal-K scan, axis cancellation, tree sign, identity",
           {"k-star-pinned-4": cli.claim_minimal_k(ctx)["pass"],
            "axis-K1-zero-1e-10": cli.claim_axis_integral(ctx, tol=1e-12)["pass"],
            "tree-integral-oracle-sign-and-value-1e-8":
                ti["value"] > 0.0
                and abs(ti["value"] - oracle) <= 1e-8 * oracle,
            "weighted-identity-residual-1e-4":
                all(v <= 1e-4 for v in weighted.values())})


def test_criterion_04_chord_positivity(ctx):
    rec = cli.claim_chord_positivity(ctx, n_chords=100, seed=SEED)
    report(4, "100 seeded chords have positive integrals",
           {"n=100": rec["values"]["n_chords"] == 100,
            "all-positive": rec["pass"]})


def test_criterion_05_tail_pipeline(ctx):
    schedule = [ctx.default_delta / 2 ** k for k in range(3)]
    tail = cli.claim_tail_tree_integral(ctx, schedule, tol=1e-10)["values"]
    # the tail is the glued field pulled back by x -> 10 (x - C0): its tree
    # integral is one tenth of the positive slit-field oracle value
    expected = oracle_tree_integral(ctx.k_star) / 10.0
    values = [h["value"] for h in tail["history"]]
    report(5, "pentagon margins, tail support/subharmonicity, tail tree sign",
           {"N-finite": math.isfinite(ctx.selected.N),
            "edge-margins-positive": cli.claim_pentagon_margins(ctx)["pass"],
            "subharmonic-1e-8-scale": cli.claim_tail_subharmonicity(ctx)["pass"],
            "tail-selection-exhausted":
                tail["selected_delta"] is None and len(values) == len(schedule),
            "tail-tree-integral-positive": all(v > 0.0 for v in values),
            "tail-tree-integral-oracle-1e-6":
                all(abs(v - expected) <= 1e-6 * expected for v in values)})


def test_criterion_06_shortening(ctx):
    scan = cli.claim_shortening(ctx)["values"]
    # the first variation of the length is the tail's tree integral, one
    # tenth of the positive oracle value, and e^x >= 1 + x gives
    # L(d) - L0 >= d * (oracle / 10) > 0 at every amplitude d
    first_variation = oracle_tree_integral(ctx.k_star) / 10.0
    first = scan["history"][0]
    # a step inside the linear regime of the exponential: step * max|v| on
    # the tree is 1e-5
    ts = np.linspace(0.0, 1.0, 200_001)
    v_max = max(float(np.max(np.abs(ctx.tail.value(*leg.at(ts)))))
                for leg in mollify.tail_tree(ctx.k_star).legs)
    slope = cli.claim_length_derivative(ctx, step=1e-5 / v_max)["values"]
    report(6, "shortening threshold, curvature sign, slope match",
           {"delta0-zero": scan["delta0"] == 0.0,
            "smallest-amplitude-lengthens":
                not first["shortens"]
                and first["length"] - first["flat"]
                >= first["delta"] * first_variation > 0.0,
            "curvature-max-1e-8-scale":
                cli.claim_curvature_sign(ctx)["pass"],
            "slope-match-1e-6":
                abs(slope["lhs"] - slope["rhs"]) <= 1e-6 * abs(slope["rhs"])})


def richardson_curvature(h):
    """One Richardson step (4 K_{h/2} - K_h) / 3 of the five-point
    curvature of the hyperbolic factor, on the nodes of the h-grid (each
    of them is also a node of the h/2-grid)."""
    K_h = conformal.gaussian_curvature(hyperbolic_disc_factor(h=h))
    K_f = conformal.gaussian_curvature(hyperbolic_disc_factor(h=h / 2))
    ii, jj = np.nonzero(K_h.grid.mask == bvp.INTERIOR)
    # node i of the h-grid lies at origin + i h
    fi = np.rint((K_h.grid.origin[0] + ii * h - K_f.grid.origin[0])
                 / (h / 2)).astype(int)
    fj = np.rint((K_h.grid.origin[1] + jj * h - K_f.grid.origin[1])
                 / (h / 2)).astype(int)
    assert np.all(K_f.grid.mask[fi, fj] == bvp.INTERIOR)
    values = K_h.values.copy()
    values[ii, jj] = (4.0 * K_f.values[fi, fj] - K_h.values[ii, jj]) / 3.0
    return bvp.ScalarField(grid=K_h.grid, values=values)


def test_criterion_07_conformal_sanity():
    # the five-point estimator alone is second order and misses 1e-3 at
    # h = 1/256 (2.48e-3, tools/oracle_misc.py); one Richardson step
    # cancels its h^2 term
    K = richardson_curvature(1.0 / 256)
    err = curvature_error_vs_constant(K, -1.0)

    # scaling law: lengths scale by e^c exactly, curvatures by e^{-2c}
    n = 48
    box = bvp.box_grid((0.0, 0.0), 1.0, n)
    X, Y = box.nodes_xy()
    phi = np.sin(X) * np.cos(Y)
    c = 0.3
    f1 = bvp.ScalarField(grid=box, values=phi)
    f2 = bvp.ScalarField(grid=box, values=phi + c)
    seg = trees.Segment((-0.4, -0.1), (0.5, 0.3))
    ratio = (conformal.curve_length(f2.interp, seg)
             / conformal.curve_length(f1.interp, seg))
    K1 = conformal.gaussian_curvature(f1)
    K2 = conformal.gaussian_curvature(f2)
    inner = K1.grid.mask == bvp.INTERIOR
    kscale = np.max(np.abs(K1.values[inner]))
    curv_ok = np.allclose(K2.values[inner],
                          K1.values[inner] * math.exp(-2 * c),
                          rtol=1e-10, atol=1e-12 * kscale)
    report(7, "hyperbolic factor K = -1 and conformal scaling laws",
           {"K-minus-one-1e-3-at-h256": err <= 1e-3,
            "length-scaling-exact": abs(ratio - math.exp(c)) <= 1e-12,
            "curvature-scaling-exact": bool(curv_ok)})


def test_criterion_08_pocket_metric(ctx):
    pockets = cli.claim_pockets_negative(ctx)
    report(8, "pocket curvature signs",
           {"negative-in-pockets": pockets["pass"],
            "every-pocket-sampled": all(
                p["n_sampled"] > 0 for p in pockets["values"]["pockets"]),
            "flat-outside-1e-8-scale": cli.claim_flat_outside(ctx)["pass"]})


def test_criterion_09_ruled_surfaces(ctx, gen_surface, extended):
    flat = cli.claim_extension_flatness(ctx, extended)["values"]
    margins = cli.claim_comparison_margins(ctx, gen_surface, seed0=100)
    lengths = cli.claim_projection_lengths(ctx, extended, seed0=1000)
    report(9, "ruled round trip, flatness, curvature family, comparisons",
           {"cylinder-round-trip-1e-10":
                cli.claim_cylinder_round_trip(ctx)["pass"],
            "det-II-1e-8": flat["worst_det_ratio"] <= 1e-8,
            "kappa-20pct-and-trend":
                cli.claim_concavity_family(ctx, seed=42)["pass"],
            "n_instances=20": margins["values"]["n_instances"] == 20,
            "comparison-margins-1e-8": margins["pass"],
            "n_curves=50": lengths["values"]["n_curves"] == 50,
            "projection-lengths-1e-8": lengths["pass"]})


def test_criterion_10_annulus_stack(ctx):
    bound = cli.claim_cutoff_bound(ctx)
    flat = cli.claim_origin_flatness(ctx)
    report(10, "cutoff weights, annulus curvature, origin flatness",
           {"n_bounds=8": len(bound["values"]["bounds"]) == 8,
            "mu-c4-bound-n-le-8": bound["pass"],
            "K-negative-A1-A6": cli.claim_annulus_curvature(ctx)["pass"],
            "orders-0-to-4": len(flat["values"]["derivative_magnitudes"]) == 5,
            "origin-derivatives-1e-8": flat["pass"]})


def test_criterion_11_determinism(tmp_path):
    cfg1 = cli.RunConfig(out_dir=str(tmp_path / "r1"))
    cfg2 = cli.RunConfig(out_dir=str(tmp_path / "r2"))
    cli.cmd_verify("all", cfg1)
    cli.cmd_verify("all", cfg2)
    a = json.loads((tmp_path / "r1" / "report.json").read_text())
    b = json.loads((tmp_path / "r2" / "report.json").read_text())
    # the pentagon's sizes and stage times go to runtime.json only
    runtime = json.loads((tmp_path / "r1" / "runtime.json").read_text())
    pentagon = runtime.get("pentagon", {})
    report(11, "identical config gives identical reports",
           {"reports-identical": a == b,
            "report-bytes-identical": (tmp_path / "r1" / "report.json").read_bytes()
            == (tmp_path / "r2" / "report.json").read_bytes(),
            "runtime-pentagon-block": set(pentagon) == {
                "tip_unknowns", "gamma_unknowns", "rectangle_unknowns",
                "tip_lu_fill", "setup_s", "solve_s", "residual_s",
                "correction_s"},
            "pentagon-unknowns-418026": pentagon.get("tip_unknowns", 0)
            + pentagon.get("gamma_unknowns", 0)
            + pentagon.get("rectangle_unknowns", 0) == 418_026,
            "no-pentagon-block-in-report": "pentagon" not in a})
