"""Command-line orchestration: end-to-end verification pipelines with
machine-readable reports, metric assembly with grid dumps, and grid
format conversion.

Subcommands:

    nonembed verify  {moon,tail,corollary,g1,annulus,ruled,all} [flags]
    nonembed assemble {gII,g1,annulus} [flags]
    nonembed export  FIELD --format {csv,json} --dst PATH

Reports are JSON with stable key order; a number past double range is
+-inf and is emitted as {"sign": +-1, "logmag": inf}, and NaN as null.
Each check carries a stable anchor string naming the claim it verifies.
Exit status: 0 all checks passed, 1 at least one verification failed, 2
invalid configuration or input, or a pipeline error.  The runtime block
is the only nondeterministic part of a report; everything else is
reproducible bit for bit for a fixed config.  `verify all` runs the
targets that do not read the tail in one forked child, which checks
ruled.eps before its first target while this process waits for that
verdict.  Unless the user has set it, OPENBLAS_NUM_THREADS is 1, so that
no BLAS thread pool spins.
"""

from __future__ import annotations

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before NumPy loads
import argparse
import math
import pickle
import resource
import signal
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from nonembed import assembly, bvp, conformal, mollify, ruled, trees
from nonembed.fields import (laplacian_residual, radial_derivative_u,
                             u_float, u_log_xy)
from nonembed.gridio import GridIOError, convert_grid, write_grid_csv, write_json

ASSEMBLE_TARGETS = ("gII", "g1", "annulus")
G1_GRID_N = 1536  # cells across the pocket metric's box


class ConfigError(ValueError):
    pass


def _key(default, key: str, domain: Optional[str] = None, test=None,
         flag: Optional[str] = None):
    """A `RunConfig` field with its config key, its domain (the text that
    follows "must be" in the error message, and the predicate that admits
    a value) and the command-line flag that sets it, if any."""
    return field(default=default, metadata={
        "key": key, "domain": domain, "test": test, "flag": flag})


@dataclass
class RunConfig:
    """The run's settings, one field per config key.  `validate`
    rejects every value outside its field's domain and every float that is
    not finite."""
    quad_tol: float = _key(1e-10, "quad.tol", "in (0, 1e-2]",
                           lambda v: 0.0 < v <= 1e-2)
    k_max: int = _key(10, "k.max", ">= 1", lambda v: v >= 1, flag="--kmax")
    # the tail-field grid spans 2.2 at grid_n = round(2.2 / grid.h) >= 64
    grid_h: float = _key(2.2 / 512, "grid.h", "in [1e-4, 2.2/64]",
                         lambda v: 1e-4 <= v <= 2.2 / 64, flag="--grid-h")
    pentagon_resolution: int = _key(192, "pentagon.resolution",
                                    "an even integer >= 16",
                                    lambda v: v >= 16 and v % 2 == 0)
    # the tail schedule e^{-2K} / 2^(k+1), k < delta.steps
    delta_steps: int = _key(4, "delta.steps", ">= 1", lambda v: v >= 1)
    margin_frac: float = _key(0.05, "margin.frac", "finite and > 0",
                              lambda v: v > 0)
    # np.random.default_rng takes no negative seed
    seed: int = _key(20260809, "seed", ">= 0", lambda v: v >= 0,
                     flag="--seed")
    n_chords: int = _key(100, "chords.count", ">= 1", lambda v: v >= 1)
    # pocket-metric truncation
    n_max: int = _key(3, "truncation.nmax", ">= 1", lambda v: v >= 1,
                      flag="--nmax")
    # one annulus gives no curvature sample and no Cauchy tail
    annulus_n_max: int = _key(
        8, "annulus.nmax",
        f">= 2 with 1/(annulus.nmax + 1) > {assembly.FLATNESS_REACH:.4g}, "
        "the origin-flatness stencil's corner distance",
        lambda v: v >= 2 and assembly.flatness_stencil_in_core(v))
    ruled_tau: float = _key(0.5, "ruled.tau", "in (0, 1)",
                            lambda v: 0.0 < v < 1.0)
    # generate_surface normalizes the perturbation to a measured norm, so
    # only a positive amplitude has a meaning of its own
    ruled_eps: float = _key(0.05, "ruled.eps", "finite and > 0",
                            lambda v: v > 0)
    out_dir: str = _key("out", "output.dir", flag="--out")

    def validate(self) -> None:
        for f in fields(self):
            m, v = f.metadata, getattr(self, f.name)
            if m["test"] is None:
                continue
            if isinstance(v, float) and not math.isfinite(v) \
                    or not m["test"](v):
                raise ConfigError(f"{m['key']} must be {m['domain']}, "
                                  f"got {v!r}")

    @property
    def tail_grid_n(self) -> int:
        return int(round(2.2 / self.grid_h))


def load_config(path: Optional[str]) -> RunConfig:
    """Flat key = value text configuration; unknown keys are rejected."""
    cfg = RunConfig()
    if path is None:
        return cfg
    by_key = {f.metadata["key"]: f for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in by_key:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        f = by_key[key]
        try:
            setattr(cfg, f.name, type(f.default)(val))
        except ValueError as exc:
            raise ConfigError(f"{key} at {path}:{lineno}: {exc}") from exc
    return cfg


def encode_number(x):
    """JSON-safe number: the float itself when finite, null for NaN, and
    {"sign": +-1, "logmag": inf} for +-inf."""
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return None
    return {"sign": 1 if x > 0 else -1, "logmag": math.inf}


def check(name: str, anchor: str, passed: bool, **values) -> dict:
    rec = {"name": name, "anchor": anchor, "pass": bool(passed)}
    rec["values"] = {k: _jsonable(v) for k, v in values.items()}
    return rec


def _jsonable(v):
    if isinstance(v, (np.ndarray, np.generic)):  # to Python scalars, flat
        v = v.ravel().tolist() if isinstance(v, np.ndarray) else v.item()
    if isinstance(v, float):
        return encode_number(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v if isinstance(v, (bool, int, str)) or v is None else repr(v)


# ---------------------------------------------------------------------------
# shared pipeline context (one process run)
# ---------------------------------------------------------------------------

class PipelineContext:
    """Caches the expensive shared stages across targets in one run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._ruled = {}

    def ruled_surface(self, eps: float, seed: int):
        """The surface generated at (ruled.tau, eps, seed) and its extended
        257-ruling sample, built once per run."""
        if (eps, seed) not in self._ruled:
            try:
                g = ruled.generate_surface(self.cfg.ruled_tau, eps, seed=seed)
                ext = ruled.extend_ruled(g.sample(n=257), -1.0, 2.0)
            except ruled.RuledError as exc:
                if eps != self.cfg.ruled_eps:
                    raise
                raise ConfigError(f"ruled.eps must give a surface whose "
                                  f"rulings neither fold nor cross, got "
                                  f"{eps}: {exc}") from exc
            self._ruled[eps, seed] = (g, ext)
        return self._ruled[eps, seed]

    @cached_property
    def k_star(self) -> int:
        k = trees.find_min_k(self.cfg.k_max, tol=self.cfg.quad_tol)
        if k is None:
            raise ConfigError(f"k.max: no K <= {self.cfg.k_max} "
                              "satisfies the sign conditions")
        return k

    @cached_property
    def selected(self) -> bvp.SelectedN:
        return bvp.select_N(self.k_star,
                            resolution=self.cfg.pentagon_resolution,
                            margin_frac=self.cfg.margin_frac)

    @property
    def default_delta(self) -> float:
        return math.exp(-2.0 * self.k_star) / 2.0

    @cached_property
    def tail(self) -> mollify.TailFunction:
        return mollify.build_tail_v(self.selected, self.default_delta,
                                    grid_n=self.cfg.tail_grid_n)

    @cached_property
    def subharmonic(self) -> dict:
        """The tail's composed subharmonicity certificate, which both grid
        sign checks read first: neither may pass on nothing."""
        if not mollify.tail_resolves(self.tail):
            raise ConfigError(
                "grid.h must let some grid-visible tail node show a nonzero "
                f"Laplacian, got {self.cfg.grid_h}")
        return mollify.tail_subharmonic_report(self.tail, self.selected)

    @cached_property
    def g1_report(self) -> dict:  # the pocket metric itself is not kept
        return assembly.build_g1(self.cfg.n_max,
                                 grid_n=G1_GRID_N).curvature_report()

    @cached_property
    def mu(self) -> list:
        return assembly.measure_mu_schedule(self.cfg.annulus_n_max)

    @cached_property
    def annulus_stack(self) -> assembly.AnnulusStack:
        n_max = self.cfg.annulus_n_max
        return assembly.build_annulus_stack([1.0] * n_max, n_max, mu=self.mu,
                                            tail=_TailOnDemand(self))


class _TailOnDemand:
    """Stands for `ctx.tail` and builds it at its first use.  The annulus
    claims evaluate their plantings' rotation sums only off the supports,
    where `RotationSum.value` reads no tail, so `verify annulus` and
    `assemble annulus` solve no pentagon."""

    def __init__(self, ctx: PipelineContext):
        self._ctx = ctx

    def __getattr__(self, name):
        return getattr(self._ctx.tail, name)


# ---------------------------------------------------------------------------
# claims: each measures one claim and returns its report record, whose pass
# flag is the claim as stated; tests/test_acceptance.py calls them too
# ---------------------------------------------------------------------------

def boundary_angles(rng: np.random.Generator) -> np.ndarray:
    """Polar angles of 50 unit-circle sample points clear of the slit."""
    return rng.uniform(0.05, 2 * math.pi - 0.05, size=50)


def claim_circle_trace(ctx: PipelineContext, thetas) -> dict:
    worst = float(np.max(np.abs(u_float(np.cos(thetas), np.sin(thetas)))))
    return check("field-vanishes-on-unit-circle", "circle-trace-zero",
                 worst <= 1e-14, max_abs=worst, n_samples=len(thetas))


def claim_radial_slope(ctx: PipelineContext, thetas, h: float = 1e-4) -> dict:
    """One-sided difference of u at the unit circle against u_r."""
    x0, y0 = np.cos(thetas), np.sin(thetas)
    f1 = u_float((1 - h) * x0, (1 - h) * y0)
    f2 = u_float((1 - 2 * h) * x0, (1 - 2 * h) * y0)
    fd = (-4 * f1 + f2) / (2 * h)
    exact = radial_derivative_u(thetas)
    all_neg = bool(np.all(exact < 0))
    worst_rel = float(np.max(np.abs(fd - exact) / np.abs(exact)))
    return check("radial-derivative-closed-form", "boundary-slope-negative",
                 all_neg and worst_rel <= 1e-6,
                 max_rel_error=worst_rel, negative_everywhere=all_neg)


def claim_harmonicity_ratio(ctx: PipelineContext, rng: np.random.Generator,
                            n_points: int = 100) -> dict:
    """Five-point residual ratio of u between h = 1/128 and 1/256 at the
    first n_points of 10,000 seeded candidates whose residual clears the
    degenerate case, in which the ratio would be noise."""
    r, th = rng.uniform((0.2, math.pi / 3 + 0.05),
                        (0.9, 5 * math.pi / 3 - 0.05), size=(10000, 2)).T
    # math.cos and math.sin per draw keep the bits of the report
    x = r * np.fromiter(map(math.cos, th), float)
    y = r * np.fromiter(map(math.sin, th), float)
    r1 = laplacian_residual(u_float, x, y, 1.0 / 128)
    r2 = laplacian_residual(u_float, x, y, 1.0 / 256)
    scale = np.abs(u_float(x, y)) + 1e-30
    clear = np.abs(r1) >= 1e-8 * scale / (1.0 / 128) ** 2
    ratios = np.abs(r1 / r2)[clear][:n_points]
    return check("harmonicity-residual-ratio", "laplacian-ratio-4",
                 len(ratios) == n_points
                 and np.all((3.5 <= ratios) & (ratios <= 4.5)),
                 n_points=len(ratios), min_ratio=np.min(ratios),
                 max_ratio=np.max(ratios))


def claim_axis_integral(ctx: PipelineContext, tol: float) -> dict:
    aa1 = trees.aa2_integral_scaled(1, tol=tol)
    return check("axis-integral-cancels-at-K1", "axis-integral-zero",
                 abs(aa1.value) <= 1e-10,
                 value=aa1.value, est_error=aa1.est_error)


def claim_minimal_k(ctx: PipelineContext) -> dict:
    return check("minimal-K-scan", "minimal-K", ctx.k_star == 4,
                 k_star=ctx.k_star, k_max=ctx.cfg.k_max)


def claim_identity_residuals(ctx: PipelineContext, tol: float) -> dict:
    """Residuals for K = 2..6, plain ds and with 1/rho leg weights."""
    ks = range(2, 7)
    plain = {str(K): trees.green_identity_residual(K, tol=tol) for K in ks}
    weighted = {str(K): trees.weighted_green_identity_residual(K, tol=tol)
                for K in ks}
    return check(
        "legs-identity-residual", "legs-vs-axis-plus-arcs",
        all(v <= 1e-4 for v in plain.values()),
        residuals=plain, weighted_residuals=weighted,
        note="the displayed identity omits the 1/rho leg weights; with them "
             f"it holds to {max(weighted.values()):.0e} (weighted_residuals)")


def claim_tree_integral(ctx: PipelineContext, tol: float) -> dict:
    K = ctx.k_star
    ti = trees.tree_integral(u_log_xy, trees.moon_tree(K), tol=tol)
    return check("tree-integral-sign", "tree-integral-negative",
                 ti.value < 0.0,
                 value=ti.value, est_error=ti.est_error, K=K)


def claim_chord_positivity(ctx: PipelineContext, n_chords: int,
                           seed: int) -> dict:
    tree = trees.moon_tree(ctx.k_star)
    chords = trees.random_boundary_chords(tree, n_chords, seed=seed)
    signs = [trees.check_segment_positivity(s, tree) for s in chords]
    return check("chord-positivity", "chord-integrals-positive",
                 all(s == 1 for s in signs), n_chords=len(chords), seed=seed)


def claim_pentagon_margins(ctx: PipelineContext) -> dict:
    sel = ctx.selected
    worst = {e: float(np.min(m)) for e, m in sel.margins.items()}
    return check("pentagon-N-selection", "edge-margins-positive",
                 all(v > 0 for v in worst.values()),
                 N=sel.N, worst_margins=worst,
                 resolution=ctx.cfg.pentagon_resolution)


def claim_tail_support(ctx: PipelineContext) -> dict:
    f = ctx.tail.field
    X, Y = f.grid.nodes_xy()
    outside = (X**2 + Y**2 > 1.0) & (X < 0.9)
    sup = float(np.max(np.abs(f.values[outside])))
    return check("tail-support", "tail-vanishes-left-of-0.9", sup == 0.0,
                 max_abs=sup, n_nodes=int(outside.sum()))


def claim_tail_subharmonicity(ctx: PipelineContext) -> dict:
    rep = ctx.subharmonic
    return check("tail-subharmonicity", "tail-laplacian-nonnegative",
                 rep["passes"],
                 **{k: v for k, v in rep.items() if k != "worst_node_xy"},
                 worst_node=list(rep["worst_node_xy"]))


def claim_tail_tree_integral(ctx: PipelineContext, schedule,
                             tol: float) -> dict:
    sel = mollify.select_tail_delta(ctx.selected, schedule=schedule, tol=tol)
    return check("tail-tree-integral", "tail-tree-integral-negative",
                 sel.succeeded,
                 history=[{"delta": d, "value": v, "est_error": e}
                          for (d, v, e) in sel.history],
                 selected_delta=sel.delta)


def claim_curvature_sign(ctx: PipelineContext, delta: float) -> dict:
    subharmonic = ctx.subharmonic  # first: it checks grid.h
    rep = conformal.tail_curvature_report(ctx.tail, delta=delta)
    return check("bump-metric-curvature-sign", "curvature-nonpositive",
                 rep["curvature_sign_pass"] and subharmonic["passes"],
                 max_positive_logK=rep["max_positive_logK"],
                 scale_logK=rep["scale_logK"])


def claim_length_derivative(ctx: PipelineContext, step: float) -> dict:
    """The note describes the step 1e-4 that the report uses."""
    lhs, rhs = conformal.length_derivative_check(
        ctx.tail, mollify.tail_tree(ctx.k_star), step=step)
    return check(
        "length-derivative-match", "length-slope-equals-tree-integral",
        abs(lhs - rhs) <= 1e-6 * abs(rhs) and lhs < 0 and rhs < 0,
        lhs=lhs, rhs=rhs,
        note="the difference-quotient step leaves the linear regime of the "
             "exponential on this field (step * max|v| ~ 11 on the tree)")


def claim_shortening(ctx: PipelineContext, n_scan: int) -> dict:
    tail = ctx.tail
    tree = mollify.tail_tree(ctx.k_star)
    scan = conformal.find_delta0(tail, tree, n_scan=n_scan)
    margin = None
    if scan.succeeded:
        d = scan.delta0 / 2
        L_half = conformal.curve_length(
            lambda x, y: d * np.asarray(tail.value(x, y)), tree)
        margin = scan.history[0][2] - L_half  # the flat length L0
    return check("shortening-threshold", "shortening-amplitude-positive",
                 margin is not None and margin > 0, delta0=scan.delta0,
                 history=[{"delta": d, "length": a, "flat": b,
                           "shortens": s}
                          for (d, a, b, s) in scan.history],
                 half_margin=margin)


def claim_pockets_negative(ctx: PipelineContext) -> dict:
    rep = ctx.g1_report
    return check("pocket-curvature-negative", "pockets-negative",
                 rep["all_pockets_negative"], pockets=rep["pockets"])


def claim_flat_outside(ctx: PipelineContext) -> dict:
    rep = ctx.g1_report
    return check("flat-outside-pockets", "flat-outside", rep["flat_outside"],
                 max_abs_outside=rep["max_abs_K_outside"], scale=rep["scale"])


def claim_cutoff_bound(ctx: PipelineContext) -> dict:
    mu = ctx.mu
    bounds = [assembly.cutoff_c4_norm(n, mu[n - 1])
              for n in range(1, ctx.cfg.annulus_n_max + 1)]
    return check("cutoff-weight-bound", "weighted-c4-bound",
                 all(b <= 2.0 ** -(i + 1) for i, b in enumerate(bounds)),
                 mu=mu, bounds=bounds)


def claim_cutoff_cauchy(ctx: PipelineContext) -> dict:
    n_max = ctx.cfg.annulus_n_max
    lo = max(1, n_max // 2)
    d = assembly.cutoff_partial_sum_c4_distance(ctx.mu, n_max, lo)
    return check("cutoff-partial-sums-cauchy", "c4-cauchy-tail",
                 d <= 2.0 ** (-lo + 1), distance=d, bound=2.0 ** (-lo + 1))


def claim_annulus_curvature(ctx: PipelineContext) -> dict:
    worst = {}
    for n in range(1, min(6, ctx.cfg.annulus_n_max - 1) + 1):
        recs = assembly.annulus_curvature_samples(ctx.annulus_stack, n)
        worst[str(n)] = max(r["K"] for r in recs)
    return check("annulus-curvature-negative", "annuli-negative",
                 all(k < 0.0 for k in worst.values()),
                 worst_K_per_annulus=worst)


def claim_origin_flatness(ctx: PipelineContext) -> dict:
    mags = assembly.origin_flatness(ctx.annulus_stack)
    return check("origin-flatness", "origin-derivatives-vanish",
                 all(m <= 1e-8 for m in mags), derivative_magnitudes=mags)


def claim_cylinder_round_trip(ctx: PipelineContext) -> dict:
    tau = ctx.cfg.ruled_tau
    surf, diag = ruled.extract_rulings(ruled.graph_of(ruled.cylinder(tau)))
    d_err = float(np.max(np.abs(surf.d - np.array([1.0, 0.0, 0.0]))))
    s = surf.s
    c_exact = np.stack([np.full_like(s, 2.0), -s / tau, -s * s / (2 * tau)],
                       axis=-1)
    c_err = float(np.max(np.abs(surf.c - c_exact)))
    return check("cylinder-round-trip", "ruling-recovery-exact",
                 max(c_err, d_err) <= 1e-10, c_error=c_err, d_error=d_err,
                 straightness=float(np.max(diag["straightness"])))


def claim_extension_flatness(ctx: PipelineContext,
                             ext: ruled.RuledSurface) -> dict:
    """max |II_00|, |II_01| relative to 1 + |II_11|, and max |det II| /
    ||II||, over nine points of the extended surface."""
    worst_offdiag = 0.0
    worst_det = 0.0
    for t in (-1.0, 0.5, 2.0):
        forms = ruled.curvature_forms(ext, t)
        for i in (30, 128, 220):
            ts, ss = forms["II_ts"][i], forms["II_ss"][i]
            II = np.array([[0.0, ts], [ts, ss]])
            worst_offdiag = max(worst_offdiag, abs(ts) / (1 + abs(ss)))
            worst_det = max(worst_det,
                            abs(np.linalg.det(II)) / np.linalg.norm(II))
    return check("extension-flatness", "extended-form-degenerate",
                 worst_offdiag <= 1e-8, worst_offdiag=worst_offdiag,
                 worst_det_ratio=worst_det)


def claim_concavity_family(ctx: PipelineContext, seed: int) -> dict:
    """Quadratic-model deviations for eps = 0.1, 0.05, 0.025; principal
    curvatures at eps = 0.025 against -tau / (1 + s^2)^{3/2}."""
    tau = ctx.cfg.ruled_tau
    devs = []
    for eps in (0.1, 0.05, 0.025):
        _, samp = ctx.ruled_surface(eps, seed)
        cc = ruled.concavity_check(samp)
        devs.append(max(float(np.max(np.abs(cc["a0"] + 1.0 / tau**2))),
                        float(np.max(np.abs(cc["a1"]))),
                        float(np.max(np.abs(cc["a2"])))))
    kappa_ok = True
    rows = [64, 128, 192]
    target = -tau / (1.0 + samp.s[rows] ** 2) ** 1.5
    for t in (0.0, 1.0, 2.0):
        k = ruled.curvature_forms(samp, t)["kappa"][rows]
        kappa_ok &= bool(np.all(np.abs(k - target) <= 0.2 * np.abs(target)))
    return check("concavity-epsilon-family", "quadratic-deviation-trend",
                 devs[0] > devs[1] > devs[2] and kappa_ok,
                 deviations=devs, kappa_within_20pct=kappa_ok)


def claim_comparison_margins(ctx: PipelineContext,
                             gen: ruled.GeneratedSurface, seed0: int,
                             count: int = 20) -> dict:
    inst = ruled.hypothesis_instances(gen, count, seed0=seed0)
    margins = [r["margin"] for (_, _, r) in inst]
    return check("comparison-margins", "competitor-stays-above",
                 min(margins) >= -1e-8, n_instances=len(inst),
                 min_margin=min(margins))


def claim_projection_lengths(ctx: PipelineContext, ext: ruled.RuledSurface,
                             seed0: int, n_curves: int = 50) -> dict:
    curves = np.stack([ruled.random_curve_above(ext, seed=seed0 + sd)
                       for sd in range(n_curves)])
    lc, lp = ruled.project_and_compare(curves, ext)
    return check("projection-lengths", "projection-shortens",
                 bool(np.all(lc >= lp - 1e-8)), n_curves=len(lc),
                 worst_gap=float(np.min(lc - lp)))


# ---------------------------------------------------------------------------
# verification pipelines: the claims of each target, in report order
# ---------------------------------------------------------------------------

def verify_moon(ctx: PipelineContext) -> list:
    cfg = ctx.cfg
    rng = np.random.default_rng(cfg.seed)
    thetas = boundary_angles(rng)
    return [claim_circle_trace(ctx, thetas),
            claim_radial_slope(ctx, thetas),
            claim_harmonicity_ratio(ctx, rng),
            claim_axis_integral(ctx, tol=cfg.quad_tol),
            claim_minimal_k(ctx),
            claim_identity_residuals(ctx, tol=cfg.quad_tol),
            claim_tree_integral(ctx, tol=cfg.quad_tol),
            claim_chord_positivity(ctx, cfg.n_chords, seed=cfg.seed)]


def verify_tail(ctx: PipelineContext) -> list:
    cfg = ctx.cfg
    schedule = [ctx.default_delta / 2.0 ** k for k in range(cfg.delta_steps)]
    return [claim_pentagon_margins(ctx),
            claim_tail_support(ctx),
            claim_tail_subharmonicity(ctx),
            claim_tail_tree_integral(ctx, schedule, tol=cfg.quad_tol)]


def verify_corollary(ctx: PipelineContext) -> list:
    return [claim_curvature_sign(ctx, delta=1e-6),
            claim_length_derivative(ctx, step=1e-4),
            claim_shortening(ctx, n_scan=12)]


def verify_g1(ctx: PipelineContext) -> list:
    return [claim_pockets_negative(ctx), claim_flat_outside(ctx)]


def verify_annulus(ctx: PipelineContext) -> list:
    return [claim_cutoff_bound(ctx), claim_cutoff_cauchy(ctx),
            claim_annulus_curvature(ctx), claim_origin_flatness(ctx)]


def verify_ruled(ctx: PipelineContext) -> list:
    cfg = ctx.cfg
    gen, ext = ctx.ruled_surface(cfg.ruled_eps, cfg.seed)
    return [claim_cylinder_round_trip(ctx),
            claim_extension_flatness(ctx, ext),
            claim_concavity_family(ctx, seed=cfg.seed),
            claim_comparison_margins(ctx, gen, seed0=cfg.seed),
            claim_projection_lengths(ctx, ext, seed0=cfg.seed)]


_PIPELINES = {
    "moon": verify_moon,
    "tail": verify_tail,
    "corollary": verify_corollary,
    "g1": verify_g1,
    "annulus": verify_annulus,
    "ruled": verify_ruled,
}
# the targets `verify all` runs in its own process: the two that read
# `PipelineContext.tail`, and annulus, which reads none but is short, so
# that the lanes end closer together; it forks the rest
_TAIL_LANE = ("tail", "corollary", "annulus")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _config_echo(cfg: RunConfig) -> dict:
    """The config as a report or manifest records it: without the output
    directory, which is not semantic, so that runs written to different
    directories compare equal."""
    echo = asdict(cfg)
    echo.pop("out_dir")
    return echo


def _check_g1_resolves(cfg: RunConfig) -> None:
    """The g1 targets' bound on truncation.nmax, checked before any target
    runs: the g1 grid must resolve the smallest pocket."""
    if not assembly.g1_resolves(cfg.n_max, G1_GRID_N):
        raise ConfigError(
            f"truncation.nmax must let the g1 grid of {G1_GRID_N} cells "
            "resolve the smallest pocket (radius 4^-nmax >= 4 h), "
            f"got {cfg.n_max}")


def _run_lane(ctx: PipelineContext, targets: list,
              checked=lambda: None) -> dict:
    """Each target's (records, seconds, process peak RSS in MB); a target
    that raises ends the lane with its exception in place of the triple.
    The lane that holds ruled first builds the surface at ruled.eps, the
    run's one check of that value, whose ConfigError it raises before any
    target runs; then it calls `checked`."""
    if "ruled" in targets:
        ctx.ruled_surface(ctx.cfg.ruled_eps, ctx.cfg.seed)
    checked()
    done = {}
    for t in targets:
        t0 = time.perf_counter()
        try:
            recs = _PIPELINES[t](ctx)
        except Exception as exc:
            return done | {t: exc}
        done[t] = (recs, time.perf_counter() - t0,  # ru_maxrss is in KiB
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return done


def _send(pipe, obj) -> None:
    """Writes a verdict (None or an exception) or a lane's results to the
    pipe at once.  An exception that does not pickle crosses as its
    message."""
    def crossing(x):
        if isinstance(x, Exception):
            try:
                pickle.loads(pickle.dumps(x))
            except Exception:
                return RuntimeError(str(x))
        return x

    if isinstance(obj, dict):
        obj = {t: crossing(x) for t, x in obj.items()}
    pickle.dump(crossing(obj), pipe)
    pipe.flush()


def _receive(pipe, away: list):
    """The next object `_send` wrote, or the forked lane's failure to."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # died before or mid-write
        raise RuntimeError(
            f"the {'/'.join(away)} lane sent no results") from None


def _run_lanes(ctx: PipelineContext, targets: list) -> dict:
    """The tail lane here, the rest in a forked child reaped in any case.
    The child first sends its verdict on ruled.eps: None, or the exception,
    which this process raises before its own lane starts.  It then sends
    its lane's results.  So only the child builds the surface at ruled.eps
    and loads the numpy.random that it draws with."""
    here = [t for t in targets if t in _TAIL_LANE] or targets
    away = [t for t in targets if t not in here]
    if not away:
        return _run_lane(ctx, here)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child, on its copy of the fresh ctx, never prints
        try:
            with open(w, "wb") as pipe:
                try:
                    done = _run_lane(ctx, away, lambda: _send(pipe, None))
                except Exception as exc:  # the verdict on ruled.eps
                    _send(pipe, exc)
                else:
                    _send(pipe, done)
        finally:  # the parent reads the pipe, not the exit status
            os._exit(0)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            verdict = _receive(pipe, away)
            if verdict is not None:
                raise verdict
            return _run_lane(ctx, here) | _receive(pipe, away)
    except BaseException:  # the child's results go unread
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def cmd_verify(target: str, cfg: RunConfig) -> int:
    cfg.validate()
    targets = list(_PIPELINES) if target == "all" else [target]
    if "g1" in targets:
        _check_g1_resolves(cfg)
    ctx = PipelineContext(cfg)
    out = Path(cfg.out_dir)
    report = {"config": _config_echo(cfg), "targets": targets, "checks": []}
    t_total = time.perf_counter()
    done = _run_lanes(ctx, targets)
    for t in targets:  # a target missing from `done` follows one that raised
        if isinstance(done[t], Exception):
            raise done[t]
        for rec in done[t][0]:
            report["checks"].append(rec | {"target": t})
            status = "PASS" if rec["pass"] else "FAIL"
            print(f"[{status}] {t}:{rec['name']} ({rec['anchor']})")
    # a cached_property that has been computed sits in the instance dict
    if "k_star" in vars(ctx):
        report["K"] = ctx.k_star
    if "tail" in vars(ctx):
        write_grid_csv(ctx.tail.field, out / "tail_field.csv")
        report["artifacts"] = ["tail_field.csv", "tail_field.json"]
    n_fail = sum(1 for c in report["checks"] if not c["pass"])
    report["summary"] = {
        "n_checks": len(report["checks"]),
        "n_fail": n_fail,
        "overall_pass": n_fail == 0,
    }
    write_json(out / "report.json", report)
    # runtimes and solver sizes live apart from the reproducible report
    timing = {"seconds_total": time.perf_counter() - t_total,
              "per_target": {t: done[t][1] for t in targets},
              "per_target_peak_rss_mb": {t: done[t][2] for t in targets}}
    if "selected" in vars(ctx):
        timing["pentagon"] = ctx.selected.stats
    write_json(out / "runtime.json", timing)
    print(f"report: {out / 'report.json'} "
          f"({len(report['checks']) - n_fail}/{len(report['checks'])} passed)")
    return 0 if n_fail == 0 else 1


def cmd_assemble(target: str, cfg: RunConfig) -> int:
    cfg.validate()
    if target == "g1":
        _check_g1_resolves(cfg)
    ctx = PipelineContext(cfg)
    out = Path(cfg.out_dir)
    manifest = {"config": _config_echo(cfg), "target": target}
    if target == "g1":
        pm = assembly.build_g1(cfg.n_max, grid_n=G1_GRID_N)
        write_grid_csv(pm.factor, out / "g1_factor.csv")
        write_grid_csv(conformal.gaussian_curvature(pm.factor),
                       out / "g1_curvature.csv")
        manifest["pockets"] = _jsonable(pm.curvature_report()["pockets"])
        manifest["artifacts"] = ["g1_factor.csv", "g1_curvature.csv"]
    elif target == "gII":
        w = assembly.RotationSum(base=ctx.tail)
        sched = assembly.build_bump_schedule(min(cfg.n_max + 3, 8), w)
        manifest["bump_centers"] = _jsonable(sched.centers)
        manifest["bump_radii"] = _jsonable(sched.radii)
        manifest["bump_amplitudes"] = _jsonable(sched.amplitudes)
        manifest["derivative_bounds"] = _jsonable(sched.derivative_bounds)
        manifest["sub_tail_orientation"] = \
            "index 180 faces the negative x-axis"
        grid = bvp.box_grid((float(sched.centers[0][0]),
                             float(sched.centers[0][1])),
                            float(sched.radii[0]), 256)
        vals = assembly.eval_gII_factor(sched, w, *grid.nodes_xy())
        write_grid_csv(bvp.ScalarField(grid=grid, values=vals),
                       out / "gII_factor_ball1.csv")
        manifest["artifacts"] = ["gII_factor_ball1.csv"]
    elif target == "annulus":
        stack = ctx.annulus_stack
        manifest["mu"] = ctx.mu
        manifest["eta"] = [1.0] * cfg.annulus_n_max
        manifest["plantings"] = _jsonable(
            [{"center": c, "sigma": s, "amplitude": a}
             for (c, s, a) in stack.plantings])
        rs = np.linspace(1e-3, 0.999, 2000)
        doc_rows = [[repr(float(r)), repr(float(v))]
                    for r, v in zip(rs, stack.cutoff_sum(rs))]
        write_json(out / "annulus_cutoff_profile.json",
                    {"columns": ["r", "factor"], "rows": doc_rows})
        manifest["artifacts"] = ["annulus_cutoff_profile.json"]
    else:
        raise ConfigError(f"unknown assemble target {target!r}")
    write_json(out / "manifest.json", manifest)
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def cmd_export(src: str, fmt: str, dst: str) -> int:
    convert_grid(src, fmt, dst)
    print(f"wrote {dst}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nonembed",
        description="verification pipelines for slit-plane tree metrics, "
                    "glued pentagon tails, and developable comparisons")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", metavar="PATH", default=None)
        for f in fields(RunConfig):
            if f.metadata["flag"]:
                sp.add_argument(f.metadata["flag"], dest=f.name,
                                type=type(f.default),
                                help=f"sets config key {f.metadata['key']}")

    v = sub.add_parser("verify", help="run a verification pipeline")
    v.add_argument("target", choices=(*_PIPELINES, "all"))
    add_common(v)

    a = sub.add_parser("assemble", help="build a metric and dump grids")
    a.add_argument("target", choices=ASSEMBLE_TARGETS)
    add_common(a)

    e = sub.add_parser("export", help="convert grid dumps between formats")
    e.add_argument("field", metavar="PATH")
    e.add_argument("--format", choices=("csv", "json"), required=True)
    e.add_argument("--dst", metavar="PATH", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "export":
            return cmd_export(args.field, args.format, args.dst)
        cfg = load_config(args.config)
        for f in fields(cfg):
            if vars(args).get(f.name) is not None:
                setattr(cfg, f.name, vars(args)[f.name])
        if args.command == "verify":
            return cmd_verify(args.target, cfg)
        return cmd_assemble(args.target, cfg)
    except (ConfigError, GridIOError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
