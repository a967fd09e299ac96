"""The four workloads: inputs drawn from a seed, operations, output checks.

A workload builds one `Round` at a time from its random generator. A round
is a fixed list of operations: the discrete axes (families, checks, q, beta,
c_factor, mesh levels, solver branches) are covered the same way in every
round, and the seed only draws the continuous shape and solver parameters.
So every run executes whole rounds of the same mix, whatever the seed.

Checks never compare against stored output. They use the closed forms and
independent solvers in `oracles`, and properties the method must have
(conforming FEM bounds the ball value from above, error ratios of a
second-order method, the two obstacle paths agreeing where the obstacle is
inactive). Each check returns a list of failure messages.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import oracles
from robinlab import cli, config, fem, geometry, inequalities, radial
from robinlab.radial import RadialParams


@dataclass
class Round:
    """ops: (label, zero-argument callable) run in order; check receives the
    outputs in the same order, None for an operation that raised."""

    ops: list
    check: Callable[[list], list]


def _ball_lower_bound(q, beta, R):
    """c = 0 energy of the ball of radius R, from the oracles."""
    if q == 1.0:
        return oracles.ball_energy_q1(2, R, beta)
    return oracles.ball_energy_shooting(q, beta, R)


def _passed(row, tag):
    """The sweep's own pass convention, re-derived from the row's numbers."""
    deficit, tol = float(row["deficit"]), float(row["tolerance"])
    if str(row["passed"]).lower() != "true" or not deficit >= -tol:
        return [f"{tag}: row fails, deficit {deficit:.6g} < -tolerance {tol:.6g}"]
    return []


# ---------------------------------------------------------------------------
# shape_sweep: config files through cli.run_experiment


SHAPES = (("ellipse", 2), ("perturbed", 2), ("perturbed", 3), ("stadium", 2))
SWEEP_CHECKS = ("intermediate", "quantitative", "trace_poincare")
# 12 operations cycle through 4 (q, beta) pairs: each check meets each pair once
Q_BETA = ((1.0, 0.5), (1.5, 2.0), (1.0, 2.0), (1.5, 0.5))
RANGES = {"ellipse": (1.05, 1.4), "perturbed": (0.03, 0.15), "stadium": (0.2, 1.2)}


def _draw(rng, family):
    lo, hi = RANGES[family]
    return float(rng.uniform(lo, hi))


def _write_config(path, check, family, value, k, q, beta, output_dir):
    text = (
        "# benchmark input\n"
        f"checks = [{check}]\n"
        f"family = {family}\n"
        f"grid = [{value!r}]\n"
        f"q = [{q!r}]\n"
        f"beta = [{beta!r}]\n"
        f"k = {k}\n"
        f"output_dir = {output_dir}\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _run_config(path, check):
    cfg = config.load_config(path)
    status = cli.run_experiment(cfg, out=io.StringIO())
    with open(os.path.join(cfg.output_dir, f"{check}.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return status, rows


def check_shape_row(spec, status, rows):
    family, value, k, q, beta, check = spec
    tag = f"shape_sweep {check} {family}({value:.6g}, k={k}) q={q} beta={beta}"
    if status != 0:
        return [f"{tag}: run_experiment returned {status}"]
    if len(rows) != 1:
        return [f"{tag}: expected one CSV row, got {len(rows)}"]
    row = rows[0]
    errs = _passed(row, tag)
    area = oracles.polygon_area(oracles.family_radii(family, value, k))
    if abs(float(row["area"]) - area) > 1e-9 * area:
        errs.append(f"{tag}: area {row['area']} is not the shape's area {area:.12g}")
    E, E_ball = float(row["E"]), _ball_lower_bound(q, beta, math.sqrt(area / math.pi))
    if not E >= E_ball - 1e-9 * abs(E_ball):
        errs.append(f"{tag}: E = {E:.12g} below the equal-area ball energy {E_ball:.12g}")
    level = oracles.level_from_energy(E, q)
    if abs(float(row["lambda_q"]) - level) > 1e-9 * level:
        errs.append(f"{tag}: lambda_q {row['lambda_q']} is not the level of E, {level:.12g}")
    return errs


def shape_sweep_round(rng, index, workdir):
    ops, specs = [], []
    for i, ((family, k), check) in enumerate(itertools.product(SHAPES, SWEEP_CHECKS)):
        q, beta = Q_BETA[i % len(Q_BETA)]
        value = _draw(rng, family)
        path = os.path.join(workdir, f"r{index}-{i}.cfg")
        _write_config(path, check, family, value, k, q, beta, os.path.join(workdir, f"r{index}-{i}"))
        ops.append((check, partial(_run_config, path, check)))
        specs.append((family, value, k, q, beta, check))

    def check(outputs):
        errs = []
        for spec, out in zip(specs, outputs):
            if out is not None:
                errs += check_shape_row(spec, *out)
        return errs

    return Round(ops, check)


# ---------------------------------------------------------------------------
# obstacle_sweep: ec_ball rows through inequalities.sweep


OBSTACLE_SHAPES = ("ellipse", "perturbed", "stadium")
C_FACTORS = (0.5, 1.0, 2.0)


def _sweep_row(family, value, check, q, beta, k, c_factor):
    return inequalities.sweep(
        family, [value], check, q=q, beta=beta, k=k, c_factor=c_factor
    ).rows[0]


def check_ec_row(spec, row):
    family, value, k, q, beta, cf = spec
    tag = f"obstacle_sweep ec_ball {family}({value:.6g}) q={q} beta={beta} c_factor={cf}"
    errs = _passed(row, tag)
    c, inf_u = float(row["c"]), float(row["inf_u"])
    if abs(c - cf * inf_u) > 1e-12 * max(1.0, c):
        errs.append(f"{tag}: obstacle level {c:.12g} is not c_factor * inf u = {cf * inf_u:.12g}")
    R = oracles.equal_area_radius(oracles.family_radii(family, value, k))
    if q == 1.0:
        E_ball = oracles.ball_energy_q1(2, R, beta, c)
        if abs(float(row["rhs"]) - E_ball) > 1e-8 * max(1.0, abs(E_ball)):
            errs.append(f"{tag}: ball E^c {row['rhs']} differs from closed form {E_ball:.12g}")
    if family == "disk":
        exact = oracles.disk_ec_q1(c)
        if abs(float(row["lhs"]) - exact) > 1e-3:
            errs.append(f"{tag}: disk E^c {row['lhs']} differs from closed form {exact:.12g}")
    return errs


def check_paths_agree(ec_row, int_row, tag):
    """At c_factor = 1 the obstacle sits at inf u and is inactive, so the
    ec_ball deficit and the intermediate deficit measure the same gap."""
    gap = abs(float(ec_row["deficit"]) - float(int_row["deficit"]))
    allowed = float(ec_row["tolerance"]) + float(int_row["tolerance"])
    if not gap <= allowed:
        return [f"{tag}: ec_ball and intermediate deficits differ by {gap:.3g} > {allowed:.3g}"]
    return []


def obstacle_sweep_round(rng, index, workdir):
    ops, specs = [], []
    blocks = []  # (index of the c_factor = 1 row, index of the intermediate row, tag)
    for qi, q in enumerate((1.0, 1.5)):
        for fi, family in enumerate(OBSTACLE_SHAPES):
            beta = (0.5, 2.0)[(fi + qi) % 2]
            k = 2 + qi
            value = _draw(rng, family)
            for cf in C_FACTORS:
                ops.append(("ec_ball", partial(_sweep_row, family, value, "ec_ball", q, beta, k, cf)))
                specs.append((family, value, k, q, beta, cf))
            ops.append(("intermediate", partial(_sweep_row, family, value, "intermediate", q, beta, k, 0.0)))
            specs.append(None)
            tag = f"obstacle_sweep {family}({value:.6g}) q={q} beta={beta}"
            blocks.append((len(ops) - 3, len(ops) - 1, tag))
    for cf in C_FACTORS:
        ops.append(("ec_ball_disk", partial(_sweep_row, "disk", 1.0, "ec_ball", 1.0, 1.0, 2, cf)))
        specs.append(("disk", 1.0, 2, 1.0, 1.0, cf))

    def check(outputs):
        errs = []
        for spec, row in zip(specs, outputs):
            if row is None:
                continue
            errs += check_ec_row(spec, row) if spec else _passed(row, "obstacle_sweep intermediate")
        for i_ec, i_int, tag in blocks:
            if outputs[i_ec] is not None and outputs[i_int] is not None:
                errs += check_paths_agree(outputs[i_ec], outputs[i_int], tag)
        return errs

    return Round(ops, check)


# ---------------------------------------------------------------------------
# radial_certificates: the radial module alone


BRANCHES = ("robin", "modified", "contact", "eps")


def _certificate(params, R, t):
    profile = radial.solve_ball(params, R)
    energy = radial.ball_energy(profile)
    ham = radial.hamiltonian_monotonicity(profile)
    scaling = inequalities.check_scaling(profile, t)
    return profile.mode, energy.E, ham.passed, scaling.passed


def check_certificate(params, R, out):
    mode, E, ham_ok, scaling_ok = out
    p = params
    tag = f"radial solve_ball n={p.n} q={p.q:.6g} beta={p.beta:.6g} c={p.c:.6g} eps={p.eps:.6g} R={R:.6g}"
    errs = []
    if not ham_ok:
        errs.append(f"{tag}: Hamiltonian monotonicity report fails")
    if not scaling_ok:
        errs.append(f"{tag}: scaling report fails")
    if not E < 0.0:
        errs.append(f"{tag}: energy {E:.12g} is not negative")
    if p.q == 1.0:
        exact = oracles.ball_energy_q1(p.n, R, p.beta, p.c, p.eps)
        if abs(E - exact) > 1e-9 * max(1.0, abs(exact)):
            errs.append(f"{tag}: E = {E:.12g}, closed form {exact:.12g}")
        if p.c == 0.0:
            want = "robin"
        elif p.eps == 0.0 and p.c >= R / (p.n * p.beta):
            want = "obstacle_contact"
        else:
            want = "modified_robin"
        if mode != want:
            errs.append(f"{tag}: mode {mode}, expected {want}")
    elif p.c == 0.0:
        ref = oracles.ball_energy_shooting(p.q, p.beta, R, n=p.n)
        if abs(E - ref) > 1e-8 * max(1.0, abs(ref)):
            errs.append(f"{tag}: E = {E:.12g}, shooting oracle {ref:.12g}")
    return errs


def radial_certificates_round(rng, index, workdir):
    ops, checks = [], []
    u = rng.uniform
    for n in (2, 3):
        for branch, sublinear in itertools.product(BRANCHES, (False, True)):
            q = float(u(1.1, 1.9)) if sublinear else 1.0
            beta, R, t = float(u(0.5, 2.0)), float(u(0.7, 1.5)), float(u(1.05, 2.0))
            scale = R / (n * beta)
            c, eps = {
                "robin": (0.0, 0.0),
                "modified": (float(u(0.05, 0.3)) * scale, 0.0),
                "contact": (float(u(1.5, 3.0)) * scale, 0.0),
                "eps": (float(u(0.05, 0.3)) * scale, float(u(0.2, 0.6))),
            }[branch]
            p = RadialParams(n=n, q=q, beta=beta, c=c, eps=eps)
            ops.append((f"ball_{branch}", partial(_certificate, p, R, t)))
            checks.append(partial(check_certificate, p, R))
        for _ in range(2):
            beta, R = float(u(0.5, 2.0)), float(u(0.7, 1.5))
            ops.append(("eigenvalue_q2", partial(radial.eigenvalue_q2_ball, n, beta, R)))
            checks.append(partial(check_eigenvalue, n, beta, R))
        r1 = float(u(0.2, 0.6))
        p = RadialParams(n=n, q=float(u(1.0, 1.95)), beta=float(u(0.5, 2.0)))
        ops.append(("annulus", partial(radial.annulus_exclusion, p, r1, r1 + float(u(0.3, 1.0)))))
        checks.append(partial(check_annulus, p))
    # the seed draws m too: with m fixed, every round would repeat the same
    # 24 ball solves and skew the solve_ball distinct-input ratio
    r_m = float(u(0.8, 1.2))
    k = float(u(0.0, 2.0)) * oracles.penalty_threshold_q1(r_m)
    penalized = partial(
        radial.penalized_ball_argmin, RadialParams(n=2, q=1.0, beta=1.0), math.pi * r_m**2, k, M=2048
    )
    ops.append(("penalized", penalized))
    checks.append(partial(check_penalized, r_m, k))

    def check(outputs):
        errs = []
        for fn, out in zip(checks, outputs):
            if out is not None:
                errs += fn(out)
        return errs

    return Round(ops, check)


def check_eigenvalue(n, beta, R, lam):
    ref = oracles.robin_eigenvalue_ball(n, beta, R)
    if abs(lam - ref) > 1e-9 * ref:
        return [f"radial eigenvalue_q2_ball n={n} beta={beta:.6g} R={R:.6g}: {lam:.12g}, Bessel root {ref:.12g}"]
    return []


def check_report(tag, report):
    return [] if report.passed else [f"{tag}: report fails, deficit {report.deficit:.6g}"]


def check_annulus(params, report):
    """Up to q = 1.5 the report passes. Above, the annulus profile can be so
    small that the residual, while positive, falls below the report's fixed
    1e-4 margin (see CHANGES.md), so only its strict positivity is checked."""
    tag = f"radial annulus_exclusion {params}"
    if params.q <= 1.5:
        return check_report(tag, report)
    return [] if report.lhs > 0.0 else [f"{tag}: stationarity residual {report.lhs:.6g} is not positive"]


def check_penalized(r_m, k, out):
    """Below the threshold -E(B_r_m) / (2 |B_r_m|) (5/32 at r_m = 1) the
    penalised argmin is r_m itself."""
    rho_star, report = out
    tag = f"radial penalized_ball_argmin r_m={r_m:.6g} k={k:.6g}"
    errs = check_report(tag, report)
    threshold = oracles.penalty_threshold_q1(r_m)
    if k < threshold and abs(rho_star - r_m) > 1e-12 * r_m:
        errs.append(f"{tag}: argmin {rho_star:.12g} is not r_m below k = {threshold:.6g}")
    if abs(report.inputs["k_threshold"] - threshold) > 1e-6 * threshold:
        errs.append(f"{tag}: threshold {report.inputs['k_threshold']:.12g}, closed form {threshold:.12g}")
    return errs


# ---------------------------------------------------------------------------
# fine_mesh: refinement ladders on the disk and one ellipse


LEVELS = (32, 64, 128, 256)
ERROR_RATIO = (3.5, 4.5)
POLYGON_K = 1024  # boundary samples; every n_theta = 2 n_r divides it


def _solve_level(domain, n_r, beta):
    """One mesh level: mesh_star, lambda_2 and minimize_energy at q = 1, and
    at q = 1.5 below the finest level."""
    mesh = fem.mesh_star(domain, n_r, 2 * n_r)
    out = {"mesh": (mesh.n_vertices, mesh.area()), "lambda_2": fem.lambda_2(mesh, beta)}
    for q in (1.0, 1.5) if n_r < LEVELS[-1] else (1.0,):
        _, rep = fem.minimize_energy(mesh, RadialParams(n=2, q=q, beta=beta))
        out[q] = (rep.E, rep.converged)
    return out


def error_ratios(values, exact):
    """Successive error ratios e_L / e_2L; a second-order method gives 4."""
    errs = [v - exact for v in values]
    return [a / b if b > 0.0 else math.inf for a, b in zip(errs, errs[1:])]


def check_ladder(tag, values, exact, with_ratios):
    out = []
    if not all(v >= exact for v in values):
        out.append(f"{tag}: values {values} fall below the reference {exact:.12g}")
    if with_ratios:
        lo, hi = ERROR_RATIO
        ratios = error_ratios(values, exact)
        if not all(lo <= r <= hi for r in ratios):
            out.append(f"{tag}: error ratios {ratios} outside [{lo}, {hi}]")
    return out


def fine_mesh_round(rng, index, workdir):
    # one op per mesh level: the median of single calls would fall between
    # unlike calls (lambda_2 at 64 vs minimize_energy at 64) and jump
    beta, axis = float(rng.uniform(0.75, 1.5)), float(rng.uniform(1.1, 1.4))
    ops, labels = [], []
    ladders = (("disk", 1.0), ("ellipse", axis))
    for family, value in ladders:
        radii = oracles.family_radii(family, value, K=POLYGON_K)
        domain = geometry.StarDomain(np.zeros(2), radii)
        for n_r in LEVELS:
            ops.append((f"level_{n_r}", partial(_solve_level, domain, n_r, beta)))
            labels.append((family, n_r))

    def check(outputs):
        got = {}
        for (family, n_r), out in zip(labels, outputs):
            for key, value in (out or {}).items():
                got[(family, key, n_r)] = value
        errs = []
        for family, value in ladders:
            area = oracles.polygon_area(oracles.family_radii(family, value, K=POLYGON_K))
            # the disk meshes are inscribed in the circle itself, so they
            # converge to the disk of radius `value`, not to the polygon
            R = value if family == "disk" else math.sqrt(area / math.pi)
            tag = f"fine_mesh {family}({value:.6g}) beta={beta:.6g}"
            for n_r in LEVELS:
                nv, mesh_area = got.get((family, "mesh", n_r), (None, None))
                if nv is not None and (nv != 1 + 2 * n_r * n_r or not mesh_area <= area):
                    errs.append(f"{tag}: mesh {n_r} has {nv} vertices, area {mesh_area:.12g}")
            for q in (1.0, 1.5):
                reps = [got.get((family, q, n_r)) for n_r in LEVELS]
                reps = [r for r in reps if r is not None]
                if not all(conv for _, conv in reps):
                    errs.append(f"{tag} q={q}: minimize_energy hit its iteration cap")
                exact = _ball_lower_bound(q, beta, R)
                full = len(reps) == len(LEVELS) and family == "disk" and q == 1.0
                errs += check_ladder(f"{tag} E q={q}", [E for E, _ in reps], exact, full)
            lams = [got.get((family, "lambda_2", n_r)) for n_r in LEVELS]
            full = family == "disk" and None not in lams
            lams = [x for x in lams if x is not None]
            errs += check_ladder(f"{tag} lambda_2", lams, oracles.robin_eigenvalue_ball(2, beta, R), full)
        return errs

    return Round(ops, check)


# ---------------------------------------------------------------------------
# warm-up: one operation of each workload's kind on fixed inputs, so that the
# set-up time does not depend on the seed


def warmup_shape_sweep(workdir):
    path = os.path.join(workdir, "warmup.cfg")
    _write_config(path, "intermediate", "ellipse", 1.2, 2, 1.0, 1.0, os.path.join(workdir, "warmup"))
    return _run_config(path, "intermediate")


def warmup_obstacle_sweep(workdir):
    return _sweep_row("disk", 1.0, "ec_ball", 1.0, 1.0, 2, 1.0)


def warmup_radial_certificates(workdir):
    return _certificate(RadialParams(n=2, q=1.5, beta=1.0, c=0.1), 1.0, 1.5)


def warmup_fine_mesh(workdir):
    domain = geometry.StarDomain(np.zeros(2), oracles.family_radii("disk", 1.0, K=POLYGON_K))
    return _solve_level(domain, LEVELS[0], 1.0)


WARMUPS = {
    "shape_sweep": warmup_shape_sweep,
    "obstacle_sweep": warmup_obstacle_sweep,
    "radial_certificates": warmup_radial_certificates,
    "fine_mesh": warmup_fine_mesh,
}

WORKLOADS = {
    "shape_sweep": shape_sweep_round,
    "obstacle_sweep": obstacle_sweep_round,
    "radial_certificates": radial_certificates_round,
    "fine_mesh": fine_mesh_round,
}
