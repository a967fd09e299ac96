"""Shape-functional inequalities evaluated as numerical deficits.

Each check compares an energy or eigenvalue on a star-shaped domain against
its value on the equal-area ball and reports lhs, rhs, deficit = lhs - rhs,
and a tolerance. The side asserted to dominate is always `lhs` (see
reports). Every tolerance is estimated by recomputing both sides at half
resolution and summing the observed shifts (a Richardson-style error gauge).
Rows are built one shape at a time: every check and obstacle level reads
its bundle (`_Shape`: mesh, LU, c = 0 solve), the `half` twin and one asymmetry.

The domain side is conforming P1, so E(Omega) is overestimated and the
ball side is a radial quadrature oracle: a pass is evidence, not proof. The
bias direction is recorded in each report's inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, geometry, radial
from .errors import ConfigError, SolverError
from .geometry import StarDomain
from .radial import RadialParams, RadialProfile
from .reports import InequalityReport, SweepResult, make_report, stability_ratio

CHECKS = ("intermediate", "quantitative", "ec_ball", "trace_poincare")
FAMILIES = ("disk", "ellipse", "perturbed", "stadium")


# check_trace_poincare's tolerance adds TRACE_SLACK x max(lhs, rhs) to the
# gauged shift of the ball level; ROADMAP direction 1 (a Richardson column
# from each row's half-level sides) is to replace it
TRACE_SLACK = 1e-3


@dataclass(frozen=True)
class Resolution:
    """Discretization knobs shared by every check. Each check recomputes its
    sides with n_r, n_theta and M halved and reports the shifts as its
    tolerance, so their floors keep the halves meshable; n_angles (the
    asymmetry sampling) is never halved."""

    n_r: int = 48
    n_theta: int = 96
    M: int = 4096
    n_angles: int = 4096

    def __post_init__(self):
        for key, floor in (("n_r", 8), ("n_theta", 32), ("M", 64), ("n_angles", 32)):
            if (value := getattr(self, key)) < floor:
                raise ConfigError(f'config field "{key}": {value} is below the floor {floor}')


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: checks x grid x q x beta (x c_factors for ec_ball).
    Construction checks every input, so no row is built from an unchecked
    one; the q = 2 endpoint is valid here and refused at dispatch."""

    name: str
    checks: tuple
    family: str
    grid: tuple
    q_values: tuple = (1.0,)
    beta_values: tuple = (1.0,)
    c_factors: tuple = (0.0,)
    k: int = 2
    domain_K: int = 512
    resolution: Resolution = field(default_factory=Resolution)
    output_dir: str = ""

    def __post_init__(self):
        for key, values in (("checks", self.checks), ("grid", self.grid)):
            if not values:
                raise ConfigError(f'config field "{key}": must be nonempty')
        if unknown := [ch for ch in self.checks if ch not in CHECKS]:
            raise ConfigError(f'config field "checks": unknown check {unknown[0]!r}')
        if len(set(self.checks)) != len(self.checks):
            raise ConfigError('config field "checks": duplicates')
        if self.family not in FAMILIES:
            raise ConfigError(f'config field "family": unknown family {self.family!r}')
        if bad := [v for v in self.q_values if not 1.0 <= v <= 2.0]:
            raise ConfigError(f'config field "q": value {bad[0]} outside [1, 2]')
        if bad := [v for v in self.beta_values if not v > 0.0]:
            raise ConfigError(f'config field "beta": value {bad[0]} must be positive')
        if bad := [v for v in self.c_factors if v < 0.0]:
            raise ConfigError(f'config field "c_factor": value {bad[0]} must be >= 0')
        if self.k < 1:
            raise ConfigError('config field "k": must be a positive integer')
        if self.domain_K < 64 or self.domain_K % 2 != 0:
            raise ConfigError('config field "K": must be even and >= 64')
        if not self.output_dir:
            object.__setattr__(self, "output_dir", f"out/{self.name}")

    def cardinality(self, check: str) -> int:
        """Row count the check's CSV must have: the full grid product, with
        the obstacle-level axis counted only where it applies."""
        n = len(self.grid) * len(self.q_values) * len(self.beta_values)
        if check == "ec_ball":
            n *= len(self.c_factors)
        return n


def _minimize(mesh: fem.Mesh, params: RadialParams):
    """fem.minimize_energy, raising instead of returning an unconverged
    minimizer, so that no report is built on one."""
    field, rep = fem.minimize_energy(mesh, params)
    if not rep.converged:
        raise SolverError(
            f"energy minimization hit the iteration cap after {rep.iterations} outer iterations"
        )
    return field, rep


class _Shape:
    """One shape meshed at one resolution. Every solve on the mesh at this
    beta shares the one LU of K + beta B that the mesh keeps; the c = 0
    minimizer, the ball energy and the half-resolution twin are built on
    first use, at most once."""

    def __init__(self, d: StarDomain, q: float, beta: float, n_r: int, n_theta: int, M: int):
        self.d, self.q, self.beta, self.M = d, q, beta, M
        self.params = RadialParams(n=2, q=q, beta=beta)
        self.mesh = fem.mesh_star(d, n_r, n_theta)
        self.R = geometry.equivalent_ball_radius(d)

    @functools.cached_property
    def minimizer(self) -> tuple[fem.ScalarField, fem.EnergyReport]:
        return _minimize(self.mesh, self.params)

    @functools.cached_property
    def ball(self) -> radial.BallEnergy:
        return radial.ball_energy(radial.solve_ball(self.params, self.R, M=self.M))

    @functools.cached_property
    def half(self) -> "_Shape":
        d = self.d
        if d.K % 2 == 0 and d.K >= 32:
            d = StarDomain(center=d.center, radii=d.radii[::2])
        m = self.mesh
        return _Shape(d, self.q, self.beta, m.n_r // 2, m.n_theta // 2, self.M // 2)


def _with_tolerance(name, sides, shape: _Shape, scale_ref, provenance, **inputs):
    """Evaluate sides(shape) = (lhs, rhs, context) and gauge the tolerance
    from the sides of shape.half: the shifts of both sides plus 1e-9 x
    scale_ref(lhs, rhs, context). Inputs: q, beta, **inputs, context."""
    lhs, rhs, context = fine = sides(shape)
    c_lhs, c_rhs, _ = sides(shape.half)
    tol = abs(lhs - c_lhs) + abs(rhs - c_rhs) + 1e-9 * scale_ref(*fine)
    return make_report(
        name=name,
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        inputs={"q": shape.q, "beta": shape.beta, **inputs, **context},
        term_provenance=provenance,
    )


def _intermediate(shape: _Shape) -> InequalityReport:
    def sides(s):
        rep = s.minimizer[1]
        per = geometry.perimeter(s.d)
        per_ball = 2.0 * math.pi * s.R
        lhs = rep.E - s.ball.E
        rhs = 0.5 * s.beta * rep.inf_u**2 * (per - per_ball)
        return lhs, rhs, {
            "E_domain": rep.E,
            "E_ball": s.ball.E,
            "inf_u": rep.inf_u,
            "per": per,
            "per_ball": per_ball,
            "ball_radius": s.R,
            "conforming_bias": "lhs overestimated (conforming fem)",
        }

    return _with_tolerance(
        "intermediate",
        sides,
        shape,
        scale_ref=lambda lhs, rhs, ctx: max(1e-6, abs(ctx["E_ball"])),
        provenance={
            "lhs": "fem energy minus radial ball energy",
            "rhs": "(beta/2) inf_u^2 (perimeter minus ball perimeter), geometry",
        },
    )


def _quantitative(shape: _Shape, asym: float) -> InequalityReport:
    def sides(s):
        lam = s.minimizer[1].lambda_q
        if lam is None:
            raise SolverError("nonnegative minimum energy; no eigenvalue to report")
        lhs = lam - s.ball.lambda_q
        ctx = {
            "lambda_domain": lam,
            "lambda_ball": s.ball.lambda_q,
            "asymmetry": asym,
            "ball_radius": s.R,
            "conforming_bias": "lhs overestimated (conforming fem)",
        }
        if (ratio := stability_ratio(lhs, asym)) is not None:
            ctx["ratio"] = ratio
        return lhs, 0.0, ctx

    return _with_tolerance(
        "quantitative",
        sides,
        shape,
        scale_ref=lambda lhs, rhs, ctx: max(1e-6, abs(ctx["lambda_ball"])),
        provenance={
            "lhs": "fem lambda_q minus radial ball lambda_q",
            "rhs": "zero (nonnegativity case of the stability bound)",
        },
    )


def _ec_ball(shape: _Shape, params: RadialParams) -> InequalityReport:
    # the caller's params, c and n included, drive both sides; at the
    # shape's own params (c = 0) they are the shape's solves
    def sides(s):
        if params == s.params:
            rep, ball, mode = s.minimizer[1], s.ball, "robin"
        else:
            rep = _minimize(s.mesh, params)[1]
            profile = radial.solve_ball(params, s.R, M=s.M)
            ball, mode = radial.ball_energy(profile), profile.mode
        return rep.E, ball.E, {
            "inf_u": rep.inf_u,
            "ball_radius": s.R,
            "ball_mode": "contact" if mode == "obstacle_contact" else "robin-type",
            "conforming_bias": "lhs overestimated (conforming fem)",
        }

    return _with_tolerance(
        "ec_ball",
        sides,
        shape,
        scale_ref=lambda lhs, rhs, ctx: max(1e-6, abs(rhs)),
        provenance={
            "lhs": "fem shifted energy on the domain",
            "rhs": "radial shifted energy on the equal-area ball",
        },
        c=params.c,
    )


def check_intermediate(
    d: StarDomain, q: float, beta: float, res: Resolution = Resolution()
) -> InequalityReport:
    """Energy deficit dominates the weighted perimeter deficit:
    E(Omega) - E(B) >= (beta/2) (inf u)^2 (Per(Omega) - Per(B)) with B the
    equal-area ball."""
    return _intermediate(_Shape(d, q, beta, res.n_r, res.n_theta, res.M))


def check_quantitative(
    d: StarDomain, q: float, beta: float, res: Resolution = Resolution()
) -> InequalityReport:
    """Eigenvalue-level stability: lambda_q(Omega) - lambda_q(B) >= 0, with
    the ratio against squared Fraenkel asymmetry recorded for constant
    estimation whenever the asymmetry is meaningfully positive."""
    asym, _ = geometry.fraenkel_asymmetry(d, n_angles=res.n_angles)
    return _quantitative(_Shape(d, q, beta, res.n_r, res.n_theta, res.M), asym)


def check_ec_ball_minimality(
    d: StarDomain, params: RadialParams, res: Resolution = Resolution()
) -> InequalityReport:
    """Shifted-energy minimality of the ball: E_c(Omega) >= E_c(B) at equal
    area, the obstacle level c fixed by the caller."""
    if params.eps != 0.0:
        raise ValueError("the FEM comparison side has no eps-regularized term")
    return _ec_ball(_Shape(d, params.q, params.beta, res.n_r, res.n_theta, res.M), params)


def check_trace_poincare(
    d: StarDomain,
    q: float,
    beta: float,
    field: fem.ScalarField,
    res: Resolution = Resolution(),
) -> InequalityReport:
    """Sharp-constant trace inequality: for any nonnegative field u on the
    domain, u'Ku + beta u'Bu >= lambda_q(B^m) (sum w u^q)^(2/q), m the mesh
    area. The boundary weight is beta, not beta/2: the inequality bounds the
    full quadratic form, not the halved energy term. Equality is attained by
    the ball minimizer."""
    if not 1.0 <= q <= 2.0:
        raise ValueError("q must lie in [1, 2]")
    if np.min(field.values) < 0.0:
        raise ValueError("field must be nonnegative")
    if float(np.max(np.abs(field.values))) == 0.0:
        raise ValueError("field must be nontrivial")
    mesh = field.mesh
    K, B, w = fem._matrices(mesh)
    u = field.values
    energy_form = float(u @ (K @ u)) + beta * float(u @ (B @ u))
    qnorm = float(w @ np.maximum(u, 0.0) ** q) ** (2.0 / q)

    def level(area, M):
        R = math.sqrt(area / math.pi)
        if q == 2.0:
            return radial.eigenvalue_q2_ball(2, beta, R, M=M)
        return radial.ball_energy(
            radial.solve_ball(RadialParams(n=2, q=q, beta=beta), R, M=M)
        ).lambda_q

    lam = level(mesh.area(), res.M)
    rhs = lam * qnorm
    # the field is fixed; the uncertain factor is the ball level at the
    # mesh's area, gauged against a half-resolution radial solve and the
    # mesh-vs-polygon area gap
    lam_half = level(geometry.area(d), res.M // 2)
    tol = abs(lam - lam_half) * qnorm + TRACE_SLACK * max(energy_form, rhs)
    return make_report(
        name="trace_poincare",
        lhs=energy_form,
        rhs=rhs,
        tolerance=tol,
        inputs={
            "q": q,
            "beta": beta,
            "lambda_ball": lam,
            "qnorm_sq": qnorm,
            "area": mesh.area(),
            "conforming_bias": "none (both sides evaluated on the same field)",
        },
        term_provenance={
            "lhs": "stiffness + beta boundary quadratic form of the field",
            "rhs": "radial equal-area ball level times the bulk q-norm squared",
        },
    )


def check_scaling(profile: RadialProfile, t: float) -> InequalityReport:
    """Strict sub-homogeneity of the shifted energy under dilation: for
    t > 1, the energy of the profile stretched to B_{tR} sits strictly below
    t^n times the original energy. By the change of variables the stretched
    energy is t^(n-2) dirichlet + t^(n-1) boundary + t^n bulk, so the gap is
    (t^n - t^(n-2)) dirichlet + (t^n - t^(n-1)) boundary > 0."""
    t = float(t)
    if not t > 1.0:
        raise ValueError("t must exceed 1")
    if float(np.max(np.abs(profile.psi))) == 0.0:
        raise ValueError("profile must be nontrivial")
    n = profile.params.n
    e = radial.ball_energy(profile)
    dilated = t ** (n - 2) * e.dirichlet + t ** (n - 1) * e.boundary + t**n * e.bulk
    return make_report(
        name="scaling",
        lhs=t**n * e.E,
        rhs=dilated,
        tolerance=1e-10,
        inputs={
            "n": n,
            "q": profile.params.q,
            "beta": profile.params.beta,
            "c": profile.params.c,
            "eps": profile.params.eps,
            "t": t,
            "R": profile.R,
            "dirichlet": e.dirichlet,
            "boundary": e.boundary,
            "bulk": e.bulk,
        },
        term_provenance={
            "lhs": "t^n times the profile energy",
            "rhs": "dilated-profile energy via the termwise power decomposition",
        },
    )


# ---------------------------------------------------------------------------
# sweeps


def _make_domain(family: str, value: float, k: int, K: int):
    make = {
        "disk": lambda: geometry.disk(value, K=K),
        "ellipse": lambda: geometry.ellipse(value, K=K),
        "perturbed": lambda: geometry.perturbed(1.0, a=value, k=k, K=K),
        "stadium": lambda: geometry.stadium(value, 1.0, K=K),
    }[family]
    try:
        return make()
    except ValueError as ex:
        raise ConfigError(f"family {family!r} rejects parameter {value!r}: {ex}") from ex


def _experiment_rows(cfg: ExperimentConfig):
    """{check: rows} over grid x q x beta (x c_factors for ec_ball, the only
    check with an obstacle-level axis), each ordered by q, beta, c_factor,
    then value. One bundle per (value, q, beta) serves every check, so one
    fine and one half LU live at a time. The config has checked its inputs;
    only the q = 2 endpoint, valid in a config, is refused here."""
    family, checks, k, res = cfg.family, cfg.checks, cfg.k, cfg.resolution
    if 2.0 in cfg.q_values:
        # every row is built on the nonlinear minimizer; the q = 2 linear
        # endpoint has its own path (check_trace_poincare on lambda_2's field)
        raise ConfigError("q = 2.0 not sweepable; sweep checks need q in [1, 2)")
    groups = {}  # (check, i_q, i_beta, i_c) -> rows; the first value adds keys in order
    for value in cfg.grid:
        d = _make_domain(family, value, k, cfg.domain_K)
        asym, _ = geometry.fraenkel_asymmetry(d, n_angles=res.n_angles)
        for i_q, q in enumerate(cfg.q_values):
            for i_b, beta in enumerate(cfg.beta_values):
                # no local keeps the last shape's field: its mesh holds an LU
                shape = _Shape(d, q, beta, res.n_r, res.n_theta, res.M)
                base = shape.minimizer[1]
                for check in checks:
                    for i_c, cf in enumerate(cfg.c_factors if check == "ec_ball" else (0.0,)):
                        if check == "intermediate":
                            rep = _intermediate(shape)
                        elif check == "quantitative":
                            rep = _quantitative(shape, asym)
                        elif check == "ec_ball":
                            rep = _ec_ball(shape, replace(shape.params, c=cf * base.inf_u))
                        else:
                            rep = check_trace_poincare(d, q, beta, shape.minimizer[0], res)
                        row = {
                            "family": family,
                            "param": value,
                            "k": k if family == "perturbed" else "",
                            "q": q,
                            "beta": beta,
                            "c": rep.inputs.get("c", 0.0),
                            "check": check,
                            "lhs": rep.lhs,
                            "rhs": rep.rhs,
                            "deficit": rep.deficit,
                            "tolerance": rep.tolerance,
                            "passed": rep.passed,
                            "lambda_q": base.lambda_q if base.lambda_q is not None else "",
                            "E": base.E,
                            "inf_u": base.inf_u,
                            "per": geometry.perimeter(d),
                            "area": geometry.area(d),
                            "asymmetry": asym,
                        }
                        groups.setdefault((check, i_q, i_b, i_c), []).append(row)
    return {ch: [r for key, rows in groups.items() if key[0] == ch for r in rows] for ch in checks}


def sweep(
    family: str,
    grid,
    check: str,
    q: float,
    beta: float,
    res: Resolution = Resolution(),
    k: int = 2,
    c_factor: float = 0.0,
    domain_K: int = 512,
) -> SweepResult:
    """Run one check across a one-parameter shape family.

    grid: family parameter values (ellipse axis, perturbation amplitude,
    stadium length, disk radius). For ec_ball the obstacle level per shape
    is c_factor times the shape's computed inf_u. The arguments make one
    `ExperimentConfig`, which checks them as a config file's are checked.
    Each row builds one bundle (`_Shape`). Rows never raise on a failed
    inequality; failures are counted and recorded.
    """
    cfg = ExperimentConfig(
        name="sweep",
        checks=(check,),
        family=family,
        grid=tuple(float(g) for g in grid),
        q_values=(q,),
        beta_values=(beta,),
        c_factors=(c_factor,),
        k=k,
        domain_K=domain_K,
        resolution=res,
    )
    return SweepResult(_experiment_rows(cfg)[check])


SWEEP_COLUMNS = (
    "family",
    "param",
    "k",
    "q",
    "beta",
    "c",
    "check",
    "lhs",
    "rhs",
    "deficit",
    "tolerance",
    "passed",
    "lambda_q",
    "E",
    "inf_u",
    "per",
    "area",
    "asymmetry",
)


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def rows_to_csv(rows, path) -> None:
    """One row per (shape, parameter combination); 12 significant digits,
    LF endings, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in SWEEP_COLUMNS) + "\n")
