"""Inequality checks: near-equality on the disk, strict slack off it,
scaling identities against an independent quadrature, sweep plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from robinlab import fem, geometry, inequalities as ineq, radial
from robinlab.errors import ConfigError, SolverError
from robinlab.radial import RadialParams
from robinlab.reports import make_report

RES = ineq.Resolution()


def test_resolution_validation():
    # one floor rule; n_r, n_theta and M are halved by the tolerance gauge
    for bad in (dict(n_r=7), dict(n_theta=31), dict(M=63), dict(n_angles=31)):
        with pytest.raises(ValueError, match="below the floor"):
            ineq.Resolution(**bad)
    floor = ineq.Resolution(n_r=8, n_theta=32, M=64, n_angles=32)
    shape = ineq._Shape(geometry.disk(1.0), 1.0, 1.0, floor.n_r, floor.n_theta, floor.M)
    half = shape.half
    assert (half.mesh.n_r, half.mesh.n_theta, half.M) == (4, 16, 32)


# --- intermediate -----------------------------------------------------------


def test_disk_intermediate_near_equality():
    rep = ineq.check_intermediate(geometry.disk(1.0), q=1.0, beta=1.0, res=RES)
    assert rep.passed
    # equal-area ball of the disk is (nearly) the disk itself: both sides
    # collapse, conforming bias keeps the deficit slightly positive
    assert 0.0 <= rep.deficit < 5e-3
    assert abs(rep.rhs) < 1e-3


def test_ellipse_intermediate_strict():
    rep = ineq.check_intermediate(geometry.ellipse(1.3), q=1.0, beta=1.0, res=RES)
    assert rep.passed
    assert rep.deficit > 3.0 * rep.tolerance
    assert rep.rhs > 0.0  # ellipse has longer perimeter than its ball


def test_intermediate_inputs_recorded():
    rep = ineq.check_intermediate(geometry.ellipse(1.2), q=1.5, beta=0.5, res=RES)
    for key in ("E_domain", "E_ball", "inf_u", "per", "per_ball", "ball_radius"):
        assert key in rep.inputs
    assert rep.inputs["per"] > rep.inputs["per_ball"]
    assert rep.term_provenance["lhs"].startswith("fem energy")


# --- quantitative -----------------------------------------------------------


def test_disk_quantitative_near_zero():
    rep = ineq.check_quantitative(geometry.disk(1.0), q=1.0, beta=1.0, res=RES)
    assert rep.passed
    assert abs(rep.lhs) < 2e-3
    assert "ratio" not in rep.inputs  # asymmetry below cutoff


def test_ellipse_quantitative_ratio():
    rep = ineq.check_quantitative(geometry.ellipse(1.3), q=1.5, beta=0.5, res=RES)
    assert rep.passed
    assert rep.lhs > 10.0 * rep.tolerance
    assert rep.inputs["asymmetry"] > 0.2
    assert rep.inputs["ratio"] > 0.0
    assert rep.inputs["ratio"] == pytest.approx(
        rep.lhs / rep.inputs["asymmetry"] ** 2, rel=1e-12
    )


# --- shifted-energy ball minimality ----------------------------------------


def test_ec_ball_disk_and_ellipse():
    p = RadialParams(n=2, q=1.0, beta=1.0, c=0.25)
    rep_d = ineq.check_ec_ball_minimality(geometry.disk(1.0), p, RES)
    assert rep_d.passed
    assert abs(rep_d.deficit) < rep_d.tolerance + 2e-3
    rep_e = ineq.check_ec_ball_minimality(geometry.ellipse(1.3), p, RES)
    assert rep_e.passed
    assert rep_e.deficit > 5.0 * rep_e.tolerance


def test_ec_ball_labels_contact_ball():
    # c = 1 lies above the ball's inf psi: the radial side is a contact profile
    rep = ineq.check_ec_ball_minimality(geometry.ellipse(1.2), RadialParams(q=1, beta=1, c=1.0), RES)
    assert rep.inputs["ball_mode"] == "contact"
    rep = ineq.check_ec_ball_minimality(geometry.ellipse(1.2), RadialParams(q=1, beta=1, c=0.2), RES)
    assert rep.inputs["ball_mode"] == "robin-type"


def test_unconverged_minimizer_raises(monkeypatch):
    # at q = 1.5 one outer iteration cannot meet the stopping test
    monkeypatch.setattr(fem, "MAX_OUTER", 1)
    d = geometry.ellipse(1.2)
    with pytest.raises(SolverError, match="iteration cap"):
        ineq.check_intermediate(d, 1.5, 1.0, RES)
    with pytest.raises(SolverError, match="iteration cap"):
        ineq.check_ec_ball_minimality(d, RadialParams(q=1.5, beta=1.0, c=0.2), RES)
    with pytest.raises(SolverError, match="iteration cap"):
        ineq.sweep("ellipse", [1.2], "trace_poincare", q=1.5, beta=1.0, res=RES)


def test_ec_ball_rejects_regularized_params():
    p = RadialParams(n=2, q=1.0, beta=1.0, c=0.25, eps=0.5)
    with pytest.raises(ValueError, match="eps"):
        ineq.check_ec_ball_minimality(geometry.disk(1.0), p, RES)


def test_ec_ball_rejects_nonplanar_params():
    # the FEM side solves with the caller's params, so n = 3 is refused, not
    # silently solved as n = 2
    p = RadialParams(n=3, q=1.0, beta=1.0, c=0.25)
    with pytest.raises(ValueError, match="planar"):
        ineq.check_ec_ball_minimality(geometry.disk(1.0), p, RES)


# --- trace inequality -------------------------------------------------------


def test_trace_poincare_disk_equality_q1():
    d = geometry.disk(1.0)
    mesh = fem.mesh_star(d, RES.n_r, RES.n_theta)
    field, _ = fem.minimize_energy(mesh, RadialParams(n=2, q=1.0, beta=1.0))
    rep = ineq.check_trace_poincare(d, 1.0, 1.0, field, RES)
    assert rep.passed
    assert rep.deficit / abs(rep.rhs) < 1e-3  # minimizer attains the constant


def test_trace_poincare_disk_equality_q2():
    d = geometry.disk(1.0)
    mesh = fem.mesh_star(d, RES.n_r, RES.n_theta)
    _, field = fem.lambda_2(mesh, beta=1.0, return_field=True)
    rep = ineq.check_trace_poincare(d, 2.0, 1.0, field, RES)
    assert rep.passed
    assert rep.deficit / abs(rep.rhs) < 1e-3


def test_trace_poincare_ellipse_slack():
    e = geometry.ellipse(1.3)
    mesh = fem.mesh_star(e, RES.n_r, RES.n_theta)
    field, _ = fem.minimize_energy(mesh, RadialParams(n=2, q=1.0, beta=1.0))
    rep = ineq.check_trace_poincare(e, 1.0, 1.0, field, RES)
    assert rep.passed
    assert rep.deficit / abs(rep.rhs) > 0.03


def test_trace_poincare_validation():
    d = geometry.disk(1.0)
    mesh = fem.mesh_star(d, 12, 32)
    ones = fem.ScalarField(mesh, np.ones(mesh.n_vertices))
    with pytest.raises(ValueError, match="q"):
        ineq.check_trace_poincare(d, 2.5, 1.0, ones, RES)
    with pytest.raises(ValueError, match="nonnegative"):
        ineq.check_trace_poincare(d, 1.0, 1.0, fem.ScalarField(mesh, -ones.values), RES)
    with pytest.raises(ValueError, match="nontrivial"):
        zero = fem.ScalarField(mesh, np.zeros(mesh.n_vertices))
        ineq.check_trace_poincare(d, 1.0, 1.0, zero, RES)


def test_trace_poincare_any_nonnegative_field():
    # the bound holds for arbitrary nonnegative fields, not just minimizers
    d = geometry.disk(1.0)
    mesh = fem.mesh_star(d, 24, 48)
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.1, 1.0, mesh.n_vertices)
    rep = ineq.check_trace_poincare(d, 1.5, 1.0, fem.ScalarField(mesh, vals), RES)
    assert rep.passed
    assert rep.deficit > 0.0


# --- scaling ----------------------------------------------------------------


def _dilated_energy(profile, t):
    """Independent quadrature of the stretched profile x -> psi(x/t)."""
    n = profile.params.n
    q, beta = profile.params.q, profile.params.beta
    c, eps = profile.params.c, profile.params.eps
    x = t * profile.grid
    v = profile.psi
    dv = profile.dpsi / t
    nw = n * radial.unit_ball_volume(n)
    dirichlet = 0.5 * simpson(dv**2 * nw * x ** (n - 1), x=x)
    per = radial.ball_surface(n, t * profile.R)
    vR = v[-1]
    boundary = 0.5 * beta * per * (vR**2 + 2.0 * c * vR ** (1.0 + eps))
    bulk = -simpson(radial.theta_potential(v, q, c) * nw * x ** (n - 1), x=x)
    return dirichlet + boundary + bulk


@pytest.mark.parametrize(
    "params",
    [
        RadialParams(n=2, q=1.0, beta=1.0),
        RadialParams(n=2, q=1.5, beta=1.0),
        RadialParams(n=3, q=1.0, beta=2.0),
        RadialParams(n=2, q=1.0, beta=1.0, c=0.5),
    ],
)
def test_scaling_rhs_matches_dilated_quadrature(params):
    profile = radial.solve_ball(params, 1.0, M=2048)
    for t in (1.1, 2.0, 5.0):
        rep = ineq.check_scaling(profile, t)
        assert rep.passed
        assert rep.deficit > 0.0
        direct = _dilated_energy(profile, t)
        assert abs(direct - rep.rhs) <= 1e-12 * max(1.0, abs(rep.rhs))


def test_scaling_deficit_vanishes_at_unit_dilation():
    profile = radial.solve_ball(RadialParams(n=2, q=1.0, beta=1.0), 1.0, M=1024)
    deficits = [ineq.check_scaling(profile, 1.0 + 10.0**-k).deficit for k in range(1, 5)]
    assert all(d > 0.0 for d in deficits)
    assert all(a > b for a, b in zip(deficits, deficits[1:]))
    assert deficits[-1] < 1e-3


def test_scaling_validation():
    profile = radial.solve_ball(RadialParams(n=2, q=1.0, beta=1.0), 1.0, M=512)
    with pytest.raises(ValueError, match="t must exceed 1"):
        ineq.check_scaling(profile, 1.0)
    with pytest.raises(ValueError, match="t must exceed 1"):
        ineq.check_scaling(profile, 0.9)
    # zero is a genuine solution only for q > 1 (the q = 1 source is 1 a.e.)
    grid = np.linspace(0.0, 1.0, 17)
    trivial = radial.RadialProfile(
        params=RadialParams(n=2, q=1.5, beta=1.0),
        grid=grid,
        psi=np.zeros(17),
        dpsi=np.zeros(17),
        mode="robin",
    )
    with pytest.raises(ValueError, match="nontrivial"):
        ineq.check_scaling(trivial, 2.0)


# --- sweeps -----------------------------------------------------------------


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ConfigError, match="nonempty"):
        ineq.sweep("ellipse", [], "quantitative", q=1.0, beta=1.0)
    with pytest.raises(ConfigError, match="unknown check"):
        ineq.sweep("ellipse", [1.1], "nope", q=1.0, beta=1.0)
    with pytest.raises(ConfigError, match="unknown family"):
        ineq.sweep("triangle", [1.1], "quantitative", q=1.0, beta=1.0)
    # the rules a config file's keys follow
    with pytest.raises(ConfigError, match='"K"'):
        ineq.sweep("ellipse", [1.1], "quantitative", q=1.0, beta=1.0, domain_K=63)
    with pytest.raises(ConfigError, match='"k"'):
        ineq.sweep("perturbed", [0.05], "quantitative", q=1.0, beta=1.0, k=0)
    with pytest.raises(ConfigError, match='"c_factor"'):
        ineq.sweep("ellipse", [1.1], "ec_ball", q=1.0, beta=1.0, c_factor=-1.0)


def test_sweep_ellipse_quantitative():
    sw = ineq.sweep("ellipse", [1.1, 1.2, 1.3], "quantitative", q=1.0, beta=1.0, res=RES)
    assert sw.all_passed
    assert sw.n_pass == 3 and sw.n_fail == 0
    assert sw.empirical_constant is not None and sw.empirical_constant > 0.0
    lhs = [r["lhs"] for r in sw.rows]
    asymmetry = [r["asymmetry"] for r in sw.rows]
    assert lhs == sorted(lhs) and asymmetry == sorted(asymmetry)


def test_sweep_constant_absent_for_other_checks():
    sw = ineq.sweep("perturbed", [0.05], "intermediate", q=1.0, beta=1.0, res=RES, k=2)
    assert sw.all_passed
    assert sw.empirical_constant is None
    assert sw.rows[0]["k"] == 2


def test_sweep_ec_ball_scales_c_per_shape():
    sw = ineq.sweep("disk", [1.0], "ec_ball", q=1.0, beta=1.0, res=RES, c_factor=0.4)
    row = sw.rows[0]
    assert sw.all_passed
    assert row["c"] == pytest.approx(0.4 * row["inf_u"], rel=1e-12)


@pytest.mark.parametrize(
    "check, expected",
    [
        # (meshes, minimize_energy calls, asymmetry evaluations) per row: the
        # row and its check share the working-resolution mesh and c = 0 solve,
        # and the gauge adds one half-resolution mesh and solve
        ("intermediate", (2, 2, 1)),
        ("quantitative", (2, 2, 1)),
        ("ec_ball", (2, 3, 1)),  # c = 0 for the level, c > 0 at both resolutions
        ("trace_poincare", (1, 1, 1)),
    ],
)
def test_sweep_row_solves_each_shape_once_per_resolution(calls, check, expected):
    ineq.sweep("ellipse", [1.25], check, q=1.5, beta=0.5, res=RES, c_factor=1.0)
    assert (calls["mesh_star"], calls["minimize_energy"], calls["fraenkel_asymmetry"]) == expected


def test_trace_poincare_row_reads_the_solved_operator(calls):
    # the trace check reads K, B and w from the LU the row's solve left on
    # the mesh: one assembly per mesh
    ineq.sweep("ellipse", [1.25], "trace_poincare", q=1.5, beta=0.5, res=RES)
    assert calls["assemble"] == 1


def test_ec_ball_row_at_level_zero_reads_the_shape_solves(calls):
    # at c_factor = 0 the obstacle problem is the shape's own c = 0 problem:
    # one minimization per resolution, and the row holds those solves' values
    row = ineq.sweep("ellipse", [1.25], "ec_ball", q=1.5, beta=0.5, res=RES, c_factor=0.0).rows[0]
    assert calls["minimize_energy"] == 2
    p = RadialParams(n=2, q=1.5, beta=0.5)
    d = geometry.ellipse(1.25, K=512)
    assert row["lhs"] == fem.minimize_energy(fem.mesh_star(d, RES.n_r, RES.n_theta), p)[1].E
    R = geometry.equivalent_ball_radius(d)
    assert row["rhs"] == radial.ball_energy(radial.solve_ball(p, R, M=RES.M)).E


def test_trace_poincare_on_a_fresh_mesh_builds_no_factorisation(monkeypatch):
    # a field on a mesh that holds no operator: K, B and w are assembled,
    # nothing is factorised or left on the mesh, and the report is that of
    # the mesh the field was solved on
    d = geometry.ellipse(1.25)
    solved = fem.mesh_star(d, 24, 48)
    field, _ = fem.minimize_energy(solved, RadialParams(n=2, q=1.5, beta=0.5))
    on_solved = ineq.check_trace_poincare(d, 1.5, 0.5, field, RES)
    fresh = fem.mesh_star(d, 24, 48)
    factorised = []
    monkeypatch.setattr(fem, "_factor", factorised.append)
    rep = ineq.check_trace_poincare(d, 1.5, 0.5, fem.ScalarField(fresh, field.values), RES)
    assert factorised == [] and fresh._robin is None
    assert rep == on_solved


def test_ec_ball_check_solves_only_at_its_obstacle_level(calls):
    # the bundle's c = 0 minimizer is lazy: the public check never starts it
    p = RadialParams(n=2, q=1.5, beta=0.5, c=0.2)
    ineq.check_ec_ball_minimality(geometry.ellipse(1.25), p, RES)
    assert (calls["mesh_star"], calls["minimize_energy"]) == (2, 2)


@pytest.mark.parametrize("check", ineq.CHECKS)
def test_sweep_row_equals_public_check(check):
    q, beta = 1.5, 0.5
    d = geometry.ellipse(1.25, K=512)
    row = ineq.sweep("ellipse", [1.25], check, q=q, beta=beta, res=RES, c_factor=1.0).rows[0]
    if check == "intermediate":
        rep = ineq.check_intermediate(d, q, beta, RES)
    elif check == "quantitative":
        rep = ineq.check_quantitative(d, q, beta, RES)
    elif check == "ec_ball":
        rep = ineq.check_ec_ball_minimality(d, RadialParams(n=2, q=q, beta=beta, c=row["c"]), RES)
    else:
        mesh = fem.mesh_star(d, RES.n_r, RES.n_theta)
        field, _ = fem.minimize_energy(mesh, RadialParams(n=2, q=q, beta=beta))
        rep = ineq.check_trace_poincare(d, q, beta, field, RES)
    assert (row["lhs"], row["rhs"], row["tolerance"], row["passed"]) == (
        rep.lhs,
        rep.rhs,
        rep.tolerance,
        rep.passed,
    )


def test_sweep_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    kw = dict(check="quantitative", q=1.5, beta=2.0, res=RES)
    ineq.rows_to_csv(ineq.sweep("ellipse", [1.15, 1.25], **kw).rows, a)
    ineq.rows_to_csv(ineq.sweep("ellipse", [1.15, 1.25], **kw).rows, b)
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0].split(",") == list(ineq.SWEEP_COLUMNS)
    assert len(lines) == 3


# --- derived report values -------------------------------------------------


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=50, deadline=None)
@given(lhs=finite, rhs=finite, tol=st.floats(min_value=1e-12, max_value=1e6))
def test_report_derives_deficit_and_verdict(lhs, rhs, tol):
    rep = make_report("derived", lhs=lhs, rhs=rhs, tolerance=tol, inputs={"q": 1.0})
    deficit = lhs - rhs
    assert rep.deficit.hex() == deficit.hex()  # bit for bit, signed zero too
    assert rep.passed is (deficit >= -tol)
