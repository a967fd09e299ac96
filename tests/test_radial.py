import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import j0, j1

from robinlab import radial
from robinlab.errors import SolverError
from robinlab.radial import (
    BallEnergy,
    RadialParams,
    RadialProfile,
    _refine,
    annulus_exclusion,
    ball_energy,
    ball_surface,
    eigenvalue_q2_ball,
    hamiltonian_monotonicity,
    lambda_from_energy,
    penalized_ball_argmin,
    profile_to_csv,
    shoot_once,
    solve_ball,
    unit_ball_volume,
)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert abs(unit_ball_volume(3) - 4 * math.pi / 3) < 1e-15
    assert abs(unit_ball_volume(4) - math.pi**2 / 2) < 1e-15
    assert abs(ball_surface(2, 2.0) - 4 * math.pi) < 1e-14


def test_params_validation():
    for kw in (
        dict(n=1),
        dict(q=0.5),
        dict(q=2.5),
        dict(beta=0.0),
        dict(c=-0.1),
        dict(eps=1.0),
        dict(eps=-0.2),
    ):
        with pytest.raises(ValueError):
            RadialParams(**kw)


def test_disk_q1_closed_form(disk_closed_form):
    p = RadialParams(n=2, q=1.0, beta=1.0)
    prof = solve_ball(p, 1.0)
    e = ball_energy(prof)
    assert prof.mode == "robin"
    assert abs(prof.psi[0] - disk_closed_form["psi0"]) < 1e-10
    assert abs(prof.psi[-1] - disk_closed_form["psiR"]) < 1e-10
    assert abs(e.E - disk_closed_form["E"]) < 1e-12
    assert abs(e.lambda_q - disk_closed_form["lambda1"]) < 1e-12
    # full profile: psi = R/(n beta) + (R^2 - r^2)/(2n)
    exact = 0.5 + (1.0 - prof.grid**2) / 4.0
    assert np.max(np.abs(prof.psi - exact)) < 1e-10


def test_ball_q1_closed_form_n3():
    n, beta, R = 3, 2.0, 1.5
    p = RadialParams(n=n, q=1.0, beta=beta)
    prof = solve_ball(p, R)
    e = ball_energy(prof)
    psi0 = R / (n * beta) + R**2 / (2 * n)
    E = -0.5 * unit_ball_volume(n) * R**n * (R / (n * beta) + R**2 / (n * (n + 2)))
    assert abs(prof.psi[0] - psi0) < 1e-10
    assert abs(e.E - E) < 1e-10 * abs(E)


def test_energy_breakdown_sums():
    p = RadialParams(n=2, q=1.5, beta=0.5)
    e = ball_energy(solve_ball(p, 1.0))
    assert e.E == e.dirichlet + e.boundary + e.bulk
    assert e.dirichlet > 0 and e.boundary > 0 and e.bulk < 0
    with pytest.raises(ValueError):  # E = 0 is no minimizer energy
        BallEnergy(dirichlet=1.0, boundary=1.0, bulk=-2.0)


def test_lambda_matches_rayleigh_quotient():
    # the minimizer makes the scale-invariant quotient equal the value
    # recovered from the energy level, for every q below 2
    for q in (1.0, 1.25, 1.5, 1.75):
        p = RadialParams(n=2, q=q, beta=0.7)
        prof = solve_ball(p, 1.0)
        e = ball_energy(prof)
        r, h = prof.grid, prof.grid[1]
        w = np.ones(r.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= h / 3.0
        surf = 2 * math.pi * r
        D = float(w @ (prof.dpsi**2 * surf))
        B = 2 * math.pi * p.beta * prof.psi[-1] ** 2
        Q = float(w @ (prof.psi**q * surf))
        rayleigh = (D + B) / Q ** (2.0 / q)
        assert abs(e.lambda_q - rayleigh) / rayleigh < 1e-9


def test_obstacle_energy_levels():
    # E^c on the unit disk at q=1, beta=1: quadratic in c up to the contact
    # threshold c = 1/2, constant -pi/16 beyond it
    E0 = -5 * math.pi / 16
    for c, expected in ((0.25, -math.pi / 8), (0.5, -math.pi / 16), (1.0, -math.pi / 16)):
        p = RadialParams(n=2, q=1.0, beta=1.0, c=c)
        prof = solve_ball(p, 1.0)
        e = ball_energy(prof)
        assert abs(e.E - expected) < 1e-9, c
        if c >= 0.5:
            assert abs(prof.psi[-1]) < 1e-6
    p1 = solve_ball(RadialParams(n=2, q=1.0, beta=1.0, c=1.0), 1.0)
    assert p1.mode == "obstacle_contact"
    assert abs(p1.psi[0] - 0.25) < 1e-9
    assert p1.dpsi[-1] + 1.0 * 1.0 >= -1e-9


def test_shift_lower_bound_with_equality_split():
    # E^c >= E + c|B| - (beta/2) c^2 Per, equality exactly while the
    # unconstrained minimizer stays above c (infimum 1/2 here)
    E0 = -5 * math.pi / 16
    per, vol = 2 * math.pi, math.pi
    for c in (0.0, 0.25, 0.5):
        e = ball_energy(solve_ball(RadialParams(n=2, q=1.0, beta=1.0, c=c), 1.0))
        rhs = E0 - 0.5 * c**2 * per + c * vol
        assert abs(e.E - rhs) < 1e-9, c
    for c in (0.75, 1.0):
        e = ball_energy(solve_ball(RadialParams(n=2, q=1.0, beta=1.0, c=c), 1.0))
        rhs = E0 - 0.5 * c**2 * per + c * vol
        assert e.E - rhs > 1e-3, c


def test_modified_boundary_law_continuity_in_eps():
    # fixed c = 0.5 at the contact threshold: the eps-regularized boundary
    # law approaches the eps = 0 energy monotonically from below in |gap|
    base = ball_energy(solve_ball(RadialParams(n=2, q=1.0, beta=1.0, c=0.5), 1.0)).E
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        e = ball_energy(solve_ball(RadialParams(n=2, q=1.0, beta=1.0, c=0.5, eps=eps), 1.0)).E
        gaps.append(abs(e - base))
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))


def test_q2_rejected_with_pointer():
    with pytest.raises(ValueError, match="eigenvalue_q2_ball"):
        solve_ball(RadialParams(n=2, q=2.0, beta=1.0), 1.0)


def test_q2_eigenvalue_against_bessel():
    beta = 1.0
    f = lambda x: -x * j1(x) + beta * j0(x)
    x0 = brentq(f, 0.1, 2.4, xtol=1e-14)
    lam, (grid, psi, dpsi) = eigenvalue_q2_ball(2, beta, 1.0, return_profile=True)
    assert abs(lam - x0**2) / x0**2 < 1e-12
    assert np.max(np.abs(psi - j0(math.sqrt(lam) * grid))) < 1e-12


def test_q2_eigenvalue_limits():
    j01 = brentq(j0, 2.0, 3.0, xtol=1e-14)
    lam_stiff = eigenvalue_q2_ball(2, 1e6, 1.0, M=2048)
    assert abs(lam_stiff - j01**2) / j01**2 < 1e-4
    lam_soft = eigenvalue_q2_ball(2, 1e-6, 1.0, M=2048)
    assert abs(lam_soft - 2e-6) / 2e-6 < 1e-3


def test_integrator_order():
    # fixed-amplitude shots expose the global error; halving the step must
    # shrink it by about 2^4
    p = RadialParams(n=2, q=1.5, beta=1.0)
    ref = shoot_once(p, 1.0, 2.0, M=16384)[0]
    errs = [abs(shoot_once(p, 1.0, 2.0, M=M)[0] - ref) for M in (32, 64, 128)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
    # q = 1 profiles are quadratic in r, integrated exactly at any step
    p1 = RadialParams(n=2, q=1.0, beta=1.0)
    exact = 2.0 - 1.0 / 4.0
    assert abs(shoot_once(p1, 1.0, 2.0, M=32)[0] - exact) < 1e-13


def test_hamiltonian_monotonicity_reports():
    for p in (RadialParams(n=2, q=1.0, beta=1.0), RadialParams(n=3, q=1.5, beta=0.5, c=0.3)):
        rep = hamiltonian_monotonicity(solve_ball(p, 1.0))
        assert rep.passed
        assert rep.deficit >= -1e-10
        assert rep.inputs["identity_sup_error"] < 1e-6


def test_annulus_exclusion_positive_residual():
    p = RadialParams(n=2, q=1.0, beta=1.0)
    rep = annulus_exclusion(p, 0.5, 1.5, M=2048)
    assert rep.passed and rep.inputs["admissible"]
    assert rep.lhs > 1e-4


def test_annulus_residual_grows_as_hole_shrinks():
    p = RadialParams(n=2, q=1.0, beta=1.0)
    vals = [annulus_exclusion(p, r1, 1.0, M=2048).lhs for r1 in (0.5, 0.1, 0.01)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 10.0


def test_annulus_vacuous_when_linear():
    # at q = 2 the shot is amplitude-homogeneous, so the outer residual
    # never changes sign: exclusion holds vacuously
    rep = annulus_exclusion(RadialParams(n=2, q=2.0, beta=1.0), 0.5, 1.0, M=1024)
    assert rep.passed and not rep.inputs["admissible"]
    assert rep.lhs == math.inf


def test_penalized_ball_threshold():
    p = RadialParams(n=2, q=1.0, beta=1.0)
    rho, rep = penalized_ball_argmin(p, math.pi, 0.0, n_grid=12, M=1024)
    assert rho == rep.inputs["r_m"] == 1.0
    assert rep.passed
    assert abs(rep.inputs["k_threshold"] - 5.0 / 32.0) < 1e-8
    rho2, rep2 = penalized_ball_argmin(p, math.pi, 0.9 * 5.0 / 32.0, n_grid=12, M=1024)
    assert rho2 == 1.0 and rep2.passed
    rho3, rep3 = penalized_ball_argmin(p, math.pi, 1000.0, n_grid=12, M=1024)
    assert rho3 < 1.0 and rep3.inputs["k_above_threshold"] and rep3.passed
    with pytest.raises(ValueError):
        penalized_ball_argmin(RadialParams(n=2, q=1.0, beta=1.0, c=0.5), math.pi, 0.0)


def test_profile_validation_rejects_tampering():
    p = RadialParams(n=2, q=1.0, beta=1.0)
    prof = solve_ball(p, 1.0, M=512)
    with pytest.raises(ValueError, match="ODE residual"):
        RadialProfile(p, prof.grid, np.full_like(prof.psi, 0.6),
                      np.zeros_like(prof.dpsi), 0.0, "robin")
    with pytest.raises(ValueError, match="boundary residual"):
        RadialProfile(p, prof.grid, prof.psi, prof.dpsi, 5e-9, "robin")
    with pytest.raises(ValueError, match="mode"):
        RadialProfile(p, prof.grid, prof.psi, prof.dpsi, prof.bc_residual, "bogus")
    with pytest.raises(ValueError, match="nonnegative"):
        RadialProfile(p, prof.grid, prof.psi - 1.0, prof.dpsi, prof.bc_residual, "robin")


def test_lambda_from_energy_domain():
    with pytest.raises(ValueError):
        lambda_from_energy(-1.0, 2.0)
    with pytest.raises(ValueError):
        lambda_from_energy(0.5, 1.0)
    # round trip: E = ((q-2)/2q) lam^{q/(q-2)}
    lam = 0.7
    for q in (1.0, 1.5, 1.75):
        E = (q - 2) / (2 * q) * lam ** (q / (q - 2))
        assert abs(lambda_from_energy(E, q) - lam) < 1e-12


def test_profile_csv_round_trip(tmp_path):
    p = RadialParams(n=2, q=1.5, beta=1.0, c=0.2)
    prof = solve_ball(p, 1.0, M=512)
    path = tmp_path / "profile.csv"
    profile_to_csv(prof, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape == (513,)
    for col, arr in (("r", prof.grid), ("psi", prof.psi), ("dpsi", prof.dpsi),
                     ("H", prof.hamiltonian())):
        scale = max(1.0, float(np.max(np.abs(arr))))
        assert np.max(np.abs(data[col] - arr)) < 1e-10 * scale


@settings(max_examples=8)
@given(
    beta=st.floats(min_value=0.3, max_value=4.0),
    R=st.floats(min_value=0.5, max_value=2.0),
)
def test_q1_center_value_closed_form(beta, R):
    n = 2
    prof = solve_ball(RadialParams(n=n, q=1.0, beta=beta), R, M=512)
    assert abs(prof.psi[0] - (R / (n * beta) + R**2 / (2 * n))) < 1e-8


@settings(max_examples=8)
@given(
    q=st.floats(min_value=1.0, max_value=1.9),
    beta=st.floats(min_value=0.3, max_value=3.0),
    c=st.floats(min_value=0.0, max_value=0.4),
)
@example(q=1.25, beta=1.0, c=1.03e-164)
def test_solver_invariants_hold(q, beta, c):
    # construction runs the full invariant battery; energy must be negative
    prof = solve_ball(RadialParams(n=2, q=q, beta=beta, c=c), 1.0, M=512)
    e = ball_energy(prof)
    assert e.E < 0.0
    assert hamiltonian_monotonicity(prof).passed


def test_tiny_obstacle_level_keeps_the_series_start_bounded():
    # with q < 1.5 the series' r^4 coefficient grows like (a + c)^(2q - 3);
    # kept at a tiny c it shoots psi to ~1e68 and loses the contact bracket
    prof = solve_ball(RadialParams(q=1.25, c=1.03e-164), 1.0, M=512)
    assert prof.mode == "modified_robin"
    assert ball_energy(prof).E < 0.0


def test_tiny_center_value_below_the_initial_bracket_floor():
    # near q = 2 with a ball eigenvalue above 1 the c = 0 root sits at
    # a ~ 4e-14, below the first lower end 1e-10 * hi of the bracket
    prof = solve_ball(RadialParams(n=3, q=1.93, beta=2.70), 0.653)
    assert prof.mode == "robin"
    assert prof.psi[0] > 0.0
    assert ball_energy(prof).E < 0.0


def test_annulus_margin_scales_with_the_profile():
    # a tiny admissible profile (psi ~ 1e-3) has a tiny positive residual;
    # a fixed 1e-4 margin failed it
    p = RadialParams(n=2, q=1.8398866053437994, beta=1.5087412573852452)
    rep = annulus_exclusion(p, 0.4, 1.2)
    assert rep.inputs["admissible"]
    assert 0.0 < rep.lhs < 1e-4
    assert 0.0 < rep.rhs < rep.lhs
    assert rep.passed


def test_shot_counts_stay_superlinear():
    # Brent's method needs a handful of shots where the two-stage bisection
    # took 68 (136 on the contact branch); the q = 1 profile is closed form
    closed = solve_ball(RadialParams(n=2, q=1.0, beta=1.0), 1.1)
    assert closed.mode == "robin" and closed.shots == 0
    robin = solve_ball(RadialParams(n=2, q=1.5, beta=1.0), 1.1)
    assert robin.mode == "robin" and 0 < robin.shots <= 15
    contact = solve_ball(RadialParams(n=2, q=1.3, beta=1.2, c=2.0), 1.1)
    assert contact.mode == "obstacle_contact" and 0 < contact.shots <= 20


def test_lost_bracket_raises_solver_error():
    # a residual without a root in the coarse bracket at the full step count
    with pytest.raises(SolverError, match="left the coarse shooting bracket"):
        _refine(lambda x, steps: 1.0 + x, 0.5, 0.0, 1.0, radial.DEFAULT_STEPS)
    # a coarse slope 100x too steep: every chord step covers 1 % of the way
    flat = lambda x, steps: (x - 0.5) * (1.0 if steps == radial._COARSE_STEPS else 0.01) - 1e-3
    with pytest.raises(SolverError, match="did not settle"):
        _refine(flat, 0.5 + 1e-3, 0.0, 1.0, radial.DEFAULT_STEPS)
    # a coarse slope 2.5x too shallow: the chord overshoots more each step
    steep = lambda x, steps: (x - 0.5) * (1.0 if steps == radial._COARSE_STEPS else 2.5) - 0.125
    with pytest.raises(SolverError, match="steps grow above rounding"):
        _refine(steep, 0.625, 0.0, 1.0, radial.DEFAULT_STEPS)


def test_annulus_scan_stops_at_the_first_sign_change(monkeypatch):
    # the 48-point coarse amplitude scan shoots only up to its first step
    # from a negative to a nonnegative outer residual; the coarse Brent root
    # shoots at _COARSE_STEPS too, so scan shots are told apart by their
    # membership in the amplitude grid
    p = RadialParams(n=2, q=1.5, beta=1.0)
    shoot = radial._shoot_annulus
    coarse = []

    def counted(n, q, beta, c, eps, r1, r2, M, a, store=False):
        if M == radial._COARSE_STEPS:
            coarse.append(a)
        return shoot(n, q, beta, c, eps, r1, r2, M, a, store)

    monkeypatch.setattr(radial, "_shoot_annulus", counted)
    rep = annulus_exclusion(p, 0.4, 1.2)
    assert rep.inputs["admissible"] and rep.passed

    def residual(a):
        psi2, s2 = shoot(p.n, p.q, p.beta, p.c, p.eps, 0.4, 1.2, radial._COARSE_STEPS, a)
        return s2 + p.beta * psi2

    hi = 10.0 * (1.2 / (p.n * p.beta) + 1.2 * 1.2 / (2.0 * p.n) + p.c)
    grid = set(np.linspace(hi * 1e-6, hi, 48))
    scan = [a for a in coarse if a in grid]
    signs = [residual(a) >= 0.0 for a in scan]
    assert 2 <= len(scan) < 48
    assert signs == [False] * (len(scan) - 1) + [True]


def _passes(monkeypatch):
    """Integrator passes of the radial solvers, by step count."""
    passes = {}
    rk4 = radial._rk4

    def counted(n, source, r0, h, M, start, store=False):
        passes[M] = passes.get(M, 0) + 1
        return rk4(n, source, r0, h, M, start, store)

    monkeypatch.setattr(radial, "_rk4", counted)
    return passes


@pytest.mark.parametrize(
    "solve",
    [
        lambda: eigenvalue_q2_ball(2, 1.0, 1.0),
        lambda: annulus_exclusion(RadialParams(n=2, q=1.5, beta=1.0), 0.4, 1.2),
        lambda: solve_ball(RadialParams(n=2, q=1.5, beta=1.0), 1.0),
        lambda: solve_ball(RadialParams(n=3, q=1.5, beta=0.7, c=0.1), 1.2),
        lambda: solve_ball(RadialParams(n=2, q=1.3, beta=1.2, c=2.0), 1.1),
    ],
    ids=["eigenvalue", "annulus", "robin", "modified_robin", "obstacle_contact"],
)
def test_no_integrator_pass_runs_twice_in_one_solve(monkeypatch, solve):
    # brentq evaluates its bracket ends, which the scan or the search has
    # already shot: each solver shoots one (start, r0, h, M, store) once
    seen = []
    rk4 = radial._rk4

    def recorded(n, source, r0, h, M, start, store=False):
        seen.append((tuple(start), r0, h, M, store))
        return rk4(n, source, r0, h, M, start, store)

    monkeypatch.setattr(radial, "_rk4", recorded)
    solve()
    assert len(seen) > 1
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("n, beta, R", [(2, 1.0, 1.0), (3, 2.0, 1.5), (3, 0.7, 0.9)])
def test_eigenvalue_shoots_at_full_resolution_only_near_the_root(monkeypatch, n, beta, R):
    # the root is found at _COARSE_STEPS first; a scan bracket refined at M
    # took 8-9 passes there; the chord takes 2
    passes = _passes(monkeypatch)
    eigenvalue_q2_ball(n, beta, R)
    assert passes[radial.DEFAULT_STEPS] <= 3


@pytest.mark.parametrize(
    "n, q, beta, r1, r2",
    [(2, 1.5, 1.0, 0.4, 1.2), (2, 1.9, 1.5, 0.5, 1.4), (3, 1.7, 0.6, 0.6, 1.6)],
)
def test_annulus_shoots_at_full_resolution_only_near_the_root(monkeypatch, n, q, beta, r1, r2):
    # a scan bracket refined at M took 11-23 passes there; the chord takes at
    # most 3, and one stored pass builds the profile
    passes = _passes(monkeypatch)
    rep = annulus_exclusion(RadialParams(n=n, q=q, beta=beta), r1, r2)
    assert rep.inputs["admissible"] and rep.passed
    assert passes[radial.DEFAULT_STEPS] <= 3 + 1


def test_eigenvalue_and_annulus_below_the_coarse_step_count_shoot_only_at_m(monkeypatch):
    passes = _passes(monkeypatch)
    eigenvalue_q2_ball(2, 1.0, 1.0, M=256)
    annulus_exclusion(RadialParams(n=2, q=1.5, beta=1.0), 0.4, 1.2, M=256)
    assert set(passes) == {256}


def test_unverified_profile_is_a_solver_failure():
    # a contact profile with psi ~ 2665 fails the absolute ODE residual bound
    # (a relative residual of 5.6e-11): no verified profile, so no result
    p = RadialParams(n=3, q=1.9199441324755204, beta=0.40118109472273006, c=4.280410742892416)
    with pytest.raises(SolverError, match="ODE residual .* exceeds 1e-08"):
        solve_ball(p, 1.9164197066144089)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "f_c, eps, mode",
    [
        (0.0, 0.0, "robin"),
        (0.4, 0.0, "modified_robin"),
        (2.0, 0.0, "obstacle_contact"),
        (1.0, 0.0, "obstacle_contact"),  # the contact threshold c = R/(n beta)
        (0.4, 0.3, "modified_robin"),
    ],
)
def test_q1_center_value_is_closed_form_from_one_pass(monkeypatch, n, f_c, eps, mode):
    # psi = a - r^2/(2n), so x = psi(R) solves x + c (1+eps) x^eps = R/(n beta),
    # and one closed-form build, with no integrator pass, gives the profile
    beta, R = 0.8, 1.3
    rhs = R / (n * beta)
    c = f_c * rhs
    if eps > 0.0:
        x = brentq(lambda x: x + c * (1 + eps) * x**eps - rhs, 0.0, rhs, xtol=1e-300)
    else:
        x = max(rhs - c, 0.0)
    passes = _passes(monkeypatch)
    prof = solve_ball(RadialParams(n=n, q=1.0, beta=beta, c=c, eps=eps), R)
    assert prof.mode == mode
    assert abs(prof.psi[0] - (x + R**2 / (2 * n))) <= 1e-13 * prof.psi[0]
    assert passes == {} and prof.shots == 0
    exact = x + (R**2 - prof.grid**2) / (2 * n)
    assert np.max(np.abs(prof.psi - exact)) <= 1e-13 * prof.psi[0]
    assert np.max(np.abs(prof.dpsi + prof.grid / n)) <= 1e-13 * R


def test_penalized_ball_at_q1_runs_no_integrator_pass(monkeypatch):
    passes = _passes(monkeypatch)
    rho, rep = penalized_ball_argmin(
        RadialParams(n=2, q=1.0, beta=1.0), math.pi, 0.0, n_grid=12, M=1024
    )
    assert passes == {}
    assert rho == 1.0 and rep.passed


@pytest.mark.parametrize("n, beta, R, a", [(2, 1.0, 1.0, 0.75), (3, 0.8, 1.3, 2.1)])
def test_q1_closed_form_profile_matches_one_rk4_pass(n, beta, R, a):
    # the quadratic a - r^2/(2n) is what RK4 integrates, up to rounding
    M = radial.DEFAULT_STEPS
    psiR, sR, (grid, psi, dpsi) = radial._shoot_ball(n, 1.0, 0.0, R, M, a, store=True)
    h = R / M
    start = [(a, 0.0), radial._series_step(n, 1.0, 0.0, a, h)]
    psiR_rk, sR_rk, (grid_rk, psi_rk, dpsi_rk) = radial._rk4(
        n, radial._source(1.0, 0.0), 0.0, h, M, start, store=True
    )
    assert np.array_equal(grid, grid_rk)
    assert np.max(np.abs(psi - psi_rk)) <= 1e-13 * np.max(np.abs(psi_rk))
    assert np.max(np.abs(dpsi - dpsi_rk)) <= 1e-13 * np.max(np.abs(dpsi_rk))
    assert abs(psiR - psiR_rk) <= 1e-13 * abs(psiR_rk)
    assert abs(sR - sR_rk) <= 1e-13 * abs(sR_rk)


@pytest.mark.parametrize(
    "kw, R, mode",
    [
        (dict(n=2, q=1.3, beta=1.2, c=2.0), 1.1, "obstacle_contact"),
        (dict(n=3, q=1.93, beta=2.70), 0.653, "robin"),  # center value ~4e-14
        (dict(n=2, q=1.25, c=1.03e-164), 1.0, "modified_robin"),
        (dict(n=2, q=1.5, beta=1.0), 1.0, "robin"),
        (dict(n=3, q=1.5, beta=0.7, c=0.1), 1.2, "modified_robin"),
        (dict(n=2, q=1.7, beta=0.8, c=0.1, eps=0.4), 1.2, "modified_robin"),
    ],
)
def test_full_resolution_passes_only_near_the_root(monkeypatch, kw, R, mode):
    # the search runs at _COARSE_STEPS; at M only the roots are refined, to a
    # residual below what the coarse root leaves there (4e-15 |psi'(R)| or
    # more on these cases). Each root takes at most 3 chord passes at M, and
    # one more stored pass builds the profile
    M = radial.DEFAULT_STEPS
    passes = _passes(monkeypatch)
    per_root = []

    def counted(f, a, lo, hi, steps):
        before = passes.get(M, 0)
        x = refine(f, a, lo, hi, steps)
        per_root.append(passes.get(M, 0) - before)
        return x

    refine = radial._refine
    monkeypatch.setattr(radial, "_refine", counted)
    p = RadialParams(**kw)
    prof = solve_ball(p, R)
    assert prof.mode == mode
    assert per_root and max(per_root) <= 3
    # besides the chord passes: the stored profile, and at c > 0, eps = 0 the
    # slope test on the coarse Dirichlet root (a contact refinement starts
    # from that shot, so it does not count it)
    extra = 2 if p.c > 0.0 and p.eps == 0.0 else 1
    assert passes[M] == sum(per_root) + extra
    assert prof.shots == sum(passes.values())
    assert abs(prof.bc_residual) <= min(1e-12, 1e-15 * abs(prof.dpsi[-1]))


def test_displaced_coarse_root_is_refined_to_the_same_profile(monkeypatch):
    # a coarse search that sees every center value 1e-6 (relative) too high
    # puts its root 1e-6 away from the root at M: the chord steps still find
    # the same root, one pass later; displaced by 100x the coarse slope is
    # 100x too steep, and the chord does not settle
    p = RadialParams(n=2, q=1.5, beta=1.0)
    shoot = radial._shoot_ball
    fine = []

    def displaced(n, q, c, R, M, a, store=False):
        if M == radial._COARSE_STEPS:
            a *= 1.0 + shift
        else:
            fine.append(a)
        return shoot(n, q, c, R, M, a, store)

    monkeypatch.setattr(radial, "_shoot_ball", displaced)
    shift = 0.0
    ref = solve_ball(p, 1.0)
    n_ref = len(fine)
    fine.clear()
    shift = 1e-6
    prof = solve_ball(p, 1.0)
    assert n_ref < len(fine) <= 3 + 1  # chord passes, then the stored profile
    assert np.max(np.abs(prof.psi - ref.psi)) <= 1e-12 * ref.psi[0]
    assert abs(prof.bc_residual) <= 1e-12
    shift = 99.0
    with pytest.raises(SolverError, match="chord"):
        solve_ball(p, 1.0)


def test_near_q2_root_stops_at_the_scaled_tolerance(monkeypatch):
    # at c = 0 the residual's slope in log a shrinks with (2 - q)/2, so the
    # coarse Brent search stops at 4 eps x 2/(2 - q) relative: at 4 eps it
    # bisected through the integrator's rounding. The chord steps at M stop
    # on rounding too: Brent at M took 13 passes there, later 3, each with
    # one more stored pass for the profile
    passes = _passes(monkeypatch)
    p = RadialParams(n=3, q=1.8927479889242407, beta=0.9915469670825734)
    prof = solve_ball(p, 0.500985137533762, M=2048)
    assert passes[2048] <= 3 + 1
    assert abs(prof.bc_residual) <= 1e-15 * abs(prof.dpsi[-1])


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    q=st.floats(min_value=1.05, max_value=1.95),
    beta=st.floats(min_value=0.5, max_value=2.0),
    f_c=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=3.0)),
    eps=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=0.6)),
)
# psi(R) = 2e-9 here: a coarse slope over a step of 1e-7 a was 4x too shallow,
# and the chord diverged
@example(n=2, q=1.75, beta=1.0, f_c=2.0, eps=0.03125)
def test_refined_root_matches_brent_at_full_resolution(n, q, beta, f_c, eps):
    # the chord root agrees with Brent's method run on the same residual at M.
    # Two regimes stay out, where the coarse search or the root at M already
    # failed before the chord (CHANGES.md): eps in (0, 0.1) with c > 0, where
    # psi(R) can lie within rounding of 0, and 0 < c < 0.05 R/(n beta) near
    # q = 2, where the Dirichlet search's Brent run does not converge
    R, M = 1.0, radial.DEFAULT_STEPS
    p = RadialParams(n=n, q=q, beta=beta, c=f_c * R / (n * beta), eps=eps)
    prof = solve_ball(p, R, M=M)
    a = prof.psi[0]

    def residual(x):
        psiR, sR = radial._shoot_ball(n, q, p.c, R, M, x)
        if prof.mode == "obstacle_contact":
            return psiR
        return sR + radial._flux(psiR, beta, p.c, eps)

    a_brent = brentq(residual, a * (1.0 - 1e-12), a * (1.0 + 1e-12), xtol=1e-300)
    assert abs(a - a_brent) <= 16.0 * np.finfo(float).eps * a
