"""The benchmark's checks reject wrong values, and its oracles reproduce the
known anchors. Run with: python3 -m pytest perfbench/tests -q"""

import math

import numpy as np
import pytest

import oracles
import workloads
from robinlab import geometry, radial
from robinlab.radial import RadialParams
from robinlab.reports import make_report

# ---------------------------------------------------------------------------
# oracles


def test_q1_closed_form_is_minus_five_pi_over_sixteen():
    assert oracles.ball_energy_q1(2, 1.0, 1.0) == pytest.approx(-5.0 * math.pi / 16.0, rel=1e-15)


def test_level_of_the_unit_disk_is_eight_over_five_pi():
    E = oracles.ball_energy_q1(2, 1.0, 1.0)
    assert oracles.level_from_energy(E, 1.0) == pytest.approx(8.0 / (5.0 * math.pi), rel=1e-15)


def test_shooting_oracle_tends_to_the_q1_closed_form():
    assert oracles.ball_energy_shooting(1.0 + 1e-6, 1.0, 1.0) == pytest.approx(
        -5.0 * math.pi / 16.0, rel=1e-5
    )


def test_bessel_root_of_the_unit_disk():
    # first root of x J1(x) = J0(x), tabulated as 1.2558 (Biot number 1)
    assert math.sqrt(oracles.robin_eigenvalue_ball(2, 1.0, 1.0)) == pytest.approx(1.25578, abs=1e-5)


def test_sphere_root_at_beta_r_one_is_half_pi():
    # kR cos kR = (1 - beta R) sin kR reduces to cos k = 0
    assert oracles.robin_eigenvalue_ball(3, 1.0, 1.0) == pytest.approx(math.pi**2 / 4.0, rel=1e-13)


def test_disk_obstacle_closed_form_matches_general_q1_form():
    for c in (0.0, 0.2, 0.5, 0.8, 2.0):
        assert oracles.disk_ec_q1(c) == pytest.approx(oracles.ball_energy_q1(2, 1.0, 1.0, c), abs=1e-14)


def test_family_radii_are_the_shapes_robinlab_builds():
    pairs = [
        ("ellipse", 1.3, 2, geometry.ellipse(1.3)),
        ("perturbed", 0.1, 3, geometry.perturbed(1.0, a=0.1, k=3)),
        ("stadium", 0.8, 2, geometry.stadium(0.8, 1.0)),
        ("disk", 1.2, 2, geometry.disk(1.2)),
    ]
    for family, value, k, dom in pairs:
        assert np.allclose(oracles.family_radii(family, value, k), dom.radii, rtol=1e-13, atol=0)
        assert oracles.polygon_area(dom.radii) == pytest.approx(geometry.area(dom), rel=1e-13)


# ---------------------------------------------------------------------------
# checks reject wrong values


def _num(x):
    """A CSV cell as the sweep writes it."""
    return f"{float(x):.12g}"


def _shape_row(E, q, beta, family="ellipse", value=1.2, passed=True, deficit=0.01, tol=0.001):
    area = oracles.polygon_area(oracles.family_radii(family, value))
    return {
        "passed": "true" if passed else "false",
        "deficit": _num(deficit),
        "tolerance": _num(tol),
        "area": _num(area),
        "E": _num(E),
        "lambda_q": _num(oracles.level_from_energy(E, q)),
    }


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_shape_row_rejects_energy_one_percent_below_the_ball(q):
    beta = 2.0
    R = oracles.equal_area_radius(oracles.family_radii("ellipse", 1.2))
    E_ball = workloads._ball_lower_bound(q, beta, R)
    spec = ("ellipse", 1.2, 2, q, beta, "intermediate")
    assert workloads.check_shape_row(spec, 0, [_shape_row(0.99 * E_ball, q, beta)]) == []
    assert workloads.check_shape_row(spec, 0, [_shape_row(1.01 * E_ball, q, beta)])


def test_shape_row_rejects_a_failed_inequality_row():
    spec = ("ellipse", 1.2, 2, 1.0, 0.5, "quantitative")
    E = 0.9 * workloads._ball_lower_bound(1.0, 0.5, 1.0)
    assert workloads.check_shape_row(spec, 0, [_shape_row(E, 1.0, 0.5)]) == []
    failed = _shape_row(E, 1.0, 0.5, passed=False, deficit=-0.01, tol=0.001)
    assert workloads.check_shape_row(spec, 4, [failed])
    assert workloads.check_shape_row(spec, 0, [failed])


def test_certificate_rejects_energy_shifted_by_one_percent():
    p = RadialParams(n=3, q=1.0, beta=0.8, c=2.0)
    out = workloads._certificate(p, 1.1, 1.5)
    assert out[0] == "obstacle_contact"
    assert workloads.check_certificate(p, 1.1, out) == []
    shifted = (out[0], 1.01 * out[1], out[2], out[3])
    assert workloads.check_certificate(p, 1.1, shifted)


def test_eigenvalue_check_rejects_a_shifted_root():
    lam = radial.eigenvalue_q2_ball(2, 1.5, 0.9)
    assert workloads.check_eigenvalue(2, 1.5, 0.9, lam) == []
    assert workloads.check_eigenvalue(2, 1.5, 0.9, 1.01 * lam)


def test_penalty_threshold_of_the_unit_disk_is_five_over_32():
    assert oracles.penalty_threshold_q1(1.0) == pytest.approx(5.0 / 32.0, rel=1e-15)


def test_penalized_check_rejects_an_argmin_inside_the_ball():
    rho, report = radial.penalized_ball_argmin(RadialParams(), math.pi, 0.1, M=512)
    assert workloads.check_penalized(1.0, 0.1, (rho, report)) == []
    assert workloads.check_penalized(1.0, 0.1, (0.9 * rho, report))


def test_ladder_rejects_lambda_2_from_one_level_coarser():
    exact = oracles.robin_eigenvalue_ball(2, 1.0, 1.0)
    ladder = [exact + 0.3 / n_r**2 for n_r in workloads.LEVELS]
    assert workloads.check_ladder("lambda_2", ladder, exact, True) == []
    coarser = ladder[:-1] + [ladder[-2]]
    assert workloads.check_ladder("lambda_2", coarser, exact, True)


def test_ladder_rejects_values_below_the_reference():
    exact = -5.0 * math.pi / 16.0
    ladder = [exact + 0.5 / n_r**2 for n_r in workloads.LEVELS]
    assert workloads.check_ladder("E", [v - 1e-3 for v in ladder], exact, False)


def test_disk_obstacle_row_rejects_energy_shifted_by_one_percent():
    c = 0.25
    spec = ("disk", 1.0, 2, 1.0, 1.0, 1.0)
    R = oracles.equal_area_radius(oracles.family_radii("disk", 1.0))
    row = {
        "passed": "true",
        "deficit": "0.0005",
        "tolerance": "0.001",
        "c": _num(c),
        "inf_u": _num(c),
        "rhs": _num(oracles.ball_energy_q1(2, R, 1.0, c)),
        "lhs": _num(oracles.disk_ec_q1(c) + 2e-4),
    }
    assert workloads.check_ec_row(spec, row) == []
    assert workloads.check_ec_row(spec, dict(row, lhs=_num(1.01 * oracles.disk_ec_q1(c))))


def test_obstacle_paths_must_agree_within_their_tolerances():
    ec = {"deficit": "0.0100", "tolerance": "0.001"}
    assert workloads.check_paths_agree(ec, {"deficit": "0.0115", "tolerance": "0.001"}, "t") == []
    assert workloads.check_paths_agree(ec, {"deficit": "0.0130", "tolerance": "0.001"}, "t")


def _annulus_report(lhs):
    return make_report(name="annulus_exclusion", lhs=lhs, rhs=1e-4, tolerance=1e-12)


def test_annulus_check_asks_for_the_margin_up_to_q_one_and_a_half():
    p = RadialParams(n=2, q=1.4, beta=1.0)
    assert workloads.check_annulus(p, _annulus_report(1e-3)) == []
    assert workloads.check_annulus(p, _annulus_report(1e-6))


def test_annulus_check_asks_for_a_positive_residual_above_q_one_and_a_half():
    p = RadialParams(n=2, q=1.9, beta=1.0)
    assert workloads.check_annulus(p, _annulus_report(1e-6)) == []
    assert workloads.check_annulus(p, _annulus_report(-1e-6))
    assert workloads.check_annulus(p, _annulus_report(0.0))


def test_a_check_that_raises_makes_the_run_incorrect(monkeypatch, tmp_path):
    import run

    def raising_round(rng, index, workdir):
        def boom(outputs):
            raise ValueError("no bracket")

        return workloads.Round([("noop", lambda: 1.0)], boom)

    monkeypatch.setitem(workloads.WORKLOADS, "shape_sweep", raising_round)
    monkeypatch.setitem(workloads.WARMUPS, "shape_sweep", lambda workdir: None)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    result = run.run_workload("shape_sweep", 0, 0.0, None, 0.0)
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 0
