import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ellipe

from robinlab import geometry as geo

# Fraenkel asymmetry of the ellipse a=1.2, b=1/1.2 against the equal-area
# disk centered at the origin, from adaptive quadrature of
# 2 (A - integral of min(rho_ell, 1)^2 / 2) / A with the crossing angle
# isolated by root bracketing. Derived once with scipy.integrate.quad at
# epsabs=1e-14 and frozen here.
ELLIPSE_12_ASYMMETRY = 0.2308635070104359


def test_polygon_area_perimeter_regular():
    K = 512
    d = geo.disk(1.0, K=K)
    assert abs(geo.area(d) - 0.5 * K * math.sin(2 * math.pi / K)) < 1e-12
    assert abs(geo.perimeter(d) - 2 * K * math.sin(math.pi / K)) < 1e-12
    assert abs(geo.area(d) - math.pi) / math.pi < 1e-4
    assert abs(geo.perimeter(d) - 2 * math.pi) / (2 * math.pi) < 1e-4


def test_square_measures():
    K = 4096
    angles = (np.arange(K) * 2 * math.pi / K)
    radii = 1.0 / np.maximum(np.abs(np.cos(angles)), np.abs(np.sin(angles)))
    d = geo.StarDomain(center=np.zeros(2), radii=radii)
    assert abs(geo.area(d) - 4.0) < 4e-3
    assert abs(geo.perimeter(d) - 8.0) < 8e-3


def test_ellipse_measures():
    a, b = 2.0, 1.0
    d = geo.ellipse(a, b, K=4096)
    per_exact = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    assert abs(per_exact - 9.688448220547675) < 1e-12
    assert abs(geo.area(d) - math.pi * a * b) / (math.pi * a * b) < 1e-4
    assert abs(geo.perimeter(d) - per_exact) / per_exact < 1e-4


def test_ellipse_default_is_area_preserving():
    d = geo.ellipse(1.3)
    assert abs(geo.area(d) - math.pi) / math.pi < 1e-4


def test_boundary_radius_exact_on_polygon():
    K = 64
    d = geo.disk(1.0, K=K)
    ang = d.angles
    assert np.max(np.abs(geo.boundary_radius(d, ang) - 1.0)) < 1e-12
    mids = ang + math.pi / K
    assert np.max(np.abs(geo.boundary_radius(d, mids) - math.cos(math.pi / K))) < 1e-12


def test_asymmetry_disk_near_zero():
    d = geo.disk(1.0)
    val, ball = geo.fraenkel_asymmetry(d)
    assert 0.0 <= val < 1e-3
    assert np.linalg.norm(ball.center) < 1e-2
    assert abs(ball.radius - geo.equivalent_ball_radius(d)) < 1e-14


def test_asymmetry_ellipse_frozen_value():
    d = geo.ellipse(1.2)
    val, ball = geo.fraenkel_asymmetry(d)
    assert abs(val - ELLIPSE_12_ASYMMETRY) < 2e-4
    assert np.linalg.norm(ball.center) < 1e-2


def test_asymmetry_translation_equivariant():
    d = geo.ellipse(1.2)
    shift = np.array([3.7, -1.2])
    val0, ball0 = geo.fraenkel_asymmetry(d)
    val1, ball1 = geo.fraenkel_asymmetry(d.translated(shift))
    assert abs(val0 - val1) < 1e-6
    assert np.linalg.norm(ball1.center - (ball0.center + shift)) < 1e-3


def test_perturbed_domain():
    d = geo.perturbed(1.0, a=0.1, k=3)
    assert abs(geo.area(d) - math.pi * (1 + 0.1**2 / 2)) / math.pi < 1e-3
    val, _ = geo.fraenkel_asymmetry(d)
    assert val > 1e-3
    with pytest.raises(ValueError):
        geo.perturbed(1.0, a=1.0)


def test_stadium_measures():
    L, R = 2.0, 1.0
    d = geo.stadium(L, R, K=4096)
    area_exact = L * 2 * R + math.pi * R**2
    per_exact = 2 * L + 2 * math.pi * R
    assert abs(geo.area(d) - area_exact) / area_exact < 1e-3
    assert abs(geo.perimeter(d) - per_exact) / per_exact < 1e-3


def test_validation():
    with pytest.raises(ValueError):
        geo.StarDomain(center=np.zeros(2), radii=np.ones(8))
    with pytest.raises(ValueError):
        geo.StarDomain(center=np.zeros(2), radii=np.full(32, -1.0))
    bad = np.ones(32)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        geo.StarDomain(center=np.zeros(2), radii=bad)
    with pytest.raises(ValueError):
        geo.Ball(center=np.zeros(2), radius=0.0)


@given(
    t=st.floats(min_value=0.5, max_value=2.0),
    a=st.floats(min_value=1.05, max_value=1.5),
)
def test_scaling_laws(t, a):
    d = geo.ellipse(a, K=128)
    ds = d.scaled(t)
    assert abs(geo.area(ds) - t**2 * geo.area(d)) < 1e-12 * t**2
    assert abs(geo.perimeter(ds) - t * geo.perimeter(d)) < 1e-12 * t


@given(
    sx=st.floats(min_value=-2.0, max_value=2.0),
    sy=st.floats(min_value=-2.0, max_value=2.0),
)
def test_translation_invariants(sx, sy):
    d = geo.perturbed(1.0, a=0.05, k=2, K=128)
    dt = d.translated(np.array([sx, sy]))
    assert abs(geo.area(dt) - geo.area(d)) < 1e-12
    assert abs(geo.perimeter(dt) - geo.perimeter(d)) < 1e-12


# the asymmetry before the search was confined: a 21 x 21 grid over the
# vertex bounding box (549 overlap evaluations at most), then Nelder-Mead
CONFINED_SEARCH_CASES = [
    ("disk(1)", lambda: geo.disk(1.0), 9.608538606420992e-06),
    ("ellipse(1.05)", lambda: geo.ellipse(1.05), 0.06209399005418941),
    ("ellipse(1.2)", lambda: geo.ellipse(1.2), 0.23085131903586548),
    ("ellipse(1.25)", lambda: geo.ellipse(1.25), 0.2817709471221695),
    ("ellipse(1.3)", lambda: geo.ellipse(1.3), 0.3302659628552131),
    ("ellipse(1.4)", lambda: geo.ellipse(1.4), 0.4205218495915657),
    ("perturbed(0.03,k=2)", lambda: geo.perturbed(1.0, a=0.03, k=2), 0.03817928578816181),
    ("perturbed(0.15,k=2)", lambda: geo.perturbed(1.0, a=0.15, k=2), 0.18898512529200923),
    ("perturbed(0.03,k=3)", lambda: geo.perturbed(1.0, a=0.03, k=3), 0.03817692403704772),
    ("perturbed(0.1,k=3)", lambda: geo.perturbed(1.0, a=0.1, k=3), 0.12671621229510294),
    ("perturbed(0.15,k=3)", lambda: geo.perturbed(1.0, a=0.15, k=3), 0.18897398853134598),
    ("perturbed(0.3,k=5)", lambda: geo.perturbed(1.0, a=0.3, k=5), 0.3664606634696611),
    ("perturbed(0.2,k=1)", lambda: geo.perturbed(1.0, a=0.2, k=1), 0.012004506571304176),
    ("stadium(0.2,1)", lambda: geo.stadium(0.2, 1.0), 0.05293910602682131),
    ("stadium(1.2,1)", lambda: geo.stadium(1.2, 1.0), 0.29040560524507925),
    ("stadium(2,1)", lambda: geo.stadium(2.0, 1.0), 0.44511550494927904),
    ("ellipse(1.2)+shift", lambda: geo.ellipse(1.2).translated((3.7, -1.2)), 0.23085131891697838),
]


@pytest.mark.parametrize(
    "make, before", [c[1:] for c in CONFINED_SEARCH_CASES], ids=[c[0] for c in CONFINED_SEARCH_CASES]
)
def test_asymmetry_search_confined_by_the_triangle_inequality(monkeypatch, make, before):
    # a center that beats the domain center lies within d_max of it; the
    # search there finds the same minimum with a quarter of the evaluations
    # (the discrete symmetric difference has 1e-7 kinks, so the two searches
    # settle in neighbouring dips)
    evals, radii = [], []
    overlap, search_radius = geo._overlap_area, geo._search_radius

    def counted(*args):
        evals.append(1)
        return overlap(*args)

    def recorded(frac0, R):
        radii.append(search_radius(frac0, R))
        return radii[-1]

    monkeypatch.setattr(geo, "_overlap_area", counted)
    monkeypatch.setattr(geo, "_search_radius", recorded)
    d = make()
    val, ball = geo.fraenkel_asymmetry(d)
    assert val <= before + 1e-9
    assert len(evals) <= 200
    assert np.linalg.norm(ball.center - d.center) < radii[0]


def test_search_radius_inverts_the_lens_area():
    # |B(0) symdiff B(w)| = 2 |B| - 2 lens(|w|) equals 2 frac0 |B| at d_max
    R = 1.3
    for frac0 in (1e-6, 0.01, 0.2, 0.7):
        d = geo._search_radius(frac0, R)
        lens = 2 * R**2 * math.acos(d / (2 * R)) - 0.5 * d * math.sqrt(4 * R**2 - d**2)
        assert abs((2 * (math.pi * R**2 - lens)) / (math.pi * R**2) - 2 * frac0) < 1e-12
    assert geo._search_radius(0.0, R) == 0.0
    assert geo._search_radius(1.0, R) == 2 * R
