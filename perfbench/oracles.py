"""Reference values computed without robinlab.

Every function here is an independent route to a number the benchmark
checks robinlab's output against: closed forms for q = 1, Bessel-type roots
for the linear (q = 2) Robin eigenvalue, and an adaptive-step shooting solve
(scipy.integrate.solve_ivp + brentq) for the c = 0 ball energy at q in (1, 2).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import gamma, j0, j1


def unit_ball_volume(n: int) -> float:
    """omega_n = pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def polygon_area(radii) -> float:
    """Area of the polar polygon with radii on K equally spaced angles:
    sum of the K triangles (1/2) r_j r_(j+1) sin(2 pi / K)."""
    r = np.asarray(radii, dtype=float)
    return 0.5 * math.sin(2.0 * math.pi / r.size) * float(np.sum(r * np.roll(r, -1)))


def equal_area_radius(radii) -> float:
    return math.sqrt(polygon_area(radii) / math.pi)


def family_radii(family: str, value: float, k: int = 2, K: int = 512) -> np.ndarray:
    """Boundary radii of a sweep family member on K equally spaced angles,
    from the shapes' defining equations: the area-pi ellipse with semi-axes
    (value, 1/value), the disk of radius value, the cosine perturbation
    1 + value cos(k theta), and the stadium of straight length value capped
    by unit half-disks."""
    th = 2.0 * math.pi * np.arange(K) / K
    c, s = np.abs(np.cos(th)), np.abs(np.sin(th))
    if family == "disk":
        return np.full(K, float(value))
    if family == "ellipse":
        a, b = value, 1.0 / value
        return a * b / np.sqrt((b * c) ** 2 + (a * s) ** 2)
    if family == "perturbed":
        return 1.0 + value * np.cos(k * th)
    if family == "stadium":
        half = 0.5 * value
        with np.errstate(divide="ignore"):
            wall = 1.0 / s
        cap = half * c + np.sqrt(half * half * c * c - half * half + 1.0)
        return np.where(wall * c <= half, wall, cap)
    raise ValueError(f"no radii for family {family!r}")


def ball_energy_q1(n: int, R: float, beta: float, c: float = 0.0, eps: float = 0.0) -> float:
    """Closed-form shifted energy of the q = 1 ball minimizer.

    The profile is psi = psi_R + (R^2 - r^2)/(2n); the boundary value solves
    R/n = beta (psi_R + c (1+eps) psi_R^eps), or is 0 when no positive root
    exists (the contact branch, eps = 0 and c >= R/(n beta)). Then
    E = -omega R^(n+2)/(2n(n+2))
        + omega R^(n-1) [ (n beta/2)(psi_R^2 + 2c psi_R^(1+eps)) - R psi_R ].
    """
    omega = unit_ball_volume(n)
    if c == 0.0 or eps == 0.0:
        psi_R = max(R / (n * beta) - c, 0.0)
    else:
        f = lambda v: beta * (v + c * (1.0 + eps) * v**eps) - R / n
        psi_R = brentq(f, 0.0, R / (n * beta), xtol=1e-15, rtol=1e-15)
    boundary = 0.5 * n * beta * (psi_R**2 + 2.0 * c * psi_R ** (1.0 + eps))
    return -omega * R ** (n + 2) / (2.0 * n * (n + 2)) + omega * R ** (n - 1) * (
        boundary - R * psi_R
    )


def penalty_threshold_q1(R: float, beta: float = 1.0) -> float:
    """k0 = -E(B_R) / (2 |B_R|) in the plane at q = 1: the largest penalty k
    for which rho -> E(B_rho) + 2k |B_rho| is minimal at rho = R;
    R^2/32 + R/(8 beta), 5/32 on the unit disk at beta = 1."""
    return -ball_energy_q1(2, R, beta) / (2.0 * math.pi * R * R)


def level_from_energy(E: float, q: float) -> float:
    """Scale-invariant level of a c = 0 energy: E = ((q-2)/(2q)) lambda^(q/(q-2))
    solved for lambda; at q = 1 this is -1/(2E), 8/(5 pi) on the unit disk."""
    return (2.0 * q / (q - 2.0) * E) ** ((q - 2.0) / q)


def disk_ec_q1(c: float) -> float:
    """E^c on the unit disk at q = 1, beta = 1: -5pi/16 - pi c^2 + pi c while
    the constraint is inactive (c <= 1/2), -pi/16 once the profile touches it."""
    if c <= 0.5:
        return -5.0 * math.pi / 16.0 - math.pi * c * c + math.pi * c
    return -math.pi / 16.0


def robin_eigenvalue_ball(n: int, beta: float, R: float) -> float:
    """First Robin eigenvalue k^2 of the ball: in n = 2 the root of
    k J1(kR) = beta J0(kR) below j_(0,1)/R; in n = 3 the root of
    kR cos kR = (1 - beta R) sin kR below pi/R."""
    if n == 2:
        f = lambda k: k * j1(k * R) - beta * j0(k * R)
        hi = 2.404825557695773 / R
    elif n == 3:
        f = lambda k: k * R * math.cos(k * R) - (1.0 - beta * R) * math.sin(k * R)
        hi = math.pi / R
    else:
        raise ValueError("oracle covers n = 2 and n = 3")
    k = brentq(f, 1e-9 / R, hi, xtol=1e-15, rtol=1e-15)
    return k * k


def ball_energy_shooting(q: float, beta: float, R: float, n: int = 2) -> float:
    """c = 0 ball energy at q in (1, 2) by adaptive shooting.

    Solves psi'' + (n-1)/r psi' + psi^(q-1) = 0, psi'(0) = 0, with the center
    value chosen by brentq so that psi'(R) + beta psi(R) = 0. Testing the
    equation with psi gives int |grad psi|^2 + beta int_bd psi^2 = int psi^q,
    hence E = -((2 - q)/(2q)) int psi^q, integrated alongside the profile.
    """
    if not 1.0 < q < 2.0:
        raise ValueError("the shooting oracle covers q in (1, 2)")
    nm1 = float(n - 1)
    area_factor = n * unit_ball_volume(n)
    r0 = 1e-6 * R

    def rhs(r, y):
        src = max(y[0], 0.0) ** (q - 1.0)
        return (y[1], -nm1 * y[1] / r - src, max(y[0], 0.0) ** q * r**nm1)

    def shoot(a):
        A = a ** (q - 1.0)
        y0 = (a - A * r0 * r0 / (2.0 * n), -A * r0 / n, a**q * r0**n / n)
        sol = solve_ivp(rhs, (r0, R), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"shooting oracle failed: {sol.message}")
        return sol.y[:, -1]

    def residual(a):
        psi, dpsi, _ = shoot(a)
        return dpsi + beta * psi

    hi = 10.0 * (R / (n * beta) + R * R / (2.0 * n))
    while residual(hi) <= 0.0:
        hi *= 2.0
    lo = 1e-9 * hi
    a = brentq(residual, lo, hi, xtol=1e-14 * hi, rtol=1e-14)
    integral = shoot(a)[2]
    return -((2.0 - q) / (2.0 * q)) * area_factor * integral
