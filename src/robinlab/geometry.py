"""Star-shaped planar domains sampled in polar coordinates.

A domain is a polygon with K vertices center + r_j * (cos theta_j, sin theta_j)
on the equally spaced angles theta_j = 2 pi j / K. Area and perimeter are the
exact polygon values; the Fraenkel asymmetry min_z |Omega symdiff B(z)| / |Omega|
is minimized over centers of the area-equivalent disk, searched only within
the radius the triangle inequality leaves for a center that beats the
domain center.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

logger = logging.getLogger(__name__)

MIN_VERTICES = 16
CENTER_GRID = 7  # asymmetry center search: coarse points per axis (odd: w = 0 is one)
CENTER_TOL = 1e-6  # and the Nelder-Mead refinement's tolerance


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(2)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0) or not np.all(np.isfinite(center)):
            raise ValueError("ball needs a finite center and radius > 0")


@dataclass(frozen=True)
class StarDomain:
    """Polar polygon: radii sampled on K >= 16 equally spaced angles."""

    center: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(2)
        radii = np.asarray(self.radii, dtype=float).reshape(-1)
        if radii.size < MIN_VERTICES:
            raise ValueError(f"need at least {MIN_VERTICES} radii, got {radii.size}")
        if not np.all(np.isfinite(radii)) or np.any(radii <= 0.0):
            raise ValueError("radii must be finite and positive")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        center.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radii", radii)

    @property
    def K(self) -> int:
        return self.radii.size

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.K) / self.K

    def vertices(self) -> np.ndarray:
        th = self.angles
        return self.center + self.radii[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=1
        )

    def translated(self, shift) -> "StarDomain":
        return StarDomain(self.center + np.asarray(shift, dtype=float), self.radii)

    def scaled(self, t: float) -> "StarDomain":
        if not t > 0.0:
            raise ValueError("scale factor must be positive")
        return StarDomain(self.center, t * self.radii)


# ---------------------------------------------------------------------------
# generators


def disk(R: float = 1.0, K: int = 512) -> StarDomain:
    return StarDomain(np.zeros(2), np.full(K, float(R)))


def ellipse(a: float, b: float | None = None, K: int = 512) -> StarDomain:
    """Ellipse x^2/a^2 + y^2/b^2 = 1; b defaults to 1/a (area pi)."""
    if b is None:
        b = 1.0 / a
    th = 2.0 * np.pi * np.arange(K) / K
    r = a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)
    return StarDomain(np.zeros(2), r)


def perturbed(R: float = 1.0, a: float = 0.05, k: int = 2, K: int = 512) -> StarDomain:
    """Cosine-perturbed disk r(theta) = R (1 + a cos(k theta)); needs |a| < 1."""
    if abs(a) >= 1.0:
        raise ValueError("perturbation amplitude must satisfy |a| < 1")
    th = 2.0 * np.pi * np.arange(K) / K
    return StarDomain(np.zeros(2), R * (1.0 + a * np.cos(k * th)))


def stadium(L: float, R: float, K: int = 512) -> StarDomain:
    """Rectangle L x 2R capped by half-disks of radius R, centered at the origin."""
    if L < 0 or R <= 0:
        raise ValueError("stadium needs L >= 0 and R > 0")
    th = 2.0 * np.pi * np.arange(K) / K
    ct, st = np.cos(th), np.sin(th)
    # flat walls y = +-R are hit while |x| <= L/2 along the ray
    with np.errstate(divide="ignore"):
        t_wall = np.where(np.abs(st) > 0, R / np.abs(st), np.inf)
    on_wall = np.abs(t_wall * ct) <= L / 2.0
    # cap centered at (sign(cos th) * L/2, 0)
    half = L / 2.0
    bq = -2.0 * half * np.abs(ct)
    cq = half * half - R * R
    disc = np.maximum(bq * bq - 4.0 * cq, 0.0)
    t_cap = (-bq + np.sqrt(disc)) / 2.0
    r = np.where(on_wall, t_wall, t_cap)
    return StarDomain(np.zeros(2), r)


# ---------------------------------------------------------------------------
# measures


def area(d: StarDomain) -> float:
    """Signed polygon area (positive: vertices are counterclockwise)."""
    v = d.vertices() - d.center
    x, y = v[:, 0], v[:, 1]
    xs, ys = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * ys - xs * y))


def perimeter(d: StarDomain) -> float:
    v = d.vertices()
    return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


def equivalent_ball_radius(d: StarDomain) -> float:
    return math.sqrt(area(d) / math.pi)


def iso_deficit(d: StarDomain) -> float:
    """|Omega|^(-1/2) (Per(Omega) - Per(B)) with |B| = |Omega|; >= 0 up to
    polygonal discretization."""
    A = area(d)
    return (perimeter(d) - 2.0 * math.sqrt(math.pi * A)) / math.sqrt(A)


def boundary_radius(d: StarDomain, theta) -> np.ndarray:
    """Exact polygon boundary radius about the domain center at angles theta.

    The ray at angle theta meets the edge of the sector containing theta in
    rho = cross(P_j, P_{j+1}) / cross(e, P_{j+1} - P_j), all offsets from the
    center.
    """
    th = np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)
    K = d.K
    j = np.minimum((th * K / (2.0 * np.pi)).astype(int), K - 1)
    ang = d.angles
    r = d.radii
    p1 = np.stack([r[j] * np.cos(ang[j]), r[j] * np.sin(ang[j])], axis=-1)
    j2 = (j + 1) % K
    p2 = np.stack([r[j2] * np.cos(ang[j2]), r[j2] * np.sin(ang[j2])], axis=-1)
    e = np.stack([np.cos(th), np.sin(th)], axis=-1)
    dvec = p2 - p1
    num = p1[..., 0] * p2[..., 1] - p1[..., 1] * p2[..., 0]
    den = e[..., 0] * dvec[..., 1] - e[..., 1] * dvec[..., 0]
    return num / den


def _overlap_area(rho_bdy: np.ndarray, dtheta: float, cos_t, sin_t, w, R: float) -> float:
    """|Omega ∩ B(center + w, R)| by the angular midpoint rule; per angle the
    radial slice of the disk is the chord [t-, t+], integrated in closed form."""
    wd = w[0] * cos_t + w[1] * sin_t
    disc = wd * wd - (w[0] * w[0] + w[1] * w[1]) + R * R
    hit = disc > 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    lo = np.maximum(wd - sq, 0.0)
    hi = np.minimum(wd + sq, rho_bdy)
    seg = np.where(hit, np.maximum(hi * hi - lo * lo, 0.0), 0.0)
    return 0.5 * float(np.sum(seg)) * dtheta


def _search_radius(frac0: float, R: float) -> float:
    """Largest |w| at which a disk B(center + w, R) can still beat B(center, R).

    Any center w with |Omega symdiff B(w)| <= |Omega symdiff B(0)| has
    |B(0) symdiff B(w)| <= 2 |Omega symdiff B(0)| by the triangle inequality.
    For equal disks |B(0) symdiff B(w)| / |B| = 2 - 2 lens(s) with s = |w| / 2R
    and lens(s) = (2/pi)(acos s - s sqrt(1 - s^2)), the overlap's share of |B|,
    which decreases from 1 to 0 on [0, 1]. frac0 is |Omega symdiff B(0)| / |B|.
    """
    if frac0 <= 0.0:  # nothing beats an empty symmetric difference
        return 0.0
    if frac0 >= 1.0:
        return 2.0 * R

    def excess(s):
        return 2.0 / math.pi * (math.acos(s) - s * math.sqrt(1.0 - s * s)) - (1.0 - frac0)

    return 2.0 * R * brentq(excess, 0.0, 1.0, xtol=1e-15)


def fraenkel_asymmetry(d: StarDomain, n_angles: int = 4096) -> tuple[float, Ball]:
    """min over equal-area disk centers of |Omega symdiff B| / |Omega|.

    Only centers within d_max = _search_radius of the domain center can beat
    the disk at the center itself, so the coarse grid of CENTER_GRID^2
    centers covers [-D, D]^2 about it, D = 1.05 d_max + 1e-3 R (the margin
    absorbs the angular quadrature error). Nelder-Mead then refines the best
    cell to CENTER_TOL from a simplex of half a grid step. Ties between
    coarse cells within 1e-6 are logged; the first minimizer wins.
    """
    A = area(d)
    R = math.sqrt(A / math.pi)
    dtheta = 2.0 * np.pi / n_angles
    th = (np.arange(n_angles) + 0.5) * dtheta
    rho_bdy = boundary_radius(d, th)
    cos_t, sin_t = np.cos(th), np.sin(th)

    def sym_diff_frac(w):
        inter = _overlap_area(rho_bdy, dtheta, cos_t, sin_t, w, R)
        return 2.0 * (A - inter) / A

    mid = CENTER_GRID // 2  # the grid's middle point is w = 0
    frac0 = sym_diff_frac((0.0, 0.0))
    D = 1.05 * _search_radius(frac0, R) + 1e-3 * R
    xs = np.linspace(-D, D, CENTER_GRID)
    vals = np.empty((CENTER_GRID, CENTER_GRID))
    for i, x in enumerate(xs):
        for jj, y in enumerate(xs):
            vals[i, jj] = frac0 if i == jj == mid else sym_diff_frac((x, y))
    best = np.unravel_index(np.argmin(vals), vals.shape)
    best_val = vals[best]
    if np.sum(vals <= best_val + 1e-6) > 1:
        logger.warning(
            "asymmetry center search: coarse grid ties within 1e-6, keeping the first minimizer"
        )

    x0 = np.array([xs[best[0]], xs[best[1]]])
    half_step = D / (CENTER_GRID - 1)
    res = minimize(
        sym_diff_frac,
        x0=x0,
        method="Nelder-Mead",
        options={
            "xatol": CENTER_TOL,
            "fatol": CENTER_TOL * 1e-2,
            "maxiter": 500,
            "initial_simplex": x0 + np.array([[0.0, 0.0], [half_step, 0.0], [0.0, half_step]]),
        },
    )
    if not res.success and res.fun > best_val:
        logger.warning("asymmetry center refinement did not converge: %s", res.message)
    w = res.x if res.fun <= best_val else x0
    val = float(min(res.fun, best_val))
    return val, Ball(d.center + w, R)
