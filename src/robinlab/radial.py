"""Radial solver for the semilinear Robin energy on balls and annuli.

Profiles solve psi'' + (n-1)/r psi' + (psi + c)^(q-1) = 0 with psi'(0) = 0 and
the boundary law psi'(R) + beta (psi(R) + c (1+eps) psi(R)^eps) = 0 (outer
normal; the inner boundary of an annulus flips the sign of psi'). Shooting on
the center value a = psi(0) with one fixed-step RK4 integrator (compensated
sums), whose source term is (psi + c)^(q-1) here and lam psi for the q = 2
eigenvalue. Every shooting root takes one coarse-to-fine path: a bracket is
searched (or scanned) at min(_COARSE_STEPS, M) steps, Brent's method
(scipy's brentq) finds the root there, and _refine moves it to the root at
M steps by chord steps x <- x - f(x, M) / slope, the slope taken from one
coarse finite difference (Keller 1968; Ortega & Rheinboldt 1970, 7.1). The
root moves by O(_COARSE_STEPS^-4) between step counts, so one chord step
lands at rounding level. The ball profile at q = 1 is the quadratic
a - r^2/(2n), so its center value is closed form and numpy builds it
without an integrator pass. The first RK4 step uses the even series
psi ~ a - A r^2/(2n) + B r^4 to clear the (n-1)/r singularity, with
A = (a+c)^(q-1) and B = (q-1) A^2 / (8 n (n+2) (a+c)).

The ball energy is
    E = 1/2 int |psi'|^2 + (beta/2) Per(B_R) (psi_R^2 + 2 c psi_R^(1+eps))
        - int Theta(psi),   Theta(v) = ((c+v)^q - c^q)/q,
with volume integrals int_0^R f(r) n omega_n r^(n-1) dr by composite Simpson.
For c = 0, q < 2 the scale-invariant eigenvalue follows from
lambda_q = (2q/(q-2) E)^((q-2)/q).

Along any solution the Hamiltonian H = psi'^2/2 + (c+psi)^q / q satisfies
H' = -(n-1) psi'^2 / r <= 0. For an annulus profile meeting both boundary
laws, the volume-preserving stationarity residual reduces to
H(r1) - H(r2) + (beta/2)(n-1) [ (psi_1^2 + 2 c psi_1^(1+eps))/r1
                              + (psi_2^2 + 2 c psi_2^(1+eps))/r2 ],
strictly positive by the monotonicity of H: no annulus is stationary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import SolverError
from .reports import InequalityReport, make_report

DEFAULT_STEPS = 4096
_COARSE_STEPS = 512
BC_TOL = 1e-9
ODE_RESIDUAL_TOL = 1e-8
_RTOL = 4.0 * np.finfo(float).eps  # brentq's default relative tolerance, and its floor
# relative step of the coarse finite-difference slope: rounding moves that
# slope by about 1e-6 relative, while a step of 1e-7 missed the slope 4x where
# psi(R)^eps bends the residual near psi(R) = 0
_FD_STEP = 1e-10
_CHORD_PASSES = 6  # full-resolution passes a chord refinement may take
_NOISE = 1e-12  # relative chord steps up to this size may be rounding noise


def unit_ball_volume(n: int) -> float:
    """omega_n by the recurrence omega_n = omega_{n-2} * 2 pi / n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n == 1:
        return 2.0
    if n == 2:
        return math.pi
    return unit_ball_volume(n - 2) * 2.0 * math.pi / n


def ball_surface(n: int, R: float) -> float:
    return n * unit_ball_volume(n) * R ** (n - 1)


def _pospow(x: float, e: float) -> float:
    if e == 0.0:
        return 1.0 if x > 0.0 else 0.0
    return x**e if x > 0.0 else 0.0


def _flux(psi, beta, c, eps):
    """Robin flux of the boundary law psi' + beta (psi + c (1+eps) psi^eps) = 0."""
    return beta * (psi + c * (1.0 + eps) * _pospow(psi, eps))


def _boundary_density(psi, c, eps):
    """psi^2 + 2 c psi^(1+eps), which beta/2 turns into boundary energy density."""
    return psi**2 + 2.0 * c * _pospow(psi, 1.0 + eps)


@dataclass(frozen=True)
class RadialParams:
    n: int = 2
    q: float = 1.0
    beta: float = 1.0
    c: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        for name in ("q", "beta", "c", "eps"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if not 1.0 <= self.q <= 2.0:
            raise ValueError("q must lie in [1, 2]")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.c < 0.0:
            raise ValueError("c must be nonnegative")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")


MODES = ("robin", "modified_robin", "obstacle_contact")


def _fd4(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order central first derivative at nodes 2..len-3."""
    return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)


@dataclass(frozen=True)
class RadialProfile:
    """Validated radial solution on a uniform grid over [0, R]."""

    params: RadialParams
    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    bc_residual: float
    mode: str
    shots: int = 0  # integrator passes that built the profile

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        dpsi = np.asarray(self.dpsi, dtype=float)
        for arr in (grid, psi, dpsi):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "dpsi", dpsi)
        self._validate()

    @property
    def R(self) -> float:
        return float(self.grid[-1])

    @property
    def M(self) -> int:
        return self.grid.size - 1

    def hamiltonian(self) -> np.ndarray:
        p = self.params
        base = np.maximum(self.psi + p.c, 0.0)
        return 0.5 * self.dpsi**2 + base**p.q / p.q

    def _validate(self):
        p = self.params
        grid, psi, dpsi = self.grid, self.psi, self.dpsi
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        M = grid.size - 1
        if M < 16 or M % 2 != 0 or psi.size != M + 1 or dpsi.size != M + 1:
            raise ValueError("grid must hold an even M >= 16 with matching arrays")
        if grid[0] != 0.0 or dpsi[0] != 0.0:
            raise ValueError("profile must start at r = 0 with psi'(0) = 0")
        h = grid[1] - grid[0]
        if np.max(np.abs(np.diff(grid) - h)) > 1e-12 * grid[-1]:
            raise ValueError("grid must be uniform")
        if np.min(psi) < -1e-12:
            raise ValueError("psi must be nonnegative")
        if abs(self.bc_residual) > BC_TOL:
            raise ValueError(f"boundary residual {self.bc_residual:.3e} exceeds {BC_TOL}")
        # ODE residual on the stored grid: differentiate stored dpsi (4th-order
        # central); second differences of psi would amplify rounding past 1e-8.
        inner = slice(2, M - 1)
        d2 = _fd4(dpsi, h)
        base = psi + p.c
        if p.q == 1.0:
            src = np.ones_like(psi)
        else:
            src = np.where(base > 0.0, np.maximum(base, 0.0) ** (p.q - 1.0), 0.0)
        res = d2 + (p.n - 1) * dpsi[inner] / grid[inner] + src[inner]
        if np.max(np.abs(res)) > ODE_RESIDUAL_TOL:
            raise ValueError(
                f"ODE residual {np.max(np.abs(res)):.3e} exceeds {ODE_RESIDUAL_TOL}"
            )
        scale = max(1.0, float(np.max(np.abs(dpsi))))
        if np.max(np.abs(_fd4(psi, h) - dpsi[inner])) > 1e-9 * scale:
            raise ValueError("stored dpsi inconsistent with psi")
        H = self.hamiltonian()
        if np.max(np.diff(H)) > 1e-10:
            raise ValueError("Hamiltonian must be nonincreasing along the profile")
        if self.mode == "obstacle_contact":
            if abs(psi[-1]) > BC_TOL:
                raise ValueError("contact profile must vanish at the boundary")
            if dpsi[-1] + p.beta * p.c < -BC_TOL:
                raise ValueError("contact profile violates the slope condition")


@dataclass(frozen=True)
class BallEnergy:
    dirichlet: float
    boundary: float
    bulk: float
    lambda_q: float | None = None

    def __post_init__(self):
        if not self.E < 0.0:
            raise ValueError("minimizer energy must be negative")

    @property
    def E(self) -> float:
        return self.dirichlet + self.boundary + self.bulk


# ---------------------------------------------------------------------------
# shooting integrator


def _series_step(n, q, c, a, h):
    A = _pospow(a + c, q - 1.0)
    drop = A * h * h / (2.0 * n)
    # the r^4 coefficient grows like (a + c)^(2q - 3); once the first step's
    # drop exceeds a + c the series no longer describes the step, so keep
    # only the r^2 term
    if a + c <= 0.0 or A == 0.0 or drop > a + c:
        B = 0.0
    else:
        B = (q - 1.0) * A * A / (8.0 * n * (n + 2) * (a + c))
    psi = a - drop + B * h**4
    s = -A * h / n + 4.0 * B * h**3
    return psi, s


def _rk4(n, source, r0, h, M, start, store=False):
    """Fixed-step RK4 for psi'' = -(n-1)/r psi' - source(psi) on the nodes
    r0 + i h, i = 0..M. `start` lists the (psi, psi') pairs known at the first
    nodes, and the integration continues from the last of them. Returns
    (psi, psi') at node M and, when store=True, the (grid, psi, dpsi) arrays.
    psi and psi' are compensated sums (Kahan 1965): plain sums round once per
    step and leave ~1e-15 relative noise in the state at node M, which the
    boundary residuals near a root would inherit."""
    nm1 = float(n - 1)
    h2 = 0.5 * h
    h6 = h / 6.0
    k = len(start) - 1
    psi, s = start[-1]
    err_psi = err_s = 0.0  # rounding the last additions lost
    if store:
        psi_arr = np.empty(M + 1)
        s_arr = np.empty(M + 1)
        psi_arr[: k + 1], s_arr[: k + 1] = zip(*start)
    for i in range(k, M):
        r = r0 + i * h
        f1 = -nm1 * s / r - source(psi)
        s2 = s + h2 * f1
        p2 = psi + h2 * s
        f2 = -nm1 * s2 / (r + h2) - source(p2)
        s3 = s + h2 * f2
        p3 = psi + h2 * s2
        f3 = -nm1 * s3 / (r + h2) - source(p3)
        s4 = s + h * f3
        p4 = psi + h * s3
        f4 = -nm1 * s4 / (r + h) - source(p4)
        d = h6 * (s + 2.0 * (s2 + s3) + s4) - err_psi
        t = psi + d
        err_psi = (t - psi) - d
        psi = t
        d = h6 * (f1 + 2.0 * (f2 + f3) + f4) - err_s
        t = s + d
        err_s = (t - s) - d
        s = t
        if store:
            psi_arr[i + 1] = psi
            s_arr[i + 1] = s
    if store:
        return psi, s, (r0 + np.arange(M + 1) * h, psi_arr, s_arr)
    return psi, s


def _source(q, c):
    """The source term (psi + c)^(q-1) on its positive part, and 1 at q = 1."""
    if q == 1.0:
        return lambda y: 1.0
    qm1 = q - 1.0

    def source(y):
        b = y + c
        return b**qm1 if b > 0.0 else 0.0

    return source


def _shoot_ball(n, q, c, R, M, a, store=False):
    """Shot from the center with psi(0)=a; returns (psi(R), psi'(R)) and,
    when store=True, the full (grid, psi, dpsi) arrays. At q = 1 the profile
    is the quadratic a - r^2/(2n), built without an integrator pass."""
    h = R / M
    if q == 1.0:
        grid = np.arange(M + 1) * h
        psi, dpsi = a - grid * grid / (2.0 * n), -grid / n
        dpsi[0] = 0.0  # +0, as the integrator starts; -0 would print as "-0"
        ends = float(psi[-1]), float(dpsi[-1])
        return (*ends, (grid, psi, dpsi)) if store else ends
    start = [(a, 0.0), _series_step(n, q, c, a, h)]
    return _rk4(n, _source(q, c), 0.0, h, M, start, store)


def _shoot_annulus(n, q, beta, c, eps, r1, r2, M, a, store=False):
    """Integrate outward from r1 with psi(r1)=a and the inner boundary law
    -psi'(r1) + beta (a + c(1+eps) a^eps) = 0."""
    return _rk4(n, _source(q, c), r1, (r2 - r1) / M, M, [(a, _flux(a, beta, c, eps))], store)


def _root(f, lo, hi, rtol=_RTOL):
    """Brent's method (Brent 1973) on a sign-changing bracket [lo, hi]. The
    relative tolerance rtol (at least brentq's floor of 4 eps) alone sets the
    precision, so that tiny roots are resolved too; brentq only needs a
    positive xtol."""
    a, info = brentq(f, lo, hi, xtol=1e-300, rtol=rtol, full_output=True, disp=False)
    if not info.converged:
        raise SolverError(f"Brent root search did not converge: {info.flag}")
    return a


def _refine(f, a, lo, hi, M):
    """Root of the residual f(x, M) near the root a that the search found at
    min(_COARSE_STEPS, M) steps inside the bracket [lo, hi]. The root shifts
    by O(_COARSE_STEPS^-4) between step counts, so chord steps
    x <- x - f(x, M) / slope from a, with the slope of one coarse finite
    difference, reach rounding level after about one step (Ortega &
    Rheinboldt 1970, 7.1). The loop stops when a step falls below 4 eps |x|,
    or stops shrinking within rounding (_NOISE |x|), and returns the
    evaluated iterate of least |f(x, M)|, so that rounding in the last step
    cannot leave a worse residual. An iterate outside [lo, hi], steps that
    grow above rounding or a loop that does not settle in _CHORD_PASSES
    passes raise SolverError. At M <= _COARSE_STEPS a is the root."""
    if M <= _COARSE_STEPS:
        return a
    d = _FD_STEP * a
    slope = (f(a + d, _COARSE_STEPS) - f(a, _COARSE_STEPS)) / d
    if not (math.isfinite(slope) and slope != 0.0):
        raise SolverError("chord slope of the shooting residual is zero or not finite")
    x, best, last = a, (math.inf, a), math.inf
    for _ in range(_CHORD_PASSES):
        fx = f(x, M)
        best = min(best, (abs(fx), x))
        step = fx / slope
        if abs(step) <= _RTOL * abs(x):
            return best[1]
        if abs(step) >= last:  # rounding noise, or a chord that diverges
            if abs(step) <= _NOISE * abs(x):
                return best[1]
            raise SolverError("chord steps grow above rounding: the coarse slope misfits")
        last = abs(step)
        x -= step
        if not lo <= x <= hi:
            raise SolverError("chord step left the coarse shooting bracket")
    raise SolverError("chord refinement did not settle at full resolution")


def shoot_once(params: RadialParams, R: float, a: float, M: int = DEFAULT_STEPS):
    """Single shot from the center with psi(0) = a; returns (psi(R), psi'(R)).

    No boundary condition is imposed, so the discretization error of the
    integrator is visible directly; step-halving studies use this entry point.
    At q = 1 the shot is the closed-form quadratic a - r^2/(2n), so it shows
    no integrator error at any M.
    """
    p = params
    if not R > 0.0:
        raise ValueError("R must be positive")
    if M < 16:
        raise ValueError("M must be >= 16")
    return _shoot_ball(p.n, p.q, p.c, float(R), int(M), float(a))


def solve_ball(params: RadialParams, R: float, M: int = DEFAULT_STEPS) -> RadialProfile:
    """Shoot for the radial minimizer profile on the ball of radius R.

    The center value is a root of the boundary residual
    psi'(R) + beta (psi(R) + c (1+eps) psi(R)^eps). When c > 0 and eps = 0 the
    Dirichlet shot psi(R) = 0 is solved first: if its root meets the contact
    slope condition psi'(R) + beta c >= -1e-9 the profile is returned in mode
    'obstacle_contact'; otherwise the Robin root lies above it.

    At q = 1, x = psi(R) solves x + c (1+eps) x^eps = R/(n beta) without a
    shot, and the profile at a = x + R^2/(2n) is the closed-form quadratic,
    built without an integrator pass. At q > 1 the search runs at
    min(_COARSE_STEPS, M) steps, _refine moves each root to M by chord steps
    (one or two passes at M), one stored pass builds the profile, and the
    mode is decided at M. A profile that fails RadialProfile validation
    raises SolverError with the reason. The profile records in `shots` how
    many integrator passes built it (0 at q = 1).
    """
    p = params
    R = float(R)
    if not R > 0.0:
        raise ValueError("R must be positive")
    if M < 16 or M % 2 != 0:
        raise ValueError("M must be an even integer >= 16")
    if p.q == 2.0:
        raise ValueError(
            "q = 2 has no nontrivial energy minimizer on the ball; "
            "use eigenvalue_q2_ball for the linear problem"
        )
    coarse = min(_COARSE_STEPS, M)

    # (psi(R), psi'(R)) by (center value, steps), each shot once: brentq
    # re-evaluates its bracket ends, and the Robin search starts on shots of
    # the Dirichlet search; every call passes steps positionally, so one shot
    # has one cache key
    @functools.cache
    def shoot(a, steps):
        return _shoot_ball(p.n, p.q, p.c, R, steps, a)

    def bc_residual(psiR, sR):
        return sR + _flux(psiR, p.beta, p.c, p.eps)

    def profile(a, mode):
        # one stored pass at M, which also gives the residual that admits a
        # Robin-type root; a profile that fails validation is a solver
        # failure. Only this pass stores arrays: storing every pass at M
        # raised shape_sweep's peak RSS by about 8 MB
        psiR, sR, arrays = _shoot_ball(p.n, p.q, p.c, R, M, a, store=True)
        shots = 0 if p.q == 1.0 else shoot.cache_info().currsize + 1
        contact = mode == "obstacle_contact"
        res = psiR if contact else bc_residual(psiR, sR)
        if contact or (abs(res) <= BC_TOL and psiR >= -1e-12):
            try:
                return RadialProfile(p, *arrays, float(res), mode, shots)
            except ValueError as ex:
                raise SolverError(str(ex)) from ex
        if p.c > 0.0:
            raise SolverError("root search pinched at psi(R) -> 0; no admissible profile")
        raise SolverError("no boundary-residual root found for c = 0")

    robin_mode = "robin" if p.c == 0.0 else "modified_robin"
    if p.q == 1.0:
        # psi = a - r^2/(2n) exactly, so psi'(R) = -R/n and x = psi(R) solves
        # x + c (1+eps) x^eps = R/(n beta); at eps = 0 the slope condition
        # -R/n + beta c >= -1e-9 selects the contact profile x = 0
        rhs = R / (p.n * p.beta)
        x, mode = rhs - p.c, robin_mode
        if p.c > 0.0 and p.eps > 0.0:
            x = _root(lambda v: v + p.c * (1.0 + p.eps) * v**p.eps - rhs, 0.0, rhs)
        elif p.c > 0.0 and p.beta * x <= BC_TOL:
            x, mode = 0.0, "obstacle_contact"
        return profile(x + R * R / (2.0 * p.n), mode)

    def robin(a, steps=coarse):
        return bc_residual(*shoot(a, steps))

    def dirichlet(a, steps=coarse):
        return shoot(a, steps)[0]

    def meets_slope(a):
        return shoot(a, M)[1] + p.beta * p.c >= -BC_TOL

    def widen(f, hi):
        for _ in range(61):
            if f(hi) > 0.0:
                return hi
            hi *= 2.0
        raise SolverError("boundary residual bracket exhausted (never positive)")

    hi = 10.0 * (R / (p.n * p.beta) + R * R / (2.0 * p.n) + p.c)
    lo = 0.0
    rtol = _RTOL
    if p.c > 0.0 and p.eps == 0.0:
        # complementarity branch first: the Dirichlet root is the contact
        # profile when it meets the slope condition; else the Robin root of
        # the modified law lies above it, where psi(R) > 0 keeps the residual
        # free of the kink at psi(R) = 0
        if dirichlet(0.0) >= 0.0:
            raise SolverError("contact shot found no sign change at a = 0")
        hi = widen(dirichlet, hi)
        lo = _root(dirichlet, 0.0, hi)
        # the slope condition at M, on the coarse root and then on the root
        # at M: only a contact profile needs the latter
        if meets_slope(lo):
            lo = _refine(dirichlet, lo, 0.0, hi, M)
            if meets_slope(lo):
                return profile(lo, "obstacle_contact")
    elif p.c == 0.0:
        # a = 0 is the trivial solution, and the root can lie many decades
        # below hi when q is near 2: shrink lo until the residual is negative,
        # each rejected lo bounding the root from above
        lo = 0.1 * hi
        shrink = 0
        while robin(lo) >= 0.0:
            if shrink == 100:
                raise SolverError("no boundary-residual root found for c = 0")
            hi, lo = lo, 0.1 * lo
            shrink += 1
        # psi(r) = a phi(a^((q-2)/2) r) with phi(0) = 1, so the residual's
        # slope in log a shrinks with (2 - q)/2; below that relative
        # precision Brent only bisects through the integrator's rounding
        rtol = _RTOL * 2.0 / (2.0 - p.q)
    hi = widen(robin, hi)
    return profile(_refine(robin, _root(robin, lo, hi, rtol), lo, hi, M), robin_mode)


# ---------------------------------------------------------------------------
# energies


def _simpson(values: np.ndarray, h: float) -> float:
    n = values.size - 1
    if n % 2 != 0:
        raise ValueError("Simpson rule needs an even interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, values)) * h / 3.0


def theta_potential(v: np.ndarray, q: float, c: float) -> np.ndarray:
    """Theta(v) = ((c+v)^q - c^q)/q."""
    return (np.maximum(c + v, 0.0) ** q - c**q) / q


def ball_energy(profile: RadialProfile) -> BallEnergy:
    """Quadrature energy of a ball profile, split into Dirichlet, boundary,
    and bulk parts; fills lambda_q when c = 0 and q < 2."""
    p = profile.params
    r = profile.grid
    h = r[1] - r[0]
    R = profile.R
    surf = p.n * unit_ball_volume(p.n) * r ** (p.n - 1)
    dirichlet = 0.5 * _simpson(profile.dpsi**2 * surf, h)
    bulk = -_simpson(theta_potential(profile.psi, p.q, p.c) * surf, h)
    psiR = profile.psi[-1]
    boundary = 0.5 * p.beta * ball_surface(p.n, R) * _boundary_density(psiR, p.c, p.eps)
    energy = BallEnergy(dirichlet, boundary, bulk)
    if p.c == 0.0 and p.q < 2.0 and p.eps == 0.0:
        energy = replace(energy, lambda_q=lambda_from_energy(energy.E, p.q))
    return energy


def lambda_from_energy(E: float, q: float) -> float:
    """Invert E = ((q-2)/2q) lambda^(q/(q-2)) for q in [1, 2)."""
    if not q < 2.0:
        raise ValueError("the energy-eigenvalue relation needs q < 2")
    if not E < 0.0:
        raise ValueError("the relation needs E < 0")
    return (2.0 * q / (q - 2.0) * E) ** ((q - 2.0) / q)


# ---------------------------------------------------------------------------
# linear (q = 2) eigenvalue


def eigenvalue_q2_ball(
    n: int, beta: float, R: float, M: int = DEFAULT_STEPS, return_profile: bool = False
):
    """Smallest Robin eigenvalue of the ball: psi'' + (n-1)/r psi' + lam psi = 0,
    psi'(0) = 0, psi'(R) + beta psi(R) = 0. A scan in lam at
    min(_COARSE_STEPS, M) steps isolates the first sign change of the boundary
    residual, so the smallest eigenvalue is returned; Brent's method finds the
    root at the scan's step count, and chord steps at M (_refine) move it to
    the root at M."""
    n = int(n)
    beta = float(beta)
    R = float(R)
    if n < 2 or beta <= 0.0 or R <= 0.0:
        raise ValueError("need n >= 2, beta > 0, R > 0")

    def shoot(lam, steps, store=False):
        h = R / steps
        start = [(1.0, 0.0), (1.0 - lam * h * h / (2.0 * n), -lam * h / n)]
        return _rk4(n, lambda y: lam * y, 0.0, h, steps, start, store)

    @functools.cache  # brentq re-shoots the scan's bracket ends
    def res_at(lam, steps):
        psi, s = shoot(lam, steps)
        return s + _flux(psi, beta, 0.0, 0.0)

    # residual(0) = beta > 0; march until the first sign change
    coarse = min(_COARSE_STEPS, M)
    step = (math.pi / (2.0 * R)) ** 2 / 4.0
    for k in range(1, 100000):
        if res_at(k * step, coarse) < 0.0:
            break
    else:
        raise SolverError("no sign change found while scanning for the eigenvalue")
    lo, hi = (k - 1) * step, k * step
    lam_root = _refine(res_at, _root(lambda lam: res_at(lam, coarse), lo, hi), lo, hi, M)
    if not return_profile:
        return lam_root
    return lam_root, shoot(lam_root, M, store=True)[2]


# ---------------------------------------------------------------------------
# structural checks


def hamiltonian_monotonicity(profile: RadialProfile) -> InequalityReport:
    """H nonincreasing along the profile (slack 1e-10) and the derivative
    identity dH/dr = -(n-1) psi'^2 / r within 1e-6 at interior nodes. The
    report's deficit is the worst of the two margins."""
    p = profile.params
    H = profile.hamiltonian()
    r = profile.grid
    h = r[1] - r[0]
    mono_margin = float(np.min(-np.diff(H)))
    inner = slice(2, r.size - 2)
    dH = _fd4(H, h)
    ident_err = float(np.max(np.abs(dH + (p.n - 1) * profile.dpsi[inner] ** 2 / r[inner])))
    deficit = min(mono_margin, 1e-6 - ident_err)
    return make_report(
        name="hamiltonian_monotonicity",
        lhs=deficit,
        rhs=0.0,
        tolerance=1e-10,
        inputs={
            "n": p.n,
            "q": p.q,
            "beta": p.beta,
            "c": p.c,
            "eps": p.eps,
            "R": profile.R,
            "identity_sup_error": ident_err,
            "min_decrement": mono_margin,
        },
        term_provenance={
            "lhs": "min(worst grid decrement of H, 1e-6 - sup |dH/dr + (n-1) psi'^2/r|)",
            "rhs": "zero",
        },
    )


def annulus_exclusion(
    params: RadialParams, r1: float, r2: float, M: int = DEFAULT_STEPS
) -> InequalityReport:
    """Search for an annulus profile meeting both boundary laws and evaluate
    the volume-preserving stationarity residual
    H(r1) - H(r2) + (beta/2)(n-1) [ (psi1^2 + 2c psi1^(1+eps))/r1 + (outer) ].
    A 48-point amplitude scan at min(_COARSE_STEPS, M) steps stops at the
    first sign change of the outer residual; Brent's method finds the root
    at the scan's step count, and chord steps at M (_refine) move it to the
    root at M.
    Positive residual excludes a stationary annulus. When no admissible
    positive profile exists the exclusion holds vacuously (reported as pass
    with infinite margin)."""
    p = params
    r1, r2 = float(r1), float(r2)
    if not 0.0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")

    @functools.cache  # brentq re-shoots the scan's bracket ends
    def outer_residual(a, steps):
        psi2, s2 = _shoot_annulus(p.n, p.q, p.beta, p.c, p.eps, r1, r2, steps, a)
        return s2 + _flux(psi2, p.beta, p.c, p.eps)

    base_inputs = {
        "n": p.n,
        "q": p.q,
        "beta": p.beta,
        "c": p.c,
        "eps": p.eps,
        "r1": r1,
        "r2": r2,
    }

    def vacuous(reason):
        return make_report(
            name="annulus_exclusion",
            lhs=math.inf,
            rhs=1e-4,
            tolerance=1e-12,
            inputs=dict(base_inputs, admissible=False, reason=reason),
            term_provenance={
                "lhs": "stationarity residual (no admissible profile: +inf)",
                "rhs": "required strict-positivity margin 1e-4",
            },
        )

    coarse = min(_COARSE_STEPS, M)
    hi = 10.0 * (r2 / (p.n * p.beta) + r2 * r2 / (2.0 * p.n) + p.c)
    grid_a = np.linspace(hi * 1e-6, hi, 48)
    # shoot the scan lazily: it ends at the first step from negative to
    # nonnegative
    val = outer_residual(grid_a[0], coarse)
    for a_lo, a_hi in zip(grid_a, grid_a[1:]):
        prev, val = val, outer_residual(a_hi, coarse)
        if prev < 0.0 <= val:
            break
    else:
        return vacuous("no sign change of the outer residual in the amplitude scan")
    a_coarse = _root(lambda a: outer_residual(a, coarse), a_lo, a_hi)
    a_root = _refine(outer_residual, a_coarse, a_lo, a_hi, M)
    psi2, s2, (grid, psi, dpsi) = _shoot_annulus(
        p.n, p.q, p.beta, p.c, p.eps, r1, r2, M, a_root, store=True
    )
    if np.min(psi) <= 0.0:
        return vacuous("profile leaves the positive cone")

    psi1, s1 = psi[0], dpsi[0]
    H1 = 0.5 * s1 * s1 + _pospow(psi1 + p.c, p.q) / p.q
    H2 = 0.5 * s2 * s2 + _pospow(psi2 + p.c, p.q) / p.q
    b1, b2 = (_boundary_density(v, p.c, p.eps) for v in (psi1, psi2))
    boundary = 0.5 * p.beta * (p.n - 1) * (b1 / r1 + b2 / r2)
    return make_report(
        name="annulus_exclusion",
        lhs=H1 - H2 + boundary,
        rhs=1e-4 * (H1 + H2 + boundary),
        tolerance=1e-12,
        inputs=dict(
            base_inputs,
            admissible=True,
            psi_inner=float(psi1),
            psi_outer=float(psi2),
            H_inner=float(H1),
            H_outer=float(H2),
        ),
        term_provenance={
            "lhs": "H(r1) - H(r2) + (beta/2)(n-1) sum of boundary terms / r_i",
            "rhs": "strict-positivity margin 1e-4 (H(r1) + H(r2) + both boundary terms), "
            "scaled with the profile's size",
        },
    )


def penalized_ball_argmin(
    params: RadialParams,
    m: float,
    k: float,
    n_grid: int = 24,
    M: int = DEFAULT_STEPS,
) -> tuple[float, InequalityReport]:
    """Minimize rho -> E(B_rho) + 2 k |B_rho| over a grid in (0, r_m],
    r_m = (m / omega_n)^(1/n). Verifies on the grid: (a) E(B_rho) strictly
    decreasing, (b) dE/drho <= n E / rho + 1e-6 by central differences,
    (c) argmin at r_m whenever k <= k0 = -E(B_{r_m}) / (2 |B_{r_m}|)."""
    p = params
    if p.c != 0.0 or p.eps != 0.0:
        raise ValueError("the penalized ball problem is posed at c = 0, eps = 0")
    if not m > 0.0 or k < 0.0 or n_grid < 8:
        raise ValueError("need m > 0, k >= 0, n_grid >= 8")
    omega = unit_ball_volume(p.n)
    r_m = (m / omega) ** (1.0 / p.n)
    rho = np.linspace(r_m / 8.0, r_m, n_grid)
    E = np.array([ball_energy(solve_ball(p, float(rr), M=M)).E for rr in rho])
    vol = omega * rho**p.n
    penalized = E + 2.0 * k * vol
    i_star = int(np.argmin(penalized))
    rho_star = float(rho[i_star])

    mono_margin = float(np.min(E[:-1] - E[1:]))  # strict decrease of E itself
    d = rho[1] - rho[0]
    dE = (E[2:] - E[:-2]) / (2.0 * d)
    bound_margin = float(np.min(p.n * E[1:-1] / rho[1:-1] + 1e-6 - dE))
    k0 = -E[-1] / (2.0 * vol[-1])
    above = k > k0
    argmin_margin = 0.0 if (above or i_star == n_grid - 1) else -1.0
    deficit = min(mono_margin, bound_margin, argmin_margin)
    report = make_report(
        name="penalized_ball_argmin",
        lhs=deficit,
        rhs=0.0,
        tolerance=1e-12,
        inputs={
            "n": p.n,
            "q": p.q,
            "beta": p.beta,
            "m": m,
            "k": k,
            "k_threshold": float(k0),
            "k_above_threshold": bool(above),
            "rho_star": rho_star,
            "r_m": float(r_m),
            "grid_points": n_grid,
            "E_at_r_m": float(E[-1]),
        },
        term_provenance={
            "lhs": "min(margin of strict E decrease, margin of dE/drho <= nE/rho + 1e-6, "
            "argmin-at-r_m indicator when k <= threshold)",
            "rhs": "zero",
        },
    )
    return rho_star, report


# ---------------------------------------------------------------------------
# serialization


def profile_to_csv(profile: RadialProfile, path) -> None:
    """Columns r, psi, dpsi, H with 12 significant digits, LF endings."""
    H = profile.hamiltonian()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,psi,dpsi,H\n")
        for r, ps, dp, hh in zip(profile.grid, profile.psi, profile.dpsi, H):
            fh.write(f"{r:.12g},{ps:.12g},{dp:.12g},{hh:.12g}\n")
