"""P1 finite elements on structured polar meshes of star-shaped planar domains.

Discretizes the energy
    E(u) = 1/2 u'Ku + (beta/2) u'Bu - (1/q) sum_i w_i u_i^q
with K the P1 stiffness form, B the boundary mass assembled edgewise with
exact linear-trace quadrature, and w the lumped bulk weights (row sums of the
consistent mass). Minimization over {u >= c} is a majorize-minimize loop:
for q in [1, 2) the bulk term is concave, so its linearization at the
current u gives a convex quadratic majorant of E, and each step minimizes
that majorant exactly under the obstacle (primal-dual active-set solve). At
c = 0 and q > 1 each step then moves to the least energy along its ray t u,
in closed form, which is the normalized nonlinear inverse iteration
(Biezuner, Ercole & Martins 2009; Hynd & Lindgren 2016). Neither move can
raise the energy; a rise beyond rounding raises SolverError.

With the obstacle level c > 0 the reported energy is the shifted functional
    E_c(u) = E(u) - (beta/2) c^2 Per + (c^q/q) |domain|
evaluated with the mesh's own boundary length and area, which equals the
v = u - c form 1/2 v'Kv + (beta/2)(v'Bv + 2c 1'Bv) - sum_i w_i Theta(v_i)
identically; the report's breakdown lists the v-form terms so they sum to E.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverError
from .geometry import StarDomain, boundary_radius
from .radial import RadialParams, lambda_from_energy, theta_potential

MAX_OUTER = 500
MAX_ACTIVE_SET = 60
LAMBDA2_TOL = 1e-10
LAMBDA2_MAX_ITER = 5000
# relative rounding band of the multipliers A u - r within which an
# active-set node keeps its status (see _ObstacleSolver.solve)
ACTIVE_SET_TIE = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with an oriented boundary loop.

    Triangles must be positively oriented, each with an area above 1e-14 x
    the total; boundary_edges must trace a single closed counterclockwise
    loop, and each must belong to exactly one triangle.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    n_r: int
    n_theta: int

    def __post_init__(self):
        # (beta, K, B, w, A, LU of A) for the last beta solved on this mesh
        # (see _robin_operator): not a dataclass field, so == and repr ignore
        # it, and dropped on pickling
        object.__setattr__(self, "_robin", None)
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        b = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        for arr in (v, t, b):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary_edges", b)
        if v.ndim != 2 or v.shape[1] != 2 or not np.all(np.isfinite(v)):
            raise ValueError("vertices must be a finite (N, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be an (T, 3) index array")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise ValueError("triangle indices out of range")
        # a sliver of area <= 1e-14 x the total is degenerate too: rounding
        # decides the sign of its area
        areas = self.triangle_areas()
        worst = int(np.argmin(areas))
        if areas[worst] <= 1e-14 * abs(float(np.sum(areas))):
            raise ValueError(f"triangle {worst} is degenerate (area {areas[worst]:.3e})")
        # boundary loop: consecutive, closed, no repeated start vertex
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 3:
            raise ValueError("boundary_edges must be an (E, 2) index array, E >= 3")
        if not np.array_equal(b[:, 1], np.roll(b[:, 0], -1)):
            raise ValueError("boundary_edges must chain into a closed loop")
        if np.unique(b[:, 0]).size != b.shape[0]:
            raise ValueError("boundary loop must visit each vertex once")
        # each boundary edge lies in exactly one triangle; an undirected edge
        # (lo, hi) is keyed as lo * N + hi
        n_v = v.shape[0]
        tri_edges = np.sort(t[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        uniq, counts = np.unique(tri_edges[:, 0] * n_v + tri_edges[:, 1], return_counts=True)
        rim = uniq[counts == 1]
        b_sorted = np.sort(b, axis=1)
        off_rim = ~np.isin(b_sorted[:, 0] * n_v + b_sorted[:, 1], rim)
        if off_rim.any():
            e = b_sorted[np.argmax(off_rim)]
            raise ValueError(
                f"boundary edge {tuple(int(i) for i in e)} is not a rim edge of the triangulation"
            )
        if rim.size != b.shape[0]:
            raise ValueError("triangulation rim does not match the boundary loop")

    def __getstate__(self):
        # a SuperLU object cannot be pickled; the copy refactorises on demand
        return {**self.__dict__, "_robin": None}

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self) -> float:
        return float(np.sum(self.triangle_areas()))

    def boundary_length(self) -> float:
        seg = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))


@dataclass(frozen=True)
class ScalarField:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_vertices,):
            raise ValueError("one value per mesh vertex required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")


@dataclass(frozen=True)
class EnergyReport:
    dirichlet: float
    boundary: float
    bulk: float
    inf_u: float
    sup_u: float
    iterations: int
    converged: bool
    lambda_q: float | None = None
    # LU factorisations this call built: free-node blocks, plus 1 for
    # K + beta B unless the mesh already held it for this beta
    factorizations: int = 0

    def __post_init__(self):
        if self.inf_u > self.sup_u:
            raise ValueError("inf_u must not exceed sup_u")

    @property
    def E(self) -> float:
        return self.dirichlet + self.boundary + self.bulk


# nested dissection stops at blocks of at most this many vertices
ND_LEAF = 64


def _nested_dissection(n_r: int, n_theta: int) -> np.ndarray:
    """Ring-major index of each vertex, in nested-dissection order.

    Ring-major numbers the center 0 and vertex (ring i, angle j) as
    1 + (i - 1) n_theta + j. The rays j = 0 and j = n_theta // 2 cut the
    (ring, angle) cylinder into two rectangles. A rectangle is split at its
    middle ring if it has at least as many rings as angles, else at its
    middle ray, until a block has at most ND_LEAF vertices; every edge of
    the mesh joins neighbouring rings or rays, so each such line separates
    the two halves. Each separator is numbered after both halves, the top
    rays after both rectangles and the center last (George 1973)."""
    # (first ring, rings, first angle, angles) of each block, in numbering order
    blocks = []

    def dissect(i0, rings, j0, rays):
        if rings * rays <= ND_LEAF:
            blocks.append((i0, rings, j0, rays))
        elif rings >= rays:
            m = rings // 2
            dissect(i0, m, j0, rays)
            dissect(i0 + m + 1, rings - m - 1, j0, rays)
            blocks.append((i0 + m, 1, j0, rays))
        else:
            m = rays // 2
            dissect(i0, rings, j0, m)
            dissect(i0, rings, j0 + m + 1, rays - m - 1)
            blocks.append((i0, rings, j0 + m, 1))

    h = n_theta // 2
    dissect(1, n_r, 1, h - 1)
    dissect(1, n_r, h + 1, n_theta - h - 1)
    blocks += [(1, n_r, 0, 1), (1, n_r, h, 1)]
    # each block ring-major, all blocks in one pass: one numpy array per
    # block fragmented the heap, and solves on 32 to 256 rings then left
    # about 40 MB more resident
    i0, rings, j0, rays = np.array(blocks).T
    size = rings * rays
    b = np.repeat(np.arange(size.size), size)
    k = np.arange(b.size) - (np.cumsum(size) - size)[b]
    ring, angle = i0[b] + k // rays[b], j0[b] + k % rays[b]
    return np.append(1 + (ring - 1) * n_theta + angle, 0)


def mesh_star(d: StarDomain, n_r: int, n_theta: int) -> Mesh:
    """Structured polar mesh: rings rho_i = i/n_r mapped through the domain's
    boundary radius, a fan at the center, quads split along the shorter
    diagonal (ties split uniformly so symmetric domains mesh symmetrically).

    Vertices are numbered in the nested-dissection order of
    _nested_dissection, so the center vertex is the last one; triangles and
    the boundary loop keep their ring-major sequence."""
    n_r, n_theta = int(n_r), int(n_theta)
    if n_r < 4:
        raise ValueError("n_r must be >= 4")
    if n_theta < 16:
        raise ValueError("n_theta must be >= 16")
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    rho_bdy = boundary_radius(d, theta)
    ray = np.column_stack([np.cos(theta), np.sin(theta)]) * rho_bdy[:, None]

    order = _nested_dissection(n_r, n_theta)
    rank = np.empty_like(order)  # vertex number of each ring-major index
    rank[order] = np.arange(order.size)
    verts = np.empty((order.size, 2))
    verts[rank[0]] = d.center
    for i in range(1, n_r + 1):
        verts[rank[1 + (i - 1) * n_theta : 1 + i * n_theta]] = d.center + (i / n_r) * ray

    def idx(i, j):
        return rank[1 + (i - 1) * n_theta + (j % n_theta)]

    j = np.arange(n_theta)
    tris = [np.column_stack([np.full(n_theta, rank[0]), idx(1, j), idx(1, j + 1)])]
    for i in range(1, n_r):
        # counterclockwise quad: inner j, outer j, outer j+1, inner j+1
        a, b = idx(i, j), idx(i + 1, j)
        cc, dd = idx(i + 1, j + 1), idx(i, j + 1)
        d1 = np.sum((verts[a] - verts[cc]) ** 2, axis=1)
        d2 = np.sum((verts[b] - verts[dd]) ** 2, axis=1)
        # relative tie tolerance keeps the split pattern rotation-invariant
        use1 = d1 <= d2 * (1.0 + 1e-12)
        t1 = np.column_stack([a, b, cc])
        t2 = np.column_stack([a, cc, dd])
        s1 = np.column_stack([a, b, dd])
        s2 = np.column_stack([b, cc, dd])
        tris.append(np.where(use1[:, None], t1, s1))
        tris.append(np.where(use1[:, None], t2, s2))
    triangles = np.vstack(tris)
    boundary = np.column_stack([idx(n_r, j), idx(n_r, j + 1)])
    return Mesh(verts, triangles, boundary, n_r=n_r, n_theta=n_theta)


def assemble(mesh: Mesh):
    """(stiffness, boundary_mass, bulk_quadrature): P1 stiffness, edgewise
    boundary mass, lumped bulk weights."""
    pts = mesh.vertices
    tri = mesh.triangles
    N = mesh.n_vertices
    p = pts[tri]
    areas = mesh.triangle_areas()
    # edge vector opposite each local vertex
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    K = _from_local(mesh, lambda i, j: np.sum(e[:, i] * e[:, j], axis=1) / (4.0 * areas))

    be = mesh.boundary_edges
    seg = pts[be[:, 1]] - pts[be[:, 0]]
    L = np.hypot(seg[:, 0], seg[:, 1])
    rows = np.concatenate([be[:, 0], be[:, 1], be[:, 0], be[:, 1]])
    cols = np.concatenate([be[:, 0], be[:, 1], be[:, 1], be[:, 0]])
    vals = np.concatenate([L / 3.0, L / 3.0, L / 6.0, L / 6.0])
    B = sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()

    w = np.zeros(N)
    np.add.at(w, tri.ravel(), np.repeat(areas / 3.0, 3))
    return K, B, w


def _from_local(mesh: Mesh, local) -> sp.csr_matrix:
    """Global matrix summed from per-triangle 3x3 blocks; local(i, j) gives
    entry (i, j) of every triangle's block as one array."""
    tri = mesh.triangles
    N = mesh.n_vertices
    pairs = [(i, j) for i in range(3) for j in range(3)]
    rows = np.concatenate([tri[:, i] for i, _ in pairs])
    cols = np.concatenate([tri[:, j] for _, j in pairs])
    vals = np.concatenate([local(i, j) for i, j in pairs])
    return sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()


def _consistent_mass(mesh: Mesh) -> sp.csr_matrix:
    areas = mesh.triangle_areas()
    return _from_local(mesh, lambda i, j: areas * ((2.0 if i == j else 1.0) / 12.0))


def _factor(A):
    """LU of a symmetric positive definite CSC matrix, in the order of its
    rows and columns, with diagonal pivots.

    Every matrix factorised here is K + beta B with beta > 0 or one of its
    principal blocks, so diagonal pivots are stable. mesh_star numbers the
    vertices in nested-dissection order, and a free-node block with its
    indices ascending keeps that order: at 128x256 the factors hold 1.03x
    the nonzeros of SuperLU's minimum-degree ordering (MMD on A' + A), and
    the ring-major order would hold 6.2x."""
    return splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _matrices(mesh: Mesh):
    """(K, B, w) of assemble, read from the mesh's held operator when it has
    one; assembling afresh leaves the mesh as it was."""
    return mesh._robin[1:4] if mesh._robin is not None else assemble(mesh)


def _robin_operator(mesh: Mesh, beta: float):
    """(K, B, w, A, LU of A, factorisations built) with A = K + beta B in CSC.

    The mesh keeps these for the last beta solved on it, so lambda_2 and
    minimize_energy at one beta share one LU. A new beta releases the old LU
    before the next is built, so a mesh holds at most one."""
    memo = mesh._robin
    if memo is not None and memo[0] == beta:
        return (*memo[1:], 0)
    K, B, w = _matrices(mesh)
    memo = None  # no reference to the old LU may outlive this point
    object.__setattr__(mesh, "_robin", None)
    A = (K + beta * B).tocsc()
    object.__setattr__(mesh, "_robin", (beta, K, B, w, A, _factor(A)))
    return (*mesh._robin[1:], 1)


class _ObstacleSolver:
    """Exact minimizer of 1/2 u'Au - r'u over {u >= c} by a primal-dual
    active set iteration, for a sequence of right-hand sides r.

    Takes A (CSC) with its factorisation, which serves unconstrained passes,
    and holds at most one free-node factorisation: the one for the last
    active set, with that set's coupling A[free, active] @ 1. A solve starts
    from the previous solve's active set and factorises only when the mask
    changes; it starts cold (unconstrained pass, then u < c) when that set
    was empty. A node whose multiplier and slack tie within the rounding of
    A u - r keeps its status, so rim nodes tied at the minimum cannot flip
    on every pass. factorizations counts the free-node factorisations."""

    def __init__(self, A, lu_full, c, scale):
        self.A = A
        self.c = c
        self.scale = scale
        self.lu_full = lu_full
        self.factorizations = 0
        self.held = None  # (active, free indices, coupling, free-block LU)

    @functools.cached_property
    def abs_A(self):
        """|A| entrywise, which bounds the rounding of A u; built only once
        the obstacle binds."""
        return abs(self.A)

    def _solve_pinned(self, active, r):
        """Solve with the active nodes pinned at c, refactoring the free-node
        block only when the active set differs from the held one."""
        if self.held is None or not np.array_equal(active, self.held[0]):
            self.held = None  # release the old factorisation first: at most one is alive
            idx_f = np.nonzero(~active)[0]
            rows = self.A[idx_f]
            coupling = np.asarray(rows[:, np.nonzero(active)[0]].sum(axis=1)).ravel()
            self.held = (active, idx_f, coupling, _factor(rows[:, idx_f]))
            self.factorizations += 1
        _, idx_f, coupling, lu = self.held
        u = np.full(r.size, self.c)
        u[idx_f] = lu.solve(r[idx_f] - self.c * coupling)
        return u

    def solve(self, r):
        c = self.c
        if self.held is None:
            u = self.lu_full.solve(r)
            if np.min(u) >= c - 1e-14 * self.scale:
                return np.maximum(u, c)
            active = u < c
        else:
            active = self.held[0]
        for _ in range(MAX_ACTIVE_SET):
            if not active.any():
                u = self.lu_full.solve(r)
            else:
                u = self._solve_pinned(active, r)
            mu = self.A @ u - r
            tie = np.abs(mu - (u - c)) <= ACTIVE_SET_TIE * (self.abs_A @ np.abs(u) + np.abs(r))
            new_active = np.where(tie, active, mu > (u - c))
            if np.array_equal(new_active, active):
                break
            active = new_active
        else:
            raise SolverError("active-set iteration for the obstacle failed to settle")
        if not active.any():
            self.held = None
        return np.maximum(u, c)


def _energy_terms(K, B, w, params, u):
    """v-form shifted energy terms for the field u >= c."""
    p = params
    v = u - p.c
    Bv = B @ v
    dirichlet = 0.5 * float(v @ (K @ v))
    boundary = 0.5 * p.beta * (float(v @ Bv) + 2.0 * p.c * float(np.sum(Bv)))
    bulk = -float(w @ theta_potential(v, p.q, p.c))
    return dirichlet, boundary, bulk


def minimize_energy(mesh: Mesh, params: RadialParams) -> tuple[ScalarField, EnergyReport]:
    """Minimize the discrete shifted energy over nodal fields u >= c.

    Majorize-minimize: each step solves the Robin system linearized at u,
    A u_next = w u^(q-1), under the obstacle. That minimizes a convex
    majorant of the energy which touches it at u, so the step cannot raise
    the energy. At c = 0 and 1 < q < 2 the energy along the ray t u_next,
    t^2 (dirichlet + boundary) + t^q bulk, is least at
    t^(2-q) = sum w u_next^q / u_next'A u_next, and u_next is rescaled to it:
    that removes the fixed-point map's slow scaling mode (rate q - 1). At
    q = 1 the right-hand side is w and one step is exact; obstacle levels
    c > 0 take the plain step.

    The energy's terms cancel (at a c = 0 minimizer their absolute sum is
    (q + 2)/(2 - q) times |E|), so the rise and stopping tests compare with
    S = |dirichlet| + |boundary| + |bulk|: a rise beyond 1e-12 S raises
    SolverError, and the loop stops when the energy decrease is at most
    1e-12 S and the max nodal update at most 1e-10 sup u, or reports
    converged=False after MAX_OUTER steps. Both tests scale with the field,
    so a solve with sup u far below 1 is held to the same relative
    precision. The LU of K + beta B is the one
    the mesh holds for this beta, built here if it holds none.
    """
    p = params
    if p.eps != 0.0:
        raise ValueError("the FEM path has no eps-regularized boundary term")
    if p.n != 2:
        raise ValueError("meshes are planar; params.n must be 2")
    if not p.q < 2.0:
        raise ValueError("q must lie in [1, 2); use lambda_2 for the linear problem")
    K, B, w, A, lu, built = _robin_operator(mesh, p.beta)
    scale = max(1.0, float(np.max(np.abs(w))) / max(p.beta, 1e-12))
    obstacle = _ObstacleSolver(A, lu, p.c, scale)

    rescale = p.c == 0.0 and p.q > 1.0  # to the least energy along the ray
    u = np.maximum(lu.solve(w), p.c)
    E = sum(_energy_terms(K, B, w, p, u))
    converged = False
    iterations = 0
    for k in range(1, MAX_OUTER + 1):
        iterations = k
        u_next = obstacle.solve(w * u ** (p.q - 1.0))
        dirichlet, boundary, bulk = _energy_terms(K, B, w, p, u_next)
        if rescale:
            t = (-p.q * bulk / (2.0 * (dirichlet + boundary))) ** (1.0 / (2.0 - p.q))
            u_next *= t
            dirichlet, boundary, bulk = t * t * dirichlet, t * t * boundary, t**p.q * bulk
        E_next = dirichlet + boundary + bulk
        # the rounding floor of a sum of terms that cancel
        size = abs(dirichlet) + abs(boundary) + abs(bulk)
        if E_next > E + 1e-12 * size:
            raise SolverError(
                f"energy rose at outer iteration {k}: relative rise {(E_next - E) / size:.3e}"
            )
        dE = E - E_next
        du = float(np.max(np.abs(u_next - u)))
        u, E = u_next, E_next
        if dE <= 1e-12 * size and du <= 1e-10 * float(np.max(u)):
            converged = True
            break

    if p.c == 0.0 and np.min(u) <= 0.0:
        raise SolverError("minimizer has a nonpositive nodal value at c = 0")
    dirichlet, boundary, bulk = _energy_terms(K, B, w, p, u)
    report = EnergyReport(
        dirichlet=dirichlet,
        boundary=boundary,
        bulk=bulk,
        inf_u=float(np.min(u)),
        sup_u=float(np.max(u)),
        iterations=iterations,
        converged=converged,
        factorizations=built + obstacle.factorizations,
    )
    if p.c == 0.0 and p.q < 2.0 and report.E < 0.0:
        report = replace(report, lambda_q=lambda_from_energy(report.E, p.q))
    return ScalarField(mesh, u), report


def lambda_q(mesh: Mesh, q: float, beta: float) -> float:
    """Scale-invariant level from the minimum energy at c = 0."""
    if not q < 2.0:
        raise ValueError("q must lie in [1, 2); use lambda_2 for q = 2")
    _, rep = minimize_energy(mesh, RadialParams(n=2, q=q, beta=beta))
    if not rep.converged:
        raise SolverError("energy minimization hit the iteration cap")
    if rep.E >= 0.0:
        raise SolverError("nonnegative minimum energy; no eigenvalue to report")
    return lambda_from_energy(rep.E, q)


def lambda_2(mesh: Mesh, beta: float, return_field: bool = False):
    """Smallest eigenvalue of (stiffness + beta boundary_mass) u = lam M u
    with the consistent mass M, by inverse power iteration on the LU the
    mesh holds for this beta (shared with minimize_energy), to a relative
    change of LAMBDA2_TOL within LAMBDA2_MAX_ITER steps. With
    return_field=True also returns the sign-normalized eigenfunction."""
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    # the mass first: built after the LU, its assembly temporaries would
    # add to the LU's memory peak
    M = _consistent_mass(mesh)
    _, _, _, A, lu, _ = _robin_operator(mesh, beta)
    absA = abs(A)
    x = np.ones(mesh.n_vertices)
    x /= math.sqrt(float(x @ (M @ x)))
    lam = float(x @ (A @ x))
    for _ in range(LAMBDA2_MAX_ITER):
        y = lu.solve(M @ x)
        y /= math.sqrt(float(y @ (M @ y)))
        lam_new = float(y @ (A @ y))
        x = y
        # rounding floor of the quadratic form itself; tiny beta pushes the
        # eigenvalue below what the Rayleigh quotient can resolve relatively
        noise = 1e-14 * float(np.abs(x) @ (absA @ np.abs(x)))
        if abs(lam_new - lam) <= LAMBDA2_TOL * abs(lam_new) + noise:
            if return_field:
                if x.sum() < 0.0:
                    x = -x
                return lam_new, ScalarField(mesh, x)
            return lam_new
        lam = lam_new
    raise SolverError("inverse iteration failed to settle within the cap")
