import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu, spsolve

from robinlab import fem, geometry as geo
from robinlab.errors import SolverError
from robinlab.fem import (
    EnergyReport,
    Mesh,
    ScalarField,
    assemble,
    lambda_2,
    lambda_q,
    mesh_star,
    minimize_energy,
)
from robinlab.radial import RadialParams, ball_energy, eigenvalue_q2_ball, solve_ball


@pytest.fixture(scope="module")
def disk_mesh():
    return mesh_star(geo.disk(1.0), 64, 128)


@pytest.fixture(scope="module")
def disk_q1(disk_mesh):
    return minimize_energy(disk_mesh, RadialParams(n=2, q=1.0, beta=1.0))


def test_mesh_counts():
    mesh = mesh_star(geo.disk(1.0), 32, 64)
    assert mesh.n_vertices == 1 + 32 * 64
    assert mesh.triangles.shape[0] == 32 * 64 * 2 - 64
    assert mesh.boundary_edges.shape[0] == 64


def _ring_major_vertices(d, n_r, n_theta):
    """The center, then ring i = 1..n_r at angles 2 pi j / n_theta."""
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    ray = np.column_stack([np.cos(theta), np.sin(theta)]) * geo.boundary_radius(d, theta)[:, None]
    rings = [d.center + (i / n_r) * ray for i in range(1, n_r + 1)]
    return np.vstack([d.center[None, :], *rings])


def _sorted_rows(v):
    return v[np.lexsort((v[:, 1], v[:, 0]))]


@pytest.mark.parametrize("n_r,n_theta", [(8, 32), (12, 33), (48, 96)])
def test_mesh_star_permutes_the_ring_major_vertices(n_r, n_theta):
    d = geo.ellipse(1.25)
    mesh = mesh_star(d, n_r, n_theta)
    ref = _ring_major_vertices(d, n_r, n_theta)
    assert np.array_equal(_sorted_rows(mesh.vertices), _sorted_rows(ref))
    assert np.array_equal(mesh.vertices[-1], d.center)
    # the boundary loop still runs over the outer ring from angle 0
    assert np.array_equal(mesh.vertices[mesh.boundary_edges[:, 0]], ref[-n_theta:])


@pytest.mark.parametrize("n_theta", [32, 33])
def test_top_separator_splits_the_mesh(n_theta):
    # the rays j = 0 and j = n_theta // 2 with the center separate two
    # halves: each half is numbered in one block before the other, the
    # separator comes last, and no triangle joins the halves
    n_r = 10
    mesh = mesh_star(geo.disk(1.0), n_r, n_theta)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    ray = np.rint(np.mod(np.arctan2(y, x), 2.0 * math.pi) * n_theta / (2.0 * math.pi))
    ray = ray.astype(int) % n_theta
    center = np.hypot(x, y) < 1e-12
    sep = center | (ray == 0) | (ray == n_theta // 2)
    upper = ~sep & (ray < n_theta // 2)
    lower = ~sep & (ray > n_theta // 2)
    n_up, n_sep = np.count_nonzero(upper), np.count_nonzero(sep)
    assert n_sep == 2 * n_r + 1
    assert np.array_equal(np.nonzero(upper)[0], np.arange(n_up))
    assert np.array_equal(np.nonzero(sep)[0], np.arange(mesh.n_vertices - n_sep, mesh.n_vertices))
    tri = mesh.triangles
    assert not np.any(upper[tri].any(axis=1) & lower[tri].any(axis=1))


def test_nested_dissection_fills_about_as_little_as_minimum_degree():
    # ring-major natural order would fill about 6x as much
    mesh = mesh_star(geo.ellipse(1.25), 128, 256)
    K, B, _ = assemble(mesh)
    A = (K + B).tocsc()
    lu = fem._factor(A)
    mmd = splu(A, permc_spec="MMD_AT_PLUS_A")
    assert lu.L.nnz + lu.U.nnz < 1.1 * (mmd.L.nnz + mmd.U.nnz)
    # the factorisation keeps the mesh order
    assert np.array_equal(lu.perm_c, np.arange(mesh.n_vertices))
    assert np.array_equal(lu.perm_r, np.arange(mesh.n_vertices))


# values with the ring-major numbering and MMD_AT_PLUS_A ordering:
# lambda_2, then (E at c = 0, c, E_c) for q = 1 and q = 1.5, beta = 1
RING_MAJOR_VALUES = {
    ("disk", 24): (
        1.581221738871229,
        (-0.976347413747334, 0.598176, -0.1948876820357565),
        (-0.12913912357551915, 0.374152, -0.08375167614328517),
    ),
    ("ellipse", 64): (
        1.6434675516331017,
        (-0.940246915499427, 0.530596, -0.17839850378930652),
        (-0.11498555238326424, 0.315412, -0.06520776097543357),
    ),
    ("perturbed", 128): (
        1.583443764875105,
        (-0.9786372016380924, 0.58308, -0.19483553519790536),
        (-0.1290380585647768, 0.363336, -0.08142219133566156),
    ),
}

DOMAINS = {
    "disk": geo.disk(1.0),
    "ellipse": geo.ellipse(1.25),
    "perturbed": geo.perturbed(1.0, 0.05, 3),
}


@pytest.mark.parametrize("family,n_r", sorted(RING_MAJOR_VALUES))
def test_solves_match_the_ring_major_numbering(family, n_r):
    # the numbering and the pivot order move only the rounding; each c is
    # about 1.2 inf u, so the obstacle binds
    lam, *levels = RING_MAJOR_VALUES[(family, n_r)]
    mesh = mesh_star(DOMAINS[family], n_r, 2 * n_r)
    assert abs(lambda_2(mesh, 1.0) - lam) <= 1e-12 * lam
    for q, (E, c, E_c) in zip((1.0, 1.5), levels):
        _, rep = minimize_energy(mesh, RadialParams(n=2, q=q, beta=1.0))
        assert abs(rep.E - E) <= 1e-12 * abs(E)
        _, rep = minimize_energy(mesh, RadialParams(n=2, q=q, beta=1.0, c=c))
        assert rep.converged and rep.factorizations >= 2
        assert abs(rep.E - E_c) <= 1e-12 * abs(E_c)


def test_mesh_area_and_boundary_agree_with_polygon():
    d = geo.disk(1.0)
    mesh = mesh_star(d, 32, 64)
    # the mesh boundary resamples the domain at n_theta angles, so its area
    # is the matching-resolution polygon area, O(n_theta^-2) off the domain
    ref = geo.area(geo.disk(1.0, K=64))
    assert abs(mesh.area() - ref) / ref < 1e-3
    assert abs(mesh.area() - math.pi) / math.pi < 2e-3
    bl1 = mesh_star(d, 32, 64).boundary_length()
    bl2 = mesh_star(d, 64, 128).boundary_length()
    assert abs(bl2 - bl1) / bl1 < 1e-3
    assert abs(bl2 - geo.perimeter(d)) / geo.perimeter(d) < 1e-3


def test_mesh_star_validation():
    d = geo.disk(1.0)
    with pytest.raises(ValueError):
        mesh_star(d, 3, 64)
    with pytest.raises(ValueError):
        mesh_star(d, 8, 8)


def test_mesh_invariants_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    good = dict(n_r=4, n_theta=16)
    with pytest.raises(ValueError, match="area"):
        Mesh(verts, np.array([[0, 2, 1]]), np.array([[0, 1], [1, 2], [2, 0]]), **good)
    with pytest.raises(ValueError, match="loop"):
        Mesh(verts, np.array([[0, 1, 2]]), np.array([[0, 1], [2, 0], [1, 2]]), **good)
    ok = Mesh(verts, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]), **good)
    assert abs(ok.area() - 0.5) < 1e-15


def test_mesh_rejects_a_sliver_triangle():
    # a fan of three triangles around vertex 2 of the ccw loop 0-1-3; with
    # vertex 2 at height h above edge 0-1, triangle 0-1-2 has area h/2 of a
    # total 1/2, and any h/2 <= 1e-14 x 1/2 is degenerate although positive
    def fan(h):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h], [0.5, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3], [2, 1, 3]])
        return Mesh(verts, tris, np.array([[0, 1], [1, 3], [3, 0]]), n_r=4, n_theta=16)

    with pytest.raises(ValueError, match=r"triangle 0 is degenerate \(area 1\.000e-15\)"):
        fan(2e-15)
    assert fan(1e-3).triangle_areas()[0] > 0.0


def test_mesh_rim_mismatch_rejected():
    # unit square split along 0-2: rim 0-1, 1-2, 2-3, 3-0, interior edge 0-2
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    good = dict(n_r=4, n_theta=16)
    # a loop through the interior edge 2-0: that boundary edge is not a rim edge
    with pytest.raises(ValueError, match=r"boundary edge \(0, 2\) is not a rim edge"):
        Mesh(verts, tris, np.array([[0, 1], [1, 2], [2, 0]]), **good)
    # every loop edge is a rim edge, but the rim has a second component the
    # loop does not visit
    verts2 = np.vstack([verts, verts + 2.0])
    tris2 = np.vstack([tris, tris + 4])
    with pytest.raises(ValueError, match="rim does not match the boundary loop"):
        Mesh(verts2, tris2, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), **good)
    ok = Mesh(verts, tris, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), **good)
    assert abs(ok.area() - 1.0) < 1e-15


def test_obstacle_factorizations_counted():
    # q = 1.5, c = 0.3 on ellipse(1.3): 20 outer iterations over a handful of
    # active sets; each solve starts from the last set and refactors only
    # when the set changes
    mesh = mesh_star(geo.ellipse(1.3), 48, 96)
    _, rep = minimize_energy(mesh, RadialParams(n=2, q=1.5, beta=1.0, c=0.3))
    assert rep.converged
    assert rep.E == -0.06031685118745819
    assert 2 <= rep.factorizations <= 12
    # the free solve reuses the LU of K + beta B that the mesh now holds
    _, free = minimize_energy(mesh, RadialParams(n=2, q=1.5, beta=1.0))
    assert free.factorizations == 0
    fresh = mesh_star(geo.ellipse(1.3), 48, 96)
    _, free = minimize_energy(fresh, RadialParams(n=2, q=1.5, beta=1.0))
    assert free.factorizations == 1


def test_mesh_shares_one_factorisation_per_beta():
    # lambda_2, then minimize_energy at q = 1 and q = 1.5, on one mesh: the
    # later calls reuse the mesh's LU and match solves on fresh meshes bitwise
    d = geo.ellipse(1.2)

    def fresh():
        return mesh_star(d, 24, 48)

    def solve(mesh, q):
        return minimize_energy(mesh, RadialParams(n=2, q=q, beta=1.5))

    shared = fresh()
    lam = lambda_2(shared, 1.5)
    assert lam == lambda_2(fresh(), 1.5)
    for q in (1.0, 1.5):
        field, rep = solve(shared, q)
        ref_field, ref = solve(fresh(), q)
        assert (rep.factorizations, ref.factorizations) == (0, 1)
        assert dataclasses.replace(rep, factorizations=1) == ref
        assert np.array_equal(field.values, ref_field.values)
    # another beta replaces the held LU; going back builds it again
    assert solve(shared, 1.0)[1].factorizations == 0
    assert minimize_energy(shared, RadialParams(n=2, q=1.0, beta=0.5))[1].factorizations == 1
    assert solve(shared, 1.0)[1].factorizations == 1


def test_solved_mesh_pickles():
    mesh = mesh_star(geo.disk(1.0), 16, 32)
    field, rep = minimize_energy(mesh, RadialParams(n=2, q=1.5, beta=1.0))
    copy = pickle.loads(pickle.dumps(field))
    assert np.array_equal(copy.values, field.values)
    assert np.array_equal(copy.mesh.vertices, mesh.vertices)
    # the copy carries no factorisation and builds its own
    _, again = minimize_energy(copy.mesh, RadialParams(n=2, q=1.5, beta=1.0))
    assert again.factorizations == 1
    assert again.E == rep.E


def test_fixed_point_converges_below_rounding_rises():
    # a rounding-size energy rise near convergence is not an error: the loop
    # runs on until the stopping test holds, and the field it returns is a
    # fixed point of the linearized obstacle solve to 1e-10
    mesh = mesh_star(geo.disk(1.0), 32, 64)
    p = RadialParams(n=2, q=1.5, beta=0.5)
    field, rep = minimize_energy(mesh, p)
    assert rep.converged
    K, B, w = assemble(mesh)
    u = field.values
    target = spsolve((K + p.beta * B).tocsc(), w * u ** (p.q - 1.0))
    assert np.max(np.abs(target - u)) <= 1e-10


@pytest.mark.parametrize(
    "d, n_r, q, beta",
    [
        (geo.disk(1.0), 12, 1.95, 0.05),  # sup u = 1.1e20
        (geo.disk(1.0), 48, 1.95, 0.5),
        (geo.stadium(0.8, 1.0), 48, 1.95, 0.5),
        # sup u = 5.7e-5: an absolute 1e-10 on du and a floor of 1 under the
        # energy scale stopped at 1.7e-7 sup u
        (geo.ellipse(1.3), 48, 1.9, 2.0),
    ],
    ids=["disk12-beta0.05", "disk48", "stadium48", "ellipse48-small-field"],
)
def test_near_q2_solve_converges_to_a_fixed_point(d, n_r, q, beta):
    # the energy's terms cancel to (2 - q)/(q + 2) of their size here, so the
    # tests scale with that size and with sup u; at 1e-12 |E| and an absolute
    # du the rounding floor raised "energy rose" on these inputs
    mesh = mesh_star(d, n_r, 2 * n_r)
    field, rep = minimize_energy(mesh, RadialParams(n=2, q=q, beta=beta))
    assert rep.converged
    K, B, w = assemble(mesh)
    u = field.values
    target = spsolve((K + beta * B).tocsc(), w * u ** (q - 1.0))
    assert np.max(np.abs(target - u)) <= 1e-10 * rep.sup_u


def test_energy_rise_raises_instead_of_faking_convergence(monkeypatch):
    # an outer step that returns a worse field (here a jagged one) breaks the
    # majorize-minimize contract: the solve raises rather than stalls, with
    # (c = 0) and without (c > 0) the rescaling along the ray
    solve = fem._ObstacleSolver.solve

    def worse(self, r):
        u = solve(self, r)
        return u + 0.1 * (np.arange(u.size) % 2)

    monkeypatch.setattr(fem._ObstacleSolver, "solve", worse)
    mesh = mesh_star(geo.disk(1.0), 12, 24)
    for c in (0.0, 0.1):
        with pytest.raises(SolverError, match="energy rose at outer iteration 1"):
            minimize_energy(mesh, RadialParams(n=2, q=1.5, beta=1.0, c=c))


# E from the plain fixed-point loop without the ray rescaling, which took
# 30-31 (q = 1.5) and 82-94 (q = 1.8) outer iterations here
ELLIPSE_13_ENERGIES = {
    (1.5, 0.5): -0.6374516791200151,
    (1.5, 2.0): -0.023980399413986053,
    (1.8, 0.5): -0.32011098758862255,
    (1.8, 2.0): -1.9050891539449554e-05,
}


@pytest.mark.parametrize("q, beta", sorted(ELLIPSE_13_ENERGIES))
def test_rescaled_fixed_point_takes_few_outer_iterations(q, beta):
    # at c = 0 each iterate is rescaled to the energy's minimum along its ray,
    # which removes the slow scaling mode (rate q - 1) of the plain loop. At
    # q = 1.8, beta = 2 (sup u = 0.0086) the nodal update now has to fall
    # below 1e-10 sup u, not an absolute 1e-10: two steps more at rate 0.2
    mesh = mesh_star(geo.ellipse(1.3), 48, 96)
    _, rep = minimize_energy(mesh, RadialParams(n=2, q=q, beta=beta))
    assert rep.converged
    assert rep.iterations <= (14 if (q, beta) == (1.8, 2.0) else 12)
    ref = ELLIPSE_13_ENERGIES[q, beta]
    assert abs(rep.E - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("c", [0.0, 0.1, 0.3, 0.6, 2.0])
def test_q1_is_exact_in_one_step(c):
    # at q = 1 the linearized system is the problem itself: the first step is
    # the minimizer and the second confirms it
    mesh = mesh_star(geo.ellipse(1.2), 24, 48)
    _, rep = minimize_energy(mesh, RadialParams(n=2, q=1.0, beta=1.0, c=c))
    assert rep.converged
    assert rep.iterations <= 2


def test_assembly_identities(disk_mesh):
    K, B, w = assemble(disk_mesh)
    one = np.ones(disk_mesh.n_vertices)
    assert abs(one @ (K @ one)) < 1e-12 * disk_mesh.n_vertices
    assert abs(one @ (B @ one) - disk_mesh.boundary_length()) < 1e-12
    assert abs(w.sum() - disk_mesh.area()) < 1e-12


def test_disk_q1_energy_matches_closed_form(disk_mesh, disk_q1, disk_closed_form):
    field, rep = disk_q1
    assert rep.converged
    assert abs(rep.E - disk_closed_form["E"]) / abs(disk_closed_form["E"]) < 1e-3
    assert abs(rep.inf_u - 0.5) < 1e-3
    assert abs(rep.lambda_q - disk_closed_form["lambda1"]) < 2e-3
    rr = np.hypot(disk_mesh.vertices[:, 0], disk_mesh.vertices[:, 1])
    exact = 0.5 + (1.0 - rr**2) / 4.0
    assert np.max(np.abs(field.values - exact)) < 1e-3
    # minimum sits on the boundary of this convex domain
    bidx = np.unique(disk_mesh.boundary_edges)
    assert field.values[bidx].min() == rep.inf_u


def test_ring_symmetry(disk_mesh, disk_q1):
    field, _ = disk_q1
    radius = np.hypot(disk_mesh.vertices[:, 0], disk_mesh.vertices[:, 1])
    for ring in (1, 17, 64):
        on_ring = np.abs(radius - ring / disk_mesh.n_r) < 1e-12
        assert np.count_nonzero(on_ring) == disk_mesh.n_theta
        vals = field.values[on_ring]
        assert vals.max() - vals.min() < 1e-9


def test_obstacle_energies(disk_mesh):
    # E_c on the unit disk at q=1, beta=1: -pi/8 at c=1/4, -pi/16 from the
    # contact threshold c=1/2 onward
    for c, target in ((0.25, -math.pi / 8), (0.5, -math.pi / 16), (1.0, -math.pi / 16)):
        field, rep = minimize_energy(disk_mesh, RadialParams(n=2, q=1.0, beta=1.0, c=c))
        assert rep.converged
        assert abs(rep.E - target) < 1e-3, c
        if c >= 0.5:
            bidx = np.unique(disk_mesh.boundary_edges)
            assert np.max(field.values[bidx] - c) < 1e-6


def test_shift_identity_on_c_grid(disk_mesh):
    # below the contact level the shifted energy equals the plain energy
    # plus its geometric corrections, with the mesh's own area and perimeter
    per, vol = disk_mesh.boundary_length(), disk_mesh.area()
    for q in (1.0, 1.5):
        p0 = RadialParams(n=2, q=q, beta=1.0)
        _, rep0 = minimize_energy(disk_mesh, p0)
        for c in np.linspace(0.0, rep0.inf_u, 5):
            _, rep = minimize_energy(disk_mesh, RadialParams(n=2, q=q, beta=1.0, c=float(c)))
            rhs = rep0.E - 0.5 * c**2 * per + (c**q / q) * vol
            assert abs(rep.E - rhs) < 1e-8, (q, c)
        c2 = 2.0 * rep0.inf_u
        _, rep2 = minimize_energy(disk_mesh, RadialParams(n=2, q=q, beta=1.0, c=c2))
        rhs2 = rep0.E - 0.5 * c2**2 * per + (c2**q / q) * vol
        assert rep2.E - rhs2 > 1e-4


@pytest.mark.parametrize("offset", [2e-14, 3.4e-14, 1e-13])
def test_obstacle_at_a_rounding_tie_settles(disk_mesh, offset):
    # the rim nodes tie at the minimum of the unconstrained solve; an
    # obstacle a few ulps above it made the active set flip them on every
    # pass until MAX_ACTIVE_SET gave up
    _, free = minimize_energy(disk_mesh, RadialParams(n=2, q=1.0, beta=1.0))
    _, ref = minimize_energy(disk_mesh, RadialParams(n=2, q=1.0, beta=1.0, c=free.inf_u))
    _, rep = minimize_energy(
        disk_mesh, RadialParams(n=2, q=1.0, beta=1.0, c=free.inf_u + offset)
    )
    assert rep.converged
    assert abs(rep.E - ref.E) <= 1e-10


def test_energy_decreases_under_refinement():
    d = geo.disk(1.0)
    p = RadialParams(n=2, q=1.0, beta=1.0)
    Es = [minimize_energy(mesh_star(d, nr, 2 * nr), p)[1].E for nr in (16, 32, 64)]
    assert Es[0] > Es[1] > Es[2]


def test_lambda_q_against_radial_oracle():
    d2 = geo.disk(2.0)
    lam_fem = lambda_q(mesh_star(d2, 48, 96), 1.0, 1.0)
    lam_rad = ball_energy(solve_ball(RadialParams(n=2, q=1.0, beta=1.0), 2.0)).lambda_q
    assert abs(lam_fem - lam_rad) / lam_rad < 2e-3
    lam15 = lambda_q(mesh_star(geo.disk(1.0), 48, 96), 1.5, 1.0)
    rad15 = ball_energy(solve_ball(RadialParams(n=2, q=1.5, beta=1.0), 1.0)).lambda_q
    assert abs(lam15 - rad15) / rad15 < 5e-3
    with pytest.raises(ValueError, match="lambda_2"):
        lambda_q(mesh_star(d2, 16, 32), 2.0, 1.0)


def test_lambda_2_matches_shooting_oracle():
    d = geo.disk(1.0)
    oracle = eigenvalue_q2_ball(2, 1.0, 1.0)
    e1 = abs(lambda_2(mesh_star(d, 32, 64), 1.0) - oracle)
    e2 = abs(lambda_2(mesh_star(d, 64, 128), 1.0) - oracle)
    assert e2 / oracle < 5e-3
    assert 3.5 <= e1 / e2 <= 4.5
    assert lambda_2(mesh_star(d, 16, 32), 1e-8) < 1e-6


def test_minimize_energy_validation(disk_mesh):
    with pytest.raises(ValueError):
        minimize_energy(disk_mesh, RadialParams(n=2, q=1.0, beta=1.0, c=0.1, eps=0.5))
    with pytest.raises(ValueError):
        minimize_energy(disk_mesh, RadialParams(n=3, q=1.0, beta=1.0))
    with pytest.raises(ValueError):
        minimize_energy(disk_mesh, RadialParams(n=2, q=2.0, beta=1.0))


def test_report_and_field_validation(disk_mesh):
    # E is the sum of its breakdown, not a stored copy of it
    rep = EnergyReport(dirichlet=1.0, boundary=0.5, bulk=-2.0,
                       inf_u=0.1, sup_u=0.2, iterations=1, converged=True)
    assert rep.E == -0.5
    with pytest.raises(TypeError):
        EnergyReport(E=-0.5, dirichlet=1.0, boundary=0.5, bulk=-2.0,
                     inf_u=0.1, sup_u=0.2, iterations=1, converged=True)
    with pytest.raises(ValueError):
        EnergyReport(dirichlet=1.0, boundary=1.0, bulk=-2.0,
                     inf_u=0.3, sup_u=0.2, iterations=1, converged=True)
    with pytest.raises(ValueError):
        ScalarField(disk_mesh, np.ones(3))
    bad = np.ones(disk_mesh.n_vertices)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        ScalarField(disk_mesh, bad)


@settings(max_examples=5)
@given(
    a=st.floats(min_value=1.05, max_value=1.4),
    q=st.sampled_from([1.0, 1.5]),
)
def test_minimizer_properties_on_ellipses(a, q):
    mesh = mesh_star(geo.ellipse(a, K=128), 12, 24)
    field, rep = minimize_energy(mesh, RadialParams(n=2, q=q, beta=1.0))
    assert rep.converged
    assert rep.E < 0.0
    assert rep.inf_u > 0.0
    c = 0.3 * rep.inf_u
    _, repc = minimize_energy(mesh, RadialParams(n=2, q=q, beta=1.0, c=c))
    rhs = rep.E - 0.5 * c**2 * mesh.boundary_length() + (c**q / q) * mesh.area()
    assert abs(repc.E - rhs) < 1e-8
