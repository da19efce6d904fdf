import math

import numpy as np
import pytest

from polyelast.mesh import generate_structured_mesh
from polyelast.space import (
    DofMap,
    MaterialParams,
    cell_reconstructions,
    face_average,
    face_displacement,
    face_gradient,
    interpolate,
    stabilization_local,
    stress,
)


def make_function(dofmap, vertex_field=None, bubbles=None):
    values = np.zeros(dofmap.vector_size)
    if vertex_field is not None:
        values[: dofmap.n_vertex_dofs] = np.asarray(
            vertex_field(dofmap.mesh.positions), dtype=float
        ).ravel()
    if bubbles is not None:
        values[dofmap.n_vertex_dofs:] = bubbles
    from polyelast.space import DiscreteFunction

    return DiscreteFunction(dofmap, values)


@pytest.fixture
def cube():
    return generate_structured_mesh("hex", 1)


@pytest.fixture
def cube_dofs(cube):
    return DofMap(cube)


def top_face(mesh):
    for f in range(mesh.n_faces):
        if np.allclose(mesh.face_centroid[f], [0.5, 0.5, 1.0]):
            return f
    raise AssertionError("top face not found")


def test_material_params():
    m = MaterialParams(mu=2.0, lam=5.0)
    assert m.mu1 == 2.0
    assert MaterialParams(mu=1.0, lam=0.0, mu1=0.5).mu1 == 0.5
    with pytest.raises(ValueError):
        MaterialParams(mu=0.0, lam=1.0)
    with pytest.raises(ValueError):
        MaterialParams(mu=1.0, lam=-1.0)


@pytest.mark.parametrize("values,message", [
    (dict(mu=np.nan, lam=1.0), "mu must be finite"),
    (dict(mu=np.inf, lam=1.0), "mu must be finite"),
    (dict(mu=1.0, lam=np.nan), "lambda must be finite"),
    (dict(mu=1.0, lam=np.inf), "lambda must be finite"),
    (dict(mu=1.0, lam=1.0, mu1=np.nan), "mu1 must be finite"),
    (dict(mu=1.0, lam=1.0, mu1=-np.inf), "mu1 must be finite"),
    (dict(mu=1.0, lam=1.0, mu1=-1.0), "mu1 must be positive"),
    (dict(mu=1.0, lam=1.0, mu1=0.0), "mu1 must be positive"),
])
def test_material_params_rejects_non_finite_and_non_positive_mu1(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MaterialParams(**values)
    # lambda = 0 stays valid (pure shear)
    assert MaterialParams(mu=1.0, lam=0.0).stabilization_scale == 1.0


def test_dofmap_layout_and_mask(cube):
    dm = DofMap(cube)
    assert dm.total_dofs == 3 * cube.n_vertices + cube.n_faces
    # single cube: everything is on the boundary and Dirichlet by default
    assert dm.dirichlet_mask.all()
    assert dm.n_free == 0
    dm_off = DofMap(cube, bubbles_enabled=False)
    assert dm_off.total_dofs == 3 * cube.n_vertices
    assert dm_off.vector_size == dm.vector_size
    assert dm_off.dirichlet_mask[dm_off.n_vertex_dofs:].all()


def test_dofmap_partial_dirichlet():
    mesh = generate_structured_mesh("hex", 2)
    tags = mesh.face_on_boundary.copy()
    # keep Dirichlet only on the x=0 side
    for f in np.flatnonzero(tags):
        if not np.allclose(mesh.face_centroid[f][0], 0.0):
            tags[f] = False
    dm = DofMap(mesh, dirichlet_faces=tags)
    # constrained vertices are exactly those of the x=0 plane
    constrained = np.flatnonzero(dm.dirichlet_vertices)
    assert np.allclose(mesh.positions[constrained][:, 0], 0.0)
    assert len(constrained) == 9
    # bubbles constrained exactly on the tagged faces
    assert np.array_equal(dm.dirichlet_mask[dm.n_vertex_dofs:], tags)


def test_face_gradient_constant_field(cube, cube_dofs):
    fid = top_face(cube)
    func = make_function(cube_dofs, lambda p: np.tile([1.2, -0.7, 3.0], (len(p), 1)))
    assert face_gradient(cube, fid, func) == pytest.approx(np.zeros((3, 3)), abs=1e-14)


def test_face_gradient_linear_fields(cube, cube_dofs):
    fid = top_face(cube)
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    func = make_function(cube_dofs, lambda p: np.column_stack(
        [p[:, 0], np.zeros(len(p)), np.zeros(len(p))]))
    assert face_gradient(cube, fid, func) == pytest.approx(e1, abs=1e-14)
    # identity field reconstructs the tangential projector of the face plane
    func2 = make_function(cube_dofs, lambda p: p)
    proj = np.diag([1.0, 1.0, 0.0])
    assert face_gradient(cube, fid, func2) == pytest.approx(proj, abs=1e-14)


def test_face_displacement_and_mean_property(cube, cube_dofs):
    fid = top_face(cube)
    c = np.array([0.4, 1.5, -2.0])
    func = make_function(cube_dofs, lambda p: np.tile(c, (len(p), 1)))
    assert face_displacement(cube, fid, func, cube.face_centroid[fid]) == pytest.approx(c)
    func2 = make_function(cube_dofs, lambda p: p)
    assert face_displacement(cube, fid, func2, cube.face_centroid[fid]) == pytest.approx(
        [0.5, 0.5, 1.0]
    )
    # face average of the affine reconstruction equals the weighted DOF average
    rng = np.random.default_rng(42)
    func3 = make_function(cube_dofs, lambda p: rng.standard_normal(p.shape),
                          bubbles=rng.standard_normal(cube.n_faces))
    pts, wts = cube.face_quadrature(fid, 4)
    avg_quad = (wts[:, None] * face_displacement(cube, fid, func3, pts)).sum(axis=0)
    avg_quad /= cube.face_area[fid]
    assert avg_quad == pytest.approx(face_average(cube, fid, func3), abs=1e-13)


def test_mean_property_on_perturbed_mesh():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    rng = np.random.default_rng(3)
    func = make_function(dm, lambda p: rng.standard_normal(p.shape),
                         bubbles=rng.standard_normal(mesh.n_faces))
    for fid in range(0, mesh.n_faces, 11):
        pts, wts = mesh.face_quadrature(fid, 4)
        avg = (wts[:, None] * face_displacement(mesh, fid, func, pts)).sum(axis=0)
        avg /= mesh.face_area[fid]
        assert avg == pytest.approx(face_average(mesh, fid, func), abs=1e-13)


def test_cell_reconstruction_constant(cube, cube_dofs):
    c = np.array([0.3, -1.0, 2.0])
    func = make_function(cube_dofs, lambda p: np.tile(c, (len(p), 1)))
    rec = cell_reconstructions(cube, 0, func)
    assert rec.gradient == pytest.approx(np.zeros((3, 3)), abs=1e-14)
    assert rec.divergence == pytest.approx(0.0, abs=1e-14)
    assert rec.displacement(np.array([[0.2, 0.9, 0.1]])) == pytest.approx(c[None])


def test_cell_reconstruction_single_bubble(cube, cube_dofs):
    # bubble 1 on the x=1 face (normal e1 pointing out of the cell)
    fid = [f for f in range(cube.n_faces)
           if np.allclose(cube.face_centroid[f], [1.0, 0.5, 0.5])][0]
    assert cube.face_normal[fid] == pytest.approx([1.0, 0.0, 0.0])
    bubbles = np.zeros(cube.n_faces)
    bubbles[fid] = 1.0
    func = make_function(cube_dofs, bubbles=bubbles)
    rec = cell_reconstructions(cube, 0, func)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert rec.gradient == pytest.approx(expected, abs=1e-14)
    assert rec.divergence == pytest.approx(1.0, abs=1e-14)


def test_cell_reconstruction_linear_exactness():
    a_mat = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
    for mesh in (generate_structured_mesh("hex", 1),
                 generate_structured_mesh("tet", 2, perturb=0.3)):
        dm = DofMap(mesh)
        func = make_function(dm, lambda p: p @ a_mat.T)
        for cid in range(0, mesh.n_cells, 5):
            rec = cell_reconstructions(mesh, cid, func)
            assert rec.gradient == pytest.approx(a_mat, abs=1e-12)
            assert rec.divergence == pytest.approx(np.trace(a_mat), abs=1e-12)


def test_divergence_matches_flux_formula(cube, cube_dofs):
    rng = np.random.default_rng(11)
    func = make_function(cube_dofs, lambda p: rng.standard_normal(p.shape),
                         bubbles=rng.standard_normal(cube.n_faces))
    rec = cell_reconstructions(cube, 0, func)
    vol = cube.cell_volume[0]
    total = 0.0
    for fid, sign in zip(cube.cell_faces[0], cube.cell_signs[0]):
        avg = face_average(cube, fid, func)
        total += cube.face_area[fid] * avg @ (sign * cube.face_normal[fid])
        total += cube.face_area[fid] * sign * func.face_value(fid)
    assert rec.divergence == pytest.approx(total / vol, abs=1e-13)


def test_stress_values():
    m0 = MaterialParams(mu=1.0, lam=0.0)
    assert stress(np.eye(3), 3.0, m0) == pytest.approx(2.0 * np.eye(3))
    m1 = MaterialParams(mu=1.0, lam=1.0)
    assert stress(np.eye(3), 3.0, m1) == pytest.approx(5.0 * np.eye(3))
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    mbig = MaterialParams(mu=1.0, lam=1e6)
    assert stress(e11, 1.0, mbig) == pytest.approx(2.0 * e11 + 1e6 * np.eye(3))


def test_stabilization_vanishes_on_affine_interpolants(cube, cube_dofs):
    a_mat = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
    b = np.array([0.4, -1.0, 0.2])
    func = interpolate(cube, cube_dofs, lambda p: p @ a_mat.T + b)
    local = func.values[cube_dofs.cell_dofs(0)]
    s_mat = stabilization_local(cube, 0, cube_dofs)
    assert local @ s_mat @ local == pytest.approx(0.0, abs=1e-12)


def test_stabilization_single_bubble_value(cube, cube_dofs):
    # zero vertex DOFs, bubble b on one face: the affine reconstruction
    # contributes b/2 at each of the 8 vertices, so
    # S_K = h_K * (8 * (b/2)^2 + b^2) = 3*sqrt(3)*b^2
    fid = [f for f in range(cube.n_faces)
           if np.allclose(cube.face_centroid[f], [1.0, 0.5, 0.5])][0]
    b = 0.8
    bubbles = np.zeros(cube.n_faces)
    bubbles[fid] = b
    func = make_function(cube_dofs, bubbles=bubbles)
    local = func.values[cube_dofs.cell_dofs(0)]
    s_mat = stabilization_local(cube, 0, cube_dofs)
    expected = 3.0 * math.sqrt(3.0) * b**2
    assert local @ s_mat @ local == pytest.approx(expected, rel=1e-13)


def test_stabilization_is_symmetric_psd():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    rng = np.random.default_rng(5)
    for cid in range(0, mesh.n_cells, 9):
        s_mat = stabilization_local(mesh, cid, dm)
        assert np.abs(s_mat - s_mat.T).max() <= 1e-13 * max(1.0, np.abs(s_mat).max())
        for _ in range(4):
            v = rng.standard_normal(s_mat.shape[0])
            assert v @ s_mat @ v >= -1e-12


def test_interpolate_vertex_values_exact():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    field = lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 1] ** 2, p[:, 2]])
    func = interpolate(mesh, dm, field)
    assert np.array_equal(func.vertex_values(), field(mesh.positions))


def test_interpolate_affine_has_zero_bubbles():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    a_mat = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
    func = interpolate(mesh, dm, lambda p: p @ a_mat.T + np.array([1.0, 2.0, 3.0]))
    assert np.abs(func.bubble_values()).max() <= 1e-13


def test_interpolate_quadratic_bubble_value(cube, cube_dofs):
    # field (0,0,x^2) on the z=0 face with normal +e3:
    # bubble = mean of x^2 - average of vertex values = 1/3 - 1/2 = -1/6
    fid = [f for f in range(cube.n_faces)
           if np.allclose(cube.face_centroid[f], [0.5, 0.5, 0.0])][0]
    assert cube.face_normal[fid] == pytest.approx([0.0, 0.0, 1.0])
    field = lambda p: np.column_stack(
        [np.zeros(len(p)), np.zeros(len(p)), p[:, 0] ** 2])
    func = interpolate(cube, cube_dofs, field, quad_degree=4)
    assert func.face_value(fid) == pytest.approx(-1.0 / 6.0, abs=1e-14)


def example1_field(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.column_stack([
        -2.0 * np.sin(np.pi * x) * np.cos(np.pi * y) * np.cos(np.pi * z),
        np.cos(np.pi * x) * np.sin(np.pi * y) * np.cos(np.pi * z),
        np.cos(np.pi * x) * np.cos(np.pi * y) * np.sin(np.pi * z),
    ])


@pytest.mark.parametrize("mesh_args", [("hex", 2, 0.0), ("tet", 2, 0.0), ("tet", 4, 0.3)])
def test_commutation_property(mesh_args):
    kind, n, perturb = mesh_args
    mesh = generate_structured_mesh(kind, n, perturb=perturb)
    dm = DofMap(mesh)

    # identity field: divergence is 3 on every cell, exactly
    func = interpolate(mesh, dm, lambda p: p)
    for cid in range(mesh.n_cells):
        rec = cell_reconstructions(mesh, cid, func)
        assert rec.divergence == pytest.approx(3.0, rel=1e-12)

    # cubic field: cell-mean of the exact divergence, via volume quadrature
    cubic = lambda p: np.column_stack(
        [p[:, 0] ** 2 * p[:, 1], p[:, 1] ** 2 * p[:, 2], p[:, 2] ** 3 - p[:, 0] * p[:, 2]])
    div_cubic = lambda p: (2 * p[:, 0] * p[:, 1] + 2 * p[:, 1] * p[:, 2]
                           + 3 * p[:, 2] ** 2 - p[:, 0])
    func = interpolate(mesh, dm, cubic)
    for cid in range(0, mesh.n_cells, 3):
        rec = cell_reconstructions(mesh, cid, func)
        pts, wts = mesh.cell_quadrature(cid, 4)
        exact = wts @ div_cubic(pts)
        assert rec.divergence * mesh.cell_volume[cid] == pytest.approx(
            exact, rel=1e-10, abs=1e-12)

    # divergence-free sinusoidal field: discrete divergence vanishes
    func = interpolate(mesh, dm, example1_field)
    for cid in range(mesh.n_cells):
        rec = cell_reconstructions(mesh, cid, func)
        assert abs(rec.divergence) <= 1e-10


def test_linear_exactness_end_to_end():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    a_mat = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
    func = interpolate(mesh, dm, lambda p: p @ a_mat.T + np.array([0.1, 0.0, -0.3]))
    for cid in range(0, mesh.n_cells, 7):
        rec = cell_reconstructions(mesh, cid, func)
        assert rec.gradient == pytest.approx(a_mat, abs=1e-12)
        local = func.values[dm.cell_dofs(cid)]
        s_mat = stabilization_local(mesh, cid, dm)
        assert local @ s_mat @ local <= 1e-12


def cell_h1_seminorm_sq(mesh, dm, func, cid):
    rec = cell_reconstructions(mesh, cid, func)
    local = func.values[dm.cell_dofs(cid)]
    s_val = local @ stabilization_local(mesh, cid, dm) @ local
    return mesh.cell_volume[cid] * np.sum(rec.gradient**2) + s_val


def test_dof_based_norm_bound_stable_under_refinement():
    rng = np.random.default_rng(2024)
    maxima = []
    for n in (2, 4):
        mesh = generate_structured_mesh("tet", n)
        dm = DofMap(mesh)
        worst = 0.0
        for _ in range(8):
            func = make_function(
                dm, lambda p: rng.standard_normal(p.shape),
                bubbles=rng.standard_normal(mesh.n_faces))
            for cid in range(0, mesh.n_cells, 5):
                norm_k = math.sqrt(cell_h1_seminorm_sq(mesh, dm, func, cid))
                verts = mesh.cell_vertices[cid]
                vmax = np.abs(func.vertex_values()[verts]).max()
                bmax = np.abs([func.face_value(f) for f in mesh.cell_faces[cid]]).max()
                bound = (mesh.cell_diameter[cid] ** -1
                         * math.sqrt(mesh.cell_volume[cid]) * (vmax + bmax))
                worst = max(worst, norm_k / bound)
        maxima.append(worst)
    assert maxima[1] <= 2.0 * maxima[0]


def test_bubbles_disabled_equals_zero_bubbles():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm_on = DofMap(mesh, bubbles_enabled=True)
    dm_off = DofMap(mesh, bubbles_enabled=False)
    rng = np.random.default_rng(8)
    vertex_field = rng.standard_normal((mesh.n_vertices, 3))
    f_on = make_function(dm_on, lambda p: vertex_field)
    f_off = make_function(dm_off, lambda p: vertex_field)
    for cid in range(0, mesh.n_cells, 7):
        r_on = cell_reconstructions(mesh, cid, f_on)
        r_off = cell_reconstructions(mesh, cid, f_off)
        assert np.array_equal(r_on.gradient, r_off.gradient)
        assert r_on.divergence == r_off.divergence
        s_on = stabilization_local(mesh, cid, dm_on)
        s_off = stabilization_local(mesh, cid, dm_off)
        assert np.array_equal(s_on, s_off)


def test_interpolate_without_bubbles_keeps_them_zero():
    mesh = generate_structured_mesh("tet", 2)
    dm = DofMap(mesh, bubbles_enabled=False)
    func = interpolate(mesh, dm, lambda p: np.sin(p))
    assert np.array_equal(func.bubble_values(), np.zeros(mesh.n_faces))
