"""The global sparse reconstruction operators: the per-cell views are rows of
the global operators, and evaluating them leaves the mesh as it was built."""

import numpy as np
import pytest
import scipy.sparse as sp

from polyelast.analysis import discrete_norms, korn_ratio, relative_error
from polyelast.assembly import (
    BoundaryConditions,
    assemble,
    assemble_load,
    assemble_matrix,
    local_load,
    local_matrix,
)
from polyelast.mesh import generate_structured_mesh, parse_polymesh
from polyelast.solver import solve_spd
from polyelast.space import DofMap, MaterialParams
from test_polyhedral import pentagonal_prism_text

MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
}


def body_force(points):
    return np.column_stack([np.sin(3.0 * points[:, 0]) + points[:, 1],
                            points[:, 2] ** 2, np.cos(points[:, 0] * points[:, 1])])


@pytest.mark.parametrize("name", sorted(MESHES))
def test_local_views_scatter_to_the_global_system(name):
    mesh = MESHES[name]()
    dm = DofMap(mesh)
    material = MaterialParams(mu=1.3, lam=1e3, mu1=0.7)
    n = dm.vector_size
    rows, cols, vals = [], [], []
    load = np.zeros(n)
    for cid in range(mesh.n_cells):
        dofs = dm.cell_dofs(cid)
        grid = np.meshgrid(dofs, dofs, indexing="ij")
        rows.append(grid[0].ravel())
        cols.append(grid[1].ravel())
        vals.append(local_matrix(mesh, cid, material, dm).ravel())
        np.add.at(load, dofs, local_load(mesh, cid, body_force))
    scattered = sp.coo_matrix((np.concatenate(vals),
                               (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n, n)).tocsr()
    matrix = assemble_matrix(mesh, dm, material)
    assert abs(scattered - matrix).max() <= 1e-13 * abs(matrix).max()
    full_load = assemble_load(mesh, dm, BoundaryConditions.all_dirichlet(mesh), body_force)
    assert np.abs(load - full_load).max() <= 1e-13 * np.abs(full_load).max()


@pytest.mark.parametrize("name", sorted(MESHES))
def test_cell_quadrature_is_a_slice_of_the_batched_rule(name):
    mesh = MESHES[name]()
    points, weights, offsets = mesh.batched_cell_quadrature(4)
    assert offsets[-1] == len(weights) == len(points)
    for cid in range(mesh.n_cells):
        pts, wts = mesh.cell_quadrature(cid, 4)
        lo, hi = offsets[cid], offsets[cid + 1]
        assert np.array_equal(pts, points[lo:hi])
        assert np.array_equal(wts, weights[lo:hi])


def test_solve_leaves_the_mesh_as_built():
    mesh = generate_structured_mesh("tet", 3)
    keys = set(vars(mesh))
    sizes = {k: len(v) for k, v in vars(mesh).items() if isinstance(v, dict)}
    # zero Dirichlet data: the lifting evaluates no face quadrature
    bcs = BoundaryConditions.all_dirichlet(mesh)
    dm = DofMap(mesh)
    material = MaterialParams(mu=1.0, lam=10.0)
    system = assemble(mesh, dm, material, bcs, body_force)
    solution = solve_spd(system).function
    strain = lambda p: np.broadcast_to(np.eye(3), (len(p), 3, 3))  # noqa: E731
    assert relative_error(mesh, solution, dm.zero_function(), strain) > 0.0
    assert discrete_norms(mesh, solution, material).energy > 0.0
    assert korn_ratio(mesh, dm, sample_count=4).max_ratio >= 1.0
    assert set(vars(mesh)) == keys
    assert {k: len(v) for k, v in vars(mesh).items() if isinstance(v, dict)} == sizes
