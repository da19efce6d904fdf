"""The cell fields in closed form: `space.cell_fields` gives, over all cells
at once, the gradient, the vertex mean and the stabilization energy S(v, v)
that the per-cell `ReconstructionOperators` give cell by cell, the trace of
its gradient is the divergence map D, an affine field has no stabilization
energy, and its transients stay near the size of the arrays it returns."""

import tracemalloc

import numpy as np
import pytest

from polyelast.assembly import divergence_operator
from polyelast.mesh import generate_structured_mesh, parse_polymesh
from polyelast.space import (
    DofMap,
    ReconstructionOperators,
    cell_fields,
    cell_gradient_operator,
    interpolate,
    local_dofs,
)
from test_polyhedral import merged_hex_text, pentagonal_prism_text

MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
}


def dof_vectors(mesh, columns):
    size = 3 * mesh.n_vertices + mesh.n_faces
    rng = np.random.default_rng(5)
    return rng.standard_normal(size if columns is None else (size, columns))


def per_cell(mesh, values):
    """The gradient, the mean and S(v, v) of every cell from the operators of
    that cell alone."""
    gradients, means, energy = [], [], 0.0
    for cid in range(mesh.n_cells):
        ops = ReconstructionOperators(mesh, [cid])
        local = values[ops.dofs]
        gradients.append((ops.gradient @ local).reshape((3, 3) + values.shape[1:]))
        means.append((ops.mean @ local).reshape((3,) + values.shape[1:]))
        energy = energy + ops.fit_scale @ (ops.fit @ local) ** 2 + ops.bubble_scale @ local**2
    return np.array(gradients), np.array(means), energy


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("columns", [None, 16])
def test_closed_form_fields_equal_the_per_cell_operators(name, columns):
    mesh = MESHES[name]()
    values = dof_vectors(mesh, columns)
    gradient, mean, energy = cell_fields(mesh, values, stabilization=True)
    oracle_gradient, oracle_mean, oracle_energy = per_cell(mesh, values)
    assert gradient.shape == oracle_gradient.shape and mean.shape == oracle_mean.shape
    assert np.shape(energy) == np.shape(oracle_energy)
    assert np.abs(gradient - oracle_gradient).max() <= 1e-14 * np.abs(oracle_gradient).max()
    assert np.array_equal(mean, oracle_mean)
    assert np.all(np.abs(energy - oracle_energy) <= 1e-13 * np.abs(oracle_energy))
    assert np.array_equal(cell_fields(mesh, values)[0], gradient)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_the_gradient_is_the_cell_gradient_operator(name):
    mesh = MESHES[name]()
    values = dof_vectors(mesh, None)
    gradient = cell_fields(mesh, values)[0]
    for cid in range(mesh.n_cells):
        expected = cell_gradient_operator(mesh, cid) @ values[local_dofs(mesh, cid)]
        assert np.abs(gradient[cid].ravel() - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("name", sorted(MESHES))
def test_the_trace_of_the_gradient_is_the_divergence(name):
    mesh = MESHES[name]()
    values = dof_vectors(mesh, 16)
    trace = np.trace(cell_fields(mesh, values)[0], axis1=1, axis2=2)
    divergence = divergence_operator(mesh) @ values
    assert np.abs(trace - divergence).max() <= 1e-14 * np.abs(divergence).max()


@pytest.mark.parametrize("name", sorted(MESHES))
def test_an_affine_field_has_no_stabilization_energy(name):
    mesh = MESHES[name]()
    matrix = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
    func = interpolate(mesh, DofMap(mesh), lambda p: p @ matrix.T + 0.25)
    gradient, _, energy = cell_fields(mesh, func.values, stabilization=True)
    assert energy <= 1e-18
    assert np.abs(gradient - matrix).max() <= 1e-12


@pytest.mark.parametrize("columns", [None, 16])
def test_closed_form_fields_hold_no_transient_much_larger_than_their_result(columns):
    mesh = generate_structured_mesh("tet", 10)  # 6,000 cells
    values = dof_vectors(mesh, columns)
    for stabilization in (False, True):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fields = cell_fields(mesh, values, stabilization=stabilization)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        returned = sum(np.asarray(field).nbytes for field in fields)
        assert peak - returned <= 2.0 * returned, (stabilization, peak, returned)
