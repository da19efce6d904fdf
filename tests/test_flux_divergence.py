"""The divergence map D as the balance of face fluxes: it equals the trace of
the cell gradient of `ReconstructionOperators`, the split builds it without
walking the chunks again, and it holds less transient memory than the
matrix assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from polyelast import assembly
from polyelast.assembly import assemble_matrix, assemble_split, divergence_operator
from polyelast.mesh import generate_structured_mesh
from polyelast.space import DofMap, MaterialParams, ReconstructionOperators
from test_chunked_assembly import MESHES


@pytest.mark.parametrize("name", sorted(MESHES))
def test_flux_balance_equals_the_trace_of_the_gradient(name):
    mesh = MESHES[name]()
    ops = ReconstructionOperators(mesh, np.arange(mesh.n_cells))
    gradient = ops.gradient
    trace = gradient[0::9] + gradient[4::9] + gradient[8::9]
    size = 3 * mesh.n_vertices + mesh.n_faces
    pick = sp.csr_matrix((np.ones(ops.n_dofs), (np.arange(ops.n_dofs), ops.dofs)),
                         shape=(ops.n_dofs, size))
    expected = (trace @ pick).toarray()
    d = divergence_operator(mesh)
    assert d.shape == (mesh.n_cells, size)
    assert np.abs(d.toarray() - expected).max() <= 1e-14 * np.abs(expected).max()


def test_split_walks_the_chunks_once(monkeypatch):
    mesh = generate_structured_mesh("tet", 3, perturb=0.3)
    walks = []
    chunks = assembly.operator_chunks

    def counted(*args):
        walks.append(1)
        return chunks(*args)

    monkeypatch.setattr(assembly, "operator_chunks", counted)
    assemble_split(mesh, DofMap(mesh), MaterialParams(mu=1.0, lam=1e6))
    assert len(walks) == 1


def traced_peak(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_divergence_memory_stays_below_the_matrix_assembly():
    mesh = generate_structured_mesh("tet", 10)
    dofmap = DofMap(mesh)
    d_peak = traced_peak(lambda: divergence_operator(mesh))
    a0_peak = traced_peak(lambda: assemble_matrix(mesh, dofmap,
                                                  MaterialParams(mu=1.0, lam=0.0)))
    assert d_peak < a0_peak, (d_peak, a0_peak)
