"""The divergence map D as the balance of face fluxes: it equals the trace of
the cell gradient of `ReconstructionOperators`, its rows are those of the
all-cell product W^-1 C Phi, sorted, the split builds it without walking the
chunks again, and it holds less transient memory than the matrix
assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from polyelast import assembly, space
from polyelast.assembly import assemble_matrix, assemble_split, divergence_operator
from polyelast.mesh import generate_structured_mesh, parse_polymesh
from polyelast.space import DofMap, MaterialParams, ReconstructionOperators, cell_face_balance
from test_chunked_assembly import MESHES
from test_convex_weights import jittered_prisms_text, voronoi_text

POLYTOPES = {
    **MESHES,
    "prisms-6": lambda: parse_polymesh(jittered_prisms_text(6, 0.3, 7)),
    "voronoi-4": lambda: parse_polymesh(voronoi_text(4, 0.3, 12345)),
}


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


def flux_map(mesh):
    """Phi (n_faces, N): the flux |f| (n_f . sum_v w_fv u_v + b_f) of every
    face, vertex entries (|f| w_fv) n_f,j and bubble entry |f|."""
    loops, n_v = mesh.face_loop_offsets, mesh.n_vertices
    face = np.repeat(np.arange(mesh.n_faces), np.diff(loops))
    vertex = (mesh.face_area[face] * mesh._face_weights)[:, None] * mesh.face_normal[face]
    rows = np.concatenate([np.repeat(face, 3), np.arange(mesh.n_faces)])
    columns = np.concatenate([(3 * mesh.face_loop_vertices[:, None] + np.arange(3)).ravel(),
                              3 * n_v + np.arange(mesh.n_faces)])
    return sp.csr_matrix((np.concatenate([vertex.ravel(), mesh.face_area]), (rows, columns)),
                         shape=(mesh.n_faces, 3 * n_v + mesh.n_faces))


@pytest.mark.parametrize("entries", [None, 1], ids=["runs", "one-cell-runs"])
@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_rows_are_the_sorted_all_cell_flux_balance(name, entries, monkeypatch):
    mesh = POLYTOPES[name]()
    oracle = (cell_face_balance(mesh) @ flux_map(mesh)).tocsr()
    oracle.sort_indices()
    if entries is not None:
        monkeypatch.setattr(space, "_CHUNK_ENTRIES", entries)
    d = divergence_operator(mesh)
    assert d.has_sorted_indices
    assert np.all(d.data != 0.0)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(d, part), getattr(oracle, part)), part


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
