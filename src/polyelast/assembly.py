"""Global system assembly: stiffness, stabilization, loads, Dirichlet lifting.

The bilinear form of the scheme is, cell by cell,

    |K| * (2*mu * strain(u):strain(v) + lambda * div(u)*div(v)) + mu1 * S_K(u,v)

so the global matrix is 2*mu*Gs^T W Gs + lambda*D^T W D + mu1*(F^T H F + H_b)
in the sparse operators of `ReconstructionOperators` (strain Gs, divergence
D, vertex fit F, cell volumes W, h_K scalings H and H_b).  The volume load
acts through the piecewise-constant displacement reconstruction M, so each
cell vertex receives its convex weight times the cell integral of the force
and bubbles receive no volume load.  Dirichlet values
are imposed by lifting: constrained DOFs are filled from the boundary data
(vertex point values, interpolator bubble moments) and eliminated from the
reduced system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .mesh import Mesh, _integrals, row_entries
from .space import (
    DofMap,
    MaterialParams,
    ReconstructionOperators,
    face_bubble_moments,
    local_dofs,
)


class AssemblyError(Exception):
    """Ill-posed or inconsistent assembly input."""


@dataclass
class BoundaryConditions:
    """Per-face boundary tags plus the associated data.

    `dirichlet_faces` is a boolean mask over all faces selecting the Dirichlet
    part of the boundary; the remaining boundary faces are Neumann.
    `dirichlet_data` maps points (n,3) to displacements (n,3) (None = zero);
    `neumann_data` maps points (n,3) and the outward unit normals (n,3) at
    them to tractions (n,3) (None = traction-free).
    """

    dirichlet_faces: np.ndarray
    dirichlet_data: Callable | None = None
    neumann_data: Callable | None = None

    @classmethod
    def all_dirichlet(cls, mesh: Mesh, data: Callable | None = None):
        return cls(mesh.face_on_boundary.copy(), dirichlet_data=data)

    def check(self, mesh: Mesh):
        mask = np.asarray(self.dirichlet_faces, dtype=bool)
        if mask.shape != (mesh.n_faces,):
            raise AssemblyError("dirichlet_faces mask has the wrong length")
        if np.any(mask & ~mesh.face_on_boundary):
            raise AssemblyError("Dirichlet tag on an interior face")

    def neumann_face_ids(self, mesh: Mesh) -> np.ndarray:
        return np.flatnonzero(mesh.face_on_boundary & ~self.dirichlet_faces)


@dataclass
class SparseSystem:
    """Reduced SPD system with its lifting.

    `matrix` is the free-free block in CSR form, `load` the reduced right-hand
    side, `lifting` the full-length vector holding the Dirichlet DOF values.
    `full_matrix` keeps the unconstrained operator for energy checks and for
    recovering reduced right-hand sides.
    """

    matrix: sp.csr_matrix
    load: np.ndarray
    lifting: np.ndarray
    free_indices: np.ndarray
    constrained_indices: np.ndarray
    dofmap: DofMap
    full_matrix: sp.csr_matrix
    full_load: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free_indices)


def _matrix(ops: ReconstructionOperators, material: MaterialParams) -> sp.csr_matrix:
    """The matrix of the bilinear form over the cells of `ops`."""
    volume = sp.diags(ops.volume)
    strain_volume = sp.diags(np.repeat(ops.volume, 9))
    return (2.0 * material.mu * (ops.strain.T @ strain_volume @ ops.strain)
            + material.lam * (ops.divergence.T @ volume @ ops.divergence)
            + material.stabilization_scale * ops.stabilization()).tocsr()


def _volume_load(ops: ReconstructionOperators, body_force: Callable,
                 quad_degree: int) -> np.ndarray:
    """M^T (cell integrals of the force): each vertex receives its convex
    weight times the cell integral; bubbles receive zero."""
    return ops.mean.T @ ops.cell_integrals(body_force, quad_degree).ravel()


def local_matrix(mesh: Mesh, cid: int, material: MaterialParams,
                 dofmap: DofMap) -> np.ndarray:
    """Local stiffness + stabilization matrix over the cell DOFs."""
    dofs = dofmap.cell_dofs(cid)
    return _matrix(ReconstructionOperators(mesh, [cid]), material)[dofs][:, dofs].toarray()


def local_load(mesh: Mesh, cid: int, body_force: Callable | None,
               quad_degree: int = 4) -> np.ndarray:
    """Local volume load: each vertex receives its convex weight times the
    cell integral of the force; bubbles receive zero."""
    dofs = local_dofs(mesh, cid)
    if body_force is None:
        return np.zeros(len(dofs))
    return _volume_load(ReconstructionOperators(mesh, [cid]), body_force, quad_degree)[dofs]


def local_system(mesh: Mesh, cid: int, material: MaterialParams, dofmap: DofMap,
                 body_force: Callable | None, quad_degree: int = 4):
    """Local (matrix, load) pair over the cell DOFs."""
    return (local_matrix(mesh, cid, material, dofmap),
            local_load(mesh, cid, body_force, quad_degree))


def _neumann_loads(mesh: Mesh, faces: np.ndarray, traction: Callable, dofmap: DofMap,
                   quad_degree: int):
    """Surface-load contributions of the boundary faces `faces`: the vertex
    DOFs of their loops, face by face, then their bubbles, with the values."""
    normal = mesh.face_normal[faces]
    outward = mesh.face_cell_signs[faces, :1] * normal
    centroid = mesh.face_centroid[faces]

    def moments(points, at):
        g = np.asarray(traction(points, outward[at]), dtype=float)
        return g[:, :, None] * np.column_stack([np.ones(len(points)),
                                                points - centroid[at]])[:, None, :]

    # per face the integral of g and G = int g tensor (x - centroid)
    integrals = _integrals(mesh, "face", quad_degree, moments, faces)
    g_total, g_moment = integrals[:, :, 0], integrals[:, :, 1:]
    # int g . (grad_sigma v)(x - centroid) = G : grad_sigma v, and grad_sigma
    # gives each edge's two endpoints |e| / (2 |f|) times its outward normal
    loop, face = row_entries(mesh.face_loop_offsets, faces)
    edge = ((mesh._edge_lengths[loop] / (2.0 * mesh.face_area[faces][face]))[:, None]
            * np.einsum("eij,ej->ei", g_moment[face], mesh._edge_normals[loop]))
    vertex_loads = mesh._face_weights[loop, None] * g_total[face] + edge
    vertex_loads[np.arange(len(loop)) + mesh._loop_next[loop] - loop] += edge
    vertices = mesh.face_loop_vertices[loop]
    dofs = np.concatenate([(3 * vertices[:, None] + np.arange(3)).ravel(),
                           dofmap.n_vertex_dofs + faces])
    values = np.concatenate([vertex_loads.ravel(), np.einsum("fi,fi->f", g_total, normal)])
    return dofs, values


def neumann_load(mesh: Mesh, fid: int, traction: Callable, dofmap: DofMap,
                 quad_degree: int = 4):
    """Surface-load contributions of one Neumann face.

    Vertex DOFs receive the face integral of the traction against the affine
    face reconstruction; the face bubble receives the integral of the normal
    traction component.  Returns (global dof indices, values).
    """
    if not mesh.face_on_boundary[fid]:
        raise AssemblyError(f"face {fid} is not a boundary face")
    return _neumann_loads(mesh, np.array([fid]), traction, dofmap, quad_degree)


def assemble_matrix(mesh: Mesh, dofmap: DofMap,
                    material: MaterialParams) -> sp.csr_matrix:
    """Unconstrained global matrix."""
    return _matrix(ReconstructionOperators(mesh), material)


def assemble_load(mesh: Mesh, dofmap: DofMap, bcs: BoundaryConditions,
                  body_force: Callable | None, quad_degree: int = 4) -> np.ndarray:
    """Unconstrained load vector: volume force plus Neumann surface loads."""
    load = np.zeros(dofmap.vector_size)
    if body_force is not None:
        load += _volume_load(ReconstructionOperators(mesh), body_force, quad_degree)
    faces = bcs.neumann_face_ids(mesh)
    if bcs.neumann_data is not None and len(faces):
        dofs, values = _neumann_loads(mesh, faces, bcs.neumann_data, dofmap, quad_degree)
        load += np.bincount(dofs, weights=values, minlength=len(load))
    return load


def dirichlet_lifting(mesh: Mesh, dofmap: DofMap,
                      bcs: BoundaryConditions) -> np.ndarray:
    """Full-length vector with the Dirichlet DOF values (zero elsewhere):
    vertex DOFs take the data point values, Dirichlet-face bubbles take the
    interpolator bubble moments of the data."""
    lifting = np.zeros(dofmap.vector_size)
    if bcs.dirichlet_data is None:
        return lifting
    vertex_values = np.asarray(bcs.dirichlet_data(mesh.positions), dtype=float)
    constrained = np.repeat(dofmap.dirichlet_vertices, 3)
    lifting[: dofmap.n_vertex_dofs][constrained] = vertex_values.ravel()[constrained]
    if dofmap.bubbles_enabled:
        face_ids = np.flatnonzero(dofmap.dirichlet_faces)
        lifting[dofmap.n_vertex_dofs + face_ids] = face_bubble_moments(
            mesh, bcs.dirichlet_data, face_ids, vertex_values)
    return lifting


def check_dirichlet_coverage(mesh: Mesh, dofmap: DofMap):
    """Every connected component of the mesh must contain a Dirichlet vertex,
    otherwise the reduced system is singular."""
    # consecutive sorted vertices of each cell connect the whole cell
    ids = mesh.cell_vertex_ids
    same_cell = np.diff(np.repeat(np.arange(mesh.n_cells),
                                  np.diff(mesh.cell_vertex_offsets))) == 0
    graph = sp.coo_matrix(
        (np.ones(int(same_cell.sum())), (ids[:-1][same_cell], ids[1:][same_cell])),
        shape=(mesh.n_vertices, mesh.n_vertices),
    )
    n_comp, labels = connected_components(graph, directed=False)
    constrained = dofmap.dirichlet_vertices
    for comp in range(n_comp):
        if not constrained[labels == comp].any():
            raise AssemblyError(
                f"no Dirichlet vertex in connected component {comp}: "
                "the reduced system is singular"
            )


def reduce_system(full_matrix: sp.csr_matrix, full_load: np.ndarray,
                  lifting: np.ndarray, dofmap: DofMap) -> SparseSystem:
    """Eliminate constrained DOFs by lifting."""
    free = dofmap.free_indices
    reduced = full_matrix[free][:, free].tocsr()
    rhs = full_load[free] - (full_matrix @ lifting)[free]
    return SparseSystem(
        matrix=reduced,
        load=rhs,
        lifting=lifting,
        free_indices=free,
        constrained_indices=dofmap.constrained_indices,
        dofmap=dofmap,
        full_matrix=full_matrix,
        full_load=full_load,
    )


def assemble(mesh: Mesh, dofmap: DofMap, material: MaterialParams,
             bcs: BoundaryConditions, body_force: Callable | None = None,
             quad_degree: int = 4) -> SparseSystem:
    """Assemble the reduced linear system of the scheme."""
    bcs.check(mesh)
    if not np.array_equal(dofmap.dirichlet_faces, np.asarray(bcs.dirichlet_faces,
                                                             dtype=bool)):
        raise AssemblyError("DofMap and BoundaryConditions disagree on the "
                            "Dirichlet faces")
    check_dirichlet_coverage(mesh, dofmap)
    full_matrix = assemble_matrix(mesh, dofmap, material)
    full_load = assemble_load(mesh, dofmap, bcs, body_force, quad_degree)
    lifting = dirichlet_lifting(mesh, dofmap, bcs)
    if not np.isfinite(lifting).all() or not np.isfinite(full_load).all():
        raise AssemblyError("non-finite value in boundary data or load")
    return reduce_system(full_matrix, full_load, lifting, dofmap)
