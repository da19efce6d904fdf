"""Enriched degrees of freedom and local reconstruction operators.

The discrete space carries three displacement components per vertex plus one
scalar bubble per face (a correction of the normal displacement flux).  The
coefficient vector always stores all 3*n_v + n_f entries; disabling bubbles
constrains every bubble to zero through the same masking path used for
Dirichlet conditions, so that both variants share one assembly code path.

All reconstruction operators are linear in the DOF vector.
`ReconstructionOperators` builds them as sparse matrices for runs of cells
of bounded size (`operator_chunks`), over which the assembly, the norms and
the diagnostics sum; the per-cell functions are views of it on one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, _integrals, row_entries

# space dimension is fixed to 3; the stabilization scales with h_K**(DIM - 2)
DIM = 3

# face quadrature degree used for the interpolator's bubble moments; this is
# deliberately very high so that the discrete divergence of an interpolant
# tracks the exact divergence down to roundoff (the property that makes the
# enrichment effective for large lambda)
INTERPOLATION_QUAD_DEGREE = 23

# cell and face quadrature degree of the loads, the exact strain norm and the
# consistency diagnostics
QUAD_DEGREE = 4

# the most local-matrix entries (sum over cells of n_loc**2) of one run of
# `operator_chunks`: 1,024 tetrahedra (16 local DOFs) or 291 hexahedra (30)
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class MaterialParams:
    """Lame coefficients and the stabilization scale (defaults to mu)."""

    mu: float
    lam: float
    mu1: float | None = None

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("lambda", self.lam), ("mu1", self.mu1)):
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.mu1 is None:
            object.__setattr__(self, "mu1", float(self.mu))
        if not self.mu1 > 0:
            raise ValueError("mu1 must be positive")

    @property
    def stabilization_scale(self) -> float:
        return float(self.mu1)


class DofMap:
    """DOF layout over a mesh: vertex blocks first, then one bubble per face.

    `dirichlet_faces` is a boolean mask over faces; it must select boundary
    faces only and defaults to the whole boundary.  A vertex is constrained
    iff it lies on at least one Dirichlet face.  With `bubbles_enabled=False`
    every bubble is constrained to zero in addition.
    """

    def __init__(self, mesh: Mesh, bubbles_enabled: bool = True,
                 dirichlet_faces: np.ndarray | None = None):
        self.mesh = mesh
        self.bubbles_enabled = bool(bubbles_enabled)
        if dirichlet_faces is None:
            dirichlet_faces = mesh.face_on_boundary.copy()
        dirichlet_faces = np.asarray(dirichlet_faces, dtype=bool)
        if dirichlet_faces.shape != (mesh.n_faces,):
            raise ValueError("dirichlet_faces must be a boolean mask over faces")
        if np.any(dirichlet_faces & ~mesh.face_on_boundary):
            raise ValueError("dirichlet_faces must select boundary faces only")
        self.dirichlet_faces = dirichlet_faces

        self.n_vertex_dofs = 3 * mesh.n_vertices
        self.n_bubbles = mesh.n_faces
        self.vector_size = self.n_vertex_dofs + self.n_bubbles

        dirichlet_vertices = np.zeros(mesh.n_vertices, dtype=bool)
        on_dirichlet = np.repeat(dirichlet_faces, np.diff(mesh.face_loop_offsets))
        dirichlet_vertices[mesh.face_loop_vertices[on_dirichlet]] = True
        self.dirichlet_vertices = dirichlet_vertices

        mask = np.zeros(self.vector_size, dtype=bool)
        mask[: self.n_vertex_dofs] = np.repeat(dirichlet_vertices, 3)
        if self.bubbles_enabled:
            mask[self.n_vertex_dofs:] = dirichlet_faces
        else:
            mask[self.n_vertex_dofs:] = True
        self.dirichlet_mask = mask
        self.free_indices = np.flatnonzero(~mask)
        self.constrained_indices = np.flatnonzero(mask)

    @property
    def total_dofs(self) -> int:
        """Number of DOFs of the discrete space (bubbles count only when
        enabled; the stored vector always has `vector_size` entries)."""
        if self.bubbles_enabled:
            return self.vector_size
        return self.n_vertex_dofs

    @property
    def n_free(self) -> int:
        return len(self.free_indices)

    def bubble_index(self, fid: int) -> int:
        return self.n_vertex_dofs + fid

    def cell_dofs(self, cid: int) -> np.ndarray:
        """Global indices of the local cell DOFs: the three components of each
        cell vertex (sorted by vertex id), then one bubble per cell face (in
        cell face order)."""
        return local_dofs(self.mesh, cid)

    def zero_function(self) -> "DiscreteFunction":
        return DiscreteFunction(self, np.zeros(self.vector_size))


@dataclass
class DiscreteFunction:
    """Coefficient vector over a DofMap."""

    dofmap: DofMap
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dofmap.vector_size,):
            raise ValueError("coefficient vector has the wrong length")

    def vertex_values(self) -> np.ndarray:
        return self.values[: self.dofmap.n_vertex_dofs].reshape(-1, 3)

    def face_value(self, fid: int) -> float:
        return float(self.values[self.dofmap.bubble_index(fid)])

    def bubble_values(self) -> np.ndarray:
        return self.values[self.dofmap.n_vertex_dofs:]


# -- face operators -----------------------------------------------------------


def _face_averages(mesh: Mesh, vertex_values: np.ndarray, faces) -> np.ndarray:
    """Convex-weight average of `vertex_values` over each face of `faces`."""
    loop, face = row_entries(mesh.face_loop_offsets, faces)
    average = sp.csr_matrix((mesh._face_weights[loop], (face, mesh.face_loop_vertices[loop])),
                            shape=(len(faces), mesh.n_vertices))
    return average @ vertex_values


def face_reconstructions(mesh: Mesh, func: DiscreteFunction, faces=None):
    """Per face of `faces` (default: all faces; k of them) the affine face
    reconstruction: the convex-weight average (k, 3) of the vertex
    displacements, and the constant tangential gradient (k, 3, 3), the sum
    over the edge loop of |e| (average of the two endpoint displacements)
    tensor the in-plane outward edge normal, divided by the face area."""
    faces = np.arange(mesh.n_faces) if faces is None else np.asarray(faces, dtype=int)
    vertex_values = func.vertex_values()
    loop, face = row_entries(mesh.face_loop_offsets, faces)
    vals = vertex_values[mesh.face_loop_vertices[loop]]
    nxt = np.arange(len(loop)) + mesh._loop_next[loop] - loop
    weighted = mesh._edge_lengths[loop, None] * (0.5 * (vals + vals[nxt]))
    gradient = np.add.reduceat(weighted[:, :, None] * mesh._edge_normals[loop, None, :],
                               np.flatnonzero(np.diff(face, prepend=-1)))
    return (_face_averages(mesh, vertex_values, faces),
            gradient / mesh.face_area[faces, None, None])


def face_average(mesh: Mesh, fid: int, func: DiscreteFunction) -> np.ndarray:
    """Convex-weight average of the vertex displacements of a face."""
    return face_reconstructions(mesh, func, [fid])[0][0]


def face_gradient(mesh: Mesh, fid: int, func: DiscreteFunction) -> np.ndarray:
    """Constant 3x3 tangential gradient on a face (see `face_reconstructions`)."""
    return face_reconstructions(mesh, func, [fid])[1][0]


def face_displacement(mesh: Mesh, fid: int, func: DiscreteFunction,
                      points: np.ndarray) -> np.ndarray:
    """Affine displacement reconstruction on a face, evaluated at points."""
    (avg,), (grad,) = face_reconstructions(mesh, func, [fid])
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = (pts - mesh.face_centroid[fid]) @ grad.T + avg
    return out if np.ndim(points) > 1 else out[0]


# -- cell operators -----------------------------------------------------------

# the symmetric part and the trace of a row-major 3x3 gradient, as maps of
# its 9 entries
_SYMMETRIC_PART = 0.5 * (np.eye(9) + np.eye(9)[np.arange(9).reshape(3, 3).T.ravel()])
_TRACE = np.eye(9)[[0, 4, 8]].sum(axis=0, keepdims=True)


def local_dofs(mesh: Mesh, cid: int) -> np.ndarray:
    """Global indices of the local DOFs of cell `cid` (see `DofMap.cell_dofs`)."""
    verts = mesh.cell_vertices[cid]
    vdofs = (3 * verts[:, None] + np.arange(3)).ravel()
    return np.concatenate([vdofs, 3 * mesh.n_vertices + mesh.cell_faces[cid]])


class ReconstructionOperators:
    """The cell reconstructions of `cells` (k of them) as sparse linear maps
    of the entries of the DOF vector on `dofs`, the n DOFs of these cells in
    ascending order, built in one batch from the mesh's CSR arrays:

    - `gradient` (9k, n), built on first use like `fit`: row 9*c + 3*i + j is
      d u_i / d x_j on cell cells[c];
    - `mean` (3k, n): the convex-weight average of the cell vertex values;
    - `fit` (3m, n), one row triple per cell vertex s (m pairs in all):
      v_s - P(x_s), with P the affine cell reconstruction;

    with the scalings `volume` (k,), `fit_scale` (3m,), the h_K**(DIM-2) of
    the cell of each fit row, and `bubble_scale` (n,), zero on vertex DOFs
    and on each bubble the sum of h_K**(DIM-2) over the cells in `cells` of
    its face.  Nothing is stored on the mesh.
    """

    def __init__(self, mesh: Mesh, cells):
        self.mesh = mesh
        self.cells = cells = np.asarray(cells, dtype=int)
        k = len(cells)
        self.volume = mesh.cell_volume[cells]

        self._face_entries, self._cell_of_face = row_entries(mesh.cell_face_offsets, cells)
        faces = mesh.cell_face_ids[self._face_entries]
        entries_v, cell_of_vertex = row_entries(mesh.cell_vertex_offsets, cells)
        self._vertices, vertex_col = np.unique(mesh.cell_vertex_ids[entries_v],
                                               return_inverse=True)
        bubbles, self._bubble_col = np.unique(faces, return_inverse=True)
        self.dofs = np.concatenate([(3 * self._vertices[:, None] + np.arange(3)).ravel(),
                                    3 * mesh.n_vertices + bubbles])
        self.n_dofs, n_vdofs = len(self.dofs), 3 * len(self._vertices)

        # per cell vertex s and component j: the column of v_s,j and the mean row
        component = np.tile(np.arange(3), len(entries_v))
        self._vertex_dof = 3 * np.repeat(vertex_col, 3) + component
        self._mean_row = 3 * np.repeat(cell_of_vertex, 3) + component
        self._offsets = (mesh.positions[mesh.cell_vertex_ids[entries_v]]
                         - mesh.cell_centroid[cells][cell_of_vertex])
        self.mean = sp.csr_matrix(
            (np.repeat(mesh._cell_weights[entries_v], 3), (self._mean_row, self._vertex_dof)),
            shape=(3 * k, self.n_dofs))

        scale = mesh.cell_diameter[cells] ** (DIM - 2)
        self.fit_scale = np.repeat(scale[cell_of_vertex], 3)
        self.bubble_scale = np.zeros(self.n_dofs)
        self.bubble_scale[n_vdofs:] = np.bincount(self._bubble_col,
                                                  weights=scale[self._cell_of_face],
                                                  minlength=len(bubbles))

    @cached_property
    def _face_terms(self):
        """Per face of a cell: its face id, outward normal and |f|/|K|; per
        vertex of its loop: its face, its column among the vertices and |f|/|K|
        times its convex weight."""
        mesh, entries = self.mesh, self._face_entries
        faces = mesh.cell_face_ids[entries]
        n_out = mesh.cell_face_signs[entries, None] * mesh.face_normal[faces]
        coeff = mesh.face_area[faces] / self.volume[self._cell_of_face]
        loop, face_of_vertex = row_entries(mesh.face_loop_offsets, faces)
        weight = coeff[face_of_vertex] * mesh._face_weights[loop]
        loop_col = np.searchsorted(self._vertices, mesh.face_loop_vertices[loop])
        return faces, n_out, coeff, face_of_vertex, loop_col, weight

    @cached_property
    def gradient(self) -> sp.csr_matrix:
        # |f|/|K| (face average + bubble * normal) tensor outward normal,
        # summed over the faces of the cell
        faces, n_out, coeff, face_of_vertex, loop_col, weight = self._face_terms
        cell_of_face, ij = self._cell_of_face, np.arange(9).reshape(3, 3)
        vertex_vals = weight[:, None, None] * n_out[face_of_vertex, None, :]
        bubble_vals = coeff[:, None, None] * np.einsum("fi,fj->fij",
                                                        self.mesh.face_normal[faces], n_out)
        rows = np.concatenate([(9 * cell_of_face[face_of_vertex, None, None] + ij).ravel(),
                               (9 * cell_of_face[:, None, None] + ij).ravel()])
        cols = np.concatenate([(3 * loop_col[:, None, None] + ij // 3).ravel(),
                               np.repeat(3 * len(self._vertices) + self._bubble_col, 9)])
        vals = np.concatenate([np.broadcast_to(vertex_vals, (len(loop_col), 3, 3)).ravel(),
                               bubble_vals.ravel()])
        return sp.csr_matrix((vals, (rows, cols)), shape=(9 * len(self.cells), self.n_dofs))

    @cached_property
    def divergence(self) -> sp.csr_matrix:
        """(k, n): the trace of `gradient`, the divergence of each cell."""
        faces, n_out, coeff, face_of_vertex, loop_col, weight = self._face_terms
        cell_of_face = self._cell_of_face
        rows = np.concatenate([np.repeat(cell_of_face[face_of_vertex], 3), cell_of_face])
        cols = np.concatenate([(3 * loop_col[:, None] + np.arange(3)).ravel(),
                               3 * len(self._vertices) + self._bubble_col])
        vals = np.concatenate([(weight[:, None] * n_out[face_of_vertex]).ravel(),
                               coeff * np.einsum("fi,fi->f", self.mesh.face_normal[faces],
                                                 n_out)])
        return sp.csr_matrix((vals, (rows, cols)), shape=(len(self.cells), self.n_dofs))

    def energy_form(self, strain_weight: float, divergence_weight: float) -> sp.csr_matrix:
        """Matrix of sum_K |K| (a strain(u):strain(v) + b div(u) div(v)), with
        a = `strain_weight`, b = `divergence_weight`: G^T (|K| (a S + b T^T T)) G."""
        block = strain_weight * _SYMMETRIC_PART + divergence_weight * (_TRACE.T @ _TRACE)
        weighted = sp.kron(sp.diags(self.volume), block, format="csr")
        return (self.gradient.T @ (weighted @ self.gradient)).tocsr()

    @cached_property
    def fit(self) -> sp.csr_matrix:
        n_rows, n_means = len(self._vertex_dof), 3 * len(self.cells)
        rows = np.arange(n_rows)
        pick = sp.csr_matrix((np.ones(n_rows), (rows, self._vertex_dof)),
                             shape=(n_rows, self.n_dofs))
        mean_at = sp.csr_matrix((np.ones(n_rows), (rows, self._mean_row)),
                                shape=(n_rows, n_means))
        # (x_s - c_K) . grad P_j: gradient row 9c + 3j + l = 3*(3c + j) + l
        # weighted by (x_s - c_K)_l
        gradient_at = sp.csr_matrix(
            (np.repeat(self._offsets, 3, axis=0).ravel(),
             (np.repeat(rows, 3), (3 * self._mean_row[:, None] + np.arange(3)).ravel())),
            shape=(n_rows, 3 * n_means))
        return (pick - gradient_at @ self.gradient - mean_at @ self.mean).tocsr()

    def stabilization(self) -> sp.csr_matrix:
        """Matrix of S(u, v): the vertex-fit penalty plus the bubble penalty,
        both scaled by h_K**(DIM-2)."""
        return self.fit.T @ sp.diags(self.fit_scale) @ self.fit + sp.diags(self.bubble_scale)

    def stabilization_energy(self, local: np.ndarray):
        """S(v, v) of DOF vectors with entries `local` on `dofs`, evaluated in
        factored form (vertex-fit residual and bubble values squared after
        subtraction) so that near-kernel vectors give exact zeros instead of
        cancellation noise."""
        return self.fit_scale @ (self.fit @ local) ** 2 + self.bubble_scale @ local**2


def operator_chunks(mesh: Mesh):
    """`ReconstructionOperators` over runs of consecutive cells, in order,
    with at most `_CHUNK_ENTRIES` local-matrix entries in all (or one cell,
    where it alone has more), so that the memory the operators and their
    products take does not grow with the mesh."""
    n_loc = 3 * np.diff(mesh.cell_vertex_offsets) + np.diff(mesh.cell_face_offsets)
    ends = np.concatenate([[0], np.cumsum(n_loc**2)])
    lo = 0
    while lo < mesh.n_cells:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _CHUNK_ENTRIES, "right")) - 1)
        yield ReconstructionOperators(mesh, np.arange(lo, hi))
        lo = hi


def cell_fields(mesh: Mesh, values: np.ndarray, stabilization: bool = False):
    """The gradient (n_cells, 3, 3[, s]) and the vertex mean (n_cells, 3[, s])
    on every cell of the DOF vectors `values` (N[, s]), over `operator_chunks`;
    with `stabilization`, also S(v, v) of each vector, from the same walk."""
    gradients, means, energy = [], [], 0
    for ops in operator_chunks(mesh):
        local = values[ops.dofs]
        gradients.append((ops.gradient @ local).reshape((-1, 3, 3) + values.shape[1:]))
        means.append((ops.mean @ local).reshape((-1, 3) + values.shape[1:]))
        if stabilization:
            energy = energy + ops.stabilization_energy(local)
    fields = np.concatenate(gradients), np.concatenate(means)
    return fields + (energy,) if stabilization else fields


@dataclass(frozen=True)
class CellReconstruction:
    """Bundle of local reconstructions on one cell."""

    gradient: np.ndarray
    strain: np.ndarray
    divergence: float
    mean_value: np.ndarray
    centroid: np.ndarray

    def displacement(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = (pts - self.centroid) @ self.gradient.T + self.mean_value
        return out if np.ndim(points) > 1 else out[0]


def cell_gradient_operator(mesh: Mesh, cid: int) -> np.ndarray:
    """Matrix (9, n_loc) mapping local cell DOFs to the row-major entries of
    the constant cell gradient."""
    ops = ReconstructionOperators(mesh, [cid])
    return ops.gradient[:, np.searchsorted(ops.dofs, local_dofs(mesh, cid))].toarray()


def strain_operator(grad_op: np.ndarray) -> np.ndarray:
    """Symmetrize a (9, n_loc) gradient operator."""
    return _SYMMETRIC_PART @ grad_op


def cell_reconstructions(mesh: Mesh, cid: int,
                         func: DiscreteFunction) -> CellReconstruction:
    """Gradient, symmetric strain, divergence, vertex-average displacement and
    the affine displacement reconstruction of a cell."""
    ops = ReconstructionOperators(mesh, [cid])
    grad = (ops.gradient @ func.values[ops.dofs]).reshape(3, 3)
    strain = 0.5 * (grad + grad.T)
    return CellReconstruction(
        gradient=grad,
        strain=strain,
        divergence=float(np.trace(strain)),
        mean_value=ops.mean @ func.values[ops.dofs],
        centroid=mesh.cell_centroid[cid],
    )


def stress(strain: np.ndarray, divergence: float,
           material: MaterialParams) -> np.ndarray:
    """Linear elastic stress 2*mu*strain + lambda*div*I."""
    return 2.0 * material.mu * strain + material.lam * divergence * np.eye(3)


def stabilization_local(mesh: Mesh, cid: int, dofmap: DofMap) -> np.ndarray:
    """Local stabilization Gram matrix over the cell DOFs: the vertex-fit
    penalty plus the bubble penalty, both scaled by h_K**(DIM-2)."""
    ops = ReconstructionOperators(mesh, [cid])
    cols = np.searchsorted(ops.dofs, dofmap.cell_dofs(cid))
    return ops.stabilization()[cols][:, cols].toarray()


def stabilization_energy(mesh: Mesh, func: DiscreteFunction) -> float:
    """Global stabilization energy S(v, v)."""
    return float(cell_fields(mesh, func.values, stabilization=True)[2])


# -- interpolation ------------------------------------------------------------


def face_bubble_moments(mesh: Mesh, field: Callable, face_ids: np.ndarray,
                        vertex_values: np.ndarray,
                        quad_degree: int = INTERPOLATION_QUAD_DEGREE) -> np.ndarray:
    """Bubble DOFs of the interpolant on the given faces: the face-mean normal
    component of the field minus the normal component of the weighted vertex
    average."""
    face_ids = np.asarray(face_ids, dtype=int)
    normal = mesh.face_normal[face_ids]
    flux = _integrals(mesh, "face", quad_degree,
                      lambda points, at: np.einsum("pi,pi->p", field(points), normal[at]),
                      face_ids)
    average = _face_averages(mesh, vertex_values, face_ids)
    return flux / mesh.face_area[face_ids] - np.einsum("fi,fi->f", average, normal)


def interpolate(mesh: Mesh, dofmap: DofMap, field: Callable,
                quad_degree: int = INTERPOLATION_QUAD_DEGREE) -> DiscreteFunction:
    """Interpolate a continuous vector field: vertex DOFs are point values,
    bubble DOFs are face-mean normal-flux corrections.  With bubbles disabled
    the bubble entries are left at zero."""
    values = np.zeros(dofmap.vector_size)
    vertex_values = np.asarray(field(mesh.positions), dtype=float)
    if vertex_values.shape != (mesh.n_vertices, 3):
        raise ValueError("field must map (n,3) points to (n,3) vectors")
    values[: dofmap.n_vertex_dofs] = vertex_values.ravel()
    if dofmap.bubbles_enabled:
        face_ids = np.arange(mesh.n_faces)
        values[dofmap.n_vertex_dofs:] = face_bubble_moments(
            mesh, field, face_ids, vertex_values, quad_degree
        )
    return DiscreteFunction(dofmap, values)
