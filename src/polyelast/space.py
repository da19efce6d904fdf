"""Enriched degrees of freedom and local reconstruction operators.

The discrete space carries three displacement components per vertex plus one
scalar bubble per face (a correction of the normal displacement flux).  The
coefficient vector always stores all 3*n_v + n_f entries; disabling bubbles
constrains every bubble to zero through the same masking path used for
Dirichlet conditions, so that both variants share one assembly code path.

All reconstruction operators are linear in the DOF vector.  Besides the
point-value operations, this module exposes the matrices of those linear maps
over the local cell DOFs, which is what the assembly consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .mesh import Mesh

# space dimension is fixed to 3; the stabilization scales with h_K**(DIM - 2)
DIM = 3

# face quadrature degree used for the interpolator's bubble moments; this is
# deliberately very high so that the discrete divergence of an interpolant
# tracks the exact divergence down to roundoff (the property that makes the
# enrichment effective for large lambda)
INTERPOLATION_QUAD_DEGREE = 23


@dataclass(frozen=True)
class MaterialParams:
    """Lame coefficients and the stabilization scale (defaults to mu)."""

    mu: float
    lam: float
    mu1: float | None = None

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.mu1 is None:
            object.__setattr__(self, "mu1", float(self.mu))

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

    def vertex_slice(self, vid: int) -> slice:
        return slice(3 * vid, 3 * vid + 3)

    def bubble_index(self, fid: int) -> int:
        return self.n_vertex_dofs + fid

    def cell_dofs(self, cid: int) -> np.ndarray:
        """Global indices of the local cell DOFs: the three components of each
        cell vertex (sorted by vertex id), then one bubble per cell face (in
        cell face order)."""
        verts = self.mesh.cell_vertices[cid]
        vdofs = (3 * verts[:, None] + np.arange(3)).ravel()
        bdofs = self.n_vertex_dofs + self.mesh.cell_faces[cid]
        return np.concatenate([vdofs, bdofs])

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

    def vertex_value(self, vid: int) -> np.ndarray:
        return self.values[self.dofmap.vertex_slice(vid)]

    def vertex_values(self) -> np.ndarray:
        return self.values[: self.dofmap.n_vertex_dofs].reshape(-1, 3)

    def face_value(self, fid: int) -> float:
        return float(self.values[self.dofmap.bubble_index(fid)])

    def bubble_values(self) -> np.ndarray:
        return self.values[self.dofmap.n_vertex_dofs:]

    def copy(self) -> "DiscreteFunction":
        return DiscreteFunction(self.dofmap, self.values.copy())


# -- face operators -----------------------------------------------------------


def face_average(mesh: Mesh, fid: int, func: DiscreteFunction) -> np.ndarray:
    """Convex-weight average of the vertex displacements of a face."""
    loop = mesh.face_loops[fid]
    return mesh.face_weights[fid] @ func.vertex_values()[loop]


def face_gradient(mesh: Mesh, fid: int, func: DiscreteFunction) -> np.ndarray:
    """Constant 3x3 tangential gradient on a face: sum over the edge loop of
    |e| (average of the two endpoint displacements) tensor the in-plane
    outward edge normal, divided by the face area."""
    loop = mesh.face_loops[fid]
    vals = func.vertex_values()[loop]
    avg = 0.5 * (vals + np.roll(vals, -1, axis=0))
    weighted = mesh.face_edge_lengths[fid][:, None] * avg
    return weighted.T @ mesh.face_edge_normals[fid] / mesh.face_area[fid]


def face_displacement(mesh: Mesh, fid: int, func: DiscreteFunction,
                      points: np.ndarray) -> np.ndarray:
    """Affine displacement reconstruction on a face, evaluated at points."""
    grad = face_gradient(mesh, fid, func)
    avg = face_average(mesh, fid, func)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = (pts - mesh.face_centroid[fid]) @ grad.T + avg
    return out if np.ndim(points) > 1 else out[0]


# -- cell operators -----------------------------------------------------------


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
    the constant cell gradient.  Cached per mesh; do not mutate the result."""
    cache = mesh._operator_cache
    cached = cache.get(("grad", cid))
    if cached is not None:
        return cached
    verts = mesh.cell_vertices[cid]
    vpos = {v: i for i, v in enumerate(verts)}
    n_loc = 3 * len(verts) + len(mesh.cell_faces[cid])
    op = np.zeros((9, n_loc))
    vol = mesh.cell_volume[cid]
    for fpos, (fid, sign) in enumerate(zip(mesh.cell_faces[cid], mesh.cell_signs[cid])):
        area = mesh.face_area[fid]
        n_out = sign * mesh.face_normal[fid]
        coeff = area / vol
        for s, w in zip(mesh.face_loops[fid], mesh.face_weights[fid]):
            col = 3 * vpos[s]
            for i in range(3):
                op[3 * i: 3 * i + 3, col + i] += coeff * w * n_out
        bubble_col = 3 * len(verts) + fpos
        op[:, bubble_col] += coeff * np.outer(mesh.face_normal[fid], n_out).ravel()
    op.flags.writeable = False
    cache[("grad", cid)] = op
    return op


def strain_operator(grad_op: np.ndarray) -> np.ndarray:
    """Symmetrize a (9, n_loc) gradient operator."""
    g = grad_op.reshape(3, 3, -1)
    return (0.5 * (g + g.transpose(1, 0, 2))).reshape(9, -1)


def divergence_operator(grad_op: np.ndarray) -> np.ndarray:
    """Row (n_loc,) mapping local DOFs to the cell divergence."""
    return grad_op[0] + grad_op[4] + grad_op[8]


def cell_mean_operator(mesh: Mesh, cid: int) -> np.ndarray:
    """Matrix (3, n_loc) mapping local DOFs to the weighted vertex average.
    Cached per mesh; do not mutate the result."""
    cache = mesh._operator_cache
    cached = cache.get(("mean", cid))
    if cached is not None:
        return cached
    verts = mesh.cell_vertices[cid]
    n_loc = 3 * len(verts) + len(mesh.cell_faces[cid])
    op = np.zeros((3, n_loc))
    for i, w in enumerate(mesh.cell_weights[cid]):
        op[:, 3 * i: 3 * i + 3] = w * np.eye(3)
    op.flags.writeable = False
    cache[("mean", cid)] = op
    return op


def cell_reconstructions(mesh: Mesh, cid: int,
                         func: DiscreteFunction) -> CellReconstruction:
    """Gradient, symmetric strain, divergence, vertex-average displacement and
    the affine displacement reconstruction of a cell."""
    dofs = func.dofmap.cell_dofs(cid)
    local = func.values[dofs]
    grad_op = cell_gradient_operator(mesh, cid)
    grad = (grad_op @ local).reshape(3, 3)
    strain = 0.5 * (grad + grad.T)
    mean = cell_mean_operator(mesh, cid) @ local
    return CellReconstruction(
        gradient=grad,
        strain=strain,
        divergence=float(np.trace(strain)),
        mean_value=mean,
        centroid=mesh.cell_centroid[cid],
    )


def stress(strain: np.ndarray, divergence: float,
           material: MaterialParams) -> np.ndarray:
    """Linear elastic stress 2*mu*strain + lambda*div*I."""
    return 2.0 * material.mu * strain + material.lam * divergence * np.eye(3)


def displacement_fit_operator(mesh: Mesh, cid: int) -> np.ndarray:
    """Matrix (3*n_vK, n_loc) of the map  DOFs -> (v_s - P(x_s))_s  where P is
    the affine cell reconstruction evaluated at the cell vertices.  Cached per
    mesh; do not mutate the result."""
    cache = mesh._operator_cache
    cached = cache.get(("fit", cid))
    if cached is not None:
        return cached
    verts = mesh.cell_vertices[cid]
    grad_op = cell_gradient_operator(mesh, cid)
    mean_op = cell_mean_operator(mesh, cid)
    n_loc = grad_op.shape[1]
    op = np.zeros((3 * len(verts), n_loc))
    centroid = mesh.cell_centroid[cid]
    g = grad_op.reshape(3, 3, n_loc)
    for i, vid in enumerate(verts):
        rows = slice(3 * i, 3 * i + 3)
        op[rows, 3 * i: 3 * i + 3] = np.eye(3)
        dx = mesh.positions[vid] - centroid
        op[rows] -= np.einsum("jkl,k->jl", g, dx) + mean_op
    op.flags.writeable = False
    cache[("fit", cid)] = op
    return op


def stabilization_local(mesh: Mesh, cid: int, dofmap: DofMap) -> np.ndarray:
    """Local stabilization Gram matrix over the cell DOFs: the vertex-fit
    penalty plus the bubble penalty, both scaled by h_K**(DIM-2)."""
    fit = displacement_fit_operator(mesh, cid)
    hk = mesh.cell_diameter[cid]
    scale = hk ** (DIM - 2)
    n_loc = fit.shape[1]
    mat = scale * (fit.T @ fit)
    n_vdofs = 3 * len(mesh.cell_vertices[cid])
    mat[np.arange(n_vdofs, n_loc), np.arange(n_vdofs, n_loc)] += scale
    return mat


def cell_stabilization_energy(mesh: Mesh, cid: int,
                              func: DiscreteFunction) -> float:
    """S_K(v, v), evaluated in factored form (vertex-fit residual and bubble
    values squared after subtraction) so that near-kernel vectors give exact
    zeros instead of cancellation noise."""
    local = func.values[func.dofmap.cell_dofs(cid)]
    fit_resid = displacement_fit_operator(mesh, cid) @ local
    bubbles = local[3 * len(mesh.cell_vertices[cid]):]
    scale = mesh.cell_diameter[cid] ** (DIM - 2)
    return float(scale * (fit_resid @ fit_resid + bubbles @ bubbles))


def stabilization_energy(mesh: Mesh, func: DiscreteFunction,
                         cells: Iterable[int] | None = None) -> float:
    """Global (or per-cell-subset) stabilization energy S(v, v)."""
    if cells is None:
        cells = range(mesh.n_cells)
    return float(sum(cell_stabilization_energy(mesh, cid, func) for cid in cells))


# -- interpolation ------------------------------------------------------------


def face_bubble_moments(mesh: Mesh, field: Callable, face_ids: np.ndarray,
                        vertex_values: np.ndarray,
                        quad_degree: int = INTERPOLATION_QUAD_DEGREE) -> np.ndarray:
    """Bubble DOFs of the interpolant on the given faces: the face-mean normal
    component of the field minus the normal component of the weighted vertex
    average."""
    out = np.zeros(len(face_ids))
    if len(face_ids) == 0:
        return out
    pts_all = []
    slices = []
    start = 0
    for fid in face_ids:
        pts, wts = mesh.face_quadrature(fid, quad_degree)
        pts_all.append(pts)
        slices.append((start, start + len(wts), wts))
        start += len(wts)
    values = np.asarray(field(np.vstack(pts_all)), dtype=float)
    for k, fid in enumerate(face_ids):
        lo, hi, wts = slices[k]
        normal = mesh.face_normal[fid]
        mean_flux = (values[lo:hi] @ normal) @ wts / mesh.face_area[fid]
        loop = mesh.face_loops[fid]
        avg = mesh.face_weights[fid] @ vertex_values[loop]
        out[k] = mean_flux - avg @ normal
    return out


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
