"""Global system assembly: stiffness, stabilization, loads, Dirichlet lifting.

The bilinear form of the scheme is, cell by cell,

    |K| * (2*mu * strain(u):strain(v) + lambda * div(u)*div(v)) + mu1 * S_K(u,v)

so the global matrix is A0 + lambda*K, A0 = 2*mu*Gs^T W Gs + mu1*(F^T H F + H_b)
and K = D^T W D, in the sparse operators of `ReconstructionOperators`: the
gradient G, the divergence theorem over the face traces, its symmetric part
Gs, the vertex fit F, the cell volumes W and the h_K scalings H and H_b,
summed over the chunks of cells of `operator_chunks`; D is the trace of G.
The volume load acts through the piecewise-constant displacement
reconstruction M (`cell_mean_operator`), so each cell vertex receives its
convex weight times the cell integral of the force and bubbles receive no
volume load; a force with a trailing axis gives one load per column.  Dirichlet
values are imposed by lifting: constrained DOFs are filled from the boundary
data (vertex point values, interpolator bubble moments) and eliminated from
the reduced system.

The matrix is assembled once per mesh as a `LambdaSplit` (`assemble_split`):
A0, from one walk over the chunks, and the divergence map D of K = D^T W D,
the balance of face fluxes, over all cells at once (`divergence_operator`).
From the split at one lambda, `reduce_system` alone chooses the reduced system:
with bubbles and lambda > 0 the split with its lambda-free loads, on whose
mixed system [A0, D^T W; W D, -W/lambda] the solver works, so that
A0 + lambda*K is formed only where it is read; the penalty matrix
A0_ff + lambda*K_ff in the no-bubble ablation, from free-free blocks formed
once for the split; and A0_ff itself at lambda = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .mesh import Mesh, _integrals, row_entries
from .space import (
    QUAD_DEGREE,
    DofMap,
    MaterialParams,
    ReconstructionOperators,
    cell_face_balance,
    cell_mean_operator,
    cell_runs,
    face_bubble_moments,
    local_dofs,
    operator_chunks,
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


@dataclass(frozen=True)
class LambdaSplit:
    """The matrix A0 + lam * D^T W D kept split: unconstrained (`full_a0`,
    `full_divergence`, D of shape (n_cells, N)), with W = diag(`volume`), the
    cell volumes, and the shear modulus `mu`, for the `free` DOFs of a DofMap.
    `load_u` and `load_p` are the lambda-free loads of a reduced system:
    b = load_u + lam * D_f^T load_p.  D_f (`divergence`), the lambda-free part
    `mixed` = [A0_ff, D_f^T W; W D_f, 0] of the mixed matrix and K = D^T W D
    are formed when first read, once for the split and every `at` of it."""

    full_a0: sp.csr_matrix
    full_divergence: sp.csr_matrix
    volume: np.ndarray
    mu: float
    free: np.ndarray
    lam: float = 0.0
    load_u: np.ndarray | None = None
    load_p: np.ndarray | None = None
    _formed: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, full_a0: sp.csr_matrix, full_divergence: sp.csr_matrix,
              volume: np.ndarray, mu: float, dofmap: DofMap) -> "LambdaSplit":
        """The split on the free DOFs of `dofmap`, reduced once for every lambda."""
        return cls(full_a0, full_divergence, volume, float(mu), dofmap.free_indices)

    def at(self, lam: float) -> "LambdaSplit":
        """The same split at another lambda (the blocks are shared)."""
        return replace(self, lam=float(lam))

    def _once(self, key, form: Callable):
        if key not in self._formed:
            self._formed[key] = form()
        return self._formed[key]

    @property
    def divergence(self) -> sp.csr_matrix:
        return self._once("divergence", lambda: self.full_divergence[:, self.free].tocsr())

    @property
    def mixed(self) -> sp.csr_matrix:
        def form():
            weighted = (sp.diags(self.volume) @ self.divergence).tocsr()
            return sp.bmat([[self.full_a0[self.free][:, self.free], weighted.T],
                            [weighted, None]], format="csr")
        return self._once("mixed", form)

    @property
    def a0(self) -> sp.csr_matrix:
        """A0_ff: the leading block of `mixed` where that is formed (the
        solver's), otherwise a block of its own (the no-bubble ablation's)."""
        if "mixed" in self._formed:
            n = len(self.free)
            return self.mixed[:n, :n]
        return self._once("a0", lambda: self.full_a0[self.free][:, self.free].tocsr())

    def penalty_matrix(self, full: bool = False) -> sp.csr_matrix:
        """A0 + lam * D^T W D, on the free DOFs (A0_ff + lam * K_ff, from
        blocks formed once for the split) or (`full`) unconstrained."""
        a0, d = (self.full_a0, self.full_divergence) if full else (self.a0, self.divergence)
        if self.lam == 0:
            return a0
        k = self._once(("k", full), lambda: d.T @ sp.diags(self.volume) @ d)
        return (a0 + self.lam * k).tocsr()

    def coupling(self) -> sp.csr_matrix:
        """A0 + lam * D^T W D on the free rows and the constrained columns,
        which carries the lifting into the load, from blocks formed once for
        the split; each entry and each row sum rounds as in the unconstrained
        matrix."""
        constrained = self._once("constrained", lambda: np.setdiff1d(
            np.arange(self.full_a0.shape[1]), self.free))
        a0 = self._once("a0_fc", lambda: self.full_a0[self.free][:, constrained].tocsr())
        if self.lam == 0:
            return a0
        k = self._once("k_fc", lambda: self.divergence.T @ sp.diags(self.volume)
                       @ self.full_divergence[:, constrained])
        return (a0 + self.lam * k).tocsr()


class SparseSystem:
    """Reduced SPD system with its lifting.

    `matrix` is the free-free block in CSR form, `load` the reduced right-hand
    side, `lifting` the full-length vector holding the Dirichlet DOF values.
    `full_matrix` keeps the unconstrained operator for energy checks and for
    recovering reduced right-hand sides.  A system reduced from a
    `LambdaSplit` (`source`) may be given no matrices: they are formed from
    the split when first read.  `split` is that split with its loads where
    the system is solved on the mixed form.
    """

    def __init__(self, matrix: sp.csr_matrix | None, load: np.ndarray,
                 lifting: np.ndarray, free_indices: np.ndarray,
                 constrained_indices: np.ndarray, dofmap: DofMap,
                 full_matrix: sp.csr_matrix | None, full_load: np.ndarray,
                 split: LambdaSplit | None = None, source: LambdaSplit | None = None):
        self._source = split if source is None else source
        if self._source is None and (matrix is None or full_matrix is None):
            raise AssemblyError("a system without a split needs its matrices")
        if matrix is not None:
            self.matrix = matrix
        if full_matrix is not None:
            self.full_matrix = full_matrix
        self.load = load
        self.lifting = lifting
        self.free_indices = free_indices
        self.constrained_indices = constrained_indices
        self.dofmap = dofmap
        self.full_load = full_load
        self.split = split

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return self._source.penalty_matrix()

    @cached_property
    def full_matrix(self) -> sp.csr_matrix:
        return self._source.penalty_matrix(full=True)

    @property
    def n_free(self) -> int:
        return len(self.free_indices)


def _matrix(ops: ReconstructionOperators, material: MaterialParams) -> sp.csr_matrix:
    """The matrix A0 + lambda*K of the bilinear form over the cells of `ops`,
    on their DOFs `ops.dofs`."""
    return (ops.energy_form(2.0 * material.mu, material.lam)
            + material.stabilization_scale * ops.stabilization()).tocsr()


def assemble_matrix(mesh: Mesh, dofmap: DofMap,
                    material: MaterialParams) -> sp.csr_matrix:
    """Unconstrained global matrix, summed over `operator_chunks` as a binary
    counter adds: only sums of equally many chunks are added, so every entry
    is copied O(log n) times and the partial sums stay near the total."""
    size = 3 * mesh.n_vertices + mesh.n_faces
    partial = []  # the sums of 2**j chunks, j falling
    for n, ops in enumerate(operator_chunks(mesh), 1):
        local = _matrix(ops, material)  # ascending `ops.dofs`: rows and columns keep their order
        indptr = np.zeros(size + 1, dtype=local.indptr.dtype)
        indptr[ops.dofs + 1] = np.diff(local.indptr)
        term = sp.csr_matrix((local.data, ops.dofs[local.indices], np.cumsum(indptr)),
                             shape=(size, size))
        while n % 2 == 0:
            term, n = partial.pop() + term, n // 2
        partial.append(term)
    return sum(reversed(partial[:-1]), start=partial[-1]).tocsr()


def local_matrix(mesh: Mesh, cid: int, material: MaterialParams,
                 dofmap: DofMap) -> np.ndarray:
    """Local stiffness + stabilization matrix over the cell DOFs."""
    ops = ReconstructionOperators(mesh, [cid])
    cols = np.searchsorted(ops.dofs, dofmap.cell_dofs(cid))
    return _matrix(ops, material)[cols][:, cols].toarray()


def local_load(mesh: Mesh, cid: int, body_force: Callable | None) -> np.ndarray:
    """Local volume load: each vertex receives its convex weight times the
    cell integral of the force; bubbles receive zero."""
    dofs = local_dofs(mesh, cid)
    if body_force is None:
        return np.zeros(len(dofs))
    ops = ReconstructionOperators(mesh, [cid])
    integral = _integrals(mesh, "cell", QUAD_DEGREE, lambda points, at: body_force(points), [cid])
    return (ops.mean.T @ integral.ravel())[np.searchsorted(ops.dofs, dofs)]


def local_system(mesh: Mesh, cid: int, material: MaterialParams, dofmap: DofMap,
                 body_force: Callable | None):
    """Local (matrix, load) pair over the cell DOFs."""
    return local_matrix(mesh, cid, material, dofmap), local_load(mesh, cid, body_force)


def _neumann_loads(mesh: Mesh, faces: np.ndarray, traction: Callable, dofmap: DofMap):
    """Surface-load contributions of the boundary faces `faces`: the vertex
    DOFs of their loops, face by face, then their bubbles, with the values,
    (m, s) for a traction with a trailing axis, (n, 3, s)."""
    normal = mesh.face_normal[faces]
    outward = mesh.face_cell_signs[faces, :1] * normal
    centroid = mesh.face_centroid[faces]

    def moments(points, at):
        g = np.asarray(traction(points, outward[at]), dtype=float)
        lever = np.column_stack([np.ones(len(points)), points - centroid[at]])
        return g[:, :, None] * lever.reshape((len(points), 1, 4) + (1,) * (g.ndim - 2))

    # per face the integral of g and G = int g tensor (x - centroid)
    integrals = _integrals(mesh, "face", QUAD_DEGREE, moments, faces, rank=2)
    loop, face = row_entries(mesh.face_loop_offsets, faces)
    vertices = mesh.face_loop_vertices[loop]
    dofs = np.concatenate([(3 * vertices[:, None] + np.arange(3)).ravel(),
                           dofmap.n_vertex_dofs + faces])
    columns = []
    for column in np.moveaxis(integrals.reshape(len(faces), 3, 4, -1), 3, 0):
        g_total, g_moment = column[:, :, 0], column[:, :, 1:]
        # int g . (grad_sigma v)(x - centroid) = G : grad_sigma v, and grad_sigma
        # gives each edge's two endpoints |e| / (2 |f|) times its outward normal
        edge = ((mesh._edge_lengths[loop] / (2.0 * mesh.face_area[faces][face]))[:, None]
                * np.einsum("eij,ej->ei", g_moment[face], mesh._edge_normals[loop]))
        vertex_loads = mesh._face_weights[loop, None] * g_total[face] + edge
        vertex_loads[np.arange(len(loop)) + mesh._loop_next[loop] - loop] += edge
        columns.append(np.concatenate([vertex_loads.ravel(),
                                       np.einsum("fi,fi->f", g_total, normal)]))
    return dofs, np.stack(columns, axis=-1).reshape((len(dofs),) + integrals.shape[3:])


def neumann_load(mesh: Mesh, fid: int, traction: Callable, dofmap: DofMap):
    """Surface-load contributions of one Neumann face.

    Vertex DOFs receive the face integral of the traction against the affine
    face reconstruction; the face bubble receives the integral of the normal
    traction component.  Returns (global dof indices, values).
    """
    if not mesh.face_on_boundary[fid]:
        raise AssemblyError(f"face {fid} is not a boundary face")
    return _neumann_loads(mesh, np.array([fid]), traction, dofmap)


def divergence_matrix(mesh: Mesh) -> sp.csr_matrix:
    """The lambda part K = D^T W D of the unconstrained global matrix, with D
    the `divergence_operator` and W the cell volumes."""
    d = divergence_operator(mesh)
    return (d.T @ sp.diags(mesh.cell_volume) @ d).tocsr()


def divergence_operator(mesh: Mesh) -> sp.csr_matrix:
    """D (n_cells, N), the divergence of every cell as a map of the DOF vector
    (K = D^T W D): the balance of its face fluxes W^-1 C Phi, the trace of G by
    the divergence theorem.  Phi (n_faces, N) maps the DOF vector to the fluxes
    |f| (n_f . sum_v w_fv u_v + b_f); C holds the signs of each cell's faces."""
    face = np.repeat(np.arange(mesh.n_faces), np.diff(mesh.face_loop_offsets))
    bubbles = 3 * mesh.face_loop_offsets[1:]  # each face's bubble after its vertex entries
    data = np.insert(((mesh.face_area[face] * mesh._face_weights)[:, None]
                      * mesh.face_normal[face]).ravel(), bubbles, mesh.face_area)
    # int32, the index type scipy keeps below 2**31 DOFs, so that it makes no copy
    indices = np.insert((3 * mesh.face_loop_vertices[:, None] + np.arange(3)).astype(np.int32)
                        .ravel(), bubbles, 3 * mesh.n_vertices + np.arange(mesh.n_faces))
    flux = sp.csr_matrix(
        (data, indices, 3 * mesh.face_loop_offsets + np.arange(mesh.n_faces + 1)),
        shape=(mesh.n_faces, 3 * mesh.n_vertices + mesh.n_faces))
    return cell_face_balance(mesh) @ flux


def assemble_load(mesh: Mesh, dofmap: DofMap, bcs: BoundaryConditions,
                  body_force: Callable | None) -> np.ndarray:
    """Unconstrained load vector: volume force plus Neumann surface loads.
    The volume load is M^T (cell integrals of the force), M the
    `cell_mean_operator`, summed over the `cell_runs` as the matrix is: each
    vertex receives its convex weight times the cell integral, and bubbles
    receive zero.  Fields with a trailing axis, (n, 3, s), give one load per
    column, (N, s), each as it would be alone."""
    loads = np.zeros(dofmap.vector_size)
    if body_force is not None:
        integrals = _integrals(mesh, "cell", QUAD_DEGREE, lambda points, at: body_force(points),
                               rank=1)
        tail, mean = integrals.shape[2:], cell_mean_operator(mesh)
        loads = np.zeros((dofmap.vector_size,) + tail)
        vertex_loads = loads[: dofmap.n_vertex_dofs].reshape(mesh.n_vertices, -1)
        for lo, hi in cell_runs(mesh):
            vertex_loads += mean[lo:hi].T @ integrals[lo:hi].reshape(hi - lo, -1)
    elif bcs.neumann_data is not None:
        # the fields' trailing axis, from a traction at no point: there may be no Neumann face
        tail = np.shape(bcs.neumann_data(np.empty((0, 3)), np.empty((0, 3))))[2:]
        loads = np.zeros((dofmap.vector_size,) + tail)
    faces = bcs.neumann_face_ids(mesh)
    if bcs.neumann_data is not None and len(faces):
        dofs, values = _neumann_loads(mesh, faces, bcs.neumann_data, dofmap)
        columns, values = loads.reshape(dofmap.vector_size, -1), values.reshape(len(dofs), -1)
        for k in range(values.shape[1]):
            columns[:, k] += np.bincount(dofs, weights=values[:, k], minlength=len(columns))
    return loads


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


def reduce_system(full_matrix: sp.csr_matrix | LambdaSplit, full_load: np.ndarray,
                  lifting: np.ndarray, dofmap: DofMap) -> SparseSystem:
    """Eliminate constrained DOFs by lifting.  Given a `LambdaSplit` (built on
    `dofmap`) for the matrix: with bubbles and lambda > 0 the system carries
    the split with its lambda-free loads, load = load_u + lambda D_f^T load_p,
    and forms no matrix; otherwise its matrix is A0_ff + lambda*K_ff from
    the split's blocks (the no-bubble ablation), or A0_ff at lambda = 0, its
    lifting enters the load through the split's `coupling`, and the
    unconstrained matrix is formed when read."""
    free = dofmap.free_indices
    if isinstance(full_matrix, LambdaSplit):
        split = full_matrix
        if dofmap.bubbles_enabled and split.lam > 0:
            load_u = full_load[free] - (split.full_a0 @ lifting)[free]
            load_p = -split.volume * (split.full_divergence @ lifting)
            return SparseSystem(
                None, load_u + split.lam * (split.divergence.T @ load_p), lifting, free,
                dofmap.constrained_indices, dofmap, None, full_load,
                split=replace(split, load_u=load_u, load_p=load_p))
        load = full_load[free] - split.coupling() @ lifting[dofmap.constrained_indices]
        return SparseSystem(split.penalty_matrix(), load, lifting, free,
                            dofmap.constrained_indices, dofmap, None, full_load, source=split)
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


def assemble_split(mesh: Mesh, dofmap: DofMap, material: MaterialParams) -> LambdaSplit:
    """The `LambdaSplit` of the matrix on `dofmap`, at lambda = 0: A0
    (`assemble_matrix` at lambda = 0) and D (`divergence_operator`)."""
    a0 = assemble_matrix(mesh, dofmap, replace(material, lam=0.0))
    return LambdaSplit.build(a0, divergence_operator(mesh), mesh.cell_volume, material.mu,
                             dofmap)


def assemble(mesh: Mesh, dofmap: DofMap, material: MaterialParams,
             bcs: BoundaryConditions, body_force: Callable | None = None) -> SparseSystem:
    """Assemble the reduced linear system of the scheme, from the split of
    `assemble_split` at the lambda of `material`, with the load and the
    lifting of `bcs` and `body_force`."""
    check_setup(mesh, dofmap, bcs)
    split = assemble_split(mesh, dofmap, material).at(material.lam)
    return reduce_lifted(split, assemble_load(mesh, dofmap, bcs, body_force),
                         dirichlet_lifting(mesh, dofmap, bcs), dofmap)


def check_setup(mesh: Mesh, dofmap: DofMap, bcs: BoundaryConditions):
    """The checks of `assemble` that depend only on the mesh and the boundary
    tags: valid tags, agreeing with the DofMap, and a Dirichlet vertex in
    every connected component."""
    bcs.check(mesh)
    if not np.array_equal(dofmap.dirichlet_faces, np.asarray(bcs.dirichlet_faces,
                                                             dtype=bool)):
        raise AssemblyError("DofMap and BoundaryConditions disagree on the "
                            "Dirichlet faces")
    check_dirichlet_coverage(mesh, dofmap)


def reduce_lifted(full_matrix: sp.csr_matrix | LambdaSplit, full_load: np.ndarray,
                  lifting: np.ndarray, dofmap: DofMap) -> SparseSystem:
    """`reduce_system`, once the load and the lifting are found finite."""
    if not np.isfinite(lifting).all() or not np.isfinite(full_load).all():
        raise AssemblyError("non-finite value in boundary data or load")
    return reduce_system(full_matrix, full_load, lifting, dofmap)
