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
the balance of face fluxes, each row written on its cell's own DOFs in
ascending order (`divergence_operator`).
The split keeps one copy of A0: it cuts from A0 and D, in runs of rows, only
the blocks its reductions read, and neither A0 nor D outlives the cut.  With
bubbles it forms the mixed matrix [A0_ff, D_f^T W; W D_f, 0] directly in
CSR, as `sp.bmat` would but without its COO copy; without, it keeps A0_ff;
on both paths A0_fc and the free and constrained columns of D, which carry
the lifting.  From the split at one lambda, `reduce_system` forms one
reduced load on every path, load_u + lambda*D_f^T load_p, from the
lambda-free loads of the lifting.  With bubbles and lambda > 0 the system
carries the split with these loads, on whose mixed system
[A0, D^T W; W D, -W/lambda] the solver works; otherwise it is solved on the
penalty matrix A0_ff + lambda*K_ff (the no-bubble ablation) or on A0_ff
(lambda = 0).  Either matrix is formed from the split only where it is read,
K_ff once for the split, and the unconstrained matrix, which only energy
checks read, is re-assembled from the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .mesh import Mesh, _integrals, _runs, row_entries
from .space import (
    QUAD_DEGREE,
    DofMap,
    MaterialParams,
    ReconstructionOperators,
    _vertex_values,
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


# the most entries of A0 cut into the blocks of a `LambdaSplit` in one run of rows
_CUT_ENTRIES = 1 << 14


@dataclass(frozen=True)
class LambdaSplit:
    """The matrix A0 + lam * D^T W D kept split on the `free` DOFs of a
    DofMap, with D (n_cells, N) the divergence map, W = diag(`volume`) the
    cell volumes and `mu` the shear modulus.  The split keeps only the
    blocks that its reductions read, cut once from A0 and D by `build`:
    on the mixed path (bubbles) `mixed` = [A0_ff, D_f^T W; W D_f, 0], the
    lambda-free part of the mixed matrix, whose leading block is A0_ff; in
    the no-bubble ablation A0_ff itself (`a0_ff`); on both, A0_fc (`a0_fc`,
    free rows, constrained columns), which carries the lifting, and the free
    and constrained columns D_f and D_c of D (`divergence`, `divergence_c`).
    No N x N matrix is kept: `assembled_nnz` counts the entries of the A0
    and D cut, and `full`, where given, re-assembles them when the
    unconstrained matrix is read (`penalty_matrix(full=True)`).
    `load_u` and `load_p` are the lambda-free loads of a reduced system:
    b = load_u + lam * D_f^T load_p.  K_ff of K = D^T W D is formed when
    first read, once for the split and every `at` of it."""

    volume: np.ndarray
    mu: float
    free: np.ndarray
    mixed: sp.csr_matrix | None
    a0_ff: sp.csr_matrix | None
    a0_fc: sp.csr_matrix
    divergence: sp.csr_matrix
    divergence_c: sp.csr_matrix
    assembled_nnz: tuple[int, int]
    lam: float = 0.0
    load_u: np.ndarray | None = None
    load_p: np.ndarray | None = None
    full: Callable | None = field(default=None, repr=False, compare=False)
    _formed: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, a0: sp.csr_matrix, divergence: sp.csr_matrix,
              volume: np.ndarray, mu: float, dofmap: DofMap) -> "LambdaSplit":
        """The split on the free DOFs of `dofmap`, reduced once for every
        lambda: the blocks cut from A0 `a0` and D `divergence`, with `mixed`
        where the map has bubbles (or, as an all-free map, no bubble flag)
        and A0_ff where it has none."""
        free = dofmap.free_indices
        constrained = np.ones(a0.shape[1], dtype=bool)
        constrained[free] = False
        constrained = np.flatnonzero(constrained)
        on_mixed = getattr(dofmap, "bubbles_enabled", True)
        d_f, d_c = divergence[:, free].tocsr(), divergence[:, constrained].tocsr()
        leading, a0_fc = _cut(a0, free, d_f.multiply(volume[:, None]).tocsr() if on_mixed else None)
        return cls(volume, float(mu), free, leading if on_mixed else None,
                   None if on_mixed else leading, a0_fc, d_f, d_c, (a0.nnz, divergence.nnz))

    def at(self, lam: float) -> "LambdaSplit":
        """The same split at another lambda (the blocks are shared)."""
        return replace(self, lam=float(lam))

    def _once(self, key, form: Callable):
        if key not in self._formed:
            self._formed[key] = form()
        return self._formed[key]

    @property
    def a0(self) -> sp.csr_matrix:
        """A0_ff: the leading block of `mixed` where that is kept (the
        solver's), otherwise a block of its own (the no-bubble ablation's)."""
        if self.mixed is None:
            return self.a0_ff
        n = len(self.free)
        return self.mixed[:n, :n]

    def penalty_matrix(self, full: bool = False) -> sp.csr_matrix:
        """A0 + lam * D^T W D, on the free DOFs (A0_ff + lam * K_ff, from
        blocks formed once for the split) or (`full`) unconstrained, from A0
        and D re-assembled by `full`."""
        if full and self.full is None:
            raise AssemblyError("the split has no unconstrained matrix to re-assemble")
        a0, d = self.full() if full else (self.a0, self.divergence)
        if self.lam == 0:
            return a0
        k = (d.T @ sp.diags(self.volume) @ d if full
             else self._once("k", lambda: d.T @ sp.diags(self.volume) @ d))
        return (a0 + self.lam * k).tocsr()


def _cut(a0: sp.csr_matrix, free: np.ndarray, weighted: sp.csr_matrix | None):
    """A0_ff, or with `weighted` = W D_f the mixed matrix [A0_ff, weighted^T;
    weighted, 0], and A0_fc, cut from the free rows of `a0` in runs into
    arrays allocated once; A0_ff and A0_fc keep the order of their entries in
    `a0`.  For an `a0` with sorted indices, as `assemble_matrix` gives, the
    mixed matrix holds the arrays that `sp.bmat` makes of these blocks, entry
    for entry, without its COO copy."""
    n_rows, n = a0.shape[0], len(free)
    is_free = np.zeros(n_rows, dtype=bool)
    is_free[free] = True
    # the column of every DOF in its block: free, or constrained
    column = np.cumsum(is_free) - 1
    column[~is_free] = np.arange(n_rows - n)
    sizes = np.diff(a0.indptr)[free]  # the entries of each free row
    runs = list(_runs(sizes, _CUT_ENTRIES))  # of consecutive free rows

    def entries(first, last):
        """Positions in `a0` of the entries of free rows [first, last)."""
        return _positions(a0.indptr[free[first:last]], sizes[first:last])

    in_free = np.zeros(n, dtype=np.int64)  # per free row, its entries in free columns
    for first, last in runs:
        counted = np.concatenate([[0], np.cumsum(is_free[a0.indices[entries(first, last)]])])
        ends = np.concatenate([[0], np.cumsum(sizes[first:last])])
        in_free[first:last] = counted[ends[1:]] - counted[ends[:-1]]
    if weighted is None:
        tail, lower = np.zeros(n, dtype=np.int64), np.zeros(0, dtype=np.int64)
    else:
        weighted.sort_indices()
        transposed = weighted.T.tocsr()  # its rows sorted by cell
        tail, lower = np.diff(transposed.indptr), np.diff(weighted.indptr)
    leading = _csr_arrays(np.concatenate([in_free + tail, lower]), n + len(lower))
    in_constrained = sizes - in_free
    a0_fc = _csr_arrays(in_constrained, n_rows - n)
    if weighted is not None:
        indptr, indices, data = leading
        indices[indptr[n]:], data[indptr[n]:] = weighted.indices, weighted.data
        del weighted  # made for this call alone: released before the rows are cut
    for first, last in runs:
        at = entries(first, last)
        columns, values = a0.indices[at], a0.data[at]
        to_free = is_free[columns]
        for (indptr, indices, data), counts, mask in ((leading, in_free, to_free),
                                                      (a0_fc, in_constrained, ~to_free)):
            at = _positions(indptr[first:last], counts[first:last])
            indices[at], data[at] = column[columns[mask]], values[mask]
        if len(lower):  # the rows of weighted^T after those of A0_ff
            indptr, indices, data = leading
            at = _positions(indptr[first:last] + in_free[first:last], tail[first:last])
            cells = slice(transposed.indptr[first], transposed.indptr[last])
            indices[at], data[at] = n + transposed.indices[cells], transposed.data[cells]
    return (sp.csr_matrix(leading[::-1], shape=(n + len(lower),) * 2),
            sp.csr_matrix(a0_fc[::-1], shape=(n, n_rows - n)))


def _csr_arrays(row_sizes: np.ndarray, n_columns: int):
    """(indptr, indices, data) of a CSR matrix with rows of `row_sizes`
    entries and `n_columns` columns, the indices and the data to be filled."""
    size = int(row_sizes.sum())
    index = np.int32 if max(size, len(row_sizes), n_columns) < 2**31 else np.int64
    indptr = np.zeros(len(row_sizes) + 1, dtype=index)
    np.cumsum(row_sizes, out=indptr[1:])
    return indptr, np.empty(size, dtype=index), np.empty(size)


def _positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions, in a CSR matrix, of the consecutive entries of rows whose
    entries begin at `starts`, `counts` of them per row."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class SparseSystem:
    """Reduced SPD system with its lifting.

    `matrix` is the free-free block in CSR form, `load` the reduced right-hand
    side, `lifting` the full-length vector holding the Dirichlet DOF values.
    `full_matrix` keeps the unconstrained operator for energy checks and for
    recovering reduced right-hand sides.  A system reduced from a
    `LambdaSplit` (`source`) may be given no matrices: they are formed from
    the split when first read, the unconstrained one re-assembled.  `split`
    is that split with its loads where the system is solved on the mixed form.
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
    (K = D^T W D): the balance of its face fluxes, the trace of G by the
    divergence theorem, D_K v = |K|^-1 sum_f s_Kf |f| (n_f . sum_v w_fv v_v + b_f).
    Each row is written on its cell's DOFs in ascending order, over the
    `cell_runs` into arrays allocated once, so that its transient does not
    grow with the mesh: a vertex component j sums (s_Kf/|K|) ((|f| w_fv) n_f,j)
    over the cell's faces in their order, a bubble is (s_Kf/|K|) |f|, and
    exact zeros are dropped."""
    v_off, c_off, n_v = mesh.cell_vertex_offsets, mesh.cell_face_offsets, mesh.n_vertices
    n_dofs = 3 * n_v + mesh.n_faces
    indptr = 3 * v_off + c_off  # each row: its vertices' components, then its bubbles
    # int32, the index type scipy keeps below 2**31 DOFs, so that it makes no copy
    index = np.int32 if max(indptr[-1], n_dofs) < 2**31 else np.int64
    indptr = indptr.astype(index)
    indices, data = np.empty(indptr[-1], dtype=index), np.empty(indptr[-1])
    for lo, hi in list(cell_runs(mesh)):  # `cell_runs`' arrays released first
        entries, corners = np.arange(c_off[lo], c_off[hi]), np.arange(v_off[lo], v_off[hi])
        cell = np.repeat(np.arange(lo, hi), np.diff(c_off[lo:hi + 1]))  # of each cell face
        corner_cell = np.repeat(np.arange(lo, hi), np.diff(v_off[lo:hi + 1]))
        faces = mesh.cell_face_ids[entries]
        balance = mesh.cell_face_signs[entries] / mesh.cell_volume[cell]
        loop, owner = row_entries(mesh.face_loop_offsets, faces)
        face, sign = faces[owner], balance[owner]
        weight = mesh.face_area[face] * mesh._face_weights[loop]  # |f| w_fv
        # the slot of each loop vertex among the cell's vertices, sorted by (cell, vertex)
        slot = np.searchsorted(mesh.cell_vertex_ids[corners] + n_v * corner_cell,
                               mesh.face_loop_vertices[loop] + n_v * cell[owner])
        del loop, owner
        at = (3 * corners + c_off[corner_cell])[:, None] + np.arange(3)
        indices[at] = 3 * mesh.cell_vertex_ids[corners][:, None] + np.arange(3)
        data[at] = np.column_stack([np.bincount(slot, weight * mesh.face_normal[face, j] * sign,
                                                len(corners)) for j in range(3)])
        order = np.lexsort((faces, cell))  # each cell's bubbles, ascending
        at = 3 * v_off[cell + 1] + entries
        indices[at], data[at] = 3 * n_v + faces[order], (balance * mesh.face_area[faces])[order]
    d = sp.csr_matrix((data, indices, indptr), shape=(mesh.n_cells, n_dofs))
    d.eliminate_zeros()
    return d


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
    vertex_values = _vertex_values(mesh, bcs.dirichlet_data, columns=False)
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
    """Eliminate constrained DOFs by lifting, once the load and the lifting
    are found finite.  Given a `LambdaSplit` (built on `dofmap`) for the
    matrix, the load is load_u + lambda D_f^T load_p, from the lambda-free
    loads load_u = b_f - A0_fc g_c and load_p = -W D_c g_c of the lifting g,
    and the system forms its matrices from the split when they are first
    read: A0_ff + lambda*K_ff, or A0_ff at lambda = 0, and the unconstrained
    matrix re-assembled.  With bubbles and lambda > 0 the system carries the
    split with these loads, on whose mixed system [A0, D^T W; W D, -W/lambda]
    the solver works.  The lifting is zero on the free DOFs, so a product
    with its constrained part drops only zero products of the unconstrained
    one."""
    if not np.isfinite(lifting).all() or not np.isfinite(full_load).all():
        raise AssemblyError("non-finite value in boundary data or load")
    free, source, split = dofmap.free_indices, None, None
    if isinstance(full_matrix, LambdaSplit):
        source, lifted = full_matrix, lifting[dofmap.constrained_indices]
        load_u = full_load[free] - source.a0_fc @ lifted
        load_p = -source.volume * (source.divergence_c @ lifted)
        load = load_u + source.lam * (source.divergence.T @ load_p)
        if dofmap.bubbles_enabled and source.lam > 0:
            split = replace(source, load_u=load_u, load_p=load_p)
        matrix = full_matrix = None
    else:
        matrix = full_matrix[free][:, free].tocsr()
        load = full_load[free] - (full_matrix @ lifting)[free]
    return SparseSystem(matrix, load, lifting, free, dofmap.constrained_indices, dofmap,
                        full_matrix, full_load, split=split, source=source)


def assemble_split(mesh: Mesh, dofmap: DofMap, material: MaterialParams) -> LambdaSplit:
    """The `LambdaSplit` of the matrix on `dofmap`, at lambda = 0: its blocks
    of A0 (`assemble_matrix` at lambda = 0) and D (`divergence_operator`),
    neither of which outlives the split's `build`; both are re-assembled
    where the unconstrained matrix is read."""
    a0_material = replace(material, lam=0.0)

    def unconstrained():
        return assemble_matrix(mesh, dofmap, a0_material), divergence_operator(mesh)

    split = LambdaSplit.build(*unconstrained(), mesh.cell_volume, material.mu, dofmap)
    return replace(split, full=unconstrained)


def assemble(mesh: Mesh, dofmap: DofMap, material: MaterialParams,
             bcs: BoundaryConditions, body_force: Callable | None = None) -> SparseSystem:
    """Assemble the reduced linear system of the scheme, from the split of
    `assemble_split` at the lambda of `material`, with the load and the
    lifting of `bcs` and `body_force`."""
    check_setup(mesh, dofmap, bcs)
    split = assemble_split(mesh, dofmap, material).at(material.lam)
    return reduce_system(split, assemble_load(mesh, dofmap, bcs, body_force),
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
