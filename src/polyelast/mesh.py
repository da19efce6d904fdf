"""3D polyhedral meshes: file I/O, structured generators, geometry, validation.

A mesh is described by vertex positions, one oriented vertex loop per face
(counterclockwise when viewed from the tip of the face normal), and per cell
a list of faces with orientation signs (+1 when the face normal points out of
the cell).  Topology is stored once as CSR-style (offsets, ids) arrays, and
all derived geometry (areas, volumes, centroids, convex vertex weights,
per-face edge data) is computed over all entities at once at construction
time into read-only arrays.

The POLYMESH text format::

    POLYMESH 1
    <n_v> <n_f> <n_c>
    x y z                 (n_v lines)
    k v1 ... vk           (n_f lines, 0-based vertex ids, CCW w.r.t. normal)
    m s1 ... sm           (n_c lines, signed 1-based face ids)

`#` starts a comment, blank lines are ignored.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations
from typing import Callable, TextIO

import numpy as np

from .quadrature import tet_rule, triangle_rule

PLANARITY_RTOL = 1e-9
DEGENERATE_AREA_RTOL = 1e-14
# below this extent the squared area of a face underflows the normal double range
_TINY_LENGTH = np.finfo(float).tiny ** 0.25
# `_convex_weights`: uniform weights within this relative distance, the largest
# residual in global units (relative to max(diameter, 1), so that a face planar
# only to PLANARITY_RTOL builds), the least weight left unclamped
UNIFORM_RTOL, RESIDUAL_RTOL, NEGATIVE_TOL = 1e-13, 1e-10, -1e-13
DEFAULT_SEED = 12345
# the most quadrature points a field is evaluated at in one call (see
# `_integrals`), so that quadrature transients do not grow with the mesh
_CHUNK_POINTS = 1 << 15


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed POLYMESH input."""


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    proxies: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def _convex_weights(points: np.ndarray, target: np.ndarray, scale):
    """Nonnegative weights with sum 1 reproducing `target` as a combination of
    `points`, for a stack of equal-size rows, `points` (k, m, 3), `target`
    (k, 3), `scale` (k,) the diameters: the (k, m) weights and the mask of
    rows without (non-starlike geometry).  One (m, 3) row returns its weights
    or None.  A row whose vertex mean is its target takes uniform weights;
    the others the weights closest to uniform over their active vertices, by
    `pinv` of the coordinate rows of the constraint matrix, centred on the
    active mean (so orthogonal to its row of ones) and scaled by the
    diameter: the condition is the row shape's, not its square as through
    the normal matrix.  Negative weights are clamped to zero and their rows
    solved again until none is; a residual above `RESIDUAL_RTOL` fails."""
    single = np.ndim(points) == 2
    points = np.asarray(points, dtype=float).reshape(-1, np.shape(points)[-2], 3)
    target, scale = np.reshape(target, (-1, 3)), np.maximum(np.reshape(scale, -1), 1e-300)
    k, m, _ = points.shape
    weights, failed = np.full((k, m), 1.0 / m), np.zeros(k, dtype=bool)
    local = (points - target[:, None]) / scale[:, None, None]
    active = np.ones((k, m), dtype=bool)
    todo = np.flatnonzero(np.linalg.norm(points.mean(axis=1) - target, axis=1)
                          > UNIFORM_RTOL * scale)
    while todo.size:
        on = active[todo]
        uniform = on / on.sum(axis=1, keepdims=True)
        mean = uniform[:, None] @ local[todo]  # (k, 1, 3); the target is the origin
        rows = ((local[todo] - mean) * on[..., None]).transpose(0, 2, 1)
        # the cutoff drops the direction normal to a face (no normal is known
        # here to project on): its singular value is the planarity deviation over
        # the diameter, at most PLANARITY_RTOL; NumPy 1.x takes `rcond`, not `rtol`
        w = uniform - (np.linalg.pinv(rows, rcond=1e-8) @ mean.transpose(0, 2, 1))[..., 0]
        residual = np.hypot(w.sum(axis=1) - 1.0, np.linalg.norm(
            (w[:, None] @ points[todo])[:, 0] - target[todo], axis=1))
        bad = residual > RESIDUAL_RTOL * np.maximum(scale[todo], 1.0)
        negative = w < NEGATIVE_TOL
        done = ~bad & ~negative.any(axis=1)
        weights[todo[done]] = np.maximum(w[done], 0.0)
        active[todo] = on & ~negative
        bad |= ~active[todo].any(axis=1)
        failed[todo[bad]] = True
        todo = todo[~bad & ~done]
    if single:
        return None if failed[0] else weights[0]
    return weights, failed


# -- CSR helpers ----------------------------------------------------------------


class Rows(Sequence):
    """Rows of a CSR array: row i is the read-only view flat[offsets[i]:offsets[i+1]]."""

    def __init__(self, flat: np.ndarray, offsets: np.ndarray):
        self.flat, self.offsets = flat.view(), offsets
        self.flat.flags.writeable = False

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[i]  # an index of any integer type, checked
        return self.flat[self.offsets[i]:self.offsets[i + 1]]


def _csr(rows):
    """(offsets, ids) of `Rows`, of a sequence of integer rows or of a 2D array."""
    if isinstance(rows, Rows):
        return rows.offsets, rows.flat
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.shape[1] * np.arange(len(rows) + 1), np.asarray(rows, dtype=int).ravel()
    rows = [np.asarray(r, dtype=int) for r in rows]
    offsets = np.zeros(len(rows) + 1, dtype=int)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return offsets, np.concatenate(rows) if rows else np.zeros(0, int)


def _owner(offsets: np.ndarray) -> np.ndarray:
    """Row of every entry of a CSR array."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _any_per_row(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows holding at least one entry where `mask` is set."""
    return np.bincount(_owner(offsets)[mask], minlength=len(offsets) - 1) > 0


def _repeats_per_row(ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows holding some id twice."""
    owner = _owner(offsets)
    ids = ids[np.lexsort((ids, owner))]
    dup = (ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])
    return np.bincount(owner[1:][dup], minlength=len(offsets) - 1) > 0


def _groups(offsets: np.ndarray, rows=None):
    """Rows of a CSR array (all, or the ids `rows`) grouped by size:
    per size, the row ids and the (n_rows, size) positions of their entries."""
    sizes = np.diff(offsets)
    rows = np.arange(len(sizes)) if rows is None else rows
    for m in np.unique(sizes[rows]):
        ids = rows[sizes[rows] == m]
        yield ids, offsets[ids, None] + np.arange(m)


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum over every row of a CSR array, in the order `ndarray.sum` adds the
    entries of one row."""
    out = np.zeros((len(offsets) - 1,) + values.shape[1:])
    for rows, entries in _groups(offsets):
        out[rows] = values[entries].sum(axis=1)
    return out


def row_entries(offsets: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Entry positions of the given rows of a CSR array, in row order, and for
    every entry the position of its row in `rows`."""
    sizes = np.diff(offsets)[rows]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    first = np.cumsum(sizes) - sizes
    return offsets[rows][owner] + np.arange(len(owner)) - first[owner], owner


def _fan(offsets: np.ndarray, loops: np.ndarray):
    """Fan triangles (loop[0], loop[t+1], loop[t+2]) of every loop of a CSR
    array of vertex loops: the (n_tri, 3) vertex ids, the loop of each
    triangle and the CSR offsets of the triangles per loop."""
    tri_offsets = offsets - 2 * np.arange(len(offsets))
    owner = _owner(tri_offsets)
    first = offsets[owner]
    t = np.arange(len(owner)) - tri_offsets[owner]
    tris = np.column_stack([loops[first], loops[first + t + 1], loops[first + t + 2]])
    return tris, owner, tri_offsets


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`np.cross` of two (n, 3) arrays, bit for bit (each component the
    difference of two rounded products), without copies of its operands."""
    out = np.empty((len(u), 3))
    product = np.empty(len(u))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(u[:, i], v[:, j], out=out[:, k])
        out[:, k] -= np.multiply(u[:, j], v[:, i], out=product)
    return out


def _diameters(positions: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Largest vertex-to-vertex distance of every row of a CSR vertex array:
    the square root of the largest squared distance (dx^2 + dy^2) + dz^2
    over the pairs of its vertices, one pair at a time."""
    out = np.zeros(len(offsets) - 1)
    for rows, entries in _groups(offsets):
        pos = positions[ids[entries]]
        largest = np.zeros(len(rows))
        for i, j in combinations(range(entries.shape[1]), 2):
            squares = np.square(pos[:, i] - pos[:, j])
            np.maximum(largest, (squares[:, 0] + squares[:, 1]) + squares[:, 2], out=largest)
        out[rows] = np.sqrt(largest)
    return out


def _weights(positions, offsets, ids, mean, centroid, diam, rejected):
    """Convex weights of every row of a CSR vertex array with vertex means
    `mean`, up to the first row an earlier check `rejected`, and the mask of
    rows without: uniform where the mean is the centroid, else by one
    `_convex_weights` call per row size."""
    sizes = np.diff(offsets)
    weights = np.repeat(1.0 / sizes, sizes)
    fast = np.linalg.norm(mean - centroid, axis=1) <= UNIFORM_RTOL * np.maximum(diam, 1e-300)
    failed = np.zeros(len(sizes), dtype=bool)
    stop = int(np.argmax(rejected)) if rejected.any() else len(sizes)
    for rows, entries in _groups(offsets, np.flatnonzero(~fast[:stop])):
        weights[entries], failed[rows] = _convex_weights(positions[ids[entries]],
                                                          centroid[rows], diam[rows])
    return weights, failed


def _weight_defects(positions, offsets, ids, weights, centroid, diam):
    """Rows whose weights are not convex, rows whose weights do not
    reproduce the centroid, and per row the larger of |sum of the weights - 1|
    and the distance of the reproduced centroid."""
    sum_err = np.abs(_row_sums(weights, offsets) - 1.0)
    recon_err = np.linalg.norm(_row_sums(weights[:, None] * positions[ids], offsets)
                               - centroid, axis=1)
    return ((np.minimum.reduceat(weights, offsets[:-1]) < -1e-14) | (sum_err > 1e-12),
            recon_err > 1e-12 * np.maximum(diam, 1.0),
            np.maximum(sum_err, recon_err))


def _violations(*checks) -> list:
    """Messages of the failed checks ordered by entity id, then by check;
    each check is (mask of failing entities, message of an entity id)."""
    hits = sorted((int(i), k) for k, (bad, _) in enumerate(checks)
                  for i in np.flatnonzero(bad))
    return [checks[k][1](i) for i, k in hits]


def _raise_first(*checks):
    """Raise for the lowest entity id that fails a check, with the first check
    it fails; a check is (mask of failing ids, message of an id[, exception
    class, if not MeshError])."""
    hits = [(int(np.argmax(bad)), k) for k, (bad, *_) in enumerate(checks) if bad.any()]
    if hits:
        i, k = min(hits)
        error = checks[k][2] if len(checks[k]) > 2 else MeshError
        raise error(checks[k][1](i))


class Mesh:
    """Polyhedral mesh with all derived geometry.

    Topology is stored once as CSR-style arrays: face -> vertex loop
    (`face_loop_offsets`, `face_loop_vertices`), cell -> signed faces
    (`cell_face_offsets`, `cell_face_ids`, `cell_face_signs`) and cell ->
    sorted vertices (`cell_vertex_offsets`, `cell_vertex_ids`).  The geometry
    arrays are read-only, and the per-entity rows (`face_loops`,
    `face_weights`, `face_edge_*`, `cell_faces`, `cell_signs`,
    `cell_vertices`, `cell_weights`) are `Rows`: read-only views into the
    flat arrays, made when a row is read.
    The mesh memoises nothing: quadrature rules are built on demand, in
    batches over faces or cells.

    Construction validates basic structure (at least one cell, index ranges,
    loop/face counts, planarity, positive volumes, convex weights) and reports
    the lowest failing entity id; use :func:`validate_mesh` for the full
    invariant report.
    """

    def __init__(self, positions, face_loops, cell_faces, cell_signs):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise MeshError("positions must be an (n,3) array")
        if not np.isfinite(self.positions).all():
            raise MeshError("positions must be finite")
        self.n_vertices = len(self.positions)
        self.face_loop_offsets, self.face_loop_vertices = _csr(face_loops)
        self.cell_face_offsets, self.cell_face_ids = _csr(cell_faces)
        sign_offsets, self.cell_face_signs = _csr(cell_signs)
        self.n_faces = len(self.face_loop_offsets) - 1
        self.n_cells = len(self.cell_face_offsets) - 1
        self._check_connectivity(sign_offsets)
        # overflow shows as non-finite geometry, reported as such
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._compute_face_geometry()
            self._build_adjacency()
            self._compute_cell_geometry()
        self.h = float(self.cell_diameter.max())
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        f_off, c_off, v_off = (self.face_loop_offsets, self.cell_face_offsets,
                               self.cell_vertex_offsets)
        self.face_loops = Rows(self.face_loop_vertices, f_off)
        self.face_weights = Rows(self._face_weights, f_off)
        self.face_edge_lengths = Rows(self._edge_lengths, f_off)
        self.face_edge_midpoints = Rows(self._edge_midpoints, f_off)
        self.face_edge_normals = Rows(self._edge_normals, f_off)
        self.cell_faces = Rows(self.cell_face_ids, c_off)
        self.cell_signs = Rows(self.cell_face_signs, c_off)
        self.cell_vertices = Rows(self.cell_vertex_ids, v_off)
        self.cell_weights = Rows(self._cell_weights, v_off)

    # -- construction ------------------------------------------------------

    def _check_connectivity(self, sign_offsets):
        if self.n_cells == 0:
            raise MeshError("mesh has no cells")
        f_off, f_ids = self.face_loop_offsets, self.face_loop_vertices
        _raise_first(
            (np.diff(f_off) < 3, "face {} has fewer than 3 vertices".format),
            (_any_per_row((f_ids < 0) | (f_ids >= self.n_vertices), f_off),
             "dangling index: face {} references a missing vertex".format),
            (_repeats_per_row(f_ids, f_off), "face {} repeats a vertex in its loop".format),
        )
        c_off, c_ids = self.cell_face_offsets, self.cell_face_ids
        _raise_first(
            (np.diff(c_off) < 4, "cell {} has fewer than 4 faces".format),
            (np.diff(c_off) != np.diff(sign_offsets),
             "cell {} has mismatched face/sign lists".format),
            (_any_per_row((c_ids < 0) | (c_ids >= self.n_faces), c_off),
             "dangling index: cell {} references a missing face".format),
            (_any_per_row(np.abs(self.cell_face_signs) != 1, sign_offsets),
             "cell {} has an orientation sign not in {{-1,+1}}".format),
            (_repeats_per_row(c_ids, c_off), "cell {} repeats a face".format),
        )

    def _compute_face_geometry(self):
        # each temporary is released once consumed, so that the transient
        # stays near the arrays the mesh keeps
        off, loops = self.face_loop_offsets, self.face_loop_vertices
        tris, _, tri_off = _fan(off, loops)
        a, b, c = (self.positions[tris[:, k]] for k in range(3))
        cross = _cross(b - a, c - a)
        vec_area = 0.5 * _row_sums(cross, tri_off)
        # rounds as `np.linalg.norm` of a single vector does
        vec_norm = np.sqrt((vec_area[:, None, :] @ vec_area[:, :, None])[:, 0, 0])
        diam = _diameters(self.positions, off, loops)
        _raise_first((~np.isfinite(vec_norm) | ~np.isfinite(diam),
                     "face {}: geometry overflows (coordinates too large)".format))
        if np.any(vec_norm == 0.0):  # degenerate, or distinct points whose squared
            # area falls below the double range
            spread = np.abs(self.positions[loops] - self.positions[loops[off[:-1]]][_owner(off)])
            extent = np.maximum.reduceat(spread.max(axis=1), off[:-1])
            _raise_first(((vec_norm == 0.0) & (extent > 0.0) & (extent < _TINY_LENGTH),
                          "face {}: geometry underflows (coordinates too small)".format))
        normal = vec_area / vec_norm[:, None]
        del vec_area
        tri_signed = np.zeros(len(tris))
        for rows, entries in _groups(tri_off):  # stacked products add as `cross @ normal`
            tri_signed[entries] = 0.5 * (cross[entries] @ normal[rows, :, None])[..., 0]
        del cross
        area = _row_sums(tri_signed, tri_off)
        a += b
        a += c
        del b, c
        a /= 3.0  # the fan triangles' centroids, (a + b + c) / 3
        centroid = _row_sums(tri_signed[:, None] * a, tri_off) / area[:, None]
        del a
        pos = self.positions[loops]
        owner = _owner(off)
        offset = np.maximum.reduceat(
            np.abs(np.einsum("ij,ij->i", pos - centroid[owner], normal[owner])), off[:-1])
        tol = PLANARITY_RTOL * diam
        degenerate = (area < DEGENERATE_AREA_RTOL * diam**2) | (vec_norm == 0.0)
        non_planar = offset > tol
        weights, no_weights = _weights(self.positions, off, loops, _row_sums(pos, off)
                                       / np.diff(off)[:, None], centroid, diam,
                                       degenerate | non_planar)
        nxt = np.arange(1, len(loops) + 1)
        nxt[off[1:] - 1] = off[:-1]
        tangents = pos[nxt]
        tangents -= pos
        lengths = np.linalg.norm(tangents, axis=1)
        _raise_first(
            (degenerate, "degenerate face {} (vanishing area)".format),
            (non_planar, lambda i: f"face {i} is non-planar (deviation {offset[i]:.3e} "
                                   f"exceeds tolerance {tol[i]:.3e})"),
            (no_weights, lambda i: f"face {i}: centroid is not a nonnegative "
                                   "combination of its vertices"),
            (_any_per_row(lengths <= 0.0, off), "face {} has a zero-length edge".format),
        )
        self.face_normal = normal
        self.face_area = area
        self.face_centroid = centroid
        self._face_tris = tris
        self._face_tri_offsets = tri_off
        self._tri_signed = tri_signed
        self._face_weights = weights
        self._loop_next = nxt
        self._edge_lengths = lengths
        midpoints = pos[nxt]
        midpoints += pos
        midpoints *= 0.5
        del pos
        self._edge_midpoints = midpoints
        tangents /= lengths[:, None]
        self._edge_normals = _cross(tangents, normal[owner])

    def _build_adjacency(self):
        count = np.bincount(self.cell_face_ids, minlength=self.n_faces)
        _raise_first(
            (count == 0, "face {} is not referenced by any cell".format),
            (count > 2, "face {} is shared by more than two cells".format),
        )
        # the signs of the cells on each face in ascending cell id, 0 if none
        order = np.argsort(self.cell_face_ids, kind="stable")
        faces = self.cell_face_ids[order]
        slot = np.arange(len(order)) - (np.cumsum(count) - count)[faces]
        self.face_cell_signs = np.zeros((self.n_faces, 2), dtype=int)
        self.face_cell_signs[faces, slot] = self.cell_face_signs[order]
        self.face_on_boundary = count == 1
        vb = np.zeros(self.n_vertices, dtype=bool)
        vb[self.face_loop_vertices[np.repeat(self.face_on_boundary,
                                             np.diff(self.face_loop_offsets))]] = True
        self.vertex_on_boundary = vb

    def _compute_cell_geometry(self):
        # each temporary is released once consumed, as in the face geometry
        positions = self.positions
        f_off, c_off = self.face_loop_offsets, self.cell_face_offsets
        faces = self.cell_face_ids
        entry_cell = _owner(c_off)
        # the loop of every cell face, reversed where the sign is -1, so that
        # its fan triangles have the cell's outward normal
        sizes = np.diff(f_off)[faces]
        e_off = np.concatenate([[0], np.cumsum(sizes)])
        j = np.arange(e_off[-1]) - np.repeat(e_off[:-1], sizes)
        j = np.where(np.repeat(self.cell_face_signs > 0, sizes), j,
                     np.repeat(sizes, sizes) - 1 - j)
        j += np.repeat(f_off[faces], sizes)
        loops = self.face_loop_vertices[j]
        del j
        keys = np.unique(np.repeat(entry_cell, sizes) * self.n_vertices + loops)
        del sizes
        vertex_cell, vertex_ids = np.divmod(keys, self.n_vertices)
        del keys
        v_off = np.concatenate([[0], np.cumsum(np.bincount(vertex_cell,
                                                           minlength=self.n_cells))])
        del vertex_cell
        nv = np.diff(v_off)
        diam = _diameters(positions, v_off, vertex_ids)
        apex = _row_sums(positions[vertex_ids], v_off) / nv[:, None]
        # sub-tets (fan triangle, vertex mean) of every cell
        tris, tri_entry, tri_off = _fan(e_off, loops)
        del loops, e_off
        tri_apex = apex[entry_cell[tri_entry]]
        del tri_entry, entry_cell
        d = positions[tris]
        corner_sum = d.sum(axis=1)
        d -= tri_apex[:, None, :]  # the corners less the apex
        v6 = np.einsum("ij,ij->i", _cross(d[:, 0], d[:, 1]), d[:, 2])
        del d
        # summed per face, then over the faces of the cell
        vol = _row_sums(_row_sums(v6, tri_off) / 6.0, c_off)
        tri_apex += corner_sum
        del corner_sum
        tri_apex /= 4.0  # the sub-tets' centroids, (apex + corners) / 4
        moment = _row_sums(_row_sums(v6[:, None] / 6.0 * tri_apex, tri_off), c_off)
        del tri_apex, v6
        centroid = moment / vol[:, None]
        _raise_first((~np.isfinite(vol) | ~np.isfinite(moment).all(axis=1)
                      | ~np.isfinite(diam),
                      "cell {}: geometry overflows (coordinates too large)".format))
        non_positive = ~(vol > 0.0)
        weights, no_weights = _weights(positions, v_off, vertex_ids, apex, centroid, diam,
                                       non_positive)
        _raise_first(
            (non_positive, "cell {}: signed faces do not enclose positive volume".format),
            (no_weights, lambda i: f"cell {i}: centroid is not a nonnegative combination "
                                   "of its vertices (non-starlike cell)"),
        )
        self.cell_vertex_offsets = v_off
        self.cell_vertex_ids = vertex_ids
        self.cell_volume = vol
        self.cell_centroid = centroid
        self.cell_diameter = diam
        self._cell_weights = weights
        self._cell_tris = tris
        self._cell_tri_offsets = tri_off[c_off]

    def boundary_outward_normal(self, fid: int) -> np.ndarray:
        if not self.face_on_boundary[fid]:
            raise MeshError(f"face {fid} is not a boundary face")
        return self.face_cell_signs[fid, 0] * self.face_normal[fid]

    # -- quadrature ---------------------------------------------------------

    def batched_face_quadrature(self, degree: int, faces=None):
        """Points and absolute weights integrating over every face of `faces`
        (default: all faces), in that order, plus the CSR offsets of each
        face's points.  The rule sums over the fan triangles
        (loop[0], loop[t+1], loop[t+2]) of the face loop.  The (n, 3) points
        are the transpose of a (3, n) array, so each coordinate is contiguous."""
        faces = np.arange(self.n_faces) if faces is None else np.asarray(faces, dtype=int)
        ref_pts, ref_w = triangle_rule(degree)
        entries, _ = row_entries(self._face_tri_offsets, faces)
        tris = self._face_tris[entries]
        x, y = ref_pts[:, 0], ref_pts[:, 1]
        points = np.empty((3, len(entries), len(ref_w)))
        for j, out in enumerate(points):  # a + x (b - a) + y (c - a), one coordinate at a time
            a, b, c = (self.positions[tris[:, k], j, None] for k in range(3))
            np.multiply(x, b - a, out=out)
            out += a
            out += y * (c - a)
        weights = (self._tri_signed[entries, None] * ref_w).ravel()
        offsets = len(ref_w) * np.concatenate(
            [[0], np.cumsum(np.diff(self._face_tri_offsets)[faces])])
        return points.reshape(3, -1).T, weights, offsets

    def face_quadrature(self, fid: int, degree: int):
        """Points and absolute weights integrating over face `fid`: the
        batched rule for that face alone."""
        points, weights, _ = self.batched_face_quadrature(degree, [fid])
        return points, weights

    def batched_cell_quadrature(self, degree: int, cells=None):
        """Points and absolute weights integrating over every cell of `cells`
        (default: all cells), in that order, plus the CSR offsets of each
        cell's points.  The rule sums over the sub-tets (face fan triangle +
        cell centroid) of the cell; a face with sign -1 fans from its reversed
        loop.  The points are laid out as in `batched_face_quadrature`."""
        cells = np.arange(self.n_cells) if cells is None else np.asarray(cells, dtype=int)
        ref_pts, ref_w = tet_rule(degree)
        entries, owner = row_entries(self._cell_tri_offsets, cells)
        tris = self.positions[self._cell_tris[entries]]
        apex = self.cell_centroid[cells][owner]
        d = tris - apex[:, None, :]
        v6 = np.einsum("ij,ij->i", np.cross(d[:, 1], d[:, 2]), d[:, 0])
        edges = np.concatenate([tris[:, 1:], apex[:, None]], axis=1) - tris[:, :1]
        points = np.empty((3, len(entries), len(ref_w)))
        for j, out in enumerate(points):  # corner + ref_pts @ edges, one coordinate at a time
            np.matmul(edges[:, :, j], ref_pts.T, out=out)
            out += tris[:, :1, j]
        weights = ((v6 / 6.0)[:, None] * ref_w).ravel()
        offsets = len(ref_w) * np.concatenate(
            [[0], np.cumsum(np.diff(self._cell_tri_offsets)[cells])])
        return points.reshape(3, -1).T, weights, offsets

    def cell_quadrature(self, cid: int, degree: int):
        """Points and absolute weights integrating over cell `cid`: the
        batched rule for that cell alone."""
        points, weights, _ = self.batched_cell_quadrature(degree, [cid])
        return points, weights


def _runs(sizes: np.ndarray, limit: int):
    """(lo, hi) of the runs of consecutive entries of `sizes`, in order, that
    sum to at most `limit`, or of one entry where it alone is larger."""
    ends = np.concatenate([[0], np.cumsum(sizes)])
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + limit, "right")) - 1)
        yield lo, hi
        lo = hi


def _integrals(mesh: Mesh, kind: str, degree: int, integrand: Callable,
               ids=None, rank: int | None = None) -> np.ndarray:
    """Integral over every face (`kind` "face") or cell (`kind` "cell") of
    `ids` (default: all of them) of `integrand(points, at)`, where `at` is the
    position in `ids` of the face or cell of each point, by the batched rule
    of that degree.  The integrand is called on runs of consecutive entities
    with at most `_CHUNK_POINTS` points in all (or one entity, where it alone
    has more), so the memory it takes does not grow with the mesh.  Where
    `rank` is given, the integrand's value at a point is a tensor of that
    rank, and a further trailing axis holds the parts of a field (such as
    the lambda-parts of exact data): each part is summed as it would be
    alone, so that it rounds the same with or without the others."""
    if kind == "face":
        rule, simplices, ref = mesh.batched_face_quadrature, mesh._face_tri_offsets, triangle_rule
    else:
        rule, simplices, ref = mesh.batched_cell_quadrature, mesh._cell_tri_offsets, tet_rule
    ids = np.arange(len(simplices) - 1) if ids is None else np.asarray(ids, dtype=int)
    runs = []
    for lo, hi in _runs(len(ref(degree)[1]) * np.diff(simplices)[ids], _CHUNK_POINTS):
        points, weights, offsets = rule(degree, ids[lo:hi])
        values = np.asarray(integrand(points, lo + _owner(offsets)), dtype=float)
        if rank is not None and values.ndim > rank + 1:
            runs.append(np.stack([_rule_sums(weights, offsets, values[..., c])
                                  for c in range(values.shape[-1])], axis=-1))
        else:
            runs.append(_rule_sums(weights, offsets, values))
    return np.concatenate(runs) if runs else np.zeros(0)


def _rule_sums(weights: np.ndarray, offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sums of `values` times `weights` over each entity's points (CSR
    `offsets`)."""
    # C order, as the stacked product below rounds by the layout of its operand
    flat = np.ascontiguousarray(values.reshape(len(weights), -1))
    sums = np.empty((len(offsets) - 1, flat.shape[1]))
    for rows, entries in _groups(offsets):
        first, last = entries[0, 0], entries[-1, -1]
        if last - first + 1 == entries.size:  # one block of points: views, not copies
            w = weights[first:last + 1].reshape(entries.shape)
            f = flat[first:last + 1].reshape(entries.shape + flat.shape[1:])
        else:
            w, f = weights[entries], flat[entries]
        sums[rows] = (w[:, None, :] @ f)[:, 0]
    return sums.reshape((len(offsets) - 1,) + values.shape[1:])


# -- POLYMESH format ---------------------------------------------------------


_INT_CLAMP = 1 << 62  # ids beyond it fail the range checks, not the conversion


def _meaningful_lines(source) -> list:
    """Non-empty lines of a string or iterable of lines, comments stripped."""
    raws = io.StringIO(source) if isinstance(source, str) else source
    return [line for line in (raw.partition("#")[0].strip() for raw in raws) if line]


def _number(kind, token: str):
    """Python's `kind(token)` (int, clamped, or float); None if malformed."""
    try:
        return max(-_INT_CLAMP, min(kind(token), _INT_CLAMP)) if kind is int else kind(token)
    except ValueError:
        return None


def _tokens(lines: list, kind):
    """The tokens of a block of lines converted by Python's `kind` (int or
    float): flat values, CSR offsets of the lines and the mask of lines with
    a malformed token (whose value is 0).  Lines are split one at a time, so
    that no list of all tokens is kept."""
    offsets = np.concatenate([[0], np.cumsum(np.fromiter(map(len, map(str.split, lines)), int))])
    try:
        values = np.fromiter(map(kind, chain.from_iterable(map(str.split, lines))), kind)
        return values, offsets, np.zeros(len(lines), bool)
    except (ValueError, OverflowError):
        values = np.array([_number(kind, t) for t in chain.from_iterable(map(str.split, lines))],
                          dtype=object)
    malformed = np.equal(values, None)
    return np.where(malformed, 0, values).astype(kind), offsets, _any_per_row(malformed, offsets)


def _counted_lines(lines: list, what: str, items: str):
    """Counted index lines `k i1 ... ik`: the flat ids, their CSR offsets,
    every count k and the first two checks of a line."""
    values, offsets, malformed = _tokens(lines, int)
    heads = offsets[:-1]
    checks = ((malformed, f"{what} {{}}: malformed index".format, MeshFormatError),
              (values[heads] != np.diff(offsets) - 1,
               f"{what} {{}}: count does not match {items} list".format, MeshFormatError))
    return np.delete(values, heads), offsets - np.arange(len(offsets)), values[heads], checks


def _check_end(lines: list, n: int, what: str):
    """Raise unless there are `n` lines; `what` names the first missing one."""
    if len(lines) < n:
        raise MeshFormatError(f"unexpected end of input while reading {what}")


def parse_polymesh(source) -> Mesh:
    """Parse the POLYMESH text format from a string, path-free stream, or
    iterable of lines, block by block; an error names the lowest bad line.
    The lines are released before the geometry is computed."""
    return Mesh(*_read_polymesh(source))


def _read_polymesh(source):
    """The (positions, face loops, cell faces, cell signs) of POLYMESH text."""
    lines = _meaningful_lines(source)
    _check_end(lines, 1, "header")
    if lines[0].split() != ["POLYMESH", "1"]:
        raise MeshFormatError("malformed header: expected 'POLYMESH 1'")
    _check_end(lines, 2, "counts")
    counts = lines[1].split()
    if len(counts) != 3:
        raise MeshFormatError("malformed counts line: expected '<n_v> <n_f> <n_c>'")
    try:
        n_v, n_f, n_c = (int(c) for c in counts)
    except ValueError:
        raise MeshFormatError("malformed counts line: non-integer count")
    if n_v < 0 or n_f < 0 or n_c < 0:
        raise MeshFormatError("malformed counts line: negative count")
    start = np.cumsum([2, n_v, n_f, n_c]).tolist()
    vertex_lines, face_lines, cell_lines = (lines[a:b] for a, b in zip(start, start[1:]))

    coords, offsets, malformed = _tokens(vertex_lines, float)
    _raise_first(
        (np.diff(offsets) != 3, "vertex {}: expected 3 coordinates".format, MeshFormatError),
        (malformed, "vertex {}: malformed coordinate".format, MeshFormatError),
        (_any_per_row(~np.isfinite(coords), offsets),
         "vertex {}: non-finite coordinate".format, MeshFormatError),
    )
    _check_end(vertex_lines, n_v, f"vertex {len(vertex_lines)}")

    loops, loop_offsets, count, checks = _counted_lines(face_lines, "face", "vertex")
    _raise_first(
        *checks,
        (count < 3, "face {} has fewer than 3 vertices".format),
        (_any_per_row((loops < 0) | (loops >= n_v), loop_offsets),
         "dangling index: face {} references a missing vertex".format),
    )
    _check_end(face_lines, n_f, f"face {len(face_lines)}")

    signed, cell_offsets, count, checks = _counted_lines(cell_lines, "cell", "face")
    _raise_first(
        *checks,
        (count < 4, "cell {} has fewer than 4 faces".format),
        (_any_per_row(signed == 0, cell_offsets),
         "cell {}: face ids are signed and 1-based".format, MeshFormatError),
        (_any_per_row(np.abs(signed) > n_f, cell_offsets),
         "dangling index: cell {} references a missing face".format),
    )
    _check_end(cell_lines, n_c, f"cell {len(cell_lines)}")

    if len(lines) > start[3]:
        raise MeshFormatError(f"trailing content after cell list: {lines[start[3]]!r}")
    return (coords.reshape(n_v, 3), Rows(loops, loop_offsets),
            Rows(np.abs(signed) - 1, cell_offsets), Rows(np.sign(signed), cell_offsets))


def _counted_text(values: np.ndarray, offsets: np.ndarray) -> str:
    """Lines `k i1 ... ik`, one per row of a CSR integer array."""
    sizes = np.diff(offsets)
    line = {m: " ".join(["%d"] * (m + 1)) + "\n" for m in np.unique(sizes).tolist()}
    flat = np.insert(values, offsets[:-1], sizes)
    return "".join(map(line.__getitem__, sizes.tolist())) % tuple(flat.tolist())


def _table(values: np.ndarray, fmt: str) -> str:
    """One line per row of a 2D array, its entries in printf format `fmt`."""
    rows, cols = values.shape
    return ((" ".join([fmt] * cols) + "\n") * rows) % tuple(values.ravel().tolist())


def write_polymesh(mesh: Mesh, stream: TextIO | None = None) -> str:
    """Serialize a mesh to the POLYMESH format (round-trip exact)."""
    signed = mesh.cell_face_signs * (mesh.cell_face_ids + 1)
    text = (f"POLYMESH 1\n{mesh.n_vertices} {mesh.n_faces} {mesh.n_cells}\n"
            + _table(mesh.positions, "%.17g")
            + _counted_text(mesh.face_loop_vertices, mesh.face_loop_offsets)
            + _counted_text(signed, mesh.cell_face_offsets))
    if stream is not None:
        stream.write(text)
    return text


# -- structured generators ----------------------------------------------------


def generate_structured_mesh(kind: str, n: int, perturb: float = 0.0,
                             seed: int = DEFAULT_SEED) -> Mesh:
    """Structured mesh of the unit cube (0,1)^3.

    kind='hex': n^3 cube cells.  kind='tet': each cube split into 6
    tetrahedra sharing the main diagonal, so neighbor faces match.  For tet
    meshes, perturb>0 jitters every interior vertex componentwise by a
    uniform offset in (-d, d) with d = perturb/(2n), using the given seed.
    """
    check_structured_spec(kind, n, perturb)
    # the generators return only the topology, so that their temporaries
    # are released before the geometry is computed
    return Mesh(*(_hex_topology(n) if kind == "hex" else _tet_topology(n, perturb, seed)))


def check_structured_spec(kind: str, n: int, perturb: float = 0.0):
    """Raise ValueError unless `generate_structured_mesh` takes these values."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= perturb < 1.0:
        raise ValueError("perturb must be in [0,1)")
    if kind == "hex" and perturb > 0.0:
        raise ValueError("perturb is only supported for tet meshes "
                         "(hex faces must stay planar)")
    if kind not in ("hex", "tet"):
        raise ValueError(f"unknown mesh kind {kind!r}")


def _grid_positions(n: int) -> np.ndarray:
    side = np.linspace(0.0, 1.0, n + 1)
    z, y, x = np.meshgrid(side, side, side, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


# per face family (normal axis): loop corners as (di, dj, dk) offsets from
# the face's lowest grid point
_HEX_FACE_CORNERS = (
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)),
    ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)),
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)),
)


def _hex_topology(n: int):
    grid = np.arange((n + 1) ** 3).reshape(n + 1, n + 1, n + 1).transpose()  # [i, j, k]
    face_loops = []
    face_ids = []  # per family, the face id at [i, j, k]
    for axis, corners in enumerate(_HEX_FACE_CORNERS):
        ext = [n, n, n]
        ext[axis] = n + 1
        # faces of a family are numbered along the normal axis first, then
        # along the remaining axes in (i, j, k) order
        order = [axis] + [a for a in range(3) if a != axis]
        loop = np.stack([grid[di:di + ext[0], dj:dj + ext[1], dk:dk + ext[2]]
                         for di, dj, dk in corners], axis=-1)
        face_loops.append(loop.transpose(*order, 3).reshape(-1, 4))
        ids = np.arange(np.prod(ext)).reshape([ext[a] for a in order])
        face_ids.append(sum(map(len, face_loops[:-1])) + ids.transpose(np.argsort(order)))
    fx, fy, fz = face_ids
    cell_faces = np.stack([fx[:-1], fx[1:], fy[:, :-1], fy[:, 1:], fz[..., :-1], fz[..., 1:]],
                          axis=-1).transpose(2, 1, 0, 3).reshape(-1, 6)
    cell_signs = np.tile([-1, 1, -1, 1, -1, 1], (n**3, 1))
    return _grid_positions(n), np.vstack(face_loops), cell_faces, cell_signs


def _tet_topology(n: int, perturb: float, seed: int):
    positions = _grid_positions(n)
    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        interior = np.all((positions > 0.0) & (positions < 1.0), axis=1)
        delta = perturb * (1.0 / n) / 2.0
        positions[interior] += rng.uniform(-delta, delta, size=(int(interior.sum()), 3))

    # cubes in (k, j, i) order, 6 tets each: the corners walk from the cube's
    # lowest grid point to its highest along the axes of each permutation,
    # in lexicographic order
    stride = np.array([1, n + 1, (n + 1) ** 2])
    steps = np.zeros((6, 4), dtype=int)
    steps[:, 1:] = np.cumsum(stride[list(permutations(range(3)))], axis=1)
    base = np.arange((n + 1) ** 3).reshape(n + 1, n + 1, n + 1)[:n, :n, :n].ravel()
    tets = (base[:, None, None] + steps).reshape(-1, 4)

    # four faces per tet, each with its opposite vertex; a loop is kept if
    # its normal points away from the opposite vertex, reversed otherwise
    local = np.array([(1, 2, 3, 0), (0, 2, 3, 1), (0, 1, 3, 2), (0, 1, 2, 3)])
    tri = tets[:, local[:, :3]].reshape(-1, 3)
    a, b, c = (positions[tri[:, k]] for k in range(3))
    opposite = positions[tets[:, local[:, 3]].ravel()]
    outward = np.einsum("ij,ij->i", _cross(b - a, c - a), opposite - a) < 0
    loops = np.where(outward[:, None], tri, tri[:, [0, 2, 1]])

    # faces are numbered in order of first occurrence, with sign +1 there
    _, first, inverse = np.unique(np.sort(tri, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.argsort(by_first)
    inverse = inverse.ravel()
    cell_faces = rank[inverse].reshape(-1, 4)
    cell_signs = np.where(first[inverse] == np.arange(len(tri)), 1, -1).reshape(-1, 4)
    return positions, loops[first[by_first]], cell_faces, cell_signs


# -- validation ---------------------------------------------------------------


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Check every mesh invariant; report violations and proxies: the
    regularity (min/max of h_K^3/|K| and of face-area/h_K^2), and over all
    face and cell convex weights the largest deviation from the weight
    identities (sum 1, centroid reproduced) and the smallest weight."""
    report = ValidationReport()
    v = report.violations
    positions = mesh.positions

    referenced = np.bincount(mesh.cell_face_ids, minlength=mesh.n_faces) > 0
    v += _violations((~referenced, "face {} not referenced by any cell".format))

    f_off, loops = mesh.face_loop_offsets, mesh.face_loop_vertices
    owner = _owner(f_off)
    diam = _diameters(positions, f_off, loops)
    n_adj = (mesh.face_cell_signs != 0).sum(axis=1)
    normal = mesh.face_normal
    offset = np.maximum.reduceat(np.abs(np.einsum(
        "ij,ij->i", positions[loops] - mesh.face_centroid[owner], normal[owner])), f_off[:-1])
    not_convex, off_centroid, face_dev = _weight_defects(
        positions, f_off, loops, mesh._face_weights, mesh.face_centroid, diam)
    edge_sum = _row_sums(mesh._edge_lengths[:, None] * mesh._edge_normals, f_off)
    v += _violations(
        (mesh.face_on_boundary != (n_adj == 1),
         "face {}: boundary flag inconsistent with adjacency".format),
        ((n_adj == 2) & (mesh.face_cell_signs.prod(axis=1) != -1),
         "face {}: interior face without opposite orientation signs".format),
        (np.abs(np.linalg.norm(normal, axis=1) - 1.0) > 1e-12,
         "face {}: normal is not unit length".format),
        (offset > PLANARITY_RTOL * diam, "face {}: loop vertices are not coplanar".format),
        (not_convex, "face {}: invalid convex weights".format),
        (off_centroid, "face {}: weights do not reproduce the centroid".format),
        (np.linalg.norm(edge_sum, axis=1) > 1e-12 * max(mesh.h, 1.0),
         "face {}: closed-polygon identity violated".format),
    )

    vb = np.zeros(mesh.n_vertices, dtype=bool)
    vb[loops[mesh.face_on_boundary[owner]]] = True
    if not np.array_equal(vb, mesh.vertex_on_boundary):
        bad = np.flatnonzero(vb != mesh.vertex_on_boundary)
        v.append(f"vertex {bad[0]}: boundary flag inconsistent")

    hk = mesh.cell_diameter
    vol = mesh.cell_volume
    good = vol > 0.0
    c_off, faces = mesh.cell_face_offsets, mesh.cell_face_ids
    entry_cell = _owner(c_off)
    surface = _row_sums((mesh.face_area[faces] * mesh.cell_face_signs)[:, None]
                        * normal[faces], c_off)
    v_off, vertex_ids = mesh.cell_vertex_offsets, mesh.cell_vertex_ids
    not_convex, off_centroid, cell_dev = _weight_defects(
        positions, v_off, vertex_ids, mesh._cell_weights, mesh.cell_centroid, hk)
    v += _violations(
        (~good, "cell {}: non-positive volume".format),
        (good & (np.linalg.norm(surface, axis=1) > 1e-12 * hk**2),
         "cell {}: closed-surface identity violated".format),
        (good & (np.abs(_diameters(positions, v_off, vertex_ids) - hk)
                 > 1e-12 * np.maximum(hk, 1.0)),
         "cell {}: stored diameter mismatch".format),
        (good & not_convex, "cell {}: invalid convex weights".format),
        (good & off_centroid, "cell {}: weights do not reproduce the centroid".format),
    )

    report.proxies["weight_deviation_max"] = float(max(face_dev.max(initial=0.0),
                                                       cell_dev.max(initial=0.0)))
    report.proxies["weight_min"] = float(min(mesh._face_weights.min(initial=np.inf),
                                             mesh._cell_weights.min(initial=np.inf)))
    if good.any():
        proxy_cell = hk[good] ** 3 / vol[good]
        proxy_face = (mesh.face_area[faces] / hk[entry_cell] ** 2)[good[entry_cell]]
        report.proxies["cell_regularity_min"] = float(np.min(proxy_cell))
        report.proxies["cell_regularity_max"] = float(np.max(proxy_cell))
        report.proxies["face_regularity_min"] = float(np.min(proxy_face))
        report.proxies["face_regularity_max"] = float(np.max(proxy_face))
    return report
