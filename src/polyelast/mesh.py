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
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, TextIO

import numpy as np

from .quadrature import tet_rule, triangle_rule

PLANARITY_RTOL = 1e-9
DEGENERATE_AREA_RTOL = 1e-14
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


def _convex_weights(points: np.ndarray, target: np.ndarray, scale: float):
    """Nonnegative weights with sum 1 reproducing `target` as a combination of
    `points`.  Minimizes the deviation from uniform weights subject to the two
    equality constraints; negative entries are repaired by active-set clamping.
    Returns None when no nonnegative solution is found (non-starlike geometry).
    """
    m = len(points)
    mean = points.mean(axis=0)
    if np.linalg.norm(mean - target) <= 1e-13 * max(scale, 1e-300):
        return np.full(m, 1.0 / m)
    active = np.ones(m, dtype=bool)
    d = np.concatenate([[1.0], target])
    for _ in range(m + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return None
        c_mat = np.vstack([np.ones(idx.size), points[idx].T])
        uniform = np.full(idx.size, 1.0 / idx.size)
        rhs = c_mat @ uniform - d
        nu, *_ = np.linalg.lstsq(c_mat @ c_mat.T, rhs, rcond=None)
        w_active = uniform - c_mat.T @ nu
        residual = np.linalg.norm(c_mat @ w_active - d)
        if residual > 1e-10 * max(scale, 1.0):
            return None
        w = np.zeros(m)
        w[idx] = w_active
        negative = w < -1e-13
        if not negative.any():
            return np.maximum(w, 0.0)
        active &= ~negative
    return None


# -- CSR helpers ----------------------------------------------------------------


def _csr(rows):
    """(offsets, ids) of a sequence of integer rows, or of a 2D array."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.shape[1] * np.arange(len(rows) + 1), rows.astype(int).ravel()
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


def _groups(offsets: np.ndarray):
    """Rows of a CSR array grouped by size: per size, the row ids and the
    (n_rows, size) positions of their entries."""
    sizes = np.diff(offsets)
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        yield rows, offsets[rows, None] + np.arange(m)


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


def _rows(flat: np.ndarray, offsets: np.ndarray) -> list:
    """Per-row views into a CSR array."""
    sizes = np.diff(offsets)
    if sizes.size and (sizes == sizes[0]).all():
        return list(flat.reshape(len(sizes), sizes[0], *flat.shape[1:]))
    bounds = offsets.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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


def _diameters(positions: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Largest vertex-to-vertex distance of every row of a CSR vertex array."""
    out = np.zeros(len(offsets) - 1)
    for rows, entries in _groups(offsets):
        pos = positions[ids[entries]]
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        out[rows] = np.sqrt((diff**2).sum(axis=3)).max(axis=(1, 2))
    return out


def _fill_weights(positions, offsets, ids, weights, centroid, diam, fast, rejected):
    """Write `_convex_weights` into the rows of `weights` that fail the
    uniform fast path, in row order up to the first row that an earlier check
    `rejected` or that has no nonnegative weights; return the mask of such
    rows without weights."""
    failed = np.zeros(len(fast), dtype=bool)
    stop = int(np.argmax(rejected)) if rejected.any() else len(fast)
    for i in np.flatnonzero(~fast[:stop]):
        lo, hi = offsets[i], offsets[i + 1]
        w = _convex_weights(positions[ids[lo:hi]], centroid[i], diam[i])
        if w is None:
            failed[i] = True
            break
        weights[lo:hi] = w
    return failed


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
    """Raise MeshError for the lowest entity id that fails a check."""
    failed = _violations(*checks)
    if failed:
        raise MeshError(failed[0])


class Mesh:
    """Polyhedral mesh with all derived geometry.

    Topology is stored once as CSR-style arrays: face -> vertex loop
    (`face_loop_offsets`, `face_loop_vertices`), cell -> signed faces
    (`cell_face_offsets`, `cell_face_ids`, `cell_face_signs`) and cell ->
    sorted vertices (`cell_vertex_offsets`, `cell_vertex_ids`).  The geometry
    arrays are read-only, and the per-entity lists (`face_loops`,
    `face_weights`, `face_edge_*`, `cell_faces`, `cell_signs`,
    `cell_vertices`, `cell_weights`) hold read-only views into flat arrays.
    The mesh memoises nothing: quadrature rules are built on demand, in
    batches over faces or cells.

    Construction validates basic structure (index ranges, loop/face counts,
    planarity, positive volumes, convex weights) and reports the lowest
    failing entity id; use :func:`validate_mesh` for the full invariant
    report.
    """

    def __init__(self, positions, face_loops, cell_faces, cell_signs):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise MeshError("positions must be an (n,3) array")
        self.n_vertices = len(self.positions)
        self.face_loop_offsets, self.face_loop_vertices = _csr(face_loops)
        self.cell_face_offsets, self.cell_face_ids = _csr(cell_faces)
        sign_offsets, self.cell_face_signs = _csr(cell_signs)
        self.n_faces = len(self.face_loop_offsets) - 1
        self.n_cells = len(self.cell_face_offsets) - 1
        self._check_connectivity(sign_offsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._compute_face_geometry()
            self._build_adjacency()
            self._compute_cell_geometry()
        self.h = float(self.cell_diameter.max()) if self.n_cells else 0.0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        f_off, c_off, v_off = (self.face_loop_offsets, self.cell_face_offsets,
                               self.cell_vertex_offsets)
        self.face_loops = _rows(self.face_loop_vertices, f_off)
        self.face_weights = _rows(self._face_weights, f_off)
        self.face_edge_lengths = _rows(self._edge_lengths, f_off)
        self.face_edge_midpoints = _rows(self._edge_midpoints, f_off)
        self.face_edge_normals = _rows(self._edge_normals, f_off)
        self.cell_faces = _rows(self.cell_face_ids, c_off)
        self.cell_signs = _rows(self.cell_face_signs, c_off)
        self.cell_vertices = _rows(self.cell_vertex_ids, v_off)
        self.cell_weights = _rows(self._cell_weights, v_off)

    # -- construction ------------------------------------------------------

    def _check_connectivity(self, sign_offsets):
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
        off, loops = self.face_loop_offsets, self.face_loop_vertices
        sizes = np.diff(off)
        owner = _owner(off)
        tris, _, tri_off = _fan(off, loops)
        a, b, c = (self.positions[tris[:, k]] for k in range(3))
        cross = np.cross(b - a, c - a)
        vec_area = 0.5 * _row_sums(cross, tri_off)
        # rounds as `np.linalg.norm` of a single vector does
        vec_norm = np.sqrt((vec_area[:, None, :] @ vec_area[:, :, None])[:, 0, 0])
        normal = vec_area / vec_norm[:, None]
        tri_signed = np.zeros(len(tris))
        for rows, entries in _groups(tri_off):  # stacked products add as `cross @ normal`
            tri_signed[entries] = 0.5 * (cross[entries] @ normal[rows, :, None])[..., 0]
        area = _row_sums(tri_signed, tri_off)
        centroid = (_row_sums(tri_signed[:, None] * ((a + b + c) / 3.0), tri_off)
                    / area[:, None])
        diam = _diameters(self.positions, off, loops)
        pos = self.positions[loops]
        offset = np.maximum.reduceat(
            np.abs(np.einsum("ij,ij->i", pos - centroid[owner], normal[owner])), off[:-1])
        tol = PLANARITY_RTOL * diam
        degenerate = (area < DEGENERATE_AREA_RTOL * diam**2) | (vec_norm == 0.0)
        non_planar = offset > tol
        weights = np.repeat(1.0 / sizes, sizes)
        mean = _row_sums(pos, off) / sizes[:, None]
        fast = np.linalg.norm(mean - centroid, axis=1) <= 1e-13 * np.maximum(diam, 1e-300)
        no_weights = _fill_weights(self.positions, off, loops, weights, centroid,
                                   diam, fast, degenerate | non_planar)
        nxt = np.arange(1, len(loops) + 1)
        nxt[off[1:] - 1] = off[:-1]
        tangents = pos[nxt] - pos
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
        self._edge_midpoints = 0.5 * (pos + pos[nxt])
        self._edge_normals = np.cross(tangents / lengths[:, None], normal[owner])

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
        positions = self.positions
        f_off, c_off = self.face_loop_offsets, self.cell_face_offsets
        faces = self.cell_face_ids
        entry_cell = _owner(c_off)
        # the loop of every cell face, reversed where the sign is -1, so that
        # its fan triangles have the cell's outward normal
        sizes = np.diff(f_off)[faces]
        e_off = np.concatenate([[0], np.cumsum(sizes)])
        start = np.repeat(f_off[faces], sizes)
        j = np.arange(e_off[-1]) - np.repeat(e_off[:-1], sizes)
        j = np.where(np.repeat(self.cell_face_signs > 0, sizes), j,
                     np.repeat(sizes, sizes) - 1 - j)
        loops = self.face_loop_vertices[start + j]
        keys = np.unique(np.repeat(entry_cell, sizes) * self.n_vertices + loops)
        vertex_cell, vertex_ids = np.divmod(keys, self.n_vertices)
        v_off = np.concatenate([[0], np.cumsum(np.bincount(vertex_cell,
                                                           minlength=self.n_cells))])
        nv = np.diff(v_off)
        diam = _diameters(positions, v_off, vertex_ids)
        apex = _row_sums(positions[vertex_ids], v_off) / nv[:, None]
        # sub-tets (fan triangle, vertex mean) of every cell
        tris, tri_entry, tri_off = _fan(e_off, loops)
        tri_apex = apex[entry_cell[tri_entry]]
        corners = positions[tris]
        d = corners - tri_apex[:, None, :]
        v6 = np.einsum("ij,ij->i", np.cross(d[:, 0], d[:, 1]), d[:, 2])
        # summed per face, then over the faces of the cell
        vol = _row_sums(_row_sums(v6, tri_off) / 6.0, c_off)
        tet_centroids = (tri_apex + corners.sum(axis=1)) / 4.0
        moment = _row_sums(_row_sums(v6[:, None] / 6.0 * tet_centroids, tri_off), c_off)
        centroid = moment / vol[:, None]
        non_positive = ~(vol > 0.0)
        weights = np.repeat(1.0 / nv, nv)
        fast = np.linalg.norm(apex - centroid, axis=1) <= 1e-13 * np.maximum(diam, 1e-300)
        no_weights = _fill_weights(positions, v_off, vertex_ids, weights, centroid,
                                   diam, fast, non_positive)
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
        (loop[0], loop[t+1], loop[t+2]) of the face loop."""
        faces = np.arange(self.n_faces) if faces is None else np.asarray(faces, dtype=int)
        ref_pts, ref_w = triangle_rule(degree)
        entries, _ = row_entries(self._face_tri_offsets, faces)
        a, b, c = (self.positions[self._face_tris[entries, k], None] for k in range(3))
        x, y = ref_pts[:, :1], ref_pts[:, 1:]
        points = (a + x * (b - a) + y * (c - a)).reshape(-1, 3)
        weights = (self._tri_signed[entries, None] * ref_w).ravel()
        offsets = len(ref_w) * np.concatenate(
            [[0], np.cumsum(np.diff(self._face_tri_offsets)[faces])])
        return points, weights, offsets

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
        loop."""
        cells = np.arange(self.n_cells) if cells is None else np.asarray(cells, dtype=int)
        ref_pts, ref_w = tet_rule(degree)
        entries, owner = row_entries(self._cell_tri_offsets, cells)
        tris = self.positions[self._cell_tris[entries]]
        apex = self.cell_centroid[cells][owner]
        d = tris - apex[:, None, :]
        v6 = np.einsum("ij,ij->i", np.cross(d[:, 1], d[:, 2]), d[:, 0])
        edges = np.concatenate([tris[:, 1:], apex[:, None]], axis=1) - tris[:, :1]
        points = (tris[:, :1] + ref_pts @ edges).reshape(-1, 3)
        weights = ((v6 / 6.0)[:, None] * ref_w).ravel()
        offsets = len(ref_w) * np.concatenate(
            [[0], np.cumsum(np.diff(self._cell_tri_offsets)[cells])])
        return points, weights, offsets

    def cell_quadrature(self, cid: int, degree: int):
        """Points and absolute weights integrating over cell `cid`: the
        batched rule for that cell alone."""
        points, weights, _ = self.batched_cell_quadrature(degree, [cid])
        return points, weights


def _integrals(mesh: Mesh, kind: str, degree: int, integrand: Callable,
               ids=None) -> np.ndarray:
    """Integral over every face (`kind` "face") or cell (`kind` "cell") of
    `ids` (default: all of them) of `integrand(points, at)`, where `at` is the
    position in `ids` of the face or cell of each point, by the batched rule
    of that degree.  The integrand is called on runs of consecutive entities
    with at most `_CHUNK_POINTS` points in all (or one entity, where it alone
    has more), so the memory it takes does not grow with the mesh."""
    if kind == "face":
        rule, simplices, ref = mesh.batched_face_quadrature, mesh._face_tri_offsets, triangle_rule
    else:
        rule, simplices, ref = mesh.batched_cell_quadrature, mesh._cell_tri_offsets, tet_rule
    ids = np.arange(len(simplices) - 1) if ids is None else np.asarray(ids, dtype=int)
    ends = len(ref(degree)[1]) * np.concatenate([[0], np.cumsum(np.diff(simplices)[ids])])
    parts, lo = [], 0
    while lo < len(ids):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _CHUNK_POINTS, "right")) - 1)
        points, weights, offsets = rule(degree, ids[lo:hi])
        values = np.asarray(integrand(points, lo + _owner(offsets)), dtype=float)
        flat = values.reshape(len(weights), -1)
        sums = np.empty((hi - lo, flat.shape[1]))
        for rows, entries in _groups(offsets):
            sums[rows] = (weights[entries][:, None, :] @ flat[entries])[:, 0]
        parts.append(sums.reshape((hi - lo,) + values.shape[1:]))
        lo = hi
    return np.concatenate(parts) if parts else np.zeros(0)


# -- POLYMESH format ---------------------------------------------------------


def _meaningful_lines(stream: TextIO):
    for raw in stream:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_polymesh(source) -> Mesh:
    """Parse the POLYMESH text format from a string, path-free stream, or
    iterable of lines."""
    if isinstance(source, str):
        stream = io.StringIO(source)
    else:
        stream = source
    lines = _meaningful_lines(stream)

    def next_line(what):
        try:
            return next(lines)
        except StopIteration:
            raise MeshFormatError(f"unexpected end of input while reading {what}")

    def counted_ints(what, items):
        try:
            ints = [int(p) for p in next_line(what).split()]
        except ValueError:
            raise MeshFormatError(f"{what}: malformed index")
        if not ints or ints[0] != len(ints) - 1:
            raise MeshFormatError(f"{what}: count does not match {items} list")
        return ints

    header = next_line("header").split()
    if header != ["POLYMESH", "1"]:
        raise MeshFormatError("malformed header: expected 'POLYMESH 1'")
    counts = next_line("counts").split()
    if len(counts) != 3:
        raise MeshFormatError("malformed counts line: expected '<n_v> <n_f> <n_c>'")
    try:
        n_v, n_f, n_c = (int(c) for c in counts)
    except ValueError:
        raise MeshFormatError("malformed counts line: non-integer count")
    if n_v < 0 or n_f < 0 or n_c < 0:
        raise MeshFormatError("malformed counts line: negative count")

    positions = np.empty((n_v, 3))
    for i in range(n_v):
        parts = next_line(f"vertex {i}").split()
        if len(parts) != 3:
            raise MeshFormatError(f"vertex {i}: expected 3 coordinates")
        try:
            positions[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"vertex {i}: malformed coordinate")

    face_loops = []
    for i in range(n_f):
        ints = counted_ints(f"face {i}", "vertex")
        if ints[0] < 3:
            raise MeshError(f"face {i} has fewer than 3 vertices")
        loop = np.array(ints[1:], dtype=int)
        if loop.min() < 0 or loop.max() >= n_v:
            raise MeshError(f"dangling index: face {i} references a missing vertex")
        face_loops.append(loop)

    cell_faces = []
    cell_signs = []
    for i in range(n_c):
        ints = counted_ints(f"cell {i}", "face")
        if ints[0] < 4:
            raise MeshError(f"cell {i} has fewer than 4 faces")
        signed = np.array(ints[1:], dtype=int)
        if np.any(signed == 0):
            raise MeshFormatError(f"cell {i}: face ids are signed and 1-based")
        faces = np.abs(signed) - 1
        if faces.max() >= n_f:
            raise MeshError(f"dangling index: cell {i} references a missing face")
        cell_faces.append(faces)
        cell_signs.append(np.sign(signed))

    leftover = next(lines, None)
    if leftover is not None:
        raise MeshFormatError(f"trailing content after cell list: {leftover!r}")
    return Mesh(positions, face_loops, cell_faces, cell_signs)


def write_polymesh(mesh: Mesh, stream: TextIO | None = None) -> str:
    """Serialize a mesh to the POLYMESH format (round-trip exact)."""
    out = io.StringIO()
    out.write("POLYMESH 1\n")
    out.write(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_cells}\n")
    for p in mesh.positions:
        out.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    for loop in mesh.face_loops:
        out.write(" ".join([str(len(loop))] + [str(v) for v in loop]) + "\n")
    for faces, signs in zip(mesh.cell_faces, mesh.cell_signs):
        ids = [str(int(s) * (int(f) + 1)) for f, s in zip(faces, signs)]
        out.write(" ".join([str(len(faces))] + ids) + "\n")
    text = out.getvalue()
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= perturb < 1.0:
        raise ValueError("perturb must be in [0,1)")
    if kind == "hex":
        if perturb > 0.0:
            raise ValueError("perturb is only supported for tet meshes "
                             "(hex faces must stay planar)")
        return _generate_hex(n)
    if kind == "tet":
        return _generate_tet(n, perturb, seed)
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


def _generate_hex(n: int) -> Mesh:
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
    return Mesh(_grid_positions(n), np.vstack(face_loops), cell_faces, cell_signs)


def _generate_tet(n: int, perturb: float, seed: int) -> Mesh:
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
    outward = np.einsum("ij,ij->i", np.cross(b - a, c - a), opposite - a) < 0
    loops = np.where(outward[:, None], tri, tri[:, [0, 2, 1]])

    # faces are numbered in order of first occurrence, with sign +1 there
    _, first, inverse = np.unique(np.sort(tri, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.argsort(by_first)
    inverse = inverse.ravel()
    cell_faces = rank[inverse].reshape(-1, 4)
    cell_signs = np.where(first[inverse] == np.arange(len(tri)), 1, -1).reshape(-1, 4)
    return Mesh(positions, loops[first[by_first]], cell_faces, cell_signs)


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
