"""Convex vertex weights of faces and cells as built by `Mesh`: the weights
of a mesh against one-row calls of `_convex_weights` and against a per-row
active set on the normal matrix in global coordinates, a batch of rows
against each row alone, one `_convex_weights` call per row size with the
active-set clamp inside it, and Voronoi cells that validate.  Also holds `jittered_prisms_text` and
`voronoi_text`, POLYMESH generators of polytopal test meshes."""

from itertools import combinations, product

import numpy as np
import pytest
from scipy.spatial import Voronoi

import polyelast.mesh as mesh_module
from polyelast.mesh import (DEFAULT_SEED, NEGATIVE_TOL, RESIDUAL_RTOL, UNIFORM_RTOL,
                            _convex_weights, parse_polymesh, validate_mesh)
from test_polyhedral import merged_hex_text, pentagonal_prism_text


def jittered_prisms_text(n: int, jitter: float, seed: int) -> str:
    """POLYMESH text of n^3 prisms: the n x n quadrilateral grid of the unit
    square, its interior nodes moved by up to jitter/(2n) per component,
    extruded through n layers of height 1/n."""
    rng = np.random.default_rng(seed)
    side = np.linspace(0.0, 1.0, n + 1)
    x, y = np.meshgrid(side, side)
    xy = np.column_stack([x.ravel(), y.ravel()])  # node i + (n+1)*j
    inner = np.all((xy > 0.0) & (xy < 1.0), axis=1)
    delta = jitter / (2.0 * n)
    xy[inner] += rng.uniform(-delta, delta, size=(int(inner.sum()), 2))
    per_level = (n + 1) ** 2
    positions = np.column_stack([np.tile(xy, (n + 1, 1)), np.repeat(side, per_level)])

    node = np.arange(per_level).reshape(n + 1, n + 1)
    quads = np.stack([node[:-1, :-1], node[:-1, 1:], node[1:, 1:], node[1:, :-1]],
                     axis=-1).reshape(-1, 4)  # counterclockwise
    edges = np.vstack([np.stack([node[:, :-1], node[:, 1:]], axis=-1).reshape(-1, 2),
                       np.stack([node[:-1], node[1:]], axis=-1).reshape(-1, 2)])  # a < b
    levels = per_level * np.arange(n + 1)
    # horizontal faces have normal +z; the vertical face over edge (a, b)
    # has normal (b - a) x z
    horizontal = (quads + levels[:, None, None]).reshape(-1, 4)
    vertical = np.concatenate([edges + levels[:-1, None, None],
                               edges[:, ::-1] + levels[1:, None, None]], axis=-1).reshape(-1, 4)

    keys = edges[:, 0] * per_level + edges[:, 1]
    a, b = quads, np.roll(quads, -1, axis=1)
    order = np.argsort(keys)
    edge_of = order[np.searchsorted(keys, np.minimum(a, b) * per_level + np.maximum(a, b),
                                    sorter=order)]
    layer = np.arange(n)[:, None, None]
    n_quads = len(quads)
    sides = np.where(a < b, 1, -1) * (len(horizontal) + layer * len(edges) + edge_of + 1)
    bottom = -(layer * n_quads + np.arange(n_quads)[:, None] + 1)
    cells = np.concatenate([bottom, n_quads - bottom, sides], axis=-1).reshape(-1, 6)

    lines = ["POLYMESH 1", f"{len(positions)} {len(horizontal) + len(vertical)} {len(cells)}"]
    lines += [" ".join(f"{c:.17g}" for c in p) for p in positions.tolist()]
    lines += [" ".join(map(str, [4, *loop])) for loop in np.vstack([horizontal, vertical]).tolist()]
    lines += [" ".join(map(str, [6, *ids])) for ids in cells.tolist()]
    return "\n".join(lines) + "\n"


def voronoi_text(n: int, jitter: float, seed: int) -> str:
    """POLYMESH text of the Voronoi cells of n^3 seeds: the cell centres of
    the n^3 grid of the unit cube, moved by up to jitter/(2n) per component,
    mirrored across the six cube faces so that the cells of the seeds tile
    the cube.  The face of seeds p < q has its normal from p to q, and its
    vertices in the order of their angle about their mean in the plane
    normal to q - p."""
    rng = np.random.default_rng(seed)
    side = (np.arange(n) + 0.5) / n
    z, y, x = np.meshgrid(side, side, side, indexing="ij")
    seeds = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    delta = jitter / (2.0 * n)
    seeds += rng.uniform(-delta, delta, size=seeds.shape)
    points = np.tile(seeds, (7, 1, 1))
    for k, (axis, wall) in enumerate(product(range(3), (0.0, 2.0)), start=1):
        points[k, :, axis] = wall - seeds[:, axis]
    vor = Voronoi(points.reshape(-1, 3))
    pairs = np.sort(vor.ridge_points, axis=1)
    faces = np.flatnonzero(pairs[:, 0] < len(seeds))
    pairs = pairs[faces]
    ridges = [vor.ridge_vertices[r] for r in faces.tolist()]
    sizes = np.array([len(r) for r in ridges])
    loops = [None] * len(ridges)
    for m in np.unique(sizes):  # one batch per ridge size
        rows = np.flatnonzero(sizes == m)
        ids = np.array([ridges[r] for r in rows])
        normal = vor.points[pairs[rows, 1]] - vor.points[pairs[rows, 0]]
        u = np.cross(normal, np.eye(3)[np.argmin(np.abs(normal), axis=1)])
        v = np.cross(normal, u)  # (u, v, normal) is right-handed
        d = vor.vertices[ids] - vor.vertices[ids].mean(axis=1, keepdims=True)
        angle = np.arctan2(np.einsum("kmj,kj->km", d, v), np.einsum("kmj,kj->km", d, u))
        ordered = np.take_along_axis(ids, np.argsort(angle, axis=1), axis=1)
        for r, loop in zip(rows.tolist(), ordered.tolist()):
            loops[r] = loop
    used, flat = np.unique(np.concatenate(loops), return_inverse=True)
    loops = np.split(flat, np.cumsum(sizes)[:-1])
    cells = [[] for _ in seeds]
    for f, (p, q) in enumerate(pairs.tolist()):
        cells[p].append(f + 1)
        if q < len(seeds):
            cells[q].append(-(f + 1))

    lines = ["POLYMESH 1", f"{len(used)} {len(loops)} {len(cells)}"]
    lines += [" ".join(f"{c:.17g}" for c in p) for p in vor.vertices[used].tolist()]
    lines += [" ".join(map(str, [len(loop), *loop.tolist()])) for loop in loops]
    lines += [" ".join(map(str, [len(ids), *ids])) for ids in cells]
    return "\n".join(lines) + "\n"


def clamped_prism_text() -> str:
    """One prism over a triangle-like base whose bottom edge carries 20
    vertices bunched near x = 2: the vertex mean sits far from the centroid,
    so the first (all-active) solve of the weights of both bases and of the
    cell leaves the corner at the origin negative."""
    base = ([(0.0, 0.0)] + [(x, 0.0) for x in np.linspace(1.9, 2.1, 20).tolist()]
            + [(10.0, 0.0), (0.0, 1.0)])
    m = len(base)
    positions = [(x, y, z) for z in (0.0, 1.0) for x, y in base]
    loops = [list(range(m))[::-1], list(range(m, 2 * m))]
    loops += [[i, (i + 1) % m, (i + 1) % m + m, i + m] for i in range(m)]
    lines = ["POLYMESH 1", f"{2 * m} {len(loops)} 1"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in positions]
    lines += [" ".join(map(str, [len(loop), *loop])) for loop in loops]
    lines.append(" ".join(map(str, [len(loops), *range(1, len(loops) + 1)])))
    return "\n".join(lines) + "\n"


MESHES = {
    "prisms-6": lambda: parse_polymesh(jittered_prisms_text(6, 0.3, 7)),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
    "clamped-prism": lambda: parse_polymesh(clamped_prism_text()),
}


def diameter(pos):
    return max(np.linalg.norm(p - q) for p, q in combinations(pos, 2))


def first_solve(pos, target):
    """The all-active step of `_convex_weights`: the weights closest to
    uniform with sum 1 that reproduce `target`, signs unchecked."""
    c_mat = np.vstack([np.ones(len(pos)), pos.T])
    uniform = np.full(len(pos), 1.0 / len(pos))
    nu, *_ = np.linalg.lstsq(c_mat @ c_mat.T, c_mat @ uniform - np.r_[1.0, target], rcond=None)
    return uniform - c_mat.T @ nu


def per_row_convex_weights(pos, target, scale):
    """Reference weights, solved apart from `_convex_weights`: one row at a
    time, by `lstsq` of the normal matrix of the constraints in global
    coordinates, clamping negative weights until none is left; None when
    the residual fails or no vertex stays active."""
    m = len(pos)
    if np.linalg.norm(pos.mean(axis=0) - target) <= UNIFORM_RTOL * max(scale, 1e-300):
        return np.full(m, 1.0 / m)
    active = np.ones(m, dtype=bool)
    d = np.r_[1.0, target]
    while active.any():
        idx = np.flatnonzero(active)
        c_mat = np.vstack([np.ones(idx.size), pos[idx].T])
        uniform = np.full(idx.size, 1.0 / idx.size)
        nu, *_ = np.linalg.lstsq(c_mat @ c_mat.T, c_mat @ uniform - d, rcond=None)
        w = np.zeros(m)
        w[idx] = uniform - c_mat.T @ nu
        if np.linalg.norm(c_mat @ w[idx] - d) > RESIDUAL_RTOL * max(scale, 1.0):
            return None
        negative = w < NEGATIVE_TOL
        if not negative.any():
            return np.maximum(w, 0.0)
        active &= ~negative
    return None


def rows_of(mesh):
    """(vertex ids, weights, centroid) of every face, then of every cell."""
    yield from zip(mesh.face_loops, mesh.face_weights, mesh.face_centroid)
    yield from zip(mesh.cell_vertices, mesh.cell_weights, mesh.cell_centroid)


@pytest.mark.parametrize("name", MESHES)
def test_weights_match_per_row_convex_weights(name):
    mesh = MESHES[name]()
    for ids, weights, centroid in rows_of(mesh):
        pos = mesh.positions[ids]
        reference = per_row_convex_weights(pos, centroid, diameter(pos))
        assert np.abs(weights - reference).max() <= 1e-13 * reference.max()
        expected = _convex_weights(pos, centroid, diameter(pos))
        assert np.abs(weights - expected).max() <= 1e-15


def test_prisms_use_the_batched_solve_only(monkeypatch):
    calls = []
    monkeypatch.setattr(mesh_module, "_convex_weights",
                        lambda *args: calls.append(args[0].shape) or _convex_weights(*args))
    mesh = parse_polymesh(jittered_prisms_text(6, 0.3, 7))
    # one stack per row size: the 7 x 36 horizontal faces, then the 216 cells
    assert calls == [(252, 4, 3), (216, 8, 3)]
    # the jittered bases and the cells over them miss the uniform fast path
    uniform = [np.allclose(w, 1.0 / len(w), rtol=0, atol=1e-12) for w in mesh.face_weights]
    assert not all(uniform)
    assert not any(np.allclose(w, 1.0 / len(w), rtol=0, atol=1e-12) for w in mesh.cell_weights)


def test_negative_first_solve_is_clamped_within_its_stack(monkeypatch):
    """The rows whose first solve comes out negative are clamped within
    their stack: construction solves no row on its own."""
    calls = []
    monkeypatch.setattr(mesh_module, "_convex_weights",
                        lambda *args: calls.append(len(args[0])) or _convex_weights(*args))
    mesh = parse_polymesh(clamped_prism_text())
    assert calls == [2, 1]  # both bases in one stack, then the cell
    rows = [*rows_of(mesh)]
    for ids, weights, centroid in rows[:2] + rows[-1:]:
        pos = mesh.positions[ids]
        assert first_solve(pos, centroid).min() < -1e-3
        assert weights.min() >= 0.0
        assert np.abs(weights - _convex_weights(pos, centroid, diameter(pos))).max() <= 1e-15
        reference = per_row_convex_weights(pos, centroid, diameter(pos))
        assert np.abs(weights - reference).max() <= 1e-13 * reference.max()
        assert np.abs(weights @ pos - centroid).max() <= 1e-12


def test_batched_solve_keeps_to_the_numpy_1_pinv_signature(monkeypatch):
    """NumPy 1.x `pinv` takes (a, rcond, hermitian) and no `rtol`."""
    pinv, calls = np.linalg.pinv, []

    def numpy_1_pinv(a, rcond=1e-15, hermitian=False):
        calls.append(a.shape)
        return pinv(a, rcond, hermitian)

    monkeypatch.setattr(np.linalg, "pinv", numpy_1_pinv)
    mesh = parse_polymesh(jittered_prisms_text(3, 0.3, 1))
    assert calls and mesh.n_cells == 27


def test_construction_solves_each_row_size_in_one_stack(monkeypatch):
    pinv, shapes = np.linalg.pinv, []
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda a, rcond: shapes.append(a.shape) or pinv(a, rcond))
    parse_polymesh(clamped_prism_text())
    # both bases in one stack of 3 x 23 coordinate rows, then the cell; each
    # stack is solved again after a clamp
    assert shapes[0] == (2, 3, 23)
    assert (1, 3, 46) in shapes
    assert {shape[1:] for shape in shapes} == {(3, 23), (3, 46)}


def test_a_batch_of_rows_solves_each_row_as_alone():
    clamped = parse_polymesh(clamped_prism_text())
    base, target = clamped.positions[clamped.face_loops[0]], clamped.face_centroid[0]
    t = 2.0 * np.pi * np.arange(len(base)) / len(base)
    polygon = np.column_stack([np.cos(t), np.sin(t), np.zeros(len(base))])
    rows = np.stack([polygon, base, polygon])
    targets = np.array([[0.1, 0.05, 0.0], target, [2.0, 0.0, 0.0]])  # the last is outside
    scales = np.array([diameter(pos) for pos in rows])
    weights, failed = _convex_weights(rows, targets, scales)
    assert failed.tolist() == [False, False, True]
    for pos, aim, scale, w in zip(rows[:2], targets, scales, weights):
        assert np.array_equal(w, _convex_weights(pos, aim, scale))
        reference = per_row_convex_weights(pos, aim, scale)
        assert np.abs(w - reference).max() <= 1e-13 * reference.max()
        assert np.abs(w @ pos - aim).max() <= 1e-12
    assert _convex_weights(rows[2], targets[2], scales[2]) is None
    assert per_row_convex_weights(rows[2], targets[2], scales[2]) is None
    assert first_solve(polygon, targets[0]).min() > 0.0 and weights[0].min() > 0.0
    assert first_solve(base, target).min() < -1e-3 and weights[1].min() == 0.0


def test_voronoi_cells_validate():
    mesh = parse_polymesh(voronoi_text(8, 0.1, DEFAULT_SEED))
    report = validate_mesh(mesh)
    assert report.ok, report.violations[:3]
    assert report.proxies["weight_deviation_max"] <= 1e-14
    assert min(mesh._face_weights.min(), mesh._cell_weights.min()) >= 0.0
