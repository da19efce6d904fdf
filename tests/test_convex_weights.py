"""Convex vertex weights of faces and cells as built by `Mesh`: the batched
first solve against the per-row `_convex_weights`, the active-set
continuation inside construction, and a guard that jittered prisms need no
per-row solve.  Also holds `jittered_prisms_text`, a POLYMESH generator of
polytopal test meshes."""

from itertools import combinations

import numpy as np
import pytest

import polyelast.mesh as mesh_module
from polyelast.mesh import _convex_weights, parse_polymesh
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


def rows_of(mesh):
    """(vertex ids, weights, centroid) of every face, then of every cell."""
    yield from zip(mesh.face_loops, mesh.face_weights, mesh.face_centroid)
    yield from zip(mesh.cell_vertices, mesh.cell_weights, mesh.cell_centroid)


@pytest.mark.parametrize("name", MESHES)
def test_weights_match_per_row_convex_weights(name):
    mesh = MESHES[name]()
    for ids, weights, centroid in rows_of(mesh):
        pos = mesh.positions[ids]
        expected = _convex_weights(pos, centroid, diameter(pos))
        assert np.abs(weights - expected).max() <= 1e-15


def test_prisms_use_the_batched_solve_only(monkeypatch):
    calls = []
    monkeypatch.setattr(mesh_module, "_convex_weights",
                        lambda *args: calls.append(args) or _convex_weights(*args))
    mesh = parse_polymesh(jittered_prisms_text(6, 0.3, 7))
    assert calls == []
    # the jittered bases and the cells over them miss the uniform fast path
    uniform = [np.allclose(w, 1.0 / len(w), rtol=0, atol=1e-12) for w in mesh.face_weights]
    assert not all(uniform)
    assert not any(np.allclose(w, 1.0 / len(w), rtol=0, atol=1e-12) for w in mesh.cell_weights)


def test_negative_first_solve_continues_per_row(monkeypatch):
    calls = []
    monkeypatch.setattr(mesh_module, "_convex_weights",
                        lambda *args: calls.append(len(args[0])) or _convex_weights(*args))
    mesh = parse_polymesh(clamped_prism_text())
    assert calls == [23, 23, 46]  # both bases, then the cell
    rows = [*rows_of(mesh)]
    for ids, weights, centroid in rows[:2] + rows[-1:]:
        pos = mesh.positions[ids]
        assert first_solve(pos, centroid).min() < -1e-3
        assert weights.min() >= 0.0
        assert np.abs(weights - _convex_weights(pos, centroid, diameter(pos))).max() <= 1e-15
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
