"""The batched mesh construction against per-entity oracles written here,
the Kuhn numbering of the tet generator, and the order in which the
construction checks report invalid input."""

import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from polyelast.mesh import (
    MeshError,
    generate_structured_mesh,
    parse_polymesh,
    write_polymesh,
)
from test_polyhedral import merged_hex_text

RTOL = 1e-14


def assert_close(actual, expected):
    """Max-norm deviation relative to the largest expected entry."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= RTOL * np.abs(expected).max()


def oracle_face(pos):
    """Area, unit normal and centroid of a planar polygon, from a shoelace
    (cross-product) sum about the vertex mean."""
    mean = pos.mean(axis=0)
    d = pos - mean
    d_next = np.roll(d, -1, axis=0)
    crosses = np.cross(d, d_next)
    vec = 0.5 * crosses.sum(axis=0)
    area = np.linalg.norm(vec)
    normal = vec / area
    signed = 0.5 * crosses @ normal
    centroid = mean + (signed[:, None] * (d + d_next) / 3.0).sum(axis=0) / signed.sum()
    return area, normal, centroid


def oracle_cell(positions, loops, signs):
    """Volume and centroid of a polyhedron from the divergence theorem:
    |K| = 1/3 sum_f int_f y.n and int_K y_i = 1/2 sum_f int_f y_i^2 n_i, with
    y = x - (vertex mean), integrated exactly over triangles that fan from
    each face's vertex mean."""
    origin = positions[np.unique(np.concatenate(loops))].mean(axis=0)
    vol = 0.0
    first = np.zeros(3)
    for loop, sign in zip(loops, signs):
        pos = positions[loop if sign > 0 else loop[::-1]] - origin
        m = pos.mean(axis=0)
        for b, c in zip(pos, np.roll(pos, -1, axis=0)):
            vec_area = 0.5 * np.cross(b - m, c - m)
            vol += (m + b + c) @ vec_area / 9.0
            quad = m**2 + b**2 + c**2 + m * b + b * c + c * m
            first += vec_area * quad / 12.0
    return vol, origin + first / vol


def brute_force_diameter(pos):
    return max(np.linalg.norm(p - q) for p, q in combinations(pos, 2))


MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
}


@pytest.mark.parametrize("name", MESHES)
def test_batched_geometry_matches_per_entity_oracle(name):
    mesh = MESHES[name]()
    faces = [oracle_face(mesh.positions[loop]) for loop in mesh.face_loops]
    assert_close(mesh.face_area, [a for a, _, _ in faces])
    assert_close(mesh.face_normal, [n for _, n, _ in faces])
    assert_close(mesh.face_centroid, [c for _, _, c in faces])

    for fid, loop in enumerate(mesh.face_loops):
        pos = mesh.positions[loop]
        nxt = np.roll(pos, -1, axis=0)
        assert_close(mesh.face_edge_lengths[fid], np.linalg.norm(nxt - pos, axis=1))
        assert_close(mesh.face_edge_midpoints[fid], 0.5 * (pos + nxt))
        # unit, in the face plane, normal to its edge, pointing away from
        # the (convex) face's centroid
        edge_n = mesh.face_edge_normals[fid]
        assert_close(np.linalg.norm(edge_n, axis=1), np.ones(len(loop)))
        assert np.abs(edge_n @ mesh.face_normal[fid]).max() <= 1e-14
        assert np.abs(np.einsum("ij,ij->i", edge_n, nxt - pos)).max() <= 1e-14
        assert np.all(np.einsum("ij,ij->i", edge_n,
                                0.5 * (pos + nxt) - mesh.face_centroid[fid]) > 0)

    cells = []
    for faces_c, signs_c in zip(mesh.cell_faces, mesh.cell_signs):
        loops = [mesh.face_loops[f] for f in faces_c]
        verts = sorted({int(v) for loop in loops for v in loop})
        cells.append((verts, *oracle_cell(mesh.positions, loops, signs_c)))
    for cid, (verts, _, _) in enumerate(cells):
        assert mesh.cell_vertices[cid].tolist() == verts
    assert_close(mesh.cell_volume, [vol for _, vol, _ in cells])
    assert_close(mesh.cell_centroid, [c for _, _, c in cells])
    assert_close(mesh.cell_diameter,
                 [brute_force_diameter(mesh.positions[v]) for v, _, _ in cells])
    assert mesh.h == max(mesh.cell_diameter)


def test_kuhn_numbering_invariants():
    mesh = generate_structured_mesh("tet", 3, perturb=0.3)
    seen = set()
    next_id = 0
    for faces, signs in zip(mesh.cell_faces, mesh.cell_signs):
        for fid, sign in zip(faces.tolist(), signs.tolist()):
            first = fid not in seen
            if first:
                # face ids first appear in increasing order
                assert fid == next_id
                next_id += 1
                seen.add(fid)
            assert sign == (1 if first else -1)
    assert next_id == mesh.n_faces


def hex2_text(vertex_lines=(), flipped_cells=()):
    """POLYMESH of hex:2 with some vertex lines replaced and some cells'
    face signs all flipped."""
    lines = write_polymesh(generate_structured_mesh("hex", 2)).splitlines()
    n_v, n_f, _ = map(int, lines[1].split())
    for vid, text in vertex_lines:
        lines[2 + vid] = text
    for cid in flipped_cells:
        count, *ids = lines[2 + n_v + n_f + cid].split()
        lines[2 + n_v + n_f + cid] = " ".join([count] + [str(-int(i)) for i in ids])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text,message", [
    # the corner (1,1,1) leaves the planes x=1 and y=1: faces 11 and 23
    (hex2_text(vertex_lines=[(26, "1.05 1.05 1")]),
     "face 11 is non-planar (deviation 1.584e-02 exceeds tolerance 7.450e-10)"),
    (hex2_text(flipped_cells=(5, 3)),
     "cell 3: signed faces do not enclose positive volume"),
])
def test_construction_reports_lowest_failing_id(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            parse_polymesh(text)
