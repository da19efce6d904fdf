"""Batched quadrature built one coordinate at a time gives the points of the
broadcast formulas bit for bit, a + x (b - a) + y (c - a) on fan triangles
and corner + ref_pts @ edges on sub-tets, with contiguous coordinates; the
normal flux of the bubble moments adds as the einsum of its components; and
interpolation evaluates its field at every vertex and face point, in chunks."""

import numpy as np
import pytest

from polyelast.analysis import manufactured_case
from polyelast.mesh import (_CHUNK_POINTS, _integrals, generate_structured_mesh, parse_polymesh,
                            row_entries)
from polyelast.quadrature import tet_rule, triangle_rule
from polyelast.space import DofMap, face_bubble_moments, interpolate
from test_polyhedral import pentagonal_prism_text

MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
}


def broadcast_face_rule(mesh, degree, faces):
    ref_pts, ref_w = triangle_rule(degree)
    entries, _ = row_entries(mesh._face_tri_offsets, faces)
    a, b, c = (mesh.positions[mesh._face_tris[entries, k], None] for k in range(3))
    x, y = ref_pts[:, :1], ref_pts[:, 1:]
    points = (a + x * (b - a) + y * (c - a)).reshape(-1, 3)
    weights = (mesh._tri_signed[entries, None] * ref_w).ravel()
    offsets = len(ref_w) * np.concatenate(
        [[0], np.cumsum(np.diff(mesh._face_tri_offsets)[faces])])
    return points, weights, offsets


def broadcast_cell_rule(mesh, degree, cells):
    ref_pts, ref_w = tet_rule(degree)
    entries, owner = row_entries(mesh._cell_tri_offsets, cells)
    tris = mesh.positions[mesh._cell_tris[entries]]
    apex = mesh.cell_centroid[cells][owner]
    d = tris - apex[:, None, :]
    v6 = np.einsum("ij,ij->i", np.cross(d[:, 1], d[:, 2]), d[:, 0])
    edges = np.concatenate([tris[:, 1:], apex[:, None]], axis=1) - tris[:, :1]
    points = (tris[:, :1] + ref_pts @ edges).reshape(-1, 3)
    weights = ((v6 / 6.0)[:, None] * ref_w).ravel()
    offsets = len(ref_w) * np.concatenate(
        [[0], np.cumsum(np.diff(mesh._cell_tri_offsets)[cells])])
    return points, weights, offsets


def assert_same_rule(got, expected):
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    points = got[0]
    assert all(points[:, j].flags.c_contiguous for j in range(3))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_batched_rules_give_the_broadcast_points(name):
    mesh = MESHES[name]()
    for ids, subset in ((np.arange(mesh.n_faces), None), (np.arange(mesh.n_faces)[1::3],) * 2):
        for degree in (4, 5, 23):
            assert_same_rule(mesh.batched_face_quadrature(degree, subset),
                             broadcast_face_rule(mesh, degree, ids))
    for ids, subset in ((np.arange(mesh.n_cells), None), (np.arange(mesh.n_cells)[1::3],) * 2):
        assert_same_rule(mesh.batched_cell_quadrature(4, subset),
                         broadcast_cell_rule(mesh, 4, ids))


def test_interpolation_evaluates_every_vertex_and_face_point_in_chunks():
    mesh = generate_structured_mesh("tet", 3, perturb=0.3)
    counts = []

    def field(points):
        counts.append(len(points))
        return np.zeros((len(points), 3))

    interpolate(mesh, DofMap(mesh), field)
    face_points = len(mesh.batched_face_quadrature(23)[1])
    assert counts[0] == mesh.n_vertices
    assert sum(counts) == mesh.n_vertices + face_points
    assert max(counts[1:]) <= _CHUNK_POINTS < face_points


@pytest.mark.parametrize("name", sorted(MESHES))
def test_bubble_moments_add_the_flux_as_einsum(name):
    mesh = MESHES[name]()
    field = manufactured_case("example2", lam=1e3).displacement
    faces = np.arange(mesh.n_faces)[::2]
    normal = mesh.face_normal[faces]
    flux = _integrals(mesh, "face", 23, lambda points, at: np.einsum(
        "pi,pi->p", np.ascontiguousarray(field(points)), normal[at]), faces)
    # with zero vertex values the moments are the face-mean normal fluxes
    moments = face_bubble_moments(mesh, field, faces, np.zeros((mesh.n_vertices, 3)))
    assert np.array_equal(moments, flux / mesh.face_area[faces])
