"""Batched face quadrature and chunked field evaluation: the per-face rule is
a slice of the batched one, quadrature leaves the mesh as it was built, and
no user field is evaluated at more than one chunk of points at once."""

import numpy as np
import pytest

import polyelast.mesh
from polyelast.analysis import manufactured_case, relative_error
from polyelast.assembly import assemble_load, dirichlet_lifting
from polyelast.mesh import _CHUNK_POINTS, _integrals, generate_structured_mesh, parse_polymesh
from polyelast.quadrature import map_triangle, triangle_rule
from polyelast.space import DofMap, interpolate
from test_polyhedral import merged_hex_text, pentagonal_prism_text

MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
}


@pytest.mark.parametrize("degree", [4, 23])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_face_quadrature_is_a_slice_of_the_batched_rule(name, degree):
    mesh = MESHES[name]()
    points, weights, offsets = mesh.batched_face_quadrature(degree)
    assert offsets[-1] == len(weights) == len(points)
    ref_pts, ref_w = triangle_rule(degree)
    for fid in range(mesh.n_faces):
        pts, wts = mesh.face_quadrature(fid, degree)
        lo, hi = offsets[fid], offsets[fid + 1]
        assert np.array_equal(pts, points[lo:hi])
        assert np.array_equal(wts, weights[lo:hi])
        # oracle: the reference rule mapped onto each fan triangle of the loop
        pos = mesh.positions[mesh.face_loops[fid]]
        fan = [map_triangle(ref_pts, pos[0], pos[t + 1], pos[t + 2])
               for t in range(len(pos) - 2)]
        np.testing.assert_allclose(pts, np.vstack(fan), rtol=0, atol=1e-15)
        assert wts.sum() == pytest.approx(mesh.face_area[fid], rel=1e-13)


def test_interpolation_and_lifting_leave_the_mesh_as_built():
    mesh = generate_structured_mesh("tet", 3, perturb=0.3)
    before = dict(vars(mesh))
    sizes = {k: len(v) for k, v in before.items() if isinstance(v, (dict, list))}
    case = manufactured_case("example2", lam=1e3)
    bcs = case.boundary_conditions(mesh)
    dm = DofMap(mesh, dirichlet_faces=bcs.dirichlet_faces)
    assert np.abs(interpolate(mesh, dm, case.displacement).bubble_values()).max() > 0.0
    assert np.abs(dirichlet_lifting(mesh, dm, bcs)[dm.n_vertex_dofs:]).max() > 0.0
    assert vars(mesh).keys() == before.keys()
    assert all(vars(mesh)[k] is v for k, v in before.items())
    assert {k: len(v) for k, v in vars(mesh).items()
            if isinstance(v, (dict, list))} == sizes


class Recorder:
    """A field that records the number of points of every call."""

    def __init__(self, field):
        self.field = field
        self.counts = []

    def __call__(self, points, *args):
        self.counts.append(len(points))
        return self.field(points, *args)


def chunked_results(mesh):
    case = manufactured_case("example3", lam=1e2)
    bcs = case.boundary_conditions(mesh)
    dm = DofMap(mesh, dirichlet_faces=bcs.dirichlet_faces)
    fields = {name: Recorder(getattr(case, name))
              for name in ("displacement", "strain", "body_force", "traction")}
    interpolant = interpolate(mesh, dm, fields["displacement"])
    perturbed = dm.zero_function()
    perturbed.values[:] = interpolant.values * 1.01
    error = relative_error(mesh, perturbed, interpolant, fields["strain"])
    bcs.neumann_data = fields["traction"]
    load = assemble_load(mesh, dm, bcs, fields["body_force"])
    return {"interpolant": interpolant.values, "error": np.array([error]),
            "load": load}, fields


def test_field_evaluations_stay_within_one_chunk(monkeypatch):
    mesh = generate_structured_mesh("tet", 4)
    results, fields = chunked_results(mesh)
    # the vertex values are one call at the vertices, not at quadrature points
    assert fields["displacement"].counts[0] == mesh.n_vertices
    quadrature_counts = {"displacement": fields["displacement"].counts[1:],
                         "strain": fields["strain"].counts,
                         "body_force": fields["body_force"].counts,
                         "traction": fields["traction"].counts}
    for name, counts in quadrature_counts.items():
        assert max(counts) <= _CHUNK_POINTS, name
    # the mesh is larger than one chunk for every volume and bubble evaluation
    for name in ("displacement", "strain", "body_force"):
        assert sum(quadrature_counts[name]) > _CHUNK_POINTS
        assert len(quadrature_counts[name]) > 1

    monkeypatch.setattr(polyelast.mesh, "_CHUNK_POINTS", 10**9)
    unchunked, fields = chunked_results(mesh)
    assert len(fields["body_force"].counts) == 1
    for name, value in results.items():
        reference = unchunked[name]
        assert np.linalg.norm(value - reference) <= 1e-13 * np.linalg.norm(reference), name


def _field(points, entity):
    """A vector field of the points and of the id of their face or cell."""
    return np.column_stack([points[:, 0] * points[:, 1], points[:, 2] ** 2 + entity])


@pytest.mark.parametrize("kind,text,ids", [
    # quad, pentagon, quad, pentagon, quad: the quads are no one block of points
    ("face", pentagonal_prism_text, [2, 0, 3, 1, 4]),
    # hex, merged 10-face cell, hex, hex: likewise the hexahedra
    ("cell", merged_hex_text, [3, 0, 5, 1]),
])
def test_integrals_over_interleaved_sizes_match_the_per_entity_rules(kind, text, ids):
    mesh, ids = parse_polymesh(text()), np.array(ids)
    sizes = np.diff(mesh._face_tri_offsets if kind == "face" else mesh._cell_tri_offsets)[ids]
    positions = [np.flatnonzero(sizes == size) for size in np.unique(sizes)]
    assert any(np.any(np.diff(at) > 1) for at in positions)
    quadrature = mesh.face_quadrature if kind == "face" else mesh.cell_quadrature
    expected = [weights @ _field(points, entity)
                for entity in ids for points, weights in [quadrature(entity, 4)]]
    integrals = _integrals(mesh, kind, 4, lambda points, at: _field(points, ids[at]), ids)
    np.testing.assert_allclose(integrals, expected, rtol=1e-14, atol=0)
