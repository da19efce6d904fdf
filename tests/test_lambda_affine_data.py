"""The exact data of the manufactured cases are affine in t = 1/lambda: the
parts of `ManufacturedCase.parts`, along the trailing axis of its fields,
rebuild the displacement, the strain, the body force and the traction of
every case, and their strain products the exact strain norm.  The
convergence study therefore computes the loads, the interpolants and the
strain products once per mesh, in one pass that gives each part as it would
be alone, and combines them for every lambda."""

import numpy as np
import pytest

from polyelast import analysis
from polyelast.analysis import (
    MeshSource,
    at_lambda,
    exact_strain_norm,
    manufactured_case,
    norm_at_lambda,
    run_convergence_study,
    strain_gram,
)
from polyelast.assembly import BoundaryConditions, assemble_load
from polyelast.mesh import generate_structured_mesh, write_polymesh
from polyelast.space import DofMap, interpolate

LAMBDAS = [1.0, 1e2, 1e4, 1e6, 1e8]


def close(a, b, rtol=1e-14):
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


@pytest.mark.parametrize("name, lam", [
    ("example1", 0.0), ("example1", 1.0),
    ("example2", 1.0), ("example2", 1e3), ("example2", 1e8),
    ("example3", 1.0), ("example3", 1e3), ("example3", 1e8),
    ("affine", 1.0), ("affine", 1e6),
])
def test_parts_rebuild_the_fused_fields(name, lam):
    rng = np.random.default_rng(11)
    points = rng.uniform(-0.2, 1.2, size=(200, 3))
    normals = rng.standard_normal((200, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    case = manufactured_case(name, lam=lam)
    parts = case.parts
    assert parts.displacement(points).shape[-1] == (2 if name in ("example2", "example3") else 1)

    def rebuilt(field, *args):
        return at_lambda(getattr(parts, field)(*args), lam)

    assert close(rebuilt("displacement", points), case.displacement(points))
    assert close(rebuilt("strain", points), case.strain(points))
    assert close(rebuilt("body_force", points), case.body_force(points))
    for normal in (normals, normals[0]):
        assert close(rebuilt("traction", points, normal), case.traction(points, normal))


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "affine"])
def test_parts_give_the_exact_strain_norm(name):
    mesh = MeshSource("tet", 3, 0.3).build()
    lambdas = [1.0] if name in ("example1", "affine") else [1.0, 1e3, 1e8]
    gram = strain_gram(mesh, manufactured_case(name, 1.0).parts.strain)
    assert np.array_equal(gram, gram.T)
    for lam in lambdas:
        expected = exact_strain_norm(mesh, manufactured_case(name, lam=lam).strain)
        assert abs(norm_at_lambda(gram, lam) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("bubbles", [True, False])
def test_exact_data_work_does_not_grow_with_lambda(bubbles, monkeypatch):
    calls = {name: 0 for name in ("interpolate", "assemble_load", "dirichlet_lifting",
                                  "relative_error")}

    def spy(name):
        original = getattr(analysis, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(analysis, name, spy(name))
    run_convergence_study("example2", [MeshSource("tet", 3, 0.3)], LAMBDAS, bubbles=bubbles)
    assert 1 <= calls["interpolate"] <= 2
    assert 1 <= calls["assemble_load"] <= 2
    assert calls["dirichlet_lifting"] == len(LAMBDAS)
    assert calls["relative_error"] == len(LAMBDAS)


def test_a_mesh_with_no_free_dof_has_zero_error_with_bubbles():
    # every vertex and face of hex:1 lies on the boundary, so no DOF is free
    # and the solution is the lifting
    records = run_convergence_study("example2", [MeshSource("hex", 1), MeshSource("hex", 2)],
                                    [1.0, 1e6])
    assert [r.error_rel for r in records if r.n == 1] == [0.0, 0.0]
    assert all(r.error_rel > 0.0 for r in records if r.n == 2)


def test_a_sheared_cell_has_zero_error_with_bubbles(tmp_path):
    # one slanted hexahedron: its face fluxes are not zero, so the combined
    # interpolant's bubbles differ from the lifting's in the last bits, and
    # the error is zero only as the interpolant takes the lifting's entries
    lines = write_polymesh(generate_structured_mesh("hex", 1)).splitlines()
    shear = np.array([[0.7, 0.1, 0.05], [0.0, 0.8, 0.1], [0.1, 0.0, 0.9]])
    for i in range(2, 2 + int(lines[1].split()[0])):
        x = 0.1 + shear @ np.array(lines[i].split(), dtype=float)
        lines[i] = " ".join(f"{v:.17g}" for v in x)
    path = tmp_path / "sheared.polymesh"
    path.write_text("\n".join(lines) + "\n")
    records = run_convergence_study("example2", [MeshSource("file", 1, path=str(path))],
                                    [1.0, 1e6])
    assert [r.error_rel for r in records] == [0.0, 0.0]


def test_study_logs_the_exact_data_once_per_mesh(caplog):
    with caplog.at_level("INFO", logger="polyelast.analysis"):
        run_convergence_study("example2", [MeshSource("tet", 1), MeshSource("tet", 2)],
                              [1.0, 1e6])
    lines = [r.getMessage() for r in caplog.records
             if "lambda-free exact data" in r.getMessage()]
    assert [line.split(": ")[0] for line in lines] == ["tet:1", "tet:2"]
    assert all("(2 parts)" in line for line in lines)


@pytest.mark.parametrize("name, spec", [("example2", "tet:3:0.3"), ("example3", "hex:3")])
def test_one_pass_gives_each_part_as_it_would_be_alone(name, spec):
    kind, n, perturb = (spec.split(":") + ["0"])[:3]
    mesh = MeshSource(kind, int(n), float(perturb)).build()
    case = manufactured_case(name, lam=1.0)
    parts, tags = case.parts, case.dirichlet_faces(mesh)
    dofmap = DofMap(mesh, dirichlet_faces=tags)

    def part(field, c):
        return lambda *args: np.ascontiguousarray(getattr(parts, field)(*args)[..., c])

    load = assemble_load(mesh, dofmap, BoundaryConditions(tags, neumann_data=parts.traction),
                         parts.body_force)
    interpolant = interpolate(mesh, dofmap, parts.displacement).values
    assert load.shape == interpolant.shape == (dofmap.vector_size, 2)
    for c in range(2):
        alone = assemble_load(mesh, dofmap,
                              BoundaryConditions(tags, neumann_data=part("traction", c)),
                              part("body_force", c))
        assert np.array_equal(load[:, c], alone)
        assert np.array_equal(interpolant[:, c], interpolate(mesh, dofmap,
                                                             part("displacement", c)).values)


@pytest.mark.parametrize("name", ["example2", "example3"])
@pytest.mark.parametrize("lam", [1.0, 1e3, 1e8])
@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_fused_strain_is_the_strain_part_plus_the_divergence_bit_for_bit(name, lam, layout):
    # the fused strain and eps(a) come from one kernel, so they differ only
    # by (k/lambda) cos(k x_i) on entry (i, i), added as the fused field adds it
    rng = np.random.default_rng(19)
    points = rng.uniform(-0.2, 1.2, size=(500, 3))
    if layout == "transposed":
        points = np.ascontiguousarray(points.T).T
    case, k = manufactured_case(name, lam=lam), 2.0 * np.pi
    expected = np.array(case.parts.strain(points)[..., 0])
    for i in range(3):
        expected[:, i, i] += (k / lam) * np.cos(np.multiply(points.T, k, order="C"))[i]
    assert np.array_equal(case.strain(points), expected)


def test_a_traction_alone_keeps_the_part_axis_where_no_face_carries_it():
    mesh = generate_structured_mesh("tet", 2)
    parts = manufactured_case("example2", lam=1.0).parts
    tags = mesh.face_on_boundary.copy()  # no Neumann face
    dofmap = DofMap(mesh, dirichlet_faces=tags)
    bcs = BoundaryConditions(tags, neumann_data=parts.traction)
    load = assemble_load(mesh, dofmap, bcs, None)
    assert load.shape == (dofmap.vector_size, 2)
    assert not load.any()
    assert assemble_load(mesh, dofmap, bcs, parts.body_force).shape == load.shape
