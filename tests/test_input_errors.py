"""Bad input raises its own exception with its own message, at each site
that checks an input: masks, boundary tags, coefficient vectors, mesh
positions, POLYMESH counts, quadrature degrees, VTK fields, the CLI's seed,
the CG diagonal and the shape of the Dirichlet data."""

import numpy as np
import pytest
import scipy.sparse as sp

from polyelast.assembly import AssemblyError, BoundaryConditions, SparseSystem, assemble
from polyelast.cli import main
from polyelast.mesh import (Mesh, MeshError, MeshFormatError, generate_structured_mesh,
                            parse_polymesh, write_polymesh)
from polyelast.quadrature import tet_rule, triangle_rule
from polyelast.solver import SolverConfig, SolverError, solve_spd
from polyelast.space import DiscreteFunction, DofMap, MaterialParams
from polyelast.vtk_io import vtk_unstructured_grid

HEX2 = generate_structured_mesh("hex", 2)
INTERIOR_FACE = int(np.flatnonzero(~HEX2.face_on_boundary)[0])


def with_interior_face(mask):
    mask = mask.copy()
    mask[INTERIOR_FACE] = True
    return mask


@pytest.mark.parametrize("mask, message", [
    (np.zeros(HEX2.n_faces - 1, dtype=bool), "dirichlet_faces must be a boolean mask over faces"),
    (with_interior_face(HEX2.face_on_boundary), "dirichlet_faces must select boundary faces only"),
])
def test_dofmap_rejects_a_bad_mask(mask, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DofMap(HEX2, dirichlet_faces=mask)


@pytest.mark.parametrize("mask, message", [
    (np.ones(HEX2.n_faces + 1, dtype=bool), "dirichlet_faces mask has the wrong length"),
    (with_interior_face(HEX2.face_on_boundary), "Dirichlet tag on an interior face"),
])
def test_assemble_rejects_bad_boundary_tags(mask, message):
    with pytest.raises(AssemblyError, match=f"^{message}$"):
        assemble(HEX2, DofMap(HEX2), MaterialParams(mu=1.0, lam=1.0), BoundaryConditions(mask))


@pytest.mark.parametrize("shape", [(3,), (DofMap(HEX2).vector_size, 2, 2)])
def test_discrete_function_rejects_a_vector_of_the_wrong_length(shape):
    with pytest.raises(ValueError, match="^coefficient vector has the wrong length$"):
        DiscreteFunction(DofMap(HEX2), np.zeros(shape))


@pytest.mark.parametrize("positions", [np.zeros((4, 2)), np.zeros(12), np.zeros((2, 3, 2))])
def test_mesh_rejects_positions_that_are_not_n_by_3(positions):
    with pytest.raises(MeshError, match=r"^positions must be an \(n,3\) array$"):
        Mesh(positions, [], [], [])


@pytest.mark.parametrize("counts, message", [
    ("27 x 8", "malformed counts line: non-integer count"),
    ("27 36 8.0", "malformed counts line: non-integer count"),
    ("27 -36 8", "malformed counts line: negative count"),
])
def test_polymesh_rejects_bad_counts(counts, message):
    lines = write_polymesh(HEX2).splitlines()
    assert lines[1] == "27 36 8"
    lines[1] = counts
    with pytest.raises(MeshFormatError, match=f"^{message}$"):
        parse_polymesh("\n".join(lines) + "\n")


@pytest.mark.parametrize("rule", [triangle_rule, tet_rule])
def test_quadrature_rejects_a_negative_degree(rule):
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        rule(-1)


@pytest.mark.parametrize("fields, message", [
    ({"point_vectors": {"u": np.zeros((HEX2.n_vertices, 2))}},
     "point vector field 'u' has wrong shape"),
    ({"point_vectors": {"u": np.zeros(3 * HEX2.n_vertices)}},
     "point vector field 'u' has wrong shape"),
    ({"cell_scalars": {"p": np.zeros(HEX2.n_cells + 1)}},
     "cell scalar field 'p' has wrong shape"),
    ({"cell_scalars": {"p": np.zeros((HEX2.n_cells, 1))}},
     "cell scalar field 'p' has wrong shape"),
])
def test_vtk_rejects_fields_of_the_wrong_shape(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        vtk_unstructured_grid(HEX2, **fields)


def test_a_seed_that_is_not_an_integer_is_a_flag_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--mesh", "hex:2", "--seed", "abc"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: invalid int value: 'abc'\n")


def test_cg_rejects_a_zero_diagonal_entry():
    matrix = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    load = np.ones(3)
    dofmap = type("VectorMap", (), {"vector_size": 3})()
    system = SparseSystem(matrix, load, np.zeros(3), np.arange(3), np.arange(0), dofmap,
                          matrix, load)
    with pytest.raises(SolverError, match="^non-positive diagonal entry: matrix is not SPD "
                                          r"\(missing Dirichlet constraints\?\)$"):
        solve_spd(system, SolverConfig())


@pytest.mark.parametrize("bubbles", [True, False])
@pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 3, 2), lambda n: (n, 2),
                                   lambda n: (n - 1, 3)],
                         ids=["(n,)", "(n,3,2)", "(n,2)", "(n-1,3)"])
def test_dirichlet_data_of_the_wrong_shape_are_rejected(shape, bubbles):
    mesh = generate_structured_mesh("tet", 2)
    data = lambda points: np.zeros(shape(len(points)))
    bcs = BoundaryConditions.all_dirichlet(mesh, data=data)
    dofmap = DofMap(mesh, bubbles_enabled=bubbles)
    with pytest.raises(ValueError, match=r"^field must map \(n,3\) points to \(n,3\) vectors$"):
        assemble(mesh, dofmap, MaterialParams(mu=1.0, lam=1.0), bcs)


def test_a_bad_dirichlet_shape_exits_1_from_the_cli(monkeypatch, capsys):
    import polyelast.analysis as analysis

    displacement = analysis.manufactured_case("example2", lam=1.0).displacement
    monkeypatch.setattr(analysis.ManufacturedCase, "boundary_conditions",
                        lambda self, mesh: BoundaryConditions(
                            mesh.face_on_boundary.copy(),
                            dirichlet_data=lambda points: displacement(points)[:, 0]))
    code = main(["solve", "--case", "example2", "--mesh", "tet:2", "--lambda", "1"])
    assert code == 1
    assert capsys.readouterr().err.endswith(
        "error: field must map (n,3) points to (n,3) vectors\n")
