"""One lambda path: `assemble` and `run_convergence_study` both reduce the
`LambdaSplit` of `assemble_split` at each lambda, and `reduce_system` alone
turns it into the mixed system (bubbles, lambda > 0), the penalty matrix
A0 + lambda*K with K = D^T W D (the no-bubble ablation) or A0 itself
(lambda = 0).  The split-built matrices agree with the fused assembly of the
bilinear form to roundoff."""

import numpy as np
import pytest
import scipy.sparse as sp

from polyelast import assembly
from polyelast.analysis import MeshSource, manufactured_case, run_convergence_study
from polyelast.assembly import assemble, assemble_matrix, divergence_matrix
from polyelast.mesh import generate_structured_mesh
from polyelast.space import DofMap, MaterialParams, ReconstructionOperators


def case_setup(case_name, mesh, lam, bubbles):
    case = manufactured_case(case_name, lam=lam)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=bcs.dirichlet_faces)
    return case, bcs, dofmap


def relative_gap(a, b):
    return abs(a - b).max() / abs(b).max()


@pytest.mark.parametrize("case_name, lambdas, bubbles", [
    ("example2", [1.0, 1e4, 1e8], False),  # the ablation
    ("example1", [0.0], True),
    ("example1", [0.0], False),
])
def test_study_systems_equal_assemble(case_name, lambdas, bubbles, monkeypatch):
    systems = []
    reduce_system = assembly.reduce_system

    def spy(*args):
        systems.append(reduce_system(*args))
        return systems[-1]

    monkeypatch.setattr(assembly, "reduce_system", spy)
    source = MeshSource("tet", 3, 0.3)
    run_convergence_study(case_name, [source], lambdas, bubbles=bubbles)
    monkeypatch.undo()
    assert len(systems) == len(lambdas)
    mesh = source.build()
    for lam, system in zip(lambdas, systems):
        case, bcs, dofmap = case_setup(case_name, mesh, lam, bubbles)
        expected = assemble(mesh, dofmap, case.material, bcs, case.body_force)
        assert system.split is None and expected.split is None
        assert relative_gap(system.matrix, expected.matrix) <= 1e-13
        assert (np.linalg.norm(system.load - expected.load)
                <= 1e-13 * np.linalg.norm(expected.load))
        assert np.array_equal(system.lifting, expected.lifting)


def test_ablation_assembles_one_lambda_free_matrix_and_no_k(monkeypatch):
    mesh = generate_structured_mesh("tet", 3)
    case, bcs, dofmap = case_setup("example2", mesh, 1e6, False)
    calls = []

    def spy_matrix(mesh, dofmap, material):
        calls.append(("assemble_matrix", material.lam))
        return assemble_matrix(mesh, dofmap, material)

    monkeypatch.setattr(assembly, "assemble_matrix", spy_matrix)
    monkeypatch.setattr(assembly, "divergence_matrix",
                        lambda mesh: calls.append(("divergence_matrix",)))
    system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
    assert calls == [("assemble_matrix", 0.0)]
    assert system.split is None


@pytest.mark.parametrize("spec, lam", [("tet:3", 1e4), ("hex:3", 1e8), ("tet:3:0.3", 1.0)])
def test_split_matrices_equal_the_fused_form(spec, lam):
    kind, n, perturb = (spec.split(":") + ["0"])[:3]
    mesh = generate_structured_mesh(kind, int(n), perturb=float(perturb))
    case, bcs, dofmap = case_setup("example2", mesh, lam, False)
    fused = assemble_matrix(mesh, dofmap, case.material)  # one energy form per chunk
    system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
    assert relative_gap(system.full_matrix, fused) <= 1e-13
    free = dofmap.free_indices
    assert relative_gap(system.matrix, fused[free][:, free]) <= 1e-13
    # K = D^T W D against the energy form sum_K |K| div(u) div(v) on all cells
    ops = ReconstructionOperators(mesh, np.arange(mesh.n_cells))
    pick = sp.csr_matrix((np.ones(ops.n_dofs), (ops.dofs, np.arange(ops.n_dofs))),
                         shape=(dofmap.vector_size, ops.n_dofs))
    energy = pick @ ops.energy_form(0.0, 1.0) @ pick.T
    assert relative_gap(divergence_matrix(mesh), energy) <= 1e-13


def test_lambda_zero_reduces_to_a0_itself():
    mesh = generate_structured_mesh("hex", 3)
    case, bcs, dofmap = case_setup("example1", mesh, 0.0, True)
    system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
    a0 = assemble_matrix(mesh, dofmap, MaterialParams(mu=1.0, lam=0.0))
    assert system.split is None
    assert (system.full_matrix != a0).nnz == 0


def test_a_zero_error_has_no_rate():
    # tet:1 has no interior vertex: without bubbles no DOF is free, and the
    # solution is the interpolant
    records = run_convergence_study("example2", [MeshSource("tet", 1), MeshSource("tet", 2)],
                                    [1.0], bubbles=False)
    assert records[0].error_rel == 0.0 and records[1].error_rel > 0.0
    assert records[0].rate is None and records[1].rate is None
