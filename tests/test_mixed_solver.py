"""The lambda-robust solve: with bubbles and lambda > 0, `assemble` returns a
system that carries its lambda split, `solve_spd` solves it by MINRES on the
mixed form without forming the penalty matrix, and the solution agrees with a
direct solve of the penalty system at every lambda.  Without a split (the
no-bubble ablation, lambda = 0, hand-built systems) `solve_spd` runs CG as
before."""

import logging
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import polyelast.cli
from polyelast import assembly
from polyelast.analysis import manufactured_case
from polyelast.assembly import BoundaryConditions, LambdaSplit, SparseSystem, assemble
from polyelast.mesh import generate_structured_mesh, parse_polymesh
from polyelast.solver import SolverConfig, SolverError, solve_spd
from polyelast.space import DofMap, MaterialParams
from test_polyhedral import merged_hex_text

MESHES = {
    "tet:4": lambda: generate_structured_mesh("tet", 4),
    "hex:4": lambda: generate_structured_mesh("hex", 4),
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
}


def case_system(case_name, mesh_name, lam, bubbles=True):
    mesh = MESHES[mesh_name]()
    case = manufactured_case(case_name, lam=lam)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=bcs.dirichlet_faces)
    return assemble(mesh, dofmap, case.material, bcs, case.body_force)


@pytest.mark.parametrize("lam", [1e6, 1e8])
@pytest.mark.parametrize("case_name, mesh_name", [
    ("example2", "tet:4"), ("example2", "hex:4"), ("example2", "merged-hex"),
    ("example3", "hex:3"),  # mixed Dirichlet/Neumann boundary
])
def test_default_solve_agrees_with_a_direct_solve(case_name, mesh_name, lam):
    system = case_system(case_name, mesh_name, lam)
    assert system.split is not None
    result = solve_spd(system)
    assert "matrix" not in vars(system)  # the solve formed no penalty matrix
    lu = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    direct = lu.solve(system.load)
    solved = result.function.values[system.free_indices]
    assert np.linalg.norm(solved - direct) <= 1e-8 * np.linalg.norm(direct)
    assert np.array_equal(result.function.values[system.constrained_indices],
                          system.lifting[system.constrained_indices])


@pytest.mark.parametrize("case_name, mesh_name, lam", [
    ("example2", "tet:4", 1e6), ("example3", "hex:3", 1e8), ("example2", "merged-hex", 1.0),
])
def test_split_system_equals_the_penalty_system(case_name, mesh_name, lam):
    system = case_system(case_name, mesh_name, lam)
    mesh, dofmap = system.dofmap.mesh, system.dofmap
    penalty = assembly.reduce_system(
        assembly.assemble_matrix(mesh, dofmap, manufactured_case(case_name, lam=lam).material),
        system.full_load, system.lifting, dofmap)
    assert penalty.split is None
    for name in ("matrix", "full_matrix"):
        gap = abs(getattr(system, name) - getattr(penalty, name)).max()
        assert gap <= 1e-13 * abs(getattr(penalty, name)).max()
    assert np.linalg.norm(system.load - penalty.load) <= 1e-13 * np.linalg.norm(penalty.load)


def test_split_loads_give_the_penalty_load():
    system = case_system("example3", "hex:3", 1e8)
    split = system.split
    assert split.lam == 1e8
    assert np.array_equal(system.load, split.load_u + 1e8 * (split.divergence.T @ split.load_p))
    penalty = split.a0 + 1e8 * (split.divergence.T @ sp.diags(split.volume) @ split.divergence)
    assert abs(system.matrix - penalty).max() <= 1e-13 * abs(penalty).max()


def test_minres_iteration_cap():
    system = case_system("example2", "tet:4", 1e6)
    with pytest.raises(SolverError, match="did not converge"):
        solve_spd(system, SolverConfig(tol=1e-12, max_iterations=3))


def test_minres_reports_the_residual_floor(caplog):
    # the recurrence reaches tol = 1e-16, the true residual of the iterate cannot
    system = case_system("example2", "tet:4", 1e8)
    with caplog.at_level(logging.INFO, logger="polyelast.solver"):
        with pytest.raises(SolverError, match="attainable residual floor"):
            solve_spd(system, SolverConfig(tol=1e-16))
    assert caplog.records[-1].getMessage().endswith("stopped at the residual floor")


def test_minres_zero_load_takes_no_iteration():
    mesh = generate_structured_mesh("tet", 3)
    dofmap = DofMap(mesh)
    system = assemble(mesh, dofmap, MaterialParams(mu=1.0, lam=1e6),
                      BoundaryConditions.all_dirichlet(mesh))
    assert system.split is not None and system.n_free > 0
    result = solve_spd(system)
    assert result.iterations == 0
    assert np.array_equal(result.function.values, np.zeros(dofmap.vector_size))


def test_minres_all_constrained_system_returns_the_lifting():
    mesh = generate_structured_mesh("hex", 1)
    dofmap = DofMap(mesh)
    bcs = BoundaryConditions.all_dirichlet(mesh, data=lambda p: p[:, ::-1] ** 2)
    system = assemble(mesh, dofmap, MaterialParams(mu=1.0, lam=1e6), bcs)
    assert system.split is not None and system.n_free == 0
    result = solve_spd(system)
    assert result.iterations == 0
    assert np.array_equal(result.function.values, system.lifting)


def hand_split(a0, divergence, volume, load_u, load_p, lam=1e4):
    """An all-free system carrying a hand-built split."""
    n = a0.shape[0]
    dofmap = type("VectorMap", (), {"vector_size": n, "free_indices": np.arange(n)})()
    split = replace(LambdaSplit.build(sp.csr_matrix(a0), sp.csr_matrix(divergence),
                                      np.asarray(volume, dtype=float), 1.0, dofmap),
                    lam=lam, load_u=load_u, load_p=load_p)
    load = load_u + lam * (split.divergence.T @ load_p)
    return SparseSystem(None, load, np.zeros(n), np.arange(n), np.arange(0), dofmap,
                        None, load, split=split)


def test_minres_rejects_a_non_positive_a0_diagonal():
    system = hand_split(np.diag([1.0, 0.0, 2.0]), np.ones((1, 3)), [1.0],
                        np.ones(3), np.zeros(1))
    with pytest.raises(SolverError, match="non-positive diagonal"):
        solve_spd(system)


def test_minres_reports_a_breakdown():
    a0 = np.diag([1.0, 2.0, 3.0])
    a0[0, 1] = np.nan
    system = hand_split(a0, np.ones((1, 3)), [1.0], np.ones(3), np.zeros(1))
    with pytest.raises(SolverError, match="breakdown"):
        solve_spd(system)


def test_minres_solves_a_hand_built_split():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((12, 12))
    a0 = m @ m.T + 12 * np.eye(12)
    divergence = rng.standard_normal((5, 12))
    volume = rng.uniform(0.5, 2.0, 5)
    system = hand_split(a0, divergence, volume, rng.standard_normal(12),
                        rng.standard_normal(5), lam=1e3)
    result = solve_spd(system, SolverConfig(tol=1e-12))
    direct = np.linalg.solve(system.matrix.toarray(), system.load)
    assert np.linalg.norm(result.function.values - direct) <= 1e-9 * np.linalg.norm(direct)


def test_solve_command_never_forms_the_penalty_matrix(tmp_path, monkeypatch):
    calls = []
    penalty_matrix = LambdaSplit.penalty_matrix
    assemble_matrix = assembly.assemble_matrix
    csv_path = tmp_path / "out.csv"

    def spy_penalty(self, *args, **kwargs):
        calls.append(("penalty_matrix",))
        return penalty_matrix(self, *args, **kwargs)

    def spy_matrix(mesh, dofmap, material):
        calls.append(("assemble_matrix", material.lam))
        return assemble_matrix(mesh, dofmap, material)

    monkeypatch.setattr(LambdaSplit, "penalty_matrix", spy_penalty)
    monkeypatch.setattr(assembly, "assemble_matrix", spy_matrix)
    monkeypatch.setattr(assembly, "divergence_matrix",
                        lambda mesh: calls.append(("divergence_matrix",)))
    assert polyelast.cli.main(["solve", "--case", "example2", "--mesh", "tet:3",
                               "--lambda", "1e6", "--out", str(csv_path),
                               "--vtk", str(tmp_path / "out.vtk")]) == 0
    assert calls == [("assemble_matrix", 0.0)]
    assert csv_path.read_text().splitlines()[1].endswith("cg_iters,seconds")


@pytest.mark.parametrize("case_name, lam, bubbles, iterations", [
    ("example2", 1e6, False, 8),  # the no-bubble ablation
    ("example1", 0.0, True, 17),
])
def test_systems_without_a_split_run_cg(case_name, lam, bubbles, iterations, caplog):
    mesh = generate_structured_mesh("tet", 3)
    case = manufactured_case(case_name, lam=lam)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=bcs.dirichlet_faces)
    system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
    assert system.split is None
    with caplog.at_level(logging.INFO, logger="polyelast.solver"):
        result = solve_spd(system)
    assert result.iterations == iterations
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["CG"]


def test_hand_built_system_runs_cg():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((60, 60))
    a_mat = sp.csr_matrix(m @ m.T + 60 * np.eye(60))
    b = rng.standard_normal(60)
    dofmap = type("VectorMap", (), {"vector_size": 60})()
    system = SparseSystem(matrix=a_mat, load=b, lifting=np.zeros(60),
                          free_indices=np.arange(60), constrained_indices=np.arange(0),
                          dofmap=dofmap, full_matrix=a_mat, full_load=b)
    assert system.split is None
    result = solve_spd(system, SolverConfig(tol=1e-12))
    assert result.iterations == 26


def test_every_solve_logs_method_iterations_residual_and_stop(caplog):
    system = case_system("example2", "tet:4", 1e6)
    with caplog.at_level(logging.INFO, logger="polyelast.solver"):
        result = solve_spd(system)
        with pytest.raises(SolverError):
            solve_spd(system, SolverConfig(max_iterations=2))
    done, capped = [r.getMessage() for r in caplog.records]
    assert done.startswith(f"MINRES: {result.iterations} iterations, relative residual ")
    assert done.endswith("stopped at the tolerance")
    relative = float(done.split("relative residual ")[1].split(",")[0])
    assert relative == pytest.approx(result.residual / result.residual_history[0], rel=1e-3)
    assert relative <= 1e-10
    assert capped.startswith("MINRES: 2 iterations") and capped.endswith("iteration cap")


def test_verbose_solve_logs_the_solver(tmp_path):
    # a process of its own: `--verbose` configures the logging of the process
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "polyelast.cli", "solve", "--case",
                           "example2", "--mesh", "tet:2", "--lambda", "1e8", "--verbose",
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    iterations = out.read_text().splitlines()[2].split(",")[10]
    assert f"INFO polyelast.solver: MINRES: {iterations} iterations" in proc.stderr
