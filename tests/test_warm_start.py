"""Warm starts along lambda: in a study with bubbles, each MINRES solve of a
mesh after its first starts from the earlier solutions, extrapolated
linearly in t = 1/lambda, where that start's residual is below the load's.
The rows keep the errors of cold starts to the solver's resolution and take
no more than two steps above their cold counts in any lambda order, the
bubble rows of the benchmark's sweep take a third fewer steps, and the
no-bubble ablation, a one-lambda study and `polyelast solve` start cold."""

import numpy as np
import pytest

import polyelast.cli
from polyelast import analysis
from polyelast.analysis import MeshSource, manufactured_case, run_convergence_study
from polyelast.assembly import assemble
from polyelast.mesh import generate_structured_mesh
from polyelast.solver import SolverConfig, solve_spd
from polyelast.space import DofMap

MESH = MeshSource("tet", 6, 0.3)  # the lambda-sweep workload's mesh
SEED = 12345
CONFIG = SolverConfig(tol=1e-8)
SWEEP = [1.0, 1e2, 1e4, 1e6, 1e8]


def study(lambdas, bubbles=True):
    return run_convergence_study("example2", [MESH], lambdas, bubbles=bubbles,
                                 solver_config=CONFIG, seed=SEED)


@pytest.fixture(scope="module")
def cold():
    """Per lambda, the row of a one-lambda study, which starts from zero."""
    return {lam: study([lam])[0] for lam in SWEEP}


@pytest.mark.parametrize("lambdas", [SWEEP, [1e8, 1.0, 1e4]])
def test_warm_rows_keep_the_cold_errors_and_steps(lambdas, cold):
    for record in study(lambdas):
        reference = cold[record.lam]
        assert abs(record.error_rel - reference.error_rel) <= 1e-8 * reference.error_rel
        assert record.cg_iters <= reference.cg_iters + 2, record.lam


def test_warm_starts_cut_the_sweep_steps_by_a_third(cold):
    steps = sum(record.cg_iters for record in study(SWEEP))
    assert steps <= 0.7 * sum(cold[lam].cg_iters for lam in SWEEP), steps


def test_the_ablation_starts_cold():
    assert [record.cg_iters for record in study(SWEEP, bubbles=False)] == [36, 87, 100, 100, 100]


def test_only_later_mixed_solves_of_a_mesh_get_a_start(monkeypatch, tmp_path):
    starts = []

    def spy(system, config=None, start=None):
        starts.append(start is not None)
        return solve_spd(system, config, start=start)

    monkeypatch.setattr(analysis, "solve_spd", spy)
    run_convergence_study("example2", [MeshSource("tet", 2), MeshSource("tet", 3)],
                          [1.0, 1e4, 1e8])
    assert starts == [False, True, True] * 2
    starts.clear()
    run_convergence_study("example2", [MeshSource("tet", 3)], [1.0, 1e4], bubbles=False)
    assert starts == [False, False]
    starts.clear()
    assert polyelast.cli.main(["solve", "--case", "example2", "--mesh", "tet:3",
                               "--lambda", "1e6", "--out", str(tmp_path / "row.csv")]) == 0
    assert starts == [False]


def mixed_system(lam=1e6):
    mesh = generate_structured_mesh("tet", 4, perturb=0.3)
    case = manufactured_case("example2", lam=lam)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, dirichlet_faces=bcs.dirichlet_faces)
    return assemble(mesh, dofmap, case.material, bcs, case.body_force)


def test_a_start_worse_than_zero_is_not_used():
    system = mixed_system()
    cold_result = solve_spd(system, CONFIG)
    rng = np.random.default_rng(3)
    for start in (1e3 * rng.standard_normal(len(cold_result.mixed)),
                  np.full(len(cold_result.mixed), np.nan)):
        result = solve_spd(system, CONFIG, start=start)
        assert result.iterations == cold_result.iterations
        assert np.array_equal(result.function.values, cold_result.function.values)


def test_the_solution_as_start_takes_no_step_and_tol_stays_relative_to_the_load():
    system = mixed_system()
    cold_result = solve_spd(system, CONFIG)
    result = solve_spd(system, CONFIG, start=cold_result.mixed)
    assert result.iterations == 0
    assert np.array_equal(result.function.values, cold_result.function.values)
    # a start near the solution stops once the residual meets tol against the
    # load's norm, not against the start's residual
    near = cold_result.mixed * (1.0 + 1e-6)
    result = solve_spd(system, CONFIG, start=near)
    assert result.iterations < cold_result.iterations
    relative = result.residual_history[-1] / cold_result.residual_history[0]
    assert relative <= CONFIG.tol
