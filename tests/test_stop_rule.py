"""One stop rule for both Krylov methods: MINRES on the lambda split and CG
on the penalty matrix of the no-bubble ablation stop at the same three
reasons, raise the same errors in the same words, log the stop in the same
line, and refuse a load whose norm overflows."""

import logging
import re
import warnings

import numpy as np
import pytest

from polyelast.analysis import manufactured_case
from polyelast.assembly import assemble
from polyelast.mesh import generate_structured_mesh
from polyelast.solver import SolverConfig, SolverError, solve_spd
from polyelast.space import DofMap


def case_system(spec, lam, bubbles):
    kind, n = spec.split(":")
    mesh = generate_structured_mesh(kind, int(n))
    case = manufactured_case("example2", lam=lam)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=bcs.dirichlet_faces)
    return assemble(mesh, dofmap, case.material, bcs, case.body_force)


@pytest.mark.parametrize("method, spec, lam, bubbles", [
    ("MINRES", "tet:4", 1e8, True),
    ("CG", "tet:3", 1e4, False),  # the ablation
])
def test_both_methods_report_the_residual_floor(method, spec, lam, bubbles, caplog):
    # the recurrence reaches tol = 1e-16, the true residual of the iterate cannot
    system = case_system(spec, lam, bubbles)
    with caplog.at_level(logging.INFO, logger="polyelast.solver"):
        with pytest.raises(SolverError, match="attainable residual floor") as info:
            solve_spd(system, SolverConfig(tol=1e-16))
    assert re.fullmatch(r"attainable residual floor reached: true relative residual "
                        r"\S+ cannot meet tol=1\.0e-16 in double precision \(relax tol\)",
                        str(info.value))
    logged = caplog.records[-1].getMessage()
    assert logged.startswith(f"{method}:") and logged.endswith("stopped at the residual floor")
    # the error and the log report the same relative residual
    relative = str(info.value).split("relative residual ")[1].split(" ")[0]
    assert f"relative residual {relative}, stopped" in logged


@pytest.mark.parametrize("method, bubbles", [("MINRES", True), ("CG", False)])
def test_both_methods_report_the_iteration_cap(method, bubbles, caplog):
    system = case_system("tet:3", 1e4, bubbles)
    with caplog.at_level(logging.INFO, logger="polyelast.solver"):
        with pytest.raises(SolverError,
                           match=rf"^{method} did not converge within 3 iterations "
                                 r"\(relative residual \S+\)$"):
            solve_spd(system, SolverConfig(max_iterations=3))
    logged = caplog.records[-1].getMessage()
    assert logged.startswith(f"{method}: 3 iterations") and logged.endswith("iteration cap")


@pytest.mark.parametrize("method, bubbles", [("MINRES", True), ("CG", False)])
def test_both_methods_refuse_a_load_whose_norm_overflows(method, bubbles):
    # at lambda = 1e-200 the example's load is near 1e200: finite, but its norm is not
    system = case_system("tet:2", 1e-200, bubbles)
    assert np.isfinite(system.load).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=rf"^{method}: the norm of the load overflows "
                                              r"to inf in double precision \(rescale the data\)$"):
            solve_spd(system)
