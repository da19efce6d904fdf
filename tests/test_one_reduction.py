"""One reduction for every lambda path: the no-bubble ablation and
lambda = 0 systems of `assemble`, reduced from the split with the
lambda-free loads, agree with the reduction of the unconstrained matrix of
the bilinear form to roundoff and carry no split."""

import numpy as np
import pytest

from polyelast.analysis import manufactured_case
from polyelast.assembly import assemble, assemble_matrix, reduce_system
from polyelast.mesh import generate_structured_mesh
from polyelast.space import DofMap


def relative_gap(a, b):
    return abs(a - b).max() / abs(b).max()


@pytest.mark.parametrize("case_name, spec", [("example2", "tet:4"), ("example3", "hex:3")])
def test_ablation_and_lambda_zero_equal_the_unconstrained_reduction(case_name, spec):
    kind, n = spec.split(":")
    mesh = generate_structured_mesh(kind, int(n))
    paths = [(case_name, 1.0, False), (case_name, 1e8, False),
             ("example1", 0.0, False), ("example1", 0.0, True)]
    for name, lam, bubbles in paths:
        case = manufactured_case(name, lam=lam)
        bcs = case.boundary_conditions(mesh)
        dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=bcs.dirichlet_faces)
        system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
        expected = reduce_system(assemble_matrix(mesh, dofmap, case.material),
                                 system.full_load, system.lifting, dofmap)
        assert system.split is None
        assert (np.linalg.norm(system.load - expected.load)
                <= 1e-13 * np.linalg.norm(expected.load))
        assert relative_gap(system.matrix, expected.matrix) <= 1e-13
        assert relative_gap(system.full_matrix, expected.full_matrix) <= 1e-13
