import math

import numpy as np
import pytest

from polyelast.analysis import (
    CSV_HEADER,
    ConvergenceRecord,
    KornStats,
    MeshSource,
    adjoint_residual,
    compute_rate,
    consistency_error,
    discrete_norms,
    exact_strain_norm,
    format_records_csv,
    korn_ratio,
    manufactured_case,
    parse_mesh_source,
    relative_error,
    run_convergence_study,
)
from polyelast.mesh import generate_structured_mesh
from polyelast.solver import SolverConfig
from polyelast.space import DiscreteFunction, DofMap, MaterialParams, interpolate


def finite_difference_div_stress(case, points, step=1e-5):
    """Independent oracle: divergence of the stress field by central
    differences, component i = sum_j d(sigma_ij)/dx_j."""
    out = np.zeros((len(points), 3))
    for j in range(3):
        shift = np.zeros(3)
        shift[j] = step
        plus = case.stress_field(points + shift)
        minus = case.stress_field(points - shift)
        out += (plus[:, :, j] - minus[:, :, j]) / (2.0 * step)
    return out


@pytest.mark.parametrize("name,lam", [
    ("example1", 1.0), ("example1", 1e6),
    ("example2", 1.0), ("example2", 1e3), ("example2", 1e8),
    ("example3", 1e6), ("affine", 1.0),
])
def test_manufactured_force_matches_stress_divergence(name, lam):
    case = manufactured_case(name, lam=lam)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, size=(20, 3))
    lhs = -finite_difference_div_stress(case, pts)
    rhs = case.body_force(pts)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-5 * scale


def test_manufactured_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.05, 0.95, size=(10, 3))
    step = 1e-6
    for name, lam in (("example1", 1.0), ("example2", 1e3)):
        case = manufactured_case(name, lam=lam)
        grad = case.gradient(pts)
        for j in range(3):
            shift = np.zeros(3)
            shift[j] = step
            fd = (case.displacement(pts + shift) - case.displacement(pts - shift))
            fd /= 2.0 * step
            assert np.abs(grad[:, :, j] - fd).max() <= 1e-7


def test_example1_is_divergence_free():
    case = manufactured_case("example1", lam=1e3)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(50, 3))
    assert np.abs(case.divergence(pts)).max() <= 1e-12
    # trace of the exact gradient vanishes as well
    grad = case.gradient(pts)
    assert np.abs(np.trace(grad, axis1=1, axis2=2)).max() <= 1e-12


def test_example2_lambda_limit_bounded():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, size=(30, 3))
    low = manufactured_case("example2", lam=1e3)
    high = manufactured_case("example2", lam=1e8)
    # lambda * div(u) is independent of lambda for this family
    assert low.material.lam * low.divergence(pts) == pytest.approx(
        high.material.lam * high.divergence(pts), abs=1e-9)
    # the body force converges at rate 1/lambda
    assert np.abs(low.body_force(pts) - high.body_force(pts)).max() <= 0.15


def test_discrete_norms_zero_function():
    mesh = generate_structured_mesh("hex", 2)
    dm = DofMap(mesh)
    norms = discrete_norms(mesh, dm.zero_function(), MaterialParams(mu=1.0, lam=1.0))
    assert norms.h1 == 0.0
    assert norms.energy == 0.0
    assert norms.eps_l2 == 0.0
    assert norms.stabilization == 0.0


def test_discrete_norms_affine_interpolant():
    mesh = generate_structured_mesh("hex", 1)
    dm = DofMap(mesh)
    grad = np.zeros((3, 3))
    grad[0, 0] = 1.0
    func = interpolate(mesh, dm, lambda p: p @ grad.T)
    norms = discrete_norms(mesh, func, MaterialParams(mu=1.0, lam=1.0))
    # |K| = 1 and the reconstruction is exact: h1 = |grad|_F = 1, S = 0
    assert norms.h1 == pytest.approx(1.0, abs=1e-13)
    assert norms.stabilization <= 1e-25


def test_discrete_norms_coercivity_bound():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    material = MaterialParams(mu=1.0, lam=37.0)
    rng = np.random.default_rng(6)
    for _ in range(3):
        func = DiscreteFunction(dm, rng.standard_normal(dm.vector_size))
        norms = discrete_norms(mesh, func, material)
        lower = 2.0 * material.mu1 * norms.eps_l2**2
        assert norms.energy**2 >= lower * (1.0 - 1e-12)


def test_relative_error_zero_for_equal_functions():
    mesh = generate_structured_mesh("tet", 2)
    dm = DofMap(mesh)
    case = manufactured_case("example1", lam=1.0)
    ref = interpolate(mesh, dm, case.displacement)
    assert relative_error(mesh, ref, ref, case.strain) == 0.0


def test_exact_strain_norm_affine():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    case = manufactured_case("affine", lam=1.0)
    from polyelast.analysis import AFFINE_MATRIX

    eps = 0.5 * (AFFINE_MATRIX + AFFINE_MATRIX.T)
    # unit volume: the norm is just the Frobenius norm of the strain
    assert exact_strain_norm(mesh, case.strain) == pytest.approx(
        np.linalg.norm(eps), rel=1e-12)


def test_compute_rate_trivial_and_reference_values():
    assert compute_rate(1.0, 1.0, 0.5, 0.5) == pytest.approx(1.0)
    assert compute_rate(1.0, 1.0, 0.25, 0.5) == pytest.approx(2.0)
    # reference value reproduced to 4 decimal places
    rate = compute_rate(1.575633e-01, 3.053127e-01, 1.135921e-01, 2.213817e-01)
    assert round(rate, 4) == 1.0179
    with pytest.raises(ValueError):
        compute_rate(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        compute_rate(1.0, 0.5, 0.5, 1.0)


def test_consistency_error_affine_vanishes():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    case = manufactured_case("affine", lam=1.0)
    interp = interpolate(mesh, dm, case.displacement)
    assert consistency_error(mesh, case.gradient, interp) <= 1e-12


def test_consistency_error_single_cube_quadratic():
    # u = (x^2, 0, 0) on the unit cube: the interpolant coincides with that of
    # (x, 0, 0), so the gradient mismatch is int (2x-1)^2 = 1/3 and S = 0
    mesh = generate_structured_mesh("hex", 1)
    dm = DofMap(mesh)
    field = lambda p: np.column_stack(
        [p[:, 0] ** 2, np.zeros(len(p)), np.zeros(len(p))])

    def grad(p):
        g = np.zeros((len(p), 3, 3))
        g[:, 0, 0] = 2.0 * p[:, 0]
        return g

    interp = interpolate(mesh, dm, field)
    assert consistency_error(mesh, grad, interp) == pytest.approx(
        math.sqrt(1.0 / 3.0), rel=1e-12)


def test_consistency_error_decreases_with_refinement():
    case = manufactured_case("example1", lam=1.0)
    values = []
    for n in (2, 4):
        mesh = generate_structured_mesh("tet", n)
        dm = DofMap(mesh)
        interp = interpolate(mesh, dm, case.displacement)
        values.append(consistency_error(mesh, case.gradient, interp))
    # coarse-mesh rate: asymptotic behavior is checked in the acceptance suite
    assert compute_rate(values[0], 1.0, values[1], 0.5) >= 0.5


def test_adjoint_residual_zero_for_constant_stress():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    dm = DofMap(mesh)
    case = manufactured_case("affine", lam=2.0, mu=1.5)
    rng = np.random.default_rng(9)
    values = np.zeros(dm.vector_size)
    values[dm.free_indices] = rng.standard_normal(dm.n_free)
    func = DiscreteFunction(dm, values)
    w = adjoint_residual(mesh, case.stress_field, case.body_force, func)
    scale = discrete_norms(mesh, func, case.material).h1
    assert abs(w) <= 1e-11 * scale
    assert adjoint_residual(mesh, case.stress_field, case.body_force,
                            dm.zero_function()) == 0.0


def test_adjoint_residual_decreases_with_refinement():
    case = manufactured_case("example1", lam=1.0)
    ratios = []
    for n in (2, 4):
        mesh = generate_structured_mesh("tet", n)
        dm = DofMap(mesh)
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(8):
            values = np.zeros(dm.vector_size)
            values[dm.free_indices] = rng.standard_normal(dm.n_free)
            func = DiscreteFunction(dm, values)
            w = adjoint_residual(mesh, case.stress_field, case.body_force, func)
            worst = max(worst, abs(w) / discrete_norms(mesh, func, case.material).h1)
        ratios.append(worst)
    assert compute_rate(ratios[0], 1.0, ratios[1], 0.5) >= 0.5


def test_korn_ratio_finite_and_rotation_case():
    mesh = generate_structured_mesh("hex", 2)
    dm = DofMap(mesh)
    stats = korn_ratio(mesh, dm, sample_count=8, seed=5)
    assert isinstance(stats, KornStats)
    assert 1.0 <= stats.mean_ratio <= stats.max_ratio < np.inf
    # clipped rigid rotation: nonzero denominator, finite ratio
    spin = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    interp = interpolate(mesh, dm, lambda p: p @ spin.T)
    values = interp.values.copy()
    values[dm.constrained_indices] = 0.0
    func = DiscreteFunction(dm, values)
    norms = discrete_norms(mesh, func, MaterialParams(mu=1.0, lam=1.0))
    denom = norms.eps_l2**2 + norms.stabilization
    assert denom > 0.0
    assert norms.h1**2 / denom < 1e3


def test_korn_ratio_needs_a_free_dof():
    mesh = generate_structured_mesh("hex", 1)
    with pytest.raises(ValueError, match="^no free DOF to sample$"):
        korn_ratio(mesh, DofMap(mesh), sample_count=4)


def test_parse_mesh_source():
    s = parse_mesh_source("tet:4:0.3")
    assert (s.kind, s.n, s.perturb) == ("tet", 4, 0.3)
    assert s.label == "tet:4:0.3"
    s2 = parse_mesh_source("hex:8")
    assert (s2.kind, s2.n, s2.perturb) == ("hex", 8, 0.0)
    s3 = parse_mesh_source("meshes/voronoi_1.poly", index=2)
    assert s3.kind == "file" and s3.path == "meshes/voronoi_1.poly" and s3.n == 3
    with pytest.raises(ValueError):
        parse_mesh_source("tet:a")
    with pytest.raises(ValueError):
        parse_mesh_source("tet:2:0.1:9")


def test_run_convergence_study_smoke(tmp_path):
    out = tmp_path / "study.csv"
    records = run_convergence_study(
        "example1",
        [MeshSource("tet", 2), MeshSource("tet", 4)],
        [1.0, 1e3],
        solver_config=SolverConfig(tol=1e-10),
        csv_path=str(out),
        provenance="test run",
    )
    assert len(records) == 4
    # errors drop under refinement for each lambda
    by_lam = {}
    for r in records:
        by_lam.setdefault(r.lam, []).append(r)
    for lam, rows in by_lam.items():
        assert rows[0].rate is None
        assert rows[1].rate is not None and rows[1].rate > 0.3
        assert rows[1].error_rel < rows[0].error_rel
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "# test run"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 4


def test_run_convergence_study_no_bubble_rate_layout():
    records = run_convergence_study(
        "example2",
        [MeshSource("tet", 2), MeshSource("tet", 4)],
        [1.0, 1e3],
        bubbles=False,
        solver_config=SolverConfig(tol=1e-9, max_iterations=20000),
    )
    rows = {(round(r.lam), r.n): r for r in records}
    assert rows[(1, 4)].rate is not None
    assert rows[(1000, 4)].rate is None  # ablation: no rate at large lambda


def test_format_records_csv_layout():
    rec = ConvergenceRecord(
        case="example1", mesh_kind="tet", n=4, h=0.25, lam=1e6, mu=1.0,
        bubbles=True, n_dofs=1234, error_rel=0.123456789, rate=None,
        cg_iters=42, seconds=1.5,
    )
    text = format_records_csv([rec])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "example1"
    assert fields[3] == "2.50000e-01"
    assert fields[4] == "1.00000e+06"
    assert fields[6] == "on"
    assert fields[8] == "1.23457e-01"
    assert fields[9] == ""
    assert fields[10] == "42"


def test_error_agreement_between_huge_lambdas():
    # with bubbles on, the relative errors at lambda=1e6 and 1e8 coincide to
    # 1e-6 relative once the solver is converged tightly enough
    records = run_convergence_study(
        "example1", [MeshSource("tet", 4)], [1e6, 1e8],
        solver_config=SolverConfig(tol=1e-12, max_iterations=100000))
    errs = {r.lam: r.error_rel for r in records}
    spread = abs(errs[1e6] - errs[1e8]) / errs[1e6]
    assert spread <= 1e-6


def test_relative_error_zero_denominator():
    mesh = generate_structured_mesh("hex", 1)
    dm = DofMap(mesh)
    zero_strain = lambda p: np.zeros((len(p), 3, 3))
    with pytest.raises(ZeroDivisionError):
        relative_error(mesh, dm.zero_function(), dm.zero_function(), zero_strain)


def test_locking_ablation_prevents_convergence():
    # at lambda=1e6 the enriched scheme improves under refinement while the
    # bubble-free variant stalls (its per-cell divergence constraints
    # outnumber the free vertex DOFs, pinning the solution)
    cfg = SolverConfig(tol=1e-10)
    meshes = [MeshSource("tet", 4), MeshSource("tet", 8)]
    with_bubbles = run_convergence_study("example2", meshes, [1e6],
                                         solver_config=cfg)
    without = run_convergence_study("example2", meshes, [1e6], bubbles=False,
                                    solver_config=cfg)
    assert with_bubbles[1].error_rel < 0.8 * with_bubbles[0].error_rel
    assert without[1].error_rel >= without[0].error_rel
    assert without[1].error_rel > with_bubbles[1].error_rel


def test_example3_boundary_tagging():
    from polyelast.analysis import case_dirichlet_tagger

    mesh = generate_structured_mesh("hex", 2)
    tags = case_dirichlet_tagger("example3")(mesh)
    assert int(tags.sum()) == 4  # the four x=0 boundary faces of a 2^3 grid
    for fid in np.flatnonzero(tags):
        assert np.allclose(mesh.positions[mesh.face_loops[fid]][:, 0], 0.0)
    # all other cases constrain the whole boundary
    all_tags = case_dirichlet_tagger("example1")(mesh)
    assert np.array_equal(all_tags, mesh.face_on_boundary)


def _old_example2_fields(k, lam, mu):
    """The example2/example3 displacement, gradient and body force as they
    were written before the fields shared their sines and cosines: each
    term evaluates its own."""
    def parts(points):
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        return (np.sin(k * x), np.sin(k * y), np.sin(k * z),
                np.cos(k * x), np.cos(k * y), np.cos(k * z))

    def field_a(points):
        sx, sy, sz, cx, cy, cz = parts(points)
        return np.column_stack([-2.0 * sx * cy * cz, cx * sy * cz, cx * cy * sz])

    def grad_a(points):
        sx, sy, sz, cx, cy, cz = parts(points)
        g = np.empty((len(points), 3, 3))
        g[:, 0, 0] = -2.0 * k * cx * cy * cz
        g[:, 0, 1] = 2.0 * k * sx * sy * cz
        g[:, 0, 2] = 2.0 * k * sx * cy * sz
        g[:, 1, 0] = -k * sx * sy * cz
        g[:, 1, 1] = k * cx * cy * cz
        g[:, 1, 2] = -k * cx * sy * sz
        g[:, 2, 0] = -k * sx * cy * sz
        g[:, 2, 1] = -k * cx * sy * sz
        g[:, 2, 2] = k * cx * cy * cz
        return g

    def disp(points):
        return field_a(points) + np.sin(k * points) / lam

    def grad(points):
        g = grad_a(points)
        g[:, np.arange(3), np.arange(3)] += (k / lam) * np.cos(k * points)
        return g

    def force(points):
        return (3.0 * k * k * mu * field_a(points)
                + (k * k / lam) * (2.0 * mu + lam) * np.sin(k * points))

    return disp, grad, force


@pytest.mark.parametrize("name", ["example2", "example3"])
def test_example_fields_bit_identical_to_separate_trig(name):
    rng = np.random.default_rng(5)
    for lam, mu in [(1.0, 1.0), (1e3, 0.7), (1e8, 2.5)]:
        case = manufactured_case(name, lam=lam, mu=mu)
        disp, grad, force = _old_example2_fields(2.0 * np.pi, lam, mu)
        for n in (1, 7, 4097):
            points = rng.uniform(-0.5, 1.5, size=(n, 3))
            assert np.array_equal(case.displacement(points), disp(points))
            assert np.array_equal(case.gradient(points), grad(points))
            assert np.array_equal(case.body_force(points), force(points))
