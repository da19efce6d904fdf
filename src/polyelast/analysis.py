"""Manufactured solutions, discrete norms, error/rate computation and the
convergence/locking study driver.

The three manufactured cases live on the unit cube.  `example1` is a
divergence-free sinusoidal field, `example2` adds a compressible correction
scaled by 1/lambda (so that lambda*div(u) and the body force stay bounded in
the quasi-incompressible limit), and `example3` reuses the example2 fields
with a Dirichlet/Neumann split (Dirichlet on the x=0 side, exact tractions
elsewhere).  The extra `affine` case drives patch tests.  Body forces were
derived analytically from -div(sigma(u)) and are cross-checked against a
finite-difference oracle in the test suite.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Sequence

import numpy as np

from .assembly import BoundaryConditions, assemble_split, check_setup, lifted_system
from .mesh import DEFAULT_SEED, Mesh, _integrals, generate_structured_mesh, parse_polymesh
from .solver import SolverConfig, solve_spd
from .space import (
    QUAD_DEGREE,
    DiscreteFunction,
    DofMap,
    MaterialParams,
    cell_fields,
    interpolate,
)

logger = logging.getLogger(__name__)

CSV_HEADER = "case,mesh_kind,n,h,lambda,mu,bubbles,n_dofs,error_rel,rate,cg_iters,seconds"

AFFINE_MATRIX = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
AFFINE_OFFSET = np.array([0.4, -1.0, 0.2])

CASE_NAMES = ("example1", "example2", "example3", "affine")


# -- manufactured solutions ----------------------------------------------------


def _trig_parts(points: np.ndarray, k: float):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return (np.sin(k * x), np.sin(k * y), np.sin(k * z),
            np.cos(k * x), np.cos(k * y), np.cos(k * z))


def _field_a(parts: tuple) -> np.ndarray:
    sx, sy, sz, cx, cy, cz = parts
    return np.column_stack([-2.0 * sx * cy * cz, cx * sy * cz, cx * cy * sz])


def _grad_a(parts: tuple, k: float) -> np.ndarray:
    sx, sy, sz, cx, cy, cz = parts
    g = np.empty((len(sx), 3, 3))
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


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle for one benchmark case at fixed material values."""

    name: str
    material: MaterialParams
    displacement: Callable
    gradient: Callable
    divergence: Callable
    body_force: Callable
    dirichlet_faces: Callable  # Mesh -> bool mask over faces

    def strain(self, points: np.ndarray) -> np.ndarray:
        g = self.gradient(points)
        return 0.5 * (g + g.transpose(0, 2, 1))

    def stress_field(self, points: np.ndarray) -> np.ndarray:
        eps = self.strain(points)
        out = 2.0 * self.material.mu * eps
        out[:, np.arange(3), np.arange(3)] += self.material.lam * self.divergence(
            points)[:, None]
        return out

    def traction(self, points: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """Traction at `points` for one normal (3,) or one per point (n, 3)."""
        return (self.stress_field(points) @ np.asarray(normal, dtype=float)[..., None])[..., 0]

    def boundary_conditions(self, mesh: Mesh) -> BoundaryConditions:
        return BoundaryConditions(
            self.dirichlet_faces(mesh),
            dirichlet_data=self.displacement,
            neumann_data=self.traction,
        )


def _all_boundary(mesh: Mesh) -> np.ndarray:
    return mesh.face_on_boundary.copy()


def _x0_plane_faces(mesh: Mesh) -> np.ndarray:
    xs = np.abs(mesh.positions[mesh.face_loop_vertices, 0])
    return mesh.face_on_boundary & (np.maximum.reduceat(xs, mesh.face_loop_offsets[:-1])
                                    <= 1e-10)


def case_dirichlet_tagger(name: str) -> Callable:
    """Boundary tagging rule of a case (independent of the material values)."""
    if name == "example3":
        return _x0_plane_faces
    if name in CASE_NAMES:
        return _all_boundary
    raise ValueError(f"unknown case {name!r}; expected one of {CASE_NAMES}")


def manufactured_case(name: str, lam: float, mu: float = 1.0,
                      mu1: float | None = None) -> ManufacturedCase:
    """Build one of the benchmark cases at the given Lame coefficients."""
    material = MaterialParams(mu=mu, lam=lam, mu1=mu1)
    if name == "example1":
        k = np.pi
        factor = 3.0 * k * k * mu

        def force(points):
            return factor * _field_a(_trig_parts(points, k))

        return ManufacturedCase(
            name, material,
            displacement=lambda p: _field_a(_trig_parts(p, k)),
            gradient=lambda p: _grad_a(_trig_parts(p, k), k),
            divergence=lambda p: np.zeros(len(p)),
            body_force=force,
            dirichlet_faces=_all_boundary,
        )
    if name in ("example2", "example3"):
        k = 2.0 * np.pi
        if lam <= 0:
            raise ValueError(f"{name} requires lambda > 0")

        def disp(points):
            parts = _trig_parts(points, k)
            return _field_a(parts) + np.column_stack(parts[:3]) / lam

        def grad(points):
            parts = _trig_parts(points, k)
            g = _grad_a(parts, k)
            g[:, np.arange(3), np.arange(3)] += (k / lam) * np.column_stack(parts[3:])
            return g

        def div(points):
            return (k / lam) * np.cos(k * points).sum(axis=1)

        def force(points):
            parts = _trig_parts(points, k)
            return (3.0 * k * k * mu * _field_a(parts)
                    + (k * k / lam) * (2.0 * mu + lam) * np.column_stack(parts[:3]))

        tagger = _all_boundary if name == "example2" else _x0_plane_faces
        return ManufacturedCase(
            name, material,
            displacement=disp,
            gradient=grad,
            divergence=div,
            body_force=force,
            dirichlet_faces=tagger,
        )
    if name == "affine":
        return ManufacturedCase(
            name, material,
            displacement=lambda p: p @ AFFINE_MATRIX.T + AFFINE_OFFSET,
            gradient=lambda p: np.broadcast_to(AFFINE_MATRIX, (len(p), 3, 3)).copy(),
            divergence=lambda p: np.full(len(p), float(np.trace(AFFINE_MATRIX))),
            body_force=lambda p: np.zeros((len(p), 3)),
            dirichlet_faces=_all_boundary,
        )
    raise ValueError(f"unknown case {name!r}; expected one of {CASE_NAMES}")


# -- norms and errors ----------------------------------------------------------


@dataclass(frozen=True)
class DiscreteNorms:
    h1: float
    energy: float
    eps_l2: float
    stabilization: float


def _volume_norm_sq(mesh: Mesh, values: np.ndarray) -> float:
    """Sum over cells of |K| times the squared cell entries of `values`."""
    return float(mesh.cell_volume @ (values**2).reshape(mesh.n_cells, -1).sum(axis=1))


def _strain(gradients: np.ndarray) -> np.ndarray:
    return 0.5 * (gradients + gradients.swapaxes(1, 2))


def discrete_norms(mesh: Mesh, func: DiscreteFunction,
                   material: MaterialParams) -> DiscreteNorms:
    """Broken H1, energy, strain-L2 and stabilization (semi)norms."""
    grad, _, s_val = cell_fields(mesh, func.values, stabilization=True)
    eps_sq = _volume_norm_sq(mesh, _strain(grad))
    energy_sq = (2.0 * material.mu * eps_sq
                 + material.lam * _volume_norm_sq(mesh, np.trace(grad, axis1=1, axis2=2))
                 + material.stabilization_scale * s_val)
    return DiscreteNorms(
        h1=float(np.sqrt(_volume_norm_sq(mesh, grad) + s_val)),
        energy=float(np.sqrt(energy_sq)),
        eps_l2=float(np.sqrt(eps_sq)),
        stabilization=float(s_val),
    )


def exact_strain_norm(mesh: Mesh, strain_fn: Callable) -> float:
    """L2 norm of an exact strain field over the mesh, by cell quadrature."""
    squares = _integrals(mesh, "cell", QUAD_DEGREE,
                         lambda points, at: np.sum(strain_fn(points) ** 2, axis=(1, 2)))
    return float(np.sqrt(squares.sum()))


def relative_error(mesh: Mesh, solution: DiscreteFunction,
                   reference: DiscreteFunction, strain_fn: Callable) -> float:
    """Strain-L2 distance between the discrete solution and the interpolant
    of the exact solution, relative to the exact strain norm."""
    grad = cell_fields(mesh, solution.values - reference.values)[0]
    num_sq = _volume_norm_sq(mesh, _strain(grad))
    den = exact_strain_norm(mesh, strain_fn)
    if den == 0.0:
        raise ZeroDivisionError("exact strain norm vanishes")
    return float(np.sqrt(num_sq) / den)


def compute_rate(error_coarse: float, h_coarse: float, error_fine: float,
                 h_fine: float) -> float:
    """Observed convergence rate between two refinement levels."""
    if min(error_coarse, h_coarse, error_fine, h_fine) <= 0.0:
        raise ValueError("errors and mesh sizes must be positive")
    if h_fine >= h_coarse:
        raise ValueError("h must decrease between refinement levels")
    return float(np.log(error_coarse / error_fine) / np.log(h_coarse / h_fine))


def consistency_error(mesh: Mesh, gradient_fn: Callable,
                      interpolant: DiscreteFunction) -> float:
    """Gradient-consistency error of the interpolant: L2 distance between the
    exact gradient and the piecewise-constant reconstruction, plus the
    stabilization energy, all under a square root."""
    grad, _, s_val = cell_fields(mesh, interpolant.values, stabilization=True)
    squares = _integrals(mesh, "cell", QUAD_DEGREE, lambda points, at: np.sum(
        (gradient_fn(points) - grad[at]) ** 2, axis=(1, 2)))
    return float(np.sqrt(squares.sum() + s_val))


def adjoint_residual(mesh: Mesh, stress_fn: Callable, force_fn: Callable,
                     func: DiscreteFunction) -> float:
    """Integration-by-parts residual of an exact stress against a discrete
    test function: sum over cells of (cell mean stress):strain(v) minus the
    force integral against the piecewise-constant displacement."""
    grad, mean = cell_fields(mesh, func.values)
    stress_int = _integrals(mesh, "cell", QUAD_DEGREE, lambda points, at: stress_fn(points))
    force_int = _integrals(mesh, "cell", QUAD_DEGREE, lambda points, at: force_fn(points))
    return float(stress_int.ravel() @ _strain(grad).ravel() - force_int.ravel() @ mean.ravel())


@dataclass(frozen=True)
class KornStats:
    max_ratio: float
    mean_ratio: float


def korn_ratio(mesh: Mesh, dofmap: DofMap, sample_count: int,
               seed: int = DEFAULT_SEED) -> KornStats:
    """Sampled discrete Korn ratios |v|_{1,D}^2 / (|eps(v)|^2 + S(v,v)) over
    random interior-supported discrete functions."""
    # one column per sample, drawn one after the other
    values = np.zeros((dofmap.vector_size, sample_count))
    rng = np.random.default_rng(seed)
    values[dofmap.free_indices] = rng.standard_normal((sample_count, dofmap.n_free)).T
    grad, _, s_val = cell_fields(mesh, values, stabilization=True)
    den = mesh.cell_volume @ (_strain(grad) ** 2).sum(axis=(1, 2)) + s_val
    if np.any(den <= 0.0):
        raise ArithmeticError("Korn denominator vanished for a nonzero "
                              "discrete function")
    ratios = (mesh.cell_volume @ (grad**2).sum(axis=(1, 2)) + s_val) / den
    return KornStats(float(ratios.max()), float(ratios.mean()))


# -- study driver --------------------------------------------------------------


@dataclass(frozen=True)
class MeshSource:
    """One entry of a mesh refinement series: a generated family member
    (hex/tet with subdivision n and optional perturbation) or a file path."""

    kind: str
    n: int
    perturb: float = 0.0
    path: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "file":
            return str(self.path)
        if self.perturb > 0.0:
            return f"{self.kind}:{self.n}:{self.perturb:g}"
        return f"{self.kind}:{self.n}"

    def build(self, seed: int = DEFAULT_SEED) -> Mesh:
        if self.kind == "file":
            with open(self.path, "r", encoding="utf-8") as fh:
                return parse_polymesh(fh)
        return generate_structured_mesh(self.kind, self.n, perturb=self.perturb,
                                        seed=seed)


def parse_mesh_source(spec: str, index: int = 0) -> MeshSource:
    """Parse 'hex:4', 'tet:8:0.3' or a POLYMESH file path."""
    parts = spec.split(":")
    if parts[0] in ("hex", "tet"):
        if len(parts) not in (2, 3):
            raise ValueError(f"bad mesh spec {spec!r}: expected kind:n[:perturb]")
        try:
            n = int(parts[1])
            perturb = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise ValueError(f"bad mesh spec {spec!r}: non-numeric field")
        return MeshSource(parts[0], n, perturb)
    return MeshSource("file", index + 1, path=spec)


@dataclass
class ConvergenceRecord:
    case: str
    mesh_kind: str
    n: int
    h: float
    lam: float
    mu: float
    bubbles: bool
    n_dofs: int
    error_rel: float
    rate: float | None
    cg_iters: int
    seconds: float


def _sci(x: float) -> str:
    return f"{x:.5e}"


def format_records_csv(records: Sequence[ConvergenceRecord],
                       provenance: str | None = None) -> str:
    """Render study records in the fixed CSV schema (6 significant digits,
    scientific notation; `rate` left empty where undefined)."""
    out = io.StringIO()
    if provenance is not None:
        out.write(f"# {provenance}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in records:
        writer.writerow([
            r.case,
            r.mesh_kind,
            r.n,
            _sci(r.h),
            _sci(r.lam),
            _sci(r.mu),
            "on" if r.bubbles else "off",
            r.n_dofs,
            _sci(r.error_rel),
            "" if r.rate is None else _sci(r.rate),
            r.cg_iters,
            _sci(r.seconds),
        ])
    return out.getvalue()


def run_convergence_study(case_name: str, mesh_sources: Sequence[MeshSource],
                          lambdas: Sequence[float], *, mu: float = 1.0,
                          mu1: float | None = None, bubbles: bool = True,
                          solver_config: SolverConfig | None = None,
                          seed: int = DEFAULT_SEED, csv_path: str | None = None,
                          provenance: str | None = None) -> list[ConvergenceRecord]:
    """Assemble/solve the case on every (mesh, lambda) pair and report
    relative errors and observed rates.

    The matrix A0 + lambda*K is split once per mesh by `assemble_split`, into
    A0 and the divergence map D of K = D^T W D, and every lambda reduces the
    split at that lambda (see `reduce_system`).  The exact fields and hence
    the loads and liftings depend on lambda and are assembled per lambda.
    Every lambda (and mu, mu1) is validated before the first mesh is built.
    In the no-bubble ablation mode, rates are reported only for lambda < 1e3
    rows, where the error still behaves like a power of h.  A zero error (a
    mesh with no free DOF) has no rate to it or from it.
    """
    if not lambdas:
        raise ValueError("lambda list must be non-empty")
    cases = [manufactured_case(case_name, lam=lam, mu=mu, mu1=mu1) for lam in lambdas]
    if solver_config is None:
        solver_config = SolverConfig()
    records: list[ConvergenceRecord] = []
    previous: dict[float, tuple[float, float]] = {}
    for source in mesh_sources:
        mesh = source.build(seed=seed)
        tags = case_dirichlet_tagger(case_name)(mesh)
        dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=tags)
        check_setup(mesh, dofmap, BoundaryConditions(tags))
        start = time.perf_counter()
        split = assemble_split(mesh, dofmap, cases[0].material)  # at lambda = 0
        logger.info("%s: lambda split built in %.2fs, nnz A0=%d D=%d, K=D^T W D",
                    source.label, time.perf_counter() - start, split.full_a0.nnz,
                    split.full_divergence.nnz)
        for lam, case in zip(lambdas, cases):
            start = time.perf_counter()
            system = lifted_system(mesh, dofmap, split.at(lam),
                                   case.boundary_conditions(mesh), case.body_force)
            result = solve_spd(system, solver_config)
            reference = interpolate(mesh, dofmap, case.displacement)
            err = relative_error(mesh, result.function, reference, case.strain)
            seconds = time.perf_counter() - start
            rate = None
            err_prev, h_prev = previous.get(lam, (0.0, 0.0))
            if err_prev > 0.0 and err > 0.0 and (bubbles or lam < 1e3):
                rate = compute_rate(err_prev, h_prev, err, mesh.h)
            previous[lam] = (err, mesh.h)
            record = ConvergenceRecord(
                case=case_name,
                mesh_kind=source.kind,
                n=source.n,
                h=float(mesh.h),
                lam=float(lam),
                mu=float(mu),
                bubbles=bubbles,
                n_dofs=int(dofmap.total_dofs),
                error_rel=float(err),
                rate=rate,
                cg_iters=result.iterations,
                seconds=seconds,
            )
            records.append(record)
            logger.info("%s %s lambda=%g: error=%.6e iters=%d (%.2fs)",
                        case_name, source.label, lam, err, result.iterations,
                        seconds)
    if csv_path is not None:
        text = format_records_csv(records, provenance)
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return records


def default_provenance(case: str, mesh_specs: Sequence[str], lambdas: Sequence[float],
                       bubbles: bool, seed: int, solver_config: SolverConfig) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return (
        f"polyelast 0.1.0 case={case} meshes={','.join(mesh_specs)} "
        f"lambdas={','.join(f'{l:g}' for l in lambdas)} "
        f"bubbles={'on' if bubbles else 'off'} seed={seed} "
        f"tol={solver_config.tol:g} generated={stamp}"
    )
