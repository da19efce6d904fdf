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

from .assembly import BoundaryConditions, assemble
from .mesh import DEFAULT_SEED, Mesh, _integrals, generate_structured_mesh, parse_polymesh
from .solver import SolverConfig, solve_spd
from .space import (
    DiscreteFunction,
    DofMap,
    MaterialParams,
    ReconstructionOperators,
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


def _field_a(points: np.ndarray, k: float) -> np.ndarray:
    sx, sy, sz, cx, cy, cz = _trig_parts(points, k)
    return np.column_stack([-2.0 * sx * cy * cz, cx * sy * cz, cx * cy * sz])


def _grad_a(points: np.ndarray, k: float) -> np.ndarray:
    sx, sy, sz, cx, cy, cz = _trig_parts(points, k)
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
            return factor * _field_a(points, k)

        return ManufacturedCase(
            name, material,
            displacement=lambda p: _field_a(p, k),
            gradient=lambda p: _grad_a(p, k),
            divergence=lambda p: np.zeros(len(p)),
            body_force=force,
            dirichlet_faces=_all_boundary,
        )
    if name in ("example2", "example3"):
        k = 2.0 * np.pi
        if lam <= 0:
            raise ValueError(f"{name} requires lambda > 0")

        def disp(points):
            sines = np.sin(k * points)
            return _field_a(points, k) + sines / lam

        def grad(points):
            g = _grad_a(points, k)
            cosines = np.cos(k * points)
            g[:, np.arange(3), np.arange(3)] += (k / lam) * cosines
            return g

        def div(points):
            return (k / lam) * np.cos(k * points).sum(axis=1)

        def force(points):
            sines = np.sin(k * points)
            return (3.0 * k * k * mu * _field_a(points, k)
                    + (k * k / lam) * (2.0 * mu + lam) * sines)

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


def _volume_norm_sq(ops: ReconstructionOperators, values: np.ndarray) -> float:
    """Sum over cells of |K| times the squared cell entries of `values`, the
    image of a DOF vector under one of the operators of `ops`."""
    return float(ops.volume @ (values**2).reshape(len(ops.volume), -1).sum(axis=1))


def discrete_norms(mesh: Mesh, func: DiscreteFunction,
                   material: MaterialParams) -> DiscreteNorms:
    """Broken H1, energy, strain-L2 and stabilization (semi)norms."""
    ops = ReconstructionOperators(mesh)
    v = func.values
    s_val = ops.stabilization_energy(v)
    eps_sq = _volume_norm_sq(ops, ops.strain @ v)
    energy_sq = (2.0 * material.mu * eps_sq
                 + material.lam * _volume_norm_sq(ops, ops.divergence @ v)
                 + material.stabilization_scale * s_val)
    return DiscreteNorms(
        h1=float(np.sqrt(_volume_norm_sq(ops, ops.gradient @ v) + s_val)),
        energy=float(np.sqrt(energy_sq)),
        eps_l2=float(np.sqrt(eps_sq)),
        stabilization=s_val,
    )


def exact_strain_norm(mesh: Mesh, strain_fn: Callable,
                      quad_degree: int = 4) -> float:
    """L2 norm of an exact strain field over the mesh, by cell quadrature."""
    squares = _integrals(mesh, "cell", quad_degree,
                         lambda points, at: np.sum(strain_fn(points) ** 2, axis=(1, 2)))
    return float(np.sqrt(squares.sum()))


def relative_error(mesh: Mesh, solution: DiscreteFunction,
                   reference: DiscreteFunction, strain_fn: Callable,
                   quad_degree: int = 4) -> float:
    """Strain-L2 distance between the discrete solution and the interpolant
    of the exact solution, relative to the exact strain norm."""
    ops = ReconstructionOperators(mesh)
    num_sq = _volume_norm_sq(ops, ops.strain @ (solution.values - reference.values))
    den = exact_strain_norm(mesh, strain_fn, quad_degree)
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
                      interpolant: DiscreteFunction,
                      quad_degree: int = 4) -> float:
    """Gradient-consistency error of the interpolant: L2 distance between the
    exact gradient and the piecewise-constant reconstruction, plus the
    stabilization energy, all under a square root."""
    ops = ReconstructionOperators(mesh)
    grad = (ops.gradient @ interpolant.values).reshape(-1, 3, 3)
    squares = _integrals(mesh, "cell", quad_degree, lambda points, at: np.sum(
        (gradient_fn(points) - grad[at]) ** 2, axis=(1, 2)))
    return float(np.sqrt(squares.sum() + ops.stabilization_energy(interpolant.values)))


def adjoint_residual(mesh: Mesh, stress_fn: Callable, force_fn: Callable,
                     func: DiscreteFunction, quad_degree: int = 4) -> float:
    """Integration-by-parts residual of an exact stress against a discrete
    test function: sum over cells of (cell mean stress):strain(v) minus the
    force integral against the piecewise-constant displacement."""
    ops = ReconstructionOperators(mesh)
    stress_int = ops.cell_integrals(stress_fn, quad_degree).ravel()
    force_int = ops.cell_integrals(force_fn, quad_degree).ravel()
    return float(stress_int @ (ops.strain @ func.values)
                 - force_int @ (ops.mean @ func.values))


@dataclass(frozen=True)
class KornStats:
    max_ratio: float
    mean_ratio: float


def korn_ratio(mesh: Mesh, dofmap: DofMap, sample_count: int,
               seed: int = DEFAULT_SEED) -> KornStats:
    """Sampled discrete Korn ratios |v|_{1,D}^2 / (|eps(v)|^2 + S(v,v)) over
    random interior-supported discrete functions."""
    ops = ReconstructionOperators(mesh)
    rng = np.random.default_rng(seed)
    ratios = np.empty(sample_count)
    for k in range(sample_count):
        values = np.zeros(dofmap.vector_size)
        values[dofmap.free_indices] = rng.standard_normal(dofmap.n_free)
        s_val = ops.stabilization_energy(values)
        num = _volume_norm_sq(ops, ops.gradient @ values) + s_val
        den = _volume_norm_sq(ops, ops.strain @ values) + s_val
        if den <= 0.0:
            raise ArithmeticError("Korn denominator vanished for a nonzero "
                                  "discrete function")
        ratios[k] = num / den
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
                          seed: int = DEFAULT_SEED, quad_degree: int = 4,
                          csv_path: str | None = None,
                          provenance: str | None = None) -> list[ConvergenceRecord]:
    """Assemble/solve the case on every (mesh, lambda) pair and report
    relative errors and observed rates.

    Every lambda is assembled on its own, as a single solve is; the exact
    fields and hence the loads and liftings may depend on lambda.  In the
    no-bubble ablation mode, rates are reported only for lambda < 1e3 rows,
    where the error still behaves like a power of h.
    """
    if not lambdas:
        raise ValueError("lambda list must be non-empty")
    if solver_config is None:
        solver_config = SolverConfig()
    records: list[ConvergenceRecord] = []
    previous: dict[float, tuple[float, float]] = {}
    for source in mesh_sources:
        mesh = source.build(seed=seed)
        tags = case_dirichlet_tagger(case_name)(mesh)
        dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=tags)
        for lam in lambdas:
            start = time.perf_counter()
            case = manufactured_case(case_name, lam=lam, mu=mu, mu1=mu1)
            system = assemble(mesh, dofmap, case.material,
                              case.boundary_conditions(mesh), case.body_force,
                              quad_degree)
            result = solve_spd(system, solver_config)
            reference = interpolate(mesh, dofmap, case.displacement)
            err = relative_error(mesh, result.function, reference, case.strain,
                                 quad_degree)
            seconds = time.perf_counter() - start
            rate = None
            if lam in previous and not (not bubbles and lam >= 1e3):
                err_prev, h_prev = previous[lam]
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
