"""Manufactured solutions, discrete norms, error/rate computation and the
convergence/locking study driver.

The three manufactured cases live on the unit cube.  `example1` is a
divergence-free sinusoidal field, `example2` adds a compressible correction
scaled by 1/lambda (so that lambda*div(u) and the body force stay bounded in
the quasi-incompressible limit), and `example3` reuses the example2 fields
with a Dirichlet/Neumann split (Dirichlet on the x=0 side, exact tractions
elsewhere).  The extra `affine` case drives patch tests.  Body forces were
derived analytically from -div(sigma(u)) and are cross-checked against a
finite-difference oracle in the test suite.  The example2/example3 data are
affine in t = 1/lambda; their two parts are given along a trailing axis of
every field (`ManufacturedCase.parts`), from one sin/cos table per call.
All three cases share the solenoidal field a, and one kernel
(`_derivative_a`) gives its gradient and its strain, for the fused fields
and the parts alike, from the four distinct products of the gradient.

The errors and norms take the cell fields in closed form
(`space.cell_fields`).  The study (`study_rows`) does per mesh what does not
depend on lambda (the split, the loads, interpolants and strain products of
both parts) and per lambda only the combination, the lifting, the solve
(from the earlier solutions of the mesh, extrapolated in t) and the error.
"""

from __future__ import annotations

import csv
import io
import logging
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Iterator, Sequence

import numpy as np

from . import assembly
from .assembly import (
    BoundaryConditions,
    assemble_load,
    assemble_split,
    check_setup,
    dirichlet_lifting,
)
from .mesh import (DEFAULT_SEED, Mesh, _integrals, check_structured_spec,
                   generate_structured_mesh, parse_polymesh)
from .solver import SolverConfig, solve_spd
from .space import (
    QUAD_DEGREE,
    DiscreteFunction,
    DofMap,
    MaterialParams,
    cell_fields,
    interpolate,
)

try:
    import resource
except ImportError:  # not on every platform
    resource = None

logger = logging.getLogger(__name__)

CSV_HEADER = "case,mesh_kind,n,h,lambda,mu,bubbles,n_dofs,error_rel,rate,cg_iters,seconds"

AFFINE_MATRIX = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4], [0.9, 0.2, -0.6]])
AFFINE_OFFSET = np.array([0.4, -1.0, 0.2])

CASE_NAMES = ("example1", "example2", "example3", "affine")


# -- manufactured solutions ----------------------------------------------------


def _trig_parts(points: np.ndarray, k: float):
    """sin and cos of k times each coordinate of the (n, 3) `points`, two (3, n) arrays."""
    angles = np.multiply(points.T, k, order="C")
    return np.sin(angles), np.cos(angles, out=angles)


def _product(out: np.ndarray, first, *factors) -> np.ndarray:
    """`out` = first * factors[0] * factors[1] * ..., multiplied left to right."""
    np.multiply(first, factors[0], out=out)
    for factor in factors[1:]:
        out *= factor
    return out


def _field_a(parts: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """The solenoidal field (-2 sx cy cz, cx sy cz, cx cy sz) as a (3, n)
    array, written to `out` where given."""
    (sx, sy, sz), (cx, cy, cz) = parts
    out = np.empty((3, len(sx))) if out is None else out
    _product(out[0], -2.0, sx, cy, cz)
    _product(out[1], cx, sy, cz)
    _product(out[2], cx, cy, sz)
    return out


def _solenoidal_force(parts: tuple, k: float, mu: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The body force 3 k^2 mu a of `_field_a`, (3, n), written to `out` where given."""
    out = _field_a(parts, out=out)
    out *= 3.0 * k * k * mu
    return out


# entry (i, j) of the gradient of `_field_a`, and of its strain, is scale times
# product p = 0..3 of k (sin|cos)(k x) (sin|cos)(k y) (sin|cos)(k z), for ccc,
# ssc, scs, css; the scales are powers of two, so each entry rounds as p does
_GRAD_A = (((-2.0, 0), (2.0, 1), (2.0, 2)),
           ((-1.0, 1), (1.0, 0), (-1.0, 3)),
           ((-1.0, 2), (-1.0, 3), (1.0, 0)))
_STRAIN_A = (((-2.0, 0), (0.5, 1), (0.5, 2)),
             ((0.5, 1), (1.0, 0), (-1.0, 3)),
             ((0.5, 2), (-1.0, 3), (1.0, 0)))


def _derivative_a(parts: tuple, k: float, table: tuple,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The gradient (`table` `_GRAD_A`) or strain (`_STRAIN_A`) of `_field_a`, (3, 3, n), in
    `out` where given; each product is formed once, in the last entry to read it, not a buffer."""
    (sx, sy, sz), (cx, cy, cz) = parts
    out = np.empty((3, 3, len(sx))) if out is None else out
    entries, flat = [entry for row in table for entry in row], out.reshape(9, -1)
    home = {p: m for m, (_, p) in enumerate(entries)}
    for p, f in enumerate(((cx, cy, cz), (sx, sy, cz), (sx, cy, sz), (cx, sy, sz))):
        _product(flat[home[p]], k, *f)
    for m, (scale, p) in enumerate(entries):
        np.multiply(flat[home[p]], scale, out=flat[m])
    return out


def _stress(two_mu: float, strain: np.ndarray, pressure: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) stress two_mu * strain + pressure * I."""
    out = two_mu * strain.transpose(1, 2, 0)
    for j in range(3):
        out[j, j] += pressure
    return out.transpose(2, 0, 1)


def _traction(stress: np.ndarray, normal) -> np.ndarray:
    """stress . n for one normal (3,) or one per point (n, 3)."""
    # a C-ordered stress: the stacked product rounds by the layout of its operand
    stress = np.ascontiguousarray(stress)
    return (stress @ np.asarray(normal, dtype=float)[..., None])[..., 0]


@dataclass(frozen=True)
class ExactData:
    """The exact fields that the load, the lifting, the interpolant and the
    error read: the displacement, its strain, the body force and the traction
    `traction(points, normal)`."""

    displacement: Callable
    strain: Callable
    body_force: Callable
    traction: Callable


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle for one benchmark case at fixed material values.

    `lambda_parts`, where the case has them (example2, example3), are the
    lambda-free coefficients (t^0, t^1) of its exact data in t = 1/lambda,
    along a trailing axis of every field: each field is the t^0 part plus
    the t^1 part divided by lambda."""

    name: str
    material: MaterialParams
    displacement: Callable
    gradient: Callable
    strain: Callable  # the symmetric part of `gradient`
    divergence: Callable
    body_force: Callable
    dirichlet_faces: Callable  # Mesh -> bool mask over faces
    lambda_parts: ExactData | None = None

    @property
    def parts(self) -> ExactData:
        """The exact data as coefficients of t = 1/lambda, along a trailing
        axis of every field: `lambda_parts`, or the case's own fields as the
        one t^0 part.  The parts of example1, example2 and example3 do not
        depend on lambda; the traction of `affine` carries lambda * tr(A) * n,
        and is read only on Neumann faces, of which `affine` has none."""
        if self.lambda_parts is not None:
            return self.lambda_parts
        return ExactData(*(lambda p, fn=fn: fn(p)[..., None]
                           for fn in (self.displacement, self.strain, self.body_force)),
                         traction=lambda p, normal: self.traction(p, normal)[..., None])

    def stress_field(self, points: np.ndarray) -> np.ndarray:
        return _stress(2.0 * self.material.mu, self.strain(points),
                       self.material.lam * self.divergence(points))

    def traction(self, points: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """Traction at `points` for one normal (3,) or one per point (n, 3)."""
        return _traction(self.stress_field(points), normal)

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


def _example2_parts(k: float, mu: float) -> ExactData:
    """The t^0 and t^1 parts of the example2/example3 data in t = 1/lambda,
    along a trailing axis of every field, from one sin/cos table per call,
    for u = a + s/lambda with the solenoidal a of `_field_a` and
    s = (sin kx, sin ky, sin kz): the strains eps(a) and eps(s); the body
    forces 3k^2 mu a + k^2 s and 2 mu k^2 s; the tractions
    (2 mu eps(a) + div(s) I) n and 2 mu eps(s) n, since lambda div(u) = div(s)."""

    # each field is written part by part, contiguous in the points, and
    # returned as a view with the trailing part axis

    def strain_of(parts):
        """eps(a), and eps(s), whose diagonal is k cos(k x_i)."""
        out = np.zeros((2, 3, 3, parts[0].shape[1]))
        _derivative_a(parts, k, _STRAIN_A, out=out[0])
        for i in range(3):
            np.multiply(k, parts[1][i], out=out[1, i, i])
        return out.transpose(3, 1, 2, 0)

    def displacement(points):
        parts = _trig_parts(points, k)
        out = np.empty((2, 3, len(points)))
        _field_a(parts, out=out[0])
        out[1] = parts[0]
        return out.transpose(2, 1, 0)

    def force(points):
        sin, cos = _trig_parts(points, k)
        out = np.empty((2, 3, len(points)))
        np.multiply(2.0 * mu * k * k, sin, out=out[1])
        force_a = _solenoidal_force((sin, cos), k, mu, out=out[0])
        force_a += np.multiply(k * k, sin, out=sin)
        return out.transpose(2, 1, 0)

    def traction(points, normal):
        parts = _trig_parts(points, k)
        cos, eps = parts[1], strain_of(parts)
        return np.stack([_traction(_stress(2.0 * mu, eps[..., 0], k * (cos[0] + cos[1] + cos[2])),
                                   normal),
                         _traction((2.0 * mu) * eps[..., 1], normal)], axis=-1)

    return ExactData(displacement=displacement, strain=lambda p: strain_of(_trig_parts(p, k)),
                     body_force=force, traction=traction)


def manufactured_case(name: str, lam: float, mu: float = 1.0,
                      mu1: float | None = None) -> ManufacturedCase:
    """Build one of the benchmark cases at the given Lame coefficients."""
    tagger = case_dirichlet_tagger(name)
    material = MaterialParams(mu=mu, lam=lam, mu1=mu1)
    if name == "example1":
        k = np.pi
        return ManufacturedCase(
            name, material,
            displacement=lambda p: _field_a(_trig_parts(p, k)).T,
            gradient=lambda p: _derivative_a(_trig_parts(p, k), k, _GRAD_A).transpose(2, 0, 1),
            strain=lambda p: _derivative_a(_trig_parts(p, k), k, _STRAIN_A).transpose(2, 0, 1),
            divergence=lambda p: np.zeros(len(p)),
            body_force=lambda p: _solenoidal_force(_trig_parts(p, k), k, mu).T,
            dirichlet_faces=tagger,
        )
    if name in ("example2", "example3"):
        k = 2.0 * np.pi
        if lam <= 0:
            raise ValueError(f"{name} requires lambda > 0")

        def plus_divergence(table):
            """The field of `table` for a + s/lambda: (k/lambda) cos(k x_i) on (i, i)."""
            def field(points):
                parts = _trig_parts(points, k)
                out = _derivative_a(parts, k, table)
                for i in range(3):
                    out[i, i] += (k / lam) * parts[1][i]
                return out.transpose(2, 0, 1)
            return field

        def disp(points):
            parts = _trig_parts(points, k)
            out = _field_a(parts)
            out += np.divide(parts[0], lam, out=parts[0])
            return out.T

        def div(points):
            c = np.cos(np.multiply(points.T, k, order="C"))
            return (k / lam) * (c[0] + c[1] + c[2])

        def force(points):
            parts = _trig_parts(points, k)
            out = _solenoidal_force(parts, k, mu)
            out += np.multiply((k * k / lam) * (2.0 * mu + lam), parts[0], out=parts[0])
            return out.T

        return ManufacturedCase(
            name, material,
            displacement=disp,
            gradient=plus_divergence(_GRAD_A),
            strain=plus_divergence(_STRAIN_A),
            divergence=div,
            body_force=force,
            dirichlet_faces=tagger,
            lambda_parts=_example2_parts(k, mu),
        )
    if name == "affine":
        return ManufacturedCase(
            name, material,
            displacement=lambda p: p @ AFFINE_MATRIX.T + AFFINE_OFFSET,
            gradient=lambda p: np.broadcast_to(AFFINE_MATRIX, (len(p), 3, 3)).copy(),
            strain=lambda p: np.broadcast_to(0.5 * (AFFINE_MATRIX + AFFINE_MATRIX.T),
                                             (len(p), 3, 3)).copy(),
            divergence=lambda p: np.full(len(p), float(np.trace(AFFINE_MATRIX))),
            body_force=lambda p: np.zeros((len(p), 3)),
            dirichlet_faces=tagger,
        )


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
    return float(np.sqrt(strain_gram(mesh, strain_fn)[0, 0]))


def strain_gram(mesh: Mesh, strain: Callable) -> np.ndarray:
    """The L2 inner products (eps_i, eps_j) of the exact strain fields along
    the trailing axis of `strain` (n, 3, 3[, s]), as a symmetric (s, s)
    matrix, from one pass of cell quadrature."""
    pairs = []

    def products(points, at):
        strains = np.asarray(strain(points), dtype=float)
        # one (n, 9) block per part, a view of the component-major fields
        strains = np.moveaxis(strains.reshape(strains.shape[:3] + (-1,)), 3, 0)
        strains = strains.reshape(len(strains), len(points), 9)
        pairs[:] = [(i, j) for i in range(len(strains)) for j in range(i, len(strains))]
        return np.column_stack([np.einsum("pk,pk->p", strains[i], strains[j])
                                for i, j in pairs])

    sums = _integrals(mesh, "cell", QUAD_DEGREE, products).sum(axis=0)
    size = pairs[-1][1] + 1 if pairs else 1
    gram = np.zeros((size, size))
    for (i, j), value in zip(pairs, sums):
        gram[i, j] = gram[j, i] = value
    return gram


def at_lambda(parts: np.ndarray, lam: float) -> np.ndarray:
    """parts[..., 0] + parts[..., 1] / lam, or a copy of parts[..., 0] where
    it is the only part: a field given by its coefficients in t = 1/lambda
    along the trailing axis."""
    if parts.shape[-1] == 1:
        return parts[..., 0].copy()
    return parts[..., 0] + np.divide(parts[..., 1], lam)


def norm_at_lambda(gram: np.ndarray, lam: float) -> float:
    """The L2 norm of the strain parts[..., 0] + parts[..., 1] / lam, from
    the `strain_gram` of its parts."""
    if len(gram) == 1:
        return float(np.sqrt(gram[0, 0]))
    return float(np.sqrt(gram[0, 0] + (2.0 * gram[0, 1] + gram[1, 1] / lam) / lam))


def relative_error(mesh: Mesh, solution: DiscreteFunction,
                   reference: DiscreteFunction, strain: Callable | float) -> float:
    """Strain-L2 distance between the discrete solution and the interpolant
    of the exact solution, relative to the exact strain norm: that of the
    field `strain`, or `strain` itself where it is the norm."""
    grad = cell_fields(mesh, solution.values - reference.values)[0]
    num_sq = _volume_norm_sq(mesh, _strain(grad))
    den = strain if isinstance(strain, float) else exact_strain_norm(mesh, strain)
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

    def squares(points, at):
        gap = (gradient_fn(points) - grad[at]).reshape(len(points), 9)
        return np.einsum("pk,pk->p", gap, gap)

    return float(np.sqrt(_integrals(mesh, "cell", QUAD_DEGREE, squares).sum() + s_val))


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
    if dofmap.n_free == 0:
        raise ValueError("no free DOF to sample")
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

    def check(self):
        """Raise unless the mesh can be built: for a generated mesh, if its
        spec is out of range; for a file, if it cannot be opened."""
        if self.kind == "file":
            open(self.path, "rb").close()
        else:
            check_structured_spec(self.kind, self.n, self.perturb)

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


def _lambda_free_data(mesh: Mesh, dofmap: DofMap, tags: np.ndarray, parts: ExactData):
    """The load (N, s) and the interpolant (N, s) of the parts of the exact
    data, one column per part, and the `strain_gram` of their strains: what
    a study needs of the exact data on one mesh, for every lambda, from one
    pass of each."""
    load = assemble_load(mesh, dofmap, BoundaryConditions(tags, neumann_data=parts.traction),
                         parts.body_force)
    interpolant = interpolate(mesh, dofmap, parts.displacement).values
    return load, interpolant, strain_gram(mesh, parts.strain)


def _peak_rss() -> str:
    """", peak RSS <MB>" of this process so far, or nothing where the
    `resource` module is missing."""
    if resource is None:
        return ""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, bytes on macOS
    return f", peak RSS {peak / (2**20 if sys.platform == 'darwin' else 2**10):.1f} MB"


def _warm_start(solved: Sequence[tuple[float, np.ndarray]], t: float):
    """A start for the mixed solve at t = 1/lambda: linear in t through the
    last two (t, `SolveResult.mixed`) of `solved`, the last one alone, or
    none before the first."""
    if len(solved) < 2:
        return solved[-1][1] if solved else None
    (t_1, x_1), (t_2, x_2) = solved[-2:]
    return x_2 + ((t - t_2) / (t_2 - t_1)) * (x_2 - x_1)


def study_rows(case_name: str, mesh_sources: Sequence[MeshSource],
               lambdas: Sequence[float], *, mu: float = 1.0, mu1: float | None = None,
               bubbles: bool = True, solver_config: SolverConfig | None = None,
               seed: int = DEFAULT_SEED) -> Iterator[tuple[ConvergenceRecord, DiscreteFunction]]:
    """Assemble/solve the case on every (mesh, lambda) pair, mesh by mesh, and
    yield each pair's record (relative error, observed rate) with its solution.

    The matrix A0 + lambda*K is split once per mesh by `assemble_split`, into
    A0 and the divergence map D of K = D^T W D, and every lambda reduces the
    split at that lambda (see `reduce_system`).  The exact data are affine in
    1/lambda (`ManufacturedCase.parts`), so with more than one lambda the load
    and the interpolant of both parts and their strain products are computed
    once per mesh, in one pass each, and every lambda combines them; with one
    lambda they are those of the case's own fields.  Every lambda takes its
    own Dirichlet lifting, and its interpolant takes the lifting's
    constrained entries, so that a mesh with no free DOF has a zero error.
    The discrete solution is smooth in t = 1/lambda, so each MINRES solve
    of a mesh after its first starts from the earlier solutions, extrapolated
    linearly in t (`_warm_start`; used only where its residual is below that
    of zero); a row's `cg_iters` counts the steps from that start.
    Every lambda (and mu, mu1) and generated mesh is validated, every mesh
    file is opened (`MeshSource.check`), and neither a lambda nor a mesh may
    be listed twice, before the first mesh is built; each mesh's h must be
    below the previous mesh's, which is checked before the mesh is split.
    In the no-bubble ablation mode, rates are reported only for lambda < 1e3
    rows, where the error still behaves like a power of h.  A zero error (a
    mesh with no free DOF) has no rate to it or from it.
    """
    if not lambdas:
        raise ValueError("lambda list must be non-empty")
    cases = [manufactured_case(case_name, lam=lam, mu=mu, mu1=mu1) for lam in lambdas]
    for i, lam in enumerate(lambdas):
        if lam in lambdas[:i]:
            raise ValueError(f"lambda {lam:g} is listed twice")
    labels = [source.label for source in mesh_sources]
    for i, source in enumerate(mesh_sources):
        if source.label in labels[:i]:
            raise ValueError(f"mesh {source.label} is listed twice")
    for source in mesh_sources:
        source.check()
    if solver_config is None:
        solver_config = SolverConfig()
    parts = (cases[0] if len(cases) > 1 else replace(cases[0], lambda_parts=None)).parts
    previous: dict[float, tuple[float, float]] = {}
    coarser = None
    for source in mesh_sources:
        mesh = source.build(seed=seed)
        if coarser is not None and mesh.h >= coarser[1]:
            raise ValueError(f"h must decrease between refinement levels: {source.label} "
                             f"(h={mesh.h:g}) follows {coarser[0]} (h={coarser[1]:g})")
        coarser = source.label, mesh.h
        tags = case_dirichlet_tagger(case_name)(mesh)
        dofmap = DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=tags)
        check_setup(mesh, dofmap, BoundaryConditions(tags))
        start = time.perf_counter()
        split = assemble_split(mesh, dofmap, cases[0].material)  # at lambda = 0
        logger.info("%s: lambda split built in %.2fs, nnz A0=%d D=%d, K=D^T W D%s",
                    source.label, time.perf_counter() - start, *split.assembled_nnz,
                    _peak_rss())
        start = time.perf_counter()
        load, interpolant, gram = _lambda_free_data(mesh, dofmap, tags, parts)
        logger.info("%s: lambda-free exact data (%d parts) in %.2fs%s", source.label,
                    load.shape[-1], time.perf_counter() - start, _peak_rss())
        constrained = dofmap.constrained_indices
        solved = []  # the last two (t, mixed solution) of this mesh, for the warm starts
        for lam, case in zip(lambdas, cases):
            start = time.perf_counter()
            lifting = dirichlet_lifting(mesh, dofmap, case.boundary_conditions(mesh))
            system = assembly.reduce_system(split.at(lam), at_lambda(load, lam), lifting,
                                            dofmap)
            guess = _warm_start(solved, 1.0 / lam) if system.split is not None else None
            result = solve_spd(system, solver_config, start=guess)
            if result.mixed is not None:
                solved = solved[-1:] + [(1.0 / lam, result.mixed)]
            reference = at_lambda(interpolant, lam)
            reference[constrained] = lifting[constrained]
            err = relative_error(mesh, result.function, DiscreteFunction(dofmap, reference),
                                 norm_at_lambda(gram, lam))
            seconds = time.perf_counter() - start
            rate = None
            err_prev, h_prev = previous.get(lam, (0.0, 0.0))
            if err_prev > 0.0 and err > 0.0 and (bubbles or lam < 1e3):
                rate = compute_rate(err_prev, h_prev, err, mesh.h)
            previous[lam] = (err, mesh.h)
            logger.info("%s %s lambda=%g: error=%.6e iters=%d (%.2fs)",
                        case_name, source.label, lam, err, result.iterations,
                        seconds)
            yield ConvergenceRecord(
                case=case_name, mesh_kind=source.kind, n=source.n, h=float(mesh.h),
                lam=float(lam), mu=float(mu), bubbles=bubbles,
                n_dofs=int(dofmap.total_dofs), error_rel=float(err), rate=rate,
                cg_iters=result.iterations, seconds=seconds), result.function


def run_convergence_study(case_name: str, mesh_sources: Sequence[MeshSource],
                          lambdas: Sequence[float], *, mu: float = 1.0,
                          mu1: float | None = None, bubbles: bool = True,
                          solver_config: SolverConfig | None = None,
                          seed: int = DEFAULT_SEED, csv_path: str | None = None,
                          provenance: str | None = None) -> list[ConvergenceRecord]:
    """The records of `study_rows`, also written as CSV to `csv_path` (with
    the `provenance` line) where one is given."""
    records = [record for record, _ in study_rows(
        case_name, mesh_sources, lambdas, mu=mu, mu1=mu1, bubbles=bubbles,
        solver_config=solver_config, seed=seed)]
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
