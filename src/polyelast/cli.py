"""Command-line interface: solve single problems, run convergence studies,
and run the built-in property checks."""

from __future__ import annotations

import argparse
import logging
import sys
import time

import numpy as np

from .analysis import (
    ConvergenceRecord,
    default_provenance,
    format_records_csv,
    korn_ratio,
    manufactured_case,
    parse_mesh_source,
    relative_error,
    run_convergence_study,
)
from .assembly import AssemblyError, assemble
from .mesh import DEFAULT_SEED, MeshError, _integrals, validate_mesh
from .solver import SolverConfig, SolverError, solve_spd
from .space import (
    DiscreteFunction,
    DofMap,
    ReconstructionOperators,
    face_reconstructions,
    interpolate,
    stabilization_energy,
)
from .vtk_io import write_vtk

logger = logging.getLogger(__name__)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--mu", type=float, default=1.0, help="shear modulus (default 1)")
    p.add_argument("--mu1", type=float, default=None,
                   help="stabilization scale (default: equal to mu)")
    p.add_argument("--no-bubbles", action="store_true",
                   help="constrain all face bubbles to zero (locking ablation)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative residual tolerance of the CG solver")
    p.add_argument("--max-iters", type=int, default=None,
                   help="CG iteration cap (default: 20*sqrt(n), at least 1000)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for mesh perturbation and sampled diagnostics")
    p.add_argument("--verbose", action="store_true", help="log progress")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyelast",
        description="Locking-free polyhedral solver for linear elasticity "
                    "with face-bubble enrichment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one case on one mesh")
    p_solve.add_argument("--case", required=True,
                         choices=["example1", "example2", "example3", "affine"])
    p_solve.add_argument("--mesh", required=True,
                         help="mesh source: hex:N, tet:N[:perturb], or file path")
    p_solve.add_argument("--lambda", dest="lambdas", required=True,
                         help="Lame lambda (single value for solve)")
    p_solve.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_solve.add_argument("--vtk", default=None, help="write the solution as VTK")
    _add_common_flags(p_solve)

    p_conv = sub.add_parser("convergence", help="run a refinement study")
    p_conv.add_argument("--case", required=True,
                        choices=["example1", "example2", "example3", "affine"])
    p_conv.add_argument("--mesh-series", required=True,
                        help="comma list of mesh sources (kind:n or file paths)")
    p_conv.add_argument("--lambda", dest="lambdas", required=True,
                        help="comma list of lambda values")
    p_conv.add_argument("--out", default=None, help="CSV output path (default stdout)")
    _add_common_flags(p_conv)

    p_check = sub.add_parser("check", help="run the invariant/diagnostic suite")
    p_check.add_argument("--mesh", required=True,
                         help="mesh source: hex:N, tet:N[:perturb], or file path")
    _add_common_flags(p_check)
    return parser


def _parse_lambdas(text: str, parser: argparse.ArgumentParser) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"malformed --lambda list: {text!r}")
    if not values:
        parser.error("--lambda list must be non-empty")
    return values


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iterations=args.max_iters)


def _cmd_solve(args, parser) -> int:
    lambdas = _parse_lambdas(args.lambdas, parser)
    if len(lambdas) != 1:
        parser.error("solve expects exactly one --lambda value")
    lam = lambdas[0]
    source = parse_mesh_source(args.mesh)
    mesh = source.build(seed=args.seed)
    case = manufactured_case(args.case, lam=lam, mu=args.mu, mu1=args.mu1)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, bubbles_enabled=not args.no_bubbles,
                    dirichlet_faces=bcs.dirichlet_faces)
    start = time.perf_counter()
    system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
    result = solve_spd(system, _solver_config(args))
    reference = interpolate(mesh, dofmap, case.displacement)
    err = relative_error(mesh, result.function, reference, case.strain)
    seconds = time.perf_counter() - start
    record = ConvergenceRecord(
        case=args.case, mesh_kind=source.kind, n=source.n, h=float(mesh.h),
        lam=lam, mu=args.mu, bubbles=not args.no_bubbles,
        n_dofs=int(dofmap.total_dofs), error_rel=err, rate=None,
        cg_iters=result.iterations, seconds=seconds,
    )
    provenance = default_provenance(args.case, [args.mesh], [lam],
                                    not args.no_bubbles, args.seed,
                                    _solver_config(args))
    text = format_records_csv([record], provenance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.vtk:
        ops = ReconstructionOperators(mesh)
        values = result.function.values
        write_vtk(args.vtk, mesh,
                  point_vectors={"displacement": result.function.vertex_values()},
                  cell_scalars={"div_D": ops.divergence @ values,
                                "displacement_magnitude": np.linalg.norm(
                                    (ops.mean @ values).reshape(-1, 3), axis=1)})
    return 0


def _cmd_convergence(args, parser) -> int:
    lambdas = _parse_lambdas(args.lambdas, parser)
    specs = [s for s in args.mesh_series.split(",") if s.strip()]
    if not specs:
        parser.error("--mesh-series must list at least one mesh")
    try:
        sources = [parse_mesh_source(s, i) for i, s in enumerate(specs)]
    except ValueError as exc:
        parser.error(str(exc))
    provenance = default_provenance(args.case, specs, lambdas,
                                    not args.no_bubbles, args.seed,
                                    _solver_config(args))
    records = run_convergence_study(
        args.case, sources, lambdas, mu=args.mu, mu1=args.mu1,
        bubbles=not args.no_bubbles, solver_config=_solver_config(args),
        seed=args.seed,
    )
    text = format_records_csv(records, provenance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def run_check_suite(mesh, seed: int = DEFAULT_SEED) -> list[tuple[str, bool, str]]:
    """Invariant and diagnostic checks for one mesh; returns
    (name, passed, detail) triples."""
    results = []

    report = validate_mesh(mesh)
    detail = "no violations" if report.ok else report.violations[0]
    results.append(("mesh invariants", report.ok, detail))

    worst = report.proxies["weight_deviation_max"]
    ok = worst <= 1e-12 and report.proxies["weight_min"] >= 0
    results.append(("weight identities", bool(ok), f"max deviation {worst:.2e}"))

    dofmap = DofMap(mesh)
    rng = np.random.default_rng(seed)
    func = DiscreteFunction(dofmap, rng.standard_normal(dofmap.vector_size))
    average, gradient = face_reconstructions(mesh, func)
    integrals = _integrals(mesh, "face", 4, lambda points, at: average[at] + np.einsum(
        "pij,pj->pi", gradient[at], points - mesh.face_centroid[at]))
    deviation = np.linalg.norm(integrals / mesh.face_area[:, None] - average, axis=1)
    worst = float(deviation.max(initial=0.0))
    results.append(("face mean property", worst <= 1e-12,
                    f"max deviation {worst:.2e}"))

    divergence = ReconstructionOperators(mesh).divergence
    ident = interpolate(mesh, dofmap, lambda p: p)
    worst = np.abs(divergence @ ident.values - 3.0).max()
    sinus = interpolate(mesh, dofmap, lambda p: np.column_stack([
        -2.0 * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]) * np.cos(np.pi * p[:, 2]),
        np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * np.cos(np.pi * p[:, 2]),
        np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]) * np.sin(np.pi * p[:, 2]),
    ]))
    worst2 = np.abs(divergence @ sinus.values).max()
    ok = worst <= 1e-12 * 3.0 and worst2 <= 1e-10
    results.append(("divergence commutation", bool(ok),
                    f"identity {worst:.2e}, solenoidal {worst2:.2e}"))

    case = manufactured_case("affine", lam=1.0)
    bcs = case.boundary_conditions(mesh)
    dm = DofMap(mesh, dirichlet_faces=bcs.dirichlet_faces)
    try:
        system = assemble(mesh, dm, case.material, bcs, case.body_force)
        result = solve_spd(system, SolverConfig(tol=1e-13))
        reference = interpolate(mesh, dm, case.displacement)
        err = relative_error(mesh, result.function, reference, case.strain)
        s_energy = stabilization_energy(mesh, result.function)
        ok = err <= 1e-9 and s_energy <= 1e-18
        results.append(("patch test", bool(ok),
                        f"error {err:.2e}, stabilization {s_energy:.2e}"))
    except (AssemblyError, SolverError) as exc:
        results.append(("patch test", False, str(exc)))

    try:
        stats = korn_ratio(mesh, dofmap, sample_count=16, seed=seed)
        ok = np.isfinite(stats.max_ratio) and stats.max_ratio >= 1.0 - 1e-12
        results.append(("korn ratio", bool(ok),
                        f"max {stats.max_ratio:.4f}, mean {stats.mean_ratio:.4f}"))
    except ArithmeticError as exc:
        results.append(("korn ratio", False, str(exc)))
    return results


def _cmd_check(args, parser) -> int:
    source = parse_mesh_source(args.mesh)
    mesh = source.build(seed=args.seed)
    results = run_check_suite(mesh, seed=args.seed)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        all_ok &= ok
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "solve":
            return _cmd_solve(args, parser)
        if args.command == "convergence":
            return _cmd_convergence(args, parser)
        if args.command == "check":
            return _cmd_check(args, parser)
    except (MeshError, AssemblyError, SolverError, ValueError,
            ZeroDivisionError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
