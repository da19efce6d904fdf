"""The benchmark's three workloads: what each one runs, and the checks on its
outputs.

Each workload runs one round: it runs the `polyelast` commands it stands for
through `polyelast.cli.main`, in this process, reads the process's peak RSS,
and only then checks the outputs.  While a command runs, the benchmark
observes it from outside by routing the program's references to a few public
functions through hooks (`tracing.patch_references`): every mesh build
(`generate_structured_mesh`, `parse_polymesh`) is timed as set-up, the rest
of the command as the solve, and the results the checks need (the reduced
system, the CG result, the error evaluation, the study's records) are kept.

The checks compare against computations made apart from the program (a
scipy direct solve, shoelace areas, an independent VTK reader) or against
properties the method must have (lambda-robustness).  Every check belongs to
one operation; an operation fails when any of its checks fails.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import polyelast as pe
import polyelast.cli  # noqa: F401  (the commands live in the CLI module)

from tracing import patch_references, peak_rss_mb
from vtkread import read_vtk

CASE = "example2"
# the fixed CSV schema (criterion 10), kept here apart from the program's copy
CSV_SCHEMA = "case,mesh_kind,n,h,lambda,mu,bubbles,n_dofs,error_rel,rate,cg_iters,seconds"
# CG and direct-solve error_rel must agree to criterion 3's resolution
AGREEMENT_RTOL = 1e-3
# with bubbles, error_rel may move by this much (relative) between
# lambda = 1e4 and any larger lambda: the paper's lambda-robustness
ROBUST_RTOL = 1e-3
ROBUST_FROM = 1e4

# cold-solve: `polyelast solve --case example2 --mesh tet:9 --lambda 1e6`
COLD_N = 9
COLD_LAMBDA = 1e6

# lambda-sweep: `polyelast convergence --case example2 --mesh-series tet:6:0.3
# --lambda 1,1e2,1e4,1e6,1e8 --tol 1e-8 --seed 12345`, with and without
# bubbles.  The mesh does not depend on the benchmark seed: the known fault
# below must fail on the same inputs in every run.
SWEEP_N = 6
SWEEP_PERTURB = 0.3
SWEEP_MESH_SEED = 12345
SWEEP_LAMBDAS = (1.0, 1e2, 1e4, 1e6, 1e8)
SWEEP_TOL = 1e-8

# polytopal: prisms over a jittered quadrilateral grid, handed over as a
# POLYMESH file; the benchmark seed drives the jitter and Korn sampling
PRISM_N = 12
PRISM_JITTER = 0.3
PRISM_LAMBDA = 1e6

# operations that fail on every run because of a fault the program has
KNOWN_FAULTS = {
    "lambda-sweep:bubbles=on:lambda=1e+08":
        "solve_spd stops CG on the residual alone, which does not bound the "
        "solution error at large lambda",
}


@dataclass
class Op:
    id: str
    failures: list = field(default_factory=list)

    def check(self, ok, what: str):
        if not ok:
            self.failures.append(what)

    def summary(self) -> dict:
        return {"id": self.id, "ok": not self.failures,
                "known_fault": self.id in KNOWN_FAULTS,
                "detail": "; ".join(self.failures)}


@dataclass
class Round:
    setup_s: list = field(default_factory=list)
    solve_s: float = 0.0
    peak_rss_mb: float = 0.0
    ops: list = field(default_factory=list)
    # per operation, the values a repeated round must reproduce exactly
    outputs: dict = field(default_factory=dict)


# -- running a command ----------------------------------------------------------


class Command:
    """One `polyelast` command run through `cli.main`, with what the
    benchmark saw of it: exit code, standard output, mesh build times and,
    for the functions named in `keep`, the results of their last call."""

    def __init__(self, keep: tuple[str, ...] = ()):
        # names of the functions whose results to keep; a command keeps only
        # what its checks read, so nothing else outlives the call it came from
        self.keep = keep
        self.code = None
        self.stdout = ""
        self.setup_s: list[float] = []
        self.system = self.result = None
        self.error_args = None  # (mesh, function, reference, strain)
        self.error = math.nan
        self.records = None

    def _timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        mesh = fn(*args, **kwargs)
        self.setup_s.append(time.perf_counter() - start)
        return mesh

    def _solve(self, fn, system, *args, **kwargs):
        result = fn(system, *args, **kwargs)
        self.system, self.result = system, result
        return result

    def _relative_error(self, fn, *args, **kwargs):
        error = fn(*args, **kwargs)
        self.error_args, self.error = args[:4], error
        return error

    def _study(self, fn, *args, **kwargs):
        self.records = fn(*args, **kwargs)
        return self.records

    def run(self, round_: Round, argv: list[str]) -> "Command":
        hooks = {(pe.mesh, "generate_structured_mesh"): self._timed,
                 (pe.mesh, "parse_polymesh"): self._timed}
        keepers = {"solve_spd": ((pe.solver, "solve_spd"), self._solve),
                   "relative_error": ((pe.analysis, "relative_error"),
                                      self._relative_error),
                   "run_convergence_study": ((pe.analysis, "run_convergence_study"),
                                             self._study)}
        hooks.update(keepers[name] for name in self.keep)
        stdout = io.StringIO()
        with patch_references(hooks), redirect_stdout(stdout):
            start = time.perf_counter()
            self.code = pe.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.stdout = stdout.getvalue()
        round_.setup_s.extend(self.setup_s)
        round_.solve_s += elapsed - sum(self.setup_s)
        return self


# -- the workloads --------------------------------------------------------------

# what a `polyelast solve` keeps for its checks: the reduced system and CG
# result, and the mesh, reference and value of its error evaluation
SOLVE_RESULTS = ("solve_spd", "relative_error")


def cold_solve(seed: int, out: Path, check: bool) -> Round:
    round_ = Round()
    csv_path = out / "cold-solve.csv"
    cmd = Command(SOLVE_RESULTS).run(round_, [
        "solve", "--case", CASE, "--mesh", f"tet:{COLD_N}",
        "--lambda", f"{COLD_LAMBDA:g}", "--out", str(csv_path)])
    round_.peak_rss_mb = peak_rss_mb()

    op = Op(f"cold-solve:tet:{COLD_N}:lambda={COLD_LAMBDA:g}")
    round_.outputs[op.id] = [cmd.code, cmd.error, iterations(cmd)]
    if check:
        check_solve(op, cmd, csv_path, "tet", COLD_N, COLD_LAMBDA)
    round_.ops.append(op)
    return round_


def lambda_sweep(seed: int, out: Path, check: bool) -> Round:
    round_ = Round()
    studies = {}
    # one `polyelast convergence` per bubble setting, each building its mesh
    for bubbles in (True, False):
        csv_path = out / f"lambda-sweep-bubbles-{'on' if bubbles else 'off'}.csv"
        argv = ["convergence", "--case", CASE,
                "--mesh-series", f"tet:{SWEEP_N}:{SWEEP_PERTURB:g}",
                "--lambda", ",".join(f"{lam:g}" for lam in SWEEP_LAMBDAS),
                "--tol", f"{SWEEP_TOL:g}", "--seed", str(SWEEP_MESH_SEED),
                "--out", str(csv_path)] + ([] if bubbles else ["--no-bubbles"])
        studies[bubbles] = (Command(("run_convergence_study",)).run(round_, argv),
                            csv_path)
    round_.peak_rss_mb = peak_rss_mb()

    for bubbles, (cmd, csv_path) in studies.items():
        ops = [Op(f"lambda-sweep:bubbles={'on' if bubbles else 'off'}:lambda={lam:g}")
               for lam in SWEEP_LAMBDAS]
        records = cmd.records or []
        for k, op in enumerate(ops):
            rec = records[k] if k < len(records) else None
            round_.outputs[op.id] = [cmd.code] + (
                [rec.error_rel, rec.cg_iters] if rec else [])
        if check:
            check_sweep(ops, cmd, bubbles, csv_path)
        round_.ops.extend(ops)
    return round_


def polytopal(seed: int, out: Path, check: bool) -> Round:
    round_ = Round()
    text, bases = prism_polymesh(PRISM_N, PRISM_JITTER, seed)
    mesh_path = out / "prisms.polymesh"
    mesh_path.write_text(text, encoding="utf-8")
    csv_path, vtk_path = out / "polytopal.csv", out / "polytopal.vtk"
    # `polyelast check` then `polyelast solve --vtk` on the user's file
    suite = Command().run(
        round_, ["check", "--mesh", str(mesh_path), "--seed", str(seed)])
    cmd = Command(SOLVE_RESULTS).run(round_, [
        "solve", "--case", CASE, "--mesh", str(mesh_path),
        "--lambda", f"{PRISM_LAMBDA:g}", "--seed", str(seed),
        "--out", str(csv_path), "--vtk", str(vtk_path)])
    round_.peak_rss_mb = peak_rss_mb()

    ops = {name: Op(f"polytopal:{name}")
           for name in ("parse", "check-suite", "solve", "vtk")}
    # the verdict of every check-suite line, without its measured detail
    verdicts = [line.split(":")[0] for line in suite.stdout.splitlines()]
    round_.outputs[ops["check-suite"].id] = [suite.code, verdicts]
    round_.outputs[ops["solve"].id] = [cmd.code, cmd.error, iterations(cmd)]
    if check:
        mesh = cmd.error_args[0] if cmd.error_args else None
        op = ops["parse"]
        op.check(len(suite.setup_s) == 1 and len(cmd.setup_s) == 1,
                 f"check and solve parsed {len(suite.setup_s)} and "
                 f"{len(cmd.setup_s)} meshes, expected one each")
        if mesh is None:
            op.check(False, "the solve evaluated no error, so its mesh is unknown")
        else:
            check_prisms(op, mesh, text, bases)
        op = ops["check-suite"]
        op.check(suite.code == 0, f"polyelast check exited with {suite.code}")
        op.check(len(verdicts) > 0, "check suite printed no lines")
        for line in suite.stdout.splitlines():
            op.check(line.startswith("PASS "), f"check-suite line {line!r}")
        check_solve(ops["solve"], cmd, csv_path, "file", 1, PRISM_LAMBDA)
        if mesh is not None:
            check_vtk(ops["vtk"], mesh, cmd, vtk_path)
        else:
            ops["vtk"].check(False, "no solved mesh to compare the VTK file with")
    round_.ops.extend(ops.values())
    return round_


RUNNERS = {"cold-solve": cold_solve, "lambda-sweep": lambda_sweep,
           "polytopal": polytopal}


def iterations(cmd: Command):
    return cmd.result.iterations if cmd.result is not None else None


# -- inputs -------------------------------------------------------------------


def prism_polymesh(n: int, jitter: float, seed: int):
    """POLYMESH text of n^3 prisms: an n x n quadrilateral grid of the unit
    square, interior nodes jittered by up to jitter/(2n) per component,
    extruded through n layers of height 1/n.  Also returns the (n*n, 4, 2)
    base quadrilaterals, in cell order within a layer."""
    rng = np.random.default_rng(seed)
    side = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(side, side, indexing="xy")
    xy = np.column_stack([gx.ravel(), gy.ravel()])  # node i + (n+1)*j
    interior = np.all((xy > 0.0) & (xy < 1.0), axis=1)
    delta = jitter / (2.0 * n)
    xy[interior] += rng.uniform(-delta, delta, size=(int(interior.sum()), 2))

    def node(i, j):
        return i + (n + 1) * j

    quads = [[node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1)]
             for j in range(n) for i in range(n)]  # counterclockwise
    edges = {}
    for quad in quads:
        for a, b in zip(quad, quad[1:] + quad[:1]):
            edges.setdefault((min(a, b), max(a, b)), len(edges))
    per_level = (n + 1) ** 2

    lines = ["POLYMESH 1"]
    n_faces = (n + 1) * len(quads) + n * len(edges)
    lines.append(f"{per_level * (n + 1)} {n_faces} {n * len(quads)}")
    for k in range(n + 1):
        z = k / n
        lines.extend(f"{x:.17g} {y:.17g} {z:.17g}" for x, y in xy)
    # horizontal faces, normal +z: level k, quad q -> face k*len(quads) + q
    for k in range(n + 1):
        for quad in quads:
            lines.append("4 " + " ".join(str(v + k * per_level) for v in quad))
    # vertical faces over edge (a, b), a < b, layer k: normal is (b - a) x z
    first_vertical = (n + 1) * len(quads)
    for k in range(n):
        lo, hi = k * per_level, (k + 1) * per_level
        for a, b in edges:
            lines.append(f"4 {a + lo} {b + lo} {b + hi} {a + hi}")
    for k in range(n):
        for q, quad in enumerate(quads):
            ids = [-(k * len(quads) + q + 1), (k + 1) * len(quads) + q + 1]
            for a, b in zip(quad, quad[1:] + quad[:1]):
                # a counterclockwise edge a -> b has its outward normal along
                # (b - a) x z, the normal of the face stored as (a, b)
                fid = first_vertical + k * len(edges) + edges[(min(a, b), max(a, b))]
                ids.append(fid + 1 if a < b else -(fid + 1))
            lines.append("6 " + " ".join(str(v) for v in ids))
    bases = xy[np.array(quads)]
    return "\n".join(lines) + "\n", bases


# -- checks -------------------------------------------------------------------


def direct_error(mesh, system, reference, strain) -> float:
    """error_rel of a sparse direct solve of the same reduced system."""
    lu = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    values = system.lifting.copy()
    values[system.free_indices] = lu.solve(system.load)
    func = pe.space.DiscreteFunction(system.dofmap, values)
    return pe.analysis.relative_error(mesh, func, reference, strain)


def check_direct(op: Op, mesh, system, reference, strain, error: float):
    direct = direct_error(mesh, system, reference, strain)
    gap = abs(error - direct) / direct
    op.check(math.isfinite(error) and gap <= AGREEMENT_RTOL,
             f"error_rel {error:.6e} against {direct:.6e} from a direct solve "
             f"({gap:.2e} relative, bound {AGREEMENT_RTOL:g})")


def check_solve(op: Op, cmd: Command, csv_path: Path, kind: str, n: int,
                lam: float):
    """A `polyelast solve` exited 0, its CG solution agrees with a direct
    solve of the system it solved, and its CSV reports the solve."""
    op.check(cmd.code == 0, f"polyelast solve exited with {cmd.code}")
    if cmd.result is None or cmd.error_args is None or len(cmd.error_args) < 4:
        op.check(False, "the solve made no CG solve or error evaluation")
        return
    mesh, _, reference, strain = cmd.error_args
    check_direct(op, mesh, cmd.system, reference, strain, cmd.error)
    check_csv(op, csv_path, 1, 0, kind, n, lam, True, cmd.error,
              cmd.result.iterations)


def check_csv(op: Op, path: Path, n_rows: int, index: int, kind: str, n: int,
              lam: float, bubbles: bool, error: float, iters: int):
    """The file has the provenance line, the fixed header and n_rows rows;
    row `index` reports this operation's solve."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        op.check(False, f"CSV unreadable: {exc}")
        return
    op.check(lines[:1] and lines[0].startswith("# "), "CSV lacks its provenance line")
    op.check(lines[1:2] == [CSV_SCHEMA], f"CSV header {lines[1:2]} is not the fixed schema")
    if len(lines) != 2 + n_rows:
        op.check(False, f"CSV has {len(lines)} lines, expected {2 + n_rows}")
        return
    line = lines[2 + index]
    row = dict(zip(CSV_SCHEMA.split(","), line.split(",")))
    try:
        ok = (row["case"] == CASE and row["mesh_kind"] == kind
              and row["n"] == str(n) and float(row["lambda"]) == lam
              and row["bubbles"] == ("on" if bubbles else "off")
              and abs(float(row["error_rel"]) - error) <= 5e-6 * abs(error)
              and int(row["cg_iters"]) == iters)
    except (KeyError, ValueError):
        ok = False
    op.check(ok, f"CSV row {line!r} does not match the solve")


def check_sweep(ops, cmd: Command, bubbles: bool, csv_path: Path):
    """Rebuild the study's mesh and reduced systems with the calls the study
    makes, solve them directly, and check lambda-robustness and the CSV."""
    records = cmd.records or []
    if cmd.code != 0 or len(records) != len(SWEEP_LAMBDAS):
        for op in ops:
            op.check(False, f"polyelast convergence exited with {cmd.code} and "
                            f"{len(records)} records")
        return
    # the generator is deterministic for a fixed seed: this is bitwise the
    # mesh the study built
    mesh = pe.mesh.generate_structured_mesh("tet", SWEEP_N, perturb=SWEEP_PERTURB,
                                            seed=SWEEP_MESH_SEED)
    tags = pe.analysis.case_dirichlet_tagger(CASE)(mesh)
    dofmap = pe.space.DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=tags)
    mat_zero = pe.assembly.assemble_matrix(mesh, dofmap,
                                           pe.space.MaterialParams(mu=1.0, lam=0.0))
    mat_div = (pe.assembly.assemble_matrix(mesh, dofmap,
                                           pe.space.MaterialParams(mu=1.0, lam=1.0))
               - mat_zero).tocsr()
    robust_base = records[SWEEP_LAMBDAS.index(ROBUST_FROM)].error_rel
    for op, lam, rec in zip(ops, SWEEP_LAMBDAS, records):
        case = pe.analysis.manufactured_case(CASE, lam=lam)
        bcs = case.boundary_conditions(mesh)
        system = pe.assembly.reduce_system(
            (mat_zero + lam * mat_div).tocsr(),
            pe.assembly.assemble_load(mesh, dofmap, bcs, case.body_force),
            pe.assembly.dirichlet_lifting(mesh, dofmap, bcs), dofmap)
        reference = pe.space.interpolate(mesh, dofmap, case.displacement)
        check_direct(op, mesh, system, reference, case.strain, rec.error_rel)
        if bubbles and lam >= ROBUST_FROM:
            drift = abs(rec.error_rel - robust_base) / robust_base
            op.check(drift <= ROBUST_RTOL,
                     f"error_rel {rec.error_rel:.6e} drifts {drift:.2e} from "
                     f"{robust_base:.6e} at lambda={ROBUST_FROM:g} "
                     f"(bound {ROBUST_RTOL:g})")
        check_csv(op, csv_path, len(SWEEP_LAMBDAS), SWEEP_LAMBDAS.index(lam), "tet",
                  SWEEP_N, lam, bubbles, rec.error_rel, rec.cg_iters)


def shoelace_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def check_prisms(op: Op, mesh, text: str, bases: np.ndarray):
    n = PRISM_N
    op.check((mesh.n_vertices, mesh.n_faces, mesh.n_cells)
             == ((n + 1) ** 3, (n + 1) * n * n + 2 * n * n * (n + 1), n ** 3),
             f"counts {(mesh.n_vertices, mesh.n_faces, mesh.n_cells)}")
    expected = np.tile([shoelace_area(b) / n for b in bases], n)
    if len(expected) == mesh.n_cells:
        gap = np.abs(mesh.cell_volume - expected).max() / expected.min()
        op.check(gap <= 1e-12, f"prism volumes off base area x height by {gap:.2e}")
    total = float(np.sum(mesh.cell_volume))
    op.check(abs(total - 1.0) <= 1e-12, f"volumes sum to {total!r}, not 1")
    op.check(pe.mesh.write_polymesh(mesh) == text,
             "write_polymesh does not reproduce the POLYMESH text")


def check_vtk(op: Op, mesh, cmd: Command, vtk_path: Path):
    try:
        data = read_vtk(str(vtk_path))
    except (OSError, ValueError, IndexError) as exc:
        op.check(False, f"VTK file unreadable: {exc}")
        return
    op.check(data["points"].shape == (mesh.n_vertices, 3),
             f"VTK has {len(data['points'])} points, mesh {mesh.n_vertices}")
    op.check(len(data["cells"]) == mesh.n_cells and data["types"] == [42] * mesh.n_cells,
             f"VTK has {len(data['cells'])} cells, mesh {mesh.n_cells}")
    op.check(all(len(faces) == 6 and all(len(loop) == 4 for loop in faces)
                 for faces in data["cells"]), "VTK prism cells are not 6 quads")
    disp = data["point_vectors"].get("displacement")
    exact = cmd.result.function.vertex_values()
    op.check(disp is not None and disp.shape == exact.shape
             and np.abs(disp - exact).max() <= 1e-15 * np.abs(exact).max(),
             "VTK displacement differs from the solution")
    div = data["cell_scalars"].get("div_D")
    op.check(div is not None and div.shape == (mesh.n_cells,)
             and bool(np.isfinite(div).all()), "VTK lacks a finite div_D field")
