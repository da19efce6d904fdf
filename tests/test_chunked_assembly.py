"""Reconstruction operators built per chunk of cells, and the lambda split of
the convergence study: every sum over chunks equals the single-chunk result,
every reduced system of the study equals `assemble`'s, and the matrix
assembly holds no transient much larger than the matrix it returns."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polyelast
import polyelast.cli
from polyelast import assembly, space
from polyelast.analysis import (
    MeshSource,
    adjoint_residual,
    consistency_error,
    discrete_norms,
    korn_ratio,
    manufactured_case,
    relative_error,
    run_convergence_study,
)
from polyelast.assembly import assemble, assemble_load, assemble_matrix
from polyelast.mesh import generate_structured_mesh, parse_polymesh
from polyelast.space import (
    DiscreteFunction,
    DofMap,
    MaterialParams,
    interpolate,
    operator_chunks,
    stabilization_energy,
)
from test_polyhedral import merged_hex_text, pentagonal_prism_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
}


def chunked_quantities(mesh):
    """Everything that sums over `operator_chunks`, on fixed inputs."""
    case = manufactured_case("example2", lam=1e3, mu=1.3, mu1=0.7)
    bcs = case.boundary_conditions(mesh)
    dofmap = DofMap(mesh, dirichlet_faces=bcs.dirichlet_faces)
    reference = interpolate(mesh, dofmap, case.displacement)
    rng = np.random.default_rng(7)
    func = DiscreteFunction(dofmap, reference.values
                            + 0.1 * rng.standard_normal(dofmap.vector_size))
    norms = discrete_norms(mesh, func, case.material)
    korn = korn_ratio(mesh, DofMap(mesh, dirichlet_faces=np.zeros(mesh.n_faces, bool)), 16)
    return {
        "matrix": assemble_matrix(mesh, dofmap, case.material).toarray(),
        "load": assemble_load(mesh, dofmap, bcs, case.body_force),
        "relative_error": relative_error(mesh, func, reference, case.strain),
        "discrete_norms": [norms.h1, norms.energy, norms.eps_l2, norms.stabilization],
        "korn_ratio": [korn.max_ratio, korn.mean_ratio],
        "consistency_error": consistency_error(mesh, case.gradient, reference),
        "adjoint_residual": adjoint_residual(mesh, case.stress_field, case.body_force, func),
        "stabilization_energy": stabilization_energy(mesh, func),
    }


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("entries", [1, 1000])
def test_chunk_sums_equal_the_single_chunk_result(name, entries, monkeypatch):
    mesh = MESHES[name]()
    monkeypatch.setattr(space, "_CHUNK_ENTRIES", 1 << 40)
    assert len(list(operator_chunks(mesh))) == 1
    single = chunked_quantities(mesh)
    monkeypatch.setattr(space, "_CHUNK_ENTRIES", entries)
    chunks = [ops.cells for ops in operator_chunks(mesh)]
    assert np.array_equal(np.concatenate(chunks), np.arange(mesh.n_cells))
    if entries == 1:
        assert len(chunks) == mesh.n_cells
    chunked = chunked_quantities(mesh)
    for key, value in single.items():
        value, other = np.asarray(value), np.asarray(chunked[key])
        assert np.abs(other - value).max() <= 1e-13 * np.abs(value).max(), key


def test_chunks_are_bounded_by_their_local_matrix_entries(monkeypatch):
    mesh = generate_structured_mesh("tet", 4)  # 16 local DOFs per cell
    monkeypatch.setattr(space, "_CHUNK_ENTRIES", 100 * 16**2)
    sizes = [len(ops.cells) for ops in operator_chunks(mesh)]
    assert sizes == [100] * 3 + [mesh.n_cells - 300]


@pytest.mark.parametrize("case_name, spec", [("example2", "tet:3:0.3"),
                                             ("example3", "hex:3")])
def test_study_systems_equal_assemble(case_name, spec, monkeypatch):
    lambdas = [1.0, 1e4, 1e8]
    systems = []
    reduce_system = assembly.reduce_system

    def spy(*args):
        systems.append(reduce_system(*args))
        return systems[-1]

    monkeypatch.setattr(assembly, "reduce_system", spy)
    kind, n, perturb = (spec.split(":") + ["0"])[:3]
    source = MeshSource(kind, int(n), float(perturb))
    run_convergence_study(case_name, [source], lambdas)
    monkeypatch.undo()
    assert len(systems) == len(lambdas)
    mesh = source.build()
    for lam, system in zip(lambdas, systems):
        case = manufactured_case(case_name, lam=lam)
        bcs = case.boundary_conditions(mesh)
        dofmap = DofMap(mesh, dirichlet_faces=bcs.dirichlet_faces)
        expected = assemble(mesh, dofmap, case.material, bcs, case.body_force)
        gap = abs(system.matrix - expected.matrix).max()
        assert gap <= 1e-13 * abs(expected.matrix).max()
        assert (np.linalg.norm(system.load - expected.load)
                <= 1e-13 * np.linalg.norm(expected.load))
        assert np.array_equal(system.lifting, expected.lifting)


def test_traced_study_assembles_one_matrix_per_mesh(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched(tracing.layer_targets(polyelast)):
        assert polyelast.cli.main([
            "convergence", "--case", "example2", "--mesh-series", "tet:1,tet:2",
            "--lambda", "1,1e4,1e8", "--tol", "1e-8",
            "--out", str(tmp_path / "out.csv")]) == 0
    names = [span["name"] for span in tracer.spans]
    assert names.count("assembly.matrix") == 2
    assert names.count("assembly.reduce") == 6
    assert names.count("assembly.load") == 2  # one per mesh, both parts along a trailing axis


def test_study_logs_the_split_once_per_mesh(caplog):
    with caplog.at_level("INFO", logger="polyelast.analysis"):
        run_convergence_study("example2", [MeshSource("tet", 1), MeshSource("tet", 2)],
                              [1.0, 1e6])
    lines = [r.getMessage() for r in caplog.records if "lambda split" in r.getMessage()]
    assert len(lines) == 2
    assert all("nnz A0=" in line and " K=" in line for line in lines)


def test_matrix_assembly_memory_stays_near_the_matrix():
    mesh = generate_structured_mesh("tet", 10)  # 6,000 cells, several chunks
    assert len(list(operator_chunks(mesh))) > 4
    dofmap = DofMap(mesh)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        matrix = assemble_matrix(mesh, dofmap, MaterialParams(mu=1.0, lam=1e6))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak <= 4.0 * csr_bytes, (peak, csr_bytes)



@pytest.mark.parametrize("diagnostic", ["discrete_norms", "korn_ratio",
                                        "consistency_error"])
def test_diagnostics_do_not_walk_the_chunks(diagnostic, monkeypatch):
    mesh = MESHES["tet:3:0.3"]()
    case = manufactured_case("example2", lam=1e3)
    dofmap = DofMap(mesh)
    reference = interpolate(mesh, dofmap, case.displacement)
    walks = []
    chunks = space.operator_chunks

    def counted(*args):
        walks.append(1)
        return chunks(*args)

    monkeypatch.setattr(space, "operator_chunks", counted)
    {"discrete_norms": lambda: discrete_norms(mesh, reference, case.material),
     "korn_ratio": lambda: korn_ratio(mesh, dofmap, 4),
     "consistency_error": lambda: consistency_error(mesh, case.gradient, reference),
     }[diagnostic]()
    assert walks == []  # the cell fields are in closed form


def test_a_study_walks_the_chunks_once_per_mesh(monkeypatch):
    walks = []
    chunks = space.operator_chunks

    def counted(mesh):
        walks.append(mesh.n_cells)
        return chunks(mesh)

    monkeypatch.setattr(space, "operator_chunks", counted)
    monkeypatch.setattr(assembly, "operator_chunks", counted)
    run_convergence_study("example3", [MeshSource("tet", 2), MeshSource("tet", 3, 0.3)],
                          [1.0, 1e4, 1e8])
    assert walks == [48, 162]  # `assemble_matrix`, once per mesh
