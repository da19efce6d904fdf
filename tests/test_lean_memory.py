"""One copy of A0 and a lean build.  The lambda split keeps only the blocks
its reductions read, cut from A0 and D in runs of rows, and forms the mixed
matrix directly in CSR, entry for entry what `sp.bmat` makes of the same
blocks; no unconstrained matrix outlives the split.  D is built over runs of
cells, the mesh build releases its temporaries as it goes, and a study keeps
only the two solutions its warm start reads.  Each memory bound is taken by
tracemalloc against the bytes the step returns."""

import gc
import logging
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp

from polyelast import analysis, assembly
from polyelast.analysis import MeshSource, manufactured_case, run_convergence_study
from polyelast.assembly import (
    LambdaSplit,
    assemble,
    assemble_matrix,
    assemble_split,
    divergence_operator,
)
from polyelast.mesh import generate_structured_mesh, parse_polymesh
from polyelast.solver import solve_spd
from polyelast.space import DofMap, MaterialParams
from test_convex_weights import jittered_prisms_text
from test_polyhedral import merged_hex_text, pentagonal_prism_text

MESHES = {
    "hex:3": lambda: generate_structured_mesh("hex", 3),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
    "pentagonal-prism": lambda: parse_polymesh(pentagonal_prism_text()),
}


def csr_bytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def traced_peak(build):
    """The result of `build()`, the peak of the memory traced while it ran
    and the memory it left allocated, in bytes."""
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


def case_setup(mesh, bubbles=True):
    case = manufactured_case("example2", lam=1e6)
    bcs = case.boundary_conditions(mesh)
    return case, bcs, DofMap(mesh, bubbles_enabled=bubbles, dirichlet_faces=bcs.dirichlet_faces)


def same_csr(a, b):
    return a.shape == b.shape and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("indptr", "indices", "data"))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_the_split_blocks_equal_the_bmat_oracle(name):
    mesh = MESHES[name]()
    case, _, dofmap = case_setup(mesh)
    a0 = assemble_matrix(mesh, dofmap, MaterialParams(mu=case.material.mu, lam=0.0))
    d = divergence_operator(mesh)
    free, constrained = dofmap.free_indices, dofmap.constrained_indices
    weighted = (sp.diags(mesh.cell_volume) @ d[:, free]).tocsr()
    oracle = sp.bmat([[a0[free][:, free], weighted.T], [weighted, None]], format="csr")
    split = assemble_split(mesh, dofmap, case.material)
    assert same_csr(split.mixed, oracle)
    assert same_csr(split.a0_fc, a0[free][:, constrained].tocsr())
    assert same_csr(split.divergence, d[:, free].tocsr())
    assert same_csr(split.divergence_c, d[:, constrained].tocsr())
    assert split.assembled_nnz == (a0.nnz, d.nnz)
    ablation = assemble_split(mesh, case_setup(mesh, bubbles=False)[2], case.material)
    free = ablation.free
    assert ablation.mixed is None
    assert same_csr(ablation.a0_ff, a0[free][:, free].tocsr())


def sparse_reachable(root):
    """The sparse matrices reachable from `root` through containers,
    instances and closures (not through modules, classes or globals)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, str, bytes, np.ndarray)):
            continue
        seen.add(id(obj))
        if sp.issparse(obj):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_no_unconstrained_matrix_outlives_the_split():
    mesh = generate_structured_mesh("tet", 4, perturb=0.3)
    case, bcs, dofmap = case_setup(mesh)
    system = assemble(mesh, dofmap, case.material, bcs, case.body_force)
    solve_spd(system)
    n = dofmap.vector_size
    shapes = [m.shape for m in sparse_reachable(system)]
    assert shapes  # the walk reaches the split's blocks
    assert all(n not in shape for shape in shapes), shapes
    # only reading the unconstrained matrix re-assembles it
    assert system.full_matrix.shape == (n, n)


def test_cutting_the_split_stays_near_what_it_keeps():
    mesh = generate_structured_mesh("tet", 10)
    case, _, dofmap = case_setup(mesh)
    a0 = assemble_matrix(mesh, dofmap, MaterialParams(mu=case.material.mu, lam=0.0))
    d = divergence_operator(mesh)
    split, peak, _ = traced_peak(
        lambda: LambdaSplit.build(a0, d, mesh.cell_volume, case.material.mu, dofmap))
    kept = sum(map(csr_bytes, (split.mixed, split.a0_fc, split.divergence, split.divergence_c)))
    assert peak <= 1.5 * kept, (peak, kept)


def test_divergence_operator_stays_near_its_bytes():
    mesh = generate_structured_mesh("tet", 16)
    d, peak, _ = traced_peak(lambda: divergence_operator(mesh))
    assert peak <= 1.5 * csr_bytes(d), (peak, csr_bytes(d))


@pytest.mark.parametrize("build", [
    lambda: generate_structured_mesh("tet", 10),
    lambda text=jittered_prisms_text(6, 0.3, 7): parse_polymesh(text),
], ids=["tet:10", "prisms-6"])
def test_mesh_build_stays_near_the_arrays_it_keeps(build):
    mesh, peak, retained = traced_peak(build)
    arrays = sum(v.nbytes for v in vars(mesh).values() if isinstance(v, np.ndarray))
    assert retained <= 1.05 * arrays  # what stays is the mesh's own arrays
    assert peak <= 2.0 * retained, (peak, retained)


def test_a_study_keeps_two_solutions_for_the_warm_start(monkeypatch):
    lengths = []
    warm_start = analysis._warm_start

    def spy(solved, t):
        lengths.append(len(solved))
        return warm_start(solved, t)

    monkeypatch.setattr(analysis, "_warm_start", spy)
    run_convergence_study("example2", [MeshSource("tet", 2)], [1.0, 1e2, 1e4, 1e6, 1e8])
    assert lengths == [0, 1, 2, 2, 2]


def test_the_split_log_lines_carry_the_counts_and_the_peak(caplog, monkeypatch):
    mesh = generate_structured_mesh("tet", 2)
    case, _, dofmap = case_setup(mesh)
    nnz = assemble_matrix(mesh, dofmap, MaterialParams(mu=case.material.mu, lam=0.0)).nnz
    with caplog.at_level(logging.INFO, logger="polyelast.analysis"):
        run_convergence_study("example2", [MeshSource("tet", 2)], [1.0, 1e6])
        monkeypatch.setattr(analysis, "resource", None)  # a platform without it
        run_convergence_study("example2", [MeshSource("tet", 2)], [1.0, 1e6])
    lines = [r.getMessage() for r in caplog.records
             if "lambda split built" in r.getMessage() or "lambda-free" in r.getMessage()]
    assert len(lines) == 4
    assert all(f"nnz A0={nnz} D={divergence_operator(mesh).nnz}, K=D^T W D" in line
               for line in lines[::2])
    for line in lines[:2]:
        assert float(line.split("peak RSS ")[1].removesuffix(" MB")) > 0.0
    assert not any("peak RSS" in line for line in lines[2:])
