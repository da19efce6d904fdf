"""Locking-free nodal solver for linear elasticity on 3D polyhedral meshes.

The discrete space carries vertex displacements plus one scalar bubble per
face; the bubble enriches the discrete divergence so the method stays
accurate up to the quasi-incompressible limit.
"""

from .analysis import (
    ConvergenceRecord,
    DiscreteNorms,
    KornStats,
    ManufacturedCase,
    MeshSource,
    adjoint_residual,
    compute_rate,
    consistency_error,
    discrete_norms,
    format_records_csv,
    korn_ratio,
    manufactured_case,
    parse_mesh_source,
    relative_error,
    run_convergence_study,
)
from .assembly import (
    AssemblyError,
    BoundaryConditions,
    SparseSystem,
    assemble,
    local_system,
    neumann_load,
)
from .mesh import (
    Mesh,
    MeshError,
    MeshFormatError,
    ValidationReport,
    generate_structured_mesh,
    parse_polymesh,
    validate_mesh,
    write_polymesh,
)
from .solver import SolveResult, SolverConfig, SolverError, solve_spd
from .space import (
    DiscreteFunction,
    DofMap,
    MaterialParams,
    cell_reconstructions,
    face_displacement,
    face_gradient,
    interpolate,
    stabilization_local,
    stress,
)
from .vtk_io import vtk_unstructured_grid, write_vtk

__version__ = "0.1.0"
