"""Legacy-ASCII VTK output with polyhedral cells (face-stream, cell type 42)."""

from __future__ import annotations

import io

import numpy as np

from .mesh import Mesh, _counted_text, _table, row_entries

VTK_POLYHEDRON = 42


def vtk_unstructured_grid(mesh: Mesh,
                          point_vectors: dict[str, np.ndarray] | None = None,
                          cell_scalars: dict[str, np.ndarray] | None = None,
                          title: str = "polyelast output") -> str:
    """Serialize a mesh plus fields as a legacy VTK unstructured grid.

    Every cell is written as a VTK_POLYHEDRON with face-stream connectivity:
    the entry for a cell is  [n_ints, n_faces, n_pts_0, ids..., n_pts_1, ...].
    """
    out = io.StringIO()
    out.write("# vtk DataFile Version 2.0\n")
    out.write(f"{title}\n")
    out.write("ASCII\n")
    out.write("DATASET UNSTRUCTURED_GRID\n")
    out.write(f"POINTS {mesh.n_vertices} double\n" + _table(mesh.positions, "%.16g"))

    # per cell: its face count, then per face the loop size and the loop
    entries, _ = row_entries(mesh.face_loop_offsets, mesh.cell_face_ids)
    sizes = np.diff(mesh.face_loop_offsets)[mesh.cell_face_ids]
    stream = np.insert(mesh.face_loop_vertices[entries], np.cumsum(sizes) - sizes, sizes)
    starts = np.concatenate([[0], np.cumsum(sizes + 1)])[mesh.cell_face_offsets]
    stream = np.insert(stream, starts[:-1], np.diff(mesh.cell_face_offsets))
    offsets = starts + np.arange(len(starts))
    out.write(f"CELLS {mesh.n_cells} {len(stream) + mesh.n_cells}\n"
              + _counted_text(stream, offsets))
    out.write(f"CELL_TYPES {mesh.n_cells}\n" + f"{VTK_POLYHEDRON}\n" * mesh.n_cells)

    if point_vectors:
        out.write(f"POINT_DATA {mesh.n_vertices}\n")
        for name, data in point_vectors.items():
            data = np.asarray(data, dtype=float)
            if data.shape != (mesh.n_vertices, 3):
                raise ValueError(f"point vector field {name!r} has wrong shape")
            out.write(f"VECTORS {name} double\n" + _table(data, "%.16g"))
    if cell_scalars:
        out.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, data in cell_scalars.items():
            data = np.asarray(data, dtype=float)
            if data.shape != (mesh.n_cells,):
                raise ValueError(f"cell scalar field {name!r} has wrong shape")
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                      + _table(data[:, None], "%.16g"))
    return out.getvalue()


def write_vtk(path: str, mesh: Mesh,
              point_vectors: dict[str, np.ndarray] | None = None,
              cell_scalars: dict[str, np.ndarray] | None = None,
              title: str = "polyelast output") -> None:
    text = vtk_unstructured_grid(mesh, point_vectors, cell_scalars, title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
