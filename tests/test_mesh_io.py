"""POLYMESH parsing, the per-entity row views of a mesh and the POLYMESH and
VTK writers: error messages of invalid files, rows against their CSR slices,
and the writers' text against per-entity oracles written here."""

import io
import re

import numpy as np
import pytest

from polyelast.mesh import (
    Mesh,
    MeshError,
    MeshFormatError,
    Rows,
    generate_structured_mesh,
    parse_polymesh,
    write_polymesh,
)
from polyelast.vtk_io import VTK_POLYHEDRON, vtk_unstructured_grid
from test_convex_weights import jittered_prisms_text
from test_polyhedral import merged_hex_text

# hex:2 has 27 vertices, 36 faces and 8 cells; lines of its POLYMESH text
HEX2 = write_polymesh(generate_structured_mesh("hex", 2)).splitlines()
FIRST_LINE = {"vertex": 2, "face": 2 + 27, "cell": 2 + 27 + 36}


def hex2_with(*changes):
    """hex:2 POLYMESH text with some lines replaced: (block, index, text)."""
    lines = list(HEX2)
    for block, index, text in changes:
        lines[FIRST_LINE[block] + index] = text
    return "\n".join(lines) + "\n"


def hex2_until(block, index):
    """hex:2 POLYMESH text cut before line `index` of `block`."""
    return "\n".join(HEX2[:FIRST_LINE[block] + index]) + "\n"


# two bad lines each; the lower one names the error, whatever the check
# order within a line
MALFORMED = [
    (hex2_with(("vertex", 4, "0 0"), ("vertex", 9, "x 0 0")),
     MeshFormatError, "vertex 4: expected 3 coordinates"),
    (hex2_with(("vertex", 4, "0 x 0"), ("vertex", 9, "0 0")),
     MeshFormatError, "vertex 4: malformed coordinate"),
    (hex2_with(("vertex", 4, "0.5 nan 0.5"), ("vertex", 9, "0 0")),
     MeshFormatError, "vertex 4: non-finite coordinate"),
    (hex2_with(("vertex", 4, "1e400 0 0"), ("vertex", 9, "0 -inf 0")),
     MeshFormatError, "vertex 4: non-finite coordinate"),
    (hex2_with(("face", 3, "4 0 1 x 3"), ("face", 7, "3 0 1")),
     MeshFormatError, "face 3: malformed index"),
    (hex2_with(("face", 3, "4 0 1 3"), ("face", 7, "4 0 x 1 3")),
     MeshFormatError, "face 3: count does not match vertex list"),
    (hex2_with(("face", 3, "2 0 1"), ("face", 7, "4 0 1 3")),
     MeshError, "face 3 has fewer than 3 vertices"),
    (hex2_with(("face", 3, "4 0 1 2 27"), ("face", 7, "2 0 1")),
     MeshError, "dangling index: face 3 references a missing vertex"),
    (hex2_with(("cell", 2, "6 1 2 x 4 5 6"), ("cell", 5, "6 1 2")),
     MeshFormatError, "cell 2: malformed index"),
    (hex2_with(("cell", 2, "6 1 2 3"), ("cell", 5, "6 1 x 3 4 5 6")),
     MeshFormatError, "cell 2: count does not match face list"),
    (hex2_with(("cell", 2, "3 1 2 3"), ("cell", 5, "6 1 2 3")),
     MeshError, "cell 2 has fewer than 4 faces"),
    (hex2_with(("cell", 2, "6 1 0 3 4 5 6"), ("cell", 5, "3 1 2 3")),
     MeshFormatError, "cell 2: face ids are signed and 1-based"),
    (hex2_with(("cell", 2, "6 1 2 3 4 5 -37"), ("cell", 5, "6 0 1 2 3 4 5")),
     MeshError, "dangling index: cell 2 references a missing face"),
    # within a line, the checks run in their order
    (hex2_with(("vertex", 4, "x 0"), ("vertex", 9, "0 nan x")),
     MeshFormatError, "vertex 4: expected 3 coordinates"),
    (hex2_with(("vertex", 4, "0 nan x"), ("vertex", 9, "x 0")),
     MeshFormatError, "vertex 4: malformed coordinate"),
    (hex2_with(("face", 3, "4 0 x 3"), ("face", 7, "2 0 99")),
     MeshFormatError, "face 3: malformed index"),
    (hex2_with(("face", 3, "2 0 99"), ("face", 7, "4 0 x 3")),
     MeshError, "face 3 has fewer than 3 vertices"),
    (hex2_with(("cell", 2, "3 0 1 2"), ("cell", 5, "6 0 1 2 3 4 99")),
     MeshError, "cell 2 has fewer than 4 faces"),
    (hex2_with(("cell", 2, "6 0 1 2 3 4 99"), ("cell", 5, "3 0 1 2")),
     MeshFormatError, "cell 2: face ids are signed and 1-based"),
    # an earlier block is checked first
    (hex2_with(("vertex", 20, "0 0"), ("face", 0, "2 0 1")),
     MeshFormatError, "vertex 20: expected 3 coordinates"),
    (hex2_with(("face", 30, "4 0 1 2 99"), ("cell", 0, "6 1 0 3 4 5 6")),
     MeshError, "dangling index: face 30 references a missing vertex"),
    # the end of input names the first missing entity, after the lines read
    (hex2_until("vertex", 10), MeshFormatError,
     "unexpected end of input while reading vertex 10"),
    (hex2_until("face", 5), MeshFormatError, "unexpected end of input while reading face 5"),
    (hex2_until("cell", 3), MeshFormatError, "unexpected end of input while reading cell 3"),
    ("\n".join(HEX2[:FIRST_LINE["vertex"] + 3] + ["0 0"]) + "\n",
     MeshFormatError, "vertex 3: expected 3 coordinates"),
    ("\n".join(HEX2 + ["1 2 3", "4 5 6"]) + "\n",
     MeshFormatError, "trailing content after cell list: '1 2 3'"),
]


@pytest.mark.parametrize("text,error,message", MALFORMED)
def test_parse_reports_lowest_bad_line(text, error, message):
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$") as info:
        parse_polymesh(text)
    assert type(info.value) is error


def test_parse_accepts_python_number_syntax():
    face_0 = HEX2[FIRST_LINE["face"]].replace(" ", " +")
    mesh = parse_polymesh(hex2_with(("vertex", 0, "0e0 -0.0 +0"), ("face", 0, face_0)))
    reference = generate_structured_mesh("hex", 2)
    assert np.array_equal(mesh.positions, reference.positions)
    assert np.array_equal(mesh.face_loop_vertices, reference.face_loop_vertices)
    # an iterable of lines, with comments, blank lines and tabs
    lines = ["# hex:2", ""] + [line.replace(" ", "\t") + "  # row" for line in HEX2]
    assert write_polymesh(parse_polymesh(lines)) == write_polymesh(reference)


def test_mesh_rejects_non_finite_positions():
    mesh = generate_structured_mesh("hex", 2)
    positions = mesh.positions.copy()
    positions[5, 1] = np.inf
    with pytest.raises(MeshError, match="^positions must be finite$"):
        Mesh(positions, mesh.face_loops, mesh.cell_faces, mesh.cell_signs)


MESHES = {
    "hex:2": lambda: generate_structured_mesh("hex", 2),
    "tet:3:0.3": lambda: generate_structured_mesh("tet", 3, perturb=0.3),
    "merged-hex": lambda: parse_polymesh(merged_hex_text()),
    "prisms-4": lambda: parse_polymesh(jittered_prisms_text(4, 0.3, 2)),
}

ROWS = {
    "face_loops": ("face_loop_vertices", "face_loop_offsets"),
    "face_weights": ("_face_weights", "face_loop_offsets"),
    "face_edge_lengths": ("_edge_lengths", "face_loop_offsets"),
    "face_edge_midpoints": ("_edge_midpoints", "face_loop_offsets"),
    "face_edge_normals": ("_edge_normals", "face_loop_offsets"),
    "cell_faces": ("cell_face_ids", "cell_face_offsets"),
    "cell_signs": ("cell_face_signs", "cell_face_offsets"),
    "cell_vertices": ("cell_vertex_ids", "cell_vertex_offsets"),
    "cell_weights": ("_cell_weights", "cell_vertex_offsets"),
}


@pytest.mark.parametrize("name", MESHES)
def test_rows_are_read_only_csr_slices(name):
    mesh = MESHES[name]()
    for attr, (flat_name, offsets_name) in ROWS.items():
        rows = getattr(mesh, attr)
        flat, offsets = getattr(mesh, flat_name), getattr(mesh, offsets_name)
        slices = [flat[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert isinstance(rows, Rows)
        assert len(rows) == len(offsets) - 1
        for i, expected in enumerate(slices):
            assert np.array_equal(rows[i], expected)
            assert np.array_equal(rows[np.int64(i)], expected)
        for row, expected in zip(rows, slices, strict=True):
            assert np.array_equal(row, expected)
            assert np.shares_memory(row, flat)
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[...] = 0
        assert np.array_equal(rows[-1], slices[-1])
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(TypeError):
            rows[0:2]


def test_rows_build_the_same_mesh_as_lists():
    mesh = parse_polymesh(merged_hex_text())
    again = Mesh(mesh.positions, [list(r) for r in mesh.face_loops],
                 [list(r) for r in mesh.cell_faces], [list(r) for r in mesh.cell_signs])
    for name, value in vars(mesh).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(again, name)), name


def polymesh_oracle(mesh):
    """`write_polymesh` as a loop over vertices, faces and cells."""
    out = io.StringIO()
    out.write("POLYMESH 1\n")
    out.write(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_cells}\n")
    for p in mesh.positions:
        out.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    for loop in mesh.face_loops:
        out.write(" ".join([str(len(loop))] + [str(v) for v in loop]) + "\n")
    for faces, signs in zip(mesh.cell_faces, mesh.cell_signs):
        ids = [str(int(s) * (int(f) + 1)) for f, s in zip(faces, signs)]
        out.write(" ".join([str(len(faces))] + ids) + "\n")
    return out.getvalue()


def vtk_oracle(mesh, point_vectors, cell_scalars, title):
    """`vtk_unstructured_grid` as a loop over vertices, cells and faces."""
    out = io.StringIO()
    out.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
    out.write(f"POINTS {mesh.n_vertices} double\n")
    for p in mesh.positions:
        out.write(f"{p[0]:.16g} {p[1]:.16g} {p[2]:.16g}\n")
    streams = []
    for cid in range(mesh.n_cells):
        stream = [len(mesh.cell_faces[cid])]
        for fid in mesh.cell_faces[cid]:
            loop = mesh.face_loops[fid]
            stream.append(len(loop))
            stream.extend(int(v) for v in loop)
        streams.append(stream)
    out.write(f"CELLS {mesh.n_cells} {sum(len(s) + 1 for s in streams)}\n")
    for stream in streams:
        out.write(" ".join(str(v) for v in [len(stream)] + stream) + "\n")
    out.write(f"CELL_TYPES {mesh.n_cells}\n")
    for _ in range(mesh.n_cells):
        out.write(f"{VTK_POLYHEDRON}\n")
    if point_vectors:
        out.write(f"POINT_DATA {mesh.n_vertices}\n")
        for name, data in point_vectors.items():
            out.write(f"VECTORS {name} double\n")
            for row in data:
                out.write(f"{row[0]:.16g} {row[1]:.16g} {row[2]:.16g}\n")
    if cell_scalars:
        out.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, data in cell_scalars.items():
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in data:
                out.write(f"{v:.16g}\n")
    return out.getvalue()


@pytest.mark.parametrize("name", MESHES)
def test_writers_match_per_entity_oracles(name):
    mesh = MESHES[name]()
    text = write_polymesh(mesh)
    assert text == polymesh_oracle(mesh)
    stream = io.StringIO()
    assert write_polymesh(mesh, stream) == text and stream.getvalue() == text

    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((mesh.n_vertices, 3)) * 10.0 ** rng.integers(-300, 300, 3)
    vectors[0] = [-0.0, np.nan, -np.inf]
    scalars = rng.uniform(-1e5, 1e5, mesh.n_cells)
    scalars[-1] = 1.0 / 3.0
    point_vectors = {"displacement": vectors, "twice": 2.0 * vectors}
    cell_scalars = {"div_D": scalars, "square": scalars**2}
    assert (vtk_unstructured_grid(mesh, point_vectors, cell_scalars, title="t")
            == vtk_oracle(mesh, point_vectors, cell_scalars, "t"))
    assert vtk_unstructured_grid(mesh) == vtk_oracle(mesh, None, None, "polyelast output")
