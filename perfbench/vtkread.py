"""Reader for the legacy ASCII VTK files polyelast writes (unstructured grid,
polyhedral face-stream cells, point vectors and cell scalars).  It shares no
code with the writer, so reading a file back checks the writer."""

from __future__ import annotations

import numpy as np


class VtkFormatError(ValueError):
    """The file does not follow the legacy VTK layout."""


def read_vtk(path: str) -> dict:
    """Return {"points": (n,3), "cells": [[face loop, ...], ...],
    "types": [int], "point_vectors": {name: (n,3)},
    "cell_scalars": {name: (c,)}}."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("# vtk DataFile Version"):
        raise VtkFormatError("missing VTK signature")
    if lines[2:4] != ["ASCII", "DATASET UNSTRUCTURED_GRID"]:
        raise VtkFormatError("not an ASCII unstructured grid")
    pos = 4

    def section(keyword):
        nonlocal pos
        words = lines[pos].split()
        if not words or words[0] != keyword:
            raise VtkFormatError(f"line {pos + 1}: expected {keyword}")
        pos += 1
        return words[1:]

    def block(count, width):
        nonlocal pos
        rows = np.array([[float(v) for v in lines[pos + i].split()]
                         for i in range(count)], dtype=float).reshape(count, width)
        pos += count
        return rows

    n_points = int(section("POINTS")[0])
    points = block(n_points, 3)

    n_cells, total = (int(v) for v in section("CELLS"))
    cells = []
    consumed = 0
    for _ in range(n_cells):
        ints = [int(v) for v in lines[pos].split()]
        pos += 1
        if ints[0] != len(ints) - 1:
            raise VtkFormatError(f"line {pos}: cell size does not match")
        consumed += len(ints)
        stream = ints[1:]
        faces = []
        at = 1
        for _ in range(stream[0]):
            faces.append(stream[at + 1: at + 1 + stream[at]])
            at += 1 + stream[at]
        if at != len(stream):
            raise VtkFormatError(f"line {pos}: face stream does not match")
        cells.append(faces)
    if consumed != total:
        raise VtkFormatError("CELLS size does not match the streams")
    if int(section("CELL_TYPES")[0]) != n_cells:
        raise VtkFormatError("CELL_TYPES count does not match CELLS")
    types = [int(lines[pos + i]) for i in range(n_cells)]
    pos += n_cells

    point_vectors = {}
    cell_scalars = {}
    while pos < len(lines) and lines[pos].strip():
        head = lines[pos].split()
        if head[0] == "POINT_DATA":
            if int(head[1]) != n_points:
                raise VtkFormatError("POINT_DATA count does not match POINTS")
            pos += 1
        elif head[0] == "CELL_DATA":
            if int(head[1]) != n_cells:
                raise VtkFormatError("CELL_DATA count does not match CELLS")
            pos += 1
        elif head[0] == "VECTORS":
            pos += 1
            point_vectors[head[1]] = block(n_points, 3)
        elif head[0] == "SCALARS":
            pos += 1
            section("LOOKUP_TABLE")
            cell_scalars[head[1]] = block(n_cells, 1)[:, 0]
        else:
            raise VtkFormatError(f"line {pos + 1}: unknown section {head[0]}")
    return {"points": points, "cells": cells, "types": types,
            "point_vectors": point_vectors, "cell_scalars": cell_scalars}
