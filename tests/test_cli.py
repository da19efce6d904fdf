import numpy as np
import pytest

from polyelast.analysis import CSV_HEADER
from polyelast.cli import main, run_check_suite
from polyelast.mesh import generate_structured_mesh
from vtk_check import parse_legacy_vtk


def test_solve_writes_csv_and_vtk(tmp_path):
    csv_path = tmp_path / "row.csv"
    vtk_path = tmp_path / "out.vtk"
    code = main([
        "solve", "--case", "example1", "--mesh", "hex:2", "--lambda", "1e3",
        "--out", str(csv_path), "--vtk", str(vtk_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# polyelast")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "example1" and fields[1] == "hex" and fields[2] == "2"
    assert fields[9] == ""  # no rate for a single solve

    data = parse_legacy_vtk(vtk_path.read_text())
    assert data["types"] == [42] * 8
    assert data["points"].shape == (27, 3)
    assert "displacement" in data and data["displacement"].shape == (27, 3)
    assert "div_D" in data and data["div_D"].shape == (8,)
    assert "displacement_magnitude" in data
    mesh = generate_structured_mesh("hex", 2)
    assert np.allclose(data["points"], mesh.positions)
    # every cell advertises 6 quad faces
    assert all(len(faces) == 6 and all(len(l) == 4 for l in faces)
               for faces in data["cells"])


def test_convergence_row_count(tmp_path):
    out = tmp_path / "tab.csv"
    # lambda=1e8 sits near the double-precision residual floor on coarse
    # meshes; pick an attainable tolerance for this smoke run
    code = main([
        "convergence", "--case", "example2",
        "--mesh-series", "tet:1,tet:2,tet:4",
        "--lambda", "1,1e3,1e6,1e8",
        "--tol", "1e-8", "--max-iters", "20000",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 12  # provenance + header + 3 meshes x 4 lambdas
    # first mesh rows carry no rate
    for row in lines[2:6]:
        assert row.split(",")[9] == ""
    for row in lines[6:]:
        assert row.split(",")[9] != ""


def _strip_volatile(text):
    """Drop the provenance line and the wall-time column."""
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        parts = line.split(",")
        rows.append(",".join(parts[:-1]) if len(parts) > 1 else line)
    return "\n".join(rows)


def test_convergence_deterministic_output(tmp_path):
    args = [
        "convergence", "--case", "example1", "--mesh-series", "tet:2:0.3,tet:4:0.3",
        "--lambda", "1,1e3", "--seed", "7",
    ]
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    assert main(args + ["--out", str(a_path)]) == 0
    assert main(args + ["--out", str(b_path)]) == 0
    assert _strip_volatile(a_path.read_text()) == _strip_volatile(b_path.read_text())


def test_check_command_passes(capsys):
    code = main(["check", "--mesh", "tet:4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    names = {l.split("  ")[1].split(":")[0] for l in lines}
    assert {"mesh invariants", "weight identities", "face mean property",
            "divergence commutation", "patch test", "korn ratio"} <= names


def test_check_suite_on_perturbed_mesh():
    mesh = generate_structured_mesh("tet", 2, perturb=0.3)
    results = run_check_suite(mesh)
    assert all(ok for _, ok, _ in results), results


def test_flag_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "example1", "--lambda", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "bogus", "--mesh", "hex:2", "--lambda", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "example1", "--mesh", "hex:2",
              "--lambda", "1,1e3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--case", "example1", "--mesh-series", "tet:x",
              "--lambda", "1"])
    assert exc.value.code == 2


def test_numerical_failure_exit_1(capsys):
    code = main([
        "solve", "--case", "example1", "--mesh", "tet:2", "--lambda", "1e6",
        "--max-iters", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_mesh_file_exit_1(capsys):
    code = main(["solve", "--case", "example1", "--mesh", "no/such/file.poly",
                 "--lambda", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_from_polymesh_file(tmp_path):
    from polyelast.mesh import write_polymesh

    mesh = generate_structured_mesh("hex", 2)
    path = tmp_path / "grid.poly"
    path.write_text(write_polymesh(mesh))
    code = main(["solve", "--case", "example1", "--mesh", str(path),
                 "--lambda", "1", "--out", str(tmp_path / "row.csv")])
    assert code == 0
    fields = (tmp_path / "row.csv").read_text().splitlines()[2].split(",")
    assert fields[1] == "file"


@pytest.mark.parametrize("flags,message", [
    (["--lambda", "nan"], "lambda must be finite"),
    (["--lambda", "inf"], "lambda must be finite"),
    (["--lambda", "1", "--mu1", "-1"], "mu1 must be positive"),
    (["--lambda", "1", "--mu1", "0"], "mu1 must be positive"),
])
def test_bad_material_values_exit_1(flags, message, capsys):
    code = main(["solve", "--case", "example2", "--mesh", "hex:2", *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_rejects_non_finite_coordinate(tmp_path, capfd):
    from polyelast.mesh import write_polymesh

    lines = write_polymesh(generate_structured_mesh("hex", 2)).splitlines()
    lines[2 + 5] = "0.5 nan 0.5"  # vertex 5
    path = tmp_path / "nan.poly"
    path.write_text("\n".join(lines) + "\n")
    code = main(["check", "--mesh", str(path)])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    # the message alone: nothing reaches LAPACK, which would print to stderr
    assert err == "error: vertex 5: non-finite coordinate\n"


@pytest.mark.parametrize("argv,message", [
    (["solve", "--mesh", "tet:12", "--lambda", "nan"], "lambda must be finite"),
    (["solve", "--mesh", "no/such/file.poly", "--lambda", "1", "--mu", "inf"],
     "mu must be finite"),
    (["convergence", "--mesh-series", "tet:8", "--lambda", "1,nan"],
     "lambda must be finite"),
    (["convergence", "--mesh-series", "tet:2,no/such/file.poly", "--lambda", "1,1e3",
      "--mu1", "-1"], "mu1 must be positive"),
    (["convergence", "--mesh-series", "tet:8", "--lambda", "1,0"],
     "example2 requires lambda > 0"),
])
def test_material_is_validated_before_any_mesh_is_built(argv, message, monkeypatch,
                                                         capsys):
    import polyelast.analysis as analysis

    builds = []
    monkeypatch.setattr(analysis, "generate_structured_mesh",
                        lambda *args, **kwargs: builds.append(args))
    monkeypatch.setattr(analysis, "parse_polymesh",
                        lambda *args, **kwargs: builds.append(args))
    code = main([argv[0], "--case", "example2", *argv[1:]])
    assert (code, builds) == (1, [])
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_suite_interpolates_affine_fields_at_degree_5(monkeypatch):
    import polyelast.cli as cli

    degrees = []
    interpolate = cli.interpolate

    def spy(mesh, dofmap, field, *args):
        degrees.append(args)
        return interpolate(mesh, dofmap, field, *args)

    monkeypatch.setattr(cli, "interpolate", spy)
    results = run_check_suite(generate_structured_mesh("tet", 3, perturb=0.3))
    assert all(ok for _, ok, _ in results), results
    # the identity, the solenoidal field at the default degree, the affine reference
    assert degrees == [(5,), (), (5,)]


def test_repeated_lambda_is_rejected_before_any_mesh_is_built(monkeypatch, capsys):
    import polyelast.analysis as analysis

    builds = []
    monkeypatch.setattr(analysis, "generate_structured_mesh",
                        lambda *args, **kwargs: builds.append(args))
    code = main(["convergence", "--case", "example2", "--mesh-series", "tet:2",
                 "--lambda", "1,1e6,1"])
    assert (code, builds) == (1, [])
    assert capsys.readouterr().err == "error: lambda 1 is listed twice\n"


@pytest.mark.parametrize("series, repeated", [("hex:1,hex:2,hex:2:0", "hex:2"),
                                              ("no/such.poly,no/such.poly", "no/such.poly")])
def test_repeated_mesh_is_rejected_before_any_mesh_is_built(series, repeated, monkeypatch,
                                                            capsys):
    import polyelast.analysis as analysis

    builds = []
    monkeypatch.setattr(analysis, "generate_structured_mesh",
                        lambda *args, **kwargs: builds.append(args))
    monkeypatch.setattr(analysis, "parse_polymesh",
                        lambda *args, **kwargs: builds.append(args))
    code = main(["convergence", "--case", "example2", "--mesh-series", series,
                 "--lambda", "1"])
    assert (code, builds) == (1, [])
    assert capsys.readouterr().err == f"error: mesh {repeated} is listed twice\n"


def test_check_passes_on_a_mesh_with_no_free_dof(capsys):
    assert main(["check", "--mesh", "hex:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1] == "PASS  korn ratio: no free DOF to sample"


@pytest.mark.parametrize("argv,rows", [
    (["solve", "--mesh", "hex:2", "--lambda", "1e3"], ["example2,hex,2,"]),
    (["convergence", "--mesh-series", "hex:1,hex:2", "--lambda", "1"],
     ["example2,hex,1,", "example2,hex,2,"]),
])
def test_csv_goes_to_stdout_without_out(argv, rows, capsys):
    assert main([argv[0], "--case", "example2", *argv[1:]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# polyelast 0.1.0 case=example2")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(rows)
    assert all(line.startswith(row) for line, row in zip(lines[2:], rows))


@pytest.mark.parametrize("argv,message", [
    (["solve", "--mesh", "hex:2", "--lambda", "1,abc"], "malformed --lambda list: '1,abc'"),
    (["solve", "--mesh", "hex:2", "--lambda", ","], "--lambda list must be non-empty"),
    (["convergence", "--mesh-series", ",", "--lambda", "1"],
     "--mesh-series must list at least one mesh"),
])
def test_malformed_lists_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--case", "example2", *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_refinement_order_is_checked_before_the_mesh_is_split(monkeypatch, capsys):
    import polyelast.analysis as analysis

    splits = []
    assemble_split = analysis.assemble_split

    def spy(*args):
        splits.append(args)
        return assemble_split(*args)

    monkeypatch.setattr(analysis, "assemble_split", spy)
    code = main(["convergence", "--case", "example2", "--mesh-series", "tet:3,tet:2",
                 "--lambda", "1"])
    assert (code, len(splits)) == (1, 1)
    assert capsys.readouterr().err == (
        "error: h must decrease between refinement levels: "
        "tet:2 (h=0.866025) follows tet:3 (h=0.57735)\n")


@pytest.mark.parametrize("argv,message", [
    (["solve", "--mesh", "tet:12", "--lambda", "1", "--tol", "1.5"], "tol must be in (0,1)"),
    (["solve", "--mesh", "no/such/file.poly", "--lambda", "1", "--max-iters", "0"],
     "max_iterations must be >= 1"),
    (["convergence", "--mesh-series", "tet:8", "--lambda", "1,1e3", "--tol", "0"],
     "tol must be in (0,1)"),
    (["convergence", "--mesh-series", "tet:2,no/such/file.poly", "--lambda", "1",
      "--max-iters", "-5"], "max_iterations must be >= 1"),
])
def test_solver_flags_are_validated_before_any_mesh_is_built(argv, message, monkeypatch,
                                                             capsys):
    import polyelast.analysis as analysis

    builds = []
    monkeypatch.setattr(analysis, "generate_structured_mesh",
                        lambda *args, **kwargs: builds.append(args))
    monkeypatch.setattr(analysis, "parse_polymesh",
                        lambda *args, **kwargs: builds.append(args))
    code = main([argv[0], "--case", "example2", *argv[1:]])
    assert (code, builds) == (1, [])
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check", "--mesh", "tet:2"],
    ["solve", "--case", "example2", "--mesh", "tet:2:0.3", "--lambda", "1"],
    ["solve", "--case", "example2", "--mesh", "tet:1", "--lambda", "1"],
    ["convergence", "--case", "example2", "--mesh-series", "tet:1,tet:2", "--lambda", "1"],
])
def test_negative_seed_is_a_flag_error(argv, monkeypatch, capsys):
    import polyelast.analysis as analysis
    from polyelast.cli import build_parser

    builds = []
    monkeypatch.setattr(analysis, "generate_structured_mesh",
                        lambda *args, **kwargs: builds.append(args))
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "-3"])
    assert (exit_info.value.code, builds) == (2, [])
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: must be a nonnegative integer\n")
    assert build_parser().parse_args([*argv, "--seed", "0"]).seed == 0


def test_case_choices_are_the_case_names():
    import argparse

    from polyelast.analysis import CASE_NAMES
    from polyelast.cli import build_parser

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command in ("solve", "convergence"):
        case = next(action for action in commands[command]._actions if action.dest == "case")
        assert tuple(case.choices) == CASE_NAMES


@pytest.mark.parametrize("argv", [
    ["check", "--mesh"],
    ["solve", "--case", "example2", "--lambda", "1", "--mesh"],
    ["convergence", "--case", "example2", "--lambda", "1", "--mesh-series"],
])
def test_a_mesh_with_no_cells_exits_1(argv, tmp_path, capsys):
    path = tmp_path / "empty.polymesh"
    path.write_text("POLYMESH 1\n0 0 0\n")
    assert main([*argv, str(path)]) == 1
    assert capsys.readouterr().err == "error: mesh has no cells\n"
