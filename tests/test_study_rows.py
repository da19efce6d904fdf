"""One row pipeline: `polyelast solve` is the one-mesh, one-lambda row of
`study_rows`, the generator behind `run_convergence_study`.  A study with one
lambda takes the case's own fields as its exact data, so it computes one load
and one interpolant per mesh; every mesh spec is checked before a mesh is
built."""

import pytest

from polyelast import analysis
from polyelast.analysis import MeshSource, run_convergence_study
from polyelast.cli import main


def test_a_one_lambda_study_computes_its_exact_data_once_per_mesh(monkeypatch):
    calls = {"assemble_load": 0, "interpolate": 0}

    def spy(name):
        original = getattr(analysis, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(analysis, name, spy(name))
    records = run_convergence_study("example2", [MeshSource("tet", 1), MeshSource("tet", 2)],
                                    [1e6])
    assert len(records) == 2
    assert calls == {"assemble_load": 2, "interpolate": 2}


@pytest.mark.parametrize("case, mesh, lam, flags", [
    ("example2", "tet:3", "1e6", []),
    ("example3", "hex:3", "1e8", []),
    ("example2", "tet:3", "1e6", ["--no-bubbles"]),
])
def test_solve_writes_the_row_of_a_one_mesh_study(case, mesh, lam, flags, tmp_path):
    rows = {}
    for command, mesh_flag in (("solve", "--mesh"), ("convergence", "--mesh-series")):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--case", case, mesh_flag, mesh, "--lambda", lam,
                     "--out", str(out), *flags]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        rows[command] = lines[2].rsplit(",", 1)[0]  # all but `seconds`
    assert rows["solve"] == rows["convergence"]


@pytest.mark.parametrize("argv", [
    ["solve", "--case", "example2", "--mesh", "tet:x", "--lambda", "1"],
    ["check", "--mesh", "tet:x"],
])
def test_a_malformed_mesh_spec_is_a_flag_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: bad mesh spec 'tet:x': non-numeric field\n")


@pytest.mark.parametrize("series, message", [
    ("tet:3,tet:0", "n must be >= 1"),
    ("tet:3,hex:4:0.2", "perturb is only supported for tet meshes "
                        "(hex faces must stay planar)"),
    ("tet:3,tet:4:1.0", "perturb must be in [0,1)"),
])
def test_mesh_spec_values_are_checked_before_any_mesh_is_built(series, message,
                                                               monkeypatch, capsys):
    builds = []
    monkeypatch.setattr(analysis, "generate_structured_mesh",
                        lambda *args, **kwargs: builds.append(args))
    code = main(["convergence", "--case", "example2", "--mesh-series", series,
                 "--lambda", "1"])
    assert (code, builds) == (1, [])
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_mesh_file_of_a_series_is_opened_before_a_mesh_is_built(monkeypatch, capsys):
    built = []

    def spy(name):
        original = getattr(analysis, name)

        def counted(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("generate_structured_mesh", "parse_polymesh"):
        monkeypatch.setattr(analysis, name, spy(name))
    assert main(["convergence", "--case", "example2", "--mesh-series", "tet:3,no/such.poly",
                 "--lambda", "1"]) == 1
    assert "[Errno 2] No such file or directory: 'no/such.poly'" in capsys.readouterr().err
    assert built == []
