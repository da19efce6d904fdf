"""The benchmark in `perfbench/` observes the program from outside, through
the module references to the layer functions it hooks.  A traced
`polyelast solve` and `polyelast convergence` must record every span the
benchmark expects of the workload each command stands for."""

import importlib.util
import sys
from pathlib import Path

import pytest

import polyelast
import polyelast.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's `tracing` and `run` modules, imported without writing
    bytecode next to them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return tracing, run


@pytest.mark.parametrize("workload, argv", [
    ("cold-solve", ["solve", "--case", "example2", "--mesh", "tet:2",
                    "--lambda", "1e6"]),
    ("lambda-sweep", ["convergence", "--case", "example2", "--mesh-series", "tet:2",
                      "--lambda", "1,1e6", "--tol", "1e-8"]),
])
def test_traced_commands_record_the_expected_spans(perfbench, tmp_path, workload, argv):
    tracing, run = perfbench
    tracer = tracing.Tracer()
    with tracer.patched(tracing.layer_targets(polyelast)):
        assert polyelast.cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    names = {span["name"] for span in tracer.spans}
    assert run.EXPECTED_SPANS[workload] <= names, sorted(names)


def test_traced_polytopal_commands_record_the_expected_spans(perfbench, tmp_path):
    tracing, run = perfbench
    mesh_path = tmp_path / "hex2.polymesh"
    mesh_path.write_text(polyelast.write_polymesh(polyelast.generate_structured_mesh("hex", 2)))
    tracer = tracing.Tracer()
    with tracer.patched(tracing.layer_targets(polyelast)):
        assert polyelast.cli.main(["check", "--mesh", str(mesh_path)]) == 0
        assert polyelast.cli.main(["solve", "--case", "example2", "--mesh", str(mesh_path),
                                   "--lambda", "1e6", "--out", str(tmp_path / "out.csv"),
                                   "--vtk", str(tmp_path / "out.vtk")]) == 0
    names = {span["name"] for span in tracer.spans}
    assert run.EXPECTED_SPANS["polytopal"] <= names, sorted(names)
