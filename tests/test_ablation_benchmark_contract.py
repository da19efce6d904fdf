"""The `lambda-sweep` workload of `perfbench/` runs the study with and
without bubbles.  A traced `polyelast convergence --no-bubbles` must record
every span the benchmark expects of that workload, and build one matrix per
mesh like the bubble half."""

import polyelast
import polyelast.cli
from test_benchmark_contract import perfbench  # noqa: F401  (the fixture)


def test_traced_ablation_study_records_the_expected_spans(perfbench, tmp_path):  # noqa: F811
    tracing, run = perfbench
    tracer = tracing.Tracer()
    with tracer.patched(tracing.layer_targets(polyelast)):
        assert polyelast.cli.main([
            "convergence", "--case", "example2", "--mesh-series", "tet:1,tet:2",
            "--lambda", "1,1e8", "--tol", "1e-8", "--no-bubbles",
            "--out", str(tmp_path / "out.csv")]) == 0
    names = [span["name"] for span in tracer.spans]
    assert run.EXPECTED_SPANS["lambda-sweep"] <= set(names), sorted(set(names))
    assert names.count("assembly.matrix") == 2
