"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --check 0|1 --trace 0|1 --out DIR

Imports polyelast from the `src/` directory next to `perfbench/` and from
nowhere else, runs the round and prints one JSON object on its last line of
standard output.  With --check 1 the round checks its outputs; with
--trace 1 it records spans (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    import polyelast

    location = Path(polyelast.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"polyelast was imported from {location}, not from {SRC}")
    return polyelast


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    pe = import_program()
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    with tracer.patched(tracing.layer_targets(pe)) if tracer else nullcontext():
        round_ = workloads.RUNNERS[args.workload](args.seed, Path(args.out),
                                                  check=bool(args.check))
    payload = asdict(round_)
    payload["ops"] = [op.summary() for op in round_.ops]
    if tracer:
        payload["spans"] = tracer.spans
        payload["layers"] = tracing.layer_metrics(tracer.spans)
        payload["overhead_s"] = tracer.overhead_s
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
