"""Child-process entry of the benchmark: ``python3 perfbench/launch.py
<study CLI arguments>``.

Runs ``repro.studies.cli.main`` with the given arguments, exactly like
``python -m repro.studies``.  When ``PERFBENCH_TRACE`` names a file, the
process first installs the benchmark's wrappers (benchtrace.py) with
that file as the span sink, and records the ``repro.studies`` import as
an ``import.studies`` span; ``PERFBENCH_PARENT`` is the benchmark-side
span the process's root spans hang under.  Forked shard workers inherit
the wrappers and append their own spans to the same file.

When ``PERFBENCH_MODEL`` names a file, the MD2 driver model the process
estimated is saved there on exit, so the benchmark can check this
process's outputs without estimating the model a second time.
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import benchtrace  # noqa: E402  (needs the path above)


def main() -> int:
    t0 = time.perf_counter()
    import repro.studies.cli as cli
    t1 = time.perf_counter()
    path = os.environ.get(benchtrace.ENV_TRACE)
    if path:
        tracer = benchtrace.Tracer(
            path=path, parent=os.environ.get(benchtrace.ENV_PARENT))
        tracer.record("import.studies", t0, t1)
        tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        out = os.environ.get(benchtrace.ENV_MODEL)
        if out:
            from repro.experiments import cache
            from repro.models import save_model
            save_model(cache.driver_model("MD2"), out)


if __name__ == "__main__":
    sys.exit(main())
