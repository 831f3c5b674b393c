"""Benchmark entry point.

    python3 bench/run.py --workload s1-simulate --seed 1 --seconds 30 --trace 0

Run from the root of an hfo checkout; it measures the ``src/hfo`` of that
checkout, never an installed copy. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Workloads and metrics are described in README.md beside this file.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"


def checkout_root():
    """The checkout holding this benchmark, with BLAS pinned to one thread
    and its ``src`` first on the import path; None if it has no hfo
    sources. Call before anything imports numpy."""
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hfo" / "__init__.py").is_file():
        print(f"error: no hfo sources under {root / 'src'}", file=sys.stderr)
        return None
    # set-up subprocesses inherit the pin
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    return root


def main() -> int:
    root = checkout_root()
    if root is None:
        return 2
    import harness

    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
