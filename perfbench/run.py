"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload {read,write,perturb} --seed N \
        --seconds S --trace {0,1}

See :mod:`perfbench.harness` for what a run measures and prints.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
