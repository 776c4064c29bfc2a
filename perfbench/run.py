"""Entry point the benchmark contract names: ``python3 perfbench/run.py``.

Puts the repo root and ``src/`` on the path, so it runs from a plain
checkout with no install and no PYTHONPATH.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
