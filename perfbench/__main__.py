"""``PYTHONPATH=src python -m perfbench``: the same command line."""

import sys

from .cli import main

sys.exit(main())
