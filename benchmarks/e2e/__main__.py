"""``python -m benchmarks.e2e`` — same entry point as ``run.py``."""

import sys

from .run import main

sys.exit(main())
