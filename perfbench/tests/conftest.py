"""Make the benchmark's modules and the package source importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from common import import_repro  # noqa: E402

import_repro()
