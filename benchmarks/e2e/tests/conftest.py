"""Make the benchmark's modules (and ``repro``) importable for its tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` — the
parent ``benchmarks/conftest.py`` imports ``repro`` before this file loads.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
for path in (E2E, E2E.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
