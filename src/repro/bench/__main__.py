"""``python -m repro.bench <gate> [flags]`` — see :mod:`repro.bench.gate`."""

import sys

from .gate import main

sys.exit(main())
