"""Vectorized fast-path kernels.

This package accelerates the user-CPU hot spots the paper identifies —
record decompression, belief arithmetic, ranking — with numpy bulk
kernels, under one hard invariant: **the fast path changes real
wall-clock time only**.  Encoded records are byte-identical, beliefs
and rankings are bit-identical, and every simulated-clock charge
(``I``/``A``/``B``, buffer hits, Tables 3-6) is unchanged with respect
to the pure-Python reference implementations, which remain in place.

Layout:

* :mod:`~repro.fastpath.state`   — the one kill switch (``use_fastpath``);
* :mod:`~repro.fastpath.vbyte`   — bulk v-byte encode/decode;
* :mod:`~repro.fastpath.codec`   — the postings-record codec;
* :mod:`~repro.fastpath.beliefs` — array belief tables + operator kernels;
* :mod:`~repro.fastpath.topk`    — top-k ranking selection (both table kinds);
* :mod:`~repro.fastpath.network` — the vectorized inference network;
* :mod:`~repro.fastpath.daat`    — windowed document-at-a-time scoring;
* :mod:`~repro.fastpath.prune`   — MaxScore top-k pruning (both drivers);
* :mod:`~repro.fastpath.windows` — proximity position-window kernels;
* :mod:`~repro.fastpath.build`   — whole-collection bulk record encoding.
"""

from .state import enabled, set_enabled, use_fastpath

__all__ = [
    "enabled",
    "set_enabled",
    "use_fastpath",
]
