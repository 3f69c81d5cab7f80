"""The fast-path kill switch — the one selector of the evaluation path.

The fast path is a *real-time* optimization only: every kernel in
:mod:`repro.fastpath` is required to produce byte-identical records,
bit-identical beliefs, and identical simulated-clock charges to the
pure-Python reference implementations.  Because of that invariant the
switch defaults to on and production never turns it off; the reference
path is retained as the oracle the invariance suites compare against
and as the kill-switch fallback.

There is exactly one switch — ``REPRO_FASTPATH=0`` in the environment,
or the :func:`use_fastpath` context — and every dispatch point (codec,
bulk encode, recount, both engines, the sharded runner) reads it when
it dispatches, so one ``with use_fastpath(False):`` around construction
and call routes the whole stack through the reference code.

The module is deliberately tiny and dependency-free so that low-level
modules (``repro.inquery.postings``) can consult it without import
cycles.
"""

import os
from contextlib import contextmanager


def _initial() -> bool:
    env = os.environ.get("REPRO_FASTPATH", "").strip().lower()
    return env not in ("0", "off", "false", "no")


#: Whether fast-path kernels are used where available.  Mutate through
#: :func:`set_enabled` / :func:`use_fastpath`.
ENABLED = _initial()


def enabled() -> bool:
    """Is the fast path currently active?"""
    return ENABLED


def set_enabled(flag: bool) -> bool:
    """Switch the fast path on or off; returns the previous setting."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous


@contextmanager
def use_fastpath(flag: bool):
    """Temporarily force the fast path on or off (tests, benchmarks)."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)
