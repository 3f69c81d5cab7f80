"""The fast-path kill switch must be honored end to end.

``REPRO_FASTPATH=0`` (read once at import) and the ``use_fastpath``
context manager are the one switch: with it off, both engines, the
proximity operators and the sharded term-at-a-time runner all have to
go through the pure-Python reference code — no fast kernel may run.
Verified by poisoning the kernel entry points and evaluating real
queries.
"""

import importlib
import os
import subprocess
import sys

from repro.core import config_by_name, prepare_collection
from repro.fastpath import use_fastpath
from repro.inquery import (
    Document,
    DocumentAtATimeEngine,
    IndexBuilder,
    MnemeInvertedFile,
    RetrievalEngine,
)
from repro.serve.termcache import TermCacheFleet
from repro.shard import materialize_sharded
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import CollectionProfile, SyntheticCollection
from repro.synth.vocab import term_string

CORPUS = [
    ["apple", "banana", "cherry", "apple", "date"],
    ["banana", "cherry", "banana", "apple"],
    ["cherry", "date", "apple", "banana", "cherry"],
]

TINY = CollectionProfile(
    name="tiny-killswitch", models="test", documents=60, mean_doc_length=40,
    doc_length_sigma=0.5, vocab_size=400, seed=43,
)

#: Every fast kernel entry point a query can reach, by the module
#: attribute (or ``Class.method``) its caller looks up at call time.
KERNELS = [
    ("repro.fastpath.daat", "score_streams"),
    ("repro.fastpath.windows", "match_counts_for_docs"),
    ("repro.fastpath.codec", "decode_record_arrays"),
    ("repro.fastpath.codec", "DecodeCache.decode"),
    ("repro.fastpath.network", "term_beliefs"),
    ("repro.fastpath.network", "scatter_leaf"),
    ("repro.fastpath.network", "synonym_union"),
    ("repro.fastpath.network", "combine_sum"),
    ("repro.fastpath.network", "combine_wsum"),
    ("repro.fastpath.network", "combine_and"),
    ("repro.fastpath.network", "combine_or"),
    ("repro.fastpath.network", "combine_not"),
    ("repro.fastpath.network", "combine_max"),
    ("repro.fastpath.topk", "rank_arrays"),
]

#: One term-at-a-time tree through every dense combination kernel, a
#: synonym union and a no-evidence leaf.
COMPOSED = (
    "#wsum( 2 #and( apple banana ) 1 #or( #not( cherry ) "
    "#max( date #syn( apple Apple ) nowhere ) ) )"
)


def build():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    store = MnemeInvertedFile(fs)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id, tokens in enumerate(CORPUS, start=1):
        builder.add_document(Document(doc_id, tokens=tokens))
    return builder.finalize()


def _owner(module_name, name):
    """The object holding kernel ``name`` and the attribute to patch."""
    owner = importlib.import_module(module_name)
    *path, attribute = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _poison(set_attribute=setattr):
    """Make every fast kernel entry point explode if reached."""

    def boom(*args, **kwargs):
        raise AssertionError("fast kernel invoked with the fast path disabled")

    for module, name in KERNELS:
        set_attribute(*_owner(module, name), boom)


def _sharded_wave(term_cache_bytes=0):
    """A 2-shard TAAT wave over every leaf kind; returns the wave's
    term-cache fleet."""
    a, b = term_string(0), term_string(1)
    sharded = materialize_sharded(
        prepare_collection(SyntheticCollection(TINY)),
        config_by_name("mneme-cache"), n_shards=2,
    )
    fleet = TermCacheFleet(term_cache_bytes, sharded)
    outcome = sharded.scheduler(term_caches=fleet).run_wave(
        [f"#sum( {a} {b} )", f"#phrase( {a} {b} )", f"#uw5( {a} {b} )"]
    )
    assert outcome.results[0].ranking
    return fleet


def _run_everything():
    """One pass through every fast-path dispatch point."""
    index = build()
    # Each DAAT query twice on one engine: the repeat is where the
    # engine's decode memo answers instead of the decoder.
    exhaustive = DocumentAtATimeEngine(index, top_k=10)
    pruned = DocumentAtATimeEngine(index, top_k=10, prune="require")
    for _ in range(2):
        exhaustive.run_query("#sum( apple banana )")
        pruned.run_query("#sum( apple cherry )")
    engine = RetrievalEngine(index, top_k=10)
    engine.run_query("#phrase( apple banana )")
    engine.run_query("#od3( apple cherry )")
    engine.run_query("#uw5( banana date )")
    engine.run_query(COMPOSED)
    _sharded_wave()


def test_context_manager_disables_all_kernels(monkeypatch):
    _poison(monkeypatch.setattr)
    with use_fastpath(False):
        _run_everything()  # must not touch any poisoned kernel


def test_explicit_engine_flag_overrides_global(monkeypatch):
    # The one switch nests, and the innermost setting wins at the
    # moment of dispatch — even for an engine constructed while the
    # fast path was on.
    _poison(monkeypatch.setattr)
    with use_fastpath(True):
        index = build()
        engine = DocumentAtATimeEngine(index, top_k=10)
        with use_fastpath(False):
            engine.run_query("#sum( apple banana )")
            RetrievalEngine(index, top_k=10).run_query("#uw5( banana date )")


def _spy(monkeypatch, module_name, name):
    calls = []
    owner, attribute = _owner(module_name, name)
    original = getattr(owner, attribute)

    def spy(*args, **kwargs):
        calls.append(True)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, spy)
    return calls


def test_kernels_actually_dispatch_when_enabled(monkeypatch):
    # Sanity check on the poison points themselves: with the fast path
    # on, the kernels must be reached — otherwise the kill-switch tests
    # above would pass vacuously.
    spies = {name: _spy(monkeypatch, module, name) for module, name in KERNELS}
    with use_fastpath(True):
        _run_everything()
    assert all(spies.values()), [n for n, calls in spies.items() if not calls]


def test_sharded_wave_runs_on_the_array_kernels(monkeypatch):
    # The sharded runner takes the same dispatch as the flat engine:
    # fast path on, a wave decodes through ``decode_record_arrays``;
    # off, it decodes postings lists.  Both arms cache the fetched
    # record under the one kind ``arrays``.
    decodes = _spy(monkeypatch, "repro.fastpath.codec", "decode_record_arrays")
    for fast in (True, False):
        del decodes[:]
        with use_fastpath(fast):
            fleet = _sharded_wave(term_cache_bytes=1 << 20)
        assert bool(decodes) is fast
        kinds = {
            key[0] for cache in fleet.caches() for key in cache._lru.keys()
        }
        assert kinds == {"arrays"}


def test_env_kill_switch_end_to_end():
    # REPRO_FASTPATH is read at import time, so the check needs a fresh
    # interpreter: with the variable set, the toggle must come up off
    # and the reference path must evaluate everything.
    program = (
        "import sys\n"
        "from repro.fastpath import state\n"
        "assert not state.enabled(), 'REPRO_FASTPATH=0 ignored'\n"
        "from test_killswitch import _poison, _run_everything\n"
        "_poison()\n"
        "_run_everything()\n"
        "print('reference path OK')\n"
    )
    env = dict(os.environ, REPRO_FASTPATH="0")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    here = os.path.dirname(__file__)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), here, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "reference path OK" in proc.stdout
