"""Untimed verification: every served ranking against an independent oracle.

After the measured passes, every distinct query is re-evaluated on a
fresh, cold, flat, single-disk, *exhaustive* engine — term-at-a-time for
the TAAT workloads, unpruned document-at-a-time for ``daat-pruned`` —
and, for ``ingest-mixed``, against ``repro.live.reference_rankings``
stop-the-world rebuilds of the corpus at the last epoch before the
compaction and at the final epoch (served from the compacted store).
A raised, shed, degraded or mismatching request counts as failed.

The golden digests (``golden/<workload>.seed<seed>.json``, sha256 of
every served ranking per epoch) catch a change that bends production
and oracle together on the default seed.
"""

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.config import config_by_name
from repro.core.metrics import cold_start
from repro.core.prepared import materialize
from repro.inquery.daat import DocumentAtATimeEngine
from repro.inquery.engine import RetrievalEngine
from repro.live import reference_rankings

from harness import Measurement, served_by_epoch
from workloads import ORACLE_EPOCHS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

Expected = Dict[int, Dict[str, list]]   #: epoch -> query text -> ranking


def queries_by_epoch(m: Measurement) -> Dict[int, List[str]]:
    """Epoch -> distinct queries served in it (epoch = ingests so far)."""
    queries: Dict[int, Dict[str, None]] = {}
    epoch = 0
    for call in m.calls:
        if call.kind == "ingest":
            epoch += 1
        queries.setdefault(epoch, {}).update(dict.fromkeys(call.texts))
    return {epoch: list(texts) for epoch, texts in queries.items()}


def oracle_rankings(m: Measurement) -> Expected:
    """What the oracle says each verified epoch's rankings must be."""
    workload, queries = m.workload, queries_by_epoch(m)
    if workload.mutates:
        config = workload.system_config()
        return {
            epoch: reference_rankings(
                config,
                m.system.corpus.documents_for(m.system.inputs.live_ids[epoch]),
                queries[epoch], engine=workload.engine,
            )
            for epoch in ORACLE_EPOCHS
        }
    system = materialize(m.system.backend.prepared, config_by_name(workload.config))
    cold_start(system)
    if workload.engine == "daat":
        engine = DocumentAtATimeEngine(system.index, prune="off")
    else:
        engine = RetrievalEngine(system.index)
    return {0: {text: engine.run_query(text).ranking for text in queries[0]}}


def count_failures(m: Measurement, expected: Expected) -> Tuple[int, int]:
    """``(attempted, failed)`` over the last pass's requests."""
    exact = m.exact
    rows_of = served_by_epoch(m.calls, m.passes[-1].outputs)
    failed = exact["raised"] + exact["shed"] + exact["degraded"]
    for epoch, table in expected.items():
        for row in rows_of.get(epoch, []):
            if row.result.ranking != table[row.text]:
                failed += 1
    return m.requests, failed


def verify(m: Measurement) -> Tuple[int, int]:
    return count_failures(m, oracle_rankings(m))


# -- golden digests -----------------------------------------------------------

def golden_path(m: Measurement) -> Path:
    return GOLDEN_DIR / f"{m.workload.name}.seed{m.seed}.json"


def golden_mismatches(m: Measurement) -> List[str]:
    """Epochs whose digest differs from the committed one ([] when the
    seed has no golden file: only the default seed is committed)."""
    path = golden_path(m)
    if not path.exists():
        return []
    golden = json.loads(path.read_text())["digests"]
    current = m.exact["digests"]
    return sorted(
        epoch for epoch in golden.keys() | current.keys()
        if golden.get(epoch) != current.get(epoch)
    )


def write_golden(m: Measurement) -> Path:
    path = golden_path(m)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"workload": m.workload.name, "seed": m.seed, "digests": m.exact["digests"]},
        indent=2, sort_keys=True,
    ) + "\n")
    return path
