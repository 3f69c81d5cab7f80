"""The identity target the serving gates compare every ranking against."""

from typing import Dict, List, Sequence, Tuple

from ..core.metrics import cold_start
from ..core.prepared import materialize
from ..inquery.daat import DocumentAtATimeEngine
from ..inquery.engine import DEFAULT_TOP_K, RetrievalEngine


def cold_reference(
    prepared, config, pool: Sequence[str], engine: str = "taat"
) -> Tuple[Dict[str, list], List[float]]:
    """Cold single-disk evaluation of every distinct query in ``pool``.

    Returns the ranking per query text and each evaluation's simulated
    wall cost in milliseconds, in pool order.
    """
    system = materialize(prepared, config)
    cold_start(system)
    engine_cls = DocumentAtATimeEngine if engine == "daat" else RetrievalEngine
    runner = engine_cls(
        system.index,
        top_k=DEFAULT_TOP_K,
        use_reservation=config.use_reservation,
    )
    rankings: Dict[str, list] = {}
    costs_ms: List[float] = []
    for text in dict.fromkeys(pool):
        start = system.clock.snapshot()
        rankings[text] = runner.run_query(text).ranking
        costs_ms.append(system.clock.since(start).wall_ms)
    return rankings, costs_ms


def check_invariance(
    report, reference, label: str, violations: List[str],
    noun: str = "served",
) -> int:
    """Every ranking in ``report.served`` must equal the cold reference.

    Appends at most three verbose violations plus a total; returns the
    number of diverging rows.
    """
    bad = 0
    for row in report.served:
        if row.result.ranking != reference[row.text]:
            bad += 1
            if bad <= 3:
                violations.append(
                    f"{label}: {noun} ranking for {row.text!r} "
                    f"({row.outcome}) differs from the cold single-disk "
                    "evaluation"
                )
    if bad > 3:
        violations.append(f"{label}: {bad} {noun} rankings diverged in total")
    return bad
