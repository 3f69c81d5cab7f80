"""IngestPipeline integration: epochs, routing, replicas, compaction.

Every batch must publish atomically (index saved, WAL epoch marker,
epoch bumped), every query at any epoch must match a stop-the-world
rebuild of exactly that epoch's corpus, sharded mutations must keep
the global-statistics invariant and byte-identical mirrors, and the
serving layer must invalidate its cache exactly once per batch — and
never for a compaction.
"""

import pytest

from repro.core import materialize
from repro.core.config import config_by_name
from repro.errors import ConfigError, ServiceUnavailableError
from repro.inquery import DEFAULT_TOP_K, DocumentAtATimeEngine, RetrievalEngine
from repro.live import IngestPipeline, fresh_flat_index, reference_rankings
from repro.mneme import EPOCH_MARKER_OFFSET
from repro.serve import QueryService
from repro.synth.traffic import TimedRequest


def batches(corpus, n=2, adds=6, deletes=2):
    """A deterministic mutation plan over the tiny corpus."""
    next_id = corpus.base_count
    live = set(corpus.base_ids)
    plan = []
    for _ in range(n):
        add_docs = corpus.new_documents(adds, after=next_id)
        next_id += adds
        delete_ids = sorted(live)[:deletes]
        delete_docs = corpus.documents_for(delete_ids)
        live.update(d.doc_id for d in add_docs)
        live.difference_update(delete_ids)
        plan.append((add_docs, delete_docs))
    return plan


def live_rankings(backend, queries, sharded, engine="taat", prune="off"):
    if sharded:
        outcome = backend.scheduler(
            top_k=DEFAULT_TOP_K, engine=engine, prune=prune
        ).run_wave(queries)
        return {t: r.ranking for t, r in zip(queries, outcome.results)}
    if engine == "daat":
        runner = DocumentAtATimeEngine(
            backend.index, top_k=DEFAULT_TOP_K, prune=prune
        )
    else:
        runner = RetrievalEngine(backend.index, top_k=DEFAULT_TOP_K)
    return {t: runner.run_query(t).ranking for t in queries}


@pytest.mark.parametrize("shards,replicas", [(0, 0), (2, 1)])
def test_every_epoch_matches_its_rebuild(
    prepared, corpus, config, queries, daat_queries, shards, replicas
):
    if shards:
        backend = materialize(prepared, config, shards=shards, replicas=replicas)
    else:
        backend = materialize(prepared, config)
    pipeline = IngestPipeline(backend)
    for add_docs, delete_docs in batches(corpus):
        report = pipeline.apply(adds=add_docs, deletes=delete_docs)
        assert report.epoch == pipeline.epochs.epoch
        assert report.wal_marked
        if shards:
            assert report.groups_verified == shards
            assert all(0 <= s < shards for s in report.shards_touched)
        documents = corpus.documents_for(pipeline.epochs.live_docs())
        assert live_rankings(backend, queries, bool(shards)) == \
            reference_rankings(config, documents, queries)
        assert live_rankings(
            backend, daat_queries, bool(shards), engine="daat", prune="auto"
        ) == reference_rankings(
            config, documents, daat_queries, engine="daat"
        )


def test_past_epoch_snapshots_stay_checkable(prepared, corpus, config, queries):
    """A pinned query's reference is reconstructible after later batches."""
    backend = materialize(prepared, config)
    pipeline = IngestPipeline(backend)
    per_epoch = {}
    for add_docs, delete_docs in batches(corpus, n=3, adds=4, deletes=1):
        pipeline.apply(adds=add_docs, deletes=delete_docs)
        per_epoch[pipeline.epochs.epoch] = live_rankings(
            backend, queries, sharded=False
        )
    for epoch, captured in per_epoch.items():
        documents = corpus.documents_for(pipeline.epochs.live_docs(epoch))
        assert captured == reference_rankings(config, documents, queries), epoch


def test_wal_carries_the_epoch_marker(prepared, corpus, config):
    backend = materialize(prepared, config)
    pipeline = IngestPipeline(backend)
    add_docs, delete_docs = batches(corpus, n=1)[0]
    report = pipeline.apply(adds=add_docs, deletes=delete_docs)
    records, torn = backend.index.store.mfile.wal.records()
    assert not torn
    markers = [
        (offset, data) for offset, data in records
        if offset == EPOCH_MARKER_OFFSET
    ]
    assert len(markers) == 1
    from repro.mneme.recovery import _EPOCH_PAYLOAD

    assert _EPOCH_PAYLOAD.unpack(markers[0][1]) == (report.epoch,)
    # The marker seals the batch: it is the last record in the log.
    assert records[-1][0] == EPOCH_MARKER_OFFSET


def test_ingest_counts_stay_with_the_system_that_ingested(prepared, corpus, config):
    """One preparation, many builds: ingest on one leaks into none."""
    def counts(backend):
        return backend.index.stats.documents, backend.index.stats.postings

    before = counts(materialize(prepared, config))
    backend = materialize(prepared, config)
    pipeline = IngestPipeline(backend)
    for add_docs, delete_docs in batches(corpus):
        pipeline.apply(adds=add_docs, deletes=delete_docs)
    assert counts(backend) != before
    assert counts(materialize(prepared, config)) == before


def test_sharded_dictionary_statistics_stay_global(prepared, corpus, config):
    """Every shard's entry for a term carries the *global* df/ctf."""
    backend = materialize(prepared, config, shards=2, replicas=1)
    pipeline = IngestPipeline(backend)
    for add_docs, delete_docs in batches(corpus):
        pipeline.apply(adds=add_docs, deletes=delete_docs)
    documents = corpus.documents_for(pipeline.epochs.live_docs())
    reference = fresh_flat_index(config, documents).index
    checked = 0
    for group in backend.replica_groups:
        for machine in group:
            for entry in machine.index.dictionary.entries():
                expected = reference.dictionary.lookup(entry.term)
                if expected is None:
                    assert entry.df == 0, entry.term
                    continue
                assert (entry.df, entry.ctf) == (expected.df, expected.ctf), \
                    entry.term
                checked += 1
    assert checked > 0


def test_compaction_is_invisible_and_reclaims(prepared, corpus, config, queries):
    backend = materialize(prepared, config)
    pipeline = IngestPipeline(backend)
    for add_docs, delete_docs in batches(corpus):
        pipeline.apply(adds=add_docs, deletes=delete_docs)
    before = live_rankings(backend, queries, sharded=False)
    epoch_before = pipeline.epochs.epoch
    summary = pipeline.compact()
    assert summary.tombstones_folded == 4  # 2 batches x 2 deletes
    assert summary.records_rewritten > 0
    assert backend.index.tombstones == set()
    # Compaction publishes no epoch and changes no ranking.
    assert pipeline.epochs.epoch == epoch_before
    assert live_rankings(backend, queries, sharded=False) == before


def test_compaction_requires_a_mneme_backend(prepared, corpus):
    backend = materialize(prepared, config_by_name("btree"))
    with pytest.raises(ConfigError):
        IngestPipeline(backend).compact()


def test_service_ingest_invalidates_exactly_once(
    prepared, corpus, config, queries
):
    service = QueryService(materialize(prepared, config), workers=2)
    requests = [
        TimedRequest(text=t, arrival_ms=0.0, seq=i)
        for i, t in enumerate(queries)
    ]
    service.process(requests, name="warm")
    add_docs, delete_docs = batches(corpus, n=1)[0]
    report = service.ingest(adds=add_docs, deletes=delete_docs)
    assert report.epoch == 1
    assert service.stats.ingests == 1
    assert service.cache.stats.invalidations == 1
    # The first post-ingest pass re-evaluates (misses), and matches the
    # rebuild of the new corpus.
    run = service.process(requests, name="post-ingest")
    assert all(row.outcome != "hit" for row in run.served)
    documents = corpus.documents_for(
        service.ingest_pipeline.epochs.live_docs()
    )
    reference = reference_rankings(config, documents, queries)
    assert all(
        row.result.ranking == reference[row.text] for row in run.served
    )
    # Compaction never touches the cache: the next pass is all hits.
    service.compact()
    assert service.stats.compactions == 1
    assert service.cache.stats.invalidations == 1
    again = service.process(requests, name="post-compaction")
    assert all(row.outcome == "hit" for row in again.served)
    assert all(
        row.result.ranking == reference[row.text] for row in again.served
    )


def test_closed_service_refuses_mutations(prepared, corpus, config):
    service = QueryService(materialize(prepared, config))
    service.close()
    add_docs, _ = batches(corpus, n=1)[0]
    with pytest.raises(ServiceUnavailableError):
        service.ingest(adds=add_docs)
    with pytest.raises(ServiceUnavailableError):
        service.compact()


def test_ingest_after_rebalance_publishes_on_the_new_topology(
    prepared, corpus, config, queries
):
    # A split after an ingest carries the ingested corpus to the
    # children, and the pipeline reads the topology at every batch, so
    # the next batch routes to the four children and publishes whole.
    service = QueryService(
        materialize(prepared, config, shards=2, replicas=1), workers=2
    )
    requests = [
        TimedRequest(text=t, arrival_ms=0.0, seq=i)
        for i, t in enumerate(queries)
    ]

    def served():
        run = service.process(requests)
        return {row.text: row.result.ranking for row in run.served}

    for step, (add_docs, delete_docs) in enumerate(batches(corpus, n=2)):
        report = service.ingest(adds=add_docs, deletes=delete_docs)
        assert report.epoch == step + 1
        assert report.groups_verified == service.backend.n_shards
        documents = corpus.documents_for(
            service.ingest_pipeline.epochs.live_docs()
        )
        reference = reference_rankings(config, documents, queries)
        assert served() == reference
        if step == 0:
            service.rebalance(2)
            assert service.backend.n_shards == 4
            assert served() == reference
    assert service.stats.ingests == 2
    assert service.cache.stats.invalidations == 3
