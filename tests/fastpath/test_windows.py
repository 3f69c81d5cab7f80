"""Vectorized position-window kernels vs. the reference merges.

:func:`repro.fastpath.windows.match_counts_for_docs` must reproduce
:func:`repro.inquery.network._match_count` bit for bit on every
document of its batch — the phrase branch's ``set()`` deduplication,
the ordered/unordered branches' duplicate counting, window size 1,
windows wider than any document, and no match leaking across the
packed-key boundary between neighbouring documents.  Checked over
random position lists at the kernel level, and end-to-end through the
query service.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings, strategies as st

from repro.core import config_by_name, materialize, prepare_collection
from repro.fastpath import use_fastpath
from repro.fastpath.codec import RecordArrays
from repro.fastpath.windows import match_counts_for_docs
from repro.inquery.network import _match_count
from repro.serve import QueryService
from repro.synth import CollectionProfile, SyntheticCollection
from repro.synth.traffic import TimedRequest
from repro.synth.vocab import term_string

positions_st = st.lists(
    st.integers(min_value=0, max_value=30), min_size=0, max_size=12
)
# Duplicate-heavy lists: a tiny position range forces repeats.
dup_positions_st = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=10
)
lists_st = st.lists(positions_st, min_size=1, max_size=4)
window_st = st.integers(min_value=1, max_value=8)


def record_arrays(by_doc):
    """A :class:`RecordArrays` holding ``{doc_id: positions}`` as given
    (unsorted and duplicate positions kept)."""
    doc_ids = sorted(by_doc)
    tf = np.array([len(by_doc[d]) for d in doc_ids], dtype=np.int64)
    positions = np.array(
        [p for d in doc_ids for p in by_doc[d]], dtype=np.int64
    )
    pos_starts = np.cumsum(tf) - tf
    return RecordArrays(
        np.array(doc_ids, dtype=np.int64), tf, positions, pos_starts
    )


def kernel_counts(docs, ordered, window):
    """The batched kernel over ``docs`` (one list of per-term position
    lists per document), one count per document."""
    common = np.arange(len(docs), dtype=np.int64)
    term_arrays = [
        record_arrays({d: doc[t] for d, doc in enumerate(docs)})
        for t in range(len(docs[0]))
    ]
    counts = match_counts_for_docs(term_arrays, common, ordered, window)
    assert counts.dtype == np.int64
    return counts.tolist()


def reference_counts(docs, ordered, window):
    return [
        _match_count([tuple(p) for p in lists], ordered, window)
        for lists in docs
    ]


# -- match_counts_for_docs vs. the reference position merge -------------------


@given(lists=lists_st, ordered=st.booleans(), window=window_st)
@settings(max_examples=300, deadline=None)
def test_match_count_matches_reference(lists, ordered, window):
    expected = _match_count([tuple(p) for p in lists], ordered, window)
    assert kernel_counts([lists], ordered, window) == [expected]


@given(lists=st.lists(dup_positions_st, min_size=1, max_size=3), ordered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_match_count_duplicates_window_one(lists, ordered):
    # window=1 selects the exact-phrase branch when ordered — the one
    # place the reference deduplicates the first term's positions.
    expected = _match_count([tuple(p) for p in lists], ordered, 1)
    assert kernel_counts([lists], ordered, 1) == [expected]


def test_match_count_empty_list_is_zero():
    assert kernel_counts([[[1, 2], []]], ordered=True, window=1) == [0]
    assert kernel_counts([[[1, 2], []]], ordered=False, window=5) == [0]
    assert _match_count([(1, 2), ()], True, 1) == 0


@st.composite
def multi_doc_st(draw):
    """Several documents' per-term position lists.

    Lanes may be empty (a term with no positions in one document);
    positions may repeat and arrive unsorted; and every document may
    reach both ends of the position range, so the last position of one
    document meets the first of the next at the key-packing boundary.
    """
    n_terms = draw(st.integers(min_value=1, max_value=4))
    top = draw(st.sampled_from([3, 12, 40]))
    edge = st.sampled_from([0, top])
    lane = st.lists(
        st.one_of(edge, st.integers(min_value=0, max_value=top)),
        min_size=0, max_size=8,
    )
    return draw(st.lists(
        st.lists(lane, min_size=n_terms, max_size=n_terms),
        min_size=1, max_size=6,
    ))


# Document 0 ends with the first term at its last position and
# document 1 starts with the second term at position 0: adjacent once
# packed, unless the stride keeps documents a window apart.
BOUNDARY = [[[0, 9], [0]], [[0], [0, 1]]]


@given(
    docs=multi_doc_st(),
    ordered=st.booleans(),
    window=st.one_of(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=40, max_value=2**70),
    ),
)
@example(docs=BOUNDARY, ordered=True, window=1)
@example(docs=BOUNDARY, ordered=True, window=3)
@example(docs=BOUNDARY, ordered=False, window=2)
@example(docs=BOUNDARY, ordered=False, window=10**6)
@settings(max_examples=300, deadline=None)
def test_batched_counts_match_reference_per_document(docs, ordered, window):
    assert kernel_counts(docs, ordered, window) == reference_counts(
        docs, ordered, window
    )


def test_no_common_documents_yield_an_empty_int64_column():
    empty = record_arrays({})
    counts = match_counts_for_docs(
        [empty, empty], np.empty(0, dtype=np.int64), ordered=True, window=1
    )
    assert counts.dtype == np.int64 and counts.size == 0


# -- windows beyond int64 through the service --------------------------------

TINY = CollectionProfile(
    name="tiny-windows", models="test", documents=60, mean_doc_length=40,
    doc_length_sigma=0.5, vocab_size=400, seed=43,
)


@pytest.fixture(scope="module")
def prepared():
    return prepare_collection(SyntheticCollection(TINY))


@pytest.mark.parametrize("op, exponent", [("od", 63), ("uw", 70)])
def test_huge_window_serves_identically_on_both_arms(prepared, op, exponent):
    # The window is clamped to the positions' span + 1 inside the
    # kernel, so a window past int64 neither overflows nor changes the
    # answer.
    text = f"#{op}{2 ** exponent}( {term_string(0)} {term_string(1)} )"
    rankings = []
    for fast in (False, True):
        with use_fastpath(fast):
            service = QueryService(
                materialize(prepared, config_by_name("mneme-cache"))
            )
            report = service.process([TimedRequest(text=text, arrival_ms=0.0)])
        (served,) = report.served
        assert served.result.ranking
        rankings.append(served.result.ranking)
    assert rankings[0] == rankings[1]
