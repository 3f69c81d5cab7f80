"""An INQUERY-style probabilistic full-text retrieval engine.

Tokenizer, stop list, stemmer, open-chaining hash dictionary, compressed
inverted list records, sort-based indexer, structured query language,
Bayesian inference network evaluation, and recall/precision metrics.
The inverted file index is stored through either the custom B-tree
package or the Mneme persistent object store (:mod:`.invfile`).
"""

from .bounds import (
    PrunableSource,
    belief_bound,
    decode_chunk_bounds,
    encode_chunk_bounds,
)
from .daat import DAATResult, DocumentAtATimeEngine
from .dictionary import HashDictionary, TermEntry
from .documents import Document, DocTable
from .engine import DEFAULT_TOP_K, QueryResult, RetrievalEngine
from .evalir import (
    QueryEvaluation,
    RECALL_POINTS,
    SetEvaluation,
    evaluate_ranking,
    evaluate_run,
)
from .indexer import (
    CollectionIndex,
    DeleteCheck,
    IndexBuilder,
    IndexStats,
    add_documents_incremental,
    check_addable,
    fold_tombstones,
    tombstone_document_incremental,
)
from .invfile import (
    BTreeInvertedFile,
    BufferSizes,
    InvertedFileStore,
    LARGE_POOL,
    LinkedMnemeInvertedFile,
    MEDIUM_MAX_BYTES,
    MEDIUM_POOL,
    MnemeInvertedFile,
    SMALL_MAX_BYTES,
    SMALL_POOL,
)
from .network import BeliefTable, DEFAULT_BELIEF, InferenceNetwork, TermProvider
from .normalize import (
    STOPPED_TERM,
    canonical_query_key,
    normalize_term,
    normalize_tree,
    render_canonical,
)
from .postings import (
    Posting,
    RecordHeader,
    decode_header,
    decode_record,
    drop_documents,
    encode_record,
    join_columns,
    merge_records,
    split_columns,
    uncompressed_size,
    vbyte_decode,
    vbyte_encode,
    vbyte_length,
)
from .query import (
    OpNode,
    QueryNode,
    TermNode,
    count_nodes,
    format_query,
    parse_query,
    query_terms,
)
from .stem import stem
from .streams import (
    ChunkedRecordStream,
    FaultTolerantStream,
    PostingStream,
    WholeRecordStream,
    merge_streams,
)
from .stopwords import DEFAULT_STOPWORDS, is_stopword
from .text import tokenize

__all__ = [
    "BTreeInvertedFile",
    "ChunkedRecordStream",
    "FaultTolerantStream",
    "DAATResult",
    "DocumentAtATimeEngine",
    "LinkedMnemeInvertedFile",
    "PostingStream",
    "WholeRecordStream",
    "join_columns",
    "merge_streams",
    "split_columns",
    "BeliefTable",
    "BufferSizes",
    "CollectionIndex",
    "DeleteCheck",
    "DEFAULT_BELIEF",
    "DEFAULT_STOPWORDS",
    "DEFAULT_TOP_K",
    "PrunableSource",
    "belief_bound",
    "decode_chunk_bounds",
    "encode_chunk_bounds",
    "DocTable",
    "Document",
    "HashDictionary",
    "IndexBuilder",
    "IndexStats",
    "InferenceNetwork",
    "InvertedFileStore",
    "LARGE_POOL",
    "MEDIUM_MAX_BYTES",
    "MEDIUM_POOL",
    "MnemeInvertedFile",
    "OpNode",
    "Posting",
    "QueryEvaluation",
    "QueryNode",
    "QueryResult",
    "RECALL_POINTS",
    "RecordHeader",
    "RetrievalEngine",
    "SMALL_MAX_BYTES",
    "SMALL_POOL",
    "STOPPED_TERM",
    "SetEvaluation",
    "TermEntry",
    "TermNode",
    "TermProvider",
    "add_documents_incremental",
    "canonical_query_key",
    "check_addable",
    "count_nodes",
    "decode_header",
    "decode_record",
    "encode_record",
    "evaluate_ranking",
    "evaluate_run",
    "fold_tombstones",
    "format_query",
    "is_stopword",
    "merge_records",
    "normalize_term",
    "normalize_tree",
    "parse_query",
    "query_terms",
    "drop_documents",
    "render_canonical",
    "stem",
    "tokenize",
    "tombstone_document_incremental",
    "uncompressed_size",
    "vbyte_decode",
    "vbyte_encode",
    "vbyte_length",
]
