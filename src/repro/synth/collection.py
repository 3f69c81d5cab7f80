"""Synthetic document collections.

The paper's collections (CACM, the private Legal collection, TIPSTER
parts 1 and 2) are not available, and at their original sizes a pure
Python build would take hours.  Each profile below is a scaled stand-in
that preserves the properties every result in the paper depends on:

* Zipf-Mandelbrot term frequencies — half the vocabulary occurs once or
  twice (tiny inverted lists), a handful of terms dominate the token
  mass (multi-hundred-KB lists): the Figure 1 shape;
* document lengths matching the flavour of the original (short CACM
  abstracts vs long legal case descriptions);
* deterministic generation from a seed, so every benchmark run sees the
  same collection.

Scale factors are recorded in each profile so EXPERIMENTS.md can relate
measured sizes back to Table 1.
"""

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..errors import ConfigError
from ..inquery import Document
from .vocab import term_string
from .zipf import ZipfSampler


@dataclass(frozen=True)
class CollectionProfile:
    """Shape parameters of one synthetic collection."""

    name: str
    models: str             #: which paper collection this stands in for
    documents: int
    mean_doc_length: int    #: tokens per document (lognormal mean)
    doc_length_sigma: float  #: lognormal shape (0 = fixed length)
    vocab_size: int         #: size of the underlying term universe
    zipf_s: float = 1.05
    zipf_q: float = 2.0
    seed: int = 93


#: Scaled stand-ins for the paper's four collections (Table 1).
PROFILES: Dict[str, CollectionProfile] = {
    "cacm-s": CollectionProfile(
        name="cacm-s", models="CACM (3204 abstracts)",
        documents=1200, mean_doc_length=50, doc_length_sigma=0.5,
        vocab_size=12000, seed=101,
    ),
    "legal-s": CollectionProfile(
        name="legal-s", models="Legal (11953 case descriptions)",
        documents=2500, mean_doc_length=240, doc_length_sigma=0.6,
        vocab_size=60000, seed=102,
    ),
    "tipster1-s": CollectionProfile(
        name="tipster1-s", models="TIPSTER part 1 (510887 articles)",
        documents=6000, mean_doc_length=160, doc_length_sigma=0.55,
        vocab_size=120000, seed=103,
    ),
    "tipster-s": CollectionProfile(
        name="tipster-s", models="TIPSTER parts 1+2 (742358 articles)",
        documents=10000, mean_doc_length=170, doc_length_sigma=0.55,
        vocab_size=160000, seed=104,
    ),
}


class SyntheticCollection:
    """A generated collection: per-document token-rank arrays.

    Tokens are 0-based term ranks (rank 0 = most frequent term); the
    string form is :func:`~repro.synth.vocab.term_string` of the rank.
    """

    def __init__(self, profile: CollectionProfile):
        self.profile = profile
        rng = np.random.default_rng(profile.seed)
        self.doc_lengths = self._draw_lengths(rng, profile)
        sampler = ZipfSampler(
            profile.vocab_size, profile.zipf_s, profile.zipf_q,
            seed=profile.seed + 1,
        )
        all_tokens = sampler.sample(int(self.doc_lengths.sum()))
        boundaries = np.cumsum(self.doc_lengths)[:-1]
        self.doc_tokens: List[np.ndarray] = np.split(all_tokens, boundaries)

    @staticmethod
    def _draw_lengths(rng: np.random.Generator, profile: CollectionProfile) -> np.ndarray:
        if profile.documents < 1:
            raise ConfigError("collection needs at least one document")
        if profile.doc_length_sigma <= 0:
            return np.full(profile.documents, profile.mean_doc_length, dtype=np.int64)
        sigma = profile.doc_length_sigma
        mu = np.log(profile.mean_doc_length) - sigma * sigma / 2.0
        lengths = rng.lognormal(mean=mu, sigma=sigma, size=profile.documents)
        return np.maximum(lengths.astype(np.int64), 5)

    @property
    def total_tokens(self) -> int:
        return int(self.doc_lengths.sum())

    def __len__(self) -> int:
        return self.profile.documents

    def term_counts(self) -> np.ndarray:
        """Observed occurrences per term rank (length = vocab size)."""
        return np.bincount(self._tokens(), minlength=self.profile.vocab_size)

    def _tokens(self) -> np.ndarray:
        """Every token rank, document after document."""
        if not self.total_tokens:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.doc_tokens)

    def flat_postings(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """(term rank, doc id, position) arrays over the whole collection.

        Document ids are 1-based.  This is the raw material of the
        indexing sort.
        """
        total = self.total_tokens
        ranks = self._tokens()
        doc_ids = np.repeat(
            np.arange(1, len(self) + 1, dtype=np.int64), self.doc_lengths
        )
        doc_starts = np.cumsum(self.doc_lengths) - self.doc_lengths
        positions = np.arange(total, dtype=np.int64) - np.repeat(
            doc_starts, self.doc_lengths
        )
        return ranks, doc_ids, positions

    def iter_documents(self) -> Iterator[Document]:
        """Documents with string tokens, for the regular indexing path.

        The benchmark harness uses the faster rank-level path
        (:meth:`flat_postings`); this iterator exists so examples can
        exercise the ordinary :class:`~repro.inquery.IndexBuilder` API.
        """
        for doc_index, tokens in enumerate(self.doc_tokens):
            yield Document(
                doc_id=doc_index + 1,
                name=f"{self.profile.name}-{doc_index + 1}",
                tokens=[term_string(rank) for rank in tokens],
            )
