"""Unit tests for synthetic term strings."""

import pytest
from hypothesis import given, strategies as st

from repro.inquery import tokenize
from repro.synth import term_rank, term_string, term_strings


def test_first_terms():
    assert term_string(0) == "wa"
    assert term_string(1) == "wb"
    assert term_string(25) == "wz"
    assert term_string(26) == "wba"


def test_roundtrip_samples():
    for rank in (0, 25, 26, 675, 676, 123456):
        assert term_rank(term_string(rank)) == rank


@given(rank=st.integers(min_value=0, max_value=10**9))
def test_roundtrip_property(rank):
    assert term_rank(term_string(rank)) == rank


@given(a=st.integers(min_value=0, max_value=10**6), b=st.integers(min_value=0, max_value=10**6))
def test_unique(a, b):
    if a != b:
        assert term_string(a) != term_string(b)


def test_negative_rejected():
    with pytest.raises(ValueError):
        term_string(-1)


def test_bad_term_rejected():
    with pytest.raises(ValueError):
        term_rank("xavier")
    with pytest.raises(ValueError):
        term_rank("w")


def test_terms_survive_tokenizer():
    for rank in (0, 100, 99999):
        term = term_string(rank)
        assert tokenize(term) == [term]


@given(ranks=st.lists(st.integers(min_value=0, max_value=10**12), max_size=60))
def test_term_strings_match_the_scalar_oracle(ranks):
    assert term_strings(ranks) == [term_string(rank) for rank in ranks]


def test_term_strings_digit_boundaries():
    ranks = [0, 25, 26, 675, 676, 17575, 17576, 456975, 456976]
    assert term_strings(ranks) == [term_string(rank) for rank in ranks]
    with pytest.raises(ValueError):
        term_strings([3, -1])
