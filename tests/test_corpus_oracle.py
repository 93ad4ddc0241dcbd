"""The Zipf corpus against numpy, whose draw it reproduces: numpy is the
oracle here and nowhere in the program."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonpipe.harness import generate_zipf_corpus


def numpy_corpus(vocab_size, exponent, n_samples, seed):
    """The draw `generate_zipf_corpus` made while it used numpy."""
    weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return (rng.choice(vocab_size, size=n_samples, p=weights).astype(np.int64) + 1).tolist()


@settings(max_examples=100, deadline=None)
@given(
    vocab_size=st.integers(1, 20_000),
    exponent=st.floats(0, 4, exclude_min=True),
    n_samples=st.integers(0, 5_000),
    seed=st.integers(0, 2**130),
)
def test_corpus_is_numpys_draw(vocab_size, exponent, n_samples, seed):
    corpus = generate_zipf_corpus(vocab_size, exponent, n_samples, seed)
    assert corpus.tolist() == numpy_corpus(vocab_size, exponent, n_samples, seed)


@pytest.mark.parametrize("vocab_size, exponent, n_samples, seed", [
    (100_000, 1.1, 5_000, 0),
    (100_000, 0.7, 2_000, 2**64 + 1),
    (1_000_000, 1.0, 5_000, 2**129 + 7),
])
def test_corpus_is_numpys_draw_over_a_large_vocabulary(vocab_size, exponent, n_samples, seed):
    corpus = generate_zipf_corpus(vocab_size, exponent, n_samples, seed)
    assert corpus.tolist() == numpy_corpus(vocab_size, exponent, n_samples, seed)


@pytest.mark.parametrize("vocab_size, exponent, n_samples, seed", [
    (100, 1.1, -1, 0),  # a negative sample count
    (100, 1.1, 10, -1),  # a negative seed
    (100, 1.1, 0, -1),
    (100, 1.1, 10, -(2**130)),
    (100, math.nan, 10, 0),  # a NaN exponent
    (0, 1.1, 0, 0),  # an empty vocabulary
])
def test_corpus_raises_where_numpy_raises(vocab_size, exponent, n_samples, seed):
    with pytest.raises(ValueError):
        numpy_corpus(vocab_size, exponent, n_samples, seed)
    with pytest.raises(ValueError):
        generate_zipf_corpus(vocab_size, exponent, n_samples, seed)
