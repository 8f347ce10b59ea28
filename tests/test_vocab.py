import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curioseq import vocab as V


def test_reserved_tokens_have_fixed_indices():
    vocab = V.Vocabulary(["cat", "dog"])
    assert vocab.token_to_index[V.PAD] == 0
    assert vocab.token_to_index[V.BOS] == 1
    assert vocab.token_to_index[V.EOS] == 2
    assert vocab.token_to_index[V.UNK] == 3
    assert vocab.size == 6


def test_unknown_token_round_trips_as_unk():
    vocab = V.Vocabulary(["known"])
    assert vocab.decode(vocab.encode(["mystery"])) == [V.UNK]


def test_decode_out_of_range():
    vocab = V.Vocabulary(["x"])
    with pytest.raises(V.CorpusError):
        vocab.decode([vocab.size])
    with pytest.raises(V.CorpusError):
        vocab.decode([-1])


@given(st.lists(st.sampled_from(["sun", "moon", "star", "sky", "sea"]),
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_round_trip_property(tokens):
    vocab = V.Vocabulary(["sun", "moon", "star", "sky", "sea"])
    assert vocab.decode(vocab.encode(tokens)) == tokens


def test_tokenize_lowercases_and_keeps_punctuation():
    assert V.tokenize("The cat, sat.") == ["the", "cat", ",", "sat", "."]
    assert V.tokenize("") == []


def test_save_and_load(tmp_path):
    vocab = V.Vocabulary(["beta", "alpha"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = V.Vocabulary.load(path)
    assert loaded.index_to_token == vocab.index_to_token


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("not\na\nvocab\nfile\n")
    with pytest.raises(V.CorpusError):
        V.Vocabulary.load(path)


def test_decode_text_strips_control_tokens():
    vocab = V.Vocabulary(["word"])
    ids = [V.BOS_ID] + vocab.encode(["word"]) + [V.EOS_ID]
    assert vocab.decode_text(ids) == ["word"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_fuzzed_vocabulary_file_raises_only_corpus_error(fuzz_dir, raw):
    path = fuzz_dir / "vocab.txt"
    for content in (raw, "\n".join(V.RESERVED).encode() + b"\n" + raw):
        path.write_bytes(content)
        try:
            V.Vocabulary.load(path)
        except V.CorpusError:
            pass
