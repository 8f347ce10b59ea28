import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curioseq import data as D
from curioseq.vocab import EOS_ID, Vocabulary

T_MAX = 40      # TrainConfig's default


@pytest.fixture
def corpus_dir(tmp_path):
    vocab = Vocabulary(["the", "red", "box", "sits", "here", "."])
    vocab.save(tmp_path / "vocab.txt")
    rng = np.random.default_rng(0)
    entries = []
    for sid in ("s0", "s1"):
        feats = rng.standard_normal((3, 4))
        D.write_features(tmp_path / f"{sid}.bin", feats)
        entries.append((sid, f"{sid}.bin", ["the red box sits here ."]))
    D.write_manifest(tmp_path / "manifest.json", entries, "vocab.txt", 4)
    return tmp_path


def test_feature_file_round_trip(tmp_path):
    feats = np.random.default_rng(1).standard_normal((5, 7))
    path = tmp_path / "f.bin"
    D.write_features(path, feats)
    assert (D.read_features(path) == feats).all()


def test_feature_file_length_validated(tmp_path):
    path = tmp_path / "f.bin"
    D.write_features(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(D.DatasetError):
        D.read_features(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_file_with_non_finite_value_rejected(tmp_path, bad):
    feats = np.ones((2, 3))
    feats[1, 2] = bad
    path = tmp_path / "f.bin"
    D.write_features(path, feats)
    with pytest.raises(D.DatasetError, match="NaN or inf"):
        D.read_features(path)


def test_non_finite_feature_file_names_it_in_manifest_load(corpus_dir):
    D.write_features(corpus_dir / "s1.bin", np.full((3, 4), np.nan))
    with pytest.raises(D.DatasetError, match="s1.bin"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_load_two_scene_manifest(corpus_dir):
    ds = D.load_dataset(corpus_dir / "manifest.json", T_MAX)
    assert len(ds.scenes) == 2
    assert ds.feature_dim == 4
    scene = ds.scenes[0]
    assert scene.scene_id == "s0"
    assert scene.references[0][-1] == EOS_ID
    assert ds.vocab.decode_text(scene.references[0]) == ["the", "red", "box", "sits", "here", "."]


def test_wrong_feature_dimension_names_scene(corpus_dir):
    D.write_features(corpus_dir / "s1.bin", np.ones((3, 9)))
    with pytest.raises(D.DatasetError, match="s1"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_missing_feature_file_names_scene(corpus_dir):
    (corpus_dir / "s0.bin").unlink()
    with pytest.raises(D.DatasetError, match="s0"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_manifest_with_zero_scenes(tmp_path):
    doc = {"version": 1, "feature_dim": 4, "vocabulary": "vocab.txt", "scenes": []}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(D.DatasetError, match="no scenes"):
        D.load_dataset(path, T_MAX)


def test_missing_manifest(tmp_path):
    with pytest.raises(D.DatasetError):
        D.load_dataset(tmp_path / "nope.json", T_MAX)


def test_empty_reference_rejected(corpus_dir):
    doc = json.loads((corpus_dir / "manifest.json").read_text())
    doc["scenes"][0]["references"] = ["   "]
    (corpus_dir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(D.DatasetError, match="s0"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_repeated_scene_id_names_it_and_both_entries(corpus_dir):
    doc = json.loads((corpus_dir / "manifest.json").read_text())
    doc["scenes"].append({**doc["scenes"][0], "references": ["the box ."]})
    (corpus_dir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(D.DatasetError, match=r"scene entry 2 repeats the id 's0' of scene "
                                             r"entry 0$"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_t_max_is_required(corpus_dir):
    with pytest.raises(TypeError, match="t_max"):
        D.load_dataset(corpus_dir / "manifest.json")


@pytest.mark.parametrize("t_max", [0, -3, 2.0, True])
def test_t_max_below_1_or_not_an_int_is_rejected(corpus_dir, t_max):
    # at t_max <= 0, cutting to t_max - 1 words would drop a reference's
    # last 1 - t_max words instead of cutting it to t_max tokens
    with pytest.raises(D.DatasetError, match=r"t_max must be an int >= 1"):
        D.load_dataset(corpus_dir / "manifest.json", t_max)


def test_long_references_truncated_to_t_max(corpus_dir):
    ds = D.load_dataset(corpus_dir / "manifest.json", t_max=4)
    for scene in ds.scenes:
        for ref in scene.references:
            assert len(ref) <= 4
            assert ref[-1] == EOS_ID


class TestSceneValidation:
    def test_features_must_be_2d(self):
        with pytest.raises(D.DatasetError):
            D.Scene("x", np.zeros(3), [[5, EOS_ID]])

    def test_reference_must_end_with_eos(self):
        with pytest.raises(D.DatasetError, match="eos"):
            D.Scene("x", np.zeros((1, 1)), [[5, 6]])

    def test_reference_must_not_contain_pad(self):
        with pytest.raises(D.DatasetError, match="pad"):
            D.Scene("x", np.zeros((1, 1)), [[0, EOS_ID]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_features_must_be_finite(self, bad):
        with pytest.raises(D.DatasetError, match="NaN or inf"):
            D.Scene("x", np.array([[0.5, bad]]), [[5, EOS_ID]])

    def test_needs_references(self):
        with pytest.raises(D.DatasetError, match="reference"):
            D.Scene("x", np.zeros((1, 1)), [])


@pytest.mark.parametrize("key,value", [("scenes", 5), ("vocabulary", 5), ("feature_dim", "4")])
def test_mistyped_manifest_field_raises_dataset_error(corpus_dir, key, value):
    doc = json.loads((corpus_dir / "manifest.json").read_text())
    doc[key] = value
    (corpus_dir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(D.DatasetError, match=key):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


@pytest.mark.parametrize("key,value", [("references", 5), ("references", [5]),
                                       ("features", 5), ("id", ["s0"])])
def test_mistyped_scene_field_raises_dataset_error(corpus_dir, key, value):
    doc = json.loads((corpus_dir / "manifest.json").read_text())
    doc["scenes"][0][key] = value
    (corpus_dir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(D.DatasetError):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_non_utf8_manifest_raises_dataset_error(corpus_dir):
    (corpus_dir / "manifest.json").write_bytes(b'{"version": 1, "id": "\xff"}')
    with pytest.raises(D.DatasetError, match="UTF-8"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


def test_nul_byte_in_manifest_path_raises_dataset_error():
    with pytest.raises(D.DatasetError, match="null byte"):
        D.load_dataset("a\x00b", T_MAX)


def test_bad_vocabulary_file_raises_dataset_error(corpus_dir):
    (corpus_dir / "vocab.txt").write_text("hello\nworld\n")
    with pytest.raises(D.DatasetError, match="reserved"):
        D.load_dataset(corpus_dir / "manifest.json", T_MAX)


# ---------------------------------------------------------------------------
# fuzzing: arbitrary input raises DatasetError and nothing else


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    Vocabulary(["the", "red", "box", "."]).save(base / "vocab.txt")
    D.write_features(base / "s0.bin", np.ones((2, 3)))
    D.write_manifest(base / "manifest.json", [("s0", "s0.bin", ["the red box ."])],
                     "vocab.txt", 3)
    return base


def load_manifest(path):
    return D.load_dataset(path, T_MAX)


def _loads_or_raises_dataset_error(fn, path):
    try:
        fn(path)
    except D.DatasetError:
        pass


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_fuzzed_feature_file_raises_only_dataset_error(fuzz_dir, raw):
    path = fuzz_dir / "fuzz.bin"
    for content in (raw, D._FEATURE_HEADER.pack(len(raw) // 16, 2) + raw):
        path.write_bytes(content)
        _loads_or_raises_dataset_error(D.read_features, path)


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_fuzzed_manifest_bytes_raise_only_dataset_error(fuzz_dir, raw):
    path = fuzz_dir / "fuzz.json"
    path.write_bytes(raw)
    _loads_or_raises_dataset_error(load_manifest, path)


# JSON values whose strings hold no "/", so a path read from them stays in
# the fuzz directory or its parent
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(blacklist_characters="/"), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@given(st.sampled_from(["version", "feature_dim", "vocabulary", "scenes",
                        "scenes.0", "id", "features", "references", "references.0"]),
       _json_values)
@settings(max_examples=300, deadline=None)
def test_fuzzed_manifest_fields_raise_only_dataset_error(fuzz_dir, field, value):
    doc = json.loads((fuzz_dir / "manifest.json").read_text())
    if field in ("version", "feature_dim", "vocabulary", "scenes"):
        doc[field] = value
    elif field == "scenes.0":
        doc["scenes"][0] = value
    elif field == "references.0":
        doc["scenes"][0]["references"][0] = value
    else:
        doc["scenes"][0][field] = value
    path = fuzz_dir / "fuzz.json"
    path.write_text(json.dumps(doc))
    _loads_or_raises_dataset_error(load_manifest, path)
