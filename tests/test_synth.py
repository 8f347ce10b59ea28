import numpy as np
import pytest

from curioseq import synth as S
from curioseq.vocab import EOS_ID, PAD_ID


def small_spec(**kw):
    defaults = dict(
        nouns=("box", "tree", "dog", "cat"),
        adjectives=("red", "tall"),
        verbs=("standing", "sitting"),
        objects_per_scene=2,
        regions=4,
        feature_dim=8,
        seed=11,
    )
    defaults.update(kw)
    return S.GrammarSpec(**defaults)


def test_same_seed_same_corpus():
    spec = small_spec()
    scenes_a, vocab_a = S.synth_generate(spec, 12)
    scenes_b, vocab_b = S.synth_generate(spec, 12)
    assert vocab_a.index_to_token == vocab_b.index_to_token
    for a, b in zip(scenes_a, scenes_b):
        assert a.scene_id == b.scene_id
        assert (a.features == b.features).all()
        assert a.references == b.references


def test_different_seed_differs():
    a, _ = S.synth_generate(small_spec(seed=1), 10)
    b, _ = S.synth_generate(small_spec(seed=2), 10)
    assert any((x.features != y.features).any() for x, y in zip(a, b))


def test_zero_noise_same_object_set_identical_features():
    # with exactly as many nouns as objects per scene, every scene shares the
    # same latent set, so sigma=0 forces identical features
    spec = small_spec(nouns=("box", "tree"), objects_per_scene=2, noise_sigma=0.0)
    scenes, _ = S.synth_generate(spec, 6)
    base = scenes[0].features
    for scene in scenes[1:]:
        assert (scene.features == base).all()


def test_references_mention_exactly_the_latent_objects():
    spec = small_spec(objects_per_scene=3, nouns=("box", "tree", "dog", "cat", "car"),
                      noise_sigma=0.0)
    scenes, vocab = S.synth_generate(spec, 50)
    noun_set = set(spec.nouns)
    for scene in scenes:
        # noise-free features carry exact one-hot signatures of the latents
        latents = {spec.nouns[int(np.argmax(row))] for row in scene.features}
        assert len(latents) == 3
        for ref in scene.references:
            words = set(vocab.decode_text(ref))
            assert words & noun_set == latents


def test_reference_shape_invariants():
    scenes, _ = S.synth_generate(small_spec(), 8)
    for scene in scenes:
        for ref in scene.references:
            assert ref[-1] == EOS_ID
            assert PAD_ID not in ref


def test_vocabulary_covers_all_generated_tokens():
    spec = small_spec()
    scenes, vocab = S.synth_generate(spec, 20)
    from curioseq.vocab import UNK_ID
    for scene in scenes:
        for ref in scene.references:
            assert UNK_ID not in ref


def test_split_is_seed_disjoint_but_shares_vocab():
    spec = small_spec()
    train, val, vocab = S.synth_split(spec, 6, 3)
    assert len(train) == 6 and len(val) == 3
    assert {s.scene_id for s in train}.isdisjoint({s.scene_id for s in val})
    retrain, reval, revocab = S.synth_split(spec, 6, 3)
    assert vocab.index_to_token == revocab.index_to_token
    assert all((a.features == b.features).all() for a, b in zip(val, reval))


def test_invalid_spec_rejected():
    with pytest.raises(S.GrammarError):
        small_spec(objects_per_scene=99)
    with pytest.raises(S.GrammarError, match="regions must be >= objects_per_scene"):
        # a reference would name an object that no region carries
        small_spec(objects_per_scene=3, regions=2)
    with pytest.raises(S.GrammarError):
        small_spec(feature_dim=1)
    with pytest.raises(S.GrammarError):
        small_spec(templates=("the {color} {noun} .",))
    with pytest.raises(S.GrammarError):
        S.synth_generate(small_spec(), 0)
    for seed in (-1, 1.5, "3", None, True):
        # a seed is an int >= 0: numpy would reject -1 and the non-ints at
        # synthesis with its own errors, and take True as seed 1
        with pytest.raises(S.GrammarError, match="seed"):
            small_spec(seed=seed)


@pytest.mark.parametrize("field,value", [("nouns", "box"), ("verbs", 5),
                                         ("templates", ["the {noun} .", 3])])
def test_word_lists_must_be_lists_of_strings(field, value):
    with pytest.raises(S.GrammarError, match=field):
        small_spec(**{field: value})


def test_word_lists_are_kept_as_tuples():
    spec = small_spec(nouns=["box", "tree", "dog", "cat"])
    assert spec.nouns == ("box", "tree", "dog", "cat")


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_non_finite_noise_rejected(sigma):
    with pytest.raises(S.GrammarError, match="noise_sigma"):
        small_spec(noise_sigma=sigma)


@pytest.mark.parametrize("field,value", [("noise_sigma", True), ("noise_sigma", "0.1"),
                                         ("generic_bias", False), ("generic_bias", None)])
def test_float_fields_must_be_numbers(field, value):
    with pytest.raises(S.GrammarError, match=f"{field} must be a number"):
        small_spec(**{field: value})


@pytest.mark.parametrize("seed", [0, 7919, 1])
def test_a_longer_val_split_starts_with_the_shorter_one(seed):
    # the val stream has its own seed: the first scenes of a 1,000-scene val
    # split are the whole of a 50-scene one, whatever the train split's size
    spec = S.GrammarSpec(seed=seed)
    _, short, _ = S.synth_split(spec, 1, 50)
    _, long, _ = S.synth_split(spec, 1, 1000)
    assert len(long) == 1000
    for a, b in zip(short, long[:50], strict=True):
        assert a.scene_id == b.scene_id
        assert (a.features == b.features).all()
        assert a.references == b.references
