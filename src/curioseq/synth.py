"""Synthetic scene grammar: a deterministic desk-scale stand-in corpus.

Each scene draws a small set of latent objects. Region features carry a
one-hot object signature plus Gaussian noise, and references are template
sentences that mention exactly those objects, so the attention policy has a
recoverable mapping to learn.

The reference distribution is deliberately skewed: most sentences use a
generic template that is identical across scenes, while a minority use
specific templates with each object's bound attribute and verb. Likelihood
training therefore collapses onto the generic phrasing (its n-grams carry
near-zero inverse document frequency), and the scored reward favors it too:
on the seed-0 desk corpus, oracle val paragraphs naming each scene's objects
score a mean 1.95 all generic against 0.79-0.97 all in one specific template.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import Scene
from .vocab import EOS_ID, RESERVED, Vocabulary, tokenize

DEFAULT_NOUNS = (
    "box", "tree", "dog", "cat", "car", "bird", "table", "chair",
    "river", "house", "lamp", "fence",
)
DEFAULT_ADJECTIVES = ("red", "tall", "small", "old", "bright", "quiet", "green", "round")
DEFAULT_VERBS = ("standing", "sitting", "waiting", "resting", "moving", "leaning")
DEFAULT_GENERIC_TEMPLATES = (
    "there is a {noun} .",
)
DEFAULT_SPECIFIC_TEMPLATES = (
    "the {adj} {noun} is {verb} .",
    "a {adj} {noun} is {verb} there .",
    "one {adj} {noun} keeps {verb} nearby .",
)


class GrammarError(ValueError):
    """Raised when a grammar spec cannot produce a consistent corpus."""


@dataclass
class GrammarSpec:
    nouns: tuple[str, ...] = DEFAULT_NOUNS
    adjectives: tuple[str, ...] = DEFAULT_ADJECTIVES
    verbs: tuple[str, ...] = DEFAULT_VERBS
    generic_templates: tuple[str, ...] = DEFAULT_GENERIC_TEMPLATES
    templates: tuple[str, ...] = DEFAULT_SPECIFIC_TEMPLATES
    generic_bias: float = 0.7
    objects_per_scene: int = 3
    regions: int = 8                 # m
    feature_dim: int = 64            # E
    noise_sigma: float = 0.05
    references_per_scene: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("objects_per_scene", "regions", "feature_dim", "references_per_scene"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise GrammarError(f"{name} must be an integer, got {value!r}")
        if self.objects_per_scene < 1 or self.objects_per_scene > len(self.nouns):
            raise GrammarError("objects_per_scene must be in [1, len(nouns)]")
        if self.feature_dim < len(self.nouns):
            raise GrammarError("feature_dim must be at least the number of nouns")
        if self.regions < 1 or self.references_per_scene < 1:
            raise GrammarError("regions and references_per_scene must be >= 1")
        if not 0 <= self.noise_sigma < np.inf:
            raise GrammarError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.generic_bias <= 1.0:
            raise GrammarError("generic_bias must be in [0, 1]")
        if not self.generic_templates or not self.templates:
            raise GrammarError("at least one generic and one specific template required")
        self._check_templates()

    def bound_adjective(self, obj: int) -> str:
        return self.adjectives[obj % len(self.adjectives)]

    def bound_verb(self, obj: int) -> str:
        return self.verbs[obj % len(self.verbs)]

    def _check_templates(self):
        inventory = set(self.token_inventory())
        for tpl in self.generic_templates + self.templates:
            try:
                probe = tpl.format(noun=self.nouns[0], adj=self.adjectives[0],
                                   verb=self.verbs[0])
            except (KeyError, IndexError) as exc:
                raise GrammarError(f"template {tpl!r} uses an unknown slot: {exc}") from exc
            for tok in tokenize(probe):
                if tok not in inventory:
                    raise GrammarError(
                        f"template {tpl!r} produces token {tok!r} outside the vocabulary")

    def token_inventory(self) -> list[str]:
        """All tokens the grammar can emit, sorted."""
        tokens = set(self.nouns) | set(self.adjectives) | set(self.verbs)
        for tpl in self.generic_templates + self.templates:
            stripped = tpl.replace("{noun}", " ").replace("{adj}", " ").replace("{verb}", " ")
            tokens.update(tokenize(stripped))
        tokens -= set(RESERVED)
        return sorted(tokens)


def grammar_vocabulary(spec: GrammarSpec) -> Vocabulary:
    return Vocabulary(spec.token_inventory())


def _scene_features(spec: GrammarSpec, objects: Sequence[int],
                    rng: np.random.Generator) -> np.ndarray:
    feats = np.zeros((spec.regions, spec.feature_dim))
    for j in range(spec.regions):
        feats[j, objects[j % len(objects)]] = 1.0
        noise = rng.standard_normal(spec.feature_dim)
        if spec.noise_sigma > 0:
            feats[j] += spec.noise_sigma * noise
    return feats


def _scene_reference(spec: GrammarSpec, objects: Sequence[int],
                     vocab: Vocabulary, rng: np.random.Generator) -> list[int]:
    sentences = []
    for obj in objects:
        if rng.random() < spec.generic_bias:
            tpl = spec.generic_templates[rng.integers(len(spec.generic_templates))]
        else:
            tpl = spec.templates[rng.integers(len(spec.templates))]
        sentences.append(tpl.format(
            noun=spec.nouns[obj],
            adj=spec.bound_adjective(obj),
            verb=spec.bound_verb(obj),
        ))
    return vocab.encode(tokenize(" ".join(sentences))) + [EOS_ID]


def synth_generate(spec: GrammarSpec, n_scenes: int,
                   id_prefix: str = "scene") -> tuple[list[Scene], Vocabulary]:
    """Generate n_scenes deterministic scenes; a pure function of (spec, seed)."""
    if n_scenes < 1:
        raise GrammarError("n_scenes must be >= 1")
    vocab = grammar_vocabulary(spec)
    rng = np.random.default_rng(spec.seed)
    scenes = []
    for i in range(n_scenes):
        objects = sorted(rng.choice(len(spec.nouns), size=spec.objects_per_scene,
                                    replace=False).tolist())
        feats = _scene_features(spec, objects, rng)
        refs = [_scene_reference(spec, objects, vocab, rng)
                for _ in range(spec.references_per_scene)]
        scenes.append(Scene(scene_id=f"{id_prefix}_{i:04d}", features=feats, references=refs))
    return scenes, vocab


def synth_split(spec: GrammarSpec, n_train: int,
                n_val: int) -> tuple[list[Scene], list[Scene], Vocabulary]:
    """Train plus seed-disjoint held-out scenes sharing one vocabulary."""
    train, vocab = synth_generate(spec, n_train, id_prefix="train")
    val_spec = replace(spec, seed=spec.seed + 7919)
    val, _ = synth_generate(val_spec, n_val, id_prefix="val")
    return train, val, vocab
