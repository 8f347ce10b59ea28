"""Scenes, binary feature files and JSON dataset manifests.

A manifest lists scene ids, per-scene feature file paths and reference texts,
plus the vocabulary file the references are encoded with. Feature files are
binary: a little-endian uint32 (m, E) header followed by m*E row-major
float64 values.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .vocab import EOS_ID, PAD_ID, CorpusError, Vocabulary, tokenize

MANIFEST_VERSION = 1
_FEATURE_HEADER = struct.Struct("<II")


class DatasetError(ValueError):
    """Raised for missing files, malformed manifests or inconsistent shapes."""


@dataclass
class Scene:
    """One training sample: region features plus reference token sequences."""

    scene_id: str
    features: np.ndarray                      # (m, E) float64
    references: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise DatasetError(f"scene {self.scene_id!r}: features must be (m>=1, E>=1)")
        if not np.isfinite(self.features).all():
            raise DatasetError(f"scene {self.scene_id!r}: features contain NaN or inf")
        if not self.references:
            raise DatasetError(f"scene {self.scene_id!r}: needs at least one reference")
        for ref in self.references:
            if not ref:
                raise DatasetError(f"scene {self.scene_id!r}: empty reference")
            if ref[-1] != EOS_ID:
                raise DatasetError(f"scene {self.scene_id!r}: reference must end with <eos>")
            if PAD_ID in ref:
                raise DatasetError(f"scene {self.scene_id!r}: reference contains <pad>")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def write_features(path, features: np.ndarray) -> None:
    arr = np.ascontiguousarray(features, dtype="<f8")
    if arr.ndim != 2:
        raise DatasetError("feature array must be 2-d")
    with open(path, "wb") as fh:
        fh.write(_FEATURE_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_features(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:
        raise DatasetError(f"cannot read feature file {path}: {exc}") from exc
    if len(raw) < _FEATURE_HEADER.size:
        raise DatasetError(f"feature file {path} is too short for its header")
    m, e = _FEATURE_HEADER.unpack_from(raw)
    expected = _FEATURE_HEADER.size + m * e * 8
    if len(raw) != expected:
        raise DatasetError(f"feature file {path}: expected {expected} bytes, found {len(raw)}")
    features = np.frombuffer(raw, dtype="<f8", offset=_FEATURE_HEADER.size).reshape(m, e)
    if not np.isfinite(features).all():
        raise DatasetError(f"feature file {path} contains NaN or inf")
    return features.astype(np.float64)


@dataclass
class LoadedDataset:
    scenes: list[Scene]
    vocab: Vocabulary
    feature_dim: int


def write_manifest(path, scenes: Sequence[tuple[str, str, list[str]]],
                   vocab_path: str, feature_dim: int) -> None:
    """scenes: (scene id, feature file path relative to manifest, reference texts)."""
    doc = {
        "version": MANIFEST_VERSION,
        "feature_dim": feature_dim,
        "vocabulary": vocab_path,
        "scenes": [
            {"id": sid, "features": feat, "references": refs}
            for sid, feat, refs in scenes
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require(doc, key: str, where: str, kind: type):
    if not isinstance(doc, dict) or key not in doc:
        raise DatasetError(f"{where} has no {key!r}")
    if not isinstance(doc[key], kind):
        raise DatasetError(f"{where}: {key!r} must be a {kind.__name__}")
    return doc[key]


def load_dataset(manifest_path, t_max: int) -> LoadedDataset:
    """Load every scene of a manifest, each reference cut to t_max tokens
    with its <eos>. A t_max that is not an int >= 1, any fault of the
    manifest, of the files it names or of their contents, and a scene id
    that two entries share, raise DatasetError."""
    if type(t_max) is not int or t_max < 1:
        raise DatasetError(f"t_max must be an int >= 1, got {t_max!r}")
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"manifest {manifest_path} is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DatasetError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    except ValueError as exc:       # a NUL byte in the path
        raise DatasetError(f"cannot read manifest {str(manifest_path)!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise DatasetError(f"manifest {manifest_path} has unsupported version")
    where = f"manifest {manifest_path}"
    entries = _require(doc, "scenes", where, list)
    if not entries:
        raise DatasetError(f"manifest {manifest_path} lists no scenes")
    feature_dim = doc.get("feature_dim")
    if feature_dim is not None and (type(feature_dim) is not int or feature_dim < 1):
        raise DatasetError(f"{where}: 'feature_dim' must be a positive int")
    base = manifest_path.parent
    try:
        vocab = Vocabulary.load(base / _require(doc, "vocabulary", where, str))
    except CorpusError as exc:
        raise DatasetError(str(exc)) from exc

    scenes: list[Scene] = []
    first_entry: dict[str, int] = {}
    for n, entry in enumerate(entries):
        where = f"manifest {manifest_path} scene entry {n}"
        sid = _require(entry, "id", where, str)
        if first_entry.setdefault(sid, n) != n:
            raise DatasetError(f"{where} repeats the id {sid!r} of scene entry "
                               f"{first_entry[sid]}")
        feat_path = base / _require(entry, "features", where, str)
        if not feat_path.exists():
            raise DatasetError(f"scene {sid!r}: feature file {feat_path} is missing")
        feats = read_features(feat_path)
        if feature_dim is None:
            feature_dim = feats.shape[1]
        elif feats.shape[1] != feature_dim:
            raise DatasetError(
                f"scene {sid!r}: feature dimension {feats.shape[1]} != dataset dimension {feature_dim}"
            )
        refs = []
        for text in _require(entry, "references", where, list):
            if not isinstance(text, str):
                raise DatasetError(f"scene {sid!r}: reference {text!r} is not text")
            tokens = tokenize(text)
            if not tokens:
                raise DatasetError(f"scene {sid!r}: empty reference text")
            ids = vocab.encode(tokens)[: t_max - 1] + [EOS_ID]
            refs.append(ids)
        scenes.append(Scene(scene_id=sid, features=feats, references=refs))
    return LoadedDataset(scenes=scenes, vocab=vocab, feature_dim=feature_dim)
