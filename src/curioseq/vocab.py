"""Token vocabulary with reserved control tokens."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Sequence

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]")


class CorpusError(ValueError):
    """Raised for malformed vocabulary input."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, keep punctuation marks as tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bidirectional token/index map. Indices 0..3 are the reserved control
    tokens; everything else is a corpus token."""

    def __init__(self, tokens: Sequence[str]):
        self.index_to_token: list[str] = list(RESERVED)
        self.token_to_index: dict[str, int] = {t: i for i, t in enumerate(RESERVED)}
        for tok in tokens:
            if tok in self.token_to_index:
                raise CorpusError(f"duplicate or reserved token {tok!r}")
            self.token_to_index[tok] = len(self.index_to_token)
            self.index_to_token.append(tok)

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    def __len__(self) -> int:
        return self.size

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_to_index.get(t, UNK_ID) for t in tokens]

    def decode(self, indices: Iterable[int]) -> list[str]:
        out = []
        for i in indices:
            i = int(i)
            if not 0 <= i < self.size:
                raise CorpusError(f"index {i} out of range for vocabulary of size {self.size}")
            out.append(self.index_to_token[i])
        return out

    def decode_text(self, indices: Iterable[int]) -> list[str]:
        """Decode and drop control tokens; the surface form of a sequence."""
        return [t for t in self.decode(indices) if t not in RESERVED]

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.index_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except (OSError, ValueError) as exc:    # ValueError: not UTF-8, or a NUL in path
            raise CorpusError(f"cannot read vocabulary file {path}: {exc}") from exc
        if tuple(lines[:4]) != RESERVED:
            raise CorpusError(f"vocabulary file {path} does not start with the reserved tokens")
        return cls(lines[4:])
