"""Versioned checkpoint container: a text manifest plus raw little-endian
float64 tensor payloads in one file.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest, then the tensor blobs concatenated in manifest order. The manifest
is serialized with sorted keys so identical contents produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .kernel import Parameter

MAGIC = b"NTCKPT01"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


def save_checkpoint(path, tensors: Mapping[str, np.ndarray], extra: dict | None = None) -> None:
    """Write the checkpoint to a temporary file beside path, then move it
    into place with os.replace: a write that fails part-way leaves the
    previous file at path untouched and no temporary file behind. Each
    tensor is written from its own buffer, without a copy of the payload."""
    names = sorted(tensors)
    arrays = [np.asarray(tensors[name], dtype="<f8", order="C") for name in names]
    entries = [{"name": name, "shape": list(arr.shape)} for name, arr in zip(names, arrays)]
    manifest = {
        "version": FORMAT_VERSION,
        "tensors": entries,
        "extra": extra or {},
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            for arr in arrays:
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and the extra record of the checkpoint at path. The file
    is read once into a writable buffer, and each tensor is a writable,
    aligned float64 array over it, converted only on a big-endian host.
    The table names each tensor once, and its tensors end where the file
    does; anything else raises CheckpointError."""
    path = Path(path)
    start = len(MAGIC) + 8
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(start)
            fh.seek(0)
            # the file sits in buf at the shift that puts the tensors, which
            # follow the manifest, at a multiple of 8 bytes
            shift = -(start + int.from_bytes(head[len(MAGIC):], "little")) % 8
            buf = memoryview(bytearray(shift + size))
            raw = buf[shift:shift + fh.readinto(buf[shift:])]
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < start or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    (manifest_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    if start + manifest_len > len(raw):
        raise CheckpointError(f"{path} has a manifest length past the end of the file")
    try:
        manifest = json.loads(str(raw[start:start + manifest_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path} has a corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path} has a manifest that is not an object")
    if manifest.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has unsupported format version {manifest.get('version')!r}"
        )
    entries = manifest.get("tensors")
    extra = manifest.get("extra", {})
    if not isinstance(entries, list) or not all(map(_valid_entry, entries)):
        raise CheckpointError(f"{path} has a malformed tensor table")
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path} has a malformed 'extra' field")
    tensors: dict[str, np.ndarray] = {}
    offset = start + manifest_len
    for entry in entries:
        if entry["name"] in tensors:
            raise CheckpointError(f"{path} names tensor {entry['name']!r} twice")
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path} is truncated at tensor {entry['name']!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        tensors[entry["name"]] = arr.astype(np.float64, copy=False)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path} has {len(raw) - offset} bytes past its last tensor")
    return tensors, extra


def _valid_entry(entry) -> bool:
    """A tensor-table entry: {"name": str, "shape": [non-negative ints]}."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"]))


def params_as_dict(params: Iterable[Parameter]) -> dict[str, np.ndarray]:
    return {p.name: p.data for p in params}


def load_into_params(params: Iterable[Parameter], tensors: Mapping[str, np.ndarray]) -> None:
    for p in params:
        if p.name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {p.name!r}")
        arr = tensors[p.name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"tensor {p.name!r} has shape {arr.shape}, expected {p.data.shape}"
            )
        p.data[...] = arr
