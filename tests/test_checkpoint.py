import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curioseq import checkpoint as C
from curioseq.kernel import Parameter


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.standard_normal((3, 5)),
        "b.bias": rng.standard_normal(7),
        "scalarish": np.array(3.25),
    }
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, tensors, extra={"epoch": 4})
    loaded, extra = C.load_checkpoint(path)
    assert extra == {"epoch": 4}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert (loaded[name] == arr).all()


@pytest.mark.parametrize("pad", range(8))
def test_loaded_tensors_are_writable_aligned_views_of_one_buffer(tmp_path, pad):
    # the manifest's length takes every residue mod 8 over the pads
    rng = np.random.default_rng(1)
    tensors = {"m.w": rng.standard_normal((4, 3)), "v.w": rng.random((4, 3)), "b": np.ones(5)}
    path = tmp_path / "moments.ckpt"
    C.save_checkpoint(path, tensors, extra={"pad": "x" * pad})
    loaded, extra = C.load_checkpoint(path)
    assert extra == {"pad": "x" * pad}
    owners = set()
    for name, arr in tensors.items():
        out = loaded[name]
        assert out.dtype == np.float64 and out.flags.writeable and out.flags.aligned
        np.testing.assert_array_equal(out, arr)
        out *= 2.0          # an Adam slot is updated in place
        np.testing.assert_array_equal(out, 2.0 * arr)
        while isinstance(out.base, np.ndarray):
            out = out.base
        assert isinstance(out.base, memoryview)
        owners.add(id(out.base.obj))
    # no copy per tensor: every array is a view of the one buffer the file was read into
    assert len(owners) == 1


def test_identical_contents_identical_bytes(tmp_path):
    tensors = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    C.save_checkpoint(p1, tensors, extra={"epoch": 1})
    C.save_checkpoint(p2, tensors, extra={"epoch": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(C.CheckpointError, match="magic"):
        C.load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, {"w": np.ones((4, 4))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(C.CheckpointError, match="truncated"):
        C.load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(C.CheckpointError):
        C.load_checkpoint(tmp_path / "absent.ckpt")


def test_load_into_params_validates(tmp_path):
    params = [Parameter(np.zeros((2, 2)), "layer.W")]
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, {"layer.W": np.ones((2, 2))})
    tensors, _ = C.load_checkpoint(path)
    C.load_into_params(params, tensors)
    assert (params[0].data == 1.0).all()

    with pytest.raises(C.CheckpointError, match="missing"):
        C.load_into_params([Parameter(np.zeros(1), "other")], tensors)

    C.save_checkpoint(path, {"layer.W": np.ones((3, 3))})
    tensors, _ = C.load_checkpoint(path)
    with pytest.raises(C.CheckpointError, match="shape"):
        C.load_into_params(params, tensors)


def write_with_manifest(path, manifest, payload=b""):
    """A checkpoint file whose manifest is arbitrary JSON."""
    body = json.dumps(manifest).encode("utf-8")
    path.write_bytes(C.MAGIC + struct.pack("<Q", len(body)) + body + payload)
    return path


def entry(**fields):
    return {"version": C.FORMAT_VERSION, "tensors": [fields], "extra": {}}


@pytest.mark.parametrize("manifest", [
    pytest.param([], id="manifest-not-object"),
    pytest.param({"version": C.FORMAT_VERSION, "extra": {}}, id="no-tensors"),
    pytest.param({"version": C.FORMAT_VERSION, "tensors": {}}, id="tensors-not-list"),
    pytest.param(entry(name="w"), id="no-shape"),
    pytest.param(entry(shape=[1]), id="no-name"),
    pytest.param(entry(name=3, shape=[1]), id="name-not-str"),
    pytest.param(entry(name="w", shape="x"), id="shape-not-list"),
    pytest.param(entry(name="w", shape=[-1]), id="negative-dim"),
    pytest.param(entry(name="w", shape=[1.5]), id="float-dim"),
    pytest.param(entry(name="w", shape=[True]), id="bool-dim"),
    pytest.param({"version": C.FORMAT_VERSION, "tensors": [], "extra": []},
                 id="extra-not-object"),
])
def test_malformed_manifest_raises_checkpoint_error(tmp_path, manifest):
    path = write_with_manifest(tmp_path / "bad.ckpt", manifest, payload=bytes(64))
    with pytest.raises(C.CheckpointError):
        C.load_checkpoint(path)


def test_well_formed_hand_written_manifest_loads(tmp_path):
    payload = np.arange(3, dtype="<f8").tobytes()
    path = write_with_manifest(tmp_path / "ok.ckpt", entry(name="w", shape=[3]), payload)
    tensors, extra = C.load_checkpoint(path)
    assert tensors["w"].tolist() == [0.0, 1.0, 2.0]
    assert extra == {}


@pytest.mark.parametrize("entries,payload,message", [
    pytest.param([{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}], 16,
                 "names tensor 'w' twice", id="repeated-name"),
    pytest.param([{"name": "w", "shape": [1]}], 24, "16 bytes past its last tensor",
                 id="bytes-past-the-last-tensor"),
])
def test_a_table_that_does_not_match_the_payload_one_to_one_is_rejected(tmp_path, entries,
                                                                        payload, message):
    manifest = {"version": C.FORMAT_VERSION, "tensors": entries, "extra": {}}
    path = write_with_manifest(tmp_path / "bad.ckpt", manifest, payload=bytes(payload))
    with pytest.raises(C.CheckpointError, match=message):
        C.load_checkpoint(path)


class _FailingFile:
    """A binary file whose writes raise once `limit` bytes have gone out."""

    def __init__(self, fh, limit):
        self.fh = fh
        self.left = limit

    def write(self, data):
        if len(data) > self.left:
            self.fh.write(data[: self.left])
            raise OSError("disk full")
        self.left -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, {"w": np.ones((4, 4))}, extra={"epoch": 0})
    before = path.read_bytes()

    def failing_open(name, mode="r", *args, **kwargs):
        # let the magic, the length and part of the manifest through
        return _FailingFile(open(name, mode, *args, **kwargs), limit=30)

    monkeypatch.setattr(C, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        C.save_checkpoint(path, {"w": np.zeros((4, 4))}, extra={"epoch": 1})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    tensors, extra = C.load_checkpoint(path)
    assert extra == {"epoch": 0} and (tensors["w"] == 1.0).all()


def test_write_replaces_existing_file(tmp_path):
    path = tmp_path / "model.ckpt"
    C.save_checkpoint(path, {"w": np.ones(2)})
    C.save_checkpoint(path, {"w": np.full(2, 3.0)})
    assert C.load_checkpoint(path)[0]["w"].tolist() == [3.0, 3.0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_manifest_length_past_end_of_file_rejected(tmp_path):
    path = tmp_path / "long.ckpt"
    body = json.dumps({"version": 1, "tensors": [], "extra": {}}).encode()
    path.write_bytes(C.MAGIC + struct.pack("<Q", len(body) + 1) + body)
    with pytest.raises(C.CheckpointError, match="past the end"):
        C.load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt"
    C.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                      extra={"epoch": 1})
    return path


def _loads_or_raises_checkpoint_error(path):
    try:
        C.load_checkpoint(path)
    except C.CheckpointError:
        pass


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_fuzzed_bytes_raise_only_checkpoint_error(fuzz_path, raw):
    path = fuzz_path.with_name("bytes.ckpt")
    path.write_bytes(raw)
    _loads_or_raises_checkpoint_error(path)
    path.write_bytes(C.MAGIC + raw)
    _loads_or_raises_checkpoint_error(path)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_edits_of_a_valid_checkpoint_raise_only_checkpoint_error(fuzz_path, data):
    raw = bytearray(fuzz_path.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = data.draw(st.integers(0, 255))
    raw = raw[:data.draw(st.integers(0, len(raw)))]
    path = fuzz_path.with_name("edited.ckpt")
    path.write_bytes(bytes(raw))
    _loads_or_raises_checkpoint_error(path)
