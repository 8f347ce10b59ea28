import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curioseq
from conftest import BLAS_THREAD_VARS
from curioseq import checkpoint as ckpt
from curioseq import cli
from curioseq import data as dat
from curioseq import metrics as M
from curioseq.vocab import tokenize


def run(argv):
    return cli.main(argv)


def assert_clean_error(capsys, code, *words):
    """Exit status 1 and one `error:` line naming each word, no traceback."""
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    for word in words:
        assert word in err


def under_a_file(tmp_path: Path, name: str) -> Path:
    """A path whose parent is a regular file, so it can be neither created
    nor written."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / name


def filecmp_dirs(a: Path, b: Path) -> bool:
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(["synth", "--out", str(out), "--seed", "3",
                "--scenes", "8", "--val-scenes", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = {
        "train_manifest": str(synth_dir / "train_manifest.json"),
        "val_manifest": str(synth_dir / "val_manifest.json"),
        "epochs": 1,
        "batch_size": 4,
        "hidden_size": 10,
        "t_max": 12,
        "seed": 0,
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return out, cfg_path


class TestSynth:
    def test_out_under_a_regular_file_fails_cleanly(self, tmp_path, capsys):
        out = under_a_file(tmp_path, "corpus")
        code = run(["synth", "--out", str(out), "--scenes", "2", "--val-scenes", "1"])
        assert_clean_error(capsys, code, str(out))

    @pytest.mark.parametrize("name,as_dir", [("features", False), ("vocab.txt", True),
                                             ("train_manifest.json", True)])
    def test_blocked_output_fails_cleanly(self, tmp_path, capsys, name, as_dir):
        out = tmp_path / "corpus"
        out.mkdir()
        blocked = out / name
        blocked.mkdir() if as_dir else blocked.write_text("")
        code = run(["synth", "--out", str(out), "--scenes", "2", "--val-scenes", "1"])
        assert_clean_error(capsys, code, str(blocked))

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--out", str(out), "--seed", "9",
                        "--scenes", "5", "--val-scenes", "2"]) == 0
        assert filecmp_dirs(a, b)

    def test_creates_missing_out_dir(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert run(["synth", "--out", str(out), "--scenes", "2",
                    "--val-scenes", "1"]) == 0
        assert (out / "train_manifest.json").exists()

    def test_invalid_grammar_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "grammar.json"
        bad.write_text('{"nouns": ["a",\n  broken}')
        code = run(["synth", "--out", str(tmp_path / "o"), "--grammar", str(bad),
                    "--scenes", "2", "--val-scenes", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize("flag,value", [("--scenes", "0"), ("--val-scenes", "-1")])
    def test_bad_scene_count_fails_cleanly(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--out", str(tmp_path / "o"), "--scenes", "2", "--val-scenes", "1"]
        argv[argv.index(flag) + 1] = value
        assert_clean_error(capsys, run(argv), "scenes")

    @pytest.mark.parametrize("spec", ['[]', '{"nouns": 5}', '{"regions": "3"}'])
    def test_mistyped_grammar_fails_cleanly(self, tmp_path, capsys, spec):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(spec)
        code = run(["synth", "--out", str(tmp_path / "o"), "--grammar", str(grammar),
                    "--scenes", "2", "--val-scenes", "1"])
        assert_clean_error(capsys, code, str(grammar))

    @pytest.mark.parametrize("field,value", [("objects_per_scene", 2.5), ("regions", 2.5),
                                             ("feature_dim", 12.5),
                                             ("references_per_scene", True)])
    def test_non_integer_count_fails_cleanly(self, tmp_path, capsys, field, value):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(json.dumps({field: value}))
        code = run(["synth", "--out", str(tmp_path / "o"), "--grammar", str(grammar),
                    "--scenes", "2", "--val-scenes", "1"])
        assert_clean_error(capsys, code, str(grammar), field)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_noise_fails_cleanly(self, tmp_path, capsys, value):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(f'{{"noise_sigma": {value}}}')
        code = run(["synth", "--out", str(tmp_path / "o"), "--grammar", str(grammar),
                    "--scenes", "2", "--val-scenes", "1"])
        assert_clean_error(capsys, code, str(grammar), "noise_sigma")
        assert not (tmp_path / "o" / "train_manifest.json").exists()

    def test_unknown_grammar_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "grammar.json"
        bad.write_text('{"colors": ["red"]}')
        code = run(["synth", "--out", str(tmp_path / "o"), "--grammar", str(bad),
                    "--scenes", "2", "--val-scenes", "1"])
        assert code == 1
        assert "colors" in capsys.readouterr().err


class TestTrain:
    def test_out_under_a_regular_file_fails_cleanly(self, synth_dir, tmp_path, capsys):
        out = under_a_file(tmp_path, "run")
        code = run(["train", "--train-manifest", str(synth_dir / "train_manifest.json"),
                    "--epochs", "1", "--out", str(out)])
        assert_clean_error(capsys, code, str(out))

    @pytest.mark.parametrize("name", ["reports.jsonl", "last.ckpt"])
    def test_blocked_output_fails_cleanly(self, synth_dir, tmp_path, capsys, name):
        blocked = tmp_path / "run" / name
        blocked.mkdir(parents=True)
        code = run(["train", "--train-manifest", str(synth_dir / "train_manifest.json"),
                    "--epochs", "1", "--hidden-size", "8", "--out", str(blocked.parent)])
        assert_clean_error(capsys, code, str(blocked))

    @pytest.mark.parametrize("name", ["last.ckpt", "last.ckpt.adam", "best.ckpt"])
    def test_a_checkpoint_path_that_is_a_directory_fails_before_training(
            self, synth_dir, tmp_path, capsys, name):
        blocked = tmp_path / "run" / name
        blocked.mkdir(parents=True)
        code = run(["train", "--train-manifest", str(synth_dir / "train_manifest.json"),
                    "--epochs", "1", "--hidden-size", "8", "--out", str(blocked.parent)])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err
        assert err.splitlines() == [f"error: cannot write checkpoint {blocked}: it is a directory"]
        # no epoch ran: no report printed or written
        assert [line for line in out.splitlines() if not line.startswith("config ")] == []
        assert not (blocked.parent / "reports.jsonl").exists()

    def test_emits_one_report_line_per_epoch(self, trained, capsys):
        out, cfg_path = trained
        reports = (out / "reports.jsonl").read_text().strip().splitlines()
        assert len(reports) == 1
        record = json.loads(reports[0])
        assert record["epoch"] == 0

    def test_effective_config_round_trips(self, trained, synth_dir, tmp_path, capsys):
        out, _ = trained
        effective = out / "effective_config.json"
        assert effective.exists()
        # re-running from the dumped config reproduces identical parameters
        rerun = tmp_path / "rerun"
        code = run(["train", "--config", str(effective), "--out", str(rerun)])
        assert code == 0
        assert (out / "last.ckpt").read_bytes() == (rerun / "last.ckpt").read_bytes()

    @pytest.mark.parametrize("key,value", [("hidden_size", 2.5), ("t_max", 2.5),
                                           ("embed_size", 0), ("seed", -1),
                                           ("learning_rate", float("nan")),
                                           ("lr_decay", -1.0)])
    def test_bad_config_value_fails_cleanly(self, synth_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_manifest": str(synth_dir / "train_manifest.json"),
                                   "epochs": 1, key: value}))
        assert_clean_error(capsys, run(["train", "--config", str(cfg)]), key)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("key,value", [("train_manifest", 5), ("val_manifest", ["x"]),
                                           ("out_dir", 5)])
    def test_non_string_path_fails_cleanly(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["train", "--config", str(cfg)] if command == "train" else \
            ["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "none.ckpt")]
        assert_clean_error(capsys, run(argv), f"{key} must be a string or null")

    def test_unset_blas_thread_counts_give_the_one_thread_run(self, synth_dir, tmp_path):
        """curioseq sets each unset BLAS thread count to 1 before numpy loads,
        so a crl epoch writes the same bytes with the variables unset as with
        each at 1. Without that, OpenBLAS splits the minibatch matmuls over
        the cores of a multi-core host, and the sums round differently."""
        src = str(Path(curioseq.__file__).resolve().parents[1])
        written = []
        for value in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
            if value is not None:
                env.update(dict.fromkeys(BLAS_THREAD_VARS, value))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"run_{value}"
            subprocess.run([sys.executable, "-m", "curioseq.cli", "train",
                            "--train-manifest", str(synth_dir / "train_manifest.json"),
                            "--val-manifest", str(synth_dir / "val_manifest.json"),
                            "--epochs", "1", "--batch-size", "16", "--mode", "crl",
                            "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            written.append([(out / name).read_bytes() for name in ("reports.jsonl", "last.ckpt")])
        assert written[0] == written[1]

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rte": 0.1}))
        assert run(["train", "--config", str(cfg)]) == 1
        assert "learning_rte" in capsys.readouterr().err

    def test_resume_continues_epoch_numbering(self, trained, capsys):
        out, cfg_path = trained
        code = run(["train", "--config", str(cfg_path), "--out", str(out),
                    "--epochs", "2", "--resume", str(out / "last.ckpt")])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"epoch": 1' in printed

    def test_resumed_epoch_below_stored_best_keeps_best_checkpoint(self, synth_dir, tmp_path,
                                                                    capsys):
        cfg = {"train_manifest": str(synth_dir / "train_manifest.json"),
               "val_manifest": str(synth_dir / "val_manifest.json"),
               "epochs": 1, "batch_size": 4, "hidden_size": 10, "t_max": 12}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[-1])
        tensors, extra = ckpt.load_checkpoint(out / "last.ckpt")
        assert extra["best_cider"] == first["val_cider"]
        # a stored best that no resumed epoch can reach
        extra["best_cider"] = 1e9
        ckpt.save_checkpoint(out / "last.ckpt", tensors, extra=extra)
        best_before = (out / "best.ckpt").read_bytes()
        assert run(["train", "--config", str(cfg_path), "--out", str(out),
                    "--epochs", "2", "--resume", str(out / "last.ckpt")]) == 0
        assert '"epoch": 1' in capsys.readouterr().out
        assert (out / "best.ckpt").read_bytes() == best_before
        assert ckpt.load_checkpoint(out / "last.ckpt")[1]["best_cider"] == 1e9

    @pytest.mark.parametrize("key,value", [("epoch", "x"), ("epoch", None),
                                           ("best_cider", "high")])
    def test_resume_from_malformed_extra_fails_cleanly(self, trained, tmp_path, capsys, key,
                                                       value):
        out, cfg_path = trained
        tensors, extra = ckpt.load_checkpoint(out / "best.ckpt")
        ckpt.save_checkpoint(tmp_path / "bad.ckpt", tensors, extra={**extra, key: value})
        code = run(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--epochs", "2", "--resume", str(tmp_path / "bad.ckpt")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert "bad.ckpt" in err

    def test_resume_with_another_optimizer_fails_cleanly(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        code = run(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--epochs", "2", "--optimizer", "adam",
                    "--resume", str(out / "last.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err
        assert "'sgd', not 'adam'" in err

    def test_resumed_adam_run_writes_the_uninterrupted_checkpoint(self, synth_dir, tmp_path,
                                                                  capsys):
        cfg = {"train_manifest": str(synth_dir / "train_manifest.json"),
               "val_manifest": str(synth_dir / "val_manifest.json"),
               "epochs": 2, "batch_size": 4, "hidden_size": 10, "t_max": 12,
               "optimizer": "adam"}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        full, part = tmp_path / "full", tmp_path / "part"
        assert run(["train", "--config", str(cfg_path), "--out", str(full)]) == 0
        assert run(["train", "--config", str(cfg_path), "--out", str(part),
                    "--epochs", "1"]) == 0
        assert run(["train", "--config", str(cfg_path), "--out", str(part),
                    "--resume", str(part / "last.ckpt")]) == 0
        for name in ("last.ckpt", "last.ckpt.adam"):
            assert (part / name).read_bytes() == (full / name).read_bytes()
        reports = [(d / "reports.jsonl").read_text().splitlines() for d in (full, part)]
        assert reports[0] == reports[1]

    def test_missing_manifest_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        assert run(["train", "--config", str(cfg)]) == 1
        assert "manifest" in capsys.readouterr().err


def _train_on(tmp_path, manifest: Path) -> int:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_manifest": str(manifest), "epochs": 1}))
    return run(["train", "--config", str(cfg)])


def _broken_copy(synth_dir: Path, tmp_path: Path, edit) -> Path:
    doc = json.loads((synth_dir / "train_manifest.json").read_text())
    for name in ("vocab.txt", "features"):
        (tmp_path / name).symlink_to(synth_dir / name)
    edit(doc)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


class TestTrainBadInput:
    def assert_clean_error(self, capsys, code, *words):
        assert_clean_error(capsys, code, *words)

    def test_bad_vocab_file(self, synth_dir, tmp_path, capsys):
        manifest = _broken_copy(synth_dir, tmp_path,
                                lambda doc: doc.update(vocabulary="bad_vocab.txt"))
        (tmp_path / "bad_vocab.txt").write_text("hello\nworld\n")
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), "reserved")

    def test_missing_vocab_file(self, synth_dir, tmp_path, capsys):
        manifest = _broken_copy(synth_dir, tmp_path,
                                lambda doc: doc.update(vocabulary="none.txt"))
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), "none.txt")

    def test_manifest_without_vocabulary(self, synth_dir, tmp_path, capsys):
        manifest = _broken_copy(synth_dir, tmp_path, lambda doc: doc.pop("vocabulary"))
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), "vocabulary")

    @pytest.mark.parametrize("key", ["id", "features", "references"])
    def test_scene_entry_without_key(self, synth_dir, tmp_path, capsys, key):
        manifest = _broken_copy(synth_dir, tmp_path, lambda doc: doc["scenes"][1].pop(key))
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), key, "entry 1")

    @pytest.mark.parametrize("edit,word", [
        (lambda doc: doc.update(scenes=5), "scenes"),
        (lambda doc: doc.update(vocabulary=5), "vocabulary"),
        (lambda doc: doc["scenes"][0].update(references=5), "references"),
        (lambda doc: doc["scenes"][0].update(features=5), "features"),
    ], ids=["scenes", "vocabulary", "references", "features"])
    def test_mistyped_manifest_field(self, synth_dir, tmp_path, capsys, edit, word):
        manifest = _broken_copy(synth_dir, tmp_path, edit)
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), word)

    def test_non_utf8_manifest(self, synth_dir, tmp_path, capsys):
        manifest = _broken_copy(synth_dir, tmp_path, lambda doc: None)
        manifest.write_bytes(manifest.read_bytes().replace(b'"vocab.txt"', b'"vocab\xff.txt"'))
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), "UTF-8")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_features(self, synth_dir, tmp_path, capsys, bad):
        feats = np.ones((3, 4))
        feats[0, 1] = bad
        dat.write_features(tmp_path / "bad.bin", feats)
        manifest = _broken_copy(synth_dir, tmp_path,
                                lambda doc: doc["scenes"][2].update(features="bad.bin"))
        self.assert_clean_error(capsys, _train_on(tmp_path, manifest), "bad.bin", "NaN or inf")


class TestUnreadableInput:
    """A file that is not UTF-8, JSON nested past the recursion limit and a
    path with a NUL byte each end in one `error:` line."""

    @staticmethod
    def write(tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        if kind == "non_utf8":
            path.write_bytes(b'{"epochs": \xff1}')
        elif kind == "deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            path.write_text(json.dumps({"train_manifest": "a\u0000b", "epochs": 1}))
        return str(path)

    @pytest.mark.parametrize("argv,kind,word", [
        (["train", "--config"], "non_utf8", "utf-8"),
        (["eval", "--checkpoint", "none.ckpt", "--config"], "non_utf8", "utf-8"),
        (["diversity", "--input"], "non_utf8", "utf-8"),
        (["synth", "--out", "corpus", "--grammar"], "non_utf8", "utf-8"),
        (["train", "--config"], "deep", "nested too deeply"),
        (["synth", "--out", "corpus", "--grammar"], "deep", "nested too deeply"),
        (["train", "--config"], "nul_path", "null byte"),
    ], ids=["train-non-utf8", "eval-non-utf8", "diversity-non-utf8", "synth-non-utf8",
            "train-deep", "synth-deep", "train-nul-manifest"])
    def test_fails_cleanly(self, tmp_path, capsys, monkeypatch, argv, kind, word):
        monkeypatch.chdir(tmp_path)
        assert_clean_error(capsys, run(argv + [self.write(tmp_path, kind)]), word)


class TestEval:
    def test_beam_width_one_equals_greedy(self, trained, capsys):
        out, cfg_path = trained
        ckpt = str(out / "last.ckpt")
        assert run(["eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                    "--split", "val"]) == 0
        greedy = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert run(["eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                    "--split", "val", "--beam-width", "1"]) == 0
        beam1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for key in ("bleu1", "bleu2", "bleu3", "bleu4", "cider", "distinct2"):
            assert greedy[key] == beam1[key]

    def test_graph_export_matches_scan(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        graph_path = tmp_path / "graph.json"
        assert run(["eval", "--config", str(cfg_path),
                    "--checkpoint", str(out / "last.ckpt"), "--split", "val",
                    "--graph-out", str(graph_path)]) == 0
        doc = json.loads(graph_path.read_text())
        assert doc["stats"]["node_count"] == len(doc["nodes"])
        assert doc["stats"]["edge_count"] == len(doc["edges"])

    def test_graph_out_under_a_regular_file_fails_cleanly(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        graph_path = under_a_file(tmp_path, "graph.json")
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                    "--graph-out", str(graph_path)])
        assert_clean_error(capsys, code, str(graph_path))

    def test_val_split_without_train_manifest_fails_cleanly(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        cfg = json.loads(cfg_path.read_text())
        del cfg["train_manifest"]
        val_only = tmp_path / "val_only.json"
        val_only.write_text(json.dumps(cfg))
        code = run(["eval", "--config", str(val_only), "--checkpoint", str(out / "last.ckpt"),
                    "--split", "val"])
        assert_clean_error(capsys, code, "train_manifest")

    def test_corrupt_checkpoint_fails_cleanly(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(bad)])
        assert code != 0

    def test_malformed_checkpoint_manifest_fails_cleanly(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        bad = tmp_path / "bad.ckpt"
        body = b"[]"
        bad.write_bytes(b"NTCKPT01" + len(body).to_bytes(8, "little") + body)
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


    def test_manifest_length_past_end_of_checkpoint(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        bad = tmp_path / "bad.ckpt"
        raw = (out / "last.ckpt").read_bytes()
        bad.write_bytes(raw[:8] + (len(raw) * 2).to_bytes(8, "little") + raw[16:])
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "past the end" in err
        assert len(err.splitlines()) == 1


class TestGenerate:
    def test_decodes_training_scene(self, trained, synth_dir, capsys):
        out, cfg_path = trained
        code = run(["generate", "--config", str(cfg_path),
                    "--checkpoint", str(out / "last.ckpt"),
                    "--manifest", str(synth_dir / "train_manifest.json"),
                    "--scene-id", "train_0000"])
        assert code == 0
        text = capsys.readouterr().out.strip()
        assert isinstance(text, str)

    def test_deterministic(self, trained, synth_dir, capsys):
        out, cfg_path = trained
        argv = ["generate", "--config", str(cfg_path),
                "--checkpoint", str(out / "last.ckpt"),
                "--manifest", str(synth_dir / "train_manifest.json"),
                "--scene-id", "train_0001", "--beam-width", "2"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_missing_scene_id(self, trained, synth_dir, capsys):
        out, cfg_path = trained
        code = run(["generate", "--config", str(cfg_path),
                    "--checkpoint", str(out / "last.ckpt"),
                    "--manifest", str(synth_dir / "train_manifest.json"),
                    "--scene-id", "nope"])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_a_beam_width_below_one_is_rejected(self, trained, synth_dir, capsys, width):
        out, cfg_path = trained
        code = run(["generate", "--config", str(cfg_path),
                    "--checkpoint", str(out / "last.ckpt"),
                    "--manifest", str(synth_dir / "train_manifest.json"),
                    "--scene-id", "train_0000", "--beam-width", width])
        assert_clean_error(capsys, code, "--beam-width must be >= 1")
        assert capsys.readouterr().out == ""


class TestShapeMismatch:
    """A checkpoint whose hidden size, curiosity embedding size or feature
    dimension differs from the config or the corpus: eval, generate and
    train --resume each exit 1 with one error line naming the tensor."""

    @pytest.fixture(scope="class")
    def wide_features(self, tmp_path_factory):
        """The trained corpus's grammar with 32-dimensional region features."""
        out = tmp_path_factory.mktemp("wide")
        grammar = out / "grammar.json"
        grammar.write_text(json.dumps({"feature_dim": 32}))
        assert run(["synth", "--out", str(out), "--seed", "3", "--grammar", str(grammar),
                    "--scenes", "8", "--val-scenes", "3"]) == 0
        return out

    @pytest.fixture(params=["hidden_size", "embed_size", "feature_dim"])
    def mismatched(self, request, trained, wide_features, tmp_path):
        """(config path, train manifest, the tensor named in the error)."""
        _, cfg_path = trained
        cfg = json.loads(cfg_path.read_text())
        tensor = {"hidden_size": "policy.W_e", "embed_size": "curiosity.phi_W",
                  "feature_dim": "policy.W_v"}[request.param]
        if request.param == "feature_dim":
            cfg["train_manifest"] = str(wide_features / "train_manifest.json")
            cfg["val_manifest"] = str(wide_features / "val_manifest.json")
        else:
            cfg[request.param] = 12 if request.param == "hidden_size" else 7
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, cfg["train_manifest"], tensor

    def test_eval(self, trained, mismatched, capsys):
        out, _ = trained
        cfg_path, _, tensor = mismatched
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt")])
        assert_clean_error(capsys, code, tensor, "expected")

    def test_generate(self, trained, mismatched, capsys):
        out, _ = trained
        cfg_path, manifest, tensor = mismatched
        code = run(["generate", "--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                    "--manifest", manifest, "--scene-id", "train_0000"])
        assert_clean_error(capsys, code, tensor, "expected")

    def test_train_resume(self, trained, mismatched, tmp_path, capsys):
        out, _ = trained
        cfg_path, _, tensor = mismatched
        code = run(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--epochs", "2", "--resume", str(out / "last.ckpt")])
        assert_clean_error(capsys, code, tensor, "expected")


class TestDiversity:
    def test_counts_match_module_scan(self, tmp_path, capsys):
        text = tmp_path / "gen.txt"
        lines = ["the red box sits . a tall tree stands .",
                 "the red dog waits . the box sits ."]
        text.write_text("\n".join(lines))
        out_path = tmp_path / "graph.json"
        assert run(["diversity", "--input", str(text), "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        expected = M.diversity_graph([tokenize(line) for line in lines])
        assert doc["stats"]["node_count"] == expected.node_count
        assert doc["stats"]["edge_count"] == expected.edge_count
        assert doc["stats"]["distinct_2"] == expected.distinct_2

    def test_missing_input(self, tmp_path, capsys):
        assert run(["diversity", "--input", str(tmp_path / "none.txt")]) == 1

    def test_output_under_a_regular_file_fails_cleanly(self, tmp_path, capsys):
        text = tmp_path / "gen.txt"
        text.write_text("the red box sits .")
        out_path = under_a_file(tmp_path, "graph.json")
        code = run(["diversity", "--input", str(text), "--output", str(out_path)])
        assert_clean_error(capsys, code, str(out_path))
