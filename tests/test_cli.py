import argparse
import json
import math
import os
import shutil
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
from curioseq import policy as pol
from curioseq.vocab import tokenize


def run(argv):
    return cli.main(argv)


def assert_clean_error(capsys, code, *words):
    """Exit status 1 and one `error:` line naming each word, no traceback;
    returns what the command printed on stdout."""
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    for word in words:
        assert word in err
    return out


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

    @pytest.mark.parametrize("flag,value", [("--scenes", "0"), ("--val-scenes", "-1"),
                                            ("--seed", "-1")])
    def test_bad_scene_count_fails_cleanly(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--out", str(tmp_path / "o"), "--scenes", "2", "--val-scenes", "1",
                "--seed", "0"]
        argv[argv.index(flag) + 1] = value
        # "error: --scenes " names --scenes, not --val-scenes
        assert_clean_error(capsys, run(argv), f"error: {flag} ", value)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", ['[]', '{"nouns": 5}', '{"regions": "3"}',
                                      '{"templates": ["there is a {noun.x} ."]}',
                                      '{"templates": ["there is a { ."]}',
                                      '{"templates": ["there is a {noun!z} ."]}',
                                      '{"nouns": "box"}', '{"noise_sigma": true}',
                                      '{"noise_sigma": "0.1"}',
                                      '{"objects_per_scene": 3, "regions": 2}'])
    def test_mistyped_grammar_fails_cleanly(self, tmp_path, capsys, spec):
        grammar = tmp_path / "grammar.json"
        grammar.write_text(spec)
        code = run(["synth", "--out", str(tmp_path / "o"), "--grammar", str(grammar),
                    "--scenes", "2", "--val-scenes", "1"])
        assert_clean_error(capsys, code, str(grammar))
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("name", ["last.ckpt", "best.ckpt"])
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

    @pytest.mark.parametrize("key,value", [("learning_rate", "x"), ("discount", True),
                                           ("clip_norm", "5"), ("lr_decay", None)])
    def test_a_float_field_that_is_not_a_number_fails_cleanly(self, synth_dir, tmp_path, capsys,
                                                              key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_manifest": str(synth_dir / "train_manifest.json"),
                                   "epochs": 1, key: value}))
        assert_clean_error(capsys, run(["train", "--config", str(cfg)]), f"{key} must be a number")

    @pytest.mark.parametrize("value", [2.5, True])
    def test_a_non_integer_lr_decay_period_fails_cleanly(self, synth_dir, tmp_path, capsys,
                                                        value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_manifest": str(synth_dir / "train_manifest.json"),
                                   "epochs": 1, "lr_decay_period": value}))
        assert_clean_error(capsys, run(["train", "--config", str(cfg)]),
                           "lr_decay_period must be an integer")

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_the_no_intrinsic_mode_is_rejected(self, synth_dir, tmp_path, capsys, where):
        """intrinsic_scale 0 replaces it: the modes are crl and xe."""
        doc = {"train_manifest": str(synth_dir / "train_manifest.json"), "epochs": 1}
        argv = ["train", "--config", str(tmp_path / "cfg.json")]
        if where == "config":
            doc["mode"] = "no_intrinsic"
        else:
            argv += ["--mode", "no_intrinsic"]
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert_clean_error(capsys, run(argv), "mode must be one of ('crl', 'xe')")

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

    def test_resume_continues_epoch_numbering(self, trained, tmp_path, capsys):
        # resumes a copy: the module's trained run stays a one-epoch run
        out = shutil.copytree(trained[0], tmp_path / "run")
        code = run(["train", "--config", str(trained[1]), "--out", str(out),
                    "--epochs", "2", "--resume"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        # the config line, then one line per epoch run, each naming its epoch
        assert printed[0].startswith("config ")
        assert [json.loads(line)["epoch"] for line in printed[1:]] == [1]
        assert [json.loads(line)["epoch"] for line in
                (out / "reports.jsonl").read_text().splitlines()] == [0, 1]

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
                    "--epochs", "2", "--resume"]) == 0
        assert '"epoch": 1' in capsys.readouterr().out
        assert (out / "best.ckpt").read_bytes() == best_before
        assert ckpt.load_checkpoint(out / "last.ckpt")[1]["best_cider"] == 1e9

    @pytest.mark.parametrize("key,value", [("epoch", "x"), ("epoch", None), ("epoch", -3),
                                           ("best_cider", "high"), ("best_cider", math.nan),
                                           ("best_cider", math.inf)])
    def test_resume_from_malformed_extra_fails_cleanly(self, trained, tmp_path, capsys, key,
                                                       value):
        out, cfg_path = trained
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        tensors, extra = ckpt.load_checkpoint(out / "last.ckpt")
        ckpt.save_checkpoint(run_dir / "last.ckpt", tensors, extra={**extra, key: value})
        code = run(["train", "--config", str(cfg_path), "--out", str(run_dir),
                    "--epochs", "2", "--resume"])
        assert_clean_error(capsys, code, str(run_dir / "last.ckpt"),
                           "malformed epoch or best_cider")

    @pytest.mark.parametrize("key,message", [("optimizer", "holds no optimizer state"),
                                             ("epoch", "malformed epoch or best_cider")])
    def test_resume_from_a_record_without_its_key_fails_cleanly(self, trained, tmp_path,
                                                                 capsys, key, message):
        # every last.ckpt that train writes holds an epoch and an optimizer
        # record, under sgd too; a record without one is no run's state
        out, cfg_path = trained
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        tensors, extra = ckpt.load_checkpoint(out / "last.ckpt")
        assert extra["optimizer"]["variant"] == "sgd"
        del extra[key]
        ckpt.save_checkpoint(run_dir / "last.ckpt", tensors, extra=extra)
        code = run(["train", "--config", str(cfg_path), "--out", str(run_dir),
                    "--epochs", "2", "--resume"])
        assert_clean_error(capsys, code, str(run_dir / "last.ckpt"), message)

    def test_resume_with_another_optimizer_fails_cleanly(self, trained, tmp_path, capsys):
        out, cfg_path = trained
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(out / "last.ckpt", run_dir / "last.ckpt")
        code = run(["train", "--config", str(cfg_path), "--out", str(run_dir),
                    "--epochs", "2", "--optimizer", "adam", "--resume"])
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
        # a crash after epoch 1's report line was flushed, before its last.ckpt
        reports = (full / "reports.jsonl").read_bytes()
        with (part / "reports.jsonl").open("ab") as f:
            f.write(reports.splitlines(keepends=True)[1])
        assert run(["train", "--config", str(cfg_path), "--out", str(part), "--resume"]) == 0
        assert (part / "last.ckpt").read_bytes() == (full / "last.ckpt").read_bytes()
        assert (part / "reports.jsonl").read_bytes() == reports
        # the adam moments are in last.ckpt; there is no other file of the run's state
        tensors, _ = ckpt.load_checkpoint(part / "last.ckpt")
        assert "m.policy.W_e" in tensors and "v.policy.W_e" in tensors
        assert sorted(p.name for p in part.iterdir()) == ["best.ckpt", "effective_config.json",
                                                          "last.ckpt", "reports.jsonl"]

    def test_a_run_killed_after_its_best_epochs_last_checkpoint_resumes_to_the_same_files(
            self, synth_dir, tmp_path, capsys, monkeypatch):
        cfg = {"train_manifest": str(synth_dir / "train_manifest.json"),
               "val_manifest": str(synth_dir / "val_manifest.json"),
               "epochs": 4, "batch_size": 2, "hidden_size": 16, "t_max": 12, "seed": 2,
               "learning_rate": 0.001, "imitation_weight": 6.0, "optimizer": "adam"}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        full, part = tmp_path / "full", tmp_path / "part"
        assert run(["train", "--config", str(cfg_path), "--out", str(full)]) == 0
        ciders = [json.loads(line)["val_cider"]
                  for line in (full / "reports.jsonl").read_text().splitlines()]
        best_epoch = ciders.index(max(ciders))
        # the best epoch is neither the first nor the last
        assert 0 < best_epoch < len(ciders) - 1

        class Killed(Exception):
            pass

        replace = os.replace

        def kill_after_best_last_ckpt(src, dst):
            replace(src, dst)
            if (Path(dst).name == "last.ckpt"
                    and ckpt.load_checkpoint(dst)[1]["epoch"] == best_epoch):
                raise Killed

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", kill_after_best_last_ckpt)
            with pytest.raises(Killed):
                run(["train", "--config", str(cfg_path), "--out", str(part)])
        assert run(["train", "--config", str(cfg_path), "--out", str(part), "--resume"]) == 0
        for name in ("best.ckpt", "last.ckpt", "reports.jsonl"):
            assert (part / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_continues_only_the_run_in_its_out(self, synth_dir, tmp_path, capsys):
        # --resume reads nothing but <out>/last.ckpt: into a new B it starts
        # B's run, not A's, and into A it continues A's; either way the out
        # holds the files of the uninterrupted run
        cfg = {"train_manifest": str(synth_dir / "train_manifest.json"),
               "val_manifest": str(synth_dir / "val_manifest.json"),
               "epochs": 3, "batch_size": 4, "hidden_size": 10, "t_max": 12}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        full, a, b = tmp_path / "full", tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", str(cfg_path), "--out", str(full), "--epochs", "4"]) == 0
        assert run(["train", "--config", str(cfg_path), "--out", str(a)]) == 0
        capsys.readouterr()
        for out, epochs in ((b, [0, 1, 2, 3]), (a, [3])):
            assert run(["train", "--config", str(cfg_path), "--out", str(out), "--epochs", "4",
                        "--resume"]) == 0
            printed = capsys.readouterr().out.splitlines()[1:]
            assert [json.loads(line)["epoch"] for line in printed] == epochs, out.name
            for name in ("reports.jsonl", "last.ckpt"):
                assert (out / name).read_bytes() == (full / name).read_bytes(), (out.name, name)
        assert (b / "best.ckpt").read_bytes() == (full / "best.ckpt").read_bytes()
        # A's best epoch came before the resume: its best.ckpt holds the
        # uninterrupted run's parameters under the config that wrote them
        tensors, extra = ckpt.load_checkpoint(a / "best.ckpt")
        full_tensors, full_extra = ckpt.load_checkpoint(full / "best.ckpt")
        assert extra["epoch"] < 3
        assert extra == {**full_extra, "config": {**full_extra["config"], "epochs": 3}}
        assert sorted(tensors) == sorted(full_tensors)
        assert all((tensors[k] == full_tensors[k]).all() for k in tensors)

    def test_resume_without_an_out_fails_cleanly(self, trained, capsys):
        _, cfg_path = trained
        assert "out_dir" not in json.loads(cfg_path.read_text())
        assert_clean_error(capsys, run(["train", "--config", str(cfg_path), "--resume"]),
                           "resume", "out_dir")

    def test_a_run_without_a_val_manifest_counts_the_train_statistics_once(
            self, tmp_path, capsys, monkeypatch):
        # the CLI hands train no val split, so one table of the train split's
        # reference statistics scores the episodes and the validation, as in
        # a library run with val_scenes=[]
        corpus = tmp_path / "corpus"
        assert run(["synth", "--out", str(corpus), "--seed", "3",
                    "--scenes", "6", "--val-scenes", "1"]) == 0
        cfg = {"train_manifest": str(corpus / "train_manifest.json"), "mode": "crl",
               "epochs": 2, "batch_size": 4, "hidden_size": 10, "t_max": 12}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        by_cli, by_library = tmp_path / "cli", tmp_path / "library"
        calls = []
        reference_stats = M.reference_stats

        def counted(*args):
            calls.append(args)
            return reference_stats(*args)

        with monkeypatch.context() as patch:
            patch.setattr(M, "reference_stats", counted)
            assert run(["train", "--config", str(cfg_path), "--out", str(by_cli)]) == 0
        assert len(calls) == 6
        train_ds = dat.load_dataset(cfg["train_manifest"], t_max=cfg["t_max"])
        assert len(train_ds.scenes) == 6
        cli.trn.train(train_ds.scenes, [], train_ds.vocab,
                      cli.trn.TrainConfig(**cfg, out_dir=str(by_library)))
        assert ((by_cli / "reports.jsonl").read_bytes()
                == (by_library / "reports.jsonl").read_bytes())

    def test_a_fresh_run_into_a_used_out_starts_its_reports_anew(self, trained, tmp_path,
                                                                 capsys):
        _, cfg_path = trained
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = (out / "reports.jsonl").read_bytes()
        assert run(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "reports.jsonl").read_bytes() == first
        assert len(first.splitlines()) == 1

    def test_a_library_run_writes_the_files_of_the_cli_run(self, synth_dir, tmp_path, capsys):
        # trainer.train owns the run directory: the CLI adds no file to it
        # and prints what it appends to reports.jsonl, after the config line
        cfg = {"train_manifest": str(synth_dir / "train_manifest.json"),
               "val_manifest": str(synth_dir / "val_manifest.json"),
               "epochs": 2, "batch_size": 4, "hidden_size": 10, "t_max": 12,
               "optimizer": "adam"}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        by_cli, by_library = tmp_path / "cli", tmp_path / "library"
        assert run(["train", "--config", str(cfg_path), "--out", str(by_cli)]) == 0
        printed = capsys.readouterr().out.splitlines()
        train_ds = dat.load_dataset(cfg["train_manifest"], t_max=cfg["t_max"])
        val_ds = dat.load_dataset(cfg["val_manifest"], t_max=cfg["t_max"])
        cli.trn.train(train_ds.scenes, val_ds.scenes, train_ds.vocab,
                      cli.trn.TrainConfig(**cfg, out_dir=str(by_library)))
        assert sorted(p.name for p in by_cli.iterdir()) == sorted(
            p.name for p in by_library.iterdir())
        for name in ("reports.jsonl", "best.ckpt", "last.ckpt"):
            assert (by_cli / name).read_bytes() == (by_library / name).read_bytes(), name
        assert printed[0].startswith("config ")
        assert printed[1:] == (by_cli / "reports.jsonl").read_text().splitlines()

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

    @staticmethod
    def forbid_decoding(monkeypatch):
        """An unwritable --graph-out fails before the model is loaded or decodes."""
        def never(*args, **kwargs):
            raise AssertionError("eval decoded before it checked --graph-out")

        monkeypatch.setattr(cli.trn, "load_model", never)
        monkeypatch.setattr(cli.trn, "evaluate", never)

    def test_graph_out_under_a_regular_file_fails_cleanly(self, trained, tmp_path, capsys,
                                                          monkeypatch):
        out, cfg_path = trained
        graph_path = under_a_file(tmp_path, "graph.json")
        self.forbid_decoding(monkeypatch)
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                    "--graph-out", str(graph_path)])
        assert assert_clean_error(capsys, code, str(graph_path)) == ""

    def test_graph_out_at_a_directory_fails_cleanly(self, trained, tmp_path, capsys,
                                                    monkeypatch):
        out, cfg_path = trained
        graph_path = tmp_path / "graph"
        graph_path.mkdir()
        self.forbid_decoding(monkeypatch)
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                    "--graph-out", str(graph_path)])
        assert assert_clean_error(capsys, code, str(graph_path)) == ""

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
        """By generate and eval alike, with an error that names the flag."""
        out, cfg_path = trained
        common = ["--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                  "--beam-width", width]
        for argv in (["generate", *common, "--manifest", str(synth_dir / "train_manifest.json"),
                      "--scene-id", "train_0000"], ["eval", *common]):
            assert assert_clean_error(capsys, run(argv), "--beam-width must be >= 1") == ""


class TestDecoderChoice:
    """eval and generate decode with the config's decode and beam_width, and
    --beam-width overrides both; eval's record names the decoder that ran."""

    @pytest.fixture
    def decoders(self, monkeypatch):
        """The (decoder, width) of every decode, through the policy module."""
        calls = []
        for name in ("rollout_greedy", "beam_search"):
            def counted(params, features, t_max, *width, _name=name, _decode=getattr(pol, name)):
                calls.append((_name, *width))
                return _decode(params, features, t_max, *width)

            monkeypatch.setattr(pol, name, counted)
        return calls

    @staticmethod
    def config(trained, tmp_path, **decoder) -> str:
        path = tmp_path / "decoder.json"
        path.write_text(json.dumps({**json.loads(trained[1].read_text()), **decoder}))
        return str(path)

    @pytest.mark.parametrize("decoder,flags,ran,printed", [
        ({"decode": "beam", "beam_width": 2}, [], ("beam_search", 2), ("beam", 2)),
        ({"decode": "beam", "beam_width": 2}, ["--beam-width", "1"], ("rollout_greedy",),
         ("greedy", 1)),
        ({"decode": "greedy", "beam_width": 3}, [], ("rollout_greedy",), ("greedy", 1)),
        ({}, ["--beam-width", "2"], ("beam_search", 2), ("beam", 2)),
    ], ids=["beam-config", "beam-config-flag-1", "greedy-config-width-3", "flag-2"])
    def test_eval(self, trained, tmp_path, capsys, decoders, decoder, flags, ran, printed):
        cfg = self.config(trained, tmp_path, **decoder)
        assert run(["eval", "--config", cfg, "--checkpoint", str(trained[0] / "last.ckpt"),
                    *flags]) == 0
        record = json.loads(capsys.readouterr().out)
        assert decoders == [ran] * record["n_scenes"] and record["n_scenes"] == 3
        assert (record["decode"], record["beam_width"]) == printed

    def test_generate_decodes_as_eval_does(self, trained, tmp_path, capsys, decoders):
        out, cfg_path = trained
        argv = ["generate", "--checkpoint", str(out / "last.ckpt"), "--scene-id", "val_0000"]
        cfg = self.config(trained, tmp_path, decode="beam", beam_width=2)
        assert run([*argv, "--config", cfg]) == 0
        assert run([*argv, "--config", str(cfg_path), "--beam-width", "2"]) == 0
        assert run([*argv, "--config", cfg, "--beam-width", "1"]) == 0
        beam, flagged, greedy = capsys.readouterr().out.splitlines()
        assert beam == flagged
        assert decoders == [("beam_search", 2), ("beam_search", 2), ("rollout_greedy",)]


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
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(out / "last.ckpt", run_dir / "last.ckpt")
        code = run(["train", "--config", str(cfg_path), "--out", str(run_dir),
                    "--epochs", "2", "--resume"])
        assert_clean_error(capsys, code, tensor, "expected")


class TestValSplitMismatch:
    """A val manifest that the train manifest's model cannot score, by its
    feature dimension or by its vocabulary: train stops before its first
    epoch, and eval --split val and generate before they decode, with one
    error line naming both manifests."""

    @pytest.fixture(scope="class")
    def narrow_features(self, tmp_path_factory):
        """A corpus of 32-dimensional features over 3 regions."""
        out = tmp_path_factory.mktemp("narrow")
        grammar = out / "grammar.json"
        grammar.write_text(json.dumps({"feature_dim": 32, "regions": 3}))
        assert run(["synth", "--out", str(out), "--seed", "3", "--grammar", str(grammar),
                    "--scenes", "4", "--val-scenes", "3"]) == 0
        return out

    @pytest.fixture(scope="class")
    def other_vocabulary(self, synth_dir, tmp_path_factory):
        """The val manifest of synth_dir beside a vocabulary file that lists
        the same number of tokens in another order."""
        out = tmp_path_factory.mktemp("other_vocab")
        (out / "features").symlink_to(synth_dir / "features")
        lines = (synth_dir / "vocab.txt").read_text().splitlines()
        (out / "vocab.txt").write_text("\n".join(lines[:4] + lines[:3:-1]) + "\n")
        (out / "val_manifest.json").write_text((synth_dir / "val_manifest.json").read_text())
        return out

    @pytest.fixture(params=["feature_dim", "vocabulary"])
    def pair(self, request, synth_dir, narrow_features, other_vocabulary, tmp_path):
        """(config path, train manifest, val manifest) of a mismatched pair."""
        val = {"feature_dim": narrow_features,
               "vocabulary": other_vocabulary}[request.param] / "val_manifest.json"
        train = synth_dir / "train_manifest.json"
        cfg = {"train_manifest": str(train), "val_manifest": str(val), "epochs": 1,
               "batch_size": 4, "hidden_size": 10, "t_max": 12}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, str(train), str(val)

    def test_train_fails_before_its_first_epoch(self, pair, tmp_path, capsys):
        cfg_path, train, val = pair
        out = tmp_path / "run"
        code = run(["train", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert '"epoch"' not in captured.out
        assert not (out / "reports.jsonl").exists() and not (out / "last.ckpt").exists()
        assert code == 1 and captured.err.startswith("error:")
        assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
        assert train in captured.err and val in captured.err

    def test_eval_of_the_val_split_fails_cleanly(self, trained, pair, capsys):
        out, _ = trained
        cfg_path, train, val = pair
        code = run(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                    "--split", "val"])
        assert_clean_error(capsys, code, train, val)

    def test_generate_from_the_val_manifest_fails_cleanly(self, trained, pair, capsys):
        out, _ = trained
        cfg_path, train, val = pair
        code = run(["generate", "--config", str(cfg_path), "--checkpoint",
                    str(out / "last.ckpt"), "--scene-id", "val_0000"])
        assert_clean_error(capsys, code, train, val)
        assert capsys.readouterr().out == ""

    def test_generate_from_another_manifest_names_it_by_its_path(self, trained, synth_dir,
                                                                 narrow_features, tmp_path,
                                                                 capsys):
        """generate --manifest names a file that need not be the val split's:
        the error names it by its path, with a config that names no val
        manifest."""
        out, _ = trained
        train = str(synth_dir / "train_manifest.json")
        other = str(narrow_features / "val_manifest.json")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"train_manifest": train, "hidden_size": 10, "t_max": 12}))
        code = run(["generate", "--config", str(cfg), "--checkpoint", str(out / "last.ckpt"),
                    "--manifest", other, "--scene-id", "val_0000"])
        err = capsys.readouterr().err
        assert code == 1 and err == (f"error: manifest {other} does not match train manifest "
                                     f"{train}: it has feature_dim 32, not 64\n")

    def test_generate_from_a_matching_val_manifest_decodes_with_its_words(self, trained,
                                                                         synth_dir, capsys):
        out, cfg_path = trained
        assert run(["generate", "--config", str(cfg_path), "--checkpoint",
                    str(out / "last.ckpt"), "--scene-id", "val_0000"]) == 0
        printed = capsys.readouterr().out
        cfg = cli.load_config(argparse.Namespace(config=str(cfg_path)))
        ds = dat.load_dataset(cfg.val_manifest, t_max=cfg.t_max)
        model, _ = curioseq.trainer.load_model(out / "last.ckpt", cfg, ds.vocab.size,
                                               ds.feature_dim)
        tokens = curioseq.policy.rollout_greedy(model.policy, ds.scenes[0].features, cfg.t_max)
        assert ds.scenes[0].scene_id == "val_0000" and tokens
        assert printed == " ".join(ds.vocab.decode_text(tokens)) + "\n"

    def test_generate_needs_the_train_manifest(self, trained, synth_dir, tmp_path, capsys):
        out, _ = trained
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"val_manifest": str(synth_dir / "val_manifest.json"),
                                   "hidden_size": 10, "t_max": 12}))
        code = run(["generate", "--config", str(cfg), "--checkpoint", str(out / "last.ckpt"),
                    "--scene-id", "val_0000"])
        assert_clean_error(capsys, code, "train_manifest")

    def test_the_matching_pair_trains(self, synth_dir, tmp_path):
        cfg = {"train_manifest": str(synth_dir / "train_manifest.json"),
               "val_manifest": str(synth_dir / "val_manifest.json"), "epochs": 0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["train", "--config", str(path)]) == 0


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
