"""The summary arithmetic of tools/claim.py on hand-made report lists and
block scores, the shuffled twin's permutation, the held-out blocks, tiny
end-to-end calls, and the README config that the claim, the exactness
tool and the benchmark each train with. The tools use only the standard
library, so they are loaded by path."""

import ast
import importlib.util
import json
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from curioseq import cli
from curioseq import data as dat
from curioseq import rewards as R
from curioseq import trainer as T

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def claim():
    spec = importlib.util.spec_from_file_location("curioseq_claim", ROOT / "tools" / "claim.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reports(cider, distinct2=None):
    """One report line per epoch, with val_cider[i] = cider[i]."""
    distinct2 = distinct2 or [0.01 * (i + 1) for i in range(len(cider))]
    return [{"epoch": i, "val_cider": c, "val_distinct2": d, "mean_episode_length": 10.0 + i,
             "eos_rate": 0.5, "mean_extrinsic_reward": 0.1 * i, "train_loss": 1.0}
            for i, (c, d) in enumerate(zip(cider, distinct2))]


def test_series_keeps_each_field_per_epoch(claim):
    run = claim.series(reports([0.1, 0.2, 0.3]))
    assert set(run) == set(claim.SERIES)
    assert run["val_cider"] == [0.1, 0.2, 0.3]
    assert run["mean_episode_length"] == [10.0, 11.0, 12.0]
    assert run["mean_extrinsic_reward"] == [0.0, 0.1, 0.2]


def test_summary_takes_the_last_epoch_and_the_tail_mean(claim):
    cider = [0.5] * 25 + [0.1, 0.2, 0.3, 0.4, 0.6]
    s = claim.summarize(claim.series(reports(cider, [0.0] * 29 + [0.03])))
    assert s == {"val_cider_last": 0.6, "val_distinct2_last": 0.03,
                 "val_cider_tail_mean": pytest.approx(0.32, abs=1e-15)}
    assert claim.TAIL == 5
    # with fewer epochs than the tail, every epoch is averaged
    assert claim.summarize(claim.series(reports([0.2, 0.4])))["val_cider_tail_mean"] == \
        pytest.approx(0.3, abs=1e-15)


def summary(cider_last, distinct2_last, tail):
    return {"val_cider_last": cider_last, "val_distinct2_last": distinct2_last,
            "val_cider_tail_mean": tail}


def test_paired_differences_and_seeds_won(claim):
    summaries = {
        0: {"xe": summary(0.3, 0.03, 0.25), "zero_reward": summary(0.2, 0.02, 0.26),
            "crl": summary(0.25, 0.04, 0.30)},
        7919: {"xe": summary(0.2, 0.02, 0.20), "zero_reward": summary(0.3, 0.03, 0.25),
               "crl": summary(0.1, 0.05, 0.22)},
        1: {"xe": summary(0.3, 0.03, 0.30), "crl": summary(0.4, 0.01, 0.35)},
    }
    diffs, wins = claim.paired(summaries)
    assert diffs[0]["crl"]["vs_xe"] == pytest.approx(
        {"val_cider_last": -0.05, "val_distinct2_last": 0.01, "val_cider_tail_mean": 0.05},
        abs=1e-15)
    assert diffs[7919]["crl"]["vs_zero_reward"] == pytest.approx(
        {"val_cider_last": -0.2, "val_distinct2_last": 0.02, "val_cider_tail_mean": -0.03},
        abs=1e-15)
    # no variant is paired with itself, nor with a reference that did not run
    assert set(diffs[0]["xe"]) == {"vs_zero_reward"} and "zero_reward" not in diffs[1]
    assert set(diffs[1]["crl"]) == {"vs_xe"}
    assert wins["crl"]["vs_xe"] == {"val_cider_last": 1, "val_distinct2_last": 2,
                                    "val_cider_tail_mean": 3}
    assert wins["crl"]["vs_zero_reward"] == {"val_cider_last": 1, "val_distinct2_last": 2,
                                             "val_cider_tail_mean": 1}
    # an equal number wins nothing
    assert wins["zero_reward"]["vs_xe"]["val_cider_tail_mean"] == 2
    _, tie = claim.paired({0: {"xe": summary(0.3, 0.03, 0.25), "crl": summary(0.3, 0.03, 0.25)}})
    assert tie["crl"]["vs_xe"] == dict.fromkeys(claim.SUMMARY, 0)


def test_table_prints_the_baseline_digits(claim):
    summaries = {0: {"xe": summary(0.28149, 0.031349, 0.25151)},
                 7919: {"xe": summary(0.24, 0.0241, 0.24849)}}
    lines = claim.table(summaries, [0, 7919], ["xe", "crl"])
    assert lines[0] == "| run | seed 0 | seed 7919 | mean |"
    assert lines[2] == "| `xe` | 0.281 / 0.0313 / 0.252 | 0.240 / 0.0241 / 0.248 | 0.250 |"
    assert lines[3] == "| `crl` | failed | failed | - |"


def held(cider):
    return {"heldout_cider": cider, "heldout_block_std": 0.02}


def test_a_candidate_is_paired_with_its_twin_on_the_heldout_cider_too(claim):
    summaries = {
        0: {"xe": {**summary(0.3, 0.03, 0.25), **held(0.30)},
            "crl": {**summary(0.2, 0.02, 0.22), **held(0.25)},
            "crl_shuffled": {**summary(0.25, 0.02, 0.20), **held(0.24)}},
        1: {"crl": {**summary(0.3, 0.03, 0.30), **held(0.28)},
            "crl_shuffled": {**summary(0.2, 0.01, 0.31), **held(0.29)}},
    }
    diffs, wins = claim.paired(summaries)
    assert diffs[0]["crl"]["vs_twin"] == pytest.approx(
        {"val_cider_last": -0.05, "val_distinct2_last": 0.0, "val_cider_tail_mean": 0.02,
         "heldout_cider": 0.01}, abs=1e-15)
    assert wins["crl"]["vs_twin"] == {"val_cider_last": 1, "val_distinct2_last": 1,
                                      "val_cider_tail_mean": 1, "heldout_cider": 1}
    assert set(diffs[0]["crl"]) == {"vs_xe", "vs_twin"}
    # a twin has no twin, and is paired with the references
    assert set(diffs[0]["crl_shuffled"]) == {"vs_xe"} and "crl_shuffled" not in diffs[1]


def test_the_heldout_numbers_of_hand_made_blocks(claim):
    h = claim.heldout([0.30, 0.34, 0.26, 0.30], [0.02, 0.04, 0.03, 0.03])
    assert set(h) == {"heldout_cider", "heldout_block_std", "heldout_block_distinct2_mean",
                      "heldout_block_distinct2_std"}
    # the blocks are of equal size, so their mean is the CIDEr of every scene
    assert h["heldout_cider"] == pytest.approx(0.30, abs=1e-15)
    # the sample standard deviation: deviations 0, 0.04, -0.04, 0 over 3 degrees of freedom
    assert h["heldout_block_std"] == pytest.approx((0.0032 / 3) ** 0.5, abs=1e-15)
    assert h["heldout_block_distinct2_mean"] == pytest.approx(0.03, abs=1e-15)
    # deviations -0.01, 0.01, 0, 0 over 3 degrees of freedom
    assert h["heldout_block_distinct2_std"] == pytest.approx((0.0002 / 3) ** 0.5, abs=1e-15)
    same = claim.heldout([0.2, 0.2], [0.05, 0.05])
    assert same["heldout_block_std"] == same["heldout_block_distinct2_std"] == 0.0


def test_each_block_eval_record_gives_its_cider_and_distinct2(claim, tmp_path, monkeypatch):
    # a hand-made record of the held-out child, one entry per block, from
    # one child process that scores the held-out manifest in blocks of BLOCK
    blocks = [{"cider": 0.20, "distinct2": 0.031}, {"cider": 0.30, "distinct2": 0.029}]
    calls = []

    def child(tree, *args):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, json.dumps(blocks) + "\n", "")

    monkeypatch.setattr(claim, "train", lambda *args: {"wall_s": 1.0})
    monkeypatch.setattr(claim.same_bytes, "python", child)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "val_manifest": "val.json"}))
    run = claim.claim_run(ROOT, config, 0, "crl", tmp_path / "heldout.json")
    assert run == {"wall_s": 1.0, "heldout_block_cider": [0.20, 0.30],
                   "heldout_block_distinct2": [0.031, 0.029]}
    (args,) = calls
    scored = tmp_path / "heldout.json"
    assert args[3:] == (str(claim.BLOCK), str(scored), str(tmp_path / "run" / "last.ckpt"))
    assert "heldout_main" in args[1]
    assert json.loads(scored.read_text()) == {"epochs": 2,
                                              "val_manifest": str(tmp_path / "heldout.json")}


def test_the_heldout_child_scores_each_block_as_curioseq_eval_does(claim, tmp_path, monkeypatch):
    # a tiny xe run scored on 10 held-out scenes in blocks of 4, 4 and 2,
    # against `curioseq eval` on a manifest of each block
    monkeypatch.setattr(claim, "SCENES", 8)
    monkeypatch.setattr(claim, "HELDOUT_SCENES", 10)
    monkeypatch.setattr(claim, "BLOCK", 4)
    corpus, config = tmp_path / "corpus", tmp_path / "xe" / "config.json"
    claim.same_bytes.synth_corpus(ROOT, corpus, 0, 8, 4)
    manifest = claim.synth_heldout(ROOT, corpus, tmp_path / "heldout", 0)
    config.parent.mkdir()
    config.write_text(json.dumps({
        **claim.same_bytes.README_CONFIG, "epochs": 1,
        "train_manifest": str(corpus / "train_manifest.json"),
        "val_manifest": str(corpus / "val_manifest.json"), "mode": "xe"}))
    run = claim.claim_run(ROOT, config, 0, "xe", manifest)
    assert run is not None and len(run["heldout_block_cider"]) == 3
    doc = json.loads(manifest.read_text())
    for i, b in enumerate(range(0, 10, 4)):
        block = manifest.parent / f"block{i}_manifest.json"     # beside the features
        block.write_text(json.dumps({**doc, "scenes": doc["scenes"][b:b + 4]}))
        scored = tmp_path / f"block{i}_config.json"
        scored.write_text(json.dumps({**json.loads(config.read_text()),
                                      "val_manifest": str(block)}))
        proc = claim.same_bytes.curioseq(ROOT, "eval", "--config", str(scored), "--checkpoint",
                                         str(config.parent / "run" / "last.ckpt"))
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["n_scenes"] == min(4, 10 - b)
        assert run["heldout_block_cider"][i] == record["cider"]
        assert run["heldout_block_distinct2"][i] == record["distinct2"]


def test_the_heldout_synthesis_extends_the_corpus_val_split(claim, tmp_path, monkeypatch):
    monkeypatch.setattr(claim, "SCENES", 8)
    monkeypatch.setattr(claim, "HELDOUT_SCENES", 10)
    corpus = tmp_path / "corpus"
    claim.same_bytes.synth_corpus(ROOT, corpus, 0, 8, 4)
    manifest = claim.synth_heldout(ROOT, corpus, tmp_path / "heldout", 0)
    assert manifest == tmp_path / "heldout" / "val_manifest.json"
    assert sorted(p.name for p in manifest.parent.glob("*.json")) == ["train_manifest.json",
                                                                       "val_manifest.json"]
    full = dat.load_dataset(manifest, t_max=30)
    assert len(full.scenes) == 10
    val = dat.load_dataset(corpus / "val_manifest.json", t_max=30)
    for a, b in zip(val.scenes, full.scenes[:4], strict=False):
        assert a.scene_id == b.scene_id and a.references == b.references
        assert (a.features == b.features).all()
    # another seed's corpus has another train split, and the tool stops
    with pytest.raises(SystemExit):
        claim.synth_heldout(ROOT, corpus, tmp_path / "other", 1)


def test_the_twin_shuffles_call_k_of_a_run_by_its_seed_and_k(claim, monkeypatch):
    terminal = np.array([0.1, 0.5, 0.2, 0.9, 0.4, 0.0, 0.7])
    first = [claim.shuffle(terminal, 7919, k) for k in range(4)]
    for k, got in enumerate(first):
        assert sorted(got.tolist()) == sorted(terminal.tolist())
        np.testing.assert_array_equal(got, claim.shuffle(terminal, 7919, k))
        np.testing.assert_array_equal(
            got, terminal[np.random.default_rng([7919, k]).permutation(terminal.size)])
    assert terminal.tolist() == [0.1, 0.5, 0.2, 0.9, 0.4, 0.0, 0.7]
    assert any((got != terminal).any() for got in first)
    # twin_main wraps the terminal_q that the run looks up, call by call
    seen = []
    monkeypatch.setattr(R, "terminal_q", lambda t, *args: seen.append((t, args)) or len(seen))

    def run(argv):
        assert argv == ["train", "--config", "c.json"]
        assert [R.terminal_q(terminal + k, "lengths", 9) for k in range(3)] == [1, 2, 3]
        return 0

    monkeypatch.setattr(cli, "main", run)
    assert claim.twin_main(["7919", "train", "--config", "c.json"]) == 0
    for k, (got, args) in enumerate(seen):
        np.testing.assert_array_equal(got, claim.shuffle(terminal + k, 7919, k))
        assert args == ("lengths", 9)
    # a run that never calls terminal_q trains no twin
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    assert claim.twin_main(["7919", "train"]) == 3


def test_the_twin_of_the_zero_reward_control_writes_the_same_bytes(claim, tmp_path):
    # every terminal reward is 0, so shuffling them changes nothing
    corpus, config = tmp_path / "corpus", tmp_path / "config.json"
    claim.same_bytes.synth_corpus(ROOT, corpus, 0, 8, 4)
    config.write_text(json.dumps({
        **claim.same_bytes.README_CONFIG, "epochs": 2,
        "train_manifest": str(corpus / "train_manifest.json"),
        "val_manifest": str(corpus / "val_manifest.json"),
        **claim.same_bytes.VARIANTS["zero_reward"]}))
    real = claim.train(ROOT, config, tmp_path / "real")
    twin = claim.train(ROOT, config, tmp_path / "twin", twin_seed=0)
    assert real is not None and twin is not None
    hashes = claim.same_bytes.file_hashes(tmp_path / "real")
    assert hashes["reports.jsonl"] and hashes["last.ckpt"]
    assert claim.same_bytes.file_hashes(tmp_path / "twin") == hashes
    assert {k: v for k, v in twin.items() if k != "wall_s"} == \
        {k: v for k, v in real.items() if k != "wall_s"}


def tiny(claim, monkeypatch, variants, epochs):
    """Shrink the claim to corpus seed 0, the given variants and epochs, 8
    train and 4 val scenes, and 8 held-out scenes in two blocks."""
    monkeypatch.setattr(claim, "SEEDS", (0,))
    monkeypatch.setattr(claim, "VARIANTS", variants)
    monkeypatch.setattr(claim, "EPOCHS", epochs)
    monkeypatch.setattr(claim, "SCENES", 8)
    monkeypatch.setattr(claim, "VAL_SCENES", 4)
    monkeypatch.setattr(claim, "HELDOUT_SCENES", 8)
    monkeypatch.setattr(claim, "BLOCK", 4)


def test_a_tiny_claim_is_recorded_and_reruns_to_the_same_numbers(claim, tmp_path, monkeypatch):
    tiny(claim, monkeypatch, ("xe", "zero_reward"), 2)
    docs = []
    for i in range(2):
        out = tmp_path / f"claim{i}.json"
        assert claim.main(["--out", str(out), "--commit", "ab" * 20]) == 0
        docs.append(json.loads(out.read_text()))
    doc = docs[0]
    assert doc["commit"] == "ab" * 20 and doc["failed"] == []
    assert isinstance(doc["dirty"], bool)
    assert doc["seeds"] == [0] and doc["variants"] == ["xe", "zero_reward"]
    assert doc["epochs"] == 2 and doc["tail_epochs"] == 5 and doc["jobs"] == 2
    assert doc["scenes"] == 8 and doc["val_scenes"] == 4
    assert set(doc["runs"]) == {"seed0 xe", "seed0 zero_reward"}
    for run in doc["runs"].values():
        assert run["wall_s"] > 0
        assert all(len(run[name]) == 2 for name in claim.SERIES)
    assert doc["runs"]["seed0 xe"]["mean_episode_length"] == [0.0, 0.0]
    assert doc["runs"]["seed0 zero_reward"]["mean_episode_length"][0] > 0
    assert set(doc["summary"]["0"]) == {"xe", "zero_reward"}
    for variant, held_out in doc["summary"]["0"].items():
        blocks = doc["runs"][f"seed0 {variant}"]["heldout_block_cider"]
        assert len(blocks) == 2 and held_out["heldout_cider"] == sum(blocks) / 2
        assert 0 <= held_out["heldout_block_distinct2_mean"] <= 1
        assert held_out["heldout_block_distinct2_std"] >= 0
    assert set(doc["paired"]["0"]) == {"xe", "zero_reward"}
    assert set(doc["seeds_won"]) == {"xe", "zero_reward"}

    def numbers(d):
        runs = {name: {k: v for k, v in run.items() if k != "wall_s"}
                for name, run in d["runs"].items()}
        return runs, d["summary"], d["paired"], d["seeds_won"]

    assert numbers(docs[1]) == numbers(doc)


def test_a_failed_run_is_recorded_and_exits_1(claim, tmp_path, monkeypatch):
    monkeypatch.setitem(claim.same_bytes.VARIANTS, "bad_rate", {"learning_rate": -1.0})
    tiny(claim, monkeypatch, ("xe", "bad_rate"), 1)
    out = tmp_path / "claim.json"
    assert claim.main(["--out", str(out), "--commit", "0" * 40]) == 1
    doc = json.loads(out.read_text())
    assert doc["failed"] == ["seed0 bad_rate"] and doc["runs"]["seed0 bad_rate"] is None
    assert set(doc["summary"]["0"]) == {"xe"} and doc["paired"] == {}


def git(tree, *args):
    return subprocess.run(["git", "-c", "user.name=claim", "-c", "user.email=claim@localhost",
                           "-c", "commit.gpgsign=false", *args], cwd=tree, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_uncommitted_code_is_recorded_as_dirty(claim, tmp_path, monkeypatch):
    # a committed copy of the source and the tools, whose runs use an
    # uncommitted edit: the record must not present them as its HEAD alone
    tree = tmp_path / "tree"
    for part in ("src", "tools"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "README.md").write_text("copy\n")
    git(tree, "init", "-q")
    git(tree, "add", ".")
    git(tree, "commit", "-q", "-m", "copy")
    head = git(tree, "rev-parse", "HEAD")
    assert not claim.dirty(tree)
    (tree / "README.md").write_text("edited\n")
    assert not claim.dirty(tree)              # only src/ and tools/ are run
    with (tree / "src" / "curioseq" / "__init__.py").open("a") as f:
        f.write("# an uncommitted edit\n")
    assert claim.dirty(tree)
    (tmp_path / "plain").mkdir()
    assert not claim.dirty(tmp_path / "plain")  # git cannot tell
    monkeypatch.setattr(claim, "TOOLS", tree / "tools")
    tiny(claim, monkeypatch, ("xe",), 1)
    out = tmp_path / "claim.json"
    assert claim.main(["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["commit"] == head and doc["dirty"] is True


def readme_config():
    """The run/config.json block of README.md."""
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"cat > run/config.json <<'EOF'\n(.*?)\nEOF", text, re.S)[1])


def perfbench_config():
    """perfbench/workloads.py's README_CONFIG, read from its source: a
    dict(...) of constants."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    (call,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["README_CONFIG"]]
    return {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}


def test_one_readme_config_everywhere(claim):
    # the claim and the exactness tool train with same_bytes.README_CONFIG,
    # the benchmark with its own copy, and README shows a third
    skipped = ("epochs", "train_manifest", "val_manifest", "out_dir")
    configs = {name: T.TrainConfig(**{k: v for k, v in doc.items() if k not in skipped})
               for name, doc in (("same_bytes", claim.same_bytes.README_CONFIG),
                                 ("perfbench", perfbench_config()),
                                 ("README", readme_config()))}
    assert configs["same_bytes"] != T.TrainConfig()
    assert configs["perfbench"] == configs["same_bytes"]
    assert configs["README"] == configs["same_bytes"]
