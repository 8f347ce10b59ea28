"""The summary arithmetic of tools/claim.py on hand-made report lists, one
tiny end-to-end call, and the README config that the claim, the exactness
tool and the benchmark each train with. The tools use only the standard
library, so they are loaded by path."""

import ast
import importlib.util
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

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


def tiny(claim, monkeypatch, variants, epochs):
    """Shrink the claim to corpus seed 0, the given variants and epochs, and
    8 train and 4 val scenes."""
    monkeypatch.setattr(claim, "SEEDS", (0,))
    monkeypatch.setattr(claim, "VARIANTS", variants)
    monkeypatch.setattr(claim, "EPOCHS", epochs)
    monkeypatch.setattr(claim, "SCENES", 8)
    monkeypatch.setattr(claim, "VAL_SCENES", 4)


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
