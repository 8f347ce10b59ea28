"""The comparison and the exit status of tools/same_bytes.py: on hand-made
hash maps, and one tiny end-to-end call that compares this tree with
itself. The tool uses only the standard library, so it is loaded by path."""

import importlib.util
import json
from pathlib import Path

import pytest

from curioseq import data as dat

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_bytes.py"


@pytest.fixture(scope="module")
def same_bytes():
    spec = importlib.util.spec_from_file_location("curioseq_same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hashes(same_bytes, decoded=False, **changed):
    """A full hash map: file f hashes to f * 8, and so, for a decoded run,
    does each decode record, unless changed names it."""
    names = list(same_bytes.FILES) + (list(same_bytes.DECODES) if decoded else [])
    out = {name: name.replace(".", "").replace("_", "") * 8 for name in names}
    out.update({name if name in out else name.replace("_", "."): value
                for name, value in changed.items()})
    return out


def test_equal_hashes_compare_the_same(same_bytes):
    runs = {"seed0 crl": {"parent": hashes(same_bytes), "change": hashes(same_bytes)},
            "seed0 xe": {"parent": hashes(same_bytes), "change": hashes(same_bytes)}}
    lines, same = same_bytes.compare(runs)
    assert same
    assert len(lines) == 2 * len(same_bytes.FILES)
    assert all(line.endswith(" same") for line in lines)
    first = lines[0].split()
    assert first[:3] == ["seed0", "crl", "reports.jsonl"]
    assert first[3] == first[4] == ("reportsjsonl" * 8)[:same_bytes.PREFIX]


def test_one_differing_file_fails_the_comparison(same_bytes):
    runs = {"seed7919 beta_0": {"parent": hashes(same_bytes),
                                "change": hashes(same_bytes, best_ckpt="f" * 64)}}
    lines, same = same_bytes.compare(runs)
    assert not same
    assert [line.split()[2] for line in lines if line.endswith("DIFFERENT")] == ["best.ckpt"]


def test_a_file_neither_tree_wrote_counts_as_the_same(same_bytes):
    unwritten = hashes(same_bytes, best_ckpt=None)
    lines, same = same_bytes.compare({"seed0 crl_sgd": {"parent": unwritten,
                                                        "change": dict(unwritten)}})
    assert same
    assert "best.ckpt       absent" in lines[2] and lines[2].endswith(" same")
    lines, same = same_bytes.compare({"seed0 crl_sgd": {"parent": unwritten,
                                                        "change": hashes(same_bytes)}})
    assert not same and "absent" in lines[2] and lines[2].endswith("DIFFERENT")


def test_a_decoded_run_compares_its_eval_records(same_bytes):
    runs = {"seed0 xe": {"parent": hashes(same_bytes, True), "change": hashes(same_bytes, True)},
            "seed0 rho_0": {"parent": hashes(same_bytes), "change": hashes(same_bytes)}}
    lines, same = same_bytes.compare(runs)
    assert same
    names = list(same_bytes.FILES) + list(same_bytes.DECODES)
    assert [line.split()[2] for line in lines] == names + list(same_bytes.FILES)
    assert same_bytes.DECODES == {
        "eval_greedy": ("eval", "--split", "val"),
        "eval_beam2": ("eval", "--split", "val", "--beam-width", "2"),
        "generate_greedy": ("generate", "--scene-id", "val_0000"),
        "generate_beam2": ("generate", "--scene-id", "val_0000", "--beam-width", "2")}
    for record in ("eval_beam2", "generate_greedy"):
        runs["seed0 xe"]["change"] = hashes(same_bytes, True, **{record: "f" * 64})
        lines, same = same_bytes.compare(runs)
        assert not same
        assert [line.split()[2] for line in lines if line.endswith("DIFFERENT")] == [record]


def test_a_failed_run_fails_the_comparison(same_bytes):
    runs = {"seed0 crl": {"parent": hashes(same_bytes), "change": hashes(same_bytes)},
            "seed0 xe": {"parent": None, "change": hashes(same_bytes)}}
    lines, same = same_bytes.compare(runs)
    assert not same
    assert lines[-1] == "seed0 xe: FAILED (parent)"
    assert all(line.endswith(" same") for line in lines[:-1])


def test_the_variants_cover_the_ablations(same_bytes):
    assert same_bytes.SEEDS == (0, 7919) and same_bytes.JOBS <= 2
    assert same_bytes.VARIANTS["xe"] == {"mode": "xe"}
    assert same_bytes.VARIANTS["zero_reward"] == {"bleu_weight": 0.0, "cider_weight": 0.0,
                                                  "intrinsic_scale": 0.0}
    assert all(v.get("mode", "crl") in ("crl", "xe") for v in same_bytes.VARIANTS.values())
    assert same_bytes.DECODED == ("crl", "xe")


def tiny(same_bytes, monkeypatch, variant):
    """Shrink the comparison to corpus seed 0, the one variant, one epoch
    and 6 train and 2 val scenes."""
    monkeypatch.setattr(same_bytes, "SEEDS", (0,))
    monkeypatch.setattr(same_bytes, "VARIANTS", {variant: same_bytes.VARIANTS[variant]})
    monkeypatch.setattr(same_bytes, "EPOCHS", 1)
    monkeypatch.setattr(same_bytes, "SCENES", 6)
    monkeypatch.setattr(same_bytes, "VAL_SCENES", 2)


def test_this_tree_writes_the_same_bytes_as_itself(same_bytes, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    tiny(same_bytes, monkeypatch, "crl")
    code = same_bytes.main(["--parent", str(ROOT), "--work", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0, out
    assert out[-1] == "1 runs: every file byte-identical"
    rows = [line.split() for line in out[1:-1]]
    assert [row[2] for row in rows] == list(same_bytes.FILES) + list(same_bytes.DECODES)
    assert all(row[3] == row[4] != "absent" and row[5] == "same" for row in rows)
    assert (tmp_path / "seed0" / "crl" / "change" / "last.ckpt").is_file()


def test_the_no_val_variant_trains_without_a_val_manifest(same_bytes, monkeypatch, tmp_path,
                                                          capsys):
    # eval --split val needs a val manifest, so the variant is not decoded
    assert "crl_no_val" not in same_bytes.DECODED
    monkeypatch.chdir(ROOT)
    tiny(same_bytes, monkeypatch, "crl_no_val")
    code = same_bytes.main(["--parent", str(ROOT), "--work", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0, out
    assert [line.split()[2] for line in out[1:-1]] == list(same_bytes.FILES)
    config = json.loads((tmp_path / "seed0" / "crl_no_val" / "config.json").read_text())
    assert config == {**same_bytes.README_CONFIG, "epochs": 1, "val_manifest": None,
                      "train_manifest": str(tmp_path / "corpus0" / "train_manifest.json")}


def test_the_ragged_copy_keeps_the_first_regions_of_each_scene(same_bytes, tmp_path):
    corpus, ragged = tmp_path / "corpus", tmp_path / "ragged"
    same_bytes.synth_corpus(ROOT, corpus, 0, 6, 5)
    same_bytes.ragged_copy(corpus, ragged)
    for split in ("train", "val"):
        full, cut = (dat.load_dataset(d / f"{split}_manifest.json", t_max=30)
                     for d in (corpus, ragged))
        m = full.scenes[0].features.shape[0]
        assert [s.features.shape[0] for s in cut.scenes] == [m - i % 4
                                                             for i in range(len(full.scenes))]
        assert cut.vocab.index_to_token == full.vocab.index_to_token
        for a, b in zip(full.scenes, cut.scenes):
            assert a.scene_id == b.scene_id and a.references == b.references
            assert (b.features == a.features[:b.features.shape[0]]).all()


def test_the_ragged_variants_train_on_the_ragged_copy(same_bytes, monkeypatch, tmp_path,
                                                      capsys):
    assert same_bytes.RAGGED == ("crl_ragged", "xe_ragged")
    assert same_bytes.VARIANTS["xe_ragged"] == same_bytes.VARIANTS["xe"]
    assert same_bytes.VARIANTS["crl_ragged"] == same_bytes.VARIANTS["crl"]
    monkeypatch.chdir(ROOT)
    tiny(same_bytes, monkeypatch, "xe_ragged")
    code = same_bytes.main(["--parent", str(ROOT), "--work", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0, out
    assert out[-1] == "1 runs: every file byte-identical"
    config = json.loads((tmp_path / "seed0" / "xe_ragged" / "config.json").read_text())
    assert config["train_manifest"] == str(tmp_path / "ragged0" / "train_manifest.json")
    assert config["val_manifest"] == str(tmp_path / "ragged0" / "val_manifest.json")


def test_an_unknown_parent_tree_stops_before_any_run(same_bytes, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        same_bytes.main(["--parent", str(tmp_path), "--work", str(tmp_path / "work")])
    assert exit_.value.code == 2 and "src/curioseq/cli.py" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def report_lines(*epochs):
    """A reports.jsonl text with one line per dict of fields, numbered."""
    return "".join(json.dumps({"epoch": e, **fields}, sort_keys=True) + "\n"
                   for e, fields in enumerate(epochs))


def test_a_moved_run_names_its_first_differing_epoch_and_largest_differences(
        same_bytes, tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text(report_lines({"rl_loss": 1.0, "sp_loss": 0.5, "val_cider": 0.2},
                                   {"rl_loss": 2.0, "sp_loss": 0.5, "val_cider": 0.2},
                                   {"rl_loss": 4.0, "sp_loss": 0.5, "val_cider": 0.2}))
    change.write_text(report_lines({"rl_loss": 1.0, "sp_loss": 0.5, "val_cider": 0.2},
                                   {"rl_loss": 2.5, "sp_loss": 0.5, "val_cider": 0.2},
                                   {"rl_loss": 4.4, "sp_loss": 0.4, "val_cider": 0.2}))
    # rl_loss moves 0.5 / 2.5 at epoch 1 and 0.4 / 4.4 at epoch 2; sp_loss 0.1 / 0.5
    assert same_bytes.moved(parent.read_text(), change.read_text()) == \
        "first differs at epoch 1; largest relative difference: rl_loss 0.2, sp_loss 0.2"
    assert same_bytes.moved(parent.read_text(), parent.read_text()) == \
        "3 report lines against 3, equal where both hold"


def test_main_prints_how_far_a_differing_run_moved(same_bytes, monkeypatch, tmp_path, capsys):
    # train_run replaced by one that writes hand-made reports: the change's
    # epoch 1 differs in rl_loss alone
    def fake_run(tree, config, out, decode):
        out.mkdir()
        last = 3.0 if out.name == "parent" else 3.0000000000000004
        (out / "reports.jsonl").write_text(report_lines({"rl_loss": 1.0}, {"rl_loss": last}))
        return same_bytes.file_hashes(out)

    monkeypatch.chdir(ROOT)
    tiny(same_bytes, monkeypatch, "rho_0")
    monkeypatch.setattr(same_bytes, "train_run", fake_run)
    code = same_bytes.main(["--parent", str(ROOT), "--work", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[1].split()[2] == "reports.jsonl" and out[1].endswith("DIFFERENT")
    assert out[-2] == ("seed0 rho_0 moved: first differs at epoch 1; "
                       "largest relative difference: rl_loss 1.5e-16")
    assert out[-1] == "1 runs: a file differs or a run failed"
