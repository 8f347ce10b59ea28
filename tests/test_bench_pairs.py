"""The summary math and the exit status of tools/bench_pairs.py on
synthetic records; nothing here runs the benchmark. The tool uses only the
standard library, so it is loaded by path."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("curioseq_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(epoch_s, rss=80.0, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"epoch_s": {"value": epoch_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_quartiles_match_statistics(bench_pairs):
    values = [2.0, 1.0, 4.0, 3.0, 10.0]
    q = bench_pairs.quartiles(values)
    assert q == {"median": 3.0, "q1": 1.5, "q3": 7.0}
    assert [q["q1"], q["q3"]] == statistics.quantiles(values, n=4)[::2]
    assert bench_pairs.quartiles([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    with pytest.raises(ValueError):
        bench_pairs.quartiles([])


def test_summary_counts_wins_ties_and_the_gap(bench_pairs):
    parent = [2.0, 2.2, 1.9, 2.1]
    change = [1.5, 2.3, 1.4, 1.6]
    pairs = [{"parent": record(p, rss=80.0), "change": record(c, rss=r)}
             for p, c, r in zip(parent, change, [79.0, 80.0, 81.0, 80.5])]
    s = bench_pairs.summarize(pairs)
    assert s["pairs"] == 4 and s["all_correct"]
    e = s["epoch_s"]
    assert e["parent"] == {"median": 2.05, "q1": statistics.quantiles(parent, n=4)[0],
                           "q3": statistics.quantiles(parent, n=4)[2]}
    assert e["change"]["median"] == 1.55
    assert e["change_wins"] == 3 and e["ties"] == 0
    assert e["relative_change"] == pytest.approx(1.55 / 2.05 - 1.0, rel=1e-15)
    # gap 0.5 against a parent quartile distance of 2.175 - 1.925 = 0.25
    assert e["gap_exceeds_parent_iqr"] is True
    r = s["peak_rss_mb"]
    assert r["change_wins"] == 1 and r["ties"] == 1
    assert r["gap_exceeds_parent_iqr"] is False


def test_a_gap_within_the_parent_iqr_either_way_is_unresolved(bench_pairs):
    # parent quartiles 1.925 and 2.175 (distance 0.25) around a median of 2.05
    parent = [2.0, 2.2, 1.9, 2.1]
    cases = {"better inside": [1.9, 2.0, 1.8, 1.9], "worse inside": [2.2, 2.3, 2.1, 2.2],
             "better past": [1.7, 1.8, 1.6, 1.7], "worse past": [2.4, 2.5, 2.3, 2.4]}
    unresolved = {}
    for case, change in cases.items():
        pairs = [{"parent": record(p), "change": record(c)} for p, c in zip(parent, change)]
        s = bench_pairs.summarize(pairs, {"epoch_s": 0.25})
        unresolved[case] = s["epoch_s"]["unresolved"]
        line = bench_pairs.bound_lines("crl_epoch-seed0", s)[0]
        assert ("parent IQR: False (unresolved), gain rule" in line) is unresolved[case], case
    assert unresolved == {"better inside": True, "worse inside": True,
                          "better past": False, "worse past": False}
    # without spread, equal runs are resolved as unchanged
    same = bench_pairs.summarize([{"parent": record(2.0), "change": record(2.0)}] * 4)
    assert same["epoch_s"]["unresolved"] is False


def test_a_failed_or_incorrect_run_clears_all_correct(bench_pairs):
    ok = {"parent": record(2.0), "change": record(1.0)}
    for bad in (record(1.0, failed=1), record(1.0, correct=False)):
        assert not bench_pairs.summarize([ok, {"parent": record(2.0), "change": bad}])[
            "all_correct"]


def test_only_metrics_every_run_has_are_summarized(bench_pairs):
    extra = record(1.0)
    extra["metrics"]["setup_s"] = {"value": 0.1, "unit": "s"}
    s = bench_pairs.summarize([{"parent": record(2.0), "change": extra}])
    assert "setup_s" not in s and "epoch_s" in s


def test_end_to_end_metrics_are_checked_against_their_bounds(bench_pairs):
    # epoch_s 2.0 -> 2.6 (+30%) misses a 25% bound; peak_rss_mb 80 -> 85 (+6.25%)
    # stays inside 10%; xe_loss has no samples here and setup_s no bound
    pairs = [{"parent": record(2.0, rss=80.0), "change": record(2.6, rss=85.0)}]
    s = bench_pairs.summarize(pairs, {"epoch_s": 0.25, "peak_rss_mb": 0.1, "xe_loss": 0.1})
    assert s["epoch_s"]["bound"] == 0.25 and s["epoch_s"]["worse_than_bound"] is True
    assert s["peak_rss_mb"]["bound"] == 0.1 and s["peak_rss_mb"]["worse_than_bound"] is False
    assert "xe_loss" not in s
    lines = bench_pairs.bound_lines("decode-seed0", s)
    assert len(lines) == 2
    assert lines[0].startswith("decode-seed0: epoch_s 2 -> 2.6 (+30.0%, bound +25%: WORSE)")
    assert lines[1].startswith("decode-seed0: peak_rss_mb 80 -> 85 (+6.2%, bound +10%: within)")
    assert "bound" not in bench_pairs.summarize(pairs)["epoch_s"]


def test_bounds_are_read_from_the_benchmark_declaration(bench_pairs):
    bounds = bench_pairs.end_to_end_bounds(TOOL.parents[1])
    assert set(bounds) == {"setup_s", "epoch_s", "xe_loss", "step_ms.p90", "peak_rss_mb"}
    assert all(0.0 < b < 1.0 for b in bounds.values())


def test_plan_parsing(bench_pairs):
    assert bench_pairs.parse_plan("crl_epoch:7919:4") == ("crl_epoch", 7919, 4)


def fake_runs(bench_pairs, monkeypatch, epoch_s, fail_at=None, correct=True):
    """Replace run_once: the i-th run (from 0) returns record(epoch_s[side]),
    and run fail_at raises RunFailed as a run exiting 3 would."""
    calls = []

    def run_once(tree, workload, seed, trace, log, label):
        side = label.split()[-1]
        log.append(f"{label} {workload} seed {seed} trace {trace}: exit "
                   f"{3 if len(calls) == fail_at else 0}")
        if len(calls) == fail_at:
            log.append("Traceback: the last line of stderr")
            raise bench_pairs.RunFailed(f"{label} {workload} seed {seed} trace {trace} exited 3")
        calls.append(label)
        return record(epoch_s[side], correct=correct or side == "parent")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda tree: "parent")
    monkeypatch.chdir(TOOL.parents[1])
    return calls


def main(bench_pairs, tmp_path, *extra):
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path), "--out", str(out),
                             "--plan", "decode:0:2", *extra])
    return code, json.loads(out.read_text())


def test_a_flat_correct_plan_exits_0(bench_pairs, monkeypatch, tmp_path, capsys):
    fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.1})
    code, doc = main(bench_pairs, tmp_path, "--traced", "decode")
    assert code == 0 and "failed_run" not in doc
    assert doc["paired"]["decode-seed0"]["summary"]["epoch_s"]["worse_than_bound"] is False
    assert set(doc["traced"]["decode"]) == {"parent", "change"}
    assert "within" in capsys.readouterr().out


def test_a_failed_last_run_writes_the_record_so_far(bench_pairs, monkeypatch, tmp_path, capsys):
    # two pairs and two traced runs: the sixth run, the last, fails
    calls = fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.0}, fail_at=5)
    code, doc = main(bench_pairs, tmp_path, "--traced", "decode")
    assert code == 1 and len(calls) == 5
    assert len(doc["paired"]["decode-seed0"]["pairs"]) == 2
    assert "summary" in doc["paired"]["decode-seed0"] and doc["traced"] == {}
    assert doc["failed_run"] == "traced change decode seed 0 trace 1 exited 3"
    assert doc["run_log"][-2:] == ["traced change decode seed 0 trace 1: exit 3",
                                   "Traceback: the last line of stderr"]
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: traced change")


def test_a_failed_run_keeps_the_complete_pairs(bench_pairs, monkeypatch, tmp_path):
    fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.0}, fail_at=3)
    code, doc = main(bench_pairs, tmp_path)
    assert code == 1
    entry = doc["paired"]["decode-seed0"]
    assert len(entry["pairs"]) == 1 and "summary" not in entry


def test_a_median_worse_than_its_bound_exits_1(bench_pairs, monkeypatch, tmp_path, capsys):
    fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.6})
    code, doc = main(bench_pairs, tmp_path)
    assert code == 1 and "failed_run" not in doc
    assert doc["paired"]["decode-seed0"]["summary"]["epoch_s"]["worse_than_bound"] is True
    assert "WORSE" in capsys.readouterr().out


def test_an_incorrect_run_exits_1(bench_pairs, monkeypatch, tmp_path):
    fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.0}, correct=False)
    code, doc = main(bench_pairs, tmp_path)
    assert code == 1 and not doc["paired"]["decode-seed0"]["summary"]["all_correct"]


def test_run_once_logs_the_exit_code_and_stderr_tail(bench_pairs, monkeypatch, tmp_path):
    stderr = "\n".join(f"line {i}" for i in range(50)) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kw:
                        subprocess.CompletedProcess(cmd, 3, "partial\n", stderr))
    log = []
    with pytest.raises(bench_pairs.RunFailed, match="exited 3"):
        bench_pairs.run_once(tmp_path, "decode", 0, 0, log, "pair 0 change")
    assert "exit 3 partial" in log[0]
    assert log[1:] == [f"line {i}" for i in range(50 - bench_pairs.STDERR_TAIL, 50)]


def test_the_gain_rule_needs_nine_wins_in_ten_and_a_gap_past_the_parent_iqr(
        bench_pairs, monkeypatch, tmp_path, capsys):
    # seed 0: the change wins pairs 0-8 and ties pair 9, which counts for
    # neither side, so 9/10; seed 1: a second tie leaves 8/10; seed 2: 10/10
    # wins by a gap inside the parent's quartile distance
    parent = [2.0, 2.1, 1.9, 2.2, 2.0, 2.1, 1.9, 2.0, 2.1, 2.0]
    epoch_s = {
        0: {"parent": parent, "change": [1.5, 1.6, 1.4, 1.7, 1.5, 1.6, 1.4, 1.5, 1.6, 2.0]},
        1: {"parent": parent, "change": [1.5, 1.6, 1.4, 1.7, 1.5, 1.6, 1.4, 1.5, 2.1, 2.0]},
        2: {"parent": parent, "change": [p - 0.01 for p in parent]},
    }

    def run_once(tree, workload, seed, trace, log, label):
        _, i, side = label.split()
        return record(epoch_s[seed][side][int(i)])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda tree: "parent")
    monkeypatch.chdir(TOOL.parents[1])
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path), "--out", str(out), "--plan",
                             "decode:0:10", "--plan", "decode:1:10", "--plan", "decode:2:10"])
    assert code == 0
    summaries = {seed: json.loads(out.read_text())["paired"][f"decode-seed{seed}"]["summary"]
                 for seed in epoch_s}
    assert [(s["epoch_s"]["change_wins"], s["epoch_s"]["ties"], s["epoch_s"]["gain_rule_holds"])
            for s in summaries.values()] == [(9, 1, True), (8, 2, False), (10, 0, False)]
    assert summaries[2]["epoch_s"]["gap_exceeds_parent_iqr"] is False
    # peak_rss_mb ties in every pair: no wins, no gain
    assert summaries[0]["peak_rss_mb"]["gain_rule_holds"] is False
    lines = [line for line in capsys.readouterr().out.splitlines() if " epoch_s " in line]
    assert [line.rsplit("gain rule: ", 1)[1] for line in lines] == ["holds", "not met",
                                                                     "not met"]


SHA = "0123456789abcdef0123456789ABCDEF01234567"


def test_a_parent_without_git_is_named_by_parent_commit(bench_pairs, monkeypatch, tmp_path):
    fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.0})
    monkeypatch.setattr(bench_pairs, "commit_of", lambda tree: None)
    code, doc = main(bench_pairs, tmp_path, "--parent-commit", SHA)
    assert code == 0 and doc["parent_commit"] == SHA.lower()


def test_an_unnamed_parent_commit_stops_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                                       capsys):
    commit_of = bench_pairs.commit_of
    assert commit_of(tmp_path) is None        # tmp_path holds no git metadata
    calls = fake_runs(bench_pairs, monkeypatch, {"parent": 2.0, "change": 2.0})
    monkeypatch.setattr(bench_pairs, "commit_of", commit_of)
    out = tmp_path / "bench.json"
    for extra in ([], ["--parent-commit", "unknown"], ["--parent-commit", SHA[:39]]):
        with pytest.raises(SystemExit) as exit_:
            bench_pairs.main(["--parent", str(tmp_path), "--out", str(out), "--plan",
                              "decode:0:2", *extra])
        assert exit_.value.code == 2
        assert "--parent-commit" in capsys.readouterr().err
    assert calls == [] and not out.exists()
