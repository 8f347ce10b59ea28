"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Every workload uses the README config (adam, learning rate 0.003, imitation
weight 6.0, t_max 30, Z 64, batch 16) on the desk-scale synthetic corpus of
200 train and 50 val scenes that `curioseq synth` makes from the workload
seed.

- crl_epoch: one `trainer.train` epoch of the full method, checkpoints on.
- xe_epoch: the same epoch, imitation only.
- decode: `trainer.evaluate` over all 250 scenes, greedy and then beam
  width 2, with the initial model saved and reloaded through `checkpoint`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import all_finite, decode_is_valid

README_CONFIG = dict(optimizer="adam", learning_rate=0.003, imitation_weight=6.0,
                     t_max=30, hidden_size=64, batch_size=16, epochs=1)
TRAIN_SCENES = 200
VAL_SCENES = 50
BEAM_WIDTH = 2
WORKLOADS = ("crl_epoch", "xe_epoch", "decode")


@dataclass
class Corpus:
    train: list
    val: list
    vocab: object
    feature_dim: int
    model: object = None          # the reloaded initial model (decode only)


@dataclass
class PassResult:
    """One timed pass: wall time, per-step latencies and checked outputs."""

    seconds: float
    step_ms: list[float]
    outputs: list[str]            # compared byte for byte between repeats
    attempted: int
    failed: int
    xe_loss: float
    details: dict = field(default_factory=dict)


class Probe:
    """Times the calls made through one module attribute and keeps their
    results; restores the attribute on exit."""

    def __init__(self, module, attr: str):
        self.module = module
        self.attr = attr
        self.original = getattr(module, attr)
        self.calls: list[tuple[float, object]] = []

    def __enter__(self) -> "Probe":
        original, calls, clock = self.original, self.calls, time.perf_counter

        def probe(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            calls.append((clock() - start, result))
            return result

        setattr(self.module, self.attr, probe)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.attr, self.original)


def config(cs, **overrides):
    return cs.trainer.TrainConfig(**{**README_CONFIG, **overrides})


def set_up(cs, workload: str, seed: int, workdir: Path) -> Corpus:
    """Build the corpus as a user does (`curioseq synth`, then
    `data.load_dataset`); for decode, also save and reload the initial model."""
    corpus_dir = workdir / "corpus"
    with contextlib.redirect_stdout(sys.stderr):
        status = cs.cli.main(["synth", "--out", str(corpus_dir), "--seed", str(seed),
                              "--scenes", str(TRAIN_SCENES),
                              "--val-scenes", str(VAL_SCENES)])
    if status != 0:
        raise RuntimeError(f"curioseq synth exited with {status}")
    t_max = README_CONFIG["t_max"]
    train = cs.data.load_dataset(corpus_dir / "train_manifest.json", t_max=t_max)
    val = cs.data.load_dataset(corpus_dir / "val_manifest.json", t_max=t_max)
    corpus = Corpus(train.scenes, val.scenes, train.vocab, train.feature_dim)
    if workload == "decode":
        cfg = config(cs)
        path = workdir / "initial.ckpt"
        initial = cs.trainer.init_model(cfg, corpus.vocab.size, corpus.feature_dim)
        cs.trainer.save_model(path, initial, extra={"config": cfg.semantic_dict()})
        corpus.model, _ = cs.trainer.load_model(path, cfg, corpus.vocab.size,
                                                corpus.feature_dim)
    return corpus


def run_pass(cs, workload: str, corpus: Corpus, workdir: Path) -> PassResult:
    if workload == "decode":
        return _decode_pass(cs, corpus)
    return _epoch_pass(cs, corpus, workload.split("_")[0], workdir)


def expected_ops(workload: str) -> int:
    """Operations in one pass: train steps plus decoded scenes."""
    if workload == "decode":
        return 2 * (TRAIN_SCENES + VAL_SCENES)
    return -(-TRAIN_SCENES // README_CONFIG["batch_size"]) + VAL_SCENES


def _tokens_line(tokens) -> str:
    return " ".join(str(t) for t in tokens)


def _invalid_decodes(cs, corpus: Corpus, decodes) -> int:
    t_max = README_CONFIG["t_max"]
    eos = cs.vocab.EOS_ID
    return sum(not decode_is_valid(tokens, corpus.vocab.size, t_max, eos)
               for tokens in decodes)


def _epoch_pass(cs, corpus: Corpus, mode: str, workdir: Path) -> PassResult:
    out_dir = workdir / f"run_{mode}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = config(cs, mode=mode, out_dir=str(out_dir))
    with Probe(cs.trainer, "train_step") as steps, \
            Probe(cs.policy, "rollout_greedy") as greedy:
        start = time.perf_counter()
        result = cs.trainer.train(corpus.train, corpus.val, corpus.vocab, cfg)
        seconds = time.perf_counter() - start
    report = json.loads(result.reports[0].to_json())
    decodes = [tokens for _, tokens in greedy.calls]
    checkpoint = hashlib.sha256((out_dir / "last.ckpt").read_bytes()).hexdigest()
    failed = _invalid_decodes(cs, corpus, decodes)
    if not all_finite(report):
        failed += len(steps.calls)
    return PassResult(
        seconds=seconds,
        step_ms=[1e3 * s for s, _ in steps.calls],
        outputs=[result.reports[0].to_json(), checkpoint] + [_tokens_line(t) for t in decodes],
        attempted=len(steps.calls) + len(decodes),
        failed=failed,
        xe_loss=report["xe_loss"],
    )


def _metric_doc(report) -> dict:
    return {"bleu": report.bleu, "cider": report.cider, "distinct1": report.distinct1,
            "distinct2": report.distinct2, "n_scenes": report.n_scenes}


def _decode_pass(cs, corpus: Corpus) -> PassResult:
    scenes = corpus.train + corpus.val
    idf = cs.metrics.build_idf(cs.trainer.reference_documents(corpus.train, corpus.vocab))
    greedy_cfg = config(cs)
    beam_cfg = config(cs, decode="beam", beam_width=BEAM_WIDTH)
    with Probe(cs.policy, "rollout_greedy") as greedy, \
            Probe(cs.policy, "beam_search") as beam:
        start = time.perf_counter()
        greedy_report = cs.trainer.evaluate(scenes, corpus.model, corpus.vocab, idf, greedy_cfg)
        beam_report = cs.trainer.evaluate(scenes, corpus.model, corpus.vocab, idf, beam_cfg)
        seconds = time.perf_counter() - start
    decodes = [tokens for _, tokens in greedy.calls + beam.calls]
    doc = {"greedy": _metric_doc(greedy_report), "beam": _metric_doc(beam_report)}
    failed = _invalid_decodes(cs, corpus, decodes)
    if not all_finite(doc):
        failed += len(decodes)
    greedy_s = [s for s, _ in greedy.calls]
    beam_s = [s for s, _ in beam.calls]
    return PassResult(
        seconds=seconds,
        step_ms=[1e3 * (g + b) for g, b in zip(greedy_s, beam_s)],
        outputs=[json.dumps(doc, sort_keys=True)] + [_tokens_line(t) for t in decodes],
        attempted=len(decodes),
        failed=failed,
        xe_loss=float("nan"),
        details={"greedy_s": greedy_s, "beam_s": beam_s,
                 "greedy_len": [len(t) for _, t in greedy.calls],
                 "beam_len": [len(t) for _, t in beam.calls]},
    )


def decode_xe_loss(cs, corpus: Corpus) -> float:
    """Mean teacher-forced imitation loss of the reloaded initial model over
    all scenes: the decode workload's quality guard."""
    scenes = corpus.train + corpus.val
    with cs.kernel.no_grad():
        total = sum(float(cs.trainer.xe_loss(corpus.model.policy, scene, 0).data)
                    for scene in scenes)
    return total / len(scenes)
