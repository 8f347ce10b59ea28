"""Command-line surface: synth, train, eval, generate, diversity.

Flags override the JSON config file's values, which override the built-in
defaults; the effective config is dumped at startup, so every run is
reproducible from its log alone. Bad input, and a file the system refuses
to read or write (a directory where a file goes, or the reverse), end a
command with exit status 1 and one `error:` line on stderr that names the
flag or the path. `train --out D` checks that a file can be written at
each of D/last.ckpt, D/last.ckpt.adam and D/best.ckpt before the first
epoch, and `eval --graph-out P` checks P before it loads the model;
`train`, `eval --split val` and `generate` reject a manifest whose feature
dimension or vocabulary differs from the train manifest's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import data as dat
from . import metrics as met
from . import policy as pol
from . import synth
from . import trainer as trn
from .checkpoint import CheckpointError
from .vocab import CorpusError, tokenize

CONFIG_KEYS = {f.name for f in dataclasses.fields(trn.TrainConfig)}


class CliError(ValueError):
    pass


def read_json_object(path: str, what: str, known: set[str]) -> dict:
    """The JSON object in the file at path, each of whose keys must be in
    known; every error names the file as `what` and its path."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} {path} line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CliError(f"{what} {path} is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{what} {path} must hold a JSON object")
    for key in doc:
        if key not in known:
            raise CliError(f"{what} {path}: unknown key {key!r}")
    return doc


def load_config(path: str | None, overrides: dict) -> trn.TrainConfig:
    values = read_json_object(path, "config", CONFIG_KEYS) if path else {}
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    try:
        return trn.TrainConfig(**values)
    except (trn.ConfigError, TypeError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def check_writable(path: Path, what: str) -> None:
    """Fail, before any work, on a path no file can be written at: a
    directory, or a path whose parent is not a directory."""
    if path.is_dir():
        raise CliError(f"cannot write {what} {path}: it is a directory")
    if not path.parent.is_dir():
        raise CliError(f"cannot write {what} {path}: {path.parent} is not a directory")


def dump_effective_config(cfg: trn.TrainConfig, out_dir: Path | None) -> None:
    line = cfg.to_json()
    print(f"config {line}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "effective_config.json").write_text(
            json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_grammar(path: str | None, seed: int) -> synth.GrammarSpec:
    if path is None:
        return synth.GrammarSpec(seed=seed)
    doc = read_json_object(path, "grammar spec",
                           {f.name for f in dataclasses.fields(synth.GrammarSpec)})
    doc["seed"] = seed
    try:
        for key in ("nouns", "adjectives", "verbs", "generic_templates", "templates"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return synth.GrammarSpec(**doc)
    except (synth.GrammarError, TypeError) as exc:
        raise CliError(f"grammar spec {path}: {exc}") from exc


def check_val_split(train: dat.LoadedDataset, val: dat.LoadedDataset, train_path,
                    val_path) -> None:
    """A val split is scored or decoded by a model of the train split: its
    scenes must have the train split's feature dimension, and its
    references must be encoded with the same token list."""
    if val.feature_dim != train.feature_dim:
        what = f"feature_dim {val.feature_dim}, not {train.feature_dim}"
    elif val.vocab.index_to_token != train.vocab.index_to_token:
        what = "a vocabulary with other tokens"
    else:
        return
    raise CliError(f"val manifest {val_path} does not match train manifest {train_path}: "
                   f"it has {what}")


def cmd_synth(args) -> int:
    for flag, count in (("--scenes", args.scenes), ("--val-scenes", args.val_scenes)):
        if count < 1:
            raise CliError(f"{flag} must be >= 1, got {count}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = _load_grammar(args.grammar, args.seed)
    train_scenes, val_scenes, vocab = synth.synth_split(spec, args.scenes, args.val_scenes)
    vocab.save(out / "vocab.txt")
    (out / "features").mkdir(exist_ok=True)

    def write_split(name: str, scenes):
        entries = []
        for scene in scenes:
            rel = f"features/{scene.scene_id}.bin"
            dat.write_features(out / rel, scene.features)
            refs = [" ".join(vocab.decode_text(r)) for r in scene.references]
            entries.append((scene.scene_id, rel, refs))
        dat.write_manifest(out / f"{name}_manifest.json", entries, "vocab.txt",
                           spec.feature_dim)

    write_split("train", train_scenes)
    write_split("val", val_scenes)
    print(f"wrote {len(train_scenes)} train and {len(val_scenes)} val scenes to {out}")
    return 0


def cmd_train(args) -> int:
    overrides = {
        "seed": args.seed, "epochs": args.epochs, "batch_size": args.batch_size,
        "hidden_size": args.hidden_size, "train_manifest": args.train_manifest,
        "val_manifest": args.val_manifest, "out_dir": args.out,
        "mode": args.mode, "optimizer": args.optimizer,
        "learning_rate": args.learning_rate,
    }
    cfg = load_config(args.config, overrides)
    if cfg.train_manifest is None:
        raise CliError("a train manifest is required (config train_manifest or --train-manifest)")
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    dump_effective_config(cfg, out_dir)
    if out_dir:
        # train writes these after its first epoch; find a blocked one before it
        last = out_dir / "last.ckpt"
        for path in (last, trn.optimizer_path(last), out_dir / "best.ckpt"):
            check_writable(path, "checkpoint")

    train_ds = dat.load_dataset(cfg.train_manifest, t_max=cfg.t_max)
    val_scenes = []
    if cfg.val_manifest is not None:
        val_ds = dat.load_dataset(cfg.val_manifest, t_max=cfg.t_max)
        check_val_split(train_ds, val_ds, cfg.train_manifest, cfg.val_manifest)
        val_scenes = val_ds.scenes

    model = opt = None
    start_epoch = 0
    best_cider = -math.inf
    if args.resume:
        model, opt, extra = trn.resume_state(args.resume, cfg, train_ds.vocab.size,
                                             train_ds.feature_dim)
        start_epoch = extra.get("epoch", -1)
        best_cider = extra.get("best_cider", best_cider)
        if type(start_epoch) is not int or type(best_cider) not in (int, float):
            raise CliError(f"checkpoint {args.resume} has a malformed epoch or best_cider")
        start_epoch += 1
        print(f"resuming from {args.resume} at epoch {start_epoch}")

    report_file = (out_dir / "reports.jsonl").open("a") if out_dir else None

    def sink(report: trn.EpochReport):
        line = report.to_json()
        print(line)
        if report_file:
            report_file.write(line + "\n")
            report_file.flush()

    try:
        trn.train(train_ds.scenes, val_scenes, train_ds.vocab, cfg,
                  start_epoch=start_epoch, model=model, report_sink=sink,
                  best_cider=best_cider, opt=opt)
    finally:
        if report_file:
            report_file.close()
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config, {
        "beam_width": args.beam_width,
        "decode": "beam" if args.beam_width and args.beam_width > 1 else None,
    })
    manifest = {"train": cfg.train_manifest, "val": cfg.val_manifest}[args.split]
    if manifest is None:
        raise CliError(f"config does not name a manifest for split {args.split!r}")
    if cfg.train_manifest is None:
        raise CliError("config does not name a train_manifest, which CIDEr's document "
                       "frequencies are built from")
    if args.graph_out:
        check_writable(Path(args.graph_out), "graph")
    ds = dat.load_dataset(manifest, t_max=cfg.t_max)
    train_ds = ds if args.split == "train" else dat.load_dataset(cfg.train_manifest, t_max=cfg.t_max)
    if args.split == "val":
        check_val_split(train_ds, ds, cfg.train_manifest, manifest)
    model, _ = trn.load_model(args.checkpoint, cfg, ds.vocab.size, ds.feature_dim)
    idf = met.build_idf(trn.reference_documents(train_ds.scenes, train_ds.vocab))
    report = trn.evaluate(ds.scenes, model, ds.vocab, idf, cfg)
    record = {
        "split": args.split,
        "decode": cfg.decode,
        "beam_width": cfg.beam_width,
        "n_scenes": report.n_scenes,
        "bleu1": report.bleu[1], "bleu2": report.bleu[2],
        "bleu3": report.bleu[3], "bleu4": report.bleu[4],
        "cider": report.cider,
        "distinct1": report.distinct1, "distinct2": report.distinct2,
    }
    if args.graph_out:
        Path(args.graph_out).write_text(
            json.dumps(report.graph.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_generate(args) -> int:
    cfg = load_config(args.config, {})
    if args.beam_width < 1:
        raise CliError("--beam-width must be >= 1")
    if cfg.train_manifest is None:
        raise CliError("config does not name a train_manifest, whose vocabulary the model "
                       "decodes with")
    manifest = args.manifest or cfg.val_manifest or cfg.train_manifest
    ds = dat.load_dataset(manifest, t_max=cfg.t_max)
    scene = next((s for s in ds.scenes if s.scene_id == args.scene_id), None)
    if scene is None:
        raise CliError(f"scene id {args.scene_id!r} not found in {manifest}")
    train_ds = (ds if manifest == cfg.train_manifest
                else dat.load_dataset(cfg.train_manifest, t_max=cfg.t_max))
    check_val_split(train_ds, ds, cfg.train_manifest, manifest)
    model, _ = trn.load_model(args.checkpoint, cfg, train_ds.vocab.size, train_ds.feature_dim)
    if args.beam_width > 1:
        tokens = pol.beam_search(model.policy, scene.features, cfg.t_max, args.beam_width)
    else:
        tokens = pol.rollout_greedy(model.policy, scene.features, cfg.t_max)
    print(" ".join(train_ds.vocab.decode_text(tokens)))
    return 0


def cmd_diversity(args) -> int:
    try:
        lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {args.input}: {exc}") from exc
    paragraphs = [tokenize(line) for line in lines if line.strip()]
    graph = met.diversity_graph(paragraphs)
    payload = json.dumps(graph.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curioseq",
                                     description="curiosity-driven sequence generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--grammar", help="grammar spec JSON (defaults built in)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenes", type=int, default=200)
    p.add_argument("--val-scenes", type=int, default=50)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config")
    p.add_argument("--train-manifest")
    p.add_argument("--val-manifest")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--mode", help=f"one of {', '.join(trn.MODES)}")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--beam-width", type=int)
    p.add_argument("--graph-out", help="write the diversity graph JSON here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("generate", help="decode one scene")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene-id", required=True)
    p.add_argument("--manifest")
    p.add_argument("--beam-width", type=int, default=1)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("diversity", help="export a diversity graph from text")
    p.add_argument("--input", required=True, help="one paragraph per line")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_diversity)

    return parser


def main(argv=None) -> int:
    """Run one command; a failure ends it as the module docstring says."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, dat.DatasetError, trn.ConfigError, trn.TrainingAborted,
            CheckpointError, CorpusError, synth.GrammarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
