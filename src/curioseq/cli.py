"""Command-line surface: synth, train, eval, generate, diversity.

Flags override the JSON config file's values, which override the built-in
defaults; the effective config is printed at startup, so every run is
reproducible from its log alone. `eval` and `generate` decode with the
config's `decode` and `beam_width`, and `--beam-width` overrides both;
`train` validates with greedy decoding and prints each epoch's report line.
`train --out D` leaves D to trainer.train, which writes every file there,
and `--resume` continues the run in D, or starts it when D has no last.ckpt.
Bad input, and a file the system refuses to read or write (a directory
where a file goes, or the reverse), end a command with exit status 1 and
one `error:` line on stderr that names the flag or the path. `eval
--graph-out P` checks P before it loads the model; `train`, `eval --split
val` and `generate` reject a manifest whose feature dimension or
vocabulary differs from the train manifest's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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


def load_config(args) -> trn.TrainConfig:
    """The config file args.config names, if any, under the values that the
    command's flags set: each argparse destination named after a TrainConfig
    field, and decode from --beam-width: beam search above 1, greedy at 1.
    Every command that loads a config reads the train manifest."""
    values = read_json_object(args.config, "config", CONFIG_KEYS) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in CONFIG_KEYS and value is not None)
    width = getattr(args, "beam_width", None)
    if width is not None:
        if width < 1:
            raise CliError("--beam-width must be >= 1")
        values["decode"] = "beam" if width > 1 else "greedy"
    try:
        cfg = trn.TrainConfig(**values)
    except (trn.ConfigError, TypeError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc
    if cfg.train_manifest is None:
        raise CliError("a train manifest is required (config train_manifest or --train-manifest)")
    return cfg


def _load_grammar(path: str | None, seed: int) -> synth.GrammarSpec:
    if path is None:
        return synth.GrammarSpec(seed=seed)
    doc = read_json_object(path, "grammar spec",
                           {f.name for f in dataclasses.fields(synth.GrammarSpec)})
    doc["seed"] = seed
    try:
        return synth.GrammarSpec(**doc)
    except (synth.GrammarError, TypeError) as exc:
        raise CliError(f"grammar spec {path}: {exc}") from exc


def load_split(cfg: trn.TrainConfig, manifest: str):
    """The datasets of manifest and of the config's train manifest, one load
    when they are one file. Another split is scored or decoded by a model of
    the train split: its scenes must have the train split's feature
    dimension, and its references must be encoded with the same token list."""
    ds = dat.load_dataset(manifest, t_max=cfg.t_max)
    if manifest == cfg.train_manifest:
        return ds, ds
    train = dat.load_dataset(cfg.train_manifest, t_max=cfg.t_max)
    if ds.feature_dim != train.feature_dim:
        what = f"feature_dim {ds.feature_dim}, not {train.feature_dim}"
    elif ds.vocab.index_to_token != train.vocab.index_to_token:
        what = "a vocabulary with other tokens"
    else:
        return ds, train
    raise CliError(f"manifest {manifest} does not match train manifest "
                   f"{cfg.train_manifest}: it has {what}")


def cmd_synth(args) -> int:
    for flag, value, least in (("--scenes", args.scenes, 1), ("--val-scenes", args.val_scenes, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise CliError(f"{flag} must be >= {least}, got {value}")
    spec = _load_grammar(args.grammar, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    cfg = load_config(args)
    print(f"config {cfg.to_json()}")
    val_ds, train_ds = load_split(cfg, cfg.val_manifest or cfg.train_manifest)
    trn.train(train_ds.scenes, val_ds.scenes if cfg.val_manifest else [], train_ds.vocab, cfg,
              resume=args.resume, report_sink=lambda report: print(report.to_json()))
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args)
    manifest = {"train": cfg.train_manifest, "val": cfg.val_manifest}[args.split]
    if manifest is None:
        raise CliError(f"config does not name a manifest for split {args.split!r}")
    if args.graph_out:
        trn.check_writable(Path(args.graph_out), "graph")
    ds, train_ds = load_split(cfg, manifest)
    model, _ = trn.load_model(args.checkpoint, cfg, ds.vocab.size, ds.feature_dim)
    idf = met.build_idf(trn.reference_documents(train_ds.scenes, train_ds.vocab))
    report = trn.evaluate(ds.scenes, model, ds.vocab, idf, cfg)
    record = {
        "split": args.split,
        "decode": "beam" if cfg.decode_width > 1 else "greedy",
        "beam_width": cfg.decode_width,
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
    cfg = load_config(args)
    manifest = args.manifest or cfg.val_manifest or cfg.train_manifest
    ds, train_ds = load_split(cfg, manifest)
    scene = next((s for s in ds.scenes if s.scene_id == args.scene_id), None)
    if scene is None:
        raise CliError(f"scene id {args.scene_id!r} not found in {manifest}")
    model, _ = trn.load_model(args.checkpoint, cfg, ds.vocab.size, ds.feature_dim)
    tokens = pol.decode(model.policy, scene.features, cfg.t_max, cfg.decode_width)
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
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--mode", help=f"one of {', '.join(trn.MODES)}")
    p.add_argument("--resume", action="store_true", help="continue the run in --out")
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
    p.add_argument("--beam-width", type=int)
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
