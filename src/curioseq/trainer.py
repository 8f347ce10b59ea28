"""Training orchestration: the collaborative objective over policy,
state/action predictors and the embedding layer, with geometric imitation
decay, stepped learning-rate decay, per-epoch evaluation and checkpointing.

A train_step is one unroll of the minibatch's reference and sampled rows,
one curiosity pass, one advantage assembly and one backward over the sum
of two nodes. train counts each split's reference statistics once and
writes every file of its run directory, which a resumed run continues
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import checkpoint as ckpt
from . import curiosity as cur
from . import metrics as met
from . import policy as pol
from . import rewards as rew
from .data import Scene
from .kernel import OptimState, Parameter, add, gradients, sgd_step, zero_grads
from .vocab import Vocabulary

MODES = ("crl", "xe")


class ConfigError(ValueError):
    """Raised for invalid hyperparameter combinations."""


class TrainingAborted(RuntimeError):
    """Raised when a loss turns non-finite; names the offending term."""


@dataclass
class TrainConfig:
    # reward shaping
    intrinsic_scale: float = 1.0          # rho
    discount: float = 0.9                 # gamma
    td_lambda: float = 1.0                # lambda
    action_loss_weight: float = 0.2       # alpha
    state_loss_weight: float = 0.8        # beta
    imitation_weight: float = 1.0         # eta_0
    imitation_decay: float = 0.9          # delta
    bleu_weight: float = 1.0              # a
    cider_weight: float = 2.0             # b
    # optimization
    learning_rate: float = 6e-4           # mu_0
    lr_decay: float = 0.8
    lr_decay_period: int = 3
    clip_norm: float | None = 5.0
    optimizer: str = "sgd"
    batch_size: int = 16
    epochs: int = 30
    # model
    hidden_size: int = 64                 # Z
    embed_size: int | None = None         # Z_phi, defaults to hidden_size
    curiosity_init_scale: float = 0.25
    t_max: int = 40
    seed: int = 0
    mode: str = "crl"
    # data / io
    train_manifest: str | None = None
    val_manifest: str | None = None
    out_dir: str | None = None
    decode: str = "greedy"
    beam_width: int = 1

    def __post_init__(self):
        if self.embed_size is not None and (type(self.embed_size) is not int or self.embed_size < 1):
            raise ConfigError("embed_size must be an integer >= 1 or null")
        for f in fields(self):      # json reads NaN and Infinity, and true as a bool
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer")
            if f.type == "float" or (f.type == "float | None" and value is not None):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"{f.name} must be a number")
                if not -math.inf < value < math.inf:
                    raise ConfigError(f"{f.name} must be finite")
            if f.type == "str | None" and value is not None and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string or null")
        for name in ("intrinsic_scale", "action_loss_weight", "state_loss_weight",
                     "imitation_weight", "bleu_weight", "cider_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("learning_rate", "lr_decay", "curiosity_init_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("discount", "td_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if not 0.0 < self.imitation_decay <= 1.0:
            raise ConfigError("imitation_decay must be in (0, 1]")
        if self.lr_decay_period < 1:
            raise ConfigError("lr_decay_period must be >= 1")
        if self.batch_size < 1 or self.epochs < 0 or self.t_max < 1:
            raise ConfigError("batch_size >= 1, epochs >= 0, t_max >= 1 required")
        if self.hidden_size < 1 or self.seed < 0:
            raise ConfigError("hidden_size must be >= 1 and seed >= 0")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive or null")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.decode not in ("greedy", "beam"):
            raise ConfigError("decode must be 'greedy' or 'beam'")
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")

    @property
    def phi_size(self) -> int:
        return self.embed_size if self.embed_size is not None else self.hidden_size

    @property
    def decode_width(self) -> int:
        """The beam width evaluate decodes at: beam_width under decode "beam", else 1."""
        return self.beam_width if self.decode == "beam" else 1

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def semantic_dict(self) -> dict:
        """Config without environment paths; what a checkpoint embeds so that
        runs differing only in file locations stay byte-identical."""
        doc = asdict(self)
        for key in ("train_manifest", "val_manifest", "out_dir"):
            doc.pop(key, None)
        return doc


def eta_schedule(eta0: float, decay: float, epoch: int) -> float:
    """Imitation weight after `epoch` whole epochs: eta0 * decay**epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return eta0 * decay ** epoch


def lr_schedule(mu0: float, factor: float, period: int, epoch: int) -> float:
    """Stepped decay: mu0 * factor**(epoch // period)."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return mu0 * factor ** (epoch // period)


@dataclass
class ModelParams:
    policy: pol.PolicyParams
    curiosity: cur.CuriosityParams

    def parameters(self) -> list[Parameter]:
        return self.policy.parameters() + self.curiosity.parameters()


def init_model(cfg: TrainConfig, vocab_size: int, feature_dim: int) -> ModelParams:
    rng = np.random.default_rng(cfg.seed)
    policy = pol.init_policy(rng, vocab_size, cfg.hidden_size, feature_dim)
    curiosity = cur.init_curiosity(rng, vocab_size, 2 * cfg.hidden_size, cfg.phi_size,
                                   init_scale=cfg.curiosity_init_scale)
    return ModelParams(policy=policy, curiosity=curiosity)


def xe_loss(policy: pol.PolicyParams, scene: Scene, reference_index: int = 0):
    """Teacher-forced negative log-likelihood of one reference, summed over
    steps: a 0-d node, the one-row view of the train step's imitation loss."""
    tokens = scene.references[reference_index % len(scene.references)]
    run = pol.unroll_rows(policy, [scene.features], [tokens], len(tokens))
    return run.loss(np.ones((1, len(tokens))))


@dataclass
class StepStats:
    rl_loss: float = 0.0
    sp_loss: float = 0.0
    ap_loss: float = 0.0
    xe_loss: float = 0.0
    intrinsic_sum: float = 0.0
    extrinsic_sum: float = 0.0
    episodes: int = 0                     # sampled episodes; none in xe mode
    sampled_steps: int = 0                # their summed length
    eos_episodes: int = 0                 # those that ended with <eos>


def _check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise TrainingAborted(f"non-finite {name} loss ({value!r}); aborting training")
    return value


def train_step(batch: Sequence[Scene], model: ModelParams, opt: OptimState,
               cfg: TrainConfig, vocab: Vocabulary, references: Sequence[met.References],
               rngs: Sequence[np.random.Generator], eta: float, epoch: int = 0) -> StepStats:
    """One minibatch update from two nodes, the unroll's and the curiosity
    pass's, and one backward pass.

    One recorded row unroll steps the B reference rows (teacher-forced) and
    a sampled row per generator, scene i sampling from rngs[i] (xe mode
    passes none). Its episodes stay (B, T) arrays: one assembly adds the
    TD(lambda) returns Q of their terminal rewards, episode i scored against
    references[i], and rho times their curiosity errors into the advantages
    A. The one weight array of RowUnroll.loss gives the reference rows
    eta/B on their cross-entropy (imitation) and the sampled rows A_t/B
    (policy gradient). Curiosity losses do not reach the policy: gradients
    are stopped at the states.
    The curiosity pass runs over all sampled transitions at once and adds
    one node to the loss: the action predictor trains on its own loss, the
    state predictor on its own loss, and the shared embedding on their
    alpha/beta-weighted sum. Gradients are cleared after the step.
    """
    all_params = model.parameters()
    b = len(batch)
    # deterministic rotation through references
    refs = [scene.references[epoch % len(scene.references)] for scene in batch]
    run = pol.unroll_rows(model.policy, [scene.features for scene in batch], refs, cfg.t_max,
                          rngs)
    episodes = run.episodes
    stats = StepStats(episodes=episodes.lengths.size, sampled_steps=len(episodes),
                      eos_episodes=int(episodes.ended_with_eos.sum()))
    stats.xe_loss = _check_finite("imitation", float(run.ce_values[:b].sum()) / b)
    terms = cur.curiosity_pass(episodes, model.curiosity, cfg.action_loss_weight,
                               cfg.state_loss_weight)
    terminal = np.array([rew.scored_reward(vocab.decode_text(actions[:k]), scene_refs,
                                           cfg.bleu_weight, cfg.cider_weight)
                         for actions, k, scene_refs in zip(episodes.actions, episodes.lengths,
                                                           references, strict=True)])
    intrinsic = cfg.intrinsic_scale * terms.errors
    advantage = rew.terminal_q(terminal, episodes.lengths, episodes.actions.shape[1],
                               cfg.discount, cfg.td_lambda) + intrinsic
    weights = np.zeros(run.ce_values.shape)
    weights[:b] = eta / b
    weights[b:] = advantage / b
    stats.rl_loss = _check_finite("reinforcement", rew.rl_loss(episodes, advantage) / b)
    # over each episode's own steps, in order: a zero-padded row's sum rounds otherwise
    for r_e, row, k in zip(terminal.tolist(), intrinsic, episodes.lengths):
        stats.intrinsic_sum += float(row[:k].sum())
        stats.extrinsic_sum += r_e
    if cfg.state_loss_weight > 0:
        stats.sp_loss = _check_finite("state-prediction", terms.sp_loss)
    if cfg.action_loss_weight > 0:
        stats.ap_loss = _check_finite("action-prediction", terms.ap_loss)
    # one loss, one backward; a zero loss weight keeps its predictor out of it
    loss = add(run.loss(weights), terms.loss)
    gradients(loss, all_params)
    sgd_step(all_params, opt)
    zero_grads(all_params)
    return stats


@dataclass
class EpochReport:
    epoch: int
    mean_intrinsic_reward: float
    mean_extrinsic_reward: float
    rl_loss: float
    sp_loss: float
    ap_loss: float
    xe_loss: float
    eta: float
    learning_rate: float
    val_bleu1: float
    val_bleu2: float
    val_bleu3: float
    val_bleu4: float
    val_cider: float
    val_distinct1: float
    val_distinct2: float
    mean_episode_length: float            # of the sampled episodes; 0 in xe mode
    eos_rate: float                       # the fraction of them that ended with <eos>

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def validate_finite(self) -> None:
        for key, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise TrainingAborted(f"non-finite report field {key!r}")


@dataclass
class MetricReport:
    bleu: dict[int, float]
    cider: float
    distinct1: float
    distinct2: float
    n_scenes: int
    graph: met.DiversityGraph


def evaluate(scenes: Sequence[Scene], model: ModelParams, vocab: Vocabulary,
             idf: met.IdfTable, cfg: TrainConfig,
             references: Sequence[met.References] | None = None) -> MetricReport:
    """Decode every scene at cfg.decode_width and score corpus BLEU-1..4,
    the consensus metric and diversity statistics. Each candidate's n-grams
    are counted once, for BLEU's sums and its consensus score against its
    scene's references.
    Scene i's reference statistics against idf are references[i] when
    given, and are otherwise built here, one scene at a time."""
    sums = met.BleuSums()
    consensus = []
    candidates = []
    for i, scene in enumerate(scenes):
        cand = vocab.decode_text(pol.decode(model.policy, scene.features, cfg.t_max,
                                            cfg.decode_width))
        refs = (met.reference_stats([vocab.decode_text(r) for r in scene.references], idf)
                if references is None else references[i])
        counts = met.candidate_counts(cand)
        sums.add(counts, len(cand), refs)
        consensus.append(met.consensus(counts, refs))
        candidates.append(cand)
    bleu_scores = {n: sums.score(n, "corpus") for n in (1, 2, 3, 4)}
    graph = met.diversity_graph(candidates)
    return MetricReport(bleu=bleu_scores, cider=sum(consensus) / len(consensus),
                        distinct1=graph.distinct_1, distinct2=graph.distinct_2,
                        n_scenes=len(scenes), graph=graph)


def reference_documents(scenes: Sequence[Scene], vocab: Vocabulary) -> list[list[list[str]]]:
    return [[vocab.decode_text(r) for r in scene.references] for scene in scenes]


@dataclass
class TrainResult:
    model: ModelParams
    reports: list[EpochReport]
    best_cider: float


def save_model(path, model: ModelParams, extra: dict | None = None,
               opt: OptimState | None = None) -> None:
    """Write the model's parameters in one checkpoint file; with opt, also
    the optimizer state that resume_state reads back: its variant and step
    count in extra, and for adam the moments of each parameter, as tensors
    "m.<name>" and "v.<name>". A write that stops part-way leaves the
    previous file at path whole, so the run's state is never torn."""
    tensors = ckpt.params_as_dict(model.parameters())
    if opt is not None:
        extra = {**(extra or {}),
                 "optimizer": {"variant": opt.variant, "step_count": opt.step_count}}
        tensors.update((f"{key}.{name}", slot[key])
                       for name, slot in opt.slots.items() for key in ("m", "v"))
    ckpt.save_checkpoint(path, tensors, extra=extra)


def load_model(path, cfg: TrainConfig, vocab_size: int,
               feature_dim: int) -> tuple[ModelParams, dict]:
    model = init_model(cfg, vocab_size, feature_dim)
    tensors, extra = ckpt.load_checkpoint(path)
    ckpt.load_into_params(model.parameters(), tensors)
    return model, extra


def new_optimizer(cfg: TrainConfig) -> OptimState:
    return OptimState(learning_rate=cfg.learning_rate, clip_norm=cfg.clip_norm,
                      variant=cfg.optimizer)


def resume_state(path, cfg: TrainConfig, vocab_size: int,
                 feature_dim: int) -> tuple[ModelParams, OptimState, int, float]:
    """The model, optimizer state, epoch to resume at and best validation
    CIDEr of a last.ckpt that train wrote, to continue its run exactly; the
    one reader of its record, which train writes with an epoch, a best_cider
    and an optimizer record in every last.ckpt. Raises CheckpointError for
    an epoch that is missing or not an integer >= 0, a best_cider that is
    missing or not a number below +inf (NaN included), an optimizer record
    that is missing or names another optimizer than cfg, or an adam
    checkpoint that lacks a moment of the shape of its parameter."""
    model = init_model(cfg, vocab_size, feature_dim)
    tensors, extra = ckpt.load_checkpoint(path)
    ckpt.load_into_params(model.parameters(), tensors)
    epoch, best_cider = extra.get("epoch"), extra.get("best_cider")
    if (type(epoch) is not int or epoch < 0
            or type(best_cider) not in (int, float) or not best_cider < math.inf):
        raise ckpt.CheckpointError(f"checkpoint {path} has a malformed epoch or best_cider")
    opt = new_optimizer(cfg)
    record = extra.get("optimizer")
    if (not isinstance(record, dict) or type(record.get("step_count")) is not int
            or record["step_count"] < 0):
        raise ckpt.CheckpointError(f"checkpoint {path} holds no optimizer state to resume")
    if record.get("variant") != opt.variant:
        raise ckpt.CheckpointError(f"checkpoint {path} was trained with optimizer "
                                   f"{record.get('variant')!r}, not {opt.variant!r}")
    opt.step_count = record["step_count"]
    if opt.variant == "adam":
        for p in model.parameters():
            slot = {key: tensors.get(f"{key}.{p.name}") for key in ("m", "v")}
            for key, moment in slot.items():
                if moment is None or moment.shape != p.data.shape:
                    raise ckpt.CheckpointError(f"checkpoint {path} lacks the adam moment "
                                               f"'{key}.{p.name}'")
            # copies, so the moments do not keep the whole file's buffer alive
            opt.slots[p.name] = {key: moment.copy() for key, moment in slot.items()}
    return model, opt, epoch + 1, best_cider


def check_writable(path: Path, what: str) -> None:
    """Fail, before any work, on a path no file can be written at: a
    directory, or a path whose parent is not a directory."""
    if path.is_dir():
        raise IsADirectoryError(f"cannot write {what} {path}: it is a directory")
    if not path.parent.is_dir():
        raise NotADirectoryError(f"cannot write {what} {path}: {path.parent} is not a directory")


def reports_before(data: bytes, epoch: int) -> int:
    """The byte length of the whole lines that open data, the bytes of a
    reports.jsonl, and report epochs 0 to epoch - 1: what a run that starts
    at epoch keeps of it."""
    kept = 0
    for line in data.splitlines(keepends=True):
        try:
            if not line.endswith(b"\n") or not 0 <= json.loads(line)["epoch"] < epoch:
                break
        except (ValueError, TypeError, KeyError, RecursionError):     # not a report line
            break
        kept += len(line)
    return kept


def train(train_scenes: Sequence[Scene], val_scenes: Sequence[Scene],
          vocab: Vocabulary, cfg: TrainConfig, resume: bool = False,
          report_sink=None) -> TrainResult:
    """Run the full training loop from epoch 0 or, with resume, continue the
    run in cfg.out_dir after its last.ckpt when there is one; a resume
    without an out_dir raises ConfigError.

    Deterministic given (scenes, config): parameter init, per-epoch shuffles
    and rollout sampling all derive from cfg.seed; in epoch e, scene i of
    train_scenes samples from its own default_rng([cfg.seed, e, i]),
    whichever minibatch the shuffle puts it in. Each epoch applies the
    imitation-weight and learning-rate schedules, evaluates the validation
    split with greedy decoding whatever cfg.decode says, and hands its
    report to report_sink.
    With cfg.out_dir, train owns that directory. Before the first epoch it
    makes it, checks that last.ckpt and best.ckpt can be written there,
    writes effective_config.json and cuts reports.jsonl to the lines of the
    epochs before the one it starts at, to nothing for a fresh run. Each
    epoch it appends its report line, then writes best.ckpt when the
    validation CIDEr beats the best so far, then last.ckpt. last.ckpt also
    holds the optimizer state, so a run resumed from it matches the
    uninterrupted run file for file. A run stopped before an epoch's
    last.ckpt is in place resumes at that epoch and writes its report line
    and best.ckpt again, with the same bytes.
    A run counts each split's reference statistics once: given no val_scenes,
    one train table scores both the sampled episodes and the validation.
    """
    if not train_scenes:
        raise ConfigError("training split is empty")
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if resume and not out_dir:
        raise ConfigError("resume continues the run in out_dir, and no out_dir is set")
    feature_dim = train_scenes[0].feature_dim
    if resume and (out_dir / "last.ckpt").exists():
        model, opt, start_epoch, best_cider = resume_state(out_dir / "last.ckpt", cfg,
                                                           vocab.size, feature_dim)
    else:
        model, opt = init_model(cfg, vocab.size, feature_dim), new_optimizer(cfg)
        start_epoch, best_cider = 0, -math.inf
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in ("last.ckpt", "best.ckpt"):
            check_writable(out_dir / name, "checkpoint")
        (out_dir / "effective_config.json").write_text(
            json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        with open(out_dir / "reports.jsonl", "a+b") as fh:
            fh.seek(0)
            fh.truncate(reports_before(fh.read(), start_epoch))
    documents = reference_documents(train_scenes, vocab)
    idf = met.build_idf(documents)
    # xe mode scores no sampled episodes: it needs the train statistics only to validate on
    references = ([met.reference_stats(doc, idf) for doc in documents]
                  if cfg.mode == "crl" or not val_scenes else [])
    eval_scenes = val_scenes or train_scenes
    eval_references = ([met.reference_stats(doc, idf)
                        for doc in reference_documents(val_scenes, vocab)]
                       if val_scenes else references)
    greedy = replace(cfg, decode="greedy")

    reports: list[EpochReport] = []
    for epoch in range(start_epoch, cfg.epochs):
        eta = 1.0 if cfg.mode == "xe" else eta_schedule(
            cfg.imitation_weight, cfg.imitation_decay, epoch)
        opt.learning_rate = lr_schedule(cfg.learning_rate, cfg.lr_decay,
                                        cfg.lr_decay_period, epoch)
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_scenes))
        totals = StepStats()
        n_batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            indices = order[lo:lo + cfg.batch_size].tolist()
            batch = [train_scenes[i] for i in indices]
            sampled = [] if cfg.mode == "xe" else indices
            rngs = [np.random.default_rng([cfg.seed, epoch, i]) for i in sampled]
            batch_refs = [references[i] for i in sampled]
            stats = train_step(batch, model, opt, cfg, vocab, batch_refs, rngs, eta, epoch)
            for f in fields(StepStats):
                setattr(totals, f.name, getattr(totals, f.name) + getattr(stats, f.name))
            n_batches += 1

        val = evaluate(eval_scenes, model, vocab, idf, greedy, eval_references)

        def per_episode(total: float) -> float:
            return total / totals.episodes if totals.episodes else 0.0

        report = EpochReport(
            epoch=epoch,
            mean_intrinsic_reward=(totals.intrinsic_sum / totals.sampled_steps
                                   if totals.sampled_steps else 0.0),
            mean_extrinsic_reward=per_episode(totals.extrinsic_sum),
            mean_episode_length=per_episode(totals.sampled_steps),
            eos_rate=per_episode(totals.eos_episodes),
            rl_loss=totals.rl_loss / n_batches,
            sp_loss=totals.sp_loss / n_batches,
            ap_loss=totals.ap_loss / n_batches,
            xe_loss=totals.xe_loss / n_batches,
            eta=eta,
            learning_rate=opt.learning_rate,
            val_bleu1=val.bleu[1], val_bleu2=val.bleu[2],
            val_bleu3=val.bleu[3], val_bleu4=val.bleu[4],
            val_cider=val.cider,
            val_distinct1=val.distinct1,
            val_distinct2=val.distinct2,
        )
        report.validate_finite()
        reports.append(report)
        if out_dir:
            with open(out_dir / "reports.jsonl", "a", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        if report_sink is not None:
            report_sink(report)
        improved = val.cider > best_cider
        if improved:
            best_cider = val.cider
        if out_dir:
            extra = {"epoch": epoch, "config": cfg.semantic_dict(), "best_cider": best_cider}
            if improved:
                save_model(out_dir / "best.ckpt", model, extra=extra)
            save_model(out_dir / "last.ckpt", model, extra=extra, opt=opt)
    return TrainResult(model=model, reports=reports, best_cider=best_cider)
