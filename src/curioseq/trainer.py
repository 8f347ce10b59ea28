"""Training orchestration: the collaborative objective over policy,
state/action predictors and the embedding layer, with geometric imitation
decay, stepped learning-rate decay, per-epoch evaluation and checkpointing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
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

MODES = ("crl", "xe", "no_intrinsic")


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
        for name in ("batch_size", "epochs", "t_max", "hidden_size", "seed", "beam_width"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer")
        if self.embed_size is not None and (type(self.embed_size) is not int or self.embed_size < 1):
            raise ConfigError("embed_size must be an integer >= 1 or null")
        for f in fields(self):      # json reads NaN and Infinity
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not -math.inf < value < math.inf:
                raise ConfigError(f"{f.name} must be finite")
            if f.type == "str | None" and value is not None and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string or null")
        for name in ("intrinsic_scale", "action_loss_weight", "state_loss_weight",
                     "imitation_weight", "bleu_weight", "cider_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigError("discount must be in [0, 1]")
        if not 0.0 <= self.td_lambda <= 1.0:
            raise ConfigError("td_lambda must be in [0, 1]")
        if not 0.0 < self.imitation_decay <= 1.0:
            raise ConfigError("imitation_decay must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.lr_decay <= 0:
            raise ConfigError("lr_decay must be positive")
        if self.lr_decay_period < 1:
            raise ConfigError("lr_decay_period must be >= 1")
        if self.batch_size < 1 or self.epochs < 0 or self.t_max < 1:
            raise ConfigError("batch_size >= 1, epochs >= 0, t_max >= 1 required")
        if self.hidden_size < 1 or self.seed < 0:
            raise ConfigError("hidden_size must be >= 1 and seed >= 0")
        if self.curiosity_init_scale <= 0:
            raise ConfigError("curiosity_init_scale must be positive")
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
    """One minibatch update from one batched graph and one backward pass.

    One recorded row unroll steps the B reference rows (teacher-forced) and,
    outside xe mode, the B sampled rows, scene i sampling from its own
    generator rngs[i] (xe mode draws nothing). Its episodes stay (B, T)
    arrays: one assembly adds the TD(lambda) returns Q of their terminal
    rewards, episode i scored against references[i] (xe mode reads none),
    and rho times their curiosity errors (not in no_intrinsic mode) into
    the advantages A. The reference rows get weight eta/B on their
    cross-entropy (imitation) and the sampled rows weight -A_t/B on their
    log-probabilities (policy gradient). Curiosity losses do not reach the
    policy: gradients are stopped at the states.
    The curiosity pass runs over all sampled transitions at once; the action
    predictor trains on its own loss, the state predictor on its own loss,
    and the shared embedding on the alpha/beta-weighted sum, which
    grad_scale in the curiosity pass applies. Gradients are cleared after
    the step.
    """
    all_params = model.parameters()
    b = len(batch)
    # deterministic rotation through references
    refs = [scene.references[epoch % len(scene.references)] for scene in batch]
    run = pol.unroll_rows(model.policy, [scene.features for scene in batch], refs, cfg.t_max,
                          [] if cfg.mode == "xe" else rngs)
    episodes = run.episodes
    stats = StepStats(episodes=episodes.lengths.size, sampled_steps=len(episodes),
                      eos_episodes=int(episodes.ended_with_eos.sum()))
    stats.xe_loss = _check_finite("imitation", float(run.ce_values[:b].sum()) / b)
    ce_weights = np.zeros(run.ce_values.shape)
    ce_weights[:b] = eta / b
    if cfg.mode == "xe":
        loss = run.loss(ce_weights)
    else:
        terms = cur.curiosity_pass(episodes, model.curiosity, cfg.action_loss_weight,
                                   cfg.state_loss_weight)
        terminal = np.array([rew.scored_reward(vocab.decode_text(actions[:k]), scene_refs,
                                               cfg.bleu_weight, cfg.cider_weight)
                             for actions, k, scene_refs in zip(episodes.actions, episodes.lengths,
                                                               references, strict=True)])
        intrinsic = (cfg.intrinsic_scale * terms.errors if cfg.mode == "crl"
                     else np.zeros(terms.errors.shape))
        advantage = rew.terminal_q(terminal, episodes.lengths, episodes.actions.shape[1],
                                   cfg.discount, cfg.td_lambda) + intrinsic
        lp_weights = np.zeros(run.ce_values.shape)
        lp_weights[b:] = -advantage / b
        stats.rl_loss = _check_finite("reinforcement", rew.rl_loss(episodes, advantage) / b)
        # over each episode's own steps, in order: a zero-padded row's sum rounds otherwise
        for r_e, row, k in zip(terminal.tolist(), intrinsic, episodes.lengths):
            stats.intrinsic_sum += float(row[:k].sum())
            stats.extrinsic_sum += r_e
        # one loss, one backward; a zero loss weight keeps its predictor out of it
        loss = run.loss(ce_weights, lp_weights)
        if cfg.state_loss_weight > 0:
            stats.sp_loss = _check_finite("state-prediction", float(terms.sp_loss.data))
            loss = add(loss, terms.sp_loss)
        if cfg.action_loss_weight > 0:
            stats.ap_loss = _check_finite("action-prediction", float(terms.ap_loss.data))
            loss = add(loss, terms.ap_loss)
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
    """Decode every scene and score corpus BLEU-1..4, the consensus metric
    and diversity statistics. Each candidate's n-grams are counted once, for
    BLEU's sums and its consensus score against its scene's references.
    Scene i's reference statistics against idf are references[i] when
    given, and are otherwise built here, one scene at a time."""
    sums = met.BleuSums()
    consensus = []
    candidates = []
    for i, scene in enumerate(scenes):
        if cfg.decode == "beam" and cfg.beam_width > 1:
            tokens = pol.beam_search(model.policy, scene.features, cfg.t_max, cfg.beam_width)
        else:
            tokens = pol.rollout_greedy(model.policy, scene.features, cfg.t_max)
        cand = vocab.decode_text(tokens)
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


def optimizer_path(path) -> Path:
    """The file beside checkpoint path that holds the adam moments of its
    optimizer state: last.ckpt.adam for last.ckpt."""
    path = Path(path)
    return path.with_name(path.name + ".adam")


def save_model(path, model: ModelParams, extra: dict | None = None,
               opt: OptimState | None = None) -> None:
    """Write the model's parameters; with opt, also the optimizer state that
    resume_state reads back: its variant and step count in extra, and for
    adam the moments of each parameter, as tensors "m.<name>" and "v.<name>",
    in their own file optimizer_path(path), so that the checkpoint itself
    stays the size of the model. The moments are written first, under the
    same variant and step count: a write that stops between the two files
    leaves a pair whose step counts differ, which resume_state rejects."""
    if opt is not None:
        record = {"variant": opt.variant, "step_count": opt.step_count}
        extra = {**(extra or {}), "optimizer": record}
        if opt.slots:
            moments = {f"{key}.{name}": slot[key]
                       for name, slot in opt.slots.items() for key in ("m", "v")}
            ckpt.save_checkpoint(optimizer_path(path), moments, extra=record)
    ckpt.save_checkpoint(path, ckpt.params_as_dict(model.parameters()), extra=extra)


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
                 feature_dim: int) -> tuple[ModelParams, OptimState, dict]:
    """The model, optimizer state and extra record of a last.ckpt that train
    wrote, to continue its run exactly. Under sgd, which keeps no state, a
    checkpoint without an optimizer record (one written before the record
    was kept, or a best.ckpt) resumes with a fresh optimizer. Raises
    CheckpointError when the record names another optimizer than cfg, or
    when an adam checkpoint has no record or its moments are missing or do
    not belong to it."""
    model, extra = load_model(path, cfg, vocab_size, feature_dim)
    opt = new_optimizer(cfg)
    record = extra.get("optimizer")
    if record is None and opt.variant == "sgd":
        return model, opt, extra
    if (not isinstance(record, dict) or type(record.get("step_count")) is not int
            or record["step_count"] < 0):
        raise ckpt.CheckpointError(f"checkpoint {path} holds no optimizer state to resume")
    if record.get("variant") != opt.variant:
        raise ckpt.CheckpointError(f"checkpoint {path} was trained with optimizer "
                                   f"{record.get('variant')!r}, not {opt.variant!r}")
    opt.step_count = record["step_count"]
    if opt.variant == "adam" and opt.step_count > 0:
        moments_path = optimizer_path(path)
        moments, stored = ckpt.load_checkpoint(moments_path)
        if stored != record:
            raise ckpt.CheckpointError(f"{moments_path} holds the optimizer state of "
                                       f"another step than checkpoint {path}")
        for p in model.parameters():
            m, v = moments.get(f"m.{p.name}"), moments.get(f"v.{p.name}")
            if m is None or v is None or m.shape != p.data.shape or v.shape != p.data.shape:
                raise ckpt.CheckpointError(f"{moments_path} lacks the adam moments of "
                                           f"{p.name!r}")
            opt.slots[p.name] = {"m": m, "v": v}
    return model, opt, extra


def train(train_scenes: Sequence[Scene], val_scenes: Sequence[Scene],
          vocab: Vocabulary, cfg: TrainConfig,
          start_epoch: int = 0, model: ModelParams | None = None,
          report_sink=None, best_cider: float = -math.inf,
          opt: OptimState | None = None) -> TrainResult:
    """Run the full training loop.

    Deterministic given (scenes, config): parameter init, per-epoch shuffles
    and rollout sampling all derive from cfg.seed; in epoch e, scene i of
    train_scenes samples from its own default_rng([cfg.seed, e, i]),
    whichever minibatch the shuffle puts it in. Each epoch applies the
    imitation-weight and learning-rate schedules, evaluates the validation
    split with greedy decoding, and writes checkpoints when out_dir is set:
    last.ckpt every epoch and best.ckpt when the validation CIDEr beats
    best_cider. last.ckpt also holds the optimizer state (the adam moments
    in last.ckpt.adam beside it), so a run resumed from resume_state(last.ckpt)
    with its epoch, best_cider and optimizer state matches the
    uninterrupted run.
    """
    if not train_scenes:
        raise ConfigError("training split is empty")
    feature_dim = train_scenes[0].feature_dim
    if model is None:
        model = init_model(cfg, vocab.size, feature_dim)
    documents = reference_documents(train_scenes, vocab)
    idf = met.build_idf(documents)
    # xe mode scores no sampled episodes, so it needs no train reference statistics
    references = ([] if cfg.mode == "xe"
                  else [met.reference_stats(doc, idf) for doc in documents])
    eval_scenes = val_scenes if val_scenes else train_scenes
    eval_references = [met.reference_stats(doc, idf)
                       for doc in reference_documents(eval_scenes, vocab)]
    if opt is None:
        opt = new_optimizer(cfg)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

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
            rngs = [np.random.default_rng([cfg.seed, epoch, i]) for i in indices]
            batch_refs = [references[i] for i in indices] if references else []
            stats = train_step(batch, model, opt, cfg, vocab, batch_refs, rngs, eta, epoch)
            for f in fields(StepStats):
                setattr(totals, f.name, getattr(totals, f.name) + getattr(stats, f.name))
            n_batches += 1

        val = evaluate(eval_scenes, model, vocab, idf, cfg, eval_references)

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
        if report_sink is not None:
            report_sink(report)
        improved = val.cider > best_cider
        if improved:
            best_cider = val.cider
        if out_dir:
            extra = {"epoch": epoch, "config": cfg.semantic_dict(), "best_cider": best_cider}
            save_model(out_dir / "last.ckpt", model, extra=extra, opt=opt)
            if improved:
                save_model(out_dir / "best.ckpt", model, extra=extra)
    return TrainResult(model=model, reports=reports, best_cider=best_cider)
