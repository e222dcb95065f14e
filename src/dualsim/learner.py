"""Training algorithms for tabular translators.

Three phases, mirroring how the translators are meant to be produced:

  1. supervised pretraining on parallel pairs (plain gradient ascent on
     the log-likelihood, constant learning rate);
  2. dual training: keep replaying parallel data while adding round-trip
     reconstruction updates: sample a monolingual source, sample a
     translation from the forward model, and push the backward model
     toward reconstructing the source (the update lands on the last hop
     of the sampled path, which is the exact gradient of that sampled
     log-likelihood term);
  3. multi-step training: same idea with a two-hop pivot chain generating
     the pseudo-source, so the trained pair receives feedback routed
     through a third language.

Every update direction is the analytic gradient of its sampled term (the
test suite checks this against central finite differences), and a full
phase is deterministic given its config seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .metrics import AccuracyReport, EstimatorReport, accuracy, estimators
from .synth_lang import Corpus, World
from .translator import TabularTranslator, TrainConfig, log_prob_grad_row, row_probs, sample_row

PHASE_ORDER = ("vanilla", "dual", "multistep")
# the pair that dual and multi-step learning train and the estimators compare
PRIMARY_PAIR = (0, 1)


def _supervised_update(
    theta: np.ndarray, pairs: np.ndarray, rng: np.random.Generator, batch: int, lr: float
) -> None:
    """One minibatch step of gradient ascent on mean ln Pr(y|x)."""
    idx = rng.integers(0, len(pairs), size=batch)
    xs = pairs[idx, 0]
    ys = pairs[idx, 1]
    upd = -row_probs(theta[xs])
    upd[np.arange(batch), ys] += 1.0
    # batch rows land one at a time, in batch order, repeated rows included:
    # the additions np.add.at makes, without its per-call overhead
    for x, row in zip(xs.tolist(), (lr / batch) * upd):
        theta[x] += row


def train_supervised(
    src_lang: int, dst_lang: int, n: int, pairs: np.ndarray, cfg: TrainConfig
) -> TabularTranslator:
    """Pretrain an n x n translator from uniform scores on parallel pairs.

    The zero start is allocated here with ``np.zeros``, whose fresh pages
    are backed by memory only once written: the rows of sources that no
    pair holds are never written, and cost no resident memory until a
    later phase writes them. A caller-supplied start would have to be
    copied, which writes every page.
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        raise ValidationError("train_supervised needs a nonempty pair list")
    rng = np.random.default_rng(cfg.seed)
    theta = np.zeros((n, n))
    for _ in range(cfg.steps):
        _supervised_update(theta, pairs, rng, cfg.supervised_batch, cfg.learning_rate)
    return TabularTranslator(src_lang, dst_lang, theta)


def _recon_update(
    chain: tuple[np.ndarray, ...],
    theta_bwd: np.ndarray,
    x: int,
    rng: np.random.Generator,
    lr: float,
) -> None:
    """Single reconstruction update: sample x along the hops of ``chain``
    (one hop for a round trip, two for a pivot chain), then push the
    backward row at the sampled end toward x."""
    end = x
    for theta in chain:
        end = sample_row(theta[end], rng)
    theta_bwd[end] += lr * log_prob_grad_row(theta_bwd[end], x)


def _replayed(
    th_fwd: np.ndarray,
    th_bwd: np.ndarray,
    pairs_fwd: np.ndarray | None,
    pairs_bwd: np.ndarray | None,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> bool:
    """With probability ``supervised_mix``, replay parallel data on both
    directions of a pair; returns whether the step was a replay step."""
    if rng.random() >= cfg.supervised_mix:
        return False
    _supervised_update(th_fwd, pairs_fwd, rng, cfg.supervised_batch, cfg.learning_rate)
    _supervised_update(th_bwd, pairs_bwd, rng, cfg.supervised_batch, cfg.learning_rate)
    return True


def dual_learning(
    t12: TabularTranslator, t21: TabularTranslator, corpus: Corpus, cfg: TrainConfig
) -> tuple[TabularTranslator, TabularTranslator]:
    """Joint round-trip training of a translator pair.

    Each step either replays parallel data on both directions (with
    probability ``supervised_mix``) or performs reconstruction updates:
    the forward model generates translations of monolingual sources and
    the backward model is pushed to undo them, symmetrically in both
    directions, each replaying its own corpus pairs. Returns updated
    copies of both translators.
    """
    i, j = t12.src_lang, t12.dst_lang
    if (t21.src_lang, t21.dst_lang) != (j, i):
        raise ValidationError("t21 must invert t12's direction")
    mono_i = corpus.monolingual.get(i)
    mono_j = corpus.monolingual.get(j)
    if mono_i is None or mono_j is None or mono_i.size == 0 or mono_j.size == 0:
        raise ValidationError(f"dual learning needs monolingual data for languages {i} and {j}")
    pairs_ij = corpus.parallel.get((i, j))
    pairs_ji = corpus.parallel.get((j, i))
    for key, pairs in (((i, j), pairs_ij), ((j, i), pairs_ji)):
        if cfg.supervised_mix > 0.0 and (pairs is None or pairs.size == 0):
            raise ValidationError(f"supervised replay needs parallel data for pair {key}")

    rng = np.random.default_rng(cfg.seed)
    th12 = t12.theta.copy()
    th21 = t21.theta.copy()
    for _ in range(cfg.steps):
        if _replayed(th12, th21, pairs_ij, pairs_ji, rng, cfg):
            continue
        for _ in range(cfg.reconstruction_batch):
            for fwd, bwd, mono in ((th12, th21, mono_i), (th21, th12, mono_j)):
                x = int(mono[rng.integers(mono.size)])
                _recon_update((fwd,), bwd, x, rng, cfg.learning_rate)
    return (
        TabularTranslator(i, j, th12),
        TabularTranslator(j, i, th21),
    )


def multistep_dual_learning(
    translators: Mapping[tuple[int, int], TabularTranslator],
    corpus: Corpus,
    cfg: TrainConfig,
) -> dict[tuple[int, int], TabularTranslator]:
    """Refine the primary pair (a, b) = ``PRIMARY_PAIR`` with feedback
    routed through pivot languages.

    Languages are inferred from the translator keys; every language other
    than a and b acts as a pivot. Each non-replay step samples a
    pivot, draws one monolingual sentence on each side of the pair,
    generates a pseudo-partner for it through the pivot chain, and
    applies the last-hop gradient update to the pair translators:

        theta_ab at row pseudo_source(a) pushed toward the real b sample,
        theta_ba at row pseudo_target(b) pushed toward the real a sample.

    Pivot translators only generate by default; ``cfg.update_pivots``
    additionally gives each pivot pair its own reconstruction update per
    step. Requires at least three languages; with two this degenerates
    to plain dual learning, which must be called directly.

    Replay feeds theta_ba the reversed (a, b) pairs and ignores
    ``corpus.parallel[(b, a)]``, which dual_learning replays as given.

    No input theta is written. The result holds new translators for the
    directions trained here, (a, b), (b, a) and, with ``update_pivots``,
    every pair between a pivot and a or b; every other direction comes
    back as the caller's own object, shared with the input phase.
    """
    a, b = PRIMARY_PAIR
    langs = sorted({lang for key in translators for lang in key})
    pivots = [p for p in langs if p not in (a, b)]
    if not pivots:
        raise ValidationError(
            "multi-step training needs at least 3 languages; "
            "with 2 it degenerates to dual_learning"
        )
    required = [(a, b), (b, a)]
    for p in pivots:
        required += [(a, p), (p, a), (b, p), (p, b)]
    missing = [key for key in required if key not in translators]
    if missing:
        raise ValidationError(f"missing pretrained translators for pairs: {missing}")
    mono = {lang: corpus.monolingual.get(lang) for lang in langs}
    if mono[a] is None or mono[b] is None or mono[a].size == 0 or mono[b].size == 0:
        raise ValidationError(f"multi-step training needs monolingual data for {a} and {b}")
    if cfg.update_pivots:
        for q in pivots:
            if mono[q] is None or mono[q].size == 0:
                raise ValidationError(f"update_pivots needs monolingual data for {q}")
    pairs_ab = corpus.parallel.get((a, b))
    if cfg.supervised_mix > 0.0 and (pairs_ab is None or pairs_ab.size == 0):
        raise ValidationError(f"supervised replay needs parallel data for pair {PRIMARY_PAIR}")
    pairs_ba = pairs_ab[:, ::-1] if pairs_ab is not None else None

    written = {(a, b), (b, a)}
    if cfg.update_pivots:
        written.update(key for q in pivots for key in ((a, q), (q, a), (b, q), (q, b)))
    rng = np.random.default_rng(cfg.seed)
    thetas = {key: t.theta.copy() if key in written else t.theta for key, t in translators.items()}
    lr = cfg.learning_rate
    for _ in range(cfg.steps):
        if _replayed(thetas[(a, b)], thetas[(b, a)], pairs_ab, pairs_ba, rng, cfg):
            continue
        p = pivots[rng.integers(len(pivots))]
        for _ in range(cfg.reconstruction_batch):
            x_a = int(mono[a][rng.integers(mono[a].size)])
            x_b = int(mono[b][rng.integers(mono[b].size)])
            # pseudo-target for x_a through a -> p -> b trains the b -> a model
            _recon_update((thetas[(a, p)], thetas[(p, b)]), thetas[(b, a)], x_a, rng, lr)
            # pseudo-source for x_b through b -> p -> a trains the a -> b model
            _recon_update((thetas[(b, p)], thetas[(p, a)]), thetas[(a, b)], x_b, rng, lr)
        if cfg.update_pivots:
            for q in pivots:
                for src, dst in ((a, q), (q, a), (b, q), (q, b)):
                    x = int(mono[src][rng.integers(mono[src].size)])
                    _recon_update((thetas[(src, dst)],), thetas[(dst, src)], x, rng, lr)
    return {
        key: TabularTranslator(key[0], key[1], thetas[key]) if key in written else t
        for key, t in translators.items()
    }


@dataclass(frozen=True)
class ExperimentRecord:
    """Evaluation of one or more trained phases on a world.

    accuracies maps (phase, direction) to an exact AccuracyReport;
    estimator_reports maps "phaseA->phaseB" comparisons on the primary
    pair to their EstimatorReport. Soft assumption checks (kept
    reconstruction rate below 0.8) land in ``warnings`` instead of
    failing anything.
    """

    accuracies: dict[tuple[str, tuple[int, int]], AccuracyReport]
    estimator_reports: dict[str, EstimatorReport]
    warnings: tuple[str, ...]


def evaluate(
    phases: Mapping[str, Mapping[tuple[int, int], TabularTranslator]],
    world: World,
) -> ExperimentRecord:
    """Exact per-phase, per-direction accuracies plus redistribution estimators.

    Estimators compare consecutive phases (in vanilla/dual/multistep
    order) on the primary pair, decoding greedily over every sentence of
    the pair's source language. A translator object that
    several phases share is scored once, and every (phase, direction)
    holding it gets that one report.
    """
    scored: dict[int, AccuracyReport] = {}  # by id(); phases keep every object alive
    accuracies: dict[tuple[str, tuple[int, int]], AccuracyReport] = {}
    for phase, ts in phases.items():
        for direction, t in ts.items():
            if id(t) not in scored:
                scored[id(t)] = accuracy(t, world)
            accuracies[(phase, direction)] = scored[id(t)]

    ordered = [ph for ph in PHASE_ORDER if ph in phases]
    reports: dict[str, EstimatorReport] = {}
    warnings: list[str] = []
    fwd, bwd = PRIMARY_PAIR, PRIMARY_PAIR[::-1]
    for base, second in zip(ordered, ordered[1:]):
        if not all(d in phases[base] and d in phases[second] for d in (fwd, bwd)):
            continue
        name = f"{base}->{second}"
        rep = estimators(
            (phases[base][fwd], phases[base][bwd]),
            (phases[second][fwd], phases[second][bwd]),
            world,
        )
        reports[name] = rep
        if rep.eta_hat is not None and rep.eta_hat < 0.8:
            warnings.append(
                f"{name}: kept-reconstruction rate eta_hat={rep.eta_hat:.3f} below 0.8"
            )
    return ExperimentRecord(
        accuracies=accuracies, estimator_reports=reports, warnings=tuple(warnings)
    )
