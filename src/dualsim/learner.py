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
  3. multi-step training: the same update with a two-hop pivot chain
     generating the pseudo-source, so the trained pair receives feedback
     routed through a third language.

All three run through one phase runner, :func:`_train_phase`: supervised
pretraining is its no-choice case and dual training its one-choice case.
Round trips, pivot chains and the optional pivot refresh all go through
one reconstruction kernel.

Every update direction is the analytic gradient of its sampled term (the
test suite checks this against central finite differences), and a full
phase is deterministic given its config seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .errors import COUNT, DIRECTION, MAX_ENTRIES, Rule, ValidationError
from .metrics import AccuracyReport, EstimatorReport, accuracy, estimators
from .synth_lang import CORPUS, WORLD, Corpus, World, _array
from .translator import (TRANSLATOR, TabularTranslator, TrainConfig, log_prob_grad_row,
                         row_probs, sample_row)

PHASE_ORDER = ("vanilla", "dual", "multistep")
# the pair that dual and multi-step learning train and the estimators compare
PRIMARY_PAIR = (0, 1)
# a phase's translators by direction, and a record's phases by name
_MAPPING = Rule(lambda v: isinstance(v, Mapping), "a mapping")


def consecutive_phases(present: Collection[str]) -> list[tuple[str, str]]:
    """(earlier, later) for each two neighbouring ``present`` phases in PHASE_ORDER."""
    ordered = [ph for ph in PHASE_ORDER if ph in present]
    return list(zip(ordered, ordered[1:]))


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
    """Pretrain an n x n translator from uniform scores on parallel pairs:
    :func:`_train_phase` with this one replay direction and no choices, so
    every step replays and ``supervised_mix`` is not read."""
    DIRECTION.require((src_lang, dst_lang), "(src_lang, dst_lang)")  # before the first step
    if not (COUNT.ok(n) and n * n <= MAX_ENTRIES):
        raise ValidationError(f"n must be a positive integer whose n x n theta fits, got {n!r}")
    pairs = _array(pairs, np.int64, (None, 2), "pairs")
    if pairs.size == 0:
        raise ValidationError("train_supervised needs a nonempty pair list")
    return _train_phase({}, [((src_lang, dst_lang), pairs)], [], cfg, n)[(src_lang, dst_lang)]


def _phase_start(theta: np.ndarray) -> np.ndarray:
    """``np.zeros`` with the rows of ``theta`` that hold a nonzero bit copied in."""
    start = np.zeros(theta.shape)
    np.copyto(start, theta, where=theta.view(np.uint64).any(axis=1)[:, None])
    return start


def _reconstruct(
    groups: list[list[tuple]], thetas: Mapping, rng: np.random.Generator, lr: float
) -> None:
    """Reconstruction updates, one per (monolingual ids, chain directions,
    backward direction) entry, on the arrays in ``thetas``. Each group, in
    order, first draws a source x for every entry; then, entry by entry, it
    samples x along the chain's hops (one for a round trip, two for a pivot
    chain) and pushes the backward row at the sampled end toward x."""
    for group in groups:
        xs = [int(mono[rng.integers(mono.size)]) for mono, _, _ in group]
        for x, (_, chain, bwd) in zip(xs, group):
            end = x
            for hop in chain:
                end = sample_row(thetas[hop][end], rng)
            theta = thetas[bwd]
            theta[end] += lr * log_prob_grad_row(theta[end], x)


def _check_ids(ids: np.ndarray, bounds: tuple[int, ...], what: str) -> None:
    """Raise unless every id lies in [0, the bound of its column): numpy
    would read a negative id as a row from the end."""
    bounds = np.broadcast_to(bounds, ids.shape)
    bad = (ids < 0) | (ids >= bounds)
    if bad.any():
        raise ValidationError(f"{what} hold id {ids[bad][0]}, outside [0, {bounds[bad][0]})")


def _check_keys(translators: Mapping[tuple[int, int], TabularTranslator]) -> None:
    """Raise unless every key is a direction and holds a translator of that direction."""
    _MAPPING.require(translators, "translators")
    for key, t in translators.items():
        DIRECTION.require(key, "translator key")
        if not isinstance(t, TabularTranslator):
            raise ValidationError(f"key {key!r} holds a {type(t).__name__}, not a translator")
        if key != (t.src_lang, t.dst_lang):
            raise ValidationError(f"key {key!r} holds a {t.src_lang} -> {t.dst_lang} translator")


def _train_phase(
    translators: Mapping[tuple[int, int], TabularTranslator],
    replay: list[tuple[tuple[int, int], np.ndarray | None]],
    choices: list[list[list[tuple]]],
    cfg: TrainConfig,
    n: int = 0,
) -> dict[tuple[int, int], TabularTranslator]:
    """The one training loop of all three phases.

    Each step either replays parallel data (with probability
    ``supervised_mix``) on each ``replay`` (direction, pairs) in turn, or
    runs :func:`_reconstruct` on one of ``choices``, drawn uniformly. With
    no choice every step replays and draws no mix uniform; with one choice
    the choice draw takes nothing from the random stream.

    The replay directions and the entries' backward directions are
    trained. A trained direction missing from ``translators`` starts from
    a bare ``np.zeros((n, n))``; one present starts from a
    :func:`_phase_start` copy: ``np.zeros`` with only the input rows
    holding a nonzero bit copied in (tested through a ``uint64`` view, so
    a -0.0 row is copied, with no n x n temporary). Fresh ``np.zeros``
    pages are backed by memory only once written, so a row that no update
    has written stays on the kernel's shared zero page through every
    phase, where a dense ``copy()`` would back every page. No input theta
    is written; the other directions come back as the caller's own objects.
    Every replay pair and monolingual id is checked once against the theta
    it indexes.
    """
    trained = {key for key, _ in replay}
    trained |= {bwd for groups in choices for group in groups for _, _, bwd in group}
    thetas = {
        key: _phase_start(t.theta) if key in trained else t.theta
        for key, t in translators.items()
    }
    thetas.update((key, np.zeros((n, n))) for key in trained.difference(thetas))
    for key, pairs in replay:
        if pairs is not None:
            _check_ids(pairs, thetas[key].shape, f"parallel pairs of {key}")
    for mono, chain, _ in (entry for groups in choices for group in groups for entry in group):
        _check_ids(mono, thetas[chain[0]].shape[:1], f"monolingual ids of language {chain[0][0]}")
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.steps):
        if not choices or rng.random() < cfg.supervised_mix:
            for key, pairs in replay:
                _supervised_update(thetas[key], pairs, rng, cfg.supervised_batch, cfg.learning_rate)
        else:
            _reconstruct(choices[rng.integers(len(choices))], thetas, rng, cfg.learning_rate)
    return {
        key: TabularTranslator(*key, theta) if key in trained else translators[key]
        for key, theta in thetas.items()
    }


def _monolingual(corpus: Corpus, langs: Collection[int], what: str) -> dict[int, np.ndarray]:
    """The monolingual ids of each of ``langs``; raises naming the first language without any."""
    mono = {}
    for lang in langs:
        mono[lang] = corpus.monolingual.get(lang)
        if mono[lang] is None or mono[lang].size == 0:
            raise ValidationError(f"{what} needs monolingual data for language {lang}")
    return mono


def _replay_pairs(corpus: Corpus, key: tuple[int, int], cfg: TrainConfig) -> np.ndarray | None:
    """The pairs that replay of direction ``key`` draws; raises if replay is on and has none."""
    pairs = corpus.parallel.get(key)
    if cfg.supervised_mix > 0.0 and (pairs is None or pairs.size == 0):
        raise ValidationError(f"supervised replay needs parallel data for pair {key}")
    return pairs


def dual_learning(
    t12: TabularTranslator, t21: TabularTranslator, corpus: Corpus, cfg: TrainConfig
) -> tuple[TabularTranslator, TabularTranslator]:
    """Joint round-trip training of a translator pair, through :func:`_train_phase`.

    Each step either replays parallel data on both directions (with
    probability ``supervised_mix``), each on its own corpus pairs, or
    performs reconstruction updates: the forward model generates
    translations of monolingual sources and the backward model is pushed
    to undo them, symmetrically in both directions. Returns new
    translators for both directions; no input theta is written.
    """
    TRANSLATOR.require(t12, "t12")
    TRANSLATOR.require(t21, "t21")
    CORPUS.require(corpus, "corpus")
    i, j = t12.src_lang, t12.dst_lang
    if (t21.src_lang, t21.dst_lang) != (j, i):
        raise ValidationError("t21 must invert t12's direction")
    mono = _monolingual(corpus, (i, j), "dual learning")
    replay = [(key, _replay_pairs(corpus, key, cfg)) for key in ((i, j), (j, i))]
    trips = [[(mono[i], ((i, j),), (j, i))], [(mono[j], ((j, i),), (i, j))]]
    out = _train_phase({(i, j): t12, (j, i): t21}, replay, [trips * cfg.reconstruction_batch], cfg)
    return out[(i, j)], out[(j, i)]


def multistep_dual_learning(
    translators: Mapping[tuple[int, int], TabularTranslator],
    corpus: Corpus,
    cfg: TrainConfig,
) -> dict[tuple[int, int], TabularTranslator]:
    """Refine the primary pair (a, b) = ``PRIMARY_PAIR`` with feedback
    routed through pivot languages, through :func:`_train_phase`.

    Languages are inferred from the translator keys, once every key is
    checked to be a direction holding a translator of that direction;
    every language other than a and b acts as a pivot. Each non-replay
    step samples a pivot, draws one monolingual sentence on each side of
    the pair, generates a pseudo-partner for it through the pivot chain,
    and applies the last-hop gradient update to the pair translators:

        theta_ab at row pseudo_source(a) pushed toward the real b sample,
        theta_ba at row pseudo_target(b) pushed toward the real a sample.

    Pivot translators only generate by default; ``cfg.update_pivots``
    additionally gives each pivot direction dual learning's round-trip
    update per step. Requires at least three languages; with two this
    degenerates to plain dual learning, which must be called directly.

    Replay feeds theta_ba the reversed (a, b) pairs and ignores
    ``corpus.parallel[(b, a)]``, which dual_learning replays as given.

    It trains (a, b), (b, a) and, with ``update_pivots``, every pair
    between a pivot and a or b; every other direction comes back as the
    caller's own object, shared with the input phase.
    """
    a, b = PRIMARY_PAIR
    _check_keys(translators)
    CORPUS.require(corpus, "corpus")
    pivots = sorted({lang for key in translators for lang in key} - {a, b})
    if not pivots:
        raise ValidationError(
            "multi-step training needs at least 3 languages; "
            "with 2 it degenerates to dual_learning"
        )
    # every direction between a pivot and a or b, in pivot-refresh order
    pivot_dirs = [d for q in pivots for d in ((a, q), (q, a), (b, q), (q, b))]
    missing = [key for key in [(a, b), (b, a), *pivot_dirs] if key not in translators]
    if missing:
        raise ValidationError(f"missing pretrained translators for pairs: {missing}")
    mono = _monolingual(corpus, (a, b), "multi-step training")
    if cfg.update_pivots:
        mono.update(_monolingual(corpus, pivots, "update_pivots"))
    pairs_ab = _replay_pairs(corpus, (a, b), cfg)
    replay = [((a, b), pairs_ab), ((b, a), pairs_ab[:, ::-1] if pairs_ab is not None else None)]
    # one choice per pivot p: the pivot chains a -> p -> b (training b -> a)
    # and b -> p -> a (training a -> b), then one round trip per refreshed direction
    refresh = [[(mono[src], ((src, dst),), (dst, src))]
               for src, dst in pivot_dirs if cfg.update_pivots]
    choices = [
        [[(mono[src], ((src, p), (p, dst)), (dst, src)) for src, dst in ((a, b), (b, a))]]
        * cfg.reconstruction_batch + refresh
        for p in pivots
    ]
    return _train_phase(translators, replay, choices, cfg)


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

    Estimators compare each two consecutive phases present
    (:func:`consecutive_phases`) on the primary pair, decoding greedily
    over every sentence of the pair's source language. Every translator
    must sit under its own direction's key. A translator object that
    several phases share is scored once, and every (phase, direction)
    holding it gets that one report.
    """
    _MAPPING.require(phases, "phases")
    WORLD.require(world, "world")
    scored: dict[int, AccuracyReport] = {}  # by id(); phases keep every object alive
    accuracies: dict[tuple[str, tuple[int, int]], AccuracyReport] = {}
    for phase, ts in phases.items():
        _check_keys(ts)
        for direction, t in ts.items():
            if id(t) not in scored:
                scored[id(t)] = accuracy(t, world)
            accuracies[(phase, direction)] = scored[id(t)]

    reports: dict[str, EstimatorReport] = {}
    warnings: list[str] = []
    fwd, bwd = PRIMARY_PAIR, PRIMARY_PAIR[::-1]
    for base, second in consecutive_phases(phases):
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
