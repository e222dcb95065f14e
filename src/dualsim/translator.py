"""Trainable tabular translators: one categorical distribution per source sentence.

A translator from language i to language j is a score matrix ``theta``
with one row per source sentence and one column per target sentence;
``Pr(y | x) = softmax(theta[x])[y]``. Rows are exact categorical
distributions, so sampling, greedy decoding, log-likelihoods, and their
gradients are all exact; there is no approximation anywhere in the learner.

The log-likelihood gradient for one (x, y) observation touches only row
x: ``d/d theta[x] ln Pr(y|x) = onehot(y) - softmax(theta[x])``. Every
training update in :mod:`dualsim.learner` is built from this one form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (COUNT, DIRECTION, NATURAL, POSITIVE, PROBABILITY, SCALAR_RULES, SEED,
                     Rule, ValidationError, check_fields)
from .synth_lang import _array


def shifted_exp(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The softmax numerator ``exp(theta - max)``, with the maximum of each
    row (the last axis), in one new buffer the shape of ``theta``, and its
    row totals (kept as a trailing axis)."""
    e = theta - theta.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=-1, keepdims=True)


def row_probs(theta: np.ndarray) -> np.ndarray:
    """Stable softmax of a score row, or of each row of a score matrix,
    computed in one new buffer the shape of ``theta``."""
    e, total = shifted_exp(theta)
    e /= total
    return e


def sample_row(theta_row: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one target id from softmax(theta_row), consuming one rng.random()."""
    cum = np.cumsum(row_probs(theta_row))
    # searchsorted never returns a negative; only a draw above a total
    # rounded below 1 runs past the last id
    return min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)


def log_prob_grad_row(theta_row: np.ndarray, y: int) -> np.ndarray:
    """Gradient of ln Pr(y | x) with respect to the row theta[x]."""
    g = -row_probs(theta_row)
    g[y] += 1.0
    return g


@dataclass
class TabularTranslator:
    """Categorical translation model from one language to another.

    ``theta`` is (n_src, n_dst) float64 and must stay finite; the induced
    row distributions are normalized by construction. Trainers never write
    to an input theta: they return new translators for the directions they
    train and the caller's own objects for the directions they leave
    untouched, so the phases of one run share those objects. Where a
    trained theta starts, and why its unwritten rows cost no resident
    memory, is said once, in :func:`dualsim.learner._train_phase`.
    """

    src_lang: int
    dst_lang: int
    theta: np.ndarray

    def __post_init__(self) -> None:
        DIRECTION.require((self.src_lang, self.dst_lang), "(src_lang, dst_lang)")
        self.theta = _array(self.theta, np.float64, (None, None), "theta")
        # the two reductions see every NaN and inf without an n x n temporary
        theta = self.theta
        if theta.size and not (np.isfinite(theta.max()) and np.isfinite(theta.min())):
            raise ValidationError("theta must contain only finite scores")

    def greedy_all(self) -> np.ndarray:
        # np.argmax takes the first maximum: ties break to the lowest id.
        return np.argmax(self.theta, axis=1)


TRANSLATOR = Rule(lambda v: isinstance(v, TabularTranslator), "a TabularTranslator")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for all training phases.

    learning_rate        step size for every gradient-ascent update
    steps                number of outer steps in the phase
    supervised_batch     minibatch size for parallel-data updates (the
                         update applies the mean batch gradient)
    reconstruction_batch round-trip samples drawn per reconstruction step
                         and direction, applied one at a time; for
                         multi-step training, pivot-chain pairs per step
    supervised_mix       fraction of steps that replay parallel data
                         during the dual / multi-step phases
    update_pivots        keep refining pivot-pair translators with their
                         own reconstruction updates during multi-step
                         training (default: pivots stay frozen)
    seed                 drives all sampling in the phase
    """

    learning_rate: float = field(default=0.5, metadata={"rule": POSITIVE})
    steps: int = field(default=2000, metadata={"rule": NATURAL})
    supervised_batch: int = field(default=16, metadata={"rule": COUNT})
    reconstruction_batch: int = field(default=1, metadata={"rule": COUNT})
    supervised_mix: float = field(default=0.5, metadata={"rule": PROBABILITY})
    update_pivots: bool = field(default=False, metadata={"rule": SCALAR_RULES[bool]})
    seed: int = field(default=0, metadata={"rule": SEED})

    # each field's one rule, its type with its range, which the config loader reads too
    __post_init__ = check_fields


TRAIN_CONFIG = Rule(lambda v: isinstance(v, TrainConfig), "a TrainConfig")
