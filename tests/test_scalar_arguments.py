"""Every count, seed and tolerance argument follows one rule, the same in the
run config and in the library: a count is an integer >= 1, a seed an integer
in [0, 2**64), a tolerance a finite real >= 0.  A value that breaks the rule
raises a ``ValidationError`` that names the field: a value that is not an
integer gets the integer message, one out of range the rule's message."""

import re

import numpy as np
import pytest

from epca import (
    CorruptionSpec,
    ExperimentConfig,
    LabelVector,
    RngHandle,
    SigmaLossParams,
    ValidationError,
    epca_fit,
    fit_pca_om,
    mean_clustering_accuracy,
)

X = np.random.default_rng(17).standard_normal((5, 12))


def _config(**overrides):
    settings = dict(input_path="x.csv", methods=["epca"], ranks=[2], sigma_grid=[1.0],
                    corruption=CorruptionSpec(0.2, 0.2, seed=0), seeds=[0])
    return ExperimentConfig(**{**settings, **overrides})


COUNTS = {
    "epca_fit.max_iter": ("max_iter", lambda v: epca_fit(X, 2, SigmaLossParams(1.0), max_iter=v)),
    "fit_pca_om.max_iter": ("max_iter", lambda v: fit_pca_om(X, 2, max_iter=v)),
    "config.max_iter": ("max_iter", lambda v: _config(max_iter=v)),
    "config.kmeans_restarts": ("kmeans_restarts", lambda v: _config(kmeans_restarts=v)),
    "config.ranks": ("rank c", lambda v: _config(ranks=[2, v])),
    "mean_clustering_accuracy.restarts": ("restarts", lambda v: mean_clustering_accuracy(
        X[:2], LabelVector(np.arange(12) % 2, 2), v, RngHandle(0))),
    "LabelVector.class_count": ("class_count", lambda v: LabelVector([0, 0], v)),
}
SEEDS = {
    "RngHandle": lambda v: RngHandle(v),
    "CorruptionSpec": lambda v: CorruptionSpec(0.2, 0.2, seed=v),
    "config.seeds": lambda v: _config(seeds=[0, v]),
}
TOLS = {
    "epca_fit": lambda v: epca_fit(X, 2, SigmaLossParams(1.0), tol=v),
    "fit_pca_om": lambda v: fit_pca_om(X, 2, tol=v),
    "config": lambda v: _config(tol=v),
}

CASES = (
    [(f"{entry}={bad!r}", call, bad,
      f"{name} must be >= 1, got {bad}" if isinstance(bad, int) and not isinstance(bad, bool)
      else f"{name} must be an integer, got {bad!r}")
     for entry, (name, call) in COUNTS.items() for bad in (0, -1, 2.5, True, "3")]
    + [(f"{entry}.seed={bad!r}", call, bad,
        "seed must fit in an unsigned 64-bit integer"
        if isinstance(bad, int) and not isinstance(bad, bool)
        else f"seed must be an integer, got {bad!r}")
       for entry, call in SEEDS.items() for bad in (-1, 2**64, 2.5, True, "3")]
    + [(f"{entry}.tol={bad!r}", call, bad, f"tol must be finite and >= 0, got {bad!r}")
       for entry, call in TOLS.items() for bad in (-1, np.nan, np.inf, True, "3")]
)


@pytest.mark.parametrize("call, bad, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_scalar_outside_its_rule_is_named_in_one_message(call, bad, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("call", [call for _, call in COUNTS.values()]
                         + list(SEEDS.values()) + list(TOLS.values()),
                         ids=[f"count-{e}" for e in COUNTS] + [f"seed-{e}" for e in SEEDS]
                         + [f"tol-{e}" for e in TOLS])
def test_a_value_inside_the_rule_is_accepted(call):
    # 1 is a count, a seed and a tolerance; numpy integers count as integers.
    call(np.int64(1))
