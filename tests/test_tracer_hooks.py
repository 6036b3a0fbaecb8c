"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
where the package looks them up: in module globals such as
``epca.harness.mean_clustering_accuracy``.  A refactor that calls one of them
under another name or through another module would silently detach that
layer's spans, so this test puts a counter on every target of the tracer and
requires each one to be reached by the two benchmark operations."""

import importlib.util
from pathlib import Path

import numpy as np

import epca.harness
import epca.solver
from epca import CorruptionSpec, ExperimentConfig, SigmaLossParams

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


def _write_csv(path, rows):
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")


def test_every_tracer_target_is_reached_through_its_global(tmp_path, monkeypatch):
    counts = {}
    for module, attr in _tracer_targets():
        assert hasattr(module, attr), f"{module.__name__}.{attr} no longer exists"
        key = f"{module.__name__}.{attr}"
        counts[key] = 0
        original = getattr(module, attr)

        def counting(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    rng = np.random.default_rng(0)
    # fit-wide: one weighted fit on data with more features than samples.
    epca.solver.epca_fit(rng.standard_normal((40, 12)), 3, SigmaLossParams(1.0))
    # grid-labelled: a labelled comparison grid read from CSV files.
    labels = np.arange(30) % 3
    data = 4.0 * np.eye(6)[:, labels] + rng.standard_normal((6, 30))
    _write_csv(tmp_path / "data.csv", data.T)
    _write_csv(tmp_path / "labels.csv", labels)
    cfg = ExperimentConfig(
        input_path=str(tmp_path / "data.csv"), labels_path=str(tmp_path / "labels.csv"),
        methods=list(epca.harness.KNOWN_METHODS), ranks=[2], sigma_grid=[0.5, 2.0],
        corruption=CorruptionSpec(0.2, 0.2, seed=0), seeds=[1], kmeans_restarts=2,
    )
    assert not epca.harness.run_experiment(cfg).any_failures

    assert [key for key, count in counts.items() if count == 0] == []
