"""Every public array argument follows one rule: real entries (bool, integer
or float) in a rectangular array.  Complex, string, object and ragged input
raises an ``EpcaError``, never a warning, a raw ``ValueError``/``TypeError``,
or a silently converted result."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from epca import (
    DataMatrix,
    EpcaError,
    LabelVector,
    RngHandle,
    SubspaceModel,
    WeightVector,
    mean_clustering_accuracy,
    reconstruct,
    reconstruction_error,
    solve_weights,
    top_eigenpairs,
    transform,
)
from epca.cli import _load_model


def _load_model_file(basis, translation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps({"basis": basis, "translation": translation}))
        return _load_model(path)


def _entry_points():
    """``(id, call, valid keyword arguments, the argument to spoil)`` per array argument."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 3))
    X = DataMatrix(np.ones((3, 4)))
    model = SubspaceModel(np.eye(4)[:, :2], np.zeros(4), np.zeros((2, 3)))
    eig = {"A": A, "c": 2, "weights": np.ones(3)}
    recon = {"X_clean": X, "X_occ": X, "basis": np.eye(3)[:, :1], "translation": np.zeros(3)}
    fields = {"basis": np.eye(4)[:, :2], "translation": np.zeros(4),
              "coordinates": np.zeros((2, 3)), "objective_trace": np.array([2.0, 1.0])}
    weights = {"weights": np.array([0.5, 0.5, 0.0]), "active_count": 2, "lam": 1.0,
               "complements": np.array([0.5, 0.5, 1.0])}
    score = {"V": rng.standard_normal((2, 4)), "truth": LabelVector([0, 1, 0, 1], 2),
             "restarts": 1, "rng": RngHandle(0)}
    saved = {"basis": np.eye(4)[:, :2], "translation": np.zeros(4)}
    return (
        [("DataMatrix", DataMatrix, {"values": np.ones((3, 4))}, "values")]
        + [("top_eigenpairs", top_eigenpairs, eig, name) for name in ("A", "weights")]
        + [("solve_weights", solve_weights, {"losses": np.array([1.0, 2.0, 3.0])}, "losses")]
        + [("reconstruction_error", reconstruction_error, recon, name)
           for name in ("basis", "translation")]
        + [("mean_clustering_accuracy", mean_clustering_accuracy, score, "V")]
        + [("SubspaceModel", SubspaceModel, fields, name) for name in fields]
        + [("WeightVector", WeightVector, weights, name) for name in ("weights", "complements")]
        + [("transform", transform, {"model": model, "Y": np.ones((4, 3))}, "Y"),
           ("reconstruct", reconstruct, {"model": model, "V": np.zeros((2, 3))}, "V")]
        + [("cli._load_model", _load_model_file, saved, name) for name in saved]
    )


def _ragged(a):
    rows = a.tolist()
    if a.ndim == 2:
        rows[-1] = rows[-1][:-1]
    else:
        rows[-1] = [rows[-1]]
    return rows


def _with_a_none(a):
    spoiled = a.astype(object)
    spoiled.flat[-1] = None
    return spoiled


SPOILERS = {
    "complex": lambda a: a + 1j,
    "numeric-strings": lambda a: a.astype(str),
    "ragged": _ragged,
    "object": _with_a_none,
}
CASES = [(entry, call, valid, name, kind) for entry, call, valid, name in _entry_points()
         for kind in SPOILERS
         # JSON holds no complex numbers.
         if not (entry == "cli._load_model" and kind == "complex")]


@pytest.mark.parametrize("entry, call, valid, name, kind", CASES,
                         ids=[f"{case[0]}.{case[3]}-{case[4]}" for case in CASES])
def test_an_array_argument_that_is_not_real_is_an_epca_error(entry, call, valid, name, kind):
    bad = SPOILERS[kind](np.asarray(valid[name]))
    if entry == "cli._load_model":
        bad = bad.tolist() if isinstance(bad, np.ndarray) else bad
        valid = {key: value.tolist() for key, value in valid.items()}
    call(**valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EpcaError):
            call(**{**valid, name: bad})
