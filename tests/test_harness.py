"""Tests for the experiment harness: CSV ingestion, the comparison grid,
sigma search, report determinism, and the command-line entry points."""

import argparse
import copy
import csv
import dataclasses
import json
import logging
import math
import os

import numpy as np
import pytest

import epca
from epca import (
    CorruptionSpec,
    DataMatrix,
    DimensionError,
    ExperimentConfig,
    IngestionError,
    LabelVector,
    RngHandle,
    SigmaLossParams,
    ValidationError,
    epca_fit,
    fit_classical_pca,
    fit_method,
    fit_pca_om,
    grid_search_sigma,
    ingest_csv,
    mean_clustering_accuracy,
    reconstruction_error,
    run_experiment,
)
from epca import cli


def _write_csv(path, X):
    # Files store rows-as-samples; the library works columns-as-samples.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(X, dtype=float).T:
            writer.writerow([repr(float(v)) for v in row])


def _low_rank(rng, d=5, n=24, r=2, noise=0.05):
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0]
    X = basis @ (3.0 * rng.standard_normal((r, n)))
    X += rng.standard_normal(d)[:, None]
    return X + noise * rng.standard_normal((d, n))


def _blob_pair(rng, d=5, n_per=12, gap=8.0):
    left = rng.standard_normal((d, n_per))
    right = rng.standard_normal((d, n_per))
    right[0] += gap
    return np.hstack([left, right]), [0] * n_per + [1] * n_per


def _data_csv(tmp_path, seed=11, **kwargs):
    path = tmp_path / "data.csv"
    _write_csv(path, _low_rank(np.random.default_rng(seed), **kwargs))
    return path


def _labelled_files(tmp_path, seed=3):
    X, labels = _blob_pair(np.random.default_rng(seed))
    data = tmp_path / "blobs.csv"
    _write_csv(data, X)
    label_path = tmp_path / "labels.csv"
    label_path.write_text("".join(f"{y}\n" for y in labels))
    return data, label_path


def _labelled_config(tmp_path, **overrides):
    data, label_path = _labelled_files(tmp_path)
    return _config(data, labels_path=str(label_path), **overrides)


def _config(input_path, **overrides):
    settings = dict(
        input_path=str(input_path),
        methods=["classical_pca"],
        ranks=[2],
        sigma_grid=[1.0],
        corruption=CorruptionSpec(0.2, 0.2, seed=0),
        seeds=[0],
        kmeans_restarts=5,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestIngestCsv:
    def test_rows_become_sample_columns(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        X, labels = ingest_csv(path)
        assert labels is None
        assert (X.feature_count, X.sample_count) == (2, 3)
        np.testing.assert_array_equal(X.values, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_header_row_is_skipped_with_a_notice(self, tmp_path, caplog):
        path = tmp_path / "headed.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        with caplog.at_level(logging.INFO, logger="epca.harness"):
            X, _ = ingest_csv(path)
        assert X.sample_count == 2
        assert "skipping header" in caplog.text

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n1,2\n\n3,4\n\n")
        X, _ = ingest_csv(path)
        assert X.sample_count == 2

    def test_ragged_row_reports_its_position(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4\n5,6,7\n")
        with pytest.raises(IngestionError, match="row 3"):
            ingest_csv(path)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(IngestionError, match="row 2, column 2"):
            ingest_csv(path)

    def test_header_only_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(IngestionError, match="no numeric data rows"):
            ingest_csv(path)

    # Excel and other Windows tools start a UTF-8 CSV with a byte-order mark,
    # which must not turn the first row into a header.
    def test_a_byte_order_mark_keeps_the_first_sample(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("\ufeff1.0,2\n3,4\n5,6\n", encoding="utf-8")
        X, _ = ingest_csv(data)
        np.testing.assert_array_equal(X.values, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_a_byte_order_mark_keeps_the_first_label(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("\ufeff9\n5\n9\n", encoding="utf-8")
        _, lv = ingest_csv(data, labels)
        np.testing.assert_array_equal(lv.labels, [1, 0, 1])

    def test_labels_are_loaded_and_remapped(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("label\n9\n5\n9\n")
        _, lv = ingest_csv(data, labels)
        assert lv.class_count == 2
        np.testing.assert_array_equal(lv.labels, [1, 0, 1])

    def test_label_count_mismatch_names_both_sizes(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n1\n")
        with pytest.raises(IngestionError, match="label count 2 != sample count 3"):
            ingest_csv(data, labels)

    def test_bad_label_reports_its_row(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        labels = tmp_path / "labels.csv"
        for bad in ("xx", "inf", "1.5", "nan", "1e300"):
            labels.write_text(f"0\n1\n{bad}\n")
            with pytest.raises(IngestionError, match="row 3"):
                ingest_csv(data, labels)

    def test_label_row_with_more_than_one_cell_reports_its_row(self, tmp_path):
        # An id,label file would otherwise be scored against its id column.
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n7,0\n8,1\n9,1\n")
        with pytest.raises(IngestionError) as err:
            ingest_csv(data, labels)
        assert str(err.value) == "row 2: has 2 cells, expected 1 label"
        labels.write_text("label\n0\n1\n1,2\n")
        with pytest.raises(IngestionError, match="row 4: has 2 cells"):
            ingest_csv(data, labels)
        labels.write_text("label\n0\n1\n1\n")
        assert ingest_csv(data, labels)[1].labels.tolist() == [0, 1, 1]

    def test_bad_label_message_names_the_first_bad_row(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,2,3,4\n5,6,7,8\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("label\n0\n1\n2.5\nxx\n")
        with pytest.raises(IngestionError) as err:
            ingest_csv(data, labels)
        assert str(err.value) == "row 4: could not parse label '2.5' as an integer"

    def test_a_path_that_is_not_str_or_path_like_is_a_validation_error(self, tmp_path):
        # open() would take an int for a file descriptor, read it and close it.
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n")
        r, w = os.pipe()
        os.write(w, b"1,2\n3,4\n")
        os.close(w)
        for args, name in [((r,), "path"), ((None,), "path"), ((True,), "path"),
                           ((data, r), "labels_path")]:
            with pytest.raises(ValidationError, match=rf"^{name} must be a path \(str or "
                                                      rf"os.PathLike\), got {args[-1]!r}$"):
                ingest_csv(*args)
        os.close(r)  # raises if ingest_csv closed the descriptor

    @pytest.mark.parametrize("content, named", [
        ("café,1\n2,3\n".encode("latin-1"), ": not a UTF-8 text file ('utf-8' codec"),
        (b"1\n" + b"5" * 200_000 + b"\n", ", line 2: field larger than field limit"),
    ], ids=["latin-1", "oversize-field"])
    def test_an_unreadable_file_is_an_ingestion_error(self, tmp_path, capsys, content, named):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        data = tmp_path / "data.csv"
        data.write_text("1,2\n3,4\n")
        for args in [(bad,), (data, bad)]:
            with pytest.raises(IngestionError) as err:
                ingest_csv(*args)
            assert str(err.value).startswith(f"{bad}{named}")
        assert cli.main(["fit", "--input", str(bad), "--rank", "1"]) == 2
        assert f"error: IngestionError: {bad}{named}" in capsys.readouterr().err


class TestExperimentConfig:
    def test_methods_must_be_known(self):
        with pytest.raises(ValidationError, match="unknown methods"):
            _config("x.csv", methods=["classical_pca", "robust_pca"])

    def test_empty_axes_are_rejected(self):
        for name, value in [("methods", []), ("ranks", []),
                            ("sigma_grid", []), ("seeds", [])]:
            with pytest.raises(ValidationError):
                _config("x.csv", **{name: value})

    def test_ranks_must_be_positive(self):
        with pytest.raises(ValidationError, match=">= 1"):
            _config("x.csv", ranks=[0])
        with pytest.raises(ValidationError, match=r"rank c must be an integer, got 2\.5"):
            _config("x.csv", ranks=[2, 2.5])

    def test_numeric_axes_are_coerced_to_plain_types(self):
        cfg = _config("x.csv", ranks=[np.int64(2)],
                      sigma_grid=[np.float64(0.5)], seeds=[np.int64(7)])
        assert cfg.ranks == [2] and type(cfg.ranks[0]) is int
        assert cfg.sigma_grid == [0.5] and type(cfg.sigma_grid[0]) is float
        assert cfg.seeds == [7] and type(cfg.seeds[0]) is int

    def test_echo_round_trips_the_settings(self):
        cfg = _config("in.csv", ranks=[1, 2], sigma_grid=[0.5, 2.0], seeds=[0, 1])
        echo = cfg.echo()
        assert echo["input_path"] == "in.csv"
        assert echo["ranks"] == [1, 2]
        assert echo["sigma_grid"] == [0.5, 2.0]
        assert echo["seeds"] == [0, 1]
        assert echo["labels_path"] is None
        assert echo["corruption"]["sample_fraction"] == 0.2
        assert echo["kmeans_restarts"] == 5
        assert set(echo) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert "seed" not in echo["corruption"]

    @pytest.mark.parametrize("setting, value, message", [
        ("kmeans_restarts", 0, "kmeans_restarts must be >= 1"),
        ("kmeans_restarts", 2.5, "kmeans_restarts must be an integer"),
        ("max_iter", 0, "max_iter must be >= 1"),
        ("max_iter", 1.5, "max_iter must be an integer"),
        ("tol", -1e-8, "tol must be finite and >= 0"),
        ("tol", float("nan"), "tol must be finite and >= 0"),
        ("tol", float("inf"), "tol must be finite and >= 0"),
        ("tol", "1e-8", "tol must be finite and >= 0"),
        ("tol", 10**400, "tol must be finite and >= 0"),
        ("seeds", [0, 2.5], "seed must be an integer, got 2.5"),
        ("methods", "epca", "methods must be a list, got 'epca'"),
        ("ranks", 3, "ranks must be a list, got 3"),
        ("sigma_grid", "1.0", "sigma_grid must be a list, got '1.0'"),
        ("sigma_grid", [1.0, "2"], r"sigma_grid entries must be real numbers, got \['2'\]"),
        ("sigma_grid", [1.0, 10**400], r"sigma_grid entries must be real numbers, got \[1000"),
        ("seeds", 5, "seeds must be a list, got 5"),
        ("corruption", ("a", 0.2, 0), "sample_fraction must be a real number in \\[0, 1\\], got 'a'"),
        ("corruption", (0.2, None, 0), "feature_fraction must be a real number"),
        ("corruption", (0.2, 0.2, "x"), "seed must be an integer, got 'x'"),
    ], ids=["restarts-zero", "restarts-fractional", "max_iter-zero", "max_iter-fractional",
            "tol-negative", "tol-nan", "tol-inf", "tol-string", "tol-huge-int",
            "seed-fractional", "methods-string", "ranks-int", "sigma_grid-string",
            "sigma_grid-entry", "sigma_grid-huge-int",
            "seeds-int", "sample_fraction-string", "feature_fraction-none",
            "corruption_seed-string"])
    def test_run_settings_are_checked_when_built(self, setting, value, message):
        with pytest.raises(ValidationError, match=message):
            if setting == "corruption":
                value = CorruptionSpec(*value)
            _config("x.csv", **{setting: value})

    @pytest.mark.parametrize("setting, value, message", [
        ("corruption", {"sample_fraction": 0.1}, r"corruption must be a CorruptionSpec, got \{"),
        ("corruption", None, "corruption must be a CorruptionSpec, got None"),
        ("input_path", None, r"input_path must be a path \(str or os.PathLike\), got None"),
        ("input_path", 3, r"input_path must be a path \(str or os.PathLike\), got 3"),
        ("labels_path", 3, r"labels_path must be a path \(str or os.PathLike\), got 3"),
    ], ids=["corruption-dict", "corruption-none", "input_path-none", "input_path-int",
            "labels_path-int"])
    def test_corruption_and_paths_are_checked_when_built(self, setting, value, message):
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(_config("x.csv"), **{setting: value})

    def test_paths_may_be_path_objects(self, tmp_path):
        data, label_path = _labelled_files(tmp_path)
        cfg = dataclasses.replace(_config(data), input_path=data, labels_path=label_path)
        report = run_experiment(cfg)
        assert not report.any_failures
        assert report.cells[0]["mean_accuracy"] is not None
        assert (report.config["input_path"], report.config["labels_path"]) == (
            str(data), str(label_path))

    @pytest.mark.parametrize("setting", ["restarts", "seeds", "ranks", "max_iter"])
    def test_bool_is_not_read_as_an_integer(self, setting):
        truth = LabelVector(np.array([0, 1, 1]), 2)
        builds = {
            "restarts": lambda: mean_clustering_accuracy(np.ones((2, 3)), truth, restarts=True,
                                                         rng=RngHandle(0)),
            "seeds": lambda: _config("x.csv", seeds=[True]),
            "ranks": lambda: _config("x.csv", ranks=[True]),
            "max_iter": lambda: _config("x.csv", max_iter=True),
        }
        name = {"seeds": "seed", "ranks": "rank c"}.get(setting, setting)
        with pytest.raises(ValidationError, match=f"{name} must be an integer, got True"):
            builds[setting]()

    @pytest.mark.parametrize("name, build", [
        ("sigma", lambda: SigmaLossParams(True)),
        ("sample_fraction", lambda: CorruptionSpec(True, 0.2, seed=0)),
        ("feature_fraction", lambda: CorruptionSpec(0.2, False, seed=0)),
        ("sigma_grid", lambda: _config("x.csv", sigma_grid=[True])),
        ("tol", lambda: _config("x.csv", tol=True)),
        ("tol", lambda: epca_fit(np.eye(3), 1, SigmaLossParams(1.0), tol=True)),
    ], ids=["sigma", "sample_fraction", "feature_fraction", "sigma_grid", "config-tol",
            "fit-tol"])
    def test_bool_is_not_read_as_a_real_number(self, name, build):
        with pytest.raises(ValidationError, match=rf"{name}\b.*, got \[?(True|False)"):
            build()


class TestRunExperiment:
    def test_grid_has_one_cell_per_combination(self, tmp_path):
        cfg = _config(_data_csv(tmp_path),
                      methods=["classical_pca", "epca"],
                      ranks=[1, 2], sigma_grid=[0.5, 2.0], seeds=[0, 1])
        report = run_experiment(cfg)
        assert len(report.cells) == 2 * 2 * 2 * 2
        assert [cell["index"] for cell in report.cells] == list(range(16))
        assert not report.any_failures
        for cell in report.cells:
            assert cell["error"] is None
            assert cell["reconstruction_error"] >= 0.0
            assert cell["wall_clock_s"] >= 0.0

    def test_single_combination_yields_single_cell(self, tmp_path):
        report = run_experiment(_config(_data_csv(tmp_path)))
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert (cell["method"], cell["rank"], cell["sigma"]) == ("classical_pca", 2, 1.0)
        assert cell["iterations"] == 0
        assert cell["active_count_trace"] == []
        assert cell["mean_accuracy"] is None

    def test_reports_are_bit_identical_across_runs(self, tmp_path):
        cfg = _config(_data_csv(tmp_path), methods=["classical_pca", "epca"],
                      sigma_grid=[0.5, 2.0], seeds=[0, 1])
        first = run_experiment(cfg).canonical_payload()
        second = run_experiment(cfg).canonical_payload()
        assert first == second
        assert '"wall_clock_s"' not in first

    def test_numpy_scalar_settings_give_a_json_payload(self, tmp_path):
        cfg = _config(_data_csv(tmp_path, d=4),
                      corruption=CorruptionSpec(np.float32(0.25), np.float64(0.2),
                                                seed=np.int64(0)))
        report = run_experiment(cfg)
        assert not report.any_failures
        echo = json.loads(report.canonical_payload())["config"]["corruption"]
        assert echo == {"sample_fraction": 0.25, "feature_fraction": 0.2,
                        "shared_features": False}
        json.dumps(report.payload())

    def test_labels_fill_mean_accuracy(self, tmp_path):
        cfg = _labelled_config(tmp_path, methods=["epca"])
        report = run_experiment(cfg)
        acc = report.cells[0]["mean_accuracy"]
        assert acc is not None
        assert 0.0 <= acc <= 1.0

    def test_invalid_sigma_fails_only_the_weighted_cells(self, tmp_path):
        cfg = _config(_data_csv(tmp_path),
                      methods=["classical_pca", "epca"], sigma_grid=[-1.0])
        report = run_experiment(cfg)
        by_method = {cell["method"]: cell for cell in report.cells}
        assert by_method["classical_pca"]["error"] is None
        assert by_method["classical_pca"]["reconstruction_error"] >= 0.0
        assert "ValidationError" in by_method["epca"]["error"]
        assert by_method["epca"]["reconstruction_error"] is None
        assert report.any_failures

    def test_baseline_cells_ignore_the_sigma_axis(self, tmp_path):
        # One fit and one scoring per (seed, rank), copied to every sigma
        # cell, its wall_clock_s included.
        cfg = _labelled_config(tmp_path, methods=["classical_pca", "pca_om"],
                               ranks=[1, 2], sigma_grid=[0.5, 2.0, 8.0], seeds=[0, 1])
        report = run_experiment(cfg)
        assert len(report.cells) == 2 * 2 * 2 * 3
        shared = {}
        for cell in report.cells:
            assert cell["mean_accuracy"] is not None
            rest = {k: v for k, v in cell.items() if k not in ("index", "sigma")}
            shared.setdefault((cell["seed"], cell["method"], cell["rank"]), []).append(rest)
        for cells in shared.values():
            assert len(cells) == 3
            assert cells[0] == cells[1] == cells[2]

    def test_methods_at_one_seed_and_rank_draw_the_same_first_pick(self, tmp_path, monkeypatch):
        # The k-means++ first centre is a uniform draw: record, per k-means
        # run, the index that draw gives.
        picks = []
        lockstep = epca.evaluation._kmeans_lockstep

        def recording(P, k, gens):
            picks.extend((P.shape[0], int(copy.deepcopy(gen).integers(P.shape[1])))
                         for gen in gens)
            return lockstep(P, k, gens)

        monkeypatch.setattr(epca.evaluation, "_kmeans_lockstep", recording)
        cfg = _labelled_config(tmp_path, methods=["classical_pca", "epca", "pca_om"],
                               ranks=[1, 2], sigma_grid=[0.5, 2.0], seeds=[4])
        assert not run_experiment(cfg).any_failures
        restarts = cfg.kmeans_restarts
        for rank in (1, 2):
            runs = [pick for r, pick in picks if r == rank]
            assert len(runs) == 4 * restarts  # classical, epca at two sigmas, pca_om
            by_fit = [runs[i:i + restarts] for i in range(0, len(runs), restarts)]
            assert all(fit == by_fit[0] for fit in by_fit)

    def test_zero_fraction_cell_matches_direct_evaluation(self, tmp_path):
        path = _data_csv(tmp_path)
        cfg = _config(path, corruption=CorruptionSpec(0.0, 0.0, seed=0))
        report = run_experiment(cfg)
        X, _ = ingest_csv(path)
        model = fit_classical_pca(X, 2)
        direct = reconstruction_error(X, X, model.basis, model.translation)
        np.testing.assert_allclose(
            report.cells[0]["reconstruction_error"], direct, rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("driver", [run_experiment, grid_search_sigma],
                             ids=["run_experiment", "grid_search_sigma"])
    def test_out_of_range_rank_is_rejected_up_front(self, tmp_path, driver):
        # d == 5, need rank < d
        cfg = _config(_data_csv(tmp_path), methods=["epca"], ranks=[5])
        with pytest.raises(DimensionError, match=r"need 1 <= c <= 4, got c=5"):
            driver(cfg)


class TestGridSearchSigma:
    def test_curve_covers_the_grid_and_both_stages(self, tmp_path):
        cfg = _config(_data_csv(tmp_path), methods=["epca"],
                      sigma_grid=[0.25, 1.0, 4.0])
        best, curve, _ = grid_search_sigma(cfg)
        coarse = [row for row in curve if row["stage"] == "coarse"]
        fine = [row for row in curve if row["stage"] == "fine"]
        assert sorted(row["sigma"] for row in coarse) == [0.25, 1.0, 4.0]
        assert len(fine) == 8
        assert all(row["failure"] is None for row in curve)
        for row in curve:
            assert row["log2_sigma"] == pytest.approx(np.log2(row["sigma"]))
        errors = {row["sigma"]: row["error"] for row in curve}
        assert best in errors
        assert errors[best] == min(errors.values())

    def test_search_is_reproducible(self, tmp_path):
        cfg = _config(_data_csv(tmp_path), methods=["epca"],
                      sigma_grid=[0.25, 1.0, 4.0], seeds=[0, 1])
        best_a, curve_a, _ = grid_search_sigma(cfg)
        best_b, curve_b, _ = grid_search_sigma(cfg)
        assert best_a == best_b
        assert curve_a == curve_b

    def test_single_point_grid_warns_about_the_boundary(self, tmp_path, caplog):
        cfg = _config(_data_csv(tmp_path), methods=["epca"], sigma_grid=[1.0])
        with caplog.at_level(logging.WARNING, logger="epca.harness"):
            best, curve, on_boundary = grid_search_sigma(cfg)
        assert best == 1.0
        assert len(curve) == 1
        assert on_boundary
        assert "boundary" in caplog.text

    @pytest.mark.parametrize("methods", [["classical_pca"], ["classical_pca", "pca_om"]])
    def test_methods_without_a_sigma_method_are_rejected_before_reading(self, methods):
        cfg = _config("missing.csv", methods=methods)
        with pytest.raises(ValidationError, match=r"methods \[.*\] hold no method that reads"):
            grid_search_sigma(cfg)

    def test_failed_grid_points_are_reported_not_fatal(self, tmp_path):
        cfg = _config(_data_csv(tmp_path), methods=["epca"],
                      sigma_grid=[-1.0, 0.5, 8.0])
        best, curve, _ = grid_search_sigma(cfg)
        failed = [row for row in curve if row["failure"] is not None]
        assert len(failed) == 1
        assert failed[0]["sigma"] == -1.0
        assert "ValidationError" in failed[0]["failure"]
        assert failed[0]["error"] is None
        assert math.isnan(failed[0]["log2_sigma"])
        assert best > 0.0


_FITS = {"classical_pca": "fit_classical_pca", "epca": "epca_fit", "pca_om": "fit_pca_om"}


class TestFitHooks:
    """Every fit the harness and the CLI make goes through the module globals
    ``epca.harness.<fit>``, where a wrapper (such as a profiler's) sees it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(_FITS.values(), 0)
        for name in _FITS.values():
            original = getattr(epca.harness, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(epca.harness, name, counting)
        return counts

    def test_run_experiment_reaches_each_fit_once_per_distinct_fit(self, tmp_path, counts):
        cfg = _config(_data_csv(tmp_path), methods=["classical_pca", "epca", "pca_om"],
                      ranks=[1, 2], sigma_grid=[0.5, 2.0, 8.0], seeds=[0, 1])
        assert not run_experiment(cfg).any_failures
        # epca once per (seed, rank, sigma); the baselines once per (seed, rank).
        assert counts == {"epca_fit": 2 * 2 * 3, "fit_classical_pca": 2 * 2, "fit_pca_om": 2 * 2}

    @pytest.mark.parametrize("method", sorted(_FITS))
    def test_cli_fit_reaches_only_its_fit(self, tmp_path, counts, method):
        code = cli.main(["fit", "--input", str(_data_csv(tmp_path)), "--method", method,
                         "--rank", "2", "--out", str(tmp_path / "model.json")])
        assert code == 0
        assert counts == {name: int(name == _FITS[method]) for name in _FITS.values()}

    def test_fit_method_returns_the_direct_fits_bits(self):
        X = DataMatrix(_low_rank(np.random.default_rng(12), d=6, n=30))
        state = epca_fit(X, 2, SigmaLossParams(0.5), tol=1e-9, max_iter=50)
        om = fit_pca_om(X, 2, tol=1e-9, max_iter=50)
        direct = {
            "classical_pca": (fit_classical_pca(X, 2), 0, []),
            "pca_om": (om, len(om.objective_trace) - 1, []),
            "epca": (state.model, state.iterations, [int(k) for k in state.active_count_trace]),
        }
        for method, (expected, iterations, k_trace) in direct.items():
            model, got_iterations, got_k_trace = fit_method(method, X, 2, 0.5, 1e-9, 50)
            for name in ("basis", "translation", "coordinates", "objective_trace"):
                np.testing.assert_array_equal(getattr(model, name), getattr(expected, name))
            assert (got_iterations, got_k_trace) == (iterations, k_trace)

    def test_fit_method_rejects_an_unknown_name(self):
        X = DataMatrix(_low_rank(np.random.default_rng(13)))
        with pytest.raises(ValidationError, match="unknown method 'robust_pca'"):
            fit_method("robust_pca", X, 2, 1.0, 1e-8, 100)


class TestCli:
    def test_corrupt_reports_what_it_touched(self, tmp_path, capsys):
        inp = _data_csv(tmp_path, n=10)
        out = tmp_path / "occluded.csv"
        code = cli.main(["corrupt", "--input", str(inp), "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["corrupted_samples"]) == 2  # floor(0.2 * 10)
        assert all(len(feats) == 1 for feats in summary["corrupted_features"].values())
        X_in, _ = ingest_csv(inp)
        X_out, _ = ingest_csv(out)
        assert X_out.values.shape == X_in.values.shape
        assert int(np.sum(X_out.values != X_in.values)) == 2

    def test_fit_writes_a_model_file(self, tmp_path):
        inp = _data_csv(tmp_path)
        model_path = tmp_path / "model.json"
        code = cli.main(["fit", "--input", str(inp), "--method", "classical_pca",
                         "--rank", "2", "--out", str(model_path)])
        assert code == 0
        model = json.loads(model_path.read_text())
        assert len(model["basis"]) == 5 and len(model["basis"][0]) == 2
        assert len(model["translation"]) == 5
        assert model["sigma"] is None
        assert model["iterations"] == 0
        assert model["objective_trace"] == []

    def test_fit_weighted_reports_its_traces(self, tmp_path):
        inp = _data_csv(tmp_path)
        model_path = tmp_path / "model.json"
        code = cli.main(["fit", "--input", str(inp), "--method", "epca",
                         "--rank", "2", "--sigma", "1.0", "--out", str(model_path)])
        assert code == 0
        model = json.loads(model_path.read_text())
        assert model["sigma"] == 1.0
        assert model["iterations"] == len(model["objective_trace"]) - 1
        assert len(model["active_count_trace"]) >= 1
        assert all(k >= 2 for k in model["active_count_trace"])

    def test_eval_scores_a_written_model(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X, labels = _blob_pair(rng)
        clean = tmp_path / "clean.csv"
        _write_csv(clean, X)
        label_path = tmp_path / "labels.csv"
        label_path.write_text("".join(f"{y}\n" for y in labels))
        occluded = tmp_path / "occluded.csv"
        assert cli.main(["corrupt", "--input", str(clean), "--seed", "1",
                         "--out", str(occluded)]) == 0
        model_path = tmp_path / "model.json"
        assert cli.main(["fit", "--input", str(occluded), "--method", "epca",
                         "--rank", "2", "--sigma", "1.0",
                         "--out", str(model_path)]) == 0
        result_path = tmp_path / "scores.json"
        code = cli.main(["eval", "--clean", str(clean), "--occluded", str(occluded),
                         "--model", str(model_path), "--labels", str(label_path),
                         "--restarts", "5", "--out", str(result_path)])
        assert code == 0
        scores = json.loads(result_path.read_text())
        assert scores["reconstruction_error"] > 0.0
        assert 0.0 <= scores["mean_accuracy"] <= 1.0
        # Without labels the accuracy slot stays empty.
        bare_path = tmp_path / "bare.json"
        assert cli.main(["eval", "--clean", str(clean), "--occluded", str(occluded),
                         "--model", str(model_path), "--out", str(bare_path)]) == 0
        assert json.loads(bare_path.read_text())["mean_accuracy"] is None

    @pytest.mark.parametrize("method", sorted(_FITS))
    def test_eval_reproduces_the_matching_run_cell(self, tmp_path, method):
        clean, label_path = _labelled_files(tmp_path, seed=5)
        occluded, model_path = tmp_path / "occluded.csv", tmp_path / "model.json"
        assert cli.main(["corrupt", "--input", str(clean), "--seed", "7",
                         "--out", str(occluded)]) == 0
        assert cli.main(["fit", "--input", str(occluded), "--method", method,
                         "--rank", "2", "--out", str(model_path)]) == 0
        scores_path, report_path = tmp_path / "scores.json", tmp_path / "report.json"
        assert cli.main(["eval", "--clean", str(clean), "--occluded", str(occluded),
                         "--model", str(model_path), "--labels", str(label_path),
                         "--seed", "7", "--restarts", "5", "--out", str(scores_path)]) == 0
        # The run's rank-1 cell scores from another stream; eval takes the
        # rank from the model.
        assert cli.main(["run", "--input", str(clean), "--labels", str(label_path),
                         "--method", method, "--rank", "1", "--rank", "2", "--seed", "7",
                         "--restarts", "5", "--out", str(report_path)]) == 0
        scores = json.loads(scores_path.read_text())
        cell = json.loads(report_path.read_text())["cells"][1]
        assert cell["rank"] == 2
        assert scores == {name: cell[name] for name in ("reconstruction_error", "mean_accuracy")}

    @pytest.mark.parametrize("content", [
        '{"translation": [0.0, 0.0]}', "not json",
        '{"basis": [[NaN], [0.0], [0.0], [0.0], [0.0]], "translation": [0.0, 0.0, 0.0, 0.0, 0.0]}',
    ], ids=["no-basis", "not-json", "nan-basis"])
    def test_eval_rejects_a_malformed_model_file(self, tmp_path, capsys, content):
        data = _data_csv(tmp_path)
        model_path = tmp_path / "model.json"
        model_path.write_text(content)
        code = cli.main(["eval", "--clean", str(data), "--occluded", str(data),
                         "--model", str(model_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "IngestionError" in err and str(model_path) in err

    @pytest.mark.parametrize("content, named", [
        ("not json", "not a JSON file"),
        ("[1, 2]", "JSON object"),
        ('{"corruption": [0.2]}', "JSON object"),
        ('{"kmeans_restart": 5}', "'kmeans_restart'"),
        ('{"corruption": {"sample_fraction": 0.1, "bogus": 1}}', "'corruption.bogus'"),
        ('{"corruption": {"seed": 3}}', "'corruption.seed'"),
        ('{"corruption": {"value_law": "uniform-feature-range"}}', "'corruption.value_law'"),
        ('{"seeds": 5}', "ValidationError: seeds must be a list, got 5"),
        ('{"corruption": {"sample_fraction": "a"}}',
         "ValidationError: sample_fraction must be a real number in [0, 1], got 'a'"),
        ('{"sigma_grid": [1%s]}' % ("0" * 400),
         "ValidationError: sigma_grid entries must be real numbers, got [1000"),
    ], ids=["not-json", "list", "corruption-list", "unknown-key", "unknown-corruption-key",
            "corruption-seed", "corruption-value_law", "seeds-int", "sample_fraction-string",
            "sigma_grid-huge-int"])
    def test_run_rejects_a_malformed_config_file(self, tmp_path, capsys, content, named):
        config_path = tmp_path / "config.json"
        config_path.write_text(content)
        code = cli.main(["run", "--config", str(config_path),
                         "--input", str(_data_csv(tmp_path)), "--rank", "2"])
        assert code == 2
        err = capsys.readouterr().err
        if not named.startswith("ValidationError"):  # a value of the wrong type
            assert "IngestionError" in err and str(config_path) in err
        assert named in err

    @pytest.mark.parametrize("content, named", [
        ('{"input_path": 3}', "input_path must be a path (str or os.PathLike), got 3"),
        ('{"labels_path": 3}', "labels_path must be a path (str or os.PathLike), got 3"),
        ('{"corruption": {"shared_features": "false"}}',
         "shared_features must be a bool, got 'false'"),
    ], ids=["input_path-int", "labels_path-int", "shared_features-string"])
    def test_run_rejects_a_config_value_of_the_wrong_type(self, tmp_path, capsys, content,
                                                          named):
        config_path = tmp_path / "config.json"
        config_path.write_text(content)
        data = _data_csv(tmp_path)
        args = ["run", "--config", str(config_path), "--rank", "2"]
        if "input_path" not in content:
            args += ["--input", str(data)]
        assert cli.main(args) == 2
        assert f"error: ValidationError: {named}" in capsys.readouterr().err

    def test_run_produces_report_and_csv(self, tmp_path):
        inp = _data_csv(tmp_path)
        report_path = tmp_path / "report.json"
        cells_path = tmp_path / "cells.csv"
        code = cli.main(["run", "--input", str(inp), "--rank", "2", "--seed", "0",
                         "--corrupt-samples", "0.2", "--corrupt-features", "0.2",
                         "--out", str(report_path), "--csv", str(cells_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["library_version"] == epca.__version__
        assert payload["config"]["ranks"] == [2]
        assert len(payload["cells"]) == 3  # every known method, one grid point
        lines = cells_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0].startswith("index,seed,method")

    def test_run_exit_code_flags_cell_failures(self, tmp_path):
        inp = _data_csv(tmp_path)
        report_path = tmp_path / "report.json"
        code = cli.main(["run", "--input", str(inp), "--method", "epca",
                         "--rank", "2", "--sigma", "-1.0",
                         "--out", str(report_path)])
        assert code == 2
        payload = json.loads(report_path.read_text())
        assert "ValidationError" in payload["cells"][0]["error"]

    def test_run_flags_override_config_file(self, tmp_path):
        inp = _data_csv(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "input_path": str(inp),
            "methods": ["classical_pca"],
            "ranks": [1],
            "sigma_grid": [1.0],
            "seeds": [0],
            "corruption": {"sample_fraction": 0.0, "feature_fraction": 0.0},
            "kmeans_restarts": 5,
        }))
        report_path = tmp_path / "report.json"
        code = cli.main(["run", "--config", str(config_path), "--rank", "2",
                         "--out", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["config"]["ranks"] == [2]  # flag wins
        assert payload["config"]["methods"] == ["classical_pca"]
        assert payload["config"]["corruption"]["sample_fraction"] == 0.0

    def test_an_out_path_in_a_missing_directory_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "missing" / "model.json"
        code = cli.main(["fit", "--input", str(_data_csv(tmp_path)), "--rank", "2",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_run_without_input_fails_cleanly(self, capsys):
        code = cli.main(["run", "--rank", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_sigma_writes_the_curve(self, tmp_path, capsys):
        inp = _data_csv(tmp_path)
        curve_path = tmp_path / "curve.csv"
        code = cli.main(["grid-sigma", "--input", str(inp), "--rank", "2",
                         "--sigma", "0.25", "--sigma", "4.0", "--seed", "0",
                         "--out", str(curve_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_sigma"] > 0.0
        assert summary["curve_points"] == 2 + 8
        assert summary["boundary_warning"] is True  # two-point grid
        lines = curve_path.read_text().strip().splitlines()
        assert lines[0] == "log2_sigma,error,stage,failure"
        assert len(lines) == 1 + 10

    def test_grid_sigma_flag_agrees_with_the_search_log(self, tmp_path, capsys, caplog):
        # sigma = -1 fails, so 0.01 is the smallest grid point that fitted.
        inp = _data_csv(tmp_path)
        with caplog.at_level(logging.WARNING, logger="epca.harness"):
            code = cli.main(["grid-sigma", "--input", str(inp), "--rank", "2",
                             "--sigma", "-1.0", "--sigma", "0.01", "--sigma", "100.0",
                             "--seed", "0"])
        assert code == 2  # the failed grid point
        summary = json.loads(capsys.readouterr().out)
        assert summary["boundary_warning"] is True
        assert "boundary" in caplog.text
        assert summary["curve_points"] == 3 + 8  # the fine stage ran

    def test_grid_sigma_that_fails_everywhere_names_the_first_cause(self, tmp_path, capsys):
        inp = _data_csv(tmp_path)
        code = cli.main(["grid-sigma", "--input", str(inp), "--rank", "2",
                         "--sigma", "-1", "--sigma", "0", "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValidationError: every grid point failed; sigma -1.0: seed 0: "
            "ValidationError: sigma must be a positive finite real, got -1.0\n"
        )

    def test_grid_sigma_that_fails_everywhere_still_writes_its_curve(self, tmp_path, capsys):
        inp = _data_csv(tmp_path)
        curve_path = tmp_path / "curve.csv"
        code = cli.main(["grid-sigma", "--input", str(inp), "--rank", "2",
                         "--sigma", "-1", "--sigma", "0", "--seed", "0",
                         "--out", str(curve_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: ValidationError: every grid point failed; sigma -1.0: ")
        with open(curve_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["stage"] for row in rows] == ["coarse", "coarse"]
        assert [row["error"] for row in rows] == ["", ""]
        for row, sigma in zip(rows, ("-1.0", "0.0")):
            assert row["failure"] == (
                f"seed 0: ValidationError: sigma must be a positive finite real, got {sigma}")


def test_every_run_flag_sets_a_config_field():
    # _build_config reads each flag by the field name in its dest.
    settable = ({f.name for f in dataclasses.fields(ExperimentConfig)}
                | {f.name for f in dataclasses.fields(CorruptionSpec)})
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command in ("run", "grid-sigma"):
        dests = {action.dest for action in commands[command]._actions} - {
            "help", "config", "out", "csv"}
        assert dests and dests <= settable, (command, sorted(dests - settable))


def test_every_exported_name_resolves():
    missing = [name for name in epca.__all__ if not hasattr(epca, name)]
    assert missing == []
