import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ellipsopt.bench import (
    SUMMARY_COLUMNS,
    BenchConfig,
    InfeasibleConfigError,
    RunRow,
    SeedOutcome,
    _best_sgd_row,
    _check_ordering,
    config_from_mapping,
    first_crossings,
    load_dataset,
    read_key_value_file,
    render_manifest,
    render_summary_csv,
    run_experiment,
)
from ellipsopt.problems import (
    LogisticProblem,
    generate_synthetic,
    save_dataset_csv,
    split_train_test,
)


def _small_config(out_dir, **overrides) -> BenchConfig:
    base = dict(
        m=400,
        n=3,
        seeds=(0,),
        eps=0.05,
        batch_size=64,
        max_iters=60,
        sgd_batch_size=8,
        sgd_iterations=60,
        sweep=(0.05, 0.5),
        erm_tol=1e-3,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return BenchConfig(**base)


def _row(solver, crossings, step=0.1, final=0.5, report="stub"):
    return RunRow(
        solver=solver,
        seed=0,
        step_size=None if solver == "ellipsoid" else step,
        batch_size=8,
        iterations=60,
        crossings=crossings,
        oracle_calls=480,
        wall_time_s=0.0,
        final_test_loss=final,
        returned_test_loss=final,
        report=report,
    )


def _manifest_mapping(config: BenchConfig) -> dict[str, str]:
    text = render_manifest(config, [], True)
    return dict(line.partition("=")[::2] for line in text.splitlines() if not line.startswith("#"))


class TestFirstCrossings:
    def test_indexes_the_first_dip_per_threshold(self):
        curve = [1.0, 0.5, 0.1, 0.05, 0.001]
        assert first_crossings(curve, 0.0) == (2, 4, 4)

    def test_unreached_thresholds_are_none(self):
        assert first_crossings([1.0, 0.9], 0.0) == (None, None, None)

    def test_offsets_by_the_reference_value(self):
        assert first_crossings([2.0, 1.05, 1.0], 1.0) == (1, 2, 2)


class TestOrderingVerdict:
    def _outcome(self, rows):
        oc = SeedOutcome(
            seed=0, f_star_train=0.0, f_star_gap=0.0, f_star_test=0.0, sigma=1.0,
            value_range=1.0, iterations=60, theory_batch_size=None, sweep=(0.1,),
        )
        oc.rows = rows
        return oc

    def test_strictly_fewer_iterations_passes(self):
        oc = self._outcome([
            _row("ellipsoid", (1, 3, None)),
            _row("sgd", (2, 10, None)),
            _row("sgd", (2, None, None)),
        ])
        assert _check_ordering(oc) is True

    def test_tie_fails(self):
        oc = self._outcome([
            _row("ellipsoid", (1, 3, None)),
            _row("sgd", (2, 3, None)),
        ])
        assert _check_ordering(oc) is False

    def test_unreached_target_fails(self):
        oc = self._outcome([
            _row("ellipsoid", (1, None, None)),
            _row("sgd", (2, 10, None)),
        ])
        assert _check_ordering(oc) is False


class TestBestSgdRow:
    def test_prefers_earliest_mid_threshold(self):
        rows = [_row("sgd", (1, 5, None)), _row("sgd", (1, 3, None))]
        assert _best_sgd_row(rows).crossings == (1, 3, None)

    def test_breaks_ties_by_fine_threshold_then_loss(self):
        rows = [
            _row("sgd", (1, 3, 9), final=0.4),
            _row("sgd", (1, 3, 7), final=0.5),
        ]
        assert _best_sgd_row(rows).crossings == (1, 3, 7)
        rows = [
            _row("sgd", (1, 3, 7), final=0.5),
            _row("sgd", (1, 3, 7), final=0.4),
        ]
        assert _best_sgd_row(rows).final_test_loss == 0.4


class TestConfigValidation:
    def test_rejects_bad_inputs_before_running(self):
        cases = [
            dict(seeds=()),
            dict(seeds=(-1,)),
            dict(eps=0.0),
            dict(beta=1.0),
            dict(m=5),
            dict(n=1),
            dict(test_fraction=1.0),
            dict(workers=0),
            dict(batch_size=0),
            dict(sgd_batch_size=0),
            dict(erm_tol=0.0),
            dict(sigma=-1.0),
        ]
        for kwargs in cases:
            with pytest.raises(InfeasibleConfigError):
                BenchConfig(**kwargs)
        # retired keys at a value other than their old default
        for key, value in [
            ("solvers", "ellipsoid"), ("solvers", "sgd"), ("solvers", "ellipsoid,ellipsoid"),
            ("solvers", "ellipsoid,sgd,newton"), ("eval_batch_size", "33"),
            ("eval_batch_size", "4096"),
        ]:
            with pytest.raises(ValueError, match=f"config key {key} is retired"):
                config_from_mapping({key: value})

    @pytest.mark.parametrize("key", ["eps", "sigma", "erm_tol", "weight_radius", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_floats(self, key, value):
        with pytest.raises(InfeasibleConfigError, match=key.partition("_")[0]):
            config_from_mapping({key: value})

    def test_rejects_a_negative_sweep_entry(self):
        with pytest.raises(InfeasibleConfigError, match="sweep"):
            config_from_mapping({"sweep": "0.05,-1"})

    def test_rejects_an_empty_sweep(self):
        with pytest.raises(InfeasibleConfigError, match="sweep"):
            BenchConfig(sweep=())
        with pytest.raises(InfeasibleConfigError, match="sweep"):
            config_from_mapping({"sweep": ","})

    def test_rejects_repeated_seeds(self):
        with pytest.raises(InfeasibleConfigError, match="repeat"):
            BenchConfig(seeds=(0, 1, 0))
        with pytest.raises(InfeasibleConfigError, match="repeat"):
            config_from_mapping({"seeds": "2,2"})

    def test_defaults_build(self):
        cfg = BenchConfig()
        assert cfg.seeds == (0,)


class TestKeyValueFile:
    def test_parses_comments_blanks_and_whitespace(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\n m = 100 \nn=4\n", encoding="utf-8")
        assert read_key_value_file(path) == {"m": "100", "n": "4"}

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"\xef\xbb\xbfm=100\nn=4\n")
        assert read_key_value_file(path) == {"m": "100", "n": "4"}

    def test_reports_line_number_for_bad_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("m=100\nnot a pair\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_key_value_file(path)

    def test_a_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("m=100\n# m again\n m = 200\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":3: key 'm' repeats line 1$"):
            read_key_value_file(path)

    @pytest.mark.parametrize("line", ["=5", " = 5", "="])
    def test_a_line_without_a_key_reports_its_line(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(f"m=100\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: expected key=value"):
            read_key_value_file(path)


class TestConfigFromMapping:
    def test_parses_every_value_kind(self):
        cfg = config_from_mapping({
            "m": "500", "n": "4", "intercept": "false", "seeds": "0,1,2",
            "eps": "0.1", "sweep": "0.01,0.1", "csv": "data.csv",
        })
        assert cfg.m == 500
        assert cfg.intercept is False
        assert cfg.seeds == (0, 1, 2)
        assert cfg.sweep == (0.01, 0.1)
        assert cfg.csv == "data.csv"

    def test_zero_means_derive_for_batch_and_iteration_knobs(self):
        cfg = config_from_mapping({
            "batch_size": "0", "max_iters": "0", "sgd_iterations": "0",
        })
        assert cfg.batch_size is None
        assert cfg.max_iters is None
        assert cfg.sgd_iterations is None

    def test_zero_stays_invalid_for_plain_int_keys(self):
        with pytest.raises((InfeasibleConfigError, ValueError)):
            config_from_mapping({"workers": "0"})

    def test_empty_values_fall_back_to_defaults(self):
        cfg = config_from_mapping({"m": "", "sigma": ""})
        assert cfg.m == BenchConfig().m
        assert cfg.sigma is None

    def test_manifest_echo_lines_are_ignored(self):
        cfg = config_from_mapping({
            "m": "200", "resolved.seed0.sigma": "1.5", "result.ordering_ok": "true",
        })
        assert cfg.m == 200

    def test_retired_keys_load_at_the_value_the_code_now_uses(self):
        for key, value in [
            ("parallel_seeds", "true"), ("parallel_seeds", "false"),
            ("solvers", "ellipsoid,sgd"), ("solvers", " sgd , ellipsoid"), ("solvers", ""),
            ("eval_batch_size", "0"), ("eval_batch_size", ""),
        ]:
            assert config_from_mapping({key: value, "m": "200"}) == BenchConfig(m=200)

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"momentum": "0.9"})

    def test_bad_values_name_the_key(self):
        with pytest.raises(ValueError, match="config key m="):
            config_from_mapping({"m": "many"})
        with pytest.raises(ValueError, match="expected true/false"):
            config_from_mapping({"intercept": "yes"})


class TestRenderSummary:
    def test_header_and_cell_layout(self):
        text = render_summary_csv([
            _row("ellipsoid", (1, 2, 3)),
            _row("sgd", (4, None, None), step=0.25, final=math.inf),
        ])
        lines = text.splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        ell = lines[1].split(",")
        assert ell[0] == "ellipsoid"
        assert ell[2] == ""
        assert ell[5:8] == ["1", "2", "3"]
        sgd = lines[2].split(",")
        assert sgd[2] == "0.25"
        assert sgd[5:8] == ["4", "", ""]
        assert sgd[-1] == "inf"


class TestRunExperiment:
    def test_writes_traces_summary_and_manifest(self, tmp_path):
        config = _small_config(tmp_path / "out", seeds=(0, 1))
        outcome = run_experiment(config)
        out = tmp_path / "out"
        for seed in (0, 1):
            assert (out / f"ellipsoid-seed{seed}.csv").is_file()
            assert (out / f"sgd-seed{seed}.csv").is_file()
        assert outcome.summary_path.is_file()
        assert outcome.manifest_path.is_file()
        assert len(outcome.trace_paths) == 4

        lines = outcome.summary_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        # one ellipsoid row plus one row per sweep entry, per seed
        assert len(lines) == 1 + 2 * (1 + len(config.sweep))

    def test_summary_accounts_every_oracle_draw(self, tmp_path):
        config = _small_config(tmp_path / "out")
        outcome = run_experiment(config)
        for row in outcome.seed_outcomes[0].rows:
            if row.solver == "sgd" and row.report is not None:
                assert row.oracle_calls == row.iterations * config.sgd_batch_size
            if row.solver == "ellipsoid":
                feasible = sum(
                    1 for rec in row.report.records if rec.cut_kind == "subgradient"
                )
                assert row.oracle_calls == feasible * config.batch_size

    def test_returned_test_loss_scores_the_point_each_solver_returns(self, tmp_path):
        config = _small_config(tmp_path / "out")
        outcome = run_experiment(config)
        test = split_train_test(load_dataset(config, 0), config.test_fraction, seed=0)[1]
        test_problem = LogisticProblem(test, weight_radius=config.weight_radius)
        column = SUMMARY_COLUMNS.index("returned_test_loss")
        lines = outcome.summary_path.read_text(encoding="utf-8").splitlines()[1:]
        rows = outcome.seed_outcomes[0].rows
        assert len(lines) == len(rows)
        for row, line in zip(rows, lines):
            expected = test_problem.objective(row.report.best_point)
            assert row.returned_test_loss == expected
            assert float(line.split(",")[column]) == expected
        # solve returns the point the cut curve ends on, so the two losses are one number
        cut = rows[0]
        assert cut.solver == "ellipsoid" and cut.returned_test_loss == cut.final_test_loss

    def test_sweep_rows_share_the_sweep_wall_time_and_match_their_reports(self, tmp_path):
        config = _small_config(tmp_path / "out")
        outcome = run_experiment(config).seed_outcomes[0]
        sgd = [r for r in outcome.rows if r.solver == "sgd"]
        assert tuple(r.step_size for r in sgd) == outcome.sweep and len(sgd) > 1
        assert len({r.wall_time_s for r in sgd}) == 1 and sgd[0].wall_time_s > 0
        for r in sgd:
            assert r.iterations == len(r.report.records)
            assert r.oracle_calls == r.iterations * config.sgd_batch_size

    def test_manifest_lists_inputs_and_resolved_values(self, tmp_path):
        config = _small_config(tmp_path / "out")
        outcome = run_experiment(config)
        text = outcome.manifest_path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("#")
        keys = {line.partition("=")[0] for line in lines if line and not line.startswith("#")}
        for expected in ("m", "n", "eps", "seeds", "batch_size", "out_dir",
                         "resolved.seed0.sigma", "resolved.seed0.iterations",
                         "resolved.seed0.f_star_gap", "resolved.seed0.f_star_test",
                         "result.seed0.ordering_ok",
                         "result.ordering_ok"):
            assert expected in keys
        gap = next(line for line in lines if line.startswith("resolved.seed0.f_star_gap="))
        assert 0.0 <= float(gap.partition("=")[2]) <= config.erm_tol

    def test_manifest_round_trips_a_derive_mode_config(self):
        derive = BenchConfig(batch_size=None, max_iters=None, sigma=None, out_dir="x")
        # every field differs from its default
        full = BenchConfig(
            m=123, n=7, csv="data/x.csv", intercept=False,
            seeds=(3, 1), eps=0.125, beta=0.25, sigma=1.5, batch_size=77,
            max_iters=44, sgd_batch_size=5, sgd_iterations=66,
            sweep=(0.001, 0.5, 1e-07), test_fraction=0.3, weight_radius=2.5,
            erm_tol=1e-05, workers=3, out_dir="some/dir",
        )
        assert all(getattr(full, f.name) != f.default for f in dataclasses.fields(BenchConfig))
        mapping = _manifest_mapping(derive)
        assert mapping["batch_size"] == "0"
        assert config_from_mapping(mapping) == derive
        assert config_from_mapping(_manifest_mapping(full)) == full
        # pins the manifest's bytes and key order
        assert render_manifest(full, [], True) == (
            "# experiment manifest: the key=value lines below rerun this\n"
            "# experiment byte-identically via --config (resolved.* and\n"
            "# result.* lines are informational echoes and are ignored)\n"
            "m=123\nn=7\ncsv=data/x.csv\nintercept=false\n"
            "seeds=3,1\neps=0.125\nbeta=0.25\nsigma=1.5\nbatch_size=77\n"
            "max_iters=44\nsgd_batch_size=5\nsgd_iterations=66\n"
            "sweep=0.001,0.5,1e-07\ntest_fraction=0.3\nweight_radius=2.5\n"
            "erm_tol=1e-05\nworkers=3\nout_dir=some/dir\n"
            "result.ordering_ok=true\n"
        )

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        config = _small_config(tmp_path / "first", seeds=(0,))
        first = run_experiment(config)

        mapping = read_key_value_file(first.manifest_path)
        mapping["out_dir"] = str(tmp_path / "second")
        second = run_experiment(config_from_mapping(mapping))

        mapping["out_dir"] = str(tmp_path / "third")
        mapping["workers"] = "4"
        third = run_experiment(config_from_mapping(mapping))

        for name in ("ellipsoid-seed0.csv", "sgd-seed0.csv"):
            reference = (tmp_path / "first" / name).read_bytes()
            assert (tmp_path / "second" / name).read_bytes() == reference
            assert (tmp_path / "third" / name).read_bytes() == reference

    def test_infeasible_derived_batch_fails_before_writing(self, tmp_path):
        out = tmp_path / "never"
        config = _small_config(out, batch_size=None, sigma=1.0, eps=1e-250)
        with pytest.raises(InfeasibleConfigError):
            run_experiment(config)
        assert not out.exists()

    def test_csv_dataset_replaces_synthetic_data(self, tmp_path):
        dataset, _ = generate_synthetic(300, 3, seed=4)
        data_path = tmp_path / "data.csv"
        save_dataset_csv(dataset, data_path)
        config = _small_config(tmp_path / "out", csv=str(data_path), seeds=(0,))
        outcome = run_experiment(config)
        oc = outcome.seed_outcomes[0]
        train_rows = sum(
            1 for _ in open(tmp_path / "out" / "summary.csv", encoding="utf-8")
        )
        assert train_rows == 1 + 1 + len(config.sweep)
        assert oc.sigma > 0.0

    @pytest.mark.parametrize("line", ["parallel_seeds=false", "solvers=ellipsoid,sgd", "eval_batch_size=0"])
    def test_manifest_with_a_retired_parallel_seeds_line_reruns_identically(self, tmp_path, line):
        first = run_experiment(_small_config(tmp_path / "first", seeds=(0,)))
        text = first.manifest_path.read_text(encoding="utf-8")
        key, _, value = line.partition("=")
        assert f"{key}=" not in text
        # manifests written before the key was retired carry this line
        old = tmp_path / "old-manifest.txt"
        old.write_text(text.replace("workers=1\n", f"workers=1\n{line}\n"), encoding="utf-8")
        mapping = read_key_value_file(old)
        assert mapping[key] == value
        mapping["out_dir"] = str(tmp_path / "second")
        run_experiment(config_from_mapping(mapping))
        for name in ("ellipsoid-seed0.csv", "sgd-seed0.csv"):
            assert (tmp_path / "second" / name).read_bytes() == (
                tmp_path / "first" / name
            ).read_bytes()


# sha256 of each artifact of run_experiment at m=20000, n=10, seed 0 and 150
# iterations per solver (the experiment-n10 benchmark's run): the two traces,
# summary.csv without its wall_time_s column, and manifest.txt without its
# out_dir line. They move only when a change to the draws, the kernels, the
# reductions or the file format is meant to.
PINNED_EXPERIMENT_DIGESTS = {
    "ellipsoid-seed0.csv": "a2d02397f95a9646dfa757f0c38c4973583ce2cd2c9359e01f52d9871cd78c4e",
    "sgd-seed0.csv": "4ddb33819de32cac43bf4d583a8038dd9769701e0a055acb1c831e9724208ca1",
    "summary.csv": "958460b47849f7006578d507a665d834b13efee7ff9de00751ac467e2c3abe70",
    "manifest.txt": "ae3ecff44deedd3b3821aacbf629d83de96fa4b963c28496d92f9da1925c51df",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _experiment_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out_dir:
        outcome = run_experiment(BenchConfig(m=20000, n=10, seeds=(0,), max_iters=150,
                                             out_dir=out_dir))
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in outcome.trace_paths}
        wall = SUMMARY_COLUMNS.index("wall_time_s")
        rows = [line.split(",") for line in outcome.summary_path.read_text(encoding="utf-8").splitlines()]
        manifest = outcome.manifest_path.read_text(encoding="utf-8").splitlines(keepends=True)
    digests["summary.csv"] = _sha256("\n".join(",".join(row[:wall] + row[wall + 1:]) for row in rows))
    digests["manifest.txt"] = _sha256("".join(line for line in manifest if not line.startswith("out_dir=")))
    return digests


def test_experiment_artifacts_are_pinned_to_recorded_bits():
    root = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root.parent / "src"), str(root),
                                                       os.environ.get("PYTHONPATH")])))
    code = "import json, test_bench; print(json.dumps(test_bench._experiment_digests()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # pytest's dict comparison names each artifact whose digest moved
    assert json.loads(run.stdout) == PINNED_EXPERIMENT_DIGESTS
