import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellipsopt
from ellipsopt import cli
from ellipsopt.bench import BenchConfig, solver_config
from ellipsopt.cli import _bench_config, build_parser, main
from ellipsopt.problems import LogisticProblem, generate_synthetic, load_dataset_csv
from ellipsopt.solver import SolverConfig


def _gen_args(tmp_path, m=200, n=3, **extra):
    args = ["gen-data", "--m", str(m), "--n", str(n), "--out-dir", str(tmp_path)]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


class TestGenData:
    def test_writes_dataset_to_out_dir(self, tmp_path, capsys):
        assert main(_gen_args(tmp_path)) == 0
        dataset = load_dataset_csv(tmp_path / "data.csv")
        assert dataset.size == 200
        assert dataset.width == 3
        np.testing.assert_array_equal(dataset.features[:, -1], np.ones(200))
        assert "wrote 200 x 3 dataset" in capsys.readouterr().out

    def test_out_flag_overrides_the_default_path(self, tmp_path):
        out = tmp_path / "custom.csv"
        assert main(_gen_args(tmp_path, out=out)) == 0
        assert out.is_file()

    def test_no_intercept_drops_the_constant_column(self, tmp_path):
        assert main(_gen_args(tmp_path) + ["--no-intercept"]) == 0
        dataset = load_dataset_csv(tmp_path / "data.csv")
        assert not np.all(dataset.features[:, -1] == 1.0)

    def test_same_seed_reproduces_the_file(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(_gen_args(tmp_path, seed=7, out=a)) == 0
        assert main(_gen_args(tmp_path, seed=7, out=b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_sizes_exit_2(self, tmp_path, capsys):
        assert main(_gen_args(tmp_path, n=1)) == 2
        assert "error:" in capsys.readouterr().err


def _solve_args(tmp_path, **extra):
    args = [
        "solve", "--m", "300", "--n", "3", "--batch-size", "64",
        "--max-iters", "40", "--out-dir", str(tmp_path),
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


class TestSolve:
    def test_writes_trace_and_reports_the_run(self, tmp_path, capsys):
        assert main(_solve_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "iterations=40" in out
        assert "batch_size=64" in out
        assert "termination=" in out
        assert "best_point=" in out
        # 40 steps reach no stride check: start and end bound the drift
        [drift] = [line for line in out.splitlines() if line.startswith("log_det_drift=")]
        assert 0.0 <= float(drift.partition("=")[2]) < 1e-9
        trace = (tmp_path / "trace.csv").read_text(encoding="utf-8")
        assert trace.splitlines()[0] == "k,feasible,cut_kind,f_estimate,logdet_H,c0,c1,c2"
        assert len(trace.splitlines()) == 41

    def test_trace_flag_overrides_the_default_path(self, tmp_path):
        trace = tmp_path / "run.csv"
        assert main(_solve_args(tmp_path, trace=trace)) == 0
        assert trace.is_file()

    def test_reads_dataset_from_csv(self, tmp_path):
        assert main(_gen_args(tmp_path, m=250, n=4)) == 0
        args = [
            "solve", "--csv", str(tmp_path / "data.csv"), "--batch-size", "32",
            "--max-iters", "20", "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        header = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith("c0,c1,c2,c3")

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1\n1.0,2.0\n", encoding="utf-8")
        assert main(["solve", "--csv", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_zero_step_budget_writes_a_header_only_trace(self, tmp_path, capsys):
        # at eps=50 the derived budget is 0 iterations: the start center is returned
        args = ["solve", "--m", "2000", "--n", "3", "--eps", "50", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert "iterations=0 " in capsys.readouterr().out
        trace = (tmp_path / "trace.csv").read_text(encoding="utf-8")
        assert trace == "k,feasible,cut_kind,f_estimate,logdet_H,c0,c1,c2\n"

    def test_missing_csv_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["solve", "--csv", str(missing), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nope.csv" in err


# small enough to run both solvers in well under a second, and the cut
# solver reaches f*+1e-2 before the one SGD step size on seeds 0 and 1
def _bench_args(tmp_path, out="bench", **extra):
    args = [
        "bench", "--m", "400", "--n", "3", "--batch-size", "512",
        "--max-iters", "60", "--sgd-iterations", "60", "--sgd-batch-size", "8",
        "--sweep", "0.05", "--erm-tol", "1e-3",
        "--out-dir", str(tmp_path / out),
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


class TestBench:
    def test_run_writes_artifacts_and_exits_0(self, tmp_path, capsys):
        assert main(_bench_args(tmp_path)) == 0
        out_dir = tmp_path / "bench"
        for name in ("ellipsoid-seed0.csv", "sgd-seed0.csv", "summary.csv", "manifest.txt"):
            assert (out_dir / name).is_file()
        out = capsys.readouterr().out
        assert "iters-to-thresholds" in out
        assert "ordering (cut solver first to f*+1e-2 on every seed): ok" in out

    def test_failed_ordering_exits_1(self, tmp_path, capsys):
        # 3 iterations cannot reach the mid threshold, so the comparison fails
        assert main(_bench_args(tmp_path, max_iters=3, sgd_iterations=60)) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_flags_win_over_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m=300\nn=3\neps=0.25\n", encoding="utf-8")
        args = _bench_args(tmp_path, config=cfg, m=400)
        assert main(args) == 0
        manifest = (tmp_path / "bench" / "manifest.txt").read_text(encoding="utf-8")
        assert "m=400" in manifest
        assert "eps=0.25" in manifest

    def test_seeds_flag_overrides_seed(self, tmp_path):
        args = _bench_args(tmp_path, seed=9, seeds="0,1")
        assert main(args) == 0
        manifest = (tmp_path / "bench" / "manifest.txt").read_text(encoding="utf-8")
        assert "seeds=0,1" in manifest
        assert (tmp_path / "bench" / "ellipsoid-seed1.csv").is_file()

    def test_invalid_config_exits_2_without_artifacts(self, tmp_path, capsys):
        # a retired key at a value other than its old default
        for line in ("solvers=ellipsoid", "eval_batch_size=33"):
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(line + "\n", encoding="utf-8")
            assert main(_bench_args(tmp_path, config=cfg)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert line.partition("=")[0] in err
            assert not (tmp_path / "bench").exists()

    def test_nan_eps_exits_2_without_artifacts(self, tmp_path, capsys):
        assert main(_bench_args(tmp_path, eps="nan")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "eps" in err
        assert not (tmp_path / "bench").exists()

    def test_seed_past_the_key_word_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data generated for a rejected seed")

        monkeypatch.setattr("ellipsopt.bench.generate_synthetic", no_data)
        assert main(_bench_args(tmp_path, seed=2**64)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2**64" in err
        assert not (tmp_path / "bench").exists()

    def test_a_zero_step_budget_exits_2_without_artifacts(self, tmp_path, capsys):
        # at eps=50 the derived budget is 0 iterations, so no run has a test curve
        args = ["bench", "--m", "2000", "--n", "3", "--eps", "50", "--out-dir", str(tmp_path / "bench")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed 0:") and err.count("\n") == 1
        assert "budget" in err and "is 0" in err and "max_iters" in err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("text, fragment", [("m=100\nm=200\n", ":2: key 'm' repeats line 1"),
                                                ("=5\n", ":1: expected key=value")],
                             ids=["repeated-key", "empty-key"])
    def test_a_bad_config_line_exits_2_with_its_line_number(self, tmp_path, capsys, text, fragment):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(_bench_args(tmp_path, config=cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and fragment in err
        assert not (tmp_path / "bench").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("momentum=0.9\n", encoding="utf-8")
        assert main(_bench_args(tmp_path, config=cfg)) == 2
        assert "unknown config key" in capsys.readouterr().err


_BENCH_FLAG_CASES = [
    (["--m", "321"], "m", 321),
    (["--n", "4"], "n", 4),
    (["--csv", "data.csv"], "csv", "data.csv"),
    (["--no-intercept"], "intercept", False),
    (["--seeds", "3,4"], "seeds", (3, 4)),
    (["--seed", "9"], "seeds", (9,)),
    (["--eps", "0.125"], "eps", 0.125),
    (["--beta", "0.25"], "beta", 0.25),
    (["--sigma", "1.5"], "sigma", 1.5),
    (["--batch-size", "77"], "batch_size", 77),
    (["--batch-size", "0"], "batch_size", None),
    (["--max-iters", "44"], "max_iters", 44),
    (["--sgd-batch-size", "5"], "sgd_batch_size", 5),
    (["--sgd-iterations", "66"], "sgd_iterations", 66),
    (["--sweep", "0.5,1e-07"], "sweep", (0.5, 1e-07)),
    (["--test-fraction", "0.3"], "test_fraction", 0.3),
    (["--weight-radius", "2.5"], "weight_radius", 2.5),
    (["--erm-tol", "1e-05"], "erm_tol", 1e-05),
    (["--out-dir", "some/dir"], "out_dir", "some/dir"),
]


@pytest.mark.parametrize(
    "argv, key, expected", _BENCH_FLAG_CASES, ids=[" ".join(c[0]) for c in _BENCH_FLAG_CASES]
)
def test_each_bench_flag_sets_the_config_key_of_its_name(argv, key, expected):
    config = _bench_config(build_parser().parse_args(["bench", *argv]))
    # that key changes and every other one keeps its default
    assert config == dataclasses.replace(BenchConfig(), **{key: expected})


class TestValidate:
    def test_passing_suite_writes_report_and_exits_0(self, tmp_path, capsys):
        args = ["validate", "gradcheck", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        report = (tmp_path / "validate-gradcheck.txt").read_text(encoding="utf-8")
        assert "suite=gradcheck" in report
        assert "passed=true" in report
        out = capsys.readouterr().out
        assert "passed=true" in out
        assert "report=" in out

    def test_seed_flag_reaches_the_suite(self, tmp_path):
        args = ["validate", "gradcheck", "--seed", "3", "--out-dir", str(tmp_path)]
        assert main(args) == 0

    def test_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "spin", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


_IGNORED_FLAG_CASES = [
    ["validate", "gradcheck", "--eps", "1"],
    ["gen-data", "--csv", "x"],
    ["gen-data", "--batch-size", "8"],
]


@pytest.mark.parametrize("argv", _IGNORED_FLAG_CASES, ids=[" ".join(c) for c in _IGNORED_FLAG_CASES])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_without_run_flags_gets_the_bench_defaults():
    config = _bench_config(build_parser().parse_args(["solve"]))
    assert config == dataclasses.replace(BenchConfig(), out_dir=".")
    dataset, _ = generate_synthetic(200, 3, seed=0)
    problem = LogisticProblem(dataset, weight_radius=config.weight_radius)
    assert problem.feasible_set.radius == 10.0
    assert solver_config(config, 0, problem) == SolverConfig(
        eps=0.05, beta=0.1, sigma=problem.fitted_sigma, seed=0, batch_size=4096
    )


@pytest.mark.parametrize("command", ["gen-data", "solve"])
def test_synthetic_data_below_ten_rows_exits_2(tmp_path, capsys, command):
    assert main([command, "--m", "9", "--n", "3", "--out-dir", str(tmp_path)]) == 2
    assert "m >= 10" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


README = Path(__file__).resolve().parent.parent / "README.md"

# the README's experiment commands and the config each one runs
_README_BENCH_CASES = [
    ("--n 20 --seeds 0,1,2 --out-dir bench-out/n20",
     BenchConfig(m=50_000, n=20, seeds=(0, 1, 2), out_dir="bench-out/n20")),
    ("--n 55 --out-dir bench-out/n55",
     BenchConfig(m=50_000, n=55, seeds=(0,), out_dir="bench-out/n55")),
    ("--m 4000 --n 5 --seeds 0 --batch-size 512 --max-iters 400 --sgd-iterations 400 "
     "--out-dir bench-out/quick",
     BenchConfig(m=4_000, n=5, seeds=(0,), batch_size=512, max_iters=400, sgd_iterations=400,
                 out_dir="bench-out/quick")),
]


@pytest.mark.parametrize("flags, expected", _README_BENCH_CASES, ids=["n20", "n55", "quick"])
def test_readme_bench_commands_build_the_documented_configs(flags, expected):
    assert f"ellipsopt bench {flags}" in README.read_text(encoding="utf-8")
    assert _bench_config(build_parser().parse_args(["bench", *flags.split()])) == expected


def _limit_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_running_out_of_memory_exits_2_without_a_traceback(tmp_path):
    # the derived theory batch at m=300, n=3 (about 2.1e8 draws) needs a
    # 3 GiB draw buffer; only the child process gets the 2 GiB limit
    src = str(Path(ellipsopt.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "ellipsopt.cli", "solve", "--m", "300", "--n", "3",
            "--max-iters", "1", "--batch-size", "0", "--out-dir", str(tmp_path)]
    run = subprocess.run(argv, env=env, preexec_fn=_limit_address_space,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith("error: out of memory")
    assert run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


def test_a_memory_error_in_the_solve_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    # the same exit in process, without relying on an address-space limit
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the draw buffer")

    monkeypatch.setattr(cli, "solve", out_of_memory)
    assert main(["solve", "--m", "200", "--n", "3", "--max-iters", "1", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: cannot allocate the draw buffer")
    assert err.count("\n") == 1
    assert "Traceback" not in err
