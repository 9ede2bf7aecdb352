import inspect
from pathlib import Path

import numpy as np
import pytest

from gea import GeaSolver
from gea.cli import RUN_SETTINGS, build_parser, main, resolve_problem, run_params
from gea.harness import Benchmark, run_batch
from gea.problems import format_instance, generate_instance, load_instance


def write_line_instance(path: Path, n_customers=2) -> Path:
    """Collinear instance with known optimum 4.0 for two customers."""
    customers = tuple((float(i + 1), 0.0) for i in range(n_customers))
    from gea.problems import VrpInstance
    inst = VrpInstance("line", 1, (0.0, 0.0), customers)
    path.write_text(format_instance(inst), encoding="utf-8")
    return path


class TestGenInstance:
    def test_writes_file_that_round_trips(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen-instance", "8", "3", "1", str(out)]) == 0
        parsed = load_instance(out)
        assert parsed == generate_instance(8, 3, 1)
        assert "wrote" in capsys.readouterr().out

    def test_vehicles_exceeding_customers_exit_1(self, tmp_path, capsys):
        assert main(["gen-instance", "3", "5", "1", str(tmp_path / "x.txt")]) == 1
        assert "vehicles" in capsys.readouterr().err

    def test_unwritable_path_exit_1(self, tmp_path):
        assert main(["gen-instance", "4", "2", "1",
                     str(tmp_path / "no" / "dir" / "x.txt")]) == 1


class TestOracle:
    def test_collinear_instance_prints_4(self, tmp_path, capsys):
        path = write_line_instance(tmp_path / "line.txt")
        assert main(["oracle", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "4.0000"

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_line_instance(tmp_path / "line.txt")
        main(["oracle", str(path)])
        first = capsys.readouterr().out
        main(["oracle", str(path)])
        assert capsys.readouterr().out == first

    def test_too_large_instance_exit_1(self, tmp_path, capsys):
        inst = generate_instance(16, 2, 1)
        path = tmp_path / "big.txt"
        path.write_text(format_instance(inst), encoding="utf-8")
        assert main(["oracle", str(path)]) == 1
        assert "limited to 15 customers, got 16" in capsys.readouterr().err

    def test_suite_name_resolves(self, capsys):
        assert main(["oracle", "f1"]) == 0
        assert capsys.readouterr().out.strip() == "274.1997"

    def test_knapsack_pseudo_instance(self, capsys):
        assert main(["oracle", "knapsack:6:1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{float(out):.4f}"

    def test_knapsack_optimum_is_a_cost_like_run_reports(self, tmp_path, capsys):
        # `run` reports costs (total value - selected value); so must `oracle`
        assert main(["oracle", "knapsack:15:3"]) == 0
        optimum = capsys.readouterr().out.strip()
        assert main(["run", "--instance", "knapsack:15:3", "--runs", "3",
                     "--iters", "300", "--out", str(tmp_path / "run")]) == 0
        best = capsys.readouterr().out.split("best=")[1].split()[0]
        assert optimum == best == "53.0000"

    def test_non_finite_coordinates_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("NAME x\nVEHICLES 1\nDEPOT 0 0\nCUSTOMER 1 nan 3\n", encoding="utf-8")
        assert main(["oracle", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "customer 1 (nan, 3.0)" in captured.err

    def test_unknown_instance_exit_1(self, capsys):
        assert main(["oracle", "nope-nothing"]) == 1
        assert "nope-nothing" in capsys.readouterr().err


class TestRun:
    def test_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["run", "--variant", "gea", "--instance", "f1", "--runs", "2",
                     "--seed", "42", "--iters", "15", "--pop", "12", "--out", str(out)])
        assert code == 0
        results = (out / "results.csv").read_text().strip().splitlines()
        assert results[0] == "algorithm,instance,best,worst,mean,std"
        assert len(results) == 2 and results[1].startswith("gea,f1,")
        assert (out / "convergence.csv").exists()
        assert (out / "table.txt").exists()
        assert "gea on f1" in capsys.readouterr().out

    def test_zero_iterations_reports_initial_population_stats(self, tmp_path):
        out = tmp_path / "zero"
        code = main(["run", "--variant", "ga", "--instance", "f1", "--runs", "2",
                     "--iters", "0", "--pop", "10", "--out", str(out)])
        assert code == 0
        convergence = (out / "convergence.csv").read_text().strip().splitlines()
        assert len(convergence) == 1  # header only, no iterations

    def test_all_settings_as_flags(self, tmp_path):
        out = tmp_path / "flag-out"
        assert main(["run", "--variant", "gea1", "--instance", "knapsack:6:1", "--runs", "2",
                     "--iters", "5", "--pop", "8", "--pc", "0.5", "--pm", "0.2",
                     "--elite-fraction", "0.25", "--threshold-fraction", "0.5",
                     "--weights", "0.4,0.4,0.2", "--seed", "7", "--formats", "csv",
                     "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert not (out / "table.txt").exists()

    def test_out_defaults_to_gea_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--variant", "ga", "--instance", "knapsack:5:2",
                     "--runs", "1", "--iters", "3", "--pop", "8"]) == 0
        assert (tmp_path / "gea-out" / "results.csv").exists()

    def test_bad_variant_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--variant", "nope", "--instance", "f1"]) == 1
        assert "variant" in capsys.readouterr().err
        # rejected before any fit, so no output directory was made
        assert list(tmp_path.iterdir()) == []

    def test_instance_file_path(self, tmp_path):
        inst_path = write_line_instance(tmp_path / "line.txt")
        out = tmp_path / "o"
        assert main(["run", "--variant", "ga", "--instance", str(inst_path),
                     "--runs", "1", "--iters", "5", "--pop", "8",
                     "--out", str(out)]) == 0
        assert "line" in (out / "results.csv").read_text()


class TestBench:
    def test_reduced_grid(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--variants", "ga,gea", "--instances", "f1",
                     "--runs", "2", "--iters", "10", "--pop", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        results = (out / "results.csv").read_text().strip().splitlines()
        assert len(results) == 3
        assert (out / "intervals.csv").exists()
        assert (out / "f1.svg").exists()
        assert "<svg" in (out / "f1.svg").read_text()
        assert "ga" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["bench", "--variants", "ga,gea1", "--instances", "f1",
                "--runs", "2", "--iters", "8", "--pop", "10", "--seed", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("results.csv", "convergence.csv", "intervals.csv",
                     "table.txt", "f1.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_formats_filtering(self, tmp_path):
        out = tmp_path / "only-table"
        assert main(["bench", "--variants", "ga", "--instances", "knapsack:5:1",
                     "--runs", "1", "--iters", "4", "--pop", "8",
                     "--formats", "table", "--out", str(out)]) == 0
        assert (out / "table.txt").exists()
        assert not (out / "results.csv").exists()
        assert not list(out.glob("*.svg"))

    def test_files_with_one_name_exit_1(self, tmp_path, capsys):
        # both files say NAME same; their cells would shadow each other
        paths = []
        for seed in (1, 2):
            path = tmp_path / f"{seed}.txt"
            path.write_text(format_instance(generate_instance(5, 2, seed, name="same")),
                            encoding="utf-8")
            paths.append(str(path))
        out = tmp_path / "out"
        assert main(["bench", "--variants", "ga", "--instances", ",".join(paths),
                     "--runs", "1", "--iters", "2", "--pop", "6", "--out", str(out)]) == 1
        assert "duplicate instance names: same" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_format_rejected(self, capsys):
        assert main(["bench", "--formats", "pdf"]) == 1
        assert "pdf" in capsys.readouterr().err

    def test_run_rejects_svg_before_any_fit(self, tmp_path, capsys):
        # `run` draws no charts: svg is a usage error, not an empty --out
        out = tmp_path / "out"
        assert main(["run", "--formats", "svg", "--runs", "1", "--iters", "2",
                     "--out", str(out)]) == 1
        assert "unknown report format for run: svg" in capsys.readouterr().err
        assert not out.exists()

    def test_run_default_formats_write_csv_and_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--instance", "knapsack:5:1", "--runs", "1", "--iters", "2",
                     "--pop", "6", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "convergence.csv", "results.csv", "table.txt"]

    def test_no_format_rejected_before_any_fit(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bench", "--formats", ",", "--variants", "ga", "--instances", "f1",
                     "--runs", "1", "--iters", "2", "--out", str(out)]) == 1
        assert "no formats given" in capsys.readouterr().err
        assert not out.exists()


class TestParsing:
    def test_missing_subcommand_exit_1(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["run", "--bogus-flag", "1"]) == 1
        # settings are flags only; there is no config file to pass
        assert main(["run", "--config", "gea.cfg"]) == 1
        assert "unrecognized arguments: --config gea.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--weights", "0.5,0.5", "weights must be w1,w2,w3, got '0.5,0.5'"),
        ("--weights", "0.5,x,0.2", "weights must be numbers, got '0.5,x,0.2'"),
        ("--iters", "x", "iters must be an integer, got 'x'"),
        ("--pc", "0,8", "pc must be a number, got '0,8'"),
        ("--seed", "-1", "base_seed must be >= 0, got -1"),
    ])
    def test_bad_run_setting_named(self, flag, value, message, capsys):
        assert main(["run", "--variant", "gea", "--instance", "f1", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRunSettings:
    def test_each_names_a_library_parameter(self):
        params = (inspect.signature(run_batch).parameters.keys()
                  | inspect.signature(GeaSolver.__init__).parameters.keys())
        assert {param for param, _, _ in RUN_SETTINGS.values()} <= params

    def test_unset_settings_are_left_to_the_library(self):
        args = build_parser().parse_args(["run", "--variant", "ga", "--instance", "f2"])
        assert run_params(args) == {}

    def test_run_matches_run_batch_with_library_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--instance", "f2", "--runs", "2", "--iters", "20",
                     "--out", str(out)]) == 0
        batch = run_batch(resolve_problem("f2"), runs=2, max_iters=20)
        expected = Benchmark(("gea",), ("f2",), (batch,)).results_csv()
        assert (out / "results.csv").read_text() == expected
