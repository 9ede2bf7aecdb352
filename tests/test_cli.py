from pathlib import Path

import numpy as np
import pytest

from gea.cli import main
from gea.problems import (format_instance, generate_instance, load_instance,
                          vrp_brute_force)


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
        inst = generate_instance(9, 2, 1)
        path = tmp_path / "big.txt"
        path.write_text(format_instance(inst), encoding="utf-8")
        assert main(["oracle", str(path)]) == 1
        assert "8" in capsys.readouterr().err

    def test_suite_name_resolves(self, capsys):
        assert main(["oracle", "f1"]) == 0
        inst = generate_instance(8, 3, 1, name="f1")
        expected = f"{vrp_brute_force(inst)[0]:.4f}"
        assert capsys.readouterr().out.strip() == expected

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

    def test_unknown_config_key_named(self, tmp_path, capsys):
        config = tmp_path / "gea.cfg"
        config.write_text("popsize = 50\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert "popsize" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "gea.cfg"
        config.write_text(
            "variant = ga\ninstance = f1\nruns = 1\niters = 4\npop = 10\n"
            f"out = {tmp_path / 'from-config'}\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--iters", "7"]) == 0
        convergence = (tmp_path / "from-config" / "convergence.csv").read_text()
        assert len(convergence.strip().splitlines()) == 1 + 7

    def test_config_file_alone_suffices(self, tmp_path):
        config = tmp_path / "gea.cfg"
        config.write_text(
            "variant = gea1\ninstance = knapsack:6:1\nruns = 2\niters = 5\npop = 8\n"
            "pc = 0.5\npm = 0.2\nelite_fraction = 0.25\nthreshold_fraction = 0.5\n"
            "weights = 0.4,0.4,0.2\nseed = 7\nformats = csv\n"
            f"out = {tmp_path / 'cfg-out'}\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "cfg-out"
        assert (out / "results.csv").exists()
        assert not (out / "table.txt").exists()

    def test_env_var_out_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEA_OUT_DIR", str(tmp_path / "env-out"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--variant", "ga", "--instance", "knapsack:5:2",
                     "--runs", "1", "--iters", "3", "--pop", "8"]) == 0
        assert (tmp_path / "env-out" / "results.csv").exists()

    def test_bad_variant_exit_1(self, capsys):
        assert main(["run", "--variant", "nope", "--instance", "f1"]) == 1
        assert "variant" in capsys.readouterr().err

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


class TestParsing:
    def test_missing_subcommand_exit_1(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["run", "--bogus-flag", "1"]) == 1

    def test_weights_flag_must_have_three_entries(self, capsys):
        assert main(["run", "--variant", "gea", "--instance", "f1",
                     "--weights", "0.5,0.5"]) == 1
        assert "weights" in capsys.readouterr().err
