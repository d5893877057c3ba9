import csv
import io
import json
import os

import pytest

from basketsim.cli import (
    CatalogError,
    build_parser,
    builtin_catalog,
    design_params_from_mapping,
    load_catalog,
    main,
    manifest_from_args,
    select_designs,
    select_scenarios,
)
from basketsim.powerprior import CppParams


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


class TestCatalog:
    def test_eighteen_scenarios_all_sum_100(self):
        catalog = builtin_catalog()
        assert len(catalog) == 18
        assert sorted(s.id for s in catalog) == list(range(1, 19))
        for s in catalog:
            assert sum(s.sample_sizes) == 100

    def test_scenario_3_high_variance_null(self):
        s = next(s for s in builtin_catalog() if s.id == 3)
        assert s.sample_sizes == (10, 10, 10, 20, 50)
        assert s.true_rates == (0.15,) * 5
        assert s.pattern == "Null"

    def test_scenario_16_small_good_nugget_linear(self):
        s = next(s for s in builtin_catalog() if s.id == 16)
        assert s.true_rates == (0.40, 0.15, 0.15, 0.15, 0.15)
        assert s.sample_sizes == (10, 15, 20, 25, 30)
        assert s.pattern == "SGN"

    def test_custom_scenario_with_excess_responses_rejected(self, tmp_path):
        config = {
            "scenarios": [{
                "id": 1, "sample_sizes": [10, 10], "true_rates": [0.2, 0.2],
                "pattern": "Null", "size_family": "Linear",
                "fixed_responses": [11, 0],
            }]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        with pytest.raises(CatalogError) as exc:
            load_catalog(str(path))
        assert "scenarios[0]" in str(exc.value)

    def test_unknown_field_named_in_error(self, tmp_path):
        config = {
            "scenarios": [{
                "id": 1, "sample_sizes": [10, 10], "true_rates": [0.2, 0.2],
                "pattern": "Null", "size_family": "Linear", "surprise": 1,
            }]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        with pytest.raises(CatalogError) as exc:
            load_catalog(str(path))
        assert "surprise" in str(exc.value)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  oops\n}")
        with pytest.raises(CatalogError) as exc:
            load_catalog(str(path))
        assert "line 2" in str(exc.value)


class TestSelection:
    def test_family_selector(self):
        grouped = select_scenarios(builtin_catalog(), "grouped")
        assert len(grouped) == 6
        assert {s.size_family for s in grouped} == {"Grouped"}

    def test_id_selector(self):
        assert [s.id for s in select_scenarios(builtin_catalog(), "7")] == [7]

    def test_bad_selector(self):
        with pytest.raises(CatalogError):
            select_scenarios(builtin_catalog(), "nonsense")
        with pytest.raises(CatalogError):
            select_scenarios(builtin_catalog(), "99")

    def test_design_selector(self):
        assert select_designs("all") == (
            "CPP", "APP", "LCPP", "Fujikawa", "BMA", "BHM", "EXNEX"
        )
        assert select_designs("fujikawa") == ("Fujikawa",)
        with pytest.raises(CatalogError):
            select_designs("XPP")

    def test_design_params_schema(self):
        assert design_params_from_mapping("CPP", {"a": 4, "b": 4.5}) == CppParams(4, 4.5)
        with pytest.raises(CatalogError):
            design_params_from_mapping("CPP", {"a": 4})
        with pytest.raises(CatalogError):
            design_params_from_mapping("BMA", {"psi": 0, "zeta": 1})


class TestCommands:
    def test_simulate_cell_cardinality(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "simulate", "--reps", "40", "--mcmc-samples", "400",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "oc.csv")
        cells = {(r["scenario_id"], r["design"]) for r in rows}
        assert len(cells) == 18 * 7
        assert len(rows) == 18 * 7 * 5

    def test_simulate_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--scenario", "grouped", "--design", "BHM",
                "--reps", "6", "--mcmc-samples", "80", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "oc.csv").read_bytes() == (out2 / "oc.csv").read_bytes()

    def test_fixed_lambda_from_config(self, tmp_path):
        config = {"designs": {"CPP": {"a": 4.0, "b": 4.5, "lambda": 0.9}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main([
            "simulate", "--config", str(path), "--scenario", "2",
            "--design", "CPP", "--reps", "5", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "oc.csv")
        assert {r["lambda"] for r in rows} == {"0.900"}

    def test_calibrate_writes_lambdas(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "calibrate", "--scenario", "grouped", "--design", "CPP",
            "--reps", "400", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "lambdas.csv")
        assert len(rows) == 1
        assert float(rows[0]["null_fwer"]) <= 0.05
        assert rows[0]["design"] == "CPP"

    def test_output_header_carries_provenance(self, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", "2", "--design", "CPP", "--reps", "5",
              "--seed", "77", "--out", str(out)])
        header = (out / "oc.csv").read_text().splitlines()[0]
        assert header.startswith("# basketsim v")
        for token in ("seed=77", "reps=5", "config_hash=", "mcmc_samples="):
            assert token in header

    def test_tune_single_combination_design(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "tune", "--scenario", "linear", "--design", "APP",
            "--reps", "60", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "tuning.csv")
        assert len(rows) == 1
        assert rows[0]["selected"] == "1"

    def test_report_tables(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--scenario", "grouped", "--design", "CPP",
              "--reps", "5", "--seed", "4", "--out", str(out)])
        assert main(["report", "--table", "ecd", "--family", "grouped",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for column in ("Null", "Alternative", "Ascending", "Descending",
                       "BGN", "SGN", "Mean"):
            assert column in text
        assert main(["report", "--table", "rejection", "--family", "grouped",
                     "--out", str(out)]) == 0
        assert "FWER" in capsys.readouterr().out
        assert main(["report", "--table", "bias", "--family", "grouped",
                     "--out", str(out)]) == 0
        assert "Basket 1" in capsys.readouterr().out

    def test_report_weights_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--table", "weights", "--out", str(out)]) == 0
        rows = read_rows(out / "weights.csv")
        assert any(r["design"] == "CPP" for r in rows)
        assert any(r["design"] == "Fujikawa" for r in rows)
        weights = [float(r["weight"]) for r in rows]
        assert all(0.0 <= w <= 1.0 for w in weights)

    def test_exit_codes(self, tmp_path):
        assert main(["simulate", "--design", "XPP", "--out", str(tmp_path)]) == 2
        assert main(["simulate", "--scenario", "99", "--out", str(tmp_path)]) == 2
        assert main(["report", "--table", "ecd", "--out", str(tmp_path / "empty")]) == 2

    def test_jobs_env_fallback(self, monkeypatch):
        from basketsim.cli import build_parser

        monkeypatch.setenv("BASKETSIM_JOBS", "3")
        args = build_parser().parse_args(["simulate"])
        assert args.jobs == 3
        monkeypatch.setenv("BASKETSIM_JOBS", "junk")
        args = build_parser().parse_args(["simulate"])
        assert args.jobs == 1

    @pytest.mark.parametrize("flags", [
        ["--reps", "0"],
        ["--reps", "-5"],
        ["--p0", "1.5"],
        ["--p0", "0"],
        ["--alpha", "0"],
        ["--mcmc-samples", "2"],
        ["--seed", "-1"],
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, flags, tmp_path, capsys):
        args = ["simulate", "--scenario", "2", "--design", "CPP", "--reps", "5"]
        assert main(args + flags + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("value", ["abc", None, [0.9], 0.0, 1.5])
    def test_bad_config_lambda_is_a_usage_error(self, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"CPP": {"a": 4, "b": 4.5, "lambda": value}}}))
        code = main(["simulate", "--config", str(path), "--scenario", "2",
                     "--design", "CPP", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "designs.CPP.lambda" in capsys.readouterr().err

    def test_jobs_clamped_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        args = build_parser().parse_args(["simulate", "--jobs", str(cpus + 1000)])
        assert manifest_from_args(args).jobs == cpus
        args = build_parser().parse_args(["simulate", "--jobs", "-3"])
        assert manifest_from_args(args).jobs == 1
