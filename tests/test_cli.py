import csv
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basketsim
from basketsim import bma, cli, engine, fujikawa, hierarchical
from basketsim.cli import (
    CatalogError,
    build_parser,
    builtin_catalog,
    design_params_from_mapping,
    load_catalog,
    load_config,
    main,
    select_designs,
    select_scenarios,
)
from basketsim.powerprior import CppParams
from scalar_reference import cpp_weight


def fresh_env():
    """The environment of a fresh interpreter that imports this basketsim."""
    src = os.path.dirname(os.path.dirname(basketsim.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


def run_fresh(script, *args, env=None):
    """stdout of a Python script run in a fresh interpreter that imports this basketsim."""
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=fresh_env() if env is None else env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# the head of run_fresh scripts: after watch_workers(directory, answer), every forked
# worker records answer() (by default its pid and scipy modules) after each block it
# evaluates, in a file of its own under directory; a worker's first block waits at a
# barrier for a second worker's, so both workers of a pool of two answer
PROBE = """
import functools, json, os, sys
from multiprocessing import get_context
from basketsim import cli, engine

def scipy_modules():
    return os.getpid(), sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def threads():
    return os.getpid(), len(os.listdir("/proc/self/task"))

def watch_workers(directory, answer=scipy_modules):
    parent, waited = os.getpid(), []
    barrier = get_context("fork").Barrier(2, timeout=60)
    evaluate_block = engine._evaluate_block

    @functools.wraps(evaluate_block)  # pickled by reference as engine._evaluate_block
    def watched(args):
        if os.getpid() != parent and not waited:
            waited.append(True)
            barrier.wait()
        result = evaluate_block(args)
        if os.getpid() != parent:
            with open(os.path.join(directory, f"{os.getpid()}.json"), "a") as fh:
                fh.write(json.dumps(answer()) + "\\n")
        return result

    engine._evaluate_block = watched

def worker_answers(directory):
    answers = []
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as fh:
            answers += [tuple(json.loads(line)) for line in fh]
    return answers
"""


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


# report's three tables for a Null and a BGN scenario of three baskets, simulated under
# every design at seed 5 with 20 replicates (test_report_tables_are_pinned): byte for byte
REPORT_SCENARIOS = [{"id": i, "sample_sizes": [8, 12, 20], "true_rates": rates,
                     "pattern": pattern, "size_family": "Grouped"}
                    for i, (pattern, rates) in enumerate([("Null", [0.15, 0.15, 0.15]),
                                                          ("BGN", [0.15, 0.15, 0.4])], 1)]
REPORT_TABLES = {
    "ecd": """\
ECD, Grouped scenario
     Design         Null  Alternative    Ascending   Descending          BGN          SGN         Mean
        CPP        2.900            -            -            -        2.100            -        2.500
        APP        2.900            -            -            -        2.200            -        2.550
       LCPP        2.900            -            -            -        2.200            -        2.550
   Fujikawa        2.900            -            -            -        2.150            -        2.525
        BMA        2.900            -            -            -        2.300            -        2.600
        BHM        2.900            -            -            -        2.300            -        2.600
      EXNEX        2.900            -            -            -        2.200            -        2.550
""",
    "rejection": """\
Rejection rates, Grouped scenario
        Pattern           Design   Basket 1 (n=8)  Basket 2 (n=12)  Basket 3 (n=20)             FWER
           Null              CPP            0.050            0.000            0.050            0.050
           Null              APP            0.050            0.000            0.050            0.050
           Null             LCPP            0.050            0.000            0.050            0.050
           Null         Fujikawa            0.050            0.000            0.050            0.050
           Null              BMA            0.050            0.000            0.050            0.050
           Null              BHM            0.050            0.000            0.050            0.050
           Null            EXNEX            0.050            0.000            0.050            0.050
            BGN              CPP            0.150            0.300            0.550            0.400
            BGN              APP            0.100            0.250            0.550            0.350
            BGN             LCPP            0.100            0.250            0.550            0.350
            BGN         Fujikawa            0.150            0.300            0.600            0.400
            BGN              BMA            0.100            0.150            0.550            0.200
            BGN              BHM            0.050            0.150            0.500            0.200
            BGN            EXNEX            0.100            0.200            0.500            0.300
""",
    "bias": """\
Bias, Grouped scenario
        Pattern           Design   Basket 1 (n=8)  Basket 2 (n=12)  Basket 3 (n=20)
           Null              CPP            0.024            0.013            0.018
           Null              APP            0.038            0.018            0.021
           Null             LCPP            0.034            0.017            0.017
           Null         Fujikawa            0.053            0.041            0.044
           Null              BMA            0.023            0.017            0.018
           Null              BHM            0.008           -0.006            0.000
           Null            EXNEX            0.006           -0.007            0.002
            BGN              CPP            0.105            0.109           -0.041
            BGN              APP            0.113            0.107           -0.053
            BGN             LCPP            0.102            0.107           -0.050
            BGN         Fujikawa            0.141            0.126           -0.037
            BGN              BMA            0.131            0.114           -0.063
            BGN              BHM            0.102            0.095           -0.068
            BGN            EXNEX            0.099            0.086           -0.062
""",
}

# two scenarios under one pattern, simulated under CPP at seed 5 with 50 replicates
# (test_report_keeps_every_scenario_of_a_pattern): BGN's ECD cell is the mean of the two
# scenarios' 1.100 and 1.760, and each has its own rows, labelled with its id
SHARED_PATTERN_SCENARIOS = [{"id": i, "sample_sizes": [8, 12], "true_rates": rates,
                             "pattern": pattern, "size_family": "Grouped"}
                            for i, (pattern, rates) in enumerate([("Null", [0.15, 0.15]),
                                                                  ("BGN", [0.35, 0.35]),
                                                                  ("BGN", [0.15, 0.6])], 1)]
SHARED_PATTERN_TABLES = {
    "ecd": """\
ECD, Grouped scenario
     Design         Null  Alternative    Ascending   Descending          BGN          SGN         Mean
        CPP        1.940            -            -            -        1.430            -        1.685
""",
    "rejection": """\
Rejection rates, Grouped scenario
        Pattern           Design   Basket 1 (n=8)  Basket 2 (n=12)             FWER
           Null              CPP            0.040            0.020            0.040
         BGN #2              CPP            0.520            0.580            0.000
         BGN #3              CPP            0.040            0.800            0.040
""",
    "bias": """\
Bias, Grouped scenario
        Pattern           Design   Basket 1 (n=8)  Basket 2 (n=12)
           Null              CPP            0.045            0.029
         BGN #2              CPP            0.034            0.046
         BGN #3              CPP            0.061           -0.043
""",
}


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

    def test_family_mixing_sample_sizes_is_a_usage_error(self, tmp_path, capsys):
        # the lambda calibrated on the [10, 20] null was applied to the [40, 40] scenario
        config = {"scenarios": [
            {"id": 1, "sample_sizes": [10, 20], "true_rates": [0.15, 0.15],
             "pattern": "Null", "size_family": "Linear"},
            {"id": 2, "sample_sizes": [40, 40], "true_rates": [0.4, 0.15],
             "pattern": "SGN", "size_family": "Linear"},
        ]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--design", "CPP", "--reps", "20",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: size family Linear ") and err.count("\n") == 1
        assert "scenario 1 " in err and "scenario 2 " in err
        assert not (tmp_path / "oc.csv").exists()

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

    def test_parallel_simulate_builds_tables_once_per_family(self, tmp_path):
        hierarchical._TABLES.clear()  # start with an empty table cache
        before = hierarchical.table_builds
        assert main(["simulate", "--scenario", "all", "--design", "BHM", "--reps", "8",
                     "--seed", "2", "--jobs", "2", "--out", str(tmp_path)]) == 0
        families = {s.size_family for s in builtin_catalog()}
        assert hierarchical.table_builds - before == len(families)

    @pytest.mark.parametrize("command,banks", [("simulate", 18), ("calibrate", 3), ("tune", 18)])
    def test_each_bank_is_generated_once(self, command, banks, monkeypatch, tmp_path):
        # every study and grid search used to generate its family's banks again: 126, 21
        # and 126 banks for the seven designs on the three families
        generated = []  # the scenario id of each bank
        generate = engine.generate_responses

        def counted(scenario, *args):
            generated.append(scenario.id)
            return generate(scenario, *args)

        monkeypatch.setattr(engine, "generate_responses", counted)
        # the first point of each grid: which banks a search reads does not depend on its grid
        for design, spec in engine.REGISTRY.items():
            monkeypatch.setitem(engine.REGISTRY, design,
                                dataclasses.replace(spec, grid=spec.grid[:1]))
        # at seed 3 every design finds a threshold with no family-wise error in 5 replicates
        assert main([command, "--scenario", "all", "--design", "all", "--reps", "5",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        assert len(generated) == len(set(generated)) == banks

    def test_shared_table_matches_single_design_runs(self, tmp_path):
        # each design reads its family's one table, null rows included for a fixed lambda
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"CPP": {"a": 4.0, "b": 4.5, "lambda": 0.8125}}}))
        args = ["simulate", "--config", str(path), "--scenario", "grouped", "--reps", "40",
                "--seed", "7"]

        def data_rows(design):
            out = tmp_path / design
            assert main(args + ["--design", design, "--out", str(out)]) == 0
            return (out / "oc.csv").read_text().splitlines()[1:]  # the header hashes --design

        shared = data_rows("all")
        single = [data_rows(design) for design in engine.DESIGNS]
        assert shared == single[0][:1] + [row for rows in single for row in rows[1:]]
        assert {row.split(",")[11] for row in single[0][1:]} == {"0.8125"}

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

    def test_off_grid_fixed_lambda_is_written_exactly(self, tmp_path):
        # a lambda off the 0.001 grid was written rounded: 0.8125 as 0.812
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"CPP": {"a": 4.0, "b": 4.5, "lambda": 0.8125}}}))
        assert main(["simulate", "--config", str(path), "--scenario", "2", "--design", "CPP",
                     "--reps", "5", "--out", str(tmp_path)]) == 0
        assert {r["lambda"] for r in read_rows(tmp_path / "oc.csv")} == {"0.8125"}

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

    def test_calibrate_ignores_a_fixed_lambda(self, tmp_path):
        # calibrate always calibrates; keeping the config's lambda wrote 0.500
        rows = {}
        for name, entry in (("fixed", {"a": 4, "b": 4.5, "lambda": 0.5}),
                            ("free", {"a": 4, "b": 4.5})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"designs": {"CPP": entry}}))
            out = tmp_path / name
            assert main(["calibrate", "--config", str(path), "--scenario", "grouped",
                         "--design", "CPP", "--reps", "300", "--seed", "3",
                         "--out", str(out)]) == 0
            rows[name] = read_rows(out / "lambdas.csv")
        assert rows["fixed"] == rows["free"]
        assert rows["fixed"][0]["lambda"] != "0.500"
        assert float(rows["fixed"][0]["null_fwer"]) <= 0.05

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "tune"])
    def test_config_is_read_once(self, command, monkeypatch, tmp_path):
        reads = []

        def counted(path):
            reads.append(path)
            return load_config(path)

        monkeypatch.setattr(cli, "load_config", counted)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"APP": {}}}))
        assert main([command, "--config", str(path), "--scenario", "linear", "--design",
                     "APP", "--reps", "20", "--out", str(tmp_path)]) == 0
        assert reads == [str(path)]

    @pytest.mark.parametrize("command", [["simulate"], ["calibrate"], ["tune"],
                                         ["report", "--table", "weights"]],
                             ids=["simulate", "calibrate", "tune", "report-weights"])
    def test_missing_config_is_a_usage_error(self, command, tmp_path, capsys):
        # report used to hash the config only when writing, and so named its own output
        # as the file it could not write, leaving an empty weights.csv behind
        missing = tmp_path / "missing.json"
        code = main([*command, "--config", str(missing), "--scenario", "2", "--design",
                     "CPP", "--reps", "5", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {missing}: ")
        assert err.count("\n") == 1
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    def test_config_rewritten_during_a_run_keeps_the_parsed_hash(self, command, monkeypatch,
                                                                  tmp_path):
        # the header used to hash the file as it stood when the CSV was written
        path = tmp_path / "cfg.json"
        config = json.dumps({"designs": {"CPP": {"a": 4.0, "b": 4.5}}})
        args = [command, "--config", str(path), "--scenario", "grouped", "--design", "CPP",
                "--reps", "20", "--seed", "3"]
        headers = []
        for rewrite in (False, True):
            path.write_text(config)
            if rewrite:
                study = cli.study

                def rewriting(*study_args):
                    path.write_text(json.dumps({"designs": {"CPP": {"a": 1.0, "b": 1.0}}}))
                    return study(*study_args)

                monkeypatch.setattr(cli, "study", rewriting)
            out = tmp_path / str(rewrite)
            assert main(args + ["--out", str(out)]) == 0
            headers.append(next(out.glob("*.csv")).read_text().splitlines()[0])
        assert headers[0] == headers[1]
        assert path.read_text() != config  # the rewrite happened

    def test_output_header_carries_provenance(self, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", "2", "--design", "CPP", "--reps", "5",
              "--seed", "77", "--out", str(out)])
        header = (out / "oc.csv").read_text().splitlines()[0]
        assert header.startswith("# basketsim v")
        for token in ("seed=77", "reps=5", "config_hash="):
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

    @pytest.mark.parametrize("design", ["CPP", "Fujikawa", "BMA", "BHM"])
    def test_tune_jobs_fan_out_and_keep_every_byte(self, design, monkeypatch, tmp_path):
        # tune used to ignore --jobs and run every block in the parent
        pools = []

        class Counted(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", Counted)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["tune", "--scenario", "linear", "--design", design, "--reps", "30",
                         "--seed", "3", "--jobs", jobs, "--out", str(out)]) == 0
            outputs.append((out / "tuning.csv").read_bytes())
        assert outputs[0] == outputs[1]
        if (os.cpu_count() or 1) >= 2:
            assert pools and set(pools) == {2}

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

    def test_report_tables_are_pinned(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenarios": REPORT_SCENARIOS}))
        args = ["--config", str(config), "--out", str(tmp_path)]
        assert main(["simulate", "--design", "all", "--reps", "20", "--seed", "5", *args]) == 0
        for table, text in REPORT_TABLES.items():
            assert main(["report", "--table", table, "--family", "grouped", *args]) == 0
            assert capsys.readouterr().out == text

    def test_report_keeps_every_scenario_of_a_pattern(self, tmp_path, capsys):
        # report used to keep only the last scenario of each pattern
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenarios": SHARED_PATTERN_SCENARIOS}))
        args = ["--config", str(config), "--out", str(tmp_path)]
        assert main(["simulate", "--design", "CPP", "--reps", "50", "--seed", "5", *args]) == 0
        for table, text in SHARED_PATTERN_TABLES.items():
            assert main(["report", "--table", table, "--family", "grouped", *args]) == 0
            assert capsys.readouterr().out == text

    def test_tune_and_report_share_one_mean_ecd(self, tmp_path, capsys):
        # tune's mean ECD used to average scenarios, report's Mean the patterns: with two
        # BGN scenarios no tuning.csv row's mean_ecd was the mean of its own pattern columns
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenarios": SHARED_PATTERN_SCENARIOS}))
        args = ["--config", str(config), "--reps", "50", "--seed", "5", "--out", str(tmp_path)]
        assert main(["tune", "--design", "all", *args]) == 0
        rows = [r for r in read_rows(tmp_path / "tuning.csv") if r["lambda"]]
        assert len(rows) == 334
        for row in rows:
            ecds = [float(v) for k, v in row.items() if k.startswith("ecd_") and v]
            assert len(ecds) == 2
            assert float(row["mean_ecd"]) == pytest.approx(sum(ecds) / 2, abs=1e-6)
        [selected] = [r for r in rows if r["design"] == "CPP" and r["selected"] == "1"]
        config.write_text(json.dumps({"scenarios": SHARED_PATTERN_SCENARIOS, "designs": {
            "CPP": json.loads(selected["param_json"])}}))
        assert main(["simulate", "--design", "CPP", *args]) == 0
        assert main(["report", "--table", "ecd", "--family", "grouped", *args]) == 0
        cpp = capsys.readouterr().out.splitlines()[-1].split()
        assert cpp[0] == "CPP" and cpp[-1] == f"{float(selected['mean_ecd']):.3f}"

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "tune", "report"])
    def test_selecting_no_scenario_is_a_usage_error(self, command, tmp_path, capsys):
        # a family with no scenario in the catalog, or no rows in oc.csv, used to write a
        # CSV of its header alone, or print table headers, with exit 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenarios": REPORT_SCENARIOS}))
        args = ["--config", str(config), "--design", "CPP", "--reps", "5", "--out", str(tmp_path)]
        if command == "report":
            assert main(["simulate", *args]) == 0
            code = main(["report", "--family", "linear", *args])
            message = f"error: {tmp_path / 'oc.csv'} holds no Linear rows\n"
        else:
            code = main([command, "--scenario", "linear", *args])
            message = "error: no scenario in size family Linear\n"
            assert not list(tmp_path.glob("*.csv"))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""

    def test_report_weights_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--table", "weights", "--out", str(out)]) == 0
        rows = read_rows(out / "weights.csv")
        weights = [float(r["weight"]) for r in rows]
        assert all(0.0 <= w <= 1.0 for w in weights)
        cpp = [r for r in rows if r["design"] == "CPP"]
        fujikawa = [r for r in rows if r["design"] == "Fujikawa"]
        assert (len(cpp), len(fujikawa)) == (9 * 101, 4 * 101)
        for r in cpp:
            # basket k has no responses, so the statistic is basket i's rate
            params = CppParams(**json.loads(r["param_json"]))
            n_k, n_i = int(r["n_k"]), int(r["n_i"])
            r_i = round(float(r["statistic"]) * n_i)
            expected = cpp_weight((0, n_k), (r_i, n_i), params)
            assert abs(float(r["weight"]) - expected) <= 5e-7, r
        for r in fujikawa:
            epsilon = json.loads(r["param_json"])["epsilon"]
            expected = (1.0 - float(r["statistic"])) ** epsilon
            assert abs(float(r["weight"]) - expected) <= 5e-7, r

    def test_exit_codes(self, tmp_path):
        assert main(["simulate", "--design", "XPP", "--out", str(tmp_path)]) == 2
        assert main(["simulate", "--scenario", "99", "--out", str(tmp_path)]) == 2
        assert main(["report", "--table", "ecd", "--out", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize("target", ["afile", os.path.join("afile", "sub")],
                             ids=["existing-file", "under-a-file"])
    def test_uncreatable_out_is_a_usage_error(self, target, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        code = main(["simulate", "--scenario", "2", "--design", "CPP", "--reps", "5",
                     "--out", str(tmp_path / target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create --out ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["simulate", "--scenario", "2", "--design", "CPP", "--reps", "10"], ["report"]])
    def test_output_path_that_is_a_directory_is_a_usage_error(self, command, tmp_path, capsys):
        # both used to end in a traceback from IsADirectoryError and exit 1
        (tmp_path / "oc.csv").mkdir()
        assert main([*command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and str(tmp_path / "oc.csv") in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "# a comment only\n", "4,Grouped,Null\n",
                                      "design,pattern\nCPP,Null\n"],
                             ids=["empty", "comments-only", "headerless", "other-columns"])
    def test_report_on_a_foreign_csv_is_a_usage_error(self, text, tmp_path, capsys):
        (tmp_path / "oc.csv").write_text(text)
        assert main(["report", "--table", "ecd", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lacks the oc.csv columns" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("column, table", [
        ("basket_index", "bias"), ("rejection_rate", "rejection"), ("bias", "bias"),
        ("ecd_mean", "ecd"), ("fwer", "rejection"),
    ])
    def test_report_on_a_non_numeric_field_is_a_usage_error(self, column, table, tmp_path,
                                                              capsys):
        assert main(["simulate", "--scenario", "grouped", "--design", "CPP", "--reps", "5",
                     "--seed", "4", "--out", str(tmp_path)]) == 0
        path = tmp_path / "oc.csv"
        lines = path.read_text().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        row = next(csv.reader([lines[header + 1]]))  # basket 1 of the first scenario
        row[next(csv.reader([lines[header]])).index(column)] = "one"
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerow(row)
        lines[header + 1] = text.getvalue()
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["report", "--table", table, "--family", "grouped",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} line {header + 2}, column {column}: ")
        assert err.count("\n") == 1

    def test_jobs_defaults_to_one(self, monkeypatch):
        # --jobs is the one way to set the worker count; the environment is not read
        monkeypatch.setenv("BASKETSIM_JOBS", "3")
        assert build_parser().parse_args(["simulate"]).jobs == 1

    @pytest.mark.parametrize("flags", [
        ["--reps", "0"],
        ["--reps", "-5"],
        ["--p0", "1.5"],
        ["--p0", "0"],
        ["--alpha", "0"],
        ["--alpha", "1"],
        ["--seed", "-1"],
        ["--reps", str(2**32)],
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, flags, tmp_path, capsys):
        args = ["simulate", "--scenario", "2", "--design", "CPP", "--reps", "5"]
        assert main(args + flags + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("value", ["abc", None, [0.9], 0.0, 1.5,
                                       float("nan"), float("inf"), True])
    def test_bad_config_lambda_is_a_usage_error(self, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"CPP": {"a": 4, "b": 4.5, "lambda": value}}}))
        code = main(["simulate", "--config", str(path), "--scenario", "2",
                     "--design", "CPP", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "designs.CPP.lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("design, raw, field", [
        ("BMA", {"psi": float("nan"), "lambda": 0.9}, "psi"),
        ("BHM", {"phi": float("inf"), "lambda": 0.9}, "phi"),
        ("CPP", {"a": float("nan"), "b": 4.5}, "a"),
        ("LCPP", {"a": 3, "b": float("inf")}, "b"),
        ("Fujikawa", {"epsilon": float("inf"), "tau": 0.2}, "epsilon"),
        ("EXNEX", {"phi": "0.661", "q": 0.9}, "phi"),
        ("BMA", {"psi": True}, "psi"),
        ("EXNEX", {"phi": 0.661, "q": -math.inf}, "q"),
    ], ids=["nan", "infinity", "nan-cpp", "infinity-lcpp", "infinity-fujikawa", "string",
            "bool", "negative-infinity"])
    def test_bad_config_param_is_a_usage_error(self, design, raw, field, tmp_path, capsys):
        # json reads NaN and Infinity; they used to run to nan output or a numeric failure
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {design: raw}}))
        code = main(["simulate", "--config", str(path), "--scenario", "2",
                     "--design", design, "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: designs.{design}.{field}: ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("field, values, where", [
        ("sample_sizes", [10.7, 15, 20, 25, 30], "sample_sizes[0]"),
        ("sample_sizes", [10, 15, 20, 25, True], "sample_sizes[4]"),
        ("fixed_responses", [2.9, 0, 0, 0, 0], "fixed_responses[0]"),
        ("true_rates", [0.15, 0.15, "0.15", 0.15, 0.15], "true_rates[2]"),
    ], ids=["float-size", "bool-size", "float-response", "string-rate"])
    def test_bad_scenario_counts_are_a_usage_error(self, field, values, where, tmp_path,
                                                   capsys):
        # 10.7 and true used to be truncated to 10 and 1, and 2.9 to 2
        scenario = {"id": 1, "sample_sizes": [10, 15, 20, 25, 30], "true_rates": [0.15] * 5,
                    "pattern": "Null", "size_family": "Linear", field: values}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [scenario]}))
        code = main(["simulate", "--config", str(path), "--design", "CPP",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenarios[0].{where}: ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    def test_bma_beyond_the_basket_cap_is_a_usage_error(self, tmp_path):
        # the bank used to enumerate all Bell(13) = 27,644,437 partitions before the
        # cap was checked; a fresh process with a timeout, so a hang fails the test
        scenario = {"id": 1, "sample_sizes": [5] * 13, "true_rates": [0.15] * 13,
                    "pattern": "Null", "size_family": "Linear"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [scenario]}))
        src = os.path.dirname(os.path.dirname(basketsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "basketsim.cli", "simulate", "--config", str(path),
             "--design", "BMA", "--reps", "5", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith("error: partition enumeration supports 2..12 baskets")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    def test_bma_beyond_its_memory_bound_is_a_usage_error(self, tmp_path):
        # blocks are sized to the bound, so only a row that alone passes it is refused: one
        # row of twelve baskets needs about 1.2 GB of BMA statistics; under a 2 GiB address
        # space a bank past the bound used to end in a MemoryError traceback, exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [{
            "id": 1, "sample_sizes": [10] * 12, "true_rates": [0.15] * 12,
            "pattern": "Null", "size_family": "Linear"}]}))
        limit = 2 << 30
        done = subprocess.run(
            [sys.executable, "-m", "basketsim.cli", "simulate", "--config", str(path),
             "--design", "BMA", "--reps", "1000", "--out", str(tmp_path)],
            env=fresh_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: BMA over 12 baskets needs ")
        assert "bytes" in done.stderr and done.stderr.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    def test_bma_pooled_count_tables_over_the_bound_are_a_usage_error(self, monkeypatch,
                                                                     tmp_path, capsys):
        # two baskets of 10^7 patients pool 4e7 table entries, whose build used to end in an
        # allocation error of 916 MiB, exit 1; their bytes are checked before anything is built
        monkeypatch.setattr(bma, "_model_space", lambda k: pytest.fail("enumerated"))
        scenario = {"id": 1, "sample_sizes": [10 ** 7] * 2, "true_rates": [0.15, 0.15],
                    "pattern": "Null", "size_family": "Linear"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [scenario]}))
        code = main(["simulate", "--config", str(path), "--design", "BMA",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BMA pooled-count tables of sample sizes "
                              "[10000000, 10000000] need 8640000648 bytes > ")
        assert err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    def test_bma_blocks_fit_the_memory_bound_at_every_jobs(self, monkeypatch, tmp_path):
        # blocks used to be sized by rows alone, so whether a table passed the bound
        # depended on --jobs: one block of every row at 1 job, two smaller ones at 2
        monkeypatch.setattr(bma, "MAX_TABLE_BYTES", 50 * 24 * 6 * bma.BELL[6])  # 50 rows
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [{
            "id": 1, "sample_sizes": [10] * 6, "true_rates": [0.15] * 6,
            "pattern": "Null", "size_family": "Linear"}]}))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["simulate", "--config", str(path), "--design", "BMA", "--reps", "200",
                         "--seed", "3", "--jobs", jobs, "--out", str(out)]) == 0
            outputs.append((out / "oc.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_posterior_without_finite_mass_is_a_numeric_failure(self, tmp_path, capsys,
                                                                 monkeypatch):
        # every replicate is (0, 30), and a fake table build sets the mass of r = 0 to 0
        # at every grid node, as only baskets of about 1,000 patients underflow it: the
        # nan tails used to surface as a calibration failure that named no data set
        integrals = hierarchical._integrals

        def massless_r0(*args):
            tables = integrals(*args)
            for table in tables.values():
                table[0, 0] = 0.0
            return tables

        monkeypatch.setattr(hierarchical, "_TABLES", {})
        monkeypatch.setattr(hierarchical, "_integrals", massless_r0)
        scenario = {"id": 1, "sample_sizes": [30, 30], "true_rates": [0.15, 0.15],
                    "pattern": "Null", "size_family": "Grouped", "fixed_responses": [0, 30]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [scenario]}))
        code = main(["simulate", "--config", str(path), "--design", "BHM",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: BHM posterior of responses [0, 30] ")
        assert err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    def test_jsd_rule_over_the_node_bound_is_a_numeric_failure(self, tmp_path, capsys):
        # two baskets of 10^12 patients need a JSD rule of ~5e7 nodes, which used to end
        # in a ~400 MiB allocation; the rule's size is checked before any node is built
        scenario = {"id": 1, "sample_sizes": [10 ** 12] * 2, "true_rates": [0.15, 0.15],
                    "pattern": "Null", "size_family": "Linear"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [scenario]}))
        code = main(["simulate", "--config", str(path), "--design", "Fujikawa",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: JSD of Beta(")
        assert f"more than {fujikawa.MAX_RULE_NODES} nodes" in err and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"designs": {"CPP": {"a": 4, "b": 4.5}}, "note": "\xff"}', "is not UTF-8 text"),
        (b'{"scenarios": 5}', "scenarios must be a list"),
        (b'{"designs": [1]}', "designs: expected an object"),
        (b'{"designs": {"CPP": 5}}', "designs.CPP: expected an object"),
        # a falsy designs value used to read as no designs, and the run went on
        (b'{"designs": []}', "designs: expected an object"),
        (b'{"designs": null}', "designs: expected an object"),
        (b'{"designs": 0}', "designs: expected an object"),
        (b'{"designs": false}', "designs: expected an object"),
        (b'{"designs": ""}', "designs: expected an object"),
        # an empty catalog used to write an oc.csv of its header alone
        (b'{"scenarios": []}', "scenarios is an empty list"),
    ], ids=["not-utf8", "scenarios-not-a-list", "designs-not-an-object",
            "design-not-an-object", "designs-empty-list", "designs-null", "designs-zero",
            "designs-false", "designs-empty-string", "scenarios-empty"])
    def test_malformed_config_is_a_usage_error(self, content, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code = main(["simulate", "--config", str(path), "--scenario", "2",
                     "--design", "CPP", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "tune"])
    def test_config_entry_naming_no_design_is_a_usage_error(self, command, tmp_path, capsys):
        # a lowercase "cpp" used to be ignored, and the tuned CPP preset calibrated instead
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"cpp": {"a": 1, "b": 1, "lambda": 0.5}}}))
        code = main([command, "--config", str(path), "--scenario", "2",
                     "--design", "CPP", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: designs.cpp: unknown design") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "tune"])
    def test_unknown_top_level_config_key_is_a_usage_error(self, command, tmp_path, capsys):
        # a misspelled "designs" used to be ignored, and the tuned CPP preset calibrated instead
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"desings": {"CPP": {"a": 1, "b": 1, "lambda": 0.5}}}))
        code = main([command, "--config", str(path), "--scenario", "2",
                     "--design", "CPP", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'desings'" in err and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("psi", [1e308, -1e308])
    def test_overflowing_bma_psi_is_a_usage_error(self, psi, tmp_path, capsys):
        # C * psi overflowed to inf, and inf - inf wrote nan with exit 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {"BMA": {"psi": psi, "lambda": 0.9}}}))
        code = main(["simulate", "--config", str(path), "--scenario", "2",
                     "--design", "BMA", "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: designs.BMA.psi ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("design, raw", [("BHM", {"phi": 1e308, "lambda": 0.9}),
                                             ("EXNEX", {"phi": 1e308, "q": 0.9})])
    def test_overflowing_phi_is_a_usage_error(self, design, raw, tmp_path, capsys):
        # sigma = phi * s squared overflowed to inf, and the rates were written with exit 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"designs": {design: raw}}))
        code = main(["simulate", "--config", str(path), "--scenario", "2",
                     "--design", design, "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: designs.{design}.phi ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    def test_oversized_quadrature_tables_are_a_usage_error(self, design, tmp_path):
        # sizes [100000, 5] need about 50 GB of tables, which used to be attempted; under a
        # 2 GiB address space that ended in a MemoryError or ran past the timeout
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [{
            "id": 1, "sample_sizes": [100000, 5], "true_rates": [0.15, 0.15],
            "pattern": "Null", "size_family": "Linear"}]}))
        limit = 2 << 30
        done = subprocess.run(
            [sys.executable, "-m", "basketsim.cli", "simulate", "--config", str(path),
             "--design", design, "--reps", "5", "--out", str(tmp_path)],
            env=fresh_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "[100000, 5]" in done.stderr and "bytes" in done.stderr
        assert not (tmp_path / "oc.csv").exists()

    def test_report_on_a_non_utf8_csv_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "oc.csv").write_bytes(b"scenario_id,size_family\n\xff\xfe\n")
        assert main(["report", "--table", "ecd", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not UTF-8 text" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sid", [-3, 1.7, True, "1", None])
    def test_bad_scenario_id_is_a_usage_error(self, sid, tmp_path, capsys):
        # 1.7 and true used to be truncated to id 1, and -3 to reach numpy's SeedSequence
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [{
            "id": sid, "sample_sizes": [10, 15, 20, 25, 30], "true_rates": [0.15] * 5,
            "pattern": "Null", "size_family": "Linear",
        }]}))
        code = main(["simulate", "--config", str(path), "--design", "CPP",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenarios[0].id: ") and err.count("\n") == 1
        assert not (tmp_path / "oc.csv").exists()

    def test_large_scenario_id_and_seed_are_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [{
            "id": 2**40 + 1, "sample_sizes": [10, 15, 20, 25, 30],
            "true_rates": [0.15] * 5, "pattern": "Null", "size_family": "Linear",
        }]}))
        assert main(["simulate", "--config", str(path), "--design", "CPP",
                     "--reps", "20", "--seed", str(2**70 + 3), "--out", str(tmp_path)]) == 0
        assert load_catalog(str(path))[0].id == 2**40 + 1

    def test_duplicate_scenario_id_is_a_usage_error(self, tmp_path, capsys):
        # two scenarios sharing id 1 would share data streams and null tails
        scenario = {"id": 1, "sample_sizes": [10, 15, 20, 25, 30],
                    "pattern": "Null", "size_family": "Linear"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": [
            {**scenario, "true_rates": [0.15] * 5},
            {**scenario, "true_rates": [0.35] * 5, "pattern": "Alternative"},
        ]}))
        code = main(["simulate", "--config", str(path), "--design", "CPP",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "scenarios[1].id" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    def test_jobs_clamped_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        args = build_parser().parse_args(["simulate", "--jobs", str(cpus + 1000)])
        cli._check_args(args)
        assert args.jobs == cpus
        args = build_parser().parse_args(["simulate", "--jobs", "-3"])
        cli._check_args(args)
        assert args.jobs == 1


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts a process's threads in /proc/self/task")
class TestOneBlasThread:
    """basketsim sets BLAS to one thread before numpy loads, so --jobs N bounds the cores
    a run uses to N. The test process has imported basketsim, so its environment already
    carries the setting; each fresh process here starts without it."""

    def env(self, **variables):
        env = {k: v for k, v in fresh_env().items() if k not in BLAS_THREADS}
        return {**env, **variables}

    def test_importing_the_cli_keeps_blas_on_one_thread(self):
        script = PROBE + """
import numpy as np
a = np.ones((300, 300))
a @ a
print(threads()[1])
"""
        assert run_fresh(script, env=self.env()).split() == ["1"]

    def test_each_worker_runs_one_thread(self, tmp_path):
        watched = tmp_path / "answers"
        watched.mkdir()
        script = PROBE + f"""
watch_workers({str(watched)!r}, threads)
assert cli.main(sys.argv[1:]) == 0
print(json.dumps(worker_answers({str(watched)!r})))
"""
        out = run_fresh(script, "simulate", "--scenario", "grouped", "--design", "BHM",
                        "--reps", "8", "--seed", "4", "--jobs", "2", "--out", str(tmp_path),
                        env=self.env())
        answers = json.loads(out)
        assert answers and {count for _, count in answers} == {1}
        if (os.cpu_count() or 1) >= 2:
            assert len({pid for pid, _ in answers}) == 2

    def test_a_callers_setting_is_kept(self):
        script = "import os, basketsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_fresh(script, env=self.env(OPENBLAS_NUM_THREADS="2")).split() == ["2"]

    def test_no_public_name_added(self):
        assert "os" not in basketsim.__all__


class TestScipyStaysOut:
    """scipy costs about 0.3 s to import; no basketsim process needs it, only the tests'
    oracles do."""

    def test_source_imports_no_scipy(self):
        src = os.path.dirname(basketsim.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    text = fh.read()
                assert "import scipy" not in text and "from scipy" not in text, name

    def test_importing_the_cli_loads_no_scipy(self):
        assert run_fresh(PROBE + "print(len(scipy_modules()[1]))").split() == ["0"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    def test_hierarchical_simulate_loads_no_scipy(self, design, jobs, tmp_path):
        watched = tmp_path / "answers"
        watched.mkdir()
        script = PROBE + f"""
watch_workers({str(watched)!r})
assert cli.main(sys.argv[1:]) == 0
answers = [scipy_modules()] + worker_answers({str(watched)!r})
print(len({{pid for pid, _ in answers}}), sum(len(modules) for _, modules in answers))
"""
        out = run_fresh(script, "simulate", "--scenario", "grouped", "--design", design,
                        "--reps", "8", "--seed", "4", "--jobs", jobs, "--out", str(tmp_path))
        processes, scipy_modules = map(int, out.split())
        assert scipy_modules == 0
        if jobs == "2" and (os.cpu_count() or 1) >= 2:
            assert processes == 3  # the parent and both workers answered

    @pytest.mark.parametrize("design", engine.DESIGNS)
    def test_no_process_loads_scipy(self, design, tmp_path):
        # simulate, calibrate and tune fan out over a pool of two
        watched = tmp_path / "answers"
        watched.mkdir()
        script = PROBE + f"""
watch_workers({str(watched)!r})
for command in ("simulate", "calibrate", "tune"):
    assert cli.main([command, *sys.argv[1:]]) == 0
answers = [scipy_modules()] + worker_answers({str(watched)!r})
print(len({{pid for pid, _ in answers}}), sum(len(modules) for _, modules in answers))
"""
        out = run_fresh(script, "--scenario", "grouped", "--design", design, "--reps", "8",
                        "--seed", "4", "--jobs", "2", "--out", str(tmp_path))
        processes, scipy_modules = map(int, out.split())
        assert scipy_modules == 0
        if (os.cpu_count() or 1) >= 2:
            assert processes >= 3  # the parent and at least two workers answered


def _edges(lo, hi, typical):
    """A parameter's bounds, the floats just inside them and one typical value; an open
    bound itself lies outside the range, so drawing it tests the refusal.  Each value
    inside is three times as likely as a bound, so most runs get past the checks."""
    inside = [math.nextafter(lo, hi), math.nextafter(hi, lo), typical]
    return st.sampled_from(inside * 3 + [lo, hi])


_MAX = sys.float_info.max
# each design's config fields, drawn at and just inside their bounds
_FIELDS = {
    "CPP": {"a": _edges(-_MAX, _MAX, 4.0), "b": _edges(0.0, _MAX, 4.5)},
    "APP": {},
    "Fujikawa": {"epsilon": _edges(0.0, _MAX, 2.0), "tau": _edges(0.0, 1.0, 0.2)},
    "BMA": {"psi": _edges(-bma.MAX_PSI, bma.MAX_PSI, 0.0)},
    "BHM": {"phi": _edges(hierarchical.MIN_PHI, hierarchical.MAX_PHI, 0.661)},
    "EXNEX": {"phi": _edges(hierarchical.MIN_PHI, hierarchical.MAX_PHI, 0.661),
              "q": _edges(0.0, 1.0, 0.5)},
}
_UNIT = _edges(0.0, 1.0, 0.15)  # --p0, --alpha and lambda


@st.composite
def cli_runs(draw):
    """The argv and config of one simulate run: K from 2 to 12, sizes from 1 to 10^9, a
    null at rates 0 and p0 and an alternative at 0, 1 and between, one design at its
    bounds, and extreme --p0 and --alpha."""
    k = draw(st.integers(2, 12))
    size = st.one_of(st.integers(1, 30), st.sampled_from([1, 10 ** 9]), st.integers(1, 10 ** 9))
    sizes = draw(st.lists(size, min_size=k, max_size=k))
    p0, alpha = draw(_UNIT), draw(_UNIT)
    null = draw(st.lists(st.sampled_from([0.0, p0]), min_size=k, max_size=k))
    alternative = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, p0]), st.floats(0.0, 1.0)),
                                min_size=k, max_size=k))
    design = draw(st.sampled_from(sorted(_FIELDS)))
    params = {name: draw(values) for name, values in _FIELDS[design].items()}
    if draw(st.booleans()):
        params["lambda"] = draw(_UNIT)
    config = {"scenarios": [
        {"id": i, "sample_sizes": sizes, "true_rates": rates, "pattern": pattern,
         "size_family": "Linear"}
        for i, (rates, pattern) in enumerate([(null, "Null"), (alternative, "Alternative")])],
        "designs": {design: params}}
    argv = ["--design", design, "--reps", str(draw(st.integers(1, 4))), "--p0", repr(p0),
            "--alpha", repr(alpha), "--seed", str(draw(st.integers(0, 2 ** 32)))]
    return argv, config


class TestContractOverTheInputSpace:
    """The README's exit contract on drawn inputs: 0, 2 for a usage error or 3 for a
    numeric failure, each failure on one stderr line, and never a traceback or a warning."""

    LIMIT = 3 << 30  # each child's address space

    def simulate(self, argv, config) -> subprocess.CompletedProcess:
        """A simulate run under -W error in a fresh interpreter with its address space capped."""
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            return subprocess.run(
                [sys.executable, "-W", "error", "-m", "basketsim.cli", "simulate",
                 "--config", path, "--out", out, *argv],
                env=fresh_env(), capture_output=True, text=True, timeout=120,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                      (self.LIMIT, self.LIMIT)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=cli_runs())
    def test_simulate_keeps_the_exit_contract(self, run):
        done = self.simulate(*run)
        assert done.returncode in (0, 2, 3), done.stderr
        assert "Traceback" not in done.stderr
        if done.returncode:
            assert done.stderr.count("\n") == 1, done.stderr
        else:
            assert done.stderr == ""

    @pytest.mark.parametrize("phi, code", [(5e-324, 2), (hierarchical.MIN_PHI, 0)])
    def test_tiny_phi_keeps_the_exit_contract(self, phi, code):
        # phi = 5e-324 rounded sigma = phi * s to 0 and divided by it in the quadrature
        done = self.simulate(["--scenario", "grouped", "--design", "BHM", "--reps", "20",
                              "--seed", "7"], {"designs": {"BHM": {"phi": phi}}})
        assert done.returncode == code, done.stderr
        if code:
            assert done.stderr.startswith("error: designs.BHM.phi ")
            assert done.stderr.count("\n") == 1, done.stderr
        else:
            assert done.stderr == ""
