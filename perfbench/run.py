"""Benchmark of the basketsim study commands, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-closed --seed 1 --seconds 15 --trace 0

Each workload is a fixed set of ``basketsim`` CLI invocations (one round);
the benchmark repeats whole rounds until ``--seconds`` have passed, checks
every output cell against ``oracle.py`` and prints one JSON object as the
last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced rounds with rounds run under
``tracer.py`` and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MCMC_SAMPLES = 10_000
SAMPLER_CHECK_REPLICATES = 6  # per scenario, for the grid-integration oracle


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    designs: tuple[str, ...]
    reps: int
    jobs: int
    n_scenarios: int
    grid_points: tuple[int, ...] = ()

    def evaluations(self) -> int:
        """Data sets analysed per round: design (or grid point) x scenario x replicate."""
        per_scenario = sum(self.grid_points) if self.grid_points else len(self.designs)
        return per_scenario * self.n_scenarios * self.reps


WORKLOADS = {
    "study-closed": Workload(
        "simulate", "all", ("CPP", "APP", "LCPP", "Fujikawa", "BMA"),
        reps=400, jobs=1, n_scenarios=18,
    ),
    "study-mcmc": Workload(
        "simulate", "grouped", ("BHM", "EXNEX"), reps=40, jobs=2, n_scenarios=6,
    ),
    "tune-grid": Workload(
        "tune", "linear", ("CPP", "Fujikawa", "BMA"), reps=100, jobs=1,
        n_scenarios=6, grid_points=(100, 36, 17),
    ),
}

PER_LAYER = (
    "engine.generate_s", "engine.replicates_generated", "engine.evaluate_self_s",
    "engine.aggregate_s", "engine.pool_starts", "engine.pool_wait_s",
    "core.beta_tail_calls", "core.beta_tail_s", "core.integrate_calls", "core.integrate_s",
    "fujikawa.jsd_calls", "fujikawa.jsd_distinct_ratio",
    "powerprior.weights_s", "powerprior.posterior_s", "powerprior.hellinger_calls",
    "bma.decision_stats_calls", "bma.decision_stats_s",
    "hierarchical.chain_sweeps", "hierarchical.sampler_s", "hierarchical.sweep_ns",
    "hierarchical.acceptance_warnings",
    "tuning.bank_setup_s", "tuning.grid_eval_s", "tuning.grid_points", "tuning.calibrate_s",
    "cli.self_s", "cli.output_bytes", "trace_overhead_s",
)
UNITS = {"_s": "s", "_ns": "ns", "_ratio": "ratio", "_bytes": "bytes"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BASKETSIM_JOBS", None)
    return env


def run_process(argv: list[str], stderr_path: Path | None = None):
    """Run one process to its end; return (exit code, cpu seconds, peak RSS in MiB).

    ``os.wait4`` reports the process's own usage together with that of the
    children it reaped, so pool workers are included.
    """
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing basketsim and building the catalog."""
    argv = [sys.executable, "-c", "import basketsim.cli as c; c.builtin_catalog()"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _, _ = run_process(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError("basketsim does not import")
    return statistics.median(times)


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outputs: dict  # design -> output CSV path, or None when the command failed
    traces: list


def run_round(wl: Workload, seed: int, directory: Path, traced: bool) -> Round:
    shutil.rmtree(directory, ignore_errors=True)
    cpu = rss = 0.0
    outputs, traces = {}, []
    start = time.perf_counter()
    for design in wl.designs:
        out = directory / design
        out.mkdir(parents=True)
        args = [
            wl.command, "--scenario", wl.scenario, "--design", design,
            "--reps", str(wl.reps), "--seed", str(seed), "--jobs", str(wl.jobs),
            "--mcmc-samples", str(MCMC_SAMPLES), "--out", str(out),
        ]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(out / "trace.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "basketsim.cli", *args]
        code, used, peak = run_process(argv, out / "stderr.txt")
        cpu += used
        rss = max(rss, peak)
        name = "oc.csv" if wl.command == "simulate" else "tuning.csv"
        outputs[design] = out / name if code == 0 and (out / name).exists() else None
        if code != 0:
            log(f"{design}: exit {code}: {(out / 'stderr.txt').read_text()[-500:]}")
        if traced and code == 0:
            traces.append(json.loads((out / "trace.json").read_text()))
    return Round(time.perf_counter() - start, cpu, rss, outputs, traces)


# ---------------------------------------------------------------------------
# Correctness: the first round is checked by the oracle, later rounds must
# reproduce its cells exactly (the program promises byte-identical reruns)
# ---------------------------------------------------------------------------


def cell_rows(wl: Workload, outputs: dict) -> dict:
    cells = {}
    for design, path in outputs.items():
        if path is None:
            continue
        _, rows = oracle.read_csv(path)
        if wl.command == "simulate":
            for key, value in oracle.group_cells(rows).items():
                cells[key] = value
        else:
            for i, row in enumerate(rows):
                cells[(design, i)] = [row]
    return cells


def check_first_round(wl: Workload, seed: int, outputs: dict) -> dict:
    """{cell: [problems]} for every cell the round should have produced."""
    from basketsim.engine import generate_responses

    banks = oracle.Banks(generate_responses, wl.reps, seed)
    jsd = oracle.JsdMemo()
    if wl.command == "tune":
        results = {}
        for design, size in zip(wl.designs, wl.grid_points):
            path = outputs[design]
            if path is None:
                problems = [[oracle.NOT_PRODUCED]] * size
            else:
                problems = oracle.check_tuning(
                    path, banks, seed, wl.reps, wl.scenario.capitalize(), design, size, jsd)
            for i, found in enumerate(problems):
                results[(design, i)] = found
        return results
    if wl.designs == ("BHM", "EXNEX"):
        return oracle.check_mcmc_study(outputs, banks, seed, wl.reps,
                                       sampler_checks(outputs, banks, seed, wl),
                                       wl.scenario.capitalize())
    return oracle.check_closed_study(outputs, banks, seed, wl.reps, wl.designs, jsd)


def sampler_checks(outputs: dict, banks, seed: int, wl: Workload) -> dict:
    """Run the program's samplers on the first replicates of each scenario and
    test them against grid integration."""
    from basketsim.engine import mcmc_seed_sequence
    from basketsim.hierarchical import (
        BhmParams, ExnexParams, McmcConfig, bhm_posterior_batch, exnex_posterior_batch,
    )

    fam = oracle.scenarios(wl.scenario.capitalize())
    m = SAMPLER_CHECK_REPLICATES
    data = [(banks(s)[i], s.sample_sizes) for s in fam for i in range(m)]
    grid = oracle.HierarchicalGrid(
        (int(r), n) for responses, sizes in data for r, n in zip(responses, sizes)
    )
    mcmc = McmcConfig(total_samples=MCMC_SAMPLES)
    checks = {}
    for design, path in outputs.items():
        if path is None:
            continue
        params = json.loads(oracle.read_csv(path)[1][0]["param_json"])
        seeds = [mcmc_seed_sequence(seed, s.id, design, i) for s in fam for i in range(m)]
        responses = np.array([r for r, _ in data])
        sizes = fam[0].sample_sizes
        if design == "BHM":
            tails, _, _ = bhm_posterior_batch(
                responses, sizes, BhmParams(phi=params["phi"]), mcmc, seeds, oracle.P0)
        else:
            tails, _, _ = exnex_posterior_batch(
                responses, sizes, ExnexParams(phi=params["phi"], q=params["q"]),
                mcmc, seeds, oracle.P0)
        mean, se = oracle.sampler_difference(
            design, params["phi"], params.get("q", 1.0), data, tails, grid)
        log(f"{design}: sampler - grid tail difference {mean:+.5f} (SE {se:.5f})")
        checks[design] = oracle.check_sampler(design, mean, se)
    return checks


def failed_cells(checked: dict, reference: dict, current: dict) -> tuple[int, int]:
    """(failed, differing) cells of a later round.

    A cell fails when it failed its check in the first round or differs
    from the first round's; so every round fails the same share of cells.
    """
    differing = sum(1 for key in checked if current.get(key) != reference.get(key))
    failed = sum(1 for key in checked
                 if checked[key] or current.get(key) != reference.get(key))
    return failed, differing


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(traces: list, overhead_s: float) -> dict:
    self_s, calls, counters, pairs = {}, {}, {}, set()
    for trace in traces:
        for table, into in ((trace["self_s"], self_s), (trace["calls"], calls),
                            (trace["counters"], counters)):
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
        pairs.update(tuple(map(tuple, p)) for p in trace["jsd_pairs"])
    sweeps = counters.get("hierarchical.chain_sweeps", 0)
    sampler_s = self_s.get("hierarchical.sampler", 0.0)
    jsd_calls = calls.get("jsd", 0)
    values = {
        "engine.generate_s": self_s.get("engine.generate", 0.0),
        "engine.replicates_generated": counters.get("engine.replicates_generated", 0),
        "engine.evaluate_self_s": self_s.get("engine.evaluate", 0.0),
        "engine.aggregate_s": self_s.get("engine.aggregate", 0.0),
        "engine.pool_starts": counters.get("engine.pool_starts", 0),
        "engine.pool_wait_s": self_s.get("engine.pool_wait", 0.0),
        "core.beta_tail_calls": calls.get("beta_tail", 0),
        "core.beta_tail_s": self_s.get("core.beta_tail", 0.0),
        "core.integrate_calls": calls.get("integrate", 0),
        "core.integrate_s": self_s.get("core.integrate", 0.0),
        "fujikawa.jsd_calls": jsd_calls,
        "fujikawa.jsd_distinct_ratio": len(pairs) / jsd_calls if jsd_calls else 0.0,
        "powerprior.weights_s": self_s.get("powerprior.weights", 0.0),
        "powerprior.posterior_s": self_s.get("powerprior.posterior", 0.0),
        "powerprior.hellinger_calls": calls.get("hellinger_gamma", 0),
        "bma.decision_stats_calls": calls.get("decision_stats", 0),
        "bma.decision_stats_s": self_s.get("bma.decision_stats", 0.0),
        "hierarchical.chain_sweeps": sweeps,
        "hierarchical.sampler_s": sampler_s,
        "hierarchical.sweep_ns": sampler_s / sweeps * 1e9 if sweeps else 0.0,
        "hierarchical.acceptance_warnings": counters.get("hierarchical.acceptance_warnings", 0),
        "tuning.bank_setup_s": self_s.get("tuning.bank_setup", 0.0),
        "tuning.grid_eval_s": self_s.get("tuning.grid_eval", 0.0),
        "tuning.grid_points": counters.get("tuning.grid_points", 0),
        "tuning.calibrate_s": self_s.get("tuning.calibrate", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": counters.get("cli.output_bytes", 0),
        "trace_overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def median_layers(per_round: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(r[name]["value"] for r in per_round),
               "unit": per_round[0][name]["unit"]}
        for name in per_round[0]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "basketsim" / "cli.py").is_file():
        log(f"no basketsim sources under {SRC}; run from the root of a basketsim checkout")
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    setup_s = measure_setup()
    log(f"{args.workload} seed={args.seed}: setup {setup_s:.3f}s")
    workdir = OUT / args.workload
    rounds: list[Round] = []
    traced_rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, args.seed, workdir / f"round{len(rounds)}", False))
        log(f"round {len(rounds)}: {rounds[-1].wall_s:.2f}s wall, {rounds[-1].cpu_s:.2f}s cpu")
        if args.trace:
            traced_rounds.append(
                run_round(wl, args.seed, workdir / f"traced{len(traced_rounds)}", True))
            log(f"traced round {len(traced_rounds)}: {traced_rounds[-1].wall_s:.2f}s wall")
        if time.perf_counter() - start >= args.seconds:
            break

    first = rounds[0]
    results = check_first_round(wl, args.seed, first.outputs)
    reference = cell_rows(wl, first.outputs)
    bad = [key for key, problems in results.items() if problems]
    for key in bad[:20]:
        log(f"FAILED {key}: {'; '.join(results[key])}")
    # a cell the program did not produce is a failed operation; a cell it
    # produced wrongly, or differently on a rerun, also makes the run incorrect
    wrong = sum(1 for key in bad if results[key] != [oracle.NOT_PRODUCED])
    failed = len(bad)
    for later in rounds[1:] + traced_rounds:
        later_failed, differing = failed_cells(results, reference, cell_rows(wl, later.outputs))
        failed += later_failed
        wrong += differing
    attempted = len(results) * (len(rounds) + len(traced_rounds))

    if args.trace:
        overhead = (statistics.median(r.wall_s for r in traced_rounds)
                    - statistics.median(r.wall_s for r in rounds))
        metrics = median_layers([layer_metrics(r.traces, overhead) for r in traced_rounds])
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "reps_per_s": {
                "value": statistics.median(wl.evaluations() / r.wall_s for r in rounds),
                "unit": "evaluations/s",
            },
            "cpu_s": {"value": statistics.median(r.cpu_s for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": max(r.peak_rss_mb for r in rounds), "unit": "MiB"},
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
