"""Run one ``basketsim`` CLI command with every layer's public functions traced.

Usage::

    python perfbench/tracer.py TRACE.json -- simulate --scenario all ...

The script imports ``basketsim``, rebinds every ``basketsim.*`` module
attribute that holds a traced function to a timing wrapper, runs
``basketsim.cli.main`` on the remaining arguments and writes the collected
spans to ``TRACE.json``.  A span stack turns durations into self time: the
time inside a call minus the time inside the traced calls it made.

Process-pool workers are forked, so they inherit the wrappers.  Each worker
starts from empty totals and rewrites its own file next to ``TRACE.json``
after every top-level call; the parent merges those files when the command
ends.  Self times therefore add up busy time over all processes, not wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# span group -> (module, functions); a group's self time is summed over its
# functions, and every function also gets a call count under its own name
GROUPS = {
    "engine.generate": ("engine", ["generate_responses", "generate_trial"]),
    "engine.evaluate": ("engine", [
        "evaluate_bank", "_beta_design_stats", "_evaluate_chunk",
        "scenario_tails_means", "simulate", "run_design", "mcmc_seed_sequence",
    ]),
    "engine.aggregate": ("engine", [
        "aggregate", "decisions_from_tails", "correct_decisions",
    ]),
    "core.beta_tail": ("core", ["beta_tail", "regularized_incomplete_beta"]),
    "core.integrate": ("core", ["integrate", "integrate_beta_density"]),
    "fujikawa.jsd": ("fujikawa", ["jsd"]),
    "fujikawa.weights": ("fujikawa", [
        "jsd_matrix", "weights_from_jsd", "fujikawa_weights",
        "individual_posteriors", "fujikawa_posterior",
    ]),
    "powerprior.weights": ("powerprior", [
        "build_weights", "scaled_ks_matrix", "cpp_weights_from_scaled",
        "alpha0_matrix", "gamma_matrix", "hellinger_gamma", "cpp_weight",
        "ks_statistic", "alpha0",
    ]),
    "powerprior.posterior": ("powerprior", ["power_prior_posterior"]),
    "bma.decision_stats": ("bma", [
        "decision_stats", "posterior_model_probs", "log_marginal_likelihood",
        "bma_tail_probs", "bma_posterior_means", "enumerate_partitions",
    ]),
    "hierarchical.sampler": ("hierarchical", [
        "bhm_posterior_batch", "exnex_posterior_batch",
        "bhm_posterior", "exnex_posterior",
    ]),
    "tuning.calibrate": ("tuning", ["smallest_lambda", "calibrate_lambda"]),
    "tuning.grid_eval": ("tuning", [
        "grid_search", "default_grid", "mean_correct_decisions",
        "BankEvaluator.tails_means",
    ]),
    "tuning.bank_setup": ("tuning", [
        "BankEvaluator.__init__", "_fujikawa_jsd_chunk",
    ]),
    "cli": ("cli", [
        "main", "run_command", "command_simulate", "command_calibrate",
        "command_tune", "command_report", "_write_csv", "load_catalog",
        "builtin_catalog",
    ]),
}


class Trace:
    """Self time per span group, call counts and the layer counters."""

    def __init__(self):
        self.stack: list[float] = []  # child time of each open span
        self.in_worker = False
        self.worker_file = Path("worker.json")
        self.reset()

    def reset(self):
        self.stack.clear()
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.jsd_pairs: set = set()

    def _open(self) -> float:
        self.stack.append(0.0)
        return time.perf_counter()

    def _close(self, group: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        self.self_s[group] += elapsed - self.stack.pop()
        if self.stack:
            self.stack[-1] += elapsed

    def wrap(self, group: str, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(group, start)
                self.calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            if not self.stack and self.in_worker:
                self.dump_worker()
            return result

        return traced

    @contextlib.contextmanager
    def span(self, group: str):
        """Context manager form of ``wrap`` for code that is not a function."""
        start = self._open()
        try:
            yield
        finally:
            self._close(group, start)

    def as_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "jsd_pairs": sorted(self.jsd_pairs),
        }

    def merge(self, other: dict) -> None:
        for key, value in other["self_s"].items():
            self.self_s[key] += value
        for key, value in other["calls"].items():
            self.calls[key] += value
        for key, value in other["counters"].items():
            self.counters[key] += value
        self.jsd_pairs.update(tuple(map(tuple, p)) for p in other["jsd_pairs"])

    def dump_worker(self) -> None:
        tmp = self.worker_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.as_dict()))
        os.replace(tmp, self.worker_file)

    def after_fork_in_child(self) -> None:
        """A forked pool worker starts from empty totals and keeps its own file."""
        self.reset()
        self.in_worker = True
        self.worker_file = self.worker_file.with_name(
            f"worker-{os.getpid()}-{time.monotonic_ns()}.json")


TRACE = Trace()


def _rebind(modules, original, replacement) -> None:
    """Point every module attribute that holds ``original`` at ``replacement``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _jsd_pair(args, kwargs, result):
    f, g = args[0], args[1]
    TRACE.jsd_pairs.add(tuple(sorted([(f.alpha, f.beta), (g.alpha, g.beta)])))


def _sampler_counts(args, kwargs, result):
    if isinstance(result, tuple):  # batch form: (tails, means, warnings)
        chains, mcmc, warnings = len(args[0]), args[3], result[2]
    else:
        chains, mcmc, warnings = 1, args[2], result.warnings
    TRACE.counters["hierarchical.chain_sweeps"] += chains * mcmc.total_samples
    TRACE.counters["hierarchical.acceptance_warnings"] += len(warnings)


def _generated(args, kwargs, result):
    rows = getattr(result, "shape", (1,))[0]
    TRACE.counters["engine.replicates_generated"] += rows


def _grid_points(args, kwargs, result):
    TRACE.counters["tuning.grid_points"] += len(result.records)


def _output_bytes(args, kwargs, result):
    TRACE.counters["cli.output_bytes"] += os.path.getsize(args[0])


AFTER = {
    "jsd": _jsd_pair,
    "bhm_posterior_batch": _sampler_counts,
    "exnex_posterior_batch": _sampler_counts,
    "bhm_posterior": _sampler_counts,
    "exnex_posterior": _sampler_counts,
    "generate_responses": _generated,
    "generate_trial": _generated,
    "grid_search": _grid_points,
    "_write_csv": _output_bytes,
}


def _traced_pool(modules):
    """Count pool starts and keep the wait on workers out of the caller's self time."""

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            TRACE.counters["engine.pool_starts"] += 1
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            with TRACE.span("engine.pool_wait"):
                return iter(list(super().map(*args, **kwargs)))

        def shutdown(self, *args, **kwargs):
            with TRACE.span("engine.pool_wait"):
                return super().shutdown(*args, **kwargs)

    _rebind(modules, ProcessPoolExecutor, TracedPool)


def install() -> None:
    import importlib

    names = ["engine", "core", "powerprior", "fujikawa", "bma",
             "hierarchical", "tuning", "cli"]
    package = importlib.import_module("basketsim")
    modules = [package] + [importlib.import_module(f"basketsim.{n}") for n in names]
    by_name = dict(zip(names, modules[1:]))
    for group, (module_name, functions) in GROUPS.items():
        module = by_name[module_name]
        for qualified in functions:
            if "." in qualified:
                cls_name, meth = qualified.split(".")
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    continue
                setattr(cls, meth, TRACE.wrap(group, qualified, fn))
                continue
            fn = getattr(module, qualified, None)
            if fn is None:  # removed by a later change: its metrics read 0
                continue
            wrapped = TRACE.wrap(group, qualified, fn, AFTER.get(qualified))
            _rebind(modules, fn, wrapped)
    _traced_pool(modules)
    os.register_at_fork(after_in_child=TRACE.after_fork_in_child)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <basketsim arguments>", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    TRACE.worker_file = out.parent / "worker.json"
    sys.path.insert(0, str(ROOT / "src"))
    install()
    import basketsim.cli

    status = basketsim.cli.main(argv[2:])
    for worker_file in sorted(out.parent.glob("worker-*.json")):
        TRACE.merge(json.loads(worker_file.read_text()))
        worker_file.unlink()
    out.write_text(json.dumps(TRACE.as_dict()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
