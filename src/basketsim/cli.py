"""Command-line front end: simulate, calibrate, tune, and report.

Outputs are flat CSV files (one row per scenario/design/basket) with a
provenance header carrying the tool version, master seed, replicate count
and a hash of the result-affecting configuration, so reruns with the same
manifest are byte-identical.  ``report`` re-renders stored CSV into the
aligned ECD / rejection-rate / bias tables.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .bma import BmaParams
from .core import (
    BasketSimError,
    ConfigurationError,
    PATTERNS,
    SIZE_FAMILIES,
    Scenario,
)
from .engine import (
    DESIGNS,
    DesignConfig,
    aggregate,
    decisions_from_tails,
    scenario_tails_means,
)
from .fujikawa import FujikawaParams
from .hierarchical import BhmParams, ExnexParams, McmcConfig
from .powerprior import CppParams
from .tuning import grid_search, smallest_lambda

PATTERN_RATES = {
    "Null": (0.15, 0.15, 0.15, 0.15, 0.15),
    "Alternative": (0.35, 0.35, 0.35, 0.35, 0.35),
    "Ascending": (0.15, 0.15, 0.25, 0.35, 0.35),
    "Descending": (0.35, 0.35, 0.25, 0.15, 0.15),
    "BGN": (0.15, 0.15, 0.15, 0.15, 0.40),
    "SGN": (0.40, 0.15, 0.15, 0.15, 0.15),
}

FAMILY_SIZES = {
    "Linear": (10, 15, 20, 25, 30),
    "Grouped": (10, 10, 25, 25, 30),
    "HighVariance": (10, 10, 10, 20, 50),
}

# per-family optima found by the tuning protocol; shipped as presets so the
# comparison tables regenerate without re-tuning
TUNED_PARAMS = {
    "Linear": {
        "CPP": CppParams(4.0, 4.5),
        "LCPP": CppParams(3.0, 4.0),
        "APP": None,
        "Fujikawa": FujikawaParams(1.5, 0.2),
        "BMA": BmaParams(-2.0),
        "BHM": BhmParams(phi=0.661),
        "EXNEX": ExnexParams(phi=0.661, q=0.9),
    },
    "Grouped": {
        "CPP": CppParams(4.0, 4.5),
        "LCPP": CppParams(3.0, 4.5),
        "APP": None,
        "Fujikawa": FujikawaParams(1.5, 0.0),
        "BMA": BmaParams(-2.0),
        "BHM": BhmParams(phi=0.661),
        "EXNEX": ExnexParams(phi=0.661, q=0.9),
    },
    "HighVariance": {
        "CPP": CppParams(4.0, 4.0),
        "LCPP": CppParams(2.5, 5.0),
        "APP": None,
        "Fujikawa": FujikawaParams(2.5, 0.2),
        "BMA": BmaParams(-2.0),
        "BHM": BhmParams(phi=0.661),
        "EXNEX": ExnexParams(phi=0.661, q=0.8),
    },
}

CSV_COLUMNS = (
    "scenario_id", "size_family", "pattern", "design", "basket_index",
    "n", "true_p", "rejection_rate", "bias", "ecd_mean", "fwer",
    "lambda", "param_json",
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class CatalogError(ConfigurationError):
    """A scenario or design definition violates the documented schema."""


@dataclass(frozen=True)
class RunManifest:
    """Everything one command needs; hashed (minus jobs) into file headers."""

    command: str
    config_path: str | None
    seed: int
    reps: int
    out_dir: str
    jobs: int
    mcmc_samples: int
    designs: tuple[str, ...]
    scenario_selector: str
    p0: float = 0.15
    table: str | None = None
    family: str | None = None
    alpha: float = 0.05

    def result_key(self) -> str:
        payload = {
            "command": self.command,
            "seed": self.seed,
            "reps": self.reps,
            "mcmc_samples": self.mcmc_samples,
            "designs": list(self.designs),
            "scenarios": self.scenario_selector,
            "p0": self.p0,
            "alpha": self.alpha,
            "config": _config_digest(self.config_path),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _config_digest(path: str | None) -> str | None:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Catalog and configuration files
# ---------------------------------------------------------------------------


def builtin_catalog() -> list[Scenario]:
    """The 18 shipped scenarios: six rate patterns times three size families."""
    scenarios = []
    next_id = 1
    for pattern in PATTERNS:
        for family in SIZE_FAMILIES:
            scenarios.append(
                Scenario(
                    id=next_id,
                    sample_sizes=FAMILY_SIZES[family],
                    true_rates=PATTERN_RATES[pattern],
                    pattern=pattern,
                    size_family=family,
                )
            )
            next_id += 1
    return scenarios


def _scenario_from_mapping(index: int, raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise CatalogError(f"scenarios[{index}]: expected an object")
    allowed = {"id", "sample_sizes", "true_rates", "pattern", "size_family",
               "fixed_responses"}
    unknown = set(raw) - allowed
    if unknown:
        raise CatalogError(f"scenarios[{index}]: unknown field(s) {sorted(unknown)}")
    missing = {"id", "sample_sizes", "true_rates", "pattern", "size_family"} - set(raw)
    if missing:
        raise CatalogError(f"scenarios[{index}]: missing field(s) {sorted(missing)}")
    fixed = raw.get("fixed_responses")
    try:
        return Scenario(
            id=int(raw["id"]),
            sample_sizes=tuple(int(v) for v in raw["sample_sizes"]),
            true_rates=tuple(float(v) for v in raw["true_rates"]),
            pattern=str(raw["pattern"]),
            size_family=str(raw["size_family"]),
            fixed_responses=None if fixed is None else tuple(int(v) for v in fixed),
        )
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"scenarios[{index}]: {exc}") from exc


def load_catalog(path: str | None = None) -> list[Scenario]:
    """The builtin Table-1 catalog, or scenarios parsed from a config file."""
    if path is None:
        return builtin_catalog()
    config = load_config(path)
    if "scenarios" not in config:
        return builtin_catalog()
    return [_scenario_from_mapping(i, raw) for i, raw in enumerate(config["scenarios"])]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CatalogError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise CatalogError(f"config {path}: top level must be an object")
    return config


_PARAM_FIELDS = {
    "CPP": {"a", "b"},
    "LCPP": {"a", "b"},
    "APP": set(),
    "Fujikawa": {"epsilon", "tau"},
    "BMA": {"psi"},
    "BHM": {"phi"},
    "EXNEX": {"phi", "q"},
}


def design_params_from_mapping(design: str, raw: dict):
    """Parse one design's parameter object from a config file entry."""
    if design not in _PARAM_FIELDS:
        raise CatalogError(f"designs.{design}: unknown design")
    fields = _PARAM_FIELDS[design]
    unknown = set(raw) - fields - {"lambda"}
    if unknown:
        raise CatalogError(f"designs.{design}: unknown field(s) {sorted(unknown)}")
    missing = fields - set(raw)
    if missing:
        raise CatalogError(f"designs.{design}: missing field(s) {sorted(missing)}")
    try:
        if design in ("CPP", "LCPP"):
            return CppParams(float(raw["a"]), float(raw["b"]))
        if design == "Fujikawa":
            return FujikawaParams(float(raw["epsilon"]), float(raw["tau"]))
        if design == "BMA":
            return BmaParams(float(raw["psi"]))
        if design == "BHM":
            return BhmParams(phi=float(raw["phi"]))
        if design == "EXNEX":
            return ExnexParams(phi=float(raw["phi"]), q=float(raw["q"]))
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"designs.{design}: {exc}") from exc
    return None


def _params_to_json(params) -> str:
    if params is None:
        return "{}"
    from dataclasses import asdict

    return json.dumps(asdict(params), sort_keys=True)


# ---------------------------------------------------------------------------
# Selection helpers
# ---------------------------------------------------------------------------


def select_scenarios(catalog: list[Scenario], selector: str) -> list[Scenario]:
    if selector == "all":
        return list(catalog)
    by_family = {f.lower(): f for f in SIZE_FAMILIES}
    if selector.lower() in by_family:
        family = by_family[selector.lower()]
        return [s for s in catalog if s.size_family == family]
    try:
        wanted = int(selector)
    except ValueError:
        raise CatalogError(
            f"scenario selector {selector!r} is neither an id, a size family, nor 'all'"
        ) from None
    matches = [s for s in catalog if s.id == wanted]
    if not matches:
        raise CatalogError(f"no scenario with id {wanted}")
    return matches


def select_designs(selector: str) -> tuple[str, ...]:
    if selector == "all":
        return DESIGNS
    by_name = {d.lower(): d for d in DESIGNS}
    if selector.lower() not in by_name:
        raise CatalogError(f"unknown design {selector!r}")
    return (by_name[selector.lower()],)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _header_lines(manifest: RunManifest) -> list[str]:
    return [
        f"# basketsim v{__version__} command={manifest.command} "
        f"seed={manifest.seed} reps={manifest.reps} "
        f"mcmc_samples={manifest.mcmc_samples} config_hash={manifest.result_key()}"
    ]


def _write_csv(path: str, manifest: RunManifest, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _header_lines(manifest):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _design_setup(manifest: RunManifest, config_file: dict, family: str, design: str):
    """Parameters, fixed lambda (if any) and mcmc settings for one design."""
    raw = (config_file.get("designs") or {}).get(design)
    if raw is not None:
        params = design_params_from_mapping(design, raw)
        fixed_lambda = None
        if "lambda" in raw:
            try:
                fixed_lambda = float(raw["lambda"])
            except (TypeError, ValueError):
                raise CatalogError(
                    f"designs.{design}.lambda: {raw['lambda']!r} is not a number"
                ) from None
            if not 0.0 < fixed_lambda <= 1.0:
                raise CatalogError(f"designs.{design}.lambda: {fixed_lambda} outside (0, 1]")
    else:
        params = TUNED_PARAMS[family][design]
        fixed_lambda = None
    mcmc = McmcConfig(total_samples=manifest.mcmc_samples)
    return DesignConfig(design, params, mcmc=mcmc), fixed_lambda


def _families(scenarios: list[Scenario]) -> list[str]:
    """Size families of the selected scenarios, in first-seen order."""
    return list(dict.fromkeys(s.size_family for s in scenarios))


def _family_null_scenario(catalog: list[Scenario], family: str, p0: float) -> Scenario:
    for s in catalog:
        if s.size_family == family and all(p <= p0 for p in s.true_rates):
            return s
    raise CatalogError(f"no global-null scenario available for family {family}")


def command_simulate(manifest: RunManifest) -> int:
    catalog = load_catalog(manifest.config_path)
    config_file = load_config(manifest.config_path) if manifest.config_path else {}
    scenarios = select_scenarios(catalog, manifest.scenario_selector)
    rows = []
    families = _families(scenarios)
    for family in families:
        family_scenarios = [s for s in scenarios if s.size_family == family]
        for design in manifest.designs:
            config, fixed_lambda = _design_setup(manifest, config_file, family, design)
            null_scenario = _family_null_scenario(catalog, family, manifest.p0)
            null_tails = None
            if fixed_lambda is None:
                null_tails, null_means = scenario_tails_means(
                    config, null_scenario, manifest.reps, manifest.seed,
                    manifest.p0, jobs=manifest.jobs,
                )
                lam = smallest_lambda(
                    null_tails.max(axis=1), manifest.alpha, config.strict
                )
            else:
                lam = fixed_lambda
            config = config.with_lambda(lam)
            for scenario in family_scenarios:
                if null_tails is not None and scenario.id == null_scenario.id:
                    tails, means = null_tails, null_means
                else:
                    tails, means = scenario_tails_means(
                        config, scenario, manifest.reps, manifest.seed,
                        manifest.p0, jobs=manifest.jobs,
                    )
                decisions = decisions_from_tails(tails, lam, config.strict)
                oc = aggregate(scenario, decisions, means, manifest.p0)
                param_json = _params_to_json(config.params)
                for k in range(scenario.k):
                    rows.append([
                        scenario.id, scenario.size_family, scenario.pattern,
                        design, k + 1, scenario.sample_sizes[k],
                        _fmt(scenario.true_rates[k]),
                        _fmt(oc.rejection_rate[k]), _fmt(oc.bias[k]),
                        _fmt(oc.ecd_mean), _fmt(oc.fwer),
                        f"{lam:.3f}", param_json,
                    ])
    _write_csv(os.path.join(manifest.out_dir, "oc.csv"), manifest, CSV_COLUMNS, rows)
    return EXIT_OK


def command_calibrate(manifest: RunManifest) -> int:
    catalog = load_catalog(manifest.config_path)
    config_file = load_config(manifest.config_path) if manifest.config_path else {}
    scenarios = select_scenarios(catalog, manifest.scenario_selector)
    families = _families(scenarios)
    rows = []
    for family in families:
        null_scenario = _family_null_scenario(catalog, family, manifest.p0)
        for design in manifest.designs:
            config, _ = _design_setup(manifest, config_file, family, design)
            tails, _ = scenario_tails_means(
                config, null_scenario, manifest.reps, manifest.seed,
                manifest.p0, jobs=manifest.jobs,
            )
            max_tails = tails.max(axis=1)
            lam = smallest_lambda(max_tails, manifest.alpha, config.strict)
            hits = max_tails > lam if config.strict else max_tails >= lam
            rows.append([
                family, design, f"{lam:.3f}",
                _fmt(hits.mean()), _params_to_json(config.params),
            ])
    _write_csv(
        os.path.join(manifest.out_dir, "lambdas.csv"), manifest,
        ("size_family", "design", "lambda", "null_fwer", "param_json"), rows,
    )
    return EXIT_OK


def command_tune(manifest: RunManifest) -> int:
    catalog = load_catalog(manifest.config_path)
    scenarios = select_scenarios(catalog, manifest.scenario_selector)
    families = _families(scenarios)
    rows = []
    for family in families:
        family_scenarios = [s for s in catalog if s.size_family == family]
        for design in manifest.designs:
            result = grid_search(
                design, family_scenarios, manifest.reps, alpha=manifest.alpha,
                seed=manifest.seed, mcmc=McmcConfig(total_samples=manifest.mcmc_samples),
                p0=manifest.p0,
            )
            for i, rec in enumerate(result.records):
                row = [
                    family, design, _params_to_json(rec.params),
                    "" if not rec.feasible else f"{rec.lambda_:.3f}",
                ]
                for pattern in PATTERNS:
                    row.append(
                        _fmt(rec.pattern_ecd[pattern]) if pattern in rec.pattern_ecd else ""
                    )
                row.append(_fmt(rec.mean_ecd) if rec.feasible else "")
                row.append(int(i == result.selected_index))
                rows.append(row)
    _write_csv(
        os.path.join(manifest.out_dir, "tuning.csv"), manifest,
        ("size_family", "design", "param_json", "lambda",
         *(f"ecd_{p.lower()}" for p in PATTERNS), "mean_ecd", "selected"),
        rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _read_oc_csv(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise CatalogError(f"no stored results at {path}; run simulate first")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


def _round3(text: str) -> str:
    return f"{float(text):.3f}"


def render_ecd_table(rows: list[dict], family: str) -> str:
    designs = [d for d in DESIGNS if any(
        r["design"] == d and r["size_family"] == family for r in rows
    )]
    ecd = {}
    for r in rows:
        if r["size_family"] == family and r["basket_index"] == "1":
            ecd[(r["design"], r["pattern"])] = float(r["ecd_mean"])
    header = ["Design"] + list(PATTERNS) + ["Mean"]
    out = [f"ECD, {family} scenario", "  ".join(f"{h:>11s}" for h in header)]
    for design in designs:
        values = [ecd[(design, p)] for p in PATTERNS if (design, p) in ecd]
        cells = [f"{design:>11s}"]
        for pattern in PATTERNS:
            cells.append(
                f"{ecd[(design, pattern)]:>11.3f}" if (design, pattern) in ecd
                else f"{'-':>11s}"
            )
        mean = sum(values) / len(values) if values else math.nan
        cells.append(f"{mean:>11.3f}")
        out.append("  ".join(cells))
    return "\n".join(out) + "\n"


def _basket_table(rows: list[dict], family: str, value_column: str,
                  with_fwer: bool, title: str) -> str:
    designs = [d for d in DESIGNS if any(
        r["design"] == d and r["size_family"] == family for r in rows
    )]
    sizes = {}
    cells = {}
    fwer = {}
    for r in rows:
        if r["size_family"] != family:
            continue
        key = (r["pattern"], r["design"], int(r["basket_index"]))
        cells[key] = float(r[value_column])
        sizes[int(r["basket_index"])] = r["n"]
        fwer[(r["pattern"], r["design"])] = float(r["fwer"])
    baskets = sorted(sizes)
    header = ["Pattern", "Design"] + [f"Basket {k} (n={sizes[k]})" for k in baskets]
    if with_fwer:
        header.append("FWER")
    out = [f"{title}, {family} scenario", "  ".join(f"{h:>15s}" for h in header)]
    for pattern in PATTERNS:
        for design in designs:
            if (pattern, design, baskets[0]) not in cells:
                continue
            row = [f"{pattern:>15s}", f"{design:>15s}"]
            row += [f"{cells[(pattern, design, k)]:>15.3f}" for k in baskets]
            if with_fwer:
                row.append(f"{fwer[(pattern, design)]:>15.3f}")
            out.append("  ".join(row))
    return "\n".join(out) + "\n"


def render_weights_table() -> list[list]:
    """Weight curves for external plotting: CPP logistic and JSD decay."""
    rows = []
    from .powerprior import cpp_weight

    size_pairs = [(10, 10), (10, 30), (10, 50)]
    for a, b in [(1.0, 1.0), (2.0, 3.0), (4.0, 4.5)]:
        params = CppParams(a, b)
        for n_k, n_i in size_pairs:
            for step in range(0, 101):
                diff = step / 100.0
                r_k = 0
                r_i = round(diff * n_i)
                w = cpp_weight((r_k, n_k), (r_i, n_i), params)
                rows.append([
                    "CPP", json.dumps({"a": a, "b": b}), n_k, n_i,
                    _fmt(abs(r_k / n_k - r_i / n_i)), _fmt(w),
                ])
    for epsilon in (0.5, 1.0, 2.0, 3.0):
        for step in range(0, 101):
            jsd = step / 100.0
            rows.append([
                "Fujikawa", json.dumps({"epsilon": epsilon}), "", "",
                _fmt(jsd), _fmt((1.0 - jsd) ** epsilon),
            ])
    return rows


def command_report(manifest: RunManifest) -> int:
    table = manifest.table or "ecd"
    if table == "weights":
        rows = render_weights_table()
        _write_csv(
            os.path.join(manifest.out_dir, "weights.csv"), manifest,
            ("design", "param_json", "n_k", "n_i", "statistic", "weight"), rows,
        )
        return EXIT_OK
    by_name = {f.lower(): f for f in SIZE_FAMILIES}
    family = by_name.get((manifest.family or "grouped").lower())
    if family is None:
        raise CatalogError(f"unknown size family {manifest.family!r}")
    rows = _read_oc_csv(os.path.join(manifest.out_dir, "oc.csv"))
    if table == "ecd":
        sys.stdout.write(render_ecd_table(rows, family))
    elif table == "rejection":
        sys.stdout.write(
            _basket_table(rows, family, "rejection_rate", True, "Rejection rates")
        )
    elif table == "bias":
        sys.stdout.write(_basket_table(rows, family, "bias", False, "Bias"))
    else:
        raise CatalogError(f"unknown table {table!r}")
    return EXIT_OK


def run_command(manifest: RunManifest) -> int:
    """Dispatch one manifest; numeric failures exit 3, usage errors exit 2."""
    os.makedirs(manifest.out_dir, exist_ok=True)
    handlers = {
        "simulate": command_simulate,
        "calibrate": command_calibrate,
        "tune": command_tune,
        "report": command_report,
    }
    if manifest.command not in handlers:
        raise CatalogError(f"unknown command {manifest.command!r}")
    return handlers[manifest.command](manifest)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _default_jobs() -> int:
    env = os.environ.get("BASKETSIM_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketsim",
        description="Simulation engine for Bayesian basket-trial designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "calibrate", "tune", "report"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--design", default="all", help="design name or 'all'")
        cmd.add_argument("--scenario", default="all",
                         help="scenario id, size family, or 'all'")
        cmd.add_argument("--reps", type=int, default=10_000)
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--jobs", type=int, default=_default_jobs())
        cmd.add_argument("--out", default="out")
        cmd.add_argument("--mcmc-samples", type=int, default=10_000)
        cmd.add_argument("--alpha", type=float, default=0.05)
        cmd.add_argument("--p0", type=float, default=0.15)
        if name == "report":
            cmd.add_argument("--table", default="ecd",
                             choices=("ecd", "rejection", "bias", "weights"))
            cmd.add_argument("--family", default="grouped")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric flags as usage errors."""
    if args.reps < 1:
        raise CatalogError(f"--reps must be at least 1, got {args.reps}")
    if args.seed < 0:
        raise CatalogError(f"--seed must be nonnegative, got {args.seed}")
    if not 0.0 < args.p0 < 1.0:
        raise CatalogError(f"--p0 must lie in (0, 1), got {args.p0}")
    if not 0.0 < args.alpha < 1.0:
        raise CatalogError(f"--alpha must lie in (0, 1), got {args.alpha}")
    try:
        McmcConfig(total_samples=args.mcmc_samples)
    except ValueError as exc:
        raise CatalogError(f"--mcmc-samples: {exc}") from None


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    """Validated manifest; ``--jobs`` is clamped to [1, number of CPUs]."""
    _check_args(args)
    return RunManifest(
        command=args.command,
        config_path=args.config,
        seed=args.seed,
        reps=args.reps,
        out_dir=args.out,
        jobs=max(1, min(args.jobs, os.cpu_count() or 1)),
        mcmc_samples=args.mcmc_samples,
        designs=select_designs(args.design),
        scenario_selector=args.scenario,
        p0=args.p0,
        table=getattr(args, "table", None),
        family=getattr(args, "family", None),
        alpha=args.alpha,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = manifest_from_args(args)
        return run_command(manifest)
    except (CatalogError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BasketSimError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
