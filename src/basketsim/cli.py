"""Command-line front end: simulate, calibrate, tune, and report.

Outputs are flat CSV files (one row per scenario/design/basket) with a
provenance header carrying the tool version, master seed, replicate count
and a hash of the result-affecting flags and of the config file's bytes, so
reruns with the same arguments and config are byte-identical.  ``report``
re-renders stored CSV into the aligned ECD / rejection-rate / bias tables.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import sys

from . import __version__
from .core import (
    BasketSimError,
    ConfigurationError,
    PATTERNS,
    SIZE_FAMILIES,
    Scenario,
)
from .engine import DESIGNS, REGISTRY, DesignConfig, outcome_table
from .powerprior import CppParams, cpp_weights_from_scaled, scaled_ks_matrix
from .tuning import ecd_summary, grid_search, null_scenario, study

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

CSV_COLUMNS = (
    "scenario_id", "size_family", "pattern", "design", "basket_index",
    "n", "true_p", "rejection_rate", "bias", "ecd_mean", "fwer",
    "lambda", "param_json",
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
MAX_REPS = 2**32 - 1  # a replicate index is one 32-bit word of its stream's key


class CatalogError(ConfigurationError):
    """A scenario or design definition violates the documented schema."""


# ---------------------------------------------------------------------------
# Catalog and configuration files
# ---------------------------------------------------------------------------


def builtin_catalog() -> list[Scenario]:
    """The 18 shipped scenarios: six rate patterns times three size families."""
    return [
        Scenario(id=i, sample_sizes=FAMILY_SIZES[family], true_rates=PATTERN_RATES[pattern],
                 pattern=pattern, size_family=family)
        for i, (pattern, family) in enumerate(itertools.product(PATTERNS, SIZE_FAMILIES), 1)
    ]


def _json_number(value, where: str) -> float:
    """A finite JSON number (not a bool or a string) as a float."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise CatalogError(f"{where}: expected a finite number, got {value!r}")
    return number


def _json_int(value, where: str) -> int:
    """A JSON integer, never truncated from a float or a bool."""
    if type(value) is not int:
        raise CatalogError(f"{where}: expected an integer, got {value!r}")
    return value


def _object(raw, where: str, required, optional) -> dict:
    """A JSON object with every ``required`` key and no key outside ``required`` and
    ``optional``; an ``optional`` of None admits any other key."""
    if not isinstance(raw, dict):
        raise CatalogError(f"{where}: expected an object, got {raw!r}")
    unknown = set() if optional is None else set(raw) - set(required) - set(optional)
    if unknown:
        raise CatalogError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = set(required) - set(raw)
    if missing:
        raise CatalogError(f"{where}: missing field(s) {sorted(missing)}")
    return raw


def _json_list(value, where: str, item) -> tuple:
    if not isinstance(value, list):
        raise CatalogError(f"{where}: expected a list, got {value!r}")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _scenario_from_mapping(index: int, raw: dict) -> Scenario:
    where = f"scenarios[{index}]"
    _object(raw, where, ("id", "sample_sizes", "true_rates", "pattern", "size_family"),
            ("fixed_responses",))
    # the id keys the scenario's data streams: a JSON integer, never truncated
    sid = raw["id"]
    if type(sid) is not int or sid < 0:
        raise CatalogError(f"{where}.id: expected a nonnegative integer, got {sid!r}")
    fixed = raw.get("fixed_responses")
    sizes = _json_list(raw["sample_sizes"], f"{where}.sample_sizes", _json_int)
    rates = _json_list(raw["true_rates"], f"{where}.true_rates", _json_number)
    if fixed is not None:
        fixed = _json_list(fixed, f"{where}.fixed_responses", _json_int)
    try:
        return Scenario(id=sid, sample_sizes=sizes, true_rates=rates,
                        pattern=str(raw["pattern"]), size_family=str(raw["size_family"]),
                        fixed_responses=fixed)
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from exc


def load_catalog(path: str | None = None, config: dict | None = None) -> list[Scenario]:
    """The builtin Table-1 catalog, or the scenarios of a config file (read from
    ``path`` unless its parsed ``config`` is passed)."""
    if config is None:
        config = load_config(path)[0] if path else {}
    if "scenarios" not in config:
        return builtin_catalog()
    if not isinstance(config["scenarios"], list):
        raise CatalogError(f"config {path}: scenarios must be a list")
    if not config["scenarios"]:
        raise CatalogError(f"config {path}: scenarios is an empty list")
    scenarios = [_scenario_from_mapping(i, raw) for i, raw in enumerate(config["scenarios"])]
    # ids key the data streams, so they must be unique; a family is calibrated
    # on its null and evaluated as one outcome table, so it has one size vector
    for i, scenario in enumerate(scenarios):
        if any(other.id == scenario.id for other in scenarios[:i]):
            raise CatalogError(f"scenarios[{i}].id: duplicate scenario id {scenario.id}")
        first = next(s for s in scenarios if s.size_family == scenario.size_family)
        if first.sample_sizes != scenario.sample_sizes:
            raise CatalogError(f"size family {scenario.size_family} mixes sample sizes: "
                               f"scenario {first.id} has {list(first.sample_sizes)}, "
                               f"scenario {scenario.id} has {list(scenario.sample_sizes)}")
    return scenarios


def load_config(path: str) -> tuple[dict, str]:
    """A config file's object and the digest of the bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        config = json.loads(blob.decode("utf-8"))
    except OSError as exc:
        raise CatalogError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CatalogError(f"config {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    _object(config, f"config {path}", (), ("scenarios", "designs"))
    return config, hashlib.sha256(blob).hexdigest()[:16]


def design_params_from_mapping(design: str, raw: dict):
    """Parse one design's parameter object from a config file entry: the fields of
    its parameter type that have no default, each a finite JSON number."""
    if design not in REGISTRY:
        raise CatalogError(f"designs.{design}: unknown design")
    param_type = REGISTRY[design].params
    fields = () if param_type is type(None) else tuple(
        f.name for f in dataclasses.fields(param_type) if f.default is dataclasses.MISSING)
    _object(raw, f"designs.{design}", fields, ("lambda",))
    values = {name: _json_number(raw[name], f"designs.{design}.{name}") for name in fields}
    try:
        return None if param_type is type(None) else param_type(**values)
    except ValueError as exc:  # each parameter type names the offending field first
        raise CatalogError(f"designs.{design}.{exc}") from exc


def _params_to_json(params) -> str:
    if params is None:
        return "{}"
    return json.dumps(dataclasses.asdict(params), sort_keys=True)


# ---------------------------------------------------------------------------
# Selection helpers
# ---------------------------------------------------------------------------


def _named(selector: str, names, what: str) -> str:
    """The one of ``names`` that ``selector`` spells, in any case."""
    by_lower = {name.lower(): name for name in names}
    if selector.lower() not in by_lower:
        raise CatalogError(f"unknown {what} {selector!r}")
    return by_lower[selector.lower()]


def select_scenarios(catalog: list[Scenario], selector: str) -> list[Scenario]:
    """The scenarios of ``catalog`` that ``selector`` names: ``all``, an id or a size
    family; a selector that names none of them is a usage error."""
    if selector == "all":
        return list(catalog)
    try:
        wanted = int(selector)
    except ValueError:
        family = _named(selector, SIZE_FAMILIES, "scenario selector")
        chosen, what = [s for s in catalog if s.size_family == family], f"in size family {family}"
    else:
        chosen, what = [s for s in catalog if s.id == wanted], f"with id {wanted}"
    if not chosen:
        raise CatalogError(f"no scenario {what}")
    return chosen


def select_designs(selector: str) -> tuple[str, ...]:
    return DESIGNS if selector == "all" else (_named(selector, DESIGNS, "design"),)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: str, columns, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
    except OSError as exc:
        raise CatalogError(f"cannot write {path}: {exc.strerror}") from None


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _fmt_lambda(lam: float) -> str:
    """Three decimals for a threshold on the 0.001 grid, else every digit of it."""
    text = f"{lam:.3f}"
    return text if float(text) == lam else repr(lam)


def design_configs(config: dict) -> dict[str, DesignConfig]:
    """Every entry of a config's ``designs`` object, each checked up front."""
    configs = {}
    for design, raw in _object(config.get("designs", {}), "designs", (), None).items():
        params = design_params_from_mapping(design, raw)
        lam = _json_number(raw["lambda"], f"designs.{design}.lambda") if "lambda" in raw else None
        try:
            configs[design] = DesignConfig(design, params, lambda_=lam)
        except ConfigurationError as exc:  # a parsed entry can fail only lambda's range
            raise CatalogError(f"designs.{design}.{exc}") from exc
    return configs


def _load(args: argparse.Namespace) -> tuple[list[Scenario], dict[str, DesignConfig], str]:
    """The catalog, the configured designs and the header of the run's CSV files, from one
    read of the config file: the header hashes the flags that affect results and the
    bytes that were parsed."""
    config, digest = load_config(args.config) if args.config else ({}, None)
    payload = {
        "command": args.command,
        "seed": args.seed,
        "reps": args.reps,
        "designs": list(args.designs),
        "scenarios": args.scenario,
        "p0": args.p0,
        "alpha": args.alpha,
        "config": digest,
    }
    key = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    header = (f"# basketsim v{__version__} command={args.command} "
              f"seed={args.seed} reps={args.reps} config_hash={key}")
    return load_catalog(args.config, config), design_configs(config), header


def _families(catalog: list[Scenario], selector: str):
    """(size family, its selected scenarios, all its scenarios) in first-seen order."""
    selected = select_scenarios(catalog, selector)
    for family in dict.fromkeys(s.size_family for s in selected):
        yield (family, [s for s in selected if s.size_family == family],
               [s for s in catalog if s.size_family == family])


def command_study(args: argparse.Namespace) -> None:
    """``simulate`` writes each selected scenario's operating characteristics under each
    design to oc.csv; ``calibrate`` writes each family's lambda and null FWER under each
    design to lambdas.csv, always calibrating, so a lambda fixed in the config is dropped.
    Each family's outcome table, of its null and the selected scenarios (the null alone
    for calibrate), is built once and read by every design."""
    catalog, configured, header = _load(args)
    calibrate = args.command == "calibrate"
    rows = []
    for family, scenarios, members in _families(catalog, args.scenario):
        null = null_scenario(members, args.p0)
        table = outcome_table([null] if calibrate else [null, *scenarios], args.reps, args.seed)
        for design in args.designs:
            config = configured.get(design, DesignConfig(design, REGISTRY[design].presets[family]))
            lam, ocs = study(config.with_lambda(None) if calibrate else config, table,
                             args.p0, args.alpha, args.jobs)
            param_json = _params_to_json(config.params)
            if calibrate:  # the table holds the null alone
                rows.append([family, design, _fmt_lambda(lam), _fmt(ocs[0].fwer), param_json])
                continue
            by_scenario = dict(zip(table.counts, ocs))
            for scenario in scenarios:
                oc = by_scenario[scenario]
                for k in range(scenario.k):
                    rows.append([
                        scenario.id, scenario.size_family, scenario.pattern,
                        design, k + 1, scenario.sample_sizes[k],
                        _fmt(scenario.true_rates[k]),
                        _fmt(oc.rejection_rate[k]), _fmt(oc.bias[k]),
                        _fmt(oc.ecd_mean), _fmt(oc.fwer),
                        _fmt_lambda(lam), param_json,
                    ])
    if calibrate:
        _write_csv(os.path.join(args.out, "lambdas.csv"), header,
                   ("size_family", "design", "lambda", "null_fwer", "param_json"), rows)
    else:
        _write_csv(os.path.join(args.out, "oc.csv"), header, CSV_COLUMNS, rows)


def command_tune(args: argparse.Namespace) -> None:
    # the designs are checked, though tune searches its own grid
    catalog, _, header = _load(args)
    rows = []
    for family, _, members in _families(catalog, args.scenario):
        table = outcome_table(members, args.reps, args.seed)
        for design in args.designs:
            result = grid_search(design, table, alpha=args.alpha, p0=args.p0, jobs=args.jobs)
            for i, rec in enumerate(result.records):
                ecds = [*(rec.pattern_ecd.get(pattern) for pattern in PATTERNS), rec.mean_ecd]
                rows.append([family, design, _params_to_json(rec.params),
                             "" if rec.lambda_ is None else _fmt_lambda(rec.lambda_),
                             *("" if ecd is None else _fmt(ecd) for ecd in ecds),
                             int(i == result.selected_index)])
    _write_csv(
        os.path.join(args.out, "tuning.csv"), header,
        ("size_family", "design", "param_json", "lambda",
         *(f"ecd_{p.lower()}" for p in PATTERNS), "mean_ecd", "selected"),
        rows,
    )


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


_REPORTED = {"basket_index": int, "rejection_rate": float, "bias": float,
             "ecd_mean": float, "fwer": float}  # the oc.csv fields report parses


def _read_oc_csv(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise CatalogError(f"no stored results at {path}; run simulate first")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            numbered = [(i, line) for i, line in enumerate(fh, 1) if not line.startswith("#")]
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise CatalogError(f"cannot read {path}: {exc.strerror}") from None
    reader = csv.DictReader(io.StringIO("".join(line for _, line in numbered)))
    if not set(CSV_COLUMNS) <= set(reader.fieldnames or ()):
        raise CatalogError(f"{path} lacks the oc.csv columns {','.join(CSV_COLUMNS)}")
    rows = []
    for row in reader:
        for column, parse in _REPORTED.items():
            try:
                parse(row[column])
            except (TypeError, ValueError):
                line = numbered[reader.line_num - 1][0]
                raise CatalogError(f"{path} line {line}, column {column}: expected a number, "
                                   f"got {row[column]!r}") from None
        rows.append(row)
    return rows


def render_table(rows: list[dict], family: str, table: str) -> str:
    """One of report's tables of a size family's oc.csv rows: ``ecd`` has a row per design
    with its ECD under each pattern and the mean ECD, as ``tuning.ecd_summary`` gives them;
    ``rejection`` and ``bias`` have a row per scenario and design with each basket's rate or
    bias, and the rejection rates end in the FWER."""
    cells = {}  # (scenario id, design, basket index) -> the last oc.csv row read for it
    for r in rows:
        cells[r["scenario_id"], r["design"], int(r["basket_index"])] = r
    patterns = {r["scenario_id"]: r["pattern"] for r in rows}
    by_pattern = {p: [s for s in patterns if patterns[s] == p] for p in PATTERNS}
    designs = [d for d in DESIGNS if any(key[1] == d for key in cells)]
    body = []  # (label cells, value cells), a missing value as None
    if table == "ecd":
        width, header = 11, ["Design", *PATTERNS, "Mean"]
        for design in designs:
            pattern_ecd, mean = ecd_summary(
                (pattern, float(cells[s, design, 1]["ecd_mean"]))
                for pattern, scenarios in by_pattern.items() for s in scenarios
                if (s, design, 1) in cells)
            body.append(([design], [*map(pattern_ecd.get, PATTERNS), mean]))
    else:
        sizes = {k: r["n"] for (_, _, k), r in cells.items()}
        baskets = sorted(sizes)
        width = 15
        header = ["Pattern", "Design", *(f"Basket {k} (n={sizes[k]})" for k in baskets)]
        column = "rejection_rate" if table == "rejection" else "bias"
        for pattern, scenarios in by_pattern.items():
            for s, design in itertools.product(scenarios, designs):
                if (s, design, baskets[0]) in cells:
                    row = [cells[s, design, k] for k in baskets]
                    values = [float(r[column]) for r in row]
                    if table == "rejection":
                        values.append(float(row[-1]["fwer"]))
                    body.append(([pattern if len(scenarios) == 1 else f"{pattern} #{s}",
                                  design], values))
        if table == "rejection":
            header.append("FWER")
    title = {"ecd": "ECD", "rejection": "Rejection rates", "bias": "Bias"}[table]
    out = [f"{title}, {family} scenario", "  ".join(f"{h:>{width}s}" for h in header)]
    for labels, values in body:
        out.append("  ".join([f"{x:>{width}s}" for x in labels] + [
            f"{'-':>{width}s}" if v is None else f"{v:>{width}.3f}" for v in values]))
    return "\n".join(out) + "\n"


def render_weights_table() -> list[list]:
    """Weight curves for external plotting: CPP logistic and JSD decay."""
    rows = []
    for a, b in [(1.0, 1.0), (2.0, 3.0), (4.0, 4.5)]:
        params = CppParams(a, b)
        for n_k, n_i in [(10, 10), (10, 30), (10, 50)]:
            # basket k has no responses; basket i's rate steps from 0 to 1 by 0.01
            r_i = [round(step / 100.0 * n_i) for step in range(101)]
            scaled = scaled_ks_matrix([[0, r] for r in r_i], (n_k, n_i))
            weights = cpp_weights_from_scaled(scaled, params)[:, 0, 1].tolist()
            for r, w in zip(r_i, weights):
                rows.append([
                    "CPP", json.dumps({"a": a, "b": b}), n_k, n_i, _fmt(r / n_i), _fmt(w),
                ])
    for epsilon in (0.5, 1.0, 2.0, 3.0):
        for step in range(0, 101):
            jsd = step / 100.0
            rows.append([
                "Fujikawa", json.dumps({"epsilon": epsilon}), "", "",
                _fmt(jsd), _fmt((1.0 - jsd) ** epsilon),
            ])
    return rows


def command_report(args: argparse.Namespace) -> None:
    _, _, header = _load(args)  # --config is read and checked as by every command
    if args.table == "weights":
        rows = render_weights_table()
        _write_csv(
            os.path.join(args.out, "weights.csv"), header,
            ("design", "param_json", "n_k", "n_i", "statistic", "weight"), rows,
        )
        return
    family = _named(args.family, SIZE_FAMILIES, "size family")
    path = os.path.join(args.out, "oc.csv")
    rows = [r for r in _read_oc_csv(path) if r["size_family"] == family]
    if not rows:
        raise CatalogError(f"{path} holds no {family} rows")
    sys.stdout.write(render_table(rows, family, args.table))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketsim",
        description="Simulation engine for Bayesian basket-trial designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("simulate", command_study), ("calibrate", command_study),
                          ("tune", command_tune), ("report", command_report)):
        cmd = sub.add_parser(name)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--design", default="all", help="design name or 'all'")
        cmd.add_argument("--scenario", default="all",
                         help="scenario id, size family, or 'all'")
        cmd.add_argument("--reps", type=int, default=10_000)
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--jobs", type=int, default=1)
        cmd.add_argument("--out", default="out")
        cmd.add_argument("--mcmc-samples", help="accepted and ignored")
        cmd.add_argument("--alpha", type=float, default=0.05)
        cmd.add_argument("--p0", type=float, default=0.15)
        if name == "report":
            cmd.add_argument("--table", default="ecd",
                             choices=("ecd", "rejection", "bias", "weights"))
            cmd.add_argument("--family", default="grouped")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric flags and an unknown design as usage errors; set
    ``args.designs`` to the selected designs."""
    if not 1 <= args.reps <= MAX_REPS:
        raise CatalogError(f"--reps must lie in [1, {MAX_REPS}], got {args.reps}")
    if args.seed < 0:
        raise CatalogError(f"--seed must be nonnegative, got {args.seed}")
    if not 0.0 < args.p0 < 1.0:
        raise CatalogError(f"--p0 must lie in (0, 1), got {args.p0}")
    if not 0.0 < args.alpha < 1.0:
        raise CatalogError(f"--alpha must lie in (0, 1), got {args.alpha}")
    args.designs = select_designs(args.design)


def main(argv: list[str] | None = None) -> int:
    """Run one command; usage errors exit 2, numeric failures 3."""
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise CatalogError(f"cannot create --out {args.out}: {exc.strerror}") from None
        args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BasketSimError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
