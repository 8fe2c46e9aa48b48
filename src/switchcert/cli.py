"""Command-line entry point.

Subcommands::

    switchcert run SCENARIO [--out DIR] [--horizon H] [--seed N]
    switchcert simulate SCENARIO [--out DIR] [--horizon H] [--seed N]
    switchcert omega SCENARIO [--out DIR] [--horizon H] [--seed N]
    switchcert validate SIGNAL_FILE TAU_D N0

SCENARIO is either a built-in id (see ``scenarios/``) or the path of an
INI scenario file; the commented reference files under ``scenarios/``
document the schema.  ``simulate`` and ``omega`` are selections of the
artifacts ``run`` writes, computed the same way, and every subcommand
computes all of its artifacts before it creates the output directory.
Scientific outcomes are data, not process failures: ``run`` exits 0
even when the verdict is negative.  Exit code 2 marks an unreadable or
invalid input (nothing is written), 3 a simulation failure: blow-up, a
chattering feedback rule or a failed stepper.
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .invariance import omega_limit, omega_sharp, project_states
from .lyapunov import check_strict_decrease
from .reports import read_utf8
from .scenarios import (
    CheckSettings,
    FeedbackSource,
    FileSource,
    GeneratedSource,
    Scenario,
    builtin_scenario,
    polar_grid,
    scenario_names,
)
from .signals import AdtClass, SignalFormatError, load_signal, save_signal, validate_adt
from .stability import guas_report, simulate_batch
from .systems import (
    ChatteringError,
    FiniteEscapeError,
    IntegratorOptions,
    StiffnessError,
    write_trajectory_csv,
)


class SchemaError(ValueError):
    """Scenario file violates the documented schema."""


def _number(text: str, kind=float, noun: str = "a number"):
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"must be {noun}, got {text!r}") from None
    if math.isnan(value):
        raise ValueError("must not be NaN")
    return value


_integer = partial(_number, kind=int, noun="an integer")


def _points(text: str) -> np.ndarray:
    try:
        return np.array([[float(v) for v in chunk.split()]
                         for chunk in text.split(",") if chunk.strip()])
    except ValueError:
        raise ValueError("must be ','-separated coordinate lists") from None


def _directory(text: str) -> str:
    """An artifact directory: the path, or its first existing ancestor, is one."""
    path = Path(text.strip())
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise ValueError(f"must be a directory; {str(found)!r} is not one")
    return text.strip()


def _source(text: str) -> str:
    if text not in ("feedback", "generate", "file"):
        raise ValueError(f"must be feedback, generate or file, got {text!r}")
    return text


# The schema: section -> key -> parser of its text, raising ValueError with a message
# that follows the key; the classes fed check the ranges.  No key is in two sections.
_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "scenario": {"system": str.strip, "horizon": _number, "output": _directory,
                 "seed": _integer},
    "initial_conditions": {"radii": lambda text: [_number(v) for v in text.split()],
                           "angles": _integer, "points": _points},
    "signal": {"source": _source, "tau_d": _number, "n0": _integer, "count": _integer,
               "paths": str.split},
    "tolerances": {f.name: _integer if f.name == "max_switches" else _number
                   for cls in (IntegratorOptions, CheckSettings) for f in fields(cls)},
}
_PARSERS = {key: parse for keys in _SCHEMA.values() for key, parse in keys.items()}

Entry = tuple[str, str, str]  # key, text, location: a file's "path:line" or an option


def _scan(path: str, text: str) -> dict:
    """``path:line`` of each ``[section]`` header and each (section, key), the key
    read as configparser reads it: lower-cased, before the first ``=`` or ``:``."""
    where, section = {}, None
    for n, line in enumerate(text.split("\n"), start=1):
        # comment lines give keys starting with '#' or ';', which no real key does
        line = re.split(r"\s[#;]", line, maxsplit=1)[0].strip()
        if line.startswith("[") and "]" in line:
            section = line[1:line.rindex("]")]
            where.setdefault(section, f"{path}:{n}")
        else:
            key = re.split("[=:]", line, maxsplit=1)[0].strip().lower()
            where.setdefault((section, key), f"{path}:{n}")
    return where


def _read(path: str) -> tuple[list[Entry], dict[str, str]]:
    """Each key of an INI scenario file with its text and location, and each section's."""
    text = read_utf8(path, SchemaError)
    # no interpolation ("out%1" is literal); no section is named "", so [DEFAULT] is plain
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                       default_section="")
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        # ParsingError carries its lines in .errors, the other errors in .lineno
        line = getattr(exc, "lineno", None) or getattr(exc, "errors", [(0,)])[0][0]
        raise SchemaError(f"{path}:{line}: {str(exc).splitlines()[0]}") from None

    where = _scan(path, text)
    entries, headers = [], {}
    for section in parser.sections():
        headers[section] = where[section]
        if section not in _SCHEMA:
            raise SchemaError(f"{where[section]}: unknown section [{section}]")
        for key, value in parser[section].items():
            if key not in _SCHEMA[section]:
                raise SchemaError(f"{where[section, key]}: unknown key {key!r} in [{section}]")
            entries.append((key, value, where[section, key]))
    if "scenario" not in headers:
        raise SchemaError(f"{path}:1: missing [scenario] section")
    return entries, headers


def _build(entries: list[Entry], headers: dict[str, str],
           root: Path) -> tuple[Scenario, str | None]:
    """Scenario and output directory (or None) from keyed texts.  A later entry of a
    key overrides an earlier one; each fault is reported where its key is."""
    values, at = {}, {}
    for key, text, where in entries:
        try:
            values[key], at[key] = _PARSERS[key](text), where
        except ValueError as exc:
            raise SchemaError(f"{where}: {key} {exc}") from None

    def need(section: str, key: str):
        if key not in values:
            raise SchemaError(f"{headers[section]}: missing required key {key!r} in [{section}]")
        return values[key]

    system = need("scenario", "system")
    kind = need("signal", "source") if "signal" in headers else None
    for key in {"generate": ("tau_d", "n0"), "file": ("paths",)}.get(kind, ()):
        need("signal", key)
    try:
        scenario = builtin_scenario(system)
        if kind == "feedback" and not isinstance(scenario.source, FeedbackSource):
            raise ValueError(f"source {kind!r}: system {system!r} does not define a feedback rule")
        changes = {"horizon": values["horizon"]} if "horizon" in values else {}
        if "points" in values:
            changes["initial_states"] = values["points"]
        elif "radii" in values:
            changes["initial_states"] = polar_grid(values["radii"], values.get("angles", 4))
        source = scenario.source
        if kind == "generate":
            source = GeneratedSource(AdtClass(values["tau_d"], values["n0"]),
                                     count=values.get("count", 8))
        elif kind == "file":
            source = FileSource(tuple(load_signal(root / p)[0] for p in values["paths"]))
        if "seed" in values and isinstance(source, GeneratedSource):
            source = replace(source, seed=values["seed"])
        for part in ("integrator", "checks"):
            settings = getattr(scenario, part)
            changes[part] = replace(settings, **{f.name: values[f.name]
                                                 for f in fields(settings) if f.name in values})
        scenario = replace(scenario, source=source, **changes)
    except (OSError, ValueError) as exc:
        # the message starts with the field at fault: a key, a field named for keys, or
        # signals[i], the signal read from the i-th file of paths.  A signal file that
        # cannot be read or parsed is a fault of paths too, and its message names the
        # file; any other message (an unknown system) is the system's
        text = f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) else str(exc)
        if found := re.match(r"signals\[(\d+)\]", text):
            text = f"{root / values['paths'][int(found[1])]}{text[found.end():]}"
        if found or isinstance(exc, (OSError, SignalFormatError)):
            text = f"paths: {text}"
        name = re.match(r"\w*", text)[0]
        alias = {"signals": "paths", "initial_states": "points" if "points" in values else "radii"}
        raise SchemaError(f"{at.get(alias.get(name, name), at['system'])}: {text}") from None
    return scenario, values.get("output") or None


def load_scenario_file(path: str) -> tuple[Scenario, str | None]:
    """Parse an INI scenario file into (Scenario, output dir or None)."""
    return _build(*_read(path), Path(path).parent)


def _resolve_scenario(args) -> tuple[Scenario, Path]:
    """Scenario plus output directory from CLI arguments: a file, or a built-in id read
    as a file holding only ``system``; ``--horizon``, ``--seed`` and ``--out`` are the
    values of the keys ``horizon``, ``seed`` and ``output``."""
    name = args.scenario
    if Path(name).is_file():
        entries, headers = _read(name)
    elif name in scenario_names():
        entries, headers = [("system", name, name)], {"scenario": name}
    else:
        raise SchemaError(f"{name}: not a readable file and not a built-in scenario "
                          f"(built-ins: {', '.join(scenario_names())})")
    options = (("horizon", args.horizon, "--horizon"), ("seed", args.seed, "--seed"),
               ("output", args.out, "--out"))
    entries += [(key, str(value), where) for key, value, where in options if value is not None]
    scenario, out = _build(entries, headers, Path(name).parent)
    try:
        return scenario, Path(out or _directory(f"artifacts_{scenario.name}"))
    except ValueError as exc:  # the default directory, named for the scenario
        raise SchemaError(f"{name}: output {exc}") from None


# artifact file name -> writer taking the file's path
Artifacts = dict[str, Callable[[Path], None]]


def _trajectory_artifacts(scenario: Scenario, batch) -> Artifacts:
    files: Artifacts = {}
    for k, traj in enumerate(batch.trajectories):
        files[f"trajectory_{k:03d}.csv"] = partial(write_trajectory_csv, traj, V=scenario.V)
        files[f"signal_{k:03d}.txt"] = partial(save_signal, traj.signal, scenario.system.modes)
    return files


def _omega_artifacts(scenario: Scenario, batch) -> tuple[list, Artifacts]:
    """Omega and omega-sharp estimates of every trajectory, and their files."""
    checks = scenario.checks
    estimates, files = [], {}
    for k, traj in enumerate(batch.trajectories):
        est = omega_limit(traj, checks.tail_fraction, checks.cluster_tol)
        sharp = omega_sharp(traj, checks.tail_fraction, checks.cluster_tol)
        estimates.append((est, sharp))
        files[f"omega_{k:03d}.csv"] = est.to_csv
        files[f"omega_sharp_{k:03d}.csv"] = sharp.to_csv
    return estimates, files


def _write(out: Path, files: Artifacts) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)


def cmd_run(args) -> int:
    scenario, out = _resolve_scenario(args)
    batch = simulate_batch(scenario)
    files = _trajectory_artifacts(scenario, batch)
    files.update(_omega_artifacts(scenario, batch)[1])
    report = guas_report(scenario, batch)
    strict = check_strict_decrease(scenario.V, scenario.system, scenario.region)
    files["classk_envelope.csv"] = report.classk.to_csv
    files["strict_decrease.csv"] = strict.to_csv
    files["uniform_envelope.csv"] = report.uniform.to_csv
    body = report.to_text() + "\nartifacts:\n" + "".join(f"  {f}\n" for f in sorted(files))
    records = "\n".join(report.to_records()) + "\n"
    files["guas_report.txt"] = lambda path: path.write_text(body)
    files["guas_report.kv"] = lambda path: path.write_text(records)
    _write(out, files)
    print(body, end="")
    print(f"report written to {out}/guas_report.txt")
    return 0


def cmd_simulate(args) -> int:
    scenario, out = _resolve_scenario(args)
    batch = simulate_batch(scenario)
    files = _trajectory_artifacts(scenario, batch)
    _write(out, files)
    print(f"{len(batch)} trajectories written to {out} ({len(files)} files)")
    return 0


def cmd_omega(args) -> int:
    scenario, out = _resolve_scenario(args)
    batch = simulate_batch(scenario)
    estimates, files = _omega_artifacts(scenario, batch)
    lines = [
        f"trajectory {k:03d}: {est.points.shape[0]} limit points, "
        f"{sharp.modes.size} state-mode pairs, {project_states(sharp).shape[0]} projected states"
        for k, (est, sharp) in enumerate(estimates)
    ]
    _write(out, files)
    print("\n".join(lines + [f"estimates written to {out}"]))
    return 0


def cmd_validate(args) -> int:
    try:
        signal, _modes = load_signal(args.signal_file)
        adt = AdtClass(args.tau_d, args.n0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = validate_adt(signal, adt)
    if verdict.passed:
        print(f"valid: {signal.n_switches} switches within "
              f"class(tau_d={adt.tau_d:g}, n0={adt.n0})")
        return 0
    a, b, count, bound = verdict.witness
    print(f"invalid: interval ({a:.17g}, {b:.17g}) contains {count} switches, "
          f"bound is {bound:.17g}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchcert",
        description="Simulate and certify switched systems under dwell-time switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
        ("run", cmd_run, "simulate, estimate, certify; write all artifacts"),
        ("simulate", cmd_simulate, "trajectories and realized signals only"),
        ("omega", cmd_omega, "limit-set estimates only"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("scenario", help="built-in id or scenario .ini path")
        p.add_argument("--out", help="artifact directory")
        p.add_argument("--horizon", type=float, default=None, help="override horizon")
        p.add_argument("--seed", type=int, default=None,
                       help="override base seed for generated signals")
        p.set_defaults(func=func)

    p_val = sub.add_parser("validate", help="check a signal file against an ADT class")
    p_val.add_argument("signal_file")
    p_val.add_argument("tau_d", type=float)
    p_val.add_argument("n0", type=int)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except FiniteEscapeError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return 3
    except (ChatteringError, StiffnessError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
