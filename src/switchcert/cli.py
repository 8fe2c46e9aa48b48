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
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .invariance import omega_limit, omega_sharp, project_states
from .lyapunov import check_strict_decrease
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


_SCENARIO_KEYS = {"system", "horizon", "output", "seed"}
_IC_KEYS = {"radii", "angles", "points"}
_SIGNAL_KEYS = {"source", "tau_d", "n0", "count", "paths"}
# every IntegratorOptions and CheckSettings field; their ranges are checked there
_TOL_KEYS = {f.name for cls in (IntegratorOptions, CheckSettings) for f in fields(cls)}


def _locate(text: str, token: str) -> int:
    """1-based line number of the first line defining or naming ``token``."""
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith(f"[{token}]") or stripped.split("=")[0].strip() == token:
            return i
    return 0


def _fail_schema(path: str, text: str, token: str, message: str) -> None:
    line = _locate(text, token)
    raise SchemaError(f"{path}:{line}: {message}")


def _required(path: str, text: str, section, key: str) -> str:
    """Value of a required key; a missing key is reported at its section header."""
    if key not in section:
        _fail_schema(path, text, section.name, f"missing required key {key!r} in [{section.name}]")
    return section[key]


def load_scenario_file(path: str) -> tuple[Scenario, str | None]:
    """Parse an INI scenario file into (Scenario, output dir or None)."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise SchemaError(f"{path}:{line}: not UTF-8 text") from None
    # no interpolation: a value such as "out%1" is taken literally
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        # ParsingError carries its lines in .errors, the other errors in .lineno
        line = getattr(exc, "lineno", None) or getattr(exc, "errors", [(0,)])[0][0]
        raise SchemaError(f"{path}:{line}: {str(exc).splitlines()[0]}") from None

    known = {"scenario": _SCENARIO_KEYS, "initial_conditions": _IC_KEYS,
             "signal": _SIGNAL_KEYS, "tolerances": _TOL_KEYS}
    for section in parser.sections():
        if section not in known:
            _fail_schema(path, text, section, f"unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                _fail_schema(path, text, key, f"unknown key {key!r} in [{section}]")

    if "scenario" not in parser:
        raise SchemaError(f"{path}:1: missing [scenario] section")
    sec = parser["scenario"]
    system_id = _required(path, text, sec, "system").strip()
    try:
        scenario = builtin_scenario(system_id)
    except ValueError as exc:
        _fail_schema(path, text, "system", str(exc))

    overrides: dict = {}
    if "horizon" in sec:
        overrides["horizon"] = _parse_float(path, text, "horizon", sec["horizon"])

    if "initial_conditions" in parser:
        ic = parser["initial_conditions"]
        if "points" in ic:
            try:
                pts = [[float(v) for v in chunk.split()]
                       for chunk in ic["points"].split(",") if chunk.strip()]
                overrides["initial_states"] = np.array(pts)
            except ValueError:
                _fail_schema(path, text, "points", "points must be ','-separated coordinate lists")
        elif "radii" in ic:
            radii = [_parse_float(path, text, "radii", v) for v in ic["radii"].split()]
            n_angles = _parse_int(path, text, "angles", ic.get("angles", "4"))
            overrides["initial_states"] = polar_grid(radii, n_angles)

    if "signal" in parser:
        sig = parser["signal"]
        kind = sig.get("source", "").strip()
        if kind == "feedback":
            if not isinstance(scenario.source, FeedbackSource):
                _fail_schema(path, text, "source",
                             f"system {system_id!r} does not define a feedback rule")
        elif kind == "generate":
            tau_d = _parse_float(path, text, "tau_d", _required(path, text, sig, "tau_d"))
            n0 = _parse_int(path, text, "n0", _required(path, text, sig, "n0"))
            count = _parse_int(path, text, "count", sig.get("count", "8"))
            base = _parse_int(path, text, "seed", sec.get("seed", "0"))
            try:
                overrides["source"] = GeneratedSource(
                    AdtClass(tau_d, n0), seeds=tuple(range(base, base + count))
                )
            except ValueError as exc:
                key = str(exc).split()[0]  # tau_d, n0 or seed; "seeds" is empty: count
                _fail_schema(path, text, key if _locate(text, key) else "count", str(exc))
        elif kind == "file":
            paths = _required(path, text, sig, "paths").split()
            root = Path(path).parent
            try:
                overrides["source"] = FileSource(tuple(str(root / p) for p in paths))
            except ValueError as exc:
                _fail_schema(path, text, "paths", str(exc))
        elif kind:
            _fail_schema(path, text, "source",
                         f"unknown signal source {kind!r} (feedback | generate | file)")

    if "tolerances" in parser:
        tol = parser["tolerances"]
        settings = {"integrator": scenario.integrator, "checks": scenario.checks}
        for key in tol:
            parse = _parse_int if key == "max_switches" else _parse_float
            value = parse(path, text, key, tol[key])
            target = "integrator" if hasattr(scenario.integrator, key) else "checks"
            try:
                settings[target] = replace(settings[target], **{key: value})
            except ValueError as exc:
                _fail_schema(path, text, key, str(exc))
        overrides.update(settings)

    try:
        scenario = replace(scenario, **overrides) if overrides else scenario
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}")
    out = sec.get("output", "").strip()
    return scenario, out or None


def _parse_float(path: str, text: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        _fail_schema(path, text, key, f"{key} must be a number, got {raw!r}")
    if math.isnan(value):
        _fail_schema(path, text, key, f"{key} must not be NaN")
    return value


def _parse_int(path: str, text: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        _fail_schema(path, text, key, f"{key} must be an integer, got {raw!r}")


def _resolve_scenario(args) -> tuple[Scenario, Path]:
    """Scenario plus output directory from CLI arguments."""
    name = args.scenario
    if Path(name).is_file():
        scenario, out = load_scenario_file(name)
    elif name in scenario_names():
        scenario, out = builtin_scenario(name), None
    else:
        raise SchemaError(
            f"{name}: not a readable file and not a built-in scenario "
            f"(built-ins: {', '.join(scenario_names())})"
        )
    try:
        if args.horizon is not None:
            option = "--horizon"
            scenario = replace(scenario, horizon=args.horizon)
        if args.seed is not None and isinstance(scenario.source, GeneratedSource):
            option, src = "--seed", scenario.source
            seeds = tuple(args.seed + i for i in range(len(src.seeds)))
            scenario = replace(scenario, source=GeneratedSource(src.adt, seeds))
    except ValueError as exc:
        raise SchemaError(f"{option}: {exc}") from None
    out_dir = Path(args.out) if args.out else Path(out or f"artifacts_{scenario.name}")
    return scenario, out_dir


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
    except (SignalFormatError, OSError, ValueError) as exc:
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
    except SignalFormatError as exc:
        print(f"signal error: {exc}", file=sys.stderr)
        return 2
    except FiniteEscapeError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return 3
    except (ChatteringError, StiffnessError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
