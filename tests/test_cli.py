import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from switchcert.cli import load_scenario_file, main
from switchcert.scenarios import GeneratedSource
from switchcert.signals import ModeSet, SwitchingSignal, save_signal

REPO = Path(__file__).resolve().parents[1]


def write(tmp_path, text, name="scn.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- scenario file parsing -------------------------------------------------------


def test_load_reference_scenario_files():
    for name in ("example1", "example2", "two_centers"):
        scenario, out = load_scenario_file(str(REPO / "scenarios" / f"{name}.ini"))
        assert scenario.name == name
        assert out == f"artifacts_{name}"


def test_scenario_file_overrides(tmp_path):
    path = write(tmp_path, """
[scenario]
system = example1
horizon = 12.5

[initial_conditions]
points = 1 0, 0 1

[tolerances]
rtol = 1e-8
cluster_tol = 0.05
""")
    scenario, _ = load_scenario_file(path)
    assert scenario.horizon == 12.5
    assert np.array_equal(scenario.initial_states, [[1.0, 0.0], [0.0, 1.0]])
    assert scenario.integrator.rtol == 1e-8
    assert scenario.checks.cluster_tol == 0.05


def test_scenario_file_generated_source(tmp_path):
    path = write(tmp_path, """
[scenario]
system = example2
seed = 5

[signal]
source = generate
tau_d = 0.7
n0 = 2
count = 3
""")
    scenario, _ = load_scenario_file(path)
    src = scenario.source
    assert isinstance(src, GeneratedSource)
    assert src.adt.tau_d == 0.7 and src.adt.n0 == 2
    assert src.seeds == (5, 6, 7)


def test_schema_error_reports_line(tmp_path):
    from switchcert.cli import SchemaError

    path = write(tmp_path, "[scenario]\nsystem = example1\nhorizon = banana\n")
    with pytest.raises(SchemaError) as err:
        load_scenario_file(path)
    assert ":3:" in str(err.value)


def test_schema_rejects_unknown_key(tmp_path):
    from switchcert.cli import SchemaError

    path = write(tmp_path, "[scenario]\nsystem = example1\nwarp = 9\n")
    with pytest.raises(SchemaError):
        load_scenario_file(path)


# -- validate subcommand -----------------------------------------------------------


def test_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    save_signal(SwitchingSignal(np.array([1.0, 2.0, 3.0]), np.array([1, 2, 1, 2]), 10.0),
                ModeSet(2), good)
    assert main(["validate", str(good), "1.0", "1"]) == 0
    assert "valid" in capsys.readouterr().out

    chatter = tmp_path / "chatter.txt"
    save_signal(SwitchingSignal(np.array([1.0, 1.01]), np.array([1, 2, 1]), 10.0),
                ModeSet(2), chatter)
    assert main(["validate", str(chatter), "1.0", "1"]) == 1
    assert "invalid: interval" in capsys.readouterr().out

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["validate", str(empty), "1.0", "1"]) == 2
    assert main(["validate", str(tmp_path / "missing.txt"), "1.0", "1"]) == 2


# -- run / simulate / omega ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "small.ini"
    path.write_text("""
[scenario]
system = two_centers
horizon = 15.0

[initial_conditions]
points = 1 0, 0 0.5
""")
    return str(path), tmp


def test_run_artifacts_and_exit(small_scenario, capsys):
    path, tmp = small_scenario
    out = tmp / "run_out"
    assert main(["run", path, "--out", str(out)]) == 0
    report = (out / "guas_report.txt").read_text()
    assert "GUAS observed on batch: no" in report
    # every artifact referenced by the report exists on disk
    lines = report.splitlines()
    start = lines.index("artifacts:")
    for line in lines[start + 1:]:
        name = line.strip()
        if name:
            assert (out / name).is_file(), name
    kv = (out / "guas_report.kv").read_text().splitlines()
    assert "guas_observed=0" in kv
    assert "hypotheses_ok=1" in kv


def test_run_is_deterministic(small_scenario):
    path, tmp = small_scenario
    out1, out2 = tmp / "d1", tmp / "d2"
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_builtin_id(tmp_path):
    assert main(["run", "two_centers", "--horizon", "10",
                 "--out", str(tmp_path / "builtin")]) == 0


def test_run_schema_error_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "[scenario]\nsystem = unknown_system\n")
    assert main(["run", bad]) == 2
    assert "scenario error" in capsys.readouterr().err
    assert not (tmp_path / "artifacts_unknown_system").exists()


def test_run_malformed_ini_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "system = example1 no section header\n")
    assert main(["run", bad]) == 2


def test_run_missing_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.ini")]) == 2


def test_run_blow_up_exit_3(tmp_path, capsys):
    from switchcert.lyapunov import LyapunovCandidate
    from switchcert.scenarios import FeedbackSource, Scenario, register_scenario
    from switchcert.signals import ModeSet
    from switchcert.systems import Covering, FeedbackRule, IntegratorOptions, SwitchedSystem

    def build(**overrides):
        m = ModeSet(1)
        sys_ = SwitchedSystem(1, {1: lambda x: x ** 2}, m, Covering.trivial(m))
        return Scenario(
            name="escaper",
            system=sys_,
            V=LyapunovCandidate(value=lambda x, g: float(np.dot(x, x))),
            W=None,
            source=FeedbackSource(FeedbackRule(lambda x: 1, {1: lambda x: -1.0})),
            initial_states=np.array([[1.0]]),
            horizon=2.0,
            integrator=IntegratorOptions(max_dx=math.inf),
        )

    register_scenario("escaper", build)
    try:
        assert main(["run", "escaper", "--out", str(tmp_path / "esc")]) == 3
        assert "blow-up" in capsys.readouterr().err
    finally:
        from switchcert import scenarios

        scenarios._BUILTINS.pop("escaper", None)


def test_run_chattering_exit_3(tmp_path, capsys):
    scn = write(tmp_path, """
[scenario]
system = example1
horizon = 15.0

[tolerances]
max_switches = 2
""")
    out = tmp_path / "chatter_out"
    assert main(["run", scn, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "simulation failed" in err and "chatter" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_run_stiffness_exit_3(tmp_path, capsys):
    from switchcert.lyapunov import LyapunovCandidate
    from switchcert.scenarios import FeedbackSource, Scenario, register_scenario
    from switchcert.signals import ModeSet
    from switchcert.systems import Covering, FeedbackRule, SwitchedSystem

    def build(**overrides):
        m = ModeSet(1)
        sys_ = SwitchedSystem(1, {1: lambda x: np.full_like(x, np.nan)}, m, Covering.trivial(m))
        return Scenario(
            name="nan_field",
            system=sys_,
            V=LyapunovCandidate(value=lambda x, g: float(np.dot(x, x))),
            W=None,
            source=FeedbackSource(FeedbackRule(lambda x: 1, {1: lambda x: -1.0})),
            initial_states=np.array([[1.0]]),
            horizon=2.0,
        )

    register_scenario("nan_field", build)
    try:
        assert main(["run", "nan_field", "--out", str(tmp_path / "nan")]) == 3
        err = capsys.readouterr().err
        assert "simulation failed" in err and len(err.strip().splitlines()) == 1
    finally:
        from switchcert import scenarios

        scenarios._BUILTINS.pop("nan_field", None)


@pytest.mark.parametrize("key, value", [
    ("tail_fraction", "2"),
    ("cluster_tol", "0"),
    ("rtol", "-1"),
    ("atol", "0"),
    ("event_tol", "0"),
    ("max_dx", "0"),
    ("bound", "-1"),
    ("attraction_eps", "0"),
    ("attraction_radius", "-1"),
    ("probe_delta", "0"),
    ("lasalle_tol", "-1"),
    ("compliance_tol", "-1"),
    ("monotonicity_tol", "-1"),
    ("max_switches", "-1"),
])
def test_run_tolerance_out_of_range_exit_2(tmp_path, capsys, key, value):
    scn = write(tmp_path, f"""
[scenario]
system = two_centers
horizon = 5.0

[tolerances]
{key} = {value}
""")
    out = tmp_path / "bad_tol_out"
    assert main(["run", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and f"{key} must be" in err and ":7:" in err
    assert not out.exists() or not any(out.iterdir())


def _signal_ini(tmp_path, signal_horizon):
    """Scenario of horizon 15 reading one signal file; None leaves the file absent."""
    if signal_horizon is not None:
        save_signal(SwitchingSignal(np.array([2.0]), np.array([1, 2]), signal_horizon),
                    ModeSet(2), tmp_path / "sig.txt")
    return write(tmp_path, """
[scenario]
system = example1
horizon = 15.0

[initial_conditions]
points = 1 0

[signal]
source = file
paths = sig.txt
""")


def _generate_ini(tmp_path, tau_d="0.5", n0="2", count="2", seed="0"):
    """example2 under generated signals; the keys sit on lines 5 and 9-11."""
    return write(tmp_path, f"""
[scenario]
system = example2
horizon = 5.0
seed = {seed}

[signal]
source = generate
tau_d = {tau_d}
n0 = {n0}
count = {count}
""")


def _bytes_ini(tmp_path, data: bytes):
    path = tmp_path / "scn.ini"
    path.write_bytes(data)
    return str(path)


# bad inputs whose message must say where the fault is: a file line or an option
_LOCATED_BAD_INPUTS = [
    pytest.param(lambda tmp: [_generate_ini(tmp, tau_d="0")], "scn.ini:9:", id="tau_d_zero"),
    pytest.param(lambda tmp: [_generate_ini(tmp, n0="0")], "scn.ini:10:", id="n0_zero"),
    pytest.param(lambda tmp: [_generate_ini(tmp, seed="-3")], "scn.ini:5:", id="seed_negative"),
    pytest.param(lambda tmp: [_generate_ini(tmp), "--seed", "-5"], "--seed:",
                 id="seed_option_negative"),
    pytest.param(lambda tmp: [_generate_ini(tmp, count="0")], "scn.ini:11:", id="count_zero"),
    pytest.param(lambda tmp: [_generate_ini(tmp, count="-1")], "scn.ini:11:",
                 id="count_negative"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\n"
                                         "[signal]\nsource = file\npaths =\n")],
                 "scn.ini:5:", id="paths_empty"),
    pytest.param(lambda tmp: [write(tmp, "system = example1 no section header\n")],
                 "scn.ini:1:", id="no_section_header"),
    pytest.param(lambda tmp: [_bytes_ini(tmp, b"[scenario]\nsystem = example1\n# caf\xe9\n")],
                 "scn.ini:3:", id="not_utf8"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n"
                                         "[signal]\nsource = generate\nn0 = 2\n")],
                 "scn.ini:3: missing required key 'tau_d' in [signal]", id="tau_d_missing"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n\n"
                                         "[signal]\nsource = generate\ntau_d = 0.5\n")],
                 "scn.ini:4: missing required key 'n0' in [signal]", id="n0_missing"),
    pytest.param(lambda tmp: [write(tmp, "# no system\n\n[scenario]\nhorizon = 5\n")],
                 "scn.ini:3: missing required key 'system' in [scenario]", id="system_missing"),
]


@pytest.mark.parametrize("make_args", [
    pytest.param(lambda tmp: ["two_centers", "--horizon", "0"], id="horizon_zero"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "-1"], id="horizon_negative"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "nan"], id="horizon_nan"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "inf"], id="horizon_inf"),
    pytest.param(lambda tmp: [_signal_ini(tmp, None)], id="signal_file_missing"),
    pytest.param(lambda tmp: [_signal_ini(tmp, 10.0)], id="signal_horizon_mismatch"),
    *[pytest.param(p.values[0], id=p.id) for p in _LOCATED_BAD_INPUTS],
])
def test_bad_input_exit_2(tmp_path, capsys, make_args):
    argv = make_args(tmp_path)
    for command in ("run", "simulate", "omega"):
        out = tmp_path / f"{command}_out"
        assert main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("make_args, where", _LOCATED_BAD_INPUTS)
def test_bad_input_says_where(tmp_path, capsys, make_args, where):
    assert main(["run", *make_args(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err


def test_percent_in_value_is_literal(tmp_path, capsys):
    out = tmp_path / "out%1"
    scn = write(tmp_path, f"[scenario]\nsystem = two_centers\nhorizon = 2\noutput = {out}\n"
                          "[initial_conditions]\npoints = 1 0\n")
    assert main(["simulate", scn]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "trajectory_000.csv").is_file()


def test_simulate_writes_trajectories(small_scenario):
    path, tmp = small_scenario
    out = tmp / "sim_out"
    assert main(["simulate", path, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "trajectory_000.csv" in names and "signal_001.txt" in names
    assert not any(n.startswith("omega") for n in names)


def test_omega_writes_estimates(small_scenario, capsys):
    path, tmp = small_scenario
    out = tmp / "om_out"
    assert main(["omega", path, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "omega_000.csv" in names and "omega_sharp_001.csv" in names
    assert "limit points" in capsys.readouterr().out


def test_subcommands_are_selections_of_run(small_scenario):
    path, tmp = small_scenario
    dirs = {cmd: tmp / f"stage_{cmd}" for cmd in ("run", "simulate", "omega")}
    for cmd, out in dirs.items():
        assert main([cmd, path, "--out", str(out)]) == 0
    run_files = {p.name for p in dirs["run"].iterdir()}
    for cmd in ("simulate", "omega"):
        files = sorted(p.name for p in dirs[cmd].iterdir())
        assert files and set(files) <= run_files, cmd
        for name in files:
            assert (dirs[cmd] / name).read_bytes() == (dirs["run"] / name).read_bytes(), name


def test_perfbench_tracer_wraps_resolve(small_scenario):
    """Every layer the benchmark tracer wraps is bound where it is called."""
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _name, _harvest in tracing.WRAPS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)

    path, tmp = small_scenario
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["run", path, "--out", str(tmp / "traced")]) == 0
    finally:
        tracer.uninstall()
    called = {name for _, _, name, _, _ in tracer.spans}
    cli_spans = {name for module, _, name, _ in tracing.WRAPS if module == "switchcert.cli"}
    assert cli_spans <= called, cli_spans - called
    assert tracer.counts["systems.write_trajectory_csv.bytes"] > 0


def test_run_loads_no_scipy(tmp_path):
    """``switchcert run`` needs numpy only: no scipy module is ever imported."""
    code = (
        "import sys\n"
        "from switchcert.cli import main\n"
        f"assert main(['run', 'example1', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "guas_report.txt").exists()


def test_run_file_signal_source(tmp_path):
    sig_path = tmp_path / "sig.txt"
    save_signal(SwitchingSignal(np.array([2.0, 7.0]), np.array([1, 2, 1]), 15.0),
                ModeSet(2), sig_path)
    scn = write(tmp_path, f"""
[scenario]
system = example1
horizon = 15.0

[initial_conditions]
points = 1 0

[signal]
source = file
paths = {sig_path.name}
""")
    out = tmp_path / "file_out"
    assert main(["simulate", scn, "--out", str(out)]) == 0
    assert (out / "trajectory_000.csv").is_file()
