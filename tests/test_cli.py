import configparser
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchcert.cli import _SCHEMA, SchemaError, _read, load_scenario_file, main
from switchcert.scenarios import CheckSettings, GeneratedSource
from switchcert.signals import ModeSet, SwitchingSignal, save_signal
from switchcert.systems import IntegratorOptions

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
    assert src.seeds == range(5, 8)


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


def test_continued_points_value(tmp_path):
    """A line indented deeper than its key's continues the value, blank lines kept."""
    path = write(tmp_path, "[scenario]\nsystem = two_centers\n[initial_conditions]\n"
                           "points = 1 0,\n    0 1,  # two more\n\n  ; a comment line\n  -1 0\n")
    entries, _ = _read(path)
    assert entries[-1] == ("points", "1 0,\n0 1,\n\n-1 0", f"{path}:4")
    assert load_scenario_file(path)[0].initial_states.tolist() == [[1, 0], [0, 1], [-1, 0]]


# The reader's oracle is configparser with '#' and ';' inline comments, no
# interpolation and no DEFAULT section.  Its inline-comment search may pick a
# later comment start than the first when one line holds both '#' and ';'
# starts, so no generated value or comment holds a comment start of its own:
# a '#' or ';' in a value follows no whitespace.
_SECTION_OF = {key: section for section, keys in _SCHEMA.items() for key in keys}
_INDENT = st.sampled_from(["", "", " ", "  ", "\t"])
_VALUE = st.text(alphabet="ab1.-%#;[]=: \t", max_size=8).filter(
    lambda v: not re.search(r"(?:^|\s)[#;]", v))
_COMMENT = st.sampled_from(["", "", " # note", "\t; note", " ;;", " #=x"])


def _key_line(draw, indent: str, key: str) -> str:
    key = draw(st.sampled_from([key, key.upper(), key.title()]))
    delimiter = draw(st.sampled_from(["=", ":", " = ", " : ", "= ", " ="]))
    return f"{indent}{key}{delimiter}{draw(_VALUE)}{draw(_COMMENT)}"


@st.composite
def _noise_line(draw):
    """A line that may break the text's structure: anything the grammar names."""
    indent = draw(_INDENT)
    kind = draw(st.sampled_from(["key", "header", "blank", "comment", "bad"]))
    if kind == "key":
        return _key_line(draw, indent, draw(st.sampled_from([*_SECTION_OF, "other"])))
    if kind == "header":
        name = draw(st.sampled_from([*_SCHEMA, "DEFAULT", "other", " scenario"]))
        return f"{indent}[{name}]{draw(_COMMENT)}"
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "comment":
        return f"{indent}{draw(st.sampled_from(['#', ';']))} note"
    return indent + draw(st.sampled_from(["no delimiter", "= 5", "[]", "[scenario"]))


@st.composite
def _ini_text(draw):
    """Sections of the schema with some of their keys, values continued by deeper
    lines, and a few noise lines inserted anywhere."""
    lines = []
    names = draw(st.permutations(list(_SCHEMA)))
    for name in names[:draw(st.integers(names.index("scenario") + 1, len(names)))]:
        lines.append(f"{draw(_INDENT)}[{name}]{draw(_COMMENT)}")
        for key in draw(st.lists(st.sampled_from(list(_SCHEMA[name])), unique=True,
                                 max_size=4)):
            indent = draw(_INDENT)
            lines.append(_key_line(draw, indent, key))
            for _ in range(draw(st.integers(0, 3))):
                deeper = indent + draw(st.sampled_from([" ", "  ", "\t"]))
                lines.append(draw(st.sampled_from(["", f"{deeper}# note", f"{deeper}[signal]",
                                                   f"{deeper}rtol = 1"])
                                  | _VALUE.filter(str.strip).map(deeper.__add__)))
    for at, line in draw(st.lists(st.tuples(st.integers(0, 99), _noise_line()), max_size=2)):
        lines.insert(at % (len(lines) + 1), line)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _configparser_read(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """The sections and the (section, key, value) triples configparser reads."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    parser.read_string(text)
    return parser.sections(), [(section, key, value) for section in parser.sections()
                               for key, value in parser[section].items()]


@settings(max_examples=300, deadline=None)
@given(text=_ini_text())
def test_reader_matches_configparser(tmp_path_factory, text):
    # a fresh file per example: on some file systems overwriting one costs
    # thousands of times as much as creating one
    path = tmp_path_factory.mktemp("oracle") / "oracle.ini"
    path.write_bytes(text.encode())
    try:
        sections, expected = _configparser_read(text)
    except configparser.Error:
        with pytest.raises(SchemaError):
            _read(str(path))
        return
    if "scenario" not in sections or not set(sections) <= set(_SCHEMA) or any(
            _SECTION_OF.get(key) != section for section, key, _ in expected):
        with pytest.raises(SchemaError):  # configparser reads it, the schema does not
            _read(str(path))
        return
    entries, headers = _read(str(path))
    assert [(_SECTION_OF[key], key, value) for key, value, _ in entries] == expected
    assert list(headers) == sections
    lines = text.split("\n")
    for section, where in headers.items():
        assert lines[int(where.removeprefix(f"{path}:")) - 1].strip().startswith(f"[{section}]")
    for key, _, where in entries:
        # each key sits at its own line: renaming the key there renames it in configparser
        n = int(where.removeprefix(f"{path}:"))
        name, rest = re.split("([=:].*)", lines[n - 1], maxsplit=1)[:2]
        assert name.strip().lower() == key
        lines[n - 1] = name[:len(name) - len(name.lstrip())] + "renamed" + rest
        renamed = _configparser_read("\n".join(lines))[1]
        lines[n - 1] = name + rest
        assert renamed == [(s, "renamed" if k == key else k, v) for s, k, v in expected]


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


# signal files that load_signal rejects, and the message after "<file>"
_BAD_SIGNAL_FILES = [
    pytest.param(b"modes=2 horizon=15\n0 1\nabc 2\n", ":3: bad segment line 'abc 2'",
                 id="segment_not_numbers"),
    pytest.param(b"modes=2 horizon=15\n0 1\n5 2\n3 1\n",
                 ": switch times must be strictly increasing", id="segments_rejected"),
]


@pytest.mark.parametrize("data, message", _BAD_SIGNAL_FILES)
def test_validate_bad_signal_file_exit_2(tmp_path, capsys, data, message):
    path = tmp_path / "sig.txt"
    path.write_bytes(data)
    assert main(["validate", str(path), "1.0", "1"]) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"


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


def test_run_overflowing_field_norm_exit_3(tmp_path, capsys):
    """A start whose scaled field norm overflows fails the stepper: exit 3, with one
    stderr line and no RuntimeWarning."""
    from switchcert.lyapunov import LyapunovCandidate
    from switchcert.scenarios import FeedbackSource, Scenario, register_scenario
    from switchcert.systems import Covering, FeedbackRule, IntegratorOptions, SwitchedSystem

    def build(**overrides):
        m = ModeSet(1)
        sys_ = SwitchedSystem(1, {1: lambda x: x ** 3}, m, Covering.trivial(m))
        return Scenario(
            name="cube_far",
            system=sys_,
            V=LyapunovCandidate(value=lambda x, g: float(np.dot(x, x))),
            W=None,
            source=FeedbackSource(FeedbackRule(lambda x: 1, {1: lambda x: -1.0})),
            initial_states=np.array([[1e100]]),
            horizon=2.0,
            integrator=IntegratorOptions(bound=math.inf),
        )

    register_scenario("cube_far", build)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "cube_far", "--out", str(tmp_path / "cube")]) == 3
        warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not warned, warned
        err = capsys.readouterr().err
        assert err.startswith("simulation failed: stepper failed at t ~ 0")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "cube").exists()
    finally:
        from switchcert import scenarios

        scenarios._BUILTINS.pop("cube_far", None)


def _reciprocal_pole(x):
    return 1.0 / (x - 1.0)


def test_run_dividing_field_exit_3(tmp_path, capsys):
    """A field that divides by zero at the start gives a non-finite value: exit 3,
    with one stderr line and no RuntimeWarning."""
    from switchcert.lyapunov import LyapunovCandidate
    from switchcert.scenarios import FeedbackSource, Scenario, register_scenario
    from switchcert.systems import Covering, FeedbackRule, SwitchedSystem

    def build(**overrides):
        m = ModeSet(1)
        return Scenario(
            name="pole_start",
            system=SwitchedSystem(1, {1: _reciprocal_pole}, m, Covering.trivial(m)),
            V=LyapunovCandidate(value=lambda x, g: float(np.dot(x, x))),
            W=None,
            source=FeedbackSource(FeedbackRule(lambda x: 1, {1: lambda x: -1.0})),
            initial_states=np.array([[1.0]]),
            horizon=2.0,
        )

    register_scenario("pole_start", build)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "pole_start", "--out", str(tmp_path / "pole")]) == 3
        warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not warned, warned
        err = capsys.readouterr().err
        assert err.startswith("simulation failed: vector field returned non-finite values at t ~ 0")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "pole").exists()
    finally:
        from switchcert import scenarios

        scenarios._BUILTINS.pop("pole_start", None)


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


_FLOAT_TOLERANCES = [f.name for settings in (IntegratorOptions, CheckSettings)
                     for f in fields(settings) if "float" in f.type]


@pytest.mark.parametrize("system", ["example1", "example2"])
def test_run_every_float_tolerance_at_inf(tmp_path, capsys, system):
    """Each float [tolerances] key at inf either runs or is bad input at its line."""
    assert len(_FLOAT_TOLERANCES) == 13
    for key in _FLOAT_TOLERANCES:
        out = tmp_path / f"{key}_out"
        code = main(["run", _small_ini(tmp_path, system, f"{key} = inf"),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), (key, err)
        if code == 2:
            assert err.startswith(f"scenario error: {tmp_path}/scn.ini:9: {key} must be ")
            assert err.endswith(", got inf\n") and len(err.splitlines()) == 1
            assert not out.exists()


def _signal_ini(tmp_path, signal_data=None):
    """Scenario of horizon 15 whose ``paths`` (line 11) names sig.txt, a signal file
    holding ``signal_data``; None leaves the file absent."""
    if signal_data is not None:
        (tmp_path / "sig.txt").write_bytes(signal_data)
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


def _small_ini(tmp_path, system: str, tolerance: str):
    """One start over horizon 5, with the ``[tolerances]`` line ``tolerance`` on line 9."""
    return write(tmp_path, f"""
[scenario]
system = {system}
horizon = 5

[initial_conditions]
points = 1 0
[tolerances]
{tolerance}
""")


def _bytes_ini(tmp_path, data: bytes):
    path = tmp_path / "scn.ini"
    path.write_bytes(data)
    return str(path)


def _taken(tmp_path):
    """A file standing where an artifact directory is asked for."""
    (tmp_path / "taken").write_text("not a directory\n")
    return tmp_path / "taken"


# bad inputs whose message must say where the fault is: a file line or an option
# ("{tmp}" stands for the test's directory)
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
    # an indented header continues the value above it, as in configparser
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\n  [signal]\n"
                                         "horizon = 5\n")],
                 "scn.ini:2: unknown scenario 'example1\\n[signal]'", id="indented_header"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\n\n[scenario]\n")],
                 "scn.ini:4: repeated section [scenario]", id="repeated_section"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\nSYSTEM: example2\n")],
                 "scn.ini:3: repeated key 'system' in [scenario]", id="repeated_key"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\nhorizon 5\n")],
                 "scn.ini:3: expected [section] or key = value, got 'horizon 5'",
                 id="no_delimiter"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n"
                                         "[signal]\nsource = generate\nn0 = 2\n")],
                 "scn.ini:3: missing required key 'tau_d' in [signal]", id="tau_d_missing"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n\n"
                                         "[signal]\nsource = generate\ntau_d = 0.5\n")],
                 "scn.ini:4: missing required key 'n0' in [signal]", id="n0_missing"),
    pytest.param(lambda tmp: [write(tmp, "# no system\n\n[scenario]\nhorizon = 5\n")],
                 "scn.ini:3: missing required key 'system' in [scenario]", id="system_missing"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n"
                                         "[signal]\nsource = generate\ntau_d: 0\nn0 = 2\n")],
                 "scn.ini:5:", id="tau_d_colon"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n[signal]\n"
                                         "source = generate\ncount = 2\nTau_D = 0\nn0 = 2\n")],
                 "scn.ini:6:", id="tau_d_upper_case"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[tolerances]\nRTOL = 0\n")],
                 "scn.ini:4:", id="rtol_upper_case"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\nhorizon = inf\n")],
                 "scn.ini:3:", id="horizon_file_inf"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\nhorizon = -1\n")],
                 "scn.ini:3:", id="horizon_file_negative"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[initial_conditions]\npoints = 1 0 0\n")],
                 "scn.ini:4:", id="points_wrong_dimension"),
    # each fault is reported at its own key, not at an option given with it
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[initial_conditions]\npoints = 1 0 0\n"),
                              "--horizon", "5"],
                 "scn.ini:4:", id="points_wrong_dimension_with_horizon_option"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[initial_conditions]\nradii = 1\nangles = 0\n")],
                 "scn.ini:4:", id="radii_no_angles"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[initial_conditions]\npoints = nan 0\n")],
                 "scn.ini:4: initial_states must be finite", id="points_nan"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[initial_conditions]\nradii = inf\n")],
                 "scn.ini:4: initial_states must be finite", id="radii_inf"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\nseed = banana\n")],
                 "scn.ini:3: seed must be an integer", id="seed_not_integer_feedback"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\n"
                                         "[signal]\ntau_d = 0.5\n")],
                 "scn.ini:3: missing required key 'source' in [signal]", id="source_missing"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example2\n"
                                         "[signal]\nsource = feedback\n")],
                 "scn.ini:4: source 'feedback': system 'example2' does not define a feedback rule",
                 id="source_feedback_without_rule"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = example1\n"
                                         "[signal]\nsource = banana\n")],
                 "scn.ini:4: source must be feedback, generate or file, got 'banana'",
                 id="source_unknown"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         "[initial_conditions]\npoints = 1 x, 0 1\n")],
                 "scn.ini:4: points must be ','-separated coordinate lists",
                 id="points_not_numbers"),
    # a signal file is read and checked with the scenario, its faults located at paths
    pytest.param(lambda tmp: [_signal_ini(tmp)],
                 "scn.ini:11: paths: {tmp}/sig.txt: No such file or directory",
                 id="signal_file_missing"),
    pytest.param(lambda tmp: [_signal_ini(tmp, b"modes=2 horizon=15\n0 1\n2 2 2\n")],
                 "scn.ini:11: paths: {tmp}/sig.txt:3: expected 't gamma'",
                 id="signal_file_malformed"),
    pytest.param(lambda tmp: [_signal_ini(tmp, b"modes=2 horizon=10\n0 1\n2 2\n")],
                 "scn.ini:11: paths: {tmp}/sig.txt: horizon 10.0 differs from the scenario's 15.0",
                 id="signal_horizon_mismatch"),
    pytest.param(lambda tmp: [_signal_ini(tmp, b"modes=2 horizon=15\n0 1\n2 2\n"),
                              "--horizon", "10"],
                 "scn.ini:11: paths: {tmp}/sig.txt: horizon 15.0 differs from the scenario's 10.0",
                 id="signal_horizon_option_mismatch"),
    pytest.param(lambda tmp: [_signal_ini(tmp, b"modes=3 horizon=15\n0 1\n2 3\n")],
                 "scn.ini:11: paths: {tmp}/sig.txt: mode 3 is not one of the system's modes",
                 id="signal_mode_foreign"),
    pytest.param(lambda tmp: [_signal_ini(tmp, b"modes=2 horizon=15\n0 1\n\xe9 2\n")],
                 "scn.ini:11: paths: {tmp}/sig.txt:3: not UTF-8 text", id="signal_file_not_utf8"),
    *[pytest.param(lambda tmp, data=p.values[0]: [_signal_ini(tmp, data)],
                   "scn.ini:11: paths: {tmp}/sig.txt" + p.values[1], id=f"signal_file_{p.id}")
      for p in _BAD_SIGNAL_FILES],
    # a probe window or rtol of inf would reach the integrator
    pytest.param(lambda tmp: [_small_ini(tmp, "example2", "probe_delta = inf")],
                 "scn.ini:9: probe_delta must be finite, got inf", id="probe_delta_inf"),
    pytest.param(lambda tmp: [_small_ini(tmp, "example2", "rtol = inf")],
                 "scn.ini:9: rtol must be finite, got inf", id="rtol_inf"),
    # an artifact directory that cannot be made is bad input, caught before simulating
    pytest.param(lambda tmp: ["two_centers", "--horizon", "2", "--out", str(_taken(tmp))],
                 "--out: output must be a directory; '{tmp}/taken' is not one",
                 id="out_is_file"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "2", "--out", f"{_taken(tmp)}/sub"],
                 "--out: output must be a directory; '{tmp}/taken' is not one",
                 id="out_under_file"),
    pytest.param(lambda tmp: [write(tmp, "[scenario]\nsystem = two_centers\n"
                                         f"output = {_taken(tmp)}\n")],
                 "scn.ini:3: output must be a directory", id="output_key_is_file"),
]


@pytest.mark.parametrize("make_args", [
    pytest.param(lambda tmp: ["two_centers", "--horizon", "0"], id="horizon_zero"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "-1"], id="horizon_negative"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "nan"], id="horizon_nan"),
    pytest.param(lambda tmp: ["two_centers", "--horizon", "inf"], id="horizon_inf"),
    *[pytest.param(p.values[0], id=p.id) for p in _LOCATED_BAD_INPUTS],
])
def test_bad_input_exit_2(tmp_path, capsys, make_args):
    argv = make_args(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    for command in ("run", "simulate", "omega"):
        # an --out in argv, after this one, wins
        assert main([command, "--out", str(tmp_path / f"{command}_out"), *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("make_args, where", _LOCATED_BAD_INPUTS)
def test_bad_input_says_where(tmp_path, capsys, make_args, where):
    assert main(["run", "--out", str(tmp_path / "out"), *make_args(tmp_path)]) == 2
    assert where.format(tmp=tmp_path) in capsys.readouterr().err


def test_default_output_dir_taken_exit_2(tmp_path, monkeypatch, capsys):
    """The default artifact directory is checked before simulating, like --out."""
    monkeypatch.chdir(tmp_path)
    _taken(tmp_path).rename(tmp_path / "artifacts_two_centers")
    assert main(["simulate", "two_centers", "--horizon", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: two_centers: output must be a directory")
    assert (tmp_path / "artifacts_two_centers").read_text() == "not a directory\n"


def test_file_seed_rebases_builtin_source(tmp_path):
    """``seed`` in a file re-bases a built-in's generated source as ``--seed`` does."""
    from switchcert.cli import _resolve_scenario, build_parser

    scn = write(tmp_path, "[scenario]\nsystem = example2\nhorizon = 5\nseed = 7\n")
    by_file = load_scenario_file(scn)[0].source
    option = build_parser().parse_args(["run", "example2", "--horizon", "5", "--seed", "7"])
    assert isinstance(by_file, GeneratedSource) and by_file.seeds == range(7, 39)
    assert _resolve_scenario(option)[0].source == by_file

    dirs = tmp_path / "file", tmp_path / "option"
    assert main(["simulate", scn, "--out", str(dirs[0])]) == 0
    assert main(["simulate", "example2", "--horizon", "5", "--seed", "7",
                 "--out", str(dirs[1])]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir()) and "signal_031.txt" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_schema_comment_lists_every_key():
    """The schema comment of ``scenarios/example1.ini`` names exactly the keys
    the loader accepts, section by section."""
    import re

    from switchcert.cli import _SCHEMA

    documented, section = {}, None
    for line in (REPO / "scenarios" / "example1.ini").read_text().splitlines():
        if header := re.match(r"#   \[(\w+)\]", line):
            section = header[1]
            documented[section] = set()
        elif keys := re.match(r"#     (\w+(?: \w+)*)", line):
            documented[section] |= set(keys[1].split())
    assert documented == {name: set(keys) for name, keys in _SCHEMA.items()}


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


def _perfbench_tracing():
    """The benchmark's tracer module, loaded from its file."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_hooks_resolve():
    """Every layer the benchmark tracer wraps is bound where it is called
    (``lyapunov`` imports ``integrate`` for the tracer alone), and every
    attribute its counter harvests read exists on the values those layers return."""
    import importlib
    from dataclasses import fields

    from switchcert.invariance import OmegaEstimate
    from switchcert.lyapunov import ProbeReport
    from switchcert.systems import IntegratorStats, Trajectory

    for module, attr, _name, _harvest in _perfbench_tracing().WRAPS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    read = [(Trajectory, {"stats", "times"}), (IntegratorStats, {"n_steps", "n_rhs", "n_events"}),
            (SwitchingSignal, {"n_switches"}), (OmegaEstimate, {"points", "counts"}),
            (ProbeReport, {"n_probed"})]
    for cls, names in read:
        assert names <= {f.name for f in fields(cls)} | set(dir(cls)), cls


def test_perfbench_tracer_wraps_resolve(small_scenario):
    """A traced run calls every layer the benchmark tracer wraps in ``cli``."""
    tracing = _perfbench_tracing()
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
    """``switchcert run`` needs numpy only: no built-in imports a scipy module,
    the exact flows of example1's and two_centers' linear modes included."""
    code = (
        "import sys\n"
        "from switchcert.cli import main\n"
        "for name in ('example1', 'example2', 'two_centers'):\n"
        f"    assert main(['run', name, '--out', {str(tmp_path)!r} + '/' + name]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for name in ("example1", "example2", "two_centers"):
        assert (tmp_path / name / "guas_report.txt").exists()


def test_run_loads_no_numpy_ma(tmp_path):
    """No built-in's ``switchcert run`` imports numpy.ma (about 1 MB of memory)."""
    code = (
        "import sys\n"
        "from switchcert.cli import main\n"
        "for name in ('example1', 'example2', 'two_centers'):\n"
        f"    assert main(['run', name, '--horizon', '5', '--out', {str(tmp_path)!r} + '/' + name]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "two_centers" / "guas_report.txt").exists()


def test_run_loads_no_numpy_random(tmp_path):
    """Signals and sample points are drawn by the standard library's ``random``:
    no subcommand imports numpy.random (about 6 MB of memory with OpenSSL)."""
    ini = write(tmp_path, """
[scenario]
system = example1
horizon = 5

[signal]
source = generate
tau_d = 0.5
n0 = 2
count = 2
""")
    code = (
        "import sys\n"
        "from switchcert.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for name in ('example1', 'example2', 'two_centers'):\n"
        "    assert main(['run', name, '--horizon', '5', '--out', out + '/' + name]) == 0\n"
        f"assert main(['run', {ini!r}, '--out', out + '/generated']) == 0\n"
        "assert main(['simulate', 'example2', '--horizon', '5', '--out', out + '/sim']) == 0\n"
        "assert main(['omega', 'example2', '--horizon', '5', '--out', out + '/omega']) == 0\n"
        "assert main(['validate', out + '/sim/signal_000.txt', '0.5', '2']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "generated" / "guas_report.txt").exists()


def test_run_loads_no_configparser(tmp_path):
    """A scenario file is read by the CLI's own reader: configparser is never imported."""
    code = (
        "import sys\n"
        "from switchcert.cli import main\n"
        f"assert main(['run', {str(REPO / 'scenarios' / 'two_centers.ini')!r}, '--horizon', '2',"
        f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'configparser' not in sys.modules\n"
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


def test_rerun_from_saved_signals_is_identical(tmp_path):
    """Rerunning example2 with ``source = file`` over its own saved signal files gives
    byte-identical trajectory, signal and omega files and the same conclusions."""
    generated, rerun = tmp_path / "generated", tmp_path / "rerun"
    assert main(["run", "example2", "--horizon", "20", "--out", str(generated)]) == 0
    signals = sorted(p.name for p in generated.glob("signal_*.txt"))
    scn = write(tmp_path, "[scenario]\nsystem = example2\nhorizon = 20\n[signal]\n"
                          f"source = file\npaths = {' '.join(f'generated/{p}' for p in signals)}\n")
    assert main(["run", scn, "--out", str(rerun)]) == 0

    def compared(out):
        return sorted(p.name for p in out.iterdir()
                      if p.name.startswith(("trajectory_", "signal_", "omega")))

    names = compared(generated)
    assert len(signals) == 32 and names == compared(rerun) and "omega_sharp_031.csv" in names
    for name in names:
        assert (generated / name).read_bytes() == (rerun / name).read_bytes(), name

    def conclusions(out):
        return [line for line in (out / "guas_report.kv").read_text().splitlines()
                if line.startswith("conclusion.")]

    assert conclusions(generated) == conclusions(rerun) != []


def test_perfbench_inputs_load(tmp_path, monkeypatch):
    """Every pool input of the benchmark's workloads, at two seeds, loads as the scenario
    its workload means: generated signals for random_adt, feedback for the others."""
    import importlib.util
    import re

    from switchcert.scenarios import FeedbackSource

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    assert {"random_adt", "orbit_clusters"} <= set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        for seed in (77, 5):
            for k, text in enumerate(workloads.make_inputs(name, seed)):
                scenario, _ = load_scenario_file(write(tmp_path, text, f"{name}_{seed}_{k}.ini"))
                source = scenario.source
                assert scenario.horizon == workload.horizon
                if name == "random_adt":
                    base = int(re.search(r"^seed = (\d+)$", text, re.MULTILINE)[1])
                    assert isinstance(source, GeneratedSource)
                    assert source.seeds == range(base, base + workload.batch)
                else:
                    assert isinstance(source, FeedbackSource)
                    assert len(scenario.initial_states) == workload.batch


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written and prints one limit point at 0."""
    import re

    text = (REPO / "README.md").read_text()
    code = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)[1]
    exec(compile(code, "README.md", "exec"), {})
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1
    assert max(abs(float(v)) for v in rows[0].strip(" []").split()) <= 1e-6
