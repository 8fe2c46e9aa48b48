import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchcert.signals import (
    INFINITY,
    AdtClass,
    ExtractionFailure,
    ModeSet,
    SignalFormatError,
    SwitchingSignal,
    distance_tail_bound,
    extract_convergent_subsequence,
    generate_adt,
    load_signal,
    save_signal,
    signal_distance,
    validate_adt,
)
from switchcert.signals import _adt_violation


def sig(times, modes, horizon):
    return SwitchingSignal(np.asarray(times, dtype=float), np.asarray(modes), horizon)


@st.composite
def signals(draw, horizon=10.0, max_switches=12, n_modes=3):
    n = draw(st.integers(0, max_switches))
    times = draw(
        st.lists(st.floats(1e-3, horizon, allow_nan=False), min_size=n, max_size=n, unique=True)
    )
    times = sorted(times)
    modes = [draw(st.integers(1, n_modes))]
    for _ in range(n):
        nxt = draw(st.integers(1, n_modes - 1))
        modes.append(nxt if nxt < modes[-1] else nxt + 1)
    return sig(times, modes, horizon)


# -- construction invariants -------------------------------------------------


def test_mode_set_basics():
    m = ModeSet(3)
    assert list(m.labels) == [1, 2, 3]
    assert 2 in m and 4 not in m
    with pytest.raises(ValueError):
        ModeSet(0)


def test_adt_class_validation():
    with pytest.raises(ValueError):
        AdtClass(0.0, 1)
    with pytest.raises(ValueError):
        AdtClass(1.0, 0)
    assert AdtClass(2.0, 3).bound(4.0) == 5.0


def test_signal_construction_errors():
    with pytest.raises(ValueError):
        sig([2.0, 1.0], [1, 2, 1], 5.0)  # not increasing
    with pytest.raises(ValueError):
        sig([1.0], [1, 1], 5.0)  # repeated mode
    with pytest.raises(ValueError):
        sig([6.0], [1, 2], 5.0)  # beyond horizon
    with pytest.raises(ValueError):
        sig([0.0], [1, 2], 5.0)  # switch at t=0


def test_signal_is_immutable():
    s = sig([1.0], [1, 2], 5.0)
    with pytest.raises(ValueError):
        s.switch_times[0] = 2.0


# -- value_at ------------------------------------------------------------------


def test_value_before_first_switch():
    s = sig([1.0], [1, 2], 5.0)
    assert s.value_at(0.5) == 1


def test_value_right_continuous_at_switch():
    s = sig([1.0], [1, 2], 5.0)
    assert s.value_at(1.0) == 2


def test_value_constant_signal():
    s = SwitchingSignal.constant(3, 5.0)
    for t in (0.0, 2.5, 5.0):
        assert s.value_at(t) == 3


def test_value_domain_error():
    s = sig([1.0], [1, 2], 5.0)
    with pytest.raises(ValueError):
        s.value_at(-0.1)
    with pytest.raises(ValueError):
        s.value_at(5.1)


@settings(max_examples=200)
@given(signals(), st.floats(0.0, 10.0))
def test_value_at_matches_scan_oracle(s, t):
    # oracle: last mode whose start time is <= t
    mode = s.modes[0]
    for ti, gi in zip(s.switch_times, s.modes[1:]):
        if ti <= t:
            mode = gi
    assert s.value_at(t) == mode


# -- next-switch operators ------------------------------------------------------


def test_next_switch_basic():
    s = sig([1.0, 2.5], [1, 2, 1], 5.0)
    assert s.nth_switch_after(1, 0.5) == 1.0
    assert s.nth_switch_after(2, 0.5) == 2.5
    assert s.nth_switch_after(1, 3.0) == INFINITY


def test_next_switch_identity_and_infinity():
    s = sig([1.0, 2.5], [1, 2, 1], 5.0)
    assert s.nth_switch_after(0, 0.7) == 0.7
    assert s.nth_switch_after(1, INFINITY) == INFINITY
    # at a switch time, the "next" switch is strictly later
    assert s.nth_switch_after(1, 1.0) == 2.5


@settings(max_examples=200)
@given(signals(), st.integers(0, 5), st.floats(0.0, 12.0))
def test_next_switch_matches_scan_oracle(s, n, t):
    expect = t
    for _ in range(n):
        nxt = INFINITY
        for ti in s.switch_times:
            if ti > expect:
                nxt = ti
                break
        expect = nxt
    assert s.nth_switch_after(n, t) == expect


@settings(max_examples=200)
@given(signals(), st.integers(0, 4), st.floats(0.0, 12.0))
def test_next_switch_monotone(s, n, t):
    a = s.nth_switch_after(n, t)
    b = s.nth_switch_after(n + 1, t)
    assert a <= b
    if not math.isinf(b):
        assert a < b
    if n >= 1 and not math.isinf(a):
        assert a > t


# -- ADT validation ---------------------------------------------------------------


def _brute_force_adt(signal, adt, eps=1e-9):
    """Independent oracle: enumerate intervals pinched on switch pairs."""
    times = signal.switch_times
    for i in range(times.size):
        for j in range(i, times.size):
            a, b = times[i] - eps, times[j] + eps
            count = sum(1 for t in times if a < t < b)
            if count > adt.n0 + (b - a) / adt.tau_d:
                return False
    return True


def _exact_adt(signal, adt):
    """Exact-rational oracle (boundary equality counts as valid), plus the
    smallest relative violation margin across all pairs."""
    from fractions import Fraction

    times = [Fraction(float(t)) for t in signal.switch_times]
    tau_d = Fraction(float(adt.tau_d))
    valid = True
    closest = math.inf
    for i in range(len(times)):
        for j in range(i, len(times)):
            count = j - i + 1
            bound = adt.n0 + (times[j] - times[i]) / tau_d
            if count > bound:
                valid = False
            closest = min(closest, abs(float(count - bound)) / float(bound))
    return valid, closest


def _reference_adt_violation(times, adt, start=0):
    """First switch-index pair (i, j), i >= start, violating the ADT bound under
    the relative-1e-12 guard, or None: a scan over every start index."""
    n = times.size
    for i in range(start, n):
        js = np.arange(i + adt.n0, n)
        if js.size == 0:
            continue
        counts = js - i + 1
        bounds = adt.n0 + (times[js] - times[i]) / adt.tau_d
        bad = np.nonzero(counts > bounds * (1.0 + 1e-12))[0]
        if bad.size:
            return i, int(js[bad[0]])
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-3, 20.0), max_size=40), st.floats(0.05, 3.0), st.integers(1, 3),
       st.integers(-1, 23), st.booleans())
@example([3.0, 3.0, 4.0, 4.0, 5.0, 3.0, 3.0, 4.0, 5.0, 4.0], 2.9596042718467004, 2, 21, True)
def test_adt_scan_matches_reference_from_every_start(gaps, tau_d, n0, binade, exact):
    # with ``exact`` the gaps are multiples of tau_d / 2, so windows sit on the
    # bound up to the rounding of the times; a ``binade`` >= 0 offsets the times
    # (by up to 2.5e7) so that t / tau_d crosses 2 ** binade mid-signal, where
    # k - t_k / tau_d rounds most unevenly: a screen band scaled by n0 alone,
    # not by t_k / tau_d, misses a violation of the example
    if exact:
        gaps = [tau_d * (1 + int(g) % 3) / 2 for g in gaps]
    times = np.cumsum(gaps)
    if binade >= 0 and times.size:
        times += max(0.0, tau_d * 2.0 ** binade - times[times.size // 2])
    adt = AdtClass(tau_d, n0)
    for start in range(times.size + 1):
        assert _adt_violation(times, adt, start) == _reference_adt_violation(times, adt, start)


def test_validate_adt_spacing_one():
    s = sig([1.0, 2.0, 3.0, 4.0], [1, 2, 1, 2, 1], 10.0)
    assert validate_adt(s, AdtClass(1.0, 1)).passed
    assert _brute_force_adt(s, AdtClass(1.0, 1))


def test_validate_adt_chatter_witness():
    s = sig([1.0, 1.01], [1, 2, 1], 10.0)
    rep = validate_adt(s, AdtClass(1.0, 1))
    assert not rep.passed
    a, b, count, bound = rep.witness
    assert a == pytest.approx(0.999) and b == pytest.approx(1.011)
    assert count == 2 and count > bound
    assert not _brute_force_adt(s, AdtClass(1.0, 1))


def test_validate_adt_constant_signal():
    s = SwitchingSignal.constant(1, 10.0)
    assert validate_adt(s, AdtClass(0.001, 1)).passed


@settings(max_examples=150, deadline=None)
@given(signals(), st.floats(0.1, 3.0), st.integers(1, 3))
def test_validate_adt_matches_oracle(s, tau_d, n0):
    adt = AdtClass(tau_d, n0)
    expect, closest = _exact_adt(s, adt)
    if closest <= 2e-12:
        return  # knife-edge: count sits on the bound within the guard band
    assert validate_adt(s, adt).passed == expect


# -- generation --------------------------------------------------------------------


def test_generate_always_validates():
    adt = AdtClass(1.0, 1)
    for seed in range(20):
        s = generate_adt(seed, adt, ModeSet(2), 10.0)
        assert validate_adt(s, adt).passed
        assert np.all(s.modes[1:] != s.modes[:-1])


def test_generate_deterministic():
    adt = AdtClass(0.5, 2)
    a = generate_adt(7, adt, ModeSet(3), 20.0)
    b = generate_adt(7, adt, ModeSet(3), 20.0)
    assert a == b


def test_generate_adt_stream_is_pinned():
    # every draw is random.Random(seed).random(), a stream Python keeps for a
    # seed across versions: a gap is -tau_d log(1 - U), a mode is
    # options[int(U * len(options))].  A drift in the stream or in either
    # formula moves these values
    times = [0.9303035555326117, 1.6396181320184926, 2.062295860896196, 2.420273235779771,
             3.445587252678071, 3.9499983091236475, 4.387791128562993, 5.581388362724324,
             5.932670913683991, 6.803093326420507, 7.284743874969774, 7.428922586102637,
             8.631487684859225]
    assert -0.5 * math.log(1.0 - random.Random(0).random()) == times[0]
    two = generate_adt(0, AdtClass(0.5, 2), ModeSet(2), 10.0)
    assert two.switch_times.tolist() == times
    assert two.modes.tolist() == [2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1]
    three = generate_adt(0, AdtClass(0.5, 2), ModeSet(3), 10.0)
    assert three.switch_times.tolist() == times
    assert three.modes.tolist() == [3, 2, 1, 3, 2, 3, 1, 2, 1, 3, 2, 3, 1, 3]


def test_generate_adt_rejects_a_negative_seed():
    # Random(-s) is Random(s): a negative seed would repeat another's signal
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        generate_adt(-1, AdtClass(0.5, 2), ModeSet(2), 10.0)


def _reference_generate_adt(seed: int, adt: AdtClass, modes: ModeSet,
                            horizon: float) -> SwitchingSignal:
    """generate_adt with the repair rescanning from the first switch after
    every deletion."""
    rng = random.Random(seed)
    gaps: list[float] = []
    total = 0.0
    while total <= horizon:
        g = -adt.tau_d * math.log(1.0 - rng.random())
        total += g
        gaps.append(g)
    times = np.cumsum(gaps)[:-1]
    times = times[times <= horizon]
    while True:
        pair = _reference_adt_violation(times, adt)
        if pair is None:
            break
        i, j = pair
        times = np.delete(times, (i + j) // 2)
    labels = list(modes.labels)
    seq = [labels[int(rng.random() * len(labels))]]
    for _ in range(times.size):
        options = [g for g in labels if g != seq[-1]]
        seq.append(options[int(rng.random() * len(options))])
    return SwitchingSignal(times, np.array(seq), horizon)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0.5, 2), (0.3, 1), (1.0, 3)]),
       st.sampled_from([20.0, 100.0]), st.integers(2, 3))
def test_generate_adt_matches_reference(seed, cls, horizon, n_modes):
    adt, modes = AdtClass(*cls), ModeSet(n_modes)
    got = generate_adt(seed, adt, modes, horizon)
    want = _reference_generate_adt(seed, adt, modes, horizon)
    assert np.array_equal(got.switch_times, want.switch_times)
    assert np.array_equal(got.modes, want.modes)
    assert got.horizon == want.horizon


def test_generate_single_mode_error():
    # mean gap far below the horizon: switches are certain to be drawn
    with pytest.raises(ValueError):
        generate_adt(0, AdtClass(0.1, 1), ModeSet(1), 50.0)


def test_generate_horizon_error():
    with pytest.raises(ValueError):
        generate_adt(0, AdtClass(1.0, 1), ModeSet(2), 0.0)


# -- metric -------------------------------------------------------------------------


def test_distance_identity():
    s = sig([1.0, 2.5], [1, 2, 1], 30.0)
    assert signal_distance(s, s, 20) == 0.0


def test_distance_constant_closed_form():
    u = SwitchingSignal.constant(1, 25.0)
    v = SwitchingSignal.constant(2, 25.0)
    # sum_{n<=20} n 2^-n == 2 - 22 * 2^-20 exactly
    assert signal_distance(u, v, 20) == 2.0 - 22.0 * 2.0 ** -20
    assert distance_tail_bound(20) == 22.0 * 2.0 ** -20


def test_distance_differ_on_unit_prefix():
    u = sig([1.0], [1, 2], 30.0)
    v = SwitchingSignal.constant(2, 30.0)
    n = 10
    # mismatch length is 1 on every [0, n]: sum_{k<=n} 2^-k = 1 - 2^-n
    assert signal_distance(u, v, n) == pytest.approx(1.0 - 2.0 ** -n, abs=1e-15)


def test_distance_extends_past_horizon():
    u = SwitchingSignal.constant(1, 2.0)
    v = SwitchingSignal.constant(1, 50.0)
    assert signal_distance(u, v, 30) == 0.0


def test_distance_domain_error():
    u = SwitchingSignal.constant(1, 2.0)
    with pytest.raises(ValueError):
        signal_distance(u, u, 0)


@settings(max_examples=100, deadline=None)
@given(signals(), signals(), signals())
def test_distance_pseudometric(u, v, w):
    n = 8
    duv = signal_distance(u, v, n)
    assert duv == signal_distance(v, u, n)  # exact symmetry
    assert duv >= 0.0
    assert duv <= signal_distance(u, w, n) + signal_distance(w, v, n) + 1e-12


def test_distance_zero_implies_equal_ae():
    u = sig([1.0, 2.0], [1, 2, 1], 10.0)
    v = sig([1.0, 2.0], [1, 2, 1], 10.0)
    assert signal_distance(u, v, 10) == 0.0
    w = sig([1.0, 2.000001], [1, 2, 1], 10.0)
    assert signal_distance(u, w, 10) > 0.0


def test_distance_and_extraction_load_no_numpy_ma():
    """signal_distance, extract_convergent_subsequence and the per-mode checks
    along a trajectory import no numpy.ma (about 1 MB of memory), so a run
    may call them."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from switchcert.signals import (AdtClass, SwitchingSignal,\n"
        "    extract_convergent_subsequence, signal_distance)\n"
        "from switchcert.invariance import check_same_mode_constancy, omega_sharp\n"
        "from switchcert.lyapunov import check_return_monotonicity\n"
        "from switchcert.scenarios import builtin_scenario\n"
        "from switchcert.systems import integrate\n"
        "family = [SwitchingSignal(np.array([1.0 + 1.0 / k, 3.0]), np.array([1, 2, 1]), 10.0)\n"
        "          for k in range(1, 21)]\n"
        "assert signal_distance(family[0], family[-1], 10) > 0.0\n"
        "indices, limit = extract_convergent_subsequence(family, AdtClass(0.5, 1), tol=0.01)\n"
        "assert len(indices) >= 5 and limit.n_switches == 2\n"
        "ex2 = builtin_scenario('example2')\n"
        "signal = SwitchingSignal(np.array([1.0, 2.5, 4.0]), np.array([1, 2, 1, 2]), 6.0)\n"
        "traj = integrate(ex2.system, [1.0, 0.5], signal)\n"
        "assert not check_same_mode_constancy(traj, ex2.V, 1e-6)\n"
        "assert set(omega_sharp(traj, 0.5, 0.01).modes.tolist()) == {1, 2}\n"
        "assert check_return_monotonicity(ex2.V, traj, ex2.checks.monotonicity_tol)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- shift ------------------------------------------------------------------------


def test_shift_zero_identity():
    s = sig([1.0, 2.5], [1, 2, 1], 5.0)
    assert s.shift(0.0) == s


def test_shift_basic():
    s = sig([1.0, 2.5], [1, 2, 1], 5.0)
    out = s.shift(1.5)
    assert np.allclose(out.switch_times, [1.0])
    assert list(out.modes) == [2, 1]
    assert out.horizon == 3.5


def test_shift_to_horizon_end():
    s = sig([1.0], [1, 2], 5.0)
    out = s.shift(5.0)
    assert out.horizon == 0.0 and out.n_switches == 0 and out.modes[0] == 2


def test_shift_domain_error():
    s = sig([1.0], [1, 2], 5.0)
    with pytest.raises(ValueError):
        s.shift(5.5)


def test_segments_cover_horizon():
    s = sig([1.0, 2.5], [1, 2, 1], 5.0)
    assert s.segments() == [(0.0, 1.0, 1), (1.0, 2.5, 2), (2.5, 5.0, 1)]
    const = SwitchingSignal.constant(2, 3.0)
    assert const.segments() == [(0.0, 3.0, 2)]
    ends_at_horizon = sig([1.0, 5.0], [1, 2, 1], 5.0)
    assert ends_at_horizon.segments() == [(0.0, 1.0, 1), (1.0, 5.0, 2)]


@settings(max_examples=100)
@given(signals(), st.floats(0.0, 9.0))
def test_shift_preserves_adt_class(s, shift_by):
    adt = AdtClass(0.5, 4)
    if validate_adt(s, adt).passed:
        assert validate_adt(s.shift(shift_by), adt).passed


@settings(max_examples=100)
@given(signals(), st.floats(0.0, 9.0), st.floats(0.0, 10.0))
def test_shift_evaluates_as_translate(s, shift_by, t):
    out = s.shift(shift_by)
    if t <= out.horizon:
        assert out.value_at(t) == s.value_at(min(t + shift_by, s.horizon))


# -- subsequence extraction ----------------------------------------------------------


def test_extract_identical_signals():
    base = sig([1.2], [1, 2], 10.0)
    adt = AdtClass(0.5, 1)
    idx, limit = extract_convergent_subsequence([base] * 10, adt, 1e-6)
    assert idx == list(range(10))
    assert limit == base


def test_extract_shrinking_family():
    adt = AdtClass(0.5, 1)
    family = [sig([1.0 + 1.0 / k], [1, 2], 10.0) for k in range(1, 51)]
    idx, limit = extract_convergent_subsequence(family, adt, 0.01)
    assert len(idx) >= math.ceil(math.sqrt(50))
    assert limit.n_switches == 1
    assert abs(limit.switch_times[0] - 1.0) <= 1e-3
    assert list(limit.modes) == [1, 2]
    assert validate_adt(limit, adt).passed


def test_extract_interleaved_constant_families():
    adt = AdtClass(0.5, 1)
    family = [SwitchingSignal.constant(1 if i % 2 == 0 else 2, 5.0) for i in range(9)]
    idx, limit = extract_convergent_subsequence(family, adt, 1e-6)
    assert idx == [0, 2, 4, 6, 8]  # the majority (and tie-smallest) family
    assert limit == SwitchingSignal.constant(1, 5.0)


def test_extract_vanishing_first_switch_sets_the_initial_mode():
    # sigma_k = 2 on [0, 1/k), 1 on [1/k, 3), 2 after: the first switch tends
    # to 0, and Wynn's estimate of its limit lands a few ulps above 0
    adt = AdtClass(0.5, 2)
    family = [sig([1.0 / k, 3.0], [2, 1, 2], 10.0) for k in range(4, 54)]
    _, limit = extract_convergent_subsequence(family, adt, 0.01)
    assert limit == sig([3.0], [1, 2], 10.0)


def test_extract_merges_switches_that_converge_together():
    # two switches 1/k apart under n0 = 2 meet at t = 2 in the limit: the
    # coincidence group keeps its last mode, which the initial mode repeats
    adt = AdtClass(0.5, 2)
    family = [sig([2.0, 2.0 + 1.0 / k], [1, 2, 1], 10.0) for k in range(4, 54)]
    _, limit = extract_convergent_subsequence(family, adt, 0.01)
    assert limit == SwitchingSignal.constant(1, 10.0)


def test_extract_failure_when_modes_scatter():
    # six mode orders, two signals each at most: no mode cluster reaches ceil(sqrt(6)) = 3
    family = [sig([2.0], modes, 10.0) for modes in ([1, 2], [2, 1], [1, 3], [3, 1], [2, 3], [3, 2])]
    with pytest.raises(ExtractionFailure) as err:
        extract_convergent_subsequence(family, AdtClass(0.5, 2), 0.01)
    assert (err.value.achieved, err.value.required, err.value.stage) == (2, 3, "mode[0]")


def test_extract_too_few_signals():
    with pytest.raises(ValueError):
        extract_convergent_subsequence([SwitchingSignal.constant(1, 5.0)], AdtClass(1.0, 1), 0.1)


def test_extract_failure_when_scattered():
    adt = AdtClass(0.01, 1)
    family = [sig([0.5 + 0.35 * i], [1, 2], 10.0) for i in range(25)]
    with pytest.raises(ExtractionFailure) as err:
        extract_convergent_subsequence(family, adt, 1e-9)
    assert err.value.achieved < err.value.required
    assert err.value.stage.startswith("time")


def test_extract_requires_validated_inputs():
    adt = AdtClass(1.0, 1)
    bad = sig([1.0, 1.001], [1, 2, 1], 10.0)
    with pytest.raises(ValueError):
        extract_convergent_subsequence([bad, bad], adt, 0.1)


def test_extract_requires_common_horizon():
    adt = AdtClass(1.0, 1)
    with pytest.raises(ValueError):
        extract_convergent_subsequence(
            [SwitchingSignal.constant(1, 5.0), SwitchingSignal.constant(1, 6.0)], adt, 0.1
        )


# -- serialization ---------------------------------------------------------------------


def test_signal_roundtrip_exact(tmp_path):
    s = sig([0.1234567890123456, 2.5, math.pi], [1, 2, 1, 3], 10.0)
    path = tmp_path / "sig.txt"
    save_signal(s, ModeSet(3), path)
    loaded, modes = load_signal(path)
    assert modes.size == 3
    assert loaded == s  # bit-exact switch times via 17 significant digits


def test_load_signal_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(SignalFormatError):
        load_signal(p)
    p.write_text("modes=2\n0 1\n")
    with pytest.raises(SignalFormatError):
        load_signal(p)
    p.write_text("modes=2 horizon=5\n0 1\n1.0 2 extra\n")
    with pytest.raises(SignalFormatError):
        load_signal(p)
    p.write_text("modes=2 horizon=5\n0.5 1\n")
    with pytest.raises(SignalFormatError):
        load_signal(p)
    p.write_text("modes=2 horizon=5\n0 1\n1.0 7\n")
    with pytest.raises(SignalFormatError):
        load_signal(p)


def test_load_signal_errors_name_the_file_line(tmp_path):
    """Comment and blank lines count: a fault names its line in the file."""
    p = tmp_path / "bad.txt"
    p.write_text("# saved by hand\n\nmodes=2 horizon=5\n0 1\n1.0 2 extra\n")
    with pytest.raises(SignalFormatError, match=r"bad\.txt:5: expected 't gamma'"):
        load_signal(p)
    p.write_text("# no modes\nmodes=0 horizon=5\n0 1\n")
    with pytest.raises(SignalFormatError, match=r"bad\.txt:2: bad header"):
        load_signal(p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 12))
def test_extract_postconditions_on_generated_families(base_seed, count):
    # extraction over arbitrary valid families either succeeds with a valid
    # limit drawn from the inputs' horizon, or reports a clean failure
    adt = AdtClass(0.8, 2)
    family = [generate_adt(base_seed + k, adt, ModeSet(2), 8.0) for k in range(count)]
    try:
        indices, limit = extract_convergent_subsequence(family, adt, tol=0.05)
    except ExtractionFailure:
        return
    assert len(indices) >= math.ceil(math.sqrt(count))
    assert indices == sorted(indices)
    assert validate_adt(limit, adt).passed
    assert limit.horizon == 8.0
