import itertools
import math
import re

import numpy as np
import pytest

from switchcert.reports import CheckReport
from switchcert.scenarios import FileSource, GeneratedSource
from switchcert.signals import AdtClass, ModeSet, SwitchingSignal, load_signal, save_signal
from switchcert.stability import (
    _fold,
    check_uniform_attraction,
    fit_kl_envelope,
    fit_uniform_envelope,
    guas_report,
    simulate_batch,
)
from switchcert.systems import (Covering, FiniteEscapeError, IntegratorStats, SwitchedSystem,
                                Trajectory, integrate)
from dataclasses import replace


@pytest.fixture(scope="module")
def zero_batch(ex1_scenario):
    signal = SwitchingSignal(np.array([1.0]), np.array([1, 2]), 20.0)
    return tuple(integrate(ex1_scenario.system, [0.0, 0.0], signal) for _ in range(3))


# -- uniform envelope ------------------------------------------------------------


def test_uniform_envelope_contraction(ex1_batch):
    env = fit_uniform_envelope(ex1_batch)
    assert env.passed
    # V = |x|^2 never increases, so the overshoot per bin is below the
    # bin's upper edge (1.01 covers integration slop)
    for i, a in enumerate(env.alpha):
        if not math.isnan(a):
            assert a <= 1.01 * env.bin_edges[i + 1]


def test_uniform_envelope_zero_batch(zero_batch):
    env = fit_uniform_envelope(zero_batch)
    assert env.passed
    assert env.zero_radius_sup == 0.0
    assert env.alpha.size == 0


def test_uniform_envelope_circle_batch(two_centers_batch):
    env = fit_uniform_envelope(two_centers_batch)
    assert env.passed  # circles are uniformly stable
    for i, a in enumerate(env.alpha):
        if not math.isnan(a):
            assert env.bin_edges[i] * (1 - 1e-9) <= a <= env.bin_edges[i + 1] * (1 + 1e-9)


def test_uniform_envelope_regularization_monotone(ex1_batch):
    env = fit_uniform_envelope(ex1_batch)
    reg = env.alpha_regularized
    filled = reg[~np.isnan(reg)]
    assert np.all(np.diff(filled) >= 0.0)
    raw = env.alpha[~np.isnan(env.alpha)]
    assert np.all(filled[-raw.size:] >= raw - 1e-15)


def test_uniform_envelope_restart_consistency(ex1_scenario, ex1_batch):
    # restarting the clock equals starting fresh from the restart state
    traj = ex1_batch[-1]
    t0 = 7.0
    k = np.searchsorted(traj.times, t0)
    suffix_sup = float(traj.norms[k:].max())
    fresh = integrate(ex1_scenario.system, traj.states[k],
                      traj.signal.shift(float(traj.times[k])), ex1_scenario.integrator)
    # feedback law is autonomous: replaying the shifted signal reproduces the suffix
    assert abs(float(fresh.norms.max()) - suffix_sup) <= 1e-6


def test_uniform_envelope_accepts_bounded_growth(ex1_scenario):
    m = ModeSet(1)
    sys_ = SwitchedSystem(1, {1: lambda x: x}, m, Covering.trivial(m))
    traj = integrate(sys_, [1.0], SwitchingSignal.constant(1, 5.0))
    env = fit_uniform_envelope((traj,))  # bounded growth stays below the blow-up bound
    assert env.n_pairs > 0


def test_uniform_envelope_rejects_an_inf_state():
    # Trajectory does not check finiteness and integrate raises
    # FiniteEscapeError first, so only a hand-built trajectory gets here
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0], [math.inf]]),
                      SwitchingSignal.constant(1, 1.0), IntegratorStats())
    with pytest.raises(ValueError, match="unbounded trajectory"):
        fit_uniform_envelope((traj,))


# -- KL envelope ------------------------------------------------------------------


def test_kl_envelope_exponential_batch(ex1_batch):
    env = fit_kl_envelope(ex1_batch)
    assert env.passed
    assert env.lam > 0.0
    assert env.C >= 1.0
    assert env.worst_slack >= 0.0


def test_kl_envelope_sound_on_samples(ex1_batch):
    env = fit_kl_envelope(ex1_batch)
    for traj in ex1_batch:
        r0 = float(traj.norms[0])
        bound = env.C * r0 * np.exp(-env.lam * traj.times)
        assert np.all(traj.norms <= bound * (1.0 + 1e-9) + 1e-9)


def test_kl_envelope_fails_on_circles(two_centers_scenario, two_centers_batch):
    env = fit_kl_envelope(two_centers_batch)
    assert not env.passed
    assert env.lam <= math.log(2.0) / two_centers_scenario.horizon
    assert env.table_decay is not None and env.table_decay > 0.5


def test_kl_envelope_degenerate_zero_batch(zero_batch):
    env = fit_kl_envelope(zero_batch)
    assert env.passed and env.degenerate


def test_kl_fallback_skips_a_start_at_the_origin(two_centers_batch, zero_batch):
    # the circles fail the fit; a start at the origin joins neither the fit
    # nor the late-window decay table
    alone = fit_kl_envelope(two_centers_batch)
    mixed = fit_kl_envelope((zero_batch[0], *two_centers_batch))
    assert not mixed.passed and mixed.table_decay == alone.table_decay
    assert mixed.n_samples == alone.n_samples


# -- uniform attraction --------------------------------------------------------------


def test_attraction_finite_time(ex1_scenario, ex1_batch):
    rep = check_uniform_attraction(ex1_batch, radius=2.1, eps=0.1)
    assert rep.passed
    assert 0.0 < rep.worst < ex1_scenario.horizon


def test_attraction_fails_on_circles(two_centers_batch):
    rep = check_uniform_attraction(two_centers_batch, radius=2.0, eps=0.1)
    assert not rep.passed
    assert math.isinf(rep.worst)


def test_attraction_zero_batch(zero_batch):
    rep = check_uniform_attraction(zero_batch, radius=1.0, eps=0.1)
    assert rep.passed
    assert rep.worst == 0.0


def test_attraction_radius_filter(ex1_batch):
    narrow = check_uniform_attraction(ex1_batch, radius=1e-9, eps=0.1)
    assert narrow.passed  # no restart qualifies, nothing to violate
    assert narrow.details["n_restarts"] == 0


# -- batch simulation -----------------------------------------------------------------


def test_simulate_batch_generated_is_deterministic(ex2_scenario):
    small = replace(ex2_scenario, source=GeneratedSource(AdtClass(0.5, 2), count=2),
                    horizon=10.0)
    a = simulate_batch(small)
    b = simulate_batch(small)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
        assert ta.signal == tb.signal


def test_simulate_batch_file_source(tmp_path, ex1_scenario):
    sig = SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 10.0)
    p = tmp_path / "sig.txt"
    save_signal(sig, ModeSet(2), p)
    scn = replace(ex1_scenario, source=FileSource((load_signal(p)[0],)), horizon=10.0,
                  initial_states=np.array([[1.0, 0.0]]))
    batch = simulate_batch(scn)
    assert len(batch) == 1
    assert batch[0].signal == sig


def test_simulate_batch_file_horizon_mismatch(ex1_scenario):
    """A file signal is checked against the scenario when the scenario is built."""
    sig = SwitchingSignal(np.array([1.0]), np.array([1, 2]), 10.0)
    with pytest.raises(ValueError, match=r"^signals\[0\]: horizon 10.0 differs"):
        replace(ex1_scenario, source=FileSource((sig,)), horizon=60.0)
    foreign = SwitchingSignal(np.array([1.0]), np.array([1, 3]), 60.0)
    with pytest.raises(ValueError, match=r"^signals\[1\]: mode 3 is not one"):
        replace(ex1_scenario, source=FileSource((SwitchingSignal.constant(2, 60.0), foreign)))


def test_probe_integrates_under_scenario_tolerances(ex2_scenario):
    """The distinguishability probe runs under the scenario's integrator options: a
    blow-up bound inside the sampled region drops the starts beyond it, where the
    default options probe all 576."""
    from switchcert.scenarios import polar_grid

    small = replace(ex2_scenario, horizon=5.0, initial_states=polar_grid([0.5], 4),
                    source=GeneratedSource(AdtClass(0.5, 2), count=2))
    for bound, expect in ((2.0, lambda n: 0 < n < 576), (1e9, lambda n: n == 576)):
        scn = replace(small, integrator=replace(small.integrator, bound=bound))
        probes = [e.summary for e in guas_report(scn).entries
                  if e.name.startswith("distinguishability")]
        counts = [int(re.search(r"over (\d+) starts", s)[1]) for s in probes]
        assert len(counts) == 2 and all(map(expect, counts)), (bound, counts)


def test_simulate_batch_propagates_blow_up():
    m = ModeSet(1)
    sys_ = SwitchedSystem(1, {1: lambda x: x ** 2}, m, Covering.trivial(m))
    from switchcert.scenarios import Scenario, FeedbackSource
    from switchcert.systems import FeedbackRule, IntegratorOptions
    from switchcert.lyapunov import LyapunovCandidate

    scn = Scenario(
        name="escape",
        system=sys_,
        V=LyapunovCandidate(value=lambda x, g: float(np.dot(x, x))),
        W=None,
        source=FeedbackSource(FeedbackRule(lambda x: 1, {1: lambda x: -1.0})),
        initial_states=np.array([[1.0]]),
        horizon=2.0,
        integrator=IntegratorOptions(max_dx=math.inf),
    )
    with pytest.raises(FiniteEscapeError):
        simulate_batch(scn)


# -- aggregate verdict -----------------------------------------------------------------


def _nan_far_left_value(x, gamma):
    return np.where(x.T[0] < -1.0, np.nan, np.vecdot(x, x))


def test_guas_report_keeps_a_nan_worst(ex1_scenario, ex1_batch):
    # V reads NaN on part of the batch: the entry fails and says so, rather
    # than quoting the largest finite rise of the other trajectories
    from switchcert.lyapunov import LyapunovCandidate

    rep = guas_report(replace(ex1_scenario, V=LyapunovCandidate(_nan_far_left_value)), ex1_batch)
    entry = next(e for e in rep.entries if e.name == "return-monotonicity")
    assert not entry.passed and math.isnan(entry.data["worst"])
    assert "rise nan" in entry.summary


def test_fold_is_the_verdict_over_trajectory_worsts():
    # the check is the identity on stand-in per-trajectory reports, each
    # passing iff its worst is at most tol, as the three folded checks do
    def old_rule(reports):  # the per-report rule the fold replaced
        worsts = np.array([-math.inf, *(rep.worst for rep in reports)])
        return all(rep.passed for rep in reports), float(worsts[np.argmax(worsts)])

    tol = 1.0
    reports = [CheckReport("r", worst <= tol, worst=worst, witness=None if worst <= tol else k)
               for k, worst in enumerate([math.nan, 5.0, -math.inf, 0.5, math.nan])]
    for n in range(len(reports) + 1):
        for batch in itertools.permutations(reports, n):
            folded = _fold(lambda rep, tol: rep, batch, tol)
            passed, worst = old_rule(batch)
            assert folded.passed == passed
            assert folded.worst == worst or math.isnan(folded.worst) and math.isnan(worst)
            if passed:
                assert folded.witness is None
                continue
            # the witness is the first NaN trajectory's, else the first largest's
            worsts = [rep.worst for rep in batch]
            k = next((i for i, w in enumerate(worsts) if math.isnan(w)), None)
            k = worsts.index(max(worsts)) if k is None else k
            assert folded.witness == (k, batch[k].witness)


def test_guas_report_degenerate_kl_summary(ex1_scenario, zero_batch):
    rep = guas_report(ex1_scenario, zero_batch)
    entry = next(e for e in rep.entries if e.name == "kl-envelope")
    assert entry.passed and entry.summary == "degenerate batch (all samples at the origin)"


def test_guas_report_example1(ex1_scenario, ex1_batch):
    rep = guas_report(ex1_scenario, ex1_batch)
    assert rep.hypotheses_ok
    assert rep.guas_observed
    assert rep.batch_size == 16
    names = {e.name for e in rep.entries}
    assert {"equilibrium", "covering-compliance", "class-k-bounds",
            "decrease-on-covering", "return-monotonicity", "adt-regularity",
            "uniform-envelope", "kl-envelope", "uniform-attraction",
            "lasalle-origin"} <= names


def test_guas_report_example2(ex2_scenario, ex2_batch):
    rep = guas_report(ex2_scenario, ex2_batch)
    assert rep.hypotheses_ok
    assert rep.guas_observed
    probes = [e for e in rep.entries if e.name.startswith("distinguishability")]
    assert len(probes) == 2 and all(e.passed for e in probes)


def test_guas_report_negative_control(two_centers_scenario, two_centers_batch):
    rep = guas_report(two_centers_scenario, two_centers_batch)
    assert rep.hypotheses_ok  # the weak-Lyapunov side still holds
    assert not rep.guas_observed
    by_name = {e.name: e for e in rep.entries}
    assert by_name["class-k-bounds"].passed
    assert by_name["decrease-on-covering"].passed
    assert by_name["return-monotonicity"].passed
    assert not by_name["kl-envelope"].passed
    assert not by_name["lasalle-origin"].passed
    assert "not established" in rep.to_text()


def test_guas_report_records_are_parseable(ex1_scenario, ex1_batch):
    rep = guas_report(ex1_scenario, ex1_batch)
    records = rep.to_records()
    assert all("=" in line for line in records)
    keys = [line.split("=", 1)[0] for line in records]
    assert len(keys) == len(set(keys))  # no duplicate keys
    assert "guas_observed=1" in records
