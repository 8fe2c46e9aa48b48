import math
import re
import warnings
from functools import partial, reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import (
    damped_rotation_function,
    rotation_function,
    spiral_focus_function,
    twin_scenario,
    twin_system,
)
from hypothesis import strategies as st
from scipy.integrate import DOP853
from scipy.integrate._ivp.common import select_initial_step
from scipy.linalg import expm

from switchcert import systems
from switchcert.reports import fmt17
from switchcert.scenarios import (
    builtin_scenario,
    damped_rotation,
    half_plane_covering,
    half_plane_rule,
    rotation,
    saturating_pull,
    spiral_focus,
)
from switchcert.signals import AdtClass, ModeSet, SwitchingSignal, generate_adt, validate_adt
from switchcert.stability import simulate_batch
from switchcert.systems import (
    ChatteringError,
    Covering,
    FeedbackRule,
    FiniteEscapeError,
    IntegratorOptions,
    LinearField,
    StiffnessError,
    SwitchedSystem,
    Trajectory,
    advance_starts,
    check_covering_compliance,
    check_equilibrium,
    evaluate_rows,
    integrate,
    integrate_feedback,
    modes_containing_origin,
    write_trajectory_csv,
)

QUARTER = math.pi / 2.0


def single_mode_system(f, dim=2):
    m = ModeSet(1)
    return SwitchedSystem(dim, {1: f}, m, Covering.trivial(m))


# -- structural ----------------------------------------------------------------


def test_system_requires_matching_keys():
    m = ModeSet(2)
    with pytest.raises(ValueError):
        SwitchedSystem(2, {1: rotation}, m, Covering.trivial(m))
    with pytest.raises(ValueError):
        SwitchedSystem(2, {1: rotation, 2: rotation}, m, Covering({1: lambda x: -1.0}))


def test_covering_membership_and_union():
    cov = half_plane_covering()
    assert cov.contains(1, np.array([-1.0, 0.0]))
    assert not cov.contains(1, np.array([1.0, 0.0]))
    assert cov.contains(2, np.array([0.0, 5.0]))
    pts = np.array([[1.0, 1.0], [-2.0, 0.3], [0.0, 0.0]])
    assert cov.check_union(pts).passed
    holey = Covering({1: lambda x: x.T[0] + 1.0, 2: lambda x: 1.0 - x.T[0]})  # |x0| >= 1 only
    assert holey.check_union(np.array([[-2.0, 0.0], [3.0, 0.0]])).passed
    rep = holey.check_union(np.array([[-2.0, 0.0], [0.0, 0.0]]))
    assert not rep.passed and rep.worst == pytest.approx(1.0)


def test_modes_containing_origin():
    m = ModeSet(2)
    assert modes_containing_origin(half_plane_covering(), m, 2) == (1, 2)
    assert modes_containing_origin(Covering.trivial(m), m, 2) == (1, 2)
    cov = Covering({1: lambda x: x[0] + 1.0, 2: lambda x: -1.0})  # chi_1 = {x0 <= -1}
    assert modes_containing_origin(cov, m, 2) == (2,)


def test_check_equilibrium_builtin_and_shifted():
    for name in ("example1", "example2"):
        assert check_equilibrium(builtin_scenario(name).system).passed
    m = ModeSet(1)
    shifted = SwitchedSystem(
        2, {1: lambda x: rotation(x) + np.array([1.0, 0.0])}, m, Covering.trivial(m)
    )
    rep = check_equilibrium(shifted)
    assert not rep.passed
    assert rep.worst == pytest.approx(1.0)


def _unit_pull(x):
    """-x/|x|: a field with no value at the origin (0/0 reads NaN there)."""
    with np.errstate(invalid="ignore"):
        return -x / np.linalg.norm(x)


def test_check_equilibrium_nan_residual_fails():
    m = ModeSet(2)
    sys_ = SwitchedSystem(2, {1: _unit_pull, 2: rotation}, m, Covering.trivial(m))
    rep = check_equilibrium(sys_)
    assert not rep.passed and math.isnan(rep.worst)
    assert list(rep.witness) == [1] and math.isnan(rep.witness[1])


# -- prescribed-signal integration ------------------------------------------------


def test_quarter_turn_rotation():
    sys_ = builtin_scenario("example1").system
    traj = integrate(sys_, [1.0, 0.0], SwitchingSignal.constant(2, QUARTER))
    assert np.linalg.norm(traj.states[-1] - np.array([0.0, 1.0])) <= 1e-6


def test_equilibrium_stays_put():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([1.0, 2.0]), np.array([1, 2, 1]), 5.0)
    traj = integrate(sys_, [0.0, 0.0], signal)
    assert np.all(traj.states == 0.0)


def test_saturating_pull_strictly_decreasing():
    traj = integrate(single_mode_system(saturating_pull), [3.0, 4.0],
                     SwitchingSignal.constant(1, 20.0))
    norms = traj.norms
    assert np.all(np.diff(norms) < 0.0)


def test_integrate_input_validation():
    sys_ = builtin_scenario("example1").system
    sigc = SwitchingSignal.constant(1, 1.0)
    with pytest.raises(ValueError):
        integrate(sys_, [1.0], sigc)  # wrong dimension
    with pytest.raises(ValueError):
        integrate(sys_, [math.nan, 0.0], sigc)


def test_switch_times_are_mesh_points():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([0.7, 1.9, 3.3]), np.array([1, 2, 1, 2]), 5.0)
    traj = integrate(sys_, [1.0, 0.0], signal)
    for t in signal.switch_times:
        traj.state_at_sample(float(t))  # raises KeyError when absent


def test_sample_density_respects_max_dx():
    sys_ = builtin_scenario("example1").system
    opts = IntegratorOptions(max_dx=0.05)
    traj = integrate(sys_, [1.0, 0.5],
                     SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 5.0), opts)
    steps = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    assert steps.max() <= 0.05 + 1e-12


def test_blow_up_reports_escape_time():
    sys_ = single_mode_system(lambda x: x ** 2, dim=1)
    opts = IntegratorOptions(max_dx=math.inf)
    with pytest.raises(FiniteEscapeError) as err:
        integrate(sys_, [1.0], SwitchingSignal.constant(1, 2.0), opts)
    assert 0.9 <= err.value.escape_time <= 1.01  # dx/dt = x^2 from 1 escapes at t = 1


def test_stiffness_error_on_nonfinite_field():
    sys_ = single_mode_system(
        lambda x: np.array([1.0, np.sqrt(1.0 - x[0])]) if x[0] <= 1.0
        else np.array([1.0, math.nan])
    )
    with pytest.raises(StiffnessError):
        integrate(sys_, [0.0, 0.0], SwitchingSignal.constant(1, 5.0))


@pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.0, math.inf]], ids=["nan", "inf"])
@pytest.mark.parametrize("x0, t_bad", [([2.0, 0.0], 0.0), ([0.0, 0.0], 1.0)],
                         ids=["at-start", "mid-run"])
def test_stiffness_error_on_each_nonfinite_component(bad, x0, t_bad):
    # unit speed along x1; the field turns non-finite once x1 reaches 1
    sys_ = single_mode_system(lambda x: np.where((x.T[0] >= 1.0)[..., None], bad, [1.0, 0.0]))
    rule = FeedbackRule(lambda x: 1, {1: lambda x: -1.0})
    opts = IntegratorOptions(max_dx=math.inf)
    runs = [
        lambda: integrate(sys_, x0, SwitchingSignal.constant(1, 3.0), opts),
        lambda: integrate_feedback(sys_, x0, rule, 3.0, opts),
        lambda: advance_starts(sys_, 1, np.array([[-5.0, 0.0], x0]), 3.0, opts),
    ]
    for run in runs:
        with pytest.raises(StiffnessError, match="non-finite values") as err:
            run()
        t = float(str(err.value).rsplit("~", 1)[1])
        assert t_bad <= t <= t_bad + 0.5


def _huge_drift(x):
    return np.full_like(x, 1e300)


@pytest.mark.parametrize("x0, message", [
    (1e307, "non-finite state at t ~ 1.98434e+08"),
    (0.0, "stepper failed at t ~ 0: Required step size is less than spacing"),
], ids=["state-overflows", "step-underflows"])
def test_stiffness_error_on_state_overflow_and_step_underflow(x0, message):
    # a constant field of 1e300 with no blow-up bound: from 1e307 the state leaves the
    # doubles, and from 0 the error scale of the first step admits no step size
    m = ModeSet(1)
    sys_ = SwitchedSystem(1, {1: _huge_drift}, m, Covering.trivial(m))
    opts = IntegratorOptions(max_dx=math.inf, bound=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StiffnessError, match=re.escape(message)):
            integrate(sys_, [x0], SwitchingSignal.constant(1, 1e9), opts)
        with pytest.raises(StiffnessError, match=re.escape(message)):
            advance_starts(sys_, 1, np.array([[x0]]), 1e9, opts)


def _cube(x):
    return x ** 3


def test_stiffness_error_when_the_scaled_field_norm_overflows():
    # from 1e100 the field's RMS norm over the tolerance scale is inf, so the
    # initial step selection's trial step is 0: every integrator reports a
    # step-size failure, not a division by zero, and no overflow warning
    m = ModeSet(1)
    sys_ = SwitchedSystem(1, {1: _cube}, m, Covering.trivial(m))
    rule = FeedbackRule(lambda x: 1, {1: lambda x: -1.0})
    message = "stepper failed at t ~ 0: Required step size is less than spacing"
    runs = [
        lambda: integrate(sys_, [1e100], SwitchingSignal.constant(1, 1.0)),
        lambda: integrate_feedback(sys_, [1e100], rule, 1.0),
        lambda: advance_starts(sys_, 1, np.array([[1e100]]), 1.0,
                               IntegratorOptions(max_dx=math.inf)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the message is the only output
        for run in runs:
            with pytest.raises(StiffnessError, match=re.escape(message)):
                run()


def test_advance_starts_raises_the_first_failing_starts_error():
    # start 0's error comes late in time and start 1's in the first step: the
    # error raised is that of the first start in order, as a loop over starts
    m = ModeSet(1)
    sys_ = SwitchedSystem(1, {1: _huge_drift}, m, Covering.trivial(m))
    opts = IntegratorOptions(max_dx=math.inf, bound=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for starts, message in (([[1e307], [0.0]], "non-finite state"),
                                ([[0.0], [1e307]], "stepper failed")):
            with pytest.raises(StiffnessError, match=message):
                advance_starts(sys_, 1, np.array(starts), 1e9, opts)


def _nan_past_one(x):
    """Unit speed along x1, NaN once x1 reaches 1 or is NaN."""
    return np.where((~(x.T[0] < 1.0))[..., None], math.nan, [1.0, 0.0])


def test_advance_starts_drops_only_the_rows_whose_stages_fail():
    # three starts reach x1 = 1 within the window, one starts past it (its
    # error, at t = 0, is not overwritten by the initial step's trial call)
    # and three never reach it; the first stage that meets NaN is an
    # interior one, and the failing rows change no bit of the others' samples
    starts = np.array([[-50.0, 0.0], [0.0, 0.0], [-60.0, 1.0], [0.4, 0.0], [-70.0, 0.0],
                       [0.9, 2.0], [1.5, 0.0]])
    stack_calls = []

    def field(x):
        out = _nan_past_one(x)
        if x.ndim == 2:
            stack_calls.append(bool(np.isnan(out).any()))
        return out

    sys_ = single_mode_system(field)
    opts = IntegratorOptions(max_dx=math.inf)
    with np.errstate(**systems._SOLVE_ERRSTATE):
        kept_rows, kept_states, _, errors = systems._advance_dop853(field, starts, 3.0, opts)
    first = stack_calls.index(True, 2)  # two calls select the initial step, then 12 per attempt
    assert 1 <= (first - 2) % 12 + 1 < 12
    assert sorted(errors) == [1, 3, 5, 6] and str(errors[6]).endswith("t ~ 0")
    for k, err in errors.items():
        with pytest.raises(StiffnessError) as want:
            integrate(sys_, starts[k], SwitchingSignal.constant(1, 3.0), opts)
        assert str(err) == str(want.value)
    with pytest.raises(StiffnessError) as raised:
        advance_starts(sys_, 1, starts, 3.0, opts)
    assert str(raised.value) == str(errors[1])
    rows, states = np.concatenate(kept_rows), np.concatenate(kept_states)
    alone = advance_starts(sys_, 1, starts[[0, 2, 4]], 3.0, opts)
    for k, want in zip([0, 2, 4], alone):
        assert systems._same_bits(states[rows == k], want)


def test_advance_starts_checks_the_field_once_per_stack_shape():
    # evaluate_rows compares the first and last rows of a stack with per-point
    # calls; the advance makes that check once for each stack shape it meets
    from switchcert.lyapunov import SampleRegion

    ex2 = twin_scenario("example2")
    starts = SampleRegion(0.1, 3.0).all_points(2)
    opts = IntegratorOptions(max_dx=math.inf)
    for gamma in ex2.system.modes.labels:
        field = ex2.system.field(gamma)
        one_state, stack_shapes = [], set()

        def counted(x, field=field):
            if x.ndim == 1:
                one_state.append(x)
            else:
                stack_shapes.add(x.shape)
            return field(x)

        system = SwitchedSystem(2, {**ex2.system.fields, gamma: counted}, ex2.system.modes,
                                ex2.system.covering)
        got = advance_starts(system, gamma, starts, 3.0, opts)
        want = advance_starts(ex2.system, gamma, starts, 3.0, opts)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(stack_shapes) >= 2  # rows finish at different steps
        assert len(one_state) <= 2 * len(stack_shapes)


def test_feedback_grazing_contact_is_no_switch(monkeypatch):
    # a located crossing whose state rounds back into the old mode is grazing
    # contact: the run goes on in that mode, with no switch and no event
    calls = []

    def same_mode_crossing(dense, rule, gamma, t_lo, x_lo, t_hi, event_tol):
        calls.append(t_hi)
        return t_hi, np.asarray(x_lo, dtype=float)  # the step's start lies in gamma

    monkeypatch.setattr(systems, "_locate_crossing", same_mode_crossing)
    sys_ = builtin_scenario("example1").system
    traj = integrate_feedback(sys_, [1.0, 0.0], half_plane_rule(), 10.0)
    assert calls
    assert traj.signal.n_switches == 0 and traj.stats.n_events == 0
    assert traj.times[-1] == 10.0


def test_integration_consistency_with_error_budget():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 5.0)
    coarse = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(rtol=1e-9, atol=1e-12))
    fine = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(rtol=5e-10, atol=5e-13))
    diff = np.linalg.norm(coarse.states[-1] - fine.states[-1])
    assert diff < 10.0 * coarse.stats.error_bound_sum


def test_single_mode_reversal():
    forward = single_mode_system(rotation)
    backward = single_mode_system(lambda x: -rotation(x))
    opts = IntegratorOptions(rtol=1e-12, atol=1e-13)
    out = integrate(forward, [1.0, 0.0], SwitchingSignal.constant(1, QUARTER), opts)
    back = integrate(backward, out.states[-1], SwitchingSignal.constant(1, QUARTER), opts)
    assert np.linalg.norm(back.states[-1] - np.array([1.0, 0.0])) <= 100.0 * opts.atol


def test_unsplit_steps_skip_the_interpolant():
    sys_ = twin_system(builtin_scenario("example1").system)
    signal = SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 5.0)
    coarse = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(max_dx=math.inf))
    fine = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(max_dx=0.01))
    # subdivision only adds samples: the accepted steps are the same
    idx = np.searchsorted(fine.times, coarse.times)
    assert np.array_equal(fine.times[idx], coarse.times)
    assert np.array_equal(fine.states[idx], coarse.states)
    assert coarse.stats.n_steps == fine.stats.n_steps
    # and the interpolant's extra field evaluations are paid only by split steps
    assert coarse.stats.n_rhs < fine.stats.n_rhs


# -- the DOP853 step loop against scipy's -----------------------------------------------


def _reference_emit(ts, xs, t, x):
    if ts and t <= ts[-1]:
        return
    ts.append(t)
    xs.append(np.array(x, dtype=float))


def _reference_subdivide(make_dense, t0, x0, t1, x1, max_dx, ts, xs):
    """``systems._subdivide`` as it was with one numpy chord norm per sample."""
    budget = systems._SUBDIVISION_BUDGET
    dense = None
    stack = [(t0, x0, t1, x1)]
    while stack:
        ta, xa, tb, xb = stack.pop()
        if (
            systems._norm(np.asarray(xb) - np.asarray(xa)) <= max_dx
            or tb - ta < 1e-13 * max(1.0, tb)
            or budget <= 0
        ):
            _reference_emit(ts, xs, tb, xb)
            continue
        budget -= 1
        if dense is None:
            dense = make_dense()
        tm = 0.5 * (ta + tb)
        xm = dense(tm)
        stack.append((tm, xm, tb, xb))
        stack.append((ta, xa, tm, xm))


def _reference_locate_crossing(dense, rule, gamma, t_lo, t_hi, event_tol):
    """The bisection locator ``systems._locate_crossing`` was before the Illinois
    one, reading the boundary at every bisection step: the locator's oracle."""
    b = rule.boundaries[gamma]
    lo, hi = t_lo, t_hi
    x_hi = np.asarray(dense(hi), dtype=float)
    for _ in range(200):
        window_ok = hi - lo <= event_tol
        value_ok = abs(float(b(x_hi))) <= 0.5 * event_tol * (1.0 + systems._norm(x_hi))
        if (window_ok and value_ok) or hi - lo <= 4e-16 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        x_mid = np.asarray(dense(mid), dtype=float)
        if rule(x_mid) != gamma:
            hi, x_hi = mid, x_mid
        else:
            lo = mid
    return hi, x_hi


def _reference_run_mode(system, gamma, t0, x0, t_end, opts, stats, ts, xs, workspace,
                        rule=None, first_step=None):
    """``systems._run_mode`` as it was when it stepped scipy's DOP853 solver object,
    sampling with the reference above and locating crossings with
    ``systems._locate_crossing`` on scipy's dense output; ``first_step``
    is scipy's, the step proposed last is the solver's ``h_abs``, and the
    shared stage ``workspace`` is ignored: scipy keeps its own."""
    f = system.field(gamma)

    def rhs(t, y):
        out = np.asarray(f(y), dtype=float)
        if not all(map(math.isfinite, out.tolist())):
            raise StiffnessError(f"vector field returned non-finite values at t ~ {t:.6g}")
        return out

    solver = DOP853(rhs, t0, np.asarray(x0, dtype=float), t_end, rtol=opts.rtol, atol=opts.atol,
                    first_step=first_step)
    t_prev, x_prev = t0, np.asarray(x0, dtype=float)
    crossed = False
    while solver.status == "running" and not crossed:
        message = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"stepper failed at t ~ {solver.t:.6g}: {message}")
        stats.n_steps += 1
        stats.error_bound_sum += opts.atol + opts.rtol * float(np.linalg.norm(solver.y, np.inf))
        if not np.all(np.isfinite(solver.y)):
            raise StiffnessError(f"non-finite state at t ~ {solver.t:.6g}")
        if float(np.linalg.norm(solver.y)) > opts.bound:
            raise FiniteEscapeError(solver.t, np.array(solver.y), opts.bound)
        t_new, x_new, make_dense = solver.t, solver.y, solver.dense_output
        if rule is not None and rule(x_new) != gamma:
            dense = solver.dense_output()
            t_new, x_new = systems._locate_crossing(dense, rule, gamma, t_prev, x_prev, t_new,
                                                    opts.event_tol)
            make_dense, crossed = (lambda: dense), True
        _reference_subdivide(make_dense, t_prev, x_prev, t_new, x_new, opts.max_dx, ts, xs)
        t_prev, x_prev = t_new, x_new
    stats.n_rhs += solver.nfev
    return t_prev, x_prev, crossed, solver.h_abs


def _outcome(run):
    """The trajectory a run returns, or the type, text and data of the error it raises."""
    try:
        return run()
    except (StiffnessError, FiniteEscapeError, ChatteringError) as exc:
        state = getattr(exc, "state", None)
        return (type(exc), str(exc), getattr(exc, "escape_time", None),
                None if state is None else state.tolist())


def _assert_matches_scipy(run):
    """``run()`` gives the same samples, counts and errors as with scipy's DOP853 stepping."""
    got = _outcome(run)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "At least one element of `rtol` is too small")
        mp.setattr(systems, "_run_mode", _reference_run_mode)
        want = _outcome(run)
    if not isinstance(want, Trajectory):
        assert got == want
        return
    assert isinstance(got, Trajectory), got
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert got.stats == want.stats  # n_steps, n_rhs, n_events and error_bound_sum, exactly
    assert got.signal == want.signal


def test_tableau_equals_scipy():
    same = [
        (systems._A[:12, :12], DOP853.A), (systems._B, DOP853.B), (systems._C[:12], DOP853.C),
        (systems._E3, DOP853.E3), (systems._E5, DOP853.E5), (systems._D, DOP853.D),
        (systems._A[13:], DOP853.A_EXTRA), (systems._C[13:], DOP853.C_EXTRA),
    ]
    for ours, theirs in same:
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
    assert systems._N_STAGES == DOP853.n_stages
    assert systems._EXPONENT == 1 / (DOP853.error_estimator_order + 1)
    assert systems._RTOL_FLOOR == 100 * np.finfo(float).eps
    assert systems._TOO_SMALL_STEP == DOP853.TOO_SMALL_STEP


def _scipy_control(K, h, scale, rejected):
    """scipy's DOP853 error norm and step-size update for one attempt."""
    from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

    exponent = -1 / (DOP853.error_estimator_order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        error_norm = DOP853._estimate_error_norm(DOP853, K, h, scale)
    if error_norm < 1:
        factor = (MAX_FACTOR if error_norm == 0
                  else min(MAX_FACTOR, SAFETY * error_norm ** exponent))
        return h * (min(1, factor) if rejected else factor), True
    return h * max(MIN_FACTOR, SAFETY * error_norm ** exponent), False


def test_error_norm_and_controller_match_scipy():
    # about 0.1% of squares e ** 2 (libm pow) differ from e * e in the last bit,
    # so twenty thousand draws catch a square taken the other way
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(20_000):
        n = int(rng.integers(1, 4))
        K = rng.normal(size=(13, n))
        scale = rng.uniform(0.5, 2.0, n)
        h = float(10.0 ** rng.uniform(-2.5, 0.5))
        rejected = bool(rng.integers(2))
        want = _scipy_control(K, h, scale, rejected)
        e5, e3 = (systems._norm(np.dot(K.T, E) / scale) for E in (systems._E5, systems._E3))
        assert systems._control(h, e5, e3, n, rejected) == want
        draws.append((K, scale, h, rejected, want))
    # error norms of 0, of NaN (an overflowing estimate: inf / inf), and from
    # estimates whose square (1e-161) or whose value (1e-310) is subnormal
    for K in (np.zeros((13, 2)), np.full((13, 2), 1e308), rng.normal(size=(13, 2)) * 1e-161,
              rng.normal(size=(13, 2)) * 1e-310):
        for rejected in (False, True):
            scale = np.ones(2)
            draws.append((K, scale, 0.3, rejected, _scipy_control(K, 0.3, scale, rejected)))
    # the array controller on all draws of each dimension, stacked as rows in
    # advance_starts' layout (a stage sum reads a transposed view: the layout
    # sets numpy's summation order), matches scipy row by row
    for n in (1, 2, 3):
        rows = [d for d in draws if d[0].shape[1] == n]
        KT = np.array([K for K, *_ in rows]).transpose(0, 2, 1)
        scale = np.array([d[1] for d in rows])
        with np.errstate(over="ignore", invalid="ignore"):
            e5, e3 = (systems.row_norms(np.matmul(KT, E) / scale)
                      for E in (systems._E5, systems._E3))
        h_next, accepted = systems._control_rows(
            np.array([d[2] for d in rows]), e5, e3, n, np.array([d[3] for d in rows]))
        assert list(zip(h_next.tolist(), accepted.tolist())) == [d[4] for d in rows]


def test_control_rejects_when_the_denominator_underflows():
    # e5 = 0 and 0.01 * e3**2 below the least subnormal: scipy's numpy
    # arithmetic gives 0 / 0 = NaN, which rejects with the smallest factor
    e3 = 2.2227587494850775e-162
    n5, n3 = np.float64(0.0) ** 2, np.float64(e3) ** 2
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.abs(0.7) * n5 / np.sqrt((n5 + 0.01 * n3) * 2))
    assert systems._control(0.7, 0.0, e3, 2, False) == (0.7 * 0.2, False)
    h_next, accepted = systems._control_rows(np.array([0.7]), np.array([0.0]), np.array([e3]), 2,
                                             np.array([False]))
    assert (h_next.tolist(), accepted.tolist()) == ([0.7 * 0.2], [False])


def test_initial_step_rows_match_the_scalar_selection():
    # scipy's selection, one call per row, is the oracle.  With atol = 1 and
    # rtol = 0 the tolerance scale is 1, so the one-component start y0 = d0,
    # field value f0 = d1 and trial value f1 = f0 + d2 h0 give the scaled
    # norms d0, d1 and d2 (up to rounding in d2) wherever their squares are
    # normal doubles; beyond, the norms overflow to inf or flush to 0 alike
    # in both.  d0 or d1 below 1e-5 take the fixed trial step, and d1 = d2 = 0
    # (at most 1e-15) the flat-field step; the rest draw norms over 1e-300..1e300
    rng = np.random.default_rng(7)
    special = [0.0, 5e-324, 1e-300, 1e-15, 2e-15, 9.99e-6, 1e-5, 1e-3, 1.0, 1e5, 1e300]
    d0, d1, d2 = (np.concatenate([rng.choice(special, 3000), 10.0 ** rng.uniform(-300, 300, 3000)])
                  for _ in range(3))
    d1[:200] = d2[:200] = 0.0
    y0, f0 = d0[:, None], d1[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for interval in (1e-9, 0.1, 7.3, 1e9):
            got = systems._starting_steps(lambda h0, y: f0 + d2[:, None] * h0[:, None], y0, f0,
                                          interval, 0.0, 1.0)
            want = [select_initial_step(lambda t, y, b=b, c=c: np.array([b + c * t]), 0.0,
                                        np.array([a]), interval, math.inf, np.array([b]), 1, 7,
                                        0.0, 1.0)
                    for a, b, c in zip(d0.tolist(), d1.tolist(), d2.tolist())]
            assert systems._same_bits(got, np.array(want, dtype=float))


def test_integrate_matches_scipy_from_a_subnormal_start():
    # the ADT sampling above once drew this start, whose first error
    # estimate underflowed to a zero denominator
    system = SwitchedSystem(2, {1: spiral_focus_function, 2: spiral_focus_function}, ModeSet(2),
                            Covering.trivial(ModeSet(2)))
    signal = generate_adt(0, AdtClass(0.5, 2), system.modes, 10.0)
    opts = IntegratorOptions(rtol=1e-3, atol=1e-6, max_dx=0.05, max_switches=200)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "invalid value encountered", RuntimeWarning)
        _assert_matches_scipy(lambda: integrate(system, [0.0, 4.5251053249142664e-166], signal,
                                                opts))


def _norm_vectors(n):
    """Vectors of length n: zero, -0, subnormal, huge, overflowing, and random over 1e-320..1e308."""
    rng = np.random.default_rng(n)
    vectors = [np.zeros(n), -np.zeros(n), np.full(n, 1e-320), np.full(n, 5e-324),
               np.full(n, 1e154), np.full(n, 1.7e308), np.full(n, -1e200)]
    return vectors + [rng.normal(size=n) * 10.0 ** rng.uniform(-320, 308) for _ in range(500)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norm_is_numpy_norm_to_the_bit(n):
    with np.errstate(over="ignore"):
        for v in _norm_vectors(n):
            got, want = systems._norm(v), float(np.linalg.norm(v))
            assert got == want, v


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_norms_are_norm_to_the_bit(n):
    # advance_starts' bound check reads row_norms where integrate reads _norm
    vectors = _norm_vectors(n)
    with np.errstate(over="ignore"):
        got = systems.row_norms(np.array(vectors))
        want = np.array([systems._norm(v) for v in vectors])
    assert systems._same_bits(got, want)


# the built-in fields, each linear one as its plain-function twin, which DOP853 steps
_BUILTIN_FIELDS = (spiral_focus_function, rotation_function, damped_rotation_function,
                   saturating_pull)
_OPTIONS = st.builds(
    IntegratorOptions,
    rtol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
    atol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    max_dx=st.sampled_from([0.05, 0.5, math.inf]),
    max_switches=st.just(200),
)


@st.composite
def _planar_pairs(draw):
    m = ModeSet(2)
    fields = {g: draw(st.sampled_from(_BUILTIN_FIELDS)) for g in m.labels}
    return SwitchedSystem(2, fields, m, Covering.trivial(m))


_STARTS = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)


@settings(max_examples=60, deadline=None)
@given(_planar_pairs(), _STARTS, st.integers(0, 2**32 - 1),
       st.sampled_from([AdtClass(0.5, 2), AdtClass(0.2, 1), AdtClass(1.5, 3)]), _OPTIONS)
def test_integrate_matches_scipy_under_adt_signals(system, x0, seed, adt, opts):
    signal = generate_adt(seed, adt, system.modes, 10.0)
    _assert_matches_scipy(lambda: integrate(system, x0, signal, opts))


def _line_side(x, normal, offset):
    return normal[0] * x[0] + normal[1] * x[1] - offset


def _line_rule(angle, offset):
    """Mode 1 on the open side {n.x < offset} of a line, mode 2 on the closed other side."""
    normal = (math.cos(angle), math.sin(angle))
    return FeedbackRule(lambda x: 1 if _line_side(x, normal, offset) < 0 else 2,
                        {1: lambda x: _line_side(x, normal, offset),
                         2: lambda x: -_line_side(x, normal, offset)})


@settings(max_examples=60, deadline=None)
@given(_planar_pairs(), _STARTS, st.floats(0.0, 2 * math.pi), st.floats(-0.5, 0.5), _OPTIONS)
def test_integrate_feedback_matches_scipy(system, x0, angle, offset, opts):
    _assert_matches_scipy(lambda: integrate_feedback(system, x0, _line_rule(angle, offset), 10.0,
                                                     opts))


def _van_der_pol(x):
    return np.array([x[1], 5.0 * (1.0 - x[0] ** 2) * x[1] - x[0]])


def test_steps_with_rejections_match_scipy():
    sys_ = single_mode_system(_van_der_pol)
    opts = IntegratorOptions(rtol=1e-6, atol=1e-9, max_dx=math.inf)
    traj = integrate(sys_, [2.0, 0.0], SwitchingSignal.constant(1, 20.0), opts)
    attempts = (traj.stats.n_rhs - 2) // 12  # two calls to start, twelve per attempt
    assert attempts > traj.stats.n_steps  # some attempts were rejected
    for max_dx in (math.inf, 0.1):
        opts = IntegratorOptions(rtol=1e-6, atol=1e-9, max_dx=max_dx)
        _assert_matches_scipy(
            lambda: integrate(sys_, [2.0, 0.0], SwitchingSignal.constant(1, 20.0), opts))


def test_rtol_below_its_floor_matches_scipy():
    sys_ = twin_system(builtin_scenario("example2").system)
    opts = IntegratorOptions(rtol=1e-17, atol=1e-20)
    _assert_matches_scipy(
        lambda: integrate(sys_, [1.3, -0.7], SwitchingSignal.constant(1, 3.0), opts))


def _jump_above_one(x):
    return np.array([1.0]) if x[0] <= 1.0 else np.array([1e10])


def test_window_shorter_than_min_step_matches_scipy():
    # x stays at 1 until t = 1; the window [1, 1 + 2 ulp] is below the 10 ulp minimum
    # step, and its stages see the jump, so every attempt is rejected
    m = ModeSet(2)
    sys_ = SwitchedSystem(1, {1: lambda x: 0.0 * x, 2: _jump_above_one}, m, Covering.trivial(m))
    end = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    signal = SwitchingSignal(np.array([1.0, end]), np.array([1, 2, 1]), 2.0)
    with pytest.raises(StiffnessError, match="Required step size is less than spacing"):
        integrate(sys_, [1.0], signal)
    _assert_matches_scipy(lambda: integrate(sys_, [1.0], signal))


def _nan_from(threshold):
    return lambda x: np.array([1.0]) if x[0] < threshold else np.array([math.nan])


@pytest.mark.parametrize("threshold", [-1.0, 0.7], ids=["at-start", "mid-stage"])
def test_nonfinite_field_matches_scipy(threshold):
    sys_ = single_mode_system(_nan_from(threshold), dim=1)
    rule = FeedbackRule(lambda x: 1, {1: lambda x: -1.0})
    for max_dx in (math.inf, 0.05):
        opts = IntegratorOptions(max_dx=max_dx)
        _assert_matches_scipy(lambda: integrate(sys_, [0.0], SwitchingSignal.constant(1, 2.0),
                                                opts))
        _assert_matches_scipy(lambda: integrate_feedback(sys_, [0.0], rule, 2.0, opts))


@pytest.mark.parametrize("bound, max_dx", [(50.0, 0.05), (50.0, math.inf), (1e9, math.inf)])
def test_escaping_cubic_matches_scipy(bound, max_dx):
    # x' = x^3 from 1 escapes at t = 1/2: past |x| = 50, or, under the default
    # bound, through a step-size collapse first
    sys_ = single_mode_system(lambda x: x ** 3, dim=1)
    opts = IntegratorOptions(bound=bound, max_dx=max_dx)
    _assert_matches_scipy(lambda: integrate(sys_, [1.0], SwitchingSignal.constant(1, 2.0), opts))


def test_builtin_batches_match_scipy():
    ex2 = twin_scenario("example2")
    signal = generate_adt(3, ex2.source.adt, ex2.system.modes, 20.0)
    _assert_matches_scipy(lambda: integrate(ex2.system, [1.0, -2.0], signal, ex2.integrator))
    for scenario in (twin_scenario("example1"), twin_scenario("two_centers")):
        _assert_matches_scipy(lambda: integrate_feedback(
            scenario.system, [1.3, -0.4], scenario.source.rule, 20.0, scenario.integrator))


# -- the sampler, the interpolant and the locator against their references ----------


def _assert_same_samples(got, want):
    """Equal times, and states equal to the bit (-0.0 differs from 0.0; NaN matches NaN)."""
    assert np.array_equal(got[0], want[0])
    assert systems._same_bits(np.array(got[1], dtype=float), np.array(want[1], dtype=float))


def _assert_sampler_matches_reference(run):
    """``run()`` gives the same samples, stats, signal or error to the bit when
    ``_subdivide`` is the reference above."""
    got = _outcome(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_subdivide", _reference_subdivide)
        want = _outcome(run)
    if not isinstance(want, Trajectory):
        assert got == want
        return
    _assert_same_samples((got.times, got.states), (want.times, want.states))
    assert got.stats == want.stats and got.signal == want.signal


def _line(ta, xa, tb, xb):
    """make_dense for the straight chord from (ta, xa) to (tb, xb), returning lists."""
    return lambda: lambda t: (xa + (t - ta) / (tb - ta) * (xb - xa)).tolist()


def _chord_samples(subdivide, xa, xb, max_dx, make_dense=None):
    ts, xs = [1.0], [np.array(xa)]
    with np.errstate(invalid="ignore", over="ignore"):
        subdivide(make_dense or _line(1.0, xa, 2.0, xb), 1.0, xa, 2.0, xb, max_dx, ts, xs)
    return ts, xs


def _assert_chord_matches_reference(xa, xb, max_dx, make_dense=None):
    got = _chord_samples(systems._subdivide, xa, xb, max_dx, make_dense)
    want = _chord_samples(_reference_subdivide, xa, xb, max_dx, make_dense)
    _assert_same_samples(got, want)
    return len(want[0]) - 1  # samples appended


def _odd_chord(seed):
    """Seeded endpoints whose math.dist and _norm chord lengths differ in the last bit."""
    rng = np.random.default_rng(seed)
    while True:
        xa, xb = rng.normal(size=(2, 2))
        if math.dist(xa, xb) != systems._norm(xb - xa):
            return xa, xb


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -400, 2.0 ** 400, 2.0 ** -520, 2.0 ** 520],
                         ids=["1", "2^-400", "2^400", "2^-520", "2^520"])
def test_subdivide_matches_reference_at_chords_near_max_dx(scale):
    # max_dx on either side of the chord, within the 1e-9 band and just
    # outside it; math.dist and _norm differ in the last bit, so a decision
    # by math.dist alone, or a strict < in the band, splits where _norm emits
    xa, xb = (scale * v for v in _odd_chord(4))
    with np.errstate(over="ignore"):
        lengths = (math.dist(xa, xb), systems._norm(xb - xa))
    counts = set()
    for length in lengths:
        for max_dx in (length, math.nextafter(length, 0.0), math.nextafter(length, math.inf),
                       *(length * (1 + k * 1e-10) for k in (-20, -11, -9, -5, 5, 9, 11, 20))):
            counts.add(_assert_chord_matches_reference(xa, xb, max_dx))
    assert 1 in counts and len(counts) > 1  # emitted whole, and split


def test_subdivide_matches_reference_on_random_chords():
    rng = np.random.default_rng(8)
    for _ in range(300):
        xa, xb = rng.normal(size=(2, int(rng.integers(1, 5)))) * 10.0 ** rng.uniform(-3, 1)
        _assert_chord_matches_reference(xa, xb, float(10.0 ** rng.uniform(-3, 1)))


@pytest.mark.parametrize("xb", [[math.nan, 0.0], [math.inf, 0.0], [-math.inf, 1.0],
                                [1e200, 1e200], [1e-170, 0.0], [0.0, 0.0], [-0.0, 0.0]])
@pytest.mark.parametrize("max_dx", [0.05, math.inf, 1e-171, 1e300, 1e-140, 1e140])
def test_subdivide_matches_reference_on_extreme_chords(xb, max_dx):
    # non-finite, overflowing, underflowing and zero chords, at max_dx inside
    # and outside the range where math.dist may decide
    _assert_chord_matches_reference(np.array([0.0, 0.0]), np.array(xb), max_dx)
    _assert_chord_matches_reference(np.array([math.inf, 0.0]), np.array(xb), max_dx)


def test_subdivide_exhausts_its_budget_like_the_reference():
    # a chord of 10 at max_dx = 1e-9 would need 1e10 samples; the budget stops it
    n = _assert_chord_matches_reference(np.array([0.0, 0.0]), np.array([6.0, 8.0]), 1e-9)
    assert n == systems._SUBDIVISION_BUDGET + 1
    sys_ = single_mode_system(lambda x: 0.0 * x + 1.0, dim=1)  # few long steps
    _assert_sampler_matches_reference(
        lambda: integrate(sys_, [0.0], SwitchingSignal.constant(1, 10.0),
                          IntegratorOptions(max_dx=1e-9)))


@pytest.mark.parametrize("horizon, bound, max_dx", [(0.4999, 1e9, 0.05), (0.4999, 1e9, 1e-3),
                                                     (2.0, 50.0, 0.05), (2.0, 1e9, 0.05)])
def test_escaping_cubic_samples_match_reference(horizon, bound, max_dx):
    # x' = x^3 from 1 reaches 70 by t = 0.4999, where steps exhaust the budget
    # at max_dx = 1e-3, and escapes at 1/2: past |x| = 50, or through a
    # step-size collapse under the default bound
    sys_ = single_mode_system(lambda x: x ** 3, dim=1)
    opts = IntegratorOptions(bound=bound, max_dx=max_dx)
    _assert_sampler_matches_reference(
        lambda: integrate(sys_, [1.0], SwitchingSignal.constant(1, horizon), opts))


@pytest.mark.parametrize("max_dx", [0.05, 0.01, 1e-3, math.inf])
def test_feedback_samples_match_reference(max_dx, ex1_scenario, two_centers_scenario):
    for scenario in (ex1_scenario, two_centers_scenario):
        opts = IntegratorOptions(max_dx=max_dx)
        for x0 in ([1.3, -0.4], [-0.02, 0.7], [0.0, 0.0]):
            _assert_sampler_matches_reference(lambda: integrate_feedback(
                scenario.system, x0, scenario.source.rule, 15.0, opts))
    ex2 = builtin_scenario("example2")
    signal = generate_adt(5, ex2.source.adt, ex2.system.modes, 20.0)
    _assert_sampler_matches_reference(
        lambda: integrate(ex2.system, [1.0, -2.0], signal, IntegratorOptions(max_dx=max_dx)))


def _reference_horner(rows, t_old, h, t):
    """The interpolant's sum as a loop from 0.0, as the dense output first took it."""
    x = (t - t_old) / h
    weights = (x, 1 - x) * 3 + (x,)
    out = []
    for *cs, b in rows:
        v = 0.0
        for c, w in zip(cs, weights):
            v = (v + c) * w
        out.append(v + b)
    return out


def test_interpolant_is_the_horner_loop_to_the_bit():
    # all -0.0 with b = -0.0: the loop's sum from 0.0 gives +0.0, a sum started
    # at the leading coefficient -0.0.  A step never builds that row (its last
    # coefficient is y_new - y_old, +0.0 when both are zeros), so only a direct
    # call pins the leading 0.0 +
    rng = np.random.default_rng(12)
    rows = [(-0.0,) * 8, (-0.0,) * 7 + (0.0,), (-0.0, *[0.0] * 6, -0.0), (0.0,) * 8,
            (math.inf, *[0.0] * 7), (math.nan, *[1.0] * 7)]
    rows += [tuple(rng.normal(size=8) * 10.0 ** rng.uniform(-5, 5)) for _ in range(50)]
    for t in (0.3, 0.3 + 1e-9, 0.55, 0.7):
        got = systems._interpolant(rows, 0.3, 0.4, t)
        assert isinstance(got, list)
        assert systems._same_bits(np.array(got), np.array(_reference_horner(rows, 0.3, 0.4, t)))
    assert math.copysign(1.0, systems._interpolant(rows[:1], 0.3, 0.4, 0.5)[0]) == 1.0


def test_sampler_and_bisection_take_array_interpolants():
    # scipy's DenseOutput returns arrays, the step's own interpolant lists
    solver = DOP853(lambda t, y: rotation(y), 0.0, np.array([1.0, 0.0]), 10.0)
    while solver.t < 1.0:
        solver.step()
    dense = solver.dense_output()
    t0, t1 = solver.t_old, solver.t
    x0, x1 = dense(t0), dense(t1)
    for max_dx in (0.05, 1e-3):
        _assert_chord_matches_reference(x0, x1, max_dx, lambda: dense)
    level = 0.5 * (x0[1] + x1[1])
    rule = FeedbackRule(lambda x: 1 if x[1] < level else 2,
                        {1: lambda x: x.T[1] - level, 2: lambda x: level - x.T[1]})
    as_lists = lambda t: dense(t).tolist()  # noqa: E731
    assert rule(x0) != rule(x1)
    for event_tol in (1e-10, 1e-3, 1e-16):
        t, x = systems._locate_crossing(dense, rule, rule(x0), t0, x0, t1, event_tol)
        t_list, x_list = systems._locate_crossing(as_lists, rule, rule(x0), t0, x0.tolist(), t1,
                                                  event_tol)
        assert t == t_list and isinstance(x_list, np.ndarray) and systems._same_bits(x, x_list)
        # within the window of bisection's stop test
        t_ref, _ = _reference_locate_crossing(dense, rule, rule(x0), t0, t1, event_tol)
        assert rule(x) != rule(x0) and abs(t - t_ref) <= max(event_tol, 4e-16 * t1)


# -- the Illinois locator against the bisection oracle ----------------------------------


def _step_interpolants(field, x0, t_end):
    """(t_lo, x_lo, t_hi, dense) per step of ``field`` from (0, x0) at the default
    options: a LinearField's propagator steps with their Taylor flows, any
    other field's accepted DOP853 steps with their dense output."""
    opts = IntegratorOptions()
    if isinstance(field, LinearField):
        steps = systems._linear_steps(field, 0.0, np.array(x0), t_end, opts.max_dx)
        interpolant, context = systems._taylor_flow, field
    else:
        def rhs(t, y):
            return np.asarray(field(y), dtype=float)

        work = systems._workspace(len(x0))
        steps = systems._dop853_steps(field, rhs, 0.0, np.array(x0), t_end, opts, work, None)
        interpolant, context = systems._dense_output, (rhs, work)
    t, x = 0.0, list(x0)
    for t_new, x_new, *_ in steps:
        yield t, x, t_new, interpolant(context, t, x, t_new, x_new)
        t, x = t_new, x_new


_LOCATOR_FIELDS = (spiral_focus, rotation, damped_rotation,
                   spiral_focus_function, rotation_function, damped_rotation_function)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_LOCATOR_FIELDS), st.floats(0.1, 3.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi), st.floats(-0.5, 0.5), st.sampled_from([1e-10, 1e-6, 1e-3]))
def test_locator_lands_within_event_tol_of_bisection(field, radius, phase, angle, offset,
                                                     event_tol):
    # while |x| stays far above atol, a step's arc turns by less than pi, so
    # a line it crosses from one side to the other it crosses once: both
    # locators bracket that crossing, unless the arc nearly touches the line
    x0 = [radius * math.cos(phase), radius * math.sin(phase)]
    rule = _line_rule(angle, offset)
    for t_lo, x_lo, t_hi, dense in _step_interpolants(field, x0, 6.0):
        gamma = rule(x_lo)
        if rule(dense(t_hi)) == gamma:
            continue
        t_ref, x_ref = _reference_locate_crossing(dense, rule, gamma, t_lo, t_hi, event_tol)
        v = field(x_ref)
        if abs(_line_side(v, (math.cos(angle), math.sin(angle)), 0.0)) < 1e-3 * math.hypot(*v):
            continue  # near a tangency, rounding may flip the side many times
        t, x = systems._locate_crossing(dense, rule, gamma, t_lo, x_lo, t_hi, event_tol)
        assert rule(x) != gamma and t_lo < t <= t_hi
        assert abs(t - t_ref) <= event_tol


def _chord(t_root):
    """A dense output along x(t) = (t - t_root, 1), returning lists."""
    return lambda t: [t - t_root, 1.0]


_LEFT_OF_AXIS = half_plane_rule().mode_of  # mode 1 where x_0 < 0, else mode 2


@pytest.mark.parametrize("boundary", [
    lambda x: abs(x[0]), lambda x: 1.0, lambda x: math.nan,
    lambda x: x[0] if x[0] < 0.0 else math.nan, lambda x: -math.inf if x[0] < 0.0 else x[0]],
    ids=["no-sign-change", "positive", "nan", "nan-past-root", "minus-inf-before-root"])
def test_locator_bisects_where_the_boundary_brackets_no_root(boundary):
    # values that do not strictly bracket zero, or are not finite, make every
    # trial the midpoint: the locator takes bisection's trials, to the bit
    rule = FeedbackRule(_LEFT_OF_AXIS, {1: boundary, 2: boundary})
    dense = _chord(0.3)
    for event_tol in (1e-10, 1e-3):
        t, x = systems._locate_crossing(dense, rule, 1, 0.0, dense(0.0), 1.0, event_tol)
        t_ref, x_ref = _reference_locate_crossing(dense, rule, 1, 0.0, 1.0, event_tol)
        assert rule(x) == 2 and t == t_ref and systems._same_bits(x, x_ref)


def test_locator_converges_on_a_triple_root():
    # b = (t - t_root)^3 is flat at its root: |b| is small long before the
    # window is, so only the window test places the crossing
    rule = FeedbackRule(_LEFT_OF_AXIS, {1: lambda x: x[0] ** 3, 2: lambda x: -x[0] ** 3})
    for t_root in (0.3, 1 / 3, 0.999):
        dense = _chord(t_root)
        for event_tol in (1e-10, 1e-6, 1e-3):
            calls = []
            t, x = systems._locate_crossing(lambda t: calls.append(t) or dense(t), rule, 1, 0.0,
                                            dense(0.0), 1.0, event_tol)
            t_ref, _ = _reference_locate_crossing(dense, rule, 1, 0.0, 1.0, event_tol)
            assert rule(x) == 2 and 0.0 <= t - t_root <= event_tol
            assert abs(t - t_ref) <= event_tol and len(calls) < 200


def _bisect(dense, rule, gamma, t_lo, x_lo, t_hi, event_tol):
    return _reference_locate_crossing(dense, rule, gamma, t_lo, t_hi, event_tol)


def _events_and_locator_calls(locate, runs):
    """The events of the ``runs`` with ``locate`` as the locator, and its interpolant calls."""
    calls = []

    def counted(dense, *args):
        return locate(lambda t: calls.append(t) or dense(t), *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_locate_crossing", counted)
        events = sum(run().stats.n_events for run in runs)
    return events, len(calls)


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# the 36 starts of perfbench's orbit_clusters runs, a spiral over 0.5 <= |x0| <= 1
# (a run mirrors some through the origin, which keeps their event counts)
_ORBIT_STARTS = [(r * math.cos(_GOLDEN_ANGLE * j), r * math.sin(_GOLDEN_ANGLE * j))
                 for j, r in enumerate(0.5 + 0.5 * j / 35 for j in range(36))]


@pytest.mark.parametrize("name, starts, horizon, n_events", [
    ("two_centers", _ORBIT_STARTS, 30.0, 343), ("example1", None, None, 388)])
def test_locator_makes_a_third_of_bisections_interpolant_calls(name, starts, horizon, n_events):
    # the events stay bisection's, and the Illinois locator needs at most a
    # third of its interpolant calls (bisection takes 30.7 and 32.7 per event)
    scenario = builtin_scenario(name)
    runs = [partial(integrate_feedback, scenario.system, x0, scenario.source.rule,
                    horizon or scenario.horizon, scenario.integrator)
            for x0 in (scenario.initial_states if starts is None else starts)]
    events, calls = _events_and_locator_calls(systems._locate_crossing, runs)
    bisection_events, bisection_calls = _events_and_locator_calls(_bisect, runs)
    assert events == bisection_events == n_events
    assert 3 * calls <= bisection_calls


# -- feedback integration -----------------------------------------------------------


def test_feedback_first_switch_quarter_turn():
    sys_ = builtin_scenario("example1").system
    traj = integrate_feedback(sys_, [1.0, 0.0], half_plane_rule(), 10.0)
    t1 = traj.signal.switch_times[0]
    assert abs(t1 - QUARTER) <= 1e-8
    assert np.linalg.norm(traj.state_at_sample(float(t1)) - np.array([0.0, 1.0])) <= 1e-6
    assert list(traj.signal.modes[:2]) == [2, 1]


def test_feedback_equilibrium_never_switches():
    sys_ = builtin_scenario("example1").system
    traj = integrate_feedback(sys_, [0.0, 0.0], half_plane_rule(), 10.0)
    assert traj.signal.n_switches == 0
    assert np.all(traj.states == 0.0)


def test_feedback_realized_signal_has_dwell_time(ex1_batch):
    for traj in ex1_batch.trajectories:
        gap = traj.signal.min_switch_gap()
        assert gap > 0.0
        assert validate_adt(traj.signal, AdtClass(gap / 2.0, 1)).passed
        # the measured gap itself is a dwell time (boundary equality valid)
        assert validate_adt(traj.signal, AdtClass(gap, 1)).passed


def test_feedback_event_boundary_accuracy(ex1_batch):
    rule = half_plane_rule()
    opts = IntegratorOptions()
    for traj in ex1_batch.trajectories[:4]:
        signal = traj.signal
        for i, t in enumerate(signal.switch_times):
            x = traj.state_at_sample(float(t))
            new_mode = int(signal.modes[i + 1])
            b = rule.boundaries[new_mode](x)
            assert abs(b) <= opts.event_tol * (1.0 + np.linalg.norm(x))


def test_feedback_gap_stability_on_annulus():
    sys_ = builtin_scenario("example1").system
    rule = half_plane_rule()
    gaps = []
    for r in (0.1, 0.5, 2.0):
        for angle in (0.3, 2.0, 4.0):
            x0 = [r * math.cos(angle), r * math.sin(angle)]
            traj = integrate_feedback(sys_, x0, rule, 30.0)
            gaps.append(traj.signal.min_switch_gap())
    assert min(gaps) > 0.0
    assert max(gaps) / min(gaps) <= 1.10


def test_feedback_chattering_guard():
    m = ModeSet(2)
    sliding = SwitchedSystem(
        1,
        {1: lambda x: np.array([1.0]), 2: lambda x: np.array([-1.0])},
        m,
        Covering.trivial(m),
    )
    rule = FeedbackRule(
        mode_of=lambda x: 1 if x[0] < 0.0 else 2,
        boundaries={1: lambda x: float(x[0]), 2: lambda x: float(-x[0])},
    )
    opts = IntegratorOptions(max_switches=50)
    with pytest.raises(ChatteringError):
        integrate_feedback(sliding, [-0.5, ], rule, 10.0, opts)


# Every mode of example1 and two_centers is linear, so the exact solution
# along a realized signal is a product of matrix exponentials.
_FOCUS = np.array([[-2.0, -2.0], [2.0, 0.0]])
_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
_MATRICES = {"example1": {1: _FOCUS, 2: _ROTATION}, "two_centers": {1: _ROTATION, 2: _ROTATION}}


def _assert_closed_form_end(system, matrices, trajectories):
    """Each trajectory ends within its error budget of the exact flow along its signal."""
    probe = np.array([0.3, -1.7])
    for gamma, a in matrices.items():
        assert np.array_equal(system.rhs(probe, gamma), a @ probe)
    for traj in trajectories:
        x = traj.states[0]
        for start, end, gamma in traj.signal.segments():
            x = expm(matrices[gamma] * (end - start)) @ x
        assert np.linalg.norm(x - traj.states[-1]) <= traj.stats.error_bound_sum


@pytest.mark.parametrize("name, batch_fixture", [("example1", "ex1_batch"),
                                                 ("two_centers", "two_centers_batch")])
def test_feedback_batch_matches_closed_form_flow(request, name, batch_fixture):
    _assert_closed_form_end(builtin_scenario(name).system, _MATRICES[name],
                            request.getfixturevalue(batch_fixture).trajectories)


@pytest.mark.parametrize("name, horizon", [("example1", 10.0), ("two_centers", 60.0)])
def test_prescribed_switching_matches_closed_form_flow(name, horizon):
    # every interval after the first starts from the step carried over its switch
    scenario = builtin_scenario(name)
    system = scenario.system
    trajectories = [
        integrate(system, x0, generate_adt(seed, AdtClass(0.5, 2), system.modes, horizon),
                  scenario.integrator)
        for seed in range(6) for x0 in ([1.0, 0.0], [-0.6, 1.3])]
    assert min(traj.signal.n_switches for traj in trajectories) >= 10
    _assert_closed_form_end(system, _MATRICES[name], trajectories)


def test_example2_linear_mode_matches_closed_form_flow(ex2_scenario):
    # example2's damped rotation alone takes its exact flow, and calls no field
    system = ex2_scenario.system
    signal = SwitchingSignal.constant(1, 10.0)
    trajectories = [integrate(system, x0, signal, ex2_scenario.integrator)
                    for x0 in ([1.0, 0.0], [-0.6, 1.3], [2.5, -2.9])]
    assert all(traj.stats.n_rhs == 0 for traj in trajectories)
    _assert_closed_form_end(system, {1: np.array([[-1.0, -1.0], [1.0, 0.0]])}, trajectories)


def test_dop853_step_is_carried_across_linear_runs(monkeypatch):
    # on a signal alternating a linear mode with a DOP853 mode, each DOP853
    # interval after the first starts from the step the last DOP853 run
    # proposed, at most its own length
    calls = []
    run_mode = systems._run_mode

    def recorded(system, gamma, t0, x0, t_end, *args, first_step=None):
        out = run_mode(system, gamma, t0, x0, t_end, *args, first_step=first_step)
        calls.append((gamma, t_end - t0, first_step, out[3]))
        return out

    monkeypatch.setattr(systems, "_run_mode", recorded)
    m = ModeSet(2)
    system = SwitchedSystem(2, {1: damped_rotation, 2: saturating_pull}, m, Covering.trivial(m))
    signal = generate_adt(5, AdtClass(0.5, 2), m, 20.0)
    integrate(system, [1.0, -2.0], signal)
    linear = [c for c in calls if c[0] == 1]
    dop853 = [c for c in calls if c[0] == 2]
    assert len(linear) >= 5 and len(dop853) >= 5
    assert all(proposed is None for *_, proposed in linear)
    assert dop853[0][2] is None  # no DOP853 run precedes the first: it selects its step
    for (_, _, _, h_prev), (_, length, first_step, _) in zip(dop853, dop853[1:]):
        assert first_step == min(h_prev, length)


def test_two_centers_half_turn_dwells(two_centers_scenario, two_centers_batch):
    """Both regions are half-planes through the origin and both fields the
    unit rotation, so the crossings are exactly pi apart.  Each located
    switch lies in the window [crossing, crossing + event_tol], so every
    dwell between switches is pi within event_tol; the exact flow adds
    only its phase roundoff (1e-13 here)."""
    scenario = two_centers_scenario
    event_tol = scenario.integrator.event_tol
    more = [integrate_feedback(scenario.system, x0, scenario.source.rule, 30.0, scenario.integrator)
            for x0 in ([0.01, -0.002], [3.0, 1.0], [-20.0, 7.0])]
    for traj in [*two_centers_batch.trajectories, *more]:
        dwells = np.diff(traj.signal.switch_times)
        assert dwells.size > 5
        assert np.max(np.abs(dwells - math.pi)) <= event_tol + 1e-13



# -- exact flows of linear modes -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_propagator_matches_scipy(n):
    # norms from 1e-3 to 1e2, each over steps h with ||A|| h up to 1/2, the cap
    # every propagator step keeps
    rng = np.random.default_rng(n)
    zero = LinearField(np.zeros((n, n)))
    for h in (0.0, 1.0, 1e300, math.inf):
        assert np.array_equal(systems._propagator(zero, h)[0], np.eye(n))
    # the stack is scaled by a power of two, so that neither (A h)^k / k! nor
    # h^k overflows or underflows to a NaN at extreme norms
    a = rng.normal(size=(n, n))
    for scale in (1e-30, 1e30):
        field = LinearField(a * scale)
        h = systems._LINEAR_CAP / field.norm
        want = expm(a * scale * h)
        err = np.abs(np.array(systems._propagator(field, h)[0]) - want).max()
        assert err <= 5e-13 * np.abs(want).max(), (scale, err)
    for norm in np.geomspace(1e-3, 1e2, 21):
        for _ in range(10):
            a = rng.normal(size=(n, n))
            a *= norm / np.abs(a).sum(axis=0).max()
            field = LinearField(a)
            for h in (0.0, *(share * systems._LINEAR_CAP / field.norm
                              for share in (1e-3, 0.3, rng.uniform(), 1.0))):
                want = expm(a * h)
                got = np.array(systems._propagator(field, h)[0])
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 5e-13 * max(1.0, norm), (a, h, err)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_FLOATS, min_size=2, max_size=2), min_size=1, max_size=5),
       st.booleans())
def test_linear_fields_equal_their_plain_functions_to_the_bit(rows, stacked):
    x = np.array(rows) if stacked else np.array(rows[0])
    for field, function in ((spiral_focus, spiral_focus_function), (rotation, rotation_function),
                            (damped_rotation, damped_rotation_function)):
        assert isinstance(field, LinearField)
        # floats near the float maximum overflow to inf, and infinities of both
        # signs sum to NaN, in both alike: those bits are compared too
        with np.errstate(over="ignore", invalid="ignore"):
            assert systems._same_bits(field(x), function(x))
            assert systems._same_bits(evaluate_rows(field, x), evaluate_rows(function, x))


def _reference_rows_times(rows, x):
    """``systems._rows_times`` as it was: each row's nonzero terms listed, then summed by reduce."""
    out = []
    for row in rows:
        terms = [a * v for a, v in zip(row, x) if a]
        out.append(reduce(add, terms) if terms else 0.0 * x[0])
    return out


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                                      5e-324, 1.7976931348623157e308]), _FLOATS)


@st.composite
def _rows_and_states(draw):
    """An n x n matrix, n = 1..4, with zero rows, and a state or a (k, n) stack's columns."""
    n = draw(st.integers(1, 4))
    zero_row = st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)
    rows = [draw(zero_row if draw(st.booleans()) and draw(st.booleans())
                 else st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        return rows, draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    stack = np.array(draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
                                   min_size=k, max_size=k)))
    return rows, list(stack.T)


@settings(max_examples=300, deadline=None)
@given(_rows_and_states())
def test_rows_times_equals_the_listed_reduce_to_the_bit(case):
    rows, x = case
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = systems._rows_times(rows, x), _reference_rows_times(rows, x)
    assert all(type(a) is type(b) for a, b in zip(got, want))
    assert systems._same_bits(np.array(got, dtype=float), np.array(want, dtype=float))


def test_linear_field_rejects_bad_matrices():
    for matrix in ((), ((1.0, 2.0),), ((1.0,), (2.0,)), ((math.nan,),), ((math.inf, 0.0), (0.0, 1.0))):
        with pytest.raises(ValueError):
            LinearField(matrix)


_LINEAR_MODES = st.builds(
    lambda a, b, c, d: LinearField(((a, b), (c, d))),
    *[st.floats(-1.0, 1.0).map(lambda v: 0.0 if abs(v) < 0.1 else v) for _ in range(4)])


@settings(max_examples=60, deadline=None)
@given(_LINEAR_MODES, _LINEAR_MODES, _STARTS, st.sampled_from([0.01, 0.05, 0.5, math.inf]),
       st.booleans())
def test_linear_samples_are_within_max_dx(f1, f2, x0, max_dx, feedback):
    # consecutive samples of the exact flow differ by at most max_dx, and a
    # propagator step spans at most 1/2 over ||A||, which alone applies at inf
    m = ModeSet(2)
    system = SwitchedSystem(2, {1: f1, 2: f2}, m, Covering.trivial(m))
    opts = IntegratorOptions(max_dx=max_dx, max_switches=200)
    if feedback:
        try:
            traj = integrate_feedback(system, x0, half_plane_rule(), 2.0, opts)
        except ChatteringError:  # fields that both point at the axis slide along it
            return
    else:
        traj = integrate(system, x0, SwitchingSignal(np.array([0.7, 1.2]), np.array([1, 2, 1]),
                                                     2.0), opts)
    assert traj.stats.n_rhs == 0 and traj.stats.n_steps >= traj.signal.n_switches + 1
    assert traj.stats.error_bound_sum >= 0.0
    chords = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    assert chords.max(initial=0.0) <= max_dx * (1 + 1e-12)
    # the mode of each gap between samples, read at its midpoint
    modes = traj.signal.values_at(0.5 * (traj.times[1:] + traj.times[:-1]))
    norm = np.array([f1.norm, f2.norm])[modes - 1]
    assert np.all(np.diff(traj.times) * norm <= systems._LINEAR_CAP * (1 + 1e-12))


def test_two_centers_orbits_keep_their_radius(two_centers_batch):
    # the exact flow of a rotation keeps |x| to roundoff; DOP853 at rtol 1e-9
    # drifts these circles by up to 9e-9
    assert len(two_centers_batch.trajectories) == 8
    for traj in two_centers_batch.trajectories:
        assert np.max(np.abs(traj.norms - traj.norms[0])) <= 1e-13


@pytest.mark.parametrize("name, batch_fixture", [("example1", "ex1_batch"),
                                                 ("two_centers", "two_centers_batch")])
def test_linear_batches_switch_as_their_dop853_twins(request, name, batch_fixture):
    exact = request.getfixturevalue(batch_fixture).trajectories
    twin = (request.getfixturevalue("two_centers_twin_batch") if name == "two_centers"
            else simulate_batch(twin_scenario(name))).trajectories
    assert [t.stats.n_events for t in exact] == [t.stats.n_events for t in twin]
    assert sum(t.stats.n_events for t in exact) > 100
    for a, b in zip(exact, twin):
        assert np.array_equal(a.signal.modes, b.signal.modes)
        # the switch times agree while |x| is well above DOP853's atol of 1e-12
        times = a.signal.switch_times
        big = [np.linalg.norm(a.state_at_sample(float(t))) >= 1e-3 for t in times]
        assert np.allclose(times[big], b.signal.switch_times[big], rtol=0.0, atol=1e-7)
        assert a.stats.n_rhs == 0 and b.stats.n_rhs > 0


def test_feedback_run_through_both_step_sources(ex1_scenario):
    # example1 with its rotation as a plain function: mode 1 takes propagator
    # steps and mode 2 DOP853 steps, and the run switches as its all-DOP853 twin
    system = ex1_scenario.system
    mixed = SwitchedSystem(2, {1: spiral_focus, 2: rotation_function}, system.modes,
                           system.covering)
    twin, opts = twin_system(system), ex1_scenario.integrator
    events = 0
    for x0 in ex1_scenario.initial_states:
        a = integrate_feedback(mixed, x0, half_plane_rule(), ex1_scenario.horizon, opts)
        b = integrate_feedback(twin, x0, half_plane_rule(), ex1_scenario.horizon, opts)
        assert a.stats.n_events == b.stats.n_events
        assert np.array_equal(a.signal.modes, b.signal.modes)
        times = a.signal.switch_times
        big = [np.linalg.norm(a.state_at_sample(float(t))) >= 1e-3 for t in times]
        assert np.allclose(times[big], b.signal.switch_times[big], rtol=0.0, atol=1e-7)
        assert 0 < a.stats.n_rhs < b.stats.n_rhs
        chords = np.linalg.norm(np.diff(a.states, axis=0), axis=1)
        assert chords.max() <= opts.max_dx * (1 + 1e-12)
        events += a.stats.n_events
    assert events > 100


@pytest.mark.parametrize("max_dx", [math.inf, 0.05])
def test_unstable_linear_mode_escapes_at_its_log_time(max_dx):
    # x' = x from |x0| = 2 passes |x| = 1e3 at t = log(500), within the
    # propagator step (1/2) that detects it, alone or in advance_starts
    sys_ = single_mode_system(LinearField(((1.0, 0.0), (0.0, 1.0))))
    opts = IntegratorOptions(max_dx=max_dx, bound=1e3)
    with pytest.raises(FiniteEscapeError) as err:
        integrate(sys_, [1.2, -1.6], SwitchingSignal.constant(1, 40.0), opts)
    t_escape = math.log(1e3 / 2.0)
    assert t_escape <= err.value.escape_time <= t_escape + systems._LINEAR_CAP
    assert np.linalg.norm(err.value.state) > 1e3
    if max_dx == math.inf:
        runs = advance_starts(sys_, 1, np.array([[1.2, -1.6], [0.0, 0.0]]), 40.0, opts)
        assert isinstance(runs[0], FiniteEscapeError)
        assert runs[0].escape_time == err.value.escape_time
        assert np.all(runs[1] == 0.0)


# -- compliance -----------------------------------------------------------------------


def test_compliance_example_trajectory(ex1_batch):
    cov = half_plane_covering()
    for traj in ex1_batch.trajectories:
        assert check_covering_compliance(traj, cov, tol=1e-6).passed


def test_compliance_trivial_covering(ex1_batch):
    cov = Covering.trivial(ModeSet(2))
    rep = check_covering_compliance(ex1_batch.trajectories[0], cov, tol=0.0)
    assert rep.passed and rep.worst == -1.0


def test_compliance_swapped_modes_violates():
    sys_ = builtin_scenario("example1").system
    traj = integrate(sys_, [1.0, 0.0], SwitchingSignal.constant(1, 1.0))
    # mode 1 active while the state sits in the open right half-plane
    rep = check_covering_compliance(traj, half_plane_covering(), tol=1e-6)
    assert not rep.passed
    t, mode, margin = rep.details["violations"][0]
    assert mode == 1 and margin > 0.0


def _reference_compliance(traj, covering, tol):
    """check_covering_compliance's (worst, violations), one margin call per sample."""
    margins = np.array([float(covering.boundaries[int(g)](x))
                        for g, x in zip(traj.sample_modes, traj.states)])
    bad = np.nonzero(margins > tol)[0]
    violations = tuple((float(traj.times[i]), int(traj.sample_modes[i]), float(margins[i]))
                       for i in bad[:100])
    return float(np.max(margins)), violations


def _reference_check_union(covering, points):
    """Covering.check_union's (worst, witness), one margin call per point and mode."""
    worst, witness = -math.inf, None
    for x in np.atleast_2d(points):
        m = min(float(covering.boundaries[g](x)) for g in covering.boundaries)
        if m > worst:
            worst, witness = m, np.array(x)
    return worst, witness


def test_compliance_matches_per_sample_reference(ex1_batch, two_centers_batch):
    sys_ = builtin_scenario("example1").system
    swapped = integrate(sys_, [1.0, 0.0], SwitchingSignal(np.array([0.7, 2.0]),
                                                          np.array([1, 2, 1]), 4.0))
    trajs = list(ex1_batch.trajectories[:4]) + list(two_centers_batch.trajectories[:4]) + [swapped]
    for traj in trajs:
        for cov, tol in ((half_plane_covering(), 1e-6), (half_plane_covering(), 0.0),
                         (Covering.trivial(ModeSet(2)), 0.0)):
            rep = check_covering_compliance(traj, cov, tol)
            worst, violations = _reference_compliance(traj, cov, tol)
            assert (rep.worst, rep.details["violations"]) == (worst, violations)
            assert rep.details["n_checked"] == traj.times.size
            assert rep.witness == (violations[0] if violations else None)
    assert not check_covering_compliance(swapped, half_plane_covering(), 1e-6).passed


def test_check_union_matches_per_point_reference():
    from switchcert.lyapunov import SampleRegion

    holey = Covering({1: lambda x: x.T[0] + 1.0, 2: lambda x: 1.0 - x.T[0]})
    for region in (SampleRegion(0.1, 3.0), SampleRegion(0.5, 2.0, n_directions=7, seed=4)):
        pts = region.all_points(2)
        for cov in (half_plane_covering(), Covering.trivial(ModeSet(2)), holey):
            rep = cov.check_union(pts)
            worst, witness = _reference_check_union(cov, pts)
            assert rep.worst == worst and rep.passed == (worst <= 0.0)
            assert rep.witness is None if rep.passed else np.array_equal(rep.witness, witness)
    assert not holey.check_union(pts).passed


def _nan_left_margin(x):
    """Whole-space region whose boundary reads NaN left of x1 = 0."""
    return np.where(x.T[0] < 0.0, np.nan, -1.0)


def test_nan_margin_fails_compliance_and_union(center_orbit):
    cov = Covering({1: _nan_left_margin, 2: _nan_left_margin})
    rep = check_covering_compliance(center_orbit, cov, tol=1e-6)
    first = int(np.argmax(center_orbit.states[:, 0] < 0.0))
    assert not rep.passed and math.isnan(rep.worst)
    assert rep.witness[:2] == (float(center_orbit.times[first]), 2)
    pts = np.array([[1.0, 0.0], [-1.0, 0.5], [-2.0, 0.0]])
    union = cov.check_union(pts)
    assert not union.passed and math.isnan(union.worst)
    assert np.array_equal(union.witness, pts[1])


# -- the row-wise helper ----------------------------------------------------------------


def _per_point_rotation(x):
    return np.array([-x[1], x[0]])


def test_evaluate_rows_rejects_per_point_functions():
    for k in (2, 3):  # k = n = 2 gives wrong numbers of the right shape; k = 3 raises inside
        stack = np.arange(2.0 * k).reshape(k, 2) + 1.0
        with pytest.raises(TypeError, match="_per_point_rotation is not row-wise"):
            evaluate_rows(_per_point_rotation, stack)
    x = np.array([0.3, -0.2])
    assert np.array_equal(evaluate_rows(_per_point_rotation, x), rotation(x))


def test_evaluate_rows_broadcasts_constants_and_keeps_rows():
    stack = np.array([[1.0, 2.0], [3.0, -4.0], [0.0, 5.0]])
    assert np.array_equal(evaluate_rows(lambda x: -1.0, stack), [-1.0, -1.0, -1.0])
    assert np.array_equal(evaluate_rows(lambda x: np.array([1.0, 0.0]), stack),
                          np.tile([1.0, 0.0], (3, 1)))
    out = evaluate_rows(rotation, stack)
    assert out.flags.c_contiguous and np.array_equal(out, [rotation(x) for x in stack])
    assert np.array_equal(evaluate_rows(lambda x, g: g * x.T[0], stack, 2.0), [2.0, 6.0, 0.0])


# -- trajectory export ------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path, ex1_scenario):
    traj = integrate(ex1_scenario.system, [1.0, 0.0], SwitchingSignal.constant(2, 1.0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, V=ex1_scenario.V)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,sigma,V"
    assert len(lines) == traj.times.size + 1
    cells = lines[-1].split(",")
    assert float(cells[0]) == traj.times[-1]
    assert float(cells[1]) == traj.states[-1, 0]
    assert int(cells[3]) == 2
    assert float(cells[4]) == pytest.approx(np.dot(traj.states[-1], traj.states[-1]), rel=1e-15)


def test_trajectory_csv_values_match_per_sample_calls(tmp_path, ex1_scenario, ex1_batch):
    traj = ex1_batch.trajectories[0]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, V=ex1_scenario.V)
    column = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    assert column == [format(float(ex1_scenario.V.value(x, int(g))), ".17g")
                      for x, g in zip(traj.states, traj.sample_modes)]


def _reference_write_trajectory_csv(traj, path, V=None):
    """The per-cell CSV writer: one fmt17 call per float cell."""
    n = traj.dimension
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",sigma"
    if V is not None:
        header += ",V"
    modes = traj.sample_modes
    if V is not None:
        values = systems.evaluate_by_mode(lambda g, x: evaluate_rows(V.value, x, g),
                                          traj.states, modes)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(traj.times.size):
            row = [fmt17(traj.times[k])]
            row += [fmt17(v) for v in traj.states[k]]
            row.append(str(int(modes[k])))
            if V is not None:
                row.append(fmt17(values[k]))
            fh.write(",".join(row) + "\n")


_SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1, -1 / 3, 1e16, 123456789.0]


class _LastCoordinate:
    """A stand-in for a Lyapunov candidate: V(x, gamma) = x_n, row-wise."""

    @staticmethod
    def value(x, gamma):
        return x.T[-1]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("with_V", [False, True], ids=["no-V", "V"])
def test_trajectory_csv_matches_per_cell_writer(tmp_path, n, with_V):
    rng = np.random.default_rng(n)
    k = 40
    bits = rng.integers(0, 2**64, size=(k, n), dtype=np.uint64).view(float)
    specials = np.resize(np.array(_SPECIAL_VALUES), k * n).reshape(k, n)
    states = np.where(rng.random((k, n)) < 0.5, bits, specials)
    times = np.concatenate([[0.0, 5e-324, 1e-300], np.cumsum(rng.random(k - 3)) + 1e-300])
    signal = SwitchingSignal(np.array([times[5], times[20]]), np.array([1, 2, 1]), times[-1] + 1)
    traj = Trajectory(times, states, signal, systems.IntegratorStats())
    V = _LastCoordinate() if with_V else None
    write_trajectory_csv(traj, tmp_path / "new.csv", V=V)
    _reference_write_trajectory_csv(traj, tmp_path / "ref.csv", V=V)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_feedback_integration_deterministic(ex1_scenario):
    rule = half_plane_rule()
    a = integrate_feedback(ex1_scenario.system, [1.3, -0.4], rule, 20.0)
    b = integrate_feedback(ex1_scenario.system, [1.3, -0.4], rule, 20.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.signal == b.signal
