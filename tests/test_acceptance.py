"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single pass/fail line (run with ``pytest -s`` or ``-rA`` to
see them).  Expected values marked as derived were computed from the
independent oracles embedded here: closed-form solutions of the single
modes, brute-force interval enumeration, scan-based next-switch lookup,
and geometric series sums.
"""

import math

import numpy as np

from switchcert.invariance import (
    hausdorff_distance,
    lasalle_certify,
    omega_limit,
    omega_sharp,
    project_states,
)
from switchcert.lyapunov import SampleRegion, check_return_monotonicity, distinguishability_probe, lie_derivative
from switchcert.signals import (
    AdtClass,
    ModeSet,
    SwitchingSignal,
    extract_convergent_subsequence,
    generate_adt,
    signal_distance,
    validate_adt,
)
from switchcert.stability import fit_kl_envelope, guas_report


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_acceptance_1_example1_guas(ex1_batch, ex1_scenario):
    """16-point grid, horizon 60: final norm <= 1e-3 and V nonincreasing
    within 1e-7 total slack on every trajectory."""
    worst_end = max(float(t.norms[-1]) for t in ex1_batch.trajectories)
    worst_rise = 0.0
    for traj in ex1_batch.trajectories:
        rep = check_return_monotonicity(ex1_scenario.V, traj, tol=1e-7)
        worst_rise = max(worst_rise, rep.worst)
    ok = worst_end <= 1e-3 and worst_rise <= 1e-7
    report(1, ok, f"max |x(60)| = {worst_end:.3e} (<= 1e-3), "
                  f"max V rise = {worst_rise:.3e} (<= 1e-7), 16 trajectories")


def test_acceptance_2_example1_signal_regularity(ex1_batch):
    """Every realized signal passes ADT validation with n0 = 1 and tau_d =
    half its measured minimum inter-switch gap; gaps stable within 10%."""
    gaps = []
    all_valid = True
    for traj in ex1_batch.trajectories:
        gap = traj.signal.min_switch_gap()
        gaps.append(gap)
        all_valid &= validate_adt(traj.signal, AdtClass(gap / 2.0, 1)).passed
    spread = max(gaps) / min(gaps) - 1.0
    ok = all_valid and min(gaps) > 0.0 and spread <= 0.10
    report(2, ok, f"min gap = {min(gaps):.6f}, spread = {100 * spread:.3f}% (<= 10%), "
                  f"all signals valid with tau_d = gap/2, n0 = 1")


def test_acceptance_3_projection_identity(ex1_batch, ex2_batch, center_orbit,
                                           zero_trajectory):
    """Hausdorff distance between the state limit estimate and the projected
    state-mode estimate is <= 2 * cluster_tol on every bounded trajectory."""
    cluster_tol = 1e-2
    suite = (list(ex1_batch.trajectories) + list(ex2_batch.trajectories[:6])
             + [center_orbit, zero_trajectory])
    worst = 0.0
    for traj in suite:
        omega = omega_limit(traj, 0.5, cluster_tol)
        sharp = omega_sharp(traj, 0.5, cluster_tol, r_min=0.0)
        worst = max(worst, hausdorff_distance(omega.points, project_states(sharp)))
    ok = worst <= 2.0 * cluster_tol
    report(3, ok, f"worst Hausdorff distance = {worst:.3e} (<= {2 * cluster_tol}) "
                  f"over {len(suite)} trajectories")


def test_acceptance_4_example2_lie_identities(ex2_scenario):
    """grad V . f_gamma == -W_gamma to 1e-10 on 1000 points with |x| <= 5."""
    V, sys_, W = ex2_scenario.V, ex2_scenario.system, ex2_scenario.W
    rng = np.random.default_rng(42)
    pts = rng.uniform(-5.0, 5.0, size=(2000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 5.0][:1000]
    assert pts.shape[0] == 1000
    worst = 0.0
    for x in pts:
        worst = max(worst, abs(lie_derivative(V, sys_, x, 1) + W(1, x)))
        worst = max(worst, abs(lie_derivative(V, sys_, x, 2) + W(2, x)))
    ok = worst <= 1e-10
    report(4, ok, f"worst |grad V . f + W| = {worst:.3e} (<= 1e-10) on 1000 points")


def test_acceptance_5_example2_distinguishability(ex2_scenario):
    """Both modes: over 1000 starts with 0.1 <= |x0| <= 3 and a 0.1 window,
    the smallest output peak is >= 1e-6."""
    region = SampleRegion(0.1, 3.0, n_radii=20, n_directions=16, n_random=680, seed=11)
    assert region.all_points(2).shape[0] == 1000
    peaks = {}
    for gamma in (1, 2):
        rep = distinguishability_probe(ex2_scenario.system, ex2_scenario.W, gamma,
                                       delta=0.1, region=region, threshold=1e-6)
        peaks[gamma] = rep.min_peak
        assert not rep.skipped
    ok = min(peaks.values()) >= 1e-6
    report(5, ok, f"min output peak: mode1 = {peaks[1]:.3e}, mode2 = {peaks[2]:.3e} "
                  f"(>= 1e-6), 1000 starts each")


def test_acceptance_6_example2_guas_random_switching(ex2_batch):
    """32 random dwell-time signals (tau_d 0.5, n0 2), horizon 100: every
    trajectory reaches |x| <= 1e-2 and the decay envelope fit succeeds."""
    assert len(ex2_batch) == 32
    worst_end = max(float(t.norms[-1]) for t in ex2_batch.trajectories)
    env = fit_kl_envelope(ex2_batch)
    ok = worst_end <= 1e-2 and env.passed and env.lam > 0.0 and env.worst_slack >= 0.0
    report(6, ok, f"max |x(100)| = {worst_end:.3e} (<= 1e-2), "
                  f"lambda = {env.lam:.4f} > 0, slack = {env.worst_slack:.3e} >= 0")


def test_acceptance_7_negative_control(two_centers_scenario, two_centers_batch):
    """Two rotations under the same feedback: the weak-Lyapunov hypothesis
    checks still pass while the decay fit and the convergence certificate
    fail, so the certifiers separate hypotheses from conclusions."""
    env = fit_kl_envelope(two_centers_batch)
    # no significant positive rate: the raw least-squares rate on conserved
    # orbits is integrator noise, bounded here by the halving-rate floor
    kl_failed = (not env.passed) and env.lam <= math.log(2.0) / two_centers_batch.horizon
    lasalle_failed = not all(
        lasalle_certify(t, np.zeros((1, 2)), 1e-2, 0.5).passed
        for t in two_centers_batch.trajectories
    )
    rep = guas_report(two_centers_scenario, two_centers_batch)
    by_name = {e.name: e for e in rep.entries}
    lyapunov_ok = (by_name["class-k-bounds"].passed
                   and by_name["decrease-on-covering"].passed
                   and by_name["return-monotonicity"].passed)
    ok = kl_failed and lasalle_failed and lyapunov_ok and not rep.guas_observed
    report(7, ok, f"KL fit failed (lambda = {env.lam:.2e}), LaSalle failed, "
                  f"weak-Lyapunov checks pass, verdict: GUAS not observed")


def test_acceptance_8_signal_algebra_oracles():
    """validate_adt against exhaustive interval enumeration on 1000 mixed
    signals; next-switch operators against a scan oracle on 1000 triples."""
    rng = np.random.default_rng(7)
    modes = ModeSet(3)
    mismatches = 0
    n_invalid = 0
    for i in range(1000):
        gen_class = AdtClass(float(rng.uniform(0.3, 1.5)), int(rng.integers(1, 4)))
        sig = generate_adt(i, gen_class, modes, 10.0)
        test_class = AdtClass(float(rng.uniform(0.3, 2.5)), int(rng.integers(1, 3)))
        got = validate_adt(sig, test_class).passed
        # oracle: enumerate all switch-pair intervals widened by epsilon
        times = sig.switch_times
        expect = True
        for a in range(times.size):
            for b in range(a, times.size):
                lo, hi = times[a] - 1e-9, times[b] + 1e-9
                count = int(np.sum((times > lo) & (times < hi)))
                if count > test_class.n0 + (hi - lo) / test_class.tau_d:
                    expect = False
        mismatches += got != expect
        n_invalid += not expect

    tau_mismatches = 0
    for i in range(1000):
        sig = generate_adt(10_000 + i, AdtClass(1.0, 2), modes, 10.0)
        t = float(rng.uniform(0.0, 12.0))
        n = int(rng.integers(0, 6))
        expect = t
        for _ in range(n):
            later = [float(s) for s in sig.switch_times if s > expect]
            expect = later[0] if later else math.inf
        tau_mismatches += sig.nth_switch_after(n, t) != expect

    ok = mismatches == 0 and tau_mismatches == 0 and 0 < n_invalid < 1000
    report(8, ok, f"validate_adt: 0 of 1000 disagreements ({n_invalid} invalid cases), "
                  f"next-switch: 0 of 1000 disagreements")


def test_acceptance_9_metric_properties():
    """Symmetry exact, triangle within 1e-12 on 200 random triples,
    d(u, u) = 0 exact, and the constant-pair closed form to 1e-14."""
    rng = np.random.default_rng(13)
    modes = ModeSet(3)
    n_terms = 10

    def random_signal(seed):
        return generate_adt(seed, AdtClass(0.8, 2), modes, float(n_terms))

    sym_exact = True
    triangle_ok = True
    identity_exact = True
    for i in range(200):
        u = random_signal(3 * i)
        v = random_signal(3 * i + 1)
        w = random_signal(3 * i + 2)
        duv, dvu = signal_distance(u, v, n_terms), signal_distance(v, u, n_terms)
        sym_exact &= duv == dvu
        identity_exact &= signal_distance(u, u, n_terms) == 0.0
        triangle_ok &= duv <= (signal_distance(u, w, n_terms)
                               + signal_distance(w, v, n_terms) + 1e-12)

    const = signal_distance(SwitchingSignal.constant(1, 20.0),
                            SwitchingSignal.constant(2, 20.0), 20)
    closed_form = sum(n * 2.0 ** -n for n in range(1, 21))
    closed_err = abs(const - closed_form)
    ok = sym_exact and triangle_ok and identity_exact and closed_err <= 1e-14
    report(9, ok, f"symmetry exact, triangle within 1e-12 on 200 triples, "
                  f"closed-form error = {closed_err:.2e} (<= 1e-14)")


def test_acceptance_10_subsequence_extraction():
    """The shrinking family with first switch 1 + 1/k, k = 1..50: at least 7
    selected signals and a limit switching at 1.0 within 1e-3."""
    adt = AdtClass(0.5, 1)
    family = [SwitchingSignal(np.array([1.0 + 1.0 / k]), np.array([1, 2]), 10.0)
              for k in range(1, 51)]
    indices, limit = extract_convergent_subsequence(family, adt, tol=0.01)
    t1_err = abs(float(limit.switch_times[0]) - 1.0)
    ok = (len(indices) >= 7 and limit.n_switches == 1 and t1_err <= 1e-3
          and validate_adt(limit, adt).passed)
    report(10, ok, f"{len(indices)} signals selected (>= 7), "
                   f"limit first switch error = {t1_err:.2e} (<= 1e-3), limit validates")
