"""Seeded workloads for the `switchcert run` benchmark.

Each workload turns a seed into a pool of INI scenario files written in
the documented schema (``scenarios/example1.ini``); the program sees only
those files.  A job runs one file; the pool is cycled so that every input
runs at least twice and its artifacts can be compared byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class Workload:
    name: str
    expect: tuple[int, int]        # (hypotheses_ok, guas_observed) in guas_report.kv
    batch: int                     # trajectories per job
    horizon: float
    pool: int                      # distinct inputs per run
    make_ini: Callable[[random.Random, int, int], str]  # (rng, input index, pool size)


def _points(starts: list[tuple[float, float]]) -> str:
    return ", ".join(f"{x!r} {y!r}" for x, y in starts)


def _polar(r: float, rng: random.Random) -> tuple[float, float]:
    a = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def _feedback_focus(rng: random.Random, k: int, pool: int) -> str:
    # one start per octave-sized band of 0.25 <= |x0| <= 2, so every job
    # spans the radius range and job times vary little between seeds
    starts = [_polar(0.25 * 8.0 ** ((band + rng.random()) / 4.0), rng) for band in range(4)]
    return ("[scenario]\nsystem = example1\nhorizon = 60\n"
            f"[initial_conditions]\npoints = {_points(starts)}\n"
            "[signal]\nsource = feedback\n")


def _random_adt(rng: random.Random, k: int, pool: int) -> str:
    return ("[scenario]\nsystem = example2\nhorizon = 100\n"
            f"seed = {rng.randrange(2 ** 31)}\n"
            "[signal]\nsource = generate\ntau_d = 0.5\nn0 = 2\ncount = 2\n")


def _orbit_clusters(rng: random.Random, k: int, pool: int) -> str:
    # Clustering cost swings several-fold between nearby starts, with the
    # radius and the angle alike, so seeded draws of starts would make the
    # run's cost depend on the seed.  The pool's 4 * pool starts are instead
    # one fixed spiral over 0.5 <= |x0| <= 1, one start from each quarter of
    # the radius range per job; the seed mirrors each start through the
    # origin (x -> -x maps two_centers onto itself with the modes swapped)
    # and shuffles the starts within a job.
    starts = []
    for q in range(4):
        j = k + q * pool
        r, a = 0.5 + 0.5 * j / (4 * pool - 1), GOLDEN_ANGLE * j
        sign = rng.choice((1.0, -1.0))
        starts.append((sign * r * math.cos(a), sign * r * math.sin(a)))
    rng.shuffle(starts)
    return ("[scenario]\nsystem = two_centers\nhorizon = 30\n"
            f"[initial_conditions]\npoints = {_points(starts)}\n")


# orbit_clusters' pool is odd: its job costs differ up to twofold between
# inputs, and with an even pool the median job time falls on the gap
# between two inputs' repeats instead of inside one input's repeats
WORKLOADS = {w.name: w for w in (
    Workload("feedback_focus", (1, 1), batch=4, horizon=60.0, pool=16, make_ini=_feedback_focus),
    Workload("random_adt", (1, 1), batch=2, horizon=100.0, pool=8, make_ini=_random_adt),
    Workload("orbit_clusters", (1, 0), batch=4, horizon=30.0, pool=9, make_ini=_orbit_clusters),
)}


def make_inputs(name: str, seed: int) -> list[str]:
    """The run's pool of INI texts; the same seed gives the same texts."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [workload.make_ini(rng, k, workload.pool) for k in range(workload.pool)]
