"""Shared report type, range checks and serialization conventions.

Every verifier in this package returns a report object rather than a bare
boolean, so that the worst observed value and a concrete witness survive
into logs, aggregate verdicts and exported artifacts.  A check that is a
verdict and nothing more returns :class:`CheckReport`; only checks that
also carry an exported table or a fit have a report class of their own.
:func:`verdict` turns one value per sample into a report, so that every
such check decides its worst sample, NaN and witness by one rule.  All
floating-point values written to disk use 17 significant digits, which
round-trips IEEE doubles exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

import numpy as np


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (exact double round-trip)."""
    return format(float(x), ".17g")


def read_utf8(path, error: type[ValueError]) -> str:
    """A file's text; bytes that are not UTF-8 raise ``error`` naming the file and line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None


def write_rows(path, header: list[str], cells: list[str], columns: list[list]) -> None:
    """CSV of ``columns`` under ``header``, one ``%`` format per row: the
    ``cells`` formats joined by commas, ``%.17g`` writing :func:`fmt17`'s text."""
    row = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))


def require_ranges(settings: Any, positive: tuple[str, ...] = (),
                   nonnegative: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the first field of ``settings`` out of range.

    NaN is out of every range; a field set to None is unset and skipped.
    """
    for names, in_range, expected in ((positive, lambda v: v > 0, "positive"),
                                      (nonnegative, lambda v: v >= 0, "nonnegative")):
        for name in names:
            value = getattr(settings, name)
            if value is not None and not in_range(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")


def reduce_via_constructor(obj: Any) -> tuple:
    """``__reduce__`` for a dataclass whose ``__post_init__`` validates and
    freezes arrays: unpickling calls the constructor again, so a copy is
    checked and read-only like the original."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numerical check.

    ``worst`` is the extremal value the check observed (its meaning is
    check-specific, e.g. the largest Lie derivative found), ``witness``
    the sample that produced it.  ``details`` carries check-specific
    extras such as sample counts or sub-tables.
    """

    name: str
    passed: bool
    worst: float | None = None
    witness: Any = None
    details: Mapping[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


# np.unique and np.median import numpy.ma (~1 MB) in numpy 2.4, through
# np.ma.is_masked, so the package takes their values by these two instead
def distinct(values: np.ndarray) -> list:
    """The distinct values of an array, sorted, as Python scalars:
    ``np.unique(values).tolist()``."""
    return sorted(set(values.tolist()))


def median(values: list) -> float:
    """``np.median`` of a list of floats, to the last bit: the middle value of
    the sorted list, or the mean (a + b) / 2 of the middle two."""
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def verdict(name: str, values, tol: float, witness: Callable[[int], Any],
            details: Mapping[str, Any]) -> CheckReport:
    """The check contract, for a check that reduces one value per sample.

    ``worst`` is the first largest of ``values``, except that the first NaN
    wins: a NaN is worse than any number.  The check passes iff
    ``worst <= tol``, and a failing report's witness is ``witness(i)`` of
    the sample i that gave ``worst``.
    """
    values = np.asarray(values, dtype=float)
    i = int(np.argmax(values))  # the first NaN, else the first largest
    worst = float(values[i])
    passed = worst <= tol
    return CheckReport(name, passed, worst=worst, witness=None if passed else witness(i),
                       details=details)
