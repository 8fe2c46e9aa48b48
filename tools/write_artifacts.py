"""Write the `switchcert run` artifacts of a fixed set of inputs.

    python tools/write_artifacts.py OUT --seed N [--seed M ...]

Runs ``switchcert run`` in this process, from this checkout's ``src/``, on

* the built-in scenarios, as ``OUT/<id>/``;
* every ``scenarios/*.ini``, as ``OUT/file-<name>/``;
* every input of the ``random_adt``, ``orbit_clusters`` and
  ``feedback_focus`` pools of ``perfbench/workloads.py`` at each seed, as
  ``OUT/<workload>-s<seed>-<k>/``, with the input itself written to
  ``OUT/<workload>-s<seed>-<k>.ini``.

Each run's exit code and output go to ``OUT/<label>.out``.  Two
checkouts' artifacts are byte-identical when ``diff -r`` of their OUT
directories is empty.  ``perfbench/`` is only read: its workloads module
is loaded from its file with bytecode writing off.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
POOLS = ("random_adt", "orbit_clusters", "feedback_focus")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def inputs(seeds: list[int]) -> list[tuple[str, str]]:
    """(label, scenario argument) of every input; pool inputs are written to
    the working directory as ``<label>.ini``."""
    from switchcert.scenarios import scenario_names

    found = [(name, name) for name in scenario_names()]
    found += [(f"file-{ini.stem}", str(ini))
              for ini in sorted((REPO / "scenarios").glob("*.ini"))]
    workloads = _workloads()
    for seed in seeds:
        for name in POOLS:
            for k, text in enumerate(workloads.make_inputs(name, seed)):
                label = f"{name}-s{seed}-{k:02d}"
                Path(f"{label}.ini").write_text(text)
                found.append((label, f"{label}.ini"))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to write (must not exist)")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="a perfbench pool seed; repeat for more")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "src"))
    from switchcert.cli import main as switchcert

    args.out.mkdir(parents=True)
    os.chdir(args.out)  # relative paths, so the output reads the same in any OUT
    for label, scenario in inputs(args.seed):
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            code = switchcert(["run", scenario, "--out", label])
        Path(f"{label}.out").write_text(f"exit {code}\n{output.getvalue()}")
        print(f"{label}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
