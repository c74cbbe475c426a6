"""Workload definitions: seeded CLI arguments and output checks.

Pure Python (no numpy, no faraday_edr) so the runner can plan and check
runs without importing the program it measures.
"""

from __future__ import annotations

import csv
import io
import math
import random

#: Parameters of each workload at full size.  ``start`` is only the centre
#: of the grid start; the seed draws the actual start near it.  The sweeps
#: keep stop = pi so the SINGULAR row at g = pi is always exercised.
FULL = {
    "coherent-large": {"command": "sweep-g", "model": "exact-coherent", "alpha2": 20.0,
                       "r": 0.0, "start": 0.02, "stop": "pi", "steps": 60},
    "squeezed-fine": {"command": "sweep-g", "model": "exact-squeezed", "alpha2": 9.0,
                      "r": 0.3, "start": 0.02, "stop": "pi", "steps": 1000},
    "psa-chi": {"command": "sweep-chi", "model": "psa", "start": 0.05, "stop": "2.0",
                "steps": 1000},
    "verify": {"command": "verify", "alpha2": None, "bch_cutoffs": [8, 16, 24]},
}

#: Overrides for the smoke mode: same commands and code paths, tiny sizes.
SMOKE = {
    "coherent-large": {"alpha2": 2.0, "steps": 12},
    "squeezed-fine": {"alpha2": 1.0, "r": 0.2, "steps": 12},
    "psa-chi": {"steps": 12},
    "verify": {"alpha2": 2.0, "bch_cutoffs": [8]},
}

WORKLOADS = tuple(FULL)

#: Relative agreement demanded between numeric and closed-form columns.
SWEEP_G_RTOL = 1e-6
SWEEP_CHI_RTOL = 1e-9
#: |sin 2g| at or below which the program's calibration guard may flag a row
SINGULAR_SIN2G = 1e-9
VERIFY_SUITES = 5


def plan(name: str, seed: int, smoke: bool = False) -> dict:
    """The workload's parameters for this seed, plus the CLI arguments
    (without ``-o``) that the program receives."""
    spec = dict(FULL[name], name=name, seed=seed, smoke=smoke)
    if smoke:
        spec.update(SMOKE[name])
    if "start" in spec:
        rng = random.Random(f"{name}:{seed}")
        spec["start"] = round(spec["start"] * rng.uniform(0.75, 1.25), 6)
    spec["argv"] = cli_args(spec)
    return spec


def cli_args(spec: dict) -> list[str]:
    argv = [spec["command"]]
    if spec["command"] == "verify":
        if spec["alpha2"] is not None:
            argv += ["--alpha2", repr(spec["alpha2"])]
        return argv
    argv += ["--model", spec["model"]]
    if spec["command"] == "sweep-g":
        argv += ["--alpha2", repr(spec["alpha2"])]
        if spec["r"] != 0.0:
            argv += ["--r", repr(spec["r"])]
    return argv + ["--start", repr(spec["start"]), "--stop", spec["stop"],
                   "--steps", str(spec["steps"])]


def _rel_err(numeric: str, analytic: str) -> float:
    a, n = float(analytic), float(numeric)
    return abs(n - a) / abs(a) if a != 0.0 else abs(n)


def check_sweep(spec: dict, text: str) -> tuple[int, list[str]]:
    """(data rows, problems) for a sweep-g or sweep-chi CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != spec["steps"]:
        problems.append(f"{len(rows)} rows, expected {spec['steps']}")
    rtol = SWEEP_G_RTOL if spec["command"] == "sweep-g" else SWEEP_CHI_RTOL
    for i, row in enumerate(rows):
        if "SINGULAR" in row["flags"]:
            # only a vanishing calibration (sin 2g = 0, or chi = 0) may be SINGULAR
            if row["g"]:
                vanishing = abs(math.sin(2.0 * float(row["g"]))) <= SINGULAR_SIN2G
            else:
                vanishing = float(row["chi"]) == 0.0
            if not vanishing:
                problems.append(f"row {i}: flagged SINGULAR where the calibration is finite")
            continue
        for col in ("eps2", "eta2"):
            try:
                err = _rel_err(row[f"{col}_numeric"], row[f"{col}_analytic"])
            except (TypeError, ValueError):
                problems.append(f"row {i}: unparsable {col} columns")
                continue
            if not err <= rtol:
                problems.append(f"row {i}: {col}_numeric off by {err:.3e} relative "
                                f"(limit {rtol:.0e})")
    if spec["command"] == "sweep-g" and (not rows or "SINGULAR" not in rows[-1]["flags"]):
        problems.append("the g = pi row is not flagged SINGULAR")
    return len(rows), problems


def check_verify(stdout: str) -> tuple[int, list[str]]:
    """(suite lines, problems) for ``faraday-edr verify`` output."""
    suites = [ln for ln in stdout.splitlines() if ln.startswith("suite ")]
    passed = [ln for ln in suites if " PASS " in ln]
    problems = []
    if len(suites) != VERIFY_SUITES or len(passed) != VERIFY_SUITES:
        problems.append(f"{len(passed)} of {len(suites)} suite lines PASS, "
                        f"expected {VERIFY_SUITES} of {VERIFY_SUITES}")
    return len(suites), problems


def check_output(spec: dict, exit_code: int, stdout: str, csv_text: str | None
                 ) -> tuple[int, list[str]]:
    """(output rows, problems) for one CLI run of the workload."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if spec["command"] == "verify":
        rows, found = check_verify(stdout)
    elif csv_text is None:
        rows, found = 0, ["no CSV written"]
    else:
        rows, found = check_sweep(spec, csv_text)
    return rows, problems + found


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it
    (50 when there are fewer than twenty samples)."""
    if n < 20:
        return 50
    return min(99, math.floor(100 - 1000 / n))
