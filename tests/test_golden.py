"""Golden-output gate: the files the CLI writes, compared cell by cell.

Each command in ``GOLDEN`` is rerun through ``cli.main`` and its output
compared with the checked-in copy under ``tests/golden/``.  Cells fall
into three classes:

* byte-identical: headers, model/flags/SINGULAR tokens, the grid columns,
  every ``*_analytic`` and ``pred_*`` cell, every row that is not an
  exact-model row (psa, wia, frontier series) and the plot script;
* within one unit of the 12th significant digit, the CSV's resolution:
  ``eps2_numeric``, ``eta2_numeric``, the four bound cells, the moment
  variances and the means of S0 and Sx;
* absolute: ``gap_*``, ``relgap_*``, ``mean_sy`` and ``mean_sz`` within
  1e-12, ``norm_deficit`` within 1e-14 (rounding noise or differences of
  near-equal numbers).

Regenerate the files, only when a change of the numbers is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import math
import shutil
import sys
from pathlib import Path

import pytest

from faraday_edr.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: output file -> CLI arguments (without -o); tradeoff also writes <stem>.plot.py
GOLDEN = {
    "sweep_g_coherent_a6.csv": ["sweep-g", "--model", "exact-coherent", "--alpha2", "6",
                                "--start", "0.02", "--stop", "pi", "--steps", "120"],
    "sweep_g_squeezed_a9_r0.3.csv": ["sweep-g", "--model", "exact-squeezed",
                                     "--alpha2", "9", "--r", "0.3"],
    "sweep_chi_psa.csv": ["sweep-chi", "--model", "psa", "--start", "0.05",
                          "--stop", "2.0", "--steps", "100"],
    "fig4.csv": ["tradeoff", "--model", "exact-coherent", "--alpha2", "6"],
    "moments.csv": ["moments", "--point", "9,0.3", "--point", "25,0.2"],
    "sweep_g_a60.csv": ["sweep-g", "--alpha2", "60", "--start", "0.02", "--stop", "pi",
                        "--steps", "60"],
}

EXACT_MODELS = ("exact-coherent", "exact-squeezed")
DIGIT12_COLUMNS = {"eps2_numeric", "eta2_numeric", "hak", "ozawa_lhs", "bo_lhs", "bot_lhs",
                   "mean_s0", "mean_sx", "var_s0", "var_sx", "var_sy", "var_sz"}
ABS_COLUMNS = {"mean_sy": 1e-12, "mean_sz": 1e-12, "norm_deficit": 1e-14}


def _outputs(name: str) -> list[str]:
    files = [name]
    if GOLDEN[name][0] == "tradeoff":
        files.append(Path(name).stem + ".plot.py")
    return files


def _run(name: str, out_dir: Path) -> None:
    assert main([*GOLDEN[name], "-o", str(out_dir / name)]) == 0


def _tolerance(column: str, model: str | None):
    """None for byte-identical cells, else (kind, bound)."""
    if model is not None and model not in EXACT_MODELS:
        return None
    if column in DIGIT12_COLUMNS:
        return ("digit12", 1.0)
    if column.startswith(("gap_", "relgap_")):
        return ("abs", 1e-12)
    if column in ABS_COLUMNS:
        return ("abs", ABS_COLUMNS[column])
    return None


def _unit12(a: float, b: float) -> float:
    """One unit of the 12th significant digit of the larger magnitude."""
    big = max(abs(a), abs(b))
    return 10.0 ** (math.floor(math.log10(big)) - 11) if big > 0 else 0.0


def _compare_csv(fresh: Path, golden: Path) -> tuple[int, int, float, str, list[str]]:
    """(cells, changed, largest change, where, failures) of fresh against golden."""
    with open(fresh, encoding="utf-8") as f:
        new_rows = list(csv.reader(f))
    with open(golden, encoding="utf-8") as f:
        old_rows = list(csv.reader(f))
    failures: list[str] = []
    if new_rows[:1] != old_rows[:1] or len(new_rows) != len(old_rows):
        return 0, 0, 0.0, "", [f"{golden.name}: header or row count differs"]
    header = old_rows[0]
    cells = changed = 0
    largest, where = 0.0, ""
    for i, (new, old) in enumerate(zip(new_rows[1:], old_rows[1:]), 1):
        model = old[header.index("model")] if "model" in header else None
        for column, a, b in zip(header, new, old):
            cells += 1
            if a == b:
                continue
            changed += 1
            spot = f"{golden.name} row {i} {column}: {b} -> {a}"
            tol = _tolerance(column, model)
            try:
                x, y = float(a), float(b)
            except ValueError:
                tol = None
            if tol is None:
                failures.append(f"byte-identical cell changed, {spot}")
                continue
            diff = abs(x - y)
            kind, bound = tol
            if kind == "digit12":
                bound = _unit12(x, y) * (1.0 + 1e-9)
            if diff > largest:
                largest, where = diff, spot
            if not diff <= bound:
                failures.append(f"{spot} (|change| {diff:.3e} > {bound:.3e})")
    return cells, changed, largest, where, failures


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, name):
    _run(name, tmp_path)
    failures: list[str] = []
    cells = changed = 0
    largest, where = 0.0, ""
    for out in _outputs(name):
        fresh, golden = tmp_path / out, GOLDEN_DIR / out
        if out.endswith(".plot.py"):
            cells += 1
            if fresh.read_bytes() != golden.read_bytes():
                changed += 1
                failures.append(f"{out} is not byte-identical")
            continue
        c, n, big, spot, fails = _compare_csv(fresh, golden)
        cells, changed, failures = cells + c, changed + n, failures + fails
        if big >= largest:
            largest, where = big, spot
    print(f"\nGOLDEN {'FAIL' if failures else 'PASS'}: {name}: {cells} cells, "
          f"{changed} changed, largest change {largest:.3e}"
          + (f" ({where})" if where else ""))
    assert not failures, "\n".join(failures[:20])


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    scratch = GOLDEN_DIR / ".regen"
    scratch.mkdir(exist_ok=True)
    try:
        for name in GOLDEN:
            _run(name, scratch)
            for out in _outputs(name):
                shutil.copyfile(scratch / out, GOLDEN_DIR / out)
                print("wrote", GOLDEN_DIR / out)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    sys.exit(regenerate())
