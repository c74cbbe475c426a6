"""The faraday-edr benchmark: one workload, one seed, one result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload coherent-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke --workload psa-chi --seed 1 --seconds 1 --trace 0

``--trace 0`` runs the workload's CLI command in fresh child processes, one
at a time, for ``--seconds`` seconds, checks every output, and reports the
end-to-end metrics.  Set-up time is measured in separate fresh children.
``--trace 1`` runs ``probe.py trace`` in one child instead and reports the
per-layer metrics.  Children run with the program's defaults: the worker
and BLAS thread variables are removed from their environment.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record (samples, provenance, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "meter.choose_cutoff_s": "s",
    "meter.build_stokes_s": "s",
    "meter.prepare_state_s": "s",
    "meter.sz_eigensystem_s": "s",
    "meter.cutoff": "count",
    "meter.dim": "count",
    "meter.sectors": "count",
    "meter.operator_bytes": "B-computed",
    "faraday.sy_transform_s": "s",
    "faraday.state_tilde_s": "s",
    "faraday.workspace_bytes": "B-computed",
    "faraday.u_t_s": "s",
    "faraday.unitary_generic_s": "s",
    "faraday.heisenberg_s": "s",
    "edr.points": "count",
    "edr.point_p50_ms": "ms",
    "edr.point_ptail_ms": "ms",
    "edr.point_tail_pct": "%",
    "edr.useful_ratio": "ratio",
    "edr.matvecs_per_point": "count-computed",
    "edr.bytes_per_point": "B-computed",
    "relations.evaluate_bounds_us": "us",
    "psa.row_p50_us": "us",
    "psa.row_ptail_us": "us",
    "psa.row_tail_pct": "%",
    "psa.oracle_calls_per_row": "count",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "cli.workers": "count",
    "verify.edr_agreement_s": "s",
    "verify.bch_oracle_s": "s",
    "verify.stokes_algebra_s": "s",
    "verify.squeezed_moments_s": "s",
    "verify.psa_quadrature_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Environment variables that would override the program's thread defaults.
THREAD_VARIABLES = ("FARADAY_EDR_MAX_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

#: A run must end well inside three minutes; no child may outlive this.
RUN_LIMIT_S = 165.0


class Runner:
    """Starts children one at a time and never lets one outlive the run limit."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        self.env["PYTHONPATH"] = str(root / "src")
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion: wall seconds, exit code, peak RSS, output."""
        self.count += 1
        out_path = self.work / f"child{self.count}.out"
        err_path = self.work / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
                "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-2000:]}

    def probe(self, mode: str, spec: dict) -> tuple[dict | None, list[str]]:
        """Run ``probe.py MODE``: (its JSON record, problems)."""
        out = self.work / f"{mode}{self.count}.json"
        child = self.spawn([str(BENCH_DIR / "probe.py"), mode, json.dumps(spec), str(out)])
        if child["exit"] != 0 or not out.exists():
            return None, [f"probe {mode} exited {child['exit']}: {child['stderr'][-500:]}"]
        record = json.loads(out.read_text(encoding="utf-8"))
        module = Path(record["provenance"]["module"]).resolve()
        if self.root / "src" not in module.parents:
            return None, [f"probe imported faraday_edr from {module}, not this checkout"]
        return record, []


def measure(runner: Runner, spec: dict, seconds: float) -> dict:
    """The end-to-end metrics with tracing off."""
    problems: list[str] = []
    setups = []
    for _ in range(spec["setup_reps"]):
        record, found = runner.probe("setup", spec)
        problems += found
        if record is not None:
            setups.append(record)

    samples = []
    csv_path = runner.work / "out.csv"
    argv = ["-m", "faraday_edr.cli", *spec["argv"]]
    if spec["command"] != "verify":
        argv += ["-o", str(csv_path)]
    t0 = time.perf_counter()
    while not samples or (time.perf_counter() - t0 + samples[-1]["wall_s"] / 2 <= seconds
                          and runner.remaining() > 2 * samples[-1]["wall_s"]):
        csv_path.unlink(missing_ok=True)
        child = runner.spawn(argv)
        csv_bytes = csv_path.read_bytes() if csv_path.exists() else None
        csv_text = csv_bytes.decode("utf-8") if csv_bytes is not None else None
        rows, found = workloads.check_output(spec, child["exit"], child["stdout"], csv_text)
        digest = hashlib.sha256(csv_bytes).hexdigest() if csv_bytes is not None else None
        if samples and digest != samples[0]["sha256"]:
            found.append("CSV differs from the first run with this seed")
        samples.append({"wall_s": child["wall_s"], "peak_rss_mb": child["peak_rss_mb"],
                        "rows": rows, "sha256": digest, "problems": found})
        problems += [f"run {len(samples)}: {p}" for p in found]

    good = [s for s in samples if not s["problems"]] or samples
    wall = statistics.median(s["wall_s"] for s in good)
    setup = statistics.median(s["setup_s"] for s in setups) if setups else 0.0
    rows = good[0]["rows"]
    attempted = len(samples) + spec["setup_reps"]
    failed = sum(1 for s in samples if s["problems"]) + spec["setup_reps"] - len(setups)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "rows_per_s": rows / (wall - setup) if wall > setup else rows / wall,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        "success_rate": (attempted - failed) / attempted,
    }
    counts = {"wall_s": len(good), "setup_s": len(setups), "rows_per_s": len(good),
              "peak_rss_mb": len(good), "success_rate": attempted}
    provenance = setups[0]["provenance"] if setups else {}
    return {"metrics": metrics, "samples_per_metric": counts, "attempted": attempted,
            "failed": failed, "problems": problems, "provenance": provenance,
            "samples": samples, "setup_samples": [s["setup_s"] for s in setups]}


def traced(runner: Runner, spec: dict) -> dict:
    """The per-layer metrics from one traced replay."""
    record, problems = runner.probe("trace", spec)
    if record is None:
        metrics = {name: 0.0 for name in PER_LAYER}
    else:
        metrics = record.pop("metrics")
        problems += record.pop("problems")
    return {"metrics": metrics, "attempted": 1, "failed": 1 if problems else 0,
            "problems": problems, **(record or {})}


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_rev(root: Path) -> str | None:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of the same workloads, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "faraday_edr" / "cli.py").is_file():
        print(f"error: {root} holds no faraday_edr source tree (src/faraday_edr); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    spec = workloads.plan(args.workload, args.seed, smoke=args.smoke)
    # import-only set-up takes ~0.15 s, so more probes buy a steadier median cheaply
    spec["setup_reps"] = 2 if args.smoke else 5 if spec["command"] == "sweep-g" else 9
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    try:
        result = traced(runner, spec) if args.trace else measure(runner, spec, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result["provenance"] = {**result.get("provenance", {}), "git_rev": git_rev(root),
                            "src_sha256": source_digest(root / "src"),
                            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    result.update(workload=spec["name"], seed=args.seed, trace=args.trace, smoke=args.smoke,
                  argv=spec["argv"], seconds=args.seconds)
    record = out_dir / f"{spec['name']}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")

    counts = result.get("samples_per_metric", {})
    print(f"workload {spec['name']}  seed {args.seed}  faraday-edr {' '.join(spec['argv'])}")
    for name, unit in units.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<30} {result['metrics'][name]:>16.6g} {unit}{n}")
    print("provenance " + json.dumps(result["provenance"], default=str))
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record {record.relative_to(root)}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
