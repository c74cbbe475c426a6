"""Child-process probes run by ``bench/run.py``; each writes one JSON file.

    python bench/probe.py setup SPEC_JSON OUT_JSON
    python bench/probe.py trace SPEC_JSON OUT_JSON

``setup`` times ``import faraday_edr`` plus ``faraday.build_workspace`` for
the workload's meter (the import alone for workloads without one) and
records provenance.  ``trace`` replays the workload through the public
functions of each module inside spans, then runs the same replay untraced
and ``cli.main`` in-process, and derives the per-layer metrics.  The
program is imported from ``PYTHONPATH``, which the runner points at the
checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads


def probe_setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    from faraday_edr import faraday, meter

    ws = None
    if spec["command"] == "sweep-g":
        squeeze = meter.SqueezeSpec(spec["r"]) if spec["r"] != 0.0 else None
        ws = faraday.build_workspace(math.sqrt(spec["alpha2"]), squeeze)
    setup_s = time.perf_counter() - t0
    info = provenance(spec)
    if ws is not None:
        info.update(meter_sizes(ws))
    return {"setup_s": setup_s, "provenance": info}


def meter_sizes(ws) -> dict:
    import numpy as np

    return {"cutoff": ws.basis.n_max, "dim": ws.basis.size,
            "sectors": int(np.unique(ws.basis.totals()).size)}


def provenance(spec: dict) -> dict:
    import numpy as np

    import faraday_edr

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "faraday_edr": faraday_edr.__version__, "module": faraday_edr.__file__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "workers": cli_workers(spec)}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cli_workers(spec: dict) -> int:
    """Threads the command's sweep pool uses (verify has no pool)."""
    from faraday_edr import cli

    if spec["command"] == "verify":
        return 1
    return min(cli._max_workers(), spec["steps"])


# ---------------------------------------------------------------------------
# replays: the calls each command makes, one public function at a time


def grid(spec: dict):
    import numpy as np

    from faraday_edr import cli

    return np.linspace(spec["start"], cli.parse_angle(spec["stop"]), spec["steps"])


def replay_sweep_g(spec: dict, span) -> dict:
    from faraday_edr import edr, faraday, meter, relations

    alpha2, r = spec["alpha2"], spec["r"]
    alpha = math.sqrt(alpha2)
    squeeze = meter.SqueezeSpec(r) if r != 0.0 else None
    g_values = grid(spec)
    with span("meter.choose_cutoff"):
        cutoff = meter.choose_cutoff(alpha * alpha, r)
    with span("meter.basis"):
        basis = meter.MeterBasis(cutoff)
    with span("meter.build_stokes"):
        stokes = meter.build_stokes(basis)
    with span("meter.prepare_state"):
        state = meter.prepare_meter_state(alpha, squeeze, basis)
    with span("meter.sz_eigensystem"):
        eig = meter.sz_eigensystem(basis)
    ws = faraday.MeterWorkspace(basis=basis, stokes=stokes, meter_state=state, eig=eig)
    with span("faraday.sy_transform"):
        ws.sy_tilde
    with span("faraday.state_tilde"):
        ws.state_tilde
    points = []
    with span("edr.points"):
        for g in g_values:
            with span("edr.edr_point_at"):
                points.append(edr.edr_point_at(ws, float(g), alpha2, r))
    with span("relations.rows"):
        for pt in points:
            if not pt.singular:
                with span("relations.evaluate_bounds"):
                    relations.evaluate_bounds(pt.eps2, pt.eta2, pt.sigma_a, pt.sigma_b, pt.c_ab)
    return {"workspace": ws, "grid": g_values}


def replay_sweep_chi(spec: dict, span) -> dict:
    from faraday_edr import psa, relations

    g_values = grid(spec)
    for chi in g_values:
        chi = float(chi)
        with span("psa.row"):
            cfg = psa.PsaConfig(g=chi, alpha_mag=1.0, sigma=1.0)
            psa.eps2_from_oracle(cfg)
            psa.eta2_from_oracle(cfg)
        with span("psa.closed_form"):
            eps2, eta2 = psa.eps2_psa(chi), psa.eta2_psa(chi)
        with span("relations.evaluate_bounds"):
            relations.evaluate_bounds(eps2, eta2)
    return {"grid": g_values}


def replay_verify(spec: dict, span) -> dict:
    from faraday_edr import verify

    alpha2_values = (2.0, 6.0, 12.0) if spec["alpha2"] is None else (spec["alpha2"],)
    suites = (
        ("verify.edr_agreement", lambda: verify.suite_edr_agreement(alpha2_values)),
        ("verify.bch_oracle", verify.suite_bch_oracle),
        ("verify.stokes_algebra", verify.suite_stokes_algebra),
        ("verify.squeezed_moments", verify.suite_squeezed_moments),
        ("verify.psa_quadrature", verify.suite_psa_quadrature),
    )
    results = []
    for name, suite in suites:
        with span(name):
            results.append(suite())
    return {"failed_suites": [res.name for res in results if not res.passed]}


REPLAYS = {"sweep-g": replay_sweep_g, "sweep-chi": replay_sweep_chi, "verify": replay_verify}


# ---------------------------------------------------------------------------
# attribution: measurements that would distort the replay's own timing


def attribute_edr(spec: dict, ws, g_values, span) -> dict:
    """Time the two values the CSV keeps, and count Sy matvecs per point."""
    import numpy as np

    from faraday_edr import edr, errors, faraday, linalg

    psi = linalg.spin_state(edr.SWEEP_SPIN_STATE)
    for g in g_values:
        ctx = faraday.context_at(ws, float(g))
        with span("edr.useful"):
            with contextlib.suppress(errors.CalibrationSingular):
                edr.square_error_numeric(ctx, psi)
            edr.square_disturbance_numeric(ctx, psi)

    class CountingMatrix(np.ndarray):
        """A view of a matrix that counts the matrix products it takes part in."""

        matmuls = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                type(self).matmuls += 1
            inputs = tuple(np.asarray(x) for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    counted = faraday.MeterWorkspace(basis=ws.basis, stokes=ws.stokes,
                                     meter_state=ws.meter_state, eig=ws.eig)
    counted.__dict__["sy_tilde"] = ws.sy_tilde.view(CountingMatrix)
    edr.edr_point_at(counted, float(g_values[0]), spec["alpha2"], spec["r"])
    matvecs = CountingMatrix.matmuls
    return {"edr.matvecs_per_point": matvecs,
            "edr.bytes_per_point": matvecs * ws.sy_tilde.nbytes,
            "faraday.workspace_bytes": workspace_bytes(ws)}


def workspace_bytes(ws) -> int:
    """Bytes of the arrays a sweep workspace holds once both transforms exist."""
    s = ws.stokes
    arrays = (s.s0.matrix, s.sx.matrix, s.sy.matrix, s.sz.matrix, ws.eig.values,
              ws.eig.vectors, ws.meter_state.amplitudes, ws.state_tilde, ws.sy_tilde)
    return sum(a.nbytes for a in arrays)


def attribute_psa(g_values, rows: int) -> dict:
    """Count quadrature-oracle calls over the first rows of the grid."""
    from faraday_edr import psa

    real, calls = psa.gaussian_oracle, 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    psa.gaussian_oracle = counting
    try:
        for chi in g_values[:rows]:
            cfg = psa.PsaConfig(g=float(chi), alpha_mag=1.0, sigma=1.0)
            psa.eps2_from_oracle(cfg)
            psa.eta2_from_oracle(cfg)
    finally:
        psa.gaussian_oracle = real
    return {"psa.oracle_calls_per_row": calls / min(rows, len(g_values))}


def attribute_oracles(spec: dict, span) -> None:
    """The dense joint-matrix routes at the cutoffs the bch-oracle suite uses."""
    from faraday_edr import faraday

    for cutoff in spec["bch_cutoffs"]:
        ws = faraday.build_workspace(0.0, None, cutoff)
        for g in (0.1, 0.5, math.pi / 4, 1.3, math.pi / 2, 2.5, math.pi):
            ctx = faraday.context_at(ws, g)
            with span("faraday.u_t"):
                ctx.u_t
            with span("faraday.unitary_generic"):
                faraday.unitary_generic(ctx)
            with span("faraday.heisenberg"):
                faraday.heisenberg_sy(ctx)
                faraday.heisenberg_bx(ctx)


# ---------------------------------------------------------------------------


def run_cli(spec: dict, out_dir: Path) -> tuple[float, list[str]]:
    """``cli.main`` in this process: (seconds, output problems)."""
    from faraday_edr import cli

    csv_path = out_dir / "cli.csv"
    argv = list(spec["argv"]) + ([] if spec["command"] == "verify" else ["-o", str(csv_path)])
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
    _, problems = workloads.check_output(spec, code, buf.getvalue(), csv_text)
    return seconds, problems


def _quantiles(values: list[float], scale: float) -> tuple[float, float, int]:
    """(median, tail percentile, tail percent) of values times scale."""
    if not values:
        return 0.0, 0.0, 0
    nn = workloads.tail_percentile(len(values))
    tail = (statistics.quantiles(values, n=100, method="inclusive")[nn - 1]
            if len(values) > 1 else values[0])
    return statistics.median(values) * scale, tail * scale, nn


def warm_up() -> None:
    """Pay imports and first-call costs (BLAS threads, allocator) before timing."""
    from faraday_edr import edr, faraday, psa

    ws = faraday.build_workspace(1.0)
    edr.edr_point_at(ws, 0.3, 1.0, 0.0)
    psa.eps2_from_oracle(psa.PsaConfig(g=0.3, alpha_mag=1.0))


def probe_trace(spec: dict, out_dir: Path) -> dict:
    warm_up()
    replay = REPLAYS[spec["command"]]
    trace = tracer.Tracer(run=f"{spec['name']}-seed{spec['seed']}")
    problems: list[str] = []
    counts: dict[str, float] = {}

    with trace.span("replay") as root:
        state = replay(spec, trace.span)
    problems += [f"suite {name} failed" for name in state.get("failed_suites", ())]
    with trace.span("attribution"):
        if spec["command"] == "sweep-g":
            counts.update(attribute_edr(spec, state["workspace"], state["grid"], trace.span))
            counts.update({f"meter.{k}": v for k, v in meter_sizes(state["workspace"]).items()})
            counts["meter.operator_bytes"] = 4 * counts["meter.dim"] ** 2 * 16
        elif spec["command"] == "sweep-chi":
            counts.update(attribute_psa(state["grid"], rows=10))
        else:
            attribute_oracles(spec, trace.span)
    traced_s = root.end - root.start
    del state
    gc.collect()

    t0 = time.perf_counter()
    replay(spec, tracer.no_span)
    untraced_s = time.perf_counter() - t0
    gc.collect()

    cli_s, cli_problems = run_cli(spec, out_dir)
    problems += [f"in-process cli: {p}" for p in cli_problems]

    spans = trace.spans
    by_name = tracer.self_time_by_name(spans)
    durations = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.end - s.start)
    points = durations.get("edr.edr_point_at", [])
    rows = durations.get("psa.row", [])
    point_p50, point_tail, point_nn = _quantiles(points, 1e3)
    row_p50, row_tail, row_nn = _quantiles(rows, 1e6)
    bounds = durations.get("relations.evaluate_bounds", [])

    metrics = {name: by_name.get(name.removesuffix("_s"), 0.0) for name in (
        "meter.choose_cutoff_s", "meter.build_stokes_s", "meter.prepare_state_s",
        "meter.sz_eigensystem_s", "faraday.sy_transform_s", "faraday.state_tilde_s",
        "faraday.u_t_s", "faraday.unitary_generic_s", "faraday.heisenberg_s",
        "verify.edr_agreement_s", "verify.bch_oracle_s", "verify.stokes_algebra_s",
        "verify.squeezed_moments_s", "verify.psa_quadrature_s")}
    for key in ("meter.cutoff", "meter.dim", "meter.sectors", "meter.operator_bytes",
                "faraday.workspace_bytes", "edr.matvecs_per_point", "edr.bytes_per_point",
                "psa.oracle_calls_per_row"):
        metrics[key] = counts.get(key, 0)
    metrics.update({
        "edr.points": len(points),
        "edr.point_p50_ms": point_p50,
        "edr.point_ptail_ms": point_tail,
        "edr.point_tail_pct": point_nn,
        "edr.useful_ratio": (by_name.get("edr.useful", 0.0) / sum(points)) if points else 0.0,
        "relations.evaluate_bounds_us": statistics.median(bounds) * 1e6 if bounds else 0.0,
        "psa.row_p50_us": row_p50,
        "psa.row_ptail_us": row_tail,
        "psa.row_tail_pct": row_nn,
        "cli.main_s": cli_s,
        "cli.overhead_s": cli_s - untraced_s,
        "cli.workers": cli_workers(spec),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(spans),
    })
    return {"metrics": metrics, "problems": problems, "provenance": provenance(spec),
            "spans": [vars(s) for s in spans],
            "self_times": tracer.self_times(spans)}


def main(argv: list[str]) -> int:
    mode, spec_json, out = argv
    spec = json.loads(spec_json)
    out = Path(out)
    result = probe_setup(spec) if mode == "setup" else probe_trace(spec, out.parent)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
