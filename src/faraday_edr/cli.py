"""Command-line front end: sweeps, tradeoff curves, verification, moments.

Output is deterministic CSV (UTF-8, LF, comma-separated, 12 significant
digits, '.' decimal separator); tradeoff runs additionally emit a plain
Python plot script that reads only the CSV.  Exit codes: 0 success,
1 usage error, 2 resource/cutoff error, 3 verification failure or a
failed numerical check (a NaN or infinity bound for a CSV cell that is
not flagged SINGULAR).

Configuration precedence: command-line flags > key-value config file
(flat ``key = value`` lines, '#' comments) > built-in defaults.  Every
sweep goes through ``relations.tradeoff_curve`` and runs serially, so
rows come out in grid order.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CutoffCeilingError,
    FaradayEdrError,
    NonFiniteValueError,
    NormDeficitError,
    UsageError,
)
from .faraday import build_workspace
from .meter import SqueezeSpec, predicted_moments, stokes_moments
from .psa import PsaConfig, eps2_from_oracle, eta2_from_oracle
from .relations import (
    CHI_MODELS,
    EXACT_MODELS,
    TradeoffSample,
    bot_frontier,
    hak_frontier,
    tradeoff_curve,
)
from .tolerances import TOL
from .verify import run_all_suites

CSV_HEADER = [
    "model", "g", "chi", "alpha2", "r",
    "eps2_numeric", "eps2_analytic", "eta2_numeric", "eta2_analytic",
    "hak", "ozawa_lhs", "bo_lhs", "bot_lhs", "flags",
]

MOMENTS_HEADER = ["alpha2", "r", "cutoff", "norm_deficit"]
for _op in ("s0", "sx", "sy", "sz"):
    MOMENTS_HEADER += [f"mean_{_op}", f"pred_mean_{_op}", f"gap_mean_{_op}",
                       f"var_{_op}", f"pred_var_{_op}", f"relgap_var_{_op}"]

SINGULAR = "SINGULAR"


# ---------------------------------------------------------------------------
# parsing helpers

_PI_TOKENS = {"pi": math.pi, "pi/2": math.pi / 2, "pi/4": math.pi / 4}


def parse_angle(text: str) -> float:
    """Radians from a float literal or one of the tokens pi, pi/2, pi/4."""
    token = text.strip().lower()
    if token in _PI_TOKENS:
        return _PI_TOKENS[token]
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}: use a float or pi, pi/2, pi/4")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}")


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` config file; '#' starts a comment."""
    settings: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


class _Settings:
    """Effective options: CLI flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, convert, default=None, required: bool = False):
        raw = getattr(self.args, key.replace("-", "_"), None)
        if raw is None:
            raw = self.config.get(key)
        if raw is None:
            if required and default is None:
                raise UsageError(f"missing required option --{key}")
            return default
        if isinstance(raw, str):
            return convert(raw)
        return raw


def _max_workers() -> int:
    # sweeps are serial; bench/probe.py still reads this as its worker count
    return 1


# ---------------------------------------------------------------------------
# CSV assembly


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    x = float(value)
    if not math.isfinite(x):
        raise NonFiniteValueError(
            f"{x!r} reached a CSV cell outside a SINGULAR-flagged sample"
        )
    return format(x, ".12g")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    cells = [[_fmt(v) for v in row] for row in rows]  # fail before the file is opened
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)


def _row(model: str, s: TradeoffSample) -> list:
    """One CSV row; the SINGULAR cells come from the sample's flag alone."""
    if s.singular:
        bounds = [SINGULAR] * 4
    else:
        bounds = [s.bounds.hak, s.bounds.ozawa_lhs, s.bounds.bo_lhs, s.bounds.bot_lhs]
    flags = ";".join(s.flags)
    pt = s.point
    if pt is not None:
        eps = [SINGULAR, SINGULAR] if s.singular else [pt.eps2, pt.eps2_analytic]
        chi = pt.g * math.sqrt(pt.alpha2) * math.exp(pt.r)
        return [model, pt.g, chi, pt.alpha2, pt.r,
                *eps, pt.eta2, pt.eta2_analytic, *bounds, flags]
    eps2_n = eta2_n = None  # wia rows and chi = 0 rows are purely analytic
    if model == "psa" and not s.singular:
        cfg = PsaConfig(g=s.param, alpha_mag=1.0, sigma=1.0)  # chi fixes the physics
        eps2_n, eta2_n = eps2_from_oracle(cfg), eta2_from_oracle(cfg)
    eps2 = SINGULAR if s.singular else s.eps2
    return [model, None, s.param, None, None,
            eps2_n, eps2, eta2_n, s.eta2, *bounds, flags]


# ---------------------------------------------------------------------------
# commands


def _check_meter(model: str | None, alpha2: float, r: float) -> None:
    if not (math.isfinite(alpha2) and math.isfinite(r)):
        raise UsageError(f"alpha2 and r must be finite, got alpha2={alpha2!r}, r={r!r}")
    if alpha2 < 0:
        raise UsageError("alpha2 must be non-negative")
    if model == "exact-coherent" and r != 0.0:
        raise UsageError("model exact-coherent requires r = 0 (use exact-squeezed)")


def _resolve_exact_request(settings: _Settings) -> dict:
    model = settings.get("model", str, default=EXACT_MODELS[0])
    if model not in EXACT_MODELS:
        raise UsageError(f"model {model!r} is not valid here; choose from {EXACT_MODELS}")
    alpha2 = settings.get("alpha2", _parse_float, default=6.0)
    r = settings.get("r", _parse_float, default=0.0)
    _check_meter(model, alpha2, r)
    return {
        "model": model,
        "alpha2": alpha2,
        "r": r,
        "tail_tol": settings.get("tail-tol", _parse_float, default=TOL.tail),
        "cutoff": settings.get("cutoff", _parse_int, default=None),
    }


def _sweep_rows(settings: _Settings, request: dict, start: float, stop: float,
                steps: int) -> list[list]:
    """CSV rows of ``tradeoff_curve(**request)``; start, stop and steps are
    the grid defaults that the settings may override."""
    start = settings.get("start", parse_angle, default=start)
    stop = settings.get("stop", parse_angle, default=stop)
    steps = settings.get("steps", _parse_int, default=steps)
    samples = tradeoff_curve(start=start, stop=stop, steps=steps, **request)
    return [_row(request["model"], s) for s in samples]


def cmd_sweep_g(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    request = _resolve_exact_request(settings)
    output = settings.get("output", str, required=True)
    _write_csv(output, CSV_HEADER, _sweep_rows(settings, request, 0.02, math.pi, 120))
    return 0


def cmd_sweep_chi(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    model = settings.get("model", str, default="psa")
    if model not in CHI_MODELS:
        raise UsageError(f"model {model!r} is not valid for sweep-chi; choose from {CHI_MODELS}")
    output = settings.get("output", str, required=True)
    _write_csv(output, CSV_HEADER, _sweep_rows(settings, {"model": model}, 0.05, 2.0, 100))
    return 0


_PLOT_SCRIPT = """#!/usr/bin/env python3
\"\"\"Plot the error-disturbance tradeoff from {csv_name} (generated file).\"\"\"
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(lambda: ([], []))
with open({csv_name!r}, encoding="utf-8") as f:
    for row in csv.DictReader(f):
        eps2 = row["eps2_numeric"] or row["eps2_analytic"]
        eta2 = row["eta2_numeric"] or row["eta2_analytic"]
        if not eps2 or not eta2 or eps2 == "SINGULAR":
            continue
        xs, ys = series[row["model"]]
        xs.append(float(eps2))
        ys.append(float(eta2))

styles = {{"hak-bound": "k--", "bot-bound": "k:"}}
fig, ax = plt.subplots(figsize=(6, 4.5))
for name, (xs, ys) in sorted(series.items()):
    pts = sorted(zip(xs, ys))
    ax.plot([p[0] for p in pts], [p[1] for p in pts], styles.get(name, "-"), label=name)
ax.set_xscale("log")
ax.set_xlabel(r"square error $\\epsilon^2$")
ax.set_ylabel(r"square disturbance $\\eta^2$")
ax.set_ylim(0, 2.3)
ax.legend()
fig.tight_layout()
out = {png_name!r}
fig.savefig(out, dpi=200)
print("wrote", out)
"""


def cmd_tradeoff(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    model = settings.get("model", str, default="exact-coherent")
    output = settings.get("output", str, required=True)
    if model in EXACT_MODELS:
        request = _resolve_exact_request(settings)
        rows = _sweep_rows(settings, request, 0.02, math.pi / 2, 120)
    elif model in CHI_MODELS:
        rows = _sweep_rows(settings, {"model": model}, 0.05, 2.5, 120)
    else:
        raise UsageError(f"unknown model {model!r}")

    # reference frontiers as separate labeled series
    for eps2 in np.geomspace(1e-2, 1e2, 81):
        rows.append(["hak-bound", None, None, None, None,
                     None, eps2, None, hak_frontier(float(eps2)),
                     None, None, None, None, ""])
    for eps2 in np.linspace(0.0, 1.0, 51):
        rows.append(["bot-bound", None, None, None, None,
                     None, eps2, None, bot_frontier(float(eps2)),
                     None, None, None, None, ""])
    _write_csv(output, CSV_HEADER, rows)

    plot_path = Path(output).with_suffix(".plot.py")
    csv_name = Path(output).name
    png_name = Path(csv_name).stem + ".png"
    plot_path.write_text(
        _PLOT_SCRIPT.format(csv_name=csv_name, png_name=png_name), encoding="utf-8"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    alpha2 = settings.get("alpha2", _parse_float, default=None)
    cutoff = settings.get("cutoff", _parse_int, default=None)
    tail_tol = settings.get("tail-tol", _parse_float, default=TOL.tail)
    results = run_all_suites(alpha2=alpha2, cutoff=cutoff, tail_tol=tail_tol)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    if failed:
        print(f"{len(failed)} suite(s) failed: " + ", ".join(res.name for res in failed))
        return 3
    print(f"all {len(results)} suites pass")
    return 0


def _moment_points(settings: _Settings) -> list[tuple[float, float]]:
    points = []
    for spec in getattr(settings.args, "point", None) or []:
        parts = spec.split(",")
        if len(parts) != 2:
            raise UsageError(f"--point expects 'alpha2,r', got {spec!r}")
        points.append((_parse_float(parts[0]), _parse_float(parts[1])))
    if not points:
        alpha2 = settings.get("alpha2", _parse_float, default=6.0)
        r = settings.get("r", _parse_float, default=0.0)
        points.append((alpha2, r))
    return points


def cmd_moments(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    model = settings.get("model", str, default=None)
    if model is not None and model not in EXACT_MODELS:
        raise UsageError(f"moments supports only {EXACT_MODELS}, got {model!r}")
    tail_tol = settings.get("tail-tol", _parse_float, default=TOL.tail)
    cutoff = settings.get("cutoff", _parse_int, default=None)
    output = settings.get("output", str, required=True)
    rows = []
    for alpha2, r in _moment_points(settings):
        _check_meter(model, alpha2, r)
        squeeze = SqueezeSpec(r) if r != 0.0 else None
        ws = build_workspace(math.sqrt(alpha2), squeeze, cutoff, tail_tol)
        mom = stokes_moments(ws.meter_state, ws.stokes)
        pred = predicted_moments(alpha2, r)
        row = [alpha2, r, ws.basis.n_max, mom.norm_deficit]
        for op in ("s0", "sx", "sy", "sz"):
            mean = getattr(mom, f"mean_{op}")
            pmean = getattr(pred, f"mean_{op}")
            var = getattr(mom, f"var_{op}")
            pvar = getattr(pred, f"var_{op}")
            relgap = abs(var - pvar) / abs(pvar) if pvar != 0 else abs(var - pvar)
            row += [mean, pmean, abs(mean - pmean), var, pvar, relgap]
        rows.append(row)
    _write_csv(output, MOMENTS_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to usage error
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("-o", "--output", help="output CSV path")
    sub.add_argument("--tail-tol", dest="tail_tol",
                     help="norm-deficit budget for state preparation (default 1e-12)")
    sub.add_argument("--cutoff", help="total-photon-number cutoff override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="faraday-edr",
        description=(
            "Error-disturbance uncertainty relations for a spin-1/2 measured "
            "through the Faraday rotation of a polarized light meter.  Angles "
            "are radians; the tokens pi, pi/2, pi/4 are accepted literally."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep_g = commands.add_parser("sweep-g", help="sweep interaction strength g "
                                  "(exact models); emits the CSV schema rows")
    sweep_g.add_argument("--model", help="exact-coherent | exact-squeezed")
    sweep_g.add_argument("--alpha2", help="coherent amplitude squared (default 6)")
    sweep_g.add_argument("--r", help="squeezing magnitude (default 0)")
    sweep_g.add_argument("--start", help="first g (default 0.02)")
    sweep_g.add_argument("--stop", help="last g (default pi)")
    sweep_g.add_argument("--steps", help="grid size (default 120)")
    _add_common(sweep_g)
    sweep_g.set_defaults(func=cmd_sweep_g)

    sweep_chi = commands.add_parser("sweep-chi", help="sweep measurement strength chi "
                                    "(psa | wia)")
    sweep_chi.add_argument("--model", help="psa | wia")
    sweep_chi.add_argument("--start", help="first chi (default 0.05)")
    sweep_chi.add_argument("--stop", help="last chi (default 2.0)")
    sweep_chi.add_argument("--steps", help="grid size (default 100)")
    _add_common(sweep_chi)
    sweep_chi.set_defaults(func=cmd_sweep_chi)

    tradeoff = commands.add_parser("tradeoff", help="error-disturbance tradeoff curve "
                                   "plus HAK/BOt frontier series and a plot script")
    tradeoff.add_argument("--model", help="exact-coherent | exact-squeezed | psa | wia")
    tradeoff.add_argument("--alpha2", help="coherent amplitude squared (exact models)")
    tradeoff.add_argument("--r", help="squeezing magnitude (exact-squeezed)")
    tradeoff.add_argument("--start", help="first g or chi")
    tradeoff.add_argument("--stop", help="last g or chi")
    tradeoff.add_argument("--steps", help="grid size (default 120)")
    _add_common(tradeoff)
    tradeoff.set_defaults(func=cmd_tradeoff)

    verify = commands.add_parser("verify", help="run the numeric-vs-analytic suites; "
                                 "exit 3 on any failure")
    verify.add_argument("--alpha2", help="restrict the edr suite to one amplitude")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)

    moments = commands.add_parser("moments", help="Stokes means/variances vs the "
                                  "analytic predictions")
    moments.add_argument("--model", help="exact-coherent | exact-squeezed")
    moments.add_argument("--alpha2", help="coherent amplitude squared (default 6)")
    moments.add_argument("--r", help="squeezing magnitude (default 0)")
    moments.add_argument("--point", action="append",
                         help="alpha2,r pair; repeatable, overrides --alpha2/--r")
    _add_common(moments)
    moments.set_defaults(func=cmd_moments)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CutoffCeilingError, NormDeficitError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteValueError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    except FaradayEdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
