"""Command-line front end: kernel evaluations, envelope composition, torus
verification, the parametrix run, and the mass sweep.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure (a
counterexample report is still written).  Reports are CSV with the stable
column order (alpha, d, value, envelope, ratio, fitted_C) or JSON tagged
with the schema version "polygreen-report/1".  All sampling is seeded, so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import euclid, giraud, mass, parametrix, torus
from .cutoff import cutoff_for
from .errors import ConvergenceError, DomainError
from .params import ProblemParams

REPORT_SCHEMA = "polygreen-report/1"
CSV_COLUMNS = ["alpha", "d", "value", "envelope", "ratio", "fitted_C"]


class UsageError(Exception):
    """Raised instead of argparse's SystemExit so usage failures exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(results: Sequence[dict], fmt: str, path: Optional[str] = None) -> str:
    """Serialise result rows to CSV or JSON; returns the rendered text.

    CSV uses the stable column order; JSON carries the schema version.
    Empty results are an error (silently empty reports hide failures).
    """
    rows = list(results)
    if not rows:
        raise DomainError("refusing to emit an empty report")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps({"schema": REPORT_SCHEMA, "rows": rows}, indent=2, sort_keys=True)
    else:
        raise DomainError(f"unknown report format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_report(text: str) -> list[dict]:
    """Inverse of emit_report for JSON payloads."""
    payload = json.loads(text)
    if payload.get("schema") != REPORT_SCHEMA:
        raise DomainError(f"unexpected report schema {payload.get('schema')!r}")
    return payload["rows"]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _params(args) -> ProblemParams:
    return ProblemParams(args.n, args.k, args.alpha)


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _vector(text: str, n: int) -> np.ndarray:
    vals = _floats(text)
    if len(vals) != n:
        raise DomainError(f"expected {n} comma-separated coordinates, got {text!r}")
    return np.array(vals)


def _write(args, rows) -> None:
    fmt = getattr(args, "format", None) or "csv"
    text = emit_report(rows, fmt, getattr(args, "out", None))
    if not getattr(args, "out", None):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_kernel_eval(args) -> int:
    p = _params(args)
    val = euclid.kernel_alpha(p, args.r)
    envelope = giraud.kernel_far_envelope(p.n, p.k)
    env = giraud.envelope_value(envelope, p.n, p.alpha, args.r)
    rows = [{
        "alpha": p.alpha,
        "d": args.r,
        "value": val,
        "envelope": env,
        "ratio": val / env if env else "",
    }]
    if getattr(args, "out", None) or getattr(args, "format", None):
        _write(args, rows)
    else:
        print(f"{val:.17g}")
    return 0


def _cmd_kernel_deriv(args) -> int:
    p = _params(args)
    val = euclid.kernel_radial_derivative(p, args.r, args.l)
    print(f"{val:.17g}")
    return 0


def _cmd_kernel_asym(args) -> int:
    """Near-diagonal remainder sweep: rows of (sqrt(alpha) d, deviation/eta)."""
    rows = []
    for alpha in _floats(args.alphas):
        p = ProblemParams(args.n, args.k, alpha)
        ts = np.geomspace(args.tmin, args.tmax, args.points)
        for t in ts:
            r = t / p.sqrt_alpha
            rows.append({
                "alpha": alpha,
                "d": r,
                "value": t,
                "ratio": euclid.remainder_ratio(p, r),
            })
    _write(args, rows)
    return 0


def _cmd_giraud_compose(args) -> int:
    x = giraud.EnvelopeSpec.from_json_dict(json.loads(args.x))
    y = giraud.EnvelopeSpec.from_json_dict(json.loads(args.y))
    if args.mode == "alpha":
        z = giraud.compose_alpha(x, y, args.n)
    else:
        z = giraud.compose_euclid(x, y, args.n)
    print(json.dumps(z.to_json_dict()))
    return 0


def _cmd_giraud_certify(args) -> int:
    """Certify the composed kernel envelope against numerical convolutions."""
    n, k = args.n, args.k
    alphas = _floats(args.alphas)
    base = giraud.kernel_far_envelope(n, k)
    composed = giraud.compose_alpha(base, base, n)

    def family(a: float) -> euclid.RadialKernel:
        # untagged: the Green semigroup guard does not apply to generic
        # convolutions of integrable kernels
        kernel = euclid.green_radial_kernel(ProblemParams(n, k, a))
        return dataclasses.replace(kernel, semigroup_order=None)

    r_grid = [float(t) for t in _floats(args.radii)]
    report = giraud.certify_bound(family, family, composed, n, alphas, r_grid)
    rows = [
        {"alpha": a, "fitted_C": c, "ratio": report.drift}
        for a, c in sorted(report.fitted.items())
    ]
    _write(args, rows)
    if not report.passed:
        print(f"certification failed: drift {report.drift:.3g}", file=sys.stderr)
        if report.counterexample:
            print(f"counterexample: {report.counterexample}", file=sys.stderr)
        return 2
    return 0


def _cmd_torus_green(args) -> int:
    p = _params(args)
    geom = torus.TorusGeometry(args.n, args.L)
    x = _vector(args.x, args.n)
    y = _vector(args.y, args.n)
    val, tail = torus.green_lattice_sum(p, geom, x, y, tol=args.tol)
    print(f"{val:.17g}")
    print(f"tail bound {tail:.3g}", file=sys.stderr)
    return 0


def _cmd_torus_verify(args) -> int:
    p = _params(args)
    geom = torus.TorusGeometry(args.n, args.L)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise DomainError(f"need a finite tol > 0, got {args.tol}")
    x = np.zeros(args.n)
    modes = [
        {(0,) * args.n: 1.0},
        {(1,) + (0,) * (args.n - 1): 0.5, (-1,) + (0,) * (args.n - 1): 0.5},
    ]
    rows = []
    for phi in modes:
        defect, est = torus.representation_check(p, geom, phi, x, grid=args.grid)
        rows.append({
            "alpha": p.alpha,
            "value": defect,
            "envelope": est,
            "ratio": defect / args.tol,
        })
    _write(args, rows)
    worst = float(np.max([row["value"] for row in rows]))  # a NaN defect stays NaN
    if not worst <= args.tol:
        print(f"verification failed: defect {worst:.3e} > {args.tol:g}", file=sys.stderr)
        return 2
    return 0


def _cmd_torus_scan(args) -> int:
    p = _params(args)
    geom = torus.TorusGeometry(args.n, args.L)
    report = torus.symmetry_positivity_scan(p, geom, args.pairs, seed=args.seed)
    rows = [{
        "alpha": p.alpha,
        "value": report.min_value,
        "ratio": report.max_asymmetry,
        "fitted_C": report.underflow_pairs,
    }]
    _write(args, rows)
    if report.failures:
        emit_report(report.failures, "json", (args.out or "scan") + ".counterexamples.json")
        print(f"scan failed on {len(report.failures)} pairs", file=sys.stderr)
        return 2
    return 0


def _sup(field: np.ndarray) -> float:
    """max |field|, from its max and min without an |field| array."""
    return float(max(abs(field.max()), abs(field.min())))


def _cmd_parametrix_run(args) -> int:
    p = _params(args)
    geom = torus.TorusGeometry(args.n, args.L)
    cut = cutoff_for(args.n, args.k, args.L, None if args.tau0 == "auto" else float(args.tau0))
    torus.check_seed(args.seed)
    state = parametrix.run_pipeline(
        p, geom, grid=args.grid, cutoff=cut, alias_limit=args.alias_limit
    )
    report = parametrix.assemble_and_compare(
        state, n_pairs=args.pairs, seed=args.seed, tol=args.tol
    )
    payload = {
        "schema": REPORT_SCHEMA,
        "config": {
            "n": args.n, "k": args.k, "alpha": p.alpha, "grid": args.grid,
            "tau0": state.cutoff.tau0, "seed": args.seed,
        },
        "N": state.N,
        "sup_error_field": _sup(state.gammas[0]),  # Gamma^1 = -l
        "sup_gamma": _sup(state.gamma),
        "sup_u": _sup(state.u),
        "comparison": {
            "pairs": report.pairs,
            "max_rel_error": report.max_rel_error,
            "worst": report.worst,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    if not report.passed:
        print(f"parametrix disagrees with the lattice sum: "
              f"{report.max_rel_error:.3e} > {report.tolerance:g}", file=sys.stderr)
        return 2
    return 0


def _cmd_mass_sweep(args) -> int:
    alphas = _floats(args.alphas)
    if not alphas:
        raise DomainError(f"mass sweep needs at least one alpha, got {args.alphas!r}")
    p = ProblemParams(args.n, args.k, alphas[0])
    geom = torus.TorusGeometry(args.n, args.L)
    report = mass.mass_sweep(p, geom, alphas)
    rows = [
        {"alpha": a, "value": mu, "ratio": s}
        for a, mu, s in zip(report.alphas, report.mu, report.scaled)
    ]
    for row in rows:
        row["fitted_C"] = report.bracket[1]
    _write(args, rows)
    if not report.passed:
        print("mass sweep failed: nonpositive -mu in range", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp, *, L=False, grid=None):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    if L:
        sp.add_argument("--L", type=float, default=1.0)
    if grid is not None:
        sp.add_argument("--grid", type=int, default=grid)


def _add_output(sp):
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", type=str, choices=["csv", "json"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polygreen",
        description="Green's functions of (Delta + alpha)^k: kernels, envelopes, torus, parametrix, mass",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag values; flags given on the command line win")
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel").add_subparsers(dest="sub", required=True)
    ke = kernel.add_parser("eval")
    _add_common(ke)
    ke.add_argument("--alpha", type=float, required=True)
    ke.add_argument("--r", type=float, required=True)
    _add_output(ke)
    ke.set_defaults(func=_cmd_kernel_eval)
    kd = kernel.add_parser("deriv")
    _add_common(kd)
    kd.add_argument("--alpha", type=float, required=True)
    kd.add_argument("--r", type=float, required=True)
    kd.add_argument("--l", type=int, required=True)
    kd.set_defaults(func=_cmd_kernel_deriv)
    ka = kernel.add_parser("asym")
    _add_common(ka)
    ka.add_argument("--alphas", type=str, required=True)
    ka.add_argument("--tmin", type=float, default=1e-3)
    ka.add_argument("--tmax", type=float, default=1.0)
    ka.add_argument("--points", type=int, default=64)
    _add_output(ka)
    ka.set_defaults(func=_cmd_kernel_asym)

    gir = sub.add_parser("giraud").add_subparsers(dest="sub", required=True)
    gc = gir.add_parser("compose")
    gc.add_argument("--x", type=str, required=True, help="envelope JSON")
    gc.add_argument("--y", type=str, required=True, help="envelope JSON")
    gc.add_argument("--n", type=int, required=True)
    gc.add_argument("--mode", choices=["alpha", "euclid"], default="alpha")
    gc.set_defaults(func=_cmd_giraud_compose)
    gz = gir.add_parser("certify")
    _add_common(gz)
    gz.add_argument("--alphas", type=str, default="100,10000")
    gz.add_argument("--radii", type=str, default="0.25,0.5,1.0")
    _add_output(gz)
    gz.set_defaults(func=_cmd_giraud_certify)

    tor = sub.add_parser("torus").add_subparsers(dest="sub", required=True)
    tg = tor.add_parser("green")
    _add_common(tg, L=True)
    tg.add_argument("--alpha", type=float, required=True)
    tg.add_argument("--x", type=str, required=True)
    tg.add_argument("--y", type=str, required=True)
    tg.add_argument("--tol", type=float, default=1e-10)
    tg.set_defaults(func=_cmd_torus_green)
    tv = tor.add_parser("verify")
    _add_common(tv, L=True, grid=128)
    tv.add_argument("--alpha", type=float, required=True)
    tv.add_argument("--tol", type=float, default=5e-4)
    _add_output(tv)
    tv.set_defaults(func=_cmd_torus_verify)
    ts = tor.add_parser("scan")
    _add_common(ts, L=True)
    ts.add_argument("--alpha", type=float, required=True)
    ts.add_argument("--pairs", type=int, default=1000)
    ts.add_argument("--seed", type=int, default=2024)
    _add_output(ts)
    ts.set_defaults(func=_cmd_torus_scan)

    par = sub.add_parser("parametrix").add_subparsers(dest="sub", required=True)
    pr = par.add_parser("run")
    _add_common(pr, L=True, grid=128)
    pr.add_argument("--alpha", type=float, required=True)
    pr.add_argument("--tau0", type=str, default="auto")
    pr.add_argument("--pairs", type=int, default=200)
    pr.add_argument("--seed", type=int, default=2024)
    pr.add_argument("--tol", type=float, default=1e-2,
                    help="lattice-sum agreement tolerance (exit 2 beyond)")
    pr.add_argument("--alias-limit", type=float, default=parametrix.ALIAS_LIMIT,
                    dest="alias_limit",
                    help="spectral-tail gate; the strict default refuses "
                         "under-resolved grids")
    pr.add_argument("--out", type=str, default=None)
    pr.set_defaults(func=_cmd_parametrix_run)

    ms = sub.add_parser("mass").add_subparsers(dest="sub", required=True)
    mw = ms.add_parser("sweep")
    _add_common(mw, L=True)
    mw.add_argument("--alphas", type=str, required=True)
    _add_output(mw)
    mw.set_defaults(func=_cmd_mass_sweep)

    return parser


# Reads only --config, before the full parse, to find the config file and
# where the command words start.
_CONFIG_PARSER = _Parser(add_help=False)
_CONFIG_PARSER.add_argument("--config", type=str, default=None)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser, built once: parsing leaves it unchanged."""
    return build_parser()


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse the command line: explicit flag > --config key > parser default.

    The config keys become flags placed just after the two command words,
    so argparse converts and checks them like typed flags, and a flag given
    later on the command line overrides them.  A config key that names no
    flag of the chosen command, or only abbreviates one, is a usage error.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    known, rest = _CONFIG_PARSER.parse_known_args(argv)
    config = {}
    if known.config:
        with open(known.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError(f"config {known.config} must hold a JSON object")
        # the first len(argv) - len(rest) tokens spell --config when it leads;
        # one given after the command stays there and the full parse rejects it
        at = len(argv) - len(rest) + 2
        argv[at:at] = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]
    args = _parser().parse_args(argv)
    flags = set(vars(args)) - {"func", "command", "sub", "config"}
    unknown = sorted(set(config) - flags)
    if unknown:
        raise UsageError(f"unknown config keys for this command: {', '.join(unknown)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
