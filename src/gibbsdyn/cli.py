"""Command-line front end: parse a potential spec, dispatch to the analysis
modules, and emit deterministic JSON reports plus CSV side files.

Commands:
    tc        crossover-time classification report
    bad-scan  scan a window of conditioning values for bad magnetisations
    kernel    first-spin conditional kernel (initial at t = 0, evolved at t > 0)
    eta       two-layer kernel of the time-0 magnetisation
    traj      minimising magnetisation trajectories
    simulate  Monte Carlo conditional sampling plus KS against quadrature
    limitpot  the limiting evolved potential (inf-convolution)
    oracle    brute-force agreement check of the tilt/curvature equivalence

Every command prints its results as one JSON line on stdout and writes a
`<command>.json` report and/or CSV side files, as `--format` asks. Exit
status: 0 success, 1 IO or potential-spec parse failure, 2 malformed
arguments (rejected by argparse) or domain error. Reports embed the potential
spec, parameters, tolerances, seed, and tool version; rerunning a
deterministic command from its embedded config reproduces the numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from gibbsdyn import __version__, classify, kernels, mc_sim, paths, potential, tilted
from gibbsdyn.errors import GibbsDynError

log = logging.getLogger("gibbsdyn")

FORMAT_CHOICES = ("csv", "json", "both")
CSV_BLOCK_ROWS = 4096  # rows formatted per write of a CSV table
# a KS statistic of N samples of the reference law exceeds the
# Dvoretzky-Kiefer-Wolfowitz floor sqrt(ln(2/delta) / (2N)) with
# probability at most delta (Massart, Ann. Probab. 18, 1990)
DKW_DELTA = 1e-6
# tolerance option (parsed name) -> its key in a report's tolerances block
_TOLERANCES = {"eps_val_rel": "eps_val_rel", "delta_cluster": "delta_cluster", "quad_grid": "grid_n"}
# parsed arguments that are not the command's own params
_SHARED = ("command", "potential", "out", "format", *_TOLERANCES)


def _configure_logging():
    level = os.environ.get("GIBBS_DYN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)


def _sanitise(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _sanitise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitise(v) for v in value]
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"window must be 'a,b', got {text!r}")
    a, b = (_finite_float(part) for part in parts)
    if not a < b:
        raise argparse.ArgumentTypeError(f"window must satisfy a < b, got {text!r}")
    return a, b


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse takes a token such as -1e-3 for an option name (it passes
    only plain negatives such as -0.001), so attach every negative number to
    the long option before it: --alpha -1e-3 becomes --alpha=-1e-3."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and token.startswith("-") and _is_number(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _tol(args) -> tilted.ToleranceConfig:
    return tilted.ToleranceConfig(eps_val_rel=args.eps_val_rel, delta_cluster=args.delta_cluster)


def _quad(args) -> kernels.QuadratureConfig:
    return kernels.QuadratureConfig(grid_n=args.quad_grid)


# Each command calls the library and returns (results, [(csv_name, header, columns), ...]).


def _cmd_tc(args, spec):
    return classify.crossover_time(spec, _tol(args)).to_json_dict(), []


def _cmd_bad_scan(args, spec):
    result = tilted.bad_set_scan(spec, args.t, args.window, args.grid, tol=_tol(args))
    results = {
        "intervals": [list(iv) for iv in result.intervals],
        "n_bad_intervals": len(result.intervals),
        "n_indeterminate_rows": sum(r.indeterminate for r in result.rows),
    }
    header = ["alpha", "n_minimisers", "q_min", "q_max", "value", "indeterminate"]
    return results, [("bad_scan", header, [[getattr(r, f) for r in result.rows] for f in header])]


def _kernel_table(name: str, k: kernels.KernelEstimate):
    return name, ["x", "density"], [k.grid, k.density]


def _cmd_kernel(args, spec):
    tol, quad = _tol(args), _quad(args)
    if args.t == 0.0:
        k, kind = kernels.initial_kernel(spec, args.n, args.alpha, quad), "initial"
    else:
        k, kind = kernels.evolved_kernel(spec, args.n, args.t, args.alpha, quad, tol), "evolved"
    return {"kind": kind, **k.moment_summary()}, [_kernel_table("kernel", k)]


def _cmd_eta(args, spec):
    tol, quad = _tol(args), _quad(args)
    k = kernels.eta_kernel(spec, args.n, args.t, args.alpha, quad, tol)
    return k.moment_summary(), [_kernel_table("eta", k)]


def _cmd_traj(args, spec):
    # one minimisation gives the starting points and the C_{t,alpha} of every rate
    ms = tilted.global_minimisers(tilted.TiltedRate(spec, args.t, args.alpha), _tol(args))
    trajectories = [paths.optimal_path(q, args.alpha, args.t, args.grid) for q in ms.locations]
    results = {
        "n_trajectories": len(trajectories),
        "starting_points": [p.start for p in trajectories],
        "rates": [paths._rate(spec, args.t, args.alpha, p, ms.value) for p in trajectories],
    }
    tables = [(f"traj_{i}", ["s", "phi"], paths.path_columns(p)) for i, p in enumerate(trajectories)]
    return results, tables


def _cmd_simulate(args, spec):
    config = mc_sim.SimConfig(
        n=args.n,
        t=args.t,
        alpha_target=args.alpha,
        replicas=args.replicas,
        seed=args.seed,
        bin_halfwidth=args.binwidth,
        method=args.method,
    )
    tol, quad = _tol(args), _quad(args)
    emp = mc_sim.evolve_and_condition(config, spec)
    reference = kernels.evolved_kernel(spec, args.n, args.t, args.alpha, quad, tol)
    args.method = emp.method  # the report's params name the sampler that ran
    results = {
        "accepted": emp.accepted_count,
        "acceptance_rate": emp.acceptance_rate,
        "log_acceptance_rate": emp.log_acceptance_rate,
        "sample_mean": emp.mean(),
        "sample_variance": emp.variance(),
        "ks_vs_quadrature": {
            "ks_statistic": mc_sim.ks_distance(emp, reference),
            "dkw_floor": math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * emp.accepted_count)),
            "dkw_delta": DKW_DELTA,
            "reference_mean": reference.mean,
            "reference_variance": reference.variance,
        },
    }
    return results, [("samples", ["x1"], [emp.samples])]


def _cmd_limitpot(args, spec):
    rs = np.linspace(args.window[0], args.window[1], args.grid)
    vt = tilted.limiting_potential(spec, args.t, rs)
    results = {"r_min": float(rs[0]), "r_max": float(rs[-1]), "vt_min": float(np.min(vt))}
    return results, [("limitpot", ["r", "v_t"], [rs, vt])]


def _cmd_oracle(args, spec):
    return {"agreement": classify.equivalence_oracle(spec, args.beta, args.window, args.grid)}, []


_COMMANDS = {
    "tc": _cmd_tc,
    "bad-scan": _cmd_bad_scan,
    "kernel": _cmd_kernel,
    "eta": _cmd_eta,
    "traj": _cmd_traj,
    "simulate": _cmd_simulate,
    "limitpot": _cmd_limitpot,
    "oracle": _cmd_oracle,
}


def _write_outputs(args, spec, outdir: Path, results: dict, tables):
    """The JSON report and the CSV side files that --format asks for."""
    if args.format != "csv":
        report = {
            "tool": {"name": "gibbs-dyn", "version": __version__},
            "command": args.command,
            "potential": spec.to_json_dict(),
            "params": {k: v for k, v in vars(args).items() if k not in _SHARED},
            "tolerances": {key: getattr(args, dest) for dest, key in _TOLERANCES.items() if hasattr(args, dest)},
            "results": results,
        }
        path = outdir / f"{args.command.replace('-', '_')}.json"
        path.write_text(json.dumps(_sanitise(report), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        log.debug("wrote %s", path)
    if args.format != "json":
        for name, header, columns in tables:
            path = outdir / f"{name}.csv"
            _write_csv(path, header, columns)
            log.debug("wrote %s", path)


def _write_csv(path: Path, header, columns) -> None:
    """One CSV table from its columns: the header line, then one line per
    row whose cells are the repr of each value (shortest round-trip for
    floats, digits for ints) with "\\n" line ends. Rows are formatted and
    written CSV_BLOCK_ROWS at a time, so no more than one block of strings is
    held at once."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = [map(repr, c[i : i + CSV_BLOCK_ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args returns a
    fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="gibbs-dyn",
        description="Gibbs-non-Gibbs dynamical transition analysis for mean-field Brownian spins.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, t=False, alpha=False, n=False, window=None, grid=None, tol=False, quad=False):
        """The options every command has, plus those it reads: tol adds the
        minimiser tolerances, quad the quadrature grid."""
        p.add_argument("--potential", required=True, help="path to a potential spec JSON")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--format", choices=FORMAT_CHOICES, default="both")
        if tol:
            p.add_argument(
                "--eps-val-rel", type=float, default=tilted.DEFAULT_TOL.eps_val_rel,
                help="relative tie band for minimiser values (default: %(default)g)",
            )
            p.add_argument(
                "--delta-cluster", type=float, default=tilted.DEFAULT_TOL.delta_cluster,
                help="minimum separation of reported minimisers (default: %(default)g)",
            )
        if quad:
            p.add_argument(
                "--quad-grid", type=int, default=kernels.DEFAULT_QUAD.grid_n,
                help="quadrature grid points (default: %(default)d)",
            )
        if t:
            p.add_argument("--t", type=_finite_float, required=True, help="evolution time")
        if alpha:
            p.add_argument("--alpha", type=_finite_float, required=True, help="conditioning magnetisation")
        if n:
            p.add_argument("--n", type=int, required=True, help="number of spins")
        if window is not None:
            p.add_argument("--window", type=_window, default=window, help="scan window 'a,b' with a < b")
        if grid is not None:
            p.add_argument("--grid", type=_positive_int, default=grid, help="grid point count")

    common(sub.add_parser("tc", help="crossover time and Gibbs status"), tol=True)
    pb = sub.add_parser("bad-scan", help="scan for bad magnetisations")
    common(pb, t=True, window="-5,5", grid=1001, tol=True)
    pk = sub.add_parser("kernel", help="first-spin conditional kernel")
    common(pk, alpha=True, n=True, tol=True, quad=True)
    pk.add_argument("--t", type=_finite_float, default=0.0, help="time (0 selects the initial kernel)")
    pe = sub.add_parser("eta", help="two-layer magnetisation kernel")
    common(pe, t=True, alpha=True, n=True, tol=True, quad=True)
    common(sub.add_parser("traj", help="minimising trajectories"), t=True, alpha=True, grid=1024, tol=True)
    ps = sub.add_parser("simulate", help="Monte Carlo conditional sampling")
    common(ps, t=True, alpha=True, n=True, tol=True, quad=True)
    ps.add_argument("--replicas", type=int, default=100_000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--binwidth", type=float, default=0.05, help="conditioning bin halfwidth")
    ps.add_argument("--method", choices=(mc_sim.METHOD_AUTO, mc_sim.METHOD_REJECT, mc_sim.METHOD_EXACT), default=mc_sim.METHOD_AUTO)
    common(sub.add_parser("limitpot", help="limiting evolved potential"), t=True, window="-5,5", grid=201)
    po = sub.add_parser("oracle", help="tilt/curvature equivalence brute-force check")
    common(po, window="-6,6", grid=201)
    po.add_argument("--beta", type=_finite_float, required=True, help="curvature bound to test")
    return parser


def run(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        spec = potential.from_json(args.potential)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as err:
        print(f"gibbs-dyn: cannot read potential spec: {err}", file=sys.stderr)
        return 1
    except GibbsDynError as err:
        print(f"gibbs-dyn: invalid potential spec: {err}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"gibbs-dyn: cannot create output directory: {err}", file=sys.stderr)
        return 1
    log.info("command=%s potential=%s out=%s", args.command, args.potential, outdir)

    try:
        results, tables = _COMMANDS[args.command](args, spec)
        _write_outputs(args, spec, outdir, results, tables)
        print(json.dumps(_sanitise(results), sort_keys=True))
        return 0
    except GibbsDynError as err:
        print(f"gibbs-dyn: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"gibbs-dyn: IO failure: {err}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
