"""Batch front end: run experiment configs, single checks, ball solves.

Subcommands:
    run <config>      execute a config (path or built-in name); writes one
                      CSV per check plus summary.txt under output_dir
    check <name>      one sweep of a single check from command-line flags,
                      checked by the rules a config's keys follow
    ball              radial ball solve; prints the energy breakdown
    list-configs      names and descriptions of the built-in configs

Exit status: 0 all checks passed, 2 configuration error, 3 solver failure,
4 inequality violation. All file writes happen after aggregation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod
from . import inequalities as ineq
from . import radial
from .errors import ConfigError, SolverError
from .radial import RadialParams
from .reports import SweepResult

STATUS_OK = 0
STATUS_CONFIG = 2
STATUS_SOLVER = 3
STATUS_VIOLATION = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _tally(sw: SweepResult) -> str:
    """'<passed>/<rows> passed', with the empirical constant when there is one."""
    line = f"{sw.n_pass}/{len(sw.rows)} passed"
    if sw.empirical_constant is not None:
        line += f", empirical constant {_fmt(sw.empirical_constant)}"
    return line


def run_experiment(cfg: ineq.ExperimentConfig, out=sys.stdout) -> int:
    """Execute every requested check over the config's parameter product.

    Builds rows one shape at a time, then writes <output_dir>/<check>.csv per
    check and a summary.txt; reruns write identical bytes. Returns the status.
    """
    summary = [f"config {cfg.name}", f"family {cfg.family}", f"grid {list(cfg.grid)}"]
    rows_by_check = ineq._experiment_rows(cfg)
    total_pass = total_fail = 0
    for check in cfg.checks:
        rows = rows_by_check.get(check, [])
        sw = SweepResult(rows)
        total_pass += sw.n_pass
        total_fail += sw.n_fail
        expected = cfg.cardinality(check)
        if len(rows) != expected:
            raise SolverError(
                f"check {check}: produced {len(rows)} rows, config implies {expected}"
            )
        summary.append(f"check {check}: " + _tally(sw))
    status = STATUS_OK if total_fail == 0 else STATUS_VIOLATION
    summary.append(f"total: {total_pass} passed, {total_fail} failed")
    summary.append("status " + ("ok" if status == STATUS_OK else "violation"))
    # aggregation done; now the single-threaded write phase, so a config
    # that fails before it leaves no directory behind
    os.makedirs(cfg.output_dir, exist_ok=True)
    for check in cfg.checks:
        ineq.rows_to_csv(rows_by_check[check], os.path.join(cfg.output_dir, f"{check}.csv"))
    with open(
        os.path.join(cfg.output_dir, "summary.txt"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write("\n".join(summary) + "\n")
    for line in summary:
        print(line, file=out)
    return status


def _cmd_run(args, out) -> int:
    if os.path.exists(args.config):
        cfg = cfgmod.load_config(args.config)
    else:
        cfg = cfgmod.load_builtin(args.config)
    return run_experiment(cfg, out=out)


def _cmd_ball(args, out) -> int:
    params = RadialParams(n=args.n, q=args.q, beta=args.beta, c=args.c, eps=args.eps)
    profile = radial.solve_ball(params, args.R, M=args.M)
    e = radial.ball_energy(profile)
    print(f"mode       = {profile.mode}", file=out)
    print(f"E          = {_fmt(e.E)}", file=out)
    print(f"dirichlet  = {_fmt(e.dirichlet)}", file=out)
    print(f"boundary   = {_fmt(e.boundary)}", file=out)
    print(f"bulk       = {_fmt(e.bulk)}", file=out)
    if e.lambda_q is not None:
        print(f"lambda_q   = {_fmt(e.lambda_q)}", file=out)
    print(f"psi(0)     = {_fmt(float(profile.psi[0]))}", file=out)
    print(f"psi(R)     = {_fmt(float(profile.psi[-1]))}", file=out)
    return STATUS_OK


def _cmd_check(args, out) -> int:
    grid = _float_list(args.grid, "grid")
    res = ineq.Resolution(n_r=args.n_r, n_theta=args.n_theta, M=args.M, n_angles=args.n_angles)
    sw = ineq.sweep(
        args.family,
        grid,
        args.name,
        q=args.q,
        beta=args.beta,
        res=res,
        k=args.k,
        c_factor=args.c_factor,
        domain_K=args.K,
    )
    for row in sw.rows:
        verdict = "pass" if row["passed"] else "FAIL"
        print(
            f"{args.family} {row['param']:g}: lhs {_fmt(row['lhs'])} rhs {_fmt(row['rhs'])}"
            f" deficit {_fmt(row['deficit'])} tol {_fmt(row['tolerance'])} {verdict}",
            file=out,
        )
    print(_tally(sw), file=out)
    if args.csv:
        ineq.rows_to_csv(sw.rows, args.csv)
    return STATUS_OK if sw.all_passed else STATUS_VIOLATION


def _cmd_list_configs(out) -> int:
    for name in cfgmod.builtin_config_names():
        print(f"{name:<16s} {cfgmod.config_description(name)}", file=out)
    return STATUS_OK


def _float_list(text: str, field: str):
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f'flag "--{field}": expected comma-separated numbers') from None
    if not values:
        raise ConfigError(f'flag "--{field}": empty list')
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="robinlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", help="path to a .cfg file or a built-in name")

    ball = sub.add_parser("ball", help="solve the radial ball problem")
    ball.add_argument("--n", type=int, default=2)
    ball.add_argument("--q", type=float, default=1.0)
    ball.add_argument("--beta", type=float, default=1.0)
    ball.add_argument("--c", type=float, default=0.0)
    ball.add_argument("--eps", type=float, default=0.0)
    ball.add_argument("--R", type=float, default=1.0)
    ball.add_argument("--M", type=int, default=radial.DEFAULT_STEPS)

    check = sub.add_parser("check", help="run one inequality check over a shape grid")
    check.add_argument("name", choices=ineq.CHECKS)
    check.add_argument("--family", required=True, choices=ineq.FAMILIES)
    check.add_argument("--grid", required=True, help="comma-separated parameter values")
    check.add_argument("--q", type=float, default=1.0)
    check.add_argument("--beta", type=float, default=1.0)
    check.add_argument("--c-factor", dest="c_factor", type=float, default=0.0)
    check.add_argument("--k", type=int, default=ineq.ExperimentConfig.k)
    check.add_argument("--n-r", dest="n_r", type=int, default=ineq.Resolution.n_r)
    check.add_argument("--n-theta", dest="n_theta", type=int, default=ineq.Resolution.n_theta)
    check.add_argument("--K", type=int, default=ineq.ExperimentConfig.domain_K)
    check.add_argument("--M", type=int, default=ineq.Resolution.M)
    check.add_argument("--n-angles", dest="n_angles", type=int, default=ineq.Resolution.n_angles)
    check.add_argument("--csv", default="", help="also write the rows to this path")

    sub.add_parser("list-configs", help="list built-in configs")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse already printed the message; fold into the config status
        return STATUS_CONFIG if ex.code not in (0, None) else 0
    out = sys.stdout
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "ball":
            return _cmd_ball(args, out)
        if args.command == "check":
            return _cmd_check(args, out)
        return _cmd_list_configs(out)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return STATUS_CONFIG
    except ValueError as ex:
        print(f"invalid value: {ex}", file=sys.stderr)
        return STATUS_CONFIG
    except SolverError as ex:
        print(f"solver failure: {ex}", file=sys.stderr)
        return STATUS_SOLVER


if __name__ == "__main__":
    sys.exit(main())
