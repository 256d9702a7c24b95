"""Command-line front end.

Subcommands: estimate, solve, sweep, verify. Exit codes: 0 success, 2
configuration error, 3 numerical divergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, default_config, load_config, override
from .experiment import (
    dump_system,
    estimate_report,
    solve_report,
    sweep_report,
    verify_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biotfs",
        description=(
            "Fixed-stress splitting solver for impermeable poroelasticity "
            "with an a priori optimal stabilization parameter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="configuration file (INI sections)")
        p.add_argument("--seed", dest="spectral.seed", metavar="N",
                       help="override [spectral] seed")
        p.add_argument("--out", type=Path, help="output path (default: stdout)")
        p.add_argument(
            "--dump-matrices",
            type=Path,
            metavar="DIR",
            help="dump reduced operators in Matrix Market format per mesh",
        )

    def runs(p):
        common(p)
        p.add_argument(
            "--mesh-n", type=int, help="run one mesh resolution (not part of config_hash)"
        )
        p.add_argument("--mode", dest="spectral.mode", metavar="fine|coarse",
                       help="override [spectral] mode and reset [spectral] tol to its default")
        return p

    runs(sub.add_parser("estimate", help="spectral estimates and optimal parameters"))
    p_solve = runs(sub.add_parser("solve", help="time march one mesh at a stabilization"))
    p_solve.add_argument("--L", dest="solver.L", metavar="L|optimal",
                         help="override [solver] L, the stabilization parameter")
    runs(sub.add_parser("sweep", help="average iterations over the D grid"))
    common(sub.add_parser("verify", help="dense-oracle verification battery"))

    return parser


def _load(args):
    """The config file (or the defaults) with the flags whose dest is a
    "section.key" applied as raw values of those keys."""
    cfg = load_config(args.config) if args.config else default_config()
    raw = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            raw.setdefault(section, {})[key] = value
    return override(cfg, raw)


def _emit(payload: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload, encoding="utf-8")


def _dump(cfg, ns, directory: Path) -> None:
    for n in ns:
        dump_system(n, cfg.material, directory / f"n{n}")


def _mesh_selection(cfg, args):
    if args.mesh_n is not None:  # checked like [mesh] n, but not hashed
        return replace(cfg, mesh_ns=(args.mesh_n,)).mesh_ns
    return cfg.mesh_ns


def cmd_estimate(args) -> int:
    cfg = _load(args)
    ns = _mesh_selection(cfg, args)
    if args.dump_matrices:
        _dump(cfg, ns, args.dump_matrices)
    report = estimate_report(cfg, mesh_ns=ns)
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load(args)
    ns = _mesh_selection(cfg, args)
    if len(ns) != 1:
        raise ConfigError(
            "solve needs a single mesh; pass --mesh-n or configure one value"
        )
    if args.dump_matrices:
        _dump(cfg, ns, args.dump_matrices)
    report = solve_report(cfg, ns[0])
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_DIVERGED if report["diverged"] else EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    ns = _mesh_selection(cfg, args)
    if args.dump_matrices:
        _dump(cfg, ns, args.dump_matrices)
    report = sweep_report(cfg, mesh_ns=ns)
    _emit(report.to_csv_text(), args.out)
    if args.out is not None:
        sidecar = args.out.with_suffix(args.out.suffix + ".json")
        sidecar.write_text(json.dumps(report.to_json_dict(), indent=2), encoding="utf-8")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    if args.dump_matrices:
        _dump(cfg, (4, 8), args.dump_matrices)
    report = verify_report(cfg)
    width = max(len(c["name"]) for c in report["checks"])
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(
            f"{c['name']:<{width}}  measured={c['measured']:.6e}  "
            f"{c['op']} {c['bound']:.6e}  {status}"
        )
    lines.append("verdict: " + ("PASS" if report["passed"] else "FAIL"))
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out is not None:
        _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
