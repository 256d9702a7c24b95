"""Command-line front end.

Subcommands: estimate, solve, sweep, verify. `main` loads the
configuration, picks the meshes and writes --dump-matrices once for every
command, after checking that every output can be written; each cmd_*
function then only builds its report, writes it and returns the exit code.
Exit codes: 0 success, 2 configuration error (an unreadable config file
included), an output that cannot be written, an input too large to
allocate or one whose spectral estimate is degenerate, 3 numerical
divergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, default_config, load_config, override
from .experiment import (
    VERIFY_MESHES,
    dump_system,
    estimate_report,
    solve_report,
    sweep_csv,
    sweep_report,
    verify_report,
)
from .spectral import EstimationError

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
        p.add_argument("--dump-matrices", type=Path, metavar="DIR",
                       help="dump reduced operators in Matrix Market format per mesh")

    def runs(p, run):
        common(p)
        p.add_argument(
            "--mesh-n", type=int, help="run one mesh resolution (not part of config_hash)"
        )
        p.add_argument("--mode", dest="spectral.mode", metavar="fine|coarse",
                       help="override [spectral] mode and reset [spectral] tol to its default")
        p.set_defaults(run=run)
        return p

    runs(sub.add_parser("estimate", help="spectral estimates and optimal parameters"),
         cmd_estimate)
    p_solve = runs(sub.add_parser("solve", help="time march one mesh at a stabilization"),
                   cmd_solve)
    p_solve.add_argument("--L", dest="solver.L", metavar="L|optimal",
                         help="override [solver] L, the stabilization parameter")
    runs(sub.add_parser("sweep", help="average iterations over the D grid"), cmd_sweep)
    common(sub.add_parser("verify", help="dense-oracle verification battery"))

    return parser


def _load(args: argparse.Namespace):
    """The config file (or the defaults) with the flags whose dest is a
    "section.key" applied as raw values of those keys."""
    cfg = load_config(args.config) if args.config else default_config()
    raw = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            raw.setdefault(section, {})[key] = value
    return override(cfg, raw)


def _check_writable(path: Path, directory: bool = False) -> None:
    """Raise the OSError that writing path would end in, before any work: a
    file output that is a directory, a directory output that is not one, or
    a nearest existing ancestor that is not a writable directory. Creates
    nothing; a write can still fail late, on a full disk for one."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    wants_dir = directory or existing != path
    if existing.is_dir() != wants_dir:
        code = errno.ENOTDIR if wants_dir else errno.EISDIR
    elif not os.access(existing, os.W_OK | (os.X_OK if wants_dir else 0)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(existing))


def _sidecar(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".json")


def _emit(payload: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload, encoding="utf-8")


def cmd_estimate(cfg, ns, out) -> int:
    _emit(json.dumps(estimate_report(cfg, mesh_ns=ns), indent=2), out)
    return EXIT_OK


def cmd_solve(cfg, ns, out) -> int:
    report = solve_report(cfg, ns[0])
    _emit(json.dumps(report, indent=2), out)
    return EXIT_DIVERGED if report["diverged"] else EXIT_OK


def cmd_sweep(cfg, ns, out) -> int:
    report = sweep_report(cfg, mesh_ns=ns)
    _emit(sweep_csv(report), out)
    if out is not None:
        _sidecar(out).write_text(json.dumps(report, indent=2), encoding="utf-8")
    return EXIT_OK


def cmd_verify(cfg, out) -> int:
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
    sys.stdout.write("\n".join(lines) + "\n")
    if out is not None:
        _emit(json.dumps(report, indent=2), out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "verify":
            ns = VERIFY_MESHES
        elif args.mesh_n is not None:  # checked like [mesh] n, but not hashed
            ns = replace(cfg, mesh_ns=(args.mesh_n,)).mesh_ns
        else:
            ns = cfg.mesh_ns
        if args.command == "solve" and len(ns) != 1:
            raise ConfigError("solve needs a single mesh; pass --mesh-n or configure one value")
        if args.out is not None:
            _check_writable(args.out)
            if args.command == "sweep":
                _check_writable(_sidecar(args.out))
        dumps = {n: args.dump_matrices / f"n{n}" for n in ns} if args.dump_matrices else {}
        for path in dumps.values():
            _check_writable(path, directory=True)
        for n, path in dumps.items():
            dump_system(n, cfg.material, path)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        return args.run(cfg, ns, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config raises ConfigError instead
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an input that passed its checks but not the RAM
        print(f"cannot allocate: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except EstimationError as exc:  # an accepted input whose pencil degenerates
        print(f"cannot estimate: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
