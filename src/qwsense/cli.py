"""Command-line front end: run experiments, validate configs, plot a CSV as its header selects.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O
failure.  The output directory resolves as --out flag, then the
QWSENSE_OUT_DIR environment variable, then the config's out_dir, then
./qwsense-runs/<experiment>.
"""

import argparse
import os
import sys

from . import plotting
from .config import load_config, validate_config
from .errors import ConfigError, NumericalError

OUT_DIR_ENV = "QWSENSE_OUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser():
    parser = argparse.ArgumentParser(prog="qwsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment from a config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", help="output directory (overrides env and config)")
    run_p.add_argument("--seed", type=int, help="seed override")
    run_p.add_argument("--threads", type=int, default=1,
                       help="threads for a disorder msre ensemble; other runs accept only 1")

    plot_p = sub.add_parser("plot", help="render the SVG view a data CSV's header selects")
    plot_p.add_argument("--data", required=True, help="input CSV path")
    plot_p.add_argument("--out", required=True, help="output SVG path")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def _resolve_out_dir(args_out, cfg):
    if args_out:
        return args_out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    if cfg.out_dir:
        return cfg.out_dir
    return os.path.join("qwsense-runs", cfg.experiment)


def _cmd_run(args) -> int:
    cfg = validate_config(load_config(args.config), seed_override=args.seed)
    if args.threads < 1:
        raise ConfigError([f"--threads: must be >= 1, got {args.threads}"])
    reads_threads = cfg.experiment == "disorder" and cfg.disorder_observable == "msre"
    if args.threads > 1 and not reads_threads:
        raise ConfigError([f"--threads: only a disorder msre run reads it, got {args.threads} "
                           f"for a {cfg.experiment} run"])
    out_dir = _resolve_out_dir(args.out, cfg)
    from . import experiments

    manifest = experiments.run(cfg, out_dir, threads=args.threads)
    print(f"wrote {len(manifest.payload['files'])} files to {out_dir}")
    print(f"manifest: {manifest.path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = validate_config(load_config(args.config))
    print(f"config ok: experiment={cfg.experiment} seed={cfg.seed}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    print(f"wrote {plotting.render_plot(args.data, args.out)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate, "plot": _cmd_plot}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print("invalid configuration:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
