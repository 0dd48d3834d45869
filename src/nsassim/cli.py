"""Command-line interface: twin experiments, verification, sweeps.

Exit codes: 0 on success, 1 when a verification suite fails or a run
aborts, 2 on configuration errors (with a machine-readable line
`ERROR <section.key>: <message>` on stderr).
"""

import argparse
import sys

from .config import ConfigFieldError, ExperimentConfig, load_config
from .errors import ConfigurationError, InvalidFieldError, SolverError


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nsassim",
        description="Sup-norm variational data assimilation on 2D Navier-Stokes")
    sub = ap.add_subparsers(dest="command", required=True)

    twin = sub.add_parser("twin", help="run a twin experiment")
    twin.add_argument("--config", metavar="PATH", help="configuration file")
    twin.add_argument("--out", metavar="DIR", help="override output directory")
    twin.add_argument("--no-plots", action="store_true", help="skip SVG figures")

    verify = sub.add_parser(
        "verify", help="run the property suites",
        description="Run the property suites at their built-in sizes.  They "
                    "read no configuration: --config only validates the file.")
    verify.add_argument("--config", metavar="PATH",
                        help="configuration file to validate; the suites do not use it")
    verify.add_argument("--suite", metavar="NAME", help="run one named suite")

    sweep = sub.add_parser("sweep", help="run one twin per parameter value")
    sweep.add_argument("--config", metavar="PATH", help="configuration file")
    sweep.add_argument("--out", metavar="DIR", help="override output directory")
    sweep.add_argument("--no-plots", action="store_true", help="skip SVG figures")
    sweep.add_argument("--param", required=True, metavar="SECTION.KEY",
                       help="configuration key to sweep, e.g. physics.lambda")
    sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                       help="comma-separated values")
    return ap


def _load(args):
    if getattr(args, "config", None):
        return load_config(path=args.config)
    cfg = ExperimentConfig()
    cfg.validate()
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    from . import runner

    try:
        cfg = _load(args)
        if args.command == "twin":
            runner.run_twin(cfg, out_dir=args.out,
                            plots=False if args.no_plots else None)
            return 0
        if args.command == "verify":
            return 0 if runner.run_verify(suite_filter=args.suite) else 1
        if args.command == "sweep":
            values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
            runner.run_sweep(cfg, args.param, values, out_dir=args.out,
                             plots=False if args.no_plots else None)
            return 0
    except ConfigFieldError as exc:
        print(f"ERROR {exc.fieldname}: {exc.args[0].split(': ', 1)[-1]}",
              file=sys.stderr)
        return 2
    except (ConfigurationError, InvalidFieldError, SolverError, OSError) as exc:
        print(f"ERROR run: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
