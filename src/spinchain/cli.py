"""Command-line interface.

Subcommands map one-to-one onto the experiment runners; every config key
can be set from a file (--config takes a path or a bundled preset name)
and overridden by flags.  Exit codes: 0 success, 2 configuration error,
3 capacity guard, 4 numerical-consistency failure.
"""

import argparse
import sys

from .config import PRESET_NAMES, load_config
from .errors import CapacityError, ConfigError, NumericalConsistencyError

RUNNERS = ("tmi-grid", "tmi-vs-entropy", "minmax-scan", "onebody-scan")

# (flag, dotted config key, help)
_FLAG_MAP = (
    ("--n-sites", "model.n_sites", "chain length N"),
    ("--alpha", "model.alphas", "comma list of coupling exponents; 'nn' allowed"),
    ("--t-max", "time.t_max", "time window end (Kac units when --kac)"),
    ("--n-points", "time.n_points", "number of grid times"),
    ("--partitions", "partitions.strategy",
     "quarters (default) | all | contiguous | fixed:SA,SB,SC; the families "
     "(all, contiguous, fixed) are for minmax-scan and onebody-scan only"),
    ("--out", "output.directory", "output directory"),
    ("--format", "output.formats", "csv, json, or both (comma list)"),
)


def _add_run_flags(sub):
    sub.add_argument("--config", metavar="PATH|PRESET",
                     help=f"config file or preset ({', '.join(PRESET_NAMES)})")
    for flag, _, text in _FLAG_MAP:
        sub.add_argument(flag, help=text)
    sub.add_argument("--kac", nargs="?", const="true",
                     help="interpret the time grid in Kac-rescaled units")
    sub.add_argument("--paper-scale", action="store_true",
                     help="restore the paper-scale chain length of the preset")


def _overrides(args) -> dict:
    over = {}
    for flag, dotted, _ in _FLAG_MAP:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            over[dotted] = value
    if args.kac is not None:
        over["time.kac_rescaled"] = args.kac
    return over


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Long-range XY chain quench simulator with "
                    "entanglement and TMI diagnostics.")
    subs = parser.add_subparsers(dest="command", required=True)
    texts = {
        "tmi-grid": "TMI of one partition triple over an (alpha, t) grid",
        "tmi-vs-entropy": "quarter TMI and half-chain entropy per alpha",
        "minmax-scan": "extremal TMI over a partition scan, with tau summary",
        "onebody-scan": "single-excitation TMI scan with nonnegativity check",
    }
    for name in RUNNERS:
        _add_run_flags(subs.add_parser(name, help=texts[name]))
    subs.add_parser("validate", help="run the built-in oracle cross-checks")
    return parser


def _execute(args) -> int:
    if args.command == "validate":
        from . import reference
        return 0 if reference.validate_suite(print) else 4

    from . import runs

    if args.paper_scale and args.n_sites is not None:
        raise ConfigError("--paper-scale sets the chain length from model.paper_n_sites; "
                          "it cannot go with --n-sites")
    cfg = load_config(args.config, _overrides(args))
    if args.paper_scale:
        if cfg.paper_n_sites is None:
            raise ConfigError("--paper-scale: config has no model.paper_n_sites")
        cfg = cfg.replace(n_sites=cfg.paper_n_sites)

    runner = {
        "tmi-grid": runs.run_tmi_grid,
        "tmi-vs-entropy": runs.run_tmi_vs_entropy,
        "minmax-scan": runs.run_minmax_scan,
        "onebody-scan": runs.run_onebody_scan,
    }[args.command]
    for dataset in runner(cfg):
        for path in dataset.write(cfg.out_dir, cfg.formats, cfg.precision):
            print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _execute(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
