"""Command-line front end: `feclab pc|scc|mask ...`.

A YAML config file (--config) takes `snr` and the keys of `_FIELDS`: the
long CLI flag names with `_` for `-` (`llr`, `md_iters`, `scc_iters`, ...).
Explicit CLI flags take precedence over file values, which take precedence
over the defaults of the config dataclasses.
"""

import argparse
import csv
import os
import sys
from contextlib import ExitStack
from dataclasses import fields

import yaml

from .errors import ConfigError
from .pc import SabmParams
from .sim import (SccRunParams, SimConfig, StopRule, mask_stats, render_mask,
                  run_sweep, validate_mask)

# config key -> (dataclass, field) it sets; a key that is not given keeps
# the field's default. `snr` (SimConfig.snr_points) goes through _parse_snr.
_FIELDS = {
    "mod": (SimConfig, "mod"), "decoder": (SimConfig, "decoder"),
    "llr": (SimConfig, "llr_mode"), "delta": (SabmParams, "delta"),
    "iters": (SabmParams, "total_iters"), "md_iters": (SabmParams, "md_iters"),
    "flip_attempts": (SabmParams, "failure_flip_attempts"),
    "seed": (SimConfig, "master_seed"), "min_errors": (StopRule, "min_word_errors"),
    "max_blocks": (StopRule, "max_blocks"), "out": (SimConfig, "out_path"),
    "window": (SccRunParams, "window"), "scc_iters": (SccRunParams, "iters"),
    "chain_blocks": (SccRunParams, "chain_blocks"), "workers": (SimConfig, "workers"),
    "batch_size": (SimConfig, "batch_size"), "component_m": (SimConfig, "component_m"),
    "record_timing": (SimConfig, "record_timing"),
}


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--config", help="YAML config file whose keys are the long "
                   "flag names with _ for - (e.g. md_iters, scc_iters)")
    p.add_argument("--mod", type=int, choices=(2, 4, 8))
    p.add_argument("--snr", help="comma-separated list of SNR points in dB")
    p.add_argument("--decoder", choices=("ibdd", "sabm"))
    p.add_argument("--llr", choices=("exact", "maxlog"))
    p.add_argument("--delta", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--md-iters", dest="md_iters", type=int)
    p.add_argument("--flip-attempts", dest="flip_attempts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-errors", dest="min_errors", type=int)
    p.add_argument("--max-blocks", dest="max_blocks", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--component-m", dest="component_m", type=int)
    p.add_argument("--no-timing", dest="record_timing", action="store_false",
                   default=None)


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line (its subcommands' too) as a ConfigError,
    which `main` prints as one `error:` line, not argparse's usage text."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="feclab", description="Product/staircase FEC Monte Carlo lab")
    sub = parser.add_subparsers(dest="command", required=True)
    pc = sub.add_parser("pc", help="product-code BER sweep")
    _add_shared(pc)
    scc = sub.add_parser("scc", help="staircase-code BER sweep")
    _add_shared(scc)
    scc.add_argument("--window", type=int, help="decoding window size L")
    scc.add_argument("--scc-iters", dest="scc_iters", type=int,
                     help="window iterations")
    scc.add_argument("--chain-blocks", dest="chain_blocks", type=int,
                     help="staircase blocks per Monte Carlo chain")
    mask = sub.add_parser("mask", help="flipping-mask statistics")
    _add_shared(mask)
    mask.add_argument("--blocks", type=int, default=1000,
                      help="number of simulated blocks")
    mask.add_argument("--inset", help="write one block's non-HRB grid here")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """The config keys the file or the flags set, converted to their fields' types."""
    merged = {}
    if args.config:
        # bytes, so that yaml reads the encoding from the file as YAML defines it
        with open(args.config, "rb") as fh:
            try:
                loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"config file {args.config} is not valid YAML: "
                                  + " ".join(str(exc).split())) from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a mapping")
        unknown = set(loaded) - set(_FIELDS) - {"snr"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
        merged.update(loaded)
    for key in ("snr", *_FIELDS):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key, (cls, name) in _FIELDS.items():
        default = next(f.default for f in fields(cls) if f.name == name)
        if key in merged and (merged[key] is not None or default is not None):
            # a None default (component_m, out) keeps None, else takes int or str
            conv = type(default) if default is not None else int if key == "component_m" else str
            merged[key] = _convert(key, merged[key], conv)
    return merged


def _convert(key: str, value, conv: type):
    """value as conv, without a lossy cast: only a bool key takes a bool,
    and nothing else; an int key takes an int or an integral float."""
    ok = isinstance(value, bool) == (conv is bool) and (
        conv is not int or isinstance(value, int) or isinstance(value, float) and value.is_integer())
    try:
        if ok:
            return conv(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config key {key!r}: {value!r} is not a valid {conv.__name__}")


def _parse_snr(value) -> tuple:
    if value is None:
        raise ConfigError("no SNR points given (use --snr)")
    if isinstance(value, (list, tuple)):
        return tuple(_convert("snr", v, float) for v in value)
    try:
        return tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad SNR list {value!r}") from exc


def config_from_args(args: argparse.Namespace) -> SimConfig:
    opts = _resolve(args)
    snr_points = _parse_snr(opts.pop("snr", None))
    parts = {cls: {} for cls in (SimConfig, SabmParams, SccRunParams, StopRule)}
    for key, value in opts.items():
        cls, name = _FIELDS[key]
        parts[cls][name] = value
    return SimConfig(scheme="scc" if args.command == "scc" else "pc",
                     snr_points=snr_points, sabm=SabmParams(**parts[SabmParams]),
                     scc=SccRunParams(**parts[SccRunParams]), stop=StopRule(**parts[StopRule]),
                     **parts[SimConfig])


def _check_writable(path: str) -> None:
    """Raise OSError if path cannot be opened for writing, as far as that
    shows without creating or truncating it."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise OSError(f"cannot open {path} for writing")


def _run_mask(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    validate_mask(cfg, args.blocks)  # before the header goes out
    # both paths are checked before either file is created or truncated,
    # and --inset opens first, so that no output is written before both open
    for path in (args.inset, cfg.out_path):
        if path:
            _check_writable(path)
    with ExitStack() as files:
        inset = files.enter_context(open(args.inset, "w")) if args.inset else None
        out = (files.enter_context(open(cfg.out_path, "w", newline=""))
               if cfg.out_path else sys.stdout)
        writer = csv.writer(out)
        writer.writerow(["snr_db", "block_index", "non_hrb_count", "ratio"])
        for snr in cfg.snr_points:
            ms = mask_stats(cfg, snr, args.blocks)
            w2 = ms.first_mask.size
            for i, c in enumerate(ms.per_block_counts):
                writer.writerow([f"{snr:.6g}", i, c, f"{c / w2:.6g}"])
            print(f"snr {snr:.6g} dB: mean non-HRB count {ms.mean_non_hrb_count:.6g} "
                  f"(ratio {ms.ratio:.4f})", file=sys.stderr)
            if inset is not None and snr == cfg.snr_points[0]:
                inset.write(render_mask(ms.first_mask) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "mask":
            return _run_mask(args)
        cfg = config_from_args(args)
        if cfg.out_path is None:
            run_sweep(cfg, out=sys.stdout)
        else:
            run_sweep(cfg)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
