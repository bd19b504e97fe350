"""Command-line front end: `feclab pc|scc|mask ...`.

`_FIELDS` is the one table of settings. Each of its keys is a key of the
YAML config file (--config, which also takes `snr`) and, with `-` for `_`,
a long flag of every command (`--md-iters`, `--scc-iters`, ...; the
staircase keys on `scc` only, and `record_timing` as `--no-timing`).
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
from .sim import (SccRunParams, SimConfig, StopRule, mask_blocks, render_mask,
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


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line (its subcommands' too) as a ConfigError,
    which `main` prints as one `error:` line, not argparse's usage text."""

    def error(self, message):
        raise ConfigError(message)


def _field_type(key: str) -> type:
    """The type of the values a key takes: its field default's, or for the
    keys whose field defaults to None, int (component_m) or str (out)."""
    cls, name = _FIELDS[key]
    default = next(f.default for f in fields(cls) if f.name == name)
    return type(default) if default is not None else int if key == "component_m" else str


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command. Each takes --KEY for every key of _FIELDS,
    with - for _ and typed as its field (the SccRunParams keys on scc only;
    record_timing is --no-timing). The values they take are checked by
    the config dataclasses and validate_config, not here."""
    parser = _Parser(prog="feclab", description="Product/staircase FEC Monte Carlo lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("pc", "product-code BER sweep"), ("scc", "staircase-code BER sweep"),
                          ("mask", "flipping-mask statistics")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="YAML config file whose keys are the long "
                       "flag names with _ for - (e.g. md_iters, scc_iters)")
        p.add_argument("--snr", help="comma-separated list of SNR points in dB")
        for key, (cls, _) in _FIELDS.items():
            if key != "record_timing" and (cls is not SccRunParams or command == "scc"):
                p.add_argument("--" + key.replace("_", "-"), type=_field_type(key))
        p.add_argument("--no-timing", dest="record_timing", action="store_false",
                       default=None)
        if command == "mask":
            p.add_argument("--blocks", type=int, default=1000,
                           help="number of simulated blocks")
            p.add_argument("--inset", help="write one block's non-HRB grid here")
    return parser


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
    """The SimConfig of the keys that the config file or the flags set, the
    flags winning, each converted to its field's type."""
    opts = {}
    if args.config is not None:
        # bytes, so that yaml reads the encoding from the file as YAML defines it
        with open(args.config, "rb") as fh:
            try:
                opts = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"config file {args.config} is not valid YAML: "
                                  + " ".join(str(exc).split())) from exc
            except RecursionError as exc:  # yaml's parser recurses once per nesting level
                raise ConfigError(f"config file {args.config} nests too deeply to read") from exc
        if not isinstance(opts, dict):
            raise ConfigError("config file must contain a mapping")
        unknown = set(opts) - set(_FIELDS) - {"snr"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    opts.update((key, getattr(args, key)) for key in ("snr", *_FIELDS)
                if getattr(args, key, None) is not None)
    snr_points = _parse_snr(opts.pop("snr", None))
    parts = {cls: {} for cls in (SimConfig, SabmParams, SccRunParams, StopRule)}
    for key, value in opts.items():
        cls, name = _FIELDS[key]
        # None is a value only of the keys whose field defaults to None
        if value is not None or key not in ("component_m", "out"):
            value = _convert(key, value, _field_type(key))
        parts[cls][name] = value
    return SimConfig(scheme="scc" if args.command == "scc" else "pc",
                     snr_points=snr_points, sabm=SabmParams(**parts[SabmParams]),
                     scc=SccRunParams(**parts[SccRunParams]), stop=StopRule(**parts[StopRule]),
                     **parts[SimConfig])


def _check_outputs(args: argparse.Namespace, cfg: SimConfig) -> None:
    """Raise OSError if an output path cannot be opened for writing, as far
    as that shows without creating or truncating it, and ConfigError if two
    of the command's files (config, --out, --inset) are one file."""
    outputs = [p for p in (getattr(args, "inset", None), cfg.out_path) if p is not None]
    for path in outputs:
        parent = os.path.dirname(os.path.abspath(path))
        if not path or os.path.isdir(path) or not os.access(
                path if os.path.exists(path) else parent, os.W_OK):
            raise OSError(f"cannot open {path!r} for writing")
    paths = [p for p in (args.config, *outputs) if p is not None]
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ConfigError(f"the config and output paths {paths} must name different files")


def _run_mask(args: argparse.Namespace, cfg: SimConfig) -> int:
    validate_mask(cfg, args.blocks)  # before the header goes out
    # both paths are checked before either file is created or truncated,
    # and --inset opens first, so that no output is written before both open
    _check_outputs(args, cfg)
    with ExitStack() as files:
        inset = files.enter_context(open(args.inset, "w")) if args.inset is not None else None
        out = (files.enter_context(open(cfg.out_path, "w", newline=""))
               if cfg.out_path is not None else sys.stdout)
        writer = csv.writer(out)
        writer.writerow(["snr_db", "block_index", "non_hrb_count", "ratio"])
        for snr in cfg.snr_points:
            # a row per block as it is drawn: memory does not grow with --blocks
            total = 0
            for i, mask in enumerate(mask_blocks(cfg, snr, args.blocks)):
                c = int(mask.sum())
                total += c
                writer.writerow([f"{snr:.6g}", i, c, f"{c / mask.size:.6g}"])
                if i == 0 and inset is not None and snr == cfg.snr_points[0]:
                    inset.write(render_mask(mask) + "\n")
            mean = total / args.blocks  # np.mean's value: its float sum is exact below 2^53
            print(f"snr {snr:.6g} dB: mean non-HRB count {mean:.6g} "
                  f"(ratio {mean / mask.size:.4f})", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        if args.command == "mask":
            return _run_mask(args, cfg)
        _check_outputs(args, cfg)
        run_sweep(cfg, out=sys.stdout if cfg.out_path is None else None)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # every row written so far is flushed; the point in flight is lost
        print("interrupted: the output holds the points finished before it", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
