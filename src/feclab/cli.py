"""Command-line front end: `feclab pc|scc|mask ...`.

A YAML config file (--config) takes the keys of `_DEFAULTS`: the long CLI
flag names with `_` for `-` (`llr`, `md_iters`, `scc_iters`, ...). Explicit
CLI flags take precedence over file values, which take precedence over the
built-in defaults.
"""

import argparse
import csv
import sys

import yaml

from .errors import ConfigError
from .pc import SabmParams
from .sim import (SccRunParams, SimConfig, StopRule, mask_stats, render_mask,
                  run_sweep, validate_config)

_DEFAULTS = {
    "mod": 2, "decoder": "ibdd", "llr": "exact", "delta": 5.0, "iters": 10,
    "md_iters": 5, "flip_attempts": 1, "seed": 1, "min_errors": 100,
    "max_blocks": 1_000_000, "out": None, "window": 5, "scc_iters": 4,
    "chain_blocks": 12, "workers": 1, "batch_size": 16, "component_m": None,
    "record_timing": True, "snr": None,
}
# what each value is converted to: its default's type, or int/str for
# component_m/out, whose None stays None; `snr` goes through _parse_snr
_TYPES = {k: type(v) for k, v in _DEFAULTS.items() if v is not None} | {
    "component_m": int, "out": str}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feclab",
                                     description="Product/staircase FEC Monte Carlo lab")
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
    merged = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a mapping")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key, conv in _TYPES.items():
        if merged[key] is not None or _DEFAULTS[key] is not None:
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
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"config key {key!r}: {value!r} is not a valid {conv.__name__}")


def _parse_snr(value) -> tuple:
    if value is None:
        raise ConfigError("no SNR points given (use --snr)")
    try:
        if isinstance(value, (list, tuple)):
            return tuple(float(v) for v in value)
        return tuple(float(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad SNR list {value!r}") from exc


def config_from_args(args: argparse.Namespace) -> SimConfig:
    opts = _resolve(args)
    scheme = "scc" if args.command == "scc" else "pc"
    return SimConfig(
        scheme=scheme,
        mod=opts["mod"],
        snr_points=_parse_snr(opts["snr"]),
        decoder=opts["decoder"],
        llr_mode=opts["llr"],
        sabm=SabmParams(delta=opts["delta"], total_iters=opts["iters"],
                        md_iters=opts["md_iters"],
                        failure_flip_attempts=opts["flip_attempts"]),
        scc=SccRunParams(window=opts["window"], iters=opts["scc_iters"],
                         chain_blocks=opts["chain_blocks"]),
        stop=StopRule(min_word_errors=opts["min_errors"],
                      max_blocks=opts["max_blocks"]),
        master_seed=opts["seed"],
        out_path=opts["out"],
        workers=opts["workers"],
        batch_size=opts["batch_size"],
        record_timing=opts["record_timing"],
        component_m=opts["component_m"],
    )


def _run_mask(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    validate_config(cfg)
    out = open(cfg.out_path, "w", newline="") if cfg.out_path else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["snr_db", "block_index", "non_hrb_count", "ratio"])
    try:
        for snr in cfg.snr_points:
            ms = mask_stats(cfg, snr, args.blocks)
            w2 = ms.first_mask.size
            for i, c in enumerate(ms.per_block_counts):
                writer.writerow([f"{snr:.6g}", i, c, f"{c / w2:.6g}"])
            print(f"snr {snr:.6g} dB: mean non-HRB count {ms.mean_non_hrb_count:.6g} "
                  f"(ratio {ms.ratio:.4f})", file=sys.stderr)
            if args.inset and snr == cfg.snr_points[0]:
                with open(args.inset, "w") as fh:
                    fh.write(render_mask(ms.first_mask) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
