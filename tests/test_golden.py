"""Pinned `--no-timing` CSV rows for PC/SCC x iBDD/SABM.

The rows were recorded before the decoders moved to the syndrome domain.
A speed-up must keep them byte-identical: the pins catch a fast path that
changes decoding, which run-to-run determinism checks cannot. The `mask`
pin guards the draw, encode and transmit steps without any decoding.
"""

import contextlib
import io

import pytest

from feclab.cli import main
from feclab.sim import CSV_COLUMNS

# name -> (CLI arguments, CSV rows without the header)
GOLDEN = {
    "pc_ibdd": (
        "pc --snr 5.6,6.0,6.2 --decoder ibdd --max-blocks 16 --batch-size 8 --seed 3",
        ["pc,2,ibdd,exact,5.6,16,0.0283852,0.0258585,16,2560,,3,0",
         "pc,2,ibdd,exact,6,16,0.0233498,0.0104403,14,2560,,3,0",
         "pc,2,ibdd,exact,6.2,16,0.0205345,0.0018355,4,1936,,3,0"]),
    "pc_sabm": (
        "pc --snr 5.6,6.0,6.2 --decoder sabm --max-blocks 16 --batch-size 8 --seed 3",
        ["pc,2,sabm,exact,5.6,16,0.0283852,0.00944181,14,3088.12,,3,0",
         "pc,2,sabm,exact,6,16,0.0233498,0,0,2233,,3,0",
         "pc,2,sabm,exact,6.2,16,0.0205345,0,0,1808.31,,3,0"]),
    "pc_ibdd_4pam_m6": (
        "pc --mod 4 --llr maxlog --component-m 6 --snr 10.0,10.5,11.0 --decoder ibdd --max-blocks 16 --batch-size 8 --seed 5",
        ["pc,4,ibdd,maxlog,10,16,0.059433,0.0541378,16,1280,,5,0",
         "pc,4,ibdd,maxlog,10.5,16,0.0493011,0.028811,15,1240,,5,0",
         "pc,4,ibdd,maxlog,11,16,0.0411072,0.00576701,5,928,,5,0"]),
    "pc_sabm_4pam_m6": (
        "pc --mod 4 --llr maxlog --component-m 6 --snr 10.0,10.5,11.0 --decoder sabm --flip-attempts 2 --md-iters 3 --delta 4 --max-blocks 16 --batch-size 8 --seed 5",
        ["pc,4,sabm,maxlog,10,16,0.059433,0.0265283,14,1570.75,,5,0",
         "pc,4,sabm,maxlog,10.5,16,0.0493011,0.00124952,3,1122.5,,5,0",
         "pc,4,sabm,maxlog,11,16,0.0411072,0,0,799.875,,5,0"]),
    "scc_ibdd": (
        "scc --snr 6.8,7.2 --decoder ibdd --chain-blocks 6 --max-blocks 12 --batch-size 1 --seed 3",
        ["scc,2,ibdd,exact,6.8,12,0.0146027,0.0115369,12,1536,0,3,0",
         "scc,2,ibdd,exact,7.2,12,0.0108744,0.00181822,10,1536,0,3,0"]),
    "scc_sabm": (
        "scc --snr 6.8,7.2 --decoder sabm --chain-blocks 6 --max-blocks 12 --batch-size 1 --seed 3",
        ["scc,2,sabm,exact,6.8,12,0.0146027,0.0105281,12,1894.67,0.233507,3,0",
         "scc,2,sabm,exact,7.2,12,0.0108744,0.000621715,5,1661.08,0.0814345,3,0"]),
    "scc_ibdd_m6": (
        "scc --component-m 6 --window 3 --scc-iters 3 --chain-blocks 8 --snr 4.5,5.0,5.5 --decoder ibdd --max-blocks 16 --batch-size 1 --seed 7",
        ["scc,2,ibdd,exact,4.5,16,0.0476685,0.0264186,16,180,0,7,0",
         "scc,2,ibdd,exact,5,16,0.0378418,0.00842928,11,180,0,7,0",
         "scc,2,ibdd,exact,5.5,16,0.0285034,0.00174753,2,180,0,7,0"]),
    "scc_sabm_m6": (
        "scc --component-m 6 --window 3 --scc-iters 3 --chain-blocks 8 --snr 4.5,5.0,5.5 --decoder sabm --flip-attempts 2 --max-blocks 16 --batch-size 1 --seed 7",
        ["scc,2,sabm,exact,4.5,16,0.0476685,0.0176809,15,237.562,0.319792,7,0",
         "scc,2,sabm,exact,5,16,0.0378418,0.00113076,5,201.312,0.118403,7,0",
         "scc,2,sabm,exact,5.5,16,0.0285034,0,0,188.438,0.046875,7,0"]),
    # edge windows: at window 2 every window's older-half crossing words lie
    # outside it; a chain shorter than the window shrinks every window
    "scc_sabm_m6_window2": (
        "scc --component-m 6 --window 2 --scc-iters 3 --chain-blocks 8 --snr 4.5,5.0,5.5 --decoder sabm --flip-attempts 2 --max-blocks 16 --batch-size 1 --seed 7",
        ["scc,2,sabm,exact,4.5,16,0.0476685,0.0200452,15,133.188,0.38737,7,0",
         "scc,2,sabm,exact,5,16,0.0378418,0.00627056,13,113.562,0.182943,7,0",
         "scc,2,sabm,exact,5.5,16,0.0285034,0.00051398,4,105.438,0.0983073,7,0"]),
    "scc_sabm_m6_short_chain": (
        "scc --component-m 6 --window 6 --scc-iters 3 --chain-blocks 4 --snr 4.5,5.0,5.5 --decoder sabm --flip-attempts 2 --max-blocks 16 --batch-size 1 --seed 7",
        ["scc,2,sabm,exact,4.5,16,0.0477905,0.014597,13,302.375,0.259896,7,0",
         "scc,2,sabm,exact,5,16,0.0378418,0.00462582,8,262.562,0.0940104,7,0",
         "scc,2,sabm,exact,5.5,16,0.0267334,0.000925164,4,251.25,0.046875,7,0"]),
}


MASK_ARGS = "mask --snr 5.8,6.2 --component-m 5 --blocks 8 --seed 3"
MASK_ROWS = [
    "5.8,0,262,0.255859", "5.8,1,246,0.240234", "5.8,2,252,0.246094",
    "5.8,3,268,0.261719", "5.8,4,246,0.240234", "5.8,5,271,0.264648",
    "5.8,6,267,0.260742", "5.8,7,270,0.263672",
    "6.2,0,208,0.203125", "6.2,1,226,0.220703", "6.2,2,205,0.200195",
    "6.2,3,202,0.197266", "6.2,4,202,0.197266", "6.2,5,221,0.21582",
    "6.2,6,216,0.210938", "6.2,7,224,0.21875",
]


def _run_cli(args: str) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(args.split() + ["--no-timing"]) == 0
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_rows(name):
    args, rows = GOLDEN[name]
    header, *got = _run_cli(args)
    assert header == ",".join(CSV_COLUMNS)
    assert got == rows


def test_golden_mask_rows():
    header, *got = _run_cli(MASK_ARGS)
    assert header == "snr_db,block_index,non_hrb_count,ratio"
    assert got == MASK_ROWS
