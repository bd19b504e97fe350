"""Monte Carlo driver: determinism, CSV contract, mask stats, CLI."""

import csv
import io

import numpy as np
import pytest
import yaml

from feclab.cli import main
from feclab.errors import ConfigError
from feclab.pc import SabmParams
from feclab.sim import (
    CSV_COLUMNS,
    SccRunParams,
    SimConfig,
    StopRule,
    analytic_non_hrb_probability,
    mask_stats,
    render_mask,
    run_point,
    run_sweep,
    stats_row,
    validate_config,
)


def small_pc_cfg(**over):
    base = dict(scheme="pc", mod=2, snr_points=(5.0,), decoder="ibdd",
                llr_mode="exact", stop=StopRule(min_word_errors=4,
                                                max_blocks=24),
                master_seed=7, component_m=5, record_timing=False,
                batch_size=8)
    base.update(over)
    return SimConfig(**base)


def small_scc_cfg(**over):
    base = dict(scheme="scc", mod=2, snr_points=(5.0,), decoder="ibdd",
                llr_mode="exact", stop=StopRule(min_word_errors=2,
                                                max_blocks=6),
                scc=SccRunParams(window=3, iters=2, chain_blocks=4),
                master_seed=7, component_m=5, record_timing=False,
                batch_size=2)
    base.update(over)
    return SimConfig(**base)


def sweep_csv(cfg) -> str:
    buf = io.StringIO()
    run_sweep(cfg, out=buf)
    return buf.getvalue()


# ------------------------------------------------------------- validation

def test_validate_rejects_empty_snr():
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(snr_points=()))


def test_validate_rejects_bad_fields():
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(scheme="turbo"))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(mod=3))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(decoder="viterbi"))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(workers=0))


# -------------------------------------------------------------- run_point

def test_run_point_clean_at_high_snr():
    st = run_point(small_pc_cfg(snr_points=(60.0,)), 60.0)
    assert st.ber_pre == 0.0
    assert st.ber_post == 0.0
    assert st.block_errors == 0
    assert st.blocks_run == 24  # stop rule never met, hits max_blocks


def test_run_point_deterministic():
    cfg = small_pc_cfg()
    a = run_point(cfg, 5.0)
    b = run_point(cfg, 5.0)
    assert a.ber_post == b.ber_post
    assert a.ber_pre == b.ber_pre
    assert a.blocks_run == b.blocks_run
    assert a.per_block_post == b.per_block_post


def test_run_point_noisy_has_pre_fec_errors():
    st = run_point(small_pc_cfg(), 5.0)
    assert st.ber_pre > 0.0
    assert st.blocks_run >= 8


def test_scc_point_populates_eta():
    st = run_point(small_scc_cfg(), 5.0)
    assert st.eta is not None
    assert st.eta >= 0.0
    pc = run_point(small_pc_cfg(), 5.0)
    assert pc.eta is None


# ------------------------------------------------------------- CSV output

def test_sweep_csv_shape_and_header():
    cfg = small_pc_cfg(snr_points=(5.0, 6.0))
    rows = list(csv.reader(io.StringIO(sweep_csv(cfg))))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "pc"
        assert row[3] == "exact"
        assert row[CSV_COLUMNS.index("eta")] == ""
        assert row[CSV_COLUMNS.index("wall_seconds")] == "0"


def test_sweep_csv_byte_identical():
    cfg = small_pc_cfg(snr_points=(5.0, 6.0))
    assert sweep_csv(cfg) == sweep_csv(cfg)


def test_sweep_csv_worker_invariant():
    text1 = sweep_csv(small_pc_cfg())
    text3 = sweep_csv(small_pc_cfg(workers=3))
    assert text1 == text3


def test_scc_sweep_eta_column_populated():
    rows = list(csv.reader(io.StringIO(sweep_csv(small_scc_cfg()))))
    val = rows[1][CSV_COLUMNS.index("eta")]
    assert val != ""
    assert float(val) >= 0.0


def test_stats_row_number_formatting():
    cfg = small_pc_cfg()
    st = run_point(cfg, 5.0)
    row = stats_row(cfg, st)
    ber = row[CSV_COLUMNS.index("ber_post")]
    # six significant digits, no excess precision
    assert ber == f"{st.ber_post:.6g}"
    assert row[CSV_COLUMNS.index("snr_db")] == "5"


# ------------------------------------------------------------- mask stats

def test_analytic_non_hrb_probability_degenerate():
    assert analytic_non_hrb_probability(6.2, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert analytic_non_hrb_probability(6.2, np.inf) == pytest.approx(1.0)


def test_analytic_non_hrb_monotone_in_snr():
    p_low = analytic_non_hrb_probability(5.8, 5.0)
    p_high = analytic_non_hrb_probability(6.2, 5.0)
    assert p_low > p_high > 0.0


def test_mask_stats_matches_analytic():
    cfg = small_pc_cfg(component_m=7, decoder="sabm")
    ms = mask_stats(cfg, 6.2, num_blocks=40)
    n = cfg.sabm and 128 * 128
    p = analytic_non_hrb_probability(6.2, cfg.sabm.delta)
    assert ms.mean_non_hrb_count == pytest.approx(n * p, rel=0.05)
    assert ms.ratio == pytest.approx(p, rel=0.05)
    assert len(ms.per_block_counts) == 40
    assert ms.first_mask.shape == (128, 128)


def test_mask_stats_delta_zero_marks_nothing():
    cfg = small_pc_cfg(component_m=5, sabm=SabmParams(delta=0.0))
    ms = mask_stats(cfg, 6.2, num_blocks=5)
    assert ms.mean_non_hrb_count == 0.0


def test_render_mask():
    grid = np.array([[True, False], [False, True]])
    assert render_mask(grid) == "#.\n.#"


# -------------------------------------------------------------------- CLI

def test_cli_pc_sweep(tmp_path):
    out = tmp_path / "pc.csv"
    rc = main(["pc", "--snr", "5.0", "--component-m", "5", "--min-errors",
               "2", "--max-blocks", "8", "--seed", "3", "--no-timing",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    assert rows[1][0] == "pc"


def test_cli_scc_sweep(tmp_path):
    out = tmp_path / "scc.csv"
    rc = main(["scc", "--snr", "5.0", "--component-m", "5", "--decoder",
               "sabm", "--min-errors", "1", "--max-blocks", "4",
               "--chain-blocks", "4", "--window", "3", "--scc-iters", "2",
               "--seed", "3", "--no-timing", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][0] == "scc"
    assert rows[1][CSV_COLUMNS.index("eta")] != ""


def test_cli_config_file_with_override(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "mod": 2, "snr": [5.0], "component_m": 5, "min_errors": 2,
        "max_blocks": 8, "seed": 3, "record_timing": False,
    }))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["pc", "--config", str(cfgfile), "--out", str(out1)]) == 0
    # CLI flag overrides the file value
    assert main(["pc", "--config", str(cfgfile), "--seed", "4",
                 "--out", str(out2)]) == 0
    a, b = out1.read_text(), out2.read_text()
    assert a != b
    assert csv.DictReader(io.StringIO(a)).__next__()["seed"] == "3"
    assert csv.DictReader(io.StringIO(b)).__next__()["seed"] == "4"


def test_cli_mask(tmp_path):
    out = tmp_path / "mask.csv"
    inset = tmp_path / "inset.txt"
    rc = main(["mask", "--snr", "6.2", "--component-m", "5", "--blocks", "10",
               "--seed", "2", "--out", str(out), "--inset", str(inset)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 11  # header + one row per block
    grid = inset.read_text().strip("\n").split("\n")
    assert len(grid) == 32
    assert set("".join(grid)) <= {".", "#"}


def test_cli_rejects_bad_snr(capsys):
    assert main(["pc", "--snr", "abc"]) == 2
    assert "bad SNR" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pc", "--snr", "6", "--delta", "-1"],
    ["pc", "--snr", "6", "--md-iters", "20"],
    ["pc", "--snr", "6", "--iters", "0"],
    ["pc", "--snr", "6", "--iters", "0", "--md-iters", "0"],
    ["pc", "--snr", "6", "--mod", "8"],
    ["scc", "--snr", "7", "--mod", "8"],
    ["mask", "--snr", "6", "--mod", "8", "--blocks", "1"],
    ["scc", "--snr", "7", "--scc-iters", "0"],
    ["scc", "--snr", "7", "--chain-blocks", "0"],
    ["scc", "--snr", "7", "--component-m", "4"],
    # 6.0004 rounds to the 6.0 key of the trial RNG: one noise stream
    ["pc", "--snr", "6.0,6.0004", "--component-m", "5"],
    ["mask", "--snr", "6.0,6.0004", "--component-m", "5", "--blocks", "1"],
    # a non-finite SNR has no noise stream
    ["pc", "--snr", "nan"],
    ["scc", "--snr", "7,inf"],
    ["mask", "--snr", "6", "--blocks", "0"],
    ["mask", "--snr", "6", "--blocks", "-3"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_bad_values(argv, capsys):
    assert main(argv + ["--max-blocks", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("key, value", [("mod", "x"), ("iters", [3])],
                         ids=["mod: x", "iters: [3]"])
def test_cli_rejects_mistyped_config_value(key, value, tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({"snr": [6.0], "component_m": 5, key: value}))
    assert main(["pc", "--config", str(cfgfile), "--max-blocks", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(key) in err[0]


@pytest.mark.parametrize("llr", ["exact", "maxlog"])
@pytest.mark.parametrize("decoder", ["ibdd", "sabm"])
@pytest.mark.parametrize("mod", [2, 4, 8])
@pytest.mark.parametrize("scheme", ["pc", "scc"])
def test_cli_runs_every_advertised_config(scheme, mod, decoder, llr, capsys):
    argv = [scheme, "--mod", str(mod), "--decoder", decoder, "--llr", llr,
            "--snr", "7", "--max-blocks", "2", "--batch-size", "1", "--no-timing"]
    if scheme == "pc":
        argv += ["--component-m", "5"]
    else:
        argv += ["--component-m", "6", "--chain-blocks", "3", "--window", "3"]
    rc = main(argv)
    out, err = capsys.readouterr()
    if mod == 8:  # a block's bits are never a whole number of 8-PAM symbols
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return
    assert rc == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == CSV_COLUMNS and len(row) == len(CSV_COLUMNS)
    got = dict(zip(CSV_COLUMNS, row))
    assert [got[c] for c in ("scheme", "mod", "decoder", "llr_mode", "snr_db")] == \
        [scheme, str(mod), decoder, llr, "7"]
    assert int(got["blocks"]) >= 2 and int(got["block_errors"]) >= 0
    assert 0.0 <= float(got["ber_pre"]) <= 1.0 and 0.0 <= float(got["ber_post"]) <= 1.0
    assert float(got["bdd_calls_avg"]) > 0
    assert (got["eta"] != "") == (scheme == "scc")
    assert got["wall_seconds"] == "0"
