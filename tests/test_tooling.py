"""Names that other files look up in feclab: the benchmark's span tracer
(functions), the package's callers (its exports) and the README (modules
and command-line options)."""

import argparse
import ast
import csv
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import pytest

import feclab
from feclab import cli, pc, sim
from feclab.pc import SabmParams
from feclab.sim import SccRunParams, SimConfig, StopRule

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"
SCRIPTS = ROOT / "scripts"

# names the tracer still lists although feclab no longer has them (the BDD
# kernel, the codeword check, the flip retries and 4-PAM's modulate,
# interleave and demap moved into the compiled kernel); the tracer reports
# them as untraced
GONE = {(module, attr) for module in ("pc", "scc")
        for attr in ("bdd_propose_block", "is_codeword", "bit_flip_recover")}
GONE |= {("sim", "modulate"), ("sim", "demap_llr"), ("sim", "interleave")}


def traced_names():
    """The (module, attr) keys of spans.TRACED, read from the source."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return {ast.literal_eval(key) for key in node.value.keys}
    raise AssertionError("spans.py has no TRACED table")


def test_traced_names_resolve_in_feclab():
    traced = traced_names()
    assert GONE <= traced
    missing = {(module, attr) for module, attr in traced
               if not hasattr(getattr(feclab, module), attr)}
    assert missing == GONE


def names_read_from_feclab(source: str) -> set[str]:
    """The names `source` imports from the top-level feclab package or
    reads as feclab.X."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "feclab" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "feclab"):
            names.add(node.attr)
    return names


def readme_sketch() -> str:
    """The code of README's Python API sketch."""
    sketch = README.read_text().split("\n## Python API sketch\n")[1]
    return re.search(r"```python\n(.*?)```", sketch, re.S).group(1)


def test_package_exports_what_callers_import():
    sources = [readme_sketch()]
    sources += [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    used = set().union(*map(names_read_from_feclab, sources))
    assert {"PcCode", "SimConfig", "sim"} <= used  # the sketch and the benchmark are read
    missing = {name for name in used if not hasattr(feclab, name)}
    assert missing == set()
    # a submodule (feclab.sim) or a dunder (feclab.__file__) is no export
    exports = {name for name, value in vars(feclab).items()
               if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exports - used - {"ConfigError"} == set()
    assert len(exports) == 12 and "ConfigError" in exports


def names_read_from_submodules(source: str) -> set[tuple[str, str]]:
    """The (submodule, name) pairs `source` imports as `from feclab.X
    import name` or reads as feclab.X.name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and not node.level
                and (node.module or "").startswith("feclab.")):
            names.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "feclab"):
            names.add((f"feclab.{node.value.attr}", node.attr))
    return names


def test_scripts_and_benchmark_submodule_imports_resolve():
    # a renamed or removed name shows here as a name, not only as a failed
    # run: test_every_experiment_runs_at_a_tiny_size runs the script, the
    # benchmark's tests run only parts of perfbench/
    sources = [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    used = set().union(*map(names_read_from_submodules, sources))
    assert {("feclab.sim", "SccRunParams"), ("feclab.pc", "SabmParams"),
            ("feclab.sim", "awgn_transmit")} <= used  # both forms are read
    missing = {(module, name) for module, name in used
               if not hasattr(importlib.import_module(module), name)}
    assert missing == set()


def names_read(source: str) -> set[str]:
    """Every name `source` reads: loaded names, attributes and the names
    of its from-imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public function, class or constant of a feclab module is read by the
    # package itself, README's API sketch, the benchmark or the scripts;
    # what only tests read belongs in the tests (tests/reference.py)
    modules = sorted((ROOT / "src" / "feclab").glob("*.py"))
    sources = [readme_sketch()] + [p.read_text() for p in modules]
    sources += [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    used = set().union(*map(names_read, sources))
    public = set()
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.add((path.stem, node.name))
            elif isinstance(node, ast.Assign):
                public.update((path.stem, t.id) for t in node.targets if isinstance(t, ast.Name))
    public = {(module, name) for module, name in public if not name.startswith("_")}
    assert ("pc", "block_pass") in public and ("bch", "PRIMITIVE_POLYS") in public
    assert {(module, name) for module, name in public if name not in used} == set()


def test_readme_sketch_runs():
    # the sketch as written, so that a signature change shows here too
    names = {}
    exec(compile(readme_sketch(), str(README), "exec"), names)
    decoded, stats = names["decoded"], names["stats"]
    assert decoded.shape == names["block"].shape and stats.bdd_calls > 0


def test_setup_probe_runs_on_this_checkout():
    # the benchmark times set-up with this probe in a fresh interpreter, on
    # the sources of the checkout under test
    src = ROOT / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe_setup.py"), "4", "1"],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    (line,) = run.stdout.splitlines()
    record = json.loads(line)
    assert Path(record["feclab_file"]).resolve() == (src / "feclab" / "__init__.py").resolve()
    assert record["setup_s"] > 0


def wrap(monkeypatch, module, name):
    """Rebind module.name, as the tracer does, to a wrapper that lists the
    result of every call."""
    fn = getattr(module, name)
    seen = []

    def traced(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, traced)
    return seen


def sweep_row(cfg):
    out = io.StringIO()
    sim.run_sweep(cfg, out=out)
    return dict(zip(*csv.reader(io.StringIO(out.getvalue()))))


def assert_calls_sum_to_the_csv(seen, row):
    # the tracer sums the DecodeStats that ends a decoder's result. The
    # CSV keeps 6 significant digits of the average; one trial missed would
    # take at least w BDD calls per pass, far more than that rounding
    assert sum(r[-1].bdd_calls for r in seen) == pytest.approx(
        float(row["bdd_calls_avg"]) * int(row["blocks"]), rel=1e-5)


def test_wrapped_ibdd_decode_sees_every_batched_block(monkeypatch):
    # every trial's block passes through sim.ibdd_decode, one call each
    seen = wrap(monkeypatch, sim, "ibdd_decode")
    row = sweep_row(SimConfig(scheme="pc", mod=4, snr_points=(9.0,), component_m=5,
                              batch_size=16, stop=StopRule(min_word_errors=10 ** 9, max_blocks=48),
                              record_timing=False))
    assert len(seen) == 48
    assert_calls_sum_to_the_csv(seen, row)


def test_wrapped_mark_bits_sees_every_sabm_block(monkeypatch):
    # pc.sabm_decode looks pc.mark_bits up at call time, once per block
    seen = wrap(monkeypatch, pc, "mark_bits")
    row = sweep_row(SimConfig(scheme="pc", snr_points=(5.0,), decoder="sabm", component_m=5,
                              batch_size=8, stop=StopRule(min_word_errors=10 ** 9, max_blocks=24),
                              record_timing=False))
    assert len(seen) == int(row["blocks"]) == 24


def test_wrapped_decode_chain_sees_every_chain(monkeypatch):
    seen = wrap(monkeypatch, sim, "decode_chain")
    row = sweep_row(SimConfig(scheme="scc", snr_points=(5.0,), decoder="sabm", component_m=5,
                              scc=SccRunParams(chain_blocks=3), batch_size=4,
                              stop=StopRule(min_word_errors=10 ** 9, max_blocks=24),
                              record_timing=False))
    assert len(seen) == 8 and int(row["blocks"]) == 8 * 3  # one call per chain
    assert_calls_sum_to_the_csv(seen, row)


def test_readme_layout_names_every_module():
    layout = README.read_text().split("\n## Layout\n")[1].split("\n## ")[0]
    named = re.findall(r"^- `src/feclab/(\w+\.py)`", layout, re.M)
    modules = {p.name for p in (ROOT / "src" / "feclab").glob("*.py")}
    assert sorted(named) == sorted(modules - {"__init__.py", "errors.py"})


def test_readme_documents_every_long_option():
    readme = README.read_text()
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {opt for command in ("pc", "scc", "mask")
               for action in sub.choices[command]._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    # an option counts only as a whole word: --blocks is not --max-blocks
    missing = {opt for opt in options
               if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)}
    assert missing == set()


def readme_figure_commands() -> list[list[str]]:
    """The arguments of each `feclab` command in README's section on the
    paper's figures, in the order given."""
    section = README.read_text().split("\n## Reproducing the paper's figures\n")[1]
    section = section.split("\n## ")[0]
    return [shlex.split(line)[1:] for line in re.findall(r"^feclab .*$", section, re.M)]


def test_every_experiment_runs_at_a_tiny_size(tmp_path, monkeypatch, capsys):
    # README's commands run scripts/pc_waterfall.yaml once per decoder,
    # scripts/pc_4pam_llr.yaml once per LLR mode and the mask statistics;
    # scripts/scc_complexity.py is the one script. Each runs here at one SNR
    # point and one block or chain
    assert sorted(p.name for p in SCRIPTS.iterdir()) == [
        "pc_4pam_llr.yaml", "pc_waterfall.yaml", "scc_complexity.py"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scripts").symlink_to(SCRIPTS)
    (tmp_path / "results").mkdir()
    commands = readme_figure_commands()
    assert [argv[0] for argv in commands] == ["pc", "pc", "pc", "pc", "mask"]
    # each waterfall command builds the config of the former
    # scripts/pc_waterfall.py, which ran both decoders on this grid
    for argv, decoder in zip(commands, ("ibdd", "sabm")):
        assert cli.config_from_args(cli.build_parser().parse_args(argv)) == SimConfig(
            scheme="pc", mod=2, snr_points=tuple(round(5.4 + 0.2 * i, 1) for i in range(8)),
            decoder=decoder, sabm=SabmParams(delta=5.0, total_iters=10, md_iters=5),
            stop=StopRule(min_word_errors=100, max_blocks=3000), master_seed=1,
            out_path=f"results/pc_2pam_{decoder}.csv", record_timing=True)
    # the LLR commands differ only in the demapper, around the SNRs at which
    # the acceptance tests compare the two
    for argv, llr in zip(commands[2:4], ("exact", "maxlog")):
        assert cli.config_from_args(cli.build_parser().parse_args(argv)) == SimConfig(
            scheme="pc", mod=4, snr_points=(11.8, 12.0, 12.2, 12.4), decoder="sabm",
            llr_mode=llr, sabm=SabmParams(delta=5.0, total_iters=10, md_iters=5),
            stop=StopRule(min_word_errors=100, max_blocks=3000), master_seed=1,
            out_path=f"results/pc_4pam_{llr}.csv", record_timing=True)
    # later flags win: one point of one block, and one block a mask point
    tiny = {"pc": ["--snr", "6.0", "--max-blocks", "1", "--batch-size", "1", "--no-timing"],
            "mask": ["--blocks", "1"]}
    for argv in commands:
        assert cli.main(argv + tiny[argv[0]]) == 0
    for decoder in ("ibdd", "sabm"):
        with open(f"results/pc_2pam_{decoder}.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["decoder"], row["snr_db"], row["blocks"]) == (decoder, "6", "1")
    for llr in ("exact", "maxlog"):
        with open(f"results/pc_4pam_{llr}.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["mod"], row["llr_mode"], row["blocks"]) == ("4", llr, "1")
    mask_args = cli.build_parser().parse_args(commands[4])
    with open(mask_args.out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + len(mask_args.snr.split(","))
    with open(mask_args.inset) as fh:
        assert len(fh.read().splitlines()) == 128
    # the staircase script, its sweep cut to its first point and one chain
    spec = importlib.util.spec_from_file_location("scc_complexity", SCRIPTS / "scc_complexity.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = []

    def tiny_config(**kwargs):
        built.append(SimConfig(**kwargs))
        return replace(built[0], snr_points=built[0].snr_points[:1], batch_size=1,
                       stop=StopRule(min_word_errors=1, max_blocks=1))

    monkeypatch.setattr(script, "SimConfig", tiny_config)
    monkeypatch.setattr(sys, "argv", ["scc_complexity.py", "scc.csv"])
    capsys.readouterr()
    assert script.main() == 0
    assert (built[0].scheme, built[0].decoder, built[0].scc.chain_blocks) == ("scc", "sabm", 12)
    with open("scc.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["blocks"] == "12" and row["eta"] != ""
    assert len(capsys.readouterr().out.splitlines()) == 2  # the header line and the point's


def test_readme_mask_command_prints_the_quoted_means(tmp_path, monkeypatch, capsys):
    # README's mask command, as written (200 blocks at each of 4 SNR
    # points, ~1 s), prints per point the mean non-HRB count that README
    # quotes, in ascending SNR order
    (argv,) = [a for a in readme_figure_commands() if a[0] == "mask"]
    section = README.read_text().split("\n## Reproducing the paper's figures\n")[1]
    quoted = re.search(r"200-block means ([\d.]+), ([\d.]+), ([\d.]+)\s+and ([\d.]+)\.",
                       section).groups()
    assert quoted == ("4117.73", "3738.36", "3383.72", "3040.03")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 0
    printed = dict(re.findall(r"^snr (\S+) dB: mean non-HRB count (\S+) ",
                              capsys.readouterr().err, re.M))
    assert [printed[snr] for snr in sorted(printed, key=float)] == list(quoted)
    assert sorted(printed, key=float) == ["5.8", "6", "6.2", "6.4"]
