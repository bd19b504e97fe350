"""Names that other files look up in feclab: the benchmark's span tracer
(functions), the package's callers (its exports) and the README (modules
and command-line options)."""

import argparse
import ast
import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import feclab
from feclab import cli, pc, sim
from feclab.sim import SccRunParams, SimConfig, StopRule

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"

# names the tracer still lists although the decoder no longer has them
# (the BDD kernel and the codeword check moved into the passes,
# `decode_pass` and `sabm_pass`, and the flip retries into `sabm_pass`);
# the tracer reports them as untraced
GONE = {(module, attr) for module in ("pc", "scc")
        for attr in ("bdd_propose_block", "is_codeword", "bit_flip_recover")}


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
    # no test runs the scripts, so a renamed or removed name shows here
    sources = [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    used = set().union(*map(names_read_from_submodules, sources))
    assert {("feclab.sim", "mask_stats"), ("feclab.pc", "SabmParams"),
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
    assert ("pc", "decode_pass") in public and ("bch", "PRIMITIVE_POLYS") in public
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
    # stacked decoding must still pass every block through sim.ibdd_decode
    seen = wrap(monkeypatch, sim, "ibdd_decode")
    row = sweep_row(SimConfig(scheme="pc", mod=4, snr_points=(9.0,), component_m=5,
                              batch_size=16, stop=StopRule(min_word_errors=10 ** 9, max_blocks=48),
                              record_timing=False))
    assert len(seen) == 3  # one stack per batch
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
