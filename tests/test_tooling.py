"""Names that other files look up in feclab: the benchmark's span tracer
(functions), the package's callers (its exports) and the README (modules
and command-line options)."""

import argparse
import ast
import csv
import io
import re
from pathlib import Path
from types import ModuleType

import pytest

import feclab
from feclab import cli, sim
from feclab.sim import SimConfig, StopRule

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"

# names the tracer still lists although the decoder no longer has them
# (the BDD kernel, the codeword check and the flip retries moved into
# `decode_pass`); the tracer reports them as untraced
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


def test_package_exports_what_callers_import():
    sketch = README.read_text().split("\n## Python API sketch\n")[1]
    sources = [re.search(r"```python\n(.*?)```", sketch, re.S).group(1)]
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


def test_wrapped_ibdd_decode_sees_every_batched_block(monkeypatch):
    # the tracer rebinds sim.ibdd_decode and sums the DecodeStats that ends
    # its result; stacked decoding must still pass every block through it
    decoded = sim.ibdd_decode
    seen = []

    def traced(*args, **kwargs):
        result = decoded(*args, **kwargs)
        seen.append(result[-1].bdd_calls)
        return result

    monkeypatch.setattr(sim, "ibdd_decode", traced)
    cfg = SimConfig(scheme="pc", mod=4, snr_points=(9.0,), component_m=5, batch_size=16,
                    stop=StopRule(min_word_errors=10 ** 9, max_blocks=48),
                    record_timing=False)
    out = io.StringIO()
    sim.run_sweep(cfg, out=out)
    row = dict(zip(*csv.reader(io.StringIO(out.getvalue()))))
    assert len(seen) == 3  # one stack per batch
    # the CSV keeps 6 significant digits of the average; one block missed
    # would take at least 2w = 64 of the ~14,000 calls
    assert sum(seen) == pytest.approx(float(row["bdd_calls_avg"]) * int(row["blocks"]),
                                      rel=1e-5)


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
