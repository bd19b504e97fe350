"""Names that other files look up in feclab: the benchmark's span tracer
(functions) and the README (modules and command-line options)."""

import argparse
import ast
import re
from pathlib import Path

import feclab
from feclab import cli

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
