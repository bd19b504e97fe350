"""The benchmark's span tracer looks up feclab functions by name."""

import ast
from pathlib import Path

import feclab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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
