"""Span tracer that times feclab's layers from outside.

While installed, it rebinds the names that feclab's modules look up at call
time (for example `feclab.pc.bdd_propose_block`) to wrappers that record a
span (name, parent span, start, end) and a few counts. Nothing in feclab is
edited; leaving the context restores the original functions. Spans are kept
in memory and written out when the benchmark ends.

The root span of a rep is `run_point` (or `mask_stats`), so the table build
and config checks that `run_sweep` does before it are not in any span.

Tracing is only valid in one process: a worker forked while the wrappers are
installed would record spans that never come back. Traced reps run with
workers=1.
"""

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

import feclab

# (module, attribute) -> span name. The span name is "<layer>.<what>", where
# a layer is the feclab module the function lives in.
TRACED = {
    ("pc", "bdd_propose_block"): "bch.kernel",
    ("scc", "bdd_propose_block"): "bch.kernel",
    ("pc", "is_codeword"): "bch.codeword_check",
    ("scc", "is_codeword"): "bch.codeword_check",
    ("pc", "bit_flip_recover"): "pc.flip_recover",
    ("scc", "bit_flip_recover"): "pc.flip_recover",
    ("pc", "mark_bits"): "pc.mark_bits",
    ("sim", "pc_encode"): "pc.encode",
    ("sim", "scc_encode"): "scc.encode",
    ("sim", "modulate"): "modem.modulate",
    ("sim", "awgn_transmit"): "modem.awgn",
    ("sim", "demap_llr"): "modem.demap",
    ("sim", "interleave"): "modem.interleave",
    ("sim", "make_interleaver"): "modem.interleave",
    ("sim", "ibdd_decode"): "pc.decode",
    ("sim", "sabm_decode"): "pc.decode",
    ("sim", "decode_chain"): "scc.decode",
    ("sim", "run_point"): "sim.run",
    ("sim", "mask_stats"): "sim.run",
}
ROOT_SPAN = "sim.run"  # one rep's API call, less run_sweep's set-up


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + sorted(set(TRACED.values()) - {ROOT_SPAN})
        self._ids = {n: i for i, n in enumerate(self.names)}
        # one entry per span, in opening order; parent is a span index or -1
        self.name_ids = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self.kernel_words = 0  # rows handed to the BDD kernel
        self.decode = {"miscorrections_detected": 0, "flips_attempted": 0,
                       "flips_accepted": 0}
        self.missing = []

    def __len__(self):
        return len(self.name_ids)

    def _open(self, name_id):
        index = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        name_id = self._ids[name]

        def traced(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if name == "bch.kernel":
            self.kernel_words += len(args[1])
        elif name in ("pc.decode", "scc.decode"):
            # the DecodeStats is the last item of both decoders' results
            st = result[-1]
            for key in self.decode:
                self.decode[key] += getattr(st, key)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for (mod_name, attr), name in TRACED.items():
                mod = getattr(feclab, mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    if (mod_name, attr) not in self.missing:
                        self.missing.append((mod_name, attr))
                        print(f"perfbench: feclab.{mod_name}.{attr} not found, "
                              "not traced", file=sys.stderr)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self, first: int = 0):
        """Per span name: (calls, inclusive seconds, self seconds) over the
        spans recorded from index `first` on, none of them still open."""
        n = len(self) - first
        dur = [self.ends[first + i] - self.starts[first + i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[first + i]
            if parent >= first:
                child[parent - first] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            acc = out[self.names[self.name_ids[first + i]]]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return out

    def write(self, path):
        """Write every span to a compressed .npz: `names`, and per span
        `name_id` (index into names), `parent` (span index or -1),
        `start_s` and `end_s` (perf_counter seconds)."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_ids, dtype=np.int8),
                            parent=np.frombuffer(self.parents, dtype=np.int64),
                            start_s=np.frombuffer(self.starts, dtype=np.float64),
                            end_s=np.frombuffer(self.ends, dtype=np.float64))
