"""The compiled pass kernel: `_passes.c` holds the plain and the marking
pass that every decoder runs (see `pc`), and this module builds, loads and
binds it.

The kernel is compiled at a process's first decode, never at import: the
C compiler `COMPILER` builds the source with `FLAGS` into `CACHE`, under a
name that carries the sha256 of the source and the flags, so a changed
source gets a new file and an unchanged one is built once per checkout.
The build writes a temp file and renames it into place, so processes
that build at once leave one whole file. Without a working compiler the
first decode raises `ConfigError` naming the command. The library is held
by a cached function, so loading it rebinds no name of this package.

A `Passes` binds the arrays that a block's, a stack's or a chain's passes
read and write, once, into the C state: the bits, which it decodes in
place, the packed syndrome of every word of a layout over them, the
layout's rows, the code's tables, the marks of the words that a marking
pass decodes, and the `DecodeStats` counters.
"""

import ctypes
import hashlib
import os
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError

SOURCE = Path(__file__).with_name("_passes.c")
CACHE = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")
# the kernel's functions and the count of int64 arguments each takes after
# its state; each returns -1 for arguments that its state does not hold
FUNCTIONS = {"plain_pass": 1, "sabm_pass": 4, "ibdd_block": 2, "window": 4}


class State(ctypes.Structure):
    """The C state of `_passes.c`: pointers, then int64 scalars."""
    _fields_ = ([(name, ctypes.c_void_p) for name in
                 ("syn", "bits", "base", "stride", "cross", "shift", "flip", "epos", "cand", "hrb")]
                + [(name, ctypes.c_int64) for name in
                   ("groups", "w", "n", "axes", "ncand", "attempts", "d0",
                    "bdd_calls", "miscorrections", "retries", "accepted")])


def build(compiler: str, source: Path, cache: Path) -> Path:
    """The shared library compiled from `source`, built into `cache` if it
    is not there yet; ConfigError, naming the command, if that fails."""
    code = source.read_bytes()
    digest = hashlib.sha256(code + "\0".join(FLAGS).encode()).hexdigest()[:16]
    path = cache / f"{source.stem}-{digest}.so"
    if path.exists():
        return path
    command = [compiler, *FLAGS, "-o", "<temp file>", str(source)]
    tmp = None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=f".{path.stem}-", suffix=".so")
        os.close(fd)
        command[command.index("<temp file>")] = tmp
        run = subprocess.run(command, capture_output=True, text=True)
        if run.returncode:
            reason = (run.stderr.strip().splitlines() or [f"exit code {run.returncode}"])[0]
            raise ConfigError(f"cannot build the pass kernel: `{' '.join(command)}` "
                              f"failed: {reason}")
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ConfigError(f"cannot build the pass kernel: `{' '.join(command)}`: "
                          f"{exc.strerror or exc}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)
    return path


@lru_cache(maxsize=None)
def _load(compiler: str, source: Path, cache: Path) -> dict:
    """The kernel's functions by name, built and loaded once per process,
    with their argument types declared."""
    lib = ctypes.CDLL(str(build(compiler, source, cache)))
    functions = {}
    for name, scalars in FUNCTIONS.items():
        functions[name] = fn = getattr(lib, name)
        fn.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * scalars
        fn.restype = ctypes.c_int64
    return functions


def library() -> dict:
    """`_load` for this module's compiler, source and cache."""
    return _load(COMPILER, SOURCE, CACHE)


def c_array(a, dtype, shape: tuple, name: str) -> np.ndarray:
    """a as a C-contiguous array of dtype and shape, copied only if it is
    not one already; ValueError for another shape."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    return a


class Passes:
    """The C state of the passes over `bits`, a C-contiguous uint8 array
    that they decode in place, and the words of `layout` over it, for
    component code `code`: `syn` holds the packed syndrome of every word,
    as the layout builds it. `mark(marks)` binds a `pc.MarkState` that
    later marking passes read, until the next `mark`. `counts()` gives
    the DecodeStats counters summed over all passes so far. The kernel's
    functions are its attributes, each called with `ref` and the int64
    arguments of `FUNCTIONS`: `plain_pass(ref, group)`, `sabm_pass(ref,
    group, axis, lo, hi)` (see `pc`), `ibdd_block(ref, rows, iters)` and
    `window(ref, first, newest, ell, marking)`."""

    def __init__(self, code, layout, bits: np.ndarray):
        if not (isinstance(bits, np.ndarray) and bits.dtype == np.uint8
                and bits.flags.c_contiguous and bits.flags.writeable):
            raise ValueError("bits must be a writeable C-contiguous uint8 array, "
                             "as they are decoded in place")
        n = code.n
        self.bits = bits
        self.syn = np.ascontiguousarray(layout.syndromes(code, bits), dtype=np.int64)
        if (layout.base.shape[1] != n or bits.size < layout.size
                or self.syn.ndim != 1 or self.syn.size < layout.slots):
            raise ValueError(f"the layout's {n}-bit words span {layout.size} bits and "
                             f"{layout.slots} syndromes, not these {bits.size} bits "
                             f"of {layout.base.shape[1]}-bit words")
        vars(self).update(library())  # self.plain_pass, ...: the kernel's functions
        # the arrays the C state points into, kept alive with it
        self._held = [self.syn, bits, layout.base, layout.stride, layout.cross, layout.shift,
                      c_array(code.flip_syndrome, np.int64, (n,), "flip_syndrome"),
                      # a row per packed syndrome, 2^(2m+1) = 2 n^2 of them
                      c_array(code.error_positions, np.int16, (2 * n * n, 2), "error_positions")]
        self.w, self.n, self.ncand = layout.w, n, code.d0 - 2
        self.state = State(*(a.ctypes.data for a in self._held),
                           groups=len(layout.base), w=layout.w, n=n, ncand=self.ncand,
                           d0=code.d0)
        self.ref = ctypes.addressof(self.state)

    def mark(self, marks) -> None:
        """Bind marks of (axes, w, d0-2) candidates and (axes, w, n) HRB
        flags, copied if they are not C-contiguous int64 and uint8."""
        axes = len(marks.candidates)
        self._marks = (c_array(marks.candidates, np.int64, (axes, self.w, self.ncand),
                               "candidates"),
                       c_array(marks.hrb, np.uint8, (axes, self.w, self.n), "hrb"))
        self.state.cand, self.state.hrb = (a.ctypes.data for a in self._marks)
        self.state.axes, self.state.attempts = axes, marks.flip_attempts

    def counts(self) -> tuple:
        s = self.state
        return s.bdd_calls, s.miscorrections, s.retries, s.accepted
