"""The compiled kernel: `_passes.c` holds the plain and the marking pass,
the schedules that run them over a product block (`pc.block_pass`) and a
staircase window (`scc.window_pass`), and the syndromes and marks that
they read; this module builds, loads and binds it.

The kernel is compiled at a process's first decode, never at import: the
C compiler `COMPILER` builds the source with `FLAGS` into `CACHE`, under a
name that carries the sha256 of the source and the flags, so a changed
source gets a new file and an unchanged one is built once per checkout.
The build writes a temp file and renames it into place, so processes
that build at once leave one whole file. Without a working compiler the
first decode raises `ConfigError` naming the command. The library is held
by a cached function, so loading it rebinds no name of this package.

A `Passes` binds the arrays that a block's or a chain's passes
read and write, once, into the C state: the bits, which it decodes in
place, the packed syndrome of every word of a layout over them, the
layout's rows and the code's tables (in a state built once per code and
layout, which it copies), the marks of the words that a marking pass
decodes, and the `DecodeStats` counters. `mark_words` builds marks from
LLR grids, and `count` checks the counts that reach the kernel. A code
whose table values would make the kernel index past an array is refused
before its state is built, as `pc.Layout` refuses such a layout.
"""

import ctypes
import hashlib
import operator
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
# the most iterations a decode runs: the kernel reads a count as an int64,
# and ctypes wraps a larger Python int without a word
MAX_ITERS = 2**63 - 1
_PTR, _I64 = ctypes.c_void_p, ctypes.c_int64
# the kernel's functions and their argument types, a state and int64s but
# for `marks`; each returns -1 for arguments that it does not hold
FUNCTIONS = {"plain_pass": [_PTR, _I64], "sabm_pass": [_PTR] + [_I64] * 4,
             "block": [_PTR] + [_I64] * 3, "window": [_PTR] + [_I64] * 4,
             "syndromes": [_PTR], "marks": [_PTR] * 3 + [_I64] * 6 + [ctypes.c_double]}


class State(ctypes.Structure):
    """The C state of `_passes.c`: pointers, then int64 scalars."""
    _fields_ = ([(name, ctypes.c_void_p) for name in
                 ("syn", "bits", "base", "stride", "cross", "shift", "flip", "flip8", "epos",
                  "cand", "hrb")]
                + [(name, ctypes.c_int64) for name in
                   ("groups", "slots", "w", "n", "axes", "ncand", "attempts", "d0",
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
    for name, argtypes in FUNCTIONS.items():
        functions[name] = fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return functions


def library() -> dict:
    """`_load` for this module's compiler, source and cache."""
    return _load(COMPILER, SOURCE, CACHE)


def count(value, name: str, least: int, most: float = MAX_ITERS) -> int:
    """value, an integer of any type (numpy's too), as an int in [least,
    most] (math.inf: no upper bound); ConfigError, naming it, for anything
    else."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if not least <= value <= most:
        raise ConfigError(f"{name} must lie in [{least}, {most}], got {value}")
    return value


def c_array(a, dtype, shape: tuple, name: str) -> np.ndarray:
    """a as a C-contiguous array of dtype and shape, copied only if it is
    not one already; ValueError for another shape."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    return a


@lru_cache(maxsize=64)
def _bound(code, layout) -> tuple:
    """The C state of `code` over `layout`, every table pointer and size
    set but no syndromes or bits, and the tables it points into, for the
    last 64 pairs; a code and a layout hash by identity."""
    n, flip = code.n, c_array(code.flip_syndrome, np.int64, (code.n,), "flip_syndrome")
    # a row per packed syndrome, 2^(2m+1) = 2 n^2 of them, so that the XOR
    # of flip syndromes in range is a row too
    epos = c_array(code.error_positions, np.int16, (2 * n * n, 2), "error_positions")
    if not (((0 <= flip) & (flip < len(epos))).all() and (epos < n).all()):
        raise ValueError(f"flip_syndrome must lie in [0, {len(epos)}) and "
                         f"error_positions below {n}")
    tables = (layout.base, layout.stride, layout.cross, layout.shift, flip,
              # per 8 positions, the XOR of their flip syndromes under each byte
              np.bitwise_xor.reduce(flip.reshape(-1, 1, 8)
                                    * (np.arange(256)[:, None] >> np.arange(8) & 1), axis=-1),
              epos)
    state = State(None, None, *(a.ctypes.data for a in tables), groups=layout.groups,
                  slots=layout.slots, w=layout.w, n=n, ncand=code.d0 - 2, d0=code.d0)
    return state, tables


def mark_words(grids, delta: float, offset: int, ncand: int) -> tuple:
    """HRB flags, uint8 (axes, words, offset + n), and candidates, int64
    (axes, words, ncand), of the words of LLR grids of (words, n), one per
    axis, which the kernel reads through their strides (or a float64
    copy): position offset + j of word i of axis a carries grids[a][i, j].
    See `marks` in `_passes.c`."""
    grids = [np.asarray(g, dtype=np.float64) for g in grids]
    words, n = grids[0].shape
    hrb = np.empty((len(grids), words, offset + n), dtype=np.uint8)
    candidates = np.empty((len(grids), words, ncand), dtype=np.int64)
    flags_at, cand_at = hrb.ctypes.data, candidates.ctypes.data
    for axis, grid in enumerate(grids):
        if grid.shape != (words, n):
            raise ValueError(f"every grid must have shape {(words, n)}, got {grid.shape}")
        if any(st % grid.itemsize for st in grid.strides):
            grid = np.ascontiguousarray(grid)
        if library()["marks"](grid.ctypes.data, flags_at + axis * hrb.strides[0],
                              cand_at + axis * candidates.strides[0], words, n,
                              *(st // grid.itemsize for st in grid.strides), offset, ncand,
                              delta) < 0:
            raise ValueError(f"a word keeps at most 8 candidates, not {ncand}")
    return hrb, candidates


class Passes:
    """The C state of the passes over `bits`, a C-contiguous uint8 array
    that they decode in place, and the words of `layout` over it, for
    component code `code`: a copy of the pair's cached state, whose tables
    it holds, and `syn`, the packed syndrome of every word, which the
    kernel builds from the bits. `mark(marks)` binds a
    `pc.MarkState` that later marking passes read, until the next `mark`.
    `counts()` gives the DecodeStats counters summed over all passes so
    far. The kernel's functions are its attributes, each called with `ref`
    and the int64 arguments of `FUNCTIONS`: the schedules `block(ref, rows,
    marking, iters)` (see `pc.block_pass`) and `window(ref, first, newest,
    ell, marking)` (`scc.window_pass`), and the passes they run,
    `plain_pass(ref, group)` and `sabm_pass(ref, group, axis, lo, hi)`."""

    def __init__(self, code, layout, bits: np.ndarray):
        if not (isinstance(bits, np.ndarray) and bits.dtype == np.uint8
                and bits.flags.c_contiguous and bits.flags.writeable):
            raise ValueError("bits must be a writeable C-contiguous uint8 array, "
                             "as they are decoded in place")
        if layout.base.shape[1] != code.n or bits.size < layout.size:
            raise ValueError(f"the layout's {layout.base.shape[1]}-bit words span {layout.size} "
                             f"bits, not these {bits.size} bits of {code.n}-bit words")
        self.bits = bits
        self.syn = np.empty(layout.slots, dtype=np.int64)
        vars(self).update(library())  # self.plain_pass, ...: the kernel's functions
        template, self._tables = _bound(code, layout)  # held as long as the copy
        self.state = State.from_buffer_copy(template)
        self.state.syn, self.state.bits = self.syn.ctypes.data, bits.ctypes.data
        self.ref = ctypes.addressof(self.state)
        self.syndromes(self.ref)

    def mark(self, marks) -> None:
        """Bind marks of (axes, w, d0-2) candidates and (axes, w, n) HRB
        flags, copied if they are not C-contiguous int64 and uint8."""
        s, axes = self.state, len(marks.candidates)
        self._marks = (c_array(marks.candidates, np.int64, (axes, s.w, s.ncand), "candidates"),
                       c_array(marks.hrb, np.uint8, (axes, s.w, s.n), "hrb"))
        s.cand, s.hrb = (a.ctypes.data for a in self._marks)
        s.axes, s.attempts = axes, marks.flip_attempts

    def counts(self) -> tuple:
        s = self.state
        return s.bdd_calls, s.miscorrections, s.retries, s.accepted
