"""The compiled kernel: `_passes.c` holds the plain and the marking pass,
the schedules that run them over a product block (`pc.block_pass`) and a
staircase window (`scc.window_pass`), the syndromes and marks that they
read, and a trial's work before them but for its draws, the encoders
(`encode`) and the 2-PAM channel (`send_2pam`); this module builds, loads
and binds it.

The kernel is compiled at a process's first encode, never at import: the
C compiler `COMPILER` builds the source with `FLAGS` into `CACHE`, under a
name that carries the sha256 of the source and the flags, so a changed
source gets a new file and an unchanged one is built once per checkout.
`-ffp-contract=off` keeps each float operation of the channel rounded on
its own, as numpy rounds it, on every host. The build writes a temp file
and renames it into place, so processes that build at once leave one
whole file. Without a working compiler the first encode raises
`ConfigError` naming the command. The library is held by a cached
function, so loading it rebinds no name of this package.

A `Passes` binds the arrays that a block's or a chain's passes
read and write, once, into the C state: the bits, which it decodes in
place, the packed syndrome of every word of a layout over them, the
layout's rows and the code's tables (in a state built once per code and
layout, which it copies), the marks of the words that a marking pass
decodes, and the `DecodeStats` counters. `encode` runs on a copy of the
same cached state, whose tables include the code's parity patterns by
byte. `mark_words` builds marks from LLR grids, and `count` checks the
counts that reach the kernel. A code whose table values would make the
kernel index past an array is refused before its state is built, as
`pc.Layout` refuses such a layout.
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
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# the most iterations a decode runs: the kernel reads a count as an int64,
# and ctypes wraps a larger Python int without a word
MAX_ITERS = 2**63 - 1
_PTR, _I64 = ctypes.c_void_p, ctypes.c_int64
# the kernel's functions and their argument types, a state and int64s but
# for `marks` and `send_2pam`; each returns -1 for arguments that it does
# not hold
FUNCTIONS = {"plain_pass": [_PTR, _I64], "sabm_pass": [_PTR] + [_I64] * 4,
             "block": [_PTR] + [_I64] * 3, "window": [_PTR] + [_I64] * 4,
             "syndromes": [_PTR], "encode": [_PTR, _I64],
             "marks": [_PTR] * 3 + [_I64] * 6 + [ctypes.c_double],
             "send_2pam": [_PTR] * 3 + [_I64, ctypes.c_double]}


class State(ctypes.Structure):
    """The C state of `_passes.c`: pointers, then int64 scalars."""
    _fields_ = ([(name, ctypes.c_void_p) for name in
                 ("syn", "bits", "base", "stride", "cross", "shift", "flip", "flip8", "par",
                  "par8", "epos", "cand", "hrb")]
                + [(name, ctypes.c_int64) for name in
                   ("groups", "slots", "w", "n", "axes", "ncand", "attempts", "d0", "k",
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


def _by_byte(patterns: np.ndarray) -> np.ndarray:
    """Per 8 positions, the XOR of their patterns under each byte: entry b
    of chunk c XORs the patterns of positions 8c + j, j a set bit of b."""
    return np.bitwise_xor.reduce(patterns.reshape(-1, 1, 8)
                                 * (np.arange(256)[:, None] >> np.arange(8) & 1), axis=-1)


@lru_cache(maxsize=64)
def _bound(code, layout) -> tuple:
    """The C state of `code` over `layout`, every table pointer and size
    set but no syndromes or bits, and the tables it points into, for the
    last 64 pairs; a code and a layout hash by identity."""
    n, k = code.n, code.k
    flip = c_array(code.flip_syndrome, np.int64, (n,), "flip_syndrome")
    # a row per packed syndrome, 2^(2m+1) = 2 n^2 of them, so that the XOR
    # of flip syndromes in range is a row too
    epos = c_array(code.error_positions, np.int16, (2 * n * n, 2), "error_positions")
    if not (((0 <= flip) & (flip < len(epos))).all() and (epos < n).all()):
        raise ValueError(f"flip_syndrome must lie in [0, {len(epos)}) and "
                         f"error_positions below {n}")
    par = np.zeros(-(-k // 8) * 8, dtype=np.int64)  # 0 past the message
    par[:k] = c_array(code.parity, np.int64, (k,), "parity")
    tables = (layout.base, layout.stride, layout.cross, layout.shift, flip, _by_byte(flip),
              par, _by_byte(par), epos)
    state = State(None, None, *(a.ctypes.data for a in tables), groups=layout.groups,
                  slots=layout.slots, w=layout.w, n=n, ncand=code.d0 - 2, d0=code.d0, k=k)
    return state, tables


def _check_bits(code, layout, bits) -> None:
    """ValueError unless the kernel may write `bits` in place through
    `layout`, whose words must have code.n positions."""
    if not (isinstance(bits, np.ndarray) and bits.dtype == np.uint8
            and bits.flags.c_contiguous and bits.flags.writeable):
        raise ValueError("bits must be a writeable C-contiguous uint8 array, "
                         "as the kernel writes them in place")
    if layout.base.shape[1] != code.n or bits.size < layout.size:
        raise ValueError(f"the layout's {layout.base.shape[1]}-bit words span {layout.size} "
                         f"bits, not these {bits.size} bits of {code.n}-bit words")


def encode(code, layout, bits: np.ndarray) -> None:
    """Systematically encode, in place, every word of the groups that
    `layout` decodes, group by group: positions k..n-1 of each get the
    parity of its positions 0..k-1 (a byte's low bit), so a later group
    reads an earlier one's parity. See `encode` in `_passes.c`."""
    _check_bits(code, layout, bits)
    template, _tables = _bound(code, layout)  # held through the call
    state = State.from_buffer_copy(template)
    state.bits = bits.ctypes.data
    if library()["encode"](ctypes.addressof(state), layout.groups) < 0:
        raise ValueError(f"cannot encode {code.n}-bit words of {code.k} message bits "
                         f"in groups of {layout.w} words")


def send_2pam(bits: np.ndarray, noise: np.ndarray, hard: np.ndarray, s: float) -> np.ndarray:
    """Send `bits` over 2-PAM with amplitude s and AWGN `noise`, in one
    kernel call: noise becomes the LLRs in place, and `hard` the hard
    decisions. All three are C-contiguous arrays of one size, noise
    float64, the others uint8. Returns noise. See `send_2pam` in
    `_passes.c`."""
    if not (bits.dtype == hard.dtype == np.uint8 and noise.dtype == np.float64
            and bits.size == noise.size == hard.size
            and all(a.flags.c_contiguous for a in (bits, noise, hard))
            and noise.flags.writeable and hard.flags.writeable):
        raise ValueError("bits, noise and hard must be C-contiguous arrays of one size, "
                         "uint8, writeable float64 and writeable uint8")
    library()["send_2pam"](bits.ctypes.data, noise.ctypes.data, hard.ctypes.data, bits.size, s)
    return noise


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
    far. `lib` holds the kernel's functions by name, each called with `ref`
    and the int64 arguments of `FUNCTIONS`: the schedules `block(ref, rows,
    marking, iters)` (see `pc.block_pass`) and `window(ref, first, newest,
    ell, marking)` (`scc.window_pass`), and the passes they run,
    `plain_pass(ref, group)` and `sabm_pass(ref, group, axis, lo, hi)`."""

    def __init__(self, code, layout, bits: np.ndarray):
        _check_bits(code, layout, bits)
        self.bits = bits
        self.syn = np.empty(layout.slots, dtype=np.int64)
        self.lib = library()
        template, self._tables = _bound(code, layout)  # held as long as the copy
        self.state = State.from_buffer_copy(template)
        self.state.syn, self.state.bits = self.syn.ctypes.data, bits.ctypes.data
        self.ref = ctypes.addressof(self.state)
        self.lib["syndromes"](self.ref)

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
