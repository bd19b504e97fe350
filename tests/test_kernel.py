"""The compiled kernel: its build cache and its failures, a build with
every warning an error, the syndromes and the marks that it builds, and
the arrays that reach it, which are checked once per state and copied
when they are not laid out as it reads them."""

import ctypes
import os
import re
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feclab import cli, kernel
from feclab.bch import build_code
from feclab.errors import ConfigError
from feclab.pc import (DecodeStats, Layout, MarkState, PcCode, SabmParams, block_layout,
                       block_pass, ibdd_decode, make_marks, mark_bits, pc_encode, sabm_decode)
from feclab.scc import SccCode, block_marks, chain_layout, decode_chain, scc_encode

import reference

SRC = Path(__file__).resolve().parents[1] / "src"


def test_a_missing_compiler_is_one_error_line(monkeypatch, tmp_path, capsys):
    # no cached library in tmp_path, so the first decode must build one
    monkeypatch.setattr(kernel, "COMPILER", "no-such-compiler-for-feclab")
    monkeypatch.setattr(kernel, "CACHE", tmp_path)
    argv = ["pc", "--decoder", "sabm", "--snr", "6.0", "--component-m", "5",
            "--max-blocks", "1", "--batch-size", "1", "--no-timing"]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot build the pass kernel: `no-such-compiler-for-feclab ")
    assert str(kernel.SOURCE) in line
    assert list(tmp_path.iterdir()) == []  # no temp file left


def test_a_failing_compiler_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"^cannot build the pass kernel: `false .* failed"):
        kernel.build("false", kernel.SOURCE, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_changed_source_gets_a_new_cache_name(tmp_path):
    source = tmp_path / "_passes.c"
    source.write_bytes(kernel.SOURCE.read_bytes())
    cache = tmp_path / "cache"
    first = kernel.build(kernel.COMPILER, source, cache)
    built = first.stat().st_mtime_ns
    assert kernel.build(kernel.COMPILER, source, cache) == first  # not built again
    assert first.stat().st_mtime_ns == built
    source.write_bytes(kernel.SOURCE.read_bytes() + b"/* changed */\n")
    second = kernel.build(kernel.COMPILER, source, cache)
    assert second != first and second.name.startswith("_passes-")
    assert sorted(cache.iterdir()) == sorted([first, second])
    for path in (first, second):
        assert ctypes.CDLL(str(path)).plain_pass


def test_two_processes_building_at_once_leave_one_file_that_loads(tmp_path):
    # both wait for the go file, then build into one empty cache
    go, cache = tmp_path / "go", tmp_path / "cache"
    code = f"""
import time
from pathlib import Path
from feclab import kernel
while not Path({str(go)!r}).exists():
    time.sleep(0.001)
print(kernel.build(kernel.COMPILER, kernel.SOURCE, Path({str(cache)!r})))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    time.sleep(0.5)  # both interpreters are up and waiting
    go.touch()
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    (path,) = {out.strip() for out, _ in outs}
    assert list(cache.iterdir()) == [Path(path)]
    assert ctypes.CDLL(path).sabm_pass


def test_the_kernel_builds_with_every_warning_an_error(tmp_path):
    # the kernel's flags, and warnings such as a read of an uninitialised
    # entry of a word's candidate list fail the build; then the same as
    # ISO C99, where an extension of the compiler's fails it too
    for extra in ([], ["-std=c99", "-pedantic-errors"]):
        command = [kernel.COMPILER, *kernel.FLAGS, "-Wall", "-Wextra", "-Werror", *extra,
                   "-o", str(tmp_path / "kernel.so"), str(kernel.SOURCE)]
        run = subprocess.run(command, capture_output=True, text=True)
        assert run.returncode == 0, (extra, run.stderr)


# a run of the decoder tests below whose kernel is built with AddressSanitizer
# and UBSan into the cache argv[1], on the pytest arguments that follow
SANITIZED = """
import sys
from pathlib import Path
import pytest
from feclab import kernel
kernel.FLAGS += ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
kernel.CACHE = Path(sys.argv[1])
sys.exit(pytest.main(sys.argv[2:]))
"""


def test_the_decoder_tests_pass_under_the_sanitizers(tmp_path):
    # the kernel indexes its tables with values that it reads from other
    # tables: a read or write outside an array, or undefined behaviour,
    # ends this run with an error. The build tests are left out, as they
    # build the kernel without the sanitizers
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        try:
            path = subprocess.run([kernel.COMPILER, f"-print-file-name={name}"],
                                  capture_output=True, text=True).stdout.strip()
        except OSError:
            path = ""
        if not os.path.isabs(path):  # gcc prints the bare name of a file it lacks
            pytest.skip(f"`{kernel.COMPILER}` has no {name}")
        runtimes.append(path)
    tests = Path(__file__).parent
    env = {**os.environ, "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        # fd 2 uncaptured, so that a sanitizer's report reaches run.stderr
        [sys.executable, "-c", SANITIZED, str(tmp_path), "-q", "-p", "no:cacheprovider",
         "--capture=sys",
         "-k", "not build and not cache_name and not compiler and not sanitizers",
         *(str(tests / name) for name in ("test_kernel.py", "test_pc.py", "test_scc.py"))],
        env=env, cwd=tests.parent, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, (run.stdout[-3000:], run.stderr[:3000])
    assert re.search(r"\b\d+ passed", run.stdout) and "failed" not in run.stdout
    assert [path.suffix for path in tmp_path.iterdir()] == [".so"]


def kernel_signatures(source: str) -> dict:
    """The ctypes argument types of each function that C source defines
    and does not declare static, by name, read from its definitions: a
    pointer of any kind is a c_void_p, an int64_t a c_int64 and a double a
    c_double. Every such function must return an int64_t."""
    types = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    found = {}
    for ret, name, params in re.findall(r"^(?!static)(\w[\w ]*?) *\b(\w+)\(([^)]*)\)\s*\{",
                                        source, re.M):
        assert ret == "int64_t", name
        found[name] = [ctypes.c_void_p if "*" in param else types[param.split()[-2]]
                       for param in params.split(",")]
    return found


def test_the_declared_signatures_match_the_source():
    # ctypes calls a function with the argument types it is given, and a
    # wrong count or type is undefined behaviour, not an error
    found = kernel_signatures(kernel.SOURCE.read_text())
    assert {"block", "window", "marks"} <= set(found)
    assert found == kernel.FUNCTIONS
    # what the parser reads: a definition over several lines, a pointer to
    # const, a double, and no static helper
    source = ("static int helper(int a)\n{\n}\n"
              "int64_t f(const double *x, uint8_t *y,\n          int64_t k, double d)\n{\n}\n")
    assert kernel_signatures(source) == {"f": [ctypes.c_void_p] * 2 + [ctypes.c_int64,
                                                                       ctypes.c_double]}


def state_fields(source: str) -> list:
    """The fields of the C struct `state` that source defines, in order, as
    ctypes fields: a pointer of any kind is a c_void_p, an int64_t a
    c_int64. A declaration may declare several fields, split by commas."""
    (body,) = re.findall(r"typedef struct \{(.*?)\} state;", source, re.S)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    found = []
    for declaration in filter(str.strip, body.split(";")):
        kind, declarators = re.fullmatch(r"\s*(?:const )?(\w+)(.*)", declaration, re.S).groups()
        for declarator in declarators.split(","):
            pointer = "*" in declarator
            assert pointer or kind == "int64_t", declaration
            found.append((declarator.strip(" *\n"), ctypes.c_void_p if pointer else ctypes.c_int64))
    return found


def test_the_state_fields_match_the_source():
    # ctypes lays the structure out by its own list, and a field out of
    # place reads another field's address or count, with no error
    source = kernel.SOURCE.read_text()
    assert state_fields(source) == kernel.State._fields_
    # what the parser reads: two int64 fields swapped in one declaration
    # are told apart, as is a pointer among int64s
    swapped = source.replace("int64_t w, n, axes", "int64_t n, w, axes")
    assert swapped != source and state_fields(swapped) != kernel.State._fields_
    assert state_fields("typedef struct {\n    int64_t a, *b; /* c, d */\n"
                        "    const int16_t *e;\n} state;") == [
        ("a", ctypes.c_int64), ("b", ctypes.c_void_p), ("e", ctypes.c_void_p)]


# ------------------------------------------------ what the kernel builds

@pytest.mark.parametrize("m", range(4, 9))
def test_kernel_syndromes_equal_the_reference(m):
    # stacks of 1, 3 and 16 product blocks, and chains of 2..13 blocks,
    # the scratch group, the last, included, whose positions lie 8 in a
    # row in a word or across 8 words; and rows whose positions lie in no
    # order, which the kernel reads one at a time
    code = build_code(m)
    rng = np.random.default_rng(100 + m)
    w = code.n
    for blocks in (1, 3, 16):
        bits = rng.integers(0, 2, (blocks, w, w), dtype=np.uint8)
        state = kernel.Passes(code, block_layout(w, blocks), bits)
        want = [reference.block_syndromes(code, reference.pc_words(block, g))
                for block in bits for g in (0, 1)]
        assert np.array_equal(state.syn, np.concatenate(want))
    w //= 2
    for blocks in range(2, 14):
        bits = rng.integers(0, 2, (blocks, w, w), dtype=np.uint8)
        state = kernel.Passes(code, chain_layout(w, blocks), bits)
        want = [reference.block_syndromes(code, reference.scc_words(bits, g))
                for g in range(blocks)]
        assert state.syn.size == blocks * w
        assert np.array_equal(state.syn, np.concatenate(want))
    w = code.n
    bits = rng.integers(0, 2, (w, w), dtype=np.uint8)
    order = rng.permutation(w)
    layout = Layout(w, base=[order], stride=[np.full(w, w)], cross=np.zeros((1, w)),
                    shift=np.zeros((1, w)))
    state = kernel.Passes(code, layout, bits)
    assert np.array_equal(state.syn, reference.block_syndromes(code, bits[:, order]))


def test_marks_read_any_grid_as_its_contiguous_copy(ecc32_code):
    # the kernel reads a grid through its strides, negative ones included;
    # a grid of another dtype is read as float64
    rng = np.random.default_rng(8)
    llr = rng.normal(0, 6, (32, 32))
    llr[3, :9] = -2.0  # ties
    params = SabmParams(delta=5.0)
    flipped = llr[::-1, ::-1].copy()
    for grid, same in ((np.asfortranarray(llr), llr), (flipped[::-1, ::-1], llr),
                       (np.repeat(llr, 2, axis=1)[:, ::2], llr),
                       (llr.astype(np.float32), llr.astype(np.float32).astype(np.float64))):
        for got, want in ((make_marks([grid, grid.T], params, ecc32_code),
                           make_marks([np.array(same), np.array(same.T)], params, ecc32_code)),
                          (make_marks([grid], params, ecc32_code, offset=32),
                           make_marks([np.array(same)], params, ecc32_code, offset=32))):
            assert np.array_equal(got.candidates, want.candidates)
            assert np.array_equal(got.hrb, want.hrb)
    with pytest.raises(ValueError, match="every grid must have shape"):
        make_marks([llr, llr[:, :-1]], params, ecc32_code)


# ------------------------------------------------------ arrays that reach C

def layouts(a):
    """`a` as arrays of equal values in other layouts: Fortran order, a view
    of a transposed copy and a strided view."""
    transposed = np.ascontiguousarray(np.swapaxes(a, -1, -2))
    strided = np.repeat(a, 2, axis=-1)[..., ::2]
    return [np.asfortranarray(a), np.swapaxes(transposed, -1, -2), strided]


def bit_layouts(bits):
    """`layouts` of uint8 bits, and the bits as int64."""
    return layouts(bits) + [bits.astype(np.int64)]


def test_pc_decoders_decode_any_layout_as_its_contiguous_copy(pc_component_code):
    code = PcCode(pc_component_code)
    rng = np.random.default_rng(5)
    params = SabmParams()
    for snr_db in (5.5, 6.0):
        block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
        llr = (1 - 2.0 * block) * 10 ** (snr_db / 20) * 2 + 2 * rng.normal(size=block.shape)
        hard = (llr < 0).astype(np.uint8)
        want, want_stats = sabm_decode(code, hard, llr, params)
        iwant, iwant_stats = ibdd_decode(code, hard, 10)
        for got_hard, got_llr in zip(bit_layouts(hard), layouts(llr) + [llr]):
            out, stats = sabm_decode(code, got_hard, got_llr, params)
            assert np.array_equal(out, want) and stats == want_stats
            out, stats = ibdd_decode(code, got_hard, 10)
            assert np.array_equal(out, iwant) and stats == iwant_stats
        assert want_stats.flips_attempted > 0


@pytest.mark.parametrize("marking", [0, 4])
def test_the_blocks_of_a_stack_layout_decode_on_their_own(marking):
    # block_pass on rows 2b of one state over a stack decodes block b as a
    # state of that block alone does, with the block's own marks bound for
    # SABM, and leaves the blocks after it as they were. The heavy block
    # runs every iteration, the clean one stops after one, and the light
    # ones, which decode to the sent blocks, stop in between
    code = PcCode(build_code(6))
    params = SabmParams(total_iters=8, md_iters=marking)
    rng = np.random.default_rng(5)
    rates = [0.06, 0.0, 0.02, 0.004]
    sent = np.array([pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
                     for _ in rates])
    hard = sent ^ (rng.random(sent.shape) < np.array(rates)[:, None, None]).astype(np.uint8)
    llr = np.where(hard == 0, 1.0, -1.0) * rng.choice([0.5, 2.0, 8.0], size=hard.shape)
    state = kernel.Passes(code.component, block_layout(code.w, len(rates)), hard.copy())
    calls = []
    for b in range(len(rates)):
        soft = (llr[b], params) if marking else ()
        want, want_stats = reference.pc_decode(code, hard[b], params.total_iters, *soft)
        before = np.array(state.counts())
        if marking:
            state.mark(mark_bits(llr[b], params, code))
        block_pass(state, 2 * b, marking, params.total_iters)
        assert np.array_equal(state.bits[b], want) and np.array_equal(state.bits[b + 1:],
                                                                       hard[b + 1:])
        assert DecodeStats(*(np.array(state.counts()) - before).tolist()) == want_stats
        calls.append(want_stats.bdd_calls)
    assert all(np.array_equal(state.bits[b], sent[b]) for b in (1, 2, 3))
    assert calls[1] == 2 * code.w < min(calls[2:])
    assert max(calls[2:]) < 8 * 2 * code.w <= calls[0]


def test_decode_chain_decodes_any_layout_as_its_contiguous_copy(ecc32_code):
    code = SccCode(ecc32_code)
    rng = np.random.default_rng(6)
    info = rng.integers(0, 2, (6, code.w, code.info_cols), dtype=np.uint8)
    sent = scc_encode(code, info)
    llr = (1 - 2.0 * sent) * 1.5 + rng.normal(size=sent.shape)
    hard = (llr < 0).astype(np.uint8)
    params = SabmParams()
    marks = [block_marks(code, grid, params) for grid in llr]
    want = [decode_chain(code, hard, m, params, window=3, ell=3) for m in (None, marks)]
    assert want[1][1].flips_attempted > 0
    # marks whose arrays are in Fortran order, or another dtype, are copied
    # once as the state binds them
    other = [MarkState(np.asfortranarray(m.candidates).astype(np.int32), m.flip_attempts,
                       np.asfortranarray(m.hrb).astype(bool)) for m in marks]
    for received in bit_layouts(hard):
        for m, (wout, wstats) in zip((None, other), want):
            out, stats = decode_chain(code, received, m, params, window=3, ell=3)
            assert np.array_equal(out, wout) and stats == wstats


def test_a_state_outlives_its_cached_pair(ecc32_code):
    # the cache keeps 64 (code, layout) pairs; a state made before its
    # pair is evicted still reads the tables it was made with, those of a
    # layout that nothing else holds included, and a new state for the
    # pair gets them built again
    code, params = PcCode(ecc32_code), SabmParams()
    w = code.w
    rng = np.random.default_rng(9)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    llr = (1 - 2.0 * block) * 1.5 + rng.normal(size=block.shape)
    hard = (llr < 0).astype(np.uint8)
    want, want_stats = reference.pc_decode(code, hard, params.total_iters, llr, params)
    assert want_stats.flips_attempted > 0
    rows = block_layout(w, 1)
    layout = Layout(w, *(a.copy() for a in (rows.base, rows.stride, rows.cross, rows.shift)))
    first, evicted = kernel.Passes(code.component, layout, hard.copy()), weakref.ref(layout)
    del layout
    for blocks in range(2, 67):
        kernel.Passes(code.component, block_layout(w, blocks),
                      np.zeros((blocks, w, w), dtype=np.uint8))
    assert evicted() is None
    again = kernel.Passes(code.component, block_layout(w, 1), hard.copy())
    for state in (first, again):
        state.mark(mark_bits(llr, params, code))
        block_pass(state, 0, params.md_iters, params.total_iters)
        assert np.array_equal(state.bits, want)
        assert DecodeStats(*state.counts()) == want_stats


def test_marks_of_another_shape_are_refused(ecc32_code):
    code = PcCode(ecc32_code)
    w = code.w
    hard = np.zeros((w, w), dtype=np.uint8)
    state = kernel.Passes(code.component, block_layout(w, 1), hard)
    marks = mark_bits(np.ones((w, w)), SabmParams(), code)
    for bad in (MarkState(marks.candidates[..., :3], 1, marks.hrb),
                MarkState(marks.candidates, 1, marks.hrb[..., :-1]),
                MarkState(marks.candidates[:, :-1], 1, marks.hrb[:, :-1])):
        with pytest.raises(ValueError, match="must have shape"):
            state.mark(bad)


class KernelCalled(Exception):
    pass


def test_a_bad_layout_or_code_is_refused_before_any_kernel_call(ecc32_code, monkeypatch):
    # the kernel indexes the bits, the flip syndromes and the BDD table
    # with the values of these tables unchecked, so a layout that places a
    # bit below bit 0 or a crossing position outside its word, or a code
    # whose flip syndromes lie outside its BDD table or whose table names a
    # position past the word, is a ValueError before any kernel function runs
    def called(*args):
        raise KernelCalled

    monkeypatch.setattr(kernel, "library", lambda: dict.fromkeys(kernel.FUNCTIONS, called))
    w = ecc32_code.n
    rows = block_layout(w, 1)
    good = dict(base=rows.base, stride=rows.stride, cross=rows.cross, shift=rows.shift)
    bits = np.zeros((w, w), dtype=np.uint8)
    with pytest.raises(KernelCalled):
        kernel.Passes(ecc32_code, Layout(w, **good), bits)
    for name, at, value in (("base", (0, 3), -1), ("stride", (0, 0), -1),
                            ("stride", (1, 5), -w * w), ("shift", (1, 2), -1),
                            ("shift", (0, 0), 1), ("cross", (1, 0), 2 * w)):
        table = good[name].copy()
        table[at] = value
        with pytest.raises(ValueError, match="a layout"):
            Layout(w, **{**good, name: table})
    with pytest.raises(ValueError, match="one \\(groups, n\\) shape"):
        Layout(w, **{**good, "shift": good["shift"][:, :-1]})
    for groups in (1.5, -1, 3):
        with pytest.raises(ValueError, match="groups must"):
            Layout(w, **good, groups=groups)
    # read backwards, the rows span every bit that they read
    j = np.arange(w)
    assert Layout(w, base=[(w - 1) * w + j], stride=[np.full(w, -w)], cross=[j],
                  shift=[np.zeros(w)]).size == w * w
    flip, epos = ecc32_code.flip_syndrome, ecc32_code.error_positions
    for table, at, value in ((flip, 4, len(epos)), (flip, 0, -1), (epos, (9, 1), w)):
        bad = table.copy()
        bad[at] = value
        name = "flip_syndrome" if table is flip else "error_positions"
        code = replace(ecc32_code, **{name: bad})
        with pytest.raises(ValueError, match="flip_syndrome must lie in"):
            kernel.Passes(code, rows, bits)
