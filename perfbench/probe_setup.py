"""Time the set-up of one fresh interpreter: `import feclab`, the GF/BCH
table build and, with more than one worker, the start of a process pool
whose workers each build the tables too, as run_sweep's do. This is the
point where the first trial could start. Prints one JSON line.

The speed of a shared host's cores drifts, and a probe lands on either core,
so the probe also times a fixed pure-Python loop just before and after the
set-up, on the same core; run.py scales the set-up times by it.

Usage: python3 probe_setup.py <component m> <workers>
(with the feclab sources on PYTHONPATH)
"""

import sys
import time


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - t0


def _worker_init(m, ready):
    import feclab
    feclab.build_code(m, 2, extended=True)
    ready.wait()  # no task runs before every worker has its tables


def main() -> int:
    m, workers = int(sys.argv[1]), int(sys.argv[2])
    loop_before = _loop_seconds()
    t0 = time.perf_counter()
    import feclab
    t1 = time.perf_counter()
    feclab.build_code(m, 2, extended=True)
    t2 = time.perf_counter()
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ready = multiprocessing.Barrier(workers)
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(m, ready)) as pool:
            pool.submit(int).result()
            t3 = time.perf_counter()
    else:
        t3 = t2
    loop_s = (loop_before + _loop_seconds()) / 2
    import json
    print(json.dumps({"import_s": t1 - t0, "build_code_s": t2 - t1,
                      "pool_start_s": t3 - t2, "setup_s": t3 - t0,
                      "loop_s": loop_s, "feclab_file": feclab.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
