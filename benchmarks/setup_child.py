"""One set-up measurement: import the package and build a workload's first pass.

    python3 benchmarks/setup_child.py <workload> <seed>

Prints the seconds from just before the imports to just after the inputs of
pass 0 exist, scaled to the reference host's speed (see `speed.py`).
`run.py` starts this several times and reports the median as `setup_s`,
because an interpreter can import a package only once.
"""

import statistics
import sys
import time

import speed


def main() -> None:
    kernel_s = statistics.median(speed.kernel_seconds() for _ in range(3))
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(sys.argv[1], workloads.ROOT)
    wl.make_pass(int(sys.argv[2]), 0)
    print(repr(speed.scale(time.perf_counter() - t0, kernel_s)))


if __name__ == "__main__":
    main()
