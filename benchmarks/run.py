"""Run one benchmark workload, check its verdicts and print its metrics.

    python3 benchmarks/run.py --workload suite-sweep --seed 1 --seconds 10 --trace 0

Workloads: suite-sweep, weyl-products, fock-states (see `workloads.py`).
One process, one thread, one client in a closed loop.  With `--trace 0` the
run measures the end-to-end metrics; with `--trace 1` it wraps the package's
public functions (see `spans.py`) and reports the per-layer metrics of one
traced pass instead.  Every metric is printed as `name value unit`; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

# One BLAS thread: the program's numpy calls are small, and on a shared
# two-core host extra BLAS threads made `fock.spectrum` up to 200x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
import speed  # noqa: E402
from quantile import harrell_davis  # noqa: E402
import workloads  # noqa: E402  (needs the thread settings above)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
# No operation starts later than this many seconds into a run, so that a run
# whose operations hit their time limit still ends within three minutes.
HARD_STOP_S = 120.0


class OpTimeout(BaseException):
    """An operation ran past its time limit (BaseException: never swallowed)."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def attempt(wl, inp, tracer=None):
    """Run one operation under its time limit; return (seconds, ok, message).

    The seconds are scaled to the reference host's speed with the mean of
    the calibration kernel's times just before and just after the operation
    (see `speed.py`).  A full collection first leaves each operation the
    same garbage collector state whatever ran before it.
    """
    span = wl.span(inp) if tracer is not None else None
    gc.collect()
    kernel_before = speed.kernel_seconds()
    signal.setitimer(signal.ITIMER_REAL, wl.op_limit_s)
    t0 = time.perf_counter()
    out, message = None, ""
    try:
        if span is None:
            out = wl.run(inp)
        else:
            with tracer.span(span, span.split(".", 1)[0]):
                out = wl.run(inp)
    except OpTimeout:
        message = f"no result within {wl.op_limit_s:g} s"
    except Exception as exc:  # a raising operation is a counted failure
        message = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - t0
    seconds = speed.scale(elapsed, (kernel_before + speed.kernel_seconds()) / 2)
    if message:
        return seconds, False, message
    try:
        ok, message = wl.check(inp, out)
    except Exception as exc:
        ok, message = False, f"verdict check raised {type(exc).__name__}: {exc}"
    return seconds, ok, message


class Tally:
    """Operations attempted and failed, and failed checks of the run itself."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.deadline = time.perf_counter() + HARD_STOP_S

    def past_deadline(self) -> bool:
        return time.perf_counter() > self.deadline

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def run_pass(self, wl, inputs, tracer=None) -> List[Tuple[object, float]]:
        """(key, seconds) of each operation of one pass, until the deadline."""
        out = []
        for inp in inputs:
            if self.past_deadline():
                self.problem(f"{wl.name}: stopped at the {HARD_STOP_S:g} s deadline")
                break
            seconds, ok, message = attempt(wl, inp, tracer)
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED {wl.name} {inp!r:.200}: {message}", file=sys.stderr)
            out.append((wl.key(inp), seconds))
        return out


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(wl, seed: int, seconds: float, tally: Tally) -> Dict[str, tuple]:
    """The end-to-end metrics of whole passes, run until `seconds` have passed.

    An operation's cost is deterministic and every pass repeats the same
    keys (suite configuration, Tier-1 triple, cutoff), so each sample is
    replaced by the median of its key's samples, and the percentiles are
    Harrell-Davis estimates (see `quantile.py`).  Without both, the median of
    suite-sweep fell in the gap between two configurations and moved with
    the noise of the gap's two edge samples.  For the same reason `sweep_s`
    is the sum of the key medians of one pass, not the median of the pass
    times: on suite-sweep that median of five sums spread 6% over ten seeds.
    """
    setup_s = measure_setup(wl.name, seed)
    samples: List[Tuple[object, float]] = []
    start = time.perf_counter()
    k = 0
    while ((k < wl.min_passes or time.perf_counter() - start < seconds)
           and not tally.past_deadline()):
        samples += tally.run_pass(wl, wl.make_pass(seed, k))
        k += 1
    by_key: Dict[object, List[float]] = {}
    for key, t in samples:
        by_key.setdefault(key, []).append(t)
    medians = {key: statistics.median(ts) for key, ts in by_key.items()}
    typical = [medians[key] for key, _ in samples]
    tail = harrell_davis(typical, wl.tail_pct / 100)
    print(f"# {len(samples)} ops ({len(by_key)} distinct) in {k} passes; op_tail_ms is "
          f"p{wl.tail_pct}, {sum(1 for t in typical if t > tail)} ops above it")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(samples) / sum(t for _, t in samples), "1/s"),
        "op_p50_ms": (harrell_davis(typical, 0.5) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "sweep_s": (sum(medians.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(wl, seed: int, seconds: float, tally: Tally) -> Dict[str, tuple]:
    """Alternate untraced and traced passes over one fixed set of operations."""
    inputs = wl.make_pass(seed, 0)[:wl.trace_ops]
    tracer = spans.Tracer()
    plain_s: List[float] = []
    traced_s: List[float] = []
    samples: List[Dict[str, float]] = []
    start = time.perf_counter()
    while ((len(samples) < 2 or time.perf_counter() - start < seconds)
           and not tally.past_deadline()):
        plain_s.append(sum(t for _, t in tally.run_pass(wl, inputs)))
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(sum(t for _, t in tally.run_pass(wl, inputs, tracer)))
        finally:
            tracer.uninstall()
        samples.append(tracer.metrics())
        for layer in wl.idle_layers:
            if tracer.layer_calls(layer):
                tally.problem(f"{wl.name}: layer {layer} made {tracer.layer_calls(layer)} "
                              "calls, but it should be idle")
    counts = [{k: v for k, v in s.items() if k.endswith(".calls")} for s in samples]
    if any(c != counts[0] for c in counts):
        tally.problem(f"{wl.name}: call counts differ between traced passes")
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    print(f"# {len(inputs)} ops per pass; {len(samples)} traced passes; "
          f"untraced pass {statistics.median(plain_s):.3f} s, traced "
          f"{statistics.median(traced_s):.3f} s, overhead {overhead:.1%}")
    out = {}
    for name, unit in spans.metric_units().items():
        if name == "trace.overhead_frac":
            out[name] = (overhead, unit)
        elif unit == "s":
            out[name] = (statistics.median(s[name] for s in samples), unit)
        else:
            out[name] = (samples[-1][name], unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=workloads.ROOT) as workdir:
        wl = workloads.make(args.workload, Path(workdir))
        measure = traced if args.trace else end_to_end
        metrics = measure(wl, args.seed, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
