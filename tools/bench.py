"""Write the benchmark record of this tree as BENCH_<n>.json, or compare two records.

    python tools/bench.py                 # measure, write BENCH_<n>.json at the repo root
    python tools/bench.py --compare A B   # one ratio B/A per entry, each outside its bound marked

A record holds the git sha, Python, numpy and the machine; the line count of
`src/`; the walls of `cgalgebra all` as a subprocess and their median; and, for each
workload of BENCHMARK.json, the median over seeds 1 and 2 of each end-to-end
metric of `benchmarks/run.py --trace 0`, each run `run_seconds` long.  `src/`
is compiled first (`compileall`), so that no run pays for compiling it, and
the record says so.  n is one more than the largest n of a BENCH file at the
root, 1 if there is none.

`--compare` reads the bounds from this tree's BENCHMARK.json.  A ratio of an
end-to-end metric is marked `outside` where it moves past its bound, `worse`
or `better` by the metric's direction; a workload with more failed operations
is marked too.  Where both records hold the walls of `all`, its median is marked
`unresolved` when the two medians differ by less than the larger interquartile
range of the two lists.  The exit status is 1 when anything is worse past its bound.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ALL_REPEATS = 7


def _env() -> dict:
    """The environment of every child: the tree's `src/` first, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _git(*args: str):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _all_walls() -> list:
    """Wall seconds of each run of `python -m cgalgebra all` as a subprocess."""
    walls = []
    for _ in range(ALL_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cgalgebra", "all"], cwd=ROOT, env=_env(),
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"cgalgebra all exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return walls


def _workload(name: str, seconds: float) -> dict:
    """One `benchmarks/run.py` run per seed; the median of each end-to-end metric."""
    runs = []
    for seed in SEEDS:
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, env=_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
                     "failed": out["failed"], "metrics": {k: v["value"] for k, v in out["metrics"].items()}})
    names = runs[0]["metrics"]
    return {"metrics": {k: statistics.median(r["metrics"][k] for r in runs) for k in names},
            "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
            "runs": runs}


def measure() -> Path:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT, check=True)
    import numpy

    walls = _all_walls()
    record = {
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": {"platform": platform.platform(), "arch": platform.machine(), "cpus": os.cpu_count()},
        "compiled_src_first": True,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "cgalgebra").glob("*.py"))),
        "all_wall_s": statistics.median(walls),
        "all_walls_s": walls,
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {w["name"]: _workload(w["name"], spec["run_seconds"]) for w in spec["workloads"]},
    }
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    path = ROOT / f"BENCH_{max(taken, default=0) + 1}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def _iqr(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(a_path: str, b_path: str) -> int:
    """Print one line per entry: its two values, the ratio B/A, and a mark past its bound."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse = 0

    def line(label: str, x: float, y: float, mark: str = "") -> None:
        ratio = y / x if x else float("inf") if y else 1.0
        print(f"{label:<28} {x:>12.6g} {y:>12.6g}  ratio {ratio:7.4f}  {mark}".rstrip())

    print(f"A {a_path}: sha {a.get('sha')}\nB {b_path}: sha {b.get('sha')}")
    line("src_lines", a["src_lines"], b["src_lines"])
    mark = ""
    if "all_walls_s" in a and "all_walls_s" in b:
        spread = max(_iqr(a["all_walls_s"]), _iqr(b["all_walls_s"]))
        if abs(b["all_wall_s"] - a["all_wall_s"]) < spread:
            mark = f"unresolved, inside the interquartile range {spread:.3g}"
    line("all_wall_s", a["all_wall_s"], b["all_wall_s"], mark)
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, x in wa["metrics"].items():
            y, bound = wb["metrics"][metric], bounds.get(metric)
            mark = ""
            if bound is not None and x:
                change = (y / x - 1) * (1 if bound["better"] == "lower" else -1)
                if abs(change) > bound["bound"]:
                    mark = f"outside ±{bound['bound']:g}, {'worse' if change > 0 else 'better'}"
                    worse += change > 0
            line(f"{name} {metric}", x, y, mark)
        if wb["failed"] > wa["failed"]:
            print(f"{name} failed operations {wa['failed']} -> {wb['failed']}  outside, worse")
            worse += 1
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(measure())
        return 0
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
