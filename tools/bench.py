"""Write the benchmark record of this tree as BENCH_<n>.json, or compare two records.

    python tools/bench.py                 # measure, write BENCH_<n>.json at the repo root
    python tools/bench.py --compare A B   # one ratio B/A per entry, each outside its bound marked
    python tools/bench.py --pairs PARENT_DIR WORKLOAD   # 10 alternated pairs of runs of two trees

A record holds the git sha, Python, numpy and the machine; the line count of
`src/`; the walls of `cgalgebra all` and of `cgalgebra critical` as subprocesses
and their medians; and, for each workload of BENCHMARK.json, the median over
seeds 1 and 2 of each end-to-end metric of `benchmarks/run.py --trace 0`, each run
`run_seconds` long.  `src/` is compiled first (`compileall`), so that no run pays
for compiling it, and the record says so.  n is one more than the largest n of a
BENCH file at the root, 1 if there is none.

`--compare` reads the bounds from this tree's BENCHMARK.json.  A ratio of an
end-to-end metric is marked `outside` where it moves past its bound, `worse`
or `better` by the metric's direction; a workload with more failed operations
is marked too.  Where both records hold the walls of a suite (`all`, `critical`),
its median is marked `unresolved` when the two medians differ by less than the
larger interquartile range of the two lists; a suite whose walls only one record
holds is left out.  The exit status is 1 when anything is worse past its bound.

`--pairs` runs WORKLOAD 10 times in the tree at PARENT_DIR and in this one,
one `benchmarks/run.py --trace 0` run each, the pair's seed 1..10, the
parent first in odd pairs and this tree first in even ones, both trees' `src/`
compiled first.  It prints, per end-to-end metric, each side's median and
quartiles, the ratio of the medians, the pairs the change wins by the metric's
direction, and whether the medians differ by more than the parent's
interquartile range; then each side's failed operations.  The exit status is 1
when a median is worse past its bound or the change fails more operations.
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
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
WALL_REPEATS = 7
WALL_SUITES = ("all", "critical")
PAIRS = 10


def _env(root: Path = ROOT) -> dict:
    """The environment of every child: the tree's `src/` first, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _git(*args: str):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _walls(suite: str) -> list:
    """Wall seconds of each run of `python -m cgalgebra SUITE` as a subprocess."""
    walls = []
    for _ in range(WALL_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cgalgebra", suite], cwd=ROOT, env=_env(),
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"cgalgebra {suite} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return walls


def _run(root: Path, name: str, seed: int, seconds: float) -> dict:
    """The JSON line of one `benchmarks/run.py --trace 0` run in the tree at ``root``."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=_env(root), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workload(name: str, seconds: float) -> dict:
    """One `benchmarks/run.py` run per seed; the median of each end-to-end metric."""
    runs = []
    for seed in SEEDS:
        out = _run(ROOT, name, seed, seconds)
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

    walls = {suite: _walls(suite) for suite in WALL_SUITES}
    record = {
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": {"platform": platform.platform(), "arch": platform.machine(), "cpus": os.cpu_count()},
        "compiled_src_first": True,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "cgalgebra").glob("*.py"))),
        **{f"{suite}_wall_s": statistics.median(walls[suite]) for suite in WALL_SUITES},
        **{f"{suite}_walls_s": walls[suite] for suite in WALL_SUITES},
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


def _ratio(x: float, y: float) -> float:
    return y / x if x else float("inf") if y else 1.0


def _bound_mark(bound: dict, x: float, y: float) -> Tuple[str, bool]:
    """(the mark of a move from x to y past the metric's bound, or "", whether it is worse)."""
    change = (y / x - 1) * (1 if bound["better"] == "lower" else -1)
    if abs(change) <= bound["bound"]:
        return "", False
    return f"outside ±{bound['bound']:g}, {'worse' if change > 0 else 'better'}", change > 0


def compare(a_path: str, b_path: str) -> int:
    """Print one line per entry: its two values, the ratio B/A, and a mark past its bound."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse = 0

    def line(label: str, x: float, y: float, mark: str = "") -> None:
        print(f"{label:<28} {x:>12.6g} {y:>12.6g}  ratio {_ratio(x, y):7.4f}  {mark}".rstrip())

    print(f"A {a_path}: sha {a.get('sha')}\nB {b_path}: sha {b.get('sha')}")
    line("src_lines", a["src_lines"], b["src_lines"])
    for suite in WALL_SUITES:
        median, walls = f"{suite}_wall_s", f"{suite}_walls_s"
        if median not in a or median not in b:
            continue
        mark = ""
        if walls in a and walls in b:
            spread = max(_iqr(a[walls]), _iqr(b[walls]))
            if abs(b[median] - a[median]) < spread:
                mark = f"unresolved, inside the interquartile range {spread:.3g}"
        line(median, a[median], b[median], mark)
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, x in wa["metrics"].items():
            y, bound = wb["metrics"][metric], bounds.get(metric)
            mark, past = _bound_mark(bound, x, y) if bound is not None and x else ("", False)
            worse += past
            line(f"{name} {metric}", x, y, mark)
        if wb["failed"] > wa["failed"]:
            print(f"{name} failed operations {wa['failed']} -> {wb['failed']}  outside, worse")
            worse += 1
    return 1 if worse else 0


def _quartiles(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:10.5g} [{q1:.5g}, {q3:.5g}]"


def pairs_summary(parent: list, change: list, end_to_end: list) -> Tuple[List[str], int]:
    """(the lines, the exit status) of ``--pairs`` over the JSON lines of the runs,
    ``parent[k]`` and ``change[k]`` the two runs of pair k."""
    lines = [f"{len(parent)} pairs; per metric: parent median [q1, q3], change median [q1, q3], "
             "ratio of the medians, pairs the change wins"]
    worse = 0
    for bound in end_to_end:
        name = bound["name"]
        a, b = ([run["metrics"][name]["value"] for run in runs] for runs in (parent, change))
        sign = 1 if bound["better"] == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        mark = "resolved" if abs(mb - ma) > _iqr(a) else "unresolved, inside the parent's interquartile range"
        past, past_worse = _bound_mark(bound, ma, mb) if ma else ("", False)
        worse += past_worse
        lines.append(f"{name:<12} {_quartiles(a)}  {_quartiles(b)}  ratio {_ratio(ma, mb):7.4f}  "
                     f"wins {wins}/{len(a)}  {'; '.join(filter(None, (mark, past)))}")
    failed, attempted = ([sum(run[key] for run in runs) for runs in (parent, change)] for key in ("failed", "attempted"))
    lines.append(f"failed operations {failed[0]}/{attempted[0]} -> {failed[1]}/{attempted[1]}"
                 + ("  worse" if failed[1] > failed[0] else ""))
    worse += failed[1] > failed[0]
    return lines, 1 if worse else 0


def pairs(parent_dir: str, workload: str) -> int:
    """Run ``PAIRS`` alternated pairs of ``workload`` in the tree at ``parent_dir`` and in this one."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    trees = (Path(parent_dir).resolve(), ROOT)
    for root in trees:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)
    runs: Tuple[list, list] = ([], [])
    for k in range(PAIRS):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(_run(trees[side], workload, k + 1, spec["run_seconds"]))
    print(f"{workload}: parent {trees[0]}, change {trees[1]}")
    lines, code = pairs_summary(*runs, spec["end_to_end"])
    print("\n".join(lines))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(measure())
        return 0
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "--pairs":
        return pairs(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
