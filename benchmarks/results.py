"""Collect result sets of many runs, and compare two result sets.

    python3 benchmarks/results.py collect --out base.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0]
    python3 benchmarks/results.py compare base.jsonl new.jsonl
    python3 benchmarks/results.py baseline base.jsonl again.jsonl traced.jsonl

`collect` runs `run.py` once per workload and seed, appends each result to a
JSON-lines file, and prints every end-to-end metric's median, quartiles and
spread (the quartile distance over the median) against its bound from
`BENCHMARK.json`.  `compare` shows two result sets side by side per
workload.  A metric whose spread exceeds its bound in either set is
"unresolved", unless every run of the new set reads better than every run
of the base set.  `baseline` writes `baseline.json` from two end-to-end
result sets and a traced one (two runs per workload, to show that call
counts repeat), taking the workloads' parameters from `workloads.py`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def read_results(path: Path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """{(workload, trace): {metric: [value per run]}} from a JSON-lines file."""
    out: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        per = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        for name in names:
            for seed in _seeds(args.seeds):
                cmd = spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                         str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = ok and result["correct"]
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                     "result": result}) + "\n")
                fh.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    if args.trace == 0:
        report_spreads(read_results(Path(args.out)), spec)
    return 0 if ok else 1


def report_spreads(results, spec) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'runs':>4} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for (name, trace), metrics in sorted(results.items()):
        if trace:
            continue
        for metric, bound in bounds.items():
            values = metrics.get(metric, [])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "" if s < bound / 3 else (" wide" if s <= bound else " OVER")
            print(f"{name:14} {metric:12} {len(values):4d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{s:7.3f} {bound:6.2f}{flag}")


def compare(args) -> int:
    spec = load_spec()
    base, new = read_results(Path(args.base)), read_results(Path(args.new))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    worse_any = False
    for key in sorted(set(base) & set(new)):
        name, trace = key
        print(f"\n== {name} ({'traced' if trace else 'end to end'})")
        print(f"{'metric':40} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32} "
              f"{'change':>8}  verdict")
        for metric in base[key]:
            b, n = base[key][metric], new[key].get(metric)
            if not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = nq[1] / bq[1] - 1 if bq[1] else float("nan")
            verdict = ""
            if metric in metrics and not trace:
                bound = metrics[metric]["bound"]
                sign = 1 if lower[metric] else -1
                all_better = (max(n) < min(b)) if lower[metric] else (min(n) > max(b))
                if spread(b) > bound or spread(n) > bound:
                    verdict = "better (every run)" if all_better else "unresolved"
                elif sign * change > bound:
                    verdict, worse_any = "WORSE", True
                else:
                    verdict = "within bound"
            print(f"{metric:40} {bq[1]:11.5g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(73)
                  + f"{nq[1]:11.5g} [{nq[0]:.4g}, {nq[2]:.4g}]".ljust(33)
                  + f"{change:+8.1%}  {verdict}")
    return 1 if worse_any else 0


def _summary(metrics: Dict[str, List[float]], spec) -> Dict[str, dict]:
    out = {}
    for m in spec["end_to_end"]:
        values = metrics[m["name"]]
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                          "spread": round(spread(values), 4), "runs": len(values),
                          "unit": m["unit"]}
    return out


def _seeds_of(path: Path) -> List[int]:
    return sorted({json.loads(line)["seed"] for line in path.read_text().splitlines()})


def baseline(args) -> int:
    import os
    import platform

    import numpy

    import spans
    import workloads

    spec = load_spec()
    runs, again = read_results(Path(args.runs)), read_results(Path(args.again))
    traced: Dict[str, List[dict]] = {}
    for line in Path(args.traced).read_text().splitlines():
        rec = json.loads(line)
        traced.setdefault(rec["workload"], []).append(rec)
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    out = {
        "measured_commit": git.stdout.strip() or "unknown",
        "note": "Times of end-to-end metrics are scaled to the reference host speed (speed.py).",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": 1,
                    "system": platform.system(), "machine": platform.machine()},
        "src_lines": src_lines,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
        "layer_map": spans.LAYER_MAP,
        "end_to_end_seeds": _seeds_of(Path(args.runs)),
        "end_to_end": {},
        "end_to_end_repeat": {"seeds": _seeds_of(Path(args.again)), "workloads": {}},
        "per_layer": {},
    }
    for name in workloads.NAMES:
        wl = workloads.make(name, ROOT)
        out["workloads"][name] = {
            "loop": "closed", "clients": 1, "operation": wl.operation, "pass": wl.one_pass,
            "seed_controls": wl.seed_controls, "verdict": wl.verdict,
            "min_passes": wl.min_passes, "tail_percentile": wl.tail_pct,
            "op_limit_s": wl.op_limit_s,
            "traced_ops": wl.trace_ops or len(wl.make_pass(1, 0)),
            "idle_layers": list(wl.idle_layers)}
        out["end_to_end"][name] = _summary(runs[(name, 0)], spec)
        out["end_to_end_repeat"]["workloads"][name] = _summary(again[(name, 0)], spec)
        first, second = traced[name][:2]
        calls = [{k: v["value"] for k, v in rec["result"]["metrics"].items()
                  if k.endswith(".calls")} for rec in (first, second)]
        out["per_layer"][name] = {
            "seeds": [first["seed"], second["seed"]],
            "correct": first["result"]["correct"] and second["result"]["correct"],
            "calls_repeat_in_second_run": calls[0] == calls[1],
            "trace_overhead_frac_two_runs": [
                round(rec["result"]["metrics"]["trace.overhead_frac"]["value"], 4)
                for rec in (first, second)],
            "metrics": {k: round(v["value"], 6) for k, v in first["result"]["metrics"].items()}}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark for many seeds")
    c.add_argument("--out", required=True, help="JSON-lines file to append results to")
    c.add_argument("--workloads", default="", help="comma-separated names (default: all)")
    c.add_argument("--seeds", default="1-10", help='seed range like "1-10"')
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("new")
    b = sub.add_parser("baseline", help="write baseline.json from result sets")
    b.add_argument("runs", help="end-to-end results")
    b.add_argument("again", help="a second end-to-end result set of the same code")
    b.add_argument("traced", help="traced results, two runs per workload")
    args = parser.parse_args(argv)
    return {"collect": collect, "compare": compare, "baseline": baseline}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
