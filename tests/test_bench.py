"""tools/bench.py --compare on two committed records, with no benchmark run."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = Path(__file__).parent / "bench"


def compare(a: str, b: str):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--compare",
                           str(RECORDS / a), str(RECORDS / b)], capture_output=True, text=True, timeout=5)
    return proc.returncode, proc.stdout.splitlines()[2:]


def test_a_record_against_itself_is_all_ones_and_unmarked():
    code, lines = compare("parent.json", "parent.json")
    assert code == 0 and len(lines) == 2 + 6
    assert all(" ratio  1.0000" in line and line.endswith("1.0000") for line in lines)


def test_each_entry_has_one_ratio_and_past_its_bound_a_mark():
    code, lines = compare("parent.json", "change.json")
    assert code == 1
    by_metric = {line.split()[1]: line for line in lines if line.startswith("suite-sweep")}
    assert by_metric["op_tail_ms"].endswith("ratio  1.2844  outside ±0.2, worse")  # lower is better
    assert by_metric["ops_per_s"].endswith("ratio  1.2500  outside ±0.15, better")  # higher is better
    assert by_metric["sweep_s"].endswith("ratio  1.0400")  # inside its 0.15 bound: no mark
    assert lines[0].split()[:3] == ["src_lines", "3889", "3909"]
    assert lines[-1] == "suite-sweep failed operations 0 -> 1  outside, worse"


def test_walls_apart_by_more_than_their_spread_are_resolved():
    code, lines = compare("walls_a.json", "walls_b.json")  # medians 0.27 and 0.34, IQRs 0.01 and 0.02
    assert code == 0 and lines[1].endswith("ratio  1.2593")


def test_walls_apart_by_less_than_the_larger_spread_are_unresolved():
    code, lines = compare("walls_a.json", "walls_c.json")  # medians 0.27 and 0.30, IQRs 0.01 and 0.1
    assert code == 0 and lines[1].endswith("ratio  1.1111  unresolved, inside the interquartile range 0.1")


def test_critical_walls_compare_under_the_same_rule(tmp_path):
    """Where both records hold the walls of `critical`, its median gets a line and the
    unresolved mark; the records without them (above) print no such line."""
    walls = {"a": [0.20, 0.21, 0.21, 0.22, 0.22, 0.23, 0.24], "b": [0.20, 0.22, 0.23, 0.23, 0.30, 0.31, 0.33]}
    for name, crit in walls.items():
        record = json.loads((RECORDS / "walls_a.json").read_text())
        record.update(critical_wall_s=statistics.median(crit), critical_walls_s=crit)
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
    code, lines = compare(tmp_path / "a.json", tmp_path / "b.json")
    assert code == 0 and [line.split()[0] for line in lines] == ["src_lines", "all_wall_s", "critical_wall_s"]
    assert lines[2].endswith("ratio  1.0455  unresolved, inside the interquartile range 0.09")


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(sweep_s, ops_per_s, failed=0):
    """A canned last line of `benchmarks/run.py`, two of its metrics filled."""
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {"sweep_s": {"value": sweep_s, "unit": "s"}, "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


BOUNDS = [{"name": "sweep_s", "better": "lower", "bound": 0.15}, {"name": "ops_per_s", "better": "higher", "bound": 0.15}]


def test_pairs_summary_counts_wins_and_resolves_against_the_parent_spread():
    bench = load_bench()
    parent = [run_line(s, p) for s, p in zip((10.0, 10.2, 10.1, 10.4, 10.3, 10.0, 10.2, 10.5, 10.1, 10.3),
                                           (98, 102, 100, 99, 101, 100, 97, 103, 100, 100))]
    change = [run_line(s, p) for s, p in zip((9.5, 9.7, 9.6, 9.9, 10.5, 9.4, 9.6, 9.9, 9.5, 9.8),
                                           (101, 99, 100, 130, 101, 99, 101, 100, 101, 101))]
    lines, code = bench.pairs_summary(parent, change, BOUNDS)
    assert code == 0 and lines[0].startswith("10 pairs")
    sweep, ops = lines[1].split(), lines[2].split()
    assert sweep[:7] == ["sweep_s", "10.2", "[10.075,", "10.325]", "9.65", "[9.5,", "9.9]"]
    assert " ratio  0.9461  wins 9/10  resolved" in lines[1] and lines[1].endswith("resolved")
    assert ops[0] == "ops_per_s" and lines[2].endswith(
        "101 [99.75, 101]  ratio  1.0100  wins 5/10  unresolved, inside the parent's interquartile range")
    assert lines[3] == "failed operations 0/1000 -> 0/1000"


def test_pairs_summary_marks_a_median_worse_past_its_bound_and_more_failures():
    bench = load_bench()
    parent = [run_line(1.0, 100), run_line(1.1, 100), run_line(1.2, 100)]
    change = [run_line(1.5, 70), run_line(1.4, 70, failed=1), run_line(1.6, 70)]
    lines, code = bench.pairs_summary(parent, change, BOUNDS)
    assert code == 1
    assert lines[1].endswith("ratio  1.3636  wins 0/3  resolved; outside ±0.15, worse")
    assert lines[2].endswith("ratio  0.7000  wins 0/3  resolved; outside ±0.15, worse")
    assert lines[3] == "failed operations 0/300 -> 1/300  worse"
