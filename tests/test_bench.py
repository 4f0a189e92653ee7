"""tools/bench.py --compare on two committed records, with no benchmark run."""

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
