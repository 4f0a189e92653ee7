"""The benchmark's inputs and known answers match what they claim to be."""

import importlib.util
import json
import random

import known_answers
import spans
import workloads
from cgalgebra.weyl import print_op


def _tier1_test_weyl():
    path = workloads.ROOT / "tests" / "test_weyl.py"
    spec = importlib.util.spec_from_file_location("tier1_test_weyl", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rand_op_reproduces_the_tier1_draws():
    tier1 = _tier1_test_weyl()
    for seed in (42, 7, 2024):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(60):
            assert print_op(workloads.rand_op(ours)) == print_op(tier1.rand_op(theirs))


def _texts(one_pass):
    return [(i, " | ".join(print_op(op) for op in triple)) for i, triple in one_pass]


def test_weyl_pass_is_the_tier1_triples_in_seeded_order():
    tier1 = _tier1_test_weyl()
    rng = random.Random(42)
    want = [(i, " | ".join(print_op(tier1.rand_op(rng)) for _ in range(3))) for i in range(100)]
    wl = workloads.WeylProducts()
    got = _texts(wl.make_pass(5, 0))
    assert sorted(got) == want
    assert got == _texts(wl.make_pass(5, 0))
    assert got != _texts(wl.make_pass(6, 0))


def test_fock_pass_covers_every_cutoff_once():
    wl = workloads.FockStates()
    for k in range(3):
        inputs = wl.make_pass(11, k)
        assert sorted(i.cutoff for i in inputs) == list(workloads.CUTOFFS)
        assert inputs == wl.make_pass(11, k)


def test_known_answer_table_covers_every_configuration():
    assert list(known_answers.EXPECTED_CHECKS) == list(spans.CLI_CONFIGS)
    counts = tuple(len(ids) for ids in known_answers.EXPECTED_CHECKS.values())
    assert counts == known_answers.PASS_COUNTS
    assert sum(counts) == 186


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.metric_units().items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_baseline_records_the_workload_parameters():
    base = json.loads((workloads.ROOT / "benchmarks" / "baseline.json").read_text())
    for name in workloads.NAMES:
        wl = workloads.make(name, workloads.ROOT)
        meta = base["workloads"][name]
        assert (meta["min_passes"], meta["tail_percentile"], meta["op_limit_s"],
                meta["idle_layers"]) == (wl.min_passes, wl.tail_pct, wl.op_limit_s,
                                         list(wl.idle_layers))
