"""Tests for the benchmark's own arithmetic; they do not run autotune.

    python3 -m pytest -q perfbench
"""
import json
import os
import random
from concurrent.futures import ThreadPoolExecutor

import journals
import run
import spans
import workloads


def _trial(group, seed, wall, ckpt=None):
    return {"t": "trial", "group": group, "seed": seed, "cost": 0.5, "wall_time": wall,
            "ckpt": ckpt, "seq": 0}


def _group(group, spend, purpose="tune"):
    return {"t": "group", "group": group, "spend": spend, "purpose": purpose,
            "mean_cost": 0.25 * group, "seq": 0}


def test_normalise_strips_wall_time_and_checkpoint_directories():
    rec = _trial(3, 0, 0.123, ckpt="/some/run/rep000/checkpoints/g000003_s0_f0.500000.ckpt")
    out = journals.normalise(rec)
    assert "wall_time" not in out
    assert out["ckpt"] == "g000003_s0_f0.500000.ckpt"
    assert rec["wall_time"] == 0.123  # the input is left alone
    assert journals.normalise(_trial(1, 0, 0.1))["ckpt"] is None


def test_journal_digest_ignores_wall_time_and_run_directory():
    a = [{"t": "header"}, _trial(0, 0, 0.1, ckpt="a/checkpoints/g0.ckpt"), _group(0, 1.0)]
    b = [{"t": "header"}, _trial(0, 0, 9.9, ckpt="b-resume/checkpoints/g0.ckpt"), _group(0, 1.0)]
    c = [{"t": "header"}, _trial(0, 1, 0.1, ckpt="a/checkpoints/g0.ckpt"), _group(0, 1.0)]
    assert journals.journal_digest(a) == journals.journal_digest(b)
    assert journals.journal_digest(a) != journals.journal_digest(c)


def test_covered_merges_overlaps_and_skips_empty_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0
    assert spans.covered([(5.0, 4.0)]) == 0.0


def test_self_time_subtracts_nested_and_overlapping_children():
    s = [
        spans.Span(1, "root", 0.0, 10.0, 0),
        spans.Span(2, "a", 1.0, 4.0, 1),
        spans.Span(3, "b", 3.0, 6.0, 1),  # overlaps a, as pool workers do
        spans.Span(4, "a.child", 2.0, 3.0, 2),
        spans.Span(5, "late", 9.0, 12.0, 1),  # only [9, 10] lies inside root
    ]
    selfs = spans.self_times(s)
    assert selfs[1] == 10.0 - 5.0 - 1.0
    assert selfs[2] == 2.0
    assert selfs[3] == 3.0
    assert selfs[4] == 1.0
    assert selfs[5] == 3.0


def test_layer_metrics_from_spans():
    ev = {"budget": 0.05, "from": 0.0}
    s = [
        spans.Span(1, "runner.evaluate_many", 0.0, 20.0, 0),
        spans.Span(2, "runner.evaluate_group", 0.0, 10.0, 1),
        spans.Span(3, "objectives.evaluate", 1.0, 5.0, 2, ev),
        spans.Span(4, "runner.evaluate_group", 10.0, 20.0, 1),
        spans.Span(5, "objectives.evaluate", 11.0, 17.0, 4, {"budget": 1.0, "from": 0.5}),
        spans.Span(6, "objectives.greedy_eval", 12.0, 16.0, 5),
        spans.Span(7, "gp.fit", 30.0, 31.0, 0, {"points": 2, "inputs": "a"}),
        spans.Span(8, "gp.fit", 32.0, 33.0, 0, {"points": 2, "inputs": "a"}),
        spans.Span(9, "gp.fit", 34.0, 35.0, 0, {"points": 5, "inputs": "b"}),
    ]
    m = spans.layer_metrics(s)
    assert m["runner.groups"] == 2 and m["runner.batches"] == 1
    assert m["runner.overhead_share"] == (20.0 - 10.0) / 20.0
    assert m["runner.batch_s_per_group"] == 10.0
    assert m["objectives.s_per_equiv.low"] == 4.0 / 0.05
    assert m["objectives.s_per_equiv.full"] == 6.0 / 0.5
    assert m["objectives.train.s"] == 4.0 + 2.0
    assert m["objectives.greedy_eval.s"] == 4.0
    assert m["gp.fit.calls"] == 3 and m["gp.fit.points_mean"] == 3.0
    assert m["gp.fit.repeat_ratio"] == 1 / 3
    assert set(m) | {"runner.ckpt_files", "runner.ckpt_bytes", "journal.bytes",
                     "runner.out_of_order_groups", "dehb.spend_ratio", "pbt.spend_ratio",
                     "trace.overhead_s", "trace.overhead_share"} == set(spans.PER_LAYER)


def test_tracer_records_parents_across_calls_and_worker_threads():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def batch(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(n)))

    outer = tracer.wrap("outer", batch, pool=True)
    assert outer(3) == [1, 2, 3]
    assert inner(0) == 1
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    [outer_span] = by_name["outer"]
    assert [s.parent for s in by_name["inner"]].count(outer_span.id) == 3
    assert by_name["inner"][-1].parent == 0  # the call after the batch is a root
    assert outer_span.parent == 0


def test_tracer_records_a_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom, annotate=lambda a, k, r: {"ok": True})
    try:
        wrapped()
    except ValueError:
        pass
    [span] = tracer.spans
    assert span.name == "boom" and span.attrs is None and span.end >= span.start


def test_equivalents_sum_every_group_and_tuning_spend_excludes_tests():
    records = [{"t": "header", "kind": "pbt", "budget_runs": 4},
               _trial(0, 0, 0.1), _group(0, 0.5),
               _group(1, 0.25),
               _group(2, 1.0, purpose="warmstart"),
               {"t": "exploit"},
               _group(3, 1.0, purpose="test"), _group(4, 1.0, purpose="test")]
    assert journals.equivalents(records) == 3.75
    assert journals.tuning_spend(records) == 1.75
    assert journals.spend_by_method(records) == ("pbt", 1.75, 4)


def test_sweep_equivalents_are_rows_times_seeds_times_budget():
    [sweep] = [op for op in workloads.build("valley", 5).ops if op.kind == workloads.SWEEP]
    argv = list(sweep.argv)
    rows = len(argv[argv.index("--values") + 1].split(","))
    seeds = len(argv[argv.index("--seeds") + 1].split(","))
    assert sweep.equivalents == rows * seeds * float(argv[argv.index("--budget") + 1])


def test_result_summary_does_not_depend_on_group_order():
    groups = [_group(g, 0.1 * (g + 1)) for g in range(6)]
    tests = [_group(6, 1.0, purpose="test"), _group(7, 1.0, purpose="test")]
    inc = {"t": "incumbent", "config": {"x": 0.5}, "cost": 0.1}
    shuffled = list(groups)
    random.Random(0).shuffle(shuffled)
    a = journals.result_summary([{"t": "header"}, *groups, inc, *tests])
    b = journals.result_summary([{"t": "header"}, *shuffled, inc, *tests])
    assert journals.digest(a) == journals.digest(b)
    assert a["test_costs"] == [1.5, 1.75]
    assert journals.out_of_order_groups([{"t": "header"}, *groups]) == 0
    assert journals.out_of_order_groups(
        [{"t": "header"}, _group(0, 1), _group(2, 1), _group(1, 1), _group(3, 1)]) == 2


def _lines(kinds):
    return [json.dumps({"t": k, "i": i}) for i, k in enumerate(kinds)]


def test_cut_keeps_half_of_the_groups_and_nothing_after_the_last_one():
    kinds = ["header", "trial", "group", "trial", "group", "exploit", "explore",
             "trial", "group", "trial", "group", "incumbent", "complete"]
    lines = _lines(kinds)
    kept = journals.cut_lines(lines)
    assert kept == lines[:5]  # header ... second of four groups
    odd = _lines(["header", "trial", "group", "group", "exploit", "group"])
    assert journals.cut_lines(odd) == odd[:3]  # one of three groups
    single = _lines(["header", "trial", "group", "complete"])
    assert journals.cut_lines(single) == single[:1]


def test_write_cut_copies_the_cut_journal(tmp_path):
    src = tmp_path / "run" / "journal.log"
    dst = tmp_path / "run-resume" / "rep000" / "journal.log"
    src.parent.mkdir()
    lines = _lines(["header", "trial", "group", "trial", "group"])
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    journals.write_cut(str(src), str(dst))
    assert dst.read_text(encoding="utf-8") == "\n".join(lines[:3]) + "\n"
    assert src.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_workload_inputs_come_from_the_seed_alone():
    for name in workloads.NAMES:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) == workloads.build(name, 7 + workloads.N_VARIANTS)
        assert workloads.build(name, 7).ops != workloads.build(name, 8).ops
    for op in workloads.build("valley", 7).ops + workloads.build("gridworld", 7).ops:
        if op.kind == workloads.TUNE:
            argv = list(op.argv)
            tuning = set(argv[argv.index("--tuning-seeds") + 1].split(","))
            test = set(argv[argv.index("--test-seeds") + 1].split(","))
            assert tuning and test and not tuning & test


def test_parallel_workload_reuses_the_sequential_dehb_inputs():
    [w1] = [op for op in workloads.build("gridworld", 11).ops if op.name == "dehb"]
    [w2] = workloads.build("gridworld-w2", 11).ops
    assert w2.argv == w1.argv + ("--workers", "2")
    assert w2.golden == w1.golden == (11, "gridworld", "dehb")


def test_benchmark_json_matches_the_reported_metrics():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER
    for w in bench["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
