"""Benchmark of the autotune package through its command line.

Run from the repository root::

    python3 perfbench/run.py --workload valley --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A run repeats its workload's cycle of ops for about ``--seconds``. A cycle
runs each live op (``autotune tune ...`` or ``autotune sweep ...`` through
``autotune.cli.main``), then resumes each resumed op from a new run directory
holding a copy of its journal cut after half of its group records. Every
output is checked against ``golden.json`` and every resumed journal against
the uninterrupted one. A failed op counts in ``failed``; an output that
differs from the expected one also makes ``correct`` false. A failed resume
is charged the time of its live op, which a user would spend running it again.

With ``--trace 0`` the run reports the end-to-end metrics, each a median over
its samples: ``setup_s``, ``run_equiv_per_s``, ``resume_s`` and
``peak_rss_mb``; the failed share is ``failed / attempted``. With
``--trace 1`` each untraced cycle is followed by a traced one and the run
reports per-layer metrics from the spans, plus the tracing overhead. The last
line of standard output is the JSON result. Run directories and the span file
live under ``.perfbench/`` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import journals
import spans
import workloads
from workloads import SWEEP, TUNE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_SAMPLES = 9
# The host's speed drifts by up to 1.6x between runs on shared machines, so
# every timing is scaled to a reference speed: wall seconds times
# REF_NOMINAL_S over the time a fixed pure-Python loop took around the timed
# call. REF_NOMINAL_S is that loop's time on a 2-vCPU Firecracker VM, so the
# figures stay close to wall seconds there.
REF_LOOPS = 300_000
REF_NOMINAL_S = 0.035

END_TO_END_UNITS = {"setup_s": "s", "run_equiv_per_s": "1/s", "resume_s": "s", "peak_rss_mb": "MB"}

# a fresh interpreter doing what every ``tune`` does before its first evaluation
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import autotune
from autotune.objectives import ObjectiveSpec, make_objective
from autotune.space import parse_space
with open(sys.argv[2], encoding="utf-8") as fh:
    space = parse_space(fh.read())
make_objective(ObjectiveSpec(sys.argv[3], json.loads(sys.argv[4])), space=space)
"""


def load_autotune():
    """Import autotune from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "autotune", "__init__.py")):
        raise SystemExit(f"perfbench: no autotune sources under {SRC}")
    sys.path.insert(0, SRC)
    import autotune.cli

    if not os.path.abspath(autotune.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: autotune was imported from {autotune.cli.__file__}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)  # outputs that differ from the expected
    notes: list = field(default_factory=list)
    slowness: list = field(default_factory=list)  # host slowness around each timed call

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(message)

    def check(self, label: str, got, want) -> bool:
        if got == want:
            return True
        self.mismatches.append(f"{label}: got {got}, expected {want}")
        return False


@dataclass
class CycleStats:
    live_s: float = 0.0  # scaled time of the live ops
    equivalents: float = 0.0  # full-run equivalents those ops evaluated
    resume_s: float = 0.0  # scaled time of the resume ops
    facts: dict = field(default_factory=dict)  # per-layer facts read from disk

    @property
    def ops_s(self) -> float:
        return self.live_s + self.resume_s


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes on the host right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled(fn):
    """(fn's result, its wall time scaled to the reference speed, host slowness)."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    slowness = (before + reference_s()) / (2 * REF_NOMINAL_S)
    return result, wall / slowness, slowness


class Outcome(NamedTuple):
    rc: int | None  # exit code; None when the call raised
    seconds: float  # scaled wall time
    log: str  # what the op printed
    slowness: float


def call(argv: list[str]) -> Outcome:
    """Run ``autotune.cli.main(argv)`` with its output captured."""
    from autotune import cli

    buf = io.StringIO()

    def run_main():
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                return cli.main(list(argv))
        except SystemExit as err:  # argparse rejected the arguments
            return err.code
        except Exception:  # an op that raises is a failed op; the benchmark goes on
            buf.write(traceback.format_exc())
            return None

    rc, seconds, slowness = scaled(run_main)
    return Outcome(rc, seconds, buf.getvalue(), slowness)


def journal_path(out: str) -> str:
    return os.path.join(out, "rep000", "journal.log")


def outputs(op, out: str) -> tuple[dict, float]:
    """(digests of the op's outputs, full-run equivalents it evaluated)."""
    if op.kind == SWEEP:
        [name] = [f for f in os.listdir(out) if f.startswith("sweep_")]
        with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
            return {"table": journals.digest(fh.read())}, op.equivalents
    records = journals.read_journal(journal_path(out))
    return (
        {
            "journal": journals.journal_digest(records),
            "result": journals.digest(journals.result_summary(records)),
        },
        journals.equivalents(records),
    )


def compared(wl, produced: dict) -> tuple[str, ...]:
    # with a worker pool the journal follows completion order, so only the
    # order-free result is compared
    return ("result",) if wl.workers > 1 and "result" in produced else tuple(produced)


def _last_line(log: str) -> str:
    lines = log.strip().splitlines()
    return lines[-1] if lines else ""


def run_cycle(wl, golden: dict, cdir: str, space_path: str, tally: Tally,
              traced: bool) -> CycleStats:
    stats = CycleStats()
    produced = {}
    ops = {op.name: op for op in wl.ops}

    def run(op, out: str) -> Outcome:
        outcome = call([*op.argv, "--space", space_path, "--out", out])
        tally.slowness.append(outcome.slowness)
        return outcome

    live_s = {}
    for op in wl.ops:
        out = os.path.join(cdir, op.name)
        rc, wall, log, _ = run(op, out)
        live_s[op.name] = wall
        stats.live_s += wall
        tally.attempted += 1
        if rc != 0:
            tally.fail(f"{op.name}: exit {rc}: {_last_line(log)}")
            continue
        produced[op.name], equivalents = outputs(op, out)
        stats.equivalents += equivalents
        var, workload, name = op.golden
        want = golden["variants"].get(str(var), {}).get(workload, {}).get(name, {})
        for key in compared(wl, produced[op.name]):
            if not tally.check(f"{op.name} {key}", produced[op.name][key], want.get(key)):
                tally.fail(f"{op.name}: {key} differs from golden")
                break

    for name in wl.resumed:
        op, src = ops[name], os.path.join(cdir, name)
        tally.attempted += 1
        if name not in produced:
            tally.fail(f"{name} resume: no uninterrupted run to resume")
            continue
        dst = src + "-resume"
        journals.write_cut(journal_path(src), journal_path(dst))
        rc, wall, log, _ = run(op, dst)
        stats.resume_s += wall
        if rc == 0:
            got, _ = outputs(op, dst)
            key = compared(wl, got)[0]  # the journal itself when it is deterministic
            if not tally.check(f"{name} resume {key}", got[key], produced[name][key]):
                tally.fail(f"{name} resume: {key} differs from the uninterrupted run")
            continue
        tally.fail(f"{name} resume: exit {rc}: {_last_line(log)}")
        # a user whose resume fails runs the op again from an empty directory;
        # charge the live op's time so a fix to resume reads as a gain, not a loss
        stats.resume_s += live_s[name]

    if traced:
        stats.facts = cycle_facts(wl, cdir)
    return stats


def cycle_facts(wl, cdir: str) -> dict:
    """Per-layer facts read from the live tune ops' run directories."""
    facts = dict.fromkeys(("runner.ckpt_files", "runner.ckpt_bytes", "journal.bytes",
                           "runner.out_of_order_groups"), 0)
    spend, budget = defaultdict(float), defaultdict(int)
    for op in wl.ops:
        path = journal_path(os.path.join(cdir, op.name))
        if op.kind != TUNE or not os.path.exists(path):
            continue
        ckpt_dir = os.path.join(os.path.dirname(path), "checkpoints")
        for entry in os.scandir(ckpt_dir) if os.path.isdir(ckpt_dir) else ():
            facts["runner.ckpt_files"] += 1
            facts["runner.ckpt_bytes"] += entry.stat().st_size
        facts["journal.bytes"] += os.path.getsize(path)
        records = journals.read_journal(path)
        facts["runner.out_of_order_groups"] += journals.out_of_order_groups(records)
        kind, op_spend, op_budget = journals.spend_by_method(records)
        spend[kind] += op_spend
        budget[kind] += op_budget
    for kind in ("dehb", "pbt"):
        facts[f"{kind}.spend_ratio"] = spend[kind] / budget[kind] if budget[kind] else 0.0
    return facts


def measure_setup(wl, space_path: str, tally: Tally) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE, SRC, space_path, wl.objective,
            json.dumps(wl.objective_params)]
    times = []
    for _ in range(SETUP_SAMPLES):
        proc, seconds, slowness = scaled(
            lambda: subprocess.run(argv, cwd=ROOT, capture_output=True, text=True))
        times.append(seconds)
        tally.slowness.append(slowness)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    wl = workloads.build(name, seed)
    work = os.path.join(WORK, f"work-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    plain, traced, tracers = [], [], []
    try:
        space_path = os.path.join(work, f"{name}.space")
        with open(space_path, "w", encoding="utf-8") as fh:
            fh.write(wl.space_text)
        setup = [] if trace else measure_setup(wl, space_path, tally)
        # whole cycles while the next one is expected to end within half a
        # cycle of --seconds, so a run lasts about --seconds however long a cycle is
        begin = time.perf_counter()
        while True:
            cdir = os.path.join(work, f"c{len(plain)}")
            plain.append(run_cycle(wl, golden, cdir, space_path, tally, traced=False))
            shutil.rmtree(cdir)
            if trace:
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    traced.append(run_cycle(wl, golden, cdir + "t", space_path, tally,
                                            traced=True))
                tracers.append(tracer)
                shutil.rmtree(cdir + "t")
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(plain) / 2 > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": name, "tally": tally}
    if not trace:
        samples = {
            "setup_s": setup,
            "run_equiv_per_s": [c.equivalents / c.live_s for c in plain],
            "resume_s": [c.resume_s for c in plain],
        }
        result["metrics"] = {m: (statistics.median(v), len(v)) for m, v in samples.items()}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = (rss, 1)
        result["samples"] = samples
        return result

    per_cycle = []
    for tracer, t, p in zip(tracers, traced, plain):
        values = spans.layer_metrics(tracer.spans)
        values.update(t.facts)
        values["trace.overhead_s"] = t.ops_s - p.ops_s
        values["trace.overhead_share"] = (t.ops_s - p.ops_s) / p.ops_s
        per_cycle.append(values)
    result["metrics"] = {
        m: (statistics.median(v[m] for v in per_cycle), len(per_cycle)) for m in spans.PER_LAYER
    }
    result["shares"] = spans.self_time_shares(tracers[0].spans, traced[0].ops_s)
    write_spans(name, tracers)
    return result


def write_spans(name: str, tracers: list) -> None:
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"spans-{name}.jsonl"), "w", encoding="utf-8") as fh:
        for cycle, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({"cycle": cycle, "id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "attrs": s.attrs}) + "\n")


def unit_of(metric: str) -> str:
    return END_TO_END_UNITS.get(metric) or spans.PER_LAYER[metric][0]


def print_report(result: dict) -> None:
    name, tally = result["workload"], result["tally"]
    for metric, (value, n) in result["metrics"].items():
        print(f"{name:<13} {metric:<30} {value:>14.6g} {unit_of(metric):<6} n={n}")
    print(f"{name:<13} {'failed_ratio':<30} {tally.failed / tally.attempted:>14.6g} "
          f"{'share':<6} n={tally.attempted} ({tally.failed} failed)")
    for metric, values in result.get("samples", {}).items():
        print(f"{name:<13}   {metric} samples: {' '.join(f'{v:.4g}' for v in values)}")
    for share_name, share in result.get("shares", [])[:12]:
        print(f"{name:<13}   self time {share_name:<26} {share:>8.1%} of traced op time"
              " (worker threads add up)")
    print(f"{name:<13}   host slowness (median over {len(tally.slowness)} timed calls): "
          f"{statistics.median(tally.slowness):.3f}; wall s = reported s x slowness")
    for note in tally.notes[:10]:
        print(f"{name:<13}   failed: {note}")
    for mismatch in tally.mismatches[:10]:
        print(f"{name:<13}   MISMATCH {mismatch}")


def run_all(args) -> int:
    """Each workload in a process of its own, so peak memory is its own."""
    results = []
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} failed:\n{proc.stderr}")
        print("\n".join(lines[:-1]))
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}/{m}": v for name, r in results for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    load_autotune()
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("AUTOTUNE_RUN_DIR", None)  # it would override --out
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    print_report(result)
    print(json.dumps({
        "correct": not result["tally"].mismatches,
        "attempted": result["tally"].attempted,
        "failed": result["tally"].failed,
        "metrics": {m: {"value": value, "unit": unit_of(m)}
                    for m, (value, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
