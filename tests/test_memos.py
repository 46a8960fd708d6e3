"""Work done once per distinct input or group: journal lines and their
flushes, encodings, GP fits, and the single read of a resumed journal."""
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autotune.journal as journal_module
import autotune.objectives as objectives_module
import autotune.pbt as pbt_module
from autotune.checkpoints import CheckpointPack
from autotune.gp import GpFitError
from autotune.journal import Journal, ReplayMismatch
from autotune.objectives import (
    EvaluationError,
    GridworldQ,
    NoisySphere,
    ObjectiveSpec,
    SeededValley,
)
from autotune.pbt import run_pbt
from autotune.protocol import MethodSpec, SeedPlan
from autotune.runner import TrialRunner
from autotune.runs import JOURNAL_NAME, run_repetition
from autotune.space import Configuration, SpaceError, from_unit, parse_space

# ---------------------------------------------------------------------------
# Journal.append and append_group: one serialisation, the same bytes

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    _floats, _floats.map(np.float64),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
_records = st.dictionaries(st.text(max_size=8), _values, max_size=6)


def _two_step_line(record: dict) -> str:
    """The line the journal wrote before it serialised once."""
    return json.dumps(json.loads(json.dumps(record)), sort_keys=True)


def _assert_parsed_form(kept, parsed):
    """``kept`` equals ``parsed`` recursively: the same types at every
    level, keys in the same order, floats with the same bits (NaN as NaN)."""
    assert type(kept) is type(parsed)
    if isinstance(parsed, dict):
        assert list(kept) == list(parsed)
        for k in parsed:
            _assert_parsed_form(kept[k], parsed[k])
    elif isinstance(parsed, list):
        assert len(kept) == len(parsed)
        for a, b in zip(kept, parsed):
            _assert_parsed_form(a, b)
    elif isinstance(parsed, float):
        assert repr(kept) == repr(parsed)
    else:
        assert kept == parsed


def _mutate(value) -> None:
    """Change every dict and list nested in ``value`` in place."""
    if isinstance(value, dict):
        for v in list(value.values()):
            _mutate(v)
        value["\x00changed"] = 1
    elif isinstance(value, (list, tuple)):
        for v in value:
            _mutate(v)
        if isinstance(value, list):
            value.append("changed")


@settings(max_examples=100, deadline=None)
@given(header=_records, records=st.lists(_records, min_size=1, max_size=3))
def test_append_writes_the_bytes_of_the_two_step_serialisation(header, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.log")
        j = Journal.create(path)
        j.write_header(header)
        for record in records:
            j.append(record)
        j.close()
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    want = [_two_step_line({**header, "t": "header"})]
    want += [_two_step_line({**r, "seq": i}) for i, r in enumerate(records, start=1)]
    assert text == "".join(line + "\n" for line in want)
    # the record kept in memory is what a reader of the line gets, and the
    # caller's record shares nothing with it
    for r in [header, *records]:
        _mutate(r)
    for kept, line in zip([j.header, *j.records], want):
        _assert_parsed_form(kept, json.loads(line))


def test_append_does_not_change_the_caller_record():
    j = Journal()
    j.write_header({"method": "x"})
    record = {"t": "trial", "v": (1, 2.5)}
    assert j.append(record) == 1
    assert record == {"t": "trial", "v": (1, 2.5)}
    assert j.records == [{"t": "trial", "v": [1, 2.5], "seq": 1}]


@pytest.mark.parametrize(
    "record", [{"k": {1: "a"}}, {"k": {2.5: None, True: 1}}, {"s": IntEnum("E", "a").a}]
)
def test_append_keeps_the_parsed_form_of_keys_and_scalars_json_rewrites(record):
    j = Journal()
    j.write_header({"method": "x"})
    j.append(record)
    line = json.dumps({**record, "seq": 1}, sort_keys=True)
    _assert_parsed_form(j.records[-1], json.loads(line))


def test_a_replayed_record_that_cannot_be_serialised_raises(tmp_path):
    path = str(tmp_path / "journal.log")
    _written_journal(path, 1)
    j = Journal.open_for_resume(path)
    with pytest.raises(TypeError):
        j.append({"t": "trial", "group": 0, "seed": object()})
    j.close()



# append_group builds a group's records from the runner's values and writes
# them from one template per group, which encodes the config once; the kept
# records share one parsed copy of it

_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _group_values(**edit) -> dict:
    """What the runner hands :meth:`Journal.append_group` for one group, bar
    its config: three seeds that left no checkpoint path."""
    trials = [(seed, 0.1 * seed, "", 1e-5, None, 0.5) for seed in (3, 1, 2)]
    return {"group": 0, "budget": 0.5, "purpose": "tune", "tags": None, "spend": 0.5,
            "mean_cost": 0.2, "trials": trials, **edit}


def _expected_records(seq: int, config: dict, values: dict) -> list[dict]:
    """The records of one group, numbered from ``seq``, that the journal
    must build from ``values``: a reference written apart from it."""
    v = values
    records = [
        {"t": "trial", "group": v["group"], "budget": v["budget"], "seed": seed, "cost": cost,
         "status": "done" if cost is not None else "failed", "error": error,
         "wall_time": wall_time, "ckpt": ckpt, "frac": frac, "purpose": v["purpose"]}
        for seed, cost, error, wall_time, ckpt, frac in v["trials"]
    ]
    group = {"t": "group", "group": v["group"], "budget": v["budget"],
             "seeds": [t[0] for t in v["trials"]], "spend": v["spend"], "purpose": v["purpose"],
             "mean_cost": v["mean_cost"], "failed": v["mean_cost"] is None}
    if v["tags"]:
        group["tags"] = v["tags"]
    return [{**r, "config": config, "seq": i} for i, r in enumerate([*records, group], start=seq)]


def _lines_of(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def _appended(tmp_path, records) -> tuple[Journal, list[str]]:
    path = str(tmp_path / "journal.log")
    j = Journal.create(path)
    j.write_header({"method": "x"})
    for record in records:
        j.append(record)
    j.close()
    return j, _lines_of(path)


def _appended_groups(tmp_path, groups) -> tuple[Journal, list[str], list[dict]]:
    """The journal, its lines and the records expected of ``groups``, each
    (config, values)."""
    path = str(tmp_path / "journal.log")
    j = Journal.create(path)
    j.write_header({"method": "x"})
    records = []
    for config, values in groups:
        j.append_group(config, **values)
        records += _expected_records(len(records) + 1, config, values)
    j.close()
    return j, _lines_of(path), records


def _assert_lines_are_the_encoded_kept_records(j: Journal, lines: list[str]) -> None:
    assert lines == [_ENCODE(kept) for kept in j.records]
    for kept, line in zip(j.records, lines):
        _assert_parsed_form(kept, json.loads(line))


@pytest.mark.parametrize("config", [
    {"lr": 1, "momentum": 1.0, "nesterov": True},
    {"lr": 1.0, "momentum": True, "nesterov": 1},
    {"x": -0.0, "y": 0.0, "z": 1e-300, "w": None},
    {"activation": "gélu", "name": "naïve ☃", "q": 'a "quoted" \\ back\\slash'},
    {"config": "null", 'k"ey': '"config": null', "t": "\\"},
], ids=range(5))
def test_a_groups_lines_are_the_encoders_bytes(tmp_path, config):
    groups = [(config, _group_values()), (dict(config), _group_values(group=1))]
    j, lines, records = _appended_groups(tmp_path, groups)
    assert lines == [_ENCODE(r) for r in records]
    _assert_lines_are_the_encoded_kept_records(j, lines)
    # a group's records share one kept config, never the caller's dict
    for first in (0, 4):
        assert all(r["config"] is j.records[first]["config"] for r in j.records[first:first + 4])
    assert j.records[0]["config"] is not config


_texts = st.text(alphabet=st.sampled_from('ab é☃"\\\n\x00\ud800/\'{}[]:,'), max_size=8)


@st.composite
def _trials(draw, budget):
    """One to four ``(seed, cost, error, wall_time, ckpt, frac)`` of the
    types the runner hands over, ``frac`` the budget or None."""
    return [
        (seed, draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)), draw(_texts),
         draw(st.floats(0, 10)), draw(st.none() | _texts.map(lambda t: f"/runs/{t}.ckpt")),
         draw(st.sampled_from([budget, None])))
        for seed in draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    ]


@settings(max_examples=100, deadline=None)
@given(config=st.dictionaries(st.text(max_size=6), _scalars, min_size=1, max_size=5),
       data=st.data())
def test_records_sharing_a_config_write_the_two_step_bytes(config, data):
    trials = data.draw(_trials(0.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.log")
        j = Journal.create(path)
        j.write_header({"method": "x"})
        j.append_group(config, **_group_values(trials=trials))
        j.close()
        lines = _lines_of(path)
    records = _expected_records(1, config, _group_values(trials=trials))
    assert lines == [_two_step_line(r) for r in records]
    _mutate(config)
    _assert_lines_are_the_encoded_kept_records(j, lines)


def test_a_config_whose_value_object_changes_is_encoded_again(tmp_path):
    path = str(tmp_path / "journal.log")
    j = Journal.create(path)
    j.write_header({"method": "x"})
    config, want = {"lr": 0.5, "layers": 3}, []
    # the same dict each time, with a new value object: 1 equals 1.0 and
    # True but is not the same text
    for lr in (0.5, 0.25, 1, True, 1.0):
        config["lr"] = lr
        record = {"t": "incumbent", "config": config, "cost": 1.0}
        want.append(_ENCODE({**record, "seq": j.append(record)}))
    j.close()
    assert _lines_of(path) == want
    for kept, line in zip(j.records, want):
        _assert_parsed_form(kept, json.loads(line))


def test_a_config_with_other_keys_over_the_same_values_is_encoded_again(tmp_path):
    lr, momentum = 0.5, 0.9
    configs = [{"lr": lr}, {"eta": lr}, {"lr": lr, "momentum": momentum}, {"lr": lr}]
    records = [{"t": "incumbent", "config": c} for c in configs]
    j, lines = _appended(tmp_path, records)
    assert lines == [_ENCODE({**r, "seq": i}) for i, r in enumerate(records, start=1)]
    assert [r["config"] for r in j.records] == configs


def test_a_container_in_a_config_mutated_in_place_is_encoded_again(tmp_path):
    config = {"sizes": [32, 64]}
    path = str(tmp_path / "journal.log")
    j = Journal.create(path)
    j.write_header({"method": "x"})
    j.append({"t": "incumbent", "config": config})
    config["sizes"].append(128)  # the same value object, new contents
    j.append({"t": "incumbent", "config": config})
    j.close()
    sizes = [[32, 64], [32, 64, 128]]
    assert [json.loads(line)["config"]["sizes"] for line in _lines_of(path)] == sizes
    assert [r["config"]["sizes"] for r in j.records] == sizes


def test_changing_the_callers_config_after_append_leaves_the_kept_records():
    config = {"lr": 0.5, "layers": 3}
    j = Journal()
    j.write_header({"method": "x"})
    j.append({"t": "incumbent", "config": config, "cost": 1.0})
    j.append({"t": "incumbent", "config": config, "cost": 2.0})
    config["lr"] = 0.75
    config["new"] = "x"
    del config["layers"]
    assert [r["config"] for r in j.records] == [{"layers": 3, "lr": 0.5}] * 2


@pytest.mark.parametrize("config", [
    # a null "config" inside the config; values of other types than the
    # JSON scalars: containers, float subclasses
    {"x": 0.5, "tags": {"config": None}},
    {"x": [0.5, 1]},
    {"x": np.float64(0.1)},
], ids=["record0", "record1", "record2"])
def test_records_the_memo_cannot_splice_are_encoded_whole(tmp_path, config):
    # the config is encoded whole once per group and its text placed in each line
    j, lines, records = _appended_groups(tmp_path, [(config, _group_values())] * 2)
    assert lines == [_ENCODE(r) for r in records]
    _assert_lines_are_the_encoded_kept_records(j, lines)


# a runner's group records: every value the journal takes is of the exact
# type the runner makes it, and each request or cost that once needed a
# record encoded whole now fits the template or is refused before it runs


class _Scripted:
    """An objective that returns the cost scripted for each configuration's
    index and seed, failing where it is None, with the seed as its
    checkpoint."""

    name = "scripted"

    def __init__(self, costs: list[dict]):
        self.costs = costs

    def evaluate(self, config, budget, seed, resume=None):
        cost = self.costs[config["i"]][seed]
        if cost is None:
            raise EvaluationError(f'seed {seed} scripted to fail: "é"\\')
        return cost, b"%d" % seed


def _ran(tmp_path, costs: list[dict], requests: list[dict], error=None):
    """The journal of a runner on seeds 3, 1 and 2 that evaluated
    ``requests`` as one batch, or raised ``error`` before journaling any
    group; and its lines, each checked against its kept record."""
    path = str(tmp_path / "journal.log")
    runner = TrialRunner(_Scripted(costs), [3, 1, 2], journal=Journal.create(path),
                         checkpoint_dir=str(tmp_path / "checkpoints"))
    if error is None:
        runner.evaluate_many(requests)
    else:
        with pytest.raises(error):
            runner.evaluate_many(requests)
        assert runner.journal.records == []
    runner.close()
    runner.journal.close()
    lines = _lines_of(path)
    _assert_lines_are_the_encoded_kept_records(runner.journal, lines)
    assert Journal.load(path).records == runner.journal.records
    return runner.journal, lines


def test_a_group_whose_tag_holds_a_null_config_writes_the_encoders_bytes(tmp_path):
    costs = [{3: 0.25, 1: 0.5, 2: 1.0}]
    config = Configuration({"i": 0, "config": None})
    _ran(tmp_path / "refused", costs, [{"config": config, "budget": 0.5,
                                        "tags": {"member": 2, "config": None}}], ValueError)
    j, _ = _ran(tmp_path, costs, [{"config": config, "budget": 0.5, "tags": {"member": 2}}])
    assert j.records[-1]["tags"] == {"member": 2}
    assert all(r["config"] == {"config": None, "i": 0} for r in j.records)


# costs that once made a trial record the template turned away, each with
# the cost its trial records now
_EDGES = [(math.nan, None), (math.inf, None), (-math.inf, None), (True, 1.0), (False, 0.0),
          (np.float64(0.5), 0.5), (IntEnum("E", "a").a, 1.0),
          (type("Text", (str,), {})("a"), None), ([1], None), (-0.0, -0.0), ('é"\\', None)]


def test_a_trial_off_the_runners_shape_in_one_way_writes_the_encoders_bytes(tmp_path):
    costs = [{3: 0.25, 1: edge, 2: None} for edge, _ in _EDGES]
    requests = [{"config": Configuration({"i": i}), "budget": 0.5} for i in range(len(costs))]
    j, _ = _ran(tmp_path, costs, requests)
    middle = j.of_type("trial")[1::3]
    assert [repr(t["cost"]) for t in middle] == [repr(cost) for _, cost in _EDGES]
    assert [(t["status"], t["error"]) for t in middle if t["cost"] is None] == [
        ("failed", f"non-finite cost {edge!r}") for edge, cost in _EDGES if cost is None
    ]


# each edit to a group record the template once turned away, as a request or
# an objective meets it now: a record that fits, or a refusal before any run
_GROUP_CASES = {
    "as-is": ({}, None),
    "tags": ({"tags": {"rung": 2, "bracket": -1, "é☃": 2**70}}, None),
    "empty-tags": ({"tags": {}}, None),
    "none-tags": ({"tags": None}, None),
    "failed": ({}, {1: None}),
    "nan-mean": ({}, {1: math.nan}),  # a NaN cost fails its trial: the mean is null
    "inf-mean": ({}, {3: 1.7e308, 1: 1.7e308}),  # finite costs whose sum overflows
    "np-mean": ({}, {3: np.float64(0.1), 1: np.float64(0.2), 2: np.float64(0.3)}),
    "config-key": ({"config": Configuration({"i": 0, "config": None})}, None),
    "tuple-seeds": ({"seeds": (3, 1, 2)}, None),
    "no-seeds": ({"seeds": []}, ValueError),
    "bool-seed": ({"seeds": [True, 1, 2]}, ValueError),  # True is seed 1
    "nested-tag": ({"tags": {"rung": {"k": 1}}}, ValueError),
    "float-tag": ({"tags": {"rung": 1.0}}, ValueError),
    "bool-tag": ({"tags": {"rung": True}}, ValueError),
    "str-tag": ({"tags": {"member": "a"}}, ValueError),
    "int-key-tag": ({"tags": {1: 2}}, ValueError),
    # the runner derives a group's id, spend and failed flag; a request names none
    "str-group": ({"group": "g0"}, TypeError),
    "int-failed": ({"failed": 0}, TypeError),
    "extra-key": ({"extra": 1}, TypeError),
    "missing-key": ({"budget": ...}, TypeError),
}


@pytest.mark.parametrize("edit, outcome", _GROUP_CASES.values(), ids=_GROUP_CASES)
def test_a_group_record_writes_the_encoders_bytes(tmp_path, monkeypatch, edit, outcome):
    encoded = []
    real = journal_module._encode
    monkeypatch.setattr(journal_module, "_encode", lambda v: encoded.append(v) or real(v))
    costs = {3: 0.25, 1: 0.5, 2: 1.0, **(outcome if isinstance(outcome, dict) else {})}
    request = {"config": Configuration({"i": 0, "name": "gélu"}), "budget": 0.5, **edit}
    request = {k: v for k, v in request.items() if v is not ...}
    error = outcome if isinstance(outcome, type) else None
    j, lines = _ran(tmp_path, [costs], [request] * 2, error)
    header = {"method": "adhoc", "t": "header"}
    if error is not None:
        assert lines == [] and encoded == [header]
        return
    groups = j.of_type("group")
    assert len(lines) == 8 and [g["seeds"] for g in groups] == [[3, 1, 2]] * 2
    assert all(r["config"] is j.records[0]["config"] for r in j.records[:4])
    assert all(g["failed"] is (g["mean_cost"] is None) for g in groups)
    # the template encodes nothing but each group's config, and an infinite
    # mean cost, whose text is the encoder's
    mean = groups[0]["mean_cost"]
    extra = [] if mean is None or math.isfinite(mean) else [mean]
    assert encoded == [header, *([request["config"].values, *extra] * 2)]


@settings(max_examples=200, deadline=None)
@given(group=st.integers(0, 2**40), budget=st.floats(1e-9, 1.0), purpose=_texts,
       tags=st.none() | st.dictionaries(_texts, st.integers(), max_size=3),
       spend=_floats, mean_cost=st.none() | _floats, data=st.data())
def test_runner_shaped_group_records_write_the_encoders_bytes(group, budget, purpose, tags,
                                                              spend, mean_cost, data):
    values = {"group": group, "budget": budget, "purpose": purpose, "tags": tags,
              "spend": spend, "mean_cost": mean_cost, "trials": data.draw(_trials(budget))}
    config = {"lr": 0.5, "name": '"config": null'}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.log")
        j = Journal.create(path)
        j.write_header({"method": "x"})
        j.append_group(config, **values)
        j.append_group(config, **values)
        j.close()
        lines = _lines_of(path)
    records = _expected_records(1, config, values)
    records += _expected_records(len(records) + 1, config, values)
    assert lines == [_ENCODE(r) for r in records]
    _assert_lines_are_the_encoded_kept_records(j, lines)


# all finite: two of the largest overflow a mean, the smallest underflows it
_costs = st.none() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.25, 3, True, np.float64(0.1)]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _planned_runs(draw):
    """Seeds, the groups of a run in order, whether it packs checkpoints and
    the number of groups a cut journal keeps."""
    seeds = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    groups = [
        {"costs": {seed: draw(_costs) for seed in seeds},
         "name": draw(st.just('"config": null') | _texts),
         "budget": draw(st.sampled_from([1, 1.0, 0.5, 0.1 + 0.2, 5e-324]) | st.floats(1e-9, 1.0)),
         "purpose": draw(st.sampled_from(["tune", "test", "naïve ☃", ""]) | _texts),
         "tags": draw(st.none() | st.dictionaries(_texts, st.integers(-2**70, 2**70), max_size=3)),
         "resume": i > 0 and draw(st.booleans())}  # from the checkpoints of the group before
        for i in range(draw(st.integers(1, 4)))
    ]
    return seeds, groups, draw(st.booleans()), draw(st.integers(0, len(groups)))


def _without_wall_time(lines: list[str]) -> list[str]:
    return [json.dumps({**json.loads(line), "wall_time": 0}, sort_keys=True) for line in lines]


_OVERFLOWING = [  # finite costs whose means are +inf and -inf
    {"costs": {0: 1.7e308, 1: 1.7e308}, "name": '"config": null', "budget": 0.5,
     "purpose": "tune", "tags": {"rung": 0}, "resume": False},
    {"costs": {0: -1.7e308, 1: -1.7e308}, "name": "x", "budget": 1, "purpose": "naïve ☃",
     "tags": None, "resume": True},
]


@settings(max_examples=100, deadline=None)
@given(plan=_planned_runs())
@example(plan=([0, 1], _OVERFLOWING, True, 1))
@example(plan=([0, 1], _OVERFLOWING, False, 0))
def test_runner_shaped_trial_records_write_the_encoders_bytes(plan):
    # the runner itself: every line is the encoding of its kept record, and
    # the run replays whole and resumes from a cut after any group
    seeds, groups, packed, cut = plan
    objective = _Scripted([g["costs"] for g in groups])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.log")
        checkpoint_dir = os.path.join(tmp, "checkpoints") if packed else None

        def run(journal):
            runner = TrialRunner(objective, seeds, journal=journal, checkpoint_dir=checkpoint_dir)
            results = []
            for i, g in enumerate(groups):
                config = Configuration({"config": None, "i": i, "name": g["name"]})
                resume = results[-1].checkpoints if g["resume"] else None
                results.append(runner.evaluate_group(config, g["budget"], purpose=g["purpose"],
                                                     resume=resume, tags=g["tags"]))
            runner.close()
            journal.close()
            return journal, [r.per_seed_cost for r in results]

        whole, costs = run(Journal.create(path))
        lines = _lines_of(path)
        _assert_lines_are_the_encoded_kept_records(whole, lines)
        assert all(type(c) in (float, type(None)) for cs in costs for c in cs)
        # replayed whole, the run writes nothing; cut after a group, it
        # writes what the uninterrupted run wrote, bar wall time
        replayed, replayed_costs = run(Journal.open_for_resume(path))
        assert not replayed.replaying and _lines_of(path) == lines
        assert replayed_costs == costs
        ends = [i for i, r in enumerate(whole.records, start=1) if r["t"] == "group"]
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "".join(line + "\n" for line in lines[:ends[cut - 1] if cut else 0]))
        resumed, resumed_costs = run(Journal.open_for_resume(path))
        assert resumed_costs == costs
        assert _without_wall_time(_lines_of(path)) == _without_wall_time(lines)
        _assert_lines_are_the_encoded_kept_records(resumed, _lines_of(path))


def test_a_live_valley_run_writes_one_pack_write_per_group(tmp_path, monkeypatch):
    writes = []
    real = CheckpointPack.open_for_append

    def counted(directory):
        pack = real(directory)
        fh = pack._writer

        class Counting:
            def write(self, data):
                writes.append(data)
                return fh.write(data)

            def __getattr__(self, name):
                return getattr(fh, name)

        pack._writer = Counting()
        return pack

    monkeypatch.setattr(CheckpointPack, "open_for_append", staticmethod(counted))
    run_repetition(
        str(tmp_path), MethodSpec("dehb", options={"min_budget": 0.25, "eta": 2}),
        "x0: (0.0, 1.0)\nx1: (0.0, 1.0)\n",
        ObjectiveSpec("seeded_valley", {}), SeedPlan([0, 1, 2, 3, 4], [5, 6]), 4,
        rng_seed=0, repetition=0,
    )
    trials = Journal.load(str(tmp_path / JOURNAL_NAME)).of_type("trial")
    groups = {}
    for t in trials:
        assert t["ckpt"] is not None  # every valley trial leaves a checkpoint
        groups.setdefault(t["group"], []).append(os.path.basename(t["ckpt"]).encode())
    assert len(groups) > 5 and len(trials) > len(groups)
    assert len(writes) == len(groups)
    for data, names in zip(writes, groups.values()):
        assert data == b"".join(b'{"name": "%s", "size": 0}\n' % name for name in names)


def test_a_live_valley_run_never_encodes_a_trial_record(tmp_path, monkeypatch):
    encoded = []
    real = journal_module._encode
    monkeypatch.setattr(journal_module, "_encode", lambda v: encoded.append(v) or real(v))
    run_repetition(
        str(tmp_path), MethodSpec("dehb", options={"min_budget": 0.25, "eta": 2}),
        "x0: (0.0, 1.0)\nx1: (0.0, 1.0)\n",
        ObjectiveSpec("seeded_valley", {}), SeedPlan([0, 1, 2, 3, 4], [5, 6]), 4,
        rng_seed=0, repetition=0,
    )
    records = Journal.load(str(tmp_path / JOURNAL_NAME)).records
    groups = [r for r in records if r["t"] == "group"]
    assert len(groups) > 5 and {len(g["seeds"]) for g in groups} == {5, 1}
    # the header, each group's config, and the records appended one by one
    # (incumbents, complete): trial and group records come from the template
    want = [encoded[0]]
    for r in records:
        if r["t"] == "group":
            want.append(r["config"])
        elif r["t"] != "trial":
            want.append(r)
    assert encoded[0]["t"] == "header"
    assert encoded == want


# every line goes through one C encoder per thread, built once


@settings(max_examples=100, deadline=None)
@given(record=_records)
def test_the_kept_encoder_writes_the_encoders_bytes(record):
    assert journal_module._encode(record) == _ENCODE(record)


def test_an_encode_that_raises_leaves_the_next_one_whole():
    values = [object()]
    record = {"outer": {"inner": values}}
    with pytest.raises(TypeError):
        journal_module._encode(record)
    values[0] = 1  # the containers it stood in are encoded again, not "circular"
    assert journal_module._encode(record) == _ENCODE(record)
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        journal_module._encode(loop)
    loop["a"].clear()
    assert journal_module._encode(loop) == '{"a": []}'


def test_threads_encoding_one_record_each_get_its_bytes():
    record = {"config": {"lr": 0.5, "sizes": [1, 2, {"k": None}]}, "cost": -0.25}
    want = _ENCODE(record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: journal_module._encode(record), range(4000)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4000


class _CountingFile:
    def __init__(self, fh):
        self.fh, self.flushes = fh, 0

    def write(self, text):
        return self.fh.write(text)

    def flush(self):
        self.flushes += 1
        self.fh.flush()

    def close(self):
        self.fh.close()


def _counted(tmp_path) -> tuple[Journal, _CountingFile]:
    j = Journal.create(str(tmp_path / "journal.log"))
    j.write_header({"method": "x"})
    j._fh = counting = _CountingFile(j._fh)
    return j, counting


def test_a_group_of_trials_is_flushed_once(tmp_path):
    j, counting = _counted(tmp_path)
    trials = [(seed, 0.5, "", 1e-5, None, 0.5) for seed in range(5)]
    j.append_group({"lr": 0.5}, **_group_values(trials=trials))
    assert counting.flushes == 1
    j.append({"t": "exploit", "interval": 1})
    assert counting.flushes == 2
    j.close()
    assert [r["seq"] for r in j.records] == list(range(1, 8))


def test_append_flushes_every_record_trial_included(tmp_path):
    j, counting = _counted(tmp_path)
    for n, kind in enumerate(["trial", "trial", "group", "exploit"], start=1):
        j.append({"t": kind, "group": 0})
        assert counting.flushes == n
    j.close()


def test_append_group_while_replaying_raises_and_writes_nothing(tmp_path):
    path = str(tmp_path / "journal.log")
    _written_journal(path, 2)
    before = open(path, "rb").read()
    j = Journal.open_for_resume(path)
    records = list(j.records)
    with pytest.raises(ReplayMismatch, match="diverged on group 0: seed=0 recorded vs 1 requested"):
        j.append_group(_CONFIG, **_group_values(trials=[(1, *_TRIAL[1:])]))
    assert len(j._pending) == len(records)  # a mismatch consumes nothing
    j.append_group(_CONFIG, **_group_values(trials=[_TRIAL]))
    assert list(j._pending) == records[2:]
    j.close()
    assert j.records == records
    assert open(path, "rb").read() == before


@pytest.mark.parametrize("payload", [0, 4000])  # the second overflows the file buffer
def test_a_kill_before_the_group_record_resumes_to_the_groups_before_it(tmp_path, payload):
    path = str(tmp_path / "journal.log")
    pid = os.fork()
    if pid == 0:  # the child appends and is killed before the group record
        try:
            j = Journal.create(path)
            j.write_header({"method": "x"})
            for g in range(2):
                j.append({"t": "trial", "group": g, "seed": 0})
                j.append({"t": "group", "group": g})
            for seed in range(5):
                j.append({"t": "trial", "group": 2, "seed": seed, "pad": "x" * payload})
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    j = Journal.open_for_resume(path)
    j.close()
    assert j.records == [
        {"t": "trial", "group": 0, "seed": 0, "seq": 1}, {"t": "group", "group": 0, "seq": 2},
        {"t": "trial", "group": 1, "seed": 0, "seq": 3}, {"t": "group", "group": 1, "seq": 4},
    ]


# ---------------------------------------------------------------------------
# Journal.open_for_resume: one read, a rewrite only when records were dropped


_CONFIG = {"lr": 0.5}
_TRIAL = (0, 0.5, "", 1e-5, None, 0.5)  # one seed's (seed, cost, error, wall_time, ckpt, frac)


def _written_journal(path: str, n: int) -> None:
    j = Journal.create(path)
    j.write_header({"method": "x"})
    for g in range(n):
        j.append_group(_CONFIG, **_group_values(group=g, trials=[_TRIAL]))
    j.close()


def _counting_open(monkeypatch) -> list:
    modes = []

    def counting(path, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(journal_module, "open", counting, raising=False)
    return modes


def test_resume_of_an_intact_journal_reads_it_once_and_rewrites_nothing(tmp_path, monkeypatch):
    path = str(tmp_path / "journal.log")
    _written_journal(path, 3)
    before = open(path, "rb").read()
    modes = _counting_open(monkeypatch)
    j = Journal.open_for_resume(path)
    assert modes == ["r", "a"]
    for g in range(3):
        values = _group_values(group=g, trials=[_TRIAL])
        trial, _ = _expected_records(2 * g + 1, _CONFIG, values)
        assert j.take_group_if_pending(1) == [trial]
        j.append_group(_CONFIG, **values)
    assert not j.replaying and j.take_group_if_pending(1) is None
    j.close()
    assert open(path, "rb").read() == before


def test_a_replayed_run_encodes_only_its_header_and_writes_nothing(tmp_path, monkeypatch):
    path, ckpts = str(tmp_path / "journal.log"), str(tmp_path / "checkpoints")

    def run(journal):
        journal.write_header({"method": "pbt"})
        obj = NoisySphere(dimension=3, noise=0.05)
        runner = TrialRunner(obj, [0, 1, 2], journal=journal, checkpoint_dir=ckpts)
        run_pbt(obj.space, runner, np.random.default_rng(3), population_size=4,
                num_intervals=4, quantile=0.25)
        runner.close()
        journal.close()

    run(Journal.create(path))
    before = open(path, "rb").read()
    pack = open(os.path.join(ckpts, "checkpoints.pack"), "rb").read()
    encoded = []
    real = journal_module._encode
    monkeypatch.setattr(journal_module, "_encode", lambda v: encoded.append(v) or real(v))
    resumed = Journal.open_for_resume(path)
    run(resumed)
    assert not resumed.replaying
    groups = resumed.of_type("group")
    assert len(groups) == 16 and {r["t"] for r in resumed.records} > {"exploit", "explore"}
    # each replayed config is copied by _plain, never encoded
    assert encoded == [{"method": "pbt", "t": "header"}]
    assert open(path, "rb").read() == before
    assert open(os.path.join(ckpts, "checkpoints.pack"), "rb").read() == pack


@pytest.mark.parametrize("tail", ['{"t": "tri', '{"group": 3, "seed": 0, "seq": 7, "t": "trial"}\n'])
def test_resume_rewrites_the_file_when_records_were_dropped(tmp_path, monkeypatch, tail):
    path = str(tmp_path / "journal.log")
    _written_journal(path, 3)
    intact = open(path, "rb").read()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(tail)
    modes = _counting_open(monkeypatch)
    j = Journal.open_for_resume(path)
    j.close()
    assert modes == ["r", "w", "a"]
    assert j.warnings and len(j.records) == 6
    assert open(path, "rb").read() == intact


# ---------------------------------------------------------------------------
# Objectives: one encoding per configuration


def _fresh_cost(cls, values: dict, budget: float, seed: int):
    return cls(dimension=2).evaluate(Configuration(dict(values)), budget, seed)


@pytest.mark.parametrize("cls", [SeededValley, NoisySphere])
def test_one_encoding_serves_every_seed_of_a_group(cls, monkeypatch):
    calls = []
    real = objectives_module.to_unit

    def counting(space, config):
        calls.append(config)
        return real(space, config)

    monkeypatch.setattr(objectives_module, "to_unit", counting)
    obj = cls(dimension=2)
    cfg = Configuration({"x0": 0.25, "x1": 0.75})
    for seed in range(5):
        cost, ckpt = obj.evaluate(cfg, 0.5, seed)
        want, _ = _fresh_cost(cls, cfg.values, 0.5, seed)
        assert cost == want
    assert sum(c is cfg for c in calls) == 1
    # an equal configuration in another object is not encoded again
    other = Configuration({"x0": 0.25, "x1": 0.75})
    obj.evaluate(other, 0.5, 0)
    assert sum(c is other for c in calls) == 0


@pytest.mark.parametrize("cls", [SeededValley, NoisySphere])
def test_a_known_configuration_in_a_new_object_on_a_new_seed_costs_what_a_fresh_one_gives(cls):
    obj = cls(dimension=2)
    values = {"x0": 0.25, "x1": 0.75}
    for seed in (0, 1):
        obj.evaluate(Configuration(dict(values)), 0.5, seed)
    obj.evaluate(Configuration({"x0": 0.5, "x1": 0.5}), 0.5, 0)  # another in the slot
    for seed in (2, 3):
        cost, _ = obj.evaluate(Configuration(dict(values)), 0.5, seed)
        assert cost.hex() == _fresh_cost(cls, values, 0.5, seed)[0].hex()


@pytest.mark.parametrize("cls", [SeededValley, NoisySphere])
def test_configurations_apart_in_type_or_sign_are_encoded_apart(cls, monkeypatch):
    space = parse_space("layers: int[0, 8]\nmomentum: (-1.0, 1.0)\n")
    # the integer takes 1 and True, the continuous 1, 1.0, 0.0 and -0.0
    values = [{"layers": layers, "momentum": momentum}
              for layers in (1, True) for momentum in (1, 1.0, 0.0, -0.0)]
    want = [cls(space=space).evaluate(Configuration(dict(v)), 0.5, 3) for v in values]
    calls = []
    real = objectives_module.to_unit

    def counting(space, config):
        calls.append(dict(config.values))
        return real(space, config)

    monkeypatch.setattr(objectives_module, "to_unit", counting)
    obj = cls(space=space)
    for _ in range(2):
        for v, (cost, _) in zip(values, want):
            got, _ = obj.evaluate(Configuration(dict(v)), 0.5, 3)
            assert got == cost
    assert [json.dumps(c) for c in calls] == [json.dumps(v) for v in values]


@pytest.mark.parametrize("cls", [SeededValley, NoisySphere])
def test_memo_encodes_again_after_values_change(cls):
    obj = cls(dimension=2)
    cfg = Configuration({"x0": 0.25, "x1": 0.75})
    obj.evaluate(cfg, 1.0, 3)
    for x0 in (0.5, 1.0, 1, 0.0, -0.0):
        cfg.values["x0"] = x0
        cost, ckpt = obj.evaluate(cfg, 1.0, 3)
        want, _ = _fresh_cost(cls, cfg.values, 1.0, 3)
        assert cost == want
    # the digest tells 1, 1.0 and True apart; True is not a continuous value
    cfg.values["x0"] = True
    with pytest.raises(SpaceError):
        obj.evaluate(cfg, 1.0, 3)



def test_valley_hashes_each_text_and_derives_each_optimum_once():
    objectives_module._seed_optimum.cache_clear()
    objectives_module._text_words.cache_clear()
    obj = SeededValley(dimension=2)
    want = {}
    for k in range(4):
        config = Configuration({"x0": k / 5, "x1": 0.5})
        for seed in (3, 1, 2):
            want[k, seed] = _fresh_cost(SeededValley, config.values, 1.0, seed)[0]
            assert obj.evaluate(config, 1.0, seed)[0] == want[k, seed]
    # one optimum per (tag, seed, dimension, sigma), shared by ``obj`` and
    # every fresh objective above
    info = objectives_module._seed_optimum.cache_info()
    assert (info.misses, info.hits) == (3, 24 - 3)
    # the tag, "shift", three seeds and four digests, each hashed once over
    # 24 noise streams (12 here, 12 fresh) and 3 optimum streams, of three
    # items each
    info = objectives_module._text_words.cache_info()
    assert (info.misses, info.hits) == (9, 3 * (24 + 3) - 9)


def test_threads_sharing_an_objective_get_the_sequential_costs():
    obj = SeededValley(dimension=3)
    configs = [Configuration({f"x{i}": (k * 0.137 + i * 0.31) % 1.0 for i in range(3)})
               for k in range(40)]
    want = [[SeededValley(dimension=3).evaluate(c, 0.5, s)[0] for s in range(5)] for c in configs]

    def costs(cfg):
        return [obj.evaluate(cfg, 0.5, s)[0] for s in range(5)]

    # threads switch inside evaluate, between a slot's digest and its unit vector
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(costs, configs * 20, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 20


def test_threads_sharing_a_gridworld_get_the_sequential_outcomes():
    # each thread continues runs the other may have started or overwritten
    rng = np.random.default_rng(11)
    configs = [from_unit(GridworldQ.space, rng.random(4)) for _ in range(6)]
    calls = [(c, budget, seed) for c in configs for budget in (0.1, 0.4, 1.0) for seed in (0, 1)]

    def outcome(obj, call):
        cost, payload = obj.evaluate(*call)
        return cost.hex(), payload

    want = [outcome(GridworldQ(total_steps=300), call) for call in calls]
    shared = GridworldQ(total_steps=300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(lambda order: [outcome(shared, calls[i]) for i in order], order)
                    for order in (range(len(calls)), range(len(calls) - 1, -1, -1))]
            forward, backward = (run.result(timeout=120) for run in runs)
    finally:
        sys.setswitchinterval(interval)
    assert forward == want
    assert backward == want[::-1]


def test_a_dehb_iteration_trains_from_step_0_only_its_lowest_rung_and_test_seeds(
    tmp_path, monkeypatch
):
    # gridworld's benchmark plan: one iteration of 8 rungs, 184 groups
    started = []
    real = GridworldQ._fresh_state
    monkeypatch.setattr(GridworldQ, "_fresh_state",
                        lambda obj, seed: started.append(seed) or real(obj, seed))
    space = ("learning_rate: log(1e-07, 1.0)\nepsilon: (0.0, 1.0)\n"
             "gamma: (0.5, 0.999)\nepsilon_decay: (0.9, 1.0)\n")
    run_repetition(
        str(tmp_path), MethodSpec("dehb", options={"min_budget": 0.01, "eta": 1.9}), space,
        ObjectiveSpec("gridworld_q", {"total_steps": 300}), SeedPlan([7], list(range(20, 30))),
        8, rng_seed=5, repetition=0,
    )
    trials = Journal.load(str(tmp_path / JOURNAL_NAME)).of_type("trial")
    lowest = min(t["budget"] for t in trials)
    fresh = [t for t in trials if t["budget"] == lowest or t["purpose"] == "test"]
    assert len(trials) == 184 + 10 and len(fresh) == 89 + 10
    assert sorted(started) == sorted(t["seed"] for t in fresh)


# ---------------------------------------------------------------------------
# PBT-GP: one fit per point set

# sha256 of the journal below (without wall time), as the code wrote it when
# every loser fitted its own GP: 12 fits for 12 suggestions, 3 model restarts
PBT_GP_DIGEST = "f86c350351598b0895490540bcae6ab8dd24e418d8b08371c179c311865bd3fe"


def _pbt_gp_run(monkeypatch, fit):
    fits, suggestions, checks = [], [], []
    real_suggest = pbt_module.suggest_candidate
    real_check = pbt_module.kernel_restart_check

    def counting_fit(x_config, x_time, y, **kwargs):
        fits.append(hashlib.sha256(x_config.tobytes() + x_time.tobytes() + y.tobytes()
                                   + kwargs["length_scale_grid"].tobytes()).hexdigest())
        return fit(x_config, x_time, y, **kwargs)

    def counting_suggest(*args, **kwargs):
        suggestions.append(1)
        return real_suggest(*args, **kwargs)

    def recording_check(*args, **kwargs):
        checks.append(real_check(*args, **kwargs))
        return checks[-1]

    monkeypatch.setattr(pbt_module, "fit_gp", counting_fit)
    monkeypatch.setattr(pbt_module, "suggest_candidate", counting_suggest)
    monkeypatch.setattr(pbt_module, "kernel_restart_check", recording_check)
    obj = NoisySphere(dimension=3, noise=0.05)
    journal = Journal()
    journal.write_header({"method": "pbt-gp"})
    run_pbt(obj.space, TrialRunner(obj, [0, 1, 2], journal=journal),
            np.random.default_rng(3), population_size=8, num_intervals=8, quantile=0.25,
            explore_mode="gp", warmstart_runs=0, restart_patience=1)
    records = [{k: v for k, v in r.items() if k != "wall_time"} for r in journal.records]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return checks.count("restart"), journal, digest, fits, suggestions


def test_pbt_gp_fits_each_point_set_once_and_writes_the_same_journal(monkeypatch):
    restarts, journal, digest, fits, suggestions = _pbt_gp_run(monkeypatch, pbt_module.fit_gp)
    assert restarts == 3
    assert digest == PBT_GP_DIGEST
    assert len(suggestions) == 12 and len(fits) == 6
    assert len(set(fits)) == len(fits)
    modes = [r["mode"] for r in journal.of_type("explore")]
    assert modes.count("gp") == len(suggestions)


def test_pbt_gp_remembers_a_failed_fit(monkeypatch):
    def failing(*args, **kwargs):
        raise GpFitError("forced")

    _, journal, _, fits, suggestions = _pbt_gp_run(monkeypatch, failing)
    modes = [r["mode"] for r in journal.of_type("explore")]
    assert suggestions == [] and set(modes) == {"gp_fallback"}
    # 2 losers per interval: the second one's explore does not refit
    assert 0 < len(fits) <= len(modes) // 2
    assert len(set(fits)) == len(fits)


@pytest.mark.parametrize("explore_mode", ["gp", "perturb"])
def test_pbt_encodes_each_member_configuration_once(monkeypatch, explore_mode):
    calls = []
    real = pbt_module.to_unit

    def counting(space, config):
        calls.append(config)
        return real(space, config)

    monkeypatch.setattr(pbt_module, "to_unit", counting)
    obj = NoisySphere(dimension=3, noise=0.05)
    journal = Journal()
    journal.write_header({"method": "pbt"})
    run_pbt(obj.space, TrialRunner(obj, [0, 1, 2], journal=journal),
            np.random.default_rng(3), population_size=8, num_intervals=8, quantile=0.25,
            explore_mode=explore_mode, warmstart_runs=0, restart_patience=1)
    if explore_mode == "perturb":  # no GP reads the points
        assert calls == []
        return
    # a point needs a finite cost before it: every group after the first interval
    held = {(g["tags"]["member"], json.dumps(g["config"], sort_keys=True))
            for g in journal.of_type("group") if g["tags"]["interval"] > 1 and not g["failed"]}
    assert len(calls) == len(held) < 8 * 7  # 8 members at each of 7 intervals, before
