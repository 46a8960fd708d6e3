"""Work done once per distinct input or group: journal lines and their
flushes, encodings, GP fits, and the single read of a resumed journal."""
import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autotune.journal as journal_module
import autotune.objectives as objectives_module
import autotune.pbt as pbt_module
from autotune.gp import GpFitError
from autotune.journal import Journal
from autotune.objectives import NoisySphere, SeededValley, config_digest
from autotune.pbt import run_pbt
from autotune.runner import TrialRunner
from autotune.space import Configuration, SpaceError, parse_space

# ---------------------------------------------------------------------------
# Journal.append: one serialisation, the same bytes

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


def test_a_group_of_trials_is_flushed_once(tmp_path):
    j = Journal.create(str(tmp_path / "journal.log"))
    j.write_header({"method": "x"})
    j._fh = counting = _CountingFile(j._fh)
    for seed in range(5):
        j.append({"t": "trial", "group": 0, "seed": seed})
    assert counting.flushes == 0
    j.append({"t": "group", "group": 0})
    assert counting.flushes == 1
    j.append({"t": "exploit", "interval": 1})
    assert counting.flushes == 2
    j.close()


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


def _written_journal(path: str, n: int) -> None:
    j = Journal.create(path)
    j.write_header({"method": "x"})
    for g in range(n):
        j.append({"t": "trial", "group": g, "seed": 0})
        j.append({"t": "group", "group": g})
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
        assert j.take_group_if_pending({"group": g}) is not None
    assert not j.replaying
    j.close()
    assert open(path, "rb").read() == before


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
        want, want_ckpt = _fresh_cost(cls, cfg.values, 0.5, seed)
        assert cost == want and ckpt.key == want_ckpt.key
    assert sum(c is cfg for c in calls) == 1
    # an equal configuration in another object is not encoded again
    other = Configuration({"x0": 0.25, "x1": 0.75})
    obj.evaluate(other, 0.5, 0)
    assert sum(c is other for c in calls) == 0


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
        for v, (cost, ckpt) in zip(values, want):
            got, got_ckpt = obj.evaluate(Configuration(dict(v)), 0.5, 3)
            assert got == cost and got_ckpt.key == ckpt.key
    assert [json.dumps(c) for c in calls] == [json.dumps(v) for v in values]


@pytest.mark.parametrize("cls", [SeededValley, NoisySphere])
def test_memo_encodes_again_after_values_change(cls):
    obj = cls(dimension=2)
    cfg = Configuration({"x0": 0.25, "x1": 0.75})
    obj.evaluate(cfg, 1.0, 3)
    for x0 in (0.5, 1.0, 1, 0.0, -0.0):
        cfg.values["x0"] = x0
        cost, ckpt = obj.evaluate(cfg, 1.0, 3)
        want, want_ckpt = _fresh_cost(cls, cfg.values, 1.0, 3)
        assert cost == want
        assert ckpt.key == want_ckpt.key
        assert ckpt.key.split(":")[1] == config_digest(cfg)[:12]
    # the digest tells 1, 1.0 and True apart; True is not a continuous value
    cfg.values["x0"] = True
    with pytest.raises(SpaceError):
        obj.evaluate(cfg, 1.0, 3)


def test_threads_sharing_an_objective_get_the_sequential_costs():
    obj = SeededValley(dimension=3)
    configs = [Configuration({f"x{i}": (k * 0.137 + i * 0.31) % 1.0 for i in range(3)})
               for k in range(40)]
    want = [[SeededValley(dimension=3).evaluate(c, 0.5, s)[0] for s in range(5)] for c in configs]

    def costs(cfg):
        return [obj.evaluate(cfg, 0.5, s)[0] for s in range(5)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(costs, configs * 5))
    assert got == want * 5


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
