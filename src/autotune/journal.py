"""Append-only run journal: line-delimited JSON, one record per line.

The first record is the header (method, space text + digest, objective spec,
seed plan, budget, rng seed). Every subsequent record carries a strictly
increasing ``seq``. :meth:`Journal.append_group` writes an evaluation group,
its trial records and then its group record, and flushes it once; every
other append flushes. So a record whose append returned survives a process
kill; the trial records of a group cut short are lost or torn, and resume
drops those anyway (see :func:`_trim_torn_group`).

A journal opened for resume replays its existing records: every record the
re-run appends is checked against the recorded one on every field but
``seq`` and ``wall_time``, and consumed instead of written, so a resumed run
continues exactly where the interrupted one stopped. A group replays
through the live path: the objective's outputs are read from its recorded
trial records, and every other field is derived again and checked. A
truncated trailing line (torn write) is dropped with a logged warning;
corruption before the last record is a hard error.

Every line is ``json.JSONEncoder(sort_keys=True).encode`` of its record, and
the record kept in memory is what a reader parses back from it. The journal
alone builds a group's records, from the values the runner hands
:meth:`Journal.append_group`, and writes a live group's lines from one
template per group, which holds what they share (the sorted keys,
``budget``, ``group``, ``purpose`` and the config text, encoded once) and
takes each record's other values as the C encoder writes them. The runner
makes those values exact types, so every record fits the template.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

HEADER = "header"
TRIAL = "trial"
GROUP = "group"
EXPLOIT = "exploit"
EXPLORE = "explore"
INCUMBENT = "incumbent"
COMPLETE = "complete"
DONE = "done"  # a trial record's status
FAILED = "failed"
TUNING = ("tune", "warmstart")  # the group purposes a run's budget pays for

log = logging.getLogger(__name__)

# fields excluded when comparing a replayed record to the recorded one
_VOLATILE = ("seq", "wall_time")


def _kept_encoder(template: json.JSONEncoder):
    """``template.encode``, for an ``ensure_ascii`` encoder, through one C
    encoder per thread: ``template.encode`` builds a new C encoder on every
    call, and each thread here builds one, with the markers dict of its
    circular-reference check, and keeps it."""
    if c_make_encoder is None:  # a Python built without json's C accelerator
        return template.encode
    encoders = threading.local()

    def encode(value) -> str:
        try:
            markers, encoder = encoders.pair
        except AttributeError:
            markers = {}
            encoder = c_make_encoder(
                markers, template.default, encode_basestring_ascii, template.indent,
                template.key_separator, template.item_separator, template.sort_keys,
                template.skipkeys, template.allow_nan,
            )
            encoders.pair = markers, encoder
        try:
            return "".join(encoder(value, 0))
        except BaseException:
            markers.clear()  # the containers it was inside when it raised
            raise

    return encode


_encode = _kept_encoder(json.JSONEncoder(sort_keys=True))

# the types json.loads gives scalars back as, each for a value of that exact type
_LEAVES = frozenset((str, int, float, bool, type(None)))


class JournalError(RuntimeError):
    pass


class JournalCorrupt(JournalError):
    """Unrecoverable journal damage (mid-file corruption, bad header)."""


class ReplayMismatch(JournalError):
    """A resumed run diverged from the recorded one."""


def space_digest(space_text: str) -> str:
    return hashlib.sha256(space_text.encode("utf-8")).hexdigest()


def _difference(recorded: dict, current: dict) -> str | None:
    """The first key, in sorted order, whose value differs between two
    records, ignoring ``_VOLATILE``; None when none does."""
    keys = (recorded.keys() | current.keys()).difference(_VOLATILE)
    # ... marks a missing key; no JSON value equals it
    return min((k for k in keys if recorded.get(k, ...) != current.get(k, ...)), default=None)


class _NotPlain(Exception):
    """A value that only its JSON line shows the parsed form of."""


def _plain(value):
    """``value`` as ``json.loads`` gives it back from its JSON text, in new
    containers: dicts with their ``str`` keys sorted, lists for lists and
    tuples, ``float`` for a float subclass such as ``np.float64``.
    Exact-type scalars are returned as they are. Raises :class:`_NotPlain`
    for any other type and for a key that is not a ``str``."""
    t = type(value)
    if t is dict:
        out = {}
        for k in sorted(value):
            if type(k) is not str:
                raise _NotPlain
            v = value[k]
            out[k] = v if type(v) in _LEAVES else _plain(v)
        return out
    if t is list or t is tuple:
        return [v if type(v) in _LEAVES else _plain(v) for v in value]
    if isinstance(value, float):
        return float(value)
    raise _NotPlain


def _kept(record: dict, line: str) -> dict:
    """What ``json.loads(line)`` gives, where ``line`` is ``record``'s
    encoding; built from ``record`` unless it holds other types."""
    try:
        return _plain(record)
    except _NotPlain:
        return json.loads(line)


_quote = encode_basestring_ascii  # the C encoder's text for a str
_repr = float.__repr__  # its text for a finite exact float


def _float(value: float) -> str:
    """The C encoder's text for an exact float: a group's ``mean_cost`` is
    infinite when its finite per-seed costs sum past float range."""
    return _repr(value) if math.isfinite(value) else _encode(value)


def _group_records(seq: int, config: dict, group: int, budget: float, purpose: str,
                   tags: dict | None, spend: float, mean_cost: float | None,
                   trials: list[tuple]) -> list[dict]:
    """The records of one group, numbered from ``seq``, each holding
    ``config`` and its keys in sorted order: a trial record per ``(seed,
    cost, error, wall_time, ckpt, frac)`` in ``trials``, failed where its
    cost is None, and then the group record, failed when ``mean_cost`` is
    None, with ``tags``, if any, sorted."""
    records = [
        {"budget": budget, "ckpt": ckpt, "config": config, "cost": cost, "error": error,
         "frac": frac, "group": group, "purpose": purpose, "seed": seed, "seq": i,
         "status": DONE if cost is not None else FAILED, "t": TRIAL, "wall_time": wall_time}
        for i, (seed, cost, error, wall_time, ckpt, frac) in enumerate(trials, start=seq)
    ]
    last = {"budget": budget, "config": config, "failed": mean_cost is None, "group": group,
            "mean_cost": mean_cost, "purpose": purpose, "seeds": [t[0] for t in trials],
            "seq": seq + len(trials), "spend": spend, "t": GROUP}
    if tags:
        last["tags"] = {k: tags[k] for k in sorted(tags)}
    return records + [last]


def _group_lines(config_text: str, records: list[dict]) -> str:
    """The lines of one live group's records from :func:`_group_records`,
    whose config's text is ``config_text``: what encoding each record whole
    gives, written from one template of what they share (the sorted keys,
    ``budget``, ``group``, ``purpose`` and the config text). Every value is
    of the exact type the runner hands over, and every float but the
    group's ``spend`` and ``mean_cost`` is finite."""
    *trials, last = records
    budget, group, purpose = _repr(last["budget"]), last["group"], _quote(last["purpose"])
    head = '{"budget": ' + budget + ', "ckpt": '
    middle = ', "config": ' + config_text + ', "cost": '
    shared = f', "group": {group}, "purpose": {purpose}, "seed": '
    lines = [
        f'{head}{"null" if r["ckpt"] is None else _quote(r["ckpt"])}'
        f'{middle}{"null" if r["cost"] is None else _repr(r["cost"])}'
        f', "error": {_quote(r["error"])}'
        f', "frac": {"null" if r["frac"] is None else _repr(r["frac"])}'
        f'{shared}{r["seed"]}, "seq": {r["seq"]}, "status": {_quote(r["status"])}'
        f', "t": "trial", "wall_time": {_repr(r["wall_time"])}}}'
        for r in trials
    ]
    mean_cost = last["mean_cost"]
    line = (f'{{"budget": {budget}, "config": {config_text}, '
            f'"failed": {"true" if last["failed"] else "false"}, "group": {group}, '
            f'"mean_cost": {"null" if mean_cost is None else _float(mean_cost)}, '
            f'"purpose": {purpose}, "seeds": [{", ".join(map(str, last["seeds"]))}], '
            f'"seq": {last["seq"]}, "spend": {_float(last["spend"])}, "t": "group"')
    if "tags" in last:
        tags = ", ".join(f"{_quote(k)}: {v}" for k, v in last["tags"].items())
        line += ', "tags": {' + tags + "}"
    lines.append(line + "}")
    return "\n".join(lines)


@dataclass
class Journal:
    """Single-writer journal; in-memory when ``path`` is None."""

    path: str | None = None
    header: dict | None = None
    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    _pending: deque = field(default_factory=deque)  # replay queue (oldest first)
    _fh: object = None

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, path: str | None = None) -> "Journal":
        j = cls(path=path)
        if path is not None:
            if os.path.exists(path):
                raise JournalError(f"journal already exists: {path}")
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            j._fh = open(path, "a", encoding="utf-8")
        return j

    @classmethod
    def load(cls, path: str) -> "Journal":
        """Read-only parse (for reports and exports)."""
        header, records, warnings = _parse_lines(path, _read_lines(path))
        _log_drops(path, warnings)
        return cls(path=path, header=header, records=records, warnings=warnings)

    @classmethod
    def open_for_resume(cls, path: str) -> "Journal":
        lines = _read_lines(path)
        header, records, warnings = _parse_lines(path, lines)
        records = _trim_torn_group(records, warnings)
        _log_drops(path, warnings)
        if len(lines) > 1 + len(records):
            # torn or incomplete trailing records were dropped: rewrite the
            # file so the on-disk journal matches the replayed state
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines[: 1 + len(records)]) + "\n")
        j = cls(path=path, header=header, records=list(records), warnings=warnings)
        j._pending = deque(records)
        j._fh = open(path, "a", encoding="utf-8")
        return j

    # -- writing ------------------------------------------------------------

    def write_header(self, header: dict) -> None:
        header = {**header, "t": HEADER}
        line = _encode(header)
        header = _kept(header, line)
        if self.header is not None:
            key = _difference(self.header, header)
            if key is not None:
                raise ReplayMismatch(
                    f"resumed run has a different header: {key} is "
                    f"{self.header.get(key)!r} in the journal, {header.get(key)!r} now"
                )
            return
        self.header = header
        self._write_line(line)

    @property
    def replaying(self) -> bool:
        return bool(self._pending)

    def append(self, record: dict) -> int:
        """Append (or check against the replay queue); returns the seq number.

        Keys, at every level of ``record``, must be ``str``. The record is
        written as one sorted JSON line and flushed, and the record kept is
        a copy that equals what a reader of that line parses: the same
        sorted keys, lists for tuples, plain floats, exact float values, and
        no container shared with ``record``. While the journal replays, the
        record is checked and consumed by :meth:`_replay`.
        """
        if self.header is None:
            raise JournalError("header must be written before records")
        if self._pending:
            return self._replay([record])
        seq = (self.records[-1]["seq"] + 1) if self.records else 1
        record = {**record, "seq": seq}
        line = _encode(record)
        self.records.append(_kept(record, line))
        self._write_line(line)
        return seq

    def append_group(self, config: dict, group: int, budget: float, purpose: str,
                     tags: dict | None, spend: float, mean_cost: float | None,
                     trials: list[tuple]) -> None:
        """Append one evaluation group, its trial records and then its group
        record (see :func:`_group_records`), each with ``config`` as its
        ``"config"``, and flush once; while the journal replays, check and
        consume the recorded group instead (see :meth:`_replay`).

        Only :meth:`autotune.runner.TrialRunner._commit` calls this, with
        values of the types it makes them: ``group`` and each seed an exact
        ``int``; ``budget``, ``spend`` and each trial's ``wall_time`` an exact
        ``float``; ``purpose``, each ``error`` and each ``ckpt`` that is not
        None an exact ``str``; each ``cost`` a finite exact ``float`` or None,
        and each ``frac`` the budget or None; ``tags`` None or a dict of
        exact ``str`` keys and ``int`` values. Each line is the one
        :meth:`append` would write (see :func:`_group_lines`), and the kept
        records share one parsed copy of ``config``, which must not be
        mutated. A live ``config`` is encoded once, and a replayed one only
        when :func:`_plain` cannot copy it.
        """
        if self.header is None:
            raise JournalError("header must be written before records")
        seq = (self.records[-1]["seq"] + 1) if self.records else 1
        values = group, budget, purpose, tags, spend, mean_cost, trials
        if self._pending:
            try:
                kept_config = _plain(config)
            except _NotPlain:
                kept_config = json.loads(_encode(config))
            self._replay(_group_records(seq, kept_config, *values))
            return
        text = _encode(config)
        records = _group_records(seq, _kept(config, text), *values)
        lines = _group_lines(text, records)
        self.records += records
        self._write_line(lines)

    def take_group_if_pending(self, trials: int) -> list[dict] | None:
        """During replay, the recorded trial records of the next evaluation
        group, which must be ``trials`` trial records and then a group
        record; None when nothing is pending. They stay queued until
        :meth:`append_group` checks the group rebuilt from them.
        """
        if not self._pending:
            return None
        queued = list(itertools.islice(self._pending, trials + 1))
        kinds = [rec.get("t") for rec in queued]
        if kinds != [TRIAL] * trials + [GROUP]:
            raise ReplayMismatch(f"resumed run diverged: expected {trials} trial "
                                 f"records and a group record, found {kinds}")
        return queued[:-1]

    def _replay(self, records: list[dict]) -> int:
        """Check ``records`` against the next queued records, each on every
        field but ``seq`` and ``wall_time``, and consume them; returns the
        last one's seq. A mismatch raises :class:`ReplayMismatch` naming the
        first field that differs. A record is encoded only on a mismatch: a
        value JSON cannot hold never equals a recorded one, so its record
        still raises as it would in a live run.
        """
        if len(self._pending) < len(records):
            raise ReplayMismatch("resumed run diverged: the replay queue ends before its records")
        for record, recorded in zip(records, self._pending):
            if {**record, "seq": recorded["seq"]} == recorded:
                continue
            current = _kept(record, _encode(record))  # canonical types, exact floats
            key = _difference(recorded, current)
            if key is not None:
                where = (f"group {recorded['group']}" if "group" in recorded
                         else f"its {recorded.get('t')} record")
                raise ReplayMismatch(
                    f"resumed run diverged on {where}: {key}={recorded.get(key)!r} "
                    f"recorded vs {current.get(key)!r} requested"
                )
        for _ in records:
            seq = self._pending.popleft()["seq"]
        return seq

    def _write_line(self, line: str) -> None:
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- queries -------------------------------------------------------------

    def of_type(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["t"] == kind]

    def spend(self) -> float:
        """Full-run equivalents spent on tuning: the groups of a ``TUNING`` purpose."""
        return math.fsum(r["spend"] for r in self.of_type(GROUP) if r.get("purpose") in TUNING)

    def final_incumbent(self) -> dict | None:
        incs = self.of_type(INCUMBENT)
        return incs[-1] if incs else None

    def is_complete(self) -> bool:
        return bool(self.of_type(COMPLETE))


def _read_lines(path: str) -> list[str]:
    if not os.path.exists(path):
        raise JournalError(f"no journal at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # Ignore a trailing empty chunk from the final newline.
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_lines(path: str, raw_lines: list[str]):
    warnings: list[str] = []
    parsed: list[dict] = []
    for i, line in enumerate(raw_lines):
        if not line.strip():
            raise JournalCorrupt(f"{path}: blank line {i + 1} inside journal")
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as err:
            if i == len(raw_lines) - 1:
                warnings.append(f"dropped torn trailing record at line {i + 1}")
                break
            raise JournalCorrupt(f"{path}: corrupt record at line {i + 1}") from err
    if not parsed:
        raise JournalCorrupt(f"{path}: empty journal")
    header = parsed[0]
    if header.get("t") != HEADER:
        raise JournalCorrupt(f"{path}: first record is not a header")
    records = parsed[1:]
    last = 0
    for r in records:
        if r.get("t") == HEADER:
            raise JournalCorrupt(f"{path}: duplicate header")
        seq = r.get("seq")
        if not isinstance(seq, int) or seq != last + 1:
            raise JournalCorrupt(f"{path}: sequence break at record {seq!r}")
        last = seq
    return header, records, warnings


def _log_drops(path: str, warnings: list[str]) -> None:
    for warning in warnings:
        log.warning("%s: %s", path, warning)


def _trim_torn_group(records: list[dict], warnings: list[str]) -> list[dict]:
    """Drop trailing trial records whose group record never landed."""
    kept = list(records)
    trimmed = 0
    while kept and kept[-1]["t"] == TRIAL:
        kept.pop()
        trimmed += 1
    if trimmed:
        warnings.append(f"dropped {trimmed} trailing trial record(s) without a group")
    return kept
