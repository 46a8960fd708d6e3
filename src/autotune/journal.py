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
the record kept in memory is what a reader parses back from it. A live
group's trial records and its group record come from one template per
group, which holds what they share (the sorted keys, ``budget``, ``group``,
``purpose``, ``t`` and the config text, encoded once) and takes each
record's other values as the C encoder writes them; a record the template
does not fit is encoded whole (see :meth:`Journal.append_group`).
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


# the keys of the trial records the runner writes, which _trial_lines fills in
_TRIAL_KEYS = ("budget", "ckpt", "cost", "error", "frac", "group", "purpose", "seed",
               "status", "t", "wall_time")
# the keys of the group records the runner writes, bar an optional "tags",
# which _group_line fills in
_GROUP_KEYS = ("budget", "failed", "group", "mean_cost", "purpose", "seeds", "spend", "t")

_quote = encode_basestring_ascii  # the C encoder's text for a str
_repr = float.__repr__  # its text for a finite exact float
_INF = math.inf
_INT, _STR = frozenset((int,)), frozenset((str,))  # exact types, as type() gives them


def _text(value) -> str:
    """The C encoder's text for ``value``, a ``str``, an exact ``int``, a
    finite exact ``float`` or None; raises :class:`_NotPlain` for any other."""
    t = type(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is float:
        if math.isfinite(value):
            return float.__repr__(value)
    elif t is int:
        return int.__repr__(value)
    elif value is None:
        return "null"
    raise _NotPlain


def _trial_lines(config_text: str, kept_config: dict, trials: list[dict], seq: int):
    """The lines and kept records of ``trials``, numbered from ``seq``, each
    with the config whose text is ``config_text``: what encoding each record
    whole gives, built from one template of what they share. Raises
    :class:`_NotPlain` or :class:`KeyError` unless every trial has exactly
    the runner's keys, the first trial's ``budget``, ``group``, ``purpose``
    and ``t`` objects, and values :func:`_text` takes. The types a live
    trial holds in each field are written inline, and :func:`_text` is
    called only for the rest."""
    if not trials:
        return [], []
    first = trials[0]
    budget, group, purpose, t = first["budget"], first["group"], first["purpose"], first["t"]
    budget_text = _text(budget)  # also the text of a frac set to the group's budget
    head = '{"budget": ' + budget_text + ', "ckpt": '
    middle = ', "config": ' + config_text + ', "cost": '
    shared = ', "group": ' + _text(group) + ', "purpose": ' + _text(purpose) + ', "seed": '
    tail = ', "t": ' + _text(t) + ', "wall_time": '
    lines, kept = [], []
    for r in trials:
        if (len(r) != len(_TRIAL_KEYS) or r["budget"] is not budget or r["group"] is not group
                or r["purpose"] is not purpose or r["t"] is not t):
            raise _NotPlain
        ckpt, cost, error, frac = r["ckpt"], r["cost"], r["error"], r["frac"]
        seed, status, wall_time = r["seed"], r["status"], r["wall_time"]
        cost_text = _repr(cost) if type(cost) is float and -_INF < cost < _INF else _text(cost)
        wall_text = (_repr(wall_time) if type(wall_time) is float and -_INF < wall_time < _INF
                     else _text(wall_time))
        lines.append(
            f'{head}{_quote(ckpt) if type(ckpt) is str else _text(ckpt)}{middle}{cost_text}'
            f', "error": {_quote(error) if type(error) is str else _text(error)}'
            f', "frac": {budget_text if frac is budget else _text(frac)}'
            f'{shared}{int.__repr__(seed) if type(seed) is int else _text(seed)}, "seq": {seq}'
            f', "status": {_quote(status) if type(status) is str else _text(status)}'
            f'{tail}{wall_text}}}'
        )
        kept.append({"budget": budget, "ckpt": ckpt, "config": kept_config, "cost": cost,
                     "error": error, "frac": frac, "group": group, "purpose": purpose,
                     "seed": seed, "seq": seq, "status": status, "t": t,
                     "wall_time": wall_time})
        seq += 1
    return lines, kept


def _group_line(config_text: str, kept_config: dict, group: dict, seq: int):
    """The line and kept record of ``group``, numbered ``seq``, with the
    config whose text is ``config_text``: what encoding the record whole
    gives, built from the group's template. Raises :class:`_NotPlain` or
    :class:`KeyError` unless ``group`` has exactly the runner's keys, a
    ``bool`` ``failed``, a list of exact ``int`` ``seeds``, ``tags``, if
    any, a dict of ``str`` keys and exact ``int`` values, and other values
    :func:`_text` takes."""
    failed, seeds = group["failed"], group["seeds"]
    if (len(group) != len(_GROUP_KEYS) + ("tags" in group) or type(failed) is not bool
            or type(seeds) is not list or not {*map(type, seeds)} <= _INT):
        raise _NotPlain
    budget, number, t = group["budget"], group["group"], group["t"]
    mean_cost, purpose, spend = group["mean_cost"], group["purpose"], group["spend"]
    line = (f'{{"budget": {_text(budget)}, "config": {config_text}, '
            f'"failed": {"true" if failed else "false"}, "group": {_text(number)}, '
            f'"mean_cost": {_text(mean_cost)}, "purpose": {_text(purpose)}, '
            f'"seeds": [{", ".join(map(int.__repr__, seeds))}], "seq": {seq}, '
            f'"spend": {_text(spend)}, "t": {_text(t)}')
    kept = {"budget": budget, "config": kept_config, "failed": failed, "group": number,
            "mean_cost": mean_cost, "purpose": purpose, "seeds": list(seeds), "seq": seq,
            "spend": spend, "t": t}
    if "tags" in group:
        tags = group["tags"]
        if (type(tags) is not dict or not {*map(type, tags)} <= _STR
                or not {*map(type, tags.values())} <= _INT):
            raise _NotPlain
        kept["tags"] = tags = {k: tags[k] for k in sorted(tags)}
        line += ', "tags": {' + ", ".join(f"{_quote(k)}: {int.__repr__(v)}"
                                         for k, v in tags.items()) + "}"
    return line + "}", kept


# where a record whose "config" is None holds it in its line. A quote inside
# a string is always escaped, so this text never lies inside one: it appears
# once for each "config" key with a null value, at any depth
_CONFIG_SLOT = '"config": null'


def _spliced(config: dict, config_text: str, kept_config: dict, record: dict, seq: int):
    """The line and kept record of ``record`` with ``config`` as its
    ``"config"``, numbered ``seq``: encoded with a null ``"config"`` and the
    config's text spliced in, unless it holds a null ``"config"`` of its own
    (in a tag, say) and is encoded whole."""
    record = {**record, "config": None, "seq": seq}
    line = _encode(record)
    if line.count(_CONFIG_SLOT) == 1:
        line = line.replace(_CONFIG_SLOT, '"config": ' + config_text)
    else:
        record["config"] = config
        line = _encode(record)
    kept = _kept(record, line)
    kept["config"] = kept_config
    return line, kept


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

    def append_group(self, config: dict, trials: list[dict], group: dict) -> None:
        """Append one evaluation group, ``trials`` and then ``group``, each
        with ``config`` as its ``"config"``, and flush once; while the
        journal replays, check and consume the recorded group instead (see
        :meth:`_replay`).

        Each line is the one :meth:`append` would write, and the kept
        records share one parsed copy of ``config``, which must not be
        mutated. A live ``config`` is encoded once, and a replayed one only
        when :func:`_plain` cannot copy it. The records are written from one
        template per group: the trial records (see :func:`_trial_lines`)
        when each has exactly the runner's eleven keys (``budget``,
        ``ckpt``, ``cost``, ``error``, ``frac``, ``group``, ``purpose``,
        ``seed``, ``status``, ``t``, ``wall_time``), the first trial's
        ``budget``, ``group``, ``purpose`` and ``t`` objects, and only
        values that are a ``str``, an exact ``int``, a finite exact
        ``float`` or None; the group record (see :func:`_group_line`) when
        it has the runner's keys and ``tags``, if any, of ``str`` keys and
        exact ``int`` values. Any other record is encoded as
        :func:`_spliced` says.
        """
        if self.header is None:
            raise JournalError("header must be written before records")
        if self._pending:
            try:
                kept_config = _plain(config)
            except _NotPlain:
                kept_config = json.loads(_encode(config))
            self._replay([{**record, "config": kept_config} for record in (*trials, group)])
            return
        text = _encode(config)
        kept_config = _kept(config, text)
        seq = (self.records[-1]["seq"] + 1) if self.records else 1
        try:
            lines, kept_records = _trial_lines(text, kept_config, trials, seq)
        except (_NotPlain, KeyError):  # a trial the template does not fit
            lines, kept_records = [], []
            for i, record in enumerate(trials, start=seq):
                line, kept = _spliced(config, text, kept_config, record, i)
                lines.append(line)
                kept_records.append(kept)
        seq += len(trials)
        try:
            line, kept = _group_line(text, kept_config, group, seq)
        except (_NotPlain, KeyError):
            line, kept = _spliced(config, text, kept_config, group, seq)
        lines.append(line)
        kept_records.append(kept)
        self.records += kept_records  # only once every record has encoded
        self._write_line("\n".join(lines))

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
