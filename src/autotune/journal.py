"""Append-only run journal: line-delimited JSON, one record per line.

The first record is the header (method, space text + digest, objective spec,
seed plan, budget, rng seed). Every subsequent record carries a strictly
increasing ``seq``. Durability is per evaluation group: a trial record is
written when it is appended but reaches the disk with its group's record,
and every other append, a group record included, flushes before returning.
So a record whose append returned survives a process kill once the group it
belongs to has been appended; the trial records of a group cut short are
lost or torn, and resume drops those anyway (see :func:`_trim_torn_group`).

A journal opened for resume replays its existing records: every append made
by the re-run is verified against the recorded one (ignoring wall time) and
consumed instead of written, so a resumed run continues exactly where the
interrupted one stopped. A truncated trailing line (torn write) is dropped
with a logged warning; corruption before the last record is a hard error.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import deque
from dataclasses import dataclass, field

HEADER = "header"
TRIAL = "trial"
GROUP = "group"
EXPLOIT = "exploit"
EXPLORE = "explore"
INCUMBENT = "incumbent"
COMPLETE = "complete"

log = logging.getLogger(__name__)

# fields excluded when comparing a replayed record to the recorded one
_VOLATILE = ("seq", "wall_time")

# one encoder for every line; json.dumps(..., sort_keys=True) builds one per call
_encode = json.JSONEncoder(sort_keys=True).encode

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


def _strip_volatile(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


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
            recorded, current = _strip_volatile(self.header), _strip_volatile(header)
            if current != recorded:
                key = min(  # ... marks a missing key; no JSON value equals it
                    k for k in recorded.keys() | current.keys()
                    if recorded.get(k, ...) != current.get(k, ...)
                )
                raise ReplayMismatch(
                    f"resumed run has a different header: {key} is "
                    f"{recorded.get(key)!r} in the journal, {current.get(key)!r} now"
                )
            return
        self.header = header
        self._write_line(line)

    @property
    def replaying(self) -> bool:
        return bool(self._pending)

    def append(self, record: dict) -> int:
        """Append (or verify against the replay queue); returns the seq number.

        Keys, at every level of ``record``, must be ``str``. The record is
        written as one sorted JSON line, and the record kept is a copy that
        equals what a reader of that line parses: the same sorted keys,
        lists for tuples, plain floats, exact float values, and no
        container shared with ``record``. A trial record is not flushed:
        it reaches the disk with its group's record (see the module
        docstring). A replayed record is encoded too, so one that cannot
        be serialised raises as it would in a live run.
        """
        if self.header is None:
            raise JournalError("header must be written before records")
        if self._pending:
            expected = self._pending.popleft()
            record = _kept(record, _encode(record))  # canonical types, exact floats
            if _strip_volatile(expected) != _strip_volatile({**record, "seq": 0}):
                raise ReplayMismatch(
                    f"resumed run diverged: expected {expected.get('t')} "
                    f"record {expected}, got {record}"
                )
            return expected["seq"]
        seq = (self.records[-1]["seq"] + 1) if self.records else 1
        record = {**record, "seq": seq}
        line = _encode(record)
        self.records.append(_kept(record, line))
        self._write_line(line, flush=record.get("t") != TRIAL)
        return seq

    def take_group_if_pending(self, key: dict) -> list[dict] | None:
        """During replay, consume and return one recorded evaluation group.

        ``key`` holds config/budget/seeds/purpose; the queued trial records
        plus their group record must match or the resume is rejected.
        """
        if not self._pending:
            return None
        key = _kept(key, _encode(key))
        taken = []
        for rec in self._pending:
            taken.append(rec)
            if rec["t"] == GROUP:
                break
            if rec["t"] != TRIAL:
                raise ReplayMismatch(
                    f"resumed run diverged: expected trial records, found {rec['t']!r}"
                )
        else:
            raise ReplayMismatch("replay queue ends inside an evaluation group")
        group = taken[-1]
        for k, v in key.items():
            if group.get(k) != v:
                raise ReplayMismatch(
                    f"resumed run diverged on group {group.get('group')}: "
                    f"{k}={group.get(k)!r} recorded vs {v!r} requested"
                )
        for _ in taken:
            self._pending.popleft()
        return taken

    def _write_line(self, line: str, flush: bool = True) -> None:
        if self._fh is not None:
            self._fh.write(line + "\n")
            if flush:
                self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- queries -------------------------------------------------------------

    def of_type(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["t"] == kind]

    def spend(self) -> float:
        """Full-run equivalents spent on tuning: tune and warmstart groups."""
        groups = self.of_type(GROUP)
        return float(sum(r["spend"] for r in groups if r.get("purpose") in ("tune", "warmstart")))

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
