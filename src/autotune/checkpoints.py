"""Checkpoint packs: one append-only file holds a directory's checkpoints.

A pack is a sequence of frames. Each frame is one JSON header line,
``{"name": <name>, "size": n}``, followed by the n payload bytes. A
checkpoint is addressed by the path ``<directory>/<name>``: the directory
holds the pack, ``<directory>/checkpoints.pack``, and the name selects the
frame. When a name occurs twice, the later frame wins.

Frames are appended by :meth:`CheckpointPack.extend` alone, to which the
runner hands a group's frames at once: their headers and payloads go out in
one write, buffered until :meth:`CheckpointPack.flush`, and a frame whose
flush returned survives a process kill. A kill during a write can leave a
torn last frame.
Opening a pack for appending truncates it, with a logged warning; reading
ignores it.
A frame header that does not parse is :class:`PackError`. Only the
:class:`autotune.runner.TrialRunner` opens packs; objectives get payloads.
"""
from __future__ import annotations

import json
import logging
import os
from json.encoder import encode_basestring_ascii

from .journal import JournalError

PACK_NAME = "checkpoints.pack"

log = logging.getLogger(__name__)


class PackError(JournalError):
    """A checkpoint a journal names is missing, or its pack is damaged."""


class CheckpointPack:
    """The frames of one pack file, indexed by name with one scan.

    ``CheckpointPack(directory)`` reads and scans on the first :meth:`read`;
    :meth:`open_for_append` scans at once, trims a torn last frame, and
    accepts :meth:`extend`.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, PACK_NAME)
        self._prefix = os.path.join(directory, "")  # prefix + name == join(directory, name)
        self.warnings: list[str] = []
        self._index: dict[str, tuple[int, int]] | None = None  # name -> (offset, size)
        self._end = 0  # end of the last complete frame
        self._writer = None
        self._reader = None

    @classmethod
    def open_for_append(cls, directory: str) -> "CheckpointPack":
        pack = cls(directory)
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(pack.path):
            pack._scan()
            torn = os.path.getsize(pack.path) - pack._end
            if torn:
                os.truncate(pack.path, pack._end)
                pack.warnings.append(f"dropped a torn last frame of {torn} bytes")
                log.warning("%s: %s", pack.path, pack.warnings[-1])
        else:
            pack._index = {}
        pack._writer = open(pack.path, "ab")
        return pack

    def extend(self, names: list[str], payloads: list[bytes]) -> list[str]:
        """Buffer one frame for each name and the payload at its position,
        all in one write; returns the checkpoints' paths."""
        data, paths, end = bytearray(), [], self._end
        for name, payload in zip(names, payloads):
            # the bytes of json.dumps({"name": name, "size": len(payload)}) + "\n";
            # json.dumps encodes a str with encode_basestring_ascii
            data += b'{"name": %s, "size": %d}\n' % (encode_basestring_ascii(name).encode(),
                                                     len(payload))
            self._index[name] = (end + len(data), len(payload))
            data += payload
            paths.append(self._prefix + name)
        self._writer.write(data)
        self._end = end + len(data)
        return paths

    def flush(self) -> None:
        self._writer.flush()

    def __contains__(self, name: str) -> bool:
        if self._index is None:
            self._scan()
        return name in self._index

    def read(self, name: str) -> bytes:
        if name not in self:
            raise PackError(f"no checkpoint {name!r} in {self.path}")
        offset, size = self._index[name]
        if self._writer is not None:
            self._writer.flush()
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(offset)
        payload = self._reader.read(size)
        if len(payload) != size:
            raise PackError(f"checkpoint {name!r} in {self.path} is cut short")
        return payload

    def close(self) -> None:
        for fh in (self._writer, self._reader):
            if fh is not None:
                fh.close()
        self._writer = self._reader = None

    def _scan(self) -> None:
        if not os.path.exists(self.path):
            raise PackError(f"no checkpoint pack at {self.path}")
        index: dict[str, tuple[int, int]] = {}
        end = 0
        with open(self.path, "rb") as fh:
            total = os.fstat(fh.fileno()).st_size
            while True:
                line = fh.readline()
                if not line.endswith(b"\n"):
                    break  # end of the pack, or a torn header
                try:
                    header = json.loads(line)
                    name, size = header["name"], header["size"]
                    if not isinstance(name, str) or not isinstance(size, int) or size < 0:
                        raise ValueError(header)
                except (ValueError, KeyError, TypeError) as err:
                    raise PackError(f"{self.path}: bad frame header at byte {end}") from err
                start = end + len(line)
                if start + size > total:
                    break  # torn payload
                index[name] = (start, size)
                end = start + size
                fh.seek(end)
        self._index, self._end = index, end
