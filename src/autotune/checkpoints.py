"""Checkpoint packs: one append-only file holds a directory's checkpoints.

A pack is a sequence of frames. Each frame is one JSON header line,
``{"name": <name>, "size": n}``, followed by the n payload bytes. A
checkpoint is addressed by the path ``<directory>/<name>``: the directory
holds the pack, ``<directory>/checkpoints.pack``, and the name selects the
frame. When a name occurs twice, the later frame wins.

Appends are buffered until :meth:`CheckpointPack.flush`; a frame whose flush
returned survives a process kill. A kill during a write can leave a torn
last frame. Opening a pack for appending truncates it; reading ignores it.
A frame header that does not parse is :class:`PackError`.
"""
from __future__ import annotations

import json
import os
import threading

PACK_NAME = "checkpoints.pack"


class PackError(RuntimeError):
    """A checkpoint is missing from its pack, or the pack is damaged."""


class CheckpointPack:
    """The frames of one pack file, indexed by name with one scan.

    ``CheckpointPack(directory)`` reads and scans on the first :meth:`read`;
    :meth:`open_for_append` scans at once, trims a torn last frame, and
    accepts :meth:`append`. Reads may come from several threads; appends and
    flushes come from one.
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
        self._lock = threading.Lock()

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
        else:
            pack._index = {}
        pack._writer = open(pack.path, "ab")
        return pack

    def append(self, name: str, payload: bytes) -> str:
        """Buffer one frame; returns the checkpoint's path."""
        # the bytes of json.dumps({"name": name, "size": len(payload)}) + "\n"
        header = b'{"name": %s, "size": %d}\n' % (json.dumps(name).encode(), len(payload))
        self._writer.write(header + payload)
        start = self._end + len(header)
        self._index[name] = (start, len(payload))
        self._end = start + len(payload)
        return self._prefix + name

    def flush(self) -> None:
        self._writer.flush()

    def read(self, name: str) -> bytes:
        with self._lock:
            if self._index is None:
                self._scan()
            if name not in self._index:
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


def read_checkpoint(path: str) -> bytes:
    """The payload of the checkpoint at ``path``, from one scan of its pack."""
    pack = CheckpointPack(os.path.dirname(path))
    try:
        return pack.read(os.path.basename(path))
    finally:
        pack.close()
