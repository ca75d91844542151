"""The append-only delta journal: an evolving HIN as seed graph + log.

A :class:`DeltaLog` records deltas in order with explicit *commit*
markers separating batches.  Serialised as JSONL — one JSON object per
line, a header line first, ``{"op": "commit"}`` lines at batch
boundaries — the format is human-diffable and append-only: extending a
journal never rewrites earlier lines.

Together with :func:`repro.hin.io.save_hin` this makes a streaming run
reproducible: ``replay(seed_hin)`` applies the journal batch by batch
and returns the final graph (or, via :meth:`DeltaLog.batches`, feeds a
:class:`~repro.stream.session.StreamingSession` the same batch sequence
the live run saw).

Durability
----------
:meth:`DeltaLog.append_batch` is the crash-consistent writer: one
``O_APPEND`` write per batch (deltas, then the commit marker), then
``fsync``.  A batch is committed once its commit-marker line, newline
included, is on disk.  After a crash, ``DeltaLog.load(path,
recover=True)`` returns exactly the committed batches and drops the torn
or uncommitted tail with a warning; the strict default refuses a torn
line and keeps a trailing uncommitted batch, as before.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterable

from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.stream.delta import DeltaBatch, GraphDelta, apply_batch, as_batch

_FORMAT_NAME = "repro.stream.delta-log"
_FORMAT_VERSION = 1
_HEADER_LINE = json.dumps(
    {"format": _FORMAT_NAME, "version": _FORMAT_VERSION}, sort_keys=True
)
_COMMIT_LINE = json.dumps({"op": "commit"})
#: The endings of a journal file that stops at a batch boundary.
_BOUNDARY_ENDINGS = tuple(
    (line + "\n").encode("ascii") for line in (_COMMIT_LINE, _HEADER_LINE)
)


def _delta_line(delta: GraphDelta) -> str:
    return json.dumps(delta.to_dict(), sort_keys=True)


def _write_all(fd: int, payload: bytes) -> None:
    view = memoryview(payload)
    while view:
        view = view[os.write(fd, view):]


def _fsync_directory(directory: Path) -> None:
    """Make a new directory entry durable (best-effort where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class _BadEntry(ValidationError):
    """A malformed journal line after the header (a torn-tail candidate)."""


class DeltaLog:
    """An ordered journal of deltas with batch-boundary commit markers.

    ``append`` adds one delta to the open (uncommitted) batch;
    ``extend`` adds several; ``commit`` closes the open batch.  A
    trailing uncommitted batch is treated as committed by the readers
    (:meth:`batches`, :meth:`replay`), so a crash between the last
    append and its commit loses no deltas.
    """

    def __init__(self, deltas: Iterable[GraphDelta] = (), *, commits: Iterable[int] = ()):
        self._deltas: list[GraphDelta] = []
        self._commits: list[int] = []
        for delta in deltas:
            self.append(delta)
        previous = 0
        for commit in commits:
            commit = int(commit)
            if not previous <= commit <= len(self._deltas):
                raise ValidationError(
                    f"commit marker {commit} out of order for a "
                    f"{len(self._deltas)}-delta journal"
                )
            previous = commit
            self._commits.append(commit)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def append(self, delta: GraphDelta) -> None:
        """Add one delta to the open batch."""
        if not isinstance(delta, GraphDelta):
            raise ValidationError(
                f"DeltaLog entries must be GraphDelta, got {type(delta).__name__}"
            )
        self._deltas.append(delta)

    def extend(self, deltas) -> None:
        """Add several deltas (a batch, iterable, or single delta)."""
        for delta in as_batch(deltas):
            self.append(delta)

    def commit(self) -> None:
        """Close the open batch (no-op when it is empty)."""
        if not self._commits or self._commits[-1] < len(self._deltas):
            self._commits.append(len(self._deltas))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self):
        return iter(self._deltas)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaLog):
            return NotImplemented
        return (
            self._deltas == other._deltas
            and self._effective_commits() == other._effective_commits()
        )

    def __repr__(self) -> str:
        return f"DeltaLog({len(self._deltas)} deltas, {self.n_batches} batches)"

    def _effective_commits(self) -> list[int]:
        commits = list(self._commits)
        if not commits or commits[-1] < len(self._deltas):
            commits.append(len(self._deltas))
        return commits

    @property
    def n_batches(self) -> int:
        """Number of batches :meth:`batches` will produce."""
        return len(self.batches())

    def batches(self) -> list[DeltaBatch]:
        """The journal split at commit markers (empty batches dropped)."""
        batches = []
        start = 0
        for stop in self._effective_commits():
            if stop > start:
                batches.append(DeltaBatch(self._deltas[start:stop]))
            start = stop
        return batches

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the journal as JSONL (header, deltas, commit markers).

        Only *explicit* commits produce marker lines; a trailing
        uncommitted batch is written as bare delta lines (``load`` and
        ``batches`` treat it as committed anyway).  This keeps saved
        journals genuinely append-only: extending a journal and saving
        again reproduces the earlier file as a byte prefix.
        """
        path = Path(path)
        lines = [_HEADER_LINE]
        start = 0
        for stop in self._commits:
            lines.extend(_delta_line(delta) for delta in self._deltas[start:stop])
            lines.append(_COMMIT_LINE)
            start = stop
        lines.extend(_delta_line(delta) for delta in self._deltas[start:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def append_batch(path, batch) -> Path:
        """Durably append one committed batch to the journal at ``path``.

        One ``O_APPEND`` write carries the batch's delta lines and its
        commit marker (after the header line when this call creates the
        file); then the file is ``fsync``-ed, and on creation its
        directory too, so the batch is on disk when this returns.
        Appending batch after batch writes exactly the bytes :meth:`save`
        writes for the same committed log; an empty batch writes no
        marker, as :meth:`commit` adds none.

        An existing journal must end at a batch boundary (its header or
        a commit marker).  One cut short by a crash is refused, because
        the new batch would merge with its torn tail; rewrite it first
        with ``DeltaLog.load(path, recover=True).save(path)``.
        """
        path = Path(path)
        lines = [_delta_line(delta) for delta in as_batch(batch)]
        if lines:
            lines.append(_COMMIT_LINE)
        try:
            fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o644)
            created = True
            lines.insert(0, _HEADER_LINE)
        except FileExistsError:
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
            created = False
        try:
            if not created:
                size = os.fstat(fd).st_size
                tail = os.pread(fd, min(size, 64), max(size - 64, 0))
                if not tail.endswith(_BOUNDARY_ENDINGS):
                    raise ValidationError(
                        f"{path} does not end at a batch boundary (torn or "
                        "uncommitted tail); recover it with "
                        "DeltaLog.load(path, recover=True).save(path)"
                    )
            if lines:
                _write_all(fd, "".join(line + "\n" for line in lines).encode("utf-8"))
                os.fsync(fd)
        finally:
            os.close(fd)
        if created:
            _fsync_directory(path.parent)
        return path

    @classmethod
    def load(cls, path, *, recover: bool = False) -> "DeltaLog":
        """Read a journal written by :meth:`save` or :meth:`append_batch`.

        Strict by default: any malformed line raises
        :class:`~repro.errors.ValidationError`, and a trailing batch
        without a commit marker is kept (the readers treat it as
        committed).  With ``recover=True`` the journal is cut back to
        its last complete commit-marker line — the committed prefix an
        :meth:`append_batch` writer leaves after a crash: an
        unterminated last line, malformed lines after the last marker
        and uncommitted deltas are dropped with a ``RuntimeWarning``.
        A malformed line *before* a later commit marker is corruption,
        not a torn tail, and raises in both modes, as does a bad header.
        """
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"no such delta journal: {path}")
        lines = path.read_bytes().split(b"\n")
        torn = lines.pop()  # the unterminated last line (b"" when none)
        if not recover:
            lines.append(torn)
        log = cls()
        header_seen = False
        for line_no, raw in enumerate(lines, start=1):
            try:
                header_seen = log._read_line(raw, header_seen, f"{path}:{line_no}")
            except _BadEntry as exc:
                later = lines[line_no:]
                if not recover or any(
                    line.strip() == _COMMIT_LINE.encode() for line in later
                ):
                    raise ValidationError(str(exc)) from None
                torn = b"\n".join([raw, *later, torn])
                break
        if not header_seen and not (recover and not any(lines)):
            raise ValidationError(f"{path} is empty — not a delta journal")
        if recover:
            committed = log._commits[-1] if log._commits else 0
            dropped = len(log._deltas) - committed
            if dropped or torn.strip():
                del log._deltas[committed:]
                warnings.warn(
                    f"{path}: dropped an uncommitted journal tail "
                    f"({dropped} delta(s), {len(torn)} torn byte(s))",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return log

    def _read_line(self, raw: bytes, header_seen: bool, where: str) -> bool:
        """Apply one journal line; returns whether the header has been seen.

        A bad header raises :class:`~repro.errors.ValidationError`; a
        malformed line after it raises :class:`_BadEntry`.
        """
        bad = _BadEntry if header_seen else ValidationError
        try:
            line = raw.decode("utf-8").strip()
            payload = json.loads(line) if line else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise bad(f"{where}: invalid JSON in delta journal: {exc}") from None
        if not line:
            return header_seen
        if not header_seen:
            if not isinstance(payload, dict) or payload.get("format") != _FORMAT_NAME:
                raise ValidationError(
                    f"{where}: not a {_FORMAT_NAME} journal (missing header line)"
                )
            if payload.get("version") != _FORMAT_VERSION:
                raise ValidationError(
                    f"unsupported delta journal version: {payload.get('version')}"
                )
            return True
        if isinstance(payload, dict) and payload.get("op") == "commit":
            self.commit()
            return True
        try:
            self.append(GraphDelta.from_dict(payload))
        except (ValidationError, TypeError, AttributeError) as exc:
            raise _BadEntry(f"{where}: bad delta entry: {exc}") from None
        return True

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, seed_hin: HIN) -> HIN:
        """Apply the journal to ``seed_hin`` batch by batch; return the result.

        Batch-wise application matters: it reproduces exactly the graph
        states a live :class:`~repro.stream.session.StreamingSession`
        moved through, including intermediate validation (a delta may
        only reference nodes existing at its own batch's start or added
        earlier in the same batch).
        """
        hin = seed_hin
        for batch in self.batches():
            hin = apply_batch(hin, batch)
        return hin
