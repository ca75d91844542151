"""One writer and one reader for the out-of-core directories.

Stores, synthetic stores and operator caches are flat directories of
``.npy`` arrays under a JSON manifest of every array's size and, for
stores, its sha256;
``docs/architecture.md`` lists what a reader sees after a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import AbstractContextManager
from pathlib import Path

import numpy as np

from repro.errors import ValidationError


def _sha256_file(path: Path, chunk_bytes: int = 1 << 22) -> str:
    """Streaming sha256 of one file (constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sibling(target: Path, role: str) -> Path:
    """The hidden ``.<name>.staging`` or ``.<name>.old`` beside ``target``."""
    return target.with_name(f".{target.name}.{role}")


def _recorded(manifest) -> set | None:
    """The file names a manifest this module wrote records, else None."""
    if not isinstance(manifest, dict) or "format_version" not in manifest:
        return None
    records = [manifest[key] for key in ("files", "sizes") if key in manifest]
    if not records or not all(isinstance(record, dict) for record in records):
        return None
    return set().union(*records)


class StagedDirectory(AbstractContextManager):
    """Write arrays into ``.<name>.staging`` beside ``target``, then swap it
    in whole (a ``with`` block deletes it unless published).  Only an absent
    or empty ``target``, or one whose every entry is its manifest, a file
    that manifest records or one of ``subdirs``, is replaced; with
    ``loose_arrays``, bare ``.npy`` files too (an earlier in-place cache)."""

    def __init__(self, target, manifest_name: str, *, subdirs=(),
                 loose_arrays: bool = False):
        self.target = Path(target).resolve()
        self.manifest_name = manifest_name
        self.staging = _sibling(self.target, "staging")
        self.old = _sibling(self.target, "old")
        if self.old.exists():
            if self.target.exists():  # a publish died before deleting it
                shutil.rmtree(self.old)
            else:  # a publish died between its two renames: restore
                os.rename(self.old, self.target)
        self._check_replaceable(subdirs, loose_arrays)
        shutil.rmtree(self.staging, ignore_errors=True)  # a dead writer's
        (self.staging / "scratch").mkdir(parents=True)
        self.names: list[str] = []  # the staged files to publish

    def _check_replaceable(self, subdirs, loose_arrays: bool) -> None:
        if not self.target.exists():
            return
        if not self.target.is_dir():
            raise ValidationError(f"refusing to replace non-store {self.target}")
        entries = {path.name for path in self.target.iterdir()}
        if not entries or (loose_arrays and all(
            name == self.manifest_name or name.endswith(".npy") for name in entries
        )):
            return
        known = {self.manifest_name}
        for name in subdirs:
            known |= {name, f".{name}.staging", f".{name}.old"}
        try:
            text = (self.target / self.manifest_name).read_text(encoding="utf-8")
            recorded = _recorded(json.loads(text))
        except (OSError, ValueError):
            recorded = None
        if recorded is None or entries - known - recorded:
            raise ValidationError(
                f"refusing to replace non-store {self.target}: it holds files "
                f"that no {self.manifest_name} of this format there records"
            )

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)

    def save(self, name: str, array) -> None:
        """Stage ``array`` as the file ``name``."""
        np.save(self.staging / name, array)
        self.names.append(name)

    def memmap(self, name: str, dtype, shape) -> np.memmap:
        """A writable ``.npy`` memmap staged as the file ``name``."""
        self.names.append(name)
        return np.lib.format.open_memmap(self.staging / name, "w+", dtype, shape)

    def scratch(self, name: str, dtype, shape) -> np.memmap:
        """A writable ``.npy`` memmap that is never published."""
        path = self.staging / "scratch" / name
        return np.lib.format.open_memmap(path, "w+", dtype, shape)

    def publish(self, manifest: dict, *, digests: bool = True) -> None:
        """Write ``manifest`` plus every file's size (and, with
        ``digests``, sha256) last, then swap the directory in."""
        shutil.rmtree(self.staging / "scratch", ignore_errors=True)
        records = {"sizes": {}, **({"files": {}} if digests else {})}
        for name in self.names:
            _fsync(self.staging / name)
            records["sizes"][name] = (self.staging / name).stat().st_size
            if digests:
                records["files"][name] = _sha256_file(self.staging / name)
        with open(self.staging / self.manifest_name, "w", encoding="utf-8") as handle:
            json.dump({**manifest, **records}, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync(self.staging)
        replacing = self.target.exists()
        if replacing:
            os.rename(self.target, self.old)
        try:
            os.rename(self.staging, self.target)
        except BaseException:
            if replacing:
                os.rename(self.old, self.target)
            raise
        _fsync(self.target.parent)
        shutil.rmtree(self.old, ignore_errors=True)


def read_manifest(directory, manifest_name: str, version: int, *,
                  verify: bool = False) -> dict:
    """The manifest of ``directory``; raises :class:`ValidationError`
    unless it has format ``version`` and every array has its recorded
    size (if recorded) and, with ``verify=True``, its recorded sha256."""
    directory = Path(directory)
    path = directory / manifest_name
    if not path.exists():
        old = _sibling(directory.resolve(), "old")
        if not directory.exists() and old.exists():
            raise ValidationError(
                f"no store at {directory}: a publish died while swapping it "
                f"in; the previous version is at {old}, and the next write "
                f"to {directory} restores it first"
            )
        raise ValidationError(f"no store at {directory} (missing manifest)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corrupt store manifest at {path}: {exc}")
    found = manifest.get("format_version") if isinstance(manifest, dict) else None
    if found != version:
        raise ValidationError(f"unsupported format version {found!r} in {path}")
    names = _recorded(manifest)
    if names is None:
        raise ValidationError(f"{path} records no array files")
    sizes = manifest.get("sizes", {})
    for name in sorted(names):
        if not (directory / name).exists():
            raise ValidationError(f"{directory} is missing array file {name!r}")
        size = (directory / name).stat().st_size
        if sizes.get(name, size) != size:
            raise ValidationError(
                f"{directory / name} holds {size} bytes, the manifest records "
                f"{sizes[name]}: a torn or modified write"
            )
    if verify:
        for name, expected in manifest.get("files", {}).items():
            if _sha256_file(directory / name) != expected:
                raise ValidationError(
                    f"fingerprint mismatch for {name!r} in {directory}: the "
                    "file changed after the manifest was written"
                )
    return manifest
