"""The one persistence primitive: checksummed, code-stamped blobs.

Everything the repo persists — shard checkpoints, service job records,
the golden-prefix and first-effect scan caches, the degraded-IPC memo —
is a :class:`Blobs` entry under the cache root (``.repro_cache/`` by
default, ``REPRO_CACHE_DIR`` to override), one file per entry named by
its kind and content key::

    <kind>-<key>.blob

The key is a hash of everything that determines the content
(:func:`config_hash`); the file is a one-line header and a pickled
body::

    repro-blob/1 <sha256 of body> <stamp()>\\n<body>

The stamp is :func:`code_fingerprint`, folded with a fingerprint of any
code outside the package that shapes the content (the benchmark scripts
for their ``bench`` tables).  A read returns the body only when the
checksum and the stamp both match; anything else is a miss.  A bad
checksum or an unreadable header counts as ``cache.<kind>.corrupt``, a
blob written by other code as ``cache.<kind>.stale``, and the next
write overwrites either.  Writes go to a tmp file beside the blob and
``os.replace`` onto its name, so a reader sees a whole blob or none; a
writer killed mid-write leaves only the tmp file, which no read looks
at.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.telemetry import TELEMETRY

MAGIC = b"repro-blob/1"

#: Read outcomes; every one but ``hit`` is a miss to the caller.
HIT, MISS, CORRUPT, STALE = "hit", "miss", "corrupt", "stale"


def config_hash(payload: Mapping[str, Any]) -> str:
    """Short stable hash of a configuration (a content key).

    The payload must be JSON-serializable; it is canonicalized with
    sorted keys so dict ordering cannot perturb the key.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def files_fingerprint(files: Iterable[Path], base: Path) -> str:
    """sha256 over ``files``: their paths relative to ``base`` and bytes."""
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(f.relative_to(base).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """sha256 over every ``repro/**/*.py`` source file.

    Stamped into every blob: any edit to the package makes older blobs
    stale instead of serving results from other code.  Covering the whole
    package means no hand-kept list of dependencies can drift.
    """
    pkg = Path(__file__).resolve().parent.parent
    return files_fingerprint(pkg.rglob("*.py"), pkg)


def stamp(extra: str = "") -> str:
    """The code stamp of a blob: :func:`code_fingerprint`, folded with
    the fingerprint ``extra`` of any code outside the package that made
    it."""
    fp = code_fingerprint()
    if not extra:
        return fp
    return hashlib.sha256(f"{fp} {extra}".encode()).hexdigest()


def default_cache_root() -> Path:
    """The cache directory: ``REPRO_CACHE_DIR``, else ``.repro_cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def encode(value: Any, extra: str = "") -> bytes:
    """The on-disk bytes of one blob holding ``value``."""
    body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).hexdigest()
    header = b" ".join((MAGIC, digest.encode(), stamp(extra).encode()))
    return header + b"\n" + body


def decode(data: bytes, extra: str = "") -> Tuple[str, Any]:
    """``(outcome, value)`` for one blob's bytes; value None unless hit."""
    head, _, body = data.partition(b"\n")
    fields = head.split(b" ")
    if (
        len(fields) != 3
        or fields[0] != MAGIC
        or fields[1] != hashlib.sha256(body).hexdigest().encode()
    ):
        return CORRUPT, None
    if fields[2] != stamp(extra).encode():
        return STALE, None
    try:
        return HIT, pickle.loads(body)
    except Exception:
        return CORRUPT, None


def tmp_path(path: Path) -> Path:
    """Where this process and thread write ``path`` before the rename."""
    return path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )


class Blobs:
    """The blobs of one kind under one cache root.

    ``extra`` fingerprints code outside the package that shapes the
    blobs' content (see :func:`stamp`); editing it makes them stale.
    """

    def __init__(
        self, kind: str, root: Optional[Path] = None, extra: str = ""
    ) -> None:
        self.kind = kind
        self.root = Path(root) if root is not None else default_cache_root()
        self.extra = extra

    def path(self, key: str) -> Path:
        return self.root / f"{self.kind}-{key}.blob"

    def read(self, key: str) -> Tuple[str, Any]:
        """``(outcome, value)`` for ``key``, uncounted."""
        try:
            data = self.path(key).read_bytes()
        except FileNotFoundError:
            return MISS, None
        except OSError:
            return CORRUPT, None
        return decode(data, self.extra)

    def get(self, key: str) -> Any:
        """The value stored under ``key``, or None on any miss.

        Counts ``cache.<kind>.{hit,miss,corrupt,stale}``.
        """
        outcome, value = self.read(key)
        TELEMETRY.count(f"cache.{self.kind}.{outcome}")
        return value

    def put(self, key: str, value: Any) -> None:
        """Atomically store ``value`` under ``key``.

        Best-effort: an unwritable cache root degrades to recomputation
        on the next read, never to a failed run.
        """
        path = self.path(key)
        tmp = tmp_path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(encode(value, self.extra))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def keys(self, prefix: str = "") -> List[str]:
        """Keys on disk that start with ``prefix`` (tmp files excluded)."""
        head = f"{self.kind}-"
        return sorted(
            p.name[len(head):-len(".blob")]
            for p in self.root.glob(f"{head}{prefix}*.blob")
        )

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    def delete_all(self, prefix: str) -> None:
        """Delete every blob and leftover tmp file under ``prefix``."""
        for p in self.root.glob(f"{self.kind}-{prefix}*"):
            p.unlink(missing_ok=True)


class CheckpointStore:
    """Completed shards of one campaign configuration, one blob each.

    Blob keys are ``<campaign>-<config hash>-<shard>``, so a checkpoint
    is only ever resumed by the identical campaign and code.  Shard hits
    and misses are the runner's ``runner.shards.cached`` and
    ``runner.shards.computed``; :meth:`load` counts the rest as
    ``cache.shard.{corrupt,stale}``.
    """

    def __init__(
        self,
        campaign: str,
        key: str,
        root: Optional[Path] = None,
    ) -> None:
        self.blobs = Blobs("shard", root)
        self.prefix = f"{campaign}-{key}-"

    @classmethod
    def for_spec(
        cls, campaign: str, spec: Any, root: Optional[Path] = None
    ) -> "CheckpointStore":
        """The store of ``campaign`` run with the spec dataclass ``spec``.

        The only key derivation: the campaigns, the service and the tests
        all build their stores here, so they share checkpoints.
        """
        return cls(campaign, config_hash(asdict(spec)), root)

    def path(self, shard: int) -> Path:
        return self.blobs.path(f"{self.prefix}{shard}")

    def load(self) -> Dict[int, Any]:
        """Completed ``{shard_index: payload}`` map; {} when absent."""
        out: Dict[int, Any] = {}
        for key in self.blobs.keys(self.prefix):
            shard = key[len(self.prefix):]
            if not shard.isdigit():
                continue
            outcome, payload = self.blobs.read(key)
            if outcome == HIT:
                out[int(shard)] = payload
            else:
                TELEMETRY.count(f"cache.shard.{outcome}")
        return out

    def append(self, shard: int, payload: Any) -> None:
        """Record one completed shard."""
        self.blobs.put(f"{self.prefix}{shard}", payload)

    def drop(self, shards: Iterable[int]) -> None:
        """Forget the given shards (used by tests)."""
        for shard in shards:
            self.blobs.delete(f"{self.prefix}{shard}")

    def clear(self) -> None:
        """Delete every shard (fresh-run semantics)."""
        self.blobs.delete_all(self.prefix)
