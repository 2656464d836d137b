"""Persistent `.npz` artifact store for influence indexes.

An artifact is a single uncompressed ``.npz`` file holding the CSR arrays of
an :class:`~repro.sketches.collection.RRSetCollection` plus a JSON provenance
record:

* ``members`` / ``indptr`` — the RR-set CSR, exactly as sampled.
* ``node_indptr`` / ``node_sets`` — the precomputed inverted index (which
  sets contain each node), so a warm ``select(k)`` never pays the
  counting-sort pass over the members that building it costs; absent in
  hand-rolled artifacts, in which case it is derived lazily on first use.
* ``meta_json`` — a uint8 byte array holding the JSON-encoded metadata:
  artifact format name and version, diffusion ``model``, ``engine_seed``,
  ``theta`` (number of sets), sampling ``block_size``, the graph content
  fingerprint (:func:`~repro.graphs.fingerprint.graph_fingerprint`), node
  and edge counts, and the library version that wrote the file.

Every array is written in the collection's own dtype: int32 for the ids
(``members``, ``node_sets``) and int64 for the offsets (``indptr``,
``node_indptr``).  Artifacts written before the ids narrowed hold int64
throughout; the loader accepts any integer dtype and maps such a file as it
is, so both layouts load, verify and answer identically under version 1.

**Memory-mapped reload.**  ``np.savez`` stores each array as a plain ``.npy``
member inside a ZIP container; because the container is written *uncompressed*
(``ZIP_STORED``), each member's data is a contiguous byte range of the file.
:func:`load_index_artifact` locates those ranges (local ZIP header + npy
header) and hands out ``np.memmap`` views, so opening a 50k-set index costs a
few header reads — milliseconds — and pages of RR data fault in only when a
query first touches them.  When mapping is impossible (compressed member,
exotic npy version, zero-length array) the loader transparently falls back
to an ordinary in-memory ``np.load``.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import struct
import zipfile
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

import repro
from repro.exceptions import ArtifactCorruptError, IndexArtifactError
from repro.serving import faults
from repro.sketches.collection import RRSetCollection

ARTIFACT_FORMAT = "repro-influence-index"
ARTIFACT_VERSION = 1

_ARRAY_NAMES = ("members", "indptr")
_OPTIONAL_ARRAY_NAMES = ("node_indptr", "node_sets")
_REQUIRED_METADATA_KEYS = (
    "model", "engine_seed", "theta", "block_size",
    "graph_fingerprint", "n", "m", "numpy_version",
)

#: struct layout of the fields we need from a ZIP local file header:
#: signature (4), versions/flags/method (2+2+2), times/crc/sizes (4*4),
#: file-name length (2), extra-field length (2).
_LOCAL_HEADER = struct.Struct("<4s2xHH16xHH")
_LOCAL_MAGIC = b"PK\x03\x04"



#: Remediation hint appended to low-level load failures so a serve operator
#: (or client) sees what to do, not a raw zipfile/numpy traceback.
_REMEDIATION = (
    "the file is truncated or was not written by save_index_artifact; "
    "restore it from a backup or rebuild it with `repro index build`"
)


def payload_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """sha256 over the artifact's array payload, in a canonical encoding.

    Each array contributes its name, dtype, shape and raw C-order bytes, in
    sorted-name order — so the digest is independent of memory layout and
    of whether the arrays come back memory-mapped or eagerly loaded.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(
            f"{name}:{array.dtype.str}:{array.shape}".encode("ascii")
        )
        digest.update(array.data)
    return digest.hexdigest()


def quarantine_artifact(path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Rename a corrupt artifact out of the way (``<name>.corrupt[.N]``).

    The file is preserved for post-mortem, never deleted; the original path
    becomes free for a rebuilt artifact.  Returns the quarantine path.

    Concurrency-safe: the quarantine name is *reserved* with ``os.link``
    (atomic, fails ``EEXIST``) before the original is unlinked, so two
    processes quarantining at once — or a racer creating ``.corrupt.N``
    between a name probe and a rename — can never clobber each other's
    post-mortem evidence the way a check-then-``os.replace`` loop could.
    """
    path = pathlib.Path(path)
    for counter in range(10_000):
        suffix = ".corrupt" if counter == 0 else f".corrupt.{counter}"
        target = path.with_name(path.name + suffix)
        try:
            os.link(path, target)
        except FileExistsError:
            continue
        except OSError as error:
            if error.errno in (errno.EPERM, errno.EOPNOTSUPP, errno.EMLINK):
                # Filesystem without hardlinks: degrade to a plain rename.
                # The reservation guarantee is lost, but quarantine still
                # works — and ``os.replace`` keeps the old all-or-nothing
                # behaviour within one process.
                try:
                    os.replace(path, target)
                except OSError as fallback_error:
                    raise IndexArtifactError(
                        f"could not quarantine corrupt artifact {path}: "
                        f"{fallback_error}"
                    )
                return target
            raise IndexArtifactError(
                f"could not quarantine corrupt artifact {path}: {error}"
            )
        try:
            os.unlink(path)
        except OSError as error:
            raise IndexArtifactError(
                f"could not remove quarantined artifact {path} (its evidence "
                f"copy is at {target}): {error}"
            )
        return target
    raise IndexArtifactError(
        f"could not quarantine corrupt artifact {path}: 10000 quarantine "
        "names are already taken — clean up the *.corrupt files"
    )


@dataclass
class IndexArtifact:
    """A loaded artifact: CSR arrays (possibly memory-mapped) + metadata."""

    members: np.ndarray
    indptr: np.ndarray
    metadata: Dict[str, object]
    path: Optional[pathlib.Path] = None
    memory_mapped: bool = False
    node_indptr: Optional[np.ndarray] = None
    node_sets: Optional[np.ndarray] = None

    def collection(self) -> RRSetCollection:
        """Wrap the arrays in an :class:`RRSetCollection` without copying."""
        n = int(self.metadata["n"])
        return RRSetCollection.from_csr(
            n,
            self.members,
            self.indptr,
            node_indptr=self.node_indptr,
            node_sets=self.node_sets,
        )


def build_metadata(
    *,
    model: str,
    engine_seed: int,
    theta: int,
    block_size: int,
    fingerprint: str,
    n: int,
    m: int,
    numpy_version: Optional[str] = None,
) -> Dict[str, object]:
    """The provenance record stored alongside the CSR arrays.

    ``numpy_version`` defaults to the running numpy; pass the version that
    actually sampled the sets when re-persisting a loaded index.
    """
    return {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_VERSION,
        "model": model,
        "engine_seed": int(engine_seed),
        "theta": int(theta),
        "block_size": int(block_size),
        "graph_fingerprint": fingerprint,
        "n": int(n),
        "m": int(m),
        "library_version": repro.__version__,
        # Recorded because grow() replays the engine seed's token stream:
        # numpy does not guarantee Generator stream stability across
        # releases (NEP 19), so growth refuses to run under a different
        # numpy than the one that sampled the stored sets.
        "numpy_version": numpy_version or np.__version__,
    }


def save_index_artifact(
    path: Union[str, pathlib.Path],
    collection: RRSetCollection,
    metadata: Dict[str, object],
) -> pathlib.Path:
    """Serialize ``collection`` + ``metadata`` to an uncompressed ``.npz``."""
    path = pathlib.Path(path)
    if metadata.get("format") != ARTIFACT_FORMAT:
        raise IndexArtifactError(
            f"metadata must carry format={ARTIFACT_FORMAT!r} "
            f"(use build_metadata), got {metadata.get('format')!r}"
        )
    if int(metadata.get("theta", -1)) != collection.num_sets:
        raise IndexArtifactError(
            f"metadata theta={metadata.get('theta')} disagrees with the "
            f"collection's {collection.num_sets} sets"
        )
    node_indptr, node_sets = collection.inverted_index()
    payload = {
        "members": np.ascontiguousarray(collection.members),
        "indptr": np.ascontiguousarray(collection.indptr),
        "node_indptr": np.ascontiguousarray(node_indptr),
        "node_sets": np.ascontiguousarray(node_sets),
    }
    # The checksum goes into the provenance record itself (not a sidecar
    # file), so a bit-flipped payload is detected on load and the file can
    # be quarantined instead of serving plausible-but-wrong spreads.
    metadata = dict(metadata)
    metadata["payload_sha256"] = payload_checksum(payload)
    meta_json = np.frombuffer(
        json.dumps(metadata, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-to-temp + atomic rename, for two reasons: a concurrent reader
    # never observes a half-written artifact, and re-persisting a *grown*
    # index over its own file must not truncate pages its collection still
    # memory-maps (the replaced inode stays valid while mapped).  Writing
    # through an open handle also stops np.savez appending ".npz" to the
    # requested name.
    # The temp file is opened with mode 0666 so the kernel applies the
    # process umask itself (mkstemp would pin 0600, leaving the artifact
    # unreadable to a serving daemon under another user; probing the umask
    # via os.umask is process-wide and thread-unsafe).
    fd = tmp_name = None
    for attempt in range(100):
        candidate = f"{path}.{os.getpid()}.{attempt}.tmp"
        try:
            fd = os.open(
                candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666
            )
            tmp_name = candidate
            break
        except FileExistsError:
            continue
    if fd is None:
        raise IndexArtifactError(
            f"could not create a temporary file next to {path}"
        )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, meta_json=meta_json, **payload)
            # Durability: flush + fsync *before* the rename.  os.replace is
            # atomic for concurrent readers but says nothing about the
            # order data and the rename reach the disk — a power loss after
            # the rename could otherwise surface a zero-length
            # "successfully written" artifact.
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.replace(tmp_name, path)
        except PermissionError as error:
            # POSIX keeps a replaced-but-mapped inode alive; Windows instead
            # refuses to replace a file with active memory maps.
            raise IndexArtifactError(
                f"cannot atomically replace {path} while it is memory-mapped "
                f"on this platform; save to a new path or reopen the index "
                f"with mmap=False first ({error})"
            )
        # Make the rename itself durable: fsync the directory so the new
        # directory entry survives a crash.  Best-effort — some platforms
        # (Windows) refuse to open directories.
        with contextlib.suppress(OSError):
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def _mmap_member(
    path: pathlib.Path, info: zipfile.ZipInfo
) -> Optional[np.ndarray]:
    """Memory-map one uncompressed npy member of the ZIP, or ``None``."""
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        header = fh.read(_LOCAL_HEADER.size)
        if len(header) != _LOCAL_HEADER.size:
            return None
        magic, _, _, name_len, extra_len = _LOCAL_HEADER.unpack(header)
        if magic != _LOCAL_MAGIC:
            return None
        data_offset = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
        fh.seek(data_offset)
        try:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                return None
        except ValueError:
            return None
        if dtype.hasobject:
            return None
        array_offset = fh.tell()
    if int(np.prod(shape)) == 0:
        # mmap cannot map zero bytes; an empty array needs no backing anyway.
        return np.empty(shape, dtype=dtype)
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=array_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def _decode_metadata(raw: np.ndarray) -> Dict[str, object]:
    try:
        metadata = json.loads(bytes(bytearray(np.asarray(raw, dtype=np.uint8))))
    except (ValueError, TypeError) as error:
        raise IndexArtifactError(f"artifact metadata is not valid JSON: {error}")
    if not isinstance(metadata, dict):
        raise IndexArtifactError("artifact metadata must be a JSON object")
    if metadata.get("format") != ARTIFACT_FORMAT:
        raise IndexArtifactError(
            f"not an influence-index artifact "
            f"(format={metadata.get('format')!r}, expected {ARTIFACT_FORMAT!r})"
        )
    version = metadata.get("format_version")
    if version != ARTIFACT_VERSION:
        raise IndexArtifactError(
            f"unsupported artifact version {version!r} "
            f"(this library reads version {ARTIFACT_VERSION})"
        )
    missing = [key for key in _REQUIRED_METADATA_KEYS if key not in metadata]
    if missing:
        raise IndexArtifactError(
            f"artifact metadata is missing required fields: "
            f"{', '.join(missing)}"
        )
    # Coerce the numeric fields up front so a null/garbage value fails here
    # with the documented error, not as a raw TypeError at first use.
    for key in ("engine_seed", "theta", "block_size", "n", "m"):
        try:
            metadata[key] = int(metadata[key])
        except (TypeError, ValueError):
            raise IndexArtifactError(
                f"artifact metadata field {key!r} must be an integer, "
                f"got {metadata[key]!r}"
            )
    for key in ("model", "graph_fingerprint"):
        if not isinstance(metadata[key], str):
            raise IndexArtifactError(
                f"artifact metadata field {key!r} must be a string, "
                f"got {metadata[key]!r}"
            )
    return metadata


def load_index_artifact(
    path: Union[str, pathlib.Path],
    mmap: bool = True,
    *,
    verify_checksum: bool = True,
) -> IndexArtifact:
    """Load an artifact, memory-mapping the CSR arrays when possible.

    The metadata member is always read eagerly (it is tiny and gates
    validation); ``members``/``indptr`` come back as read-only ``np.memmap``
    views unless ``mmap`` is disabled or the file layout prevents mapping.

    When the provenance record carries a ``payload_sha256`` (every artifact
    written since the checksum was introduced does) the payload is re-hashed
    and compared; a mismatch raises
    :class:`~repro.exceptions.ArtifactCorruptError` so the serving layer can
    quarantine the file and rebuild.  Verification reads the whole payload —
    pass ``verify_checksum=False`` to keep a memory-mapped open fully lazy
    when the file is trusted (e.g. just written by this process).
    """
    path = pathlib.Path(path)
    # Fault-injection site: a chaos plan may raise a transient OSError
    # (dead disk) or sleep (slow disk) here, before any real IO happens.
    faults.trigger(faults.SITE_ARTIFACT_READ, context=str(path))
    if not path.exists():
        raise IndexArtifactError(f"artifact {path} does not exist")
    try:
        with zipfile.ZipFile(path) as archive:
            infos = {info.filename: info for info in archive.infolist()}
            missing = [
                name for name in (*_ARRAY_NAMES, "meta_json")
                if f"{name}.npy" not in infos
            ]
            if missing:
                raise IndexArtifactError(
                    f"artifact {path} is missing arrays: {', '.join(missing)}"
                )
            with archive.open("meta_json.npy") as member:
                meta_raw = np.lib.format.read_array(
                    io.BytesIO(member.read()), allow_pickle=False
                )
    except zipfile.BadZipFile as error:
        raise IndexArtifactError(
            f"artifact {path} is not a valid npz ({error}); {_REMEDIATION}"
        )
    except (ValueError, EOFError, struct.error) as error:
        # Truncated zip members and bad/foreign npy headers surface as raw
        # ValueError/EOFError from numpy's format reader — wrap them so
        # serve clients get the path and a remediation hint instead of a
        # leaked internal exception.
        raise IndexArtifactError(
            f"artifact {path} is unreadable ({error}); {_REMEDIATION}"
        )
    metadata = _decode_metadata(meta_raw)

    optional_present = tuple(
        name for name in _OPTIONAL_ARRAY_NAMES if f"{name}.npy" in infos
    )
    arrays: Dict[str, np.ndarray] = {}
    mapped = True
    if mmap:
        for name in _ARRAY_NAMES + optional_present:
            view = _mmap_member(path, infos[f"{name}.npy"])
            if view is None:
                mapped = False
                break
            arrays[name] = view
    else:
        mapped = False
    if not mapped:
        try:
            with np.load(path, allow_pickle=False) as bundle:
                arrays = {
                    name: np.array(bundle[name])
                    for name in _ARRAY_NAMES + optional_present
                }
        except (ValueError, EOFError, KeyError, struct.error,
                zipfile.BadZipFile) as error:
            raise IndexArtifactError(
                f"artifact {path} is unreadable ({error}); {_REMEDIATION}"
            )

    stored_digest = metadata.get("payload_sha256")
    if verify_checksum and stored_digest is not None:
        actual_digest = payload_checksum(arrays)
        # Fault-injection site: a "corrupt" rule simulates bit-rot in the
        # payload without destroying the file on disk.
        if faults.trigger(
            faults.SITE_ARTIFACT_PAYLOAD, context=str(path)
        ) == faults.CORRUPT:
            actual_digest = "<injected-corruption>"
        if actual_digest != stored_digest:
            raise ArtifactCorruptError(
                path,
                f"payload sha256 {actual_digest[:12]}… does not match the "
                f"recorded {str(stored_digest)[:12]}…",
                metadata=metadata,
            )

    members, indptr = arrays["members"], arrays["indptr"]
    # Integer dtypes only: float arrays would pass the boundary checks via
    # int() coercion and then crash (or wrap) inside index-gather queries.
    for name, array in arrays.items():
        if array.dtype.kind not in "iu":
            raise IndexArtifactError(
                f"artifact {path} array {name!r} has non-integer dtype "
                f"{array.dtype}"
            )
    if (
        indptr.ndim != 1
        or indptr.size == 0
        or int(indptr[0]) != 0
        or int(indptr[-1]) != members.size
        or np.any(np.diff(indptr) < 0)
    ):
        raise IndexArtifactError(
            f"artifact {path} holds a malformed CSR "
            f"(indptr boundaries disagree with members)"
        )
    if int(metadata["theta"]) != indptr.size - 1:
        raise IndexArtifactError(
            f"artifact {path} metadata theta={metadata['theta']} disagrees "
            f"with the stored {indptr.size - 1} sets"
        )
    # Range-check the member values: negative entries would silently wrap in
    # the boolean-mask gathers and return plausible-but-wrong spreads.  One
    # min/max pass over the (possibly mapped) array costs low milliseconds
    # at the 50k-set scale.
    if members.size and (
        int(members.min()) < 0 or int(members.max()) >= int(metadata["n"])
    ):
        raise IndexArtifactError(
            f"artifact {path} holds member values outside 0..{metadata['n']}"
        )
    node_indptr = arrays.get("node_indptr")
    node_sets = arrays.get("node_sets")
    if node_indptr is not None and node_sets is not None:
        # Same reasoning as the member range check: negative set ids would
        # wrap in the cover's gathers and return wrong seed selections.
        if (
            node_indptr.size != int(metadata["n"]) + 1
            or node_sets.size != members.size
            or (node_indptr.size and int(node_indptr[0]) != 0)
            or (node_indptr.size and int(node_indptr[-1]) != node_sets.size)
            or np.any(np.diff(node_indptr) < 0)
            or (node_sets.size and (
                int(node_sets.min()) < 0
                or int(node_sets.max()) >= indptr.size - 1
            ))
        ):
            raise IndexArtifactError(
                f"artifact {path} holds a malformed inverted index"
            )
    else:
        node_indptr = node_sets = None
    return IndexArtifact(
        members=members,
        indptr=indptr,
        metadata=metadata,
        path=path,
        memory_mapped=mapped,
        node_indptr=node_indptr,
        node_sets=node_sets,
    )
