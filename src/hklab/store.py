"""On-disk cache of colength records.

Entries are keyed by a content hash of (p, n, canonical ring string,
canonical ideal string, artifact version), so generator order or ring
respelling never splits the cache, and a version bump invalidates it
wholesale.  Writes go through a temp file plus rename, which keeps
concurrent writers from ever exposing a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from hklab.colength import ColengthRecord, IdealSpec, colength
from hklab.diagonal import han_monsky_applies, han_monsky_colength
from hklab.graded import HypersurfaceRing

__all__ = ["ResultStore", "cached_colength"]


def _warn_discarded(what: str, name: str, exc: Exception) -> None:
    """Warn that the ``what`` entry ``name`` is discarded.  ``logging`` is
    imported here, on the rare run that warns, not with hk-lab."""
    import logging

    logging.getLogger(__name__).warning("discarding %s cache entry %s: %s", what, name, exc)


class ResultStore:
    def __init__(self, root):
        self.root = Path(root)

    @staticmethod
    def key(p: int, n, ring_string: str, ideal_string: str, version: str) -> str:
        blob = json.dumps(
            {
                "p": p,
                "n": n,
                "ring": ring_string,
                "ideal": ideal_string,
                "version": version,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The JSON stored under ``key``; None when there is no entry, or
        with a warning when it is not UTF-8 JSON or is null."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
            if stored is None:  # would read as no entry
                raise ValueError("null entry")
            return stored
        except FileNotFoundError:
            return None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            _warn_discarded("corrupt", path.name, exc)
            return None

    def put(self, key: str, record: ColengthRecord) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record.to_json_dict(), sort_keys=True, indent=2)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _served(stored, p: int, n: int, krull_dim: int) -> ColengthRecord:
    """The record ``ColengthRecord.from_dims`` builds from the requested p
    and n and the stored dims.  ValueError unless every piece is a JSON
    integer and that record serializes to exactly ``stored``; KeyError or
    TypeError when ``stored`` has no dims to read."""
    dims = stored["dims"]
    if not all(type(v) is int for v in dims):  # a float, string or bool
        raise ValueError("a piece is not an integer")
    record = ColengthRecord.from_dims(p, n, dims, krull_dim)
    if record.to_json_dict() != stored:
        raise ValueError(f"not the record of its dims at p={p}, n={n}")
    return record


def cached_colength(
    store: Optional[ResultStore],
    ring: HypersurfaceRing,
    ideal: IdealSpec,
    n: int,
    max_dim: Optional[int] = None,
) -> ColengthRecord:
    """Colength of the n-th Frobenius power of ``ideal``, p being the ring's
    characteristic.

    The maximal ideal of F_p[x]/(sum c_i x_i^d), every variable present, goes
    to ``diagonal.han_monsky_colength``: the degree-m piece is the sum, over
    residue tuples r in [0, d)^s, of the degree-j pieces of
    F_p[T]/(T_i^{k_i}, sum T_i), k_i = ceil((q - r_i)/d) and |r| + d*j = m,
    tuples with some k_i <= 0 contributing nothing.  Every other ring and
    ideal goes to the generic ``colength``.  Both take the same arguments,
    give the same record and raise the same SizeGuardError.

    Served from the store when ``_served`` accepts its entry under the same
    key; any other entry is discarded with a warning, recomputed and
    overwritten.
    """
    from hklab import __version__

    p = ring.field.p
    if store is not None:
        key = ResultStore.key(
            p, n, ring.canonical_string(), ideal.canonical_string(), __version__
        )
        stored = store.get(key)
        if stored is not None:
            try:
                return _served(stored, p, n, ring.krull_dim)
            except (KeyError, TypeError, ValueError) as exc:  # NotPrimaryError too
                _warn_discarded("inconsistent", key, exc)
    engine = han_monsky_colength if han_monsky_applies(ring, ideal) else colength
    record = engine(ring, ideal, n, max_dim)
    if store is not None:
        store.put(key, record)
    return record
