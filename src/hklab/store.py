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
import logging
import os
import tempfile
from pathlib import Path
from typing import Optional

from hklab.colength import ColengthRecord, IdealSpec, colength
from hklab.diagonal import han_monsky_applies, han_monsky_colength
from hklab.graded import HypersurfaceRing

__all__ = ["ResultStore", "cached_colength"]

log = logging.getLogger(__name__)


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

    def get(self, key: str) -> Optional[ColengthRecord]:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return ColengthRecord.from_json_dict(payload)
        except FileNotFoundError:
            return None
        except (
            json.JSONDecodeError,
            AttributeError,
            KeyError,
            TypeError,
            ValueError,
            ZeroDivisionError,
        ) as exc:
            log.warning("discarding corrupt cache entry %s: %s", path.name, exc)
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


def _inconsistency(
    record: ColengthRecord, p: int, n: int, krull_dim: int
) -> Optional[str]:
    """Why a cached record cannot be the colength it is stored under, or
    None when it passes every check."""
    if not record.dims or record.dims[-1] != 0:
        return "dims do not end in a zero piece"
    expected = ColengthRecord.from_dims(p, n, record.dims, krull_dim)
    wrong = [
        f"{field} = {value!r}, expected {getattr(expected, field)!r}"
        for field, value in vars(record).items()
        if value != getattr(expected, field)
    ]
    return "; ".join(wrong) or None


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

    Served from the store when it holds an entry under the same key that is
    consistent with the request; any other entry is discarded with a
    warning, recomputed and overwritten.
    """
    from hklab import __version__

    p = ring.field.p
    key = ResultStore.key(
        p, n, ring.canonical_string(), ideal.canonical_string(), __version__
    )
    if store is not None:
        hit = store.get(key)
        if hit is not None:
            problem = _inconsistency(hit, p, n, ring.krull_dim)
            if problem is None:
                return hit
            log.warning("discarding inconsistent cache entry %s: %s", key, problem)
    engine = han_monsky_colength if han_monsky_applies(ring, ideal) else colength
    record = engine(ring, ideal, n, max_dim)
    if store is not None:
        store.put(key, record)
    return record
