import dataclasses
import json
import threading
from fractions import Fraction

import pytest

from hklab.colength import ColengthRecord, IdealSpec, colength
from hklab.graded import parse_ring_spec
from hklab.store import ResultStore, cached_colength


def sample_record(total=27, q=3):
    return ColengthRecord(
        p=3,
        n=1,
        q=q,
        dims=(1, 3, 6, 7, 6, 3, 1, 0),
        total=total,
        normalized=Fraction(total, q * q),
    )


def test_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    key = ResultStore.key(3, 1, "ring", "ideal", "v1")
    store.put(key, sample_record())
    assert store.get(key) == sample_record()


def test_get_on_empty_store(tmp_path):
    store = ResultStore(tmp_path / "never_created")
    assert store.get(ResultStore.key(3, 1, "r", "i", "v")) is None


def test_corrupt_entry_treated_as_absent(tmp_path, caplog):
    store = ResultStore(tmp_path)
    key = ResultStore.key(3, 1, "r", "i", "v")
    store.put(key, sample_record())
    path = tmp_path / f"{key}.json"
    path.write_text("{not json", encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert store.get(key) is None
    assert "corrupt" in caplog.text
    caplog.clear()
    # parseable JSON whose fields have the wrong types
    for normalized in (3, "1/0"):
        payload = sample_record().to_json_dict()
        payload["normalized"] = normalized
        path.write_text(json.dumps(payload), encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert store.get(key) is None
        assert "corrupt" in caplog.text


def test_key_sensitivity():
    base = ResultStore.key(3, 1, "ring", "ideal", "v1")
    assert ResultStore.key(3, 2, "ring", "ideal", "v1") != base
    assert ResultStore.key(3, 1, "ring", "ideal", "v2") != base
    assert ResultStore.key(3, 1, "ring", "other", "v1") != base
    assert ResultStore.key(3, 1, "ring", "ideal", "v1") == base


def test_concurrent_writers_leave_valid_entry(tmp_path):
    store = ResultStore(tmp_path)
    key = ResultStore.key(5, 1, "r", "i", "v")
    records = [sample_record(total=100 + i) for i in range(8)]
    barrier = threading.Barrier(len(records))

    def writer(rec):
        barrier.wait()
        store.put(key, rec)

    threads = [threading.Thread(target=writer, args=(r,)) for r in records]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    winner = store.get(key)
    assert winner in records
    # no stray temp files survive
    assert list(tmp_path.glob("*.tmp")) == []


def test_cached_colength_computes_and_stores(tmp_path):
    store = ResultStore(tmp_path)
    ring = parse_ring_spec("fermat:s=3,d=4,p=3")
    ideal = IdealSpec.maximal_ideal(ring)
    rec = cached_colength(store, ring, ideal, 1)
    assert rec.total == 27
    key = ResultStore.key(
        3, 1, ring.canonical_string(), ideal.canonical_string(), "0.1.0"
    )
    assert store.get(key) == rec


def _planted(tmp_path, record):
    store = ResultStore(tmp_path)
    ring = parse_ring_spec("fermat:s=3,d=4,p=3")
    ideal = IdealSpec.maximal_ideal(ring)
    key = ResultStore.key(
        3, 1, ring.canonical_string(), ideal.canonical_string(), "0.1.0"
    )
    store.put(key, record)
    return store, ring, ideal, key


def test_cached_colength_reads_planted_entry(tmp_path, caplog):
    # a consistent entry under the right key is served as stored, even one
    # the engine would not produce; an inconsistent one is recomputed
    consistent = ColengthRecord(
        p=3, n=1, q=3, dims=(1, 2, 0), total=3, normalized=Fraction(3, 9)
    )
    store, ring, ideal, _ = _planted(tmp_path, consistent)
    assert cached_colength(store, ring, ideal, 1) == consistent
    store, ring, ideal, key = _planted(tmp_path, sample_record(total=999))
    with caplog.at_level("WARNING"):
        rec = cached_colength(store, ring, ideal, 1)
    assert rec.total == 27
    assert store.get(key) == rec
    assert "inconsistent" in caplog.text


@pytest.mark.parametrize(
    "change",
    [
        {"p": 5},
        {"n": 2},
        {"q": 9},
        {"total": 26},
        {"dims": (1, 3, 6, 7, 6, 3, 1)},
        {"normalized": Fraction(27, 3)},
    ],
    ids=["p", "n", "q", "total", "dims", "normalized"],
)
def test_cached_colength_discards_inconsistent_entry(tmp_path, change, caplog):
    bad = dataclasses.replace(sample_record(), **change)
    store, ring, ideal, key = _planted(tmp_path, bad)
    with caplog.at_level("WARNING"):
        rec = cached_colength(store, ring, ideal, 1)
    assert rec == sample_record()
    assert store.get(key) == rec
    assert "inconsistent" in caplog.text


def test_cached_colength_without_store():
    ring = parse_ring_spec("fermat:s=3,d=4,p=3")
    ideal = IdealSpec.maximal_ideal(ring)
    direct = colength(ring, ideal, 1)
    assert cached_colength(None, ring, ideal, 1) == direct


def test_generator_order_shares_cache():
    ring = parse_ring_spec("fermat:s=3,d=4,p=3")
    a = IdealSpec.maximal_ideal(ring)
    b = IdealSpec.from_polynomials(tuple(reversed(a.generators)))
    key_a = ResultStore.key(3, 1, ring.canonical_string(), a.canonical_string(), "v")
    key_b = ResultStore.key(3, 1, ring.canonical_string(), b.canonical_string(), "v")
    assert key_a == key_b
