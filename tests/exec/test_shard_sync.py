"""ShardSyncManager planning and the shard-locality wire codecs.

The manager decides *what* crosses the wire before a key-only scatter:
nothing for a current client, an O(delta) upsert list for a client a
few published versions behind, a full snapshot for everyone else.
These tests pin that ladder -- and the pickle round-trips of the
``SHARD_SYNC`` / ``KEY_BATCH`` payloads carrying it.
"""

from __future__ import annotations

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.errors import ProtocolError
from repro.exec.remote import ShardSyncManager, protocol
from repro.exec.remote.shards import MAX_DELTA_LOG
from repro.model.relation import ExtendedRelation


def _relation(n: int = 8, seed: int = 5, name: str = "R"):
    config = SyntheticConfig(n_tuples=n, ignorance=0.5, seed=seed)
    return synthetic_relation(config, name)


def _with_rows(relation, rows):
    return ExtendedRelation(relation.schema, rows, on_unsupported="allow")


# -- publishing and planning --------------------------------------------------


def test_fresh_client_receives_a_full_snapshot():
    manager = ShardSyncManager()
    relation = _relation()
    manager.publish(relation)
    ops, versions = manager.plan_for({}, ["R"])
    assert [op[0] for op in ops] == ["full"]
    assert ops[0][1] == "R"
    assert ops[0][2] is relation
    assert versions == {"R": 1}


def test_current_client_receives_nothing():
    manager = ShardSyncManager()
    manager.publish(_relation())
    ops, versions = manager.plan_for({"R": 1}, ["R"])
    assert ops == []
    assert versions == {"R": 1}


def test_unpublished_name_plans_none():
    manager = ShardSyncManager()
    assert manager.plan_for({}, ["ghost"]) is None


def test_lagging_client_receives_only_the_delta():
    manager = ShardSyncManager()
    relation = _relation(n=10)
    manager.publish(relation)
    rows = list(relation)
    # Drop one entity and keep the rest untouched: version 2's delta
    # is exactly that one key.
    removed_key = rows[3].key()
    updated = _with_rows(relation, rows[:3] + rows[4:])
    manager.publish(updated)
    ops, versions = manager.plan_for({"R": 1}, ["R"])
    assert [op[0] for op in ops] == ["delta"]
    _, name, schema, upserts, removes = ops[0]
    assert name == "R" and schema == relation.schema
    assert upserts == []
    assert removes == [removed_key]
    assert versions == {"R": 2}


def test_dirty_hints_shape_the_delta():
    manager = ShardSyncManager()
    relation = _relation(n=6)
    manager.publish(relation)
    hinted = next(iter(relation)).key()
    # Same content, but the publisher says one key changed: trust it.
    manager.publish(_with_rows(relation, list(relation)), changed=[hinted])
    ops, _versions = manager.plan_for({"R": 1}, ["R"])
    (_, _, _, upserts, removes) = ops[0][:5]
    assert [etuple.key() for etuple in upserts] == [hinted]
    assert removes == []


def test_quiet_republish_keeps_clients_current():
    manager = ShardSyncManager()
    relation = _relation()
    manager.publish(relation)
    manager.publish(relation)  # identical object
    manager.publish(_with_rows(relation, list(relation)))  # same content
    ops, versions = manager.plan_for({"R": 1}, ["R"])
    assert ops == [] and versions == {"R": 1}


def test_schema_change_forces_full_resync():
    from repro.algebra.project import project

    manager = ShardSyncManager()
    relation = _relation()
    manager.publish(relation)
    # The same name with a projected (different) schema: every stored
    # row is invalid, so even a one-version-behind client resyncs full.
    narrowed = project(relation, ("id", "category")).with_name("R")
    assert narrowed.schema != relation.schema
    manager.publish(narrowed)
    ops, versions = manager.plan_for({"R": 1}, ["R"])
    assert [op[0] for op in ops] == ["full"]
    assert versions == {"R": 2}


def test_client_behind_the_delta_log_gets_a_snapshot():
    manager = ShardSyncManager()
    relation = _relation(n=4)
    manager.publish(relation)
    rows = list(relation)
    current = relation
    for round_number in range(MAX_DELTA_LOG + 2):
        # Rotate which single entity is hinted dirty each round.
        hinted = rows[round_number % len(rows)].key()
        current = _with_rows(relation, list(current))
        manager.publish(current, changed=[hinted])
    ops, _versions = manager.plan_for({"R": 1}, ["R"])
    assert [op[0] for op in ops] == ["full"]
    # A client inside the retained window still gets a delta.
    recent = manager.plan_for({"R": MAX_DELTA_LOG + 2}, ["R"])
    assert [op[0] for op in recent[0]] == ["delta"]


def test_force_full_overrides_the_delta_log():
    manager = ShardSyncManager()
    relation = _relation(n=5)
    manager.publish(relation)
    manager.publish(
        _with_rows(relation, list(relation)),
        changed=[next(iter(relation)).key()],
    )
    ops, _ = manager.plan_for({"R": 1}, ["R"], force_full=True)
    assert [op[0] for op in ops] == ["full"]


# -- wire codecs --------------------------------------------------------------


def test_sync_payload_round_trips():
    relation = _relation(n=3)
    ops = [
        ("full", "R", relation),
        ("delta", "R", relation.schema, list(relation)[:1], ["k1"]),
    ]
    decoded = protocol.decode_sync(protocol.encode_sync(ops))
    assert decoded[0][0] == "full"
    assert decoded[0][2] == relation
    kind, name, schema, upserts, removed = decoded[1]
    assert (kind, name, removed) == ("delta", "R", ["k1"])
    assert schema == relation.schema
    assert upserts == list(relation)[:1]


def test_keyspec_payload_round_trips():
    specs = [(("R", (("a",), ("b",))),), (("R", ()), ("S", (("c",),)))]
    epoch, decoded = protocol.decode_keyspec(
        protocol.encode_keyspec(7, specs)
    )
    assert epoch == 7
    assert decoded == specs


def test_malformed_locality_payloads_raise_protocol_error():
    with pytest.raises(ProtocolError):
        protocol.decode_sync(b"not a pickle")
    with pytest.raises(ProtocolError):
        protocol.decode_keyspec(b"\x80")
