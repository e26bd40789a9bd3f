"""Concurrent creates on every engine family (§4.1 read-back).

Engines without ``RETURNING`` capture a new row with one extra read.
That read must fetch *this* insert's row: a "newest row" query run as a
separate engine call returns another thread's row under concurrent
creates, so the ORM object and its published message describe the
wrong row and the real one never replicates.
"""

import threading

import pytest

from repro.core import Ecosystem
from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike, RethinkDBLike, TokuMXLike
from repro.databases.graph import Neo4jLike
from repro.databases.relational import MySQLLike, OracleLike, PostgresLike
from repro.databases.search import ElasticsearchLike
from repro.orm import Field, Model
from repro.repair import ReplicationAuditor
from repro.runtime.workers import SubscriberWorkerPool

ENGINES = [
    PostgresLike, MySQLLike, OracleLike, MongoLike, TokuMXLike,
    RethinkDBLike, CassandraLike, ElasticsearchLike, Neo4jLike,
]
THREADS = 4
CREATES = 300


def build(engine_cls):
    eco = Ecosystem()
    pub = eco.service("pub", database=engine_cls("pub-db"))

    @pub.model(publish=["name", "n"], name="Item")
    class Item(Model):
        name = Field(str)
        n = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name", "n"]}, name="Item")
    class SubItem(Model):
        name = Field(str)
        n = Field(int, default=0)

    return eco, pub, Item, sub


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda cls: cls.__name__)
def test_threaded_creates_read_back_their_own_rows(engine_cls):
    eco, pub, Item, sub = build(engine_cls)
    created = [[] for _ in range(THREADS)]
    errors = []
    barrier = threading.Barrier(THREADS)

    def creator(k):
        try:
            barrier.wait()
            for i in range(CREATES):
                created[k].append(Item.create(name=f"t{k}-{i}", n=i))
        except Exception as exc:  # pragma: no cover - diagnostics
            errors.append(exc)

    with SubscriberWorkerPool(sub, workers=2) as pool:
        threads = [
            threading.Thread(target=creator, args=(k,)) for k in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pool.wait_until_idle(timeout=60)
    assert errors == []
    objects = [item for items in created for item in items]
    assert len({item.id for item in objects}) == THREADS * CREATES
    for item in objects:
        row = Item.__mapper__.find(item.id)
        assert (item.name, item.n) == (row["name"], row["n"])
    report = ReplicationAuditor(sub).audit()
    assert report.in_sync


def test_mysql_create_reads_back_by_primary_key():
    """The read-back is a primary-key lookup, flat in table size — not
    a full scan plus a sort per create."""
    eco, pub, Item, sub = build(MySQLLike)
    for i in range(50):
        Item.create(name=f"warm-{i}")
    stats = pub.database.stats
    scans = stats.scans
    for i in range(50):
        Item.create(name=f"c{i}")
    assert stats.scans - scans == 0
