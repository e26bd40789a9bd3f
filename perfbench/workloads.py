"""The benchmark's three topologies and their seeded write plans.

Every workload is an ecosystem (publisher + heterogeneous subscribers)
plus a write plan: a list of operations drawn from the seed before any
timing starts, so the generator loop does no random draws while it is
being measured and the same seed always issues the same writes.

Each replicated model carries a ``sent`` field. The generator writes the
host-wide monotonic time at which the write was *due* into it, and every
subscriber model's ``after_save`` hook subtracts it from the apply time.
``time.monotonic`` is CLOCK_MONOTONIC on Linux, shared by every process
on the host, so the same stamp works across shard processes.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core import Ecosystem
from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike
from repro.databases.relational import MySQLLike, PostgresLike
from repro.databases.search import ElasticsearchLike
from repro.orm import Field, Model, after_save

SOCIAL = "social"
SHOP = "shop"

#: Paced-phase rates (writes/s): fixed constants, a fifth to a twentieth
#: of each workload's burst throughput on a 2-core host (NOTES.md says
#: why not a third). Never re-derived, so a later speed-up shows as
#: lower propagation latency at the same load.
PACED_RATE = {"social_causal": 200.0, "durable_fanout": 100.0,
              "cross_shard": 100.0}

#: Writes per phase and round. ``quick`` sizes are for the smoke tests.
SIZES = {
    "social_causal": {"users": 20, "paced": 200, "burst": 4000},
    "durable_fanout": {"hot": 64, "paced": 100, "burst": 1600},
    "cross_shard": {"users": 20, "paced": 100, "burst": 4000},
}
QUICK_SIZES = {
    "social_causal": {"users": 5, "paced": 40, "burst": 60},
    "durable_fanout": {"hot": 8, "paced": 30, "burst": 60},
    "cross_shard": {"users": 5, "paced": 40, "burst": 60},
}


class Probe:
    """Apply-time stamps taken by the subscribers' ``after_save`` hooks
    while ``recording`` is on (the paced phase)."""

    def __init__(self) -> None:
        self.recording = False
        self.samples: List[float] = []

    def hook(self, sent: Optional[float]) -> None:
        if self.recording and sent is not None:
            self.samples.append(time.monotonic() - sent)


@dataclass
class Topology:
    """A built ecosystem plus the handles a round needs."""

    ecosystem: Any
    publisher: Any
    subscribers: List[Any]
    probe: Probe
    models: Dict[str, type]
    #: Publisher-side durability manager (durable_fanout only).
    durability: Any = None


def _subscriber_model(service: Any, probe: Probe, model_name: str,
                      fields: Dict[str, type], publisher: str,
                      mode: Optional[str] = None) -> type:
    spec: Dict[str, Any] = {"from": publisher, "fields": list(fields)}
    if mode is not None:
        spec["mode"] = mode
    namespace: Dict[str, Any] = {name: Field(kind)
                                 for name, kind in fields.items()}

    def stamp(self: Any) -> None:
        probe.hook(self.sent)

    namespace["stamp"] = after_save(stamp)
    cls = type(model_name, (Model,), namespace)
    return service.model(subscribe=spec, name=model_name)(cls)


# -- social mix (social_causal, cross_shard) ----------------------------------

SOCIAL_FIELDS = {
    "User": {"name": str, "sent": float},
    "Post": {"author_id": int, "body": str, "sent": float},
    "Comment": {"post_id": int, "author_id": int, "body": str, "sent": float},
}


def _social_publisher(eco: Any) -> Dict[str, type]:
    pub = eco.service(SOCIAL, database=MongoLike("social-db"),
                      delivery_mode="causal")

    @pub.model(publish=list(SOCIAL_FIELDS["User"]))
    class User(Model):
        name = Field(str)
        sent = Field(float)

    @pub.model(publish=list(SOCIAL_FIELDS["Post"]))
    class Post(Model):
        author_id = Field(int)
        body = Field(str)
        sent = Field(float)

    @pub.model(publish=list(SOCIAL_FIELDS["Comment"]))
    class Comment(Model):
        post_id = Field(int)
        author_id = Field(int)
        body = Field(str)
        sent = Field(float)

    return {"User": User, "Post": Post, "Comment": Comment}


def _social_subscriber(eco: Any, name: str, database: Any,
                       probe: Probe) -> Any:
    service = eco.service(name, database=database)
    for model_name, fields in SOCIAL_FIELDS.items():
        _subscriber_model(service, probe, model_name, fields, SOCIAL)
    return service


def build_social() -> Topology:
    """MongoLike publisher (causal) -> PostgresLike + CassandraLike."""
    eco = Ecosystem()
    probe = Probe()
    models = _social_publisher(eco)
    subs = [
        _social_subscriber(eco, "pg", PostgresLike("pg-db"), probe),
        _social_subscriber(eco, "cass", CassandraLike("cass-db"), probe),
    ]
    return Topology(eco, eco.services[SOCIAL], subs, probe, models)


def social_plan(rng: random.Random, count: int) -> List[tuple]:
    """25% posts / 75% comments; a comment reads a recent post (the
    cross-user read dependency) chosen by a pre-drawn fraction."""
    return [
        ("post" if rng.random() < 0.25 else "comment",
         rng.randrange(1 << 30), rng.random())
        for _ in range(count)
    ]


class SocialWriter:
    """Issues one planned social write inside a controller scope."""

    def __init__(self, topo: Topology, users: List[Any]) -> None:
        self.service = topo.publisher
        self.models = topo.models
        self.users = users
        self.recent: List[int] = []

    def __call__(self, op: tuple, sent: float) -> None:
        kind, user_pick, post_pick = op
        user = self.users[user_pick % len(self.users)]
        models = self.models
        with self.service.controller(user=user):
            if kind == "post" or not self.recent:
                post = models["Post"].create(author_id=user.id,
                                             body="post body", sent=sent)
                self.recent.append(post.id)
                if len(self.recent) > 64:
                    self.recent.pop(0)
            else:
                target = self.recent[int(post_pick * len(self.recent))]
                seen = models["Post"].find(target)  # the cross-user read dep
                models["Comment"].create(post_id=seen.id, author_id=user.id,
                                         body="nice post", sent=sent)


def seed_social(topo: Topology, users: int) -> SocialWriter:
    user_cls = topo.models["User"]
    with topo.publisher.controller():
        created = [user_cls.create(name=f"user{i}") for i in range(users)]
    return SocialWriter(topo, created)


# -- durable_fanout -----------------------------------------------------------

SHOP_FIELDS = {"sku": str, "qty": int, "note": str, "sent": float}


def build_durable(data_dir: str) -> Topology:
    """MySQLLike publisher (causal, no RETURNING) -> PostgresLike and
    MongoLike (causal) + ElasticsearchLike (weak), with WAL durability
    (interval fsync), default flow control, the CDC outbox and 1%
    sampled program tracing."""
    from repro.runtime.flow import FlowConfig

    eco = Ecosystem()
    eco.enable_flow(FlowConfig())
    probe = Probe()
    pub = eco.service(SHOP, database=MySQLLike("shop-db"),
                      delivery_mode="causal")

    @pub.model(publish=list(SHOP_FIELDS))
    class Order(Model):
        sku = Field(str)
        qty = Field(int)
        note = Field(str)
        sent = Field(float)

    subs = []
    for name, database, mode in (("pg", PostgresLike("pg-db"), None),
                                 ("mongo", MongoLike("mongo-db"), None),
                                 ("search", ElasticsearchLike("es-db"), "weak")):
        service = eco.service(name, database=database)
        _subscriber_model(service, probe, "Order", SHOP_FIELDS, SHOP, mode)
        subs.append(service)
    durability = eco.enable_durability(data_dir=data_dir, fsync="interval")
    pub.enable_outbox()
    eco.enable_tracing(sample_rate=0.01, seed=0)
    return Topology(eco, pub, subs, probe, {"Order": Order},
                    durability=durability)


def durable_plan(rng: random.Random, count: int) -> List[tuple]:
    """40% ORM creates, 50% updates to the hot rows, 10% raw inserts."""
    plan = []
    for _ in range(count):
        draw = rng.random()
        kind = "create" if draw < 0.4 else "update" if draw < 0.9 else "raw"
        plan.append((kind, rng.randrange(1 << 30), rng.randrange(1000)))
    return plan


class DurableWriter:
    """Issues one planned durable_fanout write; raw inserts are tailed
    into the publisher path right after the call (outside its timing)."""

    def __init__(self, topo: Topology, hot_ids: List[int]) -> None:
        self.service = topo.publisher
        self.order = topo.models["Order"]
        self.hot_ids = hot_ids
        self.raw = topo.publisher.raw_session()
        self.poller = topo.publisher.cdc_poller

    def __call__(self, op: tuple, sent: float) -> Optional[Callable[[], Any]]:
        kind, pick, qty = op
        if kind == "raw":
            self.raw.insert(self.order, {"sku": f"raw-{pick % 997}",
                                         "qty": qty, "note": "outbox",
                                         "sent": sent})
            return self.poller.poll
        with self.service.controller():
            if kind == "create":
                self.order.create(sku=f"sku-{pick % 997}", qty=qty,
                                  note="new", sent=sent)
            else:
                row = self.order.find(self.hot_ids[pick % len(self.hot_ids)])
                row.qty = qty
                row.note = "updated"
                row.sent = sent
                row.save()
        return None


def seed_durable(topo: Topology, hot: int) -> DurableWriter:
    order = topo.models["Order"]
    with topo.publisher.controller():
        rows = [order.create(sku=f"hot-{i}", qty=0, note="seed")
                for i in range(hot)]
    return DurableWriter(topo, [row.id for row in rows])


# -- cross_shard --------------------------------------------------------------

#: Shard placement: the publisher, its generator and one subscriber on
#: shard ``s0``; the second subscriber on ``s1`` so every one of its
#: messages crosses the broker's forward seam.
CROSS_PLACEMENT = {"s0": [SOCIAL, "pg"], "s1": ["cass"]}


def build_cross() -> Ecosystem:
    """Ecosystem factory for ShardRunner (module level: the runner
    pickles it by reference). Each shard builds the full social topology
    and keeps the Topology on the ecosystem for the scenario to find.

    Each shard first pins itself to a CPU of its own (when the host
    gives the benchmark two): left to the scheduler, the two busy shard
    processes sometimes shared one CPU for a whole round, and burst
    throughput of one seed ranged 1,790-3,140 writes/s unpinned against
    2,600-3,100 pinned (six rounds each, 2-core host)."""
    from repro.runtime.tracing import process_shard

    cpus = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []
    if len(cpus) >= len(CROSS_PLACEMENT):
        shard = sorted(CROSS_PLACEMENT).index(process_shard())
        os.sched_setaffinity(0, {cpus[shard]})
    topo = build_social()
    topo.ecosystem.perfbench_topology = topo
    return topo.ecosystem


PLANS = {
    "social_causal": social_plan,
    "durable_fanout": durable_plan,
    "cross_shard": social_plan,
}
