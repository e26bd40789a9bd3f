"""Each message is encoded once: WAL records splice its canonical string.

A record's ``m`` is :meth:`Message.canonical`, spliced into the record
verbatim, and :func:`encode_record` forms the envelope around the
canonical record string by string formatting. The on-disk format must
not move by a byte, so these tests hold the live pipeline's WAL lines
against the two-pass encoding the log used before (``m`` decoded from
``to_json`` minus the trace, the record dumped canonically for the
CRC, then the whole envelope dumped again):

- every ``out``/``pub``/``coal``/``apply`` line equals that encoding of
  the message as it stood when the record was logged;
- a coalesced survivor's ``coal`` and ``apply`` records carry the
  merged attributes and increments (coalescing must drop the cached
  pre-merge string);
- traced messages leave no ``trace`` in any record.
"""

from __future__ import annotations

import json
import zlib

from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.durability.wal import encode_record
from repro.orm import Field, Model
from repro.runtime.flow import FlowConfig

PAYLOAD_KINDS = ("out", "pub", "coal", "apply")


def two_pass_line(rec):
    """The WAL line as the pre-splice writer encoded ``rec``."""
    canonical = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    envelope = {"v": 1, "crc": crc, "rec": rec}
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


def two_pass_payload(message):
    """The pre-splice ``m``: the wire payload decoded, trace dropped."""
    data = json.loads(message.to_json())
    data.pop("trace", None)
    return data


def build_pipeline(data_dir):
    eco = Ecosystem()
    eco.enable_flow(FlowConfig(capacity=64))
    eco.enable_tracing(sample_rate=1.0, seed=0)
    pub = eco.service("pub", database=MongoLike("pub-db"),
                      delivery_mode="weak")

    @pub.model(publish=["name", "value", "tags"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)
        tags = Field(dict)

    for name in ("sub_a", "sub_b"):
        sub = eco.service(name, database=MongoLike(f"{name}-db"))

        @sub.model(
            subscribe={"from": "pub", "fields": ["name", "value", "tags"],
                       "mode": "weak"},
            name="Doc",
        )
        class SubDoc(Model):
            name = Field(str)
            value = Field(int, default=0)
            tags = Field(dict)

    manager = eco.enable_durability(data_dir=str(data_dir))
    return eco, pub, manager, PubDoc


def record_payload_lines(eco, manager):
    """Run the logging hooks as usual, and after each payload-carrying
    one note (kind, append index, the message, its two-pass ``m`` at
    that moment). Drains are single-threaded, so the record a hook
    wrote is the last one appended."""
    seen = []
    for kind in PAYLOAD_KINDS:
        hook = getattr(manager, f"log_{kind}")

        def spy(*args, kind=kind, hook=hook):
            hook(*args)
            index = eco.metrics.value("durability.wal.appends") - 1
            seen.append((kind, index, args[-1], two_pass_payload(args[-1])))

        setattr(manager, f"log_{kind}", spy)
    return seen


def wal_lines(manager):
    manager.wal.sync()
    lines = []
    for sid in manager.wal.segment_ids():
        with open(manager.wal.segment_path(sid), encoding="utf-8") as fh:
            lines.extend(line.rstrip("\n") for line in fh if line.strip())
    return lines


def run_workload(tmp_path):
    eco, pub, manager, PubDoc = build_pipeline(tmp_path)
    seen = record_payload_lines(eco, manager)
    with pub.controller():
        # Int-keyed dict attribute: the wire copy keys it by strings,
        # and the canonical string must sort them as strings too.
        doc = PubDoc.create(name="doc", value=0,
                            tags={10: "ten", 9: "nine", "é": "accent"})
        for value in (1, 2, 3):
            doc.value = value
            doc.name = f"doc-{value}"
            doc.save()
    for name in ("sub_a", "sub_b"):
        eco.services[name].subscriber.drain()
    return eco, manager, seen, wal_lines(manager)


class TestSplicedRecordsMatchTwoPassEncoding:
    def test_each_payload_kind_is_byte_identical(self, tmp_path):
        _, _, seen, lines = run_workload(tmp_path)
        assert {kind for kind, _, _, _ in seen} == set(PAYLOAD_KINDS)
        for kind, index, _, payload in seen:
            rec = json.loads(lines[index])["rec"]
            assert rec["t"] == kind
            rec["m"] = payload
            assert lines[index] == two_pass_line(rec), kind

    def test_every_line_is_its_own_canonical_encoding(self, tmp_path):
        _, _, _, lines = run_workload(tmp_path)
        for line in lines:
            rec = json.loads(line)["rec"]
            assert line == two_pass_line(rec)
            assert line == encode_record(rec)
            assert line.isascii()

    def test_restore_replays_the_spliced_log(self, tmp_path):
        _, manager, _, _ = run_workload(tmp_path)
        manager.close()
        _, _, manager_b, _ = build_pipeline(tmp_path)
        report = manager_b.restore()
        assert not report.unrecoverable, report.error
        assert report.replayed > 0


class TestCoalescedSurvivorRecords:
    def test_coal_and_apply_carry_the_merge(self, tmp_path):
        _, _, seen, lines = run_workload(tmp_path)
        coal = [(index, message) for kind, index, message, _ in seen
                if kind == "coal"]
        assert coal, "the hot-row updates did not coalesce"
        survivors = {message.uid for _, message in coal}
        assert len(survivors) == 1
        logged = [(kind, json.loads(lines[index])["rec"]["m"])
                  for kind, index, message, _ in seen
                  if kind in ("coal", "apply") and message.uid in survivors]
        # Each update merges into the created survivor in both queues,
        # then each queue applies it once. Every record must show the
        # merge as it stood, not the payload cached at its pub record.
        assert [kind for kind, _ in logged] == ["coal"] * 6 + ["apply"] * 2
        values = [m["operations"][0]["attributes"]["value"]
                  for _, m in logged]
        assert values == [1, 1, 2, 2, 3, 3, 3, 3]
        for _, payload in logged:
            operation = payload["operations"][0]
            value = operation["attributes"]["value"]
            assert operation["operation"] == "create"
            assert operation["attributes"]["name"] == f"doc-{value}"
            assert len(payload["coalesced_uids"]) == value
            assert sum(payload["increments"].values()) == 1 + value


class TestTraceNeverLogged:
    def test_traced_messages_log_no_trace(self, tmp_path):
        _, _, seen, lines = run_workload(tmp_path)
        assert any(message.trace is not None for _, _, message, _ in seen)
        for line in lines:
            payload = json.loads(line)["rec"].get("m")
            if payload is not None:
                assert "trace" not in payload
