"""Subscription server integration: snapshots, deltas, isolation,
backpressure, eviction, dedup, liveness, drain.

Every test spins a real :class:`~repro.serving.server.SubscriptionServer`
on an ephemeral TCP port inside one ``asyncio.run`` and drives it with
real client connections — these are the robustness clauses of the
serving contract, each pinned with its obs counter.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import obs
from repro.engine.registry import build_engine
from repro.serving.client import SubscriptionClient
from repro.serving.protocol import Message, MsgType, encode, read_message
from repro.serving.server import ServingConfig, SubscriptionServer
from repro.storage.colbatch import ColumnarFrame
from repro.storage.stream import Event

from tests.serving.test_protocol import assert_bit_identical


def bid_events(count: int, seed: int = 7) -> list[Event]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        out.append(
            Event(
                "bids",
                {
                    "timestamp": i,
                    "id": i,
                    "broker_id": rng.randrange(5),
                    "volume": rng.randint(1, 100),
                    "price": rng.randint(1, 500),
                },
                +1,
            )
        )
    return out


def clean_result(query: str, batches: list[list[Event]]):
    engine = build_engine(query, "rpai")
    result = engine.result()
    for batch in batches:
        result = engine.on_batch(batch)
    return result


def batched(events: list[Event], size: int) -> list[list[Event]]:
    return [events[i : i + size] for i in range(0, len(events), size)]


async def started(config: ServingConfig, **kwargs) -> SubscriptionServer:
    server = SubscriptionServer(config, **kwargs)
    await server.start()
    return server


class TestSnapshotAndDeltas:
    def test_snapshot_plus_deltas_fold_to_clean_result(self):
        events = bid_events(240)
        batches = batched(events, 30)

        async def run():
            server = await started(ServingConfig())
            client = SubscriptionClient(
                "127.0.0.1", server.port, tenant="t", session="a"
            )
            await client.connect()
            for query in ("VWAP", "EQ", "PSP"):
                await client.subscribe(query)
            await client.wait_for(lambda c: len(c.results) == 3, 10)
            for batch in batches:
                await client.ingest(batch)
            await client.settle()
            tenant = server.tenants["t"]
            await client.wait_for(
                lambda c: all(
                    c.acked.get(q, 0) >= tenant.delta_seq[q]
                    for q in ("VWAP", "EQ", "PSP")
                ),
                10,
            )
            folded = dict(client.results)
            deltas = client.deltas_seen
            await server.stop()
            await client.close()
            return folded, deltas

        folded, deltas = asyncio.run(run())
        assert deltas > 0
        for query in ("VWAP", "EQ", "PSP"):
            assert_bit_identical(folded[query], clean_result(query, batches))

    def test_late_subscriber_gets_current_snapshot(self):
        batches = batched(bid_events(120), 40)

        async def run():
            server = await started(ServingConfig())
            writer_client = SubscriptionClient(
                "127.0.0.1", server.port, tenant="t", session="w"
            )
            await writer_client.connect()
            await writer_client.subscribe("VWAP")
            await writer_client.wait_for(lambda c: "VWAP" in c.results, 10)
            for batch in batches:
                await writer_client.ingest(batch)
            await writer_client.settle()
            late = SubscriptionClient("127.0.0.1", server.port, tenant="t", session="l")
            await late.connect()
            await late.subscribe("VWAP")
            await late.wait_for(lambda c: "VWAP" in c.results, 10)
            snapshot = late.results["VWAP"]
            assert late.deltas_seen == 0  # caught up via snapshot, not replay
            await server.stop()
            await writer_client.close()
            await late.close()
            return snapshot

        assert_bit_identical(asyncio.run(run()), clean_result("VWAP", batches))

    def test_resume_replays_only_the_missed_tail(self):
        batches = batched(bid_events(200), 25)

        async def run():
            server = await started(ServingConfig())
            writer_client = SubscriptionClient(
                "127.0.0.1", server.port, tenant="t", session="w"
            )
            await writer_client.connect()
            await writer_client.subscribe("VWAP")
            await writer_client.wait_for(lambda c: "VWAP" in c.results, 10)
            for batch in batches[:4]:
                await writer_client.ingest(batch)
            await writer_client.settle()
            tenant = server.tenants["t"]
            await writer_client.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            mid_result = writer_client.results["VWAP"]
            mid_seq = writer_client.acked["VWAP"]
            # reader joins with resume_from as if it had seen the prefix
            reader = SubscriptionClient(
                "127.0.0.1", server.port, tenant="t", session="r"
            )
            reader.results["VWAP"] = mid_result
            reader.acked["VWAP"] = mid_seq
            await reader.connect()
            await reader.subscribe("VWAP")
            for batch in batches[4:]:
                await writer_client.ingest(batch)
            await writer_client.settle()
            await reader.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            folded = reader.results["VWAP"]
            snapshots = sum(1 for q in reader.results)  # 1 query
            deltas = reader.deltas_seen
            await server.stop()
            await writer_client.close()
            await reader.close()
            return folded, deltas

        folded, deltas = asyncio.run(run())
        assert deltas > 0  # caught up via delta replay, not a snapshot
        assert_bit_identical(folded, clean_result("VWAP", batches))


class RecordingClient(SubscriptionClient):
    """Keeps every DELTA as it arrived, besides folding it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stream: list[tuple[str, int, object, object]] = []

    async def _dispatch(self, message) -> None:
        if message.type is MsgType.DELTA:
            body = message.body
            self.stream.append((body["query"], message.seq, body["delta"], body["ingest"]))
        await super()._dispatch(message)


class TestDeltaStream:
    def test_subscribers_see_one_delta_per_changed_result_per_ingest(self, tmp_path):
        """Not only the folded end state: the ``(seq, delta, cause)``
        sequence of each query is what diffing a clean engine's result
        after every ingest batch gives — for the ingesting connection
        and for a subscriber that only listens — and each ingest's ACK
        arrives behind its deltas."""
        from repro.serving.deltas import compute_delta, freeze
        from tests.engine.test_trigger_shapes import serve_mix

        queries = ("VWAP", "PSP", "Q18")
        batches = batched(serve_mix(31, 400), 16)

        async def run():
            server = await started(ServingConfig(wal_root=tmp_path / "wal", snapshot_every=4))
            clients = [
                RecordingClient("127.0.0.1", server.port, tenant="t", session=name)
                for name in ("a", "b")
            ]
            for client in clients:
                await client.connect()
                for query in queries:
                    await client.subscribe(query)
                await client.wait_for(lambda c: len(c.results) == 3, 10)
            for batch in batches:
                seq = await clients[0].ingest(batch)
                # acked => this ingest's deltas were already dispatched
                await clients[0].wait_for(lambda c: seq not in c.pending_ingest, 10)
                assert all(cause[1] <= seq for *_, cause in clients[0].stream)
            tenant = server.tenants["t"]
            for client in clients:
                await client.wait_for(
                    lambda c: all(c.acked.get(q, 0) >= tenant.delta_seq[q] for q in queries), 10
                )
            streams = [client.stream for client in clients]
            await server.stop()
            for client in clients:
                await client.close()
            return streams

        expected = []
        for query in queries:
            engine = build_engine(query, "rpai")
            previous, seq = freeze(engine.result()), 0
            for ingest, batch in enumerate(batches, 1):
                current = freeze(engine.on_batch(batch))
                delta = compute_delta(previous, current)
                if delta is not None:
                    seq += 1
                    expected.append((query, seq, delta, ("a", ingest)))
                    previous = current
        by_ingest = sorted(expected, key=lambda item: (item[3][1], queries.index(item[0])))
        for stream in asyncio.run(run()):
            assert stream == by_ingest


class TestTenantIsolation:
    def test_schema_junk_never_stalls_other_tenants(self):
        batches = batched(bid_events(90), 30)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(ServingConfig())
            noisy = SubscriptionClient("127.0.0.1", server.port, tenant="noisy")
            clean = SubscriptionClient("127.0.0.1", server.port, tenant="clean")
            await noisy.connect()
            await clean.connect()
            await noisy.subscribe("VWAP")
            await clean.subscribe("VWAP")
            await noisy.wait_for(lambda c: "VWAP" in c.results, 10)
            await clean.wait_for(lambda c: "VWAP" in c.results, 10)
            junk = [Event("__junk__", {"x": i}, +1) for i in range(5)]
            for batch in batches:
                await noisy.ingest(junk + batch)
                await clean.ingest(batch)
            await noisy.settle()
            await clean.settle()
            for client in (noisy, clean):
                tenant = server.tenants[client.tenant]
                await client.wait_for(
                    lambda c, t=tenant: c.acked.get("VWAP", 0) >= t.delta_seq["VWAP"],
                    10,
                )
            quarantined = {
                name: runtime.quarantine.total_rejected
                for name, runtime in server.tenants.items()
            }
            results = (noisy.results["VWAP"], clean.results["VWAP"])
            await server.stop()
            await noisy.close()
            await clean.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return results, quarantined, counters

        (noisy_result, clean_result_), quarantined, counters = asyncio.run(run())
        expected = clean_result("VWAP", batches)
        assert_bit_identical(noisy_result, expected)
        assert_bit_identical(clean_result_, expected)
        assert quarantined["noisy"] > 0
        assert quarantined["clean"] == 0
        assert counters.get("serve.tenant_failures", 0) == 0

    def test_tenant_crash_is_contained_and_counted(self):
        batches = batched(bid_events(60), 30)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(ServingConfig())
            doomed = SubscriptionClient("127.0.0.1", server.port, tenant="doomed")
            healthy = SubscriptionClient("127.0.0.1", server.port, tenant="healthy")
            await doomed.connect()
            await healthy.connect()
            await doomed.subscribe("VWAP")
            await healthy.subscribe("VWAP")
            await doomed.wait_for(lambda c: "VWAP" in c.results, 10)
            await healthy.wait_for(lambda c: "VWAP" in c.results, 10)

            # sabotage the doomed tenant's engine so the next batch
            # raises a hard (non-schema) error inside apply
            class Exploding:
                def on_frame(self, _frame):
                    raise RuntimeError("engine blew up")

                def result(self):
                    return None

            server.tenants["doomed"].engines["VWAP"] = Exploding()
            await doomed.ingest(batches[0])
            await doomed.wait_for(lambda c: "VWAP" in c.evicted, 10)
            # the healthy tenant keeps serving
            for batch in batches:
                await healthy.ingest(batch)
            await healthy.settle()
            tenant = server.tenants["healthy"]
            await healthy.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            assert server.tenants["doomed"].failed
            assert not server.tenants["healthy"].failed
            result = healthy.results["VWAP"]
            await server.stop()
            await doomed.close()
            await healthy.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return result, counters

        result, counters = asyncio.run(run())
        assert_bit_identical(result, clean_result("VWAP", batches))
        assert counters["serve.tenant_failures"] == 1

    def test_tenant_kill_and_restart_recovers_from_wal(self, tmp_path):
        batches = batched(bid_events(150), 30)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(
                ServingConfig(wal_root=tmp_path / "wal", snapshot_every=2)
            )
            client = SubscriptionClient(
                "127.0.0.1", server.port, tenant="acme", session="a"
            )
            await client.connect()
            await client.subscribe("VWAP")
            await client.wait_for(lambda c: "VWAP" in c.results, 10)
            for batch in batches[:3]:
                await client.ingest(batch)
            await client.settle()
            tenant = server.tenants["acme"]
            await client.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            seq_before = tenant.delta_seq["VWAP"]
            tenant.kill()
            tenant.restart()
            # recovery is bit-exact, so no correction delta is shipped
            assert tenant.delta_seq["VWAP"] == seq_before
            for batch in batches[3:]:
                await client.ingest(batch)
            await client.settle()
            await client.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            result = client.results["VWAP"]
            await server.stop()
            await client.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return result, counters

        result, counters = asyncio.run(run())
        assert_bit_identical(result, clean_result("VWAP", batches))
        assert counters["serve.tenant_restarts"] == 1
        assert counters["wal.recoveries"] >= 1


class TestBackpressure:
    def test_shed_newest_drops_and_nacks(self):
        async def run():
            obs.enable()
            obs.reset()
            server = await started(
                ServingConfig(queue_limit=2, queue_policy="shed-newest")
            )
            client = SubscriptionClient("127.0.0.1", server.port, tenant="t")
            await client.connect()
            await client.subscribe("VWAP")
            await client.wait_for(lambda c: "VWAP" in c.results, 10)
            # burst without yielding to the tenant worker: the queue
            # fills and the overflow is shed
            for batch in batched(bid_events(600), 10):
                await client.ingest(batch)
            await client.settle()
            shed = list(client.shed_seqs)
            tenant = server.tenants["t"]
            await client.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            folded = client.results["VWAP"]
            server_result = tenant.results["VWAP"]
            await server.stop()
            await client.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return shed, folded, server_result, counters

        shed, folded, server_result, counters = asyncio.run(run())
        assert shed, "burst never overflowed the bounded queue"
        assert counters["serve.shed"] == len(shed)
        # shed batches are *acknowledged as shed*, and the folded view
        # still matches the server's state exactly — shedding loses
        # events, never consistency
        assert_bit_identical(folded, server_result)

    def test_block_policy_applies_everything(self):
        batches = batched(bid_events(400), 10)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(ServingConfig(queue_limit=2, queue_policy="block"))
            client = SubscriptionClient("127.0.0.1", server.port, tenant="t")
            await client.connect()
            await client.subscribe("VWAP")
            await client.wait_for(lambda c: "VWAP" in c.results, 10)
            for batch in batches:
                await client.ingest(batch)
            await client.settle()
            tenant = server.tenants["t"]
            await client.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            folded = client.results["VWAP"]
            await server.stop()
            await client.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return folded, counters

        folded, counters = asyncio.run(run())
        assert_bit_identical(folded, clean_result("VWAP", batches))
        assert counters.get("serve.shed", 0) == 0

    def test_disconnect_policy_drops_the_connection(self):
        async def run():
            obs.enable()
            obs.reset()
            server = await started(
                ServingConfig(queue_limit=1, queue_policy="disconnect")
            )
            client = SubscriptionClient(
                "127.0.0.1", server.port, tenant="t", reconnect=False
            )
            await client.connect()
            await client.subscribe("VWAP")
            await client.wait_for(lambda c: "VWAP" in c.results, 10)
            try:
                for batch in batched(bid_events(600), 5):
                    await client.ingest(batch)
            except (ConnectionError, OSError):
                pass
            await asyncio.sleep(0.1)
            await server.stop()
            await client.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return counters

        counters = asyncio.run(run())
        assert counters["serve.disconnects"] >= 1


class TestSlowConsumers:
    def test_stalled_subscriber_is_evicted_not_unbounded(self):
        batches = batched(bid_events(200), 4)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(ServingConfig(subscriber_buffer=4))
            writer_client = SubscriptionClient(
                "127.0.0.1", server.port, tenant="t", session="w"
            )
            await writer_client.connect()
            await writer_client.subscribe("VWAP")
            await writer_client.wait_for(lambda c: "VWAP" in c.results, 10)

            # raw stalled subscriber: subscribes, then never ACKs a delta
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                encode(Message(MsgType.HELLO, 0, {"tenant": "t", "session": "stall"}))
            )
            writer.write(encode(Message(MsgType.SUBSCRIBE, 0, {"query": "VWAP"})))
            await writer.drain()

            for batch in batches:
                await writer_client.ingest(batch)
                await writer_client.settle()
            tenant = server.tenants["t"]
            await writer_client.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 30
            )
            folded = writer_client.results["VWAP"]
            stalled_subs = [
                s for s in tenant.subscribers["VWAP"] if s.connection.session == "stall"
            ]
            await server.stop()
            await writer_client.close()
            writer.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return folded, stalled_subs, counters

        folded, stalled_subs, counters = asyncio.run(run())
        assert counters["serve.evicted"] >= 1
        assert stalled_subs == []  # the laggard is out of the fan-out set
        # the healthy subscriber on the same tenant was never throttled
        assert_bit_identical(folded, clean_result("VWAP", batches))


class TestDedupAndLiveness:
    def test_duplicate_ingest_seq_is_skipped(self):
        events = bid_events(40)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(ServingConfig())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                encode(Message(MsgType.HELLO, 0, {"tenant": "t", "session": "dup"}))
            )
            await writer.drain()
            welcome = await read_message(reader)
            assert welcome.type is MsgType.WELCOME
            writer.write(encode(Message(MsgType.SUBSCRIBE, 0, {"query": "VWAP"})))
            frame = ColumnarFrame.from_events(events).to_bytes()
            # the same (session, seq) twice — a reconnect resend
            writer.write(encode(Message(MsgType.INGEST, 1, {"frame": frame})))
            writer.write(encode(Message(MsgType.INGEST, 1, {"frame": frame})))
            await writer.drain()
            acks = []
            while len(acks) < 2:
                message = await read_message(reader)
                if message.type is MsgType.INGEST_ACK:
                    acks.append(message)
            result = server.tenants["t"].results["VWAP"]
            await server.stop()
            writer.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return acks, result, counters

        acks, result, counters = asyncio.run(run())
        assert acks[0].body["applied"] is True
        assert acks[1].body["applied"] is False  # deduped, not re-applied
        assert counters["serve.dedup_skips"] == 1
        assert_bit_identical(result, clean_result("VWAP", [events]))

    def test_resend_after_full_restart_is_deduped(self, tmp_path):
        """Exactly-once across a restart of the whole server: an ingest
        that was logged and applied, but whose ACK never reached the
        client, is re-sent to the restarted process and must be skipped
        — the ``(session, seq)`` watermark comes back from the log."""
        events = bid_events(40)
        frame = ColumnarFrame.from_events(events).to_bytes()

        async def ingest_once(config):
            server = await started(config)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                encode(Message(MsgType.HELLO, 0, {"tenant": "t", "session": "dup"}))
            )
            writer.write(encode(Message(MsgType.SUBSCRIBE, 0, {"query": "VWAP"})))
            writer.write(encode(Message(MsgType.INGEST, 1, {"frame": frame})))
            await writer.drain()
            while True:
                message = await read_message(reader)
                if message.type is MsgType.INGEST_ACK:
                    break
            result = server.tenants["t"].results["VWAP"]
            # the process dies: no drain, no final snapshot
            server.tenants["t"].kill()
            writer.close()
            await server.stop()
            return message, result

        async def run():
            config = ServingConfig(wal_root=tmp_path / "wal")
            first, _ = await ingest_once(config)
            second, result = await ingest_once(config)
            return first, second, result

        first, second, result = asyncio.run(run())
        assert first.body["applied"] is True
        assert second.body["applied"] is False
        assert_bit_identical(result, clean_result("VWAP", [events]))

    def test_malformed_frame_closes_only_that_connection(self):
        batches = batched(bid_events(60), 30)

        async def run():
            obs.enable()
            obs.reset()
            server = await started(ServingConfig())
            good = SubscriptionClient("127.0.0.1", server.port, tenant="t")
            await good.connect()
            await good.subscribe("VWAP")
            await good.wait_for(lambda c: "VWAP" in c.results, 10)
            # a peer that sends garbage bytes
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"\xde\xad\xbe\xef" * 8)
            await writer.drain()
            with pytest.raises((EOFError, ConnectionError, asyncio.IncompleteReadError)):
                while True:
                    await asyncio.wait_for(read_message(reader), timeout=5)
            # the good client is untouched
            for batch in batches:
                await good.ingest(batch)
            await good.settle()
            tenant = server.tenants["t"]
            await good.wait_for(
                lambda c: c.acked.get("VWAP", 0) >= tenant.delta_seq["VWAP"], 10
            )
            folded = good.results["VWAP"]
            await server.stop()
            await good.close()
            writer.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return folded, counters

        folded, counters = asyncio.run(run())
        assert counters["serve.bad_frames"] >= 1
        assert_bit_identical(folded, clean_result("VWAP", batches))

    def test_idle_connection_is_closed(self):
        async def run():
            obs.enable()
            obs.reset()
            server = await started(
                ServingConfig(heartbeat_interval=0.05, idle_timeout=0.2)
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                encode(Message(MsgType.HELLO, 0, {"tenant": "t", "session": "idle"}))
            )
            await writer.drain()
            # never answer the PINGs; the server must hang up
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5
            closed = False
            while loop.time() < deadline:
                try:
                    await asyncio.wait_for(read_message(reader), timeout=1)
                except (EOFError, ConnectionError, asyncio.IncompleteReadError):
                    closed = True
                    break
                except asyncio.TimeoutError:
                    continue
            await server.stop()
            writer.close()
            counters = obs.snapshot()["counters"]
            obs.disable()
            return closed, counters

        closed, counters = asyncio.run(run())
        assert closed
        assert counters["serve.idle_closed"] >= 1

    def test_graceful_drain_sends_final_snapshot(self):
        batches = batched(bid_events(90), 30)

        async def run():
            server = await started(ServingConfig())
            client = SubscriptionClient("127.0.0.1", server.port, tenant="t")
            await client.connect()
            await client.subscribe("VWAP")
            await client.wait_for(lambda c: "VWAP" in c.results, 10)
            for batch in batches:
                await client.ingest(batch)
            await client.settle()
            await server.stop()
            await client.wait_for(lambda c: "VWAP" in c.drained, 10)
            drained = client.drained["VWAP"]
            await client.close()
            return drained

        assert_bit_identical(asyncio.run(run()), clean_result("VWAP", batches))
