"""Unit + property tests for socket buffer queues."""

import pytest
from hypothesis import given, strategies as st

from repro.des import Environment
from repro.tcpip import OutOfOrderQueue, ReceiveQueue, SKBuff, WriteQueue
from repro.tcpip.seq import SEQ_MOD, seq_add


def skb(seq, size=100, payload=None):
    return SKBuff(seq=seq, size=size, payload=payload)


class TestSKBuff:
    def test_end_seq_wraps(self):
        s = skb(SEQ_MOD - 10, size=20)
        assert s.end_seq == 10

    def test_migrate_record_round_trip(self):
        s = SKBuff(seq=100, size=50, payload="msg", ts_jiffies=777, retransmits=2)
        rec = s.migrate_record()
        restored = SKBuff.from_record(rec, jiffies_delta=1000)
        assert restored.seq == 100
        assert restored.size == 50
        assert restored.payload == "msg"
        assert restored.ts_jiffies == 1777  # shifted by the jiffies delta
        assert restored.retransmits == 2


class TestWriteQueue:
    def test_ack_removes_fully_acked(self):
        q = WriteQueue()
        q.append(skb(0, 100))
        q.append(skb(100, 100))
        q.append(skb(200, 100))
        acked = q.ack_up_to(200)
        assert [b.seq for b in acked] == [0, 100]
        assert len(q) == 1
        assert q.head().seq == 200

    def test_partial_ack_keeps_segment(self):
        q = WriteQueue()
        q.append(skb(0, 100))
        assert q.ack_up_to(50) == []
        assert len(q) == 1

    def test_order_enforced(self):
        q = WriteQueue()
        q.append(skb(100, 100))
        with pytest.raises(ValueError):
            q.append(skb(50, 10))

    def test_clear(self):
        q = WriteQueue()
        q.append(skb(0, 10))
        bufs = q.clear()
        assert len(bufs) == 1 and len(q) == 0

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=30))
    def test_cumulative_ack_property(self, sizes):
        """Acking up to seq X removes exactly the segments ending <= X."""
        q = WriteQueue()
        seq = 0
        ends = []
        for size in sizes:
            q.append(skb(seq, size))
            seq = seq_add(seq, size)
            ends.append(seq)
        cut = ends[len(ends) // 2]
        acked = q.ack_up_to(cut)
        assert len(acked) == len(ends) // 2 + 1
        assert all(b.end_seq <= cut for b in acked)


class TestReceiveQueue:
    def test_push_then_get(self):
        env = Environment()
        q = ReceiveQueue(env)
        q.push(skb(0))
        ev = q.get()
        assert ev.triggered and ev.value.seq == 0

    def test_blocking_reader_woken(self):
        env = Environment()
        q = ReceiveQueue(env)
        got = []

        def reader():
            s = yield q.get()
            got.append((env.now, s.seq))

        def writer():
            yield env.timeout(3)
            q.push(skb(42))

        env.process(reader())
        env.process(writer())
        env.run()
        assert got == [(3, 42)]

    def test_has_waiting_reader(self):
        env = Environment()
        q = ReceiveQueue(env)
        assert not q.has_waiting_reader
        q.get()
        assert q.has_waiting_reader

    def test_restore_puts_migrated_data_first(self):
        env = Environment()
        q = ReceiveQueue(env)
        q.push(skb(200, payload="new"))
        q.restore([skb(100, payload="old")])
        first = q.get().value
        assert first.payload == "old"

    def test_clear(self):
        env = Environment()
        q = ReceiveQueue(env)
        q.push(skb(0))
        q.push(skb(100))
        assert len(q.clear()) == 2
        assert len(q) == 0


class TestOutOfOrderQueue:
    def test_pop_in_order_run(self):
        q = OutOfOrderQueue()
        q.insert(skb(200, 100))
        q.insert(skb(300, 100))
        q.insert(skb(500, 100))  # gap at 400
        run = q.pop_in_order(200)
        assert [b.seq for b in run] == [200, 300]
        assert len(q) == 1

    def test_no_run_when_gap(self):
        q = OutOfOrderQueue()
        q.insert(skb(300, 100))
        assert q.pop_in_order(200) == []

    def test_duplicates_stored_once(self):
        """The capture/queue layer stores duplicated seqs only once."""
        q = OutOfOrderQueue()
        q.insert(skb(200, 100, payload="first"))
        q.insert(skb(200, 100, payload="second"))
        assert len(q) == 1
        assert next(iter(q)).payload == "first"

    def test_iter_sorted(self):
        q = OutOfOrderQueue()
        q.insert(skb(500))
        q.insert(skb(200))
        assert [b.seq for b in q] == [200, 500]

    def test_clear(self):
        q = OutOfOrderQueue()
        q.insert(skb(100))
        assert [b.seq for b in q.clear()] == [100]
        assert len(q) == 0

    @given(st.sets(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
    def test_contiguous_prefix_property(self, offsets):
        """pop_in_order returns exactly the contiguous prefix from rcv_nxt."""
        q = OutOfOrderQueue()
        for o in offsets:
            q.insert(skb(o * 10, 10))
        run = q.pop_in_order(0)
        sorted_offsets = sorted(offsets)
        expected = 0
        for o in sorted_offsets:
            if o == expected:
                expected += 1
            else:
                break
        assert len(run) == expected
