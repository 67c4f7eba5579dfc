"""Transport behaviour: framing over memory queues, TCP sockets, taps."""

import gc
import socket
import threading
import time
import warnings

import pytest

from piggybank import (
    FormatError,
    Kind,
    Message,
    Protocol,
    TamperRule,
    TapLog,
    TcpTransport,
    TransportClosedError,
    TruncationError,
    decode_msg,
    encode_msg,
    memory_pair,
    tap_attach,
    tcp_accept,
    tcp_connect,
    tcp_listen,
    transport,
)

ACK = encode_msg(Message(Protocol.P1, Kind.ACK))
CHALLENGE = encode_msg(Message(Protocol.P1, Kind.CHALLENGE, (0, 4)))


class TestMemoryPair:
    def test_frames_cross_in_order(self):
        a, b = memory_pair()
        a.send(CHALLENGE)
        a.send(ACK)
        assert b.recv() == CHALLENGE
        assert b.recv() == ACK
        b.send(ACK)
        assert a.recv() == ACK

    def test_close_wakes_peer_repeatedly(self):
        a, b = memory_pair()
        a.close()
        for _ in range(3):
            with pytest.raises(TransportClosedError):
                b.recv()

    def test_send_after_close(self):
        a, _ = memory_pair()
        a.close()
        with pytest.raises(TransportClosedError):
            a.send(ACK)

    def test_recv_times_out(self, monkeypatch):
        monkeypatch.setattr(transport, "_RECV_TIMEOUT", 0.05)
        _, b = memory_pair()
        with pytest.raises(TransportClosedError, match="in time"):
            b.recv()


def _serve_bytes(payload, close_after=True):
    """Background one-shot server; returns (port, thread)."""
    listener = tcp_listen("127.0.0.1", 0)
    port = listener.getsockname()[1]

    def run():
        conn, _ = listener.accept()
        conn.sendall(payload)
        if close_after:
            conn.shutdown(socket.SHUT_WR)
        conn.recv(1)  # hold until the client is done
        conn.close()
        listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, thread


class TestTcp:
    def test_roundtrip_over_loopback(self):
        listener = tcp_listen("127.0.0.1", 0)
        port = listener.getsockname()[1]
        server_side = {}

        def run():
            transport = tcp_accept(listener)
            server_side["got"] = transport.recv()
            transport.send(ACK)
            transport.close()
            listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        client = tcp_connect("127.0.0.1", port)
        client.send(CHALLENGE)
        assert client.recv() == ACK
        thread.join(timeout=5)
        assert server_side["got"] == CHALLENGE
        with pytest.raises(TransportClosedError):
            client.recv()
        client.close()

    def test_eof_between_frames_is_closed(self):
        port, thread = _serve_bytes(ACK)
        client = tcp_connect("127.0.0.1", port)
        assert client.recv() == ACK
        with pytest.raises(TransportClosedError):
            client.recv()
        client.close()
        thread.join(timeout=5)

    def test_eof_mid_frame_is_truncation(self):
        port, thread = _serve_bytes(CHALLENGE[:9])
        client = tcp_connect("127.0.0.1", port)
        with pytest.raises(TruncationError):
            client.recv()
        client.close()
        thread.join(timeout=5)

    def test_oversize_field_is_format_error(self):
        # a peer declaring a 4 GiB - 1 field is refused, not buffered
        header = CHALLENGE[:9]
        port, thread = _serve_bytes(header + b"\xff\xff\xff\xff")
        client = tcp_connect("127.0.0.1", port)
        with pytest.raises(FormatError):
            client.recv()
        client.close()
        thread.join(timeout=5)

    def test_garbage_stream_is_format_error(self):
        port, thread = _serve_bytes(b"HTTP/1.1 400 Bad Request\r\n")
        client = tcp_connect("127.0.0.1", port)
        with pytest.raises(FormatError):
            client.recv()
        client.close()
        thread.join(timeout=5)

    def test_connect_refused_eventually_raises(self):
        # grab a port and close it so nothing listens there
        probe = tcp_listen("127.0.0.1", 0)
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportClosedError):
            tcp_connect("127.0.0.1", port, attempts=2, delay=0.01)

    def test_failed_bind_leaks_no_socket(self):
        held = tcp_listen("127.0.0.1", 0)
        port = held.getsockname()[1]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(OSError):
                    tcp_listen("127.0.0.1", port)
                gc.collect()
        finally:
            held.close()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


@pytest.fixture
def socket_end():
    """A TcpTransport over one end of a socket pair, the bare socket under
    it, and the other end for the test to write."""
    near, far = socket.socketpair()
    end = TcpTransport(near)
    yield end, near, far
    end.close()
    far.close()


class TestTcpFraming:
    def test_two_frames_in_one_write(self, socket_end):
        end, _, far = socket_end
        far.sendall(CHALLENGE + ACK)
        assert end.recv() == CHALLENGE
        assert end.recv() == ACK

    def test_frame_written_a_byte_at_a_time(self, socket_end):
        end, _, far = socket_end

        def trickle():
            for i in range(len(CHALLENGE)):
                far.sendall(CHALLENGE[i : i + 1])
                time.sleep(0.001)

        writer = threading.Thread(target=trickle, daemon=True)
        writer.start()
        assert end.recv() == CHALLENGE
        writer.join(timeout=5)
        assert not writer.is_alive()

    def test_silent_peer_times_out(self, socket_end):
        end, near, _ = socket_end
        near.settimeout(0.05)
        with pytest.raises(TransportClosedError, match="in time"):
            end.recv()

    def test_close_releases_the_socket(self, socket_end):
        end, near, _ = socket_end
        end.close()
        assert near.fileno() == -1


class TestTap:
    def test_passive_tap_is_invisible(self):
        a, b = memory_pair()
        tapped, log = tap_attach(a)
        tapped.send(CHALLENGE)
        assert b.recv() == CHALLENGE
        b.send(ACK)
        assert tapped.recv() == ACK
        assert log.frames() == [CHALLENGE, ACK]
        assert [e.direction for e in log.entries] == ["tx", "rx"]
        assert log.messages() == [decode_msg(CHALLENGE), decode_msg(ACK)]

    def test_transcript_lines(self):
        a, b = memory_pair()
        tapped, log = tap_attach(a)
        tapped.send(ACK)
        b.recv()
        assert log.transcript_lines() == [f"tx {ACK.hex()}"]

    def test_shared_log_merges_endpoints(self):
        a, b = memory_pair()
        tapped_a, log = tap_attach(a)
        tapped_b, log_b = tap_attach(b, log=log)
        assert log_b is log
        tapped_a.send(CHALLENGE)
        tapped_b.recv()
        assert [e.direction for e in log.entries] == ["tx", "rx"]

    def test_tamper_flips_exactly_one_bit(self):
        a, b = memory_pair()
        # frame 0 is the send; byte 17 is the last byte of the blob length
        tapped, log = tap_attach(a, tamper=(TamperRule(0, len(CHALLENGE) - 1, 3),))
        tapped.send(CHALLENGE)
        delivered = b.recv()
        assert delivered != CHALLENGE
        assert delivered[-1] == CHALLENGE[-1] ^ 0b1000
        assert log.frames() == [delivered]  # log shows the mangled bytes

    def test_frame_counter_spans_both_directions(self):
        a, b = memory_pair()
        tapped, _ = tap_attach(a, tamper=(TamperRule(1, 0),))
        tapped.send(ACK)  # frame 0, untouched
        assert b.recv() == ACK
        b.send(ACK)  # frame 1 from the tap's view, mangled on rx
        got = tapped.recv()
        assert got[0] == ACK[0] ^ 1

    def test_unmatched_rules_are_inert(self):
        a, b = memory_pair()
        tapped, _ = tap_attach(a, tamper=(TamperRule(7, 0),))
        tapped.send(ACK)
        assert b.recv() == ACK

    @pytest.mark.parametrize(
        "args", [(-1, 0), (0, -1), (0, 0, -1), (0, 0, 8), (0, 0, 255)]
    )
    def test_rule_out_of_range_rejected_at_construction(self, args):
        with pytest.raises(ValueError):
            TamperRule(*args)

    def test_rule_past_frame_end_names_rule_and_length(self):
        a, b = memory_pair()
        tapped, log = tap_attach(a, tamper=(TamperRule(0, 10**6),))
        with pytest.raises(ValueError, match=rf"byte_index=1000000.*{len(ACK)}-byte"):
            tapped.send(ACK)
        assert log.entries == []

    def test_close_passes_through(self):
        a, b = memory_pair()
        tapped, _ = tap_attach(a)
        tapped.close()
        with pytest.raises(TransportClosedError):
            b.recv()
