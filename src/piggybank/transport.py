"""Frame transports: in-memory pairs, TCP loopback, and a recording tap.

Every transport moves whole frames (bytes) in order, exactly once per
direction. The tap wraps any transport, logging each frame it carries
and optionally flipping chosen bits on the way through, which is how the
tests model a wire adversary without touching endpoint code.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue

from .errors import TransportClosedError, WireError
from .wire import Message, decode_msg, read_frame

_RECV_TIMEOUT = 30.0


class Transport:
    """Minimal duplex frame interface. recv blocks for one whole frame."""

    def send(self, frame: bytes) -> None:
        raise NotImplementedError

    def recv(self) -> bytes:
        raise NotImplementedError

    def ready(self) -> bool:
        """Whether recv would return at once; True where it cannot tell."""
        return True

    def close(self) -> None:
        raise NotImplementedError


class _Closed:
    """Queue sentinel; re-queued on receipt so later recv calls fail too."""


_CLOSED = _Closed()


class MemoryTransport(Transport):
    def __init__(self, outgoing: SimpleQueue, incoming: SimpleQueue) -> None:
        self._out = outgoing
        self._in = incoming
        self._closed = False

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosedError("send on a closed transport")
        self._out.put(bytes(frame))

    def recv(self) -> bytes:
        try:
            item = self._in.get(timeout=_RECV_TIMEOUT)
        except Empty:
            raise TransportClosedError("no frame arrived in time") from None
        if item is _CLOSED:
            self._in.put(_CLOSED)
            raise TransportClosedError("peer closed the transport")
        return item

    def ready(self) -> bool:
        return not self._in.empty()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._out.put(_CLOSED)


def memory_pair() -> tuple[MemoryTransport, MemoryTransport]:
    """Two connected in-memory endpoints; recv waits for a frame or the
    peer's close, and ready tells whether one is already there."""
    left, right = SimpleQueue(), SimpleQueue()
    return MemoryTransport(left, right), MemoryTransport(right, left)


class TcpTransport(Transport):
    """One frame stream over a connected socket.

    Frames are self-delimiting, so recv walks the frame structure through
    one buffered reader per connection and takes exactly one; read_frame
    tells EOF between frames (TransportClosedError) from EOF inside one
    (TruncationError).
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(_RECV_TIMEOUT)
        self._sock = sock
        self._stream = sock.makefile("rb")

    def send(self, frame: bytes) -> None:
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportClosedError(f"send failed: {exc}") from exc

    def recv(self) -> bytes:
        try:
            return read_frame(self._stream.read)
        except TimeoutError:
            raise TransportClosedError("no frame arrived in time") from None
        except OSError as exc:
            raise TransportClosedError(f"recv failed: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        # The socket keeps its descriptor while a reader is open on it.
        self._stream.close()
        self._sock.close()


def tcp_listen(host: str, port: int) -> socket.socket:
    return socket.create_server((host, port), backlog=1)


def tcp_accept(listener: socket.socket) -> TcpTransport:
    listener.settimeout(_RECV_TIMEOUT)
    conn, _ = listener.accept()
    return TcpTransport(conn)


def tcp_connect(
    host: str,
    port: int,
    attempts: int = 40,
    delay: float = 0.05,
) -> TcpTransport:
    """Connect with retries so a racing listener has time to bind."""
    last: OSError | None = None
    for _ in range(attempts):
        try:
            return TcpTransport(socket.create_connection((host, port)))
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise TransportClosedError(f"could not connect to {host}:{port}: {last}")


@dataclass(frozen=True)
class TamperRule:
    """Flip one bit of one frame passing through a tap.

    frame_index counts every frame the tap carries, sends and receives
    together, starting at 0. bit 0 is the least significant bit. A rule
    whose byte_index lies past the end of its frame raises ValueError when
    that frame passes.
    """

    frame_index: int
    byte_index: int
    bit: int = 0

    def __post_init__(self):
        if self.frame_index < 0 or self.byte_index < 0:
            raise ValueError("tamper indices must be nonnegative")
        if not 0 <= self.bit <= 7:
            raise ValueError("tamper bit must lie in [0, 7]")


@dataclass(frozen=True)
class TapEntry:
    direction: str  # "tx" or "rx", from the wrapped endpoint's view
    frame: bytes

    @property
    def message(self) -> Message | None:
        """The frame decoded on access; None when it does not decode."""
        try:
            return decode_msg(self.frame)
        except WireError:
            return None


@dataclass
class TapLog:
    entries: list[TapEntry] = field(default_factory=list)

    def record(self, direction: str, frame: bytes) -> None:
        self.entries.append(TapEntry(direction, frame))

    def frames(self) -> list[bytes]:
        return [entry.frame for entry in self.entries]

    def messages(self) -> list[Message | None]:
        return [entry.message for entry in self.entries]

    def transcript_lines(self) -> list[str]:
        return [f"{entry.direction} {entry.frame.hex()}" for entry in self.entries]


class TapTransport(Transport):
    """Wraps a transport, logging (and possibly tampering) every frame.

    Tampering happens before logging, so the log always shows the bytes
    actually delivered onward.
    """

    def __init__(
        self,
        inner: Transport,
        log: TapLog,
        tamper: tuple[TamperRule, ...] = (),
    ) -> None:
        self._inner = inner
        self._log = log
        self._rules: dict[int, list[TamperRule]] = {}
        for rule in tamper:
            self._rules.setdefault(rule.frame_index, []).append(rule)
        self._count = 0

    def _mangle(self, frame: bytes) -> bytes:
        rules = self._rules.get(self._count)
        self._count += 1
        if rules:
            mutable = bytearray(frame)
            for rule in rules:
                if rule.byte_index >= len(frame):
                    raise ValueError(f"{rule} reaches past a {len(frame)}-byte frame")
                mutable[rule.byte_index] ^= 1 << rule.bit
            frame = bytes(mutable)
        return frame

    def send(self, frame: bytes) -> None:
        frame = self._mangle(frame)
        self._log.record("tx", frame)
        self._inner.send(frame)

    def recv(self) -> bytes:
        frame = self._mangle(self._inner.recv())
        self._log.record("rx", frame)
        return frame

    def ready(self) -> bool:
        return self._inner.ready()

    def close(self) -> None:
        self._inner.close()


def tap_attach(
    transport: Transport,
    tamper: tuple[TamperRule, ...] = (),
    log: TapLog | None = None,
) -> tuple[TapTransport, TapLog]:
    """Interpose a tap; pass an existing log to merge several transports."""
    if log is None:
        log = TapLog()
    return TapTransport(transport, log, tuple(tamper)), log
