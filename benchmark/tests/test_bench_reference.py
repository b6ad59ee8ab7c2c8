from __future__ import annotations

import socket

import pytest
from serve_load import Client


class FakeReference:
    requests = [b'{"id":"q0","samples":[1]}\n', b'{"id":"q1","samples":[2]}\n']
    replies = [b'{"id":"q0","probs":[0.25]}\n', b'{"id":"q1","probs":[0.5]}\n']


@pytest.fixture
def connection():
    client_end, gateway_end = socket.socketpair()
    client_end.settimeout(10)
    gateway_end.settimeout(10)
    yield Client(client_end, FakeReference()), gateway_end
    client_end.close()
    gateway_end.close()


def _exchange(client: Client, gateway: socket.socket, replies: bytes) -> None:
    client.send_indices([0, 1])
    sent = b"".join(FakeReference.requests)
    received = b""
    while len(received) < len(sent):
        received += gateway.recv(1024)
    assert received == sent
    gateway.sendall(replies)
    client.read_outstanding()


def test_identical_replies_pass(connection):
    client, gateway = connection
    _exchange(client, gateway, b"".join(FakeReference.replies))
    assert (client.answered, client.failed) == (2, 0)


@pytest.mark.parametrize("offset", [0, 5, -2])
def test_a_one_byte_change_is_rejected(connection, offset):
    client, gateway = connection
    tampered = bytearray(FakeReference.replies[1])
    tampered[offset] ^= 0x01
    _exchange(client, gateway, FakeReference.replies[0] + bytes(tampered))
    assert (client.answered, client.failed) == (2, 1)
    assert "request 1" in client.first_failure
