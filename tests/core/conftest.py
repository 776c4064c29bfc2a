"""Fixtures shared by the budget ratchets in this directory."""

import pytest

from repro.grpcnet.network import Network


@pytest.fixture
def rpcs(monkeypatch):
    """Every ``Network.call`` as ``(caller, address, method, request)``."""
    seen = []
    plain_call = Network.call

    def recording_call(self, address, method, request, deadline=None,
                       caller="client"):
        seen.append((caller, address, method, request))
        return plain_call(self, address, method, request, deadline=deadline,
                          caller=caller)

    monkeypatch.setattr(Network, "call", recording_call)
    return seen
