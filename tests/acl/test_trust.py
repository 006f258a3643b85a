"""Tests of the trust store."""

from repro.acl.trust import TrustStore


class TestTrustStore:
    def test_owner_always_trusted(self):
        trust = TrustStore("alice")
        assert trust.is_trusted("alice")

    def test_trust(self):
        trust = TrustStore("alice")
        assert not trust.is_trusted("bob")
        trust.trust("bob")
        assert trust.is_trusted("bob")
        assert "bob" in trust

    def test_initial_trusted_set(self):
        trust = TrustStore("alice", trusted=["sigmod", "bob"])
        assert all(trust.is_trusted(peer) for peer in ("alice", "sigmod", "bob"))
        assert not trust.is_trusted("carol")

    def test_trust_all(self):
        trust = TrustStore("alice", trust_all=True)
        assert trust.is_trusted("anyone")

    def test_demo_configuration_trusts_only_sigmod(self):
        trust = TrustStore("Jules", trusted=["sigmod"])
        assert trust.is_trusted("sigmod")
        assert trust.is_trusted("Jules")
        assert not trust.is_trusted("Emilien")
        assert not trust.is_trusted("Julia")
