"""End-to-end consistency audit: the flight recorder + online auditor
over a live platform, the nemesis soak staying linearizable, and the
seeded stale-read bug turning the whole pipeline red."""

import pytest

from repro.audit import check_history
from repro.audit.nemesis import NemesisSoak, seeded_stale_read_scenario
from repro.core.faults import KINDS, Fault

from .conftest import make_platform

AUDIT = dict(history_recording=True, audit_interval=1.0,
             scrape_interval=0.25, alert_eval_interval=0.25)


def audit_platform(seed=7, **overrides):
    return make_platform(seed=seed, **{**AUDIT, **overrides})


class TestWiring:
    def test_recording_off_by_default(self):
        platform = make_platform()
        assert platform.history is None
        assert platform.monitoring.auditor is None
        rules = [r.name for r in platform.monitoring.engine.rules]
        assert "ConsistencyViolation" not in rules

    def test_recording_on_wires_recorder_auditor_and_rule(self):
        platform = audit_platform()
        assert platform.history is not None
        auditor = platform.monitoring.auditor
        assert auditor is not None
        assert auditor.interval == 1.0
        rules = [r.name for r in platform.monitoring.engine.rules]
        assert "ConsistencyViolation" in rules

    def test_platform_control_plane_traffic_is_linearizable(self):
        platform = audit_platform()
        client = platform.client("team-a")
        from .conftest import manifest, submit_and_wait_running
        job_id = submit_and_wait_running(platform, client, manifest())
        platform.run_for(5.0)
        assert job_id
        assert len(platform.history) > 0
        auditor = platform.monitoring.auditor
        assert auditor.passes > 0
        assert auditor.ops_checked > 0
        assert auditor.ok, auditor.render_violations()
        # The from-scratch checker agrees with the online auditor.
        assert check_history(platform.history).ok


class TestNemesisSoak:
    def test_short_soak_is_linearizable(self):
        platform = audit_platform(seed=19)
        soak = NemesisSoak(platform, clients=3, keys=4, duration=12.0)
        out = soak.run()
        assert out["ops_issued"] > 50
        assert out["faults_injected"]
        assert all(isinstance(fault, Fault) and fault.kind in KINDS
                   for _when, fault in out["faults_injected"])
        assert out["history"]["ok"] > 0
        assert out["ok"], platform.monitoring.auditor.render_violations()
        store = platform.monitoring.store
        checked = store.get("consistency_ops_checked_total")
        assert checked is not None and checked.latest_value() > 0
        assert store.get("consistency_violations_total",
                         {"key": "/audit/k0"}) is None


class TestSeededBug:
    @pytest.fixture(scope="class")
    def outcome(self):
        platform = audit_platform(seed=5)
        for node_id in platform.etcd.node_ids:
            platform.etcd.node(node_id).stale_reads = True
        observed, outcome = seeded_stale_read_scenario(platform)
        platform.run_for(3 * AUDIT["audit_interval"])
        return platform, observed, outcome

    def test_checker_fails_with_witness(self, outcome):
        _platform, observed, result = outcome
        assert observed == "v1"  # the stale value the deposed leader served
        assert not result.ok
        assert result.witness["key"] == "/audit/seeded"

    def test_auditor_latches_the_violation(self, outcome):
        platform, _observed, _result = outcome
        auditor = platform.monitoring.auditor
        assert not auditor.ok
        assert "linearizability violation" in auditor.render_violations()

    def test_alert_fires_and_event_emitted(self, outcome):
        platform, _observed, _result = outcome
        engine = platform.monitoring.engine
        transitions = engine.transitions("ConsistencyViolation")
        assert any(to == "firing" for _from, to in transitions)
        warnings = platform.events.warnings(reason="ConsistencyViolation")
        assert warnings
        assert warnings[0].kind == "EtcdKey"
        assert warnings[0].name == "/audit/seeded"

    def test_violation_counter_scraped(self, outcome):
        platform, _observed, _result = outcome
        series = platform.monitoring.store.get(
            "consistency_violations_total", {"key": "/audit/seeded"})
        assert series is not None
        assert series.latest_value() >= 1.0

    def test_lease_prevents_the_same_scenario(self):
        # Identical scenario, stale_reads left at the default: the
        # read lease forces the deposed leader out of the read path,
        # the client re-routes, and the history stays linearizable.
        platform = audit_platform(seed=5)
        observed, outcome = seeded_stale_read_scenario(platform)
        platform.run_for(3 * AUDIT["audit_interval"])
        assert observed == "v2"  # the *current* value, not the stale one
        assert outcome.ok
        assert platform.monitoring.auditor.ok
