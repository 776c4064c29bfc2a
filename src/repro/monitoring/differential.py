"""Differential observability: peer-divergence detection of gray faults.

A component can pass its liveness probe while silently degrading the
traffic routed through it — the *gray failure* regime that ``up``-based
crash monitoring cannot see. The :class:`DifferentialDetector` detects
it the way large fleets do: compare each replica against its *peers*
of the same role rather than against a static threshold, so the
detector needs no per-deployment tuning and tracks load swings that
move every replica together.

Three signals per endpoint, each over a trailing window of the scraped
per-endpoint counter series
(``rpc_endpoint_requests_total{endpoint,method,code}``,
``rpc_endpoint_latency_seconds_total{endpoint,method}``,
``rpc_server_handled_total{endpoint}``):

* ``latency`` — windowed mean RPC latency of non-write methods. A slow
  node/NIC lifts it on one replica only.
* ``write_latency`` — windowed mean latency of the replication/write
  methods (``replicate``, ``append_entries``, ...), isolating a disk
  stall from request-path slowness.
* ``link`` — the larger of the windowed error-*rate* divergence (an
  asymmetric partition or lossy link fails calls to one endpoint while
  its peers stay clean) and the served-vs-requested flow anomaly (a
  fabric duplicating messages makes a server handle more requests than
  its callers sent — invisible client-side).

Each per-(role, method) group scores every member against the others
with a robust z-score, ``max(0, (value - median(peers)) / scale)``
where ``scale = max(1.4826 * MAD, rel_floor * |median|, abs_floor)``;
the clamp means only the *degraded* side of a divergence alerts, and
the floors keep two-replica groups (MAD = 0) and near-zero baselines
from paging on noise. Scores publish as
``gray_divergence{component=...,role=...,signal=...}`` through the
alert engine's recording-rule pass; the ``GrayFailure{Slow,Partition,
DiskStall}`` rules in the default pack threshold them.

The detector is a pure consumer of the series store: no RPCs, no RNG
draws, no scheduled events — with detection enabled and no gray fault
injected the simulated timeline is bit-identical.
"""

from ..sim.timeseries import counter_increase

# Methods that are disk writes on the serving member: a stalled disk
# shows up here first, while the member's read path stays competitive.
# Raft's empty appends are ``heartbeat`` calls and deliberately not in
# the set: they skip the disk, and twenty of them a second would drown
# the handful of log writes a quiet platform makes.
WRITE_METHODS = frozenset({
    "replicate", "append_entries", "install_snapshot", "propose",
})

# Scale floors: absolute seconds / rate fraction below which a
# difference is noise, and the relative floor that demands a multiple
# of the peer median before a latency divergence scores.
LATENCY_FLOOR = 0.002
LATENCY_REL_FLOOR = 0.5
ERROR_FLOOR = 0.05
FLOW_FLOOR = 0.15


def role_of(endpoint):
    """Peer-group key of an endpoint address.

    Service endpoints are ``role:pod-name`` (``api:dlaas-api-...``);
    substrate members are ``role-ordinal`` (``mongo-0``, ``etcd-2``).
    """
    if ":" in endpoint:
        return endpoint.split(":", 1)[0]
    return endpoint.rsplit("-", 1)[0]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_score(value, peers, abs_floor, rel_floor=0.0):
    """How many robust deviations ``value`` sits *above* its peers.

    The 1.4826 factor makes the MAD estimate a normal sigma; the
    clamp at zero means the healthy side of a divergence never scores.
    """
    med = _median(peers)
    mad = _median([abs(p - med) for p in peers])
    scale = max(1.4826 * mad, rel_floor * abs(med), abs_floor)
    return max(0.0, (value - med) / scale)


def _counter_delta(series, start, end):
    """Counter increase across the window, or None without two samples."""
    points = series.window(start, end)
    if len(points) < 2:
        return None
    return counter_increase(points)


class DifferentialDetector:
    """Scores endpoint divergence from role peers; a recording-rule
    expression (``eval(store, now, staleness)`` -> labels -> score).
    """

    def __init__(self, window=8.0, min_count=4):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1: {min_count}")
        self.window = window
        self.min_count = min_count

    def eval(self, store, now, staleness):
        del staleness  # windowed deltas, not instant samples
        start = now - self.window

        requests = {}  # (endpoint, method) -> [total delta, error delta]
        for series in store.series("rpc_endpoint_requests_total"):
            delta = _counter_delta(series, start, now)
            if not delta:
                continue
            labels = series.labels_dict
            entry = requests.setdefault(
                (labels["endpoint"], labels["method"]), [0.0, 0.0])
            entry[0] += delta
            if labels["code"] != "ok":
                entry[1] += delta

        latency_sums = {}  # (endpoint, method) -> duration-sum delta
        for series in store.series("rpc_endpoint_latency_seconds_total"):
            delta = _counter_delta(series, start, now)
            if delta is None:
                continue
            labels = series.labels_dict
            latency_sums[(labels["endpoint"], labels["method"])] = delta

        means = {}  # (endpoint, method) -> windowed mean latency
        rates = {}  # (endpoint, method) -> windowed error rate
        client_totals = {}  # endpoint -> requests sent to it (all methods)
        for key, (total, errors) in requests.items():
            endpoint = key[0]
            client_totals[endpoint] = client_totals.get(endpoint, 0.0) + total
            if total < self.min_count:
                continue  # too little traffic to judge this endpoint
            rates[key] = errors / total
            duration = latency_sums.get(key)
            if duration is not None:
                means[key] = duration / total

        out = {}

        def publish(endpoint, signal, score):
            # Label tuples are already canonically sorted:
            # component < role < signal.
            labels = (("component", endpoint), ("role", role_of(endpoint)),
                      ("signal", signal))
            if score > out.get(labels, -1.0):
                out[labels] = score

        def score_groups(values, signal_of, abs_floor, rel_floor=0.0):
            groups = {}
            for (endpoint, method), value in values.items():
                groups.setdefault((role_of(endpoint), method),
                                  []).append((endpoint, value))
            for (_role, method), members in groups.items():
                if len(members) < 2:
                    continue  # no peers, no baseline
                signal = signal_of(method)
                for endpoint, value in members:
                    others = [v for e, v in members if e != endpoint]
                    publish(endpoint, signal,
                            robust_score(value, others, abs_floor, rel_floor))

        score_groups(
            means,
            lambda method: ("write_latency" if method in WRITE_METHODS
                            else "latency"),
            LATENCY_FLOOR, LATENCY_REL_FLOOR)
        score_groups(rates, lambda _method: "link", ERROR_FLOOR)

        # Flow anomaly: handled-at-server vs requested-by-clients. An
        # absolute check (no peer group needed) — a healthy endpoint
        # serves each sent request exactly once, so any sustained
        # excess means the link is duplicating deliveries.
        served = {}
        for series in store.series("rpc_server_handled_total"):
            delta = _counter_delta(series, start, now)
            if delta is not None:
                served[series.labels_dict["endpoint"]] = delta
        for endpoint, total in client_totals.items():
            if total < self.min_count:
                continue
            handled = served.get(endpoint)
            if handled is None:
                continue
            excess = max(0.0, handled / total - 1.0)
            publish(endpoint, "link", excess / FLOW_FLOOR)

        return out
