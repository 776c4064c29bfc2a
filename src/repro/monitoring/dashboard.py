"""Text dashboard: scraped series + active alerts + recent events.

The operator's single-pane view (the simulated Grafana): component
``up`` sparklines over the retained window, key platform gauges,
whatever alerts are pending/firing right now, and the tail of the
platform event log. Pure rendering over the monitoring stack's state.
"""

_BLOCKS = " ▁▂▃▄▅▆▇█"
EVENTS_TAIL = 10  # platform events the dashboard lists


def sparkline(values, width=40, maximum=None):
    """Render values as a block-character strip, ``width`` cells wide."""
    if not values:
        return " " * width
    step = max(1, len(values) // width)
    top = maximum if maximum else max(max(values), 1e-12)
    cells = []
    for i in range(0, len(values), step):
        chunk = values[i:i + step]
        level = (sum(chunk) / len(chunk)) / top
        cells.append(_BLOCKS[max(0, min(8, int(level * 8 + 0.5)))])
    return "".join(cells[:width]).ljust(width)


def render_dashboard(platform):
    """The full text dashboard for a platform's monitoring stack."""
    stack = platform.monitoring
    now = platform.kernel.now
    store = stack.store
    lines = [f"== DLaaS monitoring dashboard @ t={now:.1f}s =="]

    lines.append("")
    lines.append("-- component health (up{component=...}) --")
    up_series = store.series("up")
    if not up_series:
        lines.append("  (no scrapes yet)")
    for series in up_series:
        component = series.labels_dict.get("component", "?")
        current = series.latest_value(now, staleness=3 * stack.scraper.interval)
        state = "UP" if current == 1.0 else ("DOWN" if current == 0.0 else "STALE")
        values = series.values()
        lines.append(f"  {component:<10} {state:<5} [{sparkline(values, maximum=1.0)}]")

    gauges = [name for name in ("cluster_gpus_allocated", "scheduler_pending_pods",
                                "monitoring_series") if store.series(name)]
    if gauges:
        lines.append("")
        lines.append("-- platform series --")
        for name in gauges:
            for series in store.series(name):
                values = series.values()
                latest = values[-1] if values else 0.0
                lines.append(f"  {name:<26} {latest:>8g} [{sparkline(values)}]")

    gray = store.series("gray_divergence")
    if gray:
        lines.append("")
        lines.append("-- gray divergence (robust score vs role peers) --")
        quiet = 0
        for series in gray:
            labels = series.labels_dict
            values = series.values()
            latest = values[-1] if values else 0.0
            if max(values, default=0.0) < 0.5:
                quiet += 1  # within peer baseline the whole window
                continue
            tag = (f"{labels.get('component', '?')}"
                   f"/{labels.get('signal', '?')}")
            lines.append(
                f"  {tag:<32} {latest:>6.1f} [{sparkline(values)}]")
        if quiet:
            lines.append(f"  ({quiet} series within peer baseline)")

    auditor = getattr(stack, "auditor", None)
    if auditor is not None:
        lines.append("")
        lines.append("-- consistency audit (linearizability checker) --")
        checked = store.series("consistency_ops_checked_total")
        for series in checked:
            values = series.values()
            latest = values[-1] if values else 0.0
            lines.append(f"  {'ops checked':<26} {latest:>8g} "
                         f"[{sparkline(values)}]")
        if not checked:
            lines.append(f"  ops checked {auditor.ops_checked} "
                         f"over {auditor.passes} passes (not yet scraped)")
        violations = store.series("consistency_violations_total")
        for series in violations:
            key = series.labels_dict.get("key", "?")
            lines.append(f"  VIOLATION {key}")
        if not violations:
            lines.append("  (no violations)")

    lines.append("")
    lines.append("-- alerts --")
    active = sorted(stack.engine.active.values(),
                    key=lambda i: (i["rule"], i["labels"]))
    if not active:
        lines.append("  (none pending or firing)")
    for instance in active:
        labels = ",".join(f"{k}={v}" for k, v in instance["labels"]) or "-"
        lines.append(
            f"  {instance['state'].upper():<8} {instance['rule']:<24} "
            f"{labels:<24} since t={instance['since']:.1f}s")

    lines.append("")
    lines.append(f"-- recent events (last {EVENTS_TAIL}) --")
    events = sorted(platform.events.events(), key=lambda e: e.last_time)
    if not events:
        lines.append("  (none)")
    for event in events[-EVENTS_TAIL:]:
        count = f" x{event.count}" if event.count > 1 else ""
        lines.append(
            f"  [{event.last_time:8.2f}s] {event.type:<7} "
            f"{event.reason:<24} {event.kind}/{event.name}{count} "
            f"{event.message}")
    return "\n".join(lines)
