"""Render captured telemetry as tables.

Bridges the observability channels back into the repository's tabular
reporting idiom: every function returns ``list[dict]`` rows compatible
with :func:`repro.experiments.reporting.format_table`, and
:func:`trace_report` / :func:`live_report` assemble the reports the CLI
prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import format_table
from repro.obs.audit import AuditReport, audit_trees, event_trees
from repro.obs.critical_path import (
    EnvelopeCheck,
    check_envelope,
    hop_kind_table,
    relay_hotspots,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTree, build_span_trees
from repro.obs.telemetry import Telemetry

__all__ = [
    "live_report",
    "phase_rows",
    "trace_summary_rows",
    "span_tree_lines",
    "trace_report",
]


def phase_rows(telemetry: Telemetry) -> List[Dict]:
    """The phase breakdown (inclusive wall time per nested phase path)."""
    return telemetry.phases.to_rows()


def trace_summary_rows(events: List[Dict]) -> List[Dict]:
    """Count trace events by type — a quick sanity view of a JSONL file
    loaded with :func:`repro.obs.trace.read_trace`."""
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.get("ev", "?")] = counts.get(e.get("ev", "?"), 0) + 1
    return [{"event": ev, "count": n} for ev, n in sorted(counts.items())]


def span_tree_lines(tree: SpanTree, max_spans: int = 200) -> List[str]:
    """Render one span tree as indented ASCII lines (root first).

    Failure spans show their status; the render is truncated after
    ``max_spans`` lines (big floods would otherwise drown the report).
    """
    lines: List[str] = []
    meta = " ".join(f"{k}={v}" for k, v in sorted(tree.meta.items()))
    header = f"trace {tree.trace_id}"
    if tree.trial is not None:
        header += f" trial={tree.trial}"
    if meta:
        header += f" ({meta})"
    lines.append(header)
    if tree.root is None:
        lines.append("  (no root span)")
        return lines
    truncated = False

    def walk(span_id: int, depth: int) -> None:
        nonlocal truncated
        if truncated:
            return
        if len(lines) > max_spans:
            truncated = True
            return
        s = tree.spans[span_id]
        arrow = f"{s.src}->{s.dst}" if s.src != s.dst else f"@{s.dst}"
        note = f" !{s.status}" if s.status is not None else ""
        if s.retries:
            note += f" retries={s.retries}"
        lines.append(f"{'  ' * (depth + 1)}[{s.span}] {s.kind} {arrow} hop={s.hop}{note}")
        for child in tree.children.get(span_id, ()):
            walk(child, depth + 1)

    walk(tree.root, 0)
    if truncated:
        lines.append(f"  ... truncated at {max_spans} spans "
                     f"({len(tree.spans)} total)")
    for m in tree.misses:
        edge = ""
        if "src" in m and "dst" in m:
            edge = f" at {m['src']}->{m['dst']}"
        lines.append(f"  miss addr={m.get('addr')} cause={m.get('cause')}{edge}")
    return lines


def trace_report(
    events: List[Dict],
    n_trees: int = 0,
    n_hotspots: int = 10,
) -> Tuple[str, AuditReport, Optional["EnvelopeCheck"]]:
    """The full ``trace-report`` text plus the audit and envelope check
    it was built from (the CLI's ``--audit`` exit code reads both).

    Sections: event-type summary, per-event delivery audit totals with
    the miss-attribution breakdown, per-hop-kind depth table, hotspot
    relay nodes, the O(log² N + d) envelope check, and (``n_trees`` > 0)
    rendered span trees of the first events.
    """
    trees = build_span_trees(events)
    audit = audit_trees(trees)
    ev_trees = event_trees(trees)
    install_traces = len(trees) - len(ev_trees)
    sections: List[str] = []

    sections.append(format_table(trace_summary_rows(events), title="trace events"))

    n_swim = sum(1 for e in events if e.get("ev") == "swim")
    if n_swim:
        sections.append(
            f"swim: {n_swim} verdict transition(s) in this trace — run the "
            f"cluster with --series-out and render the health timeline with "
            f"`python -m repro live-report <series.json>`"
        )

    lines = [
        f"span trees: {audit.n_events} event traces "
        f"({audit.n_events - audit.n_incomplete} complete), "
        f"{install_traces} install traces",
    ]
    if audit.expected_total:
        pct = 100.0 * audit.delivered_total / audit.expected_total
        lines.append(
            f"deliveries: {audit.delivered_total}/{audit.expected_total} "
            f"expected ({pct:.1f}%)"
        )
    sections.append("\n".join(lines))

    causes = audit.cause_totals()
    miss_rows = [{"cause": c, "misses": n} for c, n in sorted(causes.items())]
    if audit.unexplained_total:
        miss_rows.append({"cause": "unexplained", "misses": audit.unexplained_total})
    if miss_rows:
        sections.append(format_table(miss_rows, title="miss attribution"))
    else:
        sections.append("miss attribution: no misses")

    kind_rows = [
        {
            "kind": kind,
            "spans": stats["spans"],
            "failed": stats["failed"],
            "per_path_mean": round(stats["per_path_mean"], 2),
            "per_path_max": stats["per_path_max"],
        }
        for kind, stats in hop_kind_table(ev_trees).items()
    ]
    sections.append(format_table(kind_rows, title="hop kinds"))

    hot = relay_hotspots(ev_trees, n=n_hotspots)
    if hot:
        hot_rows = [{"address": a, "relay_spans": n} for a, n in hot]
        sections.append(format_table(hot_rows, title="relay hotspots"))

    env = check_envelope(events, trees)
    if env is not None:
        sections.append(
            f"envelope O(log² N + d): N={env.n_live} d={env.d} "
            f"bound={env.bound:.1f} p99_hops={env.p99_hops:.0f} "
            f"max_hops={env.max_hops} -> {'OK' if env.ok else 'EXCEEDED'}"
        )

    if n_trees > 0:
        rendered: List[str] = []
        for tree in ev_trees[:n_trees]:
            rendered.extend(span_tree_lines(tree))
        if rendered:
            sections.append("span trees:\n" + "\n".join(rendered))

    if not audit.ok:
        bad = audit.failures()
        lines = [f"AUDIT FAILED: {len(bad)} event(s) violate the audit contract"]
        for e in bad[:10]:
            lines.append(
                f"  trace {e.trace_id}"
                + (f" trial={e.trial}" if e.trial is not None else "")
                + f": expected={e.expected} delivered={e.delivered} "
                  f"unexplained={e.unexplained} complete={e.complete}"
            )
        if len(bad) > 10:
            lines.append(f"  ... and {len(bad) - 10} more")
        sections.append("\n".join(lines))

    return "\n\n".join(sections), audit, env


# ----------------------------------------------------------------------
# Live series store (repro.net.store) — the post-run health timeline
# ----------------------------------------------------------------------
def _interval_edges(t_max: float, n: int = 10) -> List[float]:
    if t_max <= 0:
        return [0.0]
    step = t_max / n
    return [step * (i + 1) for i in range(n)]


def _sample_at(samples: List[Dict], t: float) -> Optional[Dict]:
    """Latest sample at or before ``t`` (samples are time-ordered)."""
    best = None
    for s in samples:
        if s["t"] <= t:
            best = s
        else:
            break
    return best


def live_report(doc: Dict) -> str:
    """The ``live-report`` health timeline for one persisted series store
    (``live cluster --series-out``, schema ``repro.net.livestore/1``).

    Sections: a per-node stream summary, the complete SWIM verdict
    transition timeline (every transition — this is the artifact the
    detector is debugged with), per-observer transition totals, the
    cluster-wide counter evolution over time (retransmit/give-up/delivery
    deltas plus in-interval mean delivery hops), the final delivery-hops
    distribution, and ring-convergence progress.
    """
    if not isinstance(doc, dict) or doc.get("schema") != "repro.net.livestore/1":
        raise ValueError(
            "not a repro.net.livestore/1 document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    nodes = doc.get("nodes", {})
    swim = sorted(doc.get("swim", ()), key=lambda e: (e[0], e[1], e[2]))
    ring = list(doc.get("ring", ()))
    expected = list(doc.get("expected", ()))
    sections: List[str] = []

    # --- per-node stream summary -------------------------------------
    node_rows: List[Dict] = []
    t_max = 0.0
    for proc_s in sorted(nodes, key=int):
        data = nodes[proc_s]
        samples = data.get("samples", [])
        if samples:
            t_max = max(t_max, samples[-1]["t"])
        last = samples[-1] if samples else {"c": {}, "g": {}}
        node_rows.append({
            "node": proc_s,
            "frames": data.get("frames", 0),
            "sent": int(last["c"].get("live_sent_total", 0)),
            "retransmits": int(last["c"].get("live_retransmits", 0)),
            "gave_up": int(last["c"].get("live_gave_up", 0)),
            "delivered": int(last["c"].get("live_delivered_events", 0)),
            "suspect": int(last["g"].get("swim_suspect_peers", 0)),
            "dead": int(last["g"].get("swim_dead_peers", 0)),
        })
    header = (
        f"live series: {len(nodes)} node(s), "
        f"{sum(r['frames'] for r in node_rows)} metrics frame(s), "
        f"{doc.get('dropped_frames', 0)} dropped, "
        f"{len(swim)} swim transition(s), span {t_max:.1f}s"
    )
    sections.append(header)
    if node_rows:
        sections.append(format_table(node_rows, title="per-node streams"))

    # --- SWIM verdict timeline (complete, never truncated) -----------
    if swim:
        lines = ["swim verdict timeline:"]
        for t, proc, peer, prev, state in swim:
            lines.append(
                f"  t={t:7.2f}s  node {proc:>4}: peer {peer:>4} "
                f"{prev} -> {state}"
            )
        sections.append("\n".join(lines))
        totals: Dict[Tuple[int, str], int] = {}
        for _, proc, _, prev, state in swim:
            totals[(proc, f"{prev}->{state}")] = (
                totals.get((proc, f"{prev}->{state}"), 0) + 1
            )
        trans_rows = [
            {"node": proc, "transition": kind, "count": n}
            for (proc, kind), n in sorted(totals.items())
        ]
        sections.append(format_table(trans_rows, title="transitions per observer"))
    else:
        sections.append("swim verdict timeline: no transitions recorded")

    # --- cluster counter evolution -----------------------------------
    def cluster_at(t: float) -> Dict[str, float]:
        agg: Dict[str, float] = {}
        for data in nodes.values():
            s = _sample_at(data.get("samples", []), t)
            if s is None:
                continue
            for k, v in s["c"].items():
                agg[k] = agg.get(k, 0.0) + v
            for name, h in s.get("h", {}).items():
                agg[f"{name}.count"] = agg.get(f"{name}.count", 0.0) + h["count"]
                agg[f"{name}.sum"] = agg.get(f"{name}.sum", 0.0) + h["sum"]
        return agg

    if t_max > 0:
        evo_rows: List[Dict] = []
        prev_agg = cluster_at(0.0)
        prev_t = 0.0
        for t in _interval_edges(t_max):
            agg = cluster_at(t)

            def delta(key: str) -> float:
                return agg.get(key, 0.0) - prev_agg.get(key, 0.0)

            d_count = delta("live_delivery_hops.count")
            d_sum = delta("live_delivery_hops.sum")
            evo_rows.append({
                "t_s": round(t, 1),
                "retransmits": int(delta("live_retransmits")),
                "retx_per_s": round(delta("live_retransmits") / (t - prev_t), 2)
                if t > prev_t else 0.0,
                "gave_up": int(delta("live_gave_up")),
                "delivered": int(delta("live_delivered_events")),
                "hops_mean": round(d_sum / d_count, 2) if d_count else "",
            })
            prev_agg, prev_t = agg, t
        sections.append(
            format_table(evo_rows, title="cluster evolution (per interval)")
        )

    # --- final delivery-hops distribution ----------------------------
    merged = MetricsRegistry()
    for proc_s in sorted(nodes, key=int):
        merged.merge(nodes[proc_s].get("totals", {}))
    hops = merged.to_dict().get("histograms", {}).get("live_delivery_hops")
    if hops and hops["count"]:
        sections.append(
            "delivery hops (final distribution): "
            f"count={hops['count']} mean={hops['mean']:.2f} "
            f"p50={hops['p50']:.1f} p90={hops['p90']:.1f} "
            f"p99={hops['p99']:.1f} max={hops['max']:.0f}"
        )

    # --- ring convergence progress -----------------------------------
    if ring:
        ring_rows = [
            {"t_s": round(t, 1), "wrong_successors": wrong, "of": total}
            for t, wrong, total in ring
        ]
        sections.append(format_table(ring_rows, title="ring convergence"))

    # --- delivery progress vs expectation ----------------------------
    if expected:
        final = cluster_at(t_max) if t_max > 0 else {}
        exp_total = expected[-1][1]
        got = final.get("live_delivered_events", 0.0)
        sections.append(
            f"deliveries: {int(got)}/{exp_total} expected so far "
            f"(hit {got / exp_total:.3f})" if exp_total else
            "deliveries: nothing published yet"
        )

    return "\n\n".join(sections)
