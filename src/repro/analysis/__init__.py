"""Overlay analysis: clusters, trees, distributions.

- :mod:`repro.analysis.clusters` — per-topic cluster extraction (the
  paper's "maximal connected subgraph of interested nodes"), diameters,
  gateway statistics.
- :mod:`repro.analysis.distributions` — frequency histograms and the
  Gini coefficient for the degree/overhead distribution figures.
- :mod:`repro.analysis.navigability` — greedy-routing probes and the
  O((1/k)·log²N) yardstick (paper section III-A1).
- :mod:`repro.analysis.control_traffic` — overlay-management cost
  accounting (the paper's scalability argument, section II).
"""

from repro.analysis.clusters import (
    cluster_diameter,
    cluster_stats,
    topic_clusters,
)
from repro.analysis.control_traffic import estimate_control_messages
from repro.analysis.navigability import expected_bound, routing_probe

__all__ = [
    "cluster_diameter",
    "cluster_stats",
    "estimate_control_messages",
    "expected_bound",
    "routing_probe",
    "topic_clusters",
]
