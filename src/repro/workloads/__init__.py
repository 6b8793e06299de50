"""Workload generators for every experiment of the paper.

- :mod:`repro.workloads.subscriptions` — the three synthetic subscription
  models of section IV-A (random, low correlation, high correlation).
- :mod:`repro.workloads.publication` — publication-rate models: uniform
  and the power-law sweep of Fig. 7.
- :mod:`repro.workloads.twitter` — a synthetic Twitter-like follower graph
  matching the paper's trace statistics (power-law in/out degree,
  α ≈ 1.65), plus the paper's BFS sampling procedure (Figs. 8–11).
- :mod:`repro.workloads.skype` — a synthetic Skype-superpeer-like churn
  trace: heavy-tailed sessions, diurnal modulation and a flash crowd
  (Fig. 12).
- :mod:`repro.workloads.rss` — an RSS/micronews-like population (paper
  reference [18]): Zipf feed popularity with community co-subscription.
"""

from repro.workloads.subscriptions import (
    bucket_subscriptions,
    high_correlation_subscriptions,
    low_correlation_subscriptions,
    random_subscriptions,
)
from repro.workloads.publication import power_law_rates, sample_topics
from repro.workloads.twitter import TwitterTrace
from repro.workloads.skype import SkypeTrace
from repro.workloads.rss import RssWorkload

__all__ = [
    "RssWorkload",
    "SkypeTrace",
    "TwitterTrace",
    "bucket_subscriptions",
    "high_correlation_subscriptions",
    "low_correlation_subscriptions",
    "power_law_rates",
    "random_subscriptions",
    "sample_topics",
]
