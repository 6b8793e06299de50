"""Golden-run byte-identity fixtures.

The hot-path refactor (cached id geometry, columnar views, dissemination
frontier, engine fast path) promises *byte-identical* results: same seeds
in, same reduced rows out.  These tests pin that promise to fingerprints
captured on the pre-refactor code — fig7 is the detached fast path,
fig4 exercises all three systems, chaos_sweep composes faults,
capacity, detector and healing on top, and fault_sweep floods all three
systems under i.i.d. ``MessageLoss`` with bounded delivery retries.

To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.experiments.scenarios import SCENARIOS
    from repro.experiments.executor import SerialExecutor, run_sweep
    from repro.experiments.reporting import rows_fingerprint
    spec = json.load(open("tests/fixtures/golden_rows.json"))
    for name, g in spec.items():
        if name not in SCENARIOS:
            continue
        sweep = SCENARIOS[name].sweep(seed=g["seed"], scale=g["scale"])
        rows = run_sweep(sweep, executor=SerialExecutor())
        g["rows"], g["rows_sha256"] = len(rows), rows_fingerprint(rows)
    json.dump(spec, open("tests/fixtures/golden_rows.json", "w"), indent=2)
    EOF

The ``deployed`` entry pins the message-driven mode the same way: a small
:class:`~repro.core.deployment.DeployedVitis` run for a fixed virtual
time, once on an elastic transport and once with a tight
:class:`~repro.sim.capacity.CapacityModel` attached (so sheds and
backpressure deferrals are part of the trajectory).  Regenerate its two
hashes with ``deployed_fingerprint(seed, nodes, seconds, capacity=...)``
below.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.experiments.executor import SerialExecutor, run_sweep
from repro.experiments.reporting import rows_fingerprint
from repro.experiments.runner import measure
from repro.experiments.scenarios import SCENARIOS
from repro.sim.capacity import CapacityModel, NodeCapacity
from repro.sim.network import UniformLatency
from repro.workloads.subscriptions import bucket_subscriptions

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "golden_rows.json"
_FIXTURES = json.loads(FIXTURE.read_text())
GOLDEN = {k: v for k, v in _FIXTURES.items() if k in SCENARIOS}


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_rows_sha256_matches_pre_refactor_fingerprint(scenario):
    golden = GOLDEN[scenario]
    sweep = SCENARIOS[scenario].sweep(seed=golden["seed"], scale=golden["scale"])
    rows = run_sweep(sweep, executor=SerialExecutor())
    assert len(rows) == golden["rows"]
    assert rows_fingerprint(rows) == golden["rows_sha256"], (
        f"{scenario} rows drifted from the pre-refactor golden fingerprint "
        f"(seed={golden['seed']} scale={golden['scale']}); the fast paths "
        "must stay byte-identical to the legacy implementation"
    )


def deployed_fingerprint(seed: int, nodes: int, seconds: float, capacity: bool) -> str:
    """sha256 over everything a deployed-mode run decides: per-kind
    traffic, every node's routing table and relay parents, and the
    oracle-graded ``measure()`` summary."""
    subs = bucket_subscriptions(
        nodes, 60, n_buckets=10, buckets_per_node=2, topics_per_bucket=4, seed=seed
    )
    d = DeployedVitis(
        subs, VitisConfig(rt_size=8), seed=seed,
        latency=UniformLatency(0.01, 0.15, random.Random(seed)),
    )
    if capacity:
        d.attach_capacity(CapacityModel(NodeCapacity(service_rate=14, queue_depth=16)))
    d.run(seconds)
    net = d.network
    doc = {
        "sent": sorted(net.sent.items()),
        "delivered": sorted(net.delivered.items()),
        "shed": sorted(net.shed.items()),
        "deferred": d.backpressure_deferred,
        "rt": {a: d.nodes[a].rt.addresses for a in sorted(d.nodes)},
        "relay_parents": {
            a: sorted(d.nodes[a].relay.parent.items()) for a in sorted(d.nodes)
        },
        "summary": measure(d, 60, seed=seed + 1).summary(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("capacity", [False, True], ids=["elastic", "capacity"])
def test_deployed_mode_matches_pre_refactor_fingerprint(capacity):
    golden = _FIXTURES["deployed"]
    got = deployed_fingerprint(
        golden["seed"], golden["nodes"], golden["seconds"], capacity
    )
    assert got == golden["capacity_sha256" if capacity else "elastic_sha256"], (
        "deployed-mode trajectory drifted from the fingerprint captured "
        "before DeployedVitis was re-seated on the shared system base"
    )
