"""Build a stochastic graph, query probabilities, draw conditional samples.

Every node has an independent discrete distribution over the points of a
metric space.  Run top to bottom: python3 demos/01_model_and_sampling.py
"""

import numpy as np

from stochgraph import (
    EventSpec,
    MetricSpace,
    Realization,
    SampleStream,
    StochasticGraph,
    event_probability,
    expected_mass,
    node_mass,
    realization_probability,
    sample,
)

# A four-point space: three points near the origin, one far away.
space = MetricSpace(
    ["office", "cafe", "park", "airport"],
    coords=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [40.0, 5.0]]),
)
print("d(office, airport) =", space.d("office", "airport"))

# Two couriers with uncertain locations.
g = StochasticGraph(
    ["alice", "bob"],
    space,
    {
        "alice": {"office": 0.7, "cafe": 0.2, "airport": 0.1},
        "bob": {"cafe": 0.5, "park": 0.5},
    },
)

# A realization fixes everyone; its probability is the product of marginals.
r = Realization.from_mapping(g, {"alice": "office", "bob": "park"})
print("Pr[alice@office, bob@park] =", realization_probability(g, r))  # 0.35

# Mass bookkeeping: expected number of nodes in a point set, per-node mass.
downtown = ["office", "cafe"]
print("p(downtown) =", expected_mass(g, downtown))       # 0.7+0.2+0.5
print("p_alice(downtown) =", node_mass(g, "alice", downtown))

# Product-form events: restrict each node to an allowed set.
both_downtown = EventSpec(allowed={"alice": downtown, "bob": downtown})
print("Pr[both downtown] =", event_probability(g, both_downtown))

# Conditional sampling renormalizes each node inside its allowed set.
# Draws are a pure function of (seed, tag, index): reruns reproduce exactly.
stream = SampleStream(seed=7, tag="demo", draws=g.n)
for i in range(5):
    draw = sample(g, both_downtown, stream, index=i)
    print(f"conditional sample {i}:", draw.to_mapping(g))
