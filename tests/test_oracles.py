"""Exact outputs that follow from the model's rules alone.

Each test sets parameters at which one rule pins a count or makes two
configurations indistinguishable, and checks the engine's outputs against
that, independently of any recorded figure.
"""

from dataclasses import replace

import pytest

from uswsim.analysis import summary_dict
from uswsim.engine import run
from uswsim.model import MessageKind, PolicyKind, SimConfig

COPY_KINDS = (MessageKind.COPY_REQUEST, MessageKind.COPY_ACK, MessageKind.COPY_DENY,
              MessageKind.SACRIFICE_DIRECTIVE, MessageKind.HOST_ANNOUNCE)


def outputs(config):
    """What a run reports, apart from the policy it was configured with."""
    result = run(config)
    summary = summary_dict(result)
    del summary["config"]["policy"]
    return summary, result.copy_events, result.cum_sent_series


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("n", [200, 500])
def test_certain_links_without_extras_grow_a_tree(n, seed):
    # wander_step links whenever rng.random() < link_probability, so at 1.0
    # every wanderer links at its first contact; finalize_links befriends
    # ceil(fraction * remaining) extra candidates, none at fraction 0.  Every
    # DO but the first (which joins an empty graph) makes one contact and
    # one link.
    result = run(SimConfig(n_max=n, seed=seed, link_probability=1.0,
                           extra_link_fraction=0.0))
    counts = result.ledger.counts
    assert (counts[MessageKind.CONTACT.code] == counts[MessageKind.LINK_REQUEST.code]
            == counts[MessageKind.LINK_ACK.code] == result.graph.edge_count == n - 1)


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_one_host_makes_no_copies(policy):
    # Collision avoidance: a family never copies onto its home host, and with
    # one host every DO lives there, so no host is ever a candidate.
    result = run(SimConfig(n_max=60, h_max=1, seed=2, policy=policy))
    counts = result.ledger.counts
    assert [counts[kind.code] for kind in COPY_KINDS] == [0] * len(COPY_KINDS)
    assert result.copy_events == []
    assert result.placements == result.denials == result.sacrifices == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_moderate_equals_most_when_r_min_is_r_max(seed):
    # copies_to_attempt bursts to r_min under Moderate and to r_max under
    # Most at first connection, and to single copies under both afterwards.
    base = SimConfig(n_max=80, h_max=60, r_min=4, r_max=4, seed=seed)
    moderate = outputs(replace(base, policy=PolicyKind.MODERATE))
    assert moderate == outputs(replace(base, policy=PolicyKind.MOST))
    assert moderate[1]  # copies were made


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_policies_agree_when_r_max_is_one(seed):
    # With r_min == r_max == 1 every policy's attempt is 1 - c, its only
    # copy, so the three policies act alike.
    base = SimConfig(n_max=80, h_max=60, r_min=1, r_max=1, seed=seed)
    least = outputs(replace(base, policy=PolicyKind.LEAST))
    assert least[1]
    for policy in (PolicyKind.MODERATE, PolicyKind.MOST):
        assert outputs(replace(base, policy=policy)) == least
