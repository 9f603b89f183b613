"""A satellite world from per-body records, for tests that describe it
body by body with ``AgentBody`` and ``TargetBody``."""

import numpy as np

from taskalloc.scenario import SatelliteScenario


def world_from_bodies(agents, targets, config):
    """``SatelliteScenario`` holding ``agents`` and ``targets`` as its rows."""
    return SatelliteScenario(
        config,
        agent_states=[np.concatenate([a.position, a.velocity]) for a in agents],
        comm_factors=[a.comm_factor for a in agents],
        fuel=[a.fuel for a in agents],
        accrued_cost=[a.accrued_cost for a in agents],
        target_states=[np.concatenate([t.position, t.velocity]) for t in targets],
        info_values=[t.info_value for t in targets],
        decays=[t.decay for t in targets],
        drag_coeffs=[t.drag_coeff for t in targets],
        end_times=[t.end_time for t in targets],
        obs_durations=[t.obs_duration for t in targets],
        obs_radii=[t.obs_radius for t in targets],
    )
