"""Workload definitions: which configs each workload runs and how a seed varies them.

Each workload is a list of base configs (frozen copies of the shipped
``configs/*.json``, kept in ``perfbench/configs`` so that edits to the
examples do not silently change the benchmark).  Without a seed the
generator returns the base configs unchanged; with a seed it perturbs
initial states, sampling seeds and a few parameters, but only within
ranges where the config's reference check holds (see ``checks.py``).

Sizes are not part of the generated config.  They are applied as
``--set`` overrides on the ``koopman run`` command line, the way a user
shrinks an example, so the config files themselves stay comparable with
the shipped ones.  Standard library only: the parent process of the
benchmark imports this module without numpy.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

WORKLOADS = {
    "grid_partition": ("standard_map_partition", "standard_map_partition_integrable"),
    "orbit_fit": ("lorenz_sindy", "limit_cycle_edmd"),
    "config_sweep": (
        "torus_companion_dmd",
        "torus_pinv_dmd",
        "torus_repr_check",
        "circle_gla",
        "circle_mz_closure",
        "lorenz_mz_memory",
        "linear_static",
    ),
}

# Seeded variants per config: config_sweep replays each small config over
# many variants; the heavy workloads run one variant per config.
VARIANTS = {"grid_partition": 1, "orbit_fit": 1, "config_sweep": 16}

# --set overrides per size profile.  "full" is what the benchmark measures:
# the shipped n = 5000 iterations take about 67 s a pass on a 2-core
# machine.  n = 300 is the smallest tried (200, 250, 300, 350, 400, 500)
# at which the mixed-phase config meets its invariance_score_min at the
# shipped eps; a pass then takes about 6 s, half of it in time_average.
# Both grid sizes are the shipped ones (160k points exceed one core's
# 2 MiB L2, 40k points fit).  "tiny" is the smoke-test profile.
SIZES = {
    "full": {
        "standard_map_partition": ["sampling.n=300"],
        "standard_map_partition_integrable": ["sampling.n=300"],
    },
    "tiny": {
        "standard_map_partition": [
            "sampling.n=30",
            'sampling.grid.axes=[{"lo": 0.00625, "hi": 0.99375, "n": 80, "period": 1.0},'
            ' {"lo": 0.004, "hi": 0.996, "n": 125, "period": 1.0}]',
        ],
        "standard_map_partition_integrable": ["sampling.n=30", "sampling.grid.n=50"],
        "lorenz_sindy": ["sampling.n=20000"],
        "limit_cycle_edmd": ["sampling.n=10000"],
    },
}


@dataclass
class Case:
    """One generated config: base name, variant index, config and overrides."""

    name: str
    variant: int
    config: dict
    overrides: list = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.name}-{self.variant}"


def base_config(name: str) -> dict:
    with open(CONFIG_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _perturb(name: str, config: dict, rng: random.Random) -> dict:
    """Seeded variant of one base config, within ranges where its check holds."""
    cfg = copy.deepcopy(config)
    sampling = cfg.get("sampling")
    if sampling is not None:
        sampling["seed"] = rng.randrange(2**31)
    if name.startswith("torus_") or name == "circle_gla":
        # rotations: the spectrum does not depend on the starting angle
        sampling["initial_state"] = [rng.uniform(0.0, 2.0 * math.pi) for _ in sampling["initial_state"]]
    elif name == "circle_mz_closure":
        closure = cfg["method_params"]["closure"]
        # grid quadrature is exact for any modes below m_samples; keep the
        # angle away from small rationals of 2*pi by staying in (1, 6)
        closure["coefficients"] = [
            {"re": rng.uniform(-1.0, 1.0), "im": rng.uniform(-1.0, 1.0)} for _ in range(3)
        ]
        closure["omega"] = rng.uniform(1.0, 6.0)
    elif name in ("lorenz_mz_memory", "lorenz_sindy"):
        sampling["initial_state"] = [v + rng.uniform(-0.5, 0.5) for v in sampling["initial_state"]]
    elif name == "limit_cycle_edmd":
        # r0 away from the cycle r = 1 keeps the decaying mode visible
        sampling["initial_state"] = [rng.uniform(1.5, 2.5), rng.uniform(0.0, 2.0 * math.pi)]
    # standard_map_partition keeps the shipped eps = 0.12: at n = 300 it
    # scores 0.9507 against its invariance_score_min of 0.95, and the score
    # is not monotone in eps (0.9497 at eps = 0.119), so no range around
    # 0.12 is safe.  Its grid is fixed and it draws no samples, so its
    # variants differ only in the unused sampling seed.
    return cfg


def generate(workload: str, seed: int | None, size: str = "full") -> list[Case]:
    """Every case of a workload; seed None returns the base configs exactly."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    variants = 1 if seed is None else VARIANTS[workload]
    cases = []
    for name in WORKLOADS[workload]:
        base = base_config(name)
        overrides = list(SIZES[size].get(name, []))
        for v in range(variants):
            if seed is None:
                cfg = base
            else:
                cfg = _perturb(name, base, random.Random(f"{workload}/{name}/{seed}/{v}"))
            cases.append(Case(name=name, variant=v, config=cfg, overrides=overrides))
    return cases

