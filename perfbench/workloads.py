"""The benchmark's workloads: one CLI pipeline each, with the checks its output must pass.

Each workload is one ``jeanslab`` subcommand at a fixed size.  The workload
seed is passed through as ``--seed``; the program receives nothing else from
the benchmark.  See README.md for why each workload was chosen and which layer
it stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    # verdict names that every run must report, and report as passing
    verdicts: tuple[str, ...]
    # summary.json values recorded next to the digests: (label, path into values)
    key_values: tuple[tuple[str, tuple[str, ...]], ...]

    def argv(self, seed: int, output_dir: str) -> list[str]:
        return [*self.args, "--seed", str(seed), "--output-dir", output_dir]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="collapse",
            args=("simulate", "--grid-n", "128", "--profile-kind", "cosine",
                  "--eps", "1e-3", "--pde-f-cap", "1e3"),
            verdicts=("run_completed", "hyperbolicity_preserved",
                      "continuity_identity_small"),
            key_values=(("n_steps", ("n_steps",)),
                        ("stop_reason", ("stop_reason",)),
                        ("final_f", ("final_f",)),
                        ("continuity_residual_max", ("continuity_residual_max",))),
        ),
        Workload(
            name="certify",
            args=("fuchsian-check", "--f-cap", "1e8"),
            verdicts=("fuchsian_F1_projector", "fuchsian_F2_remainder_vanishes",
                      "fuchsian_F3_regularity", "fuchsian_F4_symmetry",
                      "fuchsian_F5_sandwich", "fuchsian_F6_block_structure",
                      "fuchsian_F7_divB_orders", "fuchsian_smallness_sum_z",
                      "fuchsian_q_positivity"),
            key_values=(("r_tilde", ("r_tilde",)),
                        ("sandwich_margin", ("sandwich_margin",)),
                        ("max_sum_abs_z", ("max_sum_abs_z",))),
        ),
        Workload(
            name="exact",
            args=("residuals", "--family", "both"),
            verdicts=("background_residuals_below_1e-6",
                      "homogeneous_residuals_below_1e-6"),
            key_values=tuple(
                (f"{fam}.{eq}", (fam, "max_norms", eq))
                for fam in ("background", "homogeneous")
                for eq in ("continuity", "momentum", "entropy_transport", "poisson")),
        ),
    )
}

# find_certified_radius starts its halving search at this radius
RADIUS_START = 1e-2


def radius_halvings(r_tilde: float) -> float:
    """Number of halvings from the starting radius down to the certified one."""
    return math.log2(RADIUS_START / r_tilde)


def lookup(values: dict, path: tuple[str, ...]):
    for key in path:
        if not isinstance(values, dict) or key not in values:
            return None
        values = values[key]
    return values
