"""Per-layer metrics of one traced ``cli.main`` call, computed from span totals.

Each layer groups the span names of the public functions it consists of.
Layers marked self report time spent in their own functions minus the traced
calls they make; layers marked incl report the whole time of their outermost
calls.  README.md lists which end-to-end ``wall_s`` each metric should move.
"""

from __future__ import annotations

from spans import MODULES
from workloads import lookup, radius_halvings

GROUPS = {
    "contrast_ode.dense": ("contrast_ode.OdeTrajectory.f_at",
                           "contrast_ode.OdeTrajectory.f0_at"),
    "contrast_ode.integrate": ("contrast_ode.integrate_contrast",),
    "timemaps": ("timemaps.compute_g", "timemaps.compute_diagnostics",
                 "timemaps.check_G_decay"),
    "reference.residual": ("reference.euler_poisson_residual",),
    "reference.state": ("reference.background_state", "reference.homogeneous_state"),
    "pde.evolve": ("pde.evolve",),
    "pde.rhs": ("pde.rhs",),
    "pde.stencil": ("pde.diff1", "pde.diff2"),
    "pde.psi": ("pde.compute_psi",),
    "fuchsian.radius": ("fuchsian.find_certified_radius",),
    "fuchsian.verify": ("fuchsian.verify_conditions",),
    "fuchsian.assemble": ("fuchsian.assemble_matrices",),
    "cli.finish": ("cli.RunDir.finish",),
}
COUNTED = ("contrast_ode.dense", "reference.state", "pde.rhs", "pde.stencil",
           "pde.psi", "fuchsian.assemble")
SELF_TIMED = COUNTED + ("cli.finish",)
INCL_TIMED = ("contrast_ode.integrate", "timemaps", "reference.residual",
              "pde.evolve", "fuchsian.radius", "fuchsian.verify")


def layer_metrics(totals: dict, values: dict, artifact_bytes: int) -> dict[str, float]:
    """Metric name -> value for one call, from ``Tracer.totals()`` and summary values."""
    def total(group, col):
        return sum(totals.get(name, (0, 0, 0))[col] for name in GROUPS[group])

    out: dict[str, float] = {}
    for g in COUNTED:
        out[f"{g}.calls"] = total(g, 0)
    for g in SELF_TIMED:
        out[f"{g}.s"] = total(g, 1) * 1e-9
    for g in INCL_TIMED:
        out[f"{g}.s"] = total(g, 2) * 1e-9
    steps = lookup(values, ("n_steps",)) or 0
    out["pde.steps"] = steps
    out["pde.rhs_per_step"] = out["pde.rhs.calls"] / steps if steps else 0.0
    out["pde.step_us"] = out["pde.evolve.s"] * 1e6 / steps if steps else 0.0
    r_tilde = lookup(values, ("r_tilde",))
    out["fuchsian.radius.halvings"] = radius_halvings(r_tilde) if r_tilde else 0.0
    out["cli.artifact_bytes"] = artifact_bytes
    for mod in MODULES:
        out[f"{mod}.self_s"] = 1e-9 * sum(
            self_ns for name, (_, self_ns, _) in totals.items()
            if name.startswith(mod + "."))
    return out
