"""Registry of all experiment drivers, one per paper table/figure."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.harness.config import HarnessConfig
from repro.harness.experiments.base import ExperimentResult
from repro.harness.experiments import (
    ablations,
    proxy_quality,
    supplementary,
    systems,
)

#: Experiment id -> driver. Ids follow the paper's numbering; the
#: ``ablation_*`` entries vary its fixed design choices one at a time and
#: the ``suppl_*`` entries measure claims the paper makes in prose.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "ablation_hubs": ablations.ablation_hubs,
    "ablation_hub_selection": ablations.ablation_hub_selection,
    "ablation_connectivity": ablations.ablation_connectivity,
    "ablation_direction": ablations.ablation_direction,
    "ablation_identification": ablations.ablation_identification,
    "suppl_reduced": supplementary.suppl_reduced,
    "suppl_convergence": supplementary.suppl_convergence,
    "suppl_engines": supplementary.suppl_engines,
    "suppl_evolving": supplementary.suppl_evolving,
    "suppl_shape_agreement": supplementary.suppl_shape_agreement,
    "fig02": systems.fig02,
    "fig03": proxy_quality.fig03,
    "fig05": systems.fig05,
    "fig06": systems.fig06,
    "fig07": systems.fig07,
    "fig08": systems.fig08,
    "fig09": proxy_quality.fig09,
    "table01": proxy_quality.table01,
    "table02": proxy_quality.table02,
    "table03": proxy_quality.table03,
    "table04": proxy_quality.table04,
    "table05": proxy_quality.table05,
    "table05_detail": proxy_quality.table05_detail,
    "table07": systems.table07,
    "table08": systems.table08,
    "table09": systems.table09,
    "table10": systems.table10,
    "table11": systems.table11,
    "table12": systems.table12,
    "table13a": proxy_quality.table13a,
    "table13b": proxy_quality.table13b,
    "table13c": proxy_quality.table13c,
    "table14": systems.table14,
    "table15": proxy_quality.table15,
    "table16": proxy_quality.table16,
    "table17": proxy_quality.table17,
}


def run_experiment(
    exp_id: str, config: Optional[HarnessConfig] = None
) -> ExperimentResult:
    """Run one experiment by id; raises ``KeyError`` for unknown ids."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id](config)


__all__ = ["EXPERIMENTS", "run_experiment", "ExperimentResult"]
