#!/usr/bin/env python3
"""paper_numbers: the analytic paper numbers of one source tree, as sorted JSON.

    python tools/paper_numbers.py [--src DIR]

Prints Figure 5's headline summary (``summarize_figure5(run_figure5())``),
Figure 6's ``equivalent_mcs_<architecture>`` values, and the ``CostModel``
multiply-adds at 1920x1080, at 2048x850 and at 2048x850 with the Roadway
crop: the base DNN, each microclassifier architecture and each discrete
classifier of the Pareto sweep.  All of them are pure functions of the cost
and throughput models, so two trees whose models agree print the same
numbers; ``python tools/parity.py base ../base --only paper_numbers`` runs
each tree's copy and names the first differing key.

``--src`` (default: the ``src/`` beside this script) goes first on
``sys.path``; the script fails if ``repro`` is imported from anywhere else,
such as an installed copy of another tree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

COST_MODELS = {
    "cost_1920x1080": {"resolution": (1920, 1080)},
    "cost_2048x850": {"resolution": (2048, 850)},
    "cost_2048x850_crop0.59": {"resolution": (2048, 850), "crop_fraction": 0.59},
}


def paper_numbers() -> dict:
    """Figures 5 and 6 headline numbers and the paper-scale multiply-adds."""
    from repro.baselines.discrete_classifier import discrete_classifier_pareto_configs
    from repro.experiments.figure5 import run_figure5, summarize_figure5
    from repro.experiments.figure6 import run_figure6
    from repro.perf.cost_model import CostModel

    figure6 = run_figure6()
    numbers = {
        "figure5": summarize_figure5(run_figure5()),
        "figure6": {
            f"equivalent_mcs_{arch}": figure6.equivalent_mcs_to_base_dnn(arch)
            for arch in figure6.breakdowns
        },
    }
    for key, kwargs in COST_MODELS.items():
        model = CostModel(**kwargs)
        numbers[key] = {
            "base_dnn": model.base_dnn_cost(),
            **{f"mc_{arch}": model.mc_cost(arch) for arch in ("full_frame", "localized", "windowed")},
            **{config.name: model.dc_cost(config) for config in discrete_classifier_pareto_configs()},
        }
    return numbers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO_SRC, help="the tree's src/ directory")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    origin = Path(importlib.import_module("repro").__file__).resolve()
    if src not in origin.parents:
        print(f"paper_numbers: repro is imported from {origin}, not from {src}", file=sys.stderr)
        return 1
    print(json.dumps(paper_numbers(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
