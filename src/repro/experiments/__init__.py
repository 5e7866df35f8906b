"""Experiment drivers: one entry point per table and figure of the paper.

Each ``run_*`` function renders the required configurations through the
functional simulator, feeds the measured operation counts into the GPU
timing model or the accelerator cycle simulator, and returns plain-data
rows shaped like the paper's table/figure.  The benchmark harnesses under
``benchmarks/`` print them; ``EXPERIMENTS.md`` records paper-vs-measured.
"""

from repro.experiments.cache import ProjectionCache, RenderCache
from repro.experiments.fig03 import Fig3Row, run_fig3
from repro.experiments.fig11 import Fig11Row, run_fig11
from repro.experiments.fig12 import Fig12Row, run_fig12
from repro.experiments.fig13 import Fig13Row, run_fig13
from repro.experiments.hardware_eval import HardwareRow, run_hardware_eval
from repro.experiments.profiling import ProfilingRow, run_profiling_sweep

__all__ = [
    "Fig3Row",
    "Fig11Row",
    "Fig12Row",
    "Fig13Row",
    "HardwareRow",
    "ProfilingRow",
    "ProjectionCache",
    "RenderCache",
    "run_fig3",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_hardware_eval",
    "run_profiling_sweep",
]
