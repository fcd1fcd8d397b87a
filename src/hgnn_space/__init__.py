"""hgnn_space: a design-space exploration platform for heterogeneous GNNs.

Pipeline: typed graphs (`hgraph`) are transformed into subgraph families
(`transform`), consumed by message-passing layers (`layers`) built on a
small autodiff engine (`tensor`), assembled into networks (`model`) whose
configurations come from an enumerable design space (`designspace`).
Training (`train`), orchestration (`runner`) and ranking/EDF analysis
(`analysis`) close the loop.
"""

import os

# pin BLAS threading before numpy loads, so results do not depend on the
# host's thread count or on the entry point (CLI, script or library)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
