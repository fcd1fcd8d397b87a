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


def _keep_freed_memory():
    """On glibc, keep freed blocks in the process instead of unmapping or
    trimming them. Every epoch frees a forward pass of arrays that the next
    epoch allocates again, and the kernel zero-filling those pages afresh
    took 10-17% of a plan's CPU time. Any `MALLOC_*` variable or
    `glibc.malloc.*` tunable means the user chose a setting: keep it."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # not glibc
        return
    if (any(k.startswith("MALLOC_") for k in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: glibc's largest on 64-bit
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()

__version__ = "0.1.0"
