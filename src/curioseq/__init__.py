"""curioseq: curiosity-driven policy-gradient training for attention-LSTM
sequence generation, with exact n-gram evaluation metrics, at desk scale."""

import os

# BLAS reads its thread count once, when numpy loads: one thread unless the
# caller chose a count, so that runs are byte-identical across hosts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
