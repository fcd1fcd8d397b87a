"""Adjacency storage and subgraph products on scipy's CSR array.

Every adjacency is a plain `scipy.sparse.csr_array` with int64 indices, so
that edge keys such as dst * n_src + src cannot overflow, and read-only
arrays, so that parallel trials can share it. Rows index destination nodes
everywhere in this package, so a message passing step is a row gather.
Integer data carries edge multiplicities, float data carries normalization
weights. `from_edges` accumulates duplicate cells and sorts each row; a
homogenized adjacency stores a shared cell once per relation, and `toarray`
sums such entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Largest admissible product magnitude before an int64 accumulation is refused.
_INT_SAFE = np.int64(1) << 62


def frozen(arg, shape):
    """scipy's construction from (data, indices, indptr) or (data, (rows,
    cols)), then int64 index arrays (scipy picks int32 for an empty
    product; an int64 array is not copied) and all arrays read-only."""
    m = sp.csr_array(arg, shape=shape)
    m.indptr = m.indptr.astype(np.int64, copy=False)
    m.indices = m.indices.astype(np.int64, copy=False)
    for arr in (m.indptr, m.indices, m.data):
        arr.flags.writeable = False
    return m


def from_edges(rows, cols, n_rows, n_cols, data=None):
    """Build from parallel (row, col) arrays; duplicate cells accumulate."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have equal length")
    if data is None:
        data = np.ones(rows.shape[0], dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of range")
    return frozen((data, (rows, cols)), (n_rows, n_cols))


def expanded_rows(m):
    """Row id of every stored entry of `m`, in storage order (sorted by row)."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))


def matmul(a, b):
    """Sparse product through scipy; integer inputs stay integer,
    overflow-checked. Entries that sum to zero are not stored."""
    int_result = (np.issubdtype(a.dtype, np.integer)
                  and np.issubdtype(b.dtype, np.integer))
    if int_result and a.nnz and b.nnz:
        bound = (int(np.abs(a.data).max()) * int(np.abs(b.data).max())
                 * max(1, a.shape[1]))
        if bound > int(_INT_SAFE):
            raise OverflowError("sparse product may overflow int64 counts")
    dtype = np.int64 if int_result else np.float64
    product = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    product.sort_indices()
    if int_result and product.nnz and product.data.min() < 0:
        raise OverflowError("sparse product overflowed int64 counts")
    return frozen((product.data, product.indices, product.indptr), product.shape)


class CSRMatrix:
    """Not a matrix type. The benchmark's layer map (perfbench/layermap.py)
    counts sparse products by wrapping `CSRMatrix.matmul`, and
    `transform.compose_metapath` calls it by that name, so the name stays
    bound until the layer map drops it."""

    matmul = staticmethod(matmul)
