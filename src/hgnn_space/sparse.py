"""Adjacency storage and subgraph products on scipy's CSR array.

Rows index destination nodes everywhere in this package, so a message
passing step is a row gather. Integer data carries edge multiplicities,
float data carries normalization weights.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Largest admissible product magnitude before an int64 accumulation is refused.
_INT_SAFE = np.int64(1) << 62


class CSRMatrix(sp.csr_array):
    """A scipy `csr_array` with int64 indices, so that edge keys such as
    dst * n_src + src cannot overflow, and read-only arrays, so that parallel
    trials can share it. `from_edges` accumulates duplicate cells and sorts
    each row; a homogenized adjacency stores a shared cell once per relation,
    and `toarray` sums such entries."""

    @classmethod
    def frozen(cls, arg, shape):
        """scipy's construction from (data, indices, indptr) or (data, (rows,
        cols)), then int64 index arrays (scipy picks int32 for an empty
        product; an int64 array is not copied) and all arrays read-only."""
        m = cls(arg, shape=shape)
        m.indptr = m.indptr.astype(np.int64, copy=False)
        m.indices = m.indices.astype(np.int64, copy=False)
        for arr in (m.indptr, m.indices, m.data):
            arr.flags.writeable = False
        return m

    @classmethod
    def from_edges(cls, rows, cols, n_rows, n_cols, data=None):
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
        return cls.frozen((data, (rows, cols)), (n_rows, n_cols))

    def expanded_rows(self):
        """Row id of every stored entry, in storage order (sorted by row)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64),
                         np.diff(self.indptr))

    def matmul(self, other: "CSRMatrix") -> "CSRMatrix":
        """Sparse product through scipy; integer inputs stay integer,
        overflow-checked. Entries that sum to zero are not stored."""
        int_result = (np.issubdtype(self.dtype, np.integer)
                      and np.issubdtype(other.dtype, np.integer))
        if int_result and self.nnz and other.nnz:
            bound = (int(np.abs(self.data).max()) * int(np.abs(other.data).max())
                     * max(1, self.shape[1]))
            if bound > int(_INT_SAFE):
                raise OverflowError("sparse product may overflow int64 counts")
        dtype = np.int64 if int_result else np.float64
        product = sp.csr_array.__matmul__(self.astype(dtype, copy=False),
                                          other.astype(dtype, copy=False))
        product.sort_indices()
        if int_result and product.nnz and product.data.min() < 0:
            raise OverflowError("sparse product overflowed int64 counts")
        return CSRMatrix.frozen((product.data, product.indices, product.indptr),
                                product.shape)

    def __matmul__(self, other):
        return self.matmul(other)
