"""Compressed sparse row matrices for adjacency storage and subgraph products.

Rows index destination nodes everywhere in this package, so a message
passing step is a row gather. Integer data carries edge multiplicities,
float data carries normalization weights.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Largest admissible product magnitude before an int64 accumulation is refused.
_INT_SAFE = np.int64(1) << 62


class CSRMatrix:
    """Minimal CSR matrix. `from_edges` accumulates duplicate cells and sorts
    each row; a homogenized adjacency stores a shared cell once per relation,
    and `to_dense` sums such entries."""

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data)
        if self.indptr.shape != (self.n_rows + 1,):
            raise ValueError("indptr must have length n_rows + 1")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have equal length")

    # -- construction -------------------------------------------------------

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
        m = sp.coo_array((data, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
        m.sum_duplicates()
        return cls(n_rows, n_cols, m.indptr, m.indices, m.data)

    # -- views and conversions ----------------------------------------------

    @property
    def nnz(self):
        return int(self.indices.shape[0])

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def expanded_rows(self):
        """Row id of every stored entry, in storage order (sorted by row)."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         np.diff(self.indptr))

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols), dtype=self.data.dtype)
        np.add.at(out, (self.expanded_rows(), self.indices), self.data)
        return out

    # -- algebra --------------------------------------------------------------

    def transpose(self):
        rows = self.expanded_rows()
        order = np.lexsort((rows, self.indices))
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(self.n_cols, self.n_rows, indptr, rows[order],
                         self.data[order])

    def matmul(self, other: "CSRMatrix") -> "CSRMatrix":
        """Sparse product through scipy; integer inputs stay integer,
        overflow-checked. Entries that sum to zero are not stored."""
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: ({self.n_rows},{self.n_cols}) @ "
                f"({other.n_rows},{other.n_cols})")
        int_result = (np.issubdtype(self.data.dtype, np.integer)
                      and np.issubdtype(other.data.dtype, np.integer))
        if int_result and self.nnz and other.nnz:
            bound = (int(np.abs(self.data).max()) * int(np.abs(other.data).max())
                     * max(1, self.n_cols))
            if bound > int(_INT_SAFE):
                raise OverflowError("sparse product may overflow int64 counts")
        dtype = np.int64 if int_result else np.float64
        product = _as_scipy(self, dtype) @ _as_scipy(other, dtype)
        product.sort_indices()
        if int_result and product.nnz and product.data.min() < 0:
            raise OverflowError("sparse product overflowed int64 counts")
        return CSRMatrix(self.n_rows, other.n_cols, product.indptr,
                         product.indices, product.data)

    def __matmul__(self, other):
        return self.matmul(other)

    # -- comparison -----------------------------------------------------------

    def equals(self, other: "CSRMatrix") -> bool:
        return (self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __repr__(self):
        return (f"CSRMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
                f"dtype={self.data.dtype})")


def _as_scipy(m: CSRMatrix, dtype) -> sp.csr_array:
    return sp.csr_array((m.data.astype(dtype, copy=False), m.indices, m.indptr),
                        shape=m.shape)


def freeze(csr: CSRMatrix) -> CSRMatrix:
    """Mark the backing arrays read-only (shared across parallel trials)."""
    for arr in (csr.indptr, csr.indices, csr.data):
        arr.flags.writeable = False
    return csr
