"""Queries over learned name vectors: cosine similarity, nearest
neighbors, two-name combination, and analogies."""

from __future__ import annotations

import numpy as np

from .corpus import UNK_ID, Vocabs
from .errors import VectorQueryError
from .model import ModelParams, top_k


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise VectorQueryError("cosine of a zero-norm vector is undefined")
    return float(u @ v / (nu * nv))


class NameVectorTable:
    """Tag strings paired with their learned vectors; PAD, UNK, and
    zero-norm rows are excluded from queries."""

    def __init__(self, names: list[str], vectors: np.ndarray):
        if len(names) != len(vectors):
            raise ValueError("names/vectors length mismatch")
        self.names = list(names)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero-norm vector in queryable table")
        self.units = self.vectors / norms[:, None]
        self._index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def from_params(cls, params: ModelParams, vocabs: Vocabs) -> "NameVectorTable":
        # Tag ids past the reserved PAD and UNK whose row is not zero, in id order.
        norms = np.linalg.norm(params.tags_vocab[:len(vocabs.tags)], axis=1)
        keep = UNK_ID + 1 + np.flatnonzero(norms[UNK_ID + 1:])
        return cls([vocabs.tags.entry(i) for i in keep], params.tags_vocab[keep])

    def _id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            raise VectorQueryError(f"unknown name {name!r}")
        return idx

    def vector(self, name: str) -> np.ndarray:
        return self.vectors[self._id(name)]

    def _named(self, scores: np.ndarray, k: int, ids: set[int]) -> list[tuple[str, float]]:
        """(name, score) pairs of the `top_k` rows, the query rows `ids` excluded."""
        return [(self.names[i], float(scores[i])) for i in top_k(scores, k, ids)]

    def nearest(self, name: str, k: int) -> list[tuple[str, float]]:
        """Tags ranked by cosine to the query vector, query excluded."""
        idx = self._id(name)
        return self._named(self.units @ self.units[idx], k, {idx})

    def combine(self, name_a: str, name_b: str, k: int) -> list[tuple[str, float]]:
        """Tags maximizing cos(a, v) + cos(b, v), computed through the
        equivalent unit-sum form (a_hat + b_hat) . v_hat."""
        ia, ib = self._id(name_a), self._id(name_b)
        query = self.units[ia] + self.units[ib]
        if np.linalg.norm(query) == 0.0:
            raise VectorQueryError(
                f"degenerate query: {name_a!r} and {name_b!r} are antipodal")
        return self._named(self.units @ query, k, {ia, ib})

    def analogy(self, a: str, b: str, c: str, k: int) -> list[tuple[str, float]]:
        """Tags ranked by cosine to a_hat - b_hat + c_hat ('b is to a as c
        is to ?'), the three query names excluded."""
        ia, ib, ic = self._id(a), self._id(b), self._id(c)
        query = self.units[ia] - self.units[ib] + self.units[ic]
        norm = np.linalg.norm(query)
        if norm == 0.0:
            raise VectorQueryError("degenerate query: composed vector is zero")
        return self._named(self.units @ (query / norm), k, {ia, ib, ic})


def sum_of_cosines_ranking(table: NameVectorTable, name_a: str, name_b: str,
                           k: int) -> list[tuple[str, float]]:
    """Direct sum-of-cosines objective; must order candidates identically
    to NameVectorTable.combine."""
    a = table.vector(name_a)
    b = table.vector(name_b)
    scores = np.array([cosine(a, v) + cosine(b, v) for v in table.vectors])
    return table._named(scores, k, {table._id(name_a), table._id(name_b)})
