"""Queries over learned name vectors: cosine similarity, nearest
neighbors, two-name combination, and analogies."""

from __future__ import annotations

import numpy as np

from .corpus import UNK_ID, Vocabs
from .errors import VectorQueryError
from .model import ModelParams


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

    def vector(self, name: str) -> np.ndarray:
        idx = self._index.get(name)
        if idx is None:
            raise VectorQueryError(f"unknown name {name!r}")
        return self.vectors[idx]

    def _ranked(self, scores: np.ndarray, exclude: set[str], k: int):
        if k <= 0:
            return []
        order = np.lexsort((np.arange(len(scores)), -scores))
        out = []
        for idx in order:
            if self.names[idx] in exclude:
                continue
            out.append((self.names[idx], float(scores[idx])))
            if len(out) == k:
                break
        return out

    def nearest(self, name: str, k: int) -> list[tuple[str, float]]:
        """Tags ranked by cosine to the query vector, query excluded."""
        unit = self.vector(name)
        unit = unit / np.linalg.norm(unit)
        return self._ranked(self.units @ unit, {name}, k)

    def combine(self, name_a: str, name_b: str, k: int) -> list[tuple[str, float]]:
        """Tags maximizing cos(a, v) + cos(b, v), computed through the
        equivalent unit-sum form (a_hat + b_hat) . v_hat."""
        a = self.vector(name_a)
        b = self.vector(name_b)
        query = a / np.linalg.norm(a) + b / np.linalg.norm(b)
        if np.linalg.norm(query) == 0.0:
            raise VectorQueryError(
                f"degenerate query: {name_a!r} and {name_b!r} are antipodal")
        return self._ranked(self.units @ query, {name_a, name_b}, k)

    def analogy(self, a: str, b: str, c: str, k: int) -> list[tuple[str, float]]:
        """Tags ranked by cosine to a_hat - b_hat + c_hat ('b is to a as c
        is to ?'), the three query names excluded."""
        va, vb, vc = self.vector(a), self.vector(b), self.vector(c)
        query = (va / np.linalg.norm(va) - vb / np.linalg.norm(vb)
                 + vc / np.linalg.norm(vc))
        norm = np.linalg.norm(query)
        if norm == 0.0:
            raise VectorQueryError("degenerate query: composed vector is zero")
        return self._ranked(self.units @ (query / norm), {a, b, c}, k)


def sum_of_cosines_ranking(table: NameVectorTable, name_a: str, name_b: str,
                           k: int) -> list[tuple[str, float]]:
    """Direct sum-of-cosines objective; must order candidates identically
    to NameVectorTable.combine."""
    a = table.vector(name_a)
    b = table.vector(name_b)
    scores = np.array([cosine(a, v) + cosine(b, v) for v in table.vectors])
    return table._ranked(scores, {name_a, name_b}, k)
