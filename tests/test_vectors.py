import numpy as np
import pytest

from codevec.corpus import PAD_ID, UNK_ID, RawExample, build_vocabs
from codevec.errors import VectorQueryError
from codevec.model import AttentionVariant, ModelDims, init_params
from codevec.paths import PathContext, path_from_string
from codevec.vectors import NameVectorTable, cosine, sum_of_cosines_ranking

from conftest import as_float32, tag_vocabs


def random_table(rng, n=12, d=6):
    names = [f"name{i}" for i in range(n)]
    vectors = rng.normal(size=(n, d))
    return NameVectorTable(names, vectors)


class TestCosine:
    def test_parallel(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine(np.array([1.0, 1.0]), np.array([-2.0, -2.0])) == pytest.approx(-1.0)

    def test_matches_definition_on_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u, v = rng.normal(size=5), rng.normal(size=5)
            expected = float(np.dot(u, v)
                             / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert cosine(u, v) == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(VectorQueryError):
            cosine(np.zeros(3), np.ones(3))


class TestNearest:
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            table = random_table(rng)
            query = table.names[int(rng.integers(len(table.names)))]
            got = table.nearest(query, 5)
            qvec = table.vector(query)
            brute = sorted(
                ((name, cosine(qvec, table.vector(name)))
                 for name in table.names if name != query),
                key=lambda pair: (-pair[1], table.names.index(pair[0])))[:5]
            assert [n for n, _ in got] == [n for n, _ in brute]
            for (_, s1), (_, s2) in zip(got, brute):
                assert s1 == pytest.approx(s2, abs=1e-12)

    def test_query_excluded(self):
        table = random_table(np.random.default_rng(3))
        assert all(n != "name0" for n, _ in table.nearest("name0", len(table.names)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(6, 4))
        names = [f"n{i}" for i in range(6)]
        base = NameVectorTable(names, vectors)
        scaled = NameVectorTable(names, vectors * rng.uniform(0.1, 10, size=(6, 1)))
        assert ([n for n, _ in base.nearest("n2", 5)]
                == [n for n, _ in scaled.nearest("n2", 5)])

    def test_k_zero(self):
        table = random_table(np.random.default_rng(5))
        assert table.nearest("name1", 0) == []

    def test_k_larger_than_table(self):
        table = random_table(np.random.default_rng(6), n=4)
        assert len(table.nearest("name1", 100)) == 3

    def test_unknown_name(self):
        table = random_table(np.random.default_rng(7))
        with pytest.raises(VectorQueryError):
            table.nearest("absent", 3)

    def test_tie_broken_by_table_order(self):
        names = ["q", "dup_a", "dup_b"]
        vectors = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 5.0]])
        table = NameVectorTable(names, vectors)
        result = table.nearest("q", 2)
        assert [n for n, _ in result] == ["dup_a", "dup_b"]


class TestCombine:
    def test_equals_sum_of_cosines_ranking(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            table = random_table(rng, n=int(rng.integers(4, 15)))
            a, b = rng.choice(table.names, size=2, replace=False)
            k = int(rng.integers(1, len(table.names)))
            fast = table.combine(a, b, k)
            slow = sum_of_cosines_ranking(table, a, b, k)
            assert [n for n, _ in fast] == [n for n, _ in slow]

    def test_combine_with_self_ranks_like_nearest(self):
        table = random_table(np.random.default_rng(9))
        doubled = table.combine("name3", "name3", 5)
        single = table.nearest("name3", 5)
        assert [n for n, _ in doubled] == [n for n, _ in single]

    def test_query_names_excluded(self):
        table = random_table(np.random.default_rng(10))
        result = table.combine("name0", "name1", len(table.names))
        assert "name0" not in [n for n, _ in result]
        assert "name1" not in [n for n, _ in result]

    def test_antipodal_rejected(self):
        vectors = np.array([[1.0, 0.0], [-3.0, 0.0], [0.0, 1.0]])
        table = NameVectorTable(["a", "b", "c"], vectors)
        with pytest.raises(VectorQueryError):
            table.combine("a", "b", 1)


class TestAnalogy:
    def test_degenerate_to_nearest(self):
        # a - a + c collapses to c, so the ranking follows nearest(c)
        table = random_table(np.random.default_rng(11))
        via_analogy = table.analogy("name5", "name5", "name2", 4)
        via_nearest = [pair for pair in table.nearest("name2", 6)
                       if pair[0] != "name5"][:4]
        assert [n for n, _ in via_analogy] == [n for n, _ in via_nearest]

    def test_recovers_constructed_offset(self):
        # place a target exactly at a - b + c; it must rank first
        rng = np.random.default_rng(12)
        a, b, c = (rng.normal(size=5) for _ in range(3))
        a, b, c = (v / np.linalg.norm(v) for v in (a, b, c))
        target = a - b + c
        names = ["a", "b", "c", "target", "noise"]
        table = NameVectorTable(names, np.stack([a, b, c, target,
                                                 rng.normal(size=5)]))
        (best, score), *_ = table.analogy("a", "b", "c", 1)
        assert best == "target"
        assert score == pytest.approx(1.0)

    def test_query_names_excluded(self):
        table = random_table(np.random.default_rng(13))
        out = table.analogy("name0", "name1", "name2", len(table.names))
        assert {"name0", "name1", "name2"}.isdisjoint(n for n, _ in out)


class TestTableConstruction:
    def test_from_params_skips_pad_unk(self):
        examples = [RawExample(label, [PathContext("x", path_from_string("A^M_B"), "7")])
                    for label in ("getX", "setX", "isX")]
        vocabs = build_vocabs(examples)
        dims = ModelDims(4, len(vocabs.values), len(vocabs.paths),
                         len(vocabs.tags), 3)
        params = init_params(dims, AttentionVariant.SOFT, 0)
        table = NameVectorTable.from_params(params, vocabs)
        assert set(table.names) == {"getX", "setX", "isX"}
        assert vocabs.tags.entry(PAD_ID) not in table.names
        assert vocabs.tags.entry(UNK_ID) not in table.names

    def test_zero_norm_row_excluded(self):
        examples = [RawExample(label, [PathContext("x", path_from_string("A^M_B"), "7")])
                    for label in ("getX", "setX")]
        vocabs = build_vocabs(examples)
        dims = ModelDims(4, len(vocabs.values), len(vocabs.paths),
                         len(vocabs.tags), 3)
        params = init_params(dims, AttentionVariant.SOFT, 0)
        dead = vocabs.tags.id_of("setX")
        params.tags_vocab[dead] = 0.0
        table = NameVectorTable.from_params(params, vocabs)
        assert table.names == ["getX"]

    def test_from_params_matches_row_loop(self):
        # Reference: the per-row loop the vectorised filter replaced.
        vocabs = tag_vocabs(40)
        dims = ModelDims(5, 3, 3, 40, 3)
        params = as_float32(init_params(dims, AttentionVariant.SOFT, 2))
        params.tags_vocab[[UNK_ID, 3, 17, 39]] = 0.0
        params.tags_vocab[PAD_ID] = 1.0
        names, rows = [], []
        for idx in range(len(vocabs.tags)):
            row = params.tags_vocab[idx]
            if idx in (PAD_ID, UNK_ID) or np.linalg.norm(row) == 0.0:
                continue
            names.append(vocabs.tags.entry(idx))
            rows.append(row)
        table = NameVectorTable.from_params(params, vocabs)
        assert table.names == names and len(names) == 35
        assert table.vectors.dtype == np.float64
        assert np.array_equal(table.vectors, np.array(rows, dtype=np.float64))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            NameVectorTable(["a"], np.ones((2, 3)))
