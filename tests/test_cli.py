import numpy as np
import pytest

from codevec.cli import main
from codevec.corpus import load_dataset
from codevec.model import AttentionVariant, load_model

from conftest import toy_minij_corpus


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.mj"
    path.write_text("\n".join(toy_minij_corpus()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def dataset_file(corpus_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.c2v"
    assert main(["extract", str(corpus_file), "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def model_file(dataset_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "toy.bin"
    code = main(["train", "--train", str(dataset_file), "-o", str(path),
                 "--dim", "32", "--kmax", "50", "--epochs", "200",
                 "--patience", "200", "--dropout", "0.0", "--batch", "8",
                 "--seed", "5"])
    assert code == 0
    return path


class TestExtract:
    def test_writes_one_line_per_method(self, corpus_file, dataset_file):
        methods = sum(line.count("{") > 0
                      for line in corpus_file.read_text().splitlines())
        dataset = load_dataset(str(dataset_file))
        assert len(dataset) == 50
        assert all(" " in line for line in
                   dataset_file.read_text().splitlines())

    def test_labels_are_method_names(self, dataset_file):
        labels = {ex.label for ex in load_dataset(str(dataset_file))}
        assert "getCount" in labels and "reverseList" in labels

    def test_method_name_never_appears_as_context_value(self, dataset_file):
        # the name being predicted must be stripped before extraction
        for example in load_dataset(str(dataset_file)):
            for ctx in example.contexts:
                assert example.label != ctx.source_value
                assert example.label != ctx.target_value

    def test_missing_file_exits_with_data_error(self, tmp_path, capsys):
        out = tmp_path / "o.c2v"
        assert main(["extract", str(tmp_path / "nope.mj"), "-o", str(out)]) == 2
        assert "nope.mj" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.mj"
        bad.write_text("int f( {", encoding="utf-8")
        assert main(["extract", str(bad), "-o", str(tmp_path / "o.c2v")]) == 2
        assert "bad.mj" in capsys.readouterr().err

    def test_sexpr_input(self, tmp_path, capsys):
        src = tmp_path / "tree.sexpr"
        src.write_text(
            '(MethodDecl (Type "int") (Name "getX") '
            '(Block (Return (NameExpr "x"))))\n', encoding="utf-8")
        out = tmp_path / "o.c2v"
        assert main(["extract", str(src), "-o", str(out)]) == 0
        (example,) = load_dataset(str(out))
        assert example.label == "getX"
        assert example.contexts


class TestVocab:
    def test_bad_dataset(self, tmp_path):
        bad = tmp_path / "bad.c2v"
        bad.write_text("label only,two\n", encoding="utf-8")
        assert main(["train", "--train", str(bad), "-o", str(tmp_path / "m.bin")]) == 2


class TestTrainPredictEval:
    def test_train_logs_epochs(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "m.bin"
        code = main(["train", "--train", str(dataset_file), "-o", str(out),
                     "--dim", "8", "--kmax", "20", "--epochs", "2",
                     "--patience", "2", "--seed", "1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "epoch=1 loss=" in err and "val_f1=" in err
        assert out.exists()

    def test_checkpoints_saved_per_epoch(self, dataset_file, tmp_path):
        out = tmp_path / "m.bin"
        assert main(["train", "--train", str(dataset_file), "-o", str(out),
                     "--dim", "8", "--kmax", "20", "--epochs", "2",
                     "--patience", "2", "--seed", "1", "--checkpoints"]) == 0
        _, vocabs = load_model(str(out))
        for epoch in (1, 2):
            params, ckpt_vocabs = load_model(f"{out}.ckpt-{epoch}")
            assert params.dims.d == 8 and ckpt_vocabs == vocabs

    def test_training_deterministic_on_disk(self, dataset_file, tmp_path):
        paths = []
        for name in ("a.bin", "b.bin"):
            out = tmp_path / name
            main(["train", "--train", str(dataset_file), "-o", str(out),
                  "--dim", "8", "--kmax", "20", "--epochs", "3",
                  "--patience", "3", "--seed", "7"])
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_eval_overfit_corpus(self, model_file, dataset_file, capsys):
        assert main(["eval", "--model", str(model_file),
                     str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("P=")
        exact = float(out.split("exact=")[1].split()[0])
        assert exact >= 0.95

    def test_eval_per_example_tsv(self, model_file, dataset_file, tmp_path):
        report = tmp_path / "per.tsv"
        main(["eval", "--model", str(model_file), str(dataset_file),
              "--per-example", str(report)])
        rows = [line.split("\t") for line in
                report.read_text().splitlines()]
        assert len(rows) == 50
        assert all(len(row) == 5 for row in rows)

    def test_eval_ablation_flag_degrades(self, model_file, dataset_file, capsys):
        main(["eval", "--model", str(model_file), str(dataset_file)])
        full = float(capsys.readouterr().out.split("F1=")[1].split()[0])
        main(["eval", "--model", str(model_file), str(dataset_file),
              "--ablation", "no-values"])
        ablated = float(capsys.readouterr().out.split("F1=")[1].split()[0])
        assert ablated <= full

    def test_predict_output_format(self, model_file, corpus_file, capsys):
        assert main(["predict", "--model", str(model_file),
                     str(corpus_file), "--topk", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        headers = [line for line in out if line.startswith("# ")]
        assert len(headers) == 50
        body = [line for line in out if not line.startswith("#")]
        assert len(body) == 150
        tag, prob = body[0].split(" ")
        assert 0.0 <= float(prob) <= 1.0

    def test_predict_topk_probabilities_descend(self, model_file, corpus_file,
                                                capsys):
        main(["predict", "--model", str(model_file), str(corpus_file),
              "--topk", "5"])
        out = capsys.readouterr().out.splitlines()
        probs = []
        for line in out:
            if line.startswith("# "):
                if probs:
                    assert probs == sorted(probs, reverse=True)
                probs = []
            else:
                probs.append(float(line.split(" ")[1]))

    def test_attention_weights_sum_to_one(self, model_file, tmp_path, capsys):
        src = tmp_path / "one.mj"
        src.write_text("int getCount() { return count; }", encoding="utf-8")
        assert main(["predict", "--model", str(model_file), str(src),
                     "--topk", "1", "--attention"]) == 0
        out = capsys.readouterr().out.splitlines()
        weights = [float(line.split()[0]) for line in out
                   if line.startswith("  ")]
        assert weights == sorted(weights, reverse=True)
        assert sum(weights) == pytest.approx(1.0, abs=1e-3)
        assert all("," in line for line in out if line.startswith("  "))

    def test_predict_no_contexts_is_data_error(self, model_file, tmp_path,
                                               capsys):
        src = tmp_path / "tiny.sexpr"
        # one terminal left after the method name is stripped -> no pairs
        src.write_text('(MethodDecl (Type "int") (Name "f"))\n',
                       encoding="utf-8")
        assert main(["predict", "--model", str(model_file), str(src)]) == 2
        assert "no path-contexts" in capsys.readouterr().err

    def test_corrupt_model_is_data_error(self, tmp_path, dataset_file, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAMODEL")
        assert main(["eval", "--model", str(bad), str(dataset_file)]) == 2

    @pytest.mark.parametrize("variant", [v.value for v in AttentionVariant])
    def test_all_variants_train_and_reload(self, variant, dataset_file,
                                           tmp_path):
        out = tmp_path / f"{variant}.bin"
        code = main(["train", "--train", str(dataset_file), "-o", str(out),
                     "--dim", "8", "--kmax", "20", "--epochs", "1",
                     "--patience", "1", "--variant", variant, "--seed", "0"])
        assert code == 0
        params, _ = load_model(str(out))
        assert params.variant.value == variant


class TestVectorCommands:
    def test_nearest_format(self, model_file, capsys):
        assert main(["nearest", "--model", str(model_file), "getCount",
                     "--topk", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        ranks = [int(line.split(" ")[0]) for line in lines]
        assert ranks == [1, 2, 3]
        names = [line.split(" ")[1] for line in lines]
        assert "getCount" not in names
        scores = [float(line.split(" ")[2]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_combine(self, model_file, capsys):
        assert main(["combine", "--model", str(model_file),
                     "getCount", "countLines", "--topk", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(len(line.split(" ")) == 3 for line in lines)

    def test_analogy(self, model_file, capsys):
        assert main(["analogy", "--model", str(model_file),
                     "getCount", "setValue", "isEmpty", "--topk", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_unknown_name_is_data_error(self, model_file, capsys):
        assert main(["nearest", "--model", str(model_file), "nosuch"]) == 2
        assert "nosuch" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", "--bogus"])
        assert excinfo.value.code == 1

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "-o", "x.bin"])
        assert excinfo.value.code == 1

    def test_bad_variant_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--train", "x", "-o", "y", "--variant", "mystery"])
        assert excinfo.value.code == 1
