import contextlib
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codevec
from codevec.cli import main
from codevec.corpus import (ABLATIONS, RawExample, encode_example, example_rng,
                            format_vocabs, load_dataset, sample_contexts,
                            write_dataset)
from codevec.metrics import evaluate
from codevec.minij import MAX_NESTING, parse_methods
from codevec.model import (MAX_SLOTS, AttentionVariant, load_model, predict_topk,
                           save_model)
from codevec.paths import MAX_CONTEXTS, ExtractionLimits, path_to_string
from codevec.pipeline import method_to_example

from conftest import (NESTING_SHAPES, deep_method, long_minij_method, save_model_with,
                      toy_minij_corpus, write_sexpr_ast)

GOOD_TREE = '(MethodDecl (Type "int") (Name "getX") (Block (Return (NameExpr "x"))))'


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
        # the second tree nests 5000 deep: neither reading nor extraction
        # may recurse per level
        src = tmp_path / "tree.sexpr"
        src.write_text(
            '(MethodDecl (Type "int") (Name "getX") '
            '(Block (Return (NameExpr "x"))))\n'
            + write_sexpr_ast(deep_method(5000)) + "\n", encoding="utf-8")
        out = tmp_path / "o.c2v"
        assert main(["extract", str(src), "-o", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        examples = load_dataset(str(out))
        assert [ex.label for ex in examples] == ["getX", "deep"]
        assert all(ex.contexts for ex in examples)


    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_nesting_past_the_limit_is_data_error(self, shape, tmp_path, capsys):
        src = tmp_path / "deep.mj"
        src.write_text(NESTING_SHAPES[shape](10_000), encoding="utf-8")
        assert main(["extract", str(src), "-o", str(tmp_path / "o.c2v")]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^{re.escape(str(src))}: 1:\d+: nesting deeper than "
                         rf"{MAX_NESTING} levels$", err, re.M)
        assert "Traceback" not in err

    def test_bad_method_skipped_and_named(self, tmp_path, capsys):
        src = tmp_path / "two.sexpr"
        src.write_text(GOOD_TREE + '\n(Block (NameExpr "x"))\n', encoding="utf-8")
        out = tmp_path / "o.c2v"
        assert main(["extract", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{src}: expected a MethodDecl root, found 'Block'" in err
        assert [ex.label for ex in load_dataset(str(out))] == ["getX"]

    def test_non_utf8_file_skipped_and_named(self, tmp_path, capsys):
        files = [tmp_path / name for name in ("a.mj", "b.mj", "c.mj")]
        files[0].write_text("int getA() { return a; }", encoding="utf-8")
        files[1].write_bytes(b"int getB() { return \xff; }")
        files[2].write_text("int getC() { return c; }", encoding="utf-8")
        out = tmp_path / "o.c2v"
        assert main(["extract", *map(str, files), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{files[1]}: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err
        assert [ex.label for ex in load_dataset(str(out))] == ["getA", "getC"]

    @pytest.mark.parametrize("command", ["extract", "predict"])
    @pytest.mark.parametrize("kind,name,message", [
        ("Re,turn", "getX", "method 'getX': kind 'Re,turn' holds ',' or leaves an empty piece"),
        ("_Ret", "getX", "method 'getX': kind '_Ret' holds ','"),
        ("A_", "getX", "method 'getX': kind 'A_' holds ','"),
        ("Return", "get X", "label 'get X' holds a space, CR or LF"),
        ("Return", "get\nX", "label 'get\\nX' holds a space, CR or LF"),
        ("Return", "get\rX", "label 'get\\nX' holds a space, CR or LF")])
    def test_unreadable_kind_or_label_is_reported(self, command, kind, name, message,
                                                  tmp_path, capsys, request):
        # Each would write a line that `train` and `eval` reject or misread.
        good, bad = tmp_path / "good.sexpr", tmp_path / "bad.sexpr"
        good.write_text(GOOD_TREE + "\n", encoding="utf-8")
        bad.write_text(f'(MethodDecl (Type "int") (Name "{name}") '
                       f'(Block ({kind} (NameExpr "x"))))\n', encoding="utf-8")
        out = tmp_path / "o.c2v"
        argv = (["extract", str(good), str(bad), "-o", str(out)] if command == "extract"
                else ["predict", "--model", str(request.getfixturevalue("model_file")),
                      str(good), str(bad)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{bad}: {message}" in captured.err and "Traceback" not in captured.err
        if command == "extract":
            assert [ex.label for ex in load_dataset(str(out))] == ["getX"]
        else:
            assert captured.out.startswith("# getX\n") and captured.out.count("# ") == 1

    def test_bad_kind_skips_only_its_method(self, tmp_path, capsys):
        # The good trees before and after it in the same file are kept.
        src = tmp_path / "mixed.sexpr"
        bad = GOOD_TREE.replace("getX", "getY").replace("Return", "Re,turn")
        src.write_text("\n".join([GOOD_TREE, bad, GOOD_TREE.replace("getX", "getZ")]) + "\n",
                       encoding="utf-8")
        out = tmp_path / "o.c2v"
        assert main(["extract", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"{src}: ") == 1 and "Traceback" not in err
        assert f"{src}: method 'getY': kind 'Re,turn' holds ','" in err and "1 failures" in err
        assert [ex.label for ex in load_dataset(str(out))] == ["getX", "getZ"]

    def test_method_without_body_has_no_contexts(self, tmp_path, capsys):
        src = tmp_path / "tree.sexpr"
        src.write_text('(MethodDecl (Type "int") (Name "getX") '
                       '(Block (Return (NameExpr "x"))))\n'
                       '(MethodDecl (Name "g"))\n', encoding="utf-8")
        out = tmp_path / "o.c2v"
        assert main(["extract", str(src), "-o", str(out)]) == 0
        assert "1 without contexts" in capsys.readouterr().err
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and lines[1] == "g"

    # blake2b (16 bytes) of the dataset `codevec extract` writes for each
    # input, recorded when the walk still built an AstPath per path: a change
    # to how the walk works must leave every byte of its output as it was.
    EXTRACT_DIGESTS = {
        "toy.mj": "d7016d1c10ff2d33358d93d25f264255",
        "toy.sexpr": "d7016d1c10ff2d33358d93d25f264255",
        "odd.sexpr": "f26baf0ade00640ead1fe5c8332120e7",
        "long1.mj": "b7c56927546ebd719a4afd906e2ec3a0",
        "long2.mj": "03d751690ad543899b90d3a8716bd642",
        "long3.mj": "a5bcb82794153f7cc6fba6bfa8a14268",
    }

    def test_output_is_pinned_by_digest(self, tmp_path, capsys):
        toy = "\n".join(toy_minij_corpus()) + "\n"
        sexpr = "\n".join(map(write_sexpr_ast, parse_methods(toy))) + "\n"
        inputs = {"toy.mj": toy, "toy.sexpr": sexpr,
                  # Kinds that hold '_' and '^' give path strings that read
                  # back as other kinds; the text stays as the tree spells it.
                  "odd.sexpr": sexpr.replace("(Block", "(Block_stmt")
                                    .replace("(IfStmt", "(If^Stmt")}
        for seed in (1, 2, 3):
            inputs[f"long{seed}.mj"] = long_minij_method(np.random.default_rng(seed), 200) + "\n"
        digests = {}
        for name, text in inputs.items():
            src, out = tmp_path / name, tmp_path / f"{name}.c2v"
            src.write_text(text, encoding="utf-8")
            assert main(["extract", str(src), "-o", str(out)]) == 0
            digests[name] = hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest()
        assert "Traceback" not in capsys.readouterr().err
        assert digests == self.EXTRACT_DIGESTS


class TestVocab:
    def test_bad_dataset(self, tmp_path):
        bad = tmp_path / "bad.c2v"
        bad.write_text("label only,two\n", encoding="utf-8")
        assert main(["train", "--train", str(bad), "-o", str(tmp_path / "m.bin")]) == 2

    def test_entries_with_a_tab_or_line_separator_load(self, tmp_path, capsys):
        # A dataset line splits only on ' ' and ',', so a value, path kind
        # or label may hold a tab or U+2028, and its model must load.
        data = tmp_path / "odd.c2v"
        data.write_text("get\tX a\tb,A^B\u2028_C,c\u2028d\nsetY e,A^B\u2028_C,f\n",
                        encoding="utf-8")
        model = tmp_path / "m.bin"
        assert main(["train", "--train", str(data), "-o", str(model),
                     "--dim", "4", "--epochs", "1"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), str(data)]) == 0
        assert capsys.readouterr().out.startswith("P=")
        _, vocabs = load_model(str(model))
        assert {"a\tb", "c\u2028d"} <= set(vocabs.values.entries)
        assert "A^B\u2028_C" in vocabs.paths.entries
        assert "get\tX" in vocabs.tags.entries


class TestTrainPredictEval:
    def test_out_of_memory_is_one_line_and_exit_4(self, tmp_path):
        # A child process caps its own address space before it imports
        # codevec, so the 60 GiB tables of --dim 10**9 fail to allocate
        # instead of being overcommitted.
        resource = pytest.importorskip("resource")
        data = tmp_path / "three.c2v"
        data.write_text("getX x,NameExpr^Return,x\nsetY y,NameExpr^Assign,y\nnone\n",
                        encoding="utf-8")
        limit = 3 << 30
        script = (f"import resource, sys; "
                  f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
                  f"from codevec.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = ["train", "--train", str(data), "-o", str(tmp_path / "m.bin"),
                "--dim", str(10**9), "--epochs", "1"]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(codevec.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 4, done.stderr
        assert done.stdout == ""
        assert re.fullmatch(r"codevec: out of memory: [^\n]+\n", done.stderr), done.stderr
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("command", ["extract", "predict"])
    def test_method_past_the_context_budget_is_data_error(self, command, tmp_path, request):
        # 3000 x 3000 right pairs under the `+`: about 9M contexts, which the
        # walk stops short of. A child process reports the time main() took
        # and its own peak RSS, in KiB: its VmHWM, as Linux's ru_maxrss
        # survives exec and so holds the peak of the pytest process too.
        pytest.importorskip("resource")
        src = tmp_path / "wide.mj"
        src.write_text("int f() { return g(%s) + h(%s); }\n"
                       % (", ".join(f"x{i}" for i in range(3000)),
                          ", ".join(f"y{i}" for i in range(3000))), encoding="utf-8")
        script = textwrap.dedent("""
            import resource, sys, time
            from codevec.cli import main
            start = time.perf_counter()
            code = main(sys.argv[1:])
            seconds = time.perf_counter() - start
            try:
                with open("/proc/self/status") as status:
                    peak = next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
            except (OSError, StopIteration):
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                peak //= 1024 if sys.platform == "darwin" else 1
            print(seconds, peak, file=sys.stderr)
            sys.exit(code)
            """)
        argv = (["extract", str(src), "-o", str(tmp_path / "o.c2v")] if command == "extract"
                else ["predict", "--model", str(request.getfixturevalue("model_file")), str(src)])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(codevec.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert re.search(rf"^{re.escape(str(src))}: method 'f': (\d+) path-contexts, more than "
                         rf"the {MAX_CONTEXTS} allowed per method$", done.stderr, re.M)
        seconds, peak = done.stderr.splitlines()[-1].split()
        peak_mb = int(peak) / 1024
        assert float(seconds) < 1.0 and peak_mb < 100, done.stderr

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
            assert params.dims.d == 8
            assert format_vocabs(ckpt_vocabs) == format_vocabs(vocabs)

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

    def test_ablation_probe_degrades(self, model_file, dataset_file, capsys):
        # `eval` encodes as the model was trained; probing a trained model
        # with another encoding is a library call on a replaced ablation.
        params, vocabs = load_model(str(model_file))
        dataset = load_dataset(str(dataset_file))
        main(["eval", "--model", str(model_file), str(dataset_file)])
        full = float(capsys.readouterr().out.split("F1=")[1].split()[0])
        assert f"{evaluate(params, dataset, vocabs).f1:.4f}" == f"{full:.4f}"
        probe = replace(params, ablation=ABLATIONS["no-values"])
        assert evaluate(probe, dataset, vocabs).f1 <= full
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--model", str(model_file), str(dataset_file),
                  "--ablation", "no-values"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_eval_and_predict_encode_as_train_did(self, ablation, dataset_file,
                                                  corpus_file, tmp_path, capsys):
        # `eval --seed s` reproduces the F1 `train --seed s` logged for the
        # epoch it kept, and `predict` ranks the model's own encoding.
        model = tmp_path / "m.bin"
        assert main(["train", "--train", str(dataset_file), "-o", str(model),
                     "--ablation", ablation, "--dim", "16", "--kmax", "50",
                     "--epochs", "30", "--patience", "30", "--dropout", "0",
                     "--lr", "0.01", "--seed", "3"]) == 0
        logged = re.findall(r"val_f1=(\S+)", capsys.readouterr().err)
        assert main(["eval", "--model", str(model), str(dataset_file),
                     "--seed", "3"]) == 0
        printed = capsys.readouterr().out.split("F1=")[1].split()[0]
        assert printed == max(logged, key=float)

        params, vocabs = load_model(str(model))
        assert params.ablation == ABLATIONS[ablation]
        expected = []
        for ast in parse_methods(corpus_file.read_text(encoding="utf-8")):
            example = method_to_example(ast, ExtractionLimits(8, 2))
            rng = example_rng(0, 0)
            example = RawExample(example.label, sample_contexts(
                example.contexts, params.dims.k_max, rng))
            encoded = encode_example(example, vocabs, params.dims.k_max, rng,
                                     params.ablation)
            expected.append(f"# {example.label}")
            expected += [f"{tag} {prob:.6f}"
                         for tag, prob in predict_topk(params, encoded, 5, vocabs)]
        assert main(["predict", "--model", str(model), str(corpus_file)]) == 0
        assert capsys.readouterr().out.splitlines() == expected

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

    def test_predict_topk_above_tag_count_lists_every_tag_but_pad(
            self, model_file, tmp_path, capsys):
        _, vocabs = load_model(str(model_file))
        src = tmp_path / "one.mj"
        src.write_text("int getCount() { return count; }", encoding="utf-8")
        assert main(["predict", "--model", str(model_file), str(src),
                     "--topk", str(len(vocabs.tags) + 5)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# getCount"
        listed = [line.split(" ")[0] for line in out[1:]]
        assert sorted(listed) == sorted(vocabs.tags.entries[1:])  # all but PAD (id 0)

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

    def test_attention_lists_the_contexts_in_the_slots(self, dataset_file,
                                                      tmp_path, capsys):
        # A method with more contexts than k_max fills its slots with a
        # sample drawn from example_rng(seed, 0); --attention prints
        # exactly the sampled contexts, one line per slot.
        model = tmp_path / "k4.bin"
        assert main(["train", "--train", str(dataset_file), "-o", str(model),
                     "--dim", "8", "--kmax", "4", "--epochs", "1",
                     "--patience", "1"]) == 0
        source = "int getCount(int a, int b) { int total = a + b; return total; }"
        src = tmp_path / "long.mj"
        src.write_text(source, encoding="utf-8")
        contexts = method_to_example(parse_methods(source)[0],
                                     ExtractionLimits(8, 2)).contexts
        keep = sorted(example_rng(0, 0).choice(len(contexts), size=4, replace=False))
        expected = sorted(f"{c.source_value},{path_to_string(c.path)},{c.target_value}"
                          for c in (contexts[i] for i in keep))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), str(src), "--topk", "1",
                     "--attention"]) == 0
        printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  ")]
        assert len(contexts) > 4 and sorted(printed) == expected

    def test_predict_skips_non_utf8_file(self, model_file, corpus_file, tmp_path,
                                         capsys):
        bad = tmp_path / "bad.mj"
        bad.write_bytes(b"int f() { return \xff; }")
        assert main(["predict", "--model", str(model_file), str(bad),
                     str(corpus_file), "--topk", "1"]) == 2
        captured = capsys.readouterr()
        assert f"{bad}: 'utf-8' codec can't decode" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out.count("# ") == 50

    def test_predict_no_contexts_is_data_error(self, model_file, tmp_path,
                                               capsys):
        src = tmp_path / "tiny.sexpr"
        # one terminal left after the method name is stripped -> no pairs
        src.write_text('(MethodDecl (Type "int") (Name "f"))\n',
                       encoding="utf-8")
        assert main(["predict", "--model", str(model_file), str(src)]) == 2
        assert "no path-contexts" in capsys.readouterr().err

    def test_predict_skips_bad_method(self, model_file, tmp_path, capsys):
        src = tmp_path / "three.sexpr"
        src.write_text(f'{GOOD_TREE}\n(Block (NameExpr "x"))\n{GOOD_TREE}\n',
                       encoding="utf-8")
        assert main(["predict", "--model", str(model_file), str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out.count("# getX\n") == 2
        assert f"{src}: expected a MethodDecl root" in captured.err

    def test_corrupt_model_is_data_error(self, tmp_path, dataset_file, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAMODEL")
        assert main(["eval", "--model", str(bad), str(dataset_file)]) == 2

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("fault,message", [
        ("C2V1 magic", "bad magic"), ("ablation bits 8", "unknown ablation bits 8")])
    def test_bad_model_header_is_data_error(self, command, fault, message, model_file,
                                            corpus_file, dataset_file, tmp_path, capsys):
        data = bytearray(model_file.read_bytes())
        if fault == "C2V1 magic":
            data[:4] = b"C2V1"
        else:
            struct.pack_into("<I", data, 28, 8)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        source = corpus_file if command == "predict" else dataset_file
        assert main([command, "--model", str(bad), str(source)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_empty_validation_set_is_data_error(self, dataset_file, tmp_path,
                                                capsys):
        empty = tmp_path / "empty.c2v"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "m.bin"
        assert main(["train", "--train", str(dataset_file), "--val", str(empty),
                     "-o", str(out), "--dim", "8", "--kmax", "20",
                     "--epochs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"codevec: {empty}: no examples")
        assert "epoch=" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,fault", [
        ("train", "empty"), ("eval", "empty"),
        ("eval", "malformed"), ("train --val", "malformed")])
    def test_dataset_fault_names_its_file(self, command, fault, dataset_file,
                                          model_file, tmp_path, capsys):
        bad = tmp_path / f"{fault}.c2v"
        bad.write_text("\n\n" if fault == "empty" else "getX x,NameExpr^Return\n",
                       encoding="utf-8")
        out = tmp_path / "m.bin"
        argv = {"train": ["train", "--train", str(bad)],
                "train --val": ["train", "--train", str(dataset_file), "--val", str(bad)],
                "eval": ["eval", "--model", str(model_file), str(bad)]}[command]
        if command != "eval":
            argv += ["-o", str(out), "--dim", "8", "--kmax", "20", "--epochs", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        message = "no examples" if fault == "empty" else "line 1: malformed context"
        assert captured.err.startswith(f"codevec: {bad}: {message}")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_malformed_path_names_its_line(self, model_file, tmp_path, capsys):
        bad = tmp_path / "bad.c2v"
        bad.write_text("getX x,NameExpr^Return,y\ngetY y,Return,z\n", encoding="utf-8")
        assert main(["eval", "--model", str(model_file), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"codevec: {bad}: line 2: malformed path string 'Return'\n"
        assert captured.out == ""

    def test_non_finite_model_is_data_error(self, model_file, corpus_file,
                                            tmp_path, capsys):
        params, vocabs = load_model(str(model_file))
        bad = tmp_path / "inf.bin"
        save_model_with(bad, params, vocabs, "W", (0, 0), np.inf)
        assert main(["predict", "--model", str(bad), str(corpus_file)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err

    def test_non_finite_loss_is_numeric_failure(self, dataset_file, tmp_path,
                                                capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--train", str(dataset_file), "-o", str(out),
                     "--dim", "8", "--kmax", "20", "--lr", "1e300"]) == 3
        err = capsys.readouterr().err
        assert "non-finite loss at epoch" in err and "Traceback" not in err
        assert not out.exists()

    def test_model_past_single_precision_is_numeric_failure(self, dataset_file,
                                                            tmp_path, capsys):
        # The one step's loss is finite; the parameters it leaves are not,
        # once written in single precision.
        out = tmp_path / "m.bin"
        assert main(["train", "--train", str(dataset_file), "-o", str(out),
                     "--dim", "8", "--kmax", "20", "--lr", "1e300",
                     "--epochs", "1", "--batch", "64"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: " in err and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_past_single_precision_is_not_written(self, dataset_file,
                                                             tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--train", str(dataset_file), "-o", str(out),
                     "--dim", "8", "--kmax", "20", "--lr", "1e300",
                     "--epochs", "1", "--batch", "64", "--checkpoints"]) == 3
        err = capsys.readouterr().err
        assert "not finite in single precision" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_scores_are_numeric_failure(self, command, model_file,
                                                   corpus_file, dataset_file,
                                                   tmp_path, capsys):
        # Finite float32 weights whose products overflow: q is all NaN.
        # Warnings are errors under pytest, so a warning would fail the call.
        params, vocabs = load_model(str(model_file))
        params.W[:] = 3e38
        params.tags_vocab[:] = 3e38
        huge = tmp_path / "huge.bin"
        save_model(str(huge), params, vocabs)
        data = corpus_file if command == "predict" else dataset_file
        assert main([command, "--model", str(huge), str(data)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("codevec: numeric failure: non-finite scores")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("argv", [
        [*args, flag, value]
        for args, flags in [
            (["train", "--train", "t.c2v", "-o", "OUT"],
             ["--dim", "--kmax", "--batch", "--epochs", "--patience",
              "--max-values", "--max-paths", "--max-tags"]),
            (["extract", "corpus.mj", "-o", "OUT"], ["--max-length"]),
            (["predict", "--model", "m.bin", "corpus.mj"], ["--topk", "--max-length"]),
            (["nearest", "--model", "m.bin", "a"], ["--topk"]),
            (["combine", "--model", "m.bin", "a", "b"], ["--topk"]),
            (["analogy", "--model", "m.bin", "a", "b", "c"], ["--topk"]),
        ]
        for flag in flags for value in ("0", "-1")
    ] + [
        ["extract", "corpus.mj", "-o", "OUT", "--max-width", "-1"],
        ["predict", "--model", "m.bin", "corpus.mj", "--max-width", "-1"],
        ["train", "--train", "t.c2v", "-o", "OUT", "--kmax", str(MAX_SLOTS + 1)],
        ["train", "--train", "t.c2v", "-o", "OUT", "--seed", "-1"],
        ["eval", "--model", "m.bin", "t.c2v", "--seed", "-1"],
        ["predict", "--model", "m.bin", "corpus.mj", "--seed", "-1"],
    ] + [
        ["train", "--train", "t.c2v", "-o", "OUT", flag, value]
        for flag, values in [("--dropout", ["1.0", "-0.5", "nan"]),
                             ("--lr", ["0", "-1", "nan", "inf"])]
        for value in values
    ], ids=" ".join)
    def test_bad_count_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([str(out) if arg == "OUT" else arg for arg in argv])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        requirement = {"--dropout": "must be in [0, 1), got ",
                       "--lr": "must be finite and > 0, got "}.get(argv[-2], "must be >= ")
        assert requirement in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


# Inputs for the MiniJ reader: one construct nested shallowly, or from just
# below the parser's nesting limit to twice it, around a valid core or a
# token soup of keywords, brackets, operators, names and literals. The last
# construct is the bare soup.
_NESTS = [  # (head, opener, core, closer, tail)
    ("int f() { return ", "(", "x", ")", "; }"),
    ("int f() { return ", "g(", "x", ")", "; }"),
    ("int f() { return ", "a[", "0", "]", "; }"),
    ("int f() { return ", "!", "x", "", "; }"),
    ("int f() { ", "if (x) { ", "x;", " }", " }"),
    ("int f() { ", "while (x) ", "x;", "", " }"),
    ("", "", "", "", ""),
]
_SOUP = ["if", "else", "while", "for", "return", "true", "false", "int", "void",
         "x", "f", "(", ")", "{", "}", "[", "]", ";", ",", ":", ".", "=", "+",
         "-", "!", "==", "&&", "0", '"s"']


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(nest=st.sampled_from(_NESTS),
       depth=st.integers(0, 8) | st.integers(MAX_NESTING - 2, 2 * MAX_NESTING),
       soup=st.none() | st.lists(st.sampled_from(_SOUP), max_size=30))
@settings(max_examples=150, deadline=None)
def test_extract_fuzz_exits_cleanly(fuzz_dir, nest, depth, soup):
    head, opener, core, closer, tail = nest
    if soup is not None:
        core = " ".join(soup)
    src = fuzz_dir / "soup.mj"
    src.write_text(head + opener * depth + core + closer * depth + tail,
                   encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["extract", str(src), "-o", str(fuzz_dir / "soup.c2v")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


# Letters plus every character the dataset line format splits on.
_LINE_BREAKING = st.text(alphabet="ab,^_ \r\n", max_size=5)


@given(name=_LINE_BREAKING, kinds=st.lists(_LINE_BREAKING, min_size=3, max_size=3),
       value=_LINE_BREAKING)
@example(name="get X", kinds=["Block", "Return", "NameExpr"], value="x")
@example(name="get\nX", kinds=["Block", "Return", "NameExpr"], value="x")
@example(name="getX", kinds=["Block", "Re,turn", "NameExpr"], value="x")
@example(name="getX", kinds=["Block", "_Ret", "NameExpr"], value="x")
@example(name="getX", kinds=["a_b", "a^b", "NameExpr"], value="x")
@settings(max_examples=100, deadline=None)
def test_extracted_dataset_reads_back(fuzz_dir, name, kinds, value):
    # Either extract reports the method and exits 2, or what it wrote
    # reads back into examples that write the same bytes.
    src, out = fuzz_dir / "names.sexpr", fuzz_dir / "names.c2v"
    block, left, right = kinds
    src.write_text(f'(MethodDecl (Name "{name}") ({block} ({left} "{value}") '
                   f'({right} "y")))\n', encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["extract", str(src), "-o", str(out)])
    if code == 2:
        assert err.getvalue().startswith(f"{src}: ")
        return
    assert code == 0
    written = out.read_bytes().decode("utf-8")
    copy = io.StringIO()
    write_dataset(load_dataset(str(out)), copy)
    assert copy.getvalue() == written
