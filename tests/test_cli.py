import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgefit import cli, container, dataset, model, quantize


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> prepare -> train -> quantize, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    prep = root / "prep"
    assert cli.main(["synth", "--out", str(data), "--subjects", "3",
                     "--sessions", "2", "--class-seconds", "4",
                     "--seed", "4"]) == 0
    assert cli.main(["prepare", "--dataset", str(data), "--out", str(prep),
                     "--fold", "1"]) == 0
    windows = prep / "windows_fold1.efw"
    model_path = root / "fold1.efm"
    assert cli.main(["train", "--windows", str(windows), "--fold", "1",
                     "--out", str(model_path), "--width", "8",
                     "--epochs", "6", "--patience", "6", "--seed", "3"]) == 0
    q_path = root / "fold1.efq"
    assert cli.main(["quantize", "--model", str(model_path),
                     "--windows", str(windows), "--fold", "1",
                     "--calib-size", "64", "--out", str(q_path)]) == 0
    return {"root": root, "data": data, "prep": prep,
            "windows": windows, "model": model_path, "qmodel": q_path}


def cut_tensors(src, dst, magic, names):
    """Copy the container src to dst with the named tensors one element
    short; the copy's checksum is valid."""
    contents = container.read(src, magic)
    for name in names:
        contents.tensors[name] = contents.tensors[name][:-1]
    container.write(dst, magic, contents.meta, contents.tensors)


def assert_one_error_line(err, error_type):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert error_type in lines[0]


class TestPrepare:
    def test_manifest_and_container(self, pipeline):
        manifest = json.loads((pipeline["prep"] / "manifest.json").read_text())
        assert manifest["window_size"] == 40
        (fold,) = manifest["folds"]
        assert fold["held_out_subject"] == 1
        assert fold["train_windows"] > 0 and fold["test_windows"] > 0
        assert (pipeline["prep"] / fold["windows_file"]).exists()

    def test_idempotent_bytes(self, pipeline, tmp_path):
        out2 = tmp_path / "prep2"
        assert cli.main(["prepare", "--dataset", str(pipeline["data"]),
                         "--out", str(out2), "--fold", "1"]) == 0
        a = (pipeline["prep"] / "windows_fold1.efw").read_bytes()
        b = (out2 / "windows_fold1.efw").read_bytes()
        assert a == b

    def test_missing_dataset(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "prepare", "--dataset",
                               str(tmp_path / "nope"), "--out",
                               str(tmp_path / "o"))
        assert code == cli.EXIT_DATA
        assert "EmptyDataset" in err

    def test_bad_stride_is_checked_before_reading(self, capsys, tmp_path):
        out = tmp_path / "o"
        code, _, err = run_cli(capsys, "prepare", "--dataset",
                               str(tmp_path / "missing"), "--out", str(out),
                               "--stride", "0")
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "--stride" in err and not out.exists()

    def test_absent_fold_is_usage_error(self, capsys, synth_dataset_dir,
                                        tmp_path):
        out = tmp_path / "o"
        code, _, err = run_cli(capsys, "prepare", "--dataset",
                               str(synth_dataset_dir), "--out", str(out),
                               "--fold", "99")
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert not out.exists()

    def test_short_row_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,"
                        "hbc,label,subject,session\n"
                        "0.0,1,2,3,4,5,6,7,0,1,1\n0.05,1,2,3,4,5,6,7\n")
        code, _, err = run_cli(capsys, "prepare", "--dataset", str(data),
                               "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, "MalformedRow")
        assert f"{data}:3:" in err

    def test_missing_session_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,"
                        "hbc,label,subject,session\n0.0,1,2,3,4,5,6,7,0,1\n")
        code, _, err = run_cli(capsys, "prepare", "--dataset", str(data),
                               "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, "MalformedRow")
        assert f"{data}:2: session field missing" in err

    @pytest.mark.parametrize("field, error, named", [
        (b"\xff", "CorruptFile", ": not utf-8 text"),
        (b"1" * 131_073, "MalformedRow", ":3: field larger than field limit"),
        # acc_z ends line 3's record, whose note, a column no record is
        # converted from, exceeds csv's limit on line 3 or, quoted, across
        # lines 3 and 4; the next line holds a valid record
        pytest.param(b"3,4,5,6,7,0,1,1," + b"n" * 131_073 + b"\n0.10,1,2,3",
                     "MalformedRow", ":3: field larger than field limit",
                     id="oversized-note"),
        pytest.param(b'3,4,5,6,7,0,1,1,"' + b"n" * 70_000 + b"\n"
                     + b"n" * 70_000 + b'"\n0.10,1,2,3',
                     "MalformedRow", ":4: field larger than field limit",
                     id="oversized-note-on-two-lines"),
    ])
    def test_undecodable_or_oversized_field_is_data_error(
            self, capsys, tmp_path, field, error, named):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,"
                         b"hbc,label,subject,session,note\n"
                         b"0.0,1,2,3,4,5,6,7,0,1,1\n0.05,1,2,"
                         + field + b",4,5,6,7,0,1,1\n")
        out = tmp_path / "o"
        code, _, err = run_cli(capsys, "prepare", "--dataset", str(data),
                               "--out", str(out))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, error)
        assert f"{data}{named}" in err
        assert not out.exists()

    def test_directory_named_csv_is_data_error(self, capsys, pipeline,
                                               tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        first = sorted(pipeline["data"].glob("*.csv"))[0]
        (data / first.name).write_bytes(first.read_bytes())
        (data / "zz.csv").mkdir()
        out = tmp_path / "o"
        code, stdout, err = run_cli(capsys, "prepare", "--dataset", str(data),
                                    "--out", str(out))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert f"{data / 'zz.csv'}: cannot read" in err
        assert not out.exists()

    def test_byte_order_mark_prepares_same_windows(self, pipeline, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for f in pipeline["data"].glob("*.csv"):
            (data / f.name).write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        out = tmp_path / "prep"
        assert cli.main(["prepare", "--dataset", str(data), "--out", str(out),
                         "--fold", "1"]) == 0
        assert ((out / "windows_fold1.efw").read_bytes()
                == (pipeline["prep"] / "windows_fold1.efw").read_bytes())

    @pytest.mark.parametrize("flag, value", [("--stride", "0"),
                                             ("--fold", "x")])
    def test_bad_argument_is_usage_error(self, capsys, pipeline, tmp_path,
                                         flag, value):
        out = tmp_path / "o"
        code, _, err = run_cli(capsys, "prepare", "--dataset",
                               str(pipeline["data"]), "--out", str(out),
                               flag, value)
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert not out.exists()


class TestTrain:
    def test_deterministic_model_files(self, pipeline, tmp_path):
        out1 = tmp_path / "a.efm"
        out2 = tmp_path / "b.efm"
        common = ["train", "--windows", str(pipeline["windows"]), "--fold", "1",
                  "--width", "8", "--epochs", "2", "--patience", "2",
                  "--seed", "7"]
        assert cli.main(common + ["--out", str(out1)]) == 0
        assert cli.main(common + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        *(pytest.param(flag, "0", id=flag)
          for flag in ("--epochs", "--width", "--batch-size")),
        # beyond cli.MAX_WIDTH: model.build would ask for 224 GiB
        ("--width", "100000")])
    def test_bad_option_is_checked_before_reading(self, capsys, tmp_path,
                                                  flag, value):
        code, _, err = run_cli(capsys, "train", "--windows",
                               str(tmp_path / "missing.efw"), "--fold", "1",
                               "--out", str(tmp_path / "m.efm"), flag, value)
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert not any(tmp_path.iterdir())

    def test_history_file_written(self, pipeline):
        history = pipeline["model"].with_suffix(".history.csv")
        assert history.exists()
        assert history.read_text().startswith("epoch,train_loss")

    def test_negative_patience_is_usage_error(self, capsys, pipeline,
                                              tmp_path):
        out = tmp_path / "m.efm"
        code, _, err = run_cli(capsys, "train", "--windows",
                               str(pipeline["windows"]), "--fold", "1",
                               "--out", str(out), "--epochs", "2",
                               "--patience", "-5")
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "patience -5" in err
        assert not any(tmp_path.iterdir())

    def test_default_patience_fits_few_epochs(self, capsys, pipeline,
                                              tmp_path):
        """Without --patience, fewer than 100 epochs still train: the
        default is min(100, --epochs), the model file that --patience 4
        writes for --epochs 4."""
        out, explicit = tmp_path / "m.efm", tmp_path / "p.efm"
        common = ["train", "--windows", str(pipeline["windows"]), "--fold",
                  "1", "--width", "8", "--epochs", "4"]
        code, _, err = run_cli(capsys, *common, "--out", str(out))
        assert code == cli.EXIT_OK, err
        assert model.load(out).config.width == 8
        code, _, err = run_cli(capsys, *common, "--out", str(explicit),
                               "--patience", "4")
        assert code == cli.EXIT_OK, err
        assert out.read_bytes() == explicit.read_bytes()

    def test_patience_above_epochs_is_usage_error(self, capsys, pipeline,
                                                  tmp_path):
        out = tmp_path / "m.efm"
        code, _, err = run_cli(capsys, "train", "--windows",
                               str(pipeline["windows"]), "--fold", "1",
                               "--out", str(out), "--epochs", "2",
                               "--patience", "5")
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "patience 5" in err
        assert not any(tmp_path.iterdir())

    def test_history_on_model_file_is_usage_error(self, capsys, pipeline,
                                                  tmp_path, monkeypatch):
        """--history naming the --out file, spelled another way, is refused
        before anything is loaded or written."""
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, "train", "--windows",
                                    str(pipeline["windows"]), "--fold", "1",
                                    "--out", "m.efm", "--width", "4",
                                    "--epochs", "1",
                                    "--history", str(tmp_path / "m.efm"))
        assert code == cli.EXIT_USAGE and not stdout
        assert_one_error_line(err, "InvalidConfig")
        assert "--history" in err
        assert not any(tmp_path.iterdir())

    def test_unknown_fold(self, capsys, pipeline):
        code, _, err = run_cli(capsys, "train", "--windows",
                               str(pipeline["windows"]), "--fold", "9",
                               "--out", "/tmp/x.efm", "--epochs", "1")
        assert code == cli.EXIT_USAGE
        assert "InvalidConfig" in err


class TestQuantize:
    def test_deterministic(self, pipeline, tmp_path):
        """Repeated, the command writes the same bytes, and they are those
        of the library's quantize stage on the fold's training windows."""
        out2 = tmp_path / "q2.efq"
        assert cli.main(["quantize", "--model", str(pipeline["model"]),
                         "--windows", str(pipeline["windows"]), "--fold", "1",
                         "--calib-size", "64", "--out", str(out2)]) == 0
        assert pipeline["qmodel"].read_bytes() == out2.read_bytes()
        pool = dataset.fold_split(dataset.load_windows(pipeline["windows"]),
                                  1).train
        qm, _ = quantize.post_training_quantize(model.load(pipeline["model"]),
                                                pool, 64, 0)
        quantize.save(qm, tmp_path / "lib.efq")
        assert (tmp_path / "lib.efq").read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_bad_calibration_size_is_usage_error(self, capsys, pipeline,
                                                 tmp_path, size):
        code, _, err = run_cli(capsys, "quantize", "--model",
                               str(pipeline["model"]), "--windows",
                               str(pipeline["windows"]), "--calib-size", size,
                               "--out", str(tmp_path / "q.efq"))
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "--calib-size" in err
        assert not any(tmp_path.iterdir())

    def test_absent_fold_is_usage_error(self, capsys, pipeline, tmp_path):
        code, stdout, err = run_cli(capsys, "quantize", "--model",
                                    str(pipeline["model"]), "--windows",
                                    str(pipeline["windows"]), "--fold", "99",
                                    "--out", str(tmp_path / "q.efq"))
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "no subject 99" in err and not stdout
        assert not any(tmp_path.iterdir())

    def test_short_bn_tensor_is_data_error(self, capsys, pipeline, tmp_path):
        bad = tmp_path / "bad.efm"
        cut_tensors(pipeline["model"], bad, model.MODEL_MAGIC, ["stem.gamma"])
        code, _, err = run_cli(capsys, "quantize", "--model", str(bad),
                               "--windows", str(pipeline["windows"]),
                               "--out", str(tmp_path / "q.efq"))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, "CorruptFile")


    @pytest.mark.parametrize("name, value, config, message", [
        # finite, so the model loads, but its float32 forward overflows
        ("b0.c0.w", 1e38, {}, "float32"),
        # fold_batchnorm would divide by sqrt(0 + 0)
        ("stem.var", 0.0, {"bn_eps": 0.0}, "tensor stem.var"),
        # loads, but the fold's 3e38 / sqrt(0 + 1e-3) overflows float32
        (("stem.gamma", "stem.var"), (3e38, 0.0), {"bn_eps": 1e-3},
         "float32")])
    def test_model_that_eval_rejects_is_data_error(
            self, capsys, pipeline, tmp_path, name, value, config, message):
        contents = container.read(pipeline["model"], model.MODEL_MAGIC)
        for tensor, v in zip(np.atleast_1d(name), np.atleast_1d(value)):
            contents.tensors[tensor].flat[0] = v
        contents.meta["config"].update(config)
        bad = tmp_path / "bad.efm"
        container.write(bad, model.MODEL_MAGIC, contents.meta,
                        contents.tensors)
        code, stdout, err = run_cli(capsys, "quantize", "--model", str(bad),
                                    "--windows", str(pipeline["windows"]),
                                    "--out", str(tmp_path / "q.efq"))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert str(bad) in err and message in err
        assert not (tmp_path / "q.efq").exists()


class TestEval:
    def test_float_model(self, capsys, pipeline):
        code, out, _ = run_cli(capsys, "eval", "--model",
                               str(pipeline["model"]), "--windows",
                               str(pipeline["windows"]), "--fold", "1")
        assert code == 0
        assert "balanced_accuracy=" in out
        assert "confusion matrix" in out

    def test_quant_model_kv(self, capsys, pipeline):
        code, out, _ = run_cli(capsys, "eval", "--model",
                               str(pipeline["qmodel"]), "--windows",
                               str(pipeline["windows"]), "--fold", "1",
                               "--format", "kv")
        assert code == 0
        assert out.startswith("balanced_accuracy=")

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_absent_fold_is_usage_error(self, capsys, pipeline, kind):
        code, stdout, err = run_cli(capsys, "eval", "--model",
                                    str(pipeline[kind]), "--windows",
                                    str(pipeline["windows"]), "--fold", "99")
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "no subject 99" in err and not stdout

    def test_missing_model_file(self, capsys, pipeline):
        code, _, err = run_cli(capsys, "eval", "--model", "/tmp/ghost.efm",
                               "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_DATA
        assert "CorruptFile" in err

    def test_out_of_range_label_is_data_error(self, capsys, pipeline, tmp_path):
        windows = dataset.load_windows(pipeline["windows"])
        windows[0].label = 200
        bad = tmp_path / "bad.efw"
        dataset.save_windows(bad, windows)
        code, _, err = run_cli(capsys, "eval", "--model",
                               str(pipeline["qmodel"]), "--windows", str(bad))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, "CorruptFile")
        assert "window 0 out of range" in err

    def test_fewer_classes_than_labels_is_numeric_error(self, capsys,
                                                        pipeline, tmp_path):
        """A 5-class model, float and int8, against windows that hold label
        11: eval exits 3 with one error line that names the class count
        and the largest label, as an in-channels mismatch does."""
        windows = str(pipeline["windows"])
        top = max(w.label for w in dataset.load_windows(windows))
        assert top == 11
        float_path, int8_path = tmp_path / "m.efm", tmp_path / "m.efq"
        model.save(model.build(model.ModelConfig(width=4, classes=5), seed=0),
                   float_path)
        code, _, err = run_cli(capsys, "quantize", "--model", str(float_path),
                               "--windows", windows, "--calib-size", "16",
                               "--out", str(int8_path))
        assert code == cli.EXIT_OK, err
        for path in (float_path, int8_path):
            code, stdout, err = run_cli(capsys, "eval", "--model", str(path),
                                        "--windows", windows)
            assert code == cli.EXIT_NUMERIC and not stdout, path
            assert_one_error_line(err, "ShapeMismatch")
            assert "5 classes" in err and "label 11" in err

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_non_finite_window_is_data_error(self, capsys, pipeline, tmp_path,
                                             kind):
        windows = dataset.load_windows(pipeline["windows"])
        windows[2].data[0, 0] = float("nan")
        bad = tmp_path / "bad.efw"
        dataset.save_windows(bad, windows)
        code, stdout, err = run_cli(capsys, "eval", "--model",
                                    str(pipeline[kind]), "--windows", str(bad))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert "window 2 holds NaN or Inf" in err

    def test_huge_window_weight_is_data_error(self, capsys, pipeline,
                                              tmp_path):
        # finite, but the weighted loss of the float eval overflows
        windows = dataset.load_windows(pipeline["windows"])
        windows[3].weight = 1e38
        bad = tmp_path / "bad.efw"
        dataset.save_windows(bad, windows)
        code, stdout, err = run_cli(capsys, "eval", "--model",
                                    str(pipeline["model"]), "--windows",
                                    str(bad))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert str(bad) in err

    def test_overflowing_head_scale_is_numeric_error(self, capsys, pipeline,
                                                     tmp_path):
        # finite and positive, but the float32 logits overflow
        contents = container.read(pipeline["qmodel"], quantize.QUANT_MAGIC)
        contents.tensors["head.w_scale"][0] = 1e38
        bad = tmp_path / "bad.efq"
        container.write(bad, quantize.QUANT_MAGIC, contents.meta,
                        contents.tensors)
        code, stdout, err = run_cli(capsys, "eval", "--model", str(bad),
                                    "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_NUMERIC and not stdout
        assert_one_error_line(err, "RequantRangeError")
        assert "head" in err

    def test_non_finite_weight_is_data_error(self, capsys, pipeline, tmp_path):
        contents = container.read(pipeline["model"], model.MODEL_MAGIC)
        contents.tensors["b0.c0.w"].flat[0] = float("nan")
        bad = tmp_path / "bad.efm"
        container.write(bad, model.MODEL_MAGIC, contents.meta,
                        contents.tensors)
        code, stdout, err = run_cli(capsys, "eval", "--model", str(bad),
                                    "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert "tensor b0.c0.w is not finite" in err

    def test_overflowing_weight_is_data_error(self, capsys, pipeline,
                                              tmp_path):
        # finite, so the model loads, but its float32 forward overflows
        contents = container.read(pipeline["model"], model.MODEL_MAGIC)
        contents.tensors["b0.c0.w"].flat[0] = 1e38
        bad = tmp_path / "bad.efm"
        container.write(bad, model.MODEL_MAGIC, contents.meta,
                        contents.tensors)
        code, stdout, err = run_cli(capsys, "eval", "--model", str(bad),
                                    "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert str(bad) in err

    def test_short_multipliers_are_data_error(self, capsys, pipeline,
                                              tmp_path):
        bad = tmp_path / "bad.efq"
        cut_tensors(pipeline["qmodel"], bad, quantize.QUANT_MAGIC,
                    ["stem.w_scale"])
        code, _, err = run_cli(capsys, "eval", "--model", str(bad),
                               "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, "CorruptFile")

    def test_forged_accumulator_is_numeric_error(self, capsys, pipeline,
                                                 tmp_path):
        # a checksummed EFQ3 whose one bias breaks the int32 accumulator
        # bound while every scale and zero point stays valid
        contents = container.read(pipeline["qmodel"], quantize.QUANT_MAGIC)
        bias = contents.tensors["b0.c0.bias_q"].copy()
        bias[0] = 2 ** 31 - 1
        contents.tensors["b0.c0.bias_q"] = bias
        bad = tmp_path / "bad.efq"
        container.write(bad, quantize.QUANT_MAGIC, contents.meta,
                        contents.tensors)
        code, _, err = run_cli(capsys, "eval", "--model", str(bad),
                               "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_NUMERIC
        assert_one_error_line(err, "AccumulatorOverflow")
        assert "b0.c0" in err

    def test_version_1_model_is_data_error(self, capsys, pipeline, tmp_path):
        # EFQ2 files stored every multiplier and three copies of some specs
        for magic in (b"EFQ1", b"EFQ2"):
            old = tmp_path / "old.efq"
            old.write_bytes(magic + pipeline["qmodel"].read_bytes()[4:])
            code, _, err = run_cli(capsys, "eval", "--model", str(old),
                                   "--windows", str(pipeline["windows"]))
            assert code == cli.EXIT_DATA
            assert_one_error_line(err, "VersionMismatch")
            assert f"magic {magic!r}, expected b'EFQ3'" in err

    def test_efm2_model_is_data_error(self, capsys, pipeline, tmp_path):
        # EFM2 files held an all-zero bias per conv
        old = tmp_path / "old.efm"
        old.write_bytes(b"EFM2" + pipeline["model"].read_bytes()[4:])
        code, stdout, err = run_cli(capsys, "eval", "--model", str(old),
                                    "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "VersionMismatch")
        assert "magic b'EFM2', expected b'EFM3'" in err

    def test_folded_model_with_bn_statistics_is_data_error(
            self, capsys, pipeline, tmp_path):
        """A folded file whose gamma is not 1: eval would skip it and
        quantize's fold apply it, so neither runs."""
        folded = tmp_path / "folded.efm"
        model.save(model.fold_batchnorm(model.load(pipeline["model"])),
                   folded)
        contents = container.read(folded, model.MODEL_MAGIC)
        contents.tensors["b0.c0.gamma"][1] = 2.0
        container.write(folded, model.MODEL_MAGIC, contents.meta,
                        contents.tensors)
        code, stdout, err = run_cli(capsys, "eval", "--model", str(folded),
                                    "--windows", str(pipeline["windows"]))
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert "tensor b0.c0.gamma of a BN-folded model" in err


ELEMENT_VALUES = (float("nan"), float("inf"), -float("inf"), 1e38, -1e38, 0.0)
META_VALUES = (-1, 2 ** 31, 0.5, "x")


def mutate(contents, rng):
    """One seeded mutation of contents, in place: one tensor element set to
    an ELEMENT_VALUES entry (an integer tensor takes the nearest value its
    dtype holds, 0 for NaN), one tensor zeroed or reversed, or one
    metadata value replaced by a META_VALUES entry. Returns what it did."""
    kind = rng.integers(3)
    if kind == 2:
        def leaves(meta, path):
            for key, value in meta.items():
                if isinstance(value, dict):
                    yield from leaves(value, path + (key,))
                else:
                    yield path + (key,)
        paths = sorted(leaves(contents.meta, ()))
        path = paths[rng.integers(len(paths))]
        value = META_VALUES[rng.integers(len(META_VALUES))]
        parent = contents.meta
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return f"meta {'.'.join(path)} = {value!r}"
    names = sorted(contents.tensors)
    name = names[rng.integers(len(names))]
    tensor = contents.tensors[name]
    if kind == 1:
        if rng.integers(2):
            tensor[...] = 0
            return f"{name} zeroed"
        contents.tensors[name] = np.flip(tensor).copy()
        return f"{name} reversed"
    value = ELEMENT_VALUES[rng.integers(len(ELEMENT_VALUES))]
    if tensor.dtype.kind != "f":
        info = np.iinfo(tensor.dtype)
        value = 0 if np.isnan(value) else int(np.clip(value, info.min,
                                                      info.max))
    index = rng.integers(tensor.size)
    tensor.flat[index] = value
    return f"{name}[{index}] = {value}"


def test_seeded_loader_fuzz(capsys, pipeline, tmp_path):
    """100 seeded, checksum-valid mutations of the windows, float model and
    int8 model files: eval either succeeds or exits 2 or 3 with one error
    line and no output; a RuntimeWarning fails the test."""
    # among them a 1e38 window weight under the float model and a 1e38
    # int8 head scale, two values that once overflowed eval's float32
    rng = np.random.default_rng(159)
    files = {"windows": dataset.WINDOW_MAGIC, "model": model.MODEL_MAGIC,
             "qmodel": quantize.QUANT_MAGIC}
    for i in range(100):
        kind = ("windows", "model", "qmodel")[i % 3]
        contents = container.read(pipeline[kind], files[kind])
        what = mutate(contents, rng)
        bad = tmp_path / f"bad{i}{pipeline[kind].suffix}"
        container.write(bad, files[kind], contents.meta, contents.tensors)
        argv = {"windows": str(pipeline["windows"]),
                "model": str(pipeline["qmodel" if i % 2 else "model"])}
        argv["windows" if kind == "windows" else "model"] = str(bad)
        code, stdout, err = run_cli(capsys, "eval", "--model", argv["model"],
                                    "--windows", argv["windows"])
        assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERIC), what
        assert code == cli.EXIT_OK or not stdout, what
        lines = err.splitlines()
        assert len(lines) <= 1, (what, err)
        assert all(line.startswith("error:") for line in lines), (what, err)


class TestBench:
    def test_bench_quant(self, capsys, pipeline):
        code, out, _ = run_cli(capsys, "bench", "--model",
                               str(pipeline["qmodel"]), "--runs", "10",
                               "--format", "kv")
        assert code == 0
        assert "throughput_mmacs=" in out
        assert "macs.total=" in out

    @pytest.mark.parametrize("fmt", ["text", "kv"])
    def test_overflowing_weight_is_data_error(self, capsys, pipeline,
                                              tmp_path, fmt):
        """As in eval: finite weights that overflow the float32 forward
        make one CorruptFile line naming the model file, and no warning."""
        contents = container.read(pipeline["model"], model.MODEL_MAGIC)
        contents.tensors["b0.c0.w"][0] = 1e38
        bad = tmp_path / "bad.efm"
        container.write(bad, model.MODEL_MAGIC, contents.meta,
                        contents.tensors)
        code, stdout, err = run_cli(capsys, "bench", "--model", str(bad),
                                    "--runs", "10", "--format", fmt)
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert str(bad) in err


class TestReport:
    def test_builtin_table(self, capsys):
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert "953.69" in out            # fastest profile throughput
        assert "18.86" in out             # speedup vs cortex-m4 max
        assert "feasible" in out

    def test_kv_format(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--format", "kv")
        assert code == 0
        assert "gap8@175MHz.energy_mj=" in out

    def test_both_mac_conventions(self, capsys):
        """count_macs' figure for the default config stands beside the
        profiles' own MAC counts, in text and kv."""
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        rows = {line[:26].strip(): line[26:].split()
                for line in out.splitlines()}
        assert rows["MAC"] == ["3,051,812"] * 2 + ["3,039,408"] * 4
        assert rows["MAC (count_macs)"] == ["2,988,960"] * 6
        code, out, _ = run_cli(capsys, "report", "--format", "kv")
        assert code == 0
        lines = out.splitlines()
        assert "count_macs.total=2988960" in lines
        assert "gap8@80MHz.mac_count=3051812" in lines
        assert "cortex-m4@60MHz.mac_count=3039408" in lines

    def test_custom_profiles(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("name,clock_hz,power_mw,time_ms,mac_count\n"
                        "a,1e6,1.0,1000,1000000\nb,1e6,1.0,500,1000000\n")
        code, out, _ = run_cli(capsys, "report", "--profiles", str(path))
        assert code == 0
        assert "a" in out and "b" in out

    @pytest.mark.parametrize("row, code, error, named", [
        ("b,nan,1.0,500,1000000", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: profile 'b'"),
        ("b,1e6,inf,500,1000000", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: profile 'b'"),
        ("b,1e6,1.0,nan,1000000", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: profile 'b'"),
        ("b,1e6,-5,500,1000000", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: profile 'b'"),
        ("b,1e6,1.0,500,1e400", cli.EXIT_DATA, "CorruptFile", "p.csv:2:"),
        ("a,2e6,2.0,500,1000000", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: profile 'a' repeats line 1"),
        (",2e6,2.0,500,1000000", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: empty profile name"),
        ("b,2e6,2.0,500,1.5", cli.EXIT_DATA, "CorruptFile",
         "p.csv:2: mac_count 1.5 is not an integer"),
        # a quoted name over lines 2-3 is one record; errors name lines
        ('"b\nc",1e6,1.0,500,1000000\nd,0,1.0,500,1000000', cli.EXIT_DATA,
         "CorruptFile", "p.csv:4: profile 'd'"),
    ])
    def test_non_finite_profile_field(self, capsys, tmp_path, row, code,
                                      error, named):
        path = tmp_path / "p.csv"
        path.write_text(f"a,1e6,1.0,1000,1000000\n{row}\n")
        got, out, err = run_cli(capsys, "report", "--profiles", str(path))
        assert got == code and not out
        assert_one_error_line(err, error)
        assert named in err

    def test_header_after_blank_line(self, capsys, tmp_path):
        rows = ("name,clock_hz,power_mw,time_ms,mac_count\n"
                "a,1e6,1.0,1000,1000000\nb,1e6,1.0,500,1000000\n")
        outs = []
        for text in (rows, "\n" + rows):
            path = tmp_path / "p.csv"
            path.write_text(text)
            code, out, _ = run_cli(capsys, "report", "--profiles", str(path),
                                   "--format", "kv")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_undecodable_profiles_are_data_error(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"a,1e6,1.0,1000,1000000\n\xff,1e6,1.0,500,1000000\n")
        code, out, err = run_cli(capsys, "report", "--profiles", str(path))
        assert code == cli.EXIT_DATA and not out
        assert_one_error_line(err, "CorruptFile")
        assert f"{path}: not utf-8 text" in err

    @pytest.mark.parametrize("argv, named", [
        (["--stride", "0"], "--stride"),
        (["--baseline", "nosuch"], "'nosuch'"),
        (["--baseline", "nosuch", "--profiles", "one"], "'nosuch'"),
    ])
    def test_bad_option_rejected_before_output(self, capsys, tmp_path, argv,
                                               named):
        path = tmp_path / "one.csv"
        path.write_text("a,1e6,1.0,1000,1000000\n")
        argv = [str(path) if arg == "one" else arg for arg in argv]
        code, out, err = run_cli(capsys, "report", *argv)
        assert code == cli.EXIT_USAGE and not out
        assert_one_error_line(err, "InvalidConfig")
        assert named in err


class TestUnreadableInput:
    """An input that exists but cannot be opened, here through a patched
    open or Path.read_bytes (permissions do not bind a root user), is
    CorruptFile naming it."""

    @staticmethod
    def deny(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")

    @pytest.mark.parametrize("module", ["cli", "container"])
    def test_model(self, capsys, monkeypatch, pipeline, module):
        if module == "cli":      # the magic peek of _sniff_model
            monkeypatch.setattr(cli, "open", self.deny, raising=False)
        else:
            monkeypatch.setattr(Path, "read_bytes", self.deny)
        code, out, err = run_cli(capsys, "eval", "--model",
                                 str(pipeline["model"]), "--windows",
                                 str(pipeline["windows"]))
        assert code == cli.EXIT_DATA and not out
        assert_one_error_line(err, "CorruptFile")
        assert f"{pipeline['model']}: cannot read (Permission denied)" in err

    @pytest.mark.parametrize("command", ["prepare", "report"])
    def test_csv(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "p.csv"
        path.write_text("a,1e6,1.0,1000,1000000\n")
        monkeypatch.setattr(dataset, "open", self.deny, raising=False)
        flag = "--dataset" if command == "prepare" else "--profiles"
        argv = ["--out", str(tmp_path / "o")] if command == "prepare" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *argv)
        assert code == cli.EXIT_DATA and not out
        assert_one_error_line(err, "CorruptFile")
        assert f"{path}: cannot read (Permission denied)" in err


class TestUsage:
    @pytest.mark.parametrize("command", ["synth", "train", "quantize",
                                         "bench"])
    def test_negative_seed_is_usage_error(self, capsys, pipeline, tmp_path,
                                          command):
        out = tmp_path / "out"
        argv = {"synth": ["--out", str(out)],
                "train": ["--windows", str(pipeline["windows"]), "--fold",
                          "1", "--out", str(out), "--epochs", "1"],
                "quantize": ["--model", str(pipeline["model"]), "--windows",
                             str(pipeline["windows"]), "--out", str(out)],
                "bench": ["--model", str(pipeline["qmodel"])]}[command]
        code, stdout, err = run_cli(capsys, command, *argv, "--seed", "-1")
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert "--seed must be >= 0" in err and not stdout
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag", [("train", "--out"),
                                               ("train", "--history"),
                                               ("quantize", "--out")])
    @pytest.mark.parametrize("target", ["missing/x.out", "existing"])
    def test_unwritable_output_is_usage_error(self, capsys, pipeline,
                                              tmp_path, command, flag,
                                              target):
        (tmp_path / "existing").mkdir()
        path = str(tmp_path / target)
        argv = {"train": ["--windows", str(pipeline["windows"]), "--fold",
                          "1", "--out", str(tmp_path / "m.efm"),
                          "--width", "4", "--epochs", "1"],
                "quantize": ["--model", str(pipeline["model"]), "--windows",
                             str(pipeline["windows"]), "--out",
                             str(tmp_path / "q.efq")]}[command]
        argv += [flag, path]    # the last --out wins
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert f"{flag} {path}" in err and not stdout
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]
        assert not any((tmp_path / "existing").iterdir())

    @pytest.mark.parametrize("command, flag, target", [
        ("train", "--out", "windows"), ("train", "--history", "windows"),
        ("quantize", "--out", "windows"), ("quantize", "--out", "model")])
    def test_output_on_input_file_is_usage_error(self, capsys, pipeline,
                                                 tmp_path, monkeypatch,
                                                 command, flag, target):
        """An output naming one of the command's input files, spelled
        another way, is refused before anything is loaded or written, and
        the input keeps its bytes."""
        for name in ("windows", "model"):
            (tmp_path / name).write_bytes(pipeline[name].read_bytes())
        before = (tmp_path / target).read_bytes()
        monkeypatch.chdir(tmp_path)
        argv = {"train": ["--windows", "windows", "--fold", "1", "--out",
                          "m.efm", "--width", "4", "--epochs", "1"],
                "quantize": ["--model", "model", "--windows", "windows",
                             "--out", "q.efq"]}[command]
        path = str(tmp_path / target)
        code, stdout, err = run_cli(capsys, command, *argv, flag, path)
        assert code == cli.EXIT_USAGE and not stdout
        assert_one_error_line(err, "InvalidConfig")
        assert f"{flag} {path} is the --{target} file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model",
                                                             "windows"]
        assert (tmp_path / target).read_bytes() == before

    def test_empty_calibration_pool_is_data_error(self, capsys, pipeline,
                                                  tmp_path):
        """No window left to train on or to calibrate with is one data
        error, EXIT_DATA, for train and quantize alike."""
        windows = dataset.load_windows(pipeline["windows"])
        only = tmp_path / "only1.efw"
        dataset.save_windows(only, [w for w in windows if w.subject == 1])
        empty = tmp_path / "empty.efw"
        dataset.save_windows(empty, [])
        for command, argv, error in [
                ("train", ["--windows", str(only), "--fold", "1", "--width",
                           "4", "--epochs", "1"], "EmptyTrainSet"),
                ("quantize", ["--model", str(pipeline["model"]), "--windows",
                              str(only), "--fold", "1"],
                 "EmptyCalibrationSet"),
                ("quantize", ["--model", str(pipeline["model"]), "--windows",
                              str(empty)], "EmptyCalibrationSet")]:
            code, stdout, err = run_cli(capsys, command, *argv, "--out",
                                        str(tmp_path / "out"))
            assert code == cli.EXIT_DATA and not stdout, (command, argv)
            assert_one_error_line(err, error)
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "empty.efw", "only1.efw"]

    @pytest.mark.parametrize("command", ["train", "quantize"])
    def test_overflowing_window_is_data_error(self, capsys, pipeline,
                                              tmp_path, command):
        """A finite training window that overflows float32 arithmetic makes
        one CorruptFile line that names the windows file, and no warning."""
        windows = dataset.load_windows(pipeline["windows"])
        next(w for w in windows if w.subject != 1).data[...] = 3e38
        bad = tmp_path / "bad.efw"
        dataset.save_windows(bad, windows)
        out = tmp_path / "out"
        argv = {"train": ["--width", "4", "--epochs", "1"],
                "quantize": ["--model", str(pipeline["model"])]}[command]
        code, stdout, err = run_cli(capsys, command, "--windows", str(bad),
                                    "--fold", "1", "--out", str(out), *argv)
        assert code == cli.EXIT_DATA and not stdout
        assert_one_error_line(err, "CorruptFile")
        assert str(bad) in err and "float32" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.efw"]

    @pytest.mark.parametrize("command", ["prepare", "train", "quantize",
                                         "eval", "bench", "report", "synth"])
    def test_help_exits_zero(self, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"])
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["text", "kv"])
    def test_closed_stdout_pipe_exits_quietly(self, fmt):
        """A reader that is gone before the command prints gets EXIT_PIPE
        and nothing on stderr: no traceback, no 'Exception ignored'."""
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "edgefit.cli", "report", "--format",
                 fmt], stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (cli.EXIT_PIPE, b"")

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == cli.EXIT_USAGE
