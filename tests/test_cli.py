import json

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
    ])
    def test_undecodable_or_oversized_field_is_data_error(
            self, capsys, tmp_path, field, error, named):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,"
                         b"hbc,label,subject,session\n"
                         b"0.0,1,2,3,4,5,6,7,0,1,1\n0.05,1,2,"
                         + field + b",4,5,6,7,0,1,1\n")
        out = tmp_path / "o"
        code, _, err = run_cli(capsys, "prepare", "--dataset", str(data),
                               "--out", str(out))
        assert code == cli.EXIT_DATA
        assert_one_error_line(err, error)
        assert f"{data}{named}" in err
        assert not out.exists()

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
        default is min(100, --epochs)."""
        out = tmp_path / "m.efm"
        code, _, err = run_cli(capsys, "train", "--windows",
                               str(pipeline["windows"]), "--fold", "1",
                               "--out", str(out), "--width", "8",
                               "--epochs", "2")
        assert code == cli.EXIT_OK, err
        assert model.load(out).config.width == 8

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

    def test_unknown_fold(self, capsys, pipeline):
        code, _, err = run_cli(capsys, "train", "--windows",
                               str(pipeline["windows"]), "--fold", "9",
                               "--out", "/tmp/x.efm", "--epochs", "1")
        assert code == cli.EXIT_USAGE
        assert "InvalidConfig" in err


class TestQuantize:
    def test_deterministic(self, pipeline, tmp_path):
        out2 = tmp_path / "q2.efq"
        assert cli.main(["quantize", "--model", str(pipeline["model"]),
                         "--windows", str(pipeline["windows"]), "--fold", "1",
                         "--calib-size", "64", "--out", str(out2)]) == 0
        assert pipeline["qmodel"].read_bytes() == out2.read_bytes()

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


class TestBench:
    def test_bench_quant(self, capsys, pipeline):
        code, out, _ = run_cli(capsys, "bench", "--model",
                               str(pipeline["qmodel"]), "--runs", "10",
                               "--format", "kv")
        assert code == 0
        assert "throughput_mmacs=" in out
        assert "macs.total=" in out


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
        ("b,nan,1.0,500,1000000", cli.EXIT_USAGE, "InvalidConfig", "'b'"),
        ("b,1e6,inf,500,1000000", cli.EXIT_USAGE, "InvalidConfig", "'b'"),
        ("b,1e6,1.0,nan,1000000", cli.EXIT_USAGE, "InvalidConfig", "'b'"),
        ("b,1e6,1.0,500,1e400", cli.EXIT_DATA, "CorruptFile", "p.csv:2:"),
    ])
    def test_non_finite_profile_field(self, capsys, tmp_path, row, code,
                                      error, named):
        path = tmp_path / "p.csv"
        path.write_text(f"a,1e6,1.0,1000,1000000\n{row}\n")
        got, out, err = run_cli(capsys, "report", "--profiles", str(path))
        assert got == code and not out
        assert_one_error_line(err, error)
        assert named in err


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

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == cli.EXIT_USAGE
