import argparse
import importlib
import json
import os
import shlex

import numpy as np
import pytest

from sshpool.cli import _OPTIONS, build_parser, main, read_config_file
from sshpool.data import load_tu_dataset, graph_stats
from sshpool.synth import write_tu_corpus

from conftest import write_tu

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def leaf_parsers(parser):
    """Every parser that runs a command, the kinds of sweep and diagnose included."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for sub in subs for p in sub.choices.values() for leaf in leaf_parsers(p)]


def readme_cli_lines():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("sshpool ")]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_tu_corpus(str(directory), "synth", num_graphs=12, seed=3)
    return str(directory)


def train_args(corpus, out, extra=()):
    return [
        "train",
        "--data", corpus,
        "--name", "synth",
        "--out", out,
        "--hidden-dim", "8",
        "--layer-sizes", "4,2",
        "--ratio", "0.5",
        "--depth", "2",
        "--epochs", "2",
        "--folds", "2",
        "--repeats", "1",
        "--seed", "7",
        *extra,
    ]


class TestTrain:
    def test_writes_three_artifacts(self, corpus, tmp_path):
        out = str(tmp_path / "run")
        assert main(train_args(corpus, out)) == 0
        for name in ("report.json", "curves.csv", "model.ckpt"):
            assert os.path.isfile(os.path.join(out, name))
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert 0.0 <= report["mean_accuracy"] <= 1.0
        header = open(os.path.join(out, "curves.csv")).readline().strip()
        assert header == "epoch,split,loss,accuracy"

    def test_byte_identical_reruns(self, corpus, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(train_args(corpus, out_a)) == 0
        assert main(train_args(corpus, out_b)) == 0
        for name in ("report.json", "curves.csv"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b

    def test_missing_dataset_dir_exit_3(self, tmp_path, capsys):
        code = main(train_args(str(tmp_path / "nowhere"), str(tmp_path / "o")))
        assert code == 3
        assert "nowhere" in capsys.readouterr().err

    def test_zero_epochs_exit_2(self, corpus, tmp_path):
        args = train_args(corpus, str(tmp_path / "o"))
        args[args.index("--epochs") + 1] = "0"
        assert main(args) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--repeats", "0", "repeats must be >= 1"), ("--folds", "1", "fold count must be >= 2")],
    )
    def test_too_few_repeats_or_folds_exit_2(self, corpus, tmp_path, capsys, flag, value, message):
        args = train_args(corpus, str(tmp_path / "o"))
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_bad_flag_exit_2(self, corpus, tmp_path):
        assert main(["train", "--no-such-flag"]) == 2

    @pytest.mark.parametrize("sizes", ["16,8", "128,10,8"])
    def test_any_layer_sizes_without_ratio(self, corpus, tmp_path, capsys, sizes):
        args = train_args(corpus, str(tmp_path / "o"))
        del args[args.index("--ratio"):args.index("--ratio") + 2]
        args[args.index("--layer-sizes") + 1] = sizes
        assert main(args) == 0
        report = json.loads(open(tmp_path / "o" / "report.json").read())
        assert report["model_config"]["layer_sizes"] == [int(s) for s in sizes.split(",")]


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trained"))
    assert main(train_args(corpus, out)) == 0
    return out


class TestEvalAndTrace:
    def test_eval_reports_accuracy(self, corpus, trained, capsys):
        code = main(
            ["eval", "--ckpt", os.path.join(trained, "model.ckpt"),
             "--data", corpus, "--name", "synth"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["graphs"] == 12

    def test_pool_trace_layer_objects(self, corpus, trained, capsys):
        code = main(
            ["pool-trace", "--ckpt", os.path.join(trained, "model.ckpt"),
             "--data", corpus, "--name", "synth", "--graph-index", "1"]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2  # one object per pooling layer
        ds = load_tu_dataset(corpus, "synth")
        n = ds.graphs[1].n
        for depth, line in enumerate(lines):
            record = json.loads(line)
            assert record["layer"] == depth
            assert sum(record["cluster_sizes"]) <= n
            assert record["dropped_edges"] >= 0
            assert len(record["coarse_adjacency"]) == len(record["cluster_sizes"])

    def test_pool_trace_single_node_graph(self, tmp_path, capsys):
        d = write_tu(tmp_path / "single", "one", [([], 1, 1), (TRIANGLE, 3, 2)])
        out = str(tmp_path / "o")
        args = train_args(str(d), out)
        args[args.index("synth")] = "one"
        assert main(args) == 0
        capsys.readouterr()  # drop the train summary line
        code = main(
            ["pool-trace", "--ckpt", os.path.join(out, "model.ckpt"),
             "--data", str(d), "--name", "one", "--graph-index", "0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        first = json.loads(lines[0])
        assert first["cluster_sizes"] == [1]
        assert first["clusters"] == [[0]]

    def test_eval_checkpoint_without_config_exit_3(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "bare.ckpt"
        ckpt.write_text('{"version": "sshpool-ckpt-v1"}\n')
        code = main(["eval", "--ckpt", str(ckpt), "--data", corpus, "--name", "synth"])
        assert code == 3
        assert "'config'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["eval"], ["pool-trace"], ["diagnose", "smoothing", "--graphs", "2"]],
        ids=" ".join,
    )
    def test_feature_width_mismatch_exit_2(self, corpus, trained, capsys, args):
        # The checkpoint was trained on degree one-hots (64 columns).
        code = main(
            [*args, "--ckpt", os.path.join(trained, "model.ckpt"),
             "--data", corpus, "--name", "synth", "--feature-mode", "constant"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "64" in err and "has 1 (constant)" in err

    @pytest.mark.parametrize(
        "key, value", [("layer_sizes", [0]), ("variant", "nope"), ("feature_dim_in", -1)]
    )
    def test_invalid_checkpoint_config_exit_3(self, corpus, trained, tmp_path, capsys,
                                              key, value):
        with open(os.path.join(trained, "model.ckpt")) as fh:
            payload = json.load(fh)
        payload["config"][key] = value
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text(json.dumps(payload))
        code = main(["eval", "--ckpt", str(ckpt), "--data", corpus, "--name", "synth"])
        assert code == 3
        assert "bad config" in capsys.readouterr().err

    def test_pool_trace_index_out_of_range_exit_2(self, corpus, trained):
        code = main(
            ["pool-trace", "--ckpt", os.path.join(trained, "model.ckpt"),
             "--data", corpus, "--name", "synth", "--graph-index", "99"]
        )
        assert code == 2


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_diffpool_variant(self):
        assert main(["gradcheck", "--variant", "diffpool"]) == 0


class TestSweepCommand:
    def test_ratio_csv(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "sw")
        code = main(
            ["sweep", "ratio",
             "--data", corpus, "--name", "synth", "--out", out,
             "--ratios", "0.5",
             "--hidden-dim", "8", "--layer-base", "4", "--depth", "2",
             "--epochs", "1", "--folds", "2", "--repeats", "1", "--seed", "0"]
        )
        assert code == 0
        lines = open(os.path.join(out, "sweep_ratio.csv")).read().splitlines()
        assert lines[0] == "ratio,method,mean_accuracy,std_error"
        assert len(lines) == 4  # three methods at one ratio
        assert {l.split(",")[1] for l in lines[1:]} == {"sshpool", "sshpool_non", "diffpool"}

    def test_depth_csv_long_and_matches_stdout(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "sw")
        code = main(
            ["sweep", "depth",
             "--data", corpus, "--name", "synth", "--out", out,
             "--depths", "1,2",
             "--hidden-dim", "8", "--layer-base", "4", "--ratio", "0.5",
             "--epochs", "1", "--folds", "2", "--repeats", "1", "--seed", "0"]
        )
        assert code == 0
        with open(os.path.join(out, "sweep_depth.csv"), "rb") as fh:
            written = fh.read()
        lines = written.decode("utf-8").split("\n")
        assert lines[0] == "depth,method,mean_accuracy,std_error"
        assert lines[-1] == ""  # LF-terminated, no CR
        assert [tuple(l.split(",")[:2]) for l in lines[1:-1]] == [
            (depth, method)
            for depth in ("1", "2")
            for method in ("sshpool", "sshpool_non", "diffpool")
        ]
        assert capsys.readouterr().out.encode("utf-8") == written


    def test_base_schedule_never_rejects_a_sweep(self, corpus, capsys):
        # The default ratio 0.25 gives 8, 2, 0 at depth 3; the sweep runs 0.5.
        code = main(
            ["sweep", "ratio", "--data", corpus, "--name", "synth", "--ratios", "0.5",
             "--hidden-dim", "8", "--layer-base", "8", "--depth", "3",
             "--epochs", "1", "--folds", "2", "--repeats", "1", "--seed", "0"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


class TestStatsCommand:
    def test_json_matches_library(self, corpus, capsys):
        assert main(["stats", "--data", corpus, "--name", "synth"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(
            json.dumps(graph_stats(load_tu_dataset(corpus, "synth")))
        )


    def test_dataset_file_not_utf8_exit_3(self, tmp_path, capsys):
        write_tu(tmp_path, "u", [(TRIANGLE, 3, 1)])
        (tmp_path / "u_graph_labels.txt").write_bytes(b"\xff\n")
        assert main(["stats", "--data", str(tmp_path), "--name", "u"]) == 3
        assert "utf-8" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_locality_exit_zero(self, capsys):
        code = main(["diagnose", "locality", "--trials", "20", "--graphs", "5", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == payload["trials"]

    @pytest.mark.parametrize(
        "kind, graphs", [("locality", "0"), ("locality", "-3"), ("smoothing", "0")]
    )
    def test_no_graphs_exit_2(self, capsys, kind, graphs):
        assert main(["diagnose", kind, "--graphs", graphs, "--seed", "1"]) == 2
        assert "--graphs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-4", "4"])
    def test_fewer_trials_than_graphs_exit_2(self, capsys, trials):
        args = ["diagnose", "locality", "--trials", trials, "--graphs", "5", "--seed", "1"]
        assert main(args) == 2
        assert "--trials must be >= --graphs" in capsys.readouterr().err

    def test_locality_runs_the_trials_asked(self, capsys):
        args = ["diagnose", "locality", "--trials", "7", "--graphs", "5", "--seed", "1"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["graphs"], payload["trials"], payload["passes"]) == (5, 7, 7)

    def test_smoothing_without_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "sm")
        code = main(
            ["diagnose", "smoothing", "--graphs", "4", "--seed", "2",
             "--hidden-dim", "8", "--layer-sizes", "4,2", "--ratio", "0.5",
             "--depth", "2", "--out", out]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"pooled", "stacked_conv"}
        assert os.path.isfile(os.path.join(out, "smoothing_pooled.csv"))


class TestConfigFile:
    def test_precedence_flag_over_file_over_default(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nhidden_dim = 4\n# comment\nratio = 0.5\n")
        values = read_config_file(str(cfg))
        assert values == {"epochs": 5, "hidden_dim": 4, "ratio": 0.5}

        out = str(tmp_path / "o")
        code = main(
            ["train", "--data", corpus, "--name", "synth", "--out", out,
             "--config", str(cfg),
             "--layer-sizes", "4,2", "--depth", "2",
             "--epochs", "1",  # flag wins over the file's 5
             "--folds", "2", "--repeats", "1", "--seed", "0"]
        )
        assert code == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["train_config"]["epochs"] == 1
        assert report["model_config"]["hidden_dim"] == 4  # from the file

    def test_ckpt_from_file_exit_3_like_flag(self, tmp_path):
        missing = str(tmp_path / "nowhere" / "model.ckpt")
        cfg = tmp_path / "ckpt.cfg"
        cfg.write_text(f"ckpt = {missing}\n")
        args = ["diagnose", "smoothing", "--graphs", "2", "--hidden-dim", "8",
                "--layer-sizes", "4,2", "--ratio", "0.5", "--depth", "2"]
        assert main(args + ["--ckpt", missing]) == 3
        assert main(args + ["--config", str(cfg)]) == 3

    def test_dataset_from_file_matches_flags(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "data.cfg"
        cfg.write_text(f"data = {corpus}\nname = synth\n")
        assert main(["stats", "--data", corpus, "--name", "synth"]) == 0
        from_flags = capsys.readouterr().out
        assert main(["stats", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags

    def test_keys_the_command_does_not_read_are_ignored(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            f"data = {corpus}\nname = synth\nout = {tmp_path / 'o'}\ntrials = 3\nepochs = 0\n"
        )
        assert main(["stats", "--data", corpus, "--name", "synth"]) == 0
        from_flags = capsys.readouterr().out
        assert main(["stats", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags
        assert not os.path.exists(tmp_path / "o")

    def test_ckpt_from_file_matches_flag(self, corpus, trained, tmp_path, capsys):
        ckpt = os.path.join(trained, "model.ckpt")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"ckpt = {ckpt}\ndata = {corpus}\nname = synth\n")
        assert main(["eval", "--ckpt", ckpt, "--data", corpus, "--name", "synth"]) == 0
        from_flags = capsys.readouterr().out
        assert main(["eval", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags

    @pytest.mark.parametrize(
        "args, flag",
        [(["stats"], "--data"), (["eval", "--data", ".", "--name", "x"], "--ckpt")],
    )
    def test_missing_required_option_exit_2(self, tmp_path, capsys, args, flag):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing set\n")
        assert main(args) == 2
        assert main(args + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(flag[2:]) in err

    def test_option_table_matches_parsers(self):
        leaves = leaf_parsers(build_parser())
        assert len(leaves) == 9  # 5 commands, 2 sweep kinds, 2 diagnose kinds
        dests = {
            action.dest
            for leaf in leaves
            for action in leaf._actions
            if not isinstance(action, argparse._HelpAction)
        } - {"config"}
        assert not dests - set(_OPTIONS), "flags without a table row"
        assert not set(_OPTIONS) - dests, "table rows that no subcommand parses"

    def test_unknown_key_exit_2(self, corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option = 1\n")
        code = main(
            ["train", "--data", corpus, "--name", "synth",
             "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 2


class TestCommandSurface:
    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_readme_example_parses(self, line):
        build_parser().parse_args(shlex.split(line)[1:])

    def test_readme_lists_every_command(self):
        commands = {tuple(shlex.split(line)[1:3]) for line in readme_cli_lines()}
        heads = {c[0] for c in commands}
        assert heads == {"train", "eval", "pool-trace", "gradcheck", "sweep", "stats", "diagnose"}
        assert {("sweep", "depth"), ("sweep", "ratio")} <= commands
        assert {("diagnose", "locality"), ("diagnose", "smoothing")} <= commands

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--out", "o"],
            ["pool-trace", "--out", "o"],
            ["gradcheck", "--out", "o"],
            ["stats", "--out", "o"],
            ["diagnose", "locality", "--data", "."],
            ["diagnose", "locality", "--ckpt", "m.ckpt"],
            ["diagnose", "locality", "--hidden-dim", "8"],
            ["diagnose", "locality", "--out", "o"],
            ["diagnose", "smoothing", "--trials", "5"],
            ["sweep", "depth", "--ratios", "0.5"],
            ["sweep", "ratio", "--depths", "1"],
            ["sweep", "depth", "--variant", "global_sum"],
            ["sweep", "ratio", "--variant", "diffpool"],
            ["sweep", "depth", "--no-attention"],
            ["sweep", "ratio", "--attention"],
            ["sweep", "depth", "--layer-sizes", "4,2"],
            ["sweep", "ratio", "--layer-sizes", "4,2"],
            ["sweep", "depth", "--depth", "2"],
            ["sweep", "ratio", "--ratio", "0.5"],
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read_exit_2(self, capsys, args):
        assert main(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_and_config_on_every_command(self):
        for leaf in leaf_parsers(build_parser()):
            flags = {f for action in leaf._actions for f in action.option_strings}
            assert {"--seed", "--config"} <= flags, leaf.prog

    def test_console_script_target_imports(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["sshpool"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main
