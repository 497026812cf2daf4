"""CLI: parser wiring and end-to-end command execution (smoke scale)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.dataset == "cora"
        assert args.scale == "smoke"

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "table3"])

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--dataset", "pubmed"])

    @pytest.mark.parametrize(
        "command",
        [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "feature-attack",
            "inspector-zoo",
        ],
    )
    def test_all_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    def test_arena_threat_axis_default_is_none(self):
        args = build_parser().parse_args(["arena"])
        assert args.threats is None  # resolved to white_box+oblivious later

    def test_arena_threat_axis_is_repeatable(self):
        from repro.api.specs import ThreatModel

        args = build_parser().parse_args(
            [
                "arena",
                "--threat",
                "white_box+oblivious",
                "--threat",
                "surrogate:h8,s3",
                "--threat",
                "adaptive:jaccard",
            ]
        )
        threats = tuple(ThreatModel.parse(t) for t in args.threats)
        assert threats[0].is_default
        assert threats[1].surrogate_hidden == 8
        assert threats[1].surrogate_seed == 3
        assert threats[2].defense == "jaccard"

    def test_arena_arch_axis_default_and_parse(self):
        assert build_parser().parse_args(["arena"]).archs == "gcn"
        args = build_parser().parse_args(["arena", "--archs", "gcn,sage,gat"])
        assert args.archs == "gcn,sage,gat"

    def test_arena_unknown_arch_exits_cleanly(self, tmp_path):
        """A bogus --archs value is a one-line error, not a traceback
        (same convention as --threat)."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "arena",
                    "--store",
                    str(tmp_path / "store"),
                    "--archs",
                    "gcn,bogus",
                ]
            )
        message = str(excinfo.value)
        assert message.startswith("error: ")
        assert "unknown architecture 'bogus'" in message
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "token, fragment",
        [
            ("blackbox", "bad threat part 'blackbox'"),
            ("surrogate+surrogate:h8", "duplicate knowledge axis"),
            ("oblivious+adaptive:jaccard", "duplicate adaptivity axis"),
            # 'x8' parses as an arch token; it dies at registry validation.
            ("surrogate:x8", "unknown surrogate architecture 'x8'"),
            ("surrogate:8x", "bad surrogate token '8x'"),
            ("adaptive:bogus", "unknown adapted defense 'bogus'"),
        ],
    )
    def test_arena_bad_threat_exits_cleanly(self, token, fragment, tmp_path):
        """A malformed --threat is a one-line error, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "arena",
                    "--store",
                    str(tmp_path / "store"),
                    "--threat",
                    token,
                ]
            )
        message = str(excinfo.value)
        assert message.startswith("error: ")
        assert fragment in message
        # Nothing ran: the store directory was never created.
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "flag, value, fragment",
        [
            ("--attacks", "FGA-X", "unknown attack 'FGA-X'"),
            ("--defenses", "bogus", "unknown defense 'bogus'"),
        ],
    )
    def test_arena_unknown_registry_name_exits_cleanly(
        self, flag, value, fragment, tmp_path
    ):
        """Attack and defense typos follow the --archs convention."""
        with pytest.raises(SystemExit) as excinfo:
            main(["arena", "--store", str(tmp_path / "store"), flag, value])
        message = str(excinfo.value)
        assert message.startswith("error: ")
        assert fragment in message
        assert not (tmp_path / "store").exists()

    def test_arena_fresh_and_resume_are_mutually_exclusive(self, tmp_path):
        """--fresh (clear first) contradicts --resume (reuse results): a
        combined invocation must die with a one-line error before it can
        silently clear the store it was asked to resume."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "arena",
                    "--fresh",
                    "--resume",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
        message = str(excinfo.value)
        assert message.startswith("error: ")
        assert "--fresh" in message and "--resume" in message
        assert "mutually exclusive" in message
        # The store was neither created nor cleared.
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--jobs", "0", "arena"], "--jobs must be at least 1, got 0"),
            (["--jobs", "-2", "arena"], "--jobs must be at least 1, got -2"),
            (
                ["serve", "--port", "0", "--workers", "0"],
                "--workers must be at least 1, got 0",
            ),
            (
                ["serve", "--port", "0", "--workers", "-1"],
                "--workers must be at least 1, got -1",
            ),
        ],
    )
    def test_pool_width_below_one_exits_cleanly(self, argv, fragment, tmp_path):
        """A zero or negative pool width is a one-line error, not a silent
        serial run (same convention as --threat)."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--store", str(tmp_path / "store")])
        message = str(excinfo.value)
        assert message.startswith("error: ")
        assert fragment in message
        assert not (tmp_path / "store").exists()


class TestExecution:
    def test_table3_runs(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "CITESEER" in out and "CORA" in out and "ACM" in out

    def test_fig4_runs(self, capsys):
        assert main(["--scale", "smoke", "fig4", "--dataset", "cora"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out
        assert "ASR_T" in out

    def test_feature_attack_runs(self, capsys):
        assert main(["--scale", "smoke", "feature-attack"]) == 0
        out = capsys.readouterr().out
        assert "FeatureFGA" in out
        assert "GEF-Attack" in out

    def test_inspector_zoo_runs(self, capsys):
        assert main(["--scale", "smoke", "inspector-zoo", "--dataset", "cora"]) == 0
        out = capsys.readouterr().out
        assert "Occlusion" in out
        assert "GNNExplainer" in out


class TestDescribe:
    def test_describe_parses(self):
        args = build_parser().parse_args(["describe"])
        assert args.command == "describe"
        assert not args.json

    def test_describe_lists_generated_schemas(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        # every registered attack/defense/explainer appears with its schema
        for name in ("GEAttack", "Nettack", "FGA-T&E", "Metattack"):
            assert name in out
        for name in ("jaccard", "svd", "explainer"):
            assert name in out
        assert "lam <- config.geattack_lam" in out
        assert "inspection_window <- config.explanation_size" in out
        assert "requires: pg_explainer" in out

    def test_describe_lists_registered_architectures(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "Architectures" in out
        for name in ("gcn", "gat", "sage", "gin"):
            assert name in out
        assert "exact locality" in out
        assert "full-graph fallback" in out  # GAT's declared contract

    def test_describe_json_is_machine_readable(self, capsys):
        assert main(["describe", "--json"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert set(schema) == {
            "attacks", "defenses", "explainers", "architectures"
        }
        geattack = schema["attacks"]["GEAttack"]
        assert {"name": "lam", "config_key": "geattack_lam",
                "constructor": True, "value": 0.7} in geattack["params"]
        assert schema["defenses"]["none"]["params"] == []
        assert schema["architectures"]["gat"]["exact_locality"] is False
        assert schema["architectures"]["gcn"]["exact_locality"] is True
