"""Unit tests for the CLI (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("datasets", "query", "explain", "serve-sim", "fig4",
                        "fig7", "fig8", "fig9", "table2", "casestudy",
                        "ablation"):
            needs_dataset = command in ("query", "explain", "serve-sim")
            args = parser.parse_args(
                [command, "cora"] if needs_dataset else [command]
            )
            assert args.command == command

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "facebook"])

    def test_common_flags(self):
        args = build_parser().parse_args(
            ["fig4", "--queries", "3", "--theta", "2", "--scale", "0.5",
             "--seed", "9"]
        )
        assert (args.queries, args.theta, args.scale, args.seed) == (3, 2, 0.5, 9)


class TestQueryCommand:
    def test_query_sampled(self, capsys):
        code = main(["query", "cora", "--scale", "0.2", "--theta", "3",
                     "--k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "community" in out
        assert "query time" in out

    def test_query_explicit_node(self, capsys):
        code = main(["query", "cora", "--scale", "0.2", "--theta", "3",
                     "--node", "5", "--k", "3"])
        assert code == 0
        assert "node=5" in capsys.readouterr().out

    def test_query_explicit_attribute(self, capsys):
        code = main(["query", "cora", "--scale", "0.2", "--theta", "3",
                     "--node", "5", "--attribute", "0"])
        assert code == 0
        assert "attribute=0" in capsys.readouterr().out


class TestExplainCommand:
    def test_prints_evidence(self, capsys):
        code = main(["explain", "cora", "--scale", "0.2", "--theta", "3",
                     "--node", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LORE reclustering scores" in out
        assert "COD evidence" in out
        assert "verdict" in out

    def test_sampled_query(self, capsys):
        code = main(["explain", "cora", "--scale", "0.2", "--theta", "3"])
        assert code == 0
        assert "C_l" in capsys.readouterr().out


class TestErrorHandling:
    def test_repro_error_exits_2_without_traceback(self, capsys):
        # Attribute 9999 exists on no node: the pipeline raises QueryError,
        # which main() must turn into a one-line stderr message + exit 2.
        code = main(["query", "cora", "--scale", "0.2", "--theta", "2",
                     "--node", "5", "--attribute", "9999"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cod: error:")
        assert "Traceback" not in captured.err

    def test_healthy_run_unaffected(self, capsys):
        assert main(["datasets", "--scale", "0.1", "--queries", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestServeSimCommand:
    def test_healthy_workload(self, capsys):
        code = main(["serve-sim", "cora", "--scale", "0.15", "--queries", "3",
                     "--theta", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "health report" in out
        assert "answered via CODL" in out
        assert "breaker state" in out
        # Entry-bounded caches print entries, the byte-bounded LORE memo
        # prints bytes.
        assert "cache lore         : entries=" in out
        assert "cache lore_local   : bytes=" in out
        assert "/None" not in out

    def test_injected_lore_faults_degrade_to_codu(self, capsys):
        code = main(["serve-sim", "cora", "--scale", "0.15", "--queries", "3",
                     "--theta", "2", "--fault-site", "lore",
                     "--fault-rate", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "injecting HierarchyError at 'lore'" in out
        assert "answered via CODU" in out

    def test_zero_deadline_refuses(self, capsys):
        code = main(["serve-sim", "cora", "--scale", "0.15", "--queries", "2",
                     "--theta", "2", "--deadline", "0.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "refused            : 2" in out

    def test_export_health_json(self, tmp_path, capsys):
        path = tmp_path / "health.json"
        code = main(["serve-sim", "cora", "--scale", "0.15", "--queries", "2",
                     "--theta", "2", "--export", str(path)])
        assert code == 0
        from repro.eval.export import read_json

        health = read_json(path)
        assert health["queries"] == 2


class TestDatasetsCommand:
    def test_prints_rows(self, capsys):
        code = main(["datasets", "--scale", "0.1", "--queries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("cora", "citeseer", "retweet", "livejournal"):
            assert name in out


class TestExport:
    def test_fig4_csv(self, tmp_path, capsys):
        path = tmp_path / "fig4.csv"
        code = main(["fig4", "--scale", "0.12", "--queries", "2", "--theta",
                     "2", "--export", str(path)])
        assert code == 0
        from repro.eval.export import read_csv

        rows = read_csv(path)
        assert {r["dataset"] for r in rows} >= {"cora", "retweet"}
        assert "CODL" in rows[0]

    def test_fig4_json(self, tmp_path, capsys):
        path = tmp_path / "fig4.json"
        code = main(["fig4", "--scale", "0.12", "--queries", "2", "--theta",
                     "2", "--export", str(path)])
        assert code == 0
        from repro.eval.export import read_json

        results = read_json(path)
        assert "cora" in results

    def test_datasets_csv(self, tmp_path, capsys):
        path = tmp_path / "t1.csv"
        code = main(["datasets", "--scale", "0.1", "--queries", "2",
                     "--export", str(path)])
        assert code == 0
        from repro.eval.export import read_csv

        rows = read_csv(path)
        assert rows[0]["dataset"] == "cora"
