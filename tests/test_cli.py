"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import re
import shutil
from pathlib import Path

import pytest

from repro.__main__ import __doc__ as cli_doc
from repro.__main__ import build_parser, engines_agree, main


def test_list_prints_all_queries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("EQ", "VWAP", "MST", "PSP", "SQ1", "SQ2", "NQ1", "NQ2", "Q17", "Q18"):
        assert name in out
    assert "rpai-inequality" in out


def test_classify_inline_sql(capsys):
    sql = (
        "SELECT SUM(b.price * b.volume) FROM bids b "
        "WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1) < "
        "(SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
    )
    assert main(["classify", sql]) == 0
    out = capsys.readouterr().out
    assert "rpai-inequality" in out
    assert "O(log n)" in out


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "q.sql"
    path.write_text("SELECT SUM(r.A) FROM R r WHERE r.A > 1")
    assert main(["classify", str(path)]) == 0
    assert "uncorrelated" in capsys.readouterr().out


def test_run_vwap(capsys):
    assert main(["run", "VWAP", "--engine", "rpai", "--events", "200"]) == 0
    out = capsys.readouterr().out
    assert "events   : 200" in out
    assert "result" in out


def test_run_rejects_unknown_query():
    with pytest.raises(SystemExit):
        main(["run", "BOGUS"])


def test_help_lists_subcommands_with_descriptions(capsys):
    """The module docstring and the parser document the same commands:
    every registered sub-command has a ``name`` heading, every heading
    a parser, and ``--help`` prints each with its description."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    documented = set(re.findall(r"^``([a-z-]+)", cli_doc, flags=re.MULTILINE))
    assert set(subparsers.choices) == documented
    # add_parser() without help= registers the command but hides it here
    assert {choice.dest for choice in subparsers._choices_actions} == documented
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in documented:
        assert command in out


def test_run_sharded_serial(capsys):
    assert main(["run", "VWAP", "--events", "200", "--shards", "3"]) == 0
    out = capsys.readouterr().out
    assert "rpai-sharded3" in out


def test_run_sharded_fallback_note(capsys):
    assert main(["run", "MST", "--events", "150", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "not shardable" in out
    assert "engine   : rpai" in out


def test_run_multiprocess_workers(capsys):
    assert main(["run", "VWAP", "--events", "200", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "rpai-mp2" in out


def test_compare_engines_agree(capsys):
    assert main(["compare", "VWAP", "--events", "150", "--recompute-cap", "80"]) == 0
    out = capsys.readouterr().out
    assert "rpai" in out and "dbtoaster" in out and "recompute" in out
    assert "WARNING" not in out


def test_compare_counts_the_naive_baseline(capsys):
    """With the naive run inside the cap, its int result meets the
    incremental engines' float one."""
    assert main(["compare", "VWAP", "--events", "150"]) == 0
    assert "WARNING" not in capsys.readouterr().out


def test_compare_skips_the_naive_baseline_above_the_cap(monkeypatch, capsys):
    import repro.__main__ as cli

    build = cli.build_engine

    def build_no_naive(query, strategy):
        assert strategy != "recompute", "the naive baseline ran"
        return build(query, strategy)

    monkeypatch.setattr(cli, "build_engine", build_no_naive)
    assert main(["compare", "NQ2", "--events", "300", "--recompute-cap", "200"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "recompute" in line)
    assert "skipped: --events > --recompute-cap 200" in row


def test_engines_agree_compares_values():
    assert engines_agree({"rpai": 20146.0, "dbtoaster": 20146.0, "recompute": 20146})
    assert engines_agree({"rpai": {1: 312, 2: 1099}, "recompute": {2: 1099, 1: 312}})
    assert not engines_agree({"rpai": 20146.0, "recompute": 20147})
    assert not engines_agree({"rpai": {1: 312}, "recompute": {1: 312, 2: 1099}})


def test_compare_fails_when_engines_disagree(monkeypatch, capsys):
    import repro.__main__ as cli

    build = cli.build_engine

    def build_wrong(query, strategy):
        # The dbtoaster run answers another query over the same book.
        return build("PSP" if strategy == "dbtoaster" else query, strategy)

    monkeypatch.setattr(cli, "build_engine", build_wrong)
    assert main(["compare", "VWAP", "--events", "150", "--recompute-cap", "80"]) == 1
    assert "WARNING: engines disagree!" in capsys.readouterr().out


def test_library_errors_print_one_line(tmp_path, capsys):
    """A checkpoint with no log is an error line and exit 2, not a
    traceback."""
    wal_dir = tmp_path / "vwap"
    shutil.copytree(Path(__file__).parent / "engine" / "data" / "vwap-pr15", wal_dir)
    assert main(["recover", "VWAP", "--wal-dir", str(wal_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: no WAL data under {wal_dir}\n"


def test_stats_reports_backend_and_auto_batch(capsys):
    import json

    assert main(["stats", "EQ", "--events", "150", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # No --batch-size given: the per-strategy default applies and says so.
    assert payload["batch_auto"] is True
    assert payload["batch_size"] == 64
    assert payload["backend"] == "paimap"


def test_stats_explicit_batch_size_disables_auto(capsys):
    import json

    assert main(
        ["stats", "EQ", "--events", "150", "--batch-size", "7", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["batch_auto"] is False
    assert payload["batch_size"] == 7


def test_stats_reports_column_count_of_a_conjunctive_index(capsys):
    import json

    assert main(["stats", "MST", "--events", "150", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["backend"] == "rpai (2 columns)"


@pytest.mark.parametrize(
    "query, pattern",
    [
        ("PSP", r"rpai \(2 columns\)"),
        ("Q17", r"treemap x\d+ groups"),
        ("Q18", r"dicts x\d+ keys x\d+ groups"),
    ],
)
def test_stats_reports_the_backend_of_every_side_kind(capsys, query, pattern):
    import json

    assert main(["stats", query, "--events", "150", "--json"]) == 0
    assert re.fullmatch(pattern, json.loads(capsys.readouterr().out)["backend"])


def test_run_reports_auto_batch_note(capsys):
    assert main(["run", "EQ", "--events", "150"]) == 0
    assert "batch    : 64 (auto)" in capsys.readouterr().out
    assert main(["run", "VWAP", "--events", "150"]) == 0
    out = capsys.readouterr().out
    assert "batch    : 8 (auto)" in out
    assert "backend  : rpai\n" in out
