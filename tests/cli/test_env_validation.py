"""Environment validation and the ``store`` subcommand.

A typo in a ``REPRO_*`` tuning knob must be a one-line error at parse time
(exit 2), never a silent fallback to a default — and never a traceback.
"""

import ast
import pathlib
import re

import pytest

import repro
from repro.__main__ import main
from repro.envcheck import (
    VALIDATED_VARS,
    environment_error,
    validate_environment,
)


class TestValidateEnvironment:
    def test_every_variable_the_source_names_is_validated(self):
        """Each ``"REPRO_..."`` string literal in ``src/repro`` is a key of
        ``VALIDATED_VARS``, so no variable can fall back silently."""
        names = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                           str(path))):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)):
                    names.add(node.value)
        assert names
        assert names - set(VALIDATED_VARS) == set()

    def test_empty_environment_is_clean(self):
        assert validate_environment({}) == []
        assert environment_error({}) is None

    @pytest.mark.parametrize("name,value", [
        ("REPRO_SIM_CACHE_SIZE", "many"),
        ("REPRO_SIM_ENGINE", "verilator"),
        ("REPRO_FAULT_PLAN", "store.write:frobnicate"),
        ("REPRO_FAULT_PLAN", "not a plan"),
        ("REPRO_SERVE_WORKERS", "0"),
        ("REPRO_SERVE_WORKERS", "lots"),
        ("REPRO_SERVE_TIMEOUT", "-1"),
        ("REPRO_SERVE_URL", "127.0.0.1:8731"),       # missing scheme
        ("REPRO_SERVE_URL", "ftp://127.0.0.1:8731"),
    ])
    def test_bad_values_are_reported(self, name, value):
        problems = validate_environment({name: value})
        assert len(problems) == 1
        assert problems[0].startswith(f"{name}:")

    @pytest.mark.parametrize("name,value", [
        ("REPRO_SIM_CACHE_SIZE", "16"),
        ("REPRO_SIM_ENGINE", "compiled"),
        ("REPRO_FAULT_PLAN", "store.write:io_error@2*3"),
        ("REPRO_STORE_DIR", ""),          # blank disables persistence
        ("REPRO_SERVE_WORKERS", "4"),
        ("REPRO_SERVE_TIMEOUT", "30"),
        ("REPRO_SERVE_URL", "http://127.0.0.1:8731"),
        ("REPRO_SERVE_URL", ""),          # blank means "not configured"
    ])
    def test_good_values_pass(self, name, value):
        assert validate_environment({name: value}) == []

    def test_store_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        problems = validate_environment({"REPRO_STORE_DIR": str(target)})
        assert len(problems) == 1 and "REPRO_STORE_DIR" in problems[0]
        assert validate_environment(
            {"REPRO_STORE_DIR": str(tmp_path / "fresh")}) == []

    def test_multiple_problems_are_summarized(self):
        error = environment_error({"REPRO_SIM_CACHE_SIZE": "no",
                                   "REPRO_SERVE_WORKERS": "lots"})
        assert error.startswith("invalid environment: ")
        assert "\n" not in error
        assert "+1 more" in error


class TestCliContract:
    def test_bad_env_exits_2_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SIM_CACHE_SIZE", "banana")
        assert main(["list"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: invalid environment: "
                                       "REPRO_SIM_CACHE_SIZE")

    def test_bad_fault_plan_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "store.write:frobnicate")
        assert main(["list"]) == 2
        assert "REPRO_FAULT_PLAN" in capsys.readouterr().err

    def test_clean_env_dispatches(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "2")
        assert main(["list"]) == 0
        assert "kernels" in capsys.readouterr().out


class TestStoreSubcommand:
    @pytest.fixture()
    def store_env(self, tmp_path, monkeypatch):
        root = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_STORE_DIR", root)
        return root

    def test_no_store_configured_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["store", "stats"]) == 2
        assert "no artifact store" in capsys.readouterr().err

    def test_stats_verify_gc_clear_cycle(self, store_env, capsys):
        from repro.store import ArtifactStore
        ArtifactStore(store_env).put("ir", "k", b"payload")

        assert main(["store", "stats"]) == 0
        assert "1 blob(s)" in capsys.readouterr().out

        assert main(["store", "verify"]) == 0
        assert "ok" in capsys.readouterr().out

        assert main(["store", "gc", "--max-blobs", "0"]) == 0
        assert "evicted 1" in capsys.readouterr().out

        assert main(["store", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_gc_without_budget_exits_2(self, store_env, capsys):
        assert main(["store", "gc"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_verify_reports_corruption_with_exit_1(self, store_env, capsys):
        from repro.store import ArtifactStore
        path = ArtifactStore(store_env).put("ir", "k", b"payload")
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            handle.seek(size - 1)
            handle.write(b"\x00")
        assert main(["store", "verify"]) == 1
        assert "1 quarantined" in capsys.readouterr().out

    def test_dir_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        root = str(tmp_path / "flag-store")
        from repro.store import ArtifactStore
        ArtifactStore(root).put("ir", "k", b"payload")
        assert main(["store", "stats", "--dir", root]) == 0
        assert root in capsys.readouterr().out
