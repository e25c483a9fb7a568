"""The CLI's default simulation engine is ``vector``.

With neither ``--engine`` nor ``REPRO_SIM_ENGINE``, ``repro simulate`` runs
the fused vector engine and ``repro list`` names it as the default; the
environment variable, read when the command runs, overrides it.
"""

import pytest

from repro.__main__ import main


@pytest.fixture(autouse=True)
def no_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)


def test_simulate_runs_vector_without_engine_flag(capsys):
    assert main(["simulate", "gemm", "-p", "size=4"]) == 0
    out = capsys.readouterr().out
    assert "engine=vector " in out and out.rstrip().endswith("ok")


def test_list_names_vector_as_default(capsys):
    assert main(["list"]) == 0
    assert "(default: vector)" in capsys.readouterr().out


def test_environment_overrides_the_default(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
    assert main(["list"]) == 0
    assert "(default: compiled)" in capsys.readouterr().out
    assert main(["simulate", "gemm", "-p", "size=4"]) == 0
    assert "engine=compiled " in capsys.readouterr().out


def test_report_has_no_engine_flag(capsys):
    """Validation pins ``differential``; nothing else ``report`` runs reads
    an engine, so the flag is gone."""
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--quick", "--engine", "compiled"])
    assert exit_info.value.code == 2
    assert "--engine" in capsys.readouterr().err
