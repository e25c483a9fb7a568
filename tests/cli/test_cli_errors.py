"""CLI error paths: bad input exits non-zero with a one-line message.

``python -m repro`` is the shell surface of the toolchain; an unknown
kernel, a malformed ``-p`` pair or a bogus engine/pipeline name must read
like a tool diagnostic, never a Python traceback.  In-process tests pin the
exit codes and messages; one subprocess test pins the no-traceback contract
end to end.
"""

import os
import subprocess
import sys

import pytest

from repro.__main__ import main


class TestInProcess:
    def test_unknown_kernel_exits_nonzero(self, capsys):
        code = main(["build", "no_such_kernel"])
        captured = capsys.readouterr()
        assert code != 0
        assert "error:" in captured.err
        assert "unknown kernel" in captured.err
        assert "no_such_kernel" in captured.err

    def test_unknown_kernel_lists_registry(self, capsys):
        code = main(["simulate", "gemmm"])
        captured = capsys.readouterr()
        assert code != 0
        assert "registered kernels" in captured.err

    @pytest.mark.parametrize("pair", ["size", "=8", "size=big", "size="])
    def test_malformed_param_exits_nonzero(self, pair, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "gemm", "-p", pair])
        # SystemExit with a string message: non-zero status, one-line reason.
        message = str(excinfo.value)
        assert message and "\n" not in message
        assert f"bad -p {pair!r}" in message

    def test_invalid_engine_exits_nonzero(self, capsys):
        code = main(["simulate", "gemm", "-p", "size=4",
                     "--engine", "warp-drive"])
        captured = capsys.readouterr()
        assert code != 0
        assert "error:" in captured.err
        assert "warp-drive" in captured.err
        # The message must enumerate the valid engines.
        assert "interpreted" in captured.err

    def test_invalid_pipeline_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "gemm", "--pipeline", "hyper"])
        assert excinfo.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_fuzz_unknown_oracle_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--count", "1", "--oracles", "teapot",
                  "--no-repro"])
        message = str(excinfo.value)
        assert "unknown oracle" in message and "teapot" in message


class TestSubprocess:
    def _run(self, *args, **env_overrides):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ, **env_overrides)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, cwd=root, env=env, timeout=120,
        )

    def test_unknown_kernel_no_traceback(self):
        result = self._run("build", "definitely_not_a_kernel")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert "unknown kernel" in result.stderr
        # One line of diagnostics, not a dump.
        assert len(result.stderr.strip().splitlines()) == 1

    def test_invalid_engine_no_traceback(self):
        result = self._run("simulate", "gemm", "-p", "size=4",
                           "--engine", "nope")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_injected_compile_fault_is_a_one_line_error(self):
        # A fresh process compiles the fused run, so the fault fires.
        result = self._run("simulate", "gemm", "-p", "size=4",
                           REPRO_FAULT_PLAN="engine.compile:error",
                           REPRO_SIM_ENGINE="vector")
        assert result.returncode == 2
        assert result.stderr == (
            "error: injected error at fault point 'engine.compile'\n")

    def test_malformed_param_no_traceback(self):
        result = self._run("build", "gemm", "-p", "size=abc")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
