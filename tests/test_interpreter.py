"""Tests for the sandboxed code interpreter."""

from __future__ import annotations

import threading

import pytest

from repro.llm.interpreter import CodeInterpreter
from repro.util.errors import CodeInterpreterError


@pytest.fixture()
def interpreter(tmp_path):
    (tmp_path / "data.csv").write_text("a,b\n1,2\n3,4\n")
    return CodeInterpreter(tmp_path)


@pytest.fixture()
def runtime_only(tmp_path):
    """An interpreter with static vetting off.

    The runtime-sandbox tests target the *second* containment layer
    (guarded import/open/builtins); with the default enforce guard the
    static layer would reject these snippets before execution.
    """
    (tmp_path / "data.csv").write_text("a,b\n1,2\n3,4\n")
    return CodeInterpreter(tmp_path, guard="off")


class TestExecution:
    def test_print_captured(self, interpreter):
        result = interpreter.run("print('hello', 42)")
        assert result.ok
        assert result.stdout == "hello 42\n"

    def test_csv_and_json_available(self, interpreter):
        code = (
            "import csv, json\n"
            "with open('data.csv') as fh:\n"
            "    rows = list(csv.DictReader(fh))\n"
            "print(json.dumps({'count': len(rows)}))\n"
        )
        result = interpreter.run(code)
        assert result.ok
        assert '"count": 2' in result.stdout

    def test_relative_paths_resolve_to_workdir(self, interpreter):
        result = interpreter.run("print(open('data.csv').readline().strip())")
        assert result.stdout == "a,b\n"

    def test_runtime_error_reported_as_traceback(self, interpreter):
        result = interpreter.run("x = 1 / 0")
        assert not result.ok
        assert "ZeroDivisionError" in result.error

    def test_syntax_error_reported(self, interpreter):
        result = interpreter.run("def broken(:")
        assert not result.ok
        assert "SyntaxError" in result.error

    def test_run_or_raise(self, interpreter):
        assert interpreter.run_or_raise("print('x')") == "x\n"
        with pytest.raises(CodeInterpreterError):
            interpreter.run_or_raise("raise ValueError('boom')")

    def test_output_clipped(self, tmp_path):
        interpreter = CodeInterpreter(tmp_path, output_limit=100)
        result = interpreter.run("print('y' * 1000)")
        assert result.ok
        assert len(result.stdout) < 200
        assert "truncated" in result.stdout


    @pytest.mark.parametrize("tail", ["", "x = 1 / 0\n"], ids=["ok", "error"])
    def test_namespace_released_after_run(self, tmp_path, tail):
        """A snippet's function closes a reference cycle through its
        globals; the run breaks it, so the snippet's data is freed
        without waiting for a full garbage collection."""
        namespaces = []

        class Capturing(CodeInterpreter):
            def _namespace(self, stdout):
                namespaces.append(super()._namespace(stdout))
                return namespaces[-1]

        Capturing(tmp_path).run("rows = [1, 2]\ndef f():\n    return rows\n" + tail)
        assert namespaces == [{}]


class TestSandboxing:
    """The runtime containment layer, with static vetting disabled."""

    def test_disallowed_import_blocked(self, runtime_only):
        result = runtime_only.run("import os")
        assert not result.ok
        assert "ImportError" in result.error

    def test_subimport_blocked(self, runtime_only):
        result = runtime_only.run("import os.path")
        assert not result.ok

    def test_allowed_imports_work(self, runtime_only):
        result = runtime_only.run(
            "import math, statistics, itertools, re\nprint(math.pi > 3)"
        )
        assert result.ok

    def test_write_mode_blocked(self, runtime_only):
        result = runtime_only.run("open('data.csv', 'w')")
        assert not result.ok
        assert "PermissionError" in result.error

    def test_append_mode_blocked(self, runtime_only):
        assert not runtime_only.run("open('x', 'a')").ok

    def test_path_escape_blocked(self, runtime_only):
        result = runtime_only.run("open('../outside.txt')")
        assert not result.ok
        assert "PermissionError" in result.error

    def test_absolute_escape_blocked(self, runtime_only):
        result = runtime_only.run("open('/etc/hostname')")
        assert not result.ok

    def test_eval_exec_removed(self, runtime_only):
        assert not runtime_only.run("eval('1+1')").ok
        assert not runtime_only.run("exec('x=1')").ok

    def test_dunder_import_removed(self, runtime_only):
        assert not runtime_only.run("__import__('os')").ok


class TestRuntimeHardening:
    """Defense in depth behind the static guard (satellite 2)."""

    def test_getattr_cannot_reach_underscore_attributes(self, runtime_only):
        result = runtime_only.run("print(getattr((), '__class__'))")
        assert not result.ok
        assert "AttributeError" in result.error

    def test_getattr_cannot_reach_blocked_builtin_names(self, runtime_only):
        result = runtime_only.run(
            "import json\nprint(getattr(json, 'eval', None))"
        )
        assert not result.ok
        assert "AttributeError" in result.error

    def test_getattr_with_default_still_guards(self, runtime_only):
        result = runtime_only.run("print(getattr({}, '_secret', 'd'))")
        assert not result.ok

    def test_getattr_on_public_attributes_works(self, runtime_only):
        result = runtime_only.run("print(getattr(dict(a=1), 'get')('a'))")
        assert result.ok
        assert result.stdout == "1\n"

    def test_open_rejects_file_descriptors(self, runtime_only):
        result = runtime_only.run("open(0)")
        assert not result.ok
        assert "PermissionError" in result.error

    def test_open_rejects_dynamic_escape_path(self, runtime_only):
        result = runtime_only.run(
            "p = '/' + 'etc' + '/hostname'\nopen(p)"
        )
        assert not result.ok
        assert "PermissionError" in result.error


class TestGuardWiring:
    """The static layer in front of execution (enforce by default)."""

    def test_enforce_is_the_default(self, tmp_path):
        from repro.sca.policy import GuardPolicy

        assert CodeInterpreter(tmp_path).guard is GuardPolicy.ENFORCE

    def test_enforce_blocks_before_execution(self, interpreter):
        result = interpreter.run("import os\nprint('leaked')")
        assert not result.ok
        assert result.guard_blocked
        assert "GuardViolation" in result.error
        assert "[sca.import]" in result.error
        assert result.stdout == ""

    def test_warn_mode_executes_despite_block_verdict(self, tmp_path):
        from repro.util.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(tmp_path, guard="warn", metrics=metrics)
        result = interpreter.run("import os")
        # Execution proceeded and the *runtime* layer refused the import.
        assert not result.guard_blocked
        assert "ImportError" in result.error
        assert metrics.counter_value("sca.vet.blocked") == 1
        assert metrics.counter_value("sca.vet.rejected") == 0

    def test_enforce_counts_rejections(self, tmp_path):
        from repro.util.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        interpreter = CodeInterpreter(tmp_path, metrics=metrics)
        interpreter.run("print('fine')")
        interpreter.run("x = eval")
        assert metrics.counter_value("sca.vet.checks") == 2
        assert metrics.counter_value("sca.vet.blocked") == 1
        assert metrics.counter_value("sca.vet.rejected") == 1

    def test_vet_emits_span(self, tmp_path):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        interpreter = CodeInterpreter(tmp_path, tracer=tracer)
        interpreter.run("import subprocess")
        spans = [s for s in tracer.spans() if s.name == "sca.vet"]
        assert len(spans) == 1
        assert spans[0].attributes["blocked"] is True
        assert any(e.name == "violation" for e in spans[0].events)


class TestConcurrency:
    def test_parallel_runs_do_not_mix_output(self, tmp_path):
        interpreter = CodeInterpreter(tmp_path)
        outputs: dict[int, str] = {}

        def work(tag: int) -> None:
            code = f"for _ in range(200):\n    print('tag-{tag}')"
            outputs[tag] = interpreter.run(code).stdout

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tag, stdout in outputs.items():
            lines = set(stdout.strip().splitlines())
            assert lines == {f"tag-{tag}"}
