"""Tests running the expert's generated analysis code in the sandbox.

These exercise the actual information path of the reproduction: the
code the "model" writes must compute correct metrics from real CSV
extractions.
"""

from __future__ import annotations

import json

import pytest

from repro.llm.expert import codegen
from repro.llm.interpreter import CodeInterpreter
from repro.util.units import MIB


def run_code(extraction, code):
    interpreter = CodeInterpreter(extraction.directory)
    stdout = interpreter.run_or_raise(code)
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 1
    return json.loads(lines[0])


class TestSmallIoCode:
    def test_easy_trace_metrics(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.small_io_code(
                easy_extraction.path_for("POSIX"), 4 * MIB, MIB
            ),
        )
        assert metrics["total_ops"] == 8192
        assert metrics["small_fraction"] == 1.0
        assert metrics["tiny_fraction"] == 1.0
        assert metrics["consec_fraction"] > 0.99
        assert metrics["common_access_sizes"][0][0] == 2048
        assert metrics["ranks"] == 4
        assert metrics["files"] == 1

    def test_rpc_size_threshold_respected(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.small_io_code(
                easy_extraction.path_for("POSIX"), 1024, 1024
            ),
        )
        # With a 1 KiB "RPC", the 2 KiB ops are not small.
        assert metrics["small_fraction"] == 0.0


class TestMisalignedCode:
    def test_easy_trace_misalignment(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.misaligned_code(
                easy_extraction.path_for("POSIX"),
                easy_extraction.path_for("LUSTRE"),
                MIB,
            ),
        )
        assert metrics["misaligned_fraction"] == pytest.approx(0.998, abs=1e-3)
        assert metrics["stripe_sizes"] == [MIB]
        assert metrics["worst_file"].endswith("ior_file_easy")

    def test_works_without_lustre_csv(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.misaligned_code(
                easy_extraction.path_for("POSIX"), None, MIB
            ),
        )
        assert metrics["stripe_sizes"] == [MIB]


class TestRandomCode:
    def test_easy_trace_is_consecutive(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.random_access_code(
                easy_extraction.path_for("POSIX"),
                easy_extraction.path_for("DXT"),
            ),
        )
        assert metrics["source"] == "dxt"
        assert metrics["consecutive_fraction"] > 0.99
        assert metrics["random_fraction"] < 0.01

    def test_random_trace_detected(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.random_access_code(
                random_extraction.path_for("POSIX"),
                random_extraction.path_for("DXT"),
            ),
        )
        assert metrics["random_fraction"] > 0.3
        assert metrics["random_bytes_fraction"] > 0.3
        assert metrics["repeat_fraction"] < 0.2

    def test_counters_fallback(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.random_access_code(
                random_extraction.path_for("POSIX"), None
            ),
        )
        assert metrics["source"] == "counters"
        assert metrics["random_fraction"] > 0.3


class TestSharedFileCode:
    def test_easy_trace_not_contended(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.shared_file_code(
                easy_extraction.path_for("POSIX"),
                easy_extraction.path_for("LUSTRE"),
                easy_extraction.path_for("DXT"),
                MIB,
            ),
        )
        assert metrics["shared_files"] == 1
        assert metrics["max_ranks_per_file"] == 4
        assert metrics["contended_stripes"] == 0

    def test_random_trace_contended(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.shared_file_code(
                random_extraction.path_for("POSIX"),
                random_extraction.path_for("LUSTRE"),
                random_extraction.path_for("DXT"),
                MIB,
            ),
        )
        assert metrics["contended_stripes"] > 0
        assert metrics["contended_fraction"] > 0.5
        assert metrics["max_ranks_per_stripe"] >= 3

    def test_fallback_without_dxt(self, random_extraction):
        metrics = run_code(
            random_extraction,
            codegen.shared_file_code(
                random_extraction.path_for("POSIX"),
                random_extraction.path_for("LUSTRE"),
                None,
                MIB,
            ),
        )
        assert metrics["shared_files"] == 1
        assert not metrics["dxt_available"]


#: Full stdout of the two DXT-reading snippets, pinned to the output of
#: the ``csv.DictReader`` versions they replaced.
_DXT_SNIPPET_STDOUT = {
    ("easy_extraction", "random_access"): (
        '{"source": "dxt", "classified_ops": 8188'
        ', "consecutive_fraction": 0.999511, "strided_fraction": 0.0'
        ', "random_fraction": 0.000489, "random_ops": 4'
        ', "repeat_ops": 0, "repeat_fraction": 0.0, "random_reads": 4'
        ', "random_writes": 0, "total_reads": 4096'
        ', "total_writes": 4096, "random_read_fraction": 0.000977'
        ', "random_write_fraction": 0.0, "random_bytes": 8192'
        ', "total_bytes": 16777216, "random_bytes_fraction": 0.000488'
        ', "ranks_with_random": 4, "max_random_per_rank": 1'
        ', "mean_random_per_rank": 1.0}\n'
    ),
    ("easy_extraction", "shared_file"): (
        '{"shared_files": 1'
        ', "shared_file_names": ["/lustre/ior-easy/ior_file_easy"]'
        ', "max_ranks_per_file": 4, "dxt_available": true'
        ', "shared_ops": 8192, "contended_stripes": 0'
        ', "contended_ops": 0, "contended_fraction": 0.0'
        ', "max_ranks_per_stripe": 0, "boundary_only": false}\n'
    ),
    ("random_extraction", "random_access"): (
        '{"source": "dxt", "classified_ops": 2868'
        ', "consecutive_fraction": 0.0, "strided_fraction": 0.507322'
        ', "random_fraction": 0.492678, "random_ops": 1413'
        ', "repeat_ops": 0, "repeat_fraction": 0.0'
        ', "random_reads": 707, "random_writes": 706'
        ', "total_reads": 1436, "total_writes": 1436'
        ', "random_read_fraction": 0.49234'
        ', "random_write_fraction": 0.491643, "random_bytes": 5787648'
        ', "total_bytes": 11763712, "random_bytes_fraction": 0.491992'
        ', "ranks_with_random": 4, "max_random_per_rank": 358'
        ', "mean_random_per_rank": 353.25}\n'
    ),
    ("random_extraction", "shared_file"): (
        '{"shared_files": 1'
        ', "shared_file_names": ["/lustre/ior-rnd/IOR_file_random"]'
        ', "max_ranks_per_file": 4, "dxt_available": true'
        ', "shared_ops": 2872, "contended_stripes": 6'
        ', "contended_ops": 2872, "contended_fraction": 1.0'
        ', "max_ranks_per_stripe": 4, "boundary_only": false}\n'
    ),
}


@pytest.mark.parametrize("fixture, snippet", sorted(_DXT_SNIPPET_STDOUT))
def test_dxt_snippet_stdout_pinned(request, fixture, snippet):
    extraction = request.getfixturevalue(fixture)
    if snippet == "random_access":
        code = codegen.random_access_code(
            extraction.path_for("POSIX"), extraction.path_for("DXT")
        )
    else:
        code = codegen.shared_file_code(
            extraction.path_for("POSIX"),
            extraction.path_for("LUSTRE"),
            extraction.path_for("DXT"),
            MIB,
        )
    stdout = CodeInterpreter(extraction.directory).run_or_raise(code)
    assert stdout == _DXT_SNIPPET_STDOUT[(fixture, snippet)]


class TestLoadAndRankZeroCode:
    def test_balanced_trace(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.load_imbalance_code(easy_extraction.path_for("POSIX")),
        )
        assert metrics["ranks"] == 4
        assert metrics["byte_imbalance"] < 0.01

    def test_rank_zero_clean(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.rank_zero_code(easy_extraction.path_for("POSIX")),
        )
        assert metrics["rank0_bytes_share"] == pytest.approx(0.25, abs=0.01)
        assert metrics["rank0_byte_ratio"] == pytest.approx(1.0, abs=0.05)


class TestInterfaceCode:
    def test_no_mpiio_detected(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.no_mpiio_code(easy_extraction.path_for("POSIX"), None, 4),
        )
        assert metrics["posix_ranks"] == 4
        assert not metrics["uses_mpiio"]

    def test_no_collective_without_mpiio_csv(self, easy_extraction):
        metrics = run_code(
            easy_extraction, codegen.no_collective_code(None, 4)
        )
        assert not metrics["mpiio_present"]

    def test_metadata_quiet_on_easy(self, easy_extraction):
        metrics = run_code(
            easy_extraction,
            codegen.metadata_code(easy_extraction.path_for("POSIX"), None),
        )
        assert metrics["meta_ratio"] < 0.01
        assert metrics["opens_per_file"] == pytest.approx(1.0)
