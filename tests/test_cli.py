"""CLI driver: subcommands, file format, exit codes, determinism."""

import hashlib
import inspect
import json
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

import f2reglab
from f2reglab import FunctionTable, instance, read_table, write_table
from f2reglab.cli import main, parse_epsilon
from f2reglab.tableio import (
    MalformedHeaderError,
    TruncatedPayloadError,
    ValueRangeError,
)

S2_VALUES = [1.0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEpsilonParsing:
    def test_rational(self):
        from fractions import Fraction

        assert parse_epsilon("1/48") == Fraction(1, 48)

    def test_decimal_exact(self):
        from fractions import Fraction

        assert parse_epsilon("0.03125") == Fraction(1, 32)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_epsilon("0")


class TestTableFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        f = FunctionTable(10, rng.random(1024))
        path = tmp_path / "t.f2fn"
        write_table(path, f)
        back = read_table(path)
        assert back.n == 10
        assert f.values.tobytes() == back.values.tobytes()

    def test_header_layout(self, tmp_path):
        f = FunctionTable(2, np.array([0.0, 0.5, 1.0, 0.25]))
        path = tmp_path / "t.f2fn"
        write_table(path, f)
        raw = path.read_bytes()
        assert raw[:4] == b"F2FN" and raw[4] == 1
        assert struct.unpack("<I", raw[5:9])[0] == 2
        assert len(raw) == 9 + 8 * 4

    def test_truncated_payload(self, tmp_path):
        f = FunctionTable(4, np.full(16, 0.5))
        path = tmp_path / "t.f2fn"
        write_table(path, f)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_table(path)

    def test_length_mismatch_is_malformed(self, tmp_path):
        f = FunctionTable(4, np.full(16, 0.5))
        path = tmp_path / "t.f2fn"
        write_table(path, f)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(MalformedHeaderError):
            read_table(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.f2fn"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(MalformedHeaderError):
            read_table(path)

    def test_value_out_of_range(self, tmp_path):
        path = tmp_path / "t.f2fn"
        payload = np.array([0.5, 2.0], dtype="<f8").tobytes()
        path.write_bytes(struct.pack("<4sBI", b"F2FN", 1, 1) + payload)
        with pytest.raises(ValueRangeError):
            read_table(path)


class TestGenEval:
    def test_gen_writes_canonical_table(self, tmp_path, capsys):
        table_path = tmp_path / "f.f2fn"
        code, out, _ = run_cli(
            capsys, "gen", "--s", "2", "--seed", "1", "--out", str(table_path)
        )
        assert code == 0
        assert read_table(table_path).values.tolist() == S2_VALUES
        manifest = json.loads(out)
        assert manifest["s"] == 2 and manifest["xi"] == {"1": [1], "2": [1, 2]}

    def test_gen_manifest_path_and_stdout_pinned(self, tmp_path, capsys):
        # sha256 of the s = 3 manifest; --manifest writes the same bytes
        path = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "gen", "--s", "3", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1cf71dc8770f7a0c96b0ba9a7977701ce4fe459aef7f3613bc6cdae75ac1fd7b"
        )
        assert run_cli(capsys, "gen", "--s", "3", "--seed", "0", "--manifest", str(path)) == (
            0, "", ""
        )
        assert path.read_text() == out

    def test_gen_large_s_without_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--s", "4", "--seed", "1", "--samples", "500"
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["dense"] is False and manifest["n"] == 267

    def test_gen_refuses_table_for_large_s(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--s", "4", "--samples", "500",
            "--out", str(tmp_path / "f.f2fn"),
        )
        assert code == 2 and "dense" in err

    def test_eval_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--s", "2", "--seed", "1", "--x-bits", "101"
        )
        assert code == 0
        record = json.loads(out)
        assert record["value_float"] == 0.0 and record["value"] == "0"

    def test_eval_zero_point_large_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--s", "4", "--seed", "1", "--samples", "500", "--x", "0"
        )
        assert code == 0
        assert json.loads(out)["value_float"] == 1.0

    def test_eval_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--s", "2", "--x", "8")
        assert code == 2 and "domain" in err

    @pytest.mark.parametrize("bits", ["1", "1000000"])
    def test_eval_x_bits_of_another_length_exit_2(self, capsys, bits):
        # the s = 2 instance has n = 3 coordinates
        code, out, err = run_cli(capsys, "eval", "--s", "2", "--x-bits", bits)
        assert code == 2 and out == "" and "n=3" in err

    @pytest.mark.parametrize("point, message", [
        (["--x-bits", "1"], "1 coordinates, not n=267"),
        (["--x", str(1 << 267)], f"point {1 << 267} outside the 2^267 domain"),
    ], ids=["x-bits", "x"])
    def test_eval_refuses_a_point_before_generating(self, capsys, monkeypatch, point, message):
        # an s = 4 instance takes seconds to generate; a bad point needs none of it
        def generate(*args, **kwargs):
            pytest.fail("the instance was generated before the point was checked")

        monkeypatch.setattr(instance.Instance, "generate", generate)
        code, out, err = run_cli(capsys, "eval", "--s", "4", *point)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--s", "2", "--retries", "5"],
        ["eval", "--s", "2", "--x", "0", "--retries", "5"],
        ["verify-lowerbound", "--s", "2", "--retries", "5"],
        ["verify-lowerbound", "--s", "2", "--samples", "500"],
    ])
    def test_instance_commands_refuse_unread_flags(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


class TestCheckDecompose:
    @pytest.fixture
    def table_path(self, tmp_path, capsys):
        path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "2", "--seed", "1", "--out", str(path))
        return path

    def test_check_irregular_line(self, table_path, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--in", str(table_path), "--basis", "1", "--eps", "1/32"
        )
        assert code == 0
        report = json.loads(out)
        assert report["regular"] is False
        assert report["irregular_cosets"] == 3
        assert report["epsilon"] == "1/32"

    def test_check_zero_subspace(self, table_path, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--in", str(table_path), "--basis", "0", "--eps", "1/32"
        )
        assert code == 0 and json.loads(out)["regular"] is True

    def test_decompose_trace_and_csv(self, table_path, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "decompose", "--in", str(table_path), "--eps", "1/32",
            "--csv", str(csv_path),
        )
        assert code == 0
        trace = json.loads(out)
        assert trace["succeeded"] is True and trace["final_index"] == 8
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "iteration,index,energy"
        assert len(lines) == len(trace["iterations"]) + 2

    def test_decompose_three_block_instance(self, tmp_path, capsys):
        path = tmp_path / "f3.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "1", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "decompose", "--in", str(path), "--eps", "0.02"
        )
        assert code == 0
        trace = json.loads(out)
        assert trace["final_index"] == 2048 and trace["final_dim"] == 0

    def test_decompose_guard_exit(self, table_path, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--in", str(table_path), "--eps", "1/32",
            "--max-index-log2", "0",
        )
        assert code == 2
        assert json.loads(out)["status"] == "index-guard"

    @pytest.mark.parametrize("basis", ["9,2", "-1"])
    def test_check_basis_out_of_range_exit_2(self, table_path, capsys, basis):
        code, out, err = run_cli(
            capsys, "check", "--in", str(table_path), f"--basis={basis}", "--eps", "1/32"
        )
        assert code == 2 and out == ""
        assert "out of range" in err

    @pytest.mark.parametrize("argv", [
        ("check", "--in", "{table}", "--basis", "1", "--eps", "1/0"),
        ("decompose", "--in", "{table}", "--eps", "1/0"),
        ("verify-lowerbound", "--s", "2", "--eps", "1/0"),
        ("spanning", "--d", "3", "--rho", "1/0"),
    ])
    def test_zero_denominator_exit_2(self, table_path, capsys, argv):
        code, out, err = run_cli(capsys, *(a.format(table=table_path) for a in argv))
        assert code == 2 and out == "" and "zero denominator" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--in", "/nonexistent", "--basis", "1", "--eps", "1/32")
        assert code == 2


class TestVerifyLowerbound:
    def test_exhaustive_s2(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lowerbound", "--s", "2", "--eps", "0.03125",
            "--mode", "exhaustive", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["checked"] == 15 and report["certified"] == 15
        assert report["zero_subspace_regular"] is True

    def test_epsilon_defaults_to_max_level(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lowerbound", "--s", "2", "--mode", "exhaustive", "--seed", "1"
        )
        assert code == 0 and json.loads(out)["epsilon"] == "1/32"

    def test_structured_sample(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lowerbound", "--s", "3", "--eps", "1/48",
            "--mode", "sampled", "--random-per-dim", "5", "--seed", "2",
        )
        assert code == 0 and json.loads(out)["checked"] == 50

    def test_large_eps_fails_with_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lowerbound", "--s", "2", "--eps", "0.4999",
            "--mode", "exhaustive", "--no-strict",
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_strict_violation_reports_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lowerbound", "--s", "2", "--eps", "0.4999",
            "--mode", "exhaustive",
        )
        assert code == 1
        assert json.loads(out)["schema"] == "f2reglab/claim-failure"

    def test_claim_failure_record_pinned(self, capsys):
        # sha256 of the claim-failure record: sorted keys, indent 2, one
        # trailing newline, as every report
        code, out, _ = run_cli(
            capsys, "spanning", "--d", "3", "--count", "3", "--rho", "51/100", "--retries", "2"
        )
        assert code == 1
        assert json.loads(out)["error"] == "RetryLimitError"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4d0d190f7cd7662d55b6d6336e6aa3c584858b6e8dac51a8778cd1d460318f5a"
        )


class TestSpanningRound:
    def test_spanning_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "spanning", "--d", "8", "--seed", "42")
        assert code == 0
        record = json.loads(out)
        assert record["count"] == 64
        assert record["check"]["ok"] is True
        assert record["check"]["incidence"] <= 48
        assert len(record["vectors"]) == 64

    def test_spanning_sampled_pinned(self, capsys):
        # d above the dense limit takes the sampled check; stdout recorded
        # with the per-sample loop (incidence 183, worst 762340431735)
        code, out, _ = run_cli(
            capsys, "spanning", "--d", "40", "--dense-limit", "20", "--samples", "300",
            "--seed", "5",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6387c004a41a55c561315ab69e4b09bf41720594de126ce5da71ab1d98abb66a"
        )

    def test_spanning_reports_the_accepting_check(self, capsys):
        # rho = 183/320 is near this family size's sampled incidence; the
        # recorded check must be the one the accepted family passed
        code, out, _ = run_cli(
            capsys, "spanning", "--d", "40", "--dense-limit", "20", "--samples", "300",
            "--rho", "183/320", "--seed", "1", "--retries", "20",
        )
        assert code == 0
        assert json.loads(out)["check"]["ok"] is True

    def test_spanning_checks_family_once(self, capsys, monkeypatch):
        calls = []
        sampled = instance.verify_spanning_family_sampled

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return sampled(*args, **kwargs)

        monkeypatch.setattr(instance, "verify_spanning_family_sampled", counting)
        code, _, _ = run_cli(
            capsys, "spanning", "--d", "40", "--dense-limit", "20", "--samples", "300",
            "--seed", "5",
        )
        assert code == 0 and calls == [5]

    def test_spanning_truncation_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "spanning", "--d", "18", "--count", "70000", "--seed", "1"
        )
        record = json.loads(out)
        assert code == 0 and record["count"] == 70000
        assert len(record["vectors"]) == 65536 and record["vectors_omitted"] == 4464

    def test_spanning_zero_samples_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "spanning", "--d", "40", "--dense-limit", "20", "--samples", "0",
            "--seed", "5",
        )
        assert code == 2 and out == "" and "samples" in err

    def test_round_report_and_table(self, tmp_path, capsys):
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "1", "--out", str(table_path))
        out_path = tmp_path / "s.f2fn"
        code, out, _ = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", "0.5",
            "--seed", "5", "--out", str(out_path), "--pairs", "20", "--max-codim", "0",
        )
        assert code == 0
        rounded = read_table(out_path)
        assert set(np.unique(rounded.values)) <= {0.0, 1.0}
        report = json.loads(out)
        assert report["ok"] is True and report["tested_pairs"] == 20

    def test_round_negative_max_codim_exit_2(self, tmp_path, capsys):
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "2", "--seed", "1", "--out", str(table_path))
        out_path = tmp_path / "s.f2fn"
        code, out, err = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", "0.5",
            "--seed", "5", "--out", str(out_path), "--max-codim", "-1",
        )
        assert code == 2 and out == "" and "max_codim must be >= 0" in err
        assert not out_path.exists()

    def test_round_negative_pairs_exit_2(self, tmp_path, capsys):
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "2", "--seed", "1", "--out", str(table_path))
        out_path = tmp_path / "s.f2fn"
        code, out, err = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", "100",
            "--seed", "1", "--out", str(out_path), "--pairs", "-5", "--max-codim", "2",
        )
        assert code == 2 and out == "" and "count of pairs must be >= 0" in err
        assert not out_path.exists()
        code, out, _ = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", "100",
            "--seed", "1", "--out", str(out_path), "--pairs", "0", "--max-codim", "2",
        )
        report = json.loads(out)
        assert code == 0 and report["ok"] is True and report["tested_pairs"] == 0
        assert out_path.exists()

    @pytest.mark.parametrize("max_codim", ["12", "1000000"])
    def test_round_max_codim_above_n_exit_2(self, tmp_path, capsys, max_codim):
        # no subspace of F2^11 has codimension 12: refused before any draw
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "1", "--out", str(table_path))
        out_path = tmp_path / "s.f2fn"
        code, out, err = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", "0.5",
            "--seed", "5", "--out", str(out_path), "--max-codim", max_codim,
        )
        assert code == 2 and out == "" and "exceeds n = 11" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("tau", ["0", "-1", "nan"])
    def test_round_bad_tau_exit_2(self, tmp_path, capsys, tau):
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "2", "--seed", "1", "--out", str(table_path))
        out_path = tmp_path / "s.f2fn"
        code, out, err = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", tau,
            "--seed", "5", "--out", str(out_path),
        )
        assert code == 2 and out == "" and "tau" in err
        assert not out_path.exists()

    def test_round_report_bytes_pinned(self, tmp_path, capsys):
        # sha256 of the report printed by the per-pair defining-mean loop
        table_path = tmp_path / "f.f2fn"
        write_table(table_path, FunctionTable(16, np.random.default_rng(16).random(1 << 16)))
        code, out, _ = run_cli(
            capsys, "round", "--in", str(table_path), "--tau", "0.3", "--seed", "3",
            "--pairs", "50", "--max-codim", "4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["tested_pairs"] == 28 and report["skipped_small"] == 22
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c672abc96ac7c64f76ef503a66b4bef771b879ea6a416bc52a39585a2e07923d"
        )


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every line of README's CLI block exits 0, run in order in one
    directory (gen writes the f.f2fn that check, decompose and round read)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(line[0] == "f2reglab" for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run_cli(capsys, *line[1:])[0] == 0, line


class TestDeterminism:
    def test_identical_outputs_across_runs_and_thread_env(self, tmp_path, capsys):
        args = [
            "verify-lowerbound", "--s", "3", "--eps", "1/48",
            "--mode", "sampled", "--random-per-dim", "3", "--seed", "11",
        ]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first.encode() == second.encode()

    def test_written_table_bytes_pinned(self, tmp_path, capsys):
        # sha256 of the files written when count tables carried their
        # float values from construction: the instance table, a rounded
        # instance table and a rounded random n = 20 table
        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        g, s, r = tmp_path / "g.f2fn", tmp_path / "s.f2fn", tmp_path / "r.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "1", "--out", str(g))
        run_cli(capsys, "round", "--in", str(g), "--tau", "0.5", "--seed", "5",
                "--pairs", "20", "--max-codim", "0", "--out", str(s))
        t20 = tmp_path / "t20.f2fn"
        write_table(t20, FunctionTable(20, np.random.default_rng(20).random(1 << 20)))
        run_cli(capsys, "round", "--in", str(t20), "--tau", "0.16", "--seed", "7",
                "--pairs", "20", "--out", str(r))
        assert sha(g) == "3d628c6ce098ffd05a98a10f5734b53f655785484ad91d73a623508a5619ddff"
        assert sha(s) == "9f173da219639490174ae5f9815ef91d4cbeee648f0f012d9ff0bf6337c63b5d"
        assert sha(r) == "21eab272724cfa43ba52d8e4cbb1732029b728f6d30aa2e9214ed0abae4f85b9"

    def test_table_bytes_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.f2fn", tmp_path / "b.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "9", "--out", str(a))
        run_cli(capsys, "gen", "--s", "3", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestGuards:
    def test_dense_limit_exit_2(self, tmp_path, capsys):
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "1", "--out", str(table_path))
        code, _, err = run_cli(
            capsys, "check", "--in", str(table_path), "--basis", "1",
            "--eps", "1/48", "--dense-limit", "5",
        )
        assert code == 2 and "dense limit" in err

    @pytest.mark.parametrize("argv", [
        ["check", "--basis", "1", "--eps", "1/48", "--dense-limit", "5"],
        ["decompose", "--eps", "1/48", "--dense-limit", "5"],
        ["round", "--tau", "0.5", "--dense-limit", "5"],
        ["verify-lowerbound", "--s", "3", "--dense-limit", "10"],
        ["gen", "--s", "3", "--dense-limit", "10"],
    ])
    def test_dense_limit_refusals_exit_2(self, tmp_path, capsys, argv):
        # the table commands refuse the n = 11 table at read time, and
        # verify-lowerbound and gen --out refuse the instance's table, all
        # with the same message naming n and the limit
        table_path = tmp_path / "f.f2fn"
        run_cli(capsys, "gen", "--s", "3", "--seed", "1", "--out", str(table_path))
        gen_out = tmp_path / "g.f2fn"
        if argv[0] == "gen":
            argv = argv + ["--out", str(gen_out)]
        elif argv[0] != "verify-lowerbound":
            argv = [argv[0], "--in", str(table_path)] + argv[1:]
        limit = argv[argv.index("--dense-limit") + 1]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"materializing 2^11 table entries exceeds the dense limit 2^{limit}" in err
        assert not gen_out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--s", "4", "--out"],
        ["verify-lowerbound", "--s", "4"],
    ])
    def test_s4_table_refused_before_generation(self, tmp_path, capsys, monkeypatch, argv):
        # n = 267 follows from the block dims, so the guard runs before
        # the instance, with its 10^6-sample spanning check, is generated
        def generate(*args, **kwargs):
            raise AssertionError("the instance was generated")

        monkeypatch.setattr(f2reglab.Instance, "generate", generate)
        out_path = tmp_path / "x.f2fn"
        if argv[0] == "gen":
            argv = argv + [str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "materializing 2^267 table entries exceeds the dense limit 2^26" in err
        assert not out_path.exists()

    def test_xi_family_over_the_limit_refused_by_generation(self, tmp_path, capsys):
        # block 3 needs 2^3 xi entries: generation refuses those first
        out_path = tmp_path / "x.f2fn"
        code, out, err = run_cli(
            capsys, "gen", "--s", "3", "--dense-limit", "2", "--out", str(out_path)
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert "materializing 2^3 xi entries for block 3 exceeds the dense limit 2^2" in err

    @pytest.mark.parametrize("name", [
        "wht_full", "restricted_spectrum", "check_subspace_regularity", "energy",
        "find_regular_subspace", "witness_scan", "w_average_coefficient",
        "corollary_fraction", "exhaustive_lowerbound_check", "deviation_report",
    ])
    def test_table_consumers_take_no_dense_limit(self, name):
        # the limit is checked where tables and enumerations are created
        assert "dense_limit" not in inspect.signature(getattr(f2reglab, name)).parameters

    @pytest.mark.parametrize("argv, message", [
        (["--s", "2", "--mode", "structured", "--max-codim", "3"],
         "max_enumerated_codim 3 out of range 0..2 for n = 3"),
        (["--s", "2", "--random-per-dim", "-5"], "random_per_dim must be non-negative, got -5"),
        (["--s", "2", "--mode", "structured", "--max-codim", "-3"],
         "max_enumerated_codim -3 out of range 0..2"),
        (["--s", "3", "--max-codim", "99"], "max_enumerated_codim 99 out of range 0..10 for n = 11"),
        (["--s", "1", "--mode", "structured"], "max_enumerated_codim 1 out of range 0..0"),
    ])
    def test_lowerbound_walk_bounds_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify-lowerbound", *argv)
        assert code == 2 and out == "" and message in err

    def test_lowerbound_s1_defaults_exit_0(self, capsys):
        # auto mode walks F2^1 exhaustively; --max-codim only bounds the
        # structured walk, so its default of 1 is not refused here
        code, out, _ = run_cli(capsys, "verify-lowerbound", "--s", "1")
        report = json.loads(out)
        assert code == 0 and report["ok"] and report["mode"] == "exhaustive"

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
