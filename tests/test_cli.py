from __future__ import annotations

import io

import pytest

from braceflows import document_from, parse_file, serialize_document
from braceflows.cli import run_command

RING_DOC = "prelie v1\np 5\nfactors 3\nsc 1 1 -> 5 1\n"
FLOWS_DOC = "brace v1\np 5\nfactors 3\nflows\nsc 1 1 -> 5 1\n"


def run(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = run_command(list(argv), out=buf)
    return code, buf.getvalue()


@pytest.fixture()
def ring_file(tmp_path):
    path = tmp_path / "shift.prelie"
    path.write_text(RING_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture()
def flows_file(tmp_path):
    path = tmp_path / "shift.brace"
    path.write_text(FLOWS_DOC, encoding="utf-8")
    return str(path)


class TestCoeffs:
    def test_alpha_values(self):
        code, text = run("coeffs", "alpha", "-p", "5", "-n", "3")
        assert code == 0
        assert "alpha_1 = 1\n" in text
        assert "alpha_2 = 123\n" in text
        assert "alpha_3 = 6\n" in text
        assert "alpha_4 = 104\n" in text
        assert "CHECK alpha-leading-coefficient-is-1 PASS" in text

    def test_gamma_values(self):
        code, text = run("coeffs", "gamma", "-p", "5", "-n", "3")
        assert code == 0
        assert "gamma_2 = 123\n" in text
        assert "gamma_4 = 0\n" in text

    def test_composite_p_rejected(self):
        code, text = run("coeffs", "alpha", "-p", "6", "-n", "2")
        assert code == 2
        assert text.startswith("ERROR input:")


class TestVerifyCommands:
    def test_verify_prelie_passes(self, ring_file):
        code, text = run("verify-prelie", ring_file, "--exhaustive")
        assert code == 0
        assert "FAIL" not in text
        assert "CHECK left-nilpotent PASS" in text

    def test_verify_brace_witness_on_corruption(self, tmp_path, z25_brace):
        doc = document_from(z25_brace)
        a, b, c = doc.cayley[31]
        doc.cayley[31] = (a, b, z25_brace.group.add(c, (1,)))
        path = tmp_path / "bad.brace"
        path.write_text(serialize_document(doc), encoding="utf-8")
        code, text = run("verify-brace", str(path), "--exhaustive")
        assert code == 1
        assert "FAIL" in text
        assert "witness" in text

    def test_wrong_document_kind(self, ring_file):
        code, text = run("verify-brace", ring_file)
        assert code == 2
        assert "expects a brace document" in text

    def test_missing_file(self):
        code, text = run("verify-prelie", "/nonexistent/ring.prelie")
        assert code == 2
        assert text.startswith("ERROR input:")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "big.prelie"
        path.write_text("prelie v1\np 5\nfactors 4\n", encoding="utf-8")
        code, text = run("verify-prelie", str(path))
        assert code == 2
        assert "ERROR input: line 3" in text
        assert "n < p-1" in text

    def test_quoted_identities(self, flows_file):
        code, text = run("quoted-identities", flows_file, "--samples", "500")
        assert code == 0
        assert "CHECK star-additivity-chain PASS" in text


class TestFlowsCommand:
    def test_document_on_stdout(self, ring_file):
        code, text = run("flows", ring_file, "--exhaustive")
        assert code == 0
        assert text.startswith("brace v1\n")
        assert "flows\nsc 1 1 -> 5 1" in text
        assert "CHECK flows-construction PASS" in text
        assert "nilpotency index 4" in text

    def test_output_file(self, ring_file, tmp_path):
        out = tmp_path / "built.brace"
        code, text = run("flows", ring_file, "-o", str(out))
        assert code == 0
        assert f"WROTE {out}" in text
        doc = parse_file(str(out))
        assert doc.kind == "brace" and doc.flows
        assert doc.sc == {(0, 0): (5,)}

    def test_non_nilpotent_is_structural(self, tmp_path):
        path = tmp_path / "bad.prelie"
        path.write_text("prelie v1\np 5\nfactors 2\nsc 1 1 -> 1 1\n",
                        encoding="utf-8")
        code, text = run("flows", str(path), "--no-verify")
        assert code == 2
        assert text.startswith("ERROR structure:")
        assert "nilpotent" in text


class TestPassageCommands:
    def test_derive_reconstruct_round_trip(self, flows_file, tmp_path):
        ring_out = tmp_path / "derived.prelie"
        code, text = run("derive", flows_file, "--samples", "2000",
                         "-o", str(ring_out))
        assert code == 0
        assert "FAIL" not in text
        derived = parse_file(str(ring_out))
        assert derived.kind == "prelie"
        assert derived.factors == (1,)

        rebuilt_out = tmp_path / "rebuilt.brace"
        code, text = run("reconstruct", flows_file, "--samples", "2000",
                         "-o", str(rebuilt_out))
        assert code == 0
        assert "CHECK reconstruction PASS" in text
        rebuilt = parse_file(str(rebuilt_out))
        assert rebuilt.kind == "brace" and rebuilt.flows

    def test_derive_no_verify(self, flows_file):
        code, text = run("derive", flows_file, "--no-verify")
        assert code == 0
        assert "CHECK derived-ring-construction PASS" in text

    def test_check_main(self, flows_file):
        code, text = run("check-main", flows_file, "--samples", "2000")
        assert code == 0
        assert "CHECK theorem-main PASS" in text

    def test_check_main_summary_file(self, flows_file, tmp_path):
        summary = tmp_path / "summary.txt"
        code, _ = run("check-main", flows_file, "--samples", "2000",
                      "-s", str(summary))
        assert code == 0
        lines = summary.read_text(encoding="utf-8").splitlines()
        assert lines and all(line.endswith("=PASS") for line in lines)
        assert "theorem-main=PASS" in lines


class TestParserBehavior:
    @pytest.mark.parametrize("count", ["0", "-5"])
    @pytest.mark.parametrize("command", ["flows", "verify-prelie"])
    def test_sample_count_below_one_rejected(self, ring_file, capsys, command, count):
        code, text = run(command, ring_file, "--samples", count)
        assert code == 2
        assert text == ""
        assert "--samples: must be at least 1" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run_command(["frobnicate"], out=io.StringIO()) == 2

    def test_no_command(self):
        assert run_command([], out=io.StringIO()) == 2

    def test_selftest_quick(self):
        code, text = run("selftest", "--quick")
        assert code == 0
        assert "ACCEPTANCE" in text or "CHECK" in text
