"""Command-line surface: suites, exports, determinism and exit codes."""

import json
import math

import numpy as np
import pytest

from qkzconn import checks
from qkzconn.cli import main
from qkzconn.serialize import lists_to_matrix


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_dybe_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "dybe", "--n", "2", "--seed", "3")
        assert code == 0
        assert "0 failed" in out

    def test_all_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--n", "2")
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "elliptic", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "verification_report"
        assert payload["exit_code"] == 0
        assert all(r["status"] == "ran" for r in payload["results"])

    def test_degenerate_coupling_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hecke", "--kappa", "0")
        assert code == 2
        assert "inconclusive" in out

    def test_determinism_modulo_timings(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "all", "--n", "2", "--format", "json", "--seed", "11")
        _, out2, _ = run_cli(capsys, "verify", "all", "--n", "2", "--format", "json", "--seed", "11")
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("timings")
        p2.pop("timings")
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_site_count_above_cap_is_usage_error(self, capsys):
        assert run_cli(capsys, "verify", "hecke", "--n", "7")[0] == 2

    def test_nan_residual_is_null_in_strict_json(self, capsys, monkeypatch):
        real = checks.rel_residual
        calls = []

        def nan_on_second_call(a, b):
            calls.append(1)
            return math.nan if len(calls) == 2 else real(a, b)

        monkeypatch.setattr(checks, "rel_residual", nan_on_second_call)
        code, out, _ = run_cli(capsys, "verify", "dybe", "--n", "2", "--format", "json")
        assert code == 1
        payload = json.loads(out, parse_constant=_reject_constant)
        (result,) = [r for r in payload["results"] if r["check"] == "dyn-unitarity"]
        assert result["residual"] is None
        assert result["passed"] is False

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nn = 2\nkappa = 0.27\n# comment\n")
        code, out, _ = run_cli(
            capsys, "verify", "elliptic", "--config", str(cfg), "--format", "json", "--seed", "9"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["seed"] == 9
        assert payload["config"]["n"] == 2


class TestRMatrix:
    def test_identity_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "rmatrix", "--x", "0")
        assert code == 0
        payload = json.loads(out)
        mat = lists_to_matrix(payload["entries"])
        assert np.max(np.abs(mat - np.eye(9))) < 1e-12

    def test_sparsity_labels(self, capsys):
        code, out, _ = run_cli(capsys, "rmatrix", "--x", "0.3+0.1j", "--seed", "4")
        payload = json.loads(out)
        assert payload["basis"][0] == "v1*v1"
        mat = lists_to_matrix(payload["entries"])
        labels = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        for i, row_label in enumerate(labels):
            for j, col_label in enumerate(labels):
                if sorted(row_label) != sorted(col_label):
                    assert mat[i, j] == 0.0

    def test_round_trip_bit_identical(self, capsys):
        code, out, _ = run_cli(capsys, "rmatrix", "--x", "0.3+0.1j", "--seed", "4")
        payload = json.loads(out)
        mat = lists_to_matrix(payload["entries"])
        from qkzconn.serialize import dumps, dynamical_r_payload, pair_to_complex

        rebuilt = dynamical_r_payload(
            payload["parameters"]["p"],
            pair_to_complex(payload["parameters"]["kappa"]),
            [pair_to_complex(t) for t in payload["parameters"]["phi"]],
            pair_to_complex(payload["parameters"]["x"]),
            mat,
            payload["residuals"],
        )
        assert dumps(rebuilt) == out.strip()


class TestDecompose:
    def test_rank2_block_count(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        blocks = payload["blocks"]
        assert len(blocks) == 6
        dims = sorted(len(b["basis_map"]) for b in blocks)
        assert dims == [1, 1, 1, 2, 2, 2]

    def test_rank3_dimensions(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "3")
        payload = json.loads(out)
        assert len(payload["blocks"]) == 10
        assert sum(len(b["basis_map"]) for b in payload["blocks"]) == 27
        assert all(b["eigen_residual"] < 1e-10 for b in payload["blocks"])
        assert all(b["max_sign_residual"] < 1e-10 for b in payload["blocks"])

    def test_too_small_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--n", "1")
        assert code == 2


class TestConnectionCommand:
    def test_identity_word(self, capsys):
        code, out, _ = run_cli(capsys, "connection", "--n", "2", "--w", "e", "--z", "0.2,0.1")
        assert code == 0
        payload = json.loads(out)
        for block in payload["blocks"]:
            mat = lists_to_matrix(block["entries"])
            assert np.array_equal(mat, np.eye(mat.shape[0]))

    def test_braid_words_agree(self, capsys):
        z = "0.21+0.05j,0.02,-0.3+0.11j"
        code1, out1, _ = run_cli(capsys, "connection", "--n", "3", "--w", "s1 s2 s1", "--z", z)
        code2, out2, _ = run_cli(capsys, "connection", "--n", "3", "--w", "s2 s1 s2", "--z", z)
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1), json.loads(out2)
        for b1, b2 in zip(p1["blocks"], p2["blocks"]):
            m1, m2 = lists_to_matrix(b1["entries"]), lists_to_matrix(b2["entries"])
            assert np.max(np.abs(m1 - m2)) < 1e-9 * max(1.0, float(np.max(np.abs(m1))))
        t1, t2 = lists_to_matrix(p1["tensor_operator"]), lists_to_matrix(p2["tensor_operator"])
        assert np.max(np.abs(t1 - t2)) < 1e-9 * max(1.0, float(np.max(np.abs(t1))))

    def test_word_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "connection", "--n", "2", "--w", "garbage")
        assert code == 2

    def test_rank2_matches_rmatrix(self, capsys):
        # the two-site tensor operator for the flip is the exported R-matrix at z1 - z2
        code1, out1, _ = run_cli(
            capsys, "connection", "--n", "2", "--w", "s1", "--z", "0.25,0.05", "--seed", "4"
        )
        code2, out2, _ = run_cli(capsys, "rmatrix", "--x", "0.2", "--seed", "4")
        t = lists_to_matrix(json.loads(out1)["tensor_operator"])
        r = lists_to_matrix(json.loads(out2)["entries"])
        assert np.max(np.abs(t - r)) < 1e-9


class TestOutputFile:
    def test_out_writes_table_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code = main(["verify", "elliptic", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        sidecar = tmp_path / "report.txt.json"
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        assert payload["kind"] == "verification_report"


#: usage errors: refused before any report or export is written
_USAGE_ERRORS = [
    ("verify", "dybe", "--n", "3", "--tol", "nan"),
    ("verify", "dybe", "--n", "3", "--tol", "inf"),
    ("verify", "elliptic", "--config", "/nonexistent"),
    ("rmatrix", "--out", "/nonexistent/dir/x.json"),
]


class TestEvaluationFailuresAreInconclusive:
    """Poles, overflow, non-finite coefficients and usage errors end in exit
    code 2, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "all", "--phi", "800,0,0"),
            ("rmatrix", "--phi", "800,0,0"),
            ("verify", "dybe", "--p", "0.999"),
            ("verify", "elliptic", "--p", "1e-300"),
            ("rmatrix", "--phi", "0.1,0.5,200"),
            *_USAGE_ERRORS,
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        if argv in _USAGE_ERRORS:
            assert out == ""
            assert len(err.splitlines()) == 1
        elif argv[0] == "rmatrix":
            assert out == ""  # nothing exported
            assert err.startswith("inconclusive:")
        else:
            assert "0 failed" in out
            assert "inconclusive" in out
