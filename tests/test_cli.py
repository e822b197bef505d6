"""Command-line surface: suites, exports, determinism and exit codes."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qkzconn
from qkzconn import checks, cli, connection, serialize
from qkzconn.blocks import block_bases, content_block
from qkzconn.cli import main
from qkzconn.connection import connection_words, tensor_monodromy_words
from qkzconn.params import RunConfig, sample_point
from qkzconn.symgroup import content_labels, from_word, min_coset_reps, reduced_word
from qkzconn.tensorspace import BlockOp


def pair_to_complex(pair):
    return complex(pair[0], pair[1])


def lists_to_matrix(rows):
    """The matrix of an export's nested [re, im] lists."""
    return np.array([[pair_to_complex(v) for v in row] for row in rows], dtype=complex)


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

    @pytest.mark.parametrize("p, depth", [("0.35", 40), ("0.6", 59), ("0.7", 84)])
    def test_braid_limit_depth_follows_p(self, capsys, p, depth):
        # the braid-limit depth grows with p, so p^depth stays below the tolerance
        code, out, _ = run_cli(capsys, "verify", "qkz", "--p", p, "--format", "json")
        assert code == 0
        (result,) = [r for r in json.loads(out)["results"] if r["check"] == "braid-limit"]
        assert result["passed"] is True
        assert result["detail"]["depth"] == depth

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_braid_limit_slope_window_follows_p(self, capsys, seed):
        # at p = 0.85 the window 39/78 reads the decay rate; 6/12 read it 36% off
        code, out, _ = run_cli(capsys, "verify", "qkz", "--p", "0.85", "--seed", seed, "--format", "json")
        (result,) = [r for r in json.loads(out)["results"] if r["check"] == "braid-limit"]
        assert result["passed"] is True
        assert result["detail"]["slope_relative_error"] < 0.01

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


#: each run setting: its flag and config key, its RunConfig field, and two
#: non-default values, as text and as read
_SETTING_VALUES = [
    ("p", "p", "0.4", 0.4, "0.5", 0.5),
    ("kappa", "kappa", "0.29+0.01j", 0.29 + 0.01j, "0.31", 0.31),
    ("phi", "phi", "0.1+0.1j,-0.2+0.05j,0.3+0.2j", (0.1 + 0.1j, -0.2 + 0.05j, 0.3 + 0.2j),
     "0,0.1j,0.2", (0, 0.1j, 0.2)),
    ("n", "n", "3", 3, "2", 2),
    ("seed", "seed", "12", 12, "0", 0),
    ("tol", "residual_tol", "2e-9", 2e-9, "3e-10", 3e-10),
    ("out", "out", "report.txt", "report.txt", "other.txt", "other.txt"),
    ("format", "fmt", "json", "json", "table", "table"),
]


def config_of(tmp_path, flags=(), text=None):
    """The RunConfig of ``verify elliptic`` with these flags and config file text."""
    argv = ["verify", "elliptic", *flags]
    if text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(text)
        argv += ["--config", str(path)]
    return cli.build_config(cli._parser().parse_args(argv))


class TestSettings:
    @pytest.mark.parametrize("setting", _SETTING_VALUES, ids=lambda row: row[0])
    def test_a_flag_and_a_config_line_set_the_same_field(self, tmp_path, setting):
        key, field, text, value, _, _ = setting
        want = dataclasses.replace(RunConfig(), **{field: value})
        assert want != RunConfig()
        assert config_of(tmp_path, [f"--{key}={text}"]) == want
        assert config_of(tmp_path, text=f"{key} = {text}\n") == want

    @pytest.mark.parametrize("setting", _SETTING_VALUES, ids=lambda row: row[0])
    def test_a_flag_overrides_its_own_config_key_only(self, tmp_path, setting):
        key, field, _, _, other_text, other = setting
        every_key = "".join(f"{k} = {t}\n" for k, _, t, _, _, _ in _SETTING_VALUES)
        from_file = RunConfig(**{f: v for _, f, _, v, _, _ in _SETTING_VALUES})
        assert config_of(tmp_path, text=every_key) == from_file
        got = config_of(tmp_path, [f"--{key}={other_text}"], every_key)
        assert got == dataclasses.replace(from_file, **{field: other})


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
        from qkzconn.serialize import dumps, dynamical_r_payload

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_records_are_the_content_blocks_and_their_bases(self, capsys, n):
        code, out, _ = run_cli(capsys, "decompose", "--n", str(n))
        assert code == 0
        cfg = RunConfig(n=n)
        ep, phi = cfg.elliptic(), cfg.resolved_phi()
        records = json.loads(out)["blocks"]
        assert [tuple(b["content"]) for b in records] == content_labels(n)
        for record in records:
            r = tuple(record["content"])
            spec, basis = content_block(ep, n, r, phi), block_bases(n)[r]
            assert tuple(record["index_set"]) == spec.index_set
            assert tuple(record["signs"]) == spec.signs
            assert [pair_to_complex(g) for g in record["gamma"]] == list(spec.gamma)
            got = [(tuple(e["multi_index"]), tuple(e["coset_rep"]), e["sign"]) for e in record["basis_map"]]
            assert got == list(zip(basis.images, basis.reps, basis.signs))
            # a float sign would compare equal here, but change the export bytes
            assert all(type(e["sign"]) is int for e in record["basis_map"])

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

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_batch_matches_one_word_routes(self, capsys, n):
        # the blocks come from one elliptic batch, so each may move in its
        # last bits against a batch of its own word alone; the tensor
        # operator is computed on its own and is bit for bit
        letters = [i for k in range(1, n) for i in range(k, 0, -1)]
        z = (0.21 + 0.05j, 0.02, -0.3 + 0.11j, 0.1)[:n]
        text_z = ",".join(str(t) for t in z)
        code, out, _ = run_cli(
            capsys, "connection", "--n", str(n), "--w", " ".join(f"s{i}" for i in letters), f"--z={text_z}"
        )
        assert code == 0
        payload = json.loads(out)
        cfg = RunConfig(n=n)
        ep, phi, labels = cfg.elliptic(), cfg.resolved_phi(), reduced_word(from_word(n, letters))
        assert [tuple(b["content"]) for b in payload["blocks"]] == content_labels(n)
        for block in payload["blocks"]:
            spec = content_block(ep, n, tuple(block["content"]), phi)
            (want,) = connection_words(ep, [(spec, labels, z)])
            assert [tuple(u) for u in block["basis"]] == list(min_coset_reps(n, spec.index_set))
            got = lists_to_matrix(block["entries"])
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        tensor = lists_to_matrix(payload["tensor_operator"])
        (want,) = tensor_monodromy_words(ep, [(phi, labels, z)])
        assert np.array_equal(tensor, want.dense())

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("word", ["e", "s1", "w0"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_text_is_the_dense_reference(self, capsys, n, word, seed):
        # the export, written from the stored blocks of the tensor operator,
        # is byte for byte json.dumps of the payload with the dense nested lists
        if word == "w0":
            word = " ".join(f"s{i}" for k in range(1, n) for i in range(k, 0, -1))
        argv = ["connection", "--n", str(n), "--w", word, "--seed", str(seed)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        cfg = cli.build_config(cli._parser().parse_args(argv))
        ep, phi = cfg.elliptic(), cfg.resolved_phi()
        z = sample_point(cfg.rng(), n, ep.nome)
        labels = reduced_word(cli._parse_word(word, n))
        specs = [content_block(ep, n, r, phi) for r in content_labels(n)]
        mats = connection_words(ep, [(spec, labels, z) for spec in specs])
        blocks = zip(content_labels(n), specs, mats)
        (op,) = tensor_monodromy_words(ep, [(phi, labels, z)])
        dense = serialize.matrix_to_lists(op.dense())
        payload = serialize.connection_payload(cfg.p, complex(cfg.kappa), phi, z, blocks, dense)
        assert out == json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"

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


class ConfigText(str):
    """An argument that stands for a config file holding this text."""


#: usage errors: refused before any report or export is written
_USAGE_ERRORS = [
    ("verify", "dybe", "--n", "3", "--tol", "nan"),
    ("verify", "dybe", "--n", "3", "--tol", "inf"),
    ("verify", "elliptic", "--config", "/nonexistent"),
    ("rmatrix", "--out", "/nonexistent/dir/x.json"),
    ("verify", "dybe", "--seed", "-5"),
    ("verify", "elliptic", "--config", ConfigText("phi = 1,2\n")),
    ("verify", "elliptic", "--config", ConfigText("kappa = abc\n")),
    ("verify", "elliptic", "--config", ConfigText("format = xml\n")),
    ("verify", "elliptic", "--format", "xml"),
    ("connection", "--n", "3", "--w", "s3"),
    ("connection", "--n", "3", "--w", "sX"),
    ("connection", "--n", "3", "--w", "s0"),
    ("connection", "--n", "3", "--z", "0.1,0.2"),
    ("rmatrix", "--x=nan"),
    ("rmatrix", "--x=1+infj"),
    ("rmatrix", "--phi=nan,0,0"),
    ("rmatrix", "--kappa=nan"),
    ("connection", "--n", "3", "--w", "s1", "--z=inf,0,0"),
    ("connection", "--n", "3", "--z=nan,0,0"),
    ("verify", "elliptic", "--config", ConfigText("kappa = nan\n")),
    ("verify", "elliptic", "--config", ConfigText("phi = 0,inf,0\n")),
    ("rmatrix", "--x", "abc"),
    ("rmatrix", "--p", "x"),
    ("verify", "nosuchsuite"),
    # 2 Re kappa overflows to inf
    ("verify", "elliptic", "--kappa", "1e308"),
    ("verify", "elliptic", "--config", ConfigText("kappa = 1e308\n")),
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
            ("verify", "qkz", "--n", "2", "--p", "1e-300"),
            ("rmatrix", "--x=0.3+1000j", "--kappa=0.27+0.5j"),
            *_USAGE_ERRORS,
        ],
    )
    def test_exit_code_two(self, capsys, tmp_path, argv):
        files = {a: tmp_path / f"run{k}.cfg" for k, a in enumerate(argv) if isinstance(a, ConfigText)}
        for text, path in files.items():
            path.write_text(text)
        code, out, err = run_cli(capsys, *(str(files.get(a, a)) for a in argv))
        assert code == 2
        if argv in _USAGE_ERRORS:
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error:")
        elif argv[0] == "rmatrix":
            assert out == ""  # nothing exported
            assert err.startswith("inconclusive:")
        else:
            assert "0 failed" in out
            assert "inconclusive" in out

    def test_nome_near_one_fails_promptly(self):
        # the product theta cannot be truncated this close to p = 1, so its
        # three checks are inconclusive, and they say so promptly; the
        # coefficients, in the modular frame, and theta-modular pass
        code, out = fresh_process("verify", "elliptic", "--p", "0.9999999999", timeout=30)
        assert code == 2
        assert "3 passed, 0 failed, 3 inconclusive" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "qkz", "--n", "2", "--p", "1e-300"),
            ("decompose", "--n", "2", "--p", "1e-300"),
            ("verify", "all", "--n", "2", "--kappa", "0.27+1e3j"),
        ],
    )
    def test_overflow_is_inconclusive_whatever_the_warning_filters(self, argv):
        # a numpy overflow raises under np.errstate, so the verdict is the
        # same with CI's -O -W error::RuntimeWarning as without it
        for flags in ((), ("-O", "-W", "error::RuntimeWarning")):
            code, _ = fresh_process(*argv, flags=flags)
            assert code == 2, flags

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-5)
        code, _, err = run_cli(capsys, "verify", "dybe", "--seed", "-5")
        assert code == 2
        assert err.startswith("error:") and "seed" in err and "-5" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["rmatrix", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qkzconn rmatrix")

    def test_non_finite_point_writes_no_export(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        code, out, err = run_cli(capsys, "connection", "--n", "3", "--z=nan,0,0", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tensor_entry_writes_no_export(self, capsys, tmp_path, monkeypatch, bad, part):
        # a non-finite stored entry of the tensor operator raises in dumps,
        # before the --out file is opened
        real = connection.tensor_monodromy_words

        def spoiled(ep, words):
            (op,) = real(ep, words)
            stacks = [s.copy() for s in op.stacks]
            old = stacks[0][0, 0, 0]
            stacks[0][0, 0, 0] = complex(bad, old.imag) if part == "real" else complex(old.real, bad)
            return [BlockOp(op.layout, stacks)]

        monkeypatch.setattr(connection, "tensor_monodromy_words", spoiled)
        out_file = tmp_path / "c.json"
        code, out, err = run_cli(capsys, "connection", "--n", "3", "--w", "s1", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("inconclusive: ValueError")
        assert not out_file.exists()


def test_build_config_defaults_are_run_config_defaults():
    # no flag and no config file: every value is RunConfig's own default
    assert cli.build_config(argparse.Namespace()) == RunConfig()


def fresh_process(*argv, timeout=120, flags=()):
    """Exit code and stdout of ``python [flags] -m qkzconn.cli`` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(qkzconn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, *flags, "-m", "qkzconn.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )
    return done.returncode, done.stdout


def test_cached_parser_does_not_leak_between_calls(capsys, tmp_path):
    first, fresh = tmp_path / "first.json", tmp_path / "fresh.json"
    code1, out1, _ = run_cli(capsys, "rmatrix", "--seed", "4", "--x=0.1+0.2j", "--out", str(first))
    code2, out2, _ = run_cli(capsys, "rmatrix")
    assert code1 == code2 == 0
    assert out1 == ""
    # the bare call takes the default x and seed and writes to stdout
    bare = json.loads(out2)["parameters"]
    assert bare["x"] == [0.3, 0.1]
    assert bare["phi"] == [[t.real, t.imag] for t in RunConfig().resolved_phi()]
    assert fresh_process("rmatrix", "--seed", "4", "--x=0.1+0.2j", "--out", str(fresh))[0] == 0
    assert first.read_text() == fresh.read_text()
    assert fresh_process("rmatrix") == (0, out2)
