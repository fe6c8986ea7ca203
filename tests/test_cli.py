import json

import numpy as np
import pytest

import semirad as sr
from semirad.cli import JobConfig, main, run


def cmat(m):
    """Encode a matrix with [re, im] entries."""
    return [
        [[float(np.real(e)), float(np.imag(e))] for e in row]
        for row in np.atleast_2d(np.asarray(m, dtype=complex))
    ]


def write_json(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


QUINTIC = {"coeffs": [[0.1, 0], [0.01, 0], [3, 0], [0, 0], [0, 0]]}


def test_radius_nilpotent(tmp_path, capsys):
    path = write_json(
        tmp_path, {"identity_dim": 2, "T": cmat([[0, 1], [0, 0]])}
    )
    code = main(["--command", "radius", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == pytest.approx(0.5, abs=1e-8)
    assert payload["crawford"] == pytest.approx(0.0, abs=1e-10)
    assert payload["seminorm"] == pytest.approx(1.0, abs=1e-10)
    assert "mc_radius" not in payload


RADIUS_JOB = {
    "A": cmat([[2.0, 1j, 0.0], [-1j, 1.0, 0.0], [0.0, 0.0, 0.0]]),
    "T": cmat([[4 + 1j, 1.0, 0.0], [0.5j, 3.0, 0.0], [3.0, 1j, 2.0]]),
}


def test_radius_runs_one_batched_scan(tmp_path, capsys, monkeypatch):
    # the support lines of the one operator, in stacked eigh calls that
    # start from the 16 parts of the half turn; no eigvalsh stack
    path = write_json(tmp_path, RADIUS_JOB)
    stacks = []
    for name in ("eigvalsh", "eigh"):

        def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
            if np.ndim(m) > 2:
                stacks.append((_name, np.shape(m)))
            return _fn(m, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["--command", "radius", "--input", path, "--format", "json"]) == 0
    assert stacks[0] == ("eigh", (16, 2, 2))
    assert {name for name, _ in stacks} == {"eigh"}


def test_radius_matches_library_to_the_bit(tmp_path, capsys):
    path = write_json(tmp_path, RADIUS_JOB)
    assert main(["--command", "radius", "--input", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    op = sr.make_operator(
        sr.make_context([[2.0, 1j, 0.0], [-1j, 1.0, 0.0], [0.0, 0.0, 0.0]]),
        [[4 + 1j, 1.0, 0.0], [0.5j, 3.0, 0.0], [3.0, 1j, 2.0]],
    )
    assert payload["radius"] == sr.a_numerical_radius(op)
    assert payload["crawford"] == sr.a_crawford(op)
    assert payload["crawford"] > 0.0


def test_radius_monte_carlo_flag(tmp_path, capsys):
    path = write_json(
        tmp_path, {"identity_dim": 2, "T": cmat([[0, 1], [0, 0]])}
    )
    code = main(
        [
            "--command", "radius", "--input", path,
            "--format", "json", "--mc-samples", "20000", "--seed", "3",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mc_samples"] == 20000
    assert payload["mc_radius"] <= payload["radius"] + 1e-8
    assert payload["mc_radius"] >= payload["radius"] - 5e-3


def test_radius_with_explicit_weight(tmp_path, capsys):
    a = [[2.0, 0.0], [0.0, 1.0]]
    t = [[1, 1], [0, 2]]
    path = write_json(tmp_path, {"A": cmat(a), "T": cmat(t)})
    code = main(["--command", "radius", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    op = sr.make_operator(sr.make_context(np.array(a)), np.array(t, dtype=complex))
    assert payload["radius"] == pytest.approx(sr.a_numerical_radius(op), abs=1e-10)


def test_bounds_payload(tmp_path, capsys):
    path = write_json(
        tmp_path, {"identity_dim": 2, "T": cmat(np.diag([1 + 1j, 2 + 1j]))}
    )
    code = main(["--command", "bounds", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_21"] == pytest.approx(np.sqrt(5), abs=1e-8)
    assert payload["lower_22"] == pytest.approx(np.sqrt(2), abs=1e-8)
    assert payload["w_exact"] == pytest.approx(np.sqrt(5), abs=1e-6)
    for key in ("upper_hphi", "phi_star", "sandwich_lower", "sandwich_upper"):
        assert key in payload


def test_blockbounds_payload(tmp_path, capsys):
    eye = cmat(np.eye(2))
    zero = cmat(np.zeros((2, 2)))
    job = {
        "identity_dim": 2,
        "T11": zero,
        "T12": eye,
        "T21": cmat(-2 * np.eye(2)),
        "T22": zero,
    }
    path = write_json(tmp_path, job)
    code = main(["--command", "blockbounds", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["th25"] == pytest.approx(1.5, abs=1e-10)
    assert payload["lemma24"] is None
    assert payload["w_b_exact"] <= payload["th25"] + 1e-8


def test_zeros_running_example(tmp_path, capsys):
    path = write_json(tmp_path, QUINTIC)
    code = main(["--command", "zeros", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r_c"] == 4.0
    assert payload["r_cm"] == pytest.approx(3.1638, abs=5e-4)
    assert payload["r_fk"] == pytest.approx(2.3668, abs=5e-4)
    assert payload["r_prk"] <= 2.0834
    assert payload["max_root_modulus"] == pytest.approx(1.4487, abs=5e-4)
    assert len(payload["d_star"]) == 5
    assert payload["r_prk"] == pytest.approx(max(payload["alphas"]), abs=1e-9)


def test_zeros_explicit_weights(tmp_path, capsys):
    job = dict(QUINTIC)
    job["d"] = [2, 1, 2, 1 / 3, 1]
    path = write_json(tmp_path, job)
    code = main(["--command", "zeros", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r_prk"] == pytest.approx(2.0833, abs=5e-4)


def test_range_json_and_svg(tmp_path, capsys):
    path = write_json(
        tmp_path, {"identity_dim": 2, "T": cmat(np.diag([1 + 1j, 2 + 1j]))}
    )
    code = main(["--command", "range", "--input", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == pytest.approx(np.sqrt(5), abs=1e-4)
    # a segment: every gap is 0 at the 32 start lines
    assert len(payload["boundary"]) == len(payload["outer"]) == 32
    assert "refined" not in payload
    assert payload["degenerate"] is False

    code = main(["--command", "range", "--input", path, "--format", "svg"])
    assert code == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<?xml")
    # the outer polygon, dashed, behind the inner one
    assert svg.count("<polygon") == 2
    assert 'fill="none"' in svg.split("<polygon")[1]
    assert "stroke-dasharray" in svg.split("<polygon")[1]
    assert svg.count("<circle") == 2
    assert "</svg>" in svg


OUTPUT_KEYS = {
    "radius": {"command", "radius", "crawford", "seminorm"},
    "bounds": {
        "command", "w_exact", "lower_21", "lower_22", "upper_hphi", "phi_star",
        "sandwich_lower", "sandwich_upper",
    },
    "blockbounds": {
        "command", "w_b_exact", "lemma24", "th25", "th27", "th28",
        "t_star_27", "t_star_28",
    },
    "zeros": {
        "command", "degree", "r_c", "r_cm", "r_fk", "r_prk", "d_star", "alphas",
        "max_root_modulus",
    },
    "range": {"command", "radius", "crawford", "boundary", "outer", "degenerate"},
}


def test_json_output_keys(tmp_path, capsys):
    # results only: no grid sizes, and a seed only where --seed was used
    blocks = {k: cmat(np.eye(2)) for k in ("T11", "T12", "T21", "T22")}
    operator_job = write_json(
        tmp_path, {"identity_dim": 2, "T": cmat([[0, 1], [0, 0]])}
    )
    jobs = {
        "blockbounds": write_json(tmp_path, {"identity_dim": 2, **blocks}, "b.json"),
        "zeros": write_json(tmp_path, QUINTIC, "z.json"),
    }
    for command, keys in OUTPUT_KEYS.items():
        path = jobs.get(command, operator_job)
        argv = ["--command", command, "--input", path, "--format", "json"]
        assert main(argv + ["--seed", "5"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys, command
    assert main(["--command", "radius", "--input", operator_job, "--format", "json",
                 "--mc-samples", "100", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == OUTPUT_KEYS["radius"] | {"mc_radius", "mc_samples", "seed"}
    assert payload["seed"] == 5


def test_table_format(tmp_path, capsys):
    path = write_json(
        tmp_path, {"identity_dim": 2, "T": cmat([[0, 1], [0, 0]])}
    )
    code = main(["--command", "radius", "--input", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "radius" in out
    assert "0.5" in out


class TestValidation:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"identity_dim": 2,\n  "T": [[[0,0]]')
        code = main(["--command", "radius", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed JSON at line" in err
        assert "column" in err

    def test_unknown_key(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {"identity_dim": 2, "T": cmat(np.eye(2)), "extra": 1},
        )
        assert main(["--command", "radius", "--input", path]) == 2
        assert "unknown input key" in capsys.readouterr().err

    def test_missing_operator(self, tmp_path, capsys):
        path = write_json(tmp_path, {"identity_dim": 2})
        assert main(["--command", "radius", "--input", path]) == 2
        assert '"T"' in capsys.readouterr().err

    def test_weight_choice_must_be_exclusive(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {"identity_dim": 2, "A": cmat(np.eye(2)), "T": cmat(np.eye(2))},
        )
        assert main(["--command", "radius", "--input", path]) == 2
        path2 = write_json(tmp_path, {"T": cmat(np.eye(2))}, name="job2.json")
        assert main(["--command", "radius", "--input", path2]) == 2

    def test_bad_complex_entry(self, tmp_path, capsys):
        path = write_json(tmp_path, {"identity_dim": 1, "T": [[[1, 2, 3]]]})
        assert main(["--command", "radius", "--input", path]) == 2
        assert "[re, im]" in capsys.readouterr().err

    def test_ragged_matrix(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {"identity_dim": 2, "T": [[[0, 0], [1, 0]], [[0, 0]]]},
        )
        assert main(["--command", "radius", "--input", path]) == 2
        assert "ragged" in capsys.readouterr().err

    def test_svg_limited_to_range(self, tmp_path, capsys):
        path = write_json(tmp_path, {"identity_dim": 2, "T": cmat(np.eye(2))})
        assert main(["--command", "radius", "--input", path, "--format", "svg"]) == 2

    @pytest.mark.parametrize("flag", ["--theta-grid", "--phi-grid"])
    def test_grid_flags_rejected(self, tmp_path, capsys, flag):
        path = write_json(tmp_path, {"identity_dim": 2, "T": cmat(np.eye(2))})
        with pytest.raises(SystemExit) as exc:
            main(["--command", "bounds", "--input", path, flag, "64"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_overflowing_compressed_matrix(self, tmp_path, capsys):
        # A and T are finite, but C = L^(1/2) Q* T Q L^(-1/2) is not
        path = write_json(
            tmp_path,
            {"A": cmat(np.diag([1.0, 1e-9])), "T": cmat([[0.0, 1e307], [0.0, 0.0]])},
        )
        for command in ("radius", "bounds", "range"):
            argv = ["--command", command, "--input", path, "--format", "json"]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "numerical failure:" in captured.err

    def test_unadjointable_operator(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {"A": cmat(np.diag([1.0, 0.0])), "T": cmat([[0, 1], [1, 0]])},
        )
        assert main(["--command", "radius", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "not A-adjointable" in err

    def test_not_psd_weight(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            {"A": cmat(np.diag([1.0, -1.0])), "T": cmat(np.eye(2))},
        )
        assert main(["--command", "radius", "--input", path]) == 2

    def test_missing_block(self, tmp_path, capsys):
        path = write_json(
            tmp_path, {"identity_dim": 2, "T11": cmat(np.eye(2))}
        )
        assert main(["--command", "blockbounds", "--input", path]) == 2
        assert "T12" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["--command", "radius", "--input", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    @staticmethod
    def assert_one_error_line(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_negative_seed(self, tmp_path, capsys):
        path = write_json(tmp_path, {"identity_dim": 2, "T": cmat(np.eye(2))})
        argv = ["--command", "radius", "--input", path, "--mc-samples", "10"]
        assert main(argv + ["--seed", "-1"]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"identity_dim": 1, "T": [[[1%s, 0]]]}',
            '{"coeffs": [[1, 0], [0, 1%s]]}',
            '{"coeffs": [[1, 0], [0, 1]], "d": [1, 1%s]}',
        ],
        ids=["matrix", "coeffs", "d"],
    )
    def test_integer_beyond_float_range(self, tmp_path, capsys, doc):
        path = tmp_path / "huge.json"
        path.write_text(doc % ("0" * 400))
        command = "radius" if '"T"' in doc else "zeros"
        assert main(["--command", command, "--input", str(path)]) == 2
        self.assert_one_error_line(capsys)

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = '{"identity_dim": 1, "T": [[[1, 0]]], "\xe9": 1}'
        path.write_bytes(text.encode("latin-1"))
        assert main(["--command", "radius", "--input", str(path)]) == 2
        self.assert_one_error_line(capsys)

    def test_output_in_missing_directory(self, tmp_path, capsys):
        path = write_json(tmp_path, {"identity_dim": 2, "T": cmat(np.eye(2))})
        out = str(tmp_path / "missing" / "out.json")
        assert main(["--command", "radius", "--input", path, "--output", out]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "dim", [1, 3, 10**9, 10**400], ids=["1", "3", "1e9", "1e400"]
    )
    @pytest.mark.parametrize("command", ["radius", "bounds", "range", "blockbounds"])
    def test_identity_dim_differs_from_the_operator(
        self, tmp_path, capsys, monkeypatch, command, dim
    ):
        # the size is checked before the identity weight is built, so no
        # dimension, however large, allocates anything
        doc = {"identity_dim": dim}
        if command == "blockbounds":
            doc.update({k: cmat(np.eye(2)) for k in ("T11", "T12", "T21", "T22")})
        else:
            doc["T"] = cmat(np.eye(2))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))

        def no_eye(*args, **kw):
            raise AssertionError("np.eye called")

        monkeypatch.setattr(np, "eye", no_eye)
        assert main(["--command", command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert '"identity_dim" is' in captured.err
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestTolerances:
    def test_environment_cannot_loosen_the_hermitian_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        a = [[1.0, 1e-5], [0.0, 1.0]]
        path = write_json(tmp_path, {"A": cmat(a), "T": cmat(np.eye(2))})
        monkeypatch.setenv("SEMIRAD_HERM_TOL", "1e-3")
        assert main(["--command", "radius", "--input", path]) == 2
        assert "asymmetry" in capsys.readouterr().err


class TestOutputs:
    def test_output_file_written(self, tmp_path, capsys):
        path = write_json(
            tmp_path, {"identity_dim": 2, "T": cmat([[0, 1], [0, 0]])}
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "--command", "radius", "--input", path,
                "--format", "json", "--output", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["radius"] == pytest.approx(0.5, abs=1e-8)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".semirad-")]
        assert leftovers == []

    def test_determinism_byte_identical(self, tmp_path):
        path = write_json(tmp_path, QUINTIC)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "--command", "zeros", "--input", path,
                    "--format", "json", "--seed", "7", "--output", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_run_accepts_config_directly(self, tmp_path, capsys):
        path = write_json(
            tmp_path, {"identity_dim": 2, "T": cmat([[0, 1], [0, 0]])}
        )
        cfg = JobConfig(command="radius", input_path=path, output_format="json")
        assert run(cfg) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["radius"] == pytest.approx(0.5, abs=1e-8)

    def test_json_round_trip_matches_library(self, tmp_path, capsys):
        a = [[2.0, 0.5], [0.5, 1.0]]
        t = [[1, 2], [3, 4]]
        path = write_json(tmp_path, {"A": cmat(a), "T": cmat(t)})
        code = main(["--command", "bounds", "--input", path, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        op = sr.make_operator(
            sr.make_context(np.array(a)), np.array(t, dtype=complex)
        )
        rep = sr.bound_report(op)
        for key in (
            "w_exact", "lower_21", "lower_22",
            "upper_hphi", "phi_star", "sandwich_lower", "sandwich_upper",
        ):
            assert payload[key] == pytest.approx(getattr(rep, key), abs=1e-12)
