import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _helpers import plan_from_merged

import mscompile
from mscompile import (
    Circuit,
    CompletionError,
    ExtractionError,
    FittingError,
    Gate,
    SynthesisError,
    build_crot_circuit,
    deserialize,
    serialize,
)
from mscompile.cli import main, parse_angle
from mscompile.synthesis import MAX_PULSES

PI = np.pi
# the largest N within the pulse budget: crot spends 2N pulses (Toffoli n compiles crot n + 1), weighted 4N
CROT_MAX, WEIGHTED_MAX = MAX_PULSES // 2, MAX_PULSES // 4


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("0.3", 0.3),
            ("pi", PI),
            ("-pi", -PI),
            ("2pi", 2 * PI),
            ("pi/2", PI / 2),
            ("-3pi/4", -3 * PI / 4),
            ("2*pi/3", 2 * PI / 3),
        ],
    )
    def test_forms(self, text, want):
        assert parse_angle(text) == pytest.approx(want)

    def test_rejects_garbage(self):
        import argparse

        for text in ("two pies", "", "-", "nan", "inf", "-inf", "nanpi", "1e400", "pi/0", "pi/inf", "pix"):
            with pytest.raises(argparse.ArgumentTypeError, match="cannot parse angle"):
                parse_angle(text)


class TestCrotAngles:
    def test_basic_output(self, capsys):
        assert main(["crot-angles", "--n", "7", "--alpha", "pi"]) == 0
        out = capsys.readouterr().out
        assert "L = 14" in out
        assert sum(1 for line in out.splitlines() if line.startswith("phi_")) == 15

    def test_merged_count(self, capsys):
        assert main(["crot-angles", "--n", "3", "--alpha", "-pi", "--merged"]) == 0
        out = capsys.readouterr().out
        merged = [line for line in out.splitlines() if line.startswith("merged_phi_")]
        assert len(merged) == 7

    def test_n40_pi_compiles(self, capsys):
        assert main(["crot-angles", "--n", "40", "--alpha", "pi"]) == 0
        assert "L = 80" in capsys.readouterr().out

    def test_near_2pi_crot_compiles_and_verifies(self, tmp_path):
        # 1e-6 below 2*pi: completion once took P(pi) for a zero here (exit 2)
        path = tmp_path / "near2pi.json"
        alpha = ["--alpha", "6.283184307179586"]
        assert main(["compile", "--kind", "crot", "--n", "10", *alpha, "--out", str(path)]) == 0
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "10", *alpha]) == 0

    def test_identity_alpha_gives_identity_plan(self, tmp_path, capsys):
        assert main(["crot-angles", "--n", "2", "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        values = [float(line.split("=")[1]) for line in out.splitlines() if line.startswith("phi_")]
        # identity-equivalent plan: every step pair cancels on the target
        assert len(values) == 5
        path = tmp_path / "id.json"
        assert main(["compile", "--kind", "crot", "--n", "2", "--alpha", "0", "--out", str(path)]) == 0
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "2", "--alpha", "0"]) == 0


class TestCompileVerify:
    def test_crot_compile_and_verify(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(["compile", "--kind", "crot", "--n", "4", "--alpha", "pi/2", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}: 4 qubits, 8 MS gates\n"
        circ = deserialize(path.read_bytes())
        assert circ.ms_count() == 8
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "4", "--alpha", "pi/2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_toffoli_compile(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(["compile", "--kind", "toffoli", "--n", "3", "--out", str(path)]) == 0
        circ = deserialize(path.read_bytes())
        assert circ.ms_count() == 8 and circ.num_qubits == 4
        assert main(["verify", "--circuit", str(path), "--target", "toffoli", "--n", "3"]) == 0

    def test_weighted_identity(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        assert main(["compile", "--kind", "weighted", "--n", "3", "--alphas", "0,0,0", "--out", str(path)]) == 0
        assert main(["verify", "--circuit", str(path), "--target", "weighted", "--n", "3", "--alphas", "0,0,0"]) == 0

    def test_text_format(self, tmp_path):
        path = tmp_path / "c.txt"
        assert main(["compile", "--kind", "crot", "--n", "2", "--alpha", "pi", "--out", str(path), "--format", "text"]) == 0
        first = path.read_text().splitlines()[0].split()
        assert first[0] in ("h", "rz", "rx", "ms")

    @pytest.mark.parametrize(
        "kind, angles", [("crot", ["--alpha", "pi/3"]), ("weighted", ["--alphas", "0.4,-1.1,2pi/3,-pi/5"])],
        ids=["crot", "weighted"],
    )
    def test_a_compile_that_fails_its_verdict_writes_nothing(self, tmp_path, monkeypatch, capsys, kind, angles):
        # phi_1 moved by 1e-3 after synthesis: compile verifies what it built, so it
        # prints the verdict verify prints for that circuit, writes no file and exits 1
        name = f"{kind}_angles"
        real = getattr(mscompile.cli, name)
        built = []

        def nudged(*args):
            plan = real(*args)
            built.append(replace(plan, phis=(plan.phis[0], plan.phis[1] + 1e-3, *plan.phis[2:])))
            return built[-1]

        monkeypatch.setattr(mscompile.cli, name, nudged)
        path = tmp_path / "c.json"
        assert main(["compile", "--kind", kind, "--n", "4", *angles, "--out", str(path)]) == 1
        assert not path.exists()
        out = capsys.readouterr().out
        assert "FAIL" in out
        path.write_bytes(serialize(build_crot_circuit(built[0])))
        assert main(["verify", "--circuit", str(path), "--target", kind, "--n", "4", *angles]) == 1
        assert capsys.readouterr().out == out

    def test_verification_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_bytes(serialize(Circuit(3, ())))
        code = main(["verify", "--circuit", str(path), "--target", "crot", "--n", "3", "--alpha", "pi"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "gate",
        [
            {"type": "RZ", "qubit": 0, "angle": float("nan")},
            {"type": "RZ", "qubit": 0, "angle": float("inf")},
            {"type": "MS", "tau": float("nan")},
        ],
        ids=["rz_nan", "rz_infinity", "ms_nan"],
    )
    def test_non_finite_angle_is_rejected(self, tmp_path, capsys, gate):
        # json.dumps writes NaN / Infinity, which json.loads accepts back
        doc = {"version": 1, "num_qubits": 3, "gates": [gate]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "--circuit", str(path), "--target", "crot", "--n", "3", "--alpha", "0"])
        assert code == 64
        captured = capsys.readouterr()
        assert "cannot load circuit" in captured.err
        assert "PASS" not in captured.out

    def test_tolerance_override(self, tmp_path, capsys):
        row = [-1.855, -2.118, -0.525, -2.118, -1.855, -PI, 0.0]
        path = tmp_path / "m.json"
        path.write_bytes(serialize(build_crot_circuit(plan_from_merged(3, row))))
        args = ["verify", "--circuit", str(path), "--target", "crot", "--n", "3", "--alpha", "-pi"]
        assert main(args) == 1  # 3-decimal table angles miss 1e-6
        assert main(args + ["--tolerance", "1e-2"]) == 0

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, tolerance):
        path = tmp_path / "c.json"
        assert main(["compile", "--kind", "crot", "--n", "4", "--alpha", "pi/3", "--out", str(path)]) == 0
        capsys.readouterr()
        args = ["verify", "--circuit", str(path), "--target", "crot", "--n", "4", "--alpha", "pi/3"]
        assert main([*args, f"--tolerance={tolerance}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: tolerance must be finite")
        assert main([*args, "--tolerance=0"]) == 1  # zero is a valid, if strict, tolerance

    def test_verdict_comes_from_the_library(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.json"
        assert main(["compile", "--kind", "crot", "--n", "3", "--alpha", "pi", "--out", str(path)]) == 0
        calls = []
        real = mscompile.simulate.verify_circuit

        def spy(circuit, *args, **kwargs):
            calls.append((*args, kwargs))
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(mscompile.simulate, "verify_circuit", spy)
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "3", "--alpha", "pi"]) == 0
        assert calls == [("crot", 3, PI, None, 1e-6, {})]
        assert main(["table"]) == 0
        assert [c[:2] for c in calls[1:]] == [("crot", n) for n in range(3, 7)]

    def test_wrong_controlled_angle_fails(self, tmp_path, capsys):
        # the all-controls-on block weighs 2^-9 in the trace at N = 10, so
        # phase_distance alone (6.1e-7) would pass this circuit
        path = tmp_path / "c.json"
        assert main(["compile", "--kind", "crot", "--n", "10", "--alpha", "1.1", "--out", str(path)]) == 0
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "10", "--alpha", "1.15"]) == 1
        out = capsys.readouterr().out
        assert "worst_block = 2.500e-02" in out and "FAIL" in out

    @pytest.mark.parametrize(
        "compile_args, verify_args, where, kick, line",
        [
            # RX(1e-3) on control qubit 3 before the train moves amplitude
            # 5e-4 between control patterns; phase_distance and the 2x2
            # block miss are second order in it (1.25e-7)
            (["--kind", "crot", "--n", "10", "--alpha", "pi/3"], ["--target", "crot", "--n", "10", "--alpha", "pi/3"],
             "first", ("RX", 1e-3), "worst_block = 5.000e-04"),
            # RX(1e-3) on the ancilla after the train flips it with amplitude 5e-4,
            # which the pattern's columns with the ancilla entering either state miss by
            (["--kind", "toffoli", "--n", "9"], ["--target", "toffoli", "--n", "9"], "last", ("RX", 1e-3),
             "worst_block = 5.000e-04"),
            # RZ(0.1) on the ancilla after the train flips nothing, but phases the
            # ancilla's two states apart: against Toffoli x 1 each column misses by 2 sin(0.025)
            (["--kind", "toffoli", "--n", "4"], ["--target", "toffoli", "--n", "4"], "last", ("RZ", 0.1),
             "worst_block = 4.999e-02"),
        ],
        ids=["crot_control_leak", "toffoli_ancilla_leak", "toffoli_ancilla_rz"],
    )
    def test_leaked_amplitude_fails(self, tmp_path, capsys, compile_args, verify_args, where, kick, line):
        path = tmp_path / "c.json"
        assert main(["compile", *compile_args, "--out", str(path)]) == 0
        circ = deserialize(path.read_bytes())
        qubit = next(iter(circ.ancilla_qubits)) if circ.ancilla_qubits else 3
        leak = (Gate(kick[0], qubit, kick[1]),)
        gates = leak + circ.gates if where == "first" else circ.gates + leak
        path.write_bytes(serialize(Circuit(circ.num_qubits, gates, circ.target_qubit, circ.ancilla_qubits)))
        capsys.readouterr()
        assert main(["verify", "--circuit", str(path), *verify_args]) == 1
        out = capsys.readouterr().out
        assert line in out and "FAIL" in out and "ancilla" not in out

    def test_14_qubit_circuit_is_refused(self, tmp_path, capsys):
        # an RX on every qubit makes all 14 active: a block store of 4^14 entries, over the 4^13 limit
        path = tmp_path / "big.json"
        path.write_bytes(serialize(Circuit(14, tuple(Gate.rx(q, 0.3) for q in range(14)))))
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "14", "--alpha", "0"]) == 64
        assert "refusing" in capsys.readouterr().err

    def test_synthesis_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        for error in (FittingError, CompletionError, ExtractionError):
            assert issubclass(error, SynthesisError), error.__name__

            def boom(n, alpha, error=error):
                raise error("forced failure")

            monkeypatch.setattr("mscompile.cli.crot_angles", boom)
            code = main(["compile", "--kind", "crot", "--n", "3", "--alpha", "pi", "--out", str(tmp_path / "x.json")])
            assert code == 2, error.__name__
            assert "synthesis failed" in capsys.readouterr().err, error.__name__


class TestSeries:
    def test_fig2_shape(self, tmp_path):
        path = tmp_path / "s.tsv"
        assert main(["series", "--n", "7", "--alpha", "pi", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "theta\tA\tB\tC\tD"
        rows = [list(map(float, line.split("\t"))) for line in lines[1:] if line and not line.startswith("#")]
        # periodic endpoints
        np.testing.assert_allclose(rows[0][1:], rows[-1][1:], atol=1e-9)
        pinned = []
        for line in lines:
            if line.startswith("# ") and "\t" in line:
                try:
                    pinned.append(list(map(float, line[2:].split("\t"))))
                except ValueError:
                    continue  # table header
        assert len(pinned) == 7
        ones = [row for row in pinned if abs(row[1] - 1) < 1e-9]
        assert len(ones) == 6  # A = 1 at the six idle angles
        special = [row for row in pinned if abs(abs(row[0]) - PI) < 1e-9]
        assert abs(special[0][1]) < 1e-9  # A(pi) = cos(pi/2) = 0

    def test_constant_series(self, tmp_path):
        path = tmp_path / "s2.tsv"
        assert main(["series", "--n", "2", "--alpha", "0", "--out", str(path), "--grid-points", "65"]) == 0
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:] if line and not line.startswith("#")]
        assert len(rows) == 65
        assert all(abs(float(r[1]) - 1.0) < 1e-10 for r in rows)


class TestTable:
    def test_rows_and_distances(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        for n in range(3, 7):
            row = next(line for line in out.splitlines() if line.startswith(f"N={n}"))
            angles = row[row.index("[") + 1 : row.index("]")].split()
            assert len(angles) == 2 * n + 1
            # trailing pair equivalent to (-pi, 0)
            assert abs(abs(float(angles[-2])) - round(abs(float(angles[-2])) / PI) * PI) < 2e-3
            assert float(angles[-1]) == pytest.approx(0.0, abs=1e-3)
            block_miss = float(row.split("worst_block=")[1])
            assert block_miss < 1e-6


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 64

    def test_missing_required(self):
        assert main(["crot-angles", "--n", "3"]) == 64

    def test_bad_angle(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        for args in (
            ["crot-angles", "--n", "3", "--alpha", "nonsense"],
            ["crot-angles", "--n", "3", "--alpha", ""],
            ["compile", "--kind", "crot", "--n", "3", "--alpha", "nan", "--out", out],
            ["compile", "--kind", "crot", "--n", "3", "--alpha", "inf", "--out", out],
            ["compile", "--kind", "crot", "--n", "3", "--alpha", "-inf", "--out", out],
            ["compile", "--kind", "crot", "--n", "3", "--alpha", "nanpi", "--out", out],
            ["compile", "--kind", "weighted", "--n", "3", "--alphas", "0.1,,0.2", "--out", out],
            ["compile", "--kind", "weighted", "--n", "3", "--alphas", "0.1,nan,0.2", "--out", out],
        ):
            assert main(args) == 64, args
            assert "cannot parse angle" in capsys.readouterr().err, args

    @pytest.mark.parametrize("value", ["-1", "0", "2.5", "twelve"])
    def test_precision_must_be_a_positive_integer(self, capsys, value):
        assert main(["crot-angles", "--n", "3", "--alpha", "1", "--precision", value]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:") and "argument --precision: expected an integer >= 1" in captured.err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_grid_points_must_be_a_positive_integer(self, tmp_path, capsys, value):
        out = tmp_path / "s.tsv"
        assert main(["series", "--n", "3", "--alpha", "1", "--out", str(out), "--grid-points", value]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("usage:") and "argument --grid-points: expected an integer >= 1" in captured.err

    def test_small_n(self, tmp_path):
        out = ["--out", str(tmp_path / "x")]
        for args in (
            ["crot-angles", "--n", "1", "--alpha", "pi"],
            ["compile", "--kind", "crot", "--n", "1", "--alpha", "pi", *out],
            ["compile", "--kind", "toffoli", "--n", "1", *out],
            ["compile", "--kind", "weighted", "--n", "1", "--alphas", "0.3", *out],
            ["series", "--n", "1", "--alpha", "pi", *out],
        ):
            assert main(args) == 64, args

    @pytest.mark.parametrize(
        "args,limit",
        [
            (["crot-angles", "--n", str(CROT_MAX + 1), "--alpha", "pi"], CROT_MAX),
            (["compile", "--kind", "crot", "--n", str(CROT_MAX + 1), "--alpha", "pi"], CROT_MAX),
            (["compile", "--kind", "toffoli", "--n", str(CROT_MAX)], CROT_MAX),
            (["compile", "--kind", "weighted", "--n", str(WEIGHTED_MAX + 1),
              "--alphas", ",".join(["0.3"] * (WEIGHTED_MAX + 1))], WEIGHTED_MAX),
            # the budget is checked before the angles are read, so a short list does not matter
            (["compile", "--kind", "weighted", "--n", str(WEIGHTED_MAX + 1), "--alphas", "0.3"], WEIGHTED_MAX),
            (["series", "--n", str(CROT_MAX + 1), "--alpha", "1"], CROT_MAX),
        ],
        ids=["crot_angles", "crot", "toffoli", "weighted", "weighted_short_alphas", "series"],
    )
    def test_above_n_max_is_a_synthesis_error(self, tmp_path, capsys, args, limit):
        if args[0] in ("compile", "series"):
            args = [*args, "--out", str(tmp_path / "x.json")]
        assert main(args) == 2
        assert f"supported up to N = {limit}," in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["compile", "--kind", "crot", "--n", "3", "--alpha", "pi"],
            ["series", "--n", "3", "--alpha", "pi"],
        ],
        ids=["compile", "series"],
    )
    def test_unwritable_out(self, tmp_path, capsys, args):
        assert main([*args, "--out", str(tmp_path / "missing" / "x.out")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_malformed_gates_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "num_qubits": 2, "gates": 5}')
        assert main(["verify", "--circuit", str(path), "--target", "crot", "--n", "2", "--alpha", "pi"]) == 64
        assert "cannot load circuit" in capsys.readouterr().err

    def test_missing_circuit_file(self, tmp_path):
        assert main(["verify", "--circuit", str(tmp_path / "nope.json"), "--target", "crot", "--n", "3", "--alpha", "pi"]) == 64

    def test_weighted_needs_alphas(self, tmp_path):
        assert main(["compile", "--kind", "weighted", "--n", "3", "--out", str(tmp_path / "w.json")]) == 64

    @pytest.mark.parametrize("kind,flag", [("crot", "--alpha"), ("weighted", "--alphas")])
    def test_compile_needs_its_angles(self, tmp_path, capsys, kind, flag):
        out = tmp_path / "c.json"
        assert main(["compile", "--kind", kind, "--n", "3", "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.err == f"error: {kind} needs {flag}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind,flag", [("crot", "--alpha"), ("weighted", "--alphas")])
    def test_verify_needs_its_angles(self, tmp_path, capsys, kind, flag):
        # the same message as compile's: the CLI names its own flag
        path = tmp_path / "c.json"
        path.write_bytes(serialize(Circuit(3, ())))
        assert main(["verify", "--circuit", str(path), "--target", kind, "--n", "3"]) == 64
        captured = capsys.readouterr()
        assert captured.err == f"error: {kind} needs {flag}\n" and captured.out == ""

    def test_closed_stdout_exits_quietly(self):
        # the pipe's reader is gone before the child writes its first line
        src = str(Path(mscompile.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = "import sys; from mscompile.cli import main; sys.exit(main())"
        cmd = [sys.executable, "-c", script, "crot-angles", "--n", "64", "--alpha", "1"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141  # 128 + SIGPIPE
        assert err == b""


def test_every_exported_exception_maps_to_an_exit_code():
    # SynthesisError exits 2 and ValueError 64; anything else would escape main
    exported = [getattr(mscompile, name) for name in mscompile.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert mscompile.PhaseResetError in errors and len(errors) == 9
    for cls in errors:
        assert issubclass(cls, (SynthesisError, ValueError)), cls
