import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bellselftest
from bellselftest import _jsonio, hardy
from bellselftest.cli import _preset_problem, build_parser, cmd_membership, main, read_csv
from bellselftest.npa import membership
from bellselftest.npa.membership import pr_box_observed
from bellselftest.scenario import CHSH_SHAPE, behavior_of, observed, source_independent
from bellselftest.tree import QuditProtocol


class TestProtocolCommand:
    def test_figure2(self, tmp_path, capsys):
        out = tmp_path / "proto.json"
        rc = main(["protocol", "--coeffs", "1/6,1/8,1/6,1/6,1/8,1/4",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)" in printed
        proto = QuditProtocol.from_json(_jsonio.load(out))
        assert proto.tree.edges == ((0, 1), (0, 4), (0, 5), (1, 2), (1, 3))

    def test_qubit_pair(self, capsys):
        rc = main(["protocol", "--coeffs", "0.8,0.6"])
        assert rc == 0
        w = hardy.w_of_theta(np.arctan(0.6 / 0.8))
        assert f"{w:.8f}" in capsys.readouterr().out

    def test_maximally_entangled_exits_2(self, capsys):
        rc = main(["protocol", "--coeffs", "1,1"])
        assert rc == 2

    def test_bad_coeff_exits_2(self):
        assert main(["protocol", "--coeffs", "1/0,2"]) == 2

    @pytest.mark.parametrize("coeffs", ["1", "", " , "])
    def test_fewer_than_two_coeffs_exit_2(self, coeffs, capsys):
        assert main(["protocol", "--coeffs", coeffs]) == 2
        assert capsys.readouterr().err == "error: need at least two coefficients\n"


class TestSimulateVerify:
    def test_round_trip(self, tmp_path):
        can = hardy.canonical_realization(0.25)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        rpath = tmp_path / "real.json"
        _jsonio.dump(lifted.to_json(), rpath)
        bpath = tmp_path / "beh.json"
        opath = tmp_path / "obs.json"
        rc = main(["simulate", "--realization", str(rpath),
                   "--out-behavior", str(bpath), "--out-observed", str(opath)])
        assert rc == 0
        from bellselftest.scenario import Behavior
        beh = Behavior.from_json(_jsonio.load(bpath))
        assert np.max(np.abs(beh.tensor - behavior_of(lifted).tensor)) < 1e-15

        report = tmp_path / "report.json"
        rc = main(["verify", "--realization", str(rpath), "--w", "0.25",
                   "--out", str(report)])
        assert rc == 0
        assert _jsonio.load(report)["pass"] is True

    def test_verify_fails_on_wrong_w(self, tmp_path):
        can = hardy.canonical_realization(0.25)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        rpath = tmp_path / "real.json"
        _jsonio.dump(lifted.to_json(), rpath)
        assert main(["verify", "--realization", str(rpath), "--w", "0.5"]) == 1

    def test_verify_w_out_of_range_exits_2(self, tmp_path):
        rpath = tmp_path / "real.json"
        _jsonio.dump(hardy.canonical_realization(0.25).to_json(), rpath)
        assert main(["verify", "--realization", str(rpath), "--w", "1.0"]) == 2

    def test_qudit_verify_via_files(self, tmp_path):
        from bellselftest.selftest import canonical_qudit_realization
        from bellselftest.tree import SchmidtVector, protocol_of
        c = SchmidtVector(np.array([0.8, 0.6]))
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        rpath, ppath = tmp_path / "real.json", tmp_path / "proto.json"
        _jsonio.dump(dev.to_json(), rpath)
        _jsonio.dump(proto.to_json(), ppath)
        rc = main(["verify", "--realization", str(rpath), "--protocol", str(ppath)])
        assert rc == 0

    def test_unobservable_shape_writes_no_file(self, tmp_path):
        from bellselftest.selftest import canonical_qudit_realization
        from bellselftest.tree import SchmidtVector, protocol_of
        c = SchmidtVector(np.array([1 / 6, 1 / 8, 1 / 6, 1 / 6, 1 / 8, 1 / 4]))
        rpath = tmp_path / "real.json"
        _jsonio.dump(canonical_qudit_realization(c, protocol_of(c)).to_json(), rpath)
        bpath, opath = tmp_path / "b.json", tmp_path / "o.json"
        rc = main(["simulate", "--realization", str(rpath),
                   "--out-behavior", str(bpath), "--out-observed", str(opath)])
        assert rc == 2
        assert not bpath.exists() and not opath.exists()

    def test_qudit_round_trip_d16(self, tmp_path):
        from bellselftest.selftest import canonical_qudit_realization
        coeffs = ",".join(["1", "1.5", "2", "2.5"] * 4)
        ppath, rpath = tmp_path / "proto.json", tmp_path / "real.json"
        bpath, report = tmp_path / "beh.json", tmp_path / "report.json"
        assert main(["protocol", "--coeffs", coeffs, "--out", str(ppath)]) == 0
        proto = QuditProtocol.from_json(_jsonio.load(ppath))
        assert proto.d == 16
        _jsonio.dump(canonical_qudit_realization(proto.coeffs, proto).to_json(), rpath)
        assert main(["simulate", "--realization", str(rpath),
                     "--out-behavior", str(bpath)]) == 0
        tensor = np.asarray(_jsonio.load(bpath)["tensor"])
        assert np.max(np.abs(tensor.sum(axis=(0, 1, 2, 3)) - 1.0)) < 1e-10
        assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath),
                     "--out", str(report)]) == 0
        c = np.array([float(v) for v in coeffs.split(",")])
        extracted = _jsonio.load(report)["extractedCoefficients"]["0,0"]
        assert np.max(np.abs(np.array(extracted) - c / np.linalg.norm(c))) < 1e-7

    @staticmethod
    def _qudit_files(tmp_path, perturb=None):
        """d = 3 protocol and canonical realization files; ``perturb`` is
        added to rho_00 of the realization."""
        from bellselftest.scenario import ClassicalQuantumState, Realization
        from bellselftest.selftest import canonical_qudit_realization
        from bellselftest.tree import SchmidtVector, protocol_of
        c = SchmidtVector(np.array([3.0, 2.0, 1.0]))
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        if perturb is not None:
            cq = dev.cq
            cq = ClassicalQuantumState(shape=cq.shape, dims=cq.dims,
                                       states={(0, 0): cq.states[(0, 0)] + perturb})
            dev = Realization(cq=cq, alice=dev.alice, bob=dev.bob)
        rpath, ppath = tmp_path / "real.json", tmp_path / "proto.json"
        _jsonio.dump(dev.to_json(), rpath)
        _jsonio.dump(proto.to_json(), ppath)
        return rpath, ppath

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_non_hermitian_state_exits_2(self, tmp_path, capsys, command):
        skew = np.zeros((9, 9))
        skew[0, 4], skew[4, 0] = 1e-3, -1e-3
        rpath, ppath = self._qudit_files(tmp_path, skew)
        args = ["--protocol", str(ppath)] if command == "verify" else []
        assert main([command, "--realization", str(rpath), *args]) == 2
        assert "rho_00 is not Hermitian PSD" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("swapped", "false"), ("w", "0.5"),
                                              ("theta", "0.3"), ("p", "0.5")])
    def test_mistyped_protocol_field_exits_2(self, tmp_path, capsys, field, value):
        rpath, ppath = self._qudit_files(tmp_path)
        obj = _jsonio.load(ppath)
        obj["perEdge"][0][field] = value
        _jsonio.dump(obj, ppath)
        assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath)]) == 2
        assert f"error: {field}: '{value}' is not a " in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["w", "theta", "p"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_protocol_field_exits_2(self, tmp_path, capsys, field, value):
        rpath, ppath = self._qudit_files(tmp_path)
        obj = _jsonio.load(ppath)
        obj["perEdge"][0][field] = value
        # json.dumps writes the NaN and Infinity tokens that _jsonio refuses
        ppath.write_text(json.dumps(obj))
        assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath)]) == 2
        assert f"error: {field}: {value!r} is not finite" in capsys.readouterr().err

    def test_string_protocol_coeff_exits_2(self, tmp_path, capsys):
        rpath, ppath = self._qudit_files(tmp_path)
        obj = _jsonio.load(ppath)
        obj["coeffs"] = [str(v) for v in obj["coeffs"]]
        _jsonio.dump(obj, ppath)
        assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath)]) == 2
        assert "coeffs entries must be numbers, got str" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", [1, -1])
    def test_huge_integer_protocol_coeff_exits_2(self, tmp_path, capsys, sign):
        rpath, ppath = self._qudit_files(tmp_path)
        obj = _jsonio.load(ppath)
        obj["coeffs"][0] = sign * 10 ** 400
        ppath.write_text(json.dumps(obj))
        assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath)]) == 2
        assert "error: non-finite coeffs entry at [0]" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.update(coeffs=p["coeffs"][:2]), "coeffs must hold d = 3 numbers"),
        (lambda p: p.update(coeffs=p["coeffs"] + [0.5]), "coeffs must hold d = 3 numbers"),
        (lambda p: p.update(coeffs=[p["coeffs"]]), "coeffs must hold d = 3 numbers"),
        (lambda p: p["edges"].__setitem__(0, [0, 7]), "edges[0] must be below d = 3, got 7"),
        (lambda p: p["edges"].__setitem__(1, [0, -1]), "edges[1] must be an integer >= 0"),
        (lambda p: p["edges"].__setitem__(0, [0, 1, 2]), "edges[0] must be a list of two"),
        (lambda p: p["edges"].__setitem__(0, [0.5, 1]), "edges[0] must be an integer >= 0"),
        (lambda p: p.update(root=3), "root must be below d = 3, got 3"),
        (lambda p: p.update(root="0"), "root must be an integer >= 0"),
        (lambda p: p.update(perEdge=p["perEdge"][:1]), "perEdge has 1 entries for 2 edges"),
        (lambda p: p["perEdge"][0].update(edge=["a", 1]),
         "perEdge[0].edge: ['a', 1] is not edges[0] = [0, 1]"),
        (lambda p: p["perEdge"][0].update(edge=[1, 0]),
         "perEdge[0].edge: [1, 0] is not edges[0] = [0, 1]"),
        (lambda p: p["perEdge"].reverse(), "perEdge[0].edge: [0, 2] is not edges[0] = [0, 1]"),
    ], ids=["coeffs_short", "coeffs_long", "coeffs_nested", "edge_vertex_7",
            "edge_vertex_negative", "edge_triple", "edge_vertex_float", "root_3",
            "root_string", "per_edge_short", "per_edge_string_vertex",
            "per_edge_flipped", "per_edge_reordered"])
    def test_malformed_protocol_indices_exit_2(self, tmp_path, capsys, change, message):
        rpath, ppath = self._qudit_files(tmp_path)
        obj = _jsonio.load(ppath)
        assert obj["d"] == 3 and obj["edges"] == [[0, 1], [0, 2]] and obj["root"] == 0
        change(obj)
        _jsonio.dump(obj, ppath)
        assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["simulate", "--realization", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_non_integer_matrix_header_exits_2(self, tmp_path, capsys, command):
        obj = hardy.canonical_realization(0.25).to_json()
        obj["states"]["0,0"]["rows"] = 2.7
        bad = tmp_path / "bad.json"
        _jsonio.dump(obj, bad)
        args = ["--w", "0.25"] if command == "verify" else []
        assert main([command, "--realization", str(bad), *args]) == 2
        assert "rows must be an integer >= 0, got 2.7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_string_matrix_entry_exits_2(self, tmp_path, capsys, command):
        obj = json.loads(_jsonio.dumps(hardy.canonical_realization(0.25).to_json()))
        obj["states"]["0,0"]["entries"][0][0] = "1.5"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj, indent=2))
        args = ["--w", "0.25"] if command == "verify" else []
        assert main([command, "--realization", str(bad), *args]) == 2
        assert "matrix entries must be numbers, got str" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_huge_integer_matrix_entry_exits_2(self, tmp_path, capsys, command):
        obj = json.loads(_jsonio.dumps(hardy.canonical_realization(0.25).to_json()))
        obj["states"]["0,0"]["entries"][0][0] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        args = ["--w", "0.25"] if command == "verify" else []
        assert main([command, "--realization", str(bad), *args]) == 2
        assert "error: non-finite matrix entry at [0, 0]" in capsys.readouterr().err

    def test_schema_violation_reports_pointer(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        _jsonio.dump({"version": "realization.v1", "shape": {}}, bad)
        rc = main(["simulate", "--realization", str(bad)])
        assert rc == 2
        assert "/dims is missing" in capsys.readouterr().err


# single-source tilted Hardy at w = 0.5, level 2
HARDY_SPEC = {
    "shape": {"nS": 1, "nT": 1, "nX": 2, "nY": 2, "nA": 2, "nB": 2},
    "level": 2,
    "weights": {"0,0": 1.0},
    "zeros": [[0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 1]],
    "objective": [[[0, 0, 0, 0, 0, 0], 1.0], [[0, 0, 1, 1, 0, 0], 0.5]],
}


class TestBoundCommand:
    def test_chsh_preset_level1(self, capsys):
        rc = main(["bound", "--preset", "chsh", "--level", "1"])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(1 / np.sqrt(2), abs=1e-7)

    def test_tilted_hardy_preset(self, capsys):
        rc = main(["bound", "--preset", "tilted-hardy", "--w", "0", "--level", "2"])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(hardy.q_of_w(0.0), abs=1e-4)

    def test_problem_file(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        _jsonio.dump(HARDY_SPEC, path)
        rc = main(["bound", "--problem", str(path)])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(hardy.q_of_w(0.5), abs=1e-4)

    @pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
    def test_problem_file_non_integer_shape_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "problem.json"
        _jsonio.dump({**HARDY_SPEC, "shape": {**HARDY_SPEC["shape"], "nS": value}}, path)
        assert main(["bound", "--problem", str(path)]) == 2
        assert "nS must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--l", "0.2", "--u", "0.3"], "--l/--u"),
        (["--w", "0.9"], "--w"),
    ], ids=["l_u", "w"])
    def test_problem_file_rejects_ignored_flags(self, tmp_path, capsys, flags, named):
        path = tmp_path / "problem.json"
        _jsonio.dump(HARDY_SPEC, path)
        assert main(["bound", "--problem", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} has no effect with --problem")

    @pytest.mark.parametrize("change, named", [
        ({"level": 1.7}, "level must be an integer >= 1, got 1.7"),
        ({"level": True}, "level must be an integer >= 1, got True"),
        ({"objective": [[[0, 0, 5, 0, 0, 0], 1.0]]}, "objective: event [0, 0, 5, 0, 0, 0]"),
        ({"objective": [[[3, 0, 0, 0, 0, 0], 1.0]]}, "objective: event [3, 0, 0, 0, 0, 0]"),
        ({"zeros": [[0, 0, 5, 0, 0, 0]]}, "zeros: event [0, 0, 5, 0, 0, 0]"),
        ({"valueConstraints": [[[[[0, 0, 0, 0, 7, 0], 1.0]], 0.1]]},
         "valueConstraints: event [0, 0, 0, 0, 7, 0]"),
        ({"weights": {}}, "weights must have exactly the keys ['0,0']"),
        ({"weights": {"0,0": 1.0, "1,0": 0.0}}, "weights must have exactly the keys ['0,0']"),
        ({"weights": {"0,0": None}}, "weights: None is not a number"),
        ({"objective": 5}, "objective must be a list of [event, coefficient] pairs, got 5"),
        ({"objective": {"0": 1}}, "objective must be a list of [event, coefficient] pairs"),
        ({"objective": [5]}, "objective: 5 is not a pair [event, coefficient]"),
        ({"objective": [[[0, 0, 0, 0, 0, 0], 0.5, 0.25]]},
         "objective: [[0, 0, 0, 0, 0, 0], 0.5, 0.25] is not a pair [event, coefficient]"),
        ({"objective": [[[0, 0, 0, 0, 0, 0], "1"]]}, "objective: '1' is not a number"),
        ({"objective": [[5, 1.0]]}, "objective: event 5 must be six integers"),
        ({"valueConstraints": 5}, "valueConstraints must be a list of [terms, value] pairs"),
        ({"valueConstraints": [0.1]}, "valueConstraints: 0.1 is not a pair [terms, value]"),
        ({"valueConstraints": [[5, 0.1]]},
         "valueConstraints must be a list of [event, coefficient] pairs, got 5"),
        ({"valueConstraints": [[[[[0, 0, 0, 0, 0, 0], 1.0]], None]]},
         "valueConstraints: None is not a number"),
        ({"zeros": 5}, "zeros must be a list of events, got 5"),
        ({"zeros": [5]}, "zeros: event 5 must be six integers"),
        ({"shape": 5}, "shape must be an object, got 5"),
        ([1, 2], "problem spec must be a JSON object, got [1, 2]"),
    ], ids=["level_float", "level_bool", "outcome_out_of_range", "source_out_of_range",
            "zero_out_of_range", "setting_out_of_range", "weight_missing", "weight_extra",
            "weight_null", "objective_int", "objective_object", "objective_item_int",
            "objective_triple", "objective_coeff_string", "objective_event_int",
            "constraints_int", "constraints_item_float", "constraints_terms_int",
            "constraints_value_null", "zeros_int", "zeros_item_int", "shape_int",
            "spec_list"])
    def test_problem_file_rejects_malformed_fields(self, tmp_path, capsys, change, named):
        path = tmp_path / "problem.json"
        # a change that is not an object replaces the whole spec
        _jsonio.dump({**HARDY_SPEC, **change} if isinstance(change, dict) else change, path)
        assert main(["bound", "--problem", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}")

    @pytest.mark.parametrize("change, named", [
        ({"objective": [[[0, 0, 0, 0, 0, 0], float("nan")]]}, "objective: nan"),
        ({"weights": {"0,0": float("inf")}}, "weights: inf"),
        ({"valueConstraints": [[[[[0, 0, 0, 0, 0, 0], 1.0]], float("-inf")]]},
         "valueConstraints: -inf"),
    ], ids=["objective", "weights", "valueConstraints"])
    def test_problem_file_rejects_non_finite_numbers(self, tmp_path, capsys, change, named):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**HARDY_SPEC, **change}))
        assert main(["bound", "--problem", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} is not finite")

    @pytest.mark.parametrize("preset, w, level, bounds, digest", [
        ("chsh", None, 2, (0.2, 0.3), "9a9a0ac80a4d0ce3"),
        ("chsh", None, 1, (0.25, 0.25), "076e8f359e6a8a85"),
        ("tilted-hardy", 0.3, 2, (0.2, 0.3), "087e80100e49b197"),
        ("tilted-hardy", 0.3, 2, None, "d6e3b3bc652d9af4"),
    ], ids=["chsh_l2", "chsh_l1_equal", "hardy_l2", "hardy_l2_single_source"])
    def test_problem_bytes_pinned(self, preset, w, level, bounds, digest):
        """The sdp.v1 problem section of ``bound --out``, byte for byte."""
        text = _jsonio.dumps(_preset_problem(preset, w, level, bounds).to_json())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_chsh_preset_rejects_w(self, capsys):
        assert main(["bound", "--preset", "chsh", "--w", "0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--w has no effect with preset chsh" in captured.err

    def test_zero_value_conflict_is_infeasible(self, tmp_path, capsys):
        spec = dict(HARDY_SPEC, valueConstraints=[[[[[0, 0, 0, 1, 0, 1], 1.0]], 0.25]])
        path = tmp_path / "problem.json"
        _jsonio.dump(spec, path)
        assert main(["bound", "--problem", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver status: PrimalInfeasible\n"

    @pytest.mark.parametrize("bounds", [["0.2", "0.3"], [0.2]], ids=["strings", "one_value"])
    def test_malformed_residual_bounds_exit_2(self, tmp_path, capsys, bounds):
        path = tmp_path / "problem.json"
        _jsonio.dump(dict(HARDY_SPEC, residualBounds=bounds), path)
        assert main(["bound", "--problem", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: residualBounds must be two real numbers [l, u], "
                                f"got {bounds!r}\n")

    def test_bad_level_exits_2(self):
        assert main(["bound", "--preset", "chsh", "--level", "7"]) == 2

    def test_bad_bounds_exit_2(self):
        assert main(["bound", "--preset", "chsh", "--l", "0.5", "--u", "0.2"]) == 2


class TestParser:
    def test_built_once_and_nothing_carries_over(self, capsys):
        assert build_parser() is build_parser()
        assert main(["bound", "--preset", "tilted-hardy", "--w", "0", "--level", "1"]) == 0
        assert main(["bound", "--preset", "tilted-hardy", "--w", "0"]) == 0
        assert capsys.readouterr().out == "0.20626740\n0.09016995\n"
        args = build_parser().parse_args(["membership", "--observed", "obs.json"])
        assert vars(args) == {"subcommand": "membership", "observed": "obs.json",
                              "level": 1, "l": None, "u": None,
                              "certificate_out": None, "func": cmd_membership}


class TestMembershipCommand:
    def test_pr_box_infeasible(self, tmp_path, capsys):
        opath = tmp_path / "pr.json"
        _jsonio.dump(pr_box_observed().to_json(), opath)
        cpath = tmp_path / "cert.json"
        rc = main(["membership", "--observed", str(opath), "--level", "1",
                   "--l", "0.25", "--u", "0.25", "--certificate-out", str(cpath)])
        assert rc == 1
        assert "Infeasible" in capsys.readouterr().out
        cert = _jsonio.load(cpath)
        assert cert["version"] == "certificate.v1"

    def test_quantum_feasible(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        from conftest import random_source_independent
        o = observed(behavior_of(random_source_independent(rng)))
        opath = tmp_path / "obs.json"
        _jsonio.dump(o.to_json(), opath)
        rc = main(["membership", "--observed", str(opath), "--level", "1"])
        assert rc == 0

    def test_bad_level_exits_2(self, tmp_path):
        opath = tmp_path / "pr.json"
        _jsonio.dump(pr_box_observed().to_json(), opath)
        assert main(["membership", "--observed", str(opath), "--level", "7"]) == 2

    def test_huge_integer_table_entry_exits_2(self, tmp_path, capsys):
        obj = json.loads(_jsonio.dumps(pr_box_observed().to_json()))
        obj["table"][1][0][1][1] = 10 ** 400
        opath = tmp_path / "big.json"
        opath.write_text(json.dumps(obj))
        assert main(["membership", "--observed", str(opath), "--level", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{opath}: non-finite table entry at [1, 0, 1, 1]" in err

    def test_null_entry_exits_2_before_assembly(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("membership_test reached with a non-finite table")

        monkeypatch.setattr(membership, "membership_test", unreachable)
        obj = pr_box_observed().to_json()
        table = obj["table"].tolist()
        table[1][1][0][1] = None
        opath = tmp_path / "null.json"
        _jsonio.dump({**obj, "table": table}, opath)
        assert main(["membership", "--observed", str(opath), "--level", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{opath}: non-finite table entry at [1, 1, 0, 1]" in err


class TestDemos:
    def test_chsh_counterexample_demo(self, tmp_path):
        rc = main(["demo", "chsh-counterexample", "--out", str(tmp_path),
                   "--grid", "13"])
        assert rc == 0
        header, rows = read_csv(os.path.join(str(tmp_path),
                                             "chsh_counterexample.csv"))
        assert header == ["alpha", "chshValue", "l", "u",
                          "traceDistance_rho00_rho11"]
        assert len(rows) == 13
        center = rows[6]
        assert center[0] == pytest.approx(np.pi / 4, abs=1e-8)
        assert center[1] == pytest.approx(0.70710678, abs=1e-8)
        assert center[2] == pytest.approx(0.25, abs=1e-8)
        assert center[3] == pytest.approx(0.25, abs=1e-8)
        off = rows[4]  # alpha = pi/4 - 0.1
        assert off[2] < 0.25 < off[3]
        assert off[4] > 1e-3
        for row in rows:
            assert row[1] == pytest.approx(0.70710678, abs=1e-8)

    def test_hardy_selftest_demo(self, tmp_path):
        rc = main(["demo", "hardy-selftest", "--out", str(tmp_path),
                   "--w-grid", "0,0.5"])
        assert rc == 0
        header, rows = read_csv(os.path.join(str(tmp_path), "hardy_selftest.csv"))
        assert header == ["w", "qFormula", "seesaw", "sdpBound", "pass"]
        byw = {row[0]: row for row in rows}
        assert byw[0.0][1] == pytest.approx(0.09016994, abs=1e-8)
        for w, row in byw.items():
            assert row[2] == pytest.approx(hardy.q_of_w(w), abs=1e-6)
            assert row[3] >= hardy.q_of_w(w) - 1e-7
            assert row[4] == "true"

    def test_hardy_selftest_default_csv_golden(self, tmp_path):
        """Default grid, seed 7: the see-saw, q(w) and NPA columns to 8 decimals."""
        assert main(["demo", "hardy-selftest", "--out", str(tmp_path)]) == 0
        data = (tmp_path / "hardy_selftest.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "92a5c751a3166a172923ad37b7e822105725ae7e57072d2b7a5afcc3e59dd99e")

    def test_hardy_selftest_w_out_of_range_exits_2(self, tmp_path):
        assert main(["demo", "hardy-selftest", "--out", str(tmp_path),
                     "--w-grid", "1.0"]) == 2

    def test_deterministic_outputs(self, tmp_path):
        from bellselftest.selftest import canonical_qudit_realization
        runs = []
        for run in ("a", "b"):
            ppath, rpath = tmp_path / f"{run}.proto.json", tmp_path / f"{run}.real.json"
            report = tmp_path / f"{run}.report.json"
            assert main(["protocol", "--coeffs", "1/6,1/8,1/6,1/6,1/8,1/4",
                         "--out", str(ppath)]) == 0
            proto = QuditProtocol.from_json(_jsonio.load(ppath))
            _jsonio.dump(canonical_qudit_realization(proto.coeffs, proto).to_json(), rpath)
            assert main(["verify", "--realization", str(rpath), "--protocol", str(ppath),
                         "--out", str(report)]) == 0
            runs.append([p.read_bytes() for p in (ppath, rpath, report)])
        assert runs[0] == runs[1]
        assert [_jsonio.loads(b)["version"] for b in runs[0]] == [
            "protocol.v1", "realization.v1", "report.v1"]

    def test_demo_rows_run_on_calling_thread(self, tmp_path, monkeypatch):
        """Demo rows run one at a time in the calling thread; the environment
        variable that once sized a worker pool changes nothing."""
        build = hardy.canonical_realization
        idents = []

        def recording(w):
            idents.append(threading.get_ident())
            return build(w)

        monkeypatch.setattr(hardy, "canonical_realization", recording)
        csvs = []
        for threads in ("2", None):
            if threads is None:
                monkeypatch.delenv("SELFTEST_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("SELFTEST_NUM_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            assert main(["demo", "hardy-selftest", "--out", str(out),
                         "--w-grid", "0,0.25,0.5"]) == 0
            csvs.append((out / "hardy_selftest.csv").read_bytes())
        assert idents == [threading.get_ident()] * 6
        assert csvs[0] == csvs[1]

    def test_bound_independent_of_blas_threads(self, tmp_path):
        """The solver runs on one BLAS thread whatever the caller's setting,
        so the printed bound and the dump carry the same bits."""
        src = str(Path(bellselftest.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            dump = tmp_path / f"dump{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from bellselftest.cli import main; sys.exit(main(sys.argv[1:]))",
                 "bound", "--preset", "chsh", "--level", "2",
                 "--l", "0.18913474246943984", "--u", "0.3098686750156434",
                 "--out", str(dump)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append((proc.stdout, dump.read_bytes()))
        assert outs[0][0].strip() == "0.77740709"
        assert outs[0] == outs[1]

    def test_bound_never_imports_the_optimizer(self, tmp_path):
        """No command needs scipy: a bound, a membership test, a qudit verify
        and both demos leave every scipy module unimported, so its import
        time and memory are not paid."""
        from bellselftest.selftest import canonical_qudit_realization
        from bellselftest.tree import SchmidtVector, protocol_of
        src = str(Path(bellselftest.__file__).resolve().parents[1])
        opath, rpath, ppath = tmp_path / "pr.json", tmp_path / "real.json", tmp_path / "proto.json"
        _jsonio.dump(pr_box_observed().to_json(), opath)
        proto = protocol_of(SchmidtVector(np.array([0.8, 0.6])))
        _jsonio.dump(proto.to_json(), ppath)
        _jsonio.dump(canonical_qudit_realization(proto.coeffs, proto).to_json(), rpath)
        commands = [
            ["bound", "--preset", "chsh", "--level", "1"],
            ["membership", "--observed", str(opath), "--level", "1",
             "--l", "0.25", "--u", "0.25"],
            ["verify", "--realization", str(rpath), "--protocol", str(ppath)],
            ["demo", "hardy-selftest", "--out", str(tmp_path), "--w-grid", "0,0.5"],
            ["demo", "chsh-counterexample", "--out", str(tmp_path), "--grid", "3"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; from bellselftest.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    rc = main(argv)\n"
             "    print('imported', rc, sorted(m for m in sys.modules\n"
             "                                 if m.split('.')[0] == 'scipy'))",
             json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines()
                if line.startswith("imported")] == [
            "imported 0 []", "imported 1 []", "imported 0 []", "imported 0 []",
            "imported 0 []"]

    def test_demo_csv_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["demo", "chsh-counterexample", "--out", str(d),
                         "--grid", "5"]) == 0
        f1 = (d1 / "chsh_counterexample.csv").read_bytes()
        f2 = (d2 / "chsh_counterexample.csv").read_bytes()
        assert f1 == f2
