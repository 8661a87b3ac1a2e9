import json

import pytest

from polyprime import cli, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_text_round_trip(self, capsys):
        code, out, _ = run(capsys, "parse", "--grid", "#.\\n##")
        assert code == 0
        assert out == "#.\n##\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "parse", "--grid", "#", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"cells": [[0, 0]]}

    def test_json_input_accepted(self, capsys):
        code, out, _ = run(capsys, "parse", "--grid", '{"cells": [[5, 5], [6, 5]]}')
        assert code == 0
        assert out == "##\n"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "shape.txt"
        path.write_text("###\n#.#\n###\n")
        code, out, _ = run(capsys, "parse", "--file", str(path))
        assert code == 0
        assert out == "###\n#.#\n###\n"

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        forms = (("shape.txt", "#.\r\n##\r\n"), ("shape.json", '{"cells": [[0, 0], [0, 1], [1, 0]]}'))
        for name, content in forms:
            path = tmp_path / name
            path.write_text(content, encoding="utf-8-sig")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
            code, out, err = run(capsys, "parse", "--file", str(path))
            assert (code, out, err) == (0, "#.\n##\n", "")

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse")
        assert code == 2
        assert "input error" in err

    def test_two_inputs_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("#")
        code, _, _ = run(capsys, "parse", "--grid", "#", "--file", str(path))
        assert code == 2

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "--grid", "#?")
        assert code == 2
        assert "input error" in err

    def test_disconnected_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "parse", "--grid", "#.\\n.#")
        assert code == 2

    @pytest.mark.parametrize("grid", [
        '{"cells": 5}',
        '{"cells": [[0.7, 0], [1, 0]]}',
        '{"cells": [[true, 0]]}',
        '{"cells": [[0, 0, 0]]}',
        '{"cells": ["00"]}',
    ], ids=["not-a-list", "float", "bool", "triple", "string"])
    def test_json_cells_must_be_int_pairs(self, capsys, grid):
        code, out, err = run(capsys, "parse", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "input error: expected an object whose 'cells' is a list of [x, y] integer pairs" in err


class TestCheckSimple:
    def test_annulus_false(self, capsys):
        code, out, _ = run(capsys, "check-simple", "--grid", "###\\n#.#\\n###")
        assert code == 0
        assert out == "false\n"

    def test_rectangle_true_json(self, capsys):
        code, out, _ = run(capsys, "check-simple", "--grid", "###\\n###", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"simple": True}


class TestGraph:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "--grid", "#", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"v": 2, "h": 2, "edges": [
            [0, 0, [0, 0]], [0, 1, [0, 1]], [1, 0, [1, 0]], [1, 1, [1, 1]]]}

    def test_text_is_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--grid", "#")
        assert code == 0
        assert out.startswith("graph G {")


class TestGens:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "gens", "--grid", "#")
        assert code == 0
        assert out == "x(0,0)*x(1,1) - x(0,1)*x(1,0)\n"


class TestGb:
    def test_embeds_order_spec(self, capsys):
        code, out, _ = run(capsys, "gb", "--grid", "#", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["order"]["kind"] == "degrevlex"
        assert data["elements"] == ["x(0,1)*x(1,0) - x(0,0)*x(1,1)"]

    def test_one_block_order_with_a_named_ranking(self, capsys):
        # a ranking may be a family name inside a block as well as at the top
        plain = json.dumps({"kind": "lex", "ranking": "row-major"})
        block = json.dumps({"kind": "block", "blocks": [{"kind": "lex", "ranking": "row-major"}]})
        outputs = []
        for spec in (plain, block):
            code, out, _ = run(capsys, "gb", "--grid", "##\\n#.", "--order", spec, "--format", "json")
            assert code == 0
            outputs.append(json.loads(out))
        assert outputs[1]["order"]["kind"] == "block"
        assert outputs[1]["order"]["blocks"] == [outputs[0]["order"]]
        assert outputs[1]["elements"] == outputs[0]["elements"]

    @pytest.mark.parametrize("spec, message", [
        ('[1,2]', "an order spec must be a JSON object, got [1, 2]"),
        ('"x"', "an order spec must be a JSON object, got 'x'"),
        ('{"ranking":"row-major"}', "has no 'kind'"),
        ('{"kind":"foo","ranking":"row-major"}', "unknown order kind 'foo'"),
        ('{"kind":"degrevlex","ranking":"bogus"}', "unknown ranking 'bogus'"),
        ('{"kind":"lex","ranking":["x(9,9)"]}', "unknown variable 'x(9,9)'"),
        ('{"kind":"lex","ranking":[1.5]}', "ranking entry 1.5 is neither a variable index nor a variable name"),
    ], ids=["list", "string", "no-kind", "unknown-kind", "unknown-ranking", "unknown-variable", "float-index"])
    def test_malformed_order_exits_2(self, capsys, spec, message):
        code, out, err = run(capsys, "gb", "--grid", "##", "--order", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("polyprime: ") and message in err
        assert "Traceback" not in err

    def test_custom_order(self, capsys):
        spec = json.dumps({"kind": "lex", "ranking": "column-major"})
        code, out, _ = run(capsys, "gb", "--grid", "#", "--order", spec, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["order"]["kind"] == "lex"

    def test_budget_exhaustion_exits_1(self, capsys):
        code, _, err = run(capsys, "gb", "--grid", "##\\n##", "--budget-pairs", "2")
        assert code == 1
        assert "budget" in err


class TestToric:
    def test_elimination_default(self, capsys):
        code, out, _ = run(capsys, "toric", "--grid", "#", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["oracle"] == "elimination"
        assert data["elements"] == ["x(0,1)*x(1,0) - x(0,0)*x(1,1)"]

    def test_cycles_oracle(self, capsys):
        code, out, _ = run(capsys, "cycles", "--grid", "##", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["oracle"] == "cycles"
        assert len(data["binomials"]) == 3

    @pytest.mark.parametrize("n", ["3", "0", "-5"])
    def test_max_cycle_len_below_four_exits_2(self, capsys, n):
        code, out, err = run(capsys, "cycles", "--grid", "##", "--max-cycle-len", n)
        assert code == 2
        assert out == ""
        assert f"max_len must be at least 4, the length of the shortest chordless cycle, got {n}" in err

    def test_max_cycle_len(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--grid", "##\\n##", "--max-cycle-len", "4",
            "--format", "json")
        assert code == 0
        assert len(json.loads(out)["binomials"]) == 9


class TestVerify:
    def test_single_cell_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "#", "--format", "json", "--no-timings")
        assert code == 0
        data = json.loads(out)
        assert data["ideals_equal"] is True
        assert data["simple"] is True
        assert data["timings"] is None

    def test_timings_printed_by_default(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "#", "--format", "json")
        assert code == 0
        assert {"simple", "gb_toric", "quadratic_order"} <= set(json.loads(out)["timings"])

    def test_annulus_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "###\\n#.#\\n###", "--no-timings")
        assert code == 0
        assert 'ideals_equal: false' in out
        assert '"x(1,1)*x(2,2) - x(1,2)*x(2,1)"' in out

    def test_no_timings_byte_identical(self, capsys):
        args = ("verify", "--grid", "#.\\n##", "--format", "json", "--no-timings")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "verify", "--grid", "##", "--no-timings")
        _, json_out, _ = run(capsys, "verify", "--grid", "##", "--format", "json", "--no-timings")
        data = json.loads(json_out)
        for key in ("simple", "weakly_chordal", "ideals_equal"):
            assert f"{key}: {json.dumps(data[key])}" in text_out


class TestSweep:
    def test_sweep3_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "3", "--format", "json", "--no-timings")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 9
        assert data["violations"] == []
        assert data["per_size"]["3"]["count"] == 6
        assert data["wall_clock"] is None

    def test_sweep_text(self, capsys):
        code, out, _ = run(capsys, "sweep", "2", "--no-timings")
        assert code == 0
        assert "violations: 0" in out

    def test_sweep_budget_errors_exit_1(self, capsys):
        code, out, err = run(capsys, "sweep", "2", "--budget-pairs", "20", "--format", "json",
                             "--no-timings")
        assert code == 1
        data = json.loads(out)
        assert data["total"] == 3
        assert [e["cells"] for e in data["budget_errors"]] == [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]
        assert "budget exhausted on 2 shapes" in err

    def test_sweep_beyond_cap_is_usage_error(self, capsys, monkeypatch):
        # the size is checked before any shape of the sizes below the cap is verified
        calls = []
        monkeypatch.setattr(verify, "verify_polyomino", lambda *args: calls.append(args))
        monkeypatch.setenv("POLYPRIME_CAP", "3")
        code, _, err = run(capsys, "sweep", "5")
        assert code == 2
        assert "exceeds the enumeration cap 3" in err
        assert calls == []

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sweep_of_no_cells_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "sweep", "--", n)
        assert code == 2
        assert out == ""
        assert "cell count must be positive" in err

    @pytest.mark.parametrize("cap", ["abc", "0", "-3"])
    def test_non_integer_cap_is_usage_error(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("POLYPRIME_CAP", cap)
        code, out, err = run(capsys, "sweep", "1")
        assert code == 2
        assert out == ""
        assert err == f"polyprime: POLYPRIME_CAP must be a positive integer, got {cap!r}\n"

    def test_cap_env_override_allows(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYPRIME_CAP", "4")
        code, out, _ = run(capsys, "sweep", "4", "--format", "json", "--no-timings")
        assert code == 0
        assert json.loads(out)["total"] == 28


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_order_json_exits_2(self, capsys):
        code, _, _ = run(capsys, "gb", "--grid", "#", "--order", "{not json")
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "parse", "--file", "/nonexistent/shape.txt")
        assert code == 2

    def test_directory_as_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "parse", "--file", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("polyprime: ") and err.count("\n") == 1

    def test_unreadable_file_exits_2(self, capsys, tmp_path, monkeypatch):
        # a file whose open fails with PermissionError, whoever runs the test
        path = tmp_path / "shape.txt"
        path.write_text("##\n")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", denied, raising=False)  # shadows the builtin in cli only
        code, out, err = run(capsys, "parse", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"polyprime: [Errno 13] Permission denied: '{path}'\n"

    @pytest.mark.parametrize("argv, message", [
        (("gb", "--grid", "##", "--budget-pairs", "-1"), "pairs budget must be >= 0, got -1"),
        (("sweep", "2", "--budget-elems", "-1"), "elements budget must be >= 0, got -1"),
    ], ids=["gb-pairs", "sweep-elems"])
    def test_negative_budget_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_zero_budget_stays_valid(self, capsys):
        # one cell, one generator: no S-pair to pay for
        code, out, _ = run(capsys, "gb", "--grid", "#", "--budget-pairs", "0")
        assert code == 0
        assert out == "x(0,1)*x(1,0) - x(0,0)*x(1,1)\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--grid", "##", "--order", '{"kind":"lex","ranking":"column-major"}'),
        ("parse", "--grid", "##", "--budget-pairs", "1"),
        ("gb", "--grid", "##", "--no-timings"),
        ("sweep", "2", "--max-cycle-len", "4"),
        ("toric", "--grid", "##", "cycles", "--order", "nonsense", "--budget-pairs", "1"),
        ("toric", "--grid", "##", "--max-cycle-len", "1"),
        ("cycles", "--grid", "##", "--order", "nonsense", "--budget-pairs", "1"),
    ], ids=["verify-order", "parse-budget-pairs", "gb-no-timings", "sweep-max-cycle-len",
            "toric-cycles-positional", "toric-max-cycle-len", "cycles-order"])
    def test_flag_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
