import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxdet
from maxdet import constructions
from maxdet.bounds import BOUND_COLUMNS, evaluate_bounds
from maxdet.cli import EXCEPTIONAL_ROWS, _table1_core, build_parser, main


# the order-1 Hadamard matrix as a kron product nested 1000 deep
DEEP_RECIPE = "kron(unit," * 1000 + "unit" + ")" * 1000


def _no_memory(*args):
    raise MemoryError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_resolve(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "669", "--max", "1024")
        assert code == 0
        data = json.loads(out)
        assert (data["h"], data["d"]) == (664, 5)
        assert data["meta"]["version"]
        assert data["meta"]["sieve_limit"] == 1024
        assert "paley" in data["meta"]["rule_set"]

    def test_gaps(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "100", "--max", "256")
        assert code == 0
        data = json.loads(out)
        assert data["gamma"] == 4
        assert data["witness_pair"] == [100, 104]

    @pytest.mark.parametrize("argv", [
        ("bound", "3000000000000000000"),
        ("sieve", "--max", "3000000000000000000"),
        ("gaps", "3000000000000000000"),
        ("resolve", "3000000000000000000"),
        ("sieve", "--max", "16777217"),
    ], ids=["bound", "sieve", "gaps", "resolve", "sieve-max-plus-one"])
    def test_sieve_limit_above_max_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "error: sieve limit" in err and "16777216" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "4"),
        ("bound", "13", "--method", "paley1"),
        ("bound", "13", "--method", "paley2"),
    ], ids=["oracle", "method-paley1", "method-paley2"])
    def test_removed_surfaces_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_sieve_export(self, capsys, tmp_path):
        path = tmp_path / "orders.sieve"
        code, out, _ = run_cli(capsys, "sieve", "--max", "1024",
                               "--out", str(path))
        assert code == 0
        assert path.exists()
        data = json.loads(out)
        assert data["limit"] == 1024 and data["count"] > 200

    @pytest.mark.parametrize("limit_args, digest", [
        ((), "66bc69550ee1949a2a1fcbb5d0859da5f3e542d175e816b47fa256c448aea2de"),
        (("--max", "131072"),
         "afc6396f299d581cffd3a8ed0b1d4a64d6d635e8028f7fe440ca1c0474721a96"),
    ])
    def test_sieve_export_bytes_pinned(self, capsys, tmp_path, limit_args,
                                       digest):
        # members and rule tags of the exported cache; any change to these
        # bytes must be deliberate and named
        path = tmp_path / "orders.sieve"
        code, _, _ = run_cli(capsys, "sieve", *limit_args, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestParserReuse:
    def test_calls_in_one_process_print_as_first_calls(self, capsys,
                                                       tmp_path):
        # main() builds its parser once per process; no call may see what
        # an earlier one parsed
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        run_cli(capsys, "bound", "50", "--trials", "2", "--out", str(good))
        blob = json.loads(good.read_text())
        blob["det_schur"] = str(int(blob["det_schur"]) + 1)
        bad.write_text(json.dumps(blob))
        sequence = [
            ("table1", "--rows", "664", "--trials", "2"),
            ("table1", "--trials", "2"),
            ("bound", "670", "--trials", "2", "--format", "csv"),
            ("bound", "670", "--trials", "2"),
            ("verify", str(bad)),
            ("verify", str(good)),
        ]
        first = []
        for argv in sequence:
            build_parser.cache_clear()
            first.append(run_cli(capsys, *argv))
        build_parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in sequence] == first
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 1, 0]
        assert json.loads(first[1][1])["rows"][1]["h"] == 712
        assert first[2][1].startswith("name,applicable")


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = ("search", "--recipe", "paley1(11)", "--d", "2",
                "--trials", "8", "--seed", "123")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bound_byte_identical(self, capsys):
        args = ("bound", "21", "--trials", "16", "--seed", "5",
                "--max", "256")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBound:
    def test_member_order_ratio_one(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "672", "--trials", "4",
                               "--max", "1024")
        assert code == 0
        data = json.loads(out)
        assert data["resolution"] == {"h": 672, "d": 0}
        assert data["constructive"]["ratio_decimal"] == 1.0
        assert data["constructive"]["border_width"] == 0

    def test_small_n(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "14", "--trials", "32",
                               "--max", "256")
        assert code == 0
        data = json.loads(out)
        assert data["resolution"] == {"h": 12, "d": 2}
        assert data["witness_kind"] == "hadamard"
        assert data["constructive"]["ratio_decimal"] > 0
        names = {b["name"] for b in data["formula_bounds"]["bounds"]}
        assert "universal_floor" in names and "small_border" in names
        assert data["best_lower_bound"]["value_decimal"] > 0

    def test_conference_method(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "717", "--method",
                               "conference", "--trials", "4", "--max", "1024")
        assert code == 0
        data = json.loads(out)
        assert data["recipe"] == "conference(709)"
        assert data["witness_kind"] == "conference-witness"
        assert data["constructive"]["border_width"] == 7

    def test_unrealizable_core(self, capsys):
        # h = 92 resolves from n = 92 but has no planner recipe
        code, out, err = run_cli(capsys, "bound", "92", "--max", "256")
        assert code == 1 and out == ""
        assert "order 92" in err

    def test_n670_exceeds_small_border_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "670", "--trials", "200",
                               "--max", "1024")
        assert code == 0
        data = json.loads(out)
        assert data["resolution"] == {"h": 664, "d": 6}
        assert data["recipe"] == "paley1(331);double"
        assert data["constructive"]["ratio_decimal"] > (2 / (3.141592653589793
                                                             * 2.718281828459045)) ** 3

    def test_n717_conference_exceeds_power_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "717", "--method",
                               "conference", "--trials", "256", "--max", "1024")
        assert code == 0
        data = json.loads(out)
        assert data["constructive"]["ratio_decimal"] > 0.352 ** 5

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "13", "--trials", "4",
                               "--max", "64", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "name,applicable,target,value_log,value_decimal"

    @pytest.mark.parametrize("argv, h, d", [
        (("664",), 664, 0),
        (("717", "--method", "conference"), 712, 5),
    ], ids=["664-bare-core", "717-conference"])
    def test_rows_are_evaluate_bounds(self, capsys, argv, h, d):
        # bound prints evaluate_bounds as it is, and its CSV holds the same
        # rows over BOUND_COLUMNS
        report = evaluate_bounds(h + d, h, d)
        args = ("bound", *argv, "--trials", "4", "--max", "1024")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert json.loads(out)["formula_bounds"] == report
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [list(BOUND_COLUMNS)] + [
            ["" if row[c] is None else str(row[c]) for c in BOUND_COLUMNS]
            for row in report["bounds"]]

    @pytest.mark.parametrize("argv, digest", [
        (("670", "--trials", "16"),
         "7fa87ed18f276dba519e556a0098c63805662e76251f5b101fcacdc6ed589fbb"),
        (("717", "--method", "conference", "--trials", "16"),
         "5eaf690b9e7cecbbd85dd0261881e2e9e6add5d1947332de533c371a06452889"),
        (("670", "--format", "csv", "--trials", "16"),
         "db715e5c736beddca953e3e7bfd1bc8159cbe16b6f8619721287b392137c8fc6"),
        # 664 is an order of the sieve: the bare core, width 0
        (("664", "--trials", "8"),
         "4393d1d96cea77343c604da07b580c41a0ebe3521a60acbdf06fa44b84ef918c"),
    ], ids=["670", "717-conference", "670-csv", "664-bare-core"])
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        # the formula bounds next to the constructive one, as JSON and CSV;
        # any change to these bytes must be deliberate and named
        code, out, _ = run_cli(capsys, "bound", *argv, "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWitnessFlow:
    def test_search_verify_round_trip(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "search", "--recipe", "paley1(19)",
                               "--d", "3", "--trials", "8", "--seed", "1",
                               "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("argv, digest", [
        (("bound", "670", "--trials", "16", "--seed", "0"),
         "f52cc766eed06c78cf8f50eae6fd9dd5d4977ae4b747cc8818a2c834cb6937ba"),
        (("search", "--recipe", "conference(709)", "--d", "0"),
         "4929593ef47d8a69b79263052cf6d52ac674468f5b1a2561fffb747951383d0c"),
        (("bound", "11062", "--method", "conference", "--trials", "4",
          "--seed", "5"),
         "d86acc07ee2b8e03173d1117004eed2237ec069a3c4a668ba21003fff968cb3d"),
    ], ids=["bound-670", "search-709-bare-core", "bound-11062-conference"])
    def test_witness_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # B is drawn again from the best trial's stream for the witness,
        # and the file is what json.dump(..., indent=2) writes, newline ended
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @pytest.mark.parametrize("recipe, stdout_digest, witness_digest", [
        ("kron(paley1(3),paley1(7))",
         "3f71ef30a8eaa6e9b3b60ac3babe1d06c6b6b8c52426414fedf77b707727d8b5",
         "238a5cb97652389483f185e45d2038a669ed6a5f75303598112f5ce29bd10591"),
        ("paley2(13);double;double;double",
         "50fff72e19dccc3c440674a9839b77e7e1c2ed6c545a3f7e404525948888cdcc",
         "959f77877514d9bed80c4cd4c748982f4619361c5233cb63795d9f0bea59bade"),
    ], ids=["kron", "paley2-doubled-thrice"])
    def test_search_bytes_pinned(self, capsys, tmp_path, recipe,
                                 stdout_digest, witness_digest):
        # a Kronecker core and a Paley II core under three doublings: the
        # product paths through an outer factor and a transform tower
        argv = ("search", "--recipe", recipe, "--d", "3", "--trials", "8",
                "--seed", "0")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == witness_digest

    def test_verify_catches_corruption(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run_cli(capsys, "search", "--recipe", "paley1(19)", "--d", "2",
                "--trials", "4", "--seed", "2", "--out", str(path))
        blob = json.loads(path.read_text())
        row = blob["B"][0]
        blob["B"][0] = ("-" if row[0] == "+" else "+") + row[1:]
        path.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_verify_catches_tampered_det_schur(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "search", "--recipe", "paley1(19)",
                               "--d", "2", "--trials", "4", "--seed", "2",
                               "--out", str(path))
        blob = json.loads(path.read_text())
        assert blob["det_schur"] == json.loads(out)["det_schur"]
        blob["det_schur"] = str(int(blob["det_schur"]) - 1)
        path.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and "det_schur" in data["error"]

    @pytest.mark.parametrize("make_text", [
        lambda w: '{"n": 5}',
        lambda w: "[1, 2]",
        lambda w: "not json {",
        lambda w: json.dumps({**w, "B": [0] * len(w["B"])}),
        lambda w: json.dumps({**w, "det_schur": w["det_schur"] + "x"}),
        lambda w: json.dumps({**w, "det_schur": int(w["det_schur"])}),
    ], ids=["missing-fields", "list", "not-json", "B-rows-not-strings",
            "det_schur-not-decimal", "det_schur-not-string"])
    def test_verify_malformed_witness(self, capsys, tmp_path, make_text):
        path = tmp_path / "w.json"
        run_cli(capsys, "search", "--recipe", "paley1(19)", "--d", "2",
                "--trials", "2", "--out", str(path))
        path.write_text(make_text(json.loads(path.read_text())))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and data["error"]

    @pytest.mark.parametrize("recipe,ratio_log", [
        ("conference(709)", -0.5003524436480378),
        ("paley1(11)", 0.0),  # n = 12: verify also runs the direct check
    ])
    def test_bare_core_round_trip(self, capsys, tmp_path, recipe, ratio_log):
        path = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "search", "--recipe", recipe,
                               "--d", "0", "--out", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["ratio_log"], data["det_schur"]) == (ratio_log, "1")
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["ratio_log"] == ratio_log

    def test_verify_rejects_uncertified_core(self, capsys, tmp_path,
                                             monkeypatch):
        # a valid witness whose core's character no longer certifies
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "search", "--recipe", "conference(13)",
                             "--d", "2", "--trials", "2", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["ok"] is True
        real = constructions._quadratic_character

        def flipped(p):
            chi = real(p)
            chi[1] = -chi[1]
            return chi

        monkeypatch.setattr(constructions, "_quadratic_character", flipped)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and "character" in data["error"]
        code, out, err = run_cli(capsys, "search", "--recipe",
                                 "conference(13)", "--d", "1")
        assert code == 1 and out == "" and "character" in err

    def test_search_negative_width(self, capsys):
        code, out, err = run_cli(capsys, "search", "--recipe", "paley1(331)",
                                 "--d", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must be >= 0, got -1" in err

    def test_search_by_order(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--order", "12", "--d", "1",
                               "--trials", "4")
        assert code == 0
        assert json.loads(out)["recipe"] == "paley1(11)"

    def test_search_by_unrealizable_order(self, capsys):
        code, out, err = run_cli(capsys, "search", "--order", "92", "--d", "1")
        assert code == 1 and out == ""
        assert "order 92" in err

    @pytest.mark.parametrize("argv,message", [
        (("bound", "5", "--method", "conference"),
         "no conference order available at or below 5"),
        (("search", "--d", "2"), "search needs --recipe or --order")])
    def test_refused_arguments(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [f"error: {message}"]
        assert "Traceback" not in err

    def test_search_by_huge_order_fails_fast(self):
        # 2^61: 2^61 - 1 and 2^60 - 1 are refused without trial division,
        # and the planned paley1(127) doubled 54 times is refused before a
        # border of that order is drawn
        out = run_capped("search", "--order", str(1 << 61), "--d", "1",
                         timeout=8)
        assert out.returncode == 1 and out.stdout == ""
        assert "error:" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("exhausted", [
        lambda *args: np.empty(1 << 62, dtype=np.uint8),  # numpy's own
        _no_memory], ids=["numpy", "bare"])
    def test_memory_error_is_an_error_line(self, capsys, monkeypatch,
                                           exhausted):
        # the core's first product finds no memory for its work arrays
        monkeypatch.setattr(constructions, "work_array", exhausted)
        code, out, err = run_cli(capsys, "bound", "670", "--trials", "1")
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("error: out of memory")
        assert "Traceback" not in err

    def test_search_wider_than_core_refused(self):
        # a border wider than its core is refused before any G of that
        # width (8 d^2 bytes a trial) is made
        out = run_capped("search", "--recipe", "paley1(331)", "--d",
                         "100000", "--trials", "1", timeout=8)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr
        assert "border width 100000 exceeds the core order 332" in out.stderr

    def test_search_refuses_deep_recipe(self):
        # 1000 nested kron( would exhaust the recursion limit
        out = run_capped("search", "--recipe", DEEP_RECIPE, "--d", "1",
                         timeout=8)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr
        assert f"the limit is {constructions.RECIPE_NESTING_LIMIT}" in (
            out.stderr)

    def test_verify_refuses_deep_recipe(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "d": 1, "weight": 1, "kind": "hadamard",
            "recipe": DEEP_RECIPE, "B": ["+"], "D_off": "",
            "det_schur": "1", "ratio_log": 0.0, "ratio_decimal": 1.0}))
        out = run_capped("verify", str(path), timeout=8)
        assert out.returncode == 1 and "Traceback" not in out.stderr
        data = json.loads(out.stdout)
        assert data["ok"] is False
        assert (f"the limit is {constructions.RECIPE_NESTING_LIMIT}"
                in data["error"])

    def test_conference_walk_stops_at_oversized_prime(self, capsys):
        # the walk down from n must not pass the first p = 1 (mod 4) that
        # the FFT bound refuses (1.59e6 orders down to a core and a border
        # of that width)
        code, out, err = run_cli(capsys, "bound", "3000000", "--method",
                                 "conference", "--trials", "1")
        assert code == 1 and out == ""
        assert "error: FFT rounding bound" in err and "2999997" in err

    def test_verify_rejects_oversized_paley_prime(self, tmp_path):
        # a forged witness whose core is far beyond what the FFT bound can
        # certify, with no rows of B: refused by its own shape before the
        # core is built, in 1 GiB of address space, as a JSON error rather
        # than a traceback
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "n": 1000000009, "m": 1000000008, "d": 1, "weight": 1000000008,
            "kind": "hadamard", "recipe": "paley1(1000000007)", "B": [],
            "D_off": "", "det_schur": "1", "ratio_log": 0.0,
            "ratio_decimal": 1.0}))
        out = run_capped("verify", str(path))
        assert out.returncode == 1, out.stderr
        data = json.loads(out.stdout)
        assert data["ok"] is False and "wrong shape" in data["error"]

    def test_verify_refuses_huge_prime_quickly(self, tmp_path):
        # 2^61 - 1 is a prime = 3 (mod 4), which trial division would take
        # hours to confirm; B's shape refuses the witness before the core
        p = (1 << 61) - 1
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "n": p + 2, "m": p + 1, "d": 1, "weight": p + 1,
            "kind": "hadamard", "recipe": f"paley1({p})", "B": [],
            "D_off": "", "det_schur": "1", "ratio_log": 0.0,
            "ratio_decimal": 1.0}))
        out = run_capped("verify", str(path), timeout=5)
        assert out.returncode == 1, out.stderr
        data = json.loads(out.stdout)
        assert data["ok"] is False and "wrong shape" in data["error"]


class TestTable1:
    def test_row_cores(self):
        # a Hadamard row's core has order h; a conference row's has p + 1,
        # and no core exceeds its row's smallest n
        for h, _, ds, p, method in EXCEPTIONAL_ROWS:
            q = constructions.build_recipe(_table1_core(h, p, method))
            assert q.order == (p + 1 if method == "conference" else h)
            assert q.order <= h + min(ds)
            assert q.recipe.startswith(f"{method}({p})")

    def test_fast_row_664(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--rows", "664",
                               "--trials", "64", "--max", "4096")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        row = data["rows"][0]
        assert row["status"] == "pass"
        assert row["endpoints_member"] is True
        assert [c["passes_uniform_floor"] for c in row["checks"]] == [True, True]
        # the stronger small-border floor also holds on this row
        assert [c["passes_small_border_floor"] for c in row["checks"]] == [True, True]

    def test_big_rows_skipped_without_slow(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--rows", "10048",
                               "--trials", "4")
        assert code == 0
        data = json.loads(out)
        assert data["rows"][0]["status"] == "skipped"

    def test_stdout_bytes_pinned(self, capsys, exact_floor_calls):
        # the benchmark's own command; any change to these bytes must be
        # deliberate and named.  Logarithms decide every floor of its 16
        # cells, with no exact comparison
        code, out, _ = run_cli(capsys, "table1", "--trials", "8",
                               "--seed", "5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "22e8afa8e75c0d32815bdeaa7cff61ea2b10c7d59adacc04dbe7ddde3aed1fb3")
        assert sum(len(row.get("checks", ()))
                   for row in json.loads(out)["rows"]) == 16
        assert exact_floor_calls == []

    def test_empty_rows_is_usage_error(self, capsys):
        # an empty --rows would otherwise select every row
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--rows", "--trials", "1"])
        assert exc.value.code == 2
        assert "--rows" in capsys.readouterr().err

    def test_unknown_row_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table1", "--rows", "664", "5745",
                                 "--trials", "1")
        assert code == 1 and out == ""
        assert "[5745]" in err and "5744" in err


def run_capped(*argv, timeout=None):
    """Run the CLI in a child process under a 1 GiB address-space cap; BLAS
    keeps one thread, as it reserves address space per thread."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "maxdet", *argv],
        capture_output=True, text=True, preexec_fn=cap, timeout=timeout,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": str(Path(maxdet.__file__).parents[1])})


def test_largest_core_fits_in_one_gib():
    # conference(60457), the core of the largest Table 1 row
    out = run_capped("search", "--recipe", "conference(60457)", "--d", "3",
                     "--trials", "1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["n"] == 60461


def test_cache_reuse(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    code, _, err1 = run_cli(capsys, "resolve", "100", "--max", "512",
                            "--cache", str(cache))
    assert code == 0 and "building" in err1
    code, _, err2 = run_cli(capsys, "resolve", "100", "--max", "512",
                            "--cache", str(cache))
    assert code == 0 and "loaded sieve cache" in err2


def test_cache_second_run_same_bytes(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    args = ("resolve", "5758", "--cache", str(cache))
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert "building" in err1 and "loaded sieve cache" in err2
    assert out1 == out2
    assert len(json.loads(out2)["meta"]["rule_set"]) == 13


def test_cache_with_smaller_limit_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    run_cli(capsys, "sieve", "--max", "512", "--cache", str(cache))
    code, fresh, _ = run_cli(capsys, "resolve", "100", "--max", "4096")
    assert code == 0
    code, cached, err = run_cli(capsys, "resolve", "100", "--max", "4096",
                                "--cache", str(cache))
    assert code == 0 and "cache limit 512 below required 4096" in err
    assert "rebuilding" in err and cached == fresh
    from maxdet.sieve import OrderSet
    assert OrderSet.load(cache).limit == 4096


def test_cache_with_larger_limit_same_bytes(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    code, fresh, _ = run_cli(capsys, "sieve", "--max", "1024")
    assert code == 0
    run_cli(capsys, "sieve", "--max", "4096", "--cache", str(cache))
    code, cached, err = run_cli(capsys, "sieve", "--max", "1024",
                                "--cache", str(cache))
    assert code == 0 and "loaded sieve cache" in err
    assert cached == fresh
    assert json.loads(cached)["meta"]["sieve_limit"] == 1024


def test_cached_table1_keeps_interior_rules(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    args = ("table1", "--rows", "47964", "--trials", "1", "--cache", str(cache))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    interior = json.loads(outs[1])["rows"][0]["interior_members"]
    assert interior and all(m["rule"] is not None for m in interior)


def test_truncated_cache_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    code, out1, _ = run_cli(capsys, "resolve", "100", "--max", "512",
                            "--cache", str(cache))
    cache.write_bytes(cache.read_bytes()[:-7])
    code, out2, err = run_cli(capsys, "resolve", "100", "--max", "512",
                              "--cache", str(cache))
    assert code == 0 and "rebuilding" in err
    assert out2 == out1
    code, _, err = run_cli(capsys, "resolve", "100", "--max", "512",
                           "--cache", str(cache))
    assert code == 0 and "loaded sieve cache" in err


def _patched_cache(tmp_path, capsys, at, value: bytes):
    """A 512 cache with value written at offset at, and the fresh stdout."""
    cache = tmp_path / "c.sieve"
    code, fresh, _ = run_cli(capsys, "resolve", "100", "--max", "512",
                             "--cache", str(cache))
    assert code == 0
    blob = bytearray(cache.read_bytes())
    blob[at:at + len(value)] = value
    cache.write_bytes(bytes(blob))
    return cache, fresh


def test_cache_with_other_rules_is_rebuilt(tmp_path, capsys):
    from maxdet.sieve import MAGIC, RULE_PALEY
    # the u16 rule-set field after the u64 limit: only Paley's bit
    cache, fresh = _patched_cache(tmp_path, capsys, len(MAGIC) + 8,
                                  b"\x01\x00")
    code, out, err = run_cli(capsys, "resolve", "100", "--max", "512",
                             "--cache", str(cache))
    assert code == 0 and "other rules" in err and "rebuilding" in err
    assert out == fresh
    assert RULE_PALEY in json.loads(out)["meta"]["rule_set"]
    assert len(json.loads(out)["meta"]["rule_set"]) == 13


def test_cache_with_bad_tag_is_rebuilt(tmp_path, capsys):
    from maxdet.sieve import MAGIC
    # order 100's tag byte, after the header, the bitset and its byte 3
    at = len(MAGIC) + 10 + (512 // 4 + 1 + 7) // 8 + 1 + 100 // 4
    cache, fresh = _patched_cache(tmp_path, capsys, at, b"\xff")
    code, out, err = run_cli(capsys, "resolve", "100", "--max", "512",
                             "--cache", str(cache))
    assert code == 0 and "disagree" in err and "rebuilding" in err
    assert out == fresh
    code, _, err = run_cli(capsys, "resolve", "100", "--max", "512",
                           "--cache", str(cache))
    assert code == 0 and "loaded sieve cache" in err
