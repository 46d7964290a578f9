import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxdet
from maxdet import cli, constructions, sieve
from maxdet.bounds import BOUND_COLUMNS, evaluate_bounds
from maxdet.cli import EXCEPTIONAL_ROWS, _table1_core, build_parser, main
from oracles import hadsieve2_bytes


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
        code, out, _ = run_cli(capsys, "resolve", "669")
        assert code == 0
        data = json.loads(out)
        assert (data["h"], data["d"]) == (664, 5)
        assert data["meta"]["version"]
        assert data["meta"]["sieve_limit"] == 65536
        assert "paley" in data["meta"]["rule_set"]

    def test_gaps(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "100")
        assert code == 0
        data = json.loads(out)
        assert data["gamma"] == 4
        assert data["witness_pair"] == [100, 104]

    def test_gaps_pads_the_sieve_only_to_sieve_max(self, capsys,
                                                   monkeypatch):
        # the limit of x's sieve is padded for the successor of x's last
        # member, but not past SIEVE_MAX; where no member lies above x
        # there, its last gap is unknown and refused
        monkeypatch.setattr(sieve, "SIEVE_MAX", 1024)
        monkeypatch.setattr(cli, "DEFAULT_LIMIT", 256)
        code, out, err = run_cli(capsys, "gaps", "1000")
        assert code == 0, err
        data = json.loads(out)
        assert data["meta"]["sieve_limit"] == 1024
        assert (data["gamma"], data["witness_pair"]) == (8, [1000, 1008])
        code, out, err = run_cli(capsys, "gaps", "1024")
        assert code == 1 and out == ""
        assert "error: insufficient headroom" in err

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
        # each command works out its own sieve limit, search its core's
        # kind from --order, and sieve writes its file through --cache;
        # search takes its core from --recipe or from --order, not both
        ("gaps", "100", "--max", "1024"),
        ("resolve", "100", "--max", "1024"),
        ("bound", "13", "--max", "1024"),
        ("table1", "--rows", "664", "--max", "65536"),
        ("search", "--order", "6", "--kind", "conference", "--d", "1"),
        ("sieve", "--out", "orders.sieve"),
        ("search", "--recipe", "conference(5)", "--order", "12", "--d", "1"),
    ], ids=["oracle", "method-paley1", "method-paley2", "gaps-max",
            "resolve-max", "bound-max", "table1-max", "search-kind",
            "sieve-out", "search-recipe-and-order"])
    def test_removed_surfaces_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, limit", [
        (("resolve", "70000"), 70000),
        (("gaps", "100"), 65536),
        (("gaps", "70000"), 74096),
        (("bound", "670", "--trials", "1"), 65536),
        (("bound", "65540", "--trials", "1"), 65540),
        (("table1", "--rows", "664", "--trials", "1"), 65536),
    ], ids=["resolve-70000", "gaps", "gaps-70000", "bound", "bound-65540",
            "table1"])
    def test_sieve_limit_is_the_commands_own(self, capsys, argv, limit):
        # the limit a command needs, at least the default: n for resolve
        # and bound, x padded by 4096 for gaps, the largest h' for table1
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["meta"]["sieve_limit"] == limit

    def test_sieve_export(self, capsys, tmp_path):
        path = tmp_path / "orders.sieve"
        code, out, _ = run_cli(capsys, "sieve", "--max", "1024",
                               "--cache", str(path))
        assert code == 0
        assert path.exists()
        data = json.loads(out)
        assert data["limit"] == 1024 and data["count"] > 200

    @pytest.mark.parametrize("limit_args, digest", [
        ((), "003e5b9822a0386c73d6b6ad90b121448d01c22baabd3a7cc0d0207e925013e6"),
        (("--max", "131072"),
         "17aec9fbba9379954073477972ea9e67e9898cfc137d1a4321900691c3cca6bc"),
    ], ids=["65536", "131072"])
    def test_sieve_export_bytes_pinned(self, capsys, tmp_path, limit_args,
                                       digest):
        # members and rule tags of the cache sieve writes; any change to these
        # bytes must be deliberate and named
        path = tmp_path / "orders.sieve"
        code, _, _ = run_cli(capsys, "sieve", *limit_args,
                             "--cache", str(path))
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
        args = ("bound", "21", "--trials", "16", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBound:
    def test_member_order_ratio_one(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "672", "--trials", "4")
        assert code == 0
        data = json.loads(out)
        assert data["resolution"] == {"h": 672, "d": 0}
        assert data["constructive"]["ratio_decimal"] == 1.0
        assert data["constructive"]["border_width"] == 0

    def test_small_n(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "14", "--trials", "32")
        assert code == 0
        data = json.loads(out)
        assert data["resolution"] == {"h": 12, "d": 2}
        assert data["witness_kind"] == "hadamard"
        assert data["constructive"]["ratio_decimal"] > 0
        names = {b["name"] for b in data["formula_bounds"]["bounds"]}
        assert "universal_floor" in names and "small_border" in names
        # bound reports the witness's ratio and each formula row; it picks
        # no winner between them
        assert "best_lower_bound" not in data
        applicable = {b["name"] for b in data["formula_bounds"]["bounds"]
                      if b["applicable"] and b["target"] == "Dbar(n)"}
        assert {"small_border_normalized", "universal_floor"} <= applicable

    def test_conference_method(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "717", "--method",
                               "conference", "--trials", "4")
        assert code == 0
        data = json.loads(out)
        assert data["recipe"] == "conference(709)"
        assert data["witness_kind"] == "conference-witness"
        assert data["constructive"]["border_width"] == 7

    def test_unrealizable_core(self, capsys):
        # h = 92 resolves from n = 92 but has no planner recipe
        code, out, err = run_cli(capsys, "bound", "92")
        assert code == 1 and out == ""
        assert "order 92" in err

    def test_n670_exceeds_small_border_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "670", "--trials", "200")
        assert code == 0
        data = json.loads(out)
        assert data["resolution"] == {"h": 664, "d": 6}
        assert data["recipe"] == "paley1(331);double"
        assert data["constructive"]["ratio_decimal"] > (2 / (3.141592653589793
                                                             * 2.718281828459045)) ** 3

    def test_n717_conference_exceeds_power_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "717", "--method",
                               "conference", "--trials", "256")
        assert code == 0
        data = json.loads(out)
        assert data["constructive"]["ratio_decimal"] > 0.352 ** 5

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "13", "--trials", "4",
                               "--format", "csv")
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
        args = ("bound", *argv, "--trials", "4")
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
         "94186e6f26f63004cf57fe58d3ba74ddec3a1bd16df3a481cbf3d766636e83ee"),
        (("717", "--method", "conference", "--trials", "16"),
         "ac130d6bbe10c121b9ada5dc5b73d4d985bd5105c95bb9bfbe0ca757ec8a153a"),
        (("670", "--format", "csv", "--trials", "16"),
         "db715e5c736beddca953e3e7bfd1bc8159cbe16b6f8619721287b392137c8fc6"),
        # 664 is an order of the sieve: the bare core, width 0
        (("664", "--trials", "8"),
         "13c6b50596c726e4083e9866ad7bb3598146087f65f512e8bcb1b97f93ad73d9"),
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
         "1026ca027285b86712233e5b8134409385a21e5aae1751287d6d325b28a9a70c"),
        (("search", "--recipe", "conference(709)", "--d", "0"),
         "a2dadbf374e59612f313cc941d9172fe23693cb15ceaa605a2e0e3ddf156ba5d"),
        (("bound", "11062", "--method", "conference", "--trials", "4",
          "--seed", "5"),
         "fdd7ab8ae90895ab9e3c5e952ae7f35fb35feb7c07069ee06fc11dcb67501c65"),
    ], ids=["bound-670", "search-709-bare-core", "bound-11062-conference"])
    def test_witness_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # the witness names the best trial's address in its stream, not B,
        # and the file is what json.dump(..., indent=2) writes, newline ended
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["ok"] is True

    @pytest.mark.parametrize("recipe, stdout_digest, witness_digest", [
        ("kron(paley1(3),paley1(7))",
         "50b4b1d747f21822b09d57939dfc216dc21e42a3abee42e4fea536dd1b85ec2a",
         "484da4a072e9e249507da4bf2d7730d17fc87d23c55b7ab0c35a4925656b4062"),
        ("paley2(13);double;double;double",
         "a59ff30982e130280717f925a04efedace1e0c8e9e908977a25d07def3844618",
         "6c501d4df1ac255bc4bc47388abe9469f1fdb8f45995bb28630c3f23e3556af2"),
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
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["ok"] is True

    def test_verify_catches_corruption(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run_cli(capsys, "search", "--recipe", "paley1(19)", "--d", "2",
                "--trials", "4", "--seed", "2", "--out", str(path))
        # another seed names another B, whose det N differs here
        blob = json.loads(path.read_text())
        blob["master_seed"] += 1
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

    @pytest.mark.parametrize("field", ["ratio_log", "ratio_decimal"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 5.0, -1.0, 1e-300])
    def test_verify_catches_tampered_ratio(self, capsys, tmp_path, field,
                                           value):
        # every stored number is compared with its recomputed value, in a
        # test that NaN and the infinities fail
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "search", "--recipe", "paley1(11)",
                             "--d", "2", "--trials", "8", "--out", str(path))
        assert code == 0
        blob = json.loads(path.read_text())
        blob[field] = value
        path.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and field in data["error"]

    @pytest.mark.parametrize("make_text", [
        lambda w: '{"n": 5}',
        lambda w: "[1, 2]",
        lambda w: "not json {",
        lambda w: json.dumps({**w, "B": [0] * w["m"]}),
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

    @pytest.mark.parametrize("order, recipe", [
        (2, "unit;double"), (6, "conference(5)")])
    def test_search_order_fixes_the_kind(self, capsys, order, recipe):
        # orders 2 mod 4 above 2 are conference orders, the rest Hadamard,
        # as order 12 is in test_search_by_order
        code, out, err = run_cli(capsys, "search", "--order", str(order),
                                 "--d", "1", "--trials", "2")
        assert code == 0, err
        assert json.loads(out)["recipe"] == recipe

    def test_search_by_conference_order_bytes_pinned(self, capsys):
        # the core that --order 6 plans prints as the recipe itself does
        argv = ("--d", "1", "--trials", "8", "--seed", "0")
        code, out, _ = run_cli(capsys, "search", "--order", "6", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a3d92f2d737ca9fdef36cf780c03050393c3f4e7294ee005823040ce202f9148")
        assert run_cli(capsys, "search", "--recipe", "conference(5)",
                       *argv)[1] == out

    def test_planner_answers_pinned(self, order_set):
        # plan_recipe for every order to 20000 and bound --method
        # conference's core for every n from 6, one "order recipe" line
        # each, with - for a ValueError and ! for an ExactnessError: the
        # order fixes the kind, and the walk over orders 2 (mod 4) alone
        # gives the cores and errors that a walk over every order gave
        def line(x, plan):
            try:
                return f"{x} {plan(x)}"
            except constructions.ExactnessError:
                return f"{x} !"
            except ValueError:
                return f"{x} -"

        args = argparse.Namespace(method="conference")
        plans = "\n".join(line(order, constructions.plan_recipe)
                          for order in range(1, 20001))
        cores = "\n".join(
            line(n, lambda n: cli._select_core(args, order_set, n)[0])
            for n in range(6, 20001))
        assert hashlib.sha256(plans.encode()).hexdigest() == (
            "7479681bc4be0ef801e57c5c68fbf7dbc5ed13a418db6b2d796b36db106c788a")
        assert hashlib.sha256(cores.encode()).hexdigest() == (
            "d6bcd97b72b7ca83901e81c524107e84e9602d31b18da375505567073ed8994c")

    def test_search_by_unrealizable_order(self, capsys):
        code, out, err = run_cli(capsys, "search", "--order", "92", "--d", "1")
        assert code == 1 and out == ""
        assert "order 92" in err

    @pytest.mark.parametrize("argv,message", [
        (("bound", "5", "--method", "conference"),
         "no conference order available at or below 5"),
        (("search", "--d", "2"), "search needs --recipe or --order"),
        (("search", "--order", "10", "--d", "1"),
         "no recipe realizes conference order 10")])
    def test_refused_arguments(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [f"error: {message}"]
        assert "Traceback" not in err

    def test_search_by_huge_order_fails_fast(self):
        # 2^61: 2^61 - 1 and 2^60 - 1 are refused without trial division,
        # and the planned paley1(524287) doubled 42 times is refused before
        # a border of that order is drawn
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

    @pytest.mark.parametrize("exhausted", [
        lambda *args: np.empty(1 << 62, dtype=np.uint8),  # numpy's own
        _no_memory], ids=["numpy", "bare"])
    def test_verify_out_of_memory_is_json(self, capsys, tmp_path,
                                          monkeypatch, exhausted):
        # a well-formed witness whose B finds no memory to be drawn again
        from maxdet import border
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "search", "--recipe", "paley1(19)",
                             "--d", "2", "--trials", "2", "--out", str(path))
        assert code == 0
        monkeypatch.setattr(border, "sample_border_columns", exhausted)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and err == ""
        data = json.loads(out)
        assert data["ok"] is False
        assert data["error"].startswith("out of memory")

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
            "n": 2, "m": 1, "d": 1, "kind": "hadamard", "weight": 1,
            "recipe": DEEP_RECIPE, "stream": "splitmix64-1",
            "master_seed": 0, "trial_index": 0, "D_off": "",
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
        # a well-formed forged witness whose core is far beyond what the FFT
        # bound can certify: build_recipe refuses it before any B is drawn,
        # in 1 GiB of address space, as a JSON error rather than a traceback
        path = tmp_path / "w.json"
        path.write_text(json.dumps(forged_witness(1000000007)))
        out = run_capped("verify", str(path))
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        data = json.loads(out.stdout)
        assert data["ok"] is False
        assert "FFT rounding bound" in data["error"]

    def test_verify_refuses_huge_prime_quickly(self, tmp_path):
        # 2^61 - 1 is a prime = 3 (mod 4), which trial division would take
        # hours to confirm; the FFT bound refuses the core before that
        path = tmp_path / "w.json"
        path.write_text(json.dumps(forged_witness((1 << 61) - 1)))
        out = run_capped("verify", str(path), timeout=5)
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        data = json.loads(out.stdout)
        assert data["ok"] is False
        assert "FFT rounding bound" in data["error"]


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
                               "--trials", "64")
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
            "817d13ca2cf20b7f75b830ade24433b9e27507629ce6da543d810a753f9fb5dc")
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


def forged_witness(p: int) -> dict:
    """A witness of width 1 on paley1(p), well formed in every field."""
    return {"n": p + 2, "m": p + 1, "d": 1, "kind": "hadamard",
            "weight": p + 1, "recipe": f"paley1({p})",
            "stream": "splitmix64-1", "master_seed": 0, "trial_index": 0,
            "D_off": "", "det_schur": "1", "ratio_log": 0.0,
            "ratio_decimal": 1.0}


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


def run_python(script):
    """Run a Python script in a child process that imports this maxdet."""
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(maxdet.__file__).parents[1])})


class TestStartup:
    def test_package_root_imports_no_numpy(self):
        out = run_python("import sys, maxdet; "
                         "assert 'numpy' not in sys.modules, 'numpy'")
        assert out.returncode == 0, out.stderr

    def test_bounds_import_no_numpy(self):
        # the closed forms and the floor decisions are plain Python floats
        # and integers
        out = run_python("import sys, maxdet.bounds; "
                         "assert 'numpy' not in sys.modules, 'numpy'")
        assert out.returncode == 0, out.stderr

    def test_cli_import_loads_no_random_hashes_or_rationals(self):
        # border signs come from a SplitMix64 hash in numpy uint64 and the
        # floors are integer pairs, so start-up maps neither numpy.random
        # (which pulls in secrets, hashlib and OpenSSL's _hashlib) nor
        # fractions and decimal
        out = run_python(
            "import sys, maxdet.cli; print(*[m for m in ('numpy.random', "
            "'hashlib', '_hashlib', 'secrets', 'fractions', 'decimal') "
            "if m in sys.modules])")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == []

    def test_failed_numpy_import_is_an_error_line(self):
        # python -m maxdet, as runpy runs it, where numpy cannot be imported
        out = run_python(
            "import runpy, sys; sys.modules['numpy'] = None; "
            "sys.argv = ['maxdet', 'bound', '670', '--trials', '1']; "
            "runpy.run_module('maxdet', run_name='__main__', alter_sys=True)")
        assert out.returncode == 1 and out.stdout == ""
        [line] = out.stderr.splitlines()
        assert line.startswith("error: cannot start maxdet (")
        assert "numpy" in line

    @pytest.mark.parametrize("exc,detail", [
        (ImportError("no map"), "ImportError: no map"),
        (MemoryError(), "MemoryError"),
        (SystemError("no exception set"), "SystemError: no exception set")],
        ids=["import", "memory", "system"])
    def test_run_turns_a_failed_import_into_an_error_line(
            self, capsys, monkeypatch, exc, detail):
        # the maxdet script's entry point, in process, with the CLI's
        # import failing as numpy's has failed short of address space
        from maxdet.__main__ import run

        class Failing:
            def find_spec(self, name, path=None, target=None):
                if name == "maxdet.cli":
                    raise exc

        monkeypatch.delitem(sys.modules, "maxdet.cli")
        monkeypatch.setattr(sys, "meta_path", [Failing(), *sys.meta_path])
        assert run() == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot start maxdet ({detail})\n"


def test_largest_core_fits_in_one_gib():
    # conference(60457), the core of the largest Table 1 row
    out = run_capped("search", "--recipe", "conference(60457)", "--d", "3",
                     "--trials", "1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["n"] == 60461


def test_cache_reuse(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    code, _, err1 = run_cli(capsys, "resolve", "100", "--cache", str(cache))
    assert code == 0 and "building" in err1
    code, _, err2 = run_cli(capsys, "resolve", "100", "--cache", str(cache))
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
    code, fresh, _ = run_cli(capsys, "resolve", "100")
    assert code == 0
    code, cached, err = run_cli(capsys, "resolve", "100", "--cache",
                                str(cache))
    assert code == 0 and "cache limit 512 below required 65536" in err
    assert "rebuilding" in err and cached == fresh
    assert sieve.OrderSet.load(cache).limit == 65536


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
    code, out1, _ = run_cli(capsys, "resolve", "100", "--cache", str(cache))
    cache.write_bytes(cache.read_bytes()[:-7])
    code, out2, err = run_cli(capsys, "resolve", "100", "--cache", str(cache))
    assert code == 0 and "rebuilding" in err
    assert out2 == out1
    code, _, err = run_cli(capsys, "resolve", "100", "--cache", str(cache))
    assert code == 0 and "loaded sieve cache" in err


def test_cache_with_other_rules_is_rebuilt(tmp_path, capsys):
    # a HADSIEVE2 cache whose rule-set field names Paley's rule alone
    cache = tmp_path / "c.sieve"
    cache.write_bytes(hadsieve2_bytes(sieve.build_order_set(512), 0x0001))
    code, fresh, _ = run_cli(capsys, "resolve", "100")
    assert code == 0
    code, out, err = run_cli(capsys, "resolve", "100", "--cache", str(cache))
    assert code == 0 and "not a HADSIEVE3" in err and "rebuilding" in err
    assert out == fresh
    assert len(json.loads(out)["meta"]["rule_set"]) == 13


def test_hadsieve2_cache_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "c.sieve"
    blob = hadsieve2_bytes(sieve.build_order_set(65536))
    # the bytes `sieve --out` wrote while HADSIEVE2 was the format
    assert hashlib.sha256(blob).hexdigest() == (
        "66bc69550ee1949a2a1fcbb5d0859da5f3e542d175e816b47fa256c448aea2de")
    cache.write_bytes(blob)
    code, fresh, _ = run_cli(capsys, "resolve", "669")
    assert code == 0
    code, out, err = run_cli(capsys, "resolve", "669", "--cache", str(cache))
    assert code == 0 and "rebuilding" in err
    assert out == fresh
    assert cache.read_bytes().startswith(sieve.MAGIC)


@pytest.mark.parametrize("flip", ["untagged-member", "tagged-non-member",
                                  "limit", "checksum"])
def test_cache_with_flipped_byte_is_rebuilt(tmp_path, capsys, flip):
    # loaded, the first three flips would answer resolve 669 otherwise
    # (h = 660, h = 668) or under another sieve limit (65537); the last
    # changes the stored checksum itself
    cache = tmp_path / "c.sieve"
    code, fresh, _ = run_cli(capsys, "resolve", "669", "--cache", str(cache))
    assert code == 0 and json.loads(fresh)["h"] == 664
    blob = bytearray(cache.read_bytes())
    tags = len(sieve.MAGIC) + 8  # order 4j's tag at tags + j
    at, value = {"untagged-member": (tags + 664 // 4, 0xFF),
                 "tagged-non-member": (tags + 668 // 4, 0),
                 "limit": (len(sieve.MAGIC), blob[len(sieve.MAGIC)] ^ 1),
                 "checksum": (len(blob) - 1, blob[-1] ^ 1)}[flip]
    assert blob[at] != value
    blob[at] = value
    cache.write_bytes(bytes(blob))
    code, out, err = run_cli(capsys, "resolve", "669", "--cache", str(cache))
    assert code == 0 and "checksum" in err and "rebuilding" in err
    assert out == fresh
    code, _, err = run_cli(capsys, "resolve", "669", "--cache", str(cache))
    assert code == 0 and "loaded sieve cache" in err
