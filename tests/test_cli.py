import json
import os
import subprocess
import sys
import time

import pytest

import spherestruct
from spherestruct import MAX_BERNOULLI_INDEX, KnownGroup, eta_fiber_size, t
from spherestruct.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bernoulli_text(capsys):
    code, out, err = run(capsys, ["bernoulli", "4"])
    assert code == 0
    assert out.strip() == "B_4 = 1/30"
    assert err == ""


def test_t_text_and_misprint_note(capsys):
    code, out, _ = run(capsys, ["t", "12"])
    assert code == 0
    assert "t_12 = 992" in out
    assert "misprint" not in out

    code, out, _ = run(capsys, ["t", "16"])
    assert code == 0
    assert "t_16 = 8128" in out
    assert "misprint" in out


def test_bp_order_text(capsys):
    code, out, _ = run(capsys, ["bp-order", "12"])
    assert code == 0
    assert "bP_12 = Z_992" in out

    code, out, _ = run(capsys, ["bp-order", "14"])
    assert code == 0
    assert "trivial" in out

    code, out, _ = run(capsys, ["bp-order", "10"])
    assert code == 0
    assert "unknown" in out
    assert "Z_" not in out


def test_unknown_is_never_rendered_as_zero(capsys):
    code, out, _ = run(capsys, ["bp-order", "10", "--json"])
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["order"] == "unknown"
    assert envelope["result"]["group"] == {"kind": "unknown"}


def test_residual_text(capsys):
    code, out, _ = run(capsys, ["residual", "4", "4"])
    assert code == 0
    assert "order 7" in out

    code, out, _ = run(capsys, ["residual", "3", "4"])
    assert code == 0
    assert "trivial" in out


def test_structure_set_text(capsys):
    code, out, _ = run(capsys, ["structure-set", "4", "4"])
    assert code == 0
    assert "S^Diff(S^4 x S^4)" in out
    assert "Theta_8 acts freely" in out
    assert "not a subgroup" in out

    code, out, _ = run(capsys, ["structure-set", "4", "3"])
    assert code == 0
    assert "normalised from (4, 3)" in out
    assert "stabilisers vary" in out


def test_fiber_text(capsys):
    code, out, _ = run(capsys, ["fiber", "3", "4", "--d", "7"])
    assert code == 0
    assert "28 elements" in out

    code, out, _ = run(capsys, ["fiber", "4", "4", "--d", "3"])
    assert code == 0
    assert "2 elements" in out


def test_stabilizer_json(capsys):
    code, out, _ = run(capsys, ["stabilizer", "3", "4", "--d", "1", "--json"])
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"] == {
        "p": 3,
        "q": 4,
        "d": 1,
        "ambient_order": 28,
        "generator": 4,
        "order": 7,
    }
    assert envelope["query"] == {"command": "stabilizer", "p": 3, "q": 4, "d": 1}


def test_group_structure_text(capsys):
    code, out, _ = run(capsys, ["group-structure", "3", "4"])
    assert code == 0
    assert "no (non-constant stabilizers)" in out

    code, out, _ = run(capsys, ["group-structure", "2", "5"])
    assert code == 0
    assert "yes" in out


def test_image_f(capsys):
    code, out, _ = run(capsys, ["image-f", "4", "4"])
    assert code == 0
    assert "no" in out

    code, out, err = run(capsys, ["image-f", "3", "4"])
    assert code == 1
    assert err.startswith("error:")


def test_top_set_text(capsys):
    code, out, _ = run(capsys, ["top-set", "3", "3"])
    assert code == 0
    assert "single point" in out

    code, out, _ = run(capsys, ["top-set", "3", "4"])
    assert code == 0
    assert "single point" not in out


def test_classify_s3s4(capsys):
    code, out, _ = run(capsys, ["classify-s3s4", "0", "7", "14", "7"])
    assert code == 0
    assert "same structure-set point: no" in out
    assert "diffeomorphic: yes" in out
    assert "inertia group orders: 2, 2" in out


def test_classify_s4s4_pairs(capsys):
    code, out, _ = run(capsys, ["classify-s4s4", "7", "2", "0", "2", "7", "1"])
    assert code == 0
    assert "almost diffeomorphic: yes" in out
    assert "diffeomorphic: no" in out


def test_classify_s4s4_plumbing(capsys):
    code, out, _ = run(capsys, ["classify-s4s4", "--plumbing", "1", "1"])
    assert code == 0
    assert "boundary class in Z_28: 24" in out
    assert "standard sphere: no" in out

    code, out, _ = run(capsys, ["classify-s4s4", "--plumbing", "7", "1"])
    assert code == 0
    assert "standard sphere: yes" in out


def test_domain_errors_exit_1(capsys):
    for argv in (
        ["bernoulli", "0"],
        ["bp-order", "3"],
        ["t", "0"],
        ["residual", "2", "2"],
        ["classify-s4s4", "1", "1", "0", "1", "1", "0"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
        assert out == ""


def test_indices_above_the_bernoulli_cap_exit_1_at_once(capsys):
    # Both caps speak through the one cap rule, cyclic._past_cap; t's
    # names multiples of 4, since t(i) answers 0 past it for every other i.
    cap = MAX_BERNOULLI_INDEX
    t_cap = (
        f"t(i) requires i <= {4 * cap} for multiples of 4 "
        f"(the Bernoulli index cap is {cap})"
    )
    for argv, message in (
        (["t", "100000"], f"{t_cap}, got 100000"),
        (["bernoulli", str(cap + 1)],
         f"bernoulli(k) requires k <= {cap} (MAX_BERNOULLI_INDEX), got {cap + 1}"),
        (["bp-order", str(4 * cap + 4)], f"{t_cap}, got {4 * cap + 4}"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 1, argv
        assert err == f"error: {message}\n", argv
        assert out == ""
    assert run(capsys, ["t", str(4 * cap + 1)])[1] == f"t_{4 * cap + 1} = 0\n"


def test_a_domain_error_names_a_long_argument_by_its_digit_count(capsys):
    # The library's messages show a caller's integer by the display rule
    # (cyclic._shown), so a long argument that int() converts no longer
    # floods stderr (4066 and 4089 bytes before).
    cap = MAX_BERNOULLI_INDEX
    for argv, message in (
        (["bernoulli", "9" * 4000],
         f"bernoulli(k) requires k <= {cap} (MAX_BERNOULLI_INDEX), "
         "got <integer of 4000 digits>"),
        (["residual", "4", "8" * 4000],
         f"t(i) requires i <= {4 * cap} for multiples of 4 "
         f"(the Bernoulli index cap is {cap}), got <integer of 4000 digits>"),
    ):
        assert run(capsys, argv) == (1, "", f"error: {message}\n"), argv[0]


def test_off_degree_pairs_past_the_cap_answer(capsys):
    # 8 t_p t_q = 0 when p or q is not a multiple of 4, so no t past the
    # cap is needed.
    for argv in (["residual", "5", "4000"], ["residual", "6", "3400"]):
        code, out, err = run(capsys, [*argv, "--json"])
        assert code == 0 and err == "", argv
        result = json.loads(out)["result"]
        assert result["order"] == 1, argv
        assert result["generator_coefficient"] == 0, argv
    code, out, err = run(capsys, ["structure-set", "5", "4000", "--json"])
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["residual_order"] == 1
    assert result["residual_generator_coefficient"] == 0


def test_pairs_that_need_t_past_the_cap_exit_1(capsys):
    cap = MAX_BERNOULLI_INDEX
    for argv, index in ((["residual", "4", "3400"], 3400),
                        (["structure-set", "3", "4000"], 4004),
                        (["stabilizer", "3", "4000", "--d", "1"], 4004)):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert err == (
            f"error: t(i) requires i <= {4 * cap} for multiples of 4 "
            f"(the Bernoulli index cap is {cap}), got {index}\n"
        ), argv


def test_values_at_the_bernoulli_cap_print(capsys):
    # The cap keeps every printed value under Python's int-to-str limit.
    top = 4 * MAX_BERNOULLI_INDEX
    for argv, prefix in (
        (["t", str(top)], f"t_{top} = "),
        (["bp-order", str(top)], f"bP_{top} = Z_"),
        (["bernoulli", str(MAX_BERNOULLI_INDEX)], f"B_{MAX_BERNOULLI_INDEX} = "),
    ):
        code, out, err = run(capsys, argv)
        assert code == 0, argv
        assert err == ""
        assert out.startswith(prefix), argv
    code, out, _ = run(capsys, ["t", str(top), "--json"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == t(top)


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["t", "sixteen"],
        ["fiber", "3", "4"],
        ["classify-s4s4", "1", "2", "3", "4", "5"],
        ["classify-s4s4", "--plumbing", "1", "1", "7", "1", "0", "1", "7", "0"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["t", "1_6"], "'1_6'"),
        (["t", "+16"], "'+16'"),
        (["t", " 16 "], "' 16 '"),
        (["t", "\u0663\u0662"], "'\u0663\u0662'"),  # Arabic-Indic 32
        (["stabilizer", "3", "4", "--d", "\u0667"], "'\u0667'"),  # Arabic-Indic 7
        (["stabilizer", "3", "4", "--d", "+5"], "'+5'"),
        (["t", "--", "--16"], "'--16'"),
        (["t", "9" * 4400], "<integer of 4400 digits>"),
        (["t", "--", "-" + "9" * 4400], "-<integer of 4400 digits>"),
    ],
    ids=["underscore", "plus", "spaces", "arabic-indic", "arabic-indic-d", "plus-d",
         "two-minus", "long", "long-negative"],
)
def test_an_integer_argument_is_an_optional_minus_and_ascii_digits(capsys, argv, shown):
    # argv's integers follow the table file's grammar, and an error shows
    # a long number by its digit count instead of echoing every digit.
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"invalid int value: {shown}\n")
    assert len(err) < 300


def test_plain_decimal_arguments_parse_as_before(capsys):
    for argv, line in (
        (["stabilizer", "3", "4", "--d", "-5"], "stabiliser(d = -5) = <4> in Z_28 (order 7)"),
        (["t", "0016"], "t_16 = 8128"),
        (["classify-s4s4", "--plumbing", "-1", "2"], "plumbing W_(-1,2): "),
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith(line), argv


@pytest.mark.parametrize(
    "argv, status", [(["t", "8"], 0), (["bp-order", "3"], 1)], ids=["t", "bp-order"]
)
def test_python_dash_m_runs_main(capsys, argv, status):
    src = os.path.dirname(os.path.dirname(spherestruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "spherestruct", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == run(capsys, argv)
    assert result.returncode == status


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_ends_the_output_with_exit_1(json_flag):
    # The read end is closed before the spawn, so the first write fails
    # every time: no traceback, and exit 1 because nothing was delivered.
    src = os.path.dirname(os.path.dirname(spherestruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "spherestruct", "structure-set", "23", "24", *json_flag],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["--help"], ["--version"], ["t", "8", "--help"]],
    ids=["help", "version", "t-help"],
)
def test_help_and_version_into_a_closed_stdout_exit_1(argv, unbuffered):
    # argparse drops the error of its own write; the text is undelivered
    # as an answer would be, so the exit status says so, without a traceback.
    src = os.path.dirname(os.path.dirname(spherestruct.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "spherestruct", *argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


def test_help_into_an_open_stdout_exits_0(capsys):
    code, out, err = run(capsys, ["t", "8", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: spherestruct t [-h]")


def test_version_exits_zero(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "spherestruct" in out


def test_json_envelope_shape_and_determinism(capsys):
    code, first, _ = run(capsys, ["structure-set", "3", "4", "--json"])
    assert code == 0
    code, second, _ = run(capsys, ["structure-set", "3", "4", "--json"])
    assert first == second
    envelope = json.loads(first)
    assert set(envelope) == {"query", "result", "provenance"}
    assert envelope["query"] == {"command": "structure-set", "p": 3, "q": 4}
    assert isinstance(envelope["provenance"], list) and envelope["provenance"]
    # canonical formatting: re-serialising reproduces the output exactly
    assert json.dumps(envelope, sort_keys=True, indent=2) == first.strip()


def test_json_agrees_with_library(capsys):
    code, out, _ = run(capsys, ["fiber", "3", "4", "--d", "14", "--json"])
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["fiber_order"] == eta_fiber_size(3, 4, 14).order

    code, out, _ = run(capsys, ["t", "16", "--json"])
    envelope = json.loads(out)
    assert envelope["result"]["value"] == t(16)
    assert any("misprint" in note for note in envelope["provenance"])


def test_table_flag(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text('{"theta": {"22": "4"}}')
    code, out, _ = run(capsys, ["fiber", "17", "5", "--d", "0"])
    assert code == 0
    assert "unknown" in out
    code, out, _ = run(capsys, ["fiber", "17", "5", "--d", "0", "--table", str(path)])
    assert code == 0
    assert "4 elements" in out


def test_table_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text('{"theta": {"22": "4"}}')
    monkeypatch.setenv("SURGERY_TABLE", str(path))
    code, out, _ = run(capsys, ["fiber", "17", "5", "--d", "0"])
    assert code == 0
    assert "4 elements" in out


def test_table_flag_beats_env_var(tmp_path, capsys, monkeypatch):
    env_path = tmp_path / "env.json"
    env_path.write_text('{"theta": {"22": "4"}}')
    flag_path = tmp_path / "flag.json"
    flag_path.write_text('{"theta": {"22": "8"}}')
    monkeypatch.setenv("SURGERY_TABLE", str(env_path))
    code, out, _ = run(capsys, ["fiber", "17", "5", "--d", "0", "--table", str(flag_path)])
    assert code == 0
    assert "8 elements" in out


def test_unreadable_table_is_a_usage_error(tmp_path, capsys):
    # A file that cannot be read is a bad argument (2); a file that reads
    # but does not parse is a domain error (1), checked below.
    for path in (tmp_path / "absent.json", tmp_path):
        code, out, err = run(capsys, ["t", "4", "--table", str(path)])
        assert code == 2, path
        assert err.startswith("usage error: cannot read table file"), path
        assert out == ""


def test_malformed_table_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"theta": }')
    code, out, err = run(capsys, ["t", "4", "--table", str(path)])
    assert code == 1
    assert "line" in err


def test_deeply_nested_table_is_a_one_line_domain_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, ["bp-order", "10", "--table", str(path)])
    assert code == 1
    assert err == "error: table JSON is nested too deeply to parse\n"
    assert "Traceback" not in err
    assert out == ""


def test_non_utf8_table_is_a_domain_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["t", "4", "--table", str(path)])
    assert code == 1
    assert err.startswith(f"error: table file {str(path)!r} is not UTF-8")
    assert out == ""


def test_table_number_too_long_to_convert_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"theta": {"7": %s}}' % ("9" * 5000))
    code, out, err = run(capsys, ["t", "4", "--table", str(path)])
    assert code == 1
    assert err == "error: theta[7]: the order has 5000 digits, more than int() converts\n"
    assert out == ""


def test_inconsistent_table_is_rejected_at_load(tmp_path, capsys):
    path = tmp_path / "theta7.json"
    path.write_text('{"theta": {"7": "3"}}')
    code, out, err = run(capsys, ["structure-set", "3", "4", "--table", str(path)])
    assert code == 1
    assert "|bP_8| = 28 does not divide |Theta_7| = 3" in err
    assert out == ""
