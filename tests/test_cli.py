import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import braidsigma
from braidsigma import cli, commands, planar, witness
from braidsigma.characters import (
    MAX_EXPONENT,
    PATH_WIDTH,
    InternalError,
    character_from_json,
    delta_value,
)
from braidsigma.classify import Classification, Factorization, Star, ZeroSum
from braidsigma.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from braidsigma.commands import MAX_CIRCLES
from braidsigma.witness import WitnessPackage, verify_witness
from conftest import all_edges, enumerate_circles

SRC = str(Path(braidsigma.__file__).resolve().parent.parent)


def run_child(args, stdin=""):
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=60
    )

def run_child_shell(script):
    """``script`` run by sh, with this interpreter as $0 and this checkout's
    package on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        ["sh", "-c", script, sys.executable], capture_output=True, text=True, env=env, timeout=60
    )


CHI0_JSON = json.dumps(
    {
        "n": 4,
        "weights": {
            "1-2": "3",
            "1-3": "2",
            "1-4": "-4",
            "2-3": "-5",
            "2-4": "0",
            "3-4": "1",
        },
    }
)


@pytest.fixture
def chi0_file(tmp_path):
    path = tmp_path / "chi0.json"
    path.write_text(CHI0_JSON)
    return str(path)


class TestClassify:
    def test_zero_sum_verdict(self, chi0_file, capsys):
        assert main(["classify", "--in", chi0_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "sigma1"
        assert out["certificate"]["kind"] == "zero_sum"
        assert out["certificate"]["delta"] == "-3"

    def test_stdin(self, capsys, monkeypatch):
        import io

        # stdin is read as bytes and decoded as UTF-8
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CHI0_JSON.encode())))
        assert main(["classify", "--in", "-"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "sigma1"

    def test_witness_attached(self, chi0_file, capsys):
        assert main(["classify", "--in", chi0_file, "--witness"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["witness"]["lemma"] == "zero_sum"
        assert out["witness"]["J"] == [[1, 2, 3, 4]]

    def test_deterministic_output(self, chi0_file, capsys):
        main(["classify", "--in", chi0_file, "--witness"])
        first = capsys.readouterr().out
        main(["classify", "--in", chi0_file, "--witness"])
        assert capsys.readouterr().out == first

    def test_complement_output(self, tmp_path, capsys):
        path = tmp_path / "p3.json"
        path.write_text(
            json.dumps(
                {"n": 3, "weights": {"1-2": "1", "1-3": "1", "2-3": "-2"}}
            )
        )
        assert main(["classify", "--in", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "complement"
        assert out["certificate"]["id"] == {"kind": "P3", "support": [1, 2, 3]}

    def test_missing_key_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "weights": {"1-2": "1", "1-3": "1"}}))
        assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR
        assert "2-3" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR

    def test_missing_file(self, tmp_path, capsys):
        assert main(["classify", "--in", str(tmp_path / "absent.json")]) == EXIT_INPUT_ERROR

    def test_directory_is_input_error(self, tmp_path, capsys):
        assert main(["classify", "--in", str(tmp_path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 2, "weights": {"1-2": "\xff"}}')
        assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR

    def test_zero_character_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "weights": {"1-2": "0"}}))
        for flags in ([], ["--witness"]):
            assert main(["classify", "--in", str(path), *flags]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the zero character has no class on the sphere\n"

    def test_internal_error_has_its_own_exit_code(self, chi0_file, capsys, monkeypatch):
        def broken(chi):
            raise InternalError("broken invariant")

        monkeypatch.setattr("braidsigma.cli.classify", broken)
        assert main(["classify", "--in", chi0_file]) == EXIT_INTERNAL_ERROR
        assert "internal error: broken invariant" in capsys.readouterr().err

    def test_parses_through_the_names_cli_imports(self, chi0_file, capsys, monkeypatch):
        # a tracer rebinds these names of cli to see each stage of classify
        calls = []
        for name in ("character_from_json", "classify", "verify_witness"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
            )
        assert main(["classify", "--witness", "--in", chi0_file]) == EXIT_OK
        assert calls == ["character_from_json", "classify", "verify_witness"]
        capsys.readouterr()

    def test_other_fault_is_not_an_input_error(self, chi0_file, capsys, monkeypatch):
        def broken(chi):
            raise ValueError("a fault inside a stage")

        monkeypatch.setattr("braidsigma.cli.classify", broken)
        assert main(["classify", "--in", chi0_file]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: a fault inside a stage\n"

    def test_failed_witness_names_its_conditions(self, chi0_file, capsys, monkeypatch):
        # chi0 is zero_sum at n = 4: J is all four strands, I every pair
        lemma_shape = witness._lemma_shape

        def dropping(lemma, n, drop=((1, 2),), j_sets=None):
            (j, i, f), _ = lemma_shape(lemma, n)
            data = j_sets or j, tuple(a for a in i if a not in drop), f
            return data, witness._shape_checks(n, *data)

        monkeypatch.setattr(witness, "_lemma_shape", dropping)
        assert main(["classify", "--in", chi0_file, "--witness"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness: pairs of 1..n that I does not give (1): [(1, 2)]\n"

        # chi0 has no weight on (2, 4); (1, 3) and (2, 4) cross, so C(J) has
        # no edge, and J dominates none of the pairs that meet both
        monkeypatch.setattr(
            witness, "_lemma_shape", lambda lemma, n: dropping(lemma, n, [], ((1, 3), (2, 4)))
        )
        assert main(["classify", "--in", chi0_file, "--witness"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: witness: members of J whose swing vanishes (1): [(2, 4)]",
            "error: witness: the commuting graph C(J) is not connected",
            "error: witness: members of I that J does not dominate (4):"
            " [(1, 2), (1, 4), (2, 3), (3, 4)]",
        ]

    @pytest.mark.parametrize(
        "tampered, kind",
        [
            (lambda chi: Classification(ZeroSum(Fraction(99)), chi.n), "zero_sum"),
            (lambda chi: Classification(ZeroSum(delta_value(chi)), chi.n + 1), "zero_sum"),
            (lambda chi: Classification(Star(1, (2, 3, 4)), chi.n), "star"),
        ],
    )
    def test_certificate_failing_its_check_is_internal(
        self, chi0_file, capsys, monkeypatch, tampered, kind
    ):
        # the CLI re-checks what it would print; chi0 has Delta = -3
        monkeypatch.setattr("braidsigma.cli.classify", tampered)
        for flags in ([], ["--witness"]):
            assert main(["classify", "--in", chi0_file, *flags]) == EXIT_INTERNAL_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"internal error: the {kind} certificate fails its check\n"

    def test_huge_n_fails_fast(self, tmp_path):
        # a few keys for an enormous n must be refused before any O(n^2)
        # allocation; the child's address space is capped so a regression
        # dies there instead of exhausting the machine
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**9, "weights": {"1-2": "1"}}))
        code = (
            "import resource, sys\n"
            "cap = 256 * 1024 * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from braidsigma.cli import main\n"
            "sys.exit(main(['classify', '--in', sys.argv[1]]))\n"
        )
        proc = run_child(["-c", code, str(path)])
        assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
        assert "missing weight keys" in proc.stderr


def test_huge_exponent_fails_fast(tmp_path):
    # Fraction would expand 10**10000000 (seconds and a 33-Mbit integer);
    # the child's address space is capped so a regression cannot exhaust
    # the machine, and the parse alone is timed inside the child
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"n": 2, "weights": {"1-2": "1e10000000"}}))
    code = (
        "import resource, sys, time\n"
        "cap = 256 * 1024 * 1024\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from braidsigma.cli import main\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    sys.exit(main(['classify', '--in', sys.argv[1]]))\n"
        "finally:\n"
        "    print(time.perf_counter() - start)\n"
    )
    proc = run_child(["-c", code, str(path)])
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert "exponent" in proc.stderr and "'1-2'" in proc.stderr
    assert float(proc.stdout) < 1.0


# Python's cap on the digits of an integer string; 0 or absent: no cap
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer-string digit limit")


def full_weights(n, weights):
    """Every key "i-j" of 1..n, with the weight of ``weights`` or "0"."""
    pairs = ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    return {f"{i}-{j}": weights.get((i, j), "0") for i, j in pairs}


def seven_digit_primes(count):
    """The first ``count`` primes above 10**6, sieved below 2 * 10**6."""
    lo = 10**6
    sieve = bytearray([1]) * (2 * lo)
    for p in range(2, isqrt(2 * lo) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 2 * lo, p)))
    return [p for p in range(lo, 2 * lo) if sieve[p]][:count]


def refused_past_the_digit_limit(args, name, capsys):
    """Does the command exit 2 with one error line naming ``name`` and the
    limit, and print nothing else?"""
    assert main(args) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {name} has a numerator or denominator of more than {DIGIT_LIMIT} digits, "
        "Python's integer-string limit\n"
    )


@needs_digit_limit
@pytest.mark.parametrize(
    "command, weights, name",
    [
        # 10**limit has one digit more than the limit
        ("classify", {(1, 2): "1e{limit}"}, "delta"),
        ("classify", {(1, 2): "1e-{limit}"}, "delta"),
        # each weight prints, but their sum has limit + 1 digits
        ("classify", {(1, 2): "9e{below}", (3, 4): "9e{below}"}, "delta"),
        # Delta = 0 on a 4-set support with a nonzero triangle: the value
        (
            "classify",
            {(1, 2): "1e{limit}", (3, 4): "-1e{limit}", (1, 3): "1", (2, 3): "-1"},
            "value",
        ),
        ("graph", {(1, 2): "1e{limit}"}, "the weight of edge 1-2"),
    ],
    ids=["classify-1e+limit", "classify-1e-limit", "classify-sum", "classify-triangle", "graph"],
)
def test_a_value_past_the_digit_limit_is_an_input_error(command, weights, name, tmp_path, capsys):
    if DIGIT_LIMIT > MAX_EXPONENT:
        pytest.skip("the parser refuses an exponent past MAX_EXPONENT first")
    spelled = {e: w.format(limit=DIGIT_LIMIT, below=DIGIT_LIMIT - 1) for e, w in weights.items()}
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"n": 4, "weights": full_weights(4, spelled)}))
    refused_past_the_digit_limit([command, "--in", str(path)], name, capsys)


@needs_digit_limit
def test_a_delta_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # 1/p over 2,016 distinct 7-digit primes: every weight prints, but
    # Delta's denominator is their product, about 12,100 digits
    n = 64
    edges = all_edges(n)
    primes = seven_digit_primes(len(edges))
    if sum(len(str(p)) - 1 for p in primes) <= DIGIT_LIMIT:
        pytest.skip("Delta's denominator is within the digit limit")
    weights = {e: f"1/{p}" for e, p in zip(edges, primes)}
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"n": n, "weights": full_weights(n, weights)}))
    refused_past_the_digit_limit(["classify", "--in", str(path)], "delta", capsys)


def test_invariants_survive_python_O():
    code = (
        "import sys\n"
        "from braidsigma.characters import InternalError\n"
        "from braidsigma.classify import Classification, DisjointPair\n"
        "if __debug__:\n"
        "    sys.exit('assertions are still enabled')\n"
        "try:\n"
        "    Classification(DisjointPair((1, 2), ((3, 4), (5, 6))), 6).perm\n"
        "except InternalError:\n"
        "    sys.exit(0)\n"
        "sys.exit('a perm was derived from others that share no vertex')\n"
    )
    proc = run_child(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # both cost a cold start milliseconds; the package's records need neither
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import braidsigma.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_classify_leaves_out_argparse_and_the_identity_suite(chi0_file):
    # argparse costs a one-shot process about 9 ms (with gettext and locale);
    # the word-engine identities are for ``verify`` only, and the other
    # commands and the help text are compiled only when they run; without
    # site, nothing else loads typing, so the package must not either; a
    # record reads its fields from its constructor's code, not by inspect
    code = (
        "import sys\n"
        "from braidsigma.cli import main\n"
        "code = main(['classify', '--witness', '--in', sys.argv[1]])\n"
        "unwanted = {'argparse', 'gettext', 'dataclasses', 'inspect', 'typing',\n"
        "            'braidsigma.planar', 'braidsigma.commands'}\n"
        "print(code, sorted(unwanted & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = run_child(["-S", "-c", code, chi0_file])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0 []\n"


def test_python_m_loads_cli_once():
    # ``python -m braidsigma.cli`` runs cli as __main__; a command that loads
    # ``commands`` must not import it again as braidsigma.cli
    code = (
        "import runpy, sys\n"
        "codes = []\n"
        "for argv in (['oracle'], ['verify'], ['-h']):\n"
        "    sys.argv[1:] = argv\n"
        "    try:\n"
        "        runpy.run_module('braidsigma.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(codes, 'braidsigma.cli' in sys.modules, file=sys.stderr)\n"
    )
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[0, 0, 0] False\n"
    assert proc.stdout.startswith("star-or-small at every n")
    assert VERIFY_OUTPUT in proc.stdout
    assert "usage: braidsigma [-h]" in proc.stdout


def test_closed_stdin_is_an_input_error():
    # the child starts with no file descriptor 0, so sys.stdin is None
    script = '"$0" -m braidsigma.cli classify --in - <&-'
    proc = run_child_shell(script)
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: cannot read -: standard input is closed\n"


def test_a_closed_stdin_in_process_is_an_input_error(monkeypatch, capsys):
    # an in-process caller may close sys.stdin itself, which leaves it set
    stdin = io.TextIOWrapper(io.BytesIO(CHI0_JSON.encode()))
    stdin.close()
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["classify", "--in", "-"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: cannot read -: standard input is closed\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["graph", "--in", "{tmp}/absent.json"], "no such file: {tmp}/absent.json"),
        (["graph", "--in", "{tmp}"], "cannot read {tmp}: Is a directory"),
        (
            ["graph", "--in", "{chi}", "--dot", "{tmp}/absent/x.dot"],
            "cannot write {tmp}/absent/x.dot: No such file or directory",
        ),
        (["graph", "--in", "{chi}", "--dot", ""], "cannot write : No such file or directory"),
        (["circles", "--n", "1"], "need n >= 2, got 1"),
    ],
    ids=["missing-in", "directory-in", "dot-in-missing-directory", "dot-empty", "circles-n-1"],
)
def test_graph_and_circles_input_errors_in_a_child(args, message, chi0_file, tmp_path):
    def fill(text):
        return text.replace("{tmp}", str(tmp_path)).replace("{chi}", chi0_file)

    proc = run_child(["-m", "braidsigma.cli", *map(fill, args)])
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, ""), proc.stderr
    assert proc.stderr == f"error: {fill(message)}\n"


LONG_PATH = "a" * 20000


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--in", LONG_PATH],
        ["classify", "--in", f"/nonexistent/{LONG_PATH}"],
        ["graph", "--in", "{chi}", "--dot", LONG_PATH],
    ],
    ids=["in", "in-under-a-missing-directory", "dot"],
)
def test_a_long_path_prints_its_start_and_its_length(args, chi0_file):
    # a path is quoted in full up to PATH_WIDTH characters, else by its
    # start and its length, so the line stays short whatever the path
    proc = run_child(["-m", "braidsigma.cli", *(a.replace("{chi}", chi0_file) for a in args)])
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, ""), proc.stderr[:300]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert len(proc.stderr.encode()) < 300
    assert f"{args[-1][:PATH_WIDTH]}... ({len(args[-1])} characters)" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["classify", "--in", "x\nerror: forged"], "no such file: x\\nerror: forged"),
        (["classify", "--in", "f", "--a\nb"], "unrecognized arguments: --a\\nb"),
        (
            ["graph", "--in", "{chi}", "--dot", "no-such-dir/d\nerror: forged"],
            "cannot write no-such-dir/d\\nerror: forged: No such file or directory",
        ),
    ],
    ids=["in", "unknown", "dot"],
)
def test_a_newline_in_an_argument_prints_escaped(args, message, chi0_file):
    # a path or an unknown argument cannot forge a second error line
    proc = run_child(["-m", "braidsigma.cli", *(a.replace("{chi}", chi0_file) for a in args)])
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, ""), proc.stderr
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("path", ["a\x00b", "\ud800"], ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize(
    "args, verb",
    [
        (["classify", "--in", "{path}"], "read"),
        (["graph", "--in", "{path}"], "read"),
        (["graph", "--in", "{chi}", "--dot", "{path}"], "write"),
    ],
    ids=["classify-in", "graph-in", "graph-dot"],
)
def test_a_path_no_file_can_have_is_an_input_error(args, verb, path, chi0_file, capsys):
    # open raises ValueError for such a path; argv cannot carry a NUL, so
    # main runs in-process.  The one error line shows the path escaped.
    argv = [a.replace("{chi}", chi0_file).replace("{path}", path) for a in args]
    assert main(argv) == EXIT_INPUT_ERROR
    line = f"error: cannot {verb} {repr(path)[1:-1]}: no file can have this name\n"
    assert capsys.readouterr() == ("", line)


# text rich in characters that end or stretch a line, and in those no path
# can hold (a NUL, a lone surrogate), which only an in-process main meets:
# argv carries no NUL, and surrogates only as the escapes of undecodable bytes
LINE_BREAKERS = ["\n", "\r", "\x0b", "\x1b", "\x85", "\u2028", "\u2029", "\udcff", "\U000e0001"]
NO_PATH_CHARACTERS = ["\x00", "\ud800", "\udfff"]
ARGUMENT_CHARACTERS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
ARGUMENT_CHARACTERS |= st.sampled_from([*LINE_BREAKERS, *NO_PATH_CHARACTERS, "中", "\U0001f600"])
LONG_RUNS = st.builds(
    lambda c, k, tail: c * k + tail,
    ARGUMENT_CHARACTERS,
    st.integers(100, 3000),
    st.text(ARGUMENT_CHARACTERS, max_size=4),
)
ARGUMENT_TEXT = st.text(ARGUMENT_CHARACTERS, max_size=40) | LONG_RUNS


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(["--in", "--dot", "unknown"]), ARGUMENT_TEXT)
@example("--in", "x\nerror: forged")
@example("--dot", "\u2028" * 3000)
@example("unknown", "\U000e0001" * 3000)
@example("--in", "a\x00b")
@example("--dot", "\ud800")
def test_any_path_or_unknown_argument_prints_one_short_line(
    tmp_path, monkeypatch, chi0_file, where, text
):
    # an --in path read from an empty directory, a --dot path under a
    # missing one, or an unknown argument: one error line, under 300 bytes
    assume("chi0" not in text)
    empty = tmp_path / "empty"
    empty.mkdir(exist_ok=True)
    monkeypatch.chdir(empty)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
    argv = {
        "--in": ["classify", "--in", text],
        "--dot": ["graph", "--in", chi0_file, "--dot", f"no-such-dir/{text}"],
        "unknown": ["classify", "--in", chi0_file, f"--x{text}"],
    }[where]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    line = err.getvalue()
    assert (code, out.getvalue()) == (EXIT_INPUT_ERROR, ""), (argv, line)
    assert line.startswith("error: ") and line.endswith("\n")
    assert len(line.splitlines()) == 1 and len(line.encode()) < 300, line


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
VALID_WEIGHTS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"]) | st.integers(-2, 2)


@st.composite
def near_characters(draw):
    """A character's JSON at n = 2..6, perhaps spoiled in one place: a
    weight, n, a key dropped or a key added."""
    n = draw(st.integers(2, 6))
    pairs = [f"{i}-{j}" for i in range(1, n) for j in range(i + 1, n + 1)]
    weights = {key: draw(VALID_WEIGHTS) for key in pairs}
    data = {"n": n, "weights": weights}
    spoil = draw(st.sampled_from([None, None, "weight", "n", "drop", "add"]))
    if spoil == "weight":
        weights[draw(st.sampled_from(pairs))] = draw(JSON_SCALARS)
    elif spoil == "n":
        data["n"] = draw(JSON_SCALARS)
    elif spoil == "drop":
        del weights[draw(st.sampled_from(pairs))]
    elif spoil == "add":
        weights[draw(st.text(max_size=4))] = draw(VALID_WEIGHTS)
    return data


def json_bytes(value) -> bytes:
    return json.dumps(value).encode()


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(json_bytes),
        near_characters().map(json_bytes),
    )
)
@example(b'{"n": 2, "weights": {"1-2": ' + b"7" * 5000 + b"}}")
@example(b"\xff")
# C(n, 2) has 4,201 digits, just under Python's integer-string limit
@example(b'{"n": 1' + b"0" * 2100 + b', "weights": {}}')
@example(b'{"n": 1' + b"0" * 2100 + b', "weights": {"1-2": "1"}}')
# C(n, 2) has more digits than Python's integer-string limit
@example(b'{"n": 1' + b"0" * 2200 + b', "weights": {}}')
@example(b'{"n": 1' + b"0" * 2200 + b', "weights": {"1-2": "1"}}')
# values quoted back by their start and length
@example(json_bytes({"n": list(range(3000)), "weights": {}}))
@example(json_bytes({"n": 2, "weights": {"1-2": list(range(3000))}}))
@example(json_bytes({"n": 2, "weights": {"1-2": "x" * 5000}}))
@example(b'{"n": -' + b"1" * 4000 + b', "weights": {}}')
@example(json_bytes({"n": 3, "weights": {"1-" + "2" * 3000: "1"}}))
def test_any_file_exits_0_or_2(tmp_path, data):
    # whatever the file holds, the answer is a result or one short error
    # line: never an internal error (3), never an exception out of main,
    # never a count or a value printed in full however long it is
    path = tmp_path / "in.json"
    path.write_bytes(data)
    for argv in (["classify", "--witness", "--in", str(path)], ["graph", "--in", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT_ERROR), (argv, data, err.getvalue())
        if code == EXIT_OK:
            assert err.getvalue() == ""
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert len(err.getvalue().encode()) < 300, (argv, err.getvalue()[:300])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=6),
        st.integers(-3, 12).map(str),
        st.sampled_from([" 5 ", "+4", "٣", "1_0", "0x5", "5.0", "1e1", "--3", "-h", "7" * 5000, "99"]),
    )
)
@example("")
@example("--n")
@example("1" + "0" * 1200)  # C(n, 3) + C(n, 4) past the integer-string limit
@example("7" * 5000)
@example("-1" + "0" * 1200)
def test_any_circles_n_exits_0_or_2(text):
    # whatever text follows --n, the answer is the circle list or one
    # short error line: never an internal error (3), never an exception
    # out of main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["circles", "--n", text])
    assert code in (EXIT_OK, EXIT_INPUT_ERROR), (text, err.getvalue())
    if code == EXIT_OK:
        assert err.getvalue() == ""
        n = int(text)
        assert len(json.loads(out.getvalue())) == comb(n, 3) + comb(n, 4)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert len(err.getvalue().encode()) < 300, err.getvalue()[:300]


# a UTF-8 file whose one non-ASCII weight is ARABIC-INDIC DIGIT ONE
ARABIC_ONE_JSON = '{"n": 3, "weights": {"1-2": "\u0661", "1-3": "1", "2-3": "-2"}}'


def test_input_is_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "arabic.json"
    path.write_bytes(ARABIC_ONE_JSON.encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    c_locale = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    runs = []
    for child_env in (env, c_locale):
        for args in (["--in", str(path)], ["--in", "-"]):
            runs.append(
                subprocess.run(
                    [sys.executable, "-m", "braidsigma.cli", "classify", *args],
                    input=path.read_bytes(),
                    capture_output=True,
                    env=child_env,
                    timeout=60,
                )
            )
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b""), proc.stderr
        assert proc.stdout == runs[0].stdout
    assert json.loads(runs[0].stdout)["verdict"] == "complement"


def test_no_default_encoding_is_used(tmp_path):
    path = tmp_path / "arabic.json"
    path.write_bytes(ARABIC_ONE_JSON.encode("utf-8"))
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "braidsigma.cli"]
    for args in (["classify", "--witness", "--in", str(path)], ["graph", "--in", str(path)]):
        proc = run_child([*flags, *args])
        assert proc.returncode == EXIT_OK, proc.stderr
    dot = tmp_path / "out.dot"
    proc = run_child([*flags, "graph", "--in", str(path), "--dot", str(dot)])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert dot.read_text(encoding="utf-8").startswith("graph ")


def test_reimport_frees_the_earlier_package():
    # a global cache that holds a class of the package (typing caches
    # Union[...] by its arguments) keeps that whole copy alive, every
    # module and cache included, through its functions' globals
    code = (
        "import gc, importlib, sys, weakref\n"
        "def fresh():\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'braidsigma']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('braidsigma')\n"
        "    return weakref.ref(sys.modules['braidsigma.classify'].Lemma)\n"
        "refs = [fresh() for _ in range(4)]\n"
        "gc.collect()\n"
        "print(sum(ref() is not None for ref in refs[:-1]))\n"
    )
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0", "earlier copies of braidsigma survive re-import"


def two_stars(n):
    """Centers 1 and 2, each joined to every strand from 3 on, with weights
    1 and -1: the stars share their leaves, so there is no disjoint triple."""
    return {(c, v): str(3 - 2 * c) for c in (1, 2) for v in range(3, n + 1)}


def dense_zero_sum(n):
    """A seeded weight 1..9 on each pair of edges, + on the first and - on
    the second, so every pair has a weight and Delta = 0."""
    rng = random.Random(256)
    values = [rng.randint(1, 9) for _ in range(comb(n, 2) // 2)]
    return dict(zip(all_edges(n), (str(s * v) for v in values for s in (1, -1))))


def prime_denominators(n):
    """+-1/p on consecutive pairs of edges, each p a distinct 7-digit prime,
    so Delta = 0 and an exact sum meets up to C(n, 2) / 2 denominators."""
    primes = seven_digit_primes(comb(n, 2) // 2)
    return {e: f"{(-1) ** k}/{primes[k // 2]}" for k, e in enumerate(all_edges(n))}


# the same character's JSON spelled another way: keys out of the canonical
# order or written j-i take the reader that checks each key, and weights as
# JSON integers instead of strings
RESPELLINGS = {
    "shuffled": lambda items: random.Random(256).sample(items, len(items)),
    "reversed": lambda items: [("-".join(k.split("-")[::-1]), v) for k, v in items],
    "integers": lambda items: [(k, int(v)) for k, v in items],
}


@pytest.mark.parametrize(
    "weights, lemma, respellings",
    [
        ({(1, 2): "1"}, "zero_sum", ()),
        # Delta = 0, so I drops (1, 4) and (2, 4), which the coverage must
        # recover through the factorizations
        ({(1, 2): "1", (3, 4): "1", (4, 5): "-2"}, "disjoint_pair", ("shuffled", "reversed")),
        ({(1, 2): "1", (3, 4): "1", (5, 6): "-2"}, "disjoint_triple", ()),
        ({(1, 2): "1", (1, 3): "1", (1, 4): "-2"}, "star", ()),
        ({(1, 2): "1", (2, 3): "-2", (3, 4): "1"}, "disjoint_leaves", ()),
        ({(1, 2): "1", (1, 3): "1", (2, 3): "1", (3, 4): "-3"}, "triangle", ()),
        (prime_denominators, "disjoint_triple", ()),
        (two_stars, "disjoint_pair", ()),
        # the greedy matching of a dense character is its least disjoint triple
        (dense_zero_sum, "disjoint_triple", ("integers",)),
    ],
    ids=[
        "single-edge",
        "disjoint-pair",
        "disjoint-triple",
        "star",
        "disjoint-leaves",
        "triangle",
        "prime-denominators",
        "two-stars",
        "dense",
    ],
)
def test_witness_at_256(weights, lemma, respellings, tmp_path, capsys):
    # a cold witness shape of 32,640 pairs, built and checked in one call
    n = 256
    data = {"n": n, "weights": full_weights(n, weights(n) if callable(weights) else weights)}
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--witness", "--in", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    printed = json.loads(out)
    assert (printed["verdict"], printed["witness"]["lemma"]) == ("sigma1", lemma)

    # read back from JSON, with lists where the package held tuples and its
    # I split by the full type scan, the package verifies as the built one
    w = printed["witness"]
    chi = character_from_json(path.read_text())
    facts = [Factorization(f["added"], f["factors"], f["recovers"]) for f in w["factorizations"]]
    assert verify_witness(WitnessPackage(w["lemma"], w["perm"], w["J"], w["I"], facts), chi).ok
    if facts:
        # with its first factorization's factors rotated, the package holds
        # a true identity that is not the table's, so the pair that only
        # that factorization recovers is not given
        first = facts[0]
        rotated = Factorization(first.added, first.factors[1:] + first.factors[:1], first.recovers)
        package = WitnessPackage(w["lemma"], w["perm"], w["J"], w["I"], [rotated, *facts[1:]])
        ungiven = f"pairs of 1..n that I does not give (1): [{tuple(first.recovers)}]"
        assert ungiven in verify_witness(package, chi).failures()

    for name in respellings:
        items = RESPELLINGS[name](list(data["weights"].items()))
        path.write_text(json.dumps({"n": n, "weights": dict(items)}))
        assert main(["classify", "--witness", "--in", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == out


class TestCircles:
    def test_n4(self, capsys):
        assert main(["circles", "--n", "4"]) == EXIT_OK
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 5
        assert entries[0] == {"kind": "P3", "support": [1, 2, 3]}
        assert entries[-1] == {"kind": "P4", "support": [1, 2, 3, 4]}

    def test_small_n(self, capsys):
        assert main(["circles", "--n", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize("n", range(2, 10))
    def test_streamed_bytes_match_one_dump(self, n, capsys):
        assert main(["circles", "--n", str(n)]) == EXIT_OK
        expected = json.dumps([c.to_json_dict() for c in enumerate_circles(n)]) + "\n"
        assert capsys.readouterr().out == expected
        if n == 2:
            assert expected == "[]\n"

    # writes of 1, 3 and 4 circles: chunks end inside and at the end of
    # the P3 circles (C(4,3) = 4, C(5,3) = 10), and a write may be empty
    @pytest.mark.parametrize("per_write", [1, 3, 4])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_chunked_bytes_match_one_dump(self, n, per_write, capsys, monkeypatch):
        monkeypatch.setattr(commands, "CIRCLES_PER_WRITE", per_write)
        assert main(["circles", "--n", str(n)]) == EXIT_OK
        expected = json.dumps([c.to_json_dict() for c in enumerate_circles(n)]) + "\n"
        assert capsys.readouterr().out == expected

    def test_n_below_two_is_input_error(self, capsys):
        assert main(["circles", "--n", "1"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == ""

    def test_circle_cap(self, capsys):
        # n = 70 gives 971,635 circles and n = 71 gives 1,028,790
        assert comb(70, 3) + comb(70, 4) <= MAX_CIRCLES < comb(71, 3) + comb(71, 4)
        assert main(["circles", "--n", "71"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == ""

    def test_huge_n_fails_fast(self):
        # refused before any list is built: the child's address space is
        # capped, and the call alone is timed inside the child
        code = (
            "import resource, sys, time\n"
            "cap = 256 * 1024 * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from braidsigma.cli import main\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    sys.exit(main(['circles', '--n', '1000000']))\n"
            "finally:\n"
            "    print(time.perf_counter() - start)\n"
        )
        proc = run_child(["-c", code])
        assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
        assert "more than the 1000000 allowed" in proc.stderr
        assert float(proc.stdout) < 1.0


class TestGraph:
    def test_dot_file(self, chi0_file, tmp_path, capsys):
        out_path = tmp_path / "graph.dot"
        assert main(["graph", "--in", chi0_file, "--dot", str(out_path)]) == EXIT_OK
        text = out_path.read_text()
        assert text.startswith("graph ")
        assert 'v1 -- v2 [label="3"]' in text

    def test_dot_into_missing_directory(self, chi0_file, tmp_path, capsys):
        out_path = tmp_path / "absent" / "graph.dot"
        assert main(["graph", "--in", chi0_file, "--dot", str(out_path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_isolated_vertices_dotted(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps(
                {
                    "n": 4,
                    "weights": {
                        "1-2": "1",
                        "1-3": "0",
                        "1-4": "0",
                        "2-3": "0",
                        "2-4": "0",
                        "3-4": "0",
                    },
                }
            )
        )
        assert main(["graph", "--in", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "style=dotted" in text
        assert "v1 -- v2" in text


# the bytes ``braidsigma verify`` prints: names, order and alignment
VERIFY_OUTPUT = (
    "triple swing factorizations               pass\n"
    "P3 relation abc=bca=cab, central product  pass\n"
    "rho images of planar relations            pass\n"
    "planar relation abc=bca                   pass\n"
    "planar relation bca=cab                   pass\n"
    "planar relation ad=da                     pass\n"
    "planar relation cde=dec                   pass\n"
    "planar relation dec=ecd                   pass\n"
    "planar relation be=eb                     pass\n"
    "planar relation bfd=fdb                   pass\n"
    "planar relation fdb=dbf                   pass\n"
    "planar relation cf=fc                     pass\n"
    "recovery factorization (1, 4, 5)          pass\n"
    "recovery factorization (2, 4, 5)          pass\n"
    "recovery factorization (1, 3, 4)          pass\n"
    "recovery factorization (2, 3, 4)          pass\n"
)


class TestVerify:
    def test_suite_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_OUTPUT

    def test_the_triple_swing_lines_are_factorization_records(self, capsys, monkeypatch):
        # the triple swing lines and the P3 line check the swing on a triple
        # through factorization_holds alone, so refusing the swing on (1, 2, 3)
        # in P_3 fails both and nothing else
        holds = planar.factorization_holds

        def refusing_p3(fact, n):
            return (fact.added, n) != ((1, 2, 3), 3) and holds(fact, n)

        monkeypatch.setattr(planar, "factorization_holds", refusing_p3)
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.endswith("  FAIL")] == lines[:2]

    def test_recovery_factorizations_are_proved(self, capsys, monkeypatch):
        assert main(["verify"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16 and all(line.endswith("  pass") for line in lines)
        assert [line.split("  ")[0].rstrip() for line in lines[-4:]] == [
            f"recovery factorization {t}" for t in ((1, 4, 5), (2, 4, 5), (1, 3, 4), (2, 3, 4))
        ]
        # each line reports its own check
        holds = planar.factorization_holds
        monkeypatch.setattr(
            planar, "factorization_holds", lambda f, n: f.added != (1, 3, 4) and holds(f, n)
        )
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.endswith("  FAIL")]
        assert len(lines) == 16 and failed == [lines[14]]
        assert lines[14].startswith("recovery factorization (1, 3, 4)")


class TestOracle:
    def test_small(self, capsys):
        assert main(["oracle"]) == EXIT_OK
        assert ": 0 counterexamples" in capsys.readouterr().out

    def test_takes_no_options(self, capsys):
        assert main(["oracle", "--max-vertices", "7"]) == EXIT_INPUT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err


# The -h text of the program (None) and of each command, byte for byte as
# the argparse parser before the command table printed it.
HELP_TEXTS = {
    None: """\
usage: braidsigma [-h] {classify,circles,graph,verify,oracle} ...

exact BNS classifier for pure braid group characters

commands:
  classify  classify a character from JSON
  circles   list the complement circles for P_n
  graph     export the support graph as DOT
  verify    run the word-engine identity suite
  oracle    prove the star-or-small fact for every n

run 'braidsigma COMMAND -h' for the options of a command
""",
    "classify": """\
usage: braidsigma classify [-h] --in INFILE [--witness]

classify a character from JSON

options:
  -h, --help   show this help and exit
  --in INFILE  JSON path, or - for stdin
  --witness    attach a verified witness package
""",
    "circles": """\
usage: braidsigma circles [-h] --n N

list the complement circles for P_n

options:
  -h, --help  show this help and exit
  --n N       number of strands, 2 to 70
""",
    "graph": """\
usage: braidsigma graph [-h] --in INFILE [--dot DOT]

export the support graph as DOT

options:
  -h, --help   show this help and exit
  --in INFILE  JSON path, or - for stdin
  --dot DOT    output path (stdout if omitted)
""",
    "verify": """\
usage: braidsigma verify [-h]

run the word-engine identity suite

options:
  -h, --help  show this help and exit
""",
    "oracle": """\
usage: braidsigma oracle [-h]

prove the star-or-small fact for every n

options:
  -h, --help  show this help and exit
""",
}


class TestParser:
    """Arguments are read from ``cli.COMMANDS``; a usage error prints one
    ``error:`` line and exits 2, in argparse's words."""

    @pytest.mark.parametrize(
        "argv, words",
        [
            ([], "the following arguments are required: command"),
            (["classfy"], "invalid choice: 'classfy'"),
            (["--in", "x"], "invalid choice: '--in'"),
            (["classify", "--in", "{chi}", "--bogus"], "unrecognized arguments: --bogus"),
            (["classify", "--in", "{chi}", "extra"], "unrecognized arguments: extra"),
            # abbreviations, which argparse accepted
            (["classify", "--in", "{chi}", "--wit"], "unrecognized arguments: --wit"),
            (["graph", "--in", "{chi}", "--do", "x.dot"], "unrecognized arguments: --do x.dot"),
            (["classify", "--i", "{chi}"], "the following arguments are required: --in"),
            (["classify", "--in", "{chi}", "--witness=1"], "unrecognized arguments: --witness=1"),
            (["oracle", "--max-vertices", "7"], "unrecognized arguments: --max-vertices 7"),
            (["verify", "-x"], "unrecognized arguments: -x"),
            (["classify"], "the following arguments are required: --in"),
            (["classify", "--witness"], "the following arguments are required: --in"),
            (["graph", "--dot", "x.dot"], "the following arguments are required: --in"),
            (["circles"], "the following arguments are required: --n"),
            (["classify", "--in"], "argument --in: expected one argument"),
            (["classify", "--in", "--witness"], "argument --in: expected one argument"),
            (["graph", "--in", "{chi}", "--dot"], "argument --dot: expected one argument"),
            (["circles", "--n"], "argument --n: expected one argument"),
            (["circles", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["circles", "--n=4.0"], "argument --n: invalid int value: '4.0'"),
            (["circles", "--n", ""], "argument --n: invalid int value: ''"),
            # quoted back by their start and length
            (["classify", "--in", "{chi}", *["--bogus"] * 800], "--bogus --bo... (6399 characters)"),
            (["c" * 5000], "invalid choice: 'ccccccccccccccccccc... (5002 characters)"),
        ],
    )
    def test_usage_error(self, argv, words, chi0_file, capsys):
        assert main([a.replace("{chi}", chi0_file) for a in argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert words in captured.err and len(captured.err.encode()) < 300

    def test_option_spelling_and_order(self, chi0_file, tmp_path, capsys):
        spellings = [
            ["--in", chi0_file, "--witness"],
            ["--witness", "--in", chi0_file],
            [f"--in={chi0_file}", "--witness"],
            ["--witness", f"--in={chi0_file}", "--witness"],
            # the last of a repeated option wins
            ["--in", str(tmp_path / "absent.json"), "--witness", f"--in={chi0_file}"],
        ]
        outputs = []
        for args in spellings:
            assert main(["classify", *args]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs == [outputs[0]] * len(spellings)
        assert "witness" in json.loads(outputs[0])

        dots = []
        for k, args in enumerate(
            [["--in", chi0_file, "--dot", "{out}"], ["--dot={out}", f"--in={chi0_file}"]]
        ):
            out = tmp_path / f"g{k}.dot"
            assert main(["graph", *[a.replace("{out}", str(out)) for a in args]]) == EXIT_OK
            dots.append(out.read_text())
        assert dots[0] == dots[1] and dots[0].startswith("graph ")

        assert main(["circles", "--n=5", "--n", "4"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)) == 5

    def test_handlers_receive_their_attributes(self, monkeypatch):
        seen = {}

        def recording(name):
            def handler(args):
                seen[name] = vars(args)
                return True

            return handler

        for name, (_, *rest) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, name, (recording(name), *rest))
        main(["classify", "--in", "x.json"])
        main(["circles", "--n", "7"])
        main(["graph", "--in", "-", "--dot", "out.dot"])
        main(["verify"])
        assert seen["classify"] == {"infile": "x.json", "witness": False}
        assert seen["circles"] == {"n": 7}
        assert seen["graph"] == {"infile": "-", "dot": "out.dot"}
        assert seen["verify"] == {}

    @pytest.mark.parametrize("name", list(HELP_TEXTS))
    def test_help_text_is_unchanged(self, name, capsys):
        assert main(["-h"] if name is None else [name, "-h"]) == EXIT_OK
        assert capsys.readouterr() == (HELP_TEXTS[name], "")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, flag, capsys):
        assert main([flag]) == EXIT_OK
        top = capsys.readouterr().out
        usage = top.splitlines()[0]
        assert usage.startswith("usage: braidsigma")
        assert all(name in usage and f"  {name}  " in top for name in cli.COMMANDS)
        for name, (_, about, options) in cli.COMMANDS.items():
            # help wins wherever it stands, as with argparse
            for argv in ([name, flag], [name, "--bogus", flag]):
                assert main(argv) == EXIT_OK
                text = capsys.readouterr().out
                assert text.startswith(f"usage: braidsigma {name} [-h]") and about in text
                assert all(option[0] in text for option in options)
