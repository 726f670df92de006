import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import braidsigma
from braidsigma import cli, commands, planar, witness
from braidsigma.characters import InternalError, delta_value
from braidsigma.classify import Classification, Star, ZeroSum
from braidsigma.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from braidsigma.commands import MAX_CIRCLES, enumerate_circles

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
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--in", str(path)])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "2-3" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--in", str(path)])
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--in", str(tmp_path / "absent.json")])
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_directory_is_input_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--in", str(tmp_path)])
        assert exc.value.code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 2, "weights": {"1-2": "\xff"}}')
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--in", str(path)])
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--in", str(path)])
        assert exc.value.code == EXIT_INPUT_ERROR

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

    def test_other_fault_is_not_an_input_error(self, chi0_file, capsys, monkeypatch):
        def broken(chi):
            raise ValueError("a fault inside a stage")

        monkeypatch.setattr("braidsigma.cli.classify", broken)
        assert main(["classify", "--in", chi0_file]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: a fault inside a stage\n"

    def test_failed_witness_names_its_conditions(self, chi0_file, capsys, monkeypatch):
        # chi0 is zero_sum at n = 4: J is all four strands, I every pair
        lemma_sets = witness._lemma_sets

        def dropping(lemma, n, drop=((1, 2),), j_sets=None):
            j, i, f = lemma_sets(lemma, n)
            return j_sets or j, tuple(a for a in i if a not in drop), f

        monkeypatch.setattr(witness, "_lemma_sets", dropping)
        assert main(["classify", "--in", chi0_file, "--witness"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness: pairs of 1..n that I does not give (1): [(1, 2)]\n"

        # chi0 has no weight on (2, 4); (1, 3) and (2, 4) cross, so C(J) has
        # no edge, and J dominates none of the pairs that meet both
        monkeypatch.setattr(
            witness, "_lemma_sets", lambda lemma, n: dropping(lemma, n, [], ((1, 3), (2, 4)))
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
    # site, nothing else loads typing, so the package must not either
    code = (
        "import sys\n"
        "from braidsigma.cli import main\n"
        "code = main(['classify', '--witness', '--in', sys.argv[1]])\n"
        "unwanted = {'argparse', 'gettext', 'dataclasses', 'typing',\n"
        "            'braidsigma.planar', 'braidsigma.commands'}\n"
        "print(code, sorted(unwanted & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = run_child(["-S", "-c", code, chi0_file])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0 []\n"


def test_closed_stdin_is_an_input_error():
    # the child starts with no file descriptor 0, so sys.stdin is None
    script = '"$0" -m braidsigma.cli classify --in - <&-'
    proc = run_child_shell(script)
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: cannot read -: standard input is closed\n"


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


class TestVerify:
    def test_suite_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out
        assert "FAIL" not in out
        assert "planar relation abc=bca" in out

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
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--max-vertices", "7"])
        assert exc.value.code == EXIT_INPUT_ERROR
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
        ],
    )
    def test_usage_error(self, argv, words, chi0_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{chi}", chi0_file) for a in argv])
        assert exc.value.code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert words in captured.err

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
                return EXIT_OK

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
        with pytest.raises(SystemExit) as exc:
            main(["-h"] if name is None else [name, "-h"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr() == (HELP_TEXTS[name], "")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == EXIT_OK
        top = capsys.readouterr().out
        usage = top.splitlines()[0]
        assert usage.startswith("usage: braidsigma")
        assert all(name in usage and f"  {name}  " in top for name in cli.COMMANDS)
        for name, (_, about, options, switches) in cli.COMMANDS.items():
            # help wins wherever it stands, as with argparse
            for argv in ([name, flag], [name, "--bogus", flag]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == EXIT_OK
                text = capsys.readouterr().out
                assert text.startswith(f"usage: braidsigma {name} [-h]") and about in text
                assert all(option[0] in text for option in options + switches)
