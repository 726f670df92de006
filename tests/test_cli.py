import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import braidsigma
from braidsigma.characters import InternalError
from braidsigma.cli import EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_OK, MAX_CIRCLES, main

SRC = str(Path(braidsigma.__file__).resolve().parent.parent)


def run_child(args, stdin=""):
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=60
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

        monkeypatch.setattr("sys.stdin", io.StringIO(CHI0_JSON))
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
        assert main(["classify", "--in", str(path)]) == EXIT_INPUT_ERROR

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
        "from braidsigma.circles import CircleId\n"
        "from braidsigma.classify import SIGMA1, CircleMembership, Classification\n"
        "if __debug__:\n"
        "    sys.exit('assertions are still enabled')\n"
        "try:\n"
        "    Classification(SIGMA1, CircleMembership(CircleId('P3', (1, 2, 3))), 3)\n"
        "except InternalError:\n"
        "    sys.exit(0)\n"
        "sys.exit('a sigma1 verdict with a circle certificate was accepted')\n"
    )
    proc = run_child(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr


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


class TestOracle:
    def test_small(self, capsys):
        assert main(["oracle", "--max-vertices", "5"]) == EXIT_OK
        assert "0 counterexamples" in capsys.readouterr().out

    @pytest.mark.parametrize("m", ["9", "-1"])
    def test_budget_is_input_error(self, m, capsys):
        assert main(["oracle", "--max-vertices", m]) == EXIT_INPUT_ERROR
        assert "0..8" in capsys.readouterr().err
