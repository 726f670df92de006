import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidsigma
from braidsigma.characters import InternalError
from braidsigma.cli import EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_OK, main

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


def test_invariants_survive_python_O():
    code = (
        "import sys\n"
        "from braidsigma.characters import InternalError\n"
        "from braidsigma.circles import CircleId\n"
        "from braidsigma.classify import SIGMA1, CircleMembership, Classification\n"
        "if __debug__:\n"
        "    sys.exit('assertions are still enabled')\n"
        "try:\n"
        "    Classification(SIGMA1, CircleMembership(CircleId('P3', (1, 2, 3))))\n"
        "except InternalError:\n"
        "    sys.exit(0)\n"
        "sys.exit('a sigma1 verdict with a circle certificate was accepted')\n"
    )
    proc = run_child(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr


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


class TestGraph:
    def test_dot_file(self, chi0_file, tmp_path, capsys):
        out_path = tmp_path / "graph.dot"
        assert main(["graph", "--in", chi0_file, "--dot", str(out_path)]) == EXIT_OK
        text = out_path.read_text()
        assert text.startswith("graph ")
        assert 'v1 -- v2 [label="3"]' in text

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
