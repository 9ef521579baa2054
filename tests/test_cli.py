import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from twoshift.cli import main

HERE = os.path.dirname(__file__)
FIX = os.path.join(HERE, "fixtures")
SRC = os.path.join(HERE, os.pardir, "src")


def fresh_python(args, **kwargs):
    """Run a new interpreter on ``args`` with this checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=60,
                          **kwargs)


def fixture(name: str) -> str:
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPointEval:
    def test_canonical_echo(self, capsys):
        code, out, _ = run(capsys, "point-eval", "(01)^- 2 . 3 (4)^+")
        assert code == 0 and out.strip() == "(01)^- 2 . 3 (4)^+"

    def test_index_window_shift_length(self, capsys):
        assert run(capsys, "point-eval", "(01)^- 2 . 3 (4)^+",
                   "--index", "0")[1].strip() == "2"
        assert run(capsys, "point-eval", "(01)^- 2 . 3 (4)^+",
                   "--window", "-2", "3")[1].strip() == "012344"
        assert run(capsys, "point-eval", "(0)^- 1 2 @2 #",
                   "--shift", "2")[1].strip() == "(0)^- 12 . #"
        assert run(capsys, "point-eval", "@",
                   "--length")[1].strip() == "-inf"
        assert run(capsys, "point-eval", "(0)^- 1 2 @2 #",
                   "--length")[1].strip() == "2"

    def test_tail(self, capsys):
        code, out, _ = run(capsys, "point-eval", "(0)^- . (1)^+",
                           "--tail", "2")
        assert code == 0 and out.strip() == "(0)^- 11 @2"


class TestSpaceVerbs:
    def test_check_member_and_not(self, capsys):
        code, out, _ = run(capsys, "space-check", fixture("goldenmean.json"),
                           "--point", "(01)^- . (01)^+")
        assert (code, out) == (0, "member\n")
        code, out, _ = run(capsys, "space-check", fixture("goldenmean.json"),
                           "--point", "(0)^- . 1 1 (0)^+")
        assert (code, out) == (1, "not a member\n")

    def test_blocks_sorted(self, capsys):
        code, out, _ = run(capsys, "space-blocks",
                           fixture("goldenmean.json"), "-n", "2",
                           "--cutoff", "3")
        assert code == 0
        assert out.split() == ["00", "01", "02", "0_", "10", "12", "1_",
                               "20", "21", "22", "2_", "__"]

    def test_minimalize(self, capsys):
        code, out, _ = run(capsys, "space-minimalize",
                           fixture("exampleD.json"))
        assert code == 0
        assert json.loads(out) == {"forbid_words": ["1", "2"]}

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "space-classify",
                           fixture("goldenmean.json"), "--json")
        assert code == 0
        assert json.loads(out) == {"row_finite": False,
                                   "column_finite": False,
                                   "m_step": 1, "finite_type": True}

    def test_equal(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text('{"forbid_words": ["11", "112"]}')
        code, out, _ = run(capsys, "space-equal",
                           fixture("goldenmean.json"), str(other))
        assert code == 0 and "equal up to budget" in out
        different = tmp_path / "different.json"
        different.write_text('{"forbid_words": ["12"]}')
        code, out, _ = run(capsys, "space-equal",
                           fixture("goldenmean.json"), str(different))
        assert code == 1 and out.startswith("differ:")

    def test_equal_beyond_the_budget(self, capsys, tmp_path):
        free = tmp_path / "free.json"
        free.write_text('{"forbid_words": []}')
        word4 = tmp_path / "word4.json"
        word4.write_text('{"forbid_words": ["0123"]}')
        code, out, _ = run(capsys, "space-equal", str(free), str(word4),
                           "--n-budget", "1")
        assert code == 1 and out == "differ: 0123\n"


class TestCodeVerbs:
    def test_apply(self, capsys):
        code, out, _ = run(capsys, "code-apply", fixture("shift.json"),
                           "--point", "(0)^- 1 2 @2 #")
        assert code == 0 and out.strip() == "(0)^- 1 . 2 #"

    def test_check_outcomes(self, capsys):
        code, out, _ = run(capsys, "code-check", fixture("identity.json"))
        assert code == 0 and out.startswith("passes")
        code, out, _ = run(capsys, "code-check", fixture("collapse.json"))
        assert code == 1 and out.startswith("fails")


class TestRecodeVerbs:
    def test_spec_recode(self, capsys):
        code, out, _ = run(capsys, "recode", fixture("goldenmean.json"),
                           "-M", "2")
        assert code == 0
        assert json.loads(out) == {"forbid_words": ["11"], "overlap_m": 2}

    def test_point_recode_round_trip(self, capsys):
        code, out, _ = run(capsys, "recode", "-M", "2",
                           "--point", "(01)^- . (01)^+")
        assert code == 0
        encoded = out.strip()
        code, out, _ = run(capsys, "recode", "-M", "2", "--decode",
                           "--point", encoded)
        assert code == 0 and out.strip() == "(01)^- . (01)^+"

    def test_edge_build_listing(self, capsys):
        code, out, _ = run(capsys, "edge-build", fixture("goldenmean.json"),
                           "-M", "1", "--cutoff", "2")
        assert code == 0
        assert "vertices: 0, 1" in out
        assert "edges: 00, 01, 10" in out


class TestBridgeVerbs:
    def test_project_point(self, capsys):
        code, out, _ = run(capsys, "bridge-project",
                           "--point", "(0)^- 1 2 @2 #")
        assert code == 0
        assert out.splitlines() == ["12 #", "continuous at x: True"]

    def test_project_space(self, capsys):
        code, out, _ = run(capsys, "bridge-project",
                           fixture("goldenmean.json"))
        assert code == 0
        assert json.loads(out) == {"forbid_words": ["11"],
                                   "letters_infinite": True}

    def test_lift_space(self, capsys):
        code, out, _ = run(capsys, "bridge-lift",
                           fixture("goldenmean.json"))
        assert code == 0
        assert json.loads(out) == {"forbid_words": ["11"], "case": "i"}


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "space-check", "missing.json",
                             "--point", "@")
        assert code == 2 and "error:" in err

    def test_bad_point_syntax(self, capsys):
        code, _, err = run(capsys, "point-eval", "((bogus")
        assert code == 2 and "error:" in err

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("verb, obj", [
        ("code-check", {"memory": 0}),
        ("code-check", {"memory": 0, "anticipation": 0, "default": "copy"}),
        ("space-check", {"forbid_words": [5]}),
        ("space-check", ["11"]),
    ])
    def test_malformed_json_is_a_one_line_error(self, capsys, tmp_path,
                                                 verb, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        argv = [verb, str(path)] + (["--point", "@"] if verb == "space-check"
                                    else [])
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_cutoff_is_a_one_line_error(self, capsys, tmp_path):
        free = tmp_path / "free.json"
        free.write_text('{"forbid_words": []}')
        code, out, err = run(capsys, "space-blocks", str(free), "-n", "2",
                             "--cutoff", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_budget_is_a_one_line_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"forbid_words": ["1*"], "allow_tails": ["0"]}')
        b.write_text('{"forbid_words": ["1*"], "allow_tails": ["2"]}')
        code, out, _ = run(capsys, "space-equal", str(a), str(b))
        assert code == 1 and out == "differ: (0)^- @0\n"
        code, out, err = run(capsys, "space-equal", str(a), str(b),
                             "--n-budget", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tail_too_large_for_memory_is_a_one_line_error(self):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        t0 = time.monotonic()
        proc = fresh_python(["-m", "twoshift.cli", "point-eval",
                             "(0)^-.(1)^+", "--tail", "99999999"],
                            preexec_fn=cap)
        assert time.monotonic() - t0 < 5
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: out of memory\n"


# Each verb family runs in a fresh interpreter, which then lists the package
# modules it loaded: first after a bare ``import twoshift``, then after the
# verb.  A module a verb does not run costs every cold start its load time.
_LOADED = """
import contextlib, io, json, sys
import twoshift
bare = sorted(m for m in sys.modules if m.startswith("twoshift."))
from twoshift import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([bare, code, sorted(m.split(".")[1] for m in sys.modules
                                     if m.startswith("twoshift."))]))
"""
_POINT = ["cli", "errors", "words", "points"]
_SPACE = _POINT + ["automaton", "spaces"]


@pytest.mark.parametrize("argv, modules", [
    (["point-eval", "(0)^- . (1)^+", "--tail", "2"], _POINT),
    (["code-apply", fixture("shift.json"), "--point", "(0)^- 1 2 @2 #"],
     _POINT + ["blockcodes"]),
    (["space-check", fixture("goldenmean.json"), "--point", "@"], _SPACE),
    (["bridge-project", fixture("goldenmean.json")], _SPACE + ["bridge"]),
    (["edge-build", fixture("goldenmean.json"), "-M", "1"],
     _SPACE + ["blockcodes", "higherblock"]),
])
def test_each_verb_loads_only_its_modules(argv, modules):
    proc = fresh_python(["-c", _LOADED] + argv)
    assert json.loads(proc.stdout) == [[], 0, sorted(modules)]


# JSON values biased toward the keys the spec and rule readers look up.
# Numbers stay small: building a rule enumerates up to (letters + 2)^width
# abstract windows, a cost rather than a crash.
_KEYS = ["forbid_words", "forbid_tails", "forbid_tails_containing",
         "allow_tails", "alphabet", "overlap_m", "memory", "anticipation",
         "clauses", "window", "output", "default", "letter"]
_TEXT = st.sampled_from(["11", "*2", "(1)^-", "(01)^- 2", "copy 0", "copy",
                         "empty", "_", "0", "3", "", "x", "1_"]) | \
    st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=8)


@given(value=_JSON)
def test_any_json_input_exits_cleanly(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("json") / "input.json"
    path.write_text(json.dumps(value))
    for argv in (["space-check", str(path), "--point", "(0)^- . 1 (0)^+"],
                 ["space-check", str(path), "--point", "@"],
                 ["code-check", str(path)],
                 ["bridge-lift", str(path)]):
        assert main(argv) in (0, 1, 2)
