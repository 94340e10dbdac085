import argparse
import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from mnl import algebra, birep, cli, envelope
from mnl.algebra import StructureTensor, catalog_algebra
from mnl.birep import quaternion_lr_generators
from mnl.loops import group_catalog


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# --- loop-check --------------------------------------------------------

def test_loop_check_octonion(capsys):
    code, payload = run_json(capsys, "loop-check", "builtin:octonion-loop")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["order"] == 16
    assert payload["pass"] is True
    assert payload["results"]["moufang"]["pass"] is True
    assert payload["results"]["associative"]["pass"] is False


def test_loop_check_chein(capsys):
    code, payload = run_json(capsys, "loop-check", "builtin:chein-s3")
    assert code == 0
    assert payload["order"] == 12
    assert payload["results"]["associative"]["pass"] is False


def test_loop_check_group(capsys):
    code, payload = run_json(capsys, "loop-check", "builtin:q8")
    assert code == 0
    assert payload["results"]["associative"]["pass"] is True


def test_loop_check_violation(capsys, tmp_path):
    # latin square with unit that is not Moufang -> exit 1
    table = {"order": 5, "table": [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0]]}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(table))
    code, payload = run_json(capsys, "loop-check", str(path))
    assert code == 1
    assert payload["pass"] is False
    assert payload["results"]["moufang"]["pass"] is False


def test_loop_check_unknown_builtin(capsys):
    code = cli.main(["loop-check", "builtin:nope"])
    assert code == 2


def test_loop_check_truncated_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 3, "table": [[0, 1')
    assert cli.main(["loop-check", str(path)]) == 2


# --- maltsev -----------------------------------------------------------

def test_maltsev_m7(capsys):
    code, payload = run_json(capsys, "maltsev", "builtin:m7")
    assert code == 0
    assert payload["results"]["lie"]["pass"] is False
    assert payload["results"]["maltsev"]["pass"] is True


def test_maltsev_violation(capsys, tmp_path):
    m7 = catalog_algebra("m7")
    ent = dict(m7.entries)
    del ent[(2, 0, 1)]
    del ent[(2, 1, 0)]
    path = tmp_path / "mut.json"
    path.write_text(json.dumps(StructureTensor(7, ent).to_json_dict()))
    code, payload = run_json(capsys, "maltsev", str(path))
    assert code == 1
    assert payload["results"]["maltsev"]["witness"] is not None


# --- envelope ----------------------------------------------------------

def test_envelope_su2(capsys):
    code, payload = run_json(capsys, "envelope", "builtin:su2")
    assert code == 0
    assert payload["envelope"]["dimension"] == 9


def test_envelope_m7_with_oracle(capsys):
    code, payload = run_json(capsys, "envelope", "builtin:m7",
                             "--oracle", "builtin:octonion")
    assert code == 0
    assert payload["envelope"]["dimension"] == 28
    assert payload["oracle"]["matrix_closure_dim"] == 28
    assert payload["oracle"]["dims_match"] is True
    assert payload["oracle"]["realize"]["pass"] is True


def test_envelope_su2_doubled_with_oracle(capsys):
    code, payload = run_json(capsys, "envelope", "builtin:su2-doubled",
                             "--oracle", "builtin:quaternion")
    # the generator map is a homomorphism (realize passes) but not faithful:
    # the 9-dim envelope collapses onto a 6-dim matrix algebra, which is no
    # algebraic violation
    assert code == 0 and payload["pass"] is True
    assert payload["oracle"]["matrix_closure_dim"] == 6
    assert payload["oracle"]["dims_match"] is False
    assert payload["oracle"]["realize"]["pass"] is True


def test_envelope_not_faithful_text(capsys):
    code, out = run(capsys, "envelope", "builtin:su2-doubled", "--oracle", "builtin:quaternion")
    assert code == 0
    assert "closure dim 6 (realization not faithful)" in out
    assert "MISMATCH" not in out
    code, out = run(capsys, "envelope", "builtin:m7", "--oracle", "builtin:octonion")
    assert code == 0 and "closure dim 28 (match)" in out


def test_envelope_non_maltsev_precondition(capsys, tmp_path):
    ent = dict(catalog_algebra("m7").entries)
    del ent[(2, 0, 1)]
    del ent[(2, 1, 0)]
    path = tmp_path / "mut.json"
    path.write_text(json.dumps(StructureTensor(7, ent).to_json_dict()))
    code, payload = run_json(capsys, "envelope", str(path))
    assert code == 1
    assert payload["results"]["maltsev-precondition"]["pass"] is False


def test_envelope_checks_maltsev_once(capsys, monkeypatch):
    calls = []
    original = algebra.is_maltsev

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(algebra, "is_maltsev", counted)
    monkeypatch.setattr(envelope, "is_maltsev", counted)
    code, _ = run(capsys, "envelope", "builtin:m7")
    assert code == 0
    assert len(calls) == 1


# --- etc ---------------------------------------------------------------

def test_etc_quaternion(capsys):
    code, payload = run_json(capsys, "etc", "builtin:quaternion", "--trials", "5")
    assert code == 0
    assert payload["results"]["canonical"]["pass"] is True
    assert payload["results"]["theorem"]["pass"] is True
    assert payload["results"]["eq-3"]["pass"] is True
    assert "locality" not in payload["results"]


def test_etc_quaternion_two_sites(capsys):
    code, payload = run_json(capsys, "etc", "builtin:quaternion",
                             "--sites", "2", "--trials", "2")
    assert code == 0
    assert payload["results"]["locality"]["pass"] is True


def test_etc_sites_cap(capsys):
    # 40 modes: past the cap of 32
    assert cli.main(["etc", "builtin:octonion", "--sites", "5"]) == 2
    assert "32 in all" in capsys.readouterr().err


def test_etc_past_sixteen_modes(capsys):
    # 20 modes: the full space (2^20) is never built
    code, payload = run_json(capsys, "etc", "builtin:quaternion", "--sites", "5",
                             "--trials", "1")
    assert code == 0
    assert all(entry["pass"] for entry in payload["results"].values())


def test_etc_file_generators_need_tensor(capsys, tmp_path):
    from mnl.birep import quaternion_lr_generators
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(quaternion_lr_generators().to_json_dict()))
    assert cli.main(["etc", str(path), "--trials", "1"]) == 2
    code, payload = run_json(capsys, "etc", str(path), "--trials", "1",
                             "--tensor", "builtin:su2-doubled")
    assert code == 0


def test_etc_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("MNL_SEED", "7")
    code, payload = run_json(capsys, "etc", "builtin:quaternion", "--trials", "3")
    assert code == 0
    assert payload["scenario"]["seed"] == 7


# --- tangent -----------------------------------------------------------

def test_tangent_default(capsys):
    code, payload = run_json(capsys, "tangent")
    assert code == 0
    assert payload["max_abs_error"] <= 1e-5


def test_tangent_tight_tolerance(capsys):
    code, payload = run_json(capsys, "tangent", "--step", "1e-2", "--tol", "1e-9")
    assert code == 1
    assert payload["pass"] is False


# --- output handling ---------------------------------------------------

def test_json_byte_deterministic(capsys):
    _, out1 = run(capsys, "maltsev", "builtin:m7", "--format", "json")
    _, out2 = run(capsys, "maltsev", "builtin:m7", "--format", "json")
    assert out1 == out2


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run(capsys, "maltsev", "builtin:su2", "--format", "json",
                    "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["pass"] is True


def test_out_file_unwritable(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    assert cli.main(["maltsev", "builtin:su2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {path}: ")
    assert captured.err.count("\n") == 1


# Whole reports, pinned: (argv, exit code, sha256 of the --format json
# report).  "swapped.json" is the octonion generator set with S_0 and S_1
# swapped, "m7-big.json" m7 scaled by BIG and "octonion-big.json" the
# octonion set scaled by BIG, whose products pass 2^62 and take the
# Python-int path; all are written to the working directory so that their
# names in the report do not depend on a temporary path.
BIG = 2 ** 31 + 3
REPORT_DIGESTS = {
    "loop-octonion": (["loop-check", "builtin:octonion-loop"], 0,
        "f9ded0ef6b841e0b2d0aca372fee5a40ac0218162e6f5835bb708e9c6d411432"),
    "loop-chein-s3": (["loop-check", "builtin:chein-s3"], 0,
        "7b569fa2c1418c865327ab9fee8462d9ca6d3000b1a77a4b4ca3f35a48e2fec3"),
    "maltsev-m7": (["maltsev", "builtin:m7"], 0,
        "d79fe810cd0be2f8807e127afa2bcd4afa7e8368d99dbfc707119fe9fb7d69ba"),
    "envelope-m7-octonion": (["envelope", "builtin:m7", "--oracle", "builtin:octonion"], 0,
        "989042295069d1d7660b421a6be4bd03c35c56f763783f8b4c1c2e342990e04b"),
    "etc-octonion-1": (["etc", "builtin:octonion", "--sites", "1", "--trials", "2"], 0,
        "6cbae71b60c9b42f8dd3534503520b7345bd1d52ca1b5d7bc42602e24653610e"),
    "etc-quaternion-2": (["etc", "builtin:quaternion", "--sites", "2", "--trials", "2"], 0,
        "3ec600376b9f568be02f238bdc8d5b2425ef1489119aea681f6ec958866c3bed"),
    "envelope-m7-swapped": (["envelope", "builtin:m7", "--oracle", "swapped.json"], 1,
        "105291e8eba47dae468f8a4d3412303c2e6a890f16ad2c6522d21ba5bf0cc22d"),
    "etc-swapped-1": (["etc", "swapped.json", "--tensor", "builtin:m7", "--trials", "2"], 1,
        "988163b943e3daa5cf4cb45c69568c5ddaf9b6e16ffd345a5b8fb8902eb3ba90"),
    "envelope-su2-doubled-quaternion": (
        ["envelope", "builtin:su2-doubled", "--oracle", "builtin:quaternion"], 0,
        "c53dcc78a410c329ee903d1dd366fb4c20f29dfc08b80ad31561e371dd0d736a"),
    "envelope-m7-big-octonion": (["envelope", "m7-big.json", "--oracle", "builtin:octonion"], 1,
        "346f4c272c7cb672eb3385b9cc5f8c22f2a3faf19d9997ff61e4efa32e72bd25"),
    "envelope-m7-big-octonion-big": (
        ["envelope", "m7-big.json", "--oracle", "octonion-big.json"], 0,
        "6b8fcab88777d027eac726106e07ce6d20e80f69a4c7583d56adfd67f7207b8f"),
}


def write_report_inputs(path):
    """The input files that REPORT_DIGESTS names, in the directory `path`."""
    gen = birep.octonion_lr_generators()
    swapped = gen.to_json_dict()
    swapped["S"][0], swapped["S"][1] = swapped["S"][1], swapped["S"][0]
    (path / "swapped.json").write_text(json.dumps(swapped))
    big = birep.GeneratorSet(gen.r, gen.dim, *([[[BIG * v for v in row] for row in m] for m in ms]
                                               for ms in (gen.S, gen.T)))
    (path / "octonion-big.json").write_text(json.dumps(big.to_json_dict()))
    (path / "m7-big.json").write_text(json.dumps(catalog_algebra("m7").scaled(BIG).to_json_dict()))


@pytest.mark.parametrize("argv,code,digest", list(REPORT_DIGESTS.values()),
                         ids=list(REPORT_DIGESTS))
def test_report_digest(capsys, monkeypatch, tmp_path, argv, code, digest):
    monkeypatch.delenv("MNL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    write_report_inputs(tmp_path)
    got, out = run(capsys, *argv, "--format", "json")
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_text_format(capsys):
    code, out = run(capsys, "maltsev", "builtin:su2")
    assert code == 0
    assert "maltsev: pass" in out


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2


def test_main_builds_one_parser(capsys, monkeypatch):
    # calls share the parser, and a usage error between them leaves it as it was
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        first = run(capsys, "maltsev", "builtin:m7", "--format", "json")
        assert cli.main(["maltsev"]) == 2
        second = run(capsys, "maltsev", "builtin:m7", "--format", "json")
    finally:
        cli.build_parser.cache_clear()
    assert built.count("mnl") == 1
    assert first == second and first[0] == 0


@pytest.mark.parametrize("argv", [
    ["etc", "builtin:quaternion", "--trials", "0"],
    ["etc", "builtin:quaternion", "--trials", "-5"],
    ["tangent", "--tol", "-1"],
    ["tangent", "--tol", "nan"],
    ["tangent", "--tol", "inf"],
    ["MNL_SEED=abc", "etc", "builtin:quaternion", "--trials", "1"],
    ["MNL_SEED=1.5", "etc", "builtin:quaternion", "--trials", "1"],
    ["tangent", "--step", "1e-300"],
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_numeric_option_exits_2(capsys, monkeypatch, argv):
    # leading NAME=value items set environment variables, as in a shell
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# --- malformed inputs and crashes ---------------------------------------

def _tensor(entries):
    return {"dim": 3, "entries": entries}


def _generators(mutate):
    from mnl.birep import quaternion_lr_generators
    data = quaternion_lr_generators().to_json_dict()
    mutate(data)
    return data


def _set_entry(value, slot):
    def mutate(data):
        data["S"][0][0][0][slot] = value
    return mutate


MALFORMED = {
    "tensor-string-numerator": ("maltsev", _tensor([[1, 2, 3, "1", 1]])),
    "tensor-string-denominator": ("maltsev", _tensor([[1, 2, 3, 1, "1"]])),
    "tensor-float-numerator": ("maltsev", _tensor([[1, 2, 3, 1.5, 1]])),
    "tensor-float-denominator": ("maltsev", _tensor([[1, 2, 3, 1, 2.0]])),
    "tensor-bool-numerator": ("maltsev", _tensor([[1, 2, 3, True, 1]])),
    "tensor-bool-denominator": ("maltsev", _tensor([[1, 2, 3, 1, True]])),
    "tensor-entries-not-a-list": ("maltsev", _tensor(5)),
    "tensor-entries-an-object": ("maltsev", _tensor({"1": [1, 2, 3, 1, 1]})),
    "generators-string-numerator": ("etc", _generators(_set_entry("1", 0))),
    "generators-string-denominator": ("etc", _generators(_set_entry("1", 1))),
    "generators-float-numerator": ("etc", _generators(_set_entry(0.5, 0))),
    "generators-float-denominator": ("etc", _generators(_set_entry(1.0, 1))),
    "generators-bool-numerator": ("etc", _generators(_set_entry(True, 0))),
    "generators-bool-denominator": ("etc", _generators(_set_entry(True, 1))),
    "generators-S-not-a-list": ("etc", _generators(lambda d: d.update(S=5))),
    "generators-float-dim": ("etc", _generators(lambda d: d.update(dim=4.0))),
    "generators-empty": ("envelope", {"r": 0, "dim": 3, "S": [], "T": []}),
    "cayley-bool-entry": ("loop-check", {"order": 2, "table": [[0, 1], [1, False]]}),
    "cayley-float-entry": ("loop-check", {"order": 2, "table": [[0, 1], [1, 1.5]]}),
    "cayley-null-entry": ("loop-check", {"order": 2, "table": [[0, 1], [1, None]]}),
    "cayley-entry-out-of-range": ("loop-check", {"order": 2, "table": [[0, 1], [1, 2]]}),
    "cayley-table-not-a-list": ("loop-check", {"order": 2, "table": 3}),
}

# the message must name the fault
MESSAGES = {
    "cayley-bool-entry": "table entry False must be an integer",
    "cayley-float-entry": "table entry 1.5 must be an integer",
    "cayley-null-entry": "table entry None must be an integer",
    "cayley-entry-out-of-range": "table entry 2 out of range",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    command, data = MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)]
    if command == "etc":
        argv += ["--tensor", "builtin:su2-doubled", "--trials", "1"]
    if command == "envelope":
        argv = [command, "builtin:su2", "--oracle", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert MESSAGES.get(case, "") in err


@pytest.mark.parametrize("content", [b"\xff\xfe{\x00}\x00", b"[" + b"9" * 5000 + b"]"],
                         ids=["utf-16", "int-past-digit-limit"])
def test_unreadable_file_exits_2(capsys, tmp_path, content):
    # a file that is not UTF-8 text, or whose integer Python will not parse,
    # is an input error for every reader
    path = tmp_path / "input.json"
    path.write_bytes(content)
    for argv in (["maltsev", str(path)], ["loop-check", str(path)],
                 ["etc", str(path), "--tensor", "builtin:su2-doubled", "--trials", "1"],
                 ["envelope", "builtin:su2", "--oracle", str(path)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_out_of_range_input_exits_2(capsys, tmp_path):
    # the sparse layer's int64 bound is a designed limit, as the mode caps
    # are; the dense layers fall back to Python ints and decide the input
    gen = quaternion_lr_generators()
    big = birep.GeneratorSet(gen.r, gen.dim, *([[[v * 2 ** 32 for v in row] for row in m]
                                                for m in ms] for ms in (gen.S, gen.T)))
    gen_path, tensor_path = tmp_path / "gen.json", tmp_path / "tensor.json"
    gen_path.write_text(json.dumps(big.to_json_dict()))
    tensor_path.write_text(json.dumps(catalog_algebra("su2").scaled(2 ** 33).to_json_dict()))
    assert cli.main(["etc", str(gen_path), "--tensor", str(tensor_path), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "int64" in err
    assert cli.main(["envelope", str(tensor_path), "--oracle", str(gen_path)]) == 0


def test_crash_exits_internal_error(capsys, monkeypatch):
    # an OverflowError that no bound checked before computing is a crash too
    for exc in (RuntimeError("boom"),
                OverflowError("exact sparse entry exceeded the int64 guard")):
        def boom(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_maltsev", boom)
        assert cli.main(["maltsev", "builtin:m7"]) == cli.EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and f"{type(exc).__name__}: {exc}" in err


# --- fuzzed malformed inputs ---------------------------------------------

VALID = {"cayley": group_catalog()["z3"].to_json_dict(),
         "tensor": catalog_algebra("su2").to_json_dict(),
         "generators": quaternion_lr_generators().to_json_dict()}

# every subcommand that reads each kind of JSON; {} is the mutated file and
# {valid} a valid generator file
COMMANDS = {
    "cayley": [["loop-check", "{}"]],
    "tensor": [["maltsev", "{}"], ["envelope", "{}"],
               ["etc", "{valid}", "--tensor", "{}", "--trials", "1"]],
    "generators": [["etc", "{}", "--tensor", "builtin:su2-doubled", "--trials", "1"],
                   ["envelope", "builtin:su2", "--oracle", "{}"]],
}

# slots that hold an index into the table or tensor, and denominators
INDEX_SLOTS = {"cayley": lambda p: len(p) == 3 and p[0] == "table",
               "tensor": lambda p: len(p) == 3 and p[0] == "entries" and p[2] < 3,
               "generators": lambda p: False}
DEN_SLOTS = {"cayley": lambda p: False,
             "tensor": lambda p: len(p) == 3 and p[0] == "entries" and p[2] == 4,
             "generators": lambda p: len(p) == 5 and p[4] == 1}
REQUIRED = {"cayley": ("order", "table"), "tensor": ("dim", "entries"),
            "generators": ("r", "dim", "S", "T")}
COUNTS = {"cayley": ("order",), "tensor": ("dim",), "generators": ("r", "dim")}

NOT_AN_INT = st.sampled_from(["1", 1.5, 2.0, True, False, None, [], {}, [1]])
NOT_A_LIST = st.sampled_from([5, "x", {"a": 1}, 1.5, True])


def _nodes(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, sub in items:
        yield from _nodes(sub, path + (key,))


def _set(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def malformed(draw):
    """A kind of input and a document of that kind that every reader must
    reject: one wrong type, shape, index, denominator, count or key."""
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = VALID[kind]
    nodes = list(_nodes(doc))
    ints = [p for p, v in nodes if isinstance(v, int)]
    # dropping or repeating a tensor row leaves a valid tensor
    lists = [p for p, v in nodes if isinstance(v, list) and p != ("entries",)]
    how = draw(st.sampled_from(("type", "container", "shape", "index", "den",
                                "count", "key", "root")))
    if how == "type":
        return kind, _set(doc, draw(st.sampled_from(ints)), draw(NOT_AN_INT))
    if how == "container":
        return kind, _set(doc, draw(st.sampled_from([p for p in lists if p])),
                          draw(NOT_A_LIST))
    if how == "shape":
        path = draw(st.sampled_from(lists))
        seq = list(dict(nodes)[path])
        at = draw(st.integers(0, len(seq) - 1))
        seq[at:at + 1] = [] if draw(st.booleans()) else [seq[at], seq[at]]
        return kind, _set(doc, path, seq)
    # a kind without index or denominator slots gets a wrong root instead
    slots = {"index": INDEX_SLOTS, "den": DEN_SLOTS}.get(how)
    if slots is not None and any(slots[kind](p) for p in ints):
        path = draw(st.sampled_from([p for p in ints if slots[kind](p)]))
        if how == "index":
            # table entries are 0-based, tensor indices 1-based
            top = doc["order"] - 1 if kind == "cayley" else doc["dim"]
            low = 0 if kind == "cayley" else 1
            bad = draw(st.sampled_from((low - 1, top + 1, top + 5)))
        else:
            bad = draw(st.sampled_from((0, -1, -7)))
        return kind, _set(doc, path, bad)
    if how == "count":
        key = draw(st.sampled_from(COUNTS[kind]))
        return kind, _set(doc, (key,), doc[key] - 1)
    if how == "key":
        gone = draw(st.sampled_from(REQUIRED[kind]))
        return kind, {k: v for k, v in doc.items() if k != gone}
    return kind, draw(st.sampled_from([[doc], 3, "doc", None]))


@settings(max_examples=120, deadline=None)
@given(malformed(), st.data())
def test_fuzzed_malformed_json_exits_2(tmp_path_factory, case, data):
    kind, doc = case
    work = tmp_path_factory.getbasetemp()
    bad, valid = work / "fuzz-bad.json", work / "fuzz-valid.json"
    bad.write_text(json.dumps(doc))
    valid.write_text(json.dumps(VALID["generators"]))
    argv = data.draw(st.sampled_from(COMMANDS[kind]))
    argv = [str(bad) if a == "{}" else str(valid) if a == "{valid}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2, (argv, doc, err.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
