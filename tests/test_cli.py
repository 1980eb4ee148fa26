"""Command line interface: subcommands, exit codes, option precedence."""

import json
import re
import shlex
from pathlib import Path

import pytest

from specvm.artifacts import read_json
from specvm.cli import _CONFIG_KEYS, build_parser, main
from specvm.gadgets import builtin_gadget
from specvm.isa import parse_program

CRASHY = """\
fn main:
e:
  input r0, 0
  cmp r0, 200
  br lt, ok, bad
ok:
  halt
bad:
  const r1, 0x500000
  load r2, r1, 0
  halt
"""


# The mispredicted side of the branch spins forever.
SPIN = ("fn main:\ne:\n  cmp r0, 0\n  br eq, done, spin\n"
        "spin:\n  jmp spin\ndone:\n  halt\n")


def exit_code(argv) -> int:
    """main's return value, or the status argparse exits with on a usage
    error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture
def g01(tmp_path):
    path = tmp_path / "g01.sasm"
    path.write_text(builtin_gadget(1).source)
    return str(path)


@pytest.fixture
def crashy(tmp_path):
    path = tmp_path / "crashy.sasm"
    path.write_text(CRASHY)
    return str(path)


# -- asm ------------------------------------------------------------------------

def test_asm_emits_canonical_text(g01, tmp_path, capsys):
    out = tmp_path / "canon.sasm"
    assert main(["asm", g01, "-o", str(out)]) == 0
    parse_program(out.read_text())


def test_asm_print_layout(g01, capsys):
    assert main(["asm", g01, "--print-layout"]) == 0
    text = capsys.readouterr().out
    assert "stack    [0x20000, 0x30000)\n" in text
    assert "heap     [0x100000, 0x4100000) redzone 16\n" in text
    assert "blocks:" in text and "main:access" in text


def test_asm_rejects_bad_source(tmp_path, capsys):
    bad = tmp_path / "bad.sasm"
    bad.write_text("fn main:\ne:\n  const r0\n")
    assert main(["asm", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_asm_gives_each_diagnostic_its_line(tmp_path, capsys):
    bad = tmp_path / "nb.sasm"
    bad.write_text("fn main:\nfn other:\ne:\n  jmp 1x\n")
    assert main(["asm", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "svm: error: assembly errors:\n"
        f"{bad}:1: function 'main' has no blocks\n"
        f"{bad}:4: bad label name '1x'\n")


# -- run ------------------------------------------------------------------------

def test_run_reports_violations(g01, capsys):
    assert main(["run", g01, "--input", "09"]) == 0
    out = capsys.readouterr().out
    assert "1 violations" in out and "main:access:2" in out


def test_run_strict_exit_code(g01):
    assert main(["run", g01, "--input", "09", "--strict"]) == 3
    assert main(["run", g01, "--input", "03", "--strict"]) == 0


def test_run_architectural_crash_exits_2(crashy):
    assert main(["run", crashy, "--input", "c8"]) == 2
    assert main(["run", crashy, "--input", "10"]) == 0


def test_run_json_output(g01, capsys):
    assert main(["run", g01, "--input", "09", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["halted"] is True
    assert doc["records"][0]["offending"] == "main:access:2"


def test_run_no_simulate(g01, capsys):
    assert main(["run", g01, "--input", "09", "--no-simulate", "--strict"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_run_input_file(g01, tmp_path, capsys):
    blob = tmp_path / "in.bin"
    blob.write_bytes(b"\x09")
    assert main(["run", g01, "--input-file", str(blob), "--strict"]) == 3


def test_run_rejects_conflicting_inputs(g01, capsys):
    assert main(["run", g01, "--input", "09", "--input-file", "x"]) == 1


def test_run_rejects_bad_hex(g01, capsys):
    assert main(["run", g01, "--input", "zz"]) == 1


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_order_base_is_a_fuzz_flag_only(command, g01, capsys):
    # Neither command has a nesting order schedule for the base to shape.
    with pytest.raises(SystemExit) as ei:
        main([command, g01, "--order-base", "3"])
    assert ei.value.code == 1
    assert "unrecognized arguments: --order-base 3" in capsys.readouterr().err


def test_missing_program_file_exits_1(capsys):
    assert main(["run", "/does/not/exist.sasm"]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1


# -- fuzz -------------------------------------------------------------------------

def test_fuzz_writes_artifacts(g01, tmp_path, capsys):
    out = tmp_path / "fz"
    assert main(["fuzz", g01, "--runs", "120", "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out / "trace.jsonl").exists()
    assert (out / "session.json").exists()
    assert "violations=" in capsys.readouterr().out


def test_fuzz_strict_exit(g01, tmp_path, capsys):
    assert main(["fuzz", g01, "--runs", "120", "--seed", "3", "--strict"]) == 3
    clean = tmp_path / "clean.sasm"
    clean.write_text("fn main:\ne:\n  input r1, 0\n  cmp r1, 4\n  br lt, a, b\n"
                     "a:\n  halt\nb:\n  halt\n")
    capsys.readouterr()
    assert main(["fuzz", str(clean), "--runs", "50", "--seed", "3", "--strict"]) == 0
    assert "violations=0 " in capsys.readouterr().out


def test_seed_precedence_cli_over_config_over_env(g01, tmp_path, monkeypatch):
    cfg = tmp_path / "svm.cfg"
    cfg.write_text("seed=42\n")
    monkeypatch.setenv("SVM_SEED", "99")

    def session_seed(args):
        out = tmp_path / "out"
        assert main(["fuzz", g01, "--runs", "5", "--out", str(out)] + args) == 0
        _, doc = read_json(out / "session.json")
        return doc["seed"]

    assert session_seed(["--config", str(cfg), "--seed", "5"]) == 5
    assert session_seed(["--config", str(cfg)]) == 42
    assert session_seed([]) == 99
    monkeypatch.delenv("SVM_SEED")
    assert session_seed([]) == 0


def test_config_file_errors(g01, tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("wibble=1\n")
    assert main(["fuzz", g01, "--config", str(bad_key)]) == 1
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("runs=lots\n")
    with pytest.raises(SystemExit) as ei:  # argparse converts the value
        main(["fuzz", g01, "--config", str(bad_val)])
    assert ei.value.code == 1
    assert re.search(r"--runs\b.*\blots\b", capsys.readouterr().err)
    assert main(["fuzz", g01, "--config", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize("argv", [
    ["run", "{g01}", "--input", "09"],
    ["fuzz", "{g01}", "--runs", "1"],
    ["oracle", "{g01}", "--input", "09"],
    ["analyze", "{dir}/trace.jsonl"],
], ids=["run", "fuzz", "oracle", "analyze"])
def test_config_identity_is_checked_like_the_flag(argv, g01, tmp_path, capsys):
    conf = tmp_path / "bogus.cfg"
    conf.write_text("identity=bogus\n")
    argv = [a.format(g01=g01, dir=tmp_path) for a in argv]
    assert exit_code(argv + ["--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err and "Traceback" not in err


@pytest.mark.parametrize("command, line", [
    ("run", "runs=5"), ("run", "order_base=3"), ("oracle", "order_base=3"),
    ("fuzz", "min_triggers=3"),
])
def test_config_key_the_command_lacks_is_an_error(command, line, g01, tmp_path,
                                                  capsys):
    conf = tmp_path / "svm.cfg"
    conf.write_text(line + "\n")
    key = line.split("=")[0]
    assert main([command, g01, "--config", str(conf)]) == 1
    assert capsys.readouterr().err == (
        f"svm: error: config key {key} is not an option of svm {command}\n")


def test_config_keys_are_options_and_match_the_readme():
    # Each command's config keys are exactly its options among _CONFIG_KEYS,
    # every key belongs to some command, and the README lists them so.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    para = readme.split("The keys each command takes:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for item in re.split(r"^- ", para, flags=re.M)[1:]:
        commands, _, keys = item.partition(": ")
        for command in re.findall(r"`svm (\w+)`", commands):
            listed[command] = set(re.findall(r"`(\w+)`", keys))
    parser = build_parser()
    minimal = {"asm": ["p"], "run": ["p"], "fuzz": ["p"], "analyze": ["t"],
               "harden": ["p", "--mode", "fence"], "oracle": ["p"], "gadgets": []}
    taken = {command: set(vars(parser.parse_args([command] + argv))) & set(_CONFIG_KEYS)
             for command, argv in minimal.items()}
    assert {command: keys for command, keys in taken.items() if keys} == listed
    assert set().union(*listed.values()) == set(_CONFIG_KEYS)


def test_bad_env_seed_is_an_error(g01, monkeypatch, tmp_path):
    monkeypatch.setenv("SVM_SEED", "not-a-number")
    assert main(["fuzz", g01, "--runs", "1"]) == 1


# -- analyze ----------------------------------------------------------------------

@pytest.fixture
def session_dir(g01, tmp_path):
    out = tmp_path / "sess"
    assert main(["fuzz", g01, "--runs", "250", "--seed", "3",
                 "--out", str(out)]) == 0
    return out


def test_analyze_prints_findings(session_dir, capsys):
    assert main(["analyze", str(session_dir / "trace.jsonl"),
                 "--min-triggers", "5"]) == 0
    out = capsys.readouterr().out
    assert "main:access:2" in out


def test_analyze_strict_exit(session_dir):
    assert main(["analyze", str(session_dir / "trace.jsonl"), "--strict"]) == 3


def test_analyze_writes_report_and_whitelist(session_dir, tmp_path, capsys):
    report = tmp_path / "report.txt"
    wl = tmp_path / "wl.txt"
    assert main(["analyze", str(session_dir / "trace.jsonl"),
                 "--stats", str(session_dir / "branch_stats.json"),
                 "--min-triggers", "5", "--whitelist-min", "5",
                 "--whitelist-out", str(wl), "--out", str(report)]) == 0
    assert report.read_text().startswith("#%svm ")
    assert wl.read_text().startswith("#%svm ")


def test_analyze_of_several_traces_is_analyze_of_their_records(session_dir, tmp_path):
    header, *lines = (session_dir / "trace.jsonl").read_text().splitlines()
    halves = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for i, path in enumerate(halves):
        path.write_text("\n".join([header, *lines[i::2]]) + "\n")
    outputs = []
    for tag, traces in (("whole", [session_dir / "trace.jsonl"]), ("split", halves)):
        report, wl = tmp_path / f"{tag}.report", tmp_path / f"{tag}.wl"
        assert main(["analyze", *map(str, traces), "--min-triggers", "5",
                     "--stats", str(session_dir / "branch_stats.json"),
                     "--whitelist-min", "1", "--whitelist-out", str(wl),
                     "--out", str(report)]) == 0
        outputs.append((report.read_bytes(), wl.read_bytes()))
    assert outputs[0] == outputs[1]


def test_analyze_takes_identity_from_config(session_dir, tmp_path, capsys):
    trace = str(session_dir / "trace.jsonl")
    assert main(["analyze", trace]) == 0
    assert "targets=[alloc#" in capsys.readouterr().out
    conf = tmp_path / "raw.conf"
    conf.write_text("identity=raw\n")
    assert main(["analyze", trace, "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "targets=[0x" in out and "alloc#" not in out


@pytest.mark.parametrize("flags, option", [
    (["--min-triggers", "-5"], "--min-triggers"),
    (["--whitelist-min", "-1"], "--whitelist-min"),
    (["--config", "{dir}/neg.cfg"], "--whitelist-min"),
], ids=["min-triggers", "whitelist-min", "config"])
def test_analyze_rejects_negative_thresholds(flags, option, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    stats = tmp_path / "stats.json"
    stats.write_text('{"counts": {}}\n')
    (tmp_path / "neg.cfg").write_text("whitelist_min=-1\n")
    wl = tmp_path / "wl.txt"
    argv = ["analyze", str(trace), "--stats", str(stats), "--whitelist-out",
            str(wl)] + [f.format(dir=tmp_path) for f in flags]
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {option}: must be at least 0" in err
    assert "Traceback" not in err
    assert not wl.exists()


def test_analyze_whitelist_needs_stats(session_dir, tmp_path):
    assert main(["analyze", str(session_dir / "trace.jsonl"),
                 "--whitelist-out", str(tmp_path / "wl.txt")]) == 1


def test_analyze_partial_input_exits_1(session_dir, capsys):
    assert main(["analyze", str(session_dir / "trace.jsonl"),
                 "/no/such/trace.jsonl", "--min-triggers", "5"]) == 1
    captured = capsys.readouterr()
    assert "main:access:2" in captured.out  # the readable shard was processed
    assert "cannot read" in captured.err


def test_analyze_unreadable_trace_writes_no_whitelist(tmp_path, capsys):
    stats = tmp_path / "s.json"
    stats.write_text('{"counts": {"main:e:3": 500}}\n')
    wl, report = tmp_path / "wl.txt", tmp_path / "report.txt"
    argv = ["analyze", "/no/such/a.jsonl", "--stats", str(stats),
            "--whitelist-out", str(wl)]
    assert main(argv) == 1
    assert not wl.exists()
    assert "not written: " + str(wl) in capsys.readouterr().err
    assert main(argv + ["--out", str(report)]) == 1
    assert not wl.exists() and not report.exists()
    # A file left at an output path by an earlier run stays as it was.
    wl.write_text("old\n")
    assert main(argv) == 1
    assert wl.read_text() == "old\n"
    assert "left as it was" in capsys.readouterr().err
    # Without an output path there is nothing to say was not written.
    assert main(["analyze", "/no/such/a.jsonl"]) == 1
    assert "not written" not in capsys.readouterr().err


RECORD = {"kind": "data-oob", "offending": "main:e:3", "addr": "0x100040",
          "referent": {"ord": 0, "base": 0x100000, "size": 64}, "offset": 64,
          "branches": ["main:e:1"], "order": 1, "input": "ab12", "run": 3,
          "detail": "redzone"}
MISTYPED = [("offset", [1]), ("branches", [["x"]]), ("input", [1]),
            ("offset", "abc"), ("kind", 5), ("order", "one"),
            ("branches", "main:e:1"), ("run", None), ("detail", 0),
            ("offending", None), ("referent", {"ord": "0", "base": 1, "size": 2})]


@pytest.mark.parametrize("line, diagnostic", [
    ('{"kind": "data-oob", "addr": "0x10"}', "line 2: record lacks field 'offending'"),
    ('{"kind": "data-oob", "offending": "main:e:0", "addr": "zz"}',
     "line 2: malformed record field"),
] + [(json.dumps({**RECORD, field: value}),
      f"line 2: malformed record field: {field} has the wrong type")
     for field, value in MISTYPED])
def test_analyze_malformed_trace_line_exits_1(tmp_path, capsys, line, diagnostic):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('#%svm {"file": "trace"}\n' + line + "\n")
    assert main(["analyze", str(trace)]) == 1
    assert diagnostic in capsys.readouterr().err


@pytest.mark.parametrize("field, value, diagnostic", [
    ("addr", "-0x10", "addr -0x10 is outside 0..2**64-1"),
    ("addr", "0x10000000000000000", "addr 0x10000000000000000 is outside 0..2**64-1"),
    ("order", -2, "order -2 with 1 branches"),
    ("order", 2, "order 2 with 1 branches"),
    ("kind", "bogus", "unknown kind 'bogus'"),
    ("run", -1, "run -1 is negative"),
    ("offset", 999, "offset 999 is not addr - referent base, 64"),
    ("referent", None, "offset 64 without a referent"),
    ("referent", {"ord": -1, "base": 0x100000, "size": 64}, "referent ordinal -1 is negative"),
    ("referent", {"ord": 0, "base": 0x100000, "size": 0}, "referent size 0 is below 1"),
    ("kind", "code-ptr", "a code-ptr record with a referent"),
    ("detail", "bad-ret", "detail 'bad-ret' for data-oob, not redzone or unmapped"),
], ids=["addr-negative", "addr-wide", "order-negative", "order-wrong", "kind", "run",
        "offset-wrong", "offset-without-referent", "referent-ordinal", "referent-size",
        "code-ptr-referent", "detail"])
def test_analyze_rejects_values_no_run_records(tmp_path, capsys, field, value, diagnostic):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('#%svm {"file": "trace"}\n' + json.dumps({**RECORD, field: value}) + "\n")
    assert main(["analyze", str(trace)]) == 1
    out, err = capsys.readouterr()
    assert f"line 2: bad record value: {diagnostic}" in err
    assert out == "no findings\n"


NOT_UTF8 = b"fn main:\xff\xfe\n"
STATS_ARGS = ["analyze", "{trace}", "--stats", "{dir}/stats.json",
              "--whitelist-out", "{dir}/wl.txt"]


@pytest.mark.parametrize("files, argv", [
    ({}, STATS_ARGS),
    ({"stats.json": b"{bad"}, STATS_ARGS),
    ({"stats.json": b"[1]"}, STATS_ARGS),
    ({"p.sasm": NOT_UTF8}, ["run", "{dir}/p.sasm"]),
    ({"c.cfg": NOT_UTF8}, ["run", "{g01}", "--config", "{dir}/c.cfg"]),
    ({"wl.txt": NOT_UTF8}, ["harden", "{g01}", "--mode", "fence",
                            "--whitelist", "{dir}/wl.txt"]),
    ({"out": b""}, ["fuzz", "{g01}", "--runs", "1", "--out", "{dir}/out"]),
], ids=["stats-missing", "stats-not-json", "stats-not-an-object",
        "program-not-utf8", "config-not-utf8", "whitelist-not-utf8",
        "out-is-a-file"])
def test_unreadable_files_give_a_diagnostic(files, argv, g01, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('#%svm {"file": "trace"}\n')
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main([a.format(dir=tmp_path, g01=g01, trace=trace) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("svm: error: ")


# -- harden -------------------------------------------------------------------------

def test_harden_fence_output(g01, tmp_path, capsys):
    out = tmp_path / "hard.sasm"
    assert main(["harden", g01, "--mode", "fence", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("; svm ")
    assert "fence" in text
    parse_program(text)
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["branches_hardened"] == 1


def test_harden_map_file(g01, tmp_path):
    out = tmp_path / "hard.sasm"
    mp = tmp_path / "map.json"
    assert main(["harden", g01, "--mode", "slh", "-o", str(out),
                 "--map", str(mp)]) == 0
    doc = json.loads(mp.read_text())
    assert "main:entry:6" in doc["map"]


def test_harden_with_whitelist(g01, tmp_path, capsys):
    wl = tmp_path / "wl.txt"
    wl.write_text("main:entry:6\n")
    out = tmp_path / "hard.sasm"
    assert main(["harden", g01, "--mode", "fence", "--whitelist", str(wl),
                 "-o", str(out)]) == 0
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["whitelisted"] == 1 and summary["branches_hardened"] == 0


def test_harden_missing_whitelist_exits_1(g01, tmp_path):
    assert main(["harden", g01, "--mode", "fence",
                 "--whitelist", str(tmp_path / "nope.txt")]) == 1


def test_harden_slh_rejects_reserved_register(tmp_path, capsys):
    src = tmp_path / "r15.sasm"
    src.write_text("fn main:\ne:\n  const r15, 1\n  halt\n")
    assert main(["harden", str(src), "--mode", "slh"]) == 1
    assert "mask-register-in-use" in capsys.readouterr().err


# -- oracle ---------------------------------------------------------------------------

def test_oracle_text_and_json(g01, capsys):
    assert main(["oracle", g01, "--input", "09"]) == 0
    assert "distinct violations" in capsys.readouterr().out
    assert main(["oracle", g01, "--input", "09", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][0]["kind"] == "data-oob"


def test_oracle_takes_identity_from_config(g01, tmp_path, capsys):
    assert main(["oracle", g01, "--input", "09"]) == 0
    assert "identity=('ref'," in capsys.readouterr().out
    conf = tmp_path / "raw.conf"
    conf.write_text("identity=raw\n")
    assert main(["oracle", g01, "--input", "09", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "identity=('addr'," in out and "'ref'" not in out


def test_oracle_strict_exit(g01):
    assert main(["oracle", g01, "--input", "09", "--strict"]) == 3
    assert main(["oracle", g01, "--input", "03", "--strict"]) == 0


def test_oracle_limit_exits_1(tmp_path, capsys):
    src = tmp_path / "census.sasm"
    src.write_text("fn main:\nA:\n  cmp r0, 0\n  br eq, B, C\n"
                   "B:\n  br eq, D, B\nC:\n  br eq, B, C\nD:\n  halt\n")
    assert main(["oracle", str(src), "--max-order", "3", "--window", "16",
                 "--limit", "4"]) == 1
    assert "enumeration-too-large" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_oracle_rejects_a_limit_below_1(limit, g01, capsys):
    assert main(["oracle", g01, "--input", "09", "--limit", limit]) == 1
    assert capsys.readouterr().err == (
        f"svm: error: bad --limit {limit}: script_limit must be at least 1\n")


@pytest.mark.parametrize("flag, message", [
    ("--max-order", "max_order must be at least 1"),
    ("--window", "window must be at least 1"),
    ("--stride", "stride must be at least 1"),
])
def test_oracle_checks_its_bounds(flag, message, tmp_path, capsys):
    # With a stride of 0 the spinning path would never charge its window.
    src = tmp_path / "spin.sasm"
    src.write_text(SPIN)
    assert main(["oracle", str(src), flag, "0"]) == 1
    assert capsys.readouterr().err == f"svm: error: {message}\n"


# -- gadgets -----------------------------------------------------------------------------

def test_gadgets_listing(capsys):
    assert main(["gadgets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 18
    assert "bounds_check_bypass" in lines[0]


def test_gadgets_emit_matches_builtin(capsys):
    assert main(["gadgets", "--emit", "5"]) == 0
    assert capsys.readouterr().out == builtin_gadget(5).source


def test_gadgets_emit_unknown_id(capsys):
    assert main(["gadgets", "--emit", "99"]) == 1


def test_gadgets_dir_export(tmp_path):
    out = tmp_path / "all"
    assert main(["gadgets", "--dir", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 18
    assert files[0] == "g01_bounds_check_bypass.sasm"


# -- README -------------------------------------------------------------------------------

def test_readme_cli_examples_parse():
    # Every svm line of the README's CLI block must be accepted as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln, comments=True)
                for ln in block.replace("\\\n", " ").splitlines()
                if ln.startswith("svm ")]
    assert len(commands) == 8
    for argv in commands:
        build_parser().parse_args(argv[1:])
