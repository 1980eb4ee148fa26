"""Command line front end.

Subcommands: asm, run, fuzz, analyze, harden, oracle, gadgets.

Exit codes: 0 success; 1 usage, configuration, or input problems, or a
file that cannot be read or written (including an analyze invocation
that could only read part of its trace files, which then prints what it
read and writes neither report nor whitelist); 2 the program crashed
architecturally under run; 3 violations were found and --strict was given.

build_parser is the one place that gives an option its type, choices and
default.  run, fuzz, analyze and oracle also read a config file of
key=value lines (--config).  A key names one of the command's own long
options, with _ for -, and main parses the file's lines as those options
placed before the command line's, so the file is checked like the
command line and an explicit flag wins over it.  The fuzzing seed falls
back to the SVM_SEED environment variable when neither gives it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .analyze import (
    DEFAULT_MIN_TRIGGERS,
    DEFAULT_WHITELIST_MIN_INPUTS,
    aggregate,
    build_whitelist,
    load_trace,
    read_whitelist,
    render_report,
    write_whitelist,
)
from .artifacts import read_json, sasm_with_header, write_json, write_lines
from .detect import DEFAULT_IDENTITY, IDENTITY_MODES
from .engine import SpecConfig, run_with_exposure
from .fuzzing import FuzzConfig, fuzz_loop
from .gadgets import GadgetError, builtin_gadget, gadget_ids
from .harden import HardenError, fence_pass, slh_pass
from .isa import AsmError, parse_program, emit_text
from .machine import (
    HEAP_BASE,
    HEAP_CEILING,
    REDZONE,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    STACK_HI,
    STACK_LO,
    STATIC_BASE,
    ExecImage,
)
from .oracle import ORACLE_MAX_ORDER, SCRIPT_LIMIT, OracleError, enumerate_paths

OK = 0
E_USAGE = 1
E_CRASH = 2
E_VIOLATIONS = 3

# The option names a config file may set; each command takes the ones
# that are among its options.
_CONFIG_KEYS = (
    "window", "stride", "max_order", "order_base", "identity", "runs",
    "seed", "workers", "max_len", "min_triggers", "whitelist_min",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2
        self.print_usage(sys.stderr)
        self.exit(E_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """An argparse type: a whole number of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class CliError(Exception):
    def __init__(self, message: str, code: int = E_USAGE):
        super().__init__(message)
        self.code = code


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise CliError(f"{what} {path} is not UTF-8 text: {e}")


def _config_argv(args) -> list[str]:
    """The lines of args.config as --key=value options of args.command."""
    argv = []
    for ln in _read_text(args.config, "config file").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise CliError(f"bad config line (want key=value): {ln!r}")
        key, _, value = ln.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key: {key}")
        if not hasattr(args, key):
            raise CliError(f"config key {key} is not an option of svm {args.command}")
        argv.append(f"--{key.replace('_', '-')}={value.strip()}")
    return argv


def _spec_config(args, **extra) -> SpecConfig:
    try:
        return SpecConfig(window=args.window, stride=args.stride,
                          max_order=args.max_order, **extra)
    except ValueError as e:
        raise CliError(str(e))


def _load_program(path: str):
    text = _read_text(path, "program file")
    try:
        return parse_program(text)
    except AsmError as e:
        lines = [f"{path}:{d.line}: {d.message}" for d in e.diagnostics]
        raise CliError("assembly errors:\n" + "\n".join(lines))


def _input_bytes(args) -> bytes:
    if args.input is not None and args.input_file:
        raise CliError("give either --input or --input-file, not both")
    if args.input is not None:
        s = args.input.replace(" ", "")
        try:
            return bytes.fromhex(s) if s else b""
        except ValueError:
            raise CliError(f"--input is not valid hex: {args.input!r}")
    if args.input_file:
        p = Path(args.input_file)
        if not p.is_file():
            raise CliError(f"input file not found: {args.input_file}")
        return p.read_bytes()
    return b""


def _write_output(path: str | None, text: str) -> None:
    """Write text to the -o file, or to stdout without one."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------

def _cmd_asm(args) -> int:
    program = _load_program(args.file)
    _write_output(args.output, emit_text(program))
    if args.print_layout:
        image = ExecImage(program)
        print(f"scratch  [0x{SCRATCH_BASE:x}, 0x{SCRATCH_BASE + SCRATCH_SIZE:x})")
        print(f"static   [0x{STATIC_BASE:x}, 0x{STATIC_BASE + len(program.data):x})")
        print(f"stack    [0x{STACK_LO:x}, 0x{STACK_HI:x})")
        print(f"heap     [0x{HEAP_BASE:x}, 0x{HEAP_CEILING:x}) redzone {REDZONE}")
        print("blocks:")
        for start, length, fn, label in image.blocks:
            print(f"  {fn}:{label}  start={start} len={length}")
    return OK


def _report(args, records, identity: str, summary: str, doc: dict) -> None:
    """Print the summary line and one line per record, or under --json the
    doc with the records added."""
    if args.json:
        doc["records"] = [r.to_wire() for r in records]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    print(summary)
    for r in records:
        print(f"  {r.kind} at {r.offending} order={r.order} "
              f"identity={r.identity(identity)} via {list(r.branches)}")


def _cmd_run(args) -> int:
    program = _load_program(args.file)
    data = _input_bytes(args)
    spec = _spec_config(args, simulate=not args.no_simulate)
    # No branch statistics: every branch runs at the full max_order.
    trace = run_with_exposure(program, data, spec)
    res = trace.result
    records = list(trace.deduped(args.identity).values())
    state = "halted" if res.halted else (
        f"fault: {res.fault.kind}" if res.fault else "stopped")
    summary = (f"{state} after {res.steps} steps "
               f"({trace.spec_steps} speculative), {len(records)} violations")
    _report(args, records, args.identity, summary, {
        "halted": res.halted,
        "steps": res.steps,
        "fault": res.fault.kind if res.fault else None,
        "regs": list(res.regs),
        "edges": len(trace.edges),
        "spec_steps": trace.spec_steps,
    })
    if res.fault is not None:
        return E_CRASH
    if records and args.strict:
        return E_VIOLATIONS
    return OK


def _cmd_fuzz(args) -> int:
    program = _load_program(args.file)
    spec = _spec_config(args, order_base=args.order_base)
    seed = args.seed  # the flag or the config file, else SVM_SEED or the default
    if seed is None:
        env = os.environ.get("SVM_SEED", str(FuzzConfig().seed))
        try:
            seed = int(env)
        except ValueError:
            raise CliError(f"SVM_SEED is not an integer: {env!r}")
    try:
        fuzz_cfg = FuzzConfig(runs=args.runs, seed=seed, workers=args.workers,
                              max_len=args.max_len, identity=args.identity,
                              spec=spec)
    except ValueError as e:
        raise CliError(str(e))
    if args.out:  # fail before the session, not after it
        Path(args.out).mkdir(parents=True, exist_ok=True)
    result = fuzz_loop(program, fuzz_cfg, out_dir=args.out)
    print(f"runs={result.runs} (attempts={result.attempts}) "
          f"corpus={len(result.corpus)} edges={len(result.edges)} "
          f"violations={len(result.keys)} crashes={len(result.crashes)} "
          f"wall={result.wall_seconds:.2f}s")
    if result.keys and args.strict:
        return E_VIOLATIONS
    return OK


def _read_branch_counts(path: str) -> dict[str, int]:
    try:
        _, doc = read_json(path)
    except ValueError as e:
        raise CliError(f"cannot read branch stats {path}: {e}")
    counts = doc.get("counts") if isinstance(doc, dict) else None
    if isinstance(counts, dict) and all(type(n) is int for n in counts.values()):
        return counts
    raise CliError(f"{path} holds no branch counts")


def _cmd_analyze(args) -> int:
    if args.whitelist_out and not args.stats:
        raise CliError("--whitelist-out needs --stats (branch_stats.json)")
    records = []
    partial = False
    for path in args.traces:
        try:
            records += load_trace(path)[1]
        except (OSError, ValueError) as e:
            print(f"warning: cannot read trace {path}: {e}", file=sys.stderr)
            partial = True
    findings = aggregate(records, args.identity)
    lines = render_report(findings, args.min_triggers)
    if args.out and not partial:
        write_lines(args.out, {"file": "report", "min_triggers": args.min_triggers},
                    lines)
    else:
        for ln in lines:
            print(ln)
        if not lines:
            print("no findings")
    if partial:
        # A whitelist from part of the evidence could admit a branch whose
        # violations sit in an unread trace, so no artifact is written.
        unwritten = [p for p in (args.out, args.whitelist_out) if p]
        if unwritten:
            print(f"error: a trace could not be read; not written: "
                  f"{', '.join(unwritten)} (a file already there is left "
                  f"as it was)", file=sys.stderr)
        return E_USAGE
    if args.whitelist_out:
        counts = _read_branch_counts(args.stats)
        wl = build_whitelist(findings, counts, args.whitelist_min)
        write_whitelist(args.whitelist_out, wl, {"min_inputs": args.whitelist_min})
        print(f"whitelisted {len(wl)} branches", file=sys.stderr)
    if findings and args.strict:
        return E_VIOLATIONS
    return OK


def _cmd_harden(args) -> int:
    program = _load_program(args.file)
    whitelist = set()
    if args.whitelist:
        try:
            whitelist = read_whitelist(args.whitelist)
        except ValueError as e:
            raise CliError(f"cannot read whitelist {args.whitelist}: {e}")
    try:
        result = (fence_pass if args.mode == "fence" else slh_pass)(program, whitelist)
    except HardenError as e:
        raise CliError(str(e))
    meta = {"file": "sasm", "hardening": args.mode, "summary": result.summary}
    _write_output(args.output, sasm_with_header(meta, emit_text(result.program)))
    if args.map:
        write_json(args.map, {"file": "branch-map"}, {"map": result.branch_map})
    print(json.dumps(result.summary, sort_keys=True), file=sys.stderr)
    return OK


def _cmd_oracle(args) -> int:
    program = _load_program(args.file)
    data = _input_bytes(args)
    spec = _spec_config(args)
    try:
        outcome = enumerate_paths(
            program, data, max_order=spec.max_order, window=spec.window,
            stride=spec.stride, identity=args.identity, script_limit=args.limit)
    except OracleError as e:
        raise CliError(str(e))
    summary = (f"{len(outcome.scripts)} speculative paths, "
               f"{len(outcome.keys)} distinct violations")
    _report(args, outcome.records, args.identity, summary,
            {"scripts": len(outcome.scripts)})
    if outcome.keys and args.strict:
        return E_VIOLATIONS
    return OK


def _cmd_gadgets(args) -> int:
    if args.emit is not None:
        try:
            g = builtin_gadget(args.emit)
        except GadgetError as e:
            raise CliError(str(e))
        _write_output(args.output, g.source)
        return OK
    if args.dir:
        out = Path(args.dir)
        out.mkdir(parents=True, exist_ok=True)
        for gid in gadget_ids():
            g = builtin_gadget(gid)
            (out / f"g{gid:02d}_{g.name}.sasm").write_text(g.source, encoding="utf-8")
        print(f"wrote {len(gadget_ids())} gadgets to {out}")
        return OK
    for gid in gadget_ids():
        g = builtin_gadget(gid)
        print(f"{gid:3d} {g.name:24s} trigger={g.trigger.hex() or '-':10s} "
              f"safe={g.safe.hex() or '-':8s} expects {g.expected.kind} "
              f"at {g.expected.offending} order>={g.expected.min_order}")
    return OK


# -- wiring -------------------------------------------------------------------

def _add_identity_and_config(p: _Parser) -> None:
    p.add_argument("--identity", choices=IDENTITY_MODES,
                   default=DEFAULT_IDENTITY, help="violation identity mode")
    p.add_argument("--config", default=None, help="key=value config file")


def _add_spec_flags(p: _Parser, max_order: int) -> None:
    spec = SpecConfig()
    p.add_argument("--window", type=int, default=spec.window,
                   help="speculation window in instructions")
    p.add_argument("--stride", type=int, default=spec.stride,
                   help="window accounting chunk size")
    p.add_argument("--max-order", dest="max_order", type=int, default=max_order,
                   help="maximum nesting order")
    _add_identity_and_config(p)


def _add_input_flags(p: _Parser) -> None:
    p.add_argument("--input", default=None, help="input bytes as hex")
    p.add_argument("--input-file", dest="input_file", default=None,
                   help="file with raw input bytes")


def build_parser() -> _Parser:
    top = _Parser(prog="svm", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", parents=[], help="parse, validate, and emit canonical assembly")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--print-layout", action="store_true", dest="print_layout")
    p.set_defaults(fn=_cmd_asm)

    p = sub.add_parser("run", help="run one input with speculation exposure")
    p.add_argument("file")
    _add_input_flags(p)
    _add_spec_flags(p, SpecConfig().max_order)
    p.add_argument("--no-simulate", action="store_true", dest="no_simulate",
                   help="plain architectural run")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when violations are found")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("fuzz", help="coverage-guided fuzzing with exposure")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="artifact directory")
    fuzz = FuzzConfig()
    p.add_argument("--runs", type=int, default=fuzz.runs)
    p.add_argument("--seed", type=int, default=None,
                   help=f"default: SVM_SEED, else {fuzz.seed}")
    p.add_argument("--workers", type=int, default=fuzz.workers,
                   help="split the runs over this many deterministic shards")
    p.add_argument("--max-len", dest="max_len", type=int, default=fuzz.max_len)
    p.add_argument("--order-base", dest="order_base", type=int,
                   default=fuzz.spec.order_base,
                   help="base of the nesting order schedule")
    _add_spec_flags(p, fuzz.spec.max_order)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("analyze", help="aggregate traces into findings and a whitelist")
    p.add_argument("traces", nargs="+")
    p.add_argument("--stats", default=None, help="branch_stats.json from fuzzing")
    p.add_argument("--min-triggers", dest="min_triggers", type=_count,
                   default=DEFAULT_MIN_TRIGGERS)
    p.add_argument("--whitelist-min", dest="whitelist_min", type=_count,
                   default=DEFAULT_WHITELIST_MIN_INPUTS)
    p.add_argument("--whitelist-out", dest="whitelist_out", default=None)
    p.add_argument("--out", default=None, help="report file")
    _add_identity_and_config(p)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("harden", help="insert fences or address masking")
    p.add_argument("file")
    p.add_argument("--mode", choices=["fence", "slh"], required=True)
    p.add_argument("--whitelist", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--map", default=None, help="write branch id map as JSON")
    p.set_defaults(fn=_cmd_harden)

    p = sub.add_parser("oracle", help="exhaustively enumerate speculative paths")
    p.add_argument("file")
    _add_input_flags(p)
    _add_spec_flags(p, ORACLE_MAX_ORDER)
    p.add_argument("--limit", type=int, default=SCRIPT_LIMIT,
                   help="abort beyond this many scripts")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gadgets", help="list or emit the built-in victim programs")
    p.add_argument("--emit", type=int, default=None, help="gadget id to print")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dir", default=None, help="write all gadgets here")
    p.set_defaults(fn=_cmd_gadgets)
    return top


@functools.cache
def _parser() -> _Parser:
    """The parser main uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The file's options go right after the command name, so that
            # the command line's own flags come later and win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
        return args.fn(args)
    except CliError as e:
        print(f"svm: error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:  # a file that cannot be read or written
        print(f"svm: error: {e}", file=sys.stderr)
        return E_USAGE


if __name__ == "__main__":
    sys.exit(main())
