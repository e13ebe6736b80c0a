"""Command-line interface: batch stemming, evaluation, and generation.

Subcommands:

- ``stem``            read words from stdin, write ``word<TAB>stem``
- ``eval``            score one engine against a gold file
- ``compare``         score both engines over cumulative chunks
- ``rules-validate``  lint a rule file, reporting every defect
- ``generate``        expand roots from stdin into gold-format pairs

Exit codes: 0 success; 2 rule conflicts found by ``rules-validate``;
64 bad command line; 65 malformed or undecodable input data (with line
numbers where known); 66 unreadable input file.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import lru_cache

from . import __version__
from .evaluation import (
    GoldConflictWarning,
    GoldError,
    accuracy,
    compare,
    evaluate,
    format_accuracy,
    load_gold,
    render,
    REPORT_FORMATS,
)
from .graphemes import _data_lines, _lines, _packaged_text
from .paradigm import PARADIGMS, generate_forms
from .rules import (
    RuleConflictError,
    RuleError,
    RuleSet,
    _scan,
    builtin_rules,
    parse_rules,
)
from .stemmers import ENGINES

EX_OK = 0
EX_RULE_CONFLICT = 2
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66

# Most distinct tokens one ``stem`` run remembers the output of (a few
# MB of strings at most).
_STEM_MEMO_SIZE = 8192


class _UsageError(Exception):
    """Raised instead of argparse's default sys.exit on bad flags."""


class _CliError(Exception):
    """A reportable failure with a specific exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Printed(Exception):
    """Raised instead of printing ``--help`` or ``--version`` text and
    exiting, so `main` writes the text to the stdout of its own call."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")

    def _print_message(self, message, file=None):
        # The one call through which argparse's help and version actions
        # print; usage errors never get here (see `error`).
        raise _Printed(message)


def _chunk_list(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"chunks must be comma-separated integers, got {text!r}"
        ) from None
    if sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(
            f"chunks must be positive and strictly ascending, got {text!r}"
        )
    return sizes


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing never changes
    it."""
    parser = _Parser(
        prog="tamilstem",
        description="Tamil stemmers with declarative suffix rules.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rules_flag(p):
        p.add_argument(
            "--rules",
            metavar="PATH",
            help="rule file to use instead of the built-in rules",
        )

    p_stem = sub.add_parser("stem", help="stem words read from stdin")
    p_stem.add_argument(
        "--algo", choices=sorted(ENGINES), default="light",
        help="stemming engine (default: light)",
    )
    p_stem.add_argument(
        "--trace", action="store_true",
        help="emit '#'-prefixed rule applications after each word",
    )
    add_rules_flag(p_stem)

    p_eval = sub.add_parser("eval", help="score an engine against gold data")
    p_eval.add_argument(
        "--algo", choices=sorted(ENGINES), default="light",
        help="stemming engine (default: light)",
    )
    p_eval.add_argument(
        "--gold", metavar="PATH",
        help="gold file (default: read gold data from stdin)",
    )
    add_rules_flag(p_eval)

    p_cmp = sub.add_parser(
        "compare", help="score both engines over cumulative chunks"
    )
    p_cmp.add_argument(
        "--gold", metavar="PATH",
        help="gold file (default: read gold data from stdin)",
    )
    p_cmp.add_argument(
        "--chunks", type=_chunk_list, metavar="N,N,...",
        help="cumulative chunk sizes (default: one chunk of everything)",
    )
    p_cmp.add_argument(
        "--format", choices=REPORT_FORMATS, default="table",
        help="report format (default: table)",
    )
    add_rules_flag(p_cmp)

    p_val = sub.add_parser("rules-validate", help="lint a rule file")
    p_val.add_argument(
        "path", nargs="?", metavar="PATH",
        help="rule file to check (default: the built-in rules)",
    )

    p_gen = sub.add_parser(
        "generate", help="expand roots from stdin into gold-format pairs"
    )
    p_gen.add_argument(
        "--paradigm", choices=PARADIGMS, required=True,
        help="inflection table to apply to every root",
    )
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliError(
            EX_NOINPUT, f"cannot read {path}: {exc.strerror or exc}"
        ) from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise _CliError(
            EX_DATA, f"{path}: line {line}: not valid UTF-8 ({exc.reason})"
        ) from None


def _load_rules(path: "str | None") -> RuleSet:
    if path is None:
        return builtin_rules()
    text = _read_file(path)
    try:
        return parse_rules(text)
    except RuleError as exc:
        raise _CliError(EX_DATA, f"{path}: {exc}") from None


def _load_gold_entries(path, stdin):
    text = _read_file(path) if path is not None else stdin.read()
    source = path if path is not None else "<stdin>"
    try:
        entries = load_gold(text)
    except GoldError as exc:
        raise _CliError(EX_DATA, f"{source}: {exc}") from None
    if not entries:
        raise _CliError(EX_DATA, f"{source}: empty gold standard")
    return entries


def _reject_tab(text: str, lineno: int, what: str) -> None:
    """Refuse a *what* with an inner tab: its output line would carry
    more than the two tab-separated fields gold files have."""
    if "\t" in text:
        raise _CliError(EX_DATA, f"<stdin>: line {lineno}: tab inside a {what}")


def _reporting_warnings(stderr, score, *args):
    """``score(*args)``, writing each warning it raises, such as a
    `GoldConflictWarning`, to *stderr*.  Left to `warnings`, a conflict
    would go to ``sys.stderr`` with a source line, and only once per
    process."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GoldConflictWarning)
        result = score(*args)
    for warning in caught:
        print(f"tamilstem: warning: {warning.message}", file=stderr)
    return result


def _stem_text(token: str, result, trace: bool) -> str:
    """What ``stem`` writes for *token*: its line, then any trace lines."""
    text = f"{token}\t{result.stem.text}\n"
    if trace:
        for step in result.trace:
            text += (
                f"# {step.rule.klass}\t{step.rule.pattern.text}\t"
                f"{step.rule.replacement.text}\t{step.after.text}\n"
            )
    return text


def _cmd_stem(args, stdin, stdout, stderr) -> int:
    rules = _load_rules(args.rules)
    engine = ENGINES[args.algo]
    write = stdout.write
    # Running text repeats a few word forms, so each distinct token is
    # stemmed once per run.  A failing token is never stored, so the
    # error names the first line that carries it.
    memo: dict[str, str] = {}
    for lineno, raw in _lines(stdin):
        token = raw.strip()
        if not token:
            write("\n")
            continue
        text = memo.get(token)
        if text is None:
            _reject_tab(token, lineno, "word")
            try:
                result = engine(token, rules)
            except ValueError as exc:  # a lone surrogate from a failed decode
                raise _CliError(
                    EX_DATA, f"<stdin>: line {lineno}: not valid UTF-8 ({exc})"
                ) from None
            text = _stem_text(token, result, args.trace)
            if len(memo) >= _STEM_MEMO_SIZE:
                memo.clear()
            memo[token] = text
        write(text)
    return EX_OK


def _cmd_eval(args, stdin, stdout, stderr) -> int:
    rules = _load_rules(args.rules)
    engine = ENGINES[args.algo]
    entries = _load_gold_entries(args.gold, stdin)
    n_unique, n_correct = _reporting_warnings(
        stderr, evaluate, lambda w: engine(w, rules), entries
    )
    print(f"n_unique\t{n_unique}", file=stdout)
    print(f"n_correct\t{n_correct}", file=stdout)
    print(f"accuracy\t{format_accuracy(accuracy(n_correct, n_unique))}",
          file=stdout)
    return EX_OK


def _cmd_compare(args, stdin, stdout, stderr) -> int:
    rules = _load_rules(args.rules)
    entries = _load_gold_entries(args.gold, stdin)
    chunks = args.chunks if args.chunks is not None else [len(entries)]
    try:
        report = _reporting_warnings(stderr, compare, entries, chunks, rules)
    except ValueError as exc:
        raise _CliError(EX_DATA, str(exc)) from None
    stdout.write(render(report, args.format))
    return EX_OK


def _cmd_rules_validate(args, stdin, stdout, stderr) -> int:
    if args.path is not None:
        text = _read_file(args.path)
    else:
        text = _packaged_text("builtin_rules.tsv")
    rules, problems = _scan(text)
    if not problems:
        print(f"ok: {len(rules)} rules", file=stdout)
        return EX_OK
    for problem in problems:
        print(problem, file=stdout)
    if any(isinstance(p, RuleConflictError) for p in problems):
        return EX_RULE_CONFLICT
    return EX_DATA


def _cmd_generate(args, stdin, stdout, stderr) -> int:
    write = stdout.write
    for lineno, raw in _data_lines(stdin):
        line = raw.strip()
        _reject_tab(line, lineno, "root")
        try:
            pairs = generate_forms(line, args.paradigm)
        except ValueError as exc:
            raise _CliError(EX_DATA, f"<stdin>: line {lineno}: {exc}") from None
        for surface, stem in pairs:
            write(f"{surface.text}\t{stem.text}\n")
    return EX_OK


_COMMANDS = {
    "stem": _cmd_stem,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "rules-validate": _cmd_rules_validate,
    "generate": _cmd_generate,
}


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Run the CLI; returns the process exit code.

    ``--help`` and ``--version`` write to *stdout* and return 0.  `main`
    may be called any number of times in one process; it builds its
    parser on the first call and reuses it.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=stderr)
        return EX_USAGE
    except _Printed as printed:
        stdout.write(str(printed))
        return EX_OK
    try:
        return _COMMANDS[args.command](args, stdin, stdout, stderr)
    except UnicodeDecodeError as exc:  # from a stdin that decodes strictly
        error = _CliError(EX_DATA, f"<stdin>: not valid UTF-8 ({exc.reason})")
    except _CliError as exc:
        error = exc
    print(f"tamilstem: error: {error}", file=stderr)
    return error.code


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())
