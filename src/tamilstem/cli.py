"""Command-line interface: batch stemming, evaluation, and generation.

Subcommands:

- ``stem``            read words from stdin, write ``word<TAB>stem``
- ``eval``            score one engine against a gold file
- ``compare``         score both engines over cumulative chunks
- ``rules-validate``  lint a rule file, reporting every defect
- ``generate``        expand roots from stdin into gold-format pairs

Exit codes: 0 success; 2 rule conflicts found by ``rules-validate``;
64 bad command line; 65 malformed or undecodable input data (with line
numbers where known); 66 unreadable input file or closed stdin; 141 (from
the console script) output pipe closed by its reader, or stdout closed.
With stderr closed, the console script drops its messages and keeps its
exit code and stdout.

`main` passes argparse's help, version and usage text on to its own
streams; ``sys.stdout`` and ``sys.stderr`` are redirected, process-wide,
only while it parses, so `main` is not for concurrent threads.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from . import __version__
from .graphemes import _data_lines, _lines, _packaged_text
from .rules import (
    RuleConflictError,
    RuleError,
    RuleSet,
    _matches_none,
    _scan,
    builtin_rules,
    parse_rules,
)
from .stemmers import _ENGINE_MASKS, ENGINES, _walk

EX_OK = 0
EX_RULE_CONFLICT = 2
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66
EX_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose pipe closed

# Most distinct tokens one ``stem`` run remembers the output of (a few
# MB of strings at most).
_STEM_MEMO_SIZE = 8192


class _CliError(Exception):
    """A reportable failure with a specific exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # A command's parser may carry a function that adds its arguments on
    # its first parse, so that building the parser imports no module
    # that only another command uses (``stem`` never loads evaluation).
    deferred_arguments = None

    def parse_known_args(self, args=None, namespace=None):
        if self.deferred_arguments is not None:
            add, self.deferred_arguments = self.deferred_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


class _ClosedStdin:
    """What `entry` reads when file descriptor 0 is closed: any read is
    an unreadable-input error, raised only if the command reads stdin."""

    def _closed(self, *args):
        raise _CliError(EX_NOINPUT, "cannot read <stdin>: it is closed")

    read = __iter__ = _closed


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
    """The CLI's parser, built once per process.  Each command's parser
    names the function it runs (``run``).  Parsing changes the parser
    only on the first parse of ``compare`` or ``generate``, which adds
    that command's arguments (see `_Parser`)."""
    parser = _Parser(
        prog="tamilstem",
        description="Tamil stemmers with declarative suffix rules.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags that more than one command takes.
    shared = {
        "--algo": dict(choices=sorted(ENGINES), default="light",
                       help="stemming engine (default: light)"),
        "--gold": dict(metavar="PATH",
                       help="gold file (default: read gold data from stdin)"),
        "--rules": dict(metavar="PATH",
                        help="rule file to use instead of the built-in rules"),
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_stem = sub.add_parser("stem", help="stem words read from stdin")
    p_stem.set_defaults(run=_cmd_stem)
    add_shared(p_stem, "--algo")
    p_stem.add_argument(
        "--trace", action="store_true",
        help="emit '#'-prefixed rule applications after each word",
    )
    add_shared(p_stem, "--rules")

    p_eval = sub.add_parser("eval", help="score an engine against gold data")
    p_eval.set_defaults(run=_cmd_eval)
    add_shared(p_eval, "--algo", "--gold", "--rules")

    def compare_arguments(p_cmp):
        from .evaluation import REPORT_FORMATS

        add_shared(p_cmp, "--gold")
        p_cmp.add_argument(
            "--chunks", type=_chunk_list, metavar="N,N,...",
            help="cumulative chunk sizes (default: one chunk of everything)",
        )
        p_cmp.add_argument(
            "--format", choices=REPORT_FORMATS, default="table",
            help="report format (default: table)",
        )
        add_shared(p_cmp, "--rules")

    p_cmp = sub.add_parser(
        "compare", help="score both engines over cumulative chunks"
    )
    p_cmp.set_defaults(run=_cmd_compare)
    p_cmp.deferred_arguments = compare_arguments

    p_val = sub.add_parser("rules-validate", help="lint a rule file")
    p_val.set_defaults(run=_cmd_rules_validate)
    p_val.add_argument(
        "path", nargs="?", metavar="PATH",
        help="rule file to check (default: the built-in rules)",
    )

    def generate_arguments(p_gen):
        from .paradigm import PARADIGMS

        p_gen.add_argument(
            "--paradigm", choices=PARADIGMS, required=True,
            help="inflection table to apply to every root",
        )

    p_gen = sub.add_parser(
        "generate", help="expand roots from stdin into gold-format pairs"
    )
    p_gen.set_defaults(run=_cmd_generate)
    p_gen.deferred_arguments = generate_arguments
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
    from .evaluation import GoldError, load_gold

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
    from .evaluation import GoldConflictWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GoldConflictWarning)
        result = score(*args)
    for warning in caught:
        print(f"tamilstem: warning: {warning.message}", file=stderr)
    return result


def _trace_text(steps) -> str:
    """The ``#`` lines ``stem --trace`` writes after a word's line."""
    return "".join(
        f"# {step.rule.klass}\t{step.rule.pattern.text}\t"
        f"{step.rule.replacement.text}\t{step.after.text}\n"
        for step in steps
    )


def _cmd_stem(args, stdin, stdout, stderr) -> int:
    rules = _load_rules(args.rules)
    masks = _ENGINE_MASKS[args.algo]
    # Only --trace builds the trace: `_walk` appends its steps here.
    trace = [] if args.trace else None
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
            # A token whose text shows that no rule matches it is its own
            # stem, with no trace, and is written without being segmented.
            if _matches_none(rules, token):
                text = f"{token}\t{token}\n"
            else:
                try:
                    stem = _walk(rules, token, masks, trace)
                except ValueError as exc:  # a lone surrogate, from a bad byte
                    raise _CliError(
                        EX_DATA,
                        f"<stdin>: line {lineno}: not valid UTF-8 ({exc})",
                    ) from None
                text = f"{token}\t{stem.text}\n"
                if trace:
                    text += _trace_text(trace)
                    trace.clear()
            if len(memo) >= _STEM_MEMO_SIZE:
                memo.clear()
            memo[token] = text
        write(text)
    return EX_OK


def _cmd_eval(args, stdin, stdout, stderr) -> int:
    from .evaluation import accuracy, evaluate, format_accuracy

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
    from .evaluation import compare, render

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
    from .paradigm import generate_forms

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


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Run the CLI; returns the process exit code.

    ``--help`` and ``--version`` write to *stdout* and return 0; a usage
    error writes to *stderr* and returns 64.  While argparse parses, and
    only then, ``sys.stdout`` and ``sys.stderr`` are redirected: like
    ``warnings.catch_warnings`` in `_reporting_warnings`, that is
    process-wide, so `main` is not for concurrent threads.  It may be
    called any number of times in one process, and reuses its parser.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    # argparse ignores a failed write; one to *stdout* or *stderr* raises.
    printed = io.StringIO()
    try:
        with redirect_stdout(printed), redirect_stderr(printed):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help, version or usage
        ok = exc.code == 0
        (stdout if ok else stderr).write(printed.getvalue())
        return EX_OK if ok else EX_USAGE
    try:
        return args.run(args, stdin, stdout, stderr)
    except UnicodeDecodeError as exc:  # from a stdin that decodes strictly
        error = _CliError(EX_DATA, f"<stdin>: not valid UTF-8 ({exc.reason})")
    except _CliError as exc:
        error = exc
    print(f"tamilstem: error: {error}", file=stderr)
    return error.code


def _writable(stream) -> bool:
    """Whether *stream*, ``sys.stdout`` or ``sys.stderr``, takes writes.

    It is None when its descriptor was closed at start-up.  A zero-byte
    write, which writes nothing, also fails on a descriptor left open
    read-only in place of a closed one (a launcher script can leave its
    own file there), where ``os.fstat`` succeeds.  It succeeds on a pipe
    whose reader is gone, which exits 141 at the first real write.
    """
    if stream is None:
        return False
    try:
        os.write(stream.fileno(), b"")
    except OSError:
        return False
    return True


def entry() -> None:
    """Console-script entry point.

    stdin, stdout and stderr are UTF-8 whatever the locale.  stdin
    decodes with ``surrogateescape``, so an undecodable byte reaches the
    command as a lone surrogate and its error names the line; stdout and
    stderr keep their error handlers (``reconfigure`` would reset them
    to strict).  A closed output pipe, or a closed stdout, exits 141
    with nothing on stderr, and a stderr pipe whose reader has left
    exits 141 too.  With stderr closed, messages are dropped and the
    exit code and stdout are those of a run with it open.
    """
    if not _writable(sys.stdout):
        sys.exit(EX_PIPE)  # as if the reader had left before any write
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        if stream is not None:
            errors = "surrogateescape" if stream is sys.stdin else stream.errors
            stream.reconfigure(encoding="utf-8", errors=errors)
    stdin = sys.stdin if sys.stdin is not None else _ClosedStdin()
    stderr = sys.stderr if _writable(sys.stderr) else io.StringIO()
    try:
        code = main(stdin=stdin, stderr=stderr)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The interpreter flushes stdout and stderr again at exit, and
        # the bytes of a failed write are still buffered; with both
        # descriptors on /dev/null that flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                os.dup2(devnull, stream.fileno())
        os.close(devnull)
        code = EX_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
