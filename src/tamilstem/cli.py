"""Command-line interface: batch stemming, evaluation, and generation.

Subcommands:

- ``stem``            read words from stdin, write ``word<TAB>stem``
- ``eval``            score one engine: its column of ``compare``'s report
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
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from . import __version__
from .graphemes import _data_lines, _lines, _packaged_text, word
from .rules import (
    RuleConflictError,
    RuleError,
    RuleSet,
    _scan,
    builtin_rules,
    parse_rules,
)
from .stemmers import _ENGINE_MASKS, ENGINES, _walk_text

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


def _decode(data: bytes, source: str, lineno: int = 1) -> str:
    """*data*, the bytes of *source* from line *lineno* on, as text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno += data.count(b"\n", 0, exc.start)
        message = f"line {lineno}: not valid UTF-8 ({exc.reason})"
        raise _CliError(EX_DATA, f"{source}: {message}") from None


def _refused(text: str, message, lineno=1, source="<stdin>") -> _CliError:
    """The error for *text*, from line *lineno* of *source* on, that a
    parser refused with *message*: a bad byte, which `entry` decodes to
    a lone surrogate, is reported as `_decode` reports it in a file."""
    try:
        _decode(text.encode("utf-8", "surrogateescape"), source, lineno)
    except _CliError as error:
        return error
    except UnicodeEncodeError:  # from a library caller's own surrogate
        pass
    return _CliError(EX_DATA, f"{source}: {message}")


def _read_file(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliError(
            EX_NOINPUT, f"cannot read {path}: {exc.strerror or exc}"
        ) from None
    return _decode(data, path)


def _load_rules(path: "str | None") -> RuleSet:
    if path is None:
        return builtin_rules()
    text = _read_file(path)
    try:
        return parse_rules(text)
    except RuleError as exc:
        raise _CliError(EX_DATA, f"{path}: {exc}") from None


def _reject_tab(text: str, lineno: int, what: str) -> None:
    """Refuse a *what* with an inner tab: its output line would carry
    more than the two tab-separated fields gold files have."""
    if "\t" in text:
        raise _CliError(EX_DATA, f"<stdin>: line {lineno}: tab inside a {what}")


def _trace_text(steps) -> str:
    """The ``#`` lines ``stem --trace`` writes after a word's line."""
    return "".join(
        f"# {rule.klass}\t{rule.pattern.text}\t"
        f"{rule.replacement.text}\t{after}\n"
        for rule, after in steps
    )


def _cmd_stem(args, stdin, stdout, stderr) -> int:
    rules = _load_rules(args.rules)
    masks = _ENGINE_MASKS[args.algo]
    # Only --trace records the steps: `_walk_text` appends them here.
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
            try:
                stem = _walk_text(rules, token, masks, trace)
            except ValueError as exc:  # a lone surrogate
                raise _refused(raw, f"line {lineno}: {exc}", lineno) from None
            text = f"{token}\t{stem}\n"
            if trace:
                text += _trace_text(trace)
                trace.clear()
            if len(memo) >= _STEM_MEMO_SIZE:
                memo.clear()
            memo[token] = text
        write(text)
    return EX_OK


def _score_gold(args, stdin, stderr, chunks=None):
    """Both engines' `EvalReport` on the ``--gold`` data (or *stdin*)
    under ``--rules``, over cumulative *chunks* (default: all of it).
    A gold conflict is written to *stderr*, once per run."""
    from .evaluation import GoldError, _compare_texts, _parse_gold

    rules = _load_rules(args.rules)
    source = args.gold if args.gold is not None else "<stdin>"
    text = _read_file(source) if args.gold is not None else stdin.read()
    try:
        pairs, fast = _parse_gold(text)
        error = None if pairs else "empty gold standard"
    except GoldError as exc:
        error = exc
    if error is not None:
        raise _refused(text, error, source=source)  # a bad byte comes first
    try:
        report, conflict = _compare_texts(
            pairs, chunks or [len(pairs)], rules, fast
        )
    except ValueError as exc:  # a chunk past the end of the gold
        raise _CliError(EX_DATA, f"{source}: {exc}") from None
    if conflict is not None:
        print(f"tamilstem: warning: {conflict}", file=stderr)
    return report


def _cmd_eval(args, stdin, stdout, stderr) -> int:
    from .evaluation import format_accuracy

    # `--algo`'s column of `compare`'s one-chunk report.
    (row,) = _score_gold(args, stdin, stderr).rows
    n_correct = getattr(row, f"n_correct_{args.algo}")
    accuracy = format_accuracy(getattr(row, f"acc_{args.algo}"))
    stdout.write(
        f"n_unique\t{row.n_unique}\nn_correct\t{n_correct}\n"
        f"accuracy\t{accuracy}\n"
    )
    return EX_OK


def _cmd_compare(args, stdin, stdout, stderr) -> int:
    from .evaluation import render

    report = _score_gold(args, stdin, stderr, args.chunks)
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
    """Write the gold lines of each root's forms.  A root is read with
    `word` once, and its forms are joined as text from the table
    `generate_forms` joins as letters (see `paradigm._gold_lines`)."""
    from .paradigm import _gold_lines

    def refused(lineno, message, raw):
        return _refused(raw, f"line {lineno}: {message}", lineno)

    write = stdout.write
    for lineno, raw in _data_lines(stdin, refused):
        line = raw.strip()
        _reject_tab(line, lineno, "root")
        try:
            write(_gold_lines(word(line), args.paradigm))
        except ValueError as exc:  # a lone surrogate, or a short root
            raise refused(lineno, exc, raw) from None
    return EX_OK


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Run the CLI; returns the process exit code.

    ``--help`` and ``--version`` write to *stdout* and return 0; a usage
    error writes to *stderr* and returns 64.  While argparse parses, and
    only then, ``sys.stdout`` and ``sys.stderr`` are redirected, which is
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
    command as a lone surrogate, reported as in a file (see `_refused`);
    stdout and stderr keep their error handlers (``reconfigure`` would
    reset them to strict).  A closed output pipe, or a closed stdout,
    exits 141 with nothing on stderr, and a stderr pipe whose reader has
    left exits 141 too.  With stderr closed, messages are dropped and the
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
