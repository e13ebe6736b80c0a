"""Command-line behavior: outputs, pipes, and exit codes."""

import collections
import io
import os
import random
import re
import shutil
import subprocess
import sys
import unicodedata
import warnings

import pytest

import tamilstem
from tamilstem import cli, evaluation, graphemes, stemmers
from tamilstem import rules as rules_module
from tamilstem.cli import (
    EX_DATA,
    EX_NOINPUT,
    EX_OK,
    EX_PIPE,
    EX_RULE_CONFLICT,
    EX_USAGE,
    main,
)
from tamilstem.evaluation import REPORT_FORMATS
from tamilstem.paradigm import PARADIGMS, build_corpus, default_roots
from tamilstem.rules import builtin_rules, parse_rules
from tamilstem.stemmers import ENGINES

GOLD_TEXT = "பெண்கள்\tபெண்\nமரங்கள்\tமரம்\nபடித்தேன்\tபடி\n"


class _BrokenPipe(io.StringIO):
    """A stream whose reader has left: every write fails."""

    def write(self, text):
        raise BrokenPipeError


def run_cli(argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def test_stem_basic():
    code, out, err = run_cli(["stem", "--algo", "light"], "பெண்கள்\n")
    assert code == EX_OK
    assert out == "பெண்கள்\tபெண்\n"
    assert err == ""


def test_stem_empty_stdin():
    code, out, _ = run_cli(["stem", "--algo", "light"], "")
    assert code == EX_OK
    assert out == ""


def test_stem_preserves_line_count_and_order():
    code, out, _ = run_cli(["stem"], "மரங்கள்\n\nபடி\nhello\n")
    assert code == EX_OK
    assert out.split("\n")[:-1] == [
        "மரங்கள்\tமரம்",
        "",
        "படி\tபடி",
        "hello\thello",
    ]


def test_stem_trace_lines_are_hash_prefixed():
    code, out, _ = run_cli(["stem", "--trace"], "மரங்கள்உக்கு\n")
    assert code == EX_OK
    lines = out.strip().split("\n")
    assert lines[0] == "மரங்கள்உக்கு\tமரம்"
    assert [l for l in lines[1:]] == [
        "# Case\tஉக்கு\t\tமரங்கள்",
        "# Plural\tங்கள்\tம்\tமரம்",
    ]


def test_stem_strip_algo():
    code, out, _ = run_cli(["stem", "--algo", "strip"], "படித்தேன்\n")
    assert code == EX_OK
    assert out == "படித்தேன்\tபடி\n"


def test_eval_from_stdin():
    code, out, _ = run_cli(["eval", "--algo", "light"], GOLD_TEXT)
    assert code == EX_OK
    assert out == "n_unique\t3\nn_correct\t3\naccuracy\t100.0\n"


def test_eval_from_file(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text(GOLD_TEXT + "படிsquash\tபடி\n", encoding="utf-8")
    code, out, _ = run_cli(["eval", "--gold", str(gold)])
    assert code == EX_OK
    assert "n_unique\t4" in out
    assert "n_correct\t3" in out
    assert "accuracy\t75.0" in out


def test_generate_then_eval_pipe():
    code, generated, _ = run_cli(
        ["generate", "--paradigm", "verb"], "படி\n"
    )
    assert code == EX_OK
    assert "படித்தேன்\tபடி" in generated
    code, out, _ = run_cli(["eval", "--algo", "light"], generated)
    assert code == EX_OK
    assert "accuracy\t100.0" in out


def test_generate_noun_paradigm():
    code, out, _ = run_cli(["generate", "--paradigm", "noun"], "மரம்\n")
    assert code == EX_OK
    assert "மரங்கள்\tமரம்" in out
    assert len(out.strip().split("\n")) == 18


def test_generate_rejects_short_root():
    code, _, err = run_cli(["generate", "--paradigm", "noun"], "மரம்\nப\n")
    assert code == EX_DATA
    assert "line 2" in err


def test_compare_csv_output():
    code, out, _ = run_cli(
        ["compare", "--chunks", "2,3", "--format", "csv"], GOLD_TEXT
    )
    assert code == EX_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("n_words,")
    assert lines[1].split(",")[0] == "2"
    assert lines[2].split(",")[0] == "3"
    assert lines[3].startswith("avg,,,")


def test_compare_default_single_chunk():
    code, out, _ = run_cli(["compare"], GOLD_TEXT)
    assert code == EX_OK
    assert len(out.strip().split("\n")) == 3  # header + row + avg


def test_compare_chunk_exceeding_gold_is_data_error():
    code, _, err = run_cli(["compare", "--chunks", "5"], GOLD_TEXT)
    assert code == EX_DATA
    assert "5" in err


def test_compare_malformed_chunks_is_usage_error():
    code, _, err = run_cli(["compare", "--chunks", "2;3"], GOLD_TEXT)
    assert code == EX_USAGE
    assert "chunks" in err


@pytest.mark.parametrize("chunks", ["0", "10,10", "20,10"])
def test_compare_chunks_not_positive_ascending_is_usage_error(chunks):
    gold = GOLD_TEXT * 10
    code, out, err = run_cli(["compare", "--chunks", chunks], gold)
    assert (code, out) == (EX_USAGE, "")
    assert "--chunks" in err


def test_rules_validate_builtin_ok():
    code, out, _ = run_cli(["rules-validate"])
    assert code == EX_OK
    assert out.startswith("ok: ")


def test_rules_validate_conflict(tmp_path):
    bad = tmp_path / "rules.tsv"
    bad.write_text(
        "Plural\tகள்\t\t2\t\nPlural\tகள்\t\t2\t\n", encoding="utf-8"
    )
    code, out, _ = run_cli(["rules-validate", str(bad)])
    assert code == EX_RULE_CONFLICT
    assert "lines 1 and 2" in out


def test_rules_validate_malformed(tmp_path):
    bad = tmp_path / "rules.tsv"
    bad.write_text("nonsense\n", encoding="utf-8")
    code, out, _ = run_cli(["rules-validate", str(bad)])
    assert code == EX_DATA
    assert "line 1" in out


def test_rules_validate_ignores_whitespace_around_pattern(tmp_path):
    plain = "Case\tஉக்கு\t\t2\t\n"
    padded = "Case\t உக்கு \t \t2\t\n"
    outputs = []
    for name, text in [("plain", plain), ("padded", padded),
                       ("both", plain + padded), ("blank", "Case\t \t\t2\t\n")]:
        path = tmp_path / f"{name}.tsv"
        path.write_text(text, encoding="utf-8")
        outputs.append(run_cli(["rules-validate", str(path)])[:2])
    assert outputs == [
        (EX_OK, "ok: 1 rules\n"),
        (EX_OK, "ok: 1 rules\n"),
        (
            EX_RULE_CONFLICT,
            "duplicate rule for class Case pattern 'உக்கு': lines 1 and 2\n",
        ),
        (EX_DATA, "line 1: empty pattern\n"),
    ]


def test_rules_validate_unknown_class_named_like_a_conflict(tmp_path):
    bad = tmp_path / "rules.tsv"
    bad.write_text("duplicate rule\tx\t\t1\t\n", encoding="utf-8")
    code, out, _ = run_cli(["rules-validate", str(bad)])
    assert code == EX_DATA
    assert out == "line 1: unknown suffix class 'duplicate rule'\n"


def test_custom_rules_flag(tmp_path):
    rules = tmp_path / "rules.tsv"
    rules.write_text("Case\ts\t\t1\t\n", encoding="utf-8")
    code, out, _ = run_cli(["stem", "--rules", str(rules)], "cats\n")
    assert code == EX_OK
    assert out == "cats\tcat\n"


def test_unreadable_file_exits_66():
    code, _, err = run_cli(["eval", "--gold", "/no/such/file.tsv"])
    assert code == EX_NOINPUT
    assert "/no/such/file.tsv" in err


def test_malformed_gold_exits_65():
    code, _, err = run_cli(["eval"], "justoneword\n")
    assert code == EX_DATA
    assert "line 1" in err


def test_empty_gold_exits_65():
    # No data line, whether the gold is empty or only comments and blanks.
    for text in ("", "\ufeff# only\n\n \r\n# comments\n# only\n"):
        for command in ("eval", "compare"):
            assert run_cli([command], text) == (
                EX_DATA, "", "tamilstem: error: <stdin>: empty gold standard\n"
            )


@pytest.mark.parametrize(
    "argv",
    [
        ["stem", "--algo", "bogus"],
        ["unknown-command"],
        [],
        ["compare", "--format", "yaml"],
        ["generate"],  # --paradigm is required
    ],
)
def test_bad_flags_exit_64(argv):
    streams = sys.stdout, sys.stderr
    code, out, err = run_cli(argv, "")
    assert code == EX_USAGE
    assert "usage" in err.lower()
    assert (out, err[:16]) == ("", "usage: tamilstem")
    assert sys.stdout is streams[0] and sys.stderr is streams[1]
    # The failed write reaches `entry`, which exits 141 for it.
    with pytest.raises(BrokenPipeError):
        main(argv, io.StringIO(), io.StringIO(), _BrokenPipe())


def test_output_is_deterministic():
    first = run_cli(["compare", "--chunks", "2,3", "--format", "json"], GOLD_TEXT)
    second = run_cli(["compare", "--chunks", "2,3", "--format", "json"], GOLD_TEXT)
    assert first == second


@pytest.mark.skipif(
    shutil.which("tamilstem") is None, reason="console script not on PATH"
)
def test_console_script_runs():
    proc = subprocess.run(
        ["tamilstem", "stem"],
        input="பெண்கள்\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "பெண்கள்\tபெண்\n"


_ENTRY = "from tamilstem.cli import entry; entry()"


def _entry_env(io_encoding: str, buffered: bool = True) -> dict:
    """The caller's environment with this checkout's package, the stdio
    encoding and the stdio buffering set, so no test inherits them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tamilstem.__file__))
    env["PYTHONIOENCODING"] = io_encoding
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_entry(
    argv, data: bytes, io_encoding: str, launch=("-c", _ENTRY), buffered=True
):
    """Run the console entry point in a fresh interpreter on raw bytes;
    *launch* names the code to run as ``python`` options."""
    return subprocess.run(
        [sys.executable, *launch, *argv],
        input=data,
        capture_output=True,
        timeout=60,
        env=_entry_env(io_encoding, buffered),
    )


_BAD_UTF8 = "மரம்\n".encode() + b"ab\xff\xfecd\n"
_BAD_GOLD = "மரம்\tமரம்\n".encode() + b"\xff\tx\n"
# A letter cut off after two of its three bytes, then a space that
# `strip` drops: the line, not the token, gives the decoder's reason.
_CUT_OFF = b"\xe0\xae \n"


@pytest.mark.parametrize(
    "argv,data,io_encoding,message",
    [
        pytest.param(argv, data, io_encoding, message, id=name + cut + suffix)
        for io_encoding, suffix in (
            ("utf-8:surrogateescape", ""),
            ("utf-8:strict", "-strict"),
        )
        for name, argv, bad in (
            ("stem", ["stem"], _BAD_UTF8),
            ("eval", ["eval"], _BAD_GOLD),
            ("compare", ["compare"], _BAD_GOLD),
            ("generate", ["generate", "--paradigm", "noun"], _BAD_UTF8),
        )
        for cut, data, message in (
            ("", bad, "line 2: not valid UTF-8 (invalid start byte)"),
            ("-cut-off", _CUT_OFF,
             "line 1: not valid UTF-8 (invalid continuation byte)"),
        )
    ],
)
def test_undecodable_stdin_exits_65_with_line(
    argv, data, io_encoding, message
):
    # The console script decodes stdin the same way whatever the locale
    # chose, so a strict PYTHONIOENCODING changes nothing, and every
    # command reports the bad byte as a `--gold` file of it would be.
    proc = run_entry(argv, data, io_encoding)
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == EX_DATA, err
    assert err == f"tamilstem: error: <stdin>: {message}\n"
    if argv == ["stem"] and data == _BAD_UTF8:
        assert proc.stdout.decode() == "மரம்\tமரம்\n"


def test_bom_on_stdin_is_dropped_in_a_subprocess():
    proc = run_entry(["stem"], "﻿பெண்கள்\n".encode(), "utf-8")
    assert proc.returncode == EX_OK
    assert proc.stdout.decode() == "பெண்கள்\tபெண்\n"


@pytest.mark.parametrize("io_encoding", ["latin-1", "ascii"])
def test_stdio_is_utf8_whatever_the_locale(io_encoding):
    proc = run_entry(["stem"], "மரங்கள்\n".encode(), io_encoding)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (
        EX_OK, "மரங்கள்\tமரம்\n", b""
    )


_CONFLICTING_GOLD = (GOLD_TEXT + "பெண்கள்\tபெண்கள்\n").encode()


def _closing_pipe(
    argv, source, fd: int, launch=("-c", _ENTRY), buffered=True
):
    """Run *argv* as `run_entry` does, on the file *source*, with file
    descriptor *fd* a pipe whose reader leaves: after reading one line
    of stdout, or before the child starts for stderr.  Reading from a
    file, the test never writes to a dead pipe itself.  Return the exit
    code and what the other output stream got."""
    read, write = os.pipe()
    if fd == 2:
        os.close(read)  # the reader leaves before anything is written
    with open(source, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, *launch, *argv],
            stdin=stdin,
            stdout=write if fd == 1 else subprocess.PIPE,
            stderr=write if fd == 2 else subprocess.PIPE,
            env=_entry_env("utf-8", buffered),
        )
    os.close(write)
    if fd == 1:
        with open(read, "rb") as reader:
            assert reader.readline()
    out, err = proc.communicate(timeout=60)
    return proc.returncode, err if fd == 1 else out


@pytest.mark.parametrize(
    "argv,data,fd",
    [
        # More output than a pipe holds, so writes go on after the
        # reader has gone.
        (["stem"], "மரங்கள்\n".encode() * 10_000, 1),
        (["generate", "--paradigm", "verb"], "படி\n".encode() * 2_000, 1),
        # A message to a stderr whose reader left before it was written.
        (["stem", "--algo", "x"], b"", 2),
        (["stem", "--rules", "/nonexistent"], b"", 2),
        (["eval"], b"bad\n", 2),
        (["compare", "--format", "csv"], _CONFLICTING_GOLD, 2),
        (["stem"], b"a\tb\n", 2),
    ],
    ids=[
        "stem",
        "generate",
        "stderr-usage-error",
        "stderr-missing-rules",
        "stderr-eval-error",
        "stderr-compare-warning",
        "stderr-stem-error",
    ],
)
def test_closed_output_pipe_exits_141_quietly(argv, data, fd, tmp_path):
    source = tmp_path / "input"
    source.write_bytes(data)
    for buffered in (True, False):
        assert _closing_pipe(argv, source, fd, buffered=buffered) == (
            EX_PIPE, b""
        ), buffered


@pytest.mark.parametrize(
    "argv,data,fd",
    [
        (["stem"], "மரங்கள்\n".encode() * 200_000, 1),
        (["generate", "--paradigm", "verb"], "படி\n".encode() * 2_000, 1),
        (["stem", "--algo", "x"], b"", 2),
    ],
    ids=["stem", "generate", "stderr-usage-error"],
)
def test_closed_pipe_of_python_m_tamilstem_exits_141_quietly(
    argv, data, fd, tmp_path
):
    # A reader that leaves early (`head`) closes tamilstem's output pipe,
    # and ``python -B -m tamilstem`` then exits 141 (128 + SIGPIPE, as
    # `cat` does) with nothing on stderr.  Each command writes far more
    # than a pipe holds, so its writes fail after the reader has gone.
    # A usage error written to a stderr pipe whose reader left before
    # the start exits 141 as well.
    source = tmp_path / "input"
    source.write_bytes(data)
    launch = ("-B", "-m", "tamilstem")
    assert _closing_pipe(argv, source, fd, launch) == (EX_PIPE, b"")


def test_closed_stdin_exits_66():
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, "stem"],
        stdin=subprocess.DEVNULL,
        preexec_fn=lambda: os.close(0),
        capture_output=True,
        timeout=60,
        env=_entry_env("utf-8"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
        EX_NOINPUT, b"", "tamilstem: error: cannot read <stdin>: it is closed\n"
    )


def _run_entry_closing(fd: int, argv, data: bytes, buffered: bool):
    """`run_entry` with file descriptor *fd* closed before exec."""
    return subprocess.run(
        [sys.executable, "-c", _ENTRY, *argv],
        input=data,
        preexec_fn=lambda: os.close(fd),
        capture_output=True,
        timeout=60,
        env=_entry_env("utf-8", buffered),
    )


@pytest.mark.parametrize(
    "argv,data",
    [(["--version"], b""), (["stem"], "மரங்கள்\n".encode())],
    ids=["version", "stem"],
)
def test_closed_stdout_exits_141_quietly(argv, data):
    for buffered in (True, False):
        proc = _run_entry_closing(1, argv, data, buffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EX_PIPE, b"", b""
        ), buffered


@pytest.mark.parametrize(
    "argv,data",
    [
        (["compare", "--format", "csv"], _CONFLICTING_GOLD),
        (["stem"], b"ab\tc\n"),
        (["stem", "--algo", "x"], b""),
    ],
    ids=["compare-warning", "stem-error", "usage-error"],
)
def test_closed_stderr_drops_messages_only(argv, data):
    for buffered in (True, False):
        shown = run_entry(argv, data, "utf-8", buffered=buffered)
        assert shown.stderr  # the message a closed stderr must drop
        proc = _run_entry_closing(2, argv, data, buffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            shown.returncode, shown.stdout, b""
        ), buffered


@pytest.mark.parametrize("module", ["tamilstem", "tamilstem.cli"])
def test_python_m_runs_the_cli(module):
    launch = ("-m", module)
    version = run_entry(["--version"], b"", "utf-8", launch)
    assert (version.returncode, version.stdout, version.stderr) == (
        EX_OK, b"tamilstem 0.1.0\n", b""
    )
    stem = run_entry(["stem"], "பெண்கள்\n".encode(), "utf-8", launch)
    assert (stem.returncode, stem.stdout.decode(), stem.stderr) == (
        EX_OK, "பெண்கள்\tபெண்\n", b""
    )
    # The same stdout as `main` run in this process.
    assert version.stdout.decode() == run_cli(["--version"])[1]
    assert stem.stdout.decode() == run_cli(["stem"], "பெண்கள்\n")[1]


@pytest.mark.parametrize(
    "argv,text",
    [
        (["stem"], "மரம்\nக\udcffள்\n"),
        (["eval"], "மரம்\tமரம்\nக\udcff\tக\n"),
        (["compare"], "மரம்\tமரம்\nக\tக\udcff\n"),
        (["generate", "--paradigm", "verb"], "படி\nப\udcffடி\n"),
    ],
    ids=["stem", "eval", "compare", "generate"],
)
def test_lone_surrogate_on_stdin_exits_65(argv, text):
    code, _, err = run_cli(argv, text)
    assert code == EX_DATA
    assert err.startswith("tamilstem: error: <stdin>: line 2: ")


@pytest.mark.parametrize("option", ["--gold", "--rules"])
def test_undecodable_file_exits_65_with_path_and_line(tmp_path, option):
    path = tmp_path / "input.tsv"
    path.write_bytes("# ok\n".encode() + b"\xc3\x28\n")
    argv = ["eval", option, str(path)]
    code, _, err = run_cli(argv, GOLD_TEXT)
    assert code == EX_DATA
    assert err.startswith(f"tamilstem: error: {path}: line 2: not valid UTF-8")


def test_undecodable_rule_file_fails_rules_validate(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_bytes(b"\xff\n")
    code, out, err = run_cli(["rules-validate", str(path)])
    assert code == EX_DATA
    assert out == ""
    assert f"{path}: line 1: not valid UTF-8" in err


def test_bom_is_dropped_from_stdin_and_files(tmp_path):
    _, out, _ = run_cli(["stem", "--trace"], "﻿மரங்கள்\n")
    assert out == "மரங்கள்\tமரம்\n# Plural\tங்கள்\tம்\tமரம்\n"
    _, out, _ = run_cli(["generate", "--paradigm", "verb"], "﻿படி\n")
    assert out.startswith("படித்தேன்\tபடி\n")
    assert run_cli(["eval"], "﻿" + GOLD_TEXT)[1].endswith("100.0\n")
    gold = tmp_path / "gold.tsv"
    gold.write_bytes(b"\xef\xbb\xbf" + GOLD_TEXT.encode())
    rules = tmp_path / "rules.tsv"
    rules.write_bytes(b"\xef\xbb\xbfCase\ts\t\t1\t\n")
    code, out, _ = run_cli(["eval", "--gold", str(gold)])
    assert (code, out.endswith("100.0\n")) == (EX_OK, True)
    code, out, _ = run_cli(["stem", "--rules", str(rules)], "cats\n")
    assert (code, out) == (EX_OK, "cats\tcat\n")
    assert run_cli(["rules-validate", str(rules)])[1] == "ok: 1 rules\n"
    rules.write_bytes(b"\xef\xbb\xbfCase\ts\t\t1\t\r\n# x\r\n")
    assert run_cli(["rules-validate", str(rules)])[1] == "ok: 1 rules\n"


def test_rules_validate_rejects_a_dead_pattern(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("Case\tஐ\t\t1\t\nCase\tா\t\t1\t\n", encoding="utf-8")
    code, out, _ = run_cli(["rules-validate", str(path)])
    assert code == EX_DATA
    assert out.startswith("line 2: pattern 'ா' starts with a vowel sign")


# Rules for --rules runs: a Tamil and a romanized case ending, each
# chained to a plural rule, so traces can have two steps.
_CUSTOM_RULES = (
    "Case\tஉக்கு\t\t1\tPlural\n"
    "Plural\tங்கள்\tம்\t1\t\n"
    "Case\ting\t\t1\tPlural\n"
    "Plural\ts\t\t1\t\n"
)
# The same with a merging replacement: `லம்` gives way to the vowel sign
# `ா`, which joins the letter before it, so a walk over a token's text
# hands over to the walk over its letters after `உக்கு` is cut.
_MERGING_RULES = _CUSTOM_RULES + "Plural\tலம்\tா\t2\t\n"
_MERGING_WORDS = "படலம்உக்கு\nபடலங்கள்உக்கு\r\nபடலம்\n"


def _stem_oracle(algo, trace, rules, text):
    """``stem`` output built line by line, with no memo."""
    engine = ENGINES[algo]
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    out = []
    for i, line in enumerate(lines):
        token = (line.removeprefix("\ufeff") if i == 0 else line).strip()
        if not token:
            out.append("\n")
            continue
        result = engine(token, rules)
        out.append(f"{token}\t{result.stem.text}\n")
        if trace:
            out.extend(
                f"# {s.rule.klass}\t{s.rule.pattern.text}\t"
                f"{s.rule.replacement.text}\t{s.after.text}\n"
                for s in result.trace
            )
    return "".join(out)


def _zipf_stream(seed, n_lines):
    """Running text: heavy repeats, blank lines, a BOM, CRLF endings and
    random fuzz words."""
    rng = random.Random(seed)
    vocab = sorted({s.text for s, _ in build_corpus()})[:300]
    vocab += ["cats", "catsing", "singing", "x"]
    weights = [1 / (rank + 1) for rank in range(len(vocab))]
    letters = [chr(c) for c in range(0x0B82, 0x0BD8)] + list("abgins ")
    lines = []
    for _ in range(n_lines):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["", "  ", "\t"]))
        elif roll < 0.15:
            lines.append("".join(rng.choices(letters, k=rng.randint(1, 9))))
        else:
            lines.append(rng.choices(vocab, weights)[0])
    ends = [rng.choice(["\n", "\r\n"]) for _ in lines]
    return "\ufeff" + "".join(l + e for l, e in zip(lines, ends))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("algo", ["light", "strip"])
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("custom", [False, True, "merging"])
def test_stem_matches_a_line_by_line_oracle(tmp_path, seed, algo, trace, custom):
    text = _zipf_stream(seed, 600)
    argv = ["stem", "--algo", algo] + (["--trace"] if trace else [])
    rules = builtin_rules()
    if custom:
        rules_text = _CUSTOM_RULES
        if custom == "merging":
            rules_text = _MERGING_RULES
            text += _MERGING_WORDS
        path = tmp_path / "rules.tsv"
        path.write_text(rules_text, encoding="utf-8")
        argv += ["--rules", str(path)]
        rules = parse_rules(rules_text)
    code, out, err = run_cli(argv, text)
    assert (code, err) == (EX_OK, "")
    assert out == _stem_oracle(algo, trace, rules, text)
    if custom == "merging":  # each engine hands over after a text step
        assert "படலம்உக்கு\tபடா\n" in out


def _count_walks(monkeypatch):
    """Count the walks ``stem`` runs per token: its one call site,
    ``_walk_text``."""
    calls = collections.Counter()

    def counting(rules, token, *args, walk=cli._walk_text):
        calls[token] += 1
        return walk(rules, token, *args)

    monkeypatch.setattr(cli, "_walk_text", counting)
    return calls


def test_stem_stems_each_distinct_token_once(monkeypatch):
    calls = _count_walks(monkeypatch)
    text = _zipf_stream(4, 400)
    memo_size = cli._STEM_MEMO_SIZE
    for argv in (["stem"], ["stem", "--trace"]):
        calls.clear()
        monkeypatch.setattr(cli, "_STEM_MEMO_SIZE", memo_size)
        code, out, _ = run_cli(argv, text)
        assert code == EX_OK
        assert calls and set(calls.values()) == {1}

        calls.clear()
        monkeypatch.setattr(cli, "_STEM_MEMO_SIZE", 2)
        code, bounded, _ = run_cli(argv, text)
        assert (code, bounded) == (EX_OK, out)
        assert max(calls.values()) > 1


@pytest.mark.parametrize("algo", sorted(ENGINES))
def test_stem_walks_each_token_with_one_walk(monkeypatch, algo):
    tokens = ("கணினி", "computer", "மரங்கள்")
    text = "கணினி\ncomputer\nமரங்கள்\nகணினி\nமரங்கள்\n"
    calls = _count_walks(monkeypatch)
    for trace in (False, True):
        calls.clear()
        expected = _stem_oracle(algo, trace, builtin_rules(), text)
        argv = ["stem", "--algo", algo] + (["--trace"] if trace else [])
        code, out, err = run_cli(argv, text)
        assert (code, out, err) == (EX_OK, expected, "")
        assert calls == dict.fromkeys(tokens, 1)


def test_plain_stem_segments_no_fast_token(monkeypatch):
    # NFC tokens in the fast range, which rules match and do not match;
    # then a non-NFC spelling (ெ + ா is ொ) and a mark outside that range.
    # Traced or not, only the latter are segmented.
    fast = ("மரங்கள்உக்கு", "படித்தேன்", "கணினி", "computer")
    slow = ("மரங்கெ\u0bbeள்", "cafe\u0301s")
    texts = {tokens: "".join(t + "\n" for t in tokens) for tokens in (fast, slow)}
    expected = {
        (tokens, trace): _stem_oracle("light", trace, builtin_rules(), text)
        for tokens, text in texts.items()
        for trace in (False, True)
    }
    calls = _count_walks(monkeypatch)
    segmented = collections.Counter()
    for module, name in (
        (graphemes, "word"),
        (graphemes, "segment"),
        (stemmers, "word"),
        (rules_module, "word"),
    ):

        def counting(text, name=name, original=getattr(module, name)):
            segmented[name] += 1
            return original(text)

        monkeypatch.setattr(module, name, counting)
    for tokens, trace in expected:
        calls.clear()
        segmented.clear()
        argv = ["stem"] + (["--trace"] if trace else [])
        code, out, err = run_cli(argv, texts[tokens])
        assert (code, out, err) == (EX_OK, expected[tokens, trace], "")
        assert calls == dict.fromkeys(tokens, 1)
        assert bool(segmented) == (tokens == slow)


def _count_trace_objects(monkeypatch):
    """Count the `StemStep`s and `StemResult`s the walks build, a
    result whose trace is built on first read among them."""
    built = collections.Counter()
    for attr in ("StemStep", "StemResult", "_TextResult"):
        cls = getattr(stemmers, attr)

        class Counting(cls):
            __slots__ = ()

            def __init__(self, *fields, name=cls.__name__):
                built[name] += 1
                super().__init__(*fields)

        monkeypatch.setattr(stemmers, attr, Counting)
    return built


def test_untraced_stem_and_letter_walks_build_no_trace(monkeypatch):
    text = _zipf_stream(5, 300)
    expected = {a: _stem_oracle(a, False, builtin_rules(), text) for a in ENGINES}
    # A traced `stem` records its steps as (rule, text) pairs, so over
    # tokens it walks as text it builds no trace objects either.
    fast = "".join(
        line + "\n"
        for line in text.splitlines()
        if graphemes._NOT_FAST_NFC.search(line) is None
    )
    traced = _stem_oracle("light", True, builtin_rules(), fast)
    surfaces = [s.text for s, _ in build_corpus()]
    built = _count_trace_objects(monkeypatch)
    for algo in sorted(ENGINES):
        code, out, _ = run_cli(["stem", "--algo", algo], text)
        assert (code, out) == (EX_OK, expected[algo])
    changed = sum(
        stemmers._walk(builtin_rules(), s, masks).text != s
        for masks in stemmers._ENGINE_MASKS.values()
        for s in surfaces
    )
    assert changed and not built
    code, out, _ = run_cli(["stem", "--trace"], fast)
    assert (code, out) == (EX_OK, traced)
    assert "\n# " in traced and not built
    # The counting classes do see what the letter walks build.
    tamilstem.light_stem(graphemes.word("மரங்கள்"))
    assert built == {"StemStep": 1, "StemResult": 1}
    # A `str` walked as text builds its result's step on the first read
    # of the trace, and only then.
    result = tamilstem.light_stem("மரங்கள்")
    assert result.stem.text == "மரம்"
    assert built == {"StemStep": 1, "StemResult": 2}
    (step,) = result.trace
    assert built == {"StemStep": 2, "StemResult": 2}
    assert result.trace[0] is step
    assert built == {"StemStep": 2, "StemResult": 2}


def test_compare_builds_no_stem_result(monkeypatch):
    # Besides the bundled gold: roots that end in a rule's pattern, whose
    # forms part the engines, so `_both` walks light a second time.
    confusable = [
        tamilstem.GoldEntry(surface, stem)
        for rule in builtin_rules().rules
        for paradigm in PARADIGMS
        for surface, stem in tamilstem.generate_forms(
            "பட" + rule.pattern.text, paradigm
        )
    ]
    golds = [list(tamilstem.bundled_gold()), confusable]
    texts = [
        "".join(f"{e.surface.text}\t{e.expected_stem.text}\n" for e in gold)
        for gold in golds
    ]
    argv = ["compare", "--format", "json"]
    expected = [run_cli(argv, text) for text in texts]
    built = _count_trace_objects(monkeypatch)
    with pytest.warns(tamilstem.GoldConflictWarning):
        reports = [tamilstem.compare(gold, [len(gold)]) for gold in golds]
    assert [run_cli(argv, text) for text in texts] == expected
    (row,) = reports[1].rows
    assert row.n_correct_light > row.n_correct_strip
    # `_both` walks text: strip's steps, which show where the engines
    # part, are (rule, text) pairs.
    assert not built
    tamilstem.evaluate(tamilstem.light_stem, golds[0])
    assert built["StemStep"] and built["StemResult"]


def test_generate_builds_one_word_per_root_line(monkeypatch):
    # CLI `generate` reads each root with `word`, and joins its forms as
    # text from the table `generate_forms` joins as letters: it builds
    # one `GraphemeWord` per root line and none per form.
    roots = "".join(f"{root.text}\n" for root, _ in default_roots())
    expected = {
        paradigm: "".join(
            f"{surface.text}\t{stem.text}\n"
            for root, _ in default_roots()
            for surface, stem in tamilstem.generate_forms(root, paradigm)
        )
        for paradigm in PARADIGMS
    }
    built = collections.Counter()

    def counting(self, *fields, original=graphemes.GraphemeWord.__init__):
        built["GraphemeWord"] += 1
        original(self, *fields)

    monkeypatch.setattr(graphemes.GraphemeWord, "__init__", counting)
    for paradigm in PARADIGMS:
        built.clear()
        argv = ["generate", "--paradigm", paradigm]
        assert run_cli(argv, roots) == (EX_OK, expected[paradigm], "")
        assert built == {"GraphemeWord": roots.count("\n")}
    # The counter does see the forms `generate_forms` builds.
    built.clear()
    tamilstem.generate_forms("படி", "verb")
    assert built == {"GraphemeWord": 1 + 41}


def _count_gold_work(monkeypatch):
    """Count the `word`, `segment` and `normalize` calls and the
    `GoldEntry`s that reading and scoring gold make."""
    counts = collections.Counter()
    for module, name in (
        (graphemes, "word"),
        (graphemes, "segment"),
        (graphemes, "normalize"),
        (stemmers, "word"),
        (rules_module, "word"),
        (evaluation, "word"),
        (evaluation, "normalize"),
    ):

        def counting(text, name=name, original=getattr(module, name)):
            counts[name] += 1
            return original(text)

        monkeypatch.setattr(module, name, counting)

    class Counting(evaluation.GoldEntry):
        __slots__ = ()

        def __init__(self, *fields):
            counts["GoldEntry"] += 1
            super().__init__(*fields)

    monkeypatch.setattr(evaluation, "GoldEntry", Counting)
    return counts


def _spy_letter_paths(monkeypatch, counts):
    """Count the calls to `load_gold`, `evaluate` and the letter
    engines, which score gold by segmenting it."""
    for module, name in (
        (evaluation, "load_gold"),
        (evaluation, "evaluate"),
        (stemmers, "light_stem"),
        (stemmers, "strip_stem"),
    ):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
        if original in stemmers.ENGINES.values():
            monkeypatch.setitem(stemmers.ENGINES, name.split("_")[0], counting)


def test_compare_segments_no_fast_gold_line(monkeypatch):
    # CLI `compare` and `eval` score the text pairs the gold parser
    # reads.  Over the bundled gold and `generate` output, NFC and in the
    # fast range, they segment and normalize nothing, build no
    # `GoldEntry` and reach neither `load_gold`, `evaluate` nor a letter
    # engine.  A non-NFC line (ெ + ா is ொ; e + combining acute is é) is
    # normalized, one call per field, and not segmented.
    bundled = "".join(
        f"{e.surface.text}\t{e.expected_stem.text}\n"
        for e in tamilstem.bundled_gold()
    )
    generated = "".join(
        run_cli(["generate", "--paradigm", paradigm], roots)[1]
        for paradigm, roots in (("verb", "படி\nஓடு\n"), ("noun", "மரம்\n"))
    )
    slow = "மரங்கெ\u0bbeள்\tமரம்\ncafe\u0301s\tcafe\u0301\n"
    texts = (bundled, generated, slow)
    assert not any(graphemes._NOT_FAST_NFC.search(t) for t in texts[:2])
    argvs = [["compare", "--format", "csv"]]
    argvs += [["eval", "--algo", algo] for algo in sorted(ENGINES)]
    expected = [[run_cli(argv, text) for argv in argvs] for text in texts]
    load_gold = evaluation.load_gold
    counts = _count_gold_work(monkeypatch)
    _spy_letter_paths(monkeypatch, counts)
    for text, outputs in zip(texts, expected):
        for argv, output in zip(argvs, outputs):
            counts.clear()
            assert run_cli(argv, text) == output
            assert counts == ({"normalize": 4} if text is slow else {})

    # `load_gold` segments each distinct field text once and builds one
    # entry per distinct pair.  It reads the parser's NFC fields, so the
    # slow text's fields are normalized once each and none is segmented.
    for text in texts:
        counts.clear()
        gold = load_gold(text)
        lines = set(text.splitlines())
        fields = {field for line in lines for field in line.split("\t")}
        assert counts["word"] == len(fields)
        assert counts["GoldEntry"] == len(lines) == len(set(gold))
        assert counts["segment"] == 0
        assert counts["normalize"] == (4 if text is slow else 0)


class _CountingPattern:
    """A compiled pattern that counts its `search` calls in *counts*."""

    def __init__(self, pattern, counts, name):
        self.pattern, self.counts, self.name = pattern, counts, name

    def search(self, *args):
        self.counts[self.name] += 1
        return self.pattern.search(*args)


def _library_output(fmt, text):
    """What CLI `compare --format fmt` should print for gold *text*,
    from library `compare` over `load_gold`, whose walks scan every
    surface: (exit code, stdout, stderr)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", evaluation.GoldConflictWarning)
        gold = tamilstem.load_gold(text)
        report = tamilstem.compare(gold, [len(gold)])
    return (
        EX_OK,
        tamilstem.render(report, fmt),
        "".join(f"tamilstem: warning: {w.message}\n" for w in caught),
    )


def test_compare_scans_each_fast_gold_line_once(monkeypatch):
    # The gold parser scans each distinct line for text outside the fast
    # range, and a normalized surface once more.  Where it finds none,
    # CLI `compare`'s walks do not scan the surfaces again, light's
    # second walk included (roots that end in a rule's pattern part the
    # engines).  One line decomposed to NFD (ோ is ே + ா) normalizes to
    # fast text, so they still scan nothing.  A line whose NFC is still
    # outside that range (Hangul, here given in NFD) makes them scan
    # every surface they walk.  Reports and stderr, conflict warnings
    # included, are those of library `compare`.
    roots = {
        "verb": "படி\nஓடு\n",
        "noun": "மரம்\n"
        + "".join(f"பட{r.pattern.text}\n" for r in builtin_rules().rules),
    }
    generated = "".join(
        run_cli(["generate", "--paradigm", paradigm], text)[1]
        for paradigm, text in roots.items()
    )
    lines = generated.splitlines(keepends=True)
    middle = next(
        i for i in range(len(lines) // 2, len(lines))
        if unicodedata.normalize("NFD", lines[i]) != lines[i]
    )
    mixed = "".join(
        [*lines[:middle], unicodedata.normalize("NFD", lines[middle]),
         *lines[middle + 1:]]
    )
    foreign = "".join(
        [*lines[:middle], unicodedata.normalize("NFD", "가나\t가\n"),
         *lines[middle:]]
    )
    bundled = "".join(
        f"{e.surface.text}\t{e.expected_stem.text}\n"
        for e in tamilstem.bundled_gold()
    )
    expected = {
        (fmt, text): _library_output(fmt, text)
        for fmt in REPORT_FORMATS
        for text in (bundled, generated, mixed, foreign)
    }
    counts = collections.Counter()
    for module in (evaluation, stemmers, graphemes):
        monkeypatch.setattr(
            module,
            "_NOT_FAST_NFC",
            _CountingPattern(graphemes._NOT_FAST_NFC, counts, module.__name__),
        )
    surfaces = {line.split("\t")[0] for line in lines}
    for (fmt, text), output in expected.items():
        counts.clear()
        assert run_cli(["compare", "--format", fmt], text) == output
        scans = len(set(text.splitlines()))
        if text is foreign:
            assert counts["tamilstem.evaluation"] > scans
            assert counts["tamilstem.stemmers"] > len(surfaces)
        else:
            scans += text is mixed  # the normalized surface
            assert counts == {"tamilstem.evaluation": scans}
    assert expected["csv", mixed] == expected["csv", generated]


@pytest.mark.parametrize("algo", sorted(ENGINES))
def test_eval_prints_its_engines_column_of_compare(algo):
    # `eval`'s three lines carry its engine's columns of `compare`'s
    # one-row report and what library `evaluate` over `load_gold`, the
    # letter walk, gives; stderr is `compare`'s.  The golds: roots that
    # end in a rule's pattern, where the engines part; the bundled gold
    # decomposed to NFD; a conflicting gold; the bundled gold.
    roots = "".join(f"பட{r.pattern.text}\n" for r in builtin_rules().rules)
    parting = "".join(
        run_cli(["generate", "--paradigm", paradigm], roots)[1]
        for paradigm in PARADIGMS
    )
    bundled = "".join(
        f"{e.surface.text}\t{e.expected_stem.text}\n"
        for e in tamilstem.bundled_gold()
    )
    golds = (
        parting,
        unicodedata.normalize("NFD", bundled),
        GOLD_TEXT + "பெண்கள்\tபெண்கள்\n",
        bundled,
    )
    columns, errors = [], []
    for text in golds:
        code, out, err = run_cli(["eval", "--algo", algo], text)
        cmp_code, report, cmp_err = run_cli(["compare", "--format", "csv"], text)
        assert code == cmp_code == EX_OK and err == cmp_err
        header, row, _avg = report.splitlines()
        column = dict(zip(header.split(","), row.split(",")))
        columns.append(column)
        errors.append(err)
        assert out == (
            f"n_unique\t{column['n_unique']}\n"
            f"n_correct\t{column['correct_' + algo]}\n"
            f"accuracy\t{column['acc_' + algo]}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", evaluation.GoldConflictWarning)
            n_unique, n_correct = tamilstem.evaluate(
                ENGINES[algo], tamilstem.load_gold(text)
            )
        accuracy = evaluation.accuracy(n_correct, n_unique)
        assert out == (
            f"n_unique\t{n_unique}\nn_correct\t{n_correct}\n"
            f"accuracy\t{evaluation.format_accuracy(accuracy)}\n"
        )
        assert err == "".join(
            f"tamilstem: warning: {w.message}\n" for w in caught
        )
    assert columns[0]["correct_strip"] != columns[0]["correct_light"]
    assert errors[2] and not errors[3]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("algo", sorted(ENGINES))
def test_stem_with_an_empty_rule_file_echoes_every_token(tmp_path, algo, trace):
    path = tmp_path / "empty.tsv"
    path.write_text("# no rules\n", encoding="utf-8")
    tokens = ["மரங்கள்", "கணினி", "cats", "ஶ்ரீ", "க\u200dஷ", "x", "மரங்கள்"]
    text = "\ufeff" + "\r\n".join(tokens) + "\n  \n\tகணினி \n"
    argv = ["stem", "--algo", algo, "--rules", str(path)]
    argv += ["--trace"] if trace else []
    code, out, err = run_cli(argv, text)
    assert (code, err) == (EX_OK, "")
    assert out == "".join(f"{t}\t{t}\n" for t in tokens) + "\nகணினி\tகணினி\n"
    # A token that is not NFC is still walked, so its stem is NFC.
    code, out, err = run_cli(argv, "க\u0bc6\u0bbe\n")
    assert (code, out, err) == (EX_OK, "க\u0bc6\u0bbe\t\u0b95\u0bca\n", "")


@pytest.mark.parametrize(
    "argv,text,out,what",
    [
        (["stem"], "மரங்கள்\nமரங்கள்\tபெண்கள்\n", "மரங்கள்\tமரம்\n", "word"),
        (
            ["stem", "--trace"],
            "மரங்கள்\nமரங்கள்\tபெண்கள்\n",
            "மரங்கள்\tமரம்\n# Plural\tங்கள்\tம்\tமரம்\n",
            "word",
        ),
        (["generate", "--paradigm", "noun"], "# roots\nமரம்\tபெண்\n", "", "root"),
    ],
    ids=["stem", "stem-trace", "generate"],
)
def test_inner_tab_exits_65(argv, text, out, what):
    code, got, err = run_cli(argv, text)
    assert (code, got) == (EX_DATA, out)
    assert err == f"tamilstem: error: <stdin>: line 2: tab inside a {what}\n"


def test_stem_error_names_the_first_line_of_a_bad_token():
    bad = "க\udcffள்"
    text = f"மரம்\nமரங்கள்\n{bad}\nமரம்\n{bad}\n"
    code, out, err = run_cli(["stem"], text)
    assert code == EX_DATA
    assert out == "மரம்\tமரம்\nமரங்கள்\tமரம்\n"
    assert err.startswith("tamilstem: error: <stdin>: line 3: ")


@pytest.mark.parametrize("argv", [["eval"], ["compare", "--format", "csv"]])
def test_conflict_warning_goes_to_the_given_stderr_on_every_run(argv, capsys):
    conflicting = GOLD_TEXT + "பெண்கள்\tபெண்கள்\n"
    _, clean_out, _ = run_cli(argv, GOLD_TEXT + "பெண்கள்\tபெண்\n")
    for _ in range(2):
        code, out, err = run_cli(argv, conflicting)
        assert (code, out) == (EX_OK, clean_out)
        assert err == (
            "tamilstem: warning: conflicting expected stems for duplicated "
            "surfaces (first occurrence wins): பெண்கள்\n"
        )
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_cli_gold_path_leaves_warnings_alone(monkeypatch, command):
    # The scorer hands its conflict back, and the CLI prints it: neither
    # `warnings.warn` nor `warnings.catch_warnings` is called, so a
    # warnings filter changes nothing.
    conflicting = GOLD_TEXT + "பெண்கள்\tபெண்கள்\n"
    calls = []

    def spy(name):
        real = getattr(warnings, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return recording

    with monkeypatch.context() as patched:
        for name in ("warn", "catch_warnings"):
            patched.setattr(warnings, name, spy(name))
        code, out, err = run_cli([command], conflicting)
    assert (code, calls) == (EX_OK, [])
    assert err == (
        "tamilstem: warning: conflicting expected stems for duplicated "
        "surfaces (first occurrence wins): பெண்கள்\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command], conflicting) == (EX_OK, out, err)
        gold = tamilstem.load_gold(conflicting)
        with pytest.raises(evaluation.GoldConflictWarning, match="பெண்கள்"):
            tamilstem.compare(gold, [len(gold)])


_UNDECODABLE_GOLD = "பெண்கள்\tபெண்\n".encode() + b"\xff\t\xe0\xae\n"


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_undecodable_gold_reads_the_same_on_stdin_and_in_a_file(
    tmp_path, command
):
    path = tmp_path / "gold.tsv"
    path.write_bytes(_UNDECODABLE_GOLD)
    proc = run_entry([command], _UNDECODABLE_GOLD, "utf-8")
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout, err) == (
        EX_DATA,
        b"",
        "tamilstem: error: <stdin>: line 2: not valid UTF-8 "
        "(invalid start byte)\n",
    )
    assert run_cli([command, "--gold", str(path)]) == (
        EX_DATA, "", err.replace("<stdin>", str(path))
    )
    # In process, on the text `entry` would have read.
    text = _UNDECODABLE_GOLD.decode("utf-8", "surrogateescape")
    assert run_cli([command], text) == (EX_DATA, "", err)


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_stdin_gold_is_checked_for_bad_bytes_before_its_lines(
    tmp_path, command
):
    # A file is decoded before it is parsed, so its first bad byte is
    # reported even after a malformed line or in a comment; stdin gold
    # gets the same message.  A surrogate that no byte escapes to keeps
    # the parser's.
    path = tmp_path / "gold.tsv"
    for data, expected in (
        (b"one field\n" + _UNDECODABLE_GOLD,
         "line 3: not valid UTF-8 (invalid start byte)"),
        (b"# \xff\n", "line 1: not valid UTF-8 (invalid start byte)"),
        (b"# \xff\na\tb\n", "line 1: not valid UTF-8 (invalid start byte)"),
    ):
        path.write_bytes(data)
        text = data.decode("utf-8", "surrogateescape")
        for source, argv in (("<stdin>", []), (str(path), ["--gold", str(path)])):
            assert run_cli([command, *argv], text) == (
                EX_DATA, "", f"tamilstem: error: {source}: {expected}\n"
            )
    assert run_cli([command], "மரம்\tமரம்\nக\ud800\tக\n") == (
        EX_DATA,
        "",
        "tamilstem: error: <stdin>: line 2: malformed text: lone surrogate "
        "at offset 1\n",
    )


def test_undecodable_generate_root_reads_as_stem_reports_it():
    data = "படி\n".encode() + b"\xff\n"
    generated = run_entry(["generate", "--paradigm", "verb"], data, "utf-8")
    stemmed = run_entry(["stem"], data, "utf-8")
    err = generated.stderr.decode()
    assert generated.returncode == stemmed.returncode == EX_DATA
    assert err == stemmed.stderr.decode() == (
        "tamilstem: error: <stdin>: line 2: not valid UTF-8 "
        "(invalid start byte)\n"
    )
    expected = run_cli(["generate", "--paradigm", "verb"], "படி\n")[1]
    assert generated.stdout.decode() == expected


def _tamilstem(argv, stdin, stdout):
    """Start ``python -B -m tamilstem`` with *argv* in a fresh
    interpreter, reading *stdin* and writing *stdout*; stderr is
    dropped."""
    return subprocess.Popen(
        [sys.executable, "-B", "-m", "tamilstem", *argv],
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.DEVNULL,
        env=_entry_env("utf-8"),
    )


def test_compare_agrees_with_eval_where_the_engines_part(tmp_path):
    # `compare` walks each surface's text once for both engines, and
    # walks light again only where they part; `eval` prints one engine's
    # column of that report.  On the confusable-root slice (`பட` plus
    # each built-in pattern, in both paradigms) the engines part on most
    # surfaces, and the last `compare --format csv` row before `avg`
    # carries the counts and accuracy `eval` prints for each engine.
    # Both commands read the `generate` output from a file and over a
    # real pipe straight from `generate`.
    roots = tmp_path / "roots"
    patterns = {rule.pattern.text for rule in builtin_rules().rules}
    roots.write_text(
        "".join(sorted(f"பட{pattern}\n" for pattern in patterns)),
        encoding="utf-8",
    )
    gold = tmp_path / "gold"

    def generate(out):
        for paradigm in PARADIGMS:
            argv = ["generate", "--paradigm", paradigm]
            with open(roots, "rb") as stdin:
                assert _tamilstem(argv, stdin, out).wait(timeout=60) == EX_OK

    with open(gold, "wb") as out:
        generate(out)

    def output(argv):
        """*argv*'s stdout on the gold file, the same as piped from
        `generate`."""
        with open(gold, "rb") as stdin:
            proc = _tamilstem(argv, stdin, subprocess.PIPE)
            from_file = proc.communicate(timeout=60)[0]
        assert proc.returncode == EX_OK
        proc = _tamilstem(argv, subprocess.PIPE, subprocess.PIPE)
        generate(proc.stdin)
        assert proc.communicate(timeout=60)[0] == from_file  # closes stdin
        assert proc.returncode == EX_OK
        return from_file.decode()

    row = output(["compare", "--format", "csv"]).splitlines()[-2]
    _, n_unique, strip, strip_acc, light, light_acc = row.split(",")
    assert strip != light
    for algo, n_correct, acc in (
        ("strip", strip, strip_acc),
        ("light", light, light_acc),
    ):
        assert output(["eval", "--algo", algo]) == (
            f"n_unique\t{n_unique}\nn_correct\t{n_correct}\naccuracy\t{acc}\n"
        )


def _piped(argv, data: bytes) -> bytes:
    """The stdout of ``python -B -m tamilstem`` *argv* reading *data*,
    both over real pipes; the command must exit 0 and write something."""
    proc = _tamilstem(argv, subprocess.PIPE, subprocess.PIPE)
    out = proc.communicate(data, timeout=60)[0]
    assert proc.returncode == EX_OK and out
    return out


def test_doubled_gold_scores_as_the_gold_over_pipes():
    # `eval` prints the same scores for `generate` output and for that
    # output with every line doubled: a repeated gold line reuses what
    # was parsed from its first occurrence.  `compare --format csv`
    # prints the same bytes for both, but for its first column,
    # `n_words`, which counts every line.
    gold = _piped(["generate", "--paradigm", "verb"], "படி\nஓடு\n".encode())
    doubled = b"".join(line + line for line in gold.splitlines(True))
    for algo in sorted(ENGINES):
        argv = ["eval", "--algo", algo]
        assert _piped(argv, doubled) == _piped(argv, gold)

    def csv_after_n_words(data):
        report = _piped(["compare", "--format", "csv"], data)
        return [line.split(b",", 1)[1] for line in report.splitlines()]

    assert csv_after_n_words(doubled) == csv_after_n_words(gold)


def test_nfd_gold_scores_as_the_nfc_gold_over_pipes():
    # `compare` reads each gold line as an NFC text pair, so `generate`
    # output decomposed to NFD (ொ, ோ and ௌ split into two code points)
    # scores exactly as the NFC output does.
    roots = "கொடு\nபோடு\nபடி\n".encode()
    gold = _piped(["generate", "--paradigm", "verb"], roots)
    nfd = unicodedata.normalize("NFD", gold.decode()).encode()
    assert nfd != gold
    argv = ["compare", "--format", "csv"]
    assert _piped(argv, nfd) == _piped(argv, gold)


def test_mixed_gold_scores_as_the_nfc_gold_over_pipes():
    # Where every gold surface is NFC in the range the text walk reads
    # as it is, once normalized, `compare`'s walks do not scan the
    # surfaces again; one line decomposed to NFD normalizes to such
    # text.  `generate` output with one middle line decomposed to NFD
    # scores exactly as the NFC output does.
    roots = "கொடு\nபோடு\nபடி\n".encode()
    lines = _piped(["generate", "--paradigm", "verb"], roots).decode()
    lines = lines.splitlines(keepends=True)
    middle = next(
        i for i in range(len(lines) // 2, len(lines))
        if unicodedata.normalize("NFD", lines[i]) != lines[i]
    )
    mixed = lines.copy()
    mixed[middle] = unicodedata.normalize("NFD", lines[middle])
    argv = ["compare", "--format", "csv"]
    assert _piped(argv, "".join(mixed).encode()) == (
        _piped(argv, "".join(lines).encode())
    )


# Tokens that `stem` walks by letters: a non-NFC spelling (ெ + ா), a
# zero-width joiner, e + combining acute; plain Latin words; and words
# the rule files below rewrite.  The last one's text walk must hand over
# at லம் -> ா, whose ா NFC joins to the ெ before it.
_MIXED_TOKENS = "".join(
    token + "\n"
    for token in (
        "மரங்கெ\u0bbeள்", "கெ\u0bbeலம்", "மரங்கள்\u200dஉக்கு", "படி\u200d",
        "cafe\u0301", "cafe\u0301s", "computer", "singing", "cats",
        "படலம்", "படலங்கள்", "படலம்உக்கு", "கெலம்", "மரங்கள்உக்கு",
        "z가xy", "z각", "படகெலம்",
    )
).encode()
# A merging replacement (லம் -> ா): the walk over a token's text hands
# over to the walk over its letters.
_MERGING_RULE_FILE = (
    "Case\tலம்\tா\t2\tPlural\nCase\tஉக்கு\t\t1\tPlural\n"
    "Plural\tங்கள்\tம்\t1\t\n"
)
# A replacement, the Hangul trailing consonant U+11A8, that NFC joins to
# the kept syllable 가: the step re-segments, so the next rule strips the
# composed 각.
_HANGUL_RULE_FILE = "Case\txy\t\u11a8\t1\tCase\nCase\t각\t\t1\t\n"


def test_plain_and_traced_stem_agree_over_pipes(tmp_path):
    # `stem` takes one walk per token, traced or not, and without
    # --trace writes exactly the lines of `stem --trace` that are not
    # trace lines, for both engines.  The input is the generated words
    # of a noun and a verb, then the mixed tokens; the rules are the
    # built-in ones, then the merging and the Hangul rule files.
    generated = _piped(
        ["generate", "--paradigm", "noun"], "மரம்\n".encode()
    ) + _piped(["generate", "--paradigm", "verb"], "படி\n".encode())
    words = b"".join(
        line.split(b"\t")[0] + b"\n" for line in generated.splitlines()
    )
    merging, hangul = tmp_path / "merging", tmp_path / "hangul"
    merging.write_text(_MERGING_RULE_FILE, encoding="utf-8")
    hangul.write_text(_HANGUL_RULE_FILE, encoding="utf-8")
    assert _piped(["stem", "--rules", str(hangul)], "z가xy\n".encode()) == (
        "z가xy\tz\n".encode()
    )
    for rules, inputs in (
        ([], (words, _MIXED_TOKENS)),
        (["--rules", str(merging)], (words, _MIXED_TOKENS)),
        # No Hangul rule matches a generated Tamil word.
        (["--rules", str(hangul)], (_MIXED_TOKENS,)),
    ):
        for data in inputs:
            for algo in sorted(ENGINES):
                argv = ["stem", "--algo", algo, *rules]
                traced = _piped([*argv, "--trace"], data).splitlines(True)
                plain = [line for line in traced if not line.startswith(b"#")]
                assert plain != traced, argv
                assert _piped(argv, data) == b"".join(plain), argv


@pytest.mark.parametrize(
    "argv,data,before,message",
    [
        pytest.param(
            [command],
            "மரம்\tமரம்\n".encode() + b"\xff\tx\n",
            "",
            "line 2: not valid UTF-8 (invalid start byte)",
            id=command,
        )
        for command in ("eval", "compare")
    ]
    + [
        pytest.param(
            [command],
            b"# \xff\n" + "மரம்\tமரம்\n".encode(),
            "",
            "line 1: not valid UTF-8 (invalid start byte)",
            id=f"{command}-comment",
        )
        for command in ("eval", "compare")
    ]
    + [
        pytest.param(
            ["generate", "--paradigm", "verb"],
            "படி\n".encode() + b"\xff\n",
            "படி\n",
            "line 2: not valid UTF-8 (invalid start byte)",
            id="generate",
        ),
        pytest.param(
            ["generate", "--paradigm", "verb"],
            "படி\n".encode() + b"# \xff\n" + "மரம்\n".encode(),
            "படி\n",
            "line 2: not valid UTF-8 (invalid start byte)",
            id="generate-comment",
        ),
    ],
)
def test_undecodable_gold_and_roots_on_stdin(argv, data, before, message):
    # An undecodable byte in gold data or roots read from stdin, in a
    # comment line too, exits 65, names its line and says the input is
    # not valid UTF-8, as a `--gold` file does.  `generate` has written
    # the output of the lines *before* it.
    out = run_cli(argv, before)[1]
    proc = run_entry(argv, data, "utf-8", launch=("-B", "-m", "tamilstem"))
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        EX_DATA, out, f"tamilstem: error: <stdin>: {message}\n"
    )


def test_chunk_past_the_end_names_the_gold_source(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    for source, argv in (("<stdin>", []), (str(path), ["--gold", str(path)])):
        assert run_cli(["compare", "--chunks", "2", *argv], "a\tb\n") == (
            EX_DATA,
            "",
            f"tamilstem: error: {source}: chunk size 2 exceeds gold length 1\n",
        )


def test_version_goes_to_the_given_stdout(capsys):
    streams = sys.stdout, sys.stderr
    out = f"tamilstem {tamilstem.__version__}\n"
    assert run_cli(["--version"]) == (EX_OK, out, "")
    assert capsys.readouterr() == ("", "")
    assert sys.stdout is streams[0] and sys.stderr is streams[1]


@pytest.mark.parametrize(
    "argv,start",
    [
        (["--help"], "usage: tamilstem [-h] [--version]\n"),
        (["stem", "--help"], "usage: tamilstem stem [-h] "),
    ],
    ids=["help", "stem-help"],
)
def test_help_goes_to_the_given_stdout(argv, start, capsys):
    streams = sys.stdout, sys.stderr
    code, out, err = run_cli(argv)
    assert (code, err) == (EX_OK, "")
    assert out.startswith(start)
    assert capsys.readouterr() == ("", "")
    assert sys.stdout is streams[0] and sys.stderr is streams[1]
    with pytest.raises(BrokenPipeError):
        main(argv, io.StringIO(), _BrokenPipe(), io.StringIO())


def test_deferred_arguments_take_their_choices_from_their_modules():
    assert "{%s}" % ",".join(REPORT_FORMATS) in run_cli(["compare", "--help"])[1]
    assert "{%s}" % ",".join(PARADIGMS) in run_cli(["generate", "--help"])[1]


def test_main_reuses_its_parser_with_the_same_results():
    gold = run_cli(["generate", "--paradigm", "verb"], "படி\n")[1]
    calls = [
        (["compare", "--format", "yaml"], gold),
        (["compare", "--chunks", "20,41", "--format", "csv"], gold),
        (["stem", "--trace"], "மரங்கள்உக்கு\nபெண்கள்\n"),
        (["generate", "--paradigm", "noun"], "மரம்\nபெண்\n"),
        (["rules-validate"], ""),
        (["compare", "--format", "yaml"], gold),
    ]
    in_sequence = [run_cli(*call) for call in calls]
    assert [code for code, _, _ in in_sequence] == [64, 0, 0, 0, 0, 64]
    assert cli._build_parser() is cli._build_parser()
    for call, result in zip(calls, in_sequence):
        cli._build_parser.cache_clear()
        assert run_cli(*call) == result, call


# Pieces of fuzz input: text the commands parse, the bytes that trip
# readers up (BOM, CR, tab, NUL, invalid and truncated UTF-8) and
# Tamil letters cut off after one or two of their three bytes.
_FUZZ_PIECES = [
    "மரம்".encode(), "பெண்கள்".encode(), "படி".encode(), "உக்கு".encode(),
    b"Case", b"Plural", b"1", b"s", b"a", b" ", b"#",
    b"\xef\xbb\xbf", b"\r", b"\n", b"\r\n", b"\t", b"\x00",
    b"\xff", b"\xc3\x28", "க".encode()[:1], "க".encode()[:2],
]


def _fuzz_bytes(rng):
    pieces = rng.choices(_FUZZ_PIECES, k=rng.randint(0, 14))
    if rng.random() < 0.3:
        pieces.append(rng.randbytes(rng.randint(1, 8)))
    return b"".join(pieces)


_NOT_UTF8 = re.compile(
    r"tamilstem: error: (.+?): line (\d+): not valid UTF-8 \((.+)\)\n"
)


def _strict_reason(source: bytes, lineno: int) -> "str | None":
    """Why line *lineno* of *source*, with its ``\\n``, fails a strict
    decode; None if it decodes."""
    line = source.split(b"\n")[lineno - 1]
    if source.count(b"\n") >= lineno:
        line += b"\n"
    try:
        line.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.reason
    return None


def test_random_bytes_never_escape_main(tmp_path):
    # Every command reports a bad byte, on stdin or in a file, with the
    # reason a strict decode of that byte's line gives.
    rng = random.Random(20261018)
    path = tmp_path / "input.tsv"
    commands = [
        ["stem"],
        ["stem", "--algo", "strip", "--trace"],
        ["stem", "--rules", str(path)],
        ["eval"],
        ["eval", "--gold", str(path)],
        ["compare", "--chunks", "1,2", "--format", "csv"],
        ["compare", "--rules", str(path)],
        ["rules-validate", str(path)],
        ["generate", "--paradigm", "noun"],
        ["generate", "--paradigm", "verb"],
    ]
    codes = collections.Counter()
    for _ in range(1500):
        argv = rng.choice(commands)
        data = _fuzz_bytes(rng)
        path.write_bytes(_fuzz_bytes(rng) if rng.random() < 0.5 else data)
        for errors in ("strict", "surrogateescape"):
            stdin = io.TextIOWrapper(
                io.BytesIO(data), encoding="utf-8", errors=errors, newline="\n"
            )
            stdout, stderr = io.StringIO(), io.StringIO()
            code = main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
            assert code in (EX_OK, EX_DATA), (argv, data, stderr.getvalue())
            codes[code] += 1
            match = _NOT_UTF8.fullmatch(stderr.getvalue())
            if match:
                source, lineno, reason = match.groups()
                raw = data if source == "<stdin>" else path.read_bytes()
                assert _strict_reason(raw, int(lineno)) == reason, (
                    argv, errors, data, stderr.getvalue()
                )
                codes["not UTF-8"] += 1
    assert codes[EX_OK] > 100 and codes[EX_DATA] > 100, codes
    assert codes["not UTF-8"] > 1000, codes
