"""Command-line behavior: outputs, pipes, and exit codes."""

import collections
import io
import os
import random
import shutil
import subprocess
import sys

import pytest

import tamilstem
from tamilstem import cli, stemmers
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
from tamilstem.paradigm import PARADIGMS, build_corpus
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
    code, _, err = run_cli(["eval"], "")
    assert code == EX_DATA
    assert "empty gold" in err


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
# Every fresh interpreter starts with -B, so it writes no bytecode beside
# the sources.
_PYTHON = (sys.executable, "-B")


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
        [*_PYTHON, *launch, *argv],
        input=data,
        capture_output=True,
        timeout=60,
        env=_entry_env(io_encoding, buffered),
    )


_BAD_UTF8 = "மரம்\n".encode() + b"ab\xff\xfecd\n"
_BAD_GOLD = "மரம்\tமரம்\n".encode() + b"\xff\tx\n"


@pytest.mark.parametrize(
    "argv,data,io_encoding",
    [
        pytest.param(argv, data, io_encoding, id=name + suffix)
        for io_encoding, suffix in (
            ("utf-8:surrogateescape", ""),
            ("utf-8:strict", "-strict"),
        )
        for name, argv, data in (
            ("stem", ["stem"], _BAD_UTF8),
            ("eval", ["eval"], _BAD_GOLD),
            ("compare", ["compare"], _BAD_GOLD),
            ("generate", ["generate", "--paradigm", "noun"], _BAD_UTF8),
        )
    ],
)
def test_undecodable_stdin_exits_65_with_line(argv, data, io_encoding):
    # The console script decodes stdin the same way whatever the locale
    # chose, so a strict PYTHONIOENCODING changes nothing.
    proc = run_entry(argv, data, io_encoding)
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == EX_DATA, err
    assert err.startswith("tamilstem: error: <stdin>: line 2: ")
    assert "Traceback" not in err
    if argv == ["stem"]:
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
        read, write = os.pipe()
        if fd == 2:
            os.close(read)  # the reader leaves before anything is written
        with open(source, "rb") as stdin:
            proc = subprocess.Popen(
                [*_PYTHON, "-c", _ENTRY, *argv],
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
        assert proc.returncode == EX_PIPE, buffered
        assert (err if fd == 1 else out) == b"", buffered


def test_closed_stdin_exits_66():
    proc = subprocess.run(
        [*_PYTHON, "-c", _ENTRY, "stem"],
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
        [*_PYTHON, "-c", _ENTRY, *argv],
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
@pytest.mark.parametrize("custom", [False, True])
def test_stem_matches_a_line_by_line_oracle(tmp_path, seed, algo, trace, custom):
    text = _zipf_stream(seed, 600)
    argv = ["stem", "--algo", algo] + (["--trace"] if trace else [])
    rules = builtin_rules()
    if custom:
        path = tmp_path / "rules.tsv"
        path.write_text(_CUSTOM_RULES, encoding="utf-8")
        argv += ["--rules", str(path)]
        rules = parse_rules(_CUSTOM_RULES)
    code, out, err = run_cli(argv, text)
    assert (code, err) == (EX_OK, "")
    assert out == _stem_oracle(algo, trace, rules, text)


def _count_walks(monkeypatch):
    """Count, per token, the walks ``stem`` runs (its one call site)."""
    calls = collections.Counter()
    walk = cli._walk

    def counting(rules, token, *args):
        calls[token] += 1
        return walk(rules, token, *args)

    monkeypatch.setattr(cli, "_walk", counting)
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
def test_stem_walks_no_token_whose_text_shows_no_rule_matches(
    monkeypatch, algo
):
    text = "கணினி\ncomputer\nமரங்கள்\nகணினி\nமரங்கள்\n"
    calls = _count_walks(monkeypatch)
    for trace in (False, True):
        calls.clear()
        expected = _stem_oracle(algo, trace, builtin_rules(), text)
        argv = ["stem", "--algo", algo] + (["--trace"] if trace else [])
        code, out, err = run_cli(argv, text)
        assert (code, out, err) == (EX_OK, expected, "")
        assert calls == {"மரங்கள்": 1}


def _count_trace_objects(monkeypatch):
    """Count the `StemStep`s and `StemResult`s the walks build."""
    built = collections.Counter()
    for cls in (stemmers.StemStep, stemmers.StemResult):

        class Counting(cls):
            __slots__ = ()

            def __init__(self, *fields, name=cls.__name__):
                built[name] += 1
                super().__init__(*fields)

        monkeypatch.setattr(stemmers, cls.__name__, Counting)
    return built


def test_untraced_stem_and_single_step_helpers_build_no_trace(monkeypatch):
    text = _zipf_stream(5, 300)
    expected = {a: _stem_oracle(a, False, builtin_rules(), text) for a in ENGINES}
    surfaces = [s.text for s, _ in build_corpus()]
    built = _count_trace_objects(monkeypatch)
    for algo in sorted(ENGINES):
        code, out, _ = run_cli(["stem", "--algo", algo], text)
        assert (code, out) == (EX_OK, expected[algo])
    changed = 0
    for helper in (tamilstem.strip_plural, tamilstem.adjectival_to_verb,
                   tamilstem.strip_tense):
        changed += sum(helper(s).text != s for s in surfaces)
    assert changed and not built
    # The counting classes do see what the traced walks build.
    run_cli(["stem", "--trace"], text)
    assert built["StemStep"] and not built["StemResult"]
    tamilstem.light_stem("மரங்கள்")
    assert built["StemResult"] == 1


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


def test_random_bytes_never_escape_main(tmp_path):
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
    assert codes[EX_OK] > 100 and codes[EX_DATA] > 100, codes
