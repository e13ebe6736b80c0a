"""The package's import surface: what ``import tamilstem`` loads, where
its public names are declared, that each has a caller, the names of
``evaluation`` and ``paradigm`` that load on first access, that scoring
needs only the standard library, reading the bundled data from a zip,
the README's library example, where the text walk counts letters and
when a stem walked as text splits its letters."""

import ast
import glob
import importlib
import io
import os
import re
import subprocess
import sys
import zipfile
from unittest import mock

import pytest

import tamilstem
from tamilstem import cli, graphemes, rules
from tamilstem.evaluation import bundled_gold
from tamilstem.graphemes import _LETTER, _packaged_text, word
from tamilstem.paradigm import default_roots

SRC = os.path.dirname(os.path.dirname(tamilstem.__file__))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Modules that only evaluation and generation need.  With -I -S no .pth
# file preloads importlib.resources, so its absence means tamilstem did
# not import it either.
_NOT_COLD = (
    "tamilstem.evaluation",
    "tamilstem.paradigm",
    "csv",
    "json",
    "fractions",
    "decimal",
    "importlib.resources",
)


def _fresh(code: str, path: str = SRC) -> str:
    """Run *code* in an isolated interpreter (-I -S) with *path* first
    on sys.path; its stdout.  With -B these starts leave no bytecode
    next to the sources (-I ignores PYTHONDONTWRITEBYTECODE)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         f"import sys; sys.path.insert(0, {path!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = f"print(sorted(sys.modules.keys() & set({_NOT_COLD!r})))"


def test_stemming_loads_only_the_engine():
    out = _fresh(
        "import tamilstem\n"
        "tamilstem.builtin_rules()\n"
        "assert tamilstem.light_stem('மரங்கள்உக்கு').stem.text == 'மரம்'\n"
        + _LOADED
    )
    assert out == "[]\n"


def _counting_letters():
    """Wrap ``rules._LETTER``, whose only use in `rules` is the text
    walk's letter count, so that its ``findall`` calls are counted."""
    return mock.patch.object(rules, "_LETTER", wraps=_LETTER)


def test_the_library_engines_count_no_letters():
    # A word's letters are never counted.  A `str` is walked as text and
    # counts as `tamilstem stem` does in the CLI test below: only கைகள்,
    # whose first code points do not settle `min_stem`, once per engine.
    with _counting_letters() as letters:
        for engine in (tamilstem.light_stem, tamilstem.strip_stem):
            assert engine(word("மரங்கள்உக்கு")).stem.text == "மரம்"
            assert engine(word("கைகள்")).stem.text == "கைகள்"
        assert letters.findall.call_count == 0
        for engine in (tamilstem.light_stem, tamilstem.strip_stem):
            assert engine("மரங்கள்உக்கு").stem.text == "மரம்"
        assert letters.findall.call_count == 0
        for count, engine in enumerate(
            (tamilstem.light_stem, tamilstem.strip_stem), start=1
        ):
            assert engine("கைகள்").stem.text == "கைகள்"
            assert letters.findall.call_count == count


def test_a_str_result_splits_letters_once_on_first_read():
    # Each word of the result splits its own text, once, when first read.
    expected = hash(tamilstem.light_stem(word("மரங்கள்உக்கு")))
    with mock.patch.object(graphemes, "_LETTER", wraps=_LETTER) as letters:
        result = tamilstem.light_stem("மரங்கள்உக்கு")
        stem = result.stem
        assert stem.text == "மரம்"
        assert letters.findall.call_count == 0
        assert stem.graphemes == ("ம", "ர", "ம்")
        assert letters.findall.call_count == 1
        assert stem.graphemes == ("ம", "ர", "ம்") and len(stem) == 3
        assert letters.findall.call_count == 1
        # The input and the step between: two more texts.
        assert hash(result) == expected
        assert letters.findall.call_count == 3


def _run(argv, text):
    out = io.StringIO()
    assert cli.main(argv, io.StringIO(text), out) == 0
    return out.getvalue()


def test_the_cli_walks_count_no_letters():
    # The text walk reads the two letters each built-in rule keeps from
    # two code points, so neither `stem` nor `compare` counts letters
    # over the bundled gold or `generate` output of the default roots.
    golds = [
        "".join(f"{e.surface.text}\t{e.expected_stem.text}\n"
                for e in bundled_gold())
    ]
    for paradigm in ("noun", "verb"):
        roots = "".join(
            f"{r.text}\n" for r, p in default_roots() if p == paradigm
        )
        golds.append(_run(["generate", "--paradigm", paradigm], roots))
    stripped = 0
    with _counting_letters() as letters:
        for gold in golds:
            words = "".join(
                line.split("\t")[0] + "\n" for line in gold.splitlines()
            )
            for algo in ("light", "strip"):
                for trace in ([], ["--trace"]):
                    out = _run(["stem", "--algo", algo, *trace], words)
                    stripped += out.count("\n# ")
            _run(["compare", "--format", "csv"], gold)
        assert stripped > 0
        assert letters.findall.call_count == 0
        # The vowel sign of கை joins, and கள், which keeps two letters,
        # starts at the third code point: only a count tells.
        assert _run(["stem"], "கைகள்\n") == "கைகள்\tகைகள்\n"
        assert letters.findall.call_count == 1


def test_stem_command_loads_only_the_engine():
    out = _fresh(
        "import io\n"
        "from tamilstem import cli\n"
        "stdout = io.StringIO()\n"
        "assert cli.main(['stem'], io.StringIO('மரங்கள்\\n'), stdout) == 0\n"
        "assert stdout.getvalue() == 'மரங்கள்\\tமரம்\\n'\n"
        + _LOADED
    )
    assert out == "[]\n"


def test_lazy_names_are_those_of_their_home_modules():
    assert set(tamilstem._LAZY) <= set(tamilstem.__all__)
    for name, home in tamilstem._LAZY.items():
        module = importlib.import_module(f"tamilstem.{home}")
        assert getattr(tamilstem, name) is getattr(module, name), name
    assert tamilstem.compare is tamilstem.evaluation.compare


def test_all_is_declared_once_by_each_module():
    eager = [tamilstem.graphemes, tamilstem.rules, tamilstem.stemmers]
    for module in eager:
        for name in module.__all__:
            assert getattr(tamilstem, name) is vars(module)[name], name
    declared = [name for module in eager for name in module.__all__]
    declared += [*tamilstem._LAZY, "__version__"]
    assert len(set(tamilstem.__all__)) == len(tamilstem.__all__)
    assert sorted(tamilstem.__all__) == sorted(declared)


def test_all_is_the_public_contract():
    assert sorted(tamilstem.__all__) == [
        "ALL_CLASSES", "ENGINES", "EvalReport", "EvalRow",
        "GoldConflictWarning", "GoldEntry", "GoldError", "GraphemeWord",
        "PARADIGMS", "RuleConflictError", "RuleError", "RuleSet",
        "StemResult", "StemStep", "SuffixClass", "SuffixRule",
        "__version__", "accuracy", "apply_rule", "build_corpus",
        "builtin_rules", "bundled_gold", "candidates", "compare",
        "default_roots", "evaluate", "extra_gold", "format_accuracy",
        "generate_forms", "light_stem", "load_gold", "load_roots",
        "normalize", "parse_rules", "render", "render_rules", "segment",
        "stem_batch", "strip_stem", "word",
    ]


def _readme_library_example() -> str:
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        (block,) = re.findall(r"^```python\n(.*?)^```", f.read(), re.M | re.S)
    return block


def test_every_public_name_has_a_caller():
    # A caller reads the name: a name or attribute in the package's
    # modules or the benchmark scripts, or an attribute in README's
    # library example.  The strings of `__all__` and `_LAZY` call nothing.
    trees = []
    for pattern in ("src/tamilstem/*.py", "benchmarks/*.py"):
        for path in glob.glob(os.path.join(REPO, pattern)):
            with open(path, encoding="utf-8") as f:
                trees.append(ast.parse(f.read()))
    called = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    called |= {
        node.attr
        for node in ast.walk(ast.parse(_readme_library_example()))
        if isinstance(node, ast.Attribute)
    }
    assert len(trees) > 8  # the package's 8 modules, then the benchmarks
    assert sorted(set(tamilstem.__all__) - called) == []


def test_first_access_loads_and_binds_a_name():
    out = _fresh(
        "import tamilstem\n"
        "assert 'compare' not in vars(tamilstem)\n"
        "compare = tamilstem.compare\n"
        "assert vars(tamilstem)['compare'] is compare\n"
        "assert compare is sys.modules['tamilstem.evaluation'].compare\n"
        "print(sorted(sys.modules.keys() & {'tamilstem.evaluation', 'tamilstem.paradigm'}))"
    )
    # evaluation imports paradigm for build_corpus.
    assert out == "['tamilstem.evaluation', 'tamilstem.paradigm']\n"


def test_scoring_loads_only_the_standard_library():
    out = _fresh(
        "from tamilstem import bundled_gold, compare, render\n"
        "render(compare(list(bundled_gold()), [200, 1080]), 'csv')\n"
        "allowed = sys.stdlib_module_names | {'tamilstem', '__main__'}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] not in allowed))"
    )
    assert out == "[]\n"


def test_star_import_binds_all_of_all():
    out = _fresh(
        "from tamilstem import *\n"
        "import tamilstem\n"
        "print([n for n in tamilstem.__all__ if globals().get(n) is not getattr(tamilstem, n)])"
    )
    assert out == "[]\n"


def test_dir_lists_all_of_all():
    assert set(tamilstem.__all__) <= set(dir(tamilstem))
    assert dir(tamilstem) == sorted(dir(tamilstem))


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as caught:
        tamilstem.x
    assert str(caught.value) == "module 'tamilstem' has no attribute 'x'"
    assert (caught.value.name, caught.value.obj) == ("x", tamilstem)
    assert not hasattr(tamilstem, "x")


def test_data_is_read_from_a_zip(tmp_path):
    archive = tmp_path / "tamilstem.zip"
    package = os.path.join(SRC, "tamilstem")
    with zipfile.ZipFile(archive, "w") as zf:
        for root, dirs, files in os.walk(package):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                path = os.path.join(root, name)
                zf.write(path, os.path.relpath(path, SRC))
    out = _fresh(
        "import tamilstem\n"
        "print(tamilstem.__file__.startswith(sys.path[0]),"
        " len(tamilstem.builtin_rules().rules),"
        " len(tamilstem.default_roots()), len(tamilstem.extra_gold()))",
        str(archive),
    )
    assert out == "True 90 34 54\n"


def test_data_stays_readable_through_importlib_resources():
    from importlib import resources

    data = resources.files("tamilstem.data")
    for name in ("builtin_rules.tsv", "default_roots.tsv", "extra_gold.tsv"):
        assert data.joinpath(name).read_text(encoding="utf-8") == _packaged_text(name)


def test_readme_library_example_gives_what_its_comments_say():
    # Each `expr  # literal` line of the block must evaluate to literal.
    block = _readme_library_example()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        _, commented, literal = lines[statement.end_lineno - 1].partition("  # ")
        if isinstance(statement, ast.Expr) and commented:
            assert eval(code, namespace) == ast.literal_eval(literal), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
