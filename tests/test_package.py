"""The package's import surface: what ``import tamilstem`` loads, the
names of ``evaluation`` and ``paradigm`` that load on first access, and
reading the bundled data from a zip."""

import importlib
import os
import subprocess
import sys
import zipfile

import pytest

import tamilstem
from tamilstem.graphemes import _packaged_text

SRC = os.path.dirname(os.path.dirname(tamilstem.__file__))

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
    assert len(tamilstem._LAZY) == 21
    assert set(tamilstem._LAZY) <= set(tamilstem.__all__)
    for name, home in tamilstem._LAZY.items():
        module = importlib.import_module(f"tamilstem.{home}")
        assert getattr(tamilstem, name) is getattr(module, name), name
    assert tamilstem.compare is tamilstem.evaluation.compare


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
