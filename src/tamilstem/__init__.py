"""Tamil stemming toolkit: letter segmentation, declarative suffix
rules, two stemming engines, a paradigm generator, and an evaluation
harness.

``import tamilstem`` loads only the stemming engine (``graphemes``,
``rules`` and ``stemmers``).  The names of ``evaluation`` and
``paradigm`` load their module on first access (PEP 562), so a process
that only stems never imports ``csv``, ``json`` or ``fractions``.

Each public name is declared once: an engine name in the ``__all__`` of
its own module, beside its definition, and a lazy name in ``_LAZY``.
The package's ``__all__`` joins those lists.
"""

from . import graphemes, rules, stemmers
from .graphemes import *
from .rules import *
from .stemmers import *

__version__ = "0.1.0"

# Public names loaded on first access, by home module.
_LAZY = {
    **dict.fromkeys(
        (
            "EvalReport",
            "EvalRow",
            "GoldConflictWarning",
            "GoldEntry",
            "GoldError",
            "accuracy",
            "bundled_gold",
            "compare",
            "evaluate",
            "extra_gold",
            "format_accuracy",
            "load_gold",
            "render",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        ("PARADIGMS", "build_corpus", "default_roots", "generate_forms", "load_roots"),
        "paradigm",
    ),
}

__all__ = [
    *graphemes.__all__, *rules.__all__, *stemmers.__all__, *_LAZY, "__version__"
]


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        import sys

        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}",
            name=name,
            obj=sys.modules[__name__],
        )
    from importlib import import_module

    # Bound here, later lookups never reach this function.
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
