"""Tamil stemming toolkit: letter segmentation, declarative suffix
rules, two stemming engines, a paradigm generator, and an evaluation
harness.

``import tamilstem`` loads only the stemming engine (``graphemes``,
``rules`` and ``stemmers``).  The names of ``evaluation`` and
``paradigm`` load their module on first access (PEP 562), so a process
that only stems never imports ``csv``, ``json`` or ``fractions``.
"""

from .graphemes import GraphemeWord, ends_with, is_tamil, normalize, segment, word
from .rules import (
    ALL_CLASSES,
    RuleConflictError,
    RuleError,
    RuleSet,
    SuffixClass,
    SuffixRule,
    apply_rule,
    builtin_rules,
    candidates,
    parse_rules,
    render_rules,
    validate_rules,
)
from .stemmers import (
    ENGINES,
    StemResult,
    StemStep,
    adjectival_to_verb,
    light_stem,
    stem_batch,
    strip_plural,
    strip_stem,
    strip_tense,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CLASSES",
    "DatasetStats",
    "ENGINES",
    "EvalReport",
    "EvalRow",
    "GoldConflictWarning",
    "GoldEntry",
    "GoldError",
    "GraphemeWord",
    "PARADIGMS",
    "RuleConflictError",
    "RuleError",
    "RuleSet",
    "StemResult",
    "StemStep",
    "SuffixClass",
    "SuffixRule",
    "accuracy",
    "adjectival_to_verb",
    "apply_rule",
    "builtin_rules",
    "build_corpus",
    "bundled_gold",
    "candidates",
    "compare",
    "dataset_stats",
    "default_roots",
    "ends_with",
    "evaluate",
    "extra_gold",
    "format_accuracy",
    "generate_forms",
    "is_tamil",
    "light_stem",
    "load_gold",
    "load_roots",
    "normalize",
    "parse_report_csv",
    "parse_rules",
    "render",
    "render_rules",
    "segment",
    "stem_batch",
    "strip_plural",
    "strip_stem",
    "strip_tense",
    "validate_rules",
    "word",
    "__version__",
]

# Public names loaded on first access, by home module.
_LAZY = {
    **dict.fromkeys(
        (
            "DatasetStats",
            "EvalReport",
            "EvalRow",
            "GoldConflictWarning",
            "GoldEntry",
            "GoldError",
            "accuracy",
            "bundled_gold",
            "compare",
            "dataset_stats",
            "evaluate",
            "extra_gold",
            "format_accuracy",
            "load_gold",
            "parse_report_csv",
            "render",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        ("PARADIGMS", "build_corpus", "default_roots", "generate_forms", "load_roots"),
        "paradigm",
    ),
}


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
