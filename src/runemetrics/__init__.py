"""Corpus-level diacritic usage and complexity analytics.

The toolkit segments text into runes (base letter + attached marks),
computes density and surprisal metrics over corpora, profiles writing
systems as single- or multi-diacritic, trains a frequency baseline
restorer, and scores restorations with Pearson-correlation support for
cross-language analysis.

Each public name imports its module on first use, so a process
compiles only the modules it touches.
"""

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in (
        ("script_core", "CorpusError ScriptProfile BUILTIN_PROFILES get_profile load_profile "
                        "normalize_decompose strip_text render"),
        ("corpus_io", "Corpus SamplingConfig Sentence Xorshift64Star read_corpus "
                      "read_plaintext sample write_plaintext"),
        ("metrics", "FrequencyTables MetricReport build_tables merge_tables rune_surprisal "
                    "diacritic_token_surprisal diacritic_structural_surprisal density metric_report"),
        ("profiler", "CorpusProfile profile"),
        ("baseline", "BaselineModel train diacritize"),
        ("eval_stats", "CorrelationReport EvalReport correlate_table evaluate pearson read_table "
                       "regularized_incomplete_beta student_t_two_tailed"),
    )
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` and keep the value here.
    Any other name raises AttributeError, so ``from runemetrics import
    baseline`` still finds the submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
